"""Reference elimination and trace chain mod p, one scalar at a time.

``modp`` eliminates with one rank-one update per pivot and runs the
Cohen-Ivanyos-Wales trace chain on stacks of matrices.  These are the
earlier row-by-row elimination and per-pair chain they replaced, kept as
oracles: every product is one ``FpAlgebra.multiply`` of two vectors and
every value of the chain one matrix power of one left multiplication.
The tests require ``modp.rref``, ``modp.nullspace`` and
``FpAlgebra.radical`` to return the same arrays.
"""

import numpy as np


def rref(rows, p: int):
    """Reduced row echelon form mod p; returns (rows, pivot_columns)."""
    dtype = np.int64 if p * p < 2**63 else object  # keeps products exact
    M = np.array([[int(x) % p for x in row] for row in rows], dtype=dtype)
    m, n = M.shape if M.size else (0, 0)
    pivots = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if M[i, c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        M[[r, pivot]] = M[[pivot, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        for i in range(m):
            if i != r and M[i, c] % p:
                M[i] = (M[i] - M[i, c] * M[r]) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return M[:r], pivots


def nullspace(M, p: int) -> np.ndarray:
    n = np.shape(M)[1]
    reduced, pivots = rref(M, p)
    free = [c for c in range(n) if c not in pivots]
    out = np.zeros((len(free), n), dtype=reduced.dtype)
    for row, c in enumerate(free):
        out[row, c] = 1
        for pivot_row, pc in zip(reduced, pivots):
            out[row, pc] = -pivot_row[c] % p
    return out


def _power_trace(M, e: int, q: int) -> int:
    """Trace of M^e mod q, for a square integer matrix M and e >= 1."""
    terms = len(M)
    M = (np.asarray(M, dtype=np.int64) if terms * q * q < 2**63
         else np.asarray(M).astype(object)) % q
    P = M
    for bit in bin(e)[3:]:
        P = P @ P % q
        if bit == "1":
            P = P @ M % q
    return int(np.trace(P)) % q


def subspace_product(alg, basis_a, basis_b) -> np.ndarray:
    prods = [alg.multiply(a, b) for a in basis_a for b in basis_b]
    prods = [v for v in prods if any(v % alg.p)]
    if not prods:
        return np.zeros((0, alg.dim), dtype=np.int64)
    return rref(prods, alg.p)[0]


def is_nilpotent_subspace(alg, basis) -> bool:
    current = basis
    for _ in range(alg.dim + 1):
        if current.shape[0] == 0:
            return True
        current = subspace_product(alg, current, basis)
    return False


def radical(alg) -> np.ndarray:
    """The trace chain of ``FpAlgebra.radical``, one value g_i(x b_j) at
    a time, with its ideal and nilpotency certificates."""
    p, n = alg.p, alg.dim
    units = np.eye(n, dtype=np.int64)
    ideal = units
    i = 0
    while p**i <= n and len(ideal):
        values = []  # g_i(x b_j) for the basis rows x of I_{i-1}
        for x in ideal:
            for b in units:
                t = _power_trace(alg.left_rows(alg.multiply(x, b)), p**i, p ** (i + 1))
                if t % p**i:
                    raise AssertionError("trace of a p^i-th power not divisible by p^i")
                values.append(t // p**i)
        G = np.array(values, dtype=object).reshape(len(ideal), n)
        kernel = nullspace(G.T, p)
        combined = np.array(kernel, dtype=object) @ np.array(ideal, dtype=object)
        ideal = rref(combined, p)[0]
        i += 1
    if not len(ideal):
        ideal = np.zeros((0, n), dtype=np.int64)
    products = [alg.multiply(u, r) for r in ideal for u in units]
    products += [alg.multiply(r, u) for r in ideal for u in units]
    if len(rref(list(ideal) + products, p)[1]) != len(ideal):
        raise AssertionError("radical not a two-sided ideal")
    if not is_nilpotent_subspace(alg, ideal):
        raise AssertionError("radical not nilpotent")
    return ideal
