"""Small dense linear algebra and algebra arithmetic over a prime field.

Vectors are int tuples/arrays with entries reduced mod p.  Kernels,
ranks and radicals come from elimination mod p, exact at every prime:
in int64 while the products involved fit and in Python ints beyond.
Only the algebra homomorphisms to the prime field are enumerated, over
all p^dim unital functionals, so their callers bound p^dim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
    """Rows spanning {v : M v = 0} mod p: one per free column of M, in
    column order, equal to 1 there and 0 at the other free columns."""
    n = np.shape(M)[1]
    reduced, pivots = rref(M, p)
    free = [c for c in range(n) if c not in pivots]
    out = np.zeros((len(free), n), dtype=reduced.dtype)
    for row, c in enumerate(free):
        out[row, c] = 1
        for pivot_row, pc in zip(reduced, pivots):
            out[row, pc] = -pivot_row[c] % p
    return out


def _reduced(a, m: int, terms: int) -> np.ndarray:
    """a mod m: in int64 while a sum of ``terms`` products of residues
    fits, and in Python ints beyond, so that contractions stay exact."""
    if terms * m * m < 2**63:
        return np.asarray(a, dtype=np.int64) % m
    return np.asarray(a).astype(object) % m


def _power_trace(M, e: int, q: int) -> int:
    """Trace of M^e mod q, for a square integer matrix M and e >= 1."""
    M = _reduced(M, q, len(M))
    P = M
    for bit in bin(e)[3:]:
        P = P @ P % q
        if bit == "1":
            P = P @ M % q
    return int(np.trace(P)) % q


def subspace_basis(vectors, p: int) -> np.ndarray:
    if not len(vectors):
        return np.zeros((0, 0), dtype=np.int64)
    basis, _ = rref(vectors, p)
    return basis


@dataclass(frozen=True, eq=False)
class FpAlgebra:
    """Finite-dimensional unital algebra over the field with p elements."""

    p: int
    dim: int
    table: np.ndarray  # (dim, dim, dim) ints, reduced mod p when the algebra is built
    one: np.ndarray  # (dim,)

    def __post_init__(self):
        object.__setattr__(self, "table", _reduced(self.table, self.p, self.dim))

    def left_rows(self, u) -> np.ndarray:
        """Rows u b_0, ..., u b_{dim-1}: the transposed matrix of left
        multiplication by u, with entries in [0, p)."""
        return np.tensordot(_reduced(u, self.p, self.dim), self.table, axes=([0], [0])) % self.p

    def multiply(self, u, v) -> np.ndarray:
        return np.tensordot(_reduced(v, self.p, self.dim), self.left_rows(u),
                            axes=([0], [0])) % self.p

    def subspace_product(self, basis_a, basis_b) -> np.ndarray:
        prods = [
            self.multiply(a, b)
            for a in basis_a
            for b in basis_b
        ]
        prods = [v for v in prods if any(v % self.p)]
        if not prods:
            return np.zeros((0, self.dim), dtype=np.int64)
        return subspace_basis(prods, self.p)

    def is_nilpotent_subspace(self, basis) -> bool:
        current = basis
        for _ in range(self.dim + 1):
            if current.shape[0] == 0:
                return True
            current = self.subspace_product(current, basis)
        return False

    def radical(self) -> np.ndarray:
        """Basis of the Jacobson radical, in reduced row echelon form.

        The trace chain of Cohen, Ivanyos and Wales (Finding the radical
        of an algebra of linear transformations, JPAA 117/118, 1997) on
        the left regular representation.  Let g_i(y) be the trace of the
        p^i-th power of the matrix of left multiplication by y, lifted
        entrywise to [0, p), divided by p^i, mod p.  Starting from the
        whole algebra, the ideals
        I_i = {x in I_{i-1} : g_i(x b_j) = 0 for every basis element b_j},
        for the i with p^i <= dim, end at the radical.  g_i is linear on
        I_{i-1}, so each step is one kernel mod p; for p > dim the chain
        is the single step of Dickson's criterion, the kernel of the
        trace form.  The result is certified to be a two-sided ideal and
        nilpotent.
        """
        p, n = self.p, self.dim
        units = np.eye(n, dtype=np.int64)
        ideal = units
        i = 0
        while p**i <= n and len(ideal):
            values = []  # g_i(x b_j) for the basis rows x of I_{i-1}
            for x in ideal:
                for b in units:
                    t = _power_trace(self.left_rows(self.multiply(x, b)), p**i, p ** (i + 1))
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
        products = [self.multiply(u, r) for r in ideal for u in units]
        products += [self.multiply(r, u) for r in ideal for u in units]
        if len(rref(list(ideal) + products, p)[1]) != len(ideal):
            raise AssertionError("radical not a two-sided ideal")
        if not self.is_nilpotent_subspace(ideal):
            raise AssertionError("radical not nilpotent")
        return ideal

    def homs_to_prime_field(self) -> list:
        """All unital algebra homomorphisms to the prime field.

        Enumerates every linear functional phi with phi(1) = 1 and keeps
        the multiplicative ones.  Commutative use only; the caller
        certifies completeness by checking that the intersection of the
        kernels is nilpotent.
        """
        homs = []
        for phi in product(range(self.p), repeat=self.dim):
            phi = np.array(phi, dtype=np.int64)
            if int(np.dot(phi, self.one)) % self.p == 1 and not (
                    (np.outer(phi, phi) - self.table @ phi) % self.p).any():
                homs.append(phi)
        return homs
