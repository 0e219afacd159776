"""Exact linear algebra over the rationals and the p-local integers.

Matrices are numpy arrays of dtype ``object`` holding ``Fraction`` entries.
On top of plain rational elimination (solve, det, inverse) this module
provides the lattice layer used everywhere else:

* Smith normal form over the p-local integers, pivoting on an entry of
  minimal valuation (ties broken by lowest row, then column), so the
  diagonal comes out as p^{e_1} <= ... <= p^{e_r} deterministically;
* saturated integral kernels;
* bases of lattices spanned by finite generating sets;
* invariant factors of a finite-index (or torsion) lattice quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .padic import val


class NotSublatticeError(ValueError):
    pass


def as_matrix(rows) -> np.ndarray:
    """Build an object-dtype matrix of Fractions from nested data."""
    if isinstance(rows, np.ndarray) and rows.dtype == object:
        data = rows.tolist()
    else:
        data = rows
    m = len(data)
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        n = rows.shape[1]  # kept for m = 0, which nested data cannot show
    else:
        n = len(data[0]) if m else 0
    out = np.empty((m, n), dtype=object)
    for i, row in enumerate(data):
        if len(row) != n:
            raise ValueError("ragged matrix data")
        for j, x in enumerate(row):
            out[i, j] = Fraction(x)
    return out


def as_vector(entries) -> np.ndarray:
    out = np.empty(len(entries), dtype=object)
    for i, x in enumerate(entries):
        out[i] = Fraction(x)
    return out


def identity(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def zeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[:] = Fraction(0)
    return out


def zero_vector(n: int) -> np.ndarray:
    out = np.empty(n, dtype=object)
    out[:] = Fraction(0)
    return out


def is_integral(a, p: int) -> bool:
    """True when every entry of the array has valuation >= 0."""
    return all(val(x, p) >= 0 for x in np.asarray(a, dtype=object).flat)


def matrices_equal(a, b) -> bool:
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return a.shape == b.shape and all(x == y for x, y in zip(a.flat, b.flat))


def vectors_equal(a, b) -> bool:
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return a.shape == b.shape and all(x == y for x, y in zip(a, b))


def _eliminate(aug: np.ndarray, ncols: int):
    """Row-reduce the first ncols columns in place; returns pivot columns."""
    m = aug.shape[0]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, m):
            if aug[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            aug[[r, pivot_row]] = aug[[pivot_row, r]]
        aug[r] = aug[r] / aug[r, c]
        for i in range(m):
            if i != r and aug[i, c] != 0:
                aug[i] = aug[i] - aug[i, c] * aug[r]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def rational_rank(M) -> int:
    M = np.array(as_matrix(M))
    return len(_eliminate(M, M.shape[1]))


def solve_exact(M, B):
    """Solve M @ X = B exactly; M must have full column rank.

    B may be a vector or a matrix.  Returns None when the system is
    inconsistent; raises ValueError when the solution is not unique.
    """
    M = as_matrix(M)
    vector_rhs = np.asarray(B, dtype=object).ndim == 1
    Bm = as_matrix([B]).T if vector_rhs else as_matrix(B)
    m, n = M.shape
    aug = np.concatenate([M, Bm], axis=1)
    pivots = _eliminate(aug, n)
    if len(pivots) < n:
        raise ValueError("matrix does not have full column rank")
    for i in range(len(pivots), m):
        if any(x != 0 for x in aug[i, n:]):
            return None
    X = aug[:n, n:]
    out = np.array(X)
    return out[:, 0] if vector_rhs else out


def det(M) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    M = np.array(as_matrix(M))
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if M[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            M[[c, pivot_row]] = M[[pivot_row, c]]
            sign = -sign
        result *= M[c, c]
        for i in range(c + 1, n):
            if M[i, c] != 0:
                M[i] = M[i] - (M[i, c] / M[c, c]) * M[c]
    return sign * result


def inverse(M) -> np.ndarray:
    M = as_matrix(M)
    n = M.shape[0]
    X = solve_exact(M, identity(n))
    if X is None:
        raise ValueError("matrix not invertible")
    return X


def left_null_space(M) -> np.ndarray:
    """Rows spanning {w : w @ M = 0} over the rationals.

    Row-reduces [M | I]; the transform rows that zero out M are a basis.
    """
    M = as_matrix(M)
    m = M.shape[0]
    aug = np.concatenate([np.array(M), identity(m)], axis=1)
    _eliminate(aug, M.shape[1])
    rows = [np.array(aug[i, M.shape[1]:]) for i in range(m)
            if all(x == 0 for x in aug[i, : M.shape[1]])]
    return np.array(rows, dtype=object) if rows else zeros(0, m)


def is_ring_invertible(M, p: int) -> bool:
    """Square matrix with ring entries whose determinant has valuation 0."""
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        return False
    return is_integral(M, p) and val(det(M), p) == 0


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ M @ right = diag(p^e_1, ..., p^e_r, 0, ..)."""

    exponents: tuple
    left: np.ndarray
    right: np.ndarray
    rank: int

    def diagonal(self, p: int, shape) -> np.ndarray:
        D = zeros(*shape)
        for i, e in enumerate(self.exponents):
            D[i, i] = Fraction(p) ** e
        return D


def smith_normal_form(M, p: int) -> SmithDecomposition:
    """Smith normal form over the p-local integers.

    Requires ring entries.  A single clearing pass per pivot suffices:
    the minimal-valuation pivot divides every remaining entry, and the
    quotients stay in the ring, so the transforms are ring-invertible
    and the exponents come out already sorted.
    """
    A = np.array(as_matrix(M))
    m, n = A.shape
    if not is_integral(A, p):
        raise ValueError("smith normal form needs entries of valuation >= 0")
    L = identity(m)
    R = identity(n)
    exponents = []
    s = 0
    while s < min(m, n):
        best = None
        best_val = None
        for i in range(s, m):
            for j in range(s, n):
                if A[i, j] == 0:
                    continue
                v = val(A[i, j], p)
                if best_val is None or v < best_val:
                    best_val = v
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != s:
            A[[s, bi]] = A[[bi, s]]
            L[[s, bi]] = L[[bi, s]]
        if bj != s:
            A[:, [s, bj]] = A[:, [bj, s]]
            R[:, [s, bj]] = R[:, [bj, s]]
        pivot = A[s, s]
        for i in range(s + 1, m):
            if A[i, s] != 0:
                f = A[i, s] / pivot
                A[i] = A[i] - f * A[s]
                L[i] = L[i] - f * L[s]
        for j in range(s + 1, n):
            if A[s, j] != 0:
                g = A[s, j] / pivot
                A[:, j] = A[:, j] - g * A[:, s]
                R[:, j] = R[:, j] - g * R[:, s]
        unit = pivot / Fraction(p) ** best_val
        A[s] = A[s] / unit
        L[s] = L[s] / unit
        exponents.append(best_val)
        s += 1
    return SmithDecomposition(tuple(exponents), L, R, len(exponents))


def _clear_denominators(M: np.ndarray) -> np.ndarray:
    lcm = 1
    for x in M.flat:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    return M * Fraction(lcm) if lcm != 1 else M


def _unit_normalize_columns(B: np.ndarray, p: int) -> np.ndarray:
    """Scale each column by a unit to make it a primitive integer vector
    with positive leading entry; the spanned lattice is unchanged."""
    B = np.array(B)
    for j in range(B.shape[1]):
        col = B[:, j]
        lcm = 1
        for x in col:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        col = col * Fraction(lcm)
        g = 0
        for x in col:
            g = math.gcd(g, abs(x.numerator))
        if g:
            while g % p == 0:
                g //= p
            col = col / Fraction(g)
        for x in col:
            if x != 0:
                if x < 0:
                    col = -col
                break
        B[:, j] = col
    return B


def integral_kernel(M, p: int) -> np.ndarray:
    """Saturated basis (columns) of {v with ring entries : M @ v = 0}.

    Scaling M by a common denominator does not change the kernel, so the
    input may have arbitrary rational entries.  The last n - rank columns
    of the right Smith transform are a basis, and they are saturated
    because the transform is invertible over the ring.
    """
    M = _clear_denominators(as_matrix(M))
    n = M.shape[1]
    snf = smith_normal_form(M, p)
    return _unit_normalize_columns(snf.right[:, snf.rank:], p)


def lattice_basis_from_generators(gens, p: int) -> np.ndarray:
    """Basis (columns) of the lattice spanned over the ring by the columns
    of ``gens``.  Unlike :func:`integral_kernel` this does not saturate:
    torsion quotients are preserved."""
    G = as_matrix(gens)
    if G.shape[1] == 0:
        return zeros(G.shape[0], 0)
    if not is_integral(G, p):
        raise ValueError("lattice generators must have ring entries")
    snf = smith_normal_form(G, p)
    Linv = inverse(snf.left)
    cols = [np.array(Linv[:, i]) * Fraction(p) ** e
            for i, e in enumerate(snf.exponents)]
    basis = np.array(cols, dtype=object).T if cols else zeros(G.shape[0], 0)
    return _unit_normalize_columns(basis, p)


def lattice_membership(v, basis, p: int):
    """Coordinates of v in the ring-span of the basis columns, or None."""
    basis = as_matrix(basis)
    if basis.shape[1] == 0:
        return zero_vector(0) if all(x == 0 for x in v) else None
    coords = solve_exact(basis, as_vector(v))
    if coords is None or not is_integral(coords, p):
        return None
    return coords


@dataclass(frozen=True)
class QuotientInvariants:
    """Invariant factors of sup-lattice / sub-lattice.

    ``exponents`` lists the exponents of the nontrivial cyclic factors
    p^{d_1} <= ... <= p^{d_k}; free_rank counts infinite factors.  The
    columns of ``adapted_basis`` express a new basis f_1, ..., f_m of the
    sup lattice in sup coordinates such that the sub lattice is spanned
    by p^{d_i} f_i (with d_i = 0 for the dropped trivial factors and the
    trailing free columns absent from the sub lattice altogether).
    """

    exponents: tuple
    free_rank: int
    all_exponents: tuple
    adapted_basis: np.ndarray


def lattice_quotient_invariants(sub_gens, sup_basis, p: int) -> QuotientInvariants:
    """Invariant factors of the quotient of lattices sup / <sub>.

    Every generator of sub must be a ring combination of the sup basis;
    otherwise raises ``NotSublatticeError``.
    """
    sup = as_matrix(sup_basis)
    sub = as_matrix(sub_gens)
    m = sup.shape[1]
    if sub.shape[1] == 0:
        return QuotientInvariants((), m, (), identity(m))
    coords = solve_exact(sup, sub)
    if coords is None or not is_integral(coords, p):
        raise NotSublatticeError("not a sublattice")
    snf = smith_normal_form(coords, p)
    torsion = tuple(e for e in snf.exponents if e > 0)
    return QuotientInvariants(
        exponents=torsion,
        free_rank=m - snf.rank,
        all_exponents=snf.exponents,
        adapted_basis=inverse(snf.left),
    )
