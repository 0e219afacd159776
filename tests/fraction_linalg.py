"""Reference exact linear algebra on ``Fraction`` object arrays.

These are the row-by-row ``Fraction`` versions of ``linalg``'s Smith
normal form, saturated integral kernel and Gauss-Jordan elimination,
which the library now runs on integer rows over one unit denominator
each.  The two perform the same rational operations in the same order,
so the tests require their results to be equal entry by entry, not
merely equivalent.  The lattice basis of a generating set is read here
off the inverted left Smith transform, where the library reads it off
the right one; the normal form of its columns makes the two equal too.
Coordinates in a lattice are the rational solution when it has ring
entries, and the left null space is the transform rows of elimination
on [M | I] that zero out M.  ``residue_int`` reduces one ring element
modulo p^d, the Fraction counterpart of ``padic.residues_over``.
"""

import math
from fractions import Fraction

import numpy as np

from symorders import linalg
from symorders.padic import val


def residue_int(c: Fraction, p: int, d: int) -> int:
    """Value of a ring element modulo p^d as an integer in [0, p^d)."""
    pd = p**d
    return (c.numerator * pow(c.denominator, -1, pd)) % pd


def eliminate(aug: np.ndarray, ncols: int):
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


def solve_exact(M, B):
    M = linalg.as_matrix(M)
    vector_rhs = np.asarray(B, dtype=object).ndim == 1
    Bm = linalg.as_matrix([B]).T if vector_rhs else linalg.as_matrix(B)
    m, n = M.shape
    aug = np.concatenate([M, Bm], axis=1)
    pivots = eliminate(aug, n)
    if len(pivots) < n:
        raise ValueError("matrix does not have full column rank")
    for i in range(len(pivots), m):
        if any(x != 0 for x in aug[i, n:]):
            return None
    out = np.array(aug[:n, n:])
    return out[:, 0] if vector_rhs else out


def inverse(M):
    M = linalg.as_matrix(M)
    X = solve_exact(M, linalg.identity(M.shape[0]))
    if X is None:
        raise ValueError("matrix not invertible")
    return X


def lattice_membership(v, basis, p: int):
    """Ring coordinates of v, a vector or the columns of a matrix, in the
    basis columns: the rational solution of basis @ x = v when it has ring
    entries, else None."""
    coords = solve_exact(basis, v)
    return coords if coords is None or linalg.is_integral(coords, p) else None


def left_null_space(M):
    M = linalg.as_matrix(M)
    m = M.shape[0]
    aug = np.concatenate([np.array(M), linalg.identity(m)], axis=1)
    eliminate(aug, M.shape[1])
    rows = [np.array(aug[i, M.shape[1]:]) for i in range(m)
            if all(x == 0 for x in aug[i, : M.shape[1]])]
    return np.array(rows, dtype=object) if rows else linalg.zeros(0, m)


def det(M) -> Fraction:
    M = np.array(linalg.as_matrix(M))
    n = M.shape[0]
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


def smith_diagonal(snf: linalg.SmithDecomposition, p: int, shape) -> np.ndarray:
    """diag(p^e_1, ..., p^e_r, 0, ..) of the given shape."""
    D = linalg.zeros(*shape)
    for i, e in enumerate(snf.exponents):
        D[i, i] = Fraction(p) ** e
    return D


def smith_normal_form(M, p: int) -> linalg.SmithDecomposition:
    """Pivot on an entry of least valuation (ties: lowest row, then
    column), clear its row and column once, divide the pivot row by the
    pivot's unit part."""
    A = np.array(linalg.as_matrix(M))
    m, n = A.shape
    if not linalg.is_integral(A, p):
        raise ValueError("smith normal form needs entries of valuation >= 0")
    L = linalg.identity(m)
    R = linalg.identity(n)
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
    return linalg.SmithDecomposition(tuple(exponents), L, R, len(exponents))


def _normalize_columns(K, p: int):
    """Scale each (nonzero) column to a primitive integer column with
    positive leading entry."""
    K = np.array(K)
    for j in range(K.shape[1]):
        col = K[:, j] * Fraction(math.lcm(*[x.denominator for x in K[:, j]]))
        g = math.gcd(*[x.numerator for x in col])
        while g % p == 0:
            g //= p
        col = col / Fraction(g)
        if next(x for x in col if x) < 0:
            col = -col
        K[:, j] = col
    return K


def integral_kernel(M, p: int):
    """Saturated kernel basis: clear the denominators, take the last
    n - rank columns of the right Smith transform, and normalise them."""
    M = linalg.as_matrix(M)
    lcm = math.lcm(*[x.denominator for x in M.flat])
    snf = smith_normal_form(M * Fraction(lcm), p)
    return _normalize_columns(snf.right[:, snf.rank:], p)


def lattice_basis_from_generators(gens, p: int):
    """Basis of the ring span of the columns: for the Smith form
    L G R = D, the columns p^(e_i) L^(-1)[:, i], normalised."""
    G = linalg.as_matrix(gens)
    if not linalg.is_integral(G, p):
        raise ValueError("lattice generators must have ring entries")
    snf = smith_normal_form(G, p)
    Linv = inverse(snf.left)
    basis = linalg.zeros(G.shape[0], snf.rank)
    for i, e in enumerate(snf.exponents):
        basis[:, i] = Linv[:, i] * Fraction(p) ** e
    return _normalize_columns(basis, p)
