"""Exact linear algebra over the rationals and the p-local integers.

The functions named ``*_of_rows`` and ``*_of_columns``, and
``eliminate``, are the integer layer that the other modules run on:
integer rows (or columns) in, integer matrices over one denominator
out.  Every exact solve N X = V is :func:`solve_of_rows`; every Smith
reduction is :func:`smith_of_rows`, pivoting on an entry of least
valuation (ties by lowest row, then column), and saturated kernels,
lattice bases, coordinates in a lattice and the torsion data of a
lattice quotient are read off it.  Each row is a list of Python ints
over one positive denominator, a unit at p for ring matrices, divided
by the row gcd after every operation.  ``numerators`` and
``from_numerators`` convert arrays of Fractions to and from integers
over one denominator.

The front-ends on Fractions, :func:`solve_exact`, :func:`inverse`,
:func:`det`, :func:`integral_kernel` and :func:`smith_normal_form` (with
both transforms), are shims over that layer: a Fraction enters it only
through :func:`as_matrix` and :func:`numerators` and leaves it only
through :func:`from_numerators`.  They have no caller in the library
and are kept because the benchmark times them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .padic import int_val, integral_over


def as_matrix(rows) -> np.ndarray:
    """Build an object-dtype matrix of Fractions from nested data; entries
    that already are Fractions (immutable) are kept as they are.  Arrays
    go through ``tolist``, so numpy integers become Python ints and no
    numerator keeps a fixed width."""
    data = rows.tolist() if isinstance(rows, np.ndarray) else rows
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
            out[i, j] = x if type(x) is Fraction else Fraction(x)
    return out


def as_vector(entries) -> np.ndarray:
    if isinstance(entries, np.ndarray):
        entries = entries.tolist()
    out = np.empty(len(entries), dtype=object)
    for i, x in enumerate(entries):
        out[i] = x if type(x) is Fraction else Fraction(x)
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
    """True when every entry of the array has valuation >= 0, that is a
    denominator prime to p."""
    return all(x.denominator % p for x in np.asarray(a, dtype=object).flat)


def matrices_equal(a, b) -> bool:
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return a.shape == b.shape and all(x == y for x, y in zip(a.flat, b.flat))


def vectors_equal(a, b) -> bool:
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return a.shape == b.shape and all(x == y for x, y in zip(a, b))


_ZERO = Fraction(0)


def numerators(M) -> tuple:
    """(N, d): an array of Fractions as an array N of integers (dtype
    object) over d, the least common denominator of its entries."""
    M = np.asarray(M, dtype=object)
    d = math.lcm(*[x.denominator for x in M.flat])
    N = np.empty(M.shape, dtype=object)
    N.flat = [x.numerator * (d // x.denominator) for x in M.flat]
    return N, d


def from_numerators(N, d: int) -> np.ndarray:
    """The array of Fractions N / d, for an array N of integers."""
    N = np.asarray(N, dtype=object)
    out = np.empty(N.shape, dtype=object)
    out.flat = [Fraction(x, d) if x else _ZERO for x in N.flat]
    return out


def _reduce(row: list, den: int) -> tuple:
    """Divide a row and its denominator by their gcd."""
    g = math.gcd(den, *row)
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


def eliminate(rows: list, dens: list, ncols: int) -> tuple:
    """Gauss-Jordan reduction of the first ncols columns of integer rows
    over positive denominators, in place: the pivot row is scaled to a
    leading 1 and its column cleared in every other row.

    Returns the pivot columns and the product of the pivots, signed by
    the row swaps, as (numerator, denominator): the determinant when the
    first ncols columns are square.
    """
    m = len(rows)
    pivots = []
    det_num, det_den = 1, 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            dens[r], dens[pivot_row] = dens[pivot_row], dens[r]
            det_num = -det_num
        pivot = rows[r][c]
        det_num *= pivot
        det_den *= dens[r]
        if pivot < 0:
            rows[r] = [-x for x in rows[r]]
            pivot = -pivot
        rows[r], dens[r] = _reduce(rows[r], pivot)  # the row over its pivot
        row_r, den_r = rows[r], dens[r]
        for i in range(m):
            a = rows[i][c]
            if i != r and a:
                rows[i], dens[i] = _reduce(
                    [den_r * x - a * y for x, y in zip(rows[i], row_r)], dens[i] * den_r)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, (det_num, det_den)


def solve_exact(M, B):
    """Solve M @ X = B exactly; M must have full column rank.

    B may be a vector or a matrix.  Returns None when the system is
    inconsistent; raises ValueError when the solution is not unique.
    """
    M = as_matrix(M)
    vector_rhs = np.asarray(B, dtype=object).ndim == 1
    Bm = as_matrix([B]).T if vector_rhs else as_matrix(B)
    n, k = M.shape[1], Bm.shape[1]
    solved = solve_of_rows(numerators(np.concatenate([M, Bm], axis=1))[0].tolist(), n)
    if solved is None:
        return None
    out = from_numerators(np.array(solved[0], dtype=object).reshape(n, k), solved[1])
    return out[:, 0] if vector_rhs else out


def solve_of_rows(rows: list, n: int):
    """Solve N X = V on the integer rows [N | V], which are consumed, for
    N of n columns: (X, x), the rows of X as integers over their least
    common denominator, or None when the system is inconsistent; raises
    ValueError when N has rank below n.  One elimination leaves row k < n
    as [e_k | X_k] over its denominator, in lowest terms."""
    dens = [1] * len(rows)
    if len(eliminate(rows, dens, n)[0]) < n:
        raise ValueError("matrix does not have full column rank")
    if any(any(row[n:]) for row in rows[n:]):
        return None
    x = math.lcm(*dens[:n])
    return [[y * (x // den) for y in row[n:]] for row, den in zip(rows, dens[:n])], x


def det(M) -> Fraction:
    """Exact determinant: the signed product of the elimination pivots."""
    N, d = numerators(as_matrix(M))
    n = N.shape[1]
    if N.shape[0] != n:
        raise ValueError("determinant of a non-square matrix")
    pivots, (num, den) = eliminate(N.tolist(), [d] * n, n)
    return Fraction(num, den) if len(pivots) == n else _ZERO


def inverse(M) -> np.ndarray:
    M = as_matrix(M)
    n = M.shape[0]
    X = solve_exact(M, identity(n))
    if X is None:
        raise ValueError("matrix not invertible")
    return X


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ M @ right = diag(p^e_1, ..., p^e_r, 0, ..)."""

    exponents: tuple
    left: np.ndarray
    right: np.ndarray
    rank: int


def smith_normal_form(M, p: int) -> SmithDecomposition:
    """Smith normal form over the p-local integers.

    Requires ring entries.  A single clearing pass per pivot suffices:
    the minimal-valuation pivot divides every remaining entry, and the
    quotients stay in the ring, so the transforms are ring-invertible
    and the exponents come out already sorted.
    """
    N, d = numerators(as_matrix(M))
    m, n = N.shape
    if d % p == 0:
        raise ValueError("smith normal form needs entries of valuation >= 0")
    rows = [[*row, *(d if k == i else 0 for k in range(m))] for i, row in enumerate(N.tolist())]
    dens = [d] * m
    exponents, cols, col_dens = smith_of_rows(rows, dens, n, p)
    left = from_numerators(*_over_one_denominator([row[n:] for row in rows], dens, m))
    right = from_numerators(*_over_one_denominator(cols, col_dens, n)).T
    return SmithDecomposition(tuple(exponents), left, right, len(exponents))


def smith_of_rows(rows: list, dens: list, n: int, p: int) -> tuple:
    """Smith reduction of the first n columns of integer rows over unit
    denominators, in place; the columns past n (the left transform, when
    the caller appended one) follow the row operations.

    Returns the exponents and the columns of the right transform R as
    integers over one unit denominator each.  For the pivot p^v u, row i
    becomes u row_i - (a_i / p^v) row_s over u times its denominator,
    and column j of R likewise: the rationals of the update by
    a_i / pivot, so the transforms equal those of elimination on
    Fractions, entry by entry.  The pivot (least valuation, ties by row
    and then column) and R do not change when a row is scaled by a
    positive unit.
    """
    m = len(rows)
    cols = [[1 if k == j else 0 for k in range(n)] for j in range(n)]
    col_dens = [1] * n
    exponents = []
    for s in range(min(m, n)):
        # the first entry of least valuation, by row and then column
        best, best_val = None, None
        for i in range(s, m):
            row = rows[i]
            for j in range(s, n):
                x = row[j]
                if not x or (best_val is not None and x % p**best_val == 0):
                    continue
                best, best_val = (i, j), int_val(x, p)
                if best_val == 0:
                    break
            if best_val == 0:
                break
        if best is None:
            break
        bi, bj = best
        rows[s], rows[bi] = rows[bi], rows[s]
        dens[s], dens[bi] = dens[bi], dens[s]
        if bj != s:
            for row in rows[s:]:
                row[s], row[bj] = row[bj], row[s]
            cols[s], cols[bj] = cols[bj], cols[s]
            col_dens[s], col_dens[bj] = col_dens[bj], col_dens[s]
        pv = p**best_val
        row_s = rows[s]
        u = row_s[s] // pv
        sign = -1 if u < 0 else 1
        u *= sign
        for i in range(s + 1, m):
            a = rows[i][s]
            if a:
                f = sign * (a // pv)
                rows[i], dens[i] = _reduce(
                    [u * x - f * y for x, y in zip(rows[i], row_s)], dens[i] * u)
        col_s, den_s = cols[s], col_dens[s]
        for j in range(s + 1, n):
            g = row_s[j]
            if g:
                g = sign * (g // pv) * col_dens[j]
                cols[j], col_dens[j] = _reduce(
                    [u * den_s * x - g * y for x, y in zip(cols[j], col_s)],
                    u * den_s * col_dens[j])
                row_s[j] = 0
        rows[s], dens[s] = _reduce([sign * x for x in row_s], u)
        exponents.append(best_val)
    return exponents, cols, col_dens


def _unit_normalize(cols: list, n: int, p: int) -> np.ndarray:
    """The integer columns (lists of length n) as an integer matrix, each
    scaled by a unit to a primitive integer vector with positive leading
    entry.  The ring span of a column, and this normal form, do not
    change when the column is scaled by a unit."""
    out = np.empty((n, len(cols)), dtype=object)
    for j, col in enumerate(cols):
        g = math.gcd(*col)
        while g and g % p == 0:
            g //= p
        if next((x for x in col if x), 0) < 0:
            g = -g
        out[:, j] = [x // g if x else 0 for x in col]
    return out


def integral_kernel(M, p: int) -> np.ndarray:
    """Saturated basis (columns) of {v with ring entries : M @ v = 0}.

    Scaling M by a common denominator does not change the kernel, so the
    input may have arbitrary rational entries.
    """
    N, _ = numerators(as_matrix(M))
    return from_numerators(integral_kernel_of_rows(N.tolist(), N.shape[1], p), 1)


def integral_kernel_of_rows(rows: list, n: int, p: int) -> np.ndarray:
    """:func:`integral_kernel` of the matrix with the given integer rows
    of length n, which are consumed, as an integer matrix.

    The last n - rank columns of the right Smith transform are a basis,
    saturated because the transform is invertible over the ring; the
    left transform is not formed.
    """
    exponents, cols, _ = smith_of_rows(rows, [1] * len(rows), n, p)
    return _unit_normalize(cols[len(exponents):], n, p)


def lattice_basis_of_columns(N, p: int) -> np.ndarray:
    """Basis (columns) of the lattice spanned over the ring by the columns
    of the integer matrix N, as an integer matrix.  Unlike
    :func:`integral_kernel_of_rows` this does not saturate: torsion
    quotients are preserved.  Generators over a unit denominator span the
    lattice of their numerators.

    For the Smith form L N R = D, N R = L^{-1} D: its first rank columns
    are p^{e_i} times columns of the ring-invertible L^{-1}, a basis.
    They are one integer product with the right transform, up to units;
    the left transform is not formed.
    """
    m, n = N.shape
    exponents, cols, _ = smith_of_rows(N.tolist(), [1] * m, n, p)
    R = np.array(cols[: len(exponents)], dtype=object).reshape(len(exponents), n).T
    return _unit_normalize(N.dot(R).T.tolist(), m, p)


def lattice_membership_of_columns(basis: tuple, v: tuple, p: int):
    """Ring coordinates of the columns of V / b in the basis columns of
    N / d, for integer matrices N (of full column rank) and V: the
    coordinates as an integer matrix X over x, or None when some column
    has none.

    N X = V is solved on the integer rows [N | V] (:func:`solve_of_rows`),
    and puts the coordinates of V / b at X d / b.
    """
    (N, d), (V, b) = basis, v
    n = N.shape[1]
    solved = solve_of_rows(np.concatenate([N, V], axis=1).tolist(), n)
    if solved is None:
        return None
    X, x = np.array(solved[0], dtype=object).reshape(n, V.shape[1]) * d, solved[1] * b
    return (X, x) if integral_over(X.flat, x, p) else None


@dataclass(frozen=True)
class QuotientInvariants:
    """Invariant factors of sup-lattice / sub-lattice.

    ``exponents`` lists the exponents of the nontrivial cyclic factors
    p^{d_1} <= ... <= p^{d_k}; free_rank counts infinite factors.  The
    columns of ``torsion_basis`` (F, f), an integer matrix over one
    denominator, are sup-lattice vectors f_1, ..., f_k, in sup
    coordinates, whose classes generate those factors: the sub lattice
    contains p^{d_i} f_i.  The rows of ``torsion_left`` (L, l) take sup
    coordinates to the coefficients of the f_i.
    """

    exponents: tuple
    free_rank: int
    torsion_basis: tuple
    torsion_left: tuple


def _over_one_denominator(rows: list, dens: list, width: int) -> tuple:
    """(N, d): integer rows of the given width over their denominators as
    one integer matrix N over d, the entries' least common denominator."""
    d = math.lcm(*dens)
    N = np.array([[x * (d // den) for x in row] for row, den in zip(rows, dens)],
                 dtype=object).reshape(len(rows), width)
    g = math.gcd(d, *N.flat)
    return N // g, d // g


def quotient_invariants_of_rows(rows: list, dens: list, n: int, p: int) -> QuotientInvariants:
    """Invariant factors of ring^m modulo the span of the columns of the
    matrix C whose m rows are the given integer rows of length n over
    their denominators, which are consumed: the sub lattice given by its
    coordinates in a basis of the sup lattice.

    For the Smith form L C R = D, C R = L^{-1} D, so the adapted basis
    vector f_i (column i of L^{-1}) of a factor of exponent d_i > 0 is
    column i of C R over p^{d_i}; L is not inverted.  The reduction runs
    on the integer rows with the identity appended, which the row
    operations turn into L.
    """
    m = len(rows)
    if any(den % p == 0 for den in dens):
        raise ValueError("smith normal form needs entries of valuation >= 0")
    c = math.lcm(*dens)
    C = [[x * (c // den) for x in row] for row, den in zip(rows, dens)]  # C over c
    for i, (row, den) in enumerate(zip(rows, dens)):
        row.extend(den if k == i else 0 for k in range(m))
    exponents, cols, col_dens = smith_of_rows(rows, dens, n, p)
    torsion = [i for i, e in enumerate(exponents) if e > 0]
    F, f = _over_one_denominator(
        [[sum(a * b for a, b in zip(row, cols[j])) for row in C] for j in torsion],
        [c * col_dens[j] * p ** exponents[j] for j in torsion], m)
    return QuotientInvariants(
        exponents=tuple(exponents[i] for i in torsion),
        free_rank=m - len(exponents),
        torsion_basis=(F.T, f),
        torsion_left=_over_one_denominator([rows[i][n:] for i in torsion],
                                           [dens[i] for i in torsion], m),
    )
