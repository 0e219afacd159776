"""Exact linear algebra over the rationals and the p-local integers.

Matrices at the API are numpy arrays of dtype ``object`` holding
``Fraction`` entries; ``eliminate`` and ``integral_kernel_of_rows`` take
integer rows, and ``numerators`` turns Fractions into integers over one
denominator.  Inside, the eliminations run on Python ints: each row (and
each column of a right transform) is a list of integer numerators over
one positive denominator, a unit at p for ring matrices, divided by the
row gcd after every operation; Fractions are built once, for the result.
On top of plain rational elimination (solve, det, inverse) this module
provides the lattice layer used everywhere else:

* Smith normal form over the p-local integers, pivoting on an entry of
  minimal valuation (ties broken by lowest row, then column), so the
  diagonal comes out as p^{e_1} <= ... <= p^{e_r} deterministically;
* saturated integral kernels and bases of lattices spanned by finite
  generating sets, both read off the right Smith transform without
  forming the left one;
* invariant factors of a finite-index (or torsion) lattice quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .padic import int_val


class NotSublatticeError(ValueError):
    pass


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


def _int_rows(M) -> tuple:
    """Rows of a matrix as integer numerators over one positive
    denominator each: (rows, denominators, number of columns).

    The denominator of a row is the lcm of its entries' denominators, so
    the row's numerators and denominator are coprime; for a ring matrix
    every denominator is a unit at p.
    """
    if not (isinstance(M, np.ndarray) and M.ndim == 2):
        M = as_matrix(M)
    rows, dens = [], []
    for row in M:
        row = [x if type(x) is Fraction or type(x) is int else Fraction(x) for x in row]
        den = math.lcm(*[x.denominator for x in row])
        rows.append([x.numerator * (den // x.denominator) for x in row])
        dens.append(den)
    return rows, dens, M.shape[1]


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


def _fraction_rows(rows, dens, start: int, stop: int) -> np.ndarray:
    """Columns start:stop of integer rows over their denominators, as a
    Fraction matrix."""
    out = np.empty((len(rows), stop - start), dtype=object)
    for i, (row, den) in enumerate(zip(rows, dens)):
        for j, x in enumerate(row[start:stop]):
            out[i, j] = _ZERO if not x else Fraction(x) if den == 1 else Fraction(x, den)
    return out


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


def rational_rank(M) -> int:
    rows, dens, n = _int_rows(M)
    return len(eliminate(rows, dens, n)[0])


def solve_exact(M, B):
    """Solve M @ X = B exactly; M must have full column rank.

    B may be a vector or a matrix.  Returns None when the system is
    inconsistent; raises ValueError when the solution is not unique.
    """
    M = as_matrix(M) if not isinstance(M, np.ndarray) else M
    vector_rhs = np.asarray(B, dtype=object).ndim == 1
    Bm = as_matrix([B]).T if vector_rhs else as_matrix(B)
    m, n = M.shape
    rows, dens, width = _int_rows(np.concatenate([M, Bm], axis=1))
    pivots, _ = eliminate(rows, dens, n)
    if len(pivots) < n:
        raise ValueError("matrix does not have full column rank")
    if any(any(row[n:]) for row in rows[len(pivots):]):
        return None
    out = _fraction_rows(rows[:n], dens[:n], n, width)
    return out[:, 0] if vector_rhs else out


def det(M) -> Fraction:
    """Exact determinant: the signed product of the elimination pivots."""
    rows, dens, n = _int_rows(M)
    if len(rows) != n:
        raise ValueError("determinant of a non-square matrix")
    pivots, (num, den) = eliminate(rows, dens, n)
    return Fraction(num, den) if len(pivots) == n else _ZERO


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
    rows, dens, n = _int_rows(M)
    m = len(rows)
    for i, (row, den) in enumerate(zip(rows, dens)):
        row.extend(den if k == i else 0 for k in range(m))
    eliminate(rows, dens, n)
    kept = [i for i in range(m) if not any(rows[i][:n])]
    return _fraction_rows([rows[i] for i in kept], [dens[i] for i in kept], n, n + m)


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
    rows, dens, n = _int_rows(M)
    m = len(rows)
    if any(den % p == 0 for den in dens):
        raise ValueError("smith normal form needs entries of valuation >= 0")
    for i, (row, den) in enumerate(zip(rows, dens)):
        row.extend(den if k == i else 0 for k in range(m))
    exponents, cols, col_dens = _smith(rows, dens, n, p)
    left = _fraction_rows(rows, dens, n, n + m)
    right = _fraction_rows(cols, col_dens, 0, n).T.copy()
    return SmithDecomposition(tuple(exponents), left, right, len(exponents))


def _smith(rows: list, dens: list, n: int, p: int) -> tuple:
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


def _unit_normalize_columns(cols: list, n: int, p: int) -> np.ndarray:
    """The integer columns (lists of length n) as a Fraction matrix, each
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
        out[:, j] = [Fraction(x // g) if x else _ZERO for x in col]
    return out


def integral_kernel(M, p: int) -> np.ndarray:
    """Saturated basis (columns) of {v with ring entries : M @ v = 0}.

    Scaling M by a common denominator does not change the kernel, so the
    input may have arbitrary rational entries.
    """
    rows, dens, n = _int_rows(M)
    lcm = math.lcm(*dens)
    return integral_kernel_of_rows([[x * (lcm // d) for x in row]
                                    for row, d in zip(rows, dens)], n, p)


def integral_kernel_of_rows(rows: list, n: int, p: int) -> np.ndarray:
    """:func:`integral_kernel` of the matrix with the given integer rows
    of length n, which are consumed.

    The last n - rank columns of the right Smith transform are a basis,
    saturated because the transform is invertible over the ring; the
    left transform is not formed.
    """
    exponents, cols, _ = _smith(rows, [1] * len(rows), n, p)
    return _unit_normalize_columns(cols[len(exponents):], n, p)


def lattice_basis_from_generators(gens, p: int) -> np.ndarray:
    """Basis (columns) of the lattice spanned over the ring by the columns
    of ``gens``.  Unlike :func:`integral_kernel` this does not saturate:
    torsion quotients are preserved.

    For the Smith form L G R = D, G R = L^{-1} D: its first rank columns
    are p^{e_i} times columns of the ring-invertible L^{-1}, a basis.
    They are one integer product with the right transform, up to units;
    the left transform is not formed.
    """
    G = as_matrix(gens)
    if not is_integral(G, p):
        raise ValueError("lattice generators must have ring entries")
    (m, n), N = G.shape, numerators(G)[0]
    exponents, cols, _ = _smith(N.tolist(), [1] * m, n, p)
    R = np.array(cols[: len(exponents)], dtype=object).reshape(len(exponents), n).T
    return _unit_normalize_columns(N.dot(R).T.tolist(), m, p)


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
    ``left`` is its inverse, the left Smith transform: it takes sup
    coordinates to coordinates in the f_i.
    """

    exponents: tuple
    free_rank: int
    all_exponents: tuple
    adapted_basis: np.ndarray
    left: np.ndarray


def lattice_quotient_invariants(sub_gens, sup_basis, p: int) -> QuotientInvariants:
    """Invariant factors of the quotient of lattices sup / <sub>.

    Every generator of sub must be a ring combination of the sup basis;
    otherwise raises ``NotSublatticeError``.
    """
    sup = as_matrix(sup_basis)
    sub = as_matrix(sub_gens)
    if sub.shape[1] == 0:
        return quotient_invariants(zeros(sup.shape[1], 0), p)
    coords = solve_exact(sup, sub)
    if coords is None or not is_integral(coords, p):
        raise NotSublatticeError("not a sublattice")
    return quotient_invariants(coords, p)


def quotient_invariants(coords, p: int) -> QuotientInvariants:
    """Invariant factors of ring^m modulo the span of the columns of
    ``coords``, an m-row matrix with ring entries: the sub lattice given
    by its coordinates in a basis of the sup lattice."""
    snf = smith_normal_form(coords, p)
    return QuotientInvariants(
        exponents=tuple(e for e in snf.exponents if e > 0),
        free_rank=snf.left.shape[0] - snf.rank,
        all_exponents=snf.exponents,
        adapted_basis=inverse(snf.left),
        left=snf.left,
    )
