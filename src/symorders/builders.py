"""Constructors for the worked examples: group algebras, the rank-2
local family, the rank-1 Hecke order, character rings, a 4-dimensional
commutative order with prescribed symmetrising form, matrix orders, and
the symmetric-group-on-three-points data bundle.

Each builder returns a validated order together with its attached
symmetrising form; embeddings into split coordinates are exposed
separately where the fixture has a natural one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations

import numpy as np

from . import linalg
from .orders import Order, make_order
from .forms import LinearForm, is_symmetrising


# -- group tables ----------------------------------------------------------


def symmetric_group_table(n: int):
    """Cayley table of the symmetric group on n points.

    Elements are permutation tuples in sorted order with the identity
    first; entry [i][j] is the index of (element i) composed after
    (element j).
    """
    elems = sorted(permutations(range(n)))
    index = {e: i for i, e in enumerate(elems)}
    labels = ["".join(str(x) for x in e) for e in elems]

    def compose(g, h):
        return tuple(g[h[k]] for k in range(n))

    table = [[index[compose(g, h)] for h in elems] for g in elems]
    return table, labels, elems


def cyclic_group_table(n: int):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = [f"g{i}" for i in range(n)]
    return table, labels


def klein_four_table():
    table = [[i ^ j for j in range(4)] for i in range(4)]
    labels = ["e", "a", "b", "ab"]
    return table, labels


def group_algebra(mult_table, p, labels=None):
    """Group algebra with the standard symmetrising form (unit coefficient).

    The multiplication table is validated as a group: an identity, Latin
    square rows and columns (giving inverses), and associativity through
    the order constructor.
    """
    n = len(mult_table)
    identity = None
    for e in range(n):
        if all(mult_table[e][x] == x and mult_table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("not a group table: no identity")
    for row in mult_table:
        if sorted(row) != list(range(n)):
            raise ValueError("not a group table: rows are not permutations")
    for j in range(n):
        if sorted(mult_table[i][j] for i in range(n)) != list(range(n)):
            raise ValueError("not a group table: columns are not permutations")
    for i in range(n):
        if not any(mult_table[i][j] == identity for j in range(n)):
            raise ValueError("not a group table: missing inverse")
    constants = [(i, j, k, 1) for i, row in enumerate(mult_table) for j, k in enumerate(row)]
    one = [Fraction(0)] * n
    one[identity] = Fraction(1)
    A = make_order(constants, one, p, basis_labels=labels)
    values = [Fraction(0)] * n
    values[identity] = Fraction(1)
    return A, LinearForm(values)


def s3_group_algebra(p=3):
    table, labels, _ = symmetric_group_table(3)
    return group_algebra(table, p, labels=labels)


def s3_characters():
    """Character values of the symmetric group on three points, on the
    group-element basis, ordered (trivial, two-dimensional, sign)."""
    return list(symmetric_group_characters(3).values())


def symmetric_group_characters(n: int) -> dict:
    """Irreducible characters of the symmetric group on n points on the
    basis of :func:`symmetric_group_table`, keyed by partition (parts in
    decreasing order), the partitions in decreasing lexicographic order.

    The Murnaghan-Nakayama rule on beta-sets: removing a rim hook of
    length k moves a bead b of the beta-set to a free b - k >= 0, with
    sign -1 to the number of beads strictly between.  Both orthogonality
    relations are certified.
    """
    _, _, elems = symmetric_group_table(n)

    def cycle_type(g):
        seen, parts = set(), []
        for start in range(n):
            i, length = start, 0
            while i not in seen:
                seen.add(i)
                i, length = g[i], length + 1
            if length:
                parts.append(length)
        return tuple(sorted(parts, reverse=True))

    @cache
    def value(beta, mu):
        if not mu:
            return 1
        k = mu[0]
        return sum((-1) ** sum(b - k < c < b for c in beta) * value(beta - {b} | {b - k}, mu[1:])
                   for b in beta if b >= k and b - k not in beta)

    def partitions(m, largest):
        if m == 0:
            yield ()
        for first in range(min(m, largest), 0, -1):
            yield from ((first, *rest) for rest in partitions(m - first, first))

    types = [cycle_type(g) for g in elems]
    chars = {lam: [Fraction(value(frozenset(x + len(lam) - i for i, x in enumerate(lam, 1)), t))
                   for t in types] for lam in partitions(n, n)}
    order = len(elems)
    for lam, chi in chars.items():
        for mu, psi in chars.items():
            if sum(x * y for x, y in zip(chi, psi)) != (order if lam == mu else 0):
                raise AssertionError("characters fail the first orthogonality relation")
    classes = {t: types.index(t) for t in types}  # a representative of each class
    for s in classes.values():
        for t in classes.values():
            column = sum(chi[s] * chi[t] for chi in chars.values())
            if column != (order // types.count(types[s]) if s == t else 0):
                raise AssertionError("characters fail the second orthogonality relation")
    return chars


# -- the rank-2 local family ----------------------------------------------


def rank2_order(m: int, p):
    """Local commutative order of rank 2 inside K x K with congruence
    depth m, with the form sending the first basis vector to 0 and the
    second to 1."""
    if m < 1:
        raise ValueError("depth m must be at least 1")
    constants = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, Fraction(p) ** m)]
    A = make_order(constants, [Fraction(1), Fraction(0)], p,
                   basis_labels=("l1", "l2"))
    return A, LinearForm([Fraction(0), Fraction(1)])


def rank2_embedding(m: int, p) -> np.ndarray:
    """Columns are the basis vectors (1, 1) and (0, p^m) inside K x K."""
    return linalg.as_matrix([[1, 0], [1, Fraction(p) ** m]])


def rank2_projection_lattice(A: Order):
    """Rank-1 module where the first split coordinate acts."""
    from .lattices import make_lattice

    return make_lattice(A, [[[Fraction(1)]], [[Fraction(0)]]])


# -- rank-1 Hecke order ----------------------------------------------------


def hecke_rank1(q: int, p=2):
    """Two-dimensional Hecke order with (T_s)^2 = q T_1 + (1 - q) T_s and
    the form picking out the T_1 coefficient.

    The split coordinates send T_s to its eigenvalues 1 and -q, so the
    order embeds into K x K with congruence depth v_p(q + 1); the scalar
    property verdicts of the two direct algorithms are recorded by the
    callers, not asserted against any congruence class of q.
    """
    from .padic import val

    if val(Fraction(q), p) != 0:
        raise ValueError("q not a unit")
    constants = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, q), (1, 1, 1, 1 - q)]
    A = make_order(constants, [Fraction(1), Fraction(0)], p,
                   basis_labels=("T1", "Ts"))
    return A, LinearForm([Fraction(1), Fraction(0)])


# -- character rings -------------------------------------------------------


def character_ring(char_table, class_sizes, p):
    """Ring of virtual characters on the irreducible-character basis.

    ``char_table`` has one row per irreducible character and one column
    per conjugacy class, rational values only (so classes are closed
    under inversion and chi(g^{-1}) = chi(g)).  Structure constants are
    the multiplicities [chi psi, theta]; the attached form reads off the
    coefficient of the trivial character.
    """
    table = linalg.as_matrix(char_table)
    sizes = [int(c) for c in class_sizes]
    r, ncls = table.shape
    if len(sizes) != ncls:
        raise ValueError("class size list does not match the table")
    order_g = sum(sizes)

    def inner(u, v):
        return sum(
            (Fraction(sz) * a * b for sz, a, b in zip(sizes, u, v)),
            Fraction(0),
        ) / order_g

    for i in range(r):
        for j in range(r):
            if inner(table[i], table[j]) != (1 if i == j else 0):
                raise ValueError("orthogonality fails")
    trivial = None
    for i in range(r):
        if all(x == 1 for x in table[i]):
            trivial = i
            break
    if trivial is None:
        raise ValueError("orthogonality fails: no trivial character")
    constants = []
    for i in range(r):
        for j in range(r):
            prod = [table[i, c] * table[j, c] for c in range(ncls)]
            for k in range(r):
                mult = inner(prod, table[k])
                if mult.denominator != 1 or mult < 0:
                    raise ValueError("orthogonality fails: non-integral product multiplicity")
                constants.append((i, j, k, mult))
    one = [Fraction(0)] * r
    one[trivial] = Fraction(1)
    A = make_order(constants, one, p)
    values = [Fraction(0)] * r
    values[trivial] = Fraction(1)
    return A, LinearForm(values)


def s3_character_ring_data():
    """Rational character table of the symmetric group on three points
    (classes: identity, transpositions, 3-cycles) and the class sizes."""
    table = [
        [1, 1, 1],
        [1, -1, 1],
        [2, 0, -1],
    ]
    return table, [1, 3, 2]


def c2_character_ring_data():
    return [[1, 1], [1, -1]], [1, 1]


# -- the 4-dimensional commutative order ------------------------------------


def four_dim_nonrational(x: int, p=2):
    """Commutative order of rank 4 inside K^4 carrying a symmetrising
    form whose coefficients involve x^{-1}; used to probe rational
    symmetry constraints.  x must be odd."""
    if x % 2 == 0:
        raise ValueError("x must be odd")
    rows = four_dim_embedding(x)
    # the columns of B = N / b are the basis vectors, and N B^{-1} = b 1
    N, b = linalg.numerators(np.array(rows, dtype=object).T)
    Binv = linalg.from_numerators(*linalg.solve_of_rows(
        [[*row, *(b if k == i else 0 for k in range(4))] for i, row in enumerate(N.tolist())], 4))
    constants = []
    for i in range(4):
        for j in range(4):
            prod = linalg.as_vector([rows[i][c] * rows[j][c] for c in range(4)])
            constants.extend((i, j, k, c) for k, c in enumerate(Binv @ prod))
    one_coords = Binv @ linalg.as_vector([1, 1, 1, 1])
    A = make_order(constants, one_coords, p)
    coeffs = [
        (2 - Fraction(1, x)) / 4,
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, x) / 4,
    ]
    values = [
        sum((coeffs[c] * rows[i][c] for c in range(4)), Fraction(0))
        for i in range(4)
    ]
    s = LinearForm(values)
    if not is_symmetrising(A, s):
        raise AssertionError("four-dimensional order form not symmetrising")
    return A, s


def four_dim_embedding(x: int):
    """The four basis vectors inside K^4, one per row."""
    return [
        [Fraction(1), Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(0), Fraction(2), Fraction(0), Fraction(2 * x)],
        [Fraction(0), Fraction(0), Fraction(2), Fraction(2 * x)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(4 * x)],
    ]


def four_dim_characters(x: int):
    """Coordinate projections of K^4 restricted to the basis, one per
    split factor."""
    rows = four_dim_embedding(x)
    return [[rows[i][c] for i in range(4)] for c in range(4)]


# -- matrix orders ----------------------------------------------------------


def matrix_order(n: int, p):
    """Full matrix order on the elementary-matrix basis with the trace form."""
    if n < 1:
        raise ValueError("matrix order needs n >= 1")
    d = n * n

    def ind(i, j):
        return i * n + j

    constants = [(ind(i, j), ind(j, l), ind(i, l), 1)
                 for i in range(n) for j in range(n) for l in range(n)]
    one = [Fraction(0)] * d
    for i in range(n):
        one[ind(i, i)] = Fraction(1)
    labels = tuple(f"E{i}{j}" for i in range(n) for j in range(n))
    A = make_order(constants, one, p, basis_labels=labels)
    values = [Fraction(1) if i % (n + 1) == 0 else Fraction(0) for i in range(d)]
    return A, LinearForm(values)


def matrix_column_lattice(A: Order, n: int):
    """Column module of the matrix order (rank n, simple)."""
    from .lattices import make_lattice

    mats = []
    for i in range(n):
        for j in range(n):
            m = linalg.zeros(n, n)
            m[i, j] = Fraction(1)
            mats.append(m)
    return make_lattice(A, mats)


# -- the bundled three-points fixture ---------------------------------------


def s3_fixture_bundle(p=3):
    """Complete data bundle for the group algebra on three points:
    standard form, the three named lattices, the rational character
    table, the decomposition matrix, the condensed degree table, and the
    expected verdicts driving the batch runner."""
    from .bundle import Bundle
    from .decomp import make_character_table, make_decomposition_matrix
    from .lattices import make_lattice, regular_lattice

    A, s = s3_group_algebra(p)
    chars = s3_characters()
    table = make_character_table(chars, A, names=("chi_3", "chi_21", "chi_111"))
    D = make_decomposition_matrix([[1, 0], [1, 1], [0, 1]], (1, 1), table.degrees)
    sign_values = chars[2]
    trivial = make_lattice(A, [[[Fraction(1)]] for _ in range(A.dim)])
    sign = make_lattice(A, [[[v]] for v in sign_values])
    regular = regular_lattice(A)
    condensed = ([Fraction(1), Fraction(3), Fraction(2)], (1, 2))
    expectations = {
        "psp": {"verdict": "yes", "n": 1},
        "symmetrising": {"standard": True},
        "casimir": {"standard": {"scalar": "6"}},
        "tate": {"trivial|trivial": {"perfect": True, "exponents": [1]}},
        "knorr": {"trivial": True, "sign": True, "regular": False},
        "stable-exponent": {"trivial": True, "sign": True},
        "constant-value": {"trivial": True, "sign": True, "regular": True},
        "morita-psp": {"witness_m": [1, 1], "n": 1},
        "rational": {"verdict": True, "morita_verdict": True},
        "heights": {"condensed": [0, 1, 0]},
        "divisibility": {"ok": True},
    }
    return Bundle(
        prime=int(p),
        order=A,
        forms={"standard": s},
        lattices={"trivial": trivial, "sign": sign, "regular": regular},
        character_table=table,
        decomposition=D,
        extra_tables={"condensed": condensed},
        expectations=expectations,
    )
