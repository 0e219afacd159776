import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fraction_linalg
from symorders import linalg
from symorders.padic import val


def test_smith_examples():
    snf = linalg.smith_normal_form([[2, 2], [2, 4]], 2)
    assert snf.exponents == (1, 1)
    snf = linalg.smith_normal_form(linalg.identity(3), 5)
    assert snf.exponents == (0, 0, 0)
    snf = linalg.smith_normal_form([[2, 4], [4, 16]], 2)
    assert snf.exponents == (1, 3)


def test_smith_decomposition_postconditions():
    M = linalg.as_matrix([[2, 2, 6], [2, 4, 0]])
    snf = linalg.smith_normal_form(M, 2)
    D = snf.left @ M @ snf.right
    expected = fraction_linalg.smith_diagonal(snf, 2, (2, 3))
    assert linalg.matrices_equal(D, expected)
    for T in (snf.left, snf.right):
        assert linalg.is_integral(T, 2) and val(fraction_linalg.det(T), 2) == 0


def _minor_gcd_valuation(M, r, p):
    """Oracle: minimal valuation over all r x r minors."""
    m, n = M.shape
    best = math.inf
    for rows in combinations(range(m), r):
        for cols in combinations(range(n), r):
            sub = M[np.ix_(rows, cols)]
            d = linalg.det(sub)
            if d != 0:
                best = min(best, val(d, p))
    return best


@pytest.mark.parametrize("seed", range(6))
def test_smith_exponents_match_minor_gcds(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    M = linalg.as_matrix(
        [[Fraction(rng.randint(-8, 8)) for _ in range(n)] for _ in range(m)]
    )
    snf = linalg.smith_normal_form(M, p)
    total = 0
    for r, e in enumerate(snf.exponents, start=1):
        total += e
        assert _minor_gcd_valuation(M, r, p) == total


def _random_ring_invertible(rng, n, p):
    while True:
        M = linalg.as_matrix(
            [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        )
        d = linalg.det(M)
        if d != 0 and val(d, p) == 0:
            return M


@pytest.mark.parametrize("seed", range(4))
def test_smith_invariance_under_unimodular_transforms(seed):
    rng = random.Random(100 + seed)
    p = rng.choice([2, 3, 5])
    n = rng.randint(2, 3)
    M = linalg.as_matrix(
        [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    )
    L = _random_ring_invertible(rng, n, p)
    R = _random_ring_invertible(rng, n, p)
    before = linalg.smith_normal_form(M, p).exponents
    after = linalg.smith_normal_form(L @ M @ R, p).exponents
    assert before == after


def test_integral_kernel_examples():
    K = linalg.integral_kernel([[1, -1]], 2)
    assert K.shape == (2, 1)
    assert abs(K[0, 0]) == 1 and K[0, 0] == K[1, 0]

    K = linalg.integral_kernel([[2, -1]], 3)
    v = K[:, 0]
    assert 2 * v[0] - v[1] == 0
    assert abs(v[0]) == 1  # (1, 2) up to sign: saturated

    K = linalg.integral_kernel(linalg.zeros(1, 2), 2)
    assert linalg.matrices_equal(K, linalg.identity(2))

    # no equations at all: every vector is in the kernel
    assert linalg.as_matrix(linalg.zeros(0, 3)).shape == (0, 3)
    K = linalg.integral_kernel(linalg.zeros(0, 3), 5)
    assert linalg.matrices_equal(K, linalg.identity(3))


@pytest.mark.parametrize("seed", range(5))
def test_integral_kernel_saturated(seed):
    rng = random.Random(200 + seed)
    p = rng.choice([2, 3])
    m, n = rng.randint(1, 3), rng.randint(2, 4)
    M = linalg.as_matrix(
        [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(m)]
    )
    K = linalg.integral_kernel(M, p)
    for j in range(K.shape[1]):
        v = K[:, j]
        assert all(x == 0 for x in np.array(linalg.as_matrix(M)) @ v)
        assert linalg.is_integral(v, p)
        shrunk = v / Fraction(p)
        # dividing a basis vector by p must leave the ring-entry solutions
        assert not (
            linalg.is_integral(shrunk, p)
            and fraction_linalg.lattice_membership(shrunk, K, p) is not None
        )


def test_lattice_quotient_examples():
    inv = linalg.quotient_invariants_of_rows([[3]], [1], 1, 3)
    assert inv.exponents == (1,) and inv.free_rank == 0
    assert _over_one([[1]], 1, inv.torsion_basis) and _over_one([[1]], 1, inv.torsion_left)
    # 6 = unit * 3 in the 3-local integers: f_1 = 2, and its coefficient
    # is the coordinate over 2
    inv = linalg.quotient_invariants_of_rows([[6]], [1], 1, 3)
    assert inv.exponents == (1,)
    assert _over_one([[2]], 1, inv.torsion_basis) and _over_one([[1]], 2, inv.torsion_left)
    inv = linalg.quotient_invariants_of_rows([[1]], [1], 1, 3)
    assert inv.exponents == () and inv.free_rank == 0
    assert _over_one(np.empty((1, 0)), 1, inv.torsion_basis)
    assert _over_one(np.empty((0, 1)), 1, inv.torsion_left)
    with pytest.raises(ValueError, match="valuation >= 0"):
        linalg.quotient_invariants_of_rows([[1]], [3], 1, 3)


def _over_one(N, d, ours) -> bool:
    """ours is the integer matrix N over the denominator d."""
    M, e = ours
    return e == d and M.shape == np.shape(N) and all(x == y for x, y in zip(M.flat, np.ravel(N)))


def test_lattice_quotient_free_rank():
    inv = linalg.quotient_invariants_of_rows([[2], [0]], [1, 1], 1, 2)
    assert inv.exponents == (1,) and inv.free_rank == 1


def test_lattice_basis_of_columns_keeps_index():
    basis = linalg.lattice_basis_of_columns(np.array([[2, 4], [0, 0]], dtype=object), 2)
    assert basis.shape == (2, 1)
    assert abs(basis[0, 0]) == 2 and basis[1, 0] == 0


def test_solve_and_inverse():
    M = linalg.as_matrix([[1, 2], [3, 5]])
    x = linalg.solve_exact(M, linalg.as_vector([1, 0]))
    assert list(M @ x) == [Fraction(1), Fraction(0)]
    assert linalg.matrices_equal(M @ linalg.inverse(M), linalg.identity(2))
    assert linalg.det(M) == -1
    # inconsistent overdetermined system
    assert linalg.solve_exact([[1], [1]], linalg.as_vector([1, 2])) is None


def test_annihilator_of_columns_is_the_integral_kernel_of_their_rows():
    # the rows w with w M = 0, as the rational intersection criterion
    # takes them from a decomposition matrix
    M = np.array([[1, 2], [2, 4], [0, 1]], dtype=object)
    W = linalg.integral_kernel_of_rows(M.T.tolist(), 3, 5).T
    assert W.shape == (1, 3) == fraction_linalg.left_null_space(M).shape
    assert not any(W.dot(M).flat)


def test_numpy_integers_become_python_ints():
    # a Fraction of an int64 keeps an int64 numerator, whose products wrap
    big = np.array([[2**40]])
    assert type(linalg.as_matrix(big)[0, 0].numerator) is int
    assert type(linalg.as_vector(big[0])[0].numerator) is int
    assert (linalg.as_matrix(big) ** 2)[0, 0] == 2**80


def _int_matrices(max_side=4, bound=12):
    return st.integers(1, max_side).flatmap(lambda m: st.integers(1, max_side).flatmap(
        lambda n: st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


@settings(max_examples=60, deadline=None)
@given(_int_matrices(), st.sampled_from([2, 3, 5]), st.data())
def test_smith_exponents_match_sympy_invariant_factors(rows, p, data):
    # entries a / d with d a unit at p: clearing the unit denominators
    # leaves an integer matrix with the same exponents
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    units = st.integers(1, 12).filter(lambda d: d % p)
    M = [[Fraction(a, data.draw(units)) for a in row] for row in rows]
    den = math.lcm(*[x.denominator for row in M for x in row])
    cleared = sympy.Matrix([[int(x * den) for x in row] for row in M])
    factors = invariant_factors(cleared, domain=sympy.ZZ)
    expected = tuple(val(Fraction(int(d)), p) for d in factors if d != 0)
    assert linalg.smith_normal_form(M, p).exponents == expected


@settings(max_examples=60, deadline=None)
@given(_int_matrices(max_side=5, bound=6), st.sampled_from([2, 3, 5]), st.data())
def test_integral_kernel_matches_sympy_rank_and_is_saturated(rows, p, data):
    sympy = pytest.importorskip("sympy")
    dens = st.integers(1, 6)
    M = linalg.as_matrix([[Fraction(a, data.draw(dens)) for a in row] for row in rows])
    K = linalg.integral_kernel(M, p)
    n = M.shape[1]
    rank = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in M]).rank()
    assert K.shape == (n, n - rank)
    assert linalg.is_integral(K, p)
    assert all(x == 0 for x in (M @ K).flat)
    # saturated: the ring span of the columns is a direct summand
    assert linalg.smith_normal_form(K, p).exponents == (0,) * (n - rank)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
             min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    exact = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                          for row in rows]).det()
    assert linalg.det(rows) == Fraction(int(exact.p), int(exact.q))


# -- the integer kernels against the Fraction versions --------------------

LOCAL_PRIMES = (2, 3, 5, 4294967311)


@st.composite
def local_matrix(draw, max_side=5, p=None, shape=None):
    """(p, M) for a matrix M whose entries a p^e / d have d a unit at p;
    the shape may be 0 x n or m x 0."""
    p = draw(st.sampled_from(LOCAL_PRIMES)) if p is None else p
    m, n = shape or (draw(st.integers(0, max_side)), draw(st.integers(0, max_side)))
    entry = st.builds(lambda a, e, d: Fraction(a * p**e, d), st.integers(-9, 9),
                      st.integers(0, 2), st.integers(1, 12).filter(lambda d: d % p))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return p, linalg.as_matrix(rows) if m else linalg.zeros(0, n)


def _identical(a, b) -> bool:
    return a.shape == b.shape and all(
        type(x) is Fraction and x == y for x, y in zip(a.flat, b.flat))


@settings(max_examples=150, deadline=None)
@given(local_matrix())
def test_smith_form_equals_the_fraction_version(case):
    p, M = case
    ours = linalg.smith_normal_form(M, p)
    oracle = fraction_linalg.smith_normal_form(M, p)
    assert ours.exponents == oracle.exponents and ours.rank == oracle.rank
    assert _identical(ours.left, oracle.left)
    assert _identical(ours.right, oracle.right)


@settings(max_examples=150, deadline=None)
@given(local_matrix(), st.data())
def test_lattice_basis_equals_the_left_inverse_version(case, data):
    p, G = case
    if G.shape[1] and data.draw(st.booleans()):
        # rank-deficient: append ring combinations of the columns
        coeff = st.builds(lambda a, e: Fraction(a * p**e), st.integers(-3, 3), st.integers(0, 1))
        k = data.draw(st.integers(1, 3))
        C = linalg.as_matrix(data.draw(st.lists(st.lists(coeff, min_size=k, max_size=k),
                                                min_size=G.shape[1], max_size=G.shape[1])))
        G = np.concatenate([G, G @ C], axis=1)
    ours = _lattice_basis(G, p)
    oracle = fraction_linalg.lattice_basis_from_generators(G, p)
    assert _identical(ours, oracle)
    assert ours.shape[1] == linalg.smith_normal_form(G, p).rank


def _lattice_basis(G, p):
    """lattice_basis_of_columns of the numerators of G, whose denominator
    is a unit, as Fractions."""
    return linalg.from_numerators(linalg.lattice_basis_of_columns(linalg.numerators(G)[0], p), 1)


@settings(max_examples=100, deadline=None)
@given(local_matrix())
def test_quotient_torsion_basis_equals_the_inverted_left_transform(case):
    p, C = case
    N, d = linalg.numerators(C)
    inv = linalg.quotient_invariants_of_rows(N.tolist(), [d] * len(N), C.shape[1], p)
    snf = fraction_linalg.smith_normal_form(C, p)
    torsion = [i for i, e in enumerate(snf.exponents) if e > 0]
    assert inv.exponents == tuple(snf.exponents[i] for i in torsion)
    assert inv.free_rank == C.shape[0] - snf.rank
    # each over the least common denominator of the oracle's entries
    assert _over_one(*linalg.numerators(fraction_linalg.inverse(snf.left)[:, torsion]),
                     inv.torsion_basis)
    assert _over_one(*linalg.numerators(snf.left[torsion]), inv.torsion_left)


def test_lattice_basis_of_empty_and_rank_deficient_generators():
    p = 4294967311
    for G in (linalg.zeros(0, 3), linalg.zeros(3, 0), linalg.zeros(2, 2),
              linalg.as_matrix([[p, 2 * p, 0], [p * p, 2 * p * p, 0]])):
        assert _identical(_lattice_basis(G, p),
                          fraction_linalg.lattice_basis_from_generators(G, p))
    basis = linalg.lattice_basis_of_columns(
        np.array([[p, 2 * p], [p * p, 2 * p * p]], dtype=object), p)
    assert basis.shape == (2, 1) and list(basis[:, 0]) == [p, p * p]


def _same_outcome(f, oracle, *args) -> bool:
    """f and its oracle return identical matrices, both None, or raise
    the same ValueError."""
    results = []
    for g in (f, oracle):
        try:
            results.append(g(*args))
        except ValueError as exc:
            results.append(str(exc))
    ours, theirs = results
    if isinstance(theirs, np.ndarray):
        return isinstance(ours, np.ndarray) and _identical(ours, theirs)
    return type(ours) is type(theirs) and ours == theirs


@settings(max_examples=150, deadline=None)
@given(local_matrix(), st.data())
def test_elimination_equals_the_fraction_version(case, data):
    p, M = case
    m, n = M.shape
    N, d = linalg.numerators(M)
    assert len(linalg.eliminate(N.tolist(), [d] * m, n)[0]) == len(
        fraction_linalg.eliminate(np.array(M), n))
    _, B = data.draw(local_matrix(p=p, shape=(m, data.draw(st.integers(1, 3)))))
    for rhs in (B, B[:, 0]):
        assert _same_outcome(linalg.solve_exact, fraction_linalg.solve_exact, M, rhs)
    if m == n:
        assert linalg.det(M) == fraction_linalg.det(M)
        assert _same_outcome(linalg.inverse, fraction_linalg.inverse, M)


def _membership(V, basis, p):
    """lattice_membership_of_columns of the columns of V in the basis, on
    their numerators, as Fractions."""
    found = linalg.lattice_membership_of_columns(linalg.numerators(basis),
                                                 linalg.numerators(V), p)
    return None if found is None else linalg.from_numerators(*found)


@settings(max_examples=150, deadline=None)
@given(local_matrix(), st.data())
def test_lattice_membership_equals_the_fraction_solve(case, data):
    p, basis = case
    m, n = basis.shape
    k = data.draw(st.integers(0, 3))
    _, V = data.draw(local_matrix(p=p, shape=(m, k)))
    _, C = data.draw(local_matrix(p=p, shape=(n, k)))
    inside = linalg.as_matrix(basis.dot(C))  # ring coordinates C
    # V is mostly outside the span when m > n; inside / p mostly has
    # coordinates outside the ring; a basis with m < n is rank deficient
    for v in (V, inside, inside * Fraction(1, p)):
        assert _same_outcome(_membership, fraction_linalg.lattice_membership, v, basis, p)
