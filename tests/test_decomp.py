from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symorders as so
from symorders import decomp, linalg
from symorders.builders import (
    four_dim_characters,
    four_dim_nonrational,
    matrix_order,
    rank2_order,
)
from symorders.forms import central_idempotents, gram_matrix, regular_character_form
import fraction_lattices
from test_orders import standard_orders

def test_character_table_validation(s3, s3_chars):
    A, _ = s3
    table = so.make_character_table(s3_chars, A)
    assert table.degrees == (1, 2, 1)
    with pytest.raises(ValueError, match="linearly dependent"):
        so.make_character_table(s3_chars + [s3_chars[0]], A)
    with pytest.raises(ValueError, match="regular character"):
        so.make_character_table(s3_chars[:2], A)


def test_decomposition_validation(s3_table):
    with pytest.raises(ValueError, match="does not match decomposition row"):
        so.make_decomposition_matrix([[1, 0], [1, 0], [0, 1]], (1, 1), s3_table.degrees)
    with pytest.raises(ValueError, match="non-negative"):
        so.make_decomposition_matrix([[1, 0], [2, -1], [0, 1]], (1, 1), s3_table.degrees)
    D = so.make_decomposition_matrix([[1, 0], [1, 1], [0, 1]], (1, 1), s3_table.degrees)
    assert D.num_modular == 2


def test_morita_search_s3(s3, s3_table, s3_decomposition):
    A, _ = s3
    w = so.morita_psp_search(A, s3_table, s3_decomposition, bound=5)
    assert w is not None
    assert w.m == (1, 1) and w.n == 1 and w.a == (1, 2, 1)
    # witness form is the degree-weighted character sum divided by 3
    rho_third = so.regular_character_form(A).scale(Fraction(1, 3))
    assert linalg.vectors_equal(w.form.values, rho_third.values)
    assert so.is_symmetrising(A, w.form)


def test_morita_search_matrix_order():
    A, s = matrix_order(2, 2)
    chars = [[1 if i in (0, 3) else 0 for i in range(4)]]
    table = so.make_character_table(chars, A)
    D = so.make_decomposition_matrix([[1]], (2,), table.degrees)
    w = so.morita_psp_search(A, table, D, bound=3)
    # the trace character itself has a unimodular Gram matrix
    assert w is not None and w.m == (1,) and w.n == 0
    assert linalg.vectors_equal(w.form.values, s.values)


def test_morita_search_rank2_none_within_bound(rank2_family):
    A, s, _ = rank2_family[(2, 2)]
    chars = [[1, 0], [1, 4]]
    table = so.make_character_table(chars, A)
    D = so.make_decomposition_matrix([[1], [1]], (1,), table.degrees)
    assert so.morita_psp_search(A, table, D, bound=6) is None
    assert so.morita_psp_search_integers(A, table, D, bound=4) is None


def test_morita_integer_search_and_shift(s3, s3_table, s3_decomposition):
    A, _ = s3
    w = so.morita_psp_search_integers(A, s3_table, s3_decomposition, bound=2)
    assert w is not None and w.n == 1
    shifted = so.morita_shift_witness(A, s3_table, s3_decomposition, w)
    assert all(m > 0 for m in shifted.m)
    assert shifted.n == w.n
    assert so.is_symmetrising(A, shifted.form)
    # positive witnesses stay witnesses of the positive-box search
    assert so.morita_psp_search(A, s3_table, s3_decomposition, bound=max(shifted.m)) is not None


def test_rational_centre_ranks(s3, s3_table):
    A, _ = s3
    rc = so.rational_centre(A, s3_table)
    assert rc.rank == 3

    R, _ = rank2_order(1, 2)
    table = so.make_character_table([[1, 0], [1, 2]], R)
    assert so.rational_centre(R, table).rank == 2

    B, _ = four_dim_nonrational(3, 2)
    tb = so.make_character_table(four_dim_characters(3), B)
    assert so.rational_centre(B, tb).rank == 4

    M, _ = matrix_order(2, 3)
    tm = so.make_character_table([[1 if i in (0, 3) else 0 for i in range(4)]], M)
    assert so.rational_centre(M, tm).rank == 1


def test_rational_symmetry_rank2(rank2_family):
    for (m, p), (A, s, _) in rank2_family.items():
        chars = [[1, 0], [1, Fraction(p) ** m]]
        table = so.make_character_table(chars, A)
        res = so.rational_symmetry_search(A, table, bound=3)
        assert res.witness_sigma is not None
        assert so.is_symmetrising(A, res.witness_form)
        # spectral coefficients of the witness match a twist of the
        # attached form: both are rational, so this order is rationally
        # symmetric for every m and p
        sigma = so.schur_coefficients(A, res.witness_form, chars)
        assert all(x != 0 for x in sigma)


def test_four_dim_congruence_analysis():
    x = 3
    A, s = four_dim_nonrational(x, 2)
    table = so.make_character_table(four_dim_characters(x), A)
    res = so.rational_symmetry_search(A, table, bound=5)
    assert res.witness_sigma is not None
    ratios = [c.ratio for c in res.congruences if c.ratio is not None]
    # integrality on the second basis vector forces the ratio of the
    # second and fourth unit parts to be congruent to x mod 2
    assert (1, 3, x % 2) in ratios
    # the same constraint appears between the third and fourth parts
    assert (2, 3, x % 2) in ratios


def test_intersection_criterion_examples(s3, s3_table, s3_decomposition, rank2_family):
    A, _ = s3
    crit = so.rational_intersection_criterion(A, s3_table, s3_decomposition)
    assert crit.verdict and crit.morita_verdict
    assert crit.maximal_ideal_count == 1  # the center mod 3 is local

    R, sr, _ = rank2_family[(2, 2)]
    tR = so.make_character_table([[1, 0], [1, 4]], R)
    DR = so.make_decomposition_matrix([[1], [1]], (1,), tR.degrees)
    crit = so.rational_intersection_criterion(R, tR, DR)
    assert not crit.verdict and not crit.morita_verdict

    M, _ = matrix_order(2, 2)
    tM = so.make_character_table([[1 if i in (0, 3) else 0 for i in range(4)]], M)
    DM = so.make_decomposition_matrix([[1]], (2,), tM.degrees)
    crit = so.rational_intersection_criterion(M, tM, DM)
    assert crit.verdict and crit.morita_verdict


def test_intersection_criterion_product_separates_the_two_tests():
    # the span test answers the Morita-class question: the product of the
    # trivial order and a 2x2 matrix order is Morita equivalent to a
    # product of trivial orders (scalar property holds there), while the
    # order itself fails the orbit test and the direct algorithms
    A1, s1 = matrix_order(1, 2)
    B2, s2 = matrix_order(2, 2)
    from symorders.forms import direct_product_form

    P = so.direct_product(A1, B2)
    sp = direct_product_form(s1, s2)
    chars = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 1]]
    table = so.make_character_table(chars, P)
    D = so.make_decomposition_matrix([[1, 0], [0, 1]], (1, 2), table.degrees)
    crit = so.rational_intersection_criterion(P, table, D)
    assert not crit.verdict
    assert crit.morita_verdict
    assert so.psp_direct(P, sp) is None
    # and the span test is corroborated by the box search
    w = so.morita_psp_search(P, table, D, bound=3)
    assert w is not None and w.n == 0


def test_cross_algorithm_agreement(s3, s3_table, s3_decomposition, rank2_family):
    cases = []
    A, s = s3
    cases.append((A, s, s3_table, s3_decomposition))
    for (m, p), (R, sr, _) in rank2_family.items():
        tR = so.make_character_table([[1, 0], [1, Fraction(p) ** m]], R)
        DR = so.make_decomposition_matrix([[1], [1]], (1,), tR.degrees)
        cases.append((R, sr, tR, DR))
    for n, p in [(1, 2), (2, 2), (2, 3)]:
        M, sm = matrix_order(n, p)
        tM = so.make_character_table(
            [[1 if i % (n + 1) == 0 else 0 for i in range(n * n)]], M
        )
        DM = so.make_decomposition_matrix([[1]], (n,), tM.degrees)
        cases.append((M, sm, tM, DM))
    for A_, s_, t_, D_ in cases:
        direct = so.psp_direct(A_, s_) is not None
        gram = so.psp_regular_gram(A_).verdict
        crit = so.rational_intersection_criterion(A_, t_, D_).verdict
        assert direct == gram == crit


def test_heights(s3_table):
    assert [so.height(d, [1, 3, 2], 3) for d in [1, 3, 2]] == [0, 1, 0]
    assert [so.height(d, s3_table.degrees, 3) for d in s3_table.degrees] == [0, 0, 0]
    assert so.height(7, [7], 7) == 0
    with pytest.raises(ValueError, match="negative height"):
        so.height(1, [3, 9], 3)
    with pytest.raises(ValueError, match="nonempty"):
        so.height(1, [], 3)


def test_degree_divisibility(s3, s3_lattices):
    report = so.degree_divisibility_checks(
        3,
        1,
        [
            ("trivial", 1, True, False),
            ("regular", 6, False, True),
        ],
    )
    assert report.ok
    with pytest.raises(ValueError, match="violation"):
        so.degree_divisibility_checks(3, 1, [("bad", 9, True, False)])
    # matrix order at p=2: both bounds tight on the column lattice
    report = so.degree_divisibility_checks(2, 1, [("column", 2, True, True)])
    assert report.ok and len(report.entries) == 2


def test_min_degree_check(s3_table):
    rep = so.min_degree_check(s3_table.degrees, 3, 1, [1, 1, 0])
    assert rep.status == "satisfied" and rep.a0 == 1 and rep.needed_valuation == 0
    rep = so.min_degree_check([3], 3, 1, [])
    assert rep.a0 == 0 and rep.needed_valuation == 1 and rep.status == "satisfied"
    rep = so.min_degree_check([1], 3, 1, [])
    assert rep.status == "inconclusive"


def test_height_scaling_invariance():
    # multiplying every degree by an integer prime to p changes nothing
    degrees = [1, 3, 2]
    scaled = [2 * d for d in degrees]
    for r in (1, 2, 3, 6, 9):
        assert so.height(r, degrees, 3) == so.height(r, scaled, 3)


def test_height_invariance(s3_table):
    pairs = [(1, 1), (2, 2), (6, 6)]
    out = so.height_invariance_check(
        s3_table.degrees, s3_table.degrees, pairs, 3
    )
    assert [h for (_, _, h) in out] == [0, 0, 1]
    with pytest.raises(ValueError, match="height mismatch"):
        so.height_invariance_check([1, 3, 2], [1, 1, 1], [(3, 1)], 3)


# -- the integer shortcuts of the rational symmetry search -----------------


def _constant_exponent_by_smith(G, p):
    snf = linalg.smith_normal_form(G, p)
    if snf.rank < G.shape[0] or len(set(snf.exponents)) > 1:
        return None
    return snf.exponents[0]


@st.composite
def symmetric_integer_matrix(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    scale = p ** draw(st.integers(0, 2))
    upper = {(i, j): draw(st.integers(-6, 6)) for i in range(n) for j in range(i, n)}
    return p, linalg.as_matrix([[scale * upper[min(i, j), max(i, j)] for j in range(n)]
                                for i in range(n)])


@settings(max_examples=150, deadline=None)
@given(symmetric_integer_matrix())
def test_constant_exponent_mod_p_agrees_with_the_smith_form(case):
    p, G = case
    N, _ = linalg.numerators(G)
    assert decomp._constant_exponent(N, p) == _constant_exponent_by_smith(G, p)


def test_s3_candidates_filter_and_gram_test_agree_with_fractions(s3, s3_table):
    A, _ = s3
    candidates = list(decomp._integral_candidates(A, s3_table, 5, 1))
    # the integer filter keeps exactly the sigma with sum sigma_chi e_chi in the order
    E = np.array([list(e) for e in central_idempotents(A, s3_table.values)], dtype=object).T
    values = decomp._search_values(5)
    expected = []
    for k in (0, 1):
        for rest in product(values, repeat=2):
            sigma = [3**k * c for c in rest] + [Fraction(3**k)]
            if linalg.is_integral(E @ linalg.as_vector(sigma), 3):
                expected.append(sigma)
    assert candidates == expected
    verdicts = set()
    for sigma in candidates:
        G = gram_matrix(A, s3_table.form_from_coefficients(sigma))
        # the numerators are G times a unit, with the same Smith exponents
        n = decomp._constant_exponent(linalg.numerators(G)[0], 3)
        assert n == _constant_exponent_by_smith(G, 3)
        verdicts.add(n is None)
    assert verdicts == {True, False}


# -- the integer Gram test against the Fraction version --------------------


def _gram_hit(A, table, grams, a):
    """The Fraction Gram test's result, after requiring that the integer
    one returns None as well, or the same exponent and the same form,
    entry by entry."""
    ours = decomp._gram_candidate(A, table, grams, a)
    theirs = fraction_lattices.gram_candidate(A, table, a)
    if ours is None or theirs is None:
        assert ours is None and theirs is None, a
    else:
        assert ours[0] == theirs[0], a
        assert all(type(x) is Fraction and x == y
                   for x, y in zip(ours[1].values, theirs[1].values)), a
    return theirs


def test_gram_candidate_equals_the_fraction_version_on_s3_searches(s3, s3_table,
                                                                   s3_decomposition):
    A, _ = s3
    grams = decomp._character_grams(A, s3_table)
    hits = [_gram_hit(A, s3_table, grams, sigma) is not None
            for sigma in decomp._integral_candidates(A, s3_table, 5, 4)]
    assert any(hits) and not all(hits)
    for box in (range(1, 6), range(-5, 6)):
        for m in product(box, repeat=s3_decomposition.num_modular):
            a = decomp._decomposition_coefficients(s3_table, s3_decomposition, m)
            if any(a):
                _gram_hit(A, s3_table, grams, a)


@st.composite
def form_combination(draw):
    """An order, a table of forms on it and coefficients a p^e / d: the
    forms are rational multiples of the regular character, whose Gram
    matrices are symmetric, or arbitrary vectors."""
    A = draw(standard_orders())
    p = A.prime
    scalar = st.builds(lambda a, e, d: Fraction(a * p**e, d), st.integers(-9, 9),
                       st.integers(0, 2), st.integers(1, 12))
    rho = regular_character_form(A).values
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            rows.append(list(rho * draw(scalar)))
        else:
            rows.append(draw(st.lists(scalar, min_size=A.dim, max_size=A.dim)))
    table = decomp.CharacterTable(values=linalg.as_matrix(rows), degrees=())
    return A, table, draw(st.lists(scalar, min_size=len(rows), max_size=len(rows)))


@settings(max_examples=150, deadline=None)
@given(form_combination())
def test_gram_candidate_equals_the_fraction_version(case):
    A, table, a = case
    _gram_hit(A, table, decomp._character_grams(A, table), a)
