import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symorders as so
from symorders import cli, decomp, linalg
from symorders.builders import (
    four_dim_characters,
    four_dim_nonrational,
    group_algebra,
    matrix_order,
    rank2_order,
    s3_fixture_bundle,
    symmetric_group_characters,
    symmetric_group_table,
)
from symorders.forms import central_idempotents, gram_matrix
from symorders.padic import int_val
import fraction_lattices

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


def test_check_all_builds_the_rational_centre_and_the_witness_test_once(monkeypatch):
    calls = []
    for name in ("central_idempotents", "_rational_centre", "_witness_test"):
        monkeypatch.setattr(decomp, name, lambda *args, f=getattr(decomp, name), name=name:
                            calls.append(name) or f(*args))
    assert cli.run("all", s3_fixture_bundle(3)).ok
    assert sorted(calls) == ["_rational_centre", "_witness_test", "central_idempotents"]


def test_witness_test_certifies_the_idempotents(monkeypatch, s3, s3_chars):
    A, _ = s3
    centre = so.rational_centre(A, so.make_character_table(s3_chars, A))
    for idems, error, message in (
            (centre.idempotents[::-1], ValueError, "no multiple of chi"),  # wrong pairing
            (centre.idempotents[:1] * 3, AssertionError, "not orthogonal with sum 1")):
        monkeypatch.setattr(decomp, "rational_centre", lambda A, table, idems=idems:
                            dataclasses.replace(centre, idempotents=idems))
        with pytest.raises(error, match=message):
            decomp.witness_test(A, so.make_character_table(s3_chars, A))


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


# -- the whole-candidate witness test against the Gram oracle ---------------


def _constant_exponent_by_smith(G, p):
    snf = linalg.smith_normal_form(G, p)
    if snf.rank < G.shape[0] or len(set(snf.exponents)) > 1:
        return None
    return snf.exponents[0]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 4294967311]), st.integers(1, 4), st.data())
def test_valuations_equal_the_least_valuation_entry_by_entry(p, width, data):
    entry = st.builds(lambda u, e: u * p**e, st.integers(-40, 40), st.integers(0, 70))
    rows = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1))
    expected = [min((int_val(x, p) for x in row if x), default=2**40) for row in rows]
    assert decomp._valuations(np.array(rows, dtype=object), p).tolist() == expected
    small = [row for row in rows if all(abs(x) < 2**62 for x in row)]
    if small:
        assert (decomp._valuations(np.array(small, dtype=np.int64), p).tolist()
                == [v for v, row in zip(expected, rows) if row in small])


def _block(vectors):
    """(S, d): rational coefficient vectors a as integer rows S_c over d_c."""
    dens = [math.lcm(*[Fraction(x).denominator for x in a]) for a in vectors]
    S = [[int(Fraction(x) * d) for x in a] for a, d in zip(vectors, dens)]
    return np.array(S, dtype=object).reshape(len(vectors), -1), np.array(dens, dtype=object)


def _witness_hits(A, table, vectors):
    """The whole-candidate test on each vector a, after requiring that the
    Gram oracle returns None as well, or the same exponent and the same
    form, entry by entry; returns whether each is a witness."""
    _, exponents = decomp._levels(decomp.witness_test(A, table), *_block(vectors), 0)
    hits = []
    for a, n in zip(vectors, exponents):
        theirs = fraction_lattices.gram_candidate(A, table, a)
        if n < 0 or theirs is None:
            assert n < 0 and theirs is None, a
        else:
            ours = decomp._witness_form(A, table, a, int(n))
            assert n == theirs[0], a
            assert all(type(x) is Fraction and x == y
                       for x, y in zip(ours.values, theirs[1].values)), a
        hits.append(n >= 0)
    return hits


def test_s3_candidates_filter_and_gram_test_agree_with_fractions(s3, s3_table):
    A, _ = s3
    test = decomp.witness_test(A, s3_table)
    # each family has one distinct row per conjugacy class
    assert [len(f[0]) for f in (test.idempotents, test.gram, test.inverse)] == [3, 3, 3]
    E = np.array([list(e) for e in central_idempotents(A, s3_table.values)], dtype=object).T
    verdicts = set()
    for k in (0, 1):
        sigmas = [[3**k * c for c in rest] + [Fraction(3**k)]
                  for rest in product(decomp._search_values(5), repeat=2)]
        integral, exponents = decomp._levels(test, *_block(sigmas), 0)
        for sigma, ok, n in zip(sigmas, integral, exponents):
            # the integer filter keeps exactly the sigma with sum sigma_chi e_chi in the order
            assert ok == linalg.is_integral(E @ linalg.as_vector(sigma), 3)
            G = gram_matrix(A, s3_table.form_from_coefficients(sigma))
            m = _constant_exponent_by_smith(G, 3) if linalg.is_integral(G, 3) else None
            assert n == (-1 if m is None else m), sigma
            if ok:
                verdicts.add(n < 0)
    assert verdicts == {True, False}


def test_witness_test_equals_the_gram_oracle_on_s3_searches(s3, s3_table, s3_decomposition):
    A, _ = s3
    test = decomp.witness_test(A, s3_table)
    sigmas = [[3**k * c for c in rest] + [Fraction(3**k)] for k in range(5)
              for rest in product(decomp._search_values(5), repeat=2)]
    integral, _ = decomp._levels(test, *_block(sigmas), 0)
    hits = _witness_hits(A, s3_table, [s for s, ok in zip(sigmas, integral) if ok])
    assert any(hits) and not all(hits)
    for box in (range(1, 6), range(-5, 6)):
        _witness_hits(A, s3_table, [
            decomp._decomposition_coefficients(s3_table, s3_decomposition, m)
            for m in product(box, repeat=s3_decomposition.num_modular)])


def _symmetric_group(n, p):
    table, labels, _ = symmetric_group_table(n)
    A, _ = group_algebra(table, p, labels=labels)
    return A, so.make_character_table(list(symmetric_group_characters(n).values()), A)


@pytest.fixture(scope="module")
def character_tables():
    return {(n, p): _symmetric_group(n, p)
            for n, p in ((3, 2), (3, 3), (3, 5), (3, 4294967311), (4, 2), (4, 3), (4, 5))}


def test_s4_families_have_one_row_per_class(character_tables):
    for p in (2, 3):
        test = decomp.witness_test(*character_tables[(4, p)])
        assert [len(f[0]) for f in (test.idempotents, test.gram, test.inverse)] == [5, 5, 5]


@st.composite
def character_combination(draw):
    """A real character table, coefficients a p^e / (d p^f) with zeros
    allowed, and None or such a scalar c, which stands for c times the
    degrees: the regular character times c."""
    key = draw(st.sampled_from([(3, 2), (3, 3), (3, 5), (3, 4294967311), (4, 2), (4, 3)]))
    p = key[1]
    scalar = st.builds(lambda a, e, d, f: Fraction(a * p**e, d * p**f), st.integers(-9, 9),
                       st.integers(0, 2), st.integers(1, 12), st.integers(0, 2))
    r = {3: 3, 4: 5}[key[0]]
    return key, draw(st.lists(scalar, min_size=r, max_size=r)), draw(st.none() | scalar)


@settings(max_examples=150, deadline=None)
@given(character_combination())
def test_witness_test_equals_the_gram_oracle(character_tables, case):
    key, a, c = case
    A, table = character_tables[key]
    _witness_hits(A, table, [a] if c is None else [a, [c * d for d in table.degrees]])


def enumerated_homs(alg):
    """Every unital homomorphism of a commutative residue algebra onto the
    prime field, by trying all p^dim functionals: the oracle for the
    central characters read off by decomp._central_homs."""
    p = alg.p
    return [phi for phi in product(range(p), repeat=alg.dim)
            if np.dot(phi, alg.one) % p == 1
            and not ((np.outer(phi, phi) - alg.table @ phi) % p).any()]


def test_central_homs_equal_the_enumerated_homs(character_tables):
    counts = {}
    for n, p in product((3, 4), (2, 3, 5)):
        A, table = character_tables[(n, p)]
        alg, homs = decomp._central_homs(A, decomp.rational_centre(A, table))
        assert homs == enumerated_homs(alg)
        counts[n, p] = len(homs)
    assert counts == {(3, 2): 2, (3, 3): 1, (3, 5): 3, (4, 2): 1, (4, 3): 3, (4, 5): 5}


def test_central_hom_certificates_raise(character_tables):
    A, table = character_tables[(3, 5)]  # three maximal ideals
    centre = decomp.rational_centre(A, table)
    S = centre.spectral
    for spectral, message in [(S / 5, "not p-integral"),
                              (S + 1, "not a unital homomorphism"),
                              (S[:, :1], "miss a maximal ideal")]:
        with pytest.raises(AssertionError, match=message):
            decomp._central_homs(A, dataclasses.replace(centre, spectral=spectral))
