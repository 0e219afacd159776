import dataclasses
import json
import math
import random
import time
import tracemalloc
import types
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symorders as so
from symorders import cli, decomp, forms, linalg, modp
from symorders.builders import (
    cyclic_group_table,
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
import box_scan
import dense_orders
import fraction_characters
import fraction_lattices
import fraction_linalg
import gram_witness
from test_orders import unimodular

GOLDEN = Path(__file__).resolve().parent / "data"


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
    for name in ("central_characters", "_rational_centre", "_witness_test"):
        monkeypatch.setattr(decomp, name, lambda *args, f=getattr(decomp, name), name=name:
                            calls.append(name) or f(*args))
    assert cli.run("all", s3_fixture_bundle(3)).ok
    assert sorted(calls) == ["_rational_centre", "_witness_test", "central_characters"]


def test_witness_test_certifies_the_idempotents(monkeypatch, s3, s3_chars):
    A, _ = s3
    centre = so.rational_centre(A, so.make_character_table(s3_chars, A))
    # the idempotents in the wrong order, and one of them 0, on which rho vanishes
    E, h = centre.integer_idempotents
    zero = E.copy()
    zero[:, 0] = 0
    for idempotents in ((E[:, ::-1], h), (zero, h)):
        monkeypatch.setattr(decomp, "rational_centre", lambda A, table:
                            dataclasses.replace(centre, integer_idempotents=idempotents))
        with pytest.raises(ValueError, match="no multiple of chi"):
            decomp.witness_test(A, so.make_character_table(s3_chars, A))


def test_witness_test_needs_an_invertible_regular_gram_matrix(monkeypatch):
    # O[x]/(x^2) is not separable: rho(x) = 0, so G_rho = [[2, 0], [0, 0]];
    # its centre raises first, so hand the test some idempotents
    A = so.make_order([(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0], 3)
    table = so.make_character_table([[1, 1], [1, -1]], A)
    idempotents = np.array([[1, 0], [0, 0]], dtype=object), 1  # columns 1 and 0
    monkeypatch.setattr(decomp, "rational_centre", lambda A, table: types.SimpleNamespace(
        integer_idempotents=idempotents, integer_characters=linalg.numerators(table.values)))
    with pytest.raises(ValueError, match="regular Gram matrix singular"):
        decomp.witness_test(A, table)


def test_central_characters_certify_the_table_and_the_inverse(monkeypatch, s3, s3_chars):
    # orthogonality with sum 1 is certified on the centre's table: a table
    # on which some omega_chi is not multiplicative is an input fault
    A, _ = s3
    basis, (C, c), unit = A.integer_centre
    characters = linalg.numerators(linalg.as_matrix(s3_chars))
    forged = C.copy()
    forged[1, 1] = C[1, 1] + C[0, 0]
    with pytest.raises(ValueError, match="system inconsistent: a central character is not mult"):
        forms.central_characters((basis, (forged, c), unit), characters)
    # the idempotents solved for, halved
    solve = linalg.solve_of_rows
    monkeypatch.setattr(linalg, "solve_of_rows",
                        lambda rows, n: (lambda X, x: (X, 2 * x))(*solve(rows, n)))
    with pytest.raises(AssertionError, match="centre basis differs from sum omega_chi"):
        forms.central_characters(A.integer_centre, characters)


def test_rational_centre_of_a_non_semisimple_algebra_is_an_input_fault(tmp_path, capsys):
    # O[x]/(x^2): the characters (1, 1) and (1, -1) sum to the regular
    # character, but omega(x)^2 = 1 while x^2 = 0
    A = so.make_order([(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0], 3)
    table = so.make_character_table([[1, 1], [1, -1]], A)
    with pytest.raises(ValueError, match="system inconsistent"):
        so.rational_centre(A, table)
    path = tmp_path / "dual-numbers.bundle.json"
    so.save_bundle(so.Bundle(prime=3, order=A, forms={}, lattices={}, character_table=table),
                   path)
    assert cli.main(["--bundle", str(path), "--check", "rational"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: system inconsistent: a central character")
    assert "Traceback" not in err


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
    # a zero has infinite valuation, which is no height
    for rank, degrees in ((0, [1, 3]), (1, [0, 3]), (3, [0])):
        with pytest.raises(ValueError, match="zero rank or degree"):
            so.height(rank, degrees, 3)


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
    # a violation is reported, not raised: every row with its verdict
    report = so.degree_divisibility_checks(3, 1, [("bad", 9, True, False), ("one", 1, True, False)])
    assert not report.ok
    assert report.entries == (("bad", 9, "knorr", 2, 1, False), ("one", 1, "knorr", 0, 1, True))
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
    assert box_scan.valuations(np.array(rows, dtype=object), p).tolist() == expected
    small = [row for row in rows if all(abs(x) < 2**62 for x in row)]
    if small:
        assert (box_scan.valuations(np.array(small, dtype=np.int64), p).tolist()
                == [v for v, row in zip(expected, rows) if row in small])


def _block(vectors):
    """(S, d): rational coefficient vectors a as integer rows S_c over d_c."""
    dens = [math.lcm(*[Fraction(x).denominator for x in a]) for a in vectors]
    S = [[int(Fraction(x) * d) for x in a] for a, d in zip(vectors, dens)]
    return np.array(S, dtype=object).reshape(len(vectors), -1), np.array(dens, dtype=object)


def _at_power_zero(test, S, d):
    """(integral, n) for the candidates a = S_c / d_c themselves: whether
    sum a_chi e_chi lies in the order, and the exponent of a as a
    witness, else -1."""
    e, m0 = box_scan.levels(test, S, d)
    return e <= 0, np.where(m0 >= 0, m0, -1)


def _witness_hits(A, table, vectors):
    """The whole-candidate test on each vector a, after requiring that the
    Gram oracle returns None as well, or the same exponent and the same
    form, entry by entry; returns whether each is a witness."""
    _, exponents = _at_power_zero(decomp.witness_test(A, table), *_block(vectors))
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
    assert [len(f[0]) for f in (test.idempotents, test.values)] == [3, 3]
    E = np.array([list(e) for e in central_idempotents(A, s3_table.values)], dtype=object).T
    verdicts = set()
    for k in (0, 1):
        sigmas = _s3_search_candidates([k])
        integral, exponents = _at_power_zero(test, *_block(sigmas))
        for sigma, ok, n in zip(sigmas, integral, exponents):
            # the integer filter keeps exactly the sigma with sum sigma_chi e_chi in the order
            assert ok == linalg.is_integral(E @ linalg.as_vector(sigma), 3)
            G = gram_matrix(A, fraction_lattices.character_form(s3_table, sigma))
            m = _constant_exponent_by_smith(G, 3) if linalg.is_integral(G, 3) else None
            assert n == (-1 if m is None else m), sigma
            if ok:
                verdicts.add(n < 0)
    assert verdicts == {True, False}


def _search_values(bound):
    """The search values of the rational symmetry search as Fractions."""
    return [Fraction(*value) for value in decomp._search_values(bound)]


def _s3_search_candidates(powers):
    """The rational search's candidates 3^k (c_1, c_2, 1) on S3 at bound 5."""
    return [[3**k * c for c in rest] + [Fraction(3**k)] for k in powers
            for rest in product(_search_values(5), repeat=2)]


def _s3_morita_candidates(table, D):
    """The Morita searches' candidates D m on S3, one block per box."""
    return [[decomp._decomposition_coefficients(table, D, m)
             for m in product(box, repeat=D.num_modular)]
            for box in (range(1, 6), range(-5, 6))]


def test_witness_test_equals_the_gram_oracle_on_s3_searches(s3, s3_table, s3_decomposition):
    A, _ = s3
    test = decomp.witness_test(A, s3_table)
    sigmas = _s3_search_candidates(range(5))
    integral, _ = _at_power_zero(test, *_block(sigmas))
    hits = _witness_hits(A, s3_table, [s for s, ok in zip(sigmas, integral) if ok])
    assert any(hits) and not all(hits)
    for vectors in _s3_morita_candidates(s3_table, s3_decomposition):
        _witness_hits(A, s3_table, vectors)


def test_witness_test_inverts_no_matrix_and_builds_no_gram_matrix(monkeypatch, s3, s3_chars):
    A, _ = s3
    calls = []
    for module, name in ((linalg, "inverse"), (forms, "gram_matrix"), (decomp, "gram_matrix")):
        f = getattr(module, name, forms.gram_matrix)
        monkeypatch.setattr(module, name, lambda *args, f=f, name=name:
                            calls.append((name, np.shape(args[0]) if name == "inverse" else None))
                            or f(*args), raising=False)
    decomp.witness_test(A, so.make_character_table(s3_chars, A))
    # the idempotents are one integer solve on the centre, and the regular
    # Gram matrix is read as integer numerators, never as Fractions
    assert calls == []


# -- the searches against the k-major scan ---------------------------------


def _k_major_levels(test, S, d, k):
    """The witness test of the candidates p^k S_c / d_c at the one power
    k, as the scan over (k, c) ran it on the Gram and inverse families of
    ``gram_witness``: (integral, n) with n the exponent of a witness, else
    -1.  On Python ints."""
    p = test.p
    S, d = S.astype(object), d.astype(object)

    def level(family, X):
        return box_scan.valuations(X @ family[0].T.astype(object), p) - family[1]

    vd = box_scan.valuations(d[:, None], p)
    integral = level(test.idempotents, S) - vd + k >= 0
    m = level(test.gram, S) - vd + k
    nonzero = (S != 0).all(axis=1)
    S = np.where(nonzero[:, None], S, 1)
    P = np.prod(S, axis=1)
    inverse = level(test.inverse, P[:, None] // S) + vd - k - box_scan.valuations(P[:, None], p)
    return integral, np.where(nonzero & (m >= 0) & (inverse >= -m), m, -1)


def _k_major_first_witness(A, table, vectors, powers, integral):
    """(k, index, n) of the first witness p^k a, a in ``vectors``, scanning
    every vector at k = 0, then every vector at k = 1, and so on; None
    when there is none.  With ``integral`` it must pass that test too."""
    test = gram_witness.witness_test(A, table)
    S, d = _block(vectors)
    for k in powers:
        ok, n = _k_major_levels(test, S, d, k)
        for i in range(len(vectors)):
            if n[i] >= 0 and (ok[i] or not integral):
                return k, i, int(n[i])
    return None


def _same_first_witnesses(A, table, D, bound):
    """The rational symmetry search, and the Morita searches when D is
    given, return the witness the k-major scan finds first."""
    p, r = A.prime, table.num_chars
    sigmas = [[*rest, 1] for rest in product(_search_values(bound), repeat=r - 1)]
    hit = _k_major_first_witness(A, table, sigmas, range(decomp.POWER_RANGE + 1), True)
    found = decomp.rational_symmetry_search(A, table, bound=bound)
    if hit is None:
        assert found.witness_sigma is None
    else:
        k, i, n = hit
        assert found.witness_sigma == tuple(Fraction(p) ** k * c for c in sigmas[i])
        assert found.witness_n == n
    if D is None:
        return
    for box, search in ((range(1, bound + 1), so.morita_psp_search),
                        (range(-bound, bound + 1), so.morita_psp_search_integers)):
        ms = list(product(box, repeat=D.num_modular))
        vectors = [decomp._decomposition_coefficients(table, D, m) for m in ms]
        hit = _k_major_first_witness(A, table, vectors, [0], False)
        witness = search(A, table, D, bound=bound)
        if hit is None:
            assert witness is None
        else:
            assert (witness.m, witness.n) == (ms[hit[1]], hit[2])


@pytest.mark.parametrize("bound", [2, 3, 4, 5])
def test_searches_find_the_k_major_witness_on_s3(s3, s3_table, s3_decomposition, bound):
    _same_first_witnesses(s3[0], s3_table, s3_decomposition, bound)


@pytest.fixture(scope="module")
def small_tables():
    """(A, table, D) for rank-2 orders, M2 and the four-dimensional order,
    keyed by (kind, parameter, p)."""
    out = {}
    for m, p in [(1, 2), (2, 2), (1, 3), (3, 5)]:
        A, _ = rank2_order(m, p)
        table = so.make_character_table([[1, 0], [1, Fraction(p) ** m]], A)
        out["rank2", m, p] = A, table, so.make_decomposition_matrix([[1], [1]], (1,), table.degrees)
    for p in (2, 3):
        M, _ = matrix_order(2, p)
        table = so.make_character_table([[1 if i in (0, 3) else 0 for i in range(4)]], M)
        out["m2", 2, p] = M, table, so.make_decomposition_matrix([[1]], (2,), table.degrees)
    B, _ = four_dim_nonrational(3, 2)
    out["four-dim", 3, 2] = B, so.make_character_table(four_dim_characters(3), B), None
    return out


def _golden_tables():
    """(A, table) of every golden bundle that carries characters."""
    bundles = [so.load_bundle(path) for path in sorted(GOLDEN.glob("*.bundle.json"))]
    return [(b.order, b.character_table) for b in bundles if b.character_table is not None]


def test_centre_and_idempotents_equal_the_fraction_oracles(character_tables, small_tables):
    cases = [*character_tables.values(), *[case[:2] for case in small_tables.values()],
             *_golden_tables()]
    with_characters = [path for path in GOLDEN.glob("*.bundle.json")
                       if "characters" in json.loads(path.read_text())]
    assert with_characters
    assert len(cases) == len(character_tables) + len(small_tables) + len(with_characters)
    for A, table in cases:
        assert linalg.matrices_equal(A.integer_centre[0][0], dense_orders.center_basis(A))
        ours = linalg.from_numerators(*so.rational_centre(A, table).integer_idempotents).T
        theirs = dense_orders.central_idempotents(A, table.values)
        assert all(linalg.vectors_equal(e, f) for e, f in zip(ours, theirs, strict=True))
        assert all(linalg.vectors_equal(e, f) for e, f in
                   zip(so.central_idempotents(A, table.values), theirs, strict=True))


def test_searches_find_the_k_major_witness_on_small_orders(small_tables):
    for key, case in small_tables.items():
        for bound in (2, 3, 4) if key[0] == "rank2" else (3,):
            _same_first_witnesses(*case, bound)


@pytest.mark.parametrize("integral", [True, False])
def test_first_witness_is_the_k_major_one_in_any_candidate_order(character_tables, integral):
    # the least (k, index) is found wherever the least k sits in the scan,
    # over vectors in shuffled order: with ``integral`` the box scan of the
    # rational search (the oracle), over each vector scaled by 1 / p, 1 and
    # p, whose least k differ, and for S4 over two blocks; else the Morita
    # searches' test of one integer vector at a time at k = 0, over each
    # vector, zeros allowed, scaled by 1, p and p^2
    rng = random.Random(7)
    for key in ((3, 2), (3, 3), (3, 5), (4, 2), (4, 3)):
        A, table = character_tables[key]
        test = decomp.witness_test(A, table)
        p, r = A.prime, table.num_chars
        if integral:
            vectors = [[Fraction(p) ** j * c for c in (*rest, 1)] for j in (-1, 0, 1)
                       for rest in product(_search_values(2), repeat=r - 1)]
        else:
            vectors = [[p**j * c for c in (*rest, 1)] for j in (0, 1, 2)
                       for rest in product(range(-2, 3), repeat=r - 1)]
        for _ in range(3):
            rng.shuffle(vectors)
            if integral:
                S, d = _block(vectors)
                hit = box_scan.first_witness(test, [len(vectors)],
                                             lambda digits: (S[digits[:, 0]], d[digits[:, 0]]))
                hit, powers = hit and (hit[0], hit[1][0], hit[2]), range(decomp.POWER_RANGE + 1)
            else:
                hit = next(((0, i, n) for i, a in enumerate(vectors)
                            if (n := test.exponent(tuple(a))) is not None), None)
                powers = [0]
            assert hit == _k_major_first_witness(A, table, vectors, powers, integral)


def _s3_times_c2(p):
    """S3 x C2, the dihedral group of order 12, as the tensor product of the
    two group algebras, with the six product characters."""
    S3, s3_table = _symmetric_group(3, p)
    C2, _ = group_algebra(cyclic_group_table(2)[0], p)
    A = so.tensor_product(S3, C2)
    psi = [[1, 1], [1, -1]]
    return A, so.make_character_table([[x * y for x in chi for y in ps]
                                       for chi in s3_table.values for ps in psi], A)


@pytest.mark.parametrize("p", [2, 3])
def test_rational_search_finds_the_k_major_witness_on_s3_times_c2(p):
    _same_first_witnesses(*_s3_times_c2(p), None, 2)


def test_rational_search_finds_the_k_major_witness_on_s4_and_a_large_prime(character_tables):
    for key in ((4, 2), (4, 3), (3, 4294967311)):
        _same_first_witnesses(*character_tables[key], None, 2)


def test_rational_search_finds_the_k_major_witness_with_residues_beyond_int64():
    # the idempotent rows are (p^m, 0) and (-1, 1) over p^m, so the residues
    # are taken mod p^m, and their products pass 2^63
    p = 4294967311
    for m in (1, 2):
        A, _ = rank2_order(m, p)
        table = so.make_character_table([[1, 0], [1, Fraction(p) ** m]], A)
        assert decomp.witness_test(A, table).idempotents[1] == m
        for bound in (2, 3):
            _same_first_witnesses(A, table, None, bound)


def _golden_oracle_cases():
    """(name, bound) for every golden with characters at bounds 1 to 5; the
    box of S3 x C2 at bound 4 holds 22^5 vectors, so the scan stops at 3."""
    names = sorted(path.name.removesuffix(".bundle.json") for path in GOLDEN.glob("*.bundle.json")
                   if "characters" in json.loads(path.read_text()))
    return [(name, bound) for name in names
            for bound in range(1, 4 if name.startswith("s3xc2") else 6)]


@pytest.mark.parametrize("name, bound", _golden_oracle_cases())
def test_rational_search_returns_the_box_scan_witness_on_the_goldens(name, bound):
    b = so.load_bundle(GOLDEN / f"{name}.bundle.json")
    found = decomp.rational_symmetry_search(b.order, b.character_table, bound=bound)
    hit = box_scan.rational_witness(decomp.witness_test(b.order, b.character_table), bound)
    if hit is None:
        assert found.witness_sigma is None
    else:
        k, digits, n = hit
        values = decomp._search_values(bound)
        assert found.witness_sigma == tuple(Fraction(b.prime) ** k * Fraction(*values[i])
                                            for i in digits) + (Fraction(b.prime) ** k,)
        assert found.witness_n == n


@st.composite
def made_up_witness_test(draw):
    """A witness test on one to four made-up characters, and a bound.  Its
    value rows hold the unit rows, so m0 <= min v_p(a_chi) - v_p(d) and,
    with ``determinant`` >= -dim v_p(d), v_p(det G) >= dim m0 as on an
    order."""
    p, r = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 4))
    entry = st.builds(lambda u, e: u * p**e, st.integers(-6, 6), st.integers(0, 3))
    rows = st.lists(st.lists(entry, min_size=r, max_size=r).filter(any), min_size=1, max_size=3)
    units = [[int(i == j) for j in range(r)] for i in range(r)]
    ranks = draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))
    vx = draw(st.integers(0, 3))
    test = decomp.WitnessTest(
        p, (np.array(draw(rows), dtype=object), draw(st.integers(0, 4))),
        (np.array(units + draw(rows), dtype=object), vx), np.array(ranks, dtype=np.int64),
        -sum(ranks) * vx + draw(st.integers(0, 3 * sum(ranks))))
    return test, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(made_up_witness_test())
def test_rational_witness_is_the_box_scan_witness_on_made_up_tests(case):
    test, bound = case
    assert decomp._rational_witness(test, decomp._search_values(bound)) == \
        box_scan.rational_witness(test, bound)


def _same_exponents(test, vectors):
    """WitnessTest.exponent gives the m0 of box_scan.levels on each integer
    vector a, entry by entry: a is a witness at k = 0 exactly when m0 >= 0,
    of exponent m0."""
    S = np.array(vectors, dtype=object).reshape(len(vectors), len(test.ranks))
    m0 = box_scan.levels(test, S, np.ones(len(vectors), dtype=object))[1]
    assert [test.exponent(tuple(a)) for a in vectors] == [n if n >= 0 else None
                                                          for n in m0.tolist()]


@settings(max_examples=200, deadline=None)
@given(made_up_witness_test(), st.data())
def test_exponent_is_the_box_scan_level_on_made_up_tests(case, data):
    test, _ = case
    p, r = test.p, len(test.ranks)
    entry = st.builds(lambda u, e: u * p**e, st.integers(-6, 6), st.integers(0, 3))
    _same_exponents(test, data.draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                                             min_size=1, max_size=8)))


def _golden_morita_names():
    return sorted(path.name.removesuffix(".bundle.json") for path in GOLDEN.glob("*.bundle.json")
                  if "decomposition" in json.loads(path.read_text()))


@pytest.mark.parametrize("name", _golden_morita_names())
def test_exponent_is_the_box_scan_level_on_the_golden_morita_boxes(name):
    # the integer box [-5, 5]^l of the Morita searches, which holds their
    # positive box [1, 5]^l, zeros included
    b = so.load_bundle(GOLDEN / f"{name}.bundle.json")
    table, D = b.character_table, b.decomposition
    vectors = [decomp._decomposition_coefficients(table, D, m)
               for m in product(range(-5, 6), repeat=D.num_modular)]
    test = decomp.witness_test(b.order, table)
    _same_exponents(test, vectors)
    assert any(test.exponent(a) is not None for a in vectors)


def test_morita_search_stores_no_part_of_its_box():
    # the box [1, 10^6]^2 holds 10^12 vectors; the first, (1, 1), is the
    # witness, and the walk stops there, on a cold table
    b = s3_fixture_bundle(3)
    tracemalloc.start()
    try:
        witness = so.morita_psp_search(b.order, b.character_table, b.decomposition,
                                       bound=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (witness.m, witness.n) == ((1, 1), 1)
    assert peak < 2**20
    # a box of more than 2^63 entries per coordinate is walked the same way
    assert so.morita_psp_search(b.order, b.character_table, b.decomposition,
                                bound=10**20).m == (1, 1)


def _no_box_scan(monkeypatch):
    def exponent(*args):
        raise AssertionError("a search tested one candidate at a time")

    monkeypatch.setattr(decomp.WitnessTest, "exponent", exponent)


def test_rational_search_runs_no_box_scan(monkeypatch, s3, s3_table, character_tables):
    _no_box_scan(monkeypatch)
    assert so.rational_symmetry_search(s3[0], s3_table).witness_n == 2
    for key in ((4, 2), (4, 3)):
        assert so.rational_symmetry_search(*character_tables[key]).witness_sigma is not None
    with pytest.raises(AssertionError, match="one candidate at a time"):
        so.morita_psp_search(s3[0], s3_table, so.make_decomposition_matrix(
            [[1, 0], [1, 1], [0, 1]], (1, 1), s3_table.degrees))


def test_rational_search_passes_the_box_scan_wall_on_s3_times_c2(monkeypatch):
    # the box scan returns this witness at k = 1 after reading all 38^5
    # vectors at k = 0 (about 55 s of `check all` on a shared two-core VM);
    # it is recorded here from the scan, not recomputed
    _no_box_scan(monkeypatch)
    b = so.load_bundle(GOLDEN / "s3xc2-p3-chars.bundle.json")
    found = decomp.rational_symmetry_search(b.order, b.character_table, bound=5)
    assert found.witness_sigma == (3, 3, -3, -3, 3, 3) and found.witness_n == 2
    assert so.is_symmetrising(b.order, found.witness_form)


def test_rational_search_at_bound_5_on_s5():
    # seven characters: a box of 38^6 vectors, out of reach of the box scan
    A, table = _symmetric_group(5, 5)
    found = decomp.rational_symmetry_search(A, table, bound=5)
    assert found.witness_sigma == (5, -5, 25, 5, 25, -5, 5) and found.witness_n == 2
    assert _witness_hits(A, table, [found.witness_sigma]) == [True]


def test_rational_search_refuses_a_half_past_the_cell_limit():
    # at bound 20 one half of the s3 x c2 box holds 510^3 = 132,651,000
    # vectors of 13 cells, about 13 GiB of int64; it is refused before any
    # is built, and before the tables of the bound-5 search are reached
    b = so.load_bundle(GOLDEN / "s3xc2-p3-chars.bundle.json")
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="half of 132651000 vectors, 1724463000 cells, "
                                             f"exceeds the limit of {decomp.HALF_CELL_LIMIT}"):
            decomp.rational_symmetry_search(b.order, b.character_table, bound=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5 and peak < 10 * 2**20
    # the s4 box at bound 50: 9,572,836 vectors in a half, 11 cells each
    b = so.load_bundle(GOLDEN / "s4-p2-chars.bundle.json")
    with pytest.raises(ValueError, match="half of 9572836 vectors"):
        decomp.rational_symmetry_search(b.order, b.character_table, bound=50)


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
        assert [len(f[0]) for f in (test.idempotents, test.values)] == [5, 5]


def _scalars(p):
    """Coefficients a p^e / (d p^f), zero allowed."""
    return st.builds(lambda a, e, d, f: Fraction(a * p**e, d * p**f), st.integers(-9, 9),
                     st.integers(0, 2), st.integers(1, 12), st.integers(0, 2))


@st.composite
def character_combination(draw):
    """A real character table, coefficients a p^e / (d p^f) with zeros
    allowed, and None or such a scalar c, which stands for c times the
    degrees: the regular character times c."""
    key = draw(st.sampled_from([(3, 2), (3, 3), (3, 5), (3, 4294967311), (4, 2), (4, 3)]))
    scalar = _scalars(key[1])
    r = {3: 3, 4: 5}[key[0]]
    return key, draw(st.lists(scalar, min_size=r, max_size=r)), draw(st.none() | scalar)


@settings(max_examples=150, deadline=None)
@given(character_combination())
def test_witness_test_equals_the_gram_oracle(character_tables, case):
    key, a, c = case
    A, table = character_tables[key]
    _witness_hits(A, table, [a] if c is None else [a, [c * d for d in table.degrees]])


# -- the determinant valuation against the Gram and inverse families -------


def _same_levels(A, table, vectors, python_ints):
    """box_scan.levels gives the (e, m0) of gram_witness.levels entry by
    entry: on Python ints when ``python_ints``, else with S in int64
    wherever the block fits."""
    S, d = _block(vectors)
    theirs = gram_witness.levels(gram_witness.witness_test(A, table), S, d)
    if not python_ints and max(np.abs(S).max(), d.max()) < 2**62:
        S, d = S.astype(np.int64), d.astype(np.int64)
    ours = box_scan.levels(decomp.witness_test(A, table), S, d)
    assert [x.tolist() for x in ours] == [x.tolist() for x in theirs]


@st.composite
def small_order_block(draw):
    """A key of ``small_tables`` and one to four coefficient vectors."""
    key = draw(st.sampled_from([("rank2", 1, 2), ("rank2", 2, 2), ("rank2", 1, 3),
                                ("rank2", 3, 5), ("m2", 2, 2), ("m2", 2, 3),
                                ("four-dim", 3, 2)]))
    r = {"rank2": 2, "m2": 1, "four-dim": 4}[key[0]]
    vector = st.lists(_scalars(key[2]), min_size=r, max_size=r)
    return key, draw(st.lists(vector, min_size=1, max_size=4))


@pytest.mark.parametrize("python_ints", [True, False])
@settings(max_examples=100, deadline=None)
@given(case=character_combination())
def test_levels_equal_the_gram_levels_on_group_algebras(character_tables, python_ints, case):
    key, a, c = case
    A, table = character_tables[key]
    _same_levels(A, table, [a] if c is None else [a, [c * d for d in table.degrees]],
                 python_ints)


@pytest.mark.parametrize("python_ints", [True, False])
@settings(max_examples=100, deadline=None)
@given(case=small_order_block())
def test_levels_equal_the_gram_levels_on_small_orders(small_tables, python_ints, case):
    key, vectors = case
    A, table, _ = small_tables[key]
    _same_levels(A, table, vectors, python_ints)


@pytest.mark.parametrize("python_ints", [True, False])
def test_levels_equal_the_gram_levels_on_s3_search_blocks(s3, s3_table, s3_decomposition,
                                                          python_ints):
    A, _ = s3
    for vectors in [_s3_search_candidates(range(5)),
                    *_s3_morita_candidates(s3_table, s3_decomposition)]:
        _same_levels(A, s3_table, vectors, python_ints)


def test_levels_equal_the_fraction_gram_test_on_s5():
    # dimension 120 with seven characters; the regular character is a
    # witness at n = 1
    A, table = _symmetric_group(5, 5)
    test = decomp.witness_test(A, table)
    assert test.ranks.tolist() == [d * d for d in table.degrees]
    degrees = list(table.degrees)
    assert _at_power_zero(test, *_block([degrees]))[1].tolist() == [1]
    rng = random.Random(5)
    values = _search_values(3)

    def scalar():
        return Fraction(5) ** rng.randint(-1, 1) * rng.choice(values)

    scaled = [[c * x for x in degrees] for c in (scalar() for _ in range(6))]
    mixed = [[scalar() for _ in degrees] for _ in range(6)]
    hits = _witness_hits(A, table, [degrees] + scaled + mixed)
    # every multiple of the regular character is a witness, these mixtures are not
    assert all(hits[:7]) and not any(hits[7:])


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
    S, s = centre.integer_spectral
    for spectral, message in [((S, 5 * s), "not p-integral"),
                              ((S + s, s), "not a unital homomorphism"),
                              ((S[:, :1], s), "miss a maximal ideal")]:
        with pytest.raises(AssertionError, match=message):
            decomp._central_homs(A, dataclasses.replace(centre, integer_spectral=spectral))


# -- the intersection criterion against its lattice and inverse oracles ---


def maximal_ideal_span_verdict(A, table, D, sigma):
    """The span test on lattices: the image (sigma_chi omega_chi(z))_chi
    of the rational centre Z, cut down to the span of the columns of D,
    properly contains that of every maximal ideal, each spanned by a
    basis of the kernel of one enumerated homomorphism mod p and by p Z.
    The oracle for the homomorphism test of the criterion."""
    centre = decomp.rational_centre(A, table)
    p, pZ = A.prime, A.prime * np.identity(centre.rank, dtype=object)
    annihilator = fraction_linalg.left_null_space(D.entries)
    spectral = linalg.from_numerators(*centre.integer_spectral)

    def in_span(coords):
        L = (spectral.T @ coords) * sigma[:, None]
        return L @ linalg.integral_kernel(annihilator @ L, p) if len(annihilator) else L

    full = in_span(linalg.identity(centre.rank))
    homs = enumerated_homs(decomp._central_homs(A, centre)[0])
    ideals = [fraction_linalg.lattice_basis_from_generators(
        np.concatenate([modp.nullspace([phi], p).T, pZ], 1), p) for phi in homs]
    return len(homs), all(fraction_linalg.lattice_membership(small, full, p) is not None
                          and fraction_linalg.lattice_membership(full, small, p) is None
                          for small in map(in_span, ideals))


def _unit_multiples(rng, sigma, p, powers):
    """sigma_chi times a random unit u/v and a power p^k, k in ``powers``."""
    units = [u for u in range(-7, 8) if u % p]
    return linalg.as_vector([c * Fraction(rng.choice(units), abs(rng.choice(units)))
                             * Fraction(p) ** rng.choice(powers) for c in sigma])


def _random_decomposition(rng, table):
    """A non-negative matrix D with D m = chi(1) for modular dimensions m,
    the first of which is 1 and takes up what the others leave."""
    dims = [1] + [rng.randint(1, 3) for _ in range(rng.randint(0, table.num_chars - 1))]
    rows = []
    for degree in map(int, table.degrees):
        row = [0] * len(dims)
        for j in rng.sample(range(1, len(dims)), len(dims) - 1):
            row[j] = rng.randint(0, (degree - sum(x * d for x, d in zip(row, dims))) // dims[j])
        row[0] = degree - sum(x * d for x, d in zip(row, dims))
        rows.append(row)
    return so.make_decomposition_matrix(rows, dims, table.degrees)


def _sigmas(A, table):
    """The search witness and the Schur coefficients of the standard form
    rho / |G|."""
    witness = decomp.rational_symmetry_search(A, table, bound=3).witness_sigma
    standard = so.regular_character_form(A).scale(Fraction(1, A.dim))
    return linalg.as_vector(witness), so.schur_coefficients(A, standard, table.values)


@pytest.fixture(scope="module")
def criterion_cases(character_tables):
    return {key: (*character_tables[key], _sigmas(*character_tables[key]))
            for key in product((3, 4), (2, 3, 5))}


def test_span_test_equals_the_maximal_ideal_lattices(criterion_cases):
    rng, seen = random.Random(25), set()
    for A, table, sigmas in criterion_cases.values():
        for _ in range(20):
            D = _random_decomposition(rng, table)
            sigma = _unit_multiples(rng, rng.choice(sigmas), A.prime, [0, 1])
            crit = so.rational_intersection_criterion(A, table, D, sigma)
            assert (crit.maximal_ideal_count, crit.morita_verdict) == \
                maximal_ideal_span_verdict(A, table, D, sigma)
            seen.add(crit.morita_verdict)
    assert seen == {True, False}


def test_orbit_test_equals_the_unit_test_of_the_orbit_generator(criterion_cases):
    rng, seen = random.Random(26), set()
    for A, table, sigmas in criterion_cases.values():
        p, D = A.prime, so.make_decomposition_matrix([[d] for d in table.degrees], (1,),
                                                     table.degrees)
        idempotents = dense_orders.central_idempotents(A, table.values)
        for _ in range(40):
            sigma = _unit_multiples(rng, rng.choice(sigmas), p, [0, 0, 1, 2])
            crit = so.rational_intersection_criterion(A, table, D, sigma)
            z0 = crit.orbit_generator
            # z0 is the primitive point of the line through sum (sigma_chi / chi(1)) e_chi
            w = sum(s / d * e for s, d, e in zip(sigma, table.degrees, idempotents))
            c = next(x / y for x, y in zip(w, z0) if y)
            assert linalg.vectors_equal(w, z0 * c)
            assert min(so.val(x, p) for x in z0) == 0
            assert crit.verdict == dense_orders.is_unit(A, z0)
            seen.add(crit.verdict)
    assert seen == {True, False}


def test_intersection_criterion_rejects_a_zero_schur_coefficient(s3, s3_table,
                                                                 s3_decomposition):
    # a witness has no zero entry: sum sigma_chi chi with sigma_chi = 0 vanishes on e_chi A
    with pytest.raises(ValueError, match="zero Schur coefficient"):
        so.rational_intersection_criterion(s3[0], s3_table, s3_decomposition, (3, 0, 3))


# -- the character layer on integers against its Fraction oracles ----------


def _on_basis(A, values, P):
    """The order A and its character values on the basis given by the
    columns of P, a change of basis over the ring, as ``test_orders.rebase``
    gives them, contracted on the integer numerators of the table and of P
    (on Fractions, a dense basis of S4 takes seconds)."""
    n, d = A.dim, A.denominator
    C = np.zeros((n, n, n), dtype=object)
    for i, row in enumerate(A.products):
        for j, prods in enumerate(row):
            for k, c in prods:
                C[i, j, k] = c
    (Pn, q), (Qn, r) = (linalg.numerators(M) for M in (P, fraction_linalg.inverse(P)))
    C = np.tensordot(np.tensordot(Pn, C, axes=([0], [0])), Pn, axes=([1], [0]))  # [i, k, j]
    C = np.tensordot(C, Qn, axes=([1], [1]))  # [i, j, l]
    one = linalg.from_numerators(Qn, r) @ A.one
    B = dense_orders.dense_order(linalg.from_numerators(C, q * q * r * d), one, A.prime)
    return B, so.make_character_table(values @ P, B)


@pytest.fixture(scope="module")
def oracle_cases():
    """(A, table, sigma) for S3 at p = 2, 3 and 5, the S4 goldens with
    characters and the four-dimensional order, with the Schur
    coefficients sigma of a symmetrising form, which a change of basis
    keeps."""
    out = {}
    for p in (2, 3, 5):
        A, table = _symmetric_group(3, p)
        out["s3", p] = A, table, so.regular_character_form(A).scale(Fraction(1, 6))
    for name in ("s4-p2-chars", "s4-p3-chars"):
        b = so.load_bundle(GOLDEN / f"{name}.bundle.json")
        out[name, b.prime] = b.order, b.character_table, b.forms["standard"]
    B, s = four_dim_nonrational(3, 2)
    out["four-dim", 2] = B, so.make_character_table(four_dim_characters(3), B), s
    return {key: (A, table, so.schur_coefficients(A, s, table.values))
            for key, (A, table, s) in out.items()}


@st.composite
def oracle_case(draw):
    """A key of ``oracle_cases``, a basis (as given, permuted or dense
    unimodular), a generator for the decomposition matrix and the unit
    multiples of sigma, and an exponent n for the congruences."""
    key = draw(st.sampled_from([("s3", 2), ("s3", 3), ("s3", 5), ("s4-p2-chars", 2),
                                ("s4-p3-chars", 3), ("four-dim", 2)]))
    return key, draw(st.sampled_from(["given", "permuted", "dense"])), draw(st.randoms()), \
        draw(st.integers(0, 3)), draw(st.data())


def _same_witness_tests(ours, theirs):
    assert (ours.p, ours.determinant, ours.ranks.tolist()) == \
        (theirs.p, theirs.determinant, theirs.ranks.tolist())
    for (rows, v), (their_rows, their_v) in zip((ours.idempotents, ours.values),
                                                (theirs.idempotents, theirs.values)):
        assert (rows.tolist(), v) == (their_rows.tolist(), their_v)


@settings(max_examples=30, deadline=None)
@given(case=oracle_case())
def test_character_layer_equals_the_fraction_oracles(oracle_cases, case):
    key, basis, rng, n, data = case
    A, table, sigma = oracle_cases[key]
    if basis != "given":
        P = linalg.identity(A.dim)
        if basis == "permuted":
            P = P[:, data.draw(st.permutations(range(A.dim)))]
        else:  # with the columns scaled by units, so denominators of any residue appear
            units = [Fraction(a, b) for a in (1, 2, 3, 4) for b in (1, 3, 5, 7) if a * b % A.prime]
            P = data.draw(unimodular(A.dim, A.prime)) * data.draw(
                st.lists(st.sampled_from(units), min_size=A.dim, max_size=A.dim))
        A, table = _on_basis(A, table.values, P)
    ours, theirs = decomp.rational_centre(A, table), fraction_characters.rational_centre(A, table)
    idempotents = linalg.from_numerators(*ours.integer_idempotents).T
    assert all(linalg.vectors_equal(e, f)
               for e, f in zip(idempotents, theirs.idempotents, strict=True))
    for name in ("spectral", "basis", "table", "unit"):
        assert linalg.matrices_equal(linalg.from_numerators(*getattr(ours, f"integer_{name}")),
                                     getattr(theirs, name)), name
    _same_witness_tests(decomp.witness_test(A, table), fraction_characters.witness_test(A, table))
    sigma = _unit_multiples(rng, sigma, A.prime, [-1, 0, 1, 2])
    D = _random_decomposition(rng, table)
    crit = so.rational_intersection_criterion(A, table, D, sigma)
    oracle = fraction_characters.rational_intersection_criterion(A, table, D, sigma)
    assert (crit.verdict, crit.morita_verdict, crit.maximal_ideal_count) == \
        (oracle.verdict, oracle.morita_verdict, oracle.maximal_ideal_count)
    assert all(type(x) is Fraction for x in crit.orbit_generator)
    assert linalg.vectors_equal(crit.orbit_generator, oracle.orbit_generator)
    assert [(c.basis_index, c.terms, c.ratio) for c in decomp.congruence_analysis(
        A, table, sigma, n)] == [(c.basis_index, c.terms, c.ratio) for c in
                                 fraction_characters.congruence_analysis(A, table, sigma, n)]


@pytest.mark.parametrize("name", ["s3-p3", "s4-p3-chars"])
def test_check_all_calls_no_fraction_front_end_of_linalg(monkeypatch, name):
    # the character layer runs on the integer layer: the Fraction front-ends
    # stay in linalg for the benchmark and the tests, with no caller here
    bundle = so.load_bundle(GOLDEN / f"{name}.bundle.json")
    calls = []
    for front_end in ("inverse", "det", "integral_kernel", "solve_exact"):
        f = getattr(linalg, front_end)
        monkeypatch.setattr(linalg, front_end, lambda *args, f=f, front_end=front_end:
                            calls.append(front_end) or f(*args))
    assert cli.run("all", bundle).ok
    assert calls == []


@pytest.mark.parametrize("name", ["s3-p3", "s4-p3-chars"])
def test_check_all_reduces_the_regular_gram_matrix_once(monkeypatch, name):
    # psp takes the Smith exponents of rho's Gram numerators, and the
    # witness test reads v_p(det G_rho) off the same exponents, kept on rho
    bundle = so.load_bundle(GOLDEN / f"{name}.bundle.json")
    A = bundle.order
    gram = [list(row) for row in forms._gram_numerators(A, so.regular_character_form(A))[0]]
    reductions = []
    for reduction in ("smith_of_rows", "eliminate"):
        def counted(rows, *args, f=getattr(linalg, reduction), reduction=reduction):
            if rows == gram:
                reductions.append(reduction)
            return f(rows, *args)
        monkeypatch.setattr(linalg, reduction, counted)
    assert cli.run("all", bundle).ok
    assert reductions == ["smith_of_rows"]
