import dataclasses
import gc
import math
import random
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symorders as so
from symorders import cli, lattices, linalg, modp
from symorders.builders import (
    cyclic_group_table,
    group_algebra,
    hecke_rank1,
    matrix_column_lattice,
    matrix_order,
    rank2_order,
    rank2_projection_lattice,
    s3_characters,
    s3_fixture_bundle,
    symmetric_group_table,
)
from symorders.lattices import (
    HomLattice,
    InvalidLatticeError,
    TateDualityError,
    hom_lattice,
    projective_hom_lattice,
)
from symorders.orders import NotInvertibleError
from symorders.padic import int_val, residues_over, val
import fraction_lattices
from fraction_lattices import trace
import fraction_linalg
from fraction_linalg import residue_int
from dense_orders import cube, dense_order, is_unit, left_matrix
from test_orders import GROUP_TABLES, rebase, unimodular


def test_make_lattice_validation(s3):
    A, _ = s3
    U = so.make_lattice(A, [[[Fraction(1)]]] * 6)
    assert U.rank == 1
    with pytest.raises(InvalidLatticeError, match="module axiom fails"):
        so.make_lattice(A, [[[Fraction(1)]]] * 5 + [[[Fraction(-1)]]])
    bad_unit = [[[Fraction(2)]]] + [[[Fraction(1)]]] * 5
    with pytest.raises(InvalidLatticeError, match="unit acts nontrivially"):
        so.make_lattice(A, bad_unit)
    with pytest.raises(InvalidLatticeError, match="rank must be positive"):
        so.make_lattice(A, [[]] * 6)


def test_projection_lattice_validates(rank2_family):
    A, _, U = rank2_family[(1, 2)]
    assert U.rank == 1
    assert fraction_lattices.action(U)[1][0, 0] == 0


def _rebased_s3():
    # constants with denominators 2 and 4, units at p = 3 (see test_orders)
    A, _ = group_algebra(symmetric_group_table(3)[0], 3)
    P = linalg.identity(A.dim)
    P[0, 1] = P[2, 3] = Fraction(1, 2)
    B = dense_order(*rebase(cube(A), A.one, P), 3)
    assert B.denominator == 4
    return B, None


@pytest.mark.parametrize("build", [
    lambda: group_algebra(symmetric_group_table(3)[0], 3),
    lambda: group_algebra(symmetric_group_table(4)[0], 2),
    lambda: group_algebra(symmetric_group_table(4)[0], 3),
    lambda: rank2_order(2, 2),
    lambda: rank2_order(1, 3),
    lambda: matrix_order(2, 3),
    lambda: hecke_rank1(3, 2),
    _rebased_s3,
], ids=["s3-p3", "s4-p2", "s4-p3", "rank2-m2-p2", "rank2-m1-p3", "m2-p3", "hecke-q3-p2",
        "s3-p3-rebased"])
def test_regular_lattice_and_direct_sums_equal_the_validated_construction(monkeypatch, build):
    A, _ = build()
    dense = [left_matrix(A, A.basis_element(i)) for i in range(A.dim)]
    # a second lattice whose entries have the denominator u, a unit at p
    u = 2 if A.prime != 2 else 3
    conj = linalg.identity(A.dim)
    conj[0, 0] = Fraction(u)
    conjugated = [linalg.inverse(conj) @ m @ conj for m in dense]
    U = so.make_lattice(A, conjugated)

    def blocks(X, Y):
        out = []
        for x, y in zip(X, Y):
            r = x.shape[0]
            m = linalg.zeros(r + y.shape[0], r + y.shape[0])
            m[:r, :r], m[r:, r:] = x, y
            out.append(m)
        return out

    oracles = [so.make_lattice(A, dense), so.make_lattice(A, blocks(dense, conjugated)),
               so.make_lattice(A, blocks(conjugated, dense))]
    monkeypatch.setattr(lattices, "make_lattice", lambda *args: pytest.fail("make_lattice called"))
    R = so.regular_lattice(A)
    for ours, oracle in zip([R, so.direct_sum(R, U), so.direct_sum(U, R)], oracles):
        (N, q), (M, d) = ours.integer_action, oracle.integer_action
        assert ours.rank == oracle.rank and q == d
        assert N.shape == M.shape
        assert all(type(x) is int and x == y for x, y in zip(N.flat, M.flat))


def test_hom_lattice_ranks(s3, s3_lattices):
    A, _ = s3
    T = s3_lattices["trivial"]
    S = s3_lattices["sign"]
    R = s3_lattices["regular"]
    assert hom_lattice(A, T, T).rank == 1
    assert hom_lattice(A, T, S).rank == 0
    assert hom_lattice(A, R, R).rank == 6  # right multiplications


def test_hom_lattices_die_with_their_bundle(tmp_path):
    path = tmp_path / "s3.json"
    so.save_bundle(s3_fixture_bundle(3), path)
    b = so.load_bundle(path)
    A, s = b.order, next(iter(b.forms.values()))
    U, V = b.lattices["trivial"], b.lattices["regular"]
    so.stable_hom(A, s, U, V)
    assert hom_lattice(A, U, V) is hom_lattice(A, U, V)  # reused, not rebuilt
    order_ref, lattice_ref = weakref.ref(A), weakref.ref(U)
    del b, A, s, U, V
    gc.collect()
    assert order_ref() is None and lattice_ref() is None


def test_kept_lattice_data_dies_with_its_lattice(tmp_path):
    path = tmp_path / "s3.json"
    so.save_bundle(s3_fixture_bundle(3), path)
    b = so.load_bundle(path)
    A, s, U = b.order, b.forms["standard"], b.lattices["trivial"]
    S = so.stable_hom(A, s, U, U)
    analysis = so.residue_endo_analysis(A, U)
    assert so.stable_hom(A, s, U, U) is S  # reused, not rebuilt
    assert so.residue_endo_analysis(A, U) is analysis
    refs = [weakref.ref(x) for x in (S, analysis, U)]
    del b, A, s, U, S, analysis
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_check_all_builds_each_stable_hom_and_radical_once(monkeypatch):
    b = s3_fixture_bundle(3)
    built, analysed, radicals = [], [], []
    build, analyse, radical = (lattices._stable_hom, lattices._residue_endo_analysis,
                               modp.FpAlgebra.radical)

    def counting_build(A, s, U, V):
        built.append((id(U), id(V)))
        return build(A, s, U, V)

    def counting_radical(alg):
        radicals.append(alg)
        return radical(alg)

    monkeypatch.setattr(lattices, "_stable_hom", counting_build)
    monkeypatch.setattr(lattices, "_residue_endo_analysis",
                        lambda A, U: analysed.append(id(U)) or analyse(A, U))
    monkeypatch.setattr(modp.FpAlgebra, "radical", counting_radical)
    assert cli.run("all", b).ok
    items = b.lattices.values()
    # one build per ordered lattice pair and one analysis per lattice; the
    # End of the trivial and the sign lattice has rank one and needs no
    # radical, so only the regular lattice's is computed
    assert sorted(built) == sorted((id(U), id(V)) for U in items for V in items)
    assert len(built) == 9 and sorted(analysed) == sorted(map(id, items))
    assert len(radicals) == 1 and radicals[0].dim == 6


def test_check_all_builds_each_twisted_action_once(monkeypatch):
    # act_U(z^{-1}) is kept on U per form: one build per lattice for the
    # primary form, however many twisted traces read it
    b = s3_fixture_bundle(3)
    built = []
    exact = lattices.casimir_inverse
    monkeypatch.setattr(lattices, "casimir_inverse", lambda A, s: built.append(s) or exact(A, s))
    assert cli.run("all", b).ok
    assert len(built) == len(b.lattices) == 3
    assert all(s is b.forms["standard"] for s in built)


def test_projective_homs_trivial_lattice(s3, s3_lattices):
    # oracle: the relative trace of the 1x1 identity on the trivial module
    # is sum over the group of 1, namely 6 = unit * 3
    A, s = s3
    T = s3_lattices["trivial"]
    tr, q = lattices._relative_trace_map(A, s, T, T)
    assert Fraction(tr[0, 0], q) == 6
    P = projective_hom_lattice(A, s, T, T)
    assert P.rank == 1
    N, d = P.integer_basis
    assert val(Fraction(N[0, 0, 0], d), 3) == 1  # Hom^pr = 3 * End


def test_projective_homs_regular_lattice(s3, s3_lattices):
    A, s = s3
    R = s3_lattices["regular"]
    H = hom_lattice(A, R, R)
    P = projective_hom_lattice(A, s, R, R)
    assert H.rank == P.rank == 6
    # projective lattice: every intertwiner is relatively projective
    assert P._coords(*_columns(H)) is not None


def test_hom_pr_contained_always(s3, s3_lattices):
    A, s = s3
    for U in s3_lattices.values():
        for V in s3_lattices.values():
            H = hom_lattice(A, U, V)
            P = projective_hom_lattice(A, s, U, V)
            assert H._coords(*_columns(P)) is not None


def test_stable_hom_examples(s3, s3_lattices, rank2_family):
    A, s = s3
    S = so.stable_hom(A, s, s3_lattices["trivial"], s3_lattices["trivial"])
    assert S.exponents == (1,)
    S = so.stable_hom(A, s, s3_lattices["regular"], s3_lattices["regular"])
    assert S.exponents == ()
    for (m, p), (R, sr, U) in rank2_family.items():
        S = so.stable_hom(R, sr, U, U)
        assert S.exponents == (m,)


def test_exponent_and_projectivity(s3, s3_lattices, rank2_family):
    A, s = s3
    assert so.exponent(A, s, s3_lattices["trivial"]) == 1
    assert so.exponent(A, s, s3_lattices["regular"]) == 0
    for (m, p), (R, sr, U) in rank2_family.items():
        assert so.exponent(R, sr, U) == m


def test_tate_pair_value(s3, s3_lattices):
    A, s = s3
    T = s3_lattices["trivial"]
    one = [[Fraction(1)]]
    assert so.tate_pair(A, s, T, T, one, one) == Fraction(2, 3)
    # projective class pairs to zero: use 3*id which lies in Hom^pr
    assert so.tate_pair(A, s, T, T, [[Fraction(3)]], one) == 0


WIDE_PRIME = 1180591620717411303449  # the least prime above 2^70


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, WIDE_PRIME]), st.integers(1, 2), st.data())
def test_tate_pair_is_the_residue_of_the_trace(p, m, data):
    # arbitrary (not intertwining) matrices whose entries have powers of p
    # in their denominators, against tr(z^{-1} beta alpha) formed in Fractions
    A, s = rank2_order(m, p)
    choices = [rank2_projection_lattice(A), so.regular_lattice(A)]
    U, V = data.draw(st.sampled_from(choices)), data.draw(st.sampled_from(choices))
    entry = st.builds(lambda a, b, e: Fraction(a, b) * Fraction(p) ** e,
                      st.integers(-9, 9), st.integers(1, 12), st.integers(-2, 1))

    def matrix(rows, cols):
        return linalg.as_matrix([[data.draw(entry) for _ in range(cols)] for _ in range(rows)])

    alpha, beta = matrix(V.rank, U.rank), matrix(U.rank, V.rank)
    value = trace(fraction_lattices.twisted_action(A, s, U) @ beta @ alpha)
    assert _is_residue_of(so.tate_pair(A, s, U, V, alpha, beta), value, p)


def test_tate_duality_reports(s3, s3_lattices, rank2_family):
    A, s = s3
    names = ["trivial", "sign", "regular"]
    for u in names:
        for v in names:
            rep = so.verify_tate_duality(A, s, s3_lattices[u], s3_lattices[v])
            assert [f.name for f in dataclasses.fields(rep)] == ["exponents_uv", "pairing"]
            assert rep.exponents_uv == so.stable_hom(A, s, s3_lattices[v], s3_lattices[u]).exponents
    rep = so.verify_tate_duality(
        A, s, s3_lattices["trivial"], s3_lattices["trivial"]
    )
    assert rep.exponents_uv == (1,)
    assert rep.pairing == ((Fraction(2, 3),),)
    for (m, p), (R, sr, U) in rank2_family.items():
        rep = so.verify_tate_duality(R, sr, U, U)
        assert rep.exponents_uv == (m,)


def test_adjunction_identities_random(s3, s3_lattices, rank2_family):
    A, s = s3
    rng = random.Random(23)
    cases = [
        (A, s, s3_lattices["trivial"], s3_lattices["trivial"]),
        (A, s, s3_lattices["trivial"], s3_lattices["regular"]),
    ]
    R, sr, U = rank2_family[(2, 2)]
    cases.append((R, sr, U, U))
    for B, f, X, Y in cases:
        H = hom_lattice(B, Y, X)
        for _ in range(100):
            alpha = linalg.as_matrix(
                [
                    [Fraction(rng.randint(-5, 5)) for _ in range(X.rank)]
                    for _ in range(Y.rank)
                ]
            )
            if H.rank:
                coords = [Fraction(rng.randint(-3, 3)) for _ in range(H.rank)]
                beta = np.tensordot(coords, linalg.from_numerators(*H.integer_basis), 1)
            else:
                beta = linalg.zeros(X.rank, Y.rank)
            assert so.adjunction_check(B, f, X, Y, alpha, beta)
        G = hom_lattice(B, X, Y)
        for _ in range(20):
            delta = linalg.as_matrix(
                [
                    [Fraction(rng.randint(-5, 5)) for _ in range(Y.rank)]
                    for _ in range(X.rank)
                ]
            )
            if G.rank:
                coords = [Fraction(rng.randint(-3, 3)) for _ in range(G.rank)]
                gamma = np.tensordot(coords, linalg.from_numerators(*G.integer_basis), 1)
            else:
                gamma = linalg.zeros(Y.rank, X.rank)
            assert so.adjunction_check(B, f, Y, X, delta, gamma)


def test_residue_endo_analysis(s3, s3_lattices):
    A, _ = s3
    an = so.residue_endo_analysis(A, s3_lattices["trivial"])
    assert an.dimension == 1 and an.split_local
    assert an.radical_basis.shape[0] == 0

    TT = so.direct_sum(s3_lattices["trivial"], s3_lattices["trivial"])
    an = so.residue_endo_analysis(A, TT)
    assert an.dimension == 4 and not an.split_local  # 2x2 matrix residue algebra

    TS = so.direct_sum(s3_lattices["trivial"], s3_lattices["sign"])
    an = so.residue_endo_analysis(A, TS)
    assert an.dimension == 2 and an.quotient_dim == 2 and not an.split_local

    R = s3_lattices["regular"]
    an = so.residue_endo_analysis(A, R)
    assert an.dimension == 6
    assert an.radical_basis.shape[0] == 4 and an.quotient_dim == 2

    # rank 9, past the old bound: R is the sum of the projective covers of
    # the two simples, so R + T has three non-isomorphic summands
    an = so.residue_endo_analysis(A, so.direct_sum(R, s3_lattices["trivial"]))
    assert an.dimension == 9 and an.quotient_dim == 3


def test_residue_algebra_certifies_the_hom_basis(s3, s3_lattices):
    # End(T + T) = M_2(O) at p = 3, on forged bases of matrix units E_ij
    A, _ = s3
    TT = so.direct_sum(s3_lattices["trivial"], s3_lattices["trivial"])

    def unit(i, j):
        E = linalg.zeros(2, 2)
        E[i, j] = Fraction(1)
        return E

    I = linalg.identity(2)
    for basis, message in [((I, I), "not linearly independent"),
                           ((unit(0, 1), unit(1, 0)), "not multiplicatively closed"),
                           ((I, unit(0, 0) / 3), "not multiplicatively closed"),
                           ((3 * unit(0, 0),), "identity not in the hom lattice"),
                           ((3 * I,), "identity not in the hom lattice")]:
        with pytest.raises(AssertionError, match=message):
            lattices._residue_algebra(A, HomLattice(TT, TT, linalg.numerators(np.array(basis))))
    # a basis over the unit denominator 2 passes all three: (E_00 / 2)^2 = (E_00 / 2) / 2
    basis = np.array([I, unit(0, 0) / 2])
    alg = lattices._residue_algebra(A, HomLattice(TT, TT, linalg.numerators(basis)))
    assert alg.table.tolist() == [[[1, 0], [0, 1]], [[0, 1], [0, 2]]]
    assert alg.one.tolist() == [1, 0]


def test_knorr_checks(s3, s3_lattices, rank2_family):
    A, _ = s3
    assert so.knorr_check(A, s3_lattices["trivial"]).verdict
    assert so.knorr_check(A, s3_lattices["sign"]).verdict
    v = so.knorr_check(A, s3_lattices["regular"])
    assert not v.verdict and "split local" in v.failure

    TT = so.direct_sum(s3_lattices["trivial"], s3_lattices["trivial"])
    assert not so.knorr_check(A, TT).verdict

    for (m, p), (R, sr, U) in rank2_family.items():
        assert so.knorr_check(R, U).verdict  # rank 1

    # the regular rank-2 lattice is not a Knorr lattice: the trace of the
    # depth generator achieves the rank valuation without being a unit
    R, sr, _ = rank2_family[(1, 2)]
    RR = so.regular_lattice(R)
    v = so.knorr_check(R, RR)
    assert not v.verdict


def test_stable_exponent_checks(s3, s3_lattices, rank2_family):
    A, s = s3
    assert so.stable_exponent_check(A, s, s3_lattices["trivial"]).verdict
    assert so.stable_exponent_check(A, s, s3_lattices["sign"]).verdict
    TT = so.direct_sum(s3_lattices["trivial"], s3_lattices["trivial"])
    assert not so.stable_exponent_check(A, s, TT).verdict
    for (m, p), (R, sr, U) in rank2_family.items():
        assert so.stable_exponent_check(R, sr, U).verdict
    with pytest.raises(ValueError, match="projective"):
        so.stable_exponent_check(A, s, s3_lattices["regular"])


def test_stable_socle_oracle_direct(s3, s3_lattices):
    A, s = s3
    assert so.stable_socle_property(A, s, s3_lattices["trivial"])
    TT = so.direct_sum(s3_lattices["trivial"], s3_lattices["trivial"])
    # the 2x2 matrix ring over O/3 has zero radical, so its socle is
    # everything = p^0 * ring, and only absolute indecomposability fails
    assert so.stable_socle_property(A, s, TT)


def test_constant_value(s3, s3_lattices, rank2_family, m2_at_2):
    A, s = s3
    for name in ("trivial", "sign", "regular"):
        assert so.constant_value_check(A, s, s3_lattices[name])
    for (m, p), (R, sr, U) in rank2_family.items():
        assert so.constant_value_check(R, sr, U)
    M, sm, col = m2_at_2
    assert so.constant_value_check(M, sm, col)


def test_constant_value_random_instances(s3, s3_lattices):
    # the twisted trace of any endomorphism has valuation >= -a(U), with
    # equality attained on the lattice
    A, s = s3
    rng = random.Random(31)
    z = so.casimir(A, s)
    zinv = A.invert(z)
    for name in ("trivial", "sign", "regular"):
        U = s3_lattices[name]
        S = so.stable_hom(A, s, U, U)
        a = S.exponent
        zu = linalg.from_numerators(*U.integer_act(zinv))
        basis = linalg.from_numerators(*S.hom.integer_basis)
        for _ in range(100):
            coords = [Fraction(rng.randint(-4, 4)) for _ in range(S.hom.rank)]
            alpha = np.tensordot(coords, basis, 1)
            assert val(trace(zu @ alpha), A.prime) >= -a


def test_knorr_projective(m2_at_2):
    M, sm, col = m2_at_2
    assert so.exponent(M, sm, col) == 0
    assert so.knorr_check(M, col).verdict
    assert so.knorr_projective_check(M, col)
    # 1009^2 residue vectors, beyond what spinning could visit
    M, sm = matrix_order(2, 1009)
    col = matrix_column_lattice(M, 2)
    assert so.exponent(M, sm, col) == 0
    assert so.knorr_check(M, col).verdict
    assert so.knorr_projective_check(M, col)


def test_knorr_projective_rank1():
    A, s = matrix_order(1, 3)
    col = matrix_column_lattice(A, 1)
    assert so.knorr_projective_check(A, col)


def test_knorr_exponent_equivalence(s3, s3_lattices, rank2_family):
    A, s = s3
    cert = so.psp_direct(A, s)
    for name in ("trivial", "sign"):
        rep = so.knorr_exponent_equivalence(
            A, s, s3_lattices[name], psp_certificate=cert
        )
        assert rep.consistent and rep.knorr and rep.stable_exponent
    TT = so.direct_sum(s3_lattices["trivial"], s3_lattices["trivial"])
    rep = so.knorr_exponent_equivalence(A, s, TT, psp_certificate=cert)
    assert rep.consistent and not rep.knorr and not rep.stable_exponent

    # non-scalar order: only the general biconditional is asserted
    R, sr, U = rank2_family[(2, 2)]
    rep = so.knorr_exponent_equivalence(R, sr, U)
    assert rep.consistent and rep.stable_exponent_witness_form is None


def test_twisting_invariance(s3, s3_lattices):
    # exponents and both verdicts are unchanged under form twists
    A, s = s3
    Z = A.integer_centre[0][0]
    rng = random.Random(43)
    units = []
    while len(units) < 3:
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(Z.shape[1])]
        z = Z @ linalg.as_vector(coords)
        if A.has_ring_coords(z) and is_unit(A, z):
            units.append(z)
    for z in units:
        twisted = so.twist_form(A, s, z)
        for name in ("trivial", "sign"):
            U = s3_lattices[name]
            assert so.exponent(A, twisted, U) == so.exponent(A, s, U)
            assert (
                so.stable_exponent_check(A, twisted, U).verdict
                == so.stable_exponent_check(A, s, U).verdict
            )
        assert so.exponent(A, twisted, s3_lattices["regular"]) == 0


def test_duality_error_on_mismatch(s3, s3_lattices, monkeypatch):
    # force mismatched invariant factors on the two sides of the pairing
    A, s = s3
    T = s3_lattices["trivial"]
    real = so.stable_hom
    calls = {"n": 0}

    class Empty:
        exponents = ()
        generators = ()

        def element_count(self):
            return 1

    def broken(Ao, form, U, V):
        calls["n"] += 1
        return Empty() if calls["n"] == 2 else real(Ao, form, U, V)

    monkeypatch.setattr("symorders.lattices.stable_hom", broken)
    with pytest.raises(TateDualityError, match="pairing degenerate"):
        so.verify_tate_duality(A, s, T, T)


# -- the integer Hom layer against the Fraction versions ----------------------


LOCAL_PRIMES = (2, 3, 5, 4294967311)


@st.composite
def conjugated_actions(draw):
    """(A, s, X, Y): an order with a symmetrising form and the action
    matrices of two lattices over it, builder lattices or direct sums of
    two, each conjugated by a diagonal matrix of units so that its entries
    have denominators."""
    p = draw(st.sampled_from(LOCAL_PRIMES))
    kind = draw(st.sampled_from(["group", "rank2", "matrix"]))
    if kind == "group":
        A, s = group_algebra(draw(st.sampled_from(GROUP_TABLES)), p)
        choices = [so.regular_lattice(A), so.make_lattice(A, [[[1]]] * A.dim)]
    elif kind == "rank2":
        A, s = rank2_order(draw(st.integers(1, 2)), p)
        choices = [rank2_projection_lattice(A), so.regular_lattice(A)]
    else:
        A, s = matrix_order(2, p)
        choices = [matrix_column_lattice(A, 2), so.regular_lattice(A)]
    choices += [so.direct_sum(U, V) for U in choices for V in choices
                if U.rank + V.rank <= 4]
    units = st.sampled_from([d for d in (1, 2, 3, 5, 7, 11) if d % p])

    def conjugate(U):
        d = [draw(units) for _ in range(U.rank)]
        return [[[m[a, b] * Fraction(d[b], d[a]) for b in range(U.rank)]
                 for a in range(U.rank)] for m in fraction_lattices.action(U)]

    return A, s, conjugate(draw(st.sampled_from(choices))), conjugate(
        draw(st.sampled_from(choices)))


def conjugated_lattices():
    """(A, s, U, V): the lattices of :func:`conjugated_actions`."""
    return conjugated_actions().map(
        lambda case: (*case[:2], so.make_lattice(case[0], case[2]),
                      so.make_lattice(case[0], case[3])))


def _identical(a, b) -> bool:
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    return a.shape == b.shape and all(
        type(x) is Fraction and x == y for x, y in zip(a.flat, b.flat))


def _is_residue_of(r, x, p) -> bool:
    """Whether r is the representative of the rational x modulo the ring:
    a Fraction in [0, 1) whose denominator is a power of p, differing from
    x by a ring element.  Two such differ by an integer in (-1, 1), so
    there is exactly one, and it is 0 exactly when x lies in the ring."""
    return (type(r) is Fraction and 0 <= r < 1 and r.denominator == p ** int_val(r.denominator, p)
            and val(x - r, p) >= 0)


def _same_basis(ours, theirs) -> bool:
    return len(ours) == len(theirs) and all(map(_identical, ours, theirs))


def _columns(H) -> tuple:
    """The integer basis of a Hom lattice as columns, each intertwiner
    flattened row by row, over its one denominator."""
    N, d = H.integer_basis
    return N.reshape(H.rank, H.target.rank * H.source.rank).T, d


@settings(max_examples=40, deadline=None)
@given(conjugated_actions())
def test_integer_action_equals_the_numerators_of_the_action(case):
    A, _, X, _ = case
    p = A.prime
    U = so.make_lattice(A, X)
    N, q = U.integer_action
    assert "integer_action" in {f.name for f in dataclasses.fields(U)}
    assert not hasattr(U, "action")  # the integer action is the one representation
    assert N.shape == (A.dim, U.rank, U.rank) and all(type(x) is int for x in N.flat)
    assert q % p and q == math.lcm(*(linalg.numerators(m)[1] for m in X))
    for n, m in zip(N, X):
        Nm, d = linalg.numerators(m)
        assert (n * d == Nm * q).all()
        # the action mod p that knorr_projective_check reads
        assert residues_over(n.flat, q, p) == [residue_int(x, p, 1) for row in m for x in row]


def _assert_stable_layer_equals_the_fraction_version(A, s, U, V, coeffs):
    """The stable Homs both ways, the classes of the hom basis, of the
    generators and of the combination of the hom basis by coeffs, the
    pairing, and the plain and twisted traces on End(U) with the
    valuations the trace criteria read, against the Fraction versions."""
    p = A.prime
    zu = fraction_lattices.twisted_action(A, s, U)
    S_uv, S_vu = so.stable_hom(A, s, U, V), so.stable_hom(A, s, V, U)
    theirs_uv = fraction_lattices.StableHom(A, s, U, V)
    theirs_vu = fraction_lattices.StableHom(A, s, V, U)
    for ours, theirs in ((S_uv, theirs_uv), (S_vu, theirs_vu)):
        assert ours.exponents == theirs.exponents
        assert _same_basis(linalg.from_numerators(*ours.integer_generators), theirs.generators)
    H = S_uv.hom
    basis = linalg.from_numerators(*H.integer_basis)
    mats = [*basis, *linalg.from_numerators(*S_uv.integer_generators),
            np.tensordot(np.array(coeffs, dtype=object), basis, 1)]
    assert S_uv._classes(*linalg.numerators(fraction_lattices.flat(mats))) == [
        theirs_uv.class_of(M) for M in mats]
    Z, z = lattices._twisted_action(A, s, U)
    (G, g), (Gvu, h) = S_uv.integer_generators, S_vu.integer_generators
    values = fraction_lattices.pairing_values(A, s, U, theirs_uv, theirs_vu)
    assert _identical(linalg.from_numerators(lattices._pairings(Z, G, Gvu), z * g * h), values)
    pairing = so.verify_tate_duality(A, s, U, V).pairing
    assert [len(row) for row in pairing] == [len(row) for row in values]
    assert all(_is_residue_of(r, x, p) for row, xs in zip(pairing, values) for r, x in zip(row, xs))
    # plain and twisted traces on End(U), and the valuations the criteria read
    E = hom_lattice(A, U, U)
    E_basis = linalg.from_numerators(*E.integer_basis)
    analysis = so.residue_endo_analysis(A, U)
    lifts = [sum((int(c) * M for c, M in zip(row, E_basis)), linalg.zeros(U.rank, U.rank))
             for row in analysis.radical_basis]
    plain, twisted = fraction_lattices.basis_traces(A, s, U, E_basis)
    one = linalg.identity(U.rank)
    for (W, w), verdict, theirs, X in (
            ((np.identity(U.rank, dtype=object), 1), so.knorr_check(A, U), plain, one),
            ((Z.T, z), lattices._trace_criterion(A, analysis, Z.T, z), twisted, zu)):
        assert _identical(linalg.from_numerators(*lattices._traces(E, W, w)), theirs)
        assert verdict.reference_valuation == val(trace(X), p)
        assert verdict.basis_valuations == tuple(val(x, p) for x in theirs)
        if verdict.radical_valuations:
            assert verdict.radical_valuations == tuple(val(trace(X @ L), p) for L in lifts)


@settings(max_examples=60, deadline=None)
@given(conjugated_lattices(), st.data())
def test_hom_layer_equals_the_fraction_version(case, data):
    A, s, U, V = case
    p = A.prime
    assert _same_basis(linalg.from_numerators(*lattices._hom_lattice(A, U, V).integer_basis),
                       fraction_lattices.hom_basis(A, U, V))
    G = fraction_lattices.relative_trace_generators(A, s, U, V)
    T, q = lattices._relative_trace_map(A, s, U, V)
    assert _identical(linalg.from_numerators(T, q), G)
    basis = fraction_linalg.lattice_basis_from_generators(G, p)
    assert _same_basis(linalg.from_numerators(*projective_hom_lattice(A, s, U, V).integer_basis),
                       [np.array(basis[:, j]).reshape(V.rank, U.rank)
                        for j in range(basis.shape[1])])
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))

    def matrix(m, n):
        return linalg.as_matrix(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                                   min_size=m, max_size=m)))

    alpha = matrix(V.rank, U.rank)
    na, da = linalg.numerators(alpha)  # the relative trace of alpha, column T vec(alpha) / q
    traced = linalg.from_numerators(T.dot(na.reshape(-1)).reshape(V.rank, U.rank), q * da)
    assert _identical(traced, fraction_lattices.relative_trace_hom(A, s, U, V, alpha))
    # the pairing against the product formed in full, on arbitrary (not
    # intertwining) matrices
    zu = fraction_lattices.twisted_action(A, s, U)
    beta = matrix(U.rank, V.rank)
    assert _is_residue_of(so.tate_pair(A, s, U, V, alpha, beta), trace(zu @ beta @ alpha), p)
    assert so.adjunction_check(A, s, U, V, alpha, beta) == (
        trace(zu @ beta @ traced) == trace(beta @ alpha))
    H = hom_lattice(A, U, V)
    _assert_stable_layer_equals_the_fraction_version(
        A, s, U, V, data.draw(st.lists(st.integers(-20, 20), min_size=H.rank, max_size=H.rank)))
    E = hom_lattice(A, U, U)
    E_basis = linalg.from_numerators(*E.integer_basis)
    # End(U) on its saturated integer basis, and on that basis divided by units
    units = st.sampled_from([d for d in (1, 2, 3, 5, 7, 11) if d % p])
    scaled = HomLattice(U, U, linalg.numerators(
        np.array([M * Fraction(1, data.draw(units)) for M in E_basis])))
    for F in (E, scaled):
        table, one = fraction_lattices.residue_algebra(A, F)
        ours = lattices._residue_algebra(A, F)
        assert np.array_equal(ours.table, table) and np.array_equal(ours.one, one)
    # coordinates in the basis over a unit denominator d != 1
    assert _identical(linalg.from_numerators(*scaled._coords(*_columns(E))),
                      fraction_linalg.solve_exact(
                          fraction_lattices.flat(linalg.from_numerators(*scaled.integer_basis)),
                          fraction_lattices.flat(E_basis)))


def test_stable_layer_of_a_doubled_lattice_equals_the_fraction_version():
    # stable Homs with two and four generators, on a dense basis with unit
    # denominators: the bundle of the golden report rank2-m2-p2-doubled
    b = so.load_bundle(Path(__file__).resolve().parent / "data"
                       / "rank2-m2-p2-doubled.bundle.json")
    A, s = b.order, b.forms["standard"]
    for U in b.lattices.values():
        for V in b.lattices.values():
            rank = hom_lattice(A, U, V).rank
            _assert_stable_layer_equals_the_fraction_version(
                A, s, U, V, [(-1) ** k * (k + 2) for k in range(rank)])
    doubled = b.lattices["projection2"]
    assert len(so.stable_hom(A, s, doubled, doubled).exponents) == 4



@pytest.mark.parametrize("n, p", [(4, 2), (9, 3)])
def test_trace_criteria_on_a_cyclic_p_group_equal_the_fraction_version(n, p):
    # End of the regular lattice is local with a nonzero radical, so both
    # criteria read radical lifts
    A, s = group_algebra(cyclic_group_table(n)[0], p)
    R, T = so.regular_lattice(A), so.make_lattice(A, [[[1]]] * n)
    assert so.knorr_check(A, R).radical_valuations
    for U, V in [(R, T), (T, R), (T, T)]:
        _assert_stable_layer_equals_the_fraction_version(A, s, U, V, [1] * hom_lattice(A, U, V).rank)


# -- free lattices in closed form against the Smith path ----------------------


def _moved(A, s, lattice_list, P):
    """The order, the form and the lattices on the basis given by the
    columns of P: b'_i = sum_k P[k, i] b_k acts as sum_k P[k, i] act(b_k)."""
    B = dense_order(*rebase(cube(A), A.one, P), A.prime)
    moved = [so.make_lattice(B, [sum((P[k, i] * m for k, m in enumerate(
        fraction_lattices.action(U))), linalg.zeros(U.rank, U.rank)) for i in range(A.dim)])
        for U in lattice_list]
    return B, so.LinearForm(P.T @ s.values), moved


def _fresh(U):
    """U as a new object, with nothing kept on it."""
    return lattices.Lattice(order=U.order, rank=U.rank, integer_action=U.integer_action)


def _results(A, s, U, V) -> list:
    """Everything the reports read of the pair: the stable Homs and the
    Tate report both ways, and the Knorr, stable-exponent and
    constant-value verdicts on each lattice, with the basis-independent
    parts of the trace criteria."""
    out = []
    for X, Y in ((U, V), (V, U)):
        rep = so.verify_tate_duality(A, s, X, Y)
        out.append((rep.exponents_uv, rep.pairing))
    for W in (U, V):
        knorr = so.knorr_check(A, W)
        a = so.exponent(A, s, W)
        out.append((knorr.verdict, knorr.failure, knorr.reference_valuation,
                    min(knorr.basis_valuations), knorr.split_local, a,
                    bool(so.stable_exponent_check(A, s, W)) if a else None,
                    so.constant_value_check(A, s, W)))
    return out


def _assert_closed_forms_equal_the_smith_path(A, s, U, V):
    """The Homs of the pairs of U and V span the lattices of the Smith
    kernel (ring coordinates both ways), Higman's certificate holds on
    every free lattice, and the stable Homs, the Tate reports and the
    trace verdicts equal those of fresh copies of U and V on which no
    generator is found and no Hom has low rank, so that everything takes
    the Smith path and the radical.  A pair with a free argument or a Hom
    of rank at most one reaches no Smith form of its relative traces."""
    free = {id(W): lattices.free_generator(A, W) is not None for W in (U, V)}
    assert all(lattices._higman(A, s, W) == free[id(W)] for W in (U, V))
    low = {}
    for X, Y in ((U, V), (V, U), (U, U), (V, V)):
        ours, theirs = hom_lattice(A, X, Y), lattices._hom_lattice(A, X, Y)
        assert ours.rank == theirs.rank
        assert ours._coords(*_columns(theirs)) is not None
        assert theirs._coords(*_columns(ours)) is not None
        low[id(X), id(Y)] = ours.rank <= 1
    with mock.patch.object(lattices, "_projective_hom", wraps=lattices._projective_hom) as spy:
        ours = _results(A, s, U, V)
    reached = {(id(X), id(Y)) for (_, _, X, Y), _ in spy.call_args_list}
    assert reached == {(x, y) for (x, y), rank_one in low.items()
                       if not (free[x] or free[y] or rank_one)}
    U2, V2 = _fresh(U), _fresh(V)
    with mock.patch.object(lattices, "free_generator", lambda A, U: None), \
            mock.patch.object(lattices, "_low_rank", lambda H: False):
        theirs = _results(A, s, U2, V2)
    assert ours == theirs


def _new_basis(draw, n, p) -> tuple:
    """(kind, P): the own basis, a permutation of it or a dense change of
    basis over the ring, as the columns of P."""
    basis = draw(st.sampled_from(["own", "permuted", "dense"]))
    if basis == "permuted":
        P = linalg.zeros(n, n)
        for i, k in enumerate(draw(st.permutations(range(n)))):
            P[k, i] = Fraction(1)
    else:
        P = draw(unimodular(n, p)) if basis == "dense" else linalg.identity(n)
    return basis, P


def _conjugated(draw, U):
    """U conjugated by a diagonal matrix of units at p."""
    A = U.order
    d = [draw(st.sampled_from([d for d in (1, 2, 3, 5, 7, 11) if d % A.prime]))
         for _ in range(U.rank)]
    return so.make_lattice(A, [[[m[a, b] * Fraction(d[b], d[a]) for b in range(U.rank)]
                                for a in range(U.rank)]
                               for m in fraction_lattices.action(U)])


@st.composite
def free_cases(draw):
    """(on_group, A, s, U, V): a group algebra, a rank-2 order or M2 on its own
    basis, on permuted elements or on a dense basis, with its regular
    lattice (on the old basis of A or on the new one) and a second
    lattice (regular, a builder lattice, or for the rank-2 orders
    projection + projection), each conjugated by a diagonal matrix of
    units.  on_group tells that the lattice basis of U is the group."""
    p = draw(st.sampled_from(LOCAL_PRIMES))
    kind = draw(st.sampled_from(["group", "rank2", "matrix"]))
    if kind == "group":
        A, s = group_algebra(draw(st.sampled_from(GROUP_TABLES)), p)
        small = so.make_lattice(A, [[[1]]] * A.dim)
    elif kind == "rank2":
        A, s = rank2_order(draw(st.integers(1, 2)), p)
        small = rank2_projection_lattice(A)
        small = so.direct_sum(small, small) if draw(st.booleans()) else small
    else:
        A, s = matrix_order(2, p)
        small = matrix_column_lattice(A, 2)
    R = so.regular_lattice(A)
    basis, P = _new_basis(draw, A.dim, p)
    A, s, (R, small) = _moved(A, s, [R, small], P)
    new = draw(st.booleans())
    if new:
        R = so.regular_lattice(A)  # on the new basis of A, not the old one
    on_group = kind == "group" and not (new and basis == "dense")
    return on_group, A, s, _conjugated(draw, R), _conjugated(
        draw, draw(st.sampled_from([R, small])))


@settings(max_examples=60, deadline=None)
@given(free_cases())
def test_free_lattices_in_closed_form_equal_the_smith_path(case):
    on_group, A, s, U, V = case
    if on_group:
        # the group elements are units, so each of them generates the
        # regular lattice
        assert lattices.free_generator(A, U)[0] == 0
    _assert_closed_forms_equal_the_smith_path(A, s, U, V)


def _c2_on_idempotents(p):
    """The regular lattice of the group algebra of C2 at an odd p on the
    basis of the idempotents (1 +- g) / 2: free, with no basis vector
    generating it."""
    A, s = group_algebra(cyclic_group_table(2)[0], p)
    half = Fraction(1, 2)
    P = linalg.as_matrix([[half, half], [half, -half]])
    R = so.regular_lattice(A)
    action = [linalg.inverse(P) @ m @ P for m in fraction_lattices.action(R)]
    return A, s, so.make_lattice(A, action)


def _trivial_s3():
    """A lattice of rank 1 < dim = 6."""
    A, s = group_algebra(symmetric_group_table(3)[0], 3)
    return A, s, so.make_lattice(A, [[[1]]] * A.dim)


def _projection_doubled():
    """projection + projection over a rank-2 order: rank = dim = 2, not free."""
    A, s = rank2_order(2, 2)
    U = rank2_projection_lattice(A)
    return A, s, so.direct_sum(U, U)


def _m2_regular():
    """The regular lattice of M2 on the elementary matrices, none of which
    is a unit."""
    A, s = matrix_order(2, 3)
    return A, s, so.regular_lattice(A)


@pytest.mark.parametrize("build", [_trivial_s3, _projection_doubled, _m2_regular,
                                   lambda: _c2_on_idempotents(3)],
                         ids=["rank-below-dim", "projection-doubled", "m2-regular",
                              "c2-idempotents"])
def test_lattices_that_no_basis_vector_generates_take_the_smith_path(build):
    A, s, U = build()
    assert lattices.free_generator(A, U) is None and not lattices._higman(A, s, U)
    _assert_closed_forms_equal_the_smith_path(A, s, U, so.regular_lattice(A))


def test_the_closed_forms_reject_a_matrix_that_is_no_inverse_of_the_orbit_matrix():
    # M^{-1} + E_00 in place of M^{-1}: the maps W_v (M^{-1} + E_00) do not
    # intertwine, and u (s o (M^{-1} + E_00)) has relative trace other than 1
    A, s = group_algebra(symmetric_group_table(3)[0], 3)
    R = so.regular_lattice(A)
    k, (Y, y) = lattices.free_generator(A, R)
    wrong = Y.copy()
    wrong[0, 0] += y
    with mock.patch.object(lattices, "free_generator", lambda A, U: (k, (wrong, y))):
        with pytest.raises(AssertionError, match="closed-form hom does not intertwine"):
            hom_lattice(A, _fresh(R), R)
        with pytest.raises(AssertionError, match="Higman's certificate fails"):
            lattices._higman(A, s, _fresh(R))


# -- Homs of rank at most one in closed form against the Smith path ----------


def _alternating_group_table(n):
    _, _, elems = symmetric_group_table(n)
    even = [g for g in elems if sum(g[a] > g[b] for a in range(n) for b in range(a + 1, n)) % 2 == 0]
    index = {g: i for i, g in enumerate(even)}
    return [[index[tuple(g[h[k]] for k in range(n))] for h in even] for g in even]


A4_TABLE = _alternating_group_table(4)


@st.composite
def rank_one_cases(draw):
    """(A, s, U, V): a Hecke or rank-2 order, a cyclic group, S3 or A4, or
    M2, on its own basis, on permuted elements or on a dense basis, with a
    lattice U whose End has rank one (the Hecke lattices, the projection,
    the trivial and sign lattices, the column lattice) and a second
    lattice (one of those or, below A4, the regular one), each conjugated
    by a diagonal matrix of units."""
    p = draw(st.sampled_from(LOCAL_PRIMES))
    kind = draw(st.sampled_from(["hecke", "rank2", "cyclic", "s3", "a4", "matrix"]))
    if kind == "hecke":
        q = draw(st.sampled_from([q for q in (3, 5, 7, 9, 15, 17, 31) if q % p]))
        A, s = hecke_rank1(q, p)
        small = [so.make_lattice(A, [[[1]], [[1]]]), so.make_lattice(A, [[[1]], [[-q]]])]
    elif kind == "rank2":
        A, s = rank2_order(draw(st.integers(1, 2)), p)
        small = [rank2_projection_lattice(A)]
    elif kind == "matrix":
        A, s = matrix_order(2, p)
        small = [matrix_column_lattice(A, 2)]
    else:
        if kind == "cyclic":
            table = cyclic_group_table(draw(st.integers(2, 5)))[0]
        else:
            table = symmetric_group_table(3)[0] if kind == "s3" else A4_TABLE
        A, s = group_algebra(table, p)
        small = [so.make_lattice(A, [[[1]]] * A.dim)]
        if kind == "s3":
            small.append(so.make_lattice(A, [[[x]] for x in s3_characters()[2]]))  # the sign
    regular = [so.regular_lattice(A)] if kind != "a4" else []
    A, s, moved = _moved(A, s, small + regular, _new_basis(draw, A.dim, p)[1])
    return A, s, _conjugated(draw, draw(st.sampled_from(moved[:len(small)]))), _conjugated(
        draw, draw(st.sampled_from(moved)))


def _assert_rank_one_presentations_equal_the_smith_path(A, s, U, V):
    """On each pair of U and V whose Hom has rank at most one, the stable
    Hom (exponents, generators, left transform) and on each such End(U)
    the residue analysis equal those of the Smith path and the radical on
    fresh copies."""
    fresh = {id(W): _fresh(W) for W in (U, V)}
    for X, Y in ((U, V), (V, U), (U, U), (V, V)):
        if hom_lattice(A, X, Y).rank > 1:
            continue
        ours = so.stable_hom(A, s, X, Y)
        with mock.patch.object(lattices, "_low_rank", lambda H: False):
            theirs = so.stable_hom(A, s, fresh[id(X)], fresh[id(Y)])
        assert ours.exponents == theirs.exponents
        for (M, m), (N, n) in ((ours.integer_generators, theirs.integer_generators),
                               (ours._left, theirs._left)):
            assert M.shape == N.shape and m == n
            assert all(type(x) is int and x == y for x, y in zip(M.flat, N.flat))
    for W in (U, V):
        if hom_lattice(A, W, W).rank == 1:
            ours = so.residue_endo_analysis(A, W)
            with mock.patch.object(lattices, "_low_rank", lambda H: False):
                theirs = so.residue_endo_analysis(A, fresh[id(W)])
            assert (ours.dimension, ours.split_local, ours.quotient_dim) == (
                theirs.dimension, theirs.split_local, theirs.quotient_dim) == (1, True, 1)
            assert ours.radical_basis.shape == theirs.radical_basis.shape == (0, 1)


@settings(max_examples=60, deadline=None)
@given(rank_one_cases())
def test_homs_of_rank_at_most_one_in_closed_form_equal_the_smith_path(case):
    A, s, U, V = case
    assert hom_lattice(A, U, U).rank == 1
    _assert_rank_one_presentations_equal_the_smith_path(A, s, U, V)
    _assert_closed_forms_equal_the_smith_path(A, s, U, V)


def test_the_rank_one_closed_forms_reject_what_they_do_not_certify():
    # End of the M2 column lattice has rank one, and its relative traces are
    # 4 x 4: one of them moved off the line of the hom basis is caught
    A, s = matrix_order(2, 3)
    U = matrix_column_lattice(A, 2)
    exact = lattices._relative_trace_map

    def perturbed(*args):
        T, q = exact(*args)
        T = T.copy()
        T[0, 1] += 1
        return T, q

    with mock.patch.object(lattices, "_relative_trace_map", perturbed):
        with pytest.raises(AssertionError, match="not a multiple of the hom basis"):
            so.stable_hom(A, s, U, U)
    # a basis of End(U) that is 2 times the identity spans 2 End(U) at p = 2
    A, s = hecke_rank1(3, 2)
    T = so.make_lattice(A, [[[1]], [[1]]])
    doubled = HomLattice(T, T, (np.array([[[2]]], dtype=object), 1))
    with mock.patch.object(lattices, "hom_lattice", lambda *args: doubled):
        with pytest.raises(AssertionError, match="End\\(U\\) of rank one is not the ring"):
            so.residue_endo_analysis(A, T)


def test_tate_on_a_non_separable_order_raises_through_the_twisted_action():
    # O[x]/(x^2) with s(x) = 1: the Casimir element 2x is not invertible.
    # Stable Homs with the free regular lattice are zero by Higman's
    # criterion; the trivial lattice has a stable End with a free part,
    # which is reported as z not being invertible.  The pairing inverts z
    # before it reads the stable Homs, so it raises there on every pair
    A = so.make_order([(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0], 3)
    s = so.LinearForm([0, 1])
    R, T = so.regular_lattice(A), so.make_lattice(A, [[[1]], [[0]]])
    assert lattices._higman(A, s, R)
    for U, V in [(R, R), (R, T), (T, R)]:
        assert so.stable_hom(A, s, U, V).exponents == ()
    with pytest.raises(NotInvertibleError, match="not invertible in K⊗A"):
        so.stable_hom(A, s, T, T)
    for U, V in [(R, R), (R, T), (T, R), (T, T)]:
        with pytest.raises(NotInvertibleError):
            so.verify_tate_duality(A, s, U, V)
