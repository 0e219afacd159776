import ast
import fractions
import gc
import os
import random
import subprocess
import sys
import traceback
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symorders as so
from symorders import cli, forms, linalg
from symorders.builders import (
    four_dim_nonrational,
    group_algebra,
    hecke_rank1,
    matrix_order,
    rank2_embedding,
    rank2_order,
    s3_fixture_bundle,
)
from symorders.forms import (
    LinearForm,
    NotSymmetrisingError,
    RegularGramSingularError,
    gram_matrix,
)
from symorders.orders import NotInvertibleError, Order

import fraction_forms
import fraction_linalg
from dense_orders import cube, dense_order, is_unit
from test_orders import GROUP_TABLES, _scalars, rebase, unimodular

DATA = Path(__file__).resolve().parent / "data"


def test_is_symmetrising_examples(s3):
    A, s = s3
    assert so.is_symmetrising(A, s)
    rho = so.regular_character_form(A)
    assert not so.is_symmetrising(A, rho)  # Gram determinant valuation 6 > 0

    B, sb = four_dim_nonrational(3, 2)
    assert so.is_symmetrising(B, sb)


def test_dual_basis_rank2_split_coordinates():
    for m, p in [(1, 2), (2, 2), (1, 3)]:
        A, s = rank2_order(m, p)
        d = so.dual_basis(A, s)
        emb = rank2_embedding(m, p)
        pm = Fraction(p) ** m
        assert list(emb @ d.element(0)) == [-pm, Fraction(0)]
        assert list(emb @ d.element(1)) == [Fraction(1), Fraction(1)]


def test_dual_basis_group_inverse(s3):
    A, s = s3
    d = so.dual_basis(A, s)
    # dual of a group element is its inverse
    table, labels, _ = __import__(
        "symorders.builders", fromlist=["symmetric_group_table"]
    ).symmetric_group_table(3)
    for i in range(6):
        inv = next(j for j in range(6) if table[i][j] == 0)
        assert linalg.vectors_equal(d.element(i), A.basis_element(inv))


def test_dual_basis_matrix_order_trivial():
    A, s = matrix_order(1, 5)
    d = so.dual_basis(A, s)
    assert linalg.vectors_equal(d.element(0), A.one)


def _perturbed_inverse(monkeypatch):
    # _derive reads D = g N^{-1} off the eliminated rows [N | g 1]: row 0
    # ends as [e_0 | D_0] over dens[0], so this adds 1 to D[0, 0]
    exact = linalg.eliminate

    def perturbed(rows, dens, ncols):
        out = exact(rows, dens, ncols)
        rows[0][ncols] += dens[0]
        return out

    monkeypatch.setattr(linalg, "eliminate", perturbed)


def test_dual_basis_certificate_rejects_wrong_inverse(s3, monkeypatch):
    A, s = s3
    fresh = LinearForm(s.values)  # s itself may already carry its dual basis
    _perturbed_inverse(monkeypatch)
    with pytest.raises(AssertionError, match="dual basis fails"):
        so.dual_basis(A, fresh)


def test_dual_basis_certificate_survives_optimisation():
    # the certificates are explicit raises, not assert statements
    code = (
        "import pytest, symorders as so\n"
        "from symorders import linalg\n"
        "from symorders.builders import s3_group_algebra\n"
        "A, s = s3_group_algebra(3)\n"
        "exact = linalg.eliminate\n"
        "def perturbed(rows, dens, ncols):\n"
        "    out = exact(rows, dens, ncols)\n"
        "    rows[0][ncols] += dens[0]\n"
        "    return out\n"
        "linalg.eliminate = perturbed\n"
        "with pytest.raises(AssertionError, match='dual basis fails'):\n"
        "    so.dual_basis(A, s)\n"
        "linalg.eliminate = exact\n"
        "central = so.Order._central\n"
        "so.Order._central = lambda self, terms: False\n"
        "with pytest.raises(AssertionError, match='Casimir element not central'):\n"
        "    so.casimir(A, so.LinearForm(s.values))\n"
        "so.Order._central = central\n"
        # z^{-1} is derived apart from the dual basis, under its own certificate
        "f = so.LinearForm(s.values)\n"
        "so.casimir(A, f)\n"
        "linalg.eliminate = perturbed\n"
        "with pytest.raises(AssertionError, match='inverse fails b a = 1'):\n"
        "    so.casimir_inverse(A, f)\n"
        "linalg.eliminate = exact\n"
        "from symorders import lattices\n"
        "from symorders.builders import s3_fixture_bundle\n"
        "b = s3_fixture_bundle(3)\n"
        "lattices.stable_socle_property = lambda *args, **kwargs: False\n"
        "with pytest.raises(AssertionError, match='disagrees with the socle'):\n"
        "    so.stable_exponent_check(b.order, b.forms['standard'], b.lattices['trivial'])\n"
        "import numpy as np\n"
        "from symorders.modp import FpAlgebra\n"
        "FpAlgebra.is_nilpotent_subspace = lambda self, basis: False\n"
        "with pytest.raises(AssertionError, match='radical not nilpotent'):\n"
        "    FpAlgebra(2, 1, np.array([[[1]]]), np.array([1])).radical()\n"
        # reached only when -O has removed assert statements
        "assert False, 'asserts still run'\n"
    )
    src = str(Path(so.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and every certificate must run
    package = Path(so.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _linalg_reads(tree: ast.AST, scope: str = "") -> list:
    """(innermost function, name) for every read of linalg.<name> and
    every name imported from linalg."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _linalg_reads(node, node.name)
            continue
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "linalg"):
            found.append((scope, node.attr))
        if isinstance(node, ast.ImportFrom) and node.module == "linalg":
            found += [(scope, alias.name) for alias in node.names]
        found += _linalg_reads(node, scope)
    return found


def test_linalg_privates_stay_inside_and_no_other_module_eliminates():
    # every exact solve outside linalg is linalg.solve_of_rows, the residue
    # table of End(U) included: no module outside linalg eliminates, and
    # none reads a front-end on Fractions but the package, which re-exports
    # two of them
    package = Path(so.__file__).resolve().parent
    reads = {
        (path.stem, scope, attr)
        for path in sorted(package.glob("*.py")) if path.stem != "linalg"
        for scope, attr in _linalg_reads(ast.parse(path.read_text(), filename=str(path)))
    }
    assert [read for read in sorted(reads) if read[2].startswith("_")] == []
    assert {read for read in reads if read[2] == "eliminate"} == set()
    front_ends = {"solve_exact", "inverse", "det", "integral_kernel", "smith_normal_form"}
    assert {read for read in reads if read[2] in front_ends} == {
        ("__init__", "", "integral_kernel"), ("__init__", "", "smith_normal_form")}
    assert not hasattr(linalg, "rational_rank")


def test_only_box_and_homomorphism_searches_import_itertools_product():
    # residue fields are not enumerated, and the maximal ideals of the
    # rational centre are read off the central characters: the coefficient
    # boxes of decomp, within --bound, are the only searches over product
    # spaces
    package = Path(so.__file__).resolve().parent
    found = {
        path.stem
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.ImportFrom) and node.module == "itertools"
            and any(alias.name == "product" for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "product"
            and isinstance(node.value, ast.Name) and node.value.id == "itertools")
    }
    assert found <= {"decomp"}


def test_dual_basis_is_derived_once_and_reused(s3):
    A, s = s3
    fresh = LinearForm(s.values)
    assert so.dual_basis(A, fresh) is so.dual_basis(A, fresh)
    assert so.casimir(A, fresh) is so.casimir(A, fresh)
    assert so.casimir_inverse(A, fresh) is so.casimir_inverse(A, fresh)
    assert linalg.vectors_equal(so.casimir_inverse(A, fresh), A.scalar(Fraction(1, 6)))


def test_check_all_derives_each_form_once(monkeypatch):
    b = s3_fixture_bundle(3)
    derived = []
    searched = []
    derive, search = forms._derive, forms._psp_search

    def counting(A, s):
        derived.append((A, s))  # kept alive, so their ids stay distinct
        return derive(A, s)

    def counting_search(A, s):
        searched.append(s)
        return search(A, s)

    monkeypatch.setattr(forms, "_derive", counting)
    monkeypatch.setattr(forms, "_psp_search", counting_search)
    assert cli.run("all", b).ok
    pairs = [(id(A), id(s)) for A, s in derived]
    assert len(pairs) == len(set(pairs))
    # every bundle form is among them; the others are witness forms: the
    # psp witness p^-1 rho, which both psp algorithms read, and the Morita
    # and rational symmetry witnesses, each certified once
    assert {(id(b.order), id(s)) for s in b.forms.values()} <= set(pairs)
    assert len(pairs) == len(b.forms) + 3 == 4
    witness = forms.psp_direct(b.order, b.forms["standard"]).witness_form
    assert witness is forms.psp_regular_gram(b.order).witness_form
    assert witness in [s for _, s in derived]
    # check_psp and check_divisibility share one Casimir-orbit search
    assert searched == [b.forms["standard"]]


def test_check_all_inverts_only_the_primary_casimir_element(monkeypatch):
    # z^{-1} is derived where it is read, for the primary form: its
    # Casimir-orbit search and twisted traces read it, and no witness form
    # is inverted.  The rational orbit test reads valuations, and the psp
    # twist reads the unit certified by its search.
    b = s3_fixture_bundle(3)
    inverted = []
    invert = Order.invert
    monkeypatch.setattr(Order, "invert", lambda A, a: inverted.append(a) or invert(A, a))
    assert cli.run("all", b).ok
    z = so.casimir(b.order, b.forms["standard"])
    assert len(inverted) == 1 and inverted[0] is z


def test_psp_direct_inverts_the_casimir_element_once(monkeypatch):
    # the search certifies z / p^t a central unit (z central, z / p^t and
    # p^t z^{-1} with ring coordinates), so the twist does not invert it again
    b = s3_fixture_bundle(3)
    A, s = b.order, b.forms["standard"]
    inverted = []
    invert = Order.invert
    monkeypatch.setattr(Order, "invert", lambda A, a: inverted.append(a) or invert(A, a))
    cert = so.psp_direct(A, s)
    assert cert is not None and cert.n == 1 and cert.verify(A)
    assert len(inverted) == 1 and inverted[0] is so.casimir(A, s)


def test_check_all_keeps_a_refusal_on_the_form(monkeypatch):
    # a ValueError of a kept derivation is kept like a value: the singular
    # Casimir element is inverted once, though psp, tate, stable-exponent
    # and constant-value read it, and the form scaled by 3 is refused once
    inverted, derived = [], []
    invert, derive = Order.invert, forms._derive
    monkeypatch.setattr(Order, "invert", lambda A, a: inverted.append(a) or invert(A, a))
    monkeypatch.setattr(forms, "_derive", lambda A, s: derived.append(s) or derive(A, s))
    singular = so.load_bundle(DATA / "dual-numbers-p3-singular.bundle.json")
    assert cli.run("all", singular).ok and len(inverted) == 1
    scaled = so.load_bundle(DATA / "s3-p3-scaled.bundle.json")
    assert cli.run("all", scaled).ok
    assert sum(s is scaled.forms["standard"] for s in derived) == 1


def test_a_kept_refusal_is_raised_again_with_its_message(s3):
    A, s = s3
    scaled = s.scale(3)
    frames = []
    for _ in range(2):
        with pytest.raises(NotSymmetrisingError, match="form not symmetrising") as err:
            so.dual_basis(A, scaled)
        frames.append([f.name for f in traceback.extract_tb(err.value.__traceback__)])
    assert frames[0][-2:] == ["<lambda>", "_derive"]  # derived once, then
    assert frames[1][-2:] == ["dual_basis", "kept"]  # raised afresh in kept
    # an AssertionError is not kept: the next reader derives again
    calls = []

    def build():
        calls.append(1)
        raise AssertionError("certificate fails")

    cache = {}
    for _ in range(2):
        with pytest.raises(AssertionError):
            forms.kept(cache, "x", (), build)
    assert len(calls) == 2 and not cache


def test_dual_basis_dies_with_its_form(s3):
    A, s = s3
    fresh = LinearForm(s.values)
    z_ref = weakref.ref(so.casimir(A, fresh))
    d_ref = weakref.ref(so.dual_basis(A, fresh))
    del fresh
    gc.collect()
    assert z_ref() is None and d_ref() is None


def test_dual_basis_arrays_are_read_only(s3):
    A, s = s3
    d = so.dual_basis(A, s)
    for array in (s.values, d.matrix, d.casimir, so.casimir_inverse(A, s)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = Fraction(7)
    assert linalg.vectors_equal(so.casimir(A, s), A.scalar(6))


def test_dual_basis_requires_symmetrising(s3):
    A, _ = s3
    with pytest.raises(NotSymmetrisingError, match="form not symmetrising"):
        so.dual_basis(A, so.regular_character_form(A))


def test_casimir_values(s3):
    A, s = s3
    assert linalg.vectors_equal(so.casimir(A, s), A.scalar(6))
    for m, p in [(1, 2), (2, 2), (3, 5)]:
        R, sr = rank2_order(m, p)
        emb = rank2_embedding(m, p)
        z = so.casimir(R, sr)
        pm = Fraction(p) ** m
        assert list(emb @ z) == [-pm, pm]


def test_relative_trace(s3):
    A, s = s3
    # at the unit the relative trace is the Casimir element
    assert linalg.vectors_equal(so.relative_trace(A, s, A.one), so.casimir(A, s))
    # at a group element: the conjugation class sum, by direct expansion
    table, labels, _ = __import__(
        "symorders.builders", fromlist=["symmetric_group_table"]
    ).symmetric_group_table(3)
    g = 1
    expected = A.zero()
    for h in range(6):
        hinv = next(j for j in range(6) if table[h][j] == 0)
        expected = expected + A.multiply(
            A.multiply(A.basis_element(h), A.basis_element(g)), A.basis_element(hinv)
        )
    assert linalg.vectors_equal(so.relative_trace(A, s, A.basis_element(g)), expected)
    # central argument factors out
    z = so.relative_trace(A, s, A.scalar(5))
    assert linalg.vectors_equal(z, so.casimir(A, s) * Fraction(5))


def test_twist_form(s3):
    A, s = s3
    assert so.twist_form(A, s, A.one) == s
    twisted = so.twist_form(A, s, A.scalar(2))
    assert linalg.vectors_equal(so.casimir(A, twisted), A.scalar(3))
    with pytest.raises(ValueError, match="not a central unit"):
        so.twist_form(A, s, A.scalar(3))


def test_twist_law_random_central_units(s3):
    A, s = s3
    Z = A.integer_centre[0][0]
    rng = random.Random(19)
    found = 0
    while found < 5:
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(Z.shape[1])]
        z = Z @ linalg.as_vector(coords)
        if not (A.has_ring_coords(z) and is_unit(A, z)):
            continue
        found += 1
        twisted = so.twist_form(A, s, z)
        expected = A.multiply(so.casimir(A, s), A.invert(z))
        assert linalg.vectors_equal(so.casimir(A, twisted), expected)


def test_psp_direct_rank2_family(rank2_family):
    verdicts = {}
    for (m, p), (A, s, _) in rank2_family.items():
        cert = so.psp_direct(A, s)
        verdicts[(m, p)] = None if cert is None else cert.n
        if cert is not None:
            assert cert.verify(A)
    assert verdicts == {(1, 2): 1, (2, 2): None, (1, 3): None, (3, 5): None}


def test_psp_certificate_gram_consequence(s3):
    # with a certificate of exponent n, p^{-n} rho must be symmetrising
    A, s = s3
    cert = so.psp_direct(A, s)
    assert cert.n == 1
    rho = so.regular_character_form(A)
    scaled = rho.scale(Fraction(1, 3))
    G = gram_matrix(A, scaled)
    assert linalg.is_integral(G, 3)
    from symorders.padic import val

    assert val(linalg.det(G), 3) == 0


def test_psp_regular_gram(s3):
    A, _ = s3
    res = so.psp_regular_gram(A)
    assert res.verdict and res.n == 1
    assert res.exponents == (1, 1, 1, 1, 1, 1)

    R, _ = rank2_order(2, 3)
    res = so.psp_regular_gram(R)
    assert not res.verdict
    assert res.exponents == (0, 4)  # entry gcd a unit, determinant valuation 2m

    A1, _ = matrix_order(1, 2)
    B2, _ = matrix_order(2, 2)
    P = so.direct_product(A1, B2)
    res = so.psp_regular_gram(P)
    assert not res.verdict


def test_psp_regular_gram_singular():
    # nilpotent commutative algebra: 1, t with t^2 = 0
    constants = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    A = so.make_order(constants, [1, 0], 2)
    with pytest.raises(RegularGramSingularError, match="regular Gram singular"):
        so.psp_regular_gram(A)


def test_separability(s3, rank2_family):
    A, s = s3
    assert so.separability_check(A, s)
    R, sr, _ = rank2_family[(2, 2)]
    assert so.separability_check(R, sr)
    # dual numbers: Casimir 2t is nilpotent
    constants = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    D = so.make_order(constants, [1, 0], 3)
    s_nil = LinearForm([0, 1])
    assert so.is_symmetrising(D, s_nil)
    assert linalg.vectors_equal(so.casimir(D, s_nil), D.element([0, 2]))
    assert not so.separability_check(D, s_nil)


def test_schur_coefficients(s3, s3_chars):
    A, _ = s3
    rho_third = so.regular_character_form(A).scale(Fraction(1, 3))
    sigma = so.schur_coefficients(A, rho_third, s3_chars)
    assert list(sigma) == [Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)]

    M, sm = matrix_order(2, 3)
    chars = [[1 if i in (0, 3) else 0 for i in range(4)]]
    assert list(so.schur_coefficients(M, sm, chars)) == [Fraction(1)]

    chi = LinearForm(s3_chars[1])
    sigma = so.schur_coefficients(A, chi, s3_chars)
    assert list(sigma) == [0, 1, 0]

    with pytest.raises(ValueError, match="characters do not span"):
        so.schur_coefficients(A, LinearForm([1, 0, 0, 0, 0, 0]), s3_chars[:2])


def test_casimir_spectrum(s3, s3_chars):
    A, s = s3
    rho_third = so.regular_character_form(A).scale(Fraction(1, 3))
    spec = so.casimir_spectrum(A, rho_third, s3_chars)
    assert list(spec) == [3, 3, 3]

    # data-level entry point for the condensed degrees
    sigma = [Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)]
    spec = so.casimir_spectrum_from_data(sigma, [1, 3, 2])
    assert list(spec) == [Fraction(3), Fraction(9, 2), Fraction(6)]

    M, sm = matrix_order(3, 2)
    chars = [[1 if i % 4 == 0 else 0 for i in range(9)]]
    assert list(so.casimir_spectrum(M, sm, chars)) == [Fraction(3)]

    with pytest.raises(ValueError, match="zero Schur coefficient"):
        so.casimir_spectrum_from_data([0, 1], [1, 1])


def test_scalar_spectrum_test():
    ok, n = so.scalar_spectrum_test([Fraction(3), Fraction(9, 2), Fraction(6)], 3)
    assert not ok and n is None
    ok, n = so.scalar_spectrum_test([Fraction(6), Fraction(6), Fraction(6)], 3)
    assert ok and n == 1


def test_central_idempotents(s3, s3_chars):
    A, _ = s3
    idems = so.central_idempotents(A, s3_chars)
    # oracle: classical formula e = (deg/|G|) sum chi(g^{-1}) g
    table, labels, _ = __import__(
        "symorders.builders", fromlist=["symmetric_group_table"]
    ).symmetric_group_table(3)
    for chi, e in zip(s3_chars, idems):
        deg = chi[0]
        expected = A.zero()
        for g in range(6):
            ginv = next(j for j in range(6) if table[g][j] == 0)
            expected[g] = Fraction(deg, 6) * chi[ginv]
        assert linalg.vectors_equal(e, expected)

    R, _ = rank2_order(2, 2)
    emb = rank2_embedding(2, 2)
    chars = [[1, 0], [1, 4]]
    e1, e2 = so.central_idempotents(R, chars)
    assert list(emb @ e1) == [1, 0]
    assert list(emb @ e2) == [0, 1]

    M, _ = matrix_order(2, 5)
    (e,) = so.central_idempotents(M, [[1 if i in (0, 3) else 0 for i in range(4)]])
    assert linalg.vectors_equal(e, M.one)


def test_central_idempotents_inconsistent(s3):
    A, _ = s3
    with pytest.raises(ValueError, match="system inconsistent"):
        so.central_idempotents(A, [[1, 0, 0, 0, 0, 0]])


def test_psp_products_and_tensors():
    # scalar property passes to tensor products
    A1, s1 = matrix_order(1, 2)
    B2, s2 = matrix_order(2, 2)
    from symorders.forms import direct_product_form, tensor_product_form

    P = so.direct_product(A1, B2)
    sp = direct_product_form(s1, s2)
    assert so.is_symmetrising(P, sp)
    assert so.psp_direct(P, sp) is None  # distinct factor exponents at p = 2

    PP = so.direct_product(A1, A1)
    assert so.psp_direct(PP, direct_product_form(s1, s1)).n == 0

    R, sr = rank2_order(1, 2)
    T = so.tensor_product(R, R)
    st = tensor_product_form(sr, sr)
    cert = so.psp_direct(T, st)
    assert cert is not None and cert.n == 2


# -- the integer dual basis against the Fraction oracle --------------------

PRIMES = [2, 3, 5, 4294967311]
ORACLE_ORDERS = [lambda p, table=table: group_algebra(table, p) for table in GROUP_TABLES] + [
    lambda p: matrix_order(2, p),
    lambda p: rank2_order(1, p),
    lambda p: rank2_order(2, p),
    lambda p: hecke_rank1(Fraction(-11, 7), p),
]


@st.composite
def forms_on_orders(draw):
    """Standard forms, scaled by units, by 1/p or by p, zero or random
    forms, on standard orders; half of them on a dense change of basis
    with denominators prime to p, so the structure constants and values
    have unit denominators."""
    p = draw(st.sampled_from(PRIMES))
    A, s = draw(st.sampled_from(ORACLE_ORDERS))(p)
    kind = draw(st.sampled_from(["standard", "unit", "1/p", "p", "zero", "random"]))
    scale = {"standard": 1, "unit": draw(st.sampled_from([-1, Fraction(3, 7), 5])),
             "1/p": Fraction(1, p), "p": p, "zero": 0, "random": 1}[kind]
    values = s.values * Fraction(scale)
    if kind == "random":
        values = linalg.as_vector(draw(st.lists(_scalars(p), min_size=A.dim, max_size=A.dim)))
    if draw(st.booleans()):
        P = draw(unimodular(A.dim, p))
        A = dense_order(*rebase(cube(A), A.one, P), p)
        values = P.T @ values
    return A, LinearForm(values)


def _outcome(derive, A, s):
    try:
        return derive(A, s)
    except (NotSymmetrisingError, AssertionError) as exc:
        return type(exc), str(exc)


def _assert_same_dual_basis(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    for name, a in (("matrix", got.matrix), ("casimir", got.casimir)):
        b = getattr(want, name)
        assert linalg.matrices_equal(a, b), name
        assert all(type(x) is Fraction for x in a.flat), name


def _assert_same_casimir_inverse(A, s):
    """z^{-1} equals the oracle's, or both raise; when it exists it is
    read-only and kept on the form."""
    try:
        want = fraction_forms.casimir_inverse(A, s)
    except NotInvertibleError:
        with pytest.raises(NotInvertibleError):
            so.casimir_inverse(A, s)
        assert not so.separability_check(A, s)
        return
    got = so.casimir_inverse(A, s)
    assert got is so.casimir_inverse(A, s) and so.separability_check(A, s)
    assert linalg.vectors_equal(got, want) and all(type(x) is Fraction for x in got)
    with pytest.raises(ValueError, match="read-only"):
        got[0] = Fraction(7)


@settings(max_examples=120, deadline=None)
@given(forms_on_orders())
def test_integer_dual_basis_equals_the_fraction_oracle(case):
    A, s = case
    G = gram_matrix(A, s)
    assert linalg.matrices_equal(G, fraction_forms.gram_matrix(A, s))
    assert all(type(x) is Fraction for x in G.flat)
    want = _outcome(fraction_forms.derive, A, s)
    _assert_same_dual_basis(_outcome(forms._derive, A, s), want)
    if not isinstance(want, tuple):
        _assert_same_casimir_inverse(A, s)


@st.composite
def elements_of_orders(draw):
    """Random elements (often zero divisors), zero and the sum of the
    basis (a zero divisor in a group algebra of order > 1 and in M2) of
    standard orders; half of them moved with the order to a dense change
    of basis with denominators prime to p, which gives the table a
    denominator other than 1."""
    p = draw(st.sampled_from(PRIMES))
    A, _ = draw(st.sampled_from(ORACLE_ORDERS))(p)
    kind = draw(st.sampled_from(["random", "zero", "basis sum"]))
    a = {"random": linalg.as_vector(draw(st.lists(_scalars(p), min_size=A.dim, max_size=A.dim))),
         "zero": A.zero(), "basis sum": linalg.as_vector([1] * A.dim)}[kind]
    if draw(st.booleans()):
        P = draw(unimodular(A.dim, p))
        A = dense_order(*rebase(cube(A), A.one, P), p)
        a = linalg.inverse(P) @ a
    return A, a


@settings(max_examples=150, deadline=None)
@given(elements_of_orders())
def test_integer_invert_equals_the_fraction_solve(case):
    A, a = case
    try:
        want = fraction_forms.invert(A, a)
    except NotInvertibleError:
        with pytest.raises(NotInvertibleError, match="not invertible in K⊗A"):
            A.invert(a)
        return
    got = A.invert(a)
    assert linalg.vectors_equal(got, want) and all(type(x) is Fraction for x in got)


@st.composite
def central_units(draw):
    """(A, s, w): a symmetrising form on a standard order, scaled by a
    unit and half of the time on a dense change of basis, with a central
    unit w = c (1 + p y) for a unit scalar c and y in the centre, which is
    a unit since det L(1 + p y) = 1 mod p."""
    p = draw(st.sampled_from(PRIMES))
    A, s = draw(st.sampled_from(ORACLE_ORDERS))(p)
    values = s.values * draw(st.sampled_from([1, -1, Fraction(-11, 13)]))
    if draw(st.booleans()):
        P = draw(unimodular(A.dim, p))
        A = dense_order(*rebase(cube(A), A.one, P), p)
        values = P.T @ values
    Z = A.integer_centre[0][0]
    y = Z @ linalg.as_vector(draw(st.lists(st.integers(-3, 3), min_size=Z.shape[1],
                                           max_size=Z.shape[1])))
    c = draw(st.sampled_from([1, -1, Fraction(-11, 13)]))
    return A, LinearForm(values), (A.one + y * A.prime) * Fraction(c)


@settings(max_examples=60, deadline=None)
@given(central_units())
def test_a_twist_has_the_dual_basis_and_casimir_element_of_its_parent_times_w_inverse(case):
    # s(w b_i w^{-1} x_j^v) = s(b_i x_j^v) = delta_ij for w central, so the
    # twist s(w .) has dual basis w^{-1} D and Casimir element w^{-1} z
    A, s, w = case
    t = so.twist_form(A, s, w)
    u = fraction_forms.invert(A, w)
    parent, twisted = so.dual_basis(A, s), so.dual_basis(A, t)
    for j in range(A.dim):
        assert linalg.vectors_equal(twisted.element(j), A.multiply(u, parent.element(j)))
    assert linalg.vectors_equal(twisted.casimir, A.multiply(u, parent.casimir))
    assert all(type(x) is Fraction for x in (*twisted.matrix.flat, *twisted.casimir))


@settings(max_examples=60, deadline=None)
@given(forms_on_orders())
def test_regular_gram_exponents_equal_the_fraction_smith_form(case):
    # psp_regular_gram reads the Smith exponents of the integer numerators
    # of the regular Gram matrix, whose denominator is a unit
    A, _ = case
    snf = fraction_linalg.smith_normal_form(
        fraction_forms.gram_matrix(A, so.regular_character_form(A)), A.prime)
    if snf.rank < A.dim:
        with pytest.raises(RegularGramSingularError):
            so.psp_regular_gram(A)
        return
    res = so.psp_regular_gram(A)
    assert res.exponents == snf.exponents
    assert res.verdict == (len(set(snf.exponents)) == 1)


def _non_symmetric(p):
    # s(E11 E12) = s(E12) = 1 but s(E12 E11) = 0
    A, _ = matrix_order(2, p)
    return A, LinearForm([0, 1, 0, 0])


def _non_integral(p):
    A, s = matrix_order(2, p)
    return A, s.scale(Fraction(1, p))


def _singular(p):
    # rank2_order(1, p) is spanned by 1 and (0, p); this form kills b_2^2 = p b_2
    A, _ = rank2_order(1, p)
    return A, LinearForm([1, 0])


def _non_unimodular(p):
    A, s = group_algebra(GROUP_TABLES[-1], p)
    return A, s.scale(p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("case, shape", [
    (_non_symmetric, "non-symmetric"),
    (_non_integral, "non-integral"),
    (_singular, "singular"),
    (_non_unimodular, "non-unimodular"),
])
def test_non_symmetrising_forms_raise_like_the_oracle(case, shape, p):
    A, s = case(p)
    G = fraction_forms.gram_matrix(A, s)
    symmetric = linalg.matrices_equal(G, G.T)
    integral = linalg.is_integral(G, p)
    det = linalg.det(G)
    assert {
        "non-symmetric": not symmetric,
        "non-integral": symmetric and not integral,
        "singular": symmetric and integral and det == 0,
        "non-unimodular": symmetric and integral and det != 0 and det.numerator % p == 0,
    }[shape]
    want = _outcome(fraction_forms.derive, A, s)
    assert want == (NotSymmetrisingError, "form not symmetrising")
    assert _outcome(forms._derive, A, s) == want
    assert not so.is_symmetrising(A, s)


def test_s4_dual_basis_builds_fewer_fractions_than_dim_squared():
    # the dual basis is certified on integers: Fractions are built for the
    # result arrays only, which for a group algebra are mostly zero
    b = so.load_bundle(Path(__file__).resolve().parent / "data" / "s4-p2.bundle.json")
    A, s = b.order, LinearForm(b.forms["standard"].values)
    count = 0
    original = vars(fractions.Fraction)["__new__"]

    def counting_new(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return original(cls, *args, **kwargs)

    fractions.Fraction.__new__ = staticmethod(counting_new)
    try:
        so.dual_basis(A, s)
    finally:
        fractions.Fraction.__new__ = original
    assert A.dim == 24
    assert 0 < count < A.dim**2
