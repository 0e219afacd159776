import ast
import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import symorders as so
from symorders import cli, forms, linalg
from symorders.builders import (
    four_dim_nonrational,
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
    exact = linalg.inverse

    def perturbed(M):
        D = exact(M)
        D[0, 0] += 1
        return D

    monkeypatch.setattr(linalg, "inverse", perturbed)


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
        "exact = linalg.inverse\n"
        "def perturbed(M):\n"
        "    D = exact(M)\n"
        "    D[0, 0] += 1\n"
        "    return D\n"
        "linalg.inverse = perturbed\n"
        "with pytest.raises(AssertionError, match='dual basis fails'):\n"
        "    so.dual_basis(A, s)\n"
        "linalg.inverse = exact\n"
        "central = so.Order.is_central\n"
        "so.Order.is_central = lambda self, a: False\n"
        "with pytest.raises(AssertionError, match='Casimir element not central'):\n"
        "    so.casimir(A, so.LinearForm(s.values))\n"
        "so.Order.is_central = central\n"
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
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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
    # psp, regular-Gram, Morita and rational symmetry witnesses, each
    # certified once
    assert {(id(b.order), id(s)) for s in b.forms.values()} <= set(pairs)
    assert len(pairs) == len(b.forms) + 4 == 5
    # check_psp and check_divisibility share one Casimir-orbit search
    assert searched == [b.forms["standard"]]


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
    for array in (s.values, d.matrix, d.gram, d.casimir, d.casimir_inverse):
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
    Z = A.center_basis()
    rng = random.Random(19)
    found = 0
    while found < 5:
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(Z.shape[1])]
        z = Z @ linalg.as_vector(coords)
        if not (A.has_ring_coords(z) and A.is_unit(z)):
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
    structure = np.zeros((2, 2, 2), dtype=object)
    structure[:] = Fraction(0)
    structure[0, 0, 0] = Fraction(1)
    structure[0, 1, 1] = Fraction(1)
    structure[1, 0, 1] = Fraction(1)
    A = so.make_order(structure, [1, 0], 2)
    with pytest.raises(RegularGramSingularError, match="regular Gram singular"):
        so.psp_regular_gram(A)


def test_separability(s3, rank2_family):
    A, s = s3
    assert so.separability_check(A, s)
    R, sr, _ = rank2_family[(2, 2)]
    assert so.separability_check(R, sr)
    # dual numbers: Casimir 2t is nilpotent
    structure = np.zeros((2, 2, 2), dtype=object)
    structure[:] = Fraction(0)
    structure[0, 0, 0] = Fraction(1)
    structure[0, 1, 1] = Fraction(1)
    structure[1, 0, 1] = Fraction(1)
    D = so.make_order(structure, [1, 0], 3)
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
