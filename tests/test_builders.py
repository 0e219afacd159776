from fractions import Fraction

import numpy as np
import pytest

import symorders as so
from symorders import linalg
from symorders.builders import (
    c2_character_ring_data,
    character_ring,
    cyclic_group_table,
    four_dim_nonrational,
    group_algebra,
    hecke_rank1,
    klein_four_table,
    matrix_order,
    rank2_order,
    s3_character_ring_data,
    s3_characters,
    symmetric_group_characters,
    symmetric_group_table,
)
from symorders.forms import gram_matrix

from dense_orders import cube


def test_group_algebra_s3(s3):
    A, s = s3
    assert A.dim == 6
    assert so.is_symmetrising(A, s)
    assert linalg.vectors_equal(so.casimir(A, s), A.scalar(6))


def test_group_algebra_c2():
    table, labels = cyclic_group_table(2)
    A, s = group_algebra(table, 2, labels=labels)
    assert A.dim == 2
    cert = so.psp_direct(A, s)
    assert cert is not None and cert.n == 1
    res = so.psp_regular_gram(A)
    assert res.verdict and res.n == 1 and res.exponents == (1, 1)


def test_trivial_group_is_rank_one():
    A, s = group_algebra([[0]], 5)
    M, sm = matrix_order(1, 5)
    assert np.array_equal(cube(A), cube(M))


def test_rank2_builder_verdicts(rank2_family):
    expected = {(1, 2): True, (2, 2): False, (1, 3): False, (3, 5): False}
    for key, (A, s, _) in rank2_family.items():
        assert so.is_symmetrising(A, s)
        assert (so.psp_direct(A, s) is not None) == expected[key]


def test_rank2_rejects_bad_depth():
    with pytest.raises(ValueError, match="at least 1"):
        rank2_order(0, 2)


def test_hecke_builder(hecke_family):
    for q, (A, s) in hecke_family.items():
        d = so.dual_basis(A, s)
        # dual basis {T_1, q^{-1} T_s}
        assert linalg.vectors_equal(d.element(0), A.basis_element(0))
        assert list(d.element(1)) == [Fraction(0), Fraction(1, q)]
        z = so.casimir(A, s)
        assert list(z) == [Fraction(2), Fraction(1 - q, q)]


def test_hecke_not_a_unit():
    with pytest.raises(ValueError, match="q not a unit"):
        hecke_rank1(4, 2)


def test_hecke_q1_is_c2_group_algebra():
    A, _ = hecke_rank1(1, 2)
    table, labels = cyclic_group_table(2)
    C, _ = group_algebra(table, 2)
    assert np.array_equal(cube(A), cube(C))


def test_hecke_algorithms_agree_without_congruence_expectation(hecke_family):
    # both direct algorithms must agree for every surveyed q; the
    # congruence class they follow is recorded, never asserted
    observed = {}
    for q, (A, s) in hecke_family.items():
        cert = so.psp_direct(A, s)
        res = so.psp_regular_gram(A)
        assert (cert is not None) == res.verdict
        if cert is not None:
            assert cert.n == res.n
        observed[q] = cert is not None
    assert set(observed) == {3, 5, 7, 9}


def test_character_ring_s3():
    table, sizes = s3_character_ring_data()
    A, s = character_ring(table, sizes, 3)
    assert so.is_symmetrising(A, s)
    z = so.casimir(A, s)
    # the Casimir element is the class function of centralizer orders
    tab = linalg.as_matrix(table)
    zfun = [sum((z[i] * tab[i, c] for i in range(3)), Fraction(0)) for c in range(3)]
    assert zfun == [6, 2, 3]
    assert so.psp_direct(A, s) is None
    A2, s2 = character_ring(table, sizes, 2)
    assert so.psp_direct(A2, s2) is None


def test_character_ring_c2():
    A, s = character_ring(*c2_character_ring_data(), 2)
    cert = so.psp_direct(A, s)
    assert cert is not None and cert.n == 1
    assert linalg.vectors_equal(so.casimir(A, s), A.scalar(2))


def test_character_ring_orthogonality_guard():
    with pytest.raises(ValueError, match="orthogonality fails"):
        character_ring([[1, 1], [1, 1]], [1, 1], 2)


def test_four_dim_display(s3):
    x = 3
    A, s = four_dim_nonrational(x, 2)
    G = gram_matrix(A, s)
    xf = Fraction(x)
    expected = linalg.as_matrix(
        [
            [1, 1, 1, 1],
            [1, 1 + xf, xf, 2 * xf],
            [1, xf, 1 + xf, 2 * xf],
            [1, 2 * xf, 2 * xf, 4 * xf],
        ]
    )
    assert linalg.matrices_equal(G, expected)
    from symorders.padic import val

    assert val(linalg.det(G), 2) == 0
    with pytest.raises(ValueError, match="odd"):
        four_dim_nonrational(4, 2)


def test_four_dim_x1_has_no_binding_obstruction():
    A, s = four_dim_nonrational(1, 2)
    assert so.is_symmetrising(A, s)


def test_matrix_order_family():
    for n, p, expected_n in [(1, 2, 0), (2, 2, 1), (2, 3, 0)]:
        A, s = matrix_order(n, p)
        cert = so.psp_direct(A, s)
        assert cert is not None and cert.n == expected_n
        assert linalg.vectors_equal(so.casimir(A, s), A.scalar(n))


def test_tensor_of_group_algebras_is_product_group():
    table, labels = cyclic_group_table(2)
    C, _ = group_algebra(table, 2, labels=labels)
    T = so.tensor_product(C, C)
    K, _ = group_algebra(klein_four_table()[0], 2)
    assert np.array_equal(cube(T), cube(K))


def test_s3_bundle_validates(s3_bundle):
    b = s3_bundle
    assert b.prime == 3
    assert sorted(b.lattices) == ["regular", "sign", "trivial"]
    assert b.decomposition.modular_dims == (1, 1)
    degrees, dims = b.extra_tables["condensed"]
    assert degrees == [1, 3, 2] and dims == (1, 2)


def test_builder_forms_all_symmetrising(s3, rank2_family, hecke_family):
    A, s = s3
    assert so.is_symmetrising(A, s)
    for (A2, s2, _) in rank2_family.values():
        assert so.is_symmetrising(A2, s2)
    for (A3, s3_) in hecke_family.values():
        assert so.is_symmetrising(A3, s3_)


def test_symmetric_group_characters():
    # the S3 table by hand (fixed points minus one, and the sign), on the
    # basis of symmetric_group_table(3)
    s3 = [[1, 1, 1, 1, 1, 1], [2, 0, 0, -1, -1, 0], [1, -1, -1, 1, 1, -1]]
    assert list(symmetric_group_characters(3).values()) == s3_characters() == s3
    for n, degrees in ((4, [1, 3, 2, 3, 1]), (5, [1, 4, 5, 6, 5, 4, 1])):
        chars = symmetric_group_characters(n)
        assert [chi[0] for chi in chars.values()] == degrees  # the identity comes first
        table, labels, _ = symmetric_group_table(n)
        A, _ = group_algebra(table, 2, labels=labels)
        assert so.make_character_table(list(chars.values()), A).degrees == tuple(degrees)
    # the decomposition matrices of S4 at p = 2 and p = 3
    chars = symmetric_group_characters(4)
    degrees = [chars[lam][0] for lam in ((4,), (1, 1, 1, 1), (2, 2), (3, 1), (2, 1, 1))]
    so.make_decomposition_matrix([[1, 0], [1, 0], [0, 1], [1, 1], [1, 1]], (1, 2), degrees)
    so.make_decomposition_matrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], (1, 1, 3, 3),
        degrees)
