import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symorders as so
from symorders import linalg
from symorders.builders import (
    character_ring,
    cyclic_group_table,
    four_dim_nonrational,
    group_algebra,
    hecke_rank1,
    klein_four_table,
    matrix_order,
    rank2_order,
    s3_character_ring_data,
    s3_group_algebra,
    symmetric_group_table,
)
from symorders.forms import LinearForm, gram_matrix
from symorders.orders import InvalidOrderError, NotInvertibleError, lattice_ring

import dense_orders
import fraction_linalg
from dense_orders import cube, dense_order


def test_make_order_rank2_valid():
    A, _ = rank2_order(1, 2)
    assert A.dim == 2
    assert list(A.one) == [1, 0]


def test_make_order_one_dimensional():
    A = so.make_order([(0, 0, 0, Fraction(1))], [Fraction(1)], 7)
    assert A.dim == 1


def test_make_order_unit_failure():
    # b1*b1 = b2 while b1 is declared as the unit
    with pytest.raises(InvalidOrderError, match="unit fails"):
        so.make_order([(0, 0, 1, 1)], [Fraction(1), Fraction(0)], 2)


def test_make_order_unit_with_non_ring_coordinates():
    # b0 b0 = 3 b0, so b0 / 3 is the unit of the algebra, outside the order at 3
    with pytest.raises(InvalidOrderError, match="unit has non-ring coordinates"):
        so.make_order([(0, 0, 0, 3)], [Fraction(1, 3)], 3)


def test_make_order_not_associative():
    # unit plus x with x*x = 1 + x, then corrupt one product
    constants = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 0, 1, 1), (2, 0, 2, 1),
                 (1, 1, 2, 1), (1, 2, 0, 1), (2, 1, 1, 1), (2, 2, 2, 1)]
    with pytest.raises(InvalidOrderError) as err:
        so.make_order(constants, [1, 0, 0], 2)
    # b1 (b1 b1) = b1 b2 = b0, but (b1 b1) b1 = b2 b1 = b1
    assert str(err.value) == "not associative: basis triple (1, 1, 1)"


def test_make_order_non_integral():
    with pytest.raises(InvalidOrderError, match="non-integral structure constant"):
        so.make_order([(0, 0, 0, Fraction(1, 2))], [Fraction(2)], 2)


def test_make_order_rejects_bad_entries():
    rank2 = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 2)]
    for bad in [(0, 2, 0, 1), (-1, 0, 0, 1), (0, 0, 5, 0)]:
        with pytest.raises(InvalidOrderError,
                           match=r"structure constant index out of range: \(%d, %d, %d\)" % bad[:3]):
            so.make_order(rank2 + [bad], [1, 0], 2)
    # a repeated triple raises, even when the values agree or one is zero
    for value in (2, 0):
        with pytest.raises(InvalidOrderError, match=r"repeated structure constant: \(1, 1, 1\)"):
            so.make_order(rank2 + [(1, 1, 1, value)], [1, 0], 2)


def test_explicit_zeros_and_entry_order_give_the_same_table():
    for A in (s3_group_algebra(3)[0], four_dim_nonrational(3)[0], matrix_order(2, 3)[0]):
        constants = A.constants()
        present = {c[:3] for c in constants}
        zeros = [(i, j, k, Fraction(0)) for i in range(A.dim) for j in range(A.dim)
                 for k in range(A.dim) if (i, j, k) not in present][:7]
        shuffled = constants + zeros
        random.Random(A.dim).shuffle(shuffled)
        B = so.make_order(shuffled, A.one, A.prime)
        assert B.products == A.products and B.denominator == A.denominator
        assert B.constants() == constants
        assert B.generators == A.generators


def test_unit_denominator_constants_after_a_rebase():
    # on the basis 1, g + b/2, ... the constants of the S3 group algebra get
    # denominators 2 and 4, units at p = 3, kept as numerators over 4
    A, _ = s3_group_algebra(3)
    P = linalg.identity(A.dim)
    P[0, 1] = P[2, 3] = Fraction(1, 2)
    S, one = rebase(cube(A), A.one, P)
    B = dense_order(S, one, 3)
    assert B.denominator == 4
    assert np.array_equal(cube(B), S)
    for i, j, k, c in B.constants():
        assert (k, c * 4) in B.products[i][j]
    assert all(type(c) is int for row in B.products for prods in row for _, c in prods)
    with pytest.raises(InvalidOrderError, match="non-integral structure constant"):
        dense_order(S, one, 2)


def test_multiply_unit_and_relations():
    A, _ = hecke_rank1(3, 2)
    t1, ts = A.basis_element(0), A.basis_element(1)
    assert linalg.vectors_equal(A.multiply(A.one, ts), ts)
    # (T_s)^2 = q T_1 + (1 - q) T_s
    assert list(A.multiply(ts, ts)) == [Fraction(3), Fraction(-2)]

    B, _ = rank2_order(1, 2)
    l2 = B.basis_element(1)
    assert list(B.multiply(l2, l2)) == [Fraction(0), Fraction(2)]


def test_left_regular_matrices():
    # the oracle's left matrices, read off the dense cube
    A, _ = hecke_rank1(5, 2)
    assert linalg.matrices_equal(dense_orders.left_matrix(A, A.one), linalg.identity(2))
    L = dense_orders.left_matrix(A, A.basis_element(1))
    assert L.tolist() == [[0, 5], [1, -4]]

    G, _ = s3_group_algebra(3)
    for i in range(6):
        L = dense_orders.left_matrix(G, G.basis_element(i))
        # permutation matrix: one 1 per column
        assert all(sorted(L[:, j]) == [0, 0, 0, 0, 0, 1] for j in range(6))


def test_regular_character_values():
    # the traces of left multiplication on the dense cube, and the
    # regular traces the library reads off the table
    G, _ = s3_group_algebra(3)
    assert dense_orders.regular_character(G, G.one) == 6
    for i in range(1, 6):
        assert dense_orders.regular_character(G, G.basis_element(i)) == 0

    H, _ = hecke_rank1(3, 2)
    assert dense_orders.regular_character(H, H.basis_element(1)) == 1 - 3

    for m, p in [(1, 2), (2, 2), (2, 3)]:
        R, _ = rank2_order(m, p)
        assert dense_orders.regular_character(R, R.basis_element(1)) == Fraction(p) ** m
    for A in (G, H, R):
        assert list(A.regular_traces) == [
            dense_orders.regular_character(A, A.basis_element(i)) for i in range(A.dim)]


def test_center_basis_class_sums(s3):
    A, _ = s3
    Z = A.integer_centre[0][0]
    assert Z.shape[1] == 3
    # oracle: class sums of the three conjugacy classes span the center
    labels = list(A.basis_labels)
    transpositions = [i for i, l in enumerate(labels) if l in ("102", "210", "021")]
    threecycles = [i for i, l in enumerate(labels) if l in ("120", "201")]
    for cls in ([0], transpositions, threecycles):
        v = A.zero()
        for i in cls:
            v[i] = Fraction(1)
        assert fraction_linalg.lattice_membership(v, Z, 3) is not None
    for j in range(3):
        assert A.is_central(Z[:, j])


def test_center_matrix_order():
    A, _ = matrix_order(2, 2)
    Z = A.integer_centre[0][0]
    assert Z.shape[1] == 1


def test_center_commutative_full():
    A, _ = rank2_order(2, 3)
    assert A.integer_centre[0][0].shape[1] == 2


def _s3_elements(A, *labels):
    return [A.basis_element(A.basis_labels.index(label)) for label in labels]


def test_lattice_ring_certifies_closure_and_the_unit(s3):
    A, _ = s3
    # the integer basis columns 1, (01) and (012)
    one, t, c = (v.astype(int).astype(object) for v in _s3_elements(A, "012", "102", "120"))
    C, u = (linalg.from_numerators(*x) for x in lattice_ring(A, np.array([one, t]).T, A.one))
    assert C.tolist() == [[[1, 0], [0, 1]], [[0, 1], [1, 0]]] and u.tolist() == [1, 0]
    # (01) (012) is a transposition other than (01), and (01)^2 = (3 1) / 3
    assert lattice_ring(A, np.array([t, c]).T, A.one)[0] is None
    assert lattice_ring(A, np.array([3 * one, t]).T, A.one) == (None, None)
    # 3 O is closed, but 1 = (3 1) / 3 is no ring combination at p = 3
    C, u = lattice_ring(A, np.array([3 * one]).T, A.one)
    assert linalg.from_numerators(*C).tolist() == [[[3]]] and u is None


def test_condense_gives_the_corner_order(s3, s3_chars):
    A, _ = s3
    one, t = _s3_elements(A, "012", "102")
    B, _ = s3_group_algebra(2)
    cases = [(A, (one + t) / 2, 2),  # End of the permutation module on S3 / <(01)>
             (B, so.central_idempotents(B, s3_chars)[1], 4)]  # M_2(O) at p = 2
    for order, e, dim in cases:
        corner, E = so.condense(order, e)
        assert corner.dim == dim and linalg.vectors_equal(E @ corner.one, e)
        # e A e is saturated in A: its basis extends to one of A
        assert linalg.smith_normal_form(E, order.prime).exponents == (0,) * dim
        for i in range(dim):
            for j in range(dim):
                product = corner.multiply(corner.basis_element(i), corner.basis_element(j))
                assert linalg.vectors_equal(E @ product, order.multiply(E[:, i], E[:, j]))
    assert corner.integer_centre[0][0].shape[1] == 1


def test_invert(s3):
    A, _ = s3
    six = A.scalar(6)
    inv = A.invert(six)
    assert linalg.vectors_equal(inv, A.scalar(Fraction(1, 6)))

    R, s = rank2_order(1, 2)
    z = so.casimir(R, s)  # (-2, 2) in split coordinates
    zinv = R.invert(z)
    assert linalg.vectors_equal(R.multiply(z, zinv), R.one)

    l2 = R.basis_element(1)
    with pytest.raises(NotInvertibleError, match="not invertible"):
        R.invert(l2)


def test_unit_and_idempotent_predicates(s3):
    A, _ = s3
    # the unit test is an oracle of the tests, read off the dense cube
    assert dense_orders.is_unit(A, A.scalar(2))
    assert not dense_orders.is_unit(A, A.scalar(3))
    assert not dense_orders.is_unit(A, A.zero())
    with pytest.raises(ValueError, match="ring coordinates"):
        dense_orders.is_unit(A, A.scalar(Fraction(1, 3)))
    # (1 + transposition)/2 is idempotent, and 1/2 is a ring element at p=3
    t = list(A.basis_labels).index("102")
    e = A.zero()
    e[0] = Fraction(1, 2)
    e[t] = Fraction(1, 2)
    assert A.is_idempotent(e)
    assert A.is_central(A.scalar(7)) and not A.is_central(A.basis_element(t))


def test_condense_unit_is_identity(s3):
    A, _ = s3
    corner, embedding = so.condense(A, A.one)
    assert np.array_equal(cube(corner), cube(A))
    assert linalg.matrices_equal(embedding, linalg.identity(6))


def test_condense_transposition_idempotent(s3):
    # rank oracle: #(H\S3/H) = 2 double cosets for H generated by a
    # transposition, so the corner order has rank 2
    A, _ = s3
    t = list(A.basis_labels).index("102")
    e = A.zero()
    e[0] = Fraction(1, 2)
    e[t] = Fraction(1, 2)
    corner, embedding = so.condense(A, e)
    assert corner.dim == 2
    assert linalg.vectors_equal(embedding @ corner.one, e)
    # every corner basis vector is fixed by e on both sides
    for j in range(corner.dim):
        v = embedding[:, j]
        assert linalg.vectors_equal(A.multiply(e, v), v)
        assert linalg.vectors_equal(A.multiply(v, e), v)


def test_condense_rejects(s3):
    A, _ = s3
    with pytest.raises(InvalidOrderError, match="not idempotent"):
        so.condense(A, A.scalar(2))
    with pytest.raises(InvalidOrderError, match="not idempotent"):
        so.condense(A, A.zero())


def test_direct_product_rank():
    A, _ = matrix_order(1, 2)
    B, _ = matrix_order(2, 2)
    P = so.direct_product(A, B)
    assert P.dim == 5


def test_tensor_with_trivial_factor():
    A, _ = rank2_order(1, 2)
    B, _ = matrix_order(1, 2)
    T = so.tensor_product(A, B)
    assert T.dim == 2
    assert np.array_equal(cube(T), cube(A))


def test_tensor_rank_multiplies():
    A, _ = rank2_order(1, 2)
    T = so.tensor_product(A, A)
    assert T.dim == 4


def test_product_orders_carry_the_factors_labels():
    C2, _ = group_algebra(cyclic_group_table(2)[0], 3, labels=("e", "t"))
    C3, _ = group_algebra(cyclic_group_table(3)[0], 3, labels=("1", "a", "b"))
    R, _ = group_algebra(cyclic_group_table(2)[0], 3)
    assert so.tensor_product(C2, C3).basis_labels == ("e.1", "e.a", "e.b", "t.1", "t.a", "t.b")
    assert so.direct_product(C2, C3).basis_labels == ("e", "t", "1", "a", "b")
    # a product with an unlabelled factor stays unlabelled
    assert R.basis_labels is None
    for product_order in (so.tensor_product, so.direct_product):
        assert product_order(C2, R).basis_labels is None
        assert product_order(R, C2).basis_labels is None


def test_random_associativity_and_trace_property(s3):
    A, _ = s3
    rng = random.Random(11)
    for _ in range(25):
        a = A.element([Fraction(rng.randint(-4, 4)) for _ in range(6)])
        b = A.element([Fraction(rng.randint(-4, 4)) for _ in range(6)])
        c = A.element([Fraction(rng.randint(-4, 4)) for _ in range(6)])
        assert linalg.vectors_equal(
            A.multiply(A.multiply(a, b), c), A.multiply(a, A.multiply(b, c))
        )
        assert dense_orders.regular_character(A, A.multiply(a, b)) == (
            dense_orders.regular_character(A, A.multiply(b, a)))


def test_center_saturation(s3):
    A, _ = s3
    Z = A.integer_centre[0][0]
    rng = random.Random(5)
    for _ in range(10):
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(Z.shape[1])]
        z = Z @ linalg.as_vector(coords)
        back = fraction_linalg.lattice_membership(z, Z, A.prime)
        assert back is not None


def test_group_table_validation():
    table, labels, _ = symmetric_group_table(3)
    broken = [row[:] for row in table]
    broken[1][1] = broken[1][2]
    from symorders.builders import group_algebra

    with pytest.raises(ValueError, match="not a group table"):
        group_algebra(broken, 3)


# -- the sparse product table against dense contractions ------------------

GROUP_TABLES = [cyclic_group_table(n)[0] for n in (1, 2, 3, 4, 5)] + [
    klein_four_table()[0],
    symmetric_group_table(3)[0],
]

BUILDER_ORDERS = [
    lambda: hecke_rank1(Fraction(1, 3), 2)[0],
    lambda: hecke_rank1(Fraction(-5, 7), 3)[0],
    lambda: four_dim_nonrational(3)[0],
    lambda: matrix_order(2, 3)[0],
    lambda: rank2_order(2, 3)[0],
    lambda: character_ring(*s3_character_ring_data(), 5)[0],
]


def dense_multiply(S, a, b):
    return np.tensordot(a, np.tensordot(b, S, axes=([0], [1])), axes=([0], [0]))


def dense_left(S, a):
    return np.tensordot(a, S, axes=([0], [0])).T


def dense_right(S, a):
    return np.tensordot(S, a, axes=([1], [0])).T


def dense_gram(S, values):
    return np.tensordot(S, values, axes=([2], [0]))


def rebase(S, one, P):
    """Structure constants and unit on the basis given by the columns of P."""
    Pinv = linalg.inverse(P)
    S = np.tensordot(P, S, axes=([0], [0]))  # [i, b, k]
    S = np.tensordot(S, P, axes=([1], [0]))  # [i, k, j]
    S = np.tensordot(S, Pinv, axes=([1], [1]))  # [i, j, k]
    return S, Pinv @ one


def _scalars(p):
    denominators = [d for d in (1, 1, 1, 3, 5, 7) if d % p]
    return st.builds(Fraction, st.integers(-2, 2), st.sampled_from(denominators))


@st.composite
def unimodular(draw, n, p):
    """L U with unitriangular L and U: a dense change of basis over the ring."""
    L = linalg.identity(n)
    U = linalg.identity(n)
    for i in range(n):
        for j in range(i):
            L[i, j] = draw(_scalars(p))
            U[j, i] = draw(_scalars(p))
    return L @ U


@st.composite
def standard_orders(draw):
    """Group algebras on permuted elements, and builders orders, some with
    non-integral ring constants."""
    if draw(st.booleans()):
        table = draw(st.sampled_from(GROUP_TABLES))
        n = len(table)
        perm = draw(st.permutations(range(n)))
        permuted = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                permuted[perm[a]][perm[b]] = perm[table[a][b]]
        return group_algebra(permuted, draw(st.sampled_from([2, 3, 5])))[0]
    return draw(st.sampled_from(BUILDER_ORDERS))()


@st.composite
def orders(draw):
    """Standard orders, half of them densely rebased."""
    A = draw(standard_orders())
    if draw(st.booleans()):
        P = draw(unimodular(A.dim, A.prime))
        A = dense_order(*rebase(cube(A), A.one, P), A.prime)
    return A


def elements(n):
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=6))
    basis = st.integers(0, n - 1).map(
        lambda i: [Fraction(int(i == j)) for j in range(n)]
    )
    return st.one_of(basis, st.lists(entry, min_size=n, max_size=n)).map(
        linalg.as_vector
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparse_products_match_dense_contraction(data):
    A = data.draw(orders())
    n = A.dim
    a, b, v = (data.draw(elements(n)) for _ in range(3))
    S = cube(A)
    assert linalg.vectors_equal(A.multiply(a, b), dense_multiply(S, a, b))
    assert linalg.matrices_equal(gram_matrix(A, LinearForm(v)), dense_gram(S, v))
    assert all(isinstance(x, Fraction) for x in A.multiply(a, b))


def first_non_associative_triple(S):
    """Oracle: first (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k)."""
    left = np.tensordot(S, S, axes=([2], [0]))  # [i, j, k, n]
    right = np.tensordot(S, S, axes=([1], [2])).transpose(0, 2, 3, 1)
    n = S.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not linalg.vectors_equal(left[i, j, k], right[i, j, k]):
                    return (i, j, k)
    return None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_perturbed_structure_matches_associativity_oracle(data):
    A = data.draw(standard_orders())
    n = A.dim
    # perturbing products b_i b_j with neither factor the unit keeps it a unit
    units = [i for i in range(n) if linalg.vectors_equal(A.one, A.basis_element(i))]
    factors = st.sampled_from([i for i in range(n) if i not in units] or [0])
    S = cube(A)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(factors), data.draw(factors)
        k = data.draw(st.integers(0, n - 1))
        S[i, j, k] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    one = A.one
    if data.draw(st.booleans()):
        S, one = rebase(S, one, data.draw(unimodular(n, A.prime)))
    ident = linalg.identity(n)
    unital = linalg.matrices_equal(dense_left(S, one), ident) and linalg.matrices_equal(
        dense_right(S, one), ident
    )
    triple = first_non_associative_triple(S)
    if not unital:
        with pytest.raises(InvalidOrderError, match="unit fails"):
            dense_order(S, one, A.prime)
    elif triple is not None:
        with pytest.raises(InvalidOrderError) as err:
            dense_order(S, one, A.prime)
        assert str(err.value) == "not associative: basis triple (%d, %d, %d)" % triple
    else:
        assert np.array_equal(cube(dense_order(S, one, A.prime)), S)
