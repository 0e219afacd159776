"""Order generators, and the relations imposed on them alone.

Associativity, the module axioms, the intertwining equations of Hom
lattices and centrality are checked for generator rows only.  These
tests hold them against oracles that use every basis element.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symorders as so
from symorders import linalg
from symorders.builders import (
    character_ring,
    c2_character_ring_data,
    cyclic_group_table,
    four_dim_nonrational,
    group_algebra,
    hecke_rank1,
    klein_four_table,
    matrix_order,
    rank2_order,
    s3_character_ring_data,
    s3_fixture_bundle,
    symmetric_group_table,
)
from symorders.lattices import HomLattice, InvalidLatticeError, direct_sum, hom_lattice
from symorders.orders import direct_product, tensor_product
import fraction_lattices
import fraction_linalg
from dense_orders import cube, left_matrix
from test_orders import standard_orders


def closure_rank(A, gens) -> int:
    """Rank of the span of 1 under repeated left multiplication by b_g."""
    lefts = [left_matrix(A, A.basis_element(g)) for g in gens]
    basis = linalg.as_matrix([A.one])
    while True:
        rows = np.concatenate([basis] + [(L @ basis.T).T for L in lefts], axis=0)
        rank = len(fraction_linalg.eliminate(rows, A.dim))
        if rank == basis.shape[0]:
            return rank
        basis = rows[:rank]


BUILDER_ORDERS = {
    **{f"C{n}": lambda n=n: group_algebra(cyclic_group_table(n)[0], 5)[0] for n in (1, 2, 3, 6)},
    "V4": lambda: group_algebra(klein_four_table()[0], 2)[0],
    "S3": lambda: group_algebra(symmetric_group_table(3)[0], 3)[0],
    "S4": lambda: group_algebra(symmetric_group_table(4)[0], 2)[0],
    "s3-fixture": lambda: s3_fixture_bundle(3).order,
    "rank2-1-2": lambda: rank2_order(1, 2)[0],
    "rank2-3-5": lambda: rank2_order(3, 5)[0],
    "hecke-3": lambda: hecke_rank1(3, 2)[0],
    "four-dim-3": lambda: four_dim_nonrational(3)[0],
    **{f"M{n}": lambda n=n: matrix_order(n, 2)[0] for n in (1, 2, 3)},
    "chars-S3": lambda: character_ring(*s3_character_ring_data(), 5)[0],
    "chars-C2": lambda: character_ring(*c2_character_ring_data(), 3)[0],
    "rank2-x-hecke": lambda: direct_product(rank2_order(1, 2)[0], hecke_rank1(3, 2)[0]),
    "rank2-o-hecke": lambda: tensor_product(rank2_order(1, 2)[0], hecke_rank1(3, 2)[0]),
}


@pytest.mark.parametrize("name", BUILDER_ORDERS)
def test_generators_span_the_rational_algebra(name):
    A = BUILDER_ORDERS[name]()
    gens = A.generators
    assert closure_rank(A, gens) == A.dim
    # greedy in index order: each generator is new, each skipped index is not
    for k, g in enumerate(gens):
        for i in range(gens[k - 1] + 1 if k else 0, g + 1):
            in_span = closure_rank(A, gens[:k] + (i,)) == closure_rank(A, gens[:k])
            assert in_span == (i != g)


def test_s4_needs_few_generators():
    A, _ = group_algebra(symmetric_group_table(4)[0], 3)
    assert len(A.generators) <= 3


def test_dimension_one_order_has_every_matrix_as_homomorphism():
    A, _ = matrix_order(1, 2)
    assert A.generators == ()
    assert linalg.matrices_equal(A.integer_centre[0][0], linalg.identity(1))
    assert A.is_central(A.basis_element(0))
    U = so.make_lattice(A, [linalg.identity(2)])
    V = so.make_lattice(A, [linalg.identity(3)])
    H = hom_lattice(A, U, V)
    assert H.rank == 6
    assert H.integer_basis[1] % A.prime  # one unit denominator: an integral basis
    # the six matrix units E_ab, flattened row by row, and the matrix of halves
    assert H._coords(np.identity(6, dtype=object), 1) is not None
    assert H._coords(np.ones((6, 1), dtype=object), 2) is None


# -- Hom lattices against the all-blocks kernel ------------------------------


def all_blocks_hom_basis(A, U, V) -> tuple:
    """Oracle: saturated kernel of phi act_U(b_i) = act_V(b_i) phi for every i."""
    iu, iv = linalg.identity(U.rank), linalg.identity(V.rank)
    act_u, act_v = fraction_lattices.action(U), fraction_lattices.action(V)
    rows = np.concatenate(
        [np.kron(act_v[i], iu) - np.kron(iv, np.array(act_u[i].T))
         for i in range(A.dim)],
        axis=0,
    )
    kernel = fraction_linalg.integral_kernel(rows, A.prime)
    return tuple(np.array(kernel[:, j]).reshape(V.rank, U.rank)
                 for j in range(kernel.shape[1]))


@st.composite
def lattice_pair(draw):
    """An order and two lattices over it, each its regular lattice or, on
    small orders, the direct sum of two copies."""
    A = draw(standard_orders())
    R = so.regular_lattice(A)
    choices = [R, direct_sum(R, R)] if A.dim <= 3 else [R]
    return A, draw(st.sampled_from(choices)), draw(st.sampled_from(choices))


@settings(max_examples=25, deadline=None)
@given(lattice_pair())
def test_hom_lattice_spans_the_all_blocks_kernel(pair):
    A, U, V = pair
    H = hom_lattice(A, U, V)
    basis = all_blocks_hom_basis(A, U, V)
    oracle = HomLattice(U, V, linalg.numerators(
        np.array(basis, dtype=object).reshape(len(basis), V.rank, U.rank)))
    assert H.rank == oracle.rank
    if H.rank:
        ours = fraction_lattices.flat(linalg.from_numerators(*H.integer_basis))
        assert oracle._coords(*linalg.numerators(ours)) is not None
        assert H._coords(*linalg.numerators(fraction_lattices.flat(basis))) is not None


# -- make_lattice names the first failing pair --------------------------------


def first_failing_pair(S, mats):
    """Oracle: first (i, j) with act(b_i) act(b_j) != sum_k c_ijk act(b_k)."""
    n = S.shape[0]
    for i in range(n):
        for j in range(n):
            rhs = sum((S[i, j, k] * mats[k] for k in range(n)), linalg.zeros(*mats[0].shape))
            if not linalg.matrices_equal(mats[i] @ mats[j], rhs):
                return (i, j)
    return None


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_make_lattice_error_names_the_first_failing_pair(data):
    A = data.draw(standard_orders())
    R = so.regular_lattice(A)
    U = data.draw(st.sampled_from([R, direct_sum(R, R)] if A.dim <= 3 else [R]))
    # conjugate by a diagonal matrix of units, so that entries get unit
    # denominators, then change one entry
    units = st.sampled_from([d for d in (1, 2, 3, 5, 7) if d % A.prime])
    d = [data.draw(units) for _ in range(U.rank)]
    mats = [linalg.as_matrix([[m[a, b] * Fraction(d[b], d[a]) for b in range(U.rank)]
                              for a in range(U.rank)]) for m in fraction_lattices.action(U)]
    i = data.draw(st.integers(0, A.dim - 1))
    a, b = (data.draw(st.integers(0, U.rank - 1)) for _ in range(2))
    mats[i][a, b] += data.draw(st.sampled_from([-2, -1, 1, 2])) * Fraction(1, data.draw(units))
    unit = sum((c * m for c, m in zip(A.one, mats)), linalg.zeros(U.rank, U.rank))
    pair = first_failing_pair(cube(A), mats)
    if not linalg.matrices_equal(unit, linalg.identity(U.rank)):
        with pytest.raises(InvalidLatticeError, match="unit acts nontrivially"):
            so.make_lattice(A, mats)
    elif pair is not None:
        with pytest.raises(InvalidLatticeError) as err:
            so.make_lattice(A, mats)
        assert str(err.value) == "module axiom fails: basis pair (%d, %d)" % pair
    else:
        so.make_lattice(A, mats)
