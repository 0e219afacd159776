"""Reference Gram matrices and dual bases on ``Fraction`` object arrays.

These are the ``Fraction`` versions of ``forms.gram_matrix``,
``forms._derive`` and ``Order.invert``, which the library runs on integer
numerators over the order's integer table.  Here every product is a
dense contraction of the structure constants as the dense cube of
Fractions of ``dense_orders.cube``, inverses come from the ``Fraction``
elimination of ``fraction_linalg``, G D = I is certified with a
``Fraction`` matrix product and centrality with the dense commutator
matrices.  The tests require the library to give the same arrays entry
by entry and to raise the same errors.
"""

from types import SimpleNamespace

import numpy as np

from symorders import linalg
from symorders.forms import NotSymmetrisingError
from symorders.orders import NotInvertibleError

import fraction_linalg
from dense_orders import commutator_rows, cube, left_matrix


def multiply(A, a, b) -> np.ndarray:
    return np.tensordot(a, np.tensordot(b, cube(A), axes=([0], [1])), axes=([0], [0]))


def gram_matrix(A, s) -> np.ndarray:
    """Matrix (s(b_i b_j))_{ij}."""
    return np.tensordot(cube(A), s.values, axes=([2], [0]))


def invert(A, a) -> np.ndarray:
    """a^{-1} in K⊗A, solving L(a) b = 1 for the dense left matrix;
    raises NotInvertibleError as ``Order.invert`` does."""
    try:
        return fraction_linalg.solve_exact(left_matrix(A, a), A.one)
    except ValueError:
        raise NotInvertibleError("not invertible in K⊗A") from None


def derive(A, s) -> SimpleNamespace:
    """The dual basis ``matrix`` of s with its ``gram`` matrix and
    ``casimir`` element, under the same certificates as
    ``forms._derive``."""
    G, p = gram_matrix(A, s), A.prime
    if not (linalg.matrices_equal(G, G.T) and linalg.is_integral(G, p)):
        raise NotSymmetrisingError("form not symmetrising")
    try:
        D = fraction_linalg.inverse(G)
    except ValueError:
        raise NotSymmetrisingError("form not symmetrising") from None
    if not linalg.is_integral(D, p):
        raise NotSymmetrisingError("form not symmetrising")
    if not linalg.matrices_equal(G @ D, linalg.identity(A.dim)):
        raise AssertionError("dual basis fails s(b_i x_j^v) = delta_ij")
    z = A.zero()
    z_rev = A.zero()
    for i in range(A.dim):
        b = A.basis_element(i)
        z = z + multiply(A, b, D[:, i])
        z_rev = z_rev + multiply(A, D[:, i], b)
    if not linalg.vectors_equal(z, z_rev):
        raise AssertionError("Casimir element differs from sum x^v x")
    if any(x != 0 for x in commutator_rows(A) @ z):
        raise AssertionError("Casimir element not central")
    if not A.has_ring_coords(z):
        raise AssertionError("Casimir element has non-ring coordinates")
    return SimpleNamespace(matrix=D, gram=G, casimir=z)


def casimir_inverse(A, s):
    """z^{-1} for the Casimir element z of :func:`derive`; raises
    NotInvertibleError as ``forms.casimir_inverse`` does."""
    return invert(A, derive(A, s).casimir)
