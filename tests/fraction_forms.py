"""Reference Gram matrices and dual bases on ``Fraction`` object arrays.

These are the ``Fraction`` versions of ``forms.gram_matrix`` and
``forms._derive``, which the library runs on integer numerators over the
order's integer table.  Here every product is a dense contraction of the
structure constants as the dense cube of Fractions of ``dense_orders.cube``, the inverse comes from
the ``Fraction`` elimination of ``fraction_linalg`` and G D = I is
certified with a ``Fraction`` matrix product.  The tests require the
library to give the same arrays entry by entry and to raise the same
errors.
"""

import numpy as np

from symorders import linalg
from symorders.forms import DualBasis, NotSymmetrisingError

import fraction_linalg
from dense_orders import cube


def multiply(A, a, b) -> np.ndarray:
    return np.tensordot(a, np.tensordot(b, cube(A), axes=([0], [1])), axes=([0], [0]))


def gram_matrix(A, s) -> np.ndarray:
    """Matrix (s(b_i b_j))_{ij}."""
    return np.tensordot(cube(A), s.values, axes=([2], [0]))


def derive(A, s) -> DualBasis:
    """The dual basis of s with its Casimir element, under the same
    certificates as ``forms._derive``."""
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
    if not A.is_central(z):
        raise AssertionError("Casimir element not central")
    if not A.has_ring_coords(z):
        raise AssertionError("Casimir element has non-ring coordinates")
    return DualBasis(A, D, G, z)


def casimir_inverse(A, s):
    """z^{-1} for the Casimir element z of :func:`derive`; raises
    NotInvertibleError as ``forms.casimir_inverse`` does."""
    return A.invert(derive(A, s).casimir)
