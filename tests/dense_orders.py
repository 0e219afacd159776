"""Dense structure-constant cubes and Fraction centres for the oracle
tests.

The library keeps an order's structure constants only as its integer
table (``Order.products``) and builds orders from their nonzero entries
(i, j, k, c).  The oracles contract the dense cube S[i, j, k] = c_ijk of
Fractions instead; these helpers convert between the two.  The left
matrix of an element, its trace and the unit test are read off the
cube.  The centre and the central idempotents, which the library reads
off the centre's own table, are derived here from stacked Fraction
commutator matrices, one linear solve per character.
"""

from fractions import Fraction

import numpy as np

import symorders as so
from symorders import linalg


def cube(A) -> np.ndarray:
    """The structure constants of A as a dense (dim, dim, dim) cube."""
    S = np.empty((A.dim,) * 3, dtype=object)
    S[:] = Fraction(0)
    for i, j, k, c in A.constants():
        S[i, j, k] = c
    return S


def entries(S) -> list:
    """The nonzero entries (i, j, k, c) of a dense cube."""
    return [(i, j, k, c) for (i, j, k), c in np.ndenumerate(np.asarray(S, dtype=object)) if c]


def dense_order(S, one, p):
    """make_order on the nonzero entries of a dense cube."""
    return so.make_order(entries(S), one, p)


def left_matrix(A, a) -> np.ndarray:
    """Matrix of x -> a x on the basis (columns are a b_j)."""
    return np.tensordot(linalg.as_vector(a), cube(A), axes=([0], [0])).T


def regular_character(A, a) -> Fraction:
    """Trace of left multiplication by a, on the left matrix."""
    return sum(left_matrix(A, a).diagonal())


def is_unit(A, a) -> bool:
    """a, with ring coordinates, has an inverse in the order: a b = 1 has
    a rational solution b, found on the left matrix, with ring
    coordinates."""
    if not A.has_ring_coords(a):
        raise ValueError("is_unit needs ring coordinates")
    try:
        b = linalg.solve_exact(left_matrix(A, a), A.one)
    except ValueError:  # left multiplication is singular
        return False
    return A.has_ring_coords(b)


def commutator_rows(A) -> np.ndarray:
    """The Fraction matrices L(b_g) - R(b_g) of x -> b_g x - x b_g for the
    generators g, read off the dense cube and stacked vertically: their
    common kernel is the centre."""
    S = cube(A)
    return np.concatenate([linalg.zeros(0, A.dim)] + [(S[g] - S[:, g]).T for g in A.generators],
                          axis=0)


def center_basis(A) -> np.ndarray:
    """Saturated lattice basis (columns) of the centre."""
    return linalg.integral_kernel(commutator_rows(A), A.prime)


def central_idempotents(A, characters) -> list:
    """For each character chi, the central e with chi(e) = chi(1) and
    chi'(e) = 0 for the other characters, by one linear solve; each is
    checked idempotent."""
    chars = linalg.as_matrix(characters)
    r = chars.shape[0]
    central_rows = commutator_rows(A)
    out = []
    for k in range(r):
        rows = np.concatenate([central_rows, chars], axis=0)
        rhs = linalg.zero_vector(central_rows.shape[0] + r)
        rhs[central_rows.shape[0] + k] = np.dot(chars[k], A.one)
        try:
            e = linalg.solve_exact(rows, rhs)
        except ValueError:
            e = None
        if e is None:
            raise ValueError("system inconsistent")
        if not A.is_idempotent(e):
            raise ValueError("system inconsistent: solution not idempotent")
        out.append(e)
    return out
