"""Dense structure-constant cubes for the oracle tests.

The library keeps an order's structure constants only as its integer
table (``Order.products``) and builds orders from their nonzero entries
(i, j, k, c).  The oracles contract the dense cube S[i, j, k] = c_ijk of
Fractions instead; these helpers convert between the two.
"""

from fractions import Fraction

import numpy as np

import symorders as so


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
