"""Reference Hom-layer computations on ``Fraction`` object arrays.

These are the entry-by-entry ``Fraction`` versions of what ``lattices``
and ``decomp`` now compute on integer numerators over one unit
denominator: the intertwining rows of a Hom lattice as Kronecker blocks,
the relative traces of the elementary matrices as sums of outer
products, the multiplication table of End(U) mod p from products of the
basis matrices, and the Gram test of a character combination.  They use
``fraction_linalg`` for their kernels and eliminations, so they share no
arithmetic with the code under test.
"""

from fractions import Fraction

import numpy as np

from symorders import linalg
from symorders.forms import dual_basis, gram_matrix
from symorders.modp import rref
from symorders.padic import int_val, residue_int
import fraction_linalg


def action(U) -> tuple:
    """The action matrices N[k] / q of a lattice, as Fraction matrices."""
    return tuple(linalg.from_numerators(*U.integer_action))


def hom_basis(A, U, V) -> tuple:
    """Saturated kernel of phi act_U(b_g) = act_V(b_g) phi for the generators g."""
    iu, iv = linalg.identity(U.rank), linalg.identity(V.rank)
    act_u, act_v = action(U), action(V)
    blocks = [np.kron(act_v[g], iu) - np.kron(iv, np.array(act_u[g].T))
              for g in A.generators]
    rows = np.concatenate([linalg.zeros(0, U.rank * V.rank)] + blocks, axis=0)
    kernel = fraction_linalg.integral_kernel(rows, A.prime)
    return tuple(np.array(kernel[:, j]).reshape(V.rank, U.rank)
                 for j in range(kernel.shape[1]))


def relative_trace_generators(A, s, U, V) -> np.ndarray:
    """Columns: the relative traces of the elementary matrices E_ab,
    flattened row by row, in the order (a, b)."""
    d = dual_basis(A, s)
    acts_dual = [U.act(d.element(i)) for i in range(A.dim)]
    act_v = action(V)
    gens = []
    for a in range(V.rank):
        for b in range(U.rank):
            T = linalg.zeros(V.rank, U.rank)
            for i in range(A.dim):
                T = T + np.outer(act_v[i][:, a], acts_dual[i][b, :])
            gens.append(np.array(T).reshape(-1))
    return np.array(gens, dtype=object).T


def relative_trace_hom(A, s, U, V, alpha) -> np.ndarray:
    """sum_x act_V(x) alpha act_U(x^v)."""
    d = dual_basis(A, s)
    out = linalg.zeros(V.rank, U.rank)
    for i, m in enumerate(action(V)):
        out = out + m @ linalg.as_matrix(alpha) @ U.act(d.element(i))
    return out


def residue_algebra(A, E) -> tuple:
    """(table, one) of End(U) mod p on the hom basis E: the coordinates
    of the products of basis matrices and of the identity, mod p."""
    e, p = E.rank, A.prime
    B = np.array([np.array(m).reshape(-1) for m in E.basis], dtype=object).T
    products = [np.array(E.basis[i] @ E.basis[j]).reshape(-1)
                for i in range(e) for j in range(e)]
    rhs = np.array(products + [np.array(linalg.identity(E.source.rank)).reshape(-1)],
                   dtype=object).T
    coords = fraction_linalg.solve_exact(B, rhs)
    assert coords is not None and linalg.is_integral(coords, p)
    residues = [[residue_int(c, p, 1) for c in coords[:, k]] for k in range(e * e + 1)]
    table = np.array(residues[:-1], dtype=np.int64).reshape(e, e, e)
    return table, np.array(residues[-1])


def gram_candidate(A, table, a):
    """(n, p^-n f) when the Gram matrix G of f = sum a_chi chi is a
    symmetric ring matrix and G / p^n is unimodular for n the least
    valuation of an entry; else None."""
    p = A.prime
    f = table.form_from_coefficients(a)
    G = gram_matrix(A, f)
    if not (linalg.matrices_equal(G, G.T) and linalg.is_integral(G, p)):
        return None
    n = min((int_val(x.numerator, p) for x in G.flat if x), default=None)
    if n is None:
        return None
    residues = [[x.numerator // p**n * pow(x.denominator, -1, p) for x in row] for row in G]
    if len(rref(residues, p)[1]) < G.shape[0]:
        return None
    return n, f.scale(Fraction(1, p**n))
