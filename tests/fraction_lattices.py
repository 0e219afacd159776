"""Reference Hom-layer computations on ``Fraction`` object arrays.

These are the entry-by-entry ``Fraction`` versions of what ``lattices``
and ``decomp`` now compute on integer numerators over one unit
denominator: the intertwining rows of a Hom lattice as Kronecker blocks,
the relative traces of the elementary matrices as sums of outer
products, the stable Hom group from the Smith form of the coordinates
of the projective homs, the classes of intertwiners in it, the Tate
pairing as tr(act_U(z^{-1}) h g), the plain and twisted traces of a hom
basis, the multiplication table of End(U) mod p from products of the
basis matrices, and the Gram test of a character combination.  They use
``fraction_linalg`` for their kernels and eliminations, so they share no
arithmetic with the code under test.
"""

from fractions import Fraction

import numpy as np

from symorders import linalg
from symorders.forms import LinearForm, casimir_inverse, dual_basis, gram_matrix
from symorders.modp import rref
from symorders.padic import int_val
import fraction_linalg
from fraction_linalg import residue_int


def trace(M) -> Fraction:
    return sum((M[i, i] for i in range(M.shape[0])), Fraction(0))


def twisted_action(A, s, U) -> np.ndarray:
    """act_U(z^{-1}) for the Casimir element z of s."""
    return linalg.from_numerators(*U.integer_act(casimir_inverse(A, s)))


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
    acts_dual = [linalg.from_numerators(*U.integer_act(d.element(i))) for i in range(A.dim)]
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
        out = out + m @ linalg.as_matrix(alpha) @ linalg.from_numerators(
            *U.integer_act(d.element(i)))
    return out


def flat(mats) -> np.ndarray:
    """The matrices flattened row by row, as the columns of one matrix."""
    return np.array([np.array(m).reshape(-1) for m in mats], dtype=object).T


class StableHom:
    """Hom(U, V) modulo the relatively projective homs: the exponents of
    the Smith form of the coordinates C of the projective basis in the hom
    basis H, the generators H C R / p^(d_i) on the torsion columns of the
    right transform R, and the torsion rows of the left transform."""

    def __init__(self, A, s, U, V):
        p, rv, ru = A.prime, V.rank, U.rank
        self.prime = p
        self.hom = hom_basis(A, U, V)
        P = fraction_linalg.lattice_basis_from_generators(
            relative_trace_generators(A, s, U, V), p)
        self._H = flat(self.hom) if self.hom else linalg.zeros(rv * ru, 0)
        C = fraction_linalg.solve_exact(self._H, P)
        assert C is not None and linalg.is_integral(C, p)
        snf = fraction_linalg.smith_normal_form(C, p)
        assert snf.rank == C.shape[0]
        torsion = [i for i, e in enumerate(snf.exponents) if e > 0]
        self.exponents = tuple(snf.exponents[i] for i in torsion)
        self.generators = []
        for i in torsion:
            f = C.dot(snf.right[:, i]) / Fraction(p) ** snf.exponents[i]
            g = linalg.zeros(rv, ru)
            for c, m in zip(f, self.hom):
                g = g + c * m
            self.generators.append(g)
        self._left = snf.left[torsion]

    def class_of(self, M) -> tuple:
        coords = fraction_linalg.solve_exact(self._H, np.array(M).reshape(-1))
        assert coords is not None and linalg.is_integral(coords, self.prime)
        return tuple(residue_int(c, self.prime, d)
                     for c, d in zip(self._left.dot(coords), self.exponents))


def pairing_values(A, s, U, S_uv, S_vu) -> np.ndarray:
    """tr(act_U(z^{-1}) h g) for the generators g of S_uv and h of S_vu."""
    zu = twisted_action(A, s, U)
    values = [[trace(zu @ h @ g) for h in S_vu.generators] for g in S_uv.generators]
    return np.array(values, dtype=object).reshape(len(S_uv.generators), len(S_vu.generators))


def basis_traces(A, s, U, basis) -> tuple:
    """The traces tr(M) and the twisted traces tr(act_U(z^{-1}) M) of the
    endomorphisms M of U."""
    zu = twisted_action(A, s, U)
    return [trace(M) for M in basis], [trace(zu @ M) for M in basis]


def residue_algebra(A, E) -> tuple:
    """(table, one) of End(U) mod p on the hom basis E: the coordinates
    of the products of basis matrices and of the identity, mod p."""
    e, p, basis = E.rank, A.prime, linalg.from_numerators(*E.integer_basis)
    B = np.array([np.array(m).reshape(-1) for m in basis], dtype=object).T
    products = [np.array(basis[i] @ basis[j]).reshape(-1)
                for i in range(e) for j in range(e)]
    rhs = np.array(products + [np.array(linalg.identity(E.source.rank)).reshape(-1)],
                   dtype=object).T
    coords = fraction_linalg.solve_exact(B, rhs)
    assert coords is not None and linalg.is_integral(coords, p)
    residues = [[residue_int(c, p, 1) for c in coords[:, k]] for k in range(e * e + 1)]
    table = np.array(residues[:-1], dtype=np.int64).reshape(e, e, e)
    return table, np.array(residues[-1])


def character_form(table, a):
    """The form sum a_chi chi on Fractions."""
    return LinearForm(np.tensordot(linalg.as_vector(a), table.values, axes=([0], [0])))


def gram_candidate(A, table, a):
    """(n, p^-n f) when the Gram matrix G of f = sum a_chi chi is a
    symmetric ring matrix and G / p^n is unimodular for n the least
    valuation of an entry; else None."""
    p = A.prime
    f = character_form(table, a)
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
