"""Reference witness test that expands the Gram matrix and its inverse.

``decomp`` decides a candidate f_a = sum a_chi chi by one determinant
valuation on the centre.  This is the earlier test it replaced, kept as
an oracle: the Gram matrix G = G_{f_a} and its inverse expanded into dim^2
integer rows each.  With the central idempotents e_chi and the scalars
rho(e_chi x) = c_chi chi(x), G = L(u)^T G_rho for u = sum (a_chi / c_chi)
e_chi, so G^{-1} = sum (c_chi / a_chi) G_rho^{-1} L(e_chi)^T when no a_chi
is 0, for L(x) the matrix of y -> x y.  The rows come from the inverse of
G_rho and one Gram matrix per character, and :func:`levels` reads the
least valuations of G and G^{-1} off them, on Python ints.  The tests
require ``box_scan.levels`` to give the same (e, m0) entry by entry.
"""

from dataclasses import dataclass

import numpy as np

from symorders import decomp, linalg
from symorders.forms import LinearForm, gram_matrix, kept, regular_character_form
from symorders.padic import int_val

from box_scan import valuations
from dense_orders import left_matrix


@dataclass(frozen=True, eq=False)
class GramWitnessTest:
    """Each family is (rows, v_p(d)): the distinct nonzero coefficient
    rows of one expansion, as integers over one denominator d;
    ``idempotents`` and ``gram`` expand sum a_chi e_chi and G in the
    a_chi, and ``inverse`` expands G^{-1} in the 1 / a_chi."""

    p: int
    idempotents: tuple
    gram: tuple
    inverse: tuple


def witness_test(A, table) -> GramWitnessTest:
    """Derived on first use with A and kept on the table."""
    return kept(table._kept, "gram_witness_test", (A,), lambda: _derive(A, table))


def _derive(A, table) -> GramWitnessTest:
    idems = linalg.from_numerators(*decomp.rational_centre(A, table).integer_idempotents).T
    G_rho = gram_matrix(A, regular_character_form(A))
    G_rho_inv = linalg.inverse(G_rho)
    grams, inverses = [], []
    for chi, e in zip(table.values, idems):
        traces = G_rho.T @ e  # rho(e b_i)
        c = next(t / x for t, x in zip(traces, chi) if x)
        assert c != 0 and linalg.vectors_equal(traces, c * chi)
        N = gram_matrix(A, LinearForm(chi))
        assert linalg.matrices_equal(N, N.T)
        grams.append(N.flat)
        inverses.append((c * G_rho_inv @ left_matrix(A, e).T).flat)
    families = []
    for columns in (idems, grams, inverses):
        N, d = linalg.numerators(np.array([list(c) for c in columns], dtype=object).T)
        rows = list(dict.fromkeys(tuple(row) for row in N if any(row)))
        families.append((np.array(rows, dtype=object).reshape(-1, N.shape[1]),
                         int_val(d, A.prime)))
    return GramWitnessTest(A.prime, *families)


def levels(test: GramWitnessTest, S, d) -> tuple:
    """(e, m0) for the candidates a = S_c / d_c, as ``box_scan.levels``
    defines them: f_a is a witness when no a_chi is 0, m0 is the least
    valuation of an entry of G, and every entry of G^{-1} = d_c / P (the
    ``inverse`` rows applied to Q) has valuation >= -m0, for P the
    product of the S_c,chi and Q_chi = P / S_c,chi."""
    p = test.p
    S, d = S.astype(object), d.astype(object)

    def level(family, X):
        return valuations(X @ family[0].T.astype(object), p) - family[1]

    vd = valuations(d[:, None], p)
    e = vd - level(test.idempotents, S)
    m0 = level(test.gram, S) - vd
    nonzero = (S != 0).all(axis=1)
    S = np.where(nonzero[:, None], S, 1)  # those rows are rejected anyway
    P = np.prod(S, axis=1)
    inverse = level(test.inverse, P[:, None] // S) + vd - valuations(P[:, None], p)
    return e, np.where(nonzero & (inverse >= -m0), m0, -2**40)
