"""Reference character layer on ``Fraction`` object arrays.

These are the ``Fraction`` versions of what ``forms.central_characters``
and ``decomp`` compute on integer numerators over one denominator: the
central characters and idempotents from the inverse of the spectral
matrix, the witness test with the determinant of the regular Gram
matrix, the homomorphisms of the rational centre mod p from residues of
Fractions, both tests of the intersection criterion with Fraction
valuations and a Fraction integral kernel, and the congruence report.
Inverses, determinants and kernels come from ``fraction_linalg``, so
they share no arithmetic with the code under test.  The tests require
the library to give the same values, entry by entry.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from symorders import decomp, linalg
from symorders.forms import regular_character_form
from symorders.modp import FpAlgebra, nullspace
from symorders.padic import INFINITY, as_int, val

import fraction_linalg
from fraction_forms import gram_matrix
from fraction_linalg import residue_int


def centre(A) -> tuple:
    """The centre (Z, C, u) of ``Order.integer_centre`` as Fractions."""
    return tuple(linalg.from_numerators(*a) for a in A.integer_centre)


def central_characters(centre, characters) -> tuple:
    """(S, idempotents) on the Fraction centre (Z, C, u): S[i, chi] =
    chi(z_i) / chi(1), and e = Z (S^T)^{-1}, certified as the library
    certifies them, with the same messages."""
    Z, C, u = centre
    X = linalg.as_matrix(characters) @ Z  # chi(z_i)
    degrees = X @ u
    if X.shape[0] != X.shape[1] or 0 in degrees:
        raise ValueError(f"system inconsistent: {X.shape[0]} characters of degrees "
                         f"{', '.join(map(str, degrees))} on a centre of rank {X.shape[1]}")
    S = (X / degrees[:, None]).T
    try:
        E = Z @ fraction_linalg.inverse(S.T)
    except ValueError:
        raise ValueError("system inconsistent: central characters linearly dependent") from None
    if any(not linalg.matrices_equal(np.outer(w, w), C @ w) for w in S.T):
        raise ValueError("system inconsistent: a central character is not multiplicative")
    if not linalg.matrices_equal(E @ S.T, Z):
        raise AssertionError("centre basis differs from sum omega_chi(z) e_chi")
    return S, list(E.T.copy())


def rational_centre(A, table) -> SimpleNamespace:
    Z, C, u = centre(A)
    spectral, idempotents = central_characters((Z, C, u), table.values)
    return SimpleNamespace(basis=Z, idempotents=idempotents, spectral=spectral, table=C,
                           unit=u, rank=Z.shape[1])


def witness_test(A, table) -> decomp.WitnessTest:
    """The witness test with v_p(det G_rho) from the Fraction determinant
    of the regular Gram matrix and c_chi as Fractions."""
    p, idems = A.prime, rational_centre(A, table).idempotents
    G = gram_matrix(A, regular_character_form(A))
    det = fraction_linalg.det(G)
    if det == 0:
        raise ValueError("regular Gram matrix singular: K⊗A not separable")
    ranks, determinant = [], val(det, p)
    for chi, e in zip(table.values, idems):
        traces = G.T @ e  # rho(e_chi b_k)
        c = next(t / x for t, x in zip(traces, chi) if x)
        if c == 0 or not linalg.vectors_equal(traces, c * chi):
            raise ValueError("regular character on e_chi A is no multiple of chi")
        ranks.append(as_int(np.dot(A.regular_traces, e)))
        determinant -= ranks[-1] * val(c, p)
    families = []
    for columns in (idems, table.values):
        N, d = linalg.numerators(np.array([list(c) for c in columns], dtype=object).T)
        rows = list(dict.fromkeys(tuple(row) for row in N if any(row)))
        families.append((np.array(rows, dtype=object).reshape(-1, N.shape[1]), val(d, p)))
    return decomp.WitnessTest(p, *families, np.array(ranks, dtype=np.int64), determinant)


def central_homs(A, centre) -> list:
    """The distinct reductions mod p of the central characters, sorted,
    under the certificates of ``decomp._central_homs``."""
    p = A.prime
    if not linalg.is_integral(centre.spectral, p):
        raise AssertionError("spectral coordinates not p-integral")
    residues = np.vectorize(lambda c: residue_int(c, p, 1), otypes=[object])
    alg = FpAlgebra(p, centre.rank, residues(centre.table), residues(centre.unit))
    homs = sorted(set(map(tuple, residues(centre.spectral).T.tolist())))
    H = np.array(homs, dtype=object)
    if (H @ alg.one % p != 1).any() or any(((np.outer(h, h) - alg.table @ h) % p).any()
                                           for h in H):
        raise AssertionError("central character not a unital homomorphism mod p")
    if not alg.is_nilpotent_subspace(nullspace(H, p)):
        raise AssertionError("central characters miss a maximal ideal")
    return homs


def rational_intersection_criterion(A, table, D, sigma_tilde) -> SimpleNamespace:
    """Both tests of the criterion on Fractions: the orbit generator z0
    = p^shift sum (sigma~_chi / chi(1)) e_chi and its verdict, and the
    span test on the Fraction integral kernel."""
    sigma_tilde = linalg.as_vector(sigma_tilde)
    if any(x == 0 for x in sigma_tilde):
        raise ValueError("zero Schur coefficient")
    centre = rational_centre(A, table)
    p, homs = A.prime, central_homs(A, centre)
    spectrum = [s / d for s, d in zip(sigma_tilde, table.degrees)]
    w = sum((c * e for c, e in zip(spectrum, centre.idempotents)), A.zero())
    shift = -min(val(x, p) for x in w)
    z0 = w * Fraction(p) ** int(shift)
    if not linalg.is_integral(z0, p):
        raise AssertionError("scaled orbit element has non-ring coordinates")
    verdict = all(val(c, p) == -shift for c in spectrum)
    span = fraction_linalg.left_null_space(D.entries) @ (centre.spectral.T * sigma_tilde[:, None])
    Z_W = fraction_linalg.integral_kernel(span, p)
    morita_verdict = bool((np.array(homs, dtype=object) @ Z_W % p != 0).any(axis=1).all())
    return SimpleNamespace(verdict=verdict, morita_verdict=morita_verdict,
                           orbit_generator=z0, maximal_ideal_count=len(homs))


def congruence_analysis(A, table, sigma_tilde, n: int) -> list:
    """The congruence report on Fraction values and valuations."""
    p = A.prime
    w = [val(c, p) for c in linalg.as_vector(sigma_tilde)]
    out = []
    for b, chis in enumerate(table.values.T):
        levels = [w_i + val(chi_b, p) for w_i, chi_b in zip(w, chis)]
        mu = min(levels)
        if mu == INFINITY or mu >= n:
            continue
        terms = [(i, residue_int(chis[i] / Fraction(p) ** int(mu - w[i]), p, 1))
                 for i in range(len(chis)) if levels[i] == mu]
        ratio = None
        if len(terms) == 2:
            (i, ci), (j, cj) = terms
            ratio = (i, j, (-cj * pow(ci, -1, p)) % p)
        out.append(decomp.Congruence(basis_index=b, terms=tuple(terms), ratio=ratio))
    return out
