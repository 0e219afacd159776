"""Symmetrising forms, dual bases, Casimir elements, and the projective
scalar property.

A linear form on an order is symmetrising when it is a trace form
(s(ab) = s(ba)) and its Gram matrix on the basis is ring-valued with
unit determinant; the induced self-duality then produces a dual basis,
a relative trace map and the central Casimir element z = sum x x^v.

The exact work runs on integer numerators: Gram matrices are one
contraction of the order's integer table (:attr:`Order.products`) with
the numerators of the form's values, the dual basis of every form
(bundle forms, twists and witnesses alike) is G^{-1} from one exact
solve on the integer numerators of G, and it is certified on integers
(G D = I as an integer product, the Casimir element and its reverse as
two contractions of the numerators of D with the table).  Fractions are
built only for results: the values of forms, the Casimir element and
its inverse, and, on first read, the matrix of :class:`DualBasis`.
Each datum is derived where it is read and kept on its form: the Gram
numerators, the dual basis, and z^{-1} only for the Casimir-orbit
search and the twisted traces of ``lattices``.

Two independent algorithms decide whether some symmetrising form has a
scalar Casimir p^n 1 (the projective scalar property):

* :func:`psp_direct` searches the finitely many scalars p^t for which
  both p^{-t} z and p^t z^{-1} lie in the order; a hit produces a
  central unit twisting the form to one with Casimir p^t 1.
* :func:`psp_regular_gram` tests whether the Gram matrix of the regular
  character is p^n times a ring-invertible matrix, which requires the
  rational algebra to be split semisimple.

The regular character is rho = s(z .), so the twist of the first is
p^{-t} rho, the witness of the second: one form, kept with rho on the
order and certified once.

The central characters chi / chi(1) are the ring homomorphisms of the
centre, and the central idempotents the basis dual to them, both read
off the centre's integer table and the characters' numerators with one
integer solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import linalg
from .orders import Order, NotInvertibleError
from .padic import INFINITY, int_val, integral_over, val, scalar_to_str


class NotSymmetrisingError(ValueError):
    pass


class RegularGramSingularError(ValueError):
    pass


class LinearForm:
    """Linear functional on an order, given by its values on the basis.

    The values are read-only, so the data derived from the form with an
    order (see :func:`dual_basis`) stays valid for as long as the form
    lives, and is kept on it.
    """

    def __init__(self, values):
        self.values = _read_only(linalg.as_vector(values))
        self._kept = {}  # see kept()

    def __call__(self, coords) -> Fraction:
        return np.dot(self.values, linalg.as_vector(coords))

    def __eq__(self, other):
        return isinstance(other, LinearForm) and linalg.vectors_equal(
            self.values, other.values
        )

    def __repr__(self):
        return "LinearForm([%s])" % ", ".join(scalar_to_str(v) for v in self.values)

    def scale(self, c) -> "LinearForm":
        return LinearForm(self.values * Fraction(c))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def kept(cache: dict, name, objects: tuple, build):
    """build(), kept in cache under name and the ids of objects, and so is
    a ValueError that it raises, a refusal.  The entry holds the objects,
    so no other object takes their ids while it lives."""
    key = (name, *map(id, objects))
    if key not in cache:
        try:
            cache[key] = (objects, build())
        except ValueError as refusal:
            cache[key] = (objects, refusal)
            raise
    if isinstance(value := cache[key][1], ValueError):
        raise value.with_traceback(None)
    return value


def regular_character_form(A: Order) -> LinearForm:
    """The trace rho of the left regular representation as a linear form,
    kept on the order."""
    return kept(A._kept, "regular_character", (), lambda: LinearForm(A.regular_traces))


def _regular_witness(A: Order, n: int) -> LinearForm:
    """The form p^{-n} rho, kept on rho for each n.  rho = s(z .) for
    every symmetrising form s with Casimir element z, so this is the one
    form with Casimir p^n 1 that either psp algorithm can find."""
    rho = regular_character_form(A)
    return kept(rho._kept, ("witness", n), (A,), lambda: rho.scale(Fraction(1, A.prime**n)))


def _gram_numerators(A: Order, s: LinearForm) -> tuple:
    """(N, g): the Gram matrix of s as rows N[i], tuples of integers, over
    one denominator g; derived on first use with A and kept on the form.
    With the table's numerators d c_ijk over d and the values of s as
    numerators v over e, N[i][j] = sum_k (d c_ijk) v_k and g = d e."""
    def build() -> tuple:
        v, e = linalg.numerators(s.values)
        v = v.tolist()
        N = []
        for row in A.products:
            Ni = [0] * A.dim
            for j, prods in enumerate(row):
                for k, c in prods:
                    Ni[j] += c * v[k]
            N.append(tuple(Ni))
        return tuple(N), A.denominator * e

    return kept(s._kept, "gram", (A,), build)


def gram_matrix(A: Order, s: LinearForm) -> np.ndarray:
    """Matrix (s(b_i b_j))_{ij}, contracted on integers over the nonzero
    structure constants."""
    return linalg.from_numerators(*_gram_numerators(A, s))


def is_symmetrising(A: Order, s: LinearForm) -> bool:
    """Trace property plus unimodular ring Gram matrix, which is whether
    :func:`dual_basis` derives (and keeps) the form's data."""
    try:
        dual_basis(A, s)
    except NotSymmetrisingError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class DualBasis:
    """Dual basis of a symmetrising form s, with what it determines.

    Columns of ``matrix`` are the elements x_j^v with s(b_i x_j^v) =
    delta_ij, so ``matrix`` is the inverse of the Gram matrix.  It is
    held as integers: ``integer_matrix`` is (M, d), an integer array over
    the least common denominator d of its entries (a unit), and
    ``matrix`` is ``linalg.from_numerators(*integer_matrix)``.
    ``casimir`` is z = sum_x x x^v; its inverse is derived apart, when
    read (:func:`casimir_inverse`).  Every array is read-only.
    """

    integer_matrix: tuple
    casimir: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        return _read_only(linalg.from_numerators(*self.integer_matrix))

    def element(self, j: int) -> np.ndarray:
        return np.array(self.matrix[:, j])


def dual_basis(A: Order, s: LinearForm) -> DualBasis:
    """Dual basis D = G^{-1} of a symmetrising form with Gram matrix G.

    It is derived and certified on first use with A, then kept on the
    form (see :func:`kept`).
    """
    return kept(s._kept, "dual_basis", (A,), lambda: _derive(A, s))


def _derive(A: Order, s: LinearForm) -> DualBasis:
    """Derive and certify the dual basis of a symmetrising form.

    Since s(b_i x) = (G x)_i for every x, the defining condition
    s(b_i x_j^v) = delta_ij is exactly G D = I.  A ring matrix G is
    unimodular exactly when its inverse D exists and has ring entries.
    G is inverted on its integer numerators, D = g N^{-1}, by solving
    N D = g I (:func:`linalg.solve_of_rows`).  The certificates run on
    integers: with G = N / g and D = M / d, G D = I is the integer
    product N M = g d I, and the Casimir element z = sum_i b_i x_i^v and
    sum_i x_i^v b_i are two contractions of M with the table, over d
    times its denominator, certified equal.  z is certified to be
    central and to have ring coordinates.
    """
    N, g = _gram_numerators(A, s)
    p, n = A.prime, A.dim
    q = p ** int_val(g, p)  # G has ring entries when q divides every N_ij
    if any(N[i][j] != N[j][i] or N[i][j] % q for i in range(n) for j in range(i + 1)):
        raise NotSymmetrisingError("form not symmetrising")
    # D = g N^{-1} solves N D = g 1
    rows = [[*row, *(g if k == i else 0 for k in range(n))] for i, row in enumerate(N)]
    try:
        M, d = linalg.solve_of_rows(rows, n)
    except ValueError:
        raise NotSymmetrisingError("form not symmetrising") from None
    if d % p == 0:
        raise NotSymmetrisingError("form not symmetrising")
    D_rows = [[(j, y) for j, y in enumerate(row) if y] for row in M]
    for i, row in enumerate(N):
        GD = [0] * n
        for k, x in enumerate(row):
            if x:
                for j, y in D_rows[k]:
                    GD[j] += x * y
        GD[i] -= g * d
        if any(GD):
            raise AssertionError("dual basis fails s(b_i x_j^v) = delta_ij")
    # D[j, i] = x / d adds x b_i b_j / d to z and x b_j b_i / d to sum x^v b
    z, z_rev = [0] * n, [0] * n
    for j, row in enumerate(D_rows):
        for i, x in row:
            for k, c in A.products[i][j]:
                z[k] += x * c
            for k, c in A.products[j][i]:
                z_rev[k] += x * c
    if z != z_rev:
        raise AssertionError("Casimir element differs from sum x^v x")
    if not A._central([(k, x) for k, x in enumerate(z) if x]):
        raise AssertionError("Casimir element not central")
    if not integral_over(z, d * A.denominator, p):
        raise AssertionError("Casimir element has non-ring coordinates")
    z = _read_only(linalg.from_numerators(z, d * A.denominator))
    return DualBasis((_read_only(np.array(M, dtype=object)), d), z)


def casimir(A: Order, s: LinearForm) -> np.ndarray:
    """Central Casimir element sum_x x x^v of a symmetrising form."""
    return dual_basis(A, s).casimir


def casimir_inverse(A: Order, s: LinearForm) -> np.ndarray:
    """Inverse of the Casimir element in the rational algebra, read-only;
    raises NotInvertibleError when the rational algebra is not separable.
    Derived on first use with A, certified z z^{-1} = 1 by
    :meth:`Order.invert`, and kept on the form."""
    return kept(s._kept, "casimir_inverse", (A,),
                lambda: _read_only(A.invert(casimir(A, s))))


def relative_trace(A: Order, s: LinearForm, a) -> np.ndarray:
    """Relative trace sum_x x a x^v; lands in the center."""
    d = dual_basis(A, s)
    out = A.zero()
    for i in range(A.dim):
        out = out + A.multiply(A.multiply(A.basis_element(i), a), d.element(i))
    if not A.is_central(out):
        raise AssertionError("relative trace not central")
    return out


def twist_form(A: Order, s: LinearForm, z) -> LinearForm:
    """The form a -> s(z a) for a central unit z.

    Its values are the row-matrix product z G for the Gram matrix G of s,
    since s(z b_i) = sum_j z_j s(b_j b_i); only the rows of G where z is
    nonzero are contracted, on integers.  The twist of a symmetrising
    form is again symmetrising, with dual basis z^{-1} D and Casimir
    element z^{-1} times that of s; :func:`dual_basis` derives them when
    read, as for any form.
    """
    z = A.element(z)
    if not (A.has_ring_coords(z) and A.is_central(z)):
        raise ValueError("not a central unit")
    try:
        u = A.invert(z)
    except NotInvertibleError:
        raise ValueError("not a central unit") from None
    if not A.has_ring_coords(u):
        raise ValueError("not a central unit")
    return _twist(A, s, *linalg.numerators(z))


def _twist(A: Order, s: LinearForm, w, e: int) -> LinearForm:
    """:func:`twist_form` by the central unit w / e, for integers w."""
    N, g = _gram_numerators(A, s)
    terms = [(j, x) for j, x in enumerate(w) if x]
    values = [sum(x * N[j][i] for j, x in terms) for i in range(A.dim)]
    return LinearForm(linalg.from_numerators(values, g * e))


def separability_check(A: Order, s: LinearForm) -> bool:
    """True when the Casimir element is invertible in the rational algebra."""
    try:
        casimir_inverse(A, s)
    except NotInvertibleError:
        return False
    return True


# -- the projective scalar property ------------------------------------


@dataclass(frozen=True, eq=False)
class PspCertificate:
    """Witness that a symmetrising form has Casimir p^n times the unit."""

    n: int
    witness_form: LinearForm

    def scalar(self, A: Order) -> Fraction:
        return Fraction(A.prime) ** self.n

    def verify(self, A: Order) -> bool:
        if not is_symmetrising(A, self.witness_form):
            return False
        z = casimir(A, self.witness_form)
        return linalg.vectors_equal(z, A.scalar(self.scalar(A)))


def psp_direct(A: Order, s: LinearForm):
    """Decide the projective scalar property from the Casimir orbit.

    Some twist of s has Casimir p^t 1 exactly when u = p^t z^{-1} is a
    central unit of the order, which happens exactly when both p^t z^{-1}
    and its inverse p^{-t} z have ring coordinates.  Only one t can do:
    the least t with p^t z^{-1} in the order, since p times an element
    of the order is no unit, and none when z is singular in K⊗A.  The
    twist is s(z p^{-t} .) = p^{-t} rho, certified equal to the order's
    kept witness (:func:`_regular_witness`), whose dual basis is derived
    once whichever psp algorithm reads it first.  Returns a
    PspCertificate or None, kept on the form.
    """
    return kept(s._kept, "psp_direct", (A,), lambda: _psp_search(A, s))


def _psp_search(A: Order, s: LinearForm):
    try:
        zinv = casimir_inverse(A, s)
    except NotInvertibleError:
        return None
    p = A.prime
    (Z, c), (Y, e) = (linalg.numerators(x) for x in (casimir(A, s), zinv))
    Z, Y = Z.tolist(), Y.tolist()
    t = max(0, int_val(e, p) - min(int_val(y, p) for y in Y if y))
    u = [y * p**t for y in Y]  # p^t z^{-1} = u / e, and its inverse z / p^t = Z / (c p^t)
    if not (integral_over(u, e, p) and integral_over(Z, c * p**t, p)):
        return None
    witness = _regular_witness(A, t)
    if _twist(A, s, Z, c * p**t) != witness:
        raise AssertionError("twist by z / p^t differs from p^-t rho")
    cert = PspCertificate(n=t, witness_form=witness)
    if not cert.verify(A):
        raise AssertionError("twisted form fails the scalar Casimir certificate")
    return cert


def _regular_gram_exponents(A: Order) -> tuple:
    """Smith exponents at p of the numerators N of rho's Gram matrix N / g,
    fewer than dim A when it is singular; kept on rho.  Their sum is v_p(det N)."""
    rho = regular_character_form(A)
    return kept(rho._kept, "gram_exponents", (A,), lambda: tuple(linalg.smith_of_rows(
        [list(row) for row in _gram_numerators(A, rho)[0]], [1] * A.dim, A.dim, A.prime)[0]))


@dataclass(frozen=True, eq=False)
class RegularGramResult:
    verdict: bool
    n: int | None
    exponents: tuple
    witness_form: LinearForm | None


def psp_regular_gram(A: Order) -> RegularGramResult:
    """Decide the projective scalar property from the regular character.

    Assumes the rational algebra is split semisimple (caller-asserted).
    The property holds exactly when all Smith exponents of the Gram
    matrix of the regular character coincide; the common exponent is the
    scalar's exponent and p^{-n} rho is a witness form.
    """
    exps = _regular_gram_exponents(A)  # those of G = N / g too, as g is a unit
    if len(exps) < A.dim:
        raise RegularGramSingularError("regular Gram singular")
    n = exps[0]
    if any(e != n for e in exps):
        return RegularGramResult(False, None, exps, None)
    witness = _regular_witness(A, n)
    if not PspCertificate(n, witness).verify(A):
        raise AssertionError("scaled regular character fails the scalar Casimir certificate")
    return RegularGramResult(True, n, exps, witness)


# -- character-level computations ---------------------------------------


def schur_coefficients(A: Order, s: LinearForm, characters) -> np.ndarray:
    """Coefficients sigma with s = sum_chi sigma_chi chi on the basis.

    ``characters`` is a sequence of value vectors on the order basis.
    Raises when the characters do not span the form.  With the characters
    X / m and the values v / e, sigma solves (e X^T) sigma = m v, one
    integer solve on the rows [e X^T | m v].
    """
    X, m = linalg.numerators(linalg.as_matrix(characters))
    v, e = linalg.numerators(s.values)
    rows = [[x * e for x in col] + [y * m] for col, y in zip(X.T.tolist(), v.tolist())]
    try:
        solved = linalg.solve_of_rows(rows, X.shape[0])
    except ValueError:
        solved = None
    if solved is None:
        raise ValueError("characters do not span the form")
    return linalg.from_numerators([row[0] for row in solved[0]], solved[1])


def casimir_spectrum_from_data(sigma, degrees) -> np.ndarray:
    """Casimir coordinates on the central idempotents: sigma_chi^{-1} chi(1)."""
    sigma = linalg.as_vector(sigma)
    degrees = linalg.as_vector(degrees)
    if any(x == 0 for x in sigma):
        raise ValueError("zero Schur coefficient")
    return linalg.as_vector([d / s for s, d in zip(sigma, degrees)])


def casimir_spectrum(A: Order, s: LinearForm, characters) -> np.ndarray:
    """Spectrum of the Casimir element on the central idempotents.

    Cross-checked against the expansion of the Casimir element over the
    rational central idempotents computed from the characters.
    """
    chars = linalg.as_matrix(characters)
    sigma = schur_coefficients(A, s, chars)
    degrees = [np.dot(chars[i], A.one) for i in range(chars.shape[0])]
    spectrum = casimir_spectrum_from_data(sigma, degrees)
    idems = central_idempotents(A, chars)
    z = casimir(A, s)
    recombined = sum((c * e for c, e in zip(spectrum, idems)), A.zero())
    if not linalg.vectors_equal(recombined, z):
        raise AssertionError("Casimir spectrum does not recombine to the Casimir element")
    return spectrum


def scalar_spectrum_test(spectrum, p: int):
    """Valuation-level scalar test on a Casimir spectrum.

    Multiplying by a central unit leaves the valuation of every
    idempotent coordinate unchanged, so equal valuations across the
    spectrum are necessary for any twist to reach a scalar p^n.
    Returns (possible, n) where n is the common valuation if it exists.
    """
    vals = [val(c, p) for c in linalg.as_vector(spectrum)]
    if len(set(vals)) == 1 and vals[0] != INFINITY:
        return True, int(vals[0])
    return False, None


def central_characters(centre, characters) -> tuple:
    """((S, s), (E, h)): the central characters S[i, chi] / s =
    omega_chi(z_i) and the idempotents e_chi = E[:, chi] / h of rational
    characters chi(b_k) = X[chi, k] / m, ``characters`` (X, m), one per
    simple factor of K⊗A, on the centre ((N, n), (C, c), (u, e)) of
    :attr:`Order.integer_centre`: basis z_i = N / n, table C / c, unit u / e.

    For Y = X N and D = Y u, chi(z_i) = Y[chi, i] / (m n) and chi(1) =
    D_chi / (m n e), so omega_chi(z_i) = e Y[chi, i] / D_chi.  Certified on
    integers, else ValueError("system inconsistent: ..."): Y is square and
    invertible and each omega_chi is multiplicative, e c y_i y_j = D_chi
    (C y)_ij for y = Y[chi].  So K⊗Z = K^r, and the primitive central
    idempotents are the dual basis: F Y = N / n is one integer solve on the
    rows [Y^T | N^T] (:func:`linalg.solve_of_rows`), and e_chi = (D_chi / e)
    F[:, chi].  F Y = N / n, checked as an integer product, certifies them."""
    (N, n), (C, c), (u, e), (X, m) = *centre, characters
    Y = X.dot(N)  # chi(z_i) m n
    D = Y.dot(u).tolist()  # chi(1) m n e
    if Y.shape[0] != Y.shape[1] or 0 in D:
        degrees = (Fraction(x, m * n * e) for x in D)
        raise ValueError(f"system inconsistent: {Y.shape[0]} characters of degrees "
                         f"{', '.join(map(str, degrees))} on a centre of rank {Y.shape[1]}")
    try:  # the rows of n F^T, over f
        G, f = linalg.solve_of_rows([a + b for a, b in zip(Y.T.tolist(), N.T.tolist())], len(D))
    except ValueError:
        raise ValueError("system inconsistent: central characters linearly dependent") from None
    if any((np.outer(y, y) * (e * c) != C.dot(y) * d).any() for y, d in zip(Y, D)):
        raise ValueError("system inconsistent: a central character is not multiplicative")
    F = np.array(G, dtype=object).T  # F f n
    if (F.dot(Y) != f * N).any():
        raise AssertionError("centre basis differs from sum omega_chi(z) e_chi")
    s, E, h = math.lcm(*D), F * np.array(D, dtype=object), f * n * e
    g = math.gcd(h, *E.flat)  # E / h in lowest terms
    return (Y.T * np.array([e * (s // d) for d in D], dtype=object), s), (E // g, h // g)


def central_idempotents(A: Order, characters) -> list:
    """Primitive central idempotents of the rational algebra, dual to the
    central characters of rational characters (:func:`central_characters`)."""
    X = linalg.numerators(linalg.as_matrix(characters))
    return list(linalg.from_numerators(*central_characters(A.integer_centre, X)[1]).T.copy())


# -- forms on product orders ---------------------------------------------


def direct_product_form(sA: LinearForm, sB: LinearForm) -> LinearForm:
    return LinearForm(np.concatenate([sA.values, sB.values]))


def tensor_product_form(sA: LinearForm, sB: LinearForm) -> LinearForm:
    return LinearForm(np.outer(sA.values, sB.values).reshape(-1))
