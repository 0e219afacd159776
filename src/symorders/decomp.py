"""Decomposition-matrix level analysis of the projective scalar property.

Everything here runs on rational character data: bounded searches for
symmetrising forms built out of decomposition columns, the rational
centre and rational symmetry of an order, the orbit test deciding the
scalar property through exact lattice arithmetic, and the arithmetic
checks relating exponents, ranks and character degrees (heights).  Both
searches decide their candidates with one whole-candidate test, valuations
of integer combinations built once from the central idempotents
(:class:`WitnessTest`), and certify only the witness they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .forms import (
    LinearForm,
    central_idempotents,
    gram_matrix,
    is_symmetrising,
    kept,
    regular_character_form,
)
from .modp import FpAlgebra, nullspace
from .orders import Order
from .padic import INFINITY, int_val, residue_int, val


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Rational-valued characters on the order basis, with their degrees.

    The data derived from the table with an order (the rational centre
    and the witness test) is kept on it, see :func:`forms.kept`.
    """

    values: np.ndarray  # (num_chars, dim)
    degrees: tuple  # chi(1) per character
    names: tuple = None
    _kept: dict = field(default_factory=dict, repr=False)

    @property
    def num_chars(self) -> int:
        return self.values.shape[0]

    def form_from_coefficients(self, coeffs) -> LinearForm:
        return LinearForm(np.tensordot(linalg.as_vector(coeffs), self.values, axes=([0], [0])))


def make_character_table(values, A: Order, names=None) -> CharacterTable:
    """Validate characters: linearly independent, degrees read off the
    unit, and weighted by their degrees they sum to the regular character."""
    values = linalg.as_matrix(values)
    if linalg.rational_rank(values) != values.shape[0]:
        raise ValueError("characters are linearly dependent")
    degrees = tuple(np.dot(values[i], A.one) for i in range(values.shape[0]))
    rho = linalg.as_vector([A.regular_character(A.basis_element(i)) for i in range(A.dim)])
    combo = np.tensordot(linalg.as_vector(degrees), values, axes=([0], [0]))
    if not linalg.vectors_equal(combo, rho):
        raise ValueError("degree-weighted character sum is not the regular character")
    return CharacterTable(values=values, degrees=degrees,
                          names=tuple(names) if names else None)


@dataclass(frozen=True, eq=False)
class DecompositionMatrix:
    """Multiplicities of modular simples in the reductions of the
    ordinary irreducibles, with the modular dimensions."""

    entries: np.ndarray  # (num_chars, num_modular) non-negative ints
    modular_dims: tuple

    @property
    def num_modular(self) -> int:
        return self.entries.shape[1]


def make_decomposition_matrix(entries, modular_dims, degrees) -> DecompositionMatrix:
    entries = np.array([[int(x) for x in row] for row in entries], dtype=np.int64)
    if (entries < 0).any():
        raise ValueError("decomposition entries must be non-negative")
    modular_dims = tuple(int(x) for x in modular_dims)
    if entries.shape != (len(degrees), len(modular_dims)):
        raise ValueError(f"decomposition matrix of shape {entries.shape}, not "
                         f"{(len(degrees), len(modular_dims))}")
    if any(d <= 0 for d in modular_dims):
        raise ValueError("modular dimensions must be positive")
    for i, chi1 in enumerate(degrees):
        total = sum(int(entries[i, j]) * modular_dims[j] for j in range(entries.shape[1]))
        if Fraction(total) != Fraction(chi1):
            raise ValueError(
                f"degree {chi1} of character {i} does not match decomposition row"
            )
    return DecompositionMatrix(entries=entries, modular_dims=modular_dims)


# -- the whole-candidate witness test --------------------------------------


@dataclass(frozen=True, eq=False)
class MoritaWitness:
    m: tuple
    n: int
    a: tuple
    form: LinearForm


@dataclass(frozen=True, eq=False)
class WitnessTest:
    """What decides every candidate f_a = sum a_chi chi at once.

    K⊗A is separable, so the Gram matrix G_rho of the regular character
    is invertible.  With the central idempotents e_chi and the scalars
    rho(e_chi x) = c_chi chi(x), f_a(x) = rho(u x) for u = sum (a_chi /
    c_chi) e_chi.  So when no a_chi is 0, G = G_{f_a} = L(u)^T G_rho and
    G^{-1} = sum (c_chi / a_chi) G_rho^{-1} L(e_chi)^T, for L(x) the
    matrix of y -> x y.  Each family is (rows, v_p(d)): the distinct
    nonzero coefficient rows of one expansion, as integers over one
    denominator d; ``idempotents`` and ``gram`` expand sum a_chi e_chi
    and G in the a_chi, and ``inverse`` expands G^{-1} in the 1 / a_chi.
    """

    p: int
    idempotents: tuple
    gram: tuple
    inverse: tuple


def witness_test(A: Order, table: CharacterTable) -> WitnessTest:
    """Derived on first use with A and kept on the table, certifying that
    the e_chi are orthogonal with sum 1, that each c_chi is one nonzero
    scalar on every basis element and that each chi has a symmetric Gram
    matrix."""
    return kept(table._kept, "witness_test", (A,), lambda: _witness_test(A, table))


def _witness_test(A: Order, table: CharacterTable) -> WitnessTest:
    idems = rational_centre(A, table).idempotents
    if not linalg.vectors_equal(sum(idems, A.zero()), A.one) or any(
            any(A.multiply(e, f)) for i, e in enumerate(idems) for f in idems[:i]):
        raise AssertionError("central idempotents not orthogonal with sum 1")
    G_rho = gram_matrix(A, regular_character_form(A))
    try:
        G_rho_inv = linalg.inverse(G_rho)
    except ValueError:
        raise ValueError("regular Gram matrix singular: K⊗A not separable") from None
    grams, inverses = [], []
    for chi, e in zip(table.values, idems):
        traces = G_rho.T @ e  # rho(e b_i)
        c = next(t / x for t, x in zip(traces, chi) if x)
        if c == 0 or not linalg.vectors_equal(traces, c * chi):
            raise ValueError("regular character on e_chi A is no multiple of chi")
        N = gram_matrix(A, LinearForm(chi))
        if not linalg.matrices_equal(N, N.T):
            raise ValueError("character Gram matrix not symmetric")
        grams.append(N.flat)
        inverses.append((c * G_rho_inv @ A.left_matrix(e).T).flat)
    families = []
    for columns in (idems, grams, inverses):
        N, d = linalg.numerators(np.array([list(c) for c in columns], dtype=object).T)
        rows = list(dict.fromkeys(tuple(row) for row in N if any(row)))
        families.append((np.array(rows, dtype=object).reshape(-1, N.shape[1]),
                         int_val(d, A.prime)))
    return WitnessTest(A.prime, *families)


def _valuations(X, p: int) -> np.ndarray:
    """Least valuation of an entry in each row of the integer array X
    (2^40 for a zero row): that of the row's gcd, whose factors p^e,
    e = 2^j, are taken out largest first."""
    g = np.abs(np.gcd.reduce(X, axis=1))  # reduce leaves a single column's sign
    v = np.where(g == 0, 2**40, 0)
    top, e = int(g.max(initial=0)), 1
    while p ** (2 * e) <= top:
        e *= 2
    while e:
        if p**e <= top:
            divisible = np.asarray(g % p**e == 0, dtype=bool) & (g != 0)
            g, v = np.where(divisible, g // p**e, g), v + e * divisible
        e //= 2
    return v


def _levels(test: WitnessTest, S, d, k) -> tuple:
    """(integral, n) for the candidates a = p^k S_c / d_c, one per row c
    of the integer array S, with d > 0: whether sum a_chi e_chi lies in
    the order, and the exponent m of f_a as a witness, else -1.  f_a is
    one when no a_chi is 0, m >= 0 is the least valuation of an entry of
    G, and every entry of G^{-1} = d_c / (p^k P) (``inverse`` rows applied
    to Q) has valuation >= -m, for P the product of the S_c,chi and
    Q_chi = P / S_c,chi.  In int64 while every product and sum is bounded
    below 2^63, else on Python ints."""
    p, r = test.p, S.shape[1]
    big = max(int(np.abs(S).max(initial=1)), int(d.max(initial=1)))
    width = max(int(np.abs(rows).max(initial=1)) for rows, _ in
                (test.idempotents, test.gram, test.inverse))
    dtype = np.int64 if r * width * big**r < 2**63 else object
    S, d = S.astype(dtype), d.astype(dtype)

    def level(family, X):
        return _valuations(X @ family[0].T.astype(dtype), p) - family[1]

    vd = _valuations(d[:, None], p)
    integral = level(test.idempotents, S) - vd + k >= 0
    m = level(test.gram, S) - vd + k
    nonzero = (S != 0).all(axis=1)
    S = np.where(nonzero[:, None], S, 1)  # those rows are rejected anyway
    P = np.prod(S, axis=1)
    inverse = level(test.inverse, P[:, None] // S) + vd - k - _valuations(P[:, None], p)
    return integral, np.where(nonzero & (m >= 0) & (inverse >= -m), m, -1)


def _first_witness(A: Order, table: CharacterTable, radices, candidates, integral: bool):
    """(digits, n) of the first witness among the digit vectors of the
    radices in lexicographic order, or None; ``candidates`` maps digit
    rows to the (S, d, k) of :func:`_levels`, and with ``integral`` a
    witness must pass that test too.  Blocks of 2^11 are tested at once."""
    test = witness_test(A, table)
    total = math.prod(radices)
    for start in range(0, total, 1 << 11):
        index = np.arange(start, min(start + (1 << 11), total))
        digits = np.empty((len(index), len(radices)), dtype=np.int64)
        for j in reversed(range(len(radices))):
            index, digits[:, j] = np.divmod(index, radices[j])
        ok, n = _levels(test, *candidates(digits))
        hits = np.flatnonzero((n >= 0) & (ok | (not integral)))
        if len(hits):
            return tuple(int(x) for x in digits[hits[0]]), int(n[hits[0]])
    return None


def _witness_form(A: Order, table: CharacterTable, a, n: int) -> LinearForm:
    """p^{-n} sum a_chi chi, certified symmetrising, which certifies n."""
    form = table.form_from_coefficients(a).scale(Fraction(1, A.prime**n))
    if not is_symmetrising(A, form):
        raise AssertionError("witness form not symmetrising")
    return form


def _decomposition_coefficients(table: CharacterTable, D: DecompositionMatrix, m) -> tuple:
    """a = D m: the character coefficients of the form built from m."""
    return tuple(sum(int(d) * x for d, x in zip(row, m)) for row in D.entries)


def _morita_search(A: Order, table: CharacterTable, D: DecompositionMatrix, box):
    """First m in box^k, lexicographically, whose form is a witness."""
    box = list(box)
    values = np.array(box, dtype=np.int64)

    def candidates(digits):
        return values[digits] @ D.entries.T, np.ones(len(digits), dtype=np.int64), 0

    hit = _first_witness(A, table, [len(box)] * D.num_modular, candidates, False)
    if hit is None:
        return None
    digits, n = hit
    m = tuple(box[i] for i in digits)
    a = _decomposition_coefficients(table, D, m)
    return MoritaWitness(m=m, n=n, a=a, form=_witness_form(A, table, a, n))


def morita_psp_search(A: Order, table: CharacterTable, D: DecompositionMatrix,
                      bound: int = 5):
    """Search positive integer vectors m with entries <= bound for a
    symmetrising form p^{-n} sum (D m)_chi chi, deciding each m in
    lexicographic order by the test of :func:`_levels`.

    A witness certifies that the Morita class of the order contains one
    with the projective scalar property; absence within the box is a
    bounded statement, not a refutation.  The first witness is returned,
    certified symmetrising.
    """
    return _morita_search(A, table, D, range(1, bound + 1))


def morita_psp_search_integers(A: Order, table: CharacterTable,
                               D: DecompositionMatrix, bound: int = 5):
    """Same search over the integer box [-bound, bound]^k (zero allowed)."""
    return _morita_search(A, table, D, range(-bound, bound + 1))


def morita_shift_witness(A: Order, table: CharacterTable, D: DecompositionMatrix,
                         witness: MoritaWitness) -> MoritaWitness:
    """Turn an integer-box witness into a positive-entry witness.

    Adds p^t to every m entry, with t large enough that the shifted form
    differs from the original by p times a ring form; the shifted form
    is then symmetrising with the same exponent.
    """
    p, n = A.prime, witness.n
    # p^(t - n) D_ij chi_i(b_x) must lie in p times the ring for every i, j, x
    depth = min((val(int(d) * x, p) for row, chi in zip(D.entries, table.values)
                 for d in row if d for x in chi if x), default=INFINITY)
    t = max(1, 1 + n - depth)
    while not all(m + p**t > 0 for m in witness.m):
        t += 1
    m_shifted = tuple(m + p**t for m in witness.m)
    a = _decomposition_coefficients(table, D, m_shifted)
    return MoritaWitness(m=m_shifted, n=n, a=a, form=_witness_form(A, table, a, n))


# -- rational centre and rational symmetry --------------------------------


@dataclass(frozen=True, eq=False)
class RationalCentre:
    """Saturated basis of the central elements with rational coordinates
    on the primitive central idempotents."""

    basis: np.ndarray  # columns, coordinates in the order basis
    idempotents: list  # the rational central idempotents
    spectral: np.ndarray  # (rank, num_chars): chi(z)/chi(1) per basis column

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


def rational_centre(A: Order, table: CharacterTable) -> RationalCentre:
    """Intersection of the order with the rational span of the central
    idempotents.  With a rational character table every central element
    qualifies, so this is the center with its spectral coordinates.  It
    is derived on first use with A and kept on the table."""
    return kept(table._kept, "rational_centre", (A,), lambda: _rational_centre(A, table))


def _rational_centre(A: Order, table: CharacterTable) -> RationalCentre:
    idems = central_idempotents(A, table.values)
    Z = A.center_basis()
    spectral = linalg.as_matrix([[np.dot(chi, z) / d for chi, d in zip(table.values, table.degrees)]
                                 for z in Z.T])
    for z, coeffs in zip(Z.T, spectral):
        if not linalg.vectors_equal(sum(c * e for c, e in zip(coeffs, idems)), z):
            raise ValueError("central element outside the rational centre")
    return RationalCentre(basis=Z, idempotents=idems, spectral=spectral)


@dataclass(frozen=True, eq=False)
class Congruence:
    """Mod-p constraint on the unit parts of the spectral coefficients,
    derived from integrality of the candidate form on one basis element."""

    basis_index: int
    terms: tuple  # (character index, unit coefficient mod p)
    ratio: tuple | None  # (i, j, residue) when exactly two terms appear

    def __str__(self):
        inner = " + ".join(f"{c}*u_{i}" for i, c in self.terms)
        return f"b[{self.basis_index}]: {inner} == 0 (mod p)"


def congruence_analysis(A: Order, table: CharacterTable, sigma_tilde, n: int) -> list:
    """Necessary mod-p conditions on rational symmetrising coefficients.

    Fixes the valuation pattern w_chi of the given witness (unit twists
    cannot change it) and extracts, for every order basis element whose
    integrality constraint is binding below level n, the relation among
    the unit parts; two-term relations are reported as residue ratios.
    """
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
        out.append(Congruence(basis_index=b, terms=tuple(terms), ratio=ratio))
    return out


@dataclass(frozen=True, eq=False)
class RationalSymmetryResult:
    witness_sigma: tuple | None
    witness_n: int | None
    witness_form: LinearForm | None
    congruences: list


def _search_values(bound: int) -> list:
    """Deterministic list of nonzero rationals with |numerator| and
    denominator at most the bound, ordered by (denominator, |numerator|,
    sign)."""
    return [sign * Fraction(num, den) for den in range(1, bound + 1)
            for num in range(1, bound + 1) if math.gcd(num, den) == 1 for sign in (1, -1)]


def rational_symmetry_search(A: Order, table: CharacterTable, bound: int = 5,
                             power_range: int = 4):
    """Bounded search for rational spectral coefficients of a symmetrising
    form.

    Candidates sigma~ are normalized, using invariance under scaling by
    rationals of valuation zero, to the shape p^k (c_1, ..., c_{r-1}, 1)
    with k <= power_range and the c_i nonzero rationals of bounded
    numerator and denominator, scanned in order of k and then of the c_i.
    A candidate must be an element of the order (membership of sum
    sigma~_chi e_chi) and pass the witness test of :func:`_levels`;
    only the first witness is certified symmetrising.  Returns it plus
    the congruence report it implies; absence is only a bounded statement.
    """
    p = A.prime
    values = _search_values(bound)
    dtype = np.int64 if bound ** table.num_chars < 2**63 else object
    nums = np.array([c.numerator for c in values], dtype=dtype)
    dens = np.array([c.denominator for c in values], dtype=dtype)

    def candidates(digits):
        rest = digits[:, 1:]
        d = np.prod(dens[rest], axis=1)
        S = np.concatenate([nums[rest] * d[:, None] // dens[rest], d[:, None]], axis=1)
        return S, d, digits[:, 0]

    radices = [power_range + 1] + [len(values)] * (table.num_chars - 1)
    hit = _first_witness(A, table, radices, candidates, True)
    if hit is None:
        return RationalSymmetryResult(None, None, None, [])
    (k, *rest), n = hit
    pk = Fraction(p) ** k
    sigma = [pk * values[i] for i in rest] + [pk]
    return RationalSymmetryResult(
        witness_sigma=tuple(sigma),
        witness_n=n,
        witness_form=_witness_form(A, table, sigma, n),
        congruences=congruence_analysis(A, table, sigma, n),
    )


# -- the orbit test for the scalar property --------------------------------


@dataclass(frozen=True, eq=False)
class IntersectionCriterionResult:
    verdict: bool  # scalar property of the order itself
    morita_verdict: bool  # span criterion: Morita class contains a scalar member
    orbit_generator: np.ndarray  # primitive element of the test line
    maximal_ideal_count: int


def _central_homs(A: Order, centre: RationalCentre):
    """The residue algebra of the rational centre, and the distinct
    reductions mod p of its central characters on the basis as sorted
    tuples, certified as :func:`_maximal_ideal_lattices` says."""
    Z, p = centre.basis, A.prime
    r = Z.shape[1]
    # coordinates of the products of basis elements, and of 1, on the basis
    coords = linalg.solve_exact(Z, np.array(
        [A.multiply(Z[:, i], Z[:, j]) for i in range(r) for j in range(r)] + [A.one]).T)
    if coords is None or not linalg.is_integral(coords, p):
        raise AssertionError("rational centre lattice not a ring with 1")
    residues = np.array([[residue_int(c, p, 1) for c in col] for col in coords.T], dtype=object)
    alg = FpAlgebra(p, r, residues[:-1].reshape(r, r, r), residues[-1])
    if not linalg.is_integral(centre.spectral, p):
        raise AssertionError("spectral coordinates not p-integral")
    homs = sorted({tuple(residue_int(x, p, 1) for x in col) for col in centre.spectral.T})
    H = np.array(homs, dtype=object)
    if (H @ alg.one % p != 1).any() or any(((np.outer(h, h) - alg.table @ h) % p).any()
                                           for h in H):
        raise AssertionError("central character not a unital homomorphism mod p")
    if not alg.is_nilpotent_subspace(nullspace(H, p)):
        raise AssertionError("central characters miss a maximal ideal")
    return alg, homs


def _maximal_ideal_lattices(A: Order, centre: RationalCentre):
    """Lattice bases of the maximal ideals of the rational centre Z.

    Z is an O-order in K^r, hence integral over O, so by lying over
    (Cohen-Seidenberg) every unital homomorphism Z -> F_p is z ->
    omega_chi(z) mod p for a column chi of the spectral coordinates.  The
    maximal ideals are the kernels of their distinct reductions, taken in
    the order of the reductions as tuples of values on the basis.
    Certified: the residue table of Z is a ring with 1, the spectral
    coordinates are p-integral, each reduction is a unital homomorphism on
    the table, and the joint kernel is nilpotent, so no ideal is missed.
    """
    p = A.prime
    r = centre.rank
    ideals = []
    for phi in _central_homs(A, centre)[1]:
        t = next(c for c in range(r) if phi[c])
        inv_t = pow(phi[t], -1, p)
        # e_c - (phi_c / phi_t mod p) e_t for c != t, and p e_c for every c
        G = linalg.identity(r)
        G[t] = [Fraction(-(phi[c] * inv_t % p)) for c in range(r)]
        G = np.concatenate([np.delete(G, t, axis=1), p * linalg.identity(r)], axis=1)
        ideals.append(linalg.lattice_basis_from_generators(G, p))
    return ideals


def rational_intersection_criterion(
    A: Order,
    table: CharacterTable,
    D: DecompositionMatrix,
    sigma_tilde=None,
) -> IntersectionCriterionResult:
    """Exact-linear-algebra decision of the scalar property from rational
    character data.

    Two tests are computed from a rational symmetry witness sigma~:

    * the orbit test (``verdict``): the Casimir orbit meets the scalars
      exactly when the line through sum (sigma~_chi / chi(1)) e_chi meets
      the unit group of the order, decided on the primitive lattice point
      of that line.  This agrees with the direct Casimir algorithms.
    * the span test (``morita_verdict``): the d-column span of the
      character lattice image of the rational centre properly contains
      its image of every maximal ideal.  A pass produces a decomposition
      -shaped symmetrising form for some member of the Morita class.
    """
    if sigma_tilde is None:
        found = rational_symmetry_search(A, table)
        if found.witness_sigma is None:
            raise ValueError("no rational symmetry witness within the default bound")
        sigma_tilde = found.witness_sigma
    sigma_tilde = linalg.as_vector(sigma_tilde)
    centre = rational_centre(A, table)
    p = A.prime

    # orbit test on the line through sum (sigma~/deg) e
    w = sum((s / d * e for s, d, e in zip(sigma_tilde, table.degrees, centre.idempotents)),
            A.zero())
    shift = -min(val(x, p) for x in w)
    z0 = w * Fraction(p) ** int(shift) if shift != -INFINITY else w
    if not linalg.is_integral(z0, p):
        raise AssertionError("scaled orbit element has non-ring coordinates")
    verdict = A.is_unit(z0)

    # span test against every maximal ideal of the rational centre
    annihilator = linalg.left_null_space(linalg.as_matrix(D.entries))  # of the d-space

    def image_lattice(lattice_cols):
        coords = linalg.solve_exact(centre.basis, lattice_cols)
        return (centre.spectral.T @ coords) * sigma_tilde[:, None]

    def intersect_with_span(L):
        return L @ linalg.integral_kernel(annihilator @ L, p) if len(annihilator) else L

    L_full = intersect_with_span(image_lattice(centre.basis))
    ideals = _maximal_ideal_lattices(A, centre)
    morita_verdict = all(
        _proper_containment(L_full, intersect_with_span(image_lattice(centre.basis @ I)), p)
        for I in ideals)
    return IntersectionCriterionResult(verdict=verdict, morita_verdict=morita_verdict,
                                       orbit_generator=z0, maximal_ideal_count=len(ideals))


def _proper_containment(big, small, p) -> bool:
    """big contains small, and not conversely, as lattices (column spans)."""
    def contains(L, M):
        return all(linalg.lattice_membership(M[:, j], L, p) is not None for j in range(M.shape[1]))
    return contains(big, small) and not contains(small, big)


# -- heights and divisibility ----------------------------------------------


def height(rank_or_degree, degrees, p: int) -> int:
    """Valuation of a rank above the minimal valuation among the degrees."""
    if not len(degrees):
        raise ValueError("height needs a nonempty degree table")
    base = min(val(d, p) for d in linalg.as_vector(degrees))
    h = val(rank_or_degree, p) - base
    if h < 0:
        raise ValueError("negative height - inconsistent data")
    return int(h)


@dataclass(frozen=True, eq=False)
class DivisibilityReport:
    entries: tuple  # (name, rank, kind, rank_valuation, bound, ok)

    @property
    def ok(self) -> bool:
        return all(e[-1] for e in self.entries)


def degree_divisibility_checks(p: int, psp_n: int, lattice_verdicts) -> DivisibilityReport:
    """Rank-valuation bounds for lattices over a scalar-property order.

    ``lattice_verdicts`` is a sequence of (name, rank, is_knorr,
    is_projective).  Knorr lattices must satisfy val(rank) <= n and
    projective lattices val(rank) >= n.
    """
    rows = []
    for name, rank, is_knorr, is_projective in lattice_verdicts:
        v = int(val(Fraction(rank), p))
        if is_knorr:
            rows.append((name, rank, "knorr", v, psp_n, v <= psp_n))
        if is_projective:
            rows.append((name, rank, "projective", v, psp_n, v >= psp_n))
    report = DivisibilityReport(entries=tuple(rows))
    if not report.ok:
        bad = [e for e in report.entries if not e[-1]]
        raise ValueError(f"violation: {bad}")
    return report


@dataclass(frozen=True, eq=False)
class MinDegreeReport:
    a0: int
    needed_valuation: int
    witness_index: int | None
    status: str  # "satisfied" or "inconclusive"


def min_degree_check(degrees, p: int, psp_n: int, exponents) -> MinDegreeReport:
    """Existence of a character degree of valuation n - a0, where a0 is
    the largest exponent among the supplied lattices.

    The supplied list stands in for all lattices, so a missing witness
    is reported as inconclusive rather than as a failure.
    """
    a0 = max(exponents) if len(exponents) else 0
    needed = psp_n - a0
    for i, d in enumerate(linalg.as_vector(degrees)):
        if val(d, p) == needed:
            return MinDegreeReport(a0, needed, i, "satisfied")
    return MinDegreeReport(a0, needed, None, "inconclusive")


def height_invariance_check(degrees_a, degrees_b, rank_pairs, p: int) -> list:
    """Equal heights across corresponding ranks, each computed in its own
    degree table.  Raises on any mismatch."""
    out = []
    for ra, rb in rank_pairs:
        ha = height(ra, degrees_a, p)
        hb = height(rb, degrees_b, p)
        if ha != hb:
            raise ValueError(f"height mismatch: {ra} -> {ha}, {rb} -> {hb}")
        out.append((ra, rb, ha))
    return out
