"""Decomposition-matrix level analysis of the projective scalar property.

Everything here runs on rational character data: bounded searches for
symmetrising forms built out of decomposition columns, the rational
centre and rational symmetry of an order, the orbit test deciding the
scalar property through exact lattice arithmetic, and the arithmetic
checks relating exponents, ranks and character degrees (heights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

import numpy as np

from . import linalg
from .errors import ResourceBoundError
from .forms import (
    LinearForm,
    central_idempotents,
    gram_matrix,
    is_symmetrising,
)
from .modp import FpAlgebra, nullspace, rref
from .orders import Order
from .padic import INFINITY, int_val, residue_int, val


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Rational-valued characters on the order basis, with their degrees."""

    values: np.ndarray  # (num_chars, dim)
    degrees: tuple  # chi(1) per character
    names: tuple = None

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
    rho = linalg.as_vector(
        [A.regular_character(A.basis_element(i)) for i in range(A.dim)]
    )
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
    if any(d <= 0 for d in modular_dims):
        raise ValueError("modular dimensions must be positive")
    for i, chi1 in enumerate(degrees):
        total = sum(int(entries[i, j]) * modular_dims[j] for j in range(entries.shape[1]))
        if Fraction(total) != Fraction(chi1):
            raise ValueError(
                f"degree {chi1} of character {i} does not match decomposition row"
            )
    return DecompositionMatrix(entries=entries, modular_dims=modular_dims)


# -- bounded Morita-class searches ----------------------------------------


@dataclass(frozen=True, eq=False)
class MoritaWitness:
    m: tuple
    n: int
    a: tuple
    form: LinearForm


def _constant_exponent(G, p: int):
    """m when the square integer matrix G has full rank and all its Smith
    exponents equal m, that is when G / p^m is unimodular; else None.

    The least Smith exponent is the least valuation m of an entry, and
    G / p^m is unimodular exactly when it has full rank mod p."""
    m = min((int_val(x, p) for x in G.flat if x), default=None)
    if m is None:
        return None
    pm = p**m
    residues = [[x // pm for x in row] for row in G]
    return m if len(rref(residues, p)[1]) == G.shape[0] else None


def _character_grams(A: Order, table: CharacterTable) -> tuple:
    """The Gram matrices of the characters as integer matrices over one
    common denominator: (array indexed (character, i, j), denominator).
    The Gram matrix is linear in the form, so that of sum a_chi chi is
    sum a_chi times them."""
    return linalg.numerators(np.array(
        [gram_matrix(A, LinearForm(chi)) for chi in table.values]
    ).reshape(table.num_chars, A.dim, A.dim))


def _gram_candidate(A: Order, table: CharacterTable, grams: tuple, a):
    """Gram analysis of f = sum a_chi chi: returns (n, p^{-n} f) when the
    Gram matrix G is symmetric with equal Smith exponents n, so that
    G / p^n is unimodular and p^{-n} f is symmetrising; else None.

    ``grams`` is :func:`_character_grams`.  G is tested as the integer
    matrix sum a_chi N_chi over the denominator of the a_chi times that of
    the N_chi: it is a ring matrix when no entry has a valuation below
    that of the denominator, and the form is built only for a witness.
    """
    p = A.prime
    N, den = grams
    a_den = math.lcm(*[x.denominator for x in a])
    G = np.tensordot([x.numerator * (a_den // x.denominator) for x in a], N, axes=1)
    w = int_val(den * a_den, p)
    pw = p**w
    if not (G == G.T).all() or any(x % pw for x in G.flat):
        return None
    m = _constant_exponent(G, p)
    if m is None:
        return None
    n = m - w
    return n, table.form_from_coefficients(a).scale(Fraction(1, p**n))


def _decomposition_coefficients(table: CharacterTable, D: DecompositionMatrix, m) -> tuple:
    """a = D m: the character coefficients of the form built from m."""
    return tuple(
        sum(int(D.entries[i, j]) * m[j] for j in range(D.num_modular))
        for i in range(table.num_chars)
    )


def _morita_search(A: Order, table: CharacterTable, D: DecompositionMatrix, box):
    """First m in box^k, lexicographically, whose form is a witness."""
    grams = _character_grams(A, table)
    for m in iter_product(box, repeat=D.num_modular):
        a = _decomposition_coefficients(table, D, m)
        if not any(a):
            continue
        hit = _gram_candidate(A, table, grams, a)
        if hit is not None:
            n, form = hit
            return MoritaWitness(m=m, n=n, a=a, form=form)
    return None


def morita_psp_search(A: Order, table: CharacterTable, D: DecompositionMatrix,
                      bound: int = 5):
    """Search positive integer vectors m with entries <= bound for a
    symmetrising form p^{-n} sum (D m)_chi chi.

    A witness certifies that the Morita class of the order contains one
    with the projective scalar property; absence within the box is a
    bounded statement, not a refutation.  First witness in lexicographic
    order is returned.
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
    p = A.prime
    n = witness.n
    t = 1
    while True:
        shift_ok = all(m + p**t > 0 for m in witness.m)
        depth_ok = True
        for i in range(table.num_chars):
            for j in range(D.num_modular):
                for x in range(A.dim):
                    value = (
                        Fraction(p) ** (t - n)
                        * int(D.entries[i, j])
                        * table.values[i, x]
                    )
                    if value != 0 and val(value, p) < 1:
                        depth_ok = False
        if shift_ok and depth_ok:
            break
        t += 1
    m_shifted = tuple(m + p**t for m in witness.m)
    a = _decomposition_coefficients(table, D, m_shifted)
    form = table.form_from_coefficients(a).scale(Fraction(1, p**n))
    if not is_symmetrising(A, form):
        raise AssertionError("shifted Morita form not symmetrising")
    return MoritaWitness(m=m_shifted, n=n, a=a, form=form)


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
    qualifies, so this is the center with its spectral coordinates."""
    idems = central_idempotents(A, table.values)
    Z = A.center_basis()
    spectral = linalg.zeros(Z.shape[1], table.num_chars)
    for j in range(Z.shape[1]):
        z = Z[:, j]
        for i in range(table.num_chars):
            chi_z = np.dot(table.values[i], z)
            coeff = chi_z / table.degrees[i]
            spectral[j, i] = coeff
        recombined = A.zero()
        for i in range(table.num_chars):
            recombined = recombined + spectral[j, i] * idems[i]
        if not linalg.vectors_equal(recombined, z):
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
    sigma_tilde = linalg.as_vector(sigma_tilde)
    w = [val(c, p) for c in sigma_tilde]
    out = []
    for b in range(A.dim):
        levels = []
        for i in range(table.num_chars):
            chi_b = table.values[i, b]
            levels.append(INFINITY if chi_b == 0 else w[i] + val(chi_b, p))
        mu = min(levels)
        if mu == INFINITY or mu >= n:
            continue
        terms = []
        for i in range(table.num_chars):
            if levels[i] == mu:
                unit_part = table.values[i, b] / Fraction(p) ** int(mu - w[i])
                c = (unit_part.numerator * pow(unit_part.denominator, -1, p)) % p
                terms.append((i, c))
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
    vals = []
    for den in range(1, bound + 1):
        for num in range(1, bound + 1):
            f = Fraction(num, den)
            if f.denominator != den:
                continue
            vals.append(f)
            vals.append(-f)
    return vals


def _integral_candidates(A: Order, table: CharacterTable, bound: int, power_range: int):
    """The candidates sigma~ = p^k (c_1, ..., c_{r-1}, 1) of
    :func:`rational_symmetry_search` whose element sum sigma~_chi e_chi
    lies in the order, in search order.

    Integrality is tested on integers: the matrix E with columns e_chi is
    E_num / E_den and sigma~ is s / s_den, so E sigma~ is integral when
    p^w divides E_num s for w the valuation of E_den s_den.  The Fraction
    sigma~ is built only for the candidates that pass.
    """
    p = A.prime
    idems = central_idempotents(A, table.values)
    E_den = math.lcm(*[x.denominator for e in idems for x in e])
    E_num = [[x.numerator * (E_den // x.denominator) for x in entries]
             for entries in zip(*idems)]
    values = _search_values(bound)
    for k in range(power_range + 1):
        pk = Fraction(p) ** k
        for rest in iter_product(values, repeat=table.num_chars - 1):
            s_den = math.lcm(*[c.denominator for c in rest])
            s = [p**k * c.numerator * (s_den // c.denominator) for c in rest]
            s.append(p**k * s_den)
            pw = p ** int_val(E_den * s_den, p)
            if not any(sum(x * y for x, y in zip(row, s)) % pw for row in E_num):
                yield [pk * c for c in rest] + [pk]


def rational_symmetry_search(A: Order, table: CharacterTable, bound: int = 5,
                             power_range: int = 4):
    """Bounded search for rational spectral coefficients of a symmetrising
    form.

    Candidates sigma~ are normalized, using invariance under scaling by
    rationals of valuation zero, to the shape p^k (c_1, ..., c_{r-1}, 1)
    with k <= power_range and the c_i nonzero rationals of bounded
    numerator and denominator.  A candidate must be an element of the
    order (membership of sum sigma~_chi e_chi), and its form must have a
    constant-exponent Gram matrix and pass the symmetrising test.
    Returns the first witness plus the congruence report it implies;
    absence is only a bounded statement.
    """
    grams = _character_grams(A, table)
    for sigma in _integral_candidates(A, table, bound, power_range):
        hit = _gram_candidate(A, table, grams, sigma)
        if hit is None:
            continue
        n, form = hit
        congruences = congruence_analysis(A, table, sigma, n)
        return RationalSymmetryResult(
            witness_sigma=tuple(sigma),
            witness_n=n,
            witness_form=form,
            congruences=congruences,
        )
    return RationalSymmetryResult(None, None, None, [])


# -- the orbit test for the scalar property --------------------------------


@dataclass(frozen=True, eq=False)
class IntersectionCriterionResult:
    verdict: bool  # scalar property of the order itself
    morita_verdict: bool  # span criterion: Morita class contains a scalar member
    orbit_generator: np.ndarray  # primitive element of the test line
    maximal_ideal_count: int


# the most unital functionals _maximal_ideal_lattices tries, p^rank
MAX_FUNCTIONALS = 10**6


def _maximal_ideal_lattices(A: Order, centre: RationalCentre):
    """Lattice bases of the maximal ideals of the rational centre.

    Enumerate algebra homomorphisms of the residue algebra onto the
    prime field, trying all p^r unital functionals for r the rank of the
    centre, which is refused above ``MAX_FUNCTIONALS``; completeness is
    certified by the intersection of their kernels being nilpotent
    (otherwise the residue algebra is not split and the enumeration
    refuses).
    """
    Z = centre.basis
    r = Z.shape[1]
    p = A.prime
    if p**r > MAX_FUNCTIONALS:
        raise ResourceBoundError(
            f"maximal ideal enumeration bound exceeded ({p}^{r} functionals > {MAX_FUNCTIONALS})"
        )
    table = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            prod = A.multiply(Z[:, i], Z[:, j])
            coords = linalg.solve_exact(Z, prod)
            if coords is None or not linalg.is_integral(coords, p):
                raise AssertionError("rational centre basis not multiplicatively closed")
            table[i, j] = [residue_int(c, p, 1) for c in coords]
    one_coords = linalg.solve_exact(Z, A.one)
    if one_coords is None or not linalg.is_integral(one_coords, p):
        raise AssertionError("unit not in the rational centre lattice")
    one_mod = np.array([residue_int(c, p, 1) for c in one_coords])
    alg = FpAlgebra(p, r, table, one_mod)
    homs = alg.homs_to_prime_field()
    if not homs:
        raise ResourceBoundError(
            "maximal ideal enumeration bound exceeded: residue algebra not split"
        )
    joint_kernel = nullspace(np.array(homs, dtype=np.int64), p)
    if not alg.is_nilpotent_subspace(joint_kernel):
        raise ResourceBoundError(
            "maximal ideal enumeration bound exceeded: residue algebra not split"
        )
    ideals = []
    for phi in homs:
        t = next(c for c in range(r) if int(phi[c]) % p)
        inv_t = pow(int(phi[t]), -1, p)
        gens = []
        for c in range(r):
            if c == t:
                continue
            v = linalg.zero_vector(r)
            v[c] = Fraction(1)
            v[t] = Fraction(-((int(phi[c]) * inv_t) % p))
            gens.append(v)
        for c in range(r):
            v = linalg.zero_vector(r)
            v[c] = Fraction(p)
            gens.append(v)
        G = np.array(gens, dtype=object).T
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
    w_coeffs = linalg.as_vector(
        [sigma_tilde[i] / table.degrees[i] for i in range(table.num_chars)]
    )
    w = A.zero()
    for c, e in zip(w_coeffs, centre.idempotents):
        w = w + c * e
    shift = -min(val(x, p) for x in w)
    z0 = w * Fraction(p) ** int(shift) if shift != -INFINITY else w
    if not linalg.is_integral(z0, p):
        raise AssertionError("scaled orbit element has non-ring coordinates")
    verdict = A.is_unit(z0)

    # span test against every maximal ideal of the rational centre
    cols = []
    for j in range(D.num_modular):
        cols.append([Fraction(int(D.entries[i, j])) for i in range(table.num_chars)])
    V = np.array(cols, dtype=object).T  # columns span the d-space
    annihilator = linalg.left_null_space(V)

    def image_lattice(lattice_cols):
        imgs = []
        for jcol in range(lattice_cols.shape[1]):
            z = lattice_cols[:, jcol]
            coords = linalg.solve_exact(centre.basis, linalg.as_vector(z))
            spectral = np.tensordot(coords, centre.spectral, axes=([0], [0]))
            imgs.append(
                linalg.as_vector(
                    [sigma_tilde[i] * spectral[i] for i in range(table.num_chars)]
                )
            )
        return np.array(imgs, dtype=object).T

    def intersect_with_span(L):
        if annihilator.shape[0] == 0:
            return L
        coords = linalg.integral_kernel(annihilator @ L, p)
        return L @ coords

    L_full = intersect_with_span(image_lattice(centre.basis))
    morita_verdict = True
    ideals = _maximal_ideal_lattices(A, centre)
    for ideal_basis in ideals:
        ideal_cols = centre.basis @ ideal_basis
        L_ideal = intersect_with_span(image_lattice(ideal_cols))
        if not _proper_containment(L_full, L_ideal, p):
            morita_verdict = False
            break
    return IntersectionCriterionResult(
        verdict=verdict,
        morita_verdict=morita_verdict,
        orbit_generator=z0,
        maximal_ideal_count=len(ideals),
    )


def _proper_containment(big, small, p) -> bool:
    """big contains small, and not conversely, as lattices (column spans)."""
    for j in range(small.shape[1]):
        if linalg.lattice_membership(small[:, j], big, p) is None:
            return False
    for j in range(big.shape[1]):
        if linalg.lattice_membership(big[:, j], small, p) is None:
            return True
    return False


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
