"""Decomposition-matrix level analysis of the projective scalar property.

Everything here runs on rational character data: bounded searches for
symmetrising forms built out of decomposition columns, the rational
centre (the centre as one ring, with the central characters as its
homomorphisms) and rational symmetry of an order, the orbit and span
tests deciding the scalar property on those homomorphisms mod p, and the
arithmetic checks relating exponents, ranks and character degrees
(heights).  Both searches rest on one whole-candidate test on the
centre, valuations of integer combinations of the central idempotents
and the characters against one determinant valuation
(:class:`WitnessTest`), and certify only the witness they return.  The
Morita searches test one candidate at a time on Python ints and store no
part of their boxes; the rational symmetry search turns the test into
congruences mod a power of p, which meet in the middle of its box
(:func:`_rational_witness`): about 2 * 38^3 half vectors per (k,
exponent) at seven characters and bound 5, where a scan reads 38^6.
The character layer runs on integer numerators over one
denominator: the characters, the centre's table, the spectral
coordinates and the idempotents (:class:`RationalCentre`), their
residues mod p and their valuations.  Results hold these as ``integer_*``
pairs (M, d); ``linalg.from_numerators(*pair)`` gives the Fraction array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import linalg
from .forms import (
    LinearForm,
    _gram_numerators,
    _regular_gram_exponents,
    central_characters,
    is_symmetrising,
    kept,
    regular_character_form,
)
from .modp import FpAlgebra, nullspace, residue_dtype
from .orders import Order, is_names
from .padic import INFINITY, as_int, int_val, residues_over, val


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Rational-valued characters on the order basis, with their degrees.

    The data derived from the table with an order (the rational centre
    and the witness test) is kept on it, see :func:`forms.kept`.
    """

    values: np.ndarray  # (num_chars, dim)
    degrees: tuple  # chi(1) per character
    names: tuple = ()
    _kept: dict = field(default_factory=dict, repr=False)

    @property
    def num_chars(self) -> int:
        return self.values.shape[0]


def make_character_table(values, A: Order, names=None) -> CharacterTable:
    """Validate characters: linearly independent, with positive degrees
    read off the unit that weight them to sum to the regular character,
    and no names or one string per character."""
    values = linalg.as_matrix(values)
    r = values.shape[0]
    if names is not None and not is_names(names):
        raise ValueError("character names must be a list of strings")
    if names and len(names) != r:
        raise ValueError(f"{len(names)} character names for {r} characters")
    try:  # the columns of the numerators have rank r
        linalg.solve_of_rows(linalg.numerators(values)[0].T.tolist(), r)
    except ValueError:
        raise ValueError("characters are linearly dependent") from None
    degrees = tuple(np.dot(values[i], A.one) for i in range(values.shape[0]))
    if any(d <= 0 for d in degrees):
        raise ValueError("character degrees must be positive")
    rho = A.regular_traces
    combo = np.tensordot(linalg.as_vector(degrees), values, axes=([0], [0]))
    if not linalg.vectors_equal(combo, rho):
        raise ValueError("degree-weighted character sum is not the regular character")
    return CharacterTable(values=values, degrees=degrees, names=tuple(names or ()))


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
    """Validated on Python ints, before any entry meets int64."""
    rows = [[as_int(x) for x in row] for row in entries]
    if any(x < 0 for row in rows for x in row):
        raise ValueError("decomposition entries must be non-negative")
    modular_dims = tuple(as_int(x) for x in modular_dims)
    shape = (len(rows), *sorted({len(row) for row in rows}))
    if shape != (len(degrees), len(modular_dims)):
        raise ValueError(f"decomposition matrix of shape {shape}, not "
                         f"{(len(degrees), len(modular_dims))}")
    if any(d <= 0 for d in modular_dims):
        raise ValueError("modular dimensions must be positive")
    for i, (chi1, row) in enumerate(zip(degrees, rows)):
        if Fraction(sum(x * d for x, d in zip(row, modular_dims))) != Fraction(chi1):
            raise ValueError(
                f"degree {chi1} of character {i} does not match decomposition row"
            )
    return DecompositionMatrix(np.array(rows, dtype=np.int64).reshape(shape), modular_dims)


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
    c_chi) e_chi, so G_{f_a} = L(u)^T G_rho for L(x) the matrix of
    y -> x y.  L(u) is a_chi / c_chi on e_chi K⊗A, of dimension r_chi =
    rho(e_chi), so v_p(det G_{f_a}) = sum r_chi v_p(a_chi) + ``determinant``
    with ``determinant`` = v_p(det G_rho) - sum r_chi v_p(c_chi).
    ``idempotents`` and ``values`` are (rows, v_p(d)): the distinct
    nonzero rows of the e_chi and of the chi(b_k) on the basis, as
    integers over one denominator d, which expand sum a_chi e_chi and the
    values f_a(b_k) in the a_chi.
    """

    p: int
    idempotents: tuple
    values: tuple
    ranks: np.ndarray  # r_chi
    determinant: int

    @cached_property
    def _python_ints(self) -> tuple:  # the ranks and the value rows
        return self.ranks.tolist(), self.values[0].tolist()

    def exponent(self, a) -> int | None:
        """n when f_a = sum a_chi chi, for integers a_chi, is a witness of
        exponent n, else None, on Python ints: no a_chi is 0, n = v_p(det
        G_{f_a}) / dim is a nonnegative integer, and every value f_a(b_k)
        lies in p^n O.  The least valuation of a value is that of an entry
        f_a(b_i b_j) of G_{f_a} (b_k = b_k 1), so it never exceeds n."""
        if 0 in a:
            return None
        ranks, rows = self._python_ints
        n, rest = divmod(sum(r * int_val(x, self.p) for r, x in zip(ranks, a))
                         + self.determinant, sum(ranks))
        if rest or n < 0:
            return None
        q = self.p ** (n + self.values[1])
        return None if any(sum(x * y for x, y in zip(row, a)) % q for row in rows) else n


def witness_test(A: Order, table: CharacterTable) -> WitnessTest:
    """Derived on first use with A and kept on the table, certifying that
    each c_chi is one nonzero scalar on every basis element.  The e_chi
    are central, orthogonal and sum to 1, as the rational centre certifies
    on its table, so each f_a is then a trace form."""
    return kept(table._kept, "witness_test", (A,), lambda: _witness_test(A, table))


def _witness_test(A: Order, table: CharacterTable) -> WitnessTest:
    centre = rational_centre(A, table)
    (E, h), (X, m) = centre.integer_idempotents, centre.integer_characters
    p, (R, r) = A.prime, linalg.numerators(A.regular_traces)  # rho(b_k) = R_k / r
    N, g = _gram_numerators(A, regular_character_form(A))  # G_rho = N / g
    exps = _regular_gram_exponents(A)
    if len(exps) < A.dim:
        raise ValueError("regular Gram matrix singular: K⊗A not separable")
    ranks, determinant = [], sum(exps) - A.dim * int_val(g, p)
    # columns e_chi h, rows chi(b_k) m, and rho(e_chi b_k) g h
    for traces, chi, e in zip(np.array(N, dtype=object).T.dot(E).T, X, E.T):
        i = next(i for i, x in enumerate(chi) if x)  # c_chi = traces[i] m / (chi[i] g h)
        if traces[i] == 0 or any(t * chi[i] != traces[i] * x for t, x in zip(traces, chi)):
            raise ValueError("regular character on e_chi A is no multiple of chi")
        ranks.append(as_int(Fraction(R.dot(e), r * h)))
        determinant -= ranks[-1] * (int_val(traces[i] * m, p) - int_val(chi[i] * g * h, p))
    families = []
    for M, d in ((E, h), (X.T, m)):
        rows = list(dict.fromkeys(tuple(row) for row in M if any(row)))
        families.append((np.array(rows, dtype=object).reshape(-1, M.shape[1]), int_val(d, p)))
    return WitnessTest(p, *families, np.array(ranks, dtype=np.int64), determinant)


def _witness_form(A: Order, table: CharacterTable, a, n: int) -> LinearForm:
    """p^{-n} sum a_chi chi, one integer dot on the characters X / m of the
    rational centre, certified symmetrising, which certifies n."""
    X, m = rational_centre(A, table).integer_characters
    N, q = linalg.numerators(a)
    form = LinearForm(linalg.from_numerators(N.dot(X), q * m * A.prime**n))
    if not is_symmetrising(A, form):
        raise AssertionError("witness form not symmetrising")
    return form


def _decomposition_coefficients(table: CharacterTable, D: DecompositionMatrix, m) -> tuple:
    """a = D m: the character coefficients of the form built from m."""
    return tuple(sum(int(d) * x for d, x in zip(row, m)) for row in D.entries)


def _morita_search(A: Order, table: CharacterTable, D: DecompositionMatrix, box: range):
    """First m in box^l, lexicographically, whose form is a witness.  Each m
    is decoded from its index digit by digit and tested on its own
    (:meth:`WitnessTest.exponent`), so no part of the box is stored and the
    walk stops at the first witness."""
    test, rows, l = witness_test(A, table), D.entries.tolist(), D.num_modular
    size = box.stop - box.start  # len(box) stops at 2^63
    for index in range(size**l):
        m = tuple(box[index // size ** (l - 1 - j) % size] for j in range(l))
        a = tuple(sum(d * x for d, x in zip(row, m)) for row in rows)
        n = test.exponent(a)
        if n is not None:
            return MoritaWitness(m=m, n=n, a=a, form=_witness_form(A, table, a, n))
    return None


def morita_psp_search(A: Order, table: CharacterTable, D: DecompositionMatrix,
                      bound: int = 5):
    """Search positive integer vectors m with entries <= bound for a
    symmetrising form p^{-n} sum (D m)_chi chi, one m at a time in
    lexicographic order (:meth:`WitnessTest.exponent`), in memory that
    does not grow with the bound.

    A witness certifies that the Morita class of the order contains one
    with the projective scalar property; absence within the box is a
    bounded statement, not a refutation.  The first witness is returned,
    certified symmetrising."""
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
    """The centre Z as a ring on its own saturated basis, with its central
    characters and the primitive central idempotents dual to them, each
    as integers M over one denominator d, (M, d) for M / d, as
    :func:`forms.central_characters` reads and returns them;
    ``linalg.from_numerators(*pair)`` gives the Fraction array."""

    integer_basis: tuple  # columns z_i, coordinates in the order basis
    integer_table: tuple  # (rank, rank, rank): z_i z_j = sum_k table[i, j, k] z_k
    integer_unit: tuple  # (rank,): 1 = sum_k unit[k] z_k
    integer_characters: tuple  # (num_chars, dim): chi(b_k)
    integer_spectral: tuple  # (rank, num_chars): omega_chi(z_i) = chi(z_i)/chi(1)
    integer_idempotents: tuple  # (dim, num_chars): columns e_chi

    @property
    def rank(self) -> int:
        return self.integer_basis[0].shape[1]


def rational_centre(A: Order, table: CharacterTable) -> RationalCentre:
    """The centre of the order (:attr:`Order.integer_centre`) with the central
    characters omega_chi of the table as its ring homomorphisms, and the
    idempotents dual to them (:func:`forms.central_characters`).  With a
    rational character table Z(K⊗A) is K^r, so this is the intersection
    of the order with the rational span of the central idempotents.  It
    is derived on first use with A and kept on the table."""
    return kept(table._kept, "rational_centre", (A,), lambda: _rational_centre(A, table))


def _rational_centre(A: Order, table: CharacterTable) -> RationalCentre:
    characters = linalg.numerators(table.values)
    return RationalCentre(*A.integer_centre, characters,
                          *central_characters(A.integer_centre, characters))


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
    p, (X, m) = A.prime, rational_centre(A, table).integer_characters
    w = [val(c, p) for c in linalg.as_vector(sigma_tilde)]
    vm = int_val(m, p)  # chi(b) = X / m
    out = []
    for b, chis in enumerate(X.T.tolist()):
        levels = [w_i + int_val(x, p) - vm if x else INFINITY for w_i, x in zip(w, chis)]
        mu = min(levels)
        if mu == INFINITY or mu >= n:
            continue
        # the unit part of chi(b), chi(b) / p^(mu - w_chi) = x / (p^v_p(x) m / p^v_p(m)), mod p
        terms = [(i, residues_over([x], p ** int_val(x, p) * (m // p**vm), p)[0])
                 for i, x in enumerate(chis) if levels[i] == mu]
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
    denominator at most the bound, in lowest terms as pairs (numerator,
    denominator), ordered by (denominator, |numerator|, sign)."""
    return [(sign * num, den) for den in range(1, bound + 1)
            for num in range(1, bound + 1) if math.gcd(num, den) == 1 for sign in (1, -1)]


# largest power k of p in the normalized candidates p^k (c_1, ..., c_{r-1}, 1)
POWER_RANGE = 4
# most cells one half of the meet in the middle may hold: its vectors times
# (1 + rows of the idempotent and value tests); a larger half is refused
HALF_CELL_LIMIT = 2**25


def _rational_witness(test: WitnessTest, values: list):
    """(k, digits, n) of the least witness p^k (c_1, ..., c_{r-1}, 1), for
    c_i = values[digits[i]] as (numerator, denominator), k-major with
    k <= POWER_RANGE and then lexicographic in the digits, or None.

    c is a witness of exponent mu exactly when mu = (sum r_chi v_p(c_chi)
    + ``determinant``) / dim is an integer and every value sum c_chi
    chi(b_k) has valuation >= mu: the least valuation of a value never
    exceeds v_p(det G) / dim (see :meth:`WitnessTest.exponent`).  Then
    p^k c is a witness of exponent mu + k when mu + k >= 0, and sum p^k
    c_chi e_chi lies in the order when every row of ``test.idempotents``
    applied to c has valuation >= its v_p(d) - k.  For fixed (k, mu) both
    are one congruence mod p^W on the residues of p^top c, which is
    p-integral on the whole box, linear in the c_chi, beside a sum of r_chi
    v_p(c_chi).  So the box is split in two halves (Horowitz and Sahni's
    meet in the middle, J. ACM 21, 1974): the second, with c_r = 1, is
    hashed on its (valuation sum, residues), keeping the least row per
    key, and the first is walked in lexicographic order, looking up the
    sum it lacks and its negated residues; its first hit is the least
    witness at (k, mu).  No other mu has one: the symmetrising forms are
    t(u .) for one of them, t, and the units u of the centre (Broue,
    Michigan Math. J. 58, 2009), whose omega_chi(u) are units, so
    v_p(c_chi) - mu is the same for every witness, and c_r = 1 fixes mu."""
    p, r, dim = test.p, len(test.ranks), int(test.ranks.sum())
    (E, ve), (X, vx) = test.idempotents, test.values
    cuts = [range(r // 2), range(r // 2, r - 1)]
    vectors = len(values) ** max(map(len, cuts))
    if vectors * (1 + len(E) + len(X)) > HALF_CELL_LIMIT:
        raise ValueError(f"rational: a search half of {vectors} vectors, "
                         f"{vectors * (1 + len(E) + len(X))} cells, exceeds the limit "
                         f"of {HALF_CELL_LIMIT} cells; lower --bound")
    v = {x: int_val(x, p) for value in values for x in map(abs, value)}
    top = max(v[den] for _, den in values)
    vals = np.array([v[abs(num)] - v[den] for num, den in values], dtype=np.int64)
    digits = [np.indices((len(values),) * len(c)).reshape(len(c), len(values) ** len(c)).T
              for c in cuts]
    sums = [sum((int(test.ranks[i]) * vals[d[:, j]] for j, i in enumerate(c)),
                np.zeros(len(d), dtype=np.int64)) for c, d in zip(cuts, digits)]
    totals = {a + b + test.determinant for a in set(sums[0].tolist())
              for b in set(sums[1].tolist())}
    mus = sorted(t // dim for t in totals if t % dim == 0 and t >= -dim * POWER_RANGE)
    if not mus:
        return None
    P = p ** max(0, ve + top, mus[-1] + vx + top)
    dtype = residue_dtype(P, r)
    scale = {den: p ** (top - v[den]) * pow(den // p ** v[den], -1, P) for _, den in values}
    units = np.array([num * scale[den] % P for num, den in values], dtype=dtype)
    M = (np.concatenate([E, X]).astype(object) % P).astype(dtype)
    constants = [np.zeros((1, len(M)), dtype=dtype), p**top * M[None, :, r - 1] % P]
    # per half: the valuation sum, then the residues of sum_chi p^top c_chi M_chi
    tables = [np.concatenate([s[:, None], (sum((units[d[:, j], None] * M[:, i] for j, i in
                                                enumerate(c)), constant) % P)], axis=1)
              for s, c, d, constant in zip(sums, cuts, digits, constants)]
    for k in range(POWER_RANGE + 1):
        for mu in (mu for mu in mus if mu + k >= 0):
            # the sums are equal mod 2^40 exactly when they are equal
            mods = np.array([2**40] + [p ** max(0, ve - k + top)] * len(E)
                            + [p ** max(0, mu + vx + top)] * len(X), dtype=dtype)
            right = (tables[1] % mods).tolist()
            least = dict(zip(map(tuple, reversed(right)), range(len(right) - 1, -1, -1)))
            target = np.zeros(len(mods), dtype=dtype)
            target[0] = dim * mu - test.determinant
            for i, key in enumerate(map(tuple, ((target - tables[0]) % mods).tolist())):
                if key in least:
                    return k, (*digits[0][i].tolist(), *digits[1][least[key]].tolist()), mu + k
    return None


def rational_symmetry_search(A: Order, table: CharacterTable, bound: int = 5):
    """Bounded search for rational spectral coefficients of a symmetrising
    form.

    Candidates sigma~ are normalized, using invariance under scaling by
    rationals of valuation zero, to the shape p^k (c_1, ..., c_{r-1}, 1)
    with k <= POWER_RANGE and the c_i nonzero rationals of bounded
    numerator and denominator, ordered by k and then by the c_i.
    A candidate must be an element of the order (membership of sum
    sigma~_chi e_chi) and pass the witness test of :class:`WitnessTest`;
    the least one is found by a meet in the middle over the box
    (:func:`_rational_witness`), hashing about 2 N^ceil((r-1)/2) half
    vectors per (k, exponent) for N values, where a scan reads N^(r-1).
    Only that witness is certified symmetrising.  Returns it plus the
    congruence report it implies; absence is only a bounded statement.
    """
    p, values = A.prime, _search_values(bound)
    hit = _rational_witness(witness_test(A, table), values)
    if hit is None:
        return RationalSymmetryResult(None, None, None, [])
    k, digits, n = hit
    sigma = [Fraction(p**k * values[i][0], values[i][1]) for i in digits] + [Fraction(p**k)]
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
    """The residue algebra of the rational centre Z, and the distinct
    reductions mod p of its central characters on the basis as sorted
    tuples: the unital homomorphisms Z -> F_p, whose kernels are the
    maximal ideals of Z.

    Z is an O-order in K^r, hence integral over O, so by lying over
    (Cohen-Seidenberg) every unital homomorphism Z -> F_p is z ->
    omega_chi(z) mod p for a column chi of the spectral coordinates.
    Certified: the table of Z is a ring with 1
    (:attr:`Order.integer_centre`), the spectral coordinates are
    p-integral, each reduction is a unital homomorphism on the table, and
    the joint kernel is nilpotent, so no maximal ideal is missed.
    """
    p = A.prime
    spectral, table, unit = (np.array(residues_over(M.flat, d, p), dtype=object).reshape(M.shape)
                             for M, d in (centre.integer_spectral, centre.integer_table,
                                          centre.integer_unit))
    if None in spectral:
        raise AssertionError("spectral coordinates not p-integral")
    alg = FpAlgebra(p, centre.rank, table, unit)
    homs = sorted(set(map(tuple, spectral.T.tolist())))
    H = np.array(homs, dtype=object)
    if (H @ alg.one % p != 1).any() or any(((np.outer(h, h) - alg.table @ h) % p).any()
                                           for h in H):
        raise AssertionError("central character not a unital homomorphism mod p")
    if not alg.is_nilpotent_subspace(nullspace(H, p)):
        raise AssertionError("central characters miss a maximal ideal")
    return alg, homs


def rational_intersection_criterion(
    A: Order,
    table: CharacterTable,
    D: DecompositionMatrix,
    sigma_tilde=None,
) -> IntersectionCriterionResult:
    """Decision of the scalar property from rational character data, on
    the homomorphisms omega-bar: Z -> F_p of the rational centre Z
    (:func:`_central_homs`), whose kernels are its maximal ideals.

    Two tests are computed from a rational symmetry witness sigma~, which
    has no zero entry:

    * the orbit test (``verdict``): the Casimir orbit meets the scalars
      exactly when the line through w = sum (sigma~_chi / chi(1)) e_chi
      meets the unit group of the order, decided on the primitive lattice
      point z0 = p^shift w of that line.  z0 is central with ring
      coordinates, so it lies in Z, and it is a unit exactly when no
      omega-bar kills it: when every omega_chi(z0) = p^shift sigma~_chi /
      chi(1) has valuation 0.  This agrees with the direct Casimir
      algorithms.
    * the span test (``morita_verdict``): Z_W, the saturated lattice of
      the z in Z whose image (sigma~_chi omega_chi(z))_chi lies in the
      span of the columns of D, properly contains its intersection with
      every maximal ideal I, that is, lies in no I: every omega-bar is
      nonzero mod p on some basis vector of Z_W.  A pass produces a
      decomposition-shaped symmetrising form for some member of the
      Morita class.
    """
    if sigma_tilde is None:
        found = rational_symmetry_search(A, table)
        if found.witness_sigma is None:
            raise ValueError("no rational symmetry witness within the default bound")
        sigma_tilde = found.witness_sigma
    sigma_tilde = linalg.as_vector(sigma_tilde)
    if any(x == 0 for x in sigma_tilde):
        raise ValueError("zero Schur coefficient")
    centre = rational_centre(A, table)
    p, homs = A.prime, _central_homs(A, centre)[1]
    (E, h), (S, _) = centre.integer_idempotents, centre.integer_spectral

    # orbit test on the line through w = W / (h q), with omega_chi(w) =
    # sigma~_chi / chi(1) = a_chi / q
    a, q = linalg.numerators([s / d for s, d in zip(sigma_tilde, table.degrees)])
    W = E.dot(a)
    shift = int_val(h * q, p) - min(int_val(x, p) for x in W if x)
    z0 = linalg.from_numerators(W * p ** max(shift, 0), h * q * p ** max(-shift, 0))
    if not linalg.is_integral(z0, p):
        raise AssertionError("scaled orbit element has non-ring coordinates")
    verdict = all(int_val(x, p) - int_val(q, p) == -shift for x in a)

    # span test: Z_W against the kernel of every homomorphism, on the
    # numerators of sigma~, which scale the equations by a constant
    annihilator = linalg.integral_kernel_of_rows(D.entries.T.tolist(), len(D.entries), p).T
    span = annihilator.dot(S.T * linalg.numerators(sigma_tilde)[0][:, None])
    Z_W = linalg.integral_kernel_of_rows(span.tolist(), centre.rank, p)
    morita_verdict = bool((np.array(homs, dtype=object) @ Z_W % p != 0).any(axis=1).all())
    return IntersectionCriterionResult(verdict=verdict, morita_verdict=morita_verdict,
                                       orbit_generator=z0, maximal_ideal_count=len(homs))


# -- heights and divisibility ----------------------------------------------


def height(rank_or_degree, degrees, p: int) -> int:
    """Valuation of a rank above the minimal valuation among the degrees."""
    if not len(degrees):
        raise ValueError("height needs a nonempty degree table")
    degrees = linalg.as_vector(degrees)
    if rank_or_degree == 0 or any(d == 0 for d in degrees):
        raise ValueError("height of a zero rank or degree")
    base = min(val(d, p) for d in degrees)
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
    projective lattices val(rank) >= n.  Every row is reported, each with
    its verdict; ``ok`` is False when one fails.
    """
    rows = []
    for name, rank, is_knorr, is_projective in lattice_verdicts:
        v = int(val(Fraction(rank), p))
        if is_knorr:
            rows.append((name, rank, "knorr", v, psp_n, v <= psp_n))
        if is_projective:
            rows.append((name, rank, "projective", v, psp_n, v >= psp_n))
    return DivisibilityReport(entries=tuple(rows))


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
