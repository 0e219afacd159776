"""Lattices over an order and their stable homomorphism theory.

A lattice is a module given by one ring-entry action matrix per order
basis element, kept only as one integer array over one unit denominator
(:attr:`Lattice.integer_action`) and validated on the nonzero entries
of its columns (:func:`orders.module_failure`); the regular lattice and
direct sums are built from certified data, not validated again.  The
intertwiner lattice Hom(U, V) is a saturated integral kernel; the
relatively projective homomorphisms are the image of the relative trace
map on elementary matrices, and the stable Hom group is the (finite,
torsion) quotient, presented by its invariant factors and lifted generators.

The Hom layer keeps one representation per datum, integer arrays over
one unit denominator: Hom bases (:attr:`HomLattice.integer_basis`),
stable Hom generators (:attr:`StableHomPresentation.integer_generators`)
and act_U(z^{-1}), kept on U for each form.  Coordinates and classes of
intertwiners come from one integer elimination; the Tate pairing
(alpha, beta) -> tr(z^{-1} beta alpha) modulo the ring and the plain
and twisted traces that the Knorr and stable-exponent criteria read are
each one integer contraction.  ``linalg.from_numerators(*pair)`` gives
the Fraction array of a pair.

Free lattices take closed forms.  A lattice of rank dim A is free on
its basis vector u when the orbit matrix M = [act(b_j) u]_j has full
rank mod p (:func:`free_generator`).  Then Hom(U, V) is read off V, the
hom with u -> v being W_v M^{-1} for W_v = [act_V(b_j) v]_j, and a
stable Hom with U on either side is zero by Higman's criterion,
certified once per form as Tr(u (s o M^{-1})) = id_U (:func:`_higman`).
The integral kernel (:func:`_hom_lattice`) serves every other source
and is the oracle of the closed form in the tests.

Homs of rank at most one (:func:`_low_rank`) take closed forms whatever
the lattices: a zero Hom has a zero stable Hom, and on a basis phi of a
rank-1 Hom every relative trace is y_j phi, certified on the one
integer product of relative traces, so the stable Hom is the ring
modulo p^a for a = min v_p(y_j), generated by phi
(:func:`_rank_one_invariants`).  An End(U) of rank one is the ring,
certified on its basis, so End(U) mod p is the prime field with radical
zero, and the socle test with no radical lifts needs no elimination.
Homs of rank two or more take the Smith form of the coordinates of the
projective homs and the radical of :class:`FpAlgebra`, which the tests
keep as the oracle of these closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
# casimir is not called here, but perfbench's tracer test checks that it is patched
from .forms import LinearForm, casimir, casimir_inverse, dual_basis, kept  # noqa: F401
from .modp import FpAlgebra, nullspace, rref
from .orders import Order, module_failure
from .padic import INFINITY, int_val, integral_over, residues_over, val_over


class InvalidLatticeError(ValueError):
    pass


class TateDualityError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Lattice:
    """Module over an order, free of finite rank over the base ring."""

    order: Order
    rank: int
    # (N, q): the action as one integer array N, indexed (basis element,
    # row, column), over q, the least common denominator of its entries
    # (a unit at p); act(b_k) = N[k] / q
    integer_action: tuple = field(repr=False)
    # Hom lattices, stable Homs, residue analyses, twisting matrices, a
    # free generator and its Higman certificate
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def integer_act(self, a) -> tuple:
        """(M, m): the action matrix M / m of an arbitrary (possibly
        rational) element a = w / e, namely sum_k w_k N[k] over e q."""
        w, e = linalg.numerators(linalg.as_vector(a))
        N, q = self.integer_action
        return _combine(w, N), e * q


def _combine(C, M) -> np.ndarray:
    """sum_k C[..., k] M[k] for a vector or matrix C and a stack M of
    matrices: np.tensordot(C, M, 1) as one reshape and one dot, several
    times faster on object arrays.  The shapes are explicit, so the empty
    stacks of a zero Hom keep theirs."""
    k, m, n = M.shape
    return C.dot(M.reshape(k, m * n)).reshape(*C.shape[:-1], m, n)


def make_lattice(A: Order, action) -> Lattice:
    """Validate module axioms and build a Lattice.

    The action matrices must have ring entries, send the unit to the
    identity, and realize the structure constants, act(b_i) act(b_j) =
    sum_k c_ijk act(b_k), which :func:`orders.module_failure` checks on
    the nonzero entries of the columns of the integer action; an error
    names the first failing basis pair in lexicographic order.
    """
    mats = [linalg.as_matrix(m) for m in action]
    if len(mats) != A.dim:
        raise InvalidLatticeError("one action matrix per basis element required")
    rank = mats[0].shape[0]
    if rank == 0:
        raise InvalidLatticeError("rank must be positive")
    if any(m.shape != (rank, rank) for m in mats):
        raise InvalidLatticeError("action matrices must be square, equal size")
    N, q = linalg.numerators(np.array(mats))
    if q % A.prime == 0:
        raise InvalidLatticeError("action entries must lie in the ring")
    w, e = linalg.numerators(A.one)
    if not (_combine(w, N) == e * q * np.identity(rank, dtype=object)).all():
        raise InvalidLatticeError("unit acts nontrivially")
    columns = [[[(r, x) for r, x in enumerate(col) if x] for col in Nk]
               for Nk in N.transpose(0, 2, 1).tolist()]
    if (failure := module_failure(A, columns, q)) is not None:
        raise InvalidLatticeError("module axiom fails: basis pair (%d, %d)" % failure[:2])
    return Lattice(order=A, rank=rank, integer_action=(N, q))


def regular_lattice(A: Order) -> Lattice:
    """N[i][k, j] = d c_ijk over q = d, off the table: its module axioms are
    the associativity and the unit axiom that :func:`make_order` certified."""
    N = np.zeros((A.dim, A.dim, A.dim), dtype=object)
    for i, row in enumerate(A.products):
        for j, prods in enumerate(row):
            for k, c in prods:
                N[i, k, j] = c
    return Lattice(order=A, rank=A.dim, integer_action=(N, A.denominator))


def direct_sum(U: Lattice, V: Lattice) -> Lattice:
    """The block-diagonal action over lcm(q_U, q_V), with no new validation."""
    if U.order is not V.order:
        raise InvalidLatticeError("direct sum needs a common order")
    (nu, du), (nv, dv) = U.integer_action, V.integer_action
    q, n = math.lcm(du, dv), U.rank + V.rank
    N = np.zeros((U.order.dim, n, n), dtype=object)
    N[:, :U.rank, :U.rank] = nu * (q // du)
    N[:, U.rank:, U.rank:] = nv * (q // dv)
    return Lattice(order=U.order, rank=n, integer_action=(N, q))


# -- Hom lattices --------------------------------------------------------


@dataclass(eq=False)
class HomLattice:
    """Saturated lattice of intertwiners U -> V (or a sublattice of it)."""

    source: Lattice
    target: Lattice
    # (N, d): basis element k is N[k] / d, for an integer array N indexed
    # (basis element, row of V, column of U) and a positive integer d, a
    # unit for the lattices built here and 1 for the saturated kernels
    integer_basis: tuple

    @property
    def rank(self) -> int:
        return self.integer_basis[0].shape[0]

    def _coords(self, B, b: int):
        """Ring coordinates in this basis of the columns of the integer
        matrix B / b (intertwiners flattened row by row), or None."""
        N, d = self.integer_basis
        N = N.reshape(N.shape[0], N.shape[1] * N.shape[2]).T
        return linalg.lattice_membership_of_columns((N, d), (B, b), self.source.order.prime)


def free_generator(A: Order, U: Lattice):
    """(k, (Y, y)) when U is free on its basis vector e_k, else None.

    For rank U = dim A, e_k generates U freely exactly when its orbit
    matrix M = [act(b_j) e_k]_j, the matrix of a -> a e_k from the
    regular lattice to U, is invertible over the ring: when it has full rank mod p,
    which is the certificate.  k is the first such index, and M^{-1} =
    Y / y over a unit y comes from one exact solve.  A lattice whose
    traces are not those of the regular one is not free, and is
    dismissed before any rank is taken.  Kept on U.
    """
    if U.rank != A.dim:
        return None
    return kept(U._kept, "free_generator", (A,), lambda: _free_generator(A, U))


def _free_generator(A: Order, U: Lattice):
    N, q = U.integer_action
    n = U.rank
    t, d = linalg.numerators(A.regular_traces)
    if not (N.trace(axis1=1, axis2=2) * d == t * q).all():
        return None
    k = next((k for k in range(n) if len(rref(N[:, :, k].T, A.prime)[1]) == n), None)
    if k is None:
        return None
    # M = N[:, :, k]^T / q, so M^{-1} = q (q M)^{-1} and q M X = 1
    rows = [[*row, *(int(i == j) for j in range(n))]
            for i, row in enumerate(N[:, :, k].T.tolist())]
    X, y = linalg.solve_of_rows(rows, n)
    return k, (np.array(X, dtype=object) * q, y)


def hom_lattice(A: Order, U: Lattice, V: Lattice) -> HomLattice:
    """Saturated basis of {phi : phi act_U(b_g) = act_V(b_g) phi for the
    generators g}: the a that phi intertwines form a subalgebra.  For U
    free on u it is read off V (:func:`_free_hom_lattice`), otherwise it
    is the integral kernel of the intertwining system (:func:`_hom_lattice`).

    Orders and lattices are immutable, so the result is kept on the
    source lattice U (see :func:`kept`); it lives exactly as long as U.
    """
    def build():
        free = free_generator(A, U)
        return _hom_lattice(A, U, V) if free is None else _free_hom_lattice(A, U, V, free[1])

    return kept(U._kept, "hom_lattice", (A, V), build)


def _free_hom_lattice(A: Order, U: Lattice, V: Lattice, inverse: tuple) -> HomLattice:
    """Hom(A u, V) for U free on u with orbit matrix M, M^{-1} = Y / y.

    The hom with u -> v is alpha_v = W_v M^{-1} for W_v = [act_V(b_j) v]_j,
    and v -> alpha_v is an isomorphism V -> Hom(U, V), so the alpha_v of
    the basis vectors of V are a saturated basis: alpha_{e_i} = W_i Y over
    q_V y, with q_V W_i = N_V[:, :, i]^T.  Each is certified to intertwine
    the generators, on integers.
    """
    Y, y = inverse
    (nv, qv), (nu, qu) = V.integer_action, U.integer_action
    B = np.tensordot(nv.transpose(2, 1, 0), Y, 1)
    for g in A.generators:
        if not (nv[g].dot(B).transpose(1, 0, 2) * qu == B.dot(nu[g]) * qv).all():
            raise AssertionError("closed-form hom does not intertwine")
    return HomLattice(U, V, (B, qv * y))


def _hom_lattice(A: Order, U: Lattice, V: Lattice) -> HomLattice:
    # act_V(b_g) phi - phi act_U(b_g), on phi flattened row by row, as
    # integer rows: q times the rational ones for the unit denominator q,
    # and scaling rows by positive units leaves the kernel basis as it is.
    # Row (a, b) of generator g has V_g[a, c] at column (c, b) and
    # -U_g[c, b] at column (a, c).
    (nv, dv), (nu, du) = V.integer_action, U.integer_action
    q = math.lcm(dv, du)
    ru, rv = U.rank, V.rank
    rows = []
    for g in A.generators:
        v, u = (nv[g] * (q // dv)).tolist(), (nu[g] * (q // du)).tolist()
        for a in range(rv):
            for b in range(ru):
                row = [0] * (rv * ru)
                for c in range(rv):
                    row[c * ru + b] = v[a][c]
                for c in range(ru):
                    row[a * ru + c] -= u[c][b]
                rows.append(row)
    K = linalg.integral_kernel_of_rows(rows, rv * ru, A.prime)
    return HomLattice(U, V, (K.T.reshape(K.shape[1], rv, ru), 1))


def _relative_trace_map(A: Order, s: LinearForm, U: Lattice, V: Lattice) -> tuple:
    """The relative trace alpha -> sum_i act_V(b_i) alpha act_U(b_i^v) on
    rank_V x rank_U matrices flattened row by row, as an integer matrix T
    over one unit denominator q: column a rank_U + b of T / q is the
    relative trace of the elementary matrix E_ab.

    Entry (a', b') of Tr(E_ab) is sum_i act_V(b_i)[a', a] act_U(b_i^v)[b, b'],
    one integer product X Y of the V action, indexed ((a', a), i), and the
    dual actions, indexed (i, (b, b')).
    """
    ru, rv = U.rank, V.rank
    nv, dv = V.integer_action
    nu, du = U.integer_action
    nd, dd = dual_basis(A, s).integer_matrix
    X = nv.reshape(A.dim, rv * rv).T
    Y = nd.T.dot(nu.reshape(A.dim, ru * ru))
    T = X.dot(Y).reshape(rv, rv, ru, ru).transpose(0, 3, 1, 2).reshape(rv * ru, rv * ru)
    return T, dv * du * dd


def projective_hom_lattice(A: Order, s: LinearForm, U: Lattice, V: Lattice) -> HomLattice:
    """Lattice of relatively projective homomorphisms U -> V.

    The relative traces of the elementary matrices generate it over the
    ring; the generating set is reduced to a lattice basis (keeping any
    finite index intact, on the integer matrix of the traces), and its
    containment in Hom(U, V) is certified (an ``AssertionError`` otherwise).
    """
    return _projective_hom(A, s, U, V)[0]


def _projective_hom(A: Order, s: LinearForm, U: Lattice, V: Lattice) -> tuple:
    """(P, (X, x)): the lattice of :func:`projective_hom_lattice` and the
    ring coordinates X / x of its basis in that of Hom(U, V), one column
    each, which certify the containment."""
    B = linalg.lattice_basis_of_columns(_relative_trace_map(A, s, U, V)[0], A.prime)
    coords = hom_lattice(A, U, V)._coords(B, 1)
    if coords is None:
        raise AssertionError("projective hom escaped the hom lattice")
    return HomLattice(U, V, (B.T.reshape(B.shape[1], V.rank, U.rank), 1)), coords


# -- stable Hom ----------------------------------------------------------


class StableHomPresentation:
    """Finite presentation of Hom(U, V) modulo projective homomorphisms.

    The quotient decomposes as a direct sum of cyclic factors
    ring/p^{d_1} <= ... <= ring/p^{d_k}; ``integer_generators`` are
    intertwiners whose classes generate the factors.
    """

    def __init__(self, A, hom, invariants):
        self.order = A
        self.hom = hom
        self.exponents = invariants.exponents
        # (G, g): generator i is G[i] / g, the combination sum_k F[k, i] N[k]
        # over f d of the hom basis N / d by the torsion basis F / f
        F, f = invariants.torsion_basis
        N, d = hom.integer_basis
        self.integer_generators = (_combine(F.T, N), f * d)
        # (L, l): hom coordinates -> coordinates on the generators, L / l
        self._left = invariants.torsion_left

    @property
    def exponent(self) -> int:
        return max(self.exponents) if self.exponents else 0

    def _classes(self, B, b: int) -> list:
        """The class in the invariant-factor coordinates of each column of
        the integer matrix B / b (intertwiners flattened row by row)."""
        coords = self.hom._coords(B, b)
        if coords is None:
            raise ValueError("not an intertwiner with ring coordinates")
        X, x = coords
        L, l = self._left
        p = self.order.prime
        rows = [residues_over(row, l * x, p, d)
                for row, d in zip(L.dot(X).tolist(), self.exponents)]
        if any(None in row for row in rows):
            raise AssertionError("stable class has non-ring coordinates")
        return [tuple(row[j] for row in rows) for j in range(B.shape[1])]

    def element_count(self) -> int:
        n = 1
        for d in self.exponents:
            n *= self.order.prime**d
        return n


def stable_hom(A: Order, s: LinearForm, U: Lattice, V: Lattice) -> StableHomPresentation:
    """Invariant factors and lifted generators of the stable Hom group.

    The quotient must be torsion; a nonzero free part signals that the
    rational algebra is not separable: NotInvertibleError when the
    Casimir element is singular in K⊗A, an assertion otherwise.  Kept on U.
    """
    return kept(U._kept, "stable_hom", (A, s, V), lambda: _stable_hom(A, s, U, V))


def _stable_hom(A: Order, s: LinearForm, U: Lattice, V: Lattice) -> StableHomPresentation:
    """With U or V projective by :func:`_higman` every hom is projective
    and the presentation has no factor.  A Hom of rank at most one
    (:func:`_low_rank`) takes the closed form :func:`_rank_one_invariants`;
    otherwise the invariants come from the Smith form of the coordinates
    of the projective homs, the closed form's oracle in the tests."""
    hom = hom_lattice(A, U, V)
    if _higman(A, s, U) or _higman(A, s, V):
        inv = _no_factor(hom.rank)
    elif _low_rank(hom):
        inv = _rank_one_invariants(A, s, U, V, hom)
    else:
        X, x = _projective_hom(A, s, U, V)[1]
        inv = linalg.quotient_invariants_of_rows(X.tolist(), [x] * len(X), X.shape[1], A.prime)
    if inv.free_rank != 0:
        casimir_inverse(A, s)  # NotInvertibleError when z is singular in K⊗A
        raise AssertionError("free part nonzero: rational algebra not separable")
    return StableHomPresentation(A, hom, inv)


def _low_rank(H: HomLattice) -> bool:
    """Whether H has rank at most one, so that the stable Hom and End(U)
    mod p on it take closed forms; the tests patch this off to compare
    them with the Smith path and the radical."""
    return H.rank <= 1


def _no_factor(rank: int, free_rank: int = 0) -> linalg.QuotientInvariants:
    """Invariants with no torsion factor, on a Hom of the given rank."""
    empty = np.empty((rank, 0), dtype=object)
    return linalg.QuotientInvariants((), free_rank, (empty, 1), (empty.T, 1))


def _rank_one_invariants(A: Order, s: LinearForm, U: Lattice, V: Lattice,
                         hom: HomLattice) -> linalg.QuotientInvariants:
    """The invariants of Hom(U, V) of rank at most one modulo the projective
    homs, with no Smith form.

    A zero Hom has no factor.  On a basis phi = n / d, n has an entry n_k
    that is a unit (the basis is primitive), and every relative trace
    Tr(E_j) = T_j / q is an intertwiner, so a multiple of phi: T n_k = n y^T
    for the row y = T_k, certified as one integer identity.  Its
    coordinate y_j d / (q n_k) has valuation v_p(y_j), so the quotient is
    the ring modulo p^a for a = min v_p(y_j), generated by phi itself with
    coefficient 1: what the Smith path gives on a saturated basis.  All
    y_j = 0 leaves a free part.
    """
    if hom.rank == 0:
        return _no_factor(0)
    p = A.prime
    n = hom.integer_basis[0].reshape(-1)
    k = next((i for i, x in enumerate(n) if x % p), None)
    if k is None:
        raise AssertionError("hom basis not primitive")
    T = _relative_trace_map(A, s, U, V)[0]
    y = T[k]
    if not (T * n[k] == np.outer(n, y)).all():
        raise AssertionError("a relative trace is not a multiple of the hom basis")
    if not y.any():
        return _no_factor(1, free_rank=1)
    a = min(int_val(x, p) for x in y if x)
    if a == 0:
        return _no_factor(1)
    one = (np.ones((1, 1), dtype=object), 1)
    return linalg.QuotientInvariants((a,), 0, one, one)


def _higman(A: Order, s: LinearForm, U: Lattice) -> bool:
    """Whether U is free (:func:`free_generator`) and so projective, by
    Higman's criterion: Tr(beta) = id_U for beta = u (s o M^{-1}), the
    relative trace sum_i act(b_i) beta act(b_i^v) taken with the dual
    basis D of s.  Column i of M is act(b_i) u, so Tr(beta) = M D^T F
    for the rows F_j = (s o M^{-1}) act(b_j); it is checked as one
    integer identity.  Then alpha = alpha Tr(beta) = Tr(alpha beta) for
    every hom alpha out of U, and alpha = Tr(beta alpha) for every hom
    into U.  Kept on U for each form.
    """
    free = free_generator(A, U)
    if free is None:
        return False

    def certify() -> bool:
        k, (Y, y) = free
        N, q = U.integer_action
        nd, dd = dual_basis(A, s).integer_matrix
        v, e = linalg.numerators(s.values)
        F = np.tensordot(v.dot(Y), N, (0, 1))  # over e y q
        if not (N[:, :, k].T.dot(nd.T).dot(F) == np.identity(U.rank, dtype=object)
                * (q * dd * e * y * q)).all():
            raise AssertionError("Higman's certificate fails on a free lattice")
        return True

    return kept(U._kept, "higman", (A, s), certify)


def exponent(A: Order, s: LinearForm, U: Lattice) -> int:
    """Smallest a with p^a annihilating the stable endomorphism ring."""
    return stable_hom(A, s, U, U).exponent


# -- Tate duality --------------------------------------------------------


def _twisted_action(A: Order, s: LinearForm, U: Lattice) -> tuple:
    """(Z, z): act_U(z^{-1}) = Z / z for the Casimir element of s, an
    integer matrix over a positive integer, kept on U for each form."""
    return kept(U._kept, "twisted_action", (A, s),
                lambda: U.integer_act(casimir_inverse(A, s)))


def _pairings(Z, X, H) -> np.ndarray:
    """The integers tr(Z H_j X_i) = vec((X_i Z)^T) . vec(H_j), for integer
    arrays X of maps U -> V and H of maps V -> U and Z on U: one
    contraction, without forming the products H_j X_i."""
    n = X.shape[1] * Z.shape[0]
    XZ = X.dot(Z).transpose(0, 2, 1).reshape(X.shape[0], n)
    return XZ.dot(H.reshape(H.shape[0], n).T)


def tate_pair(A: Order, s: LinearForm, U: Lattice, V: Lattice, alpha, beta) -> Fraction:
    """Pairing value of (alpha, beta) in K modulo the ring, as its
    representative in [0, 1): c / p^k for the value x / den, with p^k
    exactly dividing den and c = x / (den / p^k) mod p^k.

    alpha : U -> V and beta : V -> U intertwine the actions; the value is
    the trace on the rationalized U of multiplication by z^{-1} composed
    with beta alpha.
    """
    (a, da), (b, db) = (linalg.numerators(linalg.as_matrix(m)) for m in (alpha, beta))
    Z, z = _twisted_action(A, s, U)
    p, den = A.prime, z * da * db
    k = int_val(den, p)
    (c,) = residues_over([_pairings(Z, a[None], b[None])[0, 0]], den // p**k, p, k)
    return Fraction(c, p**k)


def adjunction_check(A: Order, s: LinearForm, U: Lattice, V: Lattice, alpha, beta) -> bool:
    """Exact identity: pairing(Tr(alpha), beta) equals trace(beta alpha)
    for an arbitrary ring-linear alpha : U -> V and an intertwiner beta.

    The identity with the roles swapped (an intertwiner gamma : U -> V
    and an arbitrary delta : V -> U) is this one on (V, U, delta, gamma):
    the trace is cyclic and gamma commutes with z^{-1}.  Both sides are
    compared as integers over the denominator of the left one."""
    (a, da), (b, db) = (linalg.numerators(linalg.as_matrix(m)) for m in (alpha, beta))
    T, q = _relative_trace_map(A, s, U, V)
    Z, z = _twisted_action(A, s, U)
    traced = T.dot(a.reshape(-1)).reshape(1, V.rank, U.rank)
    return _pairings(Z, traced, b[None])[0, 0] == z * q * (a * b.T).sum()


@dataclass(frozen=True, eq=False)
class TateDualityReport:
    exponents_uv: tuple  # of a perfect pairing: the same on both sides
    pairing: tuple  # values on generator pairs, in [0, 1)


def verify_tate_duality(A: Order, s: LinearForm, U: Lattice, V: Lattice) -> TateDualityReport:
    """Certify that the pairing between the two stable Hom groups is perfect.

    Checks (a) matching invariant factors on both sides and (b) trivial
    kernel of the induced map into the character group.  A map between
    finite p-groups is injective exactly on its p-torsion, which is
    spanned over the residue field by t_i = p^(d_i-1) g_i.  One integer
    contraction (:func:`_pairings`) gives the values <g_i, h_j> on the
    generators h_j of the other side, and the residue c = p^a <g_i, h_j>
    mod p^a, for a the largest d_i, both the value c / p^a and the class
    of <t_i, h_j>, (c / p^(a-d_i)) mod p, where p^(a-d_i) dividing c is
    certified.  So (b) holds exactly when that layer matrix has full row
    rank.  Otherwise ``TateDualityError`` names the first class of its
    left nullspace, certified to pair integrally with every h_j.
    """
    # z^{-1} first: when z is singular in K⊗A, NotInvertibleError says so
    # before the stable Homs, whose free part is then nonzero
    Z, z = _twisted_action(A, s, U)
    S_uv = stable_hom(A, s, U, V)
    S_vu = stable_hom(A, s, V, U)
    if S_uv.exponents != S_vu.exponents:
        raise TateDualityError(
            "pairing degenerate: invariant factors differ "
            f"{S_uv.exponents} vs {S_vu.exponents}"
        )
    if not S_uv.exponents:
        return TateDualityReport(exponents_uv=(), pairing=())
    p, a = A.prime, S_uv.exponent
    (G, g), (H, h) = S_uv.integer_generators, S_vu.integer_generators
    den, pa = z * g * h, p**a
    residues = [residues_over([pa * v for v in row], den, p, a)
                for row in _pairings(Z, G, H).tolist()]
    layer = []
    for d, row in zip(S_uv.exponents, residues):
        if any(c is None or c % p ** (a - d) for c in row):
            raise AssertionError("p^d times a generator of order p^d pairs non-integrally")
        layer.append([c // p ** (a - d) % p for c in row])
    kernel = nullspace(list(zip(*layer)), p)
    if len(kernel):
        cls = tuple(int(c) * p ** (d - 1) for c, d in zip(kernel[0], S_uv.exponents))
        x = _combine(np.array(cls, dtype=object), G)
        if not integral_over(_pairings(Z, x[None], H)[0], den, p):
            raise AssertionError("nullspace class pairs non-integrally")
        raise TateDualityError(f"pairing degenerate: kernel class {cls}")
    pairing = tuple(tuple(Fraction(c, pa) for c in row) for row in residues)
    return TateDualityReport(exponents_uv=S_uv.exponents, pairing=pairing)


# -- residue endomorphism algebras and the Knorr criterion ---------------


@dataclass(frozen=True, eq=False)
class ResidueEndoAnalysis:
    """Endomorphism algebra of U over the residue field, with its radical."""

    hom: HomLattice
    dimension: int
    radical_basis: np.ndarray  # rows, mod-p coordinates in the hom basis
    split_local: bool
    quotient_dim: int


def residue_endo_analysis(A: Order, U: Lattice) -> ResidueEndoAnalysis:
    """Radical and split-local flag of End(U) over the residue field.

    The radical is zero when End(U) has rank one, and otherwise computed
    and certified by :meth:`FpAlgebra.radical`, in time polynomial in the
    rank of End(U) and the size of p.  U is absolutely indecomposable
    exactly when the quotient by the radical is one-dimensional (split
    local).  Kept on U.
    """
    return kept(U._kept, "residue_endo_analysis", (A,),
                lambda: _residue_endo_analysis(A, U))


def _residue_algebra(A: Order, E: HomLattice) -> FpAlgebra:
    """End(U) modulo p, on the reduction of the hom basis E of End(U).

    The basis is N_k / d for integer matrices N_k.  The products N_i N_j /
    d^2 and the identity have ring coordinates in it exactly when it is
    multiplicatively closed and holds 1: one
    :func:`linalg.lattice_membership_of_columns` of the columns [N_i N_j |
    d^2 1] over d^2 gives them all.  When some column has none, a second
    membership of the products alone tells the two failures apart.
    """
    e, p, r = E.rank, A.prime, E.source.rank
    N, d = E.integer_basis
    products = N.reshape(e * r, r).dot(N.transpose(1, 0, 2).reshape(r, e * r))
    products = products.reshape(e, r, e, r).transpose(1, 3, 0, 2).reshape(r * r, e * e)
    unit = (np.identity(r, dtype=object) * d * d).reshape(r * r, 1)
    basis = (N.reshape(e, r * r).T, d)
    try:
        coords = linalg.lattice_membership_of_columns(
            basis, (np.concatenate([products, unit], axis=1), d * d), p)
    except ValueError:
        raise AssertionError("hom basis not linearly independent") from None
    if coords is None:
        if linalg.lattice_membership_of_columns(basis, (products, d * d), p) is None:
            raise AssertionError("hom basis not multiplicatively closed")
        raise AssertionError("identity not in the hom lattice")
    X, x = coords  # column i e + j holds the coordinates of N_i N_j
    table = np.array(residues_over(X[:, :-1].T.flat, x, p), dtype=object).reshape(e, e, e)
    return FpAlgebra(p, e, table, np.array(residues_over(X[:, -1], x, p), dtype=object))


def _residue_endo_analysis(A: Order, U: Lattice) -> ResidueEndoAnalysis:
    """End(U) of rank one (:func:`_low_rank`) is the ring, its basis a unit
    times the identity, certified on integers: mod p it is the prime
    field, with radical zero.  Otherwise the radical of
    :func:`_residue_algebra` is computed."""
    E = hom_lattice(A, U, U)
    e = E.rank
    if _low_rank(E):
        N = E.integer_basis[0]
        c = N[0, 0, 0] if e else 0
        if c % A.prime == 0 or not (N == c * np.identity(U.rank, dtype=object)).all():
            raise AssertionError("End(U) of rank one is not the ring")
        radical = np.zeros((0, 1), dtype=object)
    else:
        radical = _residue_algebra(A, E).radical()
    qdim = e - radical.shape[0]
    return ResidueEndoAnalysis(
        hom=E,
        dimension=e,
        radical_basis=radical,
        split_local=(qdim == 1),
        quotient_dim=qdim,
    )


def _traces(E: HomLattice, W, w: int) -> tuple:
    """(t, den): the values vec(W) . vec(M) / w = tr(W^T M) / w of the
    functional given by the integer matrix W over w on the basis M =
    N_k / d of End(U), as integers t_k over den = w d; one contraction."""
    N, d = E.integer_basis
    r = E.source.rank
    return N.reshape(E.rank, r * r).dot(W.reshape(r * r)), w * d


@dataclass(frozen=True, eq=False)
class TraceCriterionVerdict:
    """Outcome of a trace-valuation criterion on End(U).

    The criterion asks that a reference trace functional attain its
    minimal valuation exactly on the automorphisms.  It is discharged on
    finitely many elements: the basis of End(U) (linearity makes the
    minimum a basis minimum), the split-local decomposition, and lifts
    of a radical basis.
    """

    verdict: bool
    reference_valuation: object  # int or +infinity
    basis_valuations: tuple
    split_local: bool
    radical_valuations: tuple
    failure: str | None

    def __bool__(self) -> bool:
        return self.verdict


def _trace_criterion(A, analysis, W, w: int) -> TraceCriterionVerdict:
    """The criterion for the functional M -> tr(W^T M) / w, whose reference
    value is that of the identity, tr(W) / w.  A radical lift is the
    combination of the basis by a radical row, so its value is that
    combination of the basis values."""
    p = A.prime
    ref = val_over(sum(W.diagonal()), w, p)
    traces, den = _traces(analysis.hom, W, w)
    basis_vals = tuple(val_over(t, den, p) for t in traces)
    if ref == INFINITY or any(v < ref for v in basis_vals):
        return TraceCriterionVerdict(
            False, ref, basis_vals, analysis.split_local, (), "trace valuation below reference"
        )
    if not analysis.split_local:
        return TraceCriterionVerdict(
            False, ref, basis_vals, False, (), "endomorphism residue algebra not split local"
        )
    rad_traces = analysis.radical_basis.astype(object).dot(traces)
    rad_vals = tuple(val_over(t, den, p) for t in rad_traces)
    if any(v <= ref for v in rad_vals):
        return TraceCriterionVerdict(
            False, ref, basis_vals, True, rad_vals,
            "radical lift achieves the reference valuation",
        )
    return TraceCriterionVerdict(True, ref, basis_vals, True, rad_vals, None)


def knorr_check(A: Order, U: Lattice) -> TraceCriterionVerdict:
    """Knorr trace condition: tr(End(U)) lands in the rank ideal, with
    equality of valuations exactly at automorphisms.

    Discharged as: (a) every basis intertwiner has trace valuation at
    least that of the rank; (b) the residue endomorphism algebra is
    split local (forced by the condition, and making every unit
    lambda id + nilpotent); (c) radical lifts have strictly larger trace
    valuation.
    """
    analysis = residue_endo_analysis(A, U)
    return _trace_criterion(A, analysis, np.identity(U.rank, dtype=object), 1)


def stable_exponent_check(A: Order, s: LinearForm, U: Lattice) -> TraceCriterionVerdict:
    """Twisted-trace criterion: z^{-1}-twisted traces attain their minimal
    valuation exactly at automorphisms.

    This is equivalent to U being absolutely indecomposable with the
    stable exponent property (the socle of the stable endomorphism ring
    equals p^{a-1} times it); every call cross-checks that against
    :func:`stable_socle_property`, which reads the same certified radical
    of End(U) mod p.  Undefined for projective lattices.
    """
    S = stable_hom(A, s, U, U)
    if S.exponent == 0:
        raise ValueError("U projective - property undefined")
    Z, z = _twisted_action(A, s, U)
    analysis = residue_endo_analysis(A, U)
    verdict = _trace_criterion(A, analysis, Z.T, z)
    socle = stable_socle_property(A, s, U)
    if bool(verdict) != (analysis.split_local and socle):
        raise AssertionError(
            "twisted-trace criterion disagrees with the socle computation"
        )
    return verdict


def _layer_coords(S: StableHomPresentation, M, m: int) -> list:
    """Coordinates over the residue field of the p-torsion stable classes
    of the intertwiners M[i] / m, for an integer array M, in the layer
    basis p^(d_l-1) g_l."""
    steps = [S.order.prime ** (d - 1) for d in S.exponents]
    out = []
    for cls in S._classes(M.reshape(M.shape[0], M.shape[1] * M.shape[2]).T, m):
        if any(c % q for c, q in zip(cls, steps)):
            raise AssertionError("product left the p-torsion layer")
        out.append([c // q for c, q in zip(cls, steps)])
    return out


def stable_socle_property(A: Order, s: LinearForm, U: Lattice) -> bool:
    """Decide soc(S) = p^{a-1} S, on both sides, for S the stable End(U).

    Linear algebra over the residue field on the p-torsion layer S[p],
    spanned by t_i = p^(d_i-1) g_i.  As p lies in J(S), both socles lie
    in S[p], and J(S) is generated modulo pS by the classes of the lifts
    of a radical basis of End(U) mod p (:func:`residue_endo_analysis`,
    whose radical maps onto that of its quotient S/pS).  So the left
    socle is the kernel on S[p] of x -> (r x)_r over the lifts r, the
    right socle that of x -> (x r)_r, and p^{a-1} S is spanned by the t_i
    with d_i = a.  They agree exactly when those t_i map to zero and the
    t_i with d_i < a have linearly independent images.  The products
    r t_i (or t_i r) are integer matrices over one denominator, and their
    classes come from one elimination per side.  With no lifts (End(U)
    mod p semisimple, as for End(U) of rank one) J(S) = pS, both socles
    are S[p], and the property holds exactly when no d_i is below a.
    """
    S = stable_hom(A, s, U, U)
    a = S.exponent
    if a == 0:
        raise ValueError("U projective - property undefined")
    analysis = residue_endo_analysis(A, U)
    low = [i for i, e in enumerate(S.exponents) if e < a]
    if not len(analysis.radical_basis):
        return not low
    p = A.prime
    G, g = S.integer_generators
    N, d = analysis.hom.integer_basis
    layer = [p ** (e - 1) * t for e, t in zip(S.exponents, G)]
    lifts = list(_combine(analysis.radical_basis.astype(object), N))
    top = [i for i, e in enumerate(S.exponents) if e == a]

    def socle_is_top(side) -> bool:
        # row i: the layer coordinates of side(r, t_i) for every lift r, over d g
        products = np.empty((len(layer) * len(lifts), U.rank, U.rank), dtype=object)
        for k, (t, r) in enumerate((t, r) for t in layer for r in lifts):
            products[k] = side(r, t)
        images = np.array(_layer_coords(S, products, d * g), dtype=object)
        images = images.reshape(len(layer), -1)
        return not images[top].any() and len(rref(images[low], p)[1]) == len(low)

    return socle_is_top(lambda r, t: r.dot(t)) and socle_is_top(lambda r, t: t.dot(r))


def constant_value_check(A: Order, s: LinearForm, U: Lattice) -> bool:
    """Minimal twisted-trace valuation over End(U) equals minus the exponent."""
    S = stable_hom(A, s, U, U)
    Z, z = _twisted_action(A, s, U)
    traces, den = _traces(S.hom, Z.T, z)
    return min(val_over(t, den, A.prime) for t in traces) == -S.exponent


def knorr_projective_check(A: Order, U: Lattice) -> bool:
    """Whether U/pU is simple, for U projective with End(U) mod p split local.

    Projectivity gives End(U/pU) = End(U)/p, which is split local.  By
    Schur's lemma a simple U/pU has a division ring as endomorphism
    ring, and a split local one is the prime field itself, so U/pU is
    simple exactly when it is absolutely simple.  By Burnside's theorem
    that holds exactly when the action matrices mod p span all rank x
    rank matrices: one rank computation mod p.  Raises ``ValueError``
    when End(U) mod p is not split local; projectivity is the caller's.
    """
    if not residue_endo_analysis(A, U).split_local:
        raise ValueError("endomorphism residue algebra not split local")
    N, q = U.integer_action
    actions = [residues_over(m, q, A.prime) for m in N.reshape(A.dim, U.rank**2).tolist()]
    return len(rref(actions, A.prime)[1]) == U.rank**2


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    knorr: bool
    stable_exponent: bool
    stable_exponent_witness_form: bool | None
    socle_oracle: bool
    split_local: bool
    consistent: bool


def knorr_exponent_equivalence(
    A: Order,
    s: LinearForm,
    U: Lattice,
    psp_certificate=None,
) -> EquivalenceReport:
    """Consistency report for the two characterisations on one lattice.

    :func:`stable_exponent_check` asserts the biconditional between the
    twisted-trace criterion and (absolute indecomposability and the socle
    property); when a scalar-Casimir certificate is supplied, this asserts
    that the untwisted Knorr condition matches the twisted criterion,
    both for the supplied form and for the certificate's witness form.
    """
    knorr = bool(knorr_check(A, U))
    stable = bool(stable_exponent_check(A, s, U))
    analysis = residue_endo_analysis(A, U)
    socle = stable_socle_property(A, s, U)
    consistent = True  # stable_exponent_check raised otherwise
    stable_witness = None
    if psp_certificate is not None:
        stable_witness = bool(
            stable_exponent_check(A, psp_certificate.witness_form, U)
        )
        consistent = (knorr == stable) and (knorr == stable_witness)
    return EquivalenceReport(
        knorr=knorr,
        stable_exponent=stable,
        stable_exponent_witness_form=stable_witness,
        socle_oracle=socle,
        split_local=analysis.split_local,
        consistent=consistent,
    )
