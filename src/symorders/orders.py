"""Finite-rank associative algebras over the p-local integers.

An :class:`Order` is given by integral structure constants on a fixed
basis, ``b_i b_j = sum_k c_ijk b_k``, together with the coordinate
vector of its unit.  Its one representation of them is an integer table
(:attr:`Order.products`): the nonzero structure constants as numerators
over one denominator (:attr:`Order.denominator`, a unit at p, and 1 for
integer constants).  :func:`make_order` builds it from the nonzero
constants as entries (i, j, k, c) and validates the order on it.
Products, action matrices and the regular character here, and Gram
matrices, dual bases and Casimir elements in ``forms``, are contracted
over that table only, so a group algebra, with one nonzero constant per
pair of basis elements, multiplies in time proportional to the nonzero
coordinates of the factors.  Left multiplication is one set of integer
rows (``Order._left_rows``), solved for the inverse
(``linalg.solve_of_rows``), which one contraction with the table
certifies.  Fractions are built for the results:
elements of the order and of its rational span are plain coordinate
vectors (object arrays of Fractions), and elements with non-ring
coordinates are allowed wherever an operation makes sense rationally
(inverses, idempotents of the rational algebra, and so on).
The centre is derived once, as a ring on its own basis
(:attr:`Order.integer_centre`) whose homomorphisms to K are the central
characters (``forms``).  The regular character as a linear form is
kept on the order (``Order._kept``), and with it what ``forms`` derives
from it: its Gram numerators and its scaled psp witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import linalg
from .padic import Prime


class InvalidOrderError(ValueError):
    pass


class NotInvertibleError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Order:
    """Unital associative algebra, free of finite rank over the ring."""

    prime: Prime
    dim: int
    # products[i][j] lists the pairs (k, d c_ijk) with c_ijk != 0, in
    # increasing k, for d the denominator: d b_i b_j is the sum of c b_k
    products: tuple = field(repr=False)
    denominator: int
    one: np.ndarray  # (dim,)
    basis_labels: tuple = field(default=None)
    _kept: dict = field(default_factory=dict, init=False, repr=False)  # see forms.kept

    # -- elements ----------------------------------------------------

    def element(self, coords) -> np.ndarray:
        v = linalg.as_vector(coords)
        if v.shape != (self.dim,):
            raise ValueError("coordinate vector of wrong length")
        return v

    def zero(self) -> np.ndarray:
        return linalg.zero_vector(self.dim)

    def basis_element(self, i: int) -> np.ndarray:
        v = self.zero()
        v[i] = Fraction(1)
        return v

    def scalar(self, c) -> np.ndarray:
        return self.one * Fraction(c)

    def has_ring_coords(self, a) -> bool:
        return linalg.is_integral(a, self.prime)

    # -- multiplication ----------------------------------------------

    def constants(self) -> list:
        """The nonzero structure constants as entries (i, j, k, c_ijk)."""
        d = self.denominator
        return [(i, j, k, Fraction(c, d)) for i, row in enumerate(self.products)
                for j, prods in enumerate(row) for k, c in prods]

    def _terms(self, a) -> list:
        """Nonzero coordinates of an element as (index, value) pairs."""
        return [(i, x) for i, x in enumerate(self.element(a)) if x != 0]

    def _exact_terms(self, a) -> list:
        """Nonzero coordinates of a / denominator, whose contractions with
        the table are those of a with the structure constants."""
        d = self.denominator
        return [(i, x if d == 1 else x / d) for i, x in self._terms(a)]

    def _product(self, a_terms, b_terms) -> dict:
        """Coordinates {k: value} of d a b, for d the denominator, from the
        nonzero terms of a and b."""
        out = {}
        for i, x in a_terms:
            row = self.products[i]
            for j, y in b_terms:
                xy = x * y
                for k, c in row[j]:
                    out[k] = out[k] + xy * c if k in out else xy * c
        return out

    def multiply(self, a, b) -> np.ndarray:
        out = self.zero()
        for k, c in self._product(self._exact_terms(a), self._terms(b)).items():
            out[k] = c
        return out

    def _left_rows(self, w) -> list:
        """The integer rows L[k][j] = sum_i w_i (d c_ijk) of left
        multiplication by the element w / d, for d the denominator."""
        L = [[0] * self.dim for _ in range(self.dim)]
        for i, x in enumerate(w):
            if x:
                for j, prods in enumerate(self.products[i]):
                    for k, c in prods:
                        L[k][j] += x * c
        return L

    @cached_property
    def generators(self) -> tuple:
        """Basis indices g such that 1 and its images under repeated left
        multiplication by the b_g span K⊗A, picked greedily in index
        order; the span, kept in echelon form on integer rows, is the
        certificate.  An order of dimension 1 has none."""
        echelon, gens = {}, []  # pivot -> {index: value}, zero at earlier pivots

        def reduce(v: dict) -> dict:
            for c, row in echelon.items():
                f = v.get(c)
                if f:  # v <- row[c] v - f row, which is zero at c
                    r = row[c]
                    v = {k: x for k in v.keys() | row.keys()
                         if (x := r * v.get(k, 0) - f * row.get(k, 0))}
            return v

        def close(work) -> None:
            while work:
                v = reduce({k: x for k, x in work.pop().items() if x})
                if v:
                    g = math.gcd(*v.values())
                    echelon[min(v)] = v = {k: x // g for k, x in v.items()}
                    work.extend(self._product([(h, 1)], v.items()) for h in gens)

        close([dict(enumerate(linalg.numerators(self.one)[0].tolist()))])
        for i in range(self.dim):
            if len(echelon) < self.dim and reduce({i: 1}):
                gens.append(i)
                close([self._product([(i, 1)], v.items()) for v in echelon.values()])
        return tuple(gens)

    @cached_property
    def regular_traces(self) -> np.ndarray:
        """The values rho(b_i) = sum_j c_ijj of the trace rho of left
        multiplication, read off the table.  Read-only."""
        traces = linalg.from_numerators(
            [sum(c for j, prods in enumerate(row) for k, c in prods if k == j)
             for row in self.products],
            self.denominator,
        )
        traces.flags.writeable = False
        return traces

    # -- predicates ---------------------------------------------------

    def is_central(self, a) -> bool:
        """a commutes with every generator, hence with all of K⊗A."""
        return self._central(self._terms(a))

    def _central(self, terms) -> bool:
        """:meth:`is_central` for the nonzero terms (index, value) of an
        element, or of any multiple of it, such as its integer numerators."""
        return all(
            _nonzero(self._product(terms, [(g, 1)])) == _nonzero(self._product([(g, 1)], terms))
            for g in self.generators
        )

    def is_idempotent(self, a) -> bool:
        a = linalg.as_vector(a)
        return linalg.vectors_equal(self.multiply(a, a), a)

    # -- rational-algebra operations ----------------------------------

    def invert(self, a) -> np.ndarray:
        """Inverse in the rational algebra; raises NotInvertibleError.

        For a = w / e and 1 = o / f, the rows L of a (:meth:`_left_rows`)
        are over e d for d the denominator, and b' = f b solves
        L b' = e d o (:func:`linalg.solve_of_rows`); b a = 1 is certified
        as one contraction of the numerators of b and a with the table.
        """
        w, e = linalg.numerators(self.element(a))
        o, f = linalg.numerators(self.one)
        w, o, d = w.tolist(), o.tolist(), self.denominator
        rows = [[*row, e * d * x] for row, x in zip(self._left_rows(w), o)]
        try:
            B, h = linalg.solve_of_rows(rows, self.dim)
        except ValueError:  # left multiplication is singular
            raise NotInvertibleError("not invertible in K⊗A") from None
        B = [x for (x,) in B]  # b = B / (h f)
        ba = self._product([(i, x) for i, x in enumerate(B) if x],
                           [(i, x) for i, x in enumerate(w) if x])
        if _nonzero({k: f * x for k, x in ba.items()}) != {
                k: h * f * e * d * x for k, x in enumerate(o) if x}:
            raise AssertionError("inverse fails b a = 1")
        return linalg.from_numerators(B, h * f)

    @cached_property
    def integer_centre(self) -> tuple:
        """The centre as a ring on its own basis, on integers: ((N, 1), (C,
        c), (u, e)), read-only.  N (columns) is the saturated kernel of the
        integer commutator rows d (L(b_g) - R(b_g)) of the generators g,
        C / c its table and u / e the coordinates of 1, certified ring by
        :func:`lattice_ring`."""
        rows = []
        for g in self.generators:
            block = [[0] * self.dim for _ in range(self.dim)]
            for j in range(self.dim):
                for k, c in self.products[g][j]:
                    block[k][j] += c
                for k, c in self.products[j][g]:
                    block[k][j] -= c
            rows.extend(block)
        N = linalg.integral_kernel_of_rows(rows, self.dim, self.prime)
        C, u = lattice_ring(self, N, self.one)
        if C is None or u is None:
            raise AssertionError("centre lattice not a ring with 1")
        for a in (N, C[0], u[0]):
            a.flags.writeable = False
        return (N, 1), C, u


def make_order(constants, one, p, basis_labels=None) -> Order:
    """Validate structure constants and build an Order.

    ``constants`` are entries (i, j, k, c_ijk); the dimension is the
    length of ``one``, a triple left out is a zero constant and zero
    constants are dropped.  Checks run at construction on the integer
    table: every index lies in range and no triple repeats, every
    structure constant lies in the ring, the designated vector lies in the
    ring and is a two-sided unit (1 b_j = b_j 1 = b_j for every j), and
    associativity (b_i b_j) b_k = b_i (b_j b_k) holds, checked with the
    sparse product for generator rows i by :func:`first_failure`; an error
    names the first failing basis triple in lexicographic order.  The
    dimension must be positive, and ``basis_labels`` are none or one per
    basis element.
    """
    p = Prime(p)
    one = linalg.as_vector(one)
    dim = len(one)
    if dim == 0:
        raise InvalidOrderError("order must have positive dimension")
    if basis_labels and len(basis_labels) != dim:
        raise InvalidOrderError(f"{len(basis_labels)} basis labels for dimension {dim}")
    cells = [[{} for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in constants:
        if not all(0 <= x < dim for x in (i, j, k)):
            raise InvalidOrderError(f"structure constant index out of range: ({i}, {j}, {k})")
        if k in cells[i][j]:
            raise InvalidOrderError(f"repeated structure constant: ({i}, {j}, {k})")
        cells[i][j][k] = c if type(c) is Fraction else Fraction(c)
    nonzero = [c for row in cells for cell in row for c in cell.values() if c]
    if any(c.denominator % p == 0 for c in nonzero):
        raise InvalidOrderError("non-integral structure constant")
    d = math.lcm(*[c.denominator for c in nonzero])
    products = tuple(
        tuple(tuple((k, c.numerator * (d // c.denominator)) for k, c in sorted(cell.items()) if c)
              for cell in row)
        for row in cells
    )
    A = Order(prime=p, dim=dim, products=products, denominator=d, one=one,
              basis_labels=tuple(basis_labels) if basis_labels else None)

    w, e = linalg.numerators(one)
    if e % p == 0:
        raise InvalidOrderError("unit has non-ring coordinates")
    unit = [(i, x) for i, x in enumerate(w.tolist()) if x]
    if not all(_nonzero(A._product(unit, [(j, 1)])) == {j: d * e}
               == _nonzero(A._product([(j, 1)], unit)) for j in range(dim)):
        raise InvalidOrderError("unit fails")

    T = A.products

    def associative(i, jk) -> bool:
        j, k = jk
        return _nonzero(A._product(T[i][j], [(k, 1)])) == _nonzero(A._product([(i, 1)], T[j][k]))

    failure = first_failure(A, [(j, k) for j in range(dim) for k in range(dim)], associative)
    if failure is not None:
        i, (j, k) = failure
        raise InvalidOrderError(f"not associative: basis triple ({i}, {j}, {k})")
    return A


def first_failure(A: Order, columns, holds):
    """First (i, c) in lexicographic order, for a basis index i and c in
    ``columns``, with holds(i, c) false; None when there is none.

    holds must be K-linear in b_i, and the x for which it holds with
    every c must form a subalgebra X: for associativity X is the left
    nucleus, for a representation rho the x with rho(x b) = rho(x) rho(b)
    for all b.  Once X holds the generators, it holds 1 and its images
    under repeated left multiplication by them, which span K⊗A; so only
    generator rows are checked.  On a failure every pair is rescanned to
    name the first one.
    """
    if all(holds(g, c) for g in A.generators for c in columns):
        return None
    return next((i, c) for i in range(A.dim) for c in columns if not holds(i, c))


def _nonzero(coords: dict) -> dict:
    return {k: c for k, c in coords.items() if c != 0}


def lattice_ring(A: Order, N, unit) -> tuple:
    """(C, u) for the lattice with the integer basis columns z_i of N: the
    coordinates of z_i z_j = sum_k C_ijk z_k and of ``unit`` on the basis,
    each as integers over one denominator, or None when it is not
    ring-valued (the lattice is not closed under products, or ``unit``
    lies outside).  Products come from the table."""
    r = N.shape[1]
    terms = [[(k, x) for k, x in enumerate(col) if x] for col in N.T.tolist()]
    P = np.array([[prod.get(k, 0) for k in range(A.dim)]
                  for prod in (A._product(a, b) for a in terms for b in terms)],
                 dtype=object).reshape(r * r, A.dim).T  # column i r + j: z_i z_j
    w, e = linalg.numerators(unit)
    C, u = (linalg.lattice_membership_of_columns((N, 1), v, A.prime)
            for v in ((P, A.denominator), (w.reshape(-1, 1), e)))
    return (None if C is None else (C[0].T.reshape(r, r, r), C[1]),
            None if u is None else (u[0][:, 0], u[1]))


def condense(A: Order, e) -> tuple:
    """Corner order e A e for an idempotent e, with embedding data.

    Returns (order, embedding) where the columns of ``embedding`` express
    the new basis as elements of A.  The generating set {e b_i e} spans
    e A e as a lattice, and a basis is read off its numerators
    (:func:`linalg.lattice_basis_of_columns`).  The corner is already
    saturated inside A, a full lattice in its rational span: an x of A
    in that span is e x e.
    """
    e = A.element(e)
    if not A.has_ring_coords(e):
        raise InvalidOrderError("idempotent must have ring coordinates")
    if not A.is_idempotent(e):
        raise InvalidOrderError("not idempotent")
    if all(x == 0 for x in e):
        raise InvalidOrderError("not idempotent: condensation by zero")
    G = np.array([A.multiply(A.multiply(e, A.basis_element(i)), e) for i in range(A.dim)]).T
    N = linalg.lattice_basis_of_columns(linalg.numerators(G)[0], A.prime)
    table, unit = lattice_ring(A, N, e)
    if table is None:
        raise AssertionError("corner basis not multiplicatively closed")
    if unit is None:
        raise AssertionError("idempotent not in the corner lattice")
    (C, c), unit = table, linalg.from_numerators(*unit)
    constants = [(i, j, k, Fraction(x, c)) for (i, j, k), x in np.ndenumerate(C) if x]
    return make_order(constants, unit, A.prime), linalg.from_numerators(N, 1)


def direct_product(A: Order, B: Order) -> Order:
    """Block-diagonal product order on the concatenated bases, labelled by
    the factors' labels when both have them."""
    if A.prime != B.prime:
        raise InvalidOrderError("direct product needs a common prime")
    n = A.dim
    constants = A.constants() + [(i + n, j + n, k + n, c) for i, j, k, c in B.constants()]
    labels = A.basis_labels + B.basis_labels if A.basis_labels and B.basis_labels else None
    return make_order(constants, np.concatenate([A.one, B.one]), A.prime, labels)


def tensor_product(A: Order, B: Order) -> Order:
    """Tensor product order on the basis pairs (i, j) -> i * dim(B) + j,
    labelled g.h for labels g of A and h of B when both have them."""
    if A.prime != B.prime:
        raise InvalidOrderError("tensor product needs a common prime")
    n = B.dim
    constants = [(i1 * n + j1, i2 * n + j2, k1 * n + k2, a * b)
                 for i1, i2, k1, a in A.constants() for j1, j2, k2, b in B.constants()]
    labels = ([f"{g}.{h}" for g in A.basis_labels for h in B.basis_labels]
              if A.basis_labels and B.basis_labels else None)
    return make_order(constants, np.outer(A.one, B.one).reshape(-1), A.prime, labels)
