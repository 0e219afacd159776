"""Small dense linear algebra and algebra arithmetic over a prime field.

Vectors are int tuples/arrays with entries reduced mod p.  Everything
here is desk-scale and exhaustive by design: radicals are found by
enumerating the elements whose two-sided ideal is nilpotent, and
algebra homomorphisms to the prime field are found by enumerating all
unital functionals and keeping the multiplicative ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


def rref(rows, p: int):
    """Reduced row echelon form mod p; returns (rows, pivot_columns)."""
    dtype = np.int64 if p * p < 2**63 else object  # keeps products exact
    M = np.array([[int(x) % p for x in row] for row in rows], dtype=dtype)
    m, n = M.shape if M.size else (0, 0)
    pivots = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if M[i, c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        M[[r, pivot]] = M[[pivot, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        for i in range(m):
            if i != r and M[i, c] % p:
                M[i] = (M[i] - M[i, c] * M[r]) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return M[:r], pivots


def subspace_basis(vectors, p: int) -> np.ndarray:
    if not len(vectors):
        return np.zeros((0, 0), dtype=np.int64)
    basis, _ = rref(vectors, p)
    return basis


def in_span(v, basis, p: int) -> bool:
    if basis.shape[0] == 0:
        return all(int(x) % p == 0 for x in v)
    stacked = np.vstack([basis, np.array([int(x) % p for x in v])])
    reduced, _ = rref(stacked, p)
    return reduced.shape[0] == basis.shape[0]


@dataclass(frozen=True, eq=False)
class FpAlgebra:
    """Finite-dimensional unital algebra over the field with p elements."""

    p: int
    dim: int
    table: np.ndarray  # (dim, dim, dim) ints mod p
    one: np.ndarray  # (dim,)

    def multiply(self, u, v) -> np.ndarray:
        """Product reduced after each contraction, whose sums reach
        dim * p^2: in int64 while that fits, in Python ints beyond."""
        p, table = self.p, self.table
        if self.dim * p * p < 2**63:
            u = np.asarray(u, dtype=np.int64) % p
            v = np.asarray(v, dtype=np.int64) % p
        else:
            u, v = (np.array([int(x) % p for x in a], dtype=object) for a in (u, v))
            table = table.astype(object)
        inner = np.tensordot(v, table, axes=([0], [1])) % p
        return np.tensordot(u, inner, axes=([0], [0])) % p

    def elements(self):
        for coeffs in product(range(self.p), repeat=self.dim):
            yield np.array(coeffs, dtype=np.int64)

    def ideal_closure(self, x) -> np.ndarray:
        """Basis of the two-sided ideal generated by x."""
        basis = subspace_basis([x], self.p)
        changed = True
        while changed:
            changed = False
            new_rows = list(basis)
            for g in basis:
                for i in range(self.dim):
                    e = np.zeros(self.dim, dtype=np.int64)
                    e[i] = 1
                    for prod_vec in (self.multiply(e, g), self.multiply(g, e)):
                        if not in_span(prod_vec, basis, self.p):
                            new_rows.append(prod_vec)
            if len(new_rows) > basis.shape[0]:
                new_basis = subspace_basis(new_rows, self.p)
                if new_basis.shape[0] > basis.shape[0]:
                    basis = new_basis
                    changed = True
        return basis

    def subspace_product(self, basis_a, basis_b) -> np.ndarray:
        prods = [
            self.multiply(a, b)
            for a in basis_a
            for b in basis_b
        ]
        prods = [v for v in prods if any(v % self.p)]
        if not prods:
            return np.zeros((0, self.dim), dtype=np.int64)
        return subspace_basis(prods, self.p)

    def is_nilpotent_subspace(self, basis) -> bool:
        current = basis
        for _ in range(self.dim + 1):
            if current.shape[0] == 0:
                return True
            current = self.subspace_product(current, basis)
        return False

    def is_nilpotent_element(self, x) -> bool:
        power = np.array(x, dtype=np.int64) % self.p
        for _ in range(self.dim):
            if not any(power):
                return True
            power = self.multiply(power, x)
        return not any(power)

    def radical(self) -> np.ndarray:
        """Basis of the largest nilpotent two-sided ideal.

        An element lies in the radical exactly when the two-sided ideal
        it generates is nilpotent; all p^dim elements are enumerated
        (with a cheap element-nilpotency pre-filter, since a generator of
        a nilpotent ideal is itself nilpotent, and a span-membership skip,
        since sums of such generators again generate nilpotent ideals).
        The result is certified to be a nilpotent ideal whose quotient
        contains no nonzero nilpotent-ideal generator.
        """
        basis = np.zeros((0, self.dim), dtype=np.int64)
        for x in self.elements():
            if not any(x):
                continue
            if in_span(x, basis, self.p):
                continue
            if not self.is_nilpotent_element(x):
                continue
            ideal = self.ideal_closure(x)
            if self.is_nilpotent_subspace(ideal):
                basis = subspace_basis(np.vstack([basis, ideal]) if basis.size else ideal, self.p)
        # certification: an ideal, nilpotent, with semisimple quotient
        for row in basis:
            for i in range(self.dim):
                e = np.zeros(self.dim, dtype=np.int64)
                e[i] = 1
                if not (in_span(self.multiply(e, row), basis, self.p)
                        and in_span(self.multiply(row, e), basis, self.p)):
                    raise AssertionError("radical not a two-sided ideal")
        if not self.is_nilpotent_subspace(basis):
            raise AssertionError("radical not nilpotent")
        quotient = self.quotient(basis)
        for x in quotient.elements():
            if any(x) and quotient.is_nilpotent_element(x):
                if quotient.is_nilpotent_subspace(quotient.ideal_closure(x)):
                    raise AssertionError("quotient by the radical is not semisimple")
        return basis

    def quotient(self, ideal_basis) -> "FpAlgebra":
        """Quotient algebra by a two-sided ideal, on a complement basis."""
        if ideal_basis.shape[0] == 0:
            return self
        reduced, pivots = rref(ideal_basis, self.p)
        free = [c for c in range(self.dim) if c not in pivots]
        q = len(free)

        def project(v):
            v = np.array(v, dtype=np.int64) % self.p
            for row, c in zip(reduced, pivots):
                if v[c] % self.p:
                    v = (v - v[c] * row) % self.p
            return v[free]

        table = np.zeros((q, q, q), dtype=np.int64)
        for a in range(q):
            for b in range(q):
                ea = np.zeros(self.dim, dtype=np.int64)
                ea[free[a]] = 1
                eb = np.zeros(self.dim, dtype=np.int64)
                eb[free[b]] = 1
                table[a, b] = project(self.multiply(ea, eb))
        return FpAlgebra(self.p, q, table, project(self.one))

    def homs_to_prime_field(self) -> list:
        """All unital algebra homomorphisms to the prime field.

        Enumerates every linear functional phi with phi(1) = 1 and keeps
        the multiplicative ones.  Commutative use only; the caller
        certifies completeness by checking that the intersection of the
        kernels is nilpotent.
        """
        homs = []
        basis_products = self.table
        for phi in product(range(self.p), repeat=self.dim):
            phi = np.array(phi, dtype=np.int64)
            if int(np.dot(phi, self.one)) % self.p != 1:
                continue
            ok = True
            for i in range(self.dim):
                for j in range(self.dim):
                    lhs = (phi[i] * phi[j]) % self.p
                    rhs = int(np.dot(basis_products[i, j], phi)) % self.p
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                homs.append(phi)
        return homs
