"""Small dense linear algebra and algebra arithmetic over a prime field.

Vectors are int tuples/arrays with entries reduced mod p.  Kernels,
ranks and radicals come from elimination mod p, exact at every prime:
in int64 while the products involved fit and in Python ints beyond.
Residues reach this module as Python ints (``padic.residues_over``), and
:func:`residue_dtype` alone picks how the package stores them.  Nothing
is enumerated, so nothing here bounds p or the dimension.

Every step works on whole arrays.  Elimination clears a pivot's column
with one rank-one update.  The products of a subspace with the basis
come from one contraction with the structure constants, and the radical's
trace chain raises, for each row of the current ideal, the dim matrices
of left multiplication by its products with the basis as one stack of
dim^3 entries: that stack is the chain's largest array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def residue_dtype(m: int, terms: int = 1):
    """The dtype of residues mod m: int64 while a sum of ``terms`` products
    of residues fits in it, and Python ints (object) beyond, so that
    contractions stay exact.  The package stores residues in no other."""
    return np.int64 if terms * m * m < 2**63 else object


def rref(rows, p: int):
    """Reduced row echelon form mod p; returns (rows, pivot_columns).

    An int64 array is reduced as it is; other rows entry by entry."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
        M = rows.astype(residue_dtype(p), copy=False) % p
    else:
        M = np.array([[int(x) % p for x in row] for row in rows], dtype=residue_dtype(p))
    m, n = M.shape if M.size else (0, 0)
    pivots = []
    r = 0
    for c in range(n):
        below = M[r:, c].nonzero()[0]
        if not len(below):
            continue
        i = r + below[0]
        row = M[i] * pow(int(M[i, c]), -1, p) % p
        M[i] = M[r]
        factors = M[:, c].copy()
        factors[r] = 0
        if factors.any():
            M = (M - factors[:, None] * row) % p
        M[r] = row
        pivots.append(c)
        r += 1
        if r == m:
            break
    return M[:r], pivots


def nullspace(M, p: int) -> np.ndarray:
    """Rows spanning {v : M v = 0} mod p: one per free column of M, in
    column order, equal to 1 there and 0 at the other free columns."""
    n = np.shape(M)[1]
    reduced, pivots = rref(M, p)
    free = [c for c in range(n) if c not in pivots]
    out = np.zeros((len(free), n), dtype=reduced.dtype)
    if free:
        out[np.arange(len(free)), free] = 1
        if pivots:
            out[:, pivots] = (-reduced.take(free, axis=1) % p).T
    return out


def _reduced(a, m: int, terms: int) -> np.ndarray:
    """The residues a mod m in :func:`residue_dtype`."""
    return np.asarray(a).astype(residue_dtype(m, terms), copy=False) % m


def subspace_basis(vectors, p: int) -> np.ndarray:
    if not len(vectors):
        return np.zeros((0, 0), dtype=np.int64)
    basis, _ = rref(vectors, p)
    return basis


def _trace_gram(table, p: int) -> np.ndarray:
    """Gram matrix of the trace form of the left regular representation:
    entry (a, b) is the trace of left multiplication by b_a b_b, that is
    tau . (b_a b_b) for tau_k = sum_j table[k, j, j]."""
    tau = np.trace(table, axis1=1, axis2=2) % p
    return table @ tau % p


def _quotient_table(table, ideal, pivots, p: int) -> np.ndarray:
    """Structure constants of A / I on the images of the non-pivot basis
    elements, for I in reduced row echelon form with these pivots."""
    free = [c for c in range(table.shape[0]) if c not in pivots]
    products = table[np.ix_(free, free)]
    return (products[..., free] - products[..., pivots] @ ideal[:, free]) % p


@dataclass(frozen=True, eq=False)
class FpAlgebra:
    """Finite-dimensional unital algebra over the field with p elements."""

    p: int
    dim: int
    table: np.ndarray  # (dim, dim, dim) ints, reduced mod p when the algebra is built
    one: np.ndarray  # (dim,)

    def __post_init__(self):
        object.__setattr__(self, "table", _reduced(self.table, self.p, self.dim))

    def left_rows(self, u) -> np.ndarray:
        """Rows u b_0, ..., u b_{dim-1}: the transposed matrix of left
        multiplication by u, with entries in [0, p)."""
        return np.tensordot(_reduced(u, self.p, self.dim), self.table, axes=([0], [0])) % self.p

    def multiply(self, u, v) -> np.ndarray:
        return np.tensordot(_reduced(v, self.p, self.dim), self.left_rows(u),
                            axes=([0], [0])) % self.p

    def _times(self, basis) -> np.ndarray:
        """(dim, m dim) matrix whose row x holds b_x w for the m rows w of
        basis, one block of dim columns each: a row vector u times it gives
        the products u w."""
        n = self.dim
        right = np.tensordot(self.table, _reduced(basis, self.p, n), axes=([1], [1])) % self.p
        return right.transpose(0, 2, 1).reshape(n, -1)

    def _span(self, vectors, times) -> np.ndarray:
        """Reduced basis of the products u w, u a row of vectors and w
        a row of the basis that ``times`` was built from."""
        products = _reduced(vectors, self.p, self.dim) @ times % self.p
        return rref(products.reshape(-1, self.dim), self.p)[0].reshape(-1, self.dim)

    def is_nilpotent_subspace(self, basis) -> bool:
        if not len(basis):
            return True
        times = self._times(basis)
        current = basis
        for _ in range(self.dim + 1):
            if current.shape[0] == 0:
                return True
            current = self._span(current, times)
        return False

    def _chain_values(self, rows, i: int) -> np.ndarray:
        """g_i(y) for each row y of rows, i >= 1 (see radical)."""
        p, n, q = self.p, self.dim, self.p ** (i + 1)
        stack = _reduced(np.tensordot(rows, self.table, axes=([1], [0])) % p, q, n)
        power = stack
        for bit in bin(p**i)[3:]:
            power = np.matmul(power, power) % q
            if bit == "1":
                power = np.matmul(power, stack) % q
        traces = np.trace(power, axis1=1, axis2=2) % q
        if (traces % p**i).any():
            raise AssertionError("trace of a p^i-th power not divisible by p^i")
        return traces // p**i

    def radical(self) -> np.ndarray:
        """Basis of the Jacobson radical, in reduced row echelon form.

        The trace chain of Cohen, Ivanyos and Wales (Finding the radical
        of an algebra of linear transformations, JPAA 117/118, 1997) on
        the left regular representation.  Let g_i(y) be the trace of the
        p^i-th power of the matrix of left multiplication by y, lifted
        entrywise to [0, p), divided by p^i, mod p.  Starting from the
        whole algebra, the ideals
        I_i = {x in I_{i-1} : g_i(x b_j) = 0 for every basis element b_j},
        for the i with p^i <= dim, end at the radical.  g_i is linear on
        I_{i-1}, so each step is one kernel mod p.  g_0 is the trace form,
        a product with the vector tau of :func:`_trace_gram`; for p > dim
        the chain is that single step, Dickson's criterion.  Each later
        step raises one stack of dim matrices per row of I_{i-1}.

        The result is certified to be a two-sided ideal and nilpotent, and
        for p > dim the quotient by it to be semisimple: its own trace
        form is nondegenerate.
        """
        p, n = self.p, self.dim
        gram = _trace_gram(self.table, p)
        ideal = rref(nullspace(gram.T, p), p)[0].reshape(-1, n)
        i = 1
        while p**i <= n and len(ideal):
            # products[a, j] = x_a b_j for the rows x_a of I_{i-1}
            products = np.tensordot(_reduced(ideal, p, n), self.table, axes=([1], [0])) % p
            values = np.array([self._chain_values(rows, i) for rows in products])
            kernel = nullspace(values.T, p)
            m = len(ideal)
            ideal = rref(_reduced(kernel, p, m) @ _reduced(ideal, p, m) % p, p)[0].reshape(-1, n)
            i += 1
        self._certify(ideal)
        return ideal

    def _certify(self, ideal) -> None:
        """Raise unless the ideal is two-sided and nilpotent, and for
        p > dim the trace form of the quotient by it nondegenerate.  A zero
        ideal is then the kernel of the algebra's own trace form, which is
        so already nondegenerate."""
        p, n = self.p, self.dim
        if len(ideal):
            R = _reduced(ideal, p, n)
            left = np.tensordot(R, self.table, axes=([1], [0]))  # r b_j
            right = np.tensordot(R, self.table, axes=([1], [1]))  # b_j r
            spanned = np.concatenate([R, left.reshape(-1, n) % p, right.reshape(-1, n) % p])
            if len(rref(spanned, p)[1]) != len(ideal):
                raise AssertionError("radical not a two-sided ideal")
            if p > n:
                pivots = list((R != 0).argmax(axis=1))
                quotient = _quotient_table(self.table, R, pivots, p)
                if len(rref(_trace_gram(quotient, p), p)[1]) != n - len(ideal):
                    raise AssertionError("quotient by the radical not semisimple")
        if not self.is_nilpotent_subspace(ideal):
            raise AssertionError("radical not nilpotent")
