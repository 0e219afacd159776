"""Unimodular change of basis on bundle documents.

A bundle document is the JSON form written by ``symorders.save_bundle``:
scalars are strings "a/b".  ``rebase_doc`` maps the order, its forms,
lattices and characters through a change of basis P whose columns are
the new basis vectors in old coordinates.  P is an integer matrix of
determinant +-1, so it is invertible over the p-local integers and every
basis-independent verdict survives the move.

With c the structure constants, s a form, rho a lattice action and chi
a character (all on the old basis):

    c'[i, j, l] = sum_{a,b,k} P[a, i] P[b, j] c[a, b, k] Pinv[l, k]
    one'        = Pinv one
    s'          = P^T s,   chi' = P^T chi
    rho'(b'_i)  = sum_k P[k, i] rho(b_k)

Decomposition matrices, extra degree tables and expectations do not
depend on the basis and are copied unchanged.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import numpy as np

from symorders import linalg
from symorders.padic import scalar_to_str


def _frac_array(nested) -> np.ndarray:
    return np.vectorize(Fraction, otypes=[object])(np.array(nested, dtype=object))


def _str_array(a: np.ndarray):
    return np.vectorize(scalar_to_str, otypes=[object])(a).tolist()


def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def permutation_matrix(perm) -> list:
    """Matrix whose column i is the old basis vector perm[i]."""
    n = len(perm)
    return [[int(perm[i] == k) for i in range(n)] for k in range(n)]


def random_permutation(n: int, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_dense(n: int, rng: random.Random) -> list:
    """A permutation times a unit upper-triangular matrix with entries in
    {-1, 0, 1}: an integer matrix of determinant +-1."""
    perm = random_permutation(n, rng)
    upper = [
        [1 if i == j else (rng.choice((-1, 0, 1)) if j > i else 0) for j in range(n)]
        for i in range(n)
    ]
    pm = permutation_matrix(perm)
    return [
        [sum(pm[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def unimodular_inverse(P) -> np.ndarray:
    """Exact inverse of an integer matrix; raises unless det is +-1."""
    d = linalg.det(P)
    if abs(d) != 1:
        raise ValueError(f"change of basis has determinant {d}, not +-1")
    return linalg.inverse(P)


def rebase_doc(doc: dict, P) -> dict:
    """Return a copy of the bundle document on the basis given by P."""
    out = copy.deepcopy(doc)
    order = out["order"]
    n = order["dim"]
    Pm = linalg.as_matrix(P)
    if Pm.shape != (n, n):
        raise ValueError("change of basis has the wrong size")
    Pinv = unimodular_inverse(P)

    c = _frac_array(order["structure"])
    t = np.tensordot(Pm, c, axes=([0], [0]))  # [i, b, k]
    t = np.tensordot(t, Pm, axes=([1], [0]))  # [i, k, j]
    t = np.tensordot(t, Pinv, axes=([1], [1]))  # [i, j, l]
    order["structure"] = _str_array(t)
    order["one"] = _str_array(Pinv @ _frac_array(order["one"]))

    perm = _permutation_of(Pm)
    labels = order.pop("basis_labels", None)
    if labels is not None and perm is not None:
        order["basis_labels"] = [labels[k] for k in perm]

    out["forms"] = {
        name: _str_array(Pm.T @ _frac_array(values))
        for name, values in out.get("forms", {}).items()
    }
    out["lattices"] = {
        name: _str_array(np.tensordot(Pm, _frac_array(actions), axes=([0], [0])))
        for name, actions in out.get("lattices", {}).items()
    }
    if "characters" in out:
        chars = out["characters"]
        chars["values"] = [_str_array(Pm.T @ _frac_array(row)) for row in chars["values"]]
    return out


def _permutation_of(Pm: np.ndarray):
    """perm with column i equal to old basis vector perm[i], or None."""
    perm = []
    for i in range(Pm.shape[1]):
        col = list(Pm[:, i])
        if sorted(col) != [0] * (len(col) - 1) + [1]:
            return None
        perm.append(col.index(1))
    return perm
