"""The stable socle and Tate perfectness deciders against brute force.

``stable_socle_property`` and ``verify_tate_duality`` decide by linear
algebra on the p-torsion layer of the stable Hom groups.  The oracles
here enumerate every stable class instead, which is exponential in the
number of invariant factors, so they only run on small cases.
"""

import ast
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import symorders as so
from symorders import lattices, linalg, modp
from symorders.builders import (
    cyclic_group_table,
    group_algebra,
    matrix_column_lattice,
    matrix_order,
    rank2_order,
    rank2_projection_lattice,
)
from symorders.lattices import TateDualityError, _trace
from symorders.padic import val


def socle_oracle(A, s, U) -> bool:
    """soc(S) = p^{a-1} S on both sides, for S the stable End(U), found by
    enumerating S: its units, its Jacobson radical {x : 1 - r x is a unit
    for every r}, and the two annihilators of the radical."""
    S = so.stable_hom(A, s, U, U)
    a = S.exponent
    if a == 0:
        raise ValueError("U projective - property undefined")
    p = A.prime
    mods = [p**d for d in S.exponents]
    k = len(mods)
    gen_prod = [
        [S.class_of(S.generators[i] @ S.generators[j]) for j in range(k)]
        for i in range(k)
    ]
    zero = tuple(0 for _ in mods)

    def mul(x, y):
        out = list(zero)
        for i, j in product(range(k), repeat=2):
            if x[i] and y[j]:
                for l, m in enumerate(mods):
                    out[l] = (out[l] + x[i] * y[j] * gen_prod[i][j][l]) % m
        return tuple(out)

    classes = list(product(*[range(m) for m in mods]))
    one = S.class_of(linalg.identity(U.rank))
    units = {x for x in classes
             if any(mul(x, y) == one and mul(y, x) == one for y in classes)}
    radical = [
        x for x in classes
        if all(tuple((u - v) % m for u, v, m in zip(one, mul(r, x), mods)) in units
               for r in classes)
    ]
    soc_left = {x for x in classes if all(mul(j, x) == zero for j in radical)}
    soc_right = {x for x in classes if all(mul(x, j) == zero for j in radical)}
    scaled = {tuple((p ** (a - 1) * u) % m for u, m in zip(x, mods)) for x in classes}
    return soc_left == scaled and soc_right == scaled


def tate_kernel_oracle(A, s, U, V):
    """First nonzero class of Hom(U, V) (lexicographic in the invariant
    factor coordinates) pairing integrally with all of Hom(V, U), or None."""
    S_uv = so.stable_hom(A, s, U, V)
    S_vu = so.stable_hom(A, s, V, U)
    zu = U.act(lattices.casimir_inverse(A, s))
    p = A.prime
    for coeffs in product(*[range(p**d) for d in S_uv.exponents]):
        if any(coeffs):
            x = S_uv.from_class(coeffs)
            if all(val(_trace(zu @ h @ x), p) >= 0 for h in S_vu.generators):
                return coeffs
    return None


def _cyclic(n, p):
    table, labels = cyclic_group_table(n)
    return group_algebra(table, p, labels=labels)


def _coset_lattice(A, n, m):
    """Permutation lattice of the cyclic group of order n on its m cosets
    of the subgroup of index m (m divides n): the generator shifts."""
    shift = linalg.as_matrix([[1 if i == (j + 1) % m else 0 for j in range(m)]
                              for i in range(m)])
    mats, P = [], linalg.identity(m)
    for _ in range(n):
        mats.append(P)
        P = shift @ P
    return so.make_lattice(A, mats)


def _trivial(A):
    return so.make_lattice(A, [[[Fraction(1)]]] * A.dim)


def _cases(s3, s3_lattices):
    """(label, order, form, [lattices]) with at most a few hundred stable
    endomorphism classes per lattice."""
    A, s = s3
    T, S = s3_lattices["trivial"], s3_lattices["sign"]
    out = [("s3-p3", A, s, [T, S, so.direct_sum(T, T), s3_lattices["regular"]])]
    for m, p in [(1, 2), (2, 2), (1, 3), (3, 5)]:
        R, sr = rank2_order(m, p)
        U = rank2_projection_lattice(R)
        lats = [U, so.direct_sum(U, U)] if p**m <= 4 else [U]
        out.append((f"rank2-m{m}-p{p}", R, sr, lats))
    for p in (2, 3):
        M, sm = matrix_order(2, p)
        out.append((f"m2-p{p}", M, sm, [matrix_column_lattice(M, 2)]))
    for n, p, cosets, summed in [(2, 2, (), True), (3, 3, (), True), (4, 2, (2,), True),
                                 (9, 3, (3,), False), (6, 2, (2, 3), False)]:
        C, sc = _cyclic(n, p)
        lats = [_trivial(C)] + [_coset_lattice(C, n, m) for m in cosets]
        if summed:  # T + T, or T + L with exponents (1, 1, 1, 1, 2) for C4
            lats.append(so.direct_sum(lats[0], lats[-1]))
        out.append((f"c{n}-p{p}", C, sc, lats))
    return out


def test_deciders_agree_with_the_enumerators(s3, s3_lattices):
    seen = {"socle": set(), "exponents": set()}
    for label, A, s, lats in _cases(s3, s3_lattices):
        for i, U in enumerate(lats):
            if so.exponent(A, s, U) == 0:
                for decide in (so.stable_socle_property, socle_oracle):
                    with pytest.raises(ValueError, match="projective"):
                        decide(A, s, U)
            else:
                socle = so.stable_socle_property(A, s, U)
                assert socle == socle_oracle(A, s, U), (label, i)
                seen["socle"].add(socle)
                seen["exponents"].add(so.stable_hom(A, s, U, U).exponents)
            for V in lats:
                assert tate_kernel_oracle(A, s, U, V) is None, (label, i)
                assert so.verify_tate_duality(A, s, U, V).perfect
    # both verdicts occur, and some stable End ring has unequal factors
    assert seen["socle"] == {True, False}
    assert any(len(set(e)) > 1 for e in seen["exponents"])


def _degenerate_cases():
    for m, p in [(1, 3), (2, 2)]:
        R, sr = rank2_order(m, p)
        U = rank2_projection_lattice(R)
        yield R, sr, U, U
    C, sc = _cyclic(4, 2)
    yield C, sc, _coset_lattice(C, 4, 2), _trivial(C)


@pytest.mark.parametrize("case", list(_degenerate_cases()), ids=["r2-m1-p3", "r2-m2-p2", "c4"])
def test_degenerate_pairing_names_a_kernel_class(monkeypatch, case):
    A, s, X, Y = case
    # p z^{-1} in place of z^{-1}: every p-torsion class pairs integrally
    exact = lattices.casimir_inverse
    monkeypatch.setattr(lattices, "casimir_inverse", lambda B, f: A.prime * exact(B, f))
    assert tate_kernel_oracle(A, s, X, Y) is not None
    with pytest.raises(TateDualityError, match="pairing degenerate: kernel class") as err:
        so.verify_tate_duality(A, s, X, Y)
    cls = ast.literal_eval(str(err.value).rsplit("kernel class ", 1)[1])
    S_xy = so.stable_hom(A, s, X, Y)
    assert len(cls) == len(S_xy.exponents)
    assert any(c % A.prime**d for c, d in zip(cls, S_xy.exponents))
    x = S_xy.from_class(cls)
    zu = X.act(lattices.casimir_inverse(A, s))
    assert all(val(_trace(zu @ h @ x), A.prime) >= 0
               for h in so.stable_hom(A, s, Y, X).generators)


def test_socle_property_takes_no_fourth_positional_argument(s3, s3_lattices):
    A, s = s3
    T = s3_lattices["trivial"]
    with pytest.raises(TypeError):
        so.stable_socle_property(A, s, T, 6)
    assert so.stable_socle_property(A, s, T, max_dim=6)
    with pytest.raises(so.ResourceBoundError, match="residue algebra too large"):
        so.stable_socle_property(A, s, so.direct_sum(T, T), max_dim=3)


def test_layer_coordinates_reject_classes_off_the_layer():
    # the generator of Z/4 is not p-torsion
    R, sr = rank2_order(2, 2)
    U = rank2_projection_lattice(R)
    S = so.stable_hom(R, sr, U, U)
    with pytest.raises(AssertionError, match="left the p-torsion layer"):
        lattices._layer_coords(S, S.generators[0])
    assert lattices._layer_coords(S, 2 * S.generators[0]) == [1]


def test_rank_over_a_prime_beyond_int64_products_is_exact():
    # both deciders read their verdict off modp.rref; for p > 2^31.5 the
    # products of two residues no longer fit in int64
    p = 4294967311
    a = [p - 2, p - 5, 123456789, p - 1]
    b = [p - 7, 987654321, p - 3, 3]
    c = [((p - 11) * u + (p - 13) * v) % p for u, v in zip(a, b)]
    reduced, pivots = modp.rref([a, b, c], p)
    assert pivots == [0, 1]
    for row in (a, b, c):
        x, y = row[0], row[1]
        assert [(x * r0 + y * r1) % p for r0, r1 in zip(*reduced)] == row
    assert modp.rref([[2, 3], [5, 7]], p)[1] == [0, 1]
    assert modp.rref([[2, 3], [5, 7]], p)[0].tolist() == [[1, 0], [0, 1]]


def test_residue_algebra_product_beyond_int64_is_exact():
    # F_p x F_p on the basis (1, e), e^2 = e: (-1 - 2e)(-3 - 5e) = 3 + 21e
    p = 4294967311
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = table[0, 1, 1] = table[1, 0, 1] = table[1, 1, 1] = 1
    alg = modp.FpAlgebra(p, 2, table, np.array([1, 0]))
    assert alg.multiply([p - 1, p - 2], [p - 3, p - 5]).tolist() == [3, 21]
