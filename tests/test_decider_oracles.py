"""The linear-algebra deciders against brute force.

``stable_socle_property`` and ``verify_tate_duality`` decide by linear
algebra on the p-torsion layer of the stable Hom groups,
``FpAlgebra.radical`` by the Cohen-Ivanyos-Wales trace chain and
``knorr_projective_check`` by Burnside's theorem.  The oracles here
enumerate instead: every stable class, every element of the residue
algebra, every residue vector.  That is exponential, so they only run
on small cases.  ``scalar_modp`` keeps the row-by-row elimination and
the per-pair trace chain that ``modp`` replaced, as oracles at any size.
"""

import ast
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symorders as so
from symorders import lattices, linalg, modp
from symorders.builders import (
    cyclic_group_table,
    group_algebra,
    klein_four_table,
    matrix_column_lattice,
    matrix_order,
    rank2_order,
    rank2_projection_lattice,
    symmetric_group_table,
)
from symorders.lattices import TateDualityError
from symorders.padic import val

import fraction_lattices
from fraction_lattices import trace
from fraction_linalg import residue_int
import scalar_modp


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
    G = linalg.from_numerators(*S.integer_generators)
    # the classes of the products of generators and of the identity, in one solve
    mats = [G[i] @ G[j] for i in range(k) for j in range(k)] + [linalg.identity(U.rank)]
    found = S._classes(*linalg.numerators(fraction_lattices.flat(mats)))
    gen_prod = [found[i * k:(i + 1) * k] for i in range(k)]
    one = found[-1]
    zero = tuple(0 for _ in mods)

    def mul(x, y):
        out = list(zero)
        for i, j in product(range(k), repeat=2):
            if x[i] and y[j]:
                for l, m in enumerate(mods):
                    out[l] = (out[l] + x[i] * y[j] * gen_prod[i][j][l]) % m
        return tuple(out)

    classes = list(product(*[range(m) for m in mods]))
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
    zu = linalg.from_numerators(*U.integer_act(lattices.casimir_inverse(A, s)))
    G, g = S_uv.integer_generators
    others = linalg.from_numerators(*S_vu.integer_generators)
    p = A.prime
    for coeffs in product(*[range(p**d) for d in S_uv.exponents]):
        if any(coeffs):
            x = linalg.from_numerators(np.tensordot(np.array(coeffs, dtype=object), G, 1), g)
            if all(val(trace(zu @ h @ x), p) >= 0 for h in others):
                return coeffs
    return None


def _units(n):
    return np.eye(n, dtype=np.int64)


def _ideal_closure(alg, x):
    """Basis of the two-sided ideal generated by x."""
    basis = modp.subspace_basis([x], alg.p)
    while True:
        units = _units(alg.dim)
        rows = (list(basis) + [alg.multiply(e, g) for g in basis for e in units]
                + [alg.multiply(g, e) for g in basis for e in units])
        grown = modp.subspace_basis(rows, alg.p)
        if grown.shape[0] == basis.shape[0]:
            return basis
        basis = grown


def _is_nilpotent_element(alg, x) -> bool:
    power = np.array(x, dtype=np.int64) % alg.p
    for _ in range(alg.dim):
        if not any(power):
            return True
        power = alg.multiply(power, x)
    return not any(power)


def _nilpotent_ideal_generators(alg):
    """Every element of the algebra whose two-sided ideal is nilpotent."""
    for coeffs in product(range(alg.p), repeat=alg.dim):
        x = np.array(coeffs, dtype=np.int64)
        if (any(x) and _is_nilpotent_element(alg, x)
                and alg.is_nilpotent_subspace(_ideal_closure(alg, x))):
            yield x


def _quotient(alg, ideal):
    """Quotient algebra by a two-sided ideal, on the non-pivot basis elements."""
    p = alg.p
    reduced, pivots = modp.rref(ideal, p)
    free = [c for c in range(alg.dim) if c not in pivots]

    def project(v):
        v = np.array(v, dtype=np.int64) % p
        for row, c in zip(reduced, pivots):
            v = (v - v[c] * row) % p
        return v[free]

    e = _units(alg.dim)
    table = np.array([[project(alg.multiply(e[a], e[b])) for b in free] for a in free])
    return modp.FpAlgebra(p, len(free), table, project(alg.one))


def enumerated_radical(alg) -> np.ndarray:
    """Radical of an FpAlgebra by enumerating all p^dim elements: the span
    of those whose two-sided ideal is nilpotent, checked to leave a
    quotient with no such element.  Reduced row echelon form."""
    found = list(_nilpotent_ideal_generators(alg))
    basis = (modp.subspace_basis(found, alg.p) if found
             else np.zeros((0, alg.dim), dtype=np.int64))
    if next(_nilpotent_ideal_generators(_quotient(alg, basis)), None) is not None:
        raise AssertionError("quotient by the radical is not semisimple")
    return basis


def spun_simple(A, U) -> bool:
    """U/pU simple: every nonzero residue vector spins to all of it."""
    p = A.prime
    actions = [np.array([[residue_int(x, p, 1) for x in row] for row in m], dtype=np.int64)
               for m in fraction_lattices.action(U)]
    for coeffs in product(range(p), repeat=U.rank):
        if not any(coeffs):
            continue
        basis = modp.subspace_basis([np.array(coeffs, dtype=np.int64)], p)
        while True:
            rows = list(basis) + [(m @ v) % p for v in basis for m in actions]
            grown = modp.subspace_basis(rows, p)
            if grown.shape[0] == basis.shape[0]:
                break
            basis = grown
        if basis.shape[0] < U.rank:
            return False
    return True


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
                # raises unless perfect; both sides carry the same factors
                rep = so.verify_tate_duality(A, s, U, V)
                assert rep.exponents_uv == so.stable_hom(A, s, V, U).exponents
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
    G, g = S_xy.integer_generators
    x = linalg.from_numerators(np.tensordot(np.array(cls, dtype=object), G, 1), g)
    zu = linalg.from_numerators(*X.integer_act(lattices.casimir_inverse(A, s)))
    assert all(val(trace(zu @ h @ x), A.prime) >= 0
               for h in linalg.from_numerators(*so.stable_hom(A, s, Y, X).integer_generators))


def test_socle_property_takes_no_fourth_positional_argument(s3, s3_lattices):
    A, s = s3
    T = s3_lattices["trivial"]
    with pytest.raises(TypeError):
        so.stable_socle_property(A, s, T, 6)
    assert so.stable_socle_property(A, s, T)
    TT = so.direct_sum(T, T)
    assert so.stable_socle_property(A, s, TT) == socle_oracle(A, s, TT)


def _group_algebra_mod(table, p):
    """F_p G from a Cayley table with the identity first."""
    n = len(table)
    mult = np.zeros((n, n, n), dtype=np.int64)
    for g in range(n):
        for h in range(n):
            mult[g, h, table[g][h]] = 1
    return modp.FpAlgebra(p, n, mult, _units(n)[0])


def _matrix_units(n, p, upper=False):
    """M_n(F_p), or its upper triangular subalgebra, on matrix units."""
    units = [(i, j) for i in range(n) for j in range(n) if i <= j or not upper]
    index = {u: k for k, u in enumerate(units)}
    d = len(units)
    mult = np.zeros((d, d, d), dtype=np.int64)
    for (i, j), a in index.items():
        for (k, l), b in index.items():
            if j == k:
                mult[a, b, index[(i, l)]] = 1
    return modp.FpAlgebra(p, d, mult, np.array([int(i == j) for i, j in units]))


def _rebased(alg, P):
    """alg on the basis given by the rows of P, or None when P is singular mod p."""
    p, n = alg.p, alg.dim
    reduced, pivots = modp.rref(np.hstack([np.array(P) % p, _units(n)]), p)
    if pivots[:n] != list(range(n)):
        return None
    inverse = reduced[:, n:]
    mult = np.einsum("ia,jb,abk->ijk", P, P, alg.table) % p @ inverse % p
    return modp.FpAlgebra(p, n, mult, alg.one @ inverse % p)


def _small_algebras():
    """(label, algebra) with p^dim <= 3^6: group algebras at dividing and
    non-dividing primes, and matrix algebras, where the trace form alone
    misses the radical at p <= dim."""
    groups = [(f"C{n}", cyclic_group_table(n)[0]) for n in range(2, 9)]
    groups += [("V4", klein_four_table()[0]), ("S3", symmetric_group_table(3)[0])]
    out = [(f"{name}-p{p}", _group_algebra_mod(table, p))
           for name, table in groups for p in (2, 3, 5, 7) if p ** len(table) <= 3**6]
    out += [("M2-p2", _matrix_units(2, 2)), ("M2-p3", _matrix_units(2, 3)),
            ("UT2-p5", _matrix_units(2, 5, upper=True)),
            ("UT3-p2", _matrix_units(3, 2, upper=True)),
            ("UT3-p3", _matrix_units(3, 3, upper=True))]
    return out


@pytest.fixture(scope="module")
def residue_algebras(s3, s3_lattices):
    """End(U) mod p for direct sums of builder lattices."""
    A, _ = s3
    T, S = s3_lattices["trivial"], s3_lattices["sign"]
    cases = [("s3", A, so.direct_sum(T, S)), ("s3", A, so.direct_sum(T, T)),
             ("s3", A, s3_lattices["regular"])]
    for m, p in [(1, 2), (2, 2), (1, 3)]:
        R, _ = rank2_order(m, p)
        U = rank2_projection_lattice(R)
        cases.append((f"rank2-m{m}-p{p}", R, so.direct_sum(U, U)))
    C, _ = _cyclic(4, 2)
    cases.append(("c4-p2", C, so.direct_sum(_trivial(C), _coset_lattice(C, 4, 2))))
    M, _ = matrix_order(2, 2)
    col = matrix_column_lattice(M, 2)
    cases.append(("m2-p2", M, so.direct_sum(col, col)))
    return [(f"End({label}, rank {U.rank})",
             lattices._residue_algebra(B, lattices.hom_lattice(B, U, U)))
            for label, B, U in cases]


def test_radical_matches_the_enumerator(residue_algebras):
    seen = set()
    for label, alg in _small_algebras() + residue_algebras:
        radical = alg.radical()
        assert np.array_equal(radical, enumerated_radical(alg)), label
        seen.add((radical.shape[0] > 0, alg.p <= alg.dim))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_radical_matches_the_enumerator_on_random_bases(residue_algebras, data):
    label, alg = data.draw(st.sampled_from(_small_algebras() + residue_algebras))
    n = alg.dim
    entries = st.integers(0, alg.p - 1)
    P = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=n, max_size=n)), dtype=np.int64)
    rebased = _rebased(alg, P)
    assume(rebased is not None)
    assert np.array_equal(rebased.radical(), enumerated_radical(rebased)), label


@settings(max_examples=10, deadline=None)
@given(entries=st.lists(st.integers(0, 2), min_size=81, max_size=81))
def test_radical_of_m3_f3_past_the_trace_form(entries):
    # 3^9 elements are too many for the enumerator; M_3(F_3) is simple, but
    # its trace form vanishes, so only the p^1 and p^2 steps find that
    alg = _rebased(_matrix_units(3, 3), np.array(entries, dtype=np.int64).reshape(9, 9))
    assume(alg is not None)
    assert all(np.trace(alg.left_rows(b)) % 3 == 0 for b in _units(9))
    assert alg.radical().shape == (0, 9)


def test_burnside_agrees_with_spinning(s3, s3_lattices):
    cases = []
    for n, p in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        M, _ = matrix_order(n, p)
        cases.append((M, matrix_column_lattice(M, n), True))
    for p in (2, 3):
        # projective and split local, but F_p C_p is not simple
        C, _ = _cyclic(p, p)
        cases.append((C, so.regular_lattice(C), False))
    for B, U, simple in cases:
        assert so.knorr_projective_check(B, U) is simple
        assert spun_simple(B, U) is simple
    A, _ = s3
    with pytest.raises(ValueError, match="not split local"):
        so.knorr_projective_check(A, s3_lattices["regular"])


def test_layer_coordinates_reject_classes_off_the_layer():
    # the generator of Z/4 is not p-torsion
    R, sr = rank2_order(2, 2)
    U = rank2_projection_lattice(R)
    S = so.stable_hom(R, sr, U, U)
    with pytest.raises(AssertionError, match="left the p-torsion layer"):
        lattices._layer_coords(S, *S.integer_generators)
    G, g = S.integer_generators
    assert lattices._layer_coords(S, 2 * G, g) == [[1]]


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


def test_fp_algebra_reduces_its_table_once(monkeypatch):
    # F_p[x]/(x^2) on the basis 1, x, with its table shifted by multiples of
    # p; at p = 2 <= dim the chain raises one stack of matrices
    for p, table in [(3, [[[4, -3], [3, 7]], [[0, -2], [6, 0]]]),
                     (2, [[[3, -2], [2, 5]], [[0, -1], [4, 0]]])]:
        table = np.array(table)
        alg = modp.FpAlgebra(p, 2, table, np.array([1, 0]))
        assert alg.table.tolist() == (table % p).tolist()
        again = []
        reduced = modp._reduced
        monkeypatch.setattr(modp, "_reduced", lambda a, m, terms: again.append(a is alg.table)
                            or reduced(a, m, terms))
        assert alg.radical().tolist() == [[0, 1]]
        assert again and not any(again)  # no call reduces the table again
        monkeypatch.undo()


@st.composite
def _rows_mod_p(draw):
    """(p, n, rows): a few random rows with entries in [-2p, 2p] and some
    random combinations of them mod p, shuffled."""
    p = draw(st.sampled_from([2, 3, 5, 101, 4294967311]))
    n = draw(st.integers(1, 7))
    base = draw(st.lists(st.lists(st.integers(-2 * p, 2 * p), min_size=n, max_size=n),
                         max_size=5))
    coefficients = st.lists(st.integers(0, p - 1), min_size=len(base), max_size=len(base))
    combined = [[sum(c * row[j] for c, row in zip(cs, base)) % p for j in range(n)]
                for cs in draw(st.lists(coefficients, max_size=4 if base else 0))]
    rows = draw(st.permutations(base + combined))
    return p, n, rows


@settings(max_examples=200, deadline=None)
@given(case=_rows_mod_p())
def test_rref_and_nullspace_equal_the_scalar_elimination(case):
    p, n, rows = case
    array = np.array(rows, dtype=np.int64).reshape(-1, n)
    expected, pivots = scalar_modp.rref(rows, p)
    for given_rows in (rows, array):
        reduced, found = modp.rref(given_rows, p)
        assert found == pivots
        assert np.array_equal(reduced.reshape(-1, n), expected.reshape(-1, n))
        if len(given_rows):
            assert np.array_equal(modp.nullspace(given_rows, p), scalar_modp.nullspace(rows, p))
    assert array.tolist() == np.array(rows, dtype=np.int64).reshape(-1, n).tolist()  # untouched
    assert np.array_equal(modp.nullspace(array, p), scalar_modp.nullspace(array, p))


@pytest.mark.parametrize("p", [3, 101, 4294967311])
def test_rref_of_an_int64_array_equals_rref_of_its_rows(p):
    rng = np.random.default_rng(p)
    full = rng.integers(-10**9, 10**9, size=(52, 6))
    low = rng.integers(-50, 50, size=(52, 3)) @ rng.integers(-50, 50, size=(3, 6))
    for rows in (full, low):
        reduced, pivots = modp.rref(rows, p)
        expected, expected_pivots = modp.rref(rows.tolist(), p)
        assert pivots == expected_pivots
        assert np.array_equal(reduced, expected)
    assert len(modp.rref(low, p)[1]) == 3


def _wide_algebras():
    """Algebras at primes where residue products leave int64."""
    p = 4294967311
    return [(f"C{n}-p{p}", _group_algebra_mod(cyclic_group_table(n)[0], p)) for n in (2, 3)] + [
        (f"UT2-p{p}", _matrix_units(2, p, upper=True)), (f"M2-p{p}", _matrix_units(2, p))]


def test_radical_equals_the_scalar_trace_chain(residue_algebras):
    m3 = _rebased(_matrix_units(3, 3), np.array([[int(i == j or j == (i + 1) % 9) for j in range(9)]
                                                 for i in range(9)]))
    cases = _small_algebras() + residue_algebras + _wide_algebras() + [("M3-p3", m3)]
    for label, alg in cases:
        assert np.array_equal(alg.radical(), scalar_modp.radical(alg)), label


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_radical_equals_the_scalar_trace_chain_on_random_bases(residue_algebras, data):
    label, alg = data.draw(st.sampled_from(_small_algebras() + residue_algebras))
    n = alg.dim
    entries = st.integers(0, alg.p - 1)
    P = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=n, max_size=n)), dtype=np.int64)
    rebased = _rebased(alg, P)
    assume(rebased is not None)
    assert np.array_equal(rebased.radical(), scalar_modp.radical(rebased)), label


def test_radical_beyond_int64_products_is_exact():
    p = 4294967311
    dual = np.zeros((2, 2, 2), dtype=np.int64)  # F_p[x]/(x^2) on 1, x
    dual[0, 0, 0] = dual[0, 1, 1] = dual[1, 0, 1] = 1
    split = dual.copy()  # F_p x F_p on 1, e with e^2 = e
    split[1, 1, 1] = 1
    assert modp.FpAlgebra(p, 2, dual, np.array([1, 0])).radical().tolist() == [[0, 1]]
    assert modp.FpAlgebra(p, 2, split, np.array([1, 0])).radical().shape == (0, 2)
    # F_p[x]/(x^2) on 1, y = 1 + x, with y^2 = 2y - 1: the radical is y - 1
    shifted = dual.copy()
    shifted[1, 1] = [p - 1, 2]
    radical = modp.FpAlgebra(p, 2, shifted, np.array([1, 0])).radical()
    assert radical.tolist() == [[1, p - 1]]


def test_radical_certifies_a_two_sided_ideal(monkeypatch):
    # UT_2(F_5) on e11, e12, e22: e11 spans a left ideal (b e11 lies in it
    # for every b) and e22 a right one, but e11 e12 = e12 = e12 e22
    alg = _matrix_units(2, 5, upper=True)
    for one_sided in ([1, 0, 0], [0, 0, 1]):
        monkeypatch.setattr(modp, "nullspace", lambda M, p: np.array([one_sided]))
        with pytest.raises(AssertionError, match="radical not a two-sided ideal"):
            alg.radical()


def test_radical_certifies_a_semisimple_quotient(monkeypatch):
    # F_5[x]/(x^2): the radical is (x) and the quotient F_5 has trace form 1
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = table[0, 1, 1] = table[1, 0, 1] = 1
    alg = modp.FpAlgebra(5, 2, table, np.array([1, 0]))
    quotients = []
    quotient = modp._quotient_table
    monkeypatch.setattr(modp, "_quotient_table",
                        lambda *args: quotients.append(args) or quotient(*args))
    assert alg.radical().tolist() == [[0, 1]]
    assert len(quotients) == 1
    # a zero radical leaves the trace form of the whole algebra, already known
    # to be nondegenerate: no quotient is built
    assert _group_algebra_mod(cyclic_group_table(3)[0], 5).radical().shape == (0, 3)
    assert len(quotients) == 1
    monkeypatch.setattr(modp, "_quotient_table", lambda *args: 0 * quotient(*args))
    with pytest.raises(AssertionError, match="quotient by the radical not semisimple"):
        alg.radical()
