import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symorders.padic import (
    PRIME_LIMIT,
    Prime,
    integral_over,
    residues_over,
    scalar_to_str,
    val,
)
from fraction_linalg import residue_int

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=60
)
primes = st.sampled_from([Prime(2), Prime(3), Prime(5)])


def test_prime_validation():
    assert Prime(2) == 2
    assert Prime(13) == 13
    for bad in (1, 0, -3, 4, 9, 15):
        with pytest.raises(ValueError):
            Prime(bad)


def test_prime_near_ten_to_the_eighteen_is_quick():
    # trial division would need about 10^9 steps for either number
    start = time.perf_counter()
    assert Prime(10**18 + 3) == 10**18 + 3
    with pytest.raises(ValueError, match="not prime"):
        Prime((10**9 + 7) * (10**9 + 9))
    assert time.perf_counter() - start < 5


def test_prime_rejects_carmichael_numbers_and_the_limit():
    for carmichael in (561, 41041):
        with pytest.raises(ValueError, match="not prime"):
            Prime(carmichael)
    # the smallest strong pseudoprime to all thirteen bases is the limit
    with pytest.raises(ValueError, match=str(PRIME_LIMIT)):
        Prime(PRIME_LIMIT)
    with pytest.raises(ValueError, match=str(PRIME_LIMIT)):
        Prime(2**89 - 1)  # a Mersenne prime above the limit
    assert Prime(PRIME_LIMIT - 168) == PRIME_LIMIT - 168  # largest prime below it


def test_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(-2, 10**4):
        try:
            Prime(n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == sympy.isprime(n), n


def test_val_examples():
    assert val(Fraction(6), 3) == 1
    assert val(Fraction(1, 6), 3) == -1
    assert val(Fraction(0), 3) == math.inf
    assert val(Fraction(-12), 2) == 2
    assert val(Fraction(5, 7), 2) == 0


def test_residue_examples():
    # 1/6 = 1/(3 2): 1/2 = 2 mod 3, so 1/6 = 2/3 modulo the ring
    assert residues_over([1, 3, 5], 2, 3) == [2, 0, 1]
    assert residues_over([1, 3], 6, 3) == [None, 2]
    assert residues_over([-1], 1, 2, 2) == [3]  # -1/4 = 3/4 modulo the ring
    # at a prime past int64 the residues stay exact Python ints
    p = 1180591620717411303449
    assert residues_over([-1, 3 * p], 3, p, 2) == [(p * p - 1) // 3, p]
    assert all(type(r) is int for r in residues_over([-1, p + 7], 5, p))


def test_integral_over_examples():
    assert integral_over([0, 9, -18], 9, 3) and integral_over([7, 1], 10, 3)
    assert not integral_over([9, 3], 9, 3) and not integral_over([1], 2, 2)
    assert integral_over([], 4, 2)


def test_residue_int_examples():
    assert residue_int(Fraction(1, 2), 3, 1) == 2
    assert residue_int(Fraction(-1), 5, 2) == 24
    assert residue_int(Fraction(10, 3), 2, 3) == 6  # 3 * 6 = 18 = 10 mod 8


@given(rationals, primes, st.integers(1, 4))
def test_residue_int_congruence(x, p, d):
    c = x * Fraction(p) ** max(0, -val(x, p)) if x else x
    r = residue_int(c, p, d)
    assert 0 <= r < p**d
    assert val(c - r, p) >= d


def _times_powers(p, bound):
    """Integers a p^e, |a| <= bound and e <= 4, zero allowed."""
    return st.builds(lambda a, e: a * p**e, st.integers(-bound, bound), st.integers(0, 4))


@given(st.sampled_from([2, 3, 5, 4294967311]), st.integers(1, 4), st.data())
def test_residues_over_are_ring_residues_mod_p_to_the_d(p, d, data):
    row = data.draw(st.lists(_times_powers(p, 10**6), max_size=6))
    den = data.draw(_times_powers(p, 60).filter(bool))
    for x, r in zip(row, residues_over(row, den, p, d), strict=True):
        c = Fraction(x, den)
        if val(c, p) < 0:
            assert r is None
        else:
            assert 0 <= r < p**d
            assert val(c - r, p) >= d


def test_scalar_strings():
    assert scalar_to_str(Fraction(3)) == "3"
    assert scalar_to_str(Fraction(-5, 3)) == "-5/3"
    assert Fraction("-5/3") == Fraction(-5, 3)


@given(rationals, rationals, primes)
def test_valuation_ultrametric(x, y, p):
    assert val(x * y, p) == val(x, p) + val(y, p)
    assert val(x + y, p) >= min(val(x, p), val(y, p))


@given(st.lists(_times_powers(5, 10**6), max_size=6), _times_powers(5, 60).filter(bool))
def test_integral_over_agrees_with_the_valuations(row, den):
    assert integral_over(row, den, 5) == all(val(Fraction(x, den), 5) >= 0 for x in row)
    assert integral_over(row, den, 5) == (None not in residues_over(row, den, 5))
