"""Exact p-adic arithmetic on rational numbers.

The base ring throughout the package is the localisation of the integers
at a prime p: rationals whose denominator is prime to p.  Its uniformizer
is p itself and its residue field is the prime field with p elements.
Every scalar is an exact ``fractions.Fraction``, or an integer over one
denominator for the helpers named ``*_over``; there is no floating
point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

INFINITY = math.inf


# Miller-Rabin with the primes up to 41 as bases decides primality below
# PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for 2 <= n < PRIME_LIMIT."""
    if any(n % b == 0 for b in MILLER_RABIN_BASES):
        return n in MILLER_RABIN_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r d with d odd
    for b in MILLER_RABIN_BASES:
        x = pow(b, (n - 1) >> r, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


class Prime(int):
    """Prime integer below PRIME_LIMIT, validated at construction."""

    def __new__(cls, p):
        p = int(p)
        if p >= PRIME_LIMIT:
            raise ValueError(f"{p} is not below the primality limit {PRIME_LIMIT}")
        if p < 2 or not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)


def as_scalar(x) -> Fraction:
    """Coerce an int, string ("a/b" or "a") or Fraction to an exact scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot build an exact scalar from {type(x).__name__}")


def as_int(x) -> int:
    """Coerce an integer, or a number or string of integral value, to an
    int; a bool, or a value with a fractional part, raises ValueError."""
    if isinstance(x, bool) or Fraction(x).denominator != 1:
        raise ValueError(f"{x!r} is not an integer")
    return int(Fraction(x))


def scalar_to_str(x: Fraction) -> str:
    """Serialize a scalar as "a/b", omitting the denominator when it is 1."""
    x = as_scalar(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def int_val(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val(x, p: int):
    """p-adic valuation of a rational; +infinity for zero."""
    x = as_scalar(x)
    if x == 0:
        return INFINITY
    return int_val(x.numerator, p) - int_val(x.denominator, p)


def val_over(x: int, den: int, p: int):
    """Valuation of x / den for integers x and den != 0."""
    return INFINITY if x == 0 else int_val(x, p) - int_val(den, p)


def integral_over(row, den: int, p: int) -> bool:
    """Whether x / den lies in the ring for every integer x of the row."""
    pv = p ** int_val(den, p)
    return not any(x % pv for x in row)


def residues_over(row, den: int, p: int, d: int = 1) -> list:
    """x / den mod p^d, as a Python int in [0, p^d), for each integer x of
    the row; None where p^v_p(den) does not divide x, so that x / den lies
    outside the ring.  Every residue the library takes comes from here;
    ``modp`` alone chooses the dtype it is stored in."""
    pv, pd = p ** int_val(den, p), p**d
    inv = pow(den // pv, -1, pd)
    return [None if x % pv else x // pv * inv % pd for x in row]
