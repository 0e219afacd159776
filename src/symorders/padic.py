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
from dataclasses import dataclass
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


def residues_over(row: list, den: int, p: int, d: int = 1) -> list:
    """x / den mod p^d for each integer x of the row; None where p^v_p(den)
    does not divide x, so that x / den lies outside the ring."""
    pv, pd = p ** int_val(den, p), p**d
    inv = pow(den // pv, -1, pd)
    return [None if x % pv else x // pv * inv % pd for x in row]


def residue_int(c: Fraction, p: int, d: int) -> int:
    """Value of a ring element modulo p^d as an integer in [0, p^d)."""
    pd = p**d
    return (c.numerator * pow(c.denominator, -1, pd)) % pd


@dataclass(frozen=True)
class ResidueClass:
    """Class of a rational modulo the p-local integers.

    The canonical representative lies in [0, 1) and has a denominator
    that is a power of p; two rationals are congruent exactly when their
    difference has valuation >= 0.
    """

    representative: Fraction
    prime: int

    def is_zero(self) -> bool:
        return self.representative == 0

    def __add__(self, other: "ResidueClass") -> "ResidueClass":
        if self.prime != other.prime:
            raise ValueError("residue classes at different primes")
        return residue_class(self.representative + other.representative, self.prime)

    def __neg__(self) -> "ResidueClass":
        return residue_class(-self.representative, self.prime)

    def __str__(self) -> str:
        return scalar_to_str(self.representative)


def residue_class(x, p: int) -> ResidueClass:
    """Canonical representative of x modulo the p-local integers.

    For x of valuation -k < 0, p^k x is a ring element and its residue
    c mod p^k gives the representative c / p^k in [0, 1).
    """
    x = as_scalar(x)
    v = val(x, p)
    if v >= 0:
        return ResidueClass(Fraction(0), int(p))
    k = -int(v)
    rep = Fraction(residue_int(x * p**k, p, k), p**k)
    if val(x - rep, p) < 0:
        raise AssertionError("residue representative differs by a non-ring element")
    return ResidueClass(rep, int(p))
