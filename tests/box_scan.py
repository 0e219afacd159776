"""The rational symmetry search as a scan of its whole box, kept as an
oracle for ``decomp._rational_witness``, with the vectorised block test it
ran on, kept as an oracle for ``decomp.WitnessTest.exponent``.

Every candidate p^k (c_1, ..., c_{r-1}, 1) of the box is tested by
:func:`levels` once, at its least k: the membership level e and the
witness level -m0, in blocks of 2^11, up to the first block with a
witness at k = 0.  It reads bound^(r-1) candidates where the meet in the
middle hashes two halves, so the tests run it on small boxes only.
"""

import math

import numpy as np

from symorders import decomp


def valuations(X, p: int) -> np.ndarray:
    """Least valuation of an entry in each row of the integer array X
    (2^40 for a zero row): that of the row's gcd, whose factors p^e,
    e = 2^j, are taken out largest first."""
    g = np.abs(np.gcd.reduce(X, axis=1))  # reduce leaves a single column's sign
    v = np.where(g == 0, 2**40, 0)
    top, e = int(g.max(initial=0)), 1
    while p ** (2 * e) <= top:
        e *= 2
    while e:
        if p**e <= top:
            divisible = np.asarray(g % p**e == 0, dtype=bool) & (g != 0)
            g, v = np.where(divisible, g // p**e, g), v + e * divisible
        e //= 2
    return v


def levels(test, S, d) -> tuple:
    """(e, m0) for the candidates a = S_c / d_c, one per row c of the
    integer array S, with d > 0: sum p^k a_chi e_chi lies in the order
    exactly when k >= e, and p^k a is a witness of exponent m0 + k exactly
    when k >= -m0, with m0 = -2^40 when it is one at no k.

    m0 is the least valuation of a value f_a(b_k), which never exceeds
    v_p(det G) / dim for G = G_{f_a} (see ``decomp.WitnessTest.exponent``),
    so f_a is a witness when no a_chi is 0 and v_p(det G) = dim m0; p^k
    shifts both sides by dim k.  In int64 when S is and every sum of
    products stays below 2^63, else on Python ints."""
    p, r = test.p, S.shape[1]
    big = max(int(np.abs(S).max(initial=1)), int(d.max(initial=1)))
    width = max(int(np.abs(rows).max(initial=1)) for rows, _ in (test.idempotents, test.values))
    dtype = np.int64 if S.dtype != object and r * width * big < 2**63 else object
    S, d = S.astype(dtype), d.astype(dtype)

    def level(family):
        return valuations(S @ family[0].T.astype(dtype), p) - family[1]

    vd, values = valuations(d[:, None], p), level(test.values)
    nonzero = (S != 0).all(axis=1)
    entries = np.where(nonzero[:, None], valuations(S.reshape(-1, 1), p).reshape(S.shape), 0)
    # v_p(det G) - dim m0, in which v_p(d) cancels
    excess = entries @ test.ranks + test.determinant - int(test.ranks.sum()) * values
    return vd - level(test.idempotents), np.where(nonzero & (excess == 0), values - vd, -2**40)


def first_witness(test, radices, candidates):
    """(k, digits, n) of the least witness p^k a under the witness test,
    k <= POWER_RANGE, k-major and then lexicographic in the digit vectors
    of the radices, or None; ``candidates`` maps digit rows to the (S, d)
    of :func:`levels`."""
    best, total = None, math.prod(radices)
    for start in range(0, total, 1 << 11):
        index = np.arange(start, min(start + (1 << 11), total))
        digits = np.empty((len(index), len(radices)), dtype=np.int64)
        for j in reversed(range(len(radices))):
            index, digits[:, j] = np.divmod(index, radices[j])
        e, m0 = levels(test, *candidates(digits))
        k = np.maximum(np.maximum(e, 0), -m0)
        i = int(np.argmin(k))  # the first of the least
        if k[i] <= decomp.POWER_RANGE and (best is None or k[i] < best[0]):
            best = int(k[i]), tuple(int(x) for x in digits[i]), int(m0[i] + k[i])
            if best[0] == 0:
                break
    return best


def rational_witness(test, bound):
    """(k, digits, n) of the least rational witness over the search values
    of the bound, as ``decomp._rational_witness`` returns it."""
    values, r = decomp._search_values(bound), len(test.ranks)
    dtype = np.int64 if bound**r < 2**63 else object
    nums, dens = (np.array(column, dtype=dtype) for column in zip(*values))

    def candidates(digits):
        d = np.prod(dens[digits], axis=1)
        return np.concatenate([nums[digits] * d[:, None] // dens[digits], d[:, None]], axis=1), d

    return first_witness(test, [len(values)] * (r - 1), candidates)
