"""The rational symmetry search as a scan of its whole box, kept as an
oracle for ``decomp._rational_witness``.

Every candidate p^k (c_1, ..., c_{r-1}, 1) of the box is tested by
``decomp._levels`` once, at its least k: the membership level e and the
witness level -m0, in blocks of 2^11, up to the first block with a
witness at k = 0.  It reads bound^(r-1) candidates where the meet in the
middle hashes two halves, so the tests run it on small boxes only.
"""

import math

import numpy as np

from symorders import decomp


def first_witness(test, radices, candidates):
    """(k, digits, n) of the least witness p^k a under the witness test,
    k <= POWER_RANGE, k-major and then lexicographic in the digit vectors
    of the radices, or None; ``candidates`` maps digit rows to the (S, d)
    of ``decomp._levels``."""
    best, total = None, math.prod(radices)
    for start in range(0, total, 1 << 11):
        index = np.arange(start, min(start + (1 << 11), total))
        digits = np.empty((len(index), len(radices)), dtype=np.int64)
        for j in reversed(range(len(radices))):
            index, digits[:, j] = np.divmod(index, radices[j])
        e, m0 = decomp._levels(test, *candidates(digits))
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
