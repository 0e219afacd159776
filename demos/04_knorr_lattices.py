"""Knorr lattices, the stable exponent property, and rank arithmetic.

A lattice is Knorr when its endomorphism traces generate exactly the
rank ideal, with equality of valuations precisely at automorphisms.
Over an order with a scalar Casimir, this is equivalent to being
absolutely indecomposable with the stable exponent property; the
equivalence is checked here on every fixture.

Run:  python demos/04_knorr_lattices.py
"""

from fractions import Fraction

import symorders as so
from symorders.builders import (
    matrix_column_lattice,
    matrix_order,
    s3_characters,
    s3_group_algebra,
)

A, s = s3_group_algebra(3)
trivial = so.make_lattice(A, [[[Fraction(1)]]] * 6)
sign = so.make_lattice(A, [[[v]] for v in s3_characters()[2]])
regular = so.regular_lattice(A)
doubled = so.direct_sum(trivial, trivial)

for name, U in [("trivial", trivial), ("sign", sign),
                ("regular", regular), ("trivial+trivial", doubled)]:
    k = so.knorr_check(A, U)
    an = so.residue_endo_analysis(A, U)
    a = so.exponent(A, s, U)
    line = f"  {name:16s} rank {U.rank}  a(U) = {a}  knorr = {bool(k)!s:5s}"
    line += f"  residue End dim {an.dimension}, split local {an.split_local}"
    print(line)

# The twisted-trace criterion agrees with the untwisted one whenever the
# Casimir element can be made scalar.
cert = so.psp_direct(A, s)
for name, U in [("trivial", trivial), ("sign", sign), ("trivial+trivial", doubled)]:
    rep = so.knorr_exponent_equivalence(A, s, U, psp_certificate=cert)
    print(f"  {name}: knorr {rep.knorr} = stable-exponent {rep.stable_exponent}"
          f" (socle computation: {rep.socle_oracle})")

# Rank arithmetic: Knorr ranks divide p^n, projective ranks are divisible.
entries = []
for name, U in [("trivial", trivial), ("sign", sign), ("regular", regular)]:
    entries.append((name, U.rank, bool(so.knorr_check(A, U)),
                    so.exponent(A, s, U) == 0))
report = so.degree_divisibility_checks(3, cert.n, entries)
for row in report.entries:
    print("  bound:", row)

# A projective Knorr lattice has simple reduction: the action matrices of
# the column module of a matrix order span all 2x2 matrices mod p.
M, sm = matrix_order(2, 2)
col = matrix_column_lattice(M, 2)
print("matrix column lattice: projective", so.exponent(M, sm, col) == 0,
      " knorr", bool(so.knorr_check(M, col)),
      " simple residue", so.knorr_projective_check(M, col))

# Heights measure rank valuations above the minimal character degree.
degrees = [1, 2, 1]
print("heights of ranks 1, 2, 6 over degrees (1, 2, 1) at p = 3:",
      [so.height(r, degrees, 3) for r in (1, 2, 6)])
