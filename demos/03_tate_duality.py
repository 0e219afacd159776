"""Stable Hom groups and the duality pairing into K modulo the ring.

Run:  python demos/03_tate_duality.py
"""

from fractions import Fraction

import symorders as so
from symorders.builders import rank2_order, rank2_projection_lattice, s3_group_algebra

A, s = s3_group_algebra(3)
trivial = so.make_lattice(A, [[[Fraction(1)]]] * 6)
regular = so.regular_lattice(A)

# The stable endomorphisms of the trivial lattice form one cyclic group
# of order 3: the identity generates, and 3 * id factors through a
# relatively projective module.
S = so.stable_hom(A, s, trivial, trivial)
print("stable End of the trivial lattice:", S.exponents, "(cyclic of order 3)")
print("exponent a(U):", S.exponent)

# The pairing evaluates endomorphism pairs through the inverse Casimir
# element; on (id, id) it lands 1/6 away from the ring.
value = so.tate_pair(A, s, trivial, trivial, [[Fraction(1)]], [[Fraction(1)]])
print("pairing value on (id, id):", value, "in K modulo the ring")

# verify_tate_duality raises TateDualityError unless the pairing is
# perfect, so a report is a certificate; both sides share its factors.
report = so.verify_tate_duality(A, s, trivial, trivial)
print("perfect, with invariant factors", report.exponents_uv,
      "and pairing", [[str(v) for v in row] for row in report.pairing])

# Projective lattices are stably zero, so the pairing is trivially perfect.
report = so.verify_tate_duality(A, s, regular, regular)
print("regular lattice stably zero:", report.exponents_uv == ())

# Both adjunction identities hold exactly, for arbitrary ring-linear maps.
import random

rng = random.Random(1)
ok = all(
    so.adjunction_check(
        A, s, trivial, trivial,
        [[Fraction(rng.randint(-9, 9))]], [[Fraction(rng.randint(-9, 9))]],
    )
    for _ in range(200)
)
print("adjunction identity on 200 random instances:", ok)

# Deeper torsion: the projection lattice over a depth-m rank-2 order has
# stable endomorphism ring of order p^m.
for m, p in [(1, 2), (2, 2), (3, 5)]:
    R, sr = rank2_order(m, p)
    U = rank2_projection_lattice(R)
    rep = so.verify_tate_duality(R, sr, U, U)
    print(f"depth {m}, p = {p}: stable End exponents {rep.exponents_uv},"
          f" pairing value {rep.pairing[0][0]}")
