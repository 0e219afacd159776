"""Decomposition-level searches, rational symmetry, and the bundle runner.

Run:  python demos/05_decomposition_data.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import symorders as so
from symorders.builders import s3_fixture_bundle
from symorders.padic import scalar_to_str

bundle = s3_fixture_bundle(p=3)
A = bundle.order
s = bundle.forms["standard"]
table = bundle.character_table
D = bundle.decomposition

# Box search over positive integer vectors m, one at a time: with a = D m,
# the form sum a_chi chi is a witness when no a_chi is 0, n = v_p(det G) / dim
# is a nonnegative integer and every value of the form lies in p^n O.
w = so.morita_psp_search(A, table, D, bound=5)
print("box search witness: m =", w.m, " n =", w.n,
      " form =", [scalar_to_str(v) for v in w.form.values])

# The same search over a signed box, then shifted positive again.
wi = so.morita_psp_search_integers(A, table, D, bound=2)
shifted = so.morita_shift_witness(A, table, D, wi)
print("integer-box witness", wi.m, "shifts to the positive witness", shifted.m)

# Schur coefficients of the witness form and the Casimir spectrum of its
# class under a different dimension vector (the condensed degree table).
sigma = so.schur_coefficients(A, w.form, table.values)
print("coefficients:", [scalar_to_str(c) for c in sigma])
condensed_degrees, condensed_dims = bundle.extra_tables["condensed"]
spectrum = so.casimir_spectrum_from_data(sigma, condensed_degrees)
print("condensed spectrum:", [scalar_to_str(c) for c in spectrum])
ok, n = so.scalar_spectrum_test(spectrum, 3)
print("condensed member can reach a scalar Casimir:", ok,
      "(idempotent coordinate valuations differ)")

# Rational symmetry and the exact-linear-algebra criterion.
search = so.rational_symmetry_search(A, table, bound=6)
print("rational symmetry witness:", [scalar_to_str(c) for c in search.witness_sigma],
      " n =", search.witness_n)
crit = so.rational_intersection_criterion(A, table, D, sigma_tilde=search.witness_sigma)
print("orbit test:", crit.verdict, " span test (Morita class):", crit.morita_verdict,
      " maximal ideals inspected:", crit.maximal_ideal_count)

# The same data drives the batch runner.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "s3.json"
    so.save_bundle(bundle, path)
    proc = subprocess.run(
        [sys.executable, "-m", "symorders.cli", "--bundle", str(path),
         "--check", "psp"],
        capture_output=True, text=True,
    )
    print("cli exit code:", proc.returncode)
    print(proc.stdout.rstrip())
