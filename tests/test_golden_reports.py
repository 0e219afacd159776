"""The reports of ``symorders --check all`` are a contract: for a fixed
bundle, the ``--json`` report and the printed summary must not change
by a byte when the exact kernels underneath are rewritten.

The bundles under ``tests/data`` are the S3 fixture at p = 3
(``builders.s3_fixture_bundle(3)``); ``s3-p3-permuted``, the
s3-fixture benchmark bundle of seed 2, whose group elements are
reordered and whose regular lattice keeps the lattice basis with the
action recombined, so its integer action is not the array of
``regular_lattice``; the small-survey benchmark
bundles ``m2-p3`` and ``rank2-m2-p2`` on the dense basis of seed 7;
``rank2-m2-p2-doubled``, the enum-rank2 benchmark bundle of that order
with the lattices ``projection`` and ``projection2`` = projection ⊕
projection on the same basis, whose stable Homs have up to four
generators, so its report pins 2 x 2 and 4 x 4 Tate pairings; and
``s4-p3``: the group algebra of the symmetric group on four points at
p = 3 (dimension 24) with its standard form and the trivial and sign
lattices; and ``s4-p2``: the same group algebra at p = 2 with the
trivial, sign and regular lattices, whose report covers the stable Hom
of the regular lattice with itself and the twisted traces on its
endomorphism ring of rank 24.  ``s4-p2-chars`` and ``s4-p3-chars`` are
that group algebra with the trivial, sign and regular lattices at p = 2
and p = 3 together with the characters of
``builders.symmetric_group_characters(4)``, ordered (4), (1111), (22),
(31), (211), and the decomposition matrices

    p = 2: [[1,0],[1,0],[0,1],[1,1],[1,1]], modular dimensions (1, 2);
    p = 3: [[1,0,0,0],[0,1,0,0],[1,1,0,0],[0,0,1,0],[0,0,0,1]],
           modular dimensions (1, 1, 3, 3);

so all twelve checks run on them, ``morita-psp`` and ``rational``
included.  ``s3xc2-p3-chars`` is S3 x C2, the dihedral group of order
12, at p = 3: ``orders.tensor_product`` of the group algebras of S3 and
C2 (basis pairs (g, h) -> 2 g + h), its standard form, the trivial
lattice and the sign lattice of S3 x C2 as the Young subgroup S3 x S2 of
S5, the six products of the characters of ``builders.s3_characters()``
and the characters (1, eps) of C2, and the decomposition matrix
D(S3) (x) I_2, since p does not divide 2, with modular dimensions
(1, 1, 1, 1).  Its ``rational`` witness lies at k = 1, past all 38^5
vectors of the box at k = 0; its report was written by the box scan.
``s3-p3-mismatch`` is the S3 fixture with wrong expectations
(psp verdict and n, the Tate exponents of trivial|trivial, knorr on
regular, morita-psp n, and a JSON null for divisibility ok): its report
pins the ``mismatches`` of five failing checks, their text and order,
the comparison of an expected null, and exit code 1.
``s3-p3-scaled`` is the S3 fixture with its standard form scaled by 3,
which is not symmetrising: its report pins that the five checks reading
the primary form (psp, tate, stable-exponent, constant-value and
divisibility) are skipped and the other seven still report, with exit
code 0; its expectations are those of the checks that run.
``dual-numbers-p3-noform`` is O[x]/(x^2) at p = 3 with the rank-1
lattice ``trivial`` on which x acts as 0, and no form: its report pins
that the five checks reading the primary form are skipped for that
reason and the other seven still report, with exit code 0.
``dual-numbers-p3-singular`` is that order and lattice with the form
t(1) = 0, t(x) = 1, which is symmetrising with the nilpotent Casimir
element 2x, so K⊗A is not separable: its report pins that tate,
stable-exponent and constant-value, which read the inverse of the
Casimir element, are skipped for that reason, that psp is "no" with
the regular Gram test inapplicable, and that divisibility is skipped
since the order lacks the scalar property, with exit code 0.
``rank2-m1-pwide`` is ``builders.rank2_order(1, p)`` at p =
1180591620717411303449, the least prime above 2^70, with the lattices
``projection``, ``projection2`` = projection ⊕ projection and
``regular``, the last two conjugated by [[1, 1], [0, 3]]: its residues
leave int64, and its report pins the Tate pairing value
1180591620717411303448/1180591620717411303449.
Each ``NAME.report.json`` and ``NAME.stdout.txt`` was written by

    symorders --bundle NAME.bundle.json --check all --json NAME.report.json > NAME.stdout.txt

and is regenerated the same way only when a report is meant to change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import symorders
from symorders.cli import main

DATA = Path(__file__).resolve().parent / "data"
# name -> exit code
NAMES = {"s3-p3": 0, "s3-p3-permuted": 0, "m2-p3": 0, "rank2-m2-p2": 0,
         "rank2-m2-p2-doubled": 0, "s4-p3": 0, "s4-p2": 0,
         "s4-p2-chars": 0, "s4-p3-chars": 0, "s3xc2-p3-chars": 0, "s3-p3-mismatch": 1,
         "s3-p3-scaled": 0, "dual-numbers-p3-noform": 0, "dual-numbers-p3-singular": 0,
         "rank2-m1-pwide": 0}


@pytest.mark.parametrize("name", NAMES)
def test_check_all_reproduces_the_golden_report(name, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["--bundle", str(DATA / f"{name}.bundle.json"), "--check", "all",
                 "--json", str(report)])
    captured = capsys.readouterr()
    assert code == NAMES[name]
    assert captured.err == ""
    assert captured.out == (DATA / f"{name}.stdout.txt").read_text()
    assert report.read_bytes() == (DATA / f"{name}.report.json").read_bytes()


@pytest.mark.parametrize("name", ["s3-p3", "s3-p3-permuted", "s3-p3-mismatch", "s4-p2",
                                  "s4-p3-chars", "s3xc2-p3-chars", "rank2-m2-p2-doubled",
                                  "dual-numbers-p3-noform", "dual-numbers-p3-singular",
                                  "rank2-m1-pwide"])
def test_golden_report_is_reproduced_under_python_O(name, tmp_path):
    # -O strips assert statements, so no certificate may rest on one
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(Path(symorders.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "symorders.cli", "--bundle",
         str(DATA / f"{name}.bundle.json"), "--check", "all", "--json", str(report)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == NAMES[name]
    assert done.stderr == ""
    assert done.stdout == (DATA / f"{name}.stdout.txt").read_text()
    assert report.read_bytes() == (DATA / f"{name}.report.json").read_bytes()
