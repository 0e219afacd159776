import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symorders as so
from symorders.builders import matrix_column_lattice, matrix_order, s3_fixture_bundle
from symorders.bundle import Bundle, BundleError, bundle_from_dict, bundle_to_dict
from symorders.cli import RunOptions, main, run


@pytest.fixture(scope="module")
def s3_doc(s3_bundle):
    return bundle_to_dict(s3_bundle)


def test_round_trip(tmp_path, s3_bundle):
    path = tmp_path / "s3.json"
    so.save_bundle(s3_bundle, path)
    loaded = so.load_bundle(path)
    assert bundle_to_dict(loaded) == bundle_to_dict(s3_bundle)
    # serialization is stable: saving again is byte-identical
    path2 = tmp_path / "s3b.json"
    so.save_bundle(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_expectations_are_not_shared_between_bundle_and_document():
    bundle = s3_fixture_bundle(3)
    doc = bundle_to_dict(bundle)
    doc["expectations"]["psp"]["n"] = 7
    assert bundle.expectations["psp"]["n"] != 7
    loaded = bundle_from_dict(doc)
    loaded.expectations["psp"]["n"] = 8
    assert doc["expectations"]["psp"]["n"] == 7


def test_load_reports_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(BundleError, match="parse error at line 1"):
        so.load_bundle(path)
    with pytest.raises(BundleError, match="no such bundle"):
        so.load_bundle(tmp_path / "missing.json")


def test_validation_errors_name_the_invariant(s3_doc):
    doc = copy.deepcopy(s3_doc)
    doc["order"]["structure"][1][1] = doc["order"]["structure"][2][1]
    with pytest.raises(BundleError, match="not associative"):
        bundle_from_dict(doc)

    doc = copy.deepcopy(s3_doc)
    doc["forms"]["standard"] = doc["forms"]["standard"][:-1]
    with pytest.raises(BundleError, match="wrong length"):
        bundle_from_dict(doc)

    doc = copy.deepcopy(s3_doc)
    doc["lattices"]["trivial"][1][0][0] = "2"
    with pytest.raises(BundleError, match="lattice 'trivial'"):
        bundle_from_dict(doc)

    doc = copy.deepcopy(s3_doc)
    doc["expectations"]["knorr"] = {"missing": True}
    with pytest.raises(BundleError, match="unresolved name"):
        bundle_from_dict(doc)

    doc = copy.deepcopy(s3_doc)
    del doc["order"]
    with pytest.raises(BundleError, match="missing field"):
        bundle_from_dict(doc)


def _extra_row(doc):
    doc["decomposition"]["matrix"].append([1, 0])


def _longer_dims(doc):
    doc["decomposition"]["modular_dims"].append(1)


def _shorter_dims(doc):
    doc["decomposition"]["modular_dims"].pop()


def _table_degrees_mismatch(doc):
    doc["tables"]["condensed"]["degrees"] = ["1", "3", "3"]


def _table_without_dims(doc):
    del doc["tables"]["condensed"]["modular_dims"]


@pytest.mark.parametrize("corrupt, message", [
    (_extra_row, "decomposition validation failed: decomposition matrix of shape"),
    (_longer_dims, "decomposition validation failed: decomposition matrix of shape"),
    (_shorter_dims, "decomposition validation failed: decomposition matrix of shape"),
    (_table_degrees_mismatch, "table 'condensed' validation failed: degree 3"),
    (_table_without_dims, "table 'condensed': missing field 'modular_dims'"),
])
def test_malformed_decomposition_data_is_an_input_error(s3_doc, tmp_path, capsys,
                                                        corrupt, message):
    _assert_input_error(s3_doc, corrupt, message, tmp_path, capsys)


def _assert_input_error(s3_doc, corrupt, message, tmp_path, capsys):
    doc = copy.deepcopy(s3_doc)
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["--bundle", str(path), "--check", "validate"]) == 2
    assert message in capsys.readouterr().err


def _characters_without_values(doc):
    del doc["characters"]["values"]


def _decomposition_without_matrix(doc):
    del doc["decomposition"]["matrix"]


def _forms_as_list(doc):
    doc["forms"] = list(doc["forms"].values())


def _tables_as_list(doc):
    doc["tables"] = list(doc["tables"].values())


@pytest.mark.parametrize("corrupt, message", [
    (_characters_without_values, "characters: missing field 'values'"),
    (_decomposition_without_matrix, "decomposition: missing field 'matrix'"),
    (_forms_as_list, "forms must be a JSON object"),
    (_tables_as_list, "tables must be a JSON object"),
])
def test_malformed_sections_are_an_input_error(s3_doc, tmp_path, capsys, corrupt, message):
    _assert_input_error(s3_doc, corrupt, message, tmp_path, capsys)


def test_decomposition_requires_characters(s3_doc):
    doc = copy.deepcopy(s3_doc)
    del doc["characters"]
    with pytest.raises(BundleError, match="requires characters"):
        bundle_from_dict(doc)


def test_run_all_checks_pass(s3_bundle):
    report = run("all", s3_bundle, RunOptions())
    assert report.ok
    names = [r.name for r in report.results]
    assert names == list(__import__("symorders.cli", fromlist=["CHECK_NAMES"]).CHECK_NAMES)
    verdicts = {r.name: r.verdict for r in report.results}
    assert all(v == "pass" for v in verdicts.values())


def test_run_single_check(s3_bundle):
    report = run("psp", s3_bundle, RunOptions())
    assert len(report.results) == 1
    details = report.results[0].details
    assert details["direct"]["verdict"] == "yes"
    assert details["direct"]["n"] == 1
    assert details["algorithms_agree"]


def test_run_unknown_check(s3_bundle):
    with pytest.raises(ValueError, match="unknown check"):
        run("nonsense", s3_bundle, RunOptions())


def test_witness_reverifies(s3_bundle):
    # every emitted witness re-verifies through the public operations
    report = run("psp", s3_bundle, RunOptions())
    values = report.results[0].details["direct"]["witness_form"]
    witness = so.LinearForm(values)
    A = s3_bundle.order
    assert so.is_symmetrising(A, witness)
    z = so.casimir(A, witness)
    from symorders import linalg

    assert linalg.vectors_equal(z, A.scalar(3))


def test_cli_main_deterministic(tmp_path, s3_bundle):
    bundle_path = tmp_path / "s3.json"
    so.save_bundle(s3_bundle, bundle_path)
    out1 = tmp_path / "report1.json"
    out2 = tmp_path / "report2.json"
    assert main(["--bundle", str(bundle_path), "--json", str(out1)]) == 0
    assert main(["--bundle", str(bundle_path), "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert [c["name"] for c in doc["checks"]][:3] == [
        "validate",
        "symmetrising",
        "casimir",
    ]
    assert all("elapsed_seconds" not in c for c in doc["checks"])


def test_cli_exit_codes(tmp_path, s3_bundle):
    # 2: input error
    missing = tmp_path / "none.json"
    assert main(["--bundle", str(missing)]) == 2

    # 1: expectation mismatch
    doc = bundle_to_dict(s3_bundle)
    doc["expectations"]["psp"]["n"] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--bundle", str(bad), "--check", "psp"]) == 1

    # 3 is reserved for a resource bound, and no check has one: at a prime
    # beyond int64 products the three maximal ideals of the rank-3 rational
    # centre are read off the central characters, and the span test agrees
    # with the bundle's expectation
    big = tmp_path / "big.json"
    so.save_bundle(s3_fixture_bundle(4294967311), big)
    out = tmp_path / "big-report.json"
    assert main(["--bundle", str(big), "--check", "rational", "--json", str(out)]) == 0
    (check,) = json.loads(out.read_text())["checks"]
    criterion = check["details"]["intersection_criterion"]
    assert criterion["maximal_ideals"] == 3 and criterion["morita_verdict"] is True

    # 0: everything passes, with no bound on the residue radicals
    good = tmp_path / "good.json"
    so.save_bundle(s3_bundle, good)
    assert main(["--bundle", str(good), "--check", "validate"]) == 0
    assert main(["--bundle", str(good), "--check", "knorr"]) == 0


def test_a_rank_zero_lattice_is_an_input_error(tmp_path, capsys):
    doc = bundle_to_dict(s3_fixture_bundle(3))
    doc["lattices"]["zero"] = [[]] * doc["order"]["dim"]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    for check in ("constant-value", "heights", "divisibility"):
        assert main(["--bundle", str(path), "--check", check]) == 2
        err = capsys.readouterr().err
        assert "lattice 'zero' validation failed: rank must be positive" in err


def test_residue_checks_run_exactly_at_a_prime_beyond_int64_products():
    p = 4294967311
    M, sm = matrix_order(2, p)
    matrix = Bundle(prime=p, order=M, forms={"standard": sm},
                    lattices={"column": matrix_column_lattice(M, 2),
                              "regular": so.regular_lattice(M)})
    s3 = dataclasses.replace(s3_fixture_bundle(p), expectations={})
    # p divides no rank or group order: every lattice is projective, and
    # exactly the absolutely indecomposable ones are Knorr
    cases = [(matrix, {"column": True, "regular": False}),
             (s3, {"trivial": True, "sign": True, "regular": False})]
    for b, knorr in cases:
        results = {}
        for check in ("knorr", "stable-exponent", "divisibility"):
            (result,) = run(check, b).results
            assert result.verdict == "pass", (check, result.details)
            results[check] = result.details
        assert {k: v["verdict"] for k, v in results["knorr"].items()} == knorr
        assert all(v == {"verdict": "projective - property undefined"}
                   for v in results["stable-exponent"].values())
        simple = {k: v for k, v in results["divisibility"].items()
                  if k.endswith("_residue_simple")}
        assert simple == {f"{k}_residue_simple": True for k, v in knorr.items() if v}


def test_cli_output_is_the_same_under_python_O(tmp_path):
    # -O strips assert statements; the certificates are explicit raises,
    # so the run and its report must not change
    bundle_path = tmp_path / "s3.json"
    so.save_bundle(s3_fixture_bundle(3), bundle_path)
    env = dict(os.environ, PYTHONPATH=str(Path(so.__file__).resolve().parents[1]))
    runs = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"report{''.join(flags)}.json"
        done = subprocess.run(
            [sys.executable, *flags, "-m", "symorders.cli", "--bundle", str(bundle_path),
             "--check", "all", "--json", str(out)],
            env=env, capture_output=True, timeout=300,
        )
        runs.append((done.returncode, done.stdout, done.stderr, out.read_bytes()))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[0] == runs[1]
