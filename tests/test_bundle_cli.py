import copy
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import symorders as so
from symorders import cli, decomp, linalg
from symorders.builders import (
    cyclic_group_table,
    group_algebra,
    matrix_column_lattice,
    matrix_order,
    s3_fixture_bundle,
)
from symorders.bundle import Bundle, BundleError, bundle_from_dict, bundle_to_dict
from symorders.cli import RunOptions, main, run


@pytest.fixture(scope="module")
def s3_doc(s3_bundle):
    return bundle_to_dict(s3_bundle)


BUNDLES = sorted((Path(__file__).resolve().parent / "data").glob("*.bundle.json"))


@pytest.mark.parametrize("source", [None, *BUNDLES],
                         ids=["s3-fixture", *(path.name for path in BUNDLES)])
def test_round_trip(tmp_path, s3_bundle, source):
    # the S3 fixture as saved, or a committed bundle
    if source is None:
        source = tmp_path / "s3.json"
        so.save_bundle(s3_bundle, source)
        assert bundle_to_dict(so.load_bundle(source)) == bundle_to_dict(s3_bundle)
    # serialization is stable: loading and saving again gives the same bytes
    path = tmp_path / "saved.json"
    so.save_bundle(so.load_bundle(source), path)
    assert path.read_bytes() == source.read_bytes()


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


def _without_decomposition(doc) -> dict:
    del doc["decomposition"]
    return doc["characters"]


def _character_of_degree_zero(doc):
    # weighted by its degree 0, it adds nothing to the regular character
    chars = _without_decomposition(doc)
    chars["values"].append(["0", "1"] + ["0"] * (doc["order"]["dim"] - 2))
    chars["names"].append("zero")
    chars["degrees"].append("0")


def _negated_sign_character(doc):
    # -chi weighted by its degree -chi(1) is chi weighted by chi(1)
    chars = _without_decomposition(doc)
    assert chars["names"][2] == "chi_111"
    chars["values"][2] = [str(-int(x)) for x in chars["values"][2]]
    chars["degrees"][2] = "-1"


@pytest.mark.parametrize("corrupt, check", [(_character_of_degree_zero, "heights"),
                                            (_negated_sign_character, "all")])
def test_a_character_of_degree_at_most_zero_is_an_input_error(s3_doc, tmp_path, capsys,
                                                              corrupt, check):
    doc = copy.deepcopy(s3_doc)
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["--bundle", str(path), "--check", check]) == 2
    err = capsys.readouterr().err
    assert "characters validation failed: character degrees must be positive" in err


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


def _order_as_list(doc):
    doc["order"] = list(doc["order"].values())


def _action_as_number(doc):
    doc["lattices"]["trivial"] = 1


def _table_entry_as_list(doc):
    doc["tables"]["condensed"] = list(doc["tables"]["condensed"].values())


def _form_value_not_a_number(doc):
    doc["forms"]["standard"][0] = "x"


def _scalar(value, *keys):
    """Set the scalar at the path of keys; JSON floats and booleans hold no
    exact rational (0.1 would load as 3602879701896397/36028797018963968)."""
    def corrupt(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return corrupt


def _structure_not_a_cube(doc):
    doc["order"]["structure"][2][4].pop()


def _structure_as_number(doc):
    doc["order"]["structure"] = 1


def _one_of_wrong_length(doc):
    doc["order"]["one"].append("0")


def _one_outside_the_ring(doc):
    # b_i b_j = 3 b_ij has the unit b_e / 3, which at p = 3 is no element of the order
    order = doc["order"]
    order["structure"] = [[[str(3 * Fraction(c)) for c in cell] for cell in row]
                          for row in order["structure"]]
    order["one"] = [str(Fraction(c) / 3) for c in order["one"]]


@pytest.mark.parametrize("corrupt, message", [
    (_order_as_list, "order validation failed: "),
    (_structure_not_a_cube, "order validation failed: structure constants must form a cube"),
    (_structure_as_number, "order validation failed: structure constants must form a cube"),
    (_one_of_wrong_length, "order validation failed: structure constants must form a cube"),
    (_one_outside_the_ring, "order validation failed: unit has non-ring coordinates"),
    (_action_as_number, "lattice 'trivial' validation failed: "),
    (_table_entry_as_list, "table 'condensed' validation failed: "),
    (_form_value_not_a_number, "form 'standard' validation failed: "),
    (_scalar(1.0, "order", "structure", 0, 0, 0),
     "order validation failed: 1.0 is not an exact scalar"),
    (_scalar(True, "order", "one", 0), "order validation failed: True is not an exact scalar"),
    (_scalar(0.1, "forms", "standard", 1),
     "form 'standard' validation failed: 0.1 is not an exact scalar"),
    (_scalar(1.0, "lattices", "trivial", 0, 0, 0),
     "lattice 'trivial' validation failed: 1.0 is not an exact scalar"),
    (_scalar(True, "characters", "values", 0, 0),
     "characters validation failed: True is not an exact scalar"),
    (_scalar(2.0, "characters", "degrees", 1),
     "characters validation failed: 2.0 is not an exact scalar"),
    (_scalar(1.0, "tables", "condensed", "degrees", 0),
     "table 'condensed' validation failed: 1.0 is not an exact scalar"),
])
def test_malformed_values_are_an_input_error_naming_the_section(s3_doc, tmp_path, capsys,
                                                                corrupt, message):
    _assert_input_error(s3_doc, corrupt, message, tmp_path, capsys)


@pytest.mark.parametrize("keys, section", [
    (("prime",), "prime"),
    (("order", "structure", 0, 0, 0), "order"),
    (("order", "one", 0), "order"),
    (("forms", "standard", 1), "form 'standard'"),
    (("lattices", "trivial", 0, 0, 0), "lattice 'trivial'"),
    (("characters", "values", 0, 0), "characters"),
    (("characters", "degrees", 1), "characters"),
    (("decomposition", "matrix", 0, 0), "decomposition"),
    (("decomposition", "modular_dims", 0), "decomposition"),
    (("tables", "condensed", "degrees", 0), "table 'condensed'"),
    (("tables", "condensed", "modular_dims", 0), "table 'condensed'"),
])
def test_a_zero_denominator_is_an_input_error_naming_the_section(s3_doc, tmp_path, capsys,
                                                                 keys, section):
    # Fraction("1/0") raises ZeroDivisionError, which is no ValueError
    _assert_input_error(s3_doc, _scalar("1/0", *keys),
                        f"input error: {section} validation failed: Fraction(1, 0)\n",
                        tmp_path, capsys)


@pytest.mark.parametrize("lattices", [{"zero": []}, {}], ids=["with-lattice", "without"])
def test_an_order_of_dimension_zero_is_an_input_error(tmp_path, capsys, lattices):
    # before the check, the lattice died with an IndexError and, without
    # it, the checks ran into "not invertible in K⊗A"
    doc = {"prime": 3, "order": {"dim": 0, "structure": [], "one": []},
           "forms": {"standard": []}, "lattices": lattices}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["--bundle", str(path), "--json", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err and not report.exists()
    assert "order validation failed: order must have positive dimension" in err


def _prime_not_integral(doc):
    doc["prime"] = 3.9


def _decomposition_entry_not_integral(doc):
    doc["decomposition"]["matrix"][0][0] = 1.9


def _decomposition_entry_a_bool(doc):
    doc["decomposition"]["matrix"][0][0] = True


def _modular_dim_not_integral(doc):
    doc["decomposition"]["modular_dims"][0] = 1.2


def _decomposition_entry(value):
    def corrupt(doc):
        doc["decomposition"]["matrix"][0][0] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_prime_not_integral, "prime validation failed: 3.9 is not an integer"),
    (_decomposition_entry_not_integral,
     "decomposition validation failed: 1.9 is not an integer"),
    (_decomposition_entry_a_bool, "decomposition validation failed: True is not an integer"),
    (_modular_dim_not_integral, "decomposition validation failed: 1.2 is not an integer"),
    (_decomposition_entry(2**70),
     "decomposition validation failed: degree 1 of character 0 does not match"),
    (_decomposition_entry(-2**70),
     "decomposition validation failed: decomposition entries must be non-negative"),
])
def test_integer_fields_are_not_truncated(s3_doc, tmp_path, capsys, corrupt, message):
    # int() would load 3.9 as 3, 1.9 and true as 1, and 1.2 as 1; an int64
    # array would overflow on 2^70
    _assert_input_error(s3_doc, corrupt, message, tmp_path, capsys)


def _set_expectation(path, value):
    def corrupt(doc):
        node = doc["expectations"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_set_expectation(["psp"], [1]), "expectations: psp must be a JSON object"),
    (_set_expectation(["psp"], {"verdikt": "no"}),
     "expectations: psp has unknown field 'verdikt'"),
    (_set_expectation(["divisibility", "okay"], True),
     "expectations: divisibility has unknown field 'okay'"),
    (_set_expectation(["morita-psp", "m"], [1, 1]),
     "expectations: morita-psp has unknown field 'm'"),
    (_set_expectation(["rational", "morita"], True),
     "expectations: rational has unknown field 'morita'"),
    (_set_expectation(["casimir", "standard"], "6"),
     "expectations: casimir/standard must be a JSON object"),
    (_set_expectation(["casimir", "standard", "value"], "6"),
     "expectations: casimir/standard has unknown field 'value'"),
    (_set_expectation(["tate", "trivial|trivial", "exponent"], [1]),
     "expectations: tate/trivial|trivial has unknown field 'exponent'"),
    (_set_expectation(["heights", "condenced"], [0, 1, 0]),
     "unresolved name: heights expects table 'condenced'"),
    (_set_expectation(["knorr"], ["trivial"]), "expectations: knorr must be a JSON object"),
    (_set_expectation(["knor"], {"trivial": False}), "expectations: unknown check 'knor'"),
    (_set_expectation(["validate"], {"dim": 7}), "expectations: unknown check 'validate'"),
])
def test_malformed_expectations_are_an_input_error_naming_the_key(s3_doc, tmp_path, capsys,
                                                                  corrupt, message):
    # the checks pass over an expectation they do not read, so it would
    # never be compared
    _assert_input_error(s3_doc, corrupt, message, tmp_path, capsys)


def _one_character_name(doc):
    doc["characters"]["names"] = doc["characters"]["names"][:1]


def _two_basis_labels(doc):
    doc["order"]["basis_labels"] = doc["order"]["basis_labels"][:2]


@pytest.mark.parametrize("corrupt, message", [
    (_one_character_name, "characters validation failed: 1 character names for 3 characters"),
    (_two_basis_labels, "order validation failed: 2 basis labels for dimension 6"),
])
def test_names_and_labels_of_the_wrong_length_are_an_input_error(s3_doc, corrupt, message):
    # validate would list one name for three characters
    doc = copy.deepcopy(s3_doc)
    corrupt(doc)
    with pytest.raises(BundleError) as raised:
        bundle_from_dict(doc)
    assert str(raised.value) == message


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


def test_a_folder_as_bundle_is_an_input_error(tmp_path, capsys):
    # before, open() raised IsADirectoryError: a traceback and exit 1
    assert main(["--bundle", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: cannot read bundle: ")
    assert "Is a directory" in err and "Traceback" not in err


def test_a_bundle_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    # before, reading raised UnicodeDecodeError: a traceback and exit 1
    path = tmp_path / "latin-1.json"
    path.write_bytes('{"prime": "3", "name": "Ré"}'.encode("latin-1"))
    assert main(["--bundle", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "input error: cannot read bundle: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("report", [lambda folder: folder / "missing" / "r.json",
                                    lambda folder: folder], ids=["no-such-folder", "a-folder"])
def test_an_unwritable_report_path_is_an_input_error_before_any_check(
        tmp_path, s3_bundle, capsys, monkeypatch, report):
    # before, all twelve checks ran and printed, then open() raised
    path = tmp_path / "s3.json"
    so.save_bundle(s3_bundle, path)
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("a check ran"))
    assert main(["--bundle", str(path), "--json", str(report(tmp_path))]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: cannot write the report to {report(tmp_path)}\n"


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


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_a_bound_below_one_is_a_usage_error(tmp_path, s3_bundle, capsys, bound):
    path = tmp_path / "s3.json"
    so.save_bundle(s3_bundle, path)
    with pytest.raises(SystemExit) as stop:
        main(["--bundle", str(path), "--check", "rational", "--bound", bound])
    assert stop.value.code == 2
    assert f"--bound must be at least 1, not {bound}" in capsys.readouterr().err
    assert main(["--bundle", str(path), "--check", "rational", "--bound", "1"]) == 0


def test_a_bound_too_large_for_rational_is_an_input_error(capsys):
    # one half of the meet in the middle would pass decomp.HALF_CELL_LIMIT
    bundle = str(DATA / "s3xc2-p3-chars.bundle.json")
    assert main(["--bundle", bundle, "--check", "rational", "--bound", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: rational: a search half of 132651000 vectors")
    assert err.endswith(f"exceeds the limit of {decomp.HALF_CELL_LIMIT} cells; lower --bound\n")


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name, check, key, expected, mismatch", [
    # the Casimir element of rank2-m2-p2 is not scalar
    ("rank2-m2-p2", "casimir", ("standard", "scalar"), "2",
     "casimir:standard/scalar expected '2' got None"),
    # the regular lattice is projective, so it has no stable-exponent verdict
    ("s3-p3", "stable-exponent", ("regular",), True,
     "stable-exponent:regular expected True got None"),
])
def test_an_expectation_without_a_reported_value_is_compared_with_none(
        tmp_path, capsys, name, check, key, expected, mismatch):
    doc = json.loads((DATA / f"{name}.bundle.json").read_text())
    node = doc.setdefault("expectations", {}).setdefault(check, {})
    for part in key[:-1]:
        node = node.setdefault(part, {})
    node[key[-1]] = expected
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    assert main(["--bundle", str(path), "--check", "all"]) == 1
    assert f"[FAIL] {check}" in capsys.readouterr().out
    (result,) = run(check, bundle_from_dict(doc)).results
    assert result.verdict == "fail" and result.details["mismatches"] == [mismatch]


def _s4_p3_chars(doc):
    return json.loads((DATA / "s4-p3-chars.bundle.json").read_text())


def _rank2_m2_p2(doc):
    return json.loads((DATA / "rank2-m2-p2.bundle.json").read_text())


def _s3_without_decomposition(doc):
    doc = copy.deepcopy(doc)
    del doc["decomposition"]
    return doc


@pytest.mark.parametrize("source, bound, check, expected, mismatch", [
    # rank2-m2-p2 lacks the scalar property, so psp reports no n
    (_rank2_m2_p2, 5, "psp", {"verdict": "no", "n": 1}, ["psp:n expected 1 got None"]),
    # s4-p3-chars has neither witness within bound 2
    (_s4_p3_chars, 2, "morita-psp", {"witness_m": [1, 1, 3, 3], "n": 1},
     ["morita-psp:witness_m expected [1, 1, 3, 3] got None",
      "morita-psp:n expected 1 got None"]),
    (_s4_p3_chars, 2, "rational", {"verdict": True},
     ["rational:verdict expected True got None"]),
    # a rational witness, but no decomposition matrix to test it against
    (_s3_without_decomposition, 5, "rational", {"verdict": False, "morita_verdict": True},
     ["rational:verdict expected False got None",
      "rational:morita_verdict expected True got None"]),
])
def test_an_expectation_on_a_value_the_check_did_not_compute_is_compared_with_none(
        s3_doc, source, bound, check, expected, mismatch):
    doc = source(s3_doc)
    doc.setdefault("expectations", {})[check] = expected
    (result,) = run(check, bundle_from_dict(doc), RunOptions(bound=bound)).results
    assert result.verdict == "fail" and result.details["mismatches"] == mismatch


def test_casimir_of_a_form_that_is_not_symmetrising_compares_a_scalar_with_none(s3_doc):
    doc = copy.deepcopy(s3_doc)
    doc["forms"]["scaled"] = [str(3 * Fraction(v)) for v in doc["forms"]["standard"]]
    doc["expectations"]["casimir"] = {"scaled": {"scalar": "6"}}
    (result,) = run("casimir", bundle_from_dict(doc)).results
    assert result.details["scaled"] == {"symmetrising": False}
    assert result.details["mismatches"] == ["casimir:scaled/scalar expected '6' got None"]


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


WIDE_PRIME = 1180591620717411303449  # the least prime above 2^70


def _conjugated(A, U, T):
    """U with its action conjugated by the integer matrix T, T^-1 act T."""
    T = linalg.as_matrix(T)
    Ti = linalg.inverse(T)
    N, q = U.integer_action
    return so.make_lattice(A, [Ti @ linalg.from_numerators(m, q) @ T for m in N])


def test_check_all_runs_exactly_at_a_prime_above_2_to_the_70():
    # residues of the wide prime leave int64 in the residue algebra of End(U),
    # the Knorr and socle tests and the action mod p of divisibility; each
    # reaches modp as Python ints, which picks their dtype
    C, sc = group_algebra(cyclic_group_table(3)[0], WIDE_PRIME)
    cyclic = Bundle(prime=WIDE_PRIME, order=C, forms={"standard": sc}, lattices={
        "regular": _conjugated(C, so.regular_lattice(C), [[1, 1, 0], [0, 3, 0], [0, 0, 5]])})
    assert cyclic.lattices["regular"].integer_action[1] == 15
    M, sm = matrix_order(2, WIDE_PRIME)
    matrix = Bundle(prime=WIDE_PRIME, order=M, forms={"trace": sm}, lattices={
        "column": _conjugated(M, matrix_column_lattice(M, 2), [[1, 0], [0, 3]])})
    for b in (cyclic, matrix):
        verdicts = {r.name: r.verdict for r in run("all", b).results}
        assert set(verdicts.values()) == {"pass", "skipped"}
        assert verdicts["knorr"] == verdicts["divisibility"] == "pass"
    (divisibility,) = run("divisibility", matrix).results
    assert divisibility.details["column_residue_simple"] is True


def test_a_violated_divisibility_bound_is_reported_with_the_bounds(monkeypatch):
    # no order reaches a violation, so the scalar n is raised by one: the
    # projective regular lattice of rank 6 then falls short of v(6) >= 2
    real = decomp.degree_divisibility_checks
    monkeypatch.setattr(decomp, "degree_divisibility_checks",
                        lambda p, n, verdicts: real(p, n + 1, verdicts))
    (result,) = run("divisibility", s3_fixture_bundle(3)).results
    assert result.verdict == "fail"
    assert result.details["ok"] is False
    bad = [row for row in result.details["bounds"] if not row[-1]]
    assert bad == [["regular", 6, "projective", 1, 2, False]]
    assert result.details["mismatches"] == [
        "divisibility: violation: [('regular', 6, 'projective', 1, 2, False)]",
        "divisibility:ok expected True got False"]


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


def _dual_numbers_bundle() -> Bundle:
    # O[x]/(x^2) at p = 3 with t(1) = 0 and t(x) = 1: t is symmetrising and
    # its Casimir element 2x is nilpotent; x acts as 0 on the trivial lattice
    A = so.make_order([(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0], 3)
    return Bundle(prime=3, order=A, forms={"t": so.LinearForm([0, 1])},
                  lattices={"trivial": so.make_lattice(A, [[[1]], [[0]]])})


def test_psp_of_a_singular_casimir_element_is_no(tmp_path, capsys):
    # no twist of t has Casimir element p^n 1
    b = _dual_numbers_bundle()
    (psp,) = run("psp", b).results
    assert (psp.verdict, psp.details) == ("pass", {
        "direct": {"verdict": "no", "n": None}, "regular_gram": {"verdict": "inapplicable"}})
    (divisibility,) = run("divisibility", b).results
    assert divisibility.verdict == "skipped"
    assert divisibility.details == {"reason": "order lacks the scalar property"}
    path = tmp_path / "dual-numbers.json"
    so.save_bundle(b, path)
    assert main(["--bundle", str(path), "--check", "psp"]) == 0
    # the Tate pairing still reads z^{-1}, so the whole run is an input error
    assert main(["--bundle", str(path), "--check", "all"]) == 2
    assert capsys.readouterr().err == "input error: not invertible in K⊗A\n"


@pytest.mark.parametrize("check", ["stable-exponent", "constant-value"])
def test_stable_homs_of_a_singular_casimir_element_are_an_input_error(tmp_path, capsys, check):
    # the trivial lattice is not projective and its stable endomorphisms
    # have a free part; z^{-1} is read before that is reported, and names
    # the cause
    path = tmp_path / "dual-numbers.json"
    so.save_bundle(_dual_numbers_bundle(), path)
    assert main(["--bundle", str(path), "--check", check]) == 2
    assert capsys.readouterr().err == "input error: not invertible in K⊗A\n"
