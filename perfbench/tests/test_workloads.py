import json
from pathlib import Path

import pytest

import run
import verdicts
import workloads
from symorders import bundle as bundle_mod
from symorders import cli
from symorders.builders import s3_fixture_bundle
from symorders.bundle import bundle_from_dict
from worker import Ledger, run_pass

BENCH = Path(__file__).resolve().parent.parent


def test_expected_covers_every_canonical_bundle():
    expected = workloads.load_expected()
    assert sorted(expected) == sorted(workloads.WORKLOADS)
    for workload, build in workloads.CANONICAL.items():
        assert sorted(expected[workload]) == sorted(name for name, _ in build())


def test_recorded_s3_expectations_extend_the_fixture():
    fixture = s3_fixture_bundle(3).expectations
    recorded = workloads.load_expected()["s3-fixture"]["s3-p3"]
    for check, expected in fixture.items():
        for key, value in expected.items():
            assert recorded[check][key] == value, (check, key)


def test_generation_is_seeded():
    a = workloads.generate("small-survey", 3)
    assert a == workloads.generate("small-survey", 3)
    assert a != workloads.generate("small-survey", 4)
    canonical = dict(workloads.CANONICAL["small-survey"]())
    for name, doc in workloads.generate("small-survey", 0):
        doc = dict(doc)
        doc.pop("expectations")
        assert doc == canonical[name]


def test_survey_size_and_dense_bases():
    docs = workloads.generate("small-survey", 1)
    assert 90 <= len(docs) <= 110
    assert len({name for name, _ in docs}) == len(docs)
    moved = dict(docs)["m2-p5"]["order"]["structure"]
    canonical = dict(workloads.CANONICAL["small-survey"]())["m2-p5"]["order"]["structure"]
    nonzero = lambda s: sum(x != "0" for plane in s for row in plane for x in row)
    assert nonzero(moved) > nonzero(canonical)


@pytest.mark.parametrize("workload", ["s3-fixture", "small-survey", "enum-rank2"])
def test_generated_bundles_validate(workload):
    for seed in (0, 1):
        for name, doc in workloads.generate(workload, seed):
            bundle_from_dict(doc)


def _run_once(workload, seed, tmp_path):
    docs = workloads.generate(workload, seed)
    paths = workloads.write_bundles(docs, tmp_path / f"{workload}-{seed}")
    expected = {name: doc["expectations"] for name, doc in docs}
    ledger = Ledger(cli.CHECK_NAMES, cli.CHECKS, expected)
    bundles = [(name, str(p)) for (name, _), p in zip(docs, paths)]
    run_pass(bundle_mod, cli, bundles, ledger)
    return ledger


@pytest.fixture(scope="module")
def seed_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bundles")
    return {
        (w, seed): _run_once(w, seed, tmp)
        for w in workloads.WORKLOADS
        for seed in (0, 1)
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_zero_and_one_fail_nothing(seed_runs, workload):
    for seed in (0, 1):
        summary = seed_runs[(workload, seed)].summary()
        assert summary["attempted"] > 0
        assert summary["failed"] == 0, summary


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_basis_independent_verdicts_agree_across_seeds(seed_runs, workload):
    zero, one = seed_runs[(workload, 0)], seed_runs[(workload, 1)]
    assert sorted(zero.reference) == sorted(one.reference)
    for name, text in zero.reference.items():
        a = verdicts.expectations_from_report(json.loads(text))
        b = verdicts.expectations_from_report(json.loads(one.reference[name]))
        assert a == b, name


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (100.0 / 11, 0)
    assert run.tail(list(range(100))) == (90.0, 89)


def test_benchmark_file_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(run.CHECK_NAMES) == tuple(cli.CHECK_NAMES)
