import fractions
import signal
import time
from fractions import Fraction

import pytest

import verdicts
from symorders import cli
from symorders.bundle import bundle_from_dict
from symorders.cli import RunOptions
from worker import FractionCounter, Ledger, SpeedProbe, trimmed_mean


def test_ledger_attributes_a_raising_check(s3_doc):
    b = bundle_from_dict(s3_doc)
    ledger = Ledger(cli.CHECK_NAMES, cli.CHECKS, {"s3": {}})
    with pytest.raises(Exception) as info:
        cli.run("all", b, RunOptions(radical_dim=1))
    ledger.record("s3", None, info.value)
    summary = ledger.summary()
    assert summary["reasons"] == {"raised": 1, "not-run": 6}
    assert "s3:knorr" in summary["failed_pairs"]


def test_ledger_flags_differences_and_wrong_verdicts(s3_doc):
    b = bundle_from_dict(s3_doc)
    report = cli.run("psp", b)
    expected = verdicts.expectations_from_report(report.to_dict())
    ledger = Ledger(("psp",), {"psp": cli.check_psp}, {"s3": expected})
    ledger.record("s3", report, None)
    assert ledger.summary()["failed"] == 0
    report.results[0].details["direct"]["n"] = 2
    ledger.record("s3", report, None)
    assert ledger.summary()["reasons"] == {"differs": 1}
    wrong = Ledger(("psp",), {"psp": cli.check_psp}, {"s3": {"psp": {"verdict": "no"}}})
    wrong.record("s3", cli.run("psp", b), None)
    assert wrong.summary()["reasons"] == {"expectation": 1}


def test_fraction_counter_counts_and_restores():
    before = vars(fractions.Fraction)["__new__"]
    counter = FractionCounter()
    counter.start()
    Fraction(1, 2) + Fraction(1, 3)
    counter.stop()
    assert counter.count >= 3
    assert vars(fractions.Fraction)["__new__"] is before
    assert Fraction(2, 4) == Fraction(1, 2)


def test_speed_probe_samples_during_long_calls_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        total = Fraction(0)
        while time.perf_counter() - start < 1.2:
            total += Fraction(1, 3)
    assert len(probe.samples) >= 3
    assert 0 < probe.stolen < 1.2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_trimmed_mean_drops_the_extreme_tenths():
    assert trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    assert trimmed_mean([2.0, 4.0]) == 3.0
