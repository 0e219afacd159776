"""Benchmark worker: one single-threaded process, closed loop.

Usage: python3 perfbench/worker.py CONFIG.json RESULT.json

CONFIG holds the bundle paths with their names and expectations, the
measuring time and whether to trace.  A pass loads one bundle at a time
with ``load_bundle`` and runs ``cli.run("all", ...)`` on it before the
next bundle is loaded.  Passes repeat until another one would overrun
the measuring time (there is always at least one).  With tracing on,
one traced pass and one pass counting ``Fraction`` constructions follow
the untraced passes.

Every (bundle, check) pair of every pass is attempted once.  A pair
fails when its verdict is "fail", when it raises or never runs because
an earlier check raised, when its canonical report differs from the
bundle's first pass, or when its basis-independent verdicts differ from
the recorded expectations.
"""

from __future__ import annotations

import fractions
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import verdicts

MIN_SETUP_SAMPLES = 3
PROBE_INTERVAL_S = 0.25
clock = time.perf_counter


def calibration_sample() -> float:
    """Seconds taken by a fixed piece of exact arithmetic of the kind the
    library spends its time on (Fraction object arrays through numpy).

    The garbage collector is off while it runs, so the sample does not
    depend on how many objects the library holds at the time.
    """
    import numpy as np

    v = np.array([Fraction(i, 7) for i in range(1, 17)], dtype=object)
    m = np.array([[Fraction(i - j, i + j + 1) for j in range(16)] for i in range(16)],
                 dtype=object)
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        for _ in range(6):
            v = m.dot(v)
            v = v / v[0]
        return clock() - start
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Calibration samples taken every PROBE_INTERVAL_S from a timer signal.

    A shared virtual machine can change speed by a third or more for ten
    seconds and longer, also in the middle of one long ``cli.run`` call.  The
    signal handler runs in the main thread between the library's own
    bytecodes, so the samples cover every call evenly in time; the time
    they take is kept in ``stolen`` and left out of ``clock()``.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def clock(self) -> float:
        """perf_counter without the time spent taking samples."""
        return clock() - self.stolen

    def _sample(self, signum, frame) -> None:
        start = clock()
        self.samples.append(calibration_sample())
        self.stolen += clock() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def trimmed_mean(xs: list) -> float:
    """Mean without the highest and lowest tenth: the machine's average
    speed over the samples' span, robust to a sample that was interrupted."""
    xs = sorted(xs)
    cut = len(xs) // 10
    return statistics.mean(xs[cut:len(xs) - cut])


class Ledger:
    """Attempted and failed (bundle, check) pairs across passes."""

    def __init__(self, check_names, check_functions, expected):
        self.check_names = tuple(check_names)
        self.by_function = {fn.__name__: name for name, fn in check_functions.items()}
        self.expected = expected
        self.reference = {}  # bundle name -> canonical report text
        self.reference_checks = {}  # bundle name -> {check: canonical entry}
        self.attempted = 0
        self.reasons = Counter()
        self.failed_pairs = Counter()  # (bundle, check) -> failed passes

    def _fail(self, bundle: str, check: str, reason: str) -> None:
        self.reasons[reason] += 1
        self.failed_pairs[(bundle, check)] += 1

    def record(self, bundle: str, report, error) -> None:
        self.attempted += len(self.check_names)
        if error is not None:
            raised = self._raising_check(error)
            start = self.check_names.index(raised) if raised else 0
            for i, check in enumerate(self.check_names[start:]):
                self._fail(bundle, check, "raised" if i == 0 and raised else "not-run")
            return
        doc = report.to_dict()
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        entries = {e["name"]: json.dumps(e, sort_keys=True) for e in doc["checks"]}
        verdict_of = {e["name"]: e["verdict"] for e in doc["checks"]}
        if bundle not in self.reference:
            self.reference[bundle] = text
            self.reference_checks[bundle] = entries
        reference = self.reference_checks[bundle]
        mismatched = verdicts.mismatched_checks(doc, self.expected[bundle])
        for check in self.check_names:
            if check not in entries:
                self._fail(bundle, check, "not-run")
            elif verdict_of[check] == "fail":
                self._fail(bundle, check, "fail")
            elif entries[check] != reference.get(check):
                self._fail(bundle, check, "differs")
            elif check in mismatched:
                self._fail(bundle, check, "expectation")

    def _raising_check(self, error):
        for frame, _ in reversed(list(traceback.walk_tb(error.__traceback__))):
            name = self.by_function.get(frame.f_code.co_name)
            if name is not None:
                return name
        return None

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": sum(self.reasons.values()),
            "reasons": dict(self.reasons),
            "failed_pairs": sorted(f"{b}:{c}" for b, c in self.failed_pairs)[:20],
            "report_sha256": {
                name: hashlib.sha256(text.encode()).hexdigest()
                for name, text in sorted(self.reference.items())
            },
        }


def run_pass(bundle_mod, cli, bundles, ledger, probe=None, fraction_counter=None) -> dict:
    """Load each bundle in turn and run every check on it.

    With a probe, times leave out the probe's own samples, and
    ``calibration_s`` gives the machine's speed over the pass.
    """
    gc.collect()
    tick = probe.clock if probe else clock
    load_s = check_s = 0.0
    per_check = Counter()
    first_sample = len(probe.samples) if probe else 0
    started = tick()
    for name, path in bundles:
        t = tick()
        b = bundle_mod.load_bundle(path)
        load_s += tick() - t
        error = report = None
        if fraction_counter is not None:
            fraction_counter.start()
        t = tick()
        try:
            report = cli.run("all", b)
        except Exception as exc:  # a raising check is recorded as a failed pair
            error = exc
        check_s += tick() - t
        if fraction_counter is not None:
            fraction_counter.stop()
        if report is not None:
            for r in report.results:
                per_check[r.name] += r.elapsed
        ledger.record(name, report, error)
        del b, report
    out = {
        "load_s": load_s,
        "check_s": check_s,
        "wall_s": tick() - started,
        "checks": dict(per_check),
    }
    if probe is not None:
        out["calibration_s"] = trimmed_mean(probe.samples[first_sample:] or [calibration_sample()])
    return out


class FractionCounter:
    """Counts ``Fraction`` constructions between start() and stop()."""

    def __init__(self):
        self.count = 0
        self._original = vars(fractions.Fraction)["__new__"]

    def start(self) -> None:
        new = fractions.Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            self.count += 1
            return new(cls, *args, **kwargs)

        fractions.Fraction.__new__ = staticmethod(counting_new)

    def stop(self) -> None:
        fractions.Fraction.__new__ = self._original


def main(config: dict, result_path: str) -> None:
    t = clock()
    import symorders  # noqa: F401  (timed: part of set-up)

    import_s = clock() - t
    from symorders import bundle as bundle_mod
    from symorders import cli

    if not Path(symorders.__file__).resolve().is_relative_to(Path(config["src"]).resolve()):
        raise SystemExit(f"symorders imported from {symorders.__file__}, not the checkout")
    bundles = [(b["name"], b["path"]) for b in config["bundles"]]
    expected = {b["name"]: b["expectations"] for b in config["bundles"]}
    ledger = Ledger(cli.CHECK_NAMES, cli.CHECKS, expected)

    passes = []
    start = clock()
    with SpeedProbe() as probe:
        while True:
            passes.append(run_pass(bundle_mod, cli, bundles, ledger, probe))
            typical = statistics.median(p["wall_s"] for p in passes)
            if clock() - start + typical > config["seconds"]:
                break
        load_samples = [p["load_s"] for p in passes]
        while len(load_samples) < MIN_SETUP_SAMPLES:
            gc.collect()
            t = probe.clock()
            for _, path in bundles:
                bundle_mod.load_bundle(path)
            load_samples.append(probe.clock() - t)
        calibration_s = trimmed_mean(probe.samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "import_s": import_s,
        "passes": passes,
        "load_samples": load_samples,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if config["trace"]:
        from tracer import Tracer

        with SpeedProbe() as probe, Tracer(clock=probe.clock) as tracer:
            traced = run_pass(bundle_mod, cli, bundles, ledger, probe)
        tracer.write_spans(config["spans_path"])
        counter = FractionCounter()
        run_pass(bundle_mod, cli, bundles, ledger, fraction_counter=counter)
        result["trace"] = {
            "pass": traced,
            "metrics": tracer.metrics(),
            "dual_basis_forms": tracer.distinct_keys("forms.dual_basis"),
            "hom_lattice_triples": tracer.distinct_keys("lattices.hom_lattice"),
            "spans": len(tracer.spans),
            "fraction_new": counter.count,
        }
    result.update(ledger.summary())
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        config = json.load(fh)
    sys.path.insert(0, config["src"])
    main(config, sys.argv[2])
