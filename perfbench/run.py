"""Benchmark of the symorders batch runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed picks the basis every bundle of the workload is written on
(seed 0 keeps the canonical basis).  The bundles are saved as files
under ``.perfbench/`` and handed to one single-threaded worker process
(``worker.py``), which loads one bundle at a time and runs every check on
it, in passes, for about S seconds.  The run prints a table of every
metric with its unit and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.

``check_all_s`` and ``setup_s`` are scaled to a reference machine speed:
the worker samples a fixed piece of exact arithmetic every quarter second
(``worker.SpeedProbe``) and each time is multiplied by
REFERENCE_CALIBRATION_S over the samples' mean.  On a shared two-core
virtual machine (Python 3.11, numpy 2.4) the speed changed by up to a half
for ten seconds and more, which moved unscaled medians of whole runs by a
third; the unscaled check time is printed in the table.

``python3 perfbench/run.py --write-expected`` records the expected
basis-independent verdicts again from the canonical bundles.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 170
# check_all_s and setup_s are given in seconds of a machine on which the
# worker's calibration sample takes this long, so that the machine's own
# changes of speed cancel out (see worker.SpeedProbe)
REFERENCE_CALIBRATION_S = 0.008

CHECK_NAMES = (
    "validate", "symmetrising", "casimir", "psp", "tate", "knorr",
    "stable-exponent", "constant-value", "morita-psp", "rational", "heights",
    "divisibility",
)

END_TO_END = (
    ("check_all_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "fraction"),
)


def _layer(name: str, *fields: str) -> list:
    units = {"calls": "count", "s": "s", "self_s": "s"}
    return [(f"{name}.{f}", units[f]) for f in fields]


PER_LAYER = (
    [(f"cli.{check}.s", "s") for check in CHECK_NAMES]
    + _layer("cli.run", "self_s")
    + _layer("bundle.load_bundle", "s") + [("bundle.bytes", "bytes")]
    + _layer("orders.make_order", "calls", "s")
    + _layer("lattices.make_lattice", "s")
    + _layer("orders.Order.multiply", "calls", "self_s")
    + _layer("forms.dual_basis", "calls", "self_s")
    + [("forms.dual_basis.calls_per_form", "calls/form")]
    + _layer("forms.casimir", "calls", "self_s")
    + _layer("forms.psp_direct", "s")
    + _layer("forms.psp_regular_gram", "s")
    + _layer("linalg.smith_normal_form", "calls", "self_s")
    + [("linalg.smith_normal_form.max_cells", "cells")]
    + _layer("linalg.integral_kernel", "calls", "s", "self_s")
    + _layer("linalg.solve_exact", "calls", "s", "self_s")
    + _layer("linalg.inverse", "self_s")
    + _layer("linalg.det", "self_s")
    + _layer("lattices.hom_lattice", "calls", "self_s")
    + [("lattices.hom_lattice.calls_per_triple", "calls/triple")]
    + _layer("lattices.projective_hom_lattice", "calls", "s", "self_s")
    + _layer("lattices.stable_hom", "calls", "s", "self_s")
    + _layer("lattices.residue_endo_analysis", "self_s")
    + [("lattices.verify_tate_duality.classes", "count"),
       ("lattices.verify_tate_duality.max_classes", "count")]
    + _layer("lattices.verify_tate_duality", "self_s")
    + [("lattices.stable_socle_property.classes", "count"),
       ("lattices.stable_socle_property.max_classes", "count")]
    + _layer("lattices.stable_socle_property", "self_s")
    + [("lattices.knorr_projective_check.vectors", "count"),
       ("lattices.knorr_projective_check.max_vectors", "count")]
    + _layer("lattices.knorr_projective_check", "self_s")
    + _layer("modp.FpAlgebra.radical", "calls")
    + [("modp.FpAlgebra.radical.elements", "count"),
       ("modp.FpAlgebra.radical.max_dim", "count")]
    + _layer("modp.FpAlgebra.radical", "self_s")
    + _layer("decomp.morita_psp_search", "s")
    + _layer("decomp.rational_symmetry_search", "s")
    + _layer("decomp.rational_centre", "s")
    + _layer("decomp.rational_intersection_criterion", "s")
    + [("padic.fraction_new", "count"),
       ("trace.overhead_frac", "fraction"),
       ("trace.spans", "count"),
       ("trace.span_errors", "count")]
)


def _bounds() -> dict:
    """The library's default limit for each enumeration count."""
    from symorders import cli, lattices

    def default(fn, param):
        found = inspect.signature(fn).parameters.get(param)
        return None if found is None else found.default

    options = cli.RunOptions()
    return {
        "lattices.verify_tate_duality.max_classes":
            default(lattices.verify_tate_duality, "enumeration_bound"),
        "lattices.stable_socle_property.max_classes":
            default(lattices.stable_exponent_check, "socle_bound"),
        "lattices.knorr_projective_check.max_vectors": getattr(options, "spin_limit", None),
        "modp.FpAlgebra.radical.max_dim": getattr(options, "radical_dim", None),
    }


# -- statistics ------------------------------------------------------------


def tail(samples: list):
    """Highest percentile with at least ten samples above it, as
    (percentile, value), or None with fewer than eleven samples."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def end_to_end_metrics(result: dict, import_samples: list) -> tuple:
    """({metric: value}, {metric: samples}) from an untraced worker result."""
    checks = [
        p["check_s"] * REFERENCE_CALIBRATION_S / p["calibration_s"] for p in result["passes"]
    ]
    scale = REFERENCE_CALIBRATION_S / result["calibration_s"]
    imports = import_samples + [result["import_s"]]
    setups = [(statistics.median(imports) + x) * scale for x in result["load_samples"]]
    values = {
        "check_all_s": statistics.median(checks),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_ok_frac": 1.0 - result["failed"] / result["attempted"],
    }
    return values, {"check_all_s": checks, "setup_s": setups}


def per_layer_metrics(result: dict) -> dict:
    trace = result["trace"]
    found = dict(trace["metrics"])
    for check in CHECK_NAMES:
        found[f"cli.{check}.s"] = statistics.median(
            p["checks"].get(check, 0.0) for p in result["passes"])
    found["bundle.bytes"] = found.get("bundle.load_bundle.bytes", 0)
    calls = found["forms.dual_basis.calls"]
    found["forms.dual_basis.calls_per_form"] = calls / max(trace["dual_basis_forms"], 1)
    calls = found["lattices.hom_lattice.calls"]
    found["lattices.hom_lattice.calls_per_triple"] = calls / max(trace["hom_lattice_triples"], 1)

    def scaled_total(p):
        return (p["load_s"] + p["check_s"]) / p["calibration_s"]

    untraced = statistics.median(scaled_total(p) for p in result["passes"])
    traced = scaled_total(trace["pass"])
    found["padic.fraction_new"] = trace["fraction_new"]
    found["trace.overhead_frac"] = traced / untraced - 1.0
    found["trace.spans"] = trace["spans"]
    found["trace.span_errors"] = sum(v for k, v in trace["metrics"].items() if k.endswith(".errors"))
    return {name: found.get(name, 0) for name, _ in PER_LAYER}


# -- running ---------------------------------------------------------------


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_import(src: Path) -> float:
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import symorders; print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code, str(src)], env=worker_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def run_worker(config: dict, workdir: Path) -> dict:
    config_path = workdir / "config.json"
    result_path = workdir / "result.json"
    config_path.write_text(json.dumps(config))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(config_path), str(result_path)],
        env=worker_env(), timeout=WORKER_TIMEOUT_S, check=True,
    )
    return json.loads(result_path.read_text())


def print_table(workload, seed, result, values, samples, units, bounds) -> None:
    passes = result["passes"]
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  "
          f"pairs {result['attempted']}  failed {result['failed']} {result['reasons']}")
    print(f"  unscaled check time {statistics.median(p['check_s'] for p in passes):.6g} s, "
          f"calibration {statistics.median(p['calibration_s'] for p in passes):.6g} s "
          f"(reference {REFERENCE_CALIBRATION_S} s)")
    for name, unit in units:
        value = values[name]
        line = f"  {name:48s} {value:>14.6g} {unit}"
        if name in samples:
            xs = samples[name]
            t = tail(xs)
            line += f"   median of {len(xs)}; " + (
                f"p{t[0]:.0f} {t[1]:.6g}" if t else "fewer than 11 samples for a tail")
        if name in bounds:
            line += f"   (bound {bounds[name]})"
        print(line)
    if result["failed_pairs"]:
        print("  failed pairs:", ", ".join(result["failed_pairs"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "symorders" / "__init__.py").is_file():
        print(f"no symorders sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.write_expected:
        workloads.write_expected()
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workdir = root / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        docs = workloads.generate(args.workload, args.seed)
        paths = workloads.write_bundles(docs, workdir / "bundles")
        import_samples = [time_import(src) for _ in range(IMPORT_SAMPLES)]
        config = {
            "src": str(src),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans_path": str(root / ".perfbench" / f"spans-{args.workload}-s{args.seed}.jsonl"),
            "bundles": [
                {"name": name, "path": str(path), "expectations": doc["expectations"]}
                for (name, doc), path in zip(docs, paths)
            ],
        }
        result = run_worker(config, workdir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, samples = end_to_end_metrics(result, import_samples)
    if args.trace:
        values, units, bounds = per_layer_metrics(result), PER_LAYER, _bounds()
    else:
        values, units, bounds = e2e, END_TO_END, {}
    print_table(args.workload, args.seed, result, values, samples, units, bounds)
    if args.trace:
        errors = {k[:-len(".errors")]: v for k, v in result["trace"]["metrics"].items()
                  if k.endswith(".errors") and v}
        if errors:
            print("  spans that raised, by layer:", errors)
    unit_of = dict(units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit_of[name]} for name, _ in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
