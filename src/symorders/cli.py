"""Batch runner: load a bundle, run named checks, emit reports.

Exit codes: 0 all checks pass or are decided, 1 a check contradicts an
expectation recorded in the bundle (or an internal certification
fails), 2 input error, 3 reserved for a resource bound; no check has
one, since the maximal ideals of ``rational`` are read off the central
characters rather than searched for.

Reports are deterministic: the serialized payload contains only exact
values (scalars as "a/b" strings); elapsed times are kept out of the
canonical JSON so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import decomp, forms, lattices, linalg
from .bundle import Bundle, BundleError, load_bundle
from .padic import scalar_to_str

@dataclass
class RunOptions:
    bound: int = 5


@dataclass
class CheckResult:
    name: str
    verdict: str  # "pass" / "fail" / "skipped"
    details: dict
    elapsed: float = 0.0


@dataclass
class Report:
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.verdict != "fail" for r in self.results)

    def to_dict(self, with_timings: bool = False) -> dict:
        out = {"checks": []}
        for r in self.results:
            entry = {"name": r.name, "verdict": r.verdict, "details": r.details}
            if with_timings:
                entry["elapsed_seconds"] = round(r.elapsed, 6)
            out["checks"].append(entry)
        return out


def _sorted_lattices(b: Bundle):
    return sorted(b.lattices.items())


def _expect(b: Bundle, check: str, key, actual, mismatches: list):
    exp = b.expectations.get(check)
    node = exp
    for part in key:
        if not isinstance(node, dict) or part not in node:
            return
        node = node[part]
    if node != actual:
        mismatches.append(f"{check}:{'/'.join(key)} expected {node!r} got {actual!r}")


def _result(name: str, details: dict, mismatches: list) -> CheckResult:
    """Pass with the details, or fail with the mismatches added to them."""
    if mismatches:
        return CheckResult(name, "fail", {**details, "mismatches": mismatches})
    return CheckResult(name, "pass", details)


def check_validate(b: Bundle, opts: RunOptions) -> CheckResult:
    details = {
        "dim": b.order.dim,
        "forms": sorted(b.forms),
        "lattices": sorted(b.lattices),
        "characters": list(b.character_names),
    }
    return CheckResult("validate", "pass", details)


def check_symmetrising(b: Bundle, opts: RunOptions) -> CheckResult:
    details = {}
    mismatches = []
    for name, s in sorted(b.forms.items()):
        verdict = forms.is_symmetrising(b.order, s)
        details[name] = verdict
        _expect(b, "symmetrising", (name,), verdict, mismatches)
    return _result("symmetrising", details, mismatches)


def check_casimir(b: Bundle, opts: RunOptions) -> CheckResult:
    details = {}
    mismatches = []
    for name, s in sorted(b.forms.items()):
        if not forms.is_symmetrising(b.order, s):
            details[name] = {"symmetrising": False}
            continue
        z = forms.casimir(b.order, s)
        entry = {"coordinates": [scalar_to_str(c) for c in z]}
        scalar = _scalar_of(b, z)
        if scalar is not None:
            entry["scalar"] = scalar_to_str(scalar)
            _expect(b, "casimir", (name, "scalar"), entry["scalar"], mismatches)
        details[name] = entry
    return _result("casimir", details, mismatches)


def _scalar_of(b: Bundle, z):
    """c when z = c 1, else None."""
    coeff = next((c / o for c, o in zip(z, b.order.one) if o != 0), None)
    if coeff is None:
        return None
    return coeff if linalg.vectors_equal(z, b.order.one * coeff) else None


def check_psp(b: Bundle, opts: RunOptions) -> CheckResult:
    mismatches = []
    details = {}
    s = _primary_form(b)
    cert = forms.psp_direct(b.order, s)
    details["direct"] = {
        "verdict": "yes" if cert else "no",
        "n": cert.n if cert else None,
    }
    if cert:
        details["direct"]["witness_form"] = [
            scalar_to_str(v) for v in cert.witness_form.values
        ]
    try:
        rg = forms.psp_regular_gram(b.order)
        details["regular_gram"] = {
            "verdict": "yes" if rg.verdict else "no",
            "n": rg.n,
            "exponents": list(rg.exponents),
        }
        agree = (rg.verdict == (cert is not None)) and (
            cert is None or rg.n == cert.n
        )
        details["algorithms_agree"] = agree
        if not agree:
            mismatches.append("psp: direct and regular-Gram algorithms disagree")
    except forms.RegularGramSingularError:
        details["regular_gram"] = {"verdict": "inapplicable"}
    verdict = "yes" if cert else "no"
    _expect(b, "psp", ("verdict",), verdict, mismatches)
    if cert:
        _expect(b, "psp", ("n",), cert.n, mismatches)
    return _result("psp", details, mismatches)


def _primary_form(b: Bundle):
    if not b.forms:
        raise BundleError("bundle carries no form")
    return b.forms[sorted(b.forms)[0]]


def check_tate(b: Bundle, opts: RunOptions) -> CheckResult:
    s = _primary_form(b)
    details = {}
    mismatches = []
    items = _sorted_lattices(b)
    for uname, U in items:
        for vname, V in items:
            key = f"{uname}|{vname}"
            report = lattices.verify_tate_duality(b.order, s, U, V)
            entry = {
                "perfect": report.perfect,
                "exponents": list(report.exponents_uv),
                "pairing": [[str(r) for r in row] for row in report.pairing],
            }
            details[key] = entry
            _expect(b, "tate", (key, "perfect"), report.perfect, mismatches)
            _expect(b, "tate", (key, "exponents"), entry["exponents"], mismatches)
    return _result("tate", details, mismatches)


def check_knorr(b: Bundle, opts: RunOptions) -> CheckResult:
    details = {}
    mismatches = []
    for name, U in _sorted_lattices(b):
        verdict = lattices.knorr_check(b.order, U)
        details[name] = {
            "verdict": bool(verdict),
            "rank": U.rank,
            "failure": verdict.failure,
        }
        _expect(b, "knorr", (name,), bool(verdict), mismatches)
    return _result("knorr", details, mismatches)


def check_stable_exponent(b: Bundle, opts: RunOptions) -> CheckResult:
    s = _primary_form(b)
    details = {}
    mismatches = []
    for name, U in _sorted_lattices(b):
        a = lattices.exponent(b.order, s, U)
        if a == 0:
            details[name] = {"verdict": "projective - property undefined"}
            continue
        verdict = lattices.stable_exponent_check(b.order, s, U)
        details[name] = {"verdict": bool(verdict), "exponent": a}
        _expect(b, "stable-exponent", (name,), bool(verdict), mismatches)
    return _result("stable-exponent", details, mismatches)


def check_constant_value(b: Bundle, opts: RunOptions) -> CheckResult:
    s = _primary_form(b)
    details = {}
    mismatches = []
    for name, U in _sorted_lattices(b):
        ok = lattices.constant_value_check(b.order, s, U)
        details[name] = ok
        _expect(b, "constant-value", (name,), ok, mismatches)
    return _result("constant-value", details, mismatches)


def check_morita_psp(b: Bundle, opts: RunOptions) -> CheckResult:
    if b.character_table is None or b.decomposition is None:
        return CheckResult("morita-psp", "skipped", {"reason": "no decomposition data"})
    details = {}
    mismatches = []
    witness = decomp.morita_psp_search(
        b.order, b.character_table, b.decomposition, bound=opts.bound
    )
    if witness is None:
        details["witness"] = None
        details["statement"] = f"none within bound {opts.bound}"
    else:
        details["witness"] = {
            "m": list(witness.m),
            "n": witness.n,
            "a": list(witness.a),
            "form": [scalar_to_str(v) for v in witness.form.values],
        }
        _expect(b, "morita-psp", ("witness_m",), list(witness.m), mismatches)
        _expect(b, "morita-psp", ("n",), witness.n, mismatches)
    return _result("morita-psp", details, mismatches)


def check_rational(b: Bundle, opts: RunOptions) -> CheckResult:
    if b.character_table is None:
        return CheckResult("rational", "skipped", {"reason": "no character data"})
    details = {}
    mismatches = []
    centre = decomp.rational_centre(b.order, b.character_table)
    details["rational_centre_rank"] = centre.rank
    search = decomp.rational_symmetry_search(
        b.order, b.character_table, bound=opts.bound
    )
    if search.witness_sigma is None:
        details["rational_symmetry"] = f"no witness within bound {opts.bound}"
    else:
        details["rational_symmetry"] = {
            "sigma": [scalar_to_str(c) for c in search.witness_sigma],
            "n": search.witness_n,
            "congruences": [str(c) for c in search.congruences],
        }
        if b.decomposition is not None:
            crit = decomp.rational_intersection_criterion(
                b.order,
                b.character_table,
                b.decomposition,
                sigma_tilde=search.witness_sigma,
            )
            details["intersection_criterion"] = {
                "verdict": crit.verdict,
                "morita_verdict": crit.morita_verdict,
                "maximal_ideals": crit.maximal_ideal_count,
            }
            _expect(b, "rational", ("verdict",), crit.verdict, mismatches)
            _expect(
                b, "rational", ("morita_verdict",), crit.morita_verdict, mismatches
            )
    return _result("rational", details, mismatches)


def check_heights(b: Bundle, opts: RunOptions) -> CheckResult:
    if b.character_table is None:
        return CheckResult("heights", "skipped", {"reason": "no character data"})
    details = {}
    mismatches = []
    degrees = b.character_table.degrees
    details["degrees"] = [
        decomp.height(d, degrees, b.prime) for d in degrees
    ]
    for name, (tdeg, _dims) in sorted(b.extra_tables.items()):
        hs = [decomp.height(d, tdeg, b.prime) for d in tdeg]
        details[name] = hs
        _expect(b, "heights", (name,), hs, mismatches)
    details["lattice_ranks"] = {
        name: decomp.height(U.rank, degrees, b.prime)
        for name, U in _sorted_lattices(b)
    }
    return _result("heights", details, mismatches)


def check_divisibility(b: Bundle, opts: RunOptions) -> CheckResult:
    s = _primary_form(b)
    cert = forms.psp_direct(b.order, s)
    if cert is None:
        return CheckResult(
            "divisibility", "skipped", {"reason": "order lacks the scalar property"}
        )
    details = {"n": cert.n}
    mismatches = []
    verdicts = []
    exponents = []
    for name, U in _sorted_lattices(b):
        knorr = bool(lattices.knorr_check(b.order, U))
        a = lattices.exponent(b.order, s, U)
        exponents.append(a)
        projective = a == 0
        verdicts.append((name, U.rank, knorr, projective))
        if projective and knorr:
            simple = lattices.knorr_projective_check(b.order, U)
            details[f"{name}_residue_simple"] = simple
            if not simple:
                mismatches.append(f"divisibility: {name} projective Knorr, residue not simple")
    try:
        report = decomp.degree_divisibility_checks(b.prime, cert.n, verdicts)
        details["bounds"] = [list(e) for e in report.entries]
        details["ok"] = report.ok
    except ValueError as exc:
        details["ok"] = False
        mismatches.append(str(exc))
    if b.character_table is not None:
        md = decomp.min_degree_check(
            b.character_table.degrees, b.prime, cert.n, exponents
        )
        details["min_degree"] = {
            "a0": md.a0,
            "needed_valuation": md.needed_valuation,
            "status": md.status,
        }
    _expect(b, "divisibility", ("ok",), details.get("ok"), mismatches)
    return _result("divisibility", details, mismatches)


CHECKS = {
    "validate": check_validate,
    "symmetrising": check_symmetrising,
    "casimir": check_casimir,
    "psp": check_psp,
    "tate": check_tate,
    "knorr": check_knorr,
    "stable-exponent": check_stable_exponent,
    "constant-value": check_constant_value,
    "morita-psp": check_morita_psp,
    "rational": check_rational,
    "heights": check_heights,
    "divisibility": check_divisibility,
}
CHECK_NAMES = tuple(CHECKS)


def run(command: str, bundle: Bundle, options: RunOptions | None = None) -> Report:
    """Run one named check, or all of them in the fixed registry order."""
    options = options or RunOptions()
    if command == "all":
        names = list(CHECK_NAMES)
    elif command in CHECKS:
        names = [command]
    else:
        raise ValueError(f"unknown check {command!r}; choose from {CHECK_NAMES + ('all',)}")
    report = Report()
    for name in names:
        start = time.perf_counter()
        result = CHECKS[name](bundle, options)
        result.elapsed = time.perf_counter() - start
        report.results.append(result)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="symorders",
        description="Run exact checks on a symmetric-order bundle.",
    )
    parser.add_argument("--bundle", required=True, help="path to a bundle JSON file")
    parser.add_argument("--check", default="all", help="check name or 'all'")
    defaults = RunOptions()
    parser.add_argument("--bound", type=int, default=defaults.bound,
                        help="box bound for coefficient searches")
    parser.add_argument("--json", help="write the deterministic report here")
    args = parser.parse_args(argv)

    try:
        bundle = load_bundle(args.bundle)
    except BundleError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    options = RunOptions(bound=args.bound)
    try:
        report = run(args.check, bundle, options)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    for r in report.results:
        print(f"[{r.verdict.upper():4s}] {r.name}")
        for key, value in r.details.items():
            print(f"    {key}: {value}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
