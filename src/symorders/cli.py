"""Batch runner: load a bundle, run named checks, emit reports.

Exit codes: 0 all checks pass or are decided, 1 a check contradicts an
expectation recorded in the bundle (or an internal certification
fails), 2 input error, a ``--bound`` too large for ``rational``
included, 3 reserved for a resource bound; no check has one, since the
maximal ideals of ``rational`` are read off the central characters
rather than searched for.

Each check returns its details and records mismatches with the
bundle's expectations as it goes; ``run`` alone turns that outcome into
the check's verdict (pass, fail or skipped) and its ``CheckResult``.

Reports are deterministic: the serialized payload contains only exact
values (scalars as "a/b" strings); elapsed times are kept out of the
canonical JSON so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
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


class Skipped(Exception):
    """Raised by a check that does not apply to the bundle; the message
    is the reason reported."""


class Expect:
    """The bundle's expectations for one check, compared as the check
    reports its details.  ``mismatches`` keeps them in the order found;
    a check appends a free-text mismatch to it directly."""

    def __init__(self, check: str, expected):
        self.check = check
        self.expected = expected
        self.mismatches = []

    def __call__(self, key: tuple, actual):
        """Record a mismatch when an expectation is present at ``key``
        (JSON null included) and differs from ``actual``; return ``actual``."""
        node = self.expected
        for part in key:
            if not isinstance(node, dict) or part not in node:
                return actual
            node = node[part]
        if node != actual:
            self.mismatches.append(
                f"{self.check}:{'/'.join(key)} expected {node!r} got {actual!r}")
        return actual


def check_validate(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    table = b.character_table
    return {
        "dim": b.order.dim,
        "forms": sorted(b.forms),
        "lattices": sorted(b.lattices),
        "characters": list(table.names) if table is not None else [],
    }


def check_symmetrising(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    return {name: expect((name,), forms.is_symmetrising(b.order, s))
            for name, s in sorted(b.forms.items())}


def check_casimir(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    details = {}
    for name, s in sorted(b.forms.items()):
        if not forms.is_symmetrising(b.order, s):
            details[name] = {"symmetrising": False}
            expect((name, "scalar"), None)
            continue
        z = forms.casimir(b.order, s)
        details[name] = entry = {"coordinates": [scalar_to_str(c) for c in z]}
        scalar = _scalar_of(b, z)
        if scalar is None:
            expect((name, "scalar"), None)
        else:
            entry["scalar"] = expect((name, "scalar"), scalar_to_str(scalar))
    return details


def _scalar_of(b: Bundle, z):
    """c when z = c 1, else None."""
    coeff = next((c / o for c, o in zip(z, b.order.one) if o != 0), None)
    if coeff is None:
        return None
    return coeff if linalg.vectors_equal(z, b.order.one * coeff) else None


def check_psp(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    s = _primary_form(b)
    cert = forms.psp_direct(b.order, s)
    verdict = "yes" if cert else "no"
    details = {"direct": {"verdict": verdict, "n": cert.n if cert else None}}
    if cert:
        details["direct"]["witness_form"] = [
            scalar_to_str(v) for v in cert.witness_form.values
        ]
    try:
        rg = forms.psp_regular_gram(b.order)
    except forms.RegularGramSingularError:
        details["regular_gram"] = {"verdict": "inapplicable"}
    else:
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
            expect.mismatches.append("psp: direct and regular-Gram algorithms disagree")
    expect(("verdict",), verdict)
    expect(("n",), cert.n if cert else None)
    return details


def _primary_form(b: Bundle):
    """The bundle's first form by name; a check that reads it is skipped
    when the bundle has no form or that one is not symmetrising."""
    if not b.forms:
        raise Skipped("bundle carries no form")
    name = sorted(b.forms)[0]
    if not forms.is_symmetrising(b.order, b.forms[name]):
        raise Skipped(f"primary form {name!r} not symmetrising")
    return b.forms[name]


def check_tate(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    s = _primary_form(b)
    details = {}
    items = sorted(b.lattices.items())
    for uname, U in items:
        for vname, V in items:
            key = f"{uname}|{vname}"
            report = lattices.verify_tate_duality(b.order, s, U, V)  # raises unless perfect
            details[key] = {
                "perfect": expect((key, "perfect"), True),
                "exponents": expect((key, "exponents"), list(report.exponents_uv)),
                "pairing": [[str(r) for r in row] for row in report.pairing],
            }
    return details


def check_knorr(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    details = {}
    for name, U in sorted(b.lattices.items()):
        verdict = lattices.knorr_check(b.order, U)
        details[name] = {
            "verdict": expect((name,), bool(verdict)),
            "rank": U.rank,
            "failure": verdict.failure,
        }
    return details


def check_stable_exponent(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    s = _primary_form(b)
    details = {}
    for name, U in sorted(b.lattices.items()):
        a = lattices.exponent(b.order, s, U)
        if a == 0:
            details[name] = {"verdict": "projective - property undefined"}
            expect((name,), None)
            continue
        verdict = lattices.stable_exponent_check(b.order, s, U)
        details[name] = {"verdict": expect((name,), bool(verdict)), "exponent": a}
    return details


def check_constant_value(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    s = _primary_form(b)
    return {name: expect((name,), lattices.constant_value_check(b.order, s, U))
            for name, U in sorted(b.lattices.items())}


def check_morita_psp(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    if b.character_table is None or b.decomposition is None:
        raise Skipped("no decomposition data")
    witness = decomp.morita_psp_search(
        b.order, b.character_table, b.decomposition, bound=opts.bound
    )
    if witness is None:
        expect(("witness_m",), None)
        expect(("n",), None)
        return {"witness": None, "statement": f"none within bound {opts.bound}"}
    return {"witness": {
        "m": expect(("witness_m",), list(witness.m)),
        "n": expect(("n",), witness.n),
        "a": list(witness.a),
        "form": [scalar_to_str(v) for v in witness.form.values],
    }}


def check_rational(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    if b.character_table is None:
        raise Skipped("no character data")
    centre = decomp.rational_centre(b.order, b.character_table)
    details = {"rational_centre_rank": centre.rank}
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
    if search.witness_sigma is None or b.decomposition is None:
        expect(("verdict",), None)
        expect(("morita_verdict",), None)
        return details
    crit = decomp.rational_intersection_criterion(
        b.order,
        b.character_table,
        b.decomposition,
        sigma_tilde=search.witness_sigma,
    )
    details["intersection_criterion"] = {
        "verdict": expect(("verdict",), crit.verdict),
        "morita_verdict": expect(("morita_verdict",), crit.morita_verdict),
        "maximal_ideals": crit.maximal_ideal_count,
    }
    return details


def check_heights(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    if b.character_table is None:
        raise Skipped("no character data")
    degrees = b.character_table.degrees
    details = {"degrees": [decomp.height(d, degrees, b.prime) for d in degrees]}
    for name, (tdeg, _dims) in sorted(b.extra_tables.items()):
        details[name] = expect((name,), [decomp.height(d, tdeg, b.prime) for d in tdeg])
    details["lattice_ranks"] = {
        name: decomp.height(U.rank, degrees, b.prime)
        for name, U in sorted(b.lattices.items())
    }
    return details


def check_divisibility(b: Bundle, opts: RunOptions, expect: Expect) -> dict:
    s = _primary_form(b)
    cert = forms.psp_direct(b.order, s)
    if cert is None:
        raise Skipped("order lacks the scalar property")
    details = {"n": cert.n}
    verdicts = []
    exponents = []
    for name, U in sorted(b.lattices.items()):
        knorr = bool(lattices.knorr_check(b.order, U))
        a = lattices.exponent(b.order, s, U)
        exponents.append(a)
        projective = a == 0
        verdicts.append((name, U.rank, knorr, projective))
        if projective and knorr:
            simple = lattices.knorr_projective_check(b.order, U)
            details[f"{name}_residue_simple"] = simple
            if not simple:
                expect.mismatches.append(
                    f"divisibility: {name} projective Knorr, residue not simple")
    report = decomp.degree_divisibility_checks(b.prime, cert.n, verdicts)
    details["bounds"] = [list(e) for e in report.entries]
    details["ok"] = report.ok
    if not report.ok:
        expect.mismatches.append(
            f"divisibility: violation: {[e for e in report.entries if not e[-1]]}")
    if b.character_table is not None:
        md = decomp.min_degree_check(
            b.character_table.degrees, b.prime, cert.n, exponents
        )
        details["min_degree"] = {
            "a0": md.a0,
            "needed_valuation": md.needed_valuation,
            "status": md.status,
        }
    expect(("ok",), details["ok"])
    return details


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
    """Run one named check, or all of them in the fixed registry order.

    A check returns its details and compares them with the bundle through
    its ``Expect``; this is the one place its outcome becomes a verdict:
    skipped when it raised ``Skipped``, fail when a mismatch was recorded
    (listed under ``mismatches`` in the order found), pass otherwise.
    """
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
        expect = Expect(name, bundle.expectations.get(name))
        try:
            details = CHECKS[name](bundle, options, expect)
        except Skipped as skip:
            verdict, details = "skipped", {"reason": str(skip)}
        else:
            verdict = "pass"
            if expect.mismatches:
                verdict, details = "fail", {**details, "mismatches": expect.mismatches}
        elapsed = time.perf_counter() - start
        report.results.append(CheckResult(name, verdict, details, elapsed))
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
    if args.bound < 1:
        parser.error(f"--bound must be at least 1, not {args.bound}")
    if args.json:  # a writable file, or a new one in a writable folder
        folder = os.path.dirname(os.path.abspath(args.json))
        target = args.json if os.path.exists(args.json) else folder
        if os.path.isdir(args.json) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
            print(f"input error: cannot write the report to {args.json}", file=sys.stderr)
            return 2

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
