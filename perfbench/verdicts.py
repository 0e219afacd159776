"""Basis-independent verdicts read from a canonical report.

``expectations_from_report`` turns the ``to_dict()`` form of a batch
report into the expectations format that bundles carry: the psp verdict
and n, the Casimir scalar, Tate exponents and perfectness, and the
knorr, stable-exponent, constant-value, morita-psp, rational, heights
and divisibility verdicts.  The benchmark compares it against the
recorded expectations independently of the library's own mismatch
reporting.
"""

from __future__ import annotations

PER_NAME = ("symmetrising", "knorr", "constant-value")


def _entry_verdicts(name: str, details: dict):
    if name in PER_NAME:
        return {
            key: (value["verdict"] if name == "knorr" else value)
            for key, value in details.items()
        }
    if name == "stable-exponent":
        return {
            key: value["verdict"]
            for key, value in details.items()
            if isinstance(value["verdict"], bool)
        }
    if name == "casimir":
        return {
            form: {"scalar": entry["scalar"]}
            for form, entry in details.items()
            if "scalar" in entry
        }
    if name == "psp":
        direct = details["direct"]
        out = {"verdict": direct["verdict"]}
        if direct["verdict"] == "yes":
            out["n"] = direct["n"]
        return out
    if name == "tate":
        return {
            key: {"perfect": entry["perfect"], "exponents": entry["exponents"]}
            for key, entry in details.items()
        }
    if name == "morita-psp":
        witness = details["witness"]
        return {"witness_m": witness["m"], "n": witness["n"]} if witness else None
    if name == "rational":
        crit = details.get("intersection_criterion")
        if crit is None:
            return None
        return {"verdict": crit["verdict"], "morita_verdict": crit["morita_verdict"]}
    if name == "heights":
        return {
            key: value
            for key, value in details.items()
            if key not in ("degrees", "lattice_ranks")
        } or None
    if name == "divisibility":
        return {"ok": details["ok"]}
    return None


def expectations_from_report(report: dict) -> dict:
    out = {}
    for entry in report["checks"]:
        if entry["verdict"] != "pass":
            continue
        details = {k: v for k, v in entry["details"].items() if k != "mismatches"}
        found = _entry_verdicts(entry["name"], details)
        if found:
            out[entry["name"]] = found
    return out


def mismatched_checks(report: dict, expected: dict) -> set:
    """Names of checks whose basis-independent verdicts differ from the
    expectations (a check missing from the report differs too)."""
    actual = expectations_from_report(report)
    return {
        name
        for name in set(actual) | set(expected)
        if actual.get(name) != expected.get(name)
    }
