"""Seeded bundle generator for the benchmark workloads.

Each workload is a list of canonical bundle documents (the JSON form of
``symorders.save_bundle``).  ``generate(workload, seed)`` moves every
document to a basis chosen by the seed, attaches the basis-independent
expectations recorded in ``expected.json`` and returns the documents;
``write_bundles`` saves them as files, which are all the library sees.

Seed 0 keeps the canonical basis.  The group-algebra workloads reorder
the group elements (a permutation matrix); the others use a dense
unimodular matrix, so their structure constants are dense.

``python3 perfbench/run.py --write-expected`` records the expectations
again from the canonical bases.  Importing this module needs the
checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from symorders import builders, cli
from symorders.bundle import Bundle, bundle_from_dict, bundle_to_dict
from symorders.lattices import direct_sum, make_lattice

import rebase
import verdicts

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# which change of basis each workload uses
BASIS_KIND = {
    "s3-fixture": "permutation",
    "a4-p2": "permutation",
    "small-survey": "dense",
    "enum-rank2": "dense",
}


def _doc(bundle: Bundle) -> dict:
    doc = bundle_to_dict(bundle)
    doc.pop("expectations", None)
    return doc


def _simple_doc(A, s, lattices: dict) -> dict:
    return _doc(Bundle(prime=int(A.prime), order=A, forms={"standard": s}, lattices=lattices))


def _one_dim(A, values):
    return make_lattice(A, [[[Fraction(v)]] for v in values])


# -- canonical documents ---------------------------------------------------


def s3_fixture_docs() -> list:
    return [("s3-p3", _doc(builders.s3_fixture_bundle(3)))]


def a4_docs() -> list:
    """Group algebra of the alternating group on four points at p = 2,
    written directly (validation happens when the library loads it)."""
    elems = [g for g in sorted(permutations(range(4)))
             if sum(g[a] > g[b] for a in range(4) for b in range(a + 1, 4)) % 2 == 0]
    index = {g: i for i, g in enumerate(elems)}
    n = len(elems)
    structure = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            structure[i][j][index[tuple(g[h[k]] for k in range(4))]] = "1"
    unit = ["1" if i == 0 else "0" for i in range(n)]
    doc = {
        "prime": 2,
        "order": {
            "dim": n,
            "structure": structure,
            "one": unit,
            "basis_labels": ["".join(map(str, g)) for g in elems],
        },
        "forms": {"standard": list(unit)},
        "lattices": {"trivial": [[["1"]] for _ in range(n)]},
    }
    return [("a4-p2", doc)]


def _primes_upto(n: int) -> list:
    return [q for q in range(2, n + 1) if all(q % d for d in range(2, int(q**0.5) + 1))]


def small_survey_docs() -> list:
    docs = []
    for q in range(3, 64, 2):
        A, s = builders.hecke_rank1(q, 2)
        docs.append((f"hecke-q{q}", _simple_doc(
            A, s, {"index": _one_dim(A, [1, 1]), "sign": _one_dim(A, [1, -q])})))
    for p in _primes_upto(125):
        m = 1
        while p ** m <= 125:
            A, s = builders.rank2_order(m, p)
            docs.append((f"rank2-m{m}-p{p}", _simple_doc(
                A, s, {"projection": builders.rank2_projection_lattice(A)})))
            m += 1
    for p in (2, 3, 5, 7, 11):
        A, s = builders.matrix_order(2, p)
        docs.append((f"m2-p{p}", _simple_doc(
            A, s, {"column": builders.matrix_column_lattice(A, 2)})))
    for x in range(1, 16, 2):
        A, s = builders.four_dim_nonrational(x, 2)
        docs.append((f"four-dim-x{x}", _simple_doc(A, s, {})))
    for n, p in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 5), (4, 2), (4, 3), (5, 5)]:
        table, labels = builders.cyclic_group_table(n)
        A, s = builders.group_algebra(table, p, labels=labels)
        docs.append((f"cyclic-n{n}-p{p}", _simple_doc(
            A, s, {"trivial": _one_dim(A, [1] * n)})))
    return docs


def enum_rank2_docs() -> list:
    docs = []
    for m, p, doubled in [(9, 2, False), (2, 2, True), (1, 5, True), (15, 2, False)]:
        A, s = builders.rank2_order(m, p)
        U = builders.rank2_projection_lattice(A)
        lattices = {"projection": U}
        if doubled:
            lattices["projection2"] = direct_sum(U, U)
        docs.append((f"rank2-m{m}-p{p}", _simple_doc(A, s, lattices)))
    A, s = builders.matrix_order(2, 61)
    docs.append(("m2-p61", _simple_doc(A, s, {"column": builders.matrix_column_lattice(A, 2)})))
    return docs


CANONICAL = {
    "s3-fixture": s3_fixture_docs,
    "a4-p2": a4_docs,
    "small-survey": small_survey_docs,
    "enum-rank2": enum_rank2_docs,
}
WORKLOADS = tuple(CANONICAL)


# -- seeded generation -----------------------------------------------------


def change_of_basis(kind: str, n: int, seed: int, name: str) -> list:
    if seed == 0:
        return rebase.identity(n)
    rng = random.Random(f"{seed}:{name}")
    if kind == "permutation":
        return rebase.permutation_matrix(rebase.random_permutation(n, rng))
    return rebase.random_dense(n, rng)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def generate(workload: str, seed: int, expected: dict | None = None) -> list:
    """[(name, document)] for one workload on the bases chosen by seed."""
    if workload not in CANONICAL:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    expected = load_expected() if expected is None else expected
    out = []
    for name, doc in CANONICAL[workload]():
        P = change_of_basis(BASIS_KIND[workload], doc["order"]["dim"], seed, name)
        moved = rebase.rebase_doc(doc, P)
        moved["expectations"] = expected[workload][name]
        out.append((name, moved))
    return out


def write_bundles(docs: list, directory: Path) -> list:
    """Save each document as its own bundle file; return the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (name, doc) in enumerate(docs):
        path = directory / f"{i:03d}-{name}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def record_expected() -> dict:
    """Basis-independent verdicts of every canonical bundle."""
    return {
        workload: {
            name: verdicts.expectations_from_report(
                cli.run("all", bundle_from_dict(doc)).to_dict())
            for name, doc in build()
        }
        for workload, build in CANONICAL.items()
    }


def write_expected() -> None:
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(record_expected(), fh, indent=1, sort_keys=True)
        fh.write("\n")
