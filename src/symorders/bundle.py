"""Bundle files: one JSON document holding an order with its forms,
lattices, character data, decomposition matrix and expected verdicts.

All scalars are serialized as strings "a/b" (denominator omitted when
1), so fixtures double as human-readable documentation.  Loading
re-runs every structural validator and reports the failed invariant.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .decomp import (
    CharacterTable,
    DecompositionMatrix,
    make_character_table,
    make_decomposition_matrix,
)
from .forms import LinearForm
from .lattices import make_lattice
from .orders import Order, make_order
from .padic import scalar_to_str


class BundleError(ValueError):
    pass


@dataclass(eq=False)
class Bundle:
    prime: int
    order: Order
    forms: dict  # name -> LinearForm
    lattices: dict  # name -> Lattice
    character_table: CharacterTable | None = None
    character_names: tuple = ()
    decomposition: DecompositionMatrix | None = None
    extra_tables: dict = field(default_factory=dict)  # name -> (degrees, modular_dims)
    expectations: dict = field(default_factory=dict)


def _ser_scalar(x) -> str:
    return scalar_to_str(Fraction(x))


def _ser_vector(v):
    return [_ser_scalar(x) for x in v]


def _ser_matrix(m):
    return [[_ser_scalar(x) for x in row] for row in np.asarray(m, dtype=object)]


def bundle_to_dict(b: Bundle) -> dict:
    doc = {
        "prime": int(b.prime),
        "order": {
            "dim": b.order.dim,
            "structure": [
                _ser_matrix(b.order.structure[i]) for i in range(b.order.dim)
            ],
            "one": _ser_vector(b.order.one),
        },
        "forms": {name: _ser_vector(f.values) for name, f in sorted(b.forms.items())},
        "lattices": {
            name: [_ser_matrix(m) for m in U.action]
            for name, U in sorted(b.lattices.items())
        },
    }
    if b.order.basis_labels:
        doc["order"]["basis_labels"] = list(b.order.basis_labels)
    if b.character_table is not None:
        doc["characters"] = {
            "names": list(b.character_names),
            "values": [_ser_vector(row) for row in b.character_table.values],
            "degrees": _ser_vector(b.character_table.degrees),
        }
    if b.decomposition is not None:
        doc["decomposition"] = {
            "matrix": [[int(x) for x in row] for row in b.decomposition.entries],
            "modular_dims": list(b.decomposition.modular_dims),
        }
    if b.extra_tables:
        doc["tables"] = {
            name: {
                "degrees": _ser_vector(degrees),
                "modular_dims": list(dims),
            }
            for name, (degrees, dims) in sorted(b.extra_tables.items())
        }
    if b.expectations:
        doc["expectations"] = copy.deepcopy(b.expectations)
    return doc


def save_bundle(b: Bundle, path) -> None:
    with open(path, "w") as fh:
        json.dump(bundle_to_dict(b), fh, indent=1, sort_keys=True)
        fh.write("\n")


def bundle_from_dict(doc: dict) -> Bundle:
    try:
        prime = doc["prime"]
        order_doc = doc["order"]
        structure = order_doc["structure"]
        one = order_doc["one"]
    except KeyError as exc:
        raise BundleError(f"missing field: {exc}") from exc
    try:
        A = make_order(
            np.array(
                [[[Fraction(x) for x in row] for row in plane] for plane in structure],
                dtype=object,
            ),
            [Fraction(x) for x in one],
            prime,
            basis_labels=order_doc.get("basis_labels"),
        )
    except ValueError as exc:
        raise BundleError(f"order validation failed: {exc}") from exc
    forms = {}
    for name, values in _section(doc, "forms").items():
        if len(values) != A.dim:
            raise BundleError(f"form {name!r} has wrong length")
        forms[name] = LinearForm([Fraction(x) for x in values])
    lattices = {}
    for name, actions in _section(doc, "lattices").items():
        try:
            lattices[name] = make_lattice(
                A, [[[Fraction(x) for x in row] for row in m] for m in actions]
            )
        except ValueError as exc:
            raise BundleError(f"lattice {name!r} validation failed: {exc}") from exc
    table = None
    names = ()
    if "characters" in doc:
        cdoc = _section(doc, "characters")
        names = tuple(cdoc.get("names", ()))
        try:
            table = make_character_table(
                [[Fraction(x) for x in row] for row in cdoc["values"]], A, names=names
            )
        except KeyError as exc:
            raise BundleError(f"characters: missing field {exc}") from exc
        except ValueError as exc:
            raise BundleError(f"character validation failed: {exc}") from exc
        if "degrees" in cdoc:
            declared = [Fraction(x) for x in cdoc["degrees"]]
            if list(table.degrees) != declared:
                raise BundleError("declared degrees do not match the characters")
    decomposition = None
    if "decomposition" in doc:
        if table is None:
            raise BundleError("decomposition matrix requires characters")
        ddoc = _section(doc, "decomposition")
        try:
            decomposition = make_decomposition_matrix(
                ddoc["matrix"], ddoc["modular_dims"], table.degrees
            )
        except KeyError as exc:
            raise BundleError(f"decomposition: missing field {exc}") from exc
        except ValueError as exc:
            raise BundleError(f"decomposition validation failed: {exc}") from exc
    extra = {}
    for name, tdoc in _section(doc, "tables").items():
        try:
            degrees = [Fraction(x) for x in tdoc["degrees"]]
            dims = [int(x) for x in tdoc["modular_dims"]]
            if "decomposition" in doc:
                make_decomposition_matrix(doc["decomposition"]["matrix"], dims, degrees)
        except KeyError as exc:
            raise BundleError(f"table {name!r}: missing field {exc}") from exc
        except ValueError as exc:
            raise BundleError(f"table {name!r} validation failed: {exc}") from exc
        extra[name] = (degrees, tuple(dims))
    expectations = _section(doc, "expectations")
    _check_expectation_names(expectations, lattices, forms)
    return Bundle(
        prime=int(prime),
        order=A,
        forms=forms,
        lattices=lattices,
        character_table=table,
        character_names=names,
        decomposition=decomposition,
        extra_tables=extra,
        expectations=copy.deepcopy(expectations),
    )


def _section(doc: dict, key: str) -> dict:
    """The JSON object under ``key`` (empty when absent)."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise BundleError(f"{key} must be a JSON object")
    return section


def _check_expectation_names(expectations: dict, lattices: dict, forms: dict) -> None:
    """Every name an expectation refers to must resolve in the bundle."""
    per_lattice = ("knorr", "stable-exponent", "constant-value")
    for check in per_lattice:
        for name in expectations.get(check, {}):
            if name not in lattices:
                raise BundleError(f"unresolved name: {check} expects lattice {name!r}")
    for check in ("symmetrising", "casimir"):
        for name in expectations.get(check, {}):
            if name not in forms:
                raise BundleError(f"unresolved name: {check} expects form {name!r}")
    for key in expectations.get("tate", {}):
        parts = key.split("|")
        if len(parts) != 2 or any(part not in lattices for part in parts):
            raise BundleError(f"unresolved name: tate expects lattice pair {key!r}")


def load_bundle(path) -> Bundle:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise BundleError(f"no such bundle: {path}") from exc
    except json.JSONDecodeError as exc:
        raise BundleError(f"parse error at line {exc.lineno}: {exc.msg}") from exc
    return bundle_from_dict(doc)
