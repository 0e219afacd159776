"""Bundle files: one JSON document holding an order with its forms,
lattices, character data, decomposition matrix and expected verdicts.

All scalars are serialized as strings "a/b" (denominator omitted when
1), so fixtures double as human-readable documentation; on reading, a
scalar may also be a JSON integer, but never a float or a boolean.  The
order's structure constants are written as the dense cube
``structure[i][j][k]`` from the order's integer table, and read back as
its nonzero entries: an entry "0" is skipped unparsed.  A lattice is
written as its action matrices N[k] / q, from its integer action.
Loading re-runs every structural validator and reports the failed
invariant.
"""

from __future__ import annotations

import copy
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from .decomp import (
    CharacterTable,
    DecompositionMatrix,
    make_character_table,
    make_decomposition_matrix,
)
from .forms import LinearForm
from .lattices import Lattice, make_lattice
from .orders import InvalidOrderError, Order, make_order
from .padic import as_int, scalar_to_str


class BundleError(ValueError):
    pass


@dataclass(eq=False)
class Bundle:
    prime: int
    order: Order
    forms: dict  # name -> LinearForm
    lattices: dict  # name -> Lattice
    character_table: CharacterTable | None = None
    decomposition: DecompositionMatrix | None = None
    extra_tables: dict = field(default_factory=dict)  # name -> (degrees, modular_dims)
    expectations: dict = field(default_factory=dict)


def _ser_scalar(x) -> str:
    return scalar_to_str(Fraction(x))


def _ser_vector(v):
    return [_ser_scalar(x) for x in v]


def _ser_action(U: Lattice):
    """The action matrices N[k] / q of a lattice, entry by entry."""
    N, q = U.integer_action
    return [[[scalar_to_str(Fraction(x, q)) for x in row] for row in m] for m in N.tolist()]


def bundle_to_dict(b: Bundle) -> dict:
    n = b.order.dim
    cube = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in b.order.constants():
        cube[i][j][k] = _ser_scalar(c)
    doc = {
        "prime": int(b.prime),
        "order": {
            "dim": n,
            "structure": cube,
            "one": _ser_vector(b.order.one),
        },
        "forms": {name: _ser_vector(f.values) for name, f in sorted(b.forms.items())},
        "lattices": {name: _ser_action(U) for name, U in sorted(b.lattices.items())},
    }
    if b.order.basis_labels:
        doc["order"]["basis_labels"] = list(b.order.basis_labels)
    if b.character_table is not None:
        doc["characters"] = {
            "names": list(b.character_table.names),
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
    """Build a bundle from its JSON document.  Each scalar is parsed once,
    by the constructor that reads it."""
    with _reading("prime"):
        prime = as_int(doc["prime"])
    with _reading("order"):
        order_doc = doc["order"]
        one = _exact(order_doc["one"])
        A = make_order(_nonzero_entries(order_doc["structure"], len(one)), one, prime,
                       basis_labels=order_doc.get("basis_labels"))
    forms = {}
    for name, values in _section(doc, "forms").items():
        with _reading(f"form {name!r}"):
            if len(values) != A.dim:
                raise BundleError(f"form {name!r} has wrong length")
            forms[name] = LinearForm(_exact(values))
    lattices = {}
    for name, actions in _section(doc, "lattices").items():
        with _reading(f"lattice {name!r}"):
            lattices[name] = make_lattice(A, _exact(actions))
    table = None
    if "characters" in doc:
        cdoc = _section(doc, "characters")
        with _reading("characters"):
            table = make_character_table(_exact(cdoc["values"]), A, names=cdoc.get("names"))
            if "degrees" in cdoc:
                declared = [Fraction(x) for x in _exact(cdoc["degrees"])]
                if list(table.degrees) != declared:
                    raise BundleError("declared degrees do not match the characters")
    decomposition = None
    if "decomposition" in doc:
        if table is None:
            raise BundleError("decomposition matrix requires characters")
        ddoc = _section(doc, "decomposition")
        with _reading("decomposition"):
            decomposition = make_decomposition_matrix(
                ddoc["matrix"], ddoc["modular_dims"], table.degrees
            )
    extra = {}
    for name, tdoc in _section(doc, "tables").items():
        with _reading(f"table {name!r}"):
            degrees = [Fraction(x) for x in _exact(tdoc["degrees"])]
            if any(d <= 0 for d in degrees):
                raise ValueError("degrees must be positive")
            dims = tuple(as_int(x) for x in tdoc["modular_dims"])
            if decomposition is not None:
                make_decomposition_matrix(decomposition.entries, dims, degrees)
        extra[name] = (degrees, dims)
    expectations = _section(doc, "expectations")
    with _reading("expectations"):
        _check_expectation_names(expectations, lattices, forms, extra)
    return Bundle(
        prime=prime,
        order=A,
        forms=forms,
        lattices=lattices,
        character_table=table,
        decomposition=decomposition,
        extra_tables=extra,
        expectations=copy.deepcopy(expectations),
    )


def _nonzero_entries(cube, n: int) -> list:
    """The entries (i, j, k, c) of a JSON cube of side n with c not "0",
    each checked by :func:`_exact`."""

    def side(rows) -> list:
        if not (isinstance(rows, list) and len(rows) == n):
            raise InvalidOrderError("structure constants must form a cube")
        return rows

    return [(i, j, k, _exact(c)) for i, plane in enumerate(side(cube))
            for j, row in enumerate(side(plane)) for k, c in enumerate(side(row)) if c != "0"]


def _exact(data):
    """Nested JSON lists of scalars, returned as they are once every leaf
    is a string or an integer: a JSON float or boolean holds no exact
    rational, so it is refused here, before any constructor reads it."""
    if isinstance(data, list):
        for x in data:
            _exact(x)
    elif isinstance(data, bool) or not isinstance(data, (int, str)):
        raise TypeError(f"{data!r} is not an exact scalar")
    return data


@contextmanager
def _reading(section: str):
    """Report a malformed value met while reading ``section`` as a
    ``BundleError`` that names the section."""
    try:
        yield
    except BundleError:
        raise
    except KeyError as exc:
        raise BundleError(f"{section}: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise BundleError(f"{section} validation failed: {exc}") from exc


def _section(doc: dict, key: str) -> dict:
    """The JSON object under ``key`` (empty when absent)."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise BundleError(f"{key} must be a JSON object")
    return section


# the fields each fixed-key check compares, for the check as a whole and
# for each of its named entries
_FIELDS = {
    "psp": ("verdict", "n"),
    "divisibility": ("ok",),
    "morita-psp": ("witness_m", "n"),
    "rational": ("verdict", "morita_verdict"),
}
_ENTRY_FIELDS = {"casimir": ("scalar",), "tate": ("perfect", "exponents")}


def _check_expectation_names(expectations: dict, lattices: dict, forms: dict,
                             tables: dict) -> None:
    """Every check an expectation names must compare expectations, every
    name it refers to must resolve in the bundle, and every node must be
    an object holding only fields its check compares: the checks pass
    over any other expectation without reading it."""

    def node(path: str, value, fields=None) -> dict:
        if not isinstance(value, dict):
            raise BundleError(f"expectations: {path} must be a JSON object")
        for key in value:
            if fields is not None and key not in fields:
                raise BundleError(f"expectations: {path} has unknown field {key!r}")
        return value

    named = (("knorr", lattices, "lattice"), ("stable-exponent", lattices, "lattice"),
             ("constant-value", lattices, "lattice"), ("symmetrising", forms, "form"),
             ("casimir", forms, "form"), ("heights", tables, "table"))
    checks = {check for check, _, _ in named} | {"tate", *_FIELDS}
    for check in expectations:
        if check not in checks:
            raise BundleError(f"expectations: unknown check {check!r}")
    for check, names, kind in named:
        for name in node(check, expectations.get(check, {})):
            if name not in names:
                raise BundleError(f"unresolved name: {check} expects {kind} {name!r}")
    for key in node("tate", expectations.get("tate", {})):
        parts = key.split("|")
        if len(parts) != 2 or any(part not in lattices for part in parts):
            raise BundleError(f"unresolved name: tate expects lattice pair {key!r}")
    for check, fields in _FIELDS.items():
        if check in expectations:
            node(check, expectations[check], fields)
    for check, fields in _ENTRY_FIELDS.items():
        for name, entry in expectations.get(check, {}).items():
            node(f"{check}/{name}", entry, fields)


def load_bundle(path) -> Bundle:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise BundleError(f"no such bundle: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise BundleError(f"cannot read bundle: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BundleError(f"parse error at line {exc.lineno}: {exc.msg}") from exc
    return bundle_from_dict(doc)
