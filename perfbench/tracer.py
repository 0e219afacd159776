"""Spans around calls into the library's public functions.

The library is traced from outside: ``Tracer.install`` replaces each
wrapped function in every module of the package that binds it (modules
import ``casimir``, ``dual_basis``, ``make_order``, ``load_bundle`` and
others by name), and methods on their class.  A wrapper records one span
(name, start, end, parent) per call and the counts that its layer's
bound refers to.  Spans are kept in memory; ``write_spans`` saves them.

Self time is a span's duration minus the time its child spans cover.
``s`` is the time inside outermost calls of a name, so a function that
reaches itself again is not counted twice.  A span that raises is
recorded as an error of its layer, and the exception propagates.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _load_bundle_counts(args, kwargs, result, tracer):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _smith_counts(args, kwargs, result, tracer):
    m, n = np.shape(_arg(args, kwargs, 0, "M"))
    return {"max_cells": m * n}


def _tate_counts(args, kwargs, result, tracer):
    p = _arg(args, kwargs, 0, "A").prime
    classes = 1
    for d in result.exponents_uv:
        classes *= p**d
    return {"classes": classes, "max_classes": classes}


def _socle_counts(args, kwargs, result, tracer):
    presentation = kwargs.get("presentation", args[3] if len(args) > 3 else None)
    if presentation is None:  # counts run untraced, so this adds no spans
        A, s, U = args[:3]
        presentation = tracer.original("lattices.stable_hom")(A, s, U, U)
    classes = presentation.element_count()
    return {"classes": classes, "max_classes": classes}


def _spin_counts(args, kwargs, result, tracer):
    A = _arg(args, kwargs, 0, "A")
    vectors = A.prime ** _arg(args, kwargs, 1, "U").rank
    return {"vectors": vectors, "max_vectors": vectors}


def _radical_counts(args, kwargs, result, tracer):
    alg = args[0]
    return {"elements": alg.p**alg.dim, "max_dim": alg.dim}


def _form_key(args, kwargs):
    return (_arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "s"))


def _triple_key(args, kwargs):
    return tuple(_arg(args, kwargs, i, n) for i, n in enumerate(("A", "U", "V")))


@dataclass(frozen=True)
class Target:
    """A wrapped function: ``module.attr`` or ``module.Class.method``."""

    name: str  # as in the metric names, e.g. "forms.dual_basis"
    # (args, kwargs, result, tracer) -> {count: value}; "max_" counts keep
    # the largest value seen, the others add up
    counts: object = None
    # (args, kwargs) -> the arguments whose distinct combinations are counted
    key: object = None


TARGETS = (
    Target("cli.run"),
    Target("bundle.load_bundle", counts=_load_bundle_counts),
    Target("orders.make_order"),
    Target("orders.Order.multiply"),
    Target("lattices.make_lattice"),
    Target("forms.dual_basis", key=_form_key),
    Target("forms.casimir"),
    Target("forms.psp_direct"),
    Target("forms.psp_regular_gram"),
    Target("linalg.smith_normal_form", counts=_smith_counts),
    Target("linalg.integral_kernel"),
    Target("linalg.solve_exact"),
    Target("linalg.inverse"),
    Target("linalg.det"),
    Target("lattices.hom_lattice", key=_triple_key),
    Target("lattices.projective_hom_lattice"),
    Target("lattices.stable_hom"),
    Target("lattices.residue_endo_analysis"),
    Target("lattices.verify_tate_duality", counts=_tate_counts),
    Target("lattices.stable_socle_property", counts=_socle_counts),
    Target("lattices.knorr_projective_check", counts=_spin_counts),
    Target("modp.FpAlgebra.radical", counts=_radical_counts),
    Target("decomp.morita_psp_search"),
    Target("decomp.rational_symmetry_search"),
    Target("decomp.rational_centre"),
    Target("decomp.rational_intersection_criterion"),
)

PACKAGE = "symorders"


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(int))
    keys: set = field(default_factory=set)


class Tracer:
    """Spans and counts of every target while installed.

    ``clock`` times the spans; the worker passes one that leaves out the
    time its speed probe takes.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {t.name: LayerStats() for t in TARGETS}
        self.spans = []  # (name, start, end, parent index or -1, raised)
        self._stack = []  # [span index, child time]
        self._depth = defaultdict(int)
        self._originals = {}
        self._patches = []  # (owner, attribute, previous value)
        self._paused = False
        self._keep = []  # key arguments stay alive so their ids stay distinct

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for target in TARGETS:
            module_name, *path = target.name.split(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            self._originals[target.name] = original
            wrapper = self._wrap(target, original)
            if len(path) > 1:  # a method: patch it on its class
                self._patch(owner, path[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._patches):
            setattr(owner, attr, previous)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def original(self, name: str):
        return self._originals[name]

    @contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        before, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = before

    # -- spans ---------------------------------------------------------------

    def _wrap(self, target: Target, fn):
        stats = self.stats[target.name]
        name = target.name
        clock = self.clock

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if target.key is not None:
                key_args = target.key(args, kwargs)
                self._keep.append(key_args)
                stats.keys.add(tuple(id(a) for a in key_args))
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                self._stack.pop()
                self._depth[name] -= 1
                duration = end - start
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if self._depth[name] == 0:
                    stats.s += duration
                if self._stack:
                    self._stack[-1][1] += duration
                if raised:
                    stats.errors += 1
                self.spans[index] = (name, start, end, parent, raised)
            if target.counts is not None:
                with self.paused():
                    found = target.counts(args, kwargs, result, self)
                for count, value in found.items():
                    if count.startswith("max_"):
                        stats.counts[count] = max(stats.counts[count], value)
                    else:
                        stats.counts[count] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Flat {metric name: value} over every target."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.s"] = st.s
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.errors"] = st.errors
            for count, value in st.counts.items():
                out[f"{name}.{count}"] = value
        return out

    def distinct_keys(self, name: str) -> int:
        return len(self.stats[name].keys)

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, raised."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
