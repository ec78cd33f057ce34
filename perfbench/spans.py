"""Spans and counters for the traced run.

The tracer wraps, from outside the program, the public functions and public
methods of each layer module of ``drinfeld`` and records one span per call:
name, start, end, parent span and job.  Scalar arithmetic is counted only;
a span per scalar product would swamp the work it measures.  Spans stay in
memory until the run ends.

A name is wrapped wherever it is looked up: modules bind their imports at
import time (``from .linalg import rref``), so the wrapper replaces the
original in every ``drinfeld`` module namespace, not only in the defining
module.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

# The layers are the program's modules; scalars is counted, not spanned.
LAYERS = ("symrep", "linalg", "lattices", "tree", "rational", "harmonic", "theta", "modp")

# Per-layer metrics in report order, with their units.
METRICS = {
    "cli.self_s": "s",
    "scalars.khat_new": "count",
    "scalars.khat_mul": "count",
    "scalars.fq_mul": "count",
    "scalars.fq_inverse": "count",
    "symrep.substitution_matrix.calls": "count",
    "symrep.self_s": "s",
    "linalg.smith.calls": "count",
    "linalg.smith.cells": "count",
    "linalg.rref.calls": "count",
    "linalg.rref.cells": "count",
    "linalg.self_s": "s",
    "lattices.vertex_lattice.calls": "count",
    "lattices.vertex_lattice.distinct": "count",
    "lattices.self_s": "s",
    "tree.edges_at.calls": "count",
    "tree.self_s": "s",
    "rational.automorphic_act.calls": "count",
    "rational.laurent_standard.calls": "count",
    "rational.self_s": "s",
    "harmonic.self_s": "s",
    "theta.self_s": "s",
    "modp.group_elements": "count",
    "modp.self_s": "s",
    "trace.overhead_s": "s",
}

# Span name -> metric counting its calls.
_CALL_COUNTS = {
    "symrep.substitution_matrix": "symrep.substitution_matrix.calls",
    "linalg.smith_over_dvr": "linalg.smith.calls",
    "linalg.rref": "linalg.rref.calls",
    "lattices.vertex_lattice": "lattices.vertex_lattice.calls",
    "tree.TruncatedTree.edges_at": "tree.edges_at.calls",
    "rational.automorphic_act": "rational.automorphic_act.calls",
    "rational.laurent_standard": "rational.laurent_standard.calls",
}

_ROOT = "cli"


def _cells(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


class Tracer:
    """Spans of one run, stored column-wise, plus counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self._stack: list[int] = []
        self._job = -1
        self.counts: dict[str, int] = {m: 0 for m, u in METRICS.items() if u == "count"}
        self.vertex_lattice_keys: set = set()

    # -- recording --------------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id: int, call):
        """Run one job under its root span."""
        self._job = job_id
        index = self._open(_ROOT)
        try:
            return call()
        finally:
            self._close(index)

    def span(self, name: str, fn):
        """``fn`` wrapped so each call records a span named ``name``."""
        counter = _CALL_COUNTS.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += 1
                # The arguments in positional form, however the caller passed them.
                given = signature.bind(*args, **kwargs).args
                if name == "lattices.vertex_lattice":
                    self.vertex_lattice_keys.add(given[:2])
                elif name == "linalg.smith_over_dvr":
                    self.counts["linalg.smith.cells"] += _cells(given[0])
                elif name == "linalg.rref":
                    self.counts["linalg.rref.cells"] += _cells(given[0])
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "modp.all_invertible_matrices":
                self.counts["modp.group_elements"] += len(result)
            return result

        return wrapper

    def counter(self, metric: str, fn):
        """``fn`` wrapped so each call adds one to ``metric``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and methods, and count scalar
        construction and products, in the already imported ``drinfeld``."""
        modules = [m for n, m in sys.modules.items() if n == "drinfeld" or n.startswith("drinfeld.")]
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"drinfeld.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replace[id(obj)] = self.span(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        scalars = sys.modules["drinfeld.scalars"]
        khat, fq = scalars.ScalarKHat, scalars.FqElem
        for cls, method, metric in (
            (khat, "__post_init__", "scalars.khat_new"),
            (khat, "__mul__", "scalars.khat_mul"),
            (fq, "__mul__", "scalars.fq_mul"),
            (fq, "inverse", "scalars.fq_inverse"),
        ):
            # A method a later version drops reads 0 rather than failing the run.
            if hasattr(cls, method):
                setattr(cls, method, self.counter(metric, getattr(cls, method)))

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.span(f"{prefix}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.span(f"{prefix}.{attr}", raw))

    # -- analysis ---------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus the time its child
        spans cover.  The root span of a job belongs to the layer ``cli``."""
        n = len(self.start)
        child_time = [0.0] * n
        for index in range(n):
            parent = self.parent[index]
            if parent >= 0:
                child_time[parent] += self.end[index] - self.start[index]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        totals: dict[str, float] = {}
        for index in range(n):
            layer = layer_of[self.name[index]]
            own = self.end[index] - self.start[index] - child_time[index]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def metrics(self, overhead_s: float) -> dict:
        selfs = self.self_times()
        values = dict(self.counts)
        values["lattices.vertex_lattice.distinct"] = len(self.vertex_lattice_keys)
        for metric, unit in METRICS.items():
            if metric.endswith(".self_s"):
                values[metric] = selfs.get(metric.split(".", 1)[0], 0.0)
        values["trace.overhead_s"] = overhead_s
        return {m: {"value": values[m], "unit": u} for m, u in METRICS.items()}

    def write(self, path) -> None:
        """All spans, column-wise, as gzipped JSON."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle)
