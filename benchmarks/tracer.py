"""Span tracing of su2reduce's modules from outside the package.

``Tracer.install`` wraps the public functions, methods, classmethods and
properties of each layer module (plus ``__post_init__``, where the
dataclasses validate) and rebinds every name in the package that refers
to a wrapped function, so calls through by-name imports such as
``bundle.evaluate`` are recorded too. Spans are kept in memory and written
as JSONL by ``write``; ``layer_metrics`` derives self time, call counts
and computed bytes from the spans. The untraced run never imports this.
"""

from __future__ import annotations

import inspect
import json
import time
import tracemalloc

import numpy as np

LAYERS = ("lattice", "su2_algebra", "ansatz_field", "checks", "contraction", "bundle",
          "config", "report", "cli")
STENCILS = ("partial", "second_diff", "box", "laplacian_spatial", "divergence")
LATTICE_IO = ("save_field_csv", "save_field_npz", "load_field_csv", "load_field_npz")
TRANSFORMS = ("gauge_transform", "pure_gauge_field")
# refinement studies: each also gets a tracemalloc peak
STUDIES = ("covariance_order", "pure_gauge_order", "divergence_accounting_order",
           "raw_field_strength_order")
MIB = 2.0**20


def _nbytes(v, nested: bool = True) -> int:
    """Computed bytes of one argument or result: arrays, array-holding
    objects (``.values``), text, and one level of tuples, lists and dicts."""
    if isinstance(v, np.ndarray):
        return v.nbytes
    if isinstance(v, str):
        return len(v)
    if nested and isinstance(v, (tuple, list)):
        return sum(_nbytes(x, False) for x in v)
    if nested and isinstance(v, dict):
        return sum(_nbytes(x, False) for x in v.values())
    vals = getattr(v, "values", None)
    return vals.nbytes if isinstance(vals, np.ndarray) else 0


class Tracer:
    def __init__(self, package):
        self.package = package
        # [name, start, end, parent, run, bytes, peak_bytes]
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str, study: bool):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.run,
                   sum(_nbytes(a) for a in args) + sum(_nbytes(a) for a in kwargs.values()), None]
            stack.append(len(spans))
            spans.append(rec)
            if study:
                tracemalloc.start()
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if study:
                    rec[6] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            rec[5] += _nbytes(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {}  # id(original function) -> wrapper
        modules = [getattr(self.package, m) for m in LAYERS]
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    study = layer == "checks" and attr in STUDIES
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", study)
                    self._set(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, f"{layer}.{attr}")
        # rebind names imported from another module (bundle.evaluate, ...)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name, False))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(obj.__func__, name, False)))
            elif isinstance(obj, property) and obj.fset is None:
                self._set(cls, attr, property(self._wrap(obj.fget, name, False), doc=obj.__doc__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run, nbytes, peak) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "bytes": nbytes,
                                     "peak_bytes": peak}) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer counts, self times (s), computed bytes and study peaks."""
    dur = [s["end"] - s["start"] for s in spans]
    self_s = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            self_s[s["parent"]] -= d

    def total(pred, values):
        return sum(v for s, v in zip(spans, values) if pred(s["name"]))

    def layer(name):
        return lambda n: n.split(".", 1)[0] == name

    def named(*names):
        full = set(names)
        return lambda n: n in full

    calls = [1] * len(spans)
    nbytes = [s["bytes"] for s in spans]
    stencil = named(*(f"lattice.{f}" for f in STENCILS))
    io = named(*(f"lattice.{f}" for f in LATTICE_IO))
    m = {
        "lattice.stencil.calls": total(stencil, calls),
        "lattice.stencil.self_s": total(stencil, self_s),
        "lattice.stencil.bytes": total(stencil, nbytes),
        "lattice.io.self_s": total(io, self_s),
        "lattice.io.bytes": total(io, nbytes),
        "su2_algebra.commutator.calls": total(named("su2_algebra.commutator"), calls),
        "su2_algebra.commutator.self_s": total(named("su2_algebra.commutator"), self_s),
        "su2_algebra.transform.self_s": total(
            named(*(f"su2_algebra.{f}" for f in TRANSFORMS)), self_s),
        "su2_algebra.su2_exp.self_s": total(named("su2_algebra.su2_exp"), self_s),
        "su2_algebra.bytes": total(layer("su2_algebra"), nbytes),
        "ansatz_field.field_strength_matrix.self_s": total(
            named("ansatz_field.field_strength_matrix"), self_s),
        "ansatz_field.self_s": total(layer("ansatz_field"), self_s),
        "ansatz_field.build_profile.calls": total(named("ansatz_field.build_profile"), calls),
        "ansatz_field.phase_gradients.calls": total(named("ansatz_field.phase_gradients"), calls),
        "checks.self_s": total(layer("checks"), self_s),
        "cli.self_s": total(layer("cli"), self_s),
        "contraction.calls": total(layer("contraction"), calls),
        "contraction.self_s": total(layer("contraction"), self_s),
        "bundle.calls": total(layer("bundle"), calls),
        "bundle.self_s": total(layer("bundle"), self_s),
        "config.self_s": total(layer("config"), self_s),
        "report.self_s": total(layer("report"), self_s),
        "report.bytes": total(layer("report"), nbytes),
    }
    for study in STUDIES:
        mine = [i for i, s in enumerate(spans) if s["name"] == f"checks.{study}"]
        m[f"checks.{study}.s"] = sum(dur[i] for i in mine)
        m[f"checks.{study}.peak_mb"] = max((spans[i]["peak_bytes"] for i in mine), default=0) / MIB
    return {k: float(v) if k.endswith(("_s", ".s")) else v for k, v in m.items()}
