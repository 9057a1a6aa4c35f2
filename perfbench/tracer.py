"""Spans around the public functions of each spherehess module.

Nothing under ``src/`` is edited: :func:`install` replaces every public
function on its module (and every other binding of it inside the package,
such as the names ``spherehess.cli`` imports with ``from ... import``) by a
wrapper that records a span.  A layer is a module.  Spans are recorded only
while an op is open (``Tracer.op_id >= 0``), so set-up and output checks
leave no trace.

Spans stay in memory as flat arrays and are written once, by
:meth:`Tracer.dump`, when the process ends.  :func:`summarize` turns a dump
into per-name call counts and self times (span time minus the time of its
direct child spans).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "spectrum", "ktypes", "exact", "greens", "symbols",
          "qcurv", "confgroup")

# Recursion tables (many small ones in ``verify --suite spectrum``, one
# large one in the library workload) and radial-profile constructions: the
# distinct argument tuples over the calls give the share of repeated work.
TABLE_BUILDERS = ("spectrum.spectrum_generate", "spectrum.spectrum_generate3")
TABLE_PRODUCERS = TABLE_BUILDERS + ("spectrum.closed_form_table",)
PROFILE_BUILDERS = ("greens.green_L_profile", "greens.green_L2_profile",
                    "greens.green_D2_profile")


class Tracer:
    """In-memory span store: one row per span, rows in opening order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def error(self, idx: int) -> None:
        """Count an error once per layer boundary it crosses."""
        layer = _layer(self.names[self.name[idx]])
        par = self.parent[idx]
        if par < 0 or _layer(self.names[self.name[par]]) != layer:
            self.errors[layer] += 1

    def dump(self, path: str) -> None:
        """Write the header as JSON to ``path`` and the span rows beside it."""
        header = {
            "names": self.names,
            "spans": len(self.name),
            "counts": dict(self.counts),
            "errors": dict(self.errors),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        with open(path, "w") as fh:
            json.dump(header, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _wrap(tracer: Tracer, name: str, fn):
    from spherehess.errors import SphereHessError

    nid = tracer.name_id(name)
    builds = name in TABLE_BUILDERS or name in PROFILE_BUILDERS
    produces = name in TABLE_PRODUCERS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op_id < 0:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except SphereHessError:
            tracer.error(idx)
            raise
        finally:
            tracer.close(idx)
        if builds:
            tracer.distinct[name].add((args, tuple(sorted(kwargs.items()))))
        if produces:
            tracer.counts["spectrum.entries"] += len(result.entries)
        return result

    return wrapper


def _wrap_pullback(tracer: Tracer, wrapped_pullback_field):
    """Time the ``raw`` of every field ``pullback_field`` returns."""
    nid = tracer.name_id("confgroup.pullback")

    @functools.wraps(wrapped_pullback_field)
    def pullback_field(a, fld):
        pulled = wrapped_pullback_field(a, fld)
        raw = pulled.raw

        def timed_raw(ys):
            if tracer.op_id < 0:
                return raw(ys)
            tracer.counts["confgroup.pullback.nodes"] += len(ys)
            idx = tracer.open(nid)
            try:
                return raw(ys)
            finally:
                tracer.close(idx)

        return dataclasses.replace(pulled, raw=timed_raw)

    return pullback_field


def _public_functions(module, package_exports: set[str]):
    declared = set(getattr(module, "__all__", ())) | package_exports
    for attr, value in vars(module).items():
        if (attr in declared and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr, value


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module of spherehess."""
    import importlib

    import spherehess

    modules = {layer: importlib.import_module(f"spherehess.{layer}")
               for layer in LAYERS}
    exports = set(spherehess.__all__)
    replaced = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module, exports):
            wrapper = _wrap(tracer, f"{layer}.{attr}", fn)
            if (layer, attr) == ("confgroup", "pullback_field"):
                wrapper = _wrap_pullback(tracer, wrapper)
            replaced[fn] = wrapper
    # Rebind every name that refers to an original, wherever it was bound:
    # the defining module, the modules that import it by name, the package.
    for module in [spherehess, *modules.values()]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])

    ktype = modules["ktypes"].KType
    original_post_init = ktype.__post_init__

    def __post_init__(self) -> None:
        if tracer.op_id >= 0:
            tracer.counts["ktypes.ktype_new"] += 1
        original_post_init(self)

    ktype.__post_init__ = __post_init__


def load(path: str) -> dict:
    """Read a dump and return its header with the span rows attached."""
    with open(path) as fh:
        header = json.load(fh)
    count = header["spans"]
    rows = {}
    with open(path + ".bin", "rb") as fh:
        for key, code in (("name", "i"), ("parent", "i"), ("op", "i"),
                          ("start", "d"), ("end", "d")):
            arr = array(code)
            arr.fromfile(fh, count)
            rows[key] = arr
    header["rows"] = rows
    return header


def summarize(dump: dict) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and ``self_s`` (own time minus children)."""
    rows = dump["rows"]
    name, parent, start, end = rows["name"], rows["parent"], rows["start"], rows["end"]
    child = [0.0] * len(name)
    for idx in range(len(name)):
        par = parent[idx]
        if par >= 0:
            child[par] += end[idx] - start[idx]
    out: dict[str, dict[str, float]] = {}
    names = dump["names"]
    for idx in range(len(name)):
        entry = out.setdefault(names[name[idx]], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end[idx] - start[idx] - child[idx]
    return out
