"""Spans around the public functions of every onepoint module.

The benchmark's own code does the tracing; the package is not changed.
:meth:`Tracer.install` rebinds each public function of each layer module
to a wrapper wherever the package binds it (``from .points import
enumerate_interior`` makes a second binding in every importing module),
and :meth:`Tracer.uninstall` puts the originals back.  A wrapper records a
span (function, start, end, parent span, op id) in memory; self times and
work counters are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from math import prod
from pathlib import Path
from time import perf_counter

PACKAGE = "onepoint"
LAYERS = ("cli", "generators", "certificate", "bounds", "points", "simplex", "exact")
MARK = "_traced_original"  # attribute carried by every wrapper
OBSERVE = "trace.observe"  # pseudo-span: the tracer's own counter work

# functions whose call counts or self times are reported by name
NAMED_CALLS = (
    "bounds.partition_ratio",
    "exact.det_rat",
    "bounds.interior_coordinates",
    "simplex.barycentric_of",
    "simplex.normalized_volume",
    "exact.snf_divisors",
    "exact.col_hnf",
    "exact.invert_rat",
    "certificate.minkowski_solve",
)
# functions whose self and inclusive times are reported by name
NAMED_SELF = ("certificate.minkowski_solve", "bounds.parallelotope_check", "exact.col_hnf")

PER_LAYER = (
    [(f"{layer}.calls", "count/op") for layer in LAYERS]
    + [(f"{layer}.self_frac", "frac") for layer in LAYERS]
    + [
        ("points.box_candidates", "count/op"),
        ("points.prefix_rows", "count/op"),
        ("points.points_emitted", "count/op"),
        ("points.emitted_per_row", "ratio"),
        ("points.repeat_calls", "count/op"),
        ("certificate.found_ratio", "frac"),
        ("generators.col_hnf_per_class", "ratio"),
        ("cli.output_bytes", "bytes/op"),
    ]
    + [(f"{name}.calls", "count/op") for name in NAMED_CALLS]
    + [(f"{name}.{part}_frac", "frac") for name in NAMED_SELF for part in ("self", "incl")]
    + [
        ("trace.op_ms", "ms"),
        ("trace.overhead_frac", "frac"),
        ("trace.unattributed_frac", "frac"),
    ]
)


def _public_functions(module) -> dict[str, object]:
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or hasattr(value, "cache_info"))
        and getattr(value, "__module__", None) == module.__name__
    }


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def leftover_wrappers() -> list[str]:
    """Bindings in the package that still hold a wrapper."""
    return [
        f"{module.__name__}.{name}"
        for module in package_modules()
        for name, value in vars(module).items()
        if hasattr(value, MARK)
    ]


def _box(vertices) -> tuple[int, int]:
    sides = [max(v[c] for v in vertices) - min(v[c] for v in vertices) + 1
             for c in range(len(vertices[0]))]
    return prod(sides), max(sides)


def _key(name: str, args: tuple, kwargs: dict):
    key = (name, args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return (name, repr(args), repr(sorted(kwargs.items())))
    return key


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._seen: set = set()
        self._bound: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self.op = -1
        self.observe_id = self._name_id(OBSERVE)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen = set()

    # -- binding ----------------------------------------------------------

    def install(self) -> None:
        if self._bound:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
                for name, fn in _public_functions(module).items():
                    self._wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._bound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._bound:
            module, attr, original = self._bound.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        fid = self._name_id(name)
        spans, stack = self.spans, self._stack
        observe = self._observer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (fid, start, end, parent, self.op)
            if observe is not None:
                observe(args, kwargs, result)
                spans.append((self.observe_id, end, perf_counter(), parent, self.op))
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- counters ---------------------------------------------------------

    def _observer(self, name: str):
        c = self.counters
        if name == "certificate.second_interior_point":
            def observe(args, kwargs, result):
                c["certificate.cert_calls"] += 1
                c["certificate.found"] += result is not None
            return observe
        if name == "generators.onepoint_triangle_atlas":
            def observe(args, kwargs, result):
                c["generators.classes"] += len(result.classes)
            return observe
        if not name.startswith("points."):
            return None

        def observe(args, kwargs, result):
            key = _key(name, args, kwargs)
            if key in self._seen:
                c["points.repeat_calls"] += 1
                return
            self._seen.add(key)
            # box work of the scans a first call with these arguments runs
            if name == "points.enumerate_interior":
                sides = [hi - lo + 1 for lo, hi in result.scanned_box]
                cands, longest = prod(sides), max(sides)
                emitted = len(result.points)
            elif name == "points.count_face_points":
                simplex = args[0]
                omitted = set(args[1] if len(args) > 1 else kwargs.get("omitted", ()))
                kept = [v for j, v in enumerate(simplex.vertices) if j not in omitted]
                cands, longest = _box(kept)
                emitted = result
            else:
                return
            c["points.box_candidates"] += cands
            c["points.prefix_rows"] += cands // longest
            c["points.points_emitted"] += emitted

        return observe

    # -- results ----------------------------------------------------------

    def summarize(self, ops: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics per traced op; shares are of the traced op time."""
        spans = self.spans  # every placeholder is filled once its call returns
        self_s = [end - start for _, start, end, _, _ in spans]
        for fid, start, end, parent, _ in spans:
            if parent >= 0:
                self_s[parent] -= end - start
        calls: Counter = Counter()
        fn_self: defaultdict = defaultdict(float)
        fn_incl: defaultdict = defaultdict(float)  # none of the named functions recurses
        for (fid, start, end, _, _), own in zip(spans, self_s):
            calls[self.names[fid]] += 1
            fn_self[self.names[fid]] += own
            fn_incl[self.names[fid]] += end - start
        layer_calls: Counter = Counter()
        layer_self: defaultdict = defaultdict(float)
        for name, count in calls.items():
            layer = name.split(".")[0]
            layer_calls[layer] += count
            layer_self[layer] += fn_self[name]
        c = self.counters
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer] / ops
            out[f"{layer}.self_frac"] = layer_self[layer] / traced_s
        for key in ("box_candidates", "prefix_rows", "points_emitted", "repeat_calls"):
            out[f"points.{key}"] = c[f"points.{key}"] / ops
        out["points.emitted_per_row"] = _ratio(c["points.points_emitted"], c["points.prefix_rows"])
        out["certificate.found_ratio"] = _ratio(c["certificate.found"], c["certificate.cert_calls"])
        out["generators.col_hnf_per_class"] = _ratio(calls["exact.col_hnf"], c["generators.classes"])
        out["cli.output_bytes"] = c["cli.output_bytes"] / ops
        for name in NAMED_CALLS:
            out[f"{name}.calls"] = calls[name] / ops
        for name in NAMED_SELF:
            out[f"{name}.self_frac"] = fn_self[name] / traced_s
            out[f"{name}.incl_frac"] = fn_incl[name] / traced_s
        attributed = sum(layer_self[layer] for layer in LAYERS)
        out["trace.op_ms"] = traced_s / ops * 1000
        out["trace.overhead_frac"] = traced_s / untraced_s - 1
        out["trace.unattributed_frac"] = 1 - attributed / traced_s
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\top\tname\tstart_s\tend_s\tparent_span\n")
            for index, (fid, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index}\t{op}\t{self.names[fid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
