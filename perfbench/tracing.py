"""Layer-boundary spans for the parakat benchmark, recorded from outside src/.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper wherever a ``parakat`` module holds that function,
including the defining module itself.  A wrapped call records a span only
when it crosses a layer boundary: a call made while the innermost open span
belongs to the same layer runs the original function directly.  Calls from
generator functions return a generator whose every ``next()`` is a span of
the generating layer.

Spans (name, layer, start, end, parent) stay in compact arrays until
``write`` dumps them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import statistics
from array import array
from time import perf_counter

LAYERS = ("rtuples", "rperms", "tableaux", "polys", "verify", "cli")
SET_BUILDERS = ("demazure_set", "row_bound_set", "ideal", "z_set")
BENCH = -1  # parent id of spans opened by the benchmark itself


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "layer.function", indexed by name id
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.yielded: list[int] = []
        self.span_name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[tuple[int, str | None]] = [(BENCH, None)]
        self._off = [True]
        # set-builder and polynomial observations
        self.tableaux_out = 0
        self.peak_set_size = 0
        self.ssyt_total = 0
        self.repeat_builds = 0
        self.terms_out = 0
        self._seen_builds: set = set()
        self._ssyt: dict = {}

    # -- installation

    def install(self) -> None:
        modules = {name: importlib.import_module(f"parakat.{name}") for name in LAYERS}
        count_tableaux = modules["tableaux"].count_tableaux
        polynomial = modules["polys"].Polynomial
        wrapped = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                hook = None
                if layer == "tableaux" and name in SET_BUILDERS:
                    hook = self._set_hook(name, count_tableaux)
                elif layer == "polys":
                    hook = self._poly_hook(polynomial)
                wrapped[id(fn)] = self._wrap(fn, layer, name, hook)
        holders = [importlib.import_module("parakat"), *modules.values()]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    setattr(holder, attr, wrapped[id(value)])

    def _wrap(self, fn, layer, name, hook):
        nid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        self.calls.append(0)
        self.yielded.append(0)
        stack, off, calls = self._stack, self._off, self.calls
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        yielded = self.yielded

        def open_span():
            sid = len(start)
            span_name.append(nid)
            parent.append(stack[-1][0])
            start.append(0.0)
            end.append(0.0)
            stack.append((sid, layer))
            return sid

        if inspect.isgeneratorfunction(fn):
            def spans_over(gen):
                while True:
                    sid = open_span()
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        start[sid] = t0
                        end[sid] = t1
                    yielded[nid] += 1
                    yield item

            def wrapper(*args, **kwargs):
                if off[0] or stack[-1][1] == layer:
                    return fn(*args, **kwargs)
                calls[nid] += 1
                return spans_over(fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                if off[0] or stack[-1][1] == layer:
                    return fn(*args, **kwargs)
                calls[nid] += 1
                sid = open_span()
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    start[sid] = t0
                    end[sid] = t1
                if hook is not None:
                    hook(args, kwargs, out)
                return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _set_hook(self, name, count_tableaux):
        def hook(args, kwargs, out):
            size = len(out)
            self.tableaux_out += size
            self.peak_set_size = max(self.peak_set_size, size)
            shape = out.shape
            if shape not in self._ssyt:
                self._ssyt[shape] = count_tableaux(shape)
            self.ssyt_total += self._ssyt[shape]
            key = (name, args, tuple(sorted(kwargs.items())))
            if key in self._seen_builds:
                self.repeat_builds += 1
            else:
                self._seen_builds.add(key)
        return hook

    def _poly_hook(self, polynomial):
        def hook(args, kwargs, out):
            poly = getattr(out, "poly", out)
            if isinstance(poly, polynomial):
                self.terms_out += len(poly.terms)
        return hook

    def enable(self, on: bool) -> None:
        self._off[0] = not on

    # -- analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p != BENCH:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics; ``wall_s`` is the traced job's wall time."""
        own = self.self_times()
        by_name = [0.0] * len(self.names)
        for nid, s in zip(self.span_name, own):
            by_name[nid] += s
        ids = {name: nid for nid, name in enumerate(self.names)}

        def self_s(name):
            return by_name[ids[name]]

        m: dict[str, float] = {}
        for layer in LAYERS:
            nids = [i for i, l in enumerate(self.layer_of) if l == layer]
            m[f"{layer}.calls"] = sum(self.calls[i] for i in nids)
            m[f"{layer}.self_s"] = sum(by_name[i] for i in nids)
            m[f"{layer}.share"] = m[f"{layer}.self_s"] / wall_s
        m["rtuples.yielded"] = self.yielded[ids["rtuples.enumerate_tuples"]] + self.yielded[ids["rtuples.enumerate_critical_lists"]]
        m["rtuples.enumerate_tuples.self_s"] = self_s("rtuples.enumerate_tuples")
        m["rtuples.core.self_s"] = self_s("rtuples.core")
        m["rperms.yielded"] = self.yielded[ids["rperms.enumerate_rperms"]]
        m["rperms.enumerate_rperms.self_s"] = self_s("rperms.enumerate_rperms")
        m["rperms.count_cnr.self_s"] = self_s("rperms.count_cnr")

        builders = {ids[f"tableaux.{b}"] for b in SET_BUILDERS}
        build_ms = sorted(
            (self.end[i] - self.start[i]) * 1e3 for i, nid in enumerate(self.span_name) if nid in builders
        )
        built = sum(self.calls[i] for i in builders)
        m["tableaux.sets_built"] = built
        m["tableaux.set_build.self_s"] = sum(by_name[i] for i in builders)
        m["tableaux.set_build.p50_ms"] = percentile(build_ms, 0.5)
        m["tableaux.set_build.p90_ms"] = percentile(build_ms, 0.9)
        m["tableaux.tableaux_out"] = self.tableaux_out
        m["tableaux.peak_set_size"] = self.peak_set_size
        m["tableaux.is_convex.self_s"] = self_s("tableaux.is_convex")
        m["tableaux.kept_per_ssyt"] = self.tableaux_out / self.ssyt_total if self.ssyt_total else 0.0
        m["tableaux.repeat_build_frac"] = self.repeat_builds / built if built else 0.0
        m["polys.gen_fn.self_s"] = self_s("polys.gen_fn")
        m["polys.demazure_poly_dd.self_s"] = self_s("polys.demazure_poly_dd")
        m["polys.terms_out"] = self.terms_out

        main_id = ids["cli.main"]
        main_ms = sorted(s * 1e3 for nid, s in zip(self.span_name, own) if nid == main_id)
        m["cli.self.p50_ms"] = percentile(main_ms, 0.5)
        m["trace.spans"] = len(self.start)
        return m

    def write(self, path) -> None:
        """Dump every span as tab-separated name, layer, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tlayer\tstart\tend\tparent\n")
            for i, nid in enumerate(self.span_name):
                fh.write(f"{self.names[nid]}\t{self.layer_of[nid]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")


def percentile(sorted_values, q: float) -> float:
    """Inclusive-method quantile of presorted values; 0 for no values."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    cuts = statistics.quantiles(sorted_values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
