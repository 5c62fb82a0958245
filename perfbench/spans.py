"""Span recorder for the traced benchmark run.

Every public function of the package (the names `cuspcm.__all__` exports,
plus the console entry point `cuspcm.cli.main`) is wrapped at each of its
binding sites in the package's module namespaces, so cross-module imports
and calls inside a module are timed too.  Spans nest through an explicit
stack; per (function, parent) the recorder keeps calls, total time, self
time and every call's duration.  A span's self time is its duration minus
the time its child spans cover, so the self times of all spans under a
root add up to the root's duration.

Functions are named `<module>.<function>` after the module that defines
them.  A function that a later version renames or deletes is simply not
wrapped: metrics that need it come out absent.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import types
from array import array
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# Counters read off a traced function's result, keyed by function name.
RESULT_COUNTERS = {
    "oracle.build_presentation": ("rows", lambda r: len(r.g_basis) + len(r.imf_basis)),
    "oracle.verify_grid": ("cases", lambda r: r.cases),
    "sequences.enumerate_canonical": ("yielded", len),
    "cusp.enumerate_rank": ("kept", lambda r: len(r.families)),
    "quiver.export_dot": ("bytes", lambda r: len(r.encode())),
}


class Recorder:
    """In-memory span aggregates; nothing is written until asked."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open frames: [name, child_s, root]
        self.stats: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, int] = {}
        self.roots: dict[str, float] = {}
        self.root_self: dict[str, float] = {}

    def _open(self, name: str) -> list:
        root = self._stack[-1][2] if self._stack else name
        frame = [name, 0.0, root]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, dt: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        key = (frame[0], parent[0] if parent else None)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0, array("d")]
        own = dt - frame[1]
        st[0] += 1
        st[1] += dt
        st[2] += own
        st[3].append(dt)
        self.root_self[frame[2]] = self.root_self.get(frame[2], 0.0) + own
        if parent is None:
            self.roots[frame[0]] = self.roots.get(frame[0], 0.0) + dt
        else:
            parent[1] += dt

    @contextmanager
    def span(self, name: str):
        frame = self._open(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, perf_counter() - t0)

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _timed_iter(self, name: str, gen):
        # A generator does its work on each next(); time every step.
        counter = RESULT_COUNTERS.get(name)
        while True:
            with self.span(name):
                try:
                    item = next(gen)
                except StopIteration:
                    return
            if counter:
                self.count(f"{name}.{counter[0]}")
            yield item

    def wrap(self, name: str, fn):
        open_, close = self._open, self._close
        counter = RESULT_COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, perf_counter() - t0)
            if isinstance(result, types.GeneratorType):
                return self._timed_iter(name, result)
            if counter:
                try:
                    self.count(f"{name}.{counter[0]}", counter[1](result))
                except (AttributeError, TypeError):
                    pass
            return result

        return traced

    # ------------------------------------------------------------ queries

    def by_function(self, name: str, parent: str | None = ...) -> list | None:
        """calls, total, self and durations of a function, over all parents
        or under one parent; None when it never ran."""
        rows = [
            st for (fn, par), st in self.stats.items()
            if fn == name and (parent is ... or par == parent)
        ]
        if not rows:
            return None
        durations = array("d")
        for st in rows:
            durations.extend(st[3])
        return [
            sum(st[0] for st in rows),
            sum(st[1] for st in rows),
            sum(st[2] for st in rows),
            durations,
        ]

    def check_root(self, name: str, tolerance: float = 0.01) -> tuple[float, float]:
        """(root duration, sum of self times under it); raises when they
        differ by more than the tolerance share of the duration."""
        duration = self.roots[name]
        total = self.root_self[name]
        if abs(total - duration) > tolerance * duration:
            raise AssertionError(
                f"self times under {name} sum to {total:.6f}s, root lasted {duration:.6f}s"
            )
        return duration, total

    def dump(self) -> list[dict]:
        """Aggregates per (function, parent) with a log2 histogram in us."""
        out = []
        for (fn, parent), (calls, total, own, durations) in sorted(
            self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
        ):
            hist: dict[int, int] = {}
            for d in durations:
                b = max(0, math.frexp(d * 1e6)[1])
                hist[b] = hist.get(b, 0) + 1
            out.append({
                "function": fn,
                "parent": parent,
                "calls": calls,
                "total_s": total,
                "self_s": own,
                "hist_log2_us": {f"<{2 ** b}": n for b, n in sorted(hist.items())},
            })
        return out


def public_functions(package) -> dict:
    """Function object -> `<module>.<function>` for the package's exports
    and the CLI entry point."""
    names = {}
    candidates = [getattr(package, n, None) for n in getattr(package, "__all__", ())]
    cli = sys.modules.get(package.__name__ + ".cli")
    if cli is not None:
        candidates.append(getattr(cli, "main", None))
    for obj in candidates:
        if inspect.isfunction(obj) and obj.__module__.startswith(package.__name__):
            names[obj] = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
    return names


def binding_sites(package, functions: dict) -> list[tuple[types.ModuleType, str, object]]:
    """Every (module, attribute) in the package whose value is one of the
    functions."""
    prefix = package.__name__ + "."
    modules = [package] + [
        m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)
    ]
    return [
        (mod, attr, val)
        for mod in modules
        for attr, val in list(vars(mod).items())
        if inspect.isfunction(val) and val in functions
    ]


@contextmanager
def tracing(recorder: Recorder, package):
    """Wrap every binding site of the package's public functions while the
    block runs; restore the originals afterwards."""
    functions = public_functions(package)
    wrappers = {fn: recorder.wrap(name, fn) for fn, name in functions.items()}
    sites = binding_sites(package, functions)
    for mod, attr, fn in sites:
        setattr(mod, attr, wrappers[fn])
    try:
        yield
    finally:
        for mod, attr, fn in sites:
            setattr(mod, attr, fn)


# -------------------------------------------------------- layer metrics


def _self(fn, parent=...):
    return lambda rec: _field(rec.by_function(fn, parent), 2)


def _calls(fn, parent=...):
    return lambda rec: _field(rec.by_function(fn, parent), 0)


def _field(row, i):
    return None if row is None else row[i]


def _pct_us(fn, q):
    def get(rec):
        row = rec.by_function(fn)
        if row is None:
            return None
        d = sorted(row[3])
        if len(d) < 2:
            return d[0] * 1e6
        return statistics.quantiles(d, n=100, method="inclusive")[q - 1] * 1e6
    return get


def _counter(key):
    return lambda rec: rec.counters.get(key)


def _kept_ratio(rec):
    kept = rec.counters.get("cusp.enumerate_rank.kept")
    cand = _calls("sequences.is_aperiodic", "cusp.enumerate_rank")(rec)
    if kept is None or not cand:
        return None
    return kept / cand


def _sum(*getters):
    def get(rec):
        vals = [g(rec) for g in getters]
        return None if None in vals else sum(vals)
    return get


# (metric, unit, read from the recorder).  The cli.* measurements that are
# not spans and trace.overhead_ratio are added by the runner.
LAYER_METRICS = [
    ("oracle.rank_of_h.self_s", "s", _self("oracle.rank_of_h")),
    ("oracle.rank_of_h.calls", "count", _calls("oracle.rank_of_h")),
    ("oracle.rank_of_h.p50_us", "us", _pct_us("oracle.rank_of_h", 50)),
    ("oracle.rank_of_h.p99_us", "us", _pct_us("oracle.rank_of_h", 99)),
    ("oracle.build_presentation.self_s", "s", _self("oracle.build_presentation")),
    ("oracle.build_presentation.rows", "count", _counter("oracle.build_presentation.rows")),
    ("oracle.verify_grid.self_s", "s", _self("oracle.verify_grid")),
    ("oracle.verify_grid.cases", "count", _counter("oracle.verify_grid.cases")),
    ("oracle.oracle_dims.self_s", "s", _self("oracle.oracle_dims")),
    ("oracle.oracle_dims.calls", "count", _calls("oracle.oracle_dims")),
    ("cohomology.cohom_dims.self_s", "s", _self("cohomology.cohom_dims")),
    ("cohomology.cohom_dims.calls", "count", _calls("cohomology.cohom_dims")),
    ("cohomology.module_rank.self_s", "s", _self("cohomology.module_rank")),
    ("cohomology.n_global.self_s", "s", _self("cohomology.n_global")),
    ("cohomology.kahn_condition.calls", "count", _calls("cohomology.kahn_condition")),
    ("sequences.enumerate_canonical.self_s", "s", _self("sequences.enumerate_canonical")),
    ("sequences.enumerate_canonical.yielded", "count",
     _counter("sequences.enumerate_canonical.yielded")),
    ("cusp.enumerate_rank.self_s", "s", _self("cusp.enumerate_rank")),
    ("cusp.enumerate_rank.calls", "count", _calls("cusp.enumerate_rank")),
    ("cusp.enumerate_rank.candidates", "count",
     _calls("sequences.is_aperiodic", "cusp.enumerate_rank")),
    ("cusp.enumerate_rank.kept", "count", _counter("cusp.enumerate_rank.kept")),
    ("cusp.enumerate_rank.kept_ratio", "ratio", _kept_ratio),
    ("cusp.enumerate_rank.filter_self_s", "s", _sum(
        _self("sequences.is_aperiodic", "cusp.enumerate_rank"),
        _self("sequences.canonical_form", "cusp.enumerate_rank"),
    )),
    ("cusp.family_counts.self_s", "s", _self("cusp.family_counts")),
    ("cusp.classify_label.self_s", "s", _self("cusp.classify_label")),
    ("cusp.classify_label.calls", "count", _calls("cusp.classify_label")),
    ("quiver.ar_sequence.self_s", "s", _self("quiver.ar_sequence")),
    ("quiver.ar_sequence.calls", "count", _calls("quiver.ar_sequence")),
    ("quiver.cusp_quiver.self_s", "s", _self("quiver.cusp_quiver")),
    ("quiver.tpq_quiver.self_s", "s", _self("quiver.tpq_quiver")),
    ("quiver.build_tube.self_s", "s", _self("quiver.build_tube")),
    ("quiver.export_dot.self_s", "s", _self("quiver.export_dot")),
    ("quiver.export_dot.bytes", "count", _counter("quiver.export_dot.bytes")),
    ("tpq.is_sigma_symmetric.self_s", "s", _self("tpq.is_sigma_symmetric")),
    ("tpq.is_sigma_symmetric.calls", "count", _calls("tpq.is_sigma_symmetric")),
    ("tpq.apply_sigma.self_s", "s", _self("tpq.apply_sigma")),
    ("tpq.descend.self_s", "s", _self("tpq.descend")),
    ("tpq.descend.calls", "count", _calls("tpq.descend")),
    ("cli.main.self_s", "s", _self("cli.main")),
]
