"""Span tracer for the traced benchmark run.

Wraps the public functions of the fakebm modules from outside, so the
package itself carries no timers.  Each call records one span
(id, parent id, name, start, end, n) in memory; n is the work count the
call carries (points tested, paths yielded, dict entries produced).  The
spans are written out once the traced call has finished.

A few public helpers are called once per array element or per lattice
site (pmf_value, lazy_hazard, lognormal_survival_ratio); wrapping them
would cost more than the work they do, so their time stays in the self
time of their caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = (
    "intervals",
    "densities",
    "continuous_sim",
    "analysis",
    "discrete_chain",
    "lazy_walk",
    "cli",
)
PER_ELEMENT = {"pmf_value", "lazy_hazard", "lognormal_survival_ratio"}

CONTAINS = "intervals.contains_many"
INVERT = "densities.invert_survival_ratio"
CHUNKS = "continuous_sim.iter_fake_grid_chunks"
EXP_ENGINE = "continuous_sim.simulate_exp_marginal_samples"
ENGINE = {CHUNKS, EXP_ENGINE}
EVOLVE = "discrete_chain.evolve"
KERNEL_ROWS = {"discrete_chain.busy_transition", "discrete_chain.switch_jump"}
DEVIATION = "discrete_chain.max_marginal_deviation"
MARGINAL = "discrete_chain.marginal"  # called only by the deviation check
PMF = "lazy_walk.pmf"
CLI_MAIN = "cli.main"

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("intervals.contains_many.s", "s"),
    ("intervals.contains_many.points", "count"),
    ("continuous_sim.engine.s", "s"),
    ("continuous_sim.engine_self.s", "s"),
    ("continuous_sim.points_per_path", "count"),
    ("continuous_sim.resampled", "count"),
    ("densities.invert_survival_ratio.s", "s"),
    ("densities.invert_survival_ratio.points", "count"),
    ("analysis.self.s", "s"),
    ("discrete_chain.kernel_rows.s", "s"),
    ("discrete_chain.evolve.s", "s"),
    ("discrete_chain.evolve.calls", "count"),
    ("discrete_chain.max_marginal_deviation.s", "s"),
    ("discrete_chain.state_entries", "count"),
    ("lazy_walk.pmf.s", "s"),
    ("lazy_walk.pmf.calls", "count"),
    ("cli.self.s", "s"),
)
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit == "count")


def _size_of_first(args, kwargs, result):
    return int(np.size(args[0] if args else kwargs["x"]))


def _size_of_method_arg(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _state_entries(args, kwargs, result):
    return len(result.busy) + len(result.lazy)


def _exp_paths(args, kwargs, result):
    return int(result.values.shape[0])


# span name -> function(args, kwargs, result) giving the span's work count n
WORK_COUNTS = {
    CONTAINS: _size_of_method_arg,
    INVERT: _size_of_first,
    EVOLVE: _state_entries,
    EXP_ENGINE: _exp_paths,
}


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans = []
        self.resampled = 0
        self._stack = []

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid, name, t0, n):
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (sid, parent, name, t0, t1, n)

    def wrap(self, name, fn):
        work = WORK_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, t0 = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                n = work(args, kwargs, result) if work and result is not None else 0
                self._close(sid, name, t0, n)
            if name == EXP_ENGINE:
                self.resampled += int(result.resampled)
            return result

        return traced

    def wrap_chunks(self, name, gen_fn):
        """Trace a chunk generator: one span per chunk it yields."""

        @functools.wraps(gen_fn)
        def traced(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                sid, t0 = self._open()
                part = None
                try:
                    part = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid, name, t0, 0 if part is None else len(part["values"]))
                self.resampled += int(part["resampled"])
                yield part

        return traced


def install(tracer: Tracer):
    """Replace every traced fakebm function, in every module that holds it."""
    mods = [importlib.import_module("fakebm." + m) for m in MODULES]
    replaced = {}
    for short, mod in zip(MODULES, mods):
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or attr in PER_ELEMENT:
                continue
            name = f"{short}.{attr}"
            if inspect.isgeneratorfunction(fn):
                replaced[fn] = tracer.wrap_chunks(name, fn)
            else:
                replaced[fn] = tracer.wrap(name, fn)
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(mod, attr, replaced[value])
    system_cls = importlib.import_module("fakebm.intervals").IntervalSystem
    system_cls.contains_many = tracer.wrap(CONTAINS, system_cls.contains_many)


def layer_metrics(spans, resampled: int) -> dict:
    """Per-layer metrics of one traced run (see LAYER_METRICS).

    resampled is the redraw count the engine reported in its results.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, name, t0, t1, n in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

    def in_engine(sid):
        parent = by_id[sid][1]
        while parent >= 0:
            if by_id[parent][2] in ENGINE:
                return True
            parent = by_id[parent][1]
        return False

    total = dict.fromkeys((name for name, _ in LAYER_METRICS), 0)
    engine_points = engine_paths = 0
    engine_children = 0.0
    for sid, parent, name, t0, t1, n in spans:
        dur = t1 - t0
        self_time = dur - child_time.get(sid, 0.0)
        module = name.split(".")[0]
        if name == CONTAINS:
            total["intervals.contains_many.s"] += dur
            total["intervals.contains_many.points"] += n
        elif name == INVERT:
            total["densities.invert_survival_ratio.s"] += dur
            total["densities.invert_survival_ratio.points"] += n
        elif name in ENGINE:
            total["continuous_sim.engine.s"] += dur
            engine_paths += n
        elif name in KERNEL_ROWS:
            total["discrete_chain.kernel_rows.s"] += dur
        elif name == EVOLVE:
            # self time: the first step builds the kernel rows, counted apart
            total["discrete_chain.evolve.s"] += self_time
            total["discrete_chain.evolve.calls"] += 1
            total["discrete_chain.state_entries"] += n
        elif name == DEVIATION:
            total["discrete_chain.max_marginal_deviation.s"] += self_time
        elif name == MARGINAL:
            total["discrete_chain.max_marginal_deviation.s"] += dur
        elif name == PMF:
            total["lazy_walk.pmf.s"] += dur
            total["lazy_walk.pmf.calls"] += 1
        elif name == CLI_MAIN:
            total["cli.self.s"] += self_time
        if module == "analysis":
            total["analysis.self.s"] += self_time
        if name in (CONTAINS, INVERT) and in_engine(sid):
            engine_children += dur
            if name == CONTAINS:
                engine_points += n
    total["continuous_sim.engine_self.s"] = total["continuous_sim.engine.s"] - engine_children
    total["continuous_sim.points_per_path"] = engine_points / engine_paths if engine_paths else 0
    total["continuous_sim.resampled"] = resampled
    return total


def named_self_time(metrics: dict) -> float:
    """Sum of the disjoint self times among the per-layer metrics.

    engine.s is left out because engine_self.s plus the contains_many and
    invert_survival_ratio time inside it already cover it.
    """
    parts = (
        "intervals.contains_many.s",
        "continuous_sim.engine_self.s",
        "densities.invert_survival_ratio.s",
        "analysis.self.s",
        "discrete_chain.kernel_rows.s",
        "discrete_chain.evolve.s",
        "discrete_chain.max_marginal_deviation.s",
        "lazy_walk.pmf.s",
        "cli.self.s",
    )
    return sum(metrics[p] for p in parts)
