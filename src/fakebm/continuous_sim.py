"""Grid Monte Carlo for the time-changed construction.

One engine runs both variants, parameterised by a MarginalFamily and a
freeze time t1.  A path runs the family's driver up to t1: the additive
variant starts at x0 ~ N(0, 1) with t1 = 0, the exponential variant runs
exp(B_t - t/2) from 1 and freezes at the window start t1.  If the driver's
value x1 at t1 lies in a gap, the path freezes there until the switch time
t1 + s, where s is drawn from the family's survival ratio; from then on it
follows the driver from t1 on, run on the clock that only ticks while the
driver sits in the active set.  The additive result has N(0, 1 + t)
marginals at every t and is a martingale, but it is not Brownian motion.

Everything is simulated on a uniform grid of width dt.  The occupation clock
uses the left-endpoint rule, and the inverse clock returns the first grid
time at which the clock exceeds its argument.

Each path reads one dedicated RNG substream derived from (seed, path_index),
in this order: the start x0 (unless it is fixed), the switch uniform u, then
the driver's N(0, 1) increments in blocks of _BLOCK steps counted from step
0.  Block by block the Brownian value carries on as b_last + cumsum(z) *
sqrt(dt).  The blocks that reach the freeze step are drawn first; after the
switch time is known, blocks are appended until the clock of the driver
from t1 on exceeds max(t_last - t1 - s, 0), so every path with a finite
switch time lands in the active set.  A path that survives the whole window
(s = inf) draws nothing more.  Chunk size and worker count change no
number, and a path's values at given times do not depend on which later
times are also queried: a later time only appends blocks.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .densities import GAUSSIAN, LOGNORMAL, check_exp_window
from .intervals import IntervalSystem, build_interval_system

__all__ = [
    "path_rng",
    "SimulationResult",
    "iter_fake_grid_chunks",
    "simulate_marginal_samples",
    "simulate_exp_marginal_samples",
]

# driver steps drawn at a time; part of the RNG stream layout
_BLOCK = 4096


def path_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, platform-stable substream for one path."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@dataclass(frozen=True)
class SimulationResult:
    """Values of many paths at the query times.

    values[i, q] is path i at t_queries[q]; frozen[i, q] marks paths frozen
    there, i.e. t1 <= t_queries[q] < switch_times[i].  switch_times, start
    values and the first busy landing value (NaN for a path that never
    switches) come along for conditioning.  resampled is always 0, since no
    path is ever redrawn; it stays because perfbench/tracer.py reads it.
    """

    t_queries: tuple
    values: np.ndarray
    frozen: np.ndarray
    switch_times: np.ndarray
    x0: np.ndarray
    busy_start: np.ndarray
    resampled: int


# ---------- one path ----------


def _brownian(rng, b_last: float, dt: float) -> np.ndarray:
    """The next _BLOCK grid values of a Brownian motion now at b_last."""
    b = np.cumsum(rng.standard_normal(_BLOCK))
    b *= math.sqrt(dt)
    b += b_last
    return b


def _occupation_clock(active: np.ndarray, dt: float) -> np.ndarray:
    """Left-endpoint occupation clock from the active flags along a path.

    clock[k] = dt * #{i < k : active[i]}, so the clock is non-decreasing
    and 1-Lipschitz.
    """
    clock = np.empty(len(active))
    clock[0] = 0.0
    np.cumsum(active[:-1], out=clock[1:])
    clock[1:] *= dt
    return clock


def _time_change(tail: np.ndarray, clock: np.ndarray, s: float, rel: np.ndarray):
    """Values and frozen flags at times rel after the freeze time.

    The path holds tail[0] while rel < s.  At busy time q = rel - s it is
    the driver at the grid point from which the clock crossed q; the
    left-endpoint rule makes that point lie in the active set, and for an
    always-active driver the time change is the identity on the grid.
    """
    frozen = rel < s
    values = np.full(len(rel), tail[0])
    idx = np.searchsorted(clock, rel[~frozen] - s, side="right")
    values[~frozen] = tail[idx - 1]
    return values, frozen


def _extend(rng, family, system, x0, b_last, k, tail, need, dt):
    """Append driver blocks to tail until its clock exceeds need.

    tail holds the driver from the freeze step up to grid step k, where the
    Brownian value is b_last.  Returns the extended tail and its clock.
    """
    parts = [tail]
    flags = [system.contains_many(tail)]
    ticks = int(np.count_nonzero(flags[0][:-1]))
    while ticks * dt <= need:
        b = _brownian(rng, b_last, dt)
        path = family.driver(x0, b, np.arange(k + 1, k + 1 + _BLOCK) * dt)
        active = system.contains_many(path)
        ticks += int(flags[-1][-1]) + int(np.count_nonzero(active[:-1]))
        parts.append(path)
        flags.append(active)
        b_last = b[-1]
        k += _BLOCK
    return np.concatenate(parts), _occupation_clock(np.concatenate(flags), dt)


# ---------- chunked many-path engine ----------


def _simulate_chunk(family, system, t_grid, t1, t2, dt, seed, fixed_start, start, count) -> dict:
    k1 = int(round(t1 / dt))
    n_pre = -(-k1 // _BLOCK)  # blocks that reach the freeze step
    pre = t_grid < t1
    pre_idx = np.round(t_grid[pre] / dt).astype(int)
    rel = t_grid[~pre] - t1
    horizon = float(t_grid.max()) - t1
    values = np.empty((count, len(t_grid)))
    frozen = np.zeros((count, len(t_grid)), dtype=bool)
    x0 = np.empty(count)
    u = np.empty(count)
    busy_start = np.full(count, math.nan)

    # every path's start, uniform and driver up to t1 first, so that one
    # vectorised switch-time inversion serves the whole chunk
    rngs, heads = [], []
    for r in range(count):
        rng = path_rng(seed, start + r)
        x0[r] = family.sample_initial(rng) if fixed_start is None else float(fixed_start)
        u[r] = rng.random()
        while u[r] == 0.0:
            u[r] = rng.random()
        blocks = [np.zeros(1)]
        for _ in range(n_pre):
            blocks.append(_brownian(rng, blocks[-1][-1], dt))
        b = np.concatenate(blocks)
        path = family.driver(x0[r], b, np.arange(len(b)) * dt)
        values[r, pre] = path[pre_idx]
        rngs.append(rng)
        heads.append((b[-1], path[k1:]))
    x1 = np.array([tail[0] for _, tail in heads])
    s = np.zeros(count)
    gap = ~system.contains_many(x1)
    s[gap] = family.switch_times(x1[gap], u[gap], t1, t2)

    for r, (rng, (b_last, tail)) in enumerate(zip(rngs, heads)):
        if math.isinf(s[r]):  # survives the window: frozen from t1 on
            values[r, ~pre] = tail[0]
            frozen[r, ~pre] = True
            continue
        tail, clock = _extend(
            rng, family, system, x0[r], b_last, n_pre * _BLOCK, tail, max(horizon - s[r], 0.0), dt
        )
        values[r, ~pre], frozen[r, ~pre] = _time_change(tail, clock, s[r], rel)
        busy_start[r] = tail[np.searchsorted(clock, 0.0, side="right") - 1]
    return {
        "start": start,
        "values": values,
        "frozen": frozen,
        "switch_times": t1 + s,
        "x0": x0,
        "busy_start": busy_start,
        "resampled": 0,  # never redrawn; perfbench/tracer.py reads the key
    }


def _chunks(family, system, t_grid, t1, t2, n_paths, seed, dt, fixed_start, chunk, workers):
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    payloads = [
        (family, system, t_grid, t1, t2, dt, seed, fixed_start, start, min(chunk, n_paths - start))
        for start in range(0, n_paths, chunk)
    ]
    if workers <= 1:
        for p in payloads:
            yield _simulate_chunk(*p)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_simulate_chunk, *zip(*payloads))


def _collect(t_queries: tuple, parts) -> SimulationResult:
    parts = list(parts)
    return SimulationResult(
        t_queries=t_queries,
        values=np.concatenate([p["values"] for p in parts]),
        frozen=np.concatenate([p["frozen"] for p in parts]),
        switch_times=np.concatenate([p["switch_times"] for p in parts]),
        x0=np.concatenate([p["x0"] for p in parts]),
        busy_start=np.concatenate([p["busy_start"] for p in parts]),
        resampled=0,
    )


def iter_fake_grid_chunks(
    system: IntervalSystem,
    t_grid,
    n_paths: int,
    seed: int,
    dt: float = 1e-4,
    fixed_start: float | None = None,
    chunk: int = 256,
    workers: int = 1,
):
    """Yield per-chunk results of the many-path engine, in path order.

    Each yielded dict holds the chunk's values on t_grid plus per-path switch
    times, starts and busy landing values.  Path i always draws from the
    substream (seed, i): chunk size and worker count change scheduling only,
    never the numbers.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be a non-empty ascending 1-d array")
    if t_grid[0] < 0:
        raise ValueError("query times must be non-negative")
    yield from _chunks(
        GAUSSIAN, system, t_grid, 0.0, math.inf, n_paths, seed, dt, fixed_start, chunk, workers
    )


def simulate_marginal_samples(
    system: IntervalSystem,
    t_queries,
    n_paths: int,
    seed: int,
    dt: float = 1e-4,
    fixed_start: float | None = None,
    chunk: int = 256,
    workers: int = 1,
) -> SimulationResult:
    """Values of n_paths paths of the construction at the query times."""
    t_queries = tuple(float(t) for t in t_queries)
    return _collect(
        t_queries,
        iter_fake_grid_chunks(
            system,
            np.asarray(t_queries),
            n_paths,
            seed,
            dt=dt,
            fixed_start=fixed_start,
            chunk=chunk,
            workers=workers,
        ),
    )


def simulate_exp_marginal_samples(
    window: tuple[float, float, float, float],
    intervals,
    t_queries,
    n_paths: int,
    seed: int,
    dt: float = 2e-4,
    workers: int = 1,
) -> SimulationResult:
    """Values of many exponential-variant paths at the query times.

    window is (a, b, t1, t2): inside the value band (a, b) and the time band
    [t1, t2] the lognormal density is decreasing and x * p(t, x) is concave,
    so the same freeze/time-change game played on the exponential martingale
    exp(B_t - t/2) preserves the lognormal(-t/2, t) marginals.  Before t1 a
    path simply is the exponential martingale; at t1 paths inside a gap of
    the intervals on the domain (a, b) freeze.
    """
    a_lo, b_hi, t1, t2 = window
    if not check_exp_window(a_lo, b_hi, t1, t2):
        raise ValueError("window fails the density/concavity check")
    t_queries = tuple(float(t) for t in t_queries)
    if not all(0.0 <= t <= t2 for t in t_queries):
        raise ValueError("query times must lie in [0, t2]")
    system = build_interval_system(intervals, domain=(a_lo, b_hi))
    return _collect(
        t_queries,
        _chunks(
            LOGNORMAL, system, np.asarray(t_queries), t1, t2, n_paths, seed, dt, None, 256,
            workers,
        ),
    )
