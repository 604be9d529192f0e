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
uses the left-endpoint rule: it ticks dt at each grid step whose value lies
in the active set, so after c ticks it reads c * dt and is never stored.
The inverse clock at busy time q is the step of tick c for the largest c
with c * dt <= q, the last grid time at which the clock has not passed q.

Each path reads one dedicated RNG substream derived from (seed, path_index),
in this order: the start x0 (unless it is fixed), the switch uniform u, then
the driver's N(0, 1) increments in blocks of _BLOCK steps counted from step
0.  Block by block the Brownian value carries on as b_last + cumsum(z) *
sqrt(dt).  A path draws only the steps it uses, in as many calls as it
needs, and the values do not depend on how the steps are split into calls:
first exactly the steps up to the freeze step, then, after the switch time
is known, more steps until the clock of the driver from t1 on exceeds
max(t_last - t1 - s, 0), so every path with a finite switch time lands in
the active set.  A path that survives the whole window (s = inf) draws
nothing more.  Chunk size and worker count change no number, and a path's
values at given times do not depend on which later times are also queried:
a later time only appends steps.
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

# the driver's increments are summed in blocks of this many steps; part of
# the RNG stream layout
_BLOCK = 4096
# fewest driver steps one top-up of a busy path draws; changes no value
_MIN_DRAW = 512
# paths per chunk, the unit of work of one worker; changes no value
_CHUNK = 256


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


def _brownian(rng, state: tuple, n: int, dt: float):
    """The next n grid values of the driver's Brownian motion, and its state.

    state is (b0, psum, pos): the Brownian value at the last _BLOCK boundary,
    and the unscaled sum of the pos increments drawn since.  Within a block
    the values are b0 + cumsum(z) * sqrt(dt); a continued block adds psum to
    its first new increment before the cumsum, so the values are bit for bit
    those of whole-block draws however the n steps are split into calls.
    """
    b0, psum, pos = state
    parts = [np.empty(0)]
    while n > 0:
        take = min(n, _BLOCK - pos)
        z = rng.standard_normal(take)
        z[0] += psum
        b = np.cumsum(z)
        psum = b[-1]
        b *= math.sqrt(dt)
        b += b0
        parts.append(b)
        n -= take
        pos += take
        if pos == _BLOCK:
            b0, psum, pos = b[-1], 0.0, 0
    return np.concatenate(parts), (b0, psum, pos)


def _ticks_within(q: np.ndarray, dt: float) -> np.ndarray:
    """Largest count c with fl(c * dt) <= q, elementwise, for q >= 0.

    floor(q / dt) is off by at most one either way, so one step down where
    c * dt overshoots q and one step up where (c + 1) * dt still fits settle
    it.  fl(c * dt) grows with c, so the answer is unique.
    """
    c = np.floor(q / dt)
    c -= c * dt > q
    c += (c + 1.0) * dt <= q
    return c.astype(np.intp)


def _time_change(tail: np.ndarray, ticks: np.ndarray, s: float, rel: np.ndarray, dt: float):
    """Values and frozen flags at the ascending times rel after the freeze time.

    The path holds tail[0] while rel < s.  At busy time q = rel - s it is
    the driver at the grid point from which the clock crossed q.  ticks are
    the grid steps at which the driver sits in the active set, so after c
    ticks the left-endpoint clock reads fl(c * dt) and that point is
    tail[ticks[c]] for the largest c with fl(c * dt) <= q: a point of the
    active set, and for an always-active driver the time change is the
    identity on the grid.
    """
    n_frozen = int(np.searchsorted(rel, s))
    frozen = np.zeros(len(rel), dtype=bool)
    frozen[:n_frozen] = True
    values = np.empty(len(rel))
    values[:n_frozen] = tail[0]
    values[n_frozen:] = tail[ticks[_ticks_within(rel[n_frozen:] - s, dt)]]
    return values, frozen


def _extend(rng, family, system, x0, state, k, tail, need, dt):
    """Append driver steps to tail until its clock exceeds need.

    tail holds the driver from the freeze step up to grid step k, where the
    Brownian motion is in state (see _brownian).  The left-endpoint clock
    ticks dt at every step but the last whose value lies in the active set,
    at most dt a step, so each top-up draws the fewest steps that could
    still be enough, but at least _MIN_DRAW.  Returns the extended tail and
    its ticks, the indices of the steps at which the clock ticks.
    """
    parts = [tail]
    flags = [system.contains_many(tail)]
    ticks = int(np.count_nonzero(flags[0][:-1]))
    while ticks * dt <= need:
        n = max(int(need / dt) + 1 - ticks, _MIN_DRAW)
        b, state = _brownian(rng, state, n, dt)
        path = family.driver(x0, b, np.arange(k + 1, k + 1 + n) * dt)
        active = system.contains_many(path)
        ticks += int(flags[-1][-1]) + int(np.count_nonzero(active[:-1]))
        parts.append(path)
        flags.append(active)
        k += n
    return np.concatenate(parts), np.flatnonzero(np.concatenate(flags)[:-1])


# ---------- chunked many-path engine ----------


def _simulate_chunk(family, system, t_grid, t1, t2, dt, seed, fixed_start, start, count) -> dict:
    k1 = int(round(t1 / dt))
    n_pre = int(np.searchsorted(t_grid, t1))  # the query times before t1
    # the driver up to t1 is read only at those times' steps and at t1
    read = np.append(np.round(t_grid[:n_pre] / dt).astype(int), k1)
    t_read = read * dt
    rel = t_grid[n_pre:] - t1
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
        b, state = _brownian(rng, (0.0, 0.0, 0), k1, dt)
        path = family.driver(x0[r], np.concatenate([[0.0], b])[read], t_read)
        values[r, :n_pre] = path[:-1]
        rngs.append(rng)
        heads.append((state, path[-1:]))
    x1 = np.array([tail[0] for _, tail in heads])
    s = np.zeros(count)
    gap = ~system.contains_many(x1)
    s[gap] = family.switch_times(x1[gap], u[gap], t1, t2)

    for r, (rng, (state, tail)) in enumerate(zip(rngs, heads)):
        if math.isinf(s[r]):  # survives the window: frozen from t1 on
            values[r, n_pre:] = tail[0]
            frozen[r, n_pre:] = True
            continue
        tail, ticks = _extend(
            rng, family, system, x0[r], state, k1, tail, max(horizon - s[r], 0.0), dt
        )
        values[r, n_pre:], frozen[r, n_pre:] = _time_change(tail, ticks, s[r], rel, dt)
        busy_start[r] = tail[ticks[0]]
    return {
        "start": start,
        "values": values,
        "frozen": frozen,
        "switch_times": t1 + s,
        "x0": x0,
        "busy_start": busy_start,
        "resampled": 0,  # never redrawn; perfbench/tracer.py reads the key
    }


def _chunks(family, system, t_grid, t1, t2, n_paths, seed, dt, fixed_start, workers):
    # the query-time checks of both samplers
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or not np.all(np.diff(t_grid) >= 0):
        raise ValueError("t_grid must be a non-empty ascending 1-d array")
    if not 0 <= t_grid[0] <= t_grid[-1] < math.inf:  # NaN fails too
        raise ValueError("query times must be finite and non-negative")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    payloads = [
        (family, system, t_grid, t1, t2, dt, seed, fixed_start, start, min(_CHUNK, n_paths - start))
        for start in range(0, n_paths, _CHUNK)
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
    workers: int = 1,
):
    """Yield per-chunk results of the many-path engine, in path order.

    Each yielded dict holds one chunk of _CHUNK paths (fewer in the last):
    their values on t_grid plus per-path switch times, starts and busy
    landing values.  Path i always draws from the substream (seed, i): chunk
    size and worker count change scheduling only, never the numbers.
    """
    yield from _chunks(
        GAUSSIAN, system, t_grid, 0.0, math.inf, n_paths, seed, dt, fixed_start, workers
    )


def simulate_marginal_samples(
    system: IntervalSystem,
    t_queries,
    n_paths: int,
    seed: int,
    dt: float = 1e-4,
    fixed_start: float | None = None,
    workers: int = 1,
) -> SimulationResult:
    """Values of n_paths paths of the construction at the query times,
    which must be ascending and non-negative."""
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
    the intervals on the domain (a, b) freeze.  The query times must be
    ascending and lie in [0, t2].
    """
    a_lo, b_hi, t1, t2 = window
    if not check_exp_window(a_lo, b_hi, t1, t2):
        raise ValueError("window fails the density/concavity check")
    t_queries = tuple(float(t) for t in t_queries)
    if not all(t <= t2 for t in t_queries):
        raise ValueError("query times must not exceed t2")
    system = build_interval_system(intervals, domain=(a_lo, b_hi))
    return _collect(
        t_queries, _chunks(LOGNORMAL, system, t_queries, t1, t2, n_paths, seed, dt, None, workers)
    )
