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
time at which the clock exceeds its argument.  A path whose clock cannot
cover the last query time is redrawn from its own substream.  Each path
consumes one dedicated RNG substream derived from (seed, path_index), so
results never depend on chunking or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .densities import GAUSSIAN, LOGNORMAL, check_exp_window
from .intervals import IntervalSystem, build_interval_system

__all__ = [
    "ClockExhaustedError",
    "path_rng",
    "SimulationResult",
    "iter_fake_grid_chunks",
    "simulate_marginal_samples",
    "simulate_exp_marginal_samples",
]

_MAX_RESAMPLE = 8


class ClockExhaustedError(RuntimeError):
    """The occupation clock ran out before the requested time; extend t_driver."""


def path_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, platform-stable substream for one path."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@dataclass(frozen=True)
class SimulationResult:
    """Values of many paths at the query times.

    values[i, q] is path i at t_queries[q]; frozen[i, q] marks paths frozen
    there, i.e. t1 <= t_queries[q] < switch_times[i].  switch_times, start
    values and the first busy landing value come along for conditioning;
    resampled counts paths whose driver had to be redrawn because its clock
    ran out.
    """

    t_queries: tuple
    values: np.ndarray
    frozen: np.ndarray
    switch_times: np.ndarray
    x0: np.ndarray
    busy_start: np.ndarray
    resampled: int


# ---------- one path ----------


def _occupation_clock(path: np.ndarray, system: IntervalSystem, dt: float):
    """Left-endpoint occupation clock of the active set along path.

    clock[k] = dt * #{i < k : path[i] is active}, so the clock is
    non-decreasing and 1-Lipschitz.  Returns the clock and whether path[0]
    itself is active.
    """
    active = system.contains_many(path)
    clock = np.empty(len(path))
    clock[0] = 0.0
    np.cumsum(active[:-1], out=clock[1:])
    clock[1:] *= dt
    return clock, bool(active[0])


def _draw(rng, family, system, n_steps: int, k1: int, dt: float, fixed_start=None):
    """One draw of a path: start, increments, then the switch uniform.

    Returns the driver row on the whole grid, the occupation clock of
    row[k1:], whether row[k1] is active, and the uniform u in (0, 1).
    """
    x0 = family.sample_initial(rng) if fixed_start is None else float(fixed_start)
    incr = rng.standard_normal(n_steps)
    u = float(rng.random())
    while u == 0.0:
        u = float(rng.random())
    row = family.driver(x0, incr, dt)
    clock, active = _occupation_clock(row[k1:], system, dt)
    return row, clock, active, u


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


def _covers(clock: np.ndarray, s: float, horizon: float) -> bool:
    """Whether the clock reaches busy time horizon - s (or nothing is busy)."""
    need = horizon - s
    return need < 0 or clock[-1] > need


# ---------- chunked many-path engine ----------


def _simulate_chunk(
    family, system, t_grid, t1, t2, dt, t_driver, seed, fixed_start, start, count
) -> dict:
    n_steps = int(round(t_driver / dt))
    k1 = int(round(t1 / dt))
    pre = t_grid < t1
    pre_idx = np.round(t_grid[pre] / dt).astype(int)
    rel = t_grid[~pre] - t1
    horizon = float(t_grid.max()) - t1
    values = np.empty((count, len(t_grid)))
    frozen = np.zeros((count, len(t_grid)), dtype=bool)
    switch_times = np.empty(count)
    x0 = np.empty(count)
    busy_start = np.empty(count)
    resampled = 0

    def finish(r, rng, row, clock, s):
        nonlocal resampled
        redraws = 0
        while not _covers(clock, s, horizon):
            if redraws == _MAX_RESAMPLE:
                raise ClockExhaustedError("path kept running out of clock; extend t_driver")
            redraws += 1
            row, clock, active, u = _draw(rng, family, system, n_steps, k1, dt, fixed_start)
            if not active:
                s = family.switch_times(np.array([row[k1]]), np.array([u]), t1, t2)[0]
            else:
                s = 0.0
        resampled += redraws
        tail = row[k1:]
        values[r, pre] = row[pre_idx]
        values[r, ~pre], frozen[r, ~pre] = _time_change(tail, clock, s, rel)
        switch_times[r] = t1 + s
        x0[r] = row[0]
        idx0 = int(np.searchsorted(clock, 0.0, side="right"))
        busy_start[r] = tail[idx0 - 1] if idx0 < len(clock) else math.nan

    # an active start is finished at once; gap starts wait for one
    # vectorised switch-time inversion over the chunk, which costs far less
    # than one inversion call per path, and only their rows are held
    waiting = []
    for r in range(count):
        rng = path_rng(seed, start + r)
        row, clock, active, u = _draw(rng, family, system, n_steps, k1, dt, fixed_start)
        if active:
            finish(r, rng, row, clock, 0.0)
        else:
            waiting.append((r, rng, row, clock, u))
    if waiting:
        x1 = np.array([row[k1] for _, _, row, _, _ in waiting])
        s = family.switch_times(x1, np.array([u for *_, u in waiting]), t1, t2)
        for (r, rng, row, clock, _), s_r in zip(waiting, s):
            finish(r, rng, row, clock, s_r)
    return {
        "start": start,
        "values": values,
        "frozen": frozen,
        "switch_times": switch_times,
        "x0": x0,
        "busy_start": busy_start,
        "resampled": resampled,
    }


def _chunks(family, system, t_grid, t1, t2, n_paths, seed, dt, t_driver, fixed_start,
            chunk, workers):
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    payloads = [
        (family, system, t_grid, t1, t2, dt, t_driver, seed, fixed_start, start,
         min(chunk, n_paths - start))
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
        resampled=sum(p["resampled"] for p in parts),
    )


def iter_fake_grid_chunks(
    system: IntervalSystem,
    t_grid,
    n_paths: int,
    seed: int,
    dt: float = 1e-4,
    t_driver: float | None = None,
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
    if t_driver is None:
        t_driver = 3.0 * (1.0 + float(t_grid[-1]))
    yield from _chunks(
        GAUSSIAN, system, t_grid, 0.0, math.inf, n_paths, seed, dt, t_driver,
        fixed_start, chunk, workers,
    )


def simulate_marginal_samples(
    system: IntervalSystem,
    t_queries,
    n_paths: int,
    seed: int,
    dt: float = 1e-4,
    t_driver: float | None = None,
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
            t_driver=t_driver,
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
    t_max = max(t_queries)
    system = build_interval_system(intervals, domain=(a_lo, b_hi))
    t_driver = t1 + 3.0 * (1.0 + max(t_max - t1, 0.0))
    return _collect(
        t_queries,
        _chunks(
            LOGNORMAL, system, np.asarray(t_queries), t1, t2, n_paths, seed, dt,
            t_driver, None, 256, workers,
        ),
    )
