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
an SFC64 generator, in this order (RNG stream layout 2, RNG_LAYOUT): the
start x0 (unless it is fixed), the switch uniform u, then, if the freeze
step k1 = round(t1 / dt) is positive, the Brownian value at t1 as one N(0, 1)
draw times sqrt(k1 * dt), then the driver's N(0, 1) increments after t1 in
blocks of _BLOCK steps counted from the freeze step.  Block by block the
Brownian value carries on as b_last + cumsum(z) * sqrt(dt).  A path draws
only the steps it uses, in as many calls as it needs, and the values do not
depend on how the steps are split into calls: after the switch time is
known, it draws steps until the clock of the driver from t1 on exceeds
max(t_last - t1 - s, 0), so every path with a finite switch time lands in
the active set.  A path that survives the whole window (s = inf) draws
nothing more.  Query times before t1 read the Brownian bridge from 0 to the
value at t1, built from the full k1-step walk of the path's second
substream (path_rng with bridge set), which is drawn only when such a time
is queried.  Chunk size and worker count change no number, and a path's
values at given times do not depend on which other times are also
queried: a later time only appends steps, and an earlier one only reads the
bridge.

A chunk is at most _CHUNK paths and about _CHUNK_BYTES of results: a path's
row costs 9 bytes per query time (its float64 value and bool frozen flag),
so a grid of a few times keeps _CHUNK paths a chunk, while a grid of 16,001
times takes 28.  Every chunk but the last of an odd path count holds an even
number of paths, so chunks start at even path indices and paths 2p and
2p + 1 always share one.

A chunk seeds its paths' generators at once: _substreams runs numpy's
SeedSequence arithmetic for all of the chunk's path indices together, and
each generator equals path_rng(seed, i) bit for bit.  A path is built in
place: its driver steps and their active flags fill one buffer each, which
doubles when a top-up does not fit, and the time change writes straight
into the chunk's row.  The paths of a chunk that are busy from t1 on read
their query times' tick counts from one computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import GAUSSIAN, LOGNORMAL, check_exp_window
from .intervals import IntervalSystem, build_interval_system

__all__ = [
    "RNG_LAYOUT",
    "path_rng",
    "SimulationResult",
    "iter_fake_grid_chunks",
    "simulate_marginal_samples",
    "simulate_exp_marginal_samples",
]

# the version of the stream layout the module docstring describes; the Monte
# Carlo commands' reports carry it
RNG_LAYOUT = 2
# the driver's increments are summed in blocks of this many steps; part of
# the RNG stream layout
_BLOCK = 4096
# fewest driver steps one top-up of a busy path draws; changes no value
_MIN_DRAW = 512
# most paths per chunk, the unit of work of one worker; changes no value
_CHUNK = 256
# most bytes of values and frozen flags per chunk, unless two paths take
# more; changes no value
_CHUNK_BYTES = 4 * 2**20


def path_rng(seed: int, index: int, bridge: bool = False) -> np.random.Generator:
    """Independent, platform-stable substream for one path.

    An SFC64 generator seeded by SeedSequence(entropy=seed, spawn_key=(index,)),
    or with bridge set by that sequence's first child, spawn key (index, 0),
    which only the path's Brownian bridge before its freeze time reads.
    """
    key = (index, 0) if bridge else (index,)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_U32 = 0xFFFFFFFF


class _State:
    """The SFC64 seed words of one substream, handed over as they are.

    _substreams registers it as numpy's ISeedSequence at first use, so that
    importing this module does not load numpy.random.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _substreams(seed, start: int, count: int, bridge: bool = False) -> list:
    """The generators path_rng(seed, i, bridge) of the paths start .. start + count - 1.

    SeedSequence(entropy=seed, spawn_key=key) hashes the seed's 32-bit
    words, padded with zeros to its pool of four, into the pool, and then
    each word of the key, (i,) or (i, 0).  The pool after the seed's words
    is SeedSequence(seed).pool, and building it rejects every seed path_rng
    rejects.  The hash multiplier advances by the same steps whatever the
    data, so mixing in the key and generate_state(3, np.uint64), SFC64's
    seed, are the same uint32 arithmetic for every path; here they run for
    the whole chunk at once.  A seed given as a sequence, or a path index
    of 2**32 or more, takes path_rng itself.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_State)
    pool = np.random.SeedSequence(seed).pool.tolist()
    if not isinstance(seed, (int, np.integer)) or start + count > 2**32:
        return [path_rng(seed, i, bridge) for i in range(start, start + count)]
    n_words = max(1, -(-int(seed).bit_length() // 32))
    # hashmix calls so far: the pool's words, their 12 pairwise mixes, and
    # the seed words past the pool, each mixed into all four
    hashes = 16 + 4 * max(n_words - 4, 0)
    mult = _INIT_A * pow(_MULT_A, hashes, 1 << 32) & _U32
    index = np.arange(start, start + count, dtype=np.uint32)
    keys = (index, np.zeros_like(index)) if bridge else (index,)
    mixed = [np.full(count, word, dtype=np.uint32) for word in pool]
    # each key word is mixed into all four pool words in turn
    for key in keys:
        for j, word in enumerate(mixed):
            h = key ^ np.uint32(mult)
            mult = mult * _MULT_A & _U32
            h *= np.uint32(mult)
            h ^= h >> np.uint32(16)
            h *= np.uint32(_MIX_R)
            w = word * np.uint32(_MIX_L)
            w -= h
            w ^= w >> np.uint32(16)
            mixed[j] = w
    state = np.empty((count, 6), dtype=np.uint32)
    mult = _INIT_B
    for j in range(6):
        w = mixed[j % 4] ^ np.uint32(mult)
        mult = mult * _MULT_B & _U32
        w *= np.uint32(mult)
        w ^= w >> np.uint32(16)
        state[:, j] = w
    # word pairs read little-endian, as generate_state does
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.SFC64(_State(row))) for row in words]


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


def _brownian(rng, state: tuple, n: int, dt: float, out: np.ndarray | None = None):
    """The next n grid values of the driver's Brownian motion, and its state.

    state is (b0, psum, pos): the Brownian value at the last _BLOCK boundary,
    and the unscaled sum of the pos increments drawn since.  Within a block
    the values are b0 + cumsum(z) * sqrt(dt); a continued block adds psum to
    its first new increment before the cumsum, so the values are bit for bit
    those of whole-block draws however the n steps are split into calls.
    The values fill out[:n] if out is given, else a new array.
    """
    b0, psum, pos = state
    b = np.empty(n) if out is None else out[:n]
    done = 0
    while done < n:
        take = min(n - done, _BLOCK - pos)
        z = b[done : done + take]
        rng.standard_normal(out=z)
        z[0] += psum
        np.cumsum(z, out=z)
        psum = z[-1]
        z *= math.sqrt(dt)
        z += b0
        done += take
        pos += take
        if pos == _BLOCK:
            b0, psum, pos = z[-1], 0.0, 0
    return b, (b0, psum, pos)


def _ticks_within(q: np.ndarray, dt: float) -> np.ndarray:
    """Largest count c with fl(c * dt) <= q, elementwise, for q >= 0.

    floor(q / dt) is off by at most one either way, so one step down where
    c * dt overshoots q and one step up where (c + 1) * dt still fits settle
    it.  fl(c * dt) grows with c, so the answer is unique.
    """
    c = q / dt
    np.floor(c, out=c)
    step = c * dt
    np.subtract(c, 1.0, out=c, where=step > q)
    np.add(c, 1.0, out=step)
    step *= dt
    np.add(c, 1.0, out=c, where=step <= q)
    return c.astype(np.intp)


def _time_change(tail: np.ndarray, ticks: np.ndarray, s: float, rel: np.ndarray, dt: float,
                 out: tuple | None = None, counts: np.ndarray | None = None):
    """Values and frozen flags at the ascending times rel after the freeze time.

    The path holds tail[0] while rel < s.  At busy time q = rel - s it is
    the driver at the grid point from which the clock crossed q.  ticks are
    the grid steps at which the driver sits in the active set, so after c
    ticks the left-endpoint clock reads fl(c * dt) and that point is
    tail[ticks[c]] for the largest c with fl(c * dt) <= q: a point of the
    active set, and for an always-active driver the time change is the
    identity on the grid.  out, if given, is the (values, frozen) pair of
    arrays to fill; counts, if given, are those c for the busy times, which
    depend on rel and s alone.
    """
    values, frozen = (np.empty(len(rel)), np.empty(len(rel), dtype=bool)) if out is None else out
    n_frozen = int(np.searchsorted(rel, s))
    frozen[:n_frozen] = True
    frozen[n_frozen:] = False
    values[:n_frozen] = tail[0]
    if counts is None:
        counts = _ticks_within(rel[n_frozen:] - s, dt)
    # ticks index tail, so clip clips nothing; it spares take a buffered copy
    np.take(tail, ticks[counts], out=values[n_frozen:], mode="clip")
    return values, frozen


def _extend(rng, family, system, x0, state, k, x1, need, dt):
    """Draw the driver on from its freeze value until its clock exceeds need.

    The driver is x1 at the freeze step, grid step k, where the Brownian
    motion is in state (see _brownian).  The left-endpoint clock ticks dt
    at every step but the last whose value lies in the active set, at most
    dt a step, so each top-up draws the fewest steps that could still be
    enough, but at least _MIN_DRAW.  The steps and their active flags go
    into two buffers, sized for the first top-up and doubled when a later
    one does not fit.  Returns the tail, the driver from the freeze step on,
    and its ticks, the indices of the steps at which the clock ticks.
    """
    path = np.empty(1 + max(int(need / dt) + 1, _MIN_DRAW))
    active = np.empty(len(path), dtype=bool)
    path[0] = x1
    # the clock ticks at the active steps but the last, so the last step,
    # x1 first, is flagged with the next top-up, in the same membership call
    m, flagged, ticks = 1, 0, 0
    while ticks * dt <= need:
        n = max(int(need / dt) + 1 - ticks, _MIN_DRAW)
        if m + n > len(path):
            path, active = _grown(path, m, m + n), _grown(active, m, m + n)
        b, state = _brownian(rng, state, n, dt, out=path[m:])
        family.driver(x0, b, np.arange(k + 1, k + 1 + n) * dt if family.reads_time else None)
        system.contains_many(path[flagged : m + n], out=active[flagged : m + n])
        ticks += int(np.count_nonzero(active[m - 1 : m + n - 1]))
        flagged = m = m + n
        k += n
    return path[:m], np.flatnonzero(active[: m - 1])


def _grown(a: np.ndarray, m: int, size: int) -> np.ndarray:
    """A new buffer of at least size entries, and at least twice len(a),
    that starts with a's first m entries."""
    grown = np.empty(max(size, 2 * len(a)), dtype=a.dtype)
    grown[:m] = a[:m]
    return grown


# ---------- chunked many-path engine ----------


def _bridge(rng, k1: int, b1: float, dt: float) -> np.ndarray:
    """The Brownian motion at grid steps 0 .. k1, given that it is b1 at k1.

    A walk W of k1 steps of variance dt, drawn as the driver is (see
    _brownian), is tied down to B_k = W_k + (k / k1) (b1 - W_k1), the walk's
    bridge from 0 to b1.  The bridge is independent of W_k1, so for b1 ~
    N(0, k1 dt) drawn apart from W the values have the walk's law.  The
    ends are 0 and b1 exactly.
    """
    b = np.empty(k1 + 1)
    b[0] = 0.0
    _brownian(rng, (0.0, 0.0, 0), k1, dt, out=b[1:])
    b += np.arange(k1 + 1) * ((b1 - b[k1]) / k1)
    b[k1] = b1
    return b


def _simulate_chunk(family, system, t_grid, t1, t2, dt, seed, fixed_start, start, count) -> dict:
    k1 = int(round(t1 / dt))
    n_pre = int(np.searchsorted(t_grid, t1))  # the query times before t1
    # the driver up to t1 is read only at those times' steps and at t1
    read = np.append(np.round(t_grid[:n_pre] / dt).astype(int), k1)
    rel = t_grid[n_pre:] - t1
    # the tick counts of every path busy from t1 on (s = 0, so rel - s is rel)
    busy_counts = _ticks_within(rel, dt)
    horizon = float(t_grid.max()) - t1
    values = np.empty((count, len(t_grid)))
    frozen = np.zeros((count, len(t_grid)), dtype=bool)
    x0 = np.empty(count)
    u = np.empty(count)
    b1 = np.zeros(count)  # every path's Brownian value at t1, from B_0 = 0
    busy_start = np.full(count, math.nan)

    # every path's start, uniform and Brownian value at t1 first, so that
    # one driver call and one vectorised switch-time inversion serve the chunk
    rngs = _substreams(seed, start, count)
    for r, rng in enumerate(rngs):
        x0[r] = family.sample_initial(rng) if fixed_start is None else float(fixed_start)
        u[r] = rng.random()
        while u[r] == 0.0:
            u[r] = rng.random()
        if k1:
            b1[r] = rng.standard_normal() * math.sqrt(k1 * dt)
    heads = np.zeros((count, len(read)))  # every path's Brownian motion at the steps read
    heads[:, -1] = b1
    if n_pre and k1:  # the times before t1 read the bridge to B_t1
        for r, rng in enumerate(_substreams(seed, start, count, bridge=True)):
            heads[r, :-1] = _bridge(rng, k1, b1[r], dt)[read[:-1]]
    family.driver(x0[:, None], heads, read * dt)
    values[:, :n_pre] = heads[:, :-1]
    x1 = heads[:, -1]
    s = np.zeros(count)
    gap = ~system.contains_many(x1)
    s[gap] = family.switch_times(x1[gap], u[gap], t1, t2)

    for r, rng in enumerate(rngs):
        if math.isinf(s[r]):  # survives the window: frozen from t1 on
            values[r, n_pre:] = x1[r]
            frozen[r, n_pre:] = True
            continue
        # the tail's blocks are counted from the freeze step
        tail, ticks = _extend(
            rng, family, system, x0[r], (b1[r], 0.0, 0), k1, x1[r], max(horizon - s[r], 0.0), dt
        )
        _time_change(
            tail, ticks, s[r], rel, dt, out=(values[r, n_pre:], frozen[r, n_pre:]),
            counts=busy_counts if s[r] == 0.0 else None,
        )
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
    # the query-time and step checks of both samplers
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or not np.all(np.diff(t_grid) >= 0):
        raise ValueError("t_grid must be a non-empty ascending 1-d array")
    if not 0 <= t_grid[0] <= t_grid[-1] < math.inf:  # NaN fails too
        raise ValueError("query times must be finite and non-negative")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not 0 < dt < math.inf:  # NaN fails too
        raise ValueError("dt must be positive and finite")
    if fixed_start is not None and not math.isfinite(fixed_start):
        raise ValueError("fixed_start must be finite")
    # a row is a float64 value and a bool frozen flag per query time
    rows = max(2, min(_CHUNK, _CHUNK_BYTES // (9 * len(t_grid))) // 2 * 2)
    payloads = [
        (family, system, t_grid, t1, t2, dt, seed, fixed_start, start, min(rows, n_paths - start))
        for start in range(0, n_paths, rows)
    ]
    if workers <= 1:
        for p in payloads:
            yield _simulate_chunk(*p)
    else:
        # the pool's import loads multiprocessing, which one worker never needs
        from concurrent.futures import ProcessPoolExecutor

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

    Each yielded dict holds one chunk of paths, at most _CHUNK and about
    _CHUNK_BYTES of values and frozen flags, an even number but for a last
    chunk of odd n_paths: their values on t_grid plus per-path switch times,
    starts and busy landing values.  Path i always draws from the substream
    (seed, i): chunk size and worker count change scheduling only, never
    the numbers.  A consumer that still holds a chunk when it asks for the
    next keeps two chunks' arrays alive while the next is built.
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
