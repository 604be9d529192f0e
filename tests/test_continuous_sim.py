"""Continuous-time construction: driver, clock, time change, switch law, engine.

Grid-identity tests use dt = 1/1024 so that every grid time j * dt is an
exact float and searchsorted comparisons cannot straddle a rounding error.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.stats import kstest

from fakebm import continuous_sim
from fakebm.continuous_sim import (
    _BLOCK,
    _MIN_DRAW,
    _brownian,
    _extend,
    _time_change,
    iter_fake_grid_chunks,
    path_rng,
    simulate_exp_marginal_samples,
    simulate_marginal_samples,
)
from fakebm.densities import GAUSSIAN, LOGNORMAL, check_exp_window, survival_ratio
from fakebm.intervals import build_interval_system, fat_cantor_intervals

TWO_GAPS = [(0.1, 0.4), (0.6, 0.9)]
DT = 1.0 / 1024.0

EXP_WINDOW = (0.6, 1.1, 0.5, 1.0)
EXP_INTERVALS = [(0.7, 0.8), (0.9, 1.0)]


@pytest.fixture(scope="module")
def sys2():
    return build_interval_system(TWO_GAPS)


# ---------- pinned outputs ----------


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


PINNED = {
    # name: run, digests of values/frozen/switch_times/x0/busy_start
    "two_gap": (
        lambda: simulate_marginal_samples(
            build_interval_system(TWO_GAPS), (0.3, 0.8), 500, seed=41, dt=1e-3
        ),
        ("60c689adb13805fa", "f5762d99180f2331", "6cd187786626e6c3",
         "98350b5dc3efb82a", "b6d9d8594d8ba8c5"),
    ),
    # a gap start with a short clock: under a fixed driver horizon this
    # configuration redrew 47 of its paths
    "redraws": (
        lambda: simulate_marginal_samples(
            build_interval_system(TWO_GAPS), (0.5,), 300, seed=8, dt=1e-3,
            fixed_start=0.5,
        ),
        ("7b7dd22723faa2dd", "9ffac03cc2c8fa6a", "72676dbd8753b08a",
         "369a339635b89202", "d39a0a562e882832"),
    ),
    "cantor3": (
        lambda: simulate_marginal_samples(
            build_interval_system(fat_cantor_intervals(3)), (0.2, 0.5), 200,
            seed=5, dt=1e-3,
        ),
        ("710f7ee17e9782c7", "32215f66567bd396", "0de6bfdb166c8c51",
         "6e1d9902f4aeab7c", "7b97244e5311b39b"),
    ),
    "exp": (
        lambda: simulate_exp_marginal_samples(
            EXP_WINDOW, EXP_INTERVALS, (0.3, 0.6, 0.9), 800, seed=99, dt=2e-3
        ),
        ("4edc83b3ba31ba68", "47a8f613c6e3d0a1", "7bbf71a7607dde31",
         "e6b8b8a54e4eff0e", "a9ecd50793cb2d70"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_engine_outputs_are_pinned(name):
    # frozen digests of the engine's outputs: any change to the RNG stream
    # layout or to the arithmetic of the driver, clock, switch-time inverse or
    # time change shows
    run, digests = PINNED[name]
    res = run()
    fields = (res.values, res.frozen, res.switch_times, res.x0, res.busy_start)
    assert tuple(_digest(f) for f in fields) == digests
    assert res.resampled == 0


@pytest.mark.parametrize(
    "t1, run",
    [
        (0.0, lambda t: simulate_marginal_samples(
            build_interval_system(TWO_GAPS), t, 200, seed=4, dt=1e-3)),
        (0.5, lambda t: simulate_exp_marginal_samples(
            EXP_WINDOW, EXP_INTERVALS, t, 200, seed=4, dt=2e-3)),
    ],
    ids=["gaussian", "lognormal"],
)
def test_frozen_means_between_freeze_and_switch_time(t1, run):
    t_queries = np.array([0.0, t1, 0.7]) if t1 else np.array([0.0, 0.7])
    res = run(t_queries)
    expect = (t1 <= t_queries) & (t_queries < res.switch_times[:, None])
    assert np.array_equal(res.frozen, expect)
    # some paths start the window in a gap, so the query at t1 is frozen
    assert res.frozen[:, list(t_queries).index(t1)].any()


# ---------- driving path ----------


START = (0.0, 0.0, 0)  # Brownian state at step 0


def test_brownian_path_shape_and_determinism():
    b, state = _brownian(np.random.default_rng(5), START, 100, 1e-3)
    again, _ = _brownian(np.random.default_rng(5), START, 100, 1e-3)
    assert len(b) == 100
    assert np.array_equal(b, again)
    assert state == (0.0, np.cumsum(np.random.default_rng(5).standard_normal(100))[-1], 100)
    # a block continues from the Brownian value at its start
    moved, _ = _brownian(np.random.default_rng(5), (2.5, 0.0, 0), 100, 1e-3)
    assert np.array_equal(moved, b + 2.5)


def test_brownian_split_draws_match_whole_blocks():
    # three whole blocks, each summed from the end of the one before
    dt = 1e-3
    z = np.random.default_rng(8).standard_normal(3 * _BLOCK)
    blocks, b_last = [], 0.0
    for block in z.reshape(3, _BLOCK):
        b = np.cumsum(block)
        b *= math.sqrt(dt)
        b += b_last
        blocks.append(b)
        b_last = b[-1]
    whole = np.concatenate(blocks)
    one, end = _brownian(np.random.default_rng(8), START, 3 * _BLOCK, dt)
    assert np.array_equal(one, whole)
    assert end == (whole[-1], 0.0, 0)
    # the same steps split at block edges, next to them, twice at one
    # point (an empty draw) and at seeded random points
    cut_rng = np.random.default_rng(0)
    splits = [
        [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK - 1],
        [700, 700, 5000],
        *(sorted(cut_rng.integers(1, 3 * _BLOCK, size=k).tolist()) for k in (1, 5, 40)),
    ]
    for cuts in splits:
        rng, state, parts = np.random.default_rng(8), START, []
        for n in np.diff([0, *cuts, 3 * _BLOCK]):
            b, state = _brownian(rng, state, int(n), dt)
            parts.append(b)
        assert np.array_equal(np.concatenate(parts), whole), cuts
        assert state == end


def test_brownian_path_fixed_start(sys2):
    res = simulate_marginal_samples(sys2, (0.0,), 3, seed=5, dt=1e-3, fixed_start=2.5)
    assert np.all(res.x0 == 2.5)
    assert np.all(res.values[:, 0] == 2.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_fixed_start_is_rejected(sys2, bad):
    # NaN used to give all-NaN paths marked busy, and inf paths of inf
    with pytest.raises(ValueError, match="fixed_start"):
        simulate_marginal_samples(sys2, (0.5,), 3, seed=5, dt=1e-3, fixed_start=bad)


def test_brownian_fills_out_as_it_returns():
    # out= fills a slice of a larger buffer with the same values and state
    b, state = _brownian(np.random.default_rng(5), START, 5000, 1e-3)
    buf = np.full(6000, 9.0)
    filled, filled_state = _brownian(np.random.default_rng(5), START, 5000, 1e-3, out=buf[10:])
    assert np.array_equal(filled, b)
    assert np.array_equal(buf[10:5010], b)
    assert (buf[:10] == 9.0).all() and (buf[5010:] == 9.0).all()
    assert filled_state == state


def test_brownian_path_increment_moments():
    inc = np.diff(_brownian(np.random.default_rng(11), START, _BLOCK, 1e-3)[0])
    assert inc.mean() == pytest.approx(0.0, abs=4 * math.sqrt(1e-3 / len(inc)))
    assert inc.var() == pytest.approx(1e-3, rel=0.15)


def test_path_rng_substreams():
    a = path_rng(9, 3).standard_normal(4)
    b = path_rng(9, 3).standard_normal(4)
    c = path_rng(9, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------- occupation clock and its inverse ----------


def _occupation_clock(active, dt):
    # reference: the left-endpoint clock stored in full,
    # clock[k] = dt * #{i < k : active[i]}
    clock = np.empty(len(active))
    clock[0] = 0.0
    np.cumsum(active[:-1], out=clock[1:])
    clock[1:] *= dt
    return clock


def _clock_inverse(clock, q):
    # reference: the last grid index at which the stored clock is <= q
    return np.searchsorted(clock, q, side="right") - 1


def test_occupation_clock_left_endpoint_rule(sys2):
    # active flags of the first four values: False True False True; the
    # clock ticks at those steps, and after c ticks it reads c * dt
    active = sys2.contains_many(np.array([0.5, 0.2, 0.45, 0.7, 0.05]))
    ticks = np.flatnonzero(active[:-1])
    assert ticks.tolist() == [1, 3]
    assert np.array_equal(_occupation_clock(active, 0.125), [0.0, 0.0, 0.125, 0.125, 0.25])
    assert np.array_equal(_occupation_clock(active, 0.125)[ticks + 1], np.arange(1, 3) * 0.125)


def test_time_change_inverts_clock():
    tail = np.array([0.5, 0.2, 0.45, 0.7, 0.05])
    ticks = np.array([1, 3])  # the clock 0, 0, 1/8, 1/8, 2/8 on dt = 1/8
    # busy times 0 and 1/16 map to grid time 2/8, i.e. the driver at index 1
    # where the clock left 0; busy time 1/8 maps to 4/8, the driver at index 3
    values, frozen = _time_change(tail, ticks, 0.0, np.array([0.0, 0.0625, 0.125]), 0.125)
    assert values.tolist() == [0.2, 0.2, 0.7]
    assert not frozen.any()
    # a switch time of 1/16 holds the start until then and delays the rest
    values, frozen = _time_change(tail, ticks, 0.0625, np.array([0.0, 0.0625, 0.1875]), 0.125)
    assert frozen.tolist() == [True, False, False]
    assert values.tolist() == [0.5, 0.2, 0.7]


@pytest.mark.parametrize("dt", [1e-4, 2e-4, 2.5e-5, 1e-3, 0.125, 1.0 / 3.0])
def test_tick_index_inverse_matches_searchsorted_over_the_clock(dt):
    # the tick-index inverse picks the same grid index as a searchsorted
    # over the stored clock: seeded paths with sparse and dense activity,
    # an always-active one, s = 0, and busy times equal to clock values and
    # their one-ulp neighbours, where floor(q / dt) rounds either way
    rng = np.random.default_rng(round(1 / dt))
    n = 20_000
    for density in (0.05, 0.5, 0.97, 1.0):
        active = rng.random(n) < density
        active[-2] = True  # the clock exceeds every busy time below
        clock = _occupation_clock(active, dt)
        ticks = np.flatnonzero(active[:-1])
        tail = rng.standard_normal(n)
        top = clock[-1]
        exact = clock[:: 7][clock[:: 7] < top]
        q = np.concatenate([
            [0.0],
            exact,
            np.nextafter(exact, -np.inf)[exact > 0],
            np.nextafter(exact, np.inf),
            rng.uniform(0, top, 20_000),
            np.arange(1, int(top / dt)) * dt,
        ])
        q = np.sort(q[q < top])
        values, frozen = _time_change(tail, ticks, 0.0, q, dt)
        assert not frozen.any()
        assert np.array_equal(values, tail[_clock_inverse(clock, q)])
        # a positive switch time shifts the busy times by s
        s = 0.37 * top
        rel = np.sort(rng.uniform(0, top + s, 5_000))
        rel = rel[rel - s < top]
        values, frozen = _time_change(tail, ticks, s, rel, dt)
        busy = rel >= s
        assert np.array_equal(frozen, ~busy)
        assert np.array_equal(values[~busy], np.full((~busy).sum(), tail[0]))
        assert np.array_equal(values[busy], tail[_clock_inverse(clock, rel[busy] - s)])


def test_clock_of_always_active_path_is_identity(sys2):
    # a need under _MIN_DRAW steps' clock still draws _MIN_DRAW steps; every
    # step but the last ticks, so the clock is the grid time itself
    row, ticks = _extend(path_rng(3, 0), GAUSSIAN, sys2, 7.0, START, 0, 7.0, 0.4, DT)
    assert 0.4 < _MIN_DRAW * DT
    assert len(row) == _MIN_DRAW + 1
    assert row.min() > 1.0
    assert np.array_equal(ticks, np.arange(_MIN_DRAW))
    active = sys2.contains_many(row)
    assert np.array_equal(_occupation_clock(active, DT), np.arange(_MIN_DRAW + 1) * DT)
    q = np.arange(_MIN_DRAW) * DT
    values, _ = _time_change(row, ticks, 0.0, q, DT)
    assert np.array_equal(values, row[:-1])


def test_extend_appends_blocks_until_the_clock_exceeds_need(sys2):
    # the clock of a path started at 7 ticks every step, so it draws
    # exactly the steps whose clock exceeds need: one more for one more
    # step's clock, across a block edge, and the shorter row is a prefix
    n = _BLOCK + 1000
    rows = [
        _extend(path_rng(3, 0), GAUSSIAN, sys2, 7.0, START, 0, 7.0, need, DT)[0]
        for need in (n * DT - DT, n * DT)
    ]
    assert [len(r) for r in rows] == [n + 1, n + 2]
    assert np.array_equal(rows[1][: n + 1], rows[0])
    whole, _ = _brownian(path_rng(3, 0), START, n + 1, DT)
    assert np.array_equal(rows[1][1:], whole + 7.0)


def _extend_by_concatenation(rng, family, system, x0, state, k, x1, need, dt):
    # reference: each top-up drawn into its own arrays and joined at the end
    parts = [np.array([x1])]
    flags = [system.contains_many(parts[0])]
    ticks = 0
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


@pytest.mark.parametrize("family, x0, k, dt", [(GAUSSIAN, 0.5, 0, DT), (LOGNORMAL, 1.0, 250, 2e-3)],
                         ids=["gaussian", "lognormal"])
def test_extend_in_place_equals_concatenated_top_ups(family, x0, k, dt):
    # paths that sit in gaps need several top-ups, so the buffers grow; the
    # rows and ticks equal the reference's bit for bit
    if family is GAUSSIAN:
        system = build_interval_system(TWO_GAPS)
    else:
        system = build_interval_system(EXP_INTERVALS, domain=(0.6, 1.1))
    for index in range(12):
        for need in (0.0, 0.3, 2.0):
            args = (family, system, x0, (0.0, 0.0, 0), k, x0, need, dt)
            row, ticks = _extend(path_rng(index, 0), *args)
            ref_row, ref_ticks = _extend_by_concatenation(path_rng(index, 0), *args)
            assert np.array_equal(row, ref_row)
            assert np.array_equal(ticks, ref_ticks)


# ---------- switch time ----------


def test_switch_time_zero_in_active_set(sys2):
    for x0 in (0.25, -3.0):
        res = simulate_marginal_samples(
            sys2, (0.0,), 5, seed=1, dt=1e-3, fixed_start=x0
        )
        assert np.all(res.switch_times == 0.0)


def test_switch_time_positive_in_gap(sys2):
    res = simulate_marginal_samples(
        sys2, (0.0,), 5, seed=1, dt=1e-3, fixed_start=0.5
    )
    assert np.all(res.switch_times > 0.0)


def test_switch_time_law_matches_survival_ratio(sys2):
    # P(T > t | start x0) = survival_ratio(x0, t)
    res = simulate_marginal_samples(
        sys2, (0.0,), 4000, seed=2024, dt=1e-4, fixed_start=0.5
    )
    stat = kstest(res.switch_times, lambda t: 1.0 - survival_ratio(0.5, t)).statistic
    assert stat <= 1.5 * 1.36 / math.sqrt(4000)


def test_frozen_path_holds_then_moves_into_active_set(sys2):
    t_grid = np.arange(801) * 1e-3
    res = simulate_marginal_samples(
        sys2, t_grid, 40, seed=77, dt=1e-3, fixed_start=0.5
    )
    assert np.all(res.switch_times > 0.0)
    assert res.frozen[:, 0].all()
    assert np.all(res.values[res.frozen] == 0.5)
    assert (~res.frozen).any()
    assert sys2.contains_many(res.values[~res.frozen]).all()


# ---------- many-path engine ----------


def test_engine_grid_identity_matches_driver(sys2):
    # always-active start: the engine's values are the driver values at the
    # query times, exactly
    t_grid = np.array([0.0, 32 * DT, 113 * DT])
    res = simulate_marginal_samples(sys2, t_grid, 1, seed=3, dt=DT, fixed_start=7.0)
    # stream layout with a fixed start: the switch uniform, then the
    # increments, whose first block holds every step this query needs
    rng = path_rng(3, 0)
    rng.random()
    incr = rng.standard_normal(_BLOCK)
    driver = np.concatenate([[7.0], np.cumsum(incr) * math.sqrt(DT) + 7.0])
    assert driver.min() > 1.0
    assert res.values[0, 0] == driver[0]
    assert res.values[0, 1] == driver[32]
    assert res.values[0, 2] == driver[113]
    assert not res.frozen.any()
    assert res.switch_times[0] == 0.0
    assert res.busy_start[0] == driver[0]


def test_engine_chunk_and_worker_invariance(sys2, monkeypatch):
    base = simulate_marginal_samples(sys2, (0.3,), 128, 7, dt=1e-3)
    monkeypatch.setattr(continuous_sim, "_CHUNK", 17)
    small = simulate_marginal_samples(sys2, (0.3,), 128, 7, dt=1e-3)
    monkeypatch.setattr(continuous_sim, "_CHUNK", 32)
    par = simulate_marginal_samples(sys2, (0.3,), 128, 7, dt=1e-3, workers=2)
    assert np.array_equal(base.values, small.values)
    assert np.array_equal(base.values, par.values)
    assert np.array_equal(base.switch_times, par.switch_times)
    assert np.array_equal(base.busy_start, par.busy_start)


def test_engine_prefix_stability(sys2):
    big = simulate_marginal_samples(sys2, (0.2,), 90, 13, dt=1e-3)
    small = simulate_marginal_samples(sys2, (0.2,), 40, 13, dt=1e-3)
    assert np.array_equal(big.values[:40], small.values)


def test_engine_frozen_paths_hold_start_busy_paths_sit_in_active(sys2):
    res = simulate_marginal_samples(sys2, (0.3, 0.8), 500, seed=41, dt=1e-3)
    assert res.values.shape == (500, 2)
    frozen_vals = res.values[res.frozen]
    starts = np.broadcast_to(res.x0[:, None], res.values.shape)[res.frozen]
    assert np.array_equal(frozen_vals, starts)
    busy_vals = res.values[~res.frozen]
    assert sys2.contains_many(busy_vals).all()
    # frozen starts are in a gap, and frozen flags are monotone in t
    assert not sys2.contains_many(res.x0[res.frozen[:, 0]]).any()
    assert not np.any(~res.frozen[:, 0] & res.frozen[:, 1])


def test_engine_busy_start_is_gap_edge_within_overshoot(sys2):
    res = simulate_marginal_samples(
        sys2, (0.0,), 400, seed=6, dt=1e-4, fixed_start=0.5
    )
    land = res.busy_start
    assert np.isfinite(land).all()
    # overshoot past the edge is one Gaussian step, scale sqrt(dt) = 0.01
    near_left = np.abs(land - 0.4) < 0.05
    near_right = np.abs(land - 0.6) < 0.05
    assert np.all(near_left | near_right)
    # symmetric start: both sides within 4 sigma of half
    p = near_right.mean()
    assert abs(p - 0.5) <= 4 * math.sqrt(0.25 / 400)


@pytest.mark.parametrize(
    "short, long, run",
    [
        ((0.5,), (0.5, 2.0), lambda t: simulate_marginal_samples(
            build_interval_system(TWO_GAPS), t, 300, seed=3, dt=1e-3)),
        ((0.75,), (0.75, 1.0), lambda t: simulate_exp_marginal_samples(
            EXP_WINDOW, EXP_INTERVALS, t, 300, seed=3, dt=2e-3)),
    ],
    ids=["gaussian", "lognormal"],
)
def test_values_do_not_depend_on_later_query_times(short, long, run):
    a, b = run(short), run(long)
    assert np.array_equal(a.values, b.values[:, : len(short)])
    assert np.array_equal(a.frozen, b.frozen[:, : len(short)])
    for f in ("switch_times", "x0", "busy_start"):
        assert np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)


@pytest.mark.parametrize("intervals", [TWO_GAPS, fat_cantor_intervals(6)],
                         ids=["two_gap", "cantor6"])
def test_frozen_exactly_when_in_a_gap(intervals):
    system = build_interval_system(intervals)
    res = simulate_marginal_samples(system, (0.0, 0.3, 0.8, 1.5), 512, seed=12, dt=1e-3)
    assert res.frozen.any() and (~res.frozen).any()
    assert np.array_equal(res.frozen, ~system.contains_many(res.values))


def test_exp_frozen_exactly_when_in_a_gap_inside_the_window():
    system = build_interval_system(EXP_INTERVALS, domain=(0.6, 1.1))
    res = simulate_exp_marginal_samples(
        EXP_WINDOW, EXP_INTERVALS, (0.5, 0.6, 0.8, 1.0), 512, seed=12, dt=2e-3
    )
    assert res.frozen.any() and (~res.frozen).any()
    assert np.array_equal(res.frozen, ~system.contains_many(res.values))


def test_engine_rejects_bad_grids(sys2):
    with pytest.raises(ValueError):
        simulate_marginal_samples(sys2, (0.5, 0.2), 10, seed=1, dt=1e-3)
    with pytest.raises(ValueError):
        simulate_marginal_samples(sys2, (-0.1,), 10, seed=1, dt=1e-3)
    with pytest.raises(ValueError):
        simulate_marginal_samples(sys2, (), 10, seed=1, dt=1e-3)
    with pytest.raises(ValueError):
        simulate_marginal_samples(sys2, (0.5,), 0, seed=1, dt=1e-3)
    # NaN and inf used to pass and crash inside the engine
    for bad in ((math.nan,), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ValueError, match="ascending|finite"):
            simulate_marginal_samples(sys2, bad, 10, seed=1, dt=1e-3)
    # the exponential variant shares the checks; it used to sort its times
    for bad in ((0.9, 0.2), (-0.1, 0.6), ()):
        with pytest.raises(ValueError):
            simulate_exp_marginal_samples(EXP_WINDOW, EXP_INTERVALS, bad, 10, seed=1, dt=2e-3)


def test_iter_chunks_arrive_in_path_order(sys2, monkeypatch):
    monkeypatch.setattr(continuous_sim, "_CHUNK", 32)
    starts = [
        part["start"]
        for part in iter_fake_grid_chunks(sys2, np.array([0.1]), 70, 21, dt=1e-3, workers=2)
    ]
    assert starts == [0, 32, 64]


def test_wide_grid_chunks_stay_within_the_byte_budget(sys2, monkeypatch):
    # 16,001 query times cost 144,009 bytes a path, so a chunk takes 28
    t_grid = np.arange(16_001) * 1e-4
    parts = list(iter_fake_grid_chunks(sys2, t_grid, 70, 3, dt=1e-4))
    assert [p["start"] for p in parts] == [0, 28, 56]
    for p in parts:
        assert p["values"].nbytes + p["frozen"].nbytes <= continuous_sim._CHUNK_BYTES
        assert len(p["values"]) % 2 == 0 and p["start"] % 2 == 0
    monkeypatch.setattr(continuous_sim, "_CHUNK_BYTES", 2**40)
    whole = list(iter_fake_grid_chunks(sys2, t_grid, 70, 3, dt=1e-4))
    assert len(whole) == 1
    for key in ("values", "frozen", "switch_times", "x0", "busy_start"):
        assert np.array_equal(
            np.concatenate([p[key] for p in parts]), whole[0][key], equal_nan=key == "busy_start"
        ), key


# ---------- exponential variant ----------


def test_exp_path_before_window_is_exponential_martingale():
    # the start is fixed at 1, so the stream opens with the switch uniform,
    # then the 250 increments up to the freeze step
    rng = path_rng(10, 0)
    rng.random()
    b = np.concatenate([[0.0], _brownian(rng, START, 250, 2e-3)[0]])
    row = LOGNORMAL.driver(1.0, b, np.arange(len(b)) * 2e-3)
    assert row[0] == 1.0
    assert np.all(row > 0)
    # log-values before t1 = 0.5 are a drifted random walk with variance dt
    logs = np.log(row[:251]) + np.arange(251) * 2e-3 / 2.0
    assert np.diff(logs).var() == pytest.approx(2e-3, rel=0.3)
    # before the window the engine reports that driver itself
    res = simulate_exp_marginal_samples(
        EXP_WINDOW, EXP_INTERVALS, (0.1, 0.3, 0.9), 1, seed=10, dt=2e-3
    )
    assert res.values[0, 0] == row[50]
    assert res.values[0, 1] == row[150]
    assert not res.frozen[0, :2].any()


def test_exp_path_freezes_inside_gap():
    system = build_interval_system(EXP_INTERVALS, domain=(0.6, 1.1))
    t_queries = (0.5, *(np.arange(251, 451) * 2e-3))
    res = simulate_exp_marginal_samples(EXP_WINDOW, EXP_INTERVALS, t_queries, 60, seed=0, dt=2e-3)
    x1 = res.values[:, 0]
    in_gap = ~system.contains_many(x1)
    assert in_gap.any()
    assert np.array_equal(res.frozen[:, 0], in_gap)
    # frozen paths hold their gap value from t1; released ones are active
    held = np.broadcast_to(x1[:, None], res.values.shape)
    assert np.array_equal(res.values[res.frozen], held[res.frozen])
    assert system.contains_many(res.values[~res.frozen]).all()


def test_exp_path_rejects_bad_window():
    with pytest.raises(ValueError):
        simulate_exp_marginal_samples(
            (0.6, 1.1, 0.0, 1.0), EXP_INTERVALS, (0.9,), 10, seed=1, dt=2e-3
        )
    with pytest.raises(ValueError):
        simulate_exp_marginal_samples(EXP_WINDOW, EXP_INTERVALS, (1.5,), 10, seed=1, dt=2e-3)


def test_exp_path_rejects_unbounded_window():
    # -t + h(t) falls to -inf, so no window reaching t2 = inf is valid; the
    # check used to accept it, and the switch-time bisection never ended
    window = (0.6, 1.1, 0.5, math.inf)
    assert check_exp_window(*window) is False
    with pytest.raises(ValueError, match="window fails"):
        simulate_exp_marginal_samples(window, EXP_INTERVALS, (0.9,), 10, seed=1, dt=2e-3)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
@pytest.mark.parametrize(
    "run",
    [
        lambda dt: simulate_marginal_samples(
            build_interval_system(TWO_GAPS), (0.5,), 10, seed=1, dt=dt),
        lambda dt: simulate_exp_marginal_samples(
            EXP_WINDOW, EXP_INTERVALS, (0.9,), 10, seed=1, dt=dt),
    ],
    ids=["gaussian", "lognormal"],
)
def test_samplers_reject_a_bad_step_naming_dt(run, dt):
    # 0 used to divide by zero, a negative dt to fail in math, NaN in int()
    with pytest.raises(ValueError, match="^dt must be"):
        run(dt)


def test_exp_samples_keep_unit_mean_and_velocity_structure():
    res = simulate_exp_marginal_samples(
        EXP_WINDOW, EXP_INTERVALS, (0.3, 0.6, 0.9), 800, seed=99, dt=2e-3
    )
    assert res.values.shape == (800, 3)
    assert np.all(res.values > 0)
    # martingale: every marginal has mean 1
    for q, t in enumerate((0.3, 0.6, 0.9)):
        sd = math.sqrt((math.exp(t) - 1.0) / 800)
        assert abs(res.values[:, q].mean() - 1.0) <= 4 * sd
    # nothing is frozen before the window opens
    assert not res.frozen[:, 0].any()
    # frozen values sit inside a gap of the (0.6, 1.1) domain
    system = build_interval_system(EXP_INTERVALS, domain=(0.6, 1.1))
    frozen_vals = res.values[:, 1][res.frozen[:, 1]]
    assert frozen_vals.size > 0
    assert not system.contains_many(frozen_vals).any()


def test_exp_query_order_only_permutes_columns():
    # the engine runs on ascending times and no longer reorders them: an
    # unsorted query is refused, and repeated times, t1 itself included,
    # get identical columns back
    t = (0.9, 0.2, 0.6, 0.5, 0.3, 0.9)
    run = lambda q: simulate_exp_marginal_samples(EXP_WINDOW, EXP_INTERVALS, q, 200, seed=7, dt=2e-3)
    with pytest.raises(ValueError, match="ascending"):
        run(t)
    ordered = run(tuple(sorted(t)))
    assert ordered.t_queries == tuple(sorted(t))
    assert np.array_equal(ordered.values[:, 4], ordered.values[:, 5])
    assert np.array_equal(ordered.frozen[:, 4], ordered.frozen[:, 5])
    repeated = run((0.3, 0.5, 0.5, 0.9))
    assert np.array_equal(repeated.values[:, 1], repeated.values[:, 2])
    assert np.array_equal(repeated.values[:, [0, 1, 3]], ordered.values[:, [1, 2, 4]])


def test_exp_samples_deterministic():
    a = simulate_exp_marginal_samples(EXP_WINDOW, EXP_INTERVALS, (0.7,), 60, seed=4, dt=2e-3)
    b = simulate_exp_marginal_samples(EXP_WINDOW, EXP_INTERVALS, (0.7,), 60, seed=4, dt=2e-3)
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        simulate_exp_marginal_samples(EXP_WINDOW, EXP_INTERVALS, (1.2,), 60, seed=4)
