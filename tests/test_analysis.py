"""Statistical harness: KS, martingale bins, flux, coupling, potentials."""

import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binomtest, kstest

from fakebm import analysis, continuous_sim
from fakebm.analysis import (
    convex_order_check,
    count_interval_transitions,
    coupling_experiment,
    flux_experiment,
    ks_marginal_test,
    martingale_bin_test,
    potential_function,
    symmetrized_split,
    wilson_interval,
)
from fakebm.densities import GAUSSIAN, LOGNORMAL, gaussian_density
from fakebm.continuous_sim import simulate_marginal_samples
from fakebm.intervals import build_interval_system, fat_cantor_intervals

TWO_GAPS = [(0.1, 0.4), (0.6, 0.9)]


# ---------- KS marginal test ----------


def test_ks_accepts_correct_marginal():
    rng = np.random.default_rng(100)
    samples = rng.normal(0.0, math.sqrt(2.0), size=2000)
    rep = ks_marginal_test(samples, 1.0)
    assert rep.passed
    assert rep.n_samples == 2000
    assert rep.critical_value_5pct == pytest.approx(1.36 / math.sqrt(2000))
    assert rep.ks_statistic < rep.critical_value_5pct


def test_ks_rejects_wrong_variance():
    rng = np.random.default_rng(101)
    samples = rng.normal(0.0, 1.0, size=2000)  # variance 1, not 1 + t = 2
    rep = ks_marginal_test(samples, 1.0)
    assert not rep.passed
    assert rep.ks_statistic > 0.05


def test_ks_statistic_equals_scipy_bit_for_bit():
    # 2,000 seeded samples: both families, n from 100 to 5,000, every fifth
    # sample rounded to two decimals (ties), every third from a wrong law
    rng = np.random.default_rng(2024)
    mismatches = 0
    for i in range(2000):
        n = int(rng.integers(100, 5001))
        t = float(rng.uniform(0.1, 2.0))
        family = GAUSSIAN if i % 2 == 0 else LOGNORMAL
        scale = 1.2 if i % 3 == 0 else 1.0
        if family is GAUSSIAN:
            x = rng.normal(0.0, scale * math.sqrt(1.0 + t), size=n)
        else:
            x = np.exp(rng.normal(-t / 2.0, scale * math.sqrt(t), size=n))
        if i % 5 == 0:
            x = np.maximum(np.round(x, 2), 0.01)
        ours = ks_marginal_test(x, t, family=family).ks_statistic
        ref = float(kstest(x, lambda v: family.cdf(v, t)).statistic)
        mismatches += ours != ref
    assert mismatches == 0


def test_ks_rejects_tiny_samples():
    with pytest.raises(ValueError):
        ks_marginal_test(np.zeros(99), 1.0)


def test_ks_rejects_samples_that_are_not_a_vector():
    # sorting a 2-d array sorts each row, so its statistic would be wrong
    with pytest.raises(ValueError, match="1-d"):
        ks_marginal_test(np.zeros((2, 100)), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ks_rejects_a_non_finite_sample(bad):
    # one NaN among 200 normals used to give a NaN statistic
    samples = np.append(np.random.default_rng(3).standard_normal(200), bad)
    with pytest.raises(ValueError, match="^samples must be finite"):
        ks_marginal_test(samples, 1.0)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_ks_rejects_a_bad_time_naming_t(t):
    with pytest.raises(ValueError, match="^t must be >= 0 and finite"):
        ks_marginal_test(np.random.default_rng(3).standard_normal(200), t)


# ---------- martingale bin test ----------


def test_martingale_bins_pass_on_true_martingale():
    rng = np.random.default_rng(7)
    x_s = rng.normal(0.0, math.sqrt(1.5), size=20000)
    x_t = x_s + rng.normal(0.0, math.sqrt(0.5), size=20000)
    rep = martingale_bin_test(x_s, x_t)
    assert rep.passed
    assert rep.z_max <= 4.0
    assert len(rep.bins) == 20
    assert sum(b.n for b in rep.bins) == 20000


def test_martingale_bins_flag_drift():
    rng = np.random.default_rng(8)
    x_s = rng.normal(0.0, math.sqrt(1.5), size=20000)
    x_t = x_s + rng.normal(0.0, math.sqrt(0.5), size=20000) + 0.15
    rep = martingale_bin_test(x_s, x_t)
    assert not rep.passed
    assert rep.z_max > 5.0


def test_martingale_bins_flag_mean_reversion():
    rng = np.random.default_rng(9)
    x_s = rng.normal(0.0, math.sqrt(1.5), size=20000)
    x_t = 0.8 * x_s + rng.normal(0.0, math.sqrt(0.5), size=20000)
    rep = martingale_bin_test(x_s, x_t)
    assert not rep.passed


def test_martingale_bins_exclude_empty_quantile_bins():
    rng = np.random.default_rng(10)
    x_s = np.concatenate([np.zeros(600), rng.normal(size=1400)])
    x_t = x_s + rng.normal(0.0, 0.1, size=2000)
    rep = martingale_bin_test(x_s, x_t)
    assert len(rep.excluded) >= 1
    assert all(b.n < 30 for b in rep.excluded)
    assert sum(b.n for b in rep.bins) + sum(b.n for b in rep.excluded) == 2000


def test_martingale_bins_judge_a_flat_bin_by_its_mean():
    # increments with no spread have no standard error: the bin passes iff
    # its mean is exactly zero, and z_max covers only the bins with spread
    x_s = np.arange(60.0)
    for shift, passed in ((0.0, True), (0.25, False)):
        rep = martingale_bin_test(x_s, x_s + shift, n_bins=2)
        assert [b.stderr for b in rep.bins] == [0.0, 0.0]
        assert rep.z_max == 0.0
        assert rep.passed is passed
    x_t = x_s.copy()
    x_t[:30] += np.linspace(-1.0, 1.0, 30)
    x_t[30:] += 0.25
    rep = martingale_bin_test(x_s, x_t, n_bins=2)
    assert rep.bins[0].stderr > 0 and rep.bins[1].stderr == 0.0
    assert rep.z_max <= 4.0 and rep.passed is False


def test_martingale_bins_all_excluded_raises():
    with pytest.raises(ValueError, match="occupancy"):
        martingale_bin_test(np.arange(100.0), np.arange(100.0), n_bins=20)


def test_martingale_bins_validates_arguments():
    x = np.zeros(1000)
    with pytest.raises(ValueError):
        martingale_bin_test(x, x[:-1])


@pytest.mark.parametrize("where", ["x_s", "x_t"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_martingale_bins_reject_non_finite_values(where, bad):
    # a NaN in x_s used to make a bin with NaN edges, and the test passed
    x_s = np.random.default_rng(4).standard_normal(2000)
    x_t = x_s.copy()
    (x_s if where == "x_s" else x_t)[17] = bad
    with pytest.raises(ValueError, match="^x_s and x_t must be finite"):
        martingale_bin_test(x_s, x_t)


# ---------- transitions and flux ----------


def test_count_interval_transitions_hand_case():
    vals = np.array([[0.3, 0.5, 0.7, 0.3, 0.65]])
    fwd, bwd = count_interval_transitions(vals, (0.1, 0.4), (0.6, 0.9))
    assert (fwd, bwd) == (1, 1)


def test_count_interval_transitions_adds_rows():
    one = np.array([[0.2, 0.7]])
    two = np.array([[0.2, 0.7], [0.8, 0.1]])
    assert count_interval_transitions(one, (0.1, 0.4), (0.6, 0.9)) == (1, 0)
    assert count_interval_transitions(two, (0.1, 0.4), (0.6, 0.9)) == (1, 1)


def test_flux_report_structure():
    sys_ = build_interval_system(TWO_GAPS)
    rep = flux_experiment(
        sys_, 0, t_start=0.3, duration=0.05, n_paths=800, seed=17, dt=1e-3,
    )
    assert rep.gap == (0.4, 0.6)
    assert rep.count_in > 0 and rep.count_out > 0
    observed_time = 800 * 50 * 1e-3
    assert rep.rate_in == pytest.approx(rep.count_in / observed_time)
    assert rep.theory_in == pytest.approx(gaussian_density(0.4, 0.3) / 0.4)
    assert rep.theory_out == pytest.approx(gaussian_density(0.6, 0.3) / 0.4)
    assert rep.rel_err_in == pytest.approx(abs(rep.rate_in - rep.theory_in) / rep.theory_in)
    # coarse dt biases the count down; accuracy is pinned elsewhere
    assert rep.rel_err_in < 0.8
    assert rep.rel_err_out < 0.8


def test_flux_rejects_bad_gap_index():
    sys_ = build_interval_system(TWO_GAPS)
    with pytest.raises(ValueError):
        flux_experiment(sys_, 1, 0.3, 0.05, 10, seed=1)


def test_flux_rejects_window_shorter_than_a_step():
    # the window rounds to 0 grid steps, which used to divide by an observed
    # time of 0
    sys_ = build_interval_system(TWO_GAPS)
    with pytest.raises(ValueError, match="duration"):
        flux_experiment(sys_, 0, 1.0, 1e-6, 10, 1, dt=1e-4)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
@pytest.mark.parametrize(
    "run",
    [
        lambda dt: flux_experiment(build_interval_system(TWO_GAPS), 0, 0.3, 0.05, 10, 1, dt=dt),
        lambda dt: coupling_experiment(3, 0.05, 10, 1, dt=dt, t_horizon=0.5),
    ],
    ids=["flux", "coupling"],
)
def test_experiments_reject_a_bad_step_naming_dt(run, dt):
    # both size their grids from dt before the engine sees it: 0 used to
    # divide by zero, a negative dt to fail in math, NaN in int()
    with pytest.raises(ValueError, match="^dt must be"):
        run(dt)


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_flux_rejects_a_non_finite_duration(duration):
    # NaN passed the duration check and failed in int(); inf overflowed
    with pytest.raises(ValueError, match="^duration must be at least dt and finite"):
        flux_experiment(build_interval_system(TWO_GAPS), 0, 0.3, duration, 10, 1, dt=1e-3)


@pytest.mark.parametrize("t_start", [-0.1, math.nan, math.inf])
def test_flux_rejects_a_bad_start_naming_t_start(t_start):
    # a NaN start used to fail with the engine's grid message
    with pytest.raises(ValueError, match="^t_start must be >= 0 and finite"):
        flux_experiment(build_interval_system(TWO_GAPS), 0, t_start, 0.05, 10, 1, dt=1e-3)


@pytest.mark.parametrize("t_horizon", [-1.0, 0.0, math.nan, math.inf])
def test_coupling_rejects_a_bad_horizon_naming_t_horizon(t_horizon):
    # -1 used to fail with the engine's grid message, 0 to run with no
    # meeting, NaN in int() and inf with OverflowError
    with pytest.raises(ValueError, match="^t_horizon must be positive and finite"):
        coupling_experiment(3, 0.05, 10, 1, dt=1e-3, t_horizon=t_horizon)


@pytest.mark.parametrize("t_offset", [-1.0, math.nan, math.inf])
def test_coupling_rejects_a_bad_offset_naming_t_offset(t_offset):
    with pytest.raises(ValueError, match="^t_offset must be >= 0 and finite"):
        coupling_experiment(3, t_offset, 10, 1, dt=1e-3, t_horizon=0.5)


@pytest.mark.parametrize("min_class", [0, -1])
def test_coupling_rejects_min_class_below_one(min_class):
    # min_class 0 called an empty class B conclusive
    with pytest.raises(ValueError, match="^min_class must be >= 1"):
        coupling_experiment(3, 0.05, 10, 1, dt=1e-3, t_horizon=0.5, min_class=min_class)


# ---------- Wilson interval ----------


def test_wilson_matches_scipy():
    for k, n in [(0, 100), (3, 57), (50, 100), (499, 500)]:
        lo, hi = wilson_interval(k, n)
        ci = binomtest(k, n).proportion_ci(confidence_level=0.99, method="wilson")
        assert lo == pytest.approx(ci.low, abs=1e-12)
        assert hi == pytest.approx(ci.high, abs=1e-12)


def test_wilson_edge_cases():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.2
    lo, hi = wilson_interval(50, 50)
    assert 0.8 < lo < 1.0 and hi == 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


# ---------- coupling experiment ----------


def test_coupling_small_run_structure():
    rep = coupling_experiment(
        depth=3, t_offset=0.05, n_pairs=120, seed=5, dt=1e-3, t_horizon=0.5
    )
    assert rep.n_meetings == (
        rep.n_class_a + rep.n_class_b + rep.n_both_busy + rep.n_both_lazy
    )
    assert rep.n_meetings <= 120
    assert rep.status == "inconclusive"  # 120 pairs cannot reach 200 per class
    # a busy path evaluated while still busy sits in the active set, so
    # class A never lands frozen
    assert rep.hits_a == 0
    if rep.n_class_b:
        assert 0.0 <= rep.p_hat_b <= 1.0
        assert 0.0 <= rep.ci_b[0] <= rep.ci_b[1] <= 1.0
    assert rep.meeting_gap_mean < 0.2


def test_chunk_consumers_let_go_of_each_chunk(monkeypatch):
    # a consumer that still holds a chunk while the engine builds the next
    # doubles the chunk arrays' share of the peak
    real = analysis.iter_fake_grid_chunks
    held = []

    def watched(*args, **kwargs):
        seen = []
        for part in real(*args, **kwargs):
            held.append(sum(ref() is not None for ref in seen))
            seen.append(weakref.ref(part["values"]))
            yield part
            del part

    monkeypatch.setattr(analysis, "iter_fake_grid_chunks", watched)
    flux_experiment(build_interval_system(TWO_GAPS), 0, 0.3, 0.02, 600, seed=17, dt=1e-3)
    assert held == [0, 0, 0]


def test_coupling_holds_no_grid_wide_chunk():
    # on the CLI default grid (dt 1e-4, 16,001 points) a chunk of 28 paths'
    # values and frozen flags took about 4 MiB, and this run peaked at
    # 5.2 MiB; the pair search holds one pair's tails, about 0.8 MiB here,
    # and two grid-long arrays, for a peak of about 1.5 MiB
    coupling_experiment(depth=6, t_offset=0.1, n_pairs=30, seed=2, dt=1e-4)  # warm the imports
    tracemalloc.start()
    try:
        rep = coupling_experiment(depth=6, t_offset=0.1, n_pairs=30, seed=3, dt=1e-4, min_class=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.n_meetings > 0
    assert peak < 2 * 2**20


def _full_grid_coupling(depth, t_offset, n_pairs, seed, dt, t_horizon, min_class):
    """coupling_experiment as a pass over every path's values on the whole
    grid: the reference the pair search must equal field for field."""
    system = build_interval_system(fat_cantor_intervals(depth))
    n_grid = int(round((t_horizon + t_offset) / dt))
    t_grid = np.arange(n_grid + 1) * dt
    offset_steps = int(round(t_offset / dt))
    last_meet = n_grid - offset_steps
    found = []
    for part in continuous_sim.iter_fake_grid_chunks(system, t_grid, 2 * n_pairs, seed, dt=dt):
        vals = part["values"]
        t_switch = part["switch_times"]
        for p in range(0, len(vals) - 1, 2):
            x, y = vals[p], vals[p + 1]
            d = x - y
            crossings = np.flatnonzero((d[:-1] * d[1:] <= 0.0) & (d[:-1] != 0.0))
            if len(crossings) == 0 or crossings[0] + 1 > last_meet:
                continue
            k = int(crossings[0]) + 1
            tau = k * dt
            x_busy = t_switch[p] <= tau
            y_busy = t_switch[p + 1] <= tau
            in_frozen = x_busy != y_busy and not system.contains(float(x[k + offset_steps]))
            found.append((abs(float(d[k])), x_busy, y_busy, in_frozen))
    n_a = sum(1 for _, xb, yb, _ in found if xb and not yb)
    n_b = sum(1 for _, xb, yb, _ in found if yb and not xb)
    hits_a = sum(f for _, xb, yb, f in found if xb and not yb)
    hits_b = sum(f for _, xb, yb, f in found if yb and not xb)
    gap_sum = 0.0
    for gap, *_ in found:
        gap_sum += gap
    return analysis.CouplingReport(
        depth=depth,
        t_offset=float(t_offset),
        n_pairs=n_pairs,
        n_meetings=len(found),
        n_class_a=n_a,
        n_class_b=n_b,
        n_both_busy=sum(1 for _, xb, yb, _ in found if xb and yb),
        n_both_lazy=sum(1 for _, xb, yb, _ in found if not xb and not yb),
        hits_a=hits_a,
        hits_b=hits_b,
        p_hat_a=hits_a / n_a if n_a else math.nan,
        p_hat_b=hits_b / n_b if n_b else math.nan,
        ci_a=wilson_interval(hits_a, n_a) if n_a else (math.nan, math.nan),
        ci_b=wilson_interval(hits_b, n_b) if n_b else (math.nan, math.nan),
        status="ok" if min(n_a, n_b) >= min_class else "inconclusive",
        meeting_gap_mean=gap_sum / len(found) if found else math.nan,
    )


@pytest.mark.parametrize(
    "depth, t_offset, n_pairs, seed, dt, t_horizon, patch, workers",
    [
        (3, 0.05, 200, 8, 1e-3, 1.5, {}, 1),
        (6, 0.0, 150, 3, 1e-3, 1.5, {}, 1),
        # dt 1e-4: the first crossings straddle the first window's edge
        (6, 0.05, 40, 4, 1e-4, 0.5, {}, 1),
        # most pairs never meet before the horizon
        (3, 0.05, 200, 5, 1e-3, 0.02, {}, 1),
        # odd chunks would pair across pairs; short windows put many
        # crossings on a window edge
        (3, 0.05, 200, 8, 1e-3, 1.5, {"_CHUNK": 17, "_WINDOW": 5}, 1),
        (6, 0.0, 100, 9, 1e-3, 1.5, {"_WINDOW": 64}, 1),
        (6, 0.05, 100, 9, 1e-3, 1.5, {}, 2),
    ],
    ids=["depth3", "depth6-offset0", "dt1e-4", "short-horizon", "chunk17-window5",
         "window64", "workers2"],
)
def test_pair_search_equals_the_full_grid_pass(
    monkeypatch, depth, t_offset, n_pairs, seed, dt, t_horizon, patch, workers
):
    for name, value in patch.items():
        monkeypatch.setattr(continuous_sim, name, value)
    rep = coupling_experiment(
        depth, t_offset, n_pairs, seed, dt=dt, t_horizon=t_horizon, min_class=1, workers=workers
    )
    ref = _full_grid_coupling(depth, t_offset, n_pairs, seed, dt, t_horizon, min_class=1)
    assert rep.n_meetings > 0
    if t_horizon < 0.1:
        assert rep.n_meetings < n_pairs / 2
    assert repr(rep) == repr(ref)  # repr, so that NaN fields compare equal


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: coupling_experiment(3, 0.05, 2.5, 1, dt=1e-3, t_horizon=0.2), "n_pairs"),
        (lambda: coupling_experiment(2.5, 0.05, 10, 1, dt=1e-3, t_horizon=0.2), "depth"),
        (lambda: simulate_marginal_samples(build_interval_system(TWO_GAPS), [0.5], 2.5, 1), "n_paths"),
        (lambda: fat_cantor_intervals(3.0), "depth"),
    ],
    ids=["n_pairs", "depth", "n_paths", "fat_cantor_depth"],
)
def test_non_integer_counts_are_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def test_coupling_pairs_paths_whatever_the_chunking(monkeypatch):
    # pair p is paths 2p and 2p + 1; an odd chunk would pair across pairs
    def run():
        return coupling_experiment(
            depth=3, t_offset=0.05, n_pairs=200, seed=8, dt=1e-3, min_class=1
        )

    base = run()
    assert base.n_class_a and base.n_class_b
    monkeypatch.setattr(continuous_sim, "_CHUNK", 17)
    assert run() == base
    monkeypatch.undo()
    monkeypatch.setattr(continuous_sim, "_CHUNK_BYTES", 1)
    parts = continuous_sim.iter_fake_grid_chunks(
        build_interval_system(TWO_GAPS), np.arange(1551) * 1e-3, 6, 8, dt=1e-3
    )
    assert [len(p["values"]) for p in parts] == [2, 2, 2]
    assert run() == base


def test_coupling_min_class_controls_status():
    rep = coupling_experiment(
        depth=3, t_offset=0.05, n_pairs=120, seed=5, dt=1e-3, t_horizon=0.5,
        min_class=1,
    )
    if min(rep.n_class_a, rep.n_class_b) >= 1:
        assert rep.status == "ok"


def test_coupling_validates_arguments():
    with pytest.raises(ValueError):
        coupling_experiment(3, 0.1, 0, seed=1)
    with pytest.raises(ValueError):
        coupling_experiment(3, -0.1, 10, seed=1)


# ---------- potentials and convex order ----------


def test_potential_of_unconditioned_gaussian():
    whole = [(-math.inf, math.inf)]
    x = np.array([0.0, 1.0])
    u = potential_function(x, 1.0, whole)
    assert u[0] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    # E|1 - W| = erf(1/sqrt(2)) + 2 phi(1)
    expect = math.erf(1.0 / math.sqrt(2.0)) + 2.0 * math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert u[1] == pytest.approx(expect, rel=1e-12)


def test_potential_at_time_zero_is_absolute_value():
    x = np.array([-2.0, -0.3, 0.0, 1.7])
    u = potential_function(x, 0.0, [(-1.0, 1.0)])
    assert np.array_equal(u, np.abs(x))


def test_potential_matches_quadrature_on_conditioned_set():
    pieces = [(-1.0, 0.5), (2.0, np.inf)]
    t = 0.7
    root = math.sqrt(t)

    def phi(u):
        return math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi)

    mass = quad(phi, -1.0, 0.5)[0] + quad(phi, 2.0, 40.0)[0]
    for x in (-1.5, 0.0, 0.8, 3.0):
        raw = quad(lambda u: abs(x - root * u) * phi(u), -1.0, 0.5)[0]
        raw += quad(lambda u: abs(x - root * u) * phi(u), 2.0, 40.0)[0]
        got = potential_function(np.array([x]), t, pieces)[0]
        assert got == pytest.approx(raw / mass, abs=1e-9)


def test_potential_is_convex_in_x():
    a_pieces, _ = symmetrized_split(2)
    x = np.linspace(-3.0, 3.0, 121)
    u = potential_function(x, 0.8, a_pieces)
    second = u[:-2] - 2.0 * u[1:-1] + u[2:]
    assert np.all(second >= -1e-12)


def test_potential_values_are_pinned():
    # frozen digest of the potentials on the convex-order demo's grids
    # (depth-2 split): any change to the closed form's arithmetic shows
    x_grid = np.arange(-4.0, 4.0 + 1e-9, 0.05)
    digest = hashlib.sha256()
    for pieces in symmetrized_split(2):
        for t in (0.25, 0.5, 1.0, 2.0):
            digest.update(potential_function(x_grid, t, pieces).tobytes())
    assert digest.hexdigest()[:16] == "00cee500fd781d2e"


def test_potential_rejects_zero_mass_and_negative_t():
    with pytest.raises(ValueError):
        potential_function(np.array([0.0]), -1.0, [(-1.0, 1.0)])
    with pytest.raises(ValueError):
        potential_function(np.array([0.0]), 1.0, [(5.0, 5.0)])


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_potential_rejects_a_non_finite_t(t):
    # a NaN t used to return [0.]
    with pytest.raises(ValueError, match="^t must be >= 0 and finite"):
        potential_function([0.0], t, [(-1.0, 1.0)])


def test_potential_monotonicity_fails_for_one_sided_set():
    # the scaling family of a non-centred law is not increasing in convex
    # order: above the mass the potential decreases in t
    x = np.array([10.0])
    u_early = potential_function(x, 0.25, [(1.0, 2.0)])[0]
    u_late = potential_function(x, 1.0, [(1.0, 2.0)])[0]
    assert u_late < u_early


def test_symmetrized_split_depth_one():
    a_pieces, b_pieces = symmetrized_split(1)
    assert a_pieces == [(-0.625, -0.375), (0.375, 0.625)]
    assert b_pieces == [
        (-math.inf, -0.625),
        (-0.375, 0.375),
        (0.625, math.inf),
    ]


def test_symmetrized_split_tiles_the_line():
    a_pieces, b_pieces = symmetrized_split(3)
    walls = [p for piece in a_pieces for p in piece]
    assert walls == sorted(walls)
    merged = sorted(a_pieces + b_pieces)
    assert merged[0][0] == -math.inf and merged[-1][1] == math.inf
    for (_, hi), (lo, _) in zip(merged, merged[1:]):
        assert hi == lo


def test_convex_order_check_passes_depth_two():
    t_grid = np.linspace(0.1, 2.0, 8)
    x_grid = np.arange(-3.0, 3.0 + 1e-9, 0.1)
    assert convex_order_check(2, t_grid, x_grid)


def test_convex_order_check_needs_two_times():
    with pytest.raises(ValueError):
        convex_order_check(2, [1.0], np.array([0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_convex_order_check_rejects_a_bad_time(bad):
    # [0.5, nan] used to return False, as if the order failed
    with pytest.raises(ValueError, match="^t_grid must hold finite times >= 0"):
        convex_order_check(2, [0.5, bad], [0.0])
