"""Statistical verification harness for the simulated construction.

Marginal KS tests, conditional-mean (martingale) bin tests, boundary jump
flux rates, the coupling experiment that exhibits the strong-Markov failure,
and the convex-order check on truncated-Gaussian potentials.  Every routine
is deterministic given (seed, config).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .densities import GAUSSIAN, MarginalFamily, _ndtr, gaussian_density
from .intervals import IntervalSystem, build_interval_system, fat_cantor_intervals
from .continuous_sim import _pair_meetings, iter_fake_grid_chunks

__all__ = [
    "KSReport",
    "ks_marginal_test",
    "BinStat",
    "MartingaleBinReport",
    "martingale_bin_test",
    "FluxReport",
    "count_interval_transitions",
    "flux_experiment",
    "wilson_interval",
    "CouplingReport",
    "coupling_experiment",
    "potential_function",
    "symmetrized_split",
    "convex_order_check",
]

_Z_99 = 2.5758293035489004  # two-sided 99% normal quantile
_MIN_BIN = 30  # fewest samples a martingale bin needs to be kept
_MIN_KS = 100  # fewest samples ks_marginal_test accepts


# ---------- marginal KS ----------


@dataclass(frozen=True)
class KSReport:
    t_query: float
    n_samples: int
    ks_statistic: float
    critical_value_5pct: float
    passed: bool


def ks_marginal_test(samples, t: float, family: MarginalFamily = GAUSSIAN) -> KSReport:
    """KS distance between a sample and the family's time-t marginal.

    The statistic is the larger of D+ and D- over the sorted sample, the
    same arithmetic as scipy.stats.kstest, so it equals kstest's statistic
    bit for bit.  critical_value_5pct is the asymptotic 5% value
    1.36 / sqrt(n); passed compares the statistic against it.  Small samples
    run but have little power; n below _MIN_KS = 100 is rejected.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if samples.ndim != 1:
        raise ValueError("samples must be a 1-d array")
    if n == 0:
        raise ValueError("empty sample")
    if n < _MIN_KS:
        raise ValueError(f"need at least {_MIN_KS} samples")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    if not 0 <= t < math.inf:  # NaN fails too
        raise ValueError("t must be >= 0 and finite")
    cdf = family.cdf(np.sort(samples), t)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    stat = float(d_plus if d_plus > d_minus else d_minus)
    crit = 1.36 / math.sqrt(n)
    return KSReport(
        t_query=float(t),
        n_samples=int(n),
        ks_statistic=stat,
        critical_value_5pct=crit,
        passed=stat <= crit,
    )


# ---------- martingale bins ----------


@dataclass(frozen=True)
class BinStat:
    lo: float
    hi: float
    mean_increment: float
    stderr: float
    n: int


@dataclass(frozen=True)
class MartingaleBinReport:
    bins: tuple
    excluded: tuple
    z_max: float
    passed: bool


def martingale_bin_test(x_s, x_t, n_bins: int = 20, z_max: float = 4.0) -> MartingaleBinReport:
    """Conditional-mean test of E[X_t - X_s | X_s], for the values of the
    same paths at two times s < t.

    Bins are X_s quantile bins; the test passes iff every kept bin's mean
    increment lies within z_max standard errors of zero, which for a bin
    whose increments have no spread means a mean of exactly zero.  z_max of
    the report is the worst z over the bins with spread (0 if there are
    none).  Bins with fewer than _MIN_BIN samples are excluded and reported.
    """
    x_s = np.asarray(x_s, dtype=float)
    x_t = np.asarray(x_t, dtype=float)
    if x_s.shape != x_t.shape or x_s.ndim != 1:
        raise ValueError("x_s and x_t must be matching 1-d arrays")
    if not (np.isfinite(x_s).all() and np.isfinite(x_t).all()):
        raise ValueError("x_s and x_t must be finite")
    if n_bins < 1:
        raise ValueError("need at least one bin")
    edges = np.quantile(x_s, np.linspace(0.0, 1.0, n_bins + 1))
    which = np.clip(np.searchsorted(edges, x_s, side="right") - 1, 0, n_bins - 1)
    incr = x_t - x_s
    bins = []
    excluded = []
    for b in range(n_bins):
        mask = which == b
        n = int(mask.sum())
        lo, hi = float(edges[b]), float(edges[b + 1])
        if n < _MIN_BIN:
            excluded.append(BinStat(lo, hi, math.nan, math.nan, n))
            continue
        vals = incr[mask]
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(n))
        bins.append(BinStat(lo, hi, mean, stderr, n))
    if not bins:
        raise ValueError("all bins were below the minimum occupancy")
    z = max((abs(b.mean_increment) / b.stderr for b in bins if b.stderr > 0), default=0.0)
    flat_ok = all(b.mean_increment == 0 for b in bins if b.stderr == 0)
    return MartingaleBinReport(
        bins=tuple(bins),
        excluded=tuple(excluded),
        z_max=float(z),
        passed=z <= z_max and flat_ok,
    )


# ---------- boundary flux ----------


def count_interval_transitions(values: np.ndarray, left, right) -> tuple[int, int]:
    """One-grid-step transitions between two intervals along each path.

    values is (n_paths, n_grid); returns (#left->right, #right->left), where
    membership is the closed interval.
    """
    values = np.asarray(values, dtype=float)
    in_left = (values >= left[0]) & (values <= left[1])
    in_right = (values >= right[0]) & (values <= right[1])
    fwd = int(np.count_nonzero(in_left[:, :-1] & in_right[:, 1:]))
    bwd = int(np.count_nonzero(in_right[:, :-1] & in_left[:, 1:]))
    return fwd, bwd


@dataclass(frozen=True)
class FluxReport:
    left_interval: tuple
    right_interval: tuple
    gap: tuple
    t_start: float
    duration: float
    n_paths: int
    count_in: int
    count_out: int
    rate_in: float
    rate_out: float
    theory_in: float
    theory_out: float
    rel_err_in: float
    rel_err_out: float


def flux_experiment(
    system: IntervalSystem,
    gap_index: int,
    t_start: float,
    duration: float,
    n_paths: int,
    seed: int,
    dt: float = 2.5e-5,
    workers: int = 1,
) -> FluxReport:
    """Empirical jump rates across one interior gap against the closed form.

    gap_index g picks the facing pair: left interval g, right interval g+1,
    with boundaries b = left end of the gap and a = right end.  A jump "in"
    is a one-step transition from the left interval into the right one; its
    rate per unit time per path should approach p(b, t) / (2 (a - b)), and
    the reverse rate p(a, t) / (2 (a - b)).  Counting crossings of a
    Gaussian-step driver under-estimates the rates by a boundary-layer
    factor of order sqrt(dt) / (a - b), so this experiment wants a finer dt
    than the marginal tests.
    """
    if not 0 <= gap_index < system.n_intervals - 1:
        raise ValueError("gap_index must pick a pair of consecutive intervals")
    if not 0 < dt < math.inf:  # NaN fails too
        raise ValueError("dt must be positive and finite")
    if not dt <= duration < math.inf:
        raise ValueError("duration must be at least dt and finite")
    if not 0 <= t_start < math.inf:
        raise ValueError("t_start must be >= 0 and finite")
    left = system.bounded[gap_index]
    right = system.bounded[gap_index + 1]
    b_pt, a_pt = system.gaps()[gap_index + 1]
    n_grid = int(round(duration / dt))
    t_grid = t_start + np.arange(n_grid + 1) * dt
    count_in = 0
    count_out = 0

    def transitions(part):
        return count_interval_transitions(part["values"], left, right)

    # map lets go of each chunk before the engine builds the next one
    chunks = iter_fake_grid_chunks(system, t_grid, n_paths, seed, dt=dt, workers=workers)
    for fwd, bwd in map(transitions, chunks):
        count_in += fwd
        count_out += bwd
    observed_time = n_paths * n_grid * dt
    rate_in = count_in / observed_time
    rate_out = count_out / observed_time
    width = a_pt - b_pt
    theory_in = float(gaussian_density(b_pt, t_start)) / (2.0 * width)
    theory_out = float(gaussian_density(a_pt, t_start)) / (2.0 * width)
    return FluxReport(
        left_interval=left,
        right_interval=right,
        gap=(b_pt, a_pt),
        t_start=float(t_start),
        duration=float(duration),
        n_paths=n_paths,
        count_in=count_in,
        count_out=count_out,
        rate_in=rate_in,
        rate_out=rate_out,
        theory_in=theory_in,
        theory_out=theory_out,
        rel_err_in=abs(rate_in - theory_in) / theory_in,
        rel_err_out=abs(rate_out - theory_out) / theory_out,
    )


# ---------- coupling experiment ----------


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need n > 0")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    z = _Z_99
    p = k / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


@dataclass(frozen=True)
class CouplingReport:
    """Outcome of the independent-pair meeting experiment.

    Pairs (X, X') are independent copies; tau is the first grid crossing of
    X - X'.  Class A keeps pairs where X is already busy at tau and X' still
    frozen, class B the mirror image.  p_hat_* estimate
    P(X_{tau + t_offset} in the frozen set | class).  A strong Markov process
    could not tell the classes apart at a meeting point; here class A stays
    in the active set (its values are time-changed driver points, which the
    left-endpoint clock rule keeps active) while class B holds its frozen
    value, so the probabilities separate.
    """

    depth: int
    t_offset: float
    n_pairs: int
    n_meetings: int
    n_class_a: int
    n_class_b: int
    n_both_busy: int
    n_both_lazy: int
    hits_a: int
    hits_b: int
    p_hat_a: float
    p_hat_b: float
    ci_a: tuple
    ci_b: tuple
    status: str
    meeting_gap_mean: float


def coupling_experiment(
    depth: int,
    t_offset: float,
    n_pairs: int,
    seed: int,
    dt: float = 1e-4,
    t_horizon: float = 1.5,
    min_class: int = 200,
    workers: int = 1,
) -> CouplingReport:
    """Meet two independent copies and look where the first one goes next.

    Membership in the frozen set is exact complement-of-active membership;
    no tolerance is involved.  Pairs that never cross before t_horizon are
    discarded, as are crossings too late to leave room for the offset.
    Fewer than min_class meetings in either class marks the run
    inconclusive.  meeting_gap_mean records the average |X - X'| at the
    crossing step, a pure grid-resolution diagnostic (the continuum paths
    meet exactly).

    Each pair is simulated only as far as the meeting test reads, in grid
    windows that double in length: both copies until their first crossing,
    or the last one that counts, and the first copy on to the offset only
    when exactly one copy is busy at the crossing.
    """
    if not isinstance(n_pairs, numbers.Integral):
        raise ValueError(f"n_pairs must be an integer, got {n_pairs!r}")
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    if not 0 <= t_offset < math.inf:  # NaN fails too
        raise ValueError("t_offset must be >= 0 and finite")
    if not 0 < t_horizon < math.inf:
        raise ValueError("t_horizon must be positive and finite")
    if min_class < 1:
        raise ValueError("min_class must be >= 1")
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    system = build_interval_system(fat_cantor_intervals(depth))
    n_grid = int(round((t_horizon + t_offset) / dt))
    offset_steps = int(round(t_offset / dt))

    n_meetings = n_a = n_b = n_bb = n_ll = 0
    hits_a = hits_b = 0
    gap_sum = 0.0
    for found in _pair_meetings(system, n_grid, offset_steps, n_pairs, seed, dt, workers):
        for gap, x_busy, y_busy, in_frozen in found:
            n_meetings += 1
            gap_sum += gap
            if x_busy and y_busy:
                n_bb += 1
            elif not x_busy and not y_busy:
                n_ll += 1
            elif x_busy:
                n_a += 1
                hits_a += in_frozen
            else:
                n_b += 1
                hits_b += in_frozen

    status = "ok" if min(n_a, n_b) >= min_class else "inconclusive"
    p_a = hits_a / n_a if n_a else math.nan
    p_b = hits_b / n_b if n_b else math.nan
    ci_a = wilson_interval(hits_a, n_a) if n_a else (math.nan, math.nan)
    ci_b = wilson_interval(hits_b, n_b) if n_b else (math.nan, math.nan)
    return CouplingReport(
        depth=depth,
        t_offset=float(t_offset),
        n_pairs=n_pairs,
        n_meetings=n_meetings,
        n_class_a=n_a,
        n_class_b=n_b,
        n_both_busy=n_bb,
        n_both_lazy=n_ll,
        hits_a=hits_a,
        hits_b=hits_b,
        p_hat_a=p_a,
        p_hat_b=p_b,
        ci_a=ci_a,
        ci_b=ci_b,
        status=status,
        meeting_gap_mean=gap_sum / n_meetings if n_meetings else math.nan,
    )


# ---------- convex order ----------


def potential_function(x_grid, t: float, pieces) -> np.ndarray:
    """u_t(x) = E|x - sqrt(t) W| for W standard normal conditioned on a set.

    pieces is a list of (lo, hi) intervals (infinite endpoints allowed) whose
    union is the conditioning set.  Each piece integrates in closed form via
    the Gaussian cdf/pdf, split at the kink x / sqrt(t).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if not 0 <= t < math.inf:  # NaN fails too
        raise ValueError("t must be >= 0 and finite")
    if t == 0.0:
        return np.abs(x_grid)
    lo = np.array([p[0] for p in pieces])
    hi = np.array([p[1] for p in pieces])
    mass = np.sum(_ndtr(hi) - _ndtr(lo))
    if mass <= 0:
        raise ValueError("conditioning set has zero Gaussian mass")
    root = math.sqrt(t)
    c = x_grid[:, None] / root

    def seg(a, b, sign):
        # integral of sign * (x - sqrt(t) u) phi(u) over [a, b]
        return sign * (
            x_grid[:, None] * (_ndtr(b) - _ndtr(a))
            + root * (gaussian_density(b, 0.0) - gaussian_density(a, 0.0))
        )

    lo_l = lo[None, :]
    hi_l = np.minimum(hi[None, :], c)
    left = np.where(hi_l > lo_l, seg(lo_l, np.maximum(hi_l, lo_l), 1.0), 0.0)
    lo_r = np.maximum(lo[None, :], c)
    hi_r = hi[None, :]
    right = np.where(hi_r > lo_r, seg(np.minimum(lo_r, hi_r), hi_r, -1.0), 0.0)
    return (left.sum(axis=1) + right.sum(axis=1)) / mass


def symmetrized_split(depth: int):
    """Symmetric conditioning sets from the depth-d fat Cantor construction.

    Returns (a_pieces, b_pieces): the removed intervals mirrored about 0, and
    the complement of their union in the real line.
    """
    ivs = fat_cantor_intervals(depth)
    a_pieces = [(-b, -a) for a, b in reversed(ivs)] + ivs
    b_pieces = []
    prev = -math.inf
    for a, b in a_pieces:
        b_pieces.append((prev, a))
        prev = b
    b_pieces.append((prev, math.inf))
    return a_pieces, b_pieces


def convex_order_check(depth: int, t_grid, x_grid, tol: float = 1e-9) -> bool:
    """Whether sqrt(t) U and sqrt(t) V are increasing in convex order in t.

    U is standard normal conditioned on the symmetrized removed set, V on its
    complement.  Checks that the potentials u_t(x) = E|x - sqrt(t) U| are
    non-decreasing in t at every grid x, within tol; symmetric laws with the
    same scaling family must satisfy this, which is the premise the fake
    construction is built on.
    """
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 2:
        raise ValueError("need at least two t values")
    if not all(0 <= t < math.inf for t in t_grid):  # NaN fails too
        raise ValueError("t_grid must hold finite times >= 0")
    t_grid.sort()
    x_grid = np.asarray(x_grid, dtype=float)
    for pieces in symmetrized_split(depth):
        prev = None
        for t in t_grid:
            cur = potential_function(x_grid, t, pieces)
            if prev is not None and np.any(cur - prev < -tol):
                return False
            prev = cur
    return True
