"""Marginal density families and the switch-time calibration.

The driving diffusion starts from N(0, 1), so its time-t marginal is
N(0, 1 + t).  Everything here is elementary calculus on that family (and on
the lognormal family used by the exponential variant): densities, cdfs, the
survival ratio p(x, t) / p(x, 0) that governs how long a
frozen particle may stay put, and its inverse, which turns a uniform draw
into a switch time.  A MarginalFamily bundles one family with its driving
path and its switch-time inverse, the two pieces the path engine needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import lambertw, ndtr

__all__ = [
    "gaussian_density",
    "gaussian_cdf",
    "survival_ratio",
    "invert_survival_ratio",
    "net_inflow",
    "lognormal_density",
    "lognormal_cdf",
    "lognormal_survival_ratio",
    "check_exp_window",
    "MarginalFamily",
    "GAUSSIAN",
    "LOGNORMAL",
]


def _as_time(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be non-negative")
    return t


def gaussian_density(x, t):
    """N(0, 1 + t) density at x."""
    t = _as_time(t)
    v = 1.0 + t
    return np.exp(-np.square(np.asarray(x, dtype=float)) / (2.0 * v)) / np.sqrt(2.0 * math.pi * v)


def gaussian_cdf(x, t):
    """N(0, 1 + t) cdf at x."""
    t = _as_time(t)
    return ndtr(np.asarray(x, dtype=float) / np.sqrt(1.0 + t))


def survival_ratio(x, t):
    """p(x, t) / p(x, 0) for the N(0, 1 + t) family.

    Used as the survival function of a frozen particle sitting at x: it is 1
    at t = 0 and strictly decreasing to 0 for |x| <= 1, the only region where
    particles ever freeze.
    """
    t = _as_time(t)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("survival ratio is only defined for |x| <= 1")
    v = 1.0 + t
    return np.exp(np.square(x) * t / (2.0 * v)) / np.sqrt(v)


def invert_survival_ratio(x, u):
    """Solve survival_ratio(x, t) = u for t, in closed form.

    With w = x^2 / (1 + t) the equation reads w e^{-w} = x^2 u^2 e^{-x^2},
    so w = -W(-x^2 u^2 e^{-x^2}) for the principal branch W of Lambert's W
    (w <= 1 picks it), and t = e^{x^2 - w} / u^2 - 1.  Accepts scalars or
    arrays (x and u broadcast together).
    """
    scalar = np.isscalar(x) and np.isscalar(u)
    x, u = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(u, dtype=float))
    if np.any(np.abs(x) > 1.0):
        raise ValueError("survival ratio is only defined for |x| <= 1")
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("u must lie strictly between 0 and 1")
    x2 = np.square(x)
    w = -lambertw(-x2 * np.square(u) * np.exp(-x2)).real
    t = np.exp(x2 - w) / np.square(u) - 1.0
    return float(t) if scalar else t


def net_inflow(a, t):
    """Net probability inflow rate into [a, inf) for the N(0, 1 + t) family.

    Equals -p'(x=a, t) / 2 = a * p(a, t) / (2 (1 + t)): the rate at which the
    flat density current pushes mass rightward across level a.
    """
    t = _as_time(t)
    a = np.asarray(a, dtype=float)
    return a * gaussian_density(a, t) / (2.0 * (1.0 + t))


# ---------- lognormal family (exponential variant) ----------


def lognormal_density(x, t):
    """Density of exp(B_t - t/2) with B_0 = 0, i.e. lognormal(-t/2, t).

    At t = 0 the law is a point mass at 1; the density is reported as 0 away
    from 1 and inf at 1.
    """
    t = _as_time(t)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("lognormal density needs x > 0")
    t_b = np.broadcast_arrays(np.asarray(t, dtype=float), x)[0]
    safe_t = np.where(t_b > 0.0, t_b, 1.0)
    y = np.log(x) + safe_t / 2.0
    dens = np.exp(-np.square(y) / (2.0 * safe_t)) / (x * np.sqrt(2.0 * math.pi * safe_t))
    degenerate = np.where(x == 1.0, np.inf, 0.0)
    out = np.where(t_b > 0.0, dens, degenerate)
    return out if out.shape else float(out)


def lognormal_cdf(x, t):
    """Cdf of exp(B_t - t/2) with B_0 = 0."""
    t = _as_time(t)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("lognormal cdf needs x > 0")
    t_b = np.broadcast_arrays(np.asarray(t, dtype=float), x)[0]
    safe_t = np.where(t_b > 0.0, t_b, 1.0)
    cont = ndtr((np.log(x) + safe_t / 2.0) / np.sqrt(safe_t))
    out = np.where(t_b > 0.0, cont, (x >= 1.0).astype(float))
    return out if out.shape else float(out)


def lognormal_survival_ratio(x, t, t0):
    """p(x, t) / p(x, t0) for the lognormal family, t >= t0 > 0."""
    return lognormal_density(x, t) / lognormal_density(x, t0)


def check_exp_window(a, b, t1, t2):
    """Validity check for the exponential-variant window [a, b] x [t1, t2].

    True iff throughout the window the lognormal density is strictly
    decreasing in t and x -> x * p(t, x) is concave.  With y = ln x and
    h(t) = sqrt(t^2 + 4t) / 2, the density decreases iff |y| < h(t), and
    x * p(t, x) is concave iff -t - h(t) <= y <= -t + h(t).  h grows and
    -t - h(t) falls with t, and -t + h(t) has a single maximum, so the
    window's corners decide, exactly: ln a > -h(t1), and ln b <= -t + h(t)
    at t1 and at t2.  These imply the other two corner bounds, ln a >=
    -t1 - h(t1) and ln b < h(t1).  Both properties degenerate at t = 0
    (point mass), so any window starting at t1 <= 0 fails.
    """
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b")
    if not (t1 < t2):
        raise ValueError("need t1 < t2")
    if t1 <= 0.0:
        return False
    h1, h2 = (math.sqrt(t * t + 4.0 * t) / 2.0 for t in (t1, t2))
    return -h1 < math.log(a) and math.log(b) <= min(h1 - t1, h2 - t2)


# width of the bracket at which a lognormal switch-time bisection stops
_LOGNORMAL_TOL = 1e-12


def _lognormal_switch_times(x, u, t1: float, t2: float) -> np.ndarray:
    """Solve p(x, t1 + s) / p(x, t1) = u for s in [0, t2 - t1], elementwise.

    s is 0 where u >= 1 and inf where the particle survives the whole
    window.  The ratio is strictly decreasing on a valid window, so each
    element bisects [0, t2 - t1] until hi - lo <= _LOGNORMAL_TOL; the
    bisection is masked, so every element follows its own midpoints.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    s = np.zeros(x.shape)
    todo = u < 1.0
    survive = np.zeros(x.shape, dtype=bool)
    survive[todo] = lognormal_survival_ratio(x[todo], t2, t1) > u[todo]
    s[survive] = math.inf
    todo &= ~survive
    lo = np.zeros(x.shape)
    hi = np.full(x.shape, t2 - t1)
    idx = np.flatnonzero(todo & (hi - lo > _LOGNORMAL_TOL))
    while idx.size:
        mid = 0.5 * (lo[idx] + hi[idx])
        above = lognormal_survival_ratio(x[idx], t1 + mid, t1) >= u[idx]
        lo[idx[above]] = mid[above]
        hi[idx[~above]] = mid[~above]
        idx = idx[hi[idx] - lo[idx] > _LOGNORMAL_TOL]
    s[todo] = 0.5 * (lo[todo] + hi[todo])
    return s


# ---------- family bundle ----------
#
# The bundle's callables are module-level functions, not lambdas, because
# the path engine pickles the family into its worker processes.


def _standard_normal_start(rng) -> float:
    return float(rng.standard_normal())


def _unit_start(rng) -> float:
    return 1.0


def _gaussian_driver(x0: float, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x0 + B_t."""
    return x0 + b


def _lognormal_driver(x0: float, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(B_t - t/2); starts at 1, the family's only start."""
    return np.exp(b - t / 2.0)


def _gaussian_switch_times(x, u, t1: float, t2: float) -> np.ndarray:
    # the Gaussian family freezes at t1 = 0 and has no window end
    return invert_survival_ratio(x, u)


@dataclass(frozen=True)
class MarginalFamily:
    """A marginal law indexed by time, with the pieces the harness needs.

    driver(x0, b, t) maps a start x0 and standard Brownian values b at times
    t (B_0 = 0) to the driving path, whose time-t law is the family's
    marginal.
    switch_times(x, u, t1, t2) turns uniforms u into the times s after t1
    at which particles frozen at x are released: the survival ratio
    p(x, t1 + s) / p(x, t1) equals u, and s is inf past the window end t2.
    GAUSSIAN freezes only at t1 = 0 and its switch_times ignores t1 and t2,
    solving p(x, s) / p(x, 0) = u.
    """

    cdf: Callable
    sample_initial: Callable
    driver: Callable
    switch_times: Callable


GAUSSIAN = MarginalFamily(
    cdf=gaussian_cdf,
    sample_initial=_standard_normal_start,
    driver=_gaussian_driver,
    switch_times=_gaussian_switch_times,
)

LOGNORMAL = MarginalFamily(
    cdf=lognormal_cdf,
    sample_initial=_unit_start,
    driver=_lognormal_driver,
    switch_times=_lognormal_switch_times,
)
