"""Marginal density families and the switch-time calibration.

The driving diffusion starts from N(0, 1), so its time-t marginal is
N(0, 1 + t).  Everything here is elementary calculus on that family (and on
the lognormal family used by the exponential variant): densities, cdfs, the
survival ratio p(x, t) / p(x, 0) that governs how long a
frozen particle may stay put, and its inverse, which turns a uniform draw
into a switch time.  A MarginalFamily bundles one family with its driving
path and its switch-time inverse, the two pieces the path engine needs.
The normal cdf and Lambert's W are evaluated here too, in numpy ports of
scipy's, so the package needs no scipy at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "gaussian_density",
    "gaussian_cdf",
    "survival_ratio",
    "invert_survival_ratio",
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
    # NaN fails every comparison, so the check is that each time is >= 0
    if not np.all(t >= 0.0):
        raise ValueError("time must be non-negative and not NaN")
    return t


def gaussian_density(x, t):
    """N(0, 1 + t) density at x."""
    t = _as_time(t)
    v = 1.0 + t
    return np.exp(-np.square(np.asarray(x, dtype=float)) / (2.0 * v)) / np.sqrt(2.0 * math.pi * v)


def gaussian_cdf(x, t):
    """N(0, 1 + t) cdf at x.

    The normal cdf is the in-house port of scipy.special.ndtr, equal to it
    bit for bit.
    """
    t = _as_time(t)
    return _ndtr(np.asarray(x, dtype=float) / np.sqrt(1.0 + t))


def survival_ratio(x, t):
    """p(x, t) / p(x, 0) for the N(0, 1 + t) family.

    Used as the survival function of a frozen particle sitting at x: it is 1
    at t = 0 and strictly decreasing to 0 for |x| <= 1, the only region where
    particles ever freeze.  NaN in x is rejected with the other x outside
    that band.
    """
    t = _as_time(t)
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0):
        raise ValueError("survival ratio is only defined for |x| <= 1")
    v = 1.0 + t
    return np.exp(np.square(x) * t / (2.0 * v)) / np.sqrt(v)


def invert_survival_ratio(x, u):
    """Solve survival_ratio(x, t) = u for t, in closed form.

    With w = x^2 / (1 + t) the equation reads w e^{-w} = x^2 u^2 e^{-x^2},
    so w = -W(-x^2 u^2 e^{-x^2}) for the principal branch W of Lambert's W
    (w <= 1 picks it), and t = e^{x^2 - w} / u^2 - 1.  W is the in-house
    port of scipy.special.lambertw's real branch, equal to it bit for bit.
    Accepts scalars or arrays (x and u broadcast together).  NaN in x or in
    u fails the range checks, as W would pass it through as a NaN time.
    """
    scalar = np.isscalar(x) and np.isscalar(u)
    x, u = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(u, dtype=float))
    if not np.all(np.abs(x) <= 1.0):
        raise ValueError("survival ratio is only defined for |x| <= 1")
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("u must lie strictly between 0 and 1")
    x2 = np.square(x)
    w = -_lambertw0((-x2 * np.square(u) * np.exp(-x2)).ravel()).reshape(x.shape)
    t = np.exp(x2 - w) / np.square(u) - 1.0
    return float(t) if scalar else t


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
    """Cdf of exp(B_t - t/2) with B_0 = 0.

    The normal cdf is the in-house port of scipy.special.ndtr, equal to it
    bit for bit.
    """
    t = _as_time(t)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("lognormal cdf needs x > 0")
    t_b = np.broadcast_arrays(np.asarray(t, dtype=float), x)[0]
    safe_t = np.where(t_b > 0.0, t_b, 1.0)
    cont = _ndtr((np.log(x) + safe_t / 2.0) / np.sqrt(safe_t))
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
    (point mass), so any window starting at t1 <= 0 fails, and -t + h(t)
    falls to -inf as t grows, so any window with t2 = inf fails.
    """
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b")
    if not (t1 < t2):
        raise ValueError("need t1 < t2")
    if t1 <= 0.0 or t2 == math.inf:
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


def _gaussian_driver(x0: float, b: np.ndarray, t) -> np.ndarray:
    """x0 + B_t, written over b; t is not read."""
    b += x0
    return b


def _lognormal_driver(x0: float, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(B_t - t/2), written over b; starts at 1, the family's only start."""
    b -= t / 2.0
    return np.exp(b, out=b)


def _gaussian_switch_times(x, u, t1: float, t2: float) -> np.ndarray:
    """Solve p(x, t1 + s) / p(x, t1) = u for s: p(x, t1 + s) / p(x, 0) is
    u times the survival ratio at t1.  The family has no window end, so t2
    is not read; at t1 = 0 that ratio is exactly 1.0."""
    return invert_survival_ratio(x, u * survival_ratio(x, t1)) - t1


@dataclass(frozen=True)
class MarginalFamily:
    """A marginal law indexed by time, with the pieces the harness needs.

    driver(x0, b, t) maps a start x0 (or a column of starts, one per row of
    b) and standard Brownian values b at times t (B_0 = 0) to the driving
    path, whose time-t law is the family's marginal, and writes it over b.
    It reads t only if reads_time is set, and the engine builds the times
    only then.
    switch_times(x, u, t1, t2) turns uniforms u into the times s after t1
    at which particles frozen at x are released: the survival ratio
    p(x, t1 + s) / p(x, t1) equals u, and s is inf past the window end t2.
    GAUSSIAN has no window end and ignores t2.
    """

    cdf: Callable
    sample_initial: Callable
    driver: Callable
    switch_times: Callable
    reads_time: bool


GAUSSIAN = MarginalFamily(
    cdf=gaussian_cdf,
    sample_initial=_standard_normal_start,
    driver=_gaussian_driver,
    switch_times=_gaussian_switch_times,
    reads_time=False,
)

LOGNORMAL = MarginalFamily(
    cdf=lognormal_cdf,
    sample_initial=_unit_start,
    driver=_lognormal_driver,
    switch_times=_lognormal_switch_times,
    reads_time=True,
)


# ---------- special functions ----------
#
# The standard normal cdf and the real branch of Lambert's W, ported step
# for step from the code scipy.special 1.17 runs for ndtr and lambertw, so
# that no command pays scipy's import.  Their outputs equal scipy's bit for
# bit (tests/test_densities.py).  exp is math.exp, the C library's exp that
# scipy calls: np.exp rounds about one input in twenty on [-1, 0] differently.


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp over a 1-d array."""
    return np.fromiter(map(math.exp, x.tolist()), float, x.size)


def _polevl(x, coef, monic: bool = False):
    """cephes polevl (or p1evl, whose leading coefficient 1 is left out)."""
    y = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


# cephes ndtr.c: erfc(x) = exp(-x^2) P(x) / Q(x) on [1, 8) and R / S beyond,
# erf(x) = x T(x^2) / U(x^2) for |x| < 1; Q, S and U are monic
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2  # ln(DBL_MAX): erfc is 0 once x^2 exceeds it
_SQRT1_2 = 0.70710678118654752440


def _erf_small(x: np.ndarray) -> np.ndarray:
    """cephes erf for |x| < 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)


def _erfc_positive(x: np.ndarray) -> np.ndarray:
    """cephes erfc for x >= sqrt(1/2), a 1-d array."""
    y = np.zeros(x.shape)
    mid = x < 1.0
    y[mid] = 1.0 - _erf_small(x[mid])
    # cephes returns 0 past MAXLOG without evaluating (its y == 0 branch
    # returns 0 too, which for x > 0 is y itself)
    with np.errstate(over="ignore"):
        idx = np.flatnonzero(~mid & ~(-x * x < -_MAXLOG))
    x = x[idx]
    near = x < 8.0
    p = np.where(near, _polevl(x, _ERFC_P), _polevl(x, _ERFC_R))
    q = np.where(near, _polevl(x, _ERFC_Q, monic=True), _polevl(x, _ERFC_S, monic=True))
    y[idx] = _exp(-x * x) * p / q
    return y


def _ndtr(a):
    """Standard normal cdf: scipy.special.ndtr (cephes ndtr), bit for bit."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    flat = x.ravel()
    y = np.empty(flat.shape)
    small = np.abs(flat) < _SQRT1_2
    y[small] = 0.5 + 0.5 * _erf_small(flat[small])
    big = ~small
    tail = 0.5 * _erfc_positive(np.abs(flat[big]))
    y[big] = np.where(flat[big] > 0.0, 1.0 - tail, tail)
    return y.reshape(x.shape)[()]


# scipy's lambertw (k = 0): its initial guesses and Halley iteration, in
# real arithmetic on z in [-1/e, 0], where every complex operation it makes
# has a zero imaginary part
_EXPN1 = 0.36787944117144232159553  # e^-1
_BRANCH_SERIES = (-1.0 / 3.0, 1.0, -1.0)  # W = -1 + p - p^2/3 at the branch point
_PADE_NUM = (12.85106382978723404255, 12.34042553191489361902, 1.0)
_PADE_DEN = (32.53191489361702127660, 14.34042553191489361702, 1.0)
_LAMBERTW_TOL = 1e-8


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add does.

    Floats are dyadic rationals, so the integer form of the sum is exact and
    Python's int / int rounds it correctly.
    """
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    cn, cd = c.as_integer_ratio()
    d = ad * bd
    return (an * bn * cd + cn * d) / (d * cd)


def _quadratic(coef, z: float) -> float:
    """coef[0] z^2 + coef[1] z + coef[2] as scipy's cevalpoly evaluates it."""
    return z * _fma(2.0 * z, coef[0], coef[1]) + _fma(-(z * z), coef[0], coef[2])


def _lambertw_guess(z: float) -> float:
    if abs(z + _EXPN1) < 0.3:
        return _quadratic(_BRANCH_SERIES, math.sqrt(2.0 * (math.e * z + 1.0)))
    # (3, 2) Pade approximant at 0, with z factored out against underflow
    return z * _quadratic(_PADE_NUM, z) / _quadratic(_PADE_DEN, z)


def _lambertw0(z: np.ndarray) -> np.ndarray:
    """Principal branch W_0 on [-1/e, 0]: scipy.special.lambertw(z).real, bit for bit.

    z is a 1-d array.  Each element starts from the branch-point series
    within 0.3 of -1/e and from the Pade approximant elsewhere, and takes
    Halley steps until one moves it by at most 1e-8 of its new value; after
    100 steps (or at z = -1/e, where the step is 0 / 0) it is NaN, as in
    scipy.  Zero is returned as it is and NaN stays NaN.
    """
    out = np.where(z == 0.0, z, math.nan)
    idx = np.flatnonzero(z < 0.0)
    zs = z[idx]
    w = np.array([_lambertw_guess(v) for v in zs.tolist()])
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(100):
            if not idx.size:
                break
            ew = _exp(w)
            wew = w * ew
            wewz = wew - zs
            wn = w - wewz / (wew + ew - (w + 2.0) * wewz / (2.0 * w + 2.0))
            done = np.abs(wn - w) <= _LAMBERTW_TOL * np.abs(wn)
            out[idx[done]] = wn[done]
            idx, zs, w = idx[~done], zs[~done], wn[~done]
    return out
