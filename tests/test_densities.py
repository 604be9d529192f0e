"""Marginal density layer: closed forms against independent oracles.

Finite differences use h = 1e-5 (central, error O(h^2) ~ 1e-10 at these
scales); quadrature oracles use scipy.integrate.quad.  The in-house normal
cdf and Lambert's W are compared with scipy.special bit for bit.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fakebm.densities import (
    GAUSSIAN,
    LOGNORMAL,
    _EXPN1,
    _fma,
    _lambertw0,
    _ndtr,
    check_exp_window,
    gaussian_cdf,
    gaussian_density,
    invert_survival_ratio,
    lognormal_cdf,
    lognormal_density,
    lognormal_survival_ratio,
    survival_ratio,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_density_at_origin_t0():
    assert gaussian_density(0.0, 0.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-15)


def test_density_at_origin_t3():
    # variance 1 + 3 = 4 at t = 3, so the peak is 1 / sqrt(8 pi)
    assert gaussian_density(0.0, 3.0) == pytest.approx(1.0 / math.sqrt(8 * math.pi), rel=1e-15)


def test_density_integrates_to_one():
    for t in (0.0, 0.7, 2.5):
        total, _ = quad(lambda x: gaussian_density(x, t), -50, 50)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_cdf_matches_quadrature():
    for t, x in [(0.0, 0.3), (1.0, -0.8), (2.0, 1.7)]:
        part, _ = quad(lambda v: gaussian_density(v, t), -50, x)
        assert gaussian_cdf(x, t) == pytest.approx(part, abs=1e-12)


def test_density_decreasing_inside_unit_band():
    # for |x| < 1 the marginal density at x strictly decreases in t
    ts = np.linspace(0.0, 5.0, 200)
    for x in (0.0, 0.5, 0.97):
        vals = gaussian_density(x, ts)
        assert np.all(np.diff(vals) < 0)


def test_density_initially_increasing_outside_unit_band():
    ts = np.linspace(0.0, 0.1, 50)
    assert np.all(np.diff(gaussian_density(1.5, ts)) > 0)


def test_survival_ratio_explicit_value():
    # (1+t)^{-1/2} exp(x^2 t / (2 (1+t))) at x=0.5, t=1:
    # 2^{-1/2} e^{1/16} = 0.7527112504363229
    assert survival_ratio(0.5, 1.0) == pytest.approx(0.7527112504363229, rel=1e-13)


def test_survival_ratio_is_density_ratio():
    for x in (0.0, 0.5, 0.9):
        for t in (0.3, 1.0, 4.0):
            expect = gaussian_density(x, t) / gaussian_density(x, 0.0)
            assert survival_ratio(x, t) == pytest.approx(expect, rel=1e-13)


def test_survival_ratio_rejects_outside_band():
    with pytest.raises(ValueError):
        survival_ratio(1.5, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: survival_ratio(math.nan, 1.0), r"\|x\| <= 1"),
        (lambda: survival_ratio(np.array([0.5, math.nan]), 1.0), r"\|x\| <= 1"),
        (lambda: invert_survival_ratio(math.nan, 0.5), r"\|x\| <= 1"),
        (lambda: invert_survival_ratio(np.array([0.5, math.nan]), 0.5), r"\|x\| <= 1"),
        (lambda: invert_survival_ratio(0.5, math.nan), "strictly between 0 and 1"),
        (lambda: invert_survival_ratio(0.5, np.array([0.5, math.nan])), "strictly between 0 and 1"),
    ],
    ids=["ratio-x", "ratio-x-array", "invert-x", "invert-x-array", "invert-u", "invert-u-array"],
)
def test_survival_ratio_and_inverse_reject_nan(call, message):
    # NaN fails no order comparison, so it must fail the range checks
    # rather than come back as a NaN ratio or switch time
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: gaussian_density(0.5, math.nan),
        lambda: survival_ratio(0.5, math.nan),
        lambda: survival_ratio(0.5, np.array([1.0, math.nan])),
        lambda: GAUSSIAN.switch_times(np.array([0.5]), np.array([0.5]), math.nan, math.inf),
    ],
    ids=["density", "ratio", "ratio-array", "gaussian-switch-times"],
)
def test_nan_time_is_rejected_naming_the_time(call):
    # a NaN time used to come back as a NaN density or ratio, and the switch
    # times blamed u for it
    with pytest.raises(ValueError, match="time must be non-negative and not NaN"):
        call()


def test_invert_survival_ratio_at_origin():
    # at x=0 the ratio is (1+t)^{-1/2}, so t = 1/u^2 - 1, exact for these u
    assert invert_survival_ratio(0.0, 0.5) == 3.0
    assert invert_survival_ratio(0.0, 0.25) == 15.0


def _bisect_survival_ratio(x, u, atol=1e-12, rtol=1e-12):
    # reference: bracket doubling from 1, then bisection to atol + rtol * t
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(200):
        short = survival_ratio(x, hi) >= u
        if not np.any(short):
            break
        hi[short] *= 2.0
    for _ in range(200):
        done = (hi - lo) <= atol + rtol * lo
        if np.all(done):
            break
        mid = 0.5 * (lo + hi)
        above = survival_ratio(x, mid) >= u
        lo = np.where(above & ~done, mid, lo)
        hi = np.where(~above & ~done, mid, hi)
    return 0.5 * (lo + hi)


def _seeded_pairs(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    u = 1.0 - rng.random(n)  # in (0, 1]
    u[u == 1.0] = 0.5
    return x, u


def test_invert_survival_ratio_solves_the_ratio_to_rounding():
    x, u = _seeded_pairs(100_000, 8)
    eps = 2.0**-53
    x = np.concatenate([x, [1.0, -1.0, 1.0, -1.0, 0.0, 0.0, 0.0]])
    u = np.concatenate([u, [1.0 - eps, 1.0 - eps, eps, eps, eps, 0.5, 1.0 - eps]])
    t = invert_survival_ratio(x, u)
    assert np.all(t > 0.0)
    assert np.max(np.abs(survival_ratio(x, t) / u - 1.0)) <= 1e-15


def test_invert_survival_ratio_agrees_with_bisection():
    # away from u = 1, where t is ill-conditioned, the closed form and the
    # bisection it replaced agree to the bisection's tolerance
    x, u = _seeded_pairs(20_000, 9)
    u = np.minimum(u, 1.0 - 1e-6)
    t = invert_survival_ratio(x, u)
    assert np.all(np.abs(t - _bisect_survival_ratio(x, u)) <= 1e-12 * (1.0 + t))


def test_invert_survival_ratio_round_trip():
    for x in (0.0, 0.42, 0.73, 0.95):
        for t in (0.01, 0.5, 2.0, 50.0):
            u = survival_ratio(x, t)
            assert invert_survival_ratio(x, u) == pytest.approx(t, rel=1e-9, abs=1e-9)


def test_invert_survival_ratio_vectorized():
    x = np.array([0.0, 0.3, 0.6])
    u = np.array([0.5, 0.25, 0.9])
    out = invert_survival_ratio(x, u)
    assert out.shape == (3,)
    for xi, ui, ti in zip(x, u, out):
        assert survival_ratio(float(xi), float(ti)) == pytest.approx(float(ui), abs=1e-10)


def test_invert_survival_ratio_monotone_in_u():
    ts = invert_survival_ratio(np.full(5, 0.4), np.array([0.9, 0.7, 0.5, 0.3, 0.1]))
    assert np.all(np.diff(ts) > 0)


def test_marginal_family_gaussian_bundle():
    assert GAUSSIAN.cdf(0.3, 1.0) == pytest.approx(gaussian_cdf(0.3, 1.0))


@pytest.mark.parametrize("t1", [0.25, 1.0, 3.0])
def test_gaussian_switch_times_condition_on_t1(t1):
    # s solves p(x, t1 + s) / p(x, t1) = u, the MarginalFamily contract
    x, u = _seeded_pairs(2_000, 21)
    u = np.minimum(u, 1.0 - 1e-6)
    s = GAUSSIAN.switch_times(x, u, t1, math.inf)
    assert np.all(s > 0.0)
    ratio = gaussian_density(x, t1 + s) / gaussian_density(x, t1)
    assert np.allclose(ratio, u, rtol=1e-9, atol=0.0)


def test_gaussian_switch_times_at_t1_zero_are_the_plain_inverse():
    # the survival ratio at t1 = 0 is exactly 1.0, so the engine's switch
    # times, drawn at t1 = 0, keep every bit
    x, u = _seeded_pairs(20_000, 22)
    assert np.array_equal(GAUSSIAN.switch_times(x, u, 0.0, math.inf), invert_survival_ratio(x, u))
    assert np.array_equal(survival_ratio(x, 0.0), np.ones_like(x))


# ---------- exponential-martingale variant ----------


def test_lognormal_density_matches_quadrature_moments():
    # X_t = exp(B_t - t/2): density of lognormal(-t/2, t); mean must be 1
    for t in (0.25, 1.0):
        mean, _ = quad(lambda x: x * lognormal_density(x, t), 0, np.inf, limit=200)
        assert mean == pytest.approx(1.0, abs=1e-9)


def test_lognormal_median():
    for t in (0.3, 1.0, 2.0):
        assert lognormal_cdf(math.exp(-t / 2.0), t) == pytest.approx(0.5, abs=1e-12)


def test_lognormal_survival_ratio_is_density_ratio():
    for x in (0.7, 0.9, 1.05):
        r = lognormal_survival_ratio(x, 0.9, 0.5)
        expect = lognormal_density(x, 0.9) / lognormal_density(x, 0.5)
        assert r == pytest.approx(expect, rel=1e-12)


def test_exp_window_accepts_known_good_window():
    assert check_exp_window(0.6, 1.1, 0.5, 1.0)


def test_exp_window_rejects_time_zero_start():
    assert not check_exp_window(0.6, 1.1, 0.0, 1.0)


def test_exp_window_rejects_band_spanning_one_late():
    # for large t the density at x just below 1 increases in t
    assert not check_exp_window(0.2, 3.0, 2.0, 4.0)


def test_exp_window_density_decrease_oracle():
    # inside the accepted window the density must genuinely decrease in t
    h = 1e-6
    for x in np.linspace(0.62, 1.08, 7):
        for t in (0.55, 0.75, 0.95):
            fd = (lognormal_density(x, t + h) - lognormal_density(x, t - h)) / (2 * h)
            assert fd < 0


def test_exp_window_concavity_oracle():
    # x * p(t, x) concave in x on the accepted window (second difference <= 0)
    hh = 1e-4
    for x in np.linspace(0.65, 1.05, 9):
        for t in (0.55, 0.8, 1.0):
            f = lambda v: v * lognormal_density(v, t)
            second = (f(x + hh) - 2 * f(x) + f(x - hh)) / hh**2
            assert second < 0


def _dense_window_oracle(a, b, t1, t2, nx=2001, nt=1001):
    # both conditions on a dense grid: the density falls from each time row
    # to the next, and x * p(t, x) has non-positive second differences in x
    xs = np.linspace(a, b, nx)
    dens = lognormal_density(xs, np.linspace(t1, t2, nt)[:, None])
    g = xs * dens
    falls = np.all(np.diff(dens, axis=0) < 0.0)
    concave = np.all(g[:, :-2] - 2.0 * g[:, 1:-1] + g[:, 2:] <= 0.0)
    return bool(falls and concave)


@pytest.mark.parametrize(
    "ya, yb, t1, t2, admissible",
    [
        # t1 = 0.5, t2 = 1: need ln a > -h(0.5) = -0.75 and, with t2
        # binding, ln b <= -1 + h(1) = 0.118
        (-0.70, 0.00, 0.5, 1.0, True),
        (-0.80, 0.00, 0.5, 1.0, False),  # density rises near a at t1
        (-0.50, 0.08, 0.5, 1.0, True),
        (-0.50, 0.16, 0.5, 1.0, False),  # convex near b at t2
        # t1 = 0.05, t2 = 0.3: -t + h(t) peaks between them, so t1 binds:
        # ln b <= -0.05 + h(0.05) = 0.175; ln a > -h(0.05) = -0.225
        (-0.20, 0.15, 0.05, 0.3, True),
        (-0.20, 0.20, 0.05, 0.3, False),  # convex near b at t1
        (-0.25, 0.15, 0.05, 0.3, False),  # density rises near a at t1
    ],
)
def test_exp_window_matches_dense_oracle(ya, yb, t1, t2, admissible):
    window = (math.exp(ya), math.exp(yb), t1, t2)
    assert check_exp_window(*window) is admissible
    assert _dense_window_oracle(*window) is admissible


def test_exp_window_rejects_window_a_coarse_grid_accepts():
    # a 201 x 101 grid check accepts this window; but ln b = -0.41943 lies
    # above -t2 + h(t2) = -0.42148, so x * p(t2, x) is convex just below b
    a, b, t1, t2 = (0.3565954769491023, 0.6574240539730726,
                    1.4405820760569081, 2.3567748843153176)
    assert not check_exp_window(a, b, t1, t2)
    hh = 1e-4
    f = lambda v: v * lognormal_density(v, t2)
    x = b - hh
    assert (f(x + hh) - 2 * f(x) + f(x - hh)) / hh**2 > 0


def test_lognormal_family_bundle():
    assert LOGNORMAL.cdf(0.8, 0.7) == pytest.approx(lognormal_cdf(0.8, 0.7))


def _scalar_lognormal_switch_time(x, t1, t2, u, tol=1e-12):
    # reference: one scalar bisection per particle
    if u >= 1.0:
        return 0.0
    if lognormal_survival_ratio(x, t2, t1) > u:
        return math.inf
    lo, hi = 0.0, t2 - t1
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if lognormal_survival_ratio(x, t1 + mid, t1) >= u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_lognormal_switch_times_match_scalar_bisection_bit_for_bit():
    rng = np.random.default_rng(2024)
    x = rng.uniform(0.6, 1.1, 3000)
    u = rng.random(3000)
    u[:300] = 1.0 - rng.random(300) * 1e-9  # close to 1: tiny switch times
    u[300:310] = 1.0
    s = LOGNORMAL.switch_times(x, u, 0.5, 1.0)
    expect = [_scalar_lognormal_switch_time(xi, 0.5, 1.0, ui) for xi, ui in zip(x, u)]
    assert np.isinf(s).sum() > 100  # survivors of the window
    assert np.array_equal(s, expect)


# ---------- the in-house ports of scipy.special ----------


def _assert_same_bits(ours, theirs):
    ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs, dtype=float)
    assert ours.shape == theirs.shape
    nan = np.isnan(theirs)
    assert np.array_equal(np.isnan(ours), nan)
    mismatch = ours[~nan].view(np.uint64) != theirs[~nan].view(np.uint64)
    assert not mismatch.any(), (ours[~nan][mismatch][:5], theirs[~nan][mismatch][:5])


def test_fma_rounds_once():
    # 0.1 * 10 is 1 + 2^-54 exactly; a separate multiply rounds it to 1
    assert 0.1 * 10.0 - 1.0 == 0.0
    assert _fma(0.1, 10.0, -1.0) == 2.0**-54
    assert _fma(5e-324, 0.5, 0.0) == 0.0 and _fma(5e-324, 0.75, 0.0) == 5e-324


def test_ndtr_equals_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(16)
    root2 = math.sqrt(2.0)
    x = np.concatenate([
        3.0 * rng.standard_normal(50_000),
        rng.uniform(-40.0, 40.0, 20_000),
        rng.uniform(37.5, 38.5, 5_000),  # ndtr underflows to 0 (or 1) here
        -rng.uniform(37.5, 38.5, 5_000),
        rng.uniform(1.0, root2, 5_000),  # erfc's erf branch: its argument is in [sqrt(1/2), 1)
        -rng.uniform(1.0, root2, 5_000),
        [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, np.nextafter(1.0, 0.0),
         root2, -root2, np.nextafter(root2, 0.0), 8.0 * root2, -8.0 * root2, 5e-324, -5e-324, 1e308],
    ])
    _assert_same_bits(_ndtr(x), special.ndtr(x))
    _assert_same_bits(_ndtr(x[:600].reshape(20, 30)), special.ndtr(x[:600].reshape(20, 30)))
    for v in (-1.25, 0.0, 39.0):
        assert type(_ndtr(v)) is np.float64 and _ndtr(v) == special.ndtr(v)


def test_gaussian_and_lognormal_cdf_equal_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(17)
    x, t = rng.normal(0.0, 2.0, 5_000), rng.uniform(0.0, 3.0, 5_000)
    _assert_same_bits(gaussian_cdf(x, t), special.ndtr(x / np.sqrt(1.0 + t)))
    y = rng.lognormal(0.0, 1.0, 5_000)
    _assert_same_bits(lognormal_cdf(y, t), special.ndtr((np.log(y) + t / 2.0) / np.sqrt(t)))


def test_lambertw_equals_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(16)
    x, u = rng.uniform(-1.0, 1.0, 20_000), 1.0 - rng.random(20_000)
    u[u == 1.0] = 0.5
    x2 = np.square(x)
    switch = 0.3 - _EXPN1  # the guess is the branch-point series below, the Pade form above
    near_branch = [-_EXPN1]  # W's step is 0 / 0 there: NaN, in scipy too
    for _ in range(100):
        near_branch.append(np.nextafter(near_branch[-1], 0.0))
    z = np.concatenate([
        -x2 * np.square(u) * np.exp(-x2),  # as invert_survival_ratio builds it
        -rng.uniform(0.0, _EXPN1, 20_000),
        switch + rng.uniform(-1e-3, 1e-3, 2_000),
        [switch, np.nextafter(switch, 0.0), np.nextafter(switch, -1.0)],
        near_branch,
        [-0.0, 0.0, -5e-324, -1e-310, -2.2250738585072014e-308, -1e-300, math.nan],
    ])
    ours = _lambertw0(z)
    _assert_same_bits(ours, special.lambertw(z).real)
    assert np.isnan(ours[z == -_EXPN1]).all() and np.isnan(ours).sum() == 2
