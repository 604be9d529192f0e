"""Exact lazy-walk law: binomial closed form, heat identity, mass ratios."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fakebm.lazy_walk import (
    _binomial_row,
    _half_law,
    _ratio_terms,
    heat_step_residual,
    pmf,
    pmf_value,
    ratio_check,
)


def convolve_law(steps):
    """Independent oracle: fold the one-step law over itself `steps` times."""
    law = {0: Fraction(1)}
    inc = {-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}
    for _ in range(steps):
        nxt = {}
        for j, p in law.items():
            for dj, q in inc.items():
                nxt[j + dj] = nxt.get(j + dj, Fraction(0)) + p * q
        law = nxt
    return law


def test_pmf_value_small_cases():
    assert pmf_value(1, 0) == Fraction(1, 2)
    assert pmf_value(1, 1) == Fraction(1, 4)
    assert pmf_value(2, 0) == Fraction(3, 8)
    assert pmf_value(3, 1) == Fraction(15, 64)
    assert pmf_value(2, 3) == Fraction(0)


def test_pmf_matches_convolution_oracle():
    for steps in (0, 1, 2, 5, 8):
        law = convolve_law(steps)
        for j in range(-steps - 1, steps + 2):
            assert pmf_value(steps, j) == law.get(j, Fraction(0))


def test_pmf_total_and_variance_exact():
    for steps in (0, 1, 7, 30):
        p = pmf(steps, backend="rational")
        assert len(p) == 2 * steps + 1
        assert sum(p) == 1
        assert sum(j * j * q for j, q in zip(range(-steps, steps + 1), p)) == Fraction(steps, 2)


def test_pmf_symmetry():
    p = pmf(9, backend="rational")
    assert p == p[::-1]


def test_pmf_float_backend_matches_rational():
    assert pmf(40, backend="float") == tuple(float(p) for p in pmf(40, backend="rational"))


def test_pmf_float_backend_large_steps():
    p = pmf(3000, backend="float")
    assert sum(p) == pytest.approx(1.0, abs=1e-10)
    var = sum(j * j * q for j, q in zip(range(-3000, 3001), p))
    assert var == pytest.approx(1500.0, rel=1e-10)


@pytest.mark.parametrize("steps", [*range(61), 399, 777, 2000, 3000])
def test_pmf_is_bit_identical_to_pmf_value(steps):
    exact = [pmf_value(steps, j) for j in range(-steps, steps + 1)]
    assert pmf(steps, backend="rational") == tuple(exact)
    assert pmf(steps, backend="float") == tuple(float(p) for p in exact)


@pytest.mark.parametrize(
    "steps", [0, 1, 2, 100, 400, 510, 511, 512, 513, 514, 515, 537, 538, 700]
)
def test_pmf_float_is_the_correctly_rounded_division(steps):
    # up to n = 511 the masses are ldexp(c, -2n), from 512 on c / 4^n: from
    # n = 512 the edge masses 4^-n are subnormal, from 515 C(2n, n) does not
    # convert to a finite float, and from 538 4^-n rounds to 0
    want = tuple(math.comb(2 * steps, k) / 4**steps for k in range(2 * steps + 1))
    assert pmf(steps, backend="float") == want


# around n = 512, where the float masses change from ldexp to the division,
# n = 515, where C(2n, n) stops converting to a finite float, and n = 538,
# where 4^-n rounds to 0
LAW_STEPS = [0, 1, 2, 100, 400, 510, 511, 512, 513, 515, 537, 538, 700]


@pytest.mark.parametrize("steps", LAW_STEPS)
def test_half_law_is_the_correctly_rounded_division(steps):
    full = {b: pmf(steps, backend=b) for b in ("rational", "float")}
    for w in sorted({0, steps // 3, max(steps - 1, 0), steps}):
        combs = [math.comb(2 * steps, steps + j) for j in range(-w, 1)]
        floats = _half_law(steps, w, "float")
        assert floats.dtype == np.float64
        assert floats.tobytes() == np.array([c / 4**steps for c in combs]).tobytes()
        assert floats.tolist() == list(full["float"][steps - w : steps + 1])
        exact = _half_law(steps, w, "rational")
        assert exact == [Fraction(c, 4**steps) for c in combs]
        assert exact == list(full["rational"][steps - w : steps + 1])


@pytest.mark.parametrize("steps", LAW_STEPS)
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_pmf_width_is_the_full_law_sliced(steps, backend):
    full = pmf(steps, backend=backend)
    assert pmf(steps, backend, None) == full
    for width in (0, steps // 2, steps, steps + 3):
        w = min(steps, width)
        law = pmf(steps, backend, width)
        assert law == full[steps - w : steps + w + 1]
        assert all(type(p) is (Fraction if backend == "rational" else float) for p in law)


def test_binomial_row_is_the_comb_row_in_any_call_order():
    # ascending (Pascal steps, on small rows and on rows past 2^64),
    # repeated, one step back, a jump forward and back, 0 and 1: the kept
    # row must never serve a stale n
    for n in (5, 6, 7, 7, 8, 7, 8, 40, 41, 3, 0, 0, 1, 2, 1, 0, 400, 401, 402, 401):
        row = _binomial_row(n)
        assert isinstance(row, tuple)
        assert row == tuple(math.comb(2 * n, k) for k in range(n + 1))


def test_pmf_rejects_unknown_backend():
    with pytest.raises(ValueError):
        pmf(3, backend="decimal")


def test_pmf_rejects_negative_width():
    with pytest.raises(ValueError, match="width must be >= 0"):
        pmf(3, "float", -1)


def test_heat_step_residual_is_exactly_zero():
    for steps in range(21):
        for j in range(-steps, steps + 1):
            assert heat_step_residual(steps, j) == 0


def test_ratio_check_known_values():
    assert ratio_check(2, 1) == Fraction(16, 15)
    assert ratio_check(1, 0) == Fraction(4, 3)


def test_ratio_check_matches_direct_pmf_ratio():
    for steps in range(1, 16):
        for j in range(-steps, steps + 1):
            direct = pmf_value(steps, j) / pmf_value(steps + 1, j)
            assert ratio_check(steps, j) == direct


def test_ratio_exceeds_one_iff_l_at_least_two_j_squared():
    for j in range(0, 7):
        for steps in range(max(1, abs(j)), 120):
            above = ratio_check(steps, j) > 1
            assert above == (steps >= 2 * j * j)


def test_ratio_terms_are_the_unreduced_closed_form():
    for steps in range(1, 30):
        for j in range(-steps, steps + 1):
            a, b = _ratio_terms(steps, j)
            assert (a, b) == (2 * ((steps + 1) ** 2 - j * j), (2 * steps + 1) * (steps + 1))
            assert ratio_check(steps, j) == Fraction(a, b)


def test_ratio_check_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ratio_check(0, 0)
    with pytest.raises(ValueError):
        ratio_check(3, 4)
