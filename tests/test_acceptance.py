"""Acceptance gate: pinned end-to-end checks, one [PASS]/[FAIL] line each.

Criteria A1-A4 certify the discrete chain exactly (rational arithmetic or
1e-12 float drift).  A5-A10 are calibrated Monte Carlo checks sharing one
frozen 20k-path run where possible.  A11 checks the convex-order premise on
a potential-function grid.  Thresholds and run parameters are pinned here;
loosening them is not an option, a red line means the claim failed.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from fakebm.analysis import (
    convex_order_check,
    coupling_experiment,
    flux_experiment,
    ks_marginal_test,
    martingale_bin_test,
)
from fakebm.continuous_sim import simulate_marginal_samples
from fakebm.discrete_chain import (
    busy_transition,
    evolve,
    initial_joint,
    marginal,
    run_marginal_certification,
    switch_jump,
)
from fakebm.intervals import build_interval_system, lattice_project
from fakebm.lazy_walk import heat_step_residual, ratio_check

TWO_GAPS = build_interval_system([(0.1, 0.4), (0.6, 0.9)])
RAGGED = build_interval_system([(0.05, 0.15), (0.25, 0.35), (0.55, 0.95)])


@contextmanager
def criterion(capsys, tag):
    """Print exactly one [PASS]/[FAIL] line for the wrapped checks."""
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {tag}", flush=True)


@pytest.fixture(scope="module")
def frozen_run():
    """20k paths on the two-gap system, shared by A5, A6 and A10."""
    return simulate_marginal_samples(TWO_GAPS, (0.5, 1.0), 20_000, 42, dt=1e-4)


def test_a1_exact_discrete_marginals(capsys):
    with criterion(capsys, "A1"):
        lat = lattice_project(TWO_GAPS, 8, j_max=48)
        rep = run_marginal_certification(lat, 40, backend="rational")
        assert rep["N"] == 2
        assert rep["exactly_zero"] is True
        assert rep["max_abs_deviation"] == 0.0
        assert rep["mass_deficit"] == 0.0


def test_a2_float_discrete_marginals(capsys):
    with criterion(capsys, "A2"):
        lat = lattice_project(TWO_GAPS, 50, j_max=250)
        rep = run_marginal_certification(lat, 200, backend="float")
        assert rep["max_abs_deviation"] <= 1e-12


def test_a3_walk_ratio_and_heat_identity(capsys):
    with criterion(capsys, "A3"):
        for l in range(1, 10_001):
            j = 0
            while 2 * j * j <= l:
                assert ratio_check(l, j) > 1
                j += 1
        for l in range(0, 65):
            for j in range(-l, l + 1):
                assert heat_step_residual(l, j) == 0


def test_a4_kernel_rows_have_exact_source_mean(capsys):
    with criterion(capsys, "A4"):
        checked_busy = checked_switch = 0
        for lat in (lattice_project(TWO_GAPS, 50, j_max=80),
                    lattice_project(RAGGED, 200, j_max=320)):
            gaps = set(lat.gap_sites)
            for i in range(-lat.j_max + 1, lat.j_max):
                if i in gaps:
                    row = switch_jump(lat, i)
                    checked_switch += 1
                else:
                    row = busy_transition(lat, i)
                    checked_busy += 1
                assert sum(p for _, p in row) == 1
                assert sum(p * t for t, p in row) == Fraction(i)
        assert checked_busy > 400 and checked_switch > 0


def test_a5_continuous_marginals_ks(capsys, frozen_run):
    with criterion(capsys, "A5"):
        for q, t in enumerate(frozen_run.t_queries):
            rep = ks_marginal_test(frozen_run.values[:, q], t)
            assert rep.n_samples == 20_000
            assert rep.ks_statistic <= 0.015


def test_a6_martingale_bins_with_negative_control(capsys, frozen_run):
    with criterion(capsys, "A6"):
        x_s = frozen_run.values[:, 0]
        x_t = frozen_run.values[:, 1]
        null = martingale_bin_test(x_s, x_t, 0.5, 1.0, n_bins=20)
        assert null.passed is True
        assert null.z_max <= 4.0
        # drift 0.1 t shifts every increment by 0.05; the test must notice
        control = martingale_bin_test(x_s + 0.05, x_t + 0.10, 0.5, 1.0, n_bins=20)
        assert control.passed is False
        assert control.z_max > 4.0


def test_a7_strong_markov_failure_separates(capsys):
    with criterion(capsys, "A7"):
        rep = coupling_experiment(6, 0.1, 12_000, 7, dt=1e-4, min_class=500)
        assert rep.status == "ok"
        assert rep.n_class_a >= 500 and rep.n_class_b >= 500
        assert rep.ci_a[1] <= 0.02
        assert rep.ci_b[0] >= 0.02
        assert rep.ci_a[1] < rep.ci_b[0]


def test_a8_boundary_flux_rates(capsys):
    with criterion(capsys, "A8"):
        rep = flux_experiment(TWO_GAPS, 0, 1.0, 0.2, 50_000, 11,
                              dt=2.5e-5)
        assert rep.gap == (0.4, 0.6)
        assert rep.count_in > 0 and rep.count_out > 0
        assert rep.rel_err_in <= 0.15
        assert rep.rel_err_out <= 0.15


def test_a9_switch_landing_probabilities(capsys):
    with criterion(capsys, "A9"):
        a, b = 0.4, 0.6
        for x0 in (0.42, 0.46, 0.50, 0.54, 0.58):
            res = simulate_marginal_samples(
                TWO_GAPS, (0.0,), 4_000, 314159,
                dt=2e-6, fixed_start=x0,
            )
            land = res.busy_start[np.isfinite(res.busy_start)]
            assert land.size >= 3_900
            p_hat = float(np.mean(land >= (a + b) / 2))
            theory = (x0 - a) / (b - a)
            sigma = math.sqrt(theory * (1 - theory) / land.size)
            assert abs(p_hat - theory) <= 3 * sigma


def test_a10_variance_consistency(capsys, frozen_run):
    with criterion(capsys, "A10"):
        mc_var = float(np.var(frozen_run.values[:, 1]))
        assert abs(mc_var - 2.0) <= 0.02 * 2.0
        lat = lattice_project(TWO_GAPS, 8, j_max=48)
        joint = initial_joint(lat, backend="rational")
        for l in range(1, 9):
            joint = evolve(joint, lat)
            law = marginal(joint)
            var = Fraction(2, 8) * sum(p * j * j for j, p in law.items())
            mean = sum(p * j for j, p in law.items())
            assert mean == 0
            assert var == Fraction(8 + l, 8)


def test_a11_convex_order_of_split_laws(capsys):
    with criterion(capsys, "A11"):
        x_grid = np.arange(-4.0, 4.0 + 1e-9, 0.05)
        assert x_grid.size == 161
        assert convex_order_check(3, (0.25, 0.5, 1.0, 2.0), x_grid, tol=1e-9)
