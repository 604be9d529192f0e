"""Tests of the benchmark's own checks and tracer.

Run with: python3 -m pytest perfbench
Each correctness check must pass on a correct output and fail on a planted
wrong one.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads as wls  # noqa: E402
from workloads import COMMANDS, WORKLOADS  # noqa: E402


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _marginals_output(out, samples_by_t):
    names = []
    for q, (t, xs) in enumerate(samples_by_t):
        name = "empirical_cdf.csv" if q == 0 else f"empirical_cdf_{q}.csv"
        rows = "".join(f"{float(x)!r},0,0\n" for x in np.sort(xs))
        _write(out / name, "x,empirical,theoretical\n" + rows)
        names.append(name)
    report = {"cdf_files": names, "tests": [{"t_query": t} for t, _ in samples_by_t]}
    _write(out / "report.json", json.dumps(report))


def test_workloads_run_every_command_once():
    names = [c for wl in WORKLOADS.values() for c in wl.commands]
    assert sorted(names) == sorted(COMMANDS)


def test_benchmark_json_matches_what_run_prints():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.LAYER_METRICS)


def test_ks_critical_matches_limit_law():
    for n, alpha in ((6000, 5e-4), (8000, 5e-4), (1000, 0.05)):
        crit = wls.ks_critical(n, alpha)
        lam = crit * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
        assert wls.kolmogorov_sf(lam) == pytest.approx(alpha, rel=1e-6)
    # the familiar 5% value 1.36 / sqrt(n)
    assert wls.ks_critical(10_000, 0.05) * 100 == pytest.approx(1.358, abs=2e-3)


def test_normal_marginals_pass_on_true_law_and_fail_on_planted(tmp_path):
    wl = COMMANDS["marginals_two_gap"]
    rng = np.random.default_rng(7)
    good = [(t, rng.normal(0.0, math.sqrt(1.0 + t), wl.paths)) for t in (0.5, 1.0)]
    _marginals_output(tmp_path, good)
    assert [ok for _, ok, _ in wls.check_normal_marginals(str(tmp_path), wl)] == [True, True, True]

    # planted: the start law N(0, 1) reported as the time-t law
    bad = [(t, rng.normal(0.0, 1.0, wl.paths)) for t in (0.5, 1.0)]
    _marginals_output(tmp_path, bad)
    assert [ok for _, ok, _ in wls.check_normal_marginals(str(tmp_path), wl)] == [True, False, False]

    # planted: a truncated sample
    _marginals_output(tmp_path, [(t, xs[:-1]) for t, xs in good])
    assert [ok for _, ok, _ in wls.check_normal_marginals(str(tmp_path), wl)] == [True, False, False]

    # planted: one query time missing
    _marginals_output(tmp_path, good[1:])
    assert not all(ok for _, ok, _ in wls.check_normal_marginals(str(tmp_path), wl))


def test_normal_marginals_false_alarms_are_rare(tmp_path):
    wl = COMMANDS["marginals_two_gap"]
    crit = float(wl.ks_max)
    rng = np.random.default_rng(11)
    worst = max(
        wls.normal_ks_distance(np.sort(rng.normal(0.0, 1.0, wl.paths)), 1.0) for _ in range(40)
    )
    assert worst < crit


def test_lognormal_check(tmp_path):
    wl = COMMANDS["exp_variant"]
    crit = float(wl.ks_max)
    for d, expected in ((0.5 * crit, [True, True]), (1.01 * crit, [True, False])):
        tests = [{"t_query": 0.75, "ks_statistic": 0.5 * crit}, {"t_query": 1.0, "ks_statistic": d}]
        _write(tmp_path / "report.json", json.dumps({"n_samples": wl.paths, "tests": tests}))
        assert [ok for _, ok, _ in wls.check_lognormal_marginals(str(tmp_path), wl)] == [True, *expected]
    _write(tmp_path / "report.json", json.dumps({"n_samples": wl.paths, "tests": tests[:1]}))
    assert not all(ok for _, ok, _ in wls.check_lognormal_marginals(str(tmp_path), wl))


@pytest.mark.parametrize(
    "a_ci, b_ci, status, expected",
    [
        ((0.0, 0.08), (0.86, 0.99), "ok", True),
        ((0.0, 0.50), (0.45, 0.99), "ok", False),
        ((0.0, 0.08), (0.86, 0.99), "inconclusive", False),
    ],
)
def test_coupling_check(tmp_path, a_ci, b_ci, status, expected):
    _write(
        tmp_path / "coupling.csv",
        f"class,n,p_hat,ci_lo,ci_hi\nA,74,0.0,{a_ci[0]},{a_ci[1]}\nB,67,0.97,{b_ci[0]},{b_ci[1]}\n",
    )
    _write(tmp_path / "report.json", json.dumps({"status": status}))
    [(_, ok, _)] = wls.check_coupling(str(tmp_path), COMMANDS["coupling_cantor6"])
    assert ok is expected


@pytest.mark.parametrize(
    "check, dev, exact, expected",
    [
        (wls.check_rational, 0.0, True, True),
        (wls.check_rational, 1e-300, False, False),
        (wls.check_float, 5.5e-17, False, True),
        (wls.check_float, 2e-12, False, False),
        (wls.check_float, None, False, False),
    ],
)
def test_deviation_checks(tmp_path, check, dev, exact, expected):
    _write(tmp_path / "report.json", json.dumps({"max_abs_deviation": dev, "exactly_zero": exact}))
    [(_, ok, _)] = check(str(tmp_path), None)
    assert ok is expected


def test_digest_masks_only_the_named_fields(tmp_path):
    def digest(elapsed, out_dir, value):
        _write(
            tmp_path / "report.json",
            f'{{\n  "config": {{\n    "output_dir": "{out_dir}",\n    "seed": 1\n  }},\n'
            f'  "elapsed_s": {elapsed},\n  "value": {value}\n}}\n',
        )
        return wls.output_digest(str(tmp_path))

    base = digest(1.5, "/a", 0.25)
    assert digest(2.5, "/b", 0.25) == base
    assert digest(1.5, "/a", 0.26) != base
    _write(tmp_path / "extra.csv", "x\n1\n")
    assert digest(1.5, "/a", 0.25) != base


def test_layer_metrics_self_time_arithmetic():
    spans = [
        (0, -1, "cli.main", 0.0, 10.0, 0),
        (1, 0, "analysis.coupling_experiment", 0.5, 9.5, 0),
        (2, 1, tracer.CHUNKS, 1.0, 5.0, 4),
        (3, 2, tracer.CONTAINS, 1.5, 3.5, 400),
        (4, 2, tracer.INVERT, 3.5, 4.0, 2),
        (5, 1, tracer.CHUNKS, 5.0, 9.0, 4),
        (6, 5, tracer.CONTAINS, 5.5, 6.5, 400),
        (7, 0, tracer.CONTAINS, 9.6, 9.7, 10),
    ]
    m = tracer.layer_metrics(spans, resampled=3)
    assert m["continuous_sim.engine.s"] == pytest.approx(8.0)
    assert m["continuous_sim.engine_self.s"] == pytest.approx(8.0 - 2.0 - 0.5 - 1.0)
    assert m["intervals.contains_many.s"] == pytest.approx(3.1)
    assert m["intervals.contains_many.points"] == 810
    assert m["continuous_sim.points_per_path"] == pytest.approx(800 / 8)
    assert m["analysis.self.s"] == pytest.approx(9.0 - 8.0)
    assert m["cli.self.s"] == pytest.approx(10.0 - 9.0 - 0.1)
    assert m["continuous_sim.resampled"] == 3
    assert tracer.named_self_time(m) == pytest.approx(10.0)


def test_traced_child_on_a_small_certification(tmp_path):
    spec = {
        "mode": "trace",
        "src": os.path.join(os.path.dirname(HERE), "src"),
        "argv": ["verify-discrete", "--backend", "float", "--m", "10", "--steps", "20",
                 "--seed", "1", "--output-dir", str(tmp_path / "out")],
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.json"),
    }
    _write(tmp_path / "spec.json", json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), str(tmp_path / "spec.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(spec["result"]) as fh:
        res = json.load(fh)
    assert res["rc"] == 0
    m = res["layers"]
    assert m["discrete_chain.evolve.calls"] == 20
    assert m["lazy_walk.pmf.calls"] == 22  # initial law plus one per deviation check
    assert m["discrete_chain.kernel_rows.s"] > 0
    assert m["continuous_sim.engine.s"] == 0
    with open(spec["spans"]) as fh:
        spans = json.load(fh)
    assert [s[2] for s in spans if s[1] == -1] == ["cli.main"]
    assert 0.9 < res["coverage"] <= 1.0 + 1e-9
