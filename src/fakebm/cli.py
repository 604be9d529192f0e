"""Command-line entry point.

Each subcommand reads a JSON config file (optional) merged with flag
overrides, runs one experiment, and writes deterministic artifacts to the
output directory: report.json always, plus plot-ready CSVs where defined.
Identical inputs give byte-identical artifacts: no report holds a timing or
the output directory; the Monte Carlo commands' reports carry rng_layout,
the version of the engine's RNG stream layout.  A setting comes from its
flag, else the config file, else (workers only) the FAKEBM_WORKERS
environment variable, else the default.  Every setting is converted to its type and checked once, a
config-file value like the text of its flag: floats must be finite, plain
lower bounds come from one table (_LOWER), and relational and per-command
rules from the command bodies.  A body returns (report, {csv name: (header,
rows)}); main alone writes the files and turns report["passed"] into exit
code 0/1.  Exit code 0 means the run's check passed, 1 means it ran but
failed or was inconclusive, 2 means the configuration was invalid (a
ConfigError: every range check a library call would make on a setting is
made here first), 3 means the run crashed (any other exception, a library
ValueError included).  A seed is mandatory: there is no wall-clock fallback.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .densities import GAUSSIAN, LOGNORMAL, check_exp_window, gaussian_cdf
from .intervals import IntervalSystem, build_interval_system, fat_cantor_intervals, lattice_project
from .discrete_chain import run_marginal_certification
from .continuous_sim import RNG_LAYOUT, simulate_exp_marginal_samples, simulate_marginal_samples
from .analysis import (
    convex_order_check,
    coupling_experiment,
    flux_experiment,
    ks_marginal_test,
    martingale_bin_test,
    _MIN_BIN,
    _MIN_KS,
)

__all__ = ["main"]

FLOAT_DEVIATION_TOL = 1e-12
_SYSTEM = [[0.1, 0.4], [0.6, 0.9]]  # the default two-gap interval system

_DEFAULTS = {
    "verify-discrete": {
        "m": 50,
        "steps": 200,
        "backend": "float",
        "intervals": _SYSTEM,
        "cantor_depth": None,
        "j_max": None,
    },
    "simulate": {
        "intervals": _SYSTEM,
        "cantor_depth": None,
        "n_paths": 10,
        "t_queries": [0.25, 0.5, 1.0],
        "dt": 1e-4,
        "fixed_start": None,
    },
    "marginals": {
        "intervals": _SYSTEM,
        "cantor_depth": None,
        "n_paths": 2000,
        "t_queries": [0.5, 1.0],
        "dt": 1e-4,
        "ks_max": 0.015,
    },
    "martingale": {
        "intervals": _SYSTEM,
        "cantor_depth": None,
        "n_paths": 2000,
        "s": 0.5,
        "t": 1.0,
        "dt": 1e-4,
        "n_bins": 20,
        "z_max": 4.0,
        "drift": 0.0,
    },
    "strong-markov": {
        "cantor_depth": 6,
        "t_offset": 0.1,
        "n_pairs": 2000,
        "dt": 1e-4,
        "t_horizon": 1.5,
        "min_class": 200,
    },
    "flux": {
        "intervals": _SYSTEM,
        "cantor_depth": None,
        "gap_index": 0,
        "t_start": 1.0,
        "duration": 0.2,
        "n_paths": 5000,
        "dt": 2.5e-5,
        "tolerance": 0.15,
    },
    "convex-order": {
        "cantor_depth": 3,
        "t_grid": [0.25, 0.5, 1.0, 2.0],
        "x_min": -4.0,
        "x_max": 4.0,
        "x_step": 0.05,
        "tol": 1e-9,
    },
    "exp-variant": {
        "window": [0.6, 1.1, 0.5, 1.0],
        "intervals": [[0.7, 0.8], [0.9, 1.0]],
        "t_queries": [0.75, 1.0],
        "n_paths": 1000,
        "dt": 2e-4,
        "ks_max": 0.015,
    },
}


# ---------- deterministic emission ----------


def format_float(x: float) -> str:
    """Shortest decimal form that round-trips the float exactly."""
    if math.isnan(x) or math.isinf(x):
        return "null"
    return repr(float(x))


def _plain(obj):
    """obj with tuples and arrays as lists, numpy scalars as Python scalars
    and NaN or +-inf as None, so json.dumps can write it."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_report(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(_plain(report), indent=2, sort_keys=True, allow_nan=False))
        fh.write("\n")


def write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    format_float(v) if isinstance(v, (float, np.floating)) else v
                    for v in row
                ]
            )


class ConfigError(Exception):
    pass


# ---------- config plumbing ----------

# types of the settings whose default is None; every other setting takes the
# type of its default, and a list setting takes a JSON literal as its flag
_NONE_DEFAULT_TYPES = {"seed": int, "cantor_depth": int, "j_max": int, "fixed_start": float}

# plain lower bounds, checked in this order: key -> (lowest value, strict)
_LOWER = {
    "seed": (0, False), "workers": (1, False), "dt": (0, True), "t_horizon": (0, True),
    "steps": (1, False), "n_paths": (1, False), "n_pairs": (1, False), "n_bins": (1, False),
    "min_class": (1, False), "t_offset": (0, False), "t_start": (0, False),
    "z_max": (0, False), "tolerance": (0, False), "tol": (0, False),
}


def _kind(key: str, default) -> type:
    return _NONE_DEFAULT_TYPES[key] if default is None else type(default)


def _typed(key: str, value, default):
    """value read as the text of its flag would be; floats must be finite."""
    kind = _kind(key, default)
    if value is None and default is None:
        return None
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        value = (json.loads if kind is list else kind)(text)
    except ValueError:
        value = None
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be of type {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"--{key.replace('_', '-')} must be a finite number")
    return value


def _load_config(command: str, args: argparse.Namespace) -> dict:
    defaults = {**_DEFAULTS[command], "seed": None, "output_dir": ".", "workers": 1}
    cfg = dict(defaults)
    env_workers = os.environ.get("FAKEBM_WORKERS")
    if env_workers is not None:
        try:
            cfg["workers"] = int(env_workers)
        except ValueError:
            raise ConfigError("FAKEBM_WORKERS must be an integer")
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            key = key.replace("-", "_")
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            cfg[key] = value
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    cfg = {key: _typed(key, value, defaults[key]) for key, value in cfg.items()}
    if cfg["seed"] is None:
        raise ConfigError("a seed is required (pass --seed or set it in the config)")
    for key, (low, strict) in _LOWER.items():
        if key in cfg and (cfg[key] <= low if strict else cfg[key] < low):
            raise ConfigError(f"--{key.replace('_', '-')} must be {'>' if strict else '>='} {low}")
    if cfg.get("cantor_depth") is not None and not 1 <= cfg["cantor_depth"] <= 20:
        raise ConfigError("--cantor-depth must be between 1 and 20")
    return cfg


def _flagged(flags: str, check, *args, **kwargs):
    """check(*args, **kwargs), its ValueError re-raised as a ConfigError that
    opens with the flags whose values it checks."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{flags}: {exc}") from None


def _floats(cfg: dict, key: str) -> list:
    """cfg[key] as a list of finite floats."""
    try:
        xs = [float(v) for v in cfg[key]]
    except (TypeError, ValueError):
        xs = [math.nan]
    if not all(math.isfinite(x) for x in xs):
        raise ConfigError(f"{key} must be a list of finite numbers")
    return xs


def _t_queries(cfg: dict, positive: bool) -> list:
    """The sorted query times: each > 0 if positive, else >= 0."""
    t_queries = sorted(_floats(cfg, "t_queries"))
    if not t_queries:
        raise ConfigError("--t-queries must not be empty")
    if t_queries[0] < 0 or positive and t_queries[0] == 0:
        raise ConfigError("--t-queries must be " + ("positive" if positive else "non-negative"))
    return t_queries


def _intervals(cfg: dict) -> list:
    try:
        return [(float(a), float(b)) for a, b in cfg["intervals"]]
    except (TypeError, ValueError):
        raise ConfigError("--intervals must be a list of [a, b] pairs")


def _resolve_system(cfg: dict) -> IntervalSystem:
    if cfg["cantor_depth"] is not None:
        return build_interval_system(fat_cantor_intervals(cfg["cantor_depth"]))
    if not cfg["intervals"]:
        raise ConfigError("--intervals, --cantor-depth: provide one of them")
    return _flagged("--intervals", build_interval_system, _intervals(cfg))


def _ks_tests(result, t_queries: list, ks_max: float, family):
    """(q, t, KS report, threshold) per query time; a test passes at or
    below its threshold, the larger of the 5% critical value and ks_max."""
    for q, t in enumerate(t_queries):
        rep = ks_marginal_test(result.values[:, q], t, family=family)
        yield q, t, rep, max(rep.critical_value_5pct, ks_max)


# ---------- subcommand bodies: settings -> (report, {csv name: (header, rows)}) ----------


def _cmd_verify_discrete(cfg: dict):
    if cfg["backend"] not in ("rational", "float"):
        raise ConfigError("--backend must be 'rational' or 'float'")
    system = _resolve_system(cfg)
    # no site beyond m + steps ever holds mass, so a wider window adds only
    # empty sites: clamp it, as only the evolution holds the window densely
    reach = cfg["m"] + cfg["steps"]
    if cfg["j_max"] is None:
        flags, j_max = "--m", reach
    else:
        flags, j_max = "--m, --j-max", min(cfg["j_max"], reach)
    lattice = _flagged(flags, lattice_project, system, cfg["m"], j_max=j_max)
    report = run_marginal_certification(lattice, cfg["steps"], backend=cfg["backend"])
    tol = 0.0 if cfg["backend"] == "rational" else FLOAT_DEVIATION_TOL
    report["tolerance"] = tol
    report["passed"] = report["max_abs_deviation"] <= tol
    return report, {}


def _cmd_simulate(cfg: dict):
    system = _resolve_system(cfg)
    t_queries = _t_queries(cfg, positive=False)
    n_paths = cfg["n_paths"]
    result = simulate_marginal_samples(
        system,
        t_queries,
        n_paths,
        cfg["seed"],
        dt=cfg["dt"],
        fixed_start=cfg["fixed_start"],
        workers=cfg["workers"],
    )
    rows = []
    for pid in range(n_paths):
        for q, t in enumerate(t_queries):
            mode = "lazy" if result.frozen[pid, q] else "busy"
            rows.append((pid, t, float(result.values[pid, q]), mode))
    report = {
        "n_paths": n_paths,
        "t_queries": t_queries,
        "share_busy": [float(np.mean(~result.frozen[:, q])) for q in range(len(t_queries))],
        "passed": True,
    }
    return report, {"paths.csv": (["path_id", "t_query", "X_value", "mode_at_t"], rows)}


def _cmd_marginals(cfg: dict):
    system = _resolve_system(cfg)
    t_queries = _t_queries(cfg, positive=True)
    n_paths = cfg["n_paths"]
    if n_paths < _MIN_KS:
        raise ConfigError(f"--n-paths must be >= {_MIN_KS}")
    result = simulate_marginal_samples(
        system, t_queries, n_paths, cfg["seed"], dt=cfg["dt"], workers=cfg["workers"]
    )
    tests = []
    csvs = {}
    for q, t, rep, threshold in _ks_tests(result, t_queries, cfg["ks_max"], GAUSSIAN):
        tests.append(
            {
                "t_query": t,
                "ks_statistic": rep.ks_statistic,
                "critical_value_5pct": rep.critical_value_5pct,
                "threshold": threshold,
                "passed": rep.ks_statistic <= threshold,
            }
        )
        name = "empirical_cdf.csv" if q == 0 else f"empirical_cdf_{q}.csv"
        xs = np.sort(result.values[:, q])
        emp = np.arange(1, n_paths + 1) / n_paths
        theo = gaussian_cdf(xs, t)
        csvs[name] = (
            ["x", "empirical", "theoretical"],
            zip(xs.tolist(), emp.tolist(), theo.tolist()),
        )
    report = {
        "n_samples": n_paths,
        "tests": tests,
        "cdf_files": list(csvs),
        "low_power_warning": n_paths < 1000,
        "passed": all(test["passed"] for test in tests),
    }
    return report, csvs


def _cmd_martingale(cfg: dict):
    system = _resolve_system(cfg)
    s, t = cfg["s"], cfg["t"]
    if not 0 < s < t:
        raise ConfigError("--s, --t: need 0 < s < t")
    # so that, by pigeonhole, some quantile bin holds enough samples to be kept
    if cfg["n_paths"] < _MIN_BIN * cfg["n_bins"]:
        raise ConfigError(f"--n-paths must be at least {_MIN_BIN} times --n-bins")
    result = simulate_marginal_samples(
        system, [s, t], cfg["n_paths"], cfg["seed"], dt=cfg["dt"], workers=cfg["workers"]
    )
    x_s = result.values[:, 0].copy()
    x_t = result.values[:, 1].copy()
    drift = cfg["drift"]
    if drift:
        x_s += drift * s
        x_t += drift * t
    rep = martingale_bin_test(x_s, x_t, n_bins=cfg["n_bins"], z_max=cfg["z_max"])
    report = {
        "s": s,
        "t": t,
        "n_bins_kept": len(rep.bins),
        "n_bins_excluded": len(rep.excluded),
        "excluded": [
            {"bin_lo": b.lo, "bin_hi": b.hi, "n": b.n} for b in rep.excluded
        ],
        "worst_z": rep.z_max,
        "z_threshold": cfg["z_max"],
        "passed": rep.passed,
    }
    header = ["bin_lo", "bin_hi", "mean_increment", "stderr", "n"]
    rows = [(b.lo, b.hi, b.mean_increment, b.stderr, b.n) for b in rep.bins]
    return report, {"martingale_bins.csv": (header, rows)}


def _cmd_strong_markov(cfg: dict):
    rep = coupling_experiment(
        cfg["cantor_depth"],
        cfg["t_offset"],
        cfg["n_pairs"],
        cfg["seed"],
        dt=cfg["dt"],
        t_horizon=cfg["t_horizon"],
        min_class=cfg["min_class"],
        workers=cfg["workers"],
    )
    report = {
        "status": rep.status,
        "n_meetings": rep.n_meetings,
        "n_class_a": rep.n_class_a,
        "n_class_b": rep.n_class_b,
        "n_both_busy": rep.n_both_busy,
        "n_both_lazy": rep.n_both_lazy,
        "p_hat_a": rep.p_hat_a,
        "p_hat_b": rep.p_hat_b,
        "ci_a": list(rep.ci_a),
        "ci_b": list(rep.ci_b),
        "meeting_gap_mean": rep.meeting_gap_mean,
        "passed": rep.status == "ok" and rep.ci_a[1] < rep.ci_b[0],
    }
    rows = [
        ("A", rep.n_class_a, rep.p_hat_a, rep.ci_a[0], rep.ci_a[1]),
        ("B", rep.n_class_b, rep.p_hat_b, rep.ci_b[0], rep.ci_b[1]),
    ]
    return report, {"coupling.csv": (["class", "n", "p_hat", "ci_lo", "ci_hi"], rows)}


def _cmd_flux(cfg: dict):
    if cfg["duration"] < cfg["dt"]:
        raise ConfigError("--duration must be at least --dt")
    system = _resolve_system(cfg)
    if not 0 <= cfg["gap_index"] < system.n_intervals - 1:
        raise ConfigError("--gap-index must pick a pair of consecutive intervals")
    rep = flux_experiment(
        system,
        cfg["gap_index"],
        cfg["t_start"],
        cfg["duration"],
        cfg["n_paths"],
        cfg["seed"],
        dt=cfg["dt"],
        workers=cfg["workers"],
    )
    tol = cfg["tolerance"]
    report = {
        "gap": list(rep.gap),
        "count_in": rep.count_in,
        "count_out": rep.count_out,
        "rate_in": rep.rate_in,
        "rate_out": rep.rate_out,
        "theory_in": rep.theory_in,
        "theory_out": rep.theory_out,
        "rel_err_in": rep.rel_err_in,
        "rel_err_out": rep.rel_err_out,
        "tolerance": tol,
        "passed": rep.rel_err_in <= tol and rep.rel_err_out <= tol,
    }
    return report, {}


def _cmd_convex_order(cfg: dict):
    x_min, x_max, x_step = cfg["x_min"], cfg["x_max"], cfg["x_step"]
    if not x_min < x_max or x_step <= 0:
        raise ConfigError("--x-min, --x-max, --x-step: need x_min < x_max and x_step > 0")
    n = int(round((x_max - x_min) / x_step))
    x_grid = x_min + np.arange(n + 1) * x_step
    t_grid = _floats(cfg, "t_grid")
    if len(t_grid) < 2:
        raise ConfigError("--t-grid must hold at least two times")
    if min(t_grid) < 0:
        raise ConfigError("--t-grid times must be >= 0")
    report = {
        "n_x_points": len(x_grid),
        "t_grid": t_grid,
        "tol": cfg["tol"],
        "passed": convex_order_check(cfg["cantor_depth"], t_grid, x_grid, tol=cfg["tol"]),
    }
    return report, {}


def _cmd_exp_variant(cfg: dict):
    window = _floats(cfg, "window")
    if len(window) != 4:
        raise ConfigError("--window must be [a, b, t1, t2]")
    if not _flagged("--window", check_exp_window, *window):
        raise ConfigError("--window fails the validity check for the exponential variant")
    if not cfg["intervals"]:
        raise ConfigError("--intervals must not be empty")
    intervals = _intervals(cfg)
    _flagged("--intervals", build_interval_system, intervals, domain=window[:2])
    t_queries = _t_queries(cfg, positive=True)
    if t_queries[-1] > window[3]:
        raise ConfigError("--t-queries must not exceed t2, the last entry of --window")
    n_paths = cfg["n_paths"]
    if n_paths < _MIN_KS:
        raise ConfigError(f"--n-paths must be >= {_MIN_KS}")
    result = simulate_exp_marginal_samples(
        window, intervals, t_queries, n_paths, cfg["seed"], dt=cfg["dt"],
        workers=cfg["workers"],
    )
    tests = [
        {
            "t_query": t,
            "ks_statistic": rep.ks_statistic,
            "threshold": threshold,
            "sample_mean": float(result.values[:, q].mean()),
            "passed": rep.ks_statistic <= threshold,
        }
        for q, t, rep, threshold in _ks_tests(result, t_queries, cfg["ks_max"], LOGNORMAL)
    ]
    report = {
        "n_samples": n_paths,
        "tests": tests,
        "low_power_warning": n_paths < 1000,
        "passed": all(test["passed"] for test in tests),
    }
    return report, {}


_COMMANDS = {
    "verify-discrete": _cmd_verify_discrete,
    "simulate": _cmd_simulate,
    "marginals": _cmd_marginals,
    "martingale": _cmd_martingale,
    "strong-markov": _cmd_strong_markov,
    "flux": _cmd_flux,
    "convex-order": _cmd_convex_order,
    "exp-variant": _cmd_exp_variant,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fakebm",
        description="Simulators and verifiers for a Markov martingale with "
        "Brownian marginals that is not Brownian motion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="RNG seed (required here or in config)")
        for key, default in _DEFAULTS[name].items():
            kind = _kind(key, default)
            p.add_argument(
                "--" + key.replace("_", "-"),
                type=json.loads if kind is list else kind,
                help="JSON literal" if kind is list else None,
            )
        p.add_argument("--output-dir")
        p.add_argument("--workers", type=int)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    body = _COMMANDS[args.command]
    try:
        cfg = _load_config(args.command, args)
        report, csvs = body(cfg)
        if body not in (_cmd_verify_discrete, _cmd_convex_order):  # the Monte Carlo commands
            report["rng_layout"] = RNG_LAYOUT
        out = cfg.pop("output_dir")
        os.makedirs(out, exist_ok=True)
        for name, (header, rows) in csvs.items():
            write_csv(os.path.join(out, name), header, rows)
        report["config"] = cfg
        write_report(os.path.join(out, "report.json"), report)
        return 0 if report["passed"] else 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash, library ValueErrors included, is neither a failed check
        # (1) nor a bad configuration (2)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
