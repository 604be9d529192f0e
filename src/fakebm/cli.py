"""Command-line entry point.

Each subcommand reads a JSON config file (optional) merged with flag
overrides, runs one experiment, and writes deterministic artifacts to the
output directory: report.json always, plus plot-ready CSVs where defined.
Identical inputs give byte-identical artifacts: no report holds a timing or
the output directory.  A setting comes from its flag, else the config file,
else (workers only) the FAKEBM_WORKERS environment variable, else the
default.
Exit code 0 means the run's check passed, 1 means it ran but failed or was
inconclusive, 2 means the configuration was invalid, 3 means the run
crashed.  A seed is mandatory; there is no wall-clock fallback.
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
from .continuous_sim import simulate_exp_marginal_samples, simulate_marginal_samples
from .analysis import (
    convex_order_check,
    coupling_experiment,
    flux_experiment,
    ks_marginal_test,
    martingale_bin_test,
)

__all__ = ["main"]

FLOAT_DEVIATION_TOL = 1e-12

_DEFAULTS = {
    "verify-discrete": {
        "m": 50,
        "steps": 200,
        "backend": "float",
        "intervals": [[0.1, 0.4], [0.6, 0.9]],
        "cantor_depth": None,
        "j_max": None,
    },
    "simulate": {
        "intervals": [[0.1, 0.4], [0.6, 0.9]],
        "cantor_depth": None,
        "n_paths": 10,
        "t_queries": [0.25, 0.5, 1.0],
        "dt": 1e-4,
        "fixed_start": None,
    },
    "marginals": {
        "intervals": [[0.1, 0.4], [0.6, 0.9]],
        "cantor_depth": None,
        "n_paths": 2000,
        "t_queries": [0.5, 1.0],
        "dt": 1e-4,
        "ks_max": 0.015,
    },
    "martingale": {
        "intervals": [[0.1, 0.4], [0.6, 0.9]],
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
        "intervals": [[0.1, 0.4], [0.6, 0.9]],
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


def _emit_json(obj, indent: int) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _emit_json(obj[k], indent + 2)
            for k in keys
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        inner = ",\n".join(pad + "  " + _emit_json(v, indent + 2) for v in seq)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def write_report(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        fh.write(_emit_json(report, 0))
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


def _load_config(command: str, args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS[command])
    cfg["seed"] = None
    cfg["output_dir"] = "."
    cfg["workers"] = 1
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
    if cfg.get("seed") is None:
        raise ConfigError("a seed is required (pass --seed or set it in the config)")
    cfg["seed"] = int(cfg["seed"])
    if cfg["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    if "dt" in cfg and _finite_float(cfg["dt"], "--dt") <= 0:
        raise ConfigError("--dt must be > 0")
    if cfg.get("fixed_start") is not None:
        _finite_float(cfg["fixed_start"], "--fixed-start")
    return cfg


def _finite_float(value, flag: str) -> float:
    """value as a finite float, else a ConfigError naming its flag."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{flag} must be a finite number")
    return x


def _resolve_system(cfg: dict) -> IntervalSystem:
    depth = cfg.get("cantor_depth")
    if depth is not None:
        return build_interval_system(fat_cantor_intervals(int(depth)))
    raw = cfg.get("intervals")
    if not raw:
        raise ConfigError("provide either intervals or cantor_depth")
    try:
        pairs = [(float(a), float(b)) for a, b in raw]
    except (TypeError, ValueError):
        raise ConfigError("intervals must be a list of [a, b] pairs")
    return build_interval_system(pairs)


def _echo(cfg: dict) -> dict:
    """The run's settings for report.json, minus where its files went."""
    out = {}
    for k, v in cfg.items():
        if k == "output_dir":
            continue
        if isinstance(v, tuple):
            v = list(v)
        out[k] = v
    return out


def _prepare_output(cfg: dict) -> str:
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


# ---------- subcommand bodies (return process exit code) ----------


def _cmd_verify_discrete(cfg: dict) -> int:
    if cfg["backend"] not in ("rational", "float"):
        raise ConfigError("backend must be 'rational' or 'float'")
    if int(cfg["steps"]) < 1:
        raise ConfigError("steps must be >= 1")
    system = _resolve_system(cfg)
    m = int(cfg["m"])
    steps = int(cfg["steps"])
    j_max = cfg.get("j_max")
    if j_max is None:
        j_max = m + steps
    try:
        lattice = lattice_project(system, m, j_max=int(j_max))
    except ValueError as exc:
        raise ConfigError(str(exc))
    report = run_marginal_certification(lattice, steps, backend=cfg["backend"])
    del report["elapsed_s"]
    tol = 0.0 if cfg["backend"] == "rational" else FLOAT_DEVIATION_TOL
    report["tolerance"] = tol
    report["passed"] = report["max_abs_deviation"] <= tol
    report["config"] = _echo(cfg)
    out = _prepare_output(cfg)
    write_report(os.path.join(out, "report.json"), report)
    return 0 if report["passed"] else 1


def _cmd_simulate(cfg: dict) -> int:
    system = _resolve_system(cfg)
    t_queries = sorted(float(t) for t in cfg["t_queries"])
    if not t_queries or t_queries[0] < 0:
        raise ConfigError("t_queries must be non-negative")
    n_paths = int(cfg["n_paths"])
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    fixed_start = cfg.get("fixed_start")
    if fixed_start is not None:
        fixed_start = float(fixed_start)
    result = simulate_marginal_samples(
        system,
        t_queries,
        n_paths,
        cfg["seed"],
        dt=float(cfg["dt"]),
        fixed_start=fixed_start,
        workers=cfg["workers"],
    )
    out = _prepare_output(cfg)
    rows = []
    for pid in range(n_paths):
        for q, t in enumerate(t_queries):
            mode = "lazy" if result.frozen[pid, q] else "busy"
            rows.append((pid, float(t), float(result.values[pid, q]), mode))
    write_csv(
        os.path.join(out, "paths.csv"),
        ["path_id", "t_query", "X_value", "mode_at_t"],
        rows,
    )
    report = {
        "config": _echo(cfg),
        "n_paths": n_paths,
        "t_queries": t_queries,
        "n_resampled": int(result.resampled),
        "share_busy": [float(np.mean(~result.frozen[:, q])) for q in range(len(t_queries))],
        "passed": True,
    }
    write_report(os.path.join(out, "report.json"), report)
    return 0


def _cmd_marginals(cfg: dict) -> int:
    system = _resolve_system(cfg)
    t_queries = sorted(float(t) for t in cfg["t_queries"])
    if not t_queries or t_queries[0] <= 0:
        raise ConfigError("t_queries must be positive")
    n_paths = int(cfg["n_paths"])
    if n_paths < 100:
        raise ConfigError("n_paths must be >= 100")
    result = simulate_marginal_samples(
        system, t_queries, n_paths, cfg["seed"], dt=float(cfg["dt"]), workers=cfg["workers"]
    )
    out = _prepare_output(cfg)
    ks_max = float(cfg["ks_max"])
    tests = []
    artifacts = []
    all_ok = True
    for q, t in enumerate(t_queries):
        samples = result.values[:, q]
        rep = ks_marginal_test(samples, t)
        ok = rep.ks_statistic <= max(rep.critical_value_5pct, ks_max)
        all_ok = all_ok and ok
        tests.append(
            {
                "t_query": t,
                "ks_statistic": rep.ks_statistic,
                "critical_value_5pct": rep.critical_value_5pct,
                "threshold": max(rep.critical_value_5pct, ks_max),
                "passed": ok,
            }
        )
        name = "empirical_cdf.csv" if q == 0 else f"empirical_cdf_{q}.csv"
        xs = np.sort(samples)
        emp = np.arange(1, n_paths + 1) / n_paths
        theo = gaussian_cdf(xs, t)
        write_csv(
            os.path.join(out, name),
            ["x", "empirical", "theoretical"],
            zip(xs.tolist(), emp.tolist(), theo.tolist()),
        )
        artifacts.append(name)
    report = {
        "config": _echo(cfg),
        "n_samples": n_paths,
        "tests": tests,
        "cdf_files": artifacts,
        "low_power_warning": n_paths < 1000,
        "passed": all_ok,
    }
    write_report(os.path.join(out, "report.json"), report)
    return 0 if all_ok else 1


def _cmd_martingale(cfg: dict) -> int:
    system = _resolve_system(cfg)
    s, t = float(cfg["s"]), float(cfg["t"])
    if not 0 < s < t:
        raise ConfigError("need 0 < s < t")
    n_paths = int(cfg["n_paths"])
    result = simulate_marginal_samples(
        system, [s, t], n_paths, cfg["seed"], dt=float(cfg["dt"]), workers=cfg["workers"]
    )
    x_s = result.values[:, 0].copy()
    x_t = result.values[:, 1].copy()
    drift = float(cfg.get("drift") or 0.0)
    if drift:
        x_s += drift * s
        x_t += drift * t
    rep = martingale_bin_test(
        x_s, x_t, s, t, n_bins=int(cfg["n_bins"]), z_max=float(cfg["z_max"])
    )
    out = _prepare_output(cfg)
    write_csv(
        os.path.join(out, "martingale_bins.csv"),
        ["bin_lo", "bin_hi", "mean_increment", "stderr", "n"],
        [(b.lo, b.hi, b.mean_increment, b.stderr, b.n) for b in rep.bins],
    )
    report = {
        "config": _echo(cfg),
        "s": s,
        "t": t,
        "n_bins_kept": len(rep.bins),
        "n_bins_excluded": len(rep.excluded),
        "excluded": [
            {"bin_lo": b.lo, "bin_hi": b.hi, "n": b.n} for b in rep.excluded
        ],
        "worst_z": rep.z_max,
        "z_threshold": float(cfg["z_max"]),
        "passed": rep.passed,
    }
    write_report(os.path.join(out, "report.json"), report)
    return 0 if rep.passed else 1


def _cmd_strong_markov(cfg: dict) -> int:
    rep = coupling_experiment(
        int(cfg["cantor_depth"]),
        float(cfg["t_offset"]),
        int(cfg["n_pairs"]),
        cfg["seed"],
        dt=float(cfg["dt"]),
        t_horizon=float(cfg["t_horizon"]),
        min_class=int(cfg["min_class"]),
        workers=cfg["workers"],
    )
    out = _prepare_output(cfg)
    write_csv(
        os.path.join(out, "coupling.csv"),
        ["class", "n", "p_hat", "ci_lo", "ci_hi"],
        [
            ("A", rep.n_class_a, rep.p_hat_a, rep.ci_a[0], rep.ci_a[1]),
            ("B", rep.n_class_b, rep.p_hat_b, rep.ci_b[0], rep.ci_b[1]),
        ],
    )
    separated = (
        rep.status == "ok"
        and not math.isnan(rep.p_hat_a)
        and rep.ci_a[1] < rep.ci_b[0]
    )
    report = {
        "config": _echo(cfg),
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
        "passed": separated,
    }
    write_report(os.path.join(out, "report.json"), report)
    return 0 if separated else 1


def _cmd_flux(cfg: dict) -> int:
    if float(cfg["duration"]) < float(cfg["dt"]):
        raise ConfigError("--duration must be at least --dt")
    system = _resolve_system(cfg)
    try:
        rep = flux_experiment(
            system,
            int(cfg["gap_index"]),
            float(cfg["t_start"]),
            float(cfg["duration"]),
            int(cfg["n_paths"]),
            cfg["seed"],
            dt=float(cfg["dt"]),
            workers=cfg["workers"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    tol = float(cfg["tolerance"])
    ok = rep.rel_err_in <= tol and rep.rel_err_out <= tol
    report = {
        "config": _echo(cfg),
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
        "passed": ok,
    }
    out = _prepare_output(cfg)
    write_report(os.path.join(out, "report.json"), report)
    return 0 if ok else 1


def _cmd_convex_order(cfg: dict) -> int:
    x_min, x_max, x_step = float(cfg["x_min"]), float(cfg["x_max"]), float(cfg["x_step"])
    if not x_min < x_max or x_step <= 0:
        raise ConfigError("need x_min < x_max and x_step > 0")
    n = int(round((x_max - x_min) / x_step))
    x_grid = x_min + np.arange(n + 1) * x_step
    try:
        ok = convex_order_check(
            int(cfg["cantor_depth"]), cfg["t_grid"], x_grid, tol=float(cfg["tol"])
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    report = {
        "config": _echo(cfg),
        "n_x_points": len(x_grid),
        "t_grid": [float(t) for t in cfg["t_grid"]],
        "tol": float(cfg["tol"]),
        "passed": ok,
    }
    out = _prepare_output(cfg)
    write_report(os.path.join(out, "report.json"), report)
    return 0 if ok else 1


def _cmd_exp_variant(cfg: dict) -> int:
    window = tuple(float(v) for v in cfg["window"])
    if len(window) != 4:
        raise ConfigError("window must be [a, b, t1, t2]")
    if not check_exp_window(*window):
        raise ConfigError("window fails the validity check for the exponential variant")
    raw = cfg.get("intervals")
    if not raw:
        raise ConfigError("intervals are required")
    intervals = [(float(a), float(b)) for a, b in raw]
    t_queries = sorted(float(t) for t in cfg["t_queries"])
    if not t_queries or t_queries[0] <= 0:
        raise ConfigError("t_queries must be positive")
    n_paths = int(cfg["n_paths"])
    if n_paths < 100:
        raise ConfigError("n_paths must be >= 100")
    try:
        result = simulate_exp_marginal_samples(
            window, intervals, t_queries, n_paths, cfg["seed"], dt=float(cfg["dt"]),
            workers=cfg["workers"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    ks_max = float(cfg["ks_max"])
    tests = []
    all_ok = True
    for q, t in enumerate(t_queries):
        samples = result.values[:, q]
        rep = ks_marginal_test(samples, t, family=LOGNORMAL)
        ok = rep.ks_statistic <= max(rep.critical_value_5pct, ks_max)
        all_ok = all_ok and ok
        tests.append(
            {
                "t_query": t,
                "ks_statistic": rep.ks_statistic,
                "threshold": max(rep.critical_value_5pct, ks_max),
                "sample_mean": float(samples.mean()),
                "passed": ok,
            }
        )
    report = {
        "config": _echo(cfg),
        "n_samples": n_paths,
        "tests": tests,
        "low_power_warning": n_paths < 1000,
        "passed": all_ok,
    }
    out = _prepare_output(cfg)
    write_report(os.path.join(out, "report.json"), report)
    return 0 if all_ok else 1


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

# flag types of the settings whose default is None; every other flag takes
# the type of its default, and a list default takes a JSON literal
_NONE_DEFAULT_TYPES = {"cantor_depth": int, "j_max": int, "fixed_start": float}


def _flag_type(key: str, default):
    if default is None:
        return _NONE_DEFAULT_TYPES[key]
    if isinstance(default, list):
        return json.loads
    return type(default)


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
            kind = _flag_type(key, default)
            p.add_argument(
                "--" + key.replace("_", "-"),
                type=kind,
                help="JSON literal" if kind is json.loads else None,
            )
        p.add_argument("--output-dir")
        p.add_argument("--workers", type=int)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    body = _COMMANDS[args.command]
    try:
        cfg = _load_config(args.command, args)
        return body(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash is neither a failed check (1) nor a bad configuration (2)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
