"""Benchmark of the fakebm command line, timed from outside.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A workload is a set of fakebm commands (workloads.py).  Every call of
fakebm.cli.main runs in a fresh single-threaded process (child.py) with
--workers 1 and without FAKEBM_WORKERS.  With --trace 0 every command runs
once, then the fitting command that has run least, while some command's
next call is predicted to end within --seconds.  wall_s is the sum
over the commands of each command's median call time, setup_s the median
set-up time of the run's processes and peak_rss_mb the largest ru_maxrss
among them; extra import-only processes bring the set-up samples to
SETUP_SAMPLES.  With --trace 1 every command runs once untraced and twice
traced; the per-layer metrics come from all commands' spans together, as
medians of the two traced passes, whose work counts must agree exactly.

Each call's outputs are checked for correctness and hashed; a hash must
match every earlier run of the same workload, seed and source tree in this
checkout (kept in perfbench/_work/digests.json).  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  A results file
with provenance goes to perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

from tracer import COUNT_METRICS, LAYER_METRICS, layer_metrics, named_self_time  # noqa: E402
from workloads import COMMANDS, NONDETERMINISTIC_FIELDS, WORKLOADS, output_digest  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every process of a run must end by then
MIN_COVERAGE = 0.95  # share of traced wall_s the named self times must cover
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def source_hash() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fakebm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the git checkout rooted at ROOT, if ROOT is one."""
    try:
        res = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def child_env() -> dict:
    env = dict(os.environ)
    # FAKEBM_WORKERS silently overrides --workers (ROADMAP north star 3)
    for key in ("FAKEBM_WORKERS", "PYTHONPATH"):
        env.pop(key, None)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


class Run:
    """One benchmark invocation: its processes, checks and failures."""

    def __init__(self, wl, seed: int, run_dir: str, deadline: float):
        self.wl = wl
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.checks = []  # (name, passed, detail)
        self.n = 0

    def spawn(self, mode: str, cmd) -> dict | None:
        """Run one child process for command cmd; returns its result, or None if it failed."""
        self.n += 1
        tag = f"{self.n:02d}-{mode}-{cmd.name}"
        out_dir = os.path.join(self.run_dir, tag, "out")
        spec = {
            "mode": mode,
            "src": SRC,
            "argv": cmd.full_argv(self.seed, out_dir),
            "result": os.path.join(self.run_dir, tag, "result.json"),
            "spans": os.path.join(self.run_dir, tag, "spans.json"),
        }
        os.makedirs(os.path.join(self.run_dir, tag))
        spec_path = os.path.join(self.run_dir, tag, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=max(self.deadline - t0, 1.0),
            )
        except subprocess.TimeoutExpired:
            self.checks.append((f"{tag}: process", False, "timed out"))
            return None
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            self.checks.append((f"{tag}: process", False, f"exit {proc.returncode}: {proc.stderr[-2000:]}"))
            return None
        with open(spec["result"]) as fh:
            res = json.load(fh)
        res["spec"] = spec
        res["process_s"] = time.monotonic() - t0
        if mode != "setup":
            self.check_call(tag, cmd, res, out_dir)
        return res

    def check_call(self, tag: str, cmd, res: dict, out_dir: str) -> None:
        rc_ok = res.get("rc") == 0
        self.checks.append((f"{tag}: exit code 0", rc_ok, res.get("error") or f"rc={res.get('rc')}"))
        if not os.path.exists(os.path.join(out_dir, "report.json")):
            self.checks.append((f"{tag}: report.json written", False, "missing"))
            return
        try:
            for name, ok, detail in cmd.check(out_dir, cmd):
                self.checks.append((f"{tag}: {name}", ok, detail))
        except (OSError, KeyError, ValueError, TypeError) as exc:
            self.checks.append((f"{tag}: outputs readable", False, repr(exc)))
        self.check_digest(tag, cmd, out_dir)

    def check_digest(self, tag: str, cmd, out_dir: str) -> None:
        key = "|".join([cmd.name, *cmd.full_argv(self.seed, ""), source_hash()])
        digest = output_digest(out_dir)
        path = os.path.join(WORK, "digests.json")
        known = {}
        if os.path.exists(path):
            with open(path) as fh:
                known = json.load(fh)
        if key in known:
            self.checks.append((f"{tag}: outputs identical to earlier runs", known[key] == digest, digest[:16]))
        else:
            known[key] = digest
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(known, fh, indent=1, sort_keys=True)
            os.replace(tmp, path)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.checks)


def versions(res: dict) -> dict:
    return {k: res[k] for k in ("python", "numpy", "scipy")}


def measure(run: Run, seconds: float) -> dict:
    """Untraced calls of every command for about `seconds`, then set-up-only processes."""
    cmds = [COMMANDS[c] for c in run.wl.commands]
    calls = {c.name: [] for c in cmds}
    start = time.monotonic()
    while True:
        # every command once, then whichever fitting command has run least
        elapsed = time.monotonic() - start
        fits = [c for c in cmds if not calls[c.name] or elapsed + calls[c.name][-1]["process_s"] <= seconds]
        if not fits:
            break
        cmd = min(fits, key=lambda c: len(calls[c.name]))
        res = run.spawn("run", cmd)
        if res is None:
            return {}
        calls[cmd.name].append(res)
    every = [r for rs in calls.values() for r in rs]
    setups = [r["setup_s"] for r in every]
    while len(setups) < SETUP_SAMPLES:
        res = run.spawn("setup", cmds[0])
        if res is None:
            return {}
        setups.append(res["setup_s"])
    per_command = {
        name: {
            "calls": len(rs),
            "wall_s": statistics.median(r["wall_s"] for r in rs),
            "wall_s_samples": [r["wall_s"] for r in rs],
            "cpu_s_samples": [r["cpu_s"] for r in rs],
            "peak_rss_mb": max(r["maxrss_kb"] for r in rs) / 1024.0,
        }
        for name, rs in calls.items()
    }
    return {
        "calls": len(every),
        "commands": per_command,
        "setup_s_samples": setups,
        "wall_s": sum(c["wall_s"] for c in per_command.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in per_command.values()),
        "versions": versions(every[0]),
    }


def pass_metrics(traced: list) -> tuple:
    """Per-layer metrics and self-time coverage of one traced call per command."""
    spans, resampled, wall = [], 0, 0.0
    for res in traced:
        with open(res["spec"]["spans"]) as fh:
            own = json.load(fh)
        base = len(spans)
        spans += [(sid + base, parent + base if parent >= 0 else -1, *rest) for sid, parent, *rest in own]
        resampled += res["layers"]["continuous_sim.resampled"]
        wall += res["wall_s"]
    layers = layer_metrics(spans, resampled)
    return layers, named_self_time(layers) / wall


def measure_traced(run: Run) -> dict:
    """Per command one untraced call, then two traced passes whose counts must agree."""
    plain, passes = {}, ([], [])
    for name in run.wl.commands:
        cmd = COMMANDS[name]
        plain[name] = run.spawn("run", cmd)
        for p in passes:
            p.append(run.spawn("trace", cmd))
    if None in plain.values() or None in passes[0] + passes[1]:
        return {}
    (a, cov_a), (b, cov_b) = (pass_metrics(p) for p in passes)
    mismatched = [k for k in COUNT_METRICS if a[k] != b[k]]
    run.checks.append(
        ("count metrics repeat across two traced passes", not mismatched, f"mismatched: {mismatched}")
    )
    layers = {k: a[k] if k in COUNT_METRICS else statistics.median([a[k], b[k]]) for k, _ in LAYER_METRICS}
    overhead = {}
    for i, name in enumerate(run.wl.commands):
        traced_wall = statistics.median([passes[0][i]["wall_s"], passes[1][i]["wall_s"]])
        overhead[name] = {
            "untraced_wall_s": plain[name]["wall_s"],
            "traced_wall_s": traced_wall,
            "tracing_overhead_s": traced_wall - plain[name]["wall_s"],
        }
    for res in passes[0] + passes[1]:
        dest = f"{run.wl.name}_seed{run.seed}_{os.path.basename(os.path.dirname(res['spec']['spans']))}_{time.time_ns()}.json"
        os.replace(res["spec"]["spans"], os.path.join(WORK, "results", dest))
    return {
        "layers": layers,
        "commands": overhead,
        "coverage": [cov_a, cov_b],
        "versions": versions(passes[0][0]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    started = time.monotonic()
    run_dir = os.path.join(WORK, "runs", f"{name}_seed{seed}_{os.getpid()}_{time.time_ns()}")
    os.makedirs(run_dir)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    run = Run(wl, seed, run_dir, deadline=started + RUN_LIMIT_S)
    data = measure_traced(run) if trace else measure(run, seconds)
    if not data:
        run.checks.append(("measurement", False, "a call failed or none completed"))
    attempted = len(run.checks)
    record = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "trace": int(trace),
        "argv": {c: COMMANDS[c].full_argv(seed, "<run dir>") for c in wl.commands},
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "masked_nondeterministic_fields": {
            f: "defect: differs between identical runs (ROADMAP north star 3)"
            for f in NONDETERMINISTIC_FIELDS
        },
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in run.checks],
        "attempted": attempted,
        "failed": run.failed,
        "failed_share": run.failed / attempted,
        "elapsed_s": time.monotonic() - started,
        **data,
    }
    if data and not trace:
        for c, m in data["commands"].items():
            cmd = COMMANDS[c]
            m["paths_per_s"] = cmd.paths / m["wall_s"] if cmd.paths else None
            m["lattice_steps_per_s"] = cmd.steps / m["wall_s"] if cmd.steps else None
    with open(os.path.join(WORK, "results", f"{name}_seed{seed}_trace{int(trace)}_{time.time_ns()}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if run.failed == 0:
        shutil.rmtree(run_dir)
    return record


def print_record(rec: dict) -> None:
    print(f"== {rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  ({rec['why']})")
    for c, argv in rec["argv"].items():
        print(f"   {c}: {' '.join(argv)}")
    print(
        f"   provenance: commit={rec['git_commit']} src={rec['source_sha256'][:12]} "
        f"nproc={rec['nproc']} versions={rec.get('versions')}"
    )
    for c in rec["checks"]:
        if not c["passed"]:
            print(f"   FAILED {c['name']}: {c['detail']}")
    print(f"   failed_share = {rec['failed_share']:.4g} ratio ({rec['failed']}/{rec['attempted']} checks failed)")
    print(f"   note: report.json fields {', '.join(NONDETERMINISTIC_FIELDS)} masked in the determinism check (defects)")
    if "wall_s" in rec:
        for key, unit in END_TO_END:
            print(f"   {key} = {rec[key]:.6g} {unit}")
        for c, m in rec["commands"].items():
            rate = ""
            if m["paths_per_s"] is not None:
                rate = f"  paths_per_s = {m['paths_per_s']:.6g} paths/s"
            if m["lattice_steps_per_s"] is not None:
                rate = f"  lattice_steps_per_s = {m['lattice_steps_per_s']:.6g} steps/s"
            print(f"   {c}: wall_s = {m['wall_s']:.6g} s{rate}  peak_rss_mb = {m['peak_rss_mb']:.6g} MiB")
            print(f"      calls={m['calls']} wall_s samples={[round(v, 4) for v in m['wall_s_samples']]}")
    if "layers" in rec:
        for key, unit in LAYER_METRICS:
            print(f"   {key} = {rec['layers'][key]:.6g} {unit}")
        cov = min(rec["coverage"])
        verdict = "ok" if cov >= MIN_COVERAGE else f"BELOW {MIN_COVERAGE}"
        print(f"   self-time coverage of traced wall_s = {cov:.4f} ({verdict})")
        for c, o in rec["commands"].items():
            print(
                f"   {c}: tracing overhead = {o['tracing_overhead_s']:.4g} s "
                f"(traced {o['traced_wall_s']:.4g} s, untraced {o['untraced_wall_s']:.4g} s)"
            )


def result_line(rec: dict) -> dict:
    if "layers" in rec:
        metrics = {k: {"value": rec["layers"][k], "unit": u} for k, u in LAYER_METRICS}
    elif "wall_s" in rec:
        metrics = {k: {"value": rec[k], "unit": u} for k, u in END_TO_END}
    else:
        metrics = {}
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fakebm", "cli.py")):
        print(f"error: no fakebm sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(rec)
        records.append(rec)
    if any("wall_s" not in r and "layers" not in r for r in records):
        print("error: a workload produced no measurement", file=sys.stderr)
        return 1
    if len(records) == 1:
        print(json.dumps(result_line(records[0])))
    else:
        print(json.dumps({r["workload"]: result_line(r) for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
