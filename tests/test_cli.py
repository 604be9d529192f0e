"""Command-line surface: exit codes, artifacts, determinism, config rules."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

from fakebm import cli
from fakebm.cli import format_float, main
from fakebm.continuous_sim import RNG_LAYOUT

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def run(*argv):
    return main(list(argv))


# ---------- emission helpers ----------


def test_format_float_round_trips():
    for x in (0.1, 2.5e-05, -1.0, 1e300, 0.0):
        assert float(format_float(x)) == x
    assert format_float(float("nan")) == "null"
    assert format_float(float("inf")) == "null"


# ---------- config plumbing ----------


def test_missing_seed_is_a_config_error(tmp_path, capsys):
    code = run("verify-discrete", "--m", "8", "--steps", "2",
               "--output-dir", str(tmp_path))
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1, "n_pathz": 5}')
    code = run("simulate", "--config", str(cfg), "--output-dir", str(tmp_path))
    assert code == 2
    assert "n_pathz" in capsys.readouterr().err


def test_unreadable_config_rejected(tmp_path, capsys):
    code = run("simulate", "--config", str(tmp_path / "absent.json"))
    assert code == 2
    assert "config" in capsys.readouterr().err.lower()


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1, "n-paths": 5, "t-queries": [0.5], "dt": 0.001}')
    out = tmp_path / "o"
    code = run("simulate", "--config", str(cfg), "--n-paths", "3",
               "--output-dir", str(out))
    assert code == 0
    rep = read_json(out / "report.json")
    assert rep["config"]["n_paths"] == 3
    assert rep["config"]["seed"] == 1


def test_flag_types_follow_the_defaults():
    parser = cli._build_parser()
    args = parser.parse_args(
        ["simulate", "--n-paths", "3", "--dt", "0.01", "--t-queries", "[0.5, 1]",
         "--cantor-depth", "2", "--fixed-start", "0.5"]
    )
    assert args.n_paths == 3 and type(args.n_paths) is int
    assert args.dt == 0.01 and type(args.dt) is float
    assert args.t_queries == [0.5, 1]
    assert args.cantor_depth == 2 and type(args.cantor_depth) is int
    assert args.fixed_start == 0.5 and type(args.fixed_start) is float
    args = parser.parse_args(["verify-discrete", "--j-max", "60", "--backend", "rational"])
    assert args.j_max == 60 and type(args.j_max) is int
    assert args.backend == "rational"


@pytest.mark.parametrize(
    "command, settings, name",
    [
        ("convex-order", {"seed": 1, "workers": "many"}, "workers"),
        ("convex-order", {"seed": 1, "t_grid": 1.0}, "t_grid"),
        ("exp-variant", {"seed": 1, "window": 5}, "window"),
        ("simulate", {"seed": 1, "n_paths": None}, "n_paths"),
        ("simulate", {"seed": "x"}, "seed"),
        ("simulate", {"seed": 1, "cantor_depth": "x"}, "cantor_depth"),
    ],
)
def test_wrong_typed_config_file_value_is_a_config_error(tmp_path, capsys, command,
                                                         settings, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    code = run(command, "--config", str(cfg), "--output-dir", str(tmp_path / "o"))
    assert code == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_numeric_string_in_config_file_runs_like_the_number(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": "4", "workers": "2", "x_step": "0.1"}')
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("convex-order", "--config", str(cfg), "--output-dir", str(a)) == 0
    assert run("convex-order", "--seed", "4", "--workers", "2", "--x-step", "0.1",
               "--output-dir", str(b)) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["strong-markov", "--n-pairs", "20", "--t-horizon", "inf"], "--t-horizon"),
        (["flux", "--n-paths", "10", "--dt", "0.01", "--duration", "inf"], "--duration"),
        (["convex-order", "--x-max", "inf"], "--x-max"),
        (["marginals", "--n-paths", "100", "--dt", "0.01", "--ks-max", "nan"], "--ks-max"),
    ],
)
def test_non_finite_float_setting_is_a_config_error(tmp_path, capsys, argv, flag):
    code = run(*argv, "--seed", "1", "--output-dir", str(tmp_path / "o"))
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "marginals", "exp-variant"])
def test_scalar_t_queries_is_a_config_error(tmp_path, capsys, command):
    code = run(command, "--seed", "1", "--t-queries", "0.5", "--output-dir", str(tmp_path))
    assert code == 2
    assert "t_queries" in capsys.readouterr().err


def test_empty_t_queries_is_named_empty(tmp_path, capsys):
    code = run("simulate", "--seed", "1", "--t-queries", "[]", "--output-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "--t-queries" in err and "empty" in err


@pytest.mark.parametrize("command", ["simulate", "exp-variant"])
def test_malformed_interval_names_the_pair_shape(tmp_path, capsys, command):
    code = run(command, "--seed", "1", "--intervals", "[[0.7, 0.8, 0.9]]",
               "--output-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "intervals" in err and "[a, b]" in err


def test_crash_exits_3_not_1(tmp_path, monkeypatch, capsys):
    # a library ValueError is a crash too: only a ConfigError exits 2
    for exc in (RuntimeError("engine fault"), ValueError("library fault")):
        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "simulate_marginal_samples", boom)
        code = run("simulate", "--seed", "1", "--n-paths", "2", "--output-dir", str(tmp_path))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {type(exc).__name__}: {exc}")


_IMPORT_GRAPH_CHECK = """
import sys
from fakebm.cli import main
def heavy():
    return [name for name in sys.modules if name.partition(".")[0] == "scipy"
            or name in ("multiprocessing", "concurrent.futures")]
assert not heavy(), ("import fakebm.cli", heavy())
for argv in (%r, %r):
    assert main(argv) == 0, argv[0]
    assert not heavy(), (argv[0], heavy())
"""


def _fresh_python(code):
    """Run code in a new interpreter that imports this fakebm."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_no_command_path_imports_scipy(tmp_path):
    # scipy's import costs more than many commands' work, so neither the
    # import of the CLI nor a KS check may load any of it; nor may they load
    # the worker pool's multiprocessing, which one worker never uses
    argvs = (
        ["verify-discrete", "--seed", "1", "--m", "8", "--steps", "4",
         "--output-dir", str(tmp_path / "v")],
        ["marginals", "--seed", "1", "--n-paths", "100", "--dt", "0.01",
         "--t-queries", "[0.5]", "--ks-max", "1.0", "--workers", "1",
         "--output-dir", str(tmp_path / "m")],
    )
    proc = _fresh_python(_IMPORT_GRAPH_CHECK % argvs)
    assert proc.returncode == 0, proc.stderr


def test_chain_import_leaves_out_scipy():
    # the lattice leg needs neither scipy nor the Monte Carlo leg
    proc = _fresh_python("import sys, fakebm.discrete_chain; assert 'scipy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_reports_have_sorted_keys(tmp_path):
    out = tmp_path / "o"
    assert run("convex-order", "--seed", "4", "--output-dir", str(out)) == 0
    text = (out / "report.json").read_text()
    rep = json.loads(text)
    assert list(rep) == sorted(rep)
    assert list(rep["config"]) == sorted(rep["config"])


# ---------- pinned outputs ----------


# (argv after the subcommand, exit code, sha256 of the sorted file names and
# contents) per subcommand, or per "subcommand/variant", every run at seed
# 1.  The Monte Carlo entries are frozen from RNG stream layout 2 (SFC64
# substreams, the exponential head drawn at t1 in one normal), which their
# reports name as rng_layout.  The verify-discrete and convex-order entries
# use no stream and must not move.
PINNED_RUNS = {
    "verify-discrete": (
        ["--m", "50", "--steps", "20"],
        0,
        "c63e5e85e816ffc6407177049bb78b07be05f3ee0b8357f3bbc81a93bf4d10da",
    ),
    "verify-discrete/rational": (
        ["--m", "50", "--steps", "20", "--backend", "rational"],
        0,
        "1f248d84e64ea368abe96da6fcd7ef3ae6a4e74a29f92d6f7caad8042c639a7e",
    ),
    "verify-discrete/cantor3": (
        ["--cantor-depth", "3", "--m", "400", "--steps", "20"],
        0,
        "e00b9f9a56f35c50574d74e2e320d8a73cffe8b0a5f88c90ec691e8b08a145b8",
    ),
    # a truncated window loses mass, so the rational run fails its tolerance of 0
    "verify-discrete/truncated": (
        ["--backend", "rational", "--m", "50", "--steps", "120", "--j-max", "60"],
        1,
        "f4e9948b261440a5c98949dda80f6ad5b29894b23d64235d8e5aa5b3d913c170",
    ),
    "simulate": (
        ["--n-paths", "6", "--dt", "0.001"],
        0,
        "29349e14e8af194515aca067f831907c435de2f9dceb7799dff7900d48098f21",
    ),
    "marginals": (
        ["--n-paths", "200", "--dt", "0.002"],
        0,
        "330ff52eae01d4de8d916df6bafbfc11661fb65b1f3a1ec0dd5d27fe2f384f7c",
    ),
    "martingale": (
        ["--n-paths", "800", "--dt", "0.002"],
        0,
        "a2ba5e596b7af09e4bd5a7ceee9351d240c2e005ec2c8d60c496adb913933ae3",
    ),
    "strong-markov": (
        ["--n-pairs", "60", "--dt", "0.001", "--t-horizon", "0.4",
         "--cantor-depth", "3", "--t-offset", "0.05"],
        1,
        "7f4b98c1cca9bb34df4df5f611ed665f80b3e9efe0264f08e8731d3d31c9b188",
    ),
    # the exit code is chance: 400 paths cross the gap only a few dozen
    # times (28 under layout 1, 18 under layout 2, which fails the 15%
    # tolerance); A8 gates the rates, at 50,000 paths
    "flux": (
        ["--n-paths", "400", "--dt", "0.001", "--duration", "0.05", "--t-start", "0.3"],
        1,
        "d756d2bfdc1048d59e14ee7e258c139ea49a60488b58d300ee807a227c35e116",
    ),
    "convex-order": (
        ["--cantor-depth", "2"],
        0,
        "add2053097350b7c47136d56f10b05aacd8772b78962e57ed2359aabdbf21770",
    ),
    "exp-variant": (
        ["--n-paths", "200", "--dt", "0.002"],
        0,
        "dc454d6572b302028bb353e011da58be8b83b8546f4dfb7cf1bae6ecf6debc2c",
    ),
}


def dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0" + (path / name).read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("command", sorted(PINNED_RUNS))
def test_outputs_are_pinned(tmp_path, command):
    argv, code, digest = PINNED_RUNS[command]
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(command.split("/")[0], "--seed", "1", *argv, "--output-dir", str(out)) == code
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert dir_digest(a) == digest
    # the six Monte Carlo commands name the engine's stream layout;
    # verify-discrete and convex-order draw nothing and name none
    drawn = command.split("/")[0] not in ("verify-discrete", "convex-order")
    assert read_json(a / "report.json").get("rng_layout") == (RNG_LAYOUT if drawn else None)


_SCIPY_BLOCKED_RUNS = """
import sys
sys.modules["scipy"] = None  # every import of scipy or a submodule fails
from fakebm.cli import main
for argv, code in %r:
    assert main(argv) == code, argv[0]
"""


def test_every_command_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: each subcommand writes its
    # pinned outputs in a process where scipy cannot be imported
    runs = [
        ([command.split("/")[0], "--seed", "1", *argv, "--output-dir", str(tmp_path / str(i))], code)
        for i, (command, (argv, code, _)) in enumerate(sorted(PINNED_RUNS.items()))
    ]
    assert len({argv[0] for argv, _ in runs}) == 8
    proc = _fresh_python(_SCIPY_BLOCKED_RUNS % runs)
    assert proc.returncode == 0, proc.stderr
    for i, command in enumerate(sorted(PINNED_RUNS)):
        assert dir_digest(tmp_path / str(i)) == PINNED_RUNS[command][2], command


# ---------- verify-discrete ----------


def test_verify_discrete_rational_exact(tmp_path):
    out = tmp_path / "o"
    code = run("verify-discrete", "--seed", "1", "--m", "8", "--steps", "10",
               "--backend", "rational", "--output-dir", str(out))
    assert code == 0
    rep = read_json(out / "report.json")
    assert rep["passed"] is True
    assert rep["exactly_zero"] is True
    assert rep["max_abs_deviation"] == 0
    assert rep["N"] == 2
    assert rep["tolerance"] == 0


def test_verify_discrete_float_within_tolerance(tmp_path):
    out = tmp_path / "o"
    code = run("verify-discrete", "--seed", "1", "--m", "50", "--steps", "20",
               "--output-dir", str(out))
    assert code == 0
    rep = read_json(out / "report.json")
    assert rep["max_abs_deviation"] <= 1e-12


def test_verify_discrete_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("verify-discrete", "--seed", "1", "--m", "8", "--steps", "10",
                   "--backend", "rational", "--output-dir", str(out)) == 0
    assert os.listdir(a) == os.listdir(b) == ["report.json"]
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    rep = read_json(a / "report.json")
    assert "elapsed_s" not in rep
    assert "output_dir" not in rep["config"]


def test_verify_discrete_certifies_cantor_depth_10(tmp_path):
    # the top of the depth ladder: 1,023 intervals at m = 2**23, projected
    # from the gaps and certified from the rows that differ from the walk's
    out = tmp_path / "o"
    assert run("verify-discrete", "--seed", "1", "--backend", "rational", "--cantor-depth", "10",
               "--m", "8388608", "--steps", "10", "--output-dir", str(out)) == 0
    rep = read_json(out / "report.json")
    assert rep["exactly_zero"] is True
    assert rep["N"] == 1023


def test_verify_discrete_rejects_coarse_lattice(tmp_path, capsys):
    code = run("verify-discrete", "--seed", "1", "--m", "2", "--steps", "5",
               "--output-dir", str(tmp_path))
    assert code == 2
    assert "m too small" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_verify_discrete_huge_window_reports_like_the_full_one(tmp_path, backend):
    # no site beyond m + steps = 60 ever holds mass, so a 10^10 window is
    # certified on 60 and only the echoed setting differs
    reports = {}
    for j_max in ("60", "10000000000"):
        out = tmp_path / j_max
        assert run("verify-discrete", "--seed", "1", "--m", "50", "--steps", "10",
                   "--backend", backend, "--j-max", j_max, "--output-dir", str(out)) == 0
        reports[j_max] = read_json(out / "report.json")
    huge = reports["10000000000"]
    assert huge["config"]["j_max"] == 10000000000
    huge["config"]["j_max"] = 60
    assert huge == reports["60"]


# sha256 of the whole report.json of two float runs at seed 1, with the
# exit code and the deviation it reports.  At m = 400 the law runs over
# n = 400..600, across n = 512 where its floats change from ldexp to the
# division; a window of 100 at m = 200 clips the law.
PINNED_FLOAT_REPORTS = {
    ("--m", "400", "--steps", "200"): (
        0,
        3.122502256758253e-17,
        "984863b0404e81e2687c67fdc169442685e869f0d8da57f3626653025baaf835",
    ),
    ("--m", "200", "--steps", "500", "--j-max", "100"): (
        1,
        7.170693221184352e-09,
        "2c5064e9cf78afe7ac19faf4c50c9f99a3f0be673b24ad8389fe65245ea8f0f3",
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_FLOAT_REPORTS), ids=" ".join)
def test_verify_discrete_float_reports_are_pinned(tmp_path, argv):
    code, deviation, digest = PINNED_FLOAT_REPORTS[argv]
    assert run("verify-discrete", "--seed", "1", *argv, "--output-dir", str(tmp_path)) == code
    assert read_json(tmp_path / "report.json")["max_abs_deviation"] == deviation
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


# ---------- library range checks, named by their flag ----------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify-discrete", "--m", "1"], "--m"),
        (["verify-discrete", "--m", "2"], "--m"),
        (["verify-discrete", "--j-max", "0"], "--j-max"),
        (["verify-discrete", "--steps", "0"], "--steps"),
        (["simulate", "--cantor-depth", "0"], "--cantor-depth"),
        (["strong-markov", "--cantor-depth", "-1"], "--cantor-depth"),
        (["convex-order", "--cantor-depth", "21"], "--cantor-depth"),
        (["marginals", "--intervals", "[[0.5, 0.2]]"], "--intervals"),
        (["marginals", "--intervals", "[[0.5, 1.5]]"], "--intervals"),
        (["marginals", "--intervals", "[[0.1, 0.5], [0.4, 0.9]]"], "--intervals"),
        (["exp-variant", "--window", "[-1, 1.1, 0.5, 1.0]"], "--window"),
        (["exp-variant", "--intervals", "[[0.1, 0.2]]"], "--intervals"),
        (["flux", "--gap-index", "5"], "--gap-index"),
        (["flux", "--n-paths", "0"], "--n-paths"),
        (["strong-markov", "--n-pairs", "0"], "--n-pairs"),
        (["convex-order", "--t-grid", "[1.0]"], "--t-grid"),
        (["convex-order", "--t-grid", "[-1.0, 1.0]"], "--t-grid"),
        (["exp-variant", "--t-queries", "[2.0]"], "--t-queries"),
        (["marginals", "--n-paths", "50"], "--n-paths"),
        (["exp-variant", "--n-paths", "50"], "--n-paths"),
        (["verify-discrete", "--backend", "decimal"], "--backend"),
        (["simulate", "--t-queries", "[]"], "--t-queries"),
        (["simulate", "--t-queries", "[-0.5]"], "--t-queries"),
        (["marginals", "--t-queries", "[0.0]"], "--t-queries"),
        (["simulate", "--intervals", "[[0.7, 0.8, 0.9]]"], "--intervals"),
        (["martingale", "--s", "1.0", "--t", "0.5"], "--s"),
        (["simulate", "--workers", "0"], "--workers"),
        (["simulate", "--n-paths", "0"], "--n-paths"),
        (["convex-order", "--x-min", "1.0", "--x-max", "-1.0"], "--x-min"),
        (["exp-variant", "--window", "[0.5, 2.0]"], "--window"),
        (["exp-variant", "--intervals", "[]"], "--intervals"),
        (["simulate", "--intervals", "[]"], "--intervals"),
        *[
            ([cmd, "--seed", "-1"], "--seed")
            for cmd in ("verify-discrete", "simulate", "marginals", "martingale",
                        "strong-markov", "flux", "convex-order", "exp-variant")
        ],
    ],
)
def test_config_error_names_its_flag(tmp_path, capsys, argv, flag):
    # each used to exit 2 with a library message naming a keyword, not a
    # flag; a negative seed used to crash in numpy (exit 3), or for
    # verify-discrete, which draws nothing, to pass.  The default seed goes
    # first, so a --seed in argv overrides it.
    code = run(argv[0], "--seed", "1", *argv[1:], "--output-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --")
    assert flag in re.findall(r"--[a-z-]+", err)
    assert not (tmp_path / "report.json").exists()


SETTINGS = {
    command: set(vars(cli._build_parser().parse_args([command]))) for command in cli._COMMANDS
}
LOWER_CASES = [
    (command, key) for command in cli._COMMANDS for key in cli._LOWER if key in SETTINGS[command]
]


@pytest.mark.parametrize("command, key", LOWER_CASES)
def test_value_just_past_a_lower_bound_names_its_flag(tmp_path, capsys, command, key):
    low, strict = cli._LOWER[key]
    if strict:
        value = low
    elif cli._kind(key, cli._DEFAULTS[command].get(key, 0)) is int:
        value = low - 1
    else:
        value = math.nextafter(low, -math.inf)
    flag = "--" + key.replace("_", "-")
    code = run(command, "--seed", "1", f"{flag}={value!r}", "--output-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert re.findall(r"--[a-z-]+", err)[0] == flag
    assert not (tmp_path / "report.json").exists()


def test_every_lower_bound_is_a_setting_of_some_command():
    assert set(cli._LOWER) <= set().union(*SETTINGS.values())


# ---------- simulate ----------


def test_simulate_writes_paths_csv(tmp_path):
    out = tmp_path / "o"
    code = run("simulate", "--seed", "3", "--n-paths", "4", "--dt", "0.001",
               "--t-queries", "[0.25, 0.5]", "--output-dir", str(out))
    assert code == 0
    lines = (out / "paths.csv").read_text().strip().splitlines()
    assert lines[0] == "path_id,t_query,X_value,mode_at_t"
    assert len(lines) == 1 + 4 * 2
    assert all(line.split(",")[3] in ("lazy", "busy") for line in lines[1:])
    rep = read_json(out / "report.json")
    assert rep["passed"] is True
    assert len(rep["share_busy"]) == 2


def test_simulate_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("simulate", "--seed", "5", "--n-paths", "6", "--dt", "0.001",
                   "--output-dir", str(out)) == 0
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_worker_count_does_not_change_output(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("simulate", "--seed", "5", "--n-paths", "6", "--dt", "0.001",
               "--output-dir", str(a)) == 0
    monkeypatch.setenv("FAKEBM_WORKERS", "2")
    assert run("simulate", "--seed", "5", "--n-paths", "6", "--dt", "0.001",
               "--output-dir", str(b)) == 0
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()


def test_bad_worker_env_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FAKEBM_WORKERS", "many")
    code = run("simulate", "--seed", "5", "--output-dir", str(tmp_path))
    assert code == 2
    assert "FAKEBM_WORKERS" in capsys.readouterr().err


def test_workers_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FAKEBM_WORKERS", "2")
    out = tmp_path / "o"
    assert run("convex-order", "--seed", "4", "--workers", "1",
               "--output-dir", str(out)) == 0
    assert read_json(out / "report.json")["config"]["workers"] == 1


def test_workers_config_file_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FAKEBM_WORKERS", "2")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 4, "workers": 3}')
    out = tmp_path / "o"
    assert run("convex-order", "--config", str(cfg), "--output-dir", str(out)) == 0
    assert read_json(out / "report.json")["config"]["workers"] == 3


def test_workers_env_beats_default(tmp_path, monkeypatch):
    monkeypatch.setenv("FAKEBM_WORKERS", "2")
    out = tmp_path / "o"
    assert run("convex-order", "--seed", "4", "--output-dir", str(out)) == 0
    assert read_json(out / "report.json")["config"]["workers"] == 2


@pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
def test_non_positive_or_non_finite_dt_is_a_config_error(tmp_path, capsys, dt):
    code = run("simulate", "--seed", "1", "--n-paths", "2", f"--dt={dt}",
               "--output-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "--dt" in err
    assert "math domain" not in err


def test_dt_from_config_file_is_validated(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1, "dt": 0}')
    code = run("flux", "--config", str(cfg), "--output-dir", str(tmp_path))
    assert code == 2
    assert "--dt" in capsys.readouterr().err


def test_non_finite_fixed_start_is_a_config_error(tmp_path, capsys):
    code = run("simulate", "--seed", "1", "--n-paths", "2", "--fixed-start", "nan",
               "--output-dir", str(tmp_path))
    assert code == 2
    assert "--fixed-start" in capsys.readouterr().err


# ---------- marginals ----------


def test_marginals_small_sample_warns_low_power(tmp_path):
    out = tmp_path / "o"
    code = run("marginals", "--seed", "2", "--n-paths", "300", "--dt", "0.002",
               "--output-dir", str(out))
    assert code == 0
    rep = read_json(out / "report.json")
    assert rep["low_power_warning"] is True
    assert rep["passed"] is True
    assert [t["t_query"] for t in rep["tests"]] == [0.5, 1.0]
    for name in rep["cdf_files"]:
        lines = (out / name).read_text().strip().splitlines()
        assert lines[0] == "x,empirical,theoretical"
        assert len(lines) == 1 + 300


def test_marginals_rejects_tiny_n(tmp_path, capsys):
    code = run("marginals", "--seed", "2", "--n-paths", "50",
               "--output-dir", str(tmp_path))
    assert code == 2
    assert "--n-paths" in capsys.readouterr().err


# ---------- martingale ----------


def test_martingale_null_passes_and_drift_fails(tmp_path):
    out_null = tmp_path / "null"
    code = run("martingale", "--seed", "6", "--n-paths", "800", "--dt", "0.002",
               "--output-dir", str(out_null))
    assert code == 0
    rep = read_json(out_null / "report.json")
    assert rep["passed"] is True
    assert rep["worst_z"] <= 4.0
    lines = (out_null / "martingale_bins.csv").read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,mean_increment,stderr,n"
    assert len(lines) == 1 + rep["n_bins_kept"]

    out_drift = tmp_path / "drift"
    code = run("martingale", "--seed", "6", "--n-paths", "800", "--dt", "0.002",
               "--drift", "1.0", "--output-dir", str(out_drift))
    assert code == 1
    rep = read_json(out_drift / "report.json")
    assert rep["passed"] is False
    assert rep["worst_z"] > 4.0


def test_martingale_rejects_bad_times(tmp_path, capsys):
    code = run("martingale", "--seed", "6", "--s", "1.0", "--t", "0.5",
               "--output-dir", str(tmp_path))
    assert code == 2
    assert "0 < s < t" in capsys.readouterr().err


def test_martingale_flat_bin_is_judged_not_a_crash(tmp_path):
    # s and t on the same grid step: every increment is 0, so the one bin has
    # no spread; it used to exit 3 with "max() arg is an empty sequence"
    out = tmp_path / "o"
    code = run("martingale", "--seed", "1", "--n-paths", "30", "--n-bins", "1",
               "--dt", "0.01", "--s", "0.5", "--t", "0.5000001", "--output-dir", str(out))
    assert code in (0, 1)
    text = (out / "report.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    rep = json.loads(text)
    assert rep["passed"] is (code == 0)


def test_martingale_rejects_too_few_paths_per_bin(tmp_path, capsys):
    # 500 paths in 20 quantile bins leave 25 a bin, fewer than a kept bin needs
    code = run("martingale", "--seed", "1", "--n-paths", "500", "--dt", "1e-3",
               "--output-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "--n-paths" in err and "--n-bins" in err
    assert not (tmp_path / "report.json").exists()


def test_martingale_rejects_no_bins(tmp_path, capsys):
    code = run("martingale", "--seed", "1", "--n-paths", "100", "--dt", "1e-3",
               "--n-bins", "0", "--output-dir", str(tmp_path))
    assert code == 2
    assert "--n-bins" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_martingale_smallest_accepted_run_reaches_the_statistics(tmp_path):
    # 30 paths a bin on average: by pigeonhole some bin keeps 30 samples
    out = tmp_path / "o"
    code = run("martingale", "--seed", "1", "--n-paths", "60", "--n-bins", "2",
               "--dt", "1e-3", "--output-dir", str(out))
    assert code in (0, 1)
    assert read_json(out / "report.json")["n_bins_kept"] >= 1


@pytest.mark.parametrize("command, argv", [
    ("martingale", ["--n-paths", "60", "--n-bins", "2", "--dt", "1e-3", "--z-max", "-1"]),
    ("convex-order", ["--cantor-depth", "2", "--tol", "-1"]),
])
def test_negative_threshold_is_a_config_error(tmp_path, capsys, command, argv):
    # a negative threshold fails every run, which would read as an honest
    # statistical failure
    code = run(command, "--seed", "1", *argv, "--output-dir", str(tmp_path))
    assert code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# ---------- strong-markov ----------


def test_strong_markov_tiny_run_is_inconclusive(tmp_path):
    out = tmp_path / "o"
    code = run("strong-markov", "--seed", "1", "--n-pairs", "60",
               "--dt", "0.001", "--t-horizon", "0.4", "--cantor-depth", "3",
               "--t-offset", "0.05", "--output-dir", str(out))
    assert code == 1
    rep = read_json(out / "report.json")
    assert rep["status"] == "inconclusive"
    assert rep["passed"] is False
    lines = (out / "coupling.csv").read_text().strip().splitlines()
    assert lines[0] == "class,n,p_hat,ci_lo,ci_hi"
    assert [line.split(",")[0] for line in lines[1:]] == ["A", "B"]


def test_strong_markov_rejects_min_class_below_one(tmp_path, capsys):
    # min_class 0 would call an empty class B conclusive
    code = run("strong-markov", "--seed", "1", "--n-pairs", "10",
               "--min-class", "0", "--output-dir", str(tmp_path))
    assert code == 2
    assert "--min-class" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_strong_markov_rejects_non_positive_horizon(tmp_path, capsys, horizon):
    # horizon 0 counts no meeting and fails every run; a negative one used
    # to exit 2 with the engine's grid message, which names no flag
    code = run("strong-markov", "--seed", "1", "--n-pairs", "10",
               "--t-horizon", horizon, "--output-dir", str(tmp_path))
    assert code == 2
    assert "--t-horizon" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_strong_markov_rejects_negative_offset(tmp_path, capsys):
    # used to exit 2 with the analysis's "t_offset must be >= 0", which
    # names no flag
    code = run("strong-markov", "--seed", "1", "--n-pairs", "10",
               "--t-offset", "-1", "--output-dir", str(tmp_path))
    assert code == 2
    assert "--t-offset" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# ---------- flux ----------


def test_flux_coarse_dt_fails_honestly(tmp_path):
    out = tmp_path / "o"
    code = run("flux", "--seed", "1", "--n-paths", "400", "--dt", "0.001",
               "--duration", "0.05", "--t-start", "0.3", "--output-dir", str(out))
    rep = read_json(out / "report.json")
    assert code == (0 if rep["passed"] else 1)
    assert rep["count_in"] > 0
    assert rep["rel_err_in"] == pytest.approx(
        abs(rep["rate_in"] - rep["theory_in"]) / rep["theory_in"]
    )


def test_flux_rejects_duration_shorter_than_dt(tmp_path, capsys):
    code = run("flux", "--seed", "1", "--n-paths", "10", "--dt", "0.5",
               "--duration", "0.2", "--output-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "--duration" in err and "--dt" in err


def test_flux_rejects_negative_tolerance(tmp_path, capsys):
    # a negative tolerance fails every run, which would read as an honest
    # statistical failure
    code = run("flux", "--seed", "1", "--n-paths", "10", "--tolerance", "-1",
               "--output-dir", str(tmp_path))
    assert code == 2
    assert "--tolerance" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_flux_rejects_negative_start(tmp_path, capsys):
    # used to exit 2 with the engine's "query times must be non-negative",
    # which names no flag
    code = run("flux", "--seed", "1", "--n-paths", "10", "--t-start", "-1",
               "--output-dir", str(tmp_path))
    assert code == 2
    assert "--t-start" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_flux_rejects_bad_gap_index(tmp_path, capsys):
    code = run("flux", "--seed", "1", "--gap-index", "3",
               "--output-dir", str(tmp_path))
    assert code == 2
    assert "--gap-index" in capsys.readouterr().err


# ---------- convex-order ----------


def test_convex_order_passes(tmp_path):
    out = tmp_path / "o"
    code = run("convex-order", "--seed", "1", "--cantor-depth", "2",
               "--output-dir", str(out))
    assert code == 0
    rep = read_json(out / "report.json")
    assert rep["passed"] is True
    assert rep["n_x_points"] == 161


def test_convex_order_rejects_bad_grid(tmp_path, capsys):
    code = run("convex-order", "--seed", "1", "--x-min", "2.0", "--x-max", "-2.0",
               "--output-dir", str(tmp_path))
    assert code == 2
    capsys.readouterr()


# ---------- exp-variant ----------


def test_exp_variant_small_run(tmp_path):
    out = tmp_path / "o"
    code = run("exp-variant", "--seed", "9", "--n-paths", "300", "--dt", "0.001",
               "--output-dir", str(out))
    assert code == 0
    rep = read_json(out / "report.json")
    assert rep["passed"] is True
    assert rep["low_power_warning"] is True
    for t in rep["tests"]:
        assert abs(t["sample_mean"] - 1.0) < 0.5


def test_exp_variant_worker_count_does_not_change_output(tmp_path):
    # 300 paths span two 256-path chunks, so two workers really split the run
    a, b = tmp_path / "a", tmp_path / "b"
    for out, workers in ((a, "1"), (b, "2")):
        assert run("exp-variant", "--seed", "3", "--n-paths", "300", "--dt", "2e-3",
                   "--workers", workers, "--output-dir", str(out)) == 0
    # the echoed settings hold the worker count; everything else is identical
    ra = (a / "report.json").read_text()
    rb = (b / "report.json").read_text()
    assert rb.replace('"workers": 2', '"workers": 1') == ra


def test_exp_variant_rejects_invalid_window(tmp_path, capsys):
    code = run("exp-variant", "--seed", "9", "--window", "[0.6, 1.1, 0.0, 1.0]",
               "--output-dir", str(tmp_path))
    assert code == 2
    assert "window" in capsys.readouterr().err


def test_exp_variant_rejects_late_queries(tmp_path, capsys):
    code = run("exp-variant", "--seed", "9", "--n-paths", "300",
               "--t-queries", "[1.2]", "--output-dir", str(tmp_path))
    assert code == 2
    capsys.readouterr()
