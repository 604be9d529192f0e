"""One fresh benchmark process: import fakebm, optionally trace, call the CLI once.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds "mode" ("setup", "run" or "trace"), "src" (the directory
that must provide the fakebm package), "argv" (the fakebm.cli.main
arguments, whose --output-dir the process creates) and "result" (where the
result JSON goes).  "setup" stops after the import and input set-up; "run"
and "trace" time one fakebm.cli.main call, "trace" with the span tracer
installed, and then also write "spans" (a JSON list of span tuples).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main(spec_path: str) -> int:
    t0 = time.perf_counter()
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import fakebm.cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(fakebm.cli.__file__).startswith(src + os.sep):
        print(f"fakebm imported from {fakebm.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    argv = list(spec["argv"])
    os.makedirs(argv[argv.index("--output-dir") + 1])
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    out = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    tracer = None
    if spec["mode"] != "setup":
        if spec["mode"] == "trace":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        t1, c1 = time.perf_counter(), time.process_time()
        try:
            out["rc"] = fakebm.cli.main(argv)
        except Exception:
            out["rc"] = None
            out["error"] = traceback.format_exc()
        out["wall_s"] = time.perf_counter() - t1
        out["cpu_s"] = time.process_time() - c1
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.resampled)
        out["coverage"] = tracing.named_self_time(out["layers"]) / out["wall_s"]
        with open(spec["spans"], "w") as fh:
            json.dump(tracer.spans, fh)
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
