"""One benchmark job in a fresh interpreter.

    python -I perfbench/worker.py '<config JSON>'

The config names the checkout root, the job, the seed, whether to trace,
whether to stop after set-up, and `spawned_at`, the parent's
`time.monotonic()` just before it started this process.  Set-up is timed
from that instant to `import blockenc` done and the seeded inputs made.  The
last line of standard output is one JSON object: setup_s, and unless
setup_only also run_s, the item records, the spans and peak_rss_mb.
"""
import json
import os
import resource
import sys
import time


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path[:0] = [src, os.path.join(cfg["root"], "tests"), os.path.dirname(__file__)]

    import blockenc

    if not os.path.abspath(blockenc.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"blockenc imported from {blockenc.__file__}, not from {src}", file=sys.stderr)
        return 2
    import jobs
    from spans import Tracer

    inputs = jobs.make_inputs(cfg["job"], cfg["seed"])
    out = {"setup_s": time.monotonic() - cfg["spawned_at"]}
    if not cfg["setup_only"]:
        tracer = Tracer(cfg["trace"])
        t0 = time.perf_counter()
        out["items"] = jobs.run(cfg["job"], inputs, tracer)
        out["run_s"] = time.perf_counter() - t0
        out["spans"] = tracer.spans
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
