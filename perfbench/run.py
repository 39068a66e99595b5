"""Benchmark of blockenc: three workloads, timed end to end and layer by layer.

    python3 perfbench/run.py --workload laplace-solve --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

Every job runs in a fresh interpreter (perfbench/worker.py), one at a time,
with BLAS pinned to one thread, because blockenc's caches (`_solve_cache`,
the lazy `circuit()` and `toarray()` of each node) live for one process and a
`be` command pays for them on every invocation.

With `--trace 0` a run starts SETUPS set-up-only workers, then starts job
workers while less than `--seconds` has passed, and reports the end-to-end
metrics: the fastest job's run time, medians of the rest.  With `--trace 1` it runs the job
traced, the Laplace baseline jobs (N=3, 4 with simulation, N=5 without) and
the kernel sweep, and reports the per-layer metrics.  The
metric names and units are those of BENCHMARK.json at the checkout root.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The run, with its environment, items that failed and (traced) its spans, is
also written to perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from spans import self_times, span_cost_s  # noqa: E402

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # a run must end within 180 s
SETUPS = 9          # set-up-only workers per untraced run, besides the job workers

LAPLACE = {"kind": "laplace", "ns": [3, 4], "tolerance": 0.01}
ESTIMATE = {"kind": "estimate", "n": 5, "tolerance": 0.01}
FULL = {
    "workloads": {
        "laplace-solve": LAPLACE,
        "corpus-verify": {"kind": "corpus", "seeds": 300},
        "estimate-large": ESTIMATE,
    },
    "baseline": [LAPLACE, ESTIMATE],
    "sweep": {"kind": "sweep", "qubits": [12, 16, 20]},
}
# degree, total qubits, gates of the Laplace demo at tolerance 0.01 (ROADMAP baseline)
BASELINE_COUNTS = {"N3": (223, 12, 10756), "N4": (879, 14, 72179), "N5": (3509, 16, 519530)}

LAYERS = {"construct.s": "construct", "qsvt.target_s": "qsvt.target",
          "qsvt.solve_s": "qsvt.solve", "graphs.roundtrip_s": "graphs",
          "lower.s": "lower", "arith.s": "arith", "sim.s": "sim",
          "resources.s": "resources"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing program, crashed worker)."""


class Runner:
    """Starts workers one at a time and enforces the run's deadline."""

    def __init__(self, seed: int):
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **THREADS)

    def spawn(self, job: dict, trace: bool = False, setup_only: bool = False) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        cfg = {"root": ROOT, "job": job, "seed": self.seed, "trace": trace,
               "setup_only": setup_only, "spawned_at": time.monotonic()}
        try:
            proc = subprocess.run([sys.executable, "-I", WORKER, json.dumps(cfg)],
                                  capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{job['kind']} worker passed the run deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{job['kind']} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError as exc:
            raise BenchError(f"{job['kind']} worker printed no result: {lines[-1][:200]!r}") from exc


def untraced(runner: Runner, job: dict, seconds: float):
    start = time.monotonic()
    setups = [runner.spawn(job, setup_only=True)["setup_s"] for _ in range(SETUPS)]
    outs = []
    while not outs or time.monotonic() - start < seconds:
        outs.append(runner.spawn(job))
    first = outs[0]["items"]
    qubits = sorted(r.get("qubits", 0) for r in first)
    metrics = {
        # the fastest job: the host alternates between fast and slow phases
        # lasting tens of seconds, and a median over one run's jobs mostly
        # reports which phase the run fell in
        "run_s": min(o["run_s"] for o in outs),
        "setup_s": statistics.median(setups + [o["setup_s"] for o in outs]),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
        "gates_total": sum(r.get("gates", 0) for r in first),
        # the max over a few thousand random corpus nodes is a rare draw;
        # with fewer than 100 items (laplace, estimate) this is the max
        "qubits_p99": _nearest_rank(qubits, 0.99),
    }
    samples = {"setup_only_s": setups,
               "jobs": [{k: o[k] for k in ("setup_s", "run_s", "peak_rss_mb")} for o in outs]}
    return metrics, outs, samples


def _nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(own: dict) -> dict:
    items = own["items"]
    times = self_times(own["spans"])
    m = {name: times.get(layer, 0.0) for name, layer in LAYERS.items()}

    def total(key):
        return sum(r.get(key, 0) for r in items)

    m["qsvt.degree"] = max((r.get("degree", 0) for r in items), default=0)
    m["qsvt.phase_residual"] = max((r.get("residual", 0.0) for r in items), default=0.0)
    m["lower.gates"] = total("gates")
    m["lower.qubits_max"] = max((r.get("qubits", 0) for r in items), default=0)
    m["lower.gates_per_s"] = m["lower.gates"] / m["lower.s"] if m["lower.s"] else 0.0
    m["arith.columns"] = total("arith.columns")
    m["sim.gate_applications"] = total("sim.gate_applications")
    m["sim.amp_updates_computed"] = total("sim.amp_updates_computed")
    amps = m["sim.amp_updates_computed"]
    m["sim.ns_per_amp_update"] = m["sim.s"] / amps * 1e9 if amps else 0.0
    m["verify.max_error"] = max((r.get("verify_error", 0.0) for r in items), default=0.0)
    walls = sorted(r["wall_s"] for r in items)
    m["verify.item_p50_ms"] = statistics.median(walls) * 1e3
    m["verify.item_p99_ms"] = _nearest_rank(walls, 0.99) * 1e3
    m["tracing_overhead_s"] = len(own["spans"]) * span_cost_s()
    return m


def sweep_metrics(out: dict) -> dict:
    m = {}
    for r in out["items"]:
        m[f"sim.us_per_gate.{r['id']}"] = r.get("us_per_gate", 0.0)
        m[f"sim.bytes_per_gate_computed.{r['id']}"] = r.get("bytes_per_gate_computed", 0.0)
    return m


def baseline_rows(outs) -> dict:
    """One row per Laplace size: counts from the items, times from the spans.
    compute_s is the solution's toarray alone, not the checks' other arith."""
    rows = {}
    for out in outs:
        times = self_times(out["spans"], key=lambda s: (s["layer"], s["item"], s["call"]))
        for r in out["items"]:
            n = r["id"]
            row = {"degree": r.get("degree", 0), "qubits": r.get("qubits", 0),
                   "gates": r.get("gates", 0),
                   "solve_s": times.get(("qsvt.solve", n, None), 0.0),
                   "lower_s": times.get(("lower", n, None), 0.0),
                   "compute_s": times.get(("arith", n, "solution.toarray"), 0.0)}
            if ("sim", n, None) in times:
                row["sim_s"] = times[("sim", n, None)]
            rows[n] = row
    return rows


def traced(runner: Runner, job: dict, config: dict):
    own = runner.spawn(job, trace=True)
    base = [own if b == job else runner.spawn(b, trace=True) for b in config["baseline"]]
    sweep = runner.spawn(config["sweep"])
    rows = baseline_rows(base)
    metrics = layer_metrics(own)
    metrics.update(sweep_metrics(sweep))
    for n, row in rows.items():
        metrics.update({f"baseline.{n}.{k}": v for k, v in row.items()})
    outs = [own] + [b for b in base if b is not own] + [sweep]
    return metrics, outs, {"spans": own["spans"], "baseline": rows,
                           "sweep": sweep["items"]}


def measure(name: str, config: dict, seed: int, seconds: float, trace: bool):
    """One run of one workload: (metrics, attempted, failed, details)."""
    runner = Runner(seed)
    job = config["workloads"][name]
    if trace:
        metrics, outs, details = traced(runner, job, config)
    else:
        metrics, outs, details = untraced(runner, job, seconds)
    items = [r for o in outs for r in o["items"]]
    details["failures"] = [r for r in items if not r["ok"]]
    return metrics, len(items), len(details["failures"]), details


# -- environment record --------------------------------------------------------

def _commit():
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    paths = [os.path.join(d, f) for d, _, fs in os.walk(src) for f in fs if f.endswith(".py")]
    for path in sorted(paths) + [os.path.join(ROOT, "tests", "corpus.py")]:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    try:
        with open("/proc/cpuinfo") as fh:
            cpuinfo = fh.read()
    except OSError:
        cpuinfo = ""
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                if line.startswith("model name")), platform.processor() or None)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"machine": platform.machine(), "platform": platform.platform(),
            "cpu_model": cpu, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "threads": THREADS, "workers": "one at a time",
            "commit": _commit(), "source_sha256": _source_sha256()}


# -- command line --------------------------------------------------------------

def _declared(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name, seed, seconds, trace, env) -> dict:
    metrics, attempted, failed, details = measure(name, FULL, seed, seconds, trace)
    units = _declared(trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    for k in units:
        print(f"{name}  {k:<42} {metrics[k]:.6g} {units[k]}")
    print(f"{name}  {'failed_ratio':<42} {failed / attempted:.6g} "
          f"({failed} of {attempted} items failed)")
    for r in details["failures"][:10]:
        print(f"{name}  FAILED {r['id']}: {'; '.join(r['problems'])}")
    if trace:
        rows = details["baseline"]
        match = all((rows.get(n, {}).get("degree"), rows.get(n, {}).get("qubits"),
                     rows.get(n, {}).get("gates")) == want
                    for n, want in BASELINE_COUNTS.items())
        details["baseline_counts_match_roadmap"] = match
        print(f"{name}  baseline degree/qubits/gates match the ROADMAP table: {match}")
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "env": env, "result": result, **details}, fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*FULL["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    needed = [os.path.join(ROOT, "src", "blockenc", "__init__.py"),
              os.path.join(ROOT, "tests", "corpus.py"), os.path.join(ROOT, "BENCHMARK.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: not a blockenc checkout, missing {missing}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env))
    names = list(FULL["workloads"]) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_one(name, args.seed, args.seconds, bool(args.trace), env)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
