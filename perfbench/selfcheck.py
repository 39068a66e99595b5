"""Seconds-long self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload path through the same code as run.py, untraced and
traced, at tiny sizes (Laplace N=2, estimate N=3, three corpus seeds, the kernel sweep at 4
and 6 qubits).  Then it proves that failures are counted: a corrupted corpus
oracle, a warning and an exception each fail their item, and a copy of the
benchmark without the program exits non-zero without a result.  Exits 0 when
every check holds and prints what failed otherwise.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path[:0] = [os.path.join(run.ROOT, "src"), os.path.join(run.ROOT, "tests")]

import jobs  # noqa: E402
import sweep  # noqa: E402
from spans import Tracer  # noqa: E402

LAPLACE = {"kind": "laplace", "ns": [2], "tolerance": 0.01}
ESTIMATE = {"kind": "estimate", "n": 3, "tolerance": 0.01}
SMOKE = {
    "workloads": {
        "laplace-solve": LAPLACE,
        "corpus-verify": {"kind": "corpus", "seeds": 3},
        "estimate-large": ESTIMATE,
        "corrupted-oracle": {"kind": "corpus", "seeds": 2, "corrupt_oracle": True},
    },
    "baseline": [LAPLACE, ESTIMATE],
    "sweep": {"kind": "sweep", "qubits": [4, 6]},
}
# layers each smoke workload must enter (> 0 s) and must not enter (0 s)
ENTERED = {
    "laplace-solve": ({"construct.s", "qsvt.target_s", "qsvt.solve_s", "lower.s",
                       "arith.s", "sim.s"}, {"graphs.roundtrip_s", "resources.s"}),
    "corpus-verify": ({"construct.s", "lower.s", "arith.s", "sim.s", "resources.s"},
                      {"qsvt.target_s", "qsvt.solve_s", "graphs.roundtrip_s"}),
    "estimate-large": ({"construct.s", "qsvt.target_s", "qsvt.solve_s", "graphs.roundtrip_s",
                        "lower.s", "arith.s", "resources.s"}, {"sim.s"}),
}
SIZED = ("sim.us_per_gate.", "sim.bytes_per_gate_computed.", "baseline.")


def check_workloads(problems: list):
    end_to_end = set(run._declared(trace=False))
    generic = {k for k in run._declared(trace=True) if not k.startswith(SIZED)}
    sized = ({f"{p}{kind}.q{q}" for p in SIZED[:2] for kind in sweep.KINDS for q in (4, 6)}
             | {f"baseline.N{n}.{k}" for n in (2, 3)
                for k in ("degree", "qubits", "gates", "solve_s", "lower_s", "compute_s")}
             | {"baseline.N2.sim_s"})
    for name, (entered, skipped) in ENTERED.items():
        for trace in (False, True):
            metrics, attempted, failed, _ = run.measure(name, SMOKE, 0, 1, trace)
            tag = f"{name} trace={int(trace)}"
            if failed or attempted < 1:
                problems.append(f"{tag}: {failed} of {attempted} items failed")
            want = generic | sized if trace else end_to_end
            if set(metrics) != want:
                problems.append(f"{tag}: metric names differ: {sorted(set(metrics) ^ want)}")
            if not trace and not all(metrics[k] > 0 for k in end_to_end & set(metrics)):
                problems.append(f"{tag}: an end-to-end metric is not positive: {metrics}")
            if trace:
                zero = {k for k in entered if not metrics.get(k, 0) > 0}
                busy = {k for k in skipped if metrics.get(k) != 0}
                if zero or busy:
                    problems.append(f"{tag}: layers not entered {sorted(zero)}, "
                                    f"layers entered unexpectedly {sorted(busy)}")


def check_failures_count(problems: list):
    _, attempted, failed, details = run.measure("corrupted-oracle", SMOKE, 0, 1, False)
    if failed != 2 or not failed / attempted > 0:
        problems.append(f"corrupted oracle: {failed} of {attempted} items failed, expected 2")
    elif not all("oracle" in r["problems"][0] for r in details["failures"]):
        problems.append(f"corrupted oracle failed for another reason: {details['failures']}")

    def warns(rec):
        warnings.warn("projected output exceeds the normalization bound", RuntimeWarning)
        return []

    def raises(rec):
        raise ValueError("deliberate")

    records: list = []
    for fn in (warns, raises):
        jobs.run_item(fn.__name__, Tracer(False), records, fn)
    if any(r["ok"] for r in records):
        problems.append(f"a warning or an exception did not fail its item: {records}")


def check_bare_directory(problems: list):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    bare = os.path.join(run.RESULTS, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "laplace-solve", "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")


def main() -> int:
    problems: list = []
    check_workloads(problems)
    check_failures_count(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print(json.dumps({"selfcheck": "pass" if not problems else "fail",
                      "problems": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
