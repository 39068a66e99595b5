"""Command-line surface: evaluate, verify, estimate, emit, and built-in demos.

Structured output is JSON on stdout; diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage or parse errors, bad BE_BUDGET
values, graphs too large for the evaluation budget, polynomial fits or
phase solves that cannot reach the requested accuracy, and a stdout closed
before the output was written (as by `be demo laplace | head -2`).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import graphs
from .composites import Adjoint
from .nodes import BudgetExceededError, Node
from .primitives import (
    ConstantIntegerAddition,
    ConstantVector,
    Identity,
    Increment,
    IntegerAddition,
)
from .qsvt import PhaseSolverError, Pseudoinverse

EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


class _Number:
    """Matches a token that parses as a float.  argparse takes a token that
    starts with `-` for a flag unless its pattern for negative numbers
    matches, and that pattern knows only forms such as -1 and -.5, so
    `--tol -1e-3` and `--tol -inf` would lose their values."""

    @staticmethod
    def match(token):
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are `CliError`s, so that `main`
    reports them as it reports every usage error: one `error: ` line, and
    that reads every number after an option as its value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _Number

    def error(self, message):
        raise CliError(message)


def _load_graph(path: str) -> Node:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}")
    try:
        return graphs.parse_document(doc)
    except graphs.GraphFormatError as exc:
        raise CliError(f"{path}: {exc}")


def _load_input(source: str, dim: int) -> np.ndarray:
    if source.startswith("basis:"):
        k = int(source.split(":", 1)[1])
        if not 0 <= k < dim:
            raise CliError(f"basis index {k} outside [0, {dim})")
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        return v
    try:
        with open(source) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read input {source}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"input {source} is not valid JSON: {exc}")
    v = graphs.vector_from_json(data)
    if len(v) != dim:
        raise CliError(f"input has length {len(v)}, node expects {dim}")
    return v


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_eval(args) -> int:
    node = _load_graph(args.graph)
    v = _load_input(args.input, node.dim_in)
    out = node.simulate(v) if args.simulate else node.compute(v)
    _emit({"path": "simulate" if args.simulate else "compute",
           "values": graphs.vector_to_json(out)})
    return 0


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise CliError(f"--tol must be a finite number >= 0, got {args.tol}")
    node = _load_graph(args.graph)
    report = node.verify(args.tol)
    _emit({"pass": report.passed, "max_error": report.max_error,
           "worst_column": report.worst_index, "tolerance": report.tolerance,
           "within_bound": report.within_bound})
    return 0 if report.passed else EXIT_VERIFY_FAILED


def _estimate_json(node: Node) -> dict:
    report = node.resources()
    out = report.to_json()
    if report.info_efficiency:
        out["norm_query_estimates"] = {
            f"eps={eps}, delta=0.01": report.norm_query_estimate(eps, 0.01)
            for eps in (1e-1, 1e-2)
        }
    return out


def cmd_estimate(args) -> int:
    _emit(_estimate_json(_load_graph(args.graph)))
    return 0


def cmd_emit(args) -> int:
    node = _load_graph(args.graph)
    sys.stdout.write(node.circuit().export_text(lower_permutations=args.lower))
    return 0


def _matrix_json(m) -> list:
    return [graphs.vector_to_json(row) for row in np.asarray(m)]


def demo_increment():
    """Basic session: a 2-qubit increment and its two evaluation paths."""
    inc = Increment(bits=2)
    e1 = np.array([0, 1, 0, 0], dtype=complex)
    report = {
        "circuit": inc.circuit().export_text().splitlines(),
        "basis": [int(k) for k in inc.subspace_in.enumerate_basis()],
        "normalization": inc.normalization,
        "simulate_e1": graphs.vector_to_json(inc.simulate(e1)),
        "compute_e1": graphs.vector_to_json(inc.compute(e1)),
        "toarray": _matrix_json(inc.toarray()),
        "estimate": _estimate_json(inc),
    }
    return inc, report


def demo_laplace(n: int = 3, tolerance: float = 0.01):
    """1D Dirichlet Laplace system solved through the pseudoinverse node.

    Builds A = 2^n (2I - S - S†) on the interior points, a constant right-hand
    side, and reports the discrete L2-norm proxy of the solution.
    """
    ident = Identity(dim=2 ** n)
    shift = Increment(bits=n)
    a = 2 ** n * (2 * ident - shift.adjoint() - shift)[:-1, :-1]
    vec2d = ConstantVector(0.5 * np.ones(2))
    rhs = vec2d
    for _ in range(n - 1):
        rhs = rhs & vec2d
    rhs = rhs[:-1]
    condition = float(np.linalg.cond(a.toarray(), 2))
    a_inv = Pseudoinverse(a, condition=condition, tolerance=tolerance)
    solution = a_inv @ rhs
    qoi = solution.simulate_norm() * 2 ** (-n / 2)
    dense = np.linalg.solve(a.toarray(), rhs.toarray().ravel())
    oracle = float(np.linalg.norm(dense)) * 2 ** (-n / 2)
    report = {
        "n": n,
        "dofs": 2 ** n - 1,
        "condition": condition,
        "pseudoinverse_degree": a_inv.degree,
        "phase_residual": a_inv.phase_residual,
        "gamma_A": a.normalization,
        "qoi": qoi,
        "dense_solve_qoi": oracle,
        "relative_error": abs(qoi - oracle) / abs(oracle),
        "estimate": _estimate_json(solution),
    }
    return solution, report


def demo_convolution():
    """Gaussian convolution as prepare / shift-add / unprepare, with the
    Toeplitz matrix of the padded kernel as the dense oracle."""
    kernel = np.exp(-((np.arange(-3, 4) / 4) ** 2))
    padded = np.append(kernel, 0.0)
    prep = ConstantVector(np.sqrt(padded)) & Identity(dim=16)
    add = IntegerAddition(source_bits=3, target_bits=4)
    const_add = Identity(dim=8) & ConstantIntegerAddition(bits=4, constant=-3)
    conv = (Adjoint(prep) @ const_add @ add @ prep)[:8, :8]
    toeplitz = np.zeros((8, 8))
    for i in range(8):
        for j in range(8):
            if abs(i - j) <= 3:
                toeplitz[i, j] = kernel[3 + i - j]
    err = float(np.max(np.abs(conv.toarray() - toeplitz)))
    report = {
        "kernel": [float(k) for k in kernel],
        "normalization": conv.normalization,
        "kernel_sum": float(padded.sum()),
        "toarray": _matrix_json(conv.toarray()),
        "toeplitz_max_error": err,
        "estimate": _estimate_json(conv),
    }
    return conv, report


def cmd_demo(args) -> int:
    if args.name == "increment":
        node, report = demo_increment()
    elif args.name == "laplace":
        if args.N < 1:
            raise CliError(f"--N must be >= 1, got {args.N}")
        node, report = demo_laplace(args.N, args.tolerance)
    elif args.name == "convolution":
        node, report = demo_convolution()
    else:  # argparse choices guard this
        raise CliError(f"unknown demo {args.name!r}")
    if args.dump_graph:
        report["graph"] = graphs.document(node, {"demo": args.name})
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="be", description="block-encoding graphs: evaluate, verify, estimate, export")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="apply the encoded matrix to a vector")
    p.add_argument("graph")
    p.add_argument("--input", required=True,
                   help="JSON vector file, or basis:K for the K-th basis vector")
    p.add_argument("--simulate", action="store_true",
                   help="use the circuit path instead of direct arithmetic")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="compare circuit and arithmetic paths")
    p.add_argument("graph")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("estimate", help="static resource report")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("emit", help="textual circuit export")
    p.add_argument("graph")
    p.add_argument("--lower", action="store_true",
                   help="expand permutation gates into X networks")
    p.set_defaults(fn=cmd_emit)

    p = sub.add_parser("demo", help="run a built-in example")
    p.add_argument("name", choices=["increment", "laplace", "convolution"])
    p.add_argument("--N", type=int, default=3, help="laplace register size")
    p.add_argument("--tolerance", type=float, default=0.01,
                   help="laplace pseudoinverse tolerance")
    p.add_argument("--dump-graph", action="store_true",
                   help="attach the JSON graph document to the report")
    p.set_defaults(fn=cmd_demo)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except (CliError, ValueError, BudgetExceededError, PhaseSolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit, which would fail and
        # exit 120; what is left of the output goes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
