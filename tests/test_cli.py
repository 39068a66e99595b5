import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import blockenc as be
from blockenc import graphs
from blockenc.cli import demo_convolution, demo_increment, demo_laplace, main

from corpus import build_corpus


INC = {"op": "increment", "bits": 2}
QFT = {"op": "qft", "bits": 2}


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_graph(tmp_path, node, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(graphs.document(node)))
    return str(path)


class TestEval:
    def test_increment_basis(self, tmp_path, capsys):
        g = write_graph(tmp_path, be.Increment(2))
        rc, out, _ = run(capsys, "eval", g, "--input", "basis:1")
        assert rc == 0
        values = json.loads(out)["values"]
        assert values == [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]

    def test_simulate_path(self, tmp_path, capsys):
        g = write_graph(tmp_path, be.Increment(2))
        rc, out, _ = run(capsys, "eval", g, "--input", "basis:1", "--simulate")
        assert rc == 0
        assert json.loads(out)["path"] == "simulate"

    def test_identity_file_input(self, tmp_path, capsys):
        g = write_graph(tmp_path, be.Identity(dim=3))
        vec = tmp_path / "v.json"
        vec.write_text(json.dumps([[1.0, 0.5], 2.0, [0.0, -1.0]]))
        rc, out, _ = run(capsys, "eval", g, "--input", str(vec))
        assert rc == 0
        assert json.loads(out)["values"] == [[1.0, 0.5], [2.0, 0.0], [0.0, -1.0]]

    def test_dimension_mismatch_exit_code(self, tmp_path, capsys):
        g = write_graph(tmp_path, be.Identity(dim=3))
        vec = tmp_path / "v.json"
        vec.write_text("[1, 2]")
        rc, _, err = run(capsys, "eval", g, "--input", str(vec))
        assert rc == 2 and "length" in err

    def test_bad_input_entries_are_a_usage_error(self, tmp_path, capsys):
        g = write_graph(tmp_path, be.Identity(dim=2))
        vec = tmp_path / "v.json"
        for data in ([["a", 1], 0], [True, 0], [[0, False], 1], [10 ** 400, 0], 5):
            vec.write_text(json.dumps(data))
            rc, out, err = run(capsys, "eval", g, "--input", str(vec))
            assert rc == 2 and out == "" and err.startswith("error: ")


class TestVerify:
    def test_pass(self, tmp_path, capsys):
        g = write_graph(tmp_path, be.Increment(2))
        rc, out, _ = run(capsys, "verify", g)
        assert rc == 0 and json.loads(out)["pass"] is True
        assert json.loads(out)["within_bound"] is True

    def test_failure_exit_code(self, tmp_path, capsys):
        cv = be.ConstantVector([0.6, 0.8j])
        bad = be.Product(cv, cv.adjoint(), exact=True)  # skipped check is wrong here
        g = write_graph(tmp_path, bad)
        rc, out, _ = run(capsys, "verify", g)
        assert rc == 1 and json.loads(out)["pass"] is False

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{\"version\": 1}")
        rc, _, err = run(capsys, "verify", str(p))
        assert rc == 2 and "root" in err

    def test_bad_fields_name_the_file_and_op(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        for root in [{"op": "increment", "bits": 0},
                     {"op": "increment", "bits": 2.7},
                     {"op": "adjoint", "args": [INC, QFT]},
                     {"op": "matmul", "args": [INC, QFT], "params": 5},
                     {"op": "matmul", "args": [INC, QFT], "params": {"exact": "yes"}},
                     {"op": "scale", "args": [QFT], "params": {"factor": True}},
                     {"op": "constant_vector", "entries": [True, False]},
                     {"op": "pseudoinverse", "args": [INC],
                      "params": {"condition": True, "tolerance": 0.05, "delta": "0.5"}},
                     {"op": "pseudoinverse", "args": [INC],
                      "params": {"condition": 1e308, "tolerance": 0.05}},
                     # delta^2 underflows to 0, and ln(4/eps) / delta^2 overflows
                     {"op": "pseudoinverse", "args": [INC],
                      "params": {"condition": 2, "tolerance": 0.05, "delta": 1e-300}},
                     {"op": "pseudoinverse", "args": [INC],
                      "params": {"condition": 2, "tolerance": 0.05, "delta": 1e-160}},
                     # non-finite and non-numeric JSON numbers
                     {"op": "scale", "args": [QFT], "params": {"factor": math.nan}},
                     {"op": "constant_vector", "entries": [1.0, math.inf]},
                     {"op": "qsvt", "args": [INC], "params": {"chebyshev": [0, math.nan]}},
                     {"op": "qsvt", "args": [INC], "params": {"chebyshev": [0, "0.5"]}},
                     {"op": "qsvt", "args": [INC], "params": {"chebyshev": [False, True]}},
                     {"op": "qsvt", "args": [INC], "params": {"chebyshev": [[0, 0.5]]}},
                     {"op": "qsvt", "args": [INC], "params": {"chebyshev": []}},
                     {"op": "pseudoinverse", "args": [INC],
                      "params": {"condition": math.inf, "tolerance": 0.05}}]:
            p.write_text(json.dumps({"version": 1, "root": root}))
            rc, _, err = run(capsys, "verify", str(p))
            assert rc == 2 and err.startswith(f"error: {p}: bad fields for op {root['op']!r}: ")

    @pytest.mark.parametrize("argv", [["--tol=nan"], ["--tol=-1"], ["--tol=inf"], ["--tol=-inf"],
                                      ["--tol", "-inf"], ["--tol", "-1e-3"]],
                             ids=["nan", "-1", "inf", "-inf", "tol-minus-inf", "tol-minus-1e-3"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tmp_path, capsys, argv):
        # a negative value after a space is the option's value, not a flag
        g = write_graph(tmp_path, be.Increment(2))
        rc, out, err = run(capsys, "verify", g, *argv)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: --tol must be a finite number >= 0, got ")

    @pytest.mark.parametrize("argv", [["verify", "GRAPH", "--tol", "abc"],
                                      ["demo", "laplace", "--N", "x"]],
                             ids=["tol-abc", "N-x"])
    def test_argument_errors_are_one_error_line(self, tmp_path, capsys, argv):
        # errors argparse finds take the shape of every other usage error
        g = write_graph(tmp_path, be.Increment(2))
        rc, out, err = run(capsys, *(g if a == "GRAPH" else a for a in argv))
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: argument --")

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "verify", "/nonexistent/graph.json")
        assert rc == 2

    @pytest.mark.parametrize("argv", [["verify"], ["eval", "--input", "basis:1", "--simulate"]])
    def test_over_budget_is_a_usage_error(self, tmp_path, capsys, argv):
        g = write_graph(tmp_path, be.Increment(3))
        old = be.get_budget()
        try:
            be.set_budget(be.Budget(max_amplitudes=4, max_dim=2))
            rc, out, err = run(capsys, argv[0], g, *argv[1:])
        finally:
            be.set_budget(old)
        assert rc == 2 and out == "" and err.startswith("error: ") and "budget" in err


class TestEstimate:
    def test_increment(self, tmp_path, capsys):
        g = write_graph(tmp_path, be.Increment(2))
        rc, out, _ = run(capsys, "estimate", g)
        rep = json.loads(out)
        assert rc == 0
        assert rep["main_qubits"] == 2 and rep["ancilla_qubits"] == 0
        assert rep["normalization"] == 1.0
        assert rep["gate_counts"] == {"CX": 1, "X": 1}
        assert rep["norm_query_estimates"]["eps=0.1, delta=0.01"] == 47

    def test_identity_zero_gates(self, tmp_path, capsys):
        g = write_graph(tmp_path, be.Identity(dim=4))
        rc, out, _ = run(capsys, "estimate", g)
        assert json.loads(out)["gate_counts"] == {}

    def test_small_node_over_a_large_operand(self, tmp_path, capsys):
        node = be.SingularValueTransform(be.Identity(dim=4) & be.Identity(dim=2**11),
                                         be.TargetPolynomial.chebyshev([0, 0.5]))[:4, :4]
        rc, out, err = run(capsys, "estimate", write_graph(tmp_path, node))
        assert rc == 0 and err == ""
        rep = json.loads(out)
        assert rep["info_efficiency"] is None and "norm_query_estimates" not in rep
        assert rep["total_qubits"] == 16 and rep["gate_counts"]["RZ"] == 2


class TestEmit:
    def test_increment_text(self, tmp_path, capsys):
        g = write_graph(tmp_path, be.Increment(2))
        rc, out, _ = run(capsys, "emit", g)
        assert rc == 0
        assert out.splitlines()[3:] == ["cx q[0], q[1];", "x q[0];"]

    def test_lowering_flag(self, tmp_path, capsys):
        g = write_graph(tmp_path, be.Permutation([1, 2, 3, 0]))
        rc, _, err = run(capsys, "emit", g)
        assert rc == 2
        rc, out, _ = run(capsys, "emit", g, "--lower")
        assert rc == 0 and "OPENQASM" in out


class TestDemos:
    def test_increment_session_values(self):
        _, report = demo_increment()
        assert report["normalization"] == 1.0
        assert report["basis"] == [0, 1, 2, 3]
        assert report["simulate_e1"] == report["compute_e1"]
        assert report["simulate_e1"][2] == [1.0, 0.0]
        shift = [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        got = [[int(round(re)) for re, _ in row] for row in report["toarray"]]
        assert got == shift
        assert report["estimate"]["gate_counts"] == {"CX": 1, "X": 1}

    def test_laplace_matches_dense_solve(self):
        _, report = demo_laplace(3, 0.01)
        assert report["gamma_A"] == 32.0
        assert report["relative_error"] <= 0.02
        assert abs(report["dense_solve_qoi"]
                   - np.sqrt(273) / 64 * 2 ** -1.5) < 1e-12

    def test_convolution_toeplitz(self):
        _, report = demo_convolution()
        assert report["toeplitz_max_error"] <= 1e-8
        assert abs(report["normalization"] - report["kernel_sum"]) < 1e-12

    def test_demo_cli_and_dump_graph_round_trip(self, capsys):
        rc, out, _ = run(capsys, "demo", "convolution", "--dump-graph")
        assert rc == 0
        rep = json.loads(out)
        node = graphs.parse_document(rep["graph"])
        conv, _ = demo_convolution()
        assert np.max(np.abs(node.toarray() - conv.toarray())) <= 1e-12
        assert node.resources() == conv.resources()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_register_size_must_be_positive(self, capsys, n):
        rc, out, err = run(capsys, "demo", "laplace", "--N", n)
        assert rc == 2 and out == ""
        assert err == f"error: --N must be >= 1, got {n}\n"

    @pytest.mark.parametrize("name", ["increment", "convolution"])
    def test_demos_without_a_register_ignore_its_size(self, capsys, name):
        rc, out, _ = run(capsys, "demo", name, "--N", "0")
        assert rc == 0 and "estimate" in json.loads(out)

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_smallest_registers_run(self, capsys, n):
        rc, out, _ = run(capsys, "demo", "laplace", "--N", n)
        assert rc == 0 and json.loads(out)["relative_error"] <= 0.01

    @pytest.mark.parametrize("condition", [2, 1e12])
    def test_out_of_reach_fit_is_one_error_line(self, tmp_path, capsys, condition):
        # delta = 1e-150 needs a degree near 1e151: the degree cap ends the
        # search at condition 2, and the amplitude budget at condition 1e12
        p = tmp_path / "far.json"
        p.write_text(json.dumps({"version": 1, "root": {
            "op": "pseudoinverse", "args": [INC],
            "params": {"condition": condition, "tolerance": 0.05, "delta": 1e-150}}}))
        rc, out, err = run(capsys, "estimate", str(p))
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("condition", [1e5, 1e12])
    def test_unitary_pseudoinverse_estimates_at_any_condition(self, tmp_path, capsys, condition):
        p = tmp_path / "unitary.json"
        p.write_text(json.dumps({"version": 1, "root": {
            "op": "pseudoinverse", "args": [INC],
            "params": {"condition": condition, "tolerance": 0.05}}}))
        rc, out, _ = run(capsys, "estimate", str(p))
        assert rc == 0 and json.loads(out)["gate_counts"]

    def test_closed_stdout_is_a_usage_error(self):
        # the read end is closed before the process starts, so its first
        # write fails on every run, and exit 1 means only a failed verify
        src = os.path.dirname(os.path.dirname(os.path.abspath(be.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "blockenc.cli", "demo", "increment"],
                                  stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                                  timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_unreachable_fit_is_a_usage_error(self):
        # the fit raises PhaseSolverError: no odd degree within the budget
        # reaches the accuracy; run as a process to see what a user sees
        src = os.path.dirname(os.path.dirname(os.path.abspath(be.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "blockenc.cli", "demo", "laplace", "--N", "2",
             "--tolerance", "1e-300"], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: no odd degree within the budget")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n", ["24", "30"])
    def test_laplace_past_the_budget_is_a_usage_error(self, n):
        # slicing the 2^n - 1 interior rows must not build a list of 2^n
        # indices; the dense budget stops the demo with one error line
        src = os.path.dirname(os.path.dirname(os.path.abspath(be.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "blockenc.cli", "demo", "laplace", "--N", n],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: dense matrix")
        assert "exceeds budget" in lines[0] and "Traceback" not in proc.stderr


class TestGraphFormats:
    def test_subspace_forms(self):
        for obj, basis in [({"pattern": "0#"}, [0, 1]),
                           ({"dim": 5}, [0, 1, 2, 3, 4]),
                           ({"or": [{"pattern": "0"}, {"pattern": "#"}]}, [0, 2, 3]),
                           ({"and": [{"pattern": "0"}, {"pattern": "#"}]}, [0, 1])]:
            s = graphs.parse_subspace(obj)
            assert list(s.enumerate_basis()) == basis

    def test_subspace_round_trip(self):
        s = (be.Subspace("00") | be.Subspace("0#")) & be.Subspace.from_dim(3)
        back = graphs.parse_subspace(graphs.subspace_to_json(s))
        assert list(back.enumerate_basis()) == list(s.enumerate_basis())

    def test_every_op_round_trips(self):
        rng = np.random.default_rng(40)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        nodes = [
            be.Identity(dim=4),
            be.Increment(2),
            be.ConstantIntegerAddition(3, -2),
            be.IntegerAddition(1, 2),
            be.QFT(2),
            be.ConstantVector(v),
            be.Permutation([2, 0, 3, 1]),
            be.Projection(be.Subspace.from_dim(8), 5, 7),
            be.Increment(2).adjoint(),
            (1 - 2j) * be.QFT(2),
            0 * be.QFT(2),
            be.Increment(2) @ be.QFT(2),
            be.Increment(1) & be.QFT(1),
            be.Increment(1) | be.QFT(1),
            be.Increment(2) + be.QFT(2),
            be.Increment(2)[1:4, 0:3],
            be.Identity(dim=5)[1:, :],
            be.SingularValueTransform(be.Increment(2),
                                      be.TargetPolynomial.chebyshev([0, 0.4, 0, 0.3])),
            be.Pseudoinverse(be.Identity(dim=2), 1.0, 0.05),
        ]
        written = set()
        for node in nodes:
            doc = graphs.document(node)
            back = graphs.parse_document(json.loads(json.dumps(doc)))
            assert np.max(np.abs(back.toarray() - node.toarray())) <= 1e-12, doc["root"]["op"]
            assert back.resources() == node.resources(), doc["root"]["op"]
            stack = [doc["root"]]
            while stack:
                obj = stack.pop()
                written.add(obj["op"])
                stack += obj.get("args", [])
        # every form the table writes has a case above
        assert written == {op for op, row in graphs.OPS.items() if row.cls is not None}

    def test_corpus_documents_round_trip(self):
        for seed in range(300):
            pool, made = build_corpus(seed)
            for i, (node, _) in enumerate(pool + made):
                doc = graphs.document(node)
                assert graphs.document(graphs.parse_document(doc)) == doc, (seed, i)

    def test_slice_op_parses(self):
        doc = {"version": 1,
               "root": {"op": "slice", "args": [{"op": "increment", "bits": 2}],
                        "params": {"rows": [None, 3], "cols": [1, None]}}}
        node = graphs.parse_document(doc)
        want = be.Increment(2).toarray()[:3, 1:]
        assert np.array_equal(node.toarray(), want)

    def test_unknown_op(self):
        for obj in [{"op": "teleport"}, {"op": ["x"]}]:
            with pytest.raises(graphs.GraphFormatError):
                graphs.parse_node(obj)

    def test_integral_float_is_an_integer(self):
        node = graphs.parse_node({"op": "increment", "bits": 2.0})
        assert node.bits == 2 and isinstance(node.bits, int)
