import json

import numpy as np
import pytest

import blockenc as be
from blockenc import graphs
from blockenc.cli import demo_convolution, demo_increment, demo_laplace, main


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


class TestVerify:
    def test_pass(self, tmp_path, capsys):
        g = write_graph(tmp_path, be.Increment(2))
        rc, out, _ = run(capsys, "verify", g)
        assert rc == 0 and json.loads(out)["pass"] is True

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
            be.SingularValueTransform(be.Increment(2),
                                      be.TargetPolynomial.chebyshev([0, 0.4, 0, 0.3])),
            be.Pseudoinverse(be.Identity(dim=2), 1.0, 0.05),
        ]
        for node in nodes:
            doc = graphs.document(node)
            back = graphs.parse_document(json.loads(json.dumps(doc)))
            assert np.max(np.abs(back.toarray() - node.toarray())) <= 1e-12, doc["root"]["op"]
            assert back.resources() == node.resources(), doc["root"]["op"]

    def test_slice_op_parses(self):
        doc = {"version": 1,
               "root": {"op": "slice", "args": [{"op": "increment", "bits": 2}],
                        "params": {"rows": [None, 3], "cols": [1, None]}}}
        node = graphs.parse_document(doc)
        want = be.Increment(2).toarray()[:3, 1:]
        assert np.array_equal(node.toarray(), want)

    def test_unknown_op(self):
        with pytest.raises(graphs.GraphFormatError):
            graphs.parse_node({"op": "teleport"})
