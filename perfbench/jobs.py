"""The jobs a benchmark worker runs, and the correctness check of each item.

A job is a JSON-able dict with a "kind" (laplace, estimate, corpus, sweep)
and its sizes.  `make_inputs` turns a job and a seed into the job's inputs
(that is set-up); `run` executes the job and returns one record per item.
Every call into blockenc sits in a span named after the layer it exercises:

    construct      operator algebra (composites, primitives, nodes)
    qsvt.target    Pseudoinverse.__init__, the polynomial fit
    qsvt.solve     first .phase_residual access: expansion plus solve_phases
    graphs         document / parse_document round trip
    lower          first Node.circuit()
    arith          toarray / compute
    sim            simulate / simulate_norm / verify, with toarray cached
    resources      Node.resources(), with the circuit cached

A record holds the item id, whether every check passed, the problems found,
the item's wall time, and the counts the layers did (gates lowered, columns
computed, gates applied, ...).  An exception or a warning inside an item is
a failed check of that item, never a crash of the job.
"""
from __future__ import annotations

import time
import warnings

import numpy as np

import blockenc as be
from blockenc import graphs
from corpus import build_corpus

import sweep

SOLVER_TOL = 1e-8
SIM_AGREEMENT = 1e-6  # relative, simulate_norm against the compute path
ORACLE_TOL = 1e-9     # corpus toarray against the independent numpy oracle
CORPUS_POOL = 3000    # a corpus job draws its corpora from build_corpus(0 .. 2999)
# The (corpus seed, index) of the pool's nodes whose circuits needed 11 to 13
# total qubits when this benchmark was written, 7 of about 54,000 nodes.  One
# of them adds up to 5 MB to a job's peak memory, so whether a run drew one
# would decide peak_rss_mb.  The list is fixed here: the program under test
# never decides which nodes are in the workload.
CORPUS_TAIL = frozenset({(448, 15), (519, 17), (861, 16), (929, 13),
                         (1662, 17), (1992, 13), (2757, 17)})


def make_inputs(job: dict, seed: int):
    rng = np.random.default_rng(seed)
    kind = job["kind"]
    if kind == "laplace":
        return {n: rng.uniform(0.1, 1.0, size=(n, 2)) for n in job["ns"]}
    if kind == "estimate":
        return {job["n"]: rng.uniform(0.1, 1.0, size=(job["n"], 2))}
    if kind == "corpus":
        return sorted(int(s) for s in rng.choice(CORPUS_POOL, job["seeds"], replace=False))
    if kind == "sweep":
        return None
    raise ValueError(f"unknown job kind {kind!r}")


def run(job: dict, inputs, tracer) -> list[dict]:
    records: list[dict] = []
    kind = job["kind"]
    if kind == "laplace":
        for n, vectors in inputs.items():
            run_item(f"N{n}", tracer, records,
                     lambda rec: laplace_item(n, vectors, job["tolerance"], tracer, rec))
    elif kind == "estimate":
        for n, vectors in inputs.items():
            run_item(f"N{n}", tracer, records,
                     lambda rec: estimate_item(n, vectors, job["tolerance"], tracer, rec))
    elif kind == "corpus":
        for s in inputs:
            with tracer.span("construct", f"c{s}"):
                pool, made = build_corpus(s)
            if job.get("corrupt_oracle"):  # the self-check's proof that failures count
                pool[0] = (pool[0][0], pool[0][1] + 1e-3)
            corpus_items(s, pool + made, tracer, records)
    else:
        for kind in sweep.KINDS:
            for n in job["qubits"]:
                run_item(f"{kind}.q{n}", tracer, records,
                         lambda rec: sweep.measure(kind, n, rec))
    return records


def run_item(item: str, tracer, records: list, fn):
    """Run fn(rec) as one item; its returned problems, exceptions and
    warnings all mark the item failed."""
    rec = {"id": item}
    t0 = time.perf_counter()
    with tracer.span("item", item), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            problems = fn(rec)
        except Exception as exc:  # an item boundary: record it, keep the job going
            problems = [f"{type(exc).__name__}: {exc}"]
    rec["wall_s"] = time.perf_counter() - t0
    problems = problems + [f"{w.category.__name__}: {w.message}" for w in caught]
    rec["ok"] = not problems
    if problems:
        rec["problems"] = problems
    records.append(rec)


def _add(rec: dict, key: str, amount):
    rec[key] = rec.get(key, 0) + amount


def _simulated(rec: dict, circ, columns: int):
    _add(rec, "sim.gate_applications", len(circ.gates))
    _add(rec, "sim.amp_updates_computed", len(circ.gates) * (1 << circ.n_qubits) * columns)


# -- the Laplace system of the paper's headline example ----------------------

def laplace_oracle(n: int, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Dense A and b built with numpy alone, independent of blockenc."""
    m = 2 ** n - 1
    a = 2 ** n * (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    b = vectors[0]
    for v in vectors[1:]:
        b = np.kron(b, v)
    return a, b[:-1]


def _laplace_system(n, vectors, tolerance, tracer, rec):
    """Construct, fit, solve, lower and compute the solution node of A x = b."""
    item = rec["id"]
    with tracer.span("construct", item):
        ident = be.Identity(dim=2 ** n)
        shift = be.Increment(bits=n)
        a = 2 ** n * (2 * ident - shift.adjoint() - shift)[:-1, :-1]
        rhs = be.ConstantVector(vectors[0])
        for v in vectors[1:]:
            rhs = rhs & be.ConstantVector(v)
        rhs = rhs[:-1]
    with tracer.span("arith", item):
        a_dense = a.toarray()
    condition = float(np.linalg.cond(a_dense, 2))
    with tracer.span("qsvt.target", item):
        a_inv = be.Pseudoinverse(a, condition=condition, tolerance=tolerance)
    with tracer.span("qsvt.solve", item):
        residual = a_inv.phase_residual
    with tracer.span("construct", item):
        solution = a_inv @ rhs
    with tracer.span("lower", item):
        circ = solution.circuit()
    with tracer.span("arith", item, "solution.toarray"):
        x = solution.toarray()[:, 0]
    rec.update({"degree": a_inv.degree, "residual": residual,
                "gates": len(circ.gates), "qubits": circ.n_qubits,
                "arith.columns": a_dense.shape[1] + 1})
    problems = []
    if not residual <= SOLVER_TOL:
        problems.append(f"phase residual {residual:.3e} above {SOLVER_TOL:.0e}")
    return a_inv, solution, circ, x, problems


def laplace_item(n, vectors, tolerance, tracer, rec):
    """The demo end to end: the norm of the solution from the circuit path,
    checked against a numpy dense solve and against the compute path."""
    _, solution, circ, x, problems = _laplace_system(n, vectors, tolerance, tracer, rec)
    with tracer.span("sim", rec["id"]):
        norm_sim = solution.simulate_norm()
    _simulated(rec, circ, 1)
    a_np, b_np = laplace_oracle(n, vectors)
    want = float(np.linalg.norm(np.linalg.solve(a_np, b_np)))
    norm_compute = float(np.linalg.norm(x))
    agreement = abs(norm_sim - norm_compute) / norm_compute
    rec["verify_error"] = agreement
    if not abs(norm_sim - want) / want <= tolerance:
        problems.append(f"qoi relative error {abs(norm_sim - want) / want:.3e} "
                        f"above tolerance {tolerance}")
    if not agreement <= SIM_AGREEMENT:
        problems.append(f"simulate_norm and compute differ by {agreement:.3e} relative")
    return problems


def estimate_item(n, vectors, tolerance, tracer, rec):
    """The `be estimate` path: no simulation, a resource report with eta
    (from the cached toarray) and a JSON round trip of the graph."""
    item = rec["id"]
    a_inv, solution, circ, _, problems = _laplace_system(n, vectors, tolerance, tracer, rec)
    with tracer.span("resources", item):
        report = solution.resources()
    with tracer.span("graphs", item):
        doc = graphs.document(solution)
        again = graphs.document(graphs.parse_document(doc))
    with tracer.span("arith", item):
        inv_dense = a_inv.toarray()
    rec["arith.columns"] += inv_dense.shape[1]
    if report.info_efficiency is None or not 0 < report.info_efficiency <= 1 + 1e-12:
        problems.append(f"information efficiency {report.info_efficiency!r} outside (0, 1]")
    if again != doc:
        problems.append("graph JSON round trip changed the document")
    if sum(report.gate_counts.values()) != len(circ.gates):
        problems.append(f"resource gate counts sum to {sum(report.gate_counts.values())}, "
                        f"circuit has {len(circ.gates)} gates")
    pinv = np.linalg.pinv(laplace_oracle(n, vectors)[0])
    err = float(np.linalg.norm(inv_dense - pinv, 2) / np.linalg.norm(pinv, 2))
    if not err <= tolerance:
        problems.append(f"pseudoinverse relative error {err:.3e} above tolerance {tolerance}")
    return problems


# -- the random corpus -------------------------------------------------------

def corpus_items(seed: int, pairs, tracer, records: list):
    for i, (node, oracle) in enumerate(pairs):
        if (seed, i) not in CORPUS_TAIL:
            run_item(f"c{seed}.{i}", tracer, records,
                     lambda rec: corpus_node(node, oracle, tracer, rec))


def corpus_node(node, oracle, tracer, rec):
    """Both routes to the matrix of one corpus node, plus its cost report."""
    item = rec["id"]
    with tracer.span("lower", item):
        circ = node.circuit()
    with tracer.span("arith", item):
        dense = node.toarray()
    with tracer.span("sim", item):
        report = node.verify()
    with tracer.span("resources", item):
        node.resources()
    rec.update({"gates": len(circ.gates), "qubits": circ.n_qubits,
                "arith.columns": dense.shape[1], "verify_error": report.max_error})
    _simulated(rec, circ, dense.shape[1])
    problems = []
    if dense.shape != oracle.shape:
        problems.append(f"toarray shape {dense.shape} != oracle shape {oracle.shape}")
    elif not np.max(np.abs(dense - oracle)) <= ORACLE_TOL:
        problems.append(f"toarray differs from the oracle by {np.max(np.abs(dense - oracle)):.3e}")
    if not report.passed:
        problems.append(str(report))
    return problems
