"""JSON interchange for block-encoding graphs.

A graph document is {"version": 1, "root": <node>, "metadata": {...}}.
Node forms are either primitive ({"op": "increment", "bits": 2}) or composite
({"op": "matmul", "args": [...], "params": {...}}).  Dumping and re-parsing a
document reproduces the node (same dense matrix, same resource report).
"""
from __future__ import annotations

import numpy as np

from .composites import Add, Adjoint, BlockDiagonal, Product, Scale, Tensor, ZeroMatrix
from .nodes import Node
from .primitives import (
    ConstantIntegerAddition,
    ConstantVector,
    Identity,
    Increment,
    IntegerAddition,
    Permutation,
    Projection,
    QFT,
)
from .qsvt import Pseudoinverse, SingularValueTransform, TargetPolynomial
from .subspaces import Controlled, Subspace, ZeroQubit


class GraphFormatError(ValueError):
    """Malformed graph document."""


VERSION = 1


# -- subspaces ---------------------------------------------------------------

def subspace_to_json(s: Subspace):
    if not s.factors:
        return {"dim": 1}
    if all(isinstance(f, ZeroQubit) or (isinstance(f, Controlled)
           and not f.branch0.factors and not f.branch1.factors)
           for f in s.factors):
        chars = ["0" if isinstance(f, ZeroQubit) else "#" for f in s.factors]
        return {"pattern": "".join(reversed(chars))}
    top = s.factors[-1]
    rest = Subspace(s.factors[:-1])
    if isinstance(top, Controlled) and not rest.factors:
        return {"or": [subspace_to_json(top.branch0), subspace_to_json(top.branch1)]}
    top_space = Subspace((top,))
    if rest.factors:
        return {"and": [subspace_to_json(top_space), subspace_to_json(rest)]}
    return subspace_to_json(top_space)


def parse_subspace(obj) -> Subspace:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise GraphFormatError(f"subspace must be a one-key object, got {obj!r}")
    key, val = next(iter(obj.items()))
    if key == "pattern":
        return Subspace(val)
    if key == "dim":
        return Subspace.from_dim(int(val))
    if key == "or":
        lo, hi = (parse_subspace(v) for v in val)
        return lo | hi
    if key == "and":
        hi, lo = (parse_subspace(v) for v in val)
        return hi & lo
    raise GraphFormatError(f"unknown subspace form {key!r}")


# -- scalars and vectors ------------------------------------------------------

def _num_to_json(z: complex):
    z = complex(z)
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


def _num_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise GraphFormatError(f"not a number: {v!r}")


def vector_to_json(v) -> list:
    return [[float(np.real(z)), float(np.imag(z))] for z in np.asarray(v).ravel()]


def vector_from_json(obj) -> np.ndarray:
    return np.array([_num_from_json(v) for v in obj], dtype=complex)


# -- nodes ---------------------------------------------------------------------

def node_to_json(node: Node) -> dict:
    if isinstance(node, Identity):
        return {"op": "identity", "subspace": subspace_to_json(node.subspace_in)}
    if isinstance(node, Increment):
        return {"op": "increment", "bits": node.bits}
    if isinstance(node, ConstantIntegerAddition):
        return {"op": "constant_integer_addition", "bits": node.bits,
                "constant": node.constant}
    if isinstance(node, IntegerAddition):
        return {"op": "integer_addition", "source_bits": node.source_bits,
                "target_bits": node.target_bits}
    if isinstance(node, QFT):
        return {"op": "qft", "bits": node.bits}
    if isinstance(node, ConstantVector):
        return {"op": "constant_vector",
                "entries": [_num_to_json(z) for z in node.entries]}
    if isinstance(node, Permutation):
        out = {"op": "permutation", "table": list(node.table)}
        if node.subspace_in != Subspace.from_dim(len(node.table)):
            out["subspace"] = subspace_to_json(node.subspace_in)
        return out
    if isinstance(node, Projection):
        return {"op": "projection", "subspace": subspace_to_json(node.parent),
                "keep_out": node.keep_out, "keep_in": node.keep_in}
    if isinstance(node, ZeroMatrix):
        return {"op": "zero", "params": {"dim_out": node.dim_out, "dim_in": node.dim_in}}
    if isinstance(node, Adjoint):
        return {"op": "adjoint", "args": [node_to_json(node.a)]}
    if isinstance(node, Scale):
        return {"op": "scale", "args": [node_to_json(node.a)],
                "params": {"factor": _num_to_json(node.factor)}}
    if isinstance(node, Product):
        params = {}
        if node._forced:
            params["exact"] = True
        elif node._check and node.b.exact_forward:
            params["exact"] = False
        out = {"op": "matmul", "args": [node_to_json(node.a), node_to_json(node.b)]}
        if params:
            out["params"] = params
        return out
    if isinstance(node, Tensor):
        return {"op": "tensor", "args": [node_to_json(node.a), node_to_json(node.b)]}
    if isinstance(node, BlockDiagonal):
        return {"op": "blockdiag", "args": [node_to_json(node.a), node_to_json(node.b)]}
    if isinstance(node, Add):
        return {"op": "add", "args": [node_to_json(node.a), node_to_json(node.b)]}
    if isinstance(node, SingularValueTransform):
        return {"op": "qsvt", "args": [node_to_json(node.a)],
                "params": {"chebyshev": [float(c) for c in node.target.coefficients],
                           "parity": node.target.parity}}
    if isinstance(node, Pseudoinverse):
        return {"op": "pseudoinverse", "args": [node_to_json(node.a)],
                "params": {"condition": node.condition, "tolerance": node.tolerance,
                           "delta": node.delta}}
    raise GraphFormatError(f"node type {type(node).__name__} has no JSON form")


def parse_node(obj) -> Node:
    if not isinstance(obj, dict) or "op" not in obj:
        raise GraphFormatError(f"node must be an object with an 'op' field, got {obj!r}")
    op = obj["op"]
    params = obj.get("params", {})

    def arg(i):
        return parse_node(obj["args"][i])

    try:
        if op == "identity":
            if "subspace" in obj:
                return Identity(parse_subspace(obj["subspace"]))
            return Identity(dim=int(obj["dim"]))
        if op == "increment":
            return Increment(int(obj["bits"]))
        if op == "constant_integer_addition":
            return ConstantIntegerAddition(int(obj["bits"]), int(obj["constant"]))
        if op == "integer_addition":
            return IntegerAddition(int(obj["source_bits"]), int(obj["target_bits"]))
        if op == "qft":
            return QFT(int(obj["bits"]))
        if op == "constant_vector":
            return ConstantVector([_num_from_json(v) for v in obj["entries"]])
        if op == "permutation":
            table = obj["table"]
            sub = (parse_subspace(obj["subspace"]) if "subspace" in obj
                   else Subspace.from_dim(len(table)))
            return Permutation(table, sub)
        if op == "projection":
            return Projection(parse_subspace(obj["subspace"]),
                              int(obj["keep_out"]), int(obj["keep_in"]))
        if op == "zero":
            return ZeroMatrix(int(params["dim_out"]), int(params["dim_in"]))
        if op == "adjoint":
            return Adjoint(arg(0))
        if op == "scale":
            from .composites import scale as scale_fn
            return scale_fn(_num_from_json(params["factor"]), arg(0))
        if op == "matmul":
            return Product(arg(0), arg(1), exact=params.get("exact", "auto"))
        if op == "tensor":
            return Tensor(arg(0), arg(1))
        if op == "blockdiag":
            return BlockDiagonal(arg(0), arg(1))
        if op == "add":
            from .composites import add as add_fn
            return add_fn(arg(0), arg(1))
        if op == "sub":
            return arg(0) - arg(1)
        if op == "slice":
            node = arg(0)
            rows = params.get("rows")
            cols = params.get("cols")
            rs = slice(*rows) if rows else slice(None)
            cs = slice(*cols) if cols else slice(None)
            return node[rs, cs]
        if op == "qsvt":
            target = TargetPolynomial.chebyshev(params["chebyshev"],
                                                params.get("parity"))
            return SingularValueTransform(arg(0), target)
        if op == "pseudoinverse":
            return Pseudoinverse(arg(0), params["condition"], params["tolerance"],
                                 delta=params.get("delta"))
    except GraphFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad fields for op {op!r}: {exc}") from exc
    raise GraphFormatError(f"unknown op {op!r}")


def document(root: Node, metadata: dict | None = None) -> dict:
    return {"version": VERSION, "root": node_to_json(root), "metadata": metadata or {}}


def parse_document(doc: dict) -> Node:
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    if doc.get("version") != VERSION:
        raise GraphFormatError(f"unsupported graph version {doc.get('version')!r}")
    if "root" not in doc:
        raise GraphFormatError("graph document has no root")
    return parse_node(doc["root"])
