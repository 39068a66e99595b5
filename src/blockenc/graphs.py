"""JSON interchange for block-encoding graphs.

A graph document is {"version": 1, "root": <node>, "metadata": {...}}.
A node is {"op": <name>, <fields>..., "args": [<children>], "params": {...}}
in that key order, without `args` on leaves or an empty `params`.  `OPS` has
one row per op, which both the writer and the reader follow.  Dumping and
re-parsing a document reproduces the node (same dense matrix, same resource
report).
"""
from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

import numpy as np

from .composites import (Add, Adjoint, BlockDiagonal, Product, Scale, Tensor, ZeroMatrix,
                         add, scale)
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


def _real(v) -> float:
    """A finite JSON number: an int or float, not a boolean, NaN or infinity."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"not a finite real number: {v!r}")


def _num_from_json(v) -> complex:
    """A JSON number, or a [real, imag] pair of them."""
    if isinstance(v, list) and len(v) == 2:
        return complex(_real(v[0]), _real(v[1]))
    return complex(_real(v))


def vector_to_json(v) -> list:
    return [[float(np.real(z)), float(np.imag(z))] for z in np.asarray(v).ravel()]


def vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list):
        raise ValueError(f"a vector must be a JSON list, got {obj!r}")
    return np.array([_num_from_json(v) for v in obj], dtype=complex)


# -- nodes ---------------------------------------------------------------------

_REQUIRED = object()


def _int(v) -> int:
    """A JSON integer, or a float with an integral value."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"not an integer: {v!r}")


def _bool(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"not a boolean: {v!r}")
    return v


def _slice(v) -> slice:
    return slice(*v) if v else slice(None)


class Field(NamedTuple):
    """The value under `key` (in `params` if `param`): `read` maps it to a
    constructor argument, `write` maps a node to it (default: the attribute
    `key`; None leaves the key out).  A field with a `default` may be absent."""

    key: str
    read: Callable = lambda v: v
    write: Callable | None = None
    param: bool = False
    default: object = _REQUIRED

    def value(self, node: Node):
        return self.write(node) if self.write else getattr(node, self.key)

    def parse(self, obj: dict, params: dict):
        src = params if self.param else obj
        if self.key in src:
            return self.read(src[self.key])
        if self.default is _REQUIRED:
            raise KeyError(self.key)
        return self.default


class Op(NamedTuple):
    """The class an op writes (None: read only), its number of args, its fields,
    and `build` (default: the class), called with the args, then the fields."""

    cls: type | None
    args: int = 0
    fields: tuple[Field, ...] = ()
    build: Callable | None = None


def _permutation(table, subspace):
    return Permutation(table, Subspace.from_dim(len(table)) if subspace is None else subspace)


def _permutation_subspace(node):
    if node.subspace_in == Subspace.from_dim(len(node.table)):
        return None
    return subspace_to_json(node.subspace_in)


def _qsvt(a, coefficients, parity):
    return SingularValueTransform(a, TargetPolynomial.chebyshev(coefficients, parity))


def _product_exact(node):
    if node._forced:
        return True
    if node._check and node.b.exact_forward:
        return False
    return None


OPS: dict[str, Op] = {
    "identity": Op(Identity, fields=(
        Field("subspace", parse_subspace, lambda n: subspace_to_json(n.subspace_in),
              default=None),
        Field("dim", _int, lambda n: None, default=None))),  # read only
    "increment": Op(Increment, fields=(Field("bits", _int),)),
    "constant_integer_addition": Op(ConstantIntegerAddition, fields=(
        Field("bits", _int), Field("constant", _int))),
    "integer_addition": Op(IntegerAddition, fields=(
        Field("source_bits", _int), Field("target_bits", _int))),
    "qft": Op(QFT, fields=(Field("bits", _int),)),
    "constant_vector": Op(ConstantVector, fields=(
        Field("entries", lambda v: [_num_from_json(z) for z in v],
              lambda n: [_num_to_json(z) for z in n.entries]),)),
    "permutation": Op(Permutation, build=_permutation, fields=(
        Field("table", lambda v: [_int(t) for t in v], lambda n: list(n.table)),
        Field("subspace", parse_subspace, _permutation_subspace, default=None))),
    "projection": Op(Projection, fields=(
        Field("subspace", parse_subspace, lambda n: subspace_to_json(n.parent)),
        Field("keep_out", _int), Field("keep_in", _int))),
    "zero": Op(ZeroMatrix, fields=(
        Field("dim_out", _int, param=True), Field("dim_in", _int, param=True))),
    "adjoint": Op(Adjoint, args=1),
    "scale": Op(Scale, args=1, build=lambda a, factor: scale(factor, a), fields=(
        Field("factor", _num_from_json, lambda n: _num_to_json(n.factor), param=True),)),
    "matmul": Op(Product, args=2, fields=(
        Field("exact", _bool, _product_exact, param=True, default="auto"),)),
    "tensor": Op(Tensor, args=2),
    "blockdiag": Op(BlockDiagonal, args=2),
    "add": Op(Add, args=2, build=add),
    "sub": Op(None, args=2, build=operator.sub),
    "slice": Op(None, args=1, build=lambda a, rows, cols: a[rows, cols], fields=(
        Field("rows", _slice, param=True, default=slice(None)),
        Field("cols", _slice, param=True, default=slice(None)))),
    "qsvt": Op(SingularValueTransform, args=1, build=_qsvt, fields=(
        Field("chebyshev", lambda v: [_real(c) for c in v],
              lambda n: [float(c) for c in n.target.coefficients], param=True),
        Field("parity", write=lambda n: n.target.parity, param=True, default=None))),
    "pseudoinverse": Op(Pseudoinverse, args=1, fields=(
        Field("condition", _real, param=True), Field("tolerance", _real, param=True),
        Field("delta", _real, param=True, default=None))),
}

_OP_OF_CLASS = {row.cls: op for op, row in OPS.items() if row.cls is not None}


def node_to_json(node: Node) -> dict:
    op = next((_OP_OF_CLASS[c] for c in type(node).__mro__ if c in _OP_OF_CLASS), None)
    if op is None:
        raise GraphFormatError(f"node type {type(node).__name__} has no JSON form")
    out, params = {"op": op}, {}
    for f in OPS[op].fields:
        value = f.value(node)
        if value is not None:
            (params if f.param else out)[f.key] = value
    if node.children:
        out["args"] = [node_to_json(c) for c in node.children]
    if params:
        out["params"] = params
    return out


def parse_node(obj) -> Node:
    if not isinstance(obj, dict) or not isinstance(obj.get("op"), str):
        raise GraphFormatError(f"node must be an object with a string 'op' field, got {obj!r}")
    op = obj["op"]
    row = OPS.get(op)
    if row is None:
        raise GraphFormatError(f"unknown op {op!r}")
    try:
        args, params = obj.get("args", []), obj.get("params", {})
        if not isinstance(args, list) or len(args) != row.args:
            raise ValueError(f"expected a list of {row.args} args, got {args!r}")
        if not isinstance(params, dict):
            raise ValueError(f"params must be an object, got {params!r}")
        values = [f.parse(obj, params) for f in row.fields]
        return (row.build or row.cls)(*(parse_node(a) for a in args), *values)
    except GraphFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad fields for op {op!r}: {exc}") from exc


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
