"""Declarative layer graphs: build once, then execute, count or serialize.

A graph is an ordered DAG of primitive nodes: first ``input``, then nodes
of the kinds in ``OPS`` (conv / dwconv / tconv / upsample2x / add / concat /
relu / sigmoid).  ``OPS`` is the one place a kind's meaning lives: input
arity, output-shape rule and its checks, the ``w`` shape with its init
fan-in, MACs, and the run rule.  Run rules look their kernels up as module
globals at call time, so a caller may wrap them (e.g. to time each call).

Composite blocks are emitted as groups of primitive nodes sharing a
``block`` id and ``block_kind`` label, which is what the structure census
and audits key on.  ``stage`` and ``role`` labels locate a node in the
backbone (stem / moduleN / ...).

Weights are ``{node id: {name: array}}``: a weighted node owns ``w``, and
``b`` exactly when ``node.bias`` is set.  ``load_weights`` and ``forward``
run ``check_weights``, which lists every missing, extra or mis-shaped tensor.

``plan`` is the one node walk of a graph at an input size, cached until the
next ``add`` or ``tap``; ``forward``, ``shapes`` and ``cost_report`` read it.
Graphs are immutable once built (nothing enforces this; builders simply never
mutate) and forward() is a pure function, so one graph may serve many threads.
"""

import functools
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import skt
from .kernels import (ConvSpec, _fit, _from_fields, _integer, _is_integer, _one_of, _require, as_tensor,
                      conv2d, depthwise_conv2d, relu, sigmoid, nearest_upsample2x, transpose_conv2d)

_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")
_LABELS = ("stage", "role", "block", "block_kind", "activation")
_ACTIVATIONS = ("", "relu", "sigmoid")  # fused post-op nonlinearities, run as their OPS kinds


@dataclass
class Node:
    id: str
    kind: str
    inputs: list = field(default_factory=list)
    stage: str = ""
    role: str = ""
    block: str = ""
    block_kind: str = ""
    in_channels: int = 0
    out_channels: int = 0
    kernel: tuple = (1, 1)
    stride: int = 1
    padding: int = 0
    bias: bool = False
    activation: str = ""  # optional fused post-conv nonlinearity

    def is_weighted(self):
        op = OPS.get(self.kind)
        return op is not None and op.weight is not None

    def to_dict(self):
        d = {"id": self.id, "kind": self.kind, "inputs": list(self.inputs)}
        for key in _LABELS:
            if getattr(self, key):
                d[key] = getattr(self, key)
        if self.is_weighted():
            d.update(in_channels=self.in_channels, out_channels=self.out_channels,
                     kernel=list(self.kernel), stride=self.stride, padding=self.padding,
                     bias=self.bias)
        return d

    @classmethod
    def from_dict(cls, d):
        with _from_fields(f"node {d.get('id')!r}"):
            node = cls(id=d["id"], kind=d["kind"], inputs=list(d.get("inputs", [])))
            for key in _LABELS:
                setattr(node, key, d.get(key, ""))
            if node.is_weighted():
                node.in_channels = int(d["in_channels"])
                node.out_channels = int(d["out_channels"])
                node.kernel = tuple(d["kernel"])
                node.stride = int(d["stride"])
                node.padding = int(d["padding"])
                node.bias = bool(d.get("bias", False))
        return node


# ---- the op table --------------------------------------------------------------


class Op(NamedTuple):
    """What a node kind means; every rule takes the node first."""

    shape: Callable           # (node, input shapes) -> output shape; raises ValueError
    run: Callable             # (node, input arrays, {name: tensor}) -> output array
    arity: tuple = (1, 1)     # (fewest, most) inputs; most None means no limit
    weight: Callable = None   # node -> (``w`` shape, init fan-in); None: owns no tensors
    macs: Callable = None     # (node, input shapes, output shape) -> MACs; None: 0 MACs


def _spec(node, groups=1):
    return ConvSpec(node.in_channels, node.out_channels, node.kernel,
                    stride=node.stride, padding=node.padding, groups=groups)


def _conv_shape(node, ins, groups=1, transpose=False):
    if node.in_channels < 1 or node.out_channels < 1:
        raise ValueError(f"in_channels and out_channels must be >= 1, "
                         f"got {node.in_channels} and {node.out_channels}")
    _spec(node, groups)  # checks kernel, stride, padding and groups
    n, c, h, w = ins[0]
    _require(c == node.in_channels, "input channels", f"equal in_channels {node.in_channels}", c)
    return (n, node.out_channels, *_fit(h, w, node.kernel, node.stride, node.padding, transpose))


def _dwconv_shape(node, ins):
    if node.out_channels != node.in_channels:
        raise ValueError(f"dwconv out_channels {node.out_channels} != in_channels {node.in_channels}")
    _require(not node.bias, "dwconv", "take no bias", node.bias)
    return _conv_shape(node, ins, groups=node.in_channels)


def _add_shape(node, ins):
    if len(set(ins)) != 1:
        raise ValueError(f"add inputs disagree: {ins}")
    return ins[0]


def _concat_shape(node, ins):
    n, _, h, w = ins[0]
    if any(s[0] != n or s[2] != h or s[3] != w for s in ins):
        raise ValueError(f"concat spatial dims disagree: {ins}")
    return (n, sum(s[1] for s in ins), h, w)


OPS = {
    "conv": Op(_conv_shape,
               lambda node, ins, p: conv2d(ins[0], p["w"], p.get("b"), _spec(node)),
               weight=lambda node: ((node.out_channels, node.in_channels, *node.kernel),
                                    node.in_channels * math.prod(node.kernel)),
               macs=lambda node, ins, out: math.prod(out) * node.in_channels * math.prod(node.kernel)),
    "dwconv": Op(_dwconv_shape,
                 lambda node, ins, p: depthwise_conv2d(ins[0], p["w"], _spec(node, node.in_channels)),
                 weight=lambda node: ((node.in_channels, 1, *node.kernel), math.prod(node.kernel)),
                 macs=lambda node, ins, out: math.prod(out) * math.prod(node.kernel)),
    "tconv": Op(lambda node, ins: _conv_shape(node, ins, transpose=True),
                lambda node, ins, p: transpose_conv2d(ins[0], p["w"], p.get("b"),
                                                      stride=node.stride, padding=node.padding),
                weight=lambda node: ((node.in_channels, node.out_channels, *node.kernel),
                                     node.in_channels * math.prod(node.kernel) // node.stride ** 2),
                macs=lambda node, ins, out: math.prod(ins[0]) * node.out_channels * math.prod(node.kernel)),
    "upsample2x": Op(lambda node, ins: (*ins[0][:2], 2 * ins[0][2], 2 * ins[0][3]),
                     lambda node, ins, p: nearest_upsample2x(ins[0])),
    "add": Op(_add_shape, lambda node, ins, p: functools.reduce(np.add, ins), arity=(2, None)),
    "concat": Op(_concat_shape, lambda node, ins, p: np.concatenate(ins, axis=1), arity=(2, None)),
    "relu": Op(lambda node, ins: ins[0], lambda node, ins, p: relu(ins[0])),
    "sigmoid": Op(lambda node, ins: ins[0], lambda node, ins, p: sigmoid(ins[0])),
}


def param_shapes(node):
    """{tensor name: shape} of the weights a node owns."""
    if not node.is_weighted():
        return {}
    shapes = {"w": OPS[node.kind].weight(node)[0]}
    if node.bias:
        shapes["b"] = (node.out_channels,)
    return shapes


def _input_dims(name, dims):
    """``dims`` as an (n, c, h, w) tuple, checked to be four integers >= 1."""
    _require(isinstance(dims, (tuple, list)) and len(dims) == 4
             and all(_is_integer(d, 1) for d in dims), name, "be four integers >= 1", dims)
    return tuple(int(d) for d in dims)


class ArchGraph:
    """Ordered node list + named output taps + (optional) attached weights."""

    def __init__(self, input_dims):
        self.input_dims = _input_dims("input_dims", input_dims)
        self.nodes = [Node(id="input", kind="input", stage="input")]
        self._index = {"input": self.nodes[0]}
        self.taps = {}
        self.params = {}
        self._plans = {}  # input dims -> plan(); add and tap drop it

    def add(self, node):
        """Append a node; the only gate for its id, kind, inputs and activation."""
        if not isinstance(node.id, str) or not _ID_RE.match(node.id):
            raise ValueError(f"bad node id {node.id!r}")
        if node.id in self._index:
            raise ValueError(f"duplicate node id {node.id!r}")
        try:
            _one_of("kind", node.kind, OPS)
            fewest, most = OPS[node.kind].arity
            if len(node.inputs) < fewest or (most is not None and len(node.inputs) > most):
                raise ValueError(f"{node.kind} takes {fewest}{'' if most else ' or more'} "
                                 f"inputs, got {len(node.inputs)}")
            for inp in node.inputs:
                if inp not in self._index:
                    raise ValueError(f"consumes unknown input {inp!r}")
            _one_of("activation", node.activation, _ACTIVATIONS)
        except ValueError as exc:
            raise ValueError(f"node {node.id!r}: {exc}") from None
        self._index[node.id] = node
        self.nodes.append(node)
        self._plans = {}
        return node.id

    def node(self, node_id):
        return self._index[node_id]

    def tap(self, name, node_id):
        _require(node_id in self._index, f"tap {name!r}", "point at a known node", node_id)
        self.taps[name] = node_id
        self._plans = {}

    def shapes(self, input_dims=None):
        """{node id: (n, c, h, w)} from ``plan``; ``input_dims`` overrides the declared size."""
        return {step.node.id: step.shape for step in plan(self, input_dims)}

    def check_weights(self, params):
        """Raise one ValueError listing every missing, extra or mis-shaped tensor."""
        problems = [f"unknown node {node_id!r}" for node_id in params if node_id not in self._index]
        for node in self.nodes:
            want, got = param_shapes(node), params.get(node.id, {})
            for name in sorted(want.keys() | got.keys()):
                if name not in got:
                    problems.append(f"node {node.id!r}: missing {name!r} shaped {want[name]}")
                elif name not in want:
                    problems.append(f"node {node.id!r}: extra {name!r}")
                elif np.shape(got[name]) != want[name]:
                    problems.append(f"node {node.id!r}: {name!r} shaped "
                                    f"{np.shape(got[name])}, expected {want[name]}")
        if problems:
            raise ValueError("weights do not match the graph: " + "; ".join(problems))

    # ---- serialization -----------------------------------------------------

    def to_json(self):
        return json.dumps({
            "input_dims": list(self.input_dims),
            "nodes": [n.to_dict() for n in self.nodes],
            "taps": dict(self.taps),
        }, indent=1)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        _require(isinstance(doc, dict), "graph JSON", "be an object", type(doc).__name__)
        missing = [key for key in ("input_dims", "nodes") if key not in doc]
        if missing:
            raise ValueError(f"graph JSON is missing {missing}")
        dims, taps = doc["input_dims"], doc.get("taps", {})
        _input_dims("graph JSON input_dims", dims)
        _require(isinstance(doc["nodes"], list), "graph JSON nodes", "be a list", doc["nodes"])
        _require(isinstance(taps, dict), "graph JSON taps", "be an object", taps)
        graph = cls(dims)
        for i, nd in enumerate(doc["nodes"]):
            _require(isinstance(nd, dict), f"graph JSON node {i}", "be an object", nd)
        first = Node.from_dict(doc["nodes"][0]) if doc["nodes"] else None
        if first is None or (first.id, first.kind, first.inputs) != ("input", "input", []):
            raise ValueError("graph JSON must start with the node {'id': 'input', 'kind': 'input'}")
        for nd in doc["nodes"][1:]:
            graph.add(Node.from_dict(nd))
        for name, node_id in taps.items():
            graph.tap(name, node_id)
        graph.shapes()
        return graph

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_json(f.read())

    def save_weights(self, directory):
        os.makedirs(directory, exist_ok=True)
        for node_id, tensors in self.params.items():
            for name, arr in tensors.items():
                skt.write_tensor(os.path.join(directory, f"{node_id}.{name}.skt"), arr)

    def load_weights(self, directory):
        params = {}
        for fname in sorted(os.listdir(directory)):
            if not fname.endswith(".skt"):
                continue
            stem = fname[:-4]
            node_id, _, pname = stem.rpartition(".")
            params.setdefault(node_id, {})[pname] = skt.read_tensor(os.path.join(directory, fname))
        self.check_weights(params)
        self.params = params
        return params


# ---- weights ----------------------------------------------------------------


_DRAW_CHUNK = 1 << 16  # float64 values drawn per in-place fill


def init_weights(graph, seed=0, zeros=False):
    """Materialize weight arrays for every weighted node (attached to the graph).

    Random weights are fan-in scaled normals from a seeded generator; biases
    start at zero.  These exist for shape-true execution and testing, not for
    detection quality.  ``seed`` must be an integer >= 0.

    Each tensor is allocated once as float32 and filled ``_DRAW_CHUNK``
    values at a time through one float64 scratch buffer:
    ``standard_normal(out=)``, then ``* scale`` and ``+ 0.0``, then a cast
    into the tensor.  That is the arithmetic ``Generator.normal(0.0, scale)``
    does per value (``loc + scale * z``; adding +0.0 turns a -0.0 product
    into +0.0), on the same stream in the same node order, so every weight
    is bit-identical to ``normal(0.0, scale, shape).astype(np.float32)``
    without that call's float64 copy of the whole tensor.
    """
    _integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    scratch = np.empty(_DRAW_CHUNK)
    params = {}
    for node in graph.nodes:
        if not node.is_weighted():
            continue
        shape, fan_in = OPS[node.kind].weight(node)
        if zeros:
            w = np.zeros(shape, np.float32)
        else:
            w = np.empty(shape, np.float32)
            scale = 1.0 / np.sqrt(max(1, fan_in))
            flat = w.reshape(-1)
            for start in range(0, flat.size, _DRAW_CHUNK):
                chunk = scratch[:flat.size - start]
                rng.standard_normal(out=chunk)
                chunk *= scale
                chunk += 0.0
                flat[start:start + chunk.size] = chunk
        entry = {"w": w}
        if node.bias:
            entry["b"] = np.zeros(node.out_channels, np.float32)
        params[node.id] = entry
    graph.params = params
    return params


# ---- execution ---------------------------------------------------------------


Step = NamedTuple("Step", [("node", Node), ("shape", tuple), ("macs", int), ("frees", tuple)])


def plan(graph, input_dims=None):
    """One ``Step`` per node, input first: its output shape, its ``OPS`` MACs (0
    without a rule) and the ids it is the last reader of.  Taps, and values
    nothing reads, are never freed.  A failing shape rule raises a ValueError
    naming the node and caches nothing."""
    dims = graph.input_dims if input_dims is None else _input_dims("input_dims", input_dims)
    steps = graph._plans.get(dims)
    if steps is None:
        shapes, macs = {"input": dims}, {"input": 0}
        for node in graph.nodes[1:]:
            op, ins = OPS[node.kind], [shapes[i] for i in node.inputs]
            try:
                shapes[node.id] = op.shape(node, ins)
            except ValueError as exc:
                raise ValueError(f"node {node.id!r}: {exc}") from None
            macs[node.id] = op.macs(node, ins, shapes[node.id]) if op.macs else 0
        read, frees = set(graph.taps.values()), {}
        for node in reversed(graph.nodes):
            frees[node.id] = tuple(i for i in dict.fromkeys(node.inputs) if i not in read)
            read.update(node.inputs)
        steps = graph._plans[dims] = tuple(Step(n, shapes[n.id], macs[n.id], frees[n.id])
                                           for n in graph.nodes)
    return steps


def forward(graph, x, params=None):
    """Evaluate the graph on one input tensor; returns {tap name: tensor}.

    Runs the cached ``plan`` of the input's own size: any size the shape rules
    accept, not only ``input_dims``; a size they refuse raises ``plan``'s ValueError
    naming the node.  Identical inputs and weights give bitwise identical taps.
    """
    params = params if params is not None else graph.params
    x = as_tensor(x, "input")
    steps = plan(graph, x.shape)
    graph.check_weights(params)
    values = {"input": x}
    del x  # held by values alone, so it too is dropped after its last reader
    for node, _, _, frees in steps[1:]:
        try:
            y = OPS[node.kind].run(node, [values[i] for i in node.inputs], params.get(node.id, {}))
        except ValueError as exc:
            raise ValueError(f"node {node.id!r}: {exc}") from exc
        if node.activation:
            y = OPS[node.activation].run(node, [y], {})
        values[node.id] = y
        for i in frees:
            del values[i]
    return {name: values[nid] for name, nid in graph.taps.items()}
