"""Declarative layer graphs: build once, then execute, count or serialize.

A graph is an ordered DAG of primitive nodes (conv / dwconv / tconv /
upsample2x / add / concat / relu / sigmoid).  Composite blocks are emitted
as groups of primitive nodes sharing a ``block`` id and ``block_kind``
label, which is what the structure census and audits key on.  ``stage``
and ``role`` labels locate a node in the backbone (stem / moduleN / ...).

Graphs are immutable once built (nothing enforces this; builders simply
never mutate) and forward() is a pure function, so one graph may serve
many threads.
"""

import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import skt
from .kernels import (ConvSpec, conv2d, conv_output_hw, depthwise_conv2d,
                      relu, sigmoid, nearest_upsample2x, transpose_conv2d)

NODE_KINDS = ("input", "conv", "dwconv", "tconv", "upsample2x", "add", "concat", "relu", "sigmoid")
_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


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
        return self.kind in ("conv", "dwconv", "tconv")

    def to_dict(self):
        d = {"id": self.id, "kind": self.kind, "inputs": list(self.inputs)}
        for key in ("stage", "role", "block", "block_kind", "activation"):
            if getattr(self, key):
                d[key] = getattr(self, key)
        if self.is_weighted():
            d.update(in_channels=self.in_channels, out_channels=self.out_channels,
                     kernel=list(self.kernel), stride=self.stride, padding=self.padding,
                     bias=self.bias)
        return d

    @classmethod
    def from_dict(cls, d):
        node = cls(id=d["id"], kind=d["kind"], inputs=list(d.get("inputs", [])))
        for key in ("stage", "role", "block", "block_kind", "activation"):
            setattr(node, key, d.get(key, ""))
        if node.is_weighted():
            node.in_channels = int(d["in_channels"])
            node.out_channels = int(d["out_channels"])
            node.kernel = tuple(d["kernel"])
            node.stride = int(d["stride"])
            node.padding = int(d["padding"])
            node.bias = bool(d.get("bias", False))
        return node


class ArchGraph:
    """Ordered node list + named output taps + (optional) attached weights."""

    def __init__(self, input_dims):
        n, c, h, w = input_dims
        self.input_dims = (int(n), int(c), int(h), int(w))
        self.nodes = []
        self._index = {}
        self.taps = {}
        self.params = {}
        self.add(Node(id="input", kind="input", stage="input"))

    def add(self, node):
        if node.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {node.kind!r}")
        if not _ID_RE.match(node.id):
            raise ValueError(f"bad node id {node.id!r}")
        if node.id in self._index:
            raise ValueError(f"duplicate node id {node.id!r}")
        for inp in node.inputs:
            if inp not in self._index:
                raise ValueError(f"node {node.id!r} consumes unknown input {inp!r}")
        self._index[node.id] = node
        self.nodes.append(node)
        return node.id

    def node(self, node_id):
        return self._index[node_id]

    def tap(self, name, node_id):
        if node_id not in self._index:
            raise ValueError(f"tap {name!r} points at unknown node {node_id!r}")
        self.taps[name] = node_id

    # ---- shape propagation -------------------------------------------------

    def shapes(self):
        """Propagate (n, c, h, w) through every node; raises on any mismatch."""
        out = {}
        for node in self.nodes:
            ins = [out[i] for i in node.inputs]
            if node.kind == "input":
                shape = self.input_dims
            elif node.kind in ("conv", "dwconv"):
                n, c, h, w = ins[0]
                if c != node.in_channels:
                    raise ValueError(f"node {node.id!r}: input has {c} channels, expected {node.in_channels}")
                oh, ow = conv_output_hw(h, w, node.kernel, node.stride, node.padding)
                if oh < 1 or ow < 1:
                    raise ValueError(f"node {node.id!r}: kernel does not fit {h}x{w}")
                shape = (n, node.out_channels, oh, ow)
            elif node.kind == "tconv":
                n, c, h, w = ins[0]
                if c != node.in_channels:
                    raise ValueError(f"node {node.id!r}: input has {c} channels, expected {node.in_channels}")
                kh, kw = node.kernel
                oh = (h - 1) * node.stride - 2 * node.padding + kh
                ow = (w - 1) * node.stride - 2 * node.padding + kw
                shape = (n, node.out_channels, oh, ow)
            elif node.kind == "upsample2x":
                n, c, h, w = ins[0]
                shape = (n, c, 2 * h, 2 * w)
            elif node.kind == "add":
                if len(set(ins)) != 1:
                    raise ValueError(f"node {node.id!r}: add inputs disagree: {ins}")
                shape = ins[0]
            elif node.kind == "concat":
                n, _, h, w = ins[0]
                if any(s[0] != n or s[2] != h or s[3] != w for s in ins):
                    raise ValueError(f"node {node.id!r}: concat spatial dims disagree: {ins}")
                shape = (n, sum(s[1] for s in ins), h, w)
            else:  # relu / sigmoid
                shape = ins[0]
            out[node.id] = shape
        return out

    def validate(self):
        shapes = self.shapes()
        for name, node_id in self.taps.items():
            if node_id not in shapes:
                raise ValueError(f"tap {name!r} points at unknown node {node_id!r}")
        return shapes

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
        graph = cls.__new__(cls)
        graph.input_dims = tuple(int(v) for v in doc["input_dims"])
        graph.nodes = []
        graph._index = {}
        graph.taps = {}
        graph.params = {}
        for nd in doc["nodes"]:
            node = Node.from_dict(nd)
            if node.id in graph._index:
                raise ValueError(f"duplicate node id {node.id!r}")
            for inp in node.inputs:
                if inp not in graph._index:
                    raise ValueError(f"node {node.id!r} consumes unknown input {inp!r}")
            graph._index[node.id] = node
            graph.nodes.append(node)
        for name, node_id in doc.get("taps", {}).items():
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
            if node_id not in self._index:
                raise ValueError(f"weight file {fname!r} names unknown node {node_id!r}")
            params.setdefault(node_id, {})[pname] = skt.read_tensor(os.path.join(directory, fname))
        self.params = params
        return params


# ---- weights ----------------------------------------------------------------


def init_weights(graph, seed=0, zeros=False):
    """Materialize weight arrays for every weighted node (attached to the graph).

    Random weights are fan-in scaled normals from a seeded generator; biases
    start at zero.  These exist for shape-true execution and testing, not for
    detection quality.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for node in graph.nodes:
        if not node.is_weighted():
            continue
        kh, kw = node.kernel
        if node.kind == "conv":
            fan_in = node.in_channels * kh * kw
            shape = (node.out_channels, node.in_channels, kh, kw)
        elif node.kind == "dwconv":
            fan_in = kh * kw
            shape = (node.in_channels, 1, kh, kw)
        else:  # tconv
            fan_in = node.in_channels * kh * kw // (node.stride * node.stride)
            shape = (node.in_channels, node.out_channels, kh, kw)
        if zeros:
            w = np.zeros(shape, np.float32)
        else:
            w = rng.normal(0.0, 1.0 / np.sqrt(max(1, fan_in)), size=shape).astype(np.float32)
        entry = {"w": w}
        if node.bias:
            entry["b"] = np.zeros(node.out_channels, np.float32)
        params[node.id] = entry
    graph.params = params
    return params


# ---- execution ---------------------------------------------------------------


def _run_node(node, ins, params):
    if node.kind == "conv":
        spec = ConvSpec(node.in_channels, node.out_channels, node.kernel,
                        stride=node.stride, padding=node.padding)
        y = conv2d(ins[0], params["w"], params.get("b"), spec)
    elif node.kind == "dwconv":
        spec = ConvSpec(node.in_channels, node.out_channels, node.kernel,
                        stride=node.stride, padding=node.padding,
                        groups=node.in_channels)
        y = depthwise_conv2d(ins[0], params["w"], spec)
    elif node.kind == "tconv":
        y = transpose_conv2d(ins[0], params["w"], params.get("b"),
                             stride=node.stride, padding=node.padding)
    elif node.kind == "upsample2x":
        y = nearest_upsample2x(ins[0])
    elif node.kind == "add":
        y = ins[0].copy()
        for extra in ins[1:]:
            y += extra
    elif node.kind == "concat":
        y = np.concatenate(ins, axis=1)
    elif node.kind == "relu":
        y = relu(ins[0])
    else:  # sigmoid
        y = sigmoid(ins[0])
    if node.activation:
        y = relu(y) if node.activation == "relu" else sigmoid(y)
    return y


def forward(graph, x, params=None):
    """Evaluate the graph on one input tensor; returns {tap name: tensor}.

    Evaluation order is the (topological) node order, so repeated calls with
    identical inputs and weights are bitwise identical.
    """
    params = params if params is not None else graph.params
    x = np.asarray(x, dtype=np.float32)
    if tuple(x.shape) != graph.input_dims:
        raise ValueError(f"input shaped {x.shape}, graph declares {graph.input_dims}")

    refcount = {}
    for node in graph.nodes:
        for inp in node.inputs:
            refcount[inp] = refcount.get(inp, 0) + 1
    tapped = set(graph.taps.values())

    values = {}
    for node in graph.nodes:
        if node.kind == "input":
            values[node.id] = x
            continue
        ins = [values[i] for i in node.inputs]
        try:
            values[node.id] = _run_node(node, ins, params.get(node.id, {}))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"node {node.id!r}: {exc}") from exc
        for inp in node.inputs:
            refcount[inp] -= 1
            if refcount[inp] == 0 and inp not in tapped:
                del values[inp]  # free dead intermediates

    missing = [name for name, nid in graph.taps.items() if nid not in values]
    if missing:
        raise ValueError(f"taps never populated: {missing}")
    return {name: values[nid] for name, nid in graph.taps.items()}
