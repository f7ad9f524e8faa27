"""Graph analysis: parameter counts, MACs, activation memory, depth, census.

Counting conventions (used consistently, reported never asserted against
any nominal layer-count constants):

* weights exclude biases; biases are tallied separately;
* MACs are multiply-accumulates, from each kind's ``graph.OPS`` rule: conv
  = out_elems * (in_c / groups) * kh * kw, transpose conv = in_elems * out_c
  * kh * kw; elementwise ops, upsampling, adds and concats count zero;
* activation sizes are float32 node outputs: ``peak_*`` is the single
  largest node output, ``activation_bytes`` sums every node output (the
  everything-live worst case), ``live_peak_bytes`` the most ``forward``
  holds at once by ``graph.plan``: a step's output counts before its frees,
  taps are never freed, kernel temporaries and pre-activation arrays are not;
* depth counts weighted layers (conv / dwconv / tconv) on the longest
  input-to-output path.
"""

import io
import csv
import math
from dataclasses import dataclass, field

from .graph import param_shapes, plan


@dataclass
class StageCost:
    weights: int = 0
    biases: int = 0
    macs: int = 0
    activation_bytes: int = 0
    peak_activation_bytes: int = 0
    peak_activation_area: int = 0

    def add(self, other):
        """Sum ``other``'s counts into these; each peak keeps the larger."""
        self.weights += other.weights
        self.biases += other.biases
        self.macs += other.macs
        self.activation_bytes += other.activation_bytes
        self.peak_activation_bytes = max(self.peak_activation_bytes, other.peak_activation_bytes)
        self.peak_activation_area = max(self.peak_activation_area, other.peak_activation_area)

    def to_dict(self):
        return dict(self.__dict__)


@dataclass
class CostReport(StageCost):
    input_dims: tuple = ()
    live_peak_bytes: int = 0
    per_stage: dict = field(default_factory=dict)

    def stage_aggregate(self, include=None, exclude=()):
        """Aggregate a subset of stages (e.g. everything past the stem)."""
        agg = StageCost()
        for stage, c in self.per_stage.items():
            if include is not None and stage not in include:
                continue
            if stage in exclude:
                continue
            agg.add(c)
        return agg

    def to_dict(self):
        d = {k: getattr(self, k) for k in
             ("weights", "biases", "macs", "activation_bytes",
              "peak_activation_bytes", "peak_activation_area", "live_peak_bytes")}
        d["input_dims"] = list(self.input_dims)
        d["per_stage"] = {s: c.to_dict() for s, c in self.per_stage.items()}
        return d


def cost_report(graph, input_dims=None):
    steps = plan(graph, input_dims)
    report, held = CostReport(input_dims=steps[0].shape), {}  # held: {id: bytes} forward keeps
    for node, shape, macs, frees in steps:
        sizes = {name: math.prod(s) for name, s in param_shapes(node).items()}
        held[node.id] = act_bytes = 4 * math.prod(shape)
        report.live_peak_bytes = max(report.live_peak_bytes, sum(held.values()))
        for i in frees:
            del held[i]
        cost = StageCost(sizes.get("w", 0), sizes.get("b", 0), macs, act_bytes,
                         act_bytes, math.prod(shape[2:]))
        report.per_stage.setdefault(node.stage or "other", StageCost()).add(cost)
        report.add(cost)
    return report


def param_enumeration(graph):
    """(weights, biases) by summing the sizes of materialized weight arrays.

    Independent cross-check for the closed-form counts in cost_report;
    requires init_weights (or loaded weights) on the graph.
    """
    weights = biases = 0
    for node in graph.nodes:
        tensors = graph.params.get(node.id, {})
        weights += tensors["w"].size if "w" in tensors else 0
        biases += tensors["b"].size if "b" in tensors else 0
    return weights, biases


@dataclass
class DepthReport:
    longest_path_convs: int
    total_convs: int
    per_tap: dict = field(default_factory=dict)

    def to_dict(self):
        return {"longest_path_convs": self.longest_path_convs,
                "total_convs": self.total_convs, "per_tap": dict(self.per_tap)}


def depth_report(graph):
    depth = {}
    total = 0
    deepest = 0
    for node in graph.nodes:
        d = max((depth[i] for i in node.inputs), default=0)
        if node.is_weighted():
            d += 1
            total += 1
        depth[node.id] = d
        deepest = max(deepest, d)
    per_tap = {name: depth[nid] for name, nid in graph.taps.items()}
    return DepthReport(longest_path_convs=deepest, total_convs=total, per_tap=per_tap)


# ---- structure census ---------------------------------------------------------


def blocks_by_stage(graph):
    """Group nodes into labelled blocks: {(stage, block): info dict}."""
    shapes = graph.shapes()
    blocks = {}
    for node in graph.nodes:
        if node.kind == "input":
            continue
        key = (node.stage, node.block or node.id)
        info = blocks.setdefault(key, {
            "stage": node.stage, "block": node.block or node.id,
            "kind": node.block_kind, "roles": set(), "nodes": [],
            "has_stride2": False, "out_channels": 0,
        })
        info["roles"].add(node.role)
        info["nodes"].append(node)
        if node.is_weighted() and node.stride == 2 and node.kind != "tconv":
            info["has_stride2"] = True
    for info in blocks.values():
        # channel width of the block's output (its last node in graph order)
        info["out_channels"] = shapes[info["nodes"][-1].id][1]
    return blocks


def _role_index(role, prefix):
    try:
        return int(role[len(prefix):])
    except ValueError:
        return 0


def structure_census(graph):
    """Exact structural counts: stem stages, per-module down/skip/up/middle
    blocks and channel schedule, upsampling op kinds, head kernel audit."""
    blocks = blocks_by_stage(graph)
    module_stages = sorted({s for s, _ in blocks if s.startswith("module")},
                           key=lambda s: int(s[len("module"):]))

    stem_blocks = [b for (s, _), b in blocks.items() if s == "stem"]
    census = {
        "n_modules": len(module_stages),
        "module_stages": module_stages,
        "stem": {
            "n_downsamples": sum(1 for b in stem_blocks if b["has_stride2"]),
            "n_blocks": len(stem_blocks),
            "block_kinds": [b["kind"] for b in stem_blocks],
        },
        "modules": {},
    }

    for stage in module_stages:
        stage_blocks = [b for (s, _), b in blocks.items() if s == stage]
        downs, skips, ups, middles = {}, {}, {}, []
        upsample_ops = []
        kind_counts = {}
        for b in stage_blocks:
            role = next(iter(b["roles"]))
            if b["kind"] == "upsample":
                node = b["nodes"][0]
                upsample_ops.append({"kind": node.kind, "kernel": tuple(node.kernel),
                                     "stride": node.stride, "role": role})
                continue
            if b["kind"] == "merge":
                continue
            kind_counts[b["kind"]] = kind_counts.get(b["kind"], 0) + 1
            if role.startswith("down"):
                downs.setdefault(role, []).append(b)
            elif role.startswith("skip"):
                skips.setdefault(role, []).append(b)
            elif role.startswith("up"):
                ups.setdefault(role, []).append(b)
            elif role == "middle":
                middles.append(b)
        down_roles = sorted(downs, key=lambda r: _role_index(r, "down"))
        down_channels = []
        for role in down_roles:
            strided = [b for b in downs[role] if b["has_stride2"]]
            down_channels.append(strided[0]["out_channels"] if strided else None)
        census["modules"][stage] = {
            "n_downsamples": len(down_roles),
            "down_channels": down_channels,
            "blocks_per_down": {r: len(v) for r, v in downs.items()},
            "blocks_per_skip": {r: len(v) for r, v in skips.items()},
            "blocks_per_up": {r: len(v) for r, v in ups.items()},
            "n_middle_blocks": len(middles),
            "middle_channels": middles[0]["out_channels"] if middles else 0,
            "upsample_ops": upsample_ops,
            "block_kind_counts": kind_counts,
        }

    head_nodes = [n for n in graph.nodes if n.stage == "heads" and n.is_weighted()]
    census["heads"] = {
        "kernels": [tuple(n.kernel) for n in head_nodes],
        "n_3x3_standard_convs": sum(1 for n in head_nodes
                                    if n.kind == "conv" and tuple(n.kernel) == (3, 3)),
        "lead_kernels": sorted({tuple(n.kernel) for n in head_nodes if n.role.endswith("lead")}),
    }
    census["attention"] = {
        "n_heads": len({b["block"] for (s, _), b in blocks.items() if s == "attn"}),
    }
    return census


# ---- side-by-side comparison --------------------------------------------------

_NON_BACKBONE_STAGES = ("input", "stem")


def compare_archs(graphs, input_dims=None):
    """Tabulate params / MACs / activation / depth for named graphs.

    ``graphs`` is a list of (name, ArchGraph) pairs.  ``hourglass_peak_*``
    columns aggregate over everything past the shared stem prefix, which is
    where pre-downsampling choices actually move activation memory.
    """
    rows = []
    for name, graph in graphs:
        cost = cost_report(graph, input_dims)
        depth = depth_report(graph)
        census = structure_census(graph)
        post_stem = cost.stage_aggregate(exclude=_NON_BACKBONE_STAGES)
        module_stages = census["module_stages"]
        module_cost = cost.stage_aggregate(include={module_stages[0]}) if module_stages else StageCost()
        rows.append({
            "name": name,
            "weights": cost.weights,
            "biases": cost.biases,
            "macs": cost.macs,
            "activation_bytes": cost.activation_bytes,
            "peak_activation_bytes": cost.peak_activation_bytes,
            "peak_activation_area": cost.peak_activation_area,
            "hourglass_peak_bytes": post_stem.peak_activation_bytes,
            "hourglass_peak_area": post_stem.peak_activation_area,
            "hourglass_activation_bytes": post_stem.activation_bytes,
            "module_weights": module_cost.weights,
            "module_macs": module_cost.macs,
            "n_modules": census["n_modules"],
            "depth_longest_path": depth.longest_path_convs,
            "total_convs": depth.total_convs,
        })
    return rows


def compare_to_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
