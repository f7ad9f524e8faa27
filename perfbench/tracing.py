"""Spans around the calls into each layer, for the traced benchmark run.

Layers are timed from outside: while tracing, the module-level names that
``fovea.pipeline``, ``fovea.decode`` and ``fovea.graph`` look up at call time
(and the model's ``infer``) are replaced by wrappers that record a span per
call.  Nothing inside the library changes, and ``uninstall`` puts the
original functions back.  Spans are kept in memory and written out once, at
the end of the run.
"""

import json
import math
import time
from collections import defaultdict

import numpy as np

from fovea import decode, graph, pipeline, scene

# span name -> the (owner, attribute) pairs it wraps.  Kernels are wrapped
# where their callers look them up, so a kernel called from inside another
# kernel (depthwise_conv2d -> conv2d) is counted once.
WRAPPED = {
    "pipeline.run_saccade": [(pipeline, "run_saccade")],
    "pipeline.model_infer": [(pipeline.GraphModel, "infer"), (scene.OracleModel, "infer")],
    "pipeline.downsize_pair": [(pipeline, "downsize_pair")],
    "pipeline.extract_locations": [(pipeline, "extract_locations")],
    "pipeline.suppress_locations": [(pipeline, "suppress_locations")],
    "pipeline.crop_pixels": [(pipeline, "crop_pixels")],
    "pipeline.strip_boundary_boxes": [(pipeline, "strip_boundary_boxes")],
    "pipeline.soft_nms": [(pipeline, "soft_nms")],
    "decode.heatmap_peaks": [(pipeline, "heatmap_peaks")],
    "decode.group_corners": [(pipeline, "group_corners")],
    "graph.forward": [(pipeline, "forward"), (graph, "forward")],
    "kernels.conv2d": [(graph, "conv2d")],
    "kernels.depthwise_conv2d": [(graph, "depthwise_conv2d")],
    "kernels.transpose_conv2d": [(graph, "transpose_conv2d")],
    "kernels.nearest_upsample2x": [(graph, "nearest_upsample2x")],
    "kernels.relu": [(graph, "relu")],
    "kernels.sigmoid": [(graph, "sigmoid")],
    "kernels.max_pool2d": [(decode, "max_pool2d")],
    "kernels.resize_longer_side": [(pipeline, "resize_longer_side")],
}


def _nbytes(*arrays):
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _conv_name(args):
    spec = args[3]
    k = spec.kernel[0]
    return f"kernels.conv2d.k{k}" if k == 1 else f"kernels.conv2d.k{k}s{spec.stride}"


def _counts(name, args, out, forward_macs):
    """Work counts recorded with a span: boxes in and out, pairs, MACs, bytes.

    MACs follow ``analysis.node_macs``: every output element of a
    convolution, and every input element of a transpose convolution, meets
    one weight slice of size prod(w.shape[1:]).
    """
    if name.startswith("kernels."):
        counts = {"bytes": _nbytes(*args, out)}
        if name == "kernels.transpose_conv2d":
            counts["macs"] = args[0].size * math.prod(args[1].shape[1:])
        elif name.startswith("kernels.conv2d") or name == "kernels.depthwise_conv2d":
            counts["macs"] = out.size * math.prod(args[1].shape[1:])
        return counts
    if name == "graph.forward":
        return {"macs": forward_macs[id(args[0])]}
    if name == "pipeline.suppress_locations":
        boxes = args[1] if len(args) > 1 else ()
        return {"in": len(args[0]) + len(boxes), "out": len(out)}
    if name == "decode.group_corners":
        return {"in": len(args[0]) * len(args[1]), "out": len(out)}
    if name in ("pipeline.soft_nms", "pipeline.strip_boundary_boxes"):
        return {"in": len(args[0]), "out": len(out)}
    if name in ("pipeline.extract_locations", "decode.heatmap_peaks"):
        return {"out": len(out)}
    return None


# per-layer statistic -> the span field it reads; per root call unless a ratio
_PER_CALL = {"calls": "calls", "s": "s", "self_s": "self_s", "in_boxes": "in",
             "out_boxes": "out", "locations": "out", "in": "in", "kept": "out",
             "corners": "out", "pairs": "in", "dets": "out"}
_OUT_OVER_IN = ("kept_ratio", "yield")


class Tracer:
    """Records spans as [name, start, end, parent index, request id, counts]."""

    def __init__(self, forward_macs):
        self.forward_macs = forward_macs   # id(graph) -> MACs of one forward
        self.spans = []
        self.request = -1
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        forward_macs = self.forward_macs

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if name == "kernels.conv2d":
                rec[0] = _conv_name(args)
            rec[5] = _counts(rec[0], args, out, forward_macs)
            return out
        return traced

    def install(self):
        for name, targets in WRAPPED.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def span_cost_s(self, calls=20000):
        """Seconds a wrapper adds to one call, timed on a function that does nothing."""
        def noop():
            return None
        wrapped = self.wrap("trace.calibration", noop)
        kept = len(self.spans)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        cost = (time.perf_counter() - start - bare) / calls
        del self.spans[kept:]
        return cost

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"id": i, "name": name, "start": start - t0, "end": end - t0,
                 "parent": None if parent < 0 else parent, "request": req,
                 **({"counts": counts} if counts else {})}
                for i, (name, start, end, parent, req, counts) in enumerate(self.spans)]
        with open(path, "w") as f:
            json.dump({"clock": "perf_counter seconds from the first span",
                       "spans": rows}, f)

    def summarize(self):
        """Per span name: calls, total and self seconds, summed counts.

        Self time is a span's duration minus the durations of its direct
        children (calls are sequential, so children never overlap).
        """
        child_s = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        rows = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, _, counts) in enumerate(self.spans):
            row = rows[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_s[i]
            for key, value in (counts or {}).items():
                row[key] += value
        return rows

    def root_seconds(self):
        """Wall seconds of each top-level span (one per benchmark call)."""
        return [end - start for _, start, end, parent, _, _ in self.spans if parent < 0]

    def layer_metrics(self, names, aliases=None):
        """Values of the per-layer metrics ``names`` from the recorded spans.

        Times, counts, GMAC and MB are per root call: one image through
        ``run_saccade``, or one forward called by the benchmark.  Ratios and
        GMAC/s are taken over the whole run.  A layer that never ran reads 0.
        ``aliases`` maps a metric's layer to the span name that measures it.
        """
        rows = self.summarize()
        n_roots = max(1, len(self.root_seconds()))
        aliases = aliases or {}
        values = {}
        for metric in names:
            layer, _, stat = metric.rpartition(".")
            row = rows.get(aliases.get(layer, layer), {})
            if stat in _PER_CALL:
                value = row.get(_PER_CALL[stat], 0.0) / n_roots
            elif stat in _OUT_OVER_IN:
                value = row["out"] / row["in"] if row.get("in") else 0.0
            elif stat == "gmac":
                value = row.get("macs", 0.0) / 1e9 / n_roots
            elif stat == "gmacs_per_s":
                value = row.get("macs", 0.0) / 1e9 / row["s"] if row.get("s") else 0.0
            elif stat == "mb_computed":
                value = row.get("bytes", 0.0) / 1e6 / n_roots
            else:
                raise ValueError(f"per-layer metric {metric!r} is not measured by spans")
            values[metric] = value
        return values
