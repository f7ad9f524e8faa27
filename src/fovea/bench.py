"""Wall-clock micro-benchmarks with MAC counts for context.

Timing is hardware-bound, so the report pairs each entry's median/p10/p90
wall times with its multiply-accumulate count where one is defined; cost
per MAC is then derivable on any machine.  The kernel ops (``conv3x3``,
``conv7x7s2``, ``dwconv3x3``, ``tconv4x4``) are single graph nodes, run and
counted by their ``graph.OPS`` entries.  The post-network ops
(``soft_nms``, ``group_corners``, ``peaks``) count no MACs; their ``size``
is the input pool size, the number of corners per kind, or the side of a
(1, 3, size, size) heatmap.  The sampling ops
(``crop_pixels``, ``resize255``) count no MACs either; their ``size`` is the
side of a square source image.  The ``init_*`` ops time ``init_weights``
at seed 0 on the graph built at ``size`` and count no MACs.
"""

import time

import numpy as np

from . import kernels
from .kernels import _integer, _one_of
from .analysis import cost_report
from .builders import build_hourglass54, build_squeeze_hourglass
from .decode import Corner, Detection, group_corners, heatmap_peaks
from .graph import OPS, Node, forward, init_weights
from .pipeline import (CROP_SIZE, ObjectLocation, SaccadeConfig, crop_pixels, make_crop,
                       resize_affine, soft_nms)


def _rng(seed=0):
    return np.random.default_rng(seed)


# the kernel ops: one node each, drawn, run and counted through its ``OPS`` entry
_KERNEL_NODES = (
    Node("conv3x3", "conv", in_channels=64, out_channels=64, kernel=(3, 3), padding=1),
    Node("conv7x7s2", "conv", in_channels=3, out_channels=128, kernel=(7, 7), stride=2,
         padding=3),  # the backbone stem
    Node("dwconv3x3", "dwconv", in_channels=64, out_channels=64, kernel=(3, 3), padding=1),
    Node("tconv4x4", "tconv", in_channels=64, out_channels=64, kernel=(4, 4), stride=2, padding=1),
)


def _bench_node(node):
    def make(size):
        op = OPS[node.kind]
        x = _rng().normal(size=(1, node.in_channels, size, size)).astype(np.float32)
        w = _rng(1).normal(size=op.weight(node)[0]).astype(np.float32)
        macs = op.macs(node, [x.shape], op.shape(node, [x.shape]))
        return (lambda: op.run(node, [x], {"w": w})), macs
    return make


def _bench_maxpool3x3(size):
    x = _rng().normal(size=(1, 64, size, size)).astype(np.float32)
    return (lambda: kernels.max_pool2d(x, 3, 1, 1)), 0


def _bench_soft_nms(size):
    rng = _rng()
    x1, y1 = rng.uniform(0, 400, (2, size))
    w, h = rng.uniform(8, 120, (2, size))
    dets = [Detection(int(c), float(s), (float(a), float(b), float(a + dx), float(b + dy)))
            for c, s, a, b, dx, dy in zip(rng.integers(0, 3, size),
                                          rng.uniform(0.001, 1.0, size), x1, y1, w, h)]
    return (lambda: soft_nms(dets)), 0


def _bench_group_corners(size):
    rng = _rng()

    def corners(kind):  # 3 classes on a 64x64 heatmap grid
        return [Corner(cls=int(rng.integers(0, 3)), score=float(rng.uniform()),
                       x=int(rng.integers(0, 64)), y=int(rng.integers(0, 64)),
                       dx=float(rng.uniform()), dy=float(rng.uniform()),
                       embed=float(rng.normal()), kind=kind)
                for _ in range(size)]

    tl, br = corners("tl"), corners("br")
    return (lambda: group_corners(tl, br)), 0


def _bench_peaks(size):
    # an oracle corner map: zero but for a few peaks, so the zero plateau
    # survives the window test and the top 100 are mostly ties at 0
    heat = np.zeros((1, 3, size, size), np.float32)
    rng = _rng()
    cells = rng.integers(0, size, (8, 2))
    heat[0, rng.integers(0, 3, 8), cells[:, 0], cells[:, 1]] = rng.uniform(0.5, 1.0, 8)
    return (lambda: heatmap_peaks(heat, 100)), 0


def _square_image(size):
    return _rng().normal(size=(1, 3, size, size)).astype(np.float32)


def _bench_crop_pixels(size):
    # the zoom-2 window run_saccade would place on the centre of the image
    image = _square_image(size)
    content = (CROP_SIZE, CROP_SIZE)
    centre = ObjectLocation(x=CROP_SIZE / 2, y=CROP_SIZE / 2, size="medium", score=1.0)
    window = make_crop(centre, SaccadeConfig(zoom_medium=2.0), content,
                       resize_affine((size, size), content))
    return (lambda: crop_pixels(image, window)), 0


def _bench_resize255(size):
    image = _square_image(size)
    return (lambda: kernels.resize_longer_side(image, 255)), 0


def _bench_forward(builder, num_classes=3):
    def make(size):
        graph = builder(num_classes, input_hw=(size, size))
        init_weights(graph, seed=0)
        x = _rng().normal(size=(1, 3, size, size)).astype(np.float32)
        macs = cost_report(graph).macs
        return (lambda: forward(graph, x)), macs
    return make


def _bench_init(builder, num_classes=3):
    def make(size):
        graph = builder(num_classes, input_hw=(size, size))
        return (lambda: init_weights(graph, seed=0)), 0
    return make


BENCH_OPS = {
    **{node.id: _bench_node(node) for node in _KERNEL_NODES},
    "maxpool3x3": _bench_maxpool3x3,
    "soft_nms": _bench_soft_nms,
    "group_corners": _bench_group_corners,
    "peaks": _bench_peaks,
    "crop_pixels": _bench_crop_pixels,
    "resize255": _bench_resize255,
    "forward_hourglass54": _bench_forward(build_hourglass54),
    "forward_squeeze": _bench_forward(build_squeeze_hourglass),
    "init_hourglass54": _bench_init(build_hourglass54),
    "init_squeeze": _bench_init(build_squeeze_hourglass),
}


def bench(ops, sizes, repetitions=3):
    """Time each (op, size) pair; returns a JSON-ready report dict.

    Report schema: {"repetitions": int, "entries": [{"op", "size", "macs",
    "samples", "median_s", "p10_s", "p90_s"}]}.  An unknown op, or a size or
    ``repetitions`` that is not an integer >= 1, raises ``ValueError`` before
    any op is built.
    """
    _integer("repetitions", repetitions)
    for op in ops:
        _one_of("bench op", op, BENCH_OPS)
    for size in sizes:
        _integer("bench size", size)
    entries = []
    for op in ops:
        for size in sizes:
            fn, macs = BENCH_OPS[op](size)
            fn()  # warm-up, excluded from samples
            samples = []
            for _ in range(repetitions):
                start = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - start)
            entries.append({
                "op": op, "size": int(size), "macs": int(macs),
                "samples": len(samples),
                "median_s": float(np.median(samples)),
                "p10_s": float(np.percentile(samples, 10)),
                "p90_s": float(np.percentile(samples, 90)),
            })
    return {"repetitions": repetitions, "entries": entries}
