"""The benchmark's workloads: set-up, inputs, one closed-loop call, its check.

Each workload is one client in one process: the next call starts after the
previous one returns.  Everything a workload feeds the library is drawn
from the workload seed, so a seed reproduces its inputs exactly.

Interface: ``setup(seed, timings)`` builds what the calls need;
``input(i)`` makes call i's input outside the timed region; ``call(inp)``
is the timed call; ``check(inp, out)`` lists what is wrong with its output;
``digest(out)`` packs the output's exact values for hashing.

Latency is reported per unit of ``unit_calls`` calls.  A run makes at least
``min_calls`` calls and ends on a whole pass of ``round_calls`` calls over
the workload's inputs.
"""

import struct
import time

import numpy as np

from fovea import builders, graph, pipeline
from fovea.scene import OracleModel, gen_scene, random_scene

NUM_CLASSES = 3
INPUT_HW = (255, 255)
SCENE_SIZES = ((510, 510), (480, 640), (720, 960), (1020, 1020))
MAX_OBJECTS = 8
RECALL_IOU = 0.9
RECALL_SCORE = 0.5
# the random-weight graphs are a fixed artefact, like a checkpoint; only the
# inputs come from the workload seed
WEIGHT_SEED = 0


def detections_bytes(dets):
    """The exact (cls, score, box) tuples, packed for hashing and comparing."""
    return b"".join(struct.pack("<q5d", d.cls, d.score, *d.box) for d in dets)


def taps_bytes(taps):
    """Every tap's name, dtype, shape and raw bytes, in tap-name order."""
    parts = []
    for name in sorted(taps):
        arr = np.ascontiguousarray(taps[name])
        parts.append(f"{name}:{arr.dtype.str}:{arr.shape}".encode() + arr.tobytes())
    return b"".join(parts)


class Timings(dict):
    """Seconds per set-up step, summed over one set-up."""

    def timed(self, key, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self[key] = self.get(key, 0.0) + time.perf_counter() - start
        return out


def check_detections(dets, image, floor):
    """Scores sorted and within [floor, 1]; boxes ordered and inside the image."""
    problems = []
    scores = [d.score for d in dets]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("scores not sorted descending")
    if any(not (floor <= s <= 1.0) for s in scores):
        problems.append(f"a score lies outside [{floor}, 1]")
    h, w = image.shape[2], image.shape[3]
    for d in dets:
        x1, y1, x2, y2 = d.box
        if not (0.0 <= x1 <= x2 <= w - 1 and 0.0 <= y1 <= y2 <= h - 1):
            problems.append(f"box {d.box} lies outside the {h}x{w} image")
            break
    return problems


class SaccadeOracle:
    """run_saccade with the perfect-network oracle: the network costs nothing."""

    name = "saccade_oracle"
    unit = "image"
    unit_calls = 1
    pool_size = 32
    round_calls = pool_size  # one pass over the scene pool
    min_calls = 4 * pool_size  # ten images beyond p90 need 100 images
    aliases = {"scene.oracle_infer": "pipeline.model_infer"}

    def __init__(self):
        self.config = pipeline.SaccadeConfig()
        self.recovered = self.total = 0

    def setup(self, seed, timings):
        # sizes and object counts are stratified over the pool, so seeds
        # differ in where objects sit, not in how much work the pool holds
        rng = np.random.default_rng(seed)
        specs = [random_scene(int(rng.integers(2 ** 31)),
                              1 + (i // len(SCENE_SIZES)) % MAX_OBJECTS,
                              hw=SCENE_SIZES[i % len(SCENE_SIZES)], num_classes=NUM_CLASSES)
                 for i in range(self.pool_size)]
        scenes = [timings.timed("scene.gen_scene.s", gen_scene, spec) for spec in specs]
        self.pool = [(image, gt, OracleModel(gt, NUM_CLASSES))
                     for image, gt in (scenes[j] for j in rng.permutation(self.pool_size))]

    def graphs(self):
        return []

    def input(self, i):
        return self.pool[i % self.pool_size]

    def call(self, inp):
        image, _, model = inp
        return pipeline.run_saccade(image, model, self.config)

    def check(self, inp, dets):
        image, gt, _ = inp
        confident = [d for d in dets if d.score > RECALL_SCORE]
        missed = 0
        for want in gt:
            best = max((pipeline.iou(want.box, d.box) for d in confident if d.cls == want.cls),
                       default=0.0)
            missed += best < RECALL_IOU
        self.total += len(gt)
        self.recovered += len(gt) - missed
        problems = [f"{missed} of {len(gt)} boxes not recovered"] if missed else []
        return problems + check_detections(dets, image, self.config.nms_floor)

    digest = staticmethod(detections_bytes)

    def report(self, call_s):
        return {"oracle_recall": (self.recovered / max(1, self.total), "ratio")}


class SaccadeSqueezeNoisy:
    """run_saccade on a random-weight squeeze graph: noisy maps flood decode and NMS."""

    name = "saccade_squeeze_noisy"
    unit = "image"
    unit_calls = 1
    round_calls = 4          # one pass over the image library
    min_calls = 4
    aliases = {}

    def __init__(self):
        self.config = pipeline.SaccadeConfig(max_regions=2)

    def setup(self, seed, timings):
        g = timings.timed("builders.build.s", builders.build_squeeze_hourglass,
                          NUM_CLASSES, input_hw=INPUT_HW)
        timings.timed("graph.init_weights.s", graph.init_weights, g, seed=WEIGHT_SEED)
        self.graph = g
        self.model = pipeline.GraphModel(g)
        # A fixed library, one image per scene size, visited in seeded order,
        # and every run makes whole passes over it.  Soft-NMS time swings by
        # tens of percent between images, even under a 0.2% pixel change, and
        # a run holds only a few images, so seeded images would make the
        # run's median follow the seed rather than the code.
        specs = [random_scene(k, 1 + 2 * k, hw=hw, num_classes=NUM_CLASSES)
                 for k, hw in enumerate(SCENE_SIZES)]
        library = [timings.timed("scene.gen_scene.s", gen_scene, spec)[0] for spec in specs]
        self.pool = [library[j] for j in np.random.default_rng(seed).permutation(len(library))]

    def graphs(self):
        return [self.graph]

    def input(self, i):
        return self.pool[i % len(self.pool)]

    def call(self, image):
        return pipeline.run_saccade(image, self.model, self.config)

    def check(self, image, dets):
        return check_detections(dets, image, self.config.nms_floor)

    digest = staticmethod(detections_bytes)

    def report(self, call_s):
        return {}


class BackboneForward:
    """graph.forward alone, alternating squeeze and hourglass54: kernel-bound.

    A round is one forward of each variant, each on a fresh input.
    """

    name = "backbone_forward"
    unit = "round"
    variants = ("squeeze", "hourglass54")
    unit_calls = round_calls = min_calls = len(variants)
    aliases = {}

    def setup(self, seed, timings):
        self.seed = seed
        self.graphs_ = []
        for variant in self.variants:
            g = timings.timed("builders.build.s", builders.BUILDERS[variant],
                              NUM_CLASSES, input_hw=INPUT_HW)
            timings.timed("graph.init_weights.s", graph.init_weights, g, seed=WEIGHT_SEED)
            self.graphs_.append(g)
        self.tap_shapes = {}

    def graphs(self):
        return self.graphs_

    def input(self, i):
        x = np.random.default_rng([self.seed, i]).standard_normal((1, 3) + INPUT_HW,
                                                                   dtype=np.float32)
        return self.graphs_[i % self.unit_calls], x

    def call(self, inp):
        return graph.forward(*inp)

    def check(self, inp, taps):
        g = inp[0]
        if id(g) not in self.tap_shapes:
            shapes = g.shapes()
            self.tap_shapes[id(g)] = {name: shapes[node] for name, node in g.taps.items()}
        want = self.tap_shapes[id(g)]
        problems = []
        if set(taps) != set(want):
            problems.append(f"taps {sorted(taps)}, expected {sorted(want)}")
        for name, arr in taps.items():
            if tuple(arr.shape) != want.get(name):
                problems.append(f"tap {name} shaped {arr.shape}, expected {want.get(name)}")
            if not np.isfinite(arr).all():
                problems.append(f"tap {name} holds non-finite values")
        return problems

    digest = staticmethod(taps_bytes)

    def report(self, call_s):
        return {f"forward_{variant}_p50_s": (float(np.median(call_s[k::self.unit_calls])), "s")
                for k, variant in enumerate(self.variants)}


WORKLOADS = {w.name: w for w in (SaccadeOracle, SaccadeSqueezeNoisy, BackboneForward)}
