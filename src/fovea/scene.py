"""Synthetic scenes and the perfect-network oracle.

A scene is solid rectangles (one intensity per class) over seeded noise,
replicated to three channels.  From its ground truth the oracle renders the
maps a flawless detector head would produce: the training targets of
``decode.corner_targets`` and ``decode.attention_targets``, with sub-pixel
offsets and per-object embedding tags (from 1, so the zero background never
groups with a real corner).  Decoding oracle maps reproduces the ground
truth exactly, so the geometry pipeline is testable without trained weights.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .decode import Detection, _box_field, _strides, attention_targets, corner_targets
from .kernels import _from_fields, _integer, _is_integer, _pair, _require, as_tensor
from .pipeline import CROP_SIZE, Affine

ATTENTION_MAP_HW = {"small": (64, 64), "medium": (32, 32), "large": (16, 16)}
HEATMAP_HW = (64, 64)
ORACLE_PEAK = 0.9  # the oracle's heatmap, attention and detection score


@dataclass
class SceneObject:
    cls: int
    box: tuple  # (x1, y1, x2, y2) pixels

    def to_dict(self):
        return {"class": int(self.cls), "box": [float(v) for v in self.box]}


@dataclass
class SceneSpec:
    height: int
    width: int
    objects: list = field(default_factory=list)
    seed: int = 0
    noise: float = 0.1

    def to_dict(self):
        return {"height": self.height, "width": self.width, "seed": self.seed,
                "noise": self.noise, "objects": [o.to_dict() for o in self.objects]}

    @classmethod
    def from_dict(cls, d):
        with _from_fields("scene spec"):
            objs = [SceneObject(int(o["class"]), _box_field(o["box"]))
                    for o in d.get("objects", [])]
            return cls(d["height"], d["width"], objs,
                       int(d.get("seed", 0)), float(d.get("noise", 0.1)))


def gen_scene(spec):
    """Render a SceneSpec deterministically; returns (image, ground truth).

    Raises ``ValueError`` for a ``height`` or ``width`` that is not an
    integer >= 1, a NaN, infinite or negative ``noise``, an object class that
    is not an integer >= 0, and a box outside the canvas.
    """
    _integer("height", spec.height)
    _integer("width", spec.width)
    _require(0.0 <= spec.noise < math.inf, "noise", "be finite and >= 0", spec.noise)
    rng = np.random.default_rng(spec.seed)
    image = np.empty((1, 3, spec.height, spec.width), np.float32)
    canvas = image[0, 0]
    for top in range(0, spec.height, 64):  # one (h, w) call's float64 draws, 64 rows at a time
        rows = canvas[top:top + 64]
        rows[...] = rng.uniform(0.0, spec.noise, size=rows.shape)
    gt = []
    for obj in spec.objects:
        _integer("object class", obj.cls, 0)
        x1, y1, x2, y2 = obj.box
        if not (0 <= x1 <= x2 < spec.width and 0 <= y1 <= y2 < spec.height):
            raise ValueError(f"object box {obj.box} exceeds canvas {spec.height}x{spec.width}")
        intensity = 0.35 + 0.08 * (obj.cls % 8)
        canvas[int(round(y1)): int(round(y2)) + 1, int(round(x1)): int(round(x2)) + 1] = intensity
        gt.append(Detection(obj.cls, 1.0, (x1, y1, x2, y2)))
    image[0, 1:] = canvas
    return image, gt


def random_scene(seed, n_objects, hw=(510, 510), num_classes=3):
    """A scene of well-separated boxes spanning all three size classes.

    Separation keeps corner cells apart on every heatmap the pipeline will
    render (full frames and zoomed crops), so oracle peaks never collide.
    Boxes are drawn until ``n_objects`` fit or 4,000 draws are spent, so a
    crowded frame returns fewer objects than asked for: ``random_scene(0,
    12)`` holds 8.  Raises ``ValueError`` for a ``seed`` or ``n_objects`` that
    is not an integer >= 0, an ``hw`` that is not a pair of integers >= 1, a
    ``num_classes`` that is not an integer >= 1, and for a frame where no 36
    px box fits the margin.
    """
    _integer("seed", seed, 0)
    _integer("n_objects", n_objects, 0)
    _pair("hw", hw)
    _integer("num_classes", num_classes)
    h, w = hw
    rng = np.random.default_rng(seed)
    margin = 24
    # the smallest candidate is 36 x 0.6*36 px; a candidate that cannot fit
    # inside the margin is redrawn before its position is drawn
    if n_objects and (0.55 * min(h, w) < 36 or max(h, w) - 2 * margin < 36
                      or min(h, w) - 2 * margin < 0.6 * 36):
        raise ValueError(f"random_scene: no box with a 36 px side fits inside the "
                         f"{margin} px margin of hw={tuple(hw)}")
    boxes = []
    classes = []
    attempts = 0
    while len(boxes) < n_objects and attempts < 4000:
        attempts += 1
        side_a = rng.uniform(36, 0.55 * min(h, w))
        side_b = side_a * rng.uniform(0.6, 1.0)
        bw, bh = (side_a, side_b) if rng.random() < 0.5 else (side_b, side_a)
        if w - margin - bw - margin < 0 or h - margin - bh - margin < 0:
            continue
        x1 = rng.uniform(margin, w - margin - bw)
        y1 = rng.uniform(margin, h - margin - bh)
        cand = (x1, y1, x1 + bw, y1 + bh)
        if all(_separated(cand, b, 32.0) for b in boxes):
            boxes.append(cand)
            classes.append(int(rng.integers(0, num_classes)))
    objects = [SceneObject(c, b) for c, b in zip(classes, boxes)]
    return SceneSpec(height=h, width=w, objects=objects, seed=seed)


def _separated(a, b, gap):
    # disjoint with a margin, and same-kind corners at least `gap` apart
    if (a[0] - gap < b[2] and b[0] - gap < a[2] and
            a[1] - gap < b[3] and b[1] - gap < a[3]):
        return False
    tl_gap = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
    br_gap = max(abs(a[2] - b[2]), abs(a[3] - b[3]))
    return tl_gap >= gap and br_gap >= gap


def oracle_outputs(gt, num_classes, frame_hw=(CROP_SIZE, CROP_SIZE), tags=None):
    """The maps a perfect network would output for ``gt``, in frame pixels.

    Returns ``{tap name: map}`` under the names the builders tap:
    ``tl_heat``, ``tl_embed``, ``tl_off``, the same for ``br``, and
    ``attn_<size>`` per size class.  Heat and attention maps are the targets
    of ``decode.corner_targets`` and ``decode.attention_targets`` times
    ``ORACLE_PEAK``.  Each object's embedding tag (``tags``, or 1, 2, ...)
    and offsets are written at its corner cells in gt order, so a later
    corner wins a shared cell.  Raises ``ValueError`` as ``corner_targets``.
    """
    maps = {}
    tags = range(1, len(gt) + 1) if tags is None else tags
    for kind, (heat, cells, offsets) in corner_targets(gt, num_classes, frame_hw,
                                                       HEATMAP_HW).items():
        embed, off = (np.zeros((1, channels, *HEATMAP_HW), np.float32) for channels in (1, 2))
        for tag, (x, y), d in zip(tags, cells.tolist(), offsets.tolist(), strict=True):
            embed[0, 0, y, x] = tag
            off[0, :, y, x] = d
        heat *= ORACLE_PEAK
        maps.update({f"{kind}_heat": heat, f"{kind}_embed": embed, f"{kind}_off": off})
    for size, dims in ATTENTION_MAP_HW.items():
        target = attention_targets([det.box for det in gt], dims, size, _strides(frame_hw, dims))
        target *= ORACLE_PEAK
        maps[f"attn_{size}"] = target
    return maps


class OracleModel:
    """Stand-in for a trained network: answers from ground truth and geometry.

    ``infer`` maps the scene's ground-truth boxes into the queried frame in
    one ``apply_box`` call (through the inverse of the frame's map back to
    source pixels), keeps the rows fully inside, and returns
    ``oracle_outputs`` for them: ``{tap name: map}``, as ``GraphModel.infer``
    does.  Embedding tags stay attached to scene objects (object i carries
    i + 1), so the same object carries the same tag in every frame.  Raises
    ``ValueError`` naming ``gt[i]`` for a box that is not 4 finite coordinates
    or is inverted (x2 < x1 or y2 < y1), and a class that is not an integer in
    [0, ``num_classes``).
    """

    def __init__(self, gt, num_classes):
        _integer("num_classes", num_classes)
        self.gt = list(gt)
        for i, det in enumerate(self.gt):
            with _from_fields(f"gt[{i}]"):
                x1, y1, x2, y2 = _box_field(det.box)
            _require(x1 <= x2 and y1 <= y2, f"gt[{i}] box", "have x1 <= x2 and y1 <= y2", det.box)
            _require(_is_integer(det.cls, 0) and det.cls < num_classes, f"gt[{i}] class",
                     f"be an integer in [0, {num_classes})", det.cls)
        self.num_classes = num_classes

    def infer(self, image, to_original):
        _require(isinstance(to_original, Affine), "to_original",
                 "be an Affine mapping the frame to source pixels", to_original)
        fh, fw = as_tensor(image, "image").shape[2:]
        gt_boxes = np.array([det.box for det in self.gt], dtype=np.float64).reshape(-1, 4)
        boxes = to_original.invert().apply_box(gt_boxes)
        inside = np.flatnonzero((boxes[:, :2] >= 0).all(axis=1)
                                & (boxes[:, 2:] <= (fw - 1, fh - 1)).all(axis=1))
        visible = [Detection(self.gt[i].cls, ORACLE_PEAK, tuple(boxes[i].tolist())) for i in inside]
        return oracle_outputs(visible, self.num_classes, frame_hw=(fh, fw), tags=inside + 1)
