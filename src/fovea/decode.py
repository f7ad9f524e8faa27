"""Corner-heatmap decoding and forward loss values.

Decoding follows the usual corner-keypoint recipe: 3x3 max-pool
suppression keeps only window maxima, top-k selection per corner kind,
then all-pairs grouping gated on class, embedding distance and box
geometry.  Corner coordinates live on the heatmap grid; ``(coord +
offset) * downsample_factor`` maps them back to input pixels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _from_fields, _integer, _is_integer, _number, _one_of, _pair, _require, max_pool2d

CLAMP_EPS = 1e-7  # keeps log() finite in the losses

# object size routing by the longer box side, in input pixels
SMALL_MAX = 32.0   # strictly below -> small
MEDIUM_MAX = 96.0  # up to and including -> medium; beyond -> large
SIZE_CLASSES = ("small", "medium", "large")


def _size_index(longer_side):
    """``SIZE_CLASSES`` index of a side or each of an array, unchecked: NaN is large."""
    return 2 - (longer_side <= MEDIUM_MAX) - (longer_side < SMALL_MAX)


def _longer_sides(x1, y1, x2, y2):
    """The side that routes a box, or each box of coordinate arrays: dx unless
    dy > dx, as Python's ``max(dx, dy)`` picks it, so a NaN dy is passed over."""
    dx, dy = x2 - x1, y2 - y1
    return np.where(dy > dx, dy, dx) if isinstance(dx, np.ndarray) else max(dx, dy)


def _strides(frame_hw, map_hw):
    """(y, x) frame pixels per cell of a ``map_hw`` map over ``frame_hw``."""
    return frame_hw[0] / map_hw[0], frame_hw[1] / map_hw[1]


def size_class_of(longer_side):
    _require(longer_side >= 0, "longer_side", "be >= 0", longer_side)
    return SIZE_CLASSES[_size_index(longer_side)]


@dataclass
class Corner:
    cls: int
    score: float
    x: int
    y: int
    dx: float = 0.0
    dy: float = 0.0
    embed: float = 0.0
    kind: str = "tl"


def _box_field(values):
    """A JSON record's ``box`` as a tuple of 4 floats."""
    box = tuple(float(v) for v in values)
    _require(len(box) == 4, "box", "hold 4 coordinates (x1, y1, x2, y2)", values)
    return box


@dataclass
class Detection:
    cls: int
    score: float
    box: tuple  # (x1, y1, x2, y2) in input pixels

    def to_dict(self):
        return {"class": int(self.cls), "score": float(self.score),
                "box": [float(v) for v in self.box]}

    @classmethod
    def from_dict(cls, d):
        with _from_fields("detection"):
            return cls(int(d["class"]), float(d["score"]), _box_field(d["box"]))

    @property
    def longer_side(self):
        return _longer_sides(*self.box)


def _peak_columns(heatmaps, k, offsets=None, embeddings=None):
    """Array core of ``heatmap_peaks``: class, score, x, y, dx, dy, embed columns.

    Survivors are found as flat indices into the (C, H, W) heatmap, which
    ascend in (class, y, x) order.  Only the k picked indices are turned
    back into class, y and x: a flat map, where most cells tie with their
    window (an oracle map's zero plateau), survives in the thousands.
    """
    _integer("k", k)
    heat = np.asarray(heatmaps, dtype=np.float32)
    pooled = max_pool2d(heat, 3, 1, 1)
    flat = heat[0].ravel()
    # equality: pooled >= heat everywhere by construction
    at = np.flatnonzero(flat >= pooled[0].ravel())
    scores = flat[at]
    # stable, so equal scores keep the (class, y, x) order of the flat index
    order = np.argsort(-scores, kind="stable")[:k]
    cs, ys, xs = np.unravel_index(at[order], heat.shape[1:])

    def read(maps, channel):
        if maps is None:
            return np.zeros(len(order))
        return np.asarray(maps[0, channel, ys, xs], dtype=np.float64)

    return cs, scores[order], xs, ys, read(offsets, 0), read(offsets, 1), read(embeddings, 0)


def heatmap_peaks(heatmaps, k, offsets=None, embeddings=None, kind="tl"):
    """Top-k corners per kind from a (1, C, H, W) heatmap tensor.

    A location survives only if it equals its 3x3 window maximum.  Survivors
    sort by score descending with ties broken by (class, y, x) ascending.
    Offsets (1, 2, H, W; channel 0 = x) and embeddings (1, 1, H, W) are read
    out at each kept location when provided.  Wraps ``_peak_columns``.
    Raises ``ValueError`` for a ``kind`` not "tl" or "br", a heatmap not shaped
    (1, C, H, W) or with a NaN or inf value, which would otherwise drop out of
    the window test unnoticed, then for offsets or embeddings shaped otherwise.
    """
    _one_of("kind", kind, ("tl", "br"))
    heatmaps = np.asarray(heatmaps, dtype=np.float32)
    _require(heatmaps.ndim == 4 and heatmaps.shape[0] == 1, "heatmaps", "be (1, C, H, W)",
             heatmaps.shape)
    if not np.isfinite(heatmaps).all():
        raise ValueError("heatmaps hold non-finite (NaN or inf) values")
    for name, maps, channels in (("offsets", offsets, 2), ("embeddings", embeddings, 1)):
        want = (1, channels, *heatmaps.shape[2:])
        _require(maps is None or np.shape(maps) == want, name,
                 f"be shaped {want} to match the heatmaps", np.shape(maps))
    columns = _peak_columns(heatmaps, k, offsets, embeddings)
    return [Corner(*row, kind) for row in zip(*(c.tolist() for c in columns))]


def _group_columns(tl, br, embed_threshold, downsample_factor, floor=None):
    """Array core of ``group_corners`` over each kind's ``_peak_columns``:
    class, score and (n, 4) box columns.  With ``floor``, pairs scoring below
    it (not NaN ones) are dropped before the sort."""
    (tl_cls, tl_score, x1, y1, tl_embed), (br_cls, br_score, x2, y2, br_embed) = (
        (cls, np.asarray(score, dtype=np.float64), (x + dx) * downsample_factor,
         (y + dy) * downsample_factor, embed)
        for cls, score, x, y, dx, dy, embed in (tl, br))
    # gates negated so a NaN passes them, as in a scalar `if gap > t: skip`
    pairs = ((tl_cls[:, None] == br_cls[None, :])
             & ~(np.abs(tl_embed[:, None] - br_embed[None, :]) > embed_threshold)
             & ~(x1[:, None] > x2[None, :])
             & ~(y1[:, None] > y2[None, :]))
    if floor is not None:
        pairs &= ~((tl_score[:, None] + br_score[None, :]) / 2.0 < floor)
    t, b = np.nonzero(pairs)  # row-major: top-left-major pair order
    cls, score = tl_cls[t], (tl_score[t] + br_score[b]) / 2.0
    boxes = np.stack([x1[t], y1[t], x2[b], y2[b]], axis=1)
    order = np.lexsort((*boxes.T[::-1], cls, -score))
    return cls[order], score[order], boxes[order]


def _detections(cls, score, boxes):
    """``Detection``s from class, score and (n, 4) box columns."""
    return list(map(Detection, cls.tolist(), score.tolist(), map(tuple, boxes.tolist())))


def group_corners(tl_corners, br_corners, embed_threshold=0.5, downsample_factor=4.0):
    """Pair top-left with bottom-right corners into detections.

    A pair (same class) forms a detection iff the embedding gap is within
    ``embed_threshold`` and, after offset correction, the top-left sits
    above-and-left of the bottom-right.  Detection score is the mean of the
    two corner scores.  Output sorts by (-score, class, box).  Wraps the
    array core ``_group_columns``.

    ``downsample_factor`` is one frame-pixels-per-heatmap-cell scale for both
    axes, so the heatmaps must cover their frame at the same scale in x and
    y, as they do for the square 255x255 frames ``run_saccade`` decodes.
    Maps rendered for a non-square frame, such as
    ``oracle_outputs(gt, 3, frame_hw=(97, 641))``, are out of contract: their
    boxes decode at the wrong scale on at least one axis.
    """
    _require(embed_threshold >= 0, "embed_threshold", "be >= 0", embed_threshold)
    _require(0 < downsample_factor < math.inf, "downsample_factor", "be finite and > 0",
             downsample_factor)
    if not tl_corners or not br_corners:
        return []
    tl, br = ((np.array([c.cls for c in corners], dtype=np.int64),
               *np.array([(c.score, c.x, c.y, c.dx, c.dy, c.embed) for c in corners],
                         dtype=np.float64).T)
              for corners in (tl_corners, br_corners))
    return _detections(*_group_columns(tl, br, embed_threshold, downsample_factor))


def focal_loss(pred, gt, alpha=2.0):
    """Binary-target focal loss, averaged over the positive count.

    loss = -(1/max(1, N_pos)) * sum[ gt*(1-p)^a*log(p) + (1-gt)*p^a*log(1-p) ]
    Predictions must lie in [0, 1]; they are clamped into (eps, 1-eps)
    before the logs.  ``alpha`` must be a finite number >= 0.
    """
    _number("alpha", alpha)
    _require(0 <= alpha < math.inf, "alpha", "be finite and >= 0", alpha)
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    _require(p.shape == g.shape, "pred and gt", "share one shape", (p.shape, g.shape))
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("pred must lie in [0, 1]")
    if not np.all((g == 0) | (g == 1)):
        raise ValueError("gt must be binary (0 or 1)")
    p = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    pos = g * ((1.0 - p) ** alpha) * np.log(p)
    neg = (1.0 - g) * (p ** alpha) * np.log(1.0 - p)
    n_pos = max(1.0, float(g.sum()))
    return float(-(pos + neg).sum() / n_pos)


def corner_targets(gt, num_classes, frame_hw, heat_hw):
    """Binary corner-heatmap targets for ``gt`` on a ``heat_hw`` grid over ``frame_hw``.

    Returns ``{"tl": ..., "br": ...}``, each ``(heat, cells, offsets)``: a (1,
    num_classes, H, W) float32 map of ones at each object's class and cell,
    and (n, 2) (x, y) cells and (dx, dy) offsets in gt order.  At f frame
    pixels per cell, corner c sits in cell floor(c / f) with offset c / f -
    cell, which ``group_corners`` inverts as (cell + offset) * f.  Raises
    ``ValueError`` for sizes that are not integers >= 1, a class that is not
    an integer in [0, num_classes) and a corner outside the frame.
    """
    _integer("num_classes", num_classes)
    _pair("frame_hw", frame_hw)
    _pair("heat_hw", heat_hw)
    fy, fx = _strides(frame_hw, heat_hw)
    hh, hw = heat_hw
    targets = {kind: (np.zeros((1, num_classes, hh, hw), np.float32), [], [])
               for kind in ("tl", "br")}
    for det in gt:
        if not (_is_integer(det.cls, 0) and det.cls < num_classes):
            raise ValueError(f"gt class {det.cls} lies outside [0, num_classes={num_classes})")
        for (heat, cells, offsets), (cx, cy) in zip(targets.values(), (det.box[:2], det.box[2:])):
            qx, qy = cx / fx, cy / fy
            if not (0 <= qx < hw and 0 <= qy < hh):  # as 0 <= floor(q) < n, and false for NaN
                raise ValueError(f"corner ({cx}, {cy}) falls outside the "
                                 f"{frame_hw[0]}x{frame_hw[1]} frame")
            ix, iy = math.floor(qx), math.floor(qy)
            heat[0, det.cls, iy, ix] = 1.0
            cells.append((ix, iy))
            offsets.append((qx - ix, qy - iy))
    return {kind: (heat, np.array(cells, np.int64).reshape(-1, 2), np.array(offsets).reshape(-1, 2))
            for kind, (heat, cells, offsets) in targets.items()}


def attention_targets(boxes, map_hw, size_class, stride):
    """Binary training targets for one attention scale.

    Boxes whose longer side routes to ``size_class`` contribute one positive
    pixel at their center, mapped to map coordinates at the given stride and
    rounded half-up; one outside the map adds none.  ``stride`` is one number
    or a (y, x) pair.  Raises ``ValueError`` for a ``size_class`` that is not
    one of ``SIZE_CLASSES``, a stride that is not finite and > 0, and a box
    with a non-finite coordinate or a longer side < 0 (as ``size_class_of``).
    """
    _one_of("size_class", size_class, SIZE_CLASSES)
    pair = tuple(stride) if isinstance(stride, (tuple, list)) else (stride, stride)
    _require(len(pair) == 2 and all(0 < s < math.inf for s in pair), "stride",
             "be finite and > 0, one number or a (y, x) pair", stride)
    sy, sx = pair
    h, w = map_hw
    target = np.zeros((1, 1, h, w), dtype=np.float32)
    for x1, y1, x2, y2 in boxes:
        _require(all(map(math.isfinite, (x1, y1, x2, y2))), "boxes", "be finite", (x1, y1, x2, y2))
        if size_class_of(_longer_sides(x1, y1, x2, y2)) != size_class:
            continue
        mx = math.floor((x1 + x2) / 2.0 / sx + 0.5)
        my = math.floor((y1 + y2) / 2.0 / sy + 0.5)
        if 0 <= my < h and 0 <= mx < w:
            target[0, 0, my, mx] = 1.0
    return target


def _smooth_l1(d):
    d = np.abs(d)
    return np.where(d < 1.0, 0.5 * d * d, d - 0.5)


def pull_push_offset_losses(embeddings, offsets, gt_offsets):
    """Forward values of the grouping and offset losses.

    ``embeddings`` is (N, 2): each object's two corner embeddings.
    ``offsets`` / ``gt_offsets`` are (N, 2, 2): per object, per corner,
    (dx, dy).  pull penalizes within-object embedding spread, push rewards
    at-least-unit separation between object means, offset is the smooth-L1
    gap averaged over all offset components.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    _require(emb.size % 2 == 0, "embeddings", "hold (N, 2) values, two per object", emb.shape)
    emb = emb.reshape(-1, 2)
    n = emb.shape[0]
    if n == 0:
        return 0.0, 0.0, 0.0
    means = emb.mean(axis=1)
    pull = float(((emb - means[:, None]) ** 2).sum() / n)

    push = 0.0
    if n >= 2:
        diff = np.abs(means[:, None] - means[None, :])
        hinge = np.maximum(0.0, 1.0 - diff)
        push = float((hinge.sum() - n) / (n * (n - 1)))  # subtract the diagonal's n ones

    off = np.asarray(offsets, dtype=np.float64)
    gt = np.asarray(gt_offsets, dtype=np.float64)
    for name, arr in (("offsets", off), ("gt_offsets", gt)):
        _require(arr.size == 4 * n, name, f"hold (N, 2, 2) values for N = {n} objects", arr.shape)
    offset = float(_smooth_l1(off.reshape(n, 2, 2) - gt.reshape(n, 2, 2)).mean())
    return pull, push, offset
