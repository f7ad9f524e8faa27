"""Saccadic inference: find candidate locations on downsized images, zoom
into the promising ones, detect per crop, merge globally.

Geometry runs through tiny per-axis affine maps.  The canonical candidate
frame is the 255-longer-side downsized image; locations found on the
192-scale image are remapped into it before ranking, so suppression
distances and crop construction live in one coordinate system.
"""

import math
from dataclasses import dataclass, fields, asdict

import numpy as np

from .decode import (SIZE_CLASSES, Detection, _detections, _group_columns, _longer_sides,
                     _peak_columns, _size_index)
from .decode import group_corners, heatmap_peaks  # noqa: F401  perfbench/tracing.py wraps them here
from .graph import forward
from .kernels import (_bilinear_sample, _integer, _is_integer, _number, _one_of, _require,
                      as_tensor, resize_longer_side, zero_pad_to)

CROP_SIZE = 255
DOWNSIZE_SCALES = (255, 192)
SOURCES = ("box", "attention")  # candidate sources, in rank order


@dataclass(frozen=True)
class Affine:
    """Separable affine map between pixel frames: out = scale * p + offset."""

    sx: float
    sy: float
    ox: float = 0.0
    oy: float = 0.0

    def apply(self, x, y):
        return self.sx * x + self.ox, self.sy * y + self.oy

    def invert(self):
        return Affine(1.0 / self.sx, 1.0 / self.sy, -self.ox / self.sx, -self.oy / self.sy)

    def compose(self, inner):
        """self o inner: apply ``inner`` first, then this map."""
        return Affine(self.sx * inner.sx, self.sy * inner.sy,
                      self.sx * inner.ox + self.ox, self.sy * inner.oy + self.oy)

    def apply_box(self, boxes):
        """Map each (x1, y1, x2, y2) row of an (n, 4) float64 array, as ``apply`` a corner."""
        return boxes * (self.sx, self.sy, self.sx, self.sy) + (self.ox, self.oy, self.ox, self.oy)


def resize_affine(src_hw, dst_hw):
    """Map from resized-image pixels back to source pixels (half-pixel centers)."""
    sy = src_hw[0] / dst_hw[0]
    sx = src_hw[1] / dst_hw[1]
    return Affine(sx, sy, 0.5 * sx - 0.5, 0.5 * sy - 0.5)


@dataclass
class ObjectLocation:
    """A candidate object position in canonical downsized (255-frame) pixels."""

    x: float
    y: float
    size: str            # "small" | "medium" | "large"
    score: float
    source: str = "attention"   # "attention" | "box"
    scale: int = 255            # downsized image the candidate came from


@dataclass
class CropWindow:
    """A 255x255 window in zoom-enlarged coordinates plus its pixel mapping."""

    zoom: float
    x0: int
    y0: int
    size: int = CROP_SIZE
    to_original: Affine = None

    def to_dict(self):
        return asdict(self)


@dataclass
class SaccadeConfig:
    """The saccade's settings; soft-NMS decays by exp(-iou^2 / ``nms_sigma``)."""

    attention_threshold: float = 0.3
    zoom_small: float = 4.0
    zoom_medium: float = 2.0
    zoom_large: float = 1.0
    max_regions: int = 12
    suppress_radius: float = 16.0
    nms_sigma: float = 0.5
    nms_floor: float = 0.001
    boundary_margin: float = 0.0
    embed_threshold: float = 0.5
    corners_per_kind: int = 100

    def __post_init__(self):
        for f in fields(self):
            if f.type is float:
                _number(f.name, getattr(self, f.name))
        zooms = (self.zoom_small, self.zoom_medium, self.zoom_large)
        _require(zooms[0] > zooms[1] > zooms[2] >= 1.0, "zoom scales",
                 "satisfy small > medium > large >= 1", zooms)
        _integer("max_regions", self.max_regions)
        _integer("corners_per_kind", self.corners_per_kind)
        for name, ok, want in (
                ("attention_threshold", 0.0 < self.attention_threshold < 1.0, "lie in (0, 1)"),
                ("suppress_radius", self.suppress_radius >= 0, "be >= 0"),
                ("nms_sigma", self.nms_sigma > 0, "be > 0"),
                ("nms_floor", 0.0 <= self.nms_floor < 1.0, "lie in [0, 1)"),
                ("boundary_margin", 0.0 <= self.boundary_margin < CROP_SIZE / 2,
                 f"lie in [0, {CROP_SIZE / 2})"),
                ("embed_threshold", self.embed_threshold >= 0.0, "be >= 0")):
            _require(ok, name, want, getattr(self, name))

    def zoom_for(self, size):
        _one_of("size", size, SIZE_CLASSES)
        return getattr(self, f"zoom_{size}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown SaccadeConfig key(s) {unknown}")
        return cls(**d)


# ---- downsizing ----------------------------------------------------------------


def downsize_pair(image):
    """The padded 255x255 candidate frames plus their maps to source pixels.

    Returns one (frame, affine, content_hw) per ``DOWNSIZE_SCALES`` entry,
    the canonical 255 frame first; content dims mark where real pixels end
    and zero padding begins.  Raises ``ValueError`` for an image with a
    non-finite pixel: the one scan of the whole image ``run_saccade`` makes.
    """
    image = as_tensor(image, "image")
    if not np.isfinite(image).all():
        raise ValueError("image has non-finite (NaN or inf) pixels")
    frames = []
    for target in DOWNSIZE_SCALES:
        resized = resize_longer_side(image, target)
        content = resized.shape[2:]
        aff = resize_affine(image.shape[2:], content)
        frames.append((zero_pad_to(resized, CROP_SIZE, CROP_SIZE), aff, content))
    return frames


# ---- candidate locations --------------------------------------------------------


def extract_locations(attention_maps, threshold, strides):
    """One location per attention pixel scoring strictly above the threshold.

    ``attention_maps`` maps size class -> (1, 1, h, w) score map;
    ``strides`` maps size class -> frame pixels per map pixel.  Output is
    sorted by score descending, ties by (y, x, size) ascending, each with
    ``ObjectLocation``'s default source and scale.  Wraps ``_attention_columns``.
    Raises ``ValueError`` for a threshold that is not a number in (0, 1), a key
    that is not a size class, a map not shaped (1, 1, h, w) or holding a NaN
    or inf, and a missing stride or one that is not a finite number > 0.
    """
    _number("threshold", threshold)
    _require(0.0 < threshold < 1.0, "threshold", "be in (0, 1)", threshold)
    for size, arr in attention_maps.items():
        _one_of("attention_maps key", size, SIZE_CLASSES)
        name, stride = f"strides[{size!r}]", strides.get(size)
        _require(stride is not None, name, "be finite and > 0", stride)
        _number(name, stride)
        _require(0 < stride < math.inf, name, "be finite and > 0", stride)
        _require(np.ndim(arr) == 4 and np.shape(arr)[:2] == (1, 1), f"attention_maps[{size!r}]",
                 "be shaped (1, 1, h, w)", np.shape(arr))
        bad = np.asarray(arr)[~np.isfinite(arr)]
        _require(bad.size == 0, f"attention_maps[{size!r}]", "be finite", bad[:3].tolist())
    columns = np.column_stack(_attention_columns(attention_maps, threshold, strides)).tolist()
    return [ObjectLocation(x, y, SIZE_CLASSES[int(size)], score) for score, x, y, size in columns]


def _attention_columns(attention_maps, threshold, strides):
    """Array core of ``extract_locations``: float64 score, x, y and
    ``SIZE_CLASSES`` index columns of the pixels above ``threshold``, ranked
    by score descending, then y, then x, then size *name* ascending."""
    rows = [np.empty((0, 4))]
    for size, arr in attention_maps.items():
        scores = np.asarray(arr, dtype=np.float32)[0, 0]
        ys, xs = np.nonzero(scores > threshold)
        rows.append(np.column_stack((scores[ys, xs], xs * strides[size], ys * strides[size],
                                     np.full(len(xs), SIZE_CLASSES.index(size)))))
    score, x, y, size = np.concatenate(rows).T
    rank = np.lexsort((np.array(SIZE_CLASSES)[size.astype(int)], x, y, -score))
    return score[rank], x[rank], y[rank], size[rank]


def _suppress_columns(xs, ys, radius):
    """Array core of ``suppress_locations``: the indices kept from x, y columns in rank order."""
    live = np.ones(len(xs), dtype=bool)
    for i in range(len(xs)):
        if live[i]:
            dx = np.abs(xs[i + 1:] - xs[i])
            dy = np.abs(ys[i + 1:] - ys[i])
            # Python's max(dx, dy) keeps dx unless dy > dx, so a NaN in either
            # distance behaves as in the scalar loop
            live[i + 1:] &= np.where(dy > dx, dy, dx) > radius
    return np.flatnonzero(live)


def suppress_locations(locations, radius=16.0):
    """Greedy duplicate-location removal.

    Box-sourced candidates outrank every attention-sourced one; within a
    source, higher score wins (ties by y, then x).  Keeping a location
    removes all remaining ones within Chebyshev distance ``radius``.  Wraps
    ``_suppress_columns``.  Raises ``ValueError`` for a radius that is not a
    number >= 0, and a location whose source is not one of ``SOURCES``.
    """
    _number("radius", radius)
    _require(radius >= 0, "radius", "be >= 0", radius)
    for loc in locations:
        _one_of("location source", loc.source, SOURCES)
    pool = sorted(locations, key=lambda l: (SOURCES.index(l.source), -l.score, l.y, l.x))
    xs, ys = (np.array([getattr(l, axis) for l in pool], dtype=np.float64) for axis in "xy")
    return [pool[i] for i in _suppress_columns(xs, ys, radius)]


# ---- crops ----------------------------------------------------------------------


def make_crop(location, config, content_hw, frame_to_original):
    """Place a 255x255 window around the location in zoom-enlarged coordinates.

    The window is clamped to stay inside the enlarged content canvas where
    possible (shifted inward, never padded); when the canvas is smaller than
    the window it starts at 0 and sampling beyond reads zeros.  Raises
    ``ValueError`` for an unknown size, a ``location.x`` or ``.y`` that is not
    a finite number, a ``content_hw`` that is not two finite numbers >= 1,
    and a ``frame_to_original`` that is not an ``Affine``.
    """
    zoom = config.zoom_for(location.size)
    _require(np.shape(content_hw) == (2,) and np.asarray(content_hw).dtype.kind in "biuf",
             "content_hw", "hold two numbers (h, w)", content_hw)
    for name, value in (("location.x", location.x), ("location.y", location.y)):
        _number(name, value)
        _require(math.isfinite(value), name, "be finite", value)
    _require(np.isfinite(content_hw).all(), "content_hw", "be finite", content_hw)
    _require(min(content_hw) >= 1, "content_hw", "be >= 1", content_hw)
    _require(isinstance(frame_to_original, Affine), "frame_to_original", "be an Affine",
             frame_to_original)
    ch, cw = content_hw
    cx, cy = zoom * location.x, zoom * location.y
    canvas_w = int(round(cw * zoom))
    canvas_h = int(round(ch * zoom))
    x0 = int(round(cx)) - CROP_SIZE // 2
    y0 = int(round(cy)) - CROP_SIZE // 2
    x0 = max(0, min(x0, max(0, canvas_w - CROP_SIZE)))
    y0 = max(0, min(y0, max(0, canvas_h - CROP_SIZE)))
    # crop pixel -> enlarged -> frame (half-pixel centers) -> original
    crop_to_frame = Affine(1.0 / zoom, 1.0 / zoom,
                           (x0 + 0.5) / zoom - 0.5, (y0 + 0.5) / zoom - 0.5)
    return CropWindow(zoom=zoom, x0=x0, y0=y0,
                      to_original=frame_to_original.compose(crop_to_frame))


def crop_pixels(image, window):
    """Bilinearly sample the source image under the window's affine map.

    Sample points whose bilinear support falls outside the canvas read zero.
    Raises ``ValueError`` for a window size that is not an integer >= 1, a
    ``to_original`` that is not an ``Affine``, and a non-finite field of it.
    The pixels are not scanned for NaN or inf: a scan per crop would re-read
    the whole source image, which ``run_saccade`` scans once, through
    ``downsize_pair``.
    """
    image = as_tensor(image, "image")
    aff = window.to_original
    _require(isinstance(aff, Affine), "window to_original", "be an Affine", aff)
    _integer("window size", window.size)
    _require(np.isfinite([aff.sx, aff.sy, aff.ox, aff.oy]).all(), "window to_original",
             "be finite", aff)
    px = np.arange(window.size, dtype=np.float64)
    return _bilinear_sample(image, aff.sy * px + aff.oy, aff.sx * px + aff.ox,
                            zero_outside=True)


def _inside_margin(x1, y1, x2, y2, margin):
    """Whether a box (or each, given arrays) lies more than ``margin`` px inside the crop."""
    lo, hi = margin, CROP_SIZE - 1 - margin
    return (x1 > lo) & (y1 > lo) & (x2 < hi) & (y2 < hi)


def strip_boundary_boxes(dets, margin=0.0):
    """Drop detections whose box comes within ``margin`` (a number >= 0) px of a crop edge."""
    _number("margin", margin)
    _require(margin >= 0, "margin", "be >= 0", margin)
    return [d for d in dets if _inside_margin(*d.box, margin)]


# ---- merging ---------------------------------------------------------------------


def iou(box_a, box_b):
    """IoU of two boxes of 4 numbers (x1, y1, x2, y2), in float64 on ``float()`` of each
    coordinate whatever their dtype: 0.0 if they do not overlap, or on a NaN."""
    for name, box in (("box_a", box_a), ("box_b", box_b)):
        _require(len(box) == 4, name, "hold 4 coordinates (x1, y1, x2, y2)", box)
        for value in box:
            _number(f"{name} coordinate", value)
    ax1, ay1, ax2, ay2, bx1, by1, bx2, by2 = map(float, [*box_a, *box_b])
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if iw > 0 and ih > 0 and union > 0 else 0.0


def soft_nms(dets, sigma=0.5, score_floor=0.001):
    """Per-class Gaussian score-decay duplicate removal.

    Repeatedly keep the highest-scoring remaining box (ties: smallest box tuple
    first) and decay every other box by exp(-iou^2 / sigma).  Boxes whose score
    ends up (or starts) below ``score_floor`` are dropped.  Output sorts by final
    score, then class, then box.  Raises ``ValueError`` for a ``sigma`` that is
    not a number > 0, a ``score_floor`` outside [0, 1) (as ``SaccadeConfig``),
    and a detection with a non-finite score or box coordinate.

    Each class's pool is held once as contiguous ``x1, y1, x2, y2`` and
    ``area`` columns in box order, with scratch buffers filled in place.  A
    kept or dropped box stays in the columns, dead, with score ``-inf``; a
    pick computes IoU and decay only for live boxes that overlap it, so a
    dead one is never multiplied again.  The columns are compacted once more
    than half of them are dead.  The arithmetic per pair is that of
    ``iou()``, so every score is bit-equal to the plain greedy loop.

    The decay must be the ``math.exp`` of that loop, which is the C library's
    ``exp``.  Plain ``np.exp`` runs numpy's own vectorized float64 routine, which
    differs from it in the last bit on a few percent of values.  numpy's complex
    ``exp`` calls the C library's ``cexp``, and for a zero imaginary part glibc's
    ``cexp`` returns ``exp(x) * 1.0``: the same value, for a whole array in one call.
    """
    for name, value in (("sigma", sigma), ("score_floor", score_floor)):
        _number(name, value)
    _require(sigma > 0, "sigma", "be > 0", sigma)
    _require(0.0 <= score_floor < 1.0, "score_floor", "be in [0, 1)", score_floor)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    boxes = np.array([d.box for d in dets], dtype=np.float64).reshape(len(dets), 4)
    bad = np.flatnonzero(~(np.isfinite(scores) & np.isfinite(boxes).all(axis=1)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"detection {i} has a non-finite score or box: {dets[i]}")
    classes = np.array([d.cls for d in dets])
    out = []
    for cls in np.unique(classes).tolist():
        idx = np.flatnonzero((classes == cls) & (scores >= score_floor))
        # box order once: argmax then returns the smallest box among equal
        # top scores, the same pick as sorting by (-score, box) every round
        idx = idx[np.lexsort(boxes[idx].T[::-1])]
        s = scores[idx]
        x1, y1, x2, y2 = (np.ascontiguousarray(c) for c in boxes[idx].T)
        area = (x2 - x1) * (y2 - y1)
        n, dead = idx.size, 0
        iw, ih, tmp = np.empty(n), np.empty(n), np.empty(n)
        hit_mask, alive = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        while dead < n:
            best = int(s.argmax())
            out.append(Detection(cls, float(s[best]), dets[idx[best]].box))
            s[best] = -np.inf
            dead += 1
            np.minimum(x2[best], x2, out=iw)
            np.subtract(iw, np.maximum(x1[best], x1, out=tmp), out=iw)
            np.minimum(y2[best], y2, out=ih)
            np.subtract(ih, np.maximum(y1[best], y1, out=tmp), out=ih)
            np.greater(np.minimum(iw, ih, out=tmp), 0.0, out=hit_mask)
            np.logical_and(hit_mask, np.greater(s, -np.inf, out=alive), out=hit_mask)
            hit = hit_mask.nonzero()[0]
            inter = iw[hit] * ih[hit]
            union = area[best] + area[hit] - inter
            if not union.min(initial=np.inf) > 0:  # rare: degenerate or NaN unions
                pos = union > 0
                hit, inter, union = hit[pos], inter[pos], union[pos]
            ov = np.divide(inter, union, out=inter)
            # libm's exp through complex cexp: see the docstring
            decayed = s[hit] * np.exp((-(ov * ov) / sigma).astype(np.complex128)).real
            dropped = ~(decayed >= score_floor)  # not <, so a NaN score is dropped as well
            n_dropped = int(np.count_nonzero(dropped))
            if n_dropped:
                decayed[dropped] = -np.inf
                dead += n_dropped
            s[hit] = decayed
            if 2 * dead > n:
                live = s > -np.inf
                idx, s, x1, y1, x2, y2, area = (c[live] for c in (idx, s, x1, y1, x2, y2, area))
                n, dead = idx.size, 0
                iw, ih, tmp, hit_mask, alive = (c[:n] for c in (iw, ih, tmp, hit_mask, alive))
    out.sort(key=lambda d: (-d.score, d.cls, d.box))
    return out


# ---- models ----------------------------------------------------------------------


class GraphModel:
    """Adapter running an ArchGraph, with its attached weights, as a model:
    ``infer`` returns ``forward``'s ``{tap name: map}``.  It serves frames of
    any size the graph's shape rules accept, with the same weights.  Raises
    ``ValueError`` for a graph without weights or without the six corner taps."""

    def __init__(self, graph):
        if not graph.params:
            raise ValueError("graph has no weights attached; call init_weights or load them")
        missing = [name for name in _CORNER_TAPS if name not in graph.taps]
        _require(not missing, "graph taps", f"include the corner taps {missing}", [*graph.taps])
        self.graph = graph

    def infer(self, image, to_original=None):
        return forward(self.graph, image)


_CORNER_TAPS = {f"{kind}_{part}": channels for kind in ("tl", "br")  # heat: the class count
                for part, channels in (("heat", None), ("embed", 1), ("off", 2))}


def _checked_map(frame, label, arr, channels=None, unit=False):
    """One model map of a frame as an array, shaped (1, C, H, W), finite,
    with ``channels`` channels if given and, if ``unit``, within [0, 1]."""
    where = f"model output for frame {frame}"
    arr = np.asarray(arr)
    if arr.ndim != 4 or arr.shape[0] != 1:
        raise ValueError(f"{where}: {label} must be shaped (1, C, H, W), got {arr.shape}")
    if channels is not None and arr.shape[1] != channels:
        raise ValueError(f"{where}: {label} must have {channels} channel(s), got {arr.shape[1]}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{where}: {label} holds non-finite values")
    if unit and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError(f"{where}: {label} lies outside [0, 1] "
                         f"(min {arr.min()}, max {arr.max()})")
    return arr


def _checked_corner_maps(out, frame):
    """The six corner taps of one model output, ``{tap name: map}``, checked.

    Raises a ``ValueError`` naming the frame (``255``, ``192``, ``crop 3``)
    and the tap for an output that is not a dict, missing taps (all in one
    message), a map not shaped (1, C, H, W), ``tl_heat`` and ``br_heat``
    class counts that differ, an ``_off`` other than 2 or an ``_embed`` other
    than 1 channel, maps that disagree in H x W, a non-finite value, or a
    heatmap value outside [0, 1].  Other taps are not read.
    """
    where = f"model output for frame {frame}"
    if not isinstance(out, dict):
        raise ValueError(f"{where} must be a dict keyed by tap name, got {type(out).__name__}")
    missing = [name for name in _CORNER_TAPS if name not in out]
    if missing:
        raise ValueError(f"{where}: " + ", ".join(f"{name} is missing" for name in missing))
    maps = {name: _checked_map(frame, name, out[name], channels, unit=name.endswith("heat"))
            for name, channels in _CORNER_TAPS.items()}
    hw = maps["tl_heat"].shape[2:]
    for name, arr in maps.items():
        if arr.shape[2:] != hw:
            raise ValueError(f"{where}: {name} is {arr.shape[2:]} (H, W), tl_heat is {hw}")
    if maps["tl_heat"].shape[1] != maps["br_heat"].shape[1]:
        raise ValueError(f"{where}: tl_heat has {maps['tl_heat'].shape[1]} classes, "
                         f"br_heat has {maps['br_heat'].shape[1]}")
    return maps


def _infer_once(infer, frame, to_original, outputs):
    """``infer(frame, to_original)``, or the output it gave an earlier frame
    with an equal ``to_original`` and the same shape, dtype and bytes.

    ``outputs`` maps each ``to_original`` to every (frame, output) pair made
    under it; bytes are read only on a shared ``to_original``, and they decide:
    a crop whose padding holds -0.0 where the frame holds +0.0 runs again.
    """
    pairs = outputs.setdefault(to_original, [])
    for pixels, out in pairs:
        if (pixels.shape == frame.shape and pixels.dtype == frame.dtype
                and pixels.tobytes() == frame.tobytes()):
            return out
    pairs.append((frame, infer(frame, to_original)))
    return pairs[-1][1]


def _detect_frame(out, name, config):
    """The class, score and (n, 4) frame-pixel box columns of the detections
    in one 255x255 frame's model output scoring at least ``nms_floor``."""
    maps = _checked_corner_maps(out, name)
    tl, br = (_peak_columns(maps[f"{kind}_heat"], config.corners_per_kind, maps[f"{kind}_off"],
                            maps[f"{kind}_embed"]) for kind in ("tl", "br"))
    factor = CROP_SIZE / maps["tl_heat"].shape[2]
    return _group_columns(tl, br, config.embed_threshold, factor, config.nms_floor)


# ---- the full pipeline ------------------------------------------------------------


def _clamp_boxes(boxes, width, height):
    """Clamp (n, 4) boxes into the image as ``min(max(v, 0.0), side - 1.0)``
    does, keeping -0.0 and NaN (``np.clip`` and ``np.maximum`` give +0.0)."""
    hi = np.array([width - 1.0, height - 1.0, width - 1.0, height - 1.0])
    boxes = np.where(0.0 > boxes, 0.0, boxes)
    return np.where(hi < boxes, hi, boxes)


def _candidates(source, score, x, y, size, scale):
    """(n, 6) float rows of source index, score, x, y, size index and scale."""
    return np.column_stack(np.broadcast_arrays(SOURCES.index(source), score, x, y, size, scale))


def _location(row):
    source, score, x, y, size, scale = row
    return ObjectLocation(x, y, SIZE_CLASSES[int(size)], score, SOURCES[int(source)], int(scale))


def _location_records(candidates, kept):
    """The trace's dict per candidate row: ``ObjectLocation``'s fields in
    order, then whether suppression ``kept`` the row."""
    flags = np.zeros(len(candidates), dtype=bool)
    flags[kept] = True
    return [{"x": x, "y": y, "size": SIZE_CLASSES[int(size)], "score": score,
             "source": SOURCES[int(source)], "scale": int(scale), "kept": flag}
            for (source, score, x, y, size, scale), flag
            in zip(candidates.tolist(), flags.tolist())]


def _frame_pass(frames, infer, outputs, config):
    """Candidate rows in the canonical 255 frame, every box row before every
    attention row, and each frame's class, score and source-pixel box columns."""
    to_canonical = frames[0][1].invert()
    box_rows, attention_rows, columns = [], [], []
    for i, ((frame, aff, _), tag) in enumerate(zip(frames, DOWNSIZE_SCALES)):
        out = _infer_once(infer, frame, aff, outputs)
        cls, score, boxes = _detect_frame(out, tag, config)
        remap = to_canonical.compose(aff) if i else Affine(1.0, 1.0)
        attention = {size: _checked_map(tag, f"attn {size}", out[f"attn_{size}"], 1, unit=True)
                     for size in SIZE_CLASSES if f"attn_{size}" in out}
        strides = {size: CROP_SIZE / arr.shape[2] for size, arr in attention.items()}
        peak, x, y, size = _attention_columns(attention, config.attention_threshold, strides)
        attention_rows.append(_candidates("attention", peak, *remap.apply(x, y), size, tag))
        strong = score > config.attention_threshold
        x1, y1, x2, y2 = remap.apply_box(boxes[strong]).T
        box_rows.append(_candidates("box", score[strong], (x1 + x2) / 2.0, (y1 + y2) / 2.0,
                                    _size_index(_longer_sides(x1, y1, x2, y2)), tag))
        columns.append((cls, score, aff.apply_box(boxes)))
    return np.concatenate(box_rows + attention_rows), columns


def _select_crops(candidates, frame255, config):
    """The kept candidate rows in rank order, the first ``max_regions`` as
    ``ObjectLocation``s, and their windows on ``frame255``, the first frame triple."""
    source, priority, x, y = candidates.T[:4]
    rank = np.lexsort((x, y, -priority, source))  # stable: suppress_locations' sort on finite keys
    kept = rank[_suppress_columns(x[rank], y[rank], config.suppress_radius)]
    selected = [_location(row) for row in candidates[kept[:config.max_regions]].tolist()]
    return kept, selected, [make_crop(loc, config, frame255[2], frame255[1]) for loc in selected]


def _crop_pass(image, windows, crop_order, infer, outputs, config):
    """Each window's class, score and source-pixel box columns inside
    ``boundary_margin``, in window order; the windows run in ``crop_order``."""
    order = list(crop_order) if crop_order is not None else list(range(len(windows)))
    _require(all(_is_integer(i, 0) for i in order) and sorted(order) == list(range(len(windows))),
             "crop_order", f"be a permutation of range({len(windows)})", crop_order)
    columns = [None] * len(windows)
    for idx in order:
        window = windows[idx]
        out = _infer_once(infer, crop_pixels(image, window), window.to_original, outputs)
        cls, score, boxes = _detect_frame(out, f"crop {idx}", config)
        inside = _inside_margin(*boxes.T, config.boundary_margin)
        columns[idx] = (cls[inside], score[inside], window.to_original.apply_box(boxes[inside]))
    return columns


def _merge(columns, width, height, config):
    """``soft_nms`` of every column's detections, boxes clamped into the image."""
    cls, score, boxes = (np.concatenate(column) for column in zip(*columns))
    merged = _detections(cls, score, _clamp_boxes(boxes, width, height))
    return soft_nms(merged, sigma=config.nms_sigma, score_floor=config.nms_floor)


def run_saccade(image, model, config=None, trace=None, crop_order=None):
    """Full inference: the frame pass, crop selection, the crop pass and the merge.

    ``model.infer(frame, to_original)`` returns ``{tap name: map}``: the six corner
    taps (``tl_heat``, ``tl_embed``, ``tl_off``, the same for ``br``) and, on the
    downsized frames, any ``attn_<size>``; other taps are ignored.  It runs once per
    distinct input (see ``_infer_once``), and each frame and crop decodes on its own.
    A dict ``trace`` collects locations, suppression decisions, crop windows, pixel
    counts (``pixels_processed`` counts every frame and crop) and ``n_model_calls``.
    ``crop_order`` permutes the crop pass, which leaves the result unchanged.  Raises
    ``ValueError`` for a ``model`` without ``infer`` (wrap an ``ArchGraph`` in
    ``GraphModel``), a ``config`` that is neither None nor a ``SaccadeConfig``, an image
    with a batch other than 1 or a non-finite pixel, bad corner or attention maps, and a
    ``crop_order`` that is not a permutation of the integer crop indices.
    """
    _require(callable(getattr(model, "infer", None)), "model",
             "provide infer(frame, to_original)", type(model).__name__)
    _require(config is None or isinstance(config, SaccadeConfig), "config",
             "be None or a SaccadeConfig (see SaccadeConfig.from_dict)", config)
    config = SaccadeConfig() if config is None else config
    image = as_tensor(image, "image")
    _require(image.shape[0] == 1, "image", "hold a single picture (batch 1)", image.shape)
    _, _, img_h, img_w = image.shape

    frames = downsize_pair(image)
    n_model_calls = 0
    outputs = {}  # to_original -> every (frame, model output) under it

    def infer(frame, to_original):
        nonlocal n_model_calls
        n_model_calls += 1
        return model.infer(frame, to_original)

    candidates, frame_columns = _frame_pass(frames, infer, outputs, config)
    kept, selected, windows = _select_crops(candidates, frames[0], config)
    crop_columns = _crop_pass(image, windows, crop_order, infer, outputs, config)
    final = _merge(frame_columns + crop_columns, img_w, img_h, config)

    if trace is not None:
        trace["locations"] = _location_records(candidates, kept)
        trace["n_locations"] = len(candidates)
        trace["n_kept_locations"] = len(kept)
        trace["crops"] = [{**w.to_dict(), "n_detections": len(score), "size_class": loc.size}
                          for w, loc, (_, score, _) in zip(windows, selected, crop_columns)]
        trace["n_crops"] = len(windows)
        trace["n_downsized_detections"] = sum(len(score) for _, score, _ in frame_columns)
        trace["pixels_processed"] = (len(frames) + len(windows)) * CROP_SIZE * CROP_SIZE
        trace["n_model_calls"] = n_model_calls
        trace["pixels_full_resolution"] = img_h * img_w
        trace["pixels_ratio"] = trace["pixels_processed"] / trace["pixels_full_resolution"]
        trace["n_detections"] = len(final)
    return final
