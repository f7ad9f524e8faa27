import math

import numpy as np
import pytest

from fovea import naive
from fovea.decode import (SIZE_CLASSES, Corner, Detection, _peak_columns, _size_index,
                          attention_targets, corner_targets, focal_loss, group_corners,
                          heatmap_peaks,
                          pull_push_offset_losses, size_class_of)
from fovea.kernels import max_pool2d


# ---- heatmap peaks -------------------------------------------------------------


def test_single_planted_peak():
    heat = np.zeros((1, 2, 8, 8), np.float32)
    heat[0, 1, 3, 5] = 0.9
    corners = heatmap_peaks(heat, k=5)
    strong = [c for c in corners if c.score > 0]
    assert len(strong) == 1
    c = strong[0]
    assert (c.cls, c.y, c.x, c.score) == (1, 3, 5, np.float32(0.9))


def test_uniform_heatmap_tie_break_order():
    heat = np.full((1, 1, 4, 4), 0.3, np.float32)
    corners = heatmap_peaks(heat, k=5)
    assert len(corners) == 5
    assert [(c.cls, c.y, c.x) for c in corners] == [(0, 0, 0), (0, 0, 1), (0, 0, 2),
                                                    (0, 0, 3), (0, 1, 0)]


def _peaks_oracle(heat, k):
    """Exhaustive scan: window maxima via loop pooling, then sort and cut."""
    pooled = naive.max_pool2d_naive(heat, 3, 1, 1)
    rows = []
    _, C, H, W = heat.shape
    for c in range(C):
        for y in range(H):
            for x in range(W):
                if heat[0, c, y, x] >= pooled[0, c, y, x]:
                    rows.append((c, y, x, float(heat[0, c, y, x])))
    rows.sort(key=lambda r: (-r[3], r[0], r[1], r[2]))
    return rows[:k]


def test_peaks_match_exhaustive_scan():
    heat = np.random.default_rng(0).uniform(0, 1, (1, 2, 16, 16)).astype(np.float32)
    corners = heatmap_peaks(heat, k=10)
    want = _peaks_oracle(heat, 10)
    got = [(c.cls, c.y, c.x, c.score) for c in corners]
    assert [(c, y, x) for c, y, x, _ in got] == [(c, y, x) for c, y, x, _ in want]
    np.testing.assert_allclose([s for *_, s in got], [s for *_, s in want], rtol=1e-6)


def test_peaks_gather_offsets_and_embeddings():
    heat = np.zeros((1, 1, 4, 4), np.float32)
    heat[0, 0, 2, 1] = 0.8
    off = np.zeros((1, 2, 4, 4), np.float32)
    off[0, 0, 2, 1] = 0.25  # x first
    off[0, 1, 2, 1] = 0.75
    emb = np.zeros((1, 1, 4, 4), np.float32)
    emb[0, 0, 2, 1] = 3.0
    c = heatmap_peaks(heat, k=1, offsets=off, embeddings=emb, kind="br")[0]
    assert (c.dx, c.dy, c.embed, c.kind) == (0.25, 0.75, 3.0, "br")


def _peaks_lexsort(heat, k, offsets=None, embeddings=None, kind="tl"):
    """The former heatmap_peaks order and readout: a 4-key lexsort, then
    scalar reads per corner."""
    pooled = naive.max_pool2d_naive(heat, 3, 1, 1)
    cs, ys, xs = np.nonzero(heat[0] >= pooled[0])
    scores = heat[0, cs, ys, xs]
    corners = []
    for idx in np.lexsort((xs, ys, cs, -scores))[:k]:
        c, y, x = int(cs[idx]), int(ys[idx]), int(xs[idx])
        corner = Corner(cls=c, score=float(scores[idx]), x=x, y=y, kind=kind)
        if offsets is not None:
            corner.dx = float(offsets[0, 0, y, x])
            corner.dy = float(offsets[0, 1, y, x])
        if embeddings is not None:
            corner.embed = float(embeddings[0, 0, y, x])
        corners.append(corner)
    return corners


def _peak_fixtures():
    rng = np.random.default_rng(12)
    plateau = np.zeros((1, 3, 24, 24), np.float32)  # every pixel survives
    plateau[0, 1, 5, 5] = 0.5
    cross = np.zeros((1, 3, 16, 16), np.float32)  # equal peaks in every class
    cross[0, :, 4, 9] = 0.7
    cross[0, :, 12, 2] = 0.7
    cross[0, 2, 8, 8] = 0.9
    coarse = (rng.integers(0, 4, (1, 2, 20, 20)) / 4).astype(np.float32)
    noisy = rng.uniform(0, 1, (1, 3, 32, 32)).astype(np.float32)
    return [(plateau, 100), (plateau, 5000), (cross, 3), (cross, 50), (coarse, 100),
            (noisy, 1000)]


@pytest.mark.parametrize("case", range(6))
def test_peaks_match_lexsort_reference_exactly(case):
    heat, k = _peak_fixtures()[case]
    rng = np.random.default_rng(case)
    h, w = heat.shape[2:]
    off = rng.uniform(-1, 1, (1, 2, h, w)).astype(np.float32)
    emb = rng.normal(size=(1, 1, h, w)).astype(np.float32)
    for kw in ({}, {"offsets": off, "embeddings": emb, "kind": "br"}):
        got = heatmap_peaks(heat, k, **kw)
        want = _peaks_lexsort(heat, k, **kw)
        assert got == want
        assert all(type(c.score) is float and type(c.dx) is float for c in got)


def _peak_columns_nonzero(heatmaps, k, offsets=None, embeddings=None):
    """The former _peak_columns: (class, y, x) index arrays from np.nonzero
    and a 3-index gather over every survivor, then the same stable argsort."""
    heat = np.asarray(heatmaps, dtype=np.float32)
    pooled = max_pool2d(heat, 3, 1, 1)
    cs, ys, xs = np.nonzero((heat >= pooled)[0])
    scores = heat[0, cs, ys, xs]
    order = np.argsort(-scores, kind="stable")[:k]
    cs, ys, xs = cs[order], ys[order], xs[order]

    def read(maps, channel):
        if maps is None:
            return np.zeros(len(order))
        return np.asarray(maps[0, channel, ys, xs], dtype=np.float64)

    return cs, scores[order], xs, ys, read(offsets, 0), read(offsets, 1), read(embeddings, 0)


def _peak_column_fixtures():
    # the lexsort fixtures hold the zero plateaus, tied scores and k above
    # the survivor count; add k = 1 and non-contiguous heatmaps
    fixtures = _peak_fixtures()
    (plateau, _), (cross, _) = fixtures[0], fixtures[2]
    wide = np.random.default_rng(31).uniform(0, 1, (1, 3, 50, 70)).astype(np.float32)
    return fixtures + [(plateau, 1), (cross, 1), (wide[:, :, ::2, 1::3], 30),
                       (np.swapaxes(wide, 2, 3), 100)]


@pytest.mark.parametrize("case", range(10))
def test_peak_columns_bytes_match_nonzero_reference(case):
    heat, k = _peak_column_fixtures()[case]
    rng = np.random.default_rng(case)
    h, w = heat.shape[2:]
    off = rng.uniform(-1, 1, (1, 2, h, w)).astype(np.float32)
    emb = rng.normal(size=(1, 1, h, w)).astype(np.float32)
    for maps in ((None, None), (off, emb)):
        got = _peak_columns(heat, k, *maps)
        want = _peak_columns_nonzero(heat, k, *maps)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes()


def test_peaks_rejects_bad_k():
    with pytest.raises(ValueError, match="k must be"):
        heatmap_peaks(np.zeros((1, 1, 4, 4), np.float32), 0)


# ---- grouping ------------------------------------------------------------------


def _corner(kind, cls, score, x, y, dx=0.0, dy=0.0, embed=0.0):
    return Corner(cls=cls, score=score, x=x, y=y, dx=dx, dy=dy, embed=embed, kind=kind)


def test_group_single_valid_pair():
    tl = [_corner("tl", 0, 0.8, 2, 3, embed=1.0)]
    br = [_corner("br", 0, 0.6, 10, 12, embed=1.0)]
    dets = group_corners(tl, br, embed_threshold=0.5, downsample_factor=4.0)
    assert len(dets) == 1
    d = dets[0]
    assert d.cls == 0
    assert d.score == pytest.approx((0.8 + 0.6) / 2)
    assert d.box == (8.0, 12.0, 40.0, 48.0)


def test_group_geometry_gate():
    tl = [_corner("tl", 0, 0.8, 12, 3, embed=1.0)]
    br = [_corner("br", 0, 0.6, 10, 12, embed=1.0)]  # x_tl > x_br
    assert group_corners(tl, br) == []


def test_group_embedding_gate_and_class_gate():
    tl = [_corner("tl", 0, 0.8, 2, 3, embed=0.0)]
    br = [_corner("br", 0, 0.6, 10, 12, embed=0.6)]
    assert group_corners(tl, br, embed_threshold=0.5) == []
    br[0].embed = 0.5  # boundary is inclusive
    assert len(group_corners(tl, br, embed_threshold=0.5)) == 1
    br[0].cls = 1
    assert group_corners(tl, br, embed_threshold=0.5) == []


def _group_oracle(tls, brs, threshold, factor):
    dets = []
    for tl in tls:
        for br in brs:
            x1, y1 = (tl.x + tl.dx) * factor, (tl.y + tl.dy) * factor
            x2, y2 = (br.x + br.dx) * factor, (br.y + br.dy) * factor
            if tl.cls == br.cls and abs(tl.embed - br.embed) <= threshold \
                    and x1 <= x2 and y1 <= y2:
                dets.append((tl.cls, (tl.score + br.score) / 2, (x1, y1, x2, y2)))
    dets.sort(key=lambda d: (-d[1], d[0], d[2]))
    return dets


def test_group_matches_all_pairs_oracle():
    rng = np.random.default_rng(1)
    tls = [_corner("tl", int(rng.integers(0, 2)), float(rng.uniform(0, 1)),
                   int(rng.integers(0, 16)), int(rng.integers(0, 16)),
                   float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
                   float(rng.uniform(0, 3))) for _ in range(5)]
    brs = [_corner("br", int(rng.integers(0, 2)), float(rng.uniform(0, 1)),
                   int(rng.integers(0, 16)), int(rng.integers(0, 16)),
                   float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
                   float(rng.uniform(0, 3))) for _ in range(5)]
    got = [(d.cls, d.score, d.box) for d in group_corners(tls, brs, 0.7, 4.0)]
    want = _group_oracle(tls, brs, 0.7, 4.0)
    assert len(got) == len(want) <= 25
    for g, w in zip(got, want):
        assert g[0] == w[0]
        assert g[1] == pytest.approx(w[1])
        assert g[2] == pytest.approx(w[2])
    for d in group_corners(tls, brs, 0.7, 4.0):
        assert d.box[0] <= d.box[2] and d.box[1] <= d.box[3]


def _group_corners_loop(tl_corners, br_corners, embed_threshold, downsample_factor):
    """The scalar all-pairs loop ``group_corners`` vectorizes, kept as its
    bit-exact reference."""
    dets = []
    for tl in tl_corners:
        x1 = (tl.x + tl.dx) * downsample_factor
        y1 = (tl.y + tl.dy) * downsample_factor
        for br in br_corners:
            if tl.cls != br.cls:
                continue
            if abs(tl.embed - br.embed) > embed_threshold:
                continue
            x2 = (br.x + br.dx) * downsample_factor
            y2 = (br.y + br.dy) * downsample_factor
            if x1 > x2 or y1 > y2:
                continue
            dets.append(Detection(tl.cls, (tl.score + br.score) / 2.0, (x1, y1, x2, y2)))
    dets.sort(key=lambda d: (-d.score, d.cls, d.box))
    return dets


def _tied_corners(rng, n, kind, classes=3):
    """Corners on a coarse grid: equal scores, equal embeddings, equal
    offsets and equal boxes recur, across mixed classes."""
    return [_corner(kind, int(rng.integers(0, classes)), float(rng.integers(1, 5)) / 4,
                    int(rng.integers(0, 12)), int(rng.integers(0, 12)),
                    float(rng.integers(0, 3)) / 2, float(rng.integers(0, 3)) / 2,
                    float(rng.integers(0, 5)) / 4)
            for _ in range(n)]


@pytest.mark.parametrize("threshold", [0.0, 0.5])
@pytest.mark.parametrize("n", [1, 30, 100])
def test_group_matches_scalar_loop_exactly(n, threshold):
    rng = np.random.default_rng(n)
    tls, brs = _tied_corners(rng, n, "tl"), _tied_corners(rng, n, "br")
    got = group_corners(tls, brs, threshold, 255 / 64)
    want = _group_corners_loop(tls, brs, threshold, 255 / 64)
    assert [(d.cls, d.score, d.box) for d in got] == [(d.cls, d.score, d.box) for d in want]
    assert all(type(d.cls) is int and type(d.score) is float
               and all(type(v) is float for v in d.box) for d in got)


def test_group_empty_inputs():
    corners = _tied_corners(np.random.default_rng(2), 5, "tl")
    assert group_corners([], corners) == []
    assert group_corners(corners, []) == []
    assert group_corners([], []) == []


# ---- focal loss ----------------------------------------------------------------


def test_focal_loss_perfect_prediction():
    gt = np.zeros((8, 8))
    gt[2, 3] = 1
    assert focal_loss(gt.copy(), gt) <= 1e-6


def test_focal_loss_single_positive_half():
    pred = np.array([[0.5]])
    gt = np.array([[1.0]])
    want = (1 - 0.5) ** 2 * (-math.log(0.5))  # 0.25 * 0.693147 = 0.173287
    assert focal_loss(pred, gt, alpha=2.0) == pytest.approx(0.173287, abs=1e-5)
    assert focal_loss(pred, gt, alpha=2.0) == pytest.approx(want, rel=1e-9)


def _focal_oracle(pred, gt, alpha):
    eps = 1e-7
    total = 0.0
    n_pos = 0
    for p, g in zip(pred.ravel().tolist(), gt.ravel().tolist()):
        p = min(max(p, eps), 1 - eps)
        if g == 1:
            n_pos += 1
            total += (1 - p) ** alpha * math.log(p)
        else:
            total += p ** alpha * math.log(1 - p)
    return -total / max(1, n_pos)


def test_focal_loss_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for trial in range(5):
        pred = rng.uniform(0.01, 0.99, (8, 8))
        gt = (rng.uniform(0, 1, (8, 8)) < 0.1).astype(np.float64)
        got = focal_loss(pred, gt, alpha=2.0)
        assert got == pytest.approx(_focal_oracle(pred, gt, 2.0), rel=1e-6)
        assert got >= 0


def test_focal_loss_monotone_in_positive_prediction():
    gt = np.zeros((4, 4))
    gt[1, 1] = 1
    base = np.full((4, 4), 0.3)
    losses = []
    for p in (0.2, 0.5, 0.8, 0.99):
        pred = base.copy()
        pred[1, 1] = p
        losses.append(focal_loss(pred, gt))
    assert losses == sorted(losses, reverse=True)


def test_focal_loss_rejects_non_binary_gt():
    with pytest.raises(ValueError, match="binary"):
        focal_loss(np.full((2, 2), 0.5), np.full((2, 2), 0.5))


# ---- attention targets ---------------------------------------------------------


def test_size_routing_thresholds():
    assert size_class_of(31) == "small"
    assert size_class_of(32) == "medium"
    assert size_class_of(96) == "medium"
    assert size_class_of(97) == "large"


def test_size_index_routes_arrays_as_size_class_of():
    sides = [31.999, 32.0, 96.0, 96.0001, 500.0]
    want = [SIZE_CLASSES.index(size_class_of(s)) for s in sides]
    assert want == [0, 1, 1, 2, 2]
    assert _size_index(np.array(sides)).tolist() == [_size_index(s) for s in sides] == want
    assert _size_index(math.nan) == 2 and _size_index(np.array([math.nan])).tolist() == [2]


def test_attention_targets_route_by_longer_side():
    boxes = [(10, 10, 41, 20)]  # longer side 31 -> small
    small = attention_targets(boxes, (16, 16), "small", stride=4)
    medium = attention_targets(boxes, (8, 8), "medium", stride=8)
    assert small.sum() == 1 and medium.sum() == 0
    boxes = [(10, 10, 42, 20)]  # longer side 32 -> medium
    assert attention_targets(boxes, (16, 16), "small", stride=4).sum() == 0
    assert attention_targets(boxes, (8, 8), "medium", stride=8).sum() == 1
    boxes = [(10, 10, 107, 20)]  # longer side 97 -> large
    assert attention_targets(boxes, (8, 8), "large", stride=16).sum() == 1


def test_attention_targets_center_position():
    t = attention_targets([(8, 16, 24, 32)], (16, 16), "small", stride=4)
    # center (16, 24) -> map (4, 6) after half-up rounding
    assert t[0, 0, 6, 4] == 1 and t.sum() == 1


def test_attention_targets_empty():
    assert attention_targets([], (8, 8), "small", stride=4).sum() == 0


def test_attention_targets_take_the_stride_per_axis():
    boxes = [(8, 16, 24, 32), (0.0, 0.0, 10.0, 3.0)]  # centres (16, 24) and (5, 1.5)
    one = attention_targets(boxes, (16, 16), "small", stride=4)
    assert one.tobytes() == attention_targets(boxes, (16, 16), "small", (4, 4.0)).tobytes()
    # y at 8 px per pixel, x at 2: (16, 24) -> (8, 3) and (5, 1.5) -> (3, 0) half-up
    t = attention_targets(boxes, (16, 16), "small", stride=[8, 2])
    assert t[0, 0, 3, 8] == 1 and t[0, 0, 0, 3] == 1 and t.sum() == 2


# ---- corner targets ------------------------------------------------------------


def test_corner_targets_place_cells_and_offsets():
    gt = [Detection(1, 1.0, (10.0, 30.0, 30.5, 63.0)), Detection(0, 1.0, (0.0, 4.0, 7.0, 7.5))]
    targets = corner_targets(gt, 2, (64, 32), (16, 16))  # 4 px per cell in y, 2 in x
    heat, cells, offsets = targets["tl"]
    assert heat.shape == (1, 2, 16, 16) and heat.dtype == np.float32
    assert cells.tolist() == [[5, 7], [0, 1]]
    assert offsets.tolist() == [[0.0, 0.5], [0.0, 0.0]]
    assert heat[0, 1, 7, 5] == heat[0, 0, 1, 0] == 1 and heat.sum() == 2
    heat, cells, offsets = targets["br"]
    assert cells.tolist() == [[15, 15], [3, 1]] and offsets.tolist() == [[0.25, 0.75], [0.5, 0.875]]
    assert heat[0, 1, 15, 15] == heat[0, 0, 1, 3] == 1 and heat.sum() == 2


def test_corner_targets_invert_through_the_downsample_factor():
    # (cell + offset) * f, as group_corners applies it, gives the corners back
    rng = np.random.default_rng(5)
    corners = rng.uniform(0, 255, (20, 2))
    gt = [Detection(0, 1.0, (*np.minimum(a, b), *np.maximum(a, b)))
          for a, b in zip(corners[:10], corners[10:])]
    for kind, axes in (("tl", slice(0, 2)), ("br", slice(2, 4))):
        _, cells, offsets = corner_targets(gt, 1, (255, 255), (64, 64))[kind]
        want = np.array([d.box[axes] for d in gt])
        np.testing.assert_allclose((cells + offsets) * (255 / 64), want, rtol=1e-12)
        assert ((offsets >= 0) & (offsets < 1)).all()


def test_corner_targets_empty():
    for heat, cells, offsets in corner_targets([], 3, (255, 255), (64, 64)).values():
        assert heat.sum() == 0 and cells.shape == offsets.shape == (0, 2)


def test_attention_targets_counts_match_routing():
    rng = np.random.default_rng(3)
    boxes = []
    for _ in range(10):
        x1 = float(rng.uniform(0, 150))
        y1 = float(rng.uniform(0, 150))
        w = float(rng.uniform(5, 100))
        h = float(rng.uniform(5, 100))
        boxes.append((x1, y1, x1 + w, y1 + h))
    per_class = {s: sum(1 for b in boxes
                        if size_class_of(max(b[2] - b[0], b[3] - b[1])) == s)
                 for s in ("small", "medium", "large")}
    maps = {"small": attention_targets(boxes, (64, 64), "small", 4),
            "medium": attention_targets(boxes, (32, 32), "medium", 8),
            "large": attention_targets(boxes, (16, 16), "large", 16)}
    for s in per_class:
        assert maps[s].sum() == per_class[s], s


# ---- pull / push / offset ------------------------------------------------------


def test_pull_zero_for_equal_pair():
    pull, push, off = pull_push_offset_losses([[1.5, 1.5]], np.zeros((1, 2, 2)),
                                              np.zeros((1, 2, 2)))
    assert pull == 0.0 and push == 0.0 and off == 0.0


def test_push_hand_values():
    emb = [[0.0, 0.0], [1.0, 1.0]]  # means 0 and 1
    _, push, _ = pull_push_offset_losses(emb, np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
    assert push == pytest.approx(0.0)
    emb = [[0.0, 0.0], [0.4, 0.4]]  # means 0 and 0.4
    _, push, _ = pull_push_offset_losses(emb, np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
    assert push == pytest.approx(0.6)


def test_losses_empty_and_single_object():
    assert pull_push_offset_losses([], np.zeros((0, 2, 2)), np.zeros((0, 2, 2))) == (0.0, 0.0, 0.0)
    pull, push, off = pull_push_offset_losses([[0.2, 0.4]], np.zeros((1, 2, 2)),
                                              np.zeros((1, 2, 2)))
    assert push == 0.0 and pull > 0


def _pull_push_offset_oracle(emb, off, gt_off):
    n = len(emb)
    pull = 0.0
    means = []
    for e1, e2 in emb:
        m = (e1 + e2) / 2.0
        means.append(m)
        pull += (e1 - m) ** 2 + (e2 - m) ** 2
    pull /= n
    push = 0.0
    if n >= 2:
        for i in range(n):
            for j in range(n):
                if i != j:
                    push += max(0.0, 1.0 - abs(means[i] - means[j]))
        push /= n * (n - 1)
    total = 0.0
    count = 0
    for k in range(n):
        for c in range(2):
            for a in range(2):
                d = abs(off[k][c][a] - gt_off[k][c][a])
                total += 0.5 * d * d if d < 1 else d - 0.5
                count += 1
    return pull, push, total / count


def test_losses_match_scalar_oracle():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n = int(rng.integers(2, 6))
        emb = rng.normal(0, 2, (n, 2)).tolist()
        off = rng.normal(0, 1, (n, 2, 2))
        gt = rng.normal(0, 1, (n, 2, 2))
        got = pull_push_offset_losses(emb, off, gt)
        want = _pull_push_offset_oracle(emb, off.tolist(), gt.tolist())
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-6, abs=1e-12)
            assert g >= 0


def test_detection_serialization_round_trip():
    d = Detection(2, 0.75, (1.0, 2.0, 3.0, 4.5))
    assert Detection.from_dict(d.to_dict()) == d
    assert d.longer_side == 2.5
