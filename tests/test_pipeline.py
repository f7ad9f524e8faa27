import dataclasses
import importlib
import math
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fovea import naive, pipeline
from fovea.decode import (SIZE_CLASSES, Corner, Detection, _detections, _group_columns,
                          _size_index, group_corners, heatmap_peaks)
from fovea.kernels import resize_longer_side
from fovea.pipeline import (Affine, CROP_SIZE, DOWNSIZE_SCALES, CropWindow, ObjectLocation,
                            SaccadeConfig, _attention_columns, _clamp_boxes, crop_pixels,
                            downsize_pair, extract_locations, iou, make_crop, resize_affine,
                            run_saccade, soft_nms, strip_boundary_boxes, suppress_locations)
from fovea.scene import (OracleModel, SceneObject, SceneSpec, gen_scene, oracle_outputs,
                         random_scene)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def rand_image(hw, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (1, 3) + hw).astype(np.float32)


def location_from_detection(det, scale=255):
    """A box candidate at a detection's centre, routed by its longer side as
    ``max(dx, dy)`` picks it (so a NaN dx routes to large): the list-API view
    of the box rows that ``run_saccade`` builds."""
    x1, y1, x2, y2 = det.box
    return ObjectLocation((x1 + x2) / 2.0, (y1 + y2) / 2.0,
                          SIZE_CLASSES[_size_index(max(x2 - x1, y2 - y1))], det.score, "box", scale)


# ---- downsizing ----------------------------------------------------------------


def test_downsize_pair_square_image():
    img = rand_image((510, 510))
    (f255, a255, c255), (f192, a192, c192) = downsize_pair(img)
    assert f255.shape == f192.shape == (1, 3, 255, 255)
    assert c255 == (255, 255) and c192 == (192, 192)
    assert np.all(f192[:, :, 192:, :] == 0) and np.all(f192[:, :, :, 192:] == 0)


def test_downsize_pair_nonsquare_padding():
    img = rand_image((400, 300), seed=1)
    (f255, a255, c255), (_, _, c192) = downsize_pair(img)
    assert c255 == (255, 191)  # 300 * 255/400 = 191.25 -> 191
    assert np.all(f255[:, :, :, 191:] == 0)
    assert c192 == (192, 144)


def test_downsize_pair_returns_one_triple_per_scale():
    img = rand_image((400, 300), seed=1)
    frames = downsize_pair(img)
    assert len(frames) == len(DOWNSIZE_SCALES)
    for (frame, aff, content), scale in zip(frames, DOWNSIZE_SCALES):
        assert frame.shape == (1, 3, CROP_SIZE, CROP_SIZE) and max(content) == scale
        assert aff == resize_affine((400, 300), content)


def test_downsize_affine_round_trip_within_half_pixel():
    img = rand_image((417, 333), seed=2)
    (_, a255, c255), (_, a192, c192) = downsize_pair(img)
    for aff, content in ((a255, c255), (a192, c192)):
        inv = aff.invert()
        for x, y in [(0, 0), (content[1] - 1, content[0] - 1), (10.5, 20.25)]:
            ox, oy = aff.apply(x, y)
            bx, by = inv.apply(ox, oy)
            assert abs(bx - x) < 0.5 and abs(by - y) < 0.5
        # original corners land inside (or at the very edge of) the content
        fx, fy = inv.apply(332, 416)
        assert fx == pytest.approx(content[1] - 0.5, abs=1.0)


def test_affine_compose_and_invert():
    a = Affine(2.0, 3.0, 1.0, -2.0)
    b = Affine(0.5, 0.25, 4.0, 8.0)
    x, y = 3.0, 5.0
    via = a.apply(*b.apply(x, y))
    assert a.compose(b).apply(x, y) == via
    ax, ay = a.apply(x, y)
    assert a.invert().apply(ax, ay) == pytest.approx((x, y))


def _assert_close(got, want):
    np.testing.assert_allclose(np.asarray(got, np.float64), np.asarray(want, np.float64),
                               rtol=0, atol=1e-9)


def test_affine_round_trips_points_and_boxes_seeded_loop():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = (Affine(*rng.uniform(0.05, 20.0, 2), *rng.uniform(-1000.0, 1000.0, 2))
                for _ in range(2))
        x, y = rng.uniform(-2000.0, 2000.0, 2)
        boxes = np.sort(rng.uniform(-2000.0, 2000.0, (5, 2, 2)), axis=1).reshape(5, 4)
        _assert_close(a.invert().apply(*a.apply(x, y)), (x, y))
        _assert_close(a.compose(a.invert()).apply(x, y), (x, y))
        _assert_close(a.compose(b).apply(x, y), a.apply(*b.apply(x, y)))
        _assert_close(a.invert().apply_box(a.apply_box(boxes)), boxes)
        _assert_close(a.compose(b).apply_box(boxes), a.apply_box(b.apply_box(boxes)))
        _assert_close(a.compose(b).invert().apply_box(boxes),
                      b.invert().apply_box(a.invert().apply_box(boxes)))
        _assert_close(a.apply_box(boxes),
                      [(*a.apply(x1, y1), *a.apply(x2, y2)) for x1, y1, x2, y2 in boxes])


def test_resize_affine_inverts_to_the_reverse_resize_at_odd_aspects():
    rng = np.random.default_rng(1)
    pairs = [((97, 641), (39, 255)), ((97, 641), (29, 192)), ((641, 97), (255, 39)),
             ((1, 7), (1, 255))]
    pairs += [(tuple(rng.integers(1, 2000, 2)), tuple(rng.integers(1, 300, 2))) for _ in range(50)]
    for src, dst in pairs:
        fwd = resize_affine(src, dst)
        for x, y in rng.uniform(-10.0, 2000.0, (5, 2)):
            _assert_close(fwd.compose(fwd.invert()).apply(x, y), (x, y))
            _assert_close(fwd.invert().compose(fwd).apply(x, y), (x, y))
        back, rev = fwd.invert(), resize_affine(dst, src)
        _assert_close((back.sx, back.sy, back.ox, back.oy), (rev.sx, rev.sy, rev.ox, rev.oy))


# ---- locations -----------------------------------------------------------------


def _maps(values):
    return {size: np.asarray(v, np.float32).reshape(1, 1, *np.shape(v)) for size, v in values.items()}


STRIDES = {"small": 255 / 64, "medium": 255 / 32, "large": 255 / 16}


def test_extract_locations_all_below_threshold():
    maps = _maps({"small": np.full((64, 64), 0.2)})
    assert extract_locations(maps, 0.3, STRIDES) == []


def test_extract_locations_single_pixel():
    arr = np.zeros((64, 64), np.float32)
    arr[10, 20] = 0.9
    locs = extract_locations(_maps({"small": arr}), 0.3, STRIDES)
    assert len(locs) == 1
    loc = locs[0]
    assert loc.size == "small" and loc.source == "attention"
    assert loc.x == pytest.approx(20 * 255 / 64)
    assert loc.score == pytest.approx(0.9)


def test_extract_locations_matches_threshold_scan():
    rng = np.random.default_rng(3)
    maps = {"small": rng.uniform(0, 1, (64, 64)).astype(np.float32),
            "medium": rng.uniform(0, 1, (32, 32)).astype(np.float32),
            "large": rng.uniform(0, 1, (16, 16)).astype(np.float32)}
    locs = extract_locations(_maps(maps), 0.8, STRIDES)
    want = []
    for size, arr in maps.items():
        for y in range(arr.shape[0]):
            for x in range(arr.shape[1]):
                if arr[y, x] > 0.8:
                    want.append((size, x * STRIDES[size], y * STRIDES[size],
                                 float(arr[y, x])))
    want.sort(key=lambda t: (-t[3], t[2], t[1], t[0]))
    assert len(locs) == len(want)
    for loc, (size, x, y, score) in zip(locs, want):
        assert loc.size == size
        assert (loc.x, loc.y) == pytest.approx((x, y))
        assert loc.score == pytest.approx(score)
    scores = [l.score for l in locs]
    assert scores == sorted(scores, reverse=True)


def _cross_size_ties(seed):
    """Coarse-ladder maps at 64, 32 and 16 px, plus one equal score at
    small (4, 4), medium (2, 2) and large (1, 1): 4 * 255/64 = 2 * 255/32 =
    255/16 exactly, so all three lie at one (y, x)."""
    rng = np.random.default_rng(seed)
    maps = {size: (rng.integers(0, 5, (hw, hw)) / 4).astype(np.float32)
            for size, hw in (("small", 64), ("medium", 32), ("large", 16))}
    for size, cell in (("small", 4), ("medium", 2), ("large", 1)):
        maps[size][cell, cell] = 0.75
    return _maps(maps)


@pytest.mark.parametrize("maps", [
    _cross_size_ties(0), _cross_size_ties(1), {}, _maps({"small": np.full((64, 64), 0.2)}),
    _maps({"medium": np.zeros((32, 32)), "large": np.zeros((16, 16))})],
    ids=["ties-0", "ties-1", "empty", "below", "zeros"])
def test_attention_columns_equal_extract_locations_rows(maps):
    score, x, y, size = _attention_columns(maps, 0.3, STRIDES)
    locs = extract_locations(maps, 0.3, STRIDES)
    want = [(l.score, l.x, l.y, SIZE_CLASSES.index(l.size)) for l in locs]
    assert all(c.dtype == np.float64 and len(c) == len(want) for c in (score, x, y, size))
    got = list(zip(score.tolist(), x.tolist(), y.tolist(), size.tolist()))
    assert [_bits(row) for row in got] == [_bits(row) for row in want]
    # exact ties at one (y, x) go by size name, as the string sort gives
    tied = [SIZE_CLASSES[int(s)] for v, a, b, s in got if (v, a, b) == (0.75, 255 / 16, 255 / 16)]
    assert tied == (["large", "medium", "small"] if len(maps) == 3 else [])


# ---- suppression ---------------------------------------------------------------


def _loc(x, y, score, source="attention", size="small"):
    return ObjectLocation(x=x, y=y, size=size, score=score, source=source)


def test_suppress_nearby_keeps_higher_score():
    kept = suppress_locations([_loc(10, 10, 0.9), _loc(11, 10, 0.8)], radius=2)
    assert len(kept) == 1 and kept[0].score == 0.9


def test_suppress_prioritizes_box_sources():
    box = location_from_detection(Detection(0, 0.4, (8.0, 8.0, 12.0, 12.0)))  # center (10, 10)
    kept = suppress_locations([_loc(10, 10, 0.9), box], radius=2)
    assert len(kept) == 1
    assert kept[0].source == "box" and kept[0].score == 0.4


def test_suppress_keeps_distant_locations():
    kept = suppress_locations([_loc(10, 10, 0.9), _loc(60, 60, 0.2)], radius=16)
    assert len(kept) == 2


@pytest.mark.parametrize("radius", [math.nan, -1.0])
def test_suppress_rejects_nan_and_negative_radius(radius):
    with pytest.raises(ValueError, match="radius must be >= 0"):
        suppress_locations([_loc(10, 10, 0.9), _loc(60, 60, 0.2)], radius=radius)


def _suppress_oracle(locs, radius):
    pool = sorted(locs, key=lambda l: (0 if l.source == "box" else 1, -l.score, l.y, l.x))
    kept = []
    while pool:
        best = pool[0]
        kept.append(best)
        pool = [l for l in pool[1:]
                if max(abs(l.x - best.x), abs(l.y - best.y)) > radius]
    return kept


def test_suppress_matches_brute_force_greedy():
    rng = np.random.default_rng(4)
    locs = [_loc(float(rng.uniform(0, 255)), float(rng.uniform(0, 255)),
                 float(rng.uniform(0, 1)),
                 source="box" if rng.random() < 0.3 else "attention")
            for _ in range(50)]
    locs = [location_from_detection(Detection(0, l.score, (l.x - 2, l.y - 2, l.x + 2, l.y + 2)))
            if l.source == "box" else l for l in locs]
    got = suppress_locations(locs, radius=16)
    want = _suppress_oracle(locs, 16)
    assert [(l.x, l.y, l.score, l.source) for l in got] == \
           [(l.x, l.y, l.score, l.source) for l in want]


def _tie_rich_locations(rng, n, nan_share=0.0):
    """Integer-grid positions and scores on a coarse ladder, so equal keys
    and exact-radius distances are common; some coordinates NaN."""
    locs = []
    for _ in range(n):
        x, y = (float(v) for v in rng.integers(0, 256, 2))
        if rng.random() < nan_share:
            if rng.random() < 0.5:
                x = math.nan
            else:
                y = math.nan
        locs.append(_loc(x, y, float(rng.integers(1, 41)) / 40,
                         size=str(rng.choice(["small", "medium", "large"]))))
    return locs


@pytest.mark.parametrize("radius", [0.0, 2.5, 16.0])
@pytest.mark.parametrize("nan_share", [0.0, 0.01])
def test_suppress_matches_loop_reference_on_large_pools(radius, nan_share):
    rng = np.random.default_rng(int(radius * 10) + int(nan_share * 100))
    locs = _tie_rich_locations(rng, 2000, nan_share)
    got = suppress_locations(locs, radius=radius)
    want = _suppress_oracle(locs, radius)
    assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


def test_suppress_with_boxes_matches_loop_reference():
    rng = np.random.default_rng(31)
    locs = _tie_rich_locations(rng, 2000, nan_share=0.005)
    boxes = [Detection(0, float(rng.integers(1, 41)) / 40, (x - 3.0, y - 3.0, x + 3.0, y + 3.0))
             for x, y in rng.integers(0, 256, (60, 2)).astype(float)]
    boxes.append(Detection(0, 0.5, (math.nan, 10.0, 20.0, 20.0)))
    locs = [location_from_detection(b) for b in boxes] + locs
    got = suppress_locations(locs, radius=16.0)
    want = _suppress_oracle(locs, 16.0)
    assert [(repr(l.x), repr(l.y), l.score, l.source, l.size) for l in got] == \
           [(repr(l.x), repr(l.y), l.score, l.source, l.size) for l in want]


def test_suppress_is_idempotent():
    rng = np.random.default_rng(5)
    locs = [_loc(float(rng.uniform(0, 255)), float(rng.uniform(0, 255)),
                 float(rng.uniform(0, 1))) for _ in range(40)]
    once = suppress_locations(locs, radius=12)
    twice = suppress_locations(once, radius=12)
    assert [(l.x, l.y) for l in twice] == [(l.x, l.y) for l in once]


# ---- crops ---------------------------------------------------------------------


def test_make_crop_unit_zoom_covers_downsized_image():
    # at zoom 1 the enlarged canvas is never wider than the window, so the
    # "centered" crop is the whole downsized image
    cfg = SaccadeConfig()
    aff = Affine(2.0, 2.0, 0.5, 0.5)
    loc = _loc(128.0, 130.0, 0.9, size="large")
    w = make_crop(loc, cfg, (255, 255), aff)
    assert w.zoom == 1.0
    assert (w.x0, w.y0) == (0, 0)
    # crop pixel p maps straight to downsized pixel p, then through aff
    assert w.to_original.apply(10, 20) == pytest.approx(aff.apply(10, 20))


def test_make_crop_medium_zoom_centers_window():
    cfg = SaccadeConfig()
    loc = _loc(128.0, 130.0, 0.9, size="medium")
    w = make_crop(loc, cfg, (255, 255), Affine(1.0, 1.0))
    assert w.zoom == 2.0
    assert (w.x0 + 127, w.y0 + 127) == (256, 260)


def test_make_crop_small_object_zoom_four():
    cfg = SaccadeConfig()
    loc = _loc(100.0, 60.0, 0.9, size="small")
    w = make_crop(loc, cfg, (255, 255), Affine(1.0, 1.0))
    # center lands at 4x the downsized position
    assert (w.x0 + 127, w.y0 + 127) == (400, 240)


def test_make_crop_clamps_to_canvas():
    cfg = SaccadeConfig()
    w = make_crop(_loc(2.0, 2.0, 0.9, size="large"), cfg, (255, 255), Affine(1.0, 1.0))
    assert (w.x0, w.y0) == (0, 0)
    w = make_crop(_loc(254.0, 254.0, 0.9, size="large"), cfg, (255, 255), Affine(1.0, 1.0))
    assert (w.x0, w.y0) == (0, 0)  # canvas exactly 255 wide: only one placement
    w = make_crop(_loc(120.0, 120.0, 0.9, size="medium"), cfg, (255, 255), Affine(1.0, 1.0))
    assert 0 <= w.x0 <= 2 * 255 - CROP_SIZE


def test_make_crop_affine_matches_independent_composition():
    cfg = SaccadeConfig()
    aff = Affine(1.7, 1.7, 0.35, 0.35)
    loc = _loc(100.0, 60.0, 0.9, size="small")
    w = make_crop(loc, cfg, (255, 255), aff)
    for px, py in [(0, 0), (254, 254), (127, 127)]:
        ex, ey = w.x0 + px, w.y0 + py                  # enlarged coords
        dx, dy = (ex + 0.5) / 4 - 0.5, (ey + 0.5) / 4 - 0.5  # back to downsized
        ox, oy = aff.apply(dx, dy)                     # to original
        gx, gy = w.to_original.apply(px, py)
        assert abs(gx - ox) < 1.0 and abs(gy - oy) < 1.0


def test_crop_pixels_unit_zoom_matches_direct_slice():
    img = rand_image((510, 510), seed=6)
    downsized = resize_longer_side(img, 255)
    _, aff, content = downsize_pair(img)[0]
    w = make_crop(_loc(128.0, 128.0, 0.9, size="large"), SaccadeConfig(), content, aff)
    crop = crop_pixels(img, w)
    sliced = downsized[:, :, w.y0:w.y0 + 255, w.x0:w.x0 + 255]
    np.testing.assert_allclose(crop, sliced, rtol=1e-4, atol=1e-5)


def test_crop_pixels_out_of_canvas_is_zero():
    img = rand_image((100, 100), seed=7)
    w = CropWindow(zoom=1.0, x0=0, y0=0, size=64,
                   to_original=Affine(1.0, 1.0, 60.0, 60.0))
    crop = crop_pixels(img, w)
    assert crop.shape == (1, 3, 64, 64)
    assert np.all(crop[:, :, :, 41:] == 0)  # samples at x >= 101 have no support
    assert np.any(crop[:, :, :30, :30] != 0)


def test_crop_pixels_matches_per_pixel_oracle():
    img = rand_image((40, 40), seed=8)
    w = CropWindow(zoom=2.0, x0=5, y0=3, size=16,
                   to_original=Affine(0.8, 1.1, -2.0, 4.5))
    crop = crop_pixels(img, w)
    px = np.arange(16, dtype=np.float64)
    sx = 0.8 * px + (-2.0)
    sy = 1.1 * px + 4.5
    yy = np.repeat(sy[:, None], 16, axis=1)
    xx = np.repeat(sx[None, :], 16, axis=0)
    want = naive.bilinear_sample_naive(img, yy, xx)
    np.testing.assert_allclose(crop, want, rtol=1e-5, atol=1e-6)


def _crop_pixels_2d_gather(image, window):
    """The former crop_pixels: one 2-D broadcast gather per bilinear tap."""
    n, c, h, w = image.shape
    aff = window.to_original
    px = np.arange(window.size, dtype=np.float64)
    sx = aff.sx * px + aff.ox
    sy = aff.sy * px + aff.oy

    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = (sx - x0).astype(np.float32)
    fy = (sy - y0).astype(np.float32)

    def gather(yi, xi):
        inside = ((yi[:, None] >= 0) & (yi[:, None] < h) &
                  (xi[None, :] >= 0) & (xi[None, :] < w))
        vals = image[:, :, np.clip(yi, 0, h - 1)[:, None], np.clip(xi, 0, w - 1)[None, :]]
        return vals * inside[None, None, :, :]

    fx2 = fx.reshape(1, 1, 1, -1)
    fy2 = fy.reshape(1, 1, -1, 1)
    top = gather(y0, x0) * (1 - fx2) + gather(y0, x0 + 1) * fx2
    bot = gather(y0 + 1, x0) * (1 - fx2) + gather(y0 + 1, x0 + 1) * fx2
    return (top * (1 - fy2) + bot * fy2).astype(np.float32)


@pytest.mark.parametrize("hw", [(510, 510), (480, 640), (720, 960), (1020, 1020), (97, 41)])
def test_crop_pixels_bit_equal_to_2d_gather(hw):
    rng = np.random.default_rng(hw[0] * hw[1])
    img = rng.normal(size=(1, 3) + hw).astype(np.float32)  # signed pixels
    img[:, :, :9, :9] = -0.0
    _, aff, content = downsize_pair(img)[0]
    windows = []
    for size in ("large", "medium", "small"):  # zoom 1, 2, 4
        for x, y in ((0.0, 0.0), (127.0, 90.0), (254.0, 254.0)):
            windows.append(make_crop(_loc(x, y, 0.9, size=size), SaccadeConfig(), content, aff))
    for zoom in (1.0, 2.0, 4.0):
        s = aff.sx / zoom
        for ox, oy in ((-40.0, 3.3), (hw[1] - 30.5, -25.0), (-5000.0, 10.0), (2.0, hw[0] + 7.0)):
            # partly and fully off the canvas
            windows.append(CropWindow(zoom=zoom, x0=0, y0=0,
                                      to_original=Affine(s, s * 1.01, ox, oy)))
    for w in windows:
        got, want = crop_pixels(img, w), _crop_pixels_2d_gather(img, w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), w


@pytest.mark.parametrize("shape,infinities", [
    ((1, 3, 510, 510), False), ((2, 1, 510, 510), False), ((2, 1, 97, 41), False),
    ((1, 3, 510, 510), True), ((2, 1, 300, 340), True),
])
def test_crop_pixels_bit_equal_to_2d_gather_steps_and_infinities(shape, infinities):
    rng = np.random.default_rng(sum(shape))
    img = rng.normal(size=shape).astype(np.float32)  # signed pixels
    if infinities:  # inf * 0 and inf - inf make NaNs, so bytes compare NaN signs too
        flat = img.reshape(-1)
        at = rng.choice(flat.size, flat.size // 200, replace=False)
        flat[at] = rng.choice([np.inf, -np.inf], at.size)
        img[:, :, 0, ::7] = np.inf
        img[:, :, ::5, -1] = -np.inf
    img[:, :, :9, :9] = -0.0
    h, w = shape[2:]
    # zoom 4 and zoom 2 on a 510-px image sample at steps 0.5 and exactly 1.0
    aff = resize_affine((h, w), (255, 255))
    windows = [make_crop(_loc(x, y, 0.9, size=size), SaccadeConfig(), (255, 255), aff)
               for size in ("small", "medium") for x, y in ((0.0, 0.0), (127.0, 90.0))]
    for step in (0.5, 1.0, 1.25, 1.5, 1.9):
        for ox, oy in ((0.25, 0.75), (-40.0, 3.3), (w - 30.5, -25.0), (2.0, h + 7.0)):
            windows.append(CropWindow(zoom=1.0, x0=0, y0=0,
                                      to_original=Affine(step, step, ox, oy)))
    nans = 0
    for window in windows:
        with np.errstate(invalid="ignore"):
            got, want = crop_pixels(img, window), _crop_pixels_2d_gather(img, window)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), window
        nans += int(np.isnan(want).sum())
    assert (nans > 0) == infinities


# ---- boundary stripping --------------------------------------------------------


def test_strip_boundary_touching_left_edge():
    dets = [Detection(0, 0.9, (0.0, 10.0, 20.0, 30.0))]
    assert strip_boundary_boxes(dets, margin=0.0) == []


def test_strip_keeps_interior_box():
    dets = [Detection(0, 0.9, (1.0, 1.0, 253.0, 253.0))]
    assert strip_boundary_boxes(dets, margin=0.0) == dets


def test_strip_matches_predicate_scan():
    rng = np.random.default_rng(9)
    dets = []
    for _ in range(50):
        x1, y1 = rng.uniform(-5, 250, 2)
        dets.append(Detection(0, 0.5, (float(x1), float(y1),
                                       float(x1 + rng.uniform(1, 80)),
                                       float(y1 + rng.uniform(1, 80)))))
    got = strip_boundary_boxes(dets, margin=1.0)
    want = [d for d in dets if d.box[0] > 1 and d.box[1] > 1
            and d.box[2] < 253 and d.box[3] < 253]
    assert got == want


# ---- soft-nms ------------------------------------------------------------------


def test_soft_nms_identical_boxes_decay():
    box = (10.0, 10.0, 50.0, 50.0)
    dets = [Detection(0, 0.9, box), Detection(0, 0.8, box)]
    out = soft_nms(dets, sigma=0.5)
    assert len(out) == 2
    assert out[0].score == 0.9
    assert out[1].score == pytest.approx(0.8 * math.exp(-2.0), abs=1e-6)  # 0.108268


def test_soft_nms_disjoint_boxes_unchanged():
    dets = [Detection(0, 0.9, (0.0, 0.0, 10.0, 10.0)),
            Detection(0, 0.8, (50.0, 50.0, 60.0, 60.0))]
    out = soft_nms(dets)
    assert [d.score for d in out] == [0.9, 0.8]


def test_soft_nms_per_class_independence():
    box = (10.0, 10.0, 50.0, 50.0)
    out = soft_nms([Detection(0, 0.9, box), Detection(1, 0.8, box)])
    assert [d.score for d in out] == [0.9, 0.8]


def test_soft_nms_drops_below_floor():
    box = (10.0, 10.0, 50.0, 50.0)
    # 0.01 * e^-2 = 0.00135 survives the 0.001 floor; 0.005 * e^-2 does not
    out = soft_nms([Detection(0, 0.9, box), Detection(0, 0.01, box)], sigma=0.5)
    assert len(out) == 2
    out = soft_nms([Detection(0, 0.9, box), Detection(0, 0.005, box)], sigma=0.5)
    assert len(out) == 1
    # entering below the floor drops a box outright
    out = soft_nms([Detection(0, 0.0005, box)], sigma=0.5)
    assert out == []


def _soft_nms_oracle(dets, sigma, floor):
    """Independent greedy reference: same conventions, plain loops."""
    out = []
    for cls in sorted({d.cls for d in dets}):
        pool = sorted([[d.score, d.box] for d in dets if d.cls == cls and d.score >= floor],
                      key=lambda t: (-t[0], t[1]))
        while pool:
            score, box = pool[0]
            out.append(Detection(cls, score, box))
            rest = []
            for s, b in pool[1:]:
                ix1, iy1 = max(box[0], b[0]), max(box[1], b[1])
                ix2, iy2 = min(box[2], b[2]), min(box[3], b[3])
                ov = 0.0
                if ix2 > ix1 and iy2 > iy1:
                    inter = (ix2 - ix1) * (iy2 - iy1)
                    union = ((box[2] - box[0]) * (box[3] - box[1])
                             + (b[2] - b[0]) * (b[3] - b[1]) - inter)
                    ov = inter / union
                s2 = s * math.exp(-(ov * ov) / sigma)
                if s2 >= floor:
                    rest.append([s2, b])
            pool = sorted(rest, key=lambda t: (-t[0], t[1]))
    out.sort(key=lambda d: (-d.score, d.cls, d.box))
    return out


def _random_dets(rng, n, classes=3):
    dets = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 200, 2)
        w, h = rng.uniform(10, 80, 2)
        dets.append(Detection(int(rng.integers(0, classes)), float(rng.uniform(0.05, 1.0)),
                              (float(x1), float(y1), float(x1 + w), float(y1 + h))))
    return dets


def test_soft_nms_matches_reference_exactly():
    rng = np.random.default_rng(10)
    for trial in range(20):
        dets = _random_dets(rng, 20)
        got = soft_nms(dets, sigma=0.5, score_floor=0.001)
        want = _soft_nms_oracle(dets, 0.5, 0.001)
        assert [(d.cls, d.score, d.box) for d in got] == \
               [(d.cls, d.score, d.box) for d in want]


def test_soft_nms_tiny_sigma_approaches_hard_nms():
    # at sigma = 1e-4 any overlap with iou > 0.05 decays scores to ~0;
    # hard-NMS here means: greedily keep the best box, delete overlaps
    rng = np.random.default_rng(11)
    dets = _random_dets(rng, 15, classes=1)
    got = soft_nms(dets, sigma=1e-4, score_floor=0.001)
    pool = sorted(dets, key=lambda d: (-d.score, d.box))
    hard = []
    while pool:
        best = pool.pop(0)
        hard.append(best)
        pool = [d for d in pool if iou(best.box, d.box) <= 0.05]
    assert [(d.cls, d.box) for d in got] == [(d.cls, d.box) for d in hard]


def _tied_dets(rng, n, classes=4):
    """Integer-grid pools rich in exact ties: repeated scores, repeated
    boxes, exact duplicates, edge-touching neighbours (iw == 0) and far-off
    disjoint boxes."""
    dets = []
    while len(dets) < n:
        cls = int(rng.integers(0, classes))
        x1, y1 = (float(v) for v in rng.integers(0, 60, 2))
        w, h = (float(v) for v in rng.integers(1, 25, 2))
        score = float(rng.integers(1, 21)) / 20
        box = (x1, y1, x1 + w, y1 + h)
        dets.append(Detection(cls, score, box))
        kind = int(rng.integers(0, 5))
        if kind == 0:
            dets.append(Detection(cls, float(rng.integers(1, 21)) / 20, box))
        elif kind == 1:
            dets.append(Detection(cls, score, box))
        elif kind == 2:
            dets.append(Detection(cls, score, (x1 + w, y1, x1 + 2 * w, y1 + h)))
        elif kind == 3:
            dets.append(Detection(cls, score, (x1 + 500, y1 + 500, x1 + 500 + w, y1 + 500 + h)))
    return dets[:n]


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_soft_nms_matches_reference_at_benchmark_sizes(n):
    dets = _tied_dets(np.random.default_rng(n), n)
    got = soft_nms(dets, sigma=0.5, score_floor=0.001)
    want = _soft_nms_oracle(dets, 0.5, 0.001)
    assert [(d.cls, d.score, d.box) for d in got] == \
           [(d.cls, d.score, d.box) for d in want]
    assert all(type(d.score) is float for d in got)


def test_soft_nms_ignores_input_order():
    rng = np.random.default_rng(14)
    dets = _tied_dets(rng, 600)
    base = soft_nms(dets)
    shuffled = [dets[i] for i in rng.permutation(len(dets))]
    assert soft_nms(shuffled) == base


@pytest.mark.parametrize("sigma", [math.nan, 0.0, -0.5])
def test_soft_nms_rejects_nan_and_non_positive_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be > 0"):
        soft_nms([Detection(0, 0.9, (0.0, 0.0, 10.0, 10.0))], sigma=sigma)


@pytest.mark.parametrize("sigma", [0.5, 0.1, 2.0, 1e-3])
def test_complex_exp_decay_pins_libm_exp(sigma):
    # soft_nms's gaussian decay takes libm's exp through numpy's complex
    # exp (glibc cexp); this pins that it equals math.exp bit for bit, so a
    # platform where it does not fails here and not only as drifted scores
    ov = np.random.default_rng(int(1 / sigma)).random(100_000)
    power = np.concatenate([-(ov * ov) / sigma, [0.0, -5e-324, -1e-300]])
    got = np.exp(power.astype(np.complex128)).real
    want = np.array([math.exp(p) for p in power.tolist()])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [Detection(1, math.nan, (0.0, 0.0, 10.0, 10.0)),
                                 Detection(1, 0.5, (0.0, math.inf, 10.0, 10.0)),
                                 Detection(1, 0.5, (0.0, 0.0, -math.inf, 10.0))])
def test_soft_nms_rejects_non_finite_input(bad):
    dets = [Detection(0, 0.9, (0.0, 0.0, 10.0, 10.0)),
            Detection(0, 0.8, (5.0, 5.0, 15.0, 15.0)), bad]
    with pytest.raises(ValueError, match="detection 2 "):
        soft_nms(dets)


def _as_rows(dets):
    return [(d.cls, d.score, d.box) for d in dets]


def _noisy_dets(rng, n, classes=2, frame=255.0):
    """Boxes shaped like an untrained network's: sides 20-200 px, corners
    inside one frame, so many same-class pairs overlap."""
    dets = []
    for _ in range(n):
        w, h = rng.uniform(20, 200, 2)
        x1, y1 = rng.uniform(0, frame - w), rng.uniform(0, frame - h)
        dets.append(Detection(int(rng.integers(0, classes)), float(rng.uniform(0.0005, 0.6)),
                              (float(x1), float(y1), float(x1 + w), float(y1 + h))))
    return dets


def test_soft_nms_matches_reference_on_a_noisy_pool():
    dets = _noisy_dets(np.random.default_rng(71), 3000)
    got = soft_nms(dets, sigma=0.5, score_floor=0.001)
    assert _as_rows(got) == _as_rows(_soft_nms_oracle(dets, 0.5, 0.001))


def test_soft_nms_empty_and_all_below_floor_give_nothing():
    assert soft_nms([]) == []
    below = [Detection(c, 0.0009, (10.0 * c, 0.0, 10.0 * c + 30.0, 40.0)) for c in range(3)]
    assert soft_nms(below, score_floor=0.001) == []


def test_iou_basics():
    assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0
    assert iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0
    assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(50 / 150)


def _vector_iou(box_a, box_b):
    """A frozen copy of the earlier vector formula: ``box_a`` as given
    against ``box_b`` as one float64 row, 0.0 where the boxes do not overlap
    or their union is not positive."""
    ax1, ay1, ax2, ay2 = box_a
    bx1, by1, bx2, by2 = np.array([box_b], dtype=np.float64).T
    with np.errstate(all="ignore"):
        iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
        ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
        inter = iw * ih
        union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
        ov = np.zeros(1)
        np.divide(inter, union, out=ov, where=(iw > 0) & (ih > 0) & (union > 0))
    return float(ov[0])


def _iou_pairs(rng, n):
    """Seeded box pairs: overlapping, touching, zero-area, and with NaN,
    +-inf, -0.0 or 1e308 coordinates, as Python floats, ints and float64 arrays."""
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308]
    pairs = []
    for i in range(n):
        a = rng.uniform(0, 40, 2).tolist()
        a += (a[0] + rng.uniform(0, 30), a[1] + rng.uniform(0, 30))
        b = rng.uniform(0, 40, 2).tolist()
        b += (b[0] + rng.uniform(0, 30), b[1] + rng.uniform(0, 30))
        kind = i % 5
        if kind == 1:  # touching along x, or zero width
            b[0] = a[2] if i % 2 else b[2]
        elif kind == 2:
            (a if i % 2 else b)[int(rng.integers(4))] = special[int(rng.integers(len(special)))]
        elif kind == 3:
            a, b = [int(v) for v in np.round(a)], [int(v) for v in np.round(b)]
        elif kind == 4:
            a, b = np.array(a), np.array(b)
        pairs.append((a, b))
    return pairs


def test_iou_is_the_vector_formula_bit_for_bit():
    for a, b in _iou_pairs(np.random.default_rng(90), 3000):
        got, want = iou(a, b), _vector_iou(a, b)
        assert struct.pack("<d", got) == struct.pack("<d", want), (a, b, got, want)


def test_iou_of_float32_boxes_is_symmetric_and_exactly_one_on_itself():
    # float32 coordinates are widened before any arithmetic, so neither box's
    # area is computed in float32
    rng = np.random.default_rng(91)
    for _ in range(500):
        a, b = (np.concatenate([xy, xy + rng.uniform(1, 300, 2)]).astype(np.float32)
                for xy in rng.uniform(0, 600, (2, 2)))
        assert iou(a, a) == 1.0 and iou(b, b) == 1.0
        assert iou(a, b) == iou(b, a)


# ---- full pipeline -------------------------------------------------------------


def test_run_saccade_blank_scene():
    img = rand_image((510, 510), seed=12)
    trace = {}
    dets = run_saccade(img, OracleModel([], 3), trace=trace)
    assert dets == []
    assert trace["n_crops"] == 0
    assert trace["n_locations"] == 0


def test_run_saccade_recovers_three_separated_objects():
    spec = random_scene(seed=21, n_objects=3)
    img, gt = gen_scene(spec)
    cfg = SaccadeConfig(max_regions=5)
    trace = {}
    dets = run_saccade(img, OracleModel(gt, num_classes=3), cfg, trace=trace)
    confident = [d for d in dets if d.score > 0.5]
    assert len(confident) == 3
    for want in gt:
        best = max(iou(want.box, d.box) for d in confident if d.cls == want.cls)
        assert best >= 0.9
    assert trace["n_crops"] <= 5
    assert trace["pixels_ratio"] > 0


def test_run_saccade_suppression_collapses_duplicate_locations():
    spec = random_scene(seed=22, n_objects=2)
    img, gt = gen_scene(spec)
    trace = {}
    run_saccade(img, OracleModel(gt, num_classes=3), trace=trace)
    # both downsized scales and the box branch see each object: many raw
    # candidates, far fewer crops
    assert trace["n_crops"] < trace["n_locations"]
    assert trace["n_kept_locations"] == trace["n_crops"]
    kept_flags = [l["kept"] for l in trace["locations"]]
    assert sum(kept_flags) == trace["n_kept_locations"]


def test_run_saccade_crop_budget():
    spec = random_scene(seed=23, n_objects=6)
    img, gt = gen_scene(spec)
    cfg = SaccadeConfig(max_regions=2)
    trace = {}
    run_saccade(img, OracleModel(gt, num_classes=3), cfg, trace=trace)
    assert trace["n_crops"] <= 2


def test_run_saccade_order_independent():
    spec = random_scene(seed=24, n_objects=4)
    img, gt = gen_scene(spec)
    model = OracleModel(gt, num_classes=3)
    trace = {}
    base = run_saccade(img, model, trace=trace)
    n = trace["n_crops"]
    assert n > 1
    perm = list(reversed(range(n)))
    for order in (perm, np.array(perm)):  # numpy integers are crop indices too
        shuffled = run_saccade(img, model, crop_order=order)
        assert [(d.cls, d.score, d.box) for d in shuffled] == \
               [(d.cls, d.score, d.box) for d in base]


def test_run_saccade_detections_inside_image():
    spec = random_scene(seed=25, n_objects=5)
    img, gt = gen_scene(spec)
    dets = run_saccade(img, OracleModel(gt, num_classes=3))
    h, w = img.shape[2:]
    for d in dets:
        assert 0 <= d.box[0] <= d.box[2] <= w - 1
        assert 0 <= d.box[1] <= d.box[3] <= h - 1


def test_run_saccade_rejects_bad_crop_order():
    img = rand_image((510, 510), seed=26)
    with pytest.raises(ValueError, match="permutation"):
        run_saccade(img, OracleModel([], 3), crop_order=[0])


def test_run_saccade_rejects_batch_and_non_finite_image():
    img = rand_image((64, 64), seed=28)
    with pytest.raises(ValueError, match="image.*batch 1"):
        run_saccade(np.concatenate([img, img]), OracleModel([], 3))
    bad = [np.full_like(img, np.nan)]
    for value in (np.nan, np.inf):
        one = img.copy()
        one[0, 2, 40, 7] = value
        bad.append(one)
    for image in bad:
        with pytest.raises(ValueError, match="image.*non-finite"):
            run_saccade(image, OracleModel([], 3))


def test_run_saccade_accepts_weighted_graph_directly():
    from fovea.builders import build_squeeze_hourglass
    from fovea.graph import init_weights

    g = build_squeeze_hourglass(num_classes=2)
    init_weights(g, seed=13)
    img = rand_image((320, 320), seed=27)
    # random weights emit near-0.5 noise everywhere, so keep the candidate
    # budget tiny; this checks the graph-model plumbing, not detection quality
    cfg = SaccadeConfig(max_regions=2, corners_per_kind=4)
    trace = {}
    # no attention taps: box branch only
    dets = run_saccade(img, pipeline.GraphModel(g), cfg, trace=trace)
    assert isinstance(dets, list)
    assert trace["n_crops"] <= 2


@pytest.mark.parametrize("fields, match", [
    ({"nms_floor": -1.0}, "nms_floor"),
    ({"nms_floor": 1.5}, "nms_floor"),
    ({"corners_per_kind": 0}, "corners_per_kind"),
    ({"attention_threshold": 0.0}, "attention_threshold"),
    ({"attention_threshold": math.nan}, "attention_threshold"),
    ({"boundary_margin": -1.0}, "boundary_margin"),
    ({"boundary_margin": 200.0}, "boundary_margin"),
    ({"embed_threshold": -0.5}, "embed_threshold"),
    ({"nms_sigma": math.nan}, "nms_sigma"),
    ({"nms_sigma": 0.0}, "nms_sigma"),
    ({"suppress_radius": math.nan}, "suppress_radius"),
    ({"suppress_radius": -1.0}, "suppress_radius"),
    ({"max_regions": math.nan}, "max_regions"),
    ({"max_regions": 2.5}, "max_regions"),
    ({"max_regions": 0}, "max_regions"),
    ({"corners_per_kind": math.nan}, "corners_per_kind"),
    ({"corners_per_kind": 2.5}, "corners_per_kind"),
])
def test_saccade_config_rejects_out_of_range_field(fields, match):
    with pytest.raises(ValueError, match=match):
        SaccadeConfig(**fields)
    with pytest.raises(ValueError, match=match):
        SaccadeConfig.from_dict({**SaccadeConfig().to_dict(), **fields})


def test_saccade_config_from_dict_rejects_unknown_key():
    with pytest.raises(ValueError, match="nms_flor"):
        SaccadeConfig.from_dict({"nms_flor": 0.1})


def test_saccade_config_validation():
    with pytest.raises(ValueError, match="zoom"):
        SaccadeConfig(zoom_small=1.0)
    with pytest.raises(ValueError, match="attention_threshold"):
        SaccadeConfig(attention_threshold=1.5)
    cfg = SaccadeConfig()
    assert SaccadeConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.zoom_for("small") == 4.0
    assert cfg.attention_threshold == 0.3
    assert (cfg.zoom_small, cfg.zoom_medium, cfg.zoom_large) == (4.0, 2.0, 1.0)
    assert cfg.embed_threshold == 0.5
    assert cfg.corners_per_kind == 100
    assert (cfg.nms_sigma, cfg.nms_floor) == (0.5, 0.001)
    assert cfg.suppress_radius == 16.0 and cfg.boundary_margin == 0.0


# ---- model-output checks -------------------------------------------------------


class _Tampered:
    """A model whose ``{tap name: map}`` output for the ``call``-th frame
    passes through ``tamper``, which edits it in place or returns its
    replacement (calls go 255, 192, then crop 0, 1, ...)."""

    def __init__(self, model, tamper, call=0):
        self.model, self.tamper, self.call, self.calls = model, tamper, call, 0

    def infer(self, image, to_original):
        out = self.model.infer(image, to_original)
        if self.calls == self.call:
            replaced = self.tamper(out)
            if replaced is not None:
                out = replaced
        self.calls += 1
        return out


def _set(tap, fn):
    def tamper(out):
        out[tap] = fn(out[tap])
    return tamper


def _drop(*taps):
    def tamper(out):
        for tap in taps:
            del out[tap]
    return tamper


def _poke(value):
    def fn(arr):
        arr = arr.copy()
        arr[0, 0, 5, 7] = value
        return arr
    return fn


@pytest.mark.parametrize("tamper, call, match", [
    # each fragment's "." also matches the "_" of the tap name it reports
    (lambda out: list(out.values()), 0,
     "^model output for frame 255 must be a dict keyed by tap name, got list$"),
    (_drop("tl_off", "br_heat", "br_embed"), 1,
     "^model output for frame 192: tl_off is missing, br_heat is missing, br_embed is missing$"),
    (_drop("tl_off"), 0, "frame 255: tl.off is missing"),
    (_drop("br_heat"), 1, "frame 192: br.heat is missing"),
    (_drop("br_embed"), 2, r"frame crop 0: br.embed is missing"),
    (_set("tl_heat", lambda a: a[0]), 0, r"tl.heat must be shaped \(1, C, H, W\)"),
    (_set("br_embed", lambda a: np.concatenate([a, a])), 4,
     r"frame crop 2: br.embed must be shaped \(1, C, H, W\), got \(2, 1, 64, 64\)"),
    (_set("br_heat", lambda a: a[:, :2]), 0, "tl.heat has 3 classes, br.heat has 2"),
    (_set("tl_off", lambda a: a[:, :1]), 1, "frame 192: tl.off must have 2 channel"),
    (_set("br_embed", lambda a: np.concatenate([a, a], axis=1)), 0,
     "br.embed must have 1 channel"),
    (_set("tl_embed", lambda a: a[:, :, :10, :10]), 0, r"tl.embed is \(10, 10\)"),
    (_set("br_off", lambda a: a[:, :, :32]), 3, r"frame crop 1: br.off is \(32, 64\)"),
    (_set("br_heat", lambda a: a[:, :, :32, :32]), 0, r"br.heat is \(32, 32\)"),
    (_set("br_heat", _poke(np.nan)), 0, "frame 255: br.heat holds non-finite"),
    (_set("tl_off", _poke(np.inf)), 2, "frame crop 0: tl.off holds non-finite"),
    (_set("tl_embed", _poke(-np.inf)), 1, "tl.embed holds non-finite"),
    (_set("tl_heat", lambda a: a * 5), 0, r"tl.heat lies outside \[0, 1\]"),
    (_set("br_heat", _poke(-0.25)), 4, r"frame crop 2: br.heat lies outside \[0, 1\]"),
])
def test_run_saccade_rejects_bad_corner_maps(tamper, call, match):
    img, gt = gen_scene(random_scene(0, 3))
    model = _Tampered(OracleModel(gt, num_classes=3), tamper, call)
    with pytest.raises(ValueError, match=match):
        run_saccade(img, model)
    assert model.calls == call + 1  # raised at the tampered frame, before decoding it


def test_tampered_oracle_reaches_every_frame_untouched():
    img, gt = gen_scene(random_scene(0, 3))
    model = _Tampered(OracleModel(gt, num_classes=3), lambda out: None, call=4)
    trace = {}
    assert run_saccade(img, model, trace=trace) == run_saccade(img, OracleModel(gt, 3))
    assert trace["n_crops"] == 3 and model.calls == 5


def test_run_saccade_ignores_taps_it_does_not_read():
    img, gt = gen_scene(random_scene(0, 3))
    oracle = OracleModel(gt, num_classes=3)
    extra = {"feature": np.full((1, 8, 64, 64), np.nan, np.float32), "attn_huge": "not a map",
             "tl_heat_2": None}
    model = _Tampered(oracle, lambda out: out.update(extra), call=0)
    trace, want = {}, {}
    assert run_saccade(img, model, trace=trace) == run_saccade(img, oracle, trace=want)
    assert trace == want and model.calls == 5


def test_infer_may_return_oracle_outputs_as_they_are():
    # on a 255x255 image the 255 frame is the image, so every object is in it
    img, gt = gen_scene(random_scene(4, 3, hw=(255, 255)))
    oracle = OracleModel(gt, num_classes=3)
    model = _Tampered(oracle, lambda out: oracle_outputs(gt, 3), call=0)
    dets = run_saccade(img, model)
    assert dets == run_saccade(img, oracle)
    for want in gt:
        assert max(iou(want.box, d.box) for d in dets if d.cls == want.cls) > 0.99


def _nan_attention(out):
    # every map NaN used to pass silently and still yield detections
    out.update({f"attn_{size}": np.full_like(out[f"attn_{size}"], np.nan) for size in SIZE_CLASSES})


@pytest.mark.parametrize("tamper, call, match", [
    (_set("attn_small", _poke(np.nan)), 0, "frame 255: attn small holds non-finite"),
    (_set("attn_large", lambda a: np.full_like(a, np.inf)), 1,
     "frame 192: attn large holds non-finite"),
    (_set("attn_medium", _poke(1.5)), 1, r"frame 192: attn medium lies outside \[0, 1\]"),
    (_set("attn_small", _poke(-0.25)), 0, r"frame 255: attn small lies outside \[0, 1\]"),
    (_set("attn_medium", lambda a: a[0]), 0,
     r"frame 255: attn medium must be shaped \(1, C, H, W\), got \(1, 32, 32\)"),
    (_set("attn_large", lambda a: np.concatenate([a, a])), 1,
     r"frame 192: attn large must be shaped \(1, C, H, W\), got \(2, 1, 16, 16\)"),
    (_set("attn_small", lambda a: np.concatenate([a, a], axis=1)), 0,
     "frame 255: attn small must have 1 channel"),
    (_nan_attention, 0, "frame 255: attn small holds non-finite values"),
])
def test_run_saccade_rejects_bad_attention_maps(tamper, call, match):
    img, gt = gen_scene(random_scene(0, 3))
    model = _Tampered(OracleModel(gt, num_classes=3), tamper, call)
    with pytest.raises(ValueError, match=match):
        run_saccade(img, model)
    assert model.calls == call + 1  # raised at the tampered frame, before any crop


def _box_scales(model, img):
    trace = {}
    run_saccade(img, model, trace=trace)
    return [loc["scale"] for loc in trace["locations"] if loc["source"] == "box"]


def test_trace_labels_box_locations_with_their_frame():
    img, gt = gen_scene(random_scene(5, 4, hw=(720, 960)))
    oracle = OracleModel(gt, num_classes=3)
    trace = {}
    got = run_saccade(img, oracle, trace=trace)
    assert _packed(got) == _packed(_run_saccade_reference(img, oracle, SaccadeConfig())[0])
    assert trace["n_kept_locations"] == 4 and trace["n_locations"] == 16
    assert sorted(_box_scales(oracle, img)) == [192] * 4 + [255] * 4
    # with one frame's heatmaps blanked, only the other frame yields boxes
    blank = _set("tl_heat", np.zeros_like)
    for call, frame in [(0, 192), (1, 255)]:
        scales = _box_scales(_Tampered(oracle, blank, call), img)
        assert scales and set(scales) == {frame}


class _FixedModel:
    """Answers every frame with the same ``{tap name: map}``."""

    def __init__(self, maps):
        self.maps = maps

    def infer(self, image, to_original):
        return self.maps


def _tie_rich_model(seed):
    """Corner and attention maps on a coarse ladder with no offsets, so
    candidates often share a score, a row or a whole position."""
    rng = np.random.default_rng(seed)
    ladder = lambda shape: (rng.integers(0, 5, shape) / 4).astype(np.float32)
    maps = {}
    for kind in ("tl", "br"):  # the draw order fixes the maps, and with them the counts below
        maps[f"{kind}_heat"] = ladder((1, 3, 64, 64))
        maps[f"{kind}_off"] = np.zeros((1, 2, 64, 64))
        maps[f"{kind}_embed"] = ladder((1, 1, 64, 64))
    for size, hw in (("small", 64), ("medium", 32), ("large", 16)):
        maps[f"attn_{size}"] = ladder((1, 1, hw, hw))
    return _FixedModel(maps)


def _near_twin_boxes_model():
    """Class 0 and class 1 boxes of equal score whose centers lie 2e-6 px
    apart, so their locations round to the same 4 decimals."""
    heat = {kind: np.zeros((1, 2, 64, 64), np.float32) for kind in ("tl", "br")}
    off = {kind: np.zeros((1, 2, 64, 64), np.float32) for kind in ("tl", "br")}
    embed = {kind: np.zeros((1, 1, 64, 64), np.float32) for kind in ("tl", "br")}
    heat["tl"][0, 0, 10, 10] = heat["tl"][0, 1, 10, 11] = 0.9
    heat["br"][0, :, 20, 20] = 0.9
    off["tl"][0, 0, 10, 10], off["tl"][0, 0, 10, 11] = 0.5 + 1e-6, -0.5
    return _FixedModel({f"{kind}_{part}": maps[kind] for kind in ("tl", "br")
                        for part, maps in (("heat", heat), ("off", off), ("embed", embed))})


def _assert_flags_match_suppression(trace, radius):
    """The trace flags exactly the candidates ``suppress_locations`` keeps,
    and the crops follow its order."""
    locs = [ObjectLocation(**{k: v for k, v in entry.items() if k != "kept"})
            for entry in trace["locations"]]
    kept = suppress_locations(locs, radius)
    ids = {id(loc) for loc in kept}
    assert [l["kept"] for l in trace["locations"]] == [id(loc) in ids for loc in locs]
    assert [c["size_class"] for c in trace["crops"]] == [l.size for l in kept[:trace["n_crops"]]]


def test_trace_flags_the_candidate_suppression_kept():
    config = SaccadeConfig(nms_floor=0.5)
    trace = {}
    run_saccade(rand_image((255, 255), seed=3), _near_twin_boxes_model(), config, trace=trace)
    first = [l for l in trace["locations"] if l["scale"] == 255]
    # candidates list class 0 first; the ranking keeps class 1, whose center is 2e-6 px left
    assert [(l["x"], l["kept"]) for l in first] == [(60.76172076864168, False),
                                                    (60.76171875, True)]
    _assert_flags_match_suppression(trace, config.suppress_radius)


@pytest.mark.parametrize("hw", [(510, 510), (720, 960), (97, 641), (300, 1000)])
def test_trace_flags_match_suppression_on_oracle_scenes(hw):
    img, gt = gen_scene(random_scene(7, 5, hw=hw))
    trace = {}
    run_saccade(img, OracleModel(gt, num_classes=3), trace=trace)
    assert trace["n_locations"] > trace["n_kept_locations"] > 0
    _assert_flags_match_suppression(trace, SaccadeConfig().suppress_radius)


@pytest.mark.parametrize("seed", [0, 1])
def test_trace_flags_match_suppression_on_tie_rich_pools(seed):
    config = SaccadeConfig(max_regions=2, corners_per_kind=30, suppress_radius=4.0)
    trace = {}
    run_saccade(rand_image((300, 500), seed), _tie_rich_model(seed), config, trace=trace)
    sources = {l["source"] for l in trace["locations"]}
    assert trace["n_locations"] > 1000 and sources == {"box", "attention"}
    _assert_flags_match_suppression(trace, config.suppress_radius)


def test_trace_location_records_equal_the_object_construction(monkeypatch):
    # each record is a dict literal built from its candidate row; it must
    # equal, key for key and type for type, asdict of the ObjectLocation that
    # row makes, with kept flagged as np.isin flagged it
    build, calls = pipeline._location_records, []

    def spy(candidates, kept):
        calls.append((candidates, kept))
        return build(candidates, kept)

    monkeypatch.setattr(pipeline, "_location_records", spy)
    config = SaccadeConfig(max_regions=2, corners_per_kind=30, suppress_radius=4.0)
    trace = {}
    run_saccade(rand_image((300, 500), 0), _tie_rich_model(0), config, trace=trace)
    (candidates, kept), = calls
    flags = np.isin(np.arange(len(candidates)), kept)
    want = [{**dataclasses.asdict(pipeline._location(row)), "kept": flag}
            for row, flag in zip(candidates.tolist(), flags.tolist())]
    got = trace["locations"]
    assert len(got) == 6800 and 0 < len(kept) < 6800
    assert got == want
    for a, b in zip(got, want):
        assert list(a) == list(b)
        assert [type(v) for v in a.values()] == [type(v) for v in b.values()]


# ---- the object path the column path replaced ----------------------------------


def _reference_decode(out, config):
    """One frame through the list APIs, as the object path decoded it."""
    factor = CROP_SIZE / out["tl_heat"].shape[2]
    tl, br = (heatmap_peaks(out[f"{k}_heat"], config.corners_per_kind,
                            offsets=out[f"{k}_off"], embeddings=out[f"{k}_embed"], kind=k)
              for k in ("tl", "br"))
    return group_corners(tl, br, config.embed_threshold, factor)


def _reference_box(aff, box, width, height):
    """``apply_box`` on a tuple, then the former ``_clamp_box``."""
    x1, y1 = aff.apply(box[0], box[1])
    x2, y2 = aff.apply(box[2], box[3])
    return (min(max(x1, 0.0), width - 1.0), min(max(y1, 0.0), height - 1.0),
            min(max(x2, 0.0), width - 1.0), min(max(y2, 0.0), height - 1.0))


def _run_saccade_reference(image, model, config):
    """run_saccade as it was before the column path: one ``Detection`` per
    decoded pair, skipped below the floor one at a time, then stripped,
    mapped and clamped box by box.  Returns the merged detections, the
    downsized-frame detection count and each crop's detection count."""
    _, _, img_h, img_w = image.shape
    (f255, aff255, content255), (f192, aff192, _) = downsize_pair(image)
    to_canonical = aff255.invert()
    attention_locations, box_dets_canonical, merged = [], [], []
    n_downsized = 0
    for frame, aff, tag in ((f255, aff255, 255), (f192, aff192, 192)):
        out = model.infer(frame, aff)
        remap = Affine(1.0, 1.0) if tag == 255 else to_canonical.compose(aff)
        attention = {size: out[f"attn_{size}"] for size in SIZE_CLASSES if f"attn_{size}" in out}
        if attention:
            strides = {size: CROP_SIZE / arr.shape[2] for size, arr in attention.items()}
            locs = extract_locations(attention, config.attention_threshold, strides)
            for loc in locs:
                loc.x, loc.y, loc.scale = *remap.apply(loc.x, loc.y), tag
            attention_locations += locs
        for det in _reference_decode(out, config):
            if det.score < config.nms_floor:
                continue
            n_downsized += 1
            if det.score > config.attention_threshold:
                x1, y1 = remap.apply(det.box[0], det.box[1])
                x2, y2 = remap.apply(det.box[2], det.box[3])
                box_dets_canonical.append(Detection(det.cls, det.score, (x1, y1, x2, y2)))
            merged.append(Detection(det.cls, det.score,
                                    _reference_box(aff, det.box, img_w, img_h)))
    kept = suppress_locations([location_from_detection(d) for d in box_dets_canonical]
                              + attention_locations, config.suppress_radius)
    windows = [make_crop(loc, config, content255, aff255) for loc in kept[:config.max_regions]]
    lo, hi = config.boundary_margin, CROP_SIZE - 1 - config.boundary_margin
    crop_counts = []
    for window in windows:
        out = model.infer(crop_pixels(image, window), window.to_original)
        dets = [d for d in _reference_decode(out, config)
                if d.box[0] > lo and d.box[1] > lo and d.box[2] < hi and d.box[3] < hi]
        n_kept = 0
        for det in dets:
            if det.score < config.nms_floor:
                continue
            n_kept += 1
            merged.append(Detection(det.cls, det.score,
                                    _reference_box(window.to_original, det.box, img_w, img_h)))
        crop_counts.append(n_kept)
    final = soft_nms(merged, sigma=config.nms_sigma, score_floor=config.nms_floor)
    return final, n_downsized, crop_counts


def _packed(dets):
    """The bytes perfbench's ``output_digest`` hashes."""
    return b"".join(struct.pack("<q5d", d.cls, d.score, *d.box) for d in dets)


def _corner_scene(h, w):
    """Boxes touching two image corners: their mapped boxes need the clamp."""
    return SceneSpec(h, w, [SceneObject(0, (0.0, 0.0, 60.0, 40.0)),
                            SceneObject(1, (w - 71.0, h - 51.0, w - 1.0, h - 1.0))], seed=1)


# the random scenes hold boxes within 8 px of a crop edge, so the margin
# changes what is stripped.  Oracle maps are zero plateaus around the peaks,
# which at floor 0 pair into hundreds of score-0 boxes per frame that
# soft-NMS walks one by one; fewer corners per kind keep that quick
@pytest.mark.parametrize("floor, corners", [(0.0, 20), (0.001, 100), (0.5, 100)])
@pytest.mark.parametrize("margin", [0.0, 8.0])
@pytest.mark.parametrize("spec", [random_scene(3, 3, hw=(97, 641)), _corner_scene(97, 641),
                                  random_scene(2, 4, hw=(510, 510)),
                                  random_scene(7, 3, hw=(720, 960))],
                         ids=["97x641", "97x641-corners", "510x510", "720x960"])
def test_run_saccade_equals_object_path_reference(spec, margin, floor, corners):
    img, gt = gen_scene(spec)
    model = OracleModel(gt, num_classes=3)
    config = SaccadeConfig(boundary_margin=margin, nms_floor=floor, corners_per_kind=corners)
    trace = {}
    got = run_saccade(img, model, config, trace=trace)
    want, n_downsized, crop_counts = _run_saccade_reference(img, model, config)
    assert _packed(got) == _packed(want)
    assert got == want
    assert trace["n_downsized_detections"] == n_downsized
    assert [c["n_detections"] for c in trace["crops"]] == crop_counts


@pytest.mark.parametrize("seed, n_locations", [(0, 6800), (1, 6904)])
def test_run_saccade_reads_attention_without_extract_locations(seed, n_locations, monkeypatch):
    config = SaccadeConfig(max_regions=2, corners_per_kind=30, suppress_radius=4.0)
    img, model = rand_image((300, 500), seed), _tie_rich_model(seed)
    want, n_downsized, _ = _run_saccade_reference(img, model, config)

    def refuse(*args, **kwargs):
        raise AssertionError("run_saccade called extract_locations")

    monkeypatch.setattr(pipeline, "extract_locations", refuse)
    trace = {}
    got = run_saccade(img, model, config, trace=trace)
    assert _packed(got) == _packed(want)
    assert trace["n_downsized_detections"] == n_downsized
    assert trace["n_locations"] == n_locations


# ---- edge semantics the column path keeps --------------------------------------


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def test_clamp_boxes_acts_like_python_min_max():
    width, height = 641, 97
    eps_w = math.nextafter(width - 1.0, math.inf)
    row = [-0.0, 0.0, -1e-300, -3.5, width - 1.0, eps_w, math.nan, math.inf, -math.inf, 12.25]
    boxes = np.array([[v, v, v, v] for v in row] + [[height - 1.0, eps_w, 96.5, 97.0]])
    got = _clamp_boxes(boxes, width, height)
    for box, out in zip(boxes.tolist(), got.tolist()):
        want = [min(max(v, 0.0), side - 1.0) for v, side in zip(box, (width, height) * 2)]
        assert _bits(out) == _bits(want), (box, out, want)
    assert _bits(got[0]) == _bits([-0.0] * 4)  # np.maximum(-0.0, 0.0) would give +0.0
    assert got[4, 0] == width - 1.0 and got[5, 0] == width - 1.0 and got[5, 1] == height - 1.0
    assert np.isnan(got[6]).all()


def test_floor_mask_keeps_nan_scores_for_soft_nms_to_reject():
    # (cls, score, x, y, embed): only equal-index corners share an embedding
    tl_rows = [(0, 0.9, 1, 1, 0.0), (0, math.nan, 2, 2, 1.0), (0, 0.1, 3, 3, 2.0)]
    br_rows = [(0, 0.9, 9, 9, 0.0), (0, 0.5, 8, 8, 1.0), (0, 0.2, 7, 7, 2.0)]

    def columns(rows):
        cls, score, x, y, embed = (np.array(c) for c in zip(*rows))
        return cls.astype(np.int64), score, x, y, np.zeros(3), np.zeros(3), embed

    cls, score, boxes = _group_columns(columns(tl_rows), columns(br_rows), 0.5, 4.0, floor=0.15)
    # the NaN pair passes, and (0.1 + 0.2) / 2 = 0.15000000000000002 is not below 0.15
    assert len(score) == 3 and np.isnan(score).sum() == 1
    dets = _detections(cls, score, boxes)
    listed = group_corners([Corner(c, s, x, y, embed=e) for c, s, x, y, e in tl_rows],
                           [Corner(c, s, x, y, embed=e, kind="br") for c, s, x, y, e in br_rows],
                           0.5, 4.0)
    assert _packed(dets) == _packed([d for d in listed if not d.score < 0.15])
    with pytest.raises(ValueError, match="non-finite score"):
        soft_nms(dets, score_floor=0.15)
    _, score, _ = _group_columns(columns(tl_rows), columns(br_rows), 0.5, 4.0, floor=0.16)
    assert len(score) == 2


# ---- seeded properties over random scenes --------------------------------------


def _perfbench(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


SCENE_SIZES = ((510, 510), (480, 640), (720, 960), (1020, 1020))


def _random_scenes(count, seed):
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield gen_scene(random_scene(int(rng.integers(2 ** 31)), 1 + i % 8,
                                     hw=SCENE_SIZES[i % len(SCENE_SIZES)]))


def test_run_saccade_output_passes_benchmark_checks(monkeypatch):
    check_detections = _perfbench("workloads", monkeypatch).check_detections
    for floor in (0.001, 0.3):
        config = SaccadeConfig(nms_floor=floor)
        for img, gt in _random_scenes(8, seed=int(floor * 1000)):
            dets = run_saccade(img, OracleModel(gt, num_classes=3), config)
            assert dets and check_detections(dets, img, floor) == []


@pytest.mark.parametrize("name, seed", [("saccade_oracle", 0), ("saccade_oracle", 1),
                                        ("saccade_squeeze_noisy", 0)])
def test_benchmark_workload_pass_reports_no_problems(name, seed, monkeypatch):
    # perfbench guards each timed call, but an exception in set-up, check,
    # digest or report ends its run
    workloads = _perfbench("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed, workloads.Timings())
    for i in range(workload.round_calls):
        inp = workload.input(i)
        out = workload.call(inp)
        assert workload.check(inp, out) == [], (name, seed, i)
        assert isinstance(workload.digest(out), bytes)
    workload.report([0.1] * workload.round_calls)


def test_run_saccade_ignores_seeded_crop_order():
    rng = np.random.default_rng(60)
    for img, gt in _random_scenes(6, seed=61):
        model = OracleModel(gt, num_classes=3)
        trace = {}
        base = run_saccade(img, model, trace=trace)
        perm = rng.permutation(trace["n_crops"]).tolist()
        shuffled_trace = {}
        shuffled = run_saccade(img, model, trace=shuffled_trace, crop_order=perm)
        assert _packed(shuffled) == _packed(base)
        assert shuffled_trace == trace


# ---- one model call per distinct input -------------------------------------------


def _counted(model):
    """``model`` behind a wrapper that counts its ``infer`` calls and changes nothing."""
    return _Tampered(model, tamper=None, call=-1)


def _run_twice(img, model, monkeypatch, config=None):
    """(packed detections, trace, infer calls) of ``run_saccade`` as it is,
    then with every frame and crop sent to the model, reusing nothing."""
    def run():
        counted, trace = _counted(model), {}
        dets = run_saccade(img, counted, config, trace=trace)
        assert trace["n_model_calls"] == counted.calls
        return _packed(dets), trace, counted.calls

    reused = run()
    monkeypatch.setattr(pipeline, "_infer_once",
                        lambda infer, frame, to_original, outputs: infer(frame, to_original))
    return reused, run()


def _without_calls(trace):
    return {k: v for k, v in trace.items() if k != "n_model_calls"}


def test_zoom1_crop_reuses_the_255_frame_output(monkeypatch):
    img, gt = gen_scene(random_scene(7, 3, hw=(480, 640)))
    (dets, trace, calls), (ref_dets, ref_trace, ref_calls) = _run_twice(
        img, OracleModel(gt, num_classes=3), monkeypatch)
    assert [c["zoom"] for c in trace["crops"]] == [2.0, 1.0, 4.0]
    assert (calls, ref_calls) == (4, 5)
    assert dets == ref_dets and _without_calls(trace) == _without_calls(ref_trace)
    assert trace["pixels_processed"] == 5 * CROP_SIZE ** 2  # the schedule, not the calls


def test_crop_equal_in_value_but_not_in_bytes_runs_the_model(monkeypatch):
    img, gt = gen_scene(random_scene(7, 3, hw=(480, 640)))
    img = img - 1.0
    (dets, trace, calls), (ref_dets, ref_trace, ref_calls) = _run_twice(
        img, OracleModel(gt, num_classes=3), monkeypatch)
    assert (calls, ref_calls) == (5, 5)
    assert dets == ref_dets and trace == ref_trace
    # the zoom-1 crop maps like the 255 frame, but its padding holds -0.0
    f255, aff255, _ = downsize_pair(img)[0]
    c = next(c for c in trace["crops"] if c["zoom"] == 1.0)
    window = CropWindow(c["zoom"], c["x0"], c["y0"], c["size"], Affine(**c["to_original"]))
    crop = crop_pixels(img, window)
    assert window.to_original == aff255 and np.array_equal(crop, f255)
    assert crop.tobytes() != f255.tobytes()


def test_two_zoom1_crops_of_the_noisy_library_reuse_the_255_frame(monkeypatch):
    from fovea.builders import build_squeeze_hourglass
    from fovea.graph import init_weights

    g = build_squeeze_hourglass(3, input_hw=(255, 255))
    init_weights(g, seed=0)
    img, _ = gen_scene(random_scene(3, 7, hw=(1020, 1020)))  # perfbench's 1020² library scene
    (dets, trace, calls), (ref_dets, ref_trace, ref_calls) = _run_twice(
        img, pipeline.GraphModel(g), monkeypatch, SaccadeConfig(max_regions=2))
    assert [c["zoom"] for c in trace["crops"]] == [1.0, 1.0]
    assert (calls, ref_calls) == (2, 4)
    assert dets == ref_dets and _without_calls(trace) == _without_calls(ref_trace)


def test_two_zoom1_crops_with_signed_zero_padding_share_one_model_call(monkeypatch):
    # both zoom-1 crops map like the 255 frame, but the shifted image gives
    # their padding -0.0 where the frame holds +0.0: the second crop reuses
    # the first crop's output, not the frame's
    spec = SceneSpec(480, 640, [SceneObject(0, (40, 40, 300, 260)),
                                SceneObject(1, (340, 200, 600, 440))], seed=3)
    img, gt = gen_scene(spec)
    (dets, trace, calls), (ref_dets, ref_trace, ref_calls) = _run_twice(
        img - 1.0, OracleModel(gt, num_classes=3), monkeypatch)
    assert [c["zoom"] for c in trace["crops"]] == [1.0, 1.0]
    assert (calls, trace["n_model_calls"], ref_calls) == (3, 3, 4)
    assert dets == ref_dets and _without_calls(trace) == _without_calls(ref_trace)


def test_hourglass54_attention_taps_drive_the_saccade(monkeypatch):
    # the paper's CornerNet-Saccade: a seeded hourglass54 with attention heads
    from fovea.builders import build_hourglass54
    from fovea.graph import init_weights
    from fovea.scene import ATTENTION_MAP_HW

    g = build_hourglass54(3)
    init_weights(g, seed=0)
    img, _ = gen_scene(random_scene(0, 3))
    # no box scores above 0.8 (the best is 0.777), so an attention candidate gets the crop
    trace = {}
    run_saccade(img, pipeline.GraphModel(g), SaccadeConfig(max_regions=1, attention_threshold=0.8),
                trace=trace)
    assert {loc["source"] for loc in trace["locations"]} == {"attention"}
    assert [(c["zoom"], c["size_class"]) for c in trace["crops"]] == [(4.0, "small")]
    assert trace["n_model_calls"] == 3

    # at the default threshold attention passes almost everywhere, but the kept
    # box candidates rank first, so both crops are box-sourced; one is zoom 1
    shapes = {}
    model = _Tampered(pipeline.GraphModel(g), tamper=lambda out: shapes.update(
        {size: out[f"attn_{size}"].shape[2:] for size in SIZE_CLASSES}))
    (dets, trace, calls), (ref_dets, ref_trace, ref_calls) = _run_twice(
        img, model, monkeypatch, SaccadeConfig(max_regions=2))
    assert shapes == ATTENTION_MAP_HW
    kept = {(loc["source"], loc["scale"]) for loc in trace["locations"] if loc["kept"]}
    assert {("attention", 255), ("attention", 192), ("box", 255)} <= kept
    assert [c["zoom"] for c in trace["crops"]] == [1.0, 2.0]
    assert (calls, ref_calls) == (3, 4)  # two frames and two crops, the zoom-1 crop reused
    assert dets == ref_dets and _without_calls(trace) == _without_calls(ref_trace)


FEW_CORNERS = SaccadeConfig(corners_per_kind=5)  # keeps tie-rich maps cheap to decode


@pytest.mark.parametrize("seed", [0, 1])
def test_crops_sharing_a_window_share_one_model_call(seed, monkeypatch):
    img = rand_image((300, 400), seed)
    (dets, trace, calls), (ref_dets, ref_trace, ref_calls) = _run_twice(
        img, _tie_rich_model(seed), monkeypatch, FEW_CORNERS)
    aff255, aff192 = (aff for _, aff, _ in downsize_pair(img))
    distinct = {aff255, aff192} | {Affine(**c["to_original"]) for c in trace["crops"]}
    assert ref_calls == 2 + trace["n_crops"] == 14 and calls == len(distinct) == 12
    assert dets == ref_dets and _without_calls(trace) == _without_calls(ref_trace)


@pytest.mark.parametrize("scene", ["zoom1", "shared windows"])
def test_reversed_crop_order_with_reused_outputs(scene):
    if scene == "zoom1":
        img, gt = gen_scene(random_scene(7, 3, hw=(480, 640)))
        model, config = OracleModel(gt, num_classes=3), None
    else:
        img, model, config = rand_image((300, 400), 0), _tie_rich_model(0), FEW_CORNERS
    trace, reversed_trace = {}, {}
    dets = run_saccade(img, model, config, trace=trace)
    order = list(range(trace["n_crops"]))[::-1]
    assert _packed(run_saccade(img, model, config, reversed_trace, order)) == _packed(dets)
    assert reversed_trace == trace and trace["n_model_calls"] < 2 + trace["n_crops"]


@pytest.mark.parametrize("hw", [(97, 641), (641, 97), (300, 1000)])
def test_run_saccade_recovers_every_box_at_odd_aspects(hw):
    for seed in range(4):
        img, gt = gen_scene(random_scene(seed, 4, hw=hw))
        assert len(gt) == 4
        dets = run_saccade(img, OracleModel(gt, num_classes=3))
        for want in gt:
            best = max((iou(want.box, d.box) for d in dets
                        if d.cls == want.cls and d.score > 0.5), default=0.0)
            assert best >= 0.9, (seed, want)


def test_soft_nms_never_raises_a_score():
    rng = np.random.default_rng(62)
    for trial in range(12):
        dets = (_tied_dets if trial % 2 else _random_dets)(rng, int(rng.integers(5, 400)))
        out = soft_nms(dets, sigma=float(rng.uniform(0.05, 2.0)))
        # match outputs to inputs with the same class and box, best to best
        pools = {}
        for d in dets:
            pools.setdefault((d.cls, d.box), []).append(d.score)
        taken = {}
        for d in sorted(out, key=lambda d: -d.score):
            key = (d.cls, d.box)
            ranked = sorted(pools[key], reverse=True)
            i = taken.get(key, 0)
            taken[key] = i + 1
            assert d.score <= ranked[i]


# ---- a GraphModel's calls, two at a time -------------------------------------------


@pytest.fixture(scope="module")
def squeeze_model():
    from fovea.builders import build_squeeze_hourglass
    from fovea.graph import init_weights

    g = build_squeeze_hourglass(3, input_hw=(255, 255))
    init_weights(g, seed=0)
    return pipeline.GraphModel(g)


def _forward_threads(monkeypatch, fail_on_worker=False):
    """The thread of every ``forward`` a ``GraphModel`` makes from now on, with
    OpenBLAS's thread count as each began; ``fail_on_worker`` makes the worker's raise."""
    from fovea.graph import forward

    calls, caller = [], threading.get_ident()
    blas = pipeline._blas_threads()

    def recorded(graph, x):
        calls.append((threading.get_ident(), blas and blas[0]()))
        if fail_on_worker and threading.get_ident() != caller:
            raise ValueError("the worker's call failed")
        return forward(graph, x)

    monkeypatch.setattr(pipeline, "forward", recorded)
    return calls


def test_overlapped_calls_match_calls_in_turn_on_the_noisy_library(squeeze_model, monkeypatch):
    # perfbench's saccade_squeeze_noisy images; behind a wrapper that is not a
    # GraphModel the same model runs one call at a time, interleaved with decoding
    calls, caller = _forward_threads(monkeypatch), threading.get_ident()
    config, on_worker = SaccadeConfig(max_regions=2), 0
    for k, hw in enumerate(SCENE_SIZES):
        img, _ = gen_scene(random_scene(k, 1 + 2 * k, hw=hw, num_classes=3))
        counted, want_trace, trace = _counted(squeeze_model), {}, {}
        want = _packed(run_saccade(img, counted, config, trace=want_trace))
        assert {thread for thread, _ in calls} == {caller}
        del calls[:]
        assert _packed(run_saccade(img, squeeze_model, config, trace=trace)) == want
        assert trace == want_trace and trace["n_model_calls"] == counted.calls == len(calls)
        on_worker += sum(thread != caller for thread, _ in calls)
        # every thread started for an overlap has ended when run_saccade returns
        alive = {thread.ident for thread in threading.enumerate()}
        assert {thread for thread, _ in calls} & alive == {caller}
        del calls[:]
    # a started thread makes one of each image's two frame calls, and more among the crops
    assert on_worker >= len(SCENE_SIZES) or pipeline._blas_threads() is None


def test_blas_threads_are_halved_while_calls_overlap_and_restored(squeeze_model, monkeypatch):
    blas = pipeline._blas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread count to pin, or under 2 cores: calls run in turn")
    get, put = blas
    img, before = gen_scene(random_scene(0, 3))[0], get()
    for n in (2, 1):  # 1 thread stays 1: two overlapping calls, one thread each
        put(n)
        try:
            calls = _forward_threads(monkeypatch)
            run_saccade(img, squeeze_model, SaccadeConfig(max_regions=2))
            assert get() == n
            assert [threads for _, threads in calls[:2]] == [max(1, n // 2)] * 2
            # the worker's call raises, and its error surfaces at the 192 frame
            _forward_threads(monkeypatch, fail_on_worker=True)
            with pytest.raises(ValueError, match="the worker's call failed"):
                run_saccade(img, squeeze_model, SaccadeConfig(max_regions=2))
            assert get() == n
        finally:
            put(before)


def test_saccades_on_more_threads_than_cores_keep_results_and_blas_threads(squeeze_model):
    # each overlap's pin and restore of the one process-wide thread count must
    # not interleave with another caller's, or a caller restores a pinned count
    from concurrent.futures import ThreadPoolExecutor

    blas, config = pipeline._blas_threads(), SaccadeConfig(max_regions=1)
    images = [gen_scene(random_scene(k, 2))[0] for k in range(3)]
    want = [_packed(run_saccade(img, _counted(squeeze_model), config)) for img in images]
    before, interval = blas and blas[0](), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(run_saccade, img, squeeze_model, config) for img in images]
            got = [_packed(future.result(timeout=300)) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert blas is None or blas[0]() == before


def test_a_pass_makes_its_calls_in_turn_while_another_thread_holds_the_pin(squeeze_model,
                                                                            monkeypatch):
    # a caller that finds another overlap in progress does not wait for it: its
    # calls run on its own thread, at the thread count it finds, with equal results
    from concurrent.futures import ThreadPoolExecutor

    img, config = gen_scene(random_scene(0, 3))[0], SaccadeConfig(max_regions=2)
    want_trace, trace = {}, {}
    want = _packed(run_saccade(img, _counted(squeeze_model), config, trace=want_trace))
    calls = _forward_threads(monkeypatch)
    with ThreadPoolExecutor(max_workers=1) as pool, pipeline._PINNED:
        future = pool.submit(run_saccade, img, squeeze_model, config, trace)
        got = _packed(future.result(timeout=120))
    assert got == want and trace == want_trace
    assert len({thread for thread, _ in calls}) == 1 and len(calls) == trace["n_model_calls"]


def test_a_pass_locked_out_of_the_overlap_raises_at_the_first_bad_frame(squeeze_model):
    # a pass that makes its calls in turn makes each just before its frame decodes,
    # so a bad 255 frame output raises before the 192 frame's forward runs
    class ListFirst(pipeline.GraphModel):
        calls = 0

        def infer(self, image, to_original=None):
            self.calls += 1
            out = super().infer(image, to_original)
            return list(out.values()) if self.calls == 1 else out

    model, img = ListFirst(squeeze_model.graph), gen_scene(random_scene(0, 3))[0]
    with pipeline._PINNED, pytest.raises(ValueError, match="^model output for frame 255 must"):
        run_saccade(img, model)
    assert model.calls == 1


# ---- the benchmark's tracer hooks ----------------------------------------------


def test_tracer_wraps_live_names_and_restores_them(monkeypatch):
    tracing = _perfbench("tracing", monkeypatch)
    originals = {}
    for name, targets in tracing.WRAPPED.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
            originals[owner, attr] = getattr(owner, attr)
    img, gt = gen_scene(random_scene(0, 3))
    tracer = tracing.Tracer({})
    tracer.install()
    try:
        dets = pipeline.run_saccade(img, OracleModel(gt, num_classes=3))
    finally:
        tracer.uninstall()
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr} not restored"
    rows = tracer.summarize()
    assert rows["pipeline.run_saccade"]["calls"] == 1
    assert rows["pipeline.soft_nms"]["out"] == len(dets)


def test_tracer_sees_every_saccade_stage(monkeypatch):
    # the stages call downsize_pair, crop_pixels and soft_nms by their module
    # names at call time; an alias bound earlier would hide them from the tracer
    from fovea import analysis, build_squeeze_hourglass, init_weights
    tracing = _perfbench("tracing", monkeypatch)
    img, gt = gen_scene(random_scene(0, 3))
    g = build_squeeze_hourglass(3)
    init_weights(g, seed=0)
    for model, config, macs in ((OracleModel(gt, num_classes=3), None, {}),
                                (pipeline.GraphModel(g), SaccadeConfig(max_regions=2),
                                 {id(g): analysis.cost_report(g).macs})):
        tracer, trace = tracing.Tracer(macs), {}
        tracer.install()
        try:
            dets = pipeline.run_saccade(img, model, config, trace=trace)
        finally:
            tracer.uninstall()
        rows = tracer.summarize()
        assert trace["n_crops"] >= 1
        assert rows["pipeline.downsize_pair"]["calls"] == 1
        assert rows["kernels.resize_longer_side"]["calls"] == 2
        assert rows["pipeline.crop_pixels"]["calls"] == trace["n_crops"]
        assert rows["pipeline.model_infer"]["calls"] == trace["n_model_calls"]
        assert rows["pipeline.soft_nms"]["calls"] == 1
        assert rows["pipeline.soft_nms"]["out"] == len(dets)


def test_tracer_counts_each_conv_node_once(monkeypatch):
    # depthwise_conv2d runs through kernels.conv2d, but the tracer wraps the
    # names graph looks up, so each conv and dwconv node is one span
    from fovea import analysis, build_squeeze_hourglass, graph, init_weights
    tracing = _perfbench("tracing", monkeypatch)
    g = build_squeeze_hourglass(3, (255, 255))
    init_weights(g, seed=0)
    x = np.random.default_rng(0).normal(size=(1, 3, 255, 255)).astype(np.float32)
    tracer = tracing.Tracer({id(g): analysis.cost_report(g).macs})
    tracer.install()
    try:
        graph.forward(g, x)
    finally:
        tracer.uninstall()
    rows = tracer.summarize()
    convs = sum(row["calls"] for name, row in rows.items() if name.startswith("kernels.conv2d"))
    kinds = [node.kind for node in g.nodes]
    assert rows["graph.forward"]["calls"] == 1
    assert (rows["kernels.depthwise_conv2d"]["calls"], convs) == (kinds.count("dwconv"),
                                                                 kinds.count("conv")) == (59, 131)
