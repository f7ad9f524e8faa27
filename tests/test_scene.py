import math

import numpy as np
import pytest

from fovea.builders import build_hourglass54
from fovea.decode import (CLAMP_EPS, SIZE_CLASSES, Detection, corner_targets, focal_loss,
                          group_corners, heatmap_peaks, pull_push_offset_losses, size_class_of)
from fovea.pipeline import (CROP_SIZE, Affine, ObjectLocation, SaccadeConfig, downsize_pair, iou,
                            make_crop)
from fovea.scene import (ATTENTION_MAP_HW, HEATMAP_HW, ORACLE_PEAK, OracleModel, SceneObject,
                         SceneSpec, gen_scene, oracle_outputs, random_scene)


def test_gen_scene_empty():
    spec = SceneSpec(height=64, width=64, objects=[], seed=5)
    image, gt = gen_scene(spec)
    assert gt == []
    assert image.shape == (1, 3, 64, 64)
    assert image.max() <= spec.noise + 1e-6


def test_gen_scene_deterministic():
    spec = random_scene(seed=7, n_objects=4)
    a, gta = gen_scene(spec)
    b, gtb = gen_scene(spec)
    assert a.tobytes() == b.tobytes()
    assert gta == gtb


def test_gen_scene_objects_inside_canvas():
    spec = random_scene(seed=8, n_objects=5)
    image, gt = gen_scene(spec)
    assert len(gt) == 5
    for d in gt:
        x1, y1, x2, y2 = d.box
        assert 0 <= x1 < x2 < spec.width
        assert 0 <= y1 < y2 < spec.height
    # channels are replicated greyscale
    assert np.array_equal(image[0, 0], image[0, 1])
    assert np.array_equal(image[0, 0], image[0, 2])


def test_gen_scene_rejects_out_of_canvas_box():
    spec = SceneSpec(64, 64, [SceneObject(0, (10, 10, 70, 20))])
    with pytest.raises(ValueError, match="canvas"):
        gen_scene(spec)


def test_oracle_single_object_round_trip():
    gt = [Detection(1, 1.0, (12.5, 30.25, 180.0, 200.75))]
    out = oracle_outputs(gt, num_classes=3)
    assert out["tl_heat"].sum() == np.float32(0.9)
    assert out["br_heat"].sum() == np.float32(0.9)
    tl = heatmap_peaks(out["tl_heat"], 5, offsets=out["tl_off"], embeddings=out["tl_embed"],
                       kind="tl")
    br = heatmap_peaks(out["br_heat"], 5, offsets=out["br_off"], embeddings=out["br_embed"],
                       kind="br")
    dets = group_corners([c for c in tl if c.score > 0.5],
                         [c for c in br if c.score > 0.5],
                         embed_threshold=0.5, downsample_factor=255 / 64)
    assert len(dets) == 1
    assert iou(dets[0].box, gt[0].box) > 1 - 1e-5
    assert dets[0].cls == 1


def test_oracle_small_object_routes_to_small_map_only():
    gt = [Detection(0, 1.0, (40.0, 40.0, 60.0, 55.0))]  # longer side 20
    out = oracle_outputs(gt, num_classes=1)
    assert out["attn_small"].sum() == np.float32(0.9)
    assert out["attn_medium"].sum() == 0
    assert out["attn_large"].sum() == 0


def test_oracle_empty_gt_all_zero():
    out = oracle_outputs([], num_classes=2)
    assert out["tl_heat"].sum() == 0 and out["br_heat"].sum() == 0
    assert all(out[f"attn_{size}"].sum() == 0 for size in ("small", "medium", "large"))


def test_oracle_maps_are_a_drop_in_for_the_hourglass54_taps():
    # at 255x255 the oracle renders every map the backbone taps for the pipeline, at its shape
    g = build_hourglass54(3)
    shapes = g.shapes()
    gt = [Detection(o.cls, 1.0, o.box) for o in random_scene(0, 3, hw=(255, 255)).objects]
    maps = oracle_outputs(gt, 3)
    assert set(maps) == set(g.taps) - {"feature"}
    for name, arr in maps.items():
        assert arr.shape == shapes[g.taps[name]], name


def test_oracle_embedding_tags_start_at_one():
    gt = [Detection(0, 1.0, (10, 10, 50, 50)), Detection(0, 1.0, (120, 120, 200, 210))]
    out = oracle_outputs(gt, num_classes=1)
    tags = sorted(set(out["tl_embed"].ravel().tolist()) - {0.0})
    assert tags == [1.0, 2.0]


def test_oracle_multi_object_round_trip_many_seeds():
    # scaled-down version of the decode round-trip gate: exact recovery on
    # every seeded scene
    for seed in range(6):
        spec = random_scene(seed=seed, n_objects=1 + seed % 4, hw=(255, 255))
        gt = [Detection(o.cls, 1.0, o.box) for o in spec.objects]
        out = oracle_outputs(gt, num_classes=3)
        tl = heatmap_peaks(out["tl_heat"], 100, offsets=out["tl_off"], embeddings=out["tl_embed"])
        br = heatmap_peaks(out["br_heat"], 100, offsets=out["br_off"], embeddings=out["br_embed"],
                           kind="br")
        dets = group_corners(tl, br, 0.5, 255 / 64)
        confident = [d for d in dets if d.score > 0.5]
        assert len(confident) == len(gt)
        for want in gt:
            assert max(iou(want.box, d.box) for d in confident if d.cls == want.cls) > 0.99


def test_oracle_model_drops_boxes_outside_frame():
    gt = [Detection(0, 1.0, (10.0, 10.0, 100.0, 100.0)),
          Detection(1, 1.0, (300.0, 300.0, 400.0, 400.0))]
    model = OracleModel(gt, num_classes=2)
    # identity frame mapping: frame covers [0, 255): the second box is outside
    out = model.infer(np.zeros((1, 3, 255, 255), np.float32), Affine(1.0, 1.0))
    assert out["tl_heat"][0, 0].sum() == np.float32(0.9)
    assert out["tl_heat"][0, 1].sum() == 0


def test_oracle_model_takes_the_flat_boxes_gen_scene_draws():
    # a box with x1 == x2 or y1 == y2 is a scene object; only an inverted one is refused
    spec = SceneSpec(64, 64, [SceneObject(0, (10.0, 10.0, 10.0, 30.0)),
                              SceneObject(1, (5.0, 20.0, 40.0, 20.0))])
    _, gt = gen_scene(spec)
    frame = np.zeros((1, 3, 64, 64), np.float32)
    out = OracleModel(gt, num_classes=2).infer(frame, Affine(1.0, 1.0))
    assert out["tl_heat"][0].max(axis=(1, 2)).tolist() == [np.float32(ORACLE_PEAK)] * 2


def test_oracle_model_requires_geometry():
    with pytest.raises(ValueError, match="map"):
        OracleModel([], 1).infer(np.zeros((1, 3, 255, 255), np.float32), None)


def _oracle_infer_per_box(model, image, to_original):
    """``OracleModel.infer`` as it was: each ground-truth box mapped on its own,
    one ``Affine.apply`` per corner, and kept if it lies inside the frame."""
    to_frame = to_original.invert()
    fh, fw = image.shape[2:]
    visible, tags = [], []
    for i, det in enumerate(model.gt):
        box = (*to_frame.apply(det.box[0], det.box[1]), *to_frame.apply(det.box[2], det.box[3]))
        if box[0] >= 0 and box[1] >= 0 and box[2] <= fw - 1 and box[3] <= fh - 1:
            visible.append(Detection(det.cls, ORACLE_PEAK, box))
            tags.append(i + 1)
    return oracle_outputs(visible, model.num_classes, frame_hw=(fh, fw), tags=tags)


def _oracle_infer_cases():
    """(gt, frame, to_original): seeded scenes under their downsized-frame and
    crop maps, boxes touching each frame edge or just past it, an empty gt,
    integer boxes and maps with negative offsets."""
    frame = np.zeros((1, 3, CROP_SIZE, CROP_SIZE), np.float32)
    for seed in range(12):
        hw = ((510, 510), (480, 640), (720, 960), (97, 641))[seed % 4]
        gt = [Detection(o.cls, 1.0, o.box) for o in random_scene(seed, 1 + seed % 8, hw=hw).objects]
        frames = downsize_pair(np.zeros((1, 3, *hw), np.float32))
        for _, aff, _ in frames:
            yield gt, frame, aff
        _, aff, content = frames[0]
        to_frame = aff.invert()
        for size in SIZE_CLASSES:  # zoom 4, 2 and 1 crops around each object
            for det in gt:
                x, y = to_frame.apply((det.box[0] + det.box[2]) / 2, (det.box[1] + det.box[3]) / 2)
                window = make_crop(ObjectLocation(x, y, size, 0.9), SaccadeConfig(), content, aff)
                yield gt, frame, window.to_original
        yield gt, frame, Affine(1.5, 1.5, -40.0, -25.5)
    edges = [Detection(0, 1.0, (0.0, 100.0, 30.0, 140.0)),       # left edge
             Detection(1, 1.0, (100.0, 0.0, 140.0, 30.0)),       # top edge
             Detection(2, 1.0, (224.0, 100.0, 254.0, 140.0)),    # right edge
             Detection(0, 1.0, (100.0, 224.0, 140.0, 254.0)),    # bottom edge
             Detection(1, 1.0, (0.0, 0.0, 254.0, 254.0)),        # all four
             Detection(2, 1.0, (-1e-9, 50.0, 20.0, 60.0)),       # just past the left edge
             Detection(0, 1.0, (50.0, 60.0, 254.0000001, 70.0)),  # just past the right edge
             Detection(1, 1.0, (170.0, -1e-9, 190.0, 20.0)),     # just past the top edge
             Detection(2, 1.0, (60.0, 170.0, 70.0, 254.5))]      # just past the bottom edge
    yield edges, frame, Affine(1.0, 1.0)
    doubled = [Detection(d.cls, 1.0, tuple(2 * v for v in d.box)) for d in edges]
    yield doubled, frame, Affine(2.0, 2.0)
    yield edges[:2] + [Detection(2, 1.0, (600.0, 0.0, 640.0, 96.0))], \
        np.zeros((1, 3, 97, 641), np.float32), Affine(1.0, 1.0)
    yield [], frame, Affine(1.0, 1.0)
    yield [], frame, Affine(0.5, 2.0, -3.0, -7.0)
    integers = [Detection(0, 1.0, (10, 20, 60, 90)), Detection(2, 1.0, (0, 0, 254, 254)),
                Detection(1, 1.0, (300, 8, 400, 100))]
    yield integers, frame, Affine(1.0, 1.0)
    yield integers, frame, Affine(2.0, 2.0, 3.0, 5.0)
    yield integers, frame, Affine(0.75, 1.25, -60.0, -8.0)


def test_oracle_infer_maps_every_box_at_once_as_the_per_box_loop_did():
    cases = list(_oracle_infer_cases())
    assert len(cases) >= 150
    for gt, frame, to_original in cases:
        model = OracleModel(gt, num_classes=3)
        got = model.infer(frame, to_original)
        want = _oracle_infer_per_box(model, frame, to_original)
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
            assert got[name].tobytes() == arr.tobytes(), (to_original, name)


def test_scene_spec_serialization_round_trip():
    spec = random_scene(seed=9, n_objects=3)
    back = SceneSpec.from_dict(spec.to_dict())
    assert back.to_dict() == spec.to_dict()


def test_random_scene_redraws_boxes_that_cannot_fit_the_margin():
    # this seed once drew a box too tall for the 24 px margin and raised numpy's
    # bare "high - low < 0"; such candidates are now redrawn
    spec = random_scene(1, 4, hw=(97, 641))
    assert len(spec.objects) == 4
    for obj in spec.objects:
        x1, y1, x2, y2 = obj.box
        assert 24 <= x1 < x2 <= 641 - 24 and 24 <= y1 < y2 <= 97 - 24


def test_random_scene_keeps_the_boxes_it_built_before():
    # redrawing consumes no random draw, so scenes that built keep their boxes
    spec = random_scene(3, 3, hw=(97, 641))
    assert [(o.cls, o.box) for o in spec.objects] == [
        (0, (354.06116718534355, 25.083795958382645, 380.1036077115586, 62.569809008324526)),
        (1, (88.06347762554712, 25.834257713113406, 117.48171256284542, 70.14579773585687)),
        (2, (435.916673262659, 27.85811554202448, 470.6412903029718, 72.82355771050514)),
    ]


@pytest.mark.parametrize("hw", [(60, 200), (200, 60), (68, 68)])
def test_random_scene_rejects_frames_too_small_for_any_box(hw):
    with pytest.raises(ValueError, match=rf"hw=\({hw[0]}, {hw[1]}\)"):
        random_scene(0, 1, hw=hw)
    assert random_scene(0, 0, hw=hw).objects == []


# ---- the oracle as the target rules' renderer ----------------------------------


def _oracle_outputs_loop(gt, num_classes, frame_hw=(CROP_SIZE, CROP_SIZE), tags=None):
    """The former ``oracle_outputs``, which spelled the corner-cell and
    attention-centre rules itself: frozen as the byte reference."""
    fh, fw = frame_hw
    hh, hw_ = HEATMAP_HW
    fy, fx = fh / hh, fw / hw_

    maps = {f"{kind}_{part}": np.zeros((1, channels, hh, hw_), np.float32)
            for kind in ("tl", "br")
            for part, channels in (("heat", num_classes), ("embed", 1), ("off", 2))}
    maps.update({f"attn_{size}": np.zeros((1, 1) + tuple(dims), np.float32)
                 for size, dims in ATTENTION_MAP_HW.items()})

    for i, det in enumerate(gt):
        x1, y1, x2, y2 = det.box
        tag = float(tags[i]) if tags is not None else float(i + 1)
        for kind, cx, cy in (("tl", x1, y1), ("br", x2, y2)):
            ix = int(np.floor(cx / fx))
            iy = int(np.floor(cy / fy))
            maps[f"{kind}_heat"][0, det.cls, iy, ix] = ORACLE_PEAK
            maps[f"{kind}_embed"][0, 0, iy, ix] = tag
            maps[f"{kind}_off"][0, :, iy, ix] = cx / fx - ix, cy / fy - iy

        size = size_class_of(max(x2 - x1, y2 - y1))
        ah, aw = ATTENTION_MAP_HW[size]
        sy, sx = fh / ah, fw / aw
        mx = int(np.floor((x1 + x2) / 2.0 / sx + 0.5))
        my = int(np.floor((y1 + y2) / 2.0 / sy + 0.5))
        if 0 <= my < ah and 0 <= mx < aw:
            maps[f"attn_{size}"][0, 0, my, mx] = ORACLE_PEAK

    return maps


def _reference_cases():
    """(gt, frame_hw, tags) on seeded scenes at square and non-square frames,
    plus an empty gt and corners that share a cell."""
    for seed in range(50):
        hw = ((510, 510), (97, 641), (255, 255), (480, 640))[seed % 4]
        spec = random_scene(seed, 1 + seed % 8, hw=hw)
        gt = [Detection(o.cls, 1.0, o.box) for o in spec.objects]
        yield gt, hw, None
        if seed % 5 == 0:  # the same objects rendered on the crop frame, with scene tags
            inside = [d for d in gt if max(d.box) < CROP_SIZE]
            yield inside, (CROP_SIZE, CROP_SIZE), [7 * i + 3 for i in range(len(inside))]
    yield [], (255, 255), None
    yield [], (97, 641), None
    # two top-left corners in cell (2, 2) at 255/64 px per cell; then the same
    # class on both, so their heat peaks coincide as well
    shared = [Detection(0, 1.0, (10.2, 10.3, 100.0, 100.0)),
              Detection(1, 1.0, (11.0, 9.0, 60.0, 200.0))]
    yield shared, (255, 255), None
    yield [Detection(1, 1.0, d.box) for d in shared], (255, 255), [4, 9]
    # two bottom-right corners in one cell, and two centres on one attention pixel
    yield [Detection(2, 1.0, (40.0, 40.0, 200.0, 150.0)),
           Detection(2, 1.0, (60.0, 40.0, 201.5, 150.0))], (255, 255), None


def test_oracle_outputs_bytes_match_the_former_renderer():
    cases = list(_reference_cases())
    assert len(cases) >= 55
    for gt, frame_hw, tags in cases:
        got = oracle_outputs(gt, 3, frame_hw=frame_hw, tags=tags)
        want = _oracle_outputs_loop(gt, 3, frame_hw=frame_hw, tags=tags)
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
            assert got[name].tobytes() == arr.tobytes(), (frame_hw, name)


def test_shared_cells_keep_the_later_corner():
    # both top-left corners fall in cell (2, 2); the second object's tag and offsets win
    gt = [Detection(0, 1.0, (10.2, 10.3, 100.0, 100.0)),
          Detection(1, 1.0, (11.0, 9.0, 60.0, 200.0))]
    out = oracle_outputs(gt, 2)
    assert out["tl_embed"][0, 0, 2, 2] == 2.0
    np.testing.assert_array_equal(out["tl_off"][0, :, 2, 2],
                                  np.float32([11.0 * 64 / 255 - 2, 9.0 * 64 / 255 - 2]))
    assert out["tl_heat"][:, :, 2, 2].tolist() == [[np.float32(ORACLE_PEAK)] * 2]


@pytest.mark.parametrize("seed", range(8))
def test_oracle_is_the_losses_fixed_point(seed):
    # the oracle stands for a perfectly trained network, so the losses are at
    # their minimum on its maps, read at the cells of the targets
    spec = random_scene(seed, 2 + seed % 6)
    frame_hw = (spec.height, spec.width)
    gt = [Detection(o.cls, 1.0, o.box) for o in spec.objects]
    maps = oracle_outputs(gt, 3, frame_hw=frame_hw)
    targets = corner_targets(gt, 3, frame_hw, HEATMAP_HW)

    def at_cells(name, cells):  # (n, channels) values of one map at per-object cells
        return maps[name][0][:, cells[:, 1], cells[:, 0]].T

    tl_heat, tl_cells, tl_off = targets["tl"]
    br_heat, br_cells, br_off = targets["br"]
    embeddings = np.hstack([at_cells("tl_embed", tl_cells), at_cells("br_embed", br_cells)])
    offsets = np.stack([at_cells("tl_off", tl_cells), at_cells("br_off", br_cells)], axis=1)
    # the maps hold float32, so the offset targets are compared at float32
    gt_offsets = np.stack([tl_off, br_off], axis=1).astype(np.float32)
    assert pull_push_offset_losses(embeddings, offsets, gt_offsets) == (0.0, 0.0, 0.0)

    # focal loss of heat 0.9 on every positive and 0 elsewhere, in closed form
    p, eps = float(np.float32(ORACLE_PEAK)), CLAMP_EPS
    for kind, heat in (("tl", tl_heat), ("br", br_heat)):
        n_pos, n_neg = int(heat.sum()), heat.size - int(heat.sum())
        assert n_pos == len(gt)
        want = -(1 - p) ** 2 * math.log(p) - n_neg / n_pos * eps ** 2 * math.log(1 - eps)
        assert focal_loss(maps[f"{kind}_heat"], heat) == pytest.approx(want, rel=1e-12)
        assert np.array_equal(maps[f"{kind}_heat"] > 0, heat == 1)
