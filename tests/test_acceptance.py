"""Acceptance gate: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fovea import naive
from fovea.analysis import compare_archs, cost_report, param_enumeration, structure_census
from fovea.builders import (Emit, build_hourglass54, build_hourglass104_reference,
                            build_squeeze_hourglass)
from fovea.decode import (Detection, focal_loss, group_corners, heatmap_peaks,
                          pull_push_offset_losses)
from fovea.graph import ArchGraph, forward, init_weights
from fovea.kernels import (ConvSpec, conv2d, depthwise_conv2d, max_pool2d,
                           transpose_conv2d)
from fovea.pipeline import SaccadeConfig, iou, run_saccade, soft_nms
from fovea.scene import OracleModel, gen_scene, oracle_outputs, random_scene

RTOL = 1e-5


@contextmanager
def criterion(n, desc):
    try:
        yield
    except Exception:
        print(f"[criterion {n:2d}] FAIL  {desc}")
        raise
    print(f"[criterion {n:2d}] PASS  {desc}")


def corpus():
    """50 seeded scenes with 1..8 well-separated objects each."""
    scenes = []
    for seed in range(50):
        spec = random_scene(seed=seed, n_objects=1 + seed % 8)
        assert len(spec.objects) == 1 + seed % 8
        scenes.append(spec)
    return scenes


# ---- 1: kernel-oracle equivalence ------------------------------------------------


def test_criterion_1_kernel_oracle_equivalence():
    start = time.perf_counter()
    with criterion(1, "conv/dwconv/tconv/maxpool match naive oracles on 100 seeded "
                      "instances each at rtol 1e-5, under 10 s"):
        rng = np.random.default_rng(1234)
        for trial in range(100):
            ic = int(rng.integers(1, 9))
            oc = int(rng.integers(1, 9))
            k = int(rng.choice([1, 3]))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            h = int(rng.integers(k + pad, 9))
            w = int(rng.integers(k + pad, 9))
            x = rng.normal(size=(1, ic, h, w)).astype(np.float32)

            wts = rng.normal(size=(oc, ic, k, k)).astype(np.float32)
            bias = rng.normal(size=oc).astype(np.float32)
            got = conv2d(x, wts, bias, ConvSpec(ic, oc, (k, k), stride=stride, padding=pad))
            np.testing.assert_allclose(got, naive.conv2d_naive(x, wts, bias, stride, pad),
                                       rtol=RTOL, atol=1e-5)

            dwts = rng.normal(size=(ic, 1, 3, 3)).astype(np.float32)
            if h >= 3 - 2 and w >= 1:
                got = depthwise_conv2d(x, dwts, ConvSpec(ic, ic, (3, 3), stride=stride,
                                                         padding=1, groups=ic))
                np.testing.assert_allclose(got, naive.conv2d_naive(x, dwts, None, stride, 1),
                                           rtol=RTOL, atol=1e-5)

            twts = rng.normal(size=(ic, oc, 4, 4)).astype(np.float32)
            got = transpose_conv2d(x, twts)
            np.testing.assert_allclose(got, naive.transpose_conv2d_naive(x, twts, None, 2, 1),
                                       rtol=RTOL, atol=1e-5)

            got = max_pool2d(x, 3, stride, 1)
            want = naive.max_pool2d_naive(x, 3, stride, 1).astype(np.float32)
            assert np.array_equal(got, want)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"kernel sweep took {elapsed:.1f}s"


# ---- 2: fire module arithmetic ---------------------------------------------------


def test_criterion_2_fire_module_table():
    with criterion(2, "fire squeeze width k'/2 and output k' over {64,128,256}^2; "
                      "fire/residual weights 50304/1179648 exact at 256"):
        for k in (64, 128, 256):
            for kp in (64, 128, 256):
                g = ArchGraph((1, k, 6, 6))
                g.tap("out", Emit(g).fire("fire", "input", k, kp))
                shapes = g.shapes()
                assert shapes["fire.squeeze"] == (1, kp // 2, 6, 6)
                init_weights(g, seed=2)
                x = np.random.default_rng(k + kp).normal(size=(1, k, 6, 6)).astype(np.float32)
                assert shapes["fire.out"] == forward(g, x)["out"].shape == (1, kp, 6, 6)

        counts = {}
        for kind in ("fire", "residual"):
            g = ArchGraph((1, 256, 6, 6))
            g.tap("out", getattr(Emit(g), kind)(kind, "input", 256, 256))
            init_weights(g)
            counts[kind] = (cost_report(g).weights, param_enumeration(g)[0])
        # closed-form layer sums, independent of the graphs
        fire_closed = 256 * 128 + 128 * 128 + 9 * 128
        res_closed = 2 * 9 * 256 * 256
        assert fire_closed == 50304 and res_closed == 1179648
        # the graph's count rule and the allocated tensors must agree exactly
        assert counts == {"fire": (50304, 50304), "residual": (1179648, 1179648)}


# ---- 3: saccade backbone structure audit ----------------------------------------


def test_criterion_3_hourglass54_structure():
    with criterion(3, "hourglass54: 3 modules, 3 downs (384,384,512), one 512 middle, "
                      "one residual per skip/down/up, 2-stage stem"):
        c = structure_census(build_hourglass54(num_classes=3))
        assert c["n_modules"] == 3
        assert c["stem"]["n_downsamples"] == 2
        assert c["stem"]["n_blocks"] == 2
        for stage in c["module_stages"]:
            m = c["modules"][stage]
            assert m["n_downsamples"] == 3
            assert m["down_channels"] == [384, 384, 512]
            assert m["n_middle_blocks"] == 1
            assert m["middle_channels"] == 512
            assert m["blocks_per_down"] == {"down1": 1, "down2": 1, "down3": 1}
            assert m["blocks_per_skip"] == {"skip1": 1, "skip2": 1, "skip3": 1}
            assert m["blocks_per_up"] == {"up1": 1, "up2": 1, "up3": 1}
            assert m["block_kind_counts"] == {"residual": 10}


# ---- 4: compact backbone structure audit ----------------------------------------


def test_criterion_4_squeeze_structure():
    with criterion(4, "squeeze: 3-stage stem, one fewer downsampling than the "
                      "reference, no 3x3 convs in heads, 4x4/2 transpose-conv ups"):
        c = structure_census(build_squeeze_hourglass(num_classes=3))
        ref = structure_census(build_hourglass104_reference(num_classes=3))
        assert c["stem"]["n_downsamples"] == 3
        for stage in c["module_stages"]:
            m = c["modules"][stage]
            r = ref["modules"][stage]
            assert m["n_downsamples"] == r["n_downsamples"] - 1 == 4
            assert set(m["block_kind_counts"]) == {"fire"}
            assert m["block_kind_counts"].get("residual", 0) == 0
            assert len(m["upsample_ops"]) == m["n_downsamples"]
            for op in m["upsample_ops"]:
                assert op["kind"] == "tconv"
                assert op["kernel"] == (4, 4)
                assert op["stride"] == 2
        assert c["heads"]["n_3x3_standard_convs"] == 0
        assert c["heads"]["lead_kernels"] == [(1, 1)]


# ---- 5: extra-downsampling memory claim ------------------------------------------


def test_criterion_5_quarter_activation_memory():
    with criterion(5, "extra pre-downsampling quarters post-stem activation area "
                      "and bytes exactly (peak and total)"):
        with_extra = cost_report(build_squeeze_hourglass(3), (1, 3, 255, 255))
        without = cost_report(build_squeeze_hourglass(3, extra_pre_downsample=False),
                              (1, 3, 255, 255))
        # the two-stage stem prefix is shared between the builds (and holds the
        # same global-peak tensor), so the comparison scopes to everything after it
        a = with_extra.stage_aggregate(exclude=("input", "stem"))
        b = without.stage_aggregate(exclude=("input", "stem"))
        assert b.peak_activation_area == 4 * a.peak_activation_area
        assert b.peak_activation_bytes == 4 * a.peak_activation_bytes
        assert b.activation_bytes == 4 * a.activation_bytes


# ---- 6: decode round trip ---------------------------------------------------------


def test_criterion_6_decode_round_trip():
    start = time.perf_counter()
    with criterion(6, "oracle maps -> peaks -> grouping recovers every box at "
                      "IoU >= 0.99 with no extra above 0.5, on 50 scenes, under 30 s"):
        for spec in corpus():
            gt = [Detection(o.cls, 1.0, o.box) for o in spec.objects]
            out = oracle_outputs(gt, num_classes=3, frame_hw=(spec.height, spec.width))
            factor = spec.height / out["tl_heat"].shape[2]
            tl = heatmap_peaks(out["tl_heat"], 100, offsets=out["tl_off"],
                               embeddings=out["tl_embed"], kind="tl")
            br = heatmap_peaks(out["br_heat"], 100, offsets=out["br_off"],
                               embeddings=out["br_embed"], kind="br")
            dets = group_corners(tl, br, embed_threshold=0.5, downsample_factor=factor)
            confident = [d for d in dets if d.score > 0.5]
            assert len(confident) == len(gt), f"seed {spec.seed}: spurious detections"
            for want in gt:
                best = max(iou(want.box, d.box) for d in confident if d.cls == want.cls)
                assert best >= 0.99, f"seed {spec.seed}: IoU {best:.4f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"round trip took {elapsed:.1f}s"


# ---- 7: saccade end to end --------------------------------------------------------


def test_criterion_7_saccade_end_to_end():
    with criterion(7, "stub-model saccade recovers >= 95% of boxes at IoU >= 0.9, "
                      "<= k crops, suppression collapses duplicates, order-invariant"):
        config = SaccadeConfig()
        total = recovered = 0
        for spec in corpus():
            image, gt = gen_scene(spec)
            model = OracleModel(gt, num_classes=3)
            trace = {}
            dets = run_saccade(image, model, config, trace=trace)

            assert trace["n_crops"] <= config.max_regions
            assert trace["n_crops"] <= trace["n_kept_locations"]
            # every object is seen by both downsized scales and the box branch,
            # so raw candidates always exceed the kept set
            assert trace["n_locations"] >= 2 * len(gt)
            assert trace["n_kept_locations"] < trace["n_locations"]

            confident = [d for d in dets if d.score > 0.5]
            assert all(d.score <= 1.0 for d in dets)
            for want in gt:
                total += 1
                cand = [iou(want.box, d.box) for d in confident if d.cls == want.cls]
                if cand and max(cand) >= 0.9:
                    recovered += 1

            if spec.seed < 10 and trace["n_crops"] > 1:
                perm = list(reversed(range(trace["n_crops"])))
                again = run_saccade(image, model, config, crop_order=perm)
                assert [(d.cls, d.score, d.box) for d in again] == \
                       [(d.cls, d.score, d.box) for d in dets], f"seed {spec.seed}"
        assert recovered / total >= 0.95, f"recovered {recovered}/{total}"


# ---- 8: loss fixtures -------------------------------------------------------------


def test_criterion_8_loss_fixtures():
    with criterion(8, "focal 0.5-positive = 0.173287, perfect fits <= 1e-6, "
                      "20 random instances match scalar oracles at rtol 1e-6"):
        assert focal_loss(np.array([[0.5]]), np.array([[1.0]]), alpha=2.0) == \
            pytest.approx(0.173287, abs=1e-5)

        gt = np.zeros((8, 8))
        gt[1, 2] = gt[5, 5] = 1
        assert focal_loss(gt.copy(), gt) <= 1e-6
        pull, push, off = pull_push_offset_losses(
            [[1.0, 1.0], [2.5, 2.5]],
            np.full((2, 2, 2), 0.25), np.full((2, 2, 2), 0.25))
        assert pull <= 1e-6 and push <= 1e-6 and off <= 1e-6

        rng = np.random.default_rng(8)
        for trial in range(20):
            pred = rng.uniform(0.01, 0.99, (8, 8))
            g = (rng.uniform(0, 1, (8, 8)) < 0.15).astype(float)
            want = _focal_scalar(pred, g, 2.0)
            assert focal_loss(pred, g, 2.0) == pytest.approx(want, rel=1e-6)

            n = int(rng.integers(1, 6))
            emb = rng.normal(0, 2, (n, 2))
            offs = rng.normal(0, 1, (n, 2, 2))
            gt_offs = rng.normal(0, 1, (n, 2, 2))
            got = pull_push_offset_losses(emb, offs, gt_offs)
            want = _ppo_scalar(emb.tolist(), offs.tolist(), gt_offs.tolist())
            for gv, wv in zip(got, want):
                assert gv == pytest.approx(wv, rel=1e-6, abs=1e-12)


def _focal_scalar(pred, gt, alpha):
    eps = 1e-7
    total, n_pos = 0.0, 0
    for p, g in zip(pred.ravel().tolist(), gt.ravel().tolist()):
        p = min(max(p, eps), 1 - eps)
        if g == 1:
            n_pos += 1
            total += (1 - p) ** alpha * math.log(p)
        else:
            total += p ** alpha * math.log(1 - p)
    return -total / max(1, n_pos)


def _ppo_scalar(emb, offs, gt_offs):
    n = len(emb)
    means = [(a + b) / 2 for a, b in emb]
    pull = sum((a - m) ** 2 + (b - m) ** 2 for (a, b), m in zip(emb, means)) / n
    push = 0.0
    if n >= 2:
        for i in range(n):
            for j in range(n):
                if i != j:
                    push += max(0.0, 1.0 - abs(means[i] - means[j]))
        push /= n * (n - 1)
    total, count = 0.0, 0
    for k in range(n):
        for c in range(2):
            for a in range(2):
                d = abs(offs[k][c][a] - gt_offs[k][c][a])
                total += 0.5 * d * d if d < 1 else d - 0.5
                count += 1
    return pull, push, total / count


# ---- 9: soft-nms ------------------------------------------------------------------


def _soft_nms_reference(dets, sigma, floor):
    out = []
    for cls in sorted({d.cls for d in dets}):
        pool = sorted([[d.score, d.box] for d in dets if d.cls == cls and d.score >= floor],
                      key=lambda t: (-t[0], t[1]))
        while pool:
            score, box = pool[0]
            out.append((cls, score, box))
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
    out.sort(key=lambda d: (-d[1], d[0], d[2]))
    return out


def test_criterion_9_soft_nms():
    with criterion(9, "soft-nms equals the O(n^2) reference exactly on 100 random "
                      "20-box instances; identical-box fixture decays to 0.8*e^-2"):
        box = (10.0, 10.0, 50.0, 50.0)
        out = soft_nms([Detection(0, 0.9, box), Detection(0, 0.8, box)], sigma=0.5)
        assert out[1].score == pytest.approx(0.8 * math.exp(-2.0), abs=1e-6)

        rng = np.random.default_rng(9)
        for trial in range(100):
            dets = []
            for _ in range(20):
                x1, y1 = rng.uniform(0, 200, 2)
                w, h = rng.uniform(5, 90, 2)
                dets.append(Detection(int(rng.integers(0, 3)),
                                      float(rng.uniform(0.05, 1.0)),
                                      (float(x1), float(y1), float(x1 + w), float(y1 + h))))
            got = [(d.cls, d.score, d.box) for d in soft_nms(dets, sigma=0.5,
                                                             score_floor=0.001)]
            want = _soft_nms_reference(dets, 0.5, 0.001)
            assert got == want, f"instance {trial}"


# ---- 10: directional efficiency ---------------------------------------------------


def test_criterion_10_mac_ordering():
    with criterion(10, "MACs at 255x255: squeeze < hourglass54 < hourglass104 "
                       "reference"):
        rows = compare_archs([("squeeze", build_squeeze_hourglass(3)),
                              ("hourglass54", build_hourglass54(3)),
                              ("hg104-ref", build_hourglass104_reference())],
                             (1, 3, 255, 255))
        macs = {r["name"]: r["macs"] for r in rows}
        assert macs["squeeze"] < macs["hourglass54"] < macs["hg104-ref"], macs
