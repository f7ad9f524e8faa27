"""Misuse of the public API fails fast, with a ValueError that names the argument.

One row per (entry point, argument, bad value).  Without its check, each
call below returns a result, fails with a bare numpy or Python error, or
raises a message that does not name the argument.
"""

import json
import os
import pathlib
import re
import tempfile

import numpy as np
import pytest

import fovea
from fovea import (Affine, ArchGraph, ConvSpec, Corner, CropWindow, Detection, Node,
                   ObjectLocation, SaccadeConfig, attention_targets, bench, bilinear_resize,
                   GraphModel, OracleModel, SceneObject, SceneSpec, build_hourglass54,
                   build_hourglass104_reference, build_single_module, build_squeeze_hourglass,
                   compare_archs, conv2d, corner_targets, cost_report, crop_pixels,
                   depthwise_conv2d, downsize_pair, extract_locations, focal_loss,
                   gen_scene, group_corners, heatmap_peaks, init_weights, iou, make_crop,
                   max_pool2d, nearest_upsample2x, oracle_outputs, pull_push_offset_losses,
                   random_scene, read_tensor, resize_longer_side, run_saccade, size_class_of,
                   soft_nms, strip_boundary_boxes, suppress_locations, transpose_conv2d,
                   write_tensor, zero_pad_to)

NAN = float("nan")
INF = float("inf")
IMAGE = np.ones((1, 3, 8, 8), np.float32)
HEAT = np.zeros((1, 3, 8, 8), np.float32)
DETS = [Detection(0, 0.9, (0.0, 0.0, 10.0, 10.0)), Detection(0, 0.8, (5.0, 0.0, 15.0, 10.0))]
TL = [Corner(0, 0.9, 2, 2, embed=0.1)]
BR = [Corner(0, 0.8, 6, 6, embed=0.2, kind="br")]
ATTENTION = {"small": np.full((1, 1, 4, 4), 0.5, np.float32)}
STRIDES = {"small": 4.0}


def _window(size=4, scale=1.0):
    return CropWindow(zoom=1.0, x0=0, y0=0, size=size, to_original=Affine(scale, 1.0, 0.0, 0.0))


def _conv_graph(**fields):
    g = ArchGraph((1, 1, 4, 4))
    g.add(Node(id="c", kind="conv", inputs=["input"], in_channels=1, out_channels=1, **fields))
    return g


def _crop_at(size="small", x=10.0, y=10.0, content_hw=(64, 64), to_original=Affine(1.0, 1.0)):
    return make_crop(ObjectLocation(x=x, y=y, size=size, score=0.9), SaccadeConfig(),
                     content_hw, to_original)


def _attention_with(value, where=(0, 0, 1, 2)):
    arr = ATTENTION["small"].copy()
    arr[where] = value
    return {"small": arr}


def _scene(noise=0.1, cls=0):
    return SceneSpec(64, 64, [SceneObject(cls, (8.0, 8.0, 40.0, 40.0))], noise=noise)


def _module_model(block):
    # a weighted one-module graph: a feature tap and no corner heads
    g = build_single_module(block, dims=(8, 8), input_hw=(8, 8))
    init_weights(g)
    return GraphModel(g)


def _graph_json(**doc):
    base = {"input_dims": [1, 3, 8, 8], "nodes": [{"id": "input", "kind": "input"}]}
    return ArchGraph.from_json(json.dumps({**base, **doc}))


SKT = fovea.skt.tensor_to_bytes(np.zeros(4, np.float32))  # 10-byte header, 16-byte payload
SKT_FILES = {"truncated": SKT[:-4], "bad-magic": b"NOPE" + SKT[4:], "trailing-bytes": SKT + b"\0"}


def _saccade_in_crop_order(order):
    # random_scene(0, 3) selects 3 crops, so only the element types make these orders bad
    image, gt = gen_scene(random_scene(0, 3))
    return run_saccade(image, OracleModel(gt, 3), crop_order=order)


def _read_skt(name):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / f"{name}.skt"
        path.write_bytes(SKT_FILES[name])
        return read_tensor(path)


MISUSE = [
    # entry point, argument, bad value, call, message fragment
    ("bilinear_resize", "out_h", 2.5, lambda v: bilinear_resize(IMAGE, v, 3), "out_h must be"),
    ("bilinear_resize", "out_h", NAN, lambda v: bilinear_resize(IMAGE, v, 3), "out_h must be"),
    ("bilinear_resize", "out_w", 0, lambda v: bilinear_resize(IMAGE, 3, v), "out_w must be"),
    ("resize_longer_side", "target", 2.5, lambda v: resize_longer_side(IMAGE, v), "target must be"),
    ("resize_longer_side", "target", NAN, lambda v: resize_longer_side(IMAGE, v), "target must be"),
    ("crop_pixels", "window.size", 0, lambda v: crop_pixels(IMAGE, _window(size=v)),
     "window size must be"),
    ("crop_pixels", "window.to_original", NAN, lambda v: crop_pixels(IMAGE, _window(scale=v)),
     "window to_original must be finite"),
    ("max_pool2d", "kernel", 0, lambda v: max_pool2d(IMAGE, v, 1), "kernel must be"),
    ("max_pool2d", "stride", 0, lambda v: max_pool2d(IMAGE, 3, v), "stride must be"),
    ("max_pool2d", "padding", -1, lambda v: max_pool2d(IMAGE, 3, 1, v), "padding must be"),
    ("heatmap_peaks", "k", 2.5, lambda v: heatmap_peaks(HEAT, v), "k must be an integer"),
    ("heatmap_peaks", "heatmaps", NAN, lambda v: heatmap_peaks(np.full_like(HEAT, v), 10),
     "heatmaps hold non-finite"),
    ("soft_nms", "score_floor", NAN, lambda v: soft_nms(DETS, score_floor=v), "score_floor"),
    ("init_weights", "seed", 1.5, lambda v: init_weights(_conv_graph(), seed=v), "seed must be"),
    ("init_weights", "seed", -1, lambda v: init_weights(_conv_graph(), seed=v), "seed must be"),
    ("heatmap_peaks", "offsets", (1, 2, 4, 4),
     lambda v: heatmap_peaks(HEAT, 5, offsets=np.zeros(v)), "offsets must be shaped"),
    ("heatmap_peaks", "offsets", (1, 2, 16, 16),
     lambda v: heatmap_peaks(HEAT, 5, offsets=np.zeros(v)), "offsets must be shaped"),
    ("heatmap_peaks", "embeddings", (1, 3, 8, 8),
     lambda v: heatmap_peaks(HEAT, 5, embeddings=np.zeros(v)), "embeddings must be shaped"),
    ("max_pool2d", "kernel", 2.5, lambda v: max_pool2d(IMAGE, v, 1), "kernel must be"),
    ("max_pool2d", "kernel", (3,), lambda v: max_pool2d(IMAGE, v, 1), "kernel must be"),
    ("max_pool2d", "stride", 1.5, lambda v: max_pool2d(IMAGE, 3, v), "stride must be"),
    ("max_pool2d", "padding", 0.5, lambda v: max_pool2d(IMAGE, 3, 1, v), "padding must be"),
    ("crop_pixels", "window.to_original", None,
     lambda v: crop_pixels(IMAGE, CropWindow(zoom=1.0, x0=0, y0=0, size=4, to_original=v)),
     "window to_original must be an Affine"),
    ("group_corners", "downsample_factor", NAN,
     lambda v: group_corners(TL, BR, downsample_factor=v), "downsample_factor must be"),
    ("group_corners", "downsample_factor", 0,
     lambda v: group_corners(TL, BR, downsample_factor=v), "downsample_factor must be"),
    ("group_corners", "downsample_factor", -4,
     lambda v: group_corners(TL, BR, downsample_factor=v), "downsample_factor must be"),
    ("group_corners", "embed_threshold", NAN,
     lambda v: group_corners(TL, BR, embed_threshold=v), "embed_threshold must be"),
    ("extract_locations", "threshold", NAN,
     lambda v: extract_locations(ATTENTION, v, STRIDES), "threshold must be"),
    ("extract_locations", "strides", 0,
     lambda v: extract_locations(ATTENTION, 0.3, {"small": v}), r"strides\['small'\] must be"),
    ("extract_locations", "strides", -4,
     lambda v: extract_locations(ATTENTION, 0.3, {"small": v}), r"strides\['small'\] must be"),
    ("extract_locations", "attention_maps", "tiny",
     lambda v: extract_locations({v: ATTENTION["small"]}, 0.3, {v: 4.0}),
     "attention_maps key 'tiny'"),
    ("strip_boundary_boxes", "margin", NAN,
     lambda v: strip_boundary_boxes(DETS, margin=v), "margin must be"),
    ("attention_targets", "stride", 0,
     lambda v: attention_targets([(0, 0, 8, 8)], (4, 4), "small", v), "stride must be"),
    ("size_class_of", "longer_side", NAN, size_class_of, "longer_side must be"),
    ("size_class_of", "longer_side", -1, size_class_of, "longer_side must be"),
    ("focal_loss", "pred", 2.0,
     lambda v: focal_loss(np.array([[v]]), np.array([[1.0]])), "pred must lie in"),
    ("suppress_locations", "source", "boxes",
     lambda v: suppress_locations([ObjectLocation(1.0, 1.0, "small", 0.9, source=v)]),
     "location source must be one of"),
    ("attention_targets", "size_class", "tiny",
     lambda v: attention_targets([(0, 0, 8, 8)], (4, 4), v, 4), "size_class must be one of"),
    ("make_crop", "location.size", "tiny", _crop_at, "size must be one of"),
    ("make_crop", "location.x", NAN, lambda v: _crop_at(x=v), "location.x must be finite"),
    ("make_crop", "location.x", INF, lambda v: _crop_at(x=v), "location.x must be finite"),
    ("make_crop", "location.y", -INF, lambda v: _crop_at(y=v), "location.y must be finite"),
    ("make_crop", "content_hw", (64, NAN), lambda v: _crop_at(content_hw=v),
     r"content_hw must be finite, got \(64, nan\)"),
    ("make_crop", "frame_to_original", (1.0, 1.0), lambda v: _crop_at(to_original=v),
     r"frame_to_original must be an Affine, got \(1.0, 1.0\)"),
    ("extract_locations", "attention_maps", NAN,
     lambda v: extract_locations(_attention_with(v), 0.3, STRIDES),
     r"^attention_maps\['small'\] must be finite, got \[nan\]"),
    ("extract_locations", "attention_maps", INF,
     lambda v: extract_locations(_attention_with(v, ...), 0.3, STRIDES),
     r"^attention_maps\['small'\] must be finite, got \[inf, inf, inf\]"),
    ("ConvSpec", "kernel", (2.5, 3), lambda v: ConvSpec(1, 1, v), "kernel must be a pair"),
    ("ConvSpec", "kernel", (3,), lambda v: ConvSpec(1, 1, v), "kernel must be a pair"),
    ("ConvSpec", "stride", 1.5, lambda v: ConvSpec(1, 1, (3, 3), stride=v), "stride must be"),
    ("ConvSpec", "padding", 0.5, lambda v: ConvSpec(1, 1, (3, 3), padding=v), "padding must be"),
    ("ConvSpec", "groups", 1.0, lambda v: ConvSpec(1, 1, (3, 3), groups=v), "groups must be"),
    ("ArchGraph.shapes", "kernel", (2.5, 3), lambda v: _conv_graph(kernel=v).shapes(),
     "node 'c': kernel must be a pair"),
    ("ArchGraph.shapes", "stride", 1.5, lambda v: _conv_graph(stride=v).shapes(),
     "node 'c': stride must be"),
    ("ArchGraph.shapes", "padding", 0.5, lambda v: _conv_graph(padding=v).shapes(),
     "node 'c': padding must be"),
    ("extract_locations", "attention_maps", (1, 3, 4, 4),
     lambda v: extract_locations({"small": np.zeros(v)}, 0.3, STRIDES),
     r"attention_maps\['small'\] must be shaped"),
    ("zero_pad_to", "h", 12.5, lambda v: zero_pad_to(IMAGE, v, 12), "h must be an integer"),
    ("zero_pad_to", "w", 12.5, lambda v: zero_pad_to(IMAGE, 12, v), "w must be an integer"),
    ("random_scene", "n_objects", -1, lambda v: random_scene(0, v), "n_objects must be"),
    ("random_scene", "n_objects", 1.5, lambda v: random_scene(0, v), "n_objects must be"),
    ("gen_scene", "noise", NAN, lambda v: gen_scene(_scene(noise=v)), "noise must be"),
    ("gen_scene", "noise", -1, lambda v: gen_scene(_scene(noise=v)), "noise must be"),
    ("gen_scene", "objects.cls", -1, lambda v: gen_scene(_scene(cls=v)),
     "object class must be"),
    ("oracle_outputs", "gt.cls", -1,
     lambda v: oracle_outputs([Detection(v, 1.0, (8.0, 8.0, 40.0, 40.0))], 3),
     r"gt class -1 lies outside \[0, num_classes=3\)"),
    ("OracleModel", "num_classes", 0, lambda v: OracleModel([], v), "num_classes must be"),
    ("OracleModel.infer", "image", (3, 255, 255),
     lambda v: OracleModel([], 1).infer(np.zeros(v, np.float32), Affine(1.0, 1.0)),
     r"^image must be 4-D \(n, c, h, w\), got \(3, 255, 255\)"),
    ("OracleModel.infer", "to_original", (1.0, 1.0),
     lambda v: OracleModel([], 1).infer(np.zeros((1, 3, 8, 8), np.float32), v),
     r"^to_original must be an Affine mapping the frame to source pixels, got \(1.0, 1.0\)"),
    # one row per integer spelling the shared checks replaced; a bool is never an integer
    ("transpose_conv2d", "stride", 1.5,
     lambda v: transpose_conv2d(IMAGE, np.ones((3, 3, 4, 4)), stride=v), "stride must be"),
    ("transpose_conv2d", "padding", 0.5,
     lambda v: transpose_conv2d(IMAGE, np.ones((3, 3, 4, 4)), padding=v),
     "padding >= 0, both integers"),
    ("bench", "repetitions", 2.5, lambda v: bench(["maxpool3x3"], [8], repetitions=v),
     "repetitions must be an integer"),
    ("bench", "repetitions", True, lambda v: bench(["maxpool3x3"], [8], repetitions=v),
     "repetitions must be an integer"),
    ("heatmap_peaks", "k", True, lambda v: heatmap_peaks(HEAT, v), "k must be an integer"),
    ("SaccadeConfig", "max_regions", True, lambda v: SaccadeConfig(max_regions=v),
     "max_regions must be an integer"),
    ("ConvSpec", "stride", True, lambda v: ConvSpec(1, 1, (3, 3), stride=v), "stride must be"),
    ("ConvSpec", "kernel", (True, 3), lambda v: ConvSpec(1, 1, v), "kernel must be a pair"),
    ("max_pool2d", "kernel", True, lambda v: max_pool2d(IMAGE, v, 1), "kernel must be a pair"),
    ("zero_pad_to", "h", True, lambda v: zero_pad_to(IMAGE, v, 12), "h must be an integer"),
    ("crop_pixels", "window.size", True, lambda v: crop_pixels(IMAGE, _window(size=v)),
     "window size must be an integer"),
    ("random_scene", "n_objects", True, lambda v: random_scene(0, v), "n_objects must be"),
    ("gen_scene", "objects.cls", True, lambda v: gen_scene(_scene(cls=v)),
     "object class must be"),
    ("OracleModel", "num_classes", True, lambda v: OracleModel([], v), "num_classes must be"),
    ("iou", "box_a", (0.0, 0.0, 1.0), lambda v: iou(v, (0.0, 0.0, 1.0, 1.0)), "box_a must hold 4"),
    ("iou", "box_b", (0.0, 0.0, 1.0), lambda v: iou((0.0, 0.0, 1.0, 1.0), v), "box_b must hold 4"),
    ("SceneSpec.from_dict", "height", {"width": 3}, SceneSpec.from_dict,
     "scene spec: missing or bad field 'height'"),
    ("Detection.from_dict", "class", {"score": 1.0, "box": [0, 0, 1, 1]}, Detection.from_dict,
     "detection: missing or bad field 'class'"),
    ("SaccadeConfig.from_dict", "nms_sigma", {"nms_sigma": "x"}, SaccadeConfig.from_dict,
     "nms_sigma must be a number, got 'x'"),
    ("ArchGraph.from_json", "nodes[0]", ["input"],
     lambda v: ArchGraph.from_json(json.dumps({"input_dims": [1, 3, 8, 8], "nodes": [v]})),
     "graph JSON node 0 must be an object"),
    ("write_tensor", "arr", None, lambda v: write_tensor(os.devnull, np.array([v])),
     "arr must hold real numbers"),
    ("pull_push_offset_losses", "offsets", (3, 2, 2),
     lambda v: pull_push_offset_losses(np.zeros((2, 2)), np.zeros(v), np.zeros((2, 2, 2))),
     r"^offsets must hold \(N, 2, 2\) values for N = 2 objects"),
    ("pull_push_offset_losses", "gt_offsets", (1, 2, 2),
     lambda v: pull_push_offset_losses(np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros(v)),
     "^gt_offsets must hold"),
    # existing checks, through entry points no other row calls: the SKT1 file checks,
    # and the 4-D rules for tensors and tconv weights
    ("read_tensor", "file", "truncated", _read_skt, "payload holds 12 bytes"),
    ("read_tensor", "file", "bad-magic", _read_skt, "bad magic"),
    ("read_tensor", "file", "trailing-bytes", _read_skt, "payload holds 17 bytes"),
    ("downsize_pair", "image", (3, 8, 8), lambda v: downsize_pair(np.ones(v)), "must be 4-D"),
    ("conv2d", "x", (3, 8, 8),
     lambda v: conv2d(np.ones(v), np.ones((1, 3, 3, 3)), None, ConvSpec(3, 1)), "must be 4-D"),
    ("nearest_upsample2x", "x", (3, 8, 8), lambda v: nearest_upsample2x(np.ones(v)),
     "must be 4-D"),
    ("transpose_conv2d", "weights", (3, 3, 4), lambda v: transpose_conv2d(IMAGE, np.ones(v)),
     "weights must be 4-D"),
    # the graph JSON's top-level fields, each checked before it is iterated or unpacked
    ("ArchGraph.from_json", "nodes", 5, lambda v: _graph_json(nodes=v),
     "graph JSON nodes must be a list, got 5"),
    ("ArchGraph.from_json", "input_dims", 5, lambda v: _graph_json(input_dims=v),
     "graph JSON input_dims must be four integers"),
    ("ArchGraph.from_json", "input_dims", [1, 3, 8], lambda v: _graph_json(input_dims=v),
     "graph JSON input_dims must be four integers"),
    ("ArchGraph.from_json", "taps", [], lambda v: _graph_json(taps=v),
     "graph JSON taps must be an object"),
    ("ArchGraph.from_json", "document", 5, lambda v: ArchGraph.from_json(json.dumps(v)),
     "graph JSON must be an object"),
    # a tensor argument that is not 4-D, or has an empty dim, is named: x in the kernels,
    # image in the image entry points
    ("conv2d", "x", (8, 8),
     lambda v: conv2d(np.ones(v), np.ones((1, 3, 3, 3)), None, ConvSpec(3, 1)), "^x must be 4-D"),
    ("depthwise_conv2d", "x", (1, 3, 0, 8),
     lambda v: depthwise_conv2d(np.ones(v), np.ones((3, 1, 3, 3)), ConvSpec(3, 3, groups=3)),
     "^all dims of x must be >= 1"),
    ("transpose_conv2d", "x", (3, 8, 8),
     lambda v: transpose_conv2d(np.ones(v), np.ones((3, 3, 4, 4))), "^x must be 4-D"),
    ("nearest_upsample2x", "x", (1, 3, 8, 0), lambda v: nearest_upsample2x(np.ones(v)),
     "^all dims of x must be >= 1"),
    ("max_pool2d", "x", (3, 8, 8), lambda v: max_pool2d(np.ones(v), 3, 1), "^x must be 4-D"),
    ("bilinear_resize", "x", (3, 8, 8), lambda v: bilinear_resize(np.ones(v), 4, 4),
     "^x must be 4-D"),
    ("downsize_pair", "image", (8, 8), lambda v: downsize_pair(np.ones(v)), "^image must be 4-D"),
    ("crop_pixels", "image", (3, 8, 8), lambda v: crop_pixels(np.ones(v), _window()),
     "^image must be 4-D"),
    ("resize_longer_side", "image", (3, 8, 8), lambda v: resize_longer_side(np.ones(v), 4),
     "^image must be 4-D"),
    ("zero_pad_to", "image", (0, 3, 8, 8), lambda v: zero_pad_to(np.ones(v), 12, 12),
     "^all dims of image must be >= 1"),
    ("run_saccade", "image", (3, 8, 8), lambda v: run_saccade(np.ones(v), OracleModel([], 1)),
     "^image must be 4-D"),
    ("pull_push_offset_losses", "embeddings", [0.1, 0.2, 0.3],
     lambda v: pull_push_offset_losses(v, np.zeros((1, 2, 2)), np.zeros((1, 2, 2))),
     r"^embeddings must hold \(N, 2\) values"),
    ("downsize_pair", "image", NAN, lambda v: downsize_pair(np.full((1, 3, 8, 8), v)),
     "image has non-finite"),
    # a block or upsample kind the builders do not know; a class count the template checks
    ("build_single_module", "block", "bogus",
     lambda v: build_single_module(v, dims=(32, 48), input_hw=(16, 16)),
     r"^unknown block kind 'bogus'"),
    ("build_single_module", "upsample", "bogus",
     lambda v: build_single_module("fire", dims=(32, 48), input_hw=(16, 16), upsample=v),
     r"^unknown upsample kind 'bogus'"),
    ("build_squeeze_hourglass", "num_classes", 2.5, build_squeeze_hourglass,
     "^num_classes must be an integer >= 1, got 2.5"),
    ("build_hourglass54", "num_classes", 0, build_hourglass54,
     "^num_classes must be an integer >= 1, got 0"),
    ("build_hourglass104_reference", "num_classes", True, build_hourglass104_reference,
     "^num_classes must be an integer >= 1, got True"),
    ("oracle_outputs", "num_classes", -1, lambda v: oracle_outputs([], v),
     "^num_classes must be an integer >= 1, got -1"),
    ("oracle_outputs", "frame_hw", (0, 0), lambda v: oracle_outputs([], 3, frame_hw=v),
     r"^frame_hw must be a pair of integers >= 1, got \(0, 0\)"),
    ("oracle_outputs", "frame_hw", (255,), lambda v: oracle_outputs([], 3, frame_hw=v),
     "^frame_hw must be a pair of integers >= 1"),
    ("oracle_outputs", "frame_hw", (255.0, 255), lambda v: oracle_outputs([], 3, frame_hw=v),
     "^frame_hw must be a pair of integers >= 1"),
    # JSON records: a box holds 4 values, a scene spec a height and width >= 1
    ("Detection.from_dict", "box", [10, 10, 60],
     lambda v: Detection.from_dict({"class": 0, "score": 1.0, "box": v}),
     r"detection: missing or bad field box must hold 4 coordinates \(x1, y1, x2, y2\)"),
    ("SceneSpec.from_dict", "objects.box", [8, 8, 40],
     lambda v: SceneSpec.from_dict({"height": 64, "width": 64,
                                    "objects": [{"class": 0, "box": v}]}),
     "scene spec: missing or bad field box must hold 4 coordinates"),
    ("gen_scene", "height", -5,
     lambda v: gen_scene(SceneSpec.from_dict({"height": v, "width": 10})),
     "^height must be an integer >= 1, got -5"),
    ("gen_scene", "height", 0,
     lambda v: gen_scene(SceneSpec.from_dict({"height": v, "width": 10})),
     "^height must be an integer >= 1, got 0"),
    ("gen_scene", "width", 0,
     lambda v: gen_scene(SceneSpec.from_dict({"height": 10, "width": v})),
     "^width must be an integer >= 1, got 0"),
    ("gen_scene", "width", 2.5, lambda v: gen_scene(SceneSpec(10, v)),
     "^width must be an integer >= 1, got 2.5"),
    # the model contract: run_saccade takes an object with infer, and a graph
    # without the corner taps is refused when it is wrapped
    ("run_saccade", "model", "squeeze", lambda v: run_saccade(IMAGE, v),
     r"^model must provide infer\(frame, to_original\), got 'str'"),
    ("run_saccade", "model", None, lambda v: run_saccade(IMAGE, v),
     r"^model must provide infer\(frame, to_original\), got 'NoneType'"),
    ("GraphModel", "graph.taps", "residual", _module_model,
     r"^graph taps must include the corner taps \['tl_heat', 'tl_embed', 'tl_off', 'br_heat'"),
    # the builders' input size, checked before any node is added
    ("build_squeeze_hourglass", "input_hw", (255,), lambda v: build_squeeze_hourglass(3, v),
     r"^input_hw must be a pair of integers >= 1, got \(255,\)"),
    ("build_hourglass54", "input_hw", "255x255", lambda v: build_hourglass54(3, v),
     "^input_hw must be a pair of integers >= 1, got '255x255'"),
    ("build_hourglass54", "input_hw", (0, 255), lambda v: build_hourglass54(3, v),
     r"^input_hw must be a pair of integers >= 1, got \(0, 255\)"),
    ("build_hourglass104_reference", "input_hw", (255.0, 255),
     lambda v: build_hourglass104_reference(3, v), "^input_hw must be a pair of integers >= 1"),
    ("build_single_module", "input_hw", (0, 16),
     lambda v: build_single_module("fire", dims=(32, 48), input_hw=v),
     "^input_hw must be a pair of integers >= 1"),
    # the target rules: the corner cell and sub-cell offset, the attention centre
    ("corner_targets", "num_classes", 0, lambda v: corner_targets([], v, (255, 255), (64, 64)),
     "^num_classes must be an integer >= 1, got 0"),
    ("corner_targets", "frame_hw", (255,), lambda v: corner_targets([], 3, v, (64, 64)),
     r"^frame_hw must be a pair of integers >= 1, got \(255,\)"),
    ("corner_targets", "heat_hw", (64, 0), lambda v: corner_targets([], 3, (255, 255), v),
     r"^heat_hw must be a pair of integers >= 1, got \(64, 0\)"),
    ("corner_targets", "gt.cls", 3,
     lambda v: corner_targets([Detection(v, 1.0, (8.0, 8.0, 40.0, 40.0))], 3, (255, 255), (64, 64)),
     r"^gt class 3 lies outside \[0, num_classes=3\)"),
    ("corner_targets", "gt.cls", 1.5,
     lambda v: corner_targets([Detection(v, 1.0, (8.0, 8.0, 40.0, 40.0))], 3, (255, 255), (64, 64)),
     r"^gt class 1.5 lies outside \[0, num_classes=3\)"),
    ("oracle_outputs", "gt.cls", 1.5,
     lambda v: oracle_outputs([Detection(v, 1.0, (8.0, 8.0, 40.0, 40.0))], 3),
     r"^gt class 1.5 lies outside \[0, num_classes=3\)"),
    ("corner_targets", "gt.box", (8.0, 8.0, 255.0, 40.0),
     lambda v: corner_targets([Detection(0, 1.0, v)], 3, (255, 255), (64, 64)),
     r"^corner \(255.0, 40.0\) falls outside the 255x255 frame"),
    ("corner_targets", "gt.box", (8.0, NAN, 40.0, 40.0),
     lambda v: corner_targets([Detection(0, 1.0, v)], 3, (255, 255), (64, 64)),
     r"^corner \(8.0, nan\) falls outside the 255x255 frame"),
    ("attention_targets", "stride", (4, 0),
     lambda v: attention_targets([(0, 0, 8, 8)], (4, 4), "small", v), "^stride must be finite"),
    ("attention_targets", "stride", (4, 4, 4),
     lambda v: attention_targets([(0, 0, 8, 8)], (4, 4), "small", v),
     r"^stride must be finite and > 0, one number or a \(y, x\) pair"),
    ("attention_targets", "boxes", (8, 8, 0, 0),
     lambda v: attention_targets([v], (4, 4), "small", 4), "^longer_side must be >= 0, got -8"),
    # a routed box with a non-finite coordinate, which math.floor cannot take
    ("attention_targets", "boxes", (0.0, NAN, 20.0, 8.0),
     lambda v: attention_targets([v], (4, 4), "small", 4),
     r"^boxes must be finite, got \(0.0, nan, 20.0, 8.0\)"),
    ("attention_targets", "boxes", (0.0, 0.0, float("inf"), 8.0),
     lambda v: attention_targets([v], (4, 4), "large", 4),
     r"^boxes must be finite, got \(0.0, 0.0, inf, 8.0\)"),
    # a heatmap's own shape is checked before the maps read against it
    ("heatmap_peaks", "heatmaps", (3, 8, 8),
     lambda v: heatmap_peaks(np.zeros(v), 5, offsets=np.zeros((1, 3, 8, 8))),
     r"^heatmaps must be \(1, C, H, W\), got \(3, 8, 8\)"),
    # each bench size is checked before any op is built
    ("bench", "sizes", 0, lambda v: bench(["peaks"], [8, v]),
     "^bench size must be an integer >= 1, got 0"),
    ("bench", "sizes", -1, lambda v: bench(["soft_nms"], [v]),
     "^bench size must be an integer >= 1, got -1"),
    # a config is a SaccadeConfig or None; a dict is refused, not run as the defaults
    ("run_saccade", "config", {}, lambda v: run_saccade(IMAGE, OracleModel([], 1), v),
     r"^config must be None or a SaccadeConfig \(see SaccadeConfig.from_dict\), got \{\}"),
    ("run_saccade", "config", {"max_regions": 2},
     lambda v: run_saccade(IMAGE, OracleModel([], 1), v),
     r"^config must be None or a SaccadeConfig \(see SaccadeConfig.from_dict\)"),
    # content_hw holds two finite numbers >= 1 before it is unpacked
    ("make_crop", "content_hw", (64,), lambda v: _crop_at(content_hw=v),
     r"^content_hw must hold two numbers \(h, w\), got \(64,\)"),
    ("make_crop", "content_hw", ("64", "64"), lambda v: _crop_at(content_hw=v),
     r"^content_hw must hold two numbers \(h, w\)"),
    ("make_crop", "content_hw", (-64, 64), lambda v: _crop_at(content_hw=v),
     r"^content_hw must be >= 1, got \(-64, 64\)"),
    ("make_crop", "content_hw", (64, 0.5), lambda v: _crop_at(content_hw=v),
     r"^content_hw must be >= 1, got \(64, 0.5\)"),
    # a non-number is refused by name, as SaccadeConfig refuses one in a float field
    ("soft_nms", "sigma", "a", lambda v: soft_nms(DETS, sigma=v),
     "^sigma must be a number, got 'a'"),
    ("soft_nms", "score_floor", "0.1", lambda v: soft_nms(DETS, score_floor=v),
     "^score_floor must be a number, got '0.1'"),
    ("extract_locations", "threshold", "0.3", lambda v: extract_locations(ATTENTION, v, STRIDES),
     "^threshold must be a number, got '0.3'"),
    # the list APIs and make_crop refuse a non-number by name too; a missing
    # stride keeps its own message
    ("suppress_locations", "radius", "a", lambda v: suppress_locations([], radius=v),
     "^radius must be a number, got 'a'"),
    ("strip_boundary_boxes", "margin", "a", lambda v: strip_boundary_boxes([], margin=v),
     "^margin must be a number, got 'a'"),
    ("extract_locations", "strides", "4",
     lambda v: extract_locations(ATTENTION, 0.3, {"small": v}),
     r"^strides\['small'\] must be a number, got '4'"),
    ("extract_locations", "strides", None,
     lambda v: extract_locations(ATTENTION, 0.3, {"small": v}),
     r"^strides\['small'\] must be finite and > 0, got None"),
    ("make_crop", "location.x", "a", lambda v: _crop_at(x=v),
     "^location.x must be a number, got 'a'"),
    # a value that used to be taken as it came: a numeric string as an IoU
    # coordinate, an unseeded scene, any corner kind, a NaN or negative focal
    # exponent
    ("iou", "box_a", ("0", "0", "1", "1"), lambda v: iou(v, (0.0, 0.0, 1.0, 1.0)),
     "^box_a coordinate must be a number, got '0'"),
    ("iou", "box_b", (0.0, 0.0, None, 1.0), lambda v: iou((0.0, 0.0, 1.0, 1.0), v),
     "^box_b coordinate must be a number, got None"),
    ("random_scene", "seed", None, lambda v: random_scene(v, 3),
     "^seed must be an integer >= 0, got None"),
    ("random_scene", "seed", 1.5, lambda v: random_scene(v, 3),
     "^seed must be an integer >= 0, got 1.5"),
    ("heatmap_peaks", "kind", "center", lambda v: heatmap_peaks(HEAT, 5, kind=v),
     r"^unknown kind 'center': kind must be one of \['tl', 'br'\]"),
    ("focal_loss", "alpha", NAN,
     lambda v: focal_loss(np.array([[0.5]]), np.array([[1.0]]), alpha=v),
     "^alpha must be finite and >= 0, got nan"),
    ("focal_loss", "alpha", -1.0,
     lambda v: focal_loss(np.array([[0.5]]), np.array([[1.0]]), alpha=v),
     "^alpha must be finite and >= 0, got -1.0"),
    ("focal_loss", "alpha", "2",
     lambda v: focal_loss(np.array([[0.5]]), np.array([[1.0]]), alpha=v),
     "^alpha must be a number, got '2'"),
    # an input size given for one report, checked before shapes propagate
    ("cost_report", "input_dims", (1, 3, 255),
     lambda v: cost_report(build_squeeze_hourglass(3, (127, 127)), v),
     r"^input_dims must be four integers >= 1, got \(1, 3, 255\)"),
    ("compare_archs", "input_dims", (1, 3, 127.5, 127),
     lambda v: compare_archs([("squeeze", build_squeeze_hourglass(3, (127, 127)))], v),
     r"^input_dims must be four integers >= 1, got \(1, 3, 127.5, 127\)"),
    # a scene size or class count that was unpacked or drawn from unchecked
    ("random_scene", "hw", "ab", lambda v: random_scene(0, 2, hw=v),
     "^hw must be a pair of integers >= 1, got 'ab'"),
    ("random_scene", "hw", (510,), lambda v: random_scene(0, 2, hw=v),
     r"^hw must be a pair of integers >= 1, got \(510,\)"),
    ("random_scene", "num_classes", 1.5, lambda v: random_scene(0, 2, num_classes=v),
     "^num_classes must be an integer >= 1, got 1.5"),
    ("random_scene", "num_classes", 0, lambda v: random_scene(0, 2, num_classes=v),
     "^num_classes must be an integer >= 1, got 0"),
    ("group_corners", "embed_threshold", "a", lambda v: group_corners(TL, BR, embed_threshold=v),
     "^embed_threshold must be a number, got 'a'"),
    ("group_corners", "downsample_factor", "a",
     lambda v: group_corners(TL, BR, downsample_factor=v), "^downsample_factor must be a number"),
    # the list APIs refuse the ranges SaccadeConfig refuses for the same values
    ("soft_nms", "score_floor", -1, lambda v: soft_nms(DETS, score_floor=v),
     r"^score_floor must be in \[0, 1\), got -1"),
    ("extract_locations", "threshold", -1, lambda v: extract_locations(ATTENTION, v, STRIDES),
     r"^threshold must be in \(0, 1\), got -1"),
    # ground truth is checked where it enters the oracle, not in the frame it shows in;
    # JSON records refuse a non-finite box by the same rule
    ("OracleModel", "gt box", (1.0, 2.0, NAN, 40.0),
     lambda v: OracleModel([Detection(0, 1.0, v)], 3),
     r"^gt\[0\]: missing or bad field box must be finite, got \(1.0, 2.0, nan, 40.0\)"),
    ("OracleModel", "gt box", (1.0, 2.0, 40.0), lambda v: OracleModel([Detection(0, 1.0, v)], 3),
     r"^gt\[0\]: missing or bad field box must hold 4 coordinates \(x1, y1, x2, y2\)"),
    ("OracleModel", "gt class", 3,
     lambda v: OracleModel([DETS[0], Detection(v, 1.0, (1.0, 2.0, 30.0, 40.0))], 3),
     r"^gt\[1\] class must be an integer in \[0, 3\), got 3"),
    ("OracleModel", "gt class", -1,
     lambda v: OracleModel([Detection(v, 1.0, (1.0, 2.0, 30.0, 40.0))], 3),
     r"^gt\[0\] class must be an integer in \[0, 3\), got -1"),
    ("OracleModel", "gt class", 1.5,
     lambda v: OracleModel([Detection(v, 1.0, (1.0, 2.0, 30.0, 40.0))], 3),
     r"^gt\[0\] class must be an integer in \[0, 3\), got 1.5"),
    ("Detection.from_dict", "box", [10, 10, NAN, 60],
     lambda v: Detection.from_dict({"class": 0, "score": 1.0, "box": v}),
     r"^detection: missing or bad field box must be finite, got \[10, 10, nan, 60\]"),
    ("SceneSpec.from_dict", "objects.box", [8, 8, 40, INF],
     lambda v: SceneSpec.from_dict({"height": 64, "width": 64,
                                    "objects": [{"class": 0, "box": v}]}),
     "^scene spec: missing or bad field box must be finite"),
    # a crop index is an integer: a float cannot index the windows, a bool would run as 0 or 1
    ("run_saccade", "crop_order", [0.0, 1, 2], _saccade_in_crop_order,
     r"^crop_order must be a permutation of range\(3\), got \[0.0, 1, 2\]"),
    ("run_saccade", "crop_order", [True, 0, 2], _saccade_in_crop_order,
     r"^crop_order must be a permutation of range\(3\), got \[True, 0, 2\]"),
    # an inverted ground-truth box fails at construction, not inside attention_targets
    ("OracleModel", "gt box", (40.0, 2.0, 10.0, 40.0),
     lambda v: OracleModel([DETS[0], Detection(0, 1.0, v)], 3),
     r"^gt\[1\] box must have x1 <= x2 and y1 <= y2, got \(40.0, 2.0, 10.0, 40.0\)"),
    ("OracleModel", "gt box", (1.0, 40.0, 30.0, 10.0),
     lambda v: OracleModel([Detection(0, 1.0, v)], 3),
     r"^gt\[0\] box must have x1 <= x2 and y1 <= y2, got \(1.0, 40.0, 30.0, 10.0\)"),
    # a config file that still sets the dropped linear soft-NMS fields is refused by key
    ("SaccadeConfig.from_dict", "nms_method", {"nms_method": "gaussian"}, SaccadeConfig.from_dict,
     r"^unknown SaccadeConfig key\(s\) \['nms_method'\]"),
    ("SaccadeConfig.from_dict", "nms_linear_threshold", {"nms_linear_threshold": 0.3},
     SaccadeConfig.from_dict, r"^unknown SaccadeConfig key\(s\) \['nms_linear_threshold'\]"),
    # a config that is not a JSON object is named as such, not read as keys or iterated
    *(("SaccadeConfig.from_dict", "config", bad, SaccadeConfig.from_dict,
       rf"^SaccadeConfig must be read from a dict \(a JSON object\), got {kind}$")
      for bad, kind in ((None, "NoneType"), ([1], "list"), ("ab", "str"), (3, "int"))),
    # keys that do not sort against each other are still named, in repr order
    ("SaccadeConfig.from_dict", "key", {1: 2, "a": 3}, SaccadeConfig.from_dict,
     r"^unknown SaccadeConfig key\(s\) \['a', 1\]$"),
    # a zoom whose crop canvas side overflows a float fails here, not in make_crop
    *(("SaccadeConfig", "zoom_small", bad, lambda v: SaccadeConfig(zoom_small=v),
       r"^zoom scales must be small enough that zoom \* 255 is finite")
      for bad in (INF, 1e308)),
]


_CHECKED_AS_BUILT = "takes only an ArchGraph, whose nodes ArchGraph.add and shapes check"

# exported callables without a row, each with the reason
NO_ROW = {
    "Affine": "a record of four floats; crop_pixels checks the one it is given (window rows)",
    "Corner": "a record that heatmap_peaks builds and group_corners reads",
    "CropWindow": "a record; crop_pixels checks its fields (the window.* rows)",
    "ObjectLocation": "a record; suppress_locations and make_crop check its fields",
    "SceneObject": "a record; gen_scene checks its fields (the objects.* rows)",
    "Node": "a record; ArchGraph.add and ArchGraph.shapes check its fields",
    "Emit": "appends nodes through ArchGraph.add, which checks each one",
    "CostReport": "a result record that cost_report builds",
    "DepthReport": "a result record that depth_report builds",
    "forward": "runs any size its shape rules accept; its checks (a non-4-D input, a size a "
               "shape rule refuses, weights) are pinned in tests/test_graph.py",
    "relu": "total: takes any array numpy can cast to float32",
    "sigmoid": "total: takes any array numpy can cast to float32",
    "depth_report": _CHECKED_AS_BUILT,
    "param_enumeration": _CHECKED_AS_BUILT,
    "structure_census": _CHECKED_AS_BUILT,
}


@pytest.mark.parametrize("entry,argument,bad,call,fragment", MISUSE,
                         ids=[f"{e}-{a}-{b}" for e, a, b, *_ in MISUSE])
def test_misuse_raises_value_error_naming_the_argument(entry, argument, bad, call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call(bad)


def test_argument_checks_have_one_spelling():
    # kernels.py holds the shared checks; no other module spells its own
    spellings = re.compile(r"numbers\.Integral|\(int, np\.integer\)|def _check_")
    for path in sorted(pathlib.Path(fovea.__file__).parent.glob("*.py")):
        if path.name != "kernels.py":
            found = spellings.findall(path.read_text())
            assert not found, f"{path.name} spells its own argument check: {found}"


def test_every_export_has_a_row_or_a_reason():
    exported = {name for name, obj in vars(fovea).items()
                if not name.startswith("_") and callable(obj)}
    covered = {entry.split(".")[0] for entry, *_ in MISUSE}
    assert sorted(exported - covered - NO_ROW.keys()) == [], "exports with no row and no reason"
    assert sorted(NO_ROW.keys() & covered) == [], "NO_ROW names an export that has a row"
    assert sorted(NO_ROW.keys() - exported) == [], "NO_ROW names something fovea does not export"
