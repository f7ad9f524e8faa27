import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fovea
from fovea import ArchGraph, Emit, skt
from fovea.cli import main


GT_RECORD = {"class": 0, "score": 1.0, "box": [10, 10, 60, 80]}


def run(argv):
    main(argv)


def test_arch_build_stats_init_forward(tmp_path):
    graph_path = tmp_path / "squeeze.json"
    run(["arch", "build", "--variant", "squeeze", "--classes", "2", "--out", str(graph_path)])
    assert graph_path.exists()

    stats_path = tmp_path / "stats.json"
    run(["arch", "stats", str(graph_path), "--input", "1x3x255x255", "--out", str(stats_path)])
    stats = json.loads(stats_path.read_text())
    assert stats["weights"] > 0 and stats["macs"] > 0
    assert "stem" in stats["per_stage"]
    assert stats["live_peak_bytes"] == 16_777_216

    weights_dir = tmp_path / "weights"
    run(["arch", "init", str(graph_path), "--out-dir", str(weights_dir), "--seed", "3"])
    assert any(weights_dir.iterdir())

    x = np.random.default_rng(0).normal(size=(1, 3, 255, 255)).astype(np.float32)
    in_path = tmp_path / "in.skt"
    skt.write_tensor(in_path, x)
    out_dir = tmp_path / "taps"
    run(["arch", "forward", str(graph_path), "--weights", str(weights_dir),
         "--input", str(in_path), "--out-dir", str(out_dir)])
    heat = skt.read_tensor(out_dir / "tl_heat.skt")
    assert heat.shape == (1, 2, 32, 32)


def test_decode_peaks_and_group(tmp_path):
    heat = np.zeros((1, 1, 8, 8), np.float32)
    heat[0, 0, 2, 2] = 0.9
    off = np.zeros((1, 2, 8, 8), np.float32)
    emb = np.ones((1, 1, 8, 8), np.float32)
    for name, arr in [("heat", heat), ("off", off), ("emb", emb)]:
        skt.write_tensor(tmp_path / f"{name}.skt", arr)

    tl_path = tmp_path / "tl.json"
    run(["decode", "peaks", "--heat", str(tmp_path / "heat.skt"),
         "--offsets", str(tmp_path / "off.skt"), "--embeddings", str(tmp_path / "emb.skt"),
         "--k", "1", "--kind", "tl", "--out", str(tl_path)])
    tl = json.loads(tl_path.read_text())
    assert tl[0]["x"] == 2 and tl[0]["score"] == pytest.approx(0.9)

    heat2 = np.zeros((1, 1, 8, 8), np.float32)
    heat2[0, 0, 6, 7] = 0.8
    skt.write_tensor(tmp_path / "heat2.skt", heat2)
    br_path = tmp_path / "br.json"
    run(["decode", "peaks", "--heat", str(tmp_path / "heat2.skt"),
         "--embeddings", str(tmp_path / "emb.skt"), "--k", "1", "--kind", "br",
         "--out", str(br_path)])

    dets_path = tmp_path / "dets.json"
    run(["decode", "group", "--tl", str(tl_path), "--br", str(br_path),
         "--threshold", "0.5", "--factor", "4.0", "--out", str(dets_path)])
    dets = json.loads(dets_path.read_text())
    assert len(dets) == 1
    assert dets[0]["box"] == [8.0, 8.0, 28.0, 24.0]


def test_scene_and_saccade_stub_run(tmp_path):
    img_path = tmp_path / "scene.skt"
    gt_path = tmp_path / "gt.json"
    run(["scene", "gen", "--seed", "11", "--objects", "3", "--canvas", "510x510",
         "--out-image", str(img_path), "--out-gt", str(gt_path)])
    gt = json.loads(gt_path.read_text())
    assert len(gt) == 3

    dets_path = tmp_path / "dets.json"
    trace_path = tmp_path / "trace.json"
    run(["saccade", "run", "--stub-gt", str(gt_path), "--image", str(img_path),
         "--out", str(dets_path), "--trace", str(trace_path)])
    dets = json.loads(dets_path.read_text())
    confident = [d for d in dets if d["score"] > 0.5]
    assert len(confident) == 3
    trace = json.loads(trace_path.read_text())
    assert trace["n_crops"] <= 12
    assert trace["n_kept_locations"] <= trace["n_locations"]


def test_saccade_run_with_config(tmp_path):
    from fovea.pipeline import SaccadeConfig
    img_path = tmp_path / "scene.skt"
    gt_path = tmp_path / "gt.json"
    run(["scene", "gen", "--seed", "12", "--objects", "2",
         "--out-image", str(img_path), "--out-gt", str(gt_path)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SaccadeConfig(max_regions=1).to_dict()))
    trace_path = tmp_path / "trace.json"
    run(["saccade", "run", "--stub-gt", str(gt_path), "--image", str(img_path),
         "--config", str(cfg_path), "--out", str(tmp_path / "d.json"),
         "--trace", str(trace_path)])
    assert json.loads(trace_path.read_text())["n_crops"] <= 1


def test_scene_oracle_writes_maps(tmp_path):
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps([{"class": 0, "score": 1.0, "box": [10, 10, 60, 80]}]))
    out_dir = tmp_path / "maps"
    run(["scene", "oracle", "--gt", str(gt_path), "--classes", "2",
         "--out-dir", str(out_dir)])
    heat = skt.read_tensor(out_dir / "tl_heat.skt")
    assert heat.shape == (1, 2, 64, 64)
    assert heat.sum() == np.float32(0.9)
    assert (out_dir / "attn_small.skt").exists()


def test_scene_oracle_writes_the_tap_files_arch_forward_writes(tmp_path):
    # a small graph with the builders' heads, so that its taps carry the backbones' names
    g = ArchGraph((1, 3, 16, 16))
    e = Emit(g)
    x = e.conv("stem", "input", 3, 4, 3)
    e.attention_heads({size: (x, 4) for size in ("small", "medium", "large")}, mid=4)
    e.corner_heads(x, 4, 2, lead_kernel=1, mid=4)
    graph_path, in_path = str(tmp_path / "heads.json"), tmp_path / "in.skt"
    g.save(graph_path)
    run(["arch", "init", graph_path, "--out-dir", str(tmp_path / "weights")])
    skt.write_tensor(in_path, np.zeros((1, 3, 16, 16), np.float32))
    run(["arch", "forward", graph_path, "--weights", str(tmp_path / "weights"),
         "--input", str(in_path), "--out-dir", str(tmp_path / "taps")])
    run(["scene", "oracle", "--gt", _written(tmp_path / "gt.json", [GT_RECORD]),
         "--classes", "2", "--out-dir", str(tmp_path / "maps")])
    written = [sorted(p.name for p in (tmp_path / d).iterdir()) for d in ("taps", "maps")]
    assert written[0] == written[1] == sorted(f"{name}.skt" for name in g.taps)


def test_bench_single_repetition(tmp_path):
    out = tmp_path / "bench.json"
    run(["bench", "--ops", "conv3x3", "maxpool3x3", "--sizes", "8", "16",
         "--reps", "1", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["repetitions"] == 1
    assert len(report["entries"]) == 4
    for entry in report["entries"]:
        assert entry["samples"] == 1
        assert set(entry) >= {"op", "size", "macs", "median_s", "p10_s", "p90_s"}


def test_compare_graphs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["arch", "build", "--variant", "squeeze", "--classes", "2", "--out", str(a)])
    run(["arch", "build", "--variant", "hourglass54", "--classes", "2", "--out", str(b)])
    out = tmp_path / "table.json"
    run(["compare", "--graphs", str(a), str(b), "--input", "1x3x255x255",
         "--out", str(out)])
    rows = json.loads(out.read_text())
    assert len(rows) == 2
    assert rows[0]["macs"] < rows[1]["macs"]
    csv_out = tmp_path / "table.csv"
    run(["compare", "--graphs", str(a), str(b), "--csv", "--out", str(csv_out)])
    assert csv_out.read_text().startswith("name,")



def _written(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _tensor(path, shape):
    skt.write_tensor(str(path), np.zeros(shape, np.float32))
    return str(path)


def _empty_dir(path):
    path.mkdir()
    return str(path)


TINY_GRAPH = {"input_dims": [1, 3, 8, 8], "nodes": [{"id": "input", "kind": "input"}]}
# a stride-2 conv, upsampled and added back to its input: an odd height breaks the merge
MERGE_GRAPH = {"input_dims": [1, 3, 8, 8], "taps": {"out": "merge"}, "nodes": [
    {"id": "input", "kind": "input"},
    {"id": "down", "kind": "conv", "inputs": ["input"], "in_channels": 3, "out_channels": 3,
     "kernel": [3, 3], "stride": 2, "padding": 1},
    {"id": "up", "kind": "upsample2x", "inputs": ["down"]},
    {"id": "merge", "kind": "add", "inputs": ["input", "up"]}]}


def _merge_weights(path):
    _empty_dir(path)
    _tensor(path / "down.w.skt", (3, 3, 3, 3))
    return str(path)


@pytest.mark.parametrize("make_argv, match", [
    (lambda tmp: ["arch", "stats", "/nonexistent/graph.json"], "No such file"),
    (lambda tmp: ["arch", "stats", str(tmp / "graph.json")], "input_dims"),
    (lambda tmp: ["arch", "build", "--variant", "squeeze", "--classes", "0",
                  "--out", str(tmp / "zero.json")],
     "num_classes must be an integer >= 1, got 0"),
    (lambda tmp: ["scene", "gen", "--spec", str(tmp / "graph.json"),
                  "--out-image", str(tmp / "i.skt"), "--out-gt", str(tmp / "gt.json")],
     "scene spec: missing or bad field 'height'"),
    (lambda tmp: ["saccade", "run", "--image", str(tmp / "i.skt"),
                  "--config", _written(tmp / "config.json", {"nms_sigma": "x"})],
     "nms_sigma must be a number, got 'x'"),
    (lambda tmp: ["saccade", "run", "--image", str(tmp / "i.skt"),
                  "--config", _written(tmp / "config.json", None)],
     r"SaccadeConfig must be read from a dict \(a JSON object\), got NoneType"),
    (lambda tmp: ["saccade", "run", "--image", str(tmp / "i.skt"),
                  "--config", _written(tmp / "config.json", {"zoom_small": float("inf")})],
     r"zoom scales must be small enough that zoom \* 255 is finite, got \(inf, 2.0, 1.0\)"),
    (lambda tmp: ["arch", "stats", _written(tmp / "list-node.json",
                                            {"input_dims": [1, 3, 8, 8], "nodes": [["input"]]})],
     "graph JSON node 0 must be an object"),
    (lambda tmp: ["arch", "stats", _written(tmp / "int-nodes.json",
                                            {"input_dims": [1, 3, 8, 8], "nodes": 5})],
     "graph JSON nodes must be a list, got 5"),
    (lambda tmp: ["scene", "oracle", "--gt", _written(tmp / "gt.json", [GT_RECORD]),
                  "--frame", "0x0", "--out-dir", str(tmp / "maps")],
     r"frame_hw must be a pair of integers >= 1, got \(0, 0\)"),
    (lambda tmp: ["scene", "oracle", "--out-dir", str(tmp / "maps"), "--gt",
                  _written(tmp / "gt.json", [{**GT_RECORD, "box": [10, 10, 60]}])],
     r"detection: missing or bad field box must hold 4 coordinates"),
    (lambda tmp: ["scene", "gen", "--out-image", str(tmp / "i.skt"), "--out-gt",
                  str(tmp / "gt.json"), "--spec",
                  _written(tmp / "spec.json", {"height": -5, "width": 10})],
     "height must be an integer >= 1, got -5"),
    (lambda tmp: ["decode", "peaks", "--heat", _tensor(tmp / "heat.skt", (3, 8, 8)),
                  "--offsets", _tensor(tmp / "off.skt", (1, 3, 8, 8))],
     r"heatmaps must be \(1, C, H, W\), got \(3, 8, 8\)"),
    (lambda tmp: ["bench", "--ops", "peaks", "--sizes", "0"],
     "bench size must be an integer >= 1, got 0"),
    (lambda tmp: ["bench", "--ops", "soft_nms", "--sizes", "8", "-1"],
     "bench size must be an integer >= 1, got -1"),
    (lambda tmp: ["arch", "init", _written(tmp / "tiny.json", TINY_GRAPH), "--seed", "-1",
                  "--out-dir", str(tmp / "weights")],
     "seed must be an integer >= 0, got -1"),
    (lambda tmp: ["arch", "forward", _written(tmp / "merge.json", MERGE_GRAPH),
                  "--weights", _merge_weights(tmp / "weights"),
                  "--input", _tensor(tmp / "x.skt", (1, 3, 9, 8)), "--out-dir", str(tmp / "taps")],
     r"node 'merge': add inputs disagree: \[\(1, 3, 9, 8\), \(1, 3, 10, 8\)\]"),
    (lambda tmp: ["arch", "forward", _written(tmp / "tiny.json", TINY_GRAPH),
                  "--weights", _empty_dir(tmp / "weights"),
                  "--input", _tensor(tmp / "x.skt", (3, 8, 8)), "--out-dir", str(tmp / "taps")],
     r"input must be 4-D \(n, c, h, w\), got \(3, 8, 8\)"),
    (lambda tmp: ["compare", "--graphs", _written(tmp / "tiny.json", TINY_GRAPH),
                  "--input", "1x3x0x8"],
     r"input_dims must be four integers >= 1, got \(1, 3, 0, 8\)"),
], ids=["missing-file", "graph-without-input-dims", "build-zero-classes", "scene-spec-no-height",
        "saccade-config-non-numeric", "saccade-config-null", "saccade-config-infinite-zoom",
        "graph-node-not-an-object", "graph-nodes-not-a-list",
        "scene-oracle-zero-frame", "scene-oracle-three-value-box", "scene-spec-negative-height",
        "decode-peaks-three-dim-heat", "bench-zero-size", "bench-negative-size",
        "arch-init-negative-seed", "arch-forward-shape-rule-input", "arch-forward-three-dim-input",
        "compare-zero-input-dim"])
def test_cli_errors_are_one_line(tmp_path, make_argv, match):
    (tmp_path / "graph.json").write_text(json.dumps({"nodes": []}))
    src = os.path.dirname(os.path.dirname(fovea.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "fovea.cli", *make_argv(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode != 0
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("fovea: error:"), proc.stderr
    assert re.search(match, lines[0]), lines[0]


def test_json_records_name_their_missing_field(tmp_path):
    # a corner or ground-truth record without a field exits with one line naming it
    corners = tmp_path / "corners.json"
    corners.write_text(json.dumps([{"class": 0, "score": 0.9, "y": 2}]))
    with pytest.raises(SystemExit, match="corner: missing or bad field 'x'"):
        main(["decode", "group", "--tl", str(corners), "--br", str(corners)])
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps([{"score": 1.0, "box": [10, 10, 60, 80]}]))
    with pytest.raises(SystemExit, match="detection: missing or bad field 'class'"):
        main(["scene", "oracle", "--gt", str(gt), "--out-dir", str(tmp_path / "maps")])
