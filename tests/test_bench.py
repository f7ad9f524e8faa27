import sys

import pytest

from fovea.bench import bench


def test_bench_report_schema_and_single_sample():
    report = bench(["conv3x3"], [8], repetitions=1)
    assert report["repetitions"] == 1
    entry = report["entries"][0]
    assert entry["op"] == "conv3x3" and entry["size"] == 8
    assert entry["samples"] == 1
    assert entry["macs"] == 8 * 8 * 64 * 64 * 9
    assert entry["p10_s"] <= entry["median_s"] <= entry["p90_s"]


def test_bench_stem_conv_schema():
    report = bench(["conv7x7s2"], [16], repetitions=2)
    entry = report["entries"][0]
    assert (entry["op"], entry["size"], entry["samples"]) == ("conv7x7s2", 16, 2)
    assert entry["macs"] == 8 * 8 * 128 * 3 * 49  # 16 px, stride 2, pad 3 -> 8x8
    assert 0 < entry["p10_s"] <= entry["median_s"] <= entry["p90_s"]


def test_bench_depthwise_and_transpose_conv_macs():
    report = bench(["dwconv3x3", "tconv4x4"], [16], repetitions=1)
    assert [(e["op"], e["size"], e["macs"]) for e in report["entries"]] == \
           [("dwconv3x3", 16, 16 * 16 * 64 * 9), ("tconv4x4", 16, 16 * 16 * 64 * 64 * 16)]


def test_bench_post_network_ops_schema():
    report = bench(["soft_nms", "group_corners", "peaks"], [16], repetitions=2)
    assert [(e["op"], e["size"], e["macs"], e["samples"]) for e in report["entries"]] == \
           [("soft_nms", 16, 0, 2), ("group_corners", 16, 0, 2), ("peaks", 16, 0, 2)]
    for e in report["entries"]:
        assert 0 < e["p10_s"] <= e["median_s"] <= e["p90_s"]


def test_bench_sampling_ops_schema():
    report = bench(["crop_pixels", "resize255"], [64], repetitions=2)
    assert [(e["op"], e["size"], e["macs"], e["samples"]) for e in report["entries"]] == \
           [("crop_pixels", 64, 0, 2), ("resize255", 64, 0, 2)]
    for e in report["entries"]:
        assert 0 < e["p10_s"] <= e["median_s"] <= e["p90_s"]


def test_bench_forward_macs_ordering_at_255():
    # the per-entry MAC counts come from the exact graph cost report; the
    # compact backbone must undercut the saccade backbone at the same input
    report = bench(["forward_squeeze", "forward_hourglass54"], [255], repetitions=1)
    macs = {e["op"]: e["macs"] for e in report["entries"]}
    assert macs["forward_squeeze"] < macs["forward_hourglass54"]
    assert all(e["median_s"] > 0 for e in report["entries"])


def test_bench_checks_every_op_name_before_building_any(monkeypatch):
    ops = sys.modules["fovea.bench"].BENCH_OPS
    built = []
    monkeypatch.setitem(ops, "peaks", lambda size: built.append(size) or ops["soft_nms"](size))
    with pytest.raises(ValueError, match="^unknown bench op 'bogus'"):
        bench(["peaks", "bogus"], [16])
    assert built == []


def test_bench_rejects_unknown_op_and_bad_reps():
    with pytest.raises(ValueError, match="unknown bench op"):
        bench(["warp_speed"], [8])
    with pytest.raises(ValueError, match="repetitions"):
        bench(["conv3x3"], [8], repetitions=0)


def test_bench_init_ops_schema():
    report = bench(["init_squeeze"], [127], repetitions=1)
    assert [(e["op"], e["size"], e["macs"], e["samples"]) for e in report["entries"]] == \
           [("init_squeeze", 127, 0, 1)]
    assert report["entries"][0]["median_s"] > 0
