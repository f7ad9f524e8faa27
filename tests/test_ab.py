"""The paired A/B summary of tools/ab.py, on synthetic runs (no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

AB_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", AB_PATH)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

END_TO_END = [{"name": "latency_p50_s", "better": "lower", "bound": 0.25},
              {"name": "images_per_s", "better": "higher", "bound": 0.25}]


def _run(side, pair, latency, exit=0, failed=0, digest="d0", workload="w"):
    run = {"side": side, "pair": pair, "workload": workload, "seed": 0, "exit": exit,
           "digest": digest}
    if exit == 0:
        run.update(failed=failed, attempted=10, metrics={"latency_p50_s": {"value": latency},
                                           "images_per_s": {"value": 1.0 / latency}})
    return run


def _rows(runs):
    return {row["metric"]: row for row in ab.summarize(runs, END_TO_END)}


def test_sides_alternate_which_runs_first():
    assert [ab.side_order(p)[0] for p in range(4)] == ["parent", "change", "parent", "change"]


def test_quartiles_medians_and_wins_per_metric():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4]
    change = [1.5, 0.9, 1.7, 1.8, 1.9]  # wins pair 1 only
    runs = [_run("parent", i, v) for i, v in enumerate(parent)]
    runs += [_run("change", i, v) for i, v in enumerate(change)]
    rows = _rows(runs)
    lat, ips = rows["latency_p50_s"], rows["images_per_s"]
    assert [lat[f"parent_{q}"] for q in ("q1", "median", "q3")] == pytest.approx([1.1, 1.2, 1.3])
    assert lat["change_median"] == 1.7 and lat["change_vs_parent"] == pytest.approx(1.7 / 1.2 - 1)
    assert lat["change_wins"] == ips["change_wins"] == 1 and lat["pairs"] == 5
    # +42% latency is worse than the 25% bound, and so is the matching -29% in images/s
    assert lat["worse_by_more_than_bound"] and ips["worse_by_more_than_bound"]
    assert not lat["parent_spread_exceeds_bound"]  # (1.3 - 1.1) / 1.2 = 17%
    assert lat["digests_equal"] and lat["failed_runs"] == {"parent": 0, "change": 0}
    assert ab.verdict(lat) == "WORSE than bound"


def test_wide_parent_spread_is_unresolved_and_ties_win_nothing():
    parent = [1.0, 1.0, 2.0, 2.0]
    runs = [_run("parent", i, v) for i, v in enumerate(parent)]
    runs += [_run("change", i, v) for i, v in enumerate(parent)]
    lat = _rows(runs)["latency_p50_s"]
    assert lat["parent_spread_exceeds_bound"] and not lat["worse_by_more_than_bound"]
    assert lat["change_wins"] == 0 and not lat["every_change_run_better"]
    assert ab.verdict(lat) == "unresolved"


def test_a_wide_parent_spread_is_resolved_when_every_change_run_is_better():
    parent = [1.0, 1.0, 2.0, 2.0]
    change = [0.5, 0.6, 0.9, 0.7]  # each below the fastest parent run
    runs = [_run("parent", i, v) for i, v in enumerate(parent)]
    runs += [_run("change", i, v) for i, v in enumerate(change)]
    rows = _rows(runs)
    for row in rows.values():  # lower latency and higher images/s alike
        assert row["parent_spread_exceeds_bound"] and row["every_change_run_better"]
        assert ab.verdict(row) == "within bound"
    runs[-1] = _run("change", 3, 1.0)  # ties the fastest parent run
    assert not _rows(runs)["latency_p50_s"]["every_change_run_better"]
    assert ab.verdict(_rows(runs)["latency_p50_s"]) == "unresolved"


def test_a_failed_run_drops_its_pair_and_is_counted():
    runs = [_run("parent", 0, 1.0), _run("change", 0, 1.0),
            _run("parent", 1, 1.0), _run("change", 1, 1.0, exit=1, digest=None),
            _run("parent", 2, 1.0), _run("change", 2, 1.0, failed=3, digest="d1")]
    lat = _rows(runs)["latency_p50_s"]
    assert lat["pairs"] == 1 and lat["failed_runs"] == {"parent": 0, "change": 2}
    assert not lat["digests_equal"]
    only_failed = _rows([_run("parent", 0, 1.0, exit=1), _run("change", 0, 1.0)])
    assert only_failed["latency_p50_s"]["pairs"] == 0
    assert ab.verdict(only_failed["latency_p50_s"]) == "no complete pair"


def test_failed_calls_are_compared_when_every_pair_drops():
    runs = [_run("parent", i, 1.0, failed=1) for i in range(3)]
    runs += [_run("change", i, 1.0, failed=f) for i, f in enumerate((2, 3, 4))]
    runs.append(_run("change", 3, 1.0, exit=1))  # printed no metrics: no calls counted
    lat = _rows(runs)["latency_p50_s"]
    assert lat["pairs"] == 0 and lat["failed_runs"] == {"parent": 3, "change": 4}
    assert lat["failed_share"] == {"parent": pytest.approx(0.1), "change": pytest.approx(0.3)}
    assert _rows(runs[:1])["latency_p50_s"]["failed_share"] == {"parent": 0.1, "change": None}
