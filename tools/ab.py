"""Paired A/B runs of the benchmark: a parent commit against a change.

    python3 tools/ab.py --parent HEAD --pairs 10 --out BENCH_prN.json

Run it from the repository root.  Each side runs in its own tree, made with
``git archive``: the parent from ``--parent``, the change from ``--change``
(by default the staged index, through ``git write-tree``).  Each tree runs
its own ``perfbench/run.py`` on its own sources, as BENCHMARK.json's
``command`` says, for its ``run_seconds`` at seed 0 with ``--trace 0``.
Pairs visit every workload in turn; within a pair the parent runs first on
even pair indices and the change on odd ones.  Every run's exit code and
last-line JSON are kept, with the output digest that perfbench writes under
``perfbench/out/``.

The summary has one row per workload and end-to-end metric of
BENCHMARK.json: q1, median and q3 per side (``statistics.quantiles(n=4,
method="inclusive")``), the pairs the change won (ties count for neither),
``every_change_run_better`` (than every parent run),
``worse_by_more_than_bound``, ``parent_spread_exceeds_bound`` (q3 - q1 of
the parent's runs over its median), the share of calls that failed per side
and whether every run gave one digest.  A metric whose parent spread
exceeds its bound is printed as unresolved, not as passed or failed, unless
every change run reads better than every parent run; ``--extra N`` then
runs N more pairs of each workload with an unresolved metric, kept and
summarised apart under ``extra``.  Nothing here needs a network, and
perfbench is run as it is, never edited.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
SEED = 0


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """Extract the tree of ``rev`` (a commit or tree id) into ``dest``."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def side_order(pair):
    """The sides in the order they run in pair ``pair``: the parent first on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(tree, command, side, pair, workload, seconds):
    """One benchmark run in ``tree``: its exit code, last-line JSON and digest."""
    record_path = os.path.join(tree, "perfbench", "out", f"{workload}-seed{SEED}-trace0.json")
    if os.path.exists(record_path):
        os.remove(record_path)  # a failed run must not report the previous run's digest
    args = [*command, "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
            "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    run = {"side": side, "pair": pair, "workload": workload, "seed": SEED, "trace": 0,
           "exit": proc.returncode, "wall_s": round(time.perf_counter() - start, 1)}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        run.update(metrics=result["metrics"], failed=result["failed"],
                   attempted=result["attempted"])
    except (IndexError, ValueError, KeyError, TypeError):
        run["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    if os.path.exists(record_path):
        with open(record_path) as f:
            record = json.load(f)
        run["digest"], run["machine"] = record.get("output_digest"), record.get("machine")
    return run


def completed(run):
    """Whether a run exited 0 with every call correct and its metrics read."""
    return run["exit"] == 0 and run.get("failed") == 0 and "metrics" in run


def quartiles(values):
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def failed_share(runs):
    """Failed calls over attempted calls in the ``runs`` that printed metrics."""
    attempted = sum(r["attempted"] for r in runs if "metrics" in r)
    return sum(r["failed"] for r in runs if "metrics" in r) / attempted if attempted else None


def summarize(runs, end_to_end):
    """One row per (workload, end-to-end metric) of ``runs``; see the module docstring.

    A pair counts only when both of its runs completed; ``failed_runs`` counts
    each side's runs that exited non-zero, failed a call or printed no metrics,
    and ``failed_share`` is each side's failed calls over its attempted calls.
    """
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(by_pair.items())
                 if all(side in p and completed(p[side]) for side in SIDES)]
        digests = {r.get("digest") for r in mine}
        failed_runs = {side: sum(1 for r in mine if r["side"] == side and not completed(r))
                       for side in SIDES}
        failed_calls = {side: failed_share([r for r in mine if r["side"] == side])
                        for side in SIDES}
        for metric in end_to_end:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            row = {"workload": workload, "seed": SEED, "trace": 0, "metric": name,
                   "pairs": len(pairs), "failed_runs": failed_runs, "failed_share": failed_calls,
                   "digests_equal": len(digests) == 1 and None not in digests}
            if pairs:
                for side in SIDES:
                    row.update(zip((f"{side}_q1", f"{side}_median", f"{side}_q3"),
                                   quartiles(values[side])))
                parent, change = row["parent_median"], row["change_median"]
                row["change_vs_parent"] = change / parent - 1.0
                row["change_wins"] = sum((c < p) if lower else (c > p)
                                         for p, c in zip(values["parent"], values["change"]))
                row["every_change_run_better"] = (
                    max(values["change"]) < min(values["parent"]) if lower
                    else min(values["change"]) > max(values["parent"]))
                row["worse_by_more_than_bound"] = (row["change_vs_parent"] > bound if lower
                                                   else row["change_vs_parent"] < -bound)
                row["parent_spread_exceeds_bound"] = (
                    (row["parent_q3"] - row["parent_q1"]) / parent > bound)
            rows.append(row)
    return rows


def verdict(row):
    if not row["pairs"]:
        return "no complete pair"
    if row["parent_spread_exceeds_bound"] and not row["every_change_run_better"]:
        return "unresolved"
    return "WORSE than bound" if row["worse_by_more_than_bound"] else "within bound"


def report(rows):
    for row in rows:
        line = f"{row['workload']:<24} {row['metric']:<14}"
        if row["pairs"]:
            line += (f" parent {row['parent_median']:.4g} [{row['parent_q1']:.4g}, "
                     f"{row['parent_q3']:.4g}]  change {row['change_median']:.4g} "
                     f"[{row['change_q1']:.4g}, {row['change_q3']:.4g}]  "
                     f"{row['change_vs_parent']:+.1%}  won {row['change_wins']}/{row['pairs']}")
        line += (f"  {verdict(row)}  digests {'equal' if row['digests_equal'] else 'DIFFER'}"
                 f"  failed runs {row['failed_runs']}  failed calls {row['failed_share']}")
        print(line, flush=True)


def run_pairs(trees, command, workloads, pair_ids, seconds):
    runs = []
    for pair in pair_ids:
        for workload in workloads:
            for side in side_order(pair):
                run = run_once(trees[side], command, side, pair, workload, seconds)
                print(f"pair {pair} {workload} {side}: exit {run['exit']}, {run['wall_s']} s",
                      file=sys.stderr, flush=True)
                runs.append(run)
    return runs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit the change is measured against")
    parser.add_argument("--change", help="commit or tree of the change (default: the staged index)")
    parser.add_argument("--workload", action="append", help="repeatable (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--extra", type=int, default=0,
                        help="more pairs for each workload with an unresolved metric")
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    revs = {"parent": git("rev-parse", "--short", args.parent),
            "change": git("rev-parse", "--short", args.change or git("write-tree"))}
    doc = {"command": " ".join([*spec["command"], "--workload <w>", f"--seed {SEED}",
                                f"--seconds {seconds:g}", "--trace 0"]),
           "parent": revs["parent"], "change": revs["change"], "machine": None,
           "order": "parent first on even pair indices"}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        runs = run_pairs(trees, spec["command"], workloads, range(args.pairs), seconds)
        summary = summarize(runs, spec["end_to_end"])
        report(summary)
        unresolved = [w for w in workloads
                      if any(r["workload"] == w and verdict(r) == "unresolved" for r in summary)]
        if args.extra and unresolved:
            extra_runs = run_pairs(trees, spec["command"], unresolved,
                                   range(args.pairs, args.pairs + args.extra), seconds)
            doc["extra"] = {"summary": summarize(extra_runs, spec["end_to_end"]),
                            "runs": extra_runs}
            print("extra pairs:")
            report(doc["extra"]["summary"])
    doc["machine"] = next((r["machine"] for r in runs if r.get("machine")), None)
    doc["summary"] = summary
    doc["runs"] = runs
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
