"""Alternating parent/change pairs of the end-to-end benchmark, summarized.

    python3 tools/bench_pairs.py PARENT CHANGE --plan zero_scan:7 point_eval:7 \\
        exact_tables:7 zero_scan:11 --claim zero_scan:ops_per_s --out BENCH_<n>.json

PARENT and CHANGE are two checkouts of the repository (for example a
`git archive` of each commit unpacked into its own directory).  For every
workload:seed of --plan, each of PAIRS = 10 pairs runs `python3
e2ebench/run.py --workload <w> --seed <s> --seconds <n> --trace 0` once in
each checkout, n being the run_seconds of CHANGE's BENCHMARK.json, the
parent first in even pairs and the change first in odd ones.  Every run gets
PYTHONDONTWRITEBYTECODE=1, and a checkout holding __pycache__ under src/ or
e2ebench/ is refused, so neither side runs compiled files the other
compiles afresh.

The summary follows the layout of the earlier BENCH_*.json records: per
metric of BENCHMARK.json's end_to_end list, each side's median and
quartiles (statistics.quantiles, n=4, inclusive; the first and third),
the run count and how many pairs the change won, ties counting for
neither side.  The first seed of --plan fills "end_to_end", the others
"other_seed".  Each --claim workload:metric is checked at every planned
seed of its workload: met when all PAIRS pairs have run, the change wins
at least nine of them and the medians differ by more than the parent's
interquartile range.  The raw result of every run is kept under "runs", and the output
is rewritten after every pair, so an interrupted session keeps what ran.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# alternating pairs per planned workload:seed; a claim is judged on all of them
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its last stdout line, parsed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(q3, 6)]


def wins(parent: list[float], change: list[float], higher: bool) -> int:
    return sum((c > p) if higher else (c < p) for p, c in zip(parent, change))


def metric_rows(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: medians, quartiles and pair wins (two pairs at least)."""
    rows = {}
    for name, direction in better.items():
        p = [r["parent"]["metrics"][name]["value"] for r in runs]
        c = [r["change"]["metrics"][name]["value"] for r in runs]
        if len(runs) < 2:
            continue
        rows[name] = {
            "parent_median": round(statistics.median(p), 6),
            "change_median": round(statistics.median(c), 6),
            "parent_quartiles": quartiles(p),
            "change_quartiles": quartiles(c),
            "runs": len(runs),
            "change_wins": "%d of %d pairs" % (wins(p, c, direction == "higher"), len(runs)),
        }
    rows["correct"] = {side: all(r[side]["correct"] for r in runs)
                       for side in ("parent", "change")}
    rows["failed_of_attempted"] = {side: [[r[side]["failed"], r[side]["attempted"]]
                                          for r in runs] for side in ("parent", "change")}
    return rows


def claim_row(pairs: list[dict], workload: str, seed: int, metric: str, higher: bool) -> dict:
    p = [r["parent"]["metrics"][metric]["value"] for r in pairs]
    c = [r["change"]["metrics"][metric]["value"] for r in pairs]
    if len(pairs) < 2:
        return {"workload": workload, "metric": metric, "seed": seed, "runs": len(pairs)}
    won = wins(p, c, higher)
    gain = (statistics.median(c) - statistics.median(p)) * (1 if higher else -1)
    q1, q3 = quartiles(p)
    p50 = {side: [r[side]["metrics"]["op_p50_s"]["value"] for r in pairs]
           for side in ("parent", "change")}
    return {
        "workload": workload, "metric": metric, "seed": seed,
        "change_wins": "%d of %d pairs" % (won, len(pairs)),
        "median_gain": round(gain, 3),
        "median_ratio": round(statistics.median(c) / statistics.median(p), 3),
        "parent_iqr": round(q3 - q1, 3),
        "met": len(pairs) >= PAIRS and 10 * won >= 9 * len(pairs) and gain > q3 - q1,
        "op_p50_s": {
            "parent_median": round(statistics.median(p50["parent"]), 6),
            "change_median": round(statistics.median(p50["change"]), 6),
            "change_wins": "%d of %d pairs" % (wins(p50["parent"], p50["change"], False),
                                               len(pairs)),
        },
    }


def summarize(plan: list[tuple[str, int]], claims: list[tuple[str, str]],
              runs: dict[str, list[dict]], better: dict[str, str], meta: dict) -> dict:
    main_seed = plan[0][1]
    doc = dict(meta)
    doc["claim"] = [claim_row(runs["%s:%d" % (w, s)], w, s, metric, better[metric] == "higher")
                    for w, metric in claims for pw, s in plan if pw == w]
    doc["end_to_end"] = {w: metric_rows(runs["%s:%d" % (w, s)], better)
                         for w, s in plan if s == main_seed}
    doc["other_seed"] = {"%s:%d" % (w, s): metric_rows(runs["%s:%d" % (w, s)], better)
                         for w, s in plan if s != main_seed}
    doc["runs"] = runs
    return doc


def check_clean(checkout: Path) -> None:
    stale = [p for d in ("src", "e2ebench") for p in (checkout / d).rglob("__pycache__")]
    if stale:
        raise SystemExit("%s holds compiled files (%s); remove them so both sides "
                         "compile alike" % (checkout, stale[0]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--plan", nargs="+", required=True, help="workload:seed ...")
    parser.add_argument("--claim", nargs="*", default=[], help="workload:metric ...")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    plan = [(w, int(s)) for w, s in (item.split(":") for item in args.plan)]
    claims = [tuple(item.split(":")) for item in args.claim]
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    for _w, metric in claims:
        if metric not in better:
            raise SystemExit("unknown metric %r" % metric)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        check_clean(checkout)
    meta = {
        "harness": "python3 e2ebench/run.py --workload <w> --seed <s> --seconds %g --trace 0 "
                   "in each checkout, PYTHONDONTWRITEBYTECODE=1" % seconds,
        "pairs": "parent first in even pairs, change first in odd ones; %d pairs of each of %s"
                 % (PAIRS, ", ".join(args.plan)),
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of one side",
    }
    runs: dict[str, list[dict]] = {"%s:%d" % key: [] for key in plan}
    for workload, seed in plan:
        for i in range(PAIRS):
            pair = {}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                t0 = time.perf_counter()
                pair[side] = run_once(sides[side], workload, seed, seconds)
                pair[side]["wall_s"] = round(time.perf_counter() - t0, 3)
            runs["%s:%d" % (workload, seed)].append(pair)
            args.out.write_text(json.dumps(summarize(plan, claims, runs, better, meta),
                                           indent=1) + "\n")
            print("%s seed %d pair %d: ops_per_s parent %.1f change %.1f" % (
                workload, seed, i, pair["parent"]["metrics"]["ops_per_s"]["value"],
                pair["change"]["metrics"]["ops_per_s"]["value"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
