#!/usr/bin/env python3
"""Assemble a committed BENCH_<n>.json from two directories of perfbench run
records: one made on the parent tree and one on the changed tree.

Each record is the JSON file that ``perfbench/run.py`` writes under
``perfbench/results/`` as ``<workload>-seed<S>-trace<T>.json``.  A pair is one
workload and seed with a ``--trace 0`` record on both sides.  Per workload the
output holds the pair count, the seeds, the attempted and failed operations of
each side and, per end-to-end metric of ``BENCHMARK.json``, the median and the
linear-interpolated quartiles of each side, the runs themselves and the number
of pairs in which the change is better, and the parent's drift: the median
of the parent's later half of runs minus that of its earlier half, in seed
order (runs taken in seed order on a shared machine drift with its load,
which widens the interquartile range).  Seeds with a ``--trace 1`` record on
both sides become traced pairs with their per-layer metrics.  With ``--claim
WORKLOAD:METRIC`` the file also says whether the change wins that metric in at
least nine of ten pairs and the medians differ by more than the parent's
interquartile range; the claim block repeats the parent's drift beside that
range, so a reader can see when drift has widened it.

Example:

    python3 scripts/bench_record.py --parent ../parent/perfbench/results \\
        --change perfbench/results --seeds 900-909 --out BENCH_9.json \\
        --description "what changed" --claim chain-sampled-n9:wall_s
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0"
TRACED_KEYS = (".s", ".calls", ".strings")  # per-layer metrics kept for a traced pair


def _parse_seeds(text: str | None) -> set[int] | None:
    if text is None:
        return None
    seeds: set[int] = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_records(directory: Path, trace: int, seeds: set[int] | None) -> dict:
    """{(workload, seed): record} of the run records in one directory."""
    records = {}
    for path in sorted(directory.glob(f"*-seed*-trace{trace}.json")):
        record = json.loads(path.read_text())
        if record.get("trace") != trace or (seeds is not None and record["seed"] not in seeds):
            continue
        records[(record["workload"], record["seed"])] = record
    return records


def _value(record: dict, metric: str) -> float:
    return record["result"]["metrics"][metric]["value"]


def _summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def _drift(values: list[float]) -> float:
    """Median of the later half of values minus that of the earlier half (a
    middle value of an odd count in neither)."""
    half = len(values) // 2
    if not half:
        return 0.0
    return round(statistics.median(values[-half:]) - statistics.median(values[:half]), 4)


def _better(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def workload_section(name: str, parent: dict, change: dict, metrics: list[dict]) -> dict:
    seeds = sorted(seed for (w, seed) in parent if w == name and (w, seed) in change)
    pairs = [(parent[(name, s)], change[(name, s)]) for s in seeds]
    section = {
        "pairs": len(pairs),
        "seeds": seeds,
        "attempted": [sum(p["result"]["attempted"] for p, _ in pairs),
                      sum(c["result"]["attempted"] for _, c in pairs)],
        "failed": [sum(p["result"]["failed"] for p, _ in pairs),
                   sum(c["result"]["failed"] for _, c in pairs)],
        "metrics": {},
    }
    for metric in metrics:
        key = metric["name"]
        before = [_value(p, key) for p, _ in pairs]
        after = [_value(c, key) for _, c in pairs]
        section["metrics"][key] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": _summary(before),
            "change": _summary(after),
            "change_better_pairs": sum(_better(a, b, metric["better"])
                                       for b, a in zip(before, after)),
            "parent_drift": _drift(before),
            "parent_runs": [round(v, 4) for v in before],
            "change_runs": [round(v, 4) for v in after],
        }
    section["blas_threads"] = [sorted({p["machine"]["blas_threads"] for p, _ in pairs}),
                               sorted({c["machine"]["blas_threads"] for _, c in pairs})]
    return section


def traced_pairs(parent: dict, change: dict) -> list[dict]:
    out = []
    for key in sorted(set(parent) & set(change)):
        sides = {}
        for side, record in (("parent", parent[key]), ("change", change[key])):
            sides[side] = {m: round(v["value"], 4)
                           for m, v in record["result"]["metrics"].items()
                           if m.endswith(TRACED_KEYS) and v["value"]}
        out.append({"workload": key[0], "seed": key[1], **sides})
    return out


def claim(workloads: dict, spec: str) -> dict:
    name, _, metric = spec.partition(":")
    m = workloads[name]["metrics"][metric]
    difference = m["parent"]["median"] - m["change"]["median"]
    if m["better"] == "higher":
        difference = -difference
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    pairs = workloads[name]["pairs"]
    wins = m["change_better_pairs"]
    return {"workload": name, "metric": metric, "pairs": pairs, "change_better_pairs": wins,
            "median_difference": round(difference, 4), "parent_iqr": round(iqr, 4),
            "parent_drift": m["parent_drift"],
            "holds": pairs >= 10 and wins >= 0.9 * pairs and difference > iqr}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="parent run records")
    p.add_argument("--change", type=Path, required=True, help="changed tree's run records")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--description", default="")
    p.add_argument("--seeds", help="seeds to keep, as 900-909,950 (default: all)")
    p.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    args = p.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = _parse_seeds(args.seeds)
    parent = load_records(args.parent, 0, seeds)
    change = load_records(args.change, 0, seeds)
    names = [w["name"] for w in declared["workloads"]
             if any(key[0] == w["name"] and key in change for key in parent)]
    if not names:
        print("bench_record: no workload has a pair of --trace 0 records", file=sys.stderr)
        return 1
    workloads = {n: workload_section(n, parent, change, declared["end_to_end"]) for n in names}
    machine = next(iter(change.values()))["machine"]
    commits = {"parent": next(iter(parent.values()))["machine"].get("git_commit"),
               "change": machine.get("git_commit")}
    out = {
        "description": args.description,
        "command": COMMAND,
        "machine": {k: v for k, v in machine.items() if k != "git_commit"},
        "commits": commits,
        "workloads": workloads,
        "traced_pairs": traced_pairs(load_records(args.parent, 1, None),
                                     load_records(args.change, 1, None)),
        "claim": claim(workloads, args.claim) if args.claim else None,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for name, section in workloads.items():
        for metric, m in section["metrics"].items():
            print(f"{name} {metric}: {m['parent']['median']} -> {m['change']['median']} "
                  f"({m['change_better_pairs']}/{section['pairs']} better)")
    if out["claim"] is not None:
        print("claim: " + json.dumps(out["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
