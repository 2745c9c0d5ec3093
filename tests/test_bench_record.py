"""scripts/bench_record.py: pairs by workload and seed, medians, quartiles,
wins and the claim rule, from perfbench run records."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

METRICS = {"setup_s": "s", "wall_s": "s", "strings_per_s": "1/s", "peak_rss_mib": "MiB"}


def _write(directory, seed, wall, trace=0, machine_threads=2):
    directory.mkdir(exist_ok=True)
    metrics = {m: {"value": wall if m == "wall_s" else 1.0, "unit": u} for m, u in METRICS.items()}
    if trace:
        metrics = {"entpower.sampled.s": {"value": wall, "unit": "s"},
                   "entpower.sampled.strings": {"value": 990, "unit": "count"},
                   "trace.overhead_s": {"value": 0.1, "unit": "s"}}
    record = {"workload": "chain-sampled-n9", "seed": seed, "trace": trace,
              "machine": {"nproc": 2, "blas_threads": machine_threads, "git_commit": None},
              "result": {"attempted": 30, "failed": 0, "metrics": metrics}}
    path = directory / f"chain-sampled-n9-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))


def test_pairs_medians_wins_and_claim(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, seed in enumerate(range(900, 910)):
        _write(parent, seed, 12.0 + 0.1 * i)
        _write(change, seed, 9.0 + 0.1 * i if seed != 909 else 20.0)
    _write(parent, 950, 12.0)  # no partner: not a pair
    _write(parent, 960, 11.0, trace=1)
    _write(change, 960, 8.0, trace=1)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change),
                              "--out", str(out), "--claim", "chain-sampled-n9:wall_s"]) == 0
    bench = json.loads(out.read_text())
    section = bench["workloads"]["chain-sampled-n9"]
    assert section["pairs"] == 10 and section["seeds"] == list(range(900, 910))
    assert section["attempted"] == [300, 300] and section["failed"] == [0, 0]
    wall = section["metrics"]["wall_s"]
    assert wall["parent"] == {"q1": 12.225, "median": 12.45, "q3": 12.675}
    assert wall["change"]["median"] == 9.45 and wall["change_better_pairs"] == 9
    assert bench["claim"]["holds"] and bench["claim"]["change_better_pairs"] == 9
    assert bench["traced_pairs"] == [{
        "workload": "chain-sampled-n9", "seed": 960,
        "parent": {"entpower.sampled.s": 11.0, "entpower.sampled.strings": 990},
        "change": {"entpower.sampled.s": 8.0, "entpower.sampled.strings": 990}}]
    assert "git_commit" not in bench["machine"]


def test_seed_filter_and_failed_claim(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(900, 912):
        _write(parent, seed, 10.0)
        _write(change, seed, 9.9)
    out = tmp_path / "BENCH.json"
    bench_record.main(["--parent", str(parent), "--change", str(change), "--out", str(out),
                       "--seeds", "900-904,911", "--claim", "chain-sampled-n9:wall_s"])
    bench = json.loads(out.read_text())
    assert bench["workloads"]["chain-sampled-n9"]["seeds"] == [900, 901, 902, 903, 904, 911]
    assert not bench["claim"]["holds"]  # six pairs are too few
