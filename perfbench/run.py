"""paulient benchmark: one workload per call, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload chain-exact-n8 --seed 3 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2.  Workloads are defined in ``workloads.py`` and
described in ``BASELINE.md``.

``--trace 0`` reports the end-to-end metrics.  Set-up is repeated
``SETUP_REPEATS`` times and its median (plus the one-time import cost) is
``setup_s``; then the fixed work of the workload (one round) is repeated while
another round still fits in ``--seconds``, and ``wall_s`` is the median round.

``--trace 1`` runs one untraced and one traced set-up and round, and reports
per-layer self times and counts from the traced one, plus the tracing overhead
(traced minus untraced round time).  Spans are written as JSON lines under
``perfbench/results/``.

Outputs are checked outside the timed regions.  Every run also writes a
result record with the machine description under ``perfbench/results/``.  The
last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 3

# Layers measured by spans around public calls; each reports .s and .calls.
LAYERS = (
    "spinchain.build_hamiltonian",
    "spinchain.propagator",
    "spinchain.unitary_at",
    "entpower.exact",
    "entpower.sampled",
    "entpower.bound",
    "operators.elin",
    "operators.haar",
    "factorization.make",
    "factorization.check",
    "factorization.factorize",
    "factorization.verify",
    "mpu.transfer",
    "mpu.finite",
    "mpu.thermodynamic",
    "magic.local_min",
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("chain-exact-n8", "chain-sampled-n9", "desk-mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "paulient" / "__init__.py").is_file():
        _fail(f"no package source at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import paulient
    import workloads

    if Path(paulient.__file__).resolve().parent != (src / "paulient").resolve():
        _fail(f"imported paulient from {paulient.__file__}, not from {src}")
    return workloads


def _fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import importlib.util

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _timed_setup(workload, seed, tracer):
    start = perf_counter()
    with tracer.span("setup"):
        state = workload.setup(seed, tracer)
    return state, perf_counter() - start


def _timed_round(workload, state, tracer):
    start = perf_counter()
    with tracer.span("round"):
        ops = workload.run_round(state, tracer)
    return ops, perf_counter() - start


def untraced_run(workload, seed, seconds, import_s):
    off = Tracer(enabled=False)
    setups = []
    for _ in range(SETUP_REPEATS):
        state, elapsed = _timed_setup(workload, seed, off)
        setups.append(elapsed)
    walls, op_times, strings, failed = [], [], 0, 0
    started = perf_counter()
    while True:
        ops, wall = _timed_round(workload, state, off)
        walls.append(wall)
        op_times += [op.seconds for op in ops]
        strings += sum(op.strings for op in ops)
        failed += sum(not ok for ok in workload.check(state, ops))
        del ops  # outputs of one round are not kept across rounds
        if perf_counter() + wall > started + seconds:
            break
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        # every round does the same work, so rate = per-round strings / median round
        "strings_per_s": (strings / len(walls) / statistics.median(walls), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    # Operation percentiles are recorded, not reported (see BASELINE.md): on
    # desk-mix the median sits between op sizes whose times swap places as the
    # machine's speed shifts, and on the chains p90 rests on 2-3 step times.
    detail = {"import_s": import_s, "setup_runs_s": setups, "round_walls_s": walls,
              "n_ops": len(op_times), "op_p50_ms": statistics.median(op_times) * 1e3,
              "op_p90_ms": statistics.quantiles(op_times, n=10, method="inclusive")[-1] * 1e3}
    return metrics, len(op_times), failed, detail


def traced_run(workload, seed, spans_path):
    off = Tracer(enabled=False)
    state, _ = _timed_setup(workload, seed, off)
    plain_ops, plain_wall = _timed_round(workload, state, off)
    tracer = Tracer(enabled=True)
    state, _ = _timed_setup(workload, seed, tracer)
    traced_ops, traced_wall = _timed_round(workload, state, tracer)
    failed = sum(not ok for ok in workload.check(state, plain_ops))
    failed += sum(not ok for ok in workload.check(state, traced_ops))
    tracer.write_jsonl(spans_path)

    times = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        s, calls = times.get(layer, (0.0, 0))
        metrics[layer + ".s"] = (s, "s")
        metrics[layer + ".calls"] = (calls, "count")

    def ratio(num, den):
        return counts.get(num, 0) / den if den else 0.0

    metrics["entpower.exact.strings"] = (counts.get("entpower.exact.strings", 0), "count")
    metrics["entpower.exact.bytes_computed"] = (
        counts.get("entpower.exact.bytes_computed", 0), "B")
    metrics["entpower.sampled.strings"] = (counts.get("entpower.sampled.strings", 0), "count")
    metrics["entpower.sampled.stop_ratio"] = (
        ratio("entpower.sampled.stopped", metrics["entpower.sampled.calls"][0]), "ratio")
    metrics["factorization.check.pass_ratio"] = (
        ratio("factorization.check.passed", metrics["factorization.check.calls"][0]), "ratio")
    metrics["bench.glue.s"] = (
        sum(s for name, (s, _) in times.items() if name not in LAYERS), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    detail = {"untraced_round_s": plain_wall, "traced_round_s": traced_wall}
    return metrics, len(plain_ops) + len(traced_ops), failed, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = perf_counter()
    wl_module = _import_package()
    import_s = perf_counter() - started
    workload = wl_module.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, attempted, failed, detail = traced_run(
            workload, args.seed, RESULTS / f"{stem}-spans.jsonl")
    else:
        metrics, attempted, failed, detail = untraced_run(
            workload, args.seed, args.seconds, import_s)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "error_rate": failed / attempted,
              "machine": machine_record(), "detail": detail, "result": result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed}/{attempted}")
    print("machine: " + json.dumps(record["machine"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
