"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They show that the chain workloads run the code `spinchain-run` runs, that
exact P_E agrees with an oracle of the benchmark's own, that the output
checks reject wrong outputs, that the counts a later change may cite repeat
exactly, and that the printed metrics are the ones BENCHMARK.json declares.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from paulient.operators import Bipartition, haar_random_unitary  # noqa: E402
from paulient.spinchain import run_sweep_experiment  # noqa: E402
from tracing import Tracer  # noqa: E402

OFF = Tracer(enabled=False)

PAULI_2X2 = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def oracle_pauli_power(u: np.ndarray, n_a: int, n_b: int) -> float:
    """Mean over all 4^N dense Pauli strings of E_lin(U^dag P U), each from an
    explicit reshape + SVD of the realigned operator."""
    n = n_a + n_b
    da, db = 2**n_a, 2**n_b
    vals = []
    for k in range(4**n):
        p = np.ones((1, 1), dtype=complex)
        for site in range(n):
            p = np.kron(p, PAULI_2X2[(k >> (2 * (n - 1 - site))) & 3])
        o = u.conj().T @ p @ u
        r = o.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
        lam = np.linalg.svd(r / np.sqrt(da * db), compute_uv=False) ** 2
        vals.append(1.0 - float(np.sum(lam**2)))
    return math.fsum(vals) / len(vals)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_chain_round_is_the_sweep_point_step(mode):
    steps, seed = 4, 11
    wl = workloads.ChainWorkload(n_sites=6, mode=mode, steps=steps)
    state = wl.setup(seed, OFF)
    ops = wl.run_round(state, OFF)
    (row,) = run_sweep_experiment("xyz", [state.j_z], 6, mode=mode, seed=seed,
                                  max_steps=steps, n_min=steps + 1)
    assert row.n_steps == steps and not row.converged
    assert row.total_samples == sum(op.strings for op in ops)
    assert abs(math.fsum(op.out[0] for op in ops) / steps - row.mean_pe) <= 1e-12
    assert abs(math.fsum(op.out[1] for op in ops) / steps - row.mean_e) <= 1e-12


def test_exact_pe_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        for n_a in range(1, n):
            bp = Bipartition(n_a, n - n_a)
            u = haar_random_unitary(bp.d, rng)
            est = workloads.exact_pe(u, bp, OFF)
            assert abs(est.value - oracle_pauli_power(u, n_a, n - n_a)) <= 1e-12, (n, n_a)


def test_chain_checks_reject_bad_outputs():
    wl = workloads.ChainWorkload(n_sites=4, mode="exact", steps=3)
    state = wl.setup(2, OFF)
    ops = wl.run_round(state, OFF)
    assert all(wl.check(state, ops))
    ops[0].out = (1.5, ops[0].out[1])
    state.invariance_checked = False
    ops[-1].out = (ops[-1].out[0] + 1e-6, ops[-1].out[1])
    assert wl.check(state, ops) == [False, True, False]


def test_desk_checks_reject_bad_outputs():
    wl = workloads.DeskMix()
    state = wl.setup(4, OFF)
    ops = wl.run_round(state, OFF)
    assert all(wl.check(state, ops))
    for res in ops:
        first = res.out[0]
        if isinstance(first, bool):
            res.out = (not first,) + res.out[1:]
        elif isinstance(first, float):
            res.out = (first + 1e-2,) + res.out[1:]
        else:  # transfer-matrix pair
            first.t_a = first.t_a * 1.01
    assert not any(wl.check(state, ops))


def _traced_counts(wl, seed):
    tracer = Tracer(enabled=True)
    state = wl.setup(seed, tracer)
    wl.run_round(state, tracer)
    calls = tracer.self_times().get("factorization.check", (0.0, 0))[1]
    return dict(tracer.counts, **{"factorization.check.calls": calls})


@pytest.mark.parametrize("name, steps", [
    ("chain-exact-n8", 2), ("chain-sampled-n9", 3), ("desk-mix", None),
])
def test_counts_repeat_exactly(name, steps):
    wl = workloads.WORKLOADS[name]
    if steps is not None:
        wl = dataclasses.replace(wl, steps=steps)
    first = _traced_counts(wl, 3)
    assert _traced_counts(wl, 3) == first
    if name == "chain-exact-n8":
        assert first["entpower.exact.strings"] == steps * 4**8
        assert first["entpower.exact.bytes_computed"] == steps * 136 * 4**8 * 16
    if name == "chain-sampled-n9":
        assert first["entpower.sampled.strings"] >= 32 * steps
    if name == "desk-mix":
        assert first["factorization.check.calls"] == (
            4 * workloads.ROUND_TRIPS_PER_SIZE + 2 * workloads.CONVERSES_PER_SIZE)


def test_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.ChainWorkload(n_sites=4, mode="exact", steps=2)
    e2e, attempted, failed, _ = run.untraced_run(wl, 1, 0.0, 0.1)
    layers, _, _, _ = run.traced_run(wl, 1, tmp_path / "spans.jsonl")
    assert attempted == 2 and failed == 0
    for declared, measured in ((spec["end_to_end"], e2e), (spec["per_layer"], layers)):
        assert {m["name"]: m["unit"] for m in declared} == {
            k: unit for k, (_, unit) in measured.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert all(value > 0 for value, _ in e2e.values())


def test_self_time_excludes_children():
    tracer = Tracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    times = tracer.self_times()
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert times["outer"][0] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start), abs=1e-12)


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
