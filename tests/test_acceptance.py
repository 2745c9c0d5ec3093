"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-9 and 11 are measured by paulient.acceptance, which `paulient
selftest` runs too.  Each test here pins the labels and bounds of its
criterion's checks to literals, so no bound changes in one place only.
Criterion 10 runs only here.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines and timings.
"""

import time

import numpy as np
import scipy.linalg

from paulient.acceptance import CRITERIA, U_XX, X, failures


def report(num: int, label: str, ok: bool, started: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {num} ({label}): {status} "
          f"[{time.perf_counter() - started:.1f}s]{extra}")


def run(num: int, bounds: list[tuple[str, float]]) -> None:
    """Criterion num: its checks carry exactly these labels and bounds, and pass."""
    label, criterion = CRITERIA[num]
    started = time.perf_counter()
    checks = criterion()
    failed = failures(checks)
    report(num, label, not failed, started,
           "; ".join(failed or [f"{name} = {measured:.3g}" for name, measured, _ in checks]))
    assert [(name, bound) for name, _, bound in checks] == bounds
    assert not failed, failed


def test_u_xx_closed_form_is_the_exponential():
    want = scipy.linalg.expm(-1j * np.pi / 8 * np.kron(X, X))
    assert np.abs(U_XX - want).max() <= 1e-15


def test_criterion_1_factorization_round_trip():
    run(1, [("instances the check rejects", 0), ("worst factorization residual", 1e-8),
            ("worst P_E", 1e-12), ("wall time s", 120.0)])


def test_criterion_2_converse_at_desk_scale():
    run(2, [("Haar instances the check accepts", 0), ("rejections without a witness", 0),
            ("instances with P_E <= 1e-6", 0)])


def test_criterion_3_projector_consistency():
    run(3, [("max |exact - Q-form|", 1e-10), ("|P_E(U_xx) - 1/4|", 1e-10)])


def test_criterion_4_haar_monte_carlo():
    run(4, [("d=16, d_A=4: |mean - closed form| / sem", 3.0),
            ("d=4, d_A=2: |mean - closed form| / sem", 3.0),
            ("|closed form(16, 4) - 885600/1011712|", 1e-14), ("wall time s", 300.0)])


def test_criterion_5_subsystem_bound():
    run(5, [("max P_E - min(bound_A, bound_B)", 1e-10),
            ("U_xx: max |bound_A, bound_B, P_E - 1/4|", 1e-10)])


def test_criterion_6_invariance():
    run(6, [("max |P_E(C U V) - P_E(U)|", 1e-10)])


def test_criterion_7_coherence_and_recovery():
    run(7, [("max |C_2 - M_lin|", 1e-14), ("|min magic(CNOT) - 1/2|", 1e-3),
            ("|min magic(SWAP) - 3/4|", 1e-3)])


def test_criterion_8_q_projector_suite():
    run(8, [("max ||Q^2 - Q||_F", 1e-12), ("max |Tr Q - d^2|", 1e-10),
            ("N whose basis is not orthonormal (np.allclose, atol 1e-12)", 0),
            ("N whose basis is not Q-fixed (np.allclose, atol 1e-12)", 0),
            ("max |Tr(Q T_sigma) - expected|", 1e-10)])


def test_criterion_9_mpu_agreement():
    run(9, [("max |finite - dense|", 1e-8),
            ("N where Lambda != 4^N Q (np.allclose, atol 1e-12)", 0)])


def test_criterion_10_spin_chain_reproduction():
    from paulient.spinchain import run_sweep_experiment

    started = time.perf_counter()
    xyz = run_sweep_experiment("xyz", [0.0, 1.0], 8, mode="exact", seed=42)
    tfim = run_sweep_experiment("tfim", [0.0, 0.5], 8, mode="exact", seed=42)
    elapsed = time.perf_counter() - started
    ok = (
        all(r.converged for r in xyz + tfim)
        and xyz[1].mean_pe > xyz[0].mean_pe
        and xyz[1].mean_e > xyz[0].mean_e
        and tfim[1].mean_pe > tfim[0].mean_pe
        and tfim[1].mean_e > tfim[0].mean_e
        and elapsed <= 1800.0
    )
    report(
        10, "spin-chain long-time ordering", ok, started,
        f"XYZ PE {xyz[0].mean_pe:.4f}->{xyz[1].mean_pe:.4f}, "
        f"E {xyz[0].mean_e:.4f}->{xyz[1].mean_e:.4f}; "
        f"TFIM PE {tfim[0].mean_pe:.4f}->{tfim[1].mean_pe:.4f}, "
        f"E {tfim[0].mean_e:.4f}->{tfim[1].mean_e:.4f}; wall {elapsed:.0f}s",
    )
    assert ok


def test_criterion_11_magic_spot_values():
    run(11, [("|m2(T state) - log2(4/3)|", 1e-10), ("max |m2| over stabilizer states", 1e-10),
             ("max seeded nonlocal m2", 1e-6)])
