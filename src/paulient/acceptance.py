"""The paper's acceptance criteria 1-9 and 11, run by tests/test_acceptance.py
(which pins every label and bound to a literal) and by `paulient selftest`.
Each returns its checks (label, measured, bound) and asserts nothing; a check
passes when measured <= bound, so NaN fails.  A yes/no condition is a count of
failing instances with bound 0, its label naming any threshold inside it.
Criterion 10, the 8-site spin-chain sweep (about a minute), is pytest-only.
"""

import time

import numpy as np

from .entpower import (haar_typical_value, local_pauli_magic_bound, pauli_entangling_power,
                       pauli_power_via_q, q_permutation_traces, q_projector_basis,
                       q_projector_build)
from .factorization import (check_pauli_product_preserving, factorize, make_product_preserving,
                            verify_factorization)
from .magic import (SearchConfig, local_min_operator_magic, nonlocal_stabilizer_entropy,
                    operator_coherence_2, operator_stabilizer_entropy, stabilizer_renyi_entropy)
from .mpu import (lambda_closure, mpu_cz_chain, mpu_shift, mpu_single_gate, mpu_to_dense,
                  mpu_zz_chain, pauli_power_mpu)
from .operators import Bipartition, haar_random_unitary, random_local_unitary
from .paulis import SINGLE_QUBIT_PAULIS, clifford_to_dense, random_clifford

Check = tuple[str, float, float]

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])
X = SINGLE_QUBIT_PAULIS["X"]
# exp(-i pi/8 X(x)X) in closed form: P_E and both bounds are 1/4
U_XX = np.cos(np.pi / 8) * np.eye(4) - 1j * np.sin(np.pi / 8) * np.kron(X, X)


def criterion_1() -> list[Check]:
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    rejected, residual, pe = 0, 0.0, 0.0
    for trial in range(100):
        n = 2 + trial % 4  # N in {2..5}
        na = 1 + int(rng.integers(0, max(1, n // 2)))  # N_A in {1..floor(N/2)}
        bp = Bipartition(na, n - na)
        u, _, _, _ = make_product_preserving(bp, rng)
        rejected += not check_pauli_product_preserving(u, bp)[0]
        residual = max(residual, verify_factorization(u, factorize(u, bp)))
        pe = max(pe, pauli_entangling_power(u, bp).value)
    return [("instances the check rejects", rejected, 0),
            ("worst factorization residual", residual, 1e-8), ("worst P_E", pe, 1e-12),
            ("wall time s", time.perf_counter() - started, 120.0)]


def criterion_2() -> list[Check]:
    rng = np.random.default_rng(102)
    accepted = unwitnessed = small = 0
    for trial in range(100):
        n = 2 + trial % 3  # N in {2..4}
        na = 1 + trial % (n - 1) if n > 2 else 1
        bp = Bipartition(na, n - na)
        u = haar_random_unitary(bp.d, rng)
        ok, witness = check_pauli_product_preserving(u, bp)
        accepted += ok
        unwitnessed += witness is None
        small += pauli_entangling_power(u, bp).value <= 1e-6
    return [("Haar instances the check accepts", accepted, 0),
            ("rejections without a witness", unwitnessed, 0),
            ("instances with P_E <= 1e-6", small, 0)]


def criterion_3() -> list[Check]:
    rng = np.random.default_rng(103)
    bp = Bipartition(1, 1)
    worst = 0.0
    for _ in range(20):
        u = haar_random_unitary(4, rng)
        worst = max(worst, abs(pauli_entangling_power(u, bp).value - pauli_power_via_q(u, bp)))
    closed = abs(pauli_entangling_power(U_XX, bp).value - 0.25)
    return [("max |exact - Q-form|", worst, 1e-10), ("|P_E(U_xx) - 1/4|", closed, 1e-10)]


def criterion_4() -> list[Check]:
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    checks = []
    for d, da, n_samples in ((16, 4, 200), (4, 2, 200)):
        na = int(np.log2(da))
        bp = Bipartition(na, int(np.log2(d)) - na)
        vals = np.array([pauli_entangling_power(haar_random_unitary(d, rng), bp).value
                         for _ in range(n_samples)])
        sem = vals.std(ddof=1) / np.sqrt(n_samples)
        checks.append((f"d={d}, d_A={da}: |mean - closed form| / sem",
                       abs(vals.mean() - haar_typical_value(d, da)) / sem, 3.0))
    elapsed = time.perf_counter() - started
    return checks + [("|closed form(16, 4) - 885600/1011712|",
                      abs(haar_typical_value(16, 4) - 885600.0 / 1011712.0), 1e-14),
                     ("wall time s", elapsed, 300.0)]


def criterion_5() -> list[Check]:
    rng = np.random.default_rng(105)
    excess = -np.inf
    for trial in range(50):
        n = 3 + trial % 2  # N in {3, 4}
        na = 1 + trial % (n - 1)
        bp = Bipartition(na, n - na)
        u = haar_random_unitary(bp.d, rng)
        pe = pauli_entangling_power(u, bp).value
        excess = max(excess, pe - min(local_pauli_magic_bound(u, bp)))
    ba, bb = local_pauli_magic_bound(U_XX, Bipartition(1, 1))
    pe = pauli_entangling_power(U_XX, Bipartition(1, 1)).value
    return [("max P_E - min(bound_A, bound_B)", excess, 1e-10),
            ("U_xx: max |bound_A, bound_B, P_E - 1/4|",
             max(abs(ba - 0.25), abs(bb - 0.25), abs(pe - 0.25)), 1e-10)]


def criterion_6() -> list[Check]:
    rng = np.random.default_rng(106)
    bp = Bipartition(1, 2)
    u = haar_random_unitary(8, rng)
    ref = pauli_entangling_power(u, bp).value
    worst = 0.0
    for _ in range(20):
        c, loc = clifford_to_dense(random_clifford(3, rng)), random_local_unitary(bp, rng)
        worst = max(worst, abs(pauli_entangling_power(c @ u @ loc, bp).value - ref))
    return [("max |P_E(C U V) - P_E(U)|", worst, 1e-10)]


def criterion_7() -> list[Check]:
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        u = haar_random_unitary(int(2 ** rng.integers(1, 4)), rng)
        worst = max(worst, abs(operator_coherence_2(u) - operator_stabilizer_entropy(u, "linear")))
    bp = Bipartition(1, 1)
    cnot_val, _ = local_min_operator_magic(CNOT, bp, SearchConfig(restarts=8, seed=7))
    swap_val, _ = local_min_operator_magic(SWAP, bp, SearchConfig(restarts=8, seed=7))
    return [("max |C_2 - M_lin|", worst, 1e-14),
            ("|min magic(CNOT) - 1/2|", abs(cnot_val - 0.5), 1e-3),
            ("|min magic(SWAP) - 3/4|", abs(swap_val - 0.75), 1e-3)]


def criterion_8() -> list[Check]:
    idem = rank = trace_dev = 0.0
    not_orthonormal = not_fixed = 0
    for n in (1, 2):
        d = float(2**n)
        q = q_projector_build(n)
        idem = max(idem, np.linalg.norm(q @ q - q))
        rank = max(rank, abs(np.trace(q).real - d * d))
        basis = q_projector_basis(n)
        not_orthonormal += not np.allclose(basis.conj() @ basis.T, np.eye(int(d * d)), atol=1e-12)
        not_fixed += not np.allclose(q @ basis.T, basis.T, atol=1e-12)
        traces = q_permutation_traces(n)
        expected = {"e": d * d, "(ab)": d, "(ab)(cd)": d * d, "(abc)": 1.0, "(abcd)": d}
        trace_dev = max(trace_dev, *(abs(traces[key] - val) for key, val in expected.items()))
    return [("max ||Q^2 - Q||_F", idem, 1e-12), ("max |Tr Q - d^2|", rank, 1e-10),
            ("N whose basis is not orthonormal (np.allclose, atol 1e-12)", not_orthonormal, 0),
            ("N whose basis is not Q-fixed (np.allclose, atol 1e-12)", not_fixed, 0),
            ("max |Tr(Q T_sigma) - expected|", trace_dev, 1e-10)]


def criterion_9() -> list[Check]:
    worst = 0.0
    for tensor in (mpu_single_gate(T_GATE), mpu_cz_chain(), mpu_shift(), mpu_zz_chain(np.pi / 8)):
        for n in (4, 5, 6):
            bp = Bipartition(n // 2, n - n // 2)
            worst = max(worst, abs(pauli_entangling_power(mpu_to_dense(tensor, n), bp).value
                                   - pauli_power_mpu(tensor, n // 2, n - n // 2)))
    off = sum(not np.allclose(lambda_closure(n), (4.0**n) * q_projector_build(n), atol=1e-12)
              for n in (1, 2))
    return [("max |finite - dense|", worst, 1e-8),
            ("N where Lambda != 4^N Q (np.allclose, atol 1e-12)", off, 0)]


def criterion_11() -> list[Check]:
    rng = np.random.default_rng(111)
    t_state = T_GATE @ np.array([1.0, 1.0]) / np.sqrt(2)
    t_dev = abs(stabilizer_renyi_entropy(t_state, 2.0) - np.log2(4.0 / 3.0))
    stab_worst = nl_worst = 0.0
    for _ in range(50):
        s = clifford_to_dense(random_clifford(int(rng.integers(1, 5)), rng))[:, 0]
        stab_worst = max(stab_worst, abs(stabilizer_renyi_entropy(s, 2.0)))
    bp = Bipartition(1, 2)
    for _ in range(3):  # a stabilizer state under a Clifford and local rotations
        s = clifford_to_dense(random_clifford(3, rng))[:, 0]
        v, w = haar_random_unitary(bp.d_a, rng), haar_random_unitary(bp.d_b, rng)
        psi = np.kron(v, w) @ clifford_to_dense(random_clifford(3, rng)) @ s
        config = SearchConfig(restarts=3, seed=11, unitary_seeds=((v.conj().T, w.conj().T),))
        nl_worst = max(nl_worst, nonlocal_stabilizer_entropy(psi, bp, 2.0, config)[0])
    return [("|m2(T state) - log2(4/3)|", t_dev, 1e-10),
            ("max |m2| over stabilizer states", stab_worst, 1e-10),
            ("max seeded nonlocal m2", nl_worst, 1e-6)]


CRITERIA = {  # number: (label, criterion)
    1: ("factorization round trip", criterion_1),
    2: ("Haar converse", criterion_2),
    3: ("projector-form consistency", criterion_3),
    4: ("Haar typical value Monte Carlo", criterion_4),
    5: ("subsystem magic bound", criterion_5),
    6: ("Clifford/local invariance", criterion_6),
    7: ("2-coherence identity and operator-entanglement recovery", criterion_7),
    8: ("Q projector suite", criterion_8),
    9: ("MPU transfer-matrix agreement", criterion_9),
    11: ("magic spot values", criterion_11),
}


def failures(checks: list[Check]) -> list[str]:
    """The checks that do not pass, as 'label: measured > bound'."""
    return [f"{label}: {measured:.3g} > {bound:g}"
            for label, measured, bound in checks if not measured <= bound]
