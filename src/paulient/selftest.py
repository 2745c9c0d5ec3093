"""Self-contained property suite covering every module's core invariants,
runnable from the CLI without pytest.  Each check is small enough that the
whole table finishes in about a minute."""

from __future__ import annotations

import time
from typing import Callable

import numpy as np
import scipy.linalg

from . import entpower, factorization, magic, mpu, operators, paulis, spinchain
from .operators import Bipartition


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def check_pauli_cocycles() -> None:
    rng = _rng(1)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        p = paulis.random_pauli(n, rng)
        q = paulis.random_pauli(n, rng)
        r, c = paulis.pauli_multiply(p, q)
        _, c_rev = paulis.pauli_multiply(q, p)
        assert abs(c_rev - np.conj(c)) < 1e-14, "cocycle antisymmetry"
        dense = paulis.pauli_to_dense(p) @ paulis.pauli_to_dense(q)
        assert np.allclose(dense, c * paulis.pauli_to_dense(r)), "dense multiply"
    for _ in range(20):
        p, q, r = (paulis.random_pauli(2, rng) for _ in range(3))
        ab, c1 = paulis.pauli_multiply(p, q)
        abc1, c2 = paulis.pauli_multiply(ab, r)
        bc, c3 = paulis.pauli_multiply(q, r)
        abc2, c4 = paulis.pauli_multiply(p, bc)
        assert abc1 == abc2 and abs(c1 * c2 - c3 * c4) < 1e-14, "associativity"


def check_pauli_commutation() -> None:
    for i in range(16):
        for j in range(16):
            p = paulis.PauliString.from_index(2, i)
            q = paulis.PauliString.from_index(2, j)
            dp, dq = paulis.pauli_to_dense(p), paulis.pauli_to_dense(q)
            assert paulis.pauli_commutes(p, q) == np.allclose(dp @ dq, dq @ dp)


def check_clifford_conjugation() -> None:
    rng = _rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        c = paulis.random_clifford(n, rng)
        u = paulis.clifford_to_dense(c)
        p = paulis.random_pauli(n, rng)
        img, sgn = c.conjugate(p)
        lhs = u @ paulis.pauli_to_dense(p) @ u.conj().T
        assert np.allclose(lhs, sgn * paulis.pauli_to_dense(img), atol=1e-10)


def check_clifford_tableaux() -> None:
    rng = _rng(3)
    c = paulis.random_clifford(3, rng)
    images = [c.row_pauli(i) for i in range(6)]
    rebuilt = paulis.clifford_from_generator_images(images)
    assert rebuilt == c, "generator-image round trip"
    assert c.is_symplectic()
    c1 = paulis.random_clifford(4, _rng(77))
    c2 = paulis.random_clifford(4, _rng(77))
    assert c1 == c2, "seeded determinism"


def check_operator_spectra() -> None:
    rng = _rng(4)
    bp = Bipartition(1, 2)
    for _ in range(20):
        u = operators.haar_random_unitary(8, rng)
        lam = operators.operator_schmidt_spectrum(u, bp)
        assert abs(lam.sum() - 1.0) < 1e-10, "spectrum normalization"
        loc = operators.random_local_unitary(bp, rng)
        loc2 = operators.random_local_unitary(bp, rng)
        lam2 = operators.operator_schmidt_spectrum(loc @ u @ loc2, bp)
        assert np.allclose(lam, lam2, atol=1e-10), "local-unitary invariance"


def check_entropy_ordering() -> None:
    rng = _rng(5)
    bp = Bipartition(1, 1)
    for _ in range(20):
        u = operators.haar_random_unitary(4, rng)
        e_lin = operators.operator_entanglement(u, bp, "linear")
        e2 = operators.operator_entanglement(u, bp, "renyi", alpha=2.0)
        assert 0.0 <= e_lin <= 1.0 - 1.0 / min(bp.d_a, bp.d_b) ** 2 + 1e-12, "range"
        assert abs(e2 - (-np.log2(1.0 - e_lin))) < 1e-9, "E2 from E_lin"
        for alpha in (0.5, 1.0, 1.5):
            assert operators.operator_entanglement(u, bp, "renyi", alpha=alpha) >= e2 - 1e-9


def check_coherence_identity() -> None:
    rng = _rng(6)
    for _ in range(10):
        u = operators.haar_random_unitary(8, rng)
        m = magic.operator_stabilizer_entropy(u, "linear")
        c2 = magic.operator_coherence_2(u)
        assert abs(m - c2) < 1e-14, "2-coherence identity"
        assert abs(paulis._operator_pauli_probs(u).sum() - 1.0) < 1e-10
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        assert abs(magic._state_pauli_probs(psi).sum() - 1.0) < 1e-10


def check_clifford_covariance() -> None:
    rng = _rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        c = paulis.clifford_to_dense(paulis.random_clifford(n, rng))
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi /= np.linalg.norm(psi)
        m0 = magic.stabilizer_renyi_entropy(psi, 2.0)
        m1 = magic.stabilizer_renyi_entropy(c @ psi, 2.0)
        assert abs(m0 - m1) < 1e-10, "m2 Clifford invariance"
        p = paulis.pauli_to_dense(paulis.random_pauli(n, rng))
        assert magic.operator_stabilizer_entropy(c @ p @ c.conj().T, "linear") < 1e-12


def check_local_rotation_bound() -> None:
    rng = _rng(8)
    bp = Bipartition(1, 1)
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    e_lin = operators.operator_entanglement(cnot, bp, "linear")
    for _ in range(10):
        rot = (operators.random_local_unitary(bp, rng) @ cnot
               @ operators.random_local_unitary(bp, rng))
        assert magic.operator_stabilizer_entropy(rot, "linear") >= e_lin - 1e-9


def check_pauli_power_exact() -> None:
    rng = _rng(9)
    bp = Bipartition(1, 1)
    u = operators.haar_random_unitary(4, rng)
    exact = entpower.pauli_entangling_power(u, bp).value
    assert abs(exact - entpower.pauli_power_via_q(u, bp)) < 1e-10, "Q-formula"
    vals = []
    for k in range(16):
        p = paulis.pauli_to_dense(paulis.PauliString.from_index(2, k))
        vals.append(operators.operator_entanglement(u.conj().T @ p @ u, bp, "linear"))
    assert abs(exact - np.mean(vals)) < 1e-12, "per-Pauli mean"
    c = paulis.clifford_to_dense(paulis.random_clifford(2, rng))
    assert entpower.pauli_entangling_power(c, bp).value < 1e-12, "Clifford zero"
    assert 0.0 <= exact < 1.0


def check_eq7_invariance() -> None:
    rng = _rng(10)
    bp = Bipartition(1, 1)
    u = operators.haar_random_unitary(4, rng)
    ref = entpower.pauli_entangling_power(u, bp).value
    for _ in range(5):
        c = paulis.clifford_to_dense(paulis.random_clifford(2, rng))
        loc = operators.random_local_unitary(bp, rng)
        val = entpower.pauli_entangling_power(c @ u @ loc, bp).value
        assert abs(val - ref) < 1e-10


def check_subsystem_bound() -> None:
    rng = _rng(11)
    bp = Bipartition(1, 2)
    for _ in range(10):
        u = operators.haar_random_unitary(8, rng)
        pe = entpower.pauli_entangling_power(u, bp).value
        ba, bb = entpower.local_pauli_magic_bound(u, bp)
        assert min(ba, bb) >= pe - 1e-10
    xx = np.kron(paulis.SINGLE_QUBIT_PAULIS["X"], paulis.SINGLE_QUBIT_PAULIS["X"])
    u = scipy.linalg.expm(-1j * np.pi / 8 * xx)
    ba, bb = entpower.local_pauli_magic_bound(u, Bipartition(1, 1))
    assert abs(ba - 0.25) < 1e-10 and abs(bb - 0.25) < 1e-10


def check_typical_values() -> None:
    assert abs(entpower.haar_typical_value(4, 2) - 27.0 / 56.0) < 1e-15
    assert abs(entpower.haar_typical_value(16, 4) - 885600.0 / 1011712.0) < 1e-15
    rng = _rng(12)
    bp = Bipartition(1, 1)
    vals = [entpower.pauli_entangling_power(operators.haar_random_unitary(4, rng), bp).value
            for _ in range(80)]
    sem = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - 27.0 / 56.0) < 4 * sem, "Haar Monte Carlo"


def check_q_projector() -> None:
    for n in (1, 2):
        q = entpower.q_projector_build(n)
        d = 2**n
        assert np.linalg.norm(q @ q - q) < 1e-12, "idempotent"
        assert abs(np.trace(q).real - d * d) < 1e-10, "rank"
        basis = entpower.q_projector_basis(n)
        gram = basis.conj() @ basis.T
        assert np.allclose(gram, np.eye(d * d), atol=1e-12), "orthonormal"
        assert np.allclose(q @ basis.T, basis.T, atol=1e-12), "Q-fixed"
    traces = entpower.q_permutation_traces(2)
    d = 4.0
    expected = {"e": d * d, "(ab)": d, "(ab)(cd)": d * d, "(abc)": 1.0, "(abcd)": d}
    for key, val in expected.items():
        assert abs(traces[key] - val) < 1e-10, f"trace {key}"


def check_factorizer() -> None:
    rng = _rng(13)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        na = int(rng.integers(1, n))
        bp = Bipartition(na, n - na)
        u, _, _, _ = factorization.make_product_preserving(bp, rng)
        ok, _ = factorization.check_pauli_product_preserving(u, bp)
        assert ok, "constructed instance must pass"
        fac = factorization.factorize(u, bp)
        assert factorization.verify_factorization(u, fac) <= 1e-8
    for _ in range(2):
        u = operators.haar_random_unitary(8, rng)
        ok, witness = factorization.check_pauli_product_preserving(u, Bipartition(1, 2))
        assert not ok and witness is not None


def check_mpu_agreement() -> None:
    t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
    tensors = [mpu.mpu_single_gate(t_gate), mpu.mpu_cz_chain(), mpu.mpu_zz_chain(np.pi / 8)]
    for tensor in tensors:
        dense = mpu.mpu_to_dense(tensor, 4)
        bp = Bipartition(2, 2)
        exact = entpower.pauli_entangling_power(dense, bp).value
        tm = mpu.pauli_power_mpu(tensor, 2, 2)
        assert abs(exact - tm) < 1e-8
    for n in (1, 2):
        assert np.allclose(mpu.lambda_closure(n), 4**n * entpower.q_projector_build(n),
                           atol=1e-12)


def check_spin_chain() -> None:
    model = spinchain.XYZModel(n_sites=4, j_z=0.37)
    ham = spinchain.build_hamiltonian(model)
    prop = spinchain.HamiltonianPropagator(ham)
    u = prop.unitary_at(0.9)
    assert np.linalg.norm(u.conj().T @ ham @ u - ham) < 1e-9, "energy conservation"
    assert np.linalg.norm(prop.unitary_at(0.0) - np.eye(16)) < 1e-12
    bp = Bipartition(2, 2)
    assert entpower.pauli_entangling_power(prop.unitary_at(0.0), bp).value == 0.0
    for k in range(4):
        ut = prop.unitary_at(0.2 * k)
        pe = entpower.pauli_entangling_power(ut, bp).value
        el = operators.operator_entanglement(ut, bp, "linear")
        assert 0.0 <= pe < 1.0 and 0.0 <= el < 1.0
    mean, ts = spinchain.long_time_average(iter([1.5] * 100))
    assert mean == 1.5 and ts.n_steps == 25 and ts.converged


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("pauli: multiplication cocycles and associativity", check_pauli_cocycles),
    ("pauli: commutation vs dense commutator", check_pauli_commutation),
    ("clifford: tableau conjugation vs dense lift", check_clifford_conjugation),
    ("clifford: tableau round trip and determinism", check_clifford_tableaux),
    ("operators: Schmidt spectra and local invariance", check_operator_spectra),
    ("operators: entropy ordering and ranges", check_entropy_ordering),
    ("magic: 2-coherence identity and normalization", check_coherence_identity),
    ("magic: Clifford covariance", check_clifford_covariance),
    ("magic: local rotations respect the entanglement bound", check_local_rotation_bound),
    ("power: exact mean, Q-formula, Clifford zeros", check_pauli_power_exact),
    ("power: Clifford/local invariance", check_eq7_invariance),
    ("power: subsystem magic bound", check_subsystem_bound),
    ("power: Haar typical values", check_typical_values),
    ("power: Q projector suite", check_q_projector),
    ("factorizer: round trips and Haar negatives", check_factorizer),
    ("mpu: transfer matrices vs dense", check_mpu_agreement),
    ("spinchain: dynamics and stopping rule", check_spin_chain),
]


def run_selftest(verbose: bool = True) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    width = max(len(name) for name, _ in CHECKS)
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            fn()
            status = "PASS"
        except Exception as exc:  # noqa: BLE001 - report, do not crash the table
            status = f"FAIL ({exc})"
            failures += 1
        elapsed = time.perf_counter() - start
        if verbose:
            print(f"{name:<{width}}  {status}  [{elapsed:.2f}s]")
    return failures
