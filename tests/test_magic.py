import numpy as np
import pytest

from paulient.errors import NotUnitary
from paulient.magic import (
    SearchConfig,
    _on_charts,
    _operator_magic_objective,
    _state_magic_objective,
    local_min_operator_magic,
    nonlocal_stabilizer_entropy,
    operator_coherence_2,
    operator_stabilizer_entropy,
    stabilizer_renyi_entropy,
    unitary_from_params,
    params_from_unitary,
)
from paulient.operators import (
    Bipartition,
    haar_random_unitary,
    operator_entanglement,
    random_local_unitary,
)
from paulient.paulis import clifford_to_dense, pauli_to_dense, random_clifford, random_pauli

from conftest import CNOT, SWAP, T_GATE, dense_pauli

import scipy.linalg


BP11 = Bipartition(1, 1)


def t_state():
    return T_GATE @ np.array([1.0, 1.0]) / np.sqrt(2)


class TestStabilizerRenyi:
    def test_computational_zero(self):
        psi = np.zeros(8)
        psi[0] = 1.0
        assert abs(stabilizer_renyi_entropy(psi, 2.0)) < 1e-12

    def test_t_state_value(self):
        # <X> = <Y> = 1/sqrt(2), <Z> = 0 -> m2 = log2(4/3)
        assert abs(stabilizer_renyi_entropy(t_state(), 2.0) - np.log2(4.0 / 3.0)) < 1e-10

    def test_clifford_invariance_on_stabilizer_states(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            c = clifford_to_dense(random_clifford(n, rng))
            s = c[:, 0]  # C|0..0>
            assert abs(stabilizer_renyi_entropy(s, 2.0)) < 1e-10

    def test_clifford_covariance_generic_states(self, rng):
        for alpha in (1.0, 2.0):
            for _ in range(10):
                n = int(rng.integers(1, 4))
                psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
                psi /= np.linalg.norm(psi)
                c = clifford_to_dense(random_clifford(n, rng))
                assert abs(
                    stabilizer_renyi_entropy(psi, alpha)
                    - stabilizer_renyi_entropy(c @ psi, alpha)
                ) < 1e-10

    def test_alpha_one_limit(self, rng):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        assert abs(
            stabilizer_renyi_entropy(psi, 1.0)
            - stabilizer_renyi_entropy(psi, 1.0 + 1e-7)
        ) < 1e-5

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            stabilizer_renyi_entropy(np.array([1.0, 1.0]))


class TestOperatorStabilizerEntropy:
    def test_pauli_strings_are_free(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = pauli_to_dense(random_pauli(n, rng))
            assert operator_stabilizer_entropy(p, "linear") < 1e-14

    def test_t_gate_quarter(self):
        # coefficients (2 +- sqrt 2)/4 on I and Z: M_lin = 1 - 3/4
        probs = [(2 + np.sqrt(2)) / 4, (2 - np.sqrt(2)) / 4]
        expected = 1.0 - sum(p**2 for p in probs)
        assert abs(expected - 0.25) < 1e-15
        assert abs(operator_stabilizer_entropy(T_GATE, "linear") - 0.25) < 1e-14

    def test_cnot_value(self):
        assert abs(operator_stabilizer_entropy(CNOT, "linear") - 0.75) < 1e-14

    def test_clifford_conjugated_paulis_stay_free(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 4))
            c = clifford_to_dense(random_clifford(n, rng))
            for k in range(4**n):
                p = pauli_to_dense(random_pauli(n, rng))
                assert operator_stabilizer_entropy(c @ p @ c.conj().T, "linear") < 1e-10
                break  # one string per Clifford is enough here; N=3 sweep below
        c = clifford_to_dense(random_clifford(3, rng))
        from paulient.paulis import PauliString
        for k in range(64):
            p = pauli_to_dense(PauliString.from_index(3, k))
            assert operator_stabilizer_entropy(c @ p @ c.conj().T, "linear") < 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitary):
            operator_stabilizer_entropy(np.diag([1.0, 0.0]), "linear")

    def test_alpha_family(self, rng):
        u = haar_random_unitary(4, rng)
        m2 = operator_stabilizer_entropy(u, 2.0)
        m_lin = operator_stabilizer_entropy(u, "linear")
        assert abs(m2 + np.log2(1.0 - m_lin)) < 1e-12


class TestCoherenceIdentity:
    def test_identity_and_cnot(self):
        assert operator_coherence_2(np.eye(4)) < 1e-14
        assert abs(operator_coherence_2(CNOT) - 0.75) < 1e-14

    def test_fifty_random_unitaries(self, rng):
        for _ in range(50):
            dim = int(2 ** rng.integers(1, 4))
            u = haar_random_unitary(dim, rng)
            assert abs(operator_coherence_2(u)
                       - operator_stabilizer_entropy(u, "linear")) < 1e-14


class TestNonlocalStabilizerEntropy:
    def test_stabilizer_state_is_free(self, rng):
        c = clifford_to_dense(random_clifford(2, rng))
        val, report = nonlocal_stabilizer_entropy(
            c[:, 0], BP11, 2.0, SearchConfig(restarts=3, seed=0))
        assert val <= 1e-6
        assert report.best_value <= stabilizer_renyi_entropy(c[:, 0], 2.0) + 1e-12

    def test_product_magic_is_locally_erasable(self):
        psi = np.kron(t_state(), t_state())
        val, _ = nonlocal_stabilizer_entropy(psi, BP11, 2.0,
                                             SearchConfig(restarts=6, seed=1))
        assert val <= 1e-4

    def test_witness_seeded_erasure(self, rng):
        # U = (V x W) C on a stabilizer input has zero nonlocal magic; the
        # search seeded with (V^dag, W^dag) must certify it
        for _ in range(3):
            n = 3
            bp = Bipartition(1, 2)
            s = clifford_to_dense(random_clifford(n, rng))[:, 0]
            v = haar_random_unitary(bp.d_a, rng)
            w = haar_random_unitary(bp.d_b, rng)
            c = clifford_to_dense(random_clifford(n, rng))
            psi = np.kron(v, w) @ c @ s
            val, _ = nonlocal_stabilizer_entropy(
                psi, bp, 2.0,
                SearchConfig(restarts=3, seed=2,
                             unitary_seeds=((v.conj().T, w.conj().T),)),
            )
            assert val <= 1e-6

    def test_spreading_bound_generic_input(self, rng):
        # m_NL(U psi) <= m(psi) for U = (V x W) C, certified through the seed
        n = 2
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        v = haar_random_unitary(2, rng)
        w = haar_random_unitary(2, rng)
        c = clifford_to_dense(random_clifford(n, rng))
        val, _ = nonlocal_stabilizer_entropy(
            np.kron(v, w) @ c @ psi, BP11, 2.0,
            SearchConfig(restarts=3, seed=4,
                         unitary_seeds=((v.conj().T, w.conj().T),)),
        )
        assert val <= stabilizer_renyi_entropy(psi, 2.0) + 1e-6


class TestLocalMinOperatorMagic:
    def test_pauli_is_found_immediately(self, rng):
        p = pauli_to_dense(random_pauli(2, rng))
        val, _ = local_min_operator_magic(p, BP11, SearchConfig(restarts=2, seed=0))
        assert val < 1e-10

    def test_cnot_recovers_operator_entanglement(self):
        val, report = local_min_operator_magic(CNOT, BP11,
                                               SearchConfig(restarts=8, seed=5))
        assert abs(val - 0.5) < 1e-3
        assert report.converged

    def test_swap_recovers_operator_entanglement(self):
        val, _ = local_min_operator_magic(SWAP, BP11, SearchConfig(restarts=8, seed=5))
        assert abs(val - 0.75) < 1e-3

    def test_entanglement_bounds_rotated_magic(self, rng):
        xx = dense_pauli("XX")
        u8 = scipy.linalg.expm(-1j * np.pi / 8 * xx)
        for u, e_lin in [(CNOT, 0.5), (SWAP, 0.75), (u8, 0.25)]:
            assert abs(operator_entanglement(u, BP11, "linear") - e_lin) < 1e-12
            for _ in range(20):
                rot = random_local_unitary(BP11, rng) @ u @ random_local_unitary(BP11, rng)
                assert operator_stabilizer_entropy(rot, "linear") >= e_lin - 1e-9
            val, _ = local_min_operator_magic(u, BP11, SearchConfig(restarts=8, seed=5))
            assert e_lin - 1e-6 <= val <= e_lin + 1e-3


class TestParameterChart:
    def test_round_trip(self, rng):
        u = haar_random_unitary(4, rng)
        theta = params_from_unitary(u)
        assert np.linalg.norm(unitary_from_params(theta, 2) - u) < 1e-10

    def test_zero_is_identity(self):
        assert np.allclose(unitary_from_params(np.zeros(16), 2), np.eye(4))


SPLITS = [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestAnalyticGradient:
    """The value-and-gradient objectives against central differences of their
    own values (h = 1e-6), at the identity start and at 5 seeded points."""

    @staticmethod
    def check(objective, chart_qubits, rng):
        fun = _on_charts(objective, chart_qubits)
        total = sum(4**n for n in chart_qubits)
        h = 1e-6
        for theta in [np.zeros(total)] + [rng.standard_normal(total) for _ in range(5)]:
            _, grad = fun(theta)
            numeric = np.array([(fun(theta + h * e)[0] - fun(theta - h * e)[0]) / (2 * h)
                                for e in np.eye(total)])
            assert np.all(np.abs(grad - numeric) <= 1e-7 * np.maximum(1.0, np.abs(grad)))

    @pytest.mark.parametrize("n_a,n_b", SPLITS)
    def test_operator_magic(self, n_a, n_b, rng):
        bp = Bipartition(n_a, n_b)
        u = haar_random_unitary(bp.d, rng)
        self.check(_operator_magic_objective(u, bp), [n_a, n_b, n_a, n_b], rng)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("n_a,n_b", SPLITS)
    def test_state_magic(self, n_a, n_b, alpha, rng):
        bp = Bipartition(n_a, n_b)
        psi = rng.standard_normal(bp.d) + 1j * rng.standard_normal(bp.d)
        psi /= np.linalg.norm(psi)
        self.check(_state_magic_objective(psi, bp, alpha), [n_a, n_b], rng)

    def test_criterion_searches_stay_within_evaluation_bound(self):
        # 149 (CNOT) and 103 (SWAP) evaluations when the bound was set; a
        # finite-difference gradient took 2405 and 1623 objective calls
        for gate, e_lin in ((CNOT, 0.5), (SWAP, 0.75)):
            val, report = local_min_operator_magic(gate, BP11, SearchConfig(restarts=8, seed=7))
            assert abs(val - e_lin) <= 1e-3 and report.converged
            assert report.evaluations <= 300
