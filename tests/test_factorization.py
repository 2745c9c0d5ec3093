import numpy as np
import pytest
import scipy.linalg

from paulient.errors import NotProduct, NotProductPreserving
from paulient.factorization import (
    _tableau_block_diag,
    check_pauli_product_preserving,
    residual_local_magic,
    extract_hermitian_unitary_factors,
    factorize,
    make_product_preserving,
    verify_factorization,
    LocalCliffordFactorization,
)
from paulient.magic import SearchConfig, nonlocal_stabilizer_entropy
from paulient.operators import Bipartition, haar_random_unitary
from paulient.paulis import (
    CliffordTableau,
    clifford_to_dense,
    fix_global_phase,
    pauli_mul_matrix,
    random_clifford,
)

from conftest import CNOT, dense_pauli


BP11 = Bipartition(1, 1)


def u_xx(theta=np.pi / 8):
    return scipy.linalg.expm(-1j * theta * dense_pauli("XX"))


class TestCheck:
    def test_clifford_lift_passes(self, rng):
        c = clifford_to_dense(random_clifford(3, rng))
        ok, witness = check_pauli_product_preserving(c, Bipartition(1, 2))
        assert ok and witness is None

    def test_local_clifford_product_passes(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            na = int(rng.integers(1, n))
            bp = Bipartition(na, n - na)
            u, _, _, _ = make_product_preserving(bp, rng)
            ok, _ = check_pauli_product_preserving(u, bp)
            assert ok

    def test_xx_rotation_witness(self):
        ok, witness = check_pauli_product_preserving(u_xx(), BP11)
        assert not ok
        p, lam2 = witness
        # the first failing generator is Z (x) I, with lambda_2 = sin^2(pi/4)
        assert str(p) == "+ZI"
        assert abs(lam2 - 0.5) < 1e-12

    def test_haar_fails(self, rng):
        for n, na in [(2, 1), (3, 1), (4, 2)]:
            u = haar_random_unitary(2**n, rng)
            ok, witness = check_pauli_product_preserving(u, Bipartition(na, n - na))
            assert not ok and witness is not None

    def test_seven_qubits_decided_on_generators(self, rng):
        # 2N = 14 generator images decide the 4^7 strings; no size limit
        bp = Bipartition(3, 4)
        u, _, _, _ = make_product_preserving(bp, rng)
        assert check_pauli_product_preserving(u, bp) == (True, None)
        ok, (p, lam2) = check_pauli_product_preserving(haar_random_unitary(bp.d, rng), bp)
        assert not ok and lam2 > 1e-3
        assert bin(p.x).count("1") + bin(p.z).count("1") == 1  # a generator


class TestExtractFactors:
    def test_pauli_product(self):
        x, y = extract_hermitian_unitary_factors(dense_pauli("XY"), BP11)
        assert np.allclose(np.kron(x, y), dense_pauli("XY"), atol=1e-12)
        assert np.allclose(x, dense_pauli("X")) and np.allclose(y, dense_pauli("Y"))

    def test_rescaling_of_unbalanced_factors(self):
        # (2X) (x) (Y/2) is the same operator; the normalization restores
        # Hermitian unitary factors
        op = np.kron(2.0 * dense_pauli("X"), dense_pauli("Y") / 2.0)
        x, y = extract_hermitian_unitary_factors(op, BP11)
        assert np.allclose(x, dense_pauli("X")) and np.allclose(y, dense_pauli("Y"))

    def test_cnot_not_product(self):
        with pytest.raises(NotProduct):
            extract_hermitian_unitary_factors(CNOT, BP11)

    def test_factor_laws(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            na = int(rng.integers(1, n))
            bp = Bipartition(na, n - na)
            u, _, _, _ = make_product_preserving(bp, rng)
            udag = u.conj().T
            from paulient.paulis import random_pauli

            p = random_pauli(n, rng)
            m = udag @ pauli_mul_matrix(p, u)
            x, y = extract_hermitian_unitary_factors(m, bp)
            assert np.linalg.norm(x - x.conj().T) < 1e-10
            assert np.linalg.norm(x @ x - np.eye(bp.d_a)) < 1e-10
            assert np.linalg.norm(y - y.conj().T) < 1e-10
            assert np.linalg.norm(y @ y - np.eye(bp.d_b)) < 1e-10
            assert np.linalg.norm(np.kron(x, y) - m) < 1e-9

    def test_cocycle_consistency(self, rng):
        # phi(k1,k2) = Tr(Y_k2 Y_k1 Y_(k1 o k2)) / d_B is a fourth root of unity
        from paulient.paulis import pauli_multiply, random_pauli

        bp = Bipartition(1, 2)
        u, _, _, _ = make_product_preserving(bp, rng)
        udag = u.conj().T

        def y_factor(p):
            return extract_hermitian_unitary_factors(udag @ pauli_mul_matrix(p, u), bp)[1]

        for _ in range(15):
            k1, k2 = random_pauli(3, rng), random_pauli(3, rng)
            k12, _ = pauli_multiply(k1, k2)
            y1, y2, y12 = y_factor(k1), y_factor(k2), y_factor(k12)
            phi = np.trace(y2 @ y1 @ y12) / bp.d_b
            # factor pairs are defined up to a joint sign, so phi is a fourth
            # root of unity up to sign
            assert min(abs(abs(phi.real) - 1.0), abs(abs(phi.imag) - 1.0)) < 1e-8
            assert abs(abs(phi) - 1.0) < 1e-8


class TestFactorize:
    @pytest.mark.parametrize("na,nb", [(1, 1), (1, 2), (2, 1), (2, 3)])
    def test_block_diagonal_tableau_is_the_kron(self, na, nb, rng):
        ca, cb = random_clifford(na, rng), random_clifford(nb, rng)
        assert np.allclose(
            clifford_to_dense(_tableau_block_diag(ca, cb)),
            fix_global_phase(np.kron(clifford_to_dense(ca), clifford_to_dense(cb))),
            atol=1e-10)

    def test_clifford_dense_recovers_same_tableau(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            na = int(rng.integers(1, n))
            bp = Bipartition(na, n - na)
            c = random_clifford(n, rng)
            u = clifford_to_dense(c).conj().T
            fac = factorize(u, bp)
            assert verify_factorization(u, fac) <= 1e-8
            # local parts collapse to a phase times the identity
            phase_v = fac.v[0, 0] / abs(fac.v[0, 0])
            phase_w = fac.w[0, 0] / abs(fac.w[0, 0])
            assert np.linalg.norm(fac.v - phase_v * np.eye(bp.d_a)) < 1e-7
            assert np.linalg.norm(fac.w - phase_w * np.eye(bp.d_b)) < 1e-7
            assert fac.c == c

    def test_round_trip_50_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            na = int(rng.integers(1, max(2, n // 2 + 1)))
            bp = Bipartition(na, n - na)
            u, v0, w0, c0 = make_product_preserving(bp, rng)
            fac = factorize(u, bp)
            assert verify_factorization(u, fac) <= 1e-8

    def test_three_qubit_block_canonicalization(self, rng):
        # the simultaneous-diagonalization stage with an 8-dimensional block
        bp = Bipartition(3, 3)
        u, _, _, _ = make_product_preserving(bp, rng)
        fac = factorize(u, bp)
        assert verify_factorization(u, fac) <= 1e-8

    def test_haar_rejected(self, rng):
        with pytest.raises(NotProductPreserving):
            factorize(haar_random_unitary(8, rng), Bipartition(1, 2))

    def test_xx_rotation_rejected_by_factorize(self):
        with pytest.raises(NotProductPreserving):
            factorize(u_xx(), BP11)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_unusable_tol_rejected_before_any_generator(monkeypatch, tol):
    # NaN and inf used to pass exp(-i pi/8 XX), -1 to fail the identity
    def evolve(*args):
        raise AssertionError("a generator was evolved")

    monkeypatch.setattr("paulient.factorization._evolve", evolve)
    for fn in (check_pauli_product_preserving, factorize):
        for u in (u_xx(), np.eye(4)):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                fn(u, BP11, tol=tol)


class TestVerify:
    def test_identity_factorization_of_identity(self):
        fac = LocalCliffordFactorization(
            v=np.eye(2), w=np.eye(2), c=CliffordTableau.identity(2), global_phase=1.0
        )
        assert verify_factorization(np.eye(4, dtype=complex), fac) < 1e-14

    def test_no_unerasable_magic_left(self, rng):
        bp = Bipartition(1, 2)
        u, _, _, _ = make_product_preserving(bp, rng)
        fac = factorize(u, bp)
        assert verify_factorization(u, fac) <= 1e-8
        assert residual_local_magic(u, fac, bp) <= 1e-10

    def test_tampered_sign_raises_residual(self, rng):
        bp = Bipartition(1, 1)
        u, _, _, _ = make_product_preserving(bp, rng)
        fac = factorize(u, bp)
        bad_signs = fac.c.signs.copy()
        bad_signs[0] ^= 1
        tampered = LocalCliffordFactorization(
            v=fac.v, w=fac.w,
            c=CliffordTableau(fac.c.n_qubits, fac.c.mat.copy(), bad_signs),
            global_phase=fac.global_phase,
        )
        assert verify_factorization(u, tampered) >= 0.1


class TestEquivalence:
    def test_both_directions_at_desk_scale(self, rng):
        from paulient.entpower import pauli_entangling_power

        # product-form instances: check true and factorization succeeds
        for _ in range(15):
            n = int(rng.integers(2, 5))
            na = int(rng.integers(1, n))
            bp = Bipartition(na, n - na)
            u, _, _, _ = make_product_preserving(bp, rng)
            ok, _ = check_pauli_product_preserving(u, bp)
            assert ok
            assert pauli_entangling_power(u, bp).value <= 1e-12
        # Haar instances: check false and positive entangling power
        for _ in range(15):
            n = int(rng.integers(2, 5))
            na = int(rng.integers(1, n))
            bp = Bipartition(na, n - na)
            u = haar_random_unitary(bp.d, rng)
            ok, _ = check_pauli_product_preserving(u, bp)
            assert not ok
            assert pauli_entangling_power(u, bp).value > 1e-6

    def test_recovered_factors_certify_zero_nonlocal_magic(self, rng):
        # factorize, then certify zero nonlocal magic on a stabilizer input
        # using the recovered local factors as the search seed
        bp = Bipartition(1, 1)
        u, _, _, _ = make_product_preserving(bp, rng)
        fac = factorize(u, bp)
        s = clifford_to_dense(random_clifford(2, rng))[:, 0]
        psi = u.conj().T @ s  # U^dag = (V x W) C spreads but cannot create nonlocal magic
        val, _ = nonlocal_stabilizer_entropy(
            psi, bp, 2.0,
            SearchConfig(restarts=3, seed=11,
                         unitary_seeds=((fac.v.conj().T, fac.w.conj().T),)),
        )
        assert val <= 1e-6
