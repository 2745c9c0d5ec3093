import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from paulient import factorization
from paulient.errors import NotProduct, NotProductPreserving
from paulient.factorization import (
    RANK_TOL,
    _rank_one_readoff,
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
from paulient.operators import Bipartition, haar_random_unitary, realign
from paulient.paulis import (
    CliffordTableau,
    PauliString,
    _CHUNK_ENTRIES,
    _operator_pauli_probs,
    clifford_to_dense,
    fix_global_phase,
    pauli_mul_matrix,
    random_clifford,
)

from conftest import CNOT, dense_pauli, oracle_operator_magic, pauli_labels


BP11 = Bipartition(1, 1)


def u_xx(theta=np.pi / 8, label="XX"):
    return scipy.linalg.expm(-1j * theta * dense_pauli(label))


def generators(n):
    return [PauliString(n, 1 << (n - 1 - i), 0) for i in range(n)] + \
        [PauliString(n, 0, 1 << (n - 1 - i)) for i in range(n)]


def svd_check(u, bp, tol=RANK_TOL):
    """The check one generator at a time, every verdict from an SVD: the
    reference for the stacked check's verdict and witness."""
    for p in generators(bp.n_qubits):
        image = u.conj().T @ pauli_mul_matrix(p, u)
        lam = np.linalg.svd(realign(image, bp), compute_uv=False) ** 2
        if lam[1] > tol:
            return False, (p, float(lam[1]))
    return True, None


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


class TestStackedImages:
    def test_ragged_last_chunk_at_seven_qubits(self, rng):
        # 14 generator images of 2^14 entries go in chunks of 8: 8, then 6
        bp = Bipartition(3, 4)
        assert _CHUNK_ENTRIES // bp.d**2 == 8
        u = make_product_preserving(bp, rng)[0]
        assert check_pauli_product_preserving(u, bp) == (True, None) == svd_check(u, bp)
        assert verify_factorization(u, factorize(u, bp)) <= 1e-8
        haar = haar_random_unitary(bp.d, rng)
        assert check_pauli_product_preserving(haar, bp) == svd_check(haar, bp)
        # exp(-i theta X_2 X_5) leaves X_1..X_7 and Z_1 product: the first
        # violator, Z_2, is in the second chunk
        xx = u_xx(0.3, "IXIIXII")
        ok, witness = check_pauli_product_preserving(xx, bp)
        assert not ok and str(witness[0]) == "+IZIIIII"
        assert (ok, witness) == svd_check(xx, bp)
        with pytest.raises(NotProductPreserving, match=r"generator \+IZIIIII"):
            factorize(xx, bp)

    @pytest.mark.parametrize("scale", [0.99, 0.999, 1.001, 1.01])
    def test_readoff_verdict_is_the_svd_verdict(self, scale, rng):
        # exp(-i theta XX) takes Z (x) I to an image with lambda_2 =
        # sin^2(2 theta): just below and just above RANK_TOL
        theta = np.arcsin(np.sqrt(scale * RANK_TOL)) / 2
        bp = Bipartition(1, 1)
        near = u_xx(theta)
        ok, witness = check_pauli_product_preserving(near, bp)
        assert (ok, witness) == svd_check(near, bp)
        assert ok == (scale < 1)
        inputs = [near, haar_random_unitary(8, rng), make_product_preserving(Bipartition(1, 2),
                                                                              rng)[0]]
        for u in inputs:
            b = Bipartition(1, u.shape[0].bit_length() - 2)
            assert check_pauli_product_preserving(u, b) == svd_check(u, b)
            images = np.stack([u.conj().T @ pauli_mul_matrix(p, u)
                               for p in generators(b.n_qubits)])
            r = realign(images, b)
            x, y, defect = _rank_one_readoff(r)
            lam2 = np.linalg.svd(r, compute_uv=False)[:, 1] ** 2
            # the defect bounds lambda_2, so a read-off within tol is an SVD pass
            assert np.all(defect >= lam2 - 1e-15)
            assert np.all(lam2[defect <= RANK_TOL] <= RANK_TOL)
            rebuilt = x[:, :, None] * y[:, None, :]
            assert np.allclose(np.linalg.norm(r - rebuilt, axis=(1, 2)) ** 2, defect, atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_readoff_verdict_is_the_svd_verdict_at_a_tol_below_round_off(self, seed):
        # a local unitary times exp(-i theta XX..X) with lambda_2 ~ 1e-16: the
        # subtraction form ||R||^2 - ||x||^2 ||y||^2 of the defect has ~4e-16
        # of cancellation and passed some of these images
        tol = 1e-16
        for n, na in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            bp = Bipartition(na, n - na)
            base = make_product_preserving(bp, np.random.default_rng(seed))[0]
            for scale in (1.2, 2.0, 4.0):
                theta = np.arcsin(np.sqrt(scale * tol)) / 2
                u = base @ u_xx(theta, "X" * n)
                assert check_pauli_product_preserving(u, bp, tol) == svd_check(u, bp, tol)

    def test_residual_magic_matches_the_per_string_loop_and_oracle(self, rng):
        bp = Bipartition(1, 2)
        u = make_product_preserving(bp, rng)[0]
        fac = factorize(u, bp)
        # a wrong local factor leaves magic that the check must report
        bad = LocalCliffordFactorization(v=haar_random_unitary(2, rng), w=fac.w, c=fac.c,
                                         global_phase=fac.global_phase)
        for f in (fac, bad):
            loc = np.kron(f.v, f.w)
            loop = oracle = 0.0
            for k in range(4**3):  # one product and one Pauli table per string
                p = PauliString.from_index(3, k)
                o = loc.conj().T @ u.conj().T @ pauli_mul_matrix(p, u) @ loc
                loop = max(loop, 1.0 - float(np.sum(_operator_pauli_probs(o) ** 2)))
            for label in pauli_labels(3):
                dense = loc.conj().T @ u.conj().T @ dense_pauli(label) @ u @ loc
                oracle = max(oracle, oracle_operator_magic(dense))
            value = residual_local_magic(u, f, bp)
            assert abs(value - loop) <= 1e-14 and abs(value - oracle) <= 1e-14
        assert residual_local_magic(u, bad, bp) > 0.1

    def test_factorize_memory_stays_bounded(self):
        # tracemalloc peak at N = 9 (4|5), in d^2 complex entries: 6.36 when
        # each image was evolved on its own.  A chunk is let go before the
        # next is built, so the stacked images may add at most one chunk.
        bp = Bipartition(4, 5)
        u = make_product_preserving(bp, np.random.default_rng(3))[0]
        tracemalloc.start()
        try:
            fac = factorize(u, bp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verify_factorization(u, fac) <= 1e-8
        entry = 16
        assert peak <= 6.37 * bp.d**2 * entry + max(_CHUNK_ENTRIES, bp.d**2) * entry


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

    def test_near_product_takes_the_svd_factors(self):
        # lambda_2 = sin^2(t) = 1e-12 passes, but the largest realigned
        # column, (cos I - i sin Z)/2, is t from Hermitian: the factors must
        # be the SVD's, not the read-off's
        t = 1e-6
        op = np.cos(t) * dense_pauli("IX") + np.sin(t) * dense_pauli("ZY")
        x, y = extract_hermitian_unitary_factors(op, BP11)
        assert np.allclose(x, dense_pauli("I"), atol=1e-12)
        assert np.allclose(y, dense_pauli("X"), atol=1e-12)

    def test_near_product_unitary_factorizes(self):
        # X_2's image has lambda_2 ~ 1e-16, far under RANK_TOL, but its
        # read-off's A factor is ~1e-8 from Hermitian; U itself is 5e-9
        # from the nearest factorization
        u = scipy.linalg.expm(-1j * 5e-9 * dense_pauli("ZZ"))
        assert verify_factorization(u, factorize(u, BP11)) <= 1e-8

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

    @pytest.mark.parametrize("n", range(2, 8))
    def test_round_trip_with_clifford_local_factors(self, n, rng):
        # U^dag = (V x W) C with both sides Clifford, then with one side Haar
        for haar_side in (None, "A", "B"):
            na = int(rng.integers(1, n))
            bp = Bipartition(na, n - na)
            v, w = (clifford_to_dense(random_clifford(m, rng)) for m in (na, n - na))
            if haar_side == "A":
                v = haar_random_unitary(bp.d_a, rng)
            elif haar_side == "B":
                w = haar_random_unitary(bp.d_b, rng)
            u = (np.kron(v, w) @ clifford_to_dense(random_clifford(n, rng))).conj().T
            fac = factorize(u, bp)
            assert verify_factorization(u, fac) <= 1e-8, (n, haar_side)
            if haar_side is None:
                for m in (fac.v, fac.w):
                    assert np.linalg.norm(m - m[0, 0] * np.eye(len(m))) < 1e-7, n

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_factorize_evolves_only_the_generators(self, n, monkeypatch):
        # every later stage reads the generator images' factors
        evolved = []
        real = factorization._conjugated_chunks

        def spy(a, indices, b):
            evolved.append(len(indices))
            return real(a, indices, b)

        monkeypatch.setattr(factorization, "_conjugated_chunks", spy)
        rng = np.random.default_rng(n)
        for na in sorted({1, n // 2}):
            bp = Bipartition(na, n - na)
            # U^dag = (V x W) C with Clifford V, W, which the Clifford test folds into C
            v, w = (clifford_to_dense(random_clifford(m, rng)) for m in (na, n - na))
            clifford_local = (np.kron(v, w) @ clifford_to_dense(random_clifford(n, rng))).conj().T
            for u in (make_product_preserving(bp, rng)[0], clifford_local):
                del evolved[:]
                fac = factorize(u, bp)
                assert sum(evolved) == 2 * n
                assert verify_factorization(u, fac) <= 1e-8

    @pytest.mark.parametrize("n,na,rows,signs", [
        (3, 1, [16, 5, 40, 2, 8, 4], [0] * 6),
        (5, 2, [811, 89, 128, 9, 288, 489, 601, 527, 98, 714],
         [1, 0, 0, 0, 0, 1, 0, 0, 1, 1]),
        (8, 4, [23927, 4454, 21777, 4386, 37137, 17, 8704, 4352,
                21836, 64315, 56605, 36403, 30677, 11217, 37190, 12685],
         [0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1]),
    ])
    def test_seeded_tableaux_keep_their_values(self, n, na, rows, signs):
        # the recovered C, rows as 2N-bit integers, for make_product_preserving(seed N)
        bp = Bipartition(na, n - na)
        u = make_product_preserving(bp, np.random.default_rng(n))[0]
        fac = factorize(u, bp)
        assert list(fac.c.rows) == rows
        assert list(fac.c.signs) == signs
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

    monkeypatch.setattr("paulient.factorization._conjugated_chunks", evolve)
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
        bad_signs = (fac.c.signs[0] ^ 1, *fac.c.signs[1:])
        tampered = LocalCliffordFactorization(
            v=fac.v, w=fac.w,
            c=CliffordTableau(fac.c.n_qubits, fac.c.rows, bad_signs),
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
