import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from paulient.entpower import (
    _pauli_g_table,
    haar_typical_expansion,
    haar_typical_value,
    local_pauli_magic_bound,
    pauli_entangling_power,
    pauli_power_via_q,
    q_permutation_traces,
    q_projector_basis,
    q_projector_build,
)
from paulient.errors import NotUnitary, SizeLimitExceeded
from paulient.operators import Bipartition, haar_random_unitary, random_local_unitary
from paulient.paulis import clifford_to_dense, random_clifford, walsh_hadamard_transform

from conftest import CNOT, dense_pauli, oracle_pauli_power


BP11 = Bipartition(1, 1)


def u_xx(theta=np.pi / 8):
    return scipy.linalg.expm(-1j * theta * dense_pauli("XX"))


class TestExactMode:
    def test_clifford_lifts_have_zero_power(self, rng):
        for n, na in [(2, 1), (3, 1), (4, 2)]:
            c = clifford_to_dense(random_clifford(n, rng))
            est = pauli_entangling_power(c, Bipartition(na, n - na))
            assert est.value < 1e-12 and est.sem == 0.0
            assert est.n_samples == 4**n

    def test_xx_rotation_closed_form(self):
        # P_E = sin(4 theta)^2 / 4: 8 of 16 strings pick up a two-term
        # Schmidt form with weights {cos^2 2theta, sin^2 2theta}
        for theta in (np.pi / 8, 0.3, 0.7):
            est = pauli_entangling_power(u_xx(theta), BP11)
            assert abs(est.value - np.sin(4 * theta) ** 2 / 4) < 1e-12
        assert abs(pauli_entangling_power(u_xx(), BP11).value - 0.25) < 1e-10
        assert abs(oracle_pauli_power(u_xx(), 1, 1) - 0.25) < 1e-12

    def test_local_products_have_zero_power(self, rng):
        for bp in (BP11, Bipartition(1, 2), Bipartition(2, 1)):
            v = random_local_unitary(bp, rng)
            assert pauli_entangling_power(v, bp).value < 1e-12

    def test_matches_brute_force_oracle(self, rng):
        for n_a, n_b in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2)]:
            bp = Bipartition(n_a, n_b)
            u = haar_random_unitary(bp.d, rng)
            est = pauli_entangling_power(u, bp)
            assert abs(est.value - oracle_pauli_power(u, n_a, n_b)) < 1e-12

    def test_g_table_across_pair_blocks_matches_partial_trace(self):
        # At N = 7 the smaller block has 8 states: 36 pairs in blocks of
        # 2^17 // 128^2 = 8, so the last block (4 pairs) is ragged.  4|3 keeps
        # B and takes the transpose branch.  The table traces the larger
        # block, so the oracle does too.
        rng = np.random.default_rng(77)
        n, d = 7, 128
        u = haar_random_unitary(d, rng)
        entries = [(0, 0), (0, 1 + int(rng.integers(d - 1))),
                   (1 + int(rng.integers(d - 1)), 0), (d - 1, d - 1)]
        entries += [tuple(int(v) for v in rng.integers(0, d, size=2)) for _ in range(36)]
        for n_a in (3, 4):
            da, db = 2**n_a, 2 ** (n - n_a)
            table = _pauli_g_table(u, Bipartition(n_a, n - n_a))
            for x, z in entries:
                label = "".join("IZXY"[2 * ((x >> s) & 1) + ((z >> s) & 1)]
                                for s in range(n - 1, -1, -1))
                evolved = (u.conj().T @ dense_pauli(label) @ u).reshape(da, db, da, db)
                k = np.einsum("ibjb->ij" if da <= db else "aiaj->ij", evolved)
                want = np.trace(k @ k).real
                assert abs(table[x, z] - want) <= 1e-10 * want, (n_a, x, z)

    def test_real_orthogonal_input(self, rng):
        # a real dtype takes the same complex kernel
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        for u, bp in [(CNOT.real.copy(), BP11), (q, Bipartition(2, 2)), (q, Bipartition(1, 3))]:
            est = pauli_entangling_power(u, bp)
            assert est.value == pauli_entangling_power(u.astype(complex), bp).value
            assert abs(est.value - oracle_pauli_power(u, bp.n_a, bp.n_b)) < 1e-12

    def test_exact_peak_memory_at_eight_qubits(self, rng):
        # the pair-correlation array alone would be 136 MiB at 4|4
        u = haar_random_unitary(256, rng)
        tracemalloc.start()
        try:
            pauli_entangling_power(u, Bipartition(4, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_range(self, rng):
        for _ in range(20):
            v = pauli_entangling_power(haar_random_unitary(8, rng), Bipartition(1, 2)).value
            assert 0.0 <= v < 1.0

    def test_non_unitary_rejected(self, rng):
        with pytest.raises(NotUnitary):
            pauli_entangling_power(np.diag([1.0, 2.0, 1.0, 1.0]), BP11)

    def test_exact_limit(self, rng):
        u = haar_random_unitary(4, rng)
        with pytest.raises(SizeLimitExceeded):
            pauli_entangling_power(u, BP11, exact_limit=1)

    def test_walsh_hadamard_matches_dense_matrix(self, rng):
        h = np.array([[1.0]])
        for k in range(10):  # lengths 1..512, odd and even log2
            n = 1 << k
            # leading, trailing and middle axes; the last case is a
            # non-contiguous (transposed) view with the axis in the middle
            for shape, axis, view in [((n, 3), 0, False), ((3, n), -1, False),
                                      ((2, n, 3), 1, False), ((3, n, 2), 1, True)]:
                real = rng.standard_normal(shape)
                for a in (real, real + 1j * rng.standard_normal(shape)):
                    if view:
                        a = a.transpose(2, 1, 0)
                    want = np.moveaxis(np.tensordot(h, a, axes=(1, axis)), 0, axis)
                    assert np.allclose(walsh_hadamard_transform(a, axis=axis), want,
                                       rtol=0.0, atol=1e-12 * n)
            h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]))


class TestSampledMode:
    def test_seeded_reproducibility(self, rng):
        u = haar_random_unitary(16, rng)
        bp = Bipartition(2, 2)
        a = pauli_entangling_power(u, bp, mode="sampled",
                                   rng=np.random.default_rng(1), n_samples=100)
        b = pauli_entangling_power(u, bp, mode="sampled",
                                   rng=np.random.default_rng(1), n_samples=100)
        assert a.value == b.value and a.n_samples == 100

    def test_consistency_with_exact(self):
        # 20 random 4-qubit unitaries: fixed-count sampling within 3 sem of
        # exact (a fixed count keeps the sem estimate itself well resolved)
        rng = np.random.default_rng(200)
        bp = Bipartition(2, 2)
        for _ in range(20):
            u = haar_random_unitary(16, rng)
            exact = pauli_entangling_power(u, bp).value
            est = pauli_entangling_power(u, bp, mode="sampled", rng=rng,
                                         n_samples=3000)
            assert abs(est.value - exact) <= 3 * est.sem

    def test_sem_rule_contract(self):
        rng = np.random.default_rng(200)
        bp = Bipartition(2, 2)
        u = haar_random_unitary(16, rng)
        exact = pauli_entangling_power(u, bp).value
        est = pauli_entangling_power(u, bp, mode="sampled", rng=rng,
                                     sem_target=2e-2)
        assert est.sem < 2e-2 and est.n_samples >= 32
        assert abs(est.value - exact) <= 5 * 2e-2

    def test_rng_required(self, rng):
        with pytest.raises(ValueError):
            pauli_entangling_power(haar_random_unitary(4, rng), BP11, mode="sampled")

    def test_unusable_sample_counts_rejected(self, rng):
        u = haar_random_unitary(4, rng)
        for bad in (dict(n_samples=0), dict(max_samples=0), dict(min_samples=1)):
            with pytest.raises(ValueError):
                pauli_entangling_power(u, BP11, mode="sampled",
                                       rng=np.random.default_rng(1), **bad)


class TestQProjector:
    def test_rank_and_idempotence(self):
        for n in (1, 2):
            q = q_projector_build(n)
            d = 2**n
            assert np.linalg.norm(q @ q - q) < 1e-12
            assert abs(np.trace(q).real - d * d) < 1e-10

    def test_basis_orthonormal_and_fixed(self):
        for n in (1, 2):
            q = q_projector_build(n)
            basis = q_projector_basis(n)
            d2 = basis.shape[0]
            assert np.allclose(basis.conj() @ basis.T, np.eye(d2), atol=1e-12)
            assert np.allclose(q @ basis.T, basis.T, atol=1e-12)
            # the frame spans the whole image: rank d^2 = number of vectors
            assert d2 == (2**n) ** 2

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            q_projector_build(4)

    def test_permutation_traces(self):
        for n in (1, 2):
            d = float(2**n)
            traces = q_permutation_traces(n)
            expected = {"e": d * d, "(ab)": d, "(ab)(cd)": d * d, "(abc)": 1.0,
                        "(abcd)": d}
            for key, val in expected.items():
                assert abs(traces[key] - val) < 1e-10, (n, key)


class TestViaQ:
    def test_clifford_zero(self, rng):
        c = clifford_to_dense(random_clifford(2, rng))
        assert abs(pauli_power_via_q(c, BP11)) < 1e-12

    def test_xx_rotation(self):
        assert abs(pauli_power_via_q(u_xx(), BP11) - 0.25) < 1e-10

    def test_matches_exact_on_random_unitaries(self, rng):
        for _ in range(20):
            u = haar_random_unitary(4, rng)
            exact = pauli_entangling_power(u, BP11).value
            assert abs(pauli_power_via_q(u, BP11) - exact) < 1e-10

    def test_asymmetric_three_qubits(self, rng):
        u = haar_random_unitary(8, rng)
        for bp in (Bipartition(1, 2), Bipartition(2, 1)):
            assert abs(pauli_power_via_q(u, bp)
                       - pauli_entangling_power(u, bp).value) < 1e-10


class TestBounds:
    def test_clifford_bound_is_zero(self, rng):
        c = clifford_to_dense(random_clifford(2, rng))
        ba, bb = local_pauli_magic_bound(c, BP11)
        assert ba < 1e-12 and bb < 1e-12

    def test_tight_case(self):
        ba, bb = local_pauli_magic_bound(u_xx(), BP11)
        assert abs(ba - 0.25) < 1e-10 and abs(bb - 0.25) < 1e-10
        assert abs(pauli_entangling_power(u_xx(), BP11).value - 0.25) < 1e-10

    def test_inequality_sweep(self, rng):
        for _ in range(50):
            bp = Bipartition(1, 2) if rng.integers(2) else Bipartition(2, 1)
            u = haar_random_unitary(8, rng)
            pe = pauli_entangling_power(u, bp).value
            ba, bb = local_pauli_magic_bound(u, bp)
            assert min(ba, bb) >= pe - 1e-10


class TestTypicalValue:
    def test_small_dimensions(self):
        assert abs(haar_typical_value(4, 2) - 27.0 / 56.0) < 1e-15
        assert abs(haar_typical_value(16, 4) - 885600.0 / 1011712.0) < 1e-15

    def test_large_d_leading_behavior(self):
        # symmetric cut: 1 - 2/d up to O(1/d^2)
        for n in (6, 8, 10):
            d = 2**n
            da = 2 ** (n // 2)
            assert abs(haar_typical_value(d, da) - (1.0 - 2.0 / d)) < 20.0 / d**2
            assert abs(haar_typical_expansion(d, da) - (1.0 - 2.0 / d)) < 2.0 / d**2

    def test_invalid_dimensions(self):
        for d, da in [(6, 2), (8, 3), (8, 8), (8, 1)]:
            with pytest.raises(ValueError):
                haar_typical_value(d, da)

    def test_monte_carlo_small(self):
        rng = np.random.default_rng(31415)
        vals = [pauli_entangling_power(haar_random_unitary(4, rng), BP11).value
                for _ in range(150)]
        sem = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - 27.0 / 56.0) <= 3 * sem


class TestInvariance:
    def test_clifford_post_and_local_pre_processing(self, rng):
        # 20 random triples at N = 3
        bp = Bipartition(1, 2)
        u = haar_random_unitary(8, rng)
        ref = pauli_entangling_power(u, bp).value
        for _ in range(20):
            c = clifford_to_dense(random_clifford(3, rng))
            loc = random_local_unitary(bp, rng)
            val = pauli_entangling_power(c @ u @ loc, bp).value
            assert abs(val - ref) < 1e-10
