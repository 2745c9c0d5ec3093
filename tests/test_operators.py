import numpy as np
import pytest

from paulient.errors import NotUnitary
from paulient.operators import (
    Bipartition,
    _HermitianPurity,
    _sum_lambda_sq,
    haar_random_unitary,
    is_unitary,
    operator_entanglement,
    operator_schmidt_spectrum,
    random_local_unitary,
    realign,
)
from paulient.paulis import _SectorLayout, pauli_to_dense, random_pauli
from paulient.spinchain import HamiltonianPropagator, XYZModel, build_hamiltonian

from conftest import CNOT, SWAP, dense_pauli, oracle_schmidt_values


BP11 = Bipartition(1, 1)


class TestRealign:
    def test_product_operator_rank_one(self, rng):
        v = haar_random_unitary(2, rng)
        w = haar_random_unitary(2, rng)
        s = np.linalg.svd(realign(np.kron(v, w), BP11), compute_uv=False)
        assert s[0] > 0.99 and np.all(s[1:] < 1e-12)

    def test_swap_four_equal_singular_values(self):
        s = np.linalg.svd(realign(SWAP, BP11), compute_uv=False)
        assert np.allclose(s, [0.5, 0.5, 0.5, 0.5])

    def test_cnot_singular_values(self):
        s = np.linalg.svd(realign(CNOT, BP11), compute_uv=False)
        assert np.allclose(s, [np.sqrt(0.5), np.sqrt(0.5), 0, 0], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            realign(np.eye(8), BP11)


class TestSchmidtSpectrum:
    def test_pauli_string_is_product(self):
        lam = operator_schmidt_spectrum(dense_pauli("XZ"), BP11)
        assert np.allclose(lam, [1, 0, 0, 0], atol=1e-12)

    def test_swap_and_cnot(self):
        assert np.allclose(operator_schmidt_spectrum(SWAP, BP11), [0.25] * 4)
        assert np.allclose(operator_schmidt_spectrum(CNOT, BP11), [0.5, 0.5, 0, 0],
                           atol=1e-12)

    def test_matches_svd_oracle(self, rng):
        for n_a, n_b in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            bp = Bipartition(n_a, n_b)
            u = haar_random_unitary(bp.d, rng)
            lam = operator_schmidt_spectrum(u, bp)
            ref = oracle_schmidt_values(u, n_a, n_b)
            k = min(len(lam), len(ref))
            assert np.allclose(lam[:k], ref[:k], atol=1e-10)

    def test_normalization_100_random(self, rng):
        bp = Bipartition(1, 2)
        for _ in range(100):
            lam = operator_schmidt_spectrum(haar_random_unitary(8, rng), bp)
            assert abs(lam.sum() - 1.0) < 1e-10


class TestIsUnitary:
    def test_only_square_matrices(self):
        assert is_unitary(np.eye(4)) and is_unitary(np.eye(1))
        for shape in [(4, 2), (4, 8), (2, 4), (4,), (2, 2, 2), (), (0, 0)]:
            assert not is_unitary(np.ones(shape)), shape
            assert not is_unitary(np.zeros(shape, dtype=complex)), shape


class TestHermitianPurity:
    def test_matches_complex_gram(self, rng):
        for n in range(2, 8):
            for n_a in range(1, n):
                bp = Bipartition(n_a, n - n_a)
                h = rng.standard_normal((bp.d, bp.d)) + 1j * rng.standard_normal((bp.d, bp.d))
                h = h + h.conj().T
                one = _SectorLayout.of(bp.d, parity=False)
                purity = _HermitianPurity(bp, one)
                scratch, gram = purity.new_set()
                want = _sum_lambda_sq(h, bp, one)
                assert abs(purity(np.stack([h.real, h.imag]), scratch, gram) - want) <= 1e-12 * want
                # a call reads nothing the last call left in its scratch
                scratch[:] = np.nan
                gram[:] = np.nan
                assert abs(purity(np.stack([h.real, h.imag]), scratch, gram) - want) <= 1e-12 * want


    def test_sector_layout_matches_complex_gram(self, rng):
        # K maps parity sector s into s ^ p; the layout keeps its two nonzero
        # blocks, and a call with p squares only C's two nonzero blocks
        for n in range(2, 8):
            for n_a in range(1, n):
                bp = Bipartition(n_a, n - n_a)
                layout = _SectorLayout.of(bp.d, parity=True)
                purity = _HermitianPurity(bp, layout)
                scratch, gram = purity.new_set()
                for p in (0, 1):
                    h = rng.standard_normal((bp.d, bp.d)) + 1j * rng.standard_normal((bp.d, bp.d))
                    h = h + h.conj().T
                    h[layout.sector[:, None] ^ layout.sector[None, :] != p] = 0.0
                    parts = layout.new_parts()
                    for sector, index in enumerate(layout.index):
                        block = h[np.ix_(index, layout.index[sector ^ p])]
                        parts[sector] = block.real, block.imag
                    want = _sum_lambda_sq(h, bp, _SectorLayout.of(bp.d, parity=False))
                    assert abs(purity(parts, scratch, gram, p) - want) <= 1e-12 * want


class TestSectors:
    def test_sector_blocks_match_dense_oracles(self):
        for n, t in ((4, 0.7), (5, 1.9), (6, 3.1)):
            h = build_hamiltonian(XYZModel(n_sites=n, j_z=0.6))
            u = HamiltonianPropagator(h).unitary_at(t)
            assert len(_SectorLayout.find(u).index) == 2
            for n_a in range(1, n):
                bp = Bipartition(n_a, n - n_a)
                lam = operator_schmidt_spectrum(u, bp)
                ref = oracle_schmidt_values(u, n_a, n - n_a)
                assert np.abs(lam[:ref.size] - ref).max() <= 1e-12
                assert abs(operator_entanglement(u, bp, "linear")
                           - (1.0 - np.sum(ref**2))) <= 1e-12

    def test_unitarity_norm_summed_over_the_sector_blocks(self):
        # ||(1 + delta)^2 U^dag U - I|| / sqrt(d) = 2 delta + delta^2: the
        # tolerance 1e-8 falls between delta = 4e-9 and 6e-9, as without sectors
        u = HamiltonianPropagator(build_hamiltonian(XYZModel(n_sites=4))).unitary_at(1.1)
        haar = haar_random_unitary(16, np.random.default_rng(2))
        assert [len(_SectorLayout.find(m).index) for m in (u, haar)] == [2, 1]
        for m in (u, haar):
            assert is_unitary(m * (1 + 4e-9)) and not is_unitary(m * (1 + 6e-9))


class TestEntanglement:
    def test_examples(self):
        assert operator_entanglement(dense_pauli("XZ"), BP11, "linear") < 1e-14
        assert abs(operator_entanglement(SWAP, BP11, "linear") - 0.75) < 1e-14
        assert abs(operator_entanglement(SWAP, BP11, "renyi", alpha=2.0) - 2.0) < 1e-12
        assert abs(operator_entanglement(CNOT, BP11, "linear") - 0.5) < 1e-14

    def test_schmidt_rank(self):
        assert operator_entanglement(CNOT, BP11, "schmidt_rank") == 2
        assert operator_entanglement(dense_pauli("YY"), BP11, "schmidt_rank") == 1
        assert operator_entanglement(SWAP, BP11, "schmidt_rank") == 4

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitary):
            operator_entanglement(np.diag([1.0, 0.5, 1.0, 1.0]), BP11, "linear")

    def test_alpha_one_is_the_limit(self, rng):
        u = haar_random_unitary(8, rng)
        bp = Bipartition(1, 2)
        e1 = operator_entanglement(u, bp, "renyi", alpha=1.0)
        near = operator_entanglement(u, bp, "renyi", alpha=1.0 + 1e-6)
        assert abs(e1 - near) < 1e-4

    def test_local_unitary_invariance(self, rng):
        for n_a, n_b in [(1, 1), (1, 3), (2, 2)]:
            bp = Bipartition(n_a, n_b)
            u = haar_random_unitary(bp.d, rng)
            rotated = random_local_unitary(bp, rng) @ u @ random_local_unitary(bp, rng)
            assert np.allclose(
                operator_schmidt_spectrum(u, bp),
                operator_schmidt_spectrum(rotated, bp),
                atol=1e-10,
            )

    def test_entropy_ordering_and_range(self, rng):
        for n_a, n_b in [(1, 1), (1, 2), (2, 2)]:
            bp = Bipartition(n_a, n_b)
            for _ in range(10):
                u = haar_random_unitary(bp.d, rng)
                e_lin = operator_entanglement(u, bp, "linear")
                e2 = operator_entanglement(u, bp, "renyi", alpha=2.0)
                assert 0.0 <= e_lin <= 1.0 - 1.0 / min(bp.d_a, bp.d_b) ** 2 + 1e-12
                assert abs(e2 + np.log2(1.0 - e_lin)) < 1e-9
                for alpha in (0.5, 1.0, 1.5):
                    assert operator_entanglement(u, bp, "renyi", alpha=alpha) >= e2 - 1e-9


class TestHaar:
    def test_unitarity(self, rng):
        for dim in (2, 5, 8, 16):
            u = haar_random_unitary(dim, rng)
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) < 1e-12

    def test_seeded_determinism(self):
        a = haar_random_unitary(8, np.random.default_rng(3))
        b = haar_random_unitary(8, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_trace_moment_monte_carlo(self):
        # E |Tr U|^2 = 1 for Haar unitaries in any dimension
        rng = np.random.default_rng(2718)
        vals = np.array([abs(np.trace(haar_random_unitary(8, rng))) ** 2
                         for _ in range(10_000)])
        sem = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) < 5 * sem

    def test_pauli_expectation_is_unbiased(self, rng):
        # sanity on tensor ordering: Haar-conjugated Paulis are traceless
        p = pauli_to_dense(random_pauli(2, rng))
        u = haar_random_unitary(4, rng)
        assert abs(np.trace(u @ p @ u.conj().T)) < 4.0
