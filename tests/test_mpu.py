import numpy as np
import pytest

from paulient.entpower import pauli_entangling_power, q_projector_build
from paulient.errors import (
    DegenerateLeadingEigenvalue,
    NotUnitaryClosure,
    SizeLimitExceeded,
)
from paulient.mpu import (
    TRANSFER_CHI_LIMIT,
    MPUTensor,
    build_lambda_site_tensor,
    lambda_closure,
    lambda_site_operator,
    mpu_cz_chain,
    mpu_shift,
    mpu_single_gate,
    mpu_to_dense,
    mpu_zz_chain,
    pauli_power_mpu,
    transfer_matrix_pair,
    _dominant_pair,
)
from paulient.operators import Bipartition, haar_random_unitary

from conftest import HADAMARD, T_GATE


class TestDenseClosure:
    def test_bond_one_is_a_product(self):
        u = mpu_to_dense(mpu_single_gate(HADAMARD), 3)
        assert np.allclose(u, np.kron(np.kron(HADAMARD, HADAMARD), HADAMARD))

    def test_cz_chain_matches_direct_construction(self):
        for n in (3, 4, 5):
            u = mpu_to_dense(mpu_cz_chain(), n)
            d = 2**n
            diag = np.empty(d, dtype=complex)
            for b in range(d):
                bits = [(b >> (n - 1 - i)) & 1 for i in range(n)]
                diag[b] = (-1.0) ** sum(bits[i] * bits[(i + 1) % n] for i in range(n))
            assert np.allclose(u, np.diag(diag))

    def test_shift_is_the_cyclic_permutation(self):
        u = mpu_to_dense(mpu_shift(), 3)
        for t in range(8):
            bits = [(t >> 2) & 1, (t >> 1) & 1, t & 1]
            out = (bits[1] << 2) | (bits[2] << 1) | bits[0]
            assert u[out, t] == 1.0

    def test_random_tensor_rejected(self, rng):
        bad = MPUTensor(2, rng.standard_normal((2, 2, 2, 2))
                        + 1j * rng.standard_normal((2, 2, 2, 2)))
        with pytest.raises(NotUnitaryClosure):
            mpu_to_dense(bad, 3)

    def test_clifford_qca_unitary_at_all_tested_sizes(self):
        for n in range(2, 7):
            mpu_to_dense(mpu_cz_chain(), n)
            mpu_to_dense(mpu_shift(), n)

    def test_site_limit(self):
        with pytest.raises(SizeLimitExceeded):
            mpu_to_dense(mpu_single_gate(HADAMARD), 13)

    def test_no_sites_rejected(self):
        for n_sites in (0, -1):
            with pytest.raises(ValueError, match="at least one site"):
                mpu_to_dense(mpu_single_gate(HADAMARD), n_sites)


class TestLambdaTensor:
    def test_diagonal_bond_structure(self):
        pi = build_lambda_site_tensor()
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert not pi[a, b].any()

    def test_four_copy_closure_is_the_site_insert(self):
        pi = build_lambda_site_tensor()
        chain = np.einsum("abst,bcuv,cdwx,dayz->suwytvxz", pi, pi, pi, pi).reshape(16, 16)
        lam = lambda_site_operator()
        assert np.allclose(chain, lam)
        assert abs(np.trace(lam) - 16.0) < 1e-12  # only the identity term survives

    def test_closure_equals_scaled_projector(self):
        for n in (1, 2):
            q = q_projector_build(n)
            assert np.allclose(lambda_closure(n), (4.0**n) * q, atol=1e-12)


TENSORS = [
    ("single-T", mpu_single_gate(T_GATE)),
    ("cz-chain", mpu_cz_chain()),
    ("shift", mpu_shift()),
    ("zz-pi8", mpu_zz_chain(np.pi / 8)),
    ("zz-0.3-H", mpu_zz_chain(0.3, HADAMARD)),
]


def _haar_gate(seed):
    return haar_random_unitary(2, np.random.default_rng(seed))


# the per-site contraction over all four copies, kept as the reference for the
# factored construction: copy c takes A[l_c, r_c, p_c, i_c] (letters from a-d,
# e-h, q-t, u-x) and conj(A)[m_c, n_c, k_c, j_c] (from i-l, m-p, y-B, u-x), then
# Lam[k_1..k_4, p_1..p_4]; B sites read j_c = i_c, A sites swap the in-legs of
# copies 1, 2 and of copies 3, 4
_CONTRACTION_A = "aequ,bfrv,cgsw,dhtx,imyv,jnzu,koAx,lpBw,yzABqrst->abcdijklefghmnop"
_CONTRACTION_B = "aequ,bfrv,cgsw,dhtx,imyu,jnzv,koAw,lpBx,yzABqrst->abcdijklefghmnop"

FACTOR_TENSORS = TENSORS + [
    ("single-haar", mpu_single_gate(_haar_gate(11))),
    ("cz-haar-1", mpu_cz_chain(_haar_gate(12))),
    ("cz-haar-2", mpu_cz_chain(_haar_gate(13))),
    ("zz-0.3-haar", mpu_zz_chain(0.3, _haar_gate(14))),
    ("zz-1.1-haar", mpu_zz_chain(1.1, _haar_gate(15))),
]


class TestTransferMatrices:
    @pytest.mark.parametrize("name,tensor", FACTOR_TENSORS)
    def test_factors_match_the_contraction(self, name, tensor):
        t, tc = tensor.tensor, tensor.tensor.conj()
        lam8 = lambda_site_operator().reshape((2,) * 8)
        chi8 = tensor.chi**8
        pair = transfer_matrix_pair(tensor)
        for spec, got in ((_CONTRACTION_A, pair.t_a), (_CONTRACTION_B, pair.t_b)):
            want = np.einsum(spec, t, t, t, t, tc, tc, tc, tc, lam8,
                             optimize="greedy").reshape(chi8, chi8)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max()), name

    @pytest.mark.parametrize("name,tensor", TENSORS)
    def test_finite_mode_matches_dense_exact(self, name, tensor):
        for n in (4, 5, 6):
            dense = mpu_to_dense(tensor, n)
            for na in (1, n // 2):
                bp = Bipartition(na, n - na)
                exact = pauli_entangling_power(dense, bp).value
                tm = pauli_power_mpu(tensor, na, n - na)
                assert abs(exact - tm) < 1e-8, (name, n, na)

    def test_chi_one_gate_has_zero_power_at_all_sizes(self):
        for n in (2, 4, 6):
            assert abs(pauli_power_mpu(mpu_single_gate(T_GATE), n // 2, n - n // 2)) < 1e-12

    def test_bond_dimension_of_pair(self):
        for tensor, dim in ((mpu_single_gate(T_GATE), 1), (mpu_cz_chain(), 256)):
            pair = transfer_matrix_pair(tensor)
            assert pair.t_a.shape == (dim, dim) and pair.t_b.shape == (dim, dim)

    @pytest.mark.parametrize("mode", ["finite", "thermodynamic"])
    def test_bond_above_the_dense_limit_rejected(self, mode):
        chi = TRANSFER_CHI_LIMIT + 1
        tensor = MPUTensor(chi, np.zeros((chi, chi, 2, 2)))
        with pytest.raises(SizeLimitExceeded, match="transfer-matrix limit 2"):
            transfer_matrix_pair(tensor)
        with pytest.raises(SizeLimitExceeded, match="transfer-matrix limit 2"):
            pauli_power_mpu(tensor, 2, 2, mode=mode)


class TestThermodynamic:
    def test_matches_finite_limit(self):
        for name, tensor in TENSORS:
            th = pauli_power_mpu(tensor, 0, 0, mode="thermodynamic")
            fin = pauli_power_mpu(tensor, 7, 7)
            assert abs(th - fin) < 1e-8, name

    def test_convergence_bound(self):
        tensor = mpu_zz_chain(0.3, HADAMARD)
        pair = transfer_matrix_pair(tensor)
        th = pauli_power_mpu(tensor, 0, 0, mode="thermodynamic")
        mags_a = np.sort(np.abs(np.linalg.eigvals(pair.t_a / 16.0)))[::-1]
        mags_b = np.sort(np.abs(np.linalg.eigvals(pair.t_b / 16.0)))[::-1]
        ratio = max(mags_a[1] / mags_a[0], mags_b[1] / mags_b[0])
        prev = np.inf
        for k in (2, 3, 4, 5, 6):
            res = abs(pauli_power_mpu(tensor, k, k) - th)
            assert res <= 10.0 * ratio**k + 1e-12
            assert res <= prev + 1e-12
            prev = res

    def test_degenerate_leading_eigenvalue_rejected(self):
        m = np.diag([1.0, 1.0, 0.3, 0.1]).astype(complex)
        with pytest.raises(DegenerateLeadingEigenvalue):
            _dominant_pair(m)

    def test_near_degenerate_rejected(self):
        m = np.diag([1.0, 1.0 - 1e-10, 0.3]).astype(complex)
        with pytest.raises(DegenerateLeadingEigenvalue):
            _dominant_pair(m)

    def test_dominant_pair_of_normal_matrix(self):
        m = np.diag([0.9, 0.2, 0.1]).astype(complex)
        lead, r, l = _dominant_pair(m)
        assert abs(lead - 0.9) < 1e-12
        assert abs(abs(r[0]) - 1.0) < 1e-12 and abs(abs(l[0]) - 1.0) < 1e-12
