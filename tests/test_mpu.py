import tracemalloc
from functools import reduce

import numpy as np
import pytest

from paulient.entpower import pauli_entangling_power, q_projector_build
from paulient.errors import (
    DegenerateLeadingEigenvalue,
    NotUnitaryClosure,
    SizeLimitExceeded,
)
from paulient.mpu import (
    CLOSURE_DEFECT_TOL,
    TRANSFER_CHI_LIMIT,
    MPUTensor,
    closure_defect,
    lambda_closure,
    lambda_site_operator,
    mpu_cz_chain,
    mpu_shift,
    mpu_single_gate,
    mpu_to_dense,
    mpu_zz_chain,
    pauli_power_mpu,
    transfer_matrix_pair,
    _check_unitary_limit,
    _dominant_pair,
    _swap_basis,
    _transfer,
    _transfer_blocks,
    _transfer_factors,
)
from paulient.operators import Bipartition, haar_random_unitary

from conftest import HADAMARD, LETTER, T_GATE

# Pi[alpha, beta] = delta_ab sigma_alpha: its 4-copy periodic closure is the
# single-site insert Lam = sum_sigma sigma^x4
LAMBDA_SITE_TENSOR = np.zeros((4, 4, 2, 2), dtype=complex)
LAMBDA_SITE_TENSOR[range(4), range(4)] = [LETTER[c] for c in "IXZY"]


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
        pi = LAMBDA_SITE_TENSOR
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert not pi[a, b].any()

    def test_four_copy_closure_is_the_site_insert(self):
        pi = LAMBDA_SITE_TENSOR
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


def _hermitian_basis_columns(chi):
    """V[(l, m), k] = H_k[l, m] for the basis the pair is documented in:
    |a><a|, then (|a><a'| + h.c.)/sqrt2, then i(|a><a'| - h.c.)/sqrt2, a < a'."""
    def unit(a, b):
        m = np.zeros((chi, chi), dtype=complex)
        m[a, b] = 1.0
        return m
    upper = [(a, b) for a in range(chi) for b in range(a + 1, chi)]
    basis = ([unit(a, a) for a in range(chi)]
             + [(unit(a, b) + unit(b, a)) / np.sqrt(2) for a, b in upper]
             + [1j * (unit(a, b) - unit(b, a)) / np.sqrt(2) for a, b in upper])
    return np.stack([h.reshape(-1) for h in basis], axis=1)


def _contracted_pair(tensor):
    """E_A and E_B from the per-site contraction, in the Hermitian bond basis."""
    t, tc = tensor.tensor, tensor.tensor.conj()
    lam8 = lambda_site_operator().reshape((2,) * 8)
    chi, chi8 = tensor.chi, tensor.chi**8
    # V^x4 takes copy-pair-major rows (l_1 m_1 .. l_4 m_4) to the basis
    w = reduce(np.kron, [_hermitian_basis_columns(chi)] * 4)
    pair_major = [0, 4, 1, 5, 2, 6, 3, 7]
    pair = []
    for spec in (_CONTRACTION_A, _CONTRACTION_B):
        e = np.einsum(spec, t, t, t, t, tc, tc, tc, tc, lam8, optimize="greedy")
        e = e.reshape((chi,) * 16).transpose(pair_major + [8 + k for k in pair_major])
        pair.append(w.conj().T @ e.reshape(chi8, chi8) @ w)
    return pair


def _gaussian_tensor(chi, seed):
    rng = np.random.default_rng(seed)
    shape = (chi, chi, 2, 2)
    return MPUTensor(chi, rng.normal(size=shape) + 1j * rng.normal(size=shape))


# seeded non-unitary tensors: the copy-swap structure holds for any tensor
RANDOM_TENSORS = [pytest.param(_gaussian_tensor(chi, seed), id=f"chi{chi}-seed{seed}")
                  for chi in (1, 2) for seed in (5, 6)]


def _dense_pair_from_factors(tensor):
    """E_A / 16 and E_B / 16 as dense Kronecker sums of the factors,
    sum N'_sigma (x) N'_sigma and sum (M'_sigma (x) M'_sigma)^x2: the
    reference that the block sums must reproduce."""
    m, n = _transfer_factors(tensor)
    mm = np.einsum("sac,sbd->sabcd", m, m).reshape(n.shape)
    return [sum(np.kron(x, x) for x in f) / 16.0 for f in (n, mm)]


class TestTransferMatrices:
    @pytest.mark.parametrize("name,tensor", FACTOR_TENSORS)
    def test_factors_match_the_contraction(self, name, tensor):
        pair = transfer_matrix_pair(tensor)
        for want, got in zip(_contracted_pair(tensor), (pair.t_a, pair.t_b)):
            assert got.dtype == np.float64
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max()), name

    @pytest.mark.parametrize("name,tensor", FACTOR_TENSORS)
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


    def test_finite_call_memory_stays_bounded(self):
        # tracemalloc peak of a finite 3|3 call at chi = 2, in chi^8 x chi^8
        # float64 matrices: 1.14 measured (6.04 with the dense pair)
        assert _call_peak(mpu_zz_chain(0.3, HADAMARD), "finite") <= 1.2 * 2**16 * 8

    def test_thermodynamic_call_memory_stays_bounded(self):
        # as above: 2.07 measured (11.2 with the dense pair)
        assert _call_peak(mpu_zz_chain(0.3, HADAMARD), "thermodynamic") <= 2.2 * 2**16 * 8


def _call_peak(tensor, mode):
    """tracemalloc peak, in bytes, of a 3|3 call after a warm-up call."""
    pauli_power_mpu(tensor, 3, 3, mode=mode)
    tracemalloc.start()
    try:
        pauli_power_mpu(tensor, 3, 3, mode=mode)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCopySwapBlocks:
    @pytest.mark.parametrize("dim", [1, 4, 9])
    def test_swap_basis_splits_the_copy_swap(self, dim):
        o, n_sym = _swap_basis(dim)
        # the permutation matrix of (a, b) -> (b, a)
        swap = np.eye(dim * dim).reshape(dim, dim, -1).transpose(1, 0, 2).reshape(dim * dim, -1)
        assert n_sym == dim * (dim + 1) // 2
        assert np.abs(o @ o.T - np.eye(dim * dim)).max() <= 1e-15
        assert np.array_equal(o[:n_sym] @ swap, o[:n_sym])
        assert np.array_equal(o[n_sym:] @ swap, -o[n_sym:])

    @pytest.mark.parametrize("tensor", RANDOM_TENSORS)
    def test_copy_pair_factors_have_no_cross_blocks(self, tensor):
        m, n = _transfer_factors(tensor)
        o, n_sym = _swap_basis(tensor.chi**2)
        for f in (n, np.einsum("sac,sbd->sabcd", m, m).reshape(n.shape)):
            r = o @ f @ o.T
            cross = max(np.abs(r[:, :n_sym, n_sym:]).max(initial=0.0),
                        np.abs(r[:, n_sym:, :n_sym]).max(initial=0.0))
            assert cross <= 1e-14 * np.abs(r).max()

    @pytest.mark.parametrize("tensor", RANDOM_TENSORS)
    def test_contracted_pair_is_block_diagonal(self, tensor):
        # in the basis O (x) O of copies (1 2)(3 4) the contracted E_A and E_B
        # vanish outside the four blocks, and the pair swap (13)(24) takes the
        # (symmetric, antisymmetric) block to the (antisymmetric, symmetric) one
        dim = tensor.chi**2
        o, n_sym = _swap_basis(dim)
        q = np.kron(o, o)
        sym = np.arange(dim * dim) < n_sym
        kind = (2 * sym[:, None] + sym[None, :]).ravel()  # symmetric in pair (1 2), in (3 4)
        inside = np.equal.outer(kind, kind)
        blocks = _transfer_blocks(*_transfer(tensor)[2:])
        assert [b.shape[-1] for b, _ in blocks] == [n_sym**2, n_sym * (dim * dim - n_sym),
                                                    (dim * dim - n_sym) ** 2]
        for e in _contracted_pair(tensor):
            f = q @ e.real @ q.T
            scale = np.abs(f).max()
            assert np.abs(f[~inside]).max(initial=0.0) <= 1e-13 * scale
            g = f.reshape((dim * dim,) * 4)
            mixed = g[:n_sym, n_sym:, :n_sym, n_sym:]
            assert np.abs(g[n_sym:, :n_sym, n_sym:, :n_sym] - mixed.transpose(1, 0, 3, 2)).max(
                initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("tensor", RANDOM_TENSORS)
    def test_block_traces_match_the_dense_pair(self, tensor):
        pair = transfer_matrix_pair(tensor)
        blocks = _transfer_blocks(*_transfer(tensor)[2:])
        for pa in range(1, 5):
            for pb in range(1, 5):
                want = np.trace(np.linalg.matrix_power(pair.t_a, pa)
                                @ np.linalg.matrix_power(pair.t_b, pb))
                got = sum(k * np.trace(np.linalg.matrix_power(b[0], pa)
                                       @ np.linalg.matrix_power(b[1], pb)) for b, k in blocks)
                assert abs(got - want) <= 1e-12 * abs(want), (pa, pb)

    @pytest.mark.parametrize("name,tensor", FACTOR_TENSORS)
    def test_power_matches_the_dense_pair(self, name, tensor):
        e_a, e_b = _dense_pair_from_factors(tensor)
        powers_a, powers_b = [e_a], [e_b]
        for _ in range(7):
            powers_a.append(powers_a[-1] @ e_a)
            powers_b.append(powers_b[-1] @ e_b)
        for n_a in range(1, 9):
            for n_b in range(1, 9):
                want = 1.0 - np.sum(powers_a[n_a - 1] * powers_b[n_b - 1].T)
                assert abs(pauli_power_mpu(tensor, n_a, n_b) - want) <= 1e-12, (name, n_a, n_b)
        want = 1.0 - np.trace(np.linalg.matrix_power(e_a, 200) @ np.linalg.matrix_power(e_b, 200))
        assert abs(pauli_power_mpu(tensor, 200, 200) - want) <= 1e-10, name
        _, ra, la = _dominant_pair(e_a)
        _, rb, lb = _dominant_pair(e_b)
        want = 1.0 - (la @ rb) * (lb @ ra) / ((la @ ra) * (lb @ rb))
        assert abs(pauli_power_mpu(tensor, 0, 0, mode="thermodynamic") - want) <= 1e-12, name


def _non_unitary_tensor():
    return MPUTensor(2, np.random.default_rng(1).normal(size=(2, 2, 2, 2)))


class TestClosureDefect:
    def test_matches_the_dense_closure(self):
        for name, tensor in FACTOR_TENSORS + [("random", _non_unitary_tensor())]:
            for n in (1, 3, 4, 5):
                t = tensor.tensor
                acc = t
                for _ in range(n - 1):
                    acc = np.einsum("abST,bcst->acSsTt", acc, t)
                    acc = acc.reshape(tensor.chi, tensor.chi, acc.shape[2] * 2, -1)
                u = np.einsum("aaST->ST", acc)
                want = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) ** 2 / u.shape[0]
                assert abs(closure_defect(tensor, n) - want) <= 1e-12 * max(1.0, want), (name, n)

    @pytest.mark.parametrize("name,tensor", FACTOR_TENSORS)
    def test_reference_tensors_are_unitary_at_every_length(self, name, tensor):
        worst = max(closure_defect(tensor, n) for n in range(1, 41))
        assert worst <= 1e-14 < CLOSURE_DEFECT_TOL, name

    @pytest.mark.parametrize("mode", ["finite", "thermodynamic"])
    def test_non_unitary_tensor_rejected(self, mode):
        assert closure_defect(_non_unitary_tensor(), 4) > 100.0
        with pytest.raises(NotUnitaryClosure):
            pauli_power_mpu(_non_unitary_tensor(), 2, 2, mode=mode)

    def test_scaled_unitary_tensor_rejected_in_thermodynamic_mode(self):
        # both dominant eigenvalues are 1/256: a product below 1 is no limit either
        tensor = MPUTensor(2, 0.5 * mpu_zz_chain(0.3).tensor)
        assert abs(closure_defect(tensor, 40) - 1.0) < 1e-12
        with pytest.raises(NotUnitaryClosure, match="is not 1"):
            pauli_power_mpu(tensor, 0, 0, mode="thermodynamic")

    @pytest.mark.parametrize("chi", [1, 2])
    def test_rescaled_non_unitary_tensors_rejected_in_thermodynamic_mode(self, chi):
        # scaled so that the dominant eigenvalue product of E_A/16 and E_B/16
        # is 1, which alone does not make the closure unitary
        for seed in range(10):
            tensor = _gaussian_tensor(chi, seed)
            pair = transfer_matrix_pair(tensor)
            lead = np.prod([np.abs(np.linalg.eigvals(e / 16.0)).max()
                            for e in (pair.t_a, pair.t_b)])
            tensor = MPUTensor(chi, tensor.tensor * lead ** (-1 / 16))
            with pytest.raises(NotUnitaryClosure):
                pauli_power_mpu(tensor, 0, 0, mode="thermodynamic")

    @pytest.mark.parametrize("name,tensor", FACTOR_TENSORS)
    def test_reference_tensors_pass_the_unitary_limit_gate(self, name, tensor):
        # the sigma = I factor spectra are {1, 0, ...}
        m, n = _transfer_factors(tensor)
        for f in (m[0], n[0]):
            mags = np.sort(np.abs(np.linalg.eigvals(f / 2.0)))[::-1]
            assert abs(mags[0] - 1.0) <= 1e-15 and mags[1:].max(initial=0.0) <= 1e-15, name
        _check_unitary_limit(m, n)

    def test_nan_tensor_rejected(self):
        with pytest.raises(NotUnitaryClosure):
            pauli_power_mpu(MPUTensor(1, np.full((1, 1, 2, 2), np.nan)), 1, 1)

    @pytest.mark.parametrize("mode", ["finite", "thermodynamic"])
    def test_nan_bond_tensor_rejected(self, mode):
        # at chi = 2 eigvals would meet the NaNs first, with a LinAlgError
        with pytest.raises(NotUnitaryClosure):
            pauli_power_mpu(MPUTensor(2, np.full((2, 2, 2, 2), np.nan)), 1, 1, mode=mode)


class TestThermodynamic:
    def test_matches_finite_limit(self):
        for name, tensor in FACTOR_TENSORS:
            th = pauli_power_mpu(tensor, 0, 0, mode="thermodynamic")
            fin = pauli_power_mpu(tensor, 7, 7)
            assert abs(th - fin) < 1e-8, name

    def test_long_finite_chain_stays_near_the_limit(self):
        # each power of E/16 stays bounded: 16^400 overflows a float
        for name, tensor in TENSORS:
            th = pauli_power_mpu(tensor, 0, 0, mode="thermodynamic")
            assert abs(pauli_power_mpu(tensor, 200, 200) - th) < 1e-8, name

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
        m = np.diag([1.0, 1.0, 0.3, 0.1])
        with pytest.raises(DegenerateLeadingEigenvalue):
            _dominant_pair(m)

    def test_near_degenerate_rejected(self):
        m = np.diag([1.0, 1.0 - 1e-10, 0.3])
        with pytest.raises(DegenerateLeadingEigenvalue):
            _dominant_pair(m)

    def test_dominant_pair_of_normal_matrix(self):
        m = np.diag([0.9, 0.2, 0.1])
        lead, r, l = _dominant_pair(m)
        assert abs(lead - 0.9) < 1e-12
        assert abs(abs(r[0]) - 1.0) < 1e-12 and abs(abs(l[0]) - 1.0) < 1e-12
