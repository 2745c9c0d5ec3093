import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from paulient import _threads
from paulient.entpower import (
    _pauli_g_table,
    _string_elin,
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
from paulient.paulis import (
    PauliString,
    _CHUNK_ENTRIES,
    _SectorLayout,
    _operator_pauli_probs,
    _wht_real,
    clifford_to_dense,
    pauli_mul_matrix,
    random_clifford,
    random_pauli,
)
from paulient.spinchain import HamiltonianPropagator, XYZModel, build_hamiltonian
from paulient.stats import run_until_converged

from conftest import (
    CNOT,
    T_GATE,
    dense_pauli,
    oracle_elin,
    oracle_local_magic_bound,
    oracle_pauli_power,
)


BP11 = Bipartition(1, 1)


def u_xx(theta=np.pi / 8):
    return scipy.linalg.expm(-1j * theta * dense_pauli("XX"))


def oracle_string_elin(u, p, n_a, n_b):
    """E_lin(U^dag P U) from the dense string, reshuffle and SVD."""
    label = str(p)[1:]  # phase-0 strings print as "+" and the letters
    return oracle_elin(u.conj().T @ dense_pauli(label) @ u, n_a, n_b)


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

    def test_reduce_matches_exactly_rounded_sum(self, rng):
        # P_E from numpy's pairwise sum of g^2 against math.fsum of the same
        # table, on XYZ U_t (two parity sectors) and Haar U, N = 2 to 8
        for n in range(2, 9):
            bp = Bipartition(n // 2, n - n // 2)
            us = [haar_random_unitary(bp.d, rng)]
            if n >= 3:
                model = XYZModel(n_sites=n, j_z=0.3)
                us.append(HamiltonianPropagator(build_hamiltonian(model)).unitary_at(2.0))
            for u in us:
                g = _pauli_g_table(u, bp, _SectorLayout.find(u))
                want = 1.0 - math.fsum((g**2).ravel().tolist()) / float(bp.d) ** 4
                assert abs(pauli_entangling_power(u, bp).value - want) <= 2e-15, n

    def test_g_table_across_pair_blocks_matches_partial_trace(self):
        # At N = 7 the smaller block has 8 states: 36 pairs.  A Haar U (one
        # sector) takes them in blocks of 2^17 // 128^2 = 8, so the last block
        # (4 pairs) is ragged; an XYZ U_t (two parity sectors) in blocks of 16
        # of one q = par(k1) ^ par(k2), 20 with q = 0 (the last block ragged)
        # and 16 with q = 1.  4|3 keeps B and takes the transpose branch.  The
        # table traces the larger block, so the oracle does too.
        rng = np.random.default_rng(77)
        n, d = 7, 128
        model = XYZModel(n_sites=n, j_z=0.4)
        xyz = HamiltonianPropagator(build_hamiltonian(model)).unitary_at(1.3)
        assert len(_SectorLayout.find(xyz).index) == 2
        entries = [(0, 0), (0, 1 + int(rng.integers(d - 1))),
                   (1 + int(rng.integers(d - 1)), 0), (d - 1, d - 1)]
        entries += [tuple(int(v) for v in rng.integers(0, d, size=2)) for _ in range(36)]
        for u in (haar_random_unitary(d, rng), xyz):
            for n_a in (3, 4):
                da, db = 2**n_a, 2 ** (n - n_a)
                table = _pauli_g_table(u, Bipartition(n_a, n - n_a), _SectorLayout.find(u))
                for x, z in entries:
                    label = "".join("IZXY"[2 * ((x >> s) & 1) + ((z >> s) & 1)]
                                    for s in range(n - 1, -1, -1))
                    evolved = (u.conj().T @ dense_pauli(label) @ u).reshape(da, db, da, db)
                    k = np.einsum("ibjb->ij" if da <= db else "aiaj->ij", evolved)
                    want = np.trace(k @ k).real
                    assert abs(table[x, z] - want) <= 1e-10 * want, (n_a, x, z)

    def test_sector_g_table_matches_one_sector_path(self):
        # one 1e-300 entry between the sectors joins them (no tolerance) but
        # moves no digit of U, so the joined U takes the one-sector case of
        # the same kernel on the same numbers
        for n in range(4, 10):
            model = XYZModel(n_sites=n, j_z=0.3)
            u = HamiltonianPropagator(build_hamiltonian(model)).unitary_at(2.0)
            joined = u.copy()
            joined[0, 1] = 1e-300
            layout, one = _SectorLayout.find(u), _SectorLayout.find(joined)
            assert (len(layout.index), len(one.index)) == (2, 1)
            for n_a in range(1, n):
                bp = Bipartition(n_a, n - n_a)
                want = _pauli_g_table(joined, bp, one)
                got = _pauli_g_table(u, bp, layout)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want), (n, n_a)

    def test_sector_path_gives_exact_zero_on_diagonal_phases(self):
        # U_0 = I and a product of diagonal phase gates diag(1, i^k): every
        # entry of the kernel is a Gaussian integer, so P_E is exactly 0
        rng = np.random.default_rng(78)
        for n in range(2, 9):
            phases = np.ones(1)
            for k in rng.integers(0, 4, n):
                phases = np.kron(phases, [1.0, 1j**k])
            for u in (np.eye(2**n, dtype=complex), np.diag(phases)):
                assert len(_SectorLayout.find(u).index) == 2
                for n_a in range(1, n):
                    assert pauli_entangling_power(u, Bipartition(n_a, n - n_a)).value == 0.0

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
        _threads._drop_kept_sets()  # a cold call makes its buffer sets
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
            # the axis first, in the middle, and a complex stack viewed as
            # float64 (re, im) pairs
            cplx = rng.standard_normal((3, n, 2)) + 1j * rng.standard_normal((3, n, 2))
            for a in (rng.standard_normal((n, 3)), rng.standard_normal((2, n, 3)),
                      cplx.view(np.float64)):
                want = np.moveaxis(np.tensordot(h, a, axes=(1, -2)), 0, -2)
                assert np.allclose(_wht_real(a), want, rtol=0.0, atol=1e-12 * n)
                # the given scratch and out buffers, with out the input itself
                got = a.copy()
                _wht_real(got, scratch=np.empty_like(a), out=got)
                assert np.array_equal(got, _wht_real(a))
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

    def test_string_values_match_oracle(self):
        rng = np.random.default_rng(606)
        haar8 = haar_random_unitary(8, rng)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        haar16 = haar_random_unitary(16, rng)
        # (unitary, split, string indices); index < 2^N means x = 0.  q is
        # real orthogonal, and haar16.T is a view that is not C-contiguous.
        cases = [(haar8, (1, 2), range(64)), (haar8, (2, 1), range(64)),
                 (q, (2, 2), range(256)), (q, (1, 3), range(256)),
                 (haar16.T, (2, 2), range(256))]
        for n_a, n_b in [(3, 4), (4, 3), (4, 5), (5, 4)]:
            n = n_a + n_b
            count = 12 if n == 7 else 4
            picks = [int(k) for k in rng.integers(1, 2**n, 2)]  # x = 0, z != 0
            picks += [int(k) for k in rng.integers(0, 4**n, count)]
            cases.append((haar_random_unitary(2**n, rng), (n_a, n_b), picks))
        for u, (n_a, n_b), picks in cases:
            string_elin, new_set = _string_elin(u, Bipartition(n_a, n_b), _SectorLayout.find(u))
            buffers = new_set()
            assert string_elin(PauliString.identity(n_a + n_b), buffers) == 0.0
            for k in picks:
                p = PauliString.from_index(n_a + n_b, k)
                want = oracle_string_elin(u, p, n_a, n_b)
                assert abs(string_elin(p, buffers) - want) <= 1e-12, (n_a, n_b, k)

    def test_estimator_matches_oracle_draws(self):
        # the same draws in the same order, pushed through the same rule,
        # whatever the per-string kernel
        model = XYZModel(n_sites=6, j_z=0.4)
        u = HamiltonianPropagator(build_hamiltonian(model)).unitary_at(1.0)
        bp = Bipartition(3, 3)
        for fixed, sem_target in ((40, 2e-2), (None, 4e-3)):
            est = pauli_entangling_power(u, bp, mode="sampled", rng=np.random.default_rng(8),
                                         sem_target=sem_target, n_samples=fixed)
            rng = np.random.default_rng(8)
            draws = (oracle_string_elin(u, random_pauli(6, rng), 3, 3)
                     for _ in itertools.count())
            n_min, cap = (32, 1_000_000) if fixed is None else (fixed, fixed)
            acc, _ = run_until_converged(draws, sem_target, 1.0, n_min, cap)
            assert est.n_samples == acc.n and (fixed is not None or acc.n > 32)
            assert abs(est.value - acc.mean) <= 1e-12

    def test_pooled_strings_match_the_serial_loop(self):
        # the loop that draws and evaluates one string at a time on the
        # caller's thread; a GEMM's summation order follows the BLAS thread
        # count, so values agree to 1e-14 and counts and draws exactly.  The
        # XYZ U_t has two parity sectors, a Haar U one.
        for (n_a, n_b), kind in itertools.product([(4, 4), (4, 5), (5, 4)], ("xyz", "haar")):
            bp = Bipartition(n_a, n_b)
            model = XYZModel(n_sites=bp.n_qubits, j_z=0.3)
            u = (HamiltonianPropagator(build_hamiltonian(model)).unitary_at(2.0) if kind == "xyz"
                 else haar_random_unitary(bp.d, np.random.default_rng(bp.n_a)))
            layout = _SectorLayout.find(u)
            assert len(layout.index) == (2 if kind == "xyz" else 1)
            # Haar strings spread far less (a standard error of 1.4e-5 after
            # 8 strings at N = 8, 2.7e-6 at N = 9), so their rule needs a
            # lower target to stop past the first n_min strings
            target = 7e-4 if kind == "xyz" else {8: 5e-6, 9: 1e-6}[bp.n_qubits]
            for fixed, sem_target in ((None, target), (20, 2e-2)):
                rng = np.random.default_rng(43)
                est = pauli_entangling_power(u, bp, mode="sampled", rng=rng, min_samples=8,
                                             sem_target=sem_target, n_samples=fixed)
                serial_rng = np.random.default_rng(43)
                string_elin, new_set = _string_elin(u, bp, layout)
                buffers = new_set()
                draws = (string_elin(random_pauli(bp.n_qubits, serial_rng), buffers)
                         for _ in itertools.count())
                n_min, cap = (8, 1_000_000) if fixed is None else (fixed, fixed)
                acc, _ = run_until_converged(draws, sem_target, 1.0, n_min, cap)
                assert est.n_samples == acc.n and (fixed is not None or acc.n > 8)
                assert rng.integers(1 << 62) == serial_rng.integers(1 << 62)
                assert abs(est.value - acc.mean) <= 1e-14, (n_a, n_b, kind, fixed)

    def test_sampled_peak_memory_at_nine_qubits(self):
        # without sectors one buffer set is 8.5 MiB at 4|5 and the budget
        # fits two, which share one contiguous u and one pair of 2 MiB gather
        # indices: 21.3 MiB measured; a third set, or indices per thread,
        # would not fit.  With parity sectors a set is 3.6 MiB, and the two
        # sector blocks of u (2 MiB) are shared too.
        model = XYZModel(n_sites=9, j_z=0.3)
        for u in (haar_random_unitary(512, np.random.default_rng(3)),
                  HamiltonianPropagator(build_hamiltonian(model)).unitary_at(2.0)):
            _threads._drop_kept_sets()
            tracemalloc.start()
            try:
                pauli_entangling_power(u, Bipartition(4, 5), mode="sampled",
                                       rng=np.random.default_rng(1), n_samples=12)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 24 * 2**20

    def test_sector_strings_match_oracle(self):
        # every string class on a U_t with two parity sectors and on a Haar U
        # (one sector): the identity, x = 0 (including z = 1...1, whose +1
        # rows fill one sector), even x, odd x; and both cuts
        rng = np.random.default_rng(909)
        for n in range(5, 10):
            model = XYZModel(n_sites=n, j_z=0.4)
            xyz = HamiltonianPropagator(build_hamiltonian(model)).unitary_at(1.7)
            full = (1 << n) - 1
            xs = [int(x) for x in rng.integers(1, full + 1, 40)]
            even = [x for x in xs if x.bit_count() % 2 == 0][:2]
            odd = [x for x in xs if x.bit_count() % 2 == 1][:2]
            picks = [PauliString(n, 0, full), PauliString(n, 0, int(rng.integers(1, full)))]
            picks += [PauliString(n, x, int(rng.integers(0, full + 1))) for x in even + odd]
            for u, n_a in itertools.product((xyz, haar_random_unitary(2**n, rng)),
                                            (n // 2, n - n // 2)):
                string_elin, new_set = _string_elin(u, Bipartition(n_a, n - n_a),
                                                    _SectorLayout.find(u))
                buffers = new_set()
                assert string_elin(PauliString.identity(n), buffers) == 0.0
                for p in picks:
                    want = oracle_string_elin(u, p, n_a, n - n_a)
                    assert abs(string_elin(p, buffers) - want) <= 1e-12, (n, n_a, str(p))

    def test_capped_call_says_the_rule_did_not_fire(self):
        u = haar_random_unitary(16, np.random.default_rng(4))
        bp = Bipartition(2, 2)
        capped = pauli_entangling_power(u, bp, mode="sampled", rng=np.random.default_rng(1),
                                        sem_target=1e-6, max_samples=40)
        assert capped.n_samples == 40 and not capped.converged
        assert pauli_entangling_power(u, bp, mode="sampled", rng=np.random.default_rng(1),
                                      sem_target=2e-1).converged
        assert pauli_entangling_power(u, bp).converged

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

    def test_basis_size_limit(self):
        # raised before the d^2 x d^4 array (256 MiB at N = 4) is allocated
        with pytest.raises(SizeLimitExceeded):
            q_projector_basis(4)

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

    @pytest.mark.parametrize("m", [2 * np.eye(4), np.ones((4, 4))], ids=["2I", "ones"])
    def test_non_unitary_rejected(self, m):
        with pytest.raises(NotUnitary):
            pauli_power_via_q(m, BP11)

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

    def test_bound_evolves_local_strings_as_u_p_udag(self):
        # tight for T after CNOT; the bound of U^dag (strings evolved as
        # U^dag P U, P_E's direction) falls below P_E on side A
        u = np.kron(np.eye(2), T_GATE) @ CNOT
        assert abs(pauli_entangling_power(u, BP11).value - 0.25) < 1e-12
        ba, bb = local_pauli_magic_bound(u, BP11)
        assert abs(ba - 0.25) < 1e-12 and abs(bb - 0.25) < 1e-12
        ba, bb = local_pauli_magic_bound(u.conj().T, BP11)
        assert abs(ba) < 1e-12 and abs(bb - 0.25) < 1e-12

    @pytest.mark.parametrize("na,nb", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 5)])
    def test_bound_matches_the_per_string_loop_and_oracle(self, na, nb, rng):
        # at 2|5 a chunk holds 8 strings: side A's 16 fill two
        bp = Bipartition(na, nb)
        u = haar_random_unitary(bp.d, rng)

        def loop(n_side, shift):  # one product and one Pauli table per string
            vals = []
            for k in range(4**n_side):
                ps = PauliString.from_index(n_side, k)
                full = PauliString(bp.n_qubits, ps.x << shift, ps.z << shift)
                probs = _operator_pauli_probs(u @ pauli_mul_matrix(full, u.conj().T))
                vals.append(1.0 - float(np.sum(probs**2)))
            return math.fsum(vals) / len(vals)

        bounds = local_pauli_magic_bound(u, bp)
        assert np.max(np.abs(np.subtract(bounds, (loop(na, nb), loop(nb, 0))))) <= 1e-14
        if bp.n_qubits <= 4:
            assert np.max(np.abs(np.subtract(bounds, oracle_local_magic_bound(u, na, nb)))) <= 1e-14

    def test_bound_memory_stays_bounded(self, rng):
        # tracemalloc peak at N = 8 (4|4), in d^2 complex entries: 6.02 when
        # each string was evolved on its own.  One chunk is alive at a time,
        # and its Pauli table's temporaries are chunk-sized: the stacked
        # strings may add two chunks (measured 9.54 d^2 = 6.02 + 1.76 chunks)
        bp = Bipartition(4, 4)
        u = haar_random_unitary(bp.d, rng)
        _threads._drop_kept_sets()
        tracemalloc.start()
        try:
            local_pauli_magic_bound(u, bp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entry = 16
        assert peak <= 6.03 * bp.d**2 * entry + 2 * max(_CHUNK_ENTRIES, bp.d**2) * entry

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
