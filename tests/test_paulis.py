import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulient.errors import InvalidGeneratorImages, SizeLimitExceeded
from paulient.paulis import (
    CliffordTableau,
    PauliString,
    _parity_sectors,
    _phase_grid,
    _phase_power,
    _wht_real,
    _xor_index,
    apply_pauli,
    clifford_from_generator_images,
    clifford_to_dense,
    fix_global_phase,
    operator_from_pauli_table,
    pauli_commutes,
    pauli_expectation_table,
    pauli_multiply,
    pauli_mul_matrix,
    pauli_to_dense,
    pauli_trace_table,
    random_clifford,
    random_pauli,
)
from paulient.spinchain import TFIMModel, XYZModel, build_hamiltonian

from conftest import HADAMARD, S_GATE, CNOT, dense_pauli


def P(label):
    return PauliString.from_label(label)


class TestMultiplication:
    def test_single_qubit_examples(self):
        r, c = pauli_multiply(P("X"), P("Y"))
        assert str(r) == "+Z" and c == 1j
        r, c = pauli_multiply(P("X"), P("X"))
        assert r.is_identity and c == 1

    def test_two_qubit_against_dense_oracle(self):
        r, c = pauli_multiply(P("XZ"), P("YZ"))
        assert str(r) == "+ZI"
        lhs = dense_pauli("XZ") @ dense_pauli("YZ")
        assert np.allclose(lhs, c * dense_pauli("ZI"))
        assert c == 1j

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_matches_dense_oracle(self, n, data):
        i = data.draw(st.integers(0, 4**n - 1))
        j = data.draw(st.integers(0, 4**n - 1))
        p = PauliString.from_index(n, i)
        q = PauliString.from_index(n, j)
        r, c = pauli_multiply(p, q)
        assert np.allclose(
            pauli_to_dense(p) @ pauli_to_dense(q), c * pauli_to_dense(r), atol=1e-13
        )

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_cocycle_antisymmetry(self, n, data):
        p = PauliString.from_index(n, data.draw(st.integers(0, 4**n - 1)))
        q = PauliString.from_index(n, data.draw(st.integers(0, 4**n - 1)))
        _, c_pq = pauli_multiply(p, q)
        _, c_qp = pauli_multiply(q, p)
        assert c_qp == np.conj(c_pq)

    def test_associativity_dense(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 4))
            p, q, r = (random_pauli(n, rng) for _ in range(3))
            pq, c1 = pauli_multiply(p, q)
            pq_r, c2 = pauli_multiply(pq, r)
            qr, c3 = pauli_multiply(q, r)
            p_qr, c4 = pauli_multiply(p, qr)
            assert pq_r == p_qr
            assert abs(c1 * c2 - c3 * c4) < 1e-14

    def test_qubit_mismatch(self):
        with pytest.raises(ValueError):
            pauli_multiply(P("X"), P("XX"))

    def test_phase_power_is_exact(self):
        for k, c in enumerate((1, 1j, -1, -1j)):
            assert _phase_power(c) == k
        with pytest.raises(ValueError):
            _phase_power(0.7 + 0.7j)


class TestCommutation:
    def test_examples(self):
        assert not pauli_commutes(P("X"), P("Z"))
        assert pauli_commutes(P("XX"), P("ZZ"))

    def test_three_qubit_dense_oracle(self):
        p, q = P("XZI"), P("YYX")
        dp, dq = dense_pauli("XZI"), dense_pauli("YYX")
        assert pauli_commutes(p, q) == np.allclose(dp @ dq, dq @ dp)

    def test_exhaustive_two_qubits(self):
        for i in range(16):
            for j in range(16):
                p = PauliString.from_index(2, i)
                q = PauliString.from_index(2, j)
                dp, dq = pauli_to_dense(p), pauli_to_dense(q)
                commutes = np.allclose(dp @ dq, dq @ dp)
                assert pauli_commutes(p, q) == commutes
                # commuting pairs have a real (+-1) cocycle, anticommuting +-i
                _, c = pauli_multiply(p, q)
                _, c_rev = pauli_multiply(q, p)
                assert (c == c_rev) == commutes


class TestDense:
    def test_examples(self):
        assert np.array_equal(pauli_to_dense(P("I")), np.eye(2))
        assert np.allclose(pauli_to_dense(P("Y")), np.array([[0, -1j], [1j, 0]]))
        xz = pauli_to_dense(P("XZ"))
        assert np.allclose(xz, dense_pauli("XZ"))
        assert np.allclose(xz[2:, :2], np.diag([1, -1]))
        assert np.allclose(xz[:2, 2:], np.diag([1, -1]))
        assert np.allclose(xz[:2, :2], 0)

    def test_phase_and_hermiticity(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = random_pauli(n, rng)
            m = pauli_to_dense(p)
            assert np.allclose(m @ m.conj().T, np.eye(2**n), atol=1e-13)
            assert np.allclose(m, m.conj().T)  # phase-0 strings are Hermitian
            m_i = pauli_to_dense(PauliString(n, p.x, p.z, 1))
            assert np.allclose(m_i, 1j * m)

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            pauli_to_dense(PauliString(13, 0, 0, 0))

    def test_apply_and_mul_matrix(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            p = random_pauli(n, rng)
            d = 2**n
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            dp = pauli_to_dense(p)
            assert np.allclose(apply_pauli(p, v), dp @ v)
            assert np.allclose(pauli_mul_matrix(p, m), dp @ m)


class TestRandomPauli:
    def test_uniform_frequencies(self):
        rng = np.random.default_rng(7)
        draws = 100_000
        counts = np.zeros(64)
        for _ in range(draws):
            counts[random_pauli(3, rng).index] += 1
        expect = draws / 64
        sigma = np.sqrt(draws * (1 / 64) * (1 - 1 / 64))
        assert np.all(np.abs(counts - expect) <= 4 * sigma)


class TestTables:
    def test_walsh_hadamard_small(self):
        out = _wht_real(np.array([[1.0], [2.0]]))
        assert np.array_equal(out, [[3.0], [-1.0]])

    def test_trace_table_oracle(self, rng):
        for n in (1, 2, 3):
            d = 2**n
            op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            table = pauli_trace_table(op)
            for k in range(4**n):
                p = PauliString.from_index(n, k)
                assert abs(table[p.x, p.z] - np.trace(op @ pauli_to_dense(p))) < 1e-10
            # [x, z] in memory order, and a stack is the tables of its members
            assert table.flags.c_contiguous
            stack = np.stack([op, op.conj(), op.T])
            assert np.array_equal(pauli_trace_table(stack),
                                  np.stack([pauli_trace_table(m) for m in stack]))

    def test_operator_from_table_is_the_adjoint(self, rng):
        for n in (1, 2, 3):
            d = 2**n
            table = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            dense = sum(table[p.x, p.z] * pauli_to_dense(p)
                        for p in (PauliString.from_index(n, k) for k in range(4**n)))
            assert np.abs(operator_from_pauli_table(table) - dense).max() < 1e-12
            # <table, T(op)> = <T^dag(table), op> in the Hilbert-Schmidt product
            op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            lhs = np.vdot(table, pauli_trace_table(op))
            rhs = np.vdot(operator_from_pauli_table(table), op)
            assert abs(lhs - rhs) < 1e-10
            assert np.abs(operator_from_pauli_table(pauli_trace_table(op) / d) - op).max() < 1e-12

    def test_phase_grid_cached_read_only(self):
        # the phase grid and the gather index share one cache rule
        for n in range(9):
            d = 2**n
            grid, index = _phase_grid(d), _xor_index(d)
            want = np.array([[1j ** bin(x & z).count("1") for z in range(d)] for x in range(d)])
            assert np.array_equal(grid, want) and not grid.flags.writeable
            assert (_phase_grid(d) is grid) == (d <= 64)
            want = np.array([[y * d + (y ^ x) for x in range(d)] for y in range(d)])
            assert np.array_equal(index, want) and not index.flags.writeable
            assert (_xor_index(d) is index) == (d <= 64)

    def test_expectation_table_oracle(self, rng):
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        table = pauli_expectation_table(psi)
        for k in range(64):
            p = PauliString.from_index(3, k)
            direct = np.vdot(psi, pauli_to_dense(p) @ psi)
            assert abs(table[p.x, p.z] - direct) < 1e-12
        # the same products through the same transform: equal, not just close
        assert np.array_equal(table, pauli_trace_table(np.outer(psi, psi.conj())))


def hadamard_tableau():
    return clifford_from_generator_images([(P("Z"), 1), (P("X"), 1)])


def s_tableau():
    return clifford_from_generator_images([(P("Y"), 1), (P("Z"), 1)])


def cnot_tableau():
    return clifford_from_generator_images(
        [(P("XX"), 1), (P("IX"), 1), (P("ZI"), 1), (P("ZZ"), 1)]
    )


class TestCliffordConjugation:
    def test_hadamard(self):
        img, sign = hadamard_tableau().conjugate(P("X"))
        assert str(img) == "+Z" and sign == 1
        assert np.allclose(HADAMARD @ dense_pauli("X") @ HADAMARD.conj().T,
                           sign * dense_pauli("Z"))

    def test_cnot(self):
        img, sign = cnot_tableau().conjugate(P("XI"))
        assert str(img) == "+XX" and sign == 1
        assert np.allclose(CNOT @ dense_pauli("XI") @ CNOT.conj().T,
                           sign * dense_pauli("XX"))

    def test_phase_gate(self):
        img, sign = s_tableau().conjugate(P("X"))
        assert str(img) == "+Y" and sign == 1
        assert np.allclose(S_GATE @ dense_pauli("X") @ S_GATE.conj().T,
                           sign * dense_pauli("Y"))

    def test_random_pairs_match_dense(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            c = random_clifford(n, rng)
            u = clifford_to_dense(c)
            p = random_pauli(n, rng)
            img, sign = c.conjugate(p)
            assert sign in (1, -1)
            assert np.allclose(
                u @ pauli_to_dense(p) @ u.conj().T,
                sign * pauli_to_dense(img),
                atol=1e-10,
            )


class TestGeneratorImages:
    def test_identity(self):
        n = 3
        images = [(PauliString(n, 1 << (n - 1 - i), 0, 0), 1) for i in range(n)]
        images += [(PauliString(n, 0, 1 << (n - 1 - i), 0), 1) for i in range(n)]
        assert clifford_from_generator_images(images) == CliffordTableau.identity(n)

    def test_hadamard_defining_relation(self):
        c = hadamard_tableau()
        assert c.conjugate(P("X")) == (P("Z"), 1)
        assert c.conjugate(P("Z")) == (P("X"), 1)

    def test_signed_image_dense_verification(self):
        c = clifford_from_generator_images([(P("Y"), -1), (P("Z"), 1)])
        u = clifford_to_dense(c)
        assert np.allclose(u @ dense_pauli("X") @ u.conj().T, -dense_pauli("Y"),
                           atol=1e-10)

    def test_symplectic_violation_rejected(self):
        with pytest.raises(InvalidGeneratorImages):
            clifford_from_generator_images([(P("X"), 1), (P("X"), 1)])

    def test_round_trip(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            c = random_clifford(n, rng)
            rebuilt = clifford_from_generator_images([c.row_pauli(i) for i in range(2 * n)])
            assert rebuilt == c


class TestRandomClifford:
    def test_single_qubit_exhaustive_uniformity(self):
        rng = np.random.default_rng(123)
        draws = 24_000
        counts = {}
        for _ in range(draws):
            c = random_clifford(1, rng)
            key = (c.mat.tobytes(), c.signs.tobytes())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        expect = draws / 24
        sigma = np.sqrt(draws * (1 / 24) * (1 - 1 / 24))
        assert all(abs(v - expect) <= 4 * sigma for v in counts.values())

    def test_symplectic_invariant(self, rng):
        for _ in range(20):
            assert random_clifford(int(rng.integers(1, 6)), rng).is_symplectic()

    def test_seeded_determinism(self):
        a = random_clifford(4, np.random.default_rng(99))
        b = random_clifford(4, np.random.default_rng(99))
        assert a == b


class TestCliffordDense:
    def test_identity(self):
        u = clifford_to_dense(CliffordTableau.identity(2))
        assert np.allclose(u, np.eye(4))

    def test_hadamard_up_to_phase(self):
        u = clifford_to_dense(hadamard_tableau())
        assert np.allclose(fix_global_phase(u), fix_global_phase(HADAMARD), atol=1e-12)

    def test_random_three_qubit_exhaustive_conjugation(self, rng):
        c = random_clifford(3, rng)
        u = clifford_to_dense(c)
        assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-12)
        for k in range(64):
            p = PauliString.from_index(3, k)
            img, sign = c.conjugate(p)
            assert np.allclose(u @ pauli_to_dense(p) @ u.conj().T,
                               sign * pauli_to_dense(img), atol=1e-10)


    def test_columns_match_per_column_conjugation(self):
        # column 0 is the stabilizer state, and column b is the image of X^b
        # applied to it; signs and Pauli phases are exact, so every column is ==
        rng = np.random.default_rng(611)
        for n in range(1, 6):
            for _ in range(6):
                c = random_clifford(n, rng)
                u = clifford_to_dense(c)
                for b in range(2**n):
                    img, sign = c.conjugate(PauliString(n, b, 0, 0))
                    assert np.array_equal(u[:, b], sign * apply_pauli(img, u[:, 0])), (n, b)


class TestCliffordInverse:
    def test_inverse_composes_to_identity(self):
        for n in range(1, 6):
            for seed in range(4):
                c = random_clifford(n, np.random.default_rng(100 * n + seed))
                inv = c.inverse()
                identity = CliffordTableau.identity(n)
                assert inv.compose(c) == identity == c.compose(inv)

    def test_inverse_is_the_dense_adjoint(self):
        for n in range(1, 6):
            for seed in range(2):
                c = random_clifford(n, np.random.default_rng(200 * n + seed))
                assert np.allclose(clifford_to_dense(c.inverse()),
                                   fix_global_phase(clifford_to_dense(c).conj().T),
                                   atol=1e-10)


class TestLabels:
    def test_round_trip(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            p = PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)),
                            int(rng.integers(0, 4)))
            assert PauliString.from_label(str(p)) == p

    def test_from_index_enumerates_group(self):
        strings = [PauliString.from_index(1, k) for k in range(4)]
        assert strings[0].is_identity
        assert {str(s) for s in strings} == {"+I", "+X", "+Z", "+Y"}
        assert [PauliString.from_index(3, k).index for k in range(64)] == list(range(64))

    def test_prefixes(self):
        assert PauliString.from_label("-iY").phase_exp == 3
        assert str(PauliString.from_label("+XIZY")) == "+XIZY"
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")


class TestParitySectors:
    def test_only_exact_zeros_split(self):
        h = build_hamiltonian(XYZModel(n_sites=4, j_z=0.3))
        even, odd = _parity_sectors(h)
        assert list(even) == [i for i in range(16) if i.bit_count() % 2 == 0]
        assert list(odd) == [i for i in range(16) if i.bit_count() % 2 == 1]
        for coupling in (1e-300, -0.0 + 1e-300j, np.nan):
            joined = h.copy()
            joined[3, 7] = coupling  # 3 is even, 7 odd
            assert _parity_sectors(joined) is None
        signed = h.copy()
        signed[3, 7] = -0.0
        assert _parity_sectors(signed) is not None
        assert _parity_sectors(build_hamiltonian(TFIMModel(n_sites=4))) is None
        assert [list(s) for s in _parity_sectors(np.diag([1.0, -1.0]))] == [[0], [1]]
        assert [list(s) for s in _parity_sectors(np.eye(1))] == [[0], []]
