import hashlib
from functools import reduce
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulient.errors import InvalidGeneratorImages, SizeLimitExceeded
from paulient.paulis import (
    CliffordTableau,
    PauliString,
    _CHUNK_ENTRIES,
    _I4,
    _SectorLayout,
    _conjugated_chunks,
    _f2_independent,
    _f2_nullspace,
    _parity_signs,
    _pauli_entries,
    _phase_grid,
    _symplectic_form,
    _symplectic_pairs,
    _wht_real,
    _xor_index,
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
            assert np.allclose(pauli_mul_matrix(p, v[:, None])[:, 0], dp @ v)
            assert np.allclose(pauli_mul_matrix(p, m), dp @ m)


def entries_of_one_string(p):
    """The entries of one string, computed with Python ints only: the
    reference for _pauli_entries' array form."""
    cols = np.arange(1 << p.n_qubits)
    pref = _I4[(p.phase_exp + (p.x & p.z).bit_count()) % 4]
    return cols ^ p.x, cols, pref * _parity_signs(cols & p.z)


class TestStackedEntries:
    def test_array_form_matches_single_strings(self, rng):
        cases = [(n, [PauliString(n, k >> n, k & ((1 << n) - 1), ph)
                      for k in range(4**n) for ph in range(4)]) for n in (1, 2, 3)]
        cases += [(n, [PauliString(n, *map(int, rng.integers(0, 1 << n, 2)), int(ph))
                       for ph in rng.integers(0, 4, 40)]) for n in (6, 12)]
        for n, strings in cases:
            x, z, ph = (np.array([getattr(p, f) for p in strings])[:, None]
                        for f in ("x", "z", "phase_exp"))
            rows, cols, values = _pauli_entries(n, x, z, ph)
            assert rows.shape == values.shape == (len(strings), 1 << n)
            for p, r, v in zip(strings, rows, values):
                ref_rows, ref_cols, ref_values = entries_of_one_string(p)
                one_rows, one_cols, one_values = _pauli_entries(n, p.x, p.z, p.phase_exp)
                assert np.array_equal(r, ref_rows) and np.array_equal(one_rows, ref_rows)
                assert np.array_equal(v, ref_values) and np.array_equal(one_values, ref_values)
                assert np.array_equal(cols, ref_cols) and np.array_equal(one_cols, ref_cols)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_chunks_are_the_per_string_products(self, n, rng):
        # N = 7 has 2^17 // 4^7 = 8 strings per chunk, so 21 strings leave a
        # ragged last chunk
        d = 1 << n
        a, b = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in "ab")
        indices = rng.integers(0, 4**n, 21)
        step = max(1, _CHUNK_ENTRIES // (d * d))
        chunks = list(_conjugated_chunks(a, indices, b))
        assert [start for start, _ in chunks] == list(range(0, 21, step))
        for start, stack in chunks:
            assert len(stack) == min(step, 21 - start)
            for j, product in enumerate(stack):
                p = PauliString.from_index(n, int(indices[start + j]))
                assert np.array_equal(product, a @ pauli_mul_matrix(p, b))


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

    def test_seeded_draws_keep_their_values(self):
        # up to N = 31 a draw is one rng.integers call; these values pin that stream
        for n, x, z in ((5, 7, 23), (31, 1451336747, 259338938)):
            p = random_pauli(n, np.random.default_rng(2024))
            assert (p.x, p.z) == (x, z)

    def test_wide_strings(self):
        rng = np.random.default_rng(8)
        for n in (32, 64):
            draws = [random_pauli(n, rng) for _ in range(200)]
            assert all(0 <= p.index < 4**n for p in draws)
            # 200 uniform draws: each of the 2N bits is set somewhere
            assert reduce(or_, [p.x for p in draws]) == (1 << n) - 1
            assert reduce(or_, [p.z for p in draws]) == (1 << n) - 1


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
            counts[c] = counts.get(c, 0) + 1
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

    def test_seeded_draws_keep_their_values(self):
        # the rows as 2N-bit integers at N = 5, a digest of the tableau at N = 31, 64
        c = random_clifford(5, np.random.default_rng(2024))
        assert c.rows == (124, 672, 424, 606, 569, 271, 23, 997, 668, 365)
        assert c.signs == (0, 0, 0, 1, 1, 1, 1, 1, 0, 0)
        c = random_clifford(31, np.random.default_rng(2024))
        assert hashlib.sha256(_uint8_bytes(c)).hexdigest() == \
            "ee92ecbbca87dabb9ecba7c42877f189655a242c738f4be3cace2fc922ab8dfa"
        c = random_clifford(64, np.random.default_rng(9))
        assert hashlib.sha256(_uint8_bytes(c)).hexdigest() == \
            "d12203866216c289705279d22ff43ffd69b059faa9aca8fb4156121510523019"

    def test_wide_tableaux(self):
        rng = np.random.default_rng(9)
        for n in (32, 64):
            c = random_clifford(n, rng)  # the constructor rejects non-symplectic rows
            assert len(c.rows) == len(c.signs) == 2 * n and c.is_symplectic()

    def test_no_qubits_rejected(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            random_clifford(0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one qubit"):
            CliffordTableau.identity(0)


def _bit_matrix(rows, width):
    """The 0/1 uint8 matrix of width-bit rows, column c bit width-1-c."""
    return np.array([[r >> (width - 1 - c) & 1 for c in range(width)] for r in rows],
                    dtype=np.uint8)


def _uint8_bytes(c):
    """The bytes of the tableau as a (2N, 2N) uint8 matrix, then its uint8 signs."""
    return _bit_matrix(c.rows, 2 * c.n_qubits).tobytes() + bytes(c.signs)


def _oracle_j(n):
    eye, zero = np.eye(n, dtype=np.uint8), np.zeros((n, n), dtype=np.uint8)
    return np.block([[zero, eye], [eye, zero]])


class TestTableauRows:
    """The tableau on its 2N integer rows, against the uint8 matrix M with
    M J M^T = J and inverse J M^T J (entries stay below 2N + 1 <= 255)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 64])
    def test_symplectic_and_inverse_match_the_matrix_oracle(self, n, rng):
        width, j = 2 * n, _oracle_j(n)
        for _ in range(4 if n <= 8 else 1):
            c = random_clifford(n, rng)
            m = _bit_matrix(c.rows, width)
            assert c.is_symplectic() and np.array_equal(m @ j @ m.T % 2, j)
            assert np.array_equal(_bit_matrix(c.inverse().rows, width), j @ m.T @ j % 2)
            # one flipped bit: the constructor accepts the rows iff the oracle does
            for _ in range(4):
                rows = list(c.rows)
                rows[int(rng.integers(width))] ^= 1 << int(rng.integers(width))
                bad = _bit_matrix(rows, width)
                if np.array_equal(bad @ j @ bad.T % 2, j):
                    assert CliffordTableau(n, rows, c.signs).is_symplectic()
                else:
                    with pytest.raises(InvalidGeneratorImages):
                        CliffordTableau(n, rows, c.signs)

    def test_inverse_and_compose_round_trip(self, rng):
        for n in (1, 2, 3, 5, 8, 64):
            c = random_clifford(n, rng)
            assert c.inverse().inverse() == c
            assert c.compose(c.inverse()) == CliffordTableau.identity(n)

    def test_swapped_rows_rejected(self, rng):
        for n in (2, 3, 8):
            c = random_clifford(n, rng)
            for i, k in ((0, 1), (0, n + 1), (n, 2 * n - 1)):  # never X_q with its Z_q
                rows = list(c.rows)
                rows[i], rows[k] = rows[k], rows[i]
                with pytest.raises(InvalidGeneratorImages):
                    CliffordTableau(n, rows, c.signs)

    def test_equal_tableaux_hash_equal(self, rng):
        c = random_clifford(4, rng)
        twin = clifford_from_generator_images([c.row_pauli(i) for i in range(8)])
        assert twin == c and hash(twin) == hash(c) and len({c, twin}) == 1
        assert all(type(v) is int for v in twin.rows + twin.signs)

    @pytest.mark.parametrize("rows,signs,match", [
        ([2, 1, 3], [0, 0], "needs 2 rows and 2 signs"),
        ([2, 1], [0], "needs 2 rows and 2 signs"),
        ([4, 1], [0, 0], r"rows must lie in \[0, 4\^1\)"),
        ([-2, 1], [0, 0], r"rows must lie in \[0, 4\^1\)"),
        ([2, 1], [0, 2], "signs must be 0 or 1"),
        ([2, 1], [-1, 0], "signs must be 0 or 1"),
    ])
    def test_out_of_range_entries_rejected(self, rows, signs, match):
        # these used to be reduced mod 2 or read as a matrix, not refused
        with pytest.raises(ValueError, match=match):
            CliffordTableau(1, rows, signs)


def _span(vectors):
    """Every XOR of a subset of the integer vectors, by brute force."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


class TestF2Layer:
    """The F2 helpers on 2N-bit (x | z) indices, against brute force at
    widths up to 6."""

    def test_nullspace_spans_the_left_kernel(self, rng):
        for _ in range(40):
            width = int(rng.integers(1, 7))
            m = rng.integers(0, 2, size=(width, width))
            m = m | m.T  # symmetric
            rows = [int("".join(map(str, row)), 2) for row in m]
            basis = _f2_nullspace(rows, width)
            bits = np.arange(width - 1, -1, -1)  # entry j of v is bit width-1-j
            kernel = {v for v in range(1 << width) if not ((v >> bits & 1) @ m % 2).any()}
            assert len(_span(basis)) == 1 << len(basis)  # independent
            assert _span(basis) == kernel

    def test_symplectic_pairs_are_hyperbolic(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            rows = random_clifford(n, rng).rows
            keep = [q for q in range(n) if rng.integers(0, 2)] or [0]
            vecs = [rows[q] for q in keep] + [rows[n + q] for q in keep]
            vecs = [vecs[i] for i in rng.permutation(len(vecs))]
            for j in range(1, len(vecs)):  # row operations keep the span
                vecs[j] ^= vecs[int(rng.integers(0, j))] * int(rng.integers(0, 2))
            pairs = _symplectic_pairs(vecs, n)
            fs, gs = [f for f, _ in pairs], [g for _, g in pairs]
            for i, (fi, gi) in enumerate(pairs):
                for j, (fj, gj) in enumerate(pairs):
                    assert _symplectic_form(fi, gj, n) == (i == j)
                    assert _symplectic_form(fi, fj, n) == _symplectic_form(gi, gj, n) == 0
            assert _span(fs + gs) == _span(vecs)

    def test_independent_keeps_a_basis_of_the_span(self, rng):
        for _ in range(60):
            width = int(rng.integers(1, 7))
            vectors = [int(v) for v in rng.integers(0, 1 << width, size=int(rng.integers(1, 9)))]
            rank = len(_span(vectors)).bit_length() - 1
            kept = _f2_independent(vectors, rank)
            assert len(kept) == rank and len(_span(kept)) == 1 << rank
            assert _span(kept) == _span(vectors)
            it = iter(vectors)
            assert all(v in it for v in kept)  # an ordered subsequence of the input
            with pytest.raises(AssertionError):
                _f2_independent(vectors, rank + 1)


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
                    image = sign * pauli_mul_matrix(img, u[:, [0]])
                    assert np.array_equal(u[:, [b]], image), (n, b)


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
        def sectors(m):
            return [list(s) for s in _SectorLayout.find(m).index]

        h = build_hamiltonian(XYZModel(n_sites=4, j_z=0.3))
        even, odd = sectors(h)
        assert even == [i for i in range(16) if i.bit_count() % 2 == 0]
        assert odd == [i for i in range(16) if i.bit_count() % 2 == 1]
        for coupling in (1e-300, -0.0 + 1e-300j, np.nan):
            for i, j in ((3, 7), (7, 3), (0, 1)):  # 3 and 0 are even, 7 and 1 odd
                joined = h.copy()
                joined[i, j] = coupling
                assert sectors(joined) == [list(range(16))]
        signed = h.copy()
        signed[3, 7] = -0.0
        assert len(sectors(signed)) == 2
        assert sectors(build_hamiltonian(TFIMModel(n_sites=4))) == [list(range(16))]
        assert sectors(np.diag([1.0, -1.0])) == [[0], [1]]
        # the odd sector of one index would be empty: one sector
        assert sectors(np.eye(1)) == [[0]]

    def test_layouts_are_shared_and_read_only(self):
        for d in (2, 8, 64):
            for parity in (False, True):
                layout = _SectorLayout.of(d, parity)
                assert _SectorLayout.of(d, parity) is layout
                assert len(layout.index) == 1 + parity and layout.h == d >> parity
                for array in (*layout.index, layout.sector, layout.rank):
                    assert not array.flags.writeable
                for i in range(d):
                    assert layout.index[layout.sector[i]][layout.rank[i]] == i
        u = np.arange(16.0).reshape(4, 4)
        assert _SectorLayout.find(u).blocks(u)[0] is u
        two = _SectorLayout.of(4, True)
        assert [b.tolist() for b in two.blocks(u)] == [[[0, 3], [12, 15]], [[5, 6], [9, 10]]]
