"""Exact arithmetic on Pauli strings and Clifford tableaux.

Encoding conventions used throughout the package:

* An N-qubit Pauli string is stored as two N-bit integers ``x`` and ``z``
  plus a phase exponent ``phase_exp`` (a power of i, mod 4).  Bit i of
  ``x``/``z`` refers to site i+1, with site 1 occupying the MOST significant
  bit, matching the global tensor ordering (site 1 = most significant
  factor of the Kronecker product).
* The canonical (phase_exp = 0) operator for bits (x, z) is

      P(x, z) = i^(x.z) X^x Z^z,      x.z = popcount(x & z),

  i.e. every site carries i^(x_i z_i) X^(x_i) Z^(z_i), so (1,1) is Y and
  every phase-0 string is Hermitian.  The full operator is
  i^phase_exp * P(x, z).
* The one F2 vector of a phase-0 class is the 2N-bit integer
  PauliString.index = (x << N) | z.  The symplectic form
  (_symplectic_form), null spaces, independence and symplectic Gram-Schmidt
  all run on these integers, and products carry their phase as a power of
  i (_product_power).
* A Clifford tableau is the images of the generators X_1..X_N, Z_1..Z_N:
  2N rows, each the index of its image, plus 2N sign bits, so generator g_i
  maps to (-1)^signs[i] * P(rows[i]).  Read as a 2N x 2N binary matrix,
  column c is bit 2N-1-c of each row (x bits first, then z bits);
  is_symplectic, inverse's J M^T J and the file format all work on the
  integer rows.
* Pauli-basis tables come from one step, _pauli_columns: Tr(op P(x, z)) =
  i^(x.z) sum_y (-1)^(z.y) op[y, y^x], gathered into [..., y, x] by
  _xor_index and transformed over y by _wht_real.  pauli_trace_table, its
  adjoint operator_from_pauli_table and the exact P_E g-table all run it;
  the g-table passes its own index, into the nonzero blocks of its pair
  correlations, for the x of one parity class.
* A P B for many phase-0 strings P comes from _conjugated_chunks: per
  chunk of about _CHUNK_ENTRIES complex entries, one signed row gather of B
  (the entries of _pauli_entries, taken for an array of strings) and one
  batched product.  The factorizer, the Theorem-1 check and the subsystem
  magic bound evolve their strings through it.
* Parity sectors, the indices of even and of odd popcount, are described by
  one _SectorLayout; a public call finds its operator's once, a spin-chain
  sweep point its H's once, and every kernel takes the layout it is given.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    FactorizationDegeneracy,
    InvalidGeneratorImages,
    NotHermitian,
    SizeLimitExceeded,
)

DENSE_LIMIT = 12  # largest qubit or site count built as a dense matrix
# a stack of Pauli-conjugated operators or a block of exact P_E's g-table
# holds about this many complex entries: max(1, 2^17 // d^2) operators
_CHUNK_ENTRIES = 1 << 17

_I4 = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

SINGLE_QUBIT_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_SITE_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_LETTER_SITE = {v: k for k, v in _SITE_LETTER.items()}
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True)
class PauliString:
    """Bit-packed N-qubit Pauli string with a power-of-i phase."""

    n_qubits: int
    x: int
    z: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << self.n_qubits) - 1
        if not (0 <= self.x <= mask and 0 <= self.z <= mask):
            raise ValueError("x/z bits out of range for qubit count")
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError("phase_exp must be in {0,1,2,3}")

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp in (0, 2)

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def canonical(self) -> "PauliString":
        """Phase-0 representative of the same class in the quotient group."""
        return PauliString(self.n_qubits, self.x, self.z, 0)

    def __str__(self) -> str:
        letters = []
        for i in range(self.n_qubits):
            shift = self.n_qubits - 1 - i
            letters.append(_SITE_LETTER[((self.x >> shift) & 1, (self.z >> shift) & 1)])
        return _PHASE_PREFIX[self.phase_exp] + "".join(letters)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse labels like ``"XIZY"``, ``"+XZ"``, ``"-iY"``."""
        s = label.strip()
        phase = 0
        for prefix, p in (("+i", 1), ("-i", 3), ("+", 0), ("-", 2)):
            if s.startswith(prefix):
                phase = p
                s = s[len(prefix):]
                break
        if not s or any(c not in _LETTER_SITE for c in s):
            raise ValueError(f"invalid Pauli label {label!r}")
        x = z = 0
        for c in s:
            xb, zb = _LETTER_SITE[c]
            x = (x << 1) | xb
            z = (z << 1) | zb
        return cls(len(s), x, z, phase)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def from_index(cls, n_qubits: int, index: int) -> "PauliString":
        """Phase-0 string number ``index`` in the fixed enumeration order
        (x bits in the high half, z bits in the low half; index 0 = identity)."""
        if not 0 <= index < 4**n_qubits:
            raise ValueError("index out of range")
        return cls(n_qubits, index >> n_qubits, index & ((1 << n_qubits) - 1), 0)

    @property
    def index(self) -> int:
        return (self.x << self.n_qubits) | self.z


def _popcount(v):
    """The set bits of a Python int, or of each entry of an integer array (as
    uint8, so sums of counts wrap mod 256, which keeps them mod 4)."""
    return v.bit_count() if isinstance(v, int) else np.bitwise_count(v)


def _product_power(u, v, n: int):
    """k with P(u) P(v) = i^k P(u ^ v) (mod 4) for 2N-bit indices u and v,
    Python ints or integer arrays: the per-site phase bookkeeping of the
    i^(x.z) X^x Z^z representatives, i^(x1.z1 + x2.z2 + 2 z1.x2 - x3.z3)."""
    mask = (1 << n) - 1
    ux, uz, vx, vz = u >> n, u & mask, v >> n, v & mask
    return (_popcount(ux & uz) + _popcount(vx & vz) + 2 * _popcount(uz & vx)
            - _popcount((ux ^ vx) & (uz ^ vz)))


def _multiply(p: PauliString, q: PauliString) -> tuple[PauliString, int]:
    """The phase-0 product class and the k in {0, 1, 2, 3} with
    dense(p) @ dense(q) == i^k dense(result)."""
    n = p.n_qubits
    k = p.phase_exp + q.phase_exp + _product_power(p.index, q.index, n)
    return PauliString.from_index(n, p.index ^ q.index), k % 4


def pauli_multiply(p: PauliString, q: PauliString) -> tuple[PauliString, complex]:
    """Multiply two Pauli strings.

    Returns the canonical phase-0 representative of the product class and the
    scalar ``c`` such that dense(p) @ dense(q) == c * dense(result).
    """
    if p.n_qubits != q.n_qubits:
        raise ValueError("qubit-count mismatch")
    r, k = _multiply(p, q)
    return r, complex(_I4[k])


def _symplectic_form(u: int, v: int, n: int) -> int:
    """<u, v> = x_u.z_v + z_u.x_v (mod 2) of two 2N-bit (x | z) indices: 1
    when the strings anticommute."""
    return ((u >> n & v) ^ (u & v >> n)).bit_count() & 1


def pauli_commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the dense realizations commute (symplectic form vanishes)."""
    if p.n_qubits != q.n_qubits:
        raise ValueError("qubit-count mismatch")
    return not _symplectic_form(p.index, q.index, p.n_qubits)


def _pauli_entries(n_qubits: int, x, z,
                   phase_exp=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of i^phase_exp P(x, z), a signed permutation:
    P[rows[c], cols[c]] = values[c] with cols = 0..d-1 and rows = cols ^ x.
    x, z and phase_exp may also be integer arrays of shape S + (1,), one
    string per index of S; rows and values then have shape S + (d,)."""
    cols = np.arange(1 << n_qubits)
    pref = _I4[(phase_exp + _popcount(x & z)) % 4]
    return cols ^ x, cols, pref * _parity_signs(cols & z)


def pauli_to_dense(p: PauliString) -> np.ndarray:
    """Dense 2^N x 2^N matrix of a Pauli string (site 1 = most significant)."""
    if p.n_qubits > DENSE_LIMIT:
        raise SizeLimitExceeded(f"{p.n_qubits} qubits exceeds dense limit {DENSE_LIMIT}")
    rows, cols, values = _pauli_entries(p.n_qubits, p.x, p.z, p.phase_exp)
    m = np.zeros((cols.size, cols.size), dtype=complex)
    m[rows, cols] = values
    return m


def pauli_mul_matrix(p: PauliString, m: np.ndarray) -> np.ndarray:
    """P @ m in O(d^2): a signed row permutation of m."""
    if m.shape[0] != 1 << p.n_qubits:
        raise ValueError("dimension mismatch")
    rows, _, values = _pauli_entries(p.n_qubits, p.x, p.z, p.phase_exp)
    return values[rows][:, None] * m[rows, :]


def _conjugated_chunks(a: np.ndarray, indices, b: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """A @ P @ B for the phase-0 strings P with the given 2N-bit indices, in
    chunks of max(1, _CHUNK_ENTRIES // d^2) strings: pairs (start, stack)
    with stack[j] the product for indices[start + j].  As in
    pauli_mul_matrix, P @ B is a signed row gather of B, so a chunk is one
    gather and one batched matmul, and each product has the bits of
    A @ pauli_mul_matrix(P, B).  A chunk holds its gather and its product,
    about 2^17 complex entries each, while it is built; the generator keeps
    no reference to a stack it has yielded, so a caller that drops its own
    holds one chunk at a time."""
    d = b.shape[0]
    n = d.bit_length() - 1
    indices = np.asarray(indices, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // (d * d))
    for start in range(0, indices.size, step):
        chunk = indices[start:start + step, None]
        rows, _, values = _pauli_entries(n, chunk >> n, chunk & (d - 1))
        signs = values[np.arange(len(chunk))[:, None], rows, None]
        yield start, a @ (b[rows] * signs)  # the frame keeps no chunk-sized array


def _parity_signs(values: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * (np.bitwise_count(values) & 1)


@dataclass(frozen=True, eq=False)
class _SectorLayout:
    """The parity sectors of d x d operators: S_0 and S_1, the indices of
    even and of odd popcount, or one sector S_0 of every index.  An operator
    exactly zero between S_0 and S_1, as is every one that commutes with Z^N
    (the XYZ chain's H and U_t), is worked on by its blocks on the two;
    every operator is the one-sector case.  A public call finds the layout
    of its operator once (find) for its check and its kernel.

    new_parts stores a Hermitian K that maps each sector s only into s ^ p,
    p = 0 or 1, as the h x h blocks K[S_s, S_(s^p)], Re and Im, for each s:
    K[i, j] is entry (rank[i], rank[j]) of block sector[i]."""

    index: tuple[np.ndarray, ...]  # each sector's indices, in rank order
    sector: np.ndarray  # the sector of each index
    rank: np.ndarray  # the position of each index within its sector
    h: int

    @classmethod
    @lru_cache(maxsize=16)
    def of(cls, d: int, parity: bool) -> "_SectorLayout":
        """The two sectors of d indices, or with parity False the one;
        shared and read-only."""
        ys, parity = np.arange(d), int(parity)
        # of 2k and 2k+1 exactly one is even, so i is number i >> 1 of its sector
        sector = (np.bitwise_count(ys) & parity).astype(np.intp)
        layout = cls(tuple(ys[sector == s] for s in range(1 + parity)), sector, ys >> parity,
                     d >> parity)
        for array in (*layout.index, layout.sector, layout.rank):
            array.flags.writeable = False
        return layout

    @classmethod
    def find(cls, m: np.ndarray) -> "_SectorLayout":
        """The two sectors when every entry of the square m between an even
        and an odd index is exactly 0.0, else one (also where m is not
        square or a sector would be empty).

        No tolerance: a coupling however small, or a NaN, keeps the sectors
        joined.  Row 0 is read first, where most matrices without sectors
        stop; then each block a few rows at a time, never copied whole."""
        d = len(m)
        even, odd = cls.of(d, True).index
        if d < 2 or m.shape != (d, d) or m[0, odd].any():
            return cls.of(d, False)
        step = max(1, (1 << 16) // d)
        for rows, cols in ((even, odd), (odd, even)):
            for k in range(0, rows.size, step):
                if m[rows[k:k + step, None], cols].any():  # a NaN is truthy too
                    return cls.of(d, False)
        return cls.of(d, True)

    def blocks(self, m: np.ndarray) -> list[np.ndarray]:
        """The diagonal blocks m[S_s, S_s]: [m] itself for one sector."""
        return [m] if len(self.index) == 1 else [m[np.ix_(s, s)] for s in self.index]

    def new_parts(self) -> np.ndarray:
        return np.empty((len(self.index), 2, self.h, self.h))


def _uniform_below_4n(low: int, n_qubits: int, rng: np.random.Generator) -> int:
    """A uniform integer in [low, 4^N) for low 0 or 1.  Up to N = 31 this is
    one rng.integers call, whose bounds stop at int64; above, the 2N bits
    are drawn in 62-bit chunks, redrawn while the value is below low."""
    if n_qubits <= 31:
        return int(rng.integers(low, 4**n_qubits))
    while True:
        value = 0
        for shift in range(0, 2 * n_qubits, 62):
            value |= int(rng.integers(0, 1 << min(62, 2 * n_qubits - shift))) << shift
        if value >= low:
            return value


def random_pauli(n_qubits: int, rng: np.random.Generator) -> PauliString:
    """One uniform draw from the 4^N phase-0 strings, identity included."""
    return PauliString.from_index(n_qubits, _uniform_below_4n(0, n_qubits, rng))


# ---------------------------------------------------------------------------
# Pauli-basis tables: one XOR gather and one Walsh-Hadamard transform
# ---------------------------------------------------------------------------

_TABLE_CACHE_MAX_D = 1 << 6  # a cached d x d table takes at most 64 KiB


def _small_d_cached(build):
    """build(d), read-only; shared by callers up to d = _TABLE_CACHE_MAX_D."""
    def read_only(d: int) -> np.ndarray:
        table = build(d)
        table.flags.writeable = False
        return table
    cached = lru_cache(maxsize=8)(read_only)
    return wraps(build)(lambda d: cached(d) if d <= _TABLE_CACHE_MAX_D else read_only(d))


@_small_d_cached
def _hadamard_matrix(n: int) -> np.ndarray:
    """H[z, y] = (-1)^(z.y) for 0 <= y, z < n."""
    ys = np.arange(n)
    return _parity_signs(ys[:, None] & ys[None, :])


def _wht_real(reals: np.ndarray, scratch: np.ndarray | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis -2 of a contiguous
    float64 array: out[..., z, :] = sum_y (-1)^(z.y) reals[..., y, :].

    For n = 2^k, H_n = H_a (x) H_b with a = 2^floor(k/2) and b = n / a: H_a
    on the (pre, a, b*post) reshape, then H_b on the (pre*a, b, post) one,
    two real GEMMs with no transpose of the data.  Complex data goes in as
    its float64 view.  scratch (the size of reals, any dtype) takes the first
    product and out the second; out may be reals itself.  Both are allocated
    when not given."""
    n = reals.shape[-2]
    if n < 1 or n & (n - 1):
        raise ValueError("axis length must be a power of two")
    a = 1 << ((n.bit_length() - 1) // 2)
    b = n // a
    pre, post = math.prod(reals.shape[:-2]), reals.shape[-1]
    first = None if scratch is None else scratch.view(np.float64).reshape(pre, a, b * post)
    first = np.matmul(_hadamard_matrix(a), reals.reshape(pre, a, b * post), out=first)
    second = None if out is None else out.reshape(pre * a, b, post)
    second = np.matmul(_hadamard_matrix(b), first.reshape(pre * a, b, post), out=second)
    return second.reshape(reals.shape)


@_small_d_cached
def _xor_index(d: int) -> np.ndarray:
    """flat[y, x] = y*d + (y^x): the flat index of op[y, y^x] in a d x d
    operator."""
    ys = np.arange(d)
    return ys[:, None] * d + (ys[:, None] ^ ys[None, :])


@_small_d_cached
def _phase_grid(d: int) -> np.ndarray:
    """phase[x, z] = i^(x.z) for all pairs of N-bit integers."""
    xs = np.arange(d)
    return _I4[np.bitwise_count(xs[:, None] & xs[None, :]) % 4]


def _pauli_columns(ops: np.ndarray, out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None,
                   index: np.ndarray | None = None) -> np.ndarray:
    """T[..., z, c] = sum_y (-1)^(z.y) flat[..., index[y, c]] for a complex
    stack, with flat its last two axes flattened: one gather into
    [..., y, c], one transform along y.  index defaults to _xor_index(d) for
    a (..., d, d) stack, which gives T[..., z, x] = sum_y (-1)^(z.y)
    ops[..., y, y^x]; any other [y, cols] index into the flat entries works
    the same way (the g-table passes one per parity class of x).  out (the
    gathered shape) takes both; scratch (the size of out, and ops itself
    once gathered if it has that size) takes the transform's first
    product."""
    index = _xor_index(ops.shape[-1]) if index is None else index
    # in-range indices: mode="clip" writes straight into out, "raise" via a temporary
    cols = np.take(ops.reshape(*ops.shape[:-2], -1), index, axis=-1, out=out, mode="clip")
    reals = cols.view(np.float64)  # [..., y -> z, x re/im]
    _wht_real(reals, scratch=scratch, out=reals)
    return cols


def pauli_trace_table(op: np.ndarray) -> np.ndarray:
    """All Pauli-basis coefficients of a d x d operator (or of each in a
    stack of them, over the last two axes) at once.

    Returns table[x, z] = Tr(op @ P(x, z)) for every phase-0 string, as a
    C-contiguous array: _pauli_columns' [z, x] table times the phase grid
    i^(x.z), written out in [x, z] order.
    """
    op = np.asarray(op, dtype=complex)
    table = np.empty(op.shape, dtype=complex)
    return np.multiply(_pauli_columns(op).swapaxes(-1, -2), _phase_grid(op.shape[-1]),
                       out=table)


def operator_from_pauli_table(table: np.ndarray) -> np.ndarray:
    """sum_(x,z) table[x, z] P(x, z): the adjoint of pauli_trace_table, over
    the last two axes like it.

    Since Tr(P P') = d delta, operator_from_pauli_table(pauli_trace_table(op)
    / d) == op.  The steps of pauli_trace_table run in reverse, on the same
    index and transform: with the conjugate phases, in [z, x] order,
    op[y, y^x] = sum_z (-1)^(z.y) (-i)^(x.z) table[x, z], scattered back.
    """
    table = np.asarray(table, dtype=complex)
    d = table.shape[-1]
    cols = np.empty(table.shape, dtype=complex)  # [..., z, x], then [..., y, x]
    np.multiply(table, _phase_grid(d).conj(), out=cols.swapaxes(-1, -2))
    reals = cols.view(np.float64)
    _wht_real(reals, out=reals)
    op = np.empty(table.shape, dtype=complex)
    op.reshape(*table.shape[:-2], d * d)[..., _xor_index(d)] = cols
    return op


def _operator_pauli_probs(op: np.ndarray) -> np.ndarray:
    """Xi_P = |Tr(op P)/d|^2 over all phase-0 strings, flattened over the
    last two axes (op may be a stack of operators); sums to 1 for unitary
    op."""
    d = op.shape[-1]
    table = pauli_trace_table(op) / d
    return np.abs(table.reshape(*op.shape[:-2], d * d)) ** 2


def pauli_expectation_table(psi: np.ndarray) -> np.ndarray:
    """table[x, z] = <psi| P(x, z) |psi> = Tr(|psi><psi| P(x, z)) for every
    phase-0 string."""
    psi = np.asarray(psi, dtype=complex)
    return pauli_trace_table(np.outer(psi, psi.conj()))


# ---------------------------------------------------------------------------
# Clifford tableaux
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordTableau:
    """The conjugation action of a Clifford unitary on the Pauli generators,
    up to global phase: generator g_i (X_1..X_N, then Z_1..Z_N) maps to
    (-1)^signs[i] * P(rows[i]), with rows[i] the 2N-bit index of its image."""

    n_qubits: int
    rows: tuple[int, ...]  # 2N indices in [0, 4^N)
    signs: tuple[int, ...]  # 2N bits; 1 means the image carries -1

    def __post_init__(self):
        n = self.n_qubits
        if n < 1:
            raise ValueError("need at least one qubit")
        rows = tuple(map(operator.index, self.rows))
        signs = tuple(map(operator.index, self.signs))
        if len(rows) != 2 * n or len(signs) != 2 * n:
            raise ValueError(f"a {n}-qubit tableau needs {2 * n} rows and {2 * n} signs")
        if not all(0 <= row < 1 << 2 * n for row in rows):
            raise ValueError(f"tableau rows must lie in [0, 4^{n})")
        if not all(s in (0, 1) for s in signs):
            raise ValueError("tableau signs must be 0 or 1")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "signs", signs)
        if not self.is_symplectic():
            raise InvalidGeneratorImages("rows do not preserve the symplectic form")

    def is_symplectic(self) -> bool:
        """Row i anticommutes with row j exactly when they image a generator
        pair X_q, Z_q."""
        n, rows = self.n_qubits, self.rows
        return all(_symplectic_form(rows[i], rows[j], n) == (j - i == n)
                   for i in range(2 * n) for j in range(i + 1, 2 * n))

    @classmethod
    def identity(cls, n_qubits: int) -> "CliffordTableau":
        width = 2 * n_qubits
        return cls(n_qubits, [1 << (width - 1 - i) for i in range(width)], [0] * width)

    def row_pauli(self, i: int) -> tuple[PauliString, int]:
        """Image of generator i (0..N-1: X_i, N..2N-1: Z_i) as a phase-0
        string plus its +-1 sign."""
        return PauliString.from_index(self.n_qubits, self.rows[i]), -1 if self.signs[i] else 1

    def conjugate(self, p: PauliString) -> tuple[PauliString, int]:
        """C P C^dag for a Hermitian string: phase-0 result plus a +-1 sign."""
        if p.n_qubits != self.n_qubits:
            raise ValueError("qubit-count mismatch")
        if not p.is_hermitian:
            raise NotHermitian("conjugation is defined for Hermitian strings")
        n, width, index = self.n_qubits, 2 * self.n_qubits, p.index
        acc = 0  # the index of the product so far
        k = p.phase_exp + (p.x & p.z).bit_count()  # power of i: P = i^k X^x Z^z
        for i, row in enumerate(self.rows):  # the X_1..X_N factors, then Z_1..Z_N
            if index >> (width - 1 - i) & 1:
                k += _product_power(acc, row, n) + 2 * self.signs[i]
                acc ^= row
        if k % 4 not in (0, 2):
            raise AssertionError("conjugation of a Hermitian string must give +-1")
        return PauliString.from_index(n, acc), 1 if k % 4 == 0 else -1

    def compose(self, first: "CliffordTableau") -> "CliffordTableau":
        """Tableau of self . first (apply `first`, then `self`)."""
        if first.n_qubits != self.n_qubits:
            raise ValueError("qubit-count mismatch")
        images = []
        for i in range(2 * self.n_qubits):
            p1, s1 = first.row_pauli(i)
            p2, s2 = self.conjugate(p1)
            images.append((p2, s1 * s2))
        return clifford_from_generator_images(images)

    def inverse(self) -> "CliffordTableau":
        """Tableau of C^dag.  Its matrix is J M^T J (mod 2), the inverse of a
        symplectic M: row i is column (i + N) mod 2N of M with its x and z
        halves swapped, i.e. its entry (j + N) mod 2N is entry (i + N) mod 2N
        of row j.  Row i is the class of C^dag g_i C, and its sign s follows
        from conjugating back: C (s P(row i)) C^dag = g_i."""
        n, width = self.n_qubits, 2 * self.n_qubits
        bits = [width - 1 - (j + n) % width for j in range(width)]  # entry (j + N) mod 2N's bit
        rows = [sum(1 << b for b, row in zip(bits, self.rows) if row >> s & 1) for s in bits]
        signs = [int(self.conjugate(PauliString.from_index(n, row))[1] < 0) for row in rows]
        return CliffordTableau(n, rows, signs)


def clifford_from_generator_images(
    images: Sequence[tuple[PauliString, int]],
) -> CliffordTableau:
    """Build a tableau from prescribed images of X_1..X_N, Z_1..Z_N.

    Each entry is (phase-0 Hermitian string, sign in {+1, -1}).  Raises
    InvalidGeneratorImages if the images break the commutation pattern.
    """
    if not images:
        raise InvalidGeneratorImages("no images given")
    n = images[0][0].n_qubits
    if len(images) != 2 * n:
        raise InvalidGeneratorImages(f"expected {2 * n} images, got {len(images)}")
    for p, s in images:
        if p.n_qubits != n:
            raise InvalidGeneratorImages("qubit-count mismatch among images")
        if p.phase_exp != 0:
            raise InvalidGeneratorImages("images must be phase-0 strings")
        if s not in (1, -1):
            raise InvalidGeneratorImages("signs must be +-1")
    return CliffordTableau(n, [p.index for p, _ in images], [int(s == -1) for _, s in images])


def _project_out(v: int, f: int, g: int, n: int) -> int:
    """v with the hyperbolic pair (f, g) projected out: the result pairs to
    zero with both f and g (given <f, g> = 1)."""
    if _symplectic_form(v, g, n):
        v ^= f
    if _symplectic_form(v, f, n):
        v ^= g
    return v


def _symplectic_pairs(vectors: list[int], n: int) -> list[tuple[int, int]]:
    """Hyperbolic pairs spanning the given subgroup under the standard form
    (symplectic Gram-Schmidt, in the given order)."""
    vecs = list(vectors)
    pairs = []
    while vecs:
        f = vecs.pop(0)
        j = next((k for k, v in enumerate(vecs) if _symplectic_form(f, v, n)), None)
        if j is None:
            raise FactorizationDegeneracy("commutation form degenerate on subgroup")
        g = vecs.pop(j)
        pairs.append((f, g))
        vecs = [_project_out(v, f, g, n) for v in vecs]
    return pairs


def _f2_independent(vectors: list[int], expected: int) -> list[int]:
    """Keep a maximal linearly independent subset (deterministic order)."""
    rows: list[int] = []
    kept: list[int] = []
    for v in vectors:
        r = v
        for row in rows:
            r = min(r, r ^ row)  # clears row's leading bit from r
        if r:
            rows.append(r)
            kept.append(v)
    if len(kept) != expected:
        raise AssertionError("unexpected rank in symplectic complement")
    return kept


def _f2_nullspace(rows: list[int], width: int) -> list[int]:
    """Basis of {v : v M = 0 (mod 2)} for a symmetric F2 matrix M given as
    its width-bit rows; column j of M, like entry j of v, is bit width-1-j."""
    m = list(rows)
    trans = [1 << (width - 1 - r) for r in range(width)]
    row = 0
    for col in range(width):
        bit = 1 << (width - 1 - col)
        pivot = next((r for r in range(row, width) if m[r] & bit), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        trans[row], trans[pivot] = trans[pivot], trans[row]
        for r in range(width):
            if r != row and m[r] & bit:
                m[r] ^= m[row]
                trans[r] ^= trans[row]
        row += 1
    return [t for t, r in zip(trans, m) if not r]


def random_clifford(n_qubits: int, rng: np.random.Generator) -> CliffordTableau:
    """Uniformly random tableau (exact uniformity, seeded).

    The symplectic matrix is sampled by building hyperbolic pairs
    sequentially: the image of X_k is uniform over the 4^m - 1 nonzero
    vectors of the remaining symplectic complement, the image of Z_k is
    uniform over the 2^(2m-1) partners with unit pairing, and the
    complement is projected out.  The choice counts multiply to
    prod_j (4^j - 1) 2^(2j-1) = |Sp(2N, F2)|, so every symplectic matrix
    arises from exactly one choice sequence.  Signs are 2N fair bits.
    """
    n = n_qubits
    basis = [1 << (2 * n - 1 - i) for i in range(2 * n)]
    xrows: list[int] = []
    zrows: list[int] = []
    for step in range(n):
        m = n - step
        k = _uniform_below_4n(1, m, rng)
        f = 0
        for i in range(2 * m):
            if (k >> i) & 1:
                f ^= basis[i]
        pair = [_symplectic_form(f, b, n) for b in basis]
        j0 = pair.index(1)  # exists: the form is nondegenerate on the span
        kern = [basis[i] ^ (basis[j0] if pair[i] else 0)
                for i in range(2 * m) if i != j0]
        g = basis[j0]
        for bit, kv in zip(rng.integers(0, 2, size=2 * m - 1), kern):
            if bit:
                g ^= kv
        xrows.append(f)
        zrows.append(g)
        if m > 1:
            basis = _f2_independent([_project_out(b, f, g, n) for b in basis], 2 * m - 2)
    return CliffordTableau(n, xrows + zrows, rng.integers(0, 2, size=2 * n))


def clifford_to_dense(c: CliffordTableau) -> np.ndarray:
    """Unitary matrix realizing the tableau's conjugation action.

    Unique up to global phase; the phase is fixed by making the first
    nonzero entry (column-major scan) real positive.
    """
    n = c.n_qubits
    if n > DENSE_LIMIT:
        raise SizeLimitExceeded(f"{n} qubits exceeds dense limit {DENSE_LIMIT}")
    d = 1 << n
    # |psi0> = state stabilized by the signed images of Z_1..Z_N
    proj = np.eye(d, dtype=complex)
    for row, sign in zip(c.rows[n:], c.signs[n:]):
        moved = pauli_mul_matrix(PauliString.from_index(n, row), proj)
        proj = np.subtract(proj, moved, out=moved) if sign else np.add(proj, moved, out=moved)
        proj *= 0.5
    col = int(np.argmax(np.linalg.norm(proj, axis=0)))
    psi0 = proj[:, col]
    nrm = np.linalg.norm(psi0)
    if nrm < 1e-12:
        raise AssertionError("stabilizer projector produced a null column")
    psi0 = psi0 / nrm
    # column b of the unitary = (image of X^b) |psi0>.  The images of the
    # X_q commute, so for b < 2^t the image of b + 2^t is image(b) times
    # that of X_(N-t), with a +-1 product phase: doubling the columns bit by
    # bit gives each one's index and power of i (signs included) as arrays.
    mask = d - 1
    index, power = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for t in range(n):
        row, sign = c.rows[n - 1 - t], c.signs[n - 1 - t]
        power = np.concatenate([power, power + 2 * sign + _product_power(index, row, n)])
        index = np.concatenate([index, index ^ row])
    u = np.empty((d, d), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // d)
    for b in range(0, d, step):
        cols = slice(b, b + step)
        rows, _, values = _pauli_entries(n, index[cols, None] >> n, index[cols, None] & mask,
                                         power[cols, None])
        # (P psi0)[i] = values[i ^ x] psi0[i ^ x]: one product, then one gather
        values *= psi0
        u[:, cols] = values[np.arange(len(rows))[:, None], rows].T
        del rows, values
    return fix_global_phase(u)


def fix_global_phase(m: np.ndarray) -> np.ndarray:
    """Divide by the phase of the first entry above 1e-12 in magnitude, in
    column-major order."""
    flat = m.flatten(order="F")
    idx = np.flatnonzero(np.abs(flat) > 1e-12)
    if idx.size == 0:
        return m
    return m * (np.abs(flat[idx[0]]) / flat[idx[0]])
