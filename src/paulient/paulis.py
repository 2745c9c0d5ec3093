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
* A Clifford tableau stores the images of the generators X_1..X_N,
  Z_1..Z_N as rows of a 2N x 2N binary matrix (columns 0..N-1 = x bits,
  N..2N-1 = z bits) plus a 2N sign vector: generator g_i maps to
  (-1)^signs[i] * P(row_i).
* Pauli-basis tables come from one step, _pauli_columns: Tr(op P(x, z)) =
  i^(x.z) sum_y (-1)^(z.y) op[y, y^x], gathered into [..., y, x] by
  _xor_index and transformed over y by _wht_real.  pauli_trace_table, its
  adjoint operator_from_pauli_table and the exact P_E g-table all run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Sequence

import numpy as np

from .errors import (
    FactorizationDegeneracy,
    InvalidGeneratorImages,
    NotHermitian,
    SizeLimitExceeded,
)

DENSE_LIMIT = 12  # largest qubit or site count built as a dense matrix

_I4 = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])
_I4_POWER = {complex(v): k for k, v in enumerate(_I4)}

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


def _pauli_to_row(p: PauliString) -> np.ndarray:
    """The (x | z) F2 row of a string's phase-0 class: the 2N bits of
    p.index, most significant first."""
    width = 2 * p.n_qubits
    return np.array([(p.index >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def _row_to_pauli(row) -> PauliString:
    """The phase-0 string of an (x | z) F2 row; inverse of _pauli_to_row."""
    index = 0
    for b in row:
        index = (index << 1) | int(b)
    return PauliString.from_index(len(row) // 2, index)


def pauli_multiply(p: PauliString, q: PauliString) -> tuple[PauliString, complex]:
    """Multiply two Pauli strings.

    Returns the canonical phase-0 representative of the product class and the
    scalar ``c`` such that dense(p) @ dense(q) == c * dense(result).
    """
    if p.n_qubits != q.n_qubits:
        raise ValueError("qubit-count mismatch")
    x3 = p.x ^ q.x
    z3 = p.z ^ q.z
    # per-site phase bookkeeping for i^(x.z) X^x Z^z representatives:
    # i^(x1.z1 + x2.z2 + 2 z1.x2 - x3.z3)
    kappa = (
        (p.x & p.z).bit_count()
        + (q.x & q.z).bit_count()
        + 2 * (p.z & q.x).bit_count()
        - (x3 & z3).bit_count()
    )
    total = (p.phase_exp + q.phase_exp + kappa) % 4
    return PauliString(p.n_qubits, x3, z3, 0), complex(_I4[total])


def pauli_commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the dense realizations commute (symplectic form vanishes)."""
    if p.n_qubits != q.n_qubits:
        raise ValueError("qubit-count mismatch")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


def _pauli_entries(p: PauliString) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of the dense string, a signed permutation:
    P[rows[c], cols[c]] = values[c] with cols = 0..d-1 and rows = cols ^ x."""
    d = 1 << p.n_qubits
    cols = np.arange(d)
    pref = _I4[(p.phase_exp + (p.x & p.z).bit_count()) % 4]
    return cols ^ p.x, cols, pref * _parity_signs(cols & p.z)


def pauli_to_dense(p: PauliString) -> np.ndarray:
    """Dense 2^N x 2^N matrix of a Pauli string (site 1 = most significant)."""
    if p.n_qubits > DENSE_LIMIT:
        raise SizeLimitExceeded(f"{p.n_qubits} qubits exceeds dense limit {DENSE_LIMIT}")
    rows, cols, values = _pauli_entries(p)
    m = np.zeros((cols.size, cols.size), dtype=complex)
    m[rows, cols] = values
    return m


def apply_pauli(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """P @ vec in O(d), without building the dense matrix."""
    if vec.shape[0] != 1 << p.n_qubits:
        raise ValueError("dimension mismatch")
    rows, _, values = _pauli_entries(p)
    return values[rows] * vec[rows]


def pauli_mul_matrix(p: PauliString, m: np.ndarray) -> np.ndarray:
    """P @ m in O(d^2): a signed row permutation of m."""
    if m.shape[0] != 1 << p.n_qubits:
        raise ValueError("dimension mismatch")
    rows, _, values = _pauli_entries(p)
    return values[rows][:, None] * m[rows, :]


def _parity_signs(values: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * (np.bitwise_count(values) & 1)


@lru_cache(maxsize=16)
def _parity_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd): the indices 0..d-1 of even and of odd popcount, each in
    increasing order, read-only.  Of 2k and 2k+1 exactly one is even, so
    index i sits at position i >> 1 of its own set."""
    ys = np.arange(d)
    odd = np.bitwise_count(ys) & 1 == 1
    even, odd = ys[~odd], ys[odd]
    even.flags.writeable = odd.flags.writeable = False
    return even, odd


def _parity_sectors(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """_parity_index(d) when every entry of the square m between an even and
    an odd index is exactly 0.0, else None.

    No tolerance: a coupling however small, or a NaN, keeps the sectors
    joined.  Operators that commute with Z^N (the XYZ chain and its U_t) have
    these sectors.  Row 0 is read first, where most matrices without sectors
    stop; then each block a few rows at a time, never copied whole."""
    d = m.shape[0]
    even, odd = _parity_index(d)
    if d and m[0, odd].any():
        return None
    step = max(1, (1 << 16) // max(d, 1))
    for rows, cols in ((even, odd), (odd, even)):
        for k in range(0, rows.size, step):
            if m[rows[k:k + step, None], cols].any():  # a NaN is truthy too
                return None
    return even, odd


def _sector_blocks(m: np.ndarray) -> tuple[tuple[np.ndarray, ...] | None, list[np.ndarray]]:
    """(sectors, blocks): the non-empty parity sectors of the square m and
    its diagonal blocks m[s, s] on them, or (None, [m]) when m has none."""
    sectors = _parity_sectors(m)
    if sectors is None:
        return None, [m]
    sectors = tuple(s for s in sectors if s.size)
    return sectors, [m[np.ix_(s, s)] for s in sectors]


def random_pauli(n_qubits: int, rng: np.random.Generator) -> PauliString:
    """One uniform draw from the 4^N phase-0 strings, identity included."""
    return PauliString.from_index(n_qubits, int(rng.integers(0, 4**n_qubits)))


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
    """T[..., z, x] = sum_y (-1)^(z.y) ops[..., y, y^x] for a complex
    (..., d, d) stack: one gather into [..., y, x], one transform along y.
    out (the shape of ops) takes both; scratch (the size of ops, and ops
    itself once gathered) takes the transform's first product.  index is
    _xor_index(d), passed by a caller that runs many stacks of one d above
    the cache limit."""
    d = ops.shape[-1]
    index = _xor_index(d) if index is None else index
    # in-range indices: mode="clip" writes straight into out, "raise" via a temporary
    cols = np.take(ops.reshape(*ops.shape[:-2], d * d), index, axis=-1,
                   out=out, mode="clip")
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
    """Xi_P = |Tr(op P)/d|^2 over all phase-0 strings, flattened; sums to 1
    for unitary op."""
    d = op.shape[0]
    table = pauli_trace_table(op) / d
    return np.abs(table.ravel()) ** 2


def pauli_expectation_table(psi: np.ndarray) -> np.ndarray:
    """table[x, z] = <psi| P(x, z) |psi> = Tr(|psi><psi| P(x, z)) for every
    phase-0 string."""
    psi = np.asarray(psi, dtype=complex)
    return pauli_trace_table(np.outer(psi, psi.conj()))


# ---------------------------------------------------------------------------
# Clifford tableaux
# ---------------------------------------------------------------------------


def _symplectic_j(n: int) -> np.ndarray:
    eye = np.eye(n, dtype=np.uint8)
    zero = np.zeros((n, n), dtype=np.uint8)
    return np.block([[zero, eye], [eye, zero]])


@dataclass
class CliffordTableau:
    """Binary symplectic matrix plus signs: the conjugation action of a
    Clifford unitary on the Pauli generators, up to global phase."""

    n_qubits: int
    mat: np.ndarray  # (2N, 2N) uint8, rows = images of X_1..X_N, Z_1..Z_N
    signs: np.ndarray  # (2N,) uint8

    def __post_init__(self):
        n2 = 2 * self.n_qubits
        self.mat = np.asarray(self.mat, dtype=np.uint8) % 2
        self.signs = np.asarray(self.signs, dtype=np.uint8) % 2
        if self.mat.shape != (n2, n2) or self.signs.shape != (n2,):
            raise ValueError("tableau shape mismatch")
        if not self.is_symplectic():
            raise InvalidGeneratorImages("rows do not preserve the symplectic form")

    def is_symplectic(self) -> bool:
        j = _symplectic_j(self.n_qubits)
        return bool(np.array_equal(self.mat @ j @ self.mat.T % 2, j))

    @classmethod
    def identity(cls, n_qubits: int) -> "CliffordTableau":
        return cls(n_qubits, np.eye(2 * n_qubits, dtype=np.uint8),
                   np.zeros(2 * n_qubits, dtype=np.uint8))

    def row_pauli(self, i: int) -> tuple[PauliString, int]:
        """Image of generator i (0..N-1: X_i, N..2N-1: Z_i) as a phase-0
        string plus its +-1 sign."""
        return _row_to_pauli(self.mat[i]), -1 if self.signs[i] else 1

    def conjugate(self, p: PauliString) -> tuple[PauliString, int]:
        """C P C^dag for a Hermitian string: phase-0 result plus a +-1 sign."""
        if p.n_qubits != self.n_qubits:
            raise ValueError("qubit-count mismatch")
        if not p.is_hermitian:
            raise NotHermitian("conjugation is defined for Hermitian strings")
        acc = PauliString.identity(self.n_qubits)
        kappa = 0  # accumulated power of i from the multiplication cocycles
        neg = 0  # accumulated -1 exponent from row signs
        index, width = p.index, 2 * self.n_qubits
        for i in range(width):  # the X_1..X_N factors, then Z_1..Z_N
            if not (index >> (width - 1 - i)) & 1:
                continue
            img, sgn = self.row_pauli(i)
            acc, c = pauli_multiply(acc, img)
            kappa = (kappa + _phase_power(c)) % 4
            neg ^= sgn < 0
        total = (p.phase_exp + (p.x & p.z).bit_count() + kappa) % 4
        if total not in (0, 2):
            raise AssertionError("conjugation of a Hermitian string must give +-1")
        sign = (1 if total == 0 else -1) * (-1 if neg else 1)
        return acc, sign

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
        symplectic M.  Row i is the class of C^dag g_i C, and its sign s
        follows from conjugating back: C (s P(row i)) C^dag = g_i."""
        j = _symplectic_j(self.n_qubits)
        mat = j @ self.mat.T @ j % 2
        signs = np.array([self.conjugate(_row_to_pauli(row))[1] < 0 for row in mat],
                         dtype=np.uint8)
        return CliffordTableau(self.n_qubits, mat, signs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordTableau)
            and self.n_qubits == other.n_qubits
            and np.array_equal(self.mat, other.mat)
            and np.array_equal(self.signs, other.signs)
        )


def _phase_power(c: complex) -> int:
    """The k in {0, 1, 2, 3} with c == i^k exactly."""
    try:
        return _I4_POWER[complex(c)]
    except KeyError:
        raise ValueError(f"{c!r} is not a power of i") from None


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
    mat = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    signs = np.zeros(2 * n, dtype=np.uint8)
    for i, (p, s) in enumerate(images):
        if p.n_qubits != n:
            raise InvalidGeneratorImages("qubit-count mismatch among images")
        if p.phase_exp != 0:
            raise InvalidGeneratorImages("images must be phase-0 strings")
        if s not in (1, -1):
            raise InvalidGeneratorImages("signs must be +-1")
        mat[i] = _pauli_to_row(p)
        signs[i] = 1 if s == -1 else 0
    return CliffordTableau(n, mat, signs)


def _symp_inner(u: np.ndarray, v: np.ndarray, n: int) -> int:
    return int((u[:n] @ v[n:] + u[n:] @ v[:n]) % 2)


def _project_out(v: np.ndarray, f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """v with the hyperbolic pair (f, g) projected out: the result pairs to
    zero with both f and g (given <f, g> = 1)."""
    v = v.copy()
    if _symp_inner(v, g, n):
        v ^= f
    if _symp_inner(v, f, n):
        v ^= g
    return v


def _symplectic_pairs(vectors: list[np.ndarray], n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hyperbolic pairs spanning the given subgroup under the standard form
    (symplectic Gram-Schmidt, in the given order)."""
    vecs = list(vectors)
    pairs = []
    while vecs:
        f = vecs.pop(0)
        j = next((k for k, v in enumerate(vecs) if _symp_inner(f, v, n)), None)
        if j is None:
            raise FactorizationDegeneracy("commutation form degenerate on subgroup")
        g = vecs.pop(j)
        pairs.append((f, g))
        vecs = [_project_out(v, f, g, n) for v in vecs]
    return pairs


def _f2_independent(vectors: list[np.ndarray], expected: int) -> list[np.ndarray]:
    """Keep a maximal linearly independent subset (deterministic order)."""
    rows: list[np.ndarray] = []
    pivots: list[int] = []
    kept: list[np.ndarray] = []
    for v in vectors:
        r = v.copy()
        for row, piv in zip(rows, pivots):
            if r[piv]:
                r ^= row
        nz = np.flatnonzero(r)
        if nz.size:
            rows.append(r)
            pivots.append(int(nz[0]))
            kept.append(v)
    if len(kept) != expected:
        raise AssertionError("unexpected rank in symplectic complement")
    return kept


def _f2_nullspace(mat: np.ndarray) -> list[np.ndarray]:
    """Basis of {v : v @ mat = 0 (mod 2)} for a symmetric uint8 matrix."""
    m = mat.copy() % 2
    n = m.shape[0]
    trans = np.eye(n, dtype=np.uint8)
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if m[r, col]), None)
        if pivot is None:
            continue
        if pivot != row:
            m[[row, pivot]] = m[[pivot, row]]
            trans[[row, pivot]] = trans[[pivot, row]]
        for r in range(n):
            if r != row and m[r, col]:
                m[r] ^= m[row]
                trans[r] ^= trans[row]
        row += 1
    return [trans[r] for r in range(n) if not m[r].any()]


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
    basis = [row.copy() for row in np.eye(2 * n, dtype=np.uint8)]
    xrows: list[np.ndarray] = []
    zrows: list[np.ndarray] = []
    for step in range(n):
        m = n - step
        k = int(rng.integers(1, 4**m))
        f = np.zeros(2 * n, dtype=np.uint8)
        for i in range(2 * m):
            if (k >> i) & 1:
                f ^= basis[i]
        pair = [_symp_inner(f, b, n) for b in basis]
        j0 = pair.index(1)  # exists: the form is nondegenerate on the span
        kern = [basis[i] ^ (basis[j0] if pair[i] else 0)
                for i in range(2 * m) if i != j0]
        g = basis[j0].copy()
        for bit, kv in zip(rng.integers(0, 2, size=2 * m - 1), kern):
            if bit:
                g ^= kv
        xrows.append(f)
        zrows.append(g)
        if m > 1:
            basis = _f2_independent([_project_out(b, f, g, n) for b in basis], 2 * m - 2)
    mat = np.vstack(xrows + zrows)
    signs = rng.integers(0, 2, size=2 * n).astype(np.uint8)
    return CliffordTableau(n, mat, signs)


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
    for i in range(n):
        img, sgn = c.row_pauli(n + i)
        proj = (proj + sgn * pauli_mul_matrix(img, proj)) / 2.0
    col = int(np.argmax(np.linalg.norm(proj, axis=0)))
    psi0 = proj[:, col]
    nrm = np.linalg.norm(psi0)
    if nrm < 1e-12:
        raise AssertionError("stabilizer projector produced a null column")
    psi0 = psi0 / nrm
    # column b of the unitary = (image of X^b) |psi0>.  The images of the
    # X_q commute, so image(b) is image(b without its lowest set bit) times
    # the image of that bit's X_q, with a +-1 product phase.
    x_images = [c.row_pauli(q) for q in range(n)]  # X_1 (top bit) .. X_N
    images = [(PauliString.identity(n), 1)]
    u = np.empty((d, d), dtype=complex)
    u[:, 0] = psi0
    for b in range(1, d):
        low = b & -b
        rest, rest_sgn = images[b ^ low]
        img, q_sgn = x_images[n - low.bit_length()]
        img, phase = pauli_multiply(rest, img)
        sgn = rest_sgn * q_sgn * (1 if phase == 1 else -1)
        images.append((img, sgn))
        u[:, b] = sgn * apply_pauli(img, psi0)
    return fix_global_phase(u)


def fix_global_phase(m: np.ndarray) -> np.ndarray:
    """Divide by the phase of the first entry above 1e-12 in magnitude, in
    column-major order."""
    flat = m.flatten(order="F")
    idx = np.flatnonzero(np.abs(flat) > 1e-12)
    if idx.size == 0:
        return m
    return m * (np.abs(flat[idx[0]]) / flat[idx[0]])
