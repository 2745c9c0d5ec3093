"""Dense operator linear algebra over a bipartitioned qubit register:
realignment, operator-Schmidt spectra, operator entanglement, Haar sampling.

An operator that is exactly zero between the even- and odd-popcount basis
states (paulis._parity_sectors), such as every U_t of the XYZ chain, is
checked for unitarity and realigned block by block: U^dag U and the
realignment's Gram matrix are then block-diagonal, and only their two
diagonal blocks are computed.  Any other operator is the one-block case.

All entropies are base-2 (bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary
from .paulis import _parity_index, _parity_sectors, _sector_blocks

UNITARITY_TOL = 1e-8


@dataclass(frozen=True)
class Bipartition:
    """Split into a leading block A of n_a qubits and a trailing block B."""

    n_a: int
    n_b: int

    def __post_init__(self):
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError("both blocks need at least one qubit")

    @property
    def n_qubits(self) -> int:
        return self.n_a + self.n_b

    @property
    def d(self) -> int:
        return 1 << self.n_qubits

    @property
    def d_a(self) -> int:
        return 1 << self.n_a

    @property
    def d_b(self) -> int:
        return 1 << self.n_b


def is_unitary(matrix: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    """False for anything but a non-empty square 2-D array within tol of
    unitary: ||U^dag U - I||_F / sqrt(d) <= tol.  Where U has parity sectors
    (paulis._parity_sectors), U^dag U is exactly zero between them, so the
    norm is summed over the diagonal blocks U_s^dag U_s - I."""
    if np.ndim(matrix) != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.shape[0]:
        return False
    squares = 0.0
    for block in _sector_blocks(matrix)[1]:
        squares += np.linalg.norm(block.conj().T @ block - np.eye(block.shape[0])) ** 2
    return bool(np.sqrt(squares) / np.sqrt(matrix.shape[0]) <= tol)


def _require_unitary(matrix: np.ndarray) -> None:
    if not is_unitary(matrix):
        raise NotUnitary("operator is not unitary within tolerance")


def realign(op: np.ndarray, bp: Bipartition) -> np.ndarray:
    """Reshuffle O/sqrt(d) into the d_A^2 x d_B^2 matrix whose singular
    values are the square roots of the operator-Schmidt coefficients:
    R[(a,a'),(b,b')] = O[(a,b),(a',b')] / sqrt(d)."""
    if op.shape[0] != bp.d:
        raise ValueError("operator dimension does not match the bipartition")
    da, db = bp.d_a, bp.d_b
    return (
        op.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
        / np.sqrt(bp.d)
    )


def _realigned_grams(op: np.ndarray, bp: Bipartition) -> list[np.ndarray]:
    """R R^dag or R^dag R, on the smaller side, of each block of the
    realignment R; together their eigenvalues are the operator-Schmidt
    coefficients.  R is one block, or two where op has parity sectors: then
    R[(a,a'), (b,b')] is nonzero only where par(a) ^ par(a') = par(b) ^ par(b'),
    the parities of R's row and column indices, and each block is a quarter
    of the Gram flops of R."""
    r = realign(op, bp)
    blocks = [r]
    if _parity_sectors(op) is not None:
        blocks = [r[np.ix_(rows, cols)]
                  for rows, cols in zip(_parity_index(r.shape[0]), _parity_index(r.shape[1]))]
    return [b @ b.conj().T if b.shape[0] <= b.shape[1] else b.conj().T @ b for b in blocks]


def operator_schmidt_spectrum(op: np.ndarray, bp: Bipartition) -> np.ndarray:
    """Operator-Schmidt coefficients (squared singular values of the
    realignment), sorted descending; sums to 1 for unitary input."""
    lam = np.concatenate([np.linalg.eigvalsh(g) for g in _realigned_grams(op, bp)])
    return np.clip(np.sort(lam.real)[::-1], 0.0, None)


def _sum_lambda_sq(op: np.ndarray, bp: Bipartition) -> float:
    return float(sum(np.sum(np.abs(g) ** 2) for g in _realigned_grams(op, bp)))


@dataclass(frozen=True)
class _SectorLayout:
    """How a Hermitian d x d operator K is stored that maps each parity
    sector s only into sector s ^ p, with p = 0 or 1 fixed per operator: as
    one float array of shape (sectors, 2, h, h) holding, for each row sector
    s, Re K and Im K of the h x h block K[S_s, S_(s^p)].  K[i, j] is entry
    (rank[i], rank[j]) of block sector[i].  With one sector (h = d, rank[i] =
    i) this is the plain [Re K, Im K] of any K."""

    index: tuple[np.ndarray, ...]  # each sector's indices, in rank order
    sector: np.ndarray  # the sector of each index
    rank: np.ndarray  # the position of each index within its sector
    h: int

    @classmethod
    def of(cls, d: int, parity: bool) -> "_SectorLayout":
        ys = np.arange(d)
        if not parity:
            return cls((ys,), np.zeros(d, dtype=np.intp), ys, d)
        # of 2k and 2k+1 exactly one is even, so i is number i >> 1 of its sector
        return cls(_parity_index(d), (np.bitwise_count(ys) & 1).astype(np.intp), ys >> 1,
                   d // 2)

    def new_parts(self) -> np.ndarray:
        return np.empty((len(self.index), 2, self.h, self.h))


def _hermitian_bases(n: int, parity: bool) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """The Hermitian orthonormal basis of n x n matrices as
    (lo, hi, n_diagonal, n_symmetric): |a><a|, then (|a><a'| + h.c.)/sqrt2
    and then i(|a><a'| - h.c.)/sqrt2 for each a < a', so the antisymmetric
    ones come last.  One list, or with parity one for each q = par(a) ^
    par(a'), 0 then 1, in the same order within each."""
    lo, hi = np.triu_indices(n, 1)
    q = np.bitwise_count(lo ^ hi) & 1 if parity else np.zeros(lo.size, dtype=np.uint8)
    bases = []
    for value in (0, 1) if parity else (0,):
        diag = np.arange(n if value == 0 else 0)
        lo_q, hi_q = lo[q == value], hi[q == value]
        bases.append((np.concatenate([diag, lo_q, lo_q]), np.concatenate([diag, hi_q, hi_q]),
                      diag.size, diag.size + lo_q.size))
    return bases


class _HermitianPurity:
    """sum lambda^2 of Hermitian d x d operators K across one bipartition, in
    real arithmetic, read from K stored in a _SectorLayout.

    With E_k and F_l the _hermitian_bases elements of the two blocks, the
    coefficients C[k, l] = Tr(K E_k (x) F_l) are real, and C is the realigned
    K up to a unitary change of basis on each side.  So the operator-Schmidt
    coefficients of K are lambda = sigma(C)^2 / d, and
    sum lambda^2 = ||C C^T||_F^2 / d^2, with C C^T (or C^T C) taken on the
    smaller side.  With alpha = K[(a,b), (a',b')] and beta = K[(a,b'), (a',b)]
    (a <= a', b <= b'), each entry is

        w (Re alpha + Re beta)   neither element antisymmetric,
        w (Im alpha - Im beta)   only F_l antisymmetric,
        w (Im alpha + Im beta)   only E_k antisymmetric,
        w (Re beta - Re alpha)   both antisymmetric,

    with w = 1/sqrt2 for each diagonal element among E_k, F_l.  A call reads
    the layout's parts through two flat gathers built once here, one per
    term; -Im beta is read as Im conj(beta).

    With parity sectors, K[(a,b), (a',b')] is nonzero only where
    q_A ^ q_B = p, with q_A = par(a) ^ par(a') and q_B likewise, so C is
    nonzero only on the blocks of basis elements with q_k ^ q_l = p.  Those
    two blocks give C C^T two diagonal blocks, and a call with parity p
    gathers and squares only them: half of C and a quarter of the Gram
    flops.  Without sectors C is one block.  The caller passes in the
    scratch and Gram matrix a call works in (one new_set()), which the call
    overwrites; the gather indices are only read, so calls with scratch of
    their own may run at once.
    """

    def __init__(self, bp: Bipartition, layout: _SectorLayout | None = None):
        da, db, d = bp.d_a, bp.d_b, bp.d
        layout = _SectorLayout.of(d, parity=False) if layout is None else layout
        parity = len(layout.index) == 2
        hh = layout.h * layout.h

        def side(lo, hi, n_sym, scale):
            # per element: the rank part of its flat offset and its block code
            # 2 sector + (antisymmetric), for (lo, hi) and for (hi, lo); the
            # two sides' codes XOR, since sector and part each XOR
            anti = np.arange(lo.size) >= n_sym
            i, j = lo * scale, hi * scale
            return [(layout.rank[i] * layout.h + layout.rank[j], 2 * layout.sector[i] + anti),
                    (layout.rank[j] * layout.h + layout.rank[i], 2 * layout.sector[j] + anti)]

        def offsets(rows, cols):
            (row_rank, row_code), (col_rank, col_code) = rows, cols
            out = np.bitwise_xor.outer(row_code, col_code)
            out *= hh
            out += row_rank[:, None]
            out += col_rank
            return out

        self._blocks: list[list] = [[], []]  # by p
        for q_a, (lo_a, hi_a, diag_a, sym_a) in enumerate(_hermitian_bases(da, parity)):
            rows, rows_t = side(lo_a, hi_a, sym_a, db)
            for q_b, (lo_b, hi_b, diag_b, sym_b) in enumerate(_hermitian_bases(db, parity)):
                cols, cols_t = side(lo_b, hi_b, sym_b, 1)
                first = offsets(rows, cols)  # alpha
                second = offsets(rows, cols_t)  # beta
                second[:sym_a, sym_b:] = offsets(  # conj(beta)
                    [a[:sym_a] for a in rows_t], [b[sym_b:] for b in cols])
                self._blocks[q_a ^ q_b].append((first, second, diag_a, sym_a, diag_b, sym_b))
        self._d = d

    def new_set(self, scratch_floats: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(scratch, gram): the flat coefficient scratch, of at least
        scratch_floats, and the flat Gram matrix that one call works in."""
        blocks = self._blocks[0] + self._blocks[1]
        size = max(b[0].size for b in blocks)
        side = max(min(b[0].shape) for b in blocks)
        return np.empty(max(2 * size, scratch_floats)), np.empty(side * side)

    def __call__(self, parts: np.ndarray, scratch: np.ndarray, gram: np.ndarray,
                 p: int = 0) -> float:
        flat = parts.reshape(-1)
        total = 0.0
        for first, second, diag_a, sym_a, diag_b, sym_b in self._blocks[p]:
            rows, cols = first.shape
            coeffs = scratch[:first.size].reshape(rows, cols)
            beta = scratch[first.size:2 * first.size].reshape(rows, cols)
            # the indices are in range; mode="clip" writes straight into out
            flat.take(first, out=coeffs, mode="clip")
            both_anti = coeffs[sym_a:, sym_b:]
            np.negative(both_anti, out=both_anti)
            flat.take(second, out=beta, mode="clip")
            coeffs += beta
            coeffs[:diag_a] *= math.sqrt(0.5)
            coeffs[:, :diag_b] *= math.sqrt(0.5)
            side = min(rows, cols)
            g = gram[:side * side].reshape(side, side)
            if rows <= cols:
                np.matmul(coeffs, coeffs.T, out=g)
            else:
                np.matmul(coeffs.T, coeffs, out=g)
            total += float(np.vdot(g, g))
        return total / self._d**2


def linear_entanglement_unitary(op: np.ndarray, bp: Bipartition) -> float:
    """E_lin = 1 - sum of squared Schmidt coefficients; assumes unitary input
    (no check), for use in hot loops over evolved Paulis."""
    return 1.0 - _sum_lambda_sq(op, bp)


def operator_entanglement(
    op: np.ndarray,
    bp: Bipartition,
    measure: str = "linear",
    alpha: float | None = None,
    rank_tol: float = 1e-10,
) -> float:
    """Operator entanglement of a unitary across the bipartition.

    measure: "linear" (1 - sum lam^2), "renyi" (needs alpha; alpha=1 is the
    von Neumann limit), or "schmidt_rank" (count of lam > rank_tol * lam_max).
    """
    if measure == "schmidt_rank":
        lam = operator_schmidt_spectrum(op, bp)
        return float(np.count_nonzero(lam > rank_tol * lam[0]))
    _require_unitary(op)
    if measure == "linear":
        return linear_entanglement_unitary(op, bp)
    if measure == "renyi":
        if alpha is None:
            raise ValueError("renyi measure needs alpha")
        lam = operator_schmidt_spectrum(op, bp)
        lam = lam[lam > 1e-300]
        if abs(alpha - 1.0) < 1e-12:
            return float(-np.sum(lam * np.log2(lam)))
        return float(np.log2(np.sum(lam**alpha)) / (1.0 - alpha))
    raise ValueError(f"unknown measure {measure!r}")


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: complex Ginibre matrix, QR, and the phase
    correction that makes the distribution exactly invariant."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_local_unitary(bp: Bipartition, rng: np.random.Generator) -> np.ndarray:
    """Kron of independent Haar unitaries on the two blocks."""
    return np.kron(haar_random_unitary(bp.d_a, rng), haar_random_unitary(bp.d_b, rng))
