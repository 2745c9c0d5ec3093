"""Dense operator linear algebra over a bipartitioned qubit register:
realignment, operator-Schmidt spectra, operator entanglement, Haar sampling.

An operator with two parity sectors (paulis._SectorLayout, found once per
public call for its check and its kernel), such as every U_t of the XYZ
chain, is checked for unitarity and realigned block by block: U^dag U and
the realignment's Gram matrix are then block-diagonal, and only their two
diagonal blocks are computed.  Any other operator is the one-block case.
Both Gram products run in real arithmetic on the real and imaginary parts
of each block (_real_gram): one syrk and one real product, about half the
flops of the complex product.

All entropies are base-2 (bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary
from .paulis import _SectorLayout

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
    unitary: ||U^dag U - I||_F / sqrt(d) <= tol."""
    return _unitary_layout(matrix, tol) is not None


def _unitary_layout(matrix: np.ndarray, tol: float = UNITARITY_TOL) -> _SectorLayout | None:
    """The parity sectors of matrix (_SectorLayout.find) where
    is_unitary(matrix, tol) holds, else None: the check of a public call,
    whose kernel then takes the same layout."""
    if np.ndim(matrix) != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.shape[0]:
        return None
    layout = _SectorLayout.find(matrix)
    return layout if _within_unitary(matrix, layout, tol) else None


def _within_unitary(matrix: np.ndarray, layout: _SectorLayout, tol: float = UNITARITY_TOL) -> bool:
    """is_unitary's norm for a square matrix with the given sectors (a NaN or
    inf entry fails it)."""
    return bool(_unitarity_defect(matrix, layout) <= tol)


def _unitarity_defect(matrix: np.ndarray, layout: _SectorLayout) -> float:
    """||U^dag U - I||_F / sqrt(d), summed over the blocks U_s^dag U_s - I
    (U^dag U is exactly zero between them), each squared in real arithmetic
    by _real_gram."""
    squares = 0.0
    for block in layout.blocks(matrix):
        re, im = _real_gram(block, tall=True)
        re.ravel()[::re.shape[0] + 1] -= 1.0
        squares += np.vdot(re, re) + (0.0 if im is None else np.vdot(im, im))
    return math.sqrt(squares / matrix.shape[0])


def _real_gram(a: np.ndarray, tall: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(Re G, Im G) of G = A^dag A (tall) or A A^dag, in real arithmetic;
    Im G is None for a real A.  With X = [Re A; Im A] and M = (Re A)^T Im A,
    A^dag A = X^T X + i (M - M^T); with Y = [Re A, Im A] and
    M = Im A (Re A)^T, A A^dag = Y Y^T + i (M - M^T).  Either is one syrk
    and one real product, about half the flops of the complex product."""
    if not np.iscomplexobj(a):
        a = np.asarray(a, dtype=float)
        return (a.T @ a if tall else a @ a.T), None
    rows, cols = a.shape
    if tall:
        x = np.concatenate((a.real, a.imag))
        m = x[:rows].T @ x[rows:]
        re = x.T @ x
    else:
        y = np.concatenate((a.real, a.imag), axis=1)
        m = y[:, cols:] @ y[:, :cols].T
        re = y @ y.T
    return re, m - m.T


def realign(op: np.ndarray, bp: Bipartition) -> np.ndarray:
    """Reshuffle O/sqrt(d) into the d_A^2 x d_B^2 matrix whose singular
    values are the square roots of the operator-Schmidt coefficients:
    R[(a,a'),(b,b')] = O[(a,b),(a',b')] / sqrt(d).  A stack of operators
    (over the leading axes) gives the stack of their realignments."""
    if op.shape[-2:] != (bp.d, bp.d):
        raise ValueError("operator dimension does not match the bipartition")
    da, db, lead = bp.d_a, bp.d_b, op.shape[:-2]
    # numpy divides a complex by a real s as x * (1/s); written so, the bits
    # are the same without the general complex division, and the reshuffle
    # is read straight into the product
    r = np.empty((*lead, da, da, db, db), dtype=np.result_type(op, 1.0))
    np.multiply(op.reshape(*lead, da, db, da, db).swapaxes(-3, -2), 1.0 / np.sqrt(bp.d), out=r)
    return r.reshape(*lead, da * da, db * db)


def _realigned_grams(op: np.ndarray, bp: Bipartition,
                     layout: _SectorLayout) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """(Re G, Im G) of G = R R^dag or R^dag R, on the smaller side, for each
    block R of the realignment, in real arithmetic (_real_gram); together the
    eigenvalues of the G are the operator-Schmidt coefficients.  Im G is
    None for a real op.  R is one block, or two where op has two sectors:
    then R[(a,a'), (b,b')] is nonzero only where par(a) ^ par(a') =
    par(b) ^ par(b'), the parities of R's row and column indices, and each
    block is a quarter of the Gram flops of R."""
    r = realign(op, bp)
    blocks = [r]
    if len(layout.index) == 2:
        rows, cols = (_SectorLayout.of(n, True).index for n in r.shape)
        blocks = [r[i][:, j] for i, j in zip(rows, cols)]
    return [_real_gram(b, tall=b.shape[0] > b.shape[1]) for b in blocks]


def operator_schmidt_spectrum(op: np.ndarray, bp: Bipartition) -> np.ndarray:
    """Operator-Schmidt coefficients (squared singular values of the
    realignment), sorted descending; sums to 1 for unitary input."""
    return _schmidt_spectrum(op, bp, _SectorLayout.find(op))


def _schmidt_spectrum(op: np.ndarray, bp: Bipartition, layout: _SectorLayout) -> np.ndarray:
    lam = np.concatenate([np.linalg.eigvalsh(re if im is None else re + 1j * im)
                          for re, im in _realigned_grams(op, bp, layout)])
    return np.clip(np.sort(lam)[::-1], 0.0, None)


def _sum_lambda_sq(op: np.ndarray, bp: Bipartition, layout: _SectorLayout) -> float:
    """sum lambda^2 = ||G||_F^2 over the realigned Grams, from their real
    and imaginary parts."""
    return float(sum(np.vdot(re, re) + (0.0 if im is None else np.vdot(im, im))
                     for re, im in _realigned_grams(op, bp, layout)))


def _hermitian_bases(layout: _SectorLayout) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """The Hermitian orthonormal basis of n x n matrices, n the layout's
    size, as (lo, hi, n_diagonal, n_symmetric): |a><a|, then
    (|a><a'| + h.c.)/sqrt2 and then i(|a><a'| - h.c.)/sqrt2 for each a < a',
    so the antisymmetric ones come last.  One list for each
    q = sector(a) ^ sector(a'), 0 then 1 with two sectors, in the same order
    within each."""
    n = layout.sector.size
    lo, hi = np.triu_indices(n, 1)
    q = layout.sector[lo] ^ layout.sector[hi]
    bases = []
    for value in range(len(layout.index)):
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

    def __init__(self, bp: Bipartition, layout: _SectorLayout):
        da, db, d = bp.d_a, bp.d_b, bp.d
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

        bases_a, bases_b = (_hermitian_bases(_SectorLayout.of(n, parity)) for n in (da, db))
        self._blocks: list[list] = [[], []]  # by p
        for q_a, (lo_a, hi_a, diag_a, sym_a) in enumerate(bases_a):
            rows, rows_t = side(lo_a, hi_a, sym_a, db)
            for q_b, (lo_b, hi_b, diag_b, sym_b) in enumerate(bases_b):
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


def _renyi_bits(xi: np.ndarray, alpha: float) -> float:
    """(1/(1-alpha)) log2 sum Xi^alpha, with alpha = 1 the Shannon limit."""
    if abs(alpha - 1.0) < 1e-12:
        nz = xi[xi > 1e-300]
        return float(-np.sum(nz * np.log2(nz)))
    return float(np.log2(np.sum(xi**alpha)) / (1.0 - alpha))


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
    layout = _unitary_layout(op)
    if layout is None:
        raise NotUnitary("operator is not unitary within tolerance")
    if measure == "linear":
        return 1.0 - _sum_lambda_sq(op, bp, layout)
    if measure == "renyi":
        if alpha is None:
            raise ValueError("renyi measure needs alpha")
        return _renyi_bits(_schmidt_spectrum(op, bp, layout), alpha)
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
