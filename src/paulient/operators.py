"""Dense operator linear algebra over a bipartitioned qubit register:
realignment, operator-Schmidt spectra, operator entanglement, Haar sampling.

All entropies are base-2 (bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary

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
    """False for anything but a square 2-D array within tol of unitary."""
    if np.ndim(matrix) != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    d = matrix.shape[0]
    return bool(
        np.linalg.norm(matrix.conj().T @ matrix - np.eye(d)) / np.sqrt(d) <= tol
    )


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


def _realigned_gram(op: np.ndarray, bp: Bipartition) -> np.ndarray:
    """R R^dag or R^dag R of the realignment R, on its smaller side: its
    eigenvalues are the operator-Schmidt coefficients."""
    r = realign(op, bp)
    return r @ r.conj().T if r.shape[0] <= r.shape[1] else r.conj().T @ r


def operator_schmidt_spectrum(op: np.ndarray, bp: Bipartition) -> np.ndarray:
    """Operator-Schmidt coefficients (squared singular values of the
    realignment), sorted descending; sums to 1 for unitary input."""
    lam = np.linalg.eigvalsh(_realigned_gram(op, bp))[::-1]
    return np.clip(lam.real, 0.0, None)


def _sum_lambda_sq(op: np.ndarray, bp: Bipartition) -> float:
    return float(np.sum(np.abs(_realigned_gram(op, bp)) ** 2))


def _hermitian_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the Hermitian orthonormal basis of n x n matrices, in the
    order |a><a|, then (|a><a'| + h.c.)/sqrt2 and then i(|a><a'| - h.c.)/sqrt2
    for each a < a'; the last n(n-1)/2 elements are the antisymmetric ones."""
    lo, hi = np.triu_indices(n, 1)
    diag = np.arange(n)
    return np.concatenate([diag, lo, lo]), np.concatenate([diag, hi, hi])


class _HermitianPurity:
    """sum lambda^2 of Hermitian d x d operators K across one bipartition, in
    real arithmetic.

    With E_k and F_l the _hermitian_basis elements of the two blocks, the
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
    parts = [Re K, Im K], a contiguous (2, d, d) float64 array, through two
    flat gathers built once here, one per term; -Im beta is read as
    Im conj(beta).  The caller passes in the scratch and Gram matrix a call
    works in (one new_set()), which the call overwrites; the gather indices
    are only read, so calls with scratch of their own may run at once.
    """

    def __init__(self, bp: Bipartition):
        da, db, d = bp.d_a, bp.d_b, bp.d
        lo_a, hi_a = _hermitian_basis(da)
        lo_b, hi_b = _hermitian_basis(db)
        sym_a, sym_b = da * (da + 1) // 2, db * (db + 1) // 2  # the symmetric ones lead
        # flat index of K[(a,b), (a',b')] = row (a, a') + col (b, b')
        row, row_t = lo_a * (db * d) + hi_a * db, hi_a * (db * d) + lo_a * db
        col, col_t = lo_b * d + hi_b, hi_b * d + lo_b
        self._first = row[:, None] + col  # alpha
        self._second = row[:, None] + col_t  # beta
        self._second[:sym_a, sym_b:] = row_t[:sym_a, None] + col[sym_b:]  # conj(beta)
        # exactly one antisymmetric element: read Im K, the second slot of parts
        for block in ((slice(sym_a), slice(sym_b, None)), (slice(sym_a, None), slice(sym_b))):
            self._first[block] += d * d
            self._second[block] += d * d
        self._both_anti = (slice(sym_a, None), slice(sym_b, None))
        self._da, self._db, self._d = da, db, d

    def new_set(self) -> tuple[np.ndarray, np.ndarray]:
        """(scratch, gram): the coefficient scratch and the Gram matrix on
        the smaller side that one call works in."""
        side = min(self._da, self._db) ** 2
        return np.empty((2, self._da**2, self._db**2)), np.empty((side, side))

    def __call__(self, parts: np.ndarray, scratch: np.ndarray, gram: np.ndarray) -> float:
        coeffs, second = scratch
        flat = parts.reshape(-1)
        # the indices are in range; mode="clip" writes straight into out
        flat.take(self._first, out=coeffs, mode="clip")
        np.negative(coeffs[self._both_anti], out=coeffs[self._both_anti])
        flat.take(self._second, out=second, mode="clip")
        coeffs += second
        coeffs[:self._da] *= math.sqrt(0.5)
        coeffs[:, :self._db] *= math.sqrt(0.5)
        if self._da <= self._db:
            np.matmul(coeffs, coeffs.T, out=gram)
        else:
            np.matmul(coeffs.T, coeffs, out=gram)
        return float(np.vdot(gram, gram)) / self._d**2


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
