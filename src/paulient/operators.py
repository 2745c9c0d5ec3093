"""Dense operator linear algebra over a bipartitioned qubit register:
realignment, operator-Schmidt spectra, operator entanglement, Haar sampling.

All entropies are base-2 (bits).
"""

from __future__ import annotations

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
    d = matrix.shape[0]
    return bool(
        np.linalg.norm(matrix.conj().T @ matrix - np.eye(d)) / np.sqrt(d) <= tol
    )


def _require_unitary(matrix: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    if not is_unitary(matrix, tol):
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


def operator_schmidt_spectrum(op: np.ndarray, bp: Bipartition) -> np.ndarray:
    """Operator-Schmidt coefficients (squared singular values of the
    realignment), sorted descending; sums to 1 for unitary input."""
    r = realign(op, bp)
    gram = r @ r.conj().T if r.shape[0] <= r.shape[1] else r.conj().T @ r
    lam = np.linalg.eigvalsh(gram)[::-1]
    return np.clip(lam.real, 0.0, None)


def _sum_lambda_sq(op: np.ndarray, bp: Bipartition) -> float:
    r = realign(op, bp)
    gram = r @ r.conj().T if r.shape[0] <= r.shape[1] else r.conj().T @ r
    return float(np.sum(np.abs(gram) ** 2))


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
