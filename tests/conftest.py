"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own computational paths:
dense Pauli matrices come from literal 2x2 arrays and np.kron, operator
entanglement from an explicit reshape + SVD, and the brute-force
Pauli-entangling power from averaging those per-string values.
"""

import numpy as np
import pytest

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_GATE = np.diag([1.0, 1.0j])
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


def kron_chain(*mats: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def dense_pauli(label: str) -> np.ndarray:
    """Dense matrix of an unsigned Pauli label like "XIZ" (site 1 leftmost,
    most significant)."""
    return kron_chain(*[LETTER[c] for c in label])


def oracle_schmidt_values(op: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Operator-Schmidt coefficients via explicit reshuffle + SVD."""
    da, db = 2**n_a, 2**n_b
    d = da * db
    r = op.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    return np.linalg.svd(r / np.sqrt(d), compute_uv=False) ** 2


def oracle_elin(op: np.ndarray, n_a: int, n_b: int) -> float:
    lam = oracle_schmidt_values(op, n_a, n_b)
    return float(1.0 - np.sum(lam**2))


def pauli_labels(n: int) -> list[str]:
    """All 4^n unsigned labels, in "IXYZ" order per site."""
    labels = [""]
    for _ in range(n):
        labels = [lab + c for lab in labels for c in "IXYZ"]
    return labels


def oracle_pauli_power(u: np.ndarray, n_a: int, n_b: int) -> float:
    """Brute-force mean of E_lin(U^dag P U) over all dense Pauli strings."""
    vals = [oracle_elin(u.conj().T @ dense_pauli(lab) @ u, n_a, n_b)
            for lab in pauli_labels(n_a + n_b)]
    return float(np.mean(vals))


def oracle_operator_magic(op: np.ndarray) -> float:
    """Linear operator stabilizer entropy 1 - sum_P |Tr(op P) / d|^4, one
    dense Pauli string at a time."""
    d = op.shape[0]
    coeffs = [np.trace(op @ dense_pauli(lab)) / d for lab in pauli_labels(d.bit_length() - 1)]
    return float(1.0 - np.sum(np.abs(coeffs) ** 4))


def oracle_local_magic_bound(u: np.ndarray, n_a: int, n_b: int) -> tuple[float, float]:
    """Mean oracle_operator_magic of U P U^dag over the strings local to A,
    and over those local to B."""
    def side(labels: list[str]) -> float:
        return float(np.mean([oracle_operator_magic(u @ dense_pauli(lab) @ u.conj().T)
                              for lab in labels]))
    return (side([lab + "I" * n_b for lab in pauli_labels(n_a)]),
            side(["I" * n_a + lab for lab in pauli_labels(n_b)]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
