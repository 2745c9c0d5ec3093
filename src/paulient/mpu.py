"""Pauli-entangling power of uniform matrix product unitaries via transfer
matrices, with a thermodynamic-limit mode and dense cross-validation hooks.

Index contract for the site tensor A[l, r, s, t]:
l = left bond, r = right bond, s = physical out (row), t = physical in
(column).  The length-N operator is the periodic closure

    U[s_1..s_N, t_1..t_N] = Tr_bond( A^(s_1 t_1) A^(s_2 t_2) ... )

with site 1 the most significant tensor factor.

Transfer matrices for the entangling-power contraction
P_E = 1 - d^-4 Tr(T^A_(12)(34) Udag^x4 Lam^xN U^x4):
per site, four copies of A (from U^x4), four of conj(A) (from Udag^x4),
the 16x16 single-site insert Lam = sum_sigma sigma^x4, and on A sites the
copy permutation (12)(34) applied to the in-legs of the U copies.  In index
form (per copy c: A[l_c, r_c, p_c, i_c] and conj(A)[m_c, n_c, k_c, j_c],
Lam[k_1..k_4, p_1..p_4]):

    E[(l,m),(r,n)] = sum A1 A2 A3 A4 conj(A)1..4 Lam,   with
    B sites: j_c = i_c;   A sites: (j_1 j_2 j_3 j_4) = (i_2 i_1 i_4 i_3),

giving chi^8 x chi^8 matrices and
    Tr(...) = Tr(E_A^(N_A) E_B^(N_B)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateLeadingEigenvalue, NotUnitaryClosure, SizeLimitExceeded
from .operators import UNITARITY_TOL, is_unitary
from .paulis import DENSE_LIMIT, SINGLE_QUBIT_PAULIS

GAP_TOL = 1e-8


@dataclass
class MPUTensor:
    chi: int
    tensor: np.ndarray  # (chi, chi, 2, 2)

    def __post_init__(self):
        if self.chi < 1:
            raise ValueError(f"bond dimension must be at least 1, got {self.chi}")
        self.tensor = np.asarray(self.tensor, dtype=complex)
        if self.tensor.shape != (self.chi, self.chi, 2, 2):
            raise ValueError("tensor must have shape (chi, chi, 2, 2)")


@dataclass
class TransferMatrixPair:
    t_a: np.ndarray  # chi^8 x chi^8, A-region (with the copy permutation)
    t_b: np.ndarray  # chi^8 x chi^8, B-region


def mpu_to_dense(a: MPUTensor, n_sites: int) -> np.ndarray:
    """Periodic closure of n_sites copies of the tensor; raises
    NotUnitaryClosure if the result is not unitary within UNITARITY_TOL."""
    if n_sites < 1:
        raise ValueError(f"a closure needs at least one site, got {n_sites}")
    if n_sites > DENSE_LIMIT:
        raise SizeLimitExceeded(f"{n_sites} sites exceeds dense limit {DENSE_LIMIT}")
    acc = a.tensor  # (l, r, S, T)
    ds = 2
    for _ in range(n_sites - 1):
        acc = np.einsum("abST,bcst->acSsTt", acc, a.tensor)
        ds *= 2
        acc = acc.reshape(a.chi, a.chi, ds, ds)
    u = np.einsum("aaST->ST", acc)
    if not is_unitary(u):
        raise NotUnitaryClosure(
            f"closure at {n_sites} sites is not unitary within {UNITARITY_TOL}"
        )
    return u


def build_lambda_site_tensor() -> np.ndarray:
    """The bond-4 tensor whose 4-copy periodic closure is the single-site
    insert Lam = sum_sigma sigma^x4: Pi[alpha, beta] = delta_ab sigma_alpha."""
    pi = np.zeros((4, 4, 2, 2), dtype=complex)
    for idx, name in enumerate("IXZY"):
        pi[idx, idx] = SINGLE_QUBIT_PAULIS[name]
    return pi


def lambda_site_operator() -> np.ndarray:
    """Lam = sum_sigma sigma^x4 as a 16x16 matrix (copy-major bits)."""
    lam = np.zeros((16, 16), dtype=complex)
    for name in "IXZY":
        s = SINGLE_QUBIT_PAULIS[name]
        s2 = np.kron(s, s)
        lam += np.kron(s2, s2)
    return lam


def lambda_closure(n_sites: int) -> np.ndarray:
    """Lam^xN rearranged to the copy-major quadrupled space, i.e. d^2 Q."""
    if n_sites > 3:
        raise SizeLimitExceeded("quadrupled-space closure is limited to 3 sites")
    lam = lambda_site_operator()
    full = lam
    for _ in range(n_sites - 1):
        full = np.kron(full, lam)
    n_axes = 4 * n_sites
    arr = full.reshape((2,) * (2 * n_axes))
    # site-major source axis (site s, copy c) sits at s*4 + c; copy-major
    # target position is c*n_sites + s
    perm = [0] * n_axes
    for s in range(n_sites):
        for c in range(4):
            perm[c * n_sites + s] = s * 4 + c
    arr = arr.transpose(perm + [n_axes + p for p in perm])
    dim = 1 << n_axes
    return arr.reshape(dim, dim)


_EINSUM_A = "aequ,bfrv,cgsw,dhtx,imyv,jnzu,koAx,lpBw,yzABqrst->abcdijklefghmnop"
_EINSUM_B = "aequ,bfrv,cgsw,dhtx,imyu,jnzv,koAw,lpBx,yzABqrst->abcdijklefghmnop"


def transfer_matrix_pair(a: MPUTensor) -> TransferMatrixPair:
    """Per-site transfer matrices of the entangling-power contraction."""
    t = a.tensor
    tc = t.conj()
    lam8 = lambda_site_operator().reshape((2,) * 8)
    chi8 = a.chi**8
    t_a = np.einsum(_EINSUM_A, t, t, t, t, tc, tc, tc, tc, lam8,
                    optimize="greedy").reshape(chi8, chi8)
    t_b = np.einsum(_EINSUM_B, t, t, t, t, tc, tc, tc, tc, lam8,
                    optimize="greedy").reshape(chi8, chi8)
    return TransferMatrixPair(t_a=t_a, t_b=t_b)


def _dominant_pair(m: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray]:
    """Dominant eigenvalue with right and left eigenvectors; rejects a
    (near-)degenerate leading magnitude.

    The vectors come from sorted Schur decompositions: the transfer matrices
    are strongly non-normal (nilpotent bulk), where plain eigenvector solves
    are unreliable."""
    if m.shape[0] == 1:
        one = np.ones(1, dtype=complex)
        return complex(m[0, 0]), one, one
    mags = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
    if mags[0] - mags[1] <= GAP_TOL * max(1.0, mags[0]):
        raise DegenerateLeadingEigenvalue(
            f"leading magnitudes {mags[0]:.6g} and {mags[1]:.6g} are not separated"
        )
    thresh = 0.5 * (mags[0] + mags[1])
    t, q, sdim = scipy.linalg.schur(m, output="complex",
                                    sort=lambda x: abs(x) > thresh)
    if sdim != 1:
        raise DegenerateLeadingEigenvalue(f"{sdim} eigenvalues above the gap")
    lead = complex(t[0, 0])
    r = q[:, 0]
    _, q2, sdim2 = scipy.linalg.schur(m.conj().T, output="complex",
                                      sort=lambda x: abs(x) > thresh)
    if sdim2 != 1:
        raise DegenerateLeadingEigenvalue("left spectrum disagrees on the gap")
    l = q2[:, 0]
    if abs(np.vdot(l, r)) < 1e-10:
        raise DegenerateLeadingEigenvalue(
            "left/right eigenvector overlap vanishes (defective leading block)"
        )
    return lead, r, l


def pauli_power_mpu(
    a: MPUTensor,
    n_a: int,
    n_b: int,
    mode: str = "finite",
) -> float:
    """Pauli-entangling power of the length-(n_a+n_b) closure across the
    leading n_a | trailing n_b cut, from transfer-matrix powers.

    mode="finite" evaluates 1 - 16^-N Tr(E_A^n_a E_B^n_b) exactly;
    mode="thermodynamic" takes n_a, n_b -> infinity using the dominant
    eigenpairs (n_a, n_b arguments are ignored there).
    """
    pair = transfer_matrix_pair(a)
    if mode == "finite":
        if n_a < 1 or n_b < 1:
            raise ValueError("finite mode needs n_a, n_b >= 1")
        n = n_a + n_b
        ea = np.linalg.matrix_power(pair.t_a / 16.0, n_a)
        eb = np.linalg.matrix_power(pair.t_b / 16.0, n_b)
        val = np.trace(ea @ eb)
        if abs(val.imag) > 1e-9:
            raise AssertionError(f"transfer trace should be real, got {val:.3e}")
        return float(1.0 - val.real)
    if mode != "thermodynamic":
        raise ValueError(f"unknown mode {mode!r}")
    la, ra, lla = _dominant_pair(pair.t_a / 16.0)
    lb, rb, llb = _dominant_pair(pair.t_b / 16.0)
    prod = la * lb
    if abs(prod - 1.0) <= 1e-8:
        overlap = (np.vdot(lla, rb) * np.vdot(llb, ra)) / (
            np.vdot(lla, ra) * np.vdot(llb, rb)
        )
        return float(1.0 - overlap.real)
    if abs(prod) < 1.0:
        return 1.0
    raise AssertionError(
        f"dominant eigenvalue product {prod:.6g} exceeds 1; invalid MPU tensor"
    )


# ---------------------------------------------------------------------------
# Reference tensors (translation-invariant circuits with exact chi = 1, 2)
# ---------------------------------------------------------------------------


def mpu_single_gate(gate: np.ndarray) -> MPUTensor:
    """chi = 1 tensor encoding gate^xN."""
    return MPUTensor(chi=1, tensor=np.asarray(gate, dtype=complex).reshape(1, 1, 2, 2))


def mpu_cz_chain(site_gate: np.ndarray | None = None) -> MPUTensor:
    """chi = 2 tensor of the periodic controlled-Z chain prod_i CZ_{i,i+1},
    optionally composed with a uniform single-site gate applied first:
    A[l, r, s, t] = delta_st delta_rt (-1)^(l t), then the in-leg is
    contracted with the site gate."""
    t = np.zeros((2, 2, 2, 2), dtype=complex)
    for l in range(2):
        for s in range(2):
            t[l, s, s, s] = (-1.0) ** (l * s)
    if site_gate is not None:
        t = np.einsum("lrsu,ut->lrst", t, np.asarray(site_gate, dtype=complex))
    return MPUTensor(chi=2, tensor=t)


def mpu_shift() -> MPUTensor:
    """chi = 2 tensor of the cyclic left shift: A[l, r, s, t] = d_lt d_rs."""
    t = np.zeros((2, 2, 2, 2), dtype=complex)
    for l in range(2):
        for s in range(2):
            t[l, s, s, l] = 1.0
    return MPUTensor(chi=2, tensor=t)


def mpu_zz_chain(theta: float, site_gate: np.ndarray | None = None) -> MPUTensor:
    """chi = 2 tensor of prod_i exp(-i theta Z_i Z_{i+1}) (periodic), optionally
    composed with a uniform single-site gate.  theta = pi/4 is a Clifford
    point; generic theta entangles Pauli strings across any cut."""
    t = np.zeros((2, 2, 2, 2), dtype=complex)
    for l in range(2):
        for s in range(2):
            t[l, s, s, s] = np.exp(-1j * theta * (-1.0) ** (l + s))
    if site_gate is not None:
        t = np.einsum("lrsu,ut->lrst", t, np.asarray(site_gate, dtype=complex))
    return MPUTensor(chi=2, tensor=t)
