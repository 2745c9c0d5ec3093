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
the single-site insert Lam = sum_sigma sigma^x4, and on A sites the copy
permutation (12)(34) applied to the in-legs of the U copies.  Lam is a sum
of products over the copies, so with copy c carrying A[l_c, r_c, p_c, i_c]
and conj(A)[m_c, n_c, k_c, j_c] the transfer matrices are Kronecker sums

    E_B = sum_sigma M_sigma^x4,    E_A = sum_sigma N_sigma (x) N_sigma,
    M_sigma[(l,m),(r,n)] = sum_{p,k,i} A[l,r,p,i] sigma[k,p] conj(A)[m,n,k,i],
    N_sigma = copies 1 and 2 with j_1 = i_2, j_2 = i_1 (chi^4 x chi^4),

and Tr(...) = Tr(E_A^(N_A) E_B^(N_B)).  Read as maps on bond operators
X[r, n] of one copy (or of two, for N_sigma), each M_sigma and N_sigma
takes X^dag to its image's dag, because sigma is Hermitian.  So in the
orthonormal Hermitian basis H_k of chi x chi matrices
(operators._hermitian_bases), with V[(l,m),k] = H_k[l,m], the factors
M'_sigma = V^dag M_sigma V and N'_sigma = (V (x) V)^dag N_sigma (V (x) V)
are real, and so are E_A and E_B built from them.  The trace and the
spectra are the same in any basis, so every power and Schur decomposition
below runs in real arithmetic.  The pair is laid out copy-pair-major:
row (k_1..k_4), k_c the basis index of copy c's (l_c, m_c), so
V^x4 E (V^x4)^dag is E in the bond basis with rows (l_1 m_1 .. l_4 m_4).
Both modes keep these chi^8 x chi^8 matrices dense, so bond dimensions
above TRANSFER_CHI_LIMIT = 2 are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DegenerateLeadingEigenvalue, NotUnitaryClosure, SizeLimitExceeded
from .operators import UNITARITY_TOL, _hermitian_bases, is_unitary
from .paulis import DENSE_LIMIT, SINGLE_QUBIT_PAULIS, _SectorLayout

GAP_TOL = 1e-8
# on ||U^dag U - I||_F^2 / d of a closure; the reference tensors below, bare
# and with Haar site gates, reach at most 4.6e-15 at N = 1-40
CLOSURE_DEFECT_TOL = 1e-10
_PAULI_STACK = np.stack([SINGLE_QUBIT_PAULIS[name] for name in "IXZY"])


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
    t_a: np.ndarray  # chi^8 x chi^8 real, A-region (with the copy permutation)
    t_b: np.ndarray  # chi^8 x chi^8 real, B-region


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


def lambda_site_operator() -> np.ndarray:
    """Lam = sum_sigma sigma^x4 as a 16x16 matrix (copy-major bits)."""
    return sum(reduce(np.kron, [s] * 4) for s in _PAULI_STACK)


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
    perm = [s * 4 + c for c in range(4) for s in range(n_sites)]
    arr = arr.transpose(perm + [n_axes + p for p in perm])
    dim = 1 << n_axes
    return arr.reshape(dim, dim)


# E_A, E_B are chi^8 x chi^8 float64: 0.5 MiB each at chi = 2, 0.34 GB at 3, 34 GB at 4
TRANSFER_CHI_LIMIT = 2


def _bond_basis(chi: int) -> np.ndarray:
    """V[(l, m), k] = H_k[l, m] for the Hermitian orthonormal basis H_k of
    chi x chi matrices (operators._hermitian_bases): a unitary chi^2 x chi^2."""
    ((lo, hi, n_diagonal, n_symmetric),) = _hermitian_bases(_SectorLayout.of(chi, False))
    k = np.arange(lo.size)
    entry = np.where(k < n_symmetric, 1.0, 1j) * np.where(k < n_diagonal, 1.0, np.sqrt(0.5))
    v = np.zeros((chi, chi, lo.size), dtype=complex)
    v[lo, hi, k] = entry
    off = k >= n_diagonal
    v[hi[off], lo[off], k[off]] = entry[off].conj()
    return v.reshape(chi * chi, lo.size)


def transfer_matrix_pair(a: MPUTensor) -> TransferMatrixPair:
    """E_A and E_B of the module docstring, real in the Hermitian bond
    basis, from N'_sigma and M'_sigma; raises SizeLimitExceeded above
    TRANSFER_CHI_LIMIT before allocating them."""
    chi, t = a.chi, a.tensor
    if chi > TRANSFER_CHI_LIMIT:
        raise SizeLimitExceeded(f"bond dimension {chi} exceeds the dense "
                                f"transfer-matrix limit {TRANSFER_CHI_LIMIT}")
    v = _bond_basis(chi)
    # one copy, sigma on its out-leg, in-legs i (of A) and j (of conj A) open,
    # in the Hermitian basis on (l, m) and on (r, n)
    f = np.einsum("skp,lrpi,mnkj->slmrnij", _PAULI_STACK, t, t.conj())
    f = np.einsum("xa,sxyij,yb->sabij", v.conj(), f.reshape(4, chi**2, chi**2, 2, 2), v)
    # copies 1, 2 as [sigma, a1, a2, b1, b2]: N'_sigma, M'_sigma^x2, real up to
    # round-off
    pairs = np.stack([np.einsum("sacij,sbdji->sabcd", f, f),
                      np.einsum("sacii,sbdjj->sabcd", f, f)]).real.reshape(2, 4, -1)
    # sum over sigma of pair (x) pair, then the rows of copies 1, 2 beside those of 3, 4
    e = (pairs.transpose(0, 2, 1) @ pairs).reshape((2,) + (chi**2,) * 8)
    e = e.transpose(0, 1, 2, 5, 6, 3, 4, 7, 8).reshape(2, chi**8, chi**8)
    return TransferMatrixPair(t_a=e[0], t_b=e[1])


def closure_defect(a: MPUTensor, n_sites: int) -> float:
    """||U^dag U - I||_F^2 / d of the n_sites closure, as m2 - 2 m1 + 1 with
    m1 = Tr(U^dag U) / d and m2 = Tr((U^dag U)^2) / d read off per-site
    transfer matrices of two copies (chi^2 x chi^2) and four (chi^4 x chi^4)."""
    t, tc, chi = a.tensor, a.tensor.conj(), a.chi
    e1 = np.einsum("lrst,mnst->lmrn", t, tc).reshape(chi**2, chi**2) / 2.0
    # copies A[s, u], conj A[s, t], A[v, t], conj A[v, u]: Tr(U^dag U U^dag U)
    e2 = np.einsum("aesu,bfst,cgvt,dhvu->abcdefgh", t, tc, t, tc).reshape(chi**4, chi**4) / 2.0
    m1 = np.trace(np.linalg.matrix_power(e1, n_sites))
    m2 = np.trace(np.linalg.matrix_power(e2, n_sites))
    return abs(m2 - 2.0 * m1 + 1.0)


def _dominant_pair(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Dominant eigenvalue of a real matrix with right and left
    eigenvectors; rejects a (near-)degenerate leading magnitude.

    A strictly dominant eigenvalue of a real matrix is real: a complex one
    comes with its conjugate, of the same magnitude, which the gap check
    rejects.  The vectors come from sorted real Schur decompositions: the
    transfer matrices are strongly non-normal (nilpotent bulk), where plain
    eigenvector solves are unreliable."""
    import scipy.linalg  # scipy loads on the first thermodynamic call

    if m.shape[0] == 1:
        one = np.ones(1)
        return float(m[0, 0]), one, one
    mags = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
    if mags[0] - mags[1] <= GAP_TOL * max(1.0, mags[0]):
        raise DegenerateLeadingEigenvalue(
            f"leading magnitudes {mags[0]:.6g} and {mags[1]:.6g} are not separated"
        )
    thresh = 0.5 * (mags[0] + mags[1])

    def above(re, im):
        return np.hypot(re, im) > thresh

    t, q, sdim = scipy.linalg.schur(m, output="real", sort=above)
    if sdim != 1:
        raise DegenerateLeadingEigenvalue(f"{sdim} eigenvalues above the gap")
    lead = float(t[0, 0])
    r = q[:, 0]
    _, q2, sdim2 = scipy.linalg.schur(m.T, output="real", sort=above)
    if sdim2 != 1:
        raise DegenerateLeadingEigenvalue("left spectrum disagrees on the gap")
    l = q2[:, 0]
    if abs(l @ r) < 1e-10:
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

    mode="finite" evaluates 1 - 16^-N Tr(E_A^n_a E_B^n_b) exactly, after
    closure_defect at N = n_a + n_b has shown the closure unitary;
    mode="thermodynamic" takes n_a, n_b -> infinity using the dominant
    eigenpairs (n_a, n_b arguments are ignored there), whose eigenvalue
    product is 1 for a unitary closure.  A tensor whose closure is not
    unitary raises NotUnitaryClosure.

    A product below 1 is refused as well, not read as a limit P_E = 1: no
    unitary closure reaches 1.  U^dag P U has bond chi^2, so across the
    ring's two cut bonds its operator-Schmidt rank is at most chi^4 and
    E_lin <= 1 - chi^-4, which caps P_E at 15/16 for chi <=
    TRANSFER_CHI_LIMIT = 2.
    """
    pair = transfer_matrix_pair(a)
    if mode == "finite":
        if n_a < 1 or n_b < 1:
            raise ValueError("finite mode needs n_a, n_b >= 1")
        defect = closure_defect(a, n_a + n_b)
        if not defect <= CLOSURE_DEFECT_TOL:  # NaN fails too
            raise NotUnitaryClosure(
                f"closure at {n_a + n_b} sites is not unitary: ||U^dag U - I||_F^2 / d "
                f"= {defect:.4g} exceeds {CLOSURE_DEFECT_TOL}")
        ea = np.linalg.matrix_power(pair.t_a / 16.0, n_a)
        eb = np.linalg.matrix_power(pair.t_b / 16.0, n_b)
        return float(1.0 - np.sum(ea * eb.T))  # Tr(ea @ eb), without the product
    if mode != "thermodynamic":
        raise ValueError(f"unknown mode {mode!r}")
    if not np.isfinite(a.tensor).all():  # which eigvals and schur refuse
        raise NotUnitaryClosure("the tensor has non-finite entries: the closure is not unitary")
    la, ra, lla = _dominant_pair(pair.t_a / 16.0)
    lb, rb, llb = _dominant_pair(pair.t_b / 16.0)
    prod = la * lb
    if not abs(prod - 1.0) <= 1e-8:  # NaN fails too
        raise NotUnitaryClosure(
            f"dominant eigenvalue product {prod:.6g} is not 1: the closure is not unitary"
        )
    overlap = ((lla @ rb) * (llb @ ra)) / ((lla @ ra) * (llb @ rb))
    return float(1.0 - overlap)


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
