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

Copy-swap blocks.  Swapping copies 1 and 2, and separately 3 and 4,
commutes with both matrices: with each M'_sigma (x) M'_sigma plainly, and
with each N'_sigma because relabelling its two copies maps the crossed
in-legs j_1 = i_2, j_2 = i_1 to themselves.  So with O the orthogonal
change of a copy pair to its D(D+1)/2 symmetric and D(D-1)/2 antisymmetric
states (D = chi^2), every copy-pair factor X_sigma is block-diagonal,
O X_sigma O^T = X^s_sigma (+) X^a_sigma, and in the basis O (x) O of
copies (1 2)(3 4) so is E = sum_sigma X_sigma (x) X_sigma, with the blocks
sum X^s (x) X^s, X^s (x) X^a, X^a (x) X^s and X^a (x) X^a: 100, 60, 60
and 36 wide at chi = 2 (2025, 1620, 1620 and 1296 at chi = 3).  The pair
swap (13)(24) conjugates the two middle blocks into each other, so one is
built and counted twice.  The terms that mix symmetric and antisymmetric
states vanish by symmetry and are dropped, not thresholded.  Finite mode
sums mult_k Tr((A_k / 16)^n_a (B_k / 16)^n_b) over the blocks; the
thermodynamic mode checks the gap over the eigenvalues of every block,
counted with multiplicity, and takes the dominant eigenvectors in the
block that holds the leading eigenvalue.  Neither builds a chi^8 x chi^8
array; transfer_matrix_pair assembles the dense pair from the same blocks.
Bond dimensions above TRANSFER_CHI_LIMIT = 2 are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DegenerateLeadingEigenvalue, NotUnitaryClosure, SizeLimitExceeded
from .operators import UNITARITY_TOL, _hermitian_bases, is_unitary
from .paulis import DENSE_LIMIT, SINGLE_QUBIT_PAULIS, _SectorLayout

GAP_TOL = 1e-8
# on the leading eigenvalues that thermodynamic mode needs to be 1
LEADING_TOL = 1e-8
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


# E_A, E_B are chi^8 x chi^8; their copy-swap blocks (module docstring) are
# 100, 60 (twice) and 36 wide at chi = 2, 2025, 1620 and 1296 at chi = 3
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


def _swap_basis(dim: int) -> tuple[np.ndarray, int]:
    """The orthogonal O of the module docstring on two copies of a
    dim-dimensional space, rows (a, b) of the copies, and its count of
    symmetric rows: e_a e_a and (e_a e_b + e_b e_a)/sqrt2, then
    (e_a e_b - e_b e_a)/sqrt2, for a < b."""
    lo, hi = np.triu_indices(dim, 1)
    n_sym = dim + lo.size
    k, diag = np.arange(lo.size), np.arange(dim)
    o = np.zeros((dim * dim, dim, dim))
    o[diag, diag, diag] = 1.0
    o[dim + k, lo, hi] = o[dim + k, hi, lo] = o[n_sym + k, lo, hi] = np.sqrt(0.5)
    o[n_sym + k, hi, lo] = -np.sqrt(0.5)
    return o.reshape(dim * dim, dim * dim), n_sym


def _transfer_factors(a: MPUTensor) -> tuple[np.ndarray, np.ndarray]:
    """The real M'_sigma (4 x chi^2 x chi^2) and N'_sigma (4 x chi^4 x chi^4)
    of the module docstring, sigma in the order I, X, Z, Y."""
    chi, t = a.chi, a.tensor
    v = _bond_basis(chi)
    # one copy, sigma on its out-leg, in-legs i (of A) and j (of conj A) open,
    # in the Hermitian basis on (l, m) and on (r, n)
    f = np.einsum("skp,lrpi,mnkj->slmrnij", _PAULI_STACK, t, t.conj())
    f = np.einsum("xa,sxyij,yb->sabij", v.conj(), f.reshape(4, chi**2, chi**2, 2, 2), v)
    # both real up to round-off; N'_sigma as [sigma, a1, a2, b1, b2]
    return (np.einsum("sabii->sab", f).real,
            np.einsum("sacij,sbdji->sabcd", f, f).real.reshape(4, chi**4, chi**4))


def _kron_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_sigma x_sigma (x) y_sigma of stacks [..., sigma, row, column]."""
    k = np.einsum("...sac,...sbd->...abcd", x, y)
    return k.reshape(k.shape[:-4] + (x.shape[-2] * y.shape[-2], x.shape[-1] * y.shape[-1]))


def _transfer(a: MPUTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """M'_sigma, N'_sigma, and the symmetric and antisymmetric blocks of the
    copy-pair factors, [0] N'_sigma of E_A and [1] M'_sigma (x) M'_sigma of
    E_B, each as O X O^T.  Refused above TRANSFER_CHI_LIMIT before any of
    them is built."""
    chi = a.chi
    if chi > TRANSFER_CHI_LIMIT:
        raise SizeLimitExceeded(f"bond dimension {chi} exceeds the dense "
                                f"transfer-matrix limit {TRANSFER_CHI_LIMIT}")
    m, n = _transfer_factors(a)
    o, n_sym = _swap_basis(chi**2)
    pairs = o @ np.stack([n, np.einsum("sac,sbd->sabcd", m, m).reshape(n.shape)]) @ o.T
    # the swap-mixing blocks vanish by symmetry and are dropped
    return m, n, pairs[..., :n_sym, :n_sym], pairs[..., n_sym:, n_sym:]


def _transfer_blocks(sym: np.ndarray, anti: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """The copy-swap blocks [0] of E_A and [1] of E_B with their
    multiplicities: symmetric in both pairs, symmetric in one (twice: the
    pair swap (13)(24) conjugates the two), antisymmetric in both."""
    return [(_kron_sum(sym, sym), 1), (_kron_sum(sym, anti), 2), (_kron_sum(anti, anti), 1)]


def transfer_matrix_pair(a: MPUTensor) -> TransferMatrixPair:
    """E_A and E_B of the module docstring, real in the Hermitian bond basis,
    assembled from the symmetric and antisymmetric blocks of the copy-pair
    factors."""
    _, _, sym, anti = _transfer(a)
    o, n_sym = _swap_basis(a.chi**2)
    block_diagonal = np.zeros(sym.shape[:2] + o.shape)
    block_diagonal[..., :n_sym, :n_sym] = sym
    block_diagonal[..., n_sym:, n_sym:] = anti
    factors = o.T @ block_diagonal @ o
    e = _kron_sum(factors, factors)
    return TransferMatrixPair(t_a=e[0], t_b=e[1])


def closure_defect(a: MPUTensor, n_sites: int) -> float:
    """||U^dag U - I||_F^2 / d of the n_sites closure."""
    return _closure_defect(*_transfer_factors(a), n_sites)


def _closure_defect(m: np.ndarray, n: np.ndarray, n_sites: int) -> float:
    """m2 - 2 m1 + 1, with m1 = Tr(U^dag U) / d = Tr((M'_I / 2)^N) and
    m2 = Tr((U^dag U)^2) / d = Tr((N'_I / 2)^N), from the sigma = I factors."""
    m1 = np.trace(np.linalg.matrix_power(m[0] / 2.0, n_sites))
    m2 = np.trace(np.linalg.matrix_power(n[0] / 2.0, n_sites))
    return abs(m2 - 2.0 * m1 + 1.0)


def _check_unitary_limit(m: np.ndarray, n: np.ndarray) -> None:
    """Raise NotUnitaryClosure unless the closure defect m2 - 2 m1 + 1 tends
    to 0 with N: unless M'_I / 2 and N'_I / 2 each have the simple leading
    eigenvalue 1 (within LEADING_TOL) and no other of magnitude
    1 - GAP_TOL or more."""
    for name, factor in (("M'_I / 2", m[0]), ("N'_I / 2", n[0])):
        ev = np.linalg.eigvals(factor / 2.0)
        ev = ev[np.argsort(-np.abs(ev))]
        if not abs(ev[0] - 1.0) <= LEADING_TOL:  # NaN fails too
            raise NotUnitaryClosure(f"leading eigenvalue {ev[0]:.6g} of {name} is not 1: "
                                    "long closures are not unitary")
        if ev.size > 1 and not abs(ev[1]) < 1.0 - GAP_TOL:
            raise NotUnitaryClosure(f"{name} has a second eigenvalue of magnitude "
                                    f"{abs(ev[1]):.6g}: long closures are not unitary")


def _gap_threshold(mags: np.ndarray) -> float:
    """Half-way between the two largest magnitudes; rejects a (near-)tie."""
    mags = np.sort(mags)[::-1]
    if mags.size == 1:
        return 0.5 * mags[0]
    if mags[0] - mags[1] <= GAP_TOL * max(1.0, mags[0]):
        raise DegenerateLeadingEigenvalue(
            f"leading magnitudes {mags[0]:.6g} and {mags[1]:.6g} are not separated"
        )
    return 0.5 * (mags[0] + mags[1])


def _dominant_pair(m: np.ndarray,
                   thresh: float | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """Dominant eigenvalue of a real matrix with right and left
    eigenvectors; rejects a (near-)degenerate leading magnitude.  A caller
    that has checked the gap over a larger spectrum passes its threshold.

    A strictly dominant eigenvalue of a real matrix is real: a complex one
    comes with its conjugate, of the same magnitude, which the gap check
    rejects.  The vectors come from one sorted real Schur form m = Q T Q^T:
    the transfer matrices are strongly non-normal (nilpotent bulk), where
    plain eigenvector solves are unreliable.  The right vector is Q[:, 0];
    the left one is Q y with y^T T = lead y^T, that is y = (1, w) with
    (T[1:, 1:] - lead I)^T w = -T[0, 1:], which the gap makes nonsingular."""
    import scipy.linalg  # scipy loads on the first thermodynamic call

    if m.shape[0] == 1:
        one = np.ones(1)
        return float(m[0, 0]), one, one
    if thresh is None:
        thresh = _gap_threshold(np.abs(np.linalg.eigvals(m)))

    def above(re, im):
        return np.hypot(re, im) > thresh

    t, q, sdim = scipy.linalg.schur(m, output="real", sort=above)
    if sdim != 1:
        raise DegenerateLeadingEigenvalue(f"{sdim} eigenvalues above the gap")
    lead = float(t[0, 0])
    r = q[:, 0]
    w = np.linalg.solve((t[1:, 1:] - lead * np.eye(len(t) - 1)).T, -t[0, 1:])
    l = q[:, 0] + q[:, 1:] @ w
    l /= np.linalg.norm(l)
    if abs(l @ r) < 1e-10:
        raise DegenerateLeadingEigenvalue(
            "left/right eigenvector overlap vanishes (defective leading block)"
        )
    return lead, r, l


def _dominant_block(
    blocks: list[tuple[np.ndarray, int]],
) -> tuple[int, float, np.ndarray, np.ndarray]:
    """The block holding the dominant eigenvalue of a block-diagonal real
    matrix, with _dominant_pair of that block.  The gap is checked over the
    eigenvalues of every block, each counted with its multiplicity, so a
    leading eigenvalue in a repeated block is degenerate."""
    mags = [np.abs(np.linalg.eigvals(b)) for b, _ in blocks]
    lead = int(np.argmax([g.max(initial=0.0) for g in mags]))
    thresh = _gap_threshold(np.concatenate([np.repeat(g, k) for g, (_, k) in zip(mags, blocks)]))
    return (lead, *_dominant_pair(blocks[lead][0], thresh))


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
    eigenpairs (n_a, n_b arguments are ignored there), after checking that
    long closures are unitary: the closure defect m2 - 2 m1 + 1 tends to 0
    only if M'_I / 2 and N'_I / 2 each have the simple leading eigenvalue 1,
    and the dominant eigenvalue product of E_A / 16 and E_B / 16 is then 1.
    A tensor whose closure is not unitary raises NotUnitaryClosure.

    A product below 1 is refused as well, not read as a limit P_E = 1: no
    unitary closure reaches 1.  U^dag P U has bond chi^2, so across the
    ring's two cut bonds its operator-Schmidt rank is at most chi^4 and
    E_lin <= 1 - chi^-4, which caps P_E at 15/16 for chi <=
    TRANSFER_CHI_LIMIT = 2.
    """
    m, n, sym, anti = _transfer(a)
    if mode == "finite":
        if n_a < 1 or n_b < 1:
            raise ValueError("finite mode needs n_a, n_b >= 1")
        defect = _closure_defect(m, n, n_a + n_b)
        if not defect <= CLOSURE_DEFECT_TOL:  # NaN fails too
            raise NotUnitaryClosure(
                f"closure at {n_a + n_b} sites is not unitary: ||U^dag U - I||_F^2 / d "
                f"= {defect:.4g} exceeds {CLOSURE_DEFECT_TOL}")
        # Tr(ea @ eb) of each block, without the product
        return float(1.0 - sum(k * np.sum(np.linalg.matrix_power(b[0] / 16.0, n_a)
                                          * np.linalg.matrix_power(b[1] / 16.0, n_b).T)
                               for b, k in _transfer_blocks(sym, anti)))
    if mode != "thermodynamic":
        raise ValueError(f"unknown mode {mode!r}")
    if not np.isfinite(a.tensor).all():  # which eigvals and schur refuse
        raise NotUnitaryClosure("the tensor has non-finite entries: the closure is not unitary")
    _check_unitary_limit(m, n)
    blocks = _transfer_blocks(sym, anti)
    # past the gate the limit is unitary, so its overlap is at least 1/16 and
    # both dominant eigenvectors lie in the same block
    (_, la, ra, lla), (_, lb, rb, llb) = (
        _dominant_block([(b[x] / 16.0, k) for b, k in blocks]) for x in (0, 1))
    prod = la * lb
    if not abs(prod - 1.0) <= LEADING_TOL:  # NaN fails too
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
