"""Decide whether a unitary keeps every Heisenberg-evolved Pauli string
product over a bipartition, and constructively recover the factorization
U^dag = (V x W) C with V, W local unitaries and C a Clifford.

The factorizer works on the 2N Pauli generators only; group closure covers
the rest.  Pipeline:

1. evolve the generators and split each image into Hermitian-unitary
   factors X_g (x) Y_g;
2. the strings whose B factor is a scalar form a subgroup Htilde (size
   4^N_A), found as the F2 null space of the Y-factor commutation matrix
   (a scalar factor is exactly one that commutes with the whole family);
   symmetrically H from the X factors;
3. pick symplectic bases of Htilde and H, and build V (W) as the unitary
   mapping the corresponding one-sided factor families onto the standard
   X_i / Z_i Pauli strings: simultaneous diagonalization of the commuting
   half, then phase alignment of the anticommuting partners;
4. the Clifford is read off as a tableau inverse: V^dag f V = X and
   V^dag g V = Z for each symplectic pair (f, g) (likewise W on B), so the
   map X_q -> f_q, Z_q -> g_q with + signs, A pairs then B pairs, is the
   tableau of C^-1;
5. a least-squares global phase aligns the reconstruction to U^dag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FactorizationDegeneracy,
    InvalidGeneratorImages,
    NotHermitian,
    NotProduct,
    NotProductPreserving,
    NotUnitary,
    SizeLimitExceeded,
)
from .operators import Bipartition, is_unitary, realign
from .paulis import (
    CliffordTableau,
    PauliString,
    _f2_nullspace,
    _operator_pauli_probs,
    _row_to_pauli,
    _symplectic_j,
    _symplectic_pairs,
    clifford_from_generator_images,
    clifford_to_dense,
    pauli_mul_matrix,
    pauli_trace_table,
)

RANK_TOL = 1e-10
FACTOR_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
RESIDUAL_MAGIC_MAX_QUBITS = 4  # residual_local_magic enumerates 4^N strings


@dataclass
class LocalCliffordFactorization:
    v: np.ndarray  # d_A x d_A unitary on block A
    w: np.ndarray  # d_B x d_B unitary on block B
    c: CliffordTableau
    global_phase: complex


def _generators(n: int) -> list[PauliString]:
    gens = [PauliString(n, 1 << (n - 1 - i), 0, 0) for i in range(n)]
    gens += [PauliString(n, 0, 1 << (n - 1 - i), 0) for i in range(n)]
    return gens


def _check_tol(tol: float) -> None:
    """tol bounds second Schmidt coefficients: NaN or inf accepts every
    unitary, and zero or less rejects product images for their round-off."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _evolve(p: PauliString, u: np.ndarray, udag: np.ndarray) -> np.ndarray:
    return udag @ pauli_mul_matrix(p, u)


def check_pauli_product_preserving(
    u: np.ndarray,
    bp: Bipartition,
    tol: float = RANK_TOL,
) -> tuple[bool, tuple[PauliString, float] | None]:
    """True iff every U^dag P U has operator-Schmidt rank 1 within tol.

    Only the 2N generator images are checked; group closure covers the other
    strings.  Every Pauli string is a phase times a product of generators,
    U^dag P Q U = (U^dag P U)(U^dag Q U), and a product of product operators
    is one: (A x B)(C x D) = AC x BD.  So all 4^N images are product as soon
    as the generator images are.  The tolerance applies to the generator
    images; measured as the normalized Frobenius distance to the nearest
    product operator, a product of k near-product images is off by at most
    about the sum of its k factors' distances.  On failure returns
    the first violating generator together with its second Schmidt
    coefficient.
    """
    _check_tol(tol)
    if u.shape[0] != bp.d or not is_unitary(u):
        raise NotUnitary("need a unitary matching the bipartition")
    udag = u.conj().T
    for p in _generators(bp.n_qubits):
        lam = np.linalg.svd(realign(_evolve(p, u, udag), bp), compute_uv=False) ** 2
        if lam.size > 1 and lam[1] > tol:
            return False, (p, float(lam[1]))
    return True, None


def extract_hermitian_unitary_factors(
    o: np.ndarray,
    bp: Bipartition,
    tol: float = RANK_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a Hermitian unitary product operator into o = x (x) y with x, y
    themselves Hermitian unitaries.

    The raw Schmidt factors are rescaled by sqrt(Tr(y^dag y)/d_B) and the
    half-phase of Tr(y^2)/Tr(y^dag y); the leftover (x, y) -> (-x, -y)
    ambiguity is fixed by making the first nonzero entry of x (diagonal
    first, then row-major) non-negative.
    """
    d = bp.d
    if o.shape[0] != d:
        raise ValueError("operator dimension does not match the bipartition")
    if np.linalg.norm(o - o.conj().T) / np.sqrt(d) > 1e-8:
        raise NotHermitian("factor extraction needs a Hermitian operator")
    if not is_unitary(o):
        raise NotUnitary("factor extraction needs a unitary operator")
    r = realign(o, bp)
    left, s, right = np.linalg.svd(r)
    if s.size > 1 and s[1] ** 2 > tol:
        raise NotProduct(f"operator-Schmidt rank exceeds 1 (lambda_2 = {s[1]**2:.3e})")
    x0 = np.sqrt(d) * s[0] * left[:, 0].reshape(bp.d_a, bp.d_a)
    y0 = right[0, :].reshape(bp.d_b, bp.d_b)
    tdag = np.trace(y0.conj().T @ y0).real
    ratio = np.trace(y0 @ y0) / tdag
    if abs(abs(ratio) - 1.0) > 1e-6:
        raise FactorizationDegeneracy(f"degenerate factor normalization |ratio|={abs(ratio):.3e}")
    half = np.exp(0.5j * np.angle(ratio))
    x = np.sqrt(tdag / bp.d_b) * half * x0
    y = np.sqrt(bp.d_b / tdag) * y0 / half
    for m, name in ((x, "A"), (y, "B")):
        dm = m.shape[0]
        if np.linalg.norm(m - m.conj().T) / np.sqrt(dm) > FACTOR_TOL * 100:
            raise FactorizationDegeneracy(f"{name} factor is not Hermitian")
        if np.linalg.norm(m @ m - np.eye(dm)) / np.sqrt(dm) > FACTOR_TOL * 100:
            raise FactorizationDegeneracy(f"{name} factor is not an involution")
    if _needs_sign_flip(x):
        x = -x
        y = -y
    return x, y


def _needs_sign_flip(m: np.ndarray, tol: float = 1e-8) -> bool:
    dm = m.shape[0]
    order = [(i, i) for i in range(dm)]
    order += [(i, j) for i in range(dm) for j in range(dm) if i != j]
    for i, j in order:
        e = m[i, j]
        if abs(e) > tol:
            if e.real < -tol:
                return True
            if abs(e.real) <= tol and e.imag < 0:
                return True
            return False
    return False


# ---------------------------------------------------------------------------
# Intertwiner construction
# ---------------------------------------------------------------------------


def _intertwiner(commuting: list[np.ndarray], flipping: list[np.ndarray]) -> np.ndarray:
    """Unitary V with V^dag commuting[i] V = Z_i and V^dag flipping[i] V = X_i.

    The commuting family is simultaneously diagonalized through a weighted
    Hermitian combination (weights 3^-i keep every joint eigenvalue
    distinct); the flipping family then generates the remaining basis
    vectors from the all-plus one, which fixes all relative phases.
    """
    nq = len(commuting)
    dim = commuting[0].shape[0]
    if dim != 1 << nq:
        raise FactorizationDegeneracy("family size does not match block dimension")
    comb = sum((3.0**-i) * m for i, m in enumerate(commuting))
    _, vecs = np.linalg.eigh(comb)
    assignments: dict[int, np.ndarray] = {}
    for k in range(dim):
        v = vecs[:, k]
        pattern = 0
        for i, m in enumerate(commuting):
            ev = np.real(np.vdot(v, m @ v))
            if abs(abs(ev) - 1.0) > 1e-6:
                raise FactorizationDegeneracy(
                    f"joint eigenvalue {ev:+.6f} is not +-1 within tolerance"
                )
            if ev < 0:
                pattern |= 1 << (nq - 1 - i)
        if pattern in assignments:
            raise FactorizationDegeneracy("repeated joint eigenvalue pattern")
        assignments[pattern] = v
    e0 = assignments[0]
    idx = np.flatnonzero(np.abs(e0) > 1e-8)
    e0 = e0 * (np.abs(e0[idx[0]]) / e0[idx[0]])
    v = np.empty((dim, dim), dtype=complex)
    for m in range(dim):
        col = e0
        for i in range(nq):
            if (m >> (nq - 1 - i)) & 1:
                col = flipping[i] @ col
        v[:, m] = col
    return v


def _tableau_if_clifford(v: np.ndarray) -> CliffordTableau | None:
    """Tableau of v when its conjugation maps every Pauli generator to a
    signed Pauli string within tight tolerance; None otherwise."""
    d = v.shape[0]
    nv = d.bit_length() - 1
    vdag = v.conj().T
    images = []
    for g in _generators(nv):
        m = v @ pauli_mul_matrix(g, vdag)
        table = (pauli_trace_table(m) / d).ravel()
        mags = np.abs(table)
        k = int(np.argmax(mags))
        if mags[k] < 1.0 - 1e-7 or mags.sum() - mags[k] > 1e-6:
            return None
        if abs(table[k].imag) > 1e-7:
            return None
        images.append((PauliString.from_index(nv, k), 1 if table[k].real > 0 else -1))
    try:
        return clifford_from_generator_images(images)
    except InvalidGeneratorImages:
        return None


def _tableau_block_diag(ca: CliffordTableau, cb: CliffordTableau) -> CliffordTableau:
    """Tableau of ca (x) cb: each block's matrix and signs placed at its
    qubits' rows and columns, [0, n_a) u [n, n + n_a) for A and the rest
    for B."""
    na, n = ca.n_qubits, ca.n_qubits + cb.n_qubits
    a = np.r_[0:na, n:n + na]
    b = np.r_[na:n, n + na:2 * n]
    mat = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    signs = np.zeros(2 * n, dtype=np.uint8)
    mat[np.ix_(a, a)] = ca.mat
    mat[np.ix_(b, b)] = cb.mat
    signs[a] = ca.signs
    signs[b] = cb.signs
    return CliffordTableau(n, mat, signs)


def _one_sided_factor(
    p: PauliString, u: np.ndarray, udag: np.ndarray, bp: Bipartition, side: str, tol: float
) -> np.ndarray:
    """For strings in the one-sided subgroups the evolved operator is
    (op x 1) or (1 x op); return op and verify the claimed structure."""
    m = _evolve(p, u, udag)
    da, db = bp.d_a, bp.d_b
    m4 = m.reshape(da, db, da, db)
    if side == "A":
        op = np.einsum("abcb->ac", m4) / db
        rebuilt = np.kron(op, np.eye(db))
    else:
        op = np.einsum("abac->bc", m4) / da
        rebuilt = np.kron(np.eye(da), op)
    if np.linalg.norm(rebuilt - m) / np.sqrt(bp.d) > max(1e-7, tol * 100):
        raise FactorizationDegeneracy(
            f"string {p} was classified one-sided ({side}) but is not"
        )
    return op


def factorize(
    u: np.ndarray, bp: Bipartition, tol: float = RANK_TOL
) -> LocalCliffordFactorization:
    """Recover U^dag = global_phase * (V x W) C for a product-preserving U."""
    _check_tol(tol)
    n = bp.n_qubits
    if u.shape[0] != bp.d or not is_unitary(u):
        raise NotUnitary("need a unitary matching the bipartition")
    udag = u.conj().T

    mats = []  # the A factor of each generator's image
    for p in _generators(n):
        try:
            mats.append(extract_hermitian_unitary_factors(_evolve(p, u, udag), bp, tol)[0])
        except NotProduct as exc:
            raise NotProductPreserving(f"generator {p} does not evolve to a product: {exc}")

    # ca[i, j] = 1 when the A factors of generators i and j commute.  The
    # images keep the generators' pattern J (1 = anticommute), and X_i (x) Y_i
    # and X_j (x) Y_j commute iff their sides agree, so the B side is ca ^ J.
    ca = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            comm = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i])
            anti = np.linalg.norm(mats[i] @ mats[j] + mats[j] @ mats[i])
            if min(comm, anti) > 1e-6 * max(comm, anti, 1.0):
                raise FactorizationDegeneracy(
                    f"factors of generators {i},{j} neither commute nor anticommute")
            ca[i, j] = ca[j, i] = comm > anti
    cb = ca ^ _symplectic_j(n)
    h_tilde = _f2_nullspace(cb)  # B factor scalar -> supported on A
    h = _f2_nullspace(ca)  # A factor scalar -> supported on B
    if len(h_tilde) != 2 * bp.n_a or len(h) != 2 * bp.n_b:
        raise NotProductPreserving(
            f"one-sided subgroups have ranks {len(h_tilde)}/{len(h)}, "
            f"expected {2 * bp.n_a}/{2 * bp.n_b}"
        )

    # generator-coordinate vectors double as Pauli (x|z) labels
    pairs_a = _symplectic_pairs(h_tilde, n)
    pairs_b = _symplectic_pairs(h, n)

    a_flip = [_one_sided_factor(_row_to_pauli(f), u, udag, bp, "A", tol) for f, _ in pairs_a]
    a_comm = [_one_sided_factor(_row_to_pauli(g), u, udag, bp, "A", tol) for _, g in pairs_a]
    b_flip = [_one_sided_factor(_row_to_pauli(f), u, udag, bp, "B", tol) for f, _ in pairs_b]
    b_comm = [_one_sided_factor(_row_to_pauli(g), u, udag, bp, "B", tol) for _, g in pairs_b]

    v = _intertwiner(a_comm, a_flip)
    w = _intertwiner(b_comm, b_flip)

    # V^dag f V = X and V^dag g V = Z on each block, so X_q -> f_q, Z_q -> g_q
    # (A pairs, then B pairs, + signs) is the tableau of C^-1.
    pairs = pairs_a + pairs_b
    images = [(_row_to_pauli(f), 1) for f, _ in pairs] + [(_row_to_pauli(g), 1) for _, g in pairs]
    try:
        tableau = clifford_from_generator_images(images).inverse()
    except InvalidGeneratorImages as exc:
        raise FactorizationDegeneracy(f"subgroup pairs are not symplectic: {exc}") from exc

    # If the local factors are themselves Clifford (up to phase), fold them
    # into the tableau so that near-Clifford inputs come back with V, W
    # proportional to the identity.
    cv = _tableau_if_clifford(v)
    cw = _tableau_if_clifford(w)
    if cv is not None and cw is not None:
        if cv != CliffordTableau.identity(bp.n_a) or cw != CliffordTableau.identity(bp.n_b):
            tableau = _tableau_block_diag(cv, cw).compose(tableau)
            v = v @ clifford_to_dense(cv).conj().T
            w = w @ clifford_to_dense(cw).conj().T

    rebuilt = np.kron(v, w) @ clifford_to_dense(tableau)
    overlap = np.trace(rebuilt.conj().T @ udag)
    if abs(overlap) < 1e-9:
        raise FactorizationDegeneracy("reconstruction is orthogonal to the target")
    phase = overlap / abs(overlap)
    # verify_factorization's residual, from the U^dag already rebuilt
    residual = float(np.linalg.norm(phase * rebuilt - udag) / np.sqrt(bp.d))
    if residual > RECONSTRUCTION_TOL:
        raise FactorizationDegeneracy(
            f"reconstruction residual {residual:.3e} exceeds {RECONSTRUCTION_TOL}"
        )
    return LocalCliffordFactorization(v=v, w=w, c=tableau, global_phase=phase)


def verify_factorization(u: np.ndarray, fac: LocalCliffordFactorization) -> float:
    """Frobenius residual (normalized by sqrt(d)) of the reconstruction of
    U^dag from the factorization."""
    rebuilt = fac.global_phase * (np.kron(fac.v, fac.w) @ clifford_to_dense(fac.c))
    d = u.shape[0]
    return float(np.linalg.norm(rebuilt - u.conj().T) / np.sqrt(d))


def residual_local_magic(
    u: np.ndarray, fac: LocalCliffordFactorization, bp: Bipartition
) -> float:
    """Largest linear operator stabilizer entropy of
    (V^dag x W^dag) U^dag P U (V x W) over all Pauli strings: zero for a
    valid factorization (no locally-unerasable operator magic remains)."""
    n = bp.n_qubits
    if n > RESIDUAL_MAGIC_MAX_QUBITS:
        raise SizeLimitExceeded(f"residual-magic check enumerates 4^{n} strings")
    loc = np.kron(fac.v, fac.w)
    udag = u.conj().T
    worst = 0.0
    for k in range(4**n):
        p = PauliString.from_index(n, k)
        o = loc.conj().T @ _evolve(p, u, udag) @ loc
        probs = _operator_pauli_probs(o)
        worst = max(worst, 1.0 - float(np.sum(probs**2)))
    return worst


def make_product_preserving(
    bp: Bipartition, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, CliffordTableau]:
    """Random U = C^dag (V^dag x W^dag): by construction U^dag = (V x W) C
    keeps all evolved Pauli strings product.  Returns (u, v, w, c)."""
    from .operators import haar_random_unitary
    from .paulis import random_clifford

    c = random_clifford(bp.n_qubits, rng)
    v = haar_random_unitary(bp.d_a, rng)
    w = haar_random_unitary(bp.d_b, rng)
    u = (np.kron(v, w) @ clifford_to_dense(c)).conj().T
    return u, v, w, c
