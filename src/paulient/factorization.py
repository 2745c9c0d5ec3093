"""Decide whether a unitary keeps every Heisenberg-evolved Pauli string
product over a bipartition, and constructively recover the factorization
U^dag = (V x W) C with V, W local unitaries and C a Clifford.

The factorizer works on the 2N Pauli generators only; group closure covers
the rest.  Pipeline:

1. evolve the generators as stacks (paulis._conjugated_chunks) and split
   each image into Hermitian-unitary factors X_g (x) Y_g: a rank-1 read-off
   of the realigned image where it is exact to round-off, the SVD
   elsewhere;
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
    _CHUNK_ENTRIES,
    _conjugated_chunks,
    _f2_nullspace,
    _operator_pauli_probs,
    _symplectic_pairs,
    clifford_from_generator_images,
    clifford_to_dense,
    pauli_trace_table,
)

RANK_TOL = 1e-10
FACTOR_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
# ||R - x y||_F^2 up to which a rank-1 read-off's own factors are used: its
# factors are then within about 1e-13 of the SVD's (round-off is ~1e-30)
READOFF_TOL = 1e-26
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


def _rank_one_readoff(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, defect) for a stack of realignments R: x the largest-norm
    column of each R, y = x^dag R / ||x||^2, and defect = ||R - x y||_F^2.
    No rank-1 matrix is closer to R than the best one, so defect >=
    sum_(i>=2) lambda_i >= lambda_2: a defect within tol proves lambda_2
    within tol, and any other R is left to the SVD.  The defect is summed
    from R - x y itself: the equal ||R||_F^2 - ||x||^2 ||y||^2 carries about
    4e-16 of cancellation, which would pass images with lambda_2 above a
    tol below that."""
    cols = (r.real**2 + r.imag**2).sum(axis=-2)  # squared column norms
    j = cols.argmax(axis=-1)[:, None]
    x = np.take_along_axis(r, j[:, None], axis=-1)[..., 0]
    xx = np.take_along_axis(cols, j, axis=-1)[:, 0]
    y = (x.conj()[:, None] @ r)[:, 0] / xx[:, None]
    e = x[:, :, None] * y[:, None, :]
    e -= r
    return x, y, _sq_norms(e)


def _sq_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each complex matrix of a C-contiguous
    stack, with no stack-sized temporary."""
    v = stack.reshape(len(stack), -1).view(np.float64)
    return np.einsum("ki,ki->k", v, v)


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

    The images are evolved in stacked chunks.  An image whose rank-1
    read-off (_rank_one_readoff) is within tol passes without an SVD; the
    SVD decides every other one, so the verdict and the witness are the
    SVD's.
    """
    _check_tol(tol)
    if u.shape[0] != bp.d or not is_unitary(u):
        raise NotUnitary("need a unitary matching the bipartition")
    gens = _generators(bp.n_qubits)
    for start, images in _conjugated_chunks(u.conj().T, [g.index for g in gens], u):
        r = realign(images, bp)
        del images  # each chunk is let go before the next one is built
        slow = np.flatnonzero(~(_rank_one_readoff(r)[2] <= tol))
        # a unitary that fails mostly fails on its first slow image, whose
        # SVD then runs alone
        for part in (slow[:1], slow[1:]):
            if part.size:
                lam2 = np.linalg.svd(r[part], compute_uv=False)[:, 1] ** 2
                bad = np.flatnonzero(lam2 > tol)
                if bad.size:
                    return False, (gens[start + part[bad[0]]], float(lam2[bad[0]]))
        del r
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
    first, then row-major) non-negative.  The raw factors come from the
    rank-1 read-off where it is exact to round-off (READOFF_TOL), else from
    the SVD.
    """
    d = bp.d
    if o.shape[0] != d:
        raise ValueError("operator dimension does not match the bipartition")
    if np.linalg.norm(o - o.conj().T) / np.sqrt(d) > 1e-8:
        raise NotHermitian("factor extraction needs a Hermitian operator")
    if not is_unitary(o):
        raise NotUnitary("factor extraction needs a unitary operator")
    x, y, failure = _hermitian_unitary_factors(realign(o[None], bp), bp, tol)
    if failure is not None:
        raise failure[1]
    return x[0], y[0]


def _hermitian_unitary_factors(
    r: np.ndarray, bp: Bipartition, tol: float
) -> tuple[np.ndarray, np.ndarray, tuple[int, Exception] | None]:
    """extract_hermitian_unitary_factors for a stack of realigned Hermitian
    unitaries, without their Hermitian and unitary checks: (x, y, failure),
    with failure None or (k, the exception of the first k that fails)."""
    x, y, defect = _rank_one_readoff(r)
    # A defect within tol settles the verdict but leaves x y up to sqrt(tol)
    # from R, too far for the factor checks below; the read-off's factors are
    # kept only where the defect is at round-off, and the SVD splits the
    # rest.  The defect bounds lambda_2, so every verdict is the SVD's.
    lam2 = np.zeros(len(r))
    slow = np.flatnonzero(~(defect <= min(tol, READOFF_TOL)))
    if slow.size:
        left, s, right = np.linalg.svd(r[slow], full_matrices=False)
        lam2[slow] = s[:, 1] ** 2
        x[slow] = s[:, :1] * left[..., 0]
        y[slow] = right[:, 0]
    da, db = bp.d_a, bp.d_b
    x0 = np.sqrt(bp.d) * x.reshape(-1, da, da)
    y0 = y.reshape(-1, db, db)
    tdag = np.einsum("kab,kab->k", y0.conj(), y0).real  # Tr(y0^dag y0)
    ratio = np.einsum("kab,kba->k", y0, y0) / tdag  # Tr(y0^2) / Tr(y0^dag y0)
    half = np.exp(0.5j * np.angle(ratio))
    x = (np.sqrt(tdag / db) * half)[:, None, None] * x0
    y = (np.sqrt(db / tdag) / half)[:, None, None] * y0
    # (fails, kind, message, value) in the order the single-operator checks ran
    checks = [(lam2 > tol, NotProduct, "operator-Schmidt rank exceeds 1 (lambda_2 = {:.3e})",
               lam2),
              (np.abs(np.abs(ratio) - 1.0) > 1e-6, FactorizationDegeneracy,
               "degenerate factor normalization |ratio|={:.3e}", np.abs(ratio))]
    for m, name in ((x, "A"), (y, "B")):
        dm = m.shape[-1]
        herm = np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1)) / np.sqrt(dm)
        inv = np.linalg.norm(m @ m - np.eye(dm), axis=(-2, -1)) / np.sqrt(dm)
        checks += [(herm > FACTOR_TOL * 100, FactorizationDegeneracy,
                    f"{name} factor is not Hermitian", herm),
                   (inv > FACTOR_TOL * 100, FactorizationDegeneracy,
                    f"{name} factor is not an involution", inv)]
    failed = np.any([fails for fails, *_ in checks], axis=0)
    if failed.any():
        k = int(failed.argmax())
        kind, message, value = next(rest for fails, *rest in checks if fails[k])
        return x, y, (k, kind(message.format(value[k])))
    flip = _needs_sign_flip(x)
    x[flip] *= -1
    y[flip] *= -1
    return x, y, None


def _needs_sign_flip(m: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """For each matrix of the stack m, whether its first entry above tol in
    magnitude (diagonal first, then row-major) has a real part below -tol,
    or one within tol of 0 and a negative imaginary part."""
    dm = m.shape[-1]
    order = np.argsort(~np.eye(dm, dtype=bool).ravel(), kind="stable")  # the diagonal first
    entries = m.reshape(len(m), -1)[:, order]
    big = np.abs(entries) > tol
    e = entries[np.arange(len(m)), big.argmax(axis=-1)]
    return big.any(axis=-1) & ((e.real < -tol) | ((np.abs(e.real) <= tol) & (e.imag < 0)))


# ---------------------------------------------------------------------------
# Intertwiner construction
# ---------------------------------------------------------------------------


def _intertwiner(commuting: np.ndarray, flipping: np.ndarray) -> np.ndarray:
    """Unitary V with V^dag commuting[i] V = Z_i and V^dag flipping[i] V = X_i,
    for two stacks of nq operators.

    The commuting family is simultaneously diagonalized through a weighted
    Hermitian combination (weights 3^-i keep every joint eigenvalue
    distinct); the flipping family then generates the remaining basis
    vectors from the all-plus one, which fixes all relative phases.
    """
    nq = len(commuting)
    dim = commuting.shape[-1]
    if dim != 1 << nq:
        raise FactorizationDegeneracy("family size does not match block dimension")
    comb = sum((3.0**-i) * m for i, m in enumerate(commuting))
    _, vecs = np.linalg.eigh(comb)
    # ev[k, i] = <v_k| commuting[i] |v_k>, the joint eigenvalues of eigenvector k
    ev = np.einsum("ak,iab,bk->ki", vecs.conj(), commuting, vecs).real
    patterns = (ev < 0) @ (1 << np.arange(nq - 1, -1, -1))
    off = np.abs(np.abs(ev) - 1.0) > 1e-6
    if off.any() or np.bincount(patterns, minlength=dim).max() > 1:
        for k in range(dim):  # the first eigenvector at fault, in order
            if off[k].any():
                raise FactorizationDegeneracy(
                    f"joint eigenvalue {ev[k][off[k]][0]:+.6f} is not +-1 within tolerance")
            if patterns[k] in patterns[:k]:
                raise FactorizationDegeneracy("repeated joint eigenvalue pattern")
    e0 = vecs[:, int(np.argmin(patterns))]  # the all-plus pattern 0
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
    gens = _generators(nv)
    images = []
    for _, m in _conjugated_chunks(v, [g.index for g in gens], v.conj().T):
        table = (pauli_trace_table(m) / d).reshape(len(m), d * d)
        mags = np.abs(table)
        k = mags.argmax(axis=-1)
        top = np.take_along_axis(table, k[:, None], axis=-1)[:, 0]
        peak = np.abs(top)
        if ((peak < 1.0 - 1e-7) | (mags.sum(axis=-1) - peak > 1e-6)
                | (np.abs(top.imag) > 1e-7)).any():
            return None
        images += [(PauliString.from_index(nv, int(i)), 1 if t.real > 0 else -1)
                   for i, t in zip(k, top)]
        del m, table, mags
    try:
        return clifford_from_generator_images(images)
    except InvalidGeneratorImages:
        return None


def _tableau_block_diag(ca: CliffordTableau, cb: CliffordTableau) -> CliffordTableau:
    """Tableau of ca (x) cb: A's generator images moved onto the leading n_a
    qubits, B's onto the trailing n_b."""
    na, nb = ca.n_qubits, cb.n_qubits
    n = na + nb
    a = [(PauliString(n, p.x << nb, p.z << nb), s) for p, s in map(ca.row_pauli, range(2 * na))]
    b = [(PauliString(n, p.x, p.z), s) for p, s in map(cb.row_pauli, range(2 * nb))]
    return clifford_from_generator_images(a[:na] + b[:nb] + a[na:] + b[nb:])


def _one_sided_factors(
    strings: list[PauliString], u: np.ndarray, udag: np.ndarray, bp: Bipartition, side: str,
    tol: float,
) -> np.ndarray:
    """For strings in the one-sided subgroups the evolved operator is
    (op x 1) or (1 x op); return the stack of op, one per string, and
    verify the claimed structure."""
    da, db = bp.d_a, bp.d_b
    ops = np.empty((len(strings),) + ((da, da) if side == "A" else (db, db)), dtype=complex)
    for start, m in _conjugated_chunks(udag, [p.index for p in strings], u):
        m4 = m.reshape(-1, da, db, da, db)
        if side == "A":
            op = np.einsum("kabcb->kac", m4) / db
            rebuilt = op[:, :, None, :, None] * np.eye(db)[:, None, :]  # op (x) 1
        else:
            op = np.einsum("kabac->kbc", m4) / da
            rebuilt = np.eye(da)[:, None, :, None] * op[:, None, :, None, :]  # 1 (x) op
        rebuilt -= m4
        off = np.sqrt(_sq_norms(rebuilt)) / np.sqrt(bp.d)
        bad = np.flatnonzero(off > max(1e-7, tol * 100))
        if bad.size:
            raise FactorizationDegeneracy(
                f"string {strings[start + bad[0]]} was classified one-sided ({side}) but is not"
            )
        ops[start:start + len(m)] = op
        del m, m4, rebuilt
    return ops


def factorize(
    u: np.ndarray, bp: Bipartition, tol: float = RANK_TOL
) -> LocalCliffordFactorization:
    """Recover U^dag = global_phase * (V x W) C for a product-preserving U."""
    _check_tol(tol)
    n = bp.n_qubits
    if u.shape[0] != bp.d or not is_unitary(u):
        raise NotUnitary("need a unitary matching the bipartition")
    udag = u.conj().T

    # The images of a checked unitary are Hermitian unitaries by
    # construction, so they go to the factor split without their own checks.
    gens = _generators(n)
    mats = np.empty((2 * n, bp.d_a, bp.d_a), dtype=complex)  # each image's A factor
    for start, images in _conjugated_chunks(udag, [g.index for g in gens], u):
        r = realign(images, bp)
        del images  # each chunk is let go before the next one is built
        x, _, failure = _hermitian_unitary_factors(r, bp, tol)
        del r
        if failure is not None:
            k, exc = failure
            if isinstance(exc, NotProduct):
                raise NotProductPreserving(
                    f"generator {gens[start + k]} does not evolve to a product: {exc}")
            raise exc
        mats[start:start + len(x)] = x

    # Row i of ca has generator j's index set when the A factors of
    # generators i and j commute.  The images keep the generators' pattern
    # (g_i anticommutes with its partner g_(i+-N) only), and X_i (x) Y_i and
    # X_j (x) Y_j commute iff their sides agree, so the B side is row i XOR
    # the partner's index.  A null vector is then the index of its string.
    # Generator j's index is bit 2N-1-j.  The (2N)^2 pairs (i, j) of the
    # table go through as stacked products, a chunk of them at a time.
    width = 2 * n
    commutes = np.zeros(width * width, dtype=bool)
    step = max(1, _CHUNK_ENTRIES // (bp.d_a * bp.d_a))
    for p0 in range(0, width * width, step):
        i, j = np.divmod(np.arange(p0, min(p0 + step, width * width)), width)
        ij, ji = mats[i] @ mats[j], mats[j] @ mats[i]
        comm = np.linalg.norm(ij - ji, axis=(-2, -1))
        anti = np.linalg.norm(ij + ji, axis=(-2, -1))
        bad = np.flatnonzero((j > i) & (np.minimum(comm, anti)
                                        > 1e-6 * np.maximum(np.maximum(comm, anti), 1.0)))
        if bad.size:
            raise FactorizationDegeneracy(
                f"factors of generators {i[bad[0]]},{j[bad[0]]} neither commute nor anticommute")
        commutes[p0:p0 + len(i)] = comm > anti  # never on the diagonal: m_i m_i = 1
        del ij, ji
    commutes = commutes.reshape(width, width)
    ca = [int(row) for row in commutes @ (1 << np.arange(width - 1, -1, -1))]
    cb = [row ^ gens[(i + n) % (2 * n)].index for i, row in enumerate(ca)]
    h_tilde = _f2_nullspace(cb, 2 * n)  # B factor scalar -> supported on A
    h = _f2_nullspace(ca, 2 * n)  # A factor scalar -> supported on B
    if len(h_tilde) != 2 * bp.n_a or len(h) != 2 * bp.n_b:
        raise NotProductPreserving(
            f"one-sided subgroups have ranks {len(h_tilde)}/{len(h)}, "
            f"expected {2 * bp.n_a}/{2 * bp.n_b}"
        )

    pairs_a = [(PauliString.from_index(n, f), PauliString.from_index(n, g))
               for f, g in _symplectic_pairs(h_tilde, n)]
    pairs_b = [(PauliString.from_index(n, f), PauliString.from_index(n, g))
               for f, g in _symplectic_pairs(h, n)]

    # each side's flipping family (the f of each pair), then its commuting one (g)
    a_ops = _one_sided_factors([f for f, _ in pairs_a] + [g for _, g in pairs_a],
                               u, udag, bp, "A", tol)
    b_ops = _one_sided_factors([f for f, _ in pairs_b] + [g for _, g in pairs_b],
                               u, udag, bp, "B", tol)
    v = _intertwiner(a_ops[bp.n_a:], a_ops[:bp.n_a])
    w = _intertwiner(b_ops[bp.n_b:], b_ops[:bp.n_b])

    # V^dag f V = X and V^dag g V = Z on each block, so X_q -> f_q, Z_q -> g_q
    # (A pairs, then B pairs, + signs) is the tableau of C^-1.
    pairs = pairs_a + pairs_b
    images = [(f, 1) for f, _ in pairs] + [(g, 1) for _, g in pairs]
    try:
        tableau = clifford_from_generator_images(images).inverse()
    except InvalidGeneratorImages as exc:
        raise FactorizationDegeneracy(f"subgroup pairs are not symplectic: {exc}") from exc

    # If the local factors are themselves Clifford (up to phase), fold them
    # into the tableau so that near-Clifford inputs come back with V, W
    # proportional to the identity.
    cv = _tableau_if_clifford(v)
    cw = None if cv is None else _tableau_if_clifford(w)
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
    worst = 0.0
    for _, o in _conjugated_chunks(loc.conj().T @ u.conj().T, np.arange(4**n), u @ loc):
        worst = max(worst, float(np.max(1.0 - np.sum(_operator_pauli_probs(o) ** 2, axis=-1))))
        del o
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
