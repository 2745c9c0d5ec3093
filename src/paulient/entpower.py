"""Pauli-entangling power: the average linear operator entanglement of
Heisenberg-evolved Pauli strings, plus its quadrupled-space projector form,
subsystem bounds, and the Haar-typical closed form.

Exact mode evaluates, per Pauli string P,

    g_P = Tr(K_P^2),   K_P = Tr_B(U^dag P U),

and aggregates P_E(U) = 1 - d^-4 sum_P g_P^2, which equals the mean of
E_lin(U^dag P U) over the full group (the two expressions are related by a
Pauli-twirl identity; tests pin the equality against the realignment
oracle).  For fixed x bits all z values are handled at once:

    K_(x,z)[a1,a2] = (-i)^(x.z) sum_y (-1)^(z.y) sum_b
                      conj(u[y, a1, b]) u[y^x, a2, b]

The pairs (a1 <= a2) are taken a block at a time.  For each block, one
batched matrix product gives the inner sums over b for every (y, v); the
entries at v = y^x are gathered for every x at once; one Walsh-Hadamard
transform over y yields the whole z axis; and |.|^2, weighted over the
block's pairs, gives the block's share of the g-table.  The shares are added
in block order.  Neither the quadrupled space nor the full pair-correlation
array is materialized.  Calls with two or more blocks (never at N <= 5) run
them on the _threads pool, in buffers the caller allocates once, on as many
cores as a fixed memory budget allows; the table does not depend on the
number of threads.
"""

from __future__ import annotations

import itertools
import math
import queue
from dataclasses import dataclass

import numpy as np

from . import _threads
from .errors import NotUnitary, SizeLimitExceeded
from .operators import Bipartition, is_unitary, linear_entanglement_unitary
from .paulis import (
    PauliString,
    _operator_pauli_probs,
    _parity_signs,
    _wht_real,
    pauli_mul_matrix,
    pauli_to_dense,
    random_pauli,
)
from .stats import run_until_converged

DEFAULT_EXACT_LIMIT = 8


@dataclass(frozen=True)
class PauliPowerEstimate:
    value: float
    mode: str  # "exact" | "sampled"
    n_samples: int
    sem: float


# bytes that one exact call's block buffers and unsummed slots may take
# together; a pooled call uses fewer threads where more would not fit
_BLOCK_BUDGET = 20 << 20


def _pauli_g_table(u: np.ndarray, bp: Bipartition) -> np.ndarray:
    """g[x, z] = Tr((Tr_B(U^dag P(x,z) U))^2) for every phase-0 string.

    With u reshaped to u[y, k, t] (k = kept block, t = traced block), the
    larger side is traced, so "Tr_B" above means the larger block.  Single
    entries depend on that choice, but sum_P g_P^2, and so P_E, is the same
    from either block.  Per block of pairs, one batched matrix product gives
    the pair correlations

        W[p, y, v] = sum_t conj(u[y, k1, t]) u[v, k2, t],   p = (k1 <= k2).

    The pairs are taken in blocks of max(1, 2^17 // d^2), so a block's W and
    its gather each hold about 2^17 complex entries and the full W is never
    resident.  For each block, all x and z at once: gather
    S[p, y, x] = W[p, y, y^x] with one flat index y*d + (y^x), apply the
    Walsh-Hadamard transform along y (with W's buffer as its scratch), and
    form the block's slot

        g_block(x, z) = sum_p weight_p |WHT_y(S[p, ., x])[z]|^2

    as a [z, x] table.  The slots are added in block order, and the sum is
    transposed once at the end.

    Calls with two or more blocks run them on the _threads pool.  The
    calling thread allocates one set of block buffers per thread, and a
    block borrows a free set while it runs.  The buffer sets and the unsummed
    slots (at most threads + 2) stay within _BLOCK_BUDGET bytes, which caps
    the threads by the sizes (three at N = 8, 4|4; one from N = 9), not by
    the cores.  The block size depends on the sizes alone and the slots are
    summed in block order, so the table does not depend on the number of
    threads.

    The |.|^2 form follows from S[(k2, k1), y, x] = conj(S[(k1, k2), y^x, x]),
    which also means only k1 <= k2 pairs are needed (weight 2 off the
    diagonal).
    """
    d = bp.d
    if bp.d_a <= bp.d_b:
        dk, dt = bp.d_a, bp.d_b
        u3 = u.reshape(d, dk, dt)  # [y, keep, traced]
    else:
        dk, dt = bp.d_b, bp.d_a
        u3 = u.reshape(d, dt, dk).transpose(0, 2, 1)
    ka, kc = np.triu_indices(dk)
    weights = np.where(ka == kc, 1.0, 2.0)
    byk = np.ascontiguousarray(u3.transpose(1, 0, 2), dtype=complex)  # [keep, y, traced]
    ys = np.arange(d)
    flat = ys[:, None] * d + (ys[:, None] ^ ys[None, :])  # [y, x] -> (y, y^x)
    block = max(1, (1 << 17) // (d * d))  # pairs per block: ~2^17 entries of W
    starts = range(0, len(ka), block)
    width = min(block, len(ka))
    set_bytes = 16 * width * d * (2 * dt + 2 * d)  # one set of the buffers below
    slot_bytes = 16 * d * d  # one [z, x] slot, re^2 and im^2 in float64
    fit = (_BLOCK_BUDGET - 2 * slot_bytes) // (set_bytes + slot_bytes)
    threads = _threads.threads_for(min(len(starts), fit))
    free: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(threads):
        free.put((np.empty((width, d, dt), complex),  # conj(u) rows of k1
                  np.empty((width, d, dt), complex),  # u rows of k2
                  np.empty((width, d, d), complex),  # W, then WHT scratch
                  np.empty((width, d, d), complex)))  # gather, then |WHT|^2

    def block_slot(p0: int) -> np.ndarray:
        buffers = free.get()
        try:
            pa, pc = ka[p0:p0 + block], kc[p0:p0 + block]
            n = len(pa)
            lhs, rhs, wp, s = (b[:n] for b in buffers)
            # the indices are in range; mode="clip" writes straight into out,
            # where the default mode="raise" goes through a temporary
            np.take(byk, pa, axis=0, out=lhs, mode="clip")
            np.conjugate(lhs, out=lhs)
            np.take(byk, pc, axis=0, out=rhs, mode="clip")
            np.matmul(lhs, rhs.transpose(0, 2, 1), out=wp)  # [pair, y, v]
            np.take(wp.reshape(n, d * d), flat, axis=1, out=s, mode="clip")  # [pair, y, x]
            sq = s.view(np.float64)  # [pair, y -> z, x re/im]
            _wht_real(sq, 1, scratch=wp.view(np.float64), out=sq)
            np.multiply(sq, sq, out=sq)
            return weights[p0:p0 + n] @ sq.reshape(n, -1)
        finally:
            free.put(buffers)

    acc = np.zeros(2 * d * d)  # [z, x] with re^2 and im^2 interleaved
    for slot in _threads.ordered_map(block_slot, starts, threads):
        acc += slot
    acc = acc.reshape(d, 2 * d)
    return (acc[:, 0::2] + acc[:, 1::2]).T


def _exact_value(u: np.ndarray, bp: Bipartition) -> float:
    g = _pauli_g_table(u, bp)
    total = math.fsum((g**2).ravel().tolist())
    return 1.0 - total / float(bp.d) ** 4


def _sample_once(u: np.ndarray, udag: np.ndarray, p: PauliString, bp: Bipartition) -> float:
    evolved = udag @ pauli_mul_matrix(p, u)
    return linear_entanglement_unitary(evolved, bp)


def pauli_entangling_power(
    u: np.ndarray,
    bp: Bipartition,
    mode: str = "exact",
    rng: np.random.Generator | None = None,
    sem_target: float = 2e-2,
    n_samples: int | None = None,
    min_samples: int = 32,
    max_samples: int = 1_000_000,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> PauliPowerEstimate:
    """Average E_lin(U^dag P U) over the Pauli group (identity included).

    mode="exact" enumerates all 4^N strings (N <= exact_limit); the sum is
    accumulated in a fixed order with compensated summation.  mode="sampled"
    draws i.i.d. uniform strings into stats.run_until_converged with z = 1:
    it stops once at least min_samples are in and the standard error of the
    mean is below sem_target, or at max_samples (or after exactly n_samples
    when given, whatever the standard error).  It needs
    n_samples >= 1 when given, max_samples >= 1, and min_samples >= 2, since
    the standard error needs two samples.
    """
    if u.shape[0] != bp.d:
        raise ValueError("operator dimension does not match the bipartition")
    if not is_unitary(u):
        raise NotUnitary("Pauli-entangling power needs a unitary")
    if mode == "exact":
        if bp.n_qubits > exact_limit:
            raise SizeLimitExceeded(
                f"exact mode enumerates 4^{bp.n_qubits} strings; limit is {exact_limit} qubits"
            )
        value = _exact_value(u, bp)
        return PauliPowerEstimate(value=value, mode="exact", n_samples=4**bp.n_qubits, sem=0.0)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    if n_samples is not None and n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if max_samples < 1:
        raise ValueError(f"max_samples must be at least 1, got {max_samples}")
    if min_samples < 2:
        raise ValueError(f"min_samples must be at least 2, got {min_samples}")
    udag = u.conj().T
    draws = (_sample_once(u, udag, random_pauli(bp.n_qubits, rng), bp)
             for _ in itertools.count())
    # with a fixed count the rule can only fire at the cap itself
    n_min, cap = (min_samples, max_samples) if n_samples is None else (n_samples, n_samples)
    acc, _ = run_until_converged(draws, sem_target, 1.0, n_min, cap)
    return PauliPowerEstimate(value=acc.mean, mode="sampled", n_samples=acc.n,
                              sem=acc.half_width())


# ---------------------------------------------------------------------------
# Quadrupled-space projector form
# ---------------------------------------------------------------------------


def q_projector_build(n_qubits: int) -> np.ndarray:
    """Q = d^-2 sum_P P^x4 on the quadrupled space: a rank-d^2 projector."""
    if n_qubits > 3:
        raise SizeLimitExceeded("Q projector is limited to 3 qubits (d^4 = 4096)")
    d = 1 << n_qubits
    q = np.zeros((d**4, d**4), dtype=complex)
    for k in range(4**n_qubits):
        p = pauli_to_dense(PauliString.from_index(n_qubits, k))
        p2 = np.kron(p, p)
        q += np.kron(p2, p2)
    return q / float(d**2)


def q_projector_basis(n_qubits: int) -> np.ndarray:
    """Orthonormal vectors spanning the image of Q: rows are the doubled
    maximally-entangled Pauli frame |psi_xz> (x) |psi_xz>, with
    |psi_xz> = d^-1/2 sum_y (-1)^(z.y) |y> (x) |y^x>."""
    d = 1 << n_qubits
    ys = np.arange(d)
    basis = np.empty((d * d, d**4), dtype=complex)
    k = 0
    for x in range(d):
        for z in range(d):
            psi = np.zeros(d * d, dtype=complex)
            psi[ys * d + (ys ^ x)] = _parity_signs(ys & z) / np.sqrt(d)
            basis[k] = np.kron(psi, psi)
            k += 1
    return basis


def _copy_permutation_indices(n_qubits: int, images: tuple[int, int, int, int],
                              a_only: int | None = None) -> np.ndarray:
    """Index map t of the permutation operator T on the quadrupled space:
    T |j> = |t(j)>, where copy c of the (sub)system moves to slot images[c].

    With a_only = n_a, only the A part (leading n_a qubits of each copy)
    is permuted and the B parts stay in place.
    """
    d = 1 << n_qubits
    js = np.arange(d**4)
    copies = [(js // d ** (3 - c)) % d for c in range(4)]
    if a_only is None:
        parts = copies
        out = [None] * 4
        for c in range(4):
            out[images[c]] = parts[c]
    else:
        db = 1 << (n_qubits - a_only)
        avals = [v // db for v in copies]
        bvals = [v % db for v in copies]
        aout = [None] * 4
        for c in range(4):
            aout[images[c]] = avals[c]
        out = [aout[c] * db + bvals[c] for c in range(4)]
    t = ((out[0] * d + out[1]) * d + out[2]) * d + out[3]
    return t


def pauli_power_via_q(u: np.ndarray, bp: Bipartition) -> float:
    """P_E through the quadrupled-space expression
    1 - d^-2 Tr(T^A_(12)(34) U^dag^x4 Q U^x4); cross-checks the per-Pauli
    average on small systems.

    Q enters through its orthonormal image basis (rank d^2), so the trace is
    sum_k <c_k| T^A |c_k> with c_k = U^dag^x4 |b_k>; T^A is applied as an
    explicit index permutation, and U^x4 is never materialized.
    """
    n = bp.n_qubits
    if n > 3:
        raise SizeLimitExceeded("quadrupled-space evaluation is limited to 3 qubits")
    if u.shape[0] != bp.d:
        raise ValueError("operator dimension does not match the bipartition")
    d = bp.d
    basis = q_projector_basis(n)
    t = _copy_permutation_indices(n, (1, 0, 3, 2), a_only=bp.n_a)
    udag = u.conj().T
    total = 0.0 + 0.0j
    for b in basis:
        c = b.reshape(d, d, d, d)
        for axis in range(4):
            c = np.moveaxis(np.tensordot(udag, c, axes=(1, axis)), 0, axis)
        c = c.ravel()
        total += np.vdot(c[t], c)
    return float(1.0 - total.real / d**2)


def q_permutation_traces(n_qubits: int) -> dict[str, float]:
    """Tr(Q T_sigma) for one representative per S4 conjugacy class."""
    if n_qubits > 2:
        raise SizeLimitExceeded("permutation traces are limited to 2 qubits")
    q = q_projector_build(n_qubits)
    d4 = (1 << n_qubits) ** 4
    js = np.arange(d4)
    reps = {
        "e": (0, 1, 2, 3),
        "(ab)": (0, 1, 3, 2),
        "(ab)(cd)": (1, 0, 3, 2),
        "(abc)": (1, 2, 0, 3),
        "(abcd)": (1, 2, 3, 0),
    }
    out = {}
    for name, images in reps.items():
        t = _copy_permutation_indices(n_qubits, images)
        out[name] = float(q[js, t].sum().real)
    return out


# ---------------------------------------------------------------------------
# Bounds and typical values
# ---------------------------------------------------------------------------


def local_pauli_magic_bound(u: np.ndarray, bp: Bipartition) -> tuple[float, float]:
    """Average linear operator stabilizer entropy generated on subsystem-local
    Pauli strings; each side upper-bounds the Pauli-entangling power."""
    if not is_unitary(u):
        raise NotUnitary("bound needs a unitary")
    if u.shape[0] != bp.d:
        raise ValueError("operator dimension does not match the bipartition")
    n = bp.n_qubits
    udag = u.conj().T

    def side_mean(n_side: int, shift: int) -> float:
        vals = []
        for k in range(4**n_side):
            ps = PauliString.from_index(n_side, k)
            full = PauliString(n, ps.x << shift, ps.z << shift, 0)
            evolved = u @ pauli_mul_matrix(full, udag)
            probs = _operator_pauli_probs(evolved)
            vals.append(1.0 - float(np.sum(probs**2)))
        return math.fsum(vals) / len(vals)

    bound_a = side_mean(bp.n_a, bp.n_b)
    bound_b = side_mean(bp.n_b, 0)
    return bound_a, bound_b


def haar_typical_value(d: int, d_a: int) -> float:
    """Closed-form Haar average of the Pauli-entangling power."""
    _check_dims(d, d_a)
    return (
        (d**2 - d_a**2) * (d**2 - 10) * (d_a**2 - 1)
        / (d**2 * d_a**2 * (d**2 - 9))
    )


def haar_typical_expansion(d: int, d_a: int) -> float:
    """Leading large-d behavior of the Haar average."""
    _check_dims(d, d_a)
    d_b = d // d_a
    return 1.0 - (1.0 - 1.0 / d**2) / d_a**2 - (1.0 - 1.0 / d**2) / d_b**2


def _check_dims(d: int, d_a: int) -> None:
    if d < 4 or d & (d - 1) or d_a < 2 or d_a & (d_a - 1) or d % d_a or d_a >= d:
        raise ValueError("need powers of two with 2 <= d_A < d and d_A | d")
