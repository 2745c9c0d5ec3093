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
step of the Pauli-basis tables (paulis._pauli_columns) gathers the entries
at v = y^x for every x at once and transforms them over y into the whole z
axis; and |.|^2, weighted over the block's pairs, gives the block's share of
the g-table.  The shares are added in block order.  Neither the quadrupled
space nor the full pair-correlation array is materialized.  Calls with two
or more blocks (never at N <= 5) run them through _threads.buffered_map, one
set of block buffers per thread, on as many cores as a fixed memory budget
allows; the table does not depend on the number of threads.

Sampled mode evaluates E_lin(K) for K = U^dag P U one drawn string at a
time, in real arithmetic, from two identities that hold because P is a
Hermitian involution:

    P = 2 Pi_+ - I   gives   K = B^dag B - I,

with B the d/2 rows U[c] + conj(P[c^x, c]) U[c^x] (c with bit top(x) clear;
sqrt2 U[c] over the rows with P[c, c] = +1 when x = 0), and with
X = [Re B; Im B] and M = (Re B)^T Im B,

    Re K = X^T X - I,   Im K = M - M^T.

K is Hermitian, so its coefficients C[k, l] = Tr(K E_k (x) F_l) in Hermitian
orthonormal bases of the two blocks are real: each is one or two entries of
Re K or Im K, scaled by +-1 or sqrt2.  C is the realigned K up to a unitary
change of basis on each side, so sum lambda^2 = ||C C^T||_F^2 / d^2 with
C C^T taken on the smaller side.  With d_A <= d_B that is one syrk and one
d x d/2 x d product for K and one more syrk for the purity, about
d^3 + d_A^4 d_B^2 / 2 real multiply-adds, where a complex product U^dag (P U)
and a complex realigned Gram matrix take about 4 d^3 + 4 d_A^4 d_B^2.  The
identity gives exactly 0.

Where U has parity sectors S_0, S_1 (paulis._parity_sectors: exact zeros
between even and odd basis states, as in every U_t of the XYZ chain), K maps
S_s into S_(s ^ par(x)), and the same steps run on its nonzero blocks only
(operators._SectorLayout), with U's two diagonal blocks U_s:

- even x: K[S_s, S_s] from the rows of B in S_s, which read U_s alone; two
  syrk blocks of half size (for x = 0 from the fewer of the +1 and the -1
  rows, K = -(2 B-^dag B- - I)), about 3 d^3 / 8;
- odd x: each row of B reads U_0 on S_0 and U_1 on S_1, one term each, and
  K[S_0, S_1] = B_0^dag B_1 is [Re B_0; Im B_0]^T times [Re B_1; Im B_1] and
  [Im B_1; -Re B_1], two d/2 x d x d/2 products (d^3 / 2); K[S_1, S_0] is its
  adjoint;
- the purity gathers only the nonzero half of C and squares it as two
  blocks, a quarter of the Gram flops.

A U without sectors is the one-sector case of the same steps.

From N = 8 the strings of one sampled call run through _threads.buffered_map,
one buffer set per thread within the pool's memory budget.  A set is 4 d^2
floats and a Gram matrix without sectors (8.5 MiB at N = 9, 4|5: up to nine
threads at N = 8, two at N = 9) and 1.75 d^2 floats and a quarter of that
Gram matrix with them (3.6 MiB: up to five threads at N = 9); from N = 10
one set fills the budget.  u, or its sector blocks, and the purity's gather
indices are shared.  The
caller's thread draws every string and pushes the values into the stopping
rule in draw order, so the result does not depend on the number of threads.
The pool draws a few strings ahead; when the rule stops, the call drops them
and redraws the strings the rule took from the rng's starting state, which
leaves the rng where a serial loop would have left it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _threads
from .errors import NotUnitary, SizeLimitExceeded
from .operators import Bipartition, _HermitianPurity, _SectorLayout, is_unitary
from .paulis import (
    PauliString,
    _operator_pauli_probs,
    _parity_signs,
    _pauli_columns,
    _pauli_entries,
    _sector_blocks,
    _xor_index,
    pauli_mul_matrix,
    pauli_to_dense,
    random_pauli,
)
from .stats import run_until_converged

DEFAULT_EXACT_LIMIT = 8
DEFAULT_SEM_TARGET = 2e-2
DEFAULT_MIN_SAMPLES = 32
DEFAULT_MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class PauliPowerEstimate:
    value: float
    mode: str  # "exact" | "sampled"
    n_samples: int
    sem: float
    converged: bool  # the sampled rule fired (always True in exact mode)


# Sampled calls below this many qubits evaluate their strings on the caller's
# thread.  Per string on a 2-core Xeon (numpy 2.4, OpenBLAS), serial on two
# BLAS threads / serial on one / pooled on two cores, two runs each, for an
# XYZ U_t (two parity sectors) and then a Haar U (one sector): N = 6
# 0.15/0.15-0.17/0.25-0.30 and 0.11-0.12/0.11/0.30-0.32 ms and N = 7
# 0.20-0.22/0.19-0.23/0.42-0.48 and 0.40-0.49/0.36-0.38/0.47-0.61 ms, where
# the pool loses; N = 8 1.1-1.2/1.0-1.6/0.9-1.0 and 2.2-3.1/2.2-2.3/1.5-1.8 ms
# and N = 9 4.6-5.8/5.3-6.2/3.3 and 13-14/14-19/9.4-9.6 ms.  From N = 10 one
# buffer set fills the pool's memory budget, so a call keeps to one thread
# (31-34 and 87-98 ms per string on two BLAS threads, 40-47 and 115-138 ms on
# one once another call has pinned it).
_POOLED_STRINGS_MIN_QUBITS = 8


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
    resident.  For each block, all x and z at once: paulis._pauli_columns
    gathers S[p, y, x] = W[p, y, y^x] and applies the Walsh-Hadamard
    transform along y (with W's buffer as its scratch), and the block's slot
    is

        g_block(x, z) = sum_p weight_p |WHT_y(S[p, ., x])[z]|^2

    as a [z, x] table.  The slots are added in block order, and the sum is
    transposed once at the end.

    The blocks run through _threads.buffered_map, which lends each running
    block a set of block buffers of its own.  The sets and the unsummed slots
    (at most threads + 2) stay within the pool's memory budget, which caps
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
    index = _xor_index(d)  # fetched once: above d = 64 every call builds it
    block = max(1, (1 << 17) // (d * d))  # pairs per block: ~2^17 entries of W
    starts = range(0, len(ka), block)
    width = min(block, len(ka))

    def new_set() -> tuple:
        return (np.empty((width, d, dt), complex),  # conj(u) rows of k1
                np.empty((width, d, dt), complex),  # u rows of k2
                np.empty((width, d, d), complex),  # W, then WHT scratch
                np.empty((width, d, d), complex))  # gather, then |WHT|^2

    def block_slot(p0: int, buffers: tuple) -> np.ndarray:
        pa, pc = ka[p0:p0 + block], kc[p0:p0 + block]
        n = len(pa)
        lhs, rhs, wp, s = (b[:n] for b in buffers)
        # the indices are in range; mode="clip" writes straight into out,
        # where the default mode="raise" goes through a temporary
        np.take(byk, pa, axis=0, out=lhs, mode="clip")
        np.conjugate(lhs, out=lhs)
        np.take(byk, pc, axis=0, out=rhs, mode="clip")
        np.matmul(lhs, rhs.transpose(0, 2, 1), out=wp)  # [pair, y, v]
        _pauli_columns(wp, out=s, scratch=wp, index=index)  # [pair, z, x]
        sq = s.view(np.float64)  # x re/im
        np.multiply(sq, sq, out=sq)
        return weights[p0:p0 + n] @ sq.reshape(n, -1)

    acc = np.zeros(2 * d * d)  # [z, x] with re^2 and im^2 interleaved, as each slot
    _, slots = _threads.buffered_map(block_slot, starts, len(starts), new_set, acc.nbytes)
    for slot in slots:
        acc += slot
    acc = acc.reshape(d, 2 * d)
    return (acc[:, 0::2] + acc[:, 1::2]).T


def _exact_value(u: np.ndarray, bp: Bipartition) -> float:
    g = _pauli_g_table(u, bp)
    total = math.fsum((g**2).ravel().tolist())
    return 1.0 - total / float(bp.d) ** 4


def _string_elin(u: np.ndarray, bp: Bipartition) -> tuple[
        Callable[[PauliString, tuple], float], Callable[[], tuple]]:
    """(value, new_set): value(p, buffers) is E_lin(U^dag P U) for a phase-0
    string P, by the sampled-mode identities of the module docstring, worked
    in one set of buffers from new_set().  The sector blocks of u and the
    purity's gather indices are built once and only read, so calls with sets
    of their own may run at once."""
    sectors, blocks = _sector_blocks(u)
    layout = _SectorLayout.of(bp.d, parity=sectors is not None)
    blocks = [np.ascontiguousarray(b, dtype=complex) for b in blocks]
    purity = _HermitianPurity(bp, layout)
    h = layout.h
    hh = h * h

    def new_set() -> tuple:
        # an odd x with sectors works in 3 h^2 floats: [Re B; Im B; -Re B]
        scratch, gram = purity.new_set((len(blocks) + 1) * hh)
        return layout.new_parts(), scratch, gram

    def within(p: PauliString, parts: np.ndarray, work: np.ndarray) -> None:
        """K[S_s, S_s] for each sector s: Re = X^T X - I, Im = M - M^T."""
        _, _, values = _pauli_entries(p)
        for s, (u_s, index) in enumerate(zip(blocks, layout.index)):
            sign = 1.0
            if p.x:
                rows = index[index & (1 << (p.x.bit_length() - 1)) == 0]
            else:
                # K_s = 2 B+^dag B+ - I = -(2 B-^dag B- - I) over the rows
                # with P = +1 or -1: the fewer, so X fits in Im K's block
                plus = values[index].real > 0
                if 2 * np.count_nonzero(plus) > index.size:
                    plus, sign = ~plus, -1.0
                rows = index[plus]
            k = rows.size
            re_k, im_k = parts[s]
            # B in the first h^2 floats of work, its partner rows (and then M)
            # in the next; X = [Re B; Im B] in Im K until Im K overwrites it
            b_rows = work[:2 * k * h].view(complex).reshape(k, h)
            u_s.take(layout.rank[rows], axis=0, out=b_rows, mode="clip")
            if p.x:
                partners = work[hh:hh + 2 * k * h].view(complex).reshape(k, h)
                u_s.take(layout.rank[rows ^ p.x], axis=0, out=partners, mode="clip")
                np.multiply(partners, values[rows].conj()[:, None], out=partners)
                np.add(b_rows, partners, out=b_rows)
            else:
                np.multiply(b_rows, math.sqrt(2.0), out=b_rows)
            x_rows = im_k.reshape(-1)[:2 * k * h].reshape(2 * k, h)
            np.copyto(x_rows[:k], b_rows.real)
            np.copyto(x_rows[k:], b_rows.imag)
            np.matmul(x_rows.T, x_rows, out=re_k)
            diag = re_k.reshape(-1)[::h + 1]
            np.subtract(diag, 1.0, out=diag)
            m_prod = work[hh:2 * hh].reshape(h, h)
            np.matmul(x_rows[:k].T, x_rows[k:], out=m_prod)
            np.subtract(m_prod, m_prod.T, out=im_k)
            if sign < 0:
                np.negative(parts[s], out=parts[s])

    def across(p: PauliString, parts: np.ndarray, work: np.ndarray) -> None:
        """K[S_0, S_1] = B_0^dag B_1 for odd x, and K[S_1, S_0] its adjoint."""
        _, cols, values = _pauli_entries(p)
        rows = cols[cols & (1 << (p.x.bit_length() - 1)) == 0]
        phases = values[rows].conj()
        b_rows = parts[0].reshape(-1).view(complex).reshape(h, h)  # free until K is written
        stacked = work[:3 * hh].reshape(3 * h, h)  # [Re B_1; Im B_1; -Re B_1]
        x_0 = parts[1].reshape(2 * h, h)  # [Re B_0; Im B_0] until K[S_1, S_0] is written
        for s, dest in ((1, stacked), (0, x_0)):
            # B_s[c] = U_s[rank c] where c is in sector s, else the partner's
            # row conj(P[c^x, c]) U_s[rank(c^x)]
            own = layout.sector[rows] == s
            u_rows = np.where(own, rows, rows ^ p.x)
            blocks[s].take(layout.rank[u_rows], axis=0, out=b_rows, mode="clip")
            np.multiply(b_rows, np.where(own, 1.0, phases)[:, None], out=b_rows)
            np.copyto(dest[:h], b_rows.real)
            np.copyto(dest[h:2 * h], b_rows.imag)
        np.negative(stacked[:h], out=stacked[2 * h:])
        (re_01, im_01), (re_10, im_10) = parts
        np.matmul(x_0.T, stacked[:2 * h], out=re_01)
        np.matmul(x_0.T, stacked[h:], out=im_01)
        np.copyto(re_10, re_01.T)
        np.negative(im_01.T, out=im_10)

    def value(p: PauliString, buffers: tuple) -> float:
        if p.is_identity:
            return 0.0
        parts, work, gram = buffers
        odd = int(layout.sector[p.x])  # par(x) with sectors, else 0
        (across if odd else within)(p, parts, work)
        return 1.0 - purity(parts, work, gram, odd)

    return value, new_set


def pauli_entangling_power(
    u: np.ndarray,
    bp: Bipartition,
    mode: str = "exact",
    rng: np.random.Generator | None = None,
    sem_target: float = DEFAULT_SEM_TARGET,
    n_samples: int | None = None,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    max_samples: int = DEFAULT_MAX_SAMPLES,
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
    the standard error needs two samples.  From N = 8 the strings run on the
    _threads pool; the estimate, and the state rng is left in, are those of
    drawing and evaluating one string at a time.
    """
    if u.shape[0] != bp.d:
        raise ValueError("operator dimension does not match the bipartition")
    if not is_unitary(u):
        raise NotUnitary("Pauli-entangling power needs a unitary")
    return _pauli_entangling_power(u, bp, mode, rng, sem_target, n_samples, min_samples,
                                   max_samples, exact_limit)


def _pauli_entangling_power(
    u: np.ndarray,
    bp: Bipartition,
    mode: str = "exact",
    rng: np.random.Generator | None = None,
    sem_target: float = DEFAULT_SEM_TARGET,
    n_samples: int | None = None,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> PauliPowerEstimate:
    """pauli_entangling_power without its dimension and unitarity checks, for
    callers whose u is unitary by construction."""
    if mode == "exact":
        if bp.n_qubits > exact_limit:
            raise SizeLimitExceeded(
                f"exact mode enumerates 4^{bp.n_qubits} strings; limit is {exact_limit} qubits"
            )
        value = _exact_value(u, bp)
        return PauliPowerEstimate(value=value, mode="exact", n_samples=4**bp.n_qubits, sem=0.0,
                                  converged=True)
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
    # with a fixed count the rule can only fire at the cap itself
    n_min, cap = (min_samples, max_samples) if n_samples is None else (n_samples, n_samples)
    string_elin, new_set = _string_elin(u, bp)
    start = rng.bit_generator.state
    strings = (random_pauli(bp.n_qubits, rng) for _ in range(cap))
    n_tasks = cap if bp.n_qubits >= _POOLED_STRINGS_MIN_QUBITS else 1
    threads, values = _threads.buffered_map(string_elin, strings, n_tasks, new_set)
    with contextlib.closing(values):  # returns once no pool thread runs a string
        acc, converged = run_until_converged(values, sem_target, 1.0, n_min, cap)
    if threads > 1:
        # the pool draws a few strings past the last one pushed; redrawing
        # acc.n from the start leaves the rng where the serial loop leaves it
        rng.bit_generator.state = start
        for _ in range(acc.n):
            random_pauli(bp.n_qubits, rng)
    return PauliPowerEstimate(value=acc.mean, mode="sampled", n_samples=acc.n,
                              sem=acc.half_width(), converged=converged)


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
    for k in range(d * d):
        x, z = divmod(k, d)
        psi = np.zeros(d * d, dtype=complex)
        psi[ys * d + (ys ^ x)] = _parity_signs(ys & z) / np.sqrt(d)
        basis[k] = np.kron(psi, psi)
    return basis


def _copy_permutation_indices(n_qubits: int, images: tuple[int, int, int, int],
                              a_only: int | None = None) -> np.ndarray:
    """Index map t of the permutation operator T on the quadrupled space:
    T |j> = |t(j)>, where copy c of the (sub)system moves to slot images[c].

    With a_only = n_a, only the A part (leading n_a qubits of each copy)
    is permuted and the B parts stay in place.
    """
    d = 1 << n_qubits
    db = 1 if a_only is None else 1 << (n_qubits - a_only)  # the part that stays
    js = np.arange(d**4)
    copies = [(js // d ** (3 - c)) % d for c in range(4)]
    moved = [None] * 4
    for c in range(4):
        moved[images[c]] = copies[c] // db
    out = [moved[c] * db + copies[c] % db for c in range(4)]
    return ((out[0] * d + out[1]) * d + out[2]) * d + out[3]


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
