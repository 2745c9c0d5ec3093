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

Where U has two parity sectors (paulis._SectorLayout: exact zeros between
even and odd basis states, as in every U_t of the XYZ chain), u[y, a, b] is
nonzero only where par(b) = par(y) ^ par(a), so a pair a1 <= a2 with
q = par(a1) ^ par(a2) contributes only to the strings with par(x) = q, from
the nonzero half of u; a U without sectors is the one-sector case (q = 0,
every x).  _pauli_g_table takes the pairs in blocks of one q, gathers and
transforms each block's products with the step of the Pauli-basis tables
(paulis._pauli_columns), and runs the blocks on the _threads pool; neither
the quadrupled space nor the full pair-correlation array is materialized,
and the table does not depend on the number of threads.

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

Where U has two parity sectors S_0, S_1, K maps S_s into S_(s ^ par(x)),
and the same steps run on its nonzero blocks only (stored as in
paulis._SectorLayout), with U's two diagonal blocks U_s:

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

Both modes take U's sectors as a layout and scan nothing: a call finds
them once for its unitarity check and its kernel, a sweep point once, on H.
Both run through _threads.buffered_map, which keeps a call's buffer sets for
the next call whose sets have the same shapes and dtypes (the next step of a
spin-chain sweep), so a step fills memory already mapped; nothing is kept by
the value of U.

From N = 8 the strings of one sampled call run through _threads.buffered_map,
one buffer set per thread within the pool's memory budget.  A set is 4 d^2
floats and a Gram matrix without sectors (8.5 MiB at N = 9, 4|5: up to nine
threads at N = 8, two at N = 9) and 1.75 d^2 floats and a quarter of that
Gram matrix with them (3.6 MiB: up to five threads at N = 9); from N = 10
one set fills the budget.  u, or its sector blocks, and the purity's gather
indices are shared; the indices are kept from one call to the next on the
same bipartition (_sector_purity).  The caller's thread draws every string
and pushes the values into the stopping rule in draw order, so the result
does not depend on the number of threads.  The pool draws a few strings
ahead; when the rule stops, the call drops them and redraws the strings the
rule took from the rng's starting state, which leaves the rng where a serial
loop would have left it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import _threads
from .errors import NotUnitary, SizeLimitExceeded
from .operators import Bipartition, _HermitianPurity, _unitary_layout, is_unitary
from .paulis import (
    PauliString,
    _CHUNK_ENTRIES,
    _SectorLayout,
    _conjugated_chunks,
    _operator_pauli_probs,
    _parity_signs,
    _pauli_columns,
    _pauli_entries,
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


def _pauli_g_table(u: np.ndarray, bp: Bipartition, layout: _SectorLayout) -> np.ndarray:
    """g[x, z] = Tr((Tr_B(U^dag P(x,z) U))^2) for every phase-0 string.

    With u reshaped to u[y, k, t] (k = kept block, t = traced block), the
    larger side is traced, so "Tr_B" above means the larger block.  Single
    entries depend on that choice, but sum_P g_P^2, and so P_E, is the same
    from either block.  The pair correlations are

        W_p[y, v] = sum_t conj(u[y, k1, t]) u[v, k2, t],   p = (k1 <= k2).

    layout holds u's parity sectors, found by the caller; with two,
    u[y, k, t] is nonzero only where par(t) = par(y) ^ par(k), so u is stored
    once as A[k, a] = u[S_a, k, T_(a ^ par(k))] (S_a and T_b the sectors of
    y and of t), and W_p is nonzero only where par(y) ^ par(v) = q =
    par(k1) ^ par(k2): its block on y in S_a is conj(A[k1, a]) A[k2, a ^ q]^T,
    two (d/2 x d_t/2) products where one would be d x d_t.  With one sector,
    S_0 and T_0 hold every index, par(k) = 0, and A[k, 0] = u[:, k, :].

    The pairs are taken in blocks of one q, of max(1, 2^17 sectors // d^2)
    pairs, so a block's W and its gather each hold about 2^17 complex entries
    and the full W is never resident.  S[y, x] = W[y, y^x] is nonzero only
    where par(x) = q, so for each block paulis._pauli_columns gathers only
    the columns x of class q, from the compact W, and applies the
    Walsh-Hadamard transform along y (with W's buffer as its scratch); the
    block's slot is

        g_block(x, z) = sum_p weight_p |WHT_y(S[p, ., x])[z]|^2

    as a [z, x in class q] table.  The slots are added per q in block order
    and scattered into g[x, z] at the end.

    The blocks run through _threads.buffered_map, which lends each running
    block a set of block buffers of its own (the last call's, where they have
    this call's shapes).  The sets and the unsummed slots
    (at most threads + 2) stay within the pool's memory budget, which caps
    the threads by the sizes, not by the cores: at N = 8 (4|4) three without
    sectors and four with them; from N = 9 one without and two with.  The
    blocks depend on the sizes and the sectors alone and the slots are summed
    in block order, so the table does not depend on the number of threads.

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
    rows, sectors, h = layout, len(layout.index), layout.h
    keep, traced = (_SectorLayout.of(n, sectors == 2) for n in (dk, dt))
    # A[k, a, rank y, rank t] = u3[S_a, k, T_(a ^ par(k))], contiguous
    t_of = np.stack(traced.index)[np.arange(sectors) ^ keep.sector[:, None]]
    byk = u3[np.stack(rows.index)[None, :, :, None], np.arange(dk)[:, None, None, None],
             t_of[:, :, None, :]].astype(complex, copy=False)
    ka, kc = np.triu_indices(dk)
    q = keep.sector[ka] ^ keep.sector[kc]
    order = np.argsort(q, kind="stable")  # the pairs of one q together, in triu order
    ka, kc, q = ka[order], kc[order], q[order]
    weights = np.where(ka == kc, 1.0, 2.0)
    block = max(1, sectors * _CHUNK_ENTRIES // (d * d))  # pairs per block: ~2^17 entries of W
    bounds = np.searchsorted(q, np.arange(sectors + 1))
    tasks = [(p0, min(p0 + block, hi)) for lo, hi in zip(bounds, bounds[1:])
             for p0 in range(lo, hi, block)]
    width = max(p1 - p0 for p0, p1 in tasks)
    # index[q][y, j] is W's flat entry (sector y, rank y, rank y^x) for the
    # j-th x of class q; without sectors it is paulis._xor_index(d)
    ys = np.arange(d)[:, None]
    index = [(rows.sector[ys] * h + rows.rank[ys]) * h + rows.rank[ys ^ cols]
             for cols in rows.index]
    operand = (sectors, h, dt // sectors)  # one pair's A[k]

    def new_set() -> tuple:
        return (np.empty((width, sectors, h, h), complex),  # W, then WHT scratch
                np.empty((width, d, h), complex))  # operands, then gather, then |WHT|^2

    def block_slot(task: tuple[int, int], buffers: tuple) -> np.ndarray:
        p0, p1 = task
        n = p1 - p0
        wp, s = (b[:n] for b in buffers)
        # conj(A[k1]) and A[k2] are read only by the product, so they take the
        # front of the gather's buffer (2 d d_t / sectors <= d^2 / sectors)
        size = n * math.prod(operand)
        lhs, rhs = (s.reshape(-1)[i * size:(i + 1) * size].reshape(n, *operand) for i in (0, 1))
        # the indices are in range; mode="clip" writes straight into out,
        # where the default mode="raise" goes through a temporary
        np.take(byk, ka[p0:p1], axis=0, out=lhs, mode="clip")
        np.conjugate(lhs, out=lhs)
        np.take(byk, kc[p0:p1], axis=0, out=rhs, mode="clip")
        if q[p0]:
            rhs = rhs[:, ::-1]  # A[k2, a ^ 1] beside A[k1, a]
        np.matmul(lhs, rhs.swapaxes(-1, -2), out=wp)  # [pair, a, rank y, rank v]
        _pauli_columns(wp.reshape(n, d, h), out=s, scratch=wp, index=index[q[p0]])
        sq = s.view(np.float64)  # [pair, z, x re/im]
        np.multiply(sq, sq, out=sq)
        return weights[p0:p1] @ sq.reshape(n, -1)

    # per q, [z, x in class q] with re^2 and im^2 interleaved, as each slot
    acc = np.zeros((sectors, 2 * d * h))
    # a call goes to the pool where the one-sector blocks would be two or
    # more (from N = 6), with or without sectors: a pooled call pins the
    # process's OpenBLAS to one thread, and that choice must not follow U's
    # sectors.  (Unpinned, the small BLAS calls of a perfbench desk-mix round
    # took it to 1.04-1.21 s against 0.69-0.83 s pinned, on a 2-core Xeon.)
    n_tasks = len(tasks) if len(ka) > max(1, _CHUNK_ENTRIES // (d * d)) else 1
    _, slots = _threads.buffered_map(block_slot, tasks, n_tasks, new_set, acc[0].nbytes)
    for slot, (p0, _) in zip(slots, tasks):  # slots first: the map runs to its end
        acc[q[p0]] += slot
    g = np.empty((d, d))
    for part, cols in zip(acc.reshape(sectors, d, 2 * h), rows.index):
        g[cols] = (part[:, 0::2] + part[:, 1::2]).T
    return g


@lru_cache(maxsize=1)
def _sector_purity(bp: Bipartition, parity: bool) -> _HermitianPurity:
    """The purity of sampled strings on one bipartition, kept for the next
    call: a sweep asks for the same one at every step, and its gather
    indices take 5 ms to build at N = 9 (4 MiB at 4|5, 64 MiB at N = 11), so
    only the most recent is kept."""
    return _HermitianPurity(bp, _SectorLayout.of(bp.d, parity))


def _string_elin(u: np.ndarray, bp: Bipartition, layout: _SectorLayout) -> tuple[
        Callable[[PauliString, tuple], float], Callable[[], tuple]]:
    """(value, new_set): value(p, buffers) is E_lin(U^dag P U) for a phase-0
    string P, by the sampled-mode identities of the module docstring, worked
    in one set of buffers from new_set().  The blocks of u on the layout's
    sectors are copied once per call and the purity's gather indices once
    per bipartition (_sector_purity); both are only read, so calls with sets
    of their own may run at once."""
    purity = _sector_purity(bp, len(layout.index) == 2)
    blocks = [np.ascontiguousarray(b, dtype=complex) for b in layout.blocks(u)]
    h = layout.h
    hh = h * h

    def new_set() -> tuple:
        # an odd x with sectors works in 3 h^2 floats: [Re B; Im B; -Re B]
        scratch, gram = purity.new_set((len(blocks) + 1) * hh)
        return layout.new_parts(), scratch, gram

    def within(p: PauliString, parts: np.ndarray, work: np.ndarray) -> None:
        """K[S_s, S_s] for each sector s: Re = X^T X - I, Im = M - M^T."""
        _, _, values = _pauli_entries(p.n_qubits, p.x, p.z)
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
        _, cols, values = _pauli_entries(p.n_qubits, p.x, p.z)
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

    mode="exact" enumerates all 4^N strings (N <= exact_limit); sum_P g_P^2
    is numpy's pairwise sum over the g-table in its fixed order, within about
    2e-15 of the exactly rounded sum in P_E (at N = 2-8).  mode="sampled"
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
    layout = _unitary_layout(u)
    if layout is None:
        raise NotUnitary("Pauli-entangling power needs a unitary")
    return _pauli_entangling_power(u, bp, layout, mode, rng, sem_target, n_samples,
                                   min_samples, max_samples, exact_limit)


def _pauli_entangling_power(
    u: np.ndarray,
    bp: Bipartition,
    layout: _SectorLayout,
    mode: str = "exact",
    rng: np.random.Generator | None = None,
    sem_target: float = DEFAULT_SEM_TARGET,
    n_samples: int | None = None,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> PauliPowerEstimate:
    """pauli_entangling_power without its dimension and unitarity checks, for
    callers whose u is unitary by construction and whose sectors they know
    (layout: u is exactly zero between them)."""
    if mode == "exact":
        if bp.n_qubits > exact_limit:
            raise SizeLimitExceeded(
                f"exact mode enumerates 4^{bp.n_qubits} strings; limit is {exact_limit} qubits"
            )
        g = _pauli_g_table(u, bp, layout)
        value = 1.0 - float(np.sum(np.square(g, out=g))) / float(bp.d) ** 4
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
    string_elin, new_set = _string_elin(u, bp, layout)
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
    if n_qubits > 3:
        raise SizeLimitExceeded("Q image basis is limited to 3 qubits (d^2 x d^4 = 64 x 4096)")
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
    if not is_unitary(u):
        raise NotUnitary("quadrupled-space P_E needs a unitary")
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
    Pauli strings evolved as U P U^dag; each side upper-bounds the
    Pauli-entangling power, which averages U^dag P U.

    The bound holds in this direction only: for U = (1 x T) CNOT at 1|1,
    P_E = 1/4 and the bounds are (1/4, 1/4), while the local strings
    evolved as U^dag P U give (0, 1/4)."""
    if not is_unitary(u):
        raise NotUnitary("bound needs a unitary")
    if u.shape[0] != bp.d:
        raise ValueError("operator dimension does not match the bipartition")
    n = bp.n_qubits

    def side(n_side: int, shift: int) -> np.ndarray:
        """The side's strings in PauliString.from_index order, moved onto it."""
        k = np.arange(4**n_side)
        return ((k >> n_side) << (shift + n)) | ((k & ((1 << n_side) - 1)) << shift)

    strings = np.concatenate([side(bp.n_a, bp.n_b), side(bp.n_b, 0)])  # one stack for both
    vals = []
    for _, evolved in _conjugated_chunks(u, strings, u.conj().T):
        vals += (1.0 - np.sum(_operator_pauli_probs(evolved) ** 2, axis=-1)).tolist()
        del evolved  # before the next chunk is built
    split = 4**bp.n_a
    return math.fsum(vals[:split]) / split, math.fsum(vals[split:]) / (len(vals) - split)


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
