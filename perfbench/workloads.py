"""The benchmark's workloads.

Each workload has three parts:

* ``setup(seed, tracer)`` draws the inputs from the workload seed and does
  the one-time work (Hamiltonian build and eigendecomposition, or input
  unitaries); it is timed as set-up.
* ``run_round(state, tracer)`` is the fixed work, a closed loop of
  operations; it returns one ``OpResult`` per operation.
* ``check(state, ops)`` verifies the outputs outside the timed region and
  returns, per operation, whether every check on it passed.

Spans are recorded here, around calls into the package's public functions;
the package itself carries no tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from paulient.entpower import local_pauli_magic_bound, pauli_entangling_power
from paulient.factorization import (
    check_pauli_product_preserving,
    factorize,
    make_product_preserving,
    verify_factorization,
)
from paulient.magic import SearchConfig, local_min_operator_magic
from paulient.mpu import (
    mpu_cz_chain,
    mpu_shift,
    mpu_single_gate,
    mpu_to_dense,
    mpu_zz_chain,
    pauli_power_mpu,
    transfer_matrix_pair,
)
from paulient.operators import (
    Bipartition,
    haar_random_unitary,
    operator_entanglement,
    random_local_unitary,
)
from paulient.spinchain import (
    DEFAULT_DT,
    DEFAULT_SEM_THRESHOLD,
    HamiltonianPropagator,
    XYZModel,
    build_hamiltonian,
)

RANGE_TOL = 1e-12  # rounding slack on 0 <= P_E, E_lin <= 1
INVARIANCE_TOL = 1e-10
ROUND_TRIP_RESIDUAL_TOL = 1e-8
ROUND_TRIP_PE_TOL = 1e-12
BOUND_TOL = 1e-10
MPU_TOL = 1e-8
SEARCH_TOL = 1e-3


@dataclass
class OpResult:
    seconds: float
    strings: int  # Pauli strings that entered a P_E value
    out: tuple


def g_table_bytes(bp: Bipartition) -> int:
    """Bytes of the complex [pair, x, y] array that exact P_E fills:
    pairs * d^2 * 16, with pairs = k(k+1)/2 for the smaller block dimension k.
    Computed from array sizes, not measured."""
    k = min(bp.d_a, bp.d_b)
    return k * (k + 1) // 2 * bp.d * bp.d * 16


def exact_pe(u: np.ndarray, bp: Bipartition, tracer):
    with tracer.span("entpower.exact"):
        est = pauli_entangling_power(u, bp, mode="exact")
    tracer.count("entpower.exact.strings", est.n_samples)
    tracer.count("entpower.exact.bytes_computed", g_table_bytes(bp))
    return est


# ---------------------------------------------------------------------------
# Spin-chain dynamics: the step of spinchain._sweep_point, without its
# stopping rule
# ---------------------------------------------------------------------------


@dataclass
class ChainState:
    seed: int
    j_z: float
    bp: Bipartition
    prop: HamiltonianPropagator
    sample_seed: int  # the child seed run_sweep_experiment gives one sweep point
    invariance_checked: bool = False


@dataclass(frozen=True)
class ChainWorkload:
    """Periodic XYZ chain (J_x = 0.75, J_y = 0.25, h = 0.5, J_z drawn from the
    seed), cut floor(N/2) | rest, stepped at t = k * dt for a fixed number of
    steps."""

    n_sites: int
    mode: str  # "exact" | "sampled"
    steps: int

    def setup(self, seed: int, tracer) -> ChainState:
        j_z = float(np.random.default_rng(seed).uniform(0.0, 1.0))
        with tracer.span("spinchain.build_hamiltonian"):
            ham = build_hamiltonian(XYZModel(n_sites=self.n_sites, j_z=j_z))
        with tracer.span("spinchain.propagator"):
            prop = HamiltonianPropagator(ham)
        child = np.random.SeedSequence(seed).spawn(1)[0]
        half = self.n_sites // 2
        return ChainState(seed=seed, j_z=j_z, bp=Bipartition(half, self.n_sites - half),
                          prop=prop, sample_seed=int(child.generate_state(1)[0]))

    def run_round(self, state: ChainState, tracer) -> list[OpResult]:
        rng = np.random.default_rng(state.sample_seed)
        ops = []
        for k in range(self.steps):
            start = perf_counter()
            with tracer.span("step"):
                with tracer.span("spinchain.unitary_at"):
                    u_t = state.prop.unitary_at(k * DEFAULT_DT)
                if self.mode == "exact":
                    est = exact_pe(u_t, state.bp, tracer)
                else:
                    with tracer.span("entpower.sampled"):
                        est = pauli_entangling_power(u_t, state.bp, mode="sampled", rng=rng,
                                                     sem_target=DEFAULT_SEM_THRESHOLD)
                    tracer.count("entpower.sampled.strings", est.n_samples)
                    tracer.count("entpower.sampled.stopped", est.sem < DEFAULT_SEM_THRESHOLD)
                with tracer.span("operators.elin"):
                    e_lin = operator_entanglement(u_t, state.bp, "linear")
            ops.append(OpResult(perf_counter() - start, est.n_samples, (est.value, e_lin)))
        return ops

    def check(self, state: ChainState, ops: list[OpResult]) -> list[bool]:
        ok = [all(-RANGE_TOL <= v <= 1.0 + RANGE_TOL for v in op.out) for op in ops]
        if self.mode == "exact" and not state.invariance_checked:
            # once per run: P_E(U_t (V_A x V_B)) = P_E(U_t) on the last step
            state.invariance_checked = True
            u_t = state.prop.unitary_at((len(ops) - 1) * DEFAULT_DT)
            loc = random_local_unitary(state.bp, np.random.default_rng([state.seed, 1]))
            moved = pauli_entangling_power(u_t @ loc, state.bp, mode="exact").value
            ok[-1] = ok[-1] and abs(moved - ops[-1].out[0]) <= INVARIANCE_TOL
        return ok


# ---------------------------------------------------------------------------
# Desk-scale mix: the one-shot CLI computations
# ---------------------------------------------------------------------------

T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
MPU_TENSORS = {
    "chi1-T": mpu_single_gate(T_GATE),
    "cz-chain": mpu_cz_chain(),
    "shift": mpu_shift(),
    "zz-pi8": mpu_zz_chain(np.pi / 8),
}
MPU_SIZES = (4, 5, 6)
MPU_THERMO_REFERENCE = 7  # finite 7|7 stands in for the thermodynamic limit
# (gate, operator entanglement that the four-chart search recovers)
SEARCHES = ((CNOT, 0.5), (SWAP, 0.75))
ROUND_TRIPS_PER_SIZE = 12
CONVERSES_PER_SIZE = 20


@dataclass
class DeskOp:
    kind: str
    u: np.ndarray | None = None
    bp: Bipartition | None = None
    tensor: str = ""
    n_sites: int = 0
    expected: float = 0.0


@dataclass
class DeskState:
    ops: list[DeskOp]
    dense_pe: dict = field(default_factory=dict)  # check references, filled lazily


@dataclass(frozen=True)
class DeskMix:
    """Theorem-1 round trips at N = 2..5, Haar converse checks at N = 3, 4,
    transfer-matrix P_E of the reference MPU tensors, and the two criterion-7
    searches, in a seed-shuffled order.  Bipartitions cycle deterministically
    so every seed does the same amount of work."""

    def setup(self, seed: int, tracer) -> DeskState:
        rng = np.random.default_rng(seed)
        ops = []
        for n in (2, 3, 4, 5):
            for i in range(ROUND_TRIPS_PER_SIZE):
                n_a = 1 + i % (n // 2)
                bp = Bipartition(n_a, n - n_a)
                with tracer.span("factorization.make"):
                    u = make_product_preserving(bp, rng)[0]
                ops.append(DeskOp("round_trip", u=u, bp=bp))
        for n in (3, 4):
            for i in range(CONVERSES_PER_SIZE):
                n_a = 1 + i % (n - 1)
                bp = Bipartition(n_a, n - n_a)
                with tracer.span("operators.haar"):
                    u = haar_random_unitary(bp.d, rng)
                ops.append(DeskOp("converse", u=u, bp=bp))
        for name in MPU_TENSORS:
            ops.append(DeskOp("mpu_transfer", tensor=name))
            ops += [DeskOp("mpu_finite", tensor=name, n_sites=n) for n in MPU_SIZES]
            ops.append(DeskOp("mpu_thermodynamic", tensor=name))
        ops += [DeskOp("local_min", u=gate, expected=value) for gate, value in SEARCHES]
        return DeskState(ops=[ops[i] for i in rng.permutation(len(ops))])

    def run_round(self, state: DeskState, tracer) -> list[OpResult]:
        results = []
        for op in state.ops:
            start = perf_counter()
            with tracer.span("op." + op.kind):
                out, strings = _DESK_OPS[op.kind](op, tracer)
            results.append(OpResult(perf_counter() - start, strings, out))
        return results

    def check(self, state: DeskState, ops: list[OpResult]) -> list[bool]:
        return [_desk_check(state, op, res.out) for op, res in zip(state.ops, ops)]


def _round_trip(op: DeskOp, tracer):
    with tracer.span("factorization.check"):
        preserving, _ = check_pauli_product_preserving(op.u, op.bp)
    tracer.count("factorization.check.passed", preserving)
    with tracer.span("factorization.factorize"):
        fac = factorize(op.u, op.bp)
    with tracer.span("factorization.verify"):
        residual = verify_factorization(op.u, fac)
    est = exact_pe(op.u, op.bp, tracer)
    return (preserving, residual, est.value), est.n_samples


def _converse(op: DeskOp, tracer):
    with tracer.span("factorization.check"):
        preserving, _ = check_pauli_product_preserving(op.u, op.bp)
    tracer.count("factorization.check.passed", preserving)
    est = exact_pe(op.u, op.bp, tracer)
    with tracer.span("entpower.bound"):
        bounds = local_pauli_magic_bound(op.u, op.bp)
    return (preserving, est.value, bounds), est.n_samples


def _mpu_transfer(op: DeskOp, tracer):
    with tracer.span("mpu.transfer"):
        pair = transfer_matrix_pair(MPU_TENSORS[op.tensor])
    return (pair,), 0


def _mpu_finite(op: DeskOp, tracer):
    half = op.n_sites // 2
    with tracer.span("mpu.finite"):
        value = pauli_power_mpu(MPU_TENSORS[op.tensor], half, op.n_sites - half)
    return (value,), 0


def _mpu_thermodynamic(op: DeskOp, tracer):
    with tracer.span("mpu.thermodynamic"):
        value = pauli_power_mpu(MPU_TENSORS[op.tensor], 0, 0, mode="thermodynamic")
    return (value,), 0


def _local_min(op: DeskOp, tracer):
    with tracer.span("magic.local_min"):
        value, _ = local_min_operator_magic(op.u, Bipartition(1, 1),
                                            SearchConfig(restarts=8, seed=7))
    return (value,), 0


_DESK_OPS = {
    "round_trip": _round_trip,
    "converse": _converse,
    "mpu_transfer": _mpu_transfer,
    "mpu_finite": _mpu_finite,
    "mpu_thermodynamic": _mpu_thermodynamic,
    "local_min": _local_min,
}


def _dense_mpu_pe(state: DeskState, tensor: str, n_sites: int) -> float:
    key = (tensor, n_sites)
    if key not in state.dense_pe:
        half = n_sites // 2
        u = mpu_to_dense(MPU_TENSORS[tensor], n_sites)
        state.dense_pe[key] = pauli_entangling_power(u, Bipartition(half, n_sites - half)).value
    return state.dense_pe[key]


def _desk_check(state: DeskState, op: DeskOp, out: tuple) -> bool:
    if op.kind == "round_trip":
        preserving, residual, pe = out
        return preserving and residual <= ROUND_TRIP_RESIDUAL_TOL and pe <= ROUND_TRIP_PE_TOL
    if op.kind == "converse":
        preserving, pe, bounds = out
        return not preserving and pe <= min(bounds) + BOUND_TOL
    if op.kind == "mpu_transfer":
        # 1 - Tr((T_A/16)^2 (T_B/16)^2) is P_E of the 2|2 closure
        (pair,) = out
        ea = np.linalg.matrix_power(pair.t_a / 16.0, 2)
        eb = np.linalg.matrix_power(pair.t_b / 16.0, 2)
        value = 1.0 - np.trace(ea @ eb).real
        return abs(value - _dense_mpu_pe(state, op.tensor, 4)) <= MPU_TOL
    if op.kind == "mpu_finite":
        return abs(out[0] - _dense_mpu_pe(state, op.tensor, op.n_sites)) <= MPU_TOL
    if op.kind == "mpu_thermodynamic":
        n = MPU_THERMO_REFERENCE
        return abs(out[0] - pauli_power_mpu(MPU_TENSORS[op.tensor], n, n)) <= MPU_TOL
    if op.kind == "local_min":
        return abs(out[0] - op.expected) <= SEARCH_TOL
    raise ValueError(f"unknown operation kind {op.kind!r}")


# The sampled chain runs 30 steps: the SEM rule stops at its 32-string minimum
# from step 4 on, but steps 1-3 draw up to ~4x that, depending on the seed.
# At 30 steps those few slow steps are a smaller share of the round.
WORKLOADS = {
    "chain-exact-n8": ChainWorkload(n_sites=8, mode="exact", steps=20),
    "chain-sampled-n9": ChainWorkload(n_sites=9, mode="sampled", steps=30),
    "desk-mix": DeskMix(),
}
