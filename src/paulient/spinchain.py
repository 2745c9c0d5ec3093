"""Exact-diagonalization experiments on periodic spin chains: XYZ and
transverse-field Ising dynamics, time series of the Pauli-entangling power
and the operator entanglement of the evolution, and long-time averages with
a standard-error stopping rule.

One rule stops every long-time average: stats.run_until_converged with
z = 1.96, reached through long_time_average.  A sweep point feeds it the
pairs (P_E(U_t), E_lin(U_t)) at t = k dt, one timestep at a time, and stops
once both half-widths are below the threshold.  The XYZ chain commutes
with Z^N: its H and every U_t are exactly zero between the two parity
sectors, and HamiltonianPropagator, E_lin and the sampled strings work on
their blocks (see HamiltonianPropagator and entpower's docstring); the TFIM
with g != 0 is one sector.  run_sweep_experiment
returns one SweepRow per sweep value; the CLI's spinchain-run writes them as
CSV under SWEEP_COLUMNS.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _threads
from .entpower import DEFAULT_EXACT_LIMIT, DEFAULT_SEM_TARGET, _pauli_entangling_power
from .errors import NotHermitian, NotUnitary, SizeLimitExceeded
from .operators import Bipartition, is_unitary, linear_entanglement_unitary
from .paulis import DENSE_LIMIT, PauliString, _pauli_entries, _sector_blocks
from .stats import run_until_converged

DEFAULT_DT = 0.2
DEFAULT_SEM_THRESHOLD = 2e-2
DEFAULT_N_MIN = 25
DEFAULT_MAX_STEPS = 20000
HERMITIAN_TOL = 1e-10  # bound on |H - H^dag| / max(1, |H|), Frobenius norms


@dataclass(frozen=True)
class XYZModel:
    """Nearest-neighbour XYZ chain in a z field, periodic boundary:
    H = sum_i (J_x XX + J_y YY + J_z ZZ + h Z_i)."""

    n_sites: int
    j_x: float = 0.75
    j_y: float = 0.25
    j_z: float = 0.0
    h: float = 0.5


@dataclass(frozen=True)
class TFIMModel:
    """Transverse-field Ising chain with a longitudinal field, periodic:
    H = -sum_i (J ZZ + h Z_i + g X_i)."""

    n_sites: int
    j: float = 1.0
    h: float = 0.0
    g: float = 1.0


SpinChainModel = XYZModel | TFIMModel


def build_hamiltonian(model: SpinChainModel) -> np.ndarray:
    n = model.n_sites
    if n > DENSE_LIMIT:
        raise SizeLimitExceeded(f"{n} sites exceeds dense limit {DENSE_LIMIT}")
    if not isinstance(model, (XYZModel, TFIMModel)):
        raise TypeError(f"unknown model type {type(model)!r}")
    terms = []  # (coeff, x bits, z bits) of phase-0 Pauli strings
    for i in range(n):
        site = 1 << (n - 1 - i)
        bond = site ^ (1 << (n - 1 - (i + 1) % n))  # XOR: a one-site ring's bond is I
        if isinstance(model, XYZModel):
            terms += [(model.j_x, bond, 0), (model.j_y, bond, bond),
                      (model.j_z, 0, bond), (model.h, 0, site)]
        else:
            terms += [(-model.j, 0, bond), (-model.h, 0, site), (-model.g, site, 0)]
    d = 1 << n
    ham = np.zeros((d, d), dtype=complex)
    for coeff, x, z in terms:
        rows, cols, values = _pauli_entries(PauliString(n, x, z))
        ham[rows, cols] += coeff * values
    return ham


class HamiltonianPropagator:
    """exp(-i H t) for many t from one eigendecomposition per parity sector.

    Where H has parity sectors (paulis._parity_sectors: every entry between
    an even and an odd basis state exactly 0, as in the XYZ chain, which
    commutes with Z^N), each sector's block is diagonalized on its own;
    otherwise H is one sector.  A real H (H.imag exactly 0) gets real eigh.
    energies and modes hold one array per sector.  unitary_at writes each
    sector's V exp(-i E t) V^dag into its block of a zero d x d matrix, so
    U_t is exactly 0 between sectors; with real modes that block is A - iB,
    A = (V cos Et) V^T and B = (V sin Et) V^T, two real products."""

    def __init__(self, ham: np.ndarray):
        if np.linalg.norm(ham - ham.conj().T) > HERMITIAN_TOL * max(1.0, np.linalg.norm(ham)):
            raise NotHermitian("propagator needs a Hermitian generator")
        self.dim = ham.shape[0]
        if not np.any(ham.imag):
            ham = ham.real
        self.sectors, blocks = _sector_blocks(ham)
        self.energies, self.modes = zip(*(np.linalg.eigh(b) for b in blocks))

    def unitary_at(self, t: float) -> np.ndarray:
        if t == 0.0:
            return np.eye(self.dim, dtype=complex)
        blocks = [_evolve_block(e, v, t) for e, v in zip(self.energies, self.modes)]
        if self.sectors is None:
            return blocks[0]
        u = np.zeros((self.dim, self.dim), dtype=complex)
        for index, block in zip(self.sectors, blocks):
            u[np.ix_(index, index)] = block
        return u


def _evolve_block(energies: np.ndarray, modes: np.ndarray, t: float) -> np.ndarray:
    """V exp(-i E t) V^dag; from real V as (V cos Et) V^T - i (V sin Et) V^T."""
    if np.iscomplexobj(modes):
        return (modes * np.exp(-1j * energies * t)) @ modes.conj().T
    out = np.empty(modes.shape, dtype=complex)
    out.real = (modes * np.cos(energies * t)) @ modes.T
    out.imag = (modes * np.sin(-energies * t)) @ modes.T
    return out


@dataclass
class TimeSeries:
    dt: float
    times: np.ndarray
    values: np.ndarray  # one row per timestep for array-valued series
    n_steps: int
    running_sem: float | np.ndarray  # final 1.96 sigma / sqrt(N_t), per entry
    converged: bool


def long_time_average(
    series: Iterable,
    dt: float = DEFAULT_DT,
    sem_threshold: float = DEFAULT_SEM_THRESHOLD,
    n_min: int = DEFAULT_N_MIN,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[float | np.ndarray, TimeSeries]:
    """Running time-mean of samples at t = k dt, stopped at the first
    N_t >= n_min with 1.96 sigma / sqrt(N_t) below the threshold.

    The samples are scalars or equal-shape arrays; for arrays the mean is
    taken per entry and the rule waits for every entry.  The series is read
    lazily, so no sample past the stopping point is computed.  If the series
    ends (or max_steps is hit) before the rule fires, the partial mean is
    returned with converged=False.  max_steps < 1 raises ValueError.
    """
    values: list = []

    def recorded():
        for value in series:
            value = float(value) if np.ndim(value) == 0 else np.asarray(value, dtype=float)
            values.append(value)
            yield value

    acc, converged = run_until_converged(recorded(), sem_threshold, 1.96, n_min, max_steps)
    ts = TimeSeries(
        dt=dt,
        times=dt * np.arange(len(values)),
        values=np.asarray(values),
        n_steps=acc.n,
        running_sem=acc.half_width(1.96),
        converged=converged,
    )
    return acc.mean, ts


# ---------------------------------------------------------------------------
# Sweep experiments
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("sweep_value", "n_sites", "mean_PE", "mean_E", "n_steps", "total_samples",
                 "converged", "pe_half_width", "e_half_width")


@dataclass
class SweepRow:
    sweep_value: float
    n_sites: int
    mean_pe: float
    mean_e: float
    n_steps: int
    total_samples: int
    converged: bool
    pe_half_width: float  # final 1.96 sigma / sqrt(N_t) of the P_E series
    e_half_width: float  # the same for the E_lin series


def _model_for(family: str, n_sites: int, sweep_value: float) -> SpinChainModel:
    if family == "xyz":
        return XYZModel(n_sites=n_sites, j_z=sweep_value)
    if family == "tfim":
        return TFIMModel(n_sites=n_sites, h=sweep_value)
    raise ValueError(f"unknown model family {family!r}")


def _sweep_point(
    family: str,
    sweep_value: float,
    n_sites: int,
    mode: str,
    dt: float,
    sem_threshold: float,
    n_min: int,
    max_steps: int,
    seed: int | None,
    pe_sem_target: float,
) -> SweepRow:
    model = _model_for(family, n_sites, sweep_value)
    bp = Bipartition(n_sites // 2, n_sites - n_sites // 2)
    rng = np.random.default_rng(seed)
    samples: list[int] = []  # Pauli strings evaluated per timestep

    def steps():
        # built on the first step, so a rejected step cap costs no eigh
        prop = HamiltonianPropagator(build_hamiltonian(model))
        # U_t = V diag(phases) V^dag is unitary whenever the modes V are, so
        # one check per sector here stands for the per-step checks of the
        # public calls
        if not all(is_unitary(modes) for modes in prop.modes):
            raise NotUnitary("propagator modes are not unitary within tolerance")
        for k in itertools.count():
            u_t = prop.unitary_at(k * dt)
            est = _pauli_entangling_power(u_t, bp, mode=mode, rng=rng, sem_target=pe_sem_target)
            samples.append(est.n_samples)
            yield est.value, linear_entanglement_unitary(u_t, bp)

    (mean_pe, mean_e), ts = long_time_average(steps(), dt, sem_threshold, n_min, max_steps)
    pe_half_width, e_half_width = ts.running_sem
    return SweepRow(
        sweep_value=sweep_value,
        n_sites=n_sites,
        mean_pe=float(mean_pe),
        mean_e=float(mean_e),
        n_steps=ts.n_steps,
        total_samples=sum(samples),
        converged=ts.converged,
        pe_half_width=float(pe_half_width),
        e_half_width=float(e_half_width),
    )


def run_sweep_experiment(
    family: str,
    sweep_values: Sequence[float],
    n_sites: int,
    mode: str = "exact",
    dt: float = DEFAULT_DT,
    sem_threshold: float = DEFAULT_SEM_THRESHOLD,
    n_min: int = DEFAULT_N_MIN,
    max_steps: int = DEFAULT_MAX_STEPS,
    seed: int | None = None,
    pe_sem_target: float = DEFAULT_SEM_TARGET,
    workers: int = 1,
) -> list[SweepRow]:
    """Long-time averages of P_E(U_t) and E_lin(U_t) over a parameter sweep
    (j_z for the XYZ family, the longitudinal field for the TFIM family).

    Each sweep value gets an independent child seed derived from `seed`, so
    results do not depend on the worker count; the rows are returned in
    sweep order and nothing is written.  mode="exact" enumerates all Pauli
    strings per timestep, for n_sites <= DEFAULT_EXACT_LIMIT only;
    mode="sampled" draws strings per timestep until the estimator's standard
    error is below pe_sem_target, which must be positive.  These conditions,
    a finite positive dt and workers >= 1 are checked before any Hamiltonian
    is built (SizeLimitExceeded, ValueError).  Each point checks its
    propagator's modes for unitarity once per parity sector (NotUnitary)
    and runs long_time_average on its (P_E, E_lin) pairs: it stops once n_min steps
    are in and both 1.96 sigma / sqrt(N_t) are below sem_threshold, or at
    max_steps with converged=False.  max_steps < 1 raises ValueError.  With
    workers > 1, each worker process runs the exact g-table on
    max(1, cores // workers) threads.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < dt < np.inf:  # also rejects NaN
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if mode == "sampled" and not pe_sem_target > 0:  # also rejects NaN
        raise ValueError(f"pe_sem_target must be positive, got {pe_sem_target}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if mode == "exact" and n_sites > DEFAULT_EXACT_LIMIT:
        raise SizeLimitExceeded(
            f"exact mode enumerates 4^{n_sites} strings; limit is {DEFAULT_EXACT_LIMIT} qubits"
        )
    children = np.random.SeedSequence(seed).spawn(len(sweep_values))
    child_seeds = [int(c.generate_state(1)[0]) for c in children]
    args = [
        (family, float(v), n_sites, mode, dt, sem_threshold, n_min, max_steps, child_seed,
         pe_sem_target)
        for v, child_seed in zip(sweep_values, child_seeds)
    ]
    if workers > 1:
        share = max(1, _threads.available_cores() // workers)
        with ProcessPoolExecutor(max_workers=workers, initializer=_threads.set_thread_limit,
                                 initargs=(share,)) as pool:
            return list(pool.map(_sweep_point, *zip(*args)))
    return [_sweep_point(*a) for a in args]
