"""Exact-diagonalization experiments on periodic spin chains: XYZ and
transverse-field Ising dynamics, time series of the Pauli-entangling power
and the operator entanglement of the evolution, and long-time averages with
a standard-error stopping rule.

One rule stops every long-time average: stats.run_until_converged with
z = 1.96, reached through long_time_average.  A sweep point feeds it the
pairs (P_E(U_t), E_lin(U_t)) at t = k dt, one timestep at a time, and stops
once both half-widths are below the threshold.
"""

from __future__ import annotations

import csv
import itertools
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _threads
from .entpower import pauli_entangling_power
from .errors import NotHermitian, SizeLimitExceeded
from .operators import Bipartition, operator_entanglement
from .paulis import PauliString, _pauli_entries
from .stats import run_until_converged

DEFAULT_DT = 0.2
DEFAULT_SEM_THRESHOLD = 2e-2
DEFAULT_N_MIN = 25
DENSE_SITE_LIMIT = 12


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
    if n > DENSE_SITE_LIMIT:
        raise SizeLimitExceeded(f"{n} sites exceeds dense limit {DENSE_SITE_LIMIT}")
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
    """exp(-i H t) for many t from a single eigendecomposition."""

    def __init__(self, ham: np.ndarray, tol: float = 1e-10):
        if np.linalg.norm(ham - ham.conj().T) > tol * max(1.0, np.linalg.norm(ham)):
            raise NotHermitian("propagator needs a Hermitian generator")
        self.energies, self.modes = np.linalg.eigh(ham)

    def unitary_at(self, t: float) -> np.ndarray:
        if t == 0.0:
            return np.eye(self.energies.size, dtype=complex)
        phases = np.exp(-1j * self.energies * t)
        return (self.modes * phases) @ self.modes.conj().T


def evolve_unitary(ham: np.ndarray, t: float) -> np.ndarray:
    """U_t = exp(-i H t) through the eigendecomposition of H."""
    return HamiltonianPropagator(ham).unitary_at(t)


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
    max_steps: int = 20000,
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


def _model_for(family: str, n_sites: int, sweep_value: float,
               fixed: dict | None) -> SpinChainModel:
    fixed = dict(fixed or {})
    if family == "xyz":
        return XYZModel(n_sites=n_sites, j_z=sweep_value, **fixed)
    if family == "tfim":
        return TFIMModel(n_sites=n_sites, h=sweep_value, **fixed)
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
    fixed: dict | None,
    pe_sem_target: float,
) -> SweepRow:
    model = _model_for(family, n_sites, sweep_value, fixed)
    bp = Bipartition(n_sites // 2, n_sites - n_sites // 2)
    rng = np.random.default_rng(seed)
    samples: list[int] = []  # Pauli strings evaluated per timestep

    def steps():
        # built on the first step, so a rejected step cap costs no eigh
        prop = HamiltonianPropagator(build_hamiltonian(model))
        for k in itertools.count():
            u_t = prop.unitary_at(k * dt)
            est = pauli_entangling_power(u_t, bp, mode=mode, rng=rng, sem_target=pe_sem_target)
            samples.append(est.n_samples)
            yield est.value, operator_entanglement(u_t, bp, "linear")

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
    output_path: str | None = None,
    dt: float = DEFAULT_DT,
    sem_threshold: float = DEFAULT_SEM_THRESHOLD,
    n_min: int = DEFAULT_N_MIN,
    max_steps: int = 20000,
    seed: int | None = None,
    fixed: dict | None = None,
    pe_sem_target: float = DEFAULT_SEM_THRESHOLD,
    workers: int = 1,
    header_lines: Sequence[str] = (),
) -> list[SweepRow]:
    """Long-time averages of P_E(U_t) and E_lin(U_t) over a parameter sweep
    (j_z for the XYZ family, the longitudinal field for the TFIM family).

    Each sweep value gets an independent child seed derived from `seed`, so
    results do not depend on the worker count; rows are emitted in sweep
    order.  mode="exact" enumerates all Pauli strings per timestep (use for
    n_sites <= 8); mode="sampled" draws strings per timestep until the
    estimator's standard error is below pe_sem_target.  Each point runs
    long_time_average on its (P_E, E_lin) pairs: it stops once n_min steps
    are in and both 1.96 sigma / sqrt(N_t) are below sem_threshold, or at
    max_steps with converged=False.  max_steps < 1 raises ValueError.  With
    workers > 1, each worker process runs the exact g-table on
    max(1, cores // workers) threads.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    children = np.random.SeedSequence(seed).spawn(len(sweep_values))
    child_seeds = [int(c.generate_state(1)[0]) for c in children]
    args = [
        (family, float(v), n_sites, mode, dt, sem_threshold, n_min, max_steps,
         child_seeds[i], fixed, pe_sem_target)
        for i, v in enumerate(sweep_values)
    ]
    if workers > 1:
        share = max(1, _threads.available_cores() // workers)
        with ProcessPoolExecutor(max_workers=workers, initializer=_threads.set_thread_limit,
                                 initargs=(share,)) as pool:
            rows = list(pool.map(_sweep_point_star, args))
    else:
        rows = [_sweep_point(*a) for a in args]
    if output_path is not None:
        write_sweep_csv(output_path, rows, header_lines)
    return rows


def _sweep_point_star(args) -> SweepRow:
    return _sweep_point(*args)


def write_sweep_csv(path: str | None, rows: list[SweepRow],
                    header_lines: Sequence[str] = ()) -> None:
    """Sweep rows as CSV under `# ` header lines; to stdout when path is None."""
    with open(path, "w", newline="") if path is not None else nullcontext(sys.stdout) as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for r in rows:
            writer.writerow([
                f"{r.sweep_value:.12g}", r.n_sites, f"{r.mean_pe:.12g}",
                f"{r.mean_e:.12g}", r.n_steps, r.total_samples,
                "true" if r.converged else "false",
                f"{r.pe_half_width:.12g}", f"{r.e_half_width:.12g}",
            ])
