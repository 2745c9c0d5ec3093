"""State and operator nonstabilizerness measures and their local-unitary
minimizations.

The local-unitary searches use an exponential chart U(theta) = exp(i G),
G = sum_k theta_k P_k over the Hermitian Pauli basis (d^2 real parameters
per unitary), multi-start quasi-Newton with finite-difference gradients.
Every search result is an upper bound on the true minimum; the identity
chart point is always among the evaluated starts, so the reported value
never exceeds the unminimized quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import logm
from scipy.optimize import minimize

from .errors import NotUnitary
from .operators import Bipartition, is_unitary
from .paulis import (
    PauliString,
    _operator_pauli_probs,
    pauli_expectation_table,
    pauli_to_dense,
)

NORM_TOL = 1e-10


def _check_state(psi: np.ndarray) -> int:
    n = psi.shape[0].bit_length() - 1
    if psi.ndim != 1 or psi.shape[0] != 1 << n:
        raise ValueError("state dimension must be a power of two")
    if abs(np.linalg.norm(psi) - 1.0) > NORM_TOL:
        raise ValueError("state is not normalized")
    return n


def _state_pauli_probs(psi: np.ndarray) -> np.ndarray:
    """Xi_P = <P>^2 / d over all phase-0 strings; sums to 1."""
    table = pauli_expectation_table(psi)
    return (table.real.ravel() ** 2) / psi.shape[0]


def stabilizer_renyi_entropy(psi: np.ndarray, alpha: float = 2.0) -> float:
    """Stabilizer Renyi entropy m_alpha of a pure state, in bits.

    alpha = 1 is the Shannon limit over Xi_P = <P>^2/d; any other positive
    alpha uses (1/(1-alpha)) log2 sum Xi^alpha - log2 d.
    """
    _check_state(psi)
    d = psi.shape[0]
    xi = _state_pauli_probs(psi)
    if abs(alpha - 1.0) < 1e-12:
        nz = xi[xi > 1e-300]
        return float(-np.sum(nz * np.log2(nz)) - np.log2(d))
    return float(np.log2(np.sum(xi**alpha)) / (1.0 - alpha) - np.log2(d))


def operator_stabilizer_entropy(op: np.ndarray, alpha: float | str = "linear") -> float:
    """Operator stabilizer entropy of a unitary from its Pauli-basis
    probability distribution.

    alpha = "linear" gives M_lin = 1 - sum Xi^2 (equivalently
    1 - d^-4 sum_P' |Tr(op P')|^4); a float gives the alpha-family
    (1/(1-alpha)) log2 sum Xi^alpha, with alpha = 1 the Shannon limit.
    """
    if not is_unitary(op):
        raise NotUnitary("operator stabilizer entropy needs a unitary")
    xi = _operator_pauli_probs(op)
    if isinstance(alpha, str):
        if alpha != "linear":
            raise ValueError(f"unknown measure {alpha!r}")
        return float(1.0 - np.sum(xi**2))
    if abs(alpha - 1.0) < 1e-12:
        nz = xi[xi > 1e-300]
        return float(-np.sum(nz * np.log2(nz)))
    return float(np.log2(np.sum(xi**alpha)) / (1.0 - alpha))


def operator_coherence_2(u: np.ndarray) -> float:
    """2-coherence of u/sqrt(d) in the normalized Pauli basis.  This is the
    same quantity (and the same arithmetic path) as the linear operator
    stabilizer entropy."""
    return operator_stabilizer_entropy(u, "linear")


# ---------------------------------------------------------------------------
# Local-unitary minimization
# ---------------------------------------------------------------------------


@dataclass
class SearchConfig:
    restarts: int = 8
    max_iter: int = 400
    tol: float = 1e-8
    seed: int | None = None
    unitary_seeds: tuple = ()  # each entry: one unitary per chart


@dataclass
class LocalUnitarySearchReport:
    best_value: float
    best_parameters: tuple[np.ndarray, ...]
    restarts_used: int
    converged: bool


@lru_cache(maxsize=8)
def _pauli_stack(n_qubits: int) -> np.ndarray:
    d = 1 << n_qubits
    stack = np.empty((d * d, d, d), dtype=complex)
    for k in range(d * d):
        stack[k] = pauli_to_dense(PauliString.from_index(n_qubits, k))
    return stack


def unitary_from_params(theta: np.ndarray, n_qubits: int) -> np.ndarray:
    """exp(i sum_k theta_k P_k) over the Hermitian Pauli basis."""
    g = np.tensordot(theta, _pauli_stack(n_qubits), axes=1)
    vals, vecs = np.linalg.eigh(g)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def params_from_unitary(u: np.ndarray) -> np.ndarray:
    """Chart coordinates whose exponential reproduces u (principal branch)."""
    n = u.shape[0].bit_length() - 1
    g = -1j * logm(u)
    g = (g + g.conj().T) / 2.0
    stack = _pauli_stack(n)
    d = u.shape[0]
    return np.real(np.einsum("kij,ji->k", stack, g)) / d


def _multistart_minimize(objective, chart_qubits, config: SearchConfig):
    """Minimize objective(list of unitaries) over the product of charts."""
    sizes = [4**n for n in chart_qubits]
    splits = np.cumsum(sizes)[:-1]
    total = int(np.sum(sizes))

    def fun(flat):
        thetas = np.split(flat, splits)
        us = [unitary_from_params(t, n) for t, n in zip(thetas, chart_qubits)]
        return objective(us)

    starts = [np.zeros(total)]
    for seed_us in config.unitary_seeds:
        if len(seed_us) != len(chart_qubits):
            raise ValueError("unitary seed does not match the chart layout")
        starts.append(np.concatenate([params_from_unitary(u) for u in seed_us]))
    rng = np.random.default_rng(config.seed)
    while len(starts) < config.restarts:
        starts.append(rng.normal(scale=0.5, size=total))

    best_val = np.inf
    best_x = starts[0]
    best_ok = True
    for x0 in starts:
        f0 = fun(x0)
        if f0 < best_val:
            best_val, best_x, best_ok = f0, x0, True
        res = minimize(
            fun,
            x0,
            method="L-BFGS-B",
            options={
                "maxiter": config.max_iter,
                "ftol": config.tol * 1e-4,
                "gtol": config.tol * 10,
            },
        )
        if res.fun < best_val:
            best_val, best_x, best_ok = float(res.fun), res.x, bool(res.success)
    thetas = tuple(np.split(np.asarray(best_x, dtype=float), splits))
    report = LocalUnitarySearchReport(
        best_value=float(best_val),
        best_parameters=thetas,
        restarts_used=len(starts),
        converged=best_ok,
    )
    return float(best_val), report


def nonlocal_stabilizer_entropy(
    psi: np.ndarray,
    bp: Bipartition,
    alpha: float = 2.0,
    config: SearchConfig | None = None,
) -> tuple[float, LocalUnitarySearchReport]:
    """Upper bound on the nonlocal part of m_alpha: the minimum of
    m_alpha((U_A x U_B) psi) found by multi-start search.  The identity is
    always among the starts, so the result never exceeds m_alpha(psi).
    Global optimality is not guaranteed."""
    n = _check_state(psi)
    if n != bp.n_qubits:
        raise ValueError("bipartition does not match the state")
    if n > 6:
        raise ValueError("search enumerates all Pauli strings; limited to 6 qubits")
    config = config or SearchConfig()
    mat = psi.reshape(bp.d_a, bp.d_b)

    def objective(us):
        ua, ub = us
        rotated = (ua @ mat @ ub.T).ravel()
        return stabilizer_renyi_entropy(rotated, alpha)

    return _multistart_minimize(objective, [bp.n_a, bp.n_b], config)


def local_min_operator_magic(
    u: np.ndarray,
    bp: Bipartition,
    config: SearchConfig | None = None,
) -> tuple[float, LocalUnitarySearchReport]:
    """Minimize M_lin((V_A x V_B) u (W_A x W_B)) over four local unitaries.
    The exact minimum equals the linear operator entanglement of u; the
    returned value is the search's certified upper bound."""
    if not is_unitary(u):
        raise NotUnitary("need a unitary input")
    if bp.n_qubits > 4:
        raise ValueError("four-chart search is limited to 4 qubits")
    if u.shape[0] != bp.d:
        raise ValueError("operator dimension does not match the bipartition")
    config = config or SearchConfig()

    def objective(us):
        va, vb, wa, wb = us
        rotated = np.kron(va, vb) @ u @ np.kron(wa, wb)
        return float(1.0 - np.sum(_operator_pauli_probs(rotated) ** 2))

    return _multistart_minimize(objective, [bp.n_a, bp.n_b, bp.n_a, bp.n_b], config)
