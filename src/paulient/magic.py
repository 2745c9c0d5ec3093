"""State and operator nonstabilizerness measures and their local-unitary
minimizations.

The local-unitary searches use an exponential chart U(theta) = exp(i G),
G = sum_k theta_k P_k over the Hermitian Pauli basis (d^2 real parameters
per unitary), and multi-start L-BFGS-B on analytic gradients.  Each
objective returns its value and, per chart unitary U_j, the matrix G_j with
df = Re sum_j Tr(G_j dU_j); the chart maps that to d f / d theta through
the divided differences of exp(i l) over G's eigenvalues, so one evaluation
gives the value and the whole gradient.  Every search result is an upper
bound on the true minimum; the identity chart point is always among the
evaluated starts, so the reported value never exceeds the unminimized
quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import logm
from scipy.optimize import minimize

from .errors import NotUnitary
from .operators import Bipartition, is_unitary
from .paulis import (
    _operator_pauli_probs,
    operator_from_pauli_table,
    pauli_expectation_table,
    pauli_trace_table,
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


def _renyi_bits(xi: np.ndarray, alpha: float) -> float:
    """(1/(1-alpha)) log2 sum Xi^alpha, with alpha = 1 the Shannon limit."""
    if abs(alpha - 1.0) < 1e-12:
        nz = xi[xi > 1e-300]
        return float(-np.sum(nz * np.log2(nz)))
    return float(np.log2(np.sum(xi**alpha)) / (1.0 - alpha))


def stabilizer_renyi_entropy(psi: np.ndarray, alpha: float = 2.0) -> float:
    """Stabilizer Renyi entropy m_alpha of a pure state, in bits.

    alpha = 1 is the Shannon limit over Xi_P = <P>^2/d; any other positive
    alpha uses (1/(1-alpha)) log2 sum Xi^alpha - log2 d.
    """
    _check_state(psi)
    return _renyi_bits(_state_pauli_probs(psi), alpha) - float(np.log2(psi.shape[0]))


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
    return _renyi_bits(xi, alpha)


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
    evaluations: int  # value-and-gradient evaluations over all starts


def _chart(theta: np.ndarray, n_qubits: int):
    """U = exp(i G) for G = sum_k theta_k P_k, with G's eigenvalues and
    eigenvectors, which the chart gradient reuses.  theta may be a stack of
    charts, shape (..., 4^n)."""
    d = 1 << n_qubits
    g = operator_from_pauli_table(np.reshape(theta, (*np.shape(theta)[:-1], d, d)))
    vals, vecs = np.linalg.eigh(g)
    u = (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return u, vals, vecs


def unitary_from_params(theta: np.ndarray, n_qubits: int) -> np.ndarray:
    """exp(i sum_k theta_k P_k) over the Hermitian Pauli basis."""
    return _chart(theta, n_qubits)[0]


def params_from_unitary(u: np.ndarray) -> np.ndarray:
    """Chart coordinates whose exponential reproduces u (principal branch)."""
    g = -1j * logm(u)
    g = (g + g.conj().T) / 2.0
    return pauli_trace_table(g).real.ravel() / u.shape[0]


def _chart_gradient(grad_u: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """d f / d theta_k at U = exp(i G), G = V diag(vals) V^dag, for a function
    with df = Re Tr(grad_u dU):

        d f / d theta_k = Re Tr(P_k V (F^T o V^dag grad_u V) V^dag),
        F_ab = i e^(i (l_a + l_b) / 2) sinc((l_a - l_b) / 2),

    where F holds the divided differences of exp(i l) over the eigenvalues.
    The sinc form stays finite and accurate at degenerate eigenvalues (every
    F_ab = i at the theta = 0 identity), and F is symmetric.  All d^2
    coefficients come from one pauli_trace_table call, in
    PauliString.from_index order; stacked charts give stacked rows."""
    mean = (vals[..., :, None] + vals[..., None, :]) / 2.0
    half_gap = (vals[..., :, None] - vals[..., None, :]) / 2.0
    f = 1j * np.exp(1j * mean) * np.sinc(half_gap / np.pi)  # np.sinc(x) = sin(pi x)/(pi x)
    vh = vecs.conj().swapaxes(-1, -2)
    coeffs = pauli_trace_table(vecs @ (f * (vh @ grad_u @ vecs)) @ vh).real
    return coeffs.reshape(*coeffs.shape[:-2], -1)


def _on_charts(objective, chart_qubits):
    """fun(flat) -> (value, gradient) over the concatenated chart parameters.

    objective(us) takes one unitary per chart and returns (value, grads):
    grads[j] is the d_j x d_j matrix G_j with df = Re sum_j Tr(G_j dU_j).
    _chart_gradient turns each G_j into the derivatives along that chart's
    d_j^2 parameters, so one objective call gives the value and the whole
    gradient.  The charts of one size are evaluated as one stack."""
    offsets = np.cumsum([0] + [4**n for n in chart_qubits])
    groups = []  # (n, chart numbers, their indices into flat)
    for n in sorted(set(chart_qubits)):
        members = [j for j, m in enumerate(chart_qubits) if m == n]
        groups.append((n, members, np.concatenate([np.arange(offsets[j], offsets[j + 1])
                                                   for j in members])))

    def fun(flat):
        charts = [(members, idx, *_chart(flat[idx].reshape(len(members), -1), n))
                  for n, members, idx in groups]
        us = [None] * len(chart_qubits)
        for members, _, u, _, _ in charts:
            for j, u_j in zip(members, u):
                us[j] = u_j
        value, grads = objective(us)
        jac = np.empty(flat.size)
        for members, idx, _, vals, vecs in charts:
            jac[idx] = _chart_gradient(np.stack([grads[j] for j in members]), vals, vecs).ravel()
        return value, jac

    return fun


def _multistart_minimize(objective, chart_qubits, config: SearchConfig):
    """Minimize objective over the product of charts: L-BFGS-B on exact
    gradients, one value-and-gradient evaluation per step.  objective follows
    the contract of _on_charts."""
    sizes = [4**n for n in chart_qubits]
    splits = np.cumsum(sizes)[:-1]
    total = int(np.sum(sizes))
    fun = _on_charts(objective, chart_qubits)

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
    evaluations = 0
    for x0 in starts:
        res = minimize(
            fun,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": config.max_iter,
                "ftol": config.tol * 1e-4,
                "gtol": config.tol * 10,
            },
        )
        evaluations += res.nfev  # with jac=True, each nfev also gave the gradient
        if res.fun < best_val:
            best_val, best_x, best_ok = float(res.fun), res.x, bool(res.success)
    thetas = tuple(np.split(np.asarray(best_x, dtype=float), splits))
    report = LocalUnitarySearchReport(
        best_value=float(best_val),
        best_parameters=thetas,
        restarts_used=len(starts),
        converged=best_ok,
        evaluations=evaluations,
    )
    return float(best_val), report


def _state_magic_objective(psi: np.ndarray, bp: Bipartition, alpha: float):
    """m_alpha((U_A x U_B) psi) and its gradients, as _on_charts expects.

    With e_P = <P> and Xi_P = e_P^2 / d, dm = sum_P w_P de_P, where
    de_P = 2 Re <psi'|P|dpsi'>; so dm = 2 Re (Q psi')^dag dpsi' with
    Q = sum_P w_P P.  Strings with Xi_P = 0 add 0."""
    mat = psi.reshape(bp.d_a, bp.d_b)
    d = bp.d

    def objective(us):
        ua, ub = us
        rotated = ua @ mat @ ub.T
        e = pauli_expectation_table(rotated.ravel()).real
        xi = e**2 / d
        w = np.zeros_like(xi)  # d m / d Xi_P
        if abs(alpha - 1.0) < 1e-12:
            nz = xi > 1e-300
            w[nz] = -(np.log2(xi[nz]) + 1.0 / np.log(2.0))
        else:
            nz = xi > 0.0
            w[nz] = alpha * xi[nz] ** (alpha - 1.0) / ((1.0 - alpha) * np.log(2.0)
                                                      * np.sum(xi**alpha))
        w *= 2.0 * e / d  # d Xi_P / d e_P
        phi_h = (operator_from_pauli_table(w) @ rotated.ravel()).reshape(mat.shape).conj().T
        value = _renyi_bits(xi.ravel(), alpha) - float(np.log2(d))
        return value, [2.0 * (mat @ ub.T) @ phi_h, 2.0 * (phi_h @ ua @ mat).T]

    return objective


def _operator_magic_objective(u: np.ndarray, bp: Bipartition):
    """M_lin((V_A x V_B) u (W_A x W_B)) and its gradients, as _on_charts
    expects.

    With R = L u W, L = V_A x V_B, W = W_A x W_B, c_P = Tr(R P) and
    Xi_P = |c_P|^2 / d^2: dM_lin = Re Tr(dR Y) for
    Y = sum_P -(4 / d^2) Xi_P conj(c_P) P, and dR = dL u W + L u dW.  So the
    gradients of the four charts are partial traces of u W Y and Y L u."""
    d = bp.d
    shape4 = (bp.d_a, bp.d_b, bp.d_a, bp.d_b)

    def block_grads(m, x, z):
        # (G_x, G_z) with Tr(d(x (x) z) m) = Tr(G_x dx) + Tr(G_z dz)
        m4 = m.reshape(shape4)
        return np.einsum("bc,xcyb->xy", z, m4), np.einsum("ac,cxay->xy", x, m4)

    def kron(a, b):  # np.kron of two matrices, without its general-rank set-up
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(d, d)

    def objective(us):
        va, vb, wa, wb = us
        left, u_right = kron(va, vb), u @ kron(wa, wb)
        c = pauli_trace_table(left @ u_right)
        xi = np.abs(c / d) ** 2
        y = operator_from_pauli_table(-(4.0 / d**2) * xi * c.conj())
        return float(1.0 - np.sum(xi**2)), [
            *block_grads(u_right @ y, va, vb), *block_grads(y @ left @ u, wa, wb)]

    return objective


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
    return _multistart_minimize(_state_magic_objective(psi, bp, alpha), [bp.n_a, bp.n_b],
                                config or SearchConfig())


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
    return _multistart_minimize(_operator_magic_objective(u, bp),
                                [bp.n_a, bp.n_b, bp.n_a, bp.n_b], config or SearchConfig())
