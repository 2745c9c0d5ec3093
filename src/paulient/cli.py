"""Command-line entry point.

Every command takes its parameters from flags, from a JSON config file
(--config), or both; flags win on conflict and unknown config keys are
rejected.  Randomized commands require an explicit seed, and every output
file embeds the effective-config digest and the seed in comment lines.

Exit codes: 0 success, 1 computation error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from ._threads import available_cores
from .entpower import (
    haar_typical_expansion,
    haar_typical_value,
    local_pauli_magic_bound,
    pauli_entangling_power,
)
from .errors import ConfigError, PaulientError
from .factorization import (
    check_pauli_product_preserving,
    factorize,
    verify_factorization,
)
from .mpu import pauli_power_mpu
from .operators import Bipartition, haar_random_unitary
from .selftest import run_selftest
from .serialize import load_matrix, load_mpu, tableau_to_text
from .spinchain import run_sweep_experiment, write_sweep_csv
from .stats import RunningMean


def _digest(command: str, cfg: dict) -> str:
    payload = {k: v for k, v in cfg.items() if k != "out"}
    blob = json.dumps({"command": command, **payload}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _header(command: str, cfg: dict) -> list[str]:
    return [
        f"command: {command}",
        f"config_digest: {_digest(command, cfg)}",
        f"seed: {cfg.get('seed')}",
    ]


def _write_csv(path: str | None, header: list[str], columns: list[str],
               rows: list[list]) -> None:
    lines = [f"# {h}" for h in header]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _bipartition(cfg: dict) -> Bipartition:
    return Bipartition(cfg["na"], cfg["nb"])


def _cmd_pe_exact(cfg: dict) -> int:
    u = load_matrix(cfg["matrix"])
    start = time.perf_counter()
    est = pauli_entangling_power(u, _bipartition(cfg), mode="exact",
                                 exact_limit=cfg["exact_limit"])
    wall = time.perf_counter() - start
    _write_csv(cfg.get("out"), _header("pe-exact", cfg),
               ["value", "sem", "n_samples", "wall_time_s"],
               [[est.value, est.sem, est.n_samples, wall]])
    return 0


def _cmd_pe_sample(cfg: dict) -> int:
    u = load_matrix(cfg["matrix"])
    rng = np.random.default_rng(cfg["seed"])
    start = time.perf_counter()
    est = pauli_entangling_power(
        u, _bipartition(cfg), mode="sampled", rng=rng,
        sem_target=cfg["sem_target"], n_samples=cfg.get("count"),
        min_samples=cfg["min_samples"], max_samples=cfg["max_samples"],
    )
    wall = time.perf_counter() - start
    _write_csv(cfg.get("out"), _header("pe-sample", cfg),
               ["value", "sem", "n_samples", "wall_time_s"],
               [[est.value, est.sem, est.n_samples, wall]])
    return 0


def _cmd_pe_typical(cfg: dict) -> int:
    value = haar_typical_value(cfg["d"], cfg["da"])
    expansion = haar_typical_expansion(cfg["d"], cfg["da"])
    _write_csv(cfg.get("out"), _header("pe-typical", cfg),
               ["d", "d_a", "value", "large_d_expansion"],
               [[cfg["d"], cfg["da"], value, expansion]])
    return 0


def _cmd_pe_bounds(cfg: dict) -> int:
    u = load_matrix(cfg["matrix"])
    start = time.perf_counter()
    ba, bb = local_pauli_magic_bound(u, _bipartition(cfg))
    wall = time.perf_counter() - start
    _write_csv(cfg.get("out"), _header("pe-bounds", cfg),
               ["bound_a", "bound_b", "bound_min", "wall_time_s"],
               [[ba, bb, min(ba, bb), wall]])
    return 0


def _cmd_haar_mc(cfg: dict) -> int:
    d, da = cfg["d"], cfg["da"]
    na, nb = int(np.log2(da)), int(np.log2(d // da))
    bp = Bipartition(na, nb)
    if cfg["n_unitaries"] < 2:
        raise ValueError(f"haar-mc needs at least 2 unitaries for a standard error, "
                         f"got {cfg['n_unitaries']}")
    rng = np.random.default_rng(cfg["seed"])
    start = time.perf_counter()
    acc = RunningMean()
    for _ in range(cfg["n_unitaries"]):
        acc.push(pauli_entangling_power(haar_random_unitary(d, rng), bp).value)
    wall = time.perf_counter() - start
    mean, sem = acc.mean, acc.half_width()
    closed = haar_typical_value(d, da)
    _write_csv(cfg.get("out"), _header("haar-mc", cfg),
               ["n_unitaries", "mc_mean", "mc_sem", "closed_form", "z_score",
                "wall_time_s"],
               [[acc.n, mean, sem, closed, (mean - closed) / sem, wall]])
    return 0


def _cmd_thm1_check(cfg: dict) -> int:
    u = load_matrix(cfg["matrix"])
    ok, witness = check_pauli_product_preserving(u, _bipartition(cfg), tol=cfg["tol"])
    lines = [f"# {h}" for h in _header("thm1-check", cfg)]
    lines.append(f"product-preserving: {'true' if ok else 'false'}")
    if witness is not None:
        p, lam2 = witness
        lines.append(f"witness: {p}")
        lines.append(f"witness_second_schmidt_coefficient: {lam2:.12g}")
    text = "\n".join(lines) + "\n"
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_thm1_factorize(cfg: dict) -> int:
    u = load_matrix(cfg["matrix"])
    bp = _bipartition(cfg)
    ok, witness = check_pauli_product_preserving(u, bp, tol=cfg["tol"])
    if not ok:
        p, lam2 = witness
        raise PaulientError(
            f"not product-preserving: witness {p} has second Schmidt "
            f"coefficient {lam2:.3g}"
        )
    fac = factorize(u, bp, tol=cfg["tol"])
    residual = verify_factorization(u, fac)
    lines = [f"# {h}" for h in _header("thm1-factorize", cfg)]
    lines.append(f"residual: {residual:.12g}")
    lines.append(f"global_phase: {fac.global_phase.real:.17g} {fac.global_phase.imag:.17g}")
    lines.append("[V]")
    lines.append(_matrix_block(fac.v))
    lines.append("[W]")
    lines.append(_matrix_block(fac.w))
    lines.append("[C]")
    lines.append(tableau_to_text(fac.c).rstrip("\n"))
    text = "\n".join(lines) + "\n"
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _matrix_block(m: np.ndarray) -> str:
    rows = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        rows.append(" ".join(f"{e.real:.17g} {e.imag:.17g}" for e in row))
    return "\n".join(rows)


def _cmd_mpu_pe(cfg: dict) -> int:
    tensor = load_mpu(cfg["tensor"])
    start = time.perf_counter()
    value = pauli_power_mpu(tensor, cfg["na"], cfg["nb"], mode=cfg["mode"])
    wall = time.perf_counter() - start
    _write_csv(cfg.get("out"), _header("mpu-pe", cfg),
               ["chi", "mode", "n_a", "n_b", "value", "wall_time_s"],
               [[tensor.chi, cfg["mode"], cfg["na"], cfg["nb"], value, wall]])
    return 0


def _parse_sweep(expr: str, family: str) -> list[float]:
    name, _, body = expr.partition("=")
    expected = {"xyz": "jz", "tfim": "h"}[family]
    if name.strip().lower().replace("_", "") != expected:
        raise ConfigError(f"sweep parameter for {family} must be {expected!r}")
    if ":" in body:
        parts = [float(p) for p in body.split(":")]
        if len(parts) != 3:
            raise ConfigError("range sweep must be start:step:stop")
        start, step, stop = parts
        if step <= 0:
            raise ConfigError("sweep step must be positive")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(count)]
    return [float(p) for p in body.split(",")]


def _cmd_spinchain_run(cfg: dict) -> int:
    values = _parse_sweep(cfg["sweep"], cfg["model"])
    if cfg["mode"] == "sampled" and cfg.get("seed") is None:
        raise ConfigError("sampled mode requires a seed")
    workers = cfg.get("workers") or min(available_cores(), len(values))
    rows = run_sweep_experiment(
        cfg["model"], values, cfg["n"], mode=cfg["mode"],
        dt=cfg["dt"], sem_threshold=cfg["threshold"],
        n_min=cfg["n_min"], max_steps=cfg["max_steps"], seed=cfg.get("seed"),
        pe_sem_target=cfg["pe_sem_target"], workers=workers,
    )
    write_sweep_csv(cfg.get("out"), rows, _header("spinchain-run", cfg))
    bad = [r for r in rows if not r.converged]
    if bad:
        sys.stderr.write(
            f"warning: {len(bad)} sweep point(s) hit max-steps before the "
            "stopping rule; partial rows written\n"
        )
    return 0


def _cmd_selftest(cfg: dict) -> int:
    return 1 if run_selftest(verbose=True) else 0


_COMMON_OUT = dict(flags=["--out"], type=str, default=None,
                   help="output file (stdout when omitted)")

_SCHEMAS: dict[str, tuple] = {
    "pe-exact": (
        _cmd_pe_exact,
        [
            dict(flags=["--matrix"], type=str, required=True, help="matrix file"),
            dict(flags=["--na"], type=int, required=True, help="qubits in block A"),
            dict(flags=["--nb"], type=int, required=True, help="qubits in block B"),
            dict(flags=["--exact-limit"], type=int, default=8,
                 help="largest qubit count for exact enumeration"),
            _COMMON_OUT,
        ],
    ),
    "pe-sample": (
        _cmd_pe_sample,
        [
            dict(flags=["--matrix"], type=str, required=True, help="matrix file"),
            dict(flags=["--na"], type=int, required=True, help="qubits in block A"),
            dict(flags=["--nb"], type=int, required=True, help="qubits in block B"),
            dict(flags=["--seed"], type=int, required=True, help="RNG seed"),
            dict(flags=["--sem-target"], type=float, default=2e-2,
                 help="stop when the standard error of the mean is below this"),
            dict(flags=["--count"], type=int, default=None,
                 help="fixed sample count (overrides the SEM rule)"),
            dict(flags=["--min-samples"], type=int, default=32),
            dict(flags=["--max-samples"], type=int, default=1_000_000),
            _COMMON_OUT,
        ],
    ),
    "pe-typical": (
        _cmd_pe_typical,
        [
            dict(flags=["--d"], type=int, required=True, help="total dimension"),
            dict(flags=["--da"], type=int, required=True, help="block-A dimension"),
            _COMMON_OUT,
        ],
    ),
    "pe-bounds": (
        _cmd_pe_bounds,
        [
            dict(flags=["--matrix"], type=str, required=True),
            dict(flags=["--na"], type=int, required=True),
            dict(flags=["--nb"], type=int, required=True),
            _COMMON_OUT,
        ],
    ),
    "haar-mc": (
        _cmd_haar_mc,
        [
            dict(flags=["--d"], type=int, required=True),
            dict(flags=["--da"], type=int, required=True),
            dict(flags=["--n-unitaries"], type=int, default=200),
            dict(flags=["--seed"], type=int, required=True),
            _COMMON_OUT,
        ],
    ),
    "thm1-check": (
        _cmd_thm1_check,
        [
            dict(flags=["--matrix"], type=str, required=True),
            dict(flags=["--na"], type=int, required=True),
            dict(flags=["--nb"], type=int, required=True),
            dict(flags=["--tol"], type=float, default=1e-10),
            _COMMON_OUT,
        ],
    ),
    "thm1-factorize": (
        _cmd_thm1_factorize,
        [
            dict(flags=["--matrix"], type=str, required=True),
            dict(flags=["--na"], type=int, required=True),
            dict(flags=["--nb"], type=int, required=True),
            dict(flags=["--tol"], type=float, default=1e-10),
            _COMMON_OUT,
        ],
    ),
    "mpu-pe": (
        _cmd_mpu_pe,
        [
            dict(flags=["--tensor"], type=str, required=True, help="MPU tensor file"),
            dict(flags=["--na"], type=int, required=True),
            dict(flags=["--nb"], type=int, required=True),
            dict(flags=["--mode"], type=str, default="finite",
                 choices=["finite", "thermodynamic"]),
            _COMMON_OUT,
        ],
    ),
    "spinchain-run": (
        _cmd_spinchain_run,
        [
            dict(flags=["--model"], type=str, required=True, choices=["xyz", "tfim"]),
            dict(flags=["--sweep"], type=str, required=True,
                 help="e.g. Jz=0:0.25:1 or h=0,0.5 (param fixed per model)"),
            dict(flags=["--n"], type=int, required=True, help="chain length"),
            dict(flags=["--mode"], type=str, default="exact",
                 choices=["exact", "sampled"]),
            dict(flags=["--dt"], type=float, default=0.2),
            dict(flags=["--threshold"], type=float, default=2e-2,
                 help="long-time stopping threshold on 1.96 sigma/sqrt(N_t)"),
            dict(flags=["--n-min"], type=int, default=25),
            dict(flags=["--max-steps"], type=int, default=20000),
            dict(flags=["--pe-sem-target"], type=float, default=2e-2,
                 help="per-timestep SEM target in sampled mode"),
            dict(flags=["--seed"], type=int, default=None),
            dict(flags=["--workers"], type=int, default=None,
                 help="parallel sweep points (default: available cores, "
                      "at most one per sweep value); "
                      "results are independent of the worker count"),
            _COMMON_OUT,
        ],
    ),
    "selftest": (_cmd_selftest, []),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulient",
        description="Pauli-string operator entanglement and nonlocal magic numerics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, opts) in _SCHEMAS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with defaults for this command")
        for opt in opts:
            kwargs = {k: v for k, v in opt.items() if k not in ("flags", "required")}
            # requiredness is enforced after the config merge
            kwargs.setdefault("default", None)
            sp.add_argument(*opt["flags"], **kwargs)
    return parser


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    _, opts = _SCHEMAS[command]
    keys = {opt["flags"][0].lstrip("-").replace("-", "_") for opt in opts}
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - keys
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = {}
    for opt in opts:
        key = opt["flags"][0].lstrip("-").replace("-", "_")
        flag_val = getattr(args, key, None)
        value = flag_val if flag_val is not None else file_cfg.get(key, opt.get("default"))
        if value is None and opt.get("required"):
            raise ConfigError(f"missing required parameter --{key.replace('_', '-')}")
        if value is not None and "choices" in opt and value not in opt["choices"]:
            raise ConfigError(f"invalid value {value!r} for --{key.replace('_', '-')}")
        cfg[key] = value
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, _ = _SCHEMAS[args.command]
    try:
        cfg = _merge_config(args.command, args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    try:
        return handler(cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (PaulientError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
