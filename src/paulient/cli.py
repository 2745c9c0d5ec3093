"""Command-line entry point.

Every command takes its parameters from flags, from a JSON config file
(--config), or both; flags win on conflict and unknown config keys are
rejected.  Randomized commands require an explicit seed, and every output
file embeds the effective-config digest and the seed in comment lines.

Exit codes: 0 success, 1 computation error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__, acceptance
from ._threads import available_cores
from .entpower import (
    DEFAULT_EXACT_LIMIT,
    DEFAULT_MAX_SAMPLES,
    DEFAULT_MIN_SAMPLES,
    DEFAULT_SEM_TARGET,
    PauliPowerEstimate,
    haar_typical_expansion,
    haar_typical_value,
    local_pauli_magic_bound,
    pauli_entangling_power,
)
from .errors import ConfigError, PaulientError
from .factorization import (
    RANK_TOL,
    check_pauli_product_preserving,
    factorize,
    verify_factorization,
)
from .mpu import pauli_power_mpu
from .operators import Bipartition, haar_random_unitary
from .serialize import load_matrix, load_mpu, matrix_to_text, tableau_to_text
from .spinchain import (
    DEFAULT_DT,
    DEFAULT_MAX_STEPS,
    DEFAULT_N_MIN,
    DEFAULT_SEM_THRESHOLD,
    SWEEP_COLUMNS,
    run_sweep_experiment,
)
from .stats import RunningMean


def _digest(command: str, cfg: dict) -> str:
    """Hash of the settings that determine the results; where they are
    written and how many workers compute them do not change them."""
    payload = {k: v for k, v in cfg.items() if k not in ("out", "workers")}
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
    _write_output(path, lines)


def _write_output(path: str | None, lines: list[str]) -> None:
    """The lines to the --out file, or to stdout when --out is not given.
    An unopenable path (the empty one too) raises OSError: exit code 1."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _bipartition(cfg: dict) -> Bipartition:
    return Bipartition(cfg["na"], cfg["nb"])


def _write_estimate(command: str, cfg: dict, est: PauliPowerEstimate, wall: float) -> None:
    _write_csv(cfg.get("out"), _header(command, cfg),
               ["value", "sem", "n_samples", "converged", "wall_time_s"],
               [[est.value, est.sem, est.n_samples, est.converged, wall]])


def _cmd_pe_exact(cfg: dict) -> int:
    u = load_matrix(cfg["matrix"])
    start = time.perf_counter()
    est = pauli_entangling_power(u, _bipartition(cfg), mode="exact",
                                 exact_limit=cfg["exact_limit"])
    _write_estimate("pe-exact", cfg, est, time.perf_counter() - start)
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
    _write_estimate("pe-sample", cfg, est, time.perf_counter() - start)
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
    closed = haar_typical_value(d, da)  # checks the dimensions before any draw
    bp = Bipartition(da.bit_length() - 1, (d // da).bit_length() - 1)
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
    _write_csv(cfg.get("out"), _header("haar-mc", cfg),
               ["n_unitaries", "mc_mean", "mc_sem", "closed_form", "z_score",
                "wall_time_s"],
               [[acc.n, mean, sem, closed, (mean - closed) / sem, wall]])
    return 0


def _cmd_thm1_check(cfg: dict) -> int:
    u = load_matrix(cfg["matrix"])
    ok, witness = check_pauli_product_preserving(u, _bipartition(cfg), tol=cfg["tol"])
    lines = [f"# {h}" for h in _header("thm1-check", cfg)]
    lines.append(f"product-preserving: {_fmt(ok)}")
    if witness is not None:
        p, lam2 = witness
        lines.append(f"witness: {p}")
        lines.append(f"witness_second_schmidt_coefficient: {lam2:.12g}")
    _write_output(cfg.get("out"), lines)
    return 0


def _cmd_thm1_factorize(cfg: dict) -> int:
    u = load_matrix(cfg["matrix"])
    fac = factorize(u, _bipartition(cfg), tol=cfg["tol"])
    residual = verify_factorization(u, fac)
    lines = [f"# {h}" for h in _header("thm1-factorize", cfg)]
    lines.append(f"residual: {residual:.12g}")
    lines.append(f"global_phase: {fac.global_phase.real:.17g} {fac.global_phase.imag:.17g}")
    for tag, text in (("V", matrix_to_text(fac.v)), ("W", matrix_to_text(fac.w)),
                      ("C", tableau_to_text(fac.c))):
        lines.append(f"[{tag}]")
        lines.append(text.rstrip("\n"))
    _write_output(cfg.get("out"), lines)
    return 0


def _cmd_mpu_pe(cfg: dict) -> int:
    tensor = load_mpu(cfg["tensor"])
    start = time.perf_counter()
    value = pauli_power_mpu(tensor, cfg["na"], cfg["nb"], mode=cfg["mode"])
    wall = time.perf_counter() - start
    _write_csv(cfg.get("out"), _header("mpu-pe", cfg),
               ["chi", "mode", "n_a", "n_b", "value", "wall_time_s"],
               [[tensor.chi, cfg["mode"], cfg["na"], cfg["nb"], value, wall]])
    return 0


MAX_SWEEP_POINTS = 10_000  # longest start:step:stop range a sweep may expand to


def _parse_sweep(expr: str, family: str) -> list[float]:
    """The values of `param=v1,v2,...` or `param=start:step:stop`; a bad value
    or an empty or too long range raises ConfigError before any list is built."""
    name, _, body = expr.partition("=")
    expected = {"xyz": "jz", "tfim": "h"}[family]
    if name.strip().lower().replace("_", "") != expected:
        raise ConfigError(f"sweep parameter for {family} must be {expected!r}")
    is_range = ":" in body
    try:
        parts = [float(p) for p in body.split(":" if is_range else ",")]
    except ValueError:
        parts = []  # a value does not parse
    if not parts or not all(map(math.isfinite, parts)):
        raise ConfigError(f"sweep {body!r} holds a value that is not a finite number")
    if not is_range:
        return parts
    if len(parts) != 3:
        raise ConfigError("range sweep must be start:step:stop")
    start, step, stop = parts
    if step <= 0:
        raise ConfigError("sweep step must be positive")
    last = (stop - start) / step + 1e-9  # index of the last value, before flooring
    if not 0 <= last < MAX_SWEEP_POINTS:
        raise ConfigError(f"range sweep {body!r} must hold 1 to {MAX_SWEEP_POINTS} values")
    return [start + i * step for i in range(int(last) + 1)]


def _cmd_spinchain_run(cfg: dict) -> int:
    values = _parse_sweep(cfg["sweep"], cfg["model"])
    if cfg["mode"] == "sampled" and cfg.get("seed") is None:
        raise ConfigError("sampled mode requires a seed")
    workers = min(available_cores(), len(values)) if cfg["workers"] is None else cfg["workers"]
    rows = run_sweep_experiment(
        cfg["model"], values, cfg["n"], mode=cfg["mode"],
        dt=cfg["dt"], sem_threshold=cfg["threshold"],
        n_min=cfg["n_min"], max_steps=cfg["max_steps"], seed=cfg.get("seed"),
        pe_sem_target=cfg["pe_sem_target"], workers=workers,
    )
    _write_csv(cfg.get("out"), _header("spinchain-run", cfg), SWEEP_COLUMNS,
               [dataclasses.astuple(r) for r in rows])
    bad = [r for r in rows if not r.converged]
    if bad:
        sys.stderr.write(
            f"warning: {len(bad)} sweep point(s) hit max-steps before the "
            "stopping rule; partial rows written\n"
        )
    return 0


def _cmd_selftest(cfg: dict) -> int:
    """One PASS/FAIL line per acceptance criterion; one that raises fails."""
    failed_any = False
    for num, (label, criterion) in acceptance.CRITERIA.items():
        started = time.perf_counter()
        try:
            failed = acceptance.failures(criterion())
        except Exception as exc:  # noqa: BLE001 - report, do not crash the table
            failed = [f"raised {exc!r}"]
        failed_any = failed_any or bool(failed)
        detail = " - " + "; ".join(failed) if failed else ""
        print(f"criterion {num} ({label}): {'FAIL' if failed else 'PASS'} "
              f"[{time.perf_counter() - started:.2f}s]{detail}")
    return 1 if failed_any else 0


_COMMON_OUT = dict(flags=["--out"], type=str, default=None,
                   help="output file (stdout when omitted)")
_MATRIX_OPTS = [
    dict(flags=["--matrix"], type=str, required=True, help="matrix file"),
    dict(flags=["--na"], type=int, required=True, help="qubits in block A"),
    dict(flags=["--nb"], type=int, required=True, help="qubits in block B"),
]
_TOL_OPT = dict(flags=["--tol"], type=float, default=RANK_TOL)

_SCHEMAS: dict[str, tuple] = {
    "pe-exact": (
        _cmd_pe_exact,
        [
            *_MATRIX_OPTS,
            dict(flags=["--exact-limit"], type=int, default=DEFAULT_EXACT_LIMIT,
                 help="largest qubit count for exact enumeration"),
            _COMMON_OUT,
        ],
    ),
    "pe-sample": (
        _cmd_pe_sample,
        [
            *_MATRIX_OPTS,
            dict(flags=["--seed"], type=int, required=True, help="RNG seed"),
            dict(flags=["--sem-target"], type=float, default=DEFAULT_SEM_TARGET,
                 help="stop when the standard error of the mean is below this"),
            dict(flags=["--count"], type=int, default=None,
                 help="fixed sample count (overrides the SEM rule)"),
            dict(flags=["--min-samples"], type=int, default=DEFAULT_MIN_SAMPLES),
            dict(flags=["--max-samples"], type=int, default=DEFAULT_MAX_SAMPLES),
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
            *_MATRIX_OPTS,
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
            *_MATRIX_OPTS,
            _TOL_OPT,
            _COMMON_OUT,
        ],
    ),
    "thm1-factorize": (
        _cmd_thm1_factorize,
        [
            *_MATRIX_OPTS,
            _TOL_OPT,
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
            dict(flags=["--dt"], type=float, default=DEFAULT_DT),
            dict(flags=["--threshold"], type=float, default=DEFAULT_SEM_THRESHOLD,
                 help="long-time stopping threshold on 1.96 sigma/sqrt(N_t)"),
            dict(flags=["--n-min"], type=int, default=DEFAULT_N_MIN),
            dict(flags=["--max-steps"], type=int, default=DEFAULT_MAX_STEPS),
            dict(flags=["--pe-sem-target"], type=float, default=DEFAULT_SEM_TARGET,
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
            # None marks a flag not given; defaults and requiredness are
            # applied after the config merge
            kwargs["default"] = None
            sp.add_argument(*opt["flags"], **kwargs)
    return parser


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    """Each flag given, else its --config value, else its default.  A config
    value must have its flag's type: int flags take integers, float flags
    integers or floats, str flags strings.  The file must hold a JSON object."""
    _, opts = _SCHEMAS[command]
    by_key = {opt["flags"][0].lstrip("-").replace("-", "_"): opt for opt in opts}
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(by_key)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = {}
    for key, opt in by_key.items():
        value, kind = getattr(args, key), opt["type"]
        if value is None and file_cfg.get(key) is not None:
            value, allowed = file_cfg[key], (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ConfigError(f"config field {key!r} must be {kind.__name__}, got {value!r}")
            value = kind(value)
        value = opt.get("default") if value is None else value
        if value is None and opt.get("required"):
            raise ConfigError(f"missing required parameter --{key.replace('_', '-')}")
        if value is not None and "choices" in opt and value not in opt["choices"]:
            raise ConfigError(f"invalid value {value!r} for --{key.replace('_', '-')}")
        cfg[key] = value
    return cfg


_FLOAT_FLAGS = {flag for _, opts in _SCHEMAS.values() for opt in opts
                if opt["type"] is float for flag in opt["flags"]}


def _join_float_values(argv: list[str]) -> list[str]:
    """`--tol -1e-3` as `--tol=-1e-3` for every float flag.  argparse takes a
    word that starts with '-' and is not a plain negative integer or decimal,
    such as -1e-3 or -inf, for a flag, and reports the value of the flag
    before it as missing; joined, the value reaches its own check."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _FLOAT_FLAGS and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
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
