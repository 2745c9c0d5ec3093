#!/usr/bin/env python3
"""Offline N = 11 sampled reproduction of the spin-chain experiment.

Runs the XYZ (and optionally TFIM) sweep at 11 sites with per-timestep Pauli
sampling: each timestep draws strings until the estimator's standard error is
below the threshold, and the time series stops under the usual
1.96 sigma / sqrt(N_t) rule.

This is far outside the test budget on a laptop CPU.  Each Pauli sample
works in real arithmetic: the Hermitian U^dag P U takes one 2048x2048 syrk
and one 2048x1024x2048 product, and its Schmidt purity one syrk of the
1024x4096 real coefficient matrix across the 5|6 cut, about 0.43 s per
sample on a 2-core Xeon.  A timestep draws at least 32 samples (the
estimator's minimum) and rarely more: on that machine one XYZ point
(Jz = 0, one worker) drew 5061 samples over 154 steps in 63 s at N = 9 and
5130 over 156 steps in 599 s at N = 10, so an N = 11 point needs about
5 x 10^3 samples, over half an hour.  Run it on a beefy machine or chunk the
sweep values.  Not part of the acceptance gate.

The strings of one timestep do not share the thread pool at this size: one
buffer set per thread is 128 MiB ([Re K, Im K] and the purity scratch) plus
an 8 MiB Gram matrix, past the pool's 20 MiB budget, so each call keeps to
one thread and BLAS keeps its threads.  Use --workers to spread sweep values
over cores instead.

The script is a thin wrapper over `paulient spinchain-run`: it fixes --n 11
and --mode sampled, and the CLI writes the CSV.  Its defaults for the other
flags are the library's own (spinchain.DEFAULT_SEM_THRESHOLD,
entpower.DEFAULT_SEM_TARGET, spinchain.DEFAULT_MAX_STEPS).

Example:
    python scripts/run_n11_sampled.py --model xyz --sweep Jz=0:0.5:1 \
        --seed 7 --out n11_xyz.csv
"""

import argparse
import sys

from paulient.cli import main as cli_main
from paulient.entpower import DEFAULT_SEM_TARGET
from paulient.spinchain import DEFAULT_MAX_STEPS, DEFAULT_SEM_THRESHOLD


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--model", default="xyz", choices=["xyz", "tfim"])
    parser.add_argument("--sweep", default="Jz=0:0.5:1")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default="n11_sampled.csv")
    parser.add_argument("--threshold", type=float, default=DEFAULT_SEM_THRESHOLD)
    parser.add_argument("--pe-sem-target", type=float, default=DEFAULT_SEM_TARGET)
    parser.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    return cli_main([
        "spinchain-run",
        "--model", args.model,
        "--sweep", args.sweep,
        "--n", "11",
        "--mode", "sampled",
        "--seed", str(args.seed),
        "--threshold", str(args.threshold),
        "--pe-sem-target", str(args.pe_sem_target),
        "--max-steps", str(args.max_steps),
        "--workers", str(args.workers),
        "--out", args.out,
    ])


if __name__ == "__main__":
    sys.exit(main())
