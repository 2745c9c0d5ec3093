#!/usr/bin/env python3
"""Offline N = 11 sampled reproduction of the spin-chain experiment.

Runs the XYZ (and optionally TFIM) sweep at 11 sites with per-timestep Pauli
sampling: each timestep draws strings until the estimator's standard error is
below the threshold, and the time series stops under the usual
1.96 sigma / sqrt(N_t) rule.

This is far outside the test budget on a laptop CPU.  Each Pauli sample
works in real arithmetic on the two parity-sector blocks of the XYZ U_t
(1024 x 1024 each at N = 11): U^dag P U is two half-size syrk blocks for an
even x, or two 1024 x 2048 x 1024 products for an odd one, and its Schmidt
purity across the 5|6 cut squares only the nonzero half of the real
coefficient matrix, as two Gram blocks.  One string of an XYZ U_t (Jz = 0.5,
t = 1) took 0.14-0.25 s, median 0.18 s, on a 2-core Xeon with two
BLAS threads.  A timestep draws at least 32 samples (the estimator's
minimum) and rarely more: one XYZ point (Jz = 0, one worker) drew 5061
samples over 154 steps at N = 9 and 5130 over 156 steps at N = 10, so an
N = 11 point needs about 5 x 10^3 samples, about a quarter of an hour of
strings.  Run it on a beefy machine or chunk the sweep values.  Not part of
the acceptance gate.

The strings of one timestep do not share the thread pool at this size: one
buffer set per thread is 58 MiB ([Re K, Im K] of the two sector blocks, the
purity scratch and a 2 MiB Gram matrix), past the pool's 20 MiB budget, so
each call keeps to one thread and BLAS keeps its threads.  Use --workers to
spread sweep values over cores instead.

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
