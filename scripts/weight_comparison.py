#!/usr/bin/env python3
"""Chain-weight comparison on the shifted/centered t pair.

Replicates the stage-1 ratio estimate under pooled (sample-share) weights
and under the tilted weights favoring the iid chain, then compares the
median estimated asymptotic variances and the empirical variance of the
point estimates.  The tilted weights should come out clearly ahead.

Usage: python3 scripts/weight_comparison.py [--reps R] [--size N] [--seed S] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from genis.pipeline import config_from_dict, run_replications, write_replications_csv

TILTED = (0.82, 0.18)


def build_config(seed: int, size: int, reps: int, weights) -> dict:
    raw = {
        "references": [
            {"family": "t", "sampler": "iid", "df": 5.0, "mu": 1.0},
            {
                "family": "t",
                "sampler": "imh",
                "df": 5.0,
                "mu": 0.0,
                "proposal_df": 5.0,
                "proposal_mu": 1.0,
                "with_regen": True,
            },
        ],
        "stage1": {"sizes": [size, size]},
        "replications": reps,
        "master_seed": seed,
        "truth": {"d": [1.0]},
    }
    if weights is not None:
        raw["stage1"]["weights"] = {"kind": "fixed", "values": list(weights)}
    return raw


def summarize(name, report, n_total):
    v_bm = report.var_matrix(n_total, "bm")[:, 0]
    emp = report.empirical_asym_var(n_total)[0]
    cov = report.coverage(n_total)["d[2]"]
    print(
        f"{name:<8} median asym var {np.median(v_bm):.4f}  "
        f"empirical {emp:.4f}  coverage {cov:.3f}"
    )
    return float(np.median(v_bm))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--size", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="out/weights")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_total = 2 * args.size

    naive = run_replications(
        config_from_dict(build_config(args.seed, args.size, args.reps, None))
    )
    tilted = run_replications(
        config_from_dict(build_config(args.seed, args.size, args.reps, TILTED))
    )

    print(f"{args.reps} replications at {args.size} draws per chain")
    v_naive = summarize("pooled", naive, n_total)
    v_tilted = summarize("tilted", tilted, n_total)
    print(f"pooled / tilted variance ratio: {v_naive / v_tilted:.2f}")

    write_replications_csv(out / "replications_pooled.csv", naive)
    write_replications_csv(out / "replications_tilted.csv", tilted)
    print(f"wrote CSVs under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
