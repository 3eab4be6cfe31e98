"""Command-line front end.

Every subcommand reads a JSON experiment config and writes CSV files
under --out.  Exit codes: 0 success, 1 failed oracle validation,
2 bad config, 3 solver non-convergence, 4 not enough data (including
too few regenerations), 5 any other estimation failure (e.g. a state
where every reference density vanishes).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConvergenceError, EstimationError, InsufficientDataError
from .pipeline import (
    ORACLE_Z,
    ExperimentConfig,
    build_references,
    config_from_json,
    oracle_check,
    pilot_weights,
    run_replications,
    run_two_stage,
    sample_stage,
    split_sizes,
    stage2_tours,
    write_d_estimate_csv,
    write_replications_csv,
    write_targets_csv,
    write_tours_csv,
    STAGE1_TAG,
    STAGE2_TAG,
)
from .samplers import save_chain


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genis",
        description="Two-stage normalizing-constant and expectation estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON experiment config")
    common.add_argument("--seed", type=int, default=None, help="override master_seed")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument(
        "--se-method",
        choices=("bm", "rs", "both"),
        default=None,
        help="override the standard-error route",
    )
    common.add_argument(
        "--assume-infinite-stage1",
        action="store_true",
        help="treat stage-1 ratios as exact (drop their variance term)",
    )

    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _load_config(args) -> ExperimentConfig:
    # the overrides enter the JSON object, so they are read and validated
    # with the rest of the config
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.se_method is not None:
        overrides["se_method"] = args.se_method
    if args.assume_infinite_stage1:
        overrides["assume_infinite_stage1"] = True
    return config_from_json(args.config, overrides)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_ratios(est, ref_labels):
    for j in range(est.d_hat.size):
        line = f"d[{j + 2}] ({ref_labels[j + 1]} / {ref_labels[0]}): {est.d_hat[j]:.6g}"
        if est.cov_bm is not None or est.cov_rs is not None:
            line += f"  se {est.se[j]:.3g}"
        print(line)
    print(f"converged in {est.iterations} iterations, n = {est.n_total}")


def _cmd_estimate_d(args) -> int:
    cfg = _load_config(args)
    cfg = replace(cfg, targets=None, stage2=None)
    out = _out_dir(args)
    result = run_two_stage(cfg)
    labels = tuple(r.id for r in build_references(cfg))
    write_d_estimate_csv(out / "d_estimate.csv", result.ratio_estimate, labels)
    _print_ratios(result.ratio_estimate, labels)
    print(f"wrote {out / 'd_estimate.csv'}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    if cfg.targets is None:
        raise ConfigError("estimate needs a targets block; use estimate-d otherwise")
    out = _out_dir(args)
    result = run_two_stage(cfg)
    labels = tuple(r.id for r in build_references(cfg))
    write_d_estimate_csv(out / "d_estimate.csv", result.ratio_estimate, labels)
    write_targets_csv(out / "targets.csv", result.target_results)
    _print_ratios(result.ratio_estimate, labels)
    for row in result.target_results:
        line = f"{row.target_label}: u {row.u_hat:.6g} (se {row.se_u:.3g})"
        if row.eta_hat is not None:
            line += f", mean {row.eta_hat:.6g} (se {row.se_eta:.3g})"
        if row.flags:
            line += f"  [{';'.join(row.flags)}]"
        print(line)
    wrote = ["d_estimate.csv", "targets.csv"]
    tours = stage2_tours(cfg, result)
    if tours is not None:
        write_tours_csv(out / "tours.csv", tours)
        wrote.append("tours.csv")
    print("wrote " + ", ".join(str(out / name) for name in wrote))
    return 0


def _cmd_replicate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    report = run_replications(cfg)
    write_replications_csv(out / "replications.csv", report)
    for size in report.sizes():
        good = report.at_size(size)
        print(f"n = {size}: {len(good)} successful replications")
        if len(good) >= 2:
            emp = report.empirical_asym_var(size)
            med = np.median(report.var_matrix(size), axis=0)
            for j in range(emp.size):
                print(
                    f"  d[{j + 2}]: empirical asymptotic var {emp[j]:.4g}, "
                    f"median estimated {med[j]:.4g}"
                )
            if report.truth is not None and report.truth.d is not None:
                cov = report.coverage_d(size)
                print("  coverage: " + ", ".join(f"{c:.3f}" for c in cov))
    failures = report.failures()
    if failures:
        print(f"{len(failures)} replications failed; see replications.csv")
    print(f"wrote {out / 'replications.csv'}")
    return 0


def _cmd_pilot_weights(args) -> int:
    cfg = _load_config(args)
    sizes, best, diagnostics = pilot_weights(cfg, build_references(cfg))
    print("pilot sizes: " + ", ".join(str(s) for s in sizes))
    print("optimal weights: " + ", ".join(f"{v:.4f}" for v in best))
    finite = {pt: tr for pt, tr in diagnostics.items() if np.isfinite(tr)}
    for pt, tr in sorted(finite.items(), key=lambda kv: kv[1])[:5]:
        print("  trace {:.5g} at ({})".format(tr, ", ".join(f"{v:.2f}" for v in pt)))
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = _load_config(args)
    report = oracle_check(cfg)
    for j, (t, h, z) in enumerate(zip(report.d_true, report.d_hat, report.z_d)):
        print(f"d[{j + 2}]: true {t:.6g}, estimate {h:.6g}, z {z:+.3f}")
    z_eta = report.z_eta
    for i, row in enumerate(report.targets):
        line = (
            f"{row.target_label}: u true {report.u_true[i]:.6g}, "
            f"estimate {row.u_hat:.6g}, z {report.z_u[i]:+.3f}"
        )
        if z_eta is not None:
            line += (
                f"; mean true {report.eta_true[i]:.6g}, "
                f"estimate {row.eta_hat:.6g}, z {z_eta[i]:+.3f}"
            )
        print(line)
    if report.passed:
        print(f"oracle check passed (all |z| <= {ORACLE_Z:g})")
        return 0
    print(f"oracle check FAILED (some |z| > {ORACLE_Z:g})")
    return 1


def _cmd_export_chains(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args) / "chains"
    out.mkdir(parents=True, exist_ok=True)
    references = build_references(cfg)
    sizes1, sizes2 = split_sizes(cfg)
    written = []
    stages = (("stage1", STAGE1_TAG, sizes1), ("stage2", STAGE2_TAG, sizes2))
    for stage, tag, sizes in stages:
        if sizes is None:
            continue
        for chain in sample_stage(cfg, references, sizes, tag).chains:
            written.append(out / f"{stage}_{chain.density_id}.txt")
            save_chain(chain, written[-1])
    for path in written:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "estimate-d": (_cmd_estimate_d, "stage 1 only: ratios of normalizing constants"),
    "estimate": (_cmd_estimate, "both stages: ratios, then the target-family sweep"),
    "replicate": (_cmd_replicate, "repeat the experiment under independent seeds"),
    "pilot-weights": (_cmd_pilot_weights, "grid-search chain weights on a pilot run"),
    "oracle-check": (
        _cmd_oracle_check,
        "validate against exhaustively summable table densities",
    ),
    "export-chains": (_cmd_export_chains, "write the sampled chains as plain text"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return 4
    except EstimationError as exc:
        print(f"estimation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
