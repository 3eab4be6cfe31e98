"""The three benchmark workloads: generated configs, one op each, output
checks, and a traced replica of each op.

Importing this module imports genis, so the import belongs to the
benchmark's set-up time.  The traced replicas call the same public genis
functions in the same order as ``run_two_stage`` and the CLI's
``estimate`` command, with a span around each call into a genis module.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import random
import time
from pathlib import Path

import numpy as np

from genis import cli
from genis.densities import TargetFamily
from genis.importance import estimate_family
from genis.pipeline import (
    PILOT_TAG,
    STAGE1_TAG,
    STAGE2_TAG,
    TwoStageResult,
    build_family,
    build_integrand,
    build_references,
    config_from_dict,
    config_from_json,
    run_two_stage,
    sample_stage,
    split_sizes,
    stage2_tours,
    write_d_estimate_csv,
    write_targets_csv,
    write_tours_csv,
)
from genis.regen import tour_boundaries
from genis.reverse_logistic import (
    StageWeights,
    estimate_ratios,
    fit_reverse_logistic,
    info_matrix,
    log_density_matrices,
    score_long_run_cov,
)
from genis.weights import naive_weights, pilot_optimal_weights

Z_MAX = 5.0  # |estimate - truth| / se above this fails an output check
SWEEP_TARGETS = 200
CSV_NAMES = ("d_estimate.csv", "targets.csv", "tours.csv")

T5_IID_MU1 = {"family": "t", "sampler": "iid", "df": 5.0, "mu": 1.0}
T5_IMH_MU0 = {
    "family": "t",
    "sampler": "imh",
    "df": 5.0,
    "mu": 0.0,
    "proposal_df": 5.0,
    "proposal_mu": 1.0,
    "with_regen": True,
}


class Tracer:
    """In-memory spans: name, start, end (perf_counter seconds) and the
    index of the enclosing span, or -1 for a root."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": 0.0, "end": 0.0,
               "parent": self._open[-1] if self._open else -1}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def child_ms(self, root: int) -> dict[str, float]:
        """Summed duration of the direct children of span ``root``, by name."""
        out: dict[str, float] = {}
        for rec in self.spans[root + 1:]:
            if rec["parent"] == root:
                out[rec["name"]] = out.get(rec["name"], 0.0) + 1e3 * (rec["end"] - rec["start"])
        return out

    def duration_ms(self, index: int) -> float:
        rec = self.spans[index]
        return 1e3 * (rec["end"] - rec["start"])


class DensityCounter:
    """Counts log_eval calls and evaluated points of the densities it wraps."""

    def __init__(self):
        self.calls = 0
        self.points = 0

    def wrap(self, density):
        inner = density.log_eval

        def log_eval(x):
            self.calls += 1
            self.points += int(np.size(x))
            return inner(x)

        return dataclasses.replace(density, log_eval=log_eval)


def _bits(a) -> bytes:
    return b"" if a is None else np.ascontiguousarray(a, dtype=float).tobytes()


def ratio_fingerprint(result: TwoStageResult) -> tuple:
    """Everything a caller reads from a stage-1 estimate, as raw bytes."""
    est = result.ratio_estimate
    rows = ()
    if result.target_results is not None:
        rows = tuple(repr(dataclasses.astuple(r)) for r in result.target_results)
    return (_bits(est.d_hat), _bits(est.zeta_hat), _bits(est.a), _bits(est.cov_bm),
            _bits(est.cov_rs), est.iterations, repr(est.grad_norm), rows)


def _z_ok(estimate: float, truth: float, se: float) -> bool:
    return math.isfinite(estimate) and se > 0 and abs(estimate - truth) <= Z_MAX * se


def _traced_two_stage(cfg, rep_index: int, tr: Tracer, counter: DensityCounter):
    """``run_two_stage`` call by call, with spans and counted densities.

    Returns the result and, for the pilot weights, the grid diagnostics.
    """
    with tr.span("pipeline.config"):
        references = [counter.wrap(r) for r in build_references(cfg)]
        sizes1, sizes2 = split_sizes(cfg)
    with tr.span("samplers.stage1"):
        samples1 = sample_stage(cfg, references, sizes1, STAGE1_TAG, rep_index)
    wc = cfg.stage1.weights
    weights = None
    grid = None
    if wc.kind == "pilot":
        with tr.span("samplers.pilot"):
            pilot = sample_stage(cfg, references, wc.pilot_sizes, PILOT_TAG, rep_index)
        with tr.span("weights.pilot_grid"):
            best, grid = pilot_optimal_weights(
                pilot, references, step=wc.step, bm_spec=cfg.bm_spec
            )
        weights = StageWeights(best)
    elif wc.kind != "naive":
        raise ValueError(f"the traced op does not replay {wc.kind!r} stage-1 weights")
    with tr.span("reverse_logistic.estimate_ratios"):
        ratio_est = estimate_ratios(
            samples1, references, weights=weights,
            bm_spec=cfg.bm_spec, se_method=cfg.se_method,
        )
    if cfg.targets is None:
        return TwoStageResult(ratio_est, None, samples1, None, 0.0), grid

    with tr.span("samplers.stage2"):
        samples2 = sample_stage(cfg, references, sizes2, STAGE2_TAG, rep_index)
    with tr.span("pipeline.config"):
        family = TargetFamily(tuple(counter.wrap(t) for t in build_family(cfg).targets))
        f = build_integrand(cfg)
    if cfg.stage2.weights.kind != "naive":
        raise ValueError("the traced op replays naive stage-2 weights only")
    q = 0.0 if cfg.assume_infinite_stage1 else samples2.n_total / ratio_est.n_total
    with tr.span("importance.estimate_family"):
        results = estimate_family(
            samples2, family, references, ratio_est.d_hat, ratio_est.cov, q,
            f=f, a=naive_weights(samples2.n_per_chain), a_per_target=None,
            bm_spec=cfg.bm_spec, tail_guard=cfg.tail_guard,
        )
    return TwoStageResult(ratio_est, tuple(results), samples1, samples2, q), grid


def _sample_counts(result: TwoStageResult, pilot_draws: int) -> dict[str, float]:
    draws = pilot_draws
    tours = 0
    moves = 0
    steps = 0
    for samples in (result.stage1_samples, result.stage2_samples):
        if samples is None:
            continue
        for chain in samples.chains:
            draws += chain.n
            if chain.kind == "markov":
                moves += int(np.count_nonzero(np.diff(chain.states)))
                steps += chain.n - 1
                if chain.regen_marks is not None:
                    tours += tour_boundaries(chain).size - 1
    return {
        "samplers.draws": draws,
        "samplers.regen_tours": tours,
        "samplers.imh_move_ratio": moves / steps if steps else 0.0,
    }


def layer_metrics(tr: Tracer, op_span: int, result: TwoStageResult, grid,
                  counter: DensityCounter, pilot_draws: int) -> dict[str, float]:
    """Per-layer figures of one traced op, from its spans and counters."""
    child = tr.child_ms(op_span)
    op_ms = tr.duration_ms(op_span)
    est = result.ratio_estimate
    rows = result.target_results or ()
    family_ms = child.get("importance.estimate_family", 0.0)
    out = {
        "pipeline.config_ms": child.get("pipeline.config", 0.0),
        "pipeline.op_self_ms": op_ms - sum(child.values()),
        "samplers.stage1_ms": child.get("samplers.stage1", 0.0),
        "samplers.stage2_ms": child.get("samplers.stage2", 0.0),
        "samplers.pilot_ms": child.get("samplers.pilot", 0.0),
        "reverse_logistic.estimate_ratios_ms": child.get("reverse_logistic.estimate_ratios", 0.0),
        "reverse_logistic.newton_iterations": est.iterations,
        "weights.pilot_grid_ms": child.get("weights.pilot_grid", 0.0),
        "weights.grid_points": len(grid) if grid else 0,
        "weights.grid_ok_ratio": (
            sum(math.isfinite(v) for v in grid.values()) / len(grid) if grid else 0.0
        ),
        "importance.estimate_family_ms": family_ms,
        "importance.per_target_us": 1e3 * family_ms / len(rows) if rows else 0.0,
        "importance.targets_failed": sum(
            any(f.startswith("error:") for f in r.flags) for r in rows
        ),
        "densities.log_density_calls": counter.calls,
        "densities.log_density_points": counter.points,
        "regen.collect_tours_ms": child.get("regen.collect_tours", 0.0),
        "cli.write_csv_ms": child.get("cli.write_csv", 0.0),
    }
    out.update(_sample_counts(result, pilot_draws))
    return out


def probe_metrics(tr: Tracer, cfg, result: TwoStageResult) -> dict[str, float]:
    """Time the stage-1 public wrappers again on the op's own stage-1 draws.

    Every wrapper rebuilds the log-density matrices, so each ``*_self_ms``
    is the wrapper's time minus that of building the matrices alone.
    """
    samples = result.stage1_samples
    est = result.ratio_estimate
    references = build_references(cfg)
    weights = StageWeights(est.a)
    with tr.span("probe"):
        root = len(tr.spans) - 1
        with tr.span("mats"):
            log_density_matrices(samples, references)
        with tr.span("fit"):
            fit_reverse_logistic(samples, references, weights=weights)
        with tr.span("info"):
            info_matrix(samples, references, est.zeta_hat, est.a)
        with tr.span("omega_bm"):
            score_long_run_cov(samples, references, est.zeta_hat, est.a, cfg.bm_spec, "bm")
        with tr.span("omega_rs"):
            score_long_run_cov(samples, references, est.zeta_hat, est.a, cfg.bm_spec, "rs")
    ms = tr.child_ms(root)
    mats = ms["mats"]
    return {
        "reverse_logistic.log_density_matrices_ms": mats,
        "reverse_logistic.fit_self_ms": ms["fit"] - mats,
        "reverse_logistic.info_self_ms": ms["info"] - mats,
        "reverse_logistic.omega_bm_self_ms": ms["omega_bm"] - mats,
        "reverse_logistic.omega_rs_self_ms": ms["omega_rs"] - mats,
    }


class _TwoStageWorkload:
    """An op is ``run_two_stage(cfg, rep_index=i)`` on a generated config."""

    def __init__(self, seed: int, workdir: Path):
        master_seed = random.Random(f"{self.name}:{seed}").randrange(1, 2**31)
        self.cfg = config_from_dict(self.raw_config(master_seed))

    def op(self, i: int):
        return run_two_stage(self.cfg, rep_index=i)

    def output(self, raw):
        return raw

    def fingerprint(self, out) -> tuple:
        return ratio_fingerprint(out)

    def traced_op(self, i: int, tr: Tracer):
        counter = DensityCounter()
        with tr.span("op"):
            op_span = len(tr.spans) - 1
            result, grid = _traced_two_stage(self.cfg, i, tr, counter)
        pilot = self.cfg.stage1.weights.pilot_sizes
        layers = layer_metrics(tr, op_span, result, grid, counter,
                               sum(pilot) if pilot else 0)
        layers["cli.csv_bytes"] = 0
        layers.update(probe_metrics(tr, self.cfg, result))
        return result, tr.duration_ms(op_span), layers


class ToyStage1(_TwoStageWorkload):
    name = "toy_stage1"

    @staticmethod
    def raw_config(master_seed: int) -> dict:
        return {
            "references": [T5_IID_MU1, T5_IMH_MU0],
            "stage1": {"sizes": [100000, 100000]},
            "se_method": "both",
            "master_seed": master_seed,
        }

    def check(self, result) -> list[str]:
        est = result.ratio_estimate
        d = float(est.d_hat[0])
        se_bm = float(np.sqrt(est.cov_bm[0, 0] / est.n_total))
        se_rs = float(est.se_rs[0])
        bad = []
        if not (_z_ok(d, 1.0, se_bm) and _z_ok(d, 1.0, se_rs)):
            bad.append(f"d_hat {d!r} not within {Z_MAX} se of 1 (bm {se_bm!r}, rs {se_rs!r})")
        elif not 2 / 3 <= se_rs / se_bm <= 3 / 2:
            bad.append(f"se_rs / se_bm = {se_rs / se_bm!r} outside [2/3, 3/2]")
        return bad


class PilotGrid(_TwoStageWorkload):
    name = "pilot_grid"
    STEP = 0.1

    @classmethod
    def raw_config(cls, master_seed: int) -> dict:
        return {
            "references": [
                {"family": "t", "sampler": "iid", "df": 5.0, "mu": mu}
                for mu in (0.0, 1.0, 2.0)
            ],
            "stage1": {
                "sizes": [10000, 10000, 10000],
                "weights": {"kind": "pilot", "step": cls.STEP,
                            "pilot_sizes": [2000, 2000, 2000]},
            },
            "master_seed": master_seed,
        }

    def check(self, result) -> list[str]:
        est = result.ratio_estimate
        a = est.a
        grid_units = a / self.STEP
        bad = []
        if abs(float(a.sum()) - 1.0) > 1e-12:
            bad.append(f"chosen weights sum to {float(a.sum())!r}")
        if np.any(np.abs(grid_units - np.round(grid_units)) > 1e-9):
            bad.append(f"chosen weights {a.tolist()} are off the step-{self.STEP} grid")
        for j, (d, se) in enumerate(zip(est.d_hat, est.se)):
            if not _z_ok(float(d), 1.0, float(se)):
                bad.append(f"d[{j + 2}] = {float(d)!r} not within {Z_MAX} se {float(se)!r} of 1")
        return bad


@dataclasses.dataclass
class CliRun:
    code: int
    stdout: str
    files: dict


class TargetSweep:
    """An op is ``genis estimate`` through ``cli.main`` on a generated config."""

    name = "target_sweep"
    MU_GRID = tuple(-1.0 + 3.0 * j / (SWEEP_TARGETS - 1) for j in range(SWEEP_TARGETS))

    def __init__(self, seed: int, workdir: Path):
        self.base_seed = random.Random(f"{self.name}:{seed}").randrange(1, 2**31)
        raw = {
            "references": [T5_IID_MU1, T5_IMH_MU0],
            "stage1": {"sizes": [10000, 10000]},
            "stage2": {"sizes": [10000, 10000]},
            "targets": {"family": "t", "df": 5.0, "mu_grid": list(self.MU_GRID)},
            "integrand": "x",
            "se_method": "both",
            "master_seed": self.base_seed,
        }
        self.config_path = workdir / "target_sweep.json"
        self.config_path.write_text(json.dumps(raw))
        # set-up parses the config once; each op parses it again, as the CLI does
        config_from_json(self.config_path)
        self.out = workdir / "out"

    def _seed(self, i: int) -> int:
        return self.base_seed + i

    def op(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["estimate", "--config", str(self.config_path),
                             "--seed", str(self._seed(i)), "--out", str(self.out)])
        return code, buf.getvalue()

    def output(self, raw) -> CliRun:
        code, stdout = raw
        files = {}
        for name in CSV_NAMES:
            path = self.out / name
            if path.exists():
                files[name] = path.read_bytes()
                path.unlink()
        return CliRun(code, stdout, files)

    def fingerprint(self, run: CliRun) -> tuple:
        return (run.code, run.stdout, tuple(sorted(run.files.items())))

    def check(self, run: CliRun) -> list[str]:
        if run.code != 0:
            return [f"exit code {run.code}"]
        if "targets.csv" not in run.files:
            return ["targets.csv was not written"]
        rows = list(csv.DictReader(io.StringIO(run.files["targets.csv"].decode())))
        if len(rows) != SWEEP_TARGETS:
            return [f"{len(rows)} rows in targets.csv, expected {SWEEP_TARGETS}"]
        bad = []
        for mu, row in zip(self.MU_GRID, rows):
            if "error:" in row["flags"]:
                bad.append(f"{row['target_label']}: flags {row['flags']}")
            elif not _z_ok(float(row["u_hat"]), 1.0, float(row["se_u"])):
                bad.append(f"{row['target_label']}: u_hat {row['u_hat']} se {row['se_u']}")
            elif not _z_ok(float(row["eta_hat"]), mu, float(row["se_eta"])):
                bad.append(f"{row['target_label']}: eta_hat {row['eta_hat']} se {row['se_eta']}")
        return bad

    def traced_op(self, i: int, tr: Tracer):
        """``cli._cmd_estimate`` call by call; prints what it prints."""
        counter = DensityCounter()
        buf = io.StringIO()
        with tr.span("op"), contextlib.redirect_stdout(buf):
            op_span = len(tr.spans) - 1
            with tr.span("pipeline.config"):
                cfg = dataclasses.replace(config_from_json(self.config_path),
                                          master_seed=self._seed(i))
            self.out.mkdir(parents=True, exist_ok=True)
            result, _ = _traced_two_stage(cfg, 0, tr, counter)
            with tr.span("pipeline.config"):
                labels = tuple(r.id for r in build_references(cfg))
            with tr.span("cli.write_csv"):
                write_d_estimate_csv(self.out / "d_estimate.csv", result.ratio_estimate, labels)
                write_targets_csv(self.out / "targets.csv", result.target_results)
            cli._print_ratios(result.ratio_estimate, labels)
            for row in result.target_results:  # the row loop inline in _cmd_estimate
                line = f"{row.target_label}: u {row.u_hat:.6g} (se {row.se_u:.3g})"
                if row.eta_hat is not None:
                    line += f", mean {row.eta_hat:.6g} (se {row.se_eta:.3g})"
                if row.flags:
                    line += f"  [{';'.join(row.flags)}]"
                print(line)
            wrote = ["d_estimate.csv", "targets.csv"]
            with tr.span("regen.collect_tours"):
                tours = stage2_tours(cfg, result)
            if tours is not None:
                with tr.span("cli.write_csv"):
                    write_tours_csv(self.out / "tours.csv", tours)
                wrote.append("tours.csv")
            print("wrote " + ", ".join(str(self.out / n) for n in wrote))
        run = self.output((0, buf.getvalue()))
        layers = layer_metrics(tr, op_span, result, None, counter, 0)
        layers["cli.csv_bytes"] = sum(len(b) for b in run.files.values())
        layers.update(probe_metrics(tr, cfg, result))
        return run, tr.duration_ms(op_span), layers


WORKLOADS = {w.name: w for w in (ToyStage1, TargetSweep, PilotGrid)}
