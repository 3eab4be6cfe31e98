"""End-to-end two-stage experiments driven by declarative configs.

A config names k reference densities with their samplers, stage sizes,
weight strategies, a target family with an optional integrand, and
standard-error options.  The driver draws stage-1 chains, estimates the
normalizing-constant ratios with their asymptotic covariance, draws
independent stage-2 chains, and sweeps the target family.  Seeds are
derived from (master seed, stage, chain, replication) indices, so runs
are deterministic regardless of execution order.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .batch_means import DEFAULT_BM_SPEC, BatchMeansSpec
from .densities import (
    Integrand,
    TargetFamily,
    UnnormalizedDensity,
    discrete_table_density,
    identity_integrand,
    t_density,
)
from .errors import ConfigError, EstimationError
from .importance import DEFAULT_TAIL_GUARD, TargetResult, estimate_family
from .regen import collect_tours
from .reverse_logistic import (
    RatioEstimate,
    StageWeights,
    estimate_ratios,
)
from .samplers import (
    ChainSample,
    SampleSet,
    derive_seed,
    discrete_mh,
    sample_t_iid,
    sample_t_imh,
)
from .weights import (
    DEFAULT_STEP,
    effective_sample_size,
    ess_inv_dist_weights,
    inv_dist_weights,
    naive_weights,
    pilot_optimal_weights,
    simplex_grid,
)

Z_95 = 1.959963984540054  # standard normal 0.975 quantile

STAGE1_TAG = 1
STAGE2_TAG = 2
PILOT_TAG = 3

DEFAULT_SPLIT_FRACTION = 0.8  # stage-1 share when one budget covers both stages


@dataclass(frozen=True)
class ReferenceConfig:
    """One reference density plus the sampler that targets it."""

    family: str  # "t" or "table"
    sampler: str  # "iid", "imh" (t only), or "mh" (table only)
    df: float | None = None
    mu: float | None = None
    proposal_df: float | None = None
    proposal_mu: float | None = None
    table: tuple[float, ...] | None = None
    with_regen: bool = False
    splitting_const: float | None = None
    label: str | None = None


@dataclass(frozen=True)
class WeightConfig:
    kind: str = "naive"  # naive | fixed | inv_dist | ess | pilot
    values: tuple[float, ...] | None = None
    step: float = DEFAULT_STEP
    pilot_sizes: tuple[int, ...] | None = None


@dataclass(frozen=True)
class StageConfig:
    sizes: tuple[int, ...]
    weights: WeightConfig = field(default_factory=WeightConfig)


@dataclass(frozen=True)
class TargetConfig:
    family: str = "t"
    df: float = 5.0
    mu_grid: tuple[float, ...] = ()
    tables: tuple[tuple[float, ...], ...] = ()


@dataclass(frozen=True)
class TruthConfig:
    """Known true values, used for coverage bookkeeping in replications."""

    d: tuple[float, ...] | None = None
    u: tuple[float, ...] | None = None
    eta: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    references: tuple[ReferenceConfig, ...]
    stage1: StageConfig
    stage2: StageConfig | None = None
    targets: TargetConfig | None = None
    integrand: str | None = "x"
    master_seed: int = 0
    burn_in: int = 0
    thinning: int = 1
    bm_nu: float = DEFAULT_BM_SPEC.nu
    bm_explicit_b: int | None = None
    se_method: str = "bm"
    assume_infinite_stage1: bool = False
    replications: int = 1
    size_grid: tuple[int, ...] = ()
    workers: int = 1
    tail_guard: float = DEFAULT_TAIL_GUARD
    truth: TruthConfig | None = None

    @property
    def bm_spec(self) -> BatchMeansSpec:
        return BatchMeansSpec(nu=self.bm_nu, explicit_b=self.bm_explicit_b)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _pick(d: dict, allowed: dict, where: str) -> dict:
    unknown = set(d) - set(allowed)
    _require(not unknown, f"{where}: unknown keys {sorted(unknown)}")
    out = dict(allowed)
    out.update(d)
    return out


def _defaults(cls) -> dict:
    """Field defaults of a config dataclass; a field without one maps to None."""
    return {
        f.name: None if f.default is MISSING else f.default for f in fields(cls)
    }


def _tuple_or_none(v, cast=float):
    if v is None:
        return None
    return tuple(cast(x) for x in v)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a JSON-style dict."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    top = _pick(raw, _defaults(ExperimentConfig), "config")
    _require(isinstance(top["references"], list) and top["references"],
             "config: references must be a nonempty list")
    refs = tuple(_reference_from_dict(r, i) for i, r in enumerate(top["references"]))
    _require(top["stage1"] is not None, "config: stage1 is required")
    stage1 = _stage_from_dict(top["stage1"], len(refs), "stage1")
    stage2 = (
        None
        if top["stage2"] is None
        else _stage_from_dict(top["stage2"], len(refs), "stage2")
    )
    targets = None if top["targets"] is None else _targets_from_dict(top["targets"])
    truth = None if top["truth"] is None else _truth_from_dict(top["truth"])
    integrand = top["integrand"]
    _require(
        integrand in (None, "x"),
        "config: integrand must be 'x' or null",
    )
    se_method = top["se_method"]
    _require(se_method in ("bm", "rs", "both"), "config: bad se_method")
    cfg = ExperimentConfig(
        references=refs,
        stage1=stage1,
        stage2=stage2,
        targets=targets,
        integrand=integrand,
        master_seed=int(top["master_seed"]),
        burn_in=int(top["burn_in"]),
        thinning=int(top["thinning"]),
        bm_nu=float(top["bm_nu"]),
        bm_explicit_b=None
        if top["bm_explicit_b"] is None
        else int(top["bm_explicit_b"]),
        se_method=se_method,
        assume_infinite_stage1=bool(top["assume_infinite_stage1"]),
        replications=int(top["replications"]),
        size_grid=tuple(int(s) for s in top["size_grid"]),
        workers=int(top["workers"]),
        tail_guard=float(top["tail_guard"]),
        truth=truth,
    )
    _validate(cfg)
    return cfg


def _reference_from_dict(raw: dict, index: int) -> ReferenceConfig:
    where = f"references[{index}]"
    _require(isinstance(raw, dict), f"{where}: must be an object")
    r = _pick(raw, _defaults(ReferenceConfig), where)
    _require(r["family"] in ("t", "table"), f"{where}: family must be 't' or 'table'")
    _require(r["sampler"] in ("iid", "imh", "mh"), f"{where}: bad sampler")
    if r["family"] == "t":
        _require(r["df"] is not None and r["mu"] is not None,
                 f"{where}: t reference needs df and mu")
        _require(r["sampler"] in ("iid", "imh"), f"{where}: t reference uses iid or imh")
        if r["sampler"] == "imh":
            _require(r["proposal_mu"] is not None,
                     f"{where}: imh sampler needs proposal_mu")
    else:
        _require(r["table"] is not None, f"{where}: table reference needs a table")
        _require(r["sampler"] == "mh", f"{where}: table reference uses the mh sampler")
    return ReferenceConfig(
        family=r["family"],
        sampler=r["sampler"],
        df=None if r["df"] is None else float(r["df"]),
        mu=None if r["mu"] is None else float(r["mu"]),
        proposal_df=None if r["proposal_df"] is None else float(r["proposal_df"]),
        proposal_mu=None if r["proposal_mu"] is None else float(r["proposal_mu"]),
        table=_tuple_or_none(r["table"]),
        with_regen=bool(r["with_regen"]),
        splitting_const=None
        if r["splitting_const"] is None
        else float(r["splitting_const"]),
        label=r["label"],
    )


def _stage_from_dict(raw: dict, k: int, where: str) -> StageConfig:
    _require(isinstance(raw, dict), f"{where}: must be an object")
    s = _pick(raw, _defaults(StageConfig), where)
    _require(isinstance(s["sizes"], list) and len(s["sizes"]) == k,
             f"{where}: sizes must list one size per reference")
    sizes = tuple(int(x) for x in s["sizes"])
    _require(all(x > 0 for x in sizes), f"{where}: sizes must be positive")
    weights = WeightConfig()
    if s["weights"] is not None:
        w = _pick(s["weights"], _defaults(WeightConfig), f"{where}.weights")
        _require(w["kind"] in ("naive", "fixed", "inv_dist", "ess", "pilot"),
                 f"{where}.weights: bad kind")
        values = _tuple_or_none(w["values"])
        if w["kind"] == "fixed":
            _require(values is not None and len(values) == k,
                     f"{where}.weights: fixed kind needs one value per reference")
            _require(all(v > 0 and math.isfinite(v) for v in values),
                     f"{where}.weights: fixed values must be positive and finite")
        weights = WeightConfig(
            kind=w["kind"],
            values=values,
            step=float(w["step"]),
            pilot_sizes=_tuple_or_none(w["pilot_sizes"], int),
        )
    return StageConfig(sizes=sizes, weights=weights)


def _targets_from_dict(raw: dict) -> TargetConfig:
    _require(isinstance(raw, dict), "targets: must be an object")
    t = _pick(raw, _defaults(TargetConfig), "targets")
    _require(t["family"] in ("t", "table"), "targets: family must be 't' or 'table'")
    cfg = TargetConfig(
        family=t["family"],
        df=float(t["df"]),
        mu_grid=tuple(float(x) for x in t["mu_grid"]),
        tables=tuple(tuple(float(v) for v in tab) for tab in t["tables"]),
    )
    if cfg.family == "t":
        _require(len(cfg.mu_grid) > 0, "targets: t family needs mu_grid")
    else:
        _require(len(cfg.tables) > 0, "targets: table family needs tables")
    return cfg


def _truth_from_dict(raw: dict) -> TruthConfig:
    t = _pick(raw, _defaults(TruthConfig), "truth")
    return TruthConfig(
        d=_tuple_or_none(t["d"]),
        u=_tuple_or_none(t["u"]),
        eta=_tuple_or_none(t["eta"]),
    )


def _validate(cfg: ExperimentConfig):
    _require(cfg.burn_in >= 0, "config: burn_in must be nonnegative")
    _require(cfg.thinning >= 1, "config: thinning must be at least 1")
    _require(0 < cfg.bm_nu < 1, "config: bm_nu must lie in (0, 1)")
    _require(cfg.replications >= 1, "config: replications must be positive")
    _require(cfg.workers >= 1, "config: workers must be positive")
    _require(all(s > 0 for s in cfg.size_grid), "config: size_grid must be positive")
    needs_marks = cfg.se_method in ("rs", "both")
    if needs_marks and (cfg.burn_in > 0 or cfg.thinning > 1):
        raise ConfigError(
            "regenerative standard errors are incompatible with burn-in or thinning"
        )
    if needs_marks:
        for i, ref in enumerate(cfg.references):
            if ref.sampler != "iid" and not ref.with_regen:
                raise ConfigError(
                    f"references[{i}]: regenerative SEs need with_regen on MH chains"
                )
    labels = [_ref_label(r, i) for i, r in enumerate(cfg.references)]
    _require(len(set(labels)) == len(labels), "config: reference labels collide")
    if cfg.targets is not None and cfg.targets.family == "table":
        _require(
            all(r.family == "table" for r in cfg.references),
            "config: table targets need table references",
        )


def config_from_json(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def _ref_label(ref: ReferenceConfig, index: int) -> str:
    if ref.label is not None:
        return ref.label
    if ref.family == "t":
        return f"t{ref.df:g}_mu{ref.mu:g}"
    return f"table{index}"


def build_references(cfg: ExperimentConfig) -> list[UnnormalizedDensity]:
    out = []
    for i, ref in enumerate(cfg.references):
        label = _ref_label(ref, i)
        if ref.family == "t":
            out.append(t_density(ref.df, ref.mu, id=label))
        else:
            out.append(discrete_table_density(ref.table, id=label))
    return out


def build_family(cfg: ExperimentConfig) -> TargetFamily:
    _require(cfg.targets is not None, "config has no targets")
    t = cfg.targets
    if t.family == "t":
        targets = tuple(
            t_density(t.df, mu, id=f"t{t.df:g}_mu{mu:g}") for mu in t.mu_grid
        )
    else:
        targets = tuple(
            discrete_table_density(tab, id=f"target{i}")
            for i, tab in enumerate(t.tables)
        )
    return TargetFamily(targets)


def build_integrand(cfg: ExperimentConfig) -> Integrand | None:
    return identity_integrand if cfg.integrand == "x" else None


def _sample_one(
    cfg: ExperimentConfig,
    ref: ReferenceConfig,
    density: UnnormalizedDensity,
    n: int,
    seed: int,
) -> ChainSample:
    raw_n = cfg.burn_in + n * cfg.thinning
    if ref.sampler == "iid":
        chain = sample_t_iid(ref.df, ref.mu, raw_n, seed, density_id=density.id)
    elif ref.sampler == "imh":
        pdf = ref.proposal_df if ref.proposal_df is not None else ref.df
        chain = sample_t_imh(
            ref.df,
            ref.mu,
            pdf,
            ref.proposal_mu,
            raw_n,
            seed,
            with_regen=ref.with_regen,
            splitting_const=ref.splitting_const,
        )
        chain = replace(chain, density_id=density.id)
    else:
        chain = discrete_mh(
            density,
            raw_n,
            seed,
            with_regen=ref.with_regen,
            splitting_const=ref.splitting_const,
        )
    if cfg.burn_in > 0 or cfg.thinning > 1:
        # slicing invalidates regeneration marks, which _validate already
        # guarantees are not needed downstream
        states = chain.states[cfg.burn_in :: cfg.thinning][:n]
        chain = ChainSample(
            density_id=chain.density_id,
            states=states,
            kind=chain.kind,
            seed=chain.seed,
        )
    return chain


def sample_stage(
    cfg: ExperimentConfig,
    references: Sequence[UnnormalizedDensity],
    sizes: Sequence[int],
    stage_tag: int,
    rep_index: int = 0,
) -> SampleSet:
    chains = tuple(
        _sample_one(
            cfg,
            ref_cfg,
            density,
            int(n),
            derive_seed(cfg.master_seed, stage_tag, chain_idx, rep_index),
        )
        for chain_idx, (ref_cfg, density, n) in enumerate(
            zip(cfg.references, references, sizes)
        )
    )
    return SampleSet(chains=chains, stage=1 if stage_tag != STAGE2_TAG else 2)


def split_sizes(cfg: ExperimentConfig) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """Stage-1 and stage-2 sizes, applying the default split when needed.

    When targets are configured without an explicit stage2 block, each
    stage-1 budget is split, with the stage-1 share DEFAULT_SPLIT_FRACTION.
    """
    if cfg.targets is None:
        return cfg.stage1.sizes, None
    if cfg.stage2 is not None:
        return cfg.stage1.sizes, cfg.stage2.sizes
    n1 = []
    n2 = []
    for total in cfg.stage1.sizes:
        # rounding the stage-1 share keeps 0.8 * 1000 at exactly 800
        second = max(4, total - int(round(DEFAULT_SPLIT_FRACTION * total)))
        _require(total - second >= 4, f"stage budget {total} too small to split")
        n1.append(total - second)
        n2.append(second)
    return tuple(n1), tuple(n2)


def pilot_weights(
    cfg: ExperimentConfig,
    references: Sequence[UnnormalizedDensity],
    rep_index: int = 0,
) -> tuple[tuple[int, ...], np.ndarray, dict]:
    """The pilot search behind stage-1 weights of kind "pilot".

    Draws the pilot chains under PILOT_TAG, by default a tenth of each
    stage-1 budget and at least 200, and grid-searches them.  Returns the
    pilot sizes, the chosen weights and the grid diagnostics.
    """
    wc = cfg.stage1.weights
    sizes = wc.pilot_sizes
    if sizes is None:
        sizes = tuple(max(200, s // 10) for s in cfg.stage1.sizes)
    pilot = sample_stage(cfg, references, sizes, PILOT_TAG, rep_index)
    best, diagnostics = pilot_optimal_weights(
        pilot, references, step=wc.step, bm_spec=cfg.bm_spec
    )
    return sizes, best, diagnostics


def _resolve_stage1_weights(
    cfg: ExperimentConfig,
    references: Sequence[UnnormalizedDensity],
    samples1: SampleSet,
    rep_index: int,
) -> StageWeights | None:
    wc = cfg.stage1.weights
    if wc.kind == "naive":
        return None
    if wc.kind == "fixed":
        return StageWeights(np.asarray(wc.values, dtype=float))
    if wc.kind == "pilot":
        return StageWeights(pilot_weights(cfg, references, rep_index)[1])
    raise ConfigError(f"stage1 weight kind {wc.kind!r} is not valid for stage 1")


def _resolve_stage2_weights(
    cfg: ExperimentConfig,
    samples2: SampleSet,
) -> tuple[np.ndarray | None, list[np.ndarray] | None]:
    """Either one shared weight vector or one per target."""
    wc = cfg.stage2.weights if cfg.stage2 is not None else cfg.stage1.weights
    n_per = samples2.n_per_chain
    if wc.kind == "naive":
        return naive_weights(n_per), None
    if wc.kind == "fixed":
        return np.asarray(wc.values, dtype=float), None
    if wc.kind in ("inv_dist", "ess"):
        _require(
            all(r.family == "t" for r in cfg.references),
            "inv_dist/ess weights need t references with locations",
        )
        _require(
            cfg.targets is not None and cfg.targets.family == "t",
            "inv_dist/ess weights need a t target family",
        )
        locs = np.array([r.mu for r in cfg.references])
        if wc.kind == "inv_dist":
            per = [
                inv_dist_weights(mu, locs, n_per) for mu in cfg.targets.mu_grid
            ]
        else:
            ess = np.array(
                [
                    effective_sample_size(c.states, cfg.bm_spec)
                    for c in samples2.chains
                ]
            )
            per = [
                ess_inv_dist_weights(mu, locs, ess) for mu in cfg.targets.mu_grid
            ]
        return None, per
    raise ConfigError(f"stage2 weight kind {wc.kind!r} is not valid for stage 2")


@dataclass(frozen=True)
class TwoStageResult:
    ratio_estimate: RatioEstimate
    target_results: tuple[TargetResult, ...] | None
    stage1_samples: SampleSet
    stage2_samples: SampleSet | None
    q: float


def run_two_stage(cfg: ExperimentConfig, rep_index: int = 0) -> TwoStageResult:
    """One full pass: stage-1 ratios, then the stage-2 target sweep."""
    references = build_references(cfg)
    sizes1, sizes2 = split_sizes(cfg)
    samples1 = sample_stage(cfg, references, sizes1, STAGE1_TAG, rep_index)
    weights = _resolve_stage1_weights(cfg, references, samples1, rep_index)
    ratio_est = estimate_ratios(
        samples1,
        references,
        weights=weights,
        bm_spec=cfg.bm_spec,
        se_method=cfg.se_method,
    )

    if cfg.targets is None:
        return TwoStageResult(ratio_est, None, samples1, None, 0.0)

    samples2 = sample_stage(cfg, references, sizes2, STAGE2_TAG, rep_index)
    family = build_family(cfg)
    f = build_integrand(cfg)
    shared_a, per_target_a = _resolve_stage2_weights(cfg, samples2)
    q = 0.0 if cfg.assume_infinite_stage1 else samples2.n_total / ratio_est.n_total
    results = estimate_family(
        samples2,
        family,
        references,
        ratio_est.d_hat,
        ratio_est.cov,
        q,
        f=f,
        a=shared_a,
        a_per_target=per_target_a,
        bm_spec=cfg.bm_spec,
        tail_guard=cfg.tail_guard,
    )
    return TwoStageResult(ratio_est, tuple(results), samples1, samples2, q)


@dataclass
class ReplicationRecord:
    replication: int
    n_total: int
    d_hat: np.ndarray | None
    var_bm: np.ndarray | None
    var_rs: np.ndarray | None
    targets: tuple[TargetResult, ...] | None
    error: str | None = None


@dataclass
class ReplicationReport:
    records: list[ReplicationRecord]
    truth: TruthConfig | None
    ref_labels: tuple[str, ...]

    def at_size(self, n_total: int) -> list[ReplicationRecord]:
        return [
            r for r in self.records if r.n_total == n_total and r.error is None
        ]

    def sizes(self) -> list[int]:
        out = []
        for r in self.records:
            if r.n_total not in out:
                out.append(r.n_total)
        return out

    def d_matrix(self, n_total: int) -> np.ndarray:
        return np.array([r.d_hat for r in self.at_size(n_total)])

    def var_matrix(self, n_total: int, method: str | None = None) -> np.ndarray:
        """Per-replication variances; by default BM where it was recorded
        and RS otherwise, as RatioEstimate.cov chooses."""
        recs = self.at_size(n_total)
        if method is None:
            method = "bm" if all(r.var_bm is not None for r in recs) else "rs"
        rows = [r.var_bm if method == "bm" else r.var_rs for r in recs]
        if any(v is None for v in rows):
            raise ValueError(f"no {method} variance recorded at size {n_total}")
        return np.array(rows)

    def empirical_asym_var(self, n_total: int) -> np.ndarray:
        """n times the across-replication variance of the ratio estimates."""
        d = self.d_matrix(n_total)
        if d.shape[0] < 2:
            raise ValueError("need at least two successful replications")
        return n_total * np.var(d, axis=0, ddof=1)

    def coverage_d(self, n_total: int) -> np.ndarray:
        if self.truth is None or self.truth.d is None:
            raise ValueError("no true ratios recorded in the config")
        d = self.d_matrix(n_total)
        v = self.var_matrix(n_total)
        se = np.sqrt(np.clip(v, 0.0, None) / n_total)
        truth = np.asarray(self.truth.d)
        return np.mean(np.abs(d - truth) <= Z_95 * se, axis=0)

    def target_arrays(self, label: str) -> dict[str, np.ndarray]:
        rows = [
            next(t for t in r.targets if t.target_label == label)
            for r in self.records
            if r.error is None and r.targets is not None
        ]
        if not rows:
            raise ValueError(f"no replication carries target {label!r}")
        out = {
            "u_hat": np.array([t.u_hat for t in rows]),
            "se_u": np.array([t.se_u for t in rows]),
        }
        if rows[0].eta_hat is not None:
            out["eta_hat"] = np.array([t.eta_hat for t in rows])
            out["se_eta"] = np.array([t.se_eta for t in rows])
        return out

    def failures(self) -> list[ReplicationRecord]:
        return [r for r in self.records if r.error is not None]

    def rows(self) -> list[tuple]:
        """Long-format rows (replication, sample_size, method, estimate)."""
        out: list[tuple] = []
        for rec in self.records:
            if rec.error is not None:
                out.append((rec.replication, rec.n_total, "failed", rec.error))
                continue
            for j, dj in enumerate(rec.d_hat):
                out.append((rec.replication, rec.n_total, f"d_hat[{j + 2}]", dj))
            for method, arr in (("bm", rec.var_bm), ("rs", rec.var_rs)):
                if arr is None:
                    continue
                for j, vj in enumerate(arr):
                    out.append(
                        (rec.replication, rec.n_total, f"var_{method}[{j + 2}]", vj)
                    )
            if rec.targets is not None:
                for t in rec.targets:
                    out.append(
                        (rec.replication, rec.n_total, f"u_hat:{t.target_label}", t.u_hat)
                    )
                    out.append(
                        (rec.replication, rec.n_total, f"se_u:{t.target_label}", t.se_u)
                    )
                    if t.eta_hat is not None:
                        out.append(
                            (
                                rec.replication,
                                rec.n_total,
                                f"eta_hat:{t.target_label}",
                                t.eta_hat,
                            )
                        )
                        out.append(
                            (
                                rec.replication,
                                rec.n_total,
                                f"se_eta:{t.target_label}",
                                t.se_eta,
                            )
                        )
        return out


def _one_replication(args) -> ReplicationRecord:
    cfg, sizes1, rep, stage1_only = args
    if sizes1 is not None:
        cfg = replace(cfg, stage1=replace(cfg.stage1, sizes=sizes1))
    if stage1_only:
        cfg = replace(cfg, targets=None, stage2=None)
    n_total = int(sum(split_sizes(cfg)[0]))
    try:
        result = run_two_stage(cfg, rep_index=rep)
    except EstimationError as exc:
        return ReplicationRecord(
            replication=rep,
            n_total=n_total,
            d_hat=None,
            var_bm=None,
            var_rs=None,
            targets=None,
            error=f"{type(exc).__name__}: {exc}",
        )
    est = result.ratio_estimate
    return ReplicationRecord(
        replication=rep,
        n_total=est.n_total,
        d_hat=est.d_hat.copy(),
        var_bm=None if est.cov_bm is None else np.diag(est.cov_bm).copy(),
        var_rs=None if est.cov_rs is None else np.diag(est.cov_rs).copy(),
        targets=result.target_results,
    )


def run_replications(cfg: ExperimentConfig) -> ReplicationReport:
    """Replicate the experiment under independent, index-derived seeds.

    With size_grid set, stage 1 is replicated at each per-chain size in
    the grid (targets are skipped); otherwise the full configured
    experiment is replicated.  Failed replications are recorded and do
    not stop the run.
    """
    jobs: list[tuple] = []
    if cfg.size_grid:
        k = len(cfg.references)
        for size in cfg.size_grid:
            for rep in range(cfg.replications):
                jobs.append((cfg, (int(size),) * k, rep, True))
    else:
        for rep in range(cfg.replications):
            jobs.append((cfg, None, rep, False))

    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(_one_replication, jobs, chunksize=1))
    else:
        records = [_one_replication(j) for j in jobs]

    references = build_references(cfg)
    return ReplicationReport(
        records=records,
        truth=cfg.truth,
        ref_labels=tuple(r.id for r in references),
    )


@dataclass(frozen=True)
class OracleReport:
    """Exact discrete-table values against one pipeline run."""

    d_true: np.ndarray
    d_hat: np.ndarray
    d_se: np.ndarray
    u_true: np.ndarray
    eta_true: np.ndarray | None
    targets: tuple[TargetResult, ...]
    z_threshold: float

    @property
    def z_d(self) -> np.ndarray:
        return (self.d_hat - self.d_true) / self.d_se

    @property
    def z_u(self) -> np.ndarray:
        return np.array(
            [
                (t.u_hat - u0) / (t.se_u if t.se_u > 0 else np.inf)
                for t, u0 in zip(self.targets, self.u_true)
            ]
        )

    @property
    def z_eta(self) -> np.ndarray | None:
        if self.eta_true is None:
            return None
        return np.array(
            [
                (t.eta_hat - e0) / (t.se_eta if t.se_eta and t.se_eta > 0 else np.inf)
                for t, e0 in zip(self.targets, self.eta_true)
            ]
        )

    @property
    def passed(self) -> bool:
        ok = np.all(np.abs(self.z_d) <= self.z_threshold) and np.all(
            np.abs(self.z_u) <= self.z_threshold
        )
        if self.eta_true is not None:
            ok = ok and np.all(np.abs(self.z_eta) <= self.z_threshold)
        return bool(ok)


def exact_table_quantities(cfg: ExperimentConfig):
    """Exhaustive-summation truth for an all-table config."""
    _require(
        all(r.family == "table" for r in cfg.references),
        "oracle check needs table references",
    )
    _require(
        cfg.targets is not None and cfg.targets.family == "table",
        "oracle check needs table targets",
    )
    m_refs = np.array([sum(r.table) for r in cfg.references])
    d_true = m_refs[1:] / m_refs[0]
    u_true = np.array([sum(tab) for tab in cfg.targets.tables]) / m_refs[0]
    eta_true = None
    if cfg.integrand == "x":
        eta_true = np.array(
            [
                sum(i * v for i, v in enumerate(tab)) / sum(tab)
                for tab in cfg.targets.tables
            ]
        )
    return d_true, u_true, eta_true


def oracle_check(cfg: ExperimentConfig, z_threshold: float = 3.0) -> OracleReport:
    """Run the pipeline on exhaustively summable tables and compare."""
    d_true, u_true, eta_true = exact_table_quantities(cfg)
    result = run_two_stage(cfg)
    est = result.ratio_estimate
    return OracleReport(
        d_true=d_true,
        d_hat=est.d_hat,
        d_se=est.se,
        u_true=u_true,
        eta_true=eta_true,
        targets=result.target_results,
        z_threshold=z_threshold,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        # numpy scalars subclass float but repr with a type wrapper
        return repr(float(value))
    return str(value)


def write_d_estimate_csv(path, est: RatioEstimate, ref_labels: Sequence[str]):
    """Per-component ratio estimates, one row per (component, se method)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["component", "reference_id", "d_hat", "asym_var", "se", "method", "n"]
        )
        for method, cov in (("bm", est.cov_bm), ("rs", est.cov_rs)):
            if cov is None:
                continue
            se = np.sqrt(np.clip(np.diag(cov), 0.0, None) / est.n_total)
            for j in range(est.d_hat.size):
                writer.writerow(
                    [
                        f"d[{j + 2}]",
                        ref_labels[j + 1],
                        _fmt(float(est.d_hat[j])),
                        _fmt(float(cov[j, j])),
                        _fmt(float(se[j])),
                        method,
                        est.n_total,
                    ]
                )


def write_targets_csv(path, results: Sequence[TargetResult]):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "target_label",
                "u_hat",
                "eta_hat",
                "se_u",
                "se_eta",
                "var_stage1_u",
                "var_stage2_u",
                "var_stage1_eta",
                "var_stage2_eta",
                "q",
                "n",
                "flags",
            ]
        )
        for r in results:
            writer.writerow(
                [
                    r.target_label,
                    _fmt(r.u_hat),
                    _fmt(r.eta_hat),
                    _fmt(r.se_u),
                    _fmt(r.se_eta),
                    _fmt(r.var_stage1_u),
                    _fmt(r.var_stage2_u),
                    _fmt(r.var_stage1_eta),
                    _fmt(r.var_stage2_eta),
                    _fmt(r.q),
                    r.n,
                    ";".join(r.flags),
                ]
            )


def write_replications_csv(path, report: ReplicationReport):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "sample_size", "method", "estimate"])
        for row in report.rows():
            writer.writerow(
                [row[0], row[1], row[2], _fmt(row[3])]
            )


def write_tours_csv(path, tours_by_chain):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "tour_index", "V", "U", "T"])
        for tours in tours_by_chain:
            for t in range(tours.count):
                writer.writerow(
                    [
                        tours.density_id,
                        t,
                        _fmt(None if tours.v_sums is None else float(tours.v_sums[t])),
                        _fmt(float(tours.u_sums[t])),
                        int(tours.lengths[t]),
                    ]
                )


def stage2_tours(cfg: ExperimentConfig, result: TwoStageResult):
    """Tour statistics of the stage-2 chains for the first target.

    Regenerative bookkeeping needs marks on every Markov chain; returns
    None when any are missing or no targets are configured.
    """
    if result.stage2_samples is None or result.target_results is None:
        return None
    for chain in result.stage2_samples.chains:
        if chain.kind != "iid" and chain.regen_marks is None:
            return None
    references = build_references(cfg)
    family = build_family(cfg)
    f = build_integrand(cfg)
    w = naive_weights(result.stage2_samples.n_per_chain)
    return collect_tours(
        result.stage2_samples, references, family.targets[0], w, f
    )
