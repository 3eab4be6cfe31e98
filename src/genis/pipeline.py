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

import csv
import functools
import io
import itertools
import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace
from types import UnionType
from typing import Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .batch_means import DEFAULT_BM_SPEC, MIN_DRAWS, BatchMeansSpec
from .densities import (
    Integrand,
    TargetFamily,
    UnnormalizedDensity,
    discrete_table_density,
    identity_integrand,
    t_density,
    t_family,
    t_label,
)
from .errors import ConfigError, EstimationError
from .importance import DEFAULT_TAIL_GUARD, TargetResult, estimate_family
from .regen import split_tours
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
    independence_mh,
    log_splitting_const,
    sample_t_iid,
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
ORACLE_Z = 3.0  # the oracle check fails when some |z| exceeds this

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

    @property
    def proposal(self) -> tuple[float | None, float | None]:
        """df and center of the imh proposal; its df defaults to the target's."""
        df = self.df if self.proposal_df is None else self.proposal_df
        return df, self.proposal_mu


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


def _checked(where: str, build, *args):
    """Apply a constructor's own checks to config values, as a ConfigError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_TYPE_NAMES = {bool: "a bool", str: "a string", int: "an integer", float: "a number"}
# builtins first: an abstract-class check costs more than the read itself
_REAL = (float, int, numbers.Real)
_INTEGRAL = (int, numbers.Integral)


@functools.cache
def _fields(cls) -> tuple:
    """(name, annotation, required) for each field of a config dataclass."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def _read(tp, value, where: str):
    """Read a JSON value as the annotated type `tp`; `where` names it in errors.

    Objects become config dataclasses, lists tuples, and null is accepted
    exactly where the annotation admits None.
    """
    if tp in _TYPE_NAMES:
        return _read_scalar(tp, value, where)
    origin = get_origin(tp)
    if origin in (Union, UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [a for a in get_args(tp) if a is not type(None)]
        return _read(tp, value, where)
    if origin is tuple:
        _require(isinstance(value, (list, tuple)), f"{where}: must be a list")
        item = get_args(tp)[0]
        return tuple(_read(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    name = where or "config"
    _require(isinstance(value, dict), f"{name}: must be an object")
    spec = _fields(tp)
    unknown = set(value) - {f[0] for f in spec}
    _require(not unknown, f"{name}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, ftp, required in spec:
        if key in value:
            kwargs[key] = _read(ftp, value[key], f"{where}.{key}" if where else key)
        else:  # the constructor fills in the field default
            _require(not required, f"{name}: {key} is required")
    return tp(**kwargs)


def _read_scalar(tp, value, where: str):
    """A bool or string as is; a number in its JSON meaning: an integer field
    takes an integral float such as 1e5, and no number field takes a bool."""
    if tp is bool or tp is str:
        ok = isinstance(value, tp)
    elif isinstance(value, bool) or not isinstance(value, _REAL):
        ok = False
    elif tp is int:
        ok = isinstance(value, _INTEGRAL) or float(value).is_integer()
    else:
        try:
            return float(value)
        except OverflowError as exc:
            raise ConfigError(f"{where}: number out of range") from exc
    if not ok:
        raise ConfigError(f"{where}: must be {_TYPE_NAMES[tp]}")
    return int(value) if tp is int else value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a JSON-style dict."""
    cfg = _read(ExperimentConfig, raw, "")
    _validate(cfg)
    return cfg


_WEIGHT_KINDS = {1: ("naive", "fixed", "pilot"), 2: ("naive", "fixed", "inv_dist", "ess")}


def _validate_reference(ref: ReferenceConfig, where: str):
    _require(ref.family in ("t", "table"), f"{where}: family must be 't' or 'table'")
    _require(ref.sampler in ("iid", "imh", "mh"), f"{where}: bad sampler")
    if ref.family == "t":
        _require(ref.df is not None and ref.mu is not None,
                 f"{where}: t reference needs df and mu")
        _require(ref.sampler in ("iid", "imh"), f"{where}: t reference uses iid or imh")
        if ref.sampler == "imh":
            _require(ref.proposal_mu is not None,
                     f"{where}: imh sampler needs proposal_mu")
        _checked(where, t_density, ref.df, ref.mu)
    else:
        _require(ref.table is not None, f"{where}: table reference needs a table")
        _require(ref.sampler == "mh", f"{where}: table reference uses the mh sampler")
        _checked(where, discrete_table_density, ref.table)
    if ref.sampler == "imh":
        _checked(f"{where} proposal", t_density, *ref.proposal)
    if ref.splitting_const is not None:
        _checked(where, log_splitting_const, ref.splitting_const)


def _validate_stage(cfg: ExperimentConfig, stage: StageConfig, where: str, uses):
    """Sizes and weights of one stage block; `uses` lists the stages its
    weights serve (stage 1, 2, or both when targets share the stage1 block)."""
    k = len(cfg.references)
    _require(len(stage.sizes) == k, f"{where}: sizes must list one size per reference")
    _require(all(x > 0 for x in stage.sizes), f"{where}: sizes must be positive")
    w = stage.weights
    for n in uses:
        _require(w.kind in _WEIGHT_KINDS[n],
                 f"{where}.weights: kind {w.kind!r} is not valid for stage {n}")
    if w.kind == "fixed":
        _require(w.values is not None and len(w.values) == k,
                 f"{where}.weights: fixed kind needs one value per reference")
        _checked(f"{where}.weights", StageWeights, w.values)
    if w.kind == "pilot":
        grid = _checked(f"{where}.weights", simplex_grid, k, w.step)
        _require(len(grid) > 0,
                 f"{where}.weights: step {w.step:g} leaves an empty weight grid "
                 f"for {k} references")
    if w.kind == "pilot" and w.pilot_sizes is not None:
        _require(len(w.pilot_sizes) == k and all(x > 0 for x in w.pilot_sizes),
                 f"{where}.weights: pilot_sizes must list one positive size per reference")
    if w.kind == "ess":
        _require(all(x >= MIN_DRAWS for x in stage.sizes),
                 f"{where}.weights: ess weights need at least {MIN_DRAWS} draws per chain")
    if w.kind in ("inv_dist", "ess"):
        _require(all(r.family == "t" for r in cfg.references),
                 "inv_dist/ess weights need t references with locations")
        _require(cfg.targets is not None and cfg.targets.family == "t",
                 "inv_dist/ess weights need a t target family")


def _validate_targets(t: TargetConfig):
    _require(t.family in ("t", "table"), "targets: family must be 't' or 'table'")
    if t.family == "t":
        _require(len(t.mu_grid) > 0, "targets: t family needs mu_grid")
        _checked("targets", t_family, t.df, t.mu_grid)
    else:
        _require(len(t.tables) > 0, "targets: table family needs tables")
        for i, tab in enumerate(t.tables):
            _checked(f"targets.tables[{i}]", discrete_table_density, tab)


def _validate_tables(cfg: ExperimentConfig):
    """Tables share one state space: none has mass beyond the end of the
    shortest, and each target table has mass only where a reference has."""
    refs = [r.table for r in cfg.references if r.family == "table"]
    targets = ()
    if cfg.targets is not None and cfg.targets.family == "table":
        targets = cfg.targets.tables
    tables = [*refs, *targets]
    size = min((len(t) for t in tables), default=0)
    _require(not any(any(t[size:]) for t in tables),
             "config: tables must have one length, up to trailing zeros")
    for i, tab in enumerate(targets):
        bare = [s for s in range(size) if tab[s] > 0 and not any(r[s] for r in refs)]
        _require(not bare, f"targets.tables[{i}]: states {bare} have mass under "
                           "the target but under no reference")


def _validate(cfg: ExperimentConfig):
    _require(len(cfg.references) > 0, "config: references must be a nonempty list")
    for i, ref in enumerate(cfg.references):
        _validate_reference(ref, f"references[{i}]")
    # a table cannot be evaluated at a t chain's states, nor the reverse
    _require(len({r.family for r in cfg.references}) == 1,
             "config: references must be all t or all table densities")
    shared = cfg.targets is not None and cfg.stage2 is None
    _validate_stage(cfg, cfg.stage1, "stage1", (1, 2) if shared else (1,))
    if cfg.stage2 is not None:
        _validate_stage(cfg, cfg.stage2, "stage2", (2,))
    if cfg.targets is not None:
        _validate_targets(cfg.targets)
    _require(cfg.integrand in (None, "x"), "config: integrand must be 'x' or null")
    _require(cfg.se_method in ("bm", "rs", "both"), "config: bad se_method")
    _require(cfg.master_seed >= 0, "config: master_seed must be nonnegative")
    _require(cfg.burn_in >= 0, "config: burn_in must be nonnegative")
    _require(cfg.thinning >= 1, "config: thinning must be at least 1")
    _checked(
        "config: bm_nu, bm_explicit_b", BatchMeansSpec, cfg.bm_nu, cfg.bm_explicit_b
    )
    _require(cfg.replications >= 1, "config: replications must be positive")
    _require(cfg.workers >= 1, "config: workers must be positive")
    _require(all(s > 0 for s in cfg.size_grid), "config: size_grid must be positive")
    # the largest weight is never below the mean, so a guard of 1 or less
    # would flag every row whose weights are not all equal
    _require(cfg.tail_guard > 1, "config: tail_guard must exceed 1")
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
    _validate_tables(cfg)


def config_from_json(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file; `overrides` replace its top-level keys
    before the config is read and validated."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return config_from_dict(raw)


def _ref_label(ref: ReferenceConfig, index: int) -> str:
    if ref.label is not None:
        return ref.label
    if ref.family == "t":
        return t_label(ref.df, ref.mu)
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
        return t_family(t.df, t.mu_grid)
    return TargetFamily(tuple(
        discrete_table_density(tab, id=f"target{i}") for i, tab in enumerate(t.tables)
    ))


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
        chain = independence_mh(
            density,
            *ref.proposal,
            raw_n,
            seed,
            with_regen=ref.with_regen,
            splitting_const=ref.splitting_const,
        )
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
        second = max(MIN_DRAWS, total - int(round(DEFAULT_SPLIT_FRACTION * total)))
        _require(total - second >= MIN_DRAWS, f"stage budget {total} too small to split")
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
    rep_index: int,
) -> StageWeights | None:
    wc = cfg.stage1.weights
    if wc.kind == "naive":
        return None
    if wc.kind == "fixed":
        return StageWeights(np.asarray(wc.values, dtype=float))
    return StageWeights(pilot_weights(cfg, references, rep_index)[1])


def _resolve_stage2_weights(
    cfg: ExperimentConfig,
    samples2: SampleSet,
) -> tuple[np.ndarray | None, list[np.ndarray] | None]:
    """Either one shared weight vector or one per target; _validate has
    checked the kind and that inv_dist/ess have t references and targets."""
    wc = cfg.stage2.weights if cfg.stage2 is not None else cfg.stage1.weights
    n_per = samples2.n_per_chain
    if wc.kind == "naive":
        return naive_weights(n_per), None
    if wc.kind == "fixed":
        return np.asarray(wc.values, dtype=float), None
    locs = np.array([r.mu for r in cfg.references])
    if wc.kind == "inv_dist":
        per = [inv_dist_weights(mu, locs, n_per) for mu in cfg.targets.mu_grid]
    else:
        ess = np.array(
            [effective_sample_size(c.states, cfg.bm_spec) for c in samples2.chains]
        )
        per = [ess_inv_dist_weights(mu, locs, ess) for mu in cfg.targets.mu_grid]
    return None, per


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
    weights = _resolve_stage1_weights(cfg, references, rep_index)
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
            for t in rec.targets or ():
                stats = [("u_hat", t.u_hat), ("se_u", t.se_u)]
                if t.eta_hat is not None:
                    stats += [("eta_hat", t.eta_hat), ("se_eta", t.se_eta)]
                for name, value in stats:
                    label = f"{name}:{t.target_label}"
                    out.append((rec.replication, rec.n_total, label, value))
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
                jobs.append((cfg, (size,) * k, rep, True))
    else:
        for rep in range(cfg.replications):
            jobs.append((cfg, None, rep, False))

    if cfg.workers > 1:
        # imported here: a serial run need not load the pool machinery
        from concurrent.futures import ProcessPoolExecutor

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
        ok = np.all(np.abs(self.z_d) <= ORACLE_Z) and np.all(
            np.abs(self.z_u) <= ORACLE_Z
        )
        if self.eta_true is not None:
            ok = ok and np.all(np.abs(self.z_eta) <= ORACLE_Z)
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


def oracle_check(cfg: ExperimentConfig) -> OracleReport:
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


def _write_csv(path, header, rows=(), lines=()):
    """Write header and rows with csv, then `lines`, text already in csv's
    form (fields quoted as csv quotes them, each line ending in \\r\\n)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(lines)


def _csv_field(text: str) -> str:
    """`text` as csv writes it inside a row, i.e. quoted only where needed."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def write_d_estimate_csv(path, est: RatioEstimate, ref_labels: Sequence[str]):
    """Per-component ratio estimates, one row per (component, se method)."""
    rows = []
    for method, cov in (("bm", est.cov_bm), ("rs", est.cov_rs)):
        if cov is None:
            continue
        se = np.sqrt(np.clip(np.diag(cov), 0.0, None) / est.n_total)
        for j in range(est.d_hat.size):
            rows.append(
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
    header = ["component", "reference_id", "d_hat", "asym_var", "se", "method", "n"]
    _write_csv(path, header, rows)


def write_targets_csv(path, results: Sequence[TargetResult]):
    header = ["target_label", "u_hat", "eta_hat", "se_u", "se_eta", "var_stage1_u",
              "var_stage2_u", "var_stage1_eta", "var_stage2_eta", "q", "n", "flags"]
    rows = (
        [r.target_label]
        + [_fmt(v) for v in (r.u_hat, r.eta_hat, r.se_u, r.se_eta, r.var_stage1_u,
                             r.var_stage2_u, r.var_stage1_eta, r.var_stage2_eta, r.q)]
        + [r.n, ";".join(r.flags)]
        for r in results
    )
    _write_csv(path, header, rows)


def write_replications_csv(path, report: ReplicationReport):
    rows = ([row[0], row[1], row[2], _fmt(row[3])] for row in report.rows())
    _write_csv(path, ["replication", "sample_size", "method", "estimate"], rows)


def write_tours_csv(path, tours_by_chain):
    _write_csv(
        path,
        ["chain", "tour_index", "V", "U", "T"],
        lines=itertools.chain.from_iterable(_tour_lines(t) for t in tours_by_chain),
    )


def _tour_lines(tours):
    # one f-string per tour: floats as repr (what _fmt writes), the label
    # quoted once; csv.writer would scan every field of every row
    label = _csv_field(tours.density_id)
    v_col = itertools.repeat("") if tours.v_sums is None else map(repr, tours.v_sums.tolist())
    rows = zip(itertools.count(), v_col, tours.u_sums.tolist(), tours.lengths.tolist())
    for t, v, u, length in rows:
        yield f"{label},{t},{v},{u!r},{length}\r\n"


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
    return split_tours(result.stage2_samples, references, family.targets[0], w, f)
