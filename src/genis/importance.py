"""Stage 2: generalized importance sampling across target families.

With stage-1 ratio estimates d (d_1 = 1) and chain weights a, each
stage-2 draw x gets the importance weight

    u(x) = nu(x) / sum_s (a_s / d_s) nu_s(x),

so that u_hat = sum_l (a_l / n_l) sum_i u(X_i^(l)) estimates the ratio of
the target's normalizing constant to the first reference's, and
eta_hat = v_hat / u_hat with v = f * u estimates the target expectation
of f.  Both are invariant to rescaling a.

Standard errors combine two independent pieces: the stage-1 uncertainty
propagated through a sensitivity vector (the gradient of the estimator in
the ratios), and the stage-2 sampling variance of the weight series,
estimated by batch means chain by chain.

`estimate_family` is the entry point.  Per call it evaluates the
reference log densities and f once on the pooled draws, the chains end
to end, and the log mixture denominator once per run of targets sharing
a weight vector.  Each target then takes one pass: one evaluation of its
log density gives both u and the sensitivity kernel, whose exponential
serves the g = 1 and the g = f gradient sums; per chain, one batch-means
matrix of (v, u), or of u alone without f, gives both stage-2 variances.
`target_tours` sums u and v over each chain's regeneration tours, for
``tours.csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .batch_means import DEFAULT_BM_SPEC, BatchMeansSpec, bm_cov
from .densities import Integrand, TargetFamily, UnnormalizedDensity, log_sum_exp_rows
from .errors import DegenerateDenominatorError, EstimationError
from .regen import ChainTours, _tour_sums, tour_boundaries
from .samplers import SampleSet

DEFAULT_TAIL_GUARD = 1e3

# normalized weights, the pooled log mixture, and twice it
_Mixture = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class TargetResult:
    """Row of a family run: both quantities for one target, plus flags."""

    target_label: str
    u_hat: float
    eta_hat: float | None
    se_u: float
    se_eta: float | None
    var_stage1_u: float
    var_stage2_u: float
    var_stage1_eta: float | None
    var_stage2_eta: float | None
    q: float
    n: int
    flags: tuple[str, ...] = ()


class _Context:
    """Chain data shared by every target of one family run, pooled: the
    states of every chain end to end in `x`, chain l at `x[chains[l]]`,
    and each per-state array in the same layout."""

    def __init__(
        self,
        samples: SampleSet,
        references: Sequence[UnnormalizedDensity],
        d_hat,
        f: Integrand | None,
    ):
        samples.check_aligned(references)
        d_hat = np.atleast_1d(np.asarray(d_hat, dtype=float))
        if d_hat.shape != (len(references) - 1,):
            raise ValueError("d_hat must have one ratio per non-first reference")
        if np.any(d_hat <= 0) or not np.all(np.isfinite(d_hat)):
            raise ValueError("ratios must be positive and finite")
        self.x = np.concatenate([c.states for c in samples.chains])
        ends = np.cumsum(samples.n_per_chain)
        self.chains = [slice(end - c.n, end) for end, c in zip(ends, samples.chains)]
        self.d_full = np.concatenate(([1.0], d_hat))
        self.n_per = samples.n_per_chain.astype(float)
        self.n = float(self.n_per.sum())
        # kept (N, k): numpy sums a (k, n_l) array pairwise, which rounds
        # the sensitivity sums differently
        self.ref_logs = np.column_stack([ref.log_density(self.x) for ref in references])
        self.f = f
        self._last: tuple = (None, None)  # (weight vector object, its mixture)

    @cached_property
    def f_vals(self) -> np.ndarray | None:
        # first read inside a target's pass, so a failing f is isolated there
        return None if self.f is None else self.f.values(self.x)

    def mixture(self, a_vec) -> _Mixture:
        """The mixture of a weight vector; only the last one is kept, so a
        vector object shared by consecutive targets is checked and built
        once, and a sweep with one vector per target holds one mixture.
        Weights are nonnegative with a positive sum; a zero weight drops
        its reference from the mixture and its chain from the estimate."""
        if a_vec is self._last[0]:
            return self._last[1]
        a = np.atleast_1d(np.asarray(a_vec, dtype=float))
        if (a.shape != self.d_full.shape or np.any(a < 0)
                or not np.all(np.isfinite(a)) or not a.sum() > 0):
            raise ValueError("a must be a nonnegative weight per chain, not all zero")
        a = a / a.sum()
        with np.errstate(divide="ignore"):  # log 0 = -inf: a dropped reference
            log_coef = np.log(a) - np.log(self.d_full)
        log_mix = log_sum_exp_rows(self.ref_logs + log_coef)
        self._last = (a_vec, (a, log_mix, 2.0 * log_mix))
        return self._last[1]


def target_tours(
    samples: SampleSet,
    references: Sequence[UnnormalizedDensity],
    target: UnnormalizedDensity,
    a,
    d_hat,
    f: Integrand | None,
) -> list[ChainTours]:
    """Per chain, each complete tour's length T_t and sums U_t of u and V_t
    of v = f * u (no V without f), u from the mixture of `a` and `d_hat`.
    Every chain's marks are checked before any density is evaluated."""
    bounds = [tour_boundaries(chain) for chain in samples.chains]
    ctx = _Context(samples, references, d_hat, f)
    log_mix = ctx.mixture(a)[1]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        u = np.exp(target.log_density(ctx.x) - log_mix)
        v = None if f is None else ctx.f_vals * u
        out = [
            ChainTours(chain.density_id, np.diff(b), _tour_sums(u[span], b),
                       None if v is None else _tour_sums(v[span], b))
            for chain, span, b in zip(samples.chains, ctx.chains, bounds)
        ]
    sums = [x for tours in out for x in (tours.u_sums, tours.v_sums) if x is not None]
    if not all(np.isfinite(x).all() for x in (u, *sums)):
        raise DegenerateDenominatorError(
            f"importance weights or their tour sums overflow for target {target.id!r}"
        )
    return out


class _Pass(NamedTuple):
    """One target's stage-2 pieces, before the stage-1 covariance enters."""

    u: np.ndarray  # weight series, pooled as the context's states
    u_hat: float
    eta_hat: float | None
    c_vec: np.ndarray  # gradient of u_hat in d_2..d_k
    e_vec: np.ndarray | None  # gradient of eta_hat in d_2..d_k
    bm: np.ndarray  # long-run covariance of u (1x1) or of (v, u) (2x2)


def _target_pass(
    ctx: _Context,
    target: UnnormalizedDensity,
    a_vec,
    bm_spec: BatchMeansSpec,
) -> _Pass:
    """Estimates, sensitivities and batch means for one target.

    The gradient sums over j = 2..k are sum_l (a_l/n_l) sum_i (a_j/d_j^2)
    g(x) nu(x) nu_j(x) / mix(x)^2 with g = 1 and g = f, in log space.
    Chain l enters the batch means with weight a_l^2 / s_l, s_l = n_l / n.
    """
    a, log_mix, log_mix2 = ctx.mixture(a_vec)
    f_vals = ctx.f_vals
    log_nu = target.log_density(ctx.x)
    kernel = (log_nu - log_mix2)[:, None] + ctx.ref_logs[:, 1:]
    # rows (v, u), or u alone without f; chain l's columns are its series
    vu = np.empty((1 if f_vals is None else 2, ctx.x.size))
    u = np.subtract(log_nu, log_mix, out=vu[-1])
    del log_nu  # freed before the exponentials, to keep the pass's peak down
    with np.errstate(over="ignore"):  # exp in place: both exponents are temporaries
        np.exp(u, out=u)
        np.exp(kernel, out=kernel)
    spans = list(enumerate(ctx.chains))
    w = a / ctx.n_per
    c_sum = sum(w[l] * kernel[span].sum(axis=0) for l, span in spans)
    u_hat = float(sum(a[l] * u[span].sum() / ctx.n_per[l] for l, span in spans))
    c_vec = c_sum * a[1:] / ctx.d_full[1:] ** 2

    if f_vals is not None:
        np.multiply(f_vals, u, out=vu[0])
    bm = np.zeros((len(vu), len(vu)))
    for l, span in spans:
        s_l = ctx.n_per[l] / ctx.n
        bm += (a[l] ** 2 / s_l) * bm_cov(vu[:, span], bm_spec)
    if f_vals is None:
        return _Pass(u, u_hat, None, c_vec, None, bm)

    if u_hat <= 0 or not np.isfinite(u_hat):
        raise DegenerateDenominatorError("importance weight sum is not positive")
    v_hat = float(
        sum(a[l] * np.dot(f_vals[span], u[span]) / ctx.n_per[l] for l, span in spans)
    )
    eta_hat = v_hat / u_hat
    np.multiply(kernel, f_vals[:, None], out=kernel)
    s_sum = sum(w[l] * kernel[span].sum(axis=0) for l, span in spans)
    s_vec = s_sum * a[1:] / ctx.d_full[1:] ** 2
    e_vec = s_vec / u_hat - c_vec * (eta_hat / u_hat)
    return _Pass(u, u_hat, eta_hat, c_vec, e_vec, bm)


def ratio_delta_variance(v_hat: float, u_hat: float, joint_cov) -> float:
    """Delta-method variance of v_hat/u_hat; `_target_pass` checks u_hat > 0."""
    try:  # a float's square raises where it leaves float range
        grad = np.array([1.0 / u_hat, -v_hat / u_hat**2])
    except (OverflowError, ZeroDivisionError) as exc:
        raise DegenerateDenominatorError("ratio denominator squared is out of range") from exc
    return float(grad @ joint_cov @ grad)


def estimate_family(
    samples: SampleSet,
    family: TargetFamily,
    references: Sequence[UnnormalizedDensity],
    d_hat,
    stage1_cov,
    q: float,
    f: Integrand | None = None,
    a=None,
    a_per_target: Sequence | None = None,
    bm_spec: BatchMeansSpec = DEFAULT_BM_SPEC,
    tail_guard: float = DEFAULT_TAIL_GUARD,
) -> list[TargetResult]:
    """Run every target of a family, isolating per-target failures.

    a is a fixed weight vector shared by all targets; a_per_target
    overrides it with one vector per target (for distance- or ESS-based
    strategies); one of the two must be given.  A weight may be zero, as
    distance-based weights are for a target at a reference's location;
    that chain then does not enter the target's estimate.  A target whose evaluation fails is reported
    with NaN estimates and an error flag instead of aborting the run.
    """
    k = len(references)
    if a_per_target is None:
        if a is None:
            raise ValueError("estimate_family needs a or a_per_target")
        a_list = [np.asarray(a, dtype=float)] * len(family)
    else:
        if len(a_per_target) != len(family):
            raise ValueError("a_per_target must have one weight vector per target")
        a_list = [np.asarray(v, dtype=float) for v in a_per_target]
    cov = np.asarray(stage1_cov, dtype=float)
    if cov.shape != (k - 1, k - 1):
        raise ValueError("stage-1 covariance has the wrong shape")
    ctx = _Context(samples, references, d_hat, f)

    results: list[TargetResult] = []
    for target, a_vec in zip(family.targets, a_list):
        try:
            results.append(
                _one_target(ctx, target, a_vec, cov, q, bm_spec, tail_guard)
            )
        except EstimationError as exc:
            nan_f = float("nan") if f is not None else None
            results.append(
                TargetResult(
                    target_label=target.id,
                    u_hat=float("nan"),
                    eta_hat=nan_f,
                    se_u=float("nan"),
                    se_eta=nan_f,
                    var_stage1_u=float("nan"),
                    var_stage2_u=float("nan"),
                    var_stage1_eta=nan_f,
                    var_stage2_eta=nan_f,
                    q=float(q),
                    n=int(ctx.n),
                    flags=(f"error:{type(exc).__name__}",),
                )
            )
    return results


def _one_target(
    ctx: _Context,
    target: UnnormalizedDensity,
    a_vec,
    cov: np.ndarray,
    q: float,
    bm_spec: BatchMeansSpec,
    tail_guard: float,
) -> TargetResult:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        p = _target_pass(ctx, target, a_vec, bm_spec)
        mean_u = np.add.reduce(p.u) / p.u.size  # np.mean's arithmetic
        tail = mean_u > 0 and float(p.u.max()) > tail_guard * mean_u
        var1_u = float(q) * float(p.c_vec @ cov @ p.c_vec) if p.c_vec.size else 0.0
        var2_u = float(p.bm[-1, -1])  # bitwise the univariate BM of u
        se_u = float(np.sqrt(max(var1_u + var2_u, 0.0) / ctx.n))
        var1_eta = var2_eta = se_eta = None
        if p.eta_hat is not None:
            var1_eta = float(q) * float(p.e_vec @ cov @ p.e_vec) if p.e_vec.size else 0.0
            var2_eta = ratio_delta_variance(p.eta_hat * p.u_hat, p.u_hat, p.bm)
            se_eta = float(np.sqrt(max(var1_eta + var2_eta, 0.0) / ctx.n))
    if not all(math.isfinite(x) for x in (p.u_hat, se_u, p.eta_hat, se_eta) if x is not None):
        raise DegenerateDenominatorError(
            f"estimates or standard errors leave float range for target {target.id!r}"
        )
    return TargetResult(
        target_label=target.id,
        u_hat=p.u_hat,
        eta_hat=p.eta_hat,
        se_u=se_u,
        se_eta=se_eta,
        var_stage1_u=var1_u,
        var_stage2_u=var2_u,
        var_stage1_eta=var1_eta,
        var_stage2_eta=var2_eta,
        q=float(q),
        n=int(ctx.n),
        flags=("tail_weight",) if tail else (),
    )
