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
reference log densities and f once per chain, and the log mixture
denominator once per run of targets sharing a weight vector.  Each
target then takes one pass: per chain, one evaluation of its log density
gives both u and the sensitivity kernel, whose exponential serves the
g = 1 and the g = f gradient sums; one batch-means matrix of (v, u), or
of u alone without f, gives both stage-2 variances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .batch_means import DEFAULT_BM_SPEC, BatchMeansSpec, block_size, bm_cov
from .densities import Integrand, TargetFamily, UnnormalizedDensity, log_sum_exp_rows
from .errors import DegenerateDenominatorError, EstimationError
from .samplers import SampleSet

DEFAULT_TAIL_GUARD = 1e3

# normalized weights, per-chain log mixtures, and twice those
_Mixture = tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]


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
    """Chain data shared by every target of one family run."""

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
        self.states = [c.states for c in samples.chains]
        self.d_full = np.concatenate(([1.0], d_hat))
        self.n_per = samples.n_per_chain.astype(float)
        self.n = float(self.n_per.sum())
        # kept (n_l, k): numpy sums a (k, n_l) array pairwise, which rounds
        # the sensitivity sums differently
        self.ref_logs = [
            np.column_stack([ref.log_density(x) for ref in references])
            for x in self.states
        ]
        self.f = f
        self._last: tuple = (None, None)  # (weight vector object, its mixture)

    @cached_property
    def f_vals(self) -> list[np.ndarray] | None:
        # first read inside a target's pass, so a failing f is isolated there
        return None if self.f is None else [self.f.values(x) for x in self.states]

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
        log_mix = [log_sum_exp_rows(mat + log_coef) for mat in self.ref_logs]
        self._last = (a_vec, (a, log_mix, [2.0 * m for m in log_mix]))
        return self._last[1]


class _Pass(NamedTuple):
    """One target's stage-2 pieces, before the stage-1 covariance enters."""

    u: list[np.ndarray]  # weight series per chain
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
    u_series = []
    c_sum = np.zeros(len(a) - 1)
    s_sum = None if f_vals is None else np.zeros(len(a) - 1)
    for l, x in enumerate(ctx.states):
        log_nu = target.log_density(x)
        u = log_nu - log_mix[l]
        kernel = (log_nu - log_mix2[l])[:, None] + ctx.ref_logs[l][:, 1:]
        with np.errstate(over="ignore"):  # exp in place: both exponents are temporaries
            np.exp(u, out=u)
            np.exp(kernel, out=kernel)
        if not np.isfinite(u).all():
            raise DegenerateDenominatorError(
                f"importance weights overflow for target {target.id!r}"
            )
        if not np.isfinite(kernel).all():
            raise DegenerateDenominatorError(
                f"sensitivity kernel overflow for target {target.id!r}"
            )
        u_series.append(u)
        w_l = a[l] / ctx.n_per[l]
        c_sum += w_l * kernel.sum(axis=0)
        if f_vals is not None:
            s_sum += w_l * np.multiply(kernel, f_vals[l][:, None], out=kernel).sum(axis=0)
    u_hat = float(sum(a[l] * u.sum() / ctx.n_per[l] for l, u in enumerate(u_series)))
    c_vec = c_sum * a[1:] / ctx.d_full[1:] ** 2

    p = 1 if f_vals is None else 2
    bm = np.zeros((p, p))
    for l, u in enumerate(u_series):
        series = [u] if f_vals is None else [f_vals[l] * u, u]
        s_l = ctx.n_per[l] / ctx.n
        bm += (a[l] ** 2 / s_l) * bm_cov(series, block_size(u.size, bm_spec))
    if f_vals is None:
        return _Pass(u_series, u_hat, None, c_vec, None, bm)

    if u_hat <= 0 or not np.isfinite(u_hat):
        raise DegenerateDenominatorError("importance weight sum is not positive")
    v_hat = float(
        sum(
            a[l] * np.dot(f_vals[l], u_series[l]) / ctx.n_per[l]
            for l in range(len(u_series))
        )
    )
    eta_hat = v_hat / u_hat
    s_vec = s_sum * a[1:] / ctx.d_full[1:] ** 2
    e_vec = s_vec / u_hat - c_vec * (eta_hat / u_hat)
    return _Pass(u_series, u_hat, eta_hat, c_vec, e_vec, bm)


def ratio_delta_variance(v_hat: float, u_hat: float, joint_cov) -> float:
    """Delta-method variance of v_hat/u_hat given the joint covariance."""
    if u_hat == 0 or not np.isfinite(u_hat):
        raise DegenerateDenominatorError("ratio denominator is zero or non-finite")
    joint_cov = np.asarray(joint_cov, dtype=float)
    grad = np.array([1.0 / u_hat, -v_hat / u_hat**2])
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
    p = _target_pass(ctx, target, a_vec, bm_spec)
    all_u = np.concatenate(p.u)
    mean_u = np.add.reduce(all_u) / all_u.size  # np.mean's arithmetic
    tail = mean_u > 0 and float(all_u.max()) > tail_guard * mean_u
    var1_u = float(q) * float(p.c_vec @ cov @ p.c_vec) if p.c_vec.size else 0.0
    var2_u = float(p.bm[-1, -1])  # bitwise the univariate BM of u
    var1_eta = var2_eta = se_eta = None
    if p.eta_hat is not None:
        var1_eta = float(q) * float(p.e_vec @ cov @ p.e_vec) if p.e_vec.size else 0.0
        var2_eta = ratio_delta_variance(p.eta_hat * p.u_hat, p.u_hat, p.bm)
        se_eta = float(np.sqrt(max(var1_eta + var2_eta, 0.0) / ctx.n))
    return TargetResult(
        target_label=target.id,
        u_hat=p.u_hat,
        eta_hat=p.eta_hat,
        se_u=float(np.sqrt(max(var1_u + var2_u, 0.0) / ctx.n)),
        se_eta=se_eta,
        var_stage1_u=var1_u,
        var_stage2_u=var2_u,
        var_stage1_eta=var1_eta,
        var_stage2_eta=var2_eta,
        q=float(q),
        n=int(ctx.n),
        flags=("tail_weight",) if tail else (),
    )
