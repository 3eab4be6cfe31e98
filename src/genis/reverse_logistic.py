"""Stage 1: normalizing-constant ratios by reverse logistic regression.

Given chains X^(l) targeting unnormalized densities nu_l with unknown
constants m_l, the membership probability of pool entry x in component l
under log-offsets zeta is

    p_l(x, zeta) = nu_l(x) e^{zeta_l} / sum_s nu_s(x) e^{zeta_s}.

Maximizing the weighted quasi-log-likelihood

    l_n(zeta) = sum_l w_l sum_i log p_l(X_i^(l), zeta),   w_l = a_l n / n_l,

under sum_l zeta_l = 0 (the objective is invariant to adding a constant
to zeta) yields ratio estimates

    d_j = exp(zeta_1 - zeta_j) a_j / a_1,   j = 2..k,

which estimate m_j / m_1.  The asymptotic covariance of the scaled ratio
errors is the sandwich D^T B^+ Omega B^+ D, where B is minus the scaled
Hessian, Omega the long-run covariance of the score, and D the Jacobian
of the zeta -> d map.  Omega is estimated per chain by batch means or,
as an independent route, from regeneration tours.

Layout: each chain's log densities are one (k, n_l) array, component
major, so reductions over components run over k contiguous rows.  The
objective, the score, B and the membership probabilities all come from
one softmax per chain.  The evaluator has two steps: `_parts` computes
each chain's weight-free parts at zeta (own-term sum, column sums of the
membership probabilities, diag(p_sum) - p p^T, and the probabilities),
and `_combine` weighs them with w and a.  The parts at zeta = 0 do not
depend on the weights, so the pilot grid computes them once for all its
points.  The vanishing-state check runs once per fit, at zeta = 0, and
again only at a non-finite iterate.  The Newton fit evaluates each
iterate once, and B and Omega reuse its last evaluation.  The
evaluator frees each n-length temporary once it is spent, and
estimate_ratios drops the log-density matrices before the Omega routes
run, so they never coexist with the routes' prefix sums and batch copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .batch_means import DEFAULT_BM_SPEC, BatchMeansSpec, bm_cov, block_size
from .densities import UnnormalizedDensity
from .errors import ConvergenceError, UndefinedPointError
from .regen import rs_long_run_cov
from .samplers import SampleSet

# Newton stopping rule, read when a fit runs: a per-sample gradient norm of
# at most TOL, else ConvergenceError after MAX_ITER iterations
TOL = 1e-10
MAX_ITER = 200
SE_METHODS = ("bm", "rs", "both")


@dataclass(frozen=True)
class StageWeights:
    """Positive chain weights a, stored normalized to sum to one."""

    a: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if a.ndim != 1 or a.size < 1:
            raise ValueError("a must be a nonempty vector")
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise ValueError("chain weights must be positive and finite")
        object.__setattr__(self, "a", a / a.sum())


@dataclass(frozen=True)
class RatioEstimate:
    """Stage-1 output: ratio estimates with asymptotic covariance.

    cov_* matrices estimate the covariance of sqrt(n) * (d_hat - d) with
    n the pooled stage-1 sample size, so se = sqrt(diag(cov) / n).
    """

    d_hat: np.ndarray
    zeta_hat: np.ndarray
    a: np.ndarray
    n_per_chain: np.ndarray
    cov_bm: np.ndarray | None
    cov_rs: np.ndarray | None
    iterations: int
    grad_norm: float

    @property
    def n_total(self) -> int:
        return int(np.sum(self.n_per_chain))

    @property
    def cov(self) -> np.ndarray:
        c = self.cov_bm if self.cov_bm is not None else self.cov_rs
        if c is None:
            raise ValueError("no covariance estimate was computed")
        return c

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None) / self.n_total)

    @property
    def se_rs(self) -> np.ndarray:
        if self.cov_rs is None:
            raise ValueError("no regenerative covariance estimate was computed")
        return np.sqrt(np.clip(np.diag(self.cov_rs), 0.0, None) / self.n_total)


def log_density_matrices(
    samples: SampleSet, references: Sequence[UnnormalizedDensity]
) -> list[np.ndarray]:
    """Per chain, the (k, n_l) matrix of log nu_s at that chain's states."""
    samples.check_aligned(references)
    return [
        np.stack([ref.log_density(chain.states) for ref in references])
        for chain in samples.chains
    ]


def _parts(mats: list[np.ndarray], zeta: np.ndarray, check: bool = True) -> list:
    """Per chain, the weight-free parts of the evaluator at zeta.

    Chain l gives its own-term sum sum_i log p_l, the column sums p_sum
    of its (k, n_l) membership probabilities p, diag(p_sum) - p p^T and
    p itself, all from one softmax.  With `check`, a state where every
    reference density vanishes raises UndefinedPointError.
    """
    parts = []
    for l, mat in enumerate(mats):
        p = mat + zeta[:, None]
        # the ufunc reductions are np.max's and np.sum's own arithmetic
        # without their Python wrappers
        m = np.maximum.reduce(p, axis=0)
        if check and np.any(np.isneginf(m)):
            raise UndefinedPointError("all reference densities vanish at a state")
        p -= m
        del m  # n-length temporaries are freed as soon as they are spent
        own = p[l].copy()
        np.exp(p, out=p)
        total = np.add.reduce(p, axis=0)
        p /= total
        own -= np.log(total, out=total)
        own_sum = float(np.add.reduce(own))
        del own, total
        p_sum = np.add.reduce(p, axis=1)
        parts.append((own_sum, p_sum, np.diag(p_sum) - p @ p.T, p))
    return parts


def _combine(
    parts: list, w: np.ndarray, a: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Objective, score, curvature B and membership probabilities from
    the parts of `_parts`: w weighs the objective and the score, a the
    curvature."""
    k = w.size
    ll = 0.0
    score = np.zeros(k)
    info = np.zeros((k, k))
    for l, (own_sum, p_sum, curv, p) in enumerate(parts):
        ll += w[l] * own_sum
        score[l] += w[l] * p.shape[1]
        score -= w[l] * p_sum
        info += (a[l] / p.shape[1]) * curv
    return ll, score, 0.5 * (info + info.T), [part[3] for part in parts]


def _fit(
    mats: list[np.ndarray],
    a: np.ndarray,
    n_per: np.ndarray,
    start: list | None = None,
):
    """Damped Newton from zeta = 0 under sum(zeta) = 0.

    `start`, when given, holds `_parts(mats, np.zeros(k))`, which do not
    depend on the weights, so several fits on one set of matrices can
    share them.  Each iterate is centred before it is evaluated, so the
    returned zeta is the point of the last evaluation, whose B and
    membership probabilities are returned with it (None for a single
    chain).

    The vanishing-state check runs at zeta = 0 only: while zeta is
    finite, a column of mat + zeta is all -inf exactly when the column of
    mat is.  An iterate with a non-finite entry (an overflowed step) is
    checked again.
    """
    k = a.size
    if k != len(mats):
        raise ValueError("weights must have one entry per chain")
    if k == 1:
        return np.zeros(1), 0, 0.0, None, None
    n = float(n_per.sum())
    w = a * n / n_per
    zeta = np.zeros(k)
    ev = _combine(_parts(mats, zeta) if start is None else start, w, a)
    for it in range(MAX_ITER + 1):
        ll, g, info, probs = ev
        # per-sample scale: the raw score is O(n), so an absolute cutoff
        # would sit below the float64 rounding floor for large chains
        grad_norm = float(np.max(np.abs(g - g.mean()))) / n
        if grad_norm <= TOL:
            return zeta, it, grad_norm, info, probs
        if it == MAX_ITER:
            raise ConvergenceError(
                f"no convergence in {MAX_ITER} iterations (grad norm {grad_norm:.3e})",
                zeta=zeta,
                grad_norm=grad_norm,
                iterations=MAX_ITER,
            )
        # Newton in the reduced parameterization zeta_k = -sum_{j<k} zeta_j
        neg_h = n * (info[:-1, :-1] - info[:-1, -1:] - info[-1:, :-1] + info[-1, -1])
        g_red = g[:-1] - g[-1]
        ridge = 0.0
        for _ in range(12):
            try:
                chol = np.linalg.cholesky(neg_h + ridge * np.eye(k - 1))
                break
            except np.linalg.LinAlgError:
                ridge = max(ridge * 10.0, 1e-10 * max(np.trace(neg_h), 1.0))
        else:
            raise ConvergenceError(
                "reduced Hessian is not positive definite",
                zeta=zeta,
                grad_norm=grad_norm,
                iterations=it,
            )
        step_red = np.linalg.solve(chol.T, np.linalg.solve(chol, g_red))
        step = np.append(step_red, -step_red.sum())
        slope = float(g_red @ step_red)
        ev = probs = None  # one set of membership probabilities at a time
        # once the Newton decrement sinks below the objective's rounding
        # noise the Armijo test carries no signal; the full step is then
        # safely inside the quadratic basin and finishes the solve
        full_step = slope <= 1e4 * np.finfo(float).eps * (1.0 + abs(ll))
        t = 1.0
        for _ in range(60):
            cand = zeta + t * step
            cand -= cand.mean()
            ev = _combine(_parts(mats, cand, not np.isfinite(cand).all()), w, a)
            if full_step or ev[0] >= ll + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                "line search failed to improve the objective",
                zeta=zeta,
                grad_norm=grad_norm,
                iterations=it + 1,
            )
        zeta = cand


def fit_reverse_logistic(
    samples: SampleSet,
    references: Sequence[UnnormalizedDensity],
    weights: StageWeights | None = None,
) -> np.ndarray:
    """Maximize the objective under sum(zeta) = 0 by damped Newton."""
    mats = log_density_matrices(samples, references)
    n_per = samples.n_per_chain
    a = (StageWeights(n_per) if weights is None else weights).a
    return _fit(mats, a, n_per.astype(float))[0]


def zeta_to_ratios(zeta, a) -> np.ndarray:
    """Map the fitted offsets to ratio estimates d_j = e^{z_1 - z_j} a_j / a_1."""
    zeta = np.asarray(zeta, dtype=float)
    a = np.asarray(a, dtype=float)
    if zeta.shape != a.shape:
        raise ValueError("zeta and a must have the same length")
    return np.exp(zeta[0] - zeta[1:]) * a[1:] / a[0]


def ratio_jacobian(d_hat) -> np.ndarray:
    """Jacobian D of the zeta -> d map at the fitted point, (k, k-1).

    Row 0 holds (d_2..d_k); row j has -d_{j+1} on its diagonal entry.
    Columns sum to zero.
    """
    d_hat = np.atleast_1d(np.asarray(d_hat, dtype=float))
    km1 = d_hat.size
    out = np.zeros((km1 + 1, km1))
    out[0, :] = d_hat
    out[1:, :][np.diag_indices(km1)] = -d_hat
    return out


def info_matrix(
    samples: SampleSet,
    references: Sequence[UnnormalizedDensity],
    zeta,
    a,
) -> np.ndarray:
    """The matrix B: a-weighted average curvature of the membership model.

    B_rr = sum_l a_l mean_i p_r(1-p_r), B_rs = -sum_l a_l mean_i p_r p_s.
    Symmetric PSD with zero row sums; equals -Hessian/n of the objective.
    """
    a = np.asarray(a, dtype=float)
    mats = log_density_matrices(samples, references)
    return _combine(_parts(mats, np.asarray(zeta, dtype=float)), a, a)[2]


def _omega(
    probs: list[np.ndarray],
    chains,
    a: np.ndarray,
    bm_spec: BatchMeansSpec,
    method: str,
) -> np.ndarray:
    if method not in ("bm", "rs"):
        raise ValueError("method must be 'bm' or 'rs'")
    n = sum(p.shape[1] for p in probs)
    omega = np.zeros((a.size, a.size))
    for l, p in enumerate(probs):
        if method == "bm":
            sigma_l = bm_cov(p, block_size(p.shape[1], bm_spec))
        else:
            chain = chains[l]
            if chain.kind != "iid" and chain.regen_marks is None:
                raise ValueError(
                    f"chain {chain.density_id!r} has no regeneration marks"
                )
            sigma_l = rs_long_run_cov(p, chain.regen_marks)
        omega += (n / p.shape[1]) * a[l] ** 2 * sigma_l
    return omega


def score_long_run_cov(
    samples: SampleSet,
    references: Sequence[UnnormalizedDensity],
    zeta,
    a,
    bm_spec: BatchMeansSpec = DEFAULT_BM_SPEC,
    method: str = "bm",
) -> np.ndarray:
    """Long-run covariance Omega of the scaled score.

    Per chain the series is the membership-probability vector evaluated
    along the chain; chain l contributes (n/n_l) a_l^2 times its long-run
    covariance, estimated by batch means or from regeneration tours.
    """
    a = np.asarray(a, dtype=float)
    mats = log_density_matrices(samples, references)
    probs = _combine(_parts(mats, np.asarray(zeta, dtype=float)), a, a)[3]
    return _omega(probs, samples.chains, a, bm_spec, method)


def sym_pseudo_inverse(mat) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix via eigendecomposition.

    Eigenvalues with magnitude at most k * machine epsilon times the
    largest are treated as zero.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    k = mat.shape[0]
    if k == 0:
        return np.zeros((0, 0))
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    cutoff = k * np.finfo(float).eps * np.max(np.abs(vals), initial=0.0)
    inv_vals = np.where(np.abs(vals) > cutoff, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    out = (vecs * inv_vals) @ vecs.T
    return 0.5 * (out + out.T)


def _deflated_info_pinv(info: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of the curvature matrix with its null space removed.

    The membership probabilities sum to one, so the curvature matrix
    always annihilates the all-ones vector.  Assembly rounding can leave
    that eigenvalue slightly positive, and a generic rank cutoff then
    inverts noise into enormous entries.  Shifting along the known null
    direction before inverting and subtracting the shift afterwards is
    exact when the row sums vanish and stays bounded when they almost do.
    """
    info = 0.5 * (info + info.T)
    k = info.shape[0]
    lam = float(np.trace(info))
    if lam <= 0.0:
        return np.zeros_like(info)
    j = np.full((k, k), 1.0 / k)
    out = sym_pseudo_inverse(info + lam * j) - j / lam
    return 0.5 * (out + out.T)


def ratio_covariance(d_jacobian, info_pinv, omega) -> np.ndarray:
    """Sandwich covariance D^T B^+ Omega B^+ D of the scaled ratio errors."""
    d_jacobian = np.asarray(d_jacobian, dtype=float)
    info_pinv = np.asarray(info_pinv, dtype=float)
    omega = np.asarray(omega, dtype=float)
    inner = info_pinv @ omega @ info_pinv
    out = d_jacobian.T @ inner @ d_jacobian
    return 0.5 * (out + out.T)


def _estimate_from_fit(
    fit: tuple,
    chains,
    a: np.ndarray,
    n_per: np.ndarray,
    bm_spec: BatchMeansSpec,
    se_method: str,
) -> RatioEstimate:
    """Ratios and their covariance from the result of `_fit`.

    B and Omega come from the membership probabilities of the fit's last
    evaluation, taken at the returned zeta; the log-density matrices are
    not needed, so a caller that is done with them can free them first.
    """
    zeta, iterations, grad_norm, info, probs = fit
    d_hat = zeta_to_ratios(zeta, a)
    methods = [m for m in ("bm", "rs") if se_method in (m, "both")]
    if a.size == 1:
        covs = {m: np.zeros((0, 0)) for m in methods}
    else:
        jac = ratio_jacobian(d_hat)
        info_pinv = _deflated_info_pinv(info)
        covs = {
            m: ratio_covariance(jac, info_pinv, _omega(probs, chains, a, bm_spec, m))
            for m in methods
        }
    return RatioEstimate(
        d_hat=d_hat,
        zeta_hat=zeta,
        a=a,
        n_per_chain=n_per,
        cov_bm=covs.get("bm"),
        cov_rs=covs.get("rs"),
        iterations=iterations,
        grad_norm=grad_norm,
    )


def estimate_ratios(
    samples: SampleSet,
    references: Sequence[UnnormalizedDensity],
    weights: StageWeights | None = None,
    bm_spec: BatchMeansSpec = DEFAULT_BM_SPEC,
    se_method: str = "bm",
) -> RatioEstimate:
    """Full stage 1: fit, map to ratios, and attach asymptotic covariance."""
    if se_method not in SE_METHODS:
        raise ValueError(f"se_method must be one of {SE_METHODS}")
    mats = log_density_matrices(samples, references)
    n_per = samples.n_per_chain
    a = (StageWeights(n_per) if weights is None else weights).a
    fit = _fit(mats, a, n_per.astype(float))
    del mats  # the Omega routes need only the fit's membership probabilities
    return _estimate_from_fit(fit, samples.chains, a, n_per, bm_spec, se_method)
