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
kernel is stacked over G weight vectors: a (G, k) stack of zeta gives one
(G, k, n_l) array of membership probabilities per chain, and each point's
objective, score, B and probabilities come from one softmax per chain.
The evaluator has two steps: `_parts` computes each chain's weight-free
parts at every zeta of the stack (own-term sum, column sums of the
membership probabilities, diag(p_sum) - p p^T, and the probabilities),
and `_combine` weighs them with each point's w and a.

`_fit` runs damped Newton on all G points in lockstep rounds, each point
from its own start log a - log a_1, centred, which is the population
maximizer when the reference constants are equal.  Each round,
the points with a fresh evaluation test convergence and take their Newton
step together (batched Cholesky factor and solves), and the points in
their line search are evaluated together in one `_parts` call.  Each
point keeps its own iteration count, ridge, step halvings and errors, so
it visits the iterates of a fit on its own and its results equal that
fit's bit for bit; one point's failure leaves the others running.
`_estimate_from_fit` then maps every converged point to ratios and takes
the overlap check, the Jacobian, the deflated pseudo-inverse of B
(batched eigh), the batch-means Omega and the sandwich over the whole
stack; the regenerative Omega runs point by point.  The single-fit entry
points call the kernel with G = 1, and the pilot grid feeds it
fixed-size chunks of its points.

Each Newton step is capped at MAX_STEP in max-norm, so the fit crosses
any gap between the reference constants in bounded steps, and every
candidate is finite.  The vanishing-state check therefore runs once, as
the log-density matrices are built: at a finite zeta, a column of
mat + zeta is all -inf exactly when the column of mat is.  The fit
evaluates each iterate once, and B and Omega reuse its last evaluation.
The evaluator frees each n-length temporary once it is spent, the fit
evaluates every round into one (G, k, n_l) buffer per chain that also
keeps the converged points, and estimate_ratios drops the log-density
matrices before the Omega routes run, so they never coexist with the
routes' prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .batch_means import DEFAULT_BM_SPEC, BatchMeansSpec, bm_cov
from .densities import UnnormalizedDensity
from .errors import ConvergenceError, DegenerateDenominatorError, EstimationError
from .errors import InsufficientDataError, UndefinedPointError
from .regen import rs_long_run_cov
from .samplers import SampleSet

# Newton stopping rule, read when a fit runs: a per-sample gradient norm of
# at most TOL, else ConvergenceError after MAX_ITER iterations
TOL = 1e-10
MAX_ITER = 200
# largest Newton step in max-norm; a longer step is shortened to it first
MAX_STEP = 20.0
# where each point of a lockstep fit stands at the start of a round
_FRESH, _SEARCH, _DONE, _FAILED = range(4)
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

    def se_of(self, cov: np.ndarray) -> np.ndarray:
        """sqrt(diag(cov) / n) for one of this estimate's covariances."""
        return np.sqrt(np.clip(np.diag(cov), 0.0, None) / self.n_total)

    @property
    def se(self) -> np.ndarray:
        return self.se_of(self.cov)

    @property
    def se_rs(self) -> np.ndarray:
        if self.cov_rs is None:
            raise ValueError("no regenerative covariance estimate was computed")
        return self.se_of(self.cov_rs)


def log_density_matrices(
    samples: SampleSet, references: Sequence[UnnormalizedDensity]
) -> list[np.ndarray]:
    """Per chain, the (k, n_l) matrix of log nu_s at that chain's states.
    With k > 1, a state where every reference vanishes raises
    UndefinedPointError."""
    samples.check_aligned(references)
    mats = [np.stack([ref.log_density(chain.states) for ref in references])
            for chain in samples.chains]
    if len(references) > 1 and any(np.isneginf(np.maximum.reduce(m, 0)).any() for m in mats):
        raise UndefinedPointError("all reference densities vanish at a state")
    return mats


def _parts(mats: list[np.ndarray], zeta: np.ndarray, out: list | None) -> list:
    """Per chain, the weight-free parts of the evaluator at each row of the
    (G, k) stack zeta.

    Chain l gives, per row, its own-term sum sum_i log p_l (G,), the column
    sums p_sum (G, k) of its (G, k, n_l) membership probabilities p,
    diag(p_sum) - p p^T (G, k, k) and p itself, all from one softmax.  p is
    written into out[l] when `out` is given, else into a new array.  zeta
    must be finite and mats free of vanishing states, as
    `log_density_matrices` ensures, so every column has a finite maximum.
    """
    k = zeta.shape[1]
    diag = np.arange(k)
    parts = []
    for l, mat in enumerate(mats):
        p = np.add(mat, zeta[:, :, None], out=None if out is None else out[l])
        # the ufunc reductions are np.max's and np.sum's own arithmetic
        # without their Python wrappers
        m = np.maximum.reduce(p, axis=1)
        p -= m[:, None]
        del m  # n-length temporaries are freed as soon as they are spent
        own = p[:, l].copy()
        np.exp(p, out=p)
        total = np.add.reduce(p, axis=1)
        p /= total[:, None]
        own -= np.log(total, out=total)
        own_sum = np.add.reduce(own, axis=1)
        del own, total
        p_sum = np.add.reduce(p, axis=2)
        curv = np.zeros((zeta.shape[0], k, k))
        curv[:, diag, diag] = p_sum
        parts.append((own_sum, p_sum, curv - p @ p.transpose(0, 2, 1), p))
    return parts


def _combine(
    parts: list, w: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Per row of the (G, k) weights, the objective, score, curvature B and
    membership probabilities from the parts of `_parts`: w weighs the
    objective and the score, a the curvature.  Parts of one row serve
    every row of the weights."""
    g, k = w.shape
    ll = np.zeros(g)
    score = np.zeros((g, k))
    info = np.zeros((g, k, k))
    for l, (own_sum, p_sum, curv, p) in enumerate(parts):
        ll += w[:, l] * own_sum
        score[:, l] += w[:, l] * p.shape[2]
        score -= w[:, l, None] * p_sum
        info += (a[:, l] / p.shape[2])[:, None, None] * curv
    return ll, score, 0.5 * (info + info.transpose(0, 2, 1)), [part[3] for part in parts]


def _ridged_cholesky(neg_h: np.ndarray) -> np.ndarray | None:
    """Cholesky factor of neg_h plus the smallest ridge of 0 and
    1e-10 max(tr neg_h, 1) times a power of ten that makes it positive
    definite, or None after 12 tries."""
    ridge = 0.0
    for _ in range(12):
        try:
            return np.linalg.cholesky(neg_h + ridge * np.eye(neg_h.shape[0]))
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-10 * max(np.trace(neg_h), 1.0))
    return None


def _fit(mats: list[np.ndarray], a: np.ndarray, n_per: np.ndarray):
    """Damped Newton under sum(zeta) = 0, for each row of the (G, k)
    weights a, in lockstep rounds, from its own start log a - log a_1,
    centred.

    In the population the maximizer has e^{zeta_l} proportional to
    a_l / m_l, so the start is exact when the reference constants are
    equal, and it is +0.0 bit for bit when the weights are.

    Each round, every point with a fresh evaluation tests convergence and
    takes its Newton step (one batched Cholesky factor and solve), and every
    point in its line search is evaluated in one stacked `_parts` call.
    Each point keeps its own iterations, ridge and step halvings, so it
    visits the iterates, and fails with the error, of a fit on its own.

    A step longer than MAX_STEP in max-norm is scaled down to it, with the
    Armijo slope of the scaled step; a step within the bound is taken bit
    for bit as solved, and one that overflows fails its point.  Every
    candidate is thus finite and needs no vanishing-state check.

    Each iterate is centred before it is evaluated, so a point's returned
    zeta is that of its last evaluation, whose B and membership
    probabilities are returned with it (None for a single chain).

    Returns (points, zeta, iterations, grad_norm, info, probs, errors):
    errors[i] is the EstimationError that stopped point i or None; row j
    of the rest, and of the (G_ok, k, n_l) stack of probabilities per
    chain, belongs to the converged point points[j].
    """
    g_count, k = a.shape
    if k != len(mats):
        raise ValueError("weights must have one entry per chain")
    errors: list = [None] * g_count
    if k == 1:
        return (np.arange(g_count), np.zeros((g_count, 1)), np.zeros(g_count, int),
                np.zeros(g_count), None, None, errors)
    n = float(n_per.sum())
    w = a * n / n_per
    zeta = np.log(a) - np.log(a[:, :1])
    zeta -= np.add.reduce(zeta, axis=1, keepdims=True) / k
    iterations = np.zeros(g_count, int)
    grad_norm = np.zeros(g_count)
    step = np.zeros((g_count, k))
    t = np.ones(g_count)
    slope = np.zeros(g_count)
    base = np.zeros(g_count)
    full_step = np.zeros(g_count, bool)
    halvings = np.zeros(g_count, int)
    state = np.full(g_count, _FRESH)

    def fail(points, message):
        state[points] = _FAILED
        for i in points:
            errors[i] = ConvergenceError(message)

    # Each round evaluates its L candidates, the first round its G starts,
    # into rows 0..L-1 of `work`, one (G, k, n_l) array per chain, so no
    # large array is allocated per round.  A converged point moves its row
    # to the end of `work`, filled from the last row down; the live points,
    # at most G minus those kept, stay clear of it, so the fit holds G rows
    # of membership probabilities at most.
    work = [np.empty((g_count,) + mat.shape) for mat in mats]
    ll, g, info, _ = _combine(_parts(mats, zeta, work), w, a)
    slot = np.arange(g_count)  # each point's row of work
    kept = 0
    eye = np.eye(k - 1)
    noise = 1e4 * np.finfo(float).eps
    while True:
        # Newton at the points evaluated last round
        fresh = np.flatnonzero(state == _FRESH)
        gf = g[fresh]
        # per-sample scale: the raw score is O(n), so an absolute cutoff
        # would sit below the float64 rounding floor for large chains
        gf = np.abs(gf - np.add.reduce(gf, axis=1, keepdims=True) / k)
        norm = np.maximum.reduce(gf, axis=1) / n
        grad_norm[fresh] = norm
        conv = norm <= TOL
        done = fresh[conv]
        state[done] = _DONE
        for i in fresh[~conv & (iterations[fresh] == MAX_ITER)]:
            fail([i], f"no convergence in {MAX_ITER} iterations (grad norm {grad_norm[i]:.3e})")
        new = np.flatnonzero(state == _FRESH)
        if new.size:
            # Newton in the reduced parameterization zeta_k = -sum_{j<k} zeta_j
            h = info[new]
            neg_h = n * (h[:, :-1, :-1] - h[:, :-1, -1:] - h[:, -1:, :-1] + h[:, -1:, -1:])
            g_red = g[new, :-1] - g[new, -1:]
            try:
                chol = np.linalg.cholesky(neg_h + 0.0 * eye)
            except np.linalg.LinAlgError:  # some point needs a ridge
                factors = [_ridged_cholesky(x) for x in neg_h]
                ok = np.array([c is not None for c in factors])
                fail(new[~ok], "reduced Hessian is not positive definite")
                new, g_red = new[ok], g_red[ok]
                chol = np.array([c for c in factors if c is not None]).reshape(-1, k - 1, k - 1)
            step_red = np.linalg.solve(
                chol.transpose(0, 2, 1), np.linalg.solve(chol, g_red[:, :, None]))[:, :, 0]
            with np.errstate(over="ignore"):  # an overflow fails its point below
                full = np.concatenate([step_red, -step_red.sum(axis=1, keepdims=True)], axis=1)
            ok = np.isfinite(full).all(axis=1)
            fail(new[~ok], "Newton step overflows")  # the reduced Hessian is numerically singular
            new, g_red, full = new[ok], g_red[ok], full[ok]
            # a step within MAX_STEP is divided by 1.0, which leaves it as it is
            step[new] = full / np.maximum(1.0, np.abs(full).max(axis=1) / MAX_STEP)[:, None]
            slope[new] = [float(x @ y) for x, y in zip(g_red, step[new, :-1])]
            base[new] = ll[new]
            # once the Newton decrement sinks below the objective's rounding
            # noise the Armijo test carries no signal; the full step is then
            # safely inside the quadratic basin and finishes the solve
            full_step[new] = slope[new] <= noise * (1.0 + np.abs(ll[new]))
            t[new] = 1.0
            halvings[new] = 0
            state[new] = _SEARCH
        live = np.flatnonzero(state == _SEARCH)
        # from the highest row down, so no copy lands on a row still to move
        for i in done[np.argsort(-slot[done])]:
            kept += 1
            for x in work:
                x[g_count - kept] = x[slot[i]]
            slot[i] = g_count - kept
        if not live.size:
            break
        # one stacked evaluation of every line-search candidate
        cand = zeta[live] + t[live, None] * step[live]
        cand -= np.add.reduce(cand, axis=1, keepdims=True) / k
        slot[live] = np.arange(live.size)
        c_ll, c_g, c_info, _ = _combine(
            _parts(mats, cand, [x[:live.size] for x in work]), w[live], a[live])
        ok = full_step[live] | (c_ll >= base[live] + 1e-4 * t[live] * slope[live])
        won = live[ok]
        zeta[won] = cand[ok]
        ll[won], g[won], info[won] = c_ll[ok], c_g[ok], c_info[ok]
        iterations[won] += 1
        state[won] = _FRESH
        lost = live[~ok]
        t[lost] *= 0.5
        halvings[lost] += 1
        fail(lost[halvings[lost] == 60], "line search failed to improve the objective")
    done = np.flatnonzero(state == _DONE)
    points = done[np.argsort(slot[done])]
    probs = [x[g_count - kept:] for x in work] if kept else None
    return points, zeta[points], iterations[points], grad_norm[points], info[points], probs, errors


def fit_reverse_logistic(
    samples: SampleSet,
    references: Sequence[UnnormalizedDensity],
    weights: StageWeights | None = None,
) -> np.ndarray:
    """Maximize the objective under sum(zeta) = 0 by damped Newton."""
    mats = log_density_matrices(samples, references)
    n_per = samples.n_per_chain
    a = (StageWeights(n_per) if weights is None else weights).a
    _, zeta, *_, errors = _fit(mats, a[None], n_per.astype(float))
    if errors[0] is not None:
        raise errors[0]
    return zeta[0]


def zeta_to_ratios(zeta, a) -> np.ndarray:
    """Map the fitted offsets to ratio estimates d_j = e^{z_1 - z_j} a_j / a_1,
    along the last axis of the same-shape arrays zeta and a."""
    return np.exp(zeta[..., :1] - zeta[..., 1:]) * a[..., 1:] / a[..., :1]


def ratio_jacobian(d_hat) -> np.ndarray:
    """Jacobian D of the zeta -> d map at the fitted point, (..., k, k-1)
    for d_hat of shape (..., k-1).

    Row 0 holds (d_2..d_k); row j has -d_{j+1} on its diagonal entry.
    Columns sum to zero.
    """
    km1 = d_hat.shape[-1]
    out = np.zeros(d_hat.shape[:-1] + (km1 + 1, km1))
    out[..., 0, :] = d_hat
    out[..., np.arange(1, km1 + 1), np.arange(km1)] = -d_hat
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
    a = np.asarray(a, dtype=float)[None]
    mats = log_density_matrices(samples, references)
    return _combine(_parts(mats, np.asarray(zeta, dtype=float)[None], None), a, a)[2][0]


def _omega(
    probs: list[np.ndarray],
    chains,
    a: np.ndarray,
    bm_spec: BatchMeansSpec,
    method: str,
) -> np.ndarray:
    """Omega for each row of the (G, k) weights a from one (G, k, n_l)
    stack of membership probabilities per chain: batch means over the whole
    stack, the regenerative route point by point."""
    if method not in ("bm", "rs"):
        raise ValueError("method must be 'bm' or 'rs'")
    n = sum(p.shape[2] for p in probs)
    omega = np.zeros((a.shape[0], a.shape[1], a.shape[1]))
    for l, p in enumerate(probs):
        if method == "bm":
            sigma_l = bm_cov(p, bm_spec)
        else:
            sigma_l = np.array([rs_long_run_cov(x, chains[l]) for x in p])
        omega += ((n / p.shape[2]) * a[:, l] ** 2)[:, None, None] * sigma_l
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
    a = np.asarray(a, dtype=float)[None]
    mats = log_density_matrices(samples, references)
    probs = _combine(_parts(mats, np.asarray(zeta, dtype=float)[None], None), a, a)[3]
    return _omega(probs, samples.chains, a, bm_spec, method)[0]


def sym_pseudo_inverse(mat) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix, or of each matrix of a
    (..., k, k) stack, via eigendecomposition.

    Eigenvalues with magnitude at most k * machine epsilon times the
    largest are treated as zero.
    """
    k = mat.shape[-1]
    vals, vecs = np.linalg.eigh(0.5 * (mat + np.swapaxes(mat, -1, -2)))
    cutoff = k * np.finfo(float).eps * np.max(np.abs(vals), axis=-1, keepdims=True, initial=0.0)
    inv_vals = np.where(np.abs(vals) > cutoff, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    out = (vecs * inv_vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _deflated_info_pinv(info: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of the curvature matrix, or of each of a stack, with
    its null space removed.

    The membership probabilities sum to one, so the curvature matrix
    always annihilates the all-ones vector.  Assembly rounding can leave
    that eigenvalue slightly positive, and a generic rank cutoff then
    inverts noise into enormous entries.  Shifting along the known null
    direction before inverting and subtracting the shift afterwards is
    exact when the row sums vanish and stays bounded when they almost do.
    A matrix with no positive trace has the pseudo-inverse zero.  `info`
    is exactly symmetric, as `_combine` forms it, and so is the result.
    """
    k = info.shape[-1]
    lam = np.trace(info, axis1=-2, axis2=-1)[..., None, None]
    zero = lam <= 0.0
    shift = np.where(zero, 1.0, lam)
    j = np.full((k, k), 1.0 / k)
    out = sym_pseudo_inverse(info + shift * j) - j / shift
    return np.where(zero, 0.0, out)


def _overlap_errors(info: np.ndarray, labels: Sequence[str]) -> list:
    """For each matrix of a (G, k, k) stack of curvature matrices, None if
    the graph with an edge wherever B_rs < 0 (some draw has mass under both
    r and s) is connected, which the ratios need to be identified (Vardi
    1985; Geyer 1994), else the InsufficientDataError naming the split."""
    linked = np.eye(len(labels), dtype=bool) | (info < 0)
    group = linked[:, 0]
    for _ in labels:  # grow the first reference's group to a fixpoint
        group = (linked & group[:, :, None]).any(axis=1)
    errors: list = [None] * len(group)
    for i in np.flatnonzero(~group.all(axis=1)):
        split = [[x for x, y in zip(labels, group[i]) if y == side] for side in (True, False)]
        errors[i] = InsufficientDataError(
            "no draw has mass under a reference of {} and one of {}, so the ratios "
            "between the two groups are not identified".format(*split)
        )
    return errors


def ratio_covariance(d_jacobian, info_pinv, omega) -> np.ndarray:
    """Sandwich covariance D^T B^+ Omega B^+ D of the scaled ratio errors,
    of one point or of each of a stack."""
    inner = info_pinv @ omega @ info_pinv
    out = np.swapaxes(d_jacobian, -1, -2) @ inner @ d_jacobian
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _estimate_from_fit(
    fit: tuple,
    chains,
    a: np.ndarray,
    n_per: np.ndarray,
    bm_spec: BatchMeansSpec,
    se_method: str,
) -> list:
    """Ratios and their covariance for each point of a `_fit` result,
    whose (G, k) weights are a.

    B and Omega come from the membership probabilities of each point's
    last evaluation, taken at its returned zeta; the log-density matrices
    are not needed, so a caller that is done with them can free them
    first.  Returns, per point, its RatioEstimate or the EstimationError
    that stopped it.
    """
    points, zeta, iterations, grad_norm, info, probs, errors = fit
    out = list(errors)
    a = a[points]
    methods = [m for m in ("bm", "rs") if se_method in (m, "both")]
    covs = {m: np.zeros((points.size, 0, 0)) for m in methods}
    failed = [None] * points.size
    with np.errstate(over="ignore", invalid="ignore"):  # out of range is checked below
        d_hat = zeta_to_ratios(zeta, a)
        if a.shape[1] > 1 and points.size:
            failed = _overlap_errors(info, [c.density_id for c in chains])
            jac = ratio_jacobian(d_hat)
            info_pinv = _deflated_info_pinv(info)
            try:  # Omega's errors come from the chains alone, so every point shares them
                covs = {
                    m: ratio_covariance(jac, info_pinv, _omega(probs, chains, a, bm_spec, m))
                    for m in methods
                }
            except EstimationError as err:
                failed = [err if e is None else e for e in failed]
        d_sq = d_hat * d_hat  # the covariance scales with d^2, so it must be a normal float
    finite = (np.isfinite(d_sq) & (d_sq >= np.finfo(float).tiny)).all(axis=1)
    for c in covs.values():
        finite &= np.isfinite(c).all(axis=(1, 2))
    for j, i in enumerate(points):
        if failed[j] is None and not finite[j]:
            failed[j] = DegenerateDenominatorError(
                "ratio estimates or their covariance leave float range")
        out[i] = failed[j] or RatioEstimate(
            d_hat=d_hat[j],
            zeta_hat=zeta[j],
            a=a[j],
            n_per_chain=n_per,
            cov_bm=covs["bm"][j] if "bm" in covs else None,
            cov_rs=covs["rs"][j] if "rs" in covs else None,
            iterations=int(iterations[j]),
            grad_norm=float(grad_norm[j]),
        )
    return out


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
    a = (StageWeights(n_per) if weights is None else weights).a[None]
    fit = _fit(mats, a, n_per.astype(float))
    del mats  # the Omega routes need only the fit's membership probabilities
    (est,) = _estimate_from_fit(fit, samples.chains, a, n_per, bm_spec, se_method)
    if isinstance(est, EstimationError):
        raise est
    return est
