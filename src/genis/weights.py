"""Chain-weight strategies for both stages.

Stage-1 weights a enter the reverse-logistic objective; stage-2 weights
enter the importance-weight mixture.  Strategies here cover the pooled
default (proportional to chain lengths), inverse-distance rules for
location families (lengths or effective sizes per chain), and a pilot
grid search that minimizes the trace of the stage-1 asymptotic
covariance.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .batch_means import DEFAULT_BM_SPEC, MIN_DRAWS, BatchMeansSpec, bm_cov
from .errors import ConvergenceError
from .reverse_logistic import (
    RatioEstimate,
    StageWeights,
    _estimate_from_fit,
    _fit,
    _overlap_errors,
    _parts,
    log_density_matrices,
)
from .samplers import SampleSet

WEIGHT_FLOOR = 1e-6
DEFAULT_STEP = 0.05  # the config's pilot grid spacing on the simplex
# the most pilot grid points, and parts per weight, a step may give: a point
# takes 1-1.5 ms to fit at 3 x 2,000 pilot draws and ~0.5 KB to list, so the
# largest search takes 100-150 s and lists ~50 MB
MAX_GRID_POINTS = 10**5
# grid points fitted in lockstep at once: more share each round's fixed
# cost, but their membership probabilities are alive together
PILOT_CHUNK = 6


def naive_weights(n_per_chain) -> np.ndarray:
    """Weights proportional to chain lengths."""
    n_per = np.asarray(n_per_chain, dtype=float)
    if n_per.ndim != 1 or np.any(n_per <= 0):
        raise ValueError("chain lengths must be positive")
    return n_per / n_per.sum()


def inv_dist_weights(mu: float, ref_locations, n_per_chain) -> np.ndarray:
    """Weights proportional to n_l / |mu - mu_l|, floored; one-hot on an
    exact match, so a target at a reference's location takes its estimate
    from that reference's chain alone."""
    locs = np.asarray(ref_locations, dtype=float)
    n_per = np.asarray(n_per_chain, dtype=float)
    if locs.shape != n_per.shape:
        raise ValueError("one location per chain required")
    dist = np.abs(float(mu) - locs)
    hit = dist == 0.0
    if np.any(hit):
        out = np.zeros(locs.size)
        out[np.argmax(hit)] = 1.0
        return out
    a = np.maximum(n_per / dist / np.sum(n_per / dist), WEIGHT_FLOOR)
    return a / a.sum()


def effective_sample_size(
    series, bm_spec: BatchMeansSpec = DEFAULT_BM_SPEC
) -> float:
    """n * sample variance / batch-means long-run variance, clamped to (0, n].

    Degenerate cases (a sample or long-run variance that is zero, or that
    leaves float range on states near it) return n.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < MIN_DRAWS:
        raise ValueError(f"series must be 1-d with at least {MIN_DRAWS} entries")
    n = x.size
    with np.errstate(over="ignore", invalid="ignore"):
        s2 = float(np.var(x, ddof=1))
        lrv = float(bm_cov(x[None], bm_spec)[0, 0]) if 0.0 < s2 < math.inf else 0.0
    if not 0.0 < lrv < math.inf:
        return float(n)
    return float(min(n * s2 / lrv, n))


def simplex_grid(k: int, step: float):
    """Positive weight vectors on the k-simplex with the given step: the
    compositions of m = round(1/step) into k positive parts, over m, one per
    choice of k - 1 cut points among 1, ..., m - 1, in lexicographic order,
    yielded lazily once arithmetic on k and m shows it nonempty and within
    MAX_GRID_POINTS, so that every part, 1/m or more, passes WEIGHT_FLOOR."""
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 < step < 1:
        raise ValueError("step must lie strictly between 0 and 1")
    if not 1.0 / step <= MAX_GRID_POINTS + 0.5:  # m past the bound, or 1/step inf
        raise ValueError(f"step {step:g} is finer than the grid's bound 1/{MAX_GRID_POINTS}")
    m = round(1.0 / step)
    if m < k:
        raise ValueError(f"step {step:g} leaves an empty weight grid for {k} references")
    points = math.comb(m - 1, k - 1)
    if points > MAX_GRID_POINTS:
        raise ValueError(f"step {step:g} gives {points} grid points for {k} references, "
                         f"more than {MAX_GRID_POINTS}")
    def vectors():
        for cuts in combinations(range(1, m), k - 1):
            yield np.diff((0, *cuts, m)) / m
    return vectors()


def pilot_optimal_weights(
    pilot_samples: SampleSet,
    references,
    step: float,
    bm_spec: BatchMeansSpec = DEFAULT_BM_SPEC,
) -> tuple[np.ndarray, dict]:
    """Search simplex_grid(k, step) for the stage-1 weights minimizing tr(cov).

    The log-density matrices (with their vanishing-state check), and the
    evaluator's weight-free parts at zeta = 0, are computed once and
    shared by every grid point.  The points are fitted, and their
    covariances estimated, PILOT_CHUNK at a time in one lockstep kernel;
    each point combines the shared parts with its own weights and takes
    its own Newton iterations, so its trace equals that of a separate
    `estimate_ratios` bit for bit.  A chunk's membership probabilities
    are dropped once its estimates are taken, so the search's memory
    does not grow with the grid: beyond the pilot it peaks near
    1.2 PILOT_CHUNK + 3 copies of the pilot's (k, sum n_l) float64
    matrix (9.9 at 3 x 2,000 draws; test_pilot_grid_memory_peak bounds
    it at 12), against 47 with all 36 points of a step-0.1 grid stacked.
    Each grid point is fitted from zeta = 0, since a warm start moves the
    converged zeta by rounding and can flip near-tied choices.  A state
    where every reference vanishes raises UndefinedPointError, as a single
    fit does; if no draw links the references into one group, the search
    raises InsufficientDataError.  Grid points where the fit or the
    covariance fails are skipped; ties are broken toward the pooled naive
    weights, then lexicographically.  Returns the winning weights and a
    diagnostics map from grid points to traces (NaN where skipped).
    """
    k = len(references)
    points = np.asarray(list(simplex_grid(k, step)), dtype=float)
    n_per = pilot_samples.n_per_chain
    n_per_f = n_per.astype(float)
    mats = log_density_matrices(pilot_samples, references)
    start = _parts(mats, np.zeros((1, k)), None)
    # under any weights, B at zeta = 0 has the signs of this sum
    labels = [c.density_id for c in pilot_samples.chains]
    (overlap,) = _overlap_errors(sum(p[2] for p in start), labels)
    if overlap is not None:
        raise overlap
    weights = np.array([StageWeights(a_vec).a for a_vec in points])
    traces = np.full(len(points), math.nan)
    for lo in range(0, len(points), PILOT_CHUNK):
        a = weights[lo:lo + PILOT_CHUNK]
        fit = _fit(mats, a, n_per_f, start=start)
        for i, est in enumerate(
            _estimate_from_fit(fit, pilot_samples.chains, a, n_per, bm_spec, "bm"), lo
        ):
            if isinstance(est, RatioEstimate):
                traces[i] = float(np.trace(est.cov)) if est.cov.size else 0.0
        del fit  # a chunk's membership probabilities go with its estimates
    keys = [tuple(pt) for pt in points]
    diagnostics = {key: float(trace) for key, trace in zip(keys, traces)}
    is_naive = dict(zip(keys, np.isclose(points, naive_weights(n_per)).all(axis=1)))
    ok = [pt for pt, trace in diagnostics.items() if not math.isnan(trace)]
    if not ok:
        raise ConvergenceError("every grid point failed in the pilot search")
    best = min(ok, key=lambda pt: (diagnostics[pt], not is_naive[pt], pt))
    return np.asarray(best), diagnostics
