"""Chain-weight strategies for both stages.

Stage-1 weights a enter the reverse-logistic objective; stage-2 weights
enter the importance-weight mixture.  Strategies here cover the pooled
default (proportional to chain lengths), inverse-distance and
ESS-discounted inverse-distance rules for location families, and a pilot
grid search that minimizes the trace of the stage-1 asymptotic
covariance.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

from .batch_means import DEFAULT_BM_SPEC, MIN_DRAWS, BatchMeansSpec, block_size, bm_cov
from .errors import ConvergenceError, EstimationError
from .reverse_logistic import (
    StageWeights,
    _estimate_from_fit,
    _fit,
    _parts,
    log_density_matrices,
)
from .samplers import SampleSet

WEIGHT_FLOOR = 1e-6
DEFAULT_STEP = 0.05  # pilot grid spacing on the simplex


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


def ess_inv_dist_weights(mu: float, ref_locations, ess_per_chain) -> np.ndarray:
    """Inverse-distance weights with lengths replaced by effective sizes."""
    ess = np.asarray(ess_per_chain, dtype=float)
    if np.any(ess <= 0):
        raise ValueError("effective sample sizes must be positive")
    return inv_dist_weights(mu, ref_locations, ess)


def effective_sample_size(
    series, bm_spec: BatchMeansSpec = DEFAULT_BM_SPEC
) -> float:
    """n * sample variance / batch-means long-run variance, clamped to (0, n].

    Degenerate cases (zero sample variance or zero long-run variance)
    return n.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < MIN_DRAWS:
        raise ValueError(f"series must be 1-d with at least {MIN_DRAWS} entries")
    n = x.size
    s2 = float(np.var(x, ddof=1))
    if s2 == 0.0:
        return float(n)
    lrv = float(bm_cov([x], block_size(n, bm_spec))[0, 0])
    if lrv <= 0.0:
        return float(n)
    return float(min(n * s2 / lrv, n))


def simplex_grid(k: int, step: float = DEFAULT_STEP):
    """Positive weight vectors on the k-simplex with the given step."""
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 < step < 1:
        raise ValueError("step must lie strictly between 0 and 1")
    if k == 1:
        return [np.array([1.0])]
    m = int(round(1.0 / step))
    grid = []
    for parts in product(range(1, m), repeat=k - 1):
        if sum(parts) < m:
            vec = np.array(parts + (m - sum(parts),), dtype=float) / m
            if np.all(vec >= WEIGHT_FLOOR):
                grid.append(vec)
    return grid


def pilot_optimal_weights(
    pilot_samples: SampleSet,
    references,
    grid: Sequence | None = None,
    bm_spec: BatchMeansSpec = DEFAULT_BM_SPEC,
    step: float = DEFAULT_STEP,
) -> tuple[np.ndarray, dict]:
    """Grid search for the stage-1 weights minimizing trace of the covariance.

    The log-density matrices, and the evaluator's weight-free parts at
    zeta = 0 (with its vanishing-state check), are computed once and
    shared by every grid point; each point combines them with its own
    weights, so its trace equals that of a separate `estimate_ratios`
    bit for bit.  Each grid point is fitted from zeta = 0, since a warm
    start moves the converged zeta by rounding and can flip near-tied
    choices.  If the shared parts raise, each point evaluates zeta = 0
    itself and fails as it would alone.  Grid points where the fit or
    the covariance fails are skipped; ties are broken toward the pooled
    naive weights, then lexicographically.  Returns the winning weights
    and a diagnostics map from grid points to traces (NaN where skipped).
    """
    k = len(references)
    if grid is None:
        grid = simplex_grid(k, step=step)
    if len(grid) == 0:
        raise ValueError("empty weight grid")
    n_per = pilot_samples.n_per_chain
    n_per_f = n_per.astype(float)
    naive = naive_weights(n_per)
    mats = log_density_matrices(pilot_samples, references)
    try:
        start = _parts(mats, np.zeros(k))
    except EstimationError:
        start = None
    diagnostics: dict[tuple, float] = {}
    best: tuple | None = None
    for a_vec in grid:
        a_vec = np.asarray(a_vec, dtype=float)
        key = tuple(a_vec)
        a = StageWeights(a_vec).a
        try:
            est = _estimate_from_fit(
                _fit(mats, a, n_per_f, start=start),
                pilot_samples.chains, a, n_per, bm_spec, "bm",
            )
            score = float(np.trace(est.cov)) if est.cov.size else 0.0
        except EstimationError:
            diagnostics[key] = float("nan")
            continue
        diagnostics[key] = score
        if best is None or score < best[0]:
            best = (score, key)
        elif score == best[0]:
            # tie: prefer naive, then the lexicographically smaller point
            if np.allclose(key, naive) and not np.allclose(best[1], naive):
                best = (score, key)
            elif key < best[1] and not np.allclose(best[1], naive):
                best = (score, key)
    if best is None:
        raise ConvergenceError("every grid point failed in the pilot search")
    return np.asarray(best[1]), diagnostics
