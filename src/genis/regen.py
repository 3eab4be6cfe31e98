"""Regeneration tours: bookkeeping and the regenerative long-run covariance.

Chains carrying regeneration marks decompose into iid tours.  Two users
share that decomposition here:

- ``tours.csv`` lists, per complete tour, its length T_t and the sums
  U_t of the importance weights and V_t of the weighted integrand, with

      u(x) = nu(x) / sum_l w_l nu_l(x),

  which does not involve the stage-1 ratio estimates;
- stage 1's regenerative route estimates the long-run covariance of the
  membership-probability series from tour sums (``rs_long_run_cov``),
  independently of the batch-means route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densities import Integrand, UnnormalizedDensity, log_sum_exp_rows
from .errors import (
    DegenerateDenominatorError,
    InsufficientRegenerationError,
)
from .samplers import ChainSample, SampleSet


@dataclass(frozen=True)
class ChainTours:
    """Complete tours of one chain: lengths and per-tour sums."""

    density_id: str
    lengths: np.ndarray
    u_sums: np.ndarray
    v_sums: np.ndarray | None = None

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=np.int64)
        u_sums = np.asarray(self.u_sums, dtype=float)
        if lengths.ndim != 1 or lengths.size < 1:
            raise ValueError("need at least one complete tour")
        if u_sums.shape != lengths.shape:
            raise ValueError("u_sums must align with lengths")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "u_sums", u_sums)
        if self.v_sums is not None:
            v_sums = np.asarray(self.v_sums, dtype=float)
            if v_sums.shape != lengths.shape:
                raise ValueError("v_sums must align with lengths")
            object.__setattr__(self, "v_sums", v_sums)


def tour_boundaries(chain: ChainSample) -> np.ndarray:
    """Start indices of complete tours plus one past-the-end sentinel.

    iid chains regenerate at every step, so each draw is its own tour.
    Markov chains need recorded marks; the segment after the last mark is
    an incomplete tour and is dropped.
    """
    n = chain.n
    if chain.kind == "iid" and chain.regen_marks is None:
        return np.arange(n + 1, dtype=np.int64)
    if chain.regen_marks is None:
        raise ValueError(f"chain {chain.density_id!r} has no regeneration marks")
    starts = np.flatnonzero(chain.regen_marks)
    if chain.kind == "iid":
        # explicit all-True marks mean per-draw tours, all complete
        if starts.size == n:
            return np.arange(n + 1, dtype=np.int64)
    if starts.size < 2:
        raise InsufficientRegenerationError(
            f"chain {chain.density_id!r}: fewer than two regeneration marks"
        )
    return starts.astype(np.int64)


def _tour_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    csum = np.concatenate(([0.0], np.cumsum(values)))
    return csum[bounds[1:]] - csum[bounds[:-1]]


def split_tours(
    chain: ChainSample,
    references: Sequence[UnnormalizedDensity],
    target: UnnormalizedDensity,
    w,
    f: Integrand | None = None,
) -> ChainTours:
    """Tour sums of u (and v = f*u when f is given) for one chain."""
    w = np.asarray(w, dtype=float)
    if w.shape != (len(references),) or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("w must be a positive weight per reference")
    bounds = tour_boundaries(chain)
    ref_log = np.column_stack([r.log_density(chain.states) for r in references])
    log_mix = log_sum_exp_rows(ref_log + np.log(w))
    with np.errstate(over="ignore"):
        u = np.exp(target.log_density(chain.states) - log_mix)
    if not np.all(np.isfinite(u)):
        raise DegenerateDenominatorError(
            f"importance weights overflow for target {target.id!r}"
        )
    lengths = np.diff(bounds)
    u_sums = _tour_sums(u, bounds)
    v_sums = None
    if f is not None:
        v_sums = _tour_sums(f.values(chain.states) * u, bounds)
    return ChainTours(
        density_id=chain.density_id,
        lengths=lengths,
        u_sums=u_sums,
        v_sums=v_sums,
    )


def collect_tours(
    samples: SampleSet,
    references: Sequence[UnnormalizedDensity],
    target: UnnormalizedDensity,
    w,
    f: Integrand | None = None,
) -> list[ChainTours]:
    """split_tours applied to every chain of a sample set."""
    if len(samples.chains) != len(references):
        raise ValueError("one chain per reference required")
    for chain, ref in zip(samples.chains, references):
        if chain.density_id != ref.id:
            raise ValueError(
                f"chain order mismatch: {chain.density_id!r} vs {ref.id!r}"
            )
    return [split_tours(c, references, target, w, f) for c in samples.chains]


def rs_long_run_cov(series, marks) -> np.ndarray:
    """Regenerative estimate of the long-run covariance of a vector series.

    Tour sums G_t over complete tours give the per-sample scale estimate
    sum_t (G_t - gbar T_t)(G_t - gbar T_t)^T / sum_t T_t, with gbar the
    ratio estimate of the series mean.  marks=None means iid (per-draw
    tours), in which case this reduces to the plain sample covariance.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if marks is None:
        centered = x - x.mean(axis=0)
        return centered.T @ centered / n
    marks = np.asarray(marks, dtype=bool)
    if marks.shape != (n,) or not marks[0]:
        raise ValueError("marks must align with the series and start a tour at 0")
    bounds = np.flatnonzero(marks)
    if bounds.size < 2:
        raise InsufficientRegenerationError("fewer than two regeneration marks")
    lengths = np.diff(bounds).astype(float)
    # tour t sums rows bounds[t]..ends[t]; the first tour starts at row 0
    ends = bounds[1:] - 1
    csum = np.cumsum(x, axis=0)
    sums = csum[ends]
    sums[1:] -= csum[ends[:-1]]
    del csum
    total_t = lengths.sum()
    gbar = sums.sum(axis=0) / total_t
    sums -= lengths[:, None] * gbar
    return (sums.T @ sums) / total_t

