"""Regeneration tours: bookkeeping and the regenerative long-run covariance.

Chains carrying regeneration marks decompose into iid tours.  Both users
of that decomposition sum their series over tours with `_tour_sums`:

- `split_tours` gives, per chain and per complete tour, the rows of
  ``tours.csv``: the length T_t and the sums U_t of the importance weights
  and V_t of the weighted integrand, with

      u(x) = nu(x) / sum_l w_l nu_l(x),

  which does not involve the stage-1 ratio estimates;
- `rs_long_run_cov`, stage 1's regenerative route, estimates the long-run
  covariance of series given as rows, as `bm_cov` takes them.
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


def _tour_sums(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums of an (n,) or (n, k) series over the tours [bounds[t],
    bounds[t + 1]), taken along axis 0; the first tour starts at 0."""
    ends = bounds[1:] - 1
    csum = np.cumsum(x, axis=0)
    sums = csum[ends]
    sums[1:] -= csum[ends[:-1]]
    return sums


def split_tours(
    samples: SampleSet,
    references: Sequence[UnnormalizedDensity],
    target: UnnormalizedDensity,
    w,
    f: Integrand | None = None,
) -> list[ChainTours]:
    """Tour sums of u (and v = f*u when f is given) for every chain."""
    samples.check_aligned(references)
    w = np.asarray(w, dtype=float)
    if w.shape != (len(references),) or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("w must be a positive weight per reference")
    out = []
    for chain in samples.chains:
        bounds = tour_boundaries(chain)
        ref_log = np.column_stack([r.log_density(chain.states) for r in references])
        log_mix = log_sum_exp_rows(ref_log + np.log(w))
        with np.errstate(over="ignore"):
            u = np.exp(target.log_density(chain.states) - log_mix)
        if not np.all(np.isfinite(u)):
            raise DegenerateDenominatorError(
                f"importance weights overflow for target {target.id!r}"
            )
        u_sums = _tour_sums(u, bounds)
        v_sums = None if f is None else _tour_sums(f.values(chain.states) * u, bounds)
        out.append(ChainTours(chain.density_id, np.diff(bounds), u_sums, v_sums))
    return out


def rs_long_run_cov(rows, marks) -> np.ndarray:
    """Regenerative estimate of the long-run covariance of a vector series.

    `rows` is a (k, n) array or a sequence of k 1-d arrays, as for
    `bm_cov`.  Tour sums G_t over complete tours give the per-sample scale
    estimate sum_t (G_t - gbar T_t)(G_t - gbar T_t)^T / sum_t T_t, with
    gbar the ratio estimate of the series mean.  marks=None means iid
    (per-draw tours), in which case this reduces to the plain sample
    covariance.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be a (k, n) array or a list of 1-d arrays")
    x = rows.T  # (n, k): C-ordered (m, k) tour sums add up tour by tour
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
    sums = _tour_sums(x, bounds)
    total_t = lengths.sum()
    gbar = sums.sum(axis=0) / total_t
    sums -= lengths[:, None] * gbar
    return (sums.T @ sums) / total_t
