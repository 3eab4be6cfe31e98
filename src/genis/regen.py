"""Regeneration tours: bookkeeping and the regenerative long-run covariance.

Chains carrying regeneration marks decompose into iid tours.  Only
`tour_boundaries` turns a chain into tours: an iid chain without marks
makes every draw a tour, and any other chain needs at least two marks.
Both users of that decomposition take a chain, call it, and sum their
series over the tours with `_tour_sums`:

- `split_tours` gives, per chain and per complete tour, the rows of
  ``tours.csv``: the length T_t and the sums U_t of the importance weights
  and V_t of the weighted integrand, with

      u(x) = nu(x) / sum_l w_l nu_l(x),

  which does not involve the stage-1 ratio estimates;
- `rs_long_run_cov`, stage 1's regenerative route, estimates the long-run
  covariance of series given as rows along a chain, as `bm_cov` takes
  them.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .densities import Integrand, UnnormalizedDensity, log_sum_exp_rows
from .errors import (
    DegenerateDenominatorError,
    InsufficientRegenerationError,
)
from .samplers import ChainSample, SampleSet


class ChainTours(NamedTuple):
    """Complete tours of one chain: lengths and per-tour sums."""

    density_id: str
    lengths: np.ndarray
    u_sums: np.ndarray
    v_sums: np.ndarray | None = None


def tour_boundaries(chain: ChainSample) -> np.ndarray:
    """Start indices of complete tours plus one past-the-end sentinel.

    An iid chain without marks regenerates at every step, so each draw is
    its own tour.  Any other chain needs recorded marks; the segment after
    the last mark is an incomplete tour and is dropped.
    """
    if chain.kind == "iid" and chain.regen_marks is None:
        return np.arange(chain.n + 1, dtype=np.int64)
    if chain.regen_marks is None:
        raise ValueError(f"chain {chain.density_id!r} has no regeneration marks")
    starts = np.flatnonzero(chain.regen_marks)
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
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            u = np.exp(target.log_density(chain.states) - log_mix)
            u_sums = _tour_sums(u, bounds)
            v_sums = None if f is None else _tour_sums(f.values(chain.states) * u, bounds)
        if not all(np.isfinite(x).all() for x in (u, u_sums, v_sums) if x is not None):
            raise DegenerateDenominatorError(
                f"importance weights or their tour sums overflow for target {target.id!r}"
            )
        out.append(ChainTours(chain.density_id, np.diff(bounds), u_sums, v_sums))
    return out


def rs_long_run_cov(rows, chain: ChainSample) -> np.ndarray:
    """Regenerative estimate of the long-run covariance of a vector series.

    `rows` is a (k, n) array or a sequence of k 1-d arrays, as for
    `bm_cov`, evaluated along `chain`.  Tour sums G_t over the chain's
    complete tours give the per-sample scale estimate
    sum_t (G_t - gbar T_t)(G_t - gbar T_t)^T / sum_t T_t, with gbar the
    ratio estimate of the series mean.  For an iid chain without marks
    every draw is a tour, and this is the plain sample covariance.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != chain.n:
        raise ValueError("rows must be a (k, n) array or k 1-d arrays along the chain")
    x = rows.T  # (n, k): C-ordered (m, k) tour sums add up tour by tour
    if chain.kind == "iid" and chain.regen_marks is None:
        centered = x - x.mean(axis=0)
        return centered.T @ centered / chain.n
    bounds = tour_boundaries(chain)
    lengths = np.diff(bounds).astype(float)
    sums = _tour_sums(x, bounds)
    total_t = lengths.sum()
    gbar = sums.sum(axis=0) / total_t
    sums -= lengths[:, None] * gbar
    return (sums.T @ sums) / total_t
