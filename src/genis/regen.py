"""Regeneration tours: bookkeeping and the regenerative long-run covariance.

Chains carrying regeneration marks decompose into iid tours.  Only
`tour_boundaries` turns a chain into tours: an iid chain without marks
makes every draw a tour, and any other chain needs at least two marks.
Both users of that decomposition take a chain, call it, and sum their
series over the tours with `_tour_sums`:

- `importance.target_tours` gives, per chain and per complete tour, the
  rows of ``tours.csv`` as a `ChainTours`, from the stage-2 mixture that
  `importance` builds for the target sweep;
- `rs_long_run_cov`, stage 1's regenerative route, estimates the long-run
  covariance of series given as the rows of a (k, n) array along a chain,
  the layout `bm_cov` takes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InsufficientRegenerationError
from .samplers import ChainSample


class ChainTours(NamedTuple):
    """Complete tours of one chain: lengths and per-tour sums."""

    density_id: str
    lengths: np.ndarray
    u_sums: np.ndarray
    v_sums: np.ndarray | None


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


def rs_long_run_cov(rows: np.ndarray, chain: ChainSample) -> np.ndarray:
    """Regenerative estimate of the long-run covariance of a vector series.

    `rows` is a (k, n) float array of k series along `chain`, the layout
    `bm_cov` takes.  Tour sums G_t over the chain's complete tours give the
    per-sample scale estimate sum_t (G_t - gbar T_t)(G_t - gbar T_t)^T /
    sum_t T_t, with gbar the ratio estimate of the series mean.  For an
    iid chain without marks every draw is a tour, and this is the plain
    sample covariance.
    """
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
