"""Nonoverlapping batch means estimation of long-run covariance matrices.

For a stationary series Z_1..Z_n in R^p split into e = floor(n/b) blocks
of length b, the estimator is

    (b / (e - 1)) * sum_m (Zbar_m - Zbb)(Zbar_m - Zbb)^T,

where Zbar_m are block means and Zbb is the grand mean over the e*b
points actually used.  Trailing remainder points are dropped.  `bm_cov`
takes the p series as the rows of a (p, n) array, or a (..., p, n) stack
of such series, and a `BatchMeansSpec`, from which `block_size`, the owner
of the two-batch rule, gives b.  It accumulates entries per row pair in a
fixed order, so the (j, j) entry of a p-row call is bitwise identical to a
one-row call on row j, and each series of a stack gives what it gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError


@dataclass(frozen=True)
class BatchMeansSpec:
    """Block size policy: explicit_b if given, else floor(n**nu)."""

    nu: float = 0.5
    explicit_b: int | None = None

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ValueError("nu must lie strictly between 0 and 1")
        if self.explicit_b is not None and int(self.explicit_b) < 1:
            raise ValueError("explicit_b must be a positive integer")


DEFAULT_BM_SPEC = BatchMeansSpec()
MIN_DRAWS = 4  # the fewest draws that give two blocks of two


def block_size(n: int, spec: BatchMeansSpec = DEFAULT_BM_SPEC) -> int:
    """Block length for a series of length n, clamped so floor(n/b) >= 2."""
    n = int(n)
    if n < MIN_DRAWS:
        raise InsufficientDataError(f"batch means needs n >= {MIN_DRAWS}, got {n}")
    if spec.explicit_b is not None:
        b = int(spec.explicit_b)
    else:
        b = int(math.floor(n**spec.nu))
    return max(1, min(b, n // 2))


def bm_cov(rows: np.ndarray, spec: BatchMeansSpec) -> np.ndarray:
    """Batch means long-run covariance of the series whose p rows are given.

    `rows` is a (p, n) float array, or a (..., p, n) stack of p-row series,
    in blocks of `block_size(n, spec)`.  Returns one (p, p) symmetric PSD
    matrix per series, (..., p, p), on the per-sample scale, i.e. it
    estimates lim n*Cov(mean of the series).
    """
    n = rows.shape[-1]
    b = block_size(n, spec)
    e = n // b
    # contiguous blocks and centered rows keep the reduction and np.dot on
    # one kernel whatever the layout and however many rows share the call
    # (rows that are each contiguous split into blocks without a copy);
    # add.reduce / count is np.mean's own arithmetic without its wrapper
    blocks = rows[..., : e * b]
    if blocks.strides[-1] != blocks.itemsize:
        blocks = np.ascontiguousarray(blocks)
    means = np.add.reduce(blocks.reshape(rows.shape[:-1] + (e, b)), axis=-1) / b
    centered = means - np.add.reduce(means, axis=-1, keepdims=True) / e
    # every (j, k) entry is the dot product of rows j and k: a stacked
    # (1, e) @ (e, 1) product runs the same BLAS dot per pair as np.dot
    dots = centered[..., :, None, None, :] @ centered[..., None, :, :, None]
    return (b / (e - 1)) * dots[..., 0, 0]
