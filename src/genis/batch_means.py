"""Nonoverlapping batch means estimation of long-run covariance matrices.

For a stationary series Z_1..Z_n in R^p split into e = floor(n/b) blocks
of length b, the estimator is

    (b / (e - 1)) * sum_m (Zbar_m - Zbb)(Zbar_m - Zbb)^T,

where Zbar_m are block means and Zbb is the grand mean over the e*b
points actually used.  Trailing remainder points are dropped.  `bm_cov`
takes the p series as rows, a (p, n) array or p separate 1-d arrays, and
accumulates entries per row pair in a fixed order, so the (j, j) entry of
a p-row call is bitwise identical to a one-row call on row j.
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


def block_size(n: int, spec: BatchMeansSpec = DEFAULT_BM_SPEC) -> int:
    """Block length for a series of length n, clamped so floor(n/b) >= 2."""
    n = int(n)
    if n < 4:
        raise InsufficientDataError(f"batch means needs n >= 4, got {n}")
    if spec.explicit_b is not None:
        b = int(spec.explicit_b)
    else:
        b = int(math.floor(n**spec.nu))
    return max(1, min(b, n // 2))


def bm_cov(rows, b: int) -> np.ndarray:
    """Batch means long-run covariance of the series whose p rows are given.

    `rows` is a (p, n) array or a sequence of p 1-d arrays of one length.
    Returns a (p, p) symmetric PSD matrix on the per-sample scale, i.e. it
    estimates lim n*Cov(mean of the series).
    """
    rows = [np.asarray(r, dtype=float) for r in rows]
    n = rows[0].shape[0] if rows and rows[0].ndim == 1 else 0
    if n < 1 or any(r.ndim != 1 or r.shape[0] != n for r in rows):
        raise ValueError("rows must be nonempty 1-d arrays of one length")
    b = int(b)
    if b < 1:
        raise ValueError("block size must be positive")
    e = n // b
    if e < 2:
        raise InsufficientDataError(
            f"batch means needs at least 2 full blocks, got n={n}, b={b}"
        )
    # contiguous blocks and centered rows keep the reduction and np.dot on
    # one kernel whatever the layout and however many rows share the call;
    # add.reduce / count is np.mean's own arithmetic without its wrapper
    centered = []
    for row in rows:
        m = np.add.reduce(np.ascontiguousarray(row[: e * b]).reshape(e, b), axis=1) / b
        centered.append(m - np.add.reduce(m) / e)
    p = len(rows)
    out = np.empty((p, p))
    scale = b / (e - 1)
    for j in range(p):
        for k in range(j, p):
            s = scale * float(np.dot(centered[j], centered[k]))
            out[j, k] = s
            out[k, j] = s
    return out
