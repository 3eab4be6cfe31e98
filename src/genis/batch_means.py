"""Nonoverlapping batch means estimation of long-run covariance matrices.

For a stationary series Z_1..Z_n in R^p split into e = floor(n/b) blocks
of length b, the estimator is

    (b / (e - 1)) * sum_m (Zbar_m - Zbb)(Zbar_m - Zbb)^T,

where Zbar_m are block means and Zbb is the grand mean over the e*b rows
actually used.  Trailing remainder rows are dropped.  Entries are
accumulated per column pair in a fixed order so that the (j, j) entry of
a multivariate call is bitwise identical to a univariate call on column j.
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


def _block_means(col: np.ndarray, e: int, b: int) -> np.ndarray:
    # ascontiguousarray keeps the reduction identical across source layouts;
    # add.reduce / b is np.mean's own arithmetic without its Python wrapper
    return np.add.reduce(np.ascontiguousarray(col[: e * b]).reshape(e, b), axis=1) / b


def bm_cov(series, b: int) -> np.ndarray:
    """Batch means long-run covariance of a (n,) or (n, p) series.

    Returns a (p, p) symmetric PSD matrix on the per-sample scale, i.e. it
    estimates lim n*Cov(mean of the series).
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("series must be a nonempty 1-d or 2-d array")
    return bm_cov_columns([x[:, j] for j in range(x.shape[1])], b)


def bm_cov_columns(columns, b: int) -> np.ndarray:
    """`bm_cov` of the series whose p columns are the given 1-d arrays.

    Bitwise equal to ``bm_cov(np.column_stack(columns), b)``, without
    building the (n, p) matrix.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = cols[0].shape[0] if cols and cols[0].ndim == 1 else 0
    if n < 1 or any(c.ndim != 1 or c.shape[0] != n for c in cols):
        raise ValueError("columns must be nonempty 1-d arrays of one length")
    b = int(b)
    if b < 1:
        raise ValueError("block size must be positive")
    e = n // b
    if e < 2:
        raise InsufficientDataError(
            f"batch means needs at least 2 full blocks, got n={n}, b={b}"
        )
    # each centered column is kept contiguous so np.dot takes the same
    # kernel whether the call was univariate or multivariate
    centered = []
    for col in cols:
        m = _block_means(col, e, b)
        centered.append(m - np.add.reduce(m) / e)
    p = len(cols)
    out = np.empty((p, p))
    scale = b / (e - 1)
    for j in range(p):
        for k in range(j, p):
            s = scale * float(np.dot(centered[j], centered[k]))
            out[j, k] = s
            out[k, j] = s
    return out


def bm_variance(series, b: int) -> float:
    """Scalar batch means long-run variance of a univariate series."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("bm_variance takes a 1-d series")
    return float(bm_cov(x, b)[0, 0])
