"""Unnormalized densities, integrands, and target families.

Every density here is a nonnegative function nu known only up to a
normalizing constant m = integral of nu.  All evaluation happens in log
space: ``log_density`` returns ``-inf`` where nu vanishes and never NaN
or ``+inf``.  States are passed around as 1-d float arrays; discrete
states are integer-valued floats indexing a finite table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import UndefinedPointError


@dataclass(frozen=True)
class UnnormalizedDensity:
    """A nonnegative function known up to its normalizing constant.

    log_eval maps a 1-d float array of states to an array of log values,
    vectorized, with -inf at states where the density is zero.  size is
    None on the real line and S for the discrete states 0..S-1.
    """

    id: str
    log_eval: Callable[[np.ndarray], np.ndarray]
    size: int | None = None

    def __post_init__(self):
        if self.size is not None and int(self.size) < 1:
            raise ValueError("discrete state space needs size >= 1")

    def log_density(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.atleast_1d(np.asarray(self.log_eval(x), dtype=float))
        if out.shape != x.shape:
            raise ValueError(f"density {self.id!r}: log_eval changed the shape")
        if not np.all(out < np.inf):  # one pass: false at NaN and +inf
            raise ValueError(f"density {self.id!r}: log_eval produced NaN or +inf")
        return out


@dataclass(frozen=True)
class Integrand:
    """A scalar function whose expectation under a target is wanted."""

    id: str
    eval: Callable[[np.ndarray], np.ndarray]

    def values(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.atleast_1d(np.asarray(self.eval(x), dtype=float))
        if out.shape != x.shape:
            raise ValueError(f"integrand {self.id!r}: eval changed the shape")
        if not np.all(np.isfinite(out)):
            raise UndefinedPointError(f"integrand {self.id!r}: non-finite value")
        return out


identity_integrand = Integrand("x", lambda x: np.asarray(x, dtype=float))


@dataclass(frozen=True)
class TargetFamily:
    """An ordered collection of target densities sharing one state space."""

    targets: tuple[UnnormalizedDensity, ...]

    def __post_init__(self):
        if len(self.targets) == 0:
            raise ValueError("target family must be nonempty")
        labels = [t.id for t in self.targets]
        if len(set(labels)) != len(labels):
            raise ValueError("target labels must be distinct")

    def __len__(self) -> int:
        return len(self.targets)


# from this df up the t constant takes its large-df series, which is within
# 1.2e-16 of exact there, while the lgamma form loses digits as df grows
T_SERIES_DF = 1e3


def _t_params(df: float, mu: float) -> tuple[float, float]:
    """A Student-t's df and center as floats, checked: df in (0, inf), mu finite."""
    df, mu = float(df), float(mu)
    if not 0.0 < df < math.inf:
        raise ValueError("df must be positive and finite")
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    return df, mu


def t_log_density(df: float, mu: float, x) -> np.ndarray:
    """Log density of a Student-t with df degrees of freedom centered at mu.

    Normalized, so pairs of these have normalizing-constant ratio one.

    >>> float(t_log_density(1.0, 0.0, 0.0))  # Cauchy at 0: log(1/pi)
    -1.1447298858494002
    """
    df, mu = _t_params(df, mu)
    x = np.asarray(x, dtype=float)
    if df < T_SERIES_DF:
        const = (
            math.lgamma((df + 1.0) / 2.0)
            - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi)
        )
    else:
        const = -0.5 * math.log(2.0 * math.pi) - 0.25 / df + 1.0 / (24.0 * df) / df / df
    return const - 0.5 * (df + 1.0) * np.log1p((x - mu) ** 2 / df)


def t_label(df: float, mu: float) -> str:
    return f"t{df:g}_mu{mu:g}"


def t_density(df: float, mu: float, id: str | None = None) -> UnnormalizedDensity:
    """Student-t density as an UnnormalizedDensity on the real line."""
    df, mu = _t_params(df, mu)
    return UnnormalizedDensity(
        id=t_label(df, mu) if id is None else id,
        log_eval=lambda x, _df=df, _mu=mu: t_log_density(_df, _mu, x),
    )


def t_family(df: float, mu_values: Sequence[float]) -> TargetFamily:
    """Family of same-df Student-t targets indexed by their centers."""
    return TargetFamily(tuple(t_density(df, mu) for mu in mu_values))


def discrete_table_density(table, id: str = "table") -> UnnormalizedDensity:
    """Density over states 0..S-1 given by a table of nonnegative masses.

    At least one entry must be positive.  States are validated to be
    integral and in range; the log table is precomputed once.
    """
    tab = np.asarray(table, dtype=float)
    if tab.ndim != 1 or tab.size < 1:
        raise ValueError("table must be a nonempty 1-d array")
    if not np.all(np.isfinite(tab)) or np.any(tab < 0):
        raise ValueError("table entries must be finite and nonnegative")
    if not np.any(tab > 0):
        raise ValueError("table must have at least one positive entry")
    with np.errstate(divide="ignore"):
        log_tab = np.where(tab > 0, np.log(np.where(tab > 0, tab, 1.0)), -np.inf)
    size = tab.size

    def log_eval(x, _log_tab=log_tab, _size=size):
        xi = np.asarray(x, dtype=float)
        idx = xi.astype(np.int64)
        if np.any(idx != xi) or np.any(idx < 0) or np.any(idx >= _size):
            raise ValueError("discrete state out of range or non-integral")
        return _log_tab[idx]

    return UnnormalizedDensity(id=id, log_eval=log_eval, size=size)


def log_sum_exp_rows(mat: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(mat))) for an (n, k) matrix, -inf rows rejected.

    Raises UndefinedPointError when a whole row is -inf, because every
    caller needs at least one positive term in the mixture there.
    """
    mat = np.asarray(mat, dtype=float)
    m = np.max(mat, axis=1)
    if np.any(np.isneginf(m)):
        raise UndefinedPointError("all mixture components vanish at a state")
    with np.errstate(invalid="ignore"):
        shifted = np.exp(mat - m[:, None])
    shifted[np.isneginf(mat)] = 0.0
    return m + np.log(np.sum(shifted, axis=1))

