import doctest
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genis import densities
from genis.densities import (
    TargetFamily,
    UnnormalizedDensity,
    discrete_table_density,
    identity_integrand,
    log_sum_exp_rows,
    t_density,
    t_family,
    t_label,
)
from genis.errors import UndefinedPointError

from conftest import t_log_pdf

# high-precision reference values (40-digit arithmetic, frozen)
T5_AT_0 = -0.9686195890547241
T5_AT_2 = -2.731979583761081
CAUCHY_AT_0 = -1.1447298858494002
T3_HALF_AT_HALF = -1.0008888496235098


def test_t_log_density_frozen_values():
    assert t_log_pdf(5, 0.0, 0.0) == pytest.approx(T5_AT_0, abs=1e-14)
    assert t_log_pdf(5, 0.0, 2.0) == pytest.approx(T5_AT_2, abs=1e-14)
    assert t_log_pdf(1, 0.0, 0.0) == pytest.approx(CAUCHY_AT_0, abs=1e-14)
    assert t_log_pdf(3, 0.5, 0.5) == pytest.approx(T3_HALF_AT_HALF, abs=1e-14)


def test_t_log_density_shift():
    # the law only depends on x - mu
    assert t_log_pdf(5, 1.0, -1.0) == pytest.approx(T5_AT_2, abs=1e-14)
    x = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(
        t_log_pdf(5, 0.7, x), t_log_pdf(5, 0.0, x - 0.7), atol=1e-14
    )


@pytest.mark.parametrize("df", [1e3, 1e4, 1e8, 1e12, 1e16, 1e100, 1e300])
def test_t_log_density_large_df_matches_mpmath(df):
    """The constant stays within one ulp of exact where the lgamma
    difference cancels (it read -18 too low at df = 1e16)."""
    import mpmath

    with mpmath.workdps(40 + int(math.log10(df))):  # loggamma(df/2) ~ df log df
        d = mpmath.mpf(df)
        exact = mpmath.loggamma((d + 1) / 2) - mpmath.loggamma(d / 2)
        exact = float(exact - mpmath.log(d * mpmath.pi) / 2)
    assert float(t_log_pdf(df, 0.0, 0.0)) == pytest.approx(exact, abs=1.2e-16)


def _per_call_t_log_density(df, mu, x):
    """The t log density as it was before t_density formed its constant
    once: checks and both lgamma calls on every evaluation."""
    df, mu = float(df), float(mu)
    x = np.asarray(x, dtype=float)
    if df < densities.T_SERIES_DF:
        const = (
            math.lgamma((df + 1.0) / 2.0)
            - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi)
        )
    else:
        const = -0.5 * math.log(2.0 * math.pi) - 0.25 / df + 1.0 / (24.0 * df) / df / df
    with np.errstate(over="ignore"):
        return const - 0.5 * (df + 1.0) * np.log1p((x - mu) ** 2 / df)


@pytest.mark.parametrize("df", [1e-3, 0.5, 5.0, 999.0, 1e3, 1e300])
def test_t_density_equals_the_per_call_form_bit_for_bit(df):
    """t_density gives the per-call form's log densities bit for bit, on
    both sides of T_SERIES_DF and where the square overflows to inf."""
    rng = np.random.default_rng(28)
    for mu in (0.0, -1.5, *rng.normal(scale=30.0, size=3)):
        x = np.concatenate([mu + rng.standard_t(3.0, size=300), [mu, 1e200, -3e160, 1e308]])
        expected = _per_call_t_log_density(df, mu, x)
        assert np.isneginf(expected[-3:]).all()  # the squares overflow
        assert t_density(df, mu).log_density(x).tobytes() == expected.tobytes()
        assert t_log_pdf(df, mu, x).tobytes() == expected.tobytes()
        scalar = np.asarray(_per_call_t_log_density(df, mu, x[0]))
        assert np.asarray(t_log_pdf(df, mu, float(x[0]))).tobytes() == scalar.tobytes()


def test_t_density_integrates_to_one():
    from scipy import integrate

    for df, mu in [(5, 0.0), (5, 0.7), (3, -1.2)]:
        total, err = integrate.quad(
            lambda x: math.exp(t_log_pdf(df, mu, x)), -np.inf, np.inf
        )
        assert total == pytest.approx(1.0, abs=max(1e-9, 10 * err))


def test_t_density_vectorized():
    d = t_density(5, 0.0)
    out = d.log_density(np.array([0.0, 2.0]))
    assert out.shape == (2,)
    assert out[0] == pytest.approx(T5_AT_0, abs=1e-14)
    assert d.id == t_label(5, 0.0) == "t5_mu0"


def test_log_density_rejects_bad_values():
    bad = UnnormalizedDensity("bad", lambda x: np.full_like(x, np.nan))
    with pytest.raises(ValueError):
        bad.log_density(np.zeros(3))
    worse = UnnormalizedDensity("worse", lambda x: np.full_like(x, np.inf))
    with pytest.raises(ValueError):
        worse.log_density(np.zeros(3))
    for bad in (np.nan, np.inf):  # one bad value among finite ones and -inf
        values = np.array([-1.0, -np.inf, bad, -2.0])
        odd = UnnormalizedDensity("odd", lambda x, v=values: v.copy())
        with pytest.raises(ValueError, match=r"^density 'odd': log_eval produced NaN or \+inf$"):
            odd.log_density(np.zeros(4))


def test_log_density_accepts_minus_inf():
    values = np.array([-np.inf, 0.0, -np.inf, 3.5])
    dens = UnnormalizedDensity("zeros", lambda x: values.copy())
    np.testing.assert_array_equal(dens.log_density(np.zeros(4)), values)
    nowhere = UnnormalizedDensity("nowhere", lambda x: np.full_like(x, -np.inf))
    np.testing.assert_array_equal(nowhere.log_density(np.zeros(3)), np.full(3, -np.inf))


def test_t_density_rejects_bad_parameters():
    bad = ((0.0, 0.0), (-1.0, 0.0), (math.inf, 0.0), (5.0, math.nan), (5.0, -math.inf))
    for df, mu in bad:
        with pytest.raises(ValueError):
            t_density(df, mu)
        with pytest.raises(ValueError):
            t_log_pdf(df, mu, 0.0)


def test_discrete_table_density():
    d = discrete_table_density((3.0, 1.0), id="tilted")
    out = d.log_density(np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, [math.log(3), 0.0, math.log(3)], atol=1e-15)
    assert d.size == 2


def test_discrete_table_rejects_bad_input():
    with pytest.raises(ValueError):
        discrete_table_density((-1.0, 2.0))
    with pytest.raises(ValueError):
        discrete_table_density((0.0, 0.0))
    d = discrete_table_density((1.0, 2.0))
    with pytest.raises(ValueError):
        d.log_density(np.array([0.5]))
    with pytest.raises(ValueError):
        d.log_density(np.array([2.0]))


def test_discrete_size_must_be_positive():
    with pytest.raises(ValueError, match="size >= 1"):
        UnnormalizedDensity("empty", lambda x: np.zeros_like(x), size=0)


def test_table_zero_mass_state_is_minus_inf():
    d = discrete_table_density((1.0, 0.0, 2.0))
    out = d.log_density(np.array([1.0]))
    assert out[0] == -np.inf


def test_log_sum_exp_rows():
    mat = np.log(np.array([[1.0, 3.0], [2.0, 2.0], [1.0, 5.0]]))
    mat[2, 0] = -np.inf
    out, shares = log_sum_exp_rows(mat)
    np.testing.assert_allclose(out, np.log([4.0, 4.0, 5.0]), atol=1e-15)
    np.testing.assert_allclose(shares, [[0.25, 0.75], [0.5, 0.5], [0.0, 1.0]], atol=1e-15)
    assert shares[2, 0] == 0.0  # a -inf entry's share is exactly 0
    assert shares[2, 1] == 1.0
    with pytest.raises(UndefinedPointError):
        log_sum_exp_rows(np.array([[-np.inf, -np.inf]]))


def test_log_sum_exp_rows_extreme_scale():
    mat = np.array([[1000.0, 1000.0], [-1000.0, -1000.0], [1000.0, -np.inf]])
    out, shares = log_sum_exp_rows(mat)
    np.testing.assert_allclose(out, [1000.0 + math.log(2), -1000.0 + math.log(2), 1000.0])
    np.testing.assert_array_equal(shares, [[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])


def test_family_and_integrands():
    fam = t_family(5, [0.0, 0.5, 1.0])
    assert isinstance(fam, TargetFamily)
    assert [t.id for t in fam.targets] == ["t5_mu0", "t5_mu0.5", "t5_mu1"]
    x = np.array([1.0, -2.0])
    np.testing.assert_array_equal(identity_integrand.values(x), x)


@given(
    df=st.floats(min_value=1.0, max_value=50.0),
    mu=st.floats(min_value=-5.0, max_value=5.0),
    x=st.floats(min_value=-30.0, max_value=30.0),
)
@settings(max_examples=80, deadline=None)
def test_t_log_density_symmetric_and_unimodal(df, mu, x):
    left = t_log_pdf(df, mu, mu - abs(x - mu))
    right = t_log_pdf(df, mu, mu + abs(x - mu))
    peak = t_log_pdf(df, mu, mu)
    assert left == pytest.approx(right, rel=1e-12, abs=1e-12)
    assert peak >= left


@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_log_sum_exp_dominates_max(rows, cols, seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(scale=50.0, size=(rows, cols))
    mat[rng.random((rows, cols)) < 0.2] = -np.inf
    mat[np.arange(rows), rng.integers(cols, size=rows)] = rng.normal(scale=50.0, size=rows)
    out, shares = log_sum_exp_rows(mat)
    assert np.all(out >= mat.max(axis=1) - 1e-12)
    assert np.all(out <= mat.max(axis=1) + math.log(cols) + 1e-12)
    np.testing.assert_allclose(shares.sum(axis=1), 1.0, rtol=1e-15 * cols)
    assert np.all(shares[np.isneginf(mat)] == 0.0)
    assert np.all(shares[~np.isneginf(mat)] >= 0.0)


def test_docstring_examples_hold():
    result = doctest.testmod(densities)
    assert result.attempted > 0
    assert result.failed == 0
