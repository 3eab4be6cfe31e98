"""Tour bookkeeping and the regenerative long-run covariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genis.densities import Integrand, discrete_table_density, t_density
from genis.errors import InsufficientRegenerationError
from genis.importance import target_tours
from genis.regen import _tour_sums, rs_long_run_cov, tour_boundaries
from genis.samplers import (
    ChainSample,
    SampleSet,
    independence_mh,
    sample_t_iid,
)

from conftest import (
    constant,
    covered_prefix,
    mixture,
    rs_point_estimates,
    stage2_row,
    table_mh_samples,
)

IDENTITY = Integrand("x", lambda x: np.asarray(x, dtype=float))
A_TRUE = np.array([0.5, 0.5])
TRUE_D = np.array([2.0])
W_TRUE = np.array([0.5, 0.25])  # the mixture's a_l / d_l


def _marked_chain(states, marks, density_id="c"):
    return ChainSample(
        density_id=density_id,
        states=np.asarray(states, dtype=float),
        kind="markov",
        seed=0,
        regen_marks=np.asarray(marks, dtype=bool),
    )


# ------------------------------------------------------------- boundaries


def test_boundaries_iid_every_draw_is_a_tour():
    chain = sample_t_iid(5, 0.0, 6, seed=1)
    np.testing.assert_array_equal(tour_boundaries(chain), np.arange(7))


def test_boundaries_drop_incomplete_tail():
    chain = _marked_chain([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 0, 1, 0])
    bounds = tour_boundaries(chain)
    np.testing.assert_array_equal(bounds, [0, 3])


def test_boundaries_markov_needs_marks_and_two_tours():
    bare = ChainSample("c", np.arange(4.0), "markov", 0)
    with pytest.raises(ValueError):
        tour_boundaries(bare)
    single = _marked_chain([1.0, 2.0], [1, 0])
    with pytest.raises(InsufficientRegenerationError):
        tour_boundaries(single)


# -------------------------------------------------------------- tour sums


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=400),
    k=st.integers(min_value=1, max_value=3),
    density=st.sampled_from([0.05, 0.3, 1.0]),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_tour_sums_equal_prefix_differences_bitwise(seed, n, k, density):
    """The shared tour-sum routine equals, under ==, differences of the
    zero-padded prefix sums at the tour starts, per 1-d series and per
    column of an (n, k) view; density 1.0 gives per-draw tours."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((k, n)) * rng.uniform(0.1, 1e3)
    marks = rng.random(n) < density
    marks[0] = True
    bounds = np.flatnonzero(marks)
    if density == 1.0 and rng.random() < 0.5:
        bounds = np.arange(n + 1)  # an iid chain: every draw is a complete tour
    if bounds.size < 2:
        bounds = np.array([0, n])
    sums = _tour_sums(rows.T, bounds)
    for j in range(k):
        csum = np.concatenate(([0.0], np.cumsum(rows[j])))
        expected = csum[bounds[1:]] - csum[bounds[:-1]]
        assert np.array_equal(_tour_sums(rows[j], bounds), expected)
        assert np.array_equal(sums[:, j], expected)


# ---------------------------------------------------------- point estimates


def test_rs_matches_generalized_is_on_covered_prefix(toy_refs):
    """The tour estimator is the generalized IS estimator with weights
    w*(1, d) evaluated on the tour-covered prefix, up to rounding."""
    d_hat = np.array([1.07])
    w = np.array([0.6, 0.55])
    chains = (
        sample_t_iid(5, 1.0, 3000, seed=21),
        independence_mh(t_density(5, 0.0), 5, 1.0, 3000, seed=22, with_regen=True),
    )
    samples = SampleSet(chains=chains)
    target = t_density(5, 0.5)
    a_equiv = w * np.concatenate(([1.0], d_hat))
    tours = target_tours(samples, toy_refs, target, a_equiv, d_hat, IDENTITY)
    gis = stage2_row(
        covered_prefix(samples), target, toy_refs, a_equiv, d_hat, f=IDENTITY
    )
    u_rs, eta_rs = rs_point_estimates(tours, a_equiv)
    assert u_rs == pytest.approx(gis.u_hat, rel=1e-12)
    assert eta_rs == pytest.approx(gis.eta_hat, rel=1e-12)


def test_rs_constant_integrand_returns_constant(table_refs):
    samples = table_mh_samples(500, master_seed=41, stage=2)
    target = discrete_table_density((2.0, 2.0), id="even")
    tours = target_tours(samples, table_refs, target, A_TRUE, TRUE_D, constant(2.5))
    for t in tours:
        np.testing.assert_allclose(t.v_sums, 2.5 * t.u_sums, rtol=1e-13)
    assert rs_point_estimates(tours, A_TRUE)[1] == pytest.approx(
        2.5, rel=1e-13
    )


def _rs_standard_errors(samples, refs, target, a, d_hat):
    """Tour estimates of u and eta (f = IDENTITY) with their regenerative
    standard errors.  Per chain, rs_long_run_cov of the per-draw rows
    (f u, u) over its tours, divided by the covered length, is the
    covariance of the chain's tour ratios (sum V / sum T, sum U / sum T);
    the delta method combines the chains."""
    tours = target_tours(samples, refs, target, a, d_hat, IDENTITY)
    u_hat, eta_hat = rs_point_estimates(tours, a)
    coef = np.asarray(a, dtype=float) / np.sum(a)
    mix = mixture(refs, coef / np.concatenate(([1.0], d_hat)))
    var_u = var_eta = 0.0
    for l, (chain, t) in enumerate(zip(samples.chains, tours)):
        x = chain.states
        u = np.exp(target.log_density(x) - mix.log_density(x))
        gamma = rs_long_run_cov(np.array([x * u, u]), chain)
        gamma /= t.lengths.sum()
        grad = np.array([1.0, -eta_hat])
        var_u += coef[l] ** 2 * gamma[1, 1]
        var_eta += coef[l] ** 2 * float(grad @ gamma @ grad) / u_hat**2
    return u_hat, eta_hat, np.sqrt(var_u), np.sqrt(var_eta)


def test_rs_discrete_three_se_oracle(table_refs):
    samples = table_mh_samples(20_000, master_seed=43, stage=2)
    target = discrete_table_density((2.0, 2.0), id="even")
    u_hat, eta_hat, se_u, se_eta = _rs_standard_errors(
        samples, table_refs, target, A_TRUE, TRUE_D
    )
    assert abs(u_hat - 2.0) <= 3.0 * se_u
    assert abs(eta_hat - 0.5) <= 3.0 * se_eta


def test_rs_toy_mean_three_se(toy_refs):
    chains = (
        sample_t_iid(5, 1.0, 10_000, seed=51),
        independence_mh(t_density(5, 0.0), 5, 1.0, 10_000, seed=52, with_regen=True),
    )
    samples = SampleSet(chains=chains)
    target = t_density(5, 0.5)
    w = np.array([0.5, 0.5])
    _, eta_hat, _, se = _rs_standard_errors(
        samples, toy_refs, target, w, np.array([1.0])
    )
    assert abs(eta_hat - 0.5) <= 3.0 * se


# ------------------------------------------------------------ permutations


def test_tour_permutation_invariance(table_refs):
    """Tours are iid, so reordering whole tours leaves the regenerative
    long-run covariance unchanged."""
    samples = table_mh_samples(4000, master_seed=47, stage=2)
    target = discrete_table_density((2.0, 2.0), id="even")
    mix = mixture(table_refs, W_TRUE)
    rng = np.random.default_rng(0)
    for chain in samples.chains:
        x = chain.states
        u = np.exp(target.log_density(x) - mix.log_density(x))
        rows = np.vstack((x * u, u))
        bounds = tour_boundaries(chain)
        perm = rng.permutation(bounds.size - 1)
        # the incomplete last tour stays at the end, where it is dropped
        order = np.concatenate(
            [np.arange(bounds[i], bounds[i + 1]) for i in perm]
            + [np.arange(bounds[-1], chain.n)]
        )
        marks = np.zeros(chain.n, dtype=bool)
        marks[np.cumsum(np.diff(bounds)[perm])] = True
        marks[0] = True
        np.testing.assert_allclose(
            rs_long_run_cov(rows[:, order], _marked_chain(x[order], marks)),
            rs_long_run_cov(rows, chain),
            rtol=1e-12,
        )


# --------------------------------------------------------------- variances


def test_rs_long_run_cov_iid_is_sample_covariance():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((400, 2))
    got = rs_long_run_cov(x.T, sample_t_iid(5, 0.0, 400, seed=9))
    centered = x - x.mean(axis=0)
    np.testing.assert_allclose(got, centered.T @ centered / 400, rtol=1e-12)


def test_rs_long_run_cov_per_draw_marks_matches_iid():
    """All-true marks mean one draw per tour; the last draw starts an
    incomplete tour and is dropped, leaving the plain covariance of the
    rest."""
    rng = np.random.default_rng(10)
    x = rng.standard_normal(300)
    marks = np.ones(300, dtype=bool)
    got = rs_long_run_cov(x[None], _marked_chain(x, marks))
    head = x[:-1]
    centered = head - head.mean()
    expected = np.dot(centered, centered) / head.size
    assert got[0, 0] == pytest.approx(expected, rel=1e-12)


def test_rs_long_run_cov_validation():
    x = np.arange(10.0)[None]
    bare = ChainSample("c", np.arange(10.0), "markov", 0)
    with pytest.raises(ValueError, match="no regeneration marks"):
        rs_long_run_cov(x, bare)
    lonely = np.zeros(10, dtype=bool)
    lonely[0] = True
    with pytest.raises(InsufficientRegenerationError, match="chain 'c'"):
        rs_long_run_cov(x, _marked_chain(np.arange(10.0), lonely))


def test_rs_long_run_cov_agrees_with_batch_means():
    """On a genuinely regenerating chain the tour-based and batch-means
    long-run variance estimates describe the same limit; they come from
    disjoint code paths, so agreement is a real cross-check."""
    from genis.batch_means import DEFAULT_BM_SPEC, bm_cov

    chain = independence_mh(t_density(5, 0.0), 5, 1.0, 50_000, seed=61, with_regen=True)
    series = 1.0 / (1.0 + chain.states**2)
    rs = rs_long_run_cov(series[None], chain)[0, 0]
    bm = bm_cov(series[None], DEFAULT_BM_SPEC)[0, 0]
    assert rs == pytest.approx(bm, rel=0.30)
    assert rs > 0.0
