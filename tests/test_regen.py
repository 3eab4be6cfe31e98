"""Tour bookkeeping and regenerative estimates used to cross-check batch means."""

import numpy as np
import pytest

from genis.densities import (
    Integrand,
    constant_integrand,
    discrete_table_density,
    mixture_density,
    t_density,
)
from genis.errors import (
    DegenerateDenominatorError,
    InsufficientRegenerationError,
)
from genis.regen import (
    ChainTours,
    collect_tours,
    rs_estimate_mean,
    rs_estimate_ratio,
    rs_long_run_cov,
    rs_mean_sensitivity,
    rs_ratio_sensitivity,
    rs_variance,
    split_tours,
    tour_boundaries,
    truncate_to_tours,
)
from genis.samplers import (
    ChainSample,
    SampleSet,
    sample_t_iid,
    sample_t_imh,
)

from conftest import TABLE_1, TABLE_2, stage2_row, table_mh_samples

IDENTITY = Integrand("x", lambda x: np.asarray(x, dtype=float))
W_TRUE = np.array([0.5, 0.25])  # a = (1/2, 1/2) over d = (1, 2)
TRUE_D = np.array([2.0])


def _table_refs():
    return [
        discrete_table_density(TABLE_1, id="flat"),
        discrete_table_density(TABLE_2, id="tilted"),
    ]


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
    trunc = truncate_to_tours(chain)
    assert trunc.n == 3
    np.testing.assert_array_equal(trunc.states, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(trunc.regen_marks, [True, False, False])


def test_boundaries_markov_needs_marks_and_two_tours():
    bare = ChainSample("c", np.arange(4.0), "markov", 0)
    with pytest.raises(ValueError):
        tour_boundaries(bare)
    single = _marked_chain([1.0, 2.0], [1, 0])
    with pytest.raises(InsufficientRegenerationError):
        tour_boundaries(single)


def test_truncate_is_identity_when_fully_covered():
    chain = sample_t_iid(5, 0.0, 5, seed=2)
    assert truncate_to_tours(chain) is chain


# -------------------------------------------------------------- tour sums


def test_split_tours_per_draw_marks(toy_refs):
    chain = sample_t_iid(5, 1.0, 50, seed=3)
    target = t_density(5, 0.5)
    tours = split_tours(chain, toy_refs, target, W_TRUE)
    assert tours.count == 50
    np.testing.assert_array_equal(tours.lengths, 1)
    # per-draw tour sums are the weights themselves
    ref_log = np.column_stack([r.log_density(chain.states) for r in toy_refs])
    mix = np.exp(ref_log) @ W_TRUE
    u = np.exp(target.log_density(chain.states)) / mix
    np.testing.assert_allclose(tours.u_sums, u, rtol=1e-10)


def test_split_tours_weight_mixture_gives_lengths(toy_refs):
    """When the target is the w-mixture of the references, u is one at
    every state, so each tour's weight sum equals its length."""
    chain = sample_t_imh(
        5, 0.0, 5, 1.0, 400, seed=4, with_regen=True, splitting_const=0.8
    )
    target = mixture_density(toy_refs, W_TRUE, id="wmix")
    tours = split_tours(chain, toy_refs, target, W_TRUE)
    np.testing.assert_allclose(tours.u_sums, tours.lengths, rtol=1e-12)
    assert tours.n_covered <= chain.n


def test_split_tours_validation(toy_refs):
    chain = sample_t_iid(5, 1.0, 10, seed=5)
    target = t_density(5, 0.5)
    with pytest.raises(ValueError):
        split_tours(chain, toy_refs, target, [0.5])
    with pytest.raises(ValueError):
        split_tours(chain, toy_refs, target, [0.5, -0.1])


def test_chain_tours_validation():
    with pytest.raises(ValueError):
        ChainTours("c", np.empty(0, dtype=np.int64), np.empty(0))
    with pytest.raises(ValueError):
        ChainTours("c", np.array([2, 3]), np.array([1.0]))
    with pytest.raises(ValueError):
        ChainTours("c", np.array([2]), np.array([1.0]), v_sums=np.array([1.0, 2.0]))


# ---------------------------------------------------------- point estimates


def test_rs_matches_generalized_is_on_covered_prefix(toy_refs):
    """The tour estimator is the generalized IS estimator with weights
    w*(1, d) evaluated on the tour-covered prefix, up to rounding."""
    d_hat = np.array([1.07])
    w = np.array([0.6, 0.55])
    chains = (
        sample_t_iid(5, 1.0, 3000, seed=21),
        sample_t_imh(5, 0.0, 5, 1.0, 3000, seed=22, with_regen=True),
    )
    samples = SampleSet(chains=chains, stage=2)
    target = t_density(5, 0.5)
    tours = collect_tours(samples, toy_refs, target, w, f=IDENTITY)
    covered = SampleSet(
        chains=tuple(truncate_to_tours(c) for c in chains), stage=2
    )
    a_equiv = w * np.concatenate(([1.0], d_hat))
    gis = stage2_row(covered, target, toy_refs, a_equiv, d_hat, f=IDENTITY)
    u_rs = rs_estimate_ratio(tours, w, d_hat)
    assert u_rs == pytest.approx(gis.u_hat, rel=1e-12)
    eta_rs = rs_estimate_mean(tours, w, d_hat)
    assert eta_rs == pytest.approx(gis.eta_hat, rel=1e-12)


def test_rs_constant_integrand_returns_constant(table_refs):
    samples = table_mh_samples(500, master_seed=41, stage=2)
    target = discrete_table_density((2.0, 2.0), id="even")
    tours = collect_tours(
        samples, table_refs, target, W_TRUE, f=constant_integrand(2.5)
    )
    assert rs_estimate_mean(tours, W_TRUE, TRUE_D) == pytest.approx(
        2.5, rel=1e-13
    )
    np.testing.assert_allclose(
        rs_mean_sensitivity(tours, W_TRUE, TRUE_D), 0.0, atol=1e-13
    )


def test_rs_discrete_three_se_oracle(table_refs):
    samples = table_mh_samples(20_000, master_seed=43, stage=2)
    target = discrete_table_density((2.0, 2.0), id="even")
    tours = collect_tours(samples, table_refs, target, W_TRUE, f=IDENTITY)
    u_hat = rs_estimate_ratio(tours, W_TRUE, TRUE_D)
    m_vec = rs_ratio_sensitivity(tours, W_TRUE)
    var_u = rs_variance(
        tours, W_TRUE, TRUE_D, m_vec, np.zeros((1, 1)), q=0.0, quantity="ratio"
    )
    n_cov = sum(t.n_covered for t in tours)
    se_u = np.sqrt(var_u / n_cov)
    assert abs(u_hat - 2.0) <= 3.0 * se_u
    eta_hat = rs_estimate_mean(tours, W_TRUE, TRUE_D)
    l_vec = rs_mean_sensitivity(tours, W_TRUE, TRUE_D)
    var_eta = rs_variance(
        tours, W_TRUE, TRUE_D, l_vec, np.zeros((1, 1)), q=0.0, quantity="mean"
    )
    se_eta = np.sqrt(var_eta / n_cov)
    assert abs(eta_hat - 0.5) <= 3.0 * se_eta


def test_rs_toy_mean_three_se(toy_refs):
    chains = (
        sample_t_iid(5, 1.0, 10_000, seed=51),
        sample_t_imh(5, 0.0, 5, 1.0, 10_000, seed=52, with_regen=True),
    )
    samples = SampleSet(chains=chains, stage=2)
    target = t_density(5, 0.5)
    w = np.array([0.5, 0.5])
    tours = collect_tours(samples, toy_refs, target, w, f=IDENTITY)
    eta_hat = rs_estimate_mean(tours, w, np.array([1.0]))
    l_vec = rs_mean_sensitivity(tours, w, np.array([1.0]))
    var_eta = rs_variance(
        tours, w, np.array([1.0]), l_vec, np.zeros((1, 1)), q=0.0,
        quantity="mean",
    )
    se = np.sqrt(var_eta / sum(t.n_covered for t in tours))
    assert abs(eta_hat - 0.5) <= 3.0 * se


def test_rs_degenerate_denominator():
    tours = [ChainTours("c", np.array([2, 2]), np.array([0.0, 0.0]),
                        v_sums=np.array([0.0, 0.0]))]
    with pytest.raises(DegenerateDenominatorError):
        rs_estimate_mean(tours, [1.0], np.empty(0))


# ------------------------------------------------------------ permutations


def test_tour_permutation_invariance(table_refs):
    samples = table_mh_samples(4000, master_seed=47, stage=2)
    target = discrete_table_density((2.0, 2.0), id="even")
    tours = collect_tours(samples, table_refs, target, W_TRUE, f=IDENTITY)
    rng = np.random.default_rng(0)
    shuffled = []
    for t in tours:
        perm = rng.permutation(t.count)
        shuffled.append(
            ChainTours(
                density_id=t.density_id,
                lengths=t.lengths[perm],
                u_sums=t.u_sums[perm],
                v_sums=t.v_sums[perm],
            )
        )
    assert rs_estimate_ratio(shuffled, W_TRUE, TRUE_D) == pytest.approx(
        rs_estimate_ratio(tours, W_TRUE, TRUE_D), rel=1e-12
    )
    m_vec = rs_ratio_sensitivity(tours, W_TRUE)
    v_base = rs_variance(
        tours, W_TRUE, TRUE_D, m_vec, np.eye(1), q=0.3, quantity="ratio"
    )
    v_shuf = rs_variance(
        shuffled, W_TRUE, TRUE_D, rs_ratio_sensitivity(shuffled, W_TRUE),
        np.eye(1), q=0.3, quantity="ratio",
    )
    assert v_shuf == pytest.approx(v_base, rel=1e-12)


# --------------------------------------------------------------- variances


def test_rs_variance_identical_tours_is_stage1_only():
    tours = [
        ChainTours("a", np.array([2, 2, 2]), np.array([1.5, 1.5, 1.5])),
        ChainTours("b", np.array([3, 3]), np.array([0.6, 0.6])),
    ]
    m_vec = rs_ratio_sensitivity(tours, [0.5, 0.5])
    w_mat = np.array([[2.0]])
    v0 = rs_variance(tours, [0.5, 0.5], [1.0], m_vec, w_mat, q=0.0)
    assert v0 == pytest.approx(0.0, abs=1e-15)
    v1 = rs_variance(tours, [0.5, 0.5], [1.0], m_vec, w_mat, q=0.25)
    assert v1 == pytest.approx(0.25 * float(m_vec @ w_mat @ m_vec), rel=1e-12)


def test_rs_variance_nonnegative_and_validates(table_refs):
    samples = table_mh_samples(1000, master_seed=48, stage=2)
    target = discrete_table_density((2.0, 2.0), id="even")
    tours = collect_tours(samples, table_refs, target, W_TRUE, f=IDENTITY)
    m_vec = rs_ratio_sensitivity(tours, W_TRUE)
    assert (
        rs_variance(tours, W_TRUE, TRUE_D, m_vec, np.eye(1), q=0.5) >= 0.0
    )
    with pytest.raises(ValueError):
        rs_variance(tours, W_TRUE, TRUE_D, m_vec, np.eye(2), q=0.5)
    with pytest.raises(ValueError):
        rs_variance(
            tours, W_TRUE, TRUE_D, m_vec, np.eye(1), q=0.5, quantity="middle"
        )


def test_rs_long_run_cov_iid_is_sample_covariance():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((400, 2))
    got = rs_long_run_cov(x, None)
    centered = x - x.mean(axis=0)
    np.testing.assert_allclose(got, centered.T @ centered / 400, rtol=1e-12)


def test_rs_long_run_cov_per_draw_marks_matches_iid():
    """All-true marks mean one draw per tour; the last draw starts an
    incomplete tour and is dropped, leaving the plain covariance of the
    rest."""
    rng = np.random.default_rng(10)
    x = rng.standard_normal(300)
    marks = np.ones(300, dtype=bool)
    got = rs_long_run_cov(x, marks)
    head = x[:-1]
    centered = head - head.mean()
    expected = np.dot(centered, centered) / head.size
    assert got[0, 0] == pytest.approx(expected, rel=1e-12)


def test_rs_long_run_cov_validation():
    x = np.arange(10.0)
    with pytest.raises(ValueError):
        rs_long_run_cov(x, np.ones(9, dtype=bool))
    bad = np.ones(10, dtype=bool)
    bad[0] = False
    with pytest.raises(ValueError):
        rs_long_run_cov(x, bad)
    lonely = np.zeros(10, dtype=bool)
    lonely[0] = True
    with pytest.raises(InsufficientRegenerationError):
        rs_long_run_cov(x, lonely)


def test_rs_long_run_cov_agrees_with_batch_means():
    """On a genuinely regenerating chain the tour-based and batch-means
    long-run variance estimates describe the same limit; they come from
    disjoint code paths, so agreement is a real cross-check."""
    from genis.batch_means import block_size, bm_variance

    chain = sample_t_imh(5, 0.0, 5, 1.0, 50_000, seed=61, with_regen=True)
    series = 1.0 / (1.0 + chain.states**2)
    rs = rs_long_run_cov(series, chain.regen_marks)[0, 0]
    bm = bm_variance(series, block_size(series.size))
    assert rs == pytest.approx(bm, rel=0.30)
    assert rs > 0.0
