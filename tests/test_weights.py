"""Weight strategies: pooled, distance-based, effective-size, pilot search."""

import hashlib
import itertools

import numpy as np
import pytest

from genis import reverse_logistic, weights
from genis.densities import discrete_table_density, t_density
from genis.errors import ConvergenceError, UndefinedPointError
from genis.reverse_logistic import StageWeights, estimate_ratios
from genis.samplers import ChainSample, SampleSet, independence_mh, sample_t_iid
from genis.weights import (
    effective_sample_size,
    inv_dist_weights,
    naive_weights,
    pilot_optimal_weights,
    simplex_grid,
)

from conftest import TABLE_1, exact_proportion_chain


# -------------------------------------------------------------------- naive


def test_naive_weights_examples():
    np.testing.assert_allclose(naive_weights([500, 500]), [0.5, 0.5])
    np.testing.assert_allclose(naive_weights([100, 300]), [0.25, 0.75])
    np.testing.assert_allclose(naive_weights([42]), [1.0])
    with pytest.raises(ValueError):
        naive_weights([100, 0])


# ----------------------------------------------------------- inverse distance


def test_inv_dist_examples():
    np.testing.assert_allclose(
        inv_dist_weights(0.5, [0.0, 1.0], [100, 100]), [0.5, 0.5]
    )
    np.testing.assert_allclose(
        inv_dist_weights(0.25, [0.0, 1.0], [100, 100]), [0.75, 0.25]
    )
    # exact hit on a reference puts all mass there
    np.testing.assert_allclose(
        inv_dist_weights(0.0, [0.0, 1.0], [100, 100]), [1.0, 0.0]
    )
    np.testing.assert_allclose(
        inv_dist_weights(1.0, [0.0, 1.0], [100, 100]), [0.0, 1.0]
    )


def test_inv_dist_respects_chain_lengths():
    got = inv_dist_weights(0.5, [0.0, 1.0], [300, 100])
    np.testing.assert_allclose(got, [0.75, 0.25])
    with pytest.raises(ValueError):
        inv_dist_weights(0.5, [0.0, 1.0], [300])


def test_ess_inv_dist_examples():
    """ess weights are inverse-distance weights with each chain's effective
    sample size, which lies in (0, n_l], in place of its length."""
    rng = np.random.default_rng(3)
    sticky = np.repeat(rng.standard_normal(100), 10)  # 1000 draws, 100 distinct
    ess = [effective_sample_size(sticky), effective_sample_size(rng.standard_normal(1000))]
    assert 0 < ess[0] < 500 < ess[1] <= 1000
    got = inv_dist_weights(0.5, [0.0, 1.0], ess)  # equal distances: weights ~ ess
    np.testing.assert_allclose(got, np.array(ess) / sum(ess))
    np.testing.assert_allclose(inv_dist_weights(0.5, [0.0], [ess[0]]), [1.0])


def test_weight_vectors_normalized_and_positive():
    for mu in (0.1, 0.37, 0.9):
        a = inv_dist_weights(mu, [0.0, 0.5, 1.0], [100, 200, 300])
        assert a.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(a > 0)


# ------------------------------------------------------ effective sample size


def test_ess_iid_replications():
    """For an iid series the effective size is the nominal size; the
    estimate should land within 15% at least 95% of the time."""
    rng = np.random.default_rng(20240818)
    n = 100_000
    reps = 200
    hits = 0
    for _ in range(reps):
        ratio = effective_sample_size(rng.standard_normal(n)) / n
        hits += 0.85 <= ratio <= 1.15
    assert hits / reps >= 0.95


def test_ess_ar1_discount():
    """AR(1) with coefficient 1/2 has integrated autocorrelation 3, so the
    effective fraction is near 1/3."""
    rng = np.random.default_rng(15)
    n = 100_000
    phi = 0.5
    innov = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = innov[0]
    for i in range(1, n):
        x[i] = phi * x[i - 1] + innov[i]
    ratio = effective_sample_size(x) / n
    assert ratio == pytest.approx(1.0 / 3.0, abs=0.1)


def test_ess_degenerate_series_clamp():
    assert effective_sample_size(np.full(1000, 2.5)) == 1000.0
    alternating = np.tile([1.0, -1.0], 500)
    assert effective_sample_size(alternating) == 1000.0
    # states near 1e308: the variance sums overflow, which once warned
    assert effective_sample_size(np.tile([1.7e308, 1.5e308], 500)) == 1000.0
    with pytest.raises(ValueError):
        effective_sample_size(np.ones(3))


# ------------------------------------------------------------- simplex grid


def test_simplex_grid_small_cases():
    assert [tuple(v) for v in simplex_grid(1)] == [(1.0,)]
    pts = sorted(tuple(v) for v in simplex_grid(2, step=0.25))
    assert pts == [(0.25, 0.75), (0.5, 0.5), (0.75, 0.25)]
    pts3 = simplex_grid(3, step=1.0 / 3.0)
    assert len(pts3) == 1
    np.testing.assert_allclose(pts3[0], 1.0 / 3.0)


def test_simplex_grid_covers_and_validates():
    grid = simplex_grid(2, step=0.05)
    assert len(grid) == 19
    for v in grid:
        assert v.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(v > 0)
    with pytest.raises(ValueError):
        simplex_grid(0)
    with pytest.raises(ValueError):
        simplex_grid(2, step=1.5)


# -------------------------------------------------------------- pilot search


def test_pilot_single_point_grid(toy_refs):
    chains = (
        sample_t_iid(5, 1.0, 400, seed=1),
        independence_mh(t_density(5, 0.0), 5, 1.0, 400, seed=2),
    )
    pilot = SampleSet(chains=chains)
    point = np.array([0.6, 0.4])
    best, diag = pilot_optimal_weights(pilot, toy_refs, grid=[point])
    np.testing.assert_allclose(best, point)
    assert len(diag) == 1


def test_pilot_tie_break_prefers_naive():
    """With identical references every weight gives zero estimated
    covariance, so the tie-break toward pooled weights decides."""
    refs = [
        discrete_table_density(TABLE_1, id="p"),
        discrete_table_density(TABLE_1, id="q"),
    ]
    chains = (
        exact_proportion_chain(TABLE_1, 30, "p"),
        exact_proportion_chain(TABLE_1, 30, "q"),
    )
    pilot = SampleSet(chains=chains)
    grid = [np.array([0.3, 0.7]), np.array([0.5, 0.5]), np.array([0.7, 0.3])]
    best, diag = pilot_optimal_weights(pilot, refs, grid=grid)
    np.testing.assert_allclose(best, [0.5, 0.5])
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in diag.values())
    # the same point on any grid order; without naive, the smaller point
    for order in itertools.permutations(grid):
        np.testing.assert_allclose(pilot_optimal_weights(pilot, refs, list(order))[0], [0.5, 0.5])
    for order in ([grid[0], grid[2]], [grid[2], grid[0]]):
        np.testing.assert_allclose(pilot_optimal_weights(pilot, refs, order)[0], [0.3, 0.7])


def test_pilot_selected_trace_is_minimal(toy_refs):
    chains = (
        sample_t_iid(5, 1.0, 600, seed=3),
        independence_mh(t_density(5, 0.0), 5, 1.0, 600, seed=4),
    )
    pilot = SampleSet(chains=chains)
    best, diag = pilot_optimal_weights(pilot, toy_refs, step=0.2)
    finite = {k: v for k, v in diag.items() if np.isfinite(v)}
    assert tuple(best) in finite
    assert finite[tuple(best)] == min(finite.values())


def test_pilot_prefers_tilted_weights_on_the_asymmetric_pair(toy_refs):
    """The mixed iid-plus-Markov pair rewards overweighting the cheaper
    iid chain: the tilted candidate should win in a majority of pilots."""
    grid = [np.array([0.5, 0.5]), np.array([0.82, 0.18])]
    wins = 0
    seeds = range(11)
    for s in seeds:
        chains = (
            sample_t_iid(5, 1.0, 1000, seed=100 + s),
            independence_mh(t_density(5, 0.0), 5, 1.0, 1000, seed=200 + s),
        )
        pilot = SampleSet(chains=chains)
        best, _ = pilot_optimal_weights(pilot, toy_refs, grid=grid)
        wins += np.allclose(best, [0.82, 0.18])
    assert wins > len(seeds) // 2


def test_pilot_all_points_failing_raises(toy_refs):
    chains = (
        sample_t_iid(5, 1.0, 3, seed=1),
        sample_t_iid(5, 0.0, 3, seed=2),
    )
    pilot = SampleSet(chains=chains)
    with pytest.raises(ConvergenceError):
        pilot_optimal_weights(pilot, toy_refs, grid=[np.array([0.5, 0.5])])


def test_pilot_grid_matches_estimate_ratios_per_point():
    """Building the matrices and the zeta = 0 parts once changes nothing:
    every grid trace and the argmin equal, bit for bit, those of a separate
    estimate_ratios call per point."""
    mus = (0.0, 1.0, 2.0)
    refs = [t_density(5, mu) for mu in mus]
    chains = tuple(
        sample_t_iid(5, mu, 600, seed=90 + i) for i, mu in enumerate(mus)
    )
    pilot = SampleSet(chains=chains)
    best, diag = pilot_optimal_weights(pilot, refs, step=0.2)
    traces = {}
    for point in simplex_grid(3, step=0.2):
        est = estimate_ratios(pilot, refs, weights=StageWeights(point))
        traces[tuple(point)] = float(np.trace(est.cov))
    assert diag.keys() == traces.keys()
    for key, trace in traces.items():
        assert diag[key] == trace
    np.testing.assert_array_equal(best, min(traces, key=traces.get))


def _three_t_pilot():
    mus = (0.0, 1.0, 2.0)
    refs = [t_density(5, mu) for mu in mus]
    chains = tuple(sample_t_iid(5, mu, 2000, seed=70 + i) for i, mu in enumerate(mus))
    return SampleSet(chains=chains), refs


def _toy_pilot():
    chains = (
        sample_t_iid(5, 1.0, 1000, seed=31),
        independence_mh(t_density(5, 0.0), 5, 1.0, 1000, seed=32),
    )
    return SampleSet(chains=chains), [t_density(5, 1.0), t_density(5, 0.0)]


# sha256 of the chosen weights followed by the sorted (point, trace) rows of
# the diagnostics, as little-endian float64; recorded before the grid shared
# its zeta = 0 evaluation.  Like the frozen chain digests, they may differ on
# another CPU or BLAS build with no change to the code.
FROZEN_PILOTS = {
    "three_t_step_0.1": (
        _three_t_pilot,
        0.1,
        "a52c876ffbb2dd23aa69e70c7264b551ed97eca559fdf4e2bfcaa31cc1e13326",
    ),
    "toy_pair_step_0.05": (
        _toy_pilot,
        0.05,
        "dfb6649cc8173ebeaf3d50c95ed39f6ddf607c3d07dd07fe81c6225cc4eb86d0",
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_PILOTS))
def test_pilot_matches_frozen_digest(case):
    build, step, digest = FROZEN_PILOTS[case]
    pilot, refs = build()
    best, diag = pilot_optimal_weights(pilot, refs, step=step)
    rows = np.array([key + (trace,) for key, trace in sorted(diag.items())])
    data = np.concatenate([best, rows.ravel()]).astype("<f8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_pilot_computes_the_zeta_zero_parts_once(monkeypatch):
    """The 36 points of a step-0.1 grid on three chains share one zeta = 0
    evaluation; every other evaluation is at a Newton iterate."""
    real = reverse_logistic._parts
    at_zero = []

    def counting(mats, zeta, *args, **kwargs):
        if not np.any(zeta):
            at_zero.append(zeta.size)
        return real(mats, zeta, *args, **kwargs)

    monkeypatch.setattr(reverse_logistic, "_parts", counting)
    monkeypatch.setattr(weights, "_parts", counting)
    pilot, refs = _three_t_pilot()
    _, diag = pilot_optimal_weights(pilot, refs, step=0.1)
    assert len(diag) == 36
    assert all(np.isfinite(v) for v in diag.values())
    assert at_zero == [3]


def test_pilot_with_all_references_vanishing_at_a_state_raises_undefined_point():
    """Both references vanish at state 1, which each chain visits: the
    shared zeta = 0 evaluation raises the UndefinedPointError of a single
    fit (exit 5) before any grid point is fitted.  The golden entry
    repro-pilot-vanishing-state reaches the same state from a config."""
    refs = [
        discrete_table_density((1, 0, 1), id="left"),
        discrete_table_density((1, 0, 2), id="right"),
    ]
    chains = (
        ChainSample("left", np.array([0.0, 1.0, 2.0, 0.0, 2.0, 0.0]), "iid", 0),
        ChainSample("right", np.array([2.0, 0.0, 2.0, 1.0, 2.0, 2.0]), "iid", 0),
    )
    with pytest.raises(UndefinedPointError, match="all reference densities vanish"):
        pilot_optimal_weights(SampleSet(chains=chains), refs, step=0.25)
