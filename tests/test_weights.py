"""Weight strategies: pooled, distance-based, effective-size, pilot search."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from genis import reverse_logistic, weights
from genis.batch_means import DEFAULT_BM_SPEC
from genis.densities import discrete_table_density, t_density
from genis.errors import ConvergenceError, InsufficientDataError, UndefinedPointError
from genis.reverse_logistic import StageWeights, estimate_ratios
from genis.samplers import ChainSample, SampleSet, independence_mh, sample_t_iid
from genis.weights import (
    effective_sample_size,
    inv_dist_weights,
    naive_weights,
    pilot_optimal_weights,
    simplex_grid,
)

from conftest import (
    FROZEN_PILOTS,
    TABLE_1,
    check_golden,
    exact_proportion_chain,
    frozen_pilot_entry,
    scaled_pair_pilot,
    three_t_pilot,
    traced_peak,
)


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


def _product_simplex_grid(k, step):
    """The grid as it was first built: every (k-1)-tuple of parts in
    1, ..., m - 1, kept when the parts leave a positive last one."""
    if k == 1:
        return [np.array([1.0])]
    m = int(round(1.0 / step))
    grid = []
    for parts in itertools.product(range(1, m), repeat=k - 1):
        if sum(parts) < m:
            vec = np.array(parts + (m - sum(parts),), dtype=float) / m
            if np.all(vec >= weights.WEIGHT_FLOOR):
                grid.append(vec)
    return grid


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_simplex_grid_equals_the_product_scan(k):
    """Enumerating the cut points gives the product scan's vectors, bit for
    bit and in its order, so the pilot search keeps its traces and its
    lexicographic tie-break."""
    for step in (0.05, 0.07, 0.1, 0.2, 0.25, 0.3, 1.0 / 3.0, 0.5, 0.9):
        reference = _product_simplex_grid(k, step)
        if round(1.0 / step) < k:  # e.g. 0.9 at k >= 2, 0.3 and 1/3 at k >= 4
            assert reference == []
            with pytest.raises(ValueError, match="leaves an empty weight grid"):
                simplex_grid(k, step)
            continue
        grid = list(simplex_grid(k, step))
        assert [v.dtype for v in grid] == [np.dtype(float)] * len(reference)
        assert [v.tobytes() for v in grid] == [v.tobytes() for v in reference]


def test_simplex_grid_small_cases():
    assert [tuple(v) for v in simplex_grid(1, 0.05)] == [(1.0,)]
    pts = sorted(tuple(v) for v in simplex_grid(2, step=0.25))
    assert pts == [(0.25, 0.75), (0.5, 0.5), (0.75, 0.25)]
    pts3 = list(simplex_grid(3, step=1.0 / 3.0))
    assert len(pts3) == 1
    np.testing.assert_allclose(pts3[0], 1.0 / 3.0)


def test_simplex_grid_covers_and_validates():
    grid = list(simplex_grid(2, step=0.05))
    assert len(grid) == 19
    # seven weights: 20 parts split at 6 of 19 cut points, each split once
    assert len(list(simplex_grid(7, 0.05))) == math.comb(19, 6)
    for v in grid:
        assert v.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(v > 0)
    with pytest.raises(ValueError):
        simplex_grid(0, 0.05)
    with pytest.raises(ValueError):
        simplex_grid(2, step=1.5)


def _steps_around(k):
    """Steps putting m = round(1/step) at k - 1, k and k + 1, some from a
    half-way value that Python rounds half to even (0.4 gives m = 2 and
    2/7 gives m = 4)."""
    for m in (k - 1, k, k + 1):
        for x in (m - 0.5, m, m + 0.25, m + 0.5):
            if x > 1:
                yield 1.0 / x


def _raises_where_the_scan_is_empty(k, step) -> bool:
    """simplex_grid(k, step) yields the product scan's vectors bit for bit,
    or raises at the call when the scan keeps none; True when it raised."""
    reference = _product_simplex_grid(k, step)
    if not reference:
        with pytest.raises(ValueError) as err:
            simplex_grid(k, step)
        assert str(err.value) == f"step {step:g} leaves an empty weight grid for {k} references"
        return True
    assert [v.tobytes() for v in simplex_grid(k, step)] == [v.tobytes() for v in reference]
    return False


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_simplex_grid_raises_exactly_when_the_product_scan_is_empty(k):
    """The emptiness rule is arithmetic on k and m, yet it agrees with
    listing the grid on every step around m = k."""
    steps = list(_steps_around(k))
    assert {round(1.0 / s) for s in steps} >= {m for m in (k - 1, k, k + 1) if m >= 1}
    empty = [step for step in steps if _raises_where_the_scan_is_empty(k, step)]
    assert empty == [step for step in steps if round(1.0 / step) < k]


def test_the_grid_bound_keeps_every_weight_above_the_floor():
    """The grid has at most MAX_GRID_POINTS parts per weight, so its smallest
    weight 1/m clears WEIGHT_FLOOR with no filter, also on the finest and
    largest grid the bound accepts: m = MAX_GRID_POINTS at k = 2."""
    assert weights.MAX_GRID_POINTS * weights.WEIGHT_FLOOR < 1
    finest = 1.0 / (weights.MAX_GRID_POINTS + 0.5)  # rounds half to even, to the bound
    grid = np.array(list(simplex_grid(2, finest)))
    assert grid.shape == (weights.MAX_GRID_POINTS - 1, 2)
    assert grid.min() == 1.0 / weights.MAX_GRID_POINTS > weights.WEIGHT_FLOOR
    with pytest.raises(ValueError, match="finer than the grid's bound"):
        simplex_grid(2, np.nextafter(finest, 0.0))
    for k in range(1, 21):  # the bound admits every k at the default step
        simplex_grid(k, weights.DEFAULT_STEP)


# -------------------------------------------------------------- pilot search


def test_pilot_single_point_grid(toy_refs):
    chains = (
        sample_t_iid(5, 1.0, 400, seed=1),
        independence_mh(t_density(5, 0.0), 5, 1.0, 400, seed=2),
    )
    pilot = SampleSet(chains=chains)
    best, diag = pilot_optimal_weights(pilot, toy_refs, step=0.5)
    np.testing.assert_array_equal(best, [0.5, 0.5])
    assert list(diag) == [(0.5, 0.5)]


def test_pilot_tie_break_prefers_naive():
    """With identical references every weight gives zero estimated
    covariance, so the tie-break toward pooled weights decides; when the
    pooled weights are off the grid, the smallest point wins."""
    refs = [
        discrete_table_density(TABLE_1, id="p"),
        discrete_table_density(TABLE_1, id="q"),
    ]
    for lengths, step, winner in (((30, 30), 0.1, [0.5, 0.5]), ((30, 20), 0.25, [0.25, 0.75])):
        chains = (
            exact_proportion_chain(TABLE_1, lengths[0], "p"),
            exact_proportion_chain(TABLE_1, lengths[1], "q"),
        )
        best, diag = pilot_optimal_weights(SampleSet(chains=chains), refs, step=step)
        np.testing.assert_allclose(best, winner)
        assert len(diag) == round(1 / step) - 1
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in diag.values())


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
    iid chain: the tilted candidate should beat the pooled weights in a
    majority of pilots.  The search's traces are those of estimate_ratios
    (test_pilot_grid_matches_estimate_ratios_per_point)."""
    wins = 0
    seeds = range(11)
    for s in seeds:
        chains = (
            sample_t_iid(5, 1.0, 1000, seed=100 + s),
            independence_mh(t_density(5, 0.0), 5, 1.0, 1000, seed=200 + s),
        )
        pilot = SampleSet(chains=chains)
        pooled, tilted = (
            np.trace(estimate_ratios(pilot, toy_refs, weights=StageWeights(a)).cov)
            for a in ([0.5, 0.5], [0.82, 0.18])
        )
        wins += tilted < pooled
    assert wins > len(seeds) // 2


def test_pilot_all_points_failing_raises(toy_refs):
    chains = (
        sample_t_iid(5, 1.0, 3, seed=1),
        sample_t_iid(5, 0.0, 3, seed=2),
    )
    pilot = SampleSet(chains=chains)
    with pytest.raises(ConvergenceError):
        pilot_optimal_weights(pilot, toy_refs, step=0.5)


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


@pytest.mark.parametrize("case", sorted(FROZEN_PILOTS))
def test_pilot_matches_frozen_digest(case):
    """The sha256 of the chosen weights followed by the sorted (point,
    trace) rows of the diagnostics, as little-endian float64, is the golden
    corpus entry of the case.  The entries were last re-recorded when each
    fit began at its own weights' offsets: no chosen weight moved, and no
    trace by more than 1.2e-9 relative."""
    build, step = FROZEN_PILOTS[case]
    pilot, refs = build()
    best, diag = pilot_optimal_weights(pilot, refs, step=step)
    rows = np.array([key + (trace,) for key, trace in sorted(diag.items())])
    data = np.concatenate([best, rows.ravel()]).astype("<f8").tobytes()
    check_golden(frozen_pilot_entry(case), hashlib.sha256(data).hexdigest())


def test_pilot_fits_each_chunk_from_its_points_own_offsets(monkeypatch):
    """After the one zeta = 0 evaluation of the overlap check, each chunk
    of the 36-point grid first evaluates its points together, each at its
    own start log a - log a_1, centred; then each round is one stacked
    `_parts` call of the points still in their line search, so a chunk
    with no step halving makes 1 + its most Newton iterations calls."""
    real = reverse_logistic._parts
    calls = []

    def spy(mats, zeta, out):
        calls.append(zeta.copy())
        return real(mats, zeta, out)

    pilot, refs = three_t_pilot()
    a = np.array([StageWeights(x).a for x in simplex_grid(3, 0.1)])
    iterations = [estimate_ratios(pilot, refs, StageWeights(x)).iterations for x in a]
    start = np.log(a) - np.log(a[:, :1])
    start -= np.add.reduce(start, axis=1, keepdims=True) / 3
    monkeypatch.setattr(reverse_logistic, "_parts", spy)
    monkeypatch.setattr(weights, "_parts", spy)
    _, diag = pilot_optimal_weights(pilot, refs, step=0.1)
    assert len(diag) == 36 and all(np.isfinite(v) for v in diag.values())
    assert np.array_equal(calls.pop(0), np.zeros((1, 3)))
    for lo in range(0, 36, weights.PILOT_CHUNK):
        chunk = slice(lo, lo + weights.PILOT_CHUNK)
        assert np.array_equal(calls.pop(0), start[chunk])
        its = np.array(iterations[chunk])
        for r in range(1, its.max() + 1):
            assert len(calls.pop(0)) == np.sum(its >= r)
    assert calls == []


def test_pilot_points_converge_from_their_offsets_in_at_most_3_iterations():
    """Each point of the three-t grid starts at its own weights' offsets,
    which solve the population problem, since the three t5 constants are
    equal: every point converges in at most 3 Newton iterations (2.2 on
    average), where from zeta = 0 they took 3 to 5 (4.4)."""
    pilot, refs = three_t_pilot()
    a = np.array([StageWeights(x).a for x in simplex_grid(3, 0.1)])
    mats = reverse_logistic.log_density_matrices(pilot, refs)
    points, _, iterations, *_ = reverse_logistic._fit(mats, a, pilot.n_per_chain.astype(float))
    assert points.size == 36
    assert iterations.max() <= 3


@pytest.mark.parametrize(
    "build, step, max_iter",
    [(three_t_pilot, 0.125, None), (scaled_pair_pilot, 0.05, 6)],
    ids=["21", "19"],
)
def test_pilot_chunks_match_single_fits(monkeypatch, build, step, max_iter):
    """Grids of 21 and 19 points, neither a multiple of the chunk: the
    default chunk gives the diagnostics of one point at a time, bit for
    bit.  The scaled pair's points take 5 to 8 Newton iterations, so with
    at most 6 some fail, each with the error of its own estimate_ratios
    call, while the other points of its chunk converge."""
    if max_iter is not None:
        monkeypatch.setattr(reverse_logistic, "MAX_ITER", max_iter)
    pilot, refs = build()
    grid = list(weights.simplex_grid(len(refs), step))
    assert len(grid) % weights.PILOT_CHUNK
    best, diag = pilot_optimal_weights(pilot, refs, step=step)
    monkeypatch.setattr(weights, "PILOT_CHUNK", 1)
    single_best, single = pilot_optimal_weights(pilot, refs, step=step)
    np.testing.assert_array_equal(single_best, best)
    assert np.array_equal(list(single.values()), list(diag.values()), equal_nan=True)
    for point in grid:
        try:
            trace = float(np.trace(estimate_ratios(pilot, refs, StageWeights(point)).cov))
        except ConvergenceError as err:
            assert str(err).startswith(f"no convergence in {max_iter} iterations")
            trace = np.nan
        assert np.array_equal(diag[tuple(point)], trace, equal_nan=True)
    if max_iter is not None:
        assert 0 < sum(np.isnan(list(diag.values()))) < len(diag)


def test_lockstep_fit_evaluates_only_finite_candidates(monkeypatch):
    """Components e^-709 apart: the bounded Newton step keeps every
    candidate finite, so no evaluation warns (warnings are errors here)
    and each round is one stacked `_parts` call.  9 of the 36 points fail
    with "Newton step overflows" and the other 27 converge, each with the
    error or zeta of its own fit (10 and 26 when every point started at
    zeta = 0).  Unbounded, some candidates overflowed and other points
    failed their line search."""
    real = reverse_logistic._parts
    finite = []

    def spy(mats, zeta, out):
        finite.append(bool(np.isfinite(zeta).all()))
        return real(mats, zeta, out)

    gap = np.array([0.0, -709.2, -710.2])[:, None]
    mats = [gap + np.array([[0.0, 0.1], [0.0, 0.2], [0.0, -0.1]])] * 3
    a = np.array(list(weights.simplex_grid(3, 0.1)))
    n_per = np.full(3, 2.0)
    monkeypatch.setattr(reverse_logistic, "_parts", spy)
    points, zeta, *_, errors = reverse_logistic._fit(mats, a, n_per)
    assert len(finite) > 1 and all(finite)
    assert [str(err) for err in errors].count("Newton step overflows") == 9
    assert points.size == 27 and all(errors[i] is None for i in points)
    for i, row in enumerate(a):
        _, alone, *_, (err,) = reverse_logistic._fit(mats, row[None], n_per)
        if errors[i] is None:
            assert err is None
            np.testing.assert_array_equal(alone[0], zeta[np.flatnonzero(points == i)[0]])
        else:
            assert (type(err), str(err)) == (type(errors[i]), str(errors[i]))


def test_pilot_on_tiny_chains_fails_every_point_without_raising_from_a_chunk():
    """Three draws per chain are too few for batch means: block_size fails
    in every chunk's estimate step, each point gets that error, and the
    search reports that every grid point failed."""
    refs = [t_density(5, 1.0), t_density(5, 0.0)]
    pilot = SampleSet(chains=(sample_t_iid(5, 1.0, 3, seed=1), sample_t_iid(5, 0.0, 3, seed=2)))
    a = np.array(list(weights.simplex_grid(2, 0.05)))
    mats = reverse_logistic.log_density_matrices(pilot, refs)
    fit = reverse_logistic._fit(mats, a, pilot.n_per_chain.astype(float))
    assert fit[0].size == len(a)
    out = reverse_logistic._estimate_from_fit(
        fit, pilot.chains, a, pilot.n_per_chain, DEFAULT_BM_SPEC, "bm")
    assert all(isinstance(err, InsufficientDataError) for err in out)
    assert {str(err) for err in out} == {"batch means needs n >= 4, got 3"}
    with pytest.raises(ConvergenceError, match="every grid point failed"):
        pilot_optimal_weights(pilot, refs, step=0.05)


def test_pilot_grid_memory_peak():
    """The 36-point search on 3 x 2,000 draws peaks, beyond the live
    pilot, below 12 copies of the pilot's (k, sum n_l) float64 matrix
    (1.7 MB).  It measures 9.9 at PILOT_CHUNK = 6, so the bound leaves 21%
    headroom; with all 36 points fitted in one stack it peaked at 46.7."""
    pilot, refs = three_t_pilot()
    unit = 8 * len(refs) * int(pilot.n_per_chain.sum())
    pilot_optimal_weights(pilot, refs, step=0.1)  # first-call imports
    (_, diag), peak = traced_peak(lambda: pilot_optimal_weights(pilot, refs, step=0.1))
    assert len(diag) == 36
    assert peak < 12 * unit


def test_pilot_with_all_references_vanishing_at_a_state_raises_undefined_point():
    """Both references vanish at state 1, which each chain visits: the
    shared log-density matrices raise the UndefinedPointError of a single
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
