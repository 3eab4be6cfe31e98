"""Stage-1 ratio estimation: objective, solver, and covariance assembly."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genis.densities import (
    UnnormalizedDensity,
    discrete_table_density,
    t_density,
)
from genis import reverse_logistic
from genis.batch_means import DEFAULT_BM_SPEC
from genis.errors import (
    ConvergenceError,
    DegenerateDenominatorError,
    InsufficientDataError,
    UndefinedPointError,
)
from genis.reverse_logistic import (
    StageWeights,
    estimate_ratios,
    fit_reverse_logistic,
    info_matrix,
    log_density_matrices,
    ratio_covariance,
    ratio_jacobian,
    score_long_run_cov,
    _deflated_info_pinv,
    sym_pseudo_inverse,
    zeta_to_ratios,
)
from genis.pipeline import config_from_json, run_two_stage
from genis.samplers import (
    ChainSample,
    SampleSet,
    derive_seed,
    discrete_mh,
    independence_mh,
    sample_t_iid,
)

from conftest import (
    TABLE_1,
    TABLE_2,
    exact_proportion_chain,
    rl_evaluate,
    t_log_pdf,
    table_mh_samples,
    three_t_pilot,
    traced_peak,
)

# Stage 1 of configs/toy.json (se_method "both"), frozen from the row-major
# stage-1 code that recomputed the softmax for every quantity.
TOY_D_HAT = 1.0015319308721
TOY_COV_BM = 2.3613593903493957
TOY_COV_RS = 2.1153306838538346
TOY_ITERATIONS = 2

# Population curvature entry for the pair (t5 at 1, t5 at 0) with equal
# chain weights at the true offsets: quadrature of the mixture density times
# p_1(1 - p_1), frozen from scipy.integrate.quad (abs err < 3e-10).
POP_B_OFFDIAG = 0.20930277429142244


def _flat_pair(n=3):
    """Two identical-table references with equal exact chains."""
    refs = [
        discrete_table_density(TABLE_1, id="one"),
        discrete_table_density(TABLE_1, id="two"),
    ]
    chains = (
        exact_proportion_chain(TABLE_1, n, density_id="one"),
        exact_proportion_chain(TABLE_1, n, density_id="two"),
    )
    return SampleSet(chains=chains), refs


def _membership(x, refs, zeta):
    """Membership probabilities at states x, one row per state."""
    x = np.asarray(x, dtype=float)
    chains = tuple(ChainSample(ref.id, x, "iid", 0) for ref in refs)
    return rl_evaluate(SampleSet(chains=chains), refs, zeta)[3][0].T


# --------------------------------------------------------------- membership


def test_membership_equal_densities_is_uniform():
    refs = [
        discrete_table_density((4, 4), id="a"),
        discrete_table_density((4, 4), id="b"),
    ]
    p = _membership([0.0, 1.0], refs, np.zeros(2))
    np.testing.assert_allclose(p, 0.5, atol=1e-12)


def test_membership_four_to_one():
    refs = [
        discrete_table_density((4, 4), id="heavy"),
        discrete_table_density((1, 1), id="light"),
    ]
    p = _membership([0.0], refs, np.zeros(2))
    np.testing.assert_allclose(p, [[0.8, 0.2]], atol=1e-12)
    # an offset of -log 4 on the heavy component cancels the ratio
    p = _membership([0.0], refs, np.array([-math.log(4.0), 0.0]))
    np.testing.assert_allclose(p, [[0.5, 0.5]], atol=1e-12)


def test_membership_rows_sum_to_one():
    refs = [t_density(5, 1.0), t_density(5, 0.0)]
    x = np.linspace(-30.0, 30.0, 101)
    p = _membership(x, refs, np.array([0.3, -0.3]))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_log_density_matrices_are_component_major():
    chains = (
        sample_t_iid(5, 1.0, 30, seed=1),
        sample_t_iid(5, 0.0, 20, seed=2),
        sample_t_iid(3, 0.5, 10, seed=3),
    )
    refs = [t_density(5, 1.0), t_density(5, 0.0), t_density(3, 0.5)]
    mats = log_density_matrices(SampleSet(chains=chains), refs)
    assert [m.shape for m in mats] == [(3, 30), (3, 20), (3, 10)]
    np.testing.assert_array_equal(mats[1][2], refs[2].log_density(chains[1].states))


def _both_vanish_at_1():
    """Two tables without mass at state 1, and chains that visit it."""
    refs = [
        discrete_table_density((1, 0, 1), id="left"),
        discrete_table_density((1, 0, 2), id="right"),
    ]
    chains = (
        ChainSample("left", np.array([0.0, 1.0, 2.0, 0.0]), "iid", 0),
        ChainSample("right", np.array([2.0, 0.0, 2.0, 2.0]), "iid", 0),
    )
    return SampleSet(chains=chains), refs


def test_all_references_vanishing_at_a_state_is_undefined():
    samples, refs = _both_vanish_at_1()
    with pytest.raises(UndefinedPointError, match="all reference densities vanish at a state"):
        estimate_ratios(samples, refs)


def test_vanishing_state_raises_on_every_evaluator_path():
    """The check runs where the log-density matrices are built, so every
    path that builds them raises, whatever zeta it then evaluates."""
    samples, refs = _both_vanish_at_1()
    zeta, a = np.array([0.3, -0.3]), np.array([0.4, 0.6])
    calls = (
        lambda: rl_evaluate(samples, refs, zeta),
        lambda: info_matrix(samples, refs, zeta, a),
        lambda: score_long_run_cov(samples, refs, zeta, a),
        lambda: fit_reverse_logistic(samples, refs),
    )
    for call in calls:
        with pytest.raises(UndefinedPointError, match="all reference densities vanish"):
            call()


def test_single_reference_at_a_zero_mass_state_has_no_ratios():
    """With one chain there is nothing to fit, so a state outside the
    reference's support is not checked and the estimate is empty."""
    ref = discrete_table_density((1, 0, 1), id="left")
    chain = ChainSample("left", np.array([0.0, 1.0, 2.0, 0.0, 2.0, 0.0]), "iid", 0)
    est = estimate_ratios(SampleSet(chains=(chain,)), [ref], se_method="both")
    assert est.d_hat.tolist() == []
    assert est.cov_bm.shape == (0, 0) and est.cov_rs.shape == (0, 0)


# ---------------------------------------------------------------- objective


def test_qll_single_point_per_chain():
    samples, refs = _flat_pair(n=1)
    # w = (1, 1); both membership probabilities are 1/2 at every state
    expected = 2.0 * (2.0 * math.log(0.5))
    got = rl_evaluate(samples, refs, np.zeros(2))[0]
    assert got == pytest.approx(expected, rel=1e-12)


def test_qll_shift_invariance():
    samples = table_mh_samples(400, master_seed=5)
    refs = [
        discrete_table_density(TABLE_1, id=samples.chains[0].density_id),
        discrete_table_density(TABLE_2, id=samples.chains[1].density_id),
    ]
    zeta = np.array([0.4, -0.1])
    base = rl_evaluate(samples, refs, zeta)[0]
    for c in (-3.0, 0.7):
        shifted = rl_evaluate(samples, refs, zeta + c)[0]
        assert shifted == pytest.approx(base, rel=1e-10)


def test_qll_weight_scale_invariance():
    samples = table_mh_samples(300, master_seed=6)
    refs = [
        discrete_table_density(TABLE_1, id=samples.chains[0].density_id),
        discrete_table_density(TABLE_2, id=samples.chains[1].density_id),
    ]
    zeta = np.array([0.2, -0.2])
    w1 = StageWeights(np.array([0.3, 0.7]))
    w2 = StageWeights(np.array([3.0, 7.0]))
    assert rl_evaluate(samples, refs, zeta, w1)[0] == pytest.approx(
        rl_evaluate(samples, refs, zeta, w2)[0], rel=1e-14
    )


def test_score_components_sum_to_zero_and_symmetry_zero():
    samples, refs = _flat_pair(n=4)
    g = rl_evaluate(samples, refs, np.zeros(2))[1]
    np.testing.assert_allclose(g, 0.0, atol=1e-12)
    samples2 = table_mh_samples(500, master_seed=9)
    refs2 = [
        discrete_table_density(TABLE_1, id=samples2.chains[0].density_id),
        discrete_table_density(TABLE_2, id=samples2.chains[1].density_id),
    ]
    g2 = rl_evaluate(samples2, refs2, np.array([0.1, -0.3]))[1]
    assert abs(g2.sum()) <= 1e-10 * samples2.n_total


def test_score_matches_central_differences():
    rng = np.random.default_rng(21)
    chains = (
        sample_t_iid(5, 1.0, 40, seed=1),
        sample_t_iid(5, 0.0, 25, seed=2),
        sample_t_iid(3, 0.5, 30, seed=3),
    )
    samples = SampleSet(chains=chains)
    refs = [t_density(5, 1.0), t_density(5, 0.0), t_density(3, 0.5)]
    weights = StageWeights(np.array([0.5, 0.3, 0.2]))
    for _ in range(3):
        zeta = rng.normal(scale=0.5, size=3)
        g = rl_evaluate(samples, refs, zeta, weights)[1]
        h = 1e-6
        for r in range(3):
            e = np.zeros(3)
            e[r] = h
            fd = (
                rl_evaluate(samples, refs, zeta + e, weights)[0]
                - rl_evaluate(samples, refs, zeta - e, weights)[0]
            ) / (2 * h)
            assert fd == pytest.approx(g[r], rel=1e-6, abs=1e-8)


# ------------------------------------------------------------------- solver


def test_fit_identical_densities_gives_zero():
    samples, refs = _flat_pair(n=5)
    zeta = fit_reverse_logistic(samples, refs)
    np.testing.assert_allclose(zeta, 0.0, atol=1e-9)


def test_fit_with_equal_weights_starts_at_plus_zero(monkeypatch):
    """Each fit starts at log a - log a_1, centred, which is +0.0 bit for
    bit under equal weights, so a fit under naive weights on chains of
    equal length makes its first evaluation exactly at zeta = 0, as does
    each point of a stack.  (log a centred alone gives -2.2e-16 at k = 6.)"""
    real = reverse_logistic._parts
    calls = []

    def spy(mats, zeta, out):
        calls.append(zeta.copy())
        return real(mats, zeta, out)

    monkeypatch.setattr(reverse_logistic, "_parts", spy)
    samples, refs = three_t_pilot()
    estimate_ratios(samples, refs)
    firsts = [calls[0]]
    calls.clear()
    mats = [np.random.default_rng(l).standard_normal((6, 50)) for l in range(6)]
    reverse_logistic._fit(mats, np.full((2, 6), 1 / 6), np.full(6, 50.0))
    firsts.append(calls[0])
    assert [z.shape for z in firsts] == [(1, 3), (2, 6)]
    for z in firsts:
        assert (z == 0.0).all() and not np.signbit(z).any()


def test_fit_discrete_exact_proportions_recovers_truth(
    table_refs, exact_table_samples
):
    """Sample proportions equal to the population masses solve the score
    equations at the true offsets, so the ratio comes out exactly 2."""
    est = estimate_ratios(exact_table_samples, table_refs)
    assert est.d_hat[0] == pytest.approx(2.0, abs=1e-8)
    assert abs(est.zeta_hat.sum()) < 1e-12
    assert est.grad_norm <= 1e-10


def test_first_order_conditions_at_fit():
    samples = table_mh_samples(2000, master_seed=3)
    refs = [
        discrete_table_density(TABLE_1, id=samples.chains[0].density_id),
        discrete_table_density(TABLE_2, id=samples.chains[1].density_id),
    ]
    zeta = fit_reverse_logistic(samples, refs)
    g = rl_evaluate(samples, refs, zeta)[1]
    assert np.max(np.abs(g)) <= 1e-8 * samples.n_total


def test_disjoint_supports_carry_no_information():
    """Chains whose references never overlap pin every membership
    probability at 0 or 1: the objective is flat, the curvature matrix
    vanishes and the ratios are unidentified, which is an error rather
    than an estimate with standard error 0."""
    refs = [
        discrete_table_density((1, 0), id="left"),
        discrete_table_density((0, 1), id="right"),
    ]
    chains = (
        exact_proportion_chain((1, 0), 40, density_id="left"),
        exact_proportion_chain((0, 1), 40, density_id="right"),
    )
    samples = SampleSet(chains=chains)
    with pytest.raises(InsufficientDataError, match=r"\['left'\] and one of \['right'\]"):
        estimate_ratios(samples, refs)


@pytest.mark.parametrize("last", [(0, 0, 1, 1), (0, 0, 0, 1)], ids=["linked", "cut"])
def test_overlap_is_connectivity_not_pairwise(last):
    """A and C share no state, but B overlaps both, which links all three;
    with C moved off B's support it forms a group of its own."""
    tables = {"A": (1, 1, 0, 0), "B": (0, 1, 1, 0), "C": last}
    refs = [discrete_table_density(t, id=name) for name, t in tables.items()]
    samples = SampleSet(chains=tuple(
        exact_proportion_chain(t, 30, density_id=name) for name, t in tables.items()
    ))
    if last == (0, 0, 1, 1):
        np.testing.assert_allclose(estimate_ratios(samples, refs).d_hat, 1.0, rtol=1e-9)
    else:
        with pytest.raises(InsufficientDataError, match=r"\['A', 'B'\] and one of \['C'\]"):
            estimate_ratios(samples, refs)


def test_fit_exhausting_iterations_raises(monkeypatch):
    monkeypatch.setattr(reverse_logistic, "MAX_ITER", 1)
    monkeypatch.setattr(reverse_logistic, "TOL", 1e-15)
    samples = table_mh_samples(2000, master_seed=3)
    refs = [
        discrete_table_density(TABLE_1, id=samples.chains[0].density_id),
        discrete_table_density(TABLE_2, id=samples.chains[1].density_id),
    ]
    with pytest.raises(ConvergenceError, match=r"^no convergence in 1 iterations \(grad norm "):
        fit_reverse_logistic(samples, refs)


def test_fit_objective_not_decreased():
    samples = table_mh_samples(1500, master_seed=14)
    refs = [
        discrete_table_density(TABLE_1, id=samples.chains[0].density_id),
        discrete_table_density(TABLE_2, id=samples.chains[1].density_id),
    ]
    zeta = fit_reverse_logistic(samples, refs)
    ll_fit = rl_evaluate(samples, refs, zeta)[0]
    assert ll_fit >= rl_evaluate(samples, refs, np.zeros(2))[0]


# ------------------------------------------------------------ ratio mapping


def test_zeta_to_ratios_examples():
    half = np.array([0.5, 0.5])
    assert zeta_to_ratios(np.zeros(2), half)[0] == pytest.approx(1.0)
    assert zeta_to_ratios(np.zeros(2), np.array([0.8, 0.2]))[0] == pytest.approx(0.25)
    assert zeta_to_ratios(np.array([0.5, -0.5]), half)[0] == pytest.approx(math.e)


def test_ratio_jacobian_examples():
    np.testing.assert_allclose(ratio_jacobian(np.array([1.0])), [[1.0], [-1.0]])
    np.testing.assert_allclose(
        ratio_jacobian(np.array([2.0, 3.0])),
        [[2.0, 3.0], [-2.0, 0.0], [0.0, -3.0]],
    )


@given(
    d=st.lists(
        st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=5
    )
)
@settings(max_examples=40, deadline=None)
def test_ratio_jacobian_columns_sum_to_zero(d):
    jac = ratio_jacobian(np.array(d))
    np.testing.assert_allclose(jac.sum(axis=0), 0.0, atol=1e-9)


# -------------------------------------------------------- curvature matrix


def test_info_matrix_equal_densities():
    samples, refs = _flat_pair(n=6)
    b = info_matrix(samples, refs, np.zeros(2), [0.5, 0.5])
    np.testing.assert_allclose(b, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)


def test_info_matrix_row_sums_vanish():
    samples = table_mh_samples(800, master_seed=8)
    refs = [
        discrete_table_density(TABLE_1, id=samples.chains[0].density_id),
        discrete_table_density(TABLE_2, id=samples.chains[1].density_id),
    ]
    b = info_matrix(samples, refs, np.array([0.3, -0.3]), [0.6, 0.4])
    np.testing.assert_allclose(b.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_array_equal(b, b.T)


def test_info_matrix_matches_quadrature_oracle(toy_refs):
    """Large iid draws from both references put the sample curvature within
    1% of the population value computed by quadrature."""
    n = 200_000
    chains = (
        sample_t_iid(5, 1.0, n, seed=71),
        sample_t_iid(5, 0.0, n, seed=72),
    )
    samples = SampleSet(chains=chains)
    b = info_matrix(samples, toy_refs, np.zeros(2), [0.5, 0.5])
    assert b[0, 0] == pytest.approx(POP_B_OFFDIAG, rel=0.01)
    assert b[0, 1] == pytest.approx(-POP_B_OFFDIAG, rel=0.01)


def test_info_matrix_is_minus_scaled_hessian():
    """Central differences of the score recover -n times the curvature."""
    chains = (
        sample_t_iid(5, 1.0, 50, seed=5),
        sample_t_iid(5, 0.0, 70, seed=6),
    )
    samples = SampleSet(chains=chains)
    refs = [t_density(5, 1.0), t_density(5, 0.0)]
    weights = StageWeights(np.array([0.4, 0.6]))
    zeta = np.array([0.2, -0.2])
    n = samples.n_total
    b = info_matrix(samples, refs, zeta, weights.a)
    h = 1e-5
    for r in range(2):
        e = np.zeros(2)
        e[r] = h
        col = (
            rl_evaluate(samples, refs, zeta + e, weights)[1]
            - rl_evaluate(samples, refs, zeta - e, weights)[1]
        ) / (2 * h)
        np.testing.assert_allclose(col, -n * b[:, r], rtol=1e-4, atol=1e-6)


# ----------------------------------------------------------- score variance


def test_omega_zero_for_identical_densities():
    samples, refs = _flat_pair(n=8)
    omega = score_long_run_cov(samples, refs, np.zeros(2), [0.5, 0.5])
    np.testing.assert_allclose(omega, 0.0, atol=1e-12)


def test_omega_replication_oracle(table_refs):
    """Mean estimated score covariance over replications should land within
    25% (Frobenius) of the empirical covariance of the scaled score at the
    true offsets."""
    # true offsets: exp(zeta_l) proportional to a_l / m_l, centered
    zeta0 = np.array([0.5 * math.log(2.0), -0.5 * math.log(2.0)])
    reps = 500
    n_per = 1000
    scores = np.empty((reps, 2))
    omegas = np.zeros((2, 2))
    for r in range(reps):
        samples = table_mh_samples(n_per, master_seed=1000, rep=r)
        g = rl_evaluate(samples, table_refs, zeta0)[1]
        scores[r] = g / math.sqrt(samples.n_total)
        omegas += score_long_run_cov(samples, table_refs, zeta0, [0.5, 0.5])
    omegas /= reps
    empirical = np.cov(scores.T, ddof=1)
    err = np.linalg.norm(omegas - empirical) / np.linalg.norm(empirical)
    assert err <= 0.25


def test_omega_rs_route_requires_marks(table_refs):
    samples = table_mh_samples(300, master_seed=2, with_regen=False)
    with pytest.raises(ValueError):
        score_long_run_cov(
            samples, table_refs, np.zeros(2), [0.5, 0.5], method="rs"
        )
    with pytest.raises(ValueError):
        score_long_run_cov(
            samples, table_refs, np.zeros(2), [0.5, 0.5], method="spectral"
        )


# ------------------------------------------------------------ pseudoinverse


@pytest.mark.parametrize("z", [400.0, 230.0], ids=["ratio", "covariance"])
def test_estimates_out_of_float_range_are_estimation_errors(z):
    """d = e^(2z) overflows exp at z = 400; at z = 230 d is finite but the
    sandwich overflows matmul.  Both once warned and went on with inf or
    NaN; now they raise, and the pilot grid skips such a point."""
    chains = [sample_t_iid(5, mu, 10, seed=1) for mu in (0.0, 1.0)]
    p = np.random.default_rng(1).uniform(0.2, 0.8, 10)
    probs = [np.stack([p, 1.0 - p])[None]] * 2
    info = np.array([[[0.25, -0.25], [-0.25, 0.25]]])
    fit = (np.array([0]), np.array([[z, -z]]), np.array([1]), np.array([0.0]), info, probs, [None])
    a, n_per = np.array([[0.5, 0.5]]), np.array([10, 10])
    (err,) = reverse_logistic._estimate_from_fit(fit, chains, a, n_per, DEFAULT_BM_SPEC, "bm")
    assert isinstance(err, DegenerateDenominatorError)
    assert "float range" in str(err)


def test_pseudo_inverse_examples():
    np.testing.assert_allclose(sym_pseudo_inverse(np.eye(3)), np.eye(3))
    m = np.array([[0.25, -0.25], [-0.25, 0.25]])
    np.testing.assert_allclose(
        sym_pseudo_inverse(m), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12
    )
    np.testing.assert_allclose(sym_pseudo_inverse(np.zeros((2, 2))), 0.0)
    with pytest.raises(ValueError):
        sym_pseudo_inverse(np.zeros((2, 3)))


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_pseudo_inverse_penrose_property(seed):
    """m = Q diag(lam) Q^T, each eigenvalue 0 with probability 0.3 (the
    null-space branch) and otherwise log-uniform in [1e-3, 1e3].  A random
    r r^T reaches condition numbers where no float64 pseudo-inverse meets
    these tolerances (4.4e11 at seed 579), so it failed by chance."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    lam = np.where(rng.random(k) < 0.3, 0.0, 10.0 ** rng.uniform(-3.0, 3.0, k))
    m = (q * lam) @ q.T
    pinv = sym_pseudo_inverse(m)
    np.testing.assert_allclose(m @ pinv @ m, m, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(pinv, pinv.T, atol=1e-12)


def test_ratio_covariance_zero_omega():
    jac = ratio_jacobian(np.array([2.0]))
    out = ratio_covariance(jac, np.eye(2), np.zeros((2, 2)))
    np.testing.assert_allclose(out, 0.0)


def test_deflated_pinv_survives_row_sum_rounding():
    """Assembly rounding can leave the structural null eigenvalue just
    above a generic rank cutoff; the deflated inverse must not explode."""
    c = 0.21
    for defect in (3e-16 * c, 1e-13):
        bad = np.array([[c + defect, -c], [-c, c + defect]])
        ideal = np.array([[1.0, -1.0], [-1.0, 1.0]]) / (4 * c)
        out = _deflated_info_pinv(bad)
        np.testing.assert_allclose(out, ideal, rtol=1e-9)
    np.testing.assert_allclose(_deflated_info_pinv(np.zeros((2, 2))), 0.0)


def _doubly_symmetrized_pinv(info):
    """Reference for `_deflated_info_pinv`: the form that symmetrized its
    input and its result again."""
    info = 0.5 * (info + np.swapaxes(info, -1, -2))
    k = info.shape[-1]
    lam = np.trace(info, axis1=-2, axis2=-1)[..., None, None]
    zero = lam <= 0.0
    shift = np.where(zero, 1.0, lam)
    j = np.full((k, k), 1.0 / k)
    out = sym_pseudo_inverse(info + shift * j) - j / shift
    return np.where(zero, 0.0, 0.5 * (out + np.swapaxes(out, -1, -2)))


def test_deflated_pinv_equals_the_doubly_symmetrized_form():
    """`_combine` forms B exactly symmetric, so dropping the two
    symmetrizations changes no bit, on 100 random stacks of 4 points."""
    rng = np.random.default_rng(29)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        mats = [rng.normal(scale=rng.choice([0.1, 3.0, 30.0]), size=(k, int(rng.integers(5, 60))))
                for _ in range(k)]
        zeta = rng.normal(scale=2.0, size=(4, k))
        a = rng.dirichlet(np.ones(k), size=4)
        info = reverse_logistic._combine(reverse_logistic._parts(mats, zeta, None), a, a)[2]
        assert np.array_equal(info, np.swapaxes(info, -1, -2))
        got = _deflated_info_pinv(info)
        assert got.tobytes() == _doubly_symmetrized_pinv(info).tobytes()


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_deflated_pinv_matches_generic_on_clean_curvature(seed):
    """On PSD matrices annihilating the ones vector both inverses agree."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    r = rng.standard_normal((k, k))
    proj = np.eye(k) - np.full((k, k), 1.0 / k)
    m = proj @ (r @ r.T) @ proj
    np.testing.assert_allclose(
        _deflated_info_pinv(m), sym_pseudo_inverse(m), rtol=1e-6, atol=1e-9
    )


# -------------------------------------------------------------- full stage 1


def test_estimate_ratios_identical_densities():
    chains = (
        sample_t_iid(5, 0.0, 4000, seed=1, density_id="first"),
        sample_t_iid(5, 0.0, 4000, seed=2, density_id="second"),
    )
    samples = SampleSet(chains=chains)
    refs = [t_density(5, 0.0, id="first"), t_density(5, 0.0, id="second")]
    est = estimate_ratios(samples, refs)
    assert abs(est.d_hat[0] - 1.0) <= 3.0 * est.se[0]


def test_estimate_ratios_discrete_mh(table_refs):
    samples = table_mh_samples(20_000, master_seed=77)
    est = estimate_ratios(samples, table_refs, se_method="both")
    assert abs(est.d_hat[0] - 2.0) <= 3.0 * est.se[0]
    assert abs(est.d_hat[0] - 2.0) <= 3.0 * est.se_rs[0]
    assert est.cov_bm is not None and est.cov_rs is not None
    assert est.iterations < 200
    assert est.grad_norm <= 1e-10


def test_estimate_ratios_crosses_tol_at_objective_noise_floor():
    # this draw converges to grad norm 9e-10 and then the objective stops
    # resolving further improvement in float64; the solver must finish on
    # full Newton steps instead of burning the iteration cap
    refs = [
        discrete_table_density((1.0, 2.0, 0.5, 1.5, 1.0), id="first"),
        discrete_table_density((2.0, 1.0, 1.0, 0.5, 2.5), id="second"),
    ]
    chains = tuple(
        discrete_mh(ref, 2000, derive_seed(20240819, 1, i, 46), with_regen=True)
        for i, ref in enumerate(refs)
    )
    est = estimate_ratios(SampleSet(chains=chains), refs)
    assert est.grad_norm <= 1e-10
    assert est.iterations < 20


def test_toy_config_stage1_matches_frozen_reference():
    """The (k, n) evaluator reproduces the row-major code's stage 1 of the
    shipped toy config: same iterations, d_hat and covariances to 1e-10."""
    cfg = config_from_json(Path(__file__).parents[1] / "configs" / "toy.json")
    est = run_two_stage(replace(cfg, targets=None, stage2=None)).ratio_estimate
    assert est.iterations == TOY_ITERATIONS
    assert est.d_hat[0] == pytest.approx(TOY_D_HAT, rel=1e-10)
    assert est.cov_bm[0, 0] == pytest.approx(TOY_COV_BM, rel=1e-10)
    assert est.cov_rs[0, 0] == pytest.approx(TOY_COV_RS, rel=1e-10)


def test_stage1_memory_peak(toy_refs):
    """Stage 1 with both Omega routes on 2 x 100k draws peaks, beyond the
    live samples, below 11.5 chain-length float64 arrays (9.2 MB).  It
    measures 10.0 (8.0 MB, set by the Newton fit), so the bound leaves 15%
    headroom; with the log-density matrices alive through the Omega routes
    and the RS prefix sums stacked, it peaked at 13.5 (10.8 MB)."""
    def pair(n):
        return SampleSet(chains=(
            sample_t_iid(5, 1.0, n, seed=11),
            independence_mh(t_density(5, 0.0), 5, 1.0, n, seed=12, with_regen=True),
        ))

    n = 100_000
    estimate_ratios(pair(500), toy_refs, se_method="both")  # first-call imports
    samples = pair(n)
    est, peak = traced_peak(lambda: estimate_ratios(samples, toy_refs, se_method="both"))
    assert est.cov_bm is not None and est.cov_rs is not None
    assert peak < 11.5 * 8 * n


def test_estimate_ratios_toy_pair(toy_refs):
    n = 20_000
    chains = (
        sample_t_iid(5, 1.0, n, seed=11),
        independence_mh(t_density(5, 0.0), 5, 1.0, n, seed=12),
    )
    samples = SampleSet(chains=chains)
    est = estimate_ratios(samples, toy_refs)
    assert abs(est.d_hat[0] - 1.0) <= 3.0 * est.se[0]
    assert est.se[0] > 0.0


def test_estimate_ratios_scale_covariance(table_refs, exact_table_samples):
    """Doubling the second table doubles its ratio; doubling the first
    halves every ratio."""
    base = estimate_ratios(exact_table_samples, table_refs).d_hat[0]
    refs_scaled2 = [
        discrete_table_density(TABLE_1, id=table_refs[0].id),
        discrete_table_density((6, 2), id=table_refs[1].id),
    ]
    scaled2 = estimate_ratios(exact_table_samples, refs_scaled2).d_hat[0]
    assert scaled2 == pytest.approx(2.0 * base, rel=1e-7)
    refs_scaled1 = [
        discrete_table_density((2, 2), id=table_refs[0].id),
        discrete_table_density(TABLE_2, id=table_refs[1].id),
    ]
    scaled1 = estimate_ratios(exact_table_samples, refs_scaled1).d_hat[0]
    assert scaled1 == pytest.approx(0.5 * base, rel=1e-7)


def test_estimate_ratios_continuous_scale_covariance(toy_refs):
    c = 3.7
    scaled = UnnormalizedDensity(
        toy_refs[1].id,
        lambda x: t_log_pdf(5, 0.0, x) + math.log(c),
    )
    chains = (
        sample_t_iid(5, 1.0, 3000, seed=41),
        sample_t_iid(5, 0.0, 3000, seed=42),
    )
    samples = SampleSet(chains=chains)
    base = estimate_ratios(samples, toy_refs).d_hat[0]
    got = estimate_ratios(samples, [toy_refs[0], scaled]).d_hat[0]
    assert got == pytest.approx(c * base, rel=1e-7)


@pytest.mark.parametrize("scale", [1e-150, 1e-60, 1e-25, 1e25, 1e60, 1e150])
def test_estimate_ratios_are_scale_equivariant(toy_refs, scale):
    """Multiplying a reference by s multiplies its ratio and both standard
    errors by s, on the same chains, up to where the ratio's square leaves
    float range.  Without a bound on the Newton step, every scale here
    failed its line search."""
    chains = (
        sample_t_iid(5, 1.0, 2000, seed=61),
        independence_mh(t_density(5, 0.0), 5, 1.0, 2000, seed=62, with_regen=True),
    )
    samples = SampleSet(chains=chains)
    scaled = UnnormalizedDensity(
        toy_refs[1].id, lambda x: t_log_pdf(5, 0.0, x) + math.log(scale))
    base = estimate_ratios(samples, toy_refs, se_method="both")
    got = estimate_ratios(samples, [toy_refs[0], scaled], se_method="both")
    np.testing.assert_allclose(got.d_hat / scale, base.d_hat, rtol=1e-9)
    np.testing.assert_allclose(got.se / scale, base.se, rtol=1e-9)
    np.testing.assert_allclose(got.se_rs / scale, base.se_rs, rtol=1e-9)


def test_estimate_ratios_single_chain():
    samples = SampleSet(chains=(sample_t_iid(5, 0.0, 100, seed=1),))
    est = estimate_ratios(samples, [t_density(5, 0.0)], se_method="both")
    assert est.d_hat.size == 0
    assert est.cov_bm.shape == (0, 0)
    assert est.cov_rs.shape == (0, 0)
    assert est.se.size == 0


def test_estimate_ratios_validation(table_refs, exact_table_samples):
    with pytest.raises(ValueError):
        estimate_ratios(exact_table_samples, table_refs, se_method="oops")
    with pytest.raises(ValueError):
        estimate_ratios(
            exact_table_samples,
            table_refs,
            weights=StageWeights(np.array([1.0, 1.0, 1.0])),
        )
    with pytest.raises(ValueError):
        estimate_ratios(exact_table_samples, list(reversed(table_refs)))


def test_stage_weights_normalize_and_validate():
    w = StageWeights(np.array([2.0, 6.0]))
    np.testing.assert_allclose(w.a, [0.25, 0.75])
    with pytest.raises(ValueError):
        StageWeights(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        StageWeights(np.array([1.0, np.inf]))
