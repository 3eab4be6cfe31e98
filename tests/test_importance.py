"""Stage 2: importance estimates across targets and their two-part errors."""

from pathlib import Path

import numpy as np
import pytest

from genis.batch_means import DEFAULT_BM_SPEC
from genis.densities import (
    Integrand,
    TargetFamily,
    UnnormalizedDensity,
    discrete_table_density,
    t_density,
    t_family,
)
from genis.errors import DegenerateDenominatorError
from genis.importance import (
    _Context,
    _target_pass,
    estimate_family,
    ratio_delta_variance,
)
from genis.pipeline import config_from_json, run_two_stage
from genis.reverse_logistic import estimate_ratios
from genis.samplers import ChainSample, SampleSet, independence_mh, sample_t_iid

from conftest import (
    TABLE_1,
    TABLE_2,
    constant,
    exact_proportion_chain,
    mixture,
    stage2_row,
    table_mh_samples,
)

IDENTITY = Integrand("x", lambda x: np.asarray(x, dtype=float))
HALF = np.array([0.5, 0.5])
TRUE_D = np.array([2.0])

# Exact-summation oracles for the table setup (refs (1,1) and (3,1),
# target (2,2), equal weights, true ratio), computed in Fraction arithmetic:
#   u = m/m_1 = 2,  E[f] = 1/2 for f(x) = x,
#   ratio sensitivity c_1 = 7/15,  mean sensitivity e_1 = -1/30,
#   iid weight long-run variance tau^2 = 56/225.
ORACLE_C1 = 7.0 / 15.0
ORACLE_E1 = -1.0 / 30.0
ORACLE_TAU2 = 56.0 / 225.0

TARGET_TABLE = (2.0, 2.0)


def _table_target():
    return discrete_table_density(TARGET_TABLE, id="even")


def _table_refs():
    return [
        discrete_table_density(TABLE_1, id="flat"),
        discrete_table_density(TABLE_2, id="tilted"),
    ]


def _iid_table_chain(table, n, seed, density_id):
    rng = np.random.default_rng(seed)
    probs = np.asarray(table, dtype=float)
    probs = probs / probs.sum()
    states = rng.choice(len(table), size=n, p=probs).astype(float)
    return ChainSample(density_id=density_id, states=states, kind="iid", seed=seed)


def _pass(samples, target, refs, a, d_hat, f=None):
    """The private per-target pass, as estimate_family runs it."""
    ctx = _Context(samples, refs, d_hat, f)
    return _target_pass(ctx, target, np.asarray(a, dtype=float), DEFAULT_BM_SPEC)


def _chains_at(x, refs):
    """One chain per reference, every chain at the states x."""
    chains = tuple(
        ChainSample(ref.id, np.asarray(x, dtype=float), "iid", 0) for ref in refs
    )
    return SampleSet(chains=chains, stage=2)


# ------------------------------------------------------------- weights u(x)


def test_weights_of_the_matching_mixture_are_one(toy_refs):
    target = mixture(toy_refs, [0.5, 0.25], id="mix")
    x = np.linspace(-8.0, 8.0, 50)
    p = _pass(_chains_at(x, toy_refs), target, toy_refs, HALF, TRUE_D)
    for u in p.u:
        np.testing.assert_allclose(u, 1.0, atol=1e-12)


def test_weights_single_reference_is_classic_ratio(toy_refs):
    target = t_density(5, 0.0)
    ref = toy_refs[0]
    x = np.linspace(-4.0, 4.0, 21)
    p = _pass(_chains_at(x, [ref]), target, [ref], [1.0], np.empty(0))
    direct = np.exp(target.log_density(x) - ref.log_density(x))
    np.testing.assert_allclose(p.u[0], direct, rtol=1e-12)


def test_weights_validate_inputs(toy_refs):
    target = t_density(5, 0.0)
    samples = _chains_at(np.zeros(8), toy_refs)
    with pytest.raises(ValueError):
        stage2_row(samples, target, toy_refs, [1.0], TRUE_D)
    with pytest.raises(ValueError):
        stage2_row(samples, target, toy_refs, [1.0, -1.0], TRUE_D)


# ------------------------------------------------------------ point estimates


def test_exact_table_ratio_and_mean(table_refs, exact_table_samples):
    """Exact-proportion chains with the true ratio reproduce both exact
    quantities to rounding."""
    row = stage2_row(
        exact_table_samples, _table_target(), table_refs, HALF, TRUE_D, f=IDENTITY
    )
    assert row.u_hat == pytest.approx(2.0, abs=1e-12)
    assert row.eta_hat == pytest.approx(0.5, abs=1e-12)


def test_mixture_target_estimates_one_exactly(toy_refs):
    chains = (
        sample_t_iid(5, 1.0, 500, seed=1),
        sample_t_iid(5, 0.0, 500, seed=2),
    )
    samples = SampleSet(chains=chains, stage=2)
    target = mixture(toy_refs, [0.5, 0.25], id="mix")
    row = stage2_row(samples, target, toy_refs, HALF, TRUE_D)
    assert row.u_hat == pytest.approx(1.0, abs=1e-12)
    assert row.var_stage2_u == pytest.approx(0.0, abs=1e-14)


def test_constant_integrand_returns_the_constant(table_refs, exact_table_samples):
    row = stage2_row(
        exact_table_samples, _table_target(), table_refs, HALF, TRUE_D,
        f=constant(3.25),
    )
    assert row.eta_hat == pytest.approx(3.25, rel=1e-14)


def test_estimates_invariant_to_weight_rescaling(table_refs, exact_table_samples):
    target = _table_target()
    u1, u2 = (
        stage2_row(exact_table_samples, target, table_refs, a, TRUE_D).u_hat
        for a in ([1.0, 2.0], [3.0, 6.0])
    )
    assert u1 == u2


def test_mean_invariant_to_target_rescaling(table_refs, exact_table_samples):
    family = TargetFamily(
        (_table_target(), discrete_table_density((6.0, 6.0), id="even3x"))
    )
    base, got = estimate_family(
        exact_table_samples, family, table_refs, TRUE_D, np.zeros((1, 1)), 0.0,
        f=IDENTITY, a=HALF,
    )
    assert got.eta_hat == pytest.approx(base.eta_hat, rel=1e-12)


def test_zero_weight_sum_raises(table_refs):
    chains = (
        exact_proportion_chain(TABLE_1, 8, "flat"),
        exact_proportion_chain(TABLE_1, 8, "tilted"),
    )
    # both chains sit where the target has no mass
    only_zero = tuple(
        ChainSample(c.density_id, np.zeros_like(c.states), "iid", 0)
        for c in chains
    )
    samples = SampleSet(chains=only_zero, stage=2)
    target = discrete_table_density((0.0, 1.0), id="right")
    with pytest.raises(DegenerateDenominatorError):
        _pass(samples, target, table_refs, HALF, TRUE_D, f=IDENTITY)
    row = stage2_row(samples, target, table_refs, HALF, TRUE_D, f=IDENTITY)
    assert row.flags == ("error:DegenerateDenominatorError",)


# ------------------------------------------------------------- sensitivities


def test_ratio_sensitivity_exact_oracle(table_refs, exact_table_samples):
    p = _pass(exact_table_samples, _table_target(), table_refs, HALF, TRUE_D)
    assert p.c_vec.shape == (1,)
    assert p.c_vec[0] == pytest.approx(ORACLE_C1, abs=1e-12)


def test_mean_sensitivity_exact_oracle(table_refs, exact_table_samples):
    p = _pass(exact_table_samples, _table_target(), table_refs, HALF, TRUE_D,
              f=IDENTITY)
    assert p.e_vec[0] == pytest.approx(ORACLE_E1, abs=1e-12)


def test_mean_sensitivity_vanishes_for_constant_integrand(
    table_refs, exact_table_samples
):
    p = _pass(exact_table_samples, _table_target(), table_refs, HALF, TRUE_D,
              f=constant(2.0))
    np.testing.assert_allclose(p.e_vec, 0.0, atol=1e-10)


# ---------------------------------------------------------- stage-2 variance


def test_weight_variance_iid_analytic_oracle(table_refs):
    """iid table chains give the weight series a closed-form variance."""
    n = 100_000
    chains = (
        _iid_table_chain(TABLE_1, n, 11, "flat"),
        _iid_table_chain(TABLE_2, n, 12, "tilted"),
    )
    samples = SampleSet(chains=chains, stage=2)
    row = stage2_row(samples, _table_target(), table_refs, HALF, TRUE_D)
    assert row.var_stage2_u == pytest.approx(ORACLE_TAU2, rel=0.15)


def test_var_stage2_u_same_with_and_without_integrand(table_refs):
    """The u corner of the joint (v, u) batch means is the univariate one."""
    samples = table_mh_samples(3000, master_seed=4, stage=2)
    target = _table_target()
    with_f = stage2_row(samples, target, table_refs, HALF, TRUE_D, f=IDENTITY)
    without = stage2_row(samples, target, table_refs, HALF, TRUE_D)
    assert with_f.var_stage2_u == without.var_stage2_u
    gamma = _pass(samples, target, table_refs, HALF, TRUE_D, f=IDENTITY).bm
    assert gamma[0, 1] == gamma[1, 0]


def test_joint_cov_constant_integrand_entries(table_refs, exact_table_samples):
    gamma_one = _pass(exact_table_samples, _table_target(), table_refs, HALF,
                      TRUE_D, f=constant(1.0)).bm
    # f identically 1 makes the two series identical
    assert gamma_one[0, 0] == gamma_one[1, 1]
    assert gamma_one[0, 1] == gamma_one[0, 0]
    gamma_zero = _pass(exact_table_samples, _table_target(), table_refs, HALF,
                       TRUE_D, f=constant(0.0)).bm
    assert gamma_zero[0, 0] == 0.0
    assert gamma_zero[0, 1] == 0.0


def test_delta_variance_examples():
    assert ratio_delta_variance(2.0, 1.0, np.eye(2)) == pytest.approx(5.0)
    assert ratio_delta_variance(2.0, 1.0, np.zeros((2, 2))) == 0.0
    with pytest.raises(DegenerateDenominatorError):
        ratio_delta_variance(1.0, 0.0, np.eye(2))


# ------------------------------------------------------------ full estimates


def test_ratio_estimate_q_scaling(table_refs, exact_table_samples):
    target = _table_target()
    v_hat = np.array([[0.9]])
    full, half, zero = (
        stage2_row(
            exact_table_samples, target, table_refs, HALF, TRUE_D, cov=v_hat, q=q
        )
        for q in (1.0, 0.5, 0.0)
    )
    assert half.var_stage1_u == 0.5 * full.var_stage1_u
    assert half.var_stage2_u == full.var_stage2_u
    assert zero.var_stage1_u == 0.0
    assert full.var_stage1_u > 0.0
    assert full.se_u >= half.se_u >= zero.se_u
    assert zero.se_u == pytest.approx(
        np.sqrt(zero.var_stage2_u / zero.n), rel=1e-12
    )


def test_mean_estimate_constant_integrand_zero_variance(
    table_refs, exact_table_samples
):
    row = stage2_row(
        exact_table_samples, _table_target(), table_refs, HALF, TRUE_D,
        f=constant(4.0), cov=np.array([[0.9]]), q=1.0,
    )
    assert row.eta_hat == pytest.approx(4.0, rel=1e-14)
    assert row.var_stage1_eta == pytest.approx(0.0, abs=1e-18)
    assert row.var_stage2_eta == pytest.approx(0.0, abs=1e-10)


def test_discrete_three_se_oracle(table_refs):
    """End to end on MH chains: both stages estimated, both exact answers
    inside three standard errors."""
    stage1 = table_mh_samples(20_000, master_seed=31, stage=1)
    fit = estimate_ratios(stage1, table_refs)
    stage2 = table_mh_samples(2000, master_seed=32, stage=2)
    q = stage2.n_total / stage1.n_total
    row = stage2_row(
        stage2, _table_target(), table_refs, HALF, fit.d_hat,
        f=IDENTITY, cov=fit.cov, q=q,
    )
    assert abs(row.u_hat - 2.0) <= 3.0 * row.se_u
    assert abs(row.eta_hat - 0.5) <= 3.0 * row.se_eta
    assert row.var_stage1_eta > 0.0
    assert row.var_stage2_eta > 0.0


def test_single_reference_family_collapses_to_snis(toy_refs):
    ref = toy_refs[0]
    chain = sample_t_iid(5, 1.0, 5000, seed=77)
    samples = SampleSet(chains=(chain,), stage=2)
    target = t_density(5, 0.0)
    row = stage2_row(
        samples, target, [ref], [1.0], np.empty(0),
        f=IDENTITY, cov=np.zeros((0, 0)), q=0.7,
    )
    w = np.exp(target.log_density(chain.states) - ref.log_density(chain.states))
    assert row.u_hat == pytest.approx(w.mean(), rel=1e-12)
    assert row.eta_hat == pytest.approx(
        np.dot(chain.states, w) / w.sum(), rel=1e-12
    )
    assert row.var_stage1_u == 0.0
    assert row.se_u > 0.0


# ------------------------------------------------------------ family driver


# Stage-2 rows of configs/toy.json (se_method "both"), frozen from the code
# that evaluated each target's log density four times per chain:
# (u_hat, eta_hat, se_u, se_eta, var1_u, var2_u, var1_eta, var2_eta).
TOY_STAGE2_ROWS = {
    "t5_mu0": (
        0.998425235523959, 0.011067866845377803, 0.0045119132897209245,
        0.016345246949225907, 0.07893898259112204, 0.32820824808808385,
        0.010304577464332677, 5.333037379159244,
    ),
    "t5_mu0.25": (
        0.9997880115612904, 0.2601748365402102, 0.0026545847883004065,
        0.014014133009396128, 0.06863967101238343, 0.07229673695313486,
        0.01122451619433405, 3.916693963906589,
    ),
    "t5_mu0.5": (
        1.0009678156729083, 0.5095304968647694, 0.002203096594402177,
        0.012305220939424532, 0.05866330236880984, 0.03840938971651956,
        0.011546714977415617, 3.0168225323836233,
    ),
    "t5_mu0.75": (
        1.002018130542043, 0.7593450822578774, 0.003056635566732886,
        0.011341712877603006, 0.04943510576077466, 0.1374253139955548,
        0.01121472440363036, 2.561474295556087,
    ),
    "t5_mu1": (
        1.003101943385289, 1.0098061834464465, 0.0042923098098738965,
        0.011158511632716526, 0.04127350066760326, 0.3272049694111904,
        0.010280214410814791, 2.4799674227385857,
    ),
}


def test_toy_config_stage2_matches_frozen_rows():
    cfg = config_from_json(Path(__file__).parents[1] / "configs" / "toy.json")
    rows = run_two_stage(cfg).target_results
    assert [r.target_label for r in rows] == list(TOY_STAGE2_ROWS)
    for r in rows:
        got = (r.u_hat, r.eta_hat, r.se_u, r.se_eta, r.var_stage1_u,
               r.var_stage2_u, r.var_stage1_eta, r.var_stage2_eta)
        assert got == pytest.approx(TOY_STAGE2_ROWS[r.target_label], rel=1e-12)
        assert r.flags == ()


def test_family_evaluates_each_target_once_per_chain(toy_refs):
    calls = {}

    def counted(target):
        def log_eval(x):
            calls[target.id] = calls.get(target.id, 0) + 1
            return target.log_eval(x)

        return UnnormalizedDensity(target.id, log_eval, target.size)

    family = TargetFamily(tuple(counted(t) for t in t_family(5, [0.0, 0.5, 1.0]).targets))
    chains = (
        sample_t_iid(5, 1.0, 400, seed=3),
        sample_t_iid(5, 0.0, 400, seed=4),
    )
    samples = SampleSet(chains=chains, stage=2)
    results = estimate_family(
        samples, family, toy_refs, TRUE_D, np.array([[0.5]]), q=0.1,
        f=IDENTITY, a_per_target=[HALF, [0.3, 0.7], HALF],
    )
    assert all(r.flags == () for r in results)
    assert calls == {t.id: len(chains) for t in family.targets}


def test_family_toy_grid_hits_truth(toy_refs):
    """Equal-constant family: every per-target ratio should sit within
    three standard errors of one, and means near their centers."""
    n = 20_000
    chains = (
        sample_t_iid(5, 1.0, n, seed=301),
        independence_mh(t_density(5, 0.0), 5, 1.0, n, seed=302),
    )
    stage1 = SampleSet(chains=chains, stage=1)
    fit = estimate_ratios(stage1, toy_refs)
    chains2 = (
        sample_t_iid(5, 1.0, 2000, seed=303),
        independence_mh(t_density(5, 0.0), 5, 1.0, 2000, seed=304),
    )
    stage2 = SampleSet(chains=chains2, stage=2)
    family = t_family(5, [round(0.1 * i, 1) for i in range(11)])
    results = estimate_family(
        stage2,
        family,
        toy_refs,
        fit.d_hat,
        fit.cov,
        q=stage2.n_total / stage1.n_total,
        f=IDENTITY,
        a=HALF,
    )
    assert len(results) == 11
    for mu, res in zip([0.1 * i for i in range(11)], results):
        assert res.flags == ()
        assert abs(res.u_hat - 1.0) <= 3.0 * res.se_u
        assert abs(res.eta_hat - mu) <= 3.0 * res.se_eta


def test_family_isolates_target_failures(toy_refs, table_refs):
    boom = UnnormalizedDensity(
        "boom",
        lambda x: np.full(np.asarray(x, dtype=float).shape, 1e4),
    )
    fine = t_density(5, 0.5)
    family = TargetFamily(targets=(fine, boom))
    chains = (
        sample_t_iid(5, 1.0, 400, seed=1),
        sample_t_iid(5, 0.0, 400, seed=2),
    )
    samples = SampleSet(chains=chains, stage=2)
    results = estimate_family(
        samples, family, toy_refs, TRUE_D * 0 + 1.0, np.array([[0.5]]), q=0.1,
        f=IDENTITY, a=HALF,
    )
    assert results[0].flags == ()
    assert np.isfinite(results[0].u_hat)
    assert results[1].flags == ("error:DegenerateDenominatorError",)
    assert np.isnan(results[1].u_hat)
    assert np.isnan(results[1].se_eta)


def test_family_tail_guard_flags(toy_refs):
    chains = (
        sample_t_iid(5, 1.0, 400, seed=5),
        sample_t_iid(5, 0.0, 400, seed=6),
    )
    samples = SampleSet(chains=chains, stage=2)
    family = t_family(5, [0.5])
    strict = estimate_family(
        samples, family, toy_refs, np.array([1.0]), np.array([[0.5]]),
        q=0.0, a=HALF, tail_guard=1.0,
    )
    assert "tail_weight" in strict[0].flags
    lax = estimate_family(
        samples, family, toy_refs, np.array([1.0]), np.array([[0.5]]),
        q=0.0, a=HALF,
    )
    assert "tail_weight" not in lax[0].flags


def test_family_per_target_weights(toy_refs):
    chains = (
        sample_t_iid(5, 1.0, 600, seed=8),
        sample_t_iid(5, 0.0, 600, seed=9),
    )
    samples = SampleSet(chains=chains, stage=2)
    family = t_family(5, [0.0, 1.0])
    per_target = [np.array([0.9, 0.1]), np.array([0.2, 0.8])]
    results = estimate_family(
        samples, family, toy_refs, np.array([1.0]), np.array([[0.5]]),
        q=0.0, a_per_target=per_target,
    )
    assert len(results) == 2
    with pytest.raises(ValueError):
        estimate_family(
            samples, family, toy_refs, np.array([1.0]), np.array([[0.5]]),
            q=0.0, a_per_target=per_target[:1],
        )


def test_estimate_validation(table_refs, exact_table_samples):
    target = _table_target()
    with pytest.raises(ValueError):
        stage2_row(
            exact_table_samples, target, table_refs, HALF, np.array([2.0, 3.0])
        )
    with pytest.raises(ValueError):
        stage2_row(exact_table_samples, target, table_refs, [-0.5, 1.5], TRUE_D)
    with pytest.raises(ValueError, match="needs a or a_per_target"):
        stage2_row(exact_table_samples, target, table_refs, None, TRUE_D)
    with pytest.raises(ValueError):
        stage2_row(
            exact_table_samples, target, table_refs, HALF, TRUE_D,
            cov=np.zeros((2, 2)), q=0.5,
        )
