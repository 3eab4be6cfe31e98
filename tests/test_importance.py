"""Stage 2: importance estimates across targets and their two-part errors."""

import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genis import importance
from genis.batch_means import DEFAULT_BM_SPEC, bm_cov
from genis.densities import (
    Integrand,
    TargetFamily,
    UnnormalizedDensity,
    discrete_table_density,
    log_sum_exp_rows,
    t_density,
    t_family,
)
from genis.errors import DegenerateDenominatorError, InsufficientRegenerationError
from genis.importance import (
    TargetResult,
    _Context,
    _target_pass,
    estimate_family,
    ratio_delta_variance,
    target_tours,
)
from genis.pipeline import config_from_json, run_two_stage
from genis.regen import ChainTours, _tour_sums, tour_boundaries
from genis.reverse_logistic import estimate_ratios
from genis.samplers import (
    ChainSample,
    SampleSet,
    discrete_mh,
    independence_mh,
    sample_t_iid,
)

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
    return SampleSet(chains=chains)


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
    np.testing.assert_allclose(p.u, direct, rtol=1e-12)


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
    samples = SampleSet(chains=chains)
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
    samples = SampleSet(chains=only_zero)
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
    samples = SampleSet(chains=chains)
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


def test_ratio_whose_square_underflows_flags_the_row(table_refs, exact_table_samples):
    """At d = 1e-200, d ** 2 underflows to 0 and the sensitivity divides
    zero by zero, which once warned; the target's row is flagged instead."""
    row = stage2_row(exact_table_samples, _table_target(), table_refs, HALF, [1e-200],
                     f=IDENTITY)
    assert row.flags == ("error:DegenerateDenominatorError",)


def test_sensitivity_kernel_past_float_range_gives_the_exact_row(exact_table_samples):
    """Reference 2 scaled by 1e300 and a target near 1e10, at the true
    ratio d = 2e300: the kernel nu nu_2 / mix^2 that the sensitivities were
    once summed from overflows, but u pi_2 / d does not, so the row is the
    exact table answer, unflagged, with and without f.  Both gradients are
    the unscaled oracles times 1e-300 (d's scale), c also times 5e9 (the
    target's scale against (2, 2))."""
    refs = [discrete_table_density(TABLE_1, id="flat"),
            discrete_table_density((3e300, 1e300), id="tilted")]
    target = discrete_table_density((1e10, 1e10), id="big")
    p = _pass(exact_table_samples, target, refs, HALF, [2e300], f=IDENTITY)
    assert p.c_vec[0] == pytest.approx(ORACLE_C1 * 5e9 / 1e300, rel=1e-12)
    assert p.e_vec[0] == pytest.approx(ORACLE_E1 / 1e300, rel=1e-12)
    for f in (None, IDENTITY):
        row = stage2_row(exact_table_samples, target, refs, HALF, [2e300], f=f)
        assert row.flags == ()
        assert row.u_hat == pytest.approx(1e10, rel=1e-12)  # 2e10 / 2
        assert row.var_stage1_u == 0.0  # q = 0
        assert f is None or row.eta_hat == pytest.approx(0.5, rel=1e-12)
        assert f is None or row.var_stage1_eta == 0.0


def test_delta_variance_examples():
    assert ratio_delta_variance(2.0, 1.0, np.eye(2)) == pytest.approx(5.0)
    assert ratio_delta_variance(2.0, 1.0, np.zeros((2, 2))) == 0.0
    with pytest.raises(DegenerateDenominatorError):
        ratio_delta_variance(1.0, 0.0, np.eye(2))


@pytest.mark.parametrize("u_hat", [1e200, 1e-200])
def test_delta_variance_of_a_denominator_whose_square_leaves_float_range(u_hat):
    """u_hat ** 2 raised OverflowError (a traceback from `genis estimate`),
    and a square that underflows to 0 divides by zero; both are degenerate
    denominators, which flag the target's row."""
    with pytest.raises(DegenerateDenominatorError, match="squared"):
        ratio_delta_variance(u_hat, u_hat, np.eye(2))


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
    samples = SampleSet(chains=(chain,))
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


def test_family_evaluates_each_target_and_reference_once(toy_refs):
    """Every reference and every target is evaluated once per family run,
    on all chains' draws together, not once per chain."""
    calls = {}

    def counted(density, role):
        def log_eval(x):
            calls[role, density.id] = calls.get((role, density.id), 0) + 1
            return density.log_eval(x)

        return UnnormalizedDensity(density.id, log_eval, density.size)

    targets = t_family(5, [0.0, 0.5, 1.0]).targets
    family = TargetFamily(tuple(counted(t, "target") for t in targets))
    refs = [counted(r, "reference") for r in toy_refs]
    chains = (
        sample_t_iid(5, 1.0, 400, seed=3),
        sample_t_iid(5, 0.0, 300, seed=4),
    )
    samples = SampleSet(chains=chains)
    results = estimate_family(
        samples, family, refs, TRUE_D, np.array([[0.5]]), q=0.1,
        f=IDENTITY, a_per_target=[HALF, [0.3, 0.7], HALF],
    )
    assert all(r.flags == () for r in results)
    assert calls == {
        **{("reference", r.id): 1 for r in refs},
        **{("target", t.id): 1 for t in targets},
    }


def test_family_toy_grid_hits_truth(toy_refs):
    """Equal-constant family: every per-target ratio should sit within
    three standard errors of one, and means near their centers."""
    n = 20_000
    chains = (
        sample_t_iid(5, 1.0, n, seed=301),
        independence_mh(t_density(5, 0.0), 5, 1.0, n, seed=302),
    )
    stage1 = SampleSet(chains=chains)
    fit = estimate_ratios(stage1, toy_refs)
    chains2 = (
        sample_t_iid(5, 1.0, 2000, seed=303),
        independence_mh(t_density(5, 0.0), 5, 1.0, 2000, seed=304),
    )
    stage2 = SampleSet(chains=chains2)
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
    samples = SampleSet(chains=chains)
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
    samples = SampleSet(chains=chains)
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
    samples = SampleSet(chains=chains)
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


class _PerChainContext:
    """Reference for `_Context`: the per-chain layout the pooled one
    replaced, every density evaluated chain by chain; valid inputs only."""

    def __init__(self, samples, references, d_hat, f):
        self.states = [c.states for c in samples.chains]
        self.d_full = np.concatenate(([1.0], np.atleast_1d(np.asarray(d_hat, dtype=float))))
        self.n_per = samples.n_per_chain.astype(float)
        self.n = float(self.n_per.sum())
        self.ref_logs = [
            np.column_stack([ref.log_density(x) for ref in references])
            for x in self.states
        ]
        self.f_vals = None if f is None else [f.values(x) for x in self.states]

    def mixture(self, a_vec):
        a = np.atleast_1d(np.asarray(a_vec, dtype=float))
        a = a / a.sum()
        with np.errstate(divide="ignore"):
            log_coef = np.log(a) - np.log(self.d_full)
        log_mix, shares = zip(*(log_sum_exp_rows(mat + log_coef) for mat in self.ref_logs))
        return a, log_mix, shares


def _per_chain_pass(ctx, target, a_vec, bm_spec):
    """Reference for `_target_pass`: the per-chain pass it replaced, whose
    chains meet only in the sensitivity product over their joined series."""
    a, log_mix, shares = ctx.mixture(a_vec)
    f_vals = ctx.f_vals
    u_series = []
    for l, x in enumerate(ctx.states):
        u = target.log_density(x) - log_mix[l]
        with np.errstate(over="ignore"):
            np.exp(u, out=u)
        if not np.isfinite(u).all():
            raise DegenerateDenominatorError("overflow")
        u_series.append(u)
    u_hat = float(sum(a[l] * u.sum() / ctx.n_per[l] for l, u in enumerate(u_series)))
    # chain l's shares of references 2..k times a_l / n_l, as a view of an
    # (N, k) array: the pooled mixture's layout, so the product rounds alike
    weighted = np.concatenate([
        s * np.r_[1.0, np.full(len(a) - 1, a[l] / ctx.n_per[l])]
        for l, s in enumerate(shares)
    ])[:, 1:]
    all_u = np.concatenate(u_series)
    g = [all_u] if f_vals is None else [np.concatenate(f_vals) * all_u, all_u]
    sens = np.array(g) @ weighted / ctx.d_full[1:]
    c_vec = sens[-1]

    p = 1 if f_vals is None else 2
    bm = np.zeros((p, p))
    for l, u in enumerate(u_series):
        series = u[None] if f_vals is None else np.array([f_vals[l] * u, u])
        s_l = ctx.n_per[l] / ctx.n
        bm += (a[l] ** 2 / s_l) * bm_cov(series, bm_spec)
    if f_vals is None:
        return u_series, u_hat, None, None, c_vec, None, bm

    if u_hat <= 0 or not np.isfinite(u_hat):
        raise DegenerateDenominatorError("importance weight sum is not positive")
    v_hat = float(
        sum(
            a[l] * np.dot(f_vals[l], u_series[l]) / ctx.n_per[l]
            for l in range(len(u_series))
        )
    )
    eta_hat = v_hat / u_hat
    e_vec = sens[0] / u_hat - c_vec * (eta_hat / u_hat)
    return u_series, u_hat, v_hat, eta_hat, c_vec, e_vec, bm


def _per_chain_target(ctx, target, a_vec, cov, q, bm_spec, tail_guard):
    """Reference for `_one_target`, over the per-chain pass."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u, u_hat, v_hat, eta_hat, c_vec, e_vec, bm = _per_chain_pass(ctx, target, a_vec, bm_spec)
        all_u = np.concatenate(u)
        mean_u = np.add.reduce(all_u) / all_u.size
        tail = mean_u > 0 and float(all_u.max()) > tail_guard * mean_u
        var1_u = float(q) * float(c_vec @ cov @ c_vec) if c_vec.size else 0.0
        var2_u = float(bm[-1, -1])
        se_u = float(np.sqrt(max(var1_u + var2_u, 0.0) / ctx.n))
        var1_eta = var2_eta = se_eta = None
        if eta_hat is not None:
            var1_eta = float(q) * float(e_vec @ cov @ e_vec) if e_vec.size else 0.0
            var2_eta = ratio_delta_variance(v_hat, u_hat, bm)
            se_eta = float(np.sqrt(max(var1_eta + var2_eta, 0.0) / ctx.n))
    if not all(math.isfinite(x) for x in (u_hat, se_u, eta_hat, se_eta) if x is not None):
        raise DegenerateDenominatorError("estimates leave float range")
    return TargetResult(
        target.id, u_hat, eta_hat, se_u, se_eta, var1_u, var2_u, var1_eta, var2_eta,
        float(q), int(ctx.n), ("tail_weight",) if tail else (),
    )


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=3),
    family=st.sampled_from(["t", "table"]),
    marked=st.lists(st.booleans(), min_size=3, max_size=3),
    with_f=st.booleans(),
    per_target=st.booleans(),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_family_rows_equal_the_per_chain_reference(
    seed, k, family, marked, with_f, per_target
):
    """The pooled pass gives the rows of the per-chain pass it replaced,
    bit for bit: k = 1-3 t or table references, iid and marked MH chains
    of unequal lengths, with and without f, one weight vector for every
    target or one per target, a zero weight among them."""
    rng, refs, samples, targets = _random_setup(seed, k, family, marked, 3)
    d_hat = rng.uniform(0.5, 2.0, size=k - 1)
    root = rng.standard_normal((k - 1, k - 1))
    run = dict(
        samples=samples, family=TargetFamily(tuple(targets)), references=refs,
        d_hat=d_hat, stage1_cov=root @ root.T, q=float(rng.uniform(0.0, 1.0)),
        f=IDENTITY if with_f else None, tail_guard=float(rng.uniform(1.0, 5.0)),
    )
    if per_target:
        a_list = [rng.uniform(0.1, 2.0, size=k) for _ in targets]
        if k > 1:
            a_list[1][int(rng.integers(k))] = 0.0  # that chain drops out
        run["a_per_target"] = a_list
    else:
        run["a"] = rng.uniform(0.1, 2.0, size=k)
    got = estimate_family(**run)
    with mock.patch.object(importance, "_Context", _PerChainContext), \
            mock.patch.object(importance, "_one_target", _per_chain_target):
        expected = estimate_family(**run)
    assert [repr(r) for r in got] == [repr(r) for r in expected]


def _kernel_sensitivities(ctx, target, a_vec):
    """Reference for the sensitivity sums: the formula they replaced, which
    exponentiates the (N, k - 1) kernel (log nu - 2 log mix) + log nu_j,
    column-sums it chain by chain with weight a_l / n_l and scales it by
    a_j / d_j^2, with g = 1 (c) and g = f (s, None without f).  Also gives
    per column the sums of the terms' magnitudes, and whether each step
    of the formula stayed inside the normal float range."""
    a = np.asarray(a_vec, dtype=float)
    a = a / a.sum()
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_coef = np.log(a) - np.log(ctx.d_full)
        log_mix = log_sum_exp_rows(ctx.ref_logs + log_coef)[0]
        log_kernel = (target.log_density(ctx.x) - 2.0 * log_mix)[:, None] + ctx.ref_logs[:, 1:]
        kernel = np.exp(log_kernel)
        d2 = ctx.d_full[1:] ** 2
        g_rows = [np.ones(ctx.x.size)] if ctx.f_vals is None else [ctx.f_vals, np.ones(ctx.x.size)]
        sums, mags = [], []
        for g in g_rows:
            terms = g[:, None] * kernel
            for out, t in ((sums, terms), (mags, np.abs(terms))):
                out.append(sum(a[l] / ctx.n_per[l] * t[span].sum(axis=0)
                               for l, span in enumerate(ctx.chains)) * a[1:] / d2)
    peak = np.max(log_kernel, axis=0, initial=-np.inf)
    in_range = ((peak < np.log(huge)) & ((peak > np.log(1e-290)) | np.isneginf(peak))
                & (d2 >= tiny) & (d2 < np.inf) & np.isfinite(sums).all(axis=0)
                & ((np.min(mags, axis=0) > 1e-290) | (np.max(mags, axis=0) == 0.0)))
    return sums[-1], (sums[0] if len(sums) == 2 else None), mags[-1], mags[0], in_range


def _scaled(density, exponent):
    """density times 10 ** exponent."""
    shift = exponent * math.log(10.0)
    return UnnormalizedDensity(density.id, lambda x: density.log_density(x) + shift,
                               density.size)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=4),
    family=st.sampled_from(["t", "table"]),
    marked=st.lists(st.booleans(), min_size=4, max_size=4),
    with_f=st.booleans(),
    per_target=st.booleans(),
    zero_weight=st.booleans(),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_sensitivities_equal_the_kernel_formula(
    seed, k, family, marked, with_f, per_target, zero_weight
):
    """c and e from the mixture's shares equal the kernel formula within
    rtol 1e-12, e with an absolute floor of 1e-12 times its terms'
    magnitudes, for its cancellation; where a step of that formula leaves
    the normal float range, they are finite.  k = 1-4 t or table
    references, the tables scaled by 10^U(-250, 250) (reference 1 by 1,
    the targets so that c stays in range) at d within a factor 2 of the
    true ratios; one weight vector or one per target, a zero weight among
    them."""
    rng, refs, samples, targets = _random_setup(seed, k, family, marked, 3)
    d_hat = rng.uniform(0.5, 2.0, size=k - 1)
    if family == "table":
        exps = np.r_[0.0, rng.uniform(-250.0, 250.0, size=k - 1)]
        lo, hi = max(-250.0, exps.max() - 280.0), min(250.0, exps.min() + 280.0)
        refs = [_scaled(r, e) for r, e in zip(refs, exps)]
        targets = [_scaled(t, rng.uniform(lo, hi)) for t in targets]
        states = np.arange(refs[0].size, dtype=float)
        log_z = np.array([np.logaddexp.reduce(r.log_density(states)) for r in refs])
        d_hat *= np.exp(log_z[1:] - log_z[0])

    def weights():
        a = rng.uniform(0.1, 2.0, size=k)
        if zero_weight and k > 1:
            a[int(rng.integers(k))] = 0.0
        return a

    ctx = _Context(samples, refs, d_hat, IDENTITY if with_f else None)
    shared = weights()
    for target in targets:
        a = weights() if per_target else shared
        with np.errstate(over="ignore", invalid="ignore"):  # batch means of u ~ 1e250
            p = _target_pass(ctx, target, a, DEFAULT_BM_SPEC)
        c, s, c_mag, s_mag, in_range = _kernel_sensitivities(ctx, target, a)
        assert np.isfinite(p.c_vec).all()
        np.testing.assert_allclose(p.c_vec[in_range], c[in_range], rtol=1e-12, atol=0.0)
        if with_f:
            assert np.isfinite(p.e_vec).all()
            e = s / p.u_hat - c * (p.eta_hat / p.u_hat)
            floor = 1e-12 * (s_mag + abs(p.eta_hat) * c_mag) / p.u_hat
            err = np.abs(p.e_vec - e) - 1e-12 * np.abs(e) - floor
            assert np.all(err[in_range] <= 0.0)


# --------------------------------------------------------------- tour sums

W_TRUE = HALF / np.concatenate(([1.0], TRUE_D))  # the mixture's a_l / d_l


def _toy_set(chain):
    """`chain` in its slot of the toy_refs order (t5_mu1, t5_mu0), with a
    short iid chain in the other slot."""
    slots = {
        "t5_mu1": sample_t_iid(5, 1.0, 20, seed=0),
        "t5_mu0": sample_t_iid(5, 0.0, 20, seed=0),
    }
    slots[chain.density_id] = chain
    return SampleSet(chains=(slots["t5_mu1"], slots["t5_mu0"]))


def test_target_tours_per_draw_marks(toy_refs):
    chain = sample_t_iid(5, 1.0, 50, seed=3)
    target = t_density(5, 0.5)
    tours = target_tours(_toy_set(chain), toy_refs, target, HALF, TRUE_D, None)[0]
    assert tours.lengths.size == 50
    np.testing.assert_array_equal(tours.lengths, 1)
    # per-draw tour sums are the weights themselves
    ref_log = np.column_stack([r.log_density(chain.states) for r in toy_refs])
    mix = np.exp(ref_log) @ W_TRUE
    u = np.exp(target.log_density(chain.states)) / mix
    np.testing.assert_allclose(tours.u_sums, u, rtol=1e-10)


def test_target_tours_weight_mixture_gives_lengths(toy_refs):
    """When the target is the mixture of a over d, u is one at every
    state, so each tour's weight sum equals its length."""
    chain = independence_mh(
        t_density(5, 0.0), 5, 1.0, 400, seed=4, with_regen=True, splitting_const=0.8
    )
    target = mixture(toy_refs, W_TRUE, id="wmix")
    tours = target_tours(_toy_set(chain), toy_refs, target, HALF, TRUE_D, None)[1]
    np.testing.assert_allclose(tours.u_sums, tours.lengths, rtol=1e-12)
    assert tours.lengths.sum() <= chain.n


def test_target_tours_validation(toy_refs):
    samples = _toy_set(sample_t_iid(5, 1.0, 10, seed=5))
    target = t_density(5, 0.5)
    with pytest.raises(ValueError):
        target_tours(samples, toy_refs, target, [0.5], TRUE_D, None)
    with pytest.raises(ValueError):
        target_tours(samples, toy_refs, target, [0.5, -0.1], TRUE_D, None)
    with pytest.raises(ValueError, match="one chain per reference"):
        target_tours(samples, toy_refs[:1], target, [1.0], [], None)
    with pytest.raises(ValueError, match="chain order mismatch"):
        target_tours(samples, toy_refs[::-1], target, HALF, TRUE_D, None)


def test_target_tours_sums_out_of_float_range():
    """v = x * u at states near 1e308 overflows the prefix sums behind the
    tour sums, which once warned and went on with inf and NaN; like an
    overflowing weight, it is a degenerate denominator."""
    ref = t_density(5, 1e308)
    samples = SampleSet(chains=(sample_t_iid(5, 1e308, 4, seed=1),))
    identity = Integrand("x", lambda x: x)
    with pytest.raises(DegenerateDenominatorError, match="tour sums overflow"):
        target_tours(samples, [ref], ref, [1.0], [], identity)


def test_target_tours_check_every_chain_before_any_density(toy_refs):
    """A later chain with one regeneration mark fails (exit 4 in the CLI)
    before the first chain's densities are evaluated."""
    def refuse(x):
        raise AssertionError("a density was evaluated")

    lonely = np.zeros(30, dtype=bool)
    lonely[0] = True
    chains = (
        sample_t_iid(5, 1.0, 20, seed=0),
        ChainSample("t5_mu0", np.zeros(30), "markov", 0, regen_marks=lonely),
    )
    refs = [UnnormalizedDensity(r.id, refuse) for r in toy_refs]
    with pytest.raises(InsufficientRegenerationError, match="chain 't5_mu0'"):
        target_tours(SampleSet(chains=chains), refs, refs[0], HALF, [1.0], None)


def _split_tours(samples, references, target, w, f=None):
    """Reference for target_tours: the standalone tour sums it replaced,
    whose mixture sum_l w_l nu_l takes the weights as given."""
    samples.check_aligned(references)
    w = np.asarray(w, dtype=float)
    if w.shape != (len(references),) or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("w must be a positive weight per reference")
    out = []
    for chain in samples.chains:
        bounds = tour_boundaries(chain)
        ref_log = np.column_stack([r.log_density(chain.states) for r in references])
        log_mix = log_sum_exp_rows(ref_log + np.log(w))[0]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            u = np.exp(target.log_density(chain.states) - log_mix)
            u_sums = _tour_sums(u, bounds)
            v_sums = None if f is None else _tour_sums(f.values(chain.states) * u, bounds)
        if not all(np.isfinite(x).all() for x in (u, u_sums, v_sums) if x is not None):
            raise DegenerateDenominatorError(
                f"importance weights or their tour sums overflow for target {target.id!r}"
            )
        out.append(ChainTours(chain.density_id, np.diff(bounds), u_sums, v_sums))
    return out


def _random_setup(seed, k, family, marked, n_targets):
    """k t or table references, each with a chain of random length, iid or
    marked MH as `marked` says, and n_targets targets of the same family;
    returns the generator for further draws."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(20, 400, size=k)
    if family == "t":
        dfs = rng.choice([3.0, 5.0, 10.0], size=k)
        mus = rng.permutation(np.linspace(-2.0, 2.0, 5))[:k]
        refs = [t_density(df, mu) for df, mu in zip(dfs, mus)]
        chains = tuple(
            independence_mh(ref, 5, mus[i] + 0.5, n, seed + i, with_regen=True)
            if marked[i] else sample_t_iid(dfs[i], mus[i], n, seed + i, ref.id)
            for i, (ref, n) in enumerate(zip(refs, sizes))
        )
        targets = [t_density(5, float(rng.uniform(-2.0, 2.0)), id=f"target{i}")
                   for i in range(n_targets)]
    else:
        tables = rng.uniform(0.1, 3.0, size=(k + n_targets, int(rng.integers(2, 6))))
        refs = [discrete_table_density(tuple(t), id=f"table{i}")
                for i, t in enumerate(tables[:k])]
        chains = tuple(
            discrete_mh(ref, n, seed + i, with_regen=True)
            if marked[i] else _iid_table_chain(tables[i], n, seed + i, ref.id)
            for i, (ref, n) in enumerate(zip(refs, sizes))
        )
        targets = [discrete_table_density(tuple(t), id=f"target{i}")
                   for i, t in enumerate(tables[k:])]
    return rng, refs, SampleSet(chains=chains), targets


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=3),
    family=st.sampled_from(["t", "table"]),
    marked=st.lists(st.booleans(), min_size=3, max_size=3),
    with_f=st.booleans(),
    raw_lengths=st.booleans(),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_target_tours_equal_the_oracle_at_unit_ratios(
    seed, k, family, marked, with_f, raw_lengths
):
    """At d = 1, target_tours equals the standalone tour sums under the
    normalized weights bit for bit: on raw chain lengths, as stage2_tours
    passes them, and on any positive weights; t and table references, iid
    chains without marks and marked MH chains, with and without f."""
    rng, refs, samples, (target,) = _random_setup(seed, k, family, marked, 1)
    f = IDENTITY if with_f else None
    a = samples.n_per_chain if raw_lengths else rng.uniform(0.1, 2.0, size=k)
    w = np.asarray(a, dtype=float)
    w = w / w.sum()  # naive_weights' arithmetic
    try:
        expected = _split_tours(samples, refs, target, w, f)
    except InsufficientRegenerationError as exc:
        with pytest.raises(InsufficientRegenerationError, match=re.escape(str(exc))):
            target_tours(samples, refs, target, a, np.ones(k - 1), f)
        return
    got = target_tours(samples, refs, target, a, np.ones(k - 1), f)
    assert len(got) == len(expected) == k
    for g, e in zip(got, expected):
        assert g.density_id == e.density_id
        assert np.array_equal(g.lengths, e.lengths)
        assert np.array_equal(g.u_sums, e.u_sums)
        assert (g.v_sums is None) == (e.v_sums is None) == (f is None)
        assert f is None or np.array_equal(g.v_sums, e.v_sums)
