"""Chain samplers: seeding, kernels, regeneration marking, persistence."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genis.densities import (
    UnnormalizedDensity,
    discrete_table_density,
    t_density,
    t_log_density,
)
from genis.errors import InvalidModelError
from genis.samplers import (
    ChainSample,
    _run_imh,
    SampleSet,
    derive_seed,
    discrete_mh,
    independence_mh,
    sample_t_iid,
    save_chain,
    tune_splitting_constant,
)

from conftest import read_chain_file, traced_peak


# ---------------------------------------------------------------- seeding


def test_derive_seed_deterministic_and_path_sensitive():
    assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)
    assert derive_seed(7, 1, 2, 3) != derive_seed(7, 1, 3, 2)
    assert derive_seed(7, 1) != derive_seed(8, 1)
    assert derive_seed(7) != derive_seed(7, 0)


@given(
    master=st.integers(min_value=0, max_value=2**31),
    idx=st.lists(st.integers(min_value=0, max_value=10**6), max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_derive_seed_is_a_valid_uint64(master, idx):
    s = derive_seed(master, *idx)
    assert 0 <= s < 2**64
    assert s == derive_seed(master, *idx)


# ---------------------------------------------------------------- iid draws


def test_iid_reproducible_and_seed_sensitive():
    a = sample_t_iid(5, 1.0, 1000, seed=42)
    b = sample_t_iid(5, 1.0, 1000, seed=42)
    c = sample_t_iid(5, 1.0, 1000, seed=43)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)
    assert a.kind == "iid"
    assert a.regen_marks is None
    assert a.density_id == "t5_mu1"


def test_iid_t_moments():
    """Student-t with 5 degrees of freedom has variance 5/3 about its center."""
    n = 200_000
    chain = sample_t_iid(5, 1.0, n, seed=2024)
    x = chain.states
    assert abs(x.mean() - 1.0) < 0.02
    assert abs(np.median(x) - 1.0) < 0.02
    assert abs(x.var(ddof=1) - 5.0 / 3.0) < 0.06


def test_iid_rejects_bad_n():
    with pytest.raises(ValueError):
        sample_t_iid(5, 0.0, 0, seed=1)


# --------------------------------------------------------- independence MH


def test_imh_target_equals_proposal_accepts_everything():
    """When the importance ratio is constant every proposal is accepted and,
    with splitting constant 1, every accepted move regenerates: the chain is
    iid with one-draw tours."""
    chain = independence_mh(
        t_density(5, 0.0), 5, 0.0, 500, seed=9,
        with_regen=True, splitting_const=1.0,
    )
    rng = np.random.default_rng(9)
    proposals = 0.0 + rng.standard_t(5.0, size=500)
    assert np.array_equal(chain.states, proposals)
    assert chain.regen_marks.all()


def test_imh_trajectory_unchanged_by_regen_marking():
    """Turning regeneration marking on must not perturb the visited states."""
    plain = independence_mh(t_density(5, 0.0), 5, 1.0, 4000, seed=31)
    marked = independence_mh(
        t_density(5, 0.0), 5, 1.0, 4000, seed=31, with_regen=True, splitting_const=0.8
    )
    assert np.array_equal(plain.states, marked.states)
    assert plain.regen_marks is None
    assert marked.regen_marks is not None
    assert marked.regen_marks[0]


def test_imh_empirical_law():
    n = 200_000
    chain = independence_mh(t_density(5, 0.0), 5, 1.0, n, seed=117)
    x = chain.states
    assert chain.kind == "markov"
    assert abs(x.mean()) < 0.05
    assert abs(np.mean(x < 0.0) - 0.5) < 0.02
    assert abs(x.var(ddof=1) - 5.0 / 3.0) < 0.15


def test_imh_mean_tour_length_is_moderate():
    """The shifted-t proposal pair regenerates every couple of steps when the
    splitting constant is tuned from a pilot median."""
    n = 20_000
    chain = independence_mh(t_density(5, 0.0), 5, 1.0, n, seed=55, with_regen=True)
    tours = int(chain.regen_marks.sum())
    assert 2.0 <= n / tours <= 4.0


def test_imh_rejects_vanishing_proposal_density():
    """With a tiny proposal df standard_t overflows to +-inf, where the
    proposal density vanishes at its own draw."""
    with pytest.raises(InvalidModelError):
        independence_mh(t_density(5, 0.0), 1e-3, 0.0, 50, seed=3)


def test_imh_rejects_nonpositive_splitting_constant():
    with pytest.raises(ValueError):
        independence_mh(
            t_density(5, 0.0), 5, 1.0, 50, seed=3,
            with_regen=True, splitting_const=0.0,
        )


def test_tuned_splitting_constant_is_near_median_omega():
    """For this pair omega(x) = nu_target(x)/q(x); the tuned constant should
    sit inside the central range of omega over target draws."""
    target = t_density(5, 0.0)
    c = tune_splitting_constant(target, 5, 1.0, pilot_n=4000, seed=12)
    draws = sample_t_iid(5, 0.0, 4000, seed=99).states
    omega = np.exp(target.log_density(draws) - t_log_density(5, 1.0, draws))
    lo, hi = np.quantile(omega, [0.2, 0.8])
    assert lo <= c <= hi


# -------------------------------------------------------------- discrete MH


def test_discrete_mh_frequencies():
    tab = discrete_table_density((3.0, 1.0), id="tilted")
    chain = discrete_mh(tab, 50_000, seed=5)
    assert set(np.unique(chain.states)) <= {0.0, 1.0}
    assert abs(np.mean(chain.states == 0.0) - 0.75) < 0.02


def test_discrete_mh_regen_marks():
    tab = discrete_table_density((3.0, 1.0), id="tilted")
    chain = discrete_mh(tab, 5000, seed=5, with_regen=True)
    assert chain.regen_marks is not None
    assert chain.regen_marks[0]
    assert 0 < chain.regen_marks.sum() <= chain.n
    plain = discrete_mh(tab, 5000, seed=5)
    assert np.array_equal(chain.states, plain.states)


GAP_TABLE = (1.0, 1.0, 1.0, 1.0, 0.0)


def test_discrete_mh_never_emits_a_zero_mass_state():
    """A chain starts at its first proposal with mass; before, 43 of these
    seeds started (and stayed a while) at the zero-mass state 4."""
    gap = discrete_table_density(GAP_TABLE, id="gap")
    for seed in range(200):
        assert not np.any(discrete_mh(gap, 20, seed).states == 4)


def test_chain_with_mass_at_first_proposal_is_unchanged():
    """States and marks recorded from the sampler that always started at
    proposal 0, for chains whose proposal 0 has mass."""
    gap = discrete_table_density(GAP_TABLE, id="gap")
    chain = discrete_mh(gap, 12, 1, with_regen=True)
    assert chain.states.tolist() == [
        2.0, 2.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0,
    ]
    assert chain.regen_marks.tolist() == [
        bool(m) for m in (1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1)
    ]
    chain = independence_mh(t_density(5, 0.0), 5, 1.0, 8, seed=3, with_regen=True)
    assert chain.states.tolist() == [
        3.6949725713300245, 0.4205159706211773, 0.5994047256050916,
        0.5819088280756706, -0.30242479418593016, 0.8091100117027787,
        1.0166122173674486, 0.4217586129765313,
    ]
    assert chain.regen_marks.tolist() == [
        bool(m) for m in (1, 0, 1, 0, 1, 1, 0, 0)
    ]


def test_no_proposal_with_mass_is_an_invalid_model():
    corner = discrete_table_density((0.0, 0.0, 1.0), id="corner")
    with pytest.raises(InvalidModelError):
        discrete_mh(corner, 1, seed=1)
    far = UnnormalizedDensity(
        "far", lambda x: np.where(np.asarray(x) > 1e6, 0.0, -np.inf)
    )
    with pytest.raises(InvalidModelError):
        independence_mh(far, 5, 0.0, 50, seed=2)


# ------------------------------------------------ the IMH recursion itself


def _loop_imh(log_omega_prop, proposals, log_u, log_coin, log_c):
    """Reference for _run_imh: the per-step loop it replaced, verbatim."""
    n = proposals.shape[0]
    marks = None
    lw = log_omega_prop.tolist()
    start = next((i for i, w in enumerate(lw) if math.isfinite(w)), None)
    if start is None:
        raise InvalidModelError("no proposal has positive target mass")
    props = proposals.tolist()
    lu = log_u.tolist()
    states_out = [0.0] * n
    cur = props[start]
    cur_lw = lw[start]
    states_out[0] = cur
    if log_coin is not None:
        marks_out = [False] * n
        marks_out[0] = True
        lc = log_coin.tolist()
        for i in range(1, n):
            lw_y = lw[i]
            if lu[i] < lw_y - cur_lw:
                log_r = (
                    min(0.0, log_c - cur_lw)
                    + min(0.0, lw_y - log_c)
                    - min(0.0, lw_y - cur_lw)
                )
                if lc[i] < log_r:
                    marks_out[i] = True
                cur = props[i]
                cur_lw = lw_y
            states_out[i] = cur
        marks = np.array(marks_out, dtype=bool)
    else:
        for i in range(1, n):
            lw_y = lw[i]
            if lu[i] < lw_y - cur_lw:
                cur = props[i]
                cur_lw = lw_y
            states_out[i] = cur
    return np.array(states_out, dtype=float), marks


@st.composite
def imh_inputs(draw):
    """Random recursion inputs: n in 1..300; log omega with ties, moderate
    or overflowing spread and -inf entries (also at proposal 0); -inf in
    log_u and log_coin; any finite log c; with and without the coin."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from(["ties", "moderate", "overflowing"]))
    if spread == "ties":
        log_omega = 0.7 * rng.integers(0, 3, n)
    else:
        scale = 3.0 if spread == "moderate" else 1.7e308  # below the largest double
        log_omega = scale * rng.uniform(-1.0, 1.0, n)
    log_omega[rng.random(n) < draw(st.floats(0.0, 1.0))] = -math.inf
    if draw(st.booleans()):
        log_omega[0] = -math.inf

    def log_uniforms():
        out = np.log(rng.random(n))
        out[rng.random(n) < draw(st.floats(0.0, 0.5))] = -math.inf
        return out

    proposals = 0.5 * np.arange(n) - 3.0
    log_u = log_uniforms()
    if not draw(st.booleans()):
        return log_omega, proposals, log_u, None, None
    any_finite = st.floats(allow_nan=False, allow_infinity=False)
    log_c = draw(st.one_of(st.floats(-3.0, 3.0), any_finite))
    return log_omega, proposals, log_u, log_uniforms(), log_c


@given(args=imh_inputs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_run_imh_matches_the_per_step_loop(args):
    """States and marks are bitwise equal to the per-step loop."""
    try:
        expected = _loop_imh(*args)
    except InvalidModelError:
        with pytest.raises(InvalidModelError):
            _run_imh(*args)
        return
    states, marks = _run_imh(*args)
    assert states.dtype == expected[0].dtype
    assert np.array_equal(states, expected[0])
    if expected[1] is None:
        assert marks is None
    else:
        assert marks.dtype == bool and np.array_equal(marks, expected[1])


def test_run_imh_single_step():
    props = np.array([2.5])
    minus_one = np.array([-1.0])
    states, marks = _run_imh(np.array([0.3]), props, minus_one, minus_one, 0.0)
    assert states.tolist() == [2.5] and marks.tolist() == [True]
    with pytest.raises(InvalidModelError):
        _run_imh(np.array([-np.inf]), props, np.array([-1.0]), None, None)


def test_run_imh_late_start_without_accepts():
    """The chain starts at proposal 1, the first with mass, and never moves."""
    log_omega = np.array([-np.inf, 0.5, -np.inf, -np.inf])
    props = np.array([10.0, 11.0, 12.0, 13.0])
    log_u = np.array([-1.0, 0.0, -1.0, -1.0])
    log_coin = np.full(4, -1.0)
    for coin, c in ((None, None), (log_coin, 0.2)):
        states, marks = _run_imh(log_omega, props, log_u, coin, c)
        assert states.tolist() == [11.0] * 4
        expected = _loop_imh(log_omega, props, log_u, coin, c)
        assert np.array_equal(states, expected[0])
        if coin is not None:
            assert marks.tolist() == [True, False, False, False]


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# sha256 of states (little-endian float64) and marks (bool bytes), recorded
# from the per-step loop
FROZEN_T_CHAINS = {
    1: (
        "7cbd630360195a321fa0f3fc6a3b133689d5e79f93a3b53ca466f479609f2d30",
        "6ae98adb619bfd2659de57707db923a8321631c379260a8304031af5f645be92",
    ),
    2: (
        "6270b3b51128f2c4bd9edb75bbd51f3f5ba0eb66b7e85237c83f8a34b7fed5f0",
        "a95a71ff7b82804cd5ff79831a23393ec6f9434610d303f4a702287f4786dfd3",
    ),
}


@pytest.mark.parametrize("seed", sorted(FROZEN_T_CHAINS))
def test_t_chain_matches_frozen_digest(seed):
    chain = independence_mh(t_density(5, 0), 5, 1, 100_000, seed, with_regen=True)
    assert (_sha(chain.states.astype("<f8")), _sha(chain.regen_marks)) == (
        FROZEN_T_CHAINS[seed]
    )


def test_marked_imh_chain_memory_peak():
    """A marked IMH chain at n = 100k peaks below nine n-length float64
    arrays of traced memory (7.2 MB).  It measures 7.15 (5.7 MB), so the
    bound leaves 26% headroom; the recursion over Python list copies of
    log omega and log u peaked at 18.2 (14.6 MB)."""
    n = 100_000
    target = t_density(5, 0)
    independence_mh(target, 5, 1, 1000, 1, with_regen=True)  # first-call imports
    chain, peak = traced_peak(
        lambda: independence_mh(target, 5, 1, n, 1, with_regen=True)
    )
    assert chain.n == n
    assert peak < 9 * 8 * n


def test_discrete_chain_matches_frozen_digest():
    """Seed 0 proposes the zero-mass state 4 first, so the chain starts at
    its second proposal."""
    gap = discrete_table_density(GAP_TABLE, id="gap")
    chain = discrete_mh(gap, 5000, 0, with_regen=True)
    assert _sha(chain.states.astype("<f8")) == (
        "c52b53e44b2bc5a46036e6a7be5ea76b1e201f0d496c61a0cc0ebcc67f7281dd"
    )
    assert _sha(chain.regen_marks) == (
        "5a76e8803d67a09a270824b4631770e06fe80d27d4645fc5b65ebab667118970"
    )


def test_discrete_mh_needs_discrete_target():
    with pytest.raises(InvalidModelError):
        discrete_mh(t_density(5, 0.0), 100, seed=1)


# ------------------------------------------------------------- validation


def test_chain_sample_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ChainSample("a", np.array([1.0, np.inf]), "iid", 0)
    with pytest.raises(ValueError):
        ChainSample("a", np.array([[1.0]]), "iid", 0)
    with pytest.raises(ValueError):
        ChainSample("a", np.array([1.0]), "mystery", 0)
    with pytest.raises(ValueError):
        ChainSample(
            "a", np.array([1.0, 2.0]), "markov", 0,
            regen_marks=np.array([True]),
        )
    with pytest.raises(ValueError):
        ChainSample(
            "a", np.array([1.0, 2.0]), "markov", 0,
            regen_marks=np.array([False, True]),
        )


def test_sample_set_rejects_duplicate_ids_and_bad_stage():
    a = sample_t_iid(5, 0.0, 10, seed=1)
    b = sample_t_iid(5, 0.0, 10, seed=2)
    with pytest.raises(ValueError):
        SampleSet(chains=(a, b))
    c = sample_t_iid(5, 1.0, 10, seed=2)
    s = SampleSet(chains=(a, c), stage=1)
    assert s.n_total == 20
    assert list(s.n_per_chain) == [10, 10]
    with pytest.raises(ValueError):
        SampleSet(chains=(a, c), stage=3)


# ------------------------------------------------------------- persistence


def test_save_load_roundtrip_bitwise(tmp_path):
    chain = independence_mh(
        t_density(5, 0.0), 5, 1.0, 300, seed=8, with_regen=True, splitting_const=0.9
    )
    path = tmp_path / "chain.txt"
    save_chain(chain, path)
    meta, table = read_chain_file(path)
    assert meta == {"density_id": chain.density_id, "kind": chain.kind,
                    "seed": chain.seed, "n": chain.n}
    assert np.array_equal(table[:, 0], chain.states)
    assert np.array_equal(table[:, 1].astype(bool), chain.regen_marks)


def test_save_load_roundtrip_without_marks(tmp_path):
    chain = sample_t_iid(5, 1.0, 64, seed=4)
    path = tmp_path / "plain.txt"
    save_chain(chain, path)
    meta, table = read_chain_file(path)
    assert meta["n"] == chain.n and table.shape == (chain.n, 1)
    assert np.array_equal(table[:, 0], chain.states)


@given(
    vals=st.lists(
        st.floats(
            allow_nan=False, allow_infinity=False,
            min_value=-1e12, max_value=1e12,
        ),
        min_size=1,
        max_size=30,
    ),
    with_marks=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(tmp_path_factory, vals, with_marks):
    states = np.asarray(vals, dtype=float)
    marks = None
    if with_marks:
        marks = np.zeros(states.size, dtype=bool)
        marks[0] = True
        marks[1::2] = True
    chain = ChainSample("x", states, "markov", 17, regen_marks=marks)
    path = tmp_path_factory.mktemp("rt") / "c.txt"
    save_chain(chain, path)
    _, table = read_chain_file(path)
    assert np.array_equal(table[:, 0], chain.states)
    if with_marks:
        assert np.array_equal(table[:, 1].astype(bool), marks)
