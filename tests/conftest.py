"""Shared builders for the test suite.

The discrete-table setup used throughout: two tables on {0, 1} with
unnormalized masses (1, 1) and (3, 1), so the normalizing constants are
2 and 4 and the true ratio is exactly 2.  Exhaustive summation over the
two states gives exact truth for every estimand.
"""

import ctypes
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from genis.densities import (
    Integrand,
    TargetFamily,
    UnnormalizedDensity,
    discrete_table_density,
    log_sum_exp_rows,
    t_density,
)
from genis.importance import estimate_family
from genis.regen import tour_boundaries
from genis.reverse_logistic import (
    StageWeights,
    _combine,
    _parts,
    log_density_matrices,
)
from genis.samplers import (
    ChainSample,
    SampleSet,
    derive_seed,
    discrete_mh,
    independence_mh,
    sample_t_iid,
)

# every property test draws the same examples on every run, so a suite
# result does not rest on chance; --hypothesis-profile loads another profile
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

TABLE_1 = (1.0, 1.0)
TABLE_2 = (3.0, 1.0)
TRUE_D = 2.0  # (3+1)/(1+1)


@pytest.fixture(scope="session")
def table_refs():
    return [
        discrete_table_density(TABLE_1, id="flat"),
        discrete_table_density(TABLE_2, id="tilted"),
    ]


def exact_proportion_chain(table, copies, density_id):
    """States visiting each point in exact proportion to its table mass.

    Masses must be integers; the block of states is tiled `copies`
    times.  Sample averages then equal population expectations exactly,
    so score equations hold at the true parameter.
    """
    block = []
    for state, mass in enumerate(table):
        m = int(mass)
        if m != mass:
            raise ValueError("exact-proportion chains need integer masses")
        block.extend([float(state)] * m)
    states = np.tile(block, copies)
    return ChainSample(density_id=density_id, states=states, kind="iid", seed=0)


@pytest.fixture(scope="session")
def exact_table_samples():
    """Stage-1 set solving the population score equations at d = 2."""
    chains = (
        exact_proportion_chain(TABLE_1, 120, "flat"),
        exact_proportion_chain(TABLE_2, 60, "tilted"),
    )
    return SampleSet(chains=chains)


def table_mh_samples(n_per, master_seed, rep=0, stage=1, with_regen=True):
    """MH chains targeting the two fixture tables; n_per broadcasts, and
    stage enters the chain seeds as the pipeline's stage tag does."""
    if np.isscalar(n_per):
        n_per = (n_per, n_per)
    refs = [
        discrete_table_density(TABLE_1, id="flat"),
        discrete_table_density(TABLE_2, id="tilted"),
    ]
    chains = tuple(
        discrete_mh(
            ref,
            n,
            derive_seed(master_seed, stage, i, rep),
            with_regen=with_regen,
        )
        for i, (ref, n) in enumerate(zip(refs, n_per))
    )
    return SampleSet(chains=chains)


def stage2_row(samples, target, refs, a, d_hat, f=None, cov=None, q=0.0):
    """estimate_family row of a one-target family; by default the stage-1
    term is switched off (zero covariance, q = 0)."""
    km1 = len(refs) - 1
    cov = np.zeros((km1, km1)) if cov is None else cov
    (row,) = estimate_family(
        samples, TargetFamily((target,)), refs, d_hat, cov, q, f=f, a=a
    )
    return row


@pytest.fixture(scope="session")
def toy_refs():
    return [t_density(5, 1.0), t_density(5, 0.0)]


def t_log_pdf(df, mu, x):
    """Log density of t_density(df, mu) at x: an array, or a float at a
    scalar x."""
    out = t_density(df, mu).log_density(x)
    return out if np.ndim(x) else float(out[0])


def mixture(references, coef, id="mixture"):
    """The positive combination sum_s coef[s] * nu_s as a density."""
    log_coef = np.log(np.asarray(coef, dtype=float))

    def log_eval(x):
        mat = np.column_stack([ref.log_density(x) for ref in references])
        return log_sum_exp_rows(mat + log_coef)[0]

    return UnnormalizedDensity(id, log_eval, references[0].size)


def constant(c):
    """The integrand identically equal to c."""
    c = float(c)
    return Integrand(f"const={c:g}", lambda x: np.full(np.shape(x), c))


def rl_evaluate(samples, references, zeta, weights=None):
    """Stage 1's evaluator at zeta: the objective, the score, the curvature
    B and the per-chain (k, n_l) membership probabilities, under naive
    chain weights unless `weights` is given."""
    n_per = samples.n_per_chain.astype(float)
    a = (StageWeights(n_per) if weights is None else weights).a
    mats = log_density_matrices(samples, references)
    w = a * n_per.sum() / n_per  # the per-sample weights w_l = a_l n / n_l
    ll, score, info, probs = _combine(
        _parts(mats, np.asarray(zeta, dtype=float)[None], None), w[None], a[None])
    return ll[0], score[0], info[0], [p[0] for p in probs]


def read_chain_file(path):
    """The header metadata and the (n, 1) or (n, 2) columns (state, then
    the 0/1 regeneration mark) of a file written by `genis export-chains`."""
    with open(path) as fh:
        meta = json.loads(fh.readline().removeprefix("#"))
    return meta, np.loadtxt(path, skiprows=2, ndmin=2)


def covered_prefix(samples):
    """Each chain cut at the end of its last complete tour."""
    chains = []
    for c in samples.chains:
        end = int(tour_boundaries(c)[-1])
        marks = None if c.regen_marks is None else c.regen_marks[:end]
        chains.append(ChainSample(c.density_id, c.states[:end], c.kind, c.seed, marks))
    return SampleSet(chains=tuple(chains))


def rs_point_estimates(tours, a):
    """Regenerative estimates of the ratio u and the mean eta from the tour
    sums of `target_tours` under weights a (any ratios d): with a scaled to
    sum 1, u = sum_l a_l sum U / sum T and eta = sum_l a_l sum V / sum T / u."""
    coef = np.asarray(a, dtype=float) / np.sum(a)
    u_bar = np.array([t.u_sums.sum() / t.lengths.sum() for t in tours])
    v_bar = np.array([t.v_sums.sum() / t.lengths.sum() for t in tours])
    u_hat = float(np.sum(coef * u_bar))
    return u_hat, float(np.sum(coef * v_bar)) / u_hat


def traced_peak(fn):
    """fn() and the peak of traced memory it allocated beyond what was
    live when it was called, in bytes (numpy reports its buffers to
    tracemalloc).  Allocations made before the call, such as the inputs,
    do not count."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return out, peak


def three_t_pilot():
    """Pilot chains of 2,000 iid draws from t5 at 0, 1 and 2."""
    mus = (0.0, 1.0, 2.0)
    refs = [t_density(5, mu) for mu in mus]
    chains = tuple(sample_t_iid(5, mu, 2000, seed=70 + i) for i, mu in enumerate(mus))
    return SampleSet(chains=chains), refs


def toy_pilot():
    """The toy pair: 1,000 iid draws from t5 at 1 and 1,000 IMH draws
    targeting t5 at 0."""
    chains = (
        sample_t_iid(5, 1.0, 1000, seed=31),
        independence_mh(t_density(5, 0.0), 5, 1.0, 1000, seed=32),
    )
    return SampleSet(chains=chains), [t_density(5, 1.0), t_density(5, 0.0)]


def scaled_pair_pilot():
    """t5 at 0 and e^26 times t5 at 1: the solution lies 26 from the start
    in zeta_2 - zeta_1, so the first Newton step is long, and before it
    was bounded the line search failed at 7 of the 19 default grid
    points."""
    scaled = UnnormalizedDensity("t5_mu1", lambda x: t_log_pdf(5, 1.0, x) + 26.0)
    chains = (sample_t_iid(5, 0.0, 200, seed=41), sample_t_iid(5, 1.0, 200, seed=42))
    return SampleSet(chains=chains), [t_density(5, 0.0), scaled]


# pilot searches, with their grid steps, whose digests the golden corpus
# holds under frozen_pilot_entry(case)
FROZEN_PILOTS = {
    "three_t_step_0.1": (three_t_pilot, 0.1),
    "toy_pair_step_0.05": (toy_pilot, 0.05),
    "scaled_pair_step_0.05": (scaled_pair_pilot, 0.05),
}


def frozen_pilot_entry(case: str) -> str:
    return f"frozen-pilot-{case}"


# ------------------------------------------------------------- byte checks
#
# A byte check compares outputs with digests recorded on one host.  They
# carry the rounding of that host's numeric kernels, so under other kernels
# they may differ with no change to the code, and every failure says which
# kernels ran.

GOLDEN = Path(__file__).with_name("golden.json")
# GENIS_RECORD_GOLDEN=1 makes every check on the golden corpus record what
# it got before it compares; a change that re-records names every changed
# entry and says why
RECORD = bool(os.environ.get("GENIS_RECORD_GOLDEN"))
# the kernels every digest of the suite was recorded under
RECORDED_KERNELS = "OpenBLAS core SkylakeX, numpy SIMD targets X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def kernel_fingerprint() -> str:
    """The numeric kernels this process runs: the core that OpenBLAS chose
    for the CPU and the SIMD targets that numpy dispatches to."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    core = "unknown"
    # numpy's wheels bundle OpenBLAS here; the library is loaded already
    for lib in Path(np.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas*"):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.restype = ctypes.c_char_p
            core = get().decode()
    return f"OpenBLAS core {core}, numpy SIMD targets {' '.join(simd) or 'none'}"


def byte_check_message(what: str) -> str:
    """The message of a failed byte check on `what`, naming the kernels."""
    here = kernel_fingerprint()
    if here == RECORDED_KERNELS:
        return f"{what}: the bytes changed under the kernels they were recorded with ({here})"
    return (f"{what}: the bytes differ, but they were recorded under {RECORDED_KERNELS} "
            f"and ran under {here}, which may round differently with no code change")


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def store_golden(corpus: dict):
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")


def check_golden(name: str, got, detail: str = ""):
    """Compare got with the golden corpus entry `name`, after recording it
    there when GENIS_RECORD_GOLDEN is set."""
    if RECORD:
        store_golden({**load_golden(), name: got})
    assert got == load_golden().get(name), f"{byte_check_message(name)}\n{detail}"
