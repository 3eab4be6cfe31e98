import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genis.batch_means import BatchMeansSpec, block_size, bm_cov
from genis.errors import InsufficientDataError


def _spec(b):
    return BatchMeansSpec(explicit_b=b)


def _variance(x, spec):
    return float(bm_cov(x[None], spec)[0, 0])


def test_block_size_default_rule():
    assert block_size(100, BatchMeansSpec()) == 10
    assert block_size(10**5, BatchMeansSpec()) == 316
    assert block_size(10**4, BatchMeansSpec(nu=0.25)) == 10


def test_block_size_clamps_to_two_blocks():
    # floor(4^0.9) = 3 would leave a single block; clamp to n // 2
    assert block_size(4, BatchMeansSpec(nu=0.9)) == 2
    assert block_size(5, BatchMeansSpec(explicit_b=17)) == 2


def test_block_size_explicit_override():
    assert block_size(1000, BatchMeansSpec(explicit_b=25)) == 25


def test_block_size_needs_four_points():
    with pytest.raises(InsufficientDataError):
        block_size(3, BatchMeansSpec())


def test_spec_validation():
    with pytest.raises(ValueError):
        BatchMeansSpec(nu=0.0)
    with pytest.raises(ValueError):
        BatchMeansSpec(nu=1.0)
    with pytest.raises(ValueError):
        BatchMeansSpec(explicit_b=0)


def test_iid_long_run_variance_replications():
    """For iid N(0,1) the long-run variance is 1.  With e = 316 blocks the
    estimator is sigma^2 * chi2_{e-1}/(e-1), relative sd about 8%, so a 15%
    window captures roughly 94% of draws; assert a 90% floor."""
    rng = np.random.default_rng(20240817)
    hits = 0
    reps = 200
    n = 100_000
    for _ in range(reps):
        est = _variance(rng.standard_normal(n), BatchMeansSpec())
        hits += 0.85 <= est <= 1.15
    assert hits / reps >= 0.90


def test_ar1_long_run_variance():
    """AR(1) with coefficient phi has long-run variance 1/(1-phi)^2 times
    the innovation variance."""
    phi = 0.5
    rng = np.random.default_rng(7)
    n = 200000
    innov = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = innov[0]
    for i in range(1, n):
        x[i] = phi * x[i - 1] + innov[i]
    truth = 1.0 / (1.0 - phi) ** 2
    est = _variance(x, BatchMeansSpec())
    assert est == pytest.approx(truth, rel=0.15)


def test_trailing_remainder_dropped():
    # 10 points, b=3 -> e=3 covers 9 points; the 10th must not matter
    x = np.arange(10, dtype=float)
    y = x.copy()
    y[9] = 1e6
    assert _variance(x, _spec(3)) == _variance(y, _spec(3))


def test_vector_and_scalar_paths_agree_bitwise():
    """The covariance of (x, x) must reproduce the variance of x exactly,
    entry for entry, or downstream dual-route checks cannot be exact."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(500)
    spec = _spec(22)
    v = _variance(x, spec)
    c = bm_cov(np.vstack([x, x]), spec)
    assert c[0, 0] == v
    assert c[0, 1] == v
    assert c[1, 0] == v
    assert c[1, 1] == v


def test_cov_shape_and_symmetry():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((300, 3))
    c = bm_cov(mat.T, _spec(17))
    assert c.shape == (3, 3)
    np.testing.assert_array_equal(c, c.T)


def test_noncontiguous_input_same_answer():
    rng = np.random.default_rng(5)
    wide = rng.standard_normal((400, 6))
    view = wide[:, ::3].T  # rows strided in memory
    np.testing.assert_array_equal(bm_cov(view, _spec(20)), bm_cov(view.copy(), _spec(20)))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=4, max_value=600),
    p=st.integers(min_value=1, max_value=4),
    b=st.integers(min_value=1, max_value=300),
    stride=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_columns_equal_column_stack_bitwise(seed, n, p, b, stride):
    """Batch means of a strided (p, n) view equal bm_cov of the stacked
    contiguous rows bit for bit, and each diagonal entry equals the
    one-row call, with remainder points (n not a multiple of b); a b past
    n // 2 is clamped to it, as block_size clamps it."""
    spec = _spec(b)
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal((n * stride, p * stride)) * rng.uniform(0.1, 1e3)
    cols = [wide[::stride, j * stride] for j in range(p)]  # strided when stride > 1
    got = bm_cov(np.vstack(cols), spec)
    np.testing.assert_array_equal(got, bm_cov(wide[::stride, ::stride].T, spec))
    for j in range(p):
        assert got[j, j] == _variance(np.ascontiguousarray(cols[j]), _spec(min(b, n // 2)))


def test_columns_validation():
    """block_size owns the two-batch rule: too few draws raise, and a block
    past n // 2 is clamped to two blocks."""
    with pytest.raises(InsufficientDataError):
        bm_cov(np.zeros((2, 3)), BatchMeansSpec())
    x = np.arange(10.0)
    assert _variance(x, _spec(6)) == _variance(x, _spec(5))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=8, max_value=400),
    p=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_cov_psd(seed, n, p):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, p))
    c = bm_cov(mat.T, BatchMeansSpec())
    eigs = np.linalg.eigvalsh(c)
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shift=st.floats(min_value=-50, max_value=50),
    scale=st.floats(min_value=0.1, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_affine_equivariance(seed, shift, scale):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(240)
    spec = _spec(15)
    base = _variance(x, spec)
    assert _variance(scale * x + shift, spec) == pytest.approx(
        scale**2 * base, rel=1e-9, abs=1e-12
    )


def test_constant_series_gives_zero():
    assert _variance(np.full(100, 3.7), _spec(10)) == pytest.approx(0.0, abs=1e-20)
