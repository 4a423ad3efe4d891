"""Projection exactness and packing guarantees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privopt.geometry import (
    NormBall,
    Packing,
    PackingError,
    covariance_bounded_packing,
    gilbert_varshamov_packing,
    max_eigenvalue_power_iteration,
    project_l1_ball,
    project_l2_ball,
)

vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
).map(lambda v: np.array(v, dtype=float))

radii = st.floats(1e-2, 1e3)


@given(vectors, radii)
def test_l1_projection_feasible_idempotent(x, r):
    p = project_l1_ball(x, r)
    # threshold subtraction cancels at the data scale, so feasibility is
    # exact only up to ulps of max|x|
    slack = 1e-9 * max(1.0, float(np.abs(x).max()))
    assert np.abs(p).sum() <= r + slack
    assert np.allclose(project_l1_ball(p, r), p, atol=slack, rtol=0)


@given(vectors, radii)
def test_l1_projection_tight_when_outside(x, r):
    if np.abs(x).sum() <= r:
        assert np.array_equal(project_l1_ball(x, r), x)
    else:
        p = project_l1_ball(x, r)
        # Euclidean projection onto a convex set lands on the boundary
        # whenever the input is strictly outside
        assert abs(np.abs(p).sum() - r) <= 1e-8 * max(1.0, r, float(np.abs(x).max()))
        assert np.all(np.sign(p) * np.sign(x) >= 0)


@given(vectors, radii, st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_l1_projection_beats_random_feasible_points(x, r, seed):
    p = project_l1_ball(x, r)
    rng = np.random.default_rng(seed)
    best = np.linalg.norm(x - p)
    for _ in range(16):
        q = rng.standard_normal(x.size)
        s = np.abs(q).sum()
        if s > r:
            q *= r / s
        assert best <= np.linalg.norm(x - q) + 1e-7 * max(1.0, best)


@given(vectors, radii)
def test_l2_projection(x, r):
    p = project_l2_ball(x, r)
    assert np.linalg.norm(p) <= r * (1.0 + 1e-12)
    nrm = np.linalg.norm(x)
    if nrm <= r:
        assert np.array_equal(p, x)
    else:
        # radial rescale, colinear with the input
        assert np.allclose(p, x * (r / nrm), atol=0, rtol=1e-12)


def test_l2_projection_norm_is_linalg_norm_bitwise():
    # the projection's norm is np.linalg.norm's to the last bit, for
    # contiguous and strided vectors, so points outside rescale identically
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        x = rng.standard_normal(2 * int(rng.integers(1, 40))) * rng.uniform(0.1, 10.0)
        for v in (x, x[::2]):
            nrm = float(np.linalg.norm(v))
            r = 0.5 * nrm
            assert project_l2_ball(v, r).tobytes() == ((r / nrm) * v).tobytes()
            assert project_l2_ball(v, nrm).tobytes() == v.tobytes()


def test_l2_projection_norm_neither_overflows_nor_underflows():
    # the plain squared norm is inf at 1e200 and 0 at 1e-200, so the ball
    # test and the rescale went wrong at both ends
    p = project_l2_ball([1e200, 1e200], 1.0)
    assert np.allclose(p, [math.sqrt(0.5)] * 2, rtol=1e-15, atol=0)
    tiny = np.array([3e-200, 4e-200])  # norm 5e-200, 50 radii out
    p = project_l2_ball(tiny, 1e-201)
    assert np.allclose(p, [6e-202, 8e-202], rtol=1e-15, atol=0)
    # strided, beyond the largest float's square root, and at the origin
    big = np.array([[1e300], [-1e300], [1e300]])[:, 0]
    assert np.allclose(project_l2_ball(big, 3.0), [math.sqrt(3.0), -math.sqrt(3.0), math.sqrt(3.0)],
                       rtol=1e-15, atol=0)
    assert np.array_equal(project_l2_ball(tiny, 6e-200), tiny)
    assert np.array_equal(project_l2_ball(np.zeros(3), 1e-300), np.zeros(3))
    assert project_l2_ball(np.zeros(0), 1.0).shape == (0,)


def test_projection_input_validation():
    with pytest.raises(ValueError):
        project_l1_ball([1.0, np.nan], 1.0)
    with pytest.raises(ValueError):
        project_l1_ball([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        project_l2_ball([np.inf], 1.0)
    for bad in ([np.nan, 0.0], [1e200, -np.inf], [1e-200, np.nan], [np.inf, np.nan]):
        with pytest.raises(ValueError, match="non-finite"):
            project_l2_ball(bad, 1.0)


def test_norm_ball_membership():
    b1 = NormBall(1, 2.0)
    assert b1.contains([1.0, -1.0])
    assert not b1.contains([1.5, -1.0])
    assert NormBall(math.inf, 1.0).contains(np.ones(5))
    with pytest.raises(ValueError):
        NormBall(3, 1.0)
    with pytest.raises(ValueError):
        NormBall(2, 0.0)


def _pairwise_l1_min(arr):
    n = len(arr)
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, float(np.abs(arr[i] - arr[j]).sum()))
    return best


def test_gv_packing_small_d_degenerates_to_two_points():
    pk = gilbert_varshamov_packing(4, rng=0)
    assert len(pk) == 2
    assert np.allclose(pk.points[0], -np.array(pk.points[1]))
    assert pk.min_l1_separation == 2.0


@pytest.mark.parametrize("d", [9, 12, 16])
def test_gv_packing_separation_and_size(d):
    pk = gilbert_varshamov_packing(d, rng=7)
    arr = pk.as_array()
    assert np.all(np.isin(arr, (-1.0, 1.0)))
    assert len(pk) >= math.exp(d / 8.0)
    assert _pairwise_l1_min(arr) >= d / 2.0 - 1e-12
    assert _pairwise_l1_min(arr) >= pk.min_l1_separation - 1e-12


def test_covariance_bounded_packing():
    pk = covariance_bounded_packing(16, rng=3)
    arr = pk.as_array()
    assert len(pk) >= math.exp(1.0)
    assert _pairwise_l1_min(arr) >= 8.0 - 1e-12
    second = arr.T @ arr / len(pk)
    # independent eigenvalue oracle for the power-iteration screen
    assert float(np.linalg.eigvalsh(second)[-1]) <= 25.0 + 1e-9


@given(st.integers(0, 10**6), st.integers(2, 8))
@settings(max_examples=30)
def test_power_iteration_matches_eigh(seed, d):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d))
    a = m @ m.T
    lam = max_eigenvalue_power_iteration(a, rng=rng)
    want = float(np.linalg.eigvalsh(a)[-1])
    assert lam == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_packing_container():
    pk = Packing((np.array([1.0, 0.0]), np.array([0.0, 1.0])), 2.0)
    assert pk.dim == 2 and len(pk) == 2
    assert pk.as_array().shape == (2, 2)
