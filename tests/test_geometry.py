"""Projection exactness, norm balls and the finite point sets."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from privopt.geometry import (NormBall, _coin_signs, _corner_index, _corner_matrix, _signed_basis,
                              project_l2_ball)

vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
).map(lambda v: np.array(v, dtype=float))

radii = st.floats(1e-2, 1e3)


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


@pytest.mark.parametrize("d", [1, 2, 5])
def test_signed_basis(d):
    basis = _signed_basis(d)
    assert basis.shape == (2 * d, d)
    assert np.array_equal(basis, np.vstack([np.eye(d), -np.eye(d)]))
    # every zero is +0.0, so the sign of a coordinate never reads -0.0
    assert not np.any(np.signbit(basis[basis == 0.0]))
    assert not basis.flags.writeable and _signed_basis(d) is basis


@pytest.mark.parametrize("d", [1, 3, 6])
def test_corner_index_inverts_the_corner_matrix(d):
    assert np.array_equal(_corner_index(_corner_matrix(d) > 0.0), np.arange(2**d))


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_coin_signs_are_where_u_below_p_in_u_buffer(p):
    # the edges of the rule: u == p is -1, the neighbours of p on each side,
    # and u = 0, which is +1 only when p > 0; then p per entry
    u = np.array([p, np.nextafter(p, -1.0), np.nextafter(p, 2.0), 0.0, 0.5, 1.0 - 2**-53])
    u = u[(0.0 <= u) & (u < 1.0)]
    want = np.where(u < p, 1.0, -1.0)
    got = _coin_signs(u.copy(), p)
    assert got.tobytes() == want.tobytes()
    buf = np.random.default_rng(3).random((200, 5))
    ps = np.array([0.0, 0.25, p, 0.75, 1.0])
    buf[0] = ps
    want = np.where(buf < ps, 1.0, -1.0)
    assert _coin_signs(buf, ps) is buf and buf.tobytes() == want.tobytes()
