"""LP channel design: optimum matches the two-level family below eps_star."""

import math
from fractions import Fraction

import numpy as np
import pytest

from privopt.channels import _corner_matrix, eps_star, two_level_constants
from privopt.lp_oracle import (
    MAX_LP_DIM,
    DpLpInstance,
    DpLpSolution,
    _simplex_two_phase,
    solve_dp_lp,
)


def _dense_lp(d, eps, x):
    """Reference LP over the full 2^d corner pmf, with no symmetry
    reduction: variables q_z, t, m and the slacks of m <= q_z <= e^eps m.
    Returns (t*, q) in _corner_matrix order."""
    corners = np.asarray(_corner_matrix(d))
    nq = corners.shape[0]
    E, zero, one = Fraction(math.exp(eps)), Fraction(0), Fraction(1)
    i_t, i_m, i_s0, i_u0 = nq, nq + 1, nq + 2, 2 * nq + 2
    nvars = 3 * nq + 2
    A, b = [[one] * nq + [zero] * (nvars - nq)], [one]
    for i in range(d):
        row = [Fraction(int(corners[z, i])) for z in range(nq)] + [zero] * (nvars - nq)
        row[i_t] = Fraction(-int(x[i]))
        A.append(row)
        b.append(zero)
    for z in range(nq):
        row = [zero] * nvars
        row[z], row[i_m], row[i_s0 + z] = one, -E, one
        A.append(row)
        b.append(zero)
    for z in range(nq):
        row = [zero] * nvars
        row[z], row[i_m], row[i_u0 + z] = -one, one, one
        A.append(row)
        b.append(zero)
    c = [zero] * nvars
    c[i_t] = one
    v, _ = _simplex_two_phase(A, b, c)
    return float(v[i_t]), np.array([float(v[z]) for z in range(nq)])


def test_instance_validation():
    with pytest.raises(ValueError):
        DpLpInstance(0, 0.5)
    with pytest.raises(ValueError):
        DpLpInstance(MAX_LP_DIM + 1, 0.5)
    with pytest.raises(ValueError):
        DpLpInstance(2, 0.0)
    with pytest.raises(ValueError):
        DpLpInstance(2, math.inf)


@pytest.mark.parametrize("d", [3.0, True, "3"])
def test_instance_rejects_non_integer_d(d):
    with pytest.raises(ValueError, match="integer"):
        DpLpInstance(d, 0.7)


def test_d1_is_randomized_response():
    for eps in (0.2, 1.0, 3.0):
        sol = solve_dp_lp(DpLpInstance(1, eps))
        assert sol.t_star == pytest.approx(math.tanh(eps / 2.0), abs=1e-10)
        assert len(sol.levels) == 2
    assert math.isinf(eps_star(1))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
def test_lp_matches_two_level_family(d, eps):
    if eps >= eps_star(d):
        pytest.skip("two-level family only optimal below the transition")
    sol = solve_dp_lp(DpLpInstance(d, eps))
    c = two_level_constants(d, eps)
    assert sol.t_star == pytest.approx(c["t"], abs=1e-8)
    assert len(sol.levels) == 2
    assert sol.levels[0] == pytest.approx(c["q_plus"], abs=1e-8)
    assert sol.levels[1] == pytest.approx(c["q_minus"], abs=1e-8)
    top_mult = int((sol.q > sol.q.max() - 1e-10).sum())
    assert top_mult == c["C_d"]
    # the privacy constraint is active at the optimum
    assert sol.q.max() / sol.q.min() == pytest.approx(math.exp(eps), abs=1e-8)


def test_lp_at_d5_single_point():
    # and at d = 6, below eps_star(6) = log(51/19) ~ 0.987
    for d, eps in ((5, 0.4), (6, 0.9)):
        assert eps < eps_star(d)
        sol = solve_dp_lp(DpLpInstance(d, eps))
        c = two_level_constants(d, eps)
        assert sol.t_star == pytest.approx(c["t"], abs=1e-8)
        assert int((sol.q > sol.q.max() - 1e-10).sum()) == c["C_d"]


def _reference_points():
    # the criterion-4 eps grid, plus 1.2x and 2x eps_star, at d <= 4
    for d in range(1, 5):
        star = eps_star(d)
        if math.isinf(star):
            yield from ((d, eps) for eps in (0.25, 0.5, 1.0, 2.0, 3.0))
        else:
            yield from ((d, f * star) for f in (0.15, 0.35, 0.55, 0.75, 0.95, 1.2, 2.0))
    yield from ((3, math.log(5.0) - 1e-4), (3, math.log(5.0) + 1e-4))


def test_reduced_lp_matches_dense_reference():
    rng = np.random.default_rng(0)
    for d, eps in _reference_points():
        for x in [(1.0,) * d] + [tuple(rng.choice((-1.0, 1.0), size=d)) for _ in range(2)]:
            t_ref, q_ref = _dense_lp(d, eps, x)
            sol = solve_dp_lp(DpLpInstance(d, eps), x=x)
            assert sol.t_star == t_ref, (d, eps, x)
            assert np.abs(sol.q - q_ref).max() <= 1e-12, (d, eps, x)


def test_corner_input_equivariance():
    base = solve_dp_lp(DpLpInstance(3, 0.7))
    flipped = solve_dp_lp(DpLpInstance(3, 0.7), x=(1.0, -1.0, 1.0))
    assert flipped.t_star == pytest.approx(base.t_star, abs=1e-10)
    assert np.allclose(sorted(flipped.q), sorted(base.q), atol=1e-10)
    with pytest.raises(ValueError):
        solve_dp_lp(DpLpInstance(3, 0.7), x=(0.5, 1.0, 1.0))
    with pytest.raises(ValueError):
        solve_dp_lp(DpLpInstance(3, 0.7), x=(1.0, 1.0))


def test_non_finite_corner_rejected():
    # x enters the LP only through agreement signs; a NaN must not pass as
    # a disagreement
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sign corner"):
            solve_dp_lp(DpLpInstance(3, 0.7), x=(bad, 1.0, 1.0))


def test_phase_transition_at_d3():
    below = solve_dp_lp(DpLpInstance(3, math.log(5.0) - 1e-4))
    above = solve_dp_lp(DpLpInstance(3, math.log(5.0) + 1e-4))
    mult_b = int((below.q > below.q.max() - 1e-10).sum())
    mult_a = int((above.q > above.q.max() - 1e-10).sum())
    assert mult_b == 4 and mult_a == 1
    # t* is continuous through the transition and t*(eps) keeps growing
    assert above.t_star > below.t_star
    assert abs(above.t_star - 1.0 / 3.0) < 1e-3
    # the two-level constructor refuses the regime where it stops being optimal
    with pytest.raises(ValueError):
        two_level_constants(3, math.log(5.0) + 1e-4)


def _eps_star_exact(d):
    # log((K + 2^d - C) / (K - C)) with the ratio kept as an exact Fraction
    half = (d + 1) // 2
    C = sum(math.comb(d, i) for i in range(half))
    K = d * math.comb(d - 1, half - 1)
    return math.inf if K == C else math.log(Fraction(K + 2**d - C, K - C))


def test_eps_star_agrees_with_closed_form():
    for d in range(2, MAX_LP_DIM + 1):
        assert eps_star(d) == pytest.approx(_eps_star_exact(d), abs=1e-12)
    # one definition serves the LP and the channels: bitwise equal to the
    # exact-ratio form well beyond the dimensions either uses
    assert all(eps_star(d) == _eps_star_exact(d) for d in range(1, 400))
    assert eps_star(2) == pytest.approx(math.log(5.0), abs=1e-14)
    assert eps_star(4) == pytest.approx(math.log(23.0 / 7.0), abs=1e-14)
    assert eps_star(6) == pytest.approx(math.log(51.0 / 19.0), abs=1e-14)
    with pytest.raises(ValueError):
        eps_star(0)


def test_solution_invariants_enforced():
    sol = solve_dp_lp(DpLpInstance(2, 0.5))
    with pytest.raises(ValueError):
        DpLpSolution(sol.t_star, sol.q[:3], sol.levels, 2, 0.5, sol.x)
    bad = sol.q.copy()
    bad[0] += 0.1  # breaks both the sum and the mean constraint
    with pytest.raises(ValueError):
        DpLpSolution(sol.t_star, bad, sol.levels, 2, 0.5, sol.x)
    with pytest.raises(ValueError):
        # ratio cap violated for a tighter eps than the pmf was built for
        DpLpSolution(sol.t_star, sol.q, sol.levels, 2, 0.05, sol.x)


def test_solution_ratio_cap_is_the_relative_rule():
    # the cap is information.dp_ratio_verified's exp(eps) (1 + 1e-9): at
    # eps = 3 a ratio 5e-10 above exp(eps), relatively, passes it, though it
    # lies above exp(eps) + 1e-9
    eps = 3.0
    r = math.exp(eps) * (1.0 + 5e-10)
    q = np.array([1.0, r]) / (1.0 + r)
    assert math.exp(eps) + 1e-9 < q.max() / q.min() <= math.exp(eps) * (1.0 + 1e-9)
    sol = DpLpSolution((r - 1.0) / (r + 1.0), q, (q[1], q[0]), 1, eps, (1.0,))
    assert sol.eps == eps
