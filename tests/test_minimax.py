"""Bound formulas, information lemmas, and the canonical testing instance."""

import itertools
import math

import numpy as np
import pytest

from privopt import minimax
from privopt.channels import make_channel
from privopt.information import certificate_for
from privopt.minimax import (
    THEOREM_BUDGET,
    THEOREMS,
    BoundSpec,
    TestingInstance as Instance,
    default_delta,
    empirical_testing_error,
    exact_mi_per_sample,
    fano_bound,
    lemma8_constants,
    lower_bound,
    mi_lemma_value,
    observation_rows,
    t5_middle_term,
    upper_bound,
)

# frozen from side arithmetic: 0.125 min(1, 4 sqrt(log 16)/(2 sqrt(1024)))
T1B_PIN = 0.013008665799339026
# 0.125 min(1, (2/0.5) sqrt(log 8)/(4*16))
T3_PIN = 0.011265835051569398
# delta (e-1)/((e+1) C + 2^d) * comb(d-1, half-1) at d=3, k=0, eps=1, delta=1
LEMMA8_PIN = 0.15024459094578113


_BUDGETS = {"M": 4.0, "eps": 0.5, "I_star": 0.5}


def _spec(theorem, **kw):
    budget = THEOREM_BUDGET[theorem]
    base = dict(d=4, n=256, L=1.0, r=1.0, q=2.0, **{budget: _BUDGETS[budget]})
    base.update(kw)
    return BoundSpec(theorem, **base)


def test_spec_validation():
    with pytest.raises(ValueError):
        BoundSpec("T9", 2, 16, M=2.0)
    with pytest.raises(ValueError):
        BoundSpec("T1b", 2, 16)  # missing M
    with pytest.raises(ValueError):
        BoundSpec("T3", 1, 16, eps=0.5)
    with pytest.raises(ValueError):
        BoundSpec("T3", 4, 16, eps=1.3)  # past the 5/4 cap
    with pytest.raises(ValueError):
        BoundSpec("T2", 4, 16, M=1.0)  # strict contraction needs M > L
    with pytest.raises(ValueError):
        BoundSpec("T5_linear", 4, 16, eps=0.5)  # q missing
    with pytest.raises(ValueError):
        BoundSpec("T4", 4, 16, eps=-0.1)
    with pytest.raises(ValueError):
        BoundSpec("C1", 4, 16, I_star=0.0)
    with pytest.raises(ValueError):
        BoundSpec("T1a", 0, 16, M=2.0)


@pytest.mark.parametrize("theorem,kw", [
    pytest.param("T1a", {"M": -1.0}, id="T1a-M-negative"),  # gave negative bounds
    pytest.param("T1a", {"M": math.nan}, id="T1a-M-nan"),
    pytest.param("T1a", {"M": math.inf}, id="T1a-M-inf"),
    pytest.param("T1b", {"M": 0.5}, id="T1b-M-below-L"),  # no channel calibrates it
    pytest.param("T3", {"eps": math.nan}, id="T3-eps-nan"),
    pytest.param("T4", {"eps": math.inf}, id="T4-eps-inf"),
    pytest.param("C1", {"I_star": math.nan}, id="C1-I_star-nan"),
    pytest.param("C2", {"I_star": math.inf}, id="C2-I_star-inf"),
    pytest.param("T1a", {"L": math.nan}, id="T1a-L-nan"),
    pytest.param("T1a", {"r": math.inf}, id="T1a-r-inf"),
    pytest.param("T5_linear", {"q": math.nan}, id="T5_linear-q-nan"),
    pytest.param("T1a", {"d": 2.5}, id="T1a-d-fraction"),
    pytest.param("T1a", {"d": True}, id="T1a-d-bool"),
    pytest.param("T1a", {"n": 256.0}, id="T1a-n-float"),
    pytest.param("T1a", {"n": True}, id="T1a-n-bool"),
])
def test_spec_refuses_values_no_theorem_allows(theorem, kw):
    with pytest.raises(ValueError):
        _spec(theorem, **kw)


def test_spec_keeps_the_edges_of_each_range():
    _spec("T5_linear", q=math.inf)
    _spec("T5_general", q=1.0)
    _spec("T1b", M=1.0)  # M = L
    _spec("T3", d=2, eps=1.25)
    _spec("T1a", d=np.int64(3), n=np.int64(7))


# exact values at d=4, n=256, L=0.7, r=2, q=1.5 and M=4, eps=0.5,
# I_star=0.5, in THEOREMS order, which is the order `bounds` prints its rows
BOUND_PINS = (
    ("T1a", 0.011111111111111112, 2.0),
    ("T1b", 0.04506334020627759, 1.017042471741552),
    ("T2", 0.005555555555555556, 1.4208373742234393),
    ("T3", 0.015772169072197157, 0.504709410310309),
    ("T4", 0.504709410310309, 0.504709410310309),
    ("T5_linear", 0.27779518409443493, 0.27779518409443493),
    ("T5_general", 0.27779518409443493, 0.27779518409443493),
    ("C1", 0.35688344655908316, 0.35688344655908316),
    ("C2", 0.4949747468305833, 0.4949747468305833),
    ("C3", 0.504709410310309, 0.504709410310309),
)


def test_theorem_order_is_pinned():
    assert THEOREMS == tuple(th for th, _, _ in BOUND_PINS)


@pytest.mark.parametrize("theorem,lower,upper", BOUND_PINS)
def test_every_theorem_value_is_pinned(theorem, lower, upper):
    spec = _spec(theorem, L=0.7, r=2.0, q=1.5)
    assert lower_bound(spec) == lower
    assert upper_bound(spec) == upper


def test_lower_bound_pins():
    assert lower_bound(BoundSpec("T1b", 8, 1024, M=4.0)) == pytest.approx(
        T1B_PIN, abs=1e-15)
    assert lower_bound(BoundSpec("T3", 4, 256, eps=0.5)) == pytest.approx(
        T3_PIN, abs=1e-15)
    # T1a small-n branch saturates at 0.05 r L d
    assert lower_bound(BoundSpec("T1a", 3, 1, M=1000.0)) == pytest.approx(0.15)


@pytest.mark.parametrize("theorem", THEOREMS)
@pytest.mark.parametrize("n", [64, 1024, 65536])
def test_sandwich_and_monotonicity(theorem, n):
    spec = _spec(theorem, n=n)
    lo, up = lower_bound(spec), upper_bound(spec)
    assert 0.0 < lo <= up * (1.0 + 1e-12)
    more = _spec(theorem, n=4 * n)
    assert lower_bound(more) <= lo + 1e-15


def test_t5_general_lower_never_exceeds_upper():
    # the bound is tight: lower <= upper holds exactly, with no slack, also
    # at the spec where two formulas for it once rounded one ulp apart
    spec = BoundSpec("T5_general", 2, 256, L=0.3, r=0.5, eps=0.3, q=1.0)
    assert lower_bound(spec) <= upper_bound(spec)
    for d, n, L, r, eps, q in itertools.product(
            (1, 2, 3, 7, 100), (1, 9, 256, 10**4, 10**6), (0.3, 1.0, 2.5),
            (0.5, 1.0, 3.0), (0.1, 0.3, 1.0, 2.0), (1.0, 1.5, 2.0, math.inf)):
        spec = BoundSpec("T5_general", d, n, L=L, r=r, eps=eps, q=q)
        assert lower_bound(spec) <= upper_bound(spec), spec


def test_t2_contraction_identity_used_in_bound():
    # the l1 contraction D equals L/M at the calibrated gamma, so the T2
    # lower bound equals the explicit formula with D replaced by L/M
    spec = _spec("T2", d=5, n=400, M=3.0)
    want = 0.05 * min(1.0, math.sqrt(5) * 3.0 / (9.0 * 20.0))
    assert lower_bound(spec) == pytest.approx(want, rel=1e-12)


def test_t5_middle_term_binding():
    spec = BoundSpec("T5_linear", 4, 100, eps=0.3, q=2.0)
    mid = t5_middle_term(spec)
    assert mid == pytest.approx((100 * 0.09) ** -0.25, rel=1e-12)
    assert lower_bound(spec) == pytest.approx(mid, rel=1e-12)  # binding term
    assert upper_bound(spec) >= lower_bound(spec)
    # large n eps^2: the first term binds instead and the flag clears
    assert t5_middle_term(BoundSpec("T5_linear", 4, 10**8, eps=0.3, q=2.0)) is None
    assert t5_middle_term(_spec("T3")) is None


def test_fano_bound():
    assert fano_bound(0.0, 16) == pytest.approx(0.75, abs=1e-15)
    assert fano_bound(0.0, 2) == 0.0  # |V| = 2 is always vacuous
    assert fano_bound(100.0, 4) == 0.0
    assert fano_bound(0.0, 10**9) <= 1.0
    with pytest.raises(ValueError):
        fano_bound(-0.1, 4)
    with pytest.raises(ValueError):
        fano_bound(0.5, 1)


def test_lemma8_constants_pin_and_validation():
    C, Delta = lemma8_constants(3, 0, 1.0, 1.0)
    assert C == 4
    assert Delta == pytest.approx(LEMMA8_PIN, abs=1e-15)
    C, Delta = lemma8_constants(4, 2, 1.0, 1.0)
    assert C == 1
    assert Delta == pytest.approx((math.e - 1) / (math.e + 1 + 16), rel=1e-12)
    with pytest.raises(ValueError):
        lemma8_constants(3, 1, 1.0, 1.0)  # odd k
    with pytest.raises(ValueError):
        lemma8_constants(3, 4, 1.0, 1.0)  # above 2 ceil(d/2) - 2


@pytest.mark.parametrize("d,k", [(4.0, 0), (True, 0), (4, 0.0), (4, False), (4.5, 0)])
def test_lemma8_constants_counts_are_integers(d, k):
    # d and k are counts: a fraction or a bool is an error, never read as a number
    with pytest.raises(ValueError, match="must be an integer"):
        lemma8_constants(d, k, 0.5, 0.1)


def test_lemma8_constants_take_numpy_integers():
    assert lemma8_constants(np.int64(4), np.int32(2), 1.0, 1.0) == lemma8_constants(4, 2, 1.0, 1.0)


def test_lemma8_constants_match_50_digit_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for d in (1, 2, 3, 4, 5, 7, 8, 16, 31, 32, 63, 64):
        for k in range(0, 2 * math.ceil(d / 2) - 1, 2):
            half = math.ceil((d - k) / 2)
            C_dk = sum(math.comb(d, i) for i in range(half))
            for eps in (1e-6, 0.01, 0.25, 0.5, 1.0, math.log(5.0), 2.0, 5.0, 10.0, 50.0):
                for delta in (0.01, 0.1, 0.3, 0.5, 1.0):
                    with mpmath.workdps(50):
                        e = mpmath.e**eps
                        ref = float(mpmath.mpf(delta) * (e - 1)
                                    / ((e + 1) * C_dk + mpmath.mpf(2) ** d)
                                    * math.comb(d - 1, half - 1))
                    assert lemma8_constants(d, k, eps, delta) == (C_dk, ref), (d, k, eps, delta)
    # exp(eps) beyond the decimal exponent range, and eps = inf, take the
    # eps -> inf limit delta C(d-1, half-1) / C_d(k) instead of raising
    for eps in (5e6, math.inf):
        assert lemma8_constants(8, 0, eps, 0.5) == (93, 0.5 * 35 / 93)


def test_mi_lemma_values():
    assert mi_lemma_value("L4", n=10, delta=0.5, L=1.0, M=2.0) == \
        pytest.approx(10 * 0.25 / 4.0)
    assert mi_lemma_value("L5", n=10, delta=0.5, L=1.0, M=2.0, d=3) == \
        pytest.approx(10 * 0.25 * 3 / 4.0)
    # the l1 contraction evaluates to L/M exactly
    assert mi_lemma_value("L6", n=10, delta=0.5, d=3, L=1.0, M=2.0) == \
        pytest.approx(10 * 0.25 / 4.0, rel=1e-10)
    e = math.e
    assert mi_lemma_value("L7", n=8, delta=1.0, d=2, eps=1.0) == \
        pytest.approx(8 * (e / 8.0) * (e - 1 / e) ** 2)
    assert mi_lemma_value("L8", n=5, delta=1.0, d=3, eps=1.0, k=0) == \
        pytest.approx(5 * LEMMA8_PIN**2, rel=1e-12)
    assert mi_lemma_value("L11", n=4, delta=0.5, d=2, eps=1.0) == \
        pytest.approx(4 * (25 * e / 16) * (0.25 / 2) * (e - 1 / e) ** 2)
    with pytest.raises(ValueError):
        mi_lemma_value("L4", n=10, delta=1.5, L=1.0, M=2.0)
    with pytest.raises(ValueError):
        mi_lemma_value("L99", n=1, delta=0.5)


@pytest.mark.parametrize("lemma,p", [
    ("L4", dict(n=10, delta=0.5, L=1.0, M=0.0)),
    ("L4", dict(n=10, delta=0.5, L=1.0, M=-2.0)),
    ("L4", dict(n=10, delta=0.5, L=0.0, M=2.0)),
    ("L5", dict(n=10, delta=0.5, L=1.0, M=2.0, d=0)),
    ("L6", dict(n=10, delta=0.5, d=3, L=1.0, M=math.nan)),
    ("L7", dict(n=-3, delta=0.5, d=2, eps=1.0)),
    ("L7", dict(n=3, delta=0.5, d=2, eps=-1.0)),
    ("L11", dict(n=3, delta=0.5, d=-2, eps=1.0)),
])
def test_mi_lemma_value_refuses_out_of_range_parameters(lemma, p):
    with pytest.raises(ValueError):
        mi_lemma_value(lemma, **p)


def test_mi_lemma_value_keeps_the_edges():
    assert mi_lemma_value("L4", n=0, delta=0.5, L=1.0, M=2.0) == 0.0
    assert mi_lemma_value("L7", n=3, delta=0.5, d=2, eps=0.0) == 0.0


def test_default_delta_choices():
    assert default_delta(BoundSpec("T1b", 4, 10000, M=2.0)) == pytest.approx(
        2.0 * math.sqrt(math.log(8)) / (2.0 * 100.0))
    assert default_delta(BoundSpec("T1b", 4, 2, M=100.0)) == 1.0  # capped
    assert default_delta(BoundSpec("T3", 4, 10000, eps=0.5)) == pytest.approx(
        math.sqrt(4 * math.log(8)) / (4 * 0.5 * 100.0))
    e = math.exp(0.5)
    assert default_delta(BoundSpec("T4", 4, 10000, eps=0.5)) == pytest.approx(
        math.sqrt(4 * math.log(8)) / (math.sqrt(e * 10000) * (e - 1 / e)))
    with pytest.raises(ValueError):
        default_delta(BoundSpec("T1a", 4, 100, M=2.0))


def test_default_delta_raises_value_error_without_a_recorded_choice():
    # C1 carries I_star, not M or eps: it has no recorded choice, so a
    # ValueError, never a TypeError from a missing budget
    with pytest.raises(ValueError, match="no recorded delta"):
        default_delta(_spec("C1", n=100))
    recorded = {"T1b", "T3", "C3", "T4"}
    for th in THEOREMS:
        spec = _spec(th, n=100)
        if th in recorded:
            assert 0.0 < default_delta(spec) <= 1.0
        else:
            with pytest.raises(ValueError, match="no recorded delta"):
                default_delta(spec)
    assert minimax.DELTA_THEOREMS == recorded  # the set `bounds` reads


# ---------------------------------------------------------------------------
# testing construction


def _two_point(d):
    e1 = [1] + [0] * (d - 1)
    return np.array([e1, [-v for v in e1]])


def test_instance_validation_and_properties():
    ch = make_channel("linf_maxent", 2, M=2.0)
    with pytest.raises(ValueError):
        Instance(_two_point(2), 0.0, "median", ch)
    with pytest.raises(ValueError):
        Instance(_two_point(2), 0.5, "logistic", ch)
    inst = Instance(_two_point(2), 0.5, "hinge", ch)
    assert inst.data_kind == "coord_basis" and inst.grad_sign == -1.0
    inst = Instance(_two_point(2), 0.5, "linear", ch)
    assert inst.data_kind == "cube_bernoulli" and inst.grad_sign == 1.0
    dist = inst.data_dist(np.array([1, 0]))
    assert dist.kind == "cube_bernoulli" and dist.delta == 0.5


def test_instance_refuses_a_malformed_packing():
    ch = make_channel("linf_maxent", 2, M=2.0)
    # ragged, one-dimensional, a single point
    for packing in ([[1.0, 0.0], [-1.0]], [1.0, -1.0], [[1.0, 0.0]]):
        with pytest.raises(ValueError):
            Instance(packing, 0.5, "median", ch)
    assert Instance([[1, 0], [-1, 0]], 0.5, "median", ch).packing.dtype == float


def test_observation_rows_are_pmfs():
    for kind, family in (("linf_maxent", "median"), ("l1_maxent", "hinge"),
                         ("dp_hypercube", "median")):
        ch = make_channel(kind, 3, M=2.0) if "maxent" in kind else \
            make_channel(kind, 3, eps=0.8)
        inst = Instance(_two_point(3), 0.5, family, ch)
        rows, cols = observation_rows(inst)
        assert rows.shape[0] == 2 and rows.shape[1] == len(cols)
        assert np.all(rows >= -1e-15)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-10)


@pytest.mark.parametrize("kind,family,lemma,extra", [
    ("linf_maxent", "median", "L4", {"L": 1.0, "M": 2.0}),
    ("linf_maxent", "median", "L5", {"L": 1.0, "M": 2.0, "d": 3}),
    ("l1_maxent", "hinge", "L6", {"L": 1.0, "M": 2.0, "d": 3}),
    ("dp_hypercube", "median", "L7", {"d": 3, "eps": 0.8}),
])
def test_exact_mi_below_lemma_bound(kind, family, lemma, extra):
    ch = make_channel(kind, 3, M=2.0) if "maxent" in kind else \
        make_channel(kind, 3, eps=0.8)
    inst = Instance(_two_point(3), 0.5, family, ch)
    mi = exact_mi_per_sample(inst)
    bound = mi_lemma_value(lemma, n=1, delta=0.5, **extra)
    assert 0.0 <= mi <= bound * (1.0 + 1e-12)


def test_exact_mi_below_channel_certificate():
    # per-sample leakage about nu cannot exceed the channel's worst-case
    # MI certificate (data processing)
    for kind in ("linf_maxent", "l1_maxent"):
        ch = make_channel(kind, 3, M=1.5)
        inst = Instance(_two_point(3), 1.0, "hinge" if kind == "l1_maxent"
                               else "median", ch)
        mi = exact_mi_per_sample(inst)
        assert mi <= certificate_for(ch).level * (1.0 + 1e-12)


def test_empirical_error_vanishes_with_many_samples():
    ch = make_channel("dp_hypercube", 3, eps=1.0)
    inst = Instance(_two_point(3), 0.9, "median", ch)
    err = empirical_testing_error(inst, n=800, reps=200, rng=0)
    assert err <= 0.05


def test_empirical_error_respects_fano_nonvacuous():
    # all 8 sign corners at d = 3: log |V| large enough for Fano to bite
    pk = np.array(np.meshgrid(*[[-1, 1]] * 3)).T.reshape(-1, 3)
    ch = make_channel("dp_hypercube", 3, eps=0.25)
    inst = Instance(pk, 0.2, "median", ch)
    mi = exact_mi_per_sample(inst)
    n = 3
    bound = fano_bound(n * mi, len(pk))
    assert bound > 0.1  # the instance is non-vacuous by construction
    reps = 1500
    err = empirical_testing_error(inst, n=n, reps=reps, rng=7)
    sigma = math.sqrt(0.25 / reps)
    assert err >= bound - 4.0 * sigma


def test_empirical_error_sphere_sampler_branch():
    pk = _two_point(3)
    ch = make_channel("dp_l2_sampler", 3, eps=1.0)
    inst = Instance(pk, 0.9, "median", ch)
    err = empirical_testing_error(inst, n=600, reps=150, rng=3)
    assert err <= 0.1
