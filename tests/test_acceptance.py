"""Acceptance gate: one test per criterion, one recorded PASS/FAIL line each.

Every test funnels its verdict through the criterion_recorder fixture so
`pytest -v` ends with a ten-line summary.  Random checks run under fixed
seeds; statistical tolerances (4 SE, 3 sigma) are stated next to the
assertions they guard.
"""

import itertools
import json
import math

import numpy as np
import pytest

from privopt import cli
from privopt.channels import (
    channel_pmf,
    eps_star,
    l1_gamma,
    make_channel,
    two_level_constants,
    _corner_matrix,
)
from privopt.geometry import NormBall
from privopt.information import (
    DiscreteDist,
    mi_closed_form,
    mi_from_conditionals,
    mutual_information_exact,
    nats_to_bits,
)
from privopt.losses import DataDist, RiskSpec, make_loss, risk_minimizer, risk_value
from privopt.lp_oracle import DpLpInstance, solve_dp_lp
from privopt.minimax import (
    THEOREMS,
    BoundSpec,
    TestingInstance as Instance,
    empirical_testing_error,
    exact_mi_per_sample,
    fano_bound,
    lower_bound,
    mi_lemma_value,
    upper_bound,
)
from privopt.optimizers import OptimizerConfig, mirror_descent_l1
from privopt.protocol import PrivateGradStream, as_grad_oracle

PERTURBING = ("linf_maxent", "l1_maxent", "dp_hypercube", "dp_linf_sampler",
              "dp_l2_sampler")


def _perturbing(kind, d):
    if kind in ("linf_maxent", "l1_maxent"):
        return make_channel(kind, d, L=1.0, M=2.0)
    # 0.4 < eps_star(10) = 0.775, so the dp kinds construct at every d here
    return make_channel(kind, d, L=1.0, eps=0.4)


def _input_for(ch, rng):
    d, L = ch.d, ch.source.radius
    if ch.kind == "l1_maxent":
        x = rng.uniform(-1, 1, size=d)
        return 0.9 * L * x / max(1.0, np.abs(x).sum())
    if ch.kind == "dp_l2_sampler":
        x = rng.standard_normal(d)
        return 0.9 * L * x / np.linalg.norm(x)
    return rng.uniform(-L, L, size=d)


def _corners(d):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


def _two_point(d):
    e1 = np.zeros(d)
    e1[0] = 1.0
    return np.array([e1, -e1])


def _signed_basis(d):
    eye = np.eye(d)
    return np.array([s * eye[j] for j in range(d) for s in (1.0, -1.0)])


# ---------------------------------------------------------------------------
# 1. channel unbiasedness


def test_criterion_01_unbiasedness(criterion_recorder):
    n = 10**6
    worst = 0.0
    checks = 0
    for ki, kind in enumerate(PERTURBING):
        for d in (1, 2, 5, 10):
            if kind == "dp_l2_sampler" and d == 1:
                # the sphere sampler refuses d=1 at construction; the 1-d
                # case is exactly the hypercube channel
                with pytest.raises(ValueError):
                    _perturbing(kind, d)
                continue
            ch = _perturbing(kind, d)
            rng = np.random.default_rng(np.random.SeedSequence([101, ki, d]))
            for _ in range(20):
                x = _input_for(ch, rng)
                z = ch.sample(x, rng=rng, size=n)
                # the mean and the (ddof = 0) standard error from the first
                # two raw moments, without a centred copy of z
                mean = z.mean(axis=0)
                var = np.einsum("ij,ij->j", z, z) / n - mean * mean
                se = np.sqrt(np.maximum(var, 0.0) / n)
                dev = np.abs(mean - x) / np.maximum(se, 1e-15)
                worst = max(worst, float(dev.max()))
                checks += z.shape[1]
    ok = worst <= 4.0
    criterion_recorder(1, ok, f"max |mean-x|/SE = {worst:.2f} over {checks} "
                              f"coordinate checks at 1e6 draws (limit 4)")
    assert ok


# ---------------------------------------------------------------------------
# 2. linf channel MI closed form


def test_criterion_02_linf_mi_exact(criterion_recorder):
    worst_bits = 0.0
    worst_slack = -math.inf
    for d in range(1, 7):
        src = DiscreteDist.uniform([row for row in _corners(d)])
        for m in (1.0, 1.5, 2.0, 4.0, 10.0):
            ch = make_channel("linf_maxent", d, L=1.0, M=m)
            exact = mutual_information_exact(src, ch)
            p = 0.5 + 1.0 / (2.0 * m)
            h2 = 0.0 if p in (0.0, 1.0) else (
                -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))
            want_bits = d * (1.0 - h2)
            worst_bits = max(worst_bits, abs(nats_to_bits(exact) - want_bits))
            worst_slack = max(worst_slack, exact - d / m**2)
    ok = worst_bits <= 1e-10 and worst_slack <= 1e-12
    criterion_recorder(2, ok, f"closed form dev {worst_bits:.2e} bits "
                              f"(tol 1e-10); d L^2/M^2 slack {worst_slack:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 3. l1 channel calibration and MI


def test_criterion_03_l1_mi(criterion_recorder):
    worst_gamma = 0.0
    for d in (2, 3, 5, 8, 20, 50):
        for m in (1.5, 2.0, 4.0, 10.0, 100.0):
            g = l1_gamma(d, m)
            res = ((math.exp(g) - math.exp(-g))
                   / (math.exp(g) + math.exp(-g) + 2 * d - 2) - 1.0 / m)
            worst_gamma = max(worst_gamma, abs(res))

    worst_mi = 0.0
    for d in range(1, 9):
        eye = np.eye(d)
        src = DiscreteDist.uniform([s * eye[j] for j in range(d)
                                    for s in (1.0, -1.0)])
        for m in (1.5, 2.0, 4.0, 10.0):
            ch = make_channel("l1_maxent", d, L=1.0, M=m)
            exact = mutual_information_exact(src, ch)
            closed = mi_closed_form("l1_maxent", d, 1.0, m).exact
            worst_mi = max(worst_mi, abs(exact - closed))

    # wide regime: the closed form should sit on its asymptote
    d, m = 50, 100.0
    eye = np.eye(d)
    src = DiscreteDist.uniform([s * eye[j] for j in range(d)
                                for s in (1.0, -1.0)])
    wide = mutual_information_exact(src, make_channel("l1_maxent", d, L=1.0, M=m))
    rel = abs(wide - d / (2.0 * m**2)) / (d / (2.0 * m**2))

    ok = worst_gamma <= 1e-12 and worst_mi <= 1e-10 and rel <= 0.05
    criterion_recorder(3, ok, f"gamma residual {worst_gamma:.1e} (tol 1e-12), "
                              f"MI dev {worst_mi:.1e} (tol 1e-10), "
                              f"d=50 asymptote rel dev {rel:.3f} (tol 0.05)")
    assert ok


# ---------------------------------------------------------------------------
# 4. LP oracle vs two-level family


def test_criterion_04_lp_matches_family(criterion_recorder):
    worst_atom = 0.0
    worst_t = 0.0
    worst_ratio = 0.0
    for d in range(1, 6):
        star = eps_star(d)
        eps_grid = ((0.25, 0.5, 1.0, 2.0, 3.0) if math.isinf(star)
                    else tuple(f * star for f in (0.15, 0.35, 0.55, 0.75, 0.95)))
        corners = np.asarray(_corner_matrix(d))
        upper = corners @ np.ones(d) > 0
        for eps in eps_grid:
            cal = two_level_constants(d, eps)
            expected = np.where(upper, cal["q_plus"], cal["q_minus"])
            sol = solve_dp_lp(DpLpInstance(d, eps))
            worst_atom = max(worst_atom, float(np.abs(sol.q - expected).max()))
            ch = make_channel("dp_hypercube", d, L=1.0, eps=eps)
            worst_t = max(worst_t,
                          abs(sol.t_star - cal["t"]),
                          abs(sol.t_star - 1.0 / ch.target.radius))
            ratio = float(sol.q.max() / sol.q.min())
            worst_ratio = max(worst_ratio, abs(ratio - math.exp(eps)))

    # level-structure phase transition pins eps_star(3) = log 5
    def multiplicity(eps):
        q = solve_dp_lp(DpLpInstance(3, eps)).q
        return int(np.sum(q >= q.max() * (1.0 - 1e-9)))

    log5 = math.log(5.0)
    trans = (multiplicity(log5 - 1e-4), multiplicity(log5 + 1e-4))

    ok = (worst_atom <= 1e-8 and worst_t <= 1e-8 and worst_ratio <= 1e-10
          and trans == (4, 1))
    criterion_recorder(4, ok, f"atom dev {worst_atom:.1e} (tol 1e-8), "
                              f"t* dev {worst_t:.1e}, ratio dev "
                              f"{worst_ratio:.1e}, d=3 level multiplicity "
                              f"{trans[0]}->{trans[1]} across log 5")
    assert ok


# ---------------------------------------------------------------------------
# 5. exact MI vs per-lemma bounds


def _threshold_mi(d, k, eps, delta):
    """Independent oracle for the threshold-k two-level channel.

    Data law: product sign cube tilted toward nu (the linear-family
    construction); channel pmf proportional to e^eps on {z : <z, x> > k}
    and 1 elsewhere.  Brute force over all 2^d corners.
    """
    corners = _corners(d)
    rows = []
    for j in range(d):
        for sign in (1.0, -1.0):
            nu = sign * np.eye(d)[j]
            w = np.prod(0.5 * (1.0 + delta * corners * nu), axis=1)
            row = np.zeros(len(corners))
            for x, wx in zip(corners, w):
                raw = np.where(corners @ x > k, math.exp(eps), 1.0)
                row += wx * raw / raw.sum()
            rows.append(row)
    prior = np.full(2 * d, 1.0 / (2 * d))
    return mi_from_conditionals(prior, np.array(rows))


def test_criterion_05_lemma_bounds(criterion_recorder):
    cases = []

    # magnitude-M channels against the binary-search construction
    for d in (2, 3, 4):
        for M in (2.0, 4.0):
            inst = Instance(_two_point(d), 0.5, "linear",
                                   make_channel("linf_maxent", d, L=1.0, M=M))
            cases.append((f"L4 d={d} M={M}", exact_mi_per_sample(inst),
                          mi_lemma_value("L4", n=1, delta=0.5, L=1.0, M=M)))
            inst = Instance(_corners(d), 0.5, "median",
                                   make_channel("linf_maxent", d, L=1.0, M=M))
            cases.append((f"L5 d={d} M={M}", exact_mi_per_sample(inst),
                          mi_lemma_value("L5", n=1, delta=0.5, L=1.0, M=M, d=d)))
            inst = Instance(_signed_basis(d), 0.5, "hinge",
                                   make_channel("l1_maxent", d, L=1.0, M=M))
            cases.append((f"L6 d={d} M={M}", exact_mi_per_sample(inst),
                          mi_lemma_value("L6", n=1, delta=0.5, L=1.0, M=M, d=d)))

    # dp channels against the noninteractive information bound
    for d in (2, 3, 4):
        for eps in (0.25, 0.5, 1.0):
            inst = Instance(_signed_basis(d), 0.5, "linear",
                                   make_channel("dp_hypercube", d, L=1.0, eps=eps))
            cases.append((f"L7 d={d} eps={eps}", exact_mi_per_sample(inst),
                          mi_lemma_value("L7", n=1, delta=0.5, d=d, eps=eps)))

    # threshold form, k=0: the package channel itself (d=2, eps >= 1 is
    # the regime where the stated constant dominates the exact value)
    for eps in (1.0, 1.25, 1.5):
        for delta in (0.3, 1.0):
            inst = Instance(_signed_basis(2), delta, "linear",
                                   make_channel("dp_hypercube", 2, L=1.0, eps=eps))
            cases.append((f"L8 d=2 k=0 eps={eps} delta={delta}",
                          exact_mi_per_sample(inst),
                          mi_lemma_value("L8", n=1, delta=delta, d=2,
                                         eps=eps, k=0)))

    # threshold form, k=2: no packaged channel, so use the brute-force
    # oracle above
    for d in (3, 4):
        for eps in (0.25, 1.0):
            for delta in (0.3, 1.0):
                cases.append((f"L8 d={d} k=2 eps={eps} delta={delta}",
                              _threshold_mi(d, 2, eps, delta),
                              mi_lemma_value("L8", n=1, delta=delta, d=d,
                                             eps=eps, k=2)))

    bad = [(label, mi, bound) for label, mi, bound in cases
           if not mi <= bound + 1e-12]
    tightest = min(bound - mi for _, mi, bound in cases)
    lemmas = sorted({label.split()[0] for label, _, _ in cases})
    ok = not bad
    criterion_recorder(5, ok, f"{len(cases)} instances over {lemmas}, "
                              f"min bound-MI margin {tightest:.2e}"
                              + (f", violations: {bad}" if bad else ""))
    assert ok, bad


# ---------------------------------------------------------------------------
# 6. convergence-rate slopes


def _median_gap(d, delta):
    # median loss over cube_bernoulli tilted along e_1; the l1 ball of
    # radius 1 contains the corner minimizer e_1
    spec = RiskSpec(make_loss("median", L=1.0, r=1.0),
                    DataDist("cube_bernoulli", d, delta, (1,) + (0,) * (d - 1)),
                    NormBall(1, 1.0))
    best = risk_minimizer(spec).value
    return spec, lambda theta: risk_value(spec, theta) - best


def _averaged_chains(spec, channel, steps, reps, rng):
    # reps mirror-descent chains on one population stream, stepped together
    stream = PrivateGradStream.from_population(spec.data, spec.loss, channel, rng=rng)
    cfg = OptimizerConfig("mirror_descent_l1", spec.domain, channel.d, steps,
                          grad_bound=channel.target.radius)
    return mirror_descent_l1(as_grad_oracle(stream), cfg, rng, chains=reps).averaged


def test_criterion_06_rate_slopes(criterion_recorder):
    reps, master = 50, 0

    # excess risk vs n at fixed budget: private mirror descent pays the
    # usual root-n rate
    spec4, gap4 = _median_gap(4, 0.8)
    ns = [2**k for k in range(8, 17)]
    means_n = []
    for i, n in enumerate(ns):
        rng = np.random.default_rng(np.random.SeedSequence([master, i]))
        avg = _averaged_chains(spec4, make_channel("linf_maxent", 4, M=2.0), n, reps, rng)
        means_n.append(np.mean([gap4(t) for t in avg]))
    slope_n = float(np.polyfit(np.log(ns), np.log(means_n), 1)[0])

    # excess risk vs eps at fixed n: the dp calibration contributes 1/eps
    # to the constant, so the log-log slope is -1
    spec3, gap3 = _median_gap(3, 0.8)
    eps_grid = [0.25, 0.5, 1.0]
    means_e = []
    for i, eps in enumerate(eps_grid):
        rng = np.random.default_rng(np.random.SeedSequence([master, 100 + i]))
        avg = _averaged_chains(spec3, make_channel("dp_hypercube", 3, eps=eps),
                               65536, reps, rng)
        means_e.append(np.mean([gap3(t) for t in avg]))
    slope_e = float(np.polyfit(np.log(eps_grid), np.log(means_e), 1)[0])

    ok = -0.6 <= slope_n <= -0.4 and -1.15 <= slope_e <= -0.85
    criterion_recorder(6, ok, f"slope vs n = {slope_n:.3f} (band -0.5+/-0.1), "
                              f"slope vs eps = {slope_e:.3f} "
                              f"(band -1.0+/-0.15), {reps} seeds/point")
    assert ok


# ---------------------------------------------------------------------------
# 7. effective sample size


def test_criterion_07_effective_sample_size(criterion_recorder):
    master, reps, delta = 4242, 100, 0.5
    ratios = []
    for d in (3, 4, 5):
        spec, gap = _median_gap(d, delta)
        for j, (n, eps) in enumerate(((256, 0.25), (256, 0.5), (1024, 0.25))):
            rng = np.random.default_rng(np.random.SeedSequence([master, d, j]))
            priv = _averaged_chains(spec, make_channel("dp_hypercube", d, eps=eps),
                                    n, reps, rng)
            eff = max(1, int(n * eps * eps / d))
            base = _averaged_chains(spec, make_channel("identity", d), eff, reps, rng)
            r = (np.mean([gap(t) for t in priv])
                 / np.mean([gap(t) for t in base]))
            ratios.append(float(r))
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    criterion_recorder(7, ok, f"9-cell gap ratio private/nonprivate(n eps^2/d)"
                              f" in [{min(ratios):.2f}, {max(ratios):.2f}] "
                              f"(band [0.5, 2])")
    assert ok


# ---------------------------------------------------------------------------
# 8. sandwich and Fano


def _bound_spec(theorem, d, n):
    base = dict(d=d, n=n, L=1.0, r=1.0)
    if theorem in ("T1a", "T1b", "T2"):
        base["M"] = 2.0
    elif theorem in ("C1", "C2"):
        base["I_star"] = 0.5
    else:
        base["eps"] = 0.5
    if theorem.startswith("T5"):
        base["q"] = 2.0
    return BoundSpec(theorem, **base)


def test_criterion_08_sandwich_and_fano(criterion_recorder):
    worst_gap = -math.inf
    for theorem in THEOREMS:
        for d in (2, 8, 32):
            for n in (256, 4096, 65536):
                spec = _bound_spec(theorem, d, n)
                lo, up = lower_bound(spec), upper_bound(spec)
                assert np.isfinite(lo) and np.isfinite(up)
                worst_gap = max(worst_gap, lo - up)
    sandwich_ok = worst_gap <= 1e-12

    reps = 2000
    sigma = math.sqrt(0.25 / reps)
    instances = [
        (Instance(_corners(3), 0.2, "median",
                         make_channel("dp_hypercube", 3, L=1.0, eps=0.25)),
         (1, 3)),
        (Instance(_corners(4), 0.15, "median",
                         make_channel("linf_maxent", 4, L=1.0, M=4.0)),
         (1, 4)),
        (Instance(_signed_basis(2), 0.3, "hinge",
                         make_channel("l1_maxent", 2, L=1.0, M=2.0)),
         (1, 2)),
        (Instance(_signed_basis(3), 0.3, "linear",
                         make_channel("dp_l2_sampler", 3, L=1.0, eps=0.5)),
         (1,)),
    ]
    worst_fano = math.inf
    best_bound = 0.0
    for idx, (inst, n_grid) in enumerate(instances):
        if inst.channel.kind == "dp_l2_sampler":
            # no finite pmf; the dp level itself caps the per-sample MI
            mi = inst.channel.privacy_param
        else:
            mi = exact_mi_per_sample(inst)
        for n in n_grid:
            bound = fano_bound(n * mi, len(inst.packing))
            best_bound = max(best_bound, bound)
            rng = np.random.default_rng(np.random.SeedSequence([2718, idx, n]))
            err = empirical_testing_error(inst, n, reps, rng)
            worst_fano = min(worst_fano, err - (bound - 3.0 * sigma))
    fano_ok = worst_fano >= 0.0 and best_bound >= 0.1

    ok = sandwich_ok and fano_ok
    criterion_recorder(8, ok, f"max lower-upper = {worst_gap:.1e} over "
                              f"{len(THEOREMS) * 9} grids; min err-(fano-3s) "
                              f"= {worst_fano:.3f}, max fano bound "
                              f"{best_bound:.2f} at reps={reps}")
    assert ok


# ---------------------------------------------------------------------------
# 9. bias pathology demo


def test_criterion_09_bias_demo(criterion_recorder, tmp_path):
    out = tmp_path / "bias.json"
    rc = cli.main(["bias-demo", "--seed", "0", "--out", str(out)])
    payload = json.loads(out.read_text())
    gap = payload["biased"]["final_gap"]
    rng_range = payload["risk_range"]
    ugap = payload["unbiased"]["averaged_gap"]
    bound = payload["unbiased"]["gap_bound_4Mr_sqrt_n"]
    recomputed = (4.0 * payload["M"] * payload["r"]
                  / math.sqrt(payload["n"]))
    ok = (rc == 0 and payload["biased"]["wrong_endpoint"]
          and gap >= 0.9 * rng_range and ugap <= bound
          and abs(bound - recomputed) <= 1e-12)
    criterion_recorder(9, ok, f"biased gap {gap:.3f} >= 0.9*{rng_range:.1f}; "
                              f"unbiased gap {ugap:.4f} <= 4Mr/sqrt(n) = "
                              f"{bound:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 10. CLI determinism


def test_criterion_10_cli_determinism(criterion_recorder, tmp_path):
    configs = {
        "certify": {"kind": "dp_hypercube", "d": 3, "eps": 0.5,
                    "n_mc": 20000},
        "tradeoff": {"kind": "dp_hypercube", "d": [2], "n": [256, 512],
                     "budget": [0.5], "delta": 0.8, "reps": 5},
        "bounds": None,
        "bias-demo": {"n": 1024},
    }
    all_same = True
    details = []
    for cmd, cfg in configs.items():
        args = [cmd, "--seed", "7"]
        if cfg is not None:
            cfg_path = tmp_path / f"{cmd}.json"
            cfg_path.write_text(json.dumps(cfg))
            args += ["--config", str(cfg_path)]
        outs = []
        for run in (0, 1):
            out = tmp_path / f"{cmd}.{run}.out"
            rc = cli.main(args + ["--out", str(out)])
            assert rc == 0, (cmd, rc)
            outs.append(out.read_bytes())
        same = outs[0] == outs[1]
        all_same = all_same and same
        details.append(f"{cmd}:{'ok' if same else 'DIFFERS'}")
    criterion_recorder(10, all_same,
                       "bitwise-identical reruns  " + "  ".join(details))
    assert all_same
