"""Command-line front end: certify / tradeoff / bounds / bias-demo.

Outputs are machine readable only (JSON for single reports, CSV for
sweeps, '#'-prefixed schema comment first) and bitwise deterministic
given --seed.  Exit codes: 0 success, 1 usage or config error,
2 certificate violation, 3 check-mode threshold violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .channels import (_real, channel_from_json, channel_to_json, dp_ratio_max,
                       eps_star, make_channel)
from .geometry import NormBall, _integer
from .information import (MI_MC_MIN_N, certificate_for, certificate_violations, certify_channel,
                          extreme_point_source, mutual_information_exact, nats_to_bits)
from .losses import DataDist, RiskSpec, make_loss, risk_minimizer, risk_value
from .minimax import (
    DELTA_THEOREMS,
    LEMMA8_THEOREMS,
    Q_THEOREMS,
    THEOREM_BUDGET,
    THEOREMS,
    BoundSpec,
    default_delta,
    lemma8_constants,
    lower_bound,
    t5_middle_term,
    upper_bound,
)
from .optimizers import OptimizerConfig, mirror_descent_l1, sgd_l2
from .protocol import PrivateGradStream, as_grad_oracle

__all__ = ["main", "cmd_certify", "cmd_tradeoff", "cmd_bounds", "cmd_bias_demo"]

CERTIFY_SCHEMA = "privopt.certify.v1"
TRADEOFF_SCHEMA = "privopt.tradeoff.v1"
BOUNDS_SCHEMA = "privopt.bounds.v1"
BIAS_DEMO_SCHEMA = "privopt.bias_demo.v1"

# slope fits drop cells whose measured risk is still this close to the
# theta = 0 starting gap; saturated cells carry no rate information
SATURATION_FRACTION = 0.25


class UsageError(Exception):
    pass


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".17g")
    return str(v)


def _grid(cfg: dict, key: str, default) -> list:
    """cfg[key], which must be a list even of one entry."""
    grid = cfg.get(key, default)
    if not isinstance(grid, list):
        raise UsageError(f"{key} must be a list, got {grid!r}")
    return grid


def _int_grid(cfg: dict, key: str, default) -> list:
    """cfg[key] as a list of ints, each checked by geometry._integer."""
    return [_integer(key, v) for v in _grid(cfg, key, default)]


def _float_grid(cfg: dict, key: str, default) -> list:
    """cfg[key] as a list of floats, each checked by channels._real: a bool,
    a string or a null is a config error, never a number."""
    return [_real(key, v) for v in _grid(cfg, key, default)]


def _slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


# ---------------------------------------------------------------------------
# certify


def cmd_certify(cfg: dict, seed: int, check: bool) -> tuple:
    if check:
        return _certify_selfcheck()
    try:
        ch = channel_from_json(cfg)
    except KeyError as e:
        raise UsageError(f"certify config needs {e.args[0]!r}") from e
    n_mc = _integer("n_mc", cfg.get("n_mc", 10**5))
    if n_mc < MI_MC_MIN_N:
        raise UsageError(f"n_mc must be >= {MI_MC_MIN_N}")
    try:
        report = certify_channel(ch, rng=np.random.default_rng(seed), n_mc=n_mc)
    except ValueError as e:  # a draw that is not a point of its kind's pmf
        report, violations = None, [str(e)]
    else:
        violations = certificate_violations(ch, report)
    cert = certificate_for(ch)
    payload = {
        "schema": CERTIFY_SCHEMA,
        "channel": json.loads(channel_to_json(ch)),
        "certificate": {
            "kind": cert.kind,
            "level": None if math.isinf(cert.level) else cert.level,
            "non_private": math.isinf(cert.level),
        },
        "report": None if report is None else json.loads(report.to_json()),
        "violations": violations,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", 2 if violations else 0


def _certify_selfcheck() -> tuple:
    checks = []

    ch = make_channel("linf_maxent", 4, L=1.0, M=2.0)
    want = 4.0 * (1.0 - (-0.75 * math.log2(0.75) - 0.25 * math.log2(0.25)))
    got = nats_to_bits(mutual_information_exact(extreme_point_source(ch), ch))
    checks.append(("linf_maxent d=4 M=2 exact MI bits", got, want, abs(got - want) <= 1e-10))

    ratio = dp_ratio_max(make_channel("dp_hypercube", 3, L=1.0, eps=1.0))
    checks.append(("dp_hypercube d=3 eps=1 ratio", ratio, math.e,
                   abs(ratio - math.e) <= 1e-10))

    ch = make_channel("identity", 3, L=1.0)
    mi = mutual_information_exact(extreme_point_source(ch), ch)
    cert = certificate_for(ch)
    ok = math.isinf(cert.level) and abs(mi - 3.0 * math.log(2.0)) <= 1e-10
    checks.append(("identity d=3 non-private, MI = source entropy",
                   mi, 3.0 * math.log(2.0), ok))

    payload = {
        "schema": CERTIFY_SCHEMA,
        "mode": "check",
        "checks": [
            {"name": n, "got": float(g), "want": float(w), "ok": bool(ok)}
            for n, g, w, ok in checks
        ],
    }
    code = 0 if all(c[3] for c in checks) else 3
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", code


# ---------------------------------------------------------------------------
# tradeoff


def _median_spec(d, delta, L, r) -> RiskSpec:
    # one-hot hard direction: the corner r*e_1 sits on the l1 sphere, so the
    # minimizer is feasible for the mirror-descent domain at every d
    return RiskSpec(
        loss=make_loss("median", L=L, r=r),
        data=DataDist("cube_bernoulli", d, delta, (1,) + (0,) * (d - 1)),
        domain=NormBall(1, r),
    )


def _chain_config(spec: RiskSpec, channel, steps) -> OptimizerConfig:
    return OptimizerConfig("mirror_descent_l1", spec.domain, channel.d, steps,
                           grad_bound=channel.target.radius)


def _averaged_chains(spec: RiskSpec, channel, cfg: OptimizerConfig, reps, rng) -> np.ndarray:
    """reps mirror-descent chains of cfg over a population stream through
    channel, stepped together on one rng; returns their (reps, d) averaged
    iterates."""
    stream = PrivateGradStream.from_population(spec.data, spec.loss, channel, rng=rng)
    return mirror_descent_l1(as_grad_oracle(stream), cfg, rng, chains=reps).averaged


class _Family(NamedTuple):
    """What a swept channel kind sets in a tradeoff grid."""

    theorem: str  # the bound pair it achieves; THEOREM_BUDGET names its make_channel keyword
    budgets: list  # the default budget grid
    refuses_from: Callable  # d -> the budget from which make_channel refuses (eps_star, or inf)
    info: Callable  # channel -> per-sample information; the baseline runs n info / d steps
    checks_budget_slope: bool  # whether --check also holds the budget slope band


_FAMILIES = {
    "dp_hypercube": _Family("T3", [0.25, 0.5, 1.0], eps_star,
                            lambda ch: ch.privacy_param**2, True),
    "linf_maxent": _Family("T1b", [2.0, 4.0, 8.0], lambda d: math.inf,
                           lambda ch: certificate_for(ch).level, False),
}

_TRADEOFF_COLUMNS = (
    "kind,loss,d,n,budget,eps_star,status,reps,risk_mean,risk_std,"
    "lower,upper,effective_n,nonprivate_risk_mean,np_ratio"
)

# the row of a cell whose budget the family's channel refuses
_REFUSED = dict(status="eps_over_star", **dict.fromkeys(
    ("risk_mean", "risk_std", "lower", "upper", "effective_n", "np_mean"), math.nan))


def cmd_tradeoff(cfg: dict, seed: int, check: bool) -> tuple:
    kind = cfg.get("kind", "dp_hypercube")
    if kind not in tuple(_FAMILIES):  # a tuple, so an unhashable kind is refused too
        raise UsageError(f"tradeoff supports {' or '.join(_FAMILIES)}, not {kind!r}")
    if cfg.get("loss", "median") != "median":
        raise UsageError("tradeoff sweeps run the median loss")
    fam = _FAMILIES[kind]
    name = THEOREM_BUDGET[fam.theorem]
    d_grid = _int_grid(cfg, "d", [2, 8, 32])
    n_grid = _int_grid(cfg, "n", [2**k for k in range(8, 17)])
    budget_grid = _float_grid(cfg, "budget", fam.budgets)
    if not (d_grid and n_grid and budget_grid):
        raise UsageError("grids must be non-empty")
    reps = _integer("reps", cfg.get("reps", 50))
    if reps < 1:
        raise UsageError("reps must be >= 1")
    delta = _real("delta", cfg.get("delta", 0.5))
    L = _real("L", cfg.get("L", 1.0))
    r = _real("r", cfg.get("r", 1.0))

    # every cell's spec, channel and chain config are built in grid order
    # before the first cell runs: a bad d, n or budget entry fails with the
    # error its cell would raise, and no cell before it runs
    cells = []
    for d in d_grid:
        spec = _median_spec(d, delta, L, r)
        best = risk_minimizer(spec).value
        start_gap = risk_value(spec, np.zeros(d)) - best
        es = fam.refuses_from(d)
        for n in n_grid:
            for budget in budget_grid:
                cell = dict(d=d, n=n, budget=budget, eps_star=es, start_gap=start_gap)
                ch = chain_cfg = None
                if budget < es:
                    ch = make_channel(kind, d, L=L, **{name: budget})
                    chain_cfg = _chain_config(spec, ch, n)
                cells.append((spec, best, ch, chain_cfg, cell))

    lines = [f"# schema={TRADEOFF_SCHEMA}", _TRADEOFF_COLUMNS]
    rows = []
    for spec, best, ch, chain_cfg, cell in cells:
        # each cell appends one row, so the k-th cell draws stream [seed, k]
        rng = np.random.default_rng(np.random.SeedSequence([seed, len(rows)]))
        if ch is None:
            rows.append(dict(cell, **_REFUSED))
            continue
        d, n, budget = cell["d"], cell["n"], cell["budget"]
        avg = _averaged_chains(spec, ch, chain_cfg, reps, rng)
        gaps = np.array([risk_value(spec, a) - best for a in avg])
        eff = max(1, int(n * fam.info(ch) / d))
        ident = make_channel("identity", d, L=L)
        np_avg = _averaged_chains(spec, ident, _chain_config(spec, ident, eff), reps, rng)
        np_mean = float(np.mean([risk_value(spec, a) - best for a in np_avg]))
        try:
            bs = BoundSpec(fam.theorem, d, n, L, r, **{name: budget})
            lo, up = lower_bound(bs), upper_bound(bs)
        except ValueError:
            lo, up = math.nan, math.nan
        rows.append(dict(cell, status="ok", risk_mean=float(gaps.mean()),
                         risk_std=float(gaps.std(ddof=1)) if reps > 1 else math.nan,
                         lower=lo, upper=up, effective_n=eff, np_mean=np_mean))
    for row in rows:
        ratio = row["risk_mean"] / row["np_mean"] if row["np_mean"] else math.nan
        lines.append(",".join(_fmt(v) for v in (
            kind, "median", row["d"], row["n"], row["budget"], row["eps_star"],
            row["status"], reps, row["risk_mean"], row["risk_std"], row["lower"],
            row["upper"], row["effective_n"], row["np_mean"], ratio,
        )))

    # log-log rate fits over unsaturated valid cells
    def slopes(x, fixed, grid):
        """One fit of risk against row[x] per (d, fixed value) with >= 3 usable cells."""
        out = []
        for d in d_grid:
            for v in grid:
                pts = [(row[x], row["risk_mean"]) for row in rows
                       if row["d"] == d and row[fixed] == v and row["status"] == "ok"
                       and 0.0 < row["risk_mean"] <= SATURATION_FRACTION * row["start_gap"]]
                if len(pts) >= 3:
                    out.append(_slope(*zip(*pts)))
                    lines.append(f"# fit,slope_{x},d={d},{fixed}={_fmt(v)},slope={_fmt(out[-1])}")
        return out

    slope_n = slopes("n", "budget", budget_grid)
    slope_budget = slopes("budget", "n", n_grid)
    code = 0
    if check:
        ok_n = bool(slope_n) and all(-0.6 <= s <= -0.4 for s in slope_n)
        ok_b = (not fam.checks_budget_slope) or (bool(slope_budget)
                                                 and all(-1.15 <= s <= -0.85 for s in slope_budget))
        code = 0 if (ok_n and ok_b) else 3
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# bounds


_BOUNDS_COLUMNS = ("theorem,d,n,budget_kind,budget,q,delta,lower,upper,"
                   "gap_flagged,lemma8_C,lemma8_Delta")


def cmd_bounds(cfg: dict, seed: int, check: bool) -> tuple:
    theorems = _grid(cfg, "theorems", list(THEOREMS))
    bad = [t for t in theorems if t not in THEOREMS]
    if bad:
        raise UsageError(f"unknown theorems {bad!r}")
    d_grid = _int_grid(cfg, "d", [2, 8, 32])
    n_grid = sorted(_int_grid(cfg, "n", [256, 4096, 65536]))
    eps_grid = _float_grid(cfg, "eps", [0.25, 0.5, 1.0])
    m_grid = _float_grid(cfg, "M", [2.0, 4.0])
    i_grid = _float_grid(cfg, "I_star", [0.25, 1.0])
    q = _real("q", cfg.get("q", 2.0))
    k = _integer("k", cfg.get("k", 0))
    L = _real("L", cfg.get("L", 1.0))
    r = _real("r", cfg.get("r", 1.0))

    lines = [f"# schema={BOUNDS_SCHEMA}", _BOUNDS_COLUMNS]
    sandwich_ok, monotone_ok = True, True
    for th in theorems:
        bkind = THEOREM_BUDGET[th]
        q_col = q if th in Q_THEOREMS else math.nan
        budgets = {"M": m_grid, "eps": eps_grid, "I_star": i_grid}[bkind]
        for d in d_grid:
            for budget in budgets:
                prev = math.inf
                for n in n_grid:
                    spec = BoundSpec(th, d=d, n=n, L=L, r=r, q=q, **{bkind: budget})
                    lo, up = lower_bound(spec), upper_bound(spec)
                    sandwich_ok &= lo <= up * (1.0 + 1e-12)
                    monotone_ok &= lo <= prev * (1.0 + 1e-12)
                    prev = lo
                    delta = default_delta(spec) if th in DELTA_THEOREMS else math.nan
                    c8, d8 = (lemma8_constants(d, k, budget, delta) if th in LEMMA8_THEOREMS
                              else (math.nan, math.nan))
                    flagged = int(t5_middle_term(spec) is not None)
                    lines.append(",".join(_fmt(v) for v in (
                        th, d, n, bkind, budget, q_col, delta, lo, up, flagged, c8, d8,
                    )))
    code = 0
    if check:
        pinned = lower_bound(BoundSpec("T1b", d=8, n=1024, M=4.0))
        # same row, coded independently from the displayed formula
        want = min(1.0, 4.0 * math.sqrt(math.log(16.0)) / (2.0 * 32.0)) / 8.0
        ok = abs(pinned - want) <= 1e-12 and sandwich_ok and monotone_ok
        code = 0 if ok else 3
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# bias-demo


def cmd_bias_demo(cfg: dict, seed: int, check: bool) -> tuple:
    b = _real("slope", cfg.get("slope", 1.0))
    r = _real("r", cfg.get("r", 1.0))
    n = _integer("n", cfg.get("n", 4096))
    if b <= 0.0 or r <= 0.0 or n < 1:
        raise UsageError("slope and r must be positive, n >= 1")
    L = b / 2.0  # the 1-d loss theta -> (b/2) theta has |grad| = b/2
    M = _real("M", cfg.get("M", 4.0 * L))
    grad = np.array([b / 2.0])
    dom = NormBall(2, r)

    biased_ch = make_channel("biased_demo", 1, L=L, bias=(-b,))
    biased_cfg = OptimizerConfig("sgd_l2", dom, 1, n,
                                 grad_bound=biased_ch.target.radius)
    last = [0.0]  # the biased run's final iterate is the last theta its oracle is handed

    def biased_oracle(th, gen):
        last[0] = float(th[0])
        return biased_ch.sample(grad, rng=gen)

    run_b = sgd_l2(biased_oracle, biased_cfg,
                   np.random.default_rng(np.random.SeedSequence([seed, 0])))
    final_theta = last[0]

    unbiased_ch = make_channel("linf_maxent", 1, L=L, M=M)
    unbiased_cfg = OptimizerConfig("sgd_l2", dom, 1, n, grad_bound=M)
    run_u = sgd_l2(lambda th, gen: unbiased_ch.sample(grad, rng=gen),
                   unbiased_cfg, np.random.default_rng(np.random.SeedSequence([seed, 1])))

    def f(theta):  # population risk; minimized at -r
        return 0.5 * b * float(theta)

    risk_range = f(r) - f(-r)
    biased_final_gap = f(final_theta) - f(-r)
    biased_avg_gap = f(float(run_b.averaged[0])) - f(-r)
    unbiased_gap = f(float(run_u.averaged[0])) - f(-r)
    gap_bound = 4.0 * M * r / math.sqrt(n)
    payload = {
        "schema": BIAS_DEMO_SCHEMA,
        "slope": b, "r": r, "n": n, "M": M,
        "risk_range": risk_range,
        "biased": {
            "final_theta": final_theta,
            "final_gap": biased_final_gap,
            "averaged_gap": biased_avg_gap,
            "wrong_endpoint": final_theta > 0.0,
        },
        "unbiased": {
            "averaged_theta": float(run_u.averaged[0]),
            "averaged_gap": unbiased_gap,
            "gap_bound_4Mr_sqrt_n": gap_bound,
        },
    }
    code = 0
    if check:
        ok = biased_final_gap >= 0.9 * risk_range and unbiased_gap <= gap_bound
        code = 0 if ok else 3
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", code


# ---------------------------------------------------------------------------
# plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_COMMANDS = {
    "certify": cmd_certify,
    "tradeoff": cmd_tradeoff,
    "bounds": cmd_bounds,
    "bias-demo": cmd_bias_demo,
}


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="privopt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="write output here instead of stdout")
        sp.add_argument("--check", action="store_true",
                        help="verify pinned thresholds; exit 3 on violation")
    return p


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        text, code = _COMMANDS[args.command](cfg, args.seed, args.check)
    except (UsageError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
