"""The four pinned workloads of the privopt benchmark.

A workload has three parts:

  prepare(seed, workdir) -> state   inputs made from the seed, channels
                                    calibrated, configs written (untimed)
  steps(state) -> [Step]            the timed work: one Step per CLI
                                    command, chain or LP solve; the
                                    runner runs them in order, and each
                                    yields a Call with its result (or the
                                    exception it raised) and duration
  check(state, calls) -> Pass       one Op per grid cell, chain,
                                    certificate or LP solve

The library is always reached through module attributes (``cli.main``,
``lp_oracle.solve_dp_lp``, ...), so that the traced run can rebind them.
The checks test invariants that hold at every seed and never compare
against pinned bytes.  Each Op carries a fingerprint of its output, which
the runner compares across repeats at the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from privopt import channels, cli, losses, lp_oracle, optimizers, protocol
from privopt.geometry import NormBall

# a single averaged chain's excess risk must stay below this multiple of
# its optimizer's rate (the largest ratio seen over 300 chains at n = 4096
# was 1.4)
RATE_MULTIPLE = 3.0
DP_RATIO_SLACK = 1.0 + 1e-9


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""
    fingerprint: str = ""


@dataclass
class Call:
    name: str
    result: object  # the return value, or the exception raised
    seconds: float


@dataclass
class Pass:
    ops: list
    work: float  # in the workload's unit of work
    step_stamps: list = field(default_factory=list)  # ns, one array per chain


class Step:
    """One timed call of a pass."""

    def __init__(self, name: str, fn: Callable, *args) -> None:
        self.name, self.fn, self.args = name, fn, args

    def run(self) -> Call:
        # a call that raises is a failed op, not a crashed benchmark
        t0 = time.perf_counter()
        try:
            result = self.fn(*self.args)
        except Exception as e:  # noqa: BLE001 - the boundary that keeps going
            result = e
        return Call(self.name, result, time.perf_counter() - t0)


@dataclass(frozen=True)
class Workload:
    prepare: Callable
    steps: Callable
    check: Callable
    unit: str  # what one unit of work is


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def _raised(name: str, result) -> Op | None:
    if isinstance(result, Exception):
        return Op(name, False, f"raised {type(result).__name__}: {result}")
    return None


def _run_cli(*args) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def _cli_failure(code: int, text: str, err: str) -> str:
    return f"exit {code}, stdout {text[:80]!r}, stderr {err.strip()[:200]!r}"


def _write_config(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


# ---------------------------------------------------------------------------
# tradeoff_grid: `privopt tradeoff` on a dp_hypercube and a linf_maxent grid

TRADEOFF_GRIDS = {
    "dp": {"kind": "dp_hypercube", "d": [3, 8], "n": [1024, 4096],
           "budget": [0.25, 0.5], "reps": 50},
    "linf": {"kind": "linf_maxent", "d": [3, 8], "n": [1024, 4096],
             "budget": [2.0, 4.0], "reps": 50},
}
# the command's defaults: median loss, delta = 0.5 along a one-hot nu,
# L = r = 1, so theta = 0 starts L r delta above the minimum
TRADEOFF_START_GAP = 1.0 * 1.0 * 0.5


def _prepare_tradeoff(seed: int, workdir: Path) -> dict:
    return {"seed": seed,
            "configs": {k: _write_config(workdir, f"tradeoff_{k}", v)
                        for k, v in TRADEOFF_GRIDS.items()}}


def _steps_tradeoff(state: dict) -> list:
    return [Step(grid, _run_cli, "tradeoff", "--config", path, "--seed", state["seed"])
            for grid, path in state["configs"].items()]


def _tradeoff_cells(grid_name: str, result) -> tuple:
    """One op per cell: present once, status ok, risk_mean finite and
    below the starting gap."""
    grid = TRADEOFF_GRIDS[grid_name]
    want = list(itertools.product(grid["d"], grid["n"], grid["budget"]))
    names = [f"{grid_name}/d={d},n={n},budget={b}" for d, n, b in want]
    if isinstance(result, Exception):
        return [_raised(n, result) for n in names], 0
    code, text, err = result
    fp = _digest(text)
    lines = text.splitlines()
    if code != 0 or len(lines) < 2 or lines[0] != f"# schema={cli.TRADEOFF_SCHEMA}":
        return [Op(n, False, _cli_failure(code, text, err), fp) for n in names], 0
    header = lines[1].split(",")
    rows = {}
    for line in lines[2:]:
        if not line.startswith("#"):
            row = dict(zip(header, line.split(",")))
            rows.setdefault((int(row["d"]), int(row["n"]), float(row["budget"])), []).append(row)
    ops, steps = [], 0
    for name, key in zip(names, want):
        got = rows.get(key, [])
        if len(got) != 1:
            ops.append(Op(name, False, f"{len(got)} rows for this cell", fp))
            continue
        risk = float(got[0]["risk_mean"])
        ok = (got[0]["status"] == "ok" and math.isfinite(risk)
              and risk < TRADEOFF_START_GAP)
        if ok:
            steps += int(got[0]["reps"]) * key[1]
        ops.append(Op(name, ok, f"status {got[0]['status']}, risk_mean {risk!r}, "
                                f"start gap {TRADEOFF_START_GAP!r}", fp))
    return ops, steps


def _check_tradeoff(state: dict, calls: list) -> Pass:
    ops, steps = [], 0
    for call in calls:
        cell_ops, cell_steps = _tradeoff_cells(call.name, call.result)
        ops += cell_ops
        steps += cell_steps
    return Pass(ops, steps)


# ---------------------------------------------------------------------------
# stream_chain: single library chains through the public protocol API

STREAM_D, STREAM_N, STREAM_DELTA = 4, 16384, 0.5


def _spec(loss: str, dist: str, ball_p: float):
    nu = (1,) + (0,) * (STREAM_D - 1)
    return losses.RiskSpec(loss=losses.make_loss(loss, L=1.0, r=1.0),
                           data=losses.DataDist(dist, STREAM_D, STREAM_DELTA, nu),
                           domain=NormBall(ball_p, 1.0))


def _chain(name, spec, channel, method, stream, seed):
    cfg = optimizers.OptimizerConfig(method, spec.domain, STREAM_D, STREAM_N,
                                     grad_bound=channel.target.radius)
    return {"name": name, "spec": spec, "channel": channel, "method": method,
            "stream": stream, "config": cfg, "seed": seed}


def _prepare_stream(seed: int, workdir: Path) -> dict:
    mk = channels.make_channel
    median = _spec("median", "cube_bernoulli", 1)
    population = [
        ("dp_hypercube", median, mk("dp_hypercube", STREAM_D, L=1.0, eps=1.0),
         "mirror_descent_l1"),
        ("linf_maxent", median, mk("linf_maxent", STREAM_D, L=1.0, M=4.0),
         "mirror_descent_l1"),
        ("l1_maxent", _spec("hinge", "coord_basis", 1),
         mk("l1_maxent", STREAM_D, L=1.0, M=4.0), "mirror_descent_l1"),
        ("dp_l2_sampler", _spec("hinge", "coord_basis", 2),
         mk("dp_l2_sampler", STREAM_D, L=1.0, eps=1.0), "sgd_l2"),
    ]
    chains = []
    for i, (name, spec, ch, method) in enumerate(population):
        stream = protocol.PrivateGradStream.from_population(
            spec.data, spec.loss, ch, rng=np.random.SeedSequence([seed, i]))
        chains.append(_chain(name, spec, ch, method, stream, [seed, i]))
    i = len(population)
    owners_ch = mk("dp_hypercube", STREAM_D, L=1.0, eps=1.0)
    data = losses.sample_datum(median.data, np.random.default_rng([seed, i]),
                               size=STREAM_N)
    stream = protocol.PrivateGradStream.from_data(
        data, median.loss, owners_ch, rng=np.random.SeedSequence([seed, i, 1]))
    chains.append(_chain("single_pass_owners", median, owners_ch,
                         "mirror_descent_l1", stream, [seed, i]))
    return {"seed": seed, "chains": chains, "stamps": None}


def _stamped(oracle, stamps: list):
    """The benchmark's oracle wrapper: one timestamp per oracle entry."""
    clock, append = time.perf_counter_ns, stamps.append

    def wrapped(theta, rng):
        append(clock())
        return oracle(theta, rng)

    return wrapped


def _run_chain(chain, stamps):
    oracle = protocol.as_grad_oracle(chain["stream"])
    if stamps is not None:
        stamps.append([])
        oracle = _stamped(oracle, stamps[-1])
    method = getattr(optimizers, chain["method"])
    run = method(oracle, chain["config"], np.random.SeedSequence(chain["seed"]))
    return np.asarray(run.averaged, dtype=float)


def _steps_stream(state: dict) -> list:
    """state["stamps"], when a list, collects the oracle timestamps."""
    out = [Step(c["name"], _run_chain, c, state["stamps"]) for c in state["chains"]]
    out.append(Step("single_pass_owners/audit", protocol.audit_leakage,
                    state["chains"][-1]["stream"]))
    return out


def _rate(cfg) -> float:
    # the shape of the expected-excess bound: mirror descent r G
    # sqrt(2 log 2d / n) on the l1 ball, projected SGD r G / sqrt(n) on l2
    r, g, n = cfg.domain.radius, cfg.grad_bound, cfg.steps
    if cfg.method == "mirror_descent_l1":
        return r * g * math.sqrt(2.0 * math.log(2 * cfg.dim) / n)
    return r * g / math.sqrt(n)


def _check_chain(chain, avg: np.ndarray) -> Op:
    spec = chain["spec"]
    fp = _digest(avg.tobytes())
    p, r = spec.domain.p, spec.domain.radius
    norm = float(np.abs(avg).sum()) if p == 1 else float(np.sqrt(avg @ avg))
    if not (np.all(np.isfinite(avg)) and norm <= r * (1.0 + 1e-9)):
        return Op(chain["name"], False, f"averaged iterate has l{p} norm {norm!r} > {r}", fp)
    excess = losses.risk_value(spec, avg) - losses.risk_minimizer(spec).value
    bound = RATE_MULTIPLE * _rate(chain["config"])
    return Op(chain["name"], -1e-12 <= excess <= bound,
              f"excess risk {excess!r}, {RATE_MULTIPLE} x rate {bound!r}", fp)


def _check_audit(name: str, chain, report: dict) -> Op:
    owners = report.get("owners", [])
    cap = math.exp(chain["channel"].privacy_param) * DP_RATIO_SLACK
    ok = (report.get("n_owners") == STREAM_N and len(owners) == STREAM_N
          and chain["stream"].exhausted()
          and all(o.get("dp_ratio_verified") is True and o["dp_ratio_max"] <= cap
                  for o in owners))
    return Op(name, ok, f"n_owners {report.get('n_owners')!r}",
              _digest(json.dumps(report, sort_keys=True)))


def _check_stream(state: dict, calls: list) -> Pass:
    ops = [_raised(c.name, c.result) or _check_chain(chain, c.result)
           for chain, c in zip(state["chains"], calls)]
    audit = calls[-1]
    ops.append(_raised(audit.name, audit.result)
               or _check_audit(audit.name, state["chains"][-1], audit.result))
    # int64 arrays: held lists of ints would grow peak RSS with the pass count
    stamps = [np.asarray(s, dtype=np.int64) for s in state["stamps"] or []]
    return Pass(ops, len(state["chains"]) * STREAM_N, stamps)


# ---------------------------------------------------------------------------
# certify_mc: `privopt certify` on pinned channels, plus `certify --check`

CERTIFY_CONFIGS = {
    # grouped jackknife over 2^d x 2^d cells
    "linf_maxent_d7": {"kind": "linf_maxent", "d": 7, "M": 4.0, "n_mc": 10**5},
    "dp_hypercube_d7": {"kind": "dp_hypercube", "d": 7, "eps": 0.5, "n_mc": 10**5},
    # bulk sampler draws over few cells
    "dp_hypercube_d4": {"kind": "dp_hypercube", "d": 4, "eps": 1.0, "n_mc": 2 * 10**5},
    "l1_maxent_d16": {"kind": "l1_maxent", "d": 16, "M": 8.0, "n_mc": 2 * 10**5},
    "dp_l2_sampler_d10": {"kind": "dp_l2_sampler", "d": 10, "eps": 1.0,
                          "n_mc": 2 * 10**5},
}


def _prepare_certify(seed: int, workdir: Path) -> dict:
    return {"seed": seed,
            "configs": {k: _write_config(workdir, f"certify_{k}", v)
                        for k, v in CERTIFY_CONFIGS.items()}}


def _steps_certify(state: dict) -> list:
    seed = state["seed"]
    out = [Step(name, _run_cli, "certify", "--config", path, "--seed", seed)
           for name, path in state["configs"].items()]
    out.append(Step("check", _run_cli, "certify", "--check", "--seed", seed))
    return out


def _check_certificate(name: str, code: int, text: str, err: str) -> Op:
    fp = _digest(text)
    if code != 0:
        return Op(name, False, _cli_failure(code, text, err), fp)
    doc = json.loads(text)
    if name == "check":
        checks = doc.get("checks", [])
        return Op(name, bool(checks) and all(c.get("ok") is True for c in checks),
                  f"{len(checks)} self-checks", fp)
    cfg = CERTIFY_CONFIGS[name]
    problems = []
    if doc.get("schema") != cli.CERTIFY_SCHEMA:
        problems.append(f"schema {doc.get('schema')!r}")
    if doc.get("violations") != []:
        problems.append(f"violations {doc.get('violations')!r}")
    if cfg["kind"] == "dp_hypercube":  # the finite dp kind reports its ratio
        ratio = (doc.get("report") or {}).get("dp_ratio_max")
        if ratio is None or not ratio <= math.exp(cfg["eps"]) * DP_RATIO_SLACK:
            problems.append(f"dp ratio {ratio!r} over exp({cfg['eps']})")
    return Op(name, not problems, "; ".join(problems) or "ok", fp)


def _check_certify(state: dict, calls: list) -> Pass:
    ops = [_raised(c.name, c.result) or _check_certificate(c.name, *c.result)
           for c in calls]
    return Pass(ops, sum(c["n_mc"] for c in CERTIFY_CONFIGS.values()))


# ---------------------------------------------------------------------------
# lp_exact: the dense exact simplex, then `privopt bounds --check`

LP_POINTS = ((3, 1.0), (3, 2.0), (4, 1.0), (4, 1.784), (5, 0.5))


def eps_star(d: int) -> float:
    """The paper's k = 0 threshold log((K + 2^d - C) / (K - C)), computed
    from its definition rather than taken from the library."""
    half = (d + 1) // 2
    C = sum(math.comb(d, i) for i in range(half))
    K = d * math.comb(d - 1, half - 1)
    return math.inf if K == C else math.log((K + 2**d - C) / (K - C))


def _corners(d: int) -> np.ndarray:
    # row i is the binary expansion of i, most significant bit first, 0 -> -1
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


def _prepare_lp(seed: int, workdir: Path) -> dict:
    # the seed picks the corner input; the optimum is its signed permutation
    rng = np.random.default_rng(seed)
    points = [(d, eps, tuple(rng.choice((-1.0, 1.0), size=d).tolist()))
              for d, eps in LP_POINTS]
    return {"seed": seed, "points": points}


def _solve(d: int, eps: float, x: tuple):
    return lp_oracle.solve_dp_lp(lp_oracle.DpLpInstance(d, eps), x=x)


def _steps_lp(state: dict) -> list:
    out = [Step(f"lp/d={d},eps={eps}", _solve, d, eps, x)
           for d, eps, x in state["points"]]
    out.append(Step("bounds", _run_cli, "bounds", "--check", "--seed", state["seed"]))
    return out


def _check_solution(name: str, d: int, eps: float, x: tuple, sol) -> Op:
    q = np.asarray(sol.q, dtype=float)
    problems = []
    if abs(q.sum() - 1.0) > 1e-9:
        problems.append(f"pmf sums to {q.sum()!r}")
    if not (q.min() > 0.0 and q.max() / q.min() <= math.exp(eps) * DP_RATIO_SLACK):
        problems.append(f"pmf max/min over exp({eps}): {q.max()!r} / {q.min()!r}")
    if np.max(np.abs(_corners(d).T @ q - sol.t_star * np.asarray(x))) > 1e-9:
        problems.append("pmf mean is not t* x")
    if eps < eps_star(d):
        t = channels.two_level_constants(d, eps)["t"]
        if abs(sol.t_star - t) > 1e-8:
            problems.append(f"t* {sol.t_star!r} vs two-level t {t!r}")
    return Op(name, not problems, "; ".join(problems) or f"t* {sol.t_star!r}",
              _digest(q.tobytes(), repr(sol.t_star)))


def _check_bounds(name: str, code: int, text: str, err: str) -> Op:
    lines = text.splitlines()
    ok = code == 0 and bool(lines) and lines[0] == f"# schema={cli.BOUNDS_SCHEMA}"
    return Op(name, ok, _cli_failure(code, text, err) if not ok else f"{len(lines)} lines",
              _digest(text))


def _check_lp(state: dict, calls: list) -> Pass:
    ops = [_raised(c.name, c.result) or _check_solution(c.name, d, eps, x, c.result)
           for (d, eps, x), c in zip(state["points"], calls)]
    bounds = calls[-1]
    ops.append(_raised(bounds.name, bounds.result) or _check_bounds(bounds.name, *bounds.result))
    return Pass(ops, len(state["points"]))


# ---------------------------------------------------------------------------

WORKLOADS = {
    "tradeoff_grid": Workload(_prepare_tradeoff, _steps_tradeoff, _check_tradeoff,
                              "chain steps (reps x n over private cells)"),
    "stream_chain": Workload(_prepare_stream, _steps_stream, _check_stream,
                             "chain steps (oracle queries)"),
    "certify_mc": Workload(_prepare_certify, _steps_certify, _check_certify,
                           "Monte-Carlo draws (n_mc summed over certificates)"),
    "lp_exact": Workload(_prepare_lp, _steps_lp, _check_lp, "exact LP solves"),
}
