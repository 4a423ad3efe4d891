"""Span tracing of privopt's layers from outside the package.

``Tracer.install`` rebinds the public entry points of each module (and
three private names the ``tradeoff`` command still uses) with wrappers
that record one span per call: name, start, end, parent, workload-run id
and one integer attribute (rows, chain steps, dimension).  Each name is
rebound wherever a privopt module binds it, so ``cli.risk_value`` and
``losses.risk_value`` both report.  Count-only wrappers record work that
repeats exactly (redraw rows, plug-in evaluations, simplex pivots).

Spans live in one flat int64 buffer, six slots per span, and are written
once, at the end of the run.  A span's self time is its duration minus the
durations of its direct children; calls are strictly nested, so the self
times under a root add up to the root's duration.
"""

from __future__ import annotations

import collections
import functools
import sys
import time
from array import array

import numpy as np

# slots of one span in the buffer
_NAME, _PARENT, _ATTR, _RUN, _START, _END = range(6)
_WIDTH = 6


def _arg(a, k, pos, key, default=None):
    return k[key] if key in k else (a[pos] if len(a) > pos else default)


def _sample_rows(a, k):  # Channel.sample(self, x, rng=None, size=None)
    size = _arg(a, k, 3, "size")
    return 1 if size is None else int(size)


def _config_steps(a, k):  # optimizer(grad_oracle, config, rng, ...)
    return int(_arg(a, k, 1, "config").steps)


# (module, attribute, span name, attribute extractor); a dotted attribute
# names a method or classmethod of a class in that module
SPANS = (
    ("channels", "Channel.sample", "channels.sample", _sample_rows),
    ("channels", "make_channel", "channels.make_channel", None),
    ("channels", "dp_ratio_max", "channels.dp_ratio_max", None),
    ("channels", "_uniform_halfcube", "channels.halfcube",
     lambda a, k: int(_arg(a, k, 1, "n"))),
    ("cli", "_vec_dp_hypercube", "channels.batched", lambda a, k: int(a[0].shape[0])),
    ("losses", "sample_datum", "losses.sample_datum", None),
    ("losses", "subgrad", "losses.subgrad", None),
    ("losses", "risk_value", "losses.risk_value", None),
    ("protocol", "query", "protocol.query", None),
    ("protocol", "PrivateGradStream.from_data", "protocol.from_data", None),
    ("protocol", "audit_leakage", "protocol.audit_leakage", None),
    ("optimizers", "mirror_descent_l1", "optimizers.step", _config_steps),
    ("optimizers", "sgd_l2", "optimizers.step", _config_steps),
    ("cli", "_batched_mirror_descent", "optimizers.batched",
     lambda a, k: int(_arg(a, k, 2, "steps")) * int(_arg(a, k, 4, "reps"))),
    ("geometry", "project_l2_ball", "geometry.project_l2_ball", None),
    ("information", "certify_channel", "information.certify", None),
    ("information", "mutual_information_exact", "information.mi_exact", None),
    ("information", "mi_monte_carlo", "information.mi_mc", None),
    ("lp_oracle", "solve_dp_lp", "lp_oracle.solve", lambda a, k: int(_arg(a, k, 0, "inst").d)),
    ("minimax", "lower_bound", "minimax", None),
    ("minimax", "upper_bound", "minimax", None),
    ("minimax", "lemma8_constants", "minimax", None),
    ("minimax", "default_delta", "minimax", None),
    ("minimax", "t5_middle_term", "minimax", None),
    ("cli", "main", "cli", None),
)

# (module, attribute, counter name, amount extractor, only inside span)
COUNTERS = (
    ("channels", "_rademacher", "channels.halfcube.draw_rows",
     lambda a, k: int(_arg(a, k, 1, "shape")[0]), "channels.halfcube"),
    ("channels", "two_level_constants", "channels.calibrate.calls", None, None),
    ("information", "_plugin_mi", "information.plugin_mi.calls", None, None),
    ("lp_oracle", "_pivot", "lp_oracle.pivots", None, None),
)

LAYER_UNITS = {
    "channels.sample.self_us_per_call": "us",
    "channels.sample.ns_per_row": "ns",
    "channels.sample.rows": "count",
    "channels.batched.self_ns_per_row": "ns",
    "channels.halfcube.draws_per_row": "ratio",
    "channels.halfcube.self_s": "s",
    "channels.make_channel.self_us": "us",
    "channels.dp_ratio_max.self_s": "s",
    "channels.calibrate.calls": "count",
    "losses.sample_datum.self_us_per_call": "us",
    "losses.subgrad.self_us_per_call": "us",
    "losses.risk_value.self_s": "s",
    "protocol.query.self_us_per_call": "us",
    "protocol.query.calls": "count",
    "protocol.from_data.self_s": "s",
    "protocol.audit_leakage.self_s": "s",
    "optimizers.step.self_us": "us",
    "optimizers.batched.self_ns_per_chain_step": "ns",
    "geometry.project_l2_ball.self_us_per_call": "us",
    "information.certify.self_s": "s",
    "information.mi_exact.self_s": "s",
    "information.mi_mc.self_s": "s",
    "information.mi_mc.cells": "count",
    "information.plugin_mi.calls": "count",
    "lp_oracle.solve.self_s.d3": "s",
    "lp_oracle.solve.self_s.d4": "s",
    "lp_oracle.solve.self_s.d5": "s",
    "lp_oracle.pivots": "count",
    "minimax.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.buf = array("q")
        self.stack = [-1]  # offsets of open spans; -1 is "no parent"
        self.names: list = []
        self.codes: dict = {}
        self.run = 0
        self.rooted = False
        self.counts = collections.defaultdict(collections.Counter)  # run -> name -> n
        self.missing: list = []  # targets the installed package does not have

    def code(self, name: str) -> int:
        if name not in self.codes:
            self.codes[name] = len(self.names)
            self.names.append(name)
        return self.codes[name]

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, attr=None):
        code, buf, stack, clock = self.code(name), self.buf, self.stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **k):
            base = len(buf)
            buf.extend((code, stack[-1], attr(a, k) if attr else 0, tracer.run, 0, 0))
            stack.append(base)
            t0 = clock()
            try:
                return fn(*a, **k)
            finally:
                buf[base + _END] = clock()
                buf[base + _START] = t0
                stack.pop()

        return traced

    def counter(self, name: str, fn, amount=None, inside=None):
        buf, stack, tracer = self.buf, self.stack, self
        inside_code = None if inside is None else self.code(inside)

        @functools.wraps(fn)
        def counted(*a, **k):
            top = stack[-1]
            if tracer.rooted and (inside_code is None or buf[top + _NAME] == inside_code):
                tracer.counts[tracer.run][name] += amount(a, k) if amount else 1
            return fn(*a, **k)

        return counted

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a root span; counters count only under one."""
        self.rooted = True
        try:
            return self.span(name, fn)(*args)
        finally:
            self.rooted = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every loaded privopt module."""
        for mod_name, attr_path, name, extract in SPANS:
            self._rebind(mod_name, attr_path,
                         lambda fn, name=name, extract=extract: self.span(name, fn, extract))
        for mod_name, attr_path, name, amount, inside in COUNTERS:
            self._rebind(mod_name, attr_path,
                         lambda fn, name=name, amount=amount, inside=inside:
                         self.counter(name, fn, amount, inside))

    def _rebind(self, mod_name: str, attr_path: str, make) -> None:
        module = sys.modules.get(f"privopt.{mod_name}")
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            self.missing.append(f"{mod_name}.{attr_path}")
            return
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
            return
        if owner_name:
            setattr(owner, attr, make(raw))
            return
        wrapped = make(raw)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "privopt" and not name.startswith("privopt."):
                continue
            for key, val in list(vars(mod).items()):
                if val is raw:
                    setattr(mod, key, wrapped)

    # -- analysis ----------------------------------------------------------

    def table(self) -> np.ndarray:
        # a copy: a live view would stop the buffer from growing
        return np.frombuffer(self.buf, dtype=np.int64).reshape(-1, _WIDTH).copy()

    def self_times(self, t: np.ndarray) -> np.ndarray:
        """Duration minus the durations of direct children, in ns."""
        dur = (t[:, _END] - t[:, _START]).astype(np.float64)
        has_parent = t[:, _PARENT] >= 0
        child = np.bincount(t[has_parent, _PARENT] // _WIDTH,
                            weights=dur[has_parent], minlength=len(t))
        return dur - child

    def save(self, path) -> None:
        np.savez(path, spans=self.table(), names=np.array(self.names),
                 columns=np.array(["name", "parent_offset", "attr", "run",
                                   "start_ns", "end_ns"]))


def layer_metrics(tracer: Tracer, run: int) -> dict:
    """Per-layer figures of one traced pass (its setup and its body)."""
    t = tracer.table()
    selfs = tracer.self_times(t)
    dur = (t[:, _END] - t[:, _START]).astype(np.float64)
    counts = tracer.counts[run]

    def inside(roots):
        # calls nest strictly, so a root's descendants are exactly the
        # spans that open and close within its interval
        sel = np.zeros(len(t), bool)
        for i in np.flatnonzero(roots):
            sel |= (t[:, _RUN] == run) & (t[:, _START] >= t[i, _START]) & (
                t[:, _END] <= t[i, _END])
        return sel

    def root(name):
        return (t[:, _RUN] == run) & (t[:, _NAME] == tracer.codes.get(name, -1))

    body = root("bench.body")
    mine = inside(body | root("bench.setup"))  # the output checks stay out

    def rows(name):
        code = tracer.codes.get(name)
        return mine & (t[:, _NAME] == code) if code is not None else np.zeros(len(t), bool)

    def calls(name):
        return int(rows(name).sum())

    def self_ns(name, where=None):
        sel = rows(name) if where is None else rows(name) & where
        return float(selfs[sel].sum())

    def attr(name):
        return float(t[rows(name), _ATTR].sum())

    def per(num, den):
        return num / den if den else 0.0

    bulk = rows("channels.sample") & (t[:, _ATTR] >= 1000)
    mi_mc_calls = calls("information.mi_mc")
    m = {
        "channels.sample.self_us_per_call":
            per(self_ns("channels.sample"), calls("channels.sample")) / 1e3,
        "channels.sample.ns_per_row": per(float(dur[bulk].sum()), float(t[bulk, _ATTR].sum())),
        "channels.sample.rows": attr("channels.sample"),
        "channels.batched.self_ns_per_row":
            per(self_ns("channels.batched"), attr("channels.batched")),
        "channels.halfcube.draws_per_row":
            per(counts["channels.halfcube.draw_rows"], attr("channels.halfcube")),
        "channels.halfcube.self_s": self_ns("channels.halfcube") / 1e9,
        "channels.make_channel.self_us": self_ns("channels.make_channel") / 1e3,
        "channels.dp_ratio_max.self_s": self_ns("channels.dp_ratio_max") / 1e9,
        "channels.calibrate.calls": counts["channels.calibrate.calls"],
        "losses.sample_datum.self_us_per_call":
            per(self_ns("losses.sample_datum"), calls("losses.sample_datum")) / 1e3,
        "losses.subgrad.self_us_per_call":
            per(self_ns("losses.subgrad"), calls("losses.subgrad")) / 1e3,
        "losses.risk_value.self_s": self_ns("losses.risk_value") / 1e9,
        "protocol.query.self_us_per_call":
            per(self_ns("protocol.query"), calls("protocol.query")) / 1e3,
        "protocol.query.calls": calls("protocol.query"),
        "protocol.from_data.self_s": self_ns("protocol.from_data") / 1e9,
        "protocol.audit_leakage.self_s": self_ns("protocol.audit_leakage") / 1e9,
        "optimizers.step.self_us":
            per(self_ns("optimizers.step"), attr("optimizers.step")) / 1e3,
        "optimizers.batched.self_ns_per_chain_step":
            per(self_ns("optimizers.batched"), attr("optimizers.batched")),
        "geometry.project_l2_ball.self_us_per_call":
            per(self_ns("geometry.project_l2_ball"), calls("geometry.project_l2_ball")) / 1e3,
        "information.certify.self_s": self_ns("information.certify") / 1e9,
        "information.mi_exact.self_s": self_ns("information.mi_exact") / 1e9,
        "information.mi_mc.self_s": self_ns("information.mi_mc") / 1e9,
        # mi_monte_carlo evaluates the plug-in once, then once per occupied cell
        "information.mi_mc.cells":
            max(counts["information.plugin_mi.calls"] - mi_mc_calls, 0) if mi_mc_calls else 0,
        "information.plugin_mi.calls": counts["information.plugin_mi.calls"],
    }
    for d in (3, 4, 5):
        m[f"lp_oracle.solve.self_s.d{d}"] = self_ns("lp_oracle.solve", t[:, _ATTR] == d) / 1e9
    m["lp_oracle.pivots"] = counts["lp_oracle.pivots"]
    m["minimax.self_s"] = self_ns("minimax") / 1e9
    m["cli.self_s"] = self_ns("cli") / 1e9
    m["bench.self_s"] = self_ns("bench.body") / 1e9
    m["trace.wall_s"] = float(dur[body].sum()) / 1e9
    m["trace.spans"] = int(mine.sum())
    # the self times of the body root and all its descendants add up to
    # the root's duration
    m["trace.self_sum_s"] = float(selfs[inside(body)].sum()) / 1e9
    return m
