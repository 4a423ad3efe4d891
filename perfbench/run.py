"""privopt benchmark: one pinned workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The workload is prepared and run in passes, at the
same seed, until ``--seconds`` have gone by (at least two passes).  Every
pass is checked, and every repeat must reproduce the first pass's outputs
byte for byte.  ``setup_s`` is timed separately, over fresh interpreters.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass,
then traced passes, and prints the per-layer metrics (see spans.py).  The
last line of stdout is the JSON result; the lines above it, and the file
written under ``perfbench/out/``, add the environment record and the
figures that have no gate.  See perfbench/README.md.
"""

import os

# pin BLAS to one thread before numpy loads, here and in every child
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("tradeoff_grid", "stream_chain", "certify_mc", "lp_exact")
SETUP_PROBES = 7
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120

# Timings are reported in reference seconds.  On a shared host the core's
# speed swings by up to 1.6x, for seconds to minutes at a time.  So the
# runner times a fixed reference unit (best of REF_BURST) before and after
# every timed call, and scales the call's time by REF_NOMINAL_S over the
# mean of the two: REF_NOMINAL_S is the unit's best time on the machine
# the bounds were set on (a 2-core x86_64 VM, Python 3.11.7, numpy 2.4.6).
# The raw seconds are in the result file.
REF_BURST = 3
REF_NOMINAL_S = 0.022

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class PassRecord:
    wall_s: float  # raw seconds in the timed calls
    call_s: dict  # call name -> raw seconds
    call_ref_s: dict  # call name -> mean reference time around it (untraced)
    result: object  # workloads.Pass
    traced: bool


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import privopt from this checkout's src/, and nothing else."""
    init = SRC / "privopt" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no privopt package at {init}")
    sys.path.insert(0, str(SRC))
    import privopt

    if Path(privopt.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported privopt from {privopt.__file__}, not {init}")


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import mpmath

    h = hashlib.sha256()
    for path in sorted((SRC / "privopt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def reference_unit() -> float:
    """Seconds for one fixed unit of work that belongs to no privopt layer:
    an interpreter loop, Fraction arithmetic, small numpy calls and one
    bulk numpy draw, the mix the workloads run."""
    t0 = time.perf_counter()
    s = 0
    for i in range(40_000):
        s += i * i % 7
    f = Fraction(1, 3)
    for i in range(1_500):
        f = (f * 3 + Fraction(1, i + 2)) / 4
    a = np.ones(4)
    for _ in range(2_000):
        a = np.where(a > 0, a, -a) * 1.0
    x = np.random.default_rng(0).random((40_000, 8))
    np.unique(np.round(x.sum(axis=1), 1))
    return time.perf_counter() - t0


def reference_s() -> float:
    return min(reference_unit() for _ in range(REF_BURST))


def bracketed(run_one, n: int, with_reference: bool) -> tuple:
    """Run run_one(i) for i < n; with_reference times the reference unit
    before the first and after each, and pairs each result with the mean
    reference time around it."""
    refs = [reference_s()] if with_reference else []
    out = []
    for i in range(n):
        out.append(run_one(i))
        if with_reference:
            refs.append(reference_s())
    return out, [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def measure_setup(args) -> tuple:
    """Seconds from spawning a fresh interpreter to the end of prepare(),
    one per probe, and the reference time around each probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]

    def probe(_):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"error: setup probe exited {code} after {line!r}")
        return t1 - t0

    return bracketed(probe, SETUP_PROBES, True)


def one_pass(wl, seed: int, tracer, run: int) -> PassRecord:
    if tracer is None:
        state = wl.prepare(seed, OUT)
        if "stamps" in state:
            state["stamps"] = []  # untraced passes time each oracle step
        steps = wl.steps(state)
        calls, refs = bracketed(lambda i: steps[i].run(), len(steps), True)
    else:
        tracer.run = run
        state = tracer.call("bench.setup", wl.prepare, seed, OUT)
        steps = wl.steps(state)
        calls, refs = tracer.call("bench.body", bracketed,
                                  lambda i: steps[i].run(), len(steps), False)
    return PassRecord(sum(c.seconds for c in calls), {c.name: c.seconds for c in calls},
                      {c.name: r for c, r in zip(calls, refs)}, wl.check(state, calls),
                      tracer is not None)


def check_repeats(passes: list) -> None:
    """Fail every op whose output differs from the first pass's."""
    first = {op.name: op.fingerprint for op in passes[0].result.ops}
    for rec in passes[1:]:
        for op in rec.result.ops:
            if op.fingerprint != first.get(op.name):
                op.ok = False
                op.detail += "; output differs from the first pass at this seed"


def step_percentiles(passes: list) -> dict:
    p50, p99, counts = [], [], []
    for rec in passes:
        stamps = rec.result.step_stamps
        if not stamps:
            continue
        gaps = np.concatenate([np.diff(s) for s in stamps])
        p50.append(float(np.percentile(gaps, 50)) / 1e3)
        p99.append(float(np.percentile(gaps, 99)) / 1e3)
        counts.append(int(gaps.size))
    if not counts:
        return {}
    return {"step_us_p50": statistics.median(p50), "step_us_p99": statistics.median(p99),
            "step_samples_per_pass": counts[0]}


def end_to_end(passes: list, setup: list, setup_refs: list) -> dict:
    # each call's median over passes of its reference-scaled time, summed
    wall = sum(statistics.median(r.call_s[n] * REF_NOMINAL_S / r.call_ref_s[n]
                                 for r in passes)
               for n in passes[0].call_s)
    return {
        "setup_s": statistics.median(t * REF_NOMINAL_S / r for t, r in zip(setup, setup_refs)),
        "wall_s": wall,
        "work_per_s": passes[0].result.work / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, passes: list) -> dict:
    per_pass = [spans.layer_metrics(tracer, i) for i, r in enumerate(passes) if r.traced]
    merged = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    untraced = statistics.median(r.wall_s for r in passes if not r.traced)
    merged["trace.untraced_wall_s"] = untraced
    merged["trace.overhead_s"] = merged["trace.wall_s"] - untraced
    return merged


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        wl.prepare(args.seed, OUT)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    env = environment()
    setup, setup_refs = measure_setup(args)
    passes, tracer = [], None
    begin = time.perf_counter()
    while True:
        if args.trace and passes and tracer is None:
            tracer = spans.Tracer()
            tracer.install()
        passes.append(one_pass(wl, args.seed, tracer, len(passes)))
        elapsed = time.perf_counter() - begin
        # stop before a pass that would end past --seconds
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    check_repeats(passes)

    ops = [op for rec in passes for op in rec.result.ops]
    failed = [op for op in ops if not op.ok]
    extras = {"passes": len(passes), "work_unit": wl.unit,
              "work_per_pass": passes[0].result.work, "failed_frac": len(failed) / len(ops),
              "raw_setup_s": setup, "setup_reference_s": setup_refs,
              "raw_call_s": [r.call_s for r in passes],
              "call_reference_s": [r.call_ref_s for r in passes]}
    correct = not failed
    if args.trace:
        metrics = per_layer(tracer, passes)
        units = spans.LAYER_UNITS
        extras["tracing_missing_targets"] = tracer.missing
        # the self times of the body's spans must add up to its wall time
        adds_up = abs(metrics["trace.self_sum_s"] - metrics["trace.wall_s"]) <= 1e-6
        extras["self_times_add_up"] = adds_up
        correct = correct and adds_up
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = end_to_end(passes, setup, setup_refs)
        metrics.update(step_percentiles(passes))
        units = END_TO_END_UNITS
    reported = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "metrics": metrics, "extras": extras,
              "failures": [f"{op.name}: {op.detail}" for op in failed]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print(f"# privopt benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# work: {extras['work_per_pass']} {wl.unit} per pass")
    for k, v in sorted(metrics.items()):
        print(f"# {k} = {v:.6g}{'' if k in units else '  (not gated)'}")
    print(f"# failed_frac = {extras['failed_frac']:.6g} ({len(failed)}/{len(ops)})")
    for line in record["failures"][:20]:
        print(f"# FAILED {line}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
