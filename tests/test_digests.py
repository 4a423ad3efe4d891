"""Byte-identity of pinned outputs across changes: a table of sha256 digests.

`digests.json` beside this file maps each run below to the sha256 of its
output: the stdout of a CLI command, or the bytes of a chain's averaged
iterate.  The runs are

  tradeoff      both benchmark grids (dp_hypercube, linf_maxent) at seeds 1, 7
  chain         five d = 4, n = 16384 chains (four population streams and one
                owner list) at seeds 1, 7, 11, each through as_grad_oracle
                (population chains step in windows) and through a plain
                wrapper without `ahead` (every chain steps per query)
  adversarial   an owner list whose guessed answers nearly all miss: 20000
                owners uniform on [-0.02, 0.02]^8 under the median loss,
                dp_hypercube eps = 0.5, mirror descent, seed 1
  certify       five pinned channels at seeds 1, 7, and `certify --check`
  bounds        `bounds --check`
  bias-demo     `bias-demo --seed 1`

The table records the environment it was made in: the numpy version and
the SIMD targets numpy dispatches to on this CPU, since ufunc bits can
differ between builds and targets.  In another environment the test is
skipped, with both keys in the reason; it never passes without comparing.

A change that alters an output on purpose regenerates the table in the
same change and names each changed row and why:

    PYTHONPATH=src python tests/test_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from privopt import channels, cli, losses, optimizers, protocol
from privopt.geometry import NormBall

TABLE = Path(__file__).with_name("digests.json")

TRADEOFF_GRIDS = {
    "dp": {"kind": "dp_hypercube", "d": [3, 8], "n": [1024, 4096],
           "budget": [0.25, 0.5], "reps": 50},
    "linf": {"kind": "linf_maxent", "d": [3, 8], "n": [1024, 4096],
             "budget": [2.0, 4.0], "reps": 50},
}
CERTIFY_CONFIGS = {
    "linf_maxent_d7": {"kind": "linf_maxent", "d": 7, "M": 4.0, "n_mc": 10**5},
    "dp_hypercube_d7": {"kind": "dp_hypercube", "d": 7, "eps": 0.5, "n_mc": 10**5},
    "dp_hypercube_d4": {"kind": "dp_hypercube", "d": 4, "eps": 1.0, "n_mc": 2 * 10**5},
    "l1_maxent_d16": {"kind": "l1_maxent", "d": 16, "M": 8.0, "n_mc": 2 * 10**5},
    "dp_l2_sampler_d10": {"kind": "dp_l2_sampler", "d": 10, "eps": 1.0,
                          "n_mc": 2 * 10**5},
}
CHAIN_D, CHAIN_N, CHAIN_DELTA = 4, 16384, 0.5
CHAIN_NAMES = ("dp_hypercube", "linf_maxent", "l1_maxent", "dp_l2_sampler",
               "single_pass_owners")
ADVERSARIAL_D, ADVERSARIAL_N, ADVERSARIAL_SPREAD = 8, 20000, 0.02


def environment() -> dict:
    from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                                __cpu_features__)
    return {"numpy": np.__version__, "simd_baseline": list(__cpu_baseline__),
            "simd_dispatched": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(tmp: Path, name: str, *args, config: dict | None = None) -> bytes:
    argv = [str(a) for a in args]
    if config is not None:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(config, sort_keys=True))
        argv += ["--config", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def _spec(loss: str, dist: str, ball_p: float) -> losses.RiskSpec:
    nu = (1,) + (0,) * (CHAIN_D - 1)
    return losses.RiskSpec(loss=losses.make_loss(loss, L=1.0, r=1.0),
                           data=losses.DataDist(dist, CHAIN_D, CHAIN_DELTA, nu),
                           domain=NormBall(ball_p, 1.0))


def _chain(i: int, seed: int, plain: bool) -> bytes:
    """Chain i of CHAIN_NAMES at this seed, freshly built; its averaged
    iterate's bytes."""
    mk = channels.make_channel
    median = _spec("median", "cube_bernoulli", 1)
    spec, ch, method = [
        (median, mk("dp_hypercube", CHAIN_D, L=1.0, eps=1.0), "mirror_descent_l1"),
        (median, mk("linf_maxent", CHAIN_D, L=1.0, M=4.0), "mirror_descent_l1"),
        (_spec("hinge", "coord_basis", 1), mk("l1_maxent", CHAIN_D, L=1.0, M=4.0),
         "mirror_descent_l1"),
        (_spec("hinge", "coord_basis", 2), mk("dp_l2_sampler", CHAIN_D, L=1.0, eps=1.0),
         "sgd_l2"),
        (median, mk("dp_hypercube", CHAIN_D, L=1.0, eps=1.0), "mirror_descent_l1"),
    ][i]
    if i < 4:
        stream = protocol.PrivateGradStream.from_population(
            spec.data, spec.loss, ch, rng=np.random.SeedSequence([seed, i]))
    else:
        data = losses.sample_datum(spec.data, np.random.default_rng([seed, i]), size=CHAIN_N)
        stream = protocol.PrivateGradStream.from_data(
            data, spec.loss, ch, rng=np.random.SeedSequence([seed, i, 1]))
    oracle = protocol.as_grad_oracle(stream)
    if plain:
        inner = oracle

        def oracle(theta, rng):
            return inner(theta, rng)

    cfg = optimizers.OptimizerConfig(method, spec.domain, CHAIN_D, CHAIN_N,
                                     grad_bound=ch.target.radius)
    run = getattr(optimizers, method)(oracle, cfg, np.random.SeedSequence([seed, i]))
    return np.asarray(run.averaged, dtype=float).tobytes()


def _adversarial_owners(seed: int) -> bytes:
    """The adversarial owner list's chain at this seed: thetas near 0 move
    the median loss's sign(theta - x) on most owners between the query that
    refills a block and the later ones; its averaged iterate's bytes."""
    d = ADVERSARIAL_D
    data = np.random.default_rng([seed, 0]).uniform(
        -ADVERSARIAL_SPREAD, ADVERSARIAL_SPREAD, (ADVERSARIAL_N, d))
    ch = channels.make_channel("dp_hypercube", d, L=1.0, eps=0.5)
    stream = protocol.PrivateGradStream.from_data(
        data, losses.make_loss("median", L=1.0, r=1.0), ch,
        rng=np.random.SeedSequence([seed, 1]))
    cfg = optimizers.OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), d, ADVERSARIAL_N,
                                     grad_bound=ch.target.radius)
    run = optimizers.mirror_descent_l1(protocol.as_grad_oracle(stream), cfg,
                                       np.random.SeedSequence([seed, 2]))
    return np.asarray(run.averaged, dtype=float).tobytes()


def compute(tmp: Path) -> dict:
    """Every run's digest, keyed by the run's name."""
    out = {}
    for seed in (1, 7):
        for grid, cfg in TRADEOFF_GRIDS.items():
            out[f"tradeoff/{grid}/seed{seed}"] = _cli(tmp, grid, "tradeoff", "--seed", seed,
                                                      config=cfg)
        for name, cfg in CERTIFY_CONFIGS.items():
            out[f"certify/{name}/seed{seed}"] = _cli(tmp, name, "certify", "--seed", seed,
                                                     config=cfg)
    out["certify/check"] = _cli(tmp, "", "certify", "--check", "--seed", 1)
    out["bounds/check"] = _cli(tmp, "", "bounds", "--check", "--seed", 1)
    out["bias-demo/seed1"] = _cli(tmp, "", "bias-demo", "--seed", 1)
    out["chain/adversarial_owners/seed1"] = _adversarial_owners(1)
    for seed in (1, 7, 11):
        for i, name in enumerate(CHAIN_NAMES):
            for plain in (False, True):
                path = "plain" if plain else "oracle"
                out[f"chain/{name}/{path}/seed{seed}"] = _chain(i, seed, plain)
    return {k: _sha(v) for k, v in sorted(out.items())}


def test_outputs_match_the_digest_table(tmp_path):
    table = json.loads(TABLE.read_text())
    here = environment()
    if table["environment"] != here:
        pytest.skip(f"digests were made in {table['environment']}, not {here}; "
                    f"regenerate with `python {Path(__file__).name}` to compare here")
    got = compute(tmp_path)
    want = table["digests"]
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not changed, f"outputs differ from {TABLE.name}: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"environment": environment(), "digests": compute(Path(tmp))}
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else TABLE
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['digests'])} digests to {path}")
