"""CLI surface: exit codes, schemas, determinism, check-mode semantics."""

import json
import math

import numpy as np
import pytest

import privopt.cli as cli
from privopt.information import InfoReport


def _cfg(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _run(args):
    return cli.main(args)


def test_certify_maxent_payload(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"kind": "linf_maxent", "d": 3, "L": 1.0,
                                    "M": 2.0, "n_mc": 20000})
    out = tmp_path / "o.json"
    assert _run(["certify", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "privopt.certify.v1"
    assert doc["violations"] == []
    assert doc["certificate"]["kind"] == "mutual_information"
    assert not doc["certificate"]["non_private"]
    assert doc["report"]["mi_exact_nats"] == pytest.approx(
        doc["report"]["mi_closed_form_nats"], abs=1e-10)
    assert doc["channel"]["kind"] == "linf_maxent"


def test_certify_dp_payload(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"kind": "dp_hypercube", "d": 3, "eps": 1.0,
                                    "n_mc": 20000})
    out = tmp_path / "o.json"
    assert _run(["certify", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certificate"] == {"kind": "differential_privacy", "level": 1.0,
                                  "non_private": False}
    assert doc["report"]["dp_ratio_max"] == pytest.approx(math.e, abs=1e-10)


def test_certify_selfcheck():
    assert _run(["certify", "--check"]) == 0


def test_certify_selfcheck_payload(tmp_path, capsys):
    assert _run(["certify", "--check"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "check" and len(doc["checks"]) == 3
    assert all(c["ok"] for c in doc["checks"])


def test_certify_violation_exits_2(tmp_path, monkeypatch):
    # inject a report contradicting the dp contract: wiring must exit 2
    def fake(ch, rng=None, n_mc=10**5, source=None):
        return InfoReport(None, None, None, 3.0 * math.e, 0.0)

    monkeypatch.setattr(cli, "certify_channel", fake)
    cfg = _cfg(tmp_path, "c.json", {"kind": "dp_hypercube", "d": 3, "eps": 1.0})
    out = tmp_path / "o.json"
    assert _run(["certify", "--config", cfg, "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert any("dp ratio" in v for v in doc["violations"])


def test_certify_residual_violation_exits_2(tmp_path, monkeypatch):
    def fake(ch, rng=None, n_mc=10**5, source=None):
        return InfoReport(None, None, None, None, 0.5)

    monkeypatch.setattr(cli, "certify_channel", fake)
    cfg = _cfg(tmp_path, "c.json", {"kind": "linf_maxent", "d": 2, "M": 2.0})
    assert _run(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_config_errors_exit_1(tmp_path, capsys):
    assert _run(["certify", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(["certify", "--config", str(bad)]) == 1
    nolist = _cfg(tmp_path, "n.json", {"d": 3})  # kind missing
    assert _run(["certify", "--config", nolist]) == 1
    unk = _cfg(tmp_path, "u.json", {"kind": "laplace", "d": 3})
    assert _run(["certify", "--config", unk]) == 1
    frac = _cfg(tmp_path, "f.json", {"kind": "linf_maxent", "d": 2.5, "M": 2.0})
    assert _run(["certify", "--config", frac]) == 1
    # grids of dimensions and sample sizes are integers too, not truncated
    tiny = {"n": [256], "budget": [0.5], "reps": 2}
    for cmd, doc in (("tradeoff", {**tiny, "d": [2.5]}),
                     ("tradeoff", {**tiny, "d": [2], "n": [256.5]}),
                     ("bounds", {"d": [2.5]}),
                     ("bounds", {"d": [2], "n": [256.5]})):
        assert _run([cmd, "--config", _cfg(tmp_path, f"{cmd}.json", doc)]) == 1
    # scalar integer settings: a fraction or a bool is a config error
    linf = {"kind": "linf_maxent", "d": 2, "M": 2.0}
    for cmd, doc in (("certify", {**linf, "n_mc": 10000.7}),
                     ("certify", {**linf, "n_mc": True}),
                     ("bounds", {"theorems": ["T3"], "d": [2], "n": [256], "k": 0.5}),
                     ("tradeoff", {**tiny, "d": [2], "reps": 2.5}),
                     ("tradeoff", {**tiny, "d": [2], "reps": True}),
                     ("bias-demo", {"n": 100.5})):
        assert _run([cmd, "--config", _cfg(tmp_path, f"{cmd}.json", doc)]) == 1, doc
    # below the Monte-Carlo floor n_mc is a usage error, not a violation
    for doc in ({**linf, "n_mc": 100},
                {"kind": "dp_l2_sampler", "d": 3, "eps": 1.0, "n_mc": 9999}):
        assert _run(["certify", "--config", _cfg(tmp_path, "small.json", doc)]) == 1, doc
    assert _run(["frobnicate"]) == 1
    assert capsys.readouterr().err.strip() != ""


@pytest.mark.parametrize("doc", [
    {"kind": "linf_maxent", "d": 21, "M": 2.0, "n_mc": 10000},
    {"kind": "dp_hypercube", "d": 11, "eps": 0.1, "n_mc": 10000},
])
def test_certify_residual_over_pmf_guard_has_statistical_tolerance(tmp_path, doc):
    # past the pmf enumeration guard the residual is a Monte-Carlo mean of
    # n_mc draws, so it cannot meet the exact-mean tolerance
    cfg = _cfg(tmp_path, "c.json", doc)
    out = tmp_path / "o.json"
    assert _run(["certify", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["violations"] == []
    assert doc["report"]["unbiasedness_max_residual"] > 1e-8


def test_tradeoff_check_passes_on_tuned_grid(tmp_path):
    cfg = _cfg(tmp_path, "t.json", {
        "kind": "dp_hypercube", "d": [3], "n": [4096, 16384, 65536],
        "budget": [0.5, 0.75, 1.0], "delta": 0.8, "reps": 30,
    })
    out = tmp_path / "t.csv"
    assert _run(["tradeoff", "--config", cfg, "--seed", "0", "--check",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=privopt.tradeoff.v1"
    fits = [ln for ln in lines if ln.startswith("# fit")]
    n_slopes = [float(ln.rsplit("slope=", 1)[1]) for ln in fits if "slope_n" in ln]
    e_slopes = [float(ln.rsplit("slope=", 1)[1]) for ln in fits if "slope_budget" in ln]
    assert n_slopes and all(-0.6 <= s <= -0.4 for s in n_slopes)
    assert e_slopes and all(-1.15 <= s <= -0.85 for s in e_slopes)
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    header = rows[0]
    assert header[:5] == ["kind", "loss", "d", "n", "budget"]
    body = rows[1:]
    assert all(r[6] == "ok" for r in body)
    # private risk never beats the lower bound and the ratio column is sane
    i_risk, i_lo = header.index("risk_mean"), header.index("lower")
    assert all(float(r[i_risk]) >= float(r[i_lo]) for r in body)


def test_tradeoff_check_fails_on_saturated_grid(tmp_path):
    cfg = _cfg(tmp_path, "t.json", {
        "kind": "dp_hypercube", "d": [8], "n": [256, 512, 1024],
        "budget": [0.25], "reps": 10,
    })
    assert _run(["tradeoff", "--config", cfg, "--check",
                 "--out", str(tmp_path / "t.csv")]) == 3


def test_tradeoff_refusal_rows_over_eps_star(tmp_path):
    cfg = _cfg(tmp_path, "t.json", {
        "kind": "dp_hypercube", "d": [8], "n": [256], "budget": [1.0], "reps": 2,
    })
    out = tmp_path / "t.csv"
    assert _run(["tradeoff", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")]
    header, body = rows[0], rows[1:]
    i = header.index("status")
    assert body[0][i] == "eps_over_star"
    assert body[0][header.index("risk_mean")] == "nan"


def test_tradeoff_linf_kind(tmp_path):
    cfg = _cfg(tmp_path, "t.json", {
        "kind": "linf_maxent", "d": [2], "n": [512, 1024], "budget": [2.0, 4.0],
        "reps": 5,
    })
    out = tmp_path / "t.csv"
    assert _run(["tradeoff", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")]
    header, body = rows[0], rows[1:]
    assert len(body) == 4
    assert all(r[header.index("status")] == "ok" for r in body)
    assert all(math.isinf(float(r[header.index("eps_star")])) for r in body)


def test_bounds_default_grid_and_check(tmp_path):
    out = tmp_path / "b.csv"
    assert _run(["bounds", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=privopt.bounds.v1"
    header = lines[1].split(",")
    assert header == ["theorem", "d", "n", "budget_kind", "budget", "q", "delta",
                      "lower", "upper", "gap_flagged", "lemma8_C", "lemma8_Delta"]
    body = [ln.split(",") for ln in lines[2:] if ln and not ln.startswith("#")]
    themes = {r[0] for r in body}
    assert themes == set(cli.THEOREMS)
    i_lo, i_up = header.index("lower"), header.index("upper")
    for r in body:
        lo, up = float(r[i_lo]), float(r[i_up])
        if not (math.isnan(lo) or math.isnan(up)):
            assert lo <= up * (1.0 + 1e-12)
    assert _run(["bounds", "--check"]) == 0


def test_bounds_bad_config_exits_1(tmp_path):
    cfg = _cfg(tmp_path, "b.json", {"theorems": ["T3"], "eps": [2.0]})
    assert _run(["bounds", "--config", cfg]) == 1


def test_bias_demo_payload_and_check(tmp_path):
    out = tmp_path / "d.json"
    assert _run(["bias-demo", "--out", str(out), "--seed", "2"]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "privopt.bias_demo.v1"
    assert doc["biased"]["wrong_endpoint"] is True
    assert doc["biased"]["final_gap"] >= 0.9
    assert doc["unbiased"]["averaged_gap"] <= doc["unbiased"]["gap_bound_4Mr_sqrt_n"]
    assert _run(["bias-demo", "--check"]) == 0


@pytest.mark.parametrize("args,cfg_doc", [
    (["certify"], {"kind": "dp_hypercube", "d": 3, "eps": 0.5, "n_mc": 20000}),
    (["tradeoff"], {"kind": "dp_hypercube", "d": [2], "n": [256, 512],
                    "budget": [0.5], "reps": 5}),
    (["bounds"], None),
    (["bias-demo"], {"n": 1024}),
])
def test_outputs_bitwise_deterministic(tmp_path, args, cfg_doc):
    outs = []
    for k in range(2):
        out = tmp_path / f"o{k}"
        argv = args + ["--seed", "9", "--out", str(out)]
        if cfg_doc is not None:
            argv += ["--config", _cfg(tmp_path, f"c{k}.json", cfg_doc)]
        assert _run(argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_seed_changes_monte_carlo_output(tmp_path):
    cfg_doc = {"kind": "dp_hypercube", "d": [2], "n": [256], "budget": [0.5],
               "reps": 5}
    texts = []
    for seed in ("3", "4"):
        out = tmp_path / f"s{seed}"
        cfg = _cfg(tmp_path, f"s{seed}.json", cfg_doc)
        assert _run(["tradeoff", "--seed", seed, "--config", cfg,
                     "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] != texts[1]
