"""CLI surface: exit codes, schemas, determinism, check-mode semantics."""

import json
import math

import numpy as np
import pytest

import privopt.channels as channels
import privopt.cli as cli
import privopt.information as information
import privopt.protocol as protocol
from privopt.channels import CHANNEL_KINDS, Channel, make_channel
from privopt.information import InfoReport
from privopt.losses import make_loss


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


def test_certify_selfcheck_draws_nothing(monkeypatch, capsys):
    # the check reports exact values only, so it must not sample at all
    def refuse(*args, **kwargs):
        raise AssertionError("certify --check drew a sample")

    monkeypatch.setattr(information, "check_draws_on_support", refuse)
    monkeypatch.setattr(Channel, "sample", refuse)
    outs = []
    for seed in ("0", "3"):
        assert _run(["certify", "--check", "--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_certify_violation_exits_2(tmp_path, monkeypatch):
    # inject a report contradicting the dp contract: wiring must exit 2
    def fake(ch, rng=None, n_mc=10**5):
        return InfoReport(None, None, 3.0 * math.e, 0.0)

    monkeypatch.setattr(cli, "certify_channel", fake)
    cfg = _cfg(tmp_path, "c.json", {"kind": "dp_hypercube", "d": 3, "eps": 1.0})
    out = tmp_path / "o.json"
    assert _run(["certify", "--config", cfg, "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert any("dp ratio" in v for v in doc["violations"])


def test_certify_residual_violation_exits_2(tmp_path, monkeypatch):
    def fake(ch, rng=None, n_mc=10**5):
        return InfoReport(None, None, None, 0.5)

    monkeypatch.setattr(cli, "certify_channel", fake)
    cfg = _cfg(tmp_path, "c.json", {"kind": "linf_maxent", "d": 2, "M": 2.0})
    assert _run(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_one_dp_ratio_rule_for_certify_and_the_audit(tmp_path, monkeypatch):
    # certify and audit_leakage read the one rule, information.dp_ratio_verified:
    # made to refuse, it fails both
    monkeypatch.setattr(information, "dp_ratio_verified", lambda ch, ratio: False)
    cfg = _cfg(tmp_path, "c.json", {"kind": "dp_hypercube", "d": 3, "eps": 1.0,
                                    "n_mc": 10000})
    out = tmp_path / "o.json"
    assert _run(["certify", "--config", cfg, "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    ratio = doc["report"]["dp_ratio_max"]
    assert doc["violations"] == [f"dp ratio {ratio!r} exceeds exp(eps)"]
    ch = make_channel("dp_hypercube", 2, eps=0.5)
    stream = protocol.PrivateGradStream.from_data([[1.0, -1.0]], make_loss("median"), ch, rng=0)
    assert protocol.audit_leakage(stream)["owners"][0]["dp_ratio_verified"] is False


def test_certify_prints_a_report_whose_mi_values_disagree(tmp_path, monkeypatch):
    # the exact and closed-form MI differ by 1e-6: a violation, and the
    # report is still printed
    def fake(ch, rng=None, n_mc=10**5):
        return InfoReport(0.5, 0.5 + 1e-6, None, 0.0)

    monkeypatch.setattr(cli, "certify_channel", fake)
    cfg = _cfg(tmp_path, "c.json", {"kind": "linf_maxent", "d": 2, "M": 2.0})
    out = tmp_path / "o.json"
    assert _run(["certify", "--config", cfg, "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["violations"] == ["exact and closed-form MI disagree beyond 1e-8"]
    assert doc["report"]["mi_exact_nats"] == 0.5
    assert doc["report"]["mi_closed_form_nats"] == 0.5 + 1e-6


def test_certify_reports_a_draw_off_the_support(tmp_path, monkeypatch):
    # a sampler that moves one draw off its kind's support is caught by the
    # Monte-Carlo count: certify reports the violation and exits 2
    row = channels._KINDS["linf_maxent"]

    def shifted(ch, x, *noise):
        z = row.apply(ch, x, *noise)
        z[-1, 0] = 0.5 * z[-1, 0]
        return z

    monkeypatch.setitem(channels._KINDS, "linf_maxent", row._replace(apply=shifted))
    cfg = _cfg(tmp_path, "c.json", {"kind": "linf_maxent", "d": 3, "M": 2.0,
                                    "n_mc": 10000})
    out = tmp_path / "o.json"
    assert _run(["certify", "--config", cfg, "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["report"] is None
    assert doc["violations"] == ["a linf_maxent draw at source 0 is not a point of its pmf"]


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


_KIND_CONFIGS = {
    "linf_maxent": {"M": 2.0},
    "l1_maxent": {"M": 3.0},
    "dp_hypercube": {"eps": 0.5},
    "dp_linf_sampler": {"eps": 0.5, "L": 2.0},
    "dp_l2_sampler": {"eps": 1.0},
    "identity": {},
    "biased_demo": {"bias": [0.5, -0.25, 0.0], "noise": 0.5},
}


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_certify_reads_the_channel_document_it_prints(tmp_path, kind):
    # the printed channel block is itself a certify config: fed back, it
    # gives the same exit code and the same output at the same seed
    first = tmp_path / "first.json"
    cfg = _cfg(tmp_path, "c.json", {"kind": kind, "d": 3, **_KIND_CONFIGS[kind]})
    code = _run(["certify", "--config", cfg, "--seed", "5", "--out", str(first)])
    channel = json.loads(first.read_text())["channel"]
    budget = make_channel(kind, 3, **_KIND_CONFIGS[kind]).budget
    keys = {"kind", "d", "L"} | ({budget} if budget else set())
    if kind == "biased_demo":
        keys |= {"bias", "noise"}
    assert set(channel) == keys
    again = tmp_path / "again.json"
    assert _run(["certify", "--config", _cfg(tmp_path, "back.json", channel),
                 "--seed", "5", "--out", str(again)]) == code
    assert json.loads(again.read_text())["channel"] == channel
    assert again.read_text() == first.read_text()


@pytest.mark.parametrize("doc", [
    {"kind": "linf_maxent", "d": 2, "M": True},
    {"kind": "linf_maxent", "d": 2, "M": "2.0"},
    {"kind": "linf_maxent", "d": 2, "M": None},
    {"kind": "dp_hypercube", "d": 2, "eps": "0.5"},
    {"kind": "dp_hypercube", "d": 2, "eps": True},
    {"kind": "dp_hypercube", "d": 2, "eps": None},
    {"kind": "dp_hypercube", "d": 2},
    {"kind": "dp_hypercube", "d": 2, "eps": 0.5, "L": "1"},
    {"kind": "dp_hypercube", "d": 2, "eps": 0.5, "L": True},
    {"kind": "dp_hypercube", "d": 2, "eps": 0.5, "L": None},
    {"kind": "biased_demo", "d": 2, "noise": True},
    {"kind": "biased_demo", "d": 2, "noise": "0.5"},
])
def test_certify_refuses_non_numbers_for_float_keys(tmp_path, capsys, doc):
    # a bool, a string or a missing required value is a config error (exit
    # 1), never read as a number
    assert _run(["certify", "--config", _cfg(tmp_path, "c.json", doc)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("bias", [True, [0.5, True], "0.5", [None, 0.5]])
def test_certify_refuses_a_bias_that_is_not_a_number(tmp_path, capsys, bias):
    doc = {"kind": "biased_demo", "d": 2, "bias": bias, "n_mc": 10000}
    assert _run(["certify", "--config", _cfg(tmp_path, "c.json", doc)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bias must be a number")


@pytest.mark.parametrize("doc", [
    {"kind": "linf_maxent", "d": 21, "M": 2.0, "n_mc": 10000},
    {"kind": "dp_hypercube", "d": 11, "eps": 0.1, "n_mc": 10000},
])
def test_certify_residual_over_pmf_guard_is_exact(tmp_path, doc):
    # past the pmf enumeration guard the residual still reads the kind's
    # exact mean, so it sits at rounding level
    cfg = _cfg(tmp_path, "c.json", doc)
    out = tmp_path / "o.json"
    assert _run(["certify", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["violations"] == []
    assert doc["report"]["unbiasedness_max_residual"] <= 1e-12


def test_certify_support_check_past_the_pmf_guard(tmp_path):
    # nearly all 2d = 3200 sources are drawn and (2d)^2 exceeds the guard,
    # so the support check must not build their laws in one batch
    cfg = _cfg(tmp_path, "c.json", {"kind": "l1_maxent", "d": 1600, "M": 2.0})
    out = tmp_path / "o.json"
    assert _run(["certify", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["violations"] == []


def test_certify_sphere_sampler_draws_nothing(tmp_path, monkeypatch):
    # dp_l2_sampler has no pmf, so no MI draws, and its residual is exact
    def refuse(*args, **kwargs):
        raise AssertionError("certify drew a sample")

    monkeypatch.setattr(Channel, "sample", refuse)
    cfg = _cfg(tmp_path, "c.json", {"kind": "dp_l2_sampler", "d": 10, "eps": 1.0})
    out = tmp_path / "o.json"
    assert _run(["certify", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["violations"] == []
    assert doc["report"]["unbiasedness_max_residual"] <= 1e-12


def test_tradeoff_check_passes_on_tuned_grid(tmp_path):
    cfg = _cfg(tmp_path, "t.json", {
        "kind": "dp_hypercube", "d": [3], "n": [4096, 16384, 65536],
        "budget": [0.5, 0.75, 1.0], "delta": 0.8, "reps": 120,
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


@pytest.mark.parametrize("doc,msg", [
    ({"kind": ["dp_hypercube"]}, "tradeoff supports dp_hypercube or linf_maxent"),
    ({"kind": "l1_maxent"}, "tradeoff supports dp_hypercube or linf_maxent"),
    ({"loss": "hinge"}, "tradeoff sweeps run the median loss"),
    ({"kind": "linf_maxent", "budget": [0.5, 2.0]}, "linf_maxent needs M >= L"),
], ids=["kind-list", "kind-l1_maxent", "loss-hinge", "linf-budget-below-L"])
def test_tradeoff_refusals_exit_1_before_any_chain(tmp_path, capsys, monkeypatch, doc, msg):
    # an unswept family, loss or budget is a config error: one error line,
    # no traceback, and no chain run first
    calls = []
    monkeypatch.setattr(cli, "_averaged_chains", lambda *a: calls.append(a))
    assert _run(["tradeoff", "--config", _cfg(tmp_path, "t.json", doc)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {msg}") and err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize("doc,msg", [
    ({"d": [8], "n": [16384, 0], "budget": [0.25], "reps": 50}, "steps must be >= 1"),
    ({"d": [2, 0], "n": [256], "budget": [0.5], "reps": 2}, "d must be >= 1"),
], ids=["n-zero-after-a-cell", "d-zero-after-a-cell"])
def test_tradeoff_bad_grid_entry_exits_1_before_any_chain(tmp_path, capsys, monkeypatch,
                                                          doc, msg):
    # every d and n entry is checked before the first cell runs: a bad
    # entry late in a grid exits with the error the cell would raise,
    # without running the cells before it
    calls = []
    monkeypatch.setattr(cli, "_averaged_chains", lambda *a: calls.append(a))
    assert _run(["tradeoff", "--config", _cfg(tmp_path, "t.json", doc)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {msg}\n"
    assert calls == []


@pytest.mark.parametrize("doc", [
    {"kind": "dp_hypercube", "d": [3, 8], "n": [256, 512, 1024], "budget": [0.5, 1.0],
     "reps": 6},
    {"kind": "linf_maxent", "d": [3], "n": [256, 512, 1024], "budget": [2.0, 4.0],
     "reps": 6},
], ids=["dp", "linf"])
def test_tradeoff_stdout_does_not_depend_on_the_oracle_answering_ahead(
        tmp_path, capsys, monkeypatch, doc):
    # the stream oracle steps its chains a window at a time; a plain
    # callable over the same stream steps them one query at a time, and
    # the command prints the same bytes and exits alike either way
    cfg = _cfg(tmp_path, "t.json", doc)
    args = ["tradeoff", "--config", cfg, "--seed", "3", "--check"]
    code = _run(args)
    windowed = capsys.readouterr()
    monkeypatch.setattr(cli, "as_grad_oracle",
                        lambda stream: lambda theta, rng: protocol.query(stream, theta))
    assert _run(args) == code
    assert capsys.readouterr() == windowed


def test_tradeoff_linf_grid_runs_every_cell_from_M_equal_L(tmp_path):
    # the linf family has no eps_star, and its floor M >= L is inclusive:
    # every row is run, with eps_star = inf, also at d = 8 where every
    # budget here is above the dp family's threshold
    doc = {"kind": "linf_maxent", "d": [2, 8], "n": [256], "budget": [1.0, 64.0],
           "reps": 2}
    out = tmp_path / "t.csv"
    assert _run(["tradeoff", "--config", _cfg(tmp_path, "t.json", doc),
                 "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")]
    header, body = rows[0], rows[1:]
    assert len(body) == 4
    assert [r[header.index("eps_star")] for r in body] == ["inf"] * 4
    assert [r[header.index("status")] for r in body] == ["ok"] * 4


def test_tradeoff_families_match_the_channel_and_theorem_tables():
    # each swept family's theorem reads the budget its channel is built
    # from, and each default budget is either constructible at d = 2 or
    # at or above the family's refusal threshold there
    assert set(cli._FAMILIES) <= set(CHANNEL_KINDS)
    for kind, fam in cli._FAMILIES.items():
        name = cli.THEOREM_BUDGET[fam.theorem]
        assert fam.budgets
        built = 0
        for b in fam.budgets:
            if b >= fam.refuses_from(2):
                with pytest.raises(ValueError):
                    make_channel(kind, 2, L=1.0, **{name: b})
                continue
            ch = make_channel(kind, 2, L=1.0, **{name: b})
            assert ch.budget == name and ch.privacy_param == b
            assert fam.info(ch) > 0.0
            built += 1
        assert built >= 1, kind


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


def test_bounds_prints_q_only_where_a_theorem_reads_it(tmp_path):
    # q is the T5 family's geometry exponent; other rows print nan, as
    # delta and lemma8_* do for the rows they do not apply to
    doc = {"theorems": ["T1a", "T3", "T5_linear", "T5_general"], "d": [4], "n": [256],
           "q": 1.5}
    out = tmp_path / "b.csv"
    assert _run(["bounds", "--config", _cfg(tmp_path, "b.json", doc), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    i_q = lines[1].split(",").index("q")
    q_by_theorem = {}
    for r in (ln.split(",") for ln in lines[2:] if ln and not ln.startswith("#")):
        q_by_theorem.setdefault(r[0], set()).add(r[i_q])
    assert q_by_theorem == {"T1a": {"nan"}, "T3": {"nan"},
                            "T5_linear": {"1.5"}, "T5_general": {"1.5"}}


def test_bounds_bad_config_exits_1(tmp_path):
    cfg = _cfg(tmp_path, "b.json", {"theorems": ["T3"], "eps": [2.0]})
    assert _run(["bounds", "--config", cfg]) == 1


@pytest.mark.parametrize("doc", [
    pytest.param({"theorems": ["T1a"], "M": [-1.0]}, id="T1a-M-negative"),
    pytest.param({"theorems": ["T1a"], "M": [math.nan]}, id="T1a-M-nan"),
    pytest.param({"theorems": ["T3"], "eps": [math.nan]}, id="T3-eps-nan"),
    pytest.param({"theorems": ["T5_linear"], "q": math.nan}, id="T5_linear-q-nan"),
    pytest.param({"theorems": ["T1b"], "M": [0.5]}, id="T1b-M-below-L"),
])
def test_bounds_invalid_budget_exits_1(tmp_path, doc):
    doc = dict(doc, d=[4], n=[256])
    assert _run(["bounds", "--config", _cfg(tmp_path, "b.json", doc)]) == 1


@pytest.mark.parametrize("cmd,doc", [
    ("bounds", {"r": None}),
    ("bounds", {"L": True}),
    ("bounds", {"q": "2.0"}),
    ("bounds", {"eps": [0.5, True]}),
    ("bounds", {"M": ["2.0"]}),
    ("bounds", {"I_star": [None]}),
    ("bias-demo", {"slope": True, "n": 64}),
    ("bias-demo", {"slope": "1.0", "n": 64}),
    ("bias-demo", {"r": None, "n": 64}),
    ("bias-demo", {"M": True, "n": 64}),
    ("tradeoff", {"d": [2], "n": [256], "reps": 2, "budget": [True]}),
    ("tradeoff", {"d": [2], "n": [256], "reps": 2, "budget": [0.5], "delta": None}),
    ("tradeoff", {"d": [2], "n": [256], "reps": 2, "budget": [0.5], "L": "1.0"}),
    ("tradeoff", {"d": [2], "n": [256], "reps": 2, "budget": [0.5], "r": True}),
], ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={v[k]!r}" for k in v
                                                        if k not in ("d", "n", "reps")))
def test_float_settings_refuse_non_numbers(tmp_path, capsys, cmd, doc):
    # a bool, a string or a null where a number goes is a config error (exit
    # 1 with a message), never read as a number and never a traceback
    assert _run([cmd, "--config", _cfg(tmp_path, "c.json", doc)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "must be a number" in err


@pytest.mark.parametrize("cmd,doc", [
    ("bounds", {"eps": 0.5}),
    ("bounds", {"d": 4}),
    ("bounds", {"theorems": 5}),
    ("bounds", {"theorems": "T1a"}),
    ("tradeoff", {"d": [2], "n": 256, "reps": 2, "budget": [0.5]}),
    ("tradeoff", {"d": [2], "n": [256], "reps": 2, "budget": 0.5}),
], ids=["bounds-eps", "bounds-d", "bounds-theorems-number", "bounds-theorems-string",
        "tradeoff-n", "tradeoff-budget"])
def test_grid_settings_must_be_lists(tmp_path, capsys, cmd, doc):
    # a grid given as one number or string is a config error, not a traceback
    assert _run([cmd, "--config", _cfg(tmp_path, "c.json", doc)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "must be a list" in err


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


def test_seed_changes_tradeoff_output(tmp_path):
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
