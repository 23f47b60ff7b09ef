"""End-to-end tests of the command-line interface.

These call ``main`` with explicit argv so exit codes and output files
can be asserted without spawning subprocesses.
"""

import csv
import json

import numpy as np
import pytest

from twdesign import (
    DroModel,
    SaaModel,
    design_dro,
    enumerate_exact,
    load_instance,
    load_plan,
    penalties_from_beta,
    random_network,
    route_to_xy,
    sample_travel_times,
    save_instance,
    save_plan,
    save_route,
    substream,
)
from twdesign import cli
from twdesign.cli import main


@pytest.fixture()
def inst(tmp_path):
    net = random_network(3, seed=11, complete=True)
    path = tmp_path / "inst.json"
    save_instance(net, path)
    return net, path


def test_gen_writes_instance(tmp_path):
    out = tmp_path / "a" / "inst.json"
    rc = main(["gen", "--customers", "4", "--seed", "3", "--out", str(out)])
    assert rc == 0
    net = load_instance(out)
    assert net.n_customers == 4
    assert net.n_arcs == 12
    # the file reproduces the library generator exactly
    want = random_network(4, seed=3)
    assert net.arcs == want.arcs
    np.testing.assert_allclose(net.mean, want.mean, atol=0)
    np.testing.assert_allclose(net.cov, want.cov, atol=1e-12)


def test_gen_complete_flag(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--customers", "3", "--complete", "--out", str(out)]) == 0
    assert load_instance(out).n_arcs == 12


def test_gen_requires_flags(tmp_path, capsys):
    assert main(["gen", "--customers", "3"]) == 1
    assert "--out is required" in capsys.readouterr().err
    assert main(["gen", "--customers", "0", "--out", str(tmp_path / "inst.json")]) == 1
    assert capsys.readouterr().err == "twdesign: error: --customers must be >= 1\n"
    assert not (tmp_path / "inst.json").exists()


def test_gen_refuses_oversized_network(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--customers", "200", "--complete", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "twdesign: error: network has 40200 arcs, more than the 2000 supported: "
        "its covariance would take 12,928,320,000 bytes\n"
    )
    assert not out.exists()


# an instance file's cov_gen value as JSON text, and the gen flags that pass
# the same kind of value, where gen has a flag that can
COV_GEN_CASES = [
    ("seed", "1.5", None),
    ("seed", '"a"', None),
    ("seed", "true", None),
    ("seed", "-1", None),
    ("cv_min", '"0.1"', None),
    ("neg_flip_prob", "null", None),
    ("cv_max", "1e400", ["--cv-max", "inf"]),
    ("cv_min", "NaN", ["--cv-min", "nan"]),
    ("neg_flip_prob", "Infinity", ["--neg-flip-prob", "inf"]),
]


@pytest.mark.parametrize("key,raw,gen_flags", COV_GEN_CASES)
def test_cov_gen_values_are_checked(inst, tmp_path, capsys, key, raw, gen_flags):
    net, _ = inst
    arcs = [{"from": i, "to": j, "mean": float(net.mean[a])} for a, (i, j) in enumerate(net.arcs)]
    head = json.dumps({"nodes": net.node_count, "arcs": arcs, "time_budget": net.time_budget})
    path = tmp_path / "gen_inst.json"
    # spliced in as text, so that 1e400 reaches the loader as written
    path.write_text(head[:-1] + f', "cov_gen": {{"{key}": {raw}}}}}')
    with pytest.raises(ValueError, match=f"cov_gen: {key} must be"):
        load_instance(path)
    route_path = tmp_path / "route.json"
    save_route((0, 1, 2, 3, 0), route_path)
    out = tmp_path / "plan.json"
    rc = main(
        [
            "design", "--instance", str(path), "--route", str(route_path), "--model", "rm",
            "--beta-l", "0.1", "--beta-u", "0.1", "--out", str(out),
        ]
    )
    assert rc == 1
    assert f"twdesign: error: cov_gen: {key} must be" in capsys.readouterr().err
    assert not out.exists()
    if gen_flags is not None:
        out = tmp_path / "gen.json"
        assert main(["gen", "--customers", "3", "--out", str(out), *gen_flags]) == 1
        assert f"twdesign: error: cov_gen: {key} must be" in capsys.readouterr().err
        assert not out.exists()


def test_design_sm_matches_library(inst, tmp_path):
    net, inst_path = inst
    route_path = tmp_path / "route.json"
    save_route((0, 2, 1, 3, 0), route_path)
    out = tmp_path / "plan.json"
    rc = main(
        [
            "design", "--instance", str(inst_path), "--route", str(route_path),
            "--model", "sm", "--beta-l", "0.1", "--beta-u", "0.1",
            "--q-train", "120", "--seed", "5", "--out", str(out), "--no-timestamp",
        ]
    )
    assert rc == 0
    plan = load_plan(out)
    # reproduce through the library with the same substream
    from twdesign import design_stochastic

    route = route_to_xy((0, 2, 1, 3, 0), net)
    train = sample_travel_times(net, 120, substream(5, "sampling-train"))
    want, _ = design_stochastic(route, train, penalties_from_beta(0.1, 0.1, 3))
    np.testing.assert_allclose(plan.lower, want.lower, atol=0)
    np.testing.assert_allclose(plan.upper, want.upper, atol=0)
    assert plan.total_cost == want.total_cost


def test_design_rm_byte_identical_to_save_plan(inst, tmp_path):
    net, inst_path = inst
    route_path = tmp_path / "route.json"
    save_route((0, 1, 2, 3, 0), route_path)
    out = tmp_path / "plan.json"
    rc = main(
        [
            "design", "--instance", str(inst_path), "--route", str(route_path),
            "--model", "rm", "--beta-l", "0.05", "--beta-u", "0.05",
            "--out", str(out), "--no-timestamp",
        ]
    )
    assert rc == 0
    route = route_to_xy((0, 1, 2, 3, 0), net)
    plan = design_dro(route, net.mean, net.cov, 0.0, penalties_from_beta(0.05, 0.05, 3))
    ref = tmp_path / "ref.json"
    save_plan(plan, ref)
    assert out.read_bytes() == ref.read_bytes()


def test_design_fixed_width_rm_rejected(inst, tmp_path, capsys):
    net, inst_path = inst
    route_path = tmp_path / "route.json"
    save_route((0, 1, 2, 3, 0), route_path)
    rc = main(
        [
            "design", "--instance", str(inst_path), "--route", str(route_path),
            "--model", "rm", "--beta-l", "0.05", "--beta-u", "0.05",
            "--fixed-width", "--out", str(tmp_path / "p.json"),
        ]
    )
    assert rc == 1
    assert "--fixed-width applies to the sm model only" in capsys.readouterr().err


def test_design_penalty_flag_conflicts(inst, tmp_path, capsys):
    net, inst_path = inst
    route_path = tmp_path / "route.json"
    save_route((0, 1, 2, 3, 0), route_path)
    base = [
        "design", "--instance", str(inst_path), "--route", str(route_path),
        "--model", "sm", "--out", str(tmp_path / "p.json"),
    ]
    assert main(base) == 1
    assert "penalties required" in capsys.readouterr().err
    assert main(base + ["--beta-l", "0.1", "--beta-u", "0.1", "--a-w", "0.1"]) == 1
    assert "not both" in capsys.readouterr().err
    assert main(base + ["--a-w", "0.1", "--a-l", "1.0"]) == 1
    assert "all of" in capsys.readouterr().err


def test_solve_agrees_with_enumeration(inst, tmp_path):
    net, inst_path = inst
    out_dir = tmp_path / "run"
    rc = main(
        [
            "solve", "--instance", str(inst_path), "--model", "sm",
            "--beta-l", "0.1", "--beta-u", "0.1", "--q-train", "100",
            "--seed", "4", "--out-dir", str(out_dir), "--no-timestamp",
        ]
    )
    assert rc == 0
    doc = json.loads((out_dir / "solve.json").read_text())
    train = sample_travel_times(net, 100, substream(4, "sampling-train"))
    ref = enumerate_exact(net, SaaModel(train), penalties_from_beta(0.1, 0.1, 3))
    assert doc["seq"] == [int(v) for v in ref.route.seq]
    assert doc["objective"] == pytest.approx(ref.objective, abs=1e-9)
    assert doc["proof_of_optimality"] is True
    # companion files load and agree
    plan = load_plan(out_dir / "plan.json")
    assert plan.total_cost == pytest.approx(ref.plan.total_cost, abs=1e-9)
    seq_doc = json.loads((out_dir / "route.json").read_text())
    assert seq_doc["seq"] == doc["seq"]


def test_solve_explicit_weights_match_betas(inst, tmp_path):
    # --a-w/--a-l/--a-u give the same weights as the betas they imply
    net, inst_path = inst
    base = ["solve", "--instance", str(inst_path), "--model", "sm", "--q-train", "100", "--no-timestamp"]
    explicit, betas = tmp_path / "explicit", tmp_path / "betas"
    assert main(base + ["--a-w", "0.05", "--a-l", "1", "--a-u", "1", "--out-dir", str(explicit)]) == 0
    assert main(base + ["--beta-l", "0.05", "--beta-u", "0.05", "--out-dir", str(betas)]) == 0
    for name in ("solve.json", "plan.json", "route.json"):
        assert (explicit / name).read_bytes() == (betas / name).read_bytes(), name


def test_solve_rm_refuses_a_tolerance_ratio_that_rounds_away(inst, tmp_path, capsys):
    # a_w / a_l = 1e-320 passes every weight check, but 1 - 2 beta rounds
    # to 1 and the window's distance from the mean would divide by zero
    net, inst_path = inst
    out_dir = tmp_path / "r"
    rc = main(
        [
            "solve", "--instance", str(inst_path), "--model", "rm",
            "--a-w", "1e-320", "--a-l", "1", "--a-u", "1", "--out-dir", str(out_dir),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == "twdesign: error: coefficient domain: need 0 < a_w/a_side < 1\n"
    assert not out_dir.exists()


def test_solve_rerun_identical(inst, tmp_path):
    net, inst_path = inst
    args = [
        "solve", "--instance", str(inst_path), "--model", "rm",
        "--beta-l", "0.05", "--beta-u", "0.05", "--alpha1", "0.3",
        "--alpha2", "0.2", "--no-timestamp",
    ]
    d1, d2 = (tmp_path / n for n in ("r1", "r2"))
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    assert (d1 / "solve.json").read_bytes() == (d2 / "solve.json").read_bytes()
    assert (d1 / "plan.json").read_bytes() == (d2 / "plan.json").read_bytes()
    a = json.loads((d1 / "solve.json").read_text())
    ref = enumerate_exact(net, DroModel(0.3, 0.2), penalties_from_beta(0.05, 0.05, 3))
    assert a["seq"] == [int(v) for v in ref.route.seq]
    assert a["objective"] == pytest.approx(ref.objective, abs=1e-9)


def test_solve_cut_log(inst, tmp_path):
    net, inst_path = inst
    out_dir = tmp_path / "run"
    log = tmp_path / "cuts.csv"
    rc = main(
        [
            "solve", "--instance", str(inst_path), "--model", "sm",
            "--beta-l", "0.1", "--beta-u", "0.1", "--q-train", "50",
            "--out-dir", str(out_dir), "--cut-log", str(log), "--no-timestamp",
        ]
    )
    assert rc == 0
    with open(log, newline="") as fh:
        recs = list(csv.reader(fh))
    assert recs[0] == ["customer", "anchor_hash", "intercept", "nonzero_coeffs"]
    assert len(recs) == 4  # one cut per customer
    assert {int(r[0]) for r in recs[1:]} == {1, 2, 3}
    assert all(len(r[1]) == 16 for r in recs[1:])
    # coefficient entries parse back as arc=value
    entry = recs[1][3].split(";")[0]
    label, value = entry.split("=")
    assert "->" in label
    float(value)
    # the moment model logs one dispersion cut per customer
    rc = main(
        [
            "solve", "--instance", str(inst_path), "--model", "rm",
            "--beta-l", "0.1", "--beta-u", "0.1", "--alpha2", "0.5",
            "--out-dir", str(out_dir), "--cut-log", str(log), "--no-timestamp",
        ]
    )
    assert rc == 0
    with open(log, newline="") as fh:
        recs = list(csv.reader(fh))
    assert len(recs) == 4
    assert all(float(r[2]) > 0 for r in recs[1:])
    # with zero arrival variance the dispersion has no gradient: the log
    # keeps its header and no cut, and the solve still succeeds
    flat = tmp_path / "flat.json"
    rc = main(["gen", "--customers", "3", "--complete", "--cv-min", "0", "--cv-max", "0", "--out", str(flat)])
    assert rc == 0
    rc = main(
        [
            "solve", "--instance", str(flat), "--model", "rm",
            "--beta-l", "0.1", "--beta-u", "0.1", "--alpha2", "0",
            "--out-dir", str(out_dir), "--cut-log", str(log), "--no-timestamp",
        ]
    )
    assert rc == 0
    with open(log, newline="") as fh:
        assert list(csv.reader(fh)) == [["customer", "anchor_hash", "intercept", "nonzero_coeffs"]]


def test_side_outputs_create_their_directory(inst, tmp_path):
    # --cut-log and --cost-csv may name a directory that does not exist
    # yet, as --out and --out-dir may
    _, inst_path = inst
    log = tmp_path / "logs" / "nested" / "cuts.csv"
    rc = main(
        [
            "solve", "--instance", str(inst_path), "--model", "sm", "--beta-l", "0.1", "--beta-u", "0.1",
            "--q-train", "50", "--out-dir", str(tmp_path / "run"), "--cut-log", str(log), "--no-timestamp",
        ]
    )
    assert rc == 0
    assert log.read_text().startswith("customer,anchor_hash,intercept,nonzero_coeffs")
    costs = tmp_path / "costs" / "nested" / "c.csv"
    rc = main(
        [
            "design", "--instance", str(inst_path), "--route", str(tmp_path / "run" / "route.json"),
            "--model", "sm", "--beta-l", "0.1", "--beta-u", "0.1", "--fixed-width", "--q-train", "50",
            "--out", str(tmp_path / "plan.json"), "--cost-csv", str(costs),
        ]
    )
    assert rc == 0
    assert costs.read_text().startswith("customer,lower,upper,width,cost_component")


def test_solve_infeasible_exit_code(tmp_path, capsys):
    net = random_network(3, seed=2, complete=True, time_budget=0.5)
    path = tmp_path / "inst.json"
    save_instance(net, path)
    rc = main(
        [
            "solve", "--instance", str(path), "--model", "sm",
            "--beta-l", "0.1", "--beta-u", "0.1", "--q-train", "40",
            "--out-dir", str(tmp_path / "run"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert not (tmp_path / "run" / "solve.json").exists()


def test_eval_command(inst, tmp_path):
    net, inst_path = inst
    out_dir = tmp_path / "run"
    assert (
        main(
            [
                "solve", "--instance", str(inst_path), "--model", "sm",
                "--beta-l", "0.1", "--beta-u", "0.1", "--q-train", "80",
                "--seed", "9", "--out-dir", str(out_dir), "--no-timestamp",
            ]
        )
        == 0
    )
    report = tmp_path / "report.csv"
    rc = main(
        [
            "eval", "--instance", str(inst_path), "--route", str(out_dir / "route.json"),
            "--plan", str(out_dir / "plan.json"), "--q-test", "200", "--seed", "9",
            "--model", "sm", "--beta-l", "0.1", "--beta-u", "0.1", "--out", str(report),
        ]
    )
    assert rc == 0
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # three customers plus aggregate
    assert rows[-1]["customer"] == ""
    assert rows[0]["model"] == "sm"
    rates = [float(r["early_rate"]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in rates)


def test_eval_leaves_budget_used_empty(inst, tmp_path):
    # eval is given no model, so it cannot quote the solved model's budget
    net, inst_path = inst
    out_dir = tmp_path / "run"
    rc = main(
        [
            "solve", "--instance", str(inst_path), "--model", "rm",
            "--beta-l", "0.05", "--beta-u", "0.05", "--alpha1", "4",
            "--out-dir", str(out_dir), "--no-timestamp",
        ]
    )
    assert rc == 0
    report = tmp_path / "report.csv"
    rc = main(
        [
            "eval", "--instance", str(inst_path), "--route", str(out_dir / "route.json"),
            "--plan", str(out_dir / "plan.json"), "--q-test", "200",
            "--model", "rm", "--beta-l", "0.05", "--beta-u", "0.05", "--out", str(report),
        ]
    )
    assert rc == 0
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["customer"] == ""
    assert rows[-1]["objective"] != ""
    assert [r["budget_used"] for r in rows] == [""] * len(rows)


@pytest.mark.parametrize("source", ["argv", "config"])
@pytest.mark.parametrize("value", ["0", "-1", "2.5", "true", "100001", "100000000000000000000"])
def test_scenario_counts_are_bounded(inst, tmp_path, capsys, value, source):
    # every --q-train and --q-test takes an integer from 1 to 100000, for
    # either model and also where the model never reads it; anything else
    # is one line naming the flag and the range, before anything is drawn
    net, inst_path = inst
    out = tmp_path / "out"
    given = ["--instance", str(inst_path), "--route", "r.json"]
    pen = ["--beta-l", "0.1", "--beta-u", "0.1"]
    calls = {
        ("solve", "q_train"): ["solve", *given[:2], *pen, "--out-dir", str(out)],
        ("design", "q_train"): ["design", *given, *pen, "--out", str(out / "plan.json")],
        ("eval", "q_test"): ["eval", *given, "--plan", "p.json", "--out", str(out / "r.csv")],
        ("guideline", "q_train"): ["guideline", *given[:2], "--beta-pair", "0.1,0.1", "--seeds", "1",
                                   "--out", str(out / "g.csv")],
    }
    calls["guideline", "q_test"] = calls["guideline", "q_train"]
    cfg = tmp_path / "cfg.json"
    for (command, dest), argv in calls.items():
        flag = "--" + dest.replace("_", "-")
        for model in ("sm", "rm"):
            argv_m = argv + (["--models", model] if command == "guideline" else ["--model", model])
            capsys.readouterr()
            if source == "argv":
                with pytest.raises(SystemExit) as exc:
                    main(argv_m + [flag, value])
                assert exc.value.code == 1
                want = f"argument {flag}: expected an integer from 1 to 100000\n"
            else:
                cfg.write_text(f'{{"{dest}": {value}}}')
                assert main(["--config", str(cfg)] + argv_m) == 1
                want = f"--config: {dest}: expected an integer from 1 to 100000, got {value}\n"
            err = capsys.readouterr().err
            assert err.endswith(want) and err.count("\n") == 1, (command, flag, model, err)
            assert not out.exists()
    # the range's ends parse
    for edge in ("1", "100000"):
        for command, dest in calls:
            args = cli._parsers().parse_args([command, "--" + dest.replace("_", "-"), edge])
            assert getattr(args, dest) == int(edge)


def test_eval_rejects_bad_plan_values(inst, tmp_path, capsys):
    # a NaN window would count as neither early nor late, and a JSON
    # boolean would read as 1.0
    net, inst_path = inst
    out_dir = tmp_path / "run"
    solve = [
        "solve", "--instance", str(inst_path), "--model", "sm", "--beta-l", "0.1",
        "--beta-u", "0.1", "--q-train", "80", "--out-dir", str(out_dir), "--no-timestamp",
    ]
    assert main(solve) == 0
    with open(out_dir / "plan.json") as fh:
        good = json.load(fh)
    nan = float("nan")
    huge = 10**400  # a JSON integer too large for a float

    def add_window(customer):
        def edit(d):
            d["windows"].append({"customer": customer, "lower": 0.0, "upper": 1e6})
            d["per_customer"].append({})
        return edit

    edits = [
        ("lower", lambda d: d["windows"][0].update(lower=nan, upper=nan)),
        ("lower", lambda d: d["windows"][0].update(lower=True)),
        ("lower", lambda d: d["windows"][0].update(lower=huge)),
        ("upper", lambda d: d["windows"][1].update(upper=float("inf"))),
        ("upper", lambda d: d["windows"][1].update(upper=huge)),
        ("customer", lambda d: d["windows"][0].update(customer=True)),
        ("cost", lambda d: d["per_customer"][0].update(cost="0.5")),
        ("cost", lambda d: d["per_customer"][0].update(cost=huge)),
        ("cost", lambda d: d.update(cost=None)),
        ("cost", lambda d: d.update(cost=huge)),
        ("shared_width", lambda d: d.update(shared_width=-1.0)),
        ("shared_width", lambda d: d.update(shared_width=True)),
        ("shared_width", lambda d: d.update(shared_width=huge)),
        # eval would score only the first of two windows for a customer
        ("windows", add_window(1)),
        ("windows", add_window(99)),
        # a plan of the wrong shape is a usage error, not a TypeError traceback
        ("windows", lambda d: d.update(windows=5)),
        ("windows", lambda d: d.update(windows=[5])),
        ("windows", lambda d: d["windows"][0].pop("upper")),
        ("per_customer", lambda d: d.update(per_customer=5)),
        ("per_customer", lambda d: d.update(per_customer=[5] * len(d["windows"]))),
        ("per_customer", lambda d: d["per_customer"].pop()),
        ("route", lambda d: d.update(route=[0, True, 2.0, 3, 0])),
        ("route", lambda d: d.update(route=7)),
        ("kind", lambda d: d.update(kind=None)),
        ("kind", lambda d: d.update(kind=[1, 2])),
    ]

    def edited(edit):
        doc = json.loads(json.dumps(good))
        edit(doc)
        return doc

    for key, doc in [(key, edited(edit)) for key, edit in edits] + [("", [good])]:
        plan = tmp_path / "bad_plan.json"
        with open(plan, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        rc = main(
            [
                "eval", "--instance", str(inst_path), "--route", str(out_dir / "route.json"),
                "--plan", str(plan), "--q-test", "50", "--out", str(tmp_path / "report.csv"),
            ]
        )
        assert rc == 1, key
        where = f"{key}: " if key else ""  # the document itself has no key
        assert f"window plan file: {where}expected" in capsys.readouterr().err, key
        assert not (tmp_path / "report.csv").exists(), key


def test_eval_rejects_plan_for_another_route(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--customers", "3", "--seed", "1", "--out", str(inst_path)]) == 0
    out_dir = tmp_path / "run"
    solve = [
        "solve", "--instance", str(inst_path), "--model", "sm", "--beta-l", "0.1",
        "--beta-u", "0.1", "--q-train", "80", "--out-dir", str(out_dir), "--no-timestamp",
    ]
    assert main(solve) == 0
    with open(out_dir / "plan.json") as fh:
        good = json.load(fh)
    seq = good["route"]
    for other in ([0, 9, 9, 9, 0], seq[::-1]):
        doc = dict(good, route=other)
        plan = tmp_path / "other_plan.json"
        with open(plan, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        rc = main(
            [
                "eval", "--instance", str(inst_path), "--route", str(out_dir / "route.json"),
                "--plan", str(plan), "--q-test", "50", "--out", str(tmp_path / "report.csv"),
            ]
        )
        assert rc == 1, other
        assert f"plan was made for route {other}, not {seq}" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()


def test_time_budget_must_be_finite(tmp_path, capsys):
    # an infinite budget would be written as "Infinity", which is not JSON
    with pytest.raises(ValueError, match="time_budget must be positive and finite"):
        random_network(3, seed=0, time_budget=float("inf"))
    path = tmp_path / "inst.json"
    save_instance(random_network(3, seed=0), path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["time_budget"] = float("inf")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match="time_budget: expected a positive number, got Infinity"):
        load_instance(path)
    out = tmp_path / "gen.json"
    assert main(["gen", "--customers", "3", "--time-budget", "inf", "--out", str(out)]) == 1
    assert "time_budget must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_guideline_command(inst, tmp_path):
    net, inst_path = inst
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "guideline", "--instance", str(inst_path),
            "--beta-pair", "0.2,0.2", "--beta-pair", "0.1,0.1",
            "--models", "sm,rm", "--seeds", "1,2",
            "--q-train", "50", "--q-test", "50", "--out", str(out),
        ]
    )
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert {r["model"] for r in rows} == {"sm", "rm"}
    assert {r["beta_l"] for r in rows} == {"0.2", "0.1"}


def test_guideline_bad_pair(inst, tmp_path, capsys):
    net, inst_path = inst
    rc = main(
        [
            "guideline", "--instance", str(inst_path), "--beta-pair", "0.2",
            "--seeds", "1", "--out", str(tmp_path / "s.csv"),
        ]
    )
    assert rc == 1
    assert "expects BL,BU" in capsys.readouterr().err


def test_guideline_rejects_empty_models(inst, tmp_path, capsys):
    # an empty sweep is an error, as a missing --beta-pair is, not a
    # header-only CSV
    net, inst_path = inst
    out = tmp_path / "s.csv"
    for models in ("", " , "):
        rc = main(["guideline", "--instance", str(inst_path), "--beta-pair", "0.2,0.2",
                   "--models", models, "--seeds", "1", "--out", str(out)])
        assert rc == 1, models
        assert "--models: no model to sweep" in capsys.readouterr().err
    assert not out.exists()


def test_guideline_rejects_bad_or_repeated_seeds_and_models(inst, tmp_path, capsys):
    # each error names its flag, and a repeat is refused rather than
    # written as the same cell twice
    net, inst_path = inst
    out = tmp_path / "s.csv"
    cases = [
        ("sm", "", "--seeds expects comma-separated integers, got ''"),
        ("sm", "1,", "--seeds expects comma-separated integers, got '1,'"),
        ("sm", "1,x", "--seeds expects comma-separated integers, got '1,x'"),
        ("sm", "1.5", "--seeds expects comma-separated integers, got '1.5'"),
        ("sm", "1,2,1", "--seeds: a seed is repeated in '1,2,1'"),
        ("sm", "1, 01", "--seeds: a seed is repeated in '1, 01'"),
        ("sm,rm,sm", "1", "--models: a model is repeated in 'sm,rm,sm'"),
        ("sm, sm", "1,2", "--models: a model is repeated in 'sm, sm'"),
    ]
    for models, seeds, message in cases:
        rc = main(["guideline", "--instance", str(inst_path), "--beta-pair", "0.2,0.2",
                   "--models", models, "--seeds", seeds, "--q-train", "20", "--q-test", "20",
                   "--out", str(out)])
        assert rc == 1, (models, seeds)
        assert message in capsys.readouterr().err, (models, seeds)
        assert not out.exists(), (models, seeds)


def test_guideline_rejects_repeated_beta_pairs(inst, tmp_path, capsys):
    # pairs compare as numbers, from flags or from a config list
    net, inst_path = inst
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta_pair": ["0.2,0.2", "0.2,0.2"]}))
    out = tmp_path / "s.csv"
    argv = ["guideline", "--instance", str(inst_path), "--models", "sm", "--seeds", "1",
            "--q-train", "20", "--q-test", "20", "--out", str(out)]
    calls = [
        (argv + ["--beta-pair", "0.2,0.2", "--beta-pair", "0.20,0.2"], "'0.20,0.2'"),
        (["--config", str(cfg)] + argv, "'0.2,0.2'"),
    ]
    for call, pair in calls:
        assert main(call) == 1, call
        assert f"--beta-pair: {pair} repeats an earlier pair" in capsys.readouterr().err, call
        assert not out.exists(), call


def test_guideline_rejects_empty_config_beta_pairs(inst, tmp_path, capsys):
    net, inst_path = inst
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta_pair": []}))
    out = tmp_path / "s.csv"
    rc = main(["--config", str(cfg), "guideline", "--instance", str(inst_path),
               "--seeds", "1", "--out", str(out)])
    assert rc == 1
    assert "--beta-pair: no BL,BU pair to sweep" in capsys.readouterr().err
    assert not out.exists()


def test_config_beta_pairs_yield_to_flags(inst, tmp_path):
    # explicit --beta-pair flags replace the config's list, not extend it
    net, inst_path = inst
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta_pair": ["0.05,0.05"]}))
    argv = ["--config", str(cfg), "guideline", "--instance", str(inst_path), "--models", "sm",
            "--seeds", "1", "--q-train", "50", "--q-test", "50"]

    def swept(*flags):
        out = tmp_path / "sweep.csv"
        assert main(argv + list(flags) + ["--out", str(out)]) == 0
        with open(out, newline="") as fh:
            return [(r["beta_l"], r["beta_u"]) for r in csv.DictReader(fh)]

    assert swept() == [("0.05", "0.05")]
    assert swept("--beta-pair", "0.2,0.2") == [("0.2", "0.2")]
    assert swept("--beta-pair", "0.2,0.2", "--beta-pair", "0.1,0.1") == [("0.1", "0.1"), ("0.2", "0.2")]
    assert swept() == [("0.05", "0.05")]


def test_config_beta_pair_must_be_a_list_of_strings(inst, tmp_path, capsys):
    net, inst_path = inst
    cfg = tmp_path / "cfg.json"
    argv = ["--config", str(cfg), "guideline", "--instance", str(inst_path), "--seeds", "1",
            "--out", str(tmp_path / "s.csv")]
    for value in ("0.05,0.05", [0.05], [["0.05", "0.05"]]):
        cfg.write_text(json.dumps({"beta_pair": value}))
        for flags in ([], ["--beta-pair", "0.2,0.2"]):
            assert main(argv + flags) == 1, (value, flags)
            assert "--config: beta_pair: expected a list of strings" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_config_file_supplies_defaults(inst, tmp_path):
    net, inst_path = inst
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta_l": 0.1, "beta_u": 0.1, "q_train": 60}))
    out_dir = tmp_path / "run"
    rc = main(
        [
            "--config", str(cfg), "solve", "--instance", str(inst_path),
            "--model", "sm", "--out-dir", str(out_dir), "--no-timestamp",
        ]
    )
    assert rc == 0
    doc = json.loads((out_dir / "solve.json").read_text())
    train = sample_travel_times(net, 60, substream(0, "sampling-train"))
    ref = enumerate_exact(net, SaaModel(train), penalties_from_beta(0.1, 0.1, 3))
    assert doc["objective"] == pytest.approx(ref.objective, abs=1e-9)
    # a typed flag wins over the config, also when abbreviated
    rc = main(
        [
            "--config", str(cfg), "solve", "--instance", str(inst_path), "--q-tr", "50",
            "--model", "sm", "--out-dir", str(out_dir), "--no-timestamp",
        ]
    )
    assert rc == 0
    doc = json.loads((out_dir / "solve.json").read_text())
    train = sample_travel_times(net, 50, substream(0, "sampling-train"))
    ref50 = enumerate_exact(net, SaaModel(train), penalties_from_beta(0.1, 0.1, 3))
    assert ref50.objective != pytest.approx(ref.objective, abs=1e-9)
    assert doc["objective"] == pytest.approx(ref50.objective, abs=1e-9)


def test_config_file_supplies_paths(inst, tmp_path):
    net, inst_path = inst
    out_dir = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instance": str(inst_path), "out_dir": str(out_dir)}))
    rc = main(
        [
            "--config", str(cfg), "solve", "--model", "rm",
            "--beta-l", "0.05", "--beta-u", "0.05", "--no-timestamp",
        ]
    )
    assert rc == 0
    doc = json.loads((out_dir / "solve.json").read_text())
    ref = enumerate_exact(net, DroModel(), penalties_from_beta(0.05, 0.05, 3))
    assert doc["seq"] == [int(v) for v in ref.route.seq]


def test_config_file_rejects_unknown_keys(inst, tmp_path, capsys):
    net, inst_path = inst
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"zzz": 1}))
    rc = main(["--config", str(cfg), "gen", "--customers", "2", "--out", "x.json"])
    assert rc == 1
    assert "unknown keys" in capsys.readouterr().err
    cfg.write_text("[1, 2]")
    rc = main(["--config", str(cfg), "gen", "--customers", "2", "--out", "x.json"])
    assert rc == 1
    assert "expected a JSON object" in capsys.readouterr().err
    # help stores no value, so it is no key
    cfg.write_text(json.dumps({"help": True}))
    rc = main(["--config", str(cfg), "gen", "--customers", "2", "--out", "x.json"])
    assert rc == 1
    assert "--config: unknown keys ['help']" in capsys.readouterr().err


def test_config_values_use_option_types(inst, tmp_path, capsys):
    # a config value is converted as the flag's text would be: a boolean
    # is no number, 2.5 is no int, a model must be sm or rm and a switch
    # takes a boolean, so each is a usage error, not a traceback from deep
    # inside sampling (or a silent alpha2 of 1, an rm solve for an unknown
    # model, or a "false" string that drops the timestamps)
    net, inst_path = inst
    cfg = tmp_path / "cfg.json"
    bad = ({"model": "sm", "q_train": True}, {"model": "sm", "q_train": 2.5},
           {"model": "rm", "alpha2": True}, {"model": "bogus"}, {"model": "sm", "no_timestamp": "false"})
    for doc in bad:
        key = list(doc)[-1]
        cfg.write_text(json.dumps(doc))
        rc = main(
            [
                "--config", str(cfg), "solve", "--instance", str(inst_path),
                "--beta-l", "0.1", "--beta-u", "0.1", "--out-dir", str(tmp_path / "run"),
            ]
        )
        assert rc == 1, doc
        assert f"--config: {key}" in capsys.readouterr().err
    # numbers written as strings convert like the flag's text
    cfg.write_text(json.dumps({"q_train": "60", "alpha2": "0.5"}))
    rc = main(
        [
            "--config", str(cfg), "solve", "--instance", str(inst_path), "--model", "sm",
            "--beta-l", "0.1", "--beta-u", "0.1", "--out-dir", str(tmp_path / "run"), "--no-timestamp",
        ]
    )
    assert rc == 0
    # a bad value for an option that only gen takes stops gen, not solve
    cfg.write_text(json.dumps({"cv_min": "abc"}))
    rc = main(
        [
            "--config", str(cfg), "solve", "--instance", str(inst_path), "--model", "sm", "--q-train", "20",
            "--beta-l", "0.1", "--beta-u", "0.1", "--out-dir", str(tmp_path / "run"), "--no-timestamp",
        ]
    )
    assert rc == 0
    rc = main(["--config", str(cfg), "gen", "--customers", "2", "--out", str(tmp_path / "g.json")])
    assert rc == 1
    assert "--config: cv_min: expected float" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_config_untyped_options_take_text(inst, tmp_path, capsys):
    # an option without a type takes a JSON string or number as the text of
    # its flag; a boolean, list, object or null (where the option has a
    # default) is a one-line --config error, not a traceback or a value
    # passed on unconverted
    net, inst_path = inst
    assert main(["solve", "--instance", str(inst_path), "--model", "rm", "--beta-l", "0.05",
                 "--beta-u", "0.05", "--out-dir", str(tmp_path / "run"), "--no-timestamp"]) == 0
    route_path, plan_path = tmp_path / "run" / "route.json", tmp_path / "run" / "plan.json"
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    guideline = ["--config", str(cfg), "guideline", "--instance", str(inst_path), "--beta-pair", "0.2,0.2",
                 "--q-train", "20", "--q-test", "20", "--out", str(out)]
    evaluate = ["--config", str(cfg), "eval", "--instance", str(inst_path), "--route", str(route_path),
                "--plan", str(plan_path), "--q-test", "20", "--out", str(out)]
    for argv, doc in (
        (guideline, {"seeds": "1", "models": True}),
        (guideline, {"seeds": "1", "models": ["sm"]}),
        (guideline, {"seeds": "1", "models": {"sm": 1}}),
        (guideline, {"seeds": "1", "models": None}),
        (guideline, {"models": "sm", "seeds": [1]}),
        (evaluate, {"model": True}),
        (evaluate, {"model": None}),
    ):
        key, value = list(doc.items())[-1]
        cfg.write_text(json.dumps(doc))
        assert main(argv) == 1, doc
        err = capsys.readouterr().err
        assert err == f"twdesign: error: --config: {key}: expected a string or number, got {json.dumps(value)}\n"
        assert not out.exists(), doc
    # a number is the text of the flag: 5 names no model, seeds 1 is seed 1
    cfg.write_text(json.dumps({"seeds": "1", "models": 5}))
    assert main(guideline) == 1
    assert capsys.readouterr().err == "twdesign: error: unknown model '5'; expected 'sm' or 'rm'\n"
    cfg.write_text(json.dumps({"models": "rm", "seeds": 1}))
    assert main(guideline) == 0
    with open(out, newline="") as fh:
        assert {(r["model"], r["seed"]) for r in csv.DictReader(fh)} == {("rm", "1")}
    cfg.write_text(json.dumps({"model": 7}))
    assert main(evaluate) == 0
    with open(out, newline="") as fh:
        assert {r["model"] for r in csv.DictReader(fh)} == {"7"}


def test_bad_flag_exits_one(capsys):
    # argparse usage errors come back as 1, not the default 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", "bogus"])
    assert exc.value.code == 1


def test_solve_rejects_nan_alpha(inst, tmp_path, capsys):
    # a NaN inflation would price every tour at NaN and exit 2 as if infeasible
    net, inst_path = inst
    for flag in ("--alpha1", "--alpha2"):
        rc = main(
            [
                "solve", "--instance", str(inst_path), "--model", "rm",
                "--beta-l", "0.05", "--beta-u", "0.05", flag, "nan",
                "--out-dir", str(tmp_path / "r"),
            ]
        )
        assert rc == 1
        assert "finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


def test_sm_rejects_bad_alphas(inst, tmp_path, capsys):
    # the sm model reads neither alpha, but a bad value is still an error
    net, inst_path = inst
    route_path = tmp_path / "route.json"
    save_route((0, 1, 2, 3, 0), route_path)
    calls = (
        ["solve", "--instance", str(inst_path), "--alpha1", "nan", "--out-dir", str(tmp_path / "r")],
        ["design", "--instance", str(inst_path), "--route", str(route_path), "--alpha2", "-1",
         "--out", str(tmp_path / "r" / "plan.json")],
    )
    for argv in calls:
        rc = main(argv + ["--model", "sm", "--beta-l", "0.05", "--beta-u", "0.05", "--q-train", "20"])
        assert rc == 1, argv[0]
        assert "finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


def test_config_defaults_last_one_call(inst, tmp_path, capsys):
    net, inst_path = inst
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "rm", "q_train": 60, "beta_l": 0.05, "beta_u": 0.05}))
    argv = ["solve", "--instance", str(inst_path), "--out-dir", str(tmp_path / "run"), "--no-timestamp"]
    assert main(["--config", str(cfg)] + argv) == 0
    # the next call without --config sees the built-in defaults again
    assert main(argv) == 1
    assert "--model is required" in capsys.readouterr().err
    args = cli._parsers().parse_args(["solve"])
    assert (args.model, args.q_train, args.beta_l, args.beta_u) == (None, 1000, None, None)
    # so does the next call after a --config call that failed on a bad value
    cfg.write_text(json.dumps({"model": "rm", "beta_l": 0.05, "beta_u": 0.05, "q_train": 2.5}))
    assert main(["--config", str(cfg)] + argv) == 1
    assert "--config: q_train" in capsys.readouterr().err
    assert main(argv) == 1
    assert "--model is required" in capsys.readouterr().err


def test_config_does_not_leak_into_another_call(inst, tmp_path, monkeypatch, capsys):
    # a call that starts while a --config call runs (from another thread,
    # or here from inside its command) sees none of that call's values
    net, inst_path = inst
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "sm", "beta_l": 0.05, "beta_u": 0.05}))
    out_dir = tmp_path / "inner"
    gen = cli._COMMANDS["gen"]
    inner = []

    def gen_and_solve(args):
        inner.append(main(["solve", "--instance", str(inst_path), "--out-dir", str(out_dir)]))
        return gen(args)

    monkeypatch.setitem(cli._COMMANDS, "gen", gen_and_solve)
    assert main(["--config", str(cfg), "gen", "--customers", "2", "--out", str(tmp_path / "g.json")]) == 0
    assert inner == [1]
    assert "--model is required" in capsys.readouterr().err
    assert not out_dir.exists()


def test_parser_built_once(tmp_path, monkeypatch):
    build_parser = cli.build_parser
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parsers.cache_clear()
    for seed in range(3):
        assert main(["gen", "--customers", "2", "--seed", str(seed), "--out", str(tmp_path / f"{seed}.json")]) == 0
    assert main(["gen", "--customers", "2"]) == 1
    assert len(built) == 1


def test_missing_instance_file_exits_one(tmp_path, capsys):
    rc = main(
        [
            "solve", "--instance", str(tmp_path / "nope.json"), "--model", "sm",
            "--beta-l", "0.1", "--beta-u", "0.1", "--out-dir", str(tmp_path / "r"),
        ]
    )
    assert rc == 1
    # a file that is not UTF-8 JSON is an error naming its kind, not a traceback
    inst_path, route_path, bad = tmp_path / "inst.json", tmp_path / "route.json", tmp_path / "bad.json"
    save_instance(random_network(2, seed=1, complete=True), inst_path)
    save_route((0, 1, 2, 0), route_path)
    calls = {
        "instance": ["eval", "--instance", str(bad), "--route", str(route_path), "--plan", str(bad)],
        "route": ["eval", "--instance", str(inst_path), "--route", str(bad), "--plan", str(bad)],
        "window plan": ["eval", "--instance", str(inst_path), "--route", str(route_path), "--plan", str(bad)],
        "config": ["--config", str(bad), "gen", "--customers", "2"],
    }
    for data in (b"{not json", b"\xff{}"):
        bad.write_bytes(data)
        for kind, argv in calls.items():
            argv = argv + ["--out", str(tmp_path / "out.csv")]
            capsys.readouterr()
            assert main(argv) == 1, (data, kind)
            assert f"{kind} file is not valid JSON" in capsys.readouterr().err, (data, kind)
