"""Tests for out-of-sample evaluation, the waiting recursion, and reports."""

import csv
import dataclasses
import re

import numpy as np
import pytest

from reference import simulate_waiting_unrolled
from twdesign import (
    DroModel,
    Network,
    SampleSet,
    SaaModel,
    WindowPlan,
    branch_and_bound,
    brute_force_windows,
    design_fixed_width,
    design_stochastic,
    evaluate_plan,
    guideline_sweep,
    penalties_from_beta,
    random_network,
    report_rows,
    route_to_xy,
    sample_travel_times,
    simulate_waiting,
    substream,
    write_report_csv,
)


def line_route_with_samples(travel_rows):
    """A two-customer path network with prescribed travel times."""
    arcs = ((0, 1), (1, 2), (2, 0))
    net = Network(3, arcs, np.ones(3), np.zeros((3, 3)), 1000.0)
    route = route_to_xy([0, 1, 2, 0], net)
    values = np.asarray(travel_rows, dtype=float)
    return route, SampleSet(q=values.shape[0], values=values)


def plan_for(route, lower, upper):
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return WindowPlan(
        kind="saa",
        route_seq=route.seq,
        customers=route.customers,
        lower=lower,
        upper=upper,
        cost_per_customer=np.zeros(len(lower)),
        total_cost=0.0,
    )


def test_evaluate_counts_and_amounts():
    # arrivals customer 1: 5, 10, 15; customer 2: 9, 18, 27
    route, samples = line_route_with_samples(
        [[5.0, 4.0, 1.0], [10.0, 8.0, 1.0], [15.0, 12.0, 1.0]]
    )
    plan = plan_for(route, [8.0, 10.0], [12.0, 20.0])
    rep = evaluate_plan(route, plan, samples)
    assert tuple(rep.early_count) == (1, 1)
    assert tuple(rep.late_count) == (1, 1)
    assert rep.early_amount_mean[0] == pytest.approx(3.0)  # 8 - 5
    assert rep.late_amount_mean[0] == pytest.approx(3.0)  # 15 - 12
    assert rep.early_amount_mean[1] == pytest.approx(1.0)  # 10 - 9
    assert rep.late_amount_mean[1] == pytest.approx(7.0)  # 27 - 20
    assert rep.early_rate == pytest.approx(2 / 6)
    assert rep.late_rate == pytest.approx(2 / 6)
    assert rep.mean_length == pytest.approx((4.0 + 10.0) / 2)
    assert rep.total_violation_amount == pytest.approx(3 + 3 + 1 + 7)
    assert rep.q_test == 3


def test_evaluate_boundary_arrivals_count_inside():
    route, samples = line_route_with_samples([[5.0, 5.0, 1.0], [7.0, 3.0, 1.0]])
    # windows whose edges sit exactly on arrivals: 5 and 7 for customer 1
    plan = plan_for(route, [5.0, 10.0], [7.0, 10.0])
    rep = evaluate_plan(route, plan, samples)
    assert tuple(rep.early_count) == (0, 0)
    assert tuple(rep.late_count) == (0, 0)


def test_evaluate_requires_all_windows():
    # a plan that lacks a customer of its route is refused as it is made,
    # so evaluate_plan never meets one
    route, samples = line_route_with_samples([[1.0, 1.0, 1.0]])
    for customers in ((1,), (2,)):
        with pytest.raises(ValueError, match=rf"^customers: expected one for each customer 1\.\.2, got \[{customers[0]}\]$"):
            WindowPlan(
                kind="saa",
                route_seq=route.seq,
                customers=customers,
                lower=np.array([0.0]),
                upper=np.array([1.0]),
                cost_per_customer=np.zeros(1),
                total_cost=0.0,
            )
    plan = plan_for(route, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^plan has no window for customer 3$"):
        plan.window_for(3)


def test_evaluate_rejects_plan_for_another_route():
    # windows quoted for one visit order say nothing about another
    route, samples = line_route_with_samples([[1.0, 1.0, 1.0]])
    plan = plan_for(route, [0.0, 0.0], [5.0, 5.0])
    for seq in ((0, 2, 1, 0), (0, 9, 9, 0)):
        other = dataclasses.replace(plan, route_seq=seq)
        with pytest.raises(ValueError, match=re.escape(f"plan was made for route {list(seq)}, not [0, 1, 2, 0]")):
            evaluate_plan(route, other, samples)


def test_evaluate_in_sample_rates_match_design():
    # scored on its own training set, the plan reproduces the rank rates
    for seed in range(5):
        net = random_network(3, seed=seed, complete=True)
        route = route_to_xy([0, 1, 2, 3, 0], net)
        samples = sample_travel_times(net, 97, seed=seed + 40)
        pen = penalties_from_beta(0.1, 0.07, 3)
        plan, duals = design_stochastic(route, samples, pen)
        rep = evaluate_plan(route, plan, samples)
        for pos, k in enumerate(route.customers):
            assert rep.early_count[pos] == duals[k].p1 - 1
            assert rep.late_count[pos] == samples.q - duals[k].p2


def test_plan_rates_are_the_evaluated_training_rates():
    # every sample-based plan reports the share of its training draws
    # strictly outside each window, the rule evaluate_plan counts by; with
    # zero covariance every draw ties, all on the window edges, so no
    # arrival is early or late although the saa ranks leave p1 - 1 below
    q = 120
    pen = penalties_from_beta(0.05, 0.05, 4)
    cases = [random_network(4, seed=seed) for seed in range(5)]
    flat = cases[0]
    cases.append(Network(flat.node_count, flat.arcs, flat.mean, np.zeros_like(flat.cov), flat.time_budget))
    for case, net in enumerate(cases):
        train = sample_travel_times(net, q, substream(case, "sampling-train"))
        res = branch_and_bound(net, SaaModel(train), pen)
        plans = [
            res.plan,
            design_stochastic(res.route, train, pen)[0],
            brute_force_windows(res.route, train, pen),
            design_fixed_width(res.route, train, pen),
        ]
        for plan in plans:
            rep = evaluate_plan(res.route, plan, train)
            assert np.array_equal(plan.early_rate, rep.early_count / q), (case, plan.kind)
            assert np.array_equal(plan.late_rate, rep.late_count / q), (case, plan.kind)
            if case == len(cases) - 1:
                assert not plan.early_rate.any() and not plan.late_rate.any(), plan.kind


# ---------------------------------------------------------------------------
# waiting-time simulation


def test_waiting_recursion_frozen_example():
    route, samples = line_route_with_samples([[5.0, 3.0, 1.0]])
    out = simulate_waiting(route, {1: 6.0, 2: 10.0}, samples)
    # wait at customer 1 until 6, travel 3 -> 9, wait until 10
    assert out.tolist() == [[6.0, 10.0]]
    out2 = simulate_waiting(route, {1: 0.0, 2: 0.0}, samples)
    assert out2.tolist() == [[5.0, 8.0]]


def test_waiting_matches_unrolled_bit_exactly():
    rng = np.random.default_rng(21)
    for trial in range(30):
        n = int(rng.integers(1, 6))
        net = random_network(n, seed=trial, complete=True)
        seq = [0] + list(rng.permutation(np.arange(1, n + 1))) + [0]
        route = route_to_xy(seq, net)
        samples = sample_travel_times(net, 20, seed=trial + 1)
        lowers = {k: float(rng.uniform(0.0, 40.0)) for k in route.customers}
        a = simulate_waiting(route, lowers, samples)
        b = simulate_waiting_unrolled(route, lowers, samples)
        assert np.array_equal(a, b), trial


def test_waiting_missing_lower():
    route, samples = line_route_with_samples([[1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="lower bound missing for customer 2"):
        simulate_waiting(route, {1: 0.0}, samples)
    with pytest.raises(ValueError, match="lower bound missing for customer 2"):
        simulate_waiting_unrolled(route, {1: 0.0}, samples)


def test_waiting_rejects_non_finite_lower():
    route, samples = line_route_with_samples([[1.0, 1.0, 1.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="lower bound for customer 2 must be finite"):
            simulate_waiting(route, {1: 0.0, 2: bad}, samples)


# ---------------------------------------------------------------------------
# sweeps and reports


def test_guideline_sweep_matches_manual_pipeline():
    net = random_network(3, seed=14, complete=True)
    rows = guideline_sweep(net, [(0.1, 0.1)], ["sm"], [7], q_train=60, q_test=80)
    assert len(rows) == 1
    row = rows[0]
    # rebuild the same cell by hand from the named substreams
    train = sample_travel_times(net, 60, substream(7, "sampling-train"))
    test = sample_travel_times(net, 80, substream(7, "sampling-test"))
    pen = penalties_from_beta(0.1, 0.1, 3)
    res = branch_and_bound(net, SaaModel(train), pen)
    rep = evaluate_plan(res.route, res.plan, test)
    assert row["model"] == "sm"
    assert row["objective"] == pytest.approx(res.objective, abs=0)
    assert row["early_rate"] == pytest.approx(rep.early_rate, abs=0)
    assert row["late_rate"] == pytest.approx(rep.late_rate, abs=0)
    assert row["width"] == pytest.approx(rep.mean_length, abs=0)
    assert row["budget_used"] == pytest.approx(SaaModel(train).budget(net, res.route.x), abs=0)


def test_guideline_sweep_rm_draws_only_test_scenarios(monkeypatch):
    import twdesign.evaluate

    net = random_network(3, seed=5, complete=True)
    pen = penalties_from_beta(0.1, 0.1, 3)
    want = []
    for seed in (4, 9):
        test = sample_travel_times(net, 50, substream(seed, "sampling-test"))
        res = branch_and_bound(net, DroModel(0.2, 0.1), pen)
        rep = evaluate_plan(res.route, res.plan, test)
        want.append({
            "model": "rm", "beta_l": 0.1, "beta_u": 0.1, "seed": seed,
            "width": rep.mean_length, "early_rate": rep.early_rate, "late_rate": rep.late_rate,
            "objective": res.objective, "budget_used": res.budget_value,
        })
    draws = []

    def counting(net, q, seed):
        draws.append(q)
        return sample_travel_times(net, q, seed)

    monkeypatch.setattr(twdesign.evaluate, "sample_travel_times", counting)
    rows = guideline_sweep(net, [(0.1, 0.1)], ["rm"], [4, 9], q_train=70, q_test=50,
                           alpha1=0.2, alpha2=0.1)
    assert draws == [50, 50]  # test draws only: the moment model reads no training set
    assert rows == want


def test_guideline_sweep_does_each_piece_of_work_once(monkeypatch):
    # a seed's test draws serve every model and pair, its training draws
    # every pair, and the moment model (equal for all seeds) one solve a pair
    import twdesign.evaluate
    import twdesign.solver

    net = random_network(3, seed=8, complete=True)
    grid = [(0.1, 0.1), (0.05, 0.05)]
    seeds = [3, 4, 5]
    want = []
    for name in ("rm", "sm"):
        for beta_l, beta_u in sorted(grid):
            pen = penalties_from_beta(beta_l, beta_u, 3)
            for seed in seeds:
                train = sample_travel_times(net, 60, substream(seed, "sampling-train"))
                test = sample_travel_times(net, 50, substream(seed, "sampling-test"))
                res = branch_and_bound(net, SaaModel(train) if name == "sm" else DroModel(0.1, 0.2), pen)
                rep = evaluate_plan(res.route, res.plan, test)
                want.append({
                    "model": name, "beta_l": beta_l, "beta_u": beta_u, "seed": seed,
                    "width": rep.mean_length, "early_rate": rep.early_rate, "late_rate": rep.late_rate,
                    "objective": res.objective, "budget_used": res.budget_value,
                })
    draws, solves = [], []

    def drawing(net, q, seed):
        draws.append(q)
        return sample_travel_times(net, q, seed)

    def solving(net, model, pen):
        solves.append(model.name)
        return branch_and_bound(net, model, pen)

    monkeypatch.setattr(twdesign.evaluate, "sample_travel_times", drawing)
    monkeypatch.setattr(twdesign.solver, "sample_travel_times", drawing, raising=False)
    monkeypatch.setattr(twdesign.evaluate, "branch_and_bound", solving)
    rows = guideline_sweep(net, grid, ["sm", "rm"], seeds, q_train=60, q_test=50, alpha1=0.1, alpha2=0.2)
    assert sorted(draws) == [50] * 3 + [60] * 3  # a draw per cell would be 18
    assert sorted(solves) == ["rm"] * 2 + ["sm"] * 6  # a solve per cell would be 12
    assert rows == want


def test_guideline_sweep_row_order_and_models():
    net = random_network(2, seed=3, complete=True)
    rows = guideline_sweep(
        net, [(0.2, 0.2), (0.1, 0.1)], ["rm", "sm"], [2, 1], q_train=40, q_test=40
    )
    key = [(r["model"], r["beta_l"], r["seed"]) for r in rows]
    assert key == sorted(key)
    assert len(rows) == 8
    with pytest.raises(ValueError, match="unknown model 'xx'"):
        guideline_sweep(net, [(0.1, 0.1)], ["xx"], [1])


def test_report_rows_and_csv(tmp_path):
    route, samples = line_route_with_samples(
        [[5.0, 4.0, 1.0], [10.0, 8.0, 1.0], [15.0, 12.0, 1.0]]
    )
    plan = plan_for(route, [8.0, 10.0], [12.0, 20.0])
    rep = evaluate_plan(route, plan, samples)
    rows = report_rows(rep, model="sm", beta_l=0.1, beta_u=0.1, seed=3, objective=1.5)
    assert len(rows) == 3  # two customers plus the aggregate
    assert rows[0]["customer"] == 1
    assert "customer" not in rows[2]  # the aggregate row names no customer
    assert rows[2]["objective"] == 1.5
    path = tmp_path / "report.csv"
    write_report_csv(rows, path)
    with open(path, newline="") as fh:
        recs = list(csv.reader(fh))
    assert recs[0] == [
        "model",
        "beta_l",
        "beta_u",
        "seed",
        "customer",
        "lower",
        "upper",
        "width",
        "early_rate",
        "late_rate",
        "early_amt",
        "late_amt",
        "objective",
        "budget_used",
    ]
    assert len(recs) == 4
    # per-customer rows leave the aggregate-only fields empty
    assert recs[1][recs[0].index("objective")] == ""
    assert recs[3][recs[0].index("lower")] == ""
    # and so does the aggregate row's budget_used, which only the sweep fills
    assert recs[3][recs[0].index("budget_used")] == ""
    # and its customer cell is written blank
    assert recs[3][recs[0].index("customer")] == ""


def test_write_report_csv_rejects_unknown_columns(tmp_path):
    with pytest.raises(ValueError):
        write_report_csv([{"model": "sm", "bogus": 1}], tmp_path / "x.csv")
