"""Tests for the per-customer window optimisation layer.

Expected values in the frozen-constant tests were computed by hand from
small sample sets (order statistics, kink enumeration) before the
implementation existed.
"""

import dataclasses
import hashlib
import json
import math
import os
import random
import re
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import _candidate_widths, _inner_fixed_cost, design_fixed_width_unrolled, three_net
from twdesign import (
    DroModel,
    Network,
    PenaltyConfig,
    Route,
    SaaModel,
    SampleSet,
    WindowPlan,
    arrival_matrix,
    branch_and_bound,
    brute_force_windows,
    critical_indices,
    design_dro,
    design_fixed_width,
    design_stochastic,
    dro_window,
    evaluate_plan,
    gamma_coeffs,
    load_plan,
    oa_cut,
    penalties_from_beta,
    random_network,
    route_cost_rm,
    route_cost_sm,
    route_to_xy,
    saa_window,
    sample_travel_times,
    save_plan,
    scarf_earliness,
    scarf_tardiness,
    simulate_waiting,
    substream,
    write_cost_csv,
)
from twdesign import window_design
from twdesign.window_design import _window_cost, _Widths, _WidthPricer


def line_net(n_customers, tb=1000.0):
    """Path 0 -> 1 -> ... -> n -> 0 plus nothing else."""
    arcs = tuple((k, k + 1) for k in range(n_customers)) + ((n_customers, 0),)
    mean = np.full(len(arcs), 10.0)
    cov = np.zeros((len(arcs), len(arcs)))
    return Network(n_customers + 1, arcs, mean, cov, tb)


def line_route(n_customers, net=None):
    net = net or line_net(n_customers)
    return route_to_xy(list(range(n_customers + 1)) + [0], net), net


def _digest(value):
    """sha256 of an array's bytes, or the repr of any other value."""
    return hashlib.sha256(value.tobytes()).hexdigest() if isinstance(value, np.ndarray) else repr(value)


# ---------------------------------------------------------------------------
# penalty configuration


def test_penalty_config_basic():
    pen = PenaltyConfig(np.array([0.3, 0.05]), np.array([1.0, 1.0]), np.array([0.6, 1.0]))
    assert pen.n_customers == 2
    assert pen.for_customer(1) == (0.3, 1.0, 0.6)
    assert not pen.dro_valid  # 2*0.3 > 0.6 fails strict
    for k in (0, 3):
        with pytest.raises(ValueError, match=rf"^customer {k} outside 1\.\.2$"):
            pen.for_customer(k)
    pen2 = PenaltyConfig(np.array([0.05]), np.array([1.0]), np.array([1.0]))
    assert pen2.dro_valid


def test_penalty_config_rejects_bad_weights():
    one = np.ones(1)
    with pytest.raises(ValueError, match="penalty arrays must have equal length"):
        PenaltyConfig(one, np.ones(2), one)
    with pytest.raises(ValueError, match=r"lie in \(0, 1\]"):
        PenaltyConfig(0.0 * one, one, one)
    with pytest.raises(ValueError, match=r"lie in \(0, 1\]"):
        PenaltyConfig(one, 1.5 * one, one)
    # NaN passes neither "<= 0" nor "> 1", so it needs its own rejection
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"a_w: weights must lie in \(0, 1\]"):
            PenaltyConfig([bad], [0.5], [0.5])
        with pytest.raises(ValueError, match=r"a_u: weights must lie in \(0, 1\]"):
            PenaltyConfig([0.1], [0.5], [bad])
    # ratio a_w/a_l + a_w/a_u must stay at most 1
    with pytest.raises(ValueError, match=r"a_w/a_l \+ a_w/a_u"):
        PenaltyConfig(0.6 * one, one, one)


def test_penalty_configs_have_a_customer():
    # no customer count below one passes: penalties_from_beta names the
    # input as random_network does, where numpy once refused -1 with a
    # bare "negative dimensions" and 0 gave an empty config
    for n in (0, -1):
        with pytest.raises(ValueError, match=r"^n_customers must be >= 1$"):
            penalties_from_beta(0.05, 0.05, n)
    for empty in ([], np.ones(0)):
        with pytest.raises(ValueError, match=r"^penalty arrays must not be empty"):
            PenaltyConfig(empty, empty, empty)
    assert penalties_from_beta(0.05, 0.05, 1).n_customers == 1


def test_penalty_scaling_preserves_ratios():
    pen = PenaltyConfig(np.array([0.04]), np.array([0.5]), np.array([0.5]))
    s = pen.scaled(2.0)
    assert s.a_w[0] == pytest.approx(0.08)
    assert s.a_l[0] == pytest.approx(1.0)
    ranks_base = critical_indices(100, pen.a_w[0], pen.a_l[0], pen.a_u[0])
    ranks_scaled = critical_indices(100, s.a_w[0], s.a_l[0], s.a_u[0])
    assert ranks_base == ranks_scaled


def test_penalties_from_beta():
    pen = penalties_from_beta(0.05, 0.05, 3)
    np.testing.assert_allclose(pen.a_w, 0.05)
    np.testing.assert_allclose(pen.a_l, 1.0)
    np.testing.assert_allclose(pen.a_u, 1.0)
    pen = penalties_from_beta(0.1, 0.05, 1)
    assert pen.for_customer(1) == pytest.approx((0.05, 0.5, 1.0))
    # implied tolerated rates reproduce the betas
    assert pen.a_w[0] / pen.a_l[0] == pytest.approx(0.1)
    assert pen.a_w[0] / pen.a_u[0] == pytest.approx(0.05)
    with pytest.raises(ValueError, match="infeasible confidence"):
        penalties_from_beta(0.6, 0.6, 1)
    with pytest.raises(ValueError, match="infeasible confidence"):
        penalties_from_beta(0.0, 0.5, 1)


# ---------------------------------------------------------------------------
# critical ranks


def test_critical_indices_frozen_cases():
    assert critical_indices(4, 0.3, 1.0, 1.0) == (2, 3)
    assert critical_indices(1000, 0.05, 1.0, 1.0) == (50, 951)
    assert critical_indices(1, 0.3, 1.0, 1.0) == (1, 1)
    assert critical_indices(10, 0.3, 0.6, 1.0) == (5, 8)
    # exact ties resolve toward satisfying the inequality
    assert critical_indices(4, 0.25, 1.0, 1.0) == (1, 4)
    assert critical_indices(20, 0.05, 1.0, 1.0) == (1, 20)


def test_critical_indices_match_rational_arithmetic():
    # independent check with exact fractions, no floating point
    for q in (1, 2, 3, 7, 10, 64, 100, 333):
        for num, den in ((1, 20), (1, 10), (3, 10), (1, 3), (1, 2)):
            a_w = Fraction(num, den)
            for a_l, a_u in ((Fraction(1), Fraction(1)), (Fraction(3, 5), Fraction(1))):
                if a_w / a_l + a_w / a_u > 1:
                    continue
                p1 = next(p for p in range(1, q + 1) if a_w <= Fraction(p, q) * a_l)
                p2 = next(
                    p for p in range(q, 0, -1) if a_w <= Fraction(q - p + 1, q) * a_u
                )
                got = critical_indices(q, float(a_w), float(a_l), float(a_u))
                assert got == (p1, p2), (q, a_w, a_l, a_u)


def _ranks_by_definition(q, a_w, a_l, a_u):
    """(P1, P2) by testing every rank against the inequalities that define
    them: P1 the smallest r with a_w <= (r/q) a_l + tol, P2 the largest r
    with a_w <= ((q - r + 1)/q) a_u + tol."""
    tol = window_design.CMP_TOL
    p1 = min(r for r in range(1, q + 1) if a_w <= r / q * a_l + tol)
    p2 = max(r for r in range(1, q + 1) if a_w <= (q - r + 1) / q * a_u + tol)
    return p1, p2


def test_critical_indices_match_their_definition():
    # weights on a rank boundary r/q * a_side, 1e-13 or one ulp either side
    # of it, and at random, at weight scales from 1e-3 to 1e6
    rng = random.Random(0)
    tol = window_design.CMP_TOL
    checked = 0
    for _ in range(3000):
        q = rng.choice((1, 2, 3, 4, 5, 7, 10, 20, 64, 100, 333, 1000))
        scale = rng.choice((1.0, 1.0, 1e-3, 1e3, 1e6))
        a_l, a_u = (scale * rng.choice((1.0, 0.6, rng.uniform(0.05, 1.0))) for _ in range(2))
        edge = rng.randint(1, q) / q * rng.choice((a_l, a_u))
        a_w = rng.choice((edge, edge - 1e-13, edge + 1e-13, math.nextafter(edge, 0), math.nextafter(edge, 2 * edge),
                          rng.uniform(0, 1) / (1 / a_l + 1 / a_u)))
        if not (a_w <= a_l + tol and a_w <= a_u + tol):
            with pytest.raises(ValueError, match="a_w must not exceed min"):
                critical_indices(q, a_w, a_l, a_u)
            continue
        p1, p2 = _ranks_by_definition(q, a_w, a_l, a_u)
        if p1 > p2:
            with pytest.raises(ValueError, match="ranks crossed"):
                critical_indices(q, a_w, a_l, a_u)
            continue
        assert critical_indices(q, a_w, a_l, a_u) == (p1, p2), (q, a_w, a_l, a_u)
        checked += 1
    assert checked > 1500


def test_critical_indices_rejects_bad_weights():
    with pytest.raises(ValueError, match="no valid quantile"):
        critical_indices(10, 0.9, 0.5, 1.0)
    # ratio sum above 1 can push the ranks past each other
    with pytest.raises(ValueError, match="ranks crossed"):
        critical_indices(3, 0.5, 0.6, 1.0)
    with pytest.raises(ValueError, match="q must be >= 1"):
        critical_indices(0, 0.1, 1.0, 1.0)


# ---------------------------------------------------------------------------
# sample-based windows


@pytest.mark.parametrize("arrivals", [[], [[8.0, 10.0]], 8.0])
def test_saa_window_rejects_non_vector_arrivals(arrivals):
    with pytest.raises(ValueError, match="^arrivals must be a non-empty 1-D array$"):
        saa_window(arrivals, 0.3, 1.0, 1.0)


def test_saa_window_worked_example():
    arr = np.array([8.0, 10.0, 12.0, 20.0])
    win = saa_window(arr, 0.3, 1.0, 1.0)
    assert (win.p1, win.p2) == (2, 3)
    assert win.lower == 10.0
    assert win.upper == 12.0
    assert win.cost == pytest.approx(3.1, abs=1e-12)
    np.testing.assert_allclose(win.rho1, [0.25, 0.05, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(win.rho2, [0.0, 0.0, 0.05, 0.25], atol=1e-12)


def test_saa_window_original_order_duals():
    # same samples shuffled: duals must follow the samples
    arr = np.array([12.0, 8.0, 20.0, 10.0])
    win = saa_window(arr, 0.3, 1.0, 1.0)
    assert (win.lower, win.upper) == (10.0, 12.0)
    np.testing.assert_allclose(win.rho1, [0.0, 0.25, 0.0, 0.05], atol=1e-12)
    np.testing.assert_allclose(win.rho2, [0.05, 0.0, 0.25, 0.0], atol=1e-12)


def test_saa_window_duals_certify_cost():
    rng = np.random.default_rng(0)
    cases = []
    for trial in range(40):
        q = int(rng.integers(1, 60))
        arr = rng.uniform(0.0, 50.0, q)
        a_l = float(rng.uniform(0.3, 1.0))
        a_u = float(rng.uniform(0.3, 1.0))
        # keep a_w/a_l + a_w/a_u at most 1 so a window always exists
        a_w = float(rng.uniform(0.01, 1.0)) * (a_l * a_u) / (a_l + a_u)
        cases.append((arr, a_w, a_l, a_u))
    # tied arrivals leave the rank order open, so the duals may sit on
    # either of two equal samples: rounded draws (at most seven values),
    # a few repeated values, all equal, and a_w/a_l + a_w/a_u = 1 at q = 9,
    # which puts both window edges on rank 5 (p1 == p2)
    ties = []
    for trial in range(20):
        q = int(rng.integers(8, 60))
        ties.append((np.round(rng.uniform(0.0, 6.0, q)), 0.2, 0.9, 0.7))
        ties.append((rng.choice([1.5, 4.0, 9.0], q), 0.1, 0.6, 1.0))
    ties.append((np.full(25, 3.0), 0.2, 0.9, 0.7))
    ties.append((np.array([2.0, 7.0, 7.0, 7.0, 7.0, 7.0, 1.0, 9.0, 7.0]), 0.5, 1.0, 1.0))
    ties.append((np.array([1.0, 0.0, 2.0, 1.0, 3.0, 1.0, 2.0, 0.0, 1.0]), 0.5, 1.0, 1.0))
    assert all(len(np.unique(arr)) < arr.size for arr, *_ in ties)
    for arr, a_w, a_l, a_u in cases + ties:
        q = arr.size
        win = saa_window(arr, a_w, a_l, a_u)
        assert win.lower <= win.upper
        # feasibility of the duals
        assert np.all(win.rho1 >= -1e-15) and np.all(win.rho1 <= a_l / q + 1e-15)
        assert np.all(win.rho2 >= -1e-15) and np.all(win.rho2 <= a_u / q + 1e-15)
        assert math.fsum(win.rho1) == pytest.approx(a_w, abs=1e-12)
        assert math.fsum(win.rho2) == pytest.approx(a_w, abs=1e-12)
        # strong duality: dual objective equals the primal cost
        dual_obj = float(arr @ (win.rho2 - win.rho1))
        assert dual_obj == pytest.approx(win.cost, abs=1e-9)
    assert win.p1 == win.p2 == 5


def test_saa_window_duals_sit_on_one_argpartition():
    # saa_window's ranking is one np.argpartition at both critical ranks,
    # also when p1 == p2 (a repeated kth), and the duals sit on it, with
    # ties too; the edges are the order statistics of those ranks
    rng = np.random.default_rng(11)
    for trial in range(200):
        q = int(rng.integers(1, 1200))
        arr = rng.normal(50.0, 10.0, q)
        if trial % 3 == 0:
            arr = np.round(arr)
        a_l, a_u = float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.3, 1.0))
        a_w = (a_l * a_u) / (a_l + a_u) * (1.0 if trial % 5 == 0 else float(rng.uniform(0.01, 1.0)))
        win = saa_window(arr, a_w, a_l, a_u)
        p1, p2 = win.p1, win.p2
        ranked = np.argpartition(arr, (p1 - 1, p2 - 1))
        rho1, rho2 = np.zeros(q), np.zeros(q)
        rho1[ranked[:p1]], rho2[ranked[p2 - 1:]] = window_design._rank_duals(q, p1, p2, a_w, a_l, a_u)
        assert np.array_equal(win.rho1, rho1) and np.array_equal(win.rho2, rho2), trial
        srt = np.sort(arr)
        assert (win.lower, win.upper) == (srt[p1 - 1], srt[p2 - 1]), trial


def test_window_cost_depends_on_the_sample_values_alone():
    # (lower, upper, cost) of the pricing kernel is bit for bit the same
    # under any order of the samples, and saa_window, which reads it off
    # its ranking with both tails sorted, gives the same bits: spread
    # draws, ties (rounded draws, few values, all equal), zeros, and
    # p1 == p2 (q = 999 at beta 0.5/0.5, which once moved the last bits)
    rng = np.random.default_rng(5)
    cases = []
    for q in (1, 2, 9, 50, 333, 1000):
        cases.append((rng.normal(50.0, 10.0, q), 0.05, 1.0, 1.0))
        cases.append((np.round(rng.normal(50.0, 10.0, q)), 0.2, 0.9, 0.7))
        cases.append((np.maximum(rng.normal(1.0, 2.0, q), 0.0), 0.1, 0.6, 1.0))
    cases.append((rng.choice([1.5, 4.0, 9.0], 400), 0.05, 1.0, 1.0))
    cases.append((np.full(25, 3.0), 0.2, 0.9, 0.7))
    cases.append((np.zeros(30), 0.05, 1.0, 1.0))
    cases.append((rng.normal(50.0, 10.0, 999), 0.5, 1.0, 1.0))
    cases.append((np.round(rng.normal(50.0, 10.0, 999)), 0.5, 1.0, 1.0))
    assert sum(critical_indices(arr.size, *w)[0] == critical_indices(arr.size, *w)[1] for arr, *w in cases) >= 3
    for c, (arr, *weights) in enumerate(cases):
        terms = (*critical_indices(arr.size, *weights), *weights)
        want = [float(v).hex() for v in window_design._order_stat_window(arr, *terms)]
        win = saa_window(arr, *weights)
        assert [v.hex() for v in (win.lower, win.upper, win.cost)] == want, c
        for order in [arr[::-1], *(rng.permutation(arr) for _ in range(5))]:
            got = [float(v).hex() for v in window_design._order_stat_window(order, *terms)]
            assert got == want, c
            win = saa_window(order, *weights)
            assert [v.hex() for v in (win.lower, win.upper, win.cost)] == want, c


def test_saa_window_beats_grid_of_alternatives():
    rng = np.random.default_rng(7)
    for trial in range(20):
        arr = rng.uniform(0.0, 30.0, 25)
        win = saa_window(arr, 0.2, 0.9, 0.7)

        def cost(lo, up):
            return (
                0.2 * (up - lo)
                + (0.9 / 25) * np.maximum(lo - arr, 0.0).sum()
                + (0.7 / 25) * np.maximum(arr - up, 0.0).sum()
            )

        for lo in np.linspace(arr.min() - 1, arr.max(), 30):
            for up in np.linspace(lo, arr.max() + 1, 30):
                assert win.cost <= cost(lo, up) + 1e-9


def test_design_stochastic_matches_brute_force():
    for seed in range(10):
        net = random_network(3, seed=seed, complete=True)
        route = route_to_xy([0, 1, 2, 3, 0], net)
        samples = sample_travel_times(net, 40, seed=seed + 50)
        pen = PenaltyConfig(
            np.array([0.3, 0.1, 0.25]),
            np.array([0.9, 1.0, 0.5]),
            np.array([0.7, 0.4, 1.0]),
        )
        plan, duals = design_stochastic(route, samples, pen)
        ref = brute_force_windows(route, samples, pen)
        # optimal values must agree; the argmin itself can differ when the
        # rank inequality is tight and the cost is flat between samples
        np.testing.assert_allclose(plan.cost_per_customer, ref.cost_per_customer, atol=1e-9)
        assert plan.total_cost == pytest.approx(ref.total_cost, abs=1e-9)
        assert set(duals) == {1, 2, 3}
        # the closed-form windows themselves price out at the optimal cost
        arr = arrival_matrix(route, samples.values)
        for pos, k in enumerate(route.customers):
            a_w, a_l, a_u = pen.for_customer(k)
            col = arr[:, pos]
            direct = (
                a_w * (plan.upper[pos] - plan.lower[pos])
                + (a_l / samples.q) * np.maximum(plan.lower[pos] - col, 0.0).sum()
                + (a_u / samples.q) * np.maximum(col - plan.upper[pos], 0.0).sum()
            )
            assert direct == pytest.approx(ref.cost_per_customer[pos], abs=1e-9)


def test_brute_force_frozen():
    # every field of one plan, bit for bit, with each customer's own
    # weights: ties keep the least cost, then width, then lower edge
    net = random_network(5, seed=2, complete=True)
    route = route_to_xy([0, 3, 1, 5, 2, 4, 0], net)
    samples = sample_travel_times(net, 120, seed=7)
    pen = PenaltyConfig(np.linspace(0.05, 0.2, 5), np.linspace(1.0, 0.5, 5), np.linspace(0.5, 1.0, 5))
    plan = brute_force_windows(route, samples, pen)
    digests = {f.name: _digest(getattr(plan, f.name)) for f in dataclasses.fields(plan)}
    assert digests == {
        "kind": "'saa-brute'",
        "route_seq": "(0, 3, 1, 5, 2, 4, 0)",
        "customers": "(3, 1, 5, 2, 4)",
        "lower": "1e305fa44176aee54c641c1411545577f07f44288133d60b8775f561bdb76eae",
        "upper": "90cf659b512ef149c2ad0926307366c3fb54f1fef1e73eb29a199bfc1a59610d",
        "cost_per_customer": "3945a36c99da202a23d111d5deafd9121169b0a56dadf38d78659e3709097913",
        "total_cost": "8.535776774379716",
        "shared_width": "None",
        "early_rate": "31023135dc9e9fe95f4f6bf332656b6c36a807233138cf115e914fb36b40b2bf",
        "late_rate": "b0ced6ebba498ec8ce2bda9a5ce84faa64719c1c6e068d66090f04820fd49729",
        "clamped": "None",
    }


def test_brute_force_refuses_large_q():
    route, net = line_route(1)
    samples = sample_travel_times(net, 501, seed=0)
    pen = penalties_from_beta(0.1, 0.1, 1)
    with pytest.raises(ValueError, match="q <= 500"):
        brute_force_windows(route, samples, pen)


def test_design_stochastic_empirical_rates():
    route, net = line_route(1)
    arr = np.arange(1.0, 101.0)  # arrivals 1..100 via a single arc
    values = np.zeros((100, net.n_arcs))
    values[:, 0] = arr
    samples = SampleSet(q=100, values=values)
    pen = penalties_from_beta(0.1, 0.2, 1)
    plan, _ = design_stochastic(route, samples, pen)
    # ranks: p1 = 10, p2 = 81, so 9 early and 19 late samples
    assert plan.window_for(1) == (10.0, 81.0)
    assert plan.early_rate[0] == pytest.approx(0.09)
    assert plan.late_rate[0] == pytest.approx(0.19)


# ---------------------------------------------------------------------------
# fixed shared width


def test_fixed_width_single_customer_equals_variable():
    route, net = line_route(1)
    values = np.zeros((4, net.n_arcs))
    values[:, 0] = [8.0, 10.0, 12.0, 20.0]
    samples = SampleSet(q=4, values=values)
    pen = PenaltyConfig(np.array([0.3]), np.array([1.0]), np.array([1.0]))
    plan = design_fixed_width(route, samples, pen)
    assert plan.shared_width == pytest.approx(2.0)
    assert plan.window_for(1) == (10.0, 12.0)
    assert plan.total_cost == pytest.approx(3.1, abs=1e-12)


def test_fixed_width_two_customers_frozen():
    # customer 1 arrivals {10, 11}; customer 2 arrivals {20, 30}
    route, net = line_route(2)
    values = np.zeros((2, net.n_arcs))
    values[:, 0] = [10.0, 11.0]
    values[:, 1] = [10.0, 19.0]  # cumulative: 20, 30
    samples = SampleSet(q=2, values=values)
    pen = PenaltyConfig(0.3 * np.ones(2), np.ones(2), np.ones(2))
    plan = design_fixed_width(route, samples, pen)
    assert plan.shared_width == pytest.approx(1.0)
    np.testing.assert_allclose(plan.lower, [10.0, 20.0], atol=1e-12)
    assert plan.total_cost == pytest.approx(5.1, abs=1e-12)


def test_fixed_width_never_beats_variable():
    for seed in range(8):
        net = random_network(3, seed=seed, complete=True)
        route = route_to_xy([0, 2, 1, 3, 0], net)
        samples = sample_travel_times(net, 60, seed=seed + 9)
        pen = penalties_from_beta(0.1, 0.1, 3)
        fixed = design_fixed_width(route, samples, pen)
        var, _ = design_stochastic(route, samples, pen)
        assert fixed.total_cost >= var.total_cost - 1e-9
        np.testing.assert_allclose(fixed.width, fixed.shared_width, atol=1e-12)


def test_fixed_width_optimal_on_candidate_grid():
    # exhaustively check the returned width against every candidate width
    rng = np.random.default_rng(3)
    for trial in range(6):
        net = random_network(2, seed=trial, complete=True)
        route = route_to_xy([0, 1, 2, 0], net)
        samples = sample_travel_times(net, 15, seed=trial)
        pen = penalties_from_beta(0.15, 0.1, 2)
        plan = design_fixed_width(route, samples, pen)
        arr = np.cumsum(samples.values[:, [net.arc_index[(0, 1)], net.arc_index[(1, 2)]]], axis=1)
        cand = {0.0}
        for pos in range(2):
            col = arr[:, pos]
            cand.update(float(d) for d in np.subtract.outer(col, col).ravel() if d >= 0)

        def total(w):
            tot = 0.0
            for pos, k in enumerate(route.customers):
                a_w, a_l, a_u = pen.for_customer(k)
                col = arr[:, pos]
                best = min(
                    (a_l / 15) * np.maximum(lo - col, 0.0).sum()
                    + (a_u / 15) * np.maximum(col - lo - w, 0.0).sum()
                    for lo in np.maximum(np.concatenate((col, col - w, [0.0])), 0.0)
                )
                tot += a_w * w + best
            return tot

        best_grid = min(total(w) for w in cand)
        assert plan.total_cost == pytest.approx(best_grid, abs=1e-9)


def test_fixed_width_needs_shared_a_w():
    route, net = line_route(2)
    samples = sample_travel_times(net, 5, seed=0)
    pen = PenaltyConfig(np.array([0.1, 0.2]), np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="customer-independent a_w"):
        design_fixed_width(route, samples, pen)


@pytest.mark.parametrize("spacing", ["even", "drawn"])
def test_fixed_width_large_q_matches_unrolled_search(spacing):
    # n = 1, q = 4,473: 10,000,129 candidate widths, more than the q^2 grid
    # of earlier versions could hold.  Evenly spaced arrivals give many
    # pairs the same difference, bit for bit, and each pair is a candidate
    route, net = line_route(1)
    q = 4473
    values = np.zeros((q, net.n_arcs))
    rng = np.random.default_rng(4)
    values[:, 0] = np.linspace(1.0, 2.0, q) if spacing == "even" else rng.gamma(4.0, 10.0, q)
    samples = SampleSet(q=q, values=values)
    pen = penalties_from_beta(0.1, 0.1, 1)
    _assert_plans_identical(design_fixed_width(route, samples, pen),
                            design_fixed_width_unrolled(route, samples, pen))


def test_fixed_width_integer_arrivals_match_unrolled_search():
    # integer arrivals: most differences are given by many pairs
    route, net = line_route(3)
    rng = np.random.default_rng(11)
    values = np.zeros((60, net.n_arcs))
    values[:, :3] = rng.integers(0, 12, (60, 3))
    samples = SampleSet(q=60, values=values)
    arr = arrival_matrix(route, values)
    assert len(_candidate_widths(arr.T)) > 2 * len(np.unique(_candidate_widths(arr.T)))
    for beta in (0.05, 0.2):
        pen = penalties_from_beta(beta, beta, 3)
        _assert_plans_identical(design_fixed_width(route, samples, pen),
                                design_fixed_width_unrolled(route, samples, pen))


def test_fixed_width_steps_over_runs_of_equal_widths():
    # arrivals {0, 1, 2} and {1, 1, 2}: the candidates are 0, 1, 1, 1, 2.
    # Two probes inside the run of 1s tie, and a search that read the tie
    # as a bracket kept the width 1 at cost 0.433 instead of 2 at cost 0.2
    route, net = line_route(2)
    values = np.zeros((3, net.n_arcs))
    values[:, 0] = [0.0, 1.0, 2.0]
    values[:, 1] = [1.0, 0.0, 0.0]
    samples = SampleSet(q=3, values=values)
    pen = penalties_from_beta(0.05, 0.05, 2)
    assert _candidate_widths(arrival_matrix(route, values).T).tolist() == [0.0, 1.0, 1.0, 1.0, 2.0]
    plan = design_fixed_width(route, samples, pen)
    assert plan.shared_width == 2.0 and plan.total_cost == pytest.approx(0.2, abs=1e-12)
    _assert_plans_identical(plan, design_fixed_width_unrolled(route, samples, pen))


@st.composite
def _tied_steps(draw):
    """Travel times of 1-4 customers on a grid of halves, so that the
    arrivals tie and most candidate widths come in runs."""
    n = draw(st.integers(1, 4))
    top = draw(st.integers(1, 12))
    steps = draw(st.lists(st.lists(st.integers(0, top), min_size=n, max_size=n), min_size=1, max_size=30))
    return 0.5 * np.array(steps, dtype=float)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(steps=_tied_steps(), beta=st.sampled_from([0.05, 0.1, 0.2, 0.3]))
def test_fixed_width_on_tied_arrivals_matches_unrolled_search(steps, beta):
    # the reference searches the np.unique grid, one index per width.  Where
    # the total is flat over several widths the two searches may stop at
    # different ones, so only the totals must agree there
    q, n = steps.shape
    route, net = line_route(n)
    values = np.zeros((q, net.n_arcs))
    values[:, :n] = steps
    samples = SampleSet(q=q, values=values)
    pen = penalties_from_beta(beta, beta, n)
    plan = design_fixed_width(route, samples, pen)
    want = design_fixed_width_unrolled(route, samples, pen)
    assert plan.total_cost == pytest.approx(want.total_cost, rel=1e-12, abs=1e-12)
    _assert_costs_price_the_stored_windows(plan, route, samples, pen)
    if plan.shared_width == want.shared_width:
        _assert_plans_identical(plan, want)


def test_fixed_width_ten_customers_at_q_5000():
    # n = 10, q = 5,000: 124,975,001 candidate widths
    route, train, pen = _desk_like(10, 5000, 0, 0.05)
    plan = design_fixed_width(route, train, pen)
    assert plan.total_cost >= design_stochastic(route, train, pen)[0].total_cost
    _assert_costs_price_the_stored_windows(plan, route, train, pen)


# zero stands for a clamped arrival; a small pool of values makes ties
_arrival = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 7.25]), st.floats(0.0, 100.0))


@st.composite
def _arrival_rows(draw):
    """Scenario rows of 1-4 customers' arrivals, some rows repeated."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_arrival, min_size=n, max_size=n), min_size=1, max_size=30))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=6))
    return np.array(rows + [rows[i] for i in repeats])


@st.composite
def _ulp_clusters(draw):
    """Scenario rows of 1-2 customers' arrivals a few ulps apart."""
    base = draw(st.floats(1.0, 1e4))
    n = draw(st.integers(1, 2))
    steps = draw(st.lists(st.lists(st.integers(0, 12), min_size=n, max_size=n), min_size=1, max_size=30))
    return base + np.array(steps) * np.spacing(base)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=st.one_of(_arrival_rows(), _ulp_clusters()), span=st.tuples(st.floats(0, 1), st.floats(0, 1)))
@example(rows=np.array([[3.0, 0.0]]), span=(0.0, 1.0))  # q = 1: zero alone
@example(rows=np.array([[0.0], [0.0], [2.0], [2.0], [5.0]]), span=(0.0, 1.0))
@example(rows=np.array([[-0.0], [0.0], [1.0]]), span=(0.0, 1.0))
@example(rows=np.array([[0.0], [1.0], [3.0], [4.0]]), span=(0.2, 0.8))  # 1 1 2 3 3 4
# at x = fl(0.7 - 0.15) = 0.5499999999999999 the guess for row 0.7 searches
# fl(0.7 - x) = 0.15000000000000002 and leaves out 0.15, whose difference is x
@example(rows=np.array([[0.1], [0.15], [0.3], [0.7], [1.1]]), span=(0.0, 1.0))
def test_widths_are_the_sorted_candidates(rows, span):
    srt = np.sort(rows.T, axis=1)
    values = _candidate_widths(srt)
    want = [repr(float(w)) for w in values]
    # the count of positive widths at most x >= 0 is exact at widths and
    # one ulp either side
    widths = _Widths(srt)
    for v in values[::max(1, len(values) // 20)]:
        for x in (max(np.nextafter(v, -np.inf), 0.0), v, np.nextafter(v, np.inf)):
            assert widths._cut(float(x))[1] == np.count_nonzero(values[1:] <= x), x
    with pytest.MonkeyPatch.context() as mp:
        # every entry is selected through samples of the list, down to
        # brackets of one entry
        mp.setattr(window_design, "_LISTED", 0)
        widths = _Widths(srt)
        assert [repr(widths[i]) for i in range(widths.size)] == want
        # a listed bracket, which holds a positive width, holds the same entries
        lo, hi = sorted(round(f * (len(want) - 1)) for f in span)
        if hi:
            mp.setattr(window_design, "_LISTED", hi - lo + 1)
            widths.narrow(lo, hi)
            first, listed = widths.listed
            assert first <= max(lo, 1) and hi < first + len(listed)
            assert [repr(widths[i]) for i in range(lo, hi + 1)] == want[lo:hi + 1]


def test_widths_select_through_strided_samples():
    # 3 customers, q = 600: the list's sample takes every 3rd difference,
    # and a bracket wider than 1,000 entries is sampled again.  Rounded
    # arrivals tie, and a tenth are zero
    rng = np.random.default_rng(5)
    srt = np.round(rng.gamma(4.0, 10.0, (3, 600)), 2)
    srt[rng.random(srt.shape) < 0.1] = 0.0
    srt.sort(axis=1)
    want = _candidate_widths(srt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(window_design, "_LISTED", 1000)
        widths = _Widths(srt)
        assert widths.stride > 1 and widths.size == len(want)
        for i in (0, 1, 2, *rng.integers(0, len(want), 200), len(want) - 2, len(want) - 1):
            assert repr(widths[int(i)]) == repr(float(want[i])), i


def _desk_like(n, q, instance, beta):
    net = random_network(n, seed=instance)
    train = sample_travel_times(net, q, substream(instance, "sampling-train"))
    pen = penalties_from_beta(beta, beta, n)
    return branch_and_bound(net, SaaModel(train), pen).route, train, pen


def test_fixed_width_memory_is_linear_in_the_arrivals():
    # n = 6, q = 600: 1,078,201 candidate widths, whose q^2 grid alone
    # traced 8.6 MB.  A call holds arrays of n q entries, a sample of about
    # 32 sqrt(n q^2 / 2), and one listed bracket of at most 2^17 plus margins
    route, train, pen = _desk_like(6, 600, 3, 0.05)
    tracemalloc.start()
    try:
        design_fixed_width(route, train, pen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 100 * 8 * 6 * 600


def test_width_pricing_memory():
    # a width allocates arrays of its coarse entries and its brackets alone
    route, train, pen = _desk_like(6, 600, 3, 0.05)
    srt = np.sort(arrival_matrix(route, train.values).T, axis=1)
    price = _WidthPricer(srt, *np.array([pen.for_customer(k)[1:] for k in route.customers]).T)
    widths = [0.0, float(srt[0, 400] - srt[0, 100]), float(srt.max())]
    price(widths[1])
    array_bytes = 8 * srt.shape[0] * (srt.shape[1] + 1)
    for width in widths:
        tracemalloc.start()
        try:
            price(width)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * array_bytes, width


def test_width_pricer_keeps_only_its_tables():
    # after a width the pricer holds its tables, three n x (q + 1) arrays
    # (the prefix sums, the first list and its earliness), and their coarse
    # entries; buffers sized for pricing every entry held about 25 such arrays
    route, _, pen = _desk_like(10, 1000, 0, 0.05)
    q = 10_000
    draws = sample_travel_times(random_network(10, seed=0), q, substream(0, "sampling-train"))
    srt = np.sort(arrival_matrix(route, draws.values).T, axis=1)
    tracemalloc.start()
    try:
        price = _WidthPricer(srt, *np.array([pen.for_customer(k)[1:] for k in route.customers]).T)
        price(float(srt[0, q // 2] - srt[0, q // 4]))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 5 * 8 * 10 * (q + 1)


def _array_digests(plan):
    """sha256 of the bytes of a plan's window edges and costs."""
    return {name: _digest(getattr(plan, name)) for name in ("lower", "upper", "cost_per_customer")}


def _assert_costs_price_the_stored_windows(plan, route, samples, pen):
    """Each customer's cost is, bit for bit, the cost of its window as stored."""
    arr = arrival_matrix(route, samples.values)
    for pos, k in enumerate(route.customers):
        cost = _window_cost(arr[:, pos], plan.lower[pos], plan.upper[pos], *pen.for_customer(k))
        assert repr(float(cost)) == repr(float(plan.cost_per_customer[pos])), k


def test_fixed_width_desk_instance_frozen():
    # desk instance 0 at draw seed 0, beta 0.05: the window edges as the
    # np.unique grid chose them, each priced as stored
    route, train, pen = _desk_like(10, 1000, 0, 0.05)
    plan = design_fixed_width(route, train, pen)
    assert plan.shared_width == 33.046633564581285
    assert plan.total_cost == 22.46325907121597
    assert _array_digests(plan) == {
        "lower": "503ba8272e21cde461d9596b129cb77733dbb869cc115a0ad7b2997c498e9883",
        "upper": "b252ae2da963e3d6a9eac4c4c9428444e26ab6e3c1dd0323217e7557ec67dc64",
        "cost_per_customer": "6b970888cd3e0fe0989f51a5868371c0c82b04cbcda85f396aab16822871a3c2",
    }
    _assert_costs_price_the_stored_windows(plan, route, train, pen)


def test_fixed_width_desk_instance_frozen_tight_beta():
    # the same instance at beta 0.025
    route, train, pen = _desk_like(10, 1000, 0, 0.025)
    plan = design_fixed_width(route, train, pen)
    assert plan.shared_width == 41.9294629790824
    assert plan.total_cost == 13.221223884127433
    assert _array_digests(plan) == {
        "lower": "e2f72854f3bb34cacfd116e4df9e9e78d4d36ddad239ec9ad6e9d5884af41e5e",
        "upper": "35ca4c86a0d7ef59ace0895feb85ba847dcf0af3d9b3930f7a21c6e2dcf03390",
        "cost_per_customer": "5ee820e53a377cd2374050377015b21e0062ffb6873cb935adda44ce0e4b4f95",
    }
    _assert_costs_price_the_stored_windows(plan, route, train, pen)


@st.composite
def _priced_widths(draw):
    """Arrival rows, a width and per-customer a_l, a_u: the width is zero,
    a pairwise difference of one customer's arrivals, wider than every
    customer's spread, or any width."""
    rows = draw(_arrival_rows())
    q, n = rows.shape
    col = rows[:, draw(st.integers(0, n - 1))]
    width = draw(st.one_of(
        st.just(0.0),
        st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)).map(lambda ab: abs(col[ab[0]] - col[ab[1]])),
        st.floats(0.0, 50.0).map(lambda extra: float(np.ptp(rows, axis=0).max()) + extra),
        st.floats(0.0, 150.0),
    ))
    weight = st.floats(0.05, 1.0)
    a_l, a_u = (np.array(draw(st.lists(weight, min_size=n, max_size=n))) for _ in range(2))
    return rows, width, a_l, a_u


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_priced_widths())
@example(case=(np.array([[3.0, 0.0]]), 0.0, np.array([1.0, 0.5]), np.array([0.5, 1.0])))  # q = 1
@example(case=(np.array([[3.0, 0.0]]), 4.0, np.array([1.0, 0.5]), np.array([0.5, 1.0])))
@example(case=(np.array([[0.0], [0.0], [2.0], [2.0], [5.0]]), 2.0, np.array([0.3]), np.array([0.9])))
# in each example below the least cost is at a candidate whose rank does
# not follow from the ranks of the arrivals it was computed from.
# fl(0.2 + 0.3) = 0.5 is not below 0.5, yet 0.2 <= fl(0.5 - 0.3): counting
# the arrivals s with s + w below 0.5 puts (0.5 - 0.3)+ one rank too low
@example(case=(np.array([[0.15], [0.2], [0.5]]), 0.3, np.array([0.4]), np.array([0.8])))
# (s - w) + w lands one ulp below s = 43.80750676069152, a rank below s's own
@example(case=(np.array([[17.1], [43.80750676069152], [50.0]]), 0.4434662043770068,
               np.array([0.9]), np.array([0.5])))
# (s - w) + w lands on the next arrival, a rank above s's own
@example(case=(np.array([[7.5], [7.772553918630508], [7.772553918630509]]), 0.03997125280405944,
               np.array([0.7]), np.array([0.6])))
# wider than every arrival: every arrival clamps, and its l + w ranks as w
@example(case=(np.array([[0.0], [1.0], [2.5], [2.5]]), 7.25, np.array([0.9]), np.array([0.2])))
# the examples below reach each end of the bracket of the pricer's coarse
# pass, which prices every ceil(sqrt q)-th candidate.  Wider than every
# arrival: the least cost, 0, is at start 0 and again at the first arrival
@example(case=(np.array([[0.5], [1.5], [2.0], [3.25], [4.0], [5.5], [6.0], [7.75], [9.0]]), 12.5,
               np.array([0.6]), np.array([0.3])))
# the least cost is at the largest arrival, the first list's last (coarse)
# entry, so the bracket is open after it
@example(case=(np.array([[0.5], [1.5], [2.0], [3.25], [4.0], [5.5], [6.0], [7.75], [9.0]]), 0.0,
               np.array([0.05]), np.array([1.0])))
# the cost is flat from 2.0 to 3.5, the first list's entries 2 and 3, and
# entry 3 is coarse: the least cost is at 2.0, before the coarse entry
@example(case=(np.array([[1.0], [2.0], [3.5], [6.25], [7.0], [8.0], [9.0], [9.5]]), 0.0,
               np.array([0.9]), np.array([0.3])))
# ceil(sqrt q) steps up at q = 4 and q = 9 and stays at q = 3 and q = 8
@example(case=(np.array([[4.5, 0.0], [1.25, 3.0], [7.0, 0.0]]), 3.0, np.array([0.7, 0.4]), np.array([0.3, 0.9])))
@example(case=(np.array([[4.5, 0.0], [1.25, 3.0], [7.0, 0.0], [2.75, 5.5]]), 1.75,
               np.array([0.7, 0.4]), np.array([0.3, 0.9])))
@example(case=(np.array([[9.5], [1.25], [3.0], [7.0], [0.0], [2.75], [5.5], [4.0]]), 2.25,
               np.array([0.35]), np.array([0.8])))
@example(case=(np.array([[9.5], [1.25], [3.0], [7.0], [0.0], [2.75], [5.5], [4.0], [6.5]]), 2.25,
               np.array([0.35]), np.array([0.8])))
def test_width_pricer_matches_inner_scan(case):
    rows, width, a_l, a_u = case
    q = rows.shape[0]
    srt = np.sort(rows.T, axis=1)
    costs, starts = _WidthPricer(srt, a_l, a_u)(width)
    for k, row in enumerate(srt):
        cum = np.concatenate(([0.0], np.cumsum(row)))
        cost, start = _inner_fixed_cost(row, cum, float(a_l[k]), float(a_u[k]), q, width)
        assert (repr(float(costs[k])), repr(float(starts[k]))) == (repr(cost), repr(start))


def test_width_pricer_matches_inner_scan_on_clustered_arrivals():
    # arrivals a few ulps apart: neighbouring candidates' costs differ by
    # less than their rounding, so the coarse pass's least cost may sit
    # several coarse entries from the first least cost, and only the slack
    # of 4 err keeps that in the bracket
    rng = np.random.default_rng(0)
    for q in (36, 100, 400):
        for _ in range(50):
            base = float(rng.uniform(100.0, 1000.0))
            ulp = float(np.spacing(base))
            srt = np.sort(base + rng.integers(0, 40, (1, q)) * ulp * int(rng.integers(1, 4)), axis=1)
            a_l, a_u = rng.uniform(0.05, 1.0, (2, 1))
            width = float(rng.choice([0.0, ulp * int(rng.integers(1, 30)), rng.uniform(0.0, 1e-10)]))
            (cost,), (start,) = _WidthPricer(srt, a_l, a_u)(width)
            cum = np.concatenate(([0.0], np.cumsum(srt[0])))
            want = _inner_fixed_cost(srt[0], cum, float(a_l[0]), float(a_u[0]), q, width)
            assert (repr(float(cost)), repr(float(start))) == tuple(map(repr, want)), (q, base, width)


def test_width_pricer_matches_inner_scan_at_large_q():
    # q = 5,000: the coarse pass prices every 71st candidate.  The arrivals
    # are rounded to one decimal, so they tie, and a tenth of them are zero
    rng = np.random.default_rng(8)
    q = 5000
    for n in (1, 2, 3):
        srt = np.round(rng.gamma(4.0, 10.0, (n, q)), 1)
        srt[rng.random((n, q)) < 0.1] = 0.0
        srt.sort(axis=1)
        a_l, a_u = rng.uniform(0.05, 1.0, (2, n))
        price = _WidthPricer(srt, a_l, a_u)
        cums = [np.concatenate(([0.0], np.cumsum(row))) for row in srt]
        a, b = rng.integers(0, q, 2)
        spread = float(np.ptp(srt, axis=1).max())
        for width in (0.0, abs(float(srt[-1, a] - srt[-1, b])), spread + 0.5, *rng.uniform(0.0, spread, 6)):
            costs, starts = price(width)
            for k, row in enumerate(srt):
                cost, start = _inner_fixed_cost(row, cums[k], float(a_l[k]), float(a_u[k]), q, width)
                assert (repr(float(costs[k])), repr(float(starts[k]))) == (repr(cost), repr(start)), (n, width, k)


def _assert_plans_identical(got, want):
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert repr(a) == repr(b), field.name


def test_fixed_width_matches_unrolled_search():
    # desk-like instances; the last config gives each customer its own
    # a_l and a_u under the shared a_w
    for seed in range(5):
        n, q = 3 + seed % 4, 100 + 50 * seed
        for beta in (0.05, 0.025):
            route, train, pen = _desk_like(n, q, seed, beta)
            _assert_plans_identical(design_fixed_width(route, train, pen),
                                    design_fixed_width_unrolled(route, train, pen))
        mixed = PenaltyConfig(np.full(n, 0.05), np.linspace(0.4, 1.0, n), np.linspace(1.0, 0.3, n))
        _assert_plans_identical(design_fixed_width(route, train, mixed),
                                design_fixed_width_unrolled(route, train, mixed))


# ---------------------------------------------------------------------------
# worst-case moment bounds


def test_scarf_bounds_frozen_values():
    # m = 10, s = 2, l = 9: (d + sqrt(s^2 + d^2)) / 2 with d = -1
    assert scarf_earliness(9.0, 10.0, 4.0) == pytest.approx((math.sqrt(5) - 1) / 2)
    assert scarf_tardiness(11.0, 10.0, 4.0) == pytest.approx((math.sqrt(5) - 1) / 2)
    # zero variance collapses to the deterministic positive part
    assert scarf_earliness(12.0, 10.0, 0.0) == pytest.approx(2.0)
    assert scarf_earliness(8.0, 10.0, 0.0) == pytest.approx(0.0)
    assert scarf_tardiness(10.0, 10.0, 9.0) == pytest.approx(1.5)


def test_scarf_bound_attained_by_two_point_family():
    # every mean/variance-feasible two-point law stays below the bound,
    # and the best one reaches it
    m, s, lo = 10.0, 2.0, 9.0
    bound = scarf_earliness(lo, m, s * s)
    best = 0.0
    for t in np.linspace(0.05, 5.0, 2000):
        p_hi = 1.0 / (1.0 + t * t)
        x_hi = m + s * t
        x_lo = m - s / t
        val = p_hi * max(lo - x_hi, 0.0) + (1 - p_hi) * max(lo - x_lo, 0.0)
        assert val <= bound + 1e-12
        best = max(best, val)
    assert best == pytest.approx(bound, abs=1e-5)


def test_gamma_coeffs_values():
    gl, gu = gamma_coeffs(0.05, 1.0, 1.0)
    assert gl == pytest.approx(math.sqrt(0.05 * 0.95))
    assert gu == gl
    gl, gu = gamma_coeffs(0.1, 0.5, 1.0)
    assert gl == pytest.approx(math.sqrt(0.1 * 0.4))
    assert gu == pytest.approx(math.sqrt(0.1 * 0.9))
    # boundary 2 a_w = a_side degenerates to a_side / 2
    gl, gu = gamma_coeffs(0.5, 1.0, 1.0)
    assert gl == pytest.approx(0.5)
    with pytest.raises(ValueError, match="2\\*a_w"):
        gamma_coeffs(0.6, 1.0, 1.0)


def test_dro_window_worked_case():
    lo, up, cost, clamped = dro_window(100.0, 100.0, 0.05, 1.0, 1.0)
    wing = 0.9 / math.sqrt(0.19)
    assert lo == pytest.approx(100.0 - 10.0 * wing, abs=1e-9)
    assert up == pytest.approx(100.0 + 10.0 * wing, abs=1e-9)
    assert lo == pytest.approx(79.35258395, abs=1e-6)
    assert up == pytest.approx(120.64741605, abs=1e-6)
    gl, gu = gamma_coeffs(0.05, 1.0, 1.0)
    assert cost == pytest.approx((gl + gu) * 10.0, abs=1e-9)
    assert cost == pytest.approx(4.35889894354, abs=1e-9)
    assert not clamped


def test_dro_window_asymmetric_and_boundary():
    # asymmetric weights move the wings by different multiples
    lo, up, cost, _ = dro_window(50.0, 25.0, 0.05, 0.5, 1.0)
    wl = (1 - 2 * 0.1) / math.sqrt(1 - (1 - 2 * 0.1) ** 2)
    wu = (1 - 2 * 0.05) / math.sqrt(1 - (1 - 2 * 0.05) ** 2)
    assert lo == pytest.approx(50.0 - 5.0 * wl)
    assert up == pytest.approx(50.0 + 5.0 * wu)
    gl, gu = gamma_coeffs(0.05, 0.5, 1.0)
    assert cost == pytest.approx((gl + gu) * 5.0, abs=1e-9)
    # boundary beta = 1/2 puts the edge on the mean
    lo, up, cost, _ = dro_window(50.0, 25.0, 0.5, 1.0, 1.0)
    assert lo == pytest.approx(50.0)
    assert up == pytest.approx(50.0)
    assert cost == pytest.approx(5.0)


def test_dro_window_zero_variance():
    lo, up, cost, clamped = dro_window(30.0, 0.0, 0.05, 1.0, 1.0)
    assert (lo, up) == (30.0, 30.0)
    assert cost == pytest.approx(0.0)
    assert not clamped


def test_closed_forms_reject_non_finite_input():
    # a non-finite arrival, moment, weight or anchor is an error, not a NaN
    # cost, a NaN cut or a "clamped" window with a NaN edge
    nan, inf = math.nan, math.inf
    for arrivals in ([nan, 1.0, 2.0], [1.0, inf, 2.0]):
        with pytest.raises(ValueError, match="arrivals must be finite"):
            saa_window(arrivals, 0.05, 1.0, 1.0)
    for mean, variance in ((nan, 1.0), (1.0, nan), (inf, 1.0), (1.0, inf)):
        with pytest.raises(ValueError, match="must be finite"):
            dro_window(mean, variance, 0.05, 1.0, 1.0)
    for edge, mean, variance in ((nan, 10.0, 4.0), (-inf, 10.0, 4.0), (9.0, nan, 4.0), (9.0, 10.0, nan)):
        for bound in (scarf_earliness, scarf_tardiness):
            with pytest.raises(ValueError, match="must be finite"):
                bound(edge, mean, variance)
    for weights in ((nan, 1.0, 1.0), (0.05, inf, 1.0)):
        with pytest.raises(ValueError, match="positive and finite"):
            dro_window(10.0, 4.0, *weights)
    for anchor, cbar in ((np.array([nan, 1.0]), np.eye(2)), (np.ones(2), np.full((2, 2), nan))):
        with pytest.raises(ValueError, match="must be finite"):
            oa_cut(anchor, cbar)
    # a negative variance is still refused
    with pytest.raises(ValueError, match="variance >= 0"):
        dro_window(10.0, -1.0, 0.05, 1.0, 1.0)


def test_dro_window_clamps_negative_lower():
    lo, up, cost, clamped = dro_window(1.0, 100.0, 0.05, 1.0, 1.0)
    assert clamped
    assert lo == 0.0
    # cost is re-evaluated at the clamped window, not the unconstrained one
    want = 0.05 * up + scarf_earliness(0.0, 1.0, 100.0) + scarf_tardiness(up, 1.0, 100.0)
    assert cost == pytest.approx(want, abs=1e-12)


def test_dro_window_stationarity_at_optimum():
    # central finite differences vanish at the interior optimum
    for m, var, a_w, a_l, a_u in (
        (100.0, 100.0, 0.05, 1.0, 1.0),
        (80.0, 25.0, 0.1, 0.9, 0.6),
        (60.0, 49.0, 0.02, 0.3, 0.8),
    ):
        lo, up, _, clamped = dro_window(m, var, a_w, a_l, a_u)
        assert not clamped
        h = 1e-4 * math.sqrt(var)

        def cost(l, u):
            return (
                a_w * (u - l)
                + a_l * scarf_earliness(l, m, var)
                + a_u * scarf_tardiness(u, m, var)
            )

        g_lo = (cost(lo + h, up) - cost(lo - h, up)) / (2 * h)
        g_up = (cost(lo, up + h) - cost(lo, up - h)) / (2 * h)
        assert abs(g_lo) < 1e-5
        assert abs(g_up) < 1e-5


def test_design_dro_on_route():
    net = random_network(3, seed=4, complete=True)
    route = route_to_xy([0, 3, 1, 2, 0], net)
    pen = penalties_from_beta(0.05, 0.1, 3)
    plan = design_dro(route, net.mean, net.cov, 0.0, pen)
    assert plan.kind == "dro"
    assert plan.customers == (3, 1, 2)
    cbar = net.cov
    for pos, k in enumerate(route.customers):
        y = route.y[k - 1]
        m = float(net.mean @ y)
        var = float(y @ cbar @ y)
        lo, up, cost, _ = dro_window(m, var, *pen.for_customer(k))
        assert plan.lower[pos] == pytest.approx(lo, abs=1e-12)
        assert plan.upper[pos] == pytest.approx(up, abs=1e-12)
        assert plan.cost_per_customer[pos] == pytest.approx(cost, abs=1e-12)


def test_design_dro_alpha2_widens_windows():
    net = random_network(3, seed=8, complete=True)
    route = route_to_xy([0, 1, 2, 3, 0], net)
    pen = penalties_from_beta(0.05, 0.05, 3)
    base = design_dro(route, net.mean, net.cov, 0.0, pen)
    wide = design_dro(route, net.mean, net.cov, 5.0, pen)
    assert np.all(wide.width >= base.width - 1e-12)
    assert wide.total_cost > base.total_cost
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha2 must be finite and nonnegative"):
            design_dro(route, net.mean, net.cov, bad, pen)


# ---------------------------------------------------------------------------
# scale invariance


def test_scaling_invariance_saa_and_dro():
    net = random_network(3, seed=12, complete=True)
    route = route_to_xy([0, 1, 2, 3, 0], net)
    samples = sample_travel_times(net, 300, seed=5)
    pen = PenaltyConfig(0.04 * np.ones(3), 0.5 * np.ones(3), 0.5 * np.ones(3))
    base_saa, _ = design_stochastic(route, samples, pen)
    base_dro = design_dro(route, net.mean, net.cov, 0.0, pen)
    for lam in (0.1, 0.5, 2.0):
        sc = pen.scaled(lam)
        p_saa, _ = design_stochastic(route, samples, sc)
        p_dro = design_dro(route, net.mean, net.cov, 0.0, sc)
        np.testing.assert_allclose(p_saa.lower, base_saa.lower, rtol=1e-12)
        np.testing.assert_allclose(p_saa.upper, base_saa.upper, rtol=1e-12)
        np.testing.assert_allclose(p_dro.lower, base_dro.lower, rtol=1e-12)
        np.testing.assert_allclose(p_dro.upper, base_dro.upper, rtol=1e-12)
        assert p_saa.total_cost == pytest.approx(lam * base_saa.total_cost, rel=1e-9)
        assert p_dro.total_cost == pytest.approx(lam * base_dro.total_cost, rel=1e-9)


# ---------------------------------------------------------------------------
# plan files


def test_plan_round_trip(tmp_path):
    net = random_network(2, seed=1, complete=True)
    route = route_to_xy([0, 2, 1, 0], net)
    samples = sample_travel_times(net, 30, seed=2)
    pen = penalties_from_beta(0.1, 0.1, 2)
    plan, _ = design_stochastic(route, samples, pen)
    path = tmp_path / "new" / "plan.json"  # save_plan makes the directory
    save_plan(plan, path)
    back = load_plan(path)
    assert back.kind == plan.kind
    assert back.route_seq == plan.route_seq
    assert back.customers == plan.customers
    np.testing.assert_allclose(back.lower, plan.lower, rtol=0, atol=0)
    np.testing.assert_allclose(back.upper, plan.upper, rtol=0, atol=0)
    assert back.total_cost == plan.total_cost
    # a JSON integer shared width loads as a float, as the plan holds it
    path.write_text(path.read_text().replace('"shared_width": null', '"shared_width": 2'))
    width = load_plan(path).shared_width
    assert type(width) is float and width == 2.0


def test_plan_rejects_inverted_window():
    with pytest.raises(ValueError, match="upper < lower"):
        from twdesign import WindowPlan

        WindowPlan(
            kind="saa",
            route_seq=(0, 1, 0),
            customers=(1,),
            lower=np.array([5.0]),
            upper=np.array([4.0]),
            cost_per_customer=np.array([0.0]),
            total_cost=0.0,
        )


def test_plan_rejects_negative_lower_bound():
    from twdesign import WindowPlan

    with pytest.raises(ValueError, match="negative lower bound"):
        WindowPlan(kind="saa", route_seq=(0, 1, 0), customers=(1,), lower=[-1.0], upper=[4.0],
                   cost_per_customer=[0.0], total_cost=0.0)


# the least plan file: a route, one window per customer and the cost
PLAN_DOC = {
    "route": [0, 2, 1, 0],
    "windows": [{"customer": 2, "lower": 1.0, "upper": 2.0}, {"customer": 1, "lower": 3.0, "upper": 5.0}],
    "cost": 0.5,
}


@pytest.mark.parametrize("key", ["route", "windows", "cost"])
def test_load_plan_requires_route_windows_and_cost(tmp_path, key):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({k: v for k, v in PLAN_DOC.items() if k != key}))
    with pytest.raises(ValueError, match=f"^window plan file: missing key '{key}'$"):
        load_plan(path)


def test_load_plan_without_per_customer_entries(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(PLAN_DOC))
    plan = load_plan(path)
    assert (plan.kind, plan.route_seq, plan.customers) == ("unknown", (0, 2, 1, 0), (2, 1))
    assert plan.lower.tolist() == [1.0, 3.0] and plan.upper.tolist() == [2.0, 5.0]
    assert plan.cost_per_customer.tolist() == [0.0, 0.0]
    assert plan.total_cost == 0.5 and plan.shared_width is None


def test_plan_rejects_non_finite_values():
    from twdesign import WindowPlan

    good = dict(lower=[1.0, 2.0], upper=[3.0, 4.0], cost_per_customer=[0.5, 0.5])
    for name in good:
        for bad in (np.nan, np.inf):
            values = dict(good, **{name: [bad, 4.0]})
            with pytest.raises(ValueError, match=f"non-finite {name}"):
                WindowPlan(kind="saa", route_seq=(0, 1, 2, 0), customers=(1, 2), total_cost=1.0, **values)


def test_plan_ids_are_integers():
    # a plan's route and customers are ids: a float, bool or string is
    # refused, not rounded, and numpy integers pass as Python ints
    from twdesign import WindowPlan

    values = dict(kind="saa", lower=[1.0], upper=[3.0], cost_per_customer=[0.5], total_cost=0.5)
    plan = WindowPlan(route_seq=np.array([0, 1, 0]), customers=(np.int64(1),), **values)
    assert plan.route_seq == (0, 1, 0) and plan.customers == (1,)
    assert all(type(v) is int for v in plan.route_seq + plan.customers)
    for bad in (1.0, True, "1"):
        with pytest.raises(ValueError, match=r"^route\[1\]: expected an integer"):
            WindowPlan(route_seq=(0, bad, 0), customers=(1,), **values)
        with pytest.raises(ValueError, match=r"^customers\[0\]: expected an integer"):
            WindowPlan(route_seq=(0, 1, 0), customers=(bad,), **values)


def test_plan_holds_one_window_for_each_customer_of_its_route():
    # a plan that save_plan could write but load_plan would refuse is
    # refused as it is made: customers that are not the route's, or arrays
    # of another length
    values = dict(kind="saa", lower=[1.0, 2.0], upper=[3.0, 4.0], cost_per_customer=[0.5, 0.5], total_cost=1)
    plan = WindowPlan(route_seq=(0, 2, 1, 0), customers=(1, 2), **values)  # in any order
    assert type(plan.total_cost) is float and plan.total_cost == 1.0
    for customers in ((5, 7), (1, 1), (1,), (1, 2, 3)):
        with pytest.raises(ValueError, match=r"^customers: expected one for each customer 1\.\.2, got "):
            WindowPlan(route_seq=(0, 1, 2, 0), customers=customers, **values)
    for name in ("lower", "upper", "cost_per_customer"):
        with pytest.raises(ValueError, match=rf"^{name}: expected shape \(2,\), got \(3,\)$"):
            WindowPlan(route_seq=(0, 1, 2, 0), customers=(1, 2), **dict(values, **{name: [1.0, 2.0, 3.0]}))


@st.composite
def _plans(draw):
    """Any plan the ``WindowPlan`` constructor accepts; the design's
    diagnostics (rates, clamp flags), which a plan file does not carry
    back, are left out."""
    n = draw(st.integers(0, 5))
    finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(10**6), 10**6))
    lower = draw(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=n, max_size=n))
    return WindowPlan(
        kind=draw(st.text(max_size=5)),
        route_seq=tuple(draw(st.lists(st.integers(-(2**63), 2**63), min_size=n + 2, max_size=n + 2))),
        customers=tuple(draw(st.permutations(range(1, n + 1)))),
        lower=lower,
        upper=[draw(st.floats(min_value=lo, allow_infinity=False)) for lo in lower],
        cost_per_customer=draw(st.lists(finite, min_size=n, max_size=n)),
        total_cost=draw(finite),
        shared_width=draw(st.one_of(st.none(), st.floats(min_value=0.0, allow_infinity=False), st.integers(0, 10))),
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(plan=_plans())
def test_every_plan_made_is_one_load_plan_reads_back(plan):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plan.json")
        save_plan(plan, path)
        _assert_same_fields(plan, load_plan(path))


def _assert_same_fields(want_plan, got_plan):
    """Two plans hold the same fields: arrays of one dtype and the same
    bytes, anything else of one type and the same repr."""
    for field in dataclasses.fields(WindowPlan):
        want, got = getattr(want_plan, field.name), getattr(got_plan, field.name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), field.name
        else:
            assert (type(got), repr(got)) == (type(want), repr(want)), field.name


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 30), n=st.integers(2, 6), complete=st.booleans(), q=st.integers(1, 60),
       rounded=st.booleans(), beta=st.sampled_from([0.05, 0.2, 0.3]))
def test_every_plan_assembled_is_one_the_constructor_accepts(seed, n, complete, q, rounded, beta):
    # the searches, the pricers and the designs assemble their plans
    # without WindowPlan's checks (_window_plan); each is a plan the
    # constructor accepts and returns field for field, so each is one that
    # load_plan reads back (the property above)
    net = random_network(n, seed=seed, complete=complete)
    samples = sample_travel_times(net, q, seed=seed)
    if rounded:
        samples = SampleSet(q, np.round(samples.values))
    pen = penalties_from_beta(beta, beta, n)
    sm = branch_and_bound(net, SaaModel(samples), pen)
    route = sm.route
    plans = [
        sm.plan,
        branch_and_bound(net, DroModel(alpha2=0.3), pen).plan,
        design_stochastic(route, samples, pen)[0],
        brute_force_windows(route, samples, pen),
        design_fixed_width(route, samples, pen),
        design_dro(route, net.mean, net.cov, 0.3, pen),
    ]
    for plan in plans:
        _assert_same_fields(plan, WindowPlan(**{f.name: getattr(plan, f.name) for f in dataclasses.fields(WindowPlan)}))


def test_hand_built_plans_keep_every_check(tmp_path):
    # the designs' plans skip the constructor's checks, which hold for
    # them already; a plan built by hand, or read from a file, is checked
    # field by field as before, and a route built by hand that is no tour
    # of integer ids is refused as it is made, so no design plans for it
    net = random_network(4, seed=0)
    samples = sample_travel_times(net, 100, seed=0)
    pen = penalties_from_beta(0.05, 0.05, 4)
    res = branch_and_bound(net, SaaModel(samples), pen)
    plan, route = res.plan, res.route
    for seq, message in (((0, 1.0, 2, 3, 4, 0), r"route\[1\]: expected an integer, got 1\.0"),
                         ((0, 1, 2, 2, 4, 0), r"route: expected the depot 0, each customer 1\.\.n once"),
                         ((1, 2, 3, 4, 0), "route: expected the depot 0")):
        with pytest.raises(ValueError, match=f"^{message}"):
            Route(seq, route.x, route.y, route.path_arcs)
    good = {f.name: getattr(plan, f.name) for f in dataclasses.fields(WindowPlan)}
    bad = [
        ("route_seq", (0, 1.5, *plan.route_seq[2:]), r"route\[1\]: expected an integer, got 1\.5"),
        ("customers", plan.customers[:-1], r"customers: expected one for each customer 1\.\.4"),
        ("lower", np.where(np.arange(4) == 2, np.nan, plan.lower), "lower: expected finite numbers"),
        ("cost_per_customer", plan.cost_per_customer + np.inf, "cost_per_customer: expected finite numbers"),
        ("upper", plan.lower - 1.0, "upper: expected at least lower"),
        ("lower", plan.lower - plan.upper.max() - 1.0, "lower: expected a number >= 0"),
        ("total_cost", np.nan, "total_cost: expected a finite number"),
        ("shared_width", -1.0, "shared_width: expected None or a finite number >= 0"),
    ]
    for name, value, message in bad:
        with pytest.raises(ValueError, match=f"^{message}"):
            WindowPlan(**dict(good, **{name: value}))
    path = tmp_path / "plan.json"
    doc = plan.to_json_dict()
    doc["windows"][0]["lower"] = -1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="^window plan file: lower: expected a number >= 0"):
        load_plan(path)


def test_save_plan_refuses_what_json_cannot_hold(tmp_path):
    # NaN and the infinities are no JSON: the writer refuses them before it
    # opens the file, so no file is left behind
    plan = WindowPlan("saa", (0, 1, 0), (1,), [1.0], [3.0], [0.5], 0.5)
    path = tmp_path / "plan.json"
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_plan(dataclasses.replace(plan, early_rate=np.array([bad])), path)
        assert not path.exists()
    save_plan(plan, path)
    assert path.read_text() == json.dumps(plan.to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize("bad", [2.0, 2.5, True, "2"])
def test_counts_and_customer_ids_are_integers(bad):
    # a count or a customer id is an integer: 2.0 and True once passed as
    # 2 and 1, 2.5 failed inside numpy; numpy integers pass
    message = rf"expected an integer, got {re.escape(repr(bad))}$"
    pen = penalties_from_beta(0.05, 0.05, 3)
    plan = WindowPlan("saa", (0, 1, 2, 0), (1, 2), [1.0, 2.0], [3.0, 4.0], [0.5, 0.5], 1.0)
    with pytest.raises(ValueError, match=rf"^n_customers: {message}"):
        penalties_from_beta(0.05, 0.05, bad)
    with pytest.raises(ValueError, match=rf"^q: {message}"):
        critical_indices(bad, 0.05, 1.0, 1.0)
    with pytest.raises(ValueError, match=rf"^customer: {message}"):
        pen.for_customer(bad)
    with pytest.raises(ValueError, match=rf"^customer: {message}"):
        plan.window_for(bad)
    assert penalties_from_beta(0.05, 0.05, np.int64(3)).n_customers == 3
    assert critical_indices(np.int32(20), 0.05, 1.0, 1.0) == critical_indices(20, 0.05, 1.0, 1.0)
    assert pen.for_customer(np.int64(2)) == pen.for_customer(2)
    assert plan.window_for(np.int64(2)) == (2.0, 4.0)


# ---------------------------------------------------------------------------
# arrivals, route costs and cost files


def test_arrival_matrix_cumulative_sums():
    net = three_net()
    route = route_to_xy([0, 2, 1, 3, 0], net)
    values = np.arange(2 * net.n_arcs, dtype=float).reshape(2, net.n_arcs)
    arr = arrival_matrix(route, values)
    a1 = net.arc_index[(0, 2)]
    a2 = net.arc_index[(2, 1)]
    a3 = net.arc_index[(1, 3)]
    want = np.stack(
        [
            values[:, a1],
            values[:, a1] + values[:, a2],
            values[:, a1] + values[:, a2] + values[:, a3],
        ],
        axis=1,
    )
    assert np.array_equal(arr, want)


def test_route_cost_sm_matches_design():
    net = random_network(3, seed=2, complete=True)
    route = route_to_xy([0, 2, 3, 1, 0], net)
    samples = sample_travel_times(net, 120, seed=3)
    pen = penalties_from_beta(0.1, 0.05, 3)
    plan, _ = design_stochastic(route, samples, pen)
    assert route_cost_sm(route, samples, pen) == pytest.approx(plan.total_cost, abs=1e-12)


def test_route_cost_sm_is_plan_cost_bitwise():
    # route_cost_sm is the total of the pricer's plan, so it equals the
    # designed plan's cost to the bit.
    # Desk-like routes (sparse n=10, the solve's tour, q=1000, both
    # targets) and dense-like ones (complete n=8, any tour, mixed weights)
    rng = np.random.default_rng(5)
    cases = []
    for seed in range(3):
        net = random_network(10, seed=seed)
        train = sample_travel_times(net, 1000, seed=seed)
        for beta in (0.05, 0.025):
            pen = penalties_from_beta(beta, beta, 10)
            cases.append((branch_and_bound(net, SaaModel(train), pen).route, train, pen))
    for seed in range(3):
        net = random_network(8, seed=seed, complete=True)
        train = sample_travel_times(net, 1000, seed=seed)
        a_l, a_u = rng.uniform(0.3, 1.0, 8), rng.uniform(0.3, 1.0, 8)
        pen = PenaltyConfig(rng.uniform(0.05, 0.5, 8) * a_l * a_u / (a_l + a_u), a_l, a_u)
        for _ in range(3):
            seq = [0, *(int(k) for k in rng.permutation(np.arange(1, 9))), 0]
            cases.append((route_to_xy(seq, net), train, pen))
    for route, train, pen in cases:
        plan, _ = design_stochastic(route, train, pen)
        assert route_cost_sm(route, train, pen) == plan.total_cost, route.seq


def test_route_cost_rm_matches_design_and_identity():
    net = random_network(3, seed=5, complete=True)
    route = route_to_xy([0, 1, 3, 2, 0], net)
    pen = penalties_from_beta(0.05, 0.05, 3)
    plan = design_dro(route, net.mean, net.cov, 0.7, pen)
    assert route_cost_rm(route, net.mean, net.cov, 0.7, pen) == plan.total_cost
    # with zero covariance the cost reduces to sum gamma * sqrt(alpha2 * k)
    zero = np.zeros_like(net.cov)
    from twdesign import gamma_coeffs

    gl, gu = gamma_coeffs(0.05, 1.0, 1.0)
    alpha2 = 2.0
    want = sum(
        (gl + gu) * np.sqrt(alpha2 * route.y[k - 1].sum()) for k in route.customers
    )
    assert route_cost_rm(route, net.mean, zero, alpha2, pen) == pytest.approx(
        float(want), abs=1e-9
    )
    assert route_cost_rm(route, net.mean, zero, alpha2, pen) == design_dro(route, net.mean, zero, alpha2, pen).total_cost


def test_route_cost_rm_is_plan_cost_bitwise():
    # route_cost_rm is the total of the pricer's plan, on dense-like routes
    # (complete n=8, any tour, mixed weights, some clamped windows at a
    # large alpha2)
    rng = np.random.default_rng(6)
    for seed in range(3):
        net = random_network(8, seed=seed, complete=True)
        a_l, a_u = rng.uniform(0.3, 1.0, 8), rng.uniform(0.3, 1.0, 8)
        pen = PenaltyConfig(rng.uniform(0.05, 0.5, 8) * a_l * a_u / (a_l + a_u), a_l, a_u)
        for alpha2 in (0.0, 0.7, 400.0):
            seq = [0, *(int(k) for k in rng.permutation(np.arange(1, 9))), 0]
            route = route_to_xy(seq, net)
            plan = design_dro(route, net.mean, net.cov, alpha2, pen)
            assert route_cost_rm(route, net.mean, net.cov, alpha2, pen) == plan.total_cost, (seed, alpha2)


# each route-level entry point with the inputs it takes from the network:
# a sample set, an arc mean with its covariance, a penalty config
_ROUTE_INPUTS = {
    "design_stochastic": (("samples", "pen"), lambda r, s, m, c, p: design_stochastic(r, s, p)),
    "design_fixed_width": (("samples", "pen"), lambda r, s, m, c, p: design_fixed_width(r, s, p)),
    "brute_force_windows": (("samples", "pen"), lambda r, s, m, c, p: brute_force_windows(r, s, p)),
    "route_cost_sm": (("samples", "pen"), lambda r, s, m, c, p: route_cost_sm(r, s, p)),
    "route_cost_rm": (("mean", "pen"), lambda r, s, m, c, p: route_cost_rm(r, m, c, 0.0, p)),
    "design_dro": (("mean", "pen"), lambda r, s, m, c, p: design_dro(r, m, c, 0.0, p)),
    "evaluate_plan": (("samples",), lambda r, s, m, c, p: evaluate_plan(r, design_dro(r, m, c, 0.0, p), s)),
    "simulate_waiting": (("samples",), lambda r, s, m, c, p: simulate_waiting(r, dict.fromkeys(r.customers, 0.0), s)),
}
_MISMATCH = {
    "samples": "sample set does not match the network's arc count",
    "mean": "mean does not match the network's arc count",
    "pen": "penalty config does not match the network's customer count",
}


@pytest.mark.parametrize("entry, foreign", [(e, f) for e, (inputs, _) in _ROUTE_INPUTS.items() for f in inputs])
def test_route_inputs_must_match_the_route(entry, foreign):
    # a route on 12 arcs (3 customers) refuses inputs made for a network
    # of 4 customers on 20 arcs, which it would otherwise price on the
    # wrong arcs
    call = _ROUTE_INPUTS[entry][1]
    own, other = (random_network(n, seed=1, complete=True) for n in (3, 4))
    route = route_to_xy([0, 1, 2, 3, 0], own)

    def inputs(net):
        return {"samples": sample_travel_times(net, 40, seed=2), "mean": (net.mean, net.cov),
                "pen": penalties_from_beta(0.05, 0.05, net.n_customers)}

    got = inputs(own)
    call(route, got["samples"], *got["mean"], got["pen"])
    got[foreign] = inputs(other)[foreign]
    with pytest.raises(ValueError, match=f"^{_MISMATCH[foreign]}$"):
        call(route, got["samples"], *got["mean"], got["pen"])


def test_cost_csv_columns(tmp_path):
    net = random_network(2, seed=0, complete=True)
    route = route_to_xy([0, 1, 2, 0], net)
    samples = sample_travel_times(net, 40, seed=1)
    pen = penalties_from_beta(0.1, 0.1, 2)
    plan, _ = design_stochastic(route, samples, pen)
    path = tmp_path / "costs.csv"
    write_cost_csv(plan, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "customer,lower,upper,width,cost_component"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == route.customers[0]
    assert float(first[3]) == pytest.approx(float(first[2]) - float(first[1]))
