"""Tests for route encodings, arrival times, budgets, and route files."""

import re

import numpy as np
import pytest

from twdesign import (
    DroModel,
    Network,
    PenaltyConfig,
    SaaModel,
    SampleSet,
    arrival_matrix,
    branch_and_bound,
    brute_force_windows,
    design_dro,
    design_fixed_width,
    design_stochastic,
    evaluate_plan,
    load_route,
    penalties_from_beta,
    random_network,
    route_cost_rm,
    route_cost_sm,
    route_to_xy,
    sample_travel_times,
    save_route,
    simulate_waiting,
    write_cost_csv,
)
from twdesign.window_design import DroPricer


def three_net():
    """Complete network on depot + 3 customers with distinct means."""
    arcs = tuple((i, j) for i in range(4) for j in range(4) if i != j)
    mean = np.arange(1.0, len(arcs) + 1)
    cov = np.zeros((len(arcs), len(arcs)))
    return Network(4, arcs, mean, cov, 1000.0)


def test_route_encoding_structure():
    net = three_net()
    route = route_to_xy([0, 3, 1, 2, 0], net)
    assert route.seq == (0, 3, 1, 2, 0)
    assert route.customers == (3, 1, 2)
    # x marks exactly the four tour arcs
    used = {net.arcs[a] for a in np.nonzero(route.x)[0]}
    assert used == {(0, 3), (3, 1), (1, 2), (2, 0)}
    # y rows hold prefixes: customer 3 sees one arc, customer 2 three
    assert route.y[3 - 1].sum() == 1
    assert route.y[1 - 1].sum() == 2
    assert route.y[2 - 1].sum() == 3
    assert route.y[2 - 1, net.arc_index[(0, 3)]] == 1
    assert route.y[2 - 1, net.arc_index[(2, 0)]] == 0
    assert route.path_arcs == (
        net.arc_index[(0, 3)],
        net.arc_index[(3, 1)],
        net.arc_index[(1, 2)],
    )
    assert not route.x.flags.writeable
    # on random complete and sparse networks, x is the tour's arcs and the
    # row of the customer at position p is exactly path_arcs[:p+1]
    for seed in range(4):
        for complete in (True, False):
            net = random_network(5, seed=seed, complete=complete)
            model = SaaModel(sample_travel_times(net, 20, seed))
            route = branch_and_bound(net, model, penalties_from_beta(0.1, 0.1, 5)).route
            tour = [net.arc_index[arc] for arc in zip(route.seq, route.seq[1:])]
            want_x = np.zeros(net.n_arcs, dtype=np.int8)
            want_x[tour] = 1
            assert np.array_equal(route.x, want_x), (seed, complete)
            assert route.path_arcs == tuple(tour[:-1])
            for pos, k in enumerate(route.customers):
                want_y = np.zeros(net.n_arcs, dtype=np.int8)
                want_y[tour[: pos + 1]] = 1
                assert np.array_equal(route.y[k - 1], want_y), (seed, complete, k)


def test_route_encoding_rejections():
    net = three_net()
    with pytest.raises(ValueError, match="no customers"):
        route_to_xy([0, 0], net)
    with pytest.raises(ValueError, match="start and end at the depot"):
        route_to_xy([1, 2, 3, 0], net)
    with pytest.raises(ValueError, match="depot cannot appear mid-route"):
        route_to_xy([0, 1, 0, 2, 3, 0], net)
    with pytest.raises(ValueError, match="unknown customer 9"):
        route_to_xy([0, 1, 9, 2, 0], net)
    with pytest.raises(ValueError, match="repeated customer 1"):
        route_to_xy([0, 1, 1, 2, 0], net)
    with pytest.raises(ValueError, match=r"missing \[2, 3\]"):
        route_to_xy([0, 1, 0], net)
    # an id is an integer: no float, bool or string stands in for one
    for bad in (1.9, True, "1", float("inf")):
        with pytest.raises(ValueError, match=rf"^route\[1\]: expected an integer, got {re.escape(repr(bad))}$"):
            route_to_xy([0, bad, 2, 3, 0], net)
    assert route_to_xy([np.int64(0), np.int32(1), 2, 3, 0], net).seq == (0, 1, 2, 3, 0)


def test_route_encoding_requires_arcs():
    arcs = ((0, 1), (1, 2), (2, 0), (0, 2))
    net = Network(3, arcs, np.ones(4), np.zeros((4, 4)), 100.0)
    with pytest.raises(ValueError, match=r"arc \(2, 1\) not in network"):
        route_to_xy([0, 2, 1, 0], net)


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


def test_budgets():
    net = three_net()
    route = route_to_xy([0, 1, 2, 3, 0], net)
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 5.0, (50, net.n_arcs))
    samples = SampleSet(q=50, values=values)
    tour_cols = [net.arc_index[a] for a in ((0, 1), (1, 2), (2, 3), (3, 0))]
    want = float(values[:, tour_cols].sum(axis=1).mean())
    assert SaaModel(samples).budget(net, route.x) == pytest.approx(want, abs=1e-12)
    # robust budget: mean part plus alpha1-scaled dispersion
    cov = np.diag(np.linspace(0.5, 2.0, net.n_arcs))
    net = Network(4, net.arcs, net.mean, cov, net.time_budget)
    mean_part = float(net.mean[tour_cols].sum())
    disp = float(np.sqrt(np.diag(cov)[tour_cols].sum()))
    assert DroModel(0.0).budget(net, route.x) == pytest.approx(mean_part)
    assert DroModel(4.0).budget(net, route.x) == pytest.approx(mean_part + 2 * disp)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha1"):
            DroModel(bad)


def test_budgets_and_dro_pricing_reject_non_finite_input():
    # each input is checked where it enters, and the error names it
    net = three_net()
    route = route_to_xy([0, 1, 2, 3, 0], net)
    samples = SampleSet(q=2, values=np.ones((2, net.n_arcs)))
    cov = np.diag(np.linspace(0.5, 2.0, net.n_arcs))
    pen = penalties_from_beta(0.05, 0.05, 3)
    x = route.x.astype(float)

    def spoiled(array, value, index=0):
        out = np.array(array, dtype=float)
        out.flat[index] = value
        return out

    models = (SaaModel(samples), DroModel())
    for bad in (np.nan, np.inf, -np.inf):
        for model in models:
            with pytest.raises(ValueError, match="^x: entries must be finite"):
                model.budget(net, spoiled(x, bad))
        for mean, c, name in ((spoiled(net.mean, bad, 5), cov, "mean"), (net.mean, spoiled(cov, bad, 7), "cov")):
            for call in (
                lambda: DroPricer(mean, c, 0.0, pen),
                lambda: design_dro(route, mean, c, 0.0, pen),
                lambda: route_cost_rm(route, mean, c, 0.0, pen),
            ):
                with pytest.raises(ValueError, match=f"^{name}: entries must be finite"):
                    call()
    m = net.n_arcs
    for model in models:
        with pytest.raises(ValueError, match=rf"^x: expected shape \({m},\), got \({m - 1},\)"):
            model.budget(net, x[1:])
        with pytest.raises(ValueError, match=rf"^x: expected shape \({m},\), got \(1, {m}\)"):
            model.budget(net, x[None])
    with pytest.raises(ValueError, match=rf"^mean: expected shape \({m},\), got \(1, {m}\)"):
        DroPricer(net.mean[None], cov, 0.0, pen)


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


def test_route_files_round_trip(tmp_path):
    path = tmp_path / "route.json"
    save_route((0, 2, 1, 0), path)
    assert load_route(path) == (0, 2, 1, 0)
    path.write_text('{"seq": "nope"}')
    with pytest.raises(ValueError, match="seq"):
        load_route(path)
    path.write_text('{"route": [0, 2, 1, 0]}')
    with pytest.raises(ValueError, match="route file: expected an object with a 'seq' list"):
        load_route(path)
    # save_route writes ids as they are or refuses them; numpy integers pass
    save_route(np.array([0, 1, 2, 0]), path)
    assert load_route(path) == (0, 1, 2, 0)
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError, match=rf"^route\[1\]: expected an integer, got {re.escape(repr(bad))}$"):
            save_route((0, bad, 2, 0), path)
    assert load_route(path) == (0, 1, 2, 0)


def test_load_route_rejects_json_booleans(tmp_path):
    # json loads true as a bool, which Python counts as the integer 1, so
    # [0, true, 2, 0] would otherwise read as the tour (0, 1, 2, 0)
    path = tmp_path / "route.json"
    for seq in ("[0, true, 2, 0]", "[false, 1, 2, 0]", "[0, 1, 2, false]"):
        path.write_text('{"seq": %s}' % seq)
        with pytest.raises(ValueError, match="'seq' must be a list of integers"):
            load_route(path)


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
