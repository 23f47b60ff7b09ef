"""Tests for route encodings, arrival times, budgets, and route files."""

import numpy as np
import pytest

from twdesign import (
    Network,
    PenaltyConfig,
    SampleSet,
    arrival_matrix,
    budget_dro,
    budget_saa,
    design_dro,
    design_stochastic,
    load_route,
    penalties_from_beta,
    random_network,
    route_cost_rm,
    route_cost_sm,
    route_to_xy,
    sample_travel_times,
    save_route,
    seq_from_x,
    validate_membership,
    write_cost_csv,
)


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
    assert route.return_arc == net.arc_index[(2, 0)]
    assert not route.x.flags.writeable
    # a valid encoding produces no diagnostics
    assert validate_membership(route.x, route.y, net) == []


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


def test_route_encoding_requires_arcs():
    arcs = ((0, 1), (1, 2), (2, 0), (0, 2))
    net = Network(3, arcs, np.ones(4), np.zeros((4, 4)), 100.0)
    with pytest.raises(ValueError, match=r"arc \(2, 1\) not in network"):
        route_to_xy([0, 2, 1, 0], net)


def test_seq_round_trip_and_bad_x():
    net = three_net()
    for seq in ([0, 1, 2, 3, 0], [0, 3, 2, 1, 0], [0, 2, 1, 3, 0]):
        route = route_to_xy(seq, net)
        assert seq_from_x(route.x, net) == tuple(seq)
    # two disjoint cycles cover all degrees but are not one tour
    x = np.zeros(net.n_arcs, dtype=int)
    x[net.arc_index[(0, 1)]] = 1
    x[net.arc_index[(1, 0)]] = 1
    x[net.arc_index[(2, 3)]] = 1
    x[net.arc_index[(3, 2)]] = 1
    with pytest.raises(ValueError, match="single tour"):
        seq_from_x(x, net)


def test_membership_diagnostics():
    net = three_net()
    route = route_to_xy([0, 1, 2, 3, 0], net)
    x = route.x.copy()
    y = route.y.copy()
    # drop the return arc: depot in-degree and node 3 out-degree break
    x[net.arc_index[(3, 0)]] = 0
    msgs = validate_membership(x, y, net)
    assert "degree (b) violated at node 0: in-degree 0" in msgs
    assert "degree (a) violated at node 3: out-degree 0" in msgs
    # coupling: y uses an arc x does not
    x2 = route.x.copy()
    y2 = route.y.copy()
    y2[0, net.arc_index[(2, 1)]] = 1
    msgs = validate_membership(x2, y2, net)
    assert any(m.startswith("coupling (d) violated for customer 1") for m in msgs)
    # flow: reroute customer 1's path through the wrong arc
    y3 = route.y.copy()
    y3[0, net.arc_index[(0, 1)]] = 0
    y3[0, net.arc_index[(0, 2)]] = 1
    msgs = validate_membership(route.x, y3, net)
    assert any("flow (c) violated for customer 1" in m for m in msgs)
    # subtour-style y: a detached loop conserves flow nowhere near the rhs
    y4 = route.y.copy()
    y4[2, net.arc_index[(1, 2)]] = 0
    y4[2, net.arc_index[(2, 1)]] = 1
    msgs = validate_membership(route.x, y4, net)
    assert any("flow (c) violated for customer 3" in m for m in msgs)
    # non-binary entries
    xf = route.x.astype(float).copy()
    xf[0] = 0.5
    msgs = validate_membership(xf, route.y, net)
    assert "x and y must be binary" in msgs


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
    assert budget_saa(route.x, samples) == pytest.approx(want, abs=1e-12)
    # robust budget: mean part plus alpha1-scaled dispersion
    cov = np.diag(np.linspace(0.5, 2.0, net.n_arcs))
    mean_part = float(net.mean[tour_cols].sum())
    disp = float(np.sqrt(np.diag(cov)[tour_cols].sum()))
    assert budget_dro(route.x, net.mean, cov, 0.0) == pytest.approx(mean_part)
    assert budget_dro(route.x, net.mean, cov, 4.0) == pytest.approx(mean_part + 2 * disp)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha1"):
            budget_dro(route.x, net.mean, cov, bad)


def test_route_cost_sm_matches_design():
    net = random_network(3, seed=2, complete=True)
    route = route_to_xy([0, 2, 3, 1, 0], net)
    samples = sample_travel_times(net, 120, seed=3)
    pen = penalties_from_beta(0.1, 0.05, 3)
    plan, _ = design_stochastic(route, samples, pen)
    assert route_cost_sm(route, samples, pen) == pytest.approx(plan.total_cost, abs=1e-12)


def test_route_cost_rm_matches_design_and_identity():
    net = random_network(3, seed=5, complete=True)
    route = route_to_xy([0, 1, 3, 2, 0], net)
    pen = penalties_from_beta(0.05, 0.05, 3)
    plan = design_dro(route, net.mean, net.cov, 0.7, pen)
    assert route_cost_rm(route, net.mean, net.cov, 0.7, pen) == pytest.approx(
        plan.total_cost, abs=1e-9
    )
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


def test_route_files_round_trip(tmp_path):
    path = tmp_path / "route.json"
    save_route((0, 2, 1, 0), path)
    assert load_route(path) == (0, 2, 1, 0)
    path.write_text('{"seq": "nope"}')
    with pytest.raises(ValueError, match="seq"):
        load_route(path)


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
