"""Tests for the exact solvers and the optimality cuts."""

import itertools
import math

import numpy as np
import pytest

from twdesign import (
    DroModel,
    InfeasibleError,
    Network,
    PenaltyConfig,
    SaaModel,
    SampleSet,
    benders_cut,
    branch_and_bound,
    critical_indices,
    cut_check,
    design_dro,
    enumerate_exact,
    oa_cut,
    penalties_from_beta,
    random_network,
    route_cost_rm,
    route_cost_sm,
    saa_window,
    sample_travel_times,
    substream,
)
from twdesign.solver import _completion_bounds


def solve_both(net, model, pen):
    a = enumerate_exact(net, model, pen)
    b = branch_and_bound(net, model, pen)
    return a, b


def outcome(solver, net, model, pen):
    """What a solver returns or raises, in a form compared with ``==``."""
    try:
        res = solver(net, model, pen)
    except InfeasibleError as exc:
        return "infeasible", str(exc), exc.min_budget
    except ValueError as exc:
        return "invalid", str(exc)
    return "solved", res.route.seq, res.objective


def both_models(samples):
    return SaaModel(samples), DroModel(alpha1=0.5, alpha2=0.2)


def mixed_penalties(n, seed):
    """Per-customer weights with different tolerances, hence different
    critical ranks (p1, p2); inside the moment model's domain."""
    rng = np.random.default_rng(seed)
    beta_l = rng.uniform(0.02, 0.3, n)
    beta_u = rng.uniform(0.02, 0.3, n)
    a_w = np.minimum(beta_l, beta_u) * rng.uniform(0.3, 1.0, n)
    return PenaltyConfig(a_w, a_w / beta_l, a_w / beta_u)


# ---------------------------------------------------------------------------
# search equivalence


def test_bnb_matches_enumeration_sm():
    for seed in range(6):
        for n in (4, 5):
            net = random_network(n, seed=seed, complete=(seed % 2 == 0))
            samples = sample_travel_times(net, 80, seed=seed + 30)
            pen = penalties_from_beta(0.1, 0.1, n)
            a, b = solve_both(net, SaaModel(samples), pen)
            assert b.objective == pytest.approx(a.objective, abs=1e-9), (seed, n)
            assert b.route.seq == a.route.seq
            assert b.budget_value <= net.time_budget
            assert a.proof_of_optimality and b.proof_of_optimality


def test_bnb_matches_enumeration_rm():
    for seed in range(6):
        for n in (4, 5):
            net = random_network(n, seed=seed + 17, complete=(seed % 2 == 1))
            pen = penalties_from_beta(0.05, 0.08, n)
            model = DroModel(alpha1=0.5, alpha2=0.3)
            a, b = solve_both(net, model, pen)
            assert b.objective == pytest.approx(a.objective, abs=1e-9), (seed, n)
            assert b.route.seq == a.route.seq


def test_objective_is_plan_cost_bitwise():
    # eight customers: from there numpy's pairwise sum would reorder the
    # plan total, so only a visit-order sum of the same costs matches
    n = 8
    pen = penalties_from_beta(0.05, 0.05, n)
    for seed in range(10):
        net = random_network(n, seed=seed)
        train = sample_travel_times(net, 1000, substream(seed, "sampling-train"))
        for model in (SaaModel(train), DroModel(0.0, 0.0)):
            a, b = solve_both(net, model, pen)
            assert a.route.seq == b.route.seq
            for res in (a, b):
                if model.name == "sm":
                    repriced = route_cost_sm(res.route, train, pen)
                else:
                    repriced = route_cost_rm(res.route, net.mean, net.cov, 0.0, pen)
                assert res.objective == res.plan.total_cost == repriced, (seed, model.name)


def test_bnb_matches_enumeration_rm_clamped_windows():
    # a tight target and a large covariance inflation push the early
    # customers' lower edges below zero, where the window is clamped and
    # its cost is no longer (gamma_l + gamma_u) * sigma
    n = 6
    pen = penalties_from_beta(0.01, 0.01, n)
    model = DroModel(alpha1=0.0, alpha2=20.0)
    clamped_plans = 0
    for seed in range(10):
        net = random_network(n, seed=seed, complete=True)
        a, b = solve_both(net, model, pen)
        assert b.route.seq == a.route.seq, seed
        assert b.objective == a.objective, seed
        assert b.objective == b.plan.total_cost, seed
        clamped_plans += bool(b.plan.clamped.any())
    assert clamped_plans >= 5


def test_bnb_matches_enumeration_heterogeneous_weights():
    # one cut per distinct weight triple: every customer here has its own
    n = 7
    for seed in range(10):
        net = random_network(n, seed=seed, complete=True)
        pen = mixed_penalties(n, seed)
        ranks = {critical_indices(50, *pen.for_customer(k)) for k in net.customers}
        assert len(ranks) > 1, seed
        train = sample_travel_times(net, 50, substream(seed, "sampling-train"))
        for model in (SaaModel(train), DroModel(alpha1=0.0, alpha2=0.3)):
            a, b = solve_both(net, model, pen)
            assert b.route.seq == a.route.seq, (seed, model.name)
            assert b.objective == a.objective, (seed, model.name)
            assert b.objective == b.plan.total_cost, (seed, model.name)


def test_completion_bound_prunes_dense_search():
    # the search without the completion bound visits 5,178 nodes here
    net = random_network(8, seed=0, complete=True)
    train = sample_travel_times(net, 1000, substream(0, "sampling-train"))
    res = branch_and_bound(net, SaaModel(train), penalties_from_beta(0.05, 0.05, 8))
    assert res.nodes < 1000


def completions(ctx, net, state, j, arc, rest):
    """Customer j's exact cost when placed by ``arc`` after ``state``, and
    the least summed cost of the other customers of ``rest`` over every
    path through them from j (the return arc is not required)."""
    at_j = ctx.extend(state, arc)
    best = np.inf
    for order in itertools.permutations([k for k in rest if k != j]):
        st, prev, total = at_j, j, 0.0
        for k in order:
            if (prev, k) not in net.arc_index:
                break
            st = ctx.extend(st, net.arc_index[prev, k])
            total += ctx.place_cost(st, k)
            prev = k
        else:
            best = min(best, total)
    return ctx.place_cost(at_j, j), best


def test_completion_bound_is_admissible():
    def cases():
        for n in (6, 7):
            for complete in (True, False):
                net = random_network(n, seed=n + complete, complete=complete)
                pen = mixed_penalties(n, n)
                for q in (1, 7, 200):
                    yield net, SaaModel(sample_travel_times(net, q, seed=q)), pen, "sm"
                yield net, DroModel(alpha2=0.3), pen, "rm"
                # large inflation and tight targets clamp the early windows
                yield net, DroModel(alpha2=20.0), penalties_from_beta(0.01, 0.01, n), "rm clamped"
                flat = Network(net.node_count, net.arcs, net.mean, np.zeros_like(net.cov), net.time_budget)
                yield flat, SaaModel(sample_travel_times(flat, 7, seed=0)), pen, "sm flat"
                yield flat, DroModel(), pen, "rm flat"
                # rank-one covariance b b': sigma = b'y is linear along every
                # path, so the rm cut is exact there, and with b < 0 between
                # customers only the (u - 2) min(0, w_min) term keeps the
                # bound below the later customers' costs
                b = np.array([3.0 if i == 0 else -0.3 for i, _ in net.arcs])
                line = Network(net.node_count, net.arcs, 10 * net.mean, np.outer(b, b), net.time_budget)
                yield line, DroModel(), pen, "rm rank one"

    rng = np.random.default_rng(0)
    checked = positive = 0
    for net, model, pen, label in cases():
        ctx = model.context(net, pen)
        for _ in range(4):
            # a random partial path from the depot leaving two or more customers
            state, node, rest = ctx.root_state(), 0, list(net.customers)
            for _ in range(rng.integers(0, len(rest) - 1)):
                nxt = [(j, a) for j, a in net.out_arcs[node] if j in rest]
                if not nxt:
                    break
                node, arc = nxt[rng.integers(len(nxt))]
                state = ctx.extend(state, arc)
                rest.remove(node)
            kids = [(j, a) for j, a in net.out_arcs[node] if j in rest]
            if len(rest) < 2 or not kids:
                continue
            # each cut is exact at the prefix (the unclamped cost for rm)
            for scale, intercept, _ in ctx.subgradients(state, np.array(rest)):
                for k in rest:
                    if model.name == "rm":
                        want = scale[k] * math.sqrt(state[2])
                    else:
                        want = ctx.place_cost(state, k) * (scale[k] > 0)
                    assert scale[k] * intercept == pytest.approx(want, rel=1e-9, abs=1e-9), label
            own, others = _completion_bounds(ctx, net, state, rest, kids)
            for c, (j, arc) in enumerate(kids):
                true_own, true_others = completions(ctx, net, state, j, arc, rest)
                assert own[c] <= true_own + 1e-9 * max(1.0, true_own), (label, j)
                assert others[c] <= true_others + 1e-9 * max(1.0, true_others), (label, j)
                checked += 1
                positive += 0 < others[c] < np.inf
    assert checked > 200
    assert positive > checked // 4


def test_search_cuts_match_benders_and_oa_cuts():
    # the weights the search prunes with are the optimality cuts' coefficients
    n = 6
    net = random_network(n, seed=3, complete=True)
    pen = mixed_penalties(n, 3)
    samples = sample_travel_times(net, 300, seed=3)
    model = DroModel(alpha2=0.4)
    cbar = net.cov + model.alpha2 * np.eye(net.n_arcs)
    route = branch_and_bound(net, SaaModel(samples), pen).route
    for name, ctx in (("sm", SaaModel(samples).context(net, pen)), ("rm", model.context(net, pen))):
        state = ctx.root_state()
        for arc, k in zip(route.path_arcs, route.customers):
            state = ctx.extend(state, arc)
            cuts = ctx.subgradients(state, np.array([k]))
            assert len(cuts) == 1
            scale, intercept, weights = cuts[0]
            if name == "rm":
                want = oa_cut(route.y[k - 1], cbar, customer=k)
                gamma = scale[k]
                np.testing.assert_allclose(gamma * weights, gamma * want.coeffs, rtol=0, atol=1e-12)
                assert gamma * intercept == pytest.approx(gamma * want.intercept, rel=1e-12)
            else:
                want = benders_cut(route.y[k - 1], samples, pen, k)
                assert scale[k] == 1.0
                np.testing.assert_allclose(weights, want.coeffs, rtol=0, atol=1e-12)
                assert intercept == pytest.approx(want.intercept, rel=1e-12, abs=1e-12)


def test_bnb_pruning_only_saves_work():
    n = 5
    net = random_network(n, seed=4, complete=True)
    samples = sample_travel_times(net, 60, seed=5)
    pen = penalties_from_beta(0.1, 0.1, n)
    ref, fast = solve_both(net, SaaModel(samples), pen)
    assert fast.objective == pytest.approx(ref.objective, abs=1e-12)
    assert fast.route.seq == ref.route.seq
    # an unpruned search visits every partial permutation exactly once
    full_tree = sum(math.factorial(n) // math.factorial(n - d) for d in range(n + 1))
    assert fast.nodes < full_tree
    assert fast.pruned > 0


def test_bnb_matches_enumeration_on_degenerate_inputs():
    def agree(net, model, pen, label, every_tour_ties=False):
        got = outcome(branch_and_bound, net, model, pen)
        want = outcome(enumerate_exact, net, model, pen)
        if every_tour_ties:
            # every window is a point of cost zero, so every feasible tour
            # is optimal and the two searches may return different ones
            got, want = (got[0], got[2]), (want[0], want[2])
        assert got == want, label
        return got[0]

    n = 4
    pen = penalties_from_beta(0.1, 0.1, n)
    # equal critical indices: the sm window is a point at one order
    # statistic, and 2 a_w = a_l puts rm on its excluded boundary
    point = PenaltyConfig(np.full(5, 0.5), np.ones(5), np.ones(5))
    p1, p2 = critical_indices(5, 0.5, 1.0, 1.0)
    assert p1 == p2
    for seed in range(6):
        net = random_network(n, seed=seed, complete=seed % 2 == 0)
        for model in both_models(sample_travel_times(net, 1, seed=seed)):
            kind = agree(net, model, pen, (seed, model.name, "q=1"), every_tour_ties=model.name == "sm")
            assert kind == "solved"
        net5 = random_network(5, seed=seed, complete=seed % 2 == 0)
        for model in both_models(sample_travel_times(net5, 5, seed=seed)):
            kind = agree(net5, model, point, (seed, model.name, "p1 == p2"))
            assert kind == ("solved" if model.name == "sm" else "invalid")
        flat = Network(net.node_count, net.arcs, net.mean, np.zeros_like(net.cov), net.time_budget)
        for model in (SaaModel(sample_travel_times(flat, 20, seed=seed)), DroModel(alpha1=0.5)):
            kind = agree(flat, model, pen, (seed, model.name, "zero covariance"), every_tour_ties=True)
            assert kind == "solved"
        for model in both_models(sample_travel_times(net, 30, seed=seed)):
            shut = Network(net.node_count, net.arcs, net.mean, net.cov, 1.0)
            with pytest.raises(InfeasibleError) as exc:
                enumerate_exact(shut, model, pen)
            assert agree(shut, model, pen, (seed, model.name, "infeasible")) == "infeasible"
            # a budget equal to the cheapest tour's budget admits that tour
            exact = Network(net.node_count, net.arcs, net.mean, net.cov, exc.value.min_budget)
            assert agree(exact, model, pen, (seed, model.name, "tight budget")) == "solved"
    # no full circuit: each customer is reachable, but no tour covers both
    arcs = ((0, 1), (1, 0), (0, 2), (2, 0))
    net = Network(3, arcs, np.ones(4), np.zeros((4, 4)), 100.0)
    for model in both_models(sample_travel_times(net, 5, seed=0)):
        assert agree(net, model, penalties_from_beta(0.1, 0.1, 2), model.name) == "infeasible"


def test_tied_tours_follow_each_search_order():
    # with one scenario every sm window is a zero-cost point, so every tour
    # ties: enumeration keeps the lexicographically first circuit, branch
    # and bound the first it reaches going cheapest arc first
    n = 6
    pen = penalties_from_beta(0.1, 0.1, n)
    for seed in range(8):
        net = random_network(n, seed=seed, complete=seed % 2 == 0, time_budget=1e6)
        samples = sample_travel_times(net, 1, seed=seed)
        linear = samples.values[0]
        circuits = [
            path
            for perm in itertools.permutations(net.customers)
            for path in [(0, *perm, 0)]
            if all(arc in net.arc_index for arc in zip(path, path[1:]))
        ]
        ref = enumerate_exact(net, SaaModel(samples), pen)
        assert ref.nodes == len(circuits), seed
        assert ref.route.seq == circuits[0], seed

        def reached_order(path):
            return [(linear[net.arc_index[arc]], arc[1]) for arc in zip(path[:-2], path[1:-1])]

        res = branch_and_bound(net, SaaModel(samples), pen)
        assert res.route.seq == min(circuits, key=reached_order), seed
        assert res.objective == ref.objective == 0.0


def test_dro_domain_rule_is_checked_before_search(monkeypatch):
    net = random_network(4, seed=0, complete=True)
    # just inside 2 a_w < a_l: the search and the plan accept it alike
    inside = PenaltyConfig(np.full(4, 0.5 - 5e-14), np.ones(4), np.ones(4))
    res = branch_and_bound(net, DroModel(), inside)
    assert res.objective == res.plan.total_cost
    # on the boundary both refuse before any search starts
    boundary = PenaltyConfig(np.full(4, 0.5), np.ones(4), np.ones(4))

    def no_search(*args, **kwargs):
        raise AssertionError("searched an input outside the domain")

    monkeypatch.setattr("twdesign.solver._dfs", no_search)
    with pytest.raises(ValueError, match="coefficient domain"):
        branch_and_bound(net, DroModel(), boundary)
    with pytest.raises(ValueError, match="coefficient domain: moment-robust design needs 2\\*a_w < min"):
        design_dro(res.route, net.mean, net.cov, 0.0, boundary)


def test_bnb_deterministic_across_runs():
    net = random_network(6, seed=2, complete=True)
    samples = sample_travel_times(net, 100, seed=3)
    pen = penalties_from_beta(0.05, 0.05, 6)
    a = branch_and_bound(net, SaaModel(samples), pen)
    b = branch_and_bound(net, SaaModel(samples), pen)
    assert a.route.seq == b.route.seq
    assert a.objective == b.objective  # bitwise
    assert (a.nodes, a.pruned) == (b.nodes, b.pruned)


def test_enumeration_customer_limit():
    net = random_network(10, seed=0)
    samples = sample_travel_times(net, 10, seed=0)
    pen = penalties_from_beta(0.1, 0.1, 10)
    with pytest.raises(ValueError, match="enumeration limited to 9"):
        enumerate_exact(net, SaaModel(samples), pen)


def test_model_validation():
    net = random_network(3, seed=0, complete=True)
    samples = sample_travel_times(net, 10, seed=0)
    with pytest.raises(ValueError, match="customer count"):
        enumerate_exact(net, SaaModel(samples), penalties_from_beta(0.1, 0.1, 4))
    other = random_network(4, seed=0, complete=True)
    wrong = sample_travel_times(other, 10, seed=0)
    with pytest.raises(ValueError, match="arc count"):
        enumerate_exact(net, SaaModel(wrong), penalties_from_beta(0.1, 0.1, 3))
    # moment-robust model needs strict coefficient domain
    pen = PenaltyConfig(0.5 * np.ones(3), np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="coefficient domain"):
        branch_and_bound(net, DroModel(), pen)
    with pytest.raises(TypeError, match="unknown model"):
        enumerate_exact(net, object(), penalties_from_beta(0.1, 0.1, 3))
    # a NaN inflation would price every tour at NaN and report a false
    # infeasibility, an infinite one every tour at infinity
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            DroModel(alpha1=bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            DroModel(alpha2=bad)


# ---------------------------------------------------------------------------
# infeasibility


def test_budget_infeasible_reports_cheapest_tour():
    net = random_network(4, seed=6, complete=True, time_budget=1.0)
    samples = sample_travel_times(net, 50, seed=6)
    pen = penalties_from_beta(0.1, 0.1, 4)
    with pytest.raises(InfeasibleError) as e1:
        enumerate_exact(net, SaaModel(samples), pen)
    with pytest.raises(InfeasibleError) as e2:
        branch_and_bound(net, SaaModel(samples), pen)
    # both searches agree on the unreachable cheapest budget
    assert e1.value.min_budget == pytest.approx(e2.value.min_budget, abs=1e-9)
    assert e1.value.min_budget > 1.0
    assert "budget infeasible" in str(e1.value)
    assert f"{e1.value.min_budget:.6g}" in str(e1.value)


def test_infeasible_budget_matches_enumeration_exactly():
    # the budget-only pass of the search must find enumeration's cheapest tour
    for seed in range(6):
        net = random_network(6, seed=seed, complete=seed % 2 == 0, time_budget=5.0)
        samples = sample_travel_times(net, 50, seed=seed)
        pen = penalties_from_beta(0.05, 0.05, 6)
        for model in (SaaModel(samples), DroModel(alpha1=1.5)):
            with pytest.raises(InfeasibleError) as e1:
                enumerate_exact(net, model, pen)
            with pytest.raises(InfeasibleError) as e2:
                branch_and_bound(net, model, pen)
            assert e2.value.min_budget == e1.value.min_budget, (seed, model.name)
            assert str(e2.value) == str(e1.value)


def test_no_circuit_network():
    # both customers individually reach the depot and back, but no single
    # tour covers the two of them
    arcs = ((0, 1), (1, 0), (0, 2), (2, 0))
    net = Network(3, arcs, np.ones(4), np.zeros((4, 4)), 100.0)
    samples = sample_travel_times(net, 5, seed=0)
    pen = penalties_from_beta(0.1, 0.1, 2)
    with pytest.raises(InfeasibleError, match="no full circuit"):
        enumerate_exact(net, SaaModel(samples), pen)
    with pytest.raises(InfeasibleError, match="no full circuit"):
        branch_and_bound(net, SaaModel(samples), pen)


def test_dro_budget_infeasibility():
    net = random_network(3, seed=3, complete=True, time_budget=1.0)
    pen = penalties_from_beta(0.05, 0.05, 3)
    with pytest.raises(InfeasibleError) as e1:
        enumerate_exact(net, DroModel(alpha1=2.0), pen)
    with pytest.raises(InfeasibleError) as e2:
        branch_and_bound(net, DroModel(alpha1=2.0), pen)
    assert e1.value.min_budget == pytest.approx(e2.value.min_budget, abs=1e-9)


# ---------------------------------------------------------------------------
# optimality cuts


def test_benders_cut_single_sample_is_trivial():
    net = random_network(2, seed=0, complete=True)
    samples = sample_travel_times(net, 1, seed=0)
    pen = penalties_from_beta(0.2, 0.2, 2)
    y = np.zeros(net.n_arcs)
    y[0] = 1.0
    cut = benders_cut(y, samples, pen, customer=1)
    # a single scenario admits a zero-cost point window, so the cut is flat
    assert cut.intercept == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(cut.coeffs, 0.0, atol=1e-15)


def test_benders_cut_valid_and_tight():
    rng = np.random.default_rng(10)
    net = random_network(3, seed=10, complete=True)
    samples = sample_travel_times(net, 60, seed=11)
    pen = penalties_from_beta(0.1, 0.15, 3)
    a_w, a_l, a_u = pen.for_customer(2)

    def evaluator(y):
        return saa_window(samples.values @ y, a_w, a_l, a_u).cost

    for trial in range(15):
        anchor = rng.uniform(0.0, 1.0, net.n_arcs)
        cut = benders_cut(anchor, samples, pen, customer=2)
        # tight at the anchor
        assert evaluator(anchor) == pytest.approx(cut.intercept, abs=1e-9)
        # valid at random test points, including binary ones
        for _ in range(40):
            y = rng.uniform(0.0, 1.0, net.n_arcs)
            assert cut_check(cut, y, evaluator)
            yb = (rng.uniform(0.0, 1.0, net.n_arcs) < 0.3).astype(float)
            assert cut_check(cut, yb, evaluator)


def test_benders_cut_shape_check():
    net = random_network(2, seed=1, complete=True)
    samples = sample_travel_times(net, 10, seed=1)
    pen = penalties_from_beta(0.1, 0.1, 2)
    with pytest.raises(ValueError, match="anchor: expected shape"):
        benders_cut(np.ones(3), samples, pen, customer=1)


def test_oa_cut_frozen_example():
    cbar = np.array([[4.0, 0.0], [0.0, 9.0]])
    cut = oa_cut(np.array([1.0, 1.0]), cbar)
    assert cut.intercept == pytest.approx(math.sqrt(13.0))
    np.testing.assert_allclose(cut.coeffs, [4 / math.sqrt(13), 9 / math.sqrt(13)], atol=1e-12)


def test_oa_cut_matches_finite_differences():
    rng = np.random.default_rng(4)
    base = rng.uniform(-1.0, 1.0, (5, 5))
    cbar = base @ base.T + 0.5 * np.eye(5)
    y0 = rng.uniform(0.2, 1.0, 5)
    cut = oa_cut(y0, cbar)
    h = 1e-6

    def phi(y):
        return math.sqrt(float(y @ cbar @ y))

    for a in range(5):
        e = np.zeros(5)
        e[a] = h
        fd = (phi(y0 + e) - phi(y0 - e)) / (2 * h)
        assert cut.coeffs[a] == pytest.approx(fd, abs=1e-6)


def test_oa_cut_valid_globally():
    rng = np.random.default_rng(5)
    base = rng.uniform(-1.0, 1.0, (6, 6))
    cbar = base @ base.T + 0.1 * np.eye(6)

    def phi(y):
        return math.sqrt(float(y @ cbar @ y))

    for trial in range(10):
        anchor = rng.uniform(0.1, 1.0, 6)
        cut = oa_cut(anchor, cbar)
        for _ in range(100):
            y = rng.uniform(0.0, 1.0, 6)
            assert cut_check(cut, y, evaluator=phi)


def test_oa_cut_rejects_singular_anchor():
    with pytest.raises(ValueError, match="singular anchor"):
        oa_cut(np.zeros(3), np.eye(3))


def test_cut_check_detects_corruption():
    # inflating the intercept past the tolerance must fail somewhere
    cbar = np.eye(2)
    cut = oa_cut(np.array([1.0, 0.0]), cbar)
    cut.intercept += 1e-6

    def phi(y):
        return math.sqrt(float(y @ cbar @ y))

    assert not cut_check(cut, np.array([1.0, 0.0]), phi)


def test_solve_result_json_shape():
    net = random_network(3, seed=1, complete=True)
    samples = sample_travel_times(net, 20, seed=1)
    pen = penalties_from_beta(0.1, 0.1, 3)
    res = branch_and_bound(net, SaaModel(samples), pen)
    doc = res.to_json_dict()
    assert doc["seq"][0] == 0 and doc["seq"][-1] == 0
    assert doc["model"] == "sm"
    assert "wall_time_s" in doc
    assert "wall_time_s" not in res.to_json_dict(include_timing=False)
