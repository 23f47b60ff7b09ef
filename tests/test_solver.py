"""Tests for the exact solvers and the optimality cuts."""

import dataclasses
import gc
import itertools
import math
import re
import weakref

import numpy as np
import pytest

from reference import three_net
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
    design_stochastic,
    enumerate_exact,
    oa_cut,
    penalties_from_beta,
    random_network,
    route_cost_rm,
    route_cost_sm,
    route_to_xy,
    saa_window,
    sample_travel_times,
    substream,
)
from twdesign import solver, window_design
from twdesign.solver import _completion_bounds, _Completions, build_model
from twdesign.window_design import DroPricer, SaaPricer


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


def assert_budgets_match_enumeration(net, model, pen, label):
    """Both searches agree on ``net`` as given (a tour fits), at budget
    5.0 (no tour fits) and at the cheapest tour budget quoted there."""
    got = outcome(branch_and_bound, net, model, pen)
    assert got == outcome(enumerate_exact, net, model, pen), label
    assert got[0] == "solved", label
    shut = Network(net.node_count, net.arcs, net.mean, net.cov, 5.0)
    got = outcome(branch_and_bound, shut, model, pen)
    assert got == outcome(enumerate_exact, shut, model, pen), label
    assert got[0] == "infeasible", label
    tight = Network(net.node_count, net.arcs, net.mean, net.cov, got[2])
    got = outcome(branch_and_bound, tight, model, pen)
    assert got == outcome(enumerate_exact, tight, model, pen), label
    assert got[0] == "solved", label


def both_models(samples):
    return SaaModel(samples), DroModel(alpha1=0.5, alpha2=0.2)


def fields(obj):
    """A dataclass's fields in a form compared with ``==``: arrays by their
    bytes, a nested dataclass field by field, anything else by ``repr``."""
    return [
        (f.name, fields(v) if dataclasses.is_dataclass(v) else v.tobytes() if isinstance(v, np.ndarray) else repr(v))
        for f in dataclasses.fields(obj)
        for v in [getattr(obj, f.name)]
    ]


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
                    fresh = design_stochastic(res.route, train, pen)[0]
                else:
                    repriced = route_cost_rm(res.route, net.mean, net.cov, 0.0, pen)
                    fresh = design_dro(res.route, net.mean, net.cov, 0.0, pen)
                assert res.objective == res.plan.total_cost == repriced, (seed, model.name)
                # the solve's plan is the library design, field by field
                for field in ("lower", "upper", "cost_per_customer", "early_rate", "late_rate", "clamped"):
                    got, want = getattr(res.plan, field), getattr(fresh, field)
                    assert (got is None) == (want is None), field
                    if want is not None:
                        assert np.array_equal(got, want), (seed, model.name, field)


def test_solve_plan_is_the_route_plan(monkeypatch):
    # a solve's plan is assembled from the windows its search priced, and
    # equals the pricer's plan of the returned route field for field: the
    # search prices each placed customer once and never the tour again
    def cases():
        for seed in range(3):
            for complete in (True, False):
                net = random_network(6, seed=seed, complete=complete)
                samples = sample_travel_times(net, 200, seed=seed)
                for pen in (penalties_from_beta(0.05, 0.05, 6), mixed_penalties(6, seed)):
                    yield net, pen, SaaModel(samples), "sm"
                    yield net, pen, DroModel(alpha1=0.5, alpha2=0.2), "rm"
                # tied arrivals
                rounded = SampleSet(200, np.round(samples.values))
                yield net, mixed_penalties(6, seed), SaaModel(rounded), "sm ties"
                flat = Network(net.node_count, net.arcs, net.mean, np.zeros_like(net.cov), net.time_budget)
                pen = penalties_from_beta(0.05, 0.05, 6)
                yield flat, pen, SaaModel(sample_travel_times(flat, 50, seed=seed)), "sm flat"
                yield flat, pen, DroModel(), "rm flat"
                # a tight target and a large inflation clamp the first window
                yield net, penalties_from_beta(0.01, 0.01, 6), DroModel(alpha2=20.0), "rm clamped"

    solved = []
    for net, pen, model, label in cases():
        for search in (branch_and_bound, enumerate_exact):
            res = search(net, model, pen)
            assert fields(res.plan) == fields(model.context(net, pen).plan(res.route)), (label, search.__name__)
            solved.append((label, res.plan))
    assert any(plan.clamped[0] for label, plan in solved if label == "rm clamped")

    # neither search builds a plan by pricing the route again, and each
    # price runs its model's kernel once
    counts = {"kernel": 0, "price": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def refused(self, route):
        raise AssertionError("the search priced its tour again")

    for pricer in (SaaPricer, DroPricer):
        monkeypatch.setattr(pricer, "plan", refused)
        monkeypatch.setattr(pricer, "price", counted("price", pricer.price))
    monkeypatch.setattr(window_design, "_order_stat_window", counted("kernel", window_design._order_stat_window))
    monkeypatch.setattr(window_design, "_dro_window", counted("kernel", window_design._dro_window))
    for net, pen, model, label in cases():
        for search in (branch_and_bound, enumerate_exact):
            counts.update(kernel=0, price=0)
            search(net, model, pen)
            assert counts["kernel"] == counts["price"] > 0, (label, search.__name__)


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


def test_dead_ends_are_pruned_before_the_first_tour():
    # the budget limit and the incumbent's cost are infinite until a tour
    # is offered, yet the completion test discards every child that
    # cannot finish a tour, before the first tour too: the search visits
    # 32 nodes here, 42 with reachability alone in place of the test
    net = random_network(10, seed=1)
    train = sample_travel_times(net, 1000, substream(1, "sampling-train"))
    res = branch_and_bound(net, SaaModel(train), penalties_from_beta(0.05, 0.05, 10))
    assert res.nodes < 100


def test_only_nodes_with_children_to_order_are_bounded(monkeypatch):
    # a node with two children or more and two unplaced customers or more
    # bounds them before its first, tour or no tour, to try them in bound
    # order; a lone child has nothing to order and is never bounded, also
    # once a tour exists.  Sparse n=16: on the default n=12 graphs of
    # seeds 0-2 the exact completion test leaves few nodes with two live
    # children (none at seed 0), so the search there may bound no node
    calls = []
    state = {"tour": False}

    def counting(ctx, net, node_state, rest, kids):
        calls.append((len(rest), len(kids), state["tour"]))
        return _completion_bounds(ctx, net, node_state, rest, kids)

    def offer(self, seq, cost, windows):
        offered(self, seq, cost, windows)
        state["tour"] = self.cost < np.inf

    offered = solver._Incumbent.offer
    monkeypatch.setattr(solver, "_completion_bounds", counting)
    monkeypatch.setattr(solver._Incumbent, "offer", offer)
    for seed in (1, 2, 3):
        net = random_network(16, seed=seed)
        pen = penalties_from_beta(0.05, 0.05, 16)
        for name in ("sm", "rm"):
            calls.clear()
            state["tour"] = False
            branch_and_bound(net, build_model(name, net, seed, 200), pen)
            assert all(rest > 1 and kids > 1 for rest, kids, _ in calls), (seed, name)
            assert {tour for *_, tour in calls} == {False, True}, (seed, name)


def _sm_cases():
    """(network, penalties, training samples) of small ``sm`` searches:
    complete and sparse arcs, one and several weight triples, and tied
    arrivals (rounded draws, and no spread at all)."""
    for seed in range(4):
        net = random_network(7, seed=seed, complete=True)
        yield net, mixed_penalties(7, seed), sample_travel_times(net, 120, seed=seed)
        yield net, penalties_from_beta(0.05, 0.05, 7), sample_travel_times(net, 300, seed=seed)
        sparse = random_network(9, seed=seed)
        yield sparse, mixed_penalties(9, seed), sample_travel_times(sparse, 200, seed=seed)
        rounded = sample_travel_times(net, 200, seed=seed)
        yield net, mixed_penalties(7, seed), SampleSet(200, np.round(rounded.values))
        flat = Network(net.node_count, net.arcs, net.mean, np.zeros_like(net.cov), net.time_budget)
        yield flat, penalties_from_beta(0.05, 0.05, 7), sample_travel_times(flat, 50, seed=seed)


def test_only_cuts_rank_the_samples(monkeypatch):
    # pricing sorts a state and ranks nothing: price, plan and
    # route_cost_sm call no argpartition, and an sm search ranks once per
    # cut that subgradients builds, one per weight triple at each node
    # whose children it bounds
    rankings, cuts = [], []
    ranks = window_design._ranks
    monkeypatch.setattr(window_design, "_ranks", lambda *args: rankings.append(0) or ranks(*args))
    subgradients = SaaPricer.subgradients

    def counted(self, state, unplaced):
        built = subgradients(self, state, unplaced)
        cuts.append(len(built))
        return built

    def refused(*args, **kwargs):
        raise AssertionError("pricing ranked the samples")

    monkeypatch.setattr(SaaPricer, "subgradients", counted)
    bounded = several = 0
    for net, pen, samples in _sm_cases():
        rankings.clear()
        cuts.clear()
        route = branch_and_bound(net, SaaModel(samples), pen).route
        assert len(rankings) == sum(cuts), (len(rankings), sum(cuts))
        bounded += bool(cuts)
        several += sum(cuts) > len(cuts)
        with monkeypatch.context() as m:
            m.setattr(np, "argpartition", refused)
            enumerate_exact(net, SaaModel(samples), pen)
            ctx = SaaPricer(samples, pen)
            for k, state in window_design._prefix_states(ctx, route):
                ctx.price(state, k)
            ctx.plan(route)
            route_cost_sm(route, samples, pen)
    assert bounded > 15 and several > 5, (bounded, several)


def _tails(ranked, p1, p2):
    """The two tails of a full ranking that ``_ranks`` returns."""
    return ranked[:p1], ranked[p2 - 1 :]


@pytest.mark.parametrize("ranking", [
    lambda arr, p1, p2: _tails(np.argsort(arr, kind="stable"), p1, p2),
    lambda arr, p1, p2: _tails(np.lexsort((-np.arange(arr.size), arr)), p1, p2),  # ties by descending index
], ids=["stable argsort", "ties reversed"])
def test_another_ranking_changes_no_cost(monkeypatch, ranking):
    # costs depend on the sample values alone: with any other valid
    # ranking in place of _ranks the cuts, and so the node counts, may
    # move, but every tour, objective and plan stays bit for bit
    def solve(net, pen, samples):
        res = branch_and_bound(net, SaaModel(samples), pen)
        return res.route.seq, res.objective.hex(), fields(res.plan)

    solves = [solve(*case) for case in _sm_cases()]
    monkeypatch.setattr(window_design, "_ranks", ranking)
    assert [solve(*case) for case in _sm_cases()] == solves


def test_pricers_keep_no_state(monkeypatch):
    # a pricer keeps nothing between calls: once its linear costs are
    # read, pricing, cuts and plans leave its attributes as they were, and
    # a search whose pricer also prices an unrelated state after every
    # call returns the same solve, field for field
    net = random_network(7, seed=2, complete=True)
    pen = mixed_penalties(7, 2)
    models = both_models(sample_travel_times(net, 200, seed=2))
    route = branch_and_bound(net, models[0], pen).route
    for model in models:
        ctx = model.context(net, pen)
        ctx.linear
        before = dict(vars(ctx))
        state = ctx.root_state()
        for arc, k in zip(route.path_arcs, route.customers):
            ctx.subgradients(state, np.array(route.customers))
            state = ctx.extend(state, arc)
            ctx.price(state, k)
        ctx.plan(route)
        after = vars(ctx)
        assert after.keys() == before.keys(), model.name
        assert all(after[key] is value for key, value in before.items()), model.name

    def solves():
        return [
            [f for f in fields(search(net, model, pen)) if f[0] != "wall_time"]
            for search in (branch_and_bound, enumerate_exact)
            for model in models
        ]

    plain = solves()
    for pricer in (SaaPricer, DroPricer):

        def stray(self, state, k, price=pricer.price):
            window = price(self, state, k)
            price(self, self.extend(self.root_state(), net.arc_index[0, 1]), net.n_customers)
            return window

        monkeypatch.setattr(pricer, "price", stray)
    assert solves() == plain


def test_structural_prune_matches_enumeration():
    # the structural prune discards only subtrees that hold no tour, so on
    # sparse arcs both searches agree on the tour, its cost, and, with no
    # tour in budget, on the error and the cheapest budget it quotes
    checked = 0
    for n in (5, 6, 7, 8):
        for seed in range(6):
            net = random_network(n, seed=seed)
            pen = penalties_from_beta(0.05, 0.05, n)
            for model in both_models(sample_travel_times(net, 50, seed=seed)):
                assert_budgets_match_enumeration(net, model, pen, (n, seed, model.name))
                checked += 1
    assert checked == 48


def test_structural_prune_cuts_a_stranding_dive(monkeypatch):
    # reachability alone (every unplaced customer reached from the child
    # and reaching the depot inside the unplaced set, the prune before the
    # exact test) lets in children whose every path through the others
    # strands a customer; the exact completion test cuts them, so the
    # search visits fewer nodes (12 against 22 for sm, 11 against 21 for
    # rm here) and returns the same tour, the enumeration's
    net = random_network(7, seed=7)
    pen = penalties_from_beta(0.05, 0.05, 7)
    models = [build_model(name, net, 7, 200) for name in ("sm", "rm")]
    solved = [solve_both(net, model, pen) for model in models]

    def reachable(self, j, rest):
        return solver._spans(self.succ[j], self.succ, rest) and solver._spans(self.pred[0], self.pred, rest)

    monkeypatch.setattr(_Completions, "__call__", reachable)
    for model, (ref, res) in zip(models, solved):
        loose = branch_and_bound(net, model, pen)
        assert res.route.seq == ref.route.seq == loose.route.seq, model.name
        assert res.objective == ref.objective == loose.objective, model.name
        assert res.nodes < loose.nodes, model.name


def has_completion(arcs, j, rest):
    """Brute force: some order of the customers ``rest`` (a frozenset) is a
    path of ``arcs`` from j that ends with an arc home to the depot."""
    if not rest:
        return (j, 0) in arcs
    return any((j, k) in arcs and has_completion(arcs, k, rest - {k}) for k in rest)


def test_completion_test_is_exact(monkeypatch):
    # every state the completion test decides, through its pre-checks or
    # by branching, agrees with brute force both ways: a rejected state
    # has no completion and an accepted one has one; first every state a
    # search queries or reaches on sparse networks, then every state of
    # random digraphs of other densities.  A network keeps one memo for
    # all its solves, so each model solves its own copy of the network
    # and every search's states are checked as a fresh memo decides them
    tests = []
    init = _Completions.__init__

    def recording(self, *args):
        init(self, *args)
        tests.append(self)

    monkeypatch.setattr(_Completions, "__init__", recording)
    decided = 0
    for n in (5, 7, 9):
        for seed in range(8):
            net = random_network(n, seed=seed)
            pen = penalties_from_beta(0.05, 0.05, n)
            for model in both_models(sample_travel_times(net, 50, seed=seed)):
                branch_and_bound(Network(net.node_count, net.arcs, net.mean, net.cov, net.time_budget), model, pen)
                memo = tests.pop().memo
                for (j, rest), known in memo.items():
                    members = frozenset(k for k in net.customers if rest >> k & 1)
                    assert known == has_completion(net.arc_index, j, members), (n, seed, j, rest)
                decided += len(memo)
    rng = np.random.default_rng(0)
    outcomes = set()
    for n in (4, 5, 6, 7):
        for density in (0.3, 0.5, 0.7):
            arcs = {(i, j) for i in range(n + 1) for j in range(n + 1) if i != j and rng.random() < density}
            completes = _Completions(arcs, n + 1)
            for j in range(1, n + 1):
                for members in itertools.product((0, 1), repeat=n - 1):
                    rest = sum(1 << k for k, bit in zip((k for k in range(1, n + 1) if k != j), members) if bit)
                    want = has_completion(arcs, j, frozenset(k for k in range(1, n + 1) if rest >> k & 1))
                    assert completes(j, rest) == want, (n, density, j, rest)
                    if rest:  # a state with its pre-checks passed, or not
                        outcomes.add((want, completes._open(j, rest) != 0))
    assert decided > 1000
    # the pre-checks reject no state that completes, and miss some that
    # do not, which branching rejects
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_search_bounds_only_children_with_a_completion(monkeypatch):
    # the contract between the search and its completion bound: the
    # bound is handed two or more children, with two or more customers
    # unplaced, and each child has a completion (a path through the other
    # unplaced customers and home), so each into_k is a minimum over arcs
    # that exist and every bound returned is finite; on sparse and
    # complete arcs, equal and mixed weights, at the network's own budget,
    # at one that no tour fits and at the cheapest budget quoted there
    calls = []

    def checking(ctx, net, state, rest, kids):
        assert len(rest) > 1 and len(kids) > 1
        for j, _ in kids:
            assert has_completion(net.arc_index, j, frozenset(rest) - {j}), (rest, j)
        own, others = _completion_bounds(ctx, net, state, rest, kids)
        assert all(math.isfinite(b) for b in own + others), (rest, kids)
        calls.append(len(kids))
        return own, others

    def cases():
        for n in (7, 8, 9):
            for seed in range(8):
                net = random_network(n, seed=seed)
                yield net, penalties_from_beta(0.05, 0.05, n), seed
                if n == 8 and seed < 4:
                    yield net, mixed_penalties(n, seed), seed
        complete = random_network(7, seed=0, complete=True)
        yield complete, penalties_from_beta(0.05, 0.05, 7), 0
        yield complete, mixed_penalties(7, 0), 0

    monkeypatch.setattr(solver, "_completion_bounds", checking)
    binding = 0
    for net, pen, seed in cases():
        for model in both_models(sample_travel_times(net, 50, seed=seed)):
            own = branch_and_bound(net, model, pen)
            shut = Network(net.node_count, net.arcs, net.mean, net.cov, 5.0)
            with pytest.raises(InfeasibleError) as info:
                branch_and_bound(shut, model, pen)
            tight = Network(net.node_count, net.arcs, net.mean, net.cov, info.value.min_budget)
            binding += branch_and_bound(tight, model, pen).route.seq != own.route.seq
    assert len(calls) > 1000 and binding > 10, (len(calls), binding)


def test_complete_graphs_skip_the_structural_prune(monkeypatch):
    # every arc exists, so every child has a completion and the structural
    # test never runs; the counts pin the search with the positional
    # completion bound and its children in bound order from the root
    pinned = {
        (0, "sm"): (65, 126), (0, "rm"): (34, 90),
        (1, "sm"): (42, 125), (1, "rm"): (33, 101),
        (2, "sm"): (63, 149), (2, "rm"): (53, 144),
        (3, "sm"): (39, 94), (3, "rm"): (39, 95),
    }
    calls = []
    completes = _Completions.__call__

    def counting(self, j, rest):
        calls.append((j, rest))
        return completes(self, j, rest)

    monkeypatch.setattr(_Completions, "__call__", counting)
    pen = penalties_from_beta(0.05, 0.05, 7)
    for seed in range(4):
        net = random_network(7, seed=seed, complete=True)
        for name in ("sm", "rm"):
            res = branch_and_bound(net, build_model(name, net, seed, 200), pen)
            assert (res.nodes, res.pruned) == pinned[seed, name], (seed, name)
    assert calls == []
    sparse = random_network(7, seed=0)
    branch_and_bound(sparse, build_model("rm", sparse, 0, 200), pen)
    assert calls, "the counter does not see the structural test"


def test_sparse_search_counts_are_pinned():
    # the counts pin the search on sparse arcs, where the structural prune
    # runs, at each instance's budget and at the cheapest tour budget that
    # budget 5.0 quotes, where instances 1 and 2 also prune by the budget
    # limit; a lone child is never bounded, so only the prunes that need
    # no completion bound can stop the search from entering it.  The
    # completion test is exact, so the first dive reaches a tour without
    # turning back, and at instance 0 no other child survives the prunes
    pinned = {
        (0, "sm", "own"): ((0, 10, 1, 3, 11, 7, 5, 2, 12, 6, 9, 8, 4, 0), 13, 7),
        (0, "sm", "tight"): ((0, 10, 1, 3, 11, 7, 5, 2, 12, 6, 9, 8, 4, 0), 13, 7),
        (0, "rm", "own"): ((0, 10, 1, 3, 11, 7, 5, 2, 12, 6, 9, 8, 4, 0), 13, 7),
        (0, "rm", "tight"): ((0, 10, 1, 3, 11, 7, 5, 2, 12, 6, 9, 8, 4, 0), 13, 7),
        (1, "sm", "own"): ((0, 5, 4, 10, 3, 11, 8, 1, 2, 9, 12, 6, 7, 0), 79, 57),
        (1, "sm", "tight"): ((0, 5, 4, 10, 3, 11, 2, 9, 12, 6, 7, 8, 1, 0), 68, 49),
        (1, "rm", "own"): ((0, 5, 4, 10, 3, 11, 8, 1, 2, 9, 12, 6, 7, 0), 81, 57),
        (1, "rm", "tight"): ((0, 5, 4, 10, 3, 11, 2, 9, 12, 6, 7, 8, 1, 0), 81, 51),
        (2, "sm", "own"): ((0, 9, 11, 8, 3, 6, 12, 4, 7, 10, 5, 1, 2, 0), 29, 16),
        (2, "sm", "tight"): ((0, 9, 11, 8, 1, 7, 10, 5, 4, 3, 6, 12, 2, 0), 13, 8),
        (2, "rm", "own"): ((0, 9, 11, 8, 3, 6, 12, 4, 7, 10, 5, 1, 2, 0), 21, 13),
        (2, "rm", "tight"): ((0, 9, 11, 8, 1, 7, 10, 5, 4, 3, 6, 12, 2, 0), 23, 13),
    }
    pen = penalties_from_beta(0.05, 0.05, 12)
    for seed in range(3):
        net = random_network(12, seed=seed)

        def at(budget):
            return Network(net.node_count, net.arcs, net.mean, net.cov, budget)

        for model in (build_model("sm", net, seed, 200), DroModel(0.5, 0.2)):
            with pytest.raises(InfeasibleError) as shut:
                branch_and_bound(at(5.0), model, pen)
            for label, budget in (("own", net.time_budget), ("tight", shut.value.min_budget)):
                res = branch_and_bound(at(budget), model, pen)
                assert (res.route.seq, res.nodes, res.pruned) == pinned[seed, model.name, label], (seed, label)


def test_search_depth_uses_no_python_stack():
    # a valid network whose only tour runs through 1,000 customers (the
    # arc cap is 2,000): a Python frame per customer placed would pass the
    # default recursion limit; the arc (0, 2) strands customer 1
    n = 1000
    arcs = [(i, (i + 1) % (n + 1)) for i in range(n + 1)] + [(0, 2)]
    mean = np.full(len(arcs), 10.0)
    net = Network(n + 1, arcs, mean, np.diag((0.2 * mean) ** 2), 1e9)
    res = branch_and_bound(net, DroModel(), penalties_from_beta(0.05, 0.05, n))
    assert res.route.seq == (*range(n + 1), 0)
    assert (res.nodes, res.pruned) == (n + 1, 1)


def test_searches_free_their_pricer_on_return():
    # neither search leaves a reference cycle that holds its pricer: with
    # the garbage collector off, the pricer is freed as the search returns
    pricers = []

    class Tracked:
        """A model that records a weak reference to each pricer it builds."""

        def __init__(self, model):
            self.model = model
            self.name = model.name

        def budget(self, net, x):
            return self.model.budget(net, x)

        def context(self, net, pen):
            ctx = self.model.context(net, pen)
            pricers.append(weakref.ref(ctx))
            return ctx

    net = random_network(6, seed=0)
    pen = penalties_from_beta(0.05, 0.05, 6)
    models = [Tracked(model) for model in both_models(sample_travel_times(net, 50, seed=0))]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for search in (enumerate_exact, branch_and_bound):
            for model in models:
                search(net, model, pen)
                assert pricers.pop()() is None, (search.__name__, model.name)
    finally:
        if enabled:
            gc.enable()


def test_repeated_solves_share_one_completion_memo(monkeypatch):
    # a network keeps one completion memo for its life: the sm solves at
    # two betas and the rm solve after them read it, and each equals the
    # same solve of a fresh copy of the network (with a memo of its own)
    # field for field; a repeated solve decides no new state, a complete
    # graph registers no memo, and dropping a network frees its memo
    built = []
    init = _Completions.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    def outcome(res):
        return (res.route.seq, res.objective.hex(), res.nodes, res.pruned, res.budget_value.hex(),
                res.plan.lower.tobytes(), res.plan.upper.tobytes())

    monkeypatch.setattr(_Completions, "__init__", recording)
    enabled = gc.isenabled()
    for n in (7, 8, 9, 10):
        for seed in range(8):
            net = random_network(n, seed=seed)
            sm = SaaModel(sample_travel_times(net, 200, seed=seed))
            pens = [penalties_from_beta(beta, beta, n) for beta in (0.05, 0.025)]
            solves = [(sm, pens[0]), (sm, pens[1]), (DroModel(), pens[0])]
            want = [
                outcome(branch_and_bound(Network(net.node_count, net.arcs, net.mean, net.cov, net.time_budget), *args))
                for args in solves
            ]
            assert len(built) == 3 and all(ref() is None for ref in built), (n, seed)
            built.clear()
            assert [outcome(branch_and_bound(net, *args)) for args in solves] == want, (n, seed)
            assert len(built) == 1 and built[0]() is solver._COMPLETIONS[net], (n, seed)
            decided = len(built[0]().memo)
            assert [outcome(branch_and_bound(net, *args)) for args in solves] == want, (n, seed)
            assert len(built) == 1 and len(built[0]().memo) == decided, (n, seed)
            gc.disable()
            try:
                del net
                assert built.pop()() is None, (n, seed)
            finally:
                if enabled:
                    gc.enable()
    complete = random_network(7, seed=0, complete=True)
    for model in both_models(sample_travel_times(complete, 200, seed=0)):
        branch_and_bound(complete, model, penalties_from_beta(0.05, 0.05, 7))
    assert built == [] and complete not in solver._COMPLETIONS


def test_deep_sparse_solves_price_their_routes_and_share_the_memo():
    # 36 customers with three arcs each, as the console check runs it:
    # each objective is its model's cost of the route, to the bit, and the
    # rm solve after the sm one finds every state it needs decided
    net = random_network(36, seed=0)
    pen = penalties_from_beta(0.05, 0.05, net.n_customers)
    sm = build_model("sm", net, 0, 1000)
    res = branch_and_bound(net, sm, pen)
    assert res.objective == route_cost_sm(res.route, sm.samples, pen)
    decided = len(solver._COMPLETIONS[net].memo)
    res = branch_and_bound(net, build_model("rm", net, 0, 1000), pen)
    assert res.objective == route_cost_rm(res.route, net.mean, net.cov, 0.0, pen)
    assert len(solver._COMPLETIONS[net].memo) == decided


def test_complete_graphs_match_enumeration():
    # one weight triple, so the positional completion bound is on: the
    # search keeps every tour strictly cheaper than its incumbent, hence
    # the enumeration's tour, its cost and, with no tour in budget, its
    # error and the cheapest budget it quotes
    for n, seed in [(7, s) for s in range(6)] + [(8, 0)]:
        net = random_network(n, seed=seed, complete=True)
        pen = penalties_from_beta(0.05, 0.05, n)
        for model in both_models(sample_travel_times(net, 50, seed=seed)):
            assert_budgets_match_enumeration(net, model, pen, (n, seed, model.name))


def test_one_route_per_solve(monkeypatch):
    # the searches price a tour's budget from its arcs, only for a tour
    # that could be kept, and build the Route (x and the n x m path
    # matrix y) only for the answer
    calls = []

    def counting(seq, net):
        calls.append(seq)
        return route_to_xy(seq, net)

    monkeypatch.setattr("twdesign.solver.route_to_xy", counting)
    net = random_network(6, seed=0, complete=True)
    pen = penalties_from_beta(0.05, 0.05, 6)
    for model in both_models(sample_travel_times(net, 50, seed=0)):
        for search in (branch_and_bound, enumerate_exact):
            calls.clear()
            res = search(net, model, pen)
            assert calls == [res.route.seq], (search.__name__, model.name)


def test_incumbent_prices_only_tours_it_could_keep(monkeypatch):
    # once a kept tour fits its budget, no tour that is not cheaper can
    # change the answer, so the enumeration prices few of the 720 tours;
    # with no tour in budget it prices all of them, for the exact quote
    priced = []
    budget = SaaModel.budget

    def counting(self, net, x):
        priced.append(x)
        return budget(self, net, x)

    monkeypatch.setattr(SaaModel, "budget", counting)
    net = random_network(6, seed=0, complete=True)
    model = SaaModel(sample_travel_times(net, 50, seed=0))
    pen = penalties_from_beta(0.05, 0.05, 6)
    got = outcome(enumerate_exact, net, model, pen)
    assert got[0] == "solved" and len(priced) < 720
    assert got == outcome(branch_and_bound, net, model, pen)
    shut = Network(net.node_count, net.arcs, net.mean, net.cov, 5.0)
    priced.clear()
    got = outcome(enumerate_exact, shut, model, pen)
    assert len(priced) == 720
    tours = [(0, *order, 0) for order in itertools.permutations(range(1, 7))]
    cheapest = min(budget(model, net, route_to_xy(seq, net).x) for seq in tours)
    assert got[0] == "infeasible" and got[2] == cheapest
    assert got == outcome(branch_and_bound, shut, model, pen)


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
            total += ctx.price(st, k)[2]
            prev = k
        else:
            best = min(best, total)
    return ctx.price(at_j, j)[2], best


def clipped_bounds(ctx, net, state, rest, kids):
    """The per-customer part of ``_completion_bounds``' others_j alone:
    each other customer's cut, clipped at zero, through the cheapest arc
    into it plus (u - 2) times the most negative weight."""
    others = [0.0] * len(kids)
    for scale, intercept, w in ctx.subgradients(state, np.array(rest)):
        into = {k: min(w[a] for i, a in net.in_arcs[k] if i in rest) for k in rest}
        detour = (len(rest) - 2) * min(0.0, min(into.values()))
        for c, (j, arc) in enumerate(kids):
            others[c] += sum(
                scale[k] * max(0.0, intercept + w[arc] + into[k] + detour) for k in rest if k != j and scale[k] > 0
            )
    return others


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
        # one weight triple: every cut has one scale, so the positional
        # (delivery-man) term applies wherever three or more are unplaced
        for n in (7, 8):
            for complete in (True, False):
                net = random_network(n, seed=n, complete=complete)
                pen = penalties_from_beta(0.05, 0.05, n)
                for q in (7, 200):
                    yield net, SaaModel(sample_travel_times(net, q, seed=q)), pen, "sm uniform"
                yield net, DroModel(alpha2=0.3), pen, "rm uniform"

    rng = np.random.default_rng(0)
    checked = positive = uniform = positional = 0
    for net, model, pen, label in cases():
        ctx = model.context(net, pen)
        # a random partial path from the depot to a node the search bounds:
        # two or more customers left (three to six with one weight triple)
        # and two or more children that have a completion
        n = net.n_customers
        steps = (max(0, n - 6), n - 2) if label.endswith("uniform") else (0, n - 1)
        for _ in range(8):
            state, node, rest = ctx.root_state(), 0, list(net.customers)
            for _ in range(rng.integers(*steps)):
                nxt = [(j, a) for j, a in net.out_arcs[node] if j in rest]
                if not nxt:
                    break
                node, arc = nxt[rng.integers(len(nxt))]
                state = ctx.extend(state, arc)
                rest.remove(node)
            kids = [
                (j, a) for j, a in net.out_arcs[node]
                if j in rest and has_completion(net.arc_index, j, frozenset(rest) - {j})
            ]
            if len(rest) < 2 or len(kids) < 2:
                continue
            # each cut is exact at the prefix (the unclamped cost for rm)
            for scale, intercept, _ in ctx.subgradients(state, np.array(rest)):
                for k in rest:
                    if model.name == "rm":
                        want = scale[k] * math.sqrt(state[2])
                    else:
                        want = ctx.price(state, k)[2] * (scale[k] > 0)
                    assert scale[k] * intercept == pytest.approx(want, rel=1e-9, abs=1e-9), label
            own, others = _completion_bounds(ctx, net, state, rest, kids)
            clipped = clipped_bounds(ctx, net, state, rest, kids)
            for c, (j, arc) in enumerate(kids):
                true_own, true_others = completions(ctx, net, state, j, arc, rest)
                assert own[c] <= true_own + 1e-9 * max(1.0, true_own), (label, j)
                assert others[c] <= true_others + 1e-9 * max(1.0, true_others), (label, j)
                slack = 1e-9 * max(1.0, clipped[c])
                assert others[c] >= clipped[c] - slack, (label, j)
                checked += 1
                positive += 0 < others[c] < np.inf
                if label.endswith("uniform"):
                    uniform += 1
                    positional += others[c] > clipped[c] + slack
    assert checked > 300
    assert positive > checked // 4
    # the positional term is the larger one on a fair share of children
    assert uniform > 100
    assert positional > uniform // 2, (positional, uniform)


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
    domain = "coefficient domain: moment-robust design needs 2\\*a_w < min"
    with pytest.raises(ValueError, match=domain):
        branch_and_bound(net, DroModel(), boundary)
    with pytest.raises(ValueError, match=domain):
        design_dro(res.route, net.mean, net.cov, 0.0, boundary)
    # every rm pricer applies the one rule: the reference search, the
    # route cost and the cut log's pricer refuse the same penalties
    assert route_cost_rm(res.route, net.mean, net.cov, 0.0, inside) == res.objective
    with pytest.raises(ValueError, match=domain):
        route_cost_rm(res.route, net.mean, net.cov, 0.0, boundary)
    with pytest.raises(ValueError, match=domain):
        enumerate_exact(net, DroModel(), boundary)
    with pytest.raises(ValueError, match=domain):
        DroModel().context(net, boundary)


def test_model_protocol_is_name_budget_and_context():
    # any object with a name, a budget and a pricer is a model: both
    # searches reach it through nothing else
    net = random_network(5, seed=3, complete=True)
    samples = sample_travel_times(net, 200, seed=1)
    pen = penalties_from_beta(0.05, 0.05, 5)

    class Duck:
        name = "duck"

        def budget(self, net, x):
            return SaaModel(samples).budget(net, x)

        def context(self, net, pen):
            return SaaPricer(samples, pen)

    for search in (branch_and_bound, enumerate_exact):
        want = search(net, SaaModel(samples), pen)
        got = search(net, Duck(), pen)
        assert got.route.seq == want.route.seq
        assert got.objective == want.objective  # bitwise
        assert got.model == "duck"


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


def test_build_model_checks_alphas_for_every_model():
    # sm reads neither alpha, but a bad value must not pass unread
    net = random_network(3, seed=0, complete=True)
    for bad in (-1.0, np.nan, np.inf):
        for name in ("sm", "rm"):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                build_model(name, net, 0, 10, alpha1=bad)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                build_model(name, net, 0, 10, alpha2=bad)


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
    assert f"{e1.value.min_budget!r}" in str(e1.value)


def test_infeasible_report_quotes_a_budget_that_solves():
    # the quote is the cheapest budget itself: rounded to six digits it
    # read 137.453 for 137.4531288..., a budget no tour fits
    net = random_network(6, seed=8, time_budget=5.0)
    pen = penalties_from_beta(0.05, 0.05, 6)
    with pytest.raises(InfeasibleError) as err:
        branch_and_bound(net, DroModel(), pen)
    quoted = float(re.search(r"needs (\S+) but", str(err.value)).group(1))
    assert quoted == err.value.min_budget
    res = branch_and_bound(random_network(6, seed=8, time_budget=quoted), DroModel(), pen)
    assert res.budget_value <= quoted

def test_infeasible_budget_matches_enumeration_exactly():
    # with no tour in budget the search chases the cheapest tour budget,
    # and must quote the one enumeration finds; on the sparse n=8 instance
    # a cheapest-arc-first walk dead-ends after five customers
    cases = [(6, seed, seed % 2 == 0) for seed in range(6)] + [(8, 3, False)]
    for n, seed, complete in cases:
        net = random_network(n, seed=seed, complete=complete, time_budget=5.0)
        samples = sample_travel_times(net, 50, seed=seed)
        pen = penalties_from_beta(0.05, 0.05, n)
        for model in (SaaModel(samples), DroModel(alpha1=1.5)):
            with pytest.raises(InfeasibleError) as e1:
                enumerate_exact(net, model, pen)
            with pytest.raises(InfeasibleError) as e2:
                branch_and_bound(net, model, pen)
            assert e2.value.min_budget == e1.value.min_budget, (n, seed, model.name)
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


# ---------------------------------------------------------------------------
# duration budgets


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
