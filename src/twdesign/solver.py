"""Exact search for the minimum-cost tour and optimality cuts.

The route objective decomposes over customers and each customer's cost
is fixed the moment it is placed (its depot path is a prefix of the
final tour), which makes depth-first search with partial-cost pruning
exact: the accumulated cost of placed customers never overestimates the
finished tour.  Two searches are provided on purpose:

* ``enumerate_exact`` walks the arcs depth first without pruning,
  pricing each customer as it is placed, and compares every complete
  tour.  Slow, simple, and used as the reference.
* ``branch_and_bound`` extends partial paths along existing arcs, least
  completion bound first from the root (a lone child is not bounded
  until there is a tour to prune against), with incremental arrival
  bookkeeping, a structural prune (a child must leave every unplaced
  customer reachable from it and able to reach the depot), an
  admissible budget bound, incumbent pruning and a completion bound.
  The completion bound is built from the same cuts as below, anchored
  at the search node's arrival state: every unplaced customer arrives
  later along a path of arcs inside the unplaced set, and its cost is
  convex in the arrival, so the cut at the node plus the cheapest
  weighted arc into the customer (and (u - 2) times the most negative
  arc weight, u customers unplaced) underestimates it.  Where the
  unplaced customers share one cut scale, the cuts also add up to a
  cumulative (delivery-man) cost, in which the arc into the customer in
  position p counts u - p times; the cheapest arcs into the customers,
  sorted ascending and weighted u - 1, ..., 1, underestimate that sum.
  The proofs are in ``branch_and_bound``.  It is one pass: until a tour
  fits the budget it also chases the cheapest tour budget, which
  infeasibility reports quote exactly.

Both respect the duration budget exactly as defined in ``routing``.
Both take each complete tour's budget from its arcs and build a
``Route`` only for the tour they return.

A model (``SaaModel`` or ``DroModel``) is its pricer and its budget:
``name``, ``budget(net, x)`` and ``context(net, pen)``, which returns
the pricer (``SaaPricer`` or ``DroPricer`` from ``window_design``), the
model's one way in: building it applies the model's rules, both searches
price through it, the solve's plan is its ``plan(route)``, and its
``subgradients`` give the completion bound and the cuts, so the
searches, the plan and the cut log agree on every cost to the last bit.

Cut generation for master-problem decompositions is also here: the
sample-average window cost is convex in the path variables, with its
optimal duals as a subgradient (a generalized Benders cut), and the
moment-robust dispersion term sqrt(y' C y) admits the usual
outer-approximation gradient cut.  ``route_cuts`` (the ``--cut-log``
path) takes both from the pricer at each customer of a route;
``benders_cut`` and ``oa_cut`` compute the same cuts from scratch at any
anchor, as references.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar

import numpy as np

from .instance import Network, SampleSet, _check_sizes, sample_travel_times, substream
from .routing import Route, budget_dro, budget_saa, route_to_xy
from .window_design import (
    SINGULAR_QUAD,
    DroPricer,
    PenaltyConfig,
    SaaPricer,
    WindowPlan,
    _prefix_states,
    saa_window,
)

BUDGET_PRUNE_SLACK = 1e-9
# relative: a child is pruned when its completion bound reaches the
# incumbent cost c by more than COMPLETION_PRUNE_SLACK * max(1, c); the
# bound's rounding is orders of magnitude below that
COMPLETION_PRUNE_SLACK = 1e-9
CUT_CHECK_TOL = 1e-9


class InfeasibleError(RuntimeError):
    """No tour satisfies the arc structure and the duration budget."""

    def __init__(self, message: str, min_budget: float | None = None):
        super().__init__(message)
        self.min_budget = min_budget


@dataclass(frozen=True)
class SaaModel:
    """Sample-average objective and budget over a fixed scenario set."""

    samples: SampleSet
    name: ClassVar[str] = "sm"

    def budget(self, net: Network, x) -> float:
        return budget_saa(x, self.samples)

    def context(self, net: Network, pen: PenaltyConfig) -> SaaPricer:
        _check_sizes(net.n_arcs, net.n_customers, samples=self.samples)
        return SaaPricer(self.samples, pen)


@dataclass(frozen=True)
class DroModel:
    """Moment-robust objective (alpha2 inflates the covariance) and
    dispersion-protected budget (alpha1 weights the budget's variance term)."""

    alpha1: float = 0.0
    alpha2: float = 0.0
    name: ClassVar[str] = "rm"

    def __post_init__(self):
        if not (0 <= self.alpha1 < np.inf and 0 <= self.alpha2 < np.inf):
            raise ValueError("alpha1 and alpha2 must be finite and nonnegative")

    def budget(self, net: Network, x) -> float:
        return budget_dro(x, net.mean, net.cov, self.alpha1)

    def context(self, net: Network, pen: PenaltyConfig) -> DroPricer:
        return DroPricer(net.mean, net.cov, self.alpha2, pen)


def build_model(name: str, net: Network, seed: int, q_train: int, alpha1: float = 0.0, alpha2: float = 0.0):
    """The model named ``name``: ``sm`` over ``q_train`` training draws from
    the seed's ``sampling-train`` substream, ``rm`` with the given alphas.
    The alphas are checked for every model, so a bad one never passes
    unread."""
    rm = DroModel(alpha1, alpha2)
    if name == "sm":
        return SaaModel(sample_travel_times(net, q_train, substream(seed, "sampling-train")))
    if name == "rm":
        return rm
    raise ValueError(f"unknown model {name!r}; expected 'sm' or 'rm'")


@dataclass(eq=False)
class SolveResult:
    route: Route
    plan: WindowPlan
    objective: float
    budget_value: float
    budget_limit: float
    nodes: int
    pruned: int
    proof_of_optimality: bool
    wall_time: float
    model: str

    def to_json_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "seq": [int(v) for v in self.route.seq],
            "model": self.model,
            "objective": float(self.objective),
            "budget_value": float(self.budget_value),
            "budget_limit": float(self.budget_limit),
            "nodes": int(self.nodes),
            "pruned": int(self.pruned),
            "proof_of_optimality": bool(self.proof_of_optimality),
        }
        if include_timing:
            doc["wall_time_s"] = float(self.wall_time)
        return doc


def checked_context(net: Network, model, pen: PenaltyConfig):
    """The model's pricer (``model.context`` applies the model's rules)."""
    if not hasattr(model, "context"):
        raise TypeError(f"unknown model type {type(model).__name__}")
    _check_sizes(net.n_arcs, net.n_customers, pen=pen)
    return model.context(net, pen)


class _Incumbent:
    """The best tour a search has found, and the rule every complete tour
    goes through: take its budget from its arcs, track the cheapest budget
    seen, and keep the tour when it is within the time budget and strictly
    cheaper than the best so far.  Only the kept tour becomes a ``Route``,
    once, in ``result``."""

    def __init__(self, net: Network, model, ctx):
        self.net = net
        self.model = model
        self.ctx = ctx
        self.cost = np.inf
        self.seq: tuple[int, ...] | None = None
        self.budget = np.inf
        self.min_budget = np.inf

    def offer(self, seq, cost: float) -> None:
        """Consider the tour ``seq`` of window cost ``cost``."""
        x = np.zeros(self.net.n_arcs, dtype=np.int8)
        x[[self.net.arc_index[arc] for arc in zip(seq, seq[1:])]] = 1
        budget = self.model.budget(self.net, x)
        self.min_budget = min(self.min_budget, budget)
        if budget > self.net.time_budget:
            return
        if cost < self.cost:
            self.cost = cost
            self.seq = seq
            self.budget = budget

    def infeasible(self) -> InfeasibleError:
        """The error for a search that found no feasible tour, quoting the
        cheapest budget seen."""
        if not np.isfinite(self.min_budget):
            return InfeasibleError("no feasible tour: network admits no full circuit")
        return InfeasibleError(
            f"budget infeasible: cheapest tour needs {self.min_budget:.6g} "
            f"but the budget is {self.net.time_budget:.6g}",
            min_budget=float(self.min_budget),
        )

    def result(self, nodes: int, pruned: int, start: float) -> SolveResult:
        route = route_to_xy(self.seq, self.net)
        return SolveResult(
            route=route,
            plan=self.ctx.plan(route),
            objective=float(self.cost),
            budget_value=self.budget,
            budget_limit=self.net.time_budget,
            nodes=nodes,
            pruned=pruned,
            proof_of_optimality=True,
            wall_time=time.perf_counter() - start,
            model=self.model.name,
        )


ENUMERATE_MAX_CUSTOMERS = 9


def enumerate_exact(net: Network, model, pen: PenaltyConfig) -> SolveResult:
    """Reference solver: price every tour the arcs admit.

    Walks the arcs depth first in ascending node order, without pruning,
    pricing each customer as the walk places it (one ``extend`` and one
    ``place_cost`` per arc), so complete tours come in lexicographic
    order and ties go to the lexicographically first visit sequence.
    ``nodes`` counts the tours priced.  Limited to nine customers; beyond
    that use ``branch_and_bound``.
    """
    start = time.perf_counter()
    ctx = checked_context(net, model, pen)
    inc = _Incumbent(net, model, ctx)
    if net.n_customers > ENUMERATE_MAX_CUSTOMERS:
        raise ValueError(f"enumeration limited to {ENUMERATE_MAX_CUSTOMERS} customers")
    tours_priced = 0
    seq = [0]

    def walk(node: int, state, acc_cost: float):
        nonlocal tours_priced
        if len(seq) == net.node_count:
            if (node, 0) in net.arc_index:
                tours_priced += 1
                inc.offer((*seq, 0), acc_cost)
            return
        for j, arc in net.out_arcs[node]:
            if j not in seq:
                child = ctx.extend(state, arc)
                seq.append(j)
                walk(j, child, acc_cost + ctx.place_cost(child, j))
                seq.pop()

    walk(0, ctx.root_state(), 0.0)
    if inc.seq is None:
        raise inc.infeasible()
    return inc.result(tours_priced, 0, start)


def _completion_bounds(ctx, net: Network, state, rest: list[int], kids) -> tuple[list, list]:
    """Lower bounds for the children of one search node, from the
    pricer's cuts at the node's arrival state ``state``.

    ``rest`` lists the unplaced customers (u of them, u >= 2) and
    ``kids`` the children as (customer j, arc a) pairs.  For each child
    the result holds a bound on j's own window cost and one on the summed
    window costs of the other customers of ``rest``, valid for every
    completion of the tour through j.  Per cut (scale s, intercept c,
    arc weights w):

        own_j    = s_j max(0, c + w_a)
        others_j = sum over k in rest, k != j, of
                   s_k max(0, c + w_a + into_k + (u - 2) min(0, w_min))

    where into_k is the least weight of an arc into k from ``rest`` and
    w_min the least weight of an arc within ``rest``.  When u >= 3 and
    every customer of ``rest`` has the same scale s > 0 (one ``sm``
    weight triple, or ``rm`` with equal gamma), the cut's share of
    others_j is the larger of that sum and the positional term

        s ((u - 1)(c + w_a) + S_j),
        S_j = sum over p of (u - p) v_p  -  (u - r_j) v_{r_j}
              + sum over p > r_j of v_p

    where v_1 <= ... <= v_u are the into_k sorted ascending and r_j is
    j's rank: S_j pairs the into_k of the customers other than j,
    ascending, with the multipliers u - 1, ..., 1.  One sort and prefix
    sums of v serve every child.  ``branch_and_bound`` gives the
    proofs.  A customer with no arc into it from ``rest`` has no
    completion, and its bound is +inf; an infinite into_k sorts last,
    where its multiplier is 0, and a child whose sum is already +inf
    keeps it.
    """
    members = set(rest)
    in_arcs = net.in_arcs
    u = len(rest)
    own = [0.0] * len(kids)
    others = [0.0] * len(kids)
    for scale, intercept, weights in ctx.subgradients(state, np.array(rest)):
        w = weights.tolist()
        scale = scale.tolist()
        into = [min((w[a] for i, a in in_arcs[k] if i in members), default=np.inf) for k in rest]
        detour = (u - 2) * min(0.0, min(into))
        base = [(k, scale[k], intercept + into_k + detour) for k, into_k in zip(rest, into) if scale[k] > 0]
        s = scale[rest[0]]
        positional = u >= 3 and s > 0 and all(scale[k] == s for k in rest)
        if positional:
            # v ascending, an infinite into_k last (its multiplier is 0);
            # pre[r] = v[0] + ... + v[r], and the sum of (u - 1 - r) v[r]
            # is the sum of pre[r] over r < u - 1
            v = sorted(into)
            pre = list(accumulate(v))
            total = sum(pre[:-1])
        for c, (j, arc) in enumerate(kids):
            step = w[arc]
            own[c] += scale[j] * max(0.0, intercept + step)
            bound = sum(s_k * max(0.0, b + step) for k, s_k, b in base if k != j)
            if positional and bound < np.inf:
                # every into_k but j's own is finite here; an into_k equal
                # to j's gives the same sum without it, so any rank will do
                r = bisect_left(v, into[rest.index(j)])
                S_j = total - (u - 1 - r) * v[r] + pre[-1] - pre[r] if r < u - 1 else total
                bound = max(bound, s * ((u - 1) * (intercept + step) + S_j))
            others[c] += bound
    return own, others


def _spans(seed: int, adj: list[int], within: int) -> bool:
    """True when every node of the bitmask ``within`` is reached from the
    nodes of ``seed & within`` by steps along ``adj`` (one bitmask of
    neighbours per node) that stay inside ``within``."""
    reach = todo = seed & within
    while todo and reach != within:
        low = todo & -todo
        todo ^= low
        new = adj[low.bit_length() - 1] & within & ~reach
        reach |= new
        todo |= new
    return reach == within


def _dfs(net: Network, inc: _Incumbent) -> tuple[int, int]:
    """Depth-first search over partial visit sequences from the depot.

    Children are listed cheapest linear arc first (ties by node id).  A
    node with two children or more and two unplaced customers or more
    computes its completion bounds before its first child, incumbent or
    not, and tries the children in ascending own + others bound, a
    stable sort, so ties keep the arc order.  A node with one child has
    nothing to order: it computes the bound only once an incumbent
    exists, for the prune.  A child j is discarded when the arcs leave
    no completion through it: some other unplaced customer cannot be
    reached from j, or cannot reach the depot, along arcs between the
    unplaced customers other than j (skipped on complete graphs, where
    every completion exists).  A child is also discarded when the cost
    placed so far plus the completion bound (``_completion_bounds``,
    computed once before the first child, from the cuts at the node's state)
    reaches the incumbent by more than ``COMPLETION_PRUNE_SLACK``, first
    with a bound on the child's own cost and, once priced, with its
    exact cost; before the first tour that cutoff is +inf, and only a
    child whose bound is +inf (an unplaced customer with no arc into it
    from the unplaced ones) is discarded.  A child is also discarded
    when its exact cost alone reaches the incumbent, or when its budget
    bound is infinite (no way home, or no arc into an unplaced customer)
    or exceeds the limit.  A child is priced just before it is entered,
    so its own bound reads the ranks of that pricing (``SaaPricer``).
    Offers every complete tour it reaches to the incumbent ``inc`` and
    returns the nodes visited and the children pruned.  The budget limit
    is max(time budget, cheapest tour budget offered so far) +
    ``BUDGET_PRUNE_SLACK``, refreshed after each offer: until a tour
    fits, the search chases the cheapest budget, and once one fits the
    limit is the time budget.
    """
    ctx = inc.ctx
    linear = ctx.linear.tolist()
    in_arcs = net.in_arcs
    min_in = [min((linear[a] for _, a in in_arcs[k]), default=np.inf) for k in range(net.node_count)]
    successors = {
        i: sorted(out, key=lambda step: (linear[step[1]], step[0])) for i, out in net.out_arcs.items()
    }
    # bitmasks of each node's successors and predecessors (bit k is node k)
    succ = [0] * net.node_count
    pred = [0] * net.node_count
    for i, j in net.arcs:
        succ[i] |= 1 << j
        pred[j] |= 1 << i
    structural = net.n_arcs < net.node_count * (net.node_count - 1)
    limit = max(net.time_budget, inc.min_budget) + BUDGET_PRUNE_SLACK
    nodes = 0
    pruned = 0
    customers = range(1, net.n_customers + 1)

    def visit(node: int, left: int, seq: list[int], state, acc_cost: float, acc_linear: float):
        # ``left``: the unplaced customers as a bitmask (bit k is customer k)
        nonlocal nodes, pruned, limit
        nodes += 1
        if not left:
            if (node, 0) in net.arc_index:
                inc.offer((*seq, 0), acc_cost)
                limit = max(net.time_budget, inc.min_budget) + BUDGET_PRUNE_SLACK
            return
        kids = [(j, arc) for j, arc in successors[node] if left >> j & 1]
        rest = [k for k in customers if left >> k & 1]
        if structural and len(rest) > 1:
            live = [
                (j, arc)
                for j, arc in kids
                if _spans(succ[j], succ, left ^ 1 << j) and _spans(pred[0], pred, left ^ 1 << j)
            ]
            pruned += len(kids) - len(live)
            kids = live
        bounds = None
        order = range(len(kids))
        if len(rest) > 1 and kids and (len(kids) > 1 or inc.cost < np.inf):
            # best bound first (a stable sort keeps the arc order on ties):
            # the first tour is found sooner and cheaper, and a cheaper
            # incumbent found sooner tightens every later test
            bounds = _completion_bounds(ctx, net, state, rest, kids)
            order = sorted(order, key=[o + t for o, t in zip(*bounds)].__getitem__)
        for c in order:
            j, arc = kids[c]
            if bounds is not None:
                others = bounds[1][c]
                cutoff = inc.cost + COMPLETION_PRUNE_SLACK * max(1.0, inc.cost)
                if acc_cost + bounds[0][c] + others >= cutoff:
                    pruned += 1
                    continue
            child_state = ctx.extend(state, arc)
            child_cost = acc_cost + ctx.place_cost(child_state, j)
            if child_cost >= inc.cost or (bounds is not None and child_cost + others >= cutoff):
                pruned += 1
                continue
            child_linear = acc_linear + linear[arc]
            lb = child_linear + sum(min_in[k] for k in rest if k != j)
            ends = left ^ 1 << j or 1 << j  # who can close the tour: the others, or j last
            closing = [linear[a] for i, a in in_arcs[0] if ends >> i & 1]
            lb += min(closing) if closing else np.inf
            if lb == np.inf or lb > limit:
                pruned += 1
                continue
            seq.append(j)
            visit(j, left ^ 1 << j, seq, child_state, child_cost, child_linear)
            seq.pop()

    visit(0, sum(1 << k for k in customers), [0], ctx.root_state(), 0.0, 0.0)
    # ``visit`` refers to itself through its closure: break that cycle, so
    # the pricer and the search tables are freed now, not at some later
    # garbage collection (they raised the peak memory of repeated solves)
    del visit
    return nodes, pruned


def branch_and_bound(net: Network, model, pen: PenaltyConfig) -> SolveResult:
    """Exact depth-first search over partial visit sequences.

    A placed customer's window cost is final, so the accumulated cost is
    an admissible lower bound and any partial sequence matching or
    exceeding the incumbent can be discarded.  The structural prune
    discards a child j only when some other unplaced customer cannot be
    reached from j, or cannot reach the depot, through the unplaced
    customers other than j: every completion visits those customers on
    one path from j to the depot, so the subtree holds no tour, and the
    search offers the same tours, in the same order, as without it.
    The budget bound adds, to the linear part of the partial duration,
    each unvisited node's cheapest incoming arc plus the cheapest closing
    arc; the dispersion part of the robust budget is nonnegative, so the
    bound stays admissible there too.

    The completion bound adds what the unplaced customers must still
    cost.  Take a node with arrival state tau (the arrivals at its
    customer, as a scenario vector or as the path vector y), unplaced
    customers U (u of them) and a child j reached by arc a.  The child
    arrives at tau + t_a, and in any completion each other k in U arrives
    at tau + t_a + the arcs of a path from j to k of 1 to u - 1 arcs
    inside U.  The model's pricer
    supplies, at tau, a linear underestimate of each customer's window
    cost in the arrival (``subgradients``):

    * ``sm``: the cost is the maximum of g' tau over the dual-feasible
      g, hence convex in the arrival samples, and the rank duals
      g = rho2 - rho1 at tau attain it (``benders_cut``), so
      cost_k(tau + d) >= g' tau + g' d: intercept g' tau and arc weight
      w_a = sum_q g_q t_{a,q}.  One g serves every customer sharing a
      weight triple.
    * ``rm``: the cost of the quoted window is never below gamma_k sigma,
      the optimum of the unclamped problem (a clamped window is one
      feasible point of it), and sigma(y) = sqrt(y' C y) is convex with
      gradient C y / sigma (``oa_cut``), so cost_k(y + d) >= gamma_k
      (sigma + (C y / sigma)' d).  The anchor is the unclamped gamma_k
      sigma even where the customer's own window clamps.  At sigma = 0
      there is no gradient and no bound.

    Summing the weights along the path, the last arc is one into k from
    U, at least into_k, and the up to u - 2 others are arcs within U,
    each at least w_min, which can only lower the sum when w_min < 0:
    hence the (u - 2) min(0, w_min) term.  A cost is never negative, so
    each customer's bound is also clipped at zero.

    Where every customer of U has the same scale s > 0 (one ``sm``
    weight triple, or ``rm`` with equal gamma_k) and u >= 3, the other
    customers' cuts can also be summed before bounding the arcs, as in
    the lower bounds for the delivery-man (minimum-latency) problem of
    Lucena (1990) and Fischetti, Laporte & Martello (1993).  Let a
    completion visit U as j = k_1, k_2, ..., k_u, with e_i the arc into
    k_i from k_(i-1), an arc inside U.  Customer k_i arrives at tau +
    t_a + t_(e_2) + ... + t_(e_i), so the other customers' costs sum to
    at least s ((u - 1)(c + w_a) + sum over i = 2..u of (u - i + 1)
    w_(e_i)): the arc into the customer in position i counts for it and
    for every later one.  Each multiplier is positive and w_(e_i) >=
    into_(k_i), and by the rearrangement inequality the sum of
    multipliers u - 1, ..., 1 times the into_k of U minus j is least
    when the into_k are taken in ascending order.  That is S_j of
    ``_completion_bounds``, a bound on the sum of the costs (not clipped
    per customer), and each cut's share of the bound is the larger of it
    and the clipped sum.  A child is pruned when the placed cost plus
    these bounds reaches the incumbent by more than
    ``COMPLETION_PRUNE_SLACK`` (relative), which covers the rounding of
    the cut arithmetic: no strictly cheaper tour is discarded.

    Single-threaded and fully deterministic.  From the root on, a node
    with two children or more tries them in ascending completion bound
    (own + others), ties in arc order (cheapest linear arc first, then
    node id): best-bound-first child selection inside a depth-first
    search, so the first tour is already a cheap one, and every later
    test is against it.  On complete n=8 graphs (q=1000, instances 0-15)
    the first tour costs 1.0-2.2 times the optimum, against 1.3-5.8 for
    the nearest-neighbour tour a cheapest-arc-first dive reaches.
    Before the first tour the bound prunes only children with no
    completion.  A node with one child bounds it only once a tour
    exists: before that the bound would order nothing, and on sparse
    graphs, where lone children are common, it cost more than it saved.
    Every tour strictly cheaper than the incumbent survives every prune,
    so the objective is the minimum in any order; among exactly tied
    tours the search keeps the first it completes.

    Measured on a 2-core Xeon VM (Python 3.11, numpy 2.4) at q=1000 and
    beta=0.05, complete graphs with ten customers solve in 0.02-0.11 s
    (``sm``) and 0.01-0.04 s (``rm``) on instances 0-3, with twelve in
    0.05-0.18 s and 0.03-0.09 s, and with fourteen in 0.11-0.61 s and
    0.06-0.24 s on instances 0-2.  Sparse graphs (three arcs a customer,
    ``random_network``'s default) with 22 customers solve in 0.06-0.21 s
    (``sm``) and 0.03-0.12 s (``rm``) on instances 0-3, and with 26
    customers in 0.07-0.40 s and 0.03-0.24 s.  The worst case still grows
    factorially with the customer count.

    One pass both solves and, when no tour fits, finds the exact cheapest
    tour budget that ``InfeasibleError.min_budget`` quotes.  The budget
    limit is max(time budget, cheapest budget offered so far) (``_dfs``),
    so until a tour fits, the search prunes only subtrees whose budget
    bound exceeds a budget already seen or is infinite.  With no tour in
    budget there is never an incumbent, hence no cost or completion
    pruning, and every discarded subtree holds no tour or only tours
    dearer than one already offered: the cheapest budget offered is the
    minimum over all tours.

    The returned ``objective`` equals ``plan.total_cost`` and the model's
    route cost (``route_cost_sm``/``route_cost_rm``) exactly, not just to
    a tolerance: all three sum the same pricer's costs in visit order.
    """
    start = time.perf_counter()
    ctx = checked_context(net, model, pen)
    inc = _Incumbent(net, model, ctx)
    nodes, pruned = _dfs(net, inc)
    if inc.seq is None:
        raise inc.infeasible()
    return inc.result(nodes, pruned, start)


# ---------------------------------------------------------------------------
# optimality cuts


@dataclass(eq=False)
class Cut:
    """A supporting inequality value >= intercept + coeffs . (y - anchor)."""

    customer: int
    intercept: float
    coeffs: np.ndarray
    anchor: np.ndarray


def route_cuts(pricer, route: Route) -> list[Cut]:
    """One cut per customer of ``route``, from ``pricer.subgradients`` at
    the customer's arrival state and anchored at its path vector y^k.

    A subgradient bounds cost_k / scale_k, so the cut is the ``benders_cut``
    of the window cost for ``sm`` (scale 1) and the ``oa_cut`` of the
    dispersion sqrt(y' C y) for ``rm`` (scale gamma_k).  A customer whose
    arrival variance is zero has no dispersion gradient and gets no cut.
    """
    return [
        Cut(customer=k, intercept=intercept, coeffs=weights, anchor=route.y[k - 1].copy())
        for k, state in _prefix_states(pricer, route)
        for _, intercept, weights in pricer.subgradients(state, np.array([k]))
    ]


def benders_cut(y_hat, samples: SampleSet, pen: PenaltyConfig, customer: int) -> Cut:
    """Generalized Benders cut for one customer's window cost.

    The optimal duals of the window problem at the anchor give exact
    subgradient coefficients s_a = sum_q t_a^q (rho2_q - rho1_q); the
    cut underestimates the cost globally in the path variables.
    Fractional anchors in [0, 1] are fine, the dual closed form only
    needs the induced arrival costs.
    """
    y = np.asarray(y_hat, dtype=float)
    if y.shape != (samples.n_arcs,):
        raise ValueError(f"anchor: expected shape ({samples.n_arcs},), got {y.shape}")
    a_w, a_l, a_u = pen.for_customer(customer)
    arrivals = samples.values @ y
    win = saa_window(arrivals, a_w, a_l, a_u)
    coeffs = samples.values.T @ (win.rho2 - win.rho1)
    return Cut(customer=customer, intercept=win.cost, coeffs=coeffs, anchor=y.copy())


def oa_cut(y_hat, cbar, customer: int = 0) -> Cut:
    """Outer-approximation cut for the dispersion term sqrt(y' C y)."""
    y = np.asarray(y_hat, dtype=float)
    cbar = np.asarray(cbar, dtype=float)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(cbar))):
        raise ValueError("anchor and covariance must be finite")
    quad = float(y @ cbar @ y)
    if quad <= SINGULAR_QUAD:
        raise ValueError("singular anchor: y' C y is numerically zero")
    phi = float(np.sqrt(quad))
    coeffs = (cbar @ y) / phi
    return Cut(customer=customer, intercept=phi, coeffs=coeffs, anchor=y.copy())


def cut_check(cut: Cut, y, evaluator) -> bool:
    """True when the cut underestimates ``evaluator`` at y (tolerance 1e-9)."""
    y = np.asarray(y, dtype=float)
    rhs = cut.intercept + float(cut.coeffs @ (y - cut.anchor))
    return bool(evaluator(y) >= rhs - CUT_CHECK_TOL)
