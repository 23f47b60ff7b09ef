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
  completion bound first from the root (a lone child is never bounded:
  there is nothing to order it against), with incremental arrival
  bookkeeping, an exact structural prune (a child is entered only if a
  path from it through every other unplaced customer reaches the depot:
  ``_Completions``, a subset recursion memoized for one search), an
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

Both respect the duration budget exactly as the model's ``budget``
defines it.
Both price a complete tour's budget only when the tour could be kept,
and build a ``Route`` only for the tour they return.

A model (``SaaModel`` or ``DroModel``) is its pricer and its budget:
``name``, ``budget(net, x)`` and ``context(net, pen)``, which returns
the pricer (``SaaPricer`` or ``DroPricer`` from ``window_design``), the
model's one way in.  ``_search``, the one entry to both searches, builds
it (which applies the model's rules) and each search adds only its walk;
both price through it, and its ``subgradients`` give the completion
bound and the cuts.  Pricing and ranking are apart: an ``sm`` price
reads the window off one sort of the arrivals and ranks nothing, and
only ``subgradients`` ranks a state, at the nodes whose children the
search bounds and at the customers of ``route_cuts``.  The pricer keeps
no state: ``price`` returns a placed customer's window, a search
carries each placed customer's window along its path, and the solve's
plan is assembled from the windows of the tour it keeps: the windows
its search priced, with no second pricing.
That plan equals the pricer's ``plan(route)``
(``design_stochastic(...)[0]`` or ``design_dro(...)``) field for field,
so the searches, the plan and the cut log agree on every cost to the
last bit.

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

from .instance import Network, Route, SampleSet, _as_int, _check_sizes, _finite_array, _is_finite_real, route_to_xy, sample_travel_times, substream
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
        """Average tour duration over the scenarios."""
        x = _finite_array(x, "x", (self.samples.n_arcs,))
        return float(np.mean(self.samples.values @ x))

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
        if not all(_is_finite_real(a) and a >= 0 for a in (self.alpha1, self.alpha2)):
            raise ValueError("alpha1 and alpha2 must be finite and nonnegative")

    def budget(self, net: Network, x) -> float:
        """Mean tour duration plus an alpha1-weighted dispersion term."""
        x = _finite_array(x, "x", (net.n_arcs,))
        return float(net.mean @ x) + float(np.sqrt(self.alpha1 * max(float(x @ net.cov @ x), 0.0)))

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


class _Incumbent:
    """The best tour a search has found, and the rule every complete tour
    goes through: drop it unless strictly cheaper than the best so far,
    else take its budget from its arcs, track the cheapest budget priced,
    and keep the tour when it is within the time budget.  The best cost
    is finite only once a kept tour fits, and from then on neither the
    budget limit nor an infeasibility report reads a dearer tour's
    budget; until then every tour is priced.  The kept tour comes with
    its customers' windows, as its search priced them (``price``), in
    visit order.  Only the kept tour becomes a ``Route``, once, in
    ``result``, and its plan is assembled from those windows (the pricer's
    ``_plan``), equal field for field to the pricer's ``plan(route)``."""

    def __init__(self, net: Network, model, ctx):
        self.net = net
        self.model = model
        self.ctx = ctx
        self.cost = np.inf
        self.seq: tuple[int, ...] | None = None
        self.windows = None
        self.budget = np.inf
        self.min_budget = np.inf

    def offer(self, seq, cost: float, windows) -> None:
        """Consider the tour ``seq`` of window cost ``cost``, whose
        customers' windows are ``windows``, in visit order."""
        if not cost < self.cost:
            return
        x = np.zeros(self.net.n_arcs, dtype=np.int8)
        x[[self.net.arc_index[arc] for arc in zip(seq, seq[1:])]] = 1
        budget = self.model.budget(self.net, x)
        self.min_budget = min(self.min_budget, budget)
        if budget > self.net.time_budget:
            return
        self.cost, self.seq, self.windows, self.budget = cost, seq, windows, budget

    def infeasible(self) -> InfeasibleError:
        """The error for a search that found no feasible tour, quoting the
        cheapest budget seen."""
        if not np.isfinite(self.min_budget):
            return InfeasibleError("no feasible tour: network admits no full circuit")
        return InfeasibleError(
            f"budget infeasible: cheapest tour needs {self.min_budget!r} "
            f"but the budget is {self.net.time_budget!r}",
            min_budget=float(self.min_budget),
        )

    def result(self, nodes: int, pruned: int, start: float) -> SolveResult:
        route = route_to_xy(self.seq, self.net)
        return SolveResult(
            route=route,
            plan=self.ctx._plan(route, self.windows),
            objective=float(self.cost),
            budget_value=self.budget,
            budget_limit=self.net.time_budget,
            nodes=nodes,
            pruned=pruned,
            proof_of_optimality=True,
            wall_time=time.perf_counter() - start,
            model=self.model.name,
        )


def _search(net: Network, model, pen: PenaltyConfig, walk) -> SolveResult:
    """Refuse a non-model, check the penalty config's size, build the pricer,
    and report the tour that ``walk(net, inc)`` leaves in the incumbent
    ``inc``; the walk returns the nodes visited and the children pruned."""
    if not hasattr(model, "context"):
        raise TypeError(f"unknown model type {type(model).__name__}")
    _check_sizes(net.n_arcs, net.n_customers, pen=pen)
    start = time.perf_counter()
    inc = _Incumbent(net, model, model.context(net, pen))
    nodes, pruned = walk(net, inc)
    if inc.seq is None:
        raise inc.infeasible()
    return inc.result(nodes, pruned, start)


ENUMERATE_MAX_CUSTOMERS = 9


def enumerate_exact(net: Network, model, pen: PenaltyConfig) -> SolveResult:
    """Reference solver: price every tour the arcs admit.

    Walks the arcs depth first in ascending node order, without pruning,
    pricing each customer as the walk places it (one ``extend`` and one
    ``price`` per arc), so complete tours come in lexicographic
    order and ties go to the lexicographically first visit sequence.
    ``nodes`` counts the tours priced.  Limited to nine customers; beyond
    that use ``branch_and_bound``.
    """
    return _search(net, model, pen, _enumerate)


def _enumerate(net: Network, inc: _Incumbent) -> tuple[int, int]:
    """The enumeration's walk from the depot: the tours priced, none pruned."""
    if net.n_customers > ENUMERATE_MAX_CUSTOMERS:
        raise ValueError(f"enumeration limited to {ENUMERATE_MAX_CUSTOMERS} customers")
    return _walk(net, inc, (0,), inc.ctx.root_state(), 0.0, ()), 0


def _walk(net: Network, inc: _Incumbent, seq: tuple[int, ...], state, acc_cost: float, windows) -> int:
    """Offer ``inc`` every tour that extends the open path ``seq`` (its last
    node at arrival state ``state``, its customers' windows ``windows``)
    and return the tours priced.  Not a closure, so no reference cycle
    keeps the pricer alive after the walk."""
    ctx = inc.ctx
    node = seq[-1]
    if len(seq) == net.node_count:
        if (node, 0) not in net.arc_index:
            return 0
        inc.offer((*seq, 0), acc_cost, windows)
        return 1
    priced = 0
    for j, arc in net.out_arcs[node]:
        if j not in seq:
            child = ctx.extend(state, arc)
            window = ctx.price(child, j)
            priced += _walk(net, inc, (*seq, j), child, acc_cost + window[2], (*windows, window))
    return priced


def _completion_bounds(ctx, net: Network, state, rest: list[int], kids) -> tuple[list, list]:
    """Lower bounds for the children of one search node, from the
    pricer's cuts at the node's arrival state ``state``.

    ``rest`` lists the unplaced customers (u of them, u >= 2) and
    ``kids`` the children as (customer j, arc a) pairs, two or more, each
    with a completion: a path from j through every other customer of
    ``rest`` and home (``_dfs`` passes no others).  For each child
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
    proofs.  Every into_k, and so every bound, is finite: each customer
    k of ``rest`` differs from some child j, and j's completion enters k
    from ``rest``.
    """
    members = set(rest)
    in_arcs = net.in_arcs
    u = len(rest)
    own = [0.0] * len(kids)
    others = [0.0] * len(kids)
    for scale, intercept, weights in ctx.subgradients(state, np.array(rest)):
        w = weights.tolist()
        scale = scale.tolist()
        into = [min(w[a] for i, a in in_arcs[k] if i in members) for k in rest]
        detour = (u - 2) * min(0.0, min(into))
        base = [(k, scale[k], intercept + into_k + detour) for k, into_k in zip(rest, into) if scale[k] > 0]
        s = scale[rest[0]]
        positional = u >= 3 and s > 0 and all(scale[k] == s for k in rest)
        if positional:
            # v ascending; pre[r] = v[0] + ... + v[r], and the sum of
            # (u - 1 - r) v[r] is the sum of pre[r] over r < u - 1
            v = sorted(into)
            pre = list(accumulate(v))
            total = sum(pre[:-1])
        for c, (j, arc) in enumerate(kids):
            step = w[arc]
            own[c] += scale[j] * max(0.0, intercept + step)
            bound = sum(s_k * max(0.0, b + step) for k, s_k, b in base if k != j)
            if positional:
                # an into_k equal to j's gives the same sum without it, so
                # any rank will do
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


class _Completions:
    """The exact completion test of one search, memoized on its states.

    ``completes(j, rest)`` is True when a path from customer j visits every
    customer of the bitmask ``rest`` (bit k is customer k, j not among
    them) once and then takes an arc home to the depot: the subset
    recursion of Held & Karp (1962), j completes through ``rest`` when
    some successor k of j in ``rest`` completes through ``rest`` minus k,
    and with ``rest`` empty when j has an arc home.  Each state is decided
    once, by an explicit stack, so a path through a thousand customers
    uses no Python stack.  Before it branches, a state must pass three
    necessary conditions (``_open``), which end most dead states at once
    and keep the memo small: every customer of ``rest`` is reached from j
    and reaches the depot inside ``rest``, and no two customers of
    ``rest`` share a lone possible predecessor or a lone possible
    successor (Rubin 1974).  The graph is ``arcs`` over ``node_count``
    nodes, the depot 0 and the customers."""

    def __init__(self, arcs, node_count: int):
        # bitmasks of each node's successors and predecessors (bit k is node k)
        self.succ = succ = [0] * node_count
        self.pred = pred = [0] * node_count
        for i, j in arcs:
            succ[i] |= 1 << j
            pred[j] |= 1 << i
        self.memo = {(k, 0): bool(succ[k] & 1) for k in range(1, node_count)}

    def __call__(self, j: int, rest: int) -> bool:
        memo = self.memo
        if (j, rest) not in memo:
            # a frame is a state and its successors not yet ruled out; a
            # successor's undecided state gets a frame of its own, and its
            # answer is read from the memo when the frame below resumes
            stack = [(j, rest, self._open(j, rest))]
            while stack:
                i, within, todo = stack[-1]
                known = False
                while todo:
                    low = todo & -todo
                    known = memo.get((low.bit_length() - 1, within ^ low))
                    if known is not False:
                        break
                    todo ^= low
                if known is None:
                    k = low.bit_length() - 1
                    stack[-1] = (i, within, todo)
                    stack.append((k, within ^ low, self._open(k, within ^ low)))
                else:
                    memo[i, within] = known
                    stack.pop()
        return memo[j, rest]

    def _open(self, j: int, rest: int) -> int:
        """The successors of j in the non-empty ``rest`` that a completion
        may take first, or 0 when a necessary condition fails.  On a path
        from j through ``rest`` to the depot each customer of ``rest`` has
        one predecessor, in ``rest`` or j, and one successor, in ``rest``
        or the depot, and no two share one."""
        succ, pred = self.succ, self.pred
        if not (_spans(succ[j], succ, rest) and _spans(pred[0], pred, rest)):
            return 0
        heads = rest | 1 << j
        tails = rest | 1
        lone_heads = lone_tails = 0
        todo = rest
        while todo:
            low = todo & -todo
            todo ^= low
            k = low.bit_length() - 1
            before = pred[k] & heads
            after = succ[k] & tails
            if not before & (before - 1):  # one possible predecessor
                if lone_heads & before:
                    return 0
                lone_heads |= before
            if not after & (after - 1):
                if lone_tails & after:
                    return 0
                lone_tails |= after
        return succ[j] & rest


def _dfs(net: Network, inc: _Incumbent) -> tuple[int, int]:
    """Depth-first search over partial visit sequences from the depot;
    offers every complete tour it reaches to the incumbent ``inc`` and
    returns the nodes visited and the children pruned.

    The open path is a list of frames, one per node on it: the node, its
    unplaced customers (a bitmask, bit k is customer k), arrival state,
    placed cost and linear sum, from the node's entry on the unplaced
    customers as a list, the children, their bounds and a cursor over
    their order, and the node's window as ``price`` returned it (None at
    the depot).  One loop enters the last frame's node once, then tries
    its children until one survives the prunes and is pushed, and pops
    the frame when none is left.  A tour's visit sequence and windows are
    read off the frames; the search's depth uses no Python stack.

    Children are listed cheapest linear arc first (ties by node id).  A
    node with two children or more and two unplaced customers or more
    computes its completion bounds before its first child, incumbent or
    not, and tries the children in ascending own + others bound, a
    stable sort, so ties keep the arc order.  A lone child is never
    bounded, and the completion prune below skips it.  A child j is
    discarded, before it is priced or bounded, if and only if the arcs
    leave no completion through it: no path from j visits each other
    unplaced customer once and then takes an arc home.  The test,
    ``completes(j, left ^ 1 << j)``, is a ``_Completions`` made for this
    search and dropped when it returns, so its memo outlives no solve; it
    is skipped on complete graphs, where every completion exists, and at
    the last customer, whose arc home its parent's test has shown.  Dead
    ends are this test's alone: the prunes below see only children with
    a completion, and every bound they compare is finite.
    A child is also discarded when the cost placed so far plus the
    completion bound (``_completion_bounds``, from the cuts at the node's
    state) reaches the incumbent by more than ``COMPLETION_PRUNE_SLACK``,
    first with a bound on the child's own cost and, once priced, with its
    exact cost; before the first tour the incumbent's cost, and so that
    cutoff, is +inf, and nothing is discarded this way.  A child is also
    discarded when its exact cost alone reaches the incumbent, or when
    its budget bound exceeds the limit, max(time budget, cheapest tour
    budget priced so far) + ``BUDGET_PRUNE_SLACK``, refreshed after each
    offer.  The budget bound's arcs exist: ``Network`` gives every node
    an arc in, and a child's completion ends with an arc home from one of
    the other unplaced customers, or from the child itself when it is
    the last (on a complete graph every arc exists).  Pricing a child
    ranks no samples; a node's completion bound reads the cuts at its
    state, and only those rank it (``SaaPricer.subgradients``).
    """
    ctx = inc.ctx
    linear = ctx.linear.tolist()
    in_arcs = net.in_arcs
    min_in = [min(linear[a] for _, a in in_arcs[k]) for k in range(net.node_count)]
    successors = {
        i: sorted(out, key=lambda step: (linear[step[1]], step[0])) for i, out in net.out_arcs.items()
    }
    # complete graphs skip the test: every ordering of the customers is a tour
    structural = net.n_arcs < net.node_count * (net.node_count - 1)
    completes = _Completions(net.arcs, net.node_count) if structural else None
    limit = max(net.time_budget, inc.min_budget) + BUDGET_PRUNE_SLACK
    nodes = pruned = 0
    customers = range(1, net.n_customers + 1)
    stack = [(0, sum(1 << k for k in customers), ctx.root_state(), 0.0, 0.0, None, None, None, None, None)]
    while stack:
        node, left, state, acc_cost, acc_linear, rest, kids, bounds, untried, window = stack[-1]
        if untried is None:
            nodes += 1
            if not left:  # its parent's completion test gave it an arc home
                path = stack[1:]
                seq = (0, *(frame[0] for frame in path), 0)
                inc.offer(seq, acc_cost, [frame[9] for frame in path])
                limit = max(net.time_budget, inc.min_budget) + BUDGET_PRUNE_SLACK
                stack.pop()
                continue
            kids = [(j, arc) for j, arc in successors[node] if left >> j & 1]
            rest = [k for k in customers if left >> k & 1]
            if completes is not None and len(rest) > 1:
                live = [(j, arc) for j, arc in kids if completes(j, left ^ 1 << j)]
                pruned += len(kids) - len(live)
                kids = live
            order = range(len(kids))
            if len(rest) > 1 and len(kids) > 1:
                bounds = _completion_bounds(ctx, net, state, rest, kids)
                order = sorted(order, key=[o + t for o, t in zip(*bounds)].__getitem__)
            untried = iter(order)
            stack[-1] = (node, left, state, acc_cost, acc_linear, rest, kids, bounds, untried, window)
        for c in untried:
            j, arc = kids[c]
            if bounds is not None:
                others = bounds[1][c]
                cutoff = inc.cost + COMPLETION_PRUNE_SLACK * max(1.0, inc.cost)
                if acc_cost + bounds[0][c] + others >= cutoff:
                    pruned += 1
                    continue
            child_state = ctx.extend(state, arc)
            child_window = ctx.price(child_state, j)
            child_cost = acc_cost + child_window[2]
            if child_cost >= inc.cost or (bounds is not None and child_cost + others >= cutoff):
                pruned += 1
                continue
            child_linear = acc_linear + linear[arc]
            lb = child_linear + sum(min_in[k] for k in rest if k != j)
            ends = left ^ 1 << j or 1 << j  # who can close the tour: the others, or j last
            lb += min(linear[a] for i, a in in_arcs[0] if ends >> i & 1)
            if lb > limit:
                pruned += 1
                continue
            stack.append((j, left ^ 1 << j, child_state, child_cost, child_linear, None, None, None, None, child_window))
            break
        else:
            stack.pop()
    return nodes, pruned


def branch_and_bound(net: Network, model, pen: PenaltyConfig) -> SolveResult:
    """Exact depth-first search over partial visit sequences.

    A placed customer's window cost is final, so the accumulated cost is
    an admissible lower bound and any partial sequence matching or
    exceeding the incumbent can be discarded.  The structural prune
    discards a child j if and only if no path from j visits every other
    unplaced customer once and then takes an arc home.  Every tour
    through j continues along such a path, so a discarded subtree holds
    no tour; and a kept child has one in its subtree.  The prune removes
    no tour, and the children it keeps are bounded and ordered as before
    (each child's bound reads only the child and the unplaced set, and
    the sort is stable), so every tour cheaper than the incumbent is
    offered in the same order, and the tour, its cost, its budget and
    every infeasibility report are those of the search without it.  The
    test is exact: the subset recursion of Held & Karp (1962) over
    (customer, unplaced set) states, each decided once a search.  Before
    a state branches it must pass necessary conditions, which end most
    dead states at once and keep the memo small: every customer of the
    set is reached from j and reaches the depot inside the set, and no
    two of them have the same lone possible predecessor or the same lone
    possible successor (on a Hamiltonian path each customer has one of
    each and no two share one; Rubin 1974).  With them, the ``sm`` search
    of sparse n=36 instance 0 decides 14,570 states; without the
    reachability tests it had passed 1.5 million when it was stopped.
    Without the degree rule, sparse n=46 instance 0 decides 605k states
    where it needs 171k.
    The budget bound adds, to the linear part of the partial duration,
    each unvisited node's cheapest incoming arc plus the cheapest closing
    arc; the dispersion part of the robust budget is nonnegative, so the
    bound stays admissible there too.  Both minima are over arcs that
    exist: ``Network`` gives every node an arc in, and the structural
    prune keeps a child only with a path from it through the other
    unplaced customers and home, so one of them has an arc home, or the
    child itself when it is the last (the test that kept its parent
    found the path through it and home).  On a complete graph, which
    skips the test, every arc exists.

    Dead ends are the structural prune's alone.  The completion bound
    below is computed only at a node with two children or more, after
    that prune, so each child it sees has a completion.  Each unplaced
    customer k differs from one of those children, whose completion
    enters k from inside the unplaced set: the least arc weight into k
    from that set is a minimum over arcs that exist, and every bound is
    finite.  The only non-finite numbers in the search are the
    incumbent's starting cost and budgets, +inf until a tour is priced.

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
    Before the first tour the bound prunes nothing: the incumbent's cost
    is +inf and every bound is finite.  A lone child is never bounded,
    before or after the first tour: the bound would order nothing, and
    on sparse graphs, where lone children are common, its prune cost
    more than it saved.
    Every tour strictly cheaper than the incumbent survives every prune,
    so the objective is the minimum in any order; among exactly tied
    tours the search keeps the first it completes.

    Measured on a 2-core Xeon VM (Python 3.11, numpy 2.4) at q=1000 and
    beta=0.05, best of three, complete graphs with ten customers solve in
    0.006-0.044 s (``sm``) and 0.005-0.020 s (``rm``) on instances 0-3,
    with twelve in 0.02-0.07 s and 0.01-0.04 s, and with fourteen in
    0.04-0.26 s and 0.02-0.10 s on instances 0-2.  Sparse graphs (three
    arcs a customer, ``random_network``'s default) with 22 customers
    solve in 0.005-0.038 s (``sm``) and 0.003-0.019 s (``rm``) on
    instances 0-3, with 26 customers in 0.008-0.046 s and 0.005-0.037 s,
    and with 36 customers in 0.10-0.23 s and 0.09-0.22 s on instances 0-2.
    Sparse n=46 instance 0 takes 3.9 s (``sm``) with 171k completion
    states.  The worst case still grows factorially with the customer
    count, and the completion memo exponentially.

    One pass both solves and, when no tour fits, finds the exact cheapest
    tour budget that ``InfeasibleError.min_budget`` quotes.  The budget
    limit is max(time budget, cheapest tour budget priced so far)
    (``_dfs``), so until a tour fits, the search prunes only subtrees
    that hold no tour or whose budget bound exceeds a budget already
    seen.
    With no tour in budget there is never an incumbent, hence no cost or
    completion pruning; every tour offered is priced, and every discarded
    subtree holds no tour or only tours over a budget already priced:
    the cheapest budget priced is the minimum over all tours.

    The returned plan is assembled from the windows the search priced as
    it placed the tour's customers, not priced again, and equals
    ``design_stochastic(...)[0]`` or ``design_dro(...)`` on the returned
    route field for field.  Its ``objective`` is ``plan.total_cost``, the
    model's route cost (``route_cost_sm``/``route_cost_rm``), to the bit:
    the search and the plan sum the same windows' costs in visit order.
    """
    return _search(net, model, pen, _dfs)


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
    y = _finite_array(y_hat, "anchor", (samples.n_arcs,))
    a_w, a_l, a_u = pen.for_customer(customer)
    arrivals = samples.values @ y
    win = saa_window(arrivals, a_w, a_l, a_u)
    coeffs = samples.values.T @ (win.rho2 - win.rho1)
    return Cut(customer=customer, intercept=win.cost, coeffs=coeffs, anchor=y.copy())


def oa_cut(y_hat, cbar, customer: int = 0) -> Cut:
    """Outer-approximation cut for the dispersion term sqrt(y' C y)."""
    customer = _as_int(customer, "customer")
    y = _finite_array(y_hat, "anchor", (np.size(y_hat),))
    cbar = _finite_array(cbar, "cbar", (y.size, y.size))
    quad = float(y @ cbar @ y)
    if quad <= SINGULAR_QUAD:
        raise ValueError("singular anchor: y' C y is numerically zero")
    phi = float(np.sqrt(quad))
    coeffs = (cbar @ y) / phi
    return Cut(customer=customer, intercept=phi, coeffs=coeffs, anchor=y.copy())


def cut_check(cut: Cut, y, evaluator) -> bool:
    """True when the cut underestimates ``evaluator`` at y (tolerance 1e-9)."""
    y = _finite_array(y, "y", cut.anchor.shape)
    rhs = cut.intercept + float(cut.coeffs @ (y - cut.anchor))
    return bool(evaluator(y) >= rhs - CUT_CHECK_TOL)
