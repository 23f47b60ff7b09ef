"""Exact search for the minimum-cost tour and optimality cuts.

The route objective decomposes over customers and each customer's cost
is fixed the moment it is placed (its depot path is a prefix of the
final tour), which makes depth-first search with partial-cost pruning
exact: the accumulated cost of placed customers never overestimates the
finished tour.  Two searches are provided on purpose:

* ``enumerate_exact`` walks the arcs depth first without pruning and
  prices each complete tour from the depot.  Slow, simple, and used as
  the reference.
* ``branch_and_bound`` extends partial paths along existing arcs,
  cheapest arc first, with incremental arrival bookkeeping, an
  admissible budget bound, and incumbent pruning.

Both respect the duration budget exactly as defined in ``routing``, and
both price through the model's pricer from ``window_design``, so they
and the final plan agree on every cost to the last bit.

A model (``SaaModel`` or ``DroModel``) is everything the searches and
the command line need to know about it: ``name``, ``check(net, pen)``,
``budget(net, x)``, ``context(net, pen)`` (the pricer), ``plan(net,
route, pen)`` and ``cuts(net, route, pen)``.

Cut generation for master-problem decompositions is also here: the
sample-average window cost is superdifferentiable in the path variables
through its optimal duals (a generalized Benders cut), and the
moment-robust dispersion term sqrt(y' C y) admits the usual
outer-approximation gradient cut.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .instance import Network, SampleSet
from .routing import Route, budget_dro, budget_saa, route_to_xy
from .window_design import (
    DroPricer,
    PenaltyConfig,
    SaaPricer,
    WindowPlan,
    design_dro,
    design_stochastic,
    price_route,
    saa_window,
)

BUDGET_PRUNE_SLACK = 1e-9
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

    def check(self, net: Network, pen: PenaltyConfig) -> None:
        if self.samples.n_arcs != net.n_arcs:
            raise ValueError("sample set does not match the network's arc count")

    def budget(self, net: Network, x) -> float:
        return budget_saa(x, self.samples)

    def context(self, net: Network, pen: PenaltyConfig) -> SaaPricer:
        return SaaPricer(self.samples, pen)

    def plan(self, net: Network, route: Route, pen: PenaltyConfig) -> WindowPlan:
        return design_stochastic(route, self.samples, pen)[0]

    def cuts(self, net: Network, route: Route, pen: PenaltyConfig) -> list[Cut]:
        return [benders_cut(route.y[k - 1], self.samples, pen, k) for k in route.customers]


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

    def check(self, net: Network, pen: PenaltyConfig) -> None:
        if not pen.dro_valid:
            raise ValueError(
                "coefficient domain: moment-robust model needs 2*a_w < min(a_l, a_u)"
            )

    def budget(self, net: Network, x) -> float:
        return budget_dro(x, net.mean, net.cov, self.alpha1)

    def context(self, net: Network, pen: PenaltyConfig) -> DroPricer:
        return DroPricer(net.mean, net.cov, self.alpha2, pen)

    def plan(self, net: Network, route: Route, pen: PenaltyConfig) -> WindowPlan:
        return design_dro(route, net.mean, net.cov, self.alpha2, pen)

    def cuts(self, net: Network, route: Route, pen: PenaltyConfig) -> list[Cut]:
        cbar = net.cov + self.alpha2 * np.eye(net.n_arcs)
        return [oa_cut(route.y[k - 1], cbar, customer=k) for k in route.customers]


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


def _checked_context(net: Network, model, pen: PenaltyConfig):
    """Validate the model against the instance and return its pricer."""
    if not hasattr(model, "check"):
        raise TypeError(f"unknown model type {type(model).__name__}")
    if pen.n_customers != net.n_customers:
        raise ValueError("penalty config does not match the network's customer count")
    model.check(net, pen)
    return model.context(net, pen)


class _Incumbent:
    """The best tour a search has found, and the rule every complete tour
    goes through: build the route, take its budget, track the cheapest
    budget seen, and keep the tour when it is within the time budget and
    strictly cheaper than the best so far."""

    def __init__(self, net: Network, model, ctx):
        self.net = net
        self.model = model
        self.ctx = ctx
        self.cost = np.inf
        self.route: Route | None = None
        self.min_budget = np.inf

    def offer(self, seq, cost: float | None = None) -> None:
        """Consider the tour ``seq``.  ``cost`` is its window cost when the
        caller has it already; otherwise a feasible tour is priced here."""
        route = route_to_xy(seq, self.net)
        budget = self.model.budget(self.net, route.x)
        self.min_budget = min(self.min_budget, budget)
        if budget > self.net.time_budget:
            return
        if cost is None:
            cost = price_route(self.ctx, route)
        if cost < self.cost:
            self.cost = cost
            self.route = route

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

    def result(self, pen: PenaltyConfig, nodes: int, pruned: int, start: float) -> SolveResult:
        return SolveResult(
            route=self.route,
            plan=self.model.plan(self.net, self.route, pen),
            objective=float(self.cost),
            budget_value=self.model.budget(self.net, self.route.x),
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
    so complete tours come in lexicographic order and ties go to the
    lexicographically first visit sequence.  ``nodes`` counts the tours
    priced.  Limited to nine customers; beyond that use
    ``branch_and_bound``.
    """
    start = time.perf_counter()
    inc = _Incumbent(net, model, _checked_context(net, model, pen))
    if net.n_customers > ENUMERATE_MAX_CUSTOMERS:
        raise ValueError(f"enumeration limited to {ENUMERATE_MAX_CUSTOMERS} customers")
    tours_priced = 0
    seq = [0]

    def walk(node: int):
        nonlocal tours_priced
        if len(seq) == net.node_count:
            if (node, 0) in net.arc_index:
                tours_priced += 1
                inc.offer((*seq, 0))
            return
        for j, _ in net.out_arcs[node]:
            if j not in seq:
                seq.append(j)
                walk(j)
                seq.pop()

    walk(0)
    if inc.route is None:
        raise inc.infeasible()
    return inc.result(pen, tours_priced, 0, start)


class _BudgetOnly:
    """A pricer that charges nothing, for the search that looks only for
    the cheapest tour budget."""

    def __init__(self, linear: np.ndarray):
        self.linear = linear

    def root_state(self):
        return None

    def extend(self, state, arc: int):
        return None

    def place_cost(self, state, k: int) -> float:
        return 0.0


def _dfs(net: Network, inc: _Incumbent, chase_budget: bool = False) -> tuple[int, int]:
    """Depth-first search over partial visit sequences from the depot.

    Children are tried cheapest linear arc first (ties by node id).
    Offers every complete tour it reaches to the incumbent ``inc`` and
    returns the nodes visited and the children pruned.  With
    ``chase_budget`` the budget limit is the cheapest budget seen so far
    instead of the time budget: paired with ``_BudgetOnly`` this finds
    the exact minimum tour budget, which infeasibility reports quote.
    """
    ctx = inc.ctx
    linear = ctx.linear
    min_in = np.full(net.node_count, np.inf)
    for a, (i, j) in enumerate(net.arcs):
        min_in[j] = min(min_in[j], linear[a])
    successors = {
        i: sorted(out, key=lambda step: (linear[step[1]], step[0])) for i, out in net.out_arcs.items()
    }
    limit = (inc.min_budget if chase_budget else net.time_budget) + BUDGET_PRUNE_SLACK
    nodes = 0
    pruned = 0
    n_customers = net.n_customers
    visited = np.zeros(net.node_count, dtype=bool)
    visited[0] = True

    def visit(node: int, depth: int, seq: list[int], state, acc_cost: float, acc_linear: float):
        nonlocal nodes, pruned, limit
        nodes += 1
        if depth == n_customers:
            if (node, 0) in net.arc_index:
                inc.offer((*seq, 0), acc_cost)
                if chase_budget:
                    limit = inc.min_budget + BUDGET_PRUNE_SLACK
            return
        for j, arc in successors[node]:
            if j == 0 or visited[j]:
                continue
            child_linear = acc_linear + linear[arc]
            child_state = ctx.extend(state, arc)
            child_cost = acc_cost + ctx.place_cost(child_state, j)
            if child_cost >= inc.cost:
                pruned += 1
                continue
            remaining = [k for k in range(1, net.node_count) if not visited[k] and k != j]
            lb = child_linear + sum(min_in[k] for k in remaining)
            if remaining:
                closing = [
                    linear[a]
                    for jj, a in net.in_arcs[0]
                    if not visited[jj] and jj != j
                ]
            else:
                closing = [linear[a] for jj, a in net.in_arcs[0] if jj == j]
            lb += min(closing) if closing else np.inf
            if lb > limit:
                pruned += 1
                continue
            visited[j] = True
            seq.append(j)
            visit(j, depth + 1, seq, child_state, child_cost, child_linear)
            seq.pop()
            visited[j] = False

    visit(0, 0, [0], ctx.root_state(), 0.0, 0.0)
    return nodes, pruned


def branch_and_bound(net: Network, model, pen: PenaltyConfig) -> SolveResult:
    """Exact depth-first search over partial visit sequences.

    A placed customer's window cost is final, so the accumulated cost is
    an admissible lower bound and any partial sequence matching or
    exceeding the incumbent can be discarded.  The budget bound adds, to
    the linear part of the partial duration, each unvisited node's
    cheapest incoming arc plus the cheapest closing arc; the dispersion
    part of the robust budget is nonnegative, so the bound stays
    admissible there too.  Single-threaded and fully deterministic:
    children are explored cheapest linear arc first (ties by node id),
    so the first tour reached is the nearest-neighbour tour when that
    walk does not dead-end (or break the budget bound), and among
    exactly tied tours the search keeps the first it completes.
    Practical up to roughly fifteen customers; beyond that the
    permutation space outgrows what incremental pricing can cover.

    The returned ``objective`` equals ``plan.total_cost`` and the model's
    route cost (``route_cost_sm``/``route_cost_rm``) exactly, not just to
    a tolerance: all three sum the same pricer's costs in visit order.
    """
    start = time.perf_counter()
    ctx = _checked_context(net, model, pen)
    inc = _Incumbent(net, model, ctx)
    nodes, pruned = _dfs(net, inc)
    if inc.route is None:
        # pruning may have discarded every completion before its exact
        # budget was priced, so search again for the true cheapest budget
        cheapest = _Incumbent(net, model, _BudgetOnly(ctx.linear))
        cheapest.min_budget = inc.min_budget
        _dfs(net, cheapest, chase_budget=True)
        raise cheapest.infeasible()
    return inc.result(pen, nodes, pruned, start)


# ---------------------------------------------------------------------------
# optimality cuts


@dataclass(eq=False)
class Cut:
    """A supporting inequality value >= intercept + coeffs . (y - anchor)."""

    customer: int
    intercept: float
    coeffs: np.ndarray
    anchor: np.ndarray


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
    quad = float(y @ cbar @ y)
    if quad <= 1e-18:
        raise ValueError("singular anchor: y' C y is numerically zero")
    phi = float(np.sqrt(quad))
    coeffs = (cbar @ y) / phi
    return Cut(customer=customer, intercept=phi, coeffs=coeffs, anchor=y.copy())


def cut_check(cut: Cut, y, evaluator) -> bool:
    """True when the cut underestimates ``evaluator`` at y (tolerance 1e-9)."""
    y = np.asarray(y, dtype=float)
    rhs = cut.intercept + float(cut.coeffs @ (y - cut.anchor))
    return bool(evaluator(y) >= rhs - CUT_CHECK_TOL)
