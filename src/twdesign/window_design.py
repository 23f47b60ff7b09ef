"""Service time-window design for a fixed route.

Two window models are implemented, both minimising the same per-customer
cost: a width charge a_w * (u - l), plus penalised expected earliness
a_l * E[(l - tau)+] and expected tardiness a_u * E[(tau - u)+], where tau
is the customer's arrival time.

* The sample-based design replaces the expectations with averages over Q
  scenarios; the minimiser is then a pair of order statistics of the
  arrival samples, and the attached dual multipliers give subgradients of
  the cost in the arrival samples (used to build optimality cuts and the
  route search's completion bound).
* The moment-robust design replaces each expectation with its worst case
  over all distributions sharing the arrival mean m and variance s^2
  (the Scarf bound); the minimiser is m shifted by explicit multiples of
  the standard deviation.

A third variant restricts all customers to one shared window width and
optimises the width together with the per-customer start times.
"""

from __future__ import annotations

import json
import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .instance import _check_sizes, _finite_array, _is_finite_real, _is_json_int, _read_json, _write_json

CMP_TOL = 1e-12
SINGULAR_QUAD = 1e-18  # a path variance y' C y at or below this counts as zero


@dataclass(eq=False)
class PenaltyConfig:
    """Per-customer cost weights (a_w, a_l, a_u), indexed by customer id - 1.

    All weights lie in (0, 1] and satisfy a_w/a_l + a_w/a_u <= 1, which
    guarantees the window cost cannot be reduced by collapsing or
    inflating the window without bound.
    """

    a_w: np.ndarray
    a_l: np.ndarray
    a_u: np.ndarray

    def __post_init__(self):
        self.a_w = np.atleast_1d(np.asarray(self.a_w, dtype=float)).copy()
        self.a_l = np.atleast_1d(np.asarray(self.a_l, dtype=float)).copy()
        self.a_u = np.atleast_1d(np.asarray(self.a_u, dtype=float)).copy()
        n = self.a_w.size
        if self.a_l.size != n or self.a_u.size != n:
            raise ValueError("penalty arrays must have equal length")
        for name, arr in (("a_w", self.a_w), ("a_l", self.a_l), ("a_u", self.a_u)):
            # written so that NaN fails the test as well
            if not np.all((arr > 0) & (arr <= 1 + CMP_TOL)):
                raise ValueError(f"{name}: weights must lie in (0, 1]")
        ratio = self.a_w / self.a_l + self.a_w / self.a_u
        if np.any(ratio > 1 + CMP_TOL):
            k = int(np.argmax(ratio)) + 1
            raise ValueError(
                f"penalty weights for customer {k} violate a_w/a_l + a_w/a_u <= 1"
            )
        for arr in (self.a_w, self.a_l, self.a_u):
            arr.setflags(write=False)

    @property
    def n_customers(self) -> int:
        return self.a_w.size

    @property
    def dro_valid(self) -> bool:
        """True when 2 a_w < min(a_l, a_u) everywhere, the domain on which
        the moment-robust design is well posed."""
        return bool(
            np.all(2 * self.a_w < self.a_l) and np.all(2 * self.a_w < self.a_u)
        )

    def for_customer(self, k: int) -> tuple[float, float, float]:
        if not 1 <= k <= self.n_customers:
            raise ValueError(f"customer {k} outside 1..{self.n_customers}")
        return float(self.a_w[k - 1]), float(self.a_l[k - 1]), float(self.a_u[k - 1])

    def scaled(self, lam: float) -> "PenaltyConfig":
        return PenaltyConfig(self.a_w * lam, self.a_l * lam, self.a_u * lam)


def penalties_from_beta(beta_l: float, beta_u: float, n_customers: int) -> PenaltyConfig:
    """Build weights hitting target violation tolerances (beta_l, beta_u).

    The mapping fixes a_w = min(beta_l, beta_u) and a_. = a_w / beta_.,
    so the tolerated early rate a_w/a_l equals beta_l and the tolerated
    late rate a_w/a_u equals beta_u, with every weight still in (0, 1].
    """
    if not (0 < beta_l < 1 and 0 < beta_u < 1) or beta_l + beta_u > 1 + CMP_TOL:
        raise ValueError(
            "infeasible confidence: need beta_l, beta_u > 0 with beta_l + beta_u <= 1"
        )
    a_w = min(beta_l, beta_u)
    ones = np.ones(n_customers)
    return PenaltyConfig(a_w * ones, (a_w / beta_l) * ones, (a_w / beta_u) * ones)


def critical_indices(q: int, a_w: float, a_l: float, a_u: float) -> tuple[int, int]:
    """Order-statistic ranks (P1, P2) of the optimal sample-based window.

    P1 is the smallest rank r in 1..q with a_w <= (r/q) a_l + 1e-12 and P2
    the largest with a_w <= ((q - r + 1)/q) a_u + 1e-12, in exactly those
    float expressions.  Each right-hand side grows with r (with q - r + 1),
    so a bisection over the ranks finds each.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    # NaN fails this test too; past it, r = q satisfies both inequalities
    if not (a_w <= a_l + CMP_TOL and a_w <= a_u + CMP_TOL):
        raise ValueError("no valid quantile index: a_w must not exceed min(a_l, a_u)")

    def least(a_side):  # the least r in 1..q with a_w <= (r/q) a_side + CMP_TOL
        return 1 + bisect_left(range(1, q), True, key=lambda r: a_w <= r / q * a_side + CMP_TOL)

    p1, p2 = least(a_l), q + 1 - least(a_u)  # q - P2 + 1 is the least r for a_u
    if p1 > p2:
        raise ValueError("no valid quantile index: ranks crossed")
    return p1, p2


@dataclass(eq=False)
class SaaWindow:
    """Closed-form sample-based window for one arrival-sample vector.

    ``rho1`` and ``rho2`` are the optimal dual multipliers of the
    earliness and tardiness constraints, in the original sample order.
    Each vector sums to a_w, and the dual objective
    sum_q tau_q (rho2_q - rho1_q) equals ``cost``.
    """

    lower: float
    upper: float
    cost: float
    rho1: np.ndarray
    rho2: np.ndarray
    p1: int
    p2: int


def _order_stat_window(arr: np.ndarray, p1: int, p2: int, a_w: float, a_l: float, a_u: float):
    """The sample-average pricing kernel: (lower, upper, cost) of the
    optimal window, whose edges are the order statistics of ranks p1, p2,
    and the ranking it read them from (``_ranks``).

    The partial sort places the p1 - 1 earliest and the q - p2 latest
    arrivals on either side of the two ranks, which is all the earliness
    and tardiness sums need, and its indices are all the rank duals need.
    """
    q = arr.size
    ranked = _ranks(arr, p1, p2)
    part = arr[ranked]
    lower = float(part[p1 - 1])
    upper = float(part[p2 - 1])
    early = lower * (p1 - 1) - part[: p1 - 1].sum()
    late = part[p2:].sum() - upper * (q - p2)
    return lower, upper, float(a_w * (upper - lower) + (a_l / q) * early + (a_u / q) * late), ranked


def saa_window(arrivals, a_w: float, a_l: float, a_u: float) -> SaaWindow:
    """Optimal window for one customer given arrival samples.

    Works for any nonnegative combination of scenario travel times, so
    callers may pass arrival costs induced by fractional path variables.
    """
    arr = np.asarray(arrivals, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("arrivals must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("arrivals must be finite")
    terms = (*critical_indices(arr.size, a_w, a_l, a_u), a_w, a_l, a_u)
    return _saa_window(*_order_stat_window(arr, *terms), *terms)


def _saa_window(lower, upper, cost, ranked, p1, p2, a_w, a_l, a_u) -> SaaWindow:
    """The ``SaaWindow`` of one ``_order_stat_window`` result at ranks p1,
    p2 and weights (a_w, a_l, a_u): its duals sit on the kernel's ranking."""
    q = ranked.size
    early, late = _rank_split(ranked, p1, p2)
    rho1 = np.zeros(q)
    rho2 = np.zeros(q)
    rho1[early], rho2[late] = _rank_duals(q, p1, p2, a_w, a_l, a_u)
    return SaaWindow(lower, upper, cost, rho1, rho2, p1, p2)


def _ranks(arr: np.ndarray, p1: int, p2: int) -> np.ndarray:
    """Indices of ``arr`` from one partial sort, with the samples of ranks
    p1 and p2 in place, the earlier ranks before them and the later ones
    after; ties are ranked either way."""
    return np.argpartition(arr, p1 - 1 if p1 == p2 else (p1 - 1, p2 - 1))


def _rank_split(ranked: np.ndarray, p1: int, p2: int):
    """The indices of the samples of ranks 1..p1 (rank p1 last) and p2..q
    (rank p2 first) in a ranking from ``_ranks``."""
    return ranked[:p1], ranked[p2 - 1 :]


def _rank_duals(q: int, p1: int, p2: int, a_w: float, a_l: float, a_u: float):
    """Optimal duals of the sample-average window by arrival rank: rho1 is
    a_l/q on each of the p1 - 1 earliest samples and the remainder of a_w
    at rank p1; rho2 is a_u/q on each of the q - p2 latest and the
    remainder at rank p2.  Returns rho1 on ranks 1..p1 and rho2 on ranks
    p2..q, in the order of ``_rank_split``.

    The duals do not depend on the arrival values, only on which sample
    holds which rank.  Placed on any ranking of a vector tau (ties broken
    either way) they are optimal at tau, and they are dual feasible
    everywhere, so sum_q x_q (rho2_q - rho1_q) never exceeds the window
    cost at any arrival vector x.
    """
    rho1 = np.full(p1, a_l / q)
    rho1[-1] = min(max(a_w - (p1 - 1) * (a_l / q), 0.0), a_l / q)
    rho2 = np.full(q - p2 + 1, a_u / q)
    rho2[0] = min(max(a_w - (q - p2) * (a_u / q), 0.0), a_u / q)
    return rho1, rho2


@dataclass(eq=False)
class WindowPlan:
    """Designed windows for the customers of one route, in visit order."""

    kind: str
    route_seq: tuple[int, ...]
    customers: tuple[int, ...]
    lower: np.ndarray
    upper: np.ndarray
    cost_per_customer: np.ndarray
    total_cost: float
    shared_width: float | None = None
    early_rate: np.ndarray | None = None
    late_rate: np.ndarray | None = None
    clamped: np.ndarray | None = None

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.cost_per_customer = np.asarray(self.cost_per_customer, dtype=float)
        for name in ("lower", "upper", "cost_per_customer"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"window plan has a non-finite {name}")
        if np.any(self.upper < self.lower):
            raise ValueError("window plan has upper < lower")
        if np.any(self.lower < 0):
            raise ValueError("window plan has a negative lower bound")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def window_for(self, k: int) -> tuple[float, float]:
        try:
            pos = self.customers.index(k)
        except ValueError:
            raise ValueError(f"plan has no window for customer {k}") from None
        return float(self.lower[pos]), float(self.upper[pos])

    def to_json_dict(self) -> dict:
        per = []
        for pos, k in enumerate(self.customers):
            entry: dict = {"customer": int(k), "cost": float(self.cost_per_customer[pos])}
            entry["early_rate"] = (
                None if self.early_rate is None else float(self.early_rate[pos])
            )
            entry["late_rate"] = (
                None if self.late_rate is None else float(self.late_rate[pos])
            )
            entry["clamped"] = (
                bool(self.clamped[pos]) if self.clamped is not None else False
            )
            per.append(entry)
        return {
            "route": [int(v) for v in self.route_seq],
            "windows": [
                {"customer": int(k), "lower": float(self.lower[p]), "upper": float(self.upper[p])}
                for p, k in enumerate(self.customers)
            ],
            "shared_width": None if self.shared_width is None else float(self.shared_width),
            "cost": float(self.total_cost),
            "kind": self.kind,
            "per_customer": per,
        }


def save_plan(plan: WindowPlan, path, extra: dict | None = None) -> None:
    _write_json({**plan.to_json_dict(), **(extra or {})}, path)


def load_plan(path) -> WindowPlan:
    doc = _read_json(path, "window plan")
    for key in ("route", "windows", "cost"):
        if key not in doc:
            raise ValueError(f"window plan file: missing key {key!r}")
    if not (isinstance(doc["route"], list) and all(_is_json_int(v) for v in doc["route"])):
        raise ValueError(f"window plan file: route: expected a list of integers, got {json.dumps(doc['route'])}")
    windows = doc["windows"]
    if not (isinstance(windows, list)
            and all(isinstance(w, dict) and {"customer", "lower", "upper"} <= w.keys() for w in windows)):
        raise ValueError("window plan file: windows: expected a list of objects with customer, lower and upper")
    per = doc.get("per_customer")
    if per is None:
        per = [{} for _ in windows]
    elif not (isinstance(per, list) and len(per) == len(windows) and all(isinstance(e, dict) for e in per)):
        raise ValueError(f"window plan file: per_customer: expected a list of {len(windows)} objects, one per window")
    customers = tuple(_plan_field(w["customer"], "customer", integer=True) for w in windows)
    n = len(doc["route"]) - 2  # a route visits each of the customers 1..n once
    if sorted(customers) != list(range(1, n + 1)):
        raise ValueError(f"window plan file: windows: expected one for each customer 1..{n}, got {list(customers)}")
    lower = np.array([_plan_field(w["lower"], "lower") for w in windows], dtype=float)
    upper = np.array([_plan_field(w["upper"], "upper") for w in windows], dtype=float)
    costs = np.array([_plan_field(e.get("cost", 0.0), "cost") for e in per], dtype=float)
    shared_width = doc.get("shared_width")
    if shared_width is not None and not (_is_finite_real(shared_width) and shared_width >= 0):
        raise ValueError("window plan file: shared_width: expected null or a finite number >= 0")
    kind = doc.get("kind", "unknown")
    if not isinstance(kind, str):
        raise ValueError(f"window plan file: kind: expected a string, got {json.dumps(kind)}")
    return WindowPlan(
        kind=kind,
        route_seq=tuple(doc["route"]),
        customers=customers,
        lower=lower,
        upper=upper,
        cost_per_customer=costs,
        total_cost=float(_plan_field(doc["cost"], "cost")),
        shared_width=None if shared_width is None else float(shared_width),
    )


def _plan_field(value, key: str, integer: bool = False):
    """A plan file's number, rejecting JSON booleans, strings and non-finite values."""
    if not (_is_json_int(value) if integer else _is_finite_real(value)):
        expected = "an integer" if integer else "a finite number"
        raise ValueError(f"window plan file: {key}: expected {expected}, got {json.dumps(value)}")
    return value


# ---------------------------------------------------------------------------
# pricing along a route
#
# A pricer carries the arrival state of a path from the depot and prices
# the customer at its end; it is the model's one pricing kernel, and also
# builds the model's plan (``plan``) and its cuts (``subgradients``).  The
# searches extend it one arc at a time; the plans and ``design_stochastic``
# walk a finished route with the same recurrence and sum in the same visit
# order, so the objective a search reports equals the cost of the plan
# built for its route bit for bit.  ``arrival_matrix`` adds the arcs in the
# same order, so the designs that read it see the same arrivals.


def arrival_matrix(route, values: np.ndarray) -> np.ndarray:
    """Scenario arrival times at the route's customers, in visit order.

    Column p holds the partial sums of the first p+1 arc travel times,
    i.e. the arrival of each scenario at the (p+1)-th visited customer,
    added one column at a time (a cumsum along the rows gives the same
    bits, several times slower at q = 1000).
    ``route`` is any object with the ``path_arcs`` of a ``Route``.
    """
    arrivals = np.asarray(values, dtype=float)[:, list(route.path_arcs)]
    for p in range(1, arrivals.shape[1]):
        arrivals[:, p] += arrivals[:, p - 1]
    return arrivals


def _prefix_states(pricer, route):
    """(customer, arrival state) at each customer of a route, in visit order."""
    state = pricer.root_state()
    for arc, k in zip(route.path_arcs, route.customers):
        state = pricer.extend(state, arc)
        yield k, state


def _visit_sum(costs) -> float:
    """Left-to-right sum, the order in which the route search accumulates
    costs (numpy's pairwise sum differs in the last bits from n = 8)."""
    total = 0.0
    for cost in costs:
        total += cost
    return float(total)


def _outside(arrivals: np.ndarray, lower, upper):
    """The on-time rule over a q x n arrival matrix and its n windows: the
    arrivals strictly before their window, and strictly after it."""
    return arrivals < lower, arrivals > upper


def _window_plan(kind: str, route, windows, arrivals=None, **fields) -> WindowPlan:
    """The plan of a route from one (lower, upper, cost) window per
    customer, in visit order, and the plan's other ``fields``; the total
    is summed in visit order.

    ``arrivals``, the route's q x n ``arrival_matrix``, gives the plan its
    in-sample rates: the share of a customer's scenarios strictly before
    its window (``early_rate``) and strictly after it (``late_rate``), by
    the rule ``evaluate_plan`` counts with (``_outside``), so an arrival
    exactly on an edge is on time.
    """
    lower, upper, cost = np.array(windows, dtype=float).reshape(-1, 3).T
    if arrivals is not None:
        early, late = _outside(arrivals, lower, upper)
        fields["early_rate"] = np.count_nonzero(early, axis=0) / len(arrivals)
        fields["late_rate"] = np.count_nonzero(late, axis=0) / len(arrivals)
    return WindowPlan(
        kind=kind,
        route_seq=route.seq,
        customers=route.customers,
        lower=lower,
        upper=upper,
        cost_per_customer=cost,
        total_cost=_visit_sum(cost),
        **fields,
    )


class SaaPricer:
    """Sample-average pricing: the state is the vector of scenario arrival
    times, and a customer costs its ``_order_stat_window``.

    States are never changed in place: ``extend`` returns a new array.
    So the pricer keeps the ranking of the state it priced last, with
    that state and the weight triple it was priced for, and
    ``subgradients`` at the same state object reads its duals' ranks from
    it instead of ranking the state again.  The route search prices a
    child and then computes the child's completion bound, so each node
    ranks its state once."""

    def __init__(self, samples, pen: PenaltyConfig):
        self.values = samples.values
        self.terms = {}
        # customers sharing a weight triple share its ranks, one window
        # cost and its duals: per triple, membership over node ids and the
        # rho1 (rho2) duals of the p1 earliest (q - p2 + 1 latest) ranks
        self.groups: dict[tuple, tuple] = {}
        terms_of = cache(lambda weights: (*critical_indices(samples.q, *weights), *weights))
        for k in range(1, pen.n_customers + 1):
            terms = self.terms[k] = terms_of(pen.for_customer(k))
            if terms not in self.groups:
                self.groups[terms] = (np.zeros(pen.n_customers + 1), *_rank_duals(samples.q, *terms))
            self.groups[terms][0][k] = 1.0
        # (state, terms, ranking) of the last ``place_cost``
        self._ranked = (None, None, None)

    @cached_property
    def linear(self) -> np.ndarray:
        """Per-arc average travel time; only the route search needs it."""
        return self.values.mean(axis=0)

    def root_state(self):
        return np.zeros(self.values.shape[0])

    def extend(self, state, arc: int):
        return state + self.values[:, arc]

    def place_cost(self, state, k: int) -> float:
        terms = self.terms[k]
        *_, cost, ranked = _order_stat_window(state, *terms)
        self._ranked = (state, terms, ranked)
        return cost

    def _walk(self, route):
        """The route's ``arrival_matrix`` (the arcs added in ``extend``'s
        order, one column per customer in visit order) and each customer's
        ``_order_stat_window`` at its column."""
        arrivals = arrival_matrix(route, self.values)
        return arrivals, [_order_stat_window(col, *self.terms[k]) for k, col in zip(route.customers, arrivals.T)]

    def plan(self, route) -> WindowPlan:
        """The route's ``saa`` plan: each customer's ``_order_stat_window``
        at its arrival samples, with the in-sample rates of those samples
        (``_window_plan``).  Without ties at the window edges these are the
        rank rates (p1 - 1)/q early and (q - p2)/q late; samples tied with
        an edge are on time."""
        arrivals, windows = self._walk(route)
        return _window_plan("saa", route, [w[:3] for w in windows], arrivals)

    def subgradients(self, state, unplaced: np.ndarray):
        """Linear underestimates of the unplaced customers' costs beyond
        ``state``: one ``(scale, intercept, weights)`` per weight triple
        among the customers listed in ``unplaced``, such that
        cost_k(state + values @ d) >= scale[k] * (intercept + weights @ d)
        for every arc vector d.

        With g = rho2 - rho1 the triple's rank duals placed on the ranks
        of ``state`` (``_rank_duals``), the window cost is at least g' x
        at every arrival vector x, with equality at ``state``: weights =
        values' g (the coefficients of ``benders_cut``) and intercept =
        g' state, the cost at the state.  The ranks are those of the last
        ``place_cost`` when it priced this state for this triple.
        """
        priced, priced_terms, priced_ranks = self._ranked
        cuts = []
        for terms, (scale, rho1, rho2) in self.groups.items():
            if not scale[unplaced].any():
                continue
            p1, p2 = terms[:2]
            ranked = priced_ranks if state is priced and terms == priced_terms else _ranks(state, p1, p2)
            early, late = _rank_split(ranked, p1, p2)
            intercept = float(rho2 @ state[late] - rho1 @ state[early])
            cuts.append((scale, intercept, rho2 @ self.values[late] - rho1 @ self.values[early]))
        return cuts


def design_stochastic(route, samples, pen: PenaltyConfig):
    """Per-customer optimal windows under the sample-average cost.

    Returns the plan (``SaaPricer.plan``) together with each customer's
    ``SaaWindow``, keyed by customer id.  A window's optimal duals
    ``rho1``/``rho2`` and ranks ``p1``/``p2`` are what optimality cuts
    for the routing master problem are built from.  Both come from one
    walk of the route and one ``_order_stat_window`` per customer.
    """
    _check_sizes(len(route.x), len(route.customers), samples=samples, pen=pen)
    pricer = SaaPricer(samples, pen)
    arrivals, windows = pricer._walk(route)
    duals = {k: _saa_window(*w, *pricer.terms[k]) for k, w in zip(route.customers, windows)}
    return _window_plan("saa", route, [w[:3] for w in windows], arrivals), duals


def _window_cost(arrivals, lower, upper, a_w, a_l, a_u):
    """The sample-average cost of the window [lower, upper] at one
    customer's ``arrivals``: a_w (u - l) + (a_l/q) sum (l - tau)+ +
    (a_u/q) sum (tau - u)+.  ``upper`` may be an array of upper edges,
    priced together with one earliness sum; the costs are then an array."""
    q = len(arrivals)
    early = float(np.maximum(lower - arrivals, 0.0).sum())
    late = np.maximum(arrivals - np.expand_dims(upper, -1), 0.0).sum(axis=-1)
    return a_w * (upper - lower) + (a_l / q) * early + (a_u / q) * late


BRUTE_FORCE_MAX_Q = 500


def brute_force_windows(route, samples, pen: PenaltyConfig) -> WindowPlan:
    """Reference design by exhaustive search over sample-valued windows.

    Evaluates the sample-average cost at every pair (l, u) of arrival
    sample values with l <= u, per customer.  Ties are broken by the
    smaller width, then the smaller lower bound.  Quadratic in Q, meant
    as an oracle for small sample sets.
    """
    _check_sizes(len(route.x), len(route.customers), samples=samples, pen=pen)
    q = samples.q
    if q > BRUTE_FORCE_MAX_Q:
        raise ValueError(f"brute-force design limited to q <= {BRUTE_FORCE_MAX_Q}")
    arr = arrival_matrix(route, samples.values)
    windows = []
    for pos, k in enumerate(route.customers):
        weights = pen.for_customer(k)
        col = arr[:, pos]
        values = np.unique(col)
        best = None
        for i, lo in enumerate(values):
            # upper edges ascend, so the first least cost has the least width
            costs = _window_cost(col, lo, values[i:], *weights)
            j = int(np.argmin(costs))
            key = (costs[j], values[i + j] - lo, lo)
            if best is None or key < best:
                best = key
        cost, width, lo = best
        windows.append((lo, lo + width, cost))
    return _window_plan("saa-brute", route, windows, arr)


FIXED_WIDTH_MAX_CANDIDATES = 10_000_000


class _WidthPricer:
    """Each customer's least earliness/tardiness cost over its start l >= 0
    at one shared width w, and the smallest start that attains it, for all
    customers at once.

    A customer's cost at start l is (a_l/q) sum (l - tau)+ +
    (a_u/q) sum (tau - l - w)+, piecewise linear in l with its kinks among
    zero, the arrivals and the arrivals less w, so the least cost over
    l >= 0 is attained there.  Each candidate is priced with the ranks of l
    and l + w among the sorted arrivals and the prefix sums at those ranks.
    The candidates split into two sorted lists: zero and the clamped
    arrivals, whose ranks and earliness do not depend on w and are computed
    once, and the clamped arrivals less w.  A candidate's cost depends on
    its value alone, so the first least cost of each list, the lower of the
    two and on a tie the smaller start, is the first least cost over the
    sorted candidates without repeats: the result is bit for bit that of
    scanning them one customer at a time.

    A width prices each list in two stages, with those expressions and one
    ``searchsorted`` per customer and stage:

    * coarse: every ceil(sqrt q)-th entry.  Call the least of these costs
      g*.  The bracket runs from the nearest coarse entry before every
      coarse entry that costs at most g* + 4 err to the nearest one after
      them; either end may be open;
    * exact: every entry inside the bracket, the zeros at the head of the
      list counting as one.  Its first least cost is the list's.

    The certificate.  The exact cost f is convex in l, and each computed
    cost g lies within err = (a_l + a_u)(q + 8) eps (max |s| + w) of it: a
    prefix sum of q arrivals is off by at most q^2 (eps/2) max |s|, a cost
    reads one prefix sum in its earliness and two in its tardiness, and the
    products, the differences, l + w and the rates add at most a few
    q (eps/2) (max |s| + w) more.  Let c be the coarse entry that opens the
    bracket and m the coarse entry of least cost.  Then g(c) > g* + 4 err, so
    f(c) > g* + 3 err > f(m), and by convexity every start l <= c has
    f(l) >= f(c) and g(l) > g* + 2 err: it costs more than m, so it is not
    the list's least.  The same holds at and after the bracket's end.  The
    exact stage prices every entry in between, and perhaps a few more, so
    it finds the list's first least cost.  The pricer keeps its tables, the
    prefix sums and the first list with its earliness (three n x (q + 1)
    arrays), and their coarse entries; a width allocates arrays of its
    coarse entries and its brackets alone.
    """

    def __init__(self, srt, a_l, a_u):
        n, q = srt.shape
        self.srt = srt
        self.q = q
        self.step = step = math.isqrt(q - 1) + 1
        self.cum = np.zeros((n, q + 1))
        np.cumsum(srt, axis=1, out=self.cum[:, 1:])
        self.rate_l = (a_l / q)[:, None]
        self.rate_u = (a_u / q)[:, None]
        # 4 err = slack (max_abs + w)
        self.slack = (4 * (q + 8) * np.finfo(float).eps) * (a_l + a_u)[:, None]
        self.max_abs = abs(srt[:, [0, -1]]).max(axis=1, keepdims=True)
        # entry r of customer k in the first list, and in the arrivals, is
        # entry r + k (q + 1), and r + k q, of the raveled one
        rows = np.arange(n)[:, None]
        self.row_starts = rows * (q + 1), rows * q
        # the first list, its ranks and its earliness; adding 0.0 turns a
        # clamped -0.0 into 0.0, so that the zeros at its head are one
        # candidate, bit for bit
        self.fixed = np.zeros((n, q + 1))
        np.maximum(srt, 0.0, out=self.fixed[:, 1:])
        self.fixed += 0.0
        ranks = np.array([row.searchsorted(needles, "right") for row, needles in zip(srt, self.fixed)])
        self.last_zero = ranks[:, 0].copy()
        self.fixed_early = self.rate_l * (self.fixed * ranks - self.cum.take(ranks + self.row_starts[0]))
        self.coarse = (self.fixed[:, ::step].copy(), self.fixed_early[:, ::step].copy(),
                       srt[:, ::step].copy())

    def _price(self, start_a, early_a, arrivals_b, width):
        """The costs of the first list's entries with starts ``start_a`` and
        earliness ``early_a``, the starts and costs of the second list's
        entries at ``arrivals_b``, all n-row arrays, and the rank of each
        row's first start_a + w."""
        lb = arrivals_b.shape[1]
        start_b = np.maximum(arrivals_b - width, 0.0)
        # the needles: each start of the second list, then the upper edge
        # l + w of each entry of the first list and of the second
        needles = np.concatenate((start_b, start_a + width, start_b + width), axis=1)
        ranks = np.array([row.searchsorted(x, "right") for row, x in zip(self.srt, needles)])
        sums = self.cum.take(ranks + self.row_starts[0])
        # the second list's earliness: rate_l (l m - the sum of the m
        # arrivals at or below l)
        early_b = self.rate_l * (start_b * ranks[:, :lb] - sums[:, :lb])
        # tardiness at each upper edge u: rate_u (the sum of the arrivals
        # above u - u (q - m))
        up, m = needles[:, lb:], ranks[:, lb:]
        late = self.rate_u * ((self.cum[:, -1:] - sums[:, lb:]) - up * (self.q - m))
        la = start_a.shape[1]
        return early_a + late[:, :la], start_b, early_b + late[:, la:], m[:, 0]

    def _span(self, cost, slack, first, length, row_starts):
        """Per customer, the raveled indices of the entries lo..end - 1 of a
        list that the exact stage prices, the last repeated up to the
        longest range's length, from the coarse entries' ``cost``: from the
        one after the last coarse entry before the bracket, or ``first``,
        the list's last zero, if that comes later, to the one before the
        first coarse entry after it.  The range is never empty."""
        step = self.step
        near = cost <= cost.min(axis=1, keepdims=True) + slack
        lo = np.maximum(near.argmax(axis=1) * step - (step - 1), first)
        end = np.minimum((near.shape[1] - near[:, ::-1].argmax(axis=1)) * step, length)
        end = np.maximum(end, lo + 1)
        return np.minimum(lo[:, None] + np.arange((end - lo).max()), (end - 1)[:, None]) + row_starts

    def __call__(self, width: float):
        """Per customer, in visit order, the least cost and its smallest start."""
        n, q = self.srt.shape
        cost_a, _, cost_b, first_rank = self._price(*self.coarse, width)
        # the first needle, zero plus w, ranks after the second list's zeros
        last_zero_b = np.maximum(first_rank - 1, 0)
        slack = self.slack * (self.max_abs + width)
        index_a = self._span(cost_a, slack, self.last_zero, q + 1, self.row_starts[0])
        index_b = self._span(cost_b, slack, last_zero_b, q, self.row_starts[1])
        start_a, early_a = self.fixed.take(index_a), self.fixed_early.take(index_a)
        cost_a, start_b, cost_b, _ = self._price(start_a, early_a, self.srt.take(index_b), width)
        rows = np.arange(n)
        best_a, best_b = cost_a.argmin(axis=1), cost_b.argmin(axis=1)
        cost, start = cost_a[rows, best_a], start_a[rows, best_a]
        cost_s, start_s = cost_b[rows, best_b], start_b[rows, best_b]
        take = (cost_s < cost) | ((cost_s == cost) & (start_s < start))
        return np.where(take, cost_s, cost), np.where(take, start_s, start)


# the width grid drops its repeats this many entries at a time
_GRID_BLOCK = 1 << 16


def _width_grid(srt) -> np.ndarray:
    """Zero and every difference ``srt[k, a] - srt[k, b]``, a > b, within
    each customer's sorted arrivals (row k of ``srt``), sorted and without
    repeats: ``np.unique`` of all the rows' nonnegative pairwise
    differences plus zero, bit for bit (a tie only yields 0, which entry 0
    holds).

    The grid is one 8-byte buffer of 1 + n q (q - 1) / 2 entries, one per
    candidate.  Row index a of every customer fills it in one
    subtraction; the buffer is sorted in place, repeats are then found one
    ``_GRID_BLOCK`` at a time, and the grid is the buffer's prefix.  Up to
    the first repeat every value is already in place, so only the blocks
    from the one holding it on write their kept values forward.
    """
    n, q = srt.shape
    buf = np.empty(1 + n * (q * (q - 1) // 2))
    buf[0] = 0.0
    end = 1
    for a in range(1, q):
        np.subtract(srt[:, a:a + 1], srt[:, :a], out=buf[end:end + n * a].reshape(n, a))
        end += n * a
    buf.sort()
    keep = np.empty(min(len(buf), _GRID_BLOCK), dtype=bool)
    kept, last = 0, np.nan  # nan differs from every value
    for start in range(0, len(buf), _GRID_BLOCK):
        block = buf[start:start + _GRID_BLOCK]
        mask = keep[:len(block)]
        mask[0] = block[0] != last
        np.not_equal(block[1:], block[:-1], out=mask[1:])
        last = block[-1]
        if kept == start and mask.all():
            kept += len(block)
            continue
        values = block[mask]
        buf[kept:kept + len(values)] = values
        kept += len(values)
    return buf[:kept]


class _WidthGrids:
    """The penalty-free inputs of ``design_fixed_width`` for the last
    (sample array, route) it designed: the arrival matrix, its sorted rows
    and their ``_width_grid``, all read-only.  A study designs one route at
    several penalties on the same samples, and the grid is most of a
    call's time.

    The one entry holds the sample array by weak reference, so it dies
    with the samples; the reference's callback clears its own entry and
    never a newer one.  A miss drops the old entry before it builds the
    new grid, so the cache never adds a second grid to a call's peak.  A
    read-only array can still be a view of memory written elsewhere, so a
    hit also needs the same arrivals, bit for bit.  Concurrent callers
    can at worst rebuild a grid or lose the entry, never read a wrong one.
    """

    def __init__(self):
        self.entry = None  # (ref to sample values, path arcs, arrivals, sorted rows, grid)

    def _forget(self, ref):
        entry = self.entry
        if entry is not None and entry[0] is ref:
            self.entry = None

    def __call__(self, route, values: np.ndarray):
        arr = arrival_matrix(route, values)
        arcs = tuple(route.path_arcs)
        entry = self.entry
        if (entry is not None and entry[0]() is values and entry[1] == arcs
                and np.array_equal(entry[2].view(np.int64), arr.view(np.int64))):
            return entry[2:]
        self.entry = entry = None
        srt = np.sort(arr.T, axis=1)
        widths = _width_grid(srt)
        for a in (arr, srt, widths):
            a.setflags(write=False)
        self.entry = (weakref.ref(values, self._forget), arcs, arr, srt, widths)
        return arr, srt, widths


# one process-wide entry: design_fixed_width keeps its signature, and the
# entry's memory is bounded and dies with its samples
_width_grids = _WidthGrids()


def design_fixed_width(route, samples, pen: PenaltyConfig) -> WindowPlan:
    """Optimal shared-width windows for all customers of a route.

    Minimises sum_k [a_w w + (a_l^k/q) sum (l_k - tau)+ +
    (a_u^k/q) sum (tau - l_k - w)+] over w >= 0 and l_k >= 0.  For fixed
    w the inner optimum per customer is found exactly on the kinks of
    its cost by one ``_WidthPricer``, built once per call, which prices
    every customer at a width together; the outer objective is convex
    piecewise linear in w, so an exact search over the candidate widths
    (all nonnegative pairwise differences of each customer's arrival
    samples, plus zero) via ternary search on the sorted grid suffices.
    The grid is built from 1 + n q (q - 1) / 2 candidates, which may not
    exceed ``FIXED_WIDTH_MAX_CANDIDATES``.

    The grid depends on the arrivals alone, not on the penalties, so the
    sorted arrivals and the grid of the last (samples, route) designed
    are kept (``_WidthGrids``): designing the same route on the same
    samples at other penalties builds neither again.  At n = 10 and
    q = 1000 a miss spends about four fifths of its time building the grid
    (filling it, sorting it and dropping its repeats) and the rest
    pricing some 70 widths, about 0.25 ms each (on a 2-core VM); a hit
    does only the pricing.  A miss takes one 8-byte buffer per candidate
    plus one ``_GRID_BLOCK`` of flags; the pricer's tables, three
    n x (q + 1) arrays, add little to that.  Between calls the
    cache holds that buffer, 8 (1 + n q (q - 1) / 2) bytes (about 40 MB
    at n = 10, q = 1000), and the arrivals and their sorted rows, 16 n q
    bytes, until the samples are freed or another (samples, route) is
    designed.
    """
    _check_sizes(len(route.x), len(route.customers), samples=samples, pen=pen)
    if not np.all(pen.a_w == pen.a_w[0]):
        raise ValueError("shared-width design needs a customer-independent a_w")
    a_w = float(pen.a_w[0])
    q = samples.q
    n = len(route.customers)
    if 1 + n * (q * (q - 1) // 2) > FIXED_WIDTH_MAX_CANDIDATES:
        # the largest q_max with q_max (q_max - 1) <= 2 (cap - 1) / n
        q_max = (1 + math.isqrt(1 + 4 * (2 * (FIXED_WIDTH_MAX_CANDIDATES - 1) // n))) // 2
        raise ValueError(
            f"fixed-width design of {n} customers takes at most {q_max} scenarios, "
            f"got {q}: subsample the scenarios first"
        )
    arr, srt, widths = _width_grids(route, samples.values)
    price = _WidthPricer(srt, *np.array([pen.for_customer(k)[1:] for k in route.customers]).T)

    totals: dict[int, float] = {}

    def total_at(idx: int) -> float:
        if idx not in totals:
            w = float(widths[idx])
            totals[idx] = _visit_sum([n * a_w * w, *price(w)[0].tolist()])
        return totals[idx]

    lo, hi = 0, len(widths) - 1
    while hi - lo > 2:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        if total_at(m1) <= total_at(m2):
            hi = m2
        else:
            lo = m1
    best_idx = min(range(lo, hi + 1), key=lambda i: (total_at(i), widths[i]))
    w = float(widths[best_idx])

    windows = []
    for pos, (k, l_best) in enumerate(zip(route.customers, price(w)[1].tolist())):
        window = (l_best, l_best + w)
        windows.append((*window, _window_cost(arr[:, pos], *window, *pen.for_customer(k))))
    return _window_plan("saa-fixed", route, windows, arr, shared_width=w)


# ---------------------------------------------------------------------------
# moment-robust design


def _check_moments(variance: float, *values: float) -> None:
    """The public moment closed forms take finite numbers, variance >= 0."""
    if not (0 <= variance < math.inf and all(math.isfinite(v) for v in values)):
        raise ValueError("moments and window edges must be finite, with variance >= 0")


def _scarf(d: float, variance: float) -> float:
    """The Scarf bound at offset d, unchecked: the pricing kernel's copy."""
    return 0.5 * (d + math.sqrt(variance + d * d))


def scarf_earliness(lower: float, mean: float, variance: float) -> float:
    """Worst-case E[(l - tau)+] over distributions with the given mean and
    variance (Scarf bound): (d + sqrt(s^2 + d^2)) / 2 with d = l - mean."""
    _check_moments(variance, lower, mean)
    return _scarf(lower - mean, variance)


def scarf_tardiness(upper: float, mean: float, variance: float) -> float:
    """Worst-case E[(tau - u)+], mirror image of the earliness bound."""
    _check_moments(variance, upper, mean)
    return _scarf(mean - upper, variance)


def _wing(beta: float) -> float:
    """Multiple of the standard deviation a window edge sits away from the
    arrival mean, for the one-sided tolerance ratio beta = a_w / a_side."""
    c = 1.0 - 2.0 * beta
    if abs(c) >= 1.0:
        raise ValueError("coefficient domain: need 0 < a_w/a_side < 1")
    return c / math.sqrt(1.0 - c * c)


def gamma_coeffs(a_w: float, a_l: float, a_u: float) -> tuple[float, float]:
    """Per-sigma cost coefficients of the optimal moment-robust window.

    The minimised worst-case cost for a customer with arrival standard
    deviation sigma is (gamma_l + gamma_u) * sigma with
    gamma_side = sqrt(a_w (a_side - a_w)).  At the closed boundary
    2 a_w = a_side this degenerates to gamma_side = a_side / 2.
    """
    if not all(0 < a < math.inf for a in (a_w, a_l, a_u)):
        raise ValueError("penalty weights must be positive and finite")
    if 2 * a_w > min(a_l, a_u) + CMP_TOL:
        raise ValueError("coefficient domain: need 2*a_w <= min(a_l, a_u)")
    return math.sqrt(a_w * (a_l - a_w)), math.sqrt(a_w * (a_u - a_w))


def _dro_terms(a_w: float, a_l: float, a_u: float) -> tuple[float, ...]:
    """The weights followed by the per-sigma cost gamma_l + gamma_u and the
    two wings: everything ``_dro_window`` needs about one customer."""
    g_l, g_u = gamma_coeffs(a_w, a_l, a_u)
    return a_w, a_l, a_u, g_l + g_u, _wing(a_w / a_l), _wing(a_w / a_u)


def _dro_window(mean, variance, a_w, a_l, a_u, gamma, wing_l, wing_u):
    """The moment-robust pricing kernel, on a customer's ``_dro_terms``."""
    sigma = math.sqrt(variance)
    lower = mean - sigma * wing_l
    upper = mean + sigma * wing_u
    if lower >= 0:
        return lower, upper, gamma * sigma, False
    cost = a_w * upper + a_l * _scarf(0.0 - mean, variance) + a_u * _scarf(mean - upper, variance)
    return 0.0, upper, cost, True


def dro_window(mean: float, variance: float, a_w: float, a_l: float, a_u: float):
    """Closed-form moment-robust window for one customer.

    Returns (lower, upper, cost, clamped).  The unconstrained optimum is
    mean -/+ sigma * wing(beta_side) at cost (gamma_l + gamma_u) * sigma;
    a negative lower edge is clamped to zero and flagged, with the cost
    evaluated at the clamped window.
    """
    _check_moments(variance, mean)
    return _dro_window(mean, variance, *_dro_terms(a_w, a_l, a_u))


class DroPricer:
    """Moment-robust pricing: the state is (m, C y, y' C y) of the path
    under C = cov + alpha2 I, and a customer costs its ``dro_window``.
    Building one applies the rm domain rule (``PenaltyConfig.dro_valid``)
    for every caller; only ``dro_window`` keeps the closed boundary."""

    def __init__(self, mean, cov, alpha2: float, pen: PenaltyConfig):
        if not pen.dro_valid:
            raise ValueError("coefficient domain: moment-robust design needs 2*a_w < min(a_l, a_u)")
        if not 0 <= alpha2 < math.inf:
            raise ValueError("alpha2 must be finite and nonnegative")
        self.linear = _finite_array(mean, "mean", (np.size(mean),))
        m = len(self.linear)
        self.cbar = _finite_array(cov, "cov", (m, m)) + alpha2 * np.eye(m)
        self.terms = {
            k: _dro_terms(*pen.for_customer(k)) for k in range(1, pen.n_customers + 1)
        }
        self.gamma = np.array([0.0] + [self.terms[k][3] for k in self.terms])

    def root_state(self):
        return 0.0, np.zeros(len(self.linear)), 0.0

    def extend(self, state, arc: int):
        m, v, quad = state
        return m + self.linear[arc], v + self.cbar[:, arc], quad + 2.0 * v[arc] + self.cbar[arc, arc]

    def place_cost(self, state, k: int) -> float:
        m, _, quad = state
        return _dro_window(m, max(quad, 0.0), *self.terms[k])[2]

    def plan(self, route) -> WindowPlan:
        """The route's ``dro`` plan: each customer's ``dro_window`` at its
        arrival moments, with its clamp flag."""
        windows = [
            _dro_window(m, max(quad, 0.0), *self.terms[k])
            for k, (m, _, quad) in _prefix_states(self, route)
        ]
        return _window_plan(
            "dro", route, [w[:3] for w in windows], clamped=np.array([w[3] for w in windows], dtype=bool)
        )

    def subgradients(self, state, unplaced: np.ndarray):
        """Linear underestimates of the customers' costs beyond ``state``,
        as ``SaaPricer.subgradients``: one gradient serves everyone.

        A customer's cost is never below gamma_k * sigma (the clamped
        window is a feasible, not the optimal, point of the unclamped
        problem), and sigma(y) = sqrt(y' C y) is convex with gradient
        C y / sigma (the coefficients of ``oa_cut``), so
        cost_k(y + d) >= gamma_k * (sigma + (C y / sigma) @ d).  At sigma
        = 0 the gradient does not exist and no underestimate is given.
        """
        _, v, quad = state
        if quad <= SINGULAR_QUAD:
            return []
        sigma = math.sqrt(quad)
        return [(self.gamma, sigma, v / sigma)]


def design_dro(route, mean, cov, alpha2: float, pen: PenaltyConfig) -> WindowPlan:
    """Moment-robust windows built around each customer's arrival mean.

    The arrival moments come from the prefix of the route: m = mean on
    the path to the customer, s^2 = path variance under cov + alpha2 I
    (the inflation alpha2 guards against covariance estimation error).
    Requires 2 a_w < min(a_l, a_u) (``PenaltyConfig.dro_valid``), the
    rule ``DroPricer`` applies for every rm caller.
    """
    _check_sizes(len(route.x), len(route.customers), mean=mean, pen=pen)
    return DroPricer(mean, cov, alpha2, pen).plan(route)
