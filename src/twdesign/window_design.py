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
optimises the width together with the per-customer start times.  A
route's cost under either model is its plan's total (``route_cost_sm``,
``route_cost_rm``).
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .instance import _as_int, _check_sizes, _finite_array, _is_finite_real, _is_int, _open_for_write, _read_json, _write_json

CMP_TOL = 1e-12
SINGULAR_QUAD = 1e-18  # a path variance y' C y at or below this counts as zero


@dataclass(eq=False)
class PenaltyConfig:
    """Per-customer cost weights (a_w, a_l, a_u), indexed by customer id - 1.

    Each weight is a 1-D array of numbers (a scalar counts as one
    customer) under ``_finite_array``.  All weights lie in (0, 1] and
    satisfy a_w/a_l + a_w/a_u <= 1, which guarantees the window cost
    cannot be reduced by collapsing or inflating the window without bound.
    """

    a_w: np.ndarray
    a_l: np.ndarray
    a_u: np.ndarray

    def __post_init__(self):
        for name in ("a_w", "a_l", "a_u"):
            arr = np.atleast_1d(_finite_array(getattr(self, name), name, message=f"{name}: weights must lie in (0, 1]"))
            if not np.all((arr > 0) & (arr <= 1 + CMP_TOL)):
                raise ValueError(f"{name}: weights must lie in (0, 1]")
            if arr.ndim != 1:
                raise ValueError(f"{name}: expected a 1-D array, got shape {arr.shape}")
            setattr(self, name, arr.copy())
        n = self.a_w.size
        if self.a_l.size != n or self.a_u.size != n:
            raise ValueError("penalty arrays must have equal length")
        if n == 0:
            raise ValueError("penalty arrays must not be empty: a config needs at least one customer")
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
        k = _as_int(k, "customer")
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
    if not all(_is_finite_real(b) and 0 < b < 1 for b in (beta_l, beta_u)) or beta_l + beta_u > 1 + CMP_TOL:
        raise ValueError(
            "infeasible confidence: need beta_l, beta_u > 0 with beta_l + beta_u <= 1"
        )
    n_customers = _as_int(n_customers, "n_customers")
    if n_customers < 1:
        raise ValueError("n_customers must be >= 1")
    a_w = min(beta_l, beta_u)
    ones = np.ones(n_customers)
    return PenaltyConfig(a_w * ones, (a_w / beta_l) * ones, (a_w / beta_u) * ones)


def critical_indices(q: int, a_w: float, a_l: float, a_u: float) -> tuple[int, int]:
    """Order-statistic ranks (P1, P2) of the optimal sample-based window.

    P1 is the smallest rank r in 1..q with a_w <= (r/q) a_l + 1e-12 and P2
    the largest with a_w <= ((q - r + 1)/q) a_u + 1e-12, in exactly those
    float expressions.  Each right-hand side grows with r (with q - r + 1),
    so a bisection over the ranks finds each.  The weights must be finite
    numbers > 0 (``_check_weights``), with a_w at most min(a_l, a_u).
    """
    q = _as_int(q, "q")
    if q < 1:
        raise ValueError("q must be >= 1")
    _check_weights(a_w, a_l, a_u)
    # past this test, r = q satisfies both inequalities
    if not (a_w <= a_l + CMP_TOL and a_w <= a_u + CMP_TOL):
        raise ValueError("no valid quantile index: a_w must not exceed min(a_l, a_u)")

    def least(a_side):  # the least r in 1..q with a_w <= (r/q) a_side + CMP_TOL
        return 1 + bisect_left(range(1, q), True, key=lambda r: a_w <= r / q * a_side + CMP_TOL)

    p1, p2 = least(a_l), q + 1 - least(a_u)  # q - P2 + 1 is the least r for a_u
    if p1 > p2:
        raise ValueError("no valid quantile index: ranks crossed")
    return p1, p2


def _check_weights(a_w, a_l, a_u) -> None:
    """The weight rule of the closed forms (``critical_indices``,
    ``gamma_coeffs``): finite numbers > 0."""
    if not all(_is_finite_real(a) and a > 0 for a in (a_w, a_l, a_u)):
        raise ValueError("penalty weights must be positive and finite")


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
    """The sample-average pricing kernel, the one code that prices an
    ``sm`` window: (lower, upper, cost) of the optimal window, whose edges
    are the order statistics of ranks p1, p2.

    One sort gives both edges and the p1 - 1 earliest and q - p2 latest
    arrivals, all that the earliness and tardiness sums need, each summed
    in ascending order, so the result depends on the sample values alone,
    not on their order.  It ranks nothing: the duals are ranked only
    where they are read (``_ranks``)."""
    srt = np.sort(arr)
    q = srt.size
    lower = float(srt[p1 - 1])
    upper = float(srt[p2 - 1])
    early = lower * (p1 - 1) - srt[: p1 - 1].sum()
    late = srt[p2:].sum() - upper * (q - p2)
    return lower, upper, float(a_w * (upper - lower) + (a_l / q) * early + (a_u / q) * late)


def saa_window(arrivals, a_w: float, a_l: float, a_u: float) -> SaaWindow:
    """Optimal window for one customer given arrival samples.

    Works for any nonnegative combination of scenario travel times, so
    callers may pass arrival costs induced by fractional path variables.
    The arrivals must be finite numbers (``_finite_array``) and the weights
    finite numbers > 0 (``critical_indices``), so the cost is never NaN
    or negative.  The window is the pricing kernel's
    (``_order_stat_window``), the one that the searches and plans price.
    """
    arr = _finite_array(arrivals, "arrivals", message="arrivals must be finite numbers")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("arrivals must be a non-empty 1-D array")
    terms = (*critical_indices(arr.size, a_w, a_l, a_u), a_w, a_l, a_u)
    return _saa_window(arr, _order_stat_window(arr, *terms), *terms)


def _saa_window(arr: np.ndarray, window, p1: int, p2: int, a_w: float, a_l: float, a_u: float) -> SaaWindow:
    """The ``SaaWindow`` of the arrivals ``arr`` at ranks p1, p2 and weights
    (a_w, a_l, a_u), from their window (lower, upper, cost) as the one
    kernel (``_order_stat_window``) priced it: the one code that places
    the rank duals (``_rank_duals``) on a ranking (``_ranks``)."""
    q = arr.size
    early, late = _ranks(arr, p1, p2)
    rho1 = np.zeros(q)
    rho2 = np.zeros(q)
    rho1[early], rho2[late] = _rank_duals(q, p1, p2, a_w, a_l, a_u)
    return SaaWindow(*window, rho1, rho2, p1, p2)


def _ranks(arr: np.ndarray, p1: int, p2: int):
    """The indices of the samples of ranks 1..p1 (rank p1 last) and p2..q
    (rank p2 first) in ``arr``, from one partial sort at both ranks: the
    samples the rank duals sit on.  Ties are ranked either way.

    Both ranks are passed also when p1 == p2, where numpy takes the
    repeated rank as one.  With two ranks numpy 2.4 ranks the same on
    every CPU; a rank passed alone goes, on AVX2 or AVX-512, to a
    CPU-dispatched selection that orders the tails otherwise.  The cuts
    sum over the tails in their order, so their last bits, and with them
    node counts and tied duals, would then depend on the CPU."""
    ranked = np.argpartition(arr, (p1 - 1, p2 - 1))
    return ranked[:p1], ranked[p2 - 1 :]


def _rank_duals(q: int, p1: int, p2: int, a_w: float, a_l: float, a_u: float):
    """Optimal duals of the sample-average window by arrival rank: rho1 is
    a_l/q on each of the p1 - 1 earliest samples and the remainder of a_w
    at rank p1; rho2 is a_u/q on each of the q - p2 latest and the
    remainder at rank p2.  Returns rho1 on ranks 1..p1 and rho2 on ranks
    p2..q, in the order of the two tails of ``_ranks``.

    The duals do not depend on the arrival values, only on which sample
    holds which rank.  Placed on any ranking of a vector tau (ties broken
    either way) they are optimal at tau: sum_q tau_q (rho2_q - rho1_q) is
    the cost of the one kernel (``_order_stat_window``) at tau, up to
    rounding.  They are dual feasible everywhere, so that sum never
    exceeds the window cost at any arrival vector x.
    """
    rho1 = np.full(p1, a_l / q)
    rho1[-1] = min(max(a_w - (p1 - 1) * (a_l / q), 0.0), a_l / q)
    rho2 = np.full(q - p2 + 1, a_u / q)
    rho2[0] = min(max(a_w - (q - p2) * (a_u / q), 0.0), a_u / q)
    return rho1, rho2


@dataclass(eq=False)
class WindowPlan:
    """Designed windows for the customers of one route, in visit order.

    A plan holds one finite lower, upper and cost (``_finite_array``) for
    each of the route's customers 1..n, n = len(route_seq) - 2, in any
    order, with 0 <= lower <= upper; a finite total, stored as a float;
    and a ``shared_width`` that is None or a finite float >= 0.  So every
    plan the constructor accepts is one ``save_plan`` can write and
    ``load_plan`` read back, field for field.  The plans of the searches
    and designs are assembled without these checks, which hold for them
    already (``_window_plan``).  The in-sample rates and
    clamp flags are diagnostics of the design; a plan file does not carry
    them back.
    """

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
        self.route_seq = tuple(_as_int(v, "route", t) for t, v in enumerate(self.route_seq))
        self.customers = tuple(_as_int(k, "customers", p) for p, k in enumerate(self.customers))
        n = len(self.route_seq) - 2  # a route visits each of the customers 1..n once
        if sorted(self.customers) != list(range(1, n + 1)):
            raise ValueError(f"customers: expected one for each customer 1..{n}, got {list(self.customers)}")
        for name in ("lower", "upper", "cost_per_customer"):  # one for each customer
            message = f"{name}: expected finite numbers, got a non-finite {name}"
            setattr(self, name, _finite_array(getattr(self, name), name, (len(self.customers),), message))
        if not _is_finite_real(self.total_cost):
            raise ValueError(f"total_cost: expected a finite number, got {self.total_cost!r}")
        self.total_cost = float(self.total_cost)
        if not (self.shared_width is None or _is_finite_real(self.shared_width) and self.shared_width >= 0):
            raise ValueError(f"shared_width: expected None or a finite number >= 0, got {self.shared_width!r}")
        self.shared_width = None if self.shared_width is None else float(self.shared_width)
        if np.any(self.upper < self.lower):
            raise ValueError("upper: expected at least lower, got upper < lower")
        if np.any(self.lower < 0):
            raise ValueError("lower: expected a number >= 0, got a negative lower bound")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def window_for(self, k: int) -> tuple[float, float]:
        k = _as_int(k, "customer")
        try:
            pos = self.customers.index(k)
        except ValueError:
            raise ValueError(f"plan has no window for customer {k}") from None
        return float(self.lower[pos]), float(self.upper[pos])

    def to_json_dict(self) -> dict:
        per = []
        for pos, k in enumerate(self.customers):
            entry: dict = {"customer": k, "cost": float(self.cost_per_customer[pos])}
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
            "route": list(self.route_seq),
            "windows": [
                {"customer": k, "lower": float(self.lower[p]), "upper": float(self.upper[p])}
                for p, k in enumerate(self.customers)
            ],
            "shared_width": None if self.shared_width is None else float(self.shared_width),
            "cost": float(self.total_cost),
            "kind": self.kind,
            "per_customer": per,
        }


def save_plan(plan: WindowPlan, path, extra: dict | None = None) -> None:
    _write_json({**plan.to_json_dict(), **(extra or {})}, path)


def write_cost_csv(plan, path) -> None:
    """Per-customer cost report: customer, lower, upper, width, cost_component."""
    with _open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["customer", "lower", "upper", "width", "cost_component"])
        for pos, k in enumerate(plan.customers):
            writer.writerow(
                [
                    k,
                    repr(float(plan.lower[pos])),
                    repr(float(plan.upper[pos])),
                    repr(float(plan.upper[pos] - plan.lower[pos])),
                    repr(float(plan.cost_per_customer[pos])),
                ]
            )


def load_plan(path) -> WindowPlan:
    """Read a plan file.  Each value is checked as it is read
    (``_plan_field``); what ``WindowPlan`` then refuses is the file's error,
    its ``customers`` under the file's key ``windows``."""
    doc = _read_json(path, "window plan")
    for key in ("route", "windows", "cost"):
        if key not in doc:
            raise ValueError(f"window plan file: missing key {key!r}")
    if not (isinstance(doc["route"], list) and all(_is_int(v) for v in doc["route"])):
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
    lower = np.array([_plan_field(w["lower"], "lower") for w in windows], dtype=float)
    upper = np.array([_plan_field(w["upper"], "upper") for w in windows], dtype=float)
    costs = np.array([_plan_field(e.get("cost", 0.0), "cost") for e in per], dtype=float)
    kind = doc.get("kind", "unknown")
    if not isinstance(kind, str):
        raise ValueError(f"window plan file: kind: expected a string, got {json.dumps(kind)}")
    try:
        return WindowPlan(kind, tuple(doc["route"]), customers, lower, upper, costs,
                          _plan_field(doc["cost"], "cost"), doc.get("shared_width"))
    except ValueError as exc:
        key, _, rest = str(exc).partition(": ")
        raise ValueError(f"window plan file: {'windows' if key == 'customers' else key}: {rest}") from None


def _plan_field(value, key: str, integer: bool = False):
    """A plan file's number, rejecting JSON booleans, strings and non-finite values."""
    if not (_is_int(value) if integer else _is_finite_real(value)):
        expected = "an integer" if integer else "a finite number"
        raise ValueError(f"window plan file: {key}: expected {expected}, got {json.dumps(value)}")
    return value


# ---------------------------------------------------------------------------
# pricing along a route
#
# A pricer carries the arrival state of a path from the depot and prices
# the customer at its end; it is the model's one pricing kernel, and also
# builds the model's plan (``plan``) and its cuts (``subgradients``).  It
# keeps no state between calls: ``price`` returns the whole window it
# computed, and a plan is assembled from those windows (``_plan``).  The
# searches extend a path one arc at a time and carry each placed
# customer's window along it, so a solve's plan is the windows its search
# priced; ``plan`` and ``design_stochastic`` walk a finished route with
# the same recurrence (``_prefix_states``).  Both sum in visit order, so
# the objective a search reports equals the cost of the plan built for
# its route bit for bit.  ``arrival_matrix`` adds the arcs in the same
# order, so the designs that read it see the same arrivals.


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

    The plan is assembled without ``WindowPlan``'s checks, which hold for
    it already: the route is a ``route_to_xy`` route, so its nodes and
    customers are ints, one for each customer; the designs price finite
    windows with 0 <= lower <= upper and finite costs; and a shared width
    is a float >= 0.  The constructor would return the same fields.
    """
    lower, upper, cost = np.array(windows, dtype=float).reshape(-1, 3).T
    if arrivals is not None:
        early, late = _outside(arrivals, lower, upper)
        fields["early_rate"] = np.count_nonzero(early, axis=0) / len(arrivals)
        fields["late_rate"] = np.count_nonzero(late, axis=0) / len(arrivals)
    plan = WindowPlan.__new__(WindowPlan)
    vars(plan).update(dict(
        kind=kind,
        route_seq=route.seq,
        customers=route.customers,
        lower=lower,
        upper=upper,
        cost_per_customer=cost,
        total_cost=_visit_sum(cost),
        shared_width=None,
        early_rate=None,
        late_rate=None,
        clamped=None,
    ) | fields)
    return plan


class SaaPricer:
    """Sample-average pricing: the state is the vector of scenario arrival
    times, and ``price`` returns a customer's window from the one kernel
    (``_order_stat_window``: lower, upper and cost) and the state it
    priced: all that a plan needs (``_plan``).

    The pricer keeps nothing between calls.  Pricing ranks no samples:
    the rank duals are placed only where they are read, by
    ``subgradients``, by ``saa_window`` and by a window of
    ``design_stochastic`` on its first read (``_ranks``)."""

    def __init__(self, samples, pen: PenaltyConfig):
        self.values = samples.values
        self.terms = {}
        # customers sharing a weight triple share its ranks, one window
        # cost and its duals: per triple, membership over node ids and the
        # rho1 (rho2) duals of the p1 earliest (q - p2 + 1 latest) ranks
        self.groups: dict[tuple, tuple] = {}
        # cached: customers sharing a weight triple bisect its ranks once.  Every
        # plan, design and route cost builds a pricer: at n = 8, q = 1000 and
        # one triple that takes 25 us, against 80 us without the cache
        terms_of = cache(lambda weights: (*critical_indices(samples.q, *weights), *weights))
        for k in range(1, pen.n_customers + 1):
            terms = self.terms[k] = terms_of(pen.for_customer(k))
            if terms not in self.groups:
                self.groups[terms] = (np.zeros(pen.n_customers + 1), *_rank_duals(samples.q, *terms))
            self.groups[terms][0][k] = 1.0

    @cached_property
    def linear(self) -> np.ndarray:
        """Per-arc average travel time; only the route search needs it."""
        return self.values.mean(axis=0)

    def root_state(self):
        return np.zeros(self.values.shape[0])

    def extend(self, state, arc: int):
        return state + self.values[:, arc]

    def price(self, state, k: int):
        return (*_order_stat_window(state, *self.terms[k]), state)

    def plan(self, route) -> WindowPlan:
        """The route's ``saa`` plan: each customer's window at its arrival
        samples (``_prefix_states``, ``_plan``)."""
        return self._plan(route, [self.price(state, k) for k, state in _prefix_states(self, route)])

    def _plan(self, route, windows) -> WindowPlan:
        """The ``saa`` plan of a route from each customer's window, in visit
        order, with the in-sample rates of the arrival samples the windows
        were priced at (``_window_plan``).  Without ties at the window
        edges these are the rank rates (p1 - 1)/q early and (q - p2)/q
        late; samples tied with an edge are on time.  The samples
        transposed are the route's ``arrival_matrix``, in its column-major
        layout, where each customer's count reads contiguous samples."""
        return _window_plan("saa", route, [w[:3] for w in windows], np.array([w[3] for w in windows]).T)

    def subgradients(self, state, unplaced: np.ndarray):
        """Linear underestimates of the unplaced customers' costs beyond
        ``state``: one ``(scale, intercept, weights)`` per weight triple
        among the customers listed in ``unplaced``, such that
        cost_k(state + values @ d) >= scale[k] * (intercept + weights @ d)
        for every arc vector d.

        With g = rho2 - rho1 the triple's rank duals placed on one ranking
        of ``state`` at the triple's ranks (``_ranks``, ``_rank_duals``),
        the window cost is at least g' x at every arrival vector x, with
        equality at ``state``: weights = values' g (the coefficients of
        ``benders_cut``) and intercept = g' state, the cost at the state.
        Each triple ranks the state once, here: pricing ranks nothing.
        """
        cuts = []
        for terms, (scale, rho1, rho2) in self.groups.items():
            if not scale[unplaced].any():
                continue
            early, late = _ranks(state, *terms[:2])
            intercept = float(rho2 @ state[late] - rho1 @ state[early])
            cuts.append((scale, intercept, rho2 @ self.values[late] - rho1 @ self.values[early]))
        return cuts


def route_cost_sm(route, samples, pen: PenaltyConfig) -> float:
    """Total optimal window cost of a route under the sample-average model:
    the ``total_cost`` of ``SaaPricer``'s plan."""
    _check_sizes(len(route.x), len(route.customers), samples=samples, pen=pen)
    return SaaPricer(samples, pen).plan(route).total_cost


def design_stochastic(route, samples, pen: PenaltyConfig):
    """Per-customer optimal windows under the sample-average cost.

    Returns the route's plan, the one ``SaaPricer.plan`` builds, from one
    walk of the route, together with each customer's ``SaaWindow`` in a
    read-only mapping keyed by customer id in visit order
    (``_SaaWindows``).  A window's optimal duals ``rho1``/``rho2`` and
    ranks ``p1``/``p2`` are what optimality cuts for the routing master
    problem are built from; the design itself prices each customer once
    with the pricer's kernel (``_order_stat_window``) and ranks nothing.
    A customer's samples are ranked the first time its window is read.
    """
    _check_sizes(len(route.x), len(route.customers), samples=samples, pen=pen)
    pricer = SaaPricer(samples, pen)
    priced = {k: pricer.price(state, k) for k, state in _prefix_states(pricer, route)}
    return pricer._plan(route, list(priced.values())), _SaaWindows(priced, pricer.terms)


class _SaaWindows(Mapping):
    """The ``SaaWindow`` of each customer of a route, keyed by customer id
    in visit order, from the windows a ``SaaPricer`` priced on one walk of
    the route: each customer's (lower, upper, cost, arrival state) and its
    pricer terms (ranks and weights).  A customer's window is built on its
    first read (``_saa_window``), which ranks its arrival state once, and
    kept; its edges and cost are the ones already priced."""

    def __init__(self, priced: dict, terms: dict):
        self._priced = priced
        self._terms = terms
        self._read: dict[int, SaaWindow] = {}

    def __getitem__(self, k) -> SaaWindow:
        if k not in self._read:
            *window, state = self._priced[k]
            self._read[k] = _saa_window(state, window, *self._terms[k])
        return self._read[k]

    def __contains__(self, k) -> bool:
        return k in self._priced

    def __iter__(self):
        return iter(self._priced)

    def __len__(self) -> int:
        return len(self._priced)


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


# the search lists and sorts its bracket once it holds at most this many widths
_LISTED = 1 << 17


class _Widths:
    """The candidate widths of ``design_fixed_width`` as an implicit sorted
    list: zero, then every difference u[a] - u[b], a > b, of each
    customer's distinct sorted arrivals u.  Two pairs whose differences
    are equal bit for bit give two entries; otherwise the list is
    ``np.unique`` of all the nonnegative pairwise differences.

    Rounding is monotone, so row a's differences do not increase in b and
    those at most x run from one b on: ``_cut`` finds that b in every row,
    one ``searchsorted`` per customer, and repairs the rows where
    fl(u[a] - u[b]) <= x disagrees.  The entries between two cuts are
    counted exactly and can be listed.  Entry i lies between two cuts
    placed ``margin`` entries either side of it in a strided sample
    (``_strided``) of the list, kept, or of a wider bracket; a cut on the
    wrong side widens the margin.  Every array holds O(n q) entries.
    """

    def __init__(self, srt):
        fresh = np.ones(srt.shape, dtype=bool)
        fresh[:, 1:] = srt[:, 1:] != srt[:, :-1]
        self.u = u = srt[fresh]
        counts = fresh.sum(axis=1)
        ends = np.cumsum(counts)
        self.parts = np.split(u, ends[:-1])
        # each arrival but a customer's first heads a row; ``first`` is
        # the index in u of the row's customer's first arrival
        starts = np.repeat(ends - counts, counts)
        self.rows = rows = np.flatnonzero(np.arange(len(u)) > starts)
        self.first, self.head = starts[rows], u[rows]
        self.size = 1 + int((rows - self.first).sum())
        self.listed = (1, np.empty(0))
        self.spread = math.isqrt(len(rows)) + 1
        # the golden ratio spreads the rows' sampling phases evenly
        self.phase = rows * 0.6180339887498949 % 1.0
        # the list's own sample, about four entries a row, is kept
        self.stride = -(-(self.size - 1) // max(1, 4 * len(rows)))
        self.sample = np.sort(self._strided(self.first, rows, self.stride)) if self.size - 1 > _LISTED else None

    def _strided(self, cut_hi, cut_lo, stride: int):
        """The entries between two cuts, unsorted: every ``stride``-th of
        each row from its phase, or all of them at stride 1."""
        top = cut_lo - 1 - (self.phase * stride).astype(np.intp)
        per_row = np.maximum(top - cut_hi + stride, 0) // stride
        b = np.repeat(top + stride * (np.cumsum(per_row) - per_row), per_row)
        b -= stride * np.arange(len(b))
        values = self.u[b]
        del b  # an entry holds two 8-byte arrays at a time, not three
        return np.subtract(np.repeat(self.head, per_row), values, out=values)

    def _cut(self, x: float):
        """Per row, the first b whose difference is at most ``x`` >= 0, and
        the number of positive candidates at most ``x``."""
        u, head, rows, first = self.u, self.head, self.rows, self.first
        cut = np.concatenate([part.searchsorted(part[1:] - x) for part in self.parts])
        cut += first
        while True:
            down = (cut > first) & (head - u[cut - 1] <= x)
            up = head - u[cut] > x  # false at b = a, as x >= 0
            if not (down.any() or up.any()):
                return cut, int((rows - cut).sum())
            cut += up
            cut -= down

    def _between(self, lo: int, hi: int):
        """The positive candidates between two cuts that hold those of
        ranks ``lo``..``hi`` (from 0), unsorted, and the rank of the least."""
        low, high = (self.rows, 0), (self.first, self.size - 1)  # (cut, count) at 0 and at infinity
        stride, sample = self.stride, self.sample
        while high[1] - low[1] > hi - lo + _LISTED:
            if sample is None:  # a bracket's sample, small enough to list the next bracket
                stride = max(-(-(high[1] - low[1]) // (4 * len(self.rows))), _LISTED // (2 * self.spread))
                sample = np.sort(self._strided(high[0], low[0], stride))
            margin = stride * self.spread // 2
            while True:
                j = min((lo - low[1] - margin) // stride, len(sample)) - 1
                new_low = self._cut(float(sample[j])) if j >= 0 else low
                j = -(-(hi + 1 - low[1] + margin) // stride) - 1
                new_high = self._cut(float(sample[j])) if j < len(sample) else high
                if new_low[1] <= lo and hi < new_high[1]:
                    break
                margin = 4 * margin + stride
            if new_high[1] - new_low[1] == high[1] - low[1]:
                break  # no narrower bracket holds the ranks: a long run of equal widths
            low, high, sample = new_low, new_high, None
        return low[1], self._strided(high[0], low[0], 1)

    def narrow(self, lo: int, hi: int) -> None:
        """Lists and sorts entries ``lo``..``hi`` the first time they are
        at most ``_LISTED`` apart; the search's later brackets lie inside."""
        if hi - lo < _LISTED and not len(self.listed[1]):
            below, values = self._between(max(lo - 1, 0), hi - 1)
            values.sort()
            self.listed = (below + 1, values)

    def __getitem__(self, i: int) -> float:
        if i == 0:
            return 0.0
        first, listed = self.listed
        if first <= i < first + len(listed):
            return float(listed[i - first])
        below, values = self._between(i - 1, i - 1)
        return float(np.partition(values, i - 1 - below)[i - 1 - below])


def design_fixed_width(route, samples, pen: PenaltyConfig) -> WindowPlan:
    """Optimal shared-width windows for all customers of a route.

    Minimises sum_k [a_w w + (a_l^k/q) sum (l_k - tau)+ +
    (a_u^k/q) sum (tau - l_k - w)+] over w >= 0 and l_k >= 0.  For fixed
    w the inner optimum per customer is found exactly on the kinks of
    its cost by one ``_WidthPricer``, built once per call, which prices
    every customer at a width together; the outer objective is convex
    piecewise linear in w, so an exact search over the candidate widths
    (zero and the pairwise differences of each customer's distinct
    arrival samples, ``_Widths``) by ternary search on their sorted
    indices suffices.

    The candidates are never all built, so a call holds O(n q) memory
    and nothing outlives it.  At n = 10 and q = 1000 it takes about 35 ms
    on a 2-core VM, most of it pricing some 70 widths (about 0.23 ms
    each) and some 40 exact counts of the candidates below a width
    (about 0.3 ms each).
    """
    _check_sizes(len(route.x), len(route.customers), samples=samples, pen=pen)
    if not np.all(pen.a_w == pen.a_w[0]):
        raise ValueError("shared-width design needs a customer-independent a_w")
    a_w = float(pen.a_w[0])
    n = len(route.customers)
    arr = arrival_matrix(route, samples.values)
    srt = np.sort(arr.T, axis=1)
    widths = _Widths(srt)
    price = _WidthPricer(srt, *np.array([pen.for_customer(k)[1:] for k in route.customers]).T)

    totals: dict[int, float] = {}

    def total_at(idx: int) -> float:
        if idx not in totals:
            w = widths[idx]
            totals[idx] = _visit_sum([n * a_w * w, *price(w)[0].tolist()])
        return totals[idx]

    lo, hi = 0, widths.size - 1
    while hi - lo > 2:
        widths.narrow(lo, hi)
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        tie = total_at(m1) == total_at(m2) and widths[m1] == widths[m2]
        if tie:  # both probes in one run of a width say nothing: compare m1 with the first width past it
            m2 = 1 + widths._cut(widths[m2])[1]
        if m2 > hi or total_at(m1) <= total_at(m2):
            hi = m1 if tie else m2
        else:
            lo = m1
    w = widths[min(range(lo, hi + 1), key=lambda i: (total_at(i), widths[i]))]

    windows = [(l_best, l_best + w, _window_cost(arr[:, pos], l_best, l_best + w, *pen.for_customer(k)))
               for pos, (k, l_best) in enumerate(zip(route.customers, price(w)[1].tolist()))]
    return _window_plan("saa-fixed", route, windows, arr, shared_width=w)


# ---------------------------------------------------------------------------
# moment-robust design


def _scarf(d: float, variance: float) -> float:
    """The Scarf bound at offset d, unchecked: the pricing kernel's copy."""
    return 0.5 * (d + math.sqrt(variance + d * d))


def scarf_earliness(lower: float, mean: float, variance: float) -> float:
    """Worst-case E[(l - tau)+] over distributions with the given mean and
    variance (Scarf bound): (d + sqrt(s^2 + d^2)) / 2 with d = l - mean.
    Every input is a finite number (``_is_finite_real``), variance >= 0."""
    if not (all(map(_is_finite_real, (lower, mean, variance))) and variance >= 0):
        raise ValueError("moments and window edges must be finite, with variance >= 0")
    return _scarf(lower - mean, variance)


def scarf_tardiness(upper: float, mean: float, variance: float) -> float:
    """Worst-case E[(tau - u)+], mirror image of the earliness bound."""
    if not (all(map(_is_finite_real, (upper, mean, variance))) and variance >= 0):
        raise ValueError("moments and window edges must be finite, with variance >= 0")
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
    2 a_w = a_side this degenerates to gamma_side = a_side / 2.  The
    weights must be finite numbers > 0 (``_check_weights``).
    """
    _check_weights(a_w, a_l, a_u)
    if 2 * a_w > min(a_l, a_u) + CMP_TOL:
        raise ValueError("coefficient domain: need 2*a_w <= min(a_l, a_u)")
    return _gammas(a_w, a_l, a_u)


def _gammas(a_w: float, a_l: float, a_u: float) -> tuple[float, float]:
    """``gamma_coeffs`` unchecked: the pricing kernel's copy, for weights a
    ``PenaltyConfig`` has already checked."""
    return math.sqrt(a_w * (a_l - a_w)), math.sqrt(a_w * (a_u - a_w))


def _dro_terms(a_w: float, a_l: float, a_u: float) -> tuple[float, ...]:
    """The weights followed by the per-sigma cost gamma_l + gamma_u and the
    two wings: everything ``_dro_window`` needs about one customer.
    Unchecked, as ``_gammas``."""
    g_l, g_u = _gammas(a_w, a_l, a_u)
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
    evaluated at the clamped window.  The moments must be finite numbers
    (``_is_finite_real``), variance >= 0, and the weights as
    ``gamma_coeffs`` requires.
    """
    if not (all(map(_is_finite_real, (mean, variance))) and variance >= 0):
        raise ValueError("moments and window edges must be finite, with variance >= 0")
    gamma_coeffs(a_w, a_l, a_u)  # the weight checks
    return _dro_window(mean, variance, *_dro_terms(a_w, a_l, a_u))


class DroPricer:
    """Moment-robust pricing: the state is (m, C y, y' C y) of the path
    under C = cov + alpha2 I, and ``price`` returns a customer's
    ``dro_window`` (lower, upper, cost, clamped); the pricer keeps nothing
    between calls.  Building one applies the rm domain rule
    (``PenaltyConfig.dro_valid``) for every caller; only ``dro_window``
    keeps the closed boundary."""

    def __init__(self, mean, cov, alpha2: float, pen: PenaltyConfig):
        if not pen.dro_valid:
            raise ValueError("coefficient domain: moment-robust design needs 2*a_w < min(a_l, a_u)")
        if not (_is_finite_real(alpha2) and alpha2 >= 0):
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

    def price(self, state, k: int):
        m, _, quad = state
        return _dro_window(m, max(quad, 0.0), *self.terms[k])

    def plan(self, route) -> WindowPlan:
        """The route's ``dro`` plan: each customer's ``dro_window`` at its
        arrival moments (``_prefix_states``, ``_plan``)."""
        return self._plan(route, [self.price(state, k) for k, state in _prefix_states(self, route)])

    def _plan(self, route, windows) -> WindowPlan:
        """The ``dro`` plan of a route from each customer's window, in visit
        order, with its clamp flag."""
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


def route_cost_rm(route, mean, cov, alpha2: float, pen: PenaltyConfig) -> float:
    """Total optimal window cost of a route under the moment-robust model:
    the ``total_cost`` of its ``design_dro`` plan.

    Each customer contributes the cost of its ``dro_window``: (gamma_l +
    gamma_u) times the standard deviation of its arrival time under
    cov + alpha2 I, unless the window's lower edge is clamped at zero.
    """
    return design_dro(route, mean, cov, alpha2, pen).total_cost
