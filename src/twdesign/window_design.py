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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

    P1 is the smallest rank with a_w <= (P1/q) a_l and P2 the largest
    rank with a_w <= ((q - P2 + 1)/q) a_u; comparisons treat values
    within 1e-12 as equal, resolving toward <=.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if a_w > a_l + CMP_TOL or a_w > a_u + CMP_TOL:
        raise ValueError("no valid quantile index: a_w must not exceed min(a_l, a_u)")
    p1 = min(q, max(1, math.ceil(q * a_w / a_l)))
    while p1 > 1 and a_w <= (p1 - 1) / q * a_l + CMP_TOL:
        p1 -= 1
    while p1 < q and a_w > p1 / q * a_l + CMP_TOL:
        p1 += 1
    p2 = min(q, max(1, math.floor(q + 1 - q * a_w / a_u)))
    while p2 < q and a_w <= (q - p2) / q * a_u + CMP_TOL:
        p2 += 1
    while p2 > 1 and a_w > (q - p2 + 1) / q * a_u + CMP_TOL:
        p2 -= 1
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
    optimal window, whose edges are the order statistics of ranks p1, p2.

    A partial sort places the p1 - 1 earliest and the q - p2 latest
    arrivals on either side of the two ranks, which is all the earliness
    and tardiness sums need.
    """
    q = arr.size
    if p1 == p2:
        part = np.partition(arr, p1 - 1)
    else:
        part = np.partition(arr, (p1 - 1, p2 - 1))
    lower = float(part[p1 - 1])
    upper = float(part[p2 - 1])
    early = lower * (p1 - 1) - part[: p1 - 1].sum()
    late = part[p2:].sum() - upper * (q - p2)
    return lower, upper, float(a_w * (upper - lower) + (a_l / q) * early + (a_u / q) * late)


def saa_window(arrivals, a_w: float, a_l: float, a_u: float) -> SaaWindow:
    """Optimal window for one customer given arrival samples.

    Works for any nonnegative combination of scenario travel times, so
    callers may pass arrival costs induced by fractional path variables.
    """
    arr = np.asarray(arrivals, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("arrivals must be a non-empty 1-D array")
    q = arr.size
    p1, p2 = critical_indices(q, a_w, a_l, a_u)
    lower, upper, cost = _order_stat_window(arr, p1, p2, a_w, a_l, a_u)
    below, at_p1, at_p2, above = _rank_duals(q, p1, p2, a_w, a_l, a_u)
    order = np.argsort(arr, kind="stable")
    rho1 = np.zeros(q)
    rho1[order[: p1 - 1]] = below
    rho1[order[p1 - 1]] = at_p1
    rho2 = np.zeros(q)
    rho2[order[p2:]] = above
    rho2[order[p2 - 1]] = at_p2
    return SaaWindow(lower, upper, cost, rho1, rho2, p1, p2)


def _rank_duals(q: int, p1: int, p2: int, a_w: float, a_l: float, a_u: float):
    """Optimal duals of the sample-average window by arrival rank: rho1 is
    a_l/q on each of the p1 - 1 earliest samples and the remainder of a_w
    at rank p1; rho2 is a_u/q on each of the q - p2 latest and the
    remainder at rank p2.  Returns (rho1 below p1, rho1 at p1, rho2 at
    p2, rho2 above p2).

    The duals do not depend on the arrival values, only on which sample
    holds which rank.  Placed on any ranking of a vector tau (ties broken
    either way) they are optimal at tau, and they are dual feasible
    everywhere, so sum_q x_q (rho2_q - rho1_q) never exceeds the window
    cost at any arrival vector x.
    """
    at_p1 = min(max(a_w - (p1 - 1) * (a_l / q), 0.0), a_l / q)
    at_p2 = min(max(a_w - (q - p2) * (a_u / q), 0.0), a_u / q)
    return a_l / q, at_p1, at_p2, a_u / q


@dataclass(eq=False)
class DualPair:
    """Optimal duals for one customer, original sample order."""

    customer: int
    rho1: np.ndarray
    rho2: np.ndarray
    p1: int
    p2: int


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
    doc = plan.to_json_dict()
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_plan(path) -> WindowPlan:
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("route", "windows", "cost"):
        if key not in doc:
            raise ValueError(f"window plan file: missing key {key!r}")
    customers = tuple(int(w["customer"]) for w in doc["windows"])
    lower = np.array([float(w["lower"]) for w in doc["windows"]])
    upper = np.array([float(w["upper"]) for w in doc["windows"]])
    per = doc.get("per_customer") or [{} for _ in customers]
    costs = np.array([float(e.get("cost", 0.0)) for e in per])
    return WindowPlan(
        kind=str(doc.get("kind", "unknown")),
        route_seq=tuple(int(v) for v in doc["route"]),
        customers=customers,
        lower=lower,
        upper=upper,
        cost_per_customer=costs,
        total_cost=float(doc["cost"]),
        shared_width=doc.get("shared_width"),
    )


# ---------------------------------------------------------------------------
# pricing along a route
#
# A pricer carries the arrival state of a path from the depot and prices
# the customer at its end.  The route search extends it one arc at a
# time; every other caller walks a finished route with the same
# recurrence and sums in the same visit order, so the objective a search
# reports equals the cost of the plan built for its route bit for bit.


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


def price_route(pricer, route) -> float:
    """Total window cost of a route under the model ``pricer`` belongs to."""
    return _visit_sum(pricer.place_cost(state, k) for k, state in _prefix_states(pricer, route))


class SaaPricer:
    """Sample-average pricing: the state is the vector of scenario arrival
    times, and a customer costs its ``_order_stat_window``."""

    def __init__(self, samples, pen: PenaltyConfig):
        self.values = samples.values
        self.terms = {}
        # customers sharing a weight triple share one window cost and its
        # duals: per triple, membership over node ids and the rho1 (rho2)
        # duals of the p1 earliest (q - p2 + 1 latest) ranks
        self.groups: dict[tuple, tuple] = {}
        for k in range(1, pen.n_customers + 1):
            weights = pen.for_customer(k)
            terms = self.terms[k] = (*critical_indices(samples.q, *weights), *weights)
            if terms not in self.groups:
                p1, p2 = terms[:2]
                below, at_p1, at_p2, above = _rank_duals(samples.q, *terms)
                early = np.append(np.full(p1 - 1, below), at_p1)
                late = np.append(at_p2, np.full(samples.q - p2, above))
                self.groups[terms] = (np.zeros(pen.n_customers + 1), early, late)
            self.groups[terms][0][k] = 1.0

    @cached_property
    def linear(self) -> np.ndarray:
        """Per-arc average travel time; only the route search needs it."""
        return self.values.mean(axis=0)

    def root_state(self):
        return np.zeros(self.values.shape[0])

    def extend(self, state, arc: int):
        return state + self.values[:, arc]

    def place_cost(self, state, k: int) -> float:
        return _order_stat_window(state, *self.terms[k])[2]

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
        g' state, the cost at the state.
        """
        cuts = []
        for (p1, p2, *_), (scale, rho1, rho2) in self.groups.items():
            if not scale[unplaced].any():
                continue
            ranked = np.argpartition(state, p1 - 1 if p1 == p2 else (p1 - 1, p2 - 1))
            early, late = ranked[:p1], ranked[p2 - 1 :]
            intercept = float(rho2 @ state[late] - rho1 @ state[early])
            cuts.append((scale, intercept, rho2 @ self.values[late] - rho1 @ self.values[early]))
        return cuts


def design_stochastic(route, samples, pen: PenaltyConfig):
    """Per-customer optimal windows under the sample-average cost.

    Returns the plan together with the optimal duals per customer; the
    duals are what optimality cuts for the routing master problem are
    built from.
    """
    q = samples.q
    lowers, uppers, costs, early, late = [], [], [], [], []
    duals: dict[int, DualPair] = {}
    for k, arrivals in _prefix_states(SaaPricer(samples, pen), route):
        a_w, a_l, a_u = pen.for_customer(k)
        win = saa_window(arrivals, a_w, a_l, a_u)
        lowers.append(win.lower)
        uppers.append(win.upper)
        costs.append(win.cost)
        early.append((win.p1 - 1) / q)
        late.append((q - win.p2) / q)
        duals[k] = DualPair(k, win.rho1, win.rho2, win.p1, win.p2)
    plan = WindowPlan(
        kind="saa",
        route_seq=route.seq,
        customers=route.customers,
        lower=np.array(lowers),
        upper=np.array(uppers),
        cost_per_customer=np.array(costs),
        total_cost=_visit_sum(costs),
        early_rate=np.array(early),
        late_rate=np.array(late),
    )
    return plan, duals


BRUTE_FORCE_MAX_Q = 500


def brute_force_windows(route, samples, pen: PenaltyConfig) -> WindowPlan:
    """Reference design by exhaustive search over sample-valued windows.

    Evaluates the sample-average cost at every pair (l, u) of arrival
    sample values with l <= u, per customer.  Ties are broken by the
    smaller width, then the smaller lower bound.  Quadratic in Q, meant
    as an oracle for small sample sets.
    """
    from .routing import arrival_matrix

    q = samples.q
    if q > BRUTE_FORCE_MAX_Q:
        raise ValueError(f"brute-force design limited to q <= {BRUTE_FORCE_MAX_Q}")
    arr = arrival_matrix(route, samples.values)
    lowers, uppers, costs, early, late = [], [], [], [], []
    for pos, k in enumerate(route.customers):
        a_w, a_l, a_u = pen.for_customer(k)
        col = arr[:, pos]
        values = np.unique(col)
        best = None
        for i, lo in enumerate(values):
            early_sum = float(np.maximum(lo - col, 0.0).sum())
            for up in values[i:]:
                late_sum = float(np.maximum(col - up, 0.0).sum())
                cost = a_w * (up - lo) + (a_l / q) * early_sum + (a_u / q) * late_sum
                key = (cost, up - lo, lo)
                if best is None or key < best:
                    best = key
        cost, width, lo = best
        lowers.append(lo)
        uppers.append(lo + width)
        costs.append(cost)
        early.append(float(np.mean(col < lo)))
        late.append(float(np.mean(col > lo + width)))
    return WindowPlan(
        kind="saa-brute",
        route_seq=route.seq,
        customers=route.customers,
        lower=np.array(lowers),
        upper=np.array(uppers),
        cost_per_customer=np.array(costs),
        total_cost=_visit_sum(costs),
        early_rate=np.array(early),
        late_rate=np.array(late),
    )


FIXED_WIDTH_MAX_CANDIDATES = 10_000_000


def _inner_fixed_cost(srt, cum, a_l, a_u, q, width):
    """Min over the start time l >= 0 of the earliness/tardiness cost at
    a given width, by scanning the kinks of the piecewise-linear cost."""
    cands = np.concatenate((srt, srt - width, [0.0]))
    cands = np.maximum(cands, 0.0)
    cands = np.unique(cands)
    m1 = np.searchsorted(srt, cands, side="right")
    early = cands * m1 - cum[m1]
    ups = cands + width
    m2 = np.searchsorted(srt, ups, side="right")
    late = (cum[q] - cum[m2]) - ups * (q - m2)
    f = (a_l / q) * early + (a_u / q) * late
    best = int(np.argmin(f))
    return float(f[best]), float(cands[best])


def design_fixed_width(route, samples, pen: PenaltyConfig) -> WindowPlan:
    """Optimal shared-width windows for all customers of a route.

    Minimises sum_k [a_w w + (a_l^k/q) sum (l_k - tau)+ +
    (a_u^k/q) sum (tau - l_k - w)+] over w >= 0 and l_k >= 0.  For fixed
    w the inner optimum per customer is found exactly on the kinks of
    its cost; the outer objective is convex piecewise linear in w, so an
    exact search over the candidate widths (all nonnegative pairwise
    differences of each customer's arrival samples, plus zero) via
    ternary search on the sorted grid suffices.
    """
    from .routing import arrival_matrix

    if not np.all(pen.a_w == pen.a_w[0]):
        raise ValueError("shared-width design needs a customer-independent a_w")
    a_w = float(pen.a_w[0])
    arr = arrival_matrix(route, samples.values)
    q = samples.q
    n = len(route.customers)
    raw_count = n * (q * (q + 1)) // 2 + 1
    if raw_count > FIXED_WIDTH_MAX_CANDIDATES:
        raise ValueError(
            "fixed-width candidate set exceeds "
            f"{FIXED_WIDTH_MAX_CANDIDATES}; subsample the scenarios first"
        )
    per_cust = []
    diff_parts = [np.zeros(1)]
    for pos in range(n):
        srt = np.sort(arr[:, pos])
        cum = np.concatenate(([0.0], np.cumsum(srt)))
        per_cust.append((srt, cum))
        diffs = np.subtract.outer(srt, srt).ravel()
        diff_parts.append(diffs[diffs >= 0])
    widths = np.unique(np.concatenate(diff_parts))

    cache: dict[int, float] = {}

    def total_at(idx: int) -> float:
        if idx not in cache:
            w = float(widths[idx])
            total = n * a_w * w
            for pos, k in enumerate(route.customers):
                _, a_l, a_u = pen.for_customer(k)
                srt, cum = per_cust[pos]
                val, _ = _inner_fixed_cost(srt, cum, a_l, a_u, q, w)
                total += val
            cache[idx] = total
        return cache[idx]

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

    lowers, costs, early, late = [], [], [], []
    for pos, k in enumerate(route.customers):
        _, a_l, a_u = pen.for_customer(k)
        srt, cum = per_cust[pos]
        _, l_best = _inner_fixed_cost(srt, cum, a_l, a_u, q, w)
        col = arr[:, pos]
        cost = (
            a_w * w
            + (a_l / q) * float(np.maximum(l_best - col, 0.0).sum())
            + (a_u / q) * float(np.maximum(col - l_best - w, 0.0).sum())
        )
        lowers.append(l_best)
        costs.append(cost)
        early.append(float(np.mean(col < l_best)))
        late.append(float(np.mean(col > l_best + w)))
    lowers = np.array(lowers)
    return WindowPlan(
        kind="saa-fixed",
        route_seq=route.seq,
        customers=route.customers,
        lower=lowers,
        upper=lowers + w,
        cost_per_customer=np.array(costs),
        total_cost=_visit_sum(costs),
        shared_width=w,
        early_rate=np.array(early),
        late_rate=np.array(late),
    )


# ---------------------------------------------------------------------------
# moment-robust design


def scarf_earliness(lower: float, mean: float, variance: float) -> float:
    """Worst-case E[(l - tau)+] over distributions with the given mean and
    variance (Scarf bound): (d + sqrt(s^2 + d^2)) / 2 with d = l - mean."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    d = lower - mean
    return 0.5 * (d + math.sqrt(variance + d * d))


def scarf_tardiness(upper: float, mean: float, variance: float) -> float:
    """Worst-case E[(tau - u)+], mirror image of the earliness bound."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    d = mean - upper
    return 0.5 * (d + math.sqrt(variance + d * d))


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
    if a_w <= 0 or a_l <= 0 or a_u <= 0:
        raise ValueError("penalty weights must be positive")
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
    cost = (
        a_w * upper
        + a_l * scarf_earliness(0.0, mean, variance)
        + a_u * scarf_tardiness(upper, mean, variance)
    )
    return 0.0, upper, cost, True


def dro_window(mean: float, variance: float, a_w: float, a_l: float, a_u: float):
    """Closed-form moment-robust window for one customer.

    Returns (lower, upper, cost, clamped).  The unconstrained optimum is
    mean -/+ sigma * wing(beta_side) at cost (gamma_l + gamma_u) * sigma;
    a negative lower edge is clamped to zero and flagged, with the cost
    evaluated at the clamped window.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    return _dro_window(mean, variance, *_dro_terms(a_w, a_l, a_u))


class DroPricer:
    """Moment-robust pricing: the state is (m, C y, y' C y) of the path
    under C = cov + alpha2 I, and a customer costs its ``dro_window``."""

    def __init__(self, mean, cov, alpha2: float, pen: PenaltyConfig):
        if not 0 <= alpha2 < math.inf:
            raise ValueError("alpha2 must be finite and nonnegative")
        self.linear = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        self.cbar = cov + alpha2 * np.eye(cov.shape[0])
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
    Requires 2 a_w < min(a_l, a_u) (``PenaltyConfig.dro_valid``, the
    rule ``DroModel`` checks before a search).
    """
    if not pen.dro_valid:
        raise ValueError("coefficient domain: moment-robust design needs 2*a_w < min(a_l, a_u)")
    pricer = DroPricer(mean, cov, alpha2, pen)
    lowers, uppers, costs, flags = [], [], [], []
    for k, (m, _, quad) in _prefix_states(pricer, route):
        lo, up, cost, clamped = _dro_window(m, max(quad, 0.0), *pricer.terms[k])
        lowers.append(lo)
        uppers.append(up)
        costs.append(cost)
        flags.append(clamped)
    return WindowPlan(
        kind="dro",
        route_seq=route.seq,
        customers=route.customers,
        lower=np.array(lowers),
        upper=np.array(uppers),
        cost_per_customer=np.array(costs),
        total_cost=_visit_sum(costs),
        clamped=np.array(flags, dtype=bool),
    )
