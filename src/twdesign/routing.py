"""Route encoding, structural checks, budgets, and route-level costs.

A route is a single-vehicle tour: depot, every customer exactly once,
depot.  Besides the visit sequence we keep the arc incidence vector x
and, per customer k, the indicator y^k of the arcs on the path from the
depot to k.  Arrival times are then linear in the scenario travel times,
tau^k = y^k . t, which is what both window designs consume.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .instance import Network, SampleSet, _is_json_int
from .window_design import DroPricer, PenaltyConfig, SaaPricer, price_route


@dataclass(eq=False)
class Route:
    """A tour with its incidence encodings against a fixed network."""

    seq: tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    path_arcs: tuple[int, ...] = field(repr=False)
    return_arc: int = field(repr=False)

    @property
    def customers(self) -> tuple[int, ...]:
        return self.seq[1:-1]


def route_to_xy(seq, net: Network) -> Route:
    """Validate a visit sequence and build its (x, y) encoding."""
    seq = tuple(int(v) for v in seq)
    if len(seq) < 3 or seq[1:-1] == ():
        raise ValueError("no customers on route")
    if seq[0] != 0 or seq[-1] != 0:
        raise ValueError("route must start and end at the depot (node 0)")
    interior = seq[1:-1]
    if 0 in interior:
        raise ValueError("depot cannot appear mid-route")
    seen = set()
    for k in interior:
        if not 1 <= k <= net.n_customers:
            raise ValueError(f"unknown customer {k}")
        if k in seen:
            raise ValueError(f"repeated customer {k}")
        seen.add(k)
    if len(seen) != net.n_customers:
        missing = sorted(set(net.customers) - seen)
        raise ValueError(f"route must visit every customer exactly once; missing {missing}")
    arc_ids = []
    for t in range(len(seq) - 1):
        arc = (seq[t], seq[t + 1])
        if arc not in net.arc_index:
            raise ValueError(f"arc ({arc[0]}, {arc[1]}) not in network")
        arc_ids.append(net.arc_index[arc])
    x = np.zeros(net.n_arcs, dtype=np.int8)
    x[arc_ids] = 1
    y = np.zeros((net.n_customers, net.n_arcs), dtype=np.int8)
    prefix: list[int] = []
    for pos, k in enumerate(interior):
        prefix.append(arc_ids[pos])
        y[k - 1, prefix] = 1
    route = Route(
        seq=seq,
        x=x,
        y=y,
        path_arcs=tuple(arc_ids[:-1]),
        return_arc=arc_ids[-1],
    )
    route.x.setflags(write=False)
    route.y.setflags(write=False)
    return route


def seq_from_x(x, net: Network) -> tuple[int, ...]:
    """Recover the visit sequence from an arc incidence vector."""
    x = np.asarray(x)
    succ: dict[int, int] = {}
    for a, v in enumerate(x):
        if v:
            i, j = net.arcs[a]
            if i in succ:
                raise ValueError(f"x has two outgoing arcs at node {i}")
            succ[i] = j
    seq = [0]
    node = 0
    for _ in range(net.node_count):
        if node not in succ:
            raise ValueError(f"x has no outgoing arc at node {node}")
        node = succ[node]
        seq.append(node)
        if node == 0:
            break
    if seq[-1] != 0 or len(seq) != net.node_count + 1:
        raise ValueError("x does not encode a single tour through all customers")
    return tuple(seq)


def validate_membership(x, y, net: Network) -> list[str]:
    """Structural diagnostics for an (x, y) pair; empty list means valid.

    Checks the tour encoding constraint by constraint: unit out-degree
    (a) and in-degree (b) at every node, per-customer path flow
    conservation (c) with +1 at the depot and -1 at the customer, and
    the coupling y <= x (d).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    msgs: list[str] = []
    if x.shape != (net.n_arcs,):
        return [f"x: expected shape ({net.n_arcs},), got {x.shape}"]
    if y.shape != (net.n_customers, net.n_arcs):
        return [f"y: expected shape ({net.n_customers}, {net.n_arcs}), got {y.shape}"]
    if not np.isin(x, (0, 1)).all() or not np.isin(y, (0, 1)).all():
        msgs.append("x and y must be binary")
    for i in range(net.node_count):
        out_sum = int(sum(x[a] for _, a in net.out_arcs[i]))
        in_sum = int(sum(x[a] for _, a in net.in_arcs[i]))
        if out_sum != 1:
            msgs.append(f"degree (a) violated at node {i}: out-degree {out_sum}")
        if in_sum != 1:
            msgs.append(f"degree (b) violated at node {i}: in-degree {in_sum}")
    for k in net.customers:
        yk = y[k - 1]
        for i in range(net.node_count):
            outflow = int(sum(yk[a] for _, a in net.out_arcs[i]))
            inflow = int(sum(yk[a] for _, a in net.in_arcs[i]))
            rhs = 1 if i == 0 else (-1 if i == k else 0)
            if outflow - inflow != rhs:
                msgs.append(f"flow (c) violated for customer {k} at node {i}")
        over = np.nonzero(yk > x)[0]
        for a in over:
            i, j = net.arcs[a]
            msgs.append(f"coupling (d) violated for customer {k} at arc ({i}, {j})")
    return msgs


def arrival_matrix(route: Route, values: np.ndarray) -> np.ndarray:
    """Scenario arrival times at the route's customers, in visit order.

    Column p holds the partial sums of the first p+1 arc travel times,
    i.e. the arrival of each scenario at the (p+1)-th visited customer.
    """
    values = np.asarray(values, dtype=float)
    cols = values[:, list(route.path_arcs)]
    return np.cumsum(cols, axis=1)


def budget_saa(x, samples: SampleSet) -> float:
    """Average tour duration over the scenarios."""
    x = np.asarray(x, dtype=float)
    return float(np.mean(samples.values @ x))


def budget_dro(x, mean, cov, alpha1: float) -> float:
    """Mean tour duration plus an alpha1-weighted dispersion term."""
    if not 0 <= alpha1 < np.inf:
        raise ValueError("alpha1 must be finite and nonnegative")
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    quad = float(x @ cov @ x)
    return float(mean @ x) + float(np.sqrt(alpha1 * max(quad, 0.0)))


def route_cost_sm(route: Route, samples: SampleSet, pen: PenaltyConfig) -> float:
    """Total optimal window cost of a route under the sample-average model."""
    return price_route(SaaPricer(samples, pen), route)


def route_cost_rm(route: Route, mean, cov, alpha2: float, pen: PenaltyConfig) -> float:
    """Total optimal window cost of a route under the moment-robust model.

    Each customer contributes the cost of its ``dro_window``: (gamma_l +
    gamma_u) times the standard deviation of its arrival time under
    cov + alpha2 I, unless the window's lower edge is clamped at zero.
    """
    return price_route(DroPricer(mean, cov, alpha2, pen), route)


def save_route(seq, path) -> None:
    with open(path, "w") as fh:
        json.dump({"seq": [int(v) for v in seq]}, fh, indent=2)
        fh.write("\n")


def load_route(path) -> tuple[int, ...]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "seq" not in doc:
        raise ValueError("route file: expected an object with a 'seq' list")
    seq = doc["seq"]
    if not isinstance(seq, list) or not all(_is_json_int(v) for v in seq):
        raise ValueError("route file: 'seq' must be a list of integers")
    return tuple(seq)


def write_cost_csv(plan, path) -> None:
    """Per-customer cost report: customer, lower, upper, width, cost_component."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["customer", "lower", "upper", "width", "cost_component"])
        for pos, k in enumerate(plan.customers):
            writer.writerow(
                [
                    int(k),
                    repr(float(plan.lower[pos])),
                    repr(float(plan.upper[pos])),
                    repr(float(plan.upper[pos] - plan.lower[pos])),
                    repr(float(plan.cost_per_customer[pos])),
                ]
            )
