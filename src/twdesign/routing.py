"""Route encoding, structural checks, route-level costs and route files.

A route is a single-vehicle tour: depot, every customer exactly once,
depot.  Besides the visit sequence we keep the arc incidence vector x
and, per customer k, the indicator y^k of the arcs on the path from the
depot to k.  Arrival times are then linear in the scenario travel times,
tau^k = y^k . t, which is what both window designs consume.  A tour's
duration budget is its model's ``budget`` (``solver``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .instance import Network, SampleSet, _check_sizes, _is_json_int, _open_for_write, _read_json, _write_json
from .window_design import DroPricer, PenaltyConfig, SaaPricer


@dataclass(eq=False)
class Route:
    """A tour with its incidence encodings against a fixed network."""

    seq: tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    path_arcs: tuple[int, ...] = field(repr=False)

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
    route = Route(seq=seq, x=x, y=y, path_arcs=tuple(arc_ids[:-1]))
    route.x.setflags(write=False)
    route.y.setflags(write=False)
    return route


def route_cost_sm(route: Route, samples: SampleSet, pen: PenaltyConfig) -> float:
    """Total optimal window cost of a route under the sample-average model:
    the ``total_cost`` of ``SaaPricer``'s plan."""
    _check_sizes(len(route.x), len(route.customers), samples=samples, pen=pen)
    return SaaPricer(samples, pen).plan(route).total_cost


def route_cost_rm(route: Route, mean, cov, alpha2: float, pen: PenaltyConfig) -> float:
    """Total optimal window cost of a route under the moment-robust model:
    the ``total_cost`` of ``DroPricer``'s plan.

    Each customer contributes the cost of its ``dro_window``: (gamma_l +
    gamma_u) times the standard deviation of its arrival time under
    cov + alpha2 I, unless the window's lower edge is clamped at zero.
    """
    _check_sizes(len(route.x), len(route.customers), mean=mean, pen=pen)
    return DroPricer(mean, cov, alpha2, pen).plan(route).total_cost


def save_route(seq, path) -> None:
    _write_json({"seq": [int(v) for v in seq]}, path)


def load_route(path) -> tuple[int, ...]:
    doc = _read_json(path, "route")
    if "seq" not in doc:
        raise ValueError("route file: expected an object with a 'seq' list")
    seq = doc["seq"]
    if not isinstance(seq, list) or not all(_is_json_int(v) for v in seq):
        raise ValueError("route file: 'seq' must be a list of integers")
    return tuple(seq)


def write_cost_csv(plan, path) -> None:
    """Per-customer cost report: customer, lower, upper, width, cost_component."""
    with _open_for_write(path) as fh:
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
