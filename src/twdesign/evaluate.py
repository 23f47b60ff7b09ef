"""Out-of-sample evaluation, waiting simulation, and parameter sweeps.

Evaluation replays a designed plan against fresh scenario draws and
counts arrivals strictly outside the windows (an arrival exactly on a
window edge is served on time).  The waiting simulation models a driver
who is not allowed to serve before a window opens: departure from each
stop is the later of the arrival and that stop's lower edge.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .instance import Network, Route, SampleSet, _check_sizes, _is_finite_real, _open_for_write, sample_travel_times, substream
from .solver import branch_and_bound, build_model
from .window_design import WindowPlan, _outside, arrival_matrix, penalties_from_beta

REPORT_COLUMNS = [
    "model",
    "beta_l",
    "beta_u",
    "seed",
    "customer",
    "lower",
    "upper",
    "width",
    "early_rate",
    "late_rate",
    "early_amt",
    "late_amt",
    "objective",
    "budget_used",
]


@dataclass(eq=False)
class EvalReport:
    """Violation statistics of one plan on one test sample set.

    Counts are raw so per-customer rates are exactly count / q_test; the
    amount fields hold the mean earliness (lateness) over the violating
    scenarios of each customer, zero when there are none.
    """

    customers: tuple[int, ...]
    lower: np.ndarray
    upper: np.ndarray
    early_count: np.ndarray
    late_count: np.ndarray
    early_amount_mean: np.ndarray
    late_amount_mean: np.ndarray
    window_length: np.ndarray
    q_test: int
    seed: int | None
    early_rate: float
    late_rate: float
    mean_length: float
    total_violation_amount: float


def evaluate_plan(route: Route, plan: WindowPlan, test_samples: SampleSet) -> EvalReport:
    """Score a window plan on scenarios it was not designed against."""
    if plan.route_seq != route.seq:
        raise ValueError(f"plan was made for route {list(plan.route_seq)}, not {list(route.seq)}")
    _check_sizes(len(route.x), len(route.customers), samples=test_samples)
    n = len(route.customers)
    # the plan holds a window for each customer of its route (``WindowPlan``)
    at = [plan.customers.index(k) for k in route.customers]
    lower, upper = plan.lower[at], plan.upper[at]
    arr = arrival_matrix(route, test_samples.values)
    q = test_samples.q
    early_mask, late_mask = _outside(arr, lower, upper)
    early_count = early_mask.sum(axis=0)
    late_count = late_mask.sum(axis=0)
    early_gap = np.where(early_mask, lower - arr, 0.0)
    late_gap = np.where(late_mask, arr - upper, 0.0)
    early_amount = np.where(early_count > 0, early_gap.sum(axis=0) / np.maximum(early_count, 1), 0.0)
    late_amount = np.where(late_count > 0, late_gap.sum(axis=0) / np.maximum(late_count, 1), 0.0)
    return EvalReport(
        customers=route.customers,
        lower=lower,
        upper=upper,
        early_count=early_count.astype(int),
        late_count=late_count.astype(int),
        early_amount_mean=early_amount,
        late_amount_mean=late_amount,
        window_length=upper - lower,
        q_test=q,
        seed=test_samples.seed,
        early_rate=float(early_count.sum() / (n * q)),
        late_rate=float(late_count.sum() / (n * q)),
        mean_length=float(np.mean(upper - lower)),
        total_violation_amount=float(early_gap.sum() + late_gap.sum()),
    )


def simulate_waiting(route: Route, lowers: Mapping[int, float], samples: SampleSet) -> np.ndarray:
    """Service start times under a wait-if-early policy.

    Returns a (q, n) matrix of start times in visit order, computed by
    the forward recursion T_k = max(T_prev + travel, lower_k) with the
    depot released at time zero.  Each customer's lower is a finite number
    (``_is_finite_real``).
    """
    _check_sizes(len(route.x), len(route.customers), samples=samples)
    for k in route.customers:
        if k not in lowers:
            raise ValueError(f"lower bound missing for customer {k}")
        if not _is_finite_real(lowers[k]):
            raise ValueError(f"lower bound for customer {k} must be finite, got {lowers[k]!r}")
    t = samples.values
    q = samples.q
    out = np.empty((q, len(route.customers)))
    cur = np.zeros(q)
    for pos, k in enumerate(route.customers):
        cur = np.maximum(cur + t[:, route.path_arcs[pos]], lowers[k])
        out[:, pos] = cur
    return out


def guideline_sweep(
    net: Network,
    beta_grid,
    models,
    seeds,
    q_train: int = 1000,
    q_test: int = 1000,
    alpha1: float = 0.0,
    alpha2: float = 0.0,
) -> list[dict]:
    """Grid evaluation used to pick service-level targets.

    For each (model, beta pair, seed) cell: solve for the route and
    windows, and score them on test scenarios.  Each seed splits into
    named substreams for the training and test draws, and each input is
    computed once: a seed's draws serve every pair (its test draws every
    model), and seeds with equal models (all ``rm`` seeds) share a solve.
    Rows come back sorted by (model, beta_l, beta_u, seed).
    """
    rows = []
    tests = {seed: sample_travel_times(net, q_test, substream(seed, "sampling-test")) for seed in seeds}
    for model_name in models:
        built = {seed: build_model(model_name, net, seed, q_train, alpha1, alpha2) for seed in tests}
        groups = {model: [seed for seed in seeds if built[seed] == model] for model in built.values()}
        for beta_l, beta_u in beta_grid:
            pen = penalties_from_beta(beta_l, beta_u, net.n_customers)
            for model, group in groups.items():
                res = branch_and_bound(net, model, pen)
                for seed in group:
                    rep = evaluate_plan(res.route, res.plan, tests[seed])
                    keys = {"model": model_name, "beta_l": beta_l, "beta_u": beta_u, "seed": seed}
                    rows.append(_aggregate_row(rep, keys, res.objective, res.budget_value))
    rows.sort(key=lambda r: (r["model"], r["beta_l"], r["beta_u"], r["seed"]))
    return rows


def _aggregate_row(report: EvalReport, keys: dict, objective, budget_used) -> dict:
    """A report's aggregate row, shared by ``report_rows`` and the sweep;
    it names no customer."""
    return {
        **keys,
        "width": float(report.mean_length),
        "early_rate": report.early_rate,
        "late_rate": report.late_rate,
        "objective": objective,
        "budget_used": budget_used,
    }


def report_rows(
    report: EvalReport,
    model: str = "",
    beta_l="",
    beta_u="",
    seed="",
    objective="",
) -> list[dict]:
    """Flatten an evaluation into report-CSV rows, one per customer plus
    the aggregate row.  A row names only the cells it fills;
    ``write_report_csv`` leaves the others blank, and the aggregate row's
    ``budget_used``, which only the sweep knows, is blank too."""
    keys = {"model": model, "beta_l": beta_l, "beta_u": beta_u, "seed": seed}
    q = report.q_test
    rows = [
        {
            **keys,
            "customer": int(k),
            "lower": float(report.lower[pos]),
            "upper": float(report.upper[pos]),
            "width": float(report.window_length[pos]),
            "early_rate": report.early_count[pos] / q,
            "late_rate": report.late_count[pos] / q,
            "early_amt": float(report.early_amount_mean[pos]),
            "late_amt": float(report.late_amount_mean[pos]),
        }
        for pos, k in enumerate(report.customers)
    ]
    return rows + [_aggregate_row(report, keys, objective, "")]


def write_report_csv(rows, path) -> None:
    """Write rows in the fixed report column order; a cell a row does not
    name is left blank."""
    with _open_for_write(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS, restval="", extrasaction="raise")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
