"""Slow reference implementations that the tests compare the library
against, and the small network that several test files share."""

from typing import Mapping

import numpy as np

from twdesign import Network, PenaltyConfig, Route, SampleSet, WindowPlan
from twdesign.window_design import _window_cost, _window_plan, arrival_matrix


def simulate_waiting_unrolled(route: Route, lowers: Mapping[int, float], samples: SampleSet) -> np.ndarray:
    """Reference for the waiting recursion, written as the explicit max.

    The start time at stop p is the best over all release points r <= p
    of (release time at r) plus the travel on arcs r..p, accumulated
    left to right.  Interchanging max with the monotone additions keeps
    this bit-identical to the recursion; any mismatch is a bug.
    """
    for k in route.customers:
        if k not in lowers:
            raise ValueError(f"lower bound missing for customer {k}")
    t = samples.values
    q = samples.q
    n = len(route.customers)
    arcs = route.path_arcs
    out = np.empty((q, n))
    for s in range(q):
        for pos in range(n):
            acc = 0.0
            for tpos in range(pos + 1):
                acc = acc + t[s, arcs[tpos]]
            best = acc
            for r in range(pos + 1):
                accr = float(lowers[route.customers[r]])
                for tpos in range(r + 1, pos + 1):
                    accr = accr + t[s, arcs[tpos]]
                if accr > best:
                    best = accr
            out[s, pos] = best
    return out


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


def _candidate_widths(cols):
    """The fixed-width search's candidate widths, sorted: zero, then one
    difference u[a] - u[b], a > b, per pair of each column's distinct
    values u.  A difference that two pairs give is listed twice.  Filled
    row by row into one buffer, so that large q needs no q x q matrix."""
    distinct = [np.unique(col) for col in cols]
    widths = np.zeros(1 + sum(len(u) * (len(u) - 1) // 2 for u in distinct))
    end = 1
    for u in distinct:
        for a in range(1, len(u)):
            widths[end:end + a] = u[a] - u[:a]
            end += a
    widths.sort()
    return widths


def _unique_differences(cols):
    """The width grid as ``np.unique`` builds it: zero and every
    nonnegative pairwise difference within each column, each value once.
    Taken from the sorted ``_candidate_widths``, so that large q needs no
    q x q matrix."""
    widths = _candidate_widths(cols)
    return widths[np.concatenate(([True], widths[1:] != widths[:-1]))]


def design_fixed_width_unrolled(route: Route, samples: SampleSet, pen: PenaltyConfig) -> WindowPlan:
    """Reference for ``design_fixed_width``: a plain ternary search over
    the materialised ``_unique_differences``, pricing each customer at a
    width with its own ``_inner_fixed_cost`` scan and summing in visit
    order."""
    a_w = float(pen.a_w[0])
    arr = arrival_matrix(route, samples.values)
    q = samples.q
    n = len(route.customers)
    per_cust = []
    for pos in range(n):
        srt = np.sort(arr[:, pos])
        per_cust.append((srt, np.concatenate(([0.0], np.cumsum(srt)))))
    widths = _unique_differences([srt for srt, _ in per_cust])

    def inner(pos, w):
        _, a_l, a_u = pen.for_customer(route.customers[pos])
        return _inner_fixed_cost(*per_cust[pos], a_l, a_u, q, w)

    cache = {}

    def total_at(idx):
        if idx not in cache:
            w = float(widths[idx])
            total = n * a_w * w
            for pos in range(n):
                total += inner(pos, w)[0]
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
    w = float(widths[min(range(lo, hi + 1), key=lambda i: (total_at(i), widths[i]))])

    windows = []
    for pos, k in enumerate(route.customers):
        l_best = inner(pos, w)[1]
        window = (l_best, l_best + w)
        windows.append((*window, _window_cost(arr[:, pos], *window, *pen.for_customer(k))))
    return _window_plan("saa-fixed", route, windows, arr, shared_width=w)


def three_net():
    """Complete network on depot + 3 customers with distinct means."""
    arcs = tuple((i, j) for i in range(4) for j in range(4) if i != j)
    mean = np.arange(1.0, len(arcs) + 1)
    cov = np.zeros((len(arcs), len(arcs)))
    return Network(4, arcs, mean, cov, 1000.0)
