"""Slow reference implementations that the tests compare the library against."""

from typing import Mapping

import numpy as np

from twdesign import Route, SampleSet


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
