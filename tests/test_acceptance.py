"""Acceptance gate: nine numbered criteria, one test (and one pass/fail
line) each.  Tolerances and runtime caps are asserted inside the tests;
run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
verdict lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from reference import simulate_waiting_unrolled
from twdesign import (
    CovGenParams,
    DroModel,
    PenaltyConfig,
    SaaModel,
    benders_cut,
    branch_and_bound,
    brute_force_windows,
    covariance_parts,
    critical_indices,
    design_dro,
    design_fixed_width,
    design_stochastic,
    dro_window,
    enumerate_exact,
    evaluate_plan,
    gamma_coeffs,
    generate_covariance,
    oa_cut,
    penalties_from_beta,
    random_network,
    route_to_xy,
    saa_window,
    sample_travel_times,
    scarf_earliness,
    scarf_tardiness,
    simulate_waiting,
    substream,
)


def random_tuples(count=200, master_seed=12345):
    """The shared tuple generator for criteria 1 and 2: random route,
    Q <= 50 scenarios, and valid random penalties per customer."""
    rng = np.random.default_rng(master_seed)
    for trial in range(count):
        n = int(rng.integers(1, 9))  # route length <= 8
        q = int(rng.integers(1, 51))
        net = random_network(n, seed=trial, complete=True)
        seq = [0] + [int(v) for v in rng.permutation(np.arange(1, n + 1))] + [0]
        route = route_to_xy(seq, net)
        samples = sample_travel_times(net, q, seed=trial + 999)
        a_l = rng.uniform(0.2, 1.0, n)
        a_u = rng.uniform(0.2, 1.0, n)
        frac = rng.uniform(0.05, 1.0, n)
        a_w = frac * (a_l * a_u) / (a_l + a_u)  # keeps a_w/a_l + a_w/a_u <= 1
        pen = PenaltyConfig(a_w, a_l, a_u)
        yield trial, route, samples, pen


def test_criterion_1_closed_form_vs_brute_force():
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for trial, route, samples, pen in random_tuples():
        plan, _ = design_stochastic(route, samples, pen)
        ref = brute_force_windows(route, samples, pen)
        gap = abs(plan.total_cost - ref.total_cost)
        worst = max(worst, gap)
        assert gap <= 1e-9, (trial, gap)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"PASS criterion 1: 200 tuples, worst cost gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_in_sample_rates_exact_rational():
    checked = 0
    for trial, route, samples, pen in random_tuples():
        q = samples.q
        for k in route.customers:
            a_w, a_l, a_u = pen.for_customer(k)
            p1, p2 = critical_indices(q, a_w, a_l, a_u)
            # exact rational comparisons, strict on both sides
            assert Fraction(p1 - 1, q) < Fraction(a_w) / Fraction(a_l), (trial, k)
            assert Fraction(q - p2, q) < Fraction(a_w) / Fraction(a_u), (trial, k)
            checked += 1
    assert checked > 200
    print(f"PASS criterion 2: {checked} strict rational rate bounds hold")


def test_criterion_3_duality_and_cut_validity():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    net = random_network(5, seed=77, complete=True)
    m = net.n_arcs
    q = 64
    samples = sample_travel_times(net, q, seed=78)
    pen = penalties_from_beta(0.1, 0.08, 5)
    cbar = net.cov + 0.25 * np.eye(m)
    n_points = 10_000
    worst_benders = np.inf
    worst_oa = np.inf
    for anchor_idx in range(100):
        k = anchor_idx % 5 + 1
        a_w, a_l, a_u = pen.for_customer(k)
        if anchor_idx % 2 == 0:
            y_hat = rng.uniform(0.0, 1.0, m)
        else:  # binary anchors too
            y_hat = (rng.uniform(0.0, 1.0, m) < 0.4).astype(float)
            if not y_hat.any():
                y_hat[int(rng.integers(0, m))] = 1.0
        cut = benders_cut(y_hat, samples, pen, customer=k)
        # dual feasibility and strong duality at the anchor
        win = saa_window(samples.values @ y_hat, a_w, a_l, a_u)
        assert math.fsum(win.rho1) == pytest.approx(a_w, abs=1e-12)
        assert math.fsum(win.rho2) == pytest.approx(a_w, abs=1e-12)
        dual_obj = float((samples.values @ y_hat) @ (win.rho2 - win.rho1))
        assert dual_obj == pytest.approx(win.cost, abs=1e-9)
        assert cut.intercept == pytest.approx(win.cost, abs=1e-12)

        # vectorized validity at 10^4 random test points
        pts = rng.uniform(0.0, 1.0, (n_points, m))
        arr = pts @ samples.values.T  # (points, q) arrival costs
        srt = np.sort(arr, axis=1)
        p1, p2 = win.p1, win.p2
        lo = srt[:, p1 - 1]
        up = srt[:, p2 - 1]
        early = lo * (p1 - 1) - srt[:, : p1 - 1].sum(axis=1)
        late = srt[:, p2:].sum(axis=1) - up * (q - p2)
        costs = a_w * (up - lo) + (a_l / q) * early + (a_u / q) * late
        rhs = cut.intercept + (pts - y_hat) @ cut.coeffs
        slack_b = float(np.min(costs - rhs))
        worst_benders = min(worst_benders, slack_b)
        assert slack_b >= -1e-9, (anchor_idx, slack_b)

        ocut = oa_cut(y_hat, cbar, customer=k)
        phi = np.sqrt(np.einsum("pa,ab,pb->p", pts, cbar, pts))
        rhs_o = ocut.intercept + (pts - ocut.anchor) @ ocut.coeffs
        slack_o = float(np.min(phi - rhs_o))
        worst_oa = min(worst_oa, slack_o)
        assert slack_o >= -1e-9, (anchor_idx, slack_o)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    print(
        "PASS criterion 3: 100 anchors x 10^4 points, worst slack "
        f"benders {worst_benders:.2e}, oa {worst_oa:.2e}, {elapsed:.1f}s"
    )


def test_criterion_4_dro_closed_form():
    from scipy.optimize import minimize

    rng = np.random.default_rng(4)
    cases = [(100.0, 100.0, 0.05, 1.0, 1.0)]
    for _ in range(20):
        a_l = float(rng.uniform(0.3, 1.0))
        a_u = float(rng.uniform(0.3, 1.0))
        # keep the optimal lower edge away from the clamp at zero
        a_w = float(rng.uniform(0.15, 0.45)) * min(a_l, a_u)
        cases.append(
            (float(rng.uniform(50, 150)), float(rng.uniform(4, 100)), a_w, a_l, a_u)
        )
    for m, var, a_w, a_l, a_u in cases:
        sigma = math.sqrt(var)

        def h(edges):
            lo, up = edges
            return (
                a_w * (up - lo)
                + a_l * scarf_earliness(lo, m, var)
                + a_u * scarf_tardiness(up, m, var)
            )

        lo, up, cost, clamped = dro_window(m, var, a_w, a_l, a_u)
        assert not clamped
        # finite-difference stationarity at the returned window
        step = 1e-4 * sigma
        g_lo = (h((lo + step, up)) - h((lo - step, up))) / (2 * step)
        g_up = (h((lo, up + step)) - h((lo, up - step))) / (2 * step)
        assert abs(g_lo) < 1e-5, (m, var, a_w, a_l, a_u)
        assert abs(g_up) < 1e-5
        # cost identity against the per-sigma coefficients
        gl, gu = gamma_coeffs(a_w, a_l, a_u)
        assert cost == pytest.approx((gl + gu) * sigma, abs=1e-9)

    # worked case against an independent 2-D minimization
    m, var = 100.0, 100.0
    a_w, a_l, a_u = 0.05, 1.0, 1.0

    def h0(edges):
        lo, up = edges
        return (
            a_w * (up - lo)
            + a_l * scarf_earliness(lo, m, var)
            + a_u * scarf_tardiness(up, m, var)
        )

    res = minimize(h0, x0=np.array([90.0, 110.0]), method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 10_000})
    lo, up, cost, _ = dro_window(m, var, a_w, a_l, a_u)
    assert lo == pytest.approx(res.x[0], abs=1e-3)
    assert up == pytest.approx(res.x[1], abs=1e-3)
    assert cost == pytest.approx(res.fun, abs=1e-3)
    assert lo == pytest.approx(79.353, abs=1e-3)
    assert up == pytest.approx(120.647, abs=1e-3)
    assert cost == pytest.approx(4.3589, abs=1e-3)
    print(
        f"PASS criterion 4: stationarity and cost identity on {len(cases)} cases; "
        f"worked case ({lo:.3f}, {up:.3f}, {cost:.4f}) matches Nelder-Mead"
    )


def test_criterion_5_solver_exactness():
    start = time.perf_counter()
    worst = 0.0
    solves = 0
    for seed in range(20):
        for n in (5, 6, 7, 8):
            net = random_network(n, seed=seed)
            pen = penalties_from_beta(0.05, 0.05, n)
            train = sample_travel_times(net, 200, substream(seed, "sampling-train"))
            for model in (SaaModel(train), DroModel(0.0, 0.0)):
                a = enumerate_exact(net, model, pen)
                b = branch_and_bound(net, model, pen)
                gap = abs(a.objective - b.objective)
                worst = max(worst, gap)
                assert gap <= 1e-9, (seed, n, type(model).__name__, gap)
                solves += 1
    elapsed = time.perf_counter() - start
    assert solves == 20 * 4 * 2
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s"
    print(f"PASS criterion 5: 160 paired solves, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_desk_scale_reproduction():
    start = time.perf_counter()
    n, q = 10, 1000
    seeds = range(20)
    betas = (0.05, 0.025)
    rm_early = {b: [] for b in betas}
    rm_late = {b: [] for b in betas}
    mean_len = {("sm", b): [] for b in betas} | {("rm", b): [] for b in betas}
    violations = {("sm", b): 0 for b in betas} | {("rm", b): 0 for b in betas}
    fixed_widths = {b: [] for b in betas}
    var_widths = {b: [] for b in betas}
    for seed in seeds:
        net = random_network(n, seed=seed)
        assert net.n_arcs == 3 * n
        train = sample_travel_times(net, q, substream(seed, "sampling-train"))
        test = sample_travel_times(net, q, substream(seed, "sampling-test"))
        for beta in betas:
            pen = penalties_from_beta(beta, beta, n)
            res_sm = branch_and_bound(net, SaaModel(train), pen)
            rep_sm = evaluate_plan(res_sm.route, res_sm.plan, test)
            res_rm = branch_and_bound(net, DroModel(0.0, 0.0), pen)
            rep_rm = evaluate_plan(res_rm.route, res_rm.plan, test)
            rm_early[beta].append(rep_rm.early_rate)
            rm_late[beta].append(rep_rm.late_rate)
            mean_len[("sm", beta)].append(rep_sm.mean_length)
            mean_len[("rm", beta)].append(rep_rm.mean_length)
            violations[("sm", beta)] += int(rep_sm.early_count.sum() + rep_sm.late_count.sum())
            violations[("rm", beta)] += int(rep_rm.early_count.sum() + rep_rm.late_count.sum())
            # (d) shared width on the same route and training scenarios
            fixed = design_fixed_width(res_sm.route, train, pen)
            assert fixed.total_cost >= res_sm.plan.total_cost - 1e-9, (seed, beta)
            fixed_widths[beta].append(fixed.shared_width)
            var_widths[beta].append(float(res_sm.plan.width.mean()))

    # (a) robust model keeps out-of-sample rates near target on average
    for beta in betas:
        assert np.mean(rm_early[beta]) <= beta + 0.01, (beta, np.mean(rm_early[beta]))
        assert np.mean(rm_late[beta]) <= beta + 0.01, (beta, np.mean(rm_late[beta]))
    # (b) robust windows are at least as long as sample-average windows
    for beta in betas:
        assert np.mean(mean_len[("rm", beta)]) >= np.mean(mean_len[("sm", beta)])
    # (c) tightening the target trades length for fewer violations
    for model in ("sm", "rm"):
        assert violations[(model, 0.025)] < violations[(model, 0.05)], model
        assert np.mean(mean_len[(model, 0.025)]) > np.mean(mean_len[(model, 0.05)]), model
    # (d) shared-width plans are wider on average
    for beta in betas:
        assert np.mean(fixed_widths[beta]) >= np.mean(var_widths[beta]), beta
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"criterion 6 took {elapsed:.1f}s"
    print(
        "PASS criterion 6: rm rates "
        f"{np.mean(rm_early[0.05]):.3f}/{np.mean(rm_late[0.05]):.3f} at 0.05, "
        f"violations sm {violations[('sm', 0.05)]}->{violations[('sm', 0.025)]}, "
        f"rm {violations[('rm', 0.05)]}->{violations[('rm', 0.025)]}, {elapsed:.0f}s"
    )


def test_criterion_7_waiting_recursion_bit_exact():
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(1, 7))
        net = random_network(n, seed=trial % 40, complete=True)
        seq = [0] + [int(v) for v in rng.permutation(np.arange(1, n + 1))] + [0]
        route = route_to_xy(seq, net)
        q = int(rng.integers(1, 9))
        samples = sample_travel_times(net, q, seed=trial)
        lowers = {k: float(rng.uniform(0.0, 60.0)) for k in route.customers}
        a = simulate_waiting(route, lowers, samples)
        b = simulate_waiting_unrolled(route, lowers, samples)
        assert np.array_equal(a, b), trial  # bitwise, no tolerance
        checked += 1
    assert checked == 1000
    print("PASS criterion 7: recursion equals unrolled max bit-exactly on 1000 pairs")


def test_criterion_8_covariance_generator():
    for seed in range(50):
        n = 3 + seed % 6
        net = random_network(n, seed=seed)
        params = CovGenParams(seed=seed)
        corr, sigma = covariance_parts(net, params)
        cov = generate_covariance(net, params)
        m = net.n_arcs
        assert float(np.max(np.abs(cov - cov.T))) <= 1e-12
        np.linalg.cholesky(cov + 1e-8 * np.eye(m))  # PSD with jitter
        np.testing.assert_allclose(np.diag(cov), sigma**2, atol=1e-12)
        assert float(np.max(np.abs(corr))) <= 1.0 + 1e-9
        no_flip, _ = covariance_parts(net, CovGenParams(neg_flip_prob=0.0, seed=seed))
        assert float(np.min(no_flip)) >= 0.0
    print("PASS criterion 8: 50 seeded networks satisfy all covariance invariants")


def test_criterion_9_scaling_invariance():
    net = random_network(5, seed=99, complete=True)
    route = route_to_xy([0, 3, 1, 5, 2, 4, 0], net)
    samples = sample_travel_times(net, 500, seed=100)
    pen = PenaltyConfig(0.04 * np.ones(5), 0.5 * np.ones(5), 0.5 * np.ones(5))
    base_saa, _ = design_stochastic(route, samples, pen)
    base_dro = design_dro(route, net.mean, net.cov, 0.0, pen)
    for lam in (0.1, 0.5, 2.0):  # lam = 2 keeps a_l = a_u = 1 in range
        sc = pen.scaled(lam)
        p_saa, _ = design_stochastic(route, samples, sc)
        p_dro = design_dro(route, net.mean, net.cov, 0.0, sc)
        np.testing.assert_allclose(p_saa.lower, base_saa.lower, rtol=1e-9)
        np.testing.assert_allclose(p_saa.upper, base_saa.upper, rtol=1e-9)
        np.testing.assert_allclose(p_dro.lower, base_dro.lower, rtol=1e-9)
        np.testing.assert_allclose(p_dro.upper, base_dro.upper, rtol=1e-9)
        assert p_saa.total_cost == pytest.approx(lam * base_saa.total_cost, rel=1e-9)
        assert p_dro.total_cost == pytest.approx(lam * base_dro.total_cost, rel=1e-9)
        np.testing.assert_allclose(
            p_saa.cost_per_customer, lam * base_saa.cost_per_customer, rtol=1e-9
        )
        np.testing.assert_allclose(
            p_dro.cost_per_customer, lam * base_dro.cost_per_customer, rtol=1e-9
        )
    print("PASS criterion 9: windows invariant and costs linear under penalty scaling")
