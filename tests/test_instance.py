"""Tests for networks, covariance generation, sampling, and instance IO."""

import json
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import twdesign
from twdesign import (
    CovGenParams,
    Network,
    SampleSet,
    arc_node_hops,
    covariance_parts,
    generate_covariance,
    load_instance,
    random_network,
    sample_travel_times,
    save_instance,
    substream,
)
from twdesign import instance
from twdesign.instance import PSD_JITTER


def small_net(cov=None, tb=100.0):
    arcs = ((0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0))
    mean = np.array([10.0, 12.0, 9.0, 15.0, 11.0, 8.0])
    if cov is None:
        cov = np.zeros((6, 6))
    return Network(node_count=3, arcs=arcs, mean=mean, cov=cov, time_budget=tb)


# ---------------------------------------------------------------------------
# construction and validation


def test_network_derived_fields():
    net = small_net()
    assert net.n_customers == 2
    assert net.n_arcs == 6
    assert list(net.customers) == [1, 2]
    assert net.arc_index[(2, 1)] == 4
    # successor/predecessor lists hold (node, arc index) pairs
    assert net.out_arcs[0] == ((1, 0), (2, 3))
    assert net.in_arcs[2] == ((0, 3), (1, 1))
    assert net.arc_labels()[3] == "0->2"
    assert not net.mean.flags.writeable
    assert not net.cov.flags.writeable


def test_network_rejects_bad_arcs():
    mean = np.array([1.0, 1.0])
    cov = np.zeros((2, 2))
    with pytest.raises(ValueError, match=r"arcs\[1\]: self-loop"):
        Network(3, ((0, 1), (1, 1)), mean, cov, 10.0)
    with pytest.raises(ValueError, match=r"arcs\[1\]: duplicate arc"):
        Network(3, ((0, 1), (0, 1)), mean, cov, 10.0)
    with pytest.raises(ValueError, match=r"arcs\[0\]: endpoint outside"):
        Network(3, ((0, 5), (1, 0)), mean, cov, 10.0)
    with pytest.raises(ValueError, match="network needs a depot and at least one customer"):
        Network(1, (), np.zeros(0), np.zeros((0, 0)), 10.0)
    with pytest.raises(ValueError, match="network has no arcs"):
        Network(3, (), np.zeros(0), np.zeros((0, 0)), 10.0)


def test_network_rejects_bad_matrices():
    arcs = ((0, 1), (1, 0))
    with pytest.raises(ValueError, match="mean: expected 2 entries"):
        Network(2, arcs, np.ones(3), np.zeros((2, 2)), 10.0)
    with pytest.raises(ValueError, match=r"mean\[1\]: negative"):
        Network(2, arcs, np.array([1.0, -1.0]), np.zeros((2, 2)), 10.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="mean: entries must be finite"):
            Network(2, arcs, np.array([1.0, bad]), np.zeros((2, 2)), 10.0)
        with pytest.raises(ValueError, match="cov: entries must be finite"):
            Network(2, arcs, np.ones(2), np.array([[1.0, 0.0], [0.0, bad]]), 10.0)
    with pytest.raises(ValueError, match="cov: expected shape"):
        Network(2, arcs, np.ones(2), np.zeros((3, 3)), 10.0)
    with pytest.raises(ValueError, match="asymmetric"):
        Network(2, arcs, np.ones(2), np.array([[1.0, 0.5], [0.1, 1.0]]), 10.0)
    with pytest.raises(ValueError, match="negative diagonal"):
        Network(2, arcs, np.ones(2), np.array([[1.0, 0.0], [0.0, -1.0]]), 10.0)
    with pytest.raises(ValueError, match="covariance not PSD"):
        Network(2, arcs, np.ones(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 10.0)
    with pytest.raises(ValueError, match="time_budget must be positive"):
        Network(2, arcs, np.ones(2), np.zeros((2, 2)), 0.0)


def test_network_rejects_disconnected():
    # customer 2 has no incoming arc, so it is unreachable from the depot
    arcs = ((0, 1), (1, 0), (2, 0))
    mean = np.ones(3)
    with pytest.raises(ValueError, match="customer 2 unreachable from depot"):
        Network(3, arcs, mean, np.zeros((3, 3)), 10.0)
    # reverse: customer 2 can be reached but never leaves
    arcs = ((0, 1), (1, 0), (0, 2))
    with pytest.raises(ValueError, match="customer 2 cannot reach depot"):
        Network(3, arcs, mean, np.zeros((3, 3)), 10.0)


def test_substream_is_stable_and_label_sensitive():
    a = substream(42, "sampling-train")
    assert a == substream(42, "sampling-train")
    assert a != substream(42, "sampling-test")
    assert a != substream(43, "sampling-train")
    assert 0 <= a < 2**63


# ---------------------------------------------------------------------------
# hop distances, with an independent BFS oracle


def bfs_hops(n_nodes, undirected_edges, src):
    """Plain queue BFS, no graph library."""
    dist = {src: 0}
    dq = deque([src])
    adj = {v: set() for v in range(n_nodes)}
    for i, j in undirected_edges:
        adj[i].add(j)
        adj[j].add(i)
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


def test_arc_node_hops_matches_bfs_oracle():
    # small networks, and one sparse network of 200 customers (600 arcs)
    for n_customers, seed in [*((6, seed) for seed in range(8)), (200, 0)]:
        net = random_network(n_customers, seed=seed)
        hops = arc_node_hops(net)
        per_node = [bfs_hops(net.node_count, net.arcs, v) for v in range(net.node_count)]
        for a, (i, j) in enumerate(net.arcs):
            for k in range(net.node_count):
                want = min(per_node[i][k], per_node[j][k])
                assert hops[a, k] == want, (n_customers, seed, a, k)


def random_arcs(rng, n_nodes, complete):
    pairs = [(i, j) for i in range(n_nodes) for j in range(n_nodes) if i != j]
    if complete:
        return pairs
    keep = rng.random(len(pairs)) < 2.0 / n_nodes
    return [pair for pair, k in zip(pairs, keep) if k] or pairs[:1]


def test_graph_searches_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(3)
    for trial in range(60):
        n_nodes = int(rng.integers(2, 9))
        arcs = random_arcs(rng, n_nodes, complete=trial % 6 == 0)
        m = len(arcs)
        # reachability: the error names the first customer the oracle flags
        g = nx.DiGraph()
        g.add_nodes_from(range(n_nodes))
        g.add_edges_from(arcs)
        reachable, reaching = nx.descendants(g, 0), nx.ancestors(g, 0)
        want = None
        for k in range(1, n_nodes):
            if k not in reachable:
                want = f"customer {k} unreachable from depot"
            elif k not in reaching:
                want = f"customer {k} cannot reach depot"
            if want:
                break
        if want:
            with pytest.raises(ValueError, match=want):
                Network(n_nodes, tuple(arcs), np.ones(m), np.zeros((m, m)), 10.0)
            continue
        net = Network(n_nodes, tuple(arcs), np.ones(m), np.zeros((m, m)), 10.0)
        # hop distances on the undirected skeleton
        lengths = dict(nx.all_pairs_shortest_path_length(g.to_undirected()))
        hops = arc_node_hops(net)
        for a, (i, j) in enumerate(arcs):
            for k in range(n_nodes):
                assert hops[a, k] == min(lengths[i][k], lengths[j][k]), (trial, a, k)


def test_import_does_not_load_networkx():
    src = str(Path(twdesign.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import twdesign; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_arc_node_hops_incident_arcs_are_zero():
    net = small_net()
    hops = arc_node_hops(net)
    for a, (i, j) in enumerate(net.arcs):
        assert hops[a, i] == 0
        assert hops[a, j] == 0


# ---------------------------------------------------------------------------
# covariance generation


def test_covariance_invariants_over_seeds():
    for seed in range(10):
        net = random_network(5, seed=seed)
        params = CovGenParams(seed=seed + 100)
        corr, sigma = covariance_parts(net, params)
        cov = generate_covariance(net, params)
        m = net.n_arcs
        assert cov.shape == (m, m)
        assert np.max(np.abs(cov - cov.T)) <= 1e-12
        # PSD up to jitter
        np.linalg.cholesky(cov + 1e-8 * np.eye(m))
        # diagonal equals sigma^2 and correlations stay in [-1, 1]
        np.testing.assert_allclose(np.diag(cov), sigma**2, rtol=0, atol=1e-12)
        assert np.max(np.abs(corr)) <= 1.0 + 1e-9
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
        # sigma respects the CV band
        lo = params.cv_min * net.mean
        hi = params.cv_max * net.mean
        assert np.all(sigma >= lo - 1e-12) and np.all(sigma <= hi + 1e-12)


def test_covariance_no_flips_means_nonnegative_corr():
    net = random_network(5, seed=3)
    corr, _ = covariance_parts(net, CovGenParams(neg_flip_prob=0.0, seed=9))
    assert np.min(corr) >= 0.0


def test_covariance_flips_can_go_negative():
    # with flips almost certain, some negative correlation shows up
    net = random_network(5, seed=3)
    corr, _ = covariance_parts(net, CovGenParams(neg_flip_prob=0.5, seed=2))
    assert np.min(corr) < 0.0


def test_covariance_deterministic_in_seed():
    net = random_network(4, seed=1)
    c1 = generate_covariance(net, CovGenParams(seed=7))
    c2 = generate_covariance(net, CovGenParams(seed=7))
    c3 = generate_covariance(net, CovGenParams(seed=8))
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, c3)


def test_cov_params_validation():
    with pytest.raises(ValueError):
        CovGenParams(cv_min=-0.1)
    with pytest.raises(ValueError):
        CovGenParams(cv_min=0.5, cv_max=0.2)
    with pytest.raises(ValueError):
        CovGenParams(neg_flip_prob=1.5)


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: sample_travel_times(small_net(), 0, seed=0), "q must be >= 1"),
        (lambda: random_network(0, seed=0), "n_customers must be >= 1"),
    ],
)
def test_generators_refuse_empty_sizes(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_sampling_zero_covariance_is_exact():
    net = small_net()
    s = sample_travel_times(net, 5, seed=0)
    assert s.values.shape == (5, 6)
    for row in s.values:
        assert np.array_equal(row, net.mean)
    assert s.clamp_rate == 0.0


def test_sampling_deterministic_and_seed_sensitive():
    cov = 0.01 * np.eye(6) * np.arange(1, 7)
    net = small_net(cov=cov)
    a = sample_travel_times(net, 50, seed=5)
    b = sample_travel_times(net, 50, seed=5)
    c = sample_travel_times(net, 50, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.seed == 5


def test_sampling_moments_converge():
    rng_cov = np.diag([4.0, 1.0, 2.25, 0.25, 1.0, 0.09])
    net = small_net(cov=rng_cov)
    s = sample_travel_times(net, 40_000, seed=11)
    err_mean = np.max(np.abs(s.values.mean(axis=0) - net.mean))
    err_var = np.max(np.abs(s.values.var(axis=0) - np.diag(rng_cov)))
    assert err_mean < 0.05
    assert err_var < 0.1


def test_sampling_clamps_negatives():
    # tiny means with large variance force negative draws
    arcs = ((0, 1), (1, 0))
    net = Network(2, arcs, np.array([0.1, 0.1]), 4.0 * np.eye(2), 10.0)
    s = sample_travel_times(net, 2000, seed=3)
    assert np.min(s.values) >= 0.0
    assert s.clamp_rate > 0.2


def _two_step_draws(net, q, seed):
    """Draws by the rule that factored the covariance at every draw: a zero
    factor for a zero matrix, else the Cholesky factor of cov, or of cov +
    PSD_JITTER I when that fails; and the branch the rule took."""
    m = net.n_arcs
    cov = np.array(net.cov)
    if not cov.any():
        branch, factor = "zero", np.zeros((m, m))
    else:
        try:
            branch, factor = "plain", np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            branch, factor = "jitter", np.linalg.cholesky(cov + PSD_JITTER * np.eye(m))
    values = net.mean + np.random.default_rng(seed).standard_normal((q, m)) @ factor.T
    return values, branch


def test_network_factors_its_covariance_once(monkeypatch):
    # the network's PSD check leaves the factor every draw uses; the draws
    # equal those of the rule that factored the covariance at each draw
    base = [random_network(10, seed=0), random_network(8, seed=1, complete=True), random_network(12, seed=2)]
    m = base[0].n_arcs
    rng = np.random.default_rng(4)
    a = rng.standard_normal((m, m))
    covs = [net.cov for net in base] + [np.diag(np.linspace(1.0, 4.0, m)), a @ a.T, np.zeros((m, m))]
    shapes = [*base] + [base[0]] * 3
    calls = []
    real = np.linalg.cholesky

    def counting(matrix):
        calls.append(matrix.shape)
        return real(matrix)

    branches = set()
    for seed, (shape, cov) in enumerate(zip(shapes, covs)):
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "cholesky", counting)
            calls.clear()
            net = Network(shape.node_count, shape.arcs, shape.mean, cov, shape.time_budget)
            built = len(calls)
            calls.clear()
            s = sample_travel_times(net, 300, seed)
            assert calls == [], seed
        want, branch = _two_step_draws(net, 300, seed)
        branches.add(branch)
        assert built <= (0 if branch == "zero" else 2), branch
        assert not net.factor.flags.writeable
        assert s.values.tobytes() == np.maximum(want, 0.0).tobytes(), branch
        assert s.clamp_rate == float(np.mean(want < 0)), branch
    # generated covariances are rank-deficient and take the jitter branch
    assert branches == {"zero", "plain", "jitter"}
    # a generated network's zero-covariance skeleton is factored by no
    # Cholesky call: building one calls it at most twice, for the final cov
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", counting)
        calls.clear()
        random_network(8, seed=1, complete=True)
        assert len(calls) <= 2


def test_sample_set_validation():
    with pytest.raises(ValueError, match="2-D"):
        SampleSet(q=3, values=np.ones(3))
    with pytest.raises(ValueError, match="expected 3 rows"):
        SampleSet(q=3, values=np.ones((2, 4)))
    with pytest.raises(ValueError, match="nonnegative"):
        SampleSet(q=1, values=np.array([[-1.0, 2.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            SampleSet(q=1, values=np.array([[bad, 2.0]]))
    # a writable input is copied and frozen, the caller's array is not
    raw = np.ones((2, 3))
    s = SampleSet(q=2, values=raw)
    assert not s.values.flags.writeable and raw.flags.writeable
    assert s.values is not raw


# ---------------------------------------------------------------------------
# random instances


def test_random_network_shapes_and_budget():
    for seed in (0, 1, 2):
        net = random_network(7, seed=seed)
        assert net.node_count == 8
        assert net.n_arcs == 21  # 3 * n
        assert net.time_budget > 0
        net_c = random_network(7, seed=seed, complete=True)
        assert net_c.n_arcs == 8 * 7


def test_random_network_small_cases():
    net = random_network(1, seed=0)
    # only two directed arcs exist for one customer
    assert set(net.arcs) == {(0, 1), (1, 0)}
    net2 = random_network(2, seed=0)
    assert net2.n_arcs == 6  # complete set, 3n capped at n_nodes*(n_nodes-1)


def test_random_network_reproducible():
    a = random_network(5, seed=9)
    b = random_network(5, seed=9)
    assert a.arcs == b.arcs
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.cov, b.cov)
    assert a.time_budget == b.time_budget


def test_random_network_explicit_budget():
    net = random_network(3, seed=0, time_budget=77.5)
    assert net.time_budget == 77.5


# ---------------------------------------------------------------------------
# instance files


def test_oversized_networks_are_refused_before_allocation(tmp_path):
    # 40,200 arcs of a complete n=200 network need 12.9 GB per covariance;
    # each refusal comes before any matrix or full arc list is made
    n = 45  # 2,070 arcs, one covariance of 34 MB
    arcs = [{"from": i, "to": j, "mean": 1.0} for i in range(n + 1) for j in range(n + 1) if i != j]
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"nodes": n + 1, "arcs": arcs, "cov_gen": {"seed": 0}, "time_budget": 100.0}))
    calls = {
        "complete": (lambda: random_network(200, seed=0, complete=True), 40200),
        "sparse": (lambda: random_network(700, seed=0), 2100),
        "cov_gen file": (lambda: load_instance(gen), 2070),
    }
    for name, (call, m) in calls.items():
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"network has {m} arcs, more than the 2000 supported"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (name, peak)


def test_arc_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(instance, "_MAX_ARCS", 30)
    assert random_network(10, seed=0).n_arcs == 30
    assert random_network(5, seed=0, complete=True).n_arcs == 30
    for call in (lambda: random_network(11, seed=0), lambda: random_network(6, seed=0, complete=True)):
        with pytest.raises(ValueError, match="more than the 30 supported"):
            call()
    net = random_network(4, seed=0, complete=True)
    monkeypatch.setattr(instance, "_MAX_ARCS", 19)
    with pytest.raises(ValueError, match="network has 20 arcs, more than the 19 supported"):
        Network(net.node_count, net.arcs, net.mean, net.cov, net.time_budget)


def test_instance_round_trip(tmp_path):
    net = random_network(4, seed=2)
    path = tmp_path / "inst.json"
    save_instance(net, path)
    back = load_instance(path)
    assert back.node_count == net.node_count
    assert back.arcs == net.arcs
    np.testing.assert_allclose(back.mean, net.mean, rtol=0, atol=0)
    np.testing.assert_allclose(back.cov, net.cov, rtol=0, atol=0)
    assert back.time_budget == net.time_budget


def test_instance_cov_gen_form(tmp_path):
    net = random_network(3, seed=5)
    doc = {
        "nodes": net.node_count,
        "arcs": [
            {"from": i, "to": j, "mean": float(net.mean[a])}
            for a, (i, j) in enumerate(net.arcs)
        ],
        "cov_gen": {"cv_min": 0.05, "cv_max": 0.1, "neg_flip_prob": 0.0, "seed": 4},
        "time_budget": net.time_budget,
    }
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(doc))
    back = load_instance(path)
    want = generate_covariance(net, CovGenParams(0.05, 0.1, 0.0, 4))
    np.testing.assert_allclose(back.cov, want, rtol=0, atol=0)
    # loading twice gives identical covariance
    again = load_instance(path)
    assert np.array_equal(back.cov, again.cov)


def write_doc(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def test_instance_load_errors_name_the_field(tmp_path):
    base = {
        "nodes": 2,
        "arcs": [{"from": 0, "to": 1, "mean": 1.0}, {"from": 1, "to": 0, "mean": 1.0}],
        "cov": [[0.0, 0.0], [0.0, 0.0]],
        "time_budget": 10.0,
    }

    doc = dict(base)
    doc["arcs"] = [{"from": 0, "to": 1, "mean": 1.0}, {"from": 1, "mean": 1.0}]
    with pytest.raises(ValueError, match=r"arcs\[1\].to: missing"):
        load_instance(write_doc(tmp_path, doc))

    doc = dict(base)
    doc["arcs"] = [{"from": 0, "to": 1, "mean": -2.0}, {"from": 1, "to": 0, "mean": 1.0}]
    with pytest.raises(ValueError, match=r"arcs\[0\].mean: negative"):
        load_instance(write_doc(tmp_path, doc))

    doc = dict(base)
    doc["cov"] = [[0.0, 0.0]]
    with pytest.raises(ValueError, match="cov: expected 2 rows, got 1"):
        load_instance(write_doc(tmp_path, doc))

    doc = dict(base)
    doc["cov"] = [[0.0, 0.0], [0.0]]
    with pytest.raises(ValueError, match=r"cov\[1\]: expected 2 entries, got 1"):
        load_instance(write_doc(tmp_path, doc))

    for arcs in ([], {}, None):
        with pytest.raises(ValueError, match="arcs: expected a non-empty list"):
            load_instance(write_doc(tmp_path, dict(base, arcs=arcs)))

    for entry in (5, [0, 1, 1.0], None):
        doc = dict(base, arcs=[base["arcs"][0], entry])
        with pytest.raises(ValueError, match=r"arcs\[1\]: expected an object with from/to/mean"):
            load_instance(write_doc(tmp_path, doc))

    for gen in (5, [], None):
        doc = dict(base, cov_gen=gen)
        del doc["cov"]
        with pytest.raises(ValueError, match="cov_gen: expected an object"):
            load_instance(write_doc(tmp_path, doc))

    doc = dict(base)
    del doc["cov"]
    with pytest.raises(ValueError, match="one of cov or cov_gen"):
        load_instance(write_doc(tmp_path, doc))

    doc = dict(base)
    doc["cov_gen"] = {"seed": 1}
    with pytest.raises(ValueError, match="either cov or cov_gen, not both"):
        load_instance(write_doc(tmp_path, doc))

    doc = dict(base)
    del doc["cov"]
    doc["cov_gen"] = {"seed": 1, "bogus": 2}
    with pytest.raises(ValueError, match=r"cov_gen: unknown keys \['bogus'\]"):
        load_instance(write_doc(tmp_path, doc))

    doc = dict(base)
    del doc["time_budget"]
    with pytest.raises(ValueError, match="time_budget: missing"):
        load_instance(write_doc(tmp_path, doc))

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_instance(path)


def test_instance_load_rejects_json_booleans(tmp_path):
    # true and false load as bool, which Python counts as 1 and 0: an arc
    # {"from": false, "to": true} would otherwise read as the arc (0, 1)
    base = {
        "nodes": 2,
        "arcs": [{"from": 0, "to": 1, "mean": 1.0}, {"from": 1, "to": 0, "mean": 1.0}],
        "cov": [[0.0, 0.0], [0.0, 0.0]],
        "time_budget": 10.0,
    }
    assert load_instance(write_doc(tmp_path, base)).arcs == ((0, 1), (1, 0))
    for key, value in (("from", False), ("to", True)):
        doc = dict(base)
        doc["arcs"] = [dict(base["arcs"][0], **{key: value}), base["arcs"][1]]
        with pytest.raises(ValueError, match=r"arcs\[0\]: from/to must be integers"):
            load_instance(write_doc(tmp_path, doc))
    # an integer too large for a float is no number either, and two arcs
    # cannot connect three nodes
    for mean in (True, 10**400):
        doc = dict(base)
        doc["arcs"] = [dict(base["arcs"][0], mean=mean), base["arcs"][1]]
        with pytest.raises(ValueError, match=r"arcs\[0\].mean: expected a number"):
            load_instance(write_doc(tmp_path, doc))
    doc = dict(base, nodes=True)
    with pytest.raises(ValueError, match="nodes: expected an integer >= 2"):
        load_instance(write_doc(tmp_path, doc))
    for nodes in (3, 10**400):
        with pytest.raises(ValueError, match="nodes: expected at most 2, the number of arcs"):
            load_instance(write_doc(tmp_path, dict(base, nodes=nodes)))
    for tb in (True, 10**400):
        doc = dict(base, time_budget=tb)
        with pytest.raises(ValueError, match="time_budget: expected a positive number"):
            load_instance(write_doc(tmp_path, doc))


def test_instance_cov_entries_must_be_numbers(tmp_path):
    # numpy would read true as 1.0 and "2.0" as 2.0
    base = {
        "nodes": 2,
        "arcs": [{"from": 0, "to": 1, "mean": 1.0}, {"from": 1, "to": 0, "mean": 1.0}],
        "cov": [[1.0, 0], [0, 2.0]],
        "time_budget": 10.0,
    }
    assert load_instance(write_doc(tmp_path, base)).cov.tolist() == [[1.0, 0.0], [0.0, 2.0]]
    for row, bad in ((0, True), (1, "2.0"), (1, False), (1, 10**400)):
        cov = [list(r) for r in base["cov"]]
        cov[row][row] = bad
        with pytest.raises(ValueError, match=rf"cov\[{row}\]: expected numbers, got {json.dumps(bad)}"):
            load_instance(write_doc(tmp_path, dict(base, cov=cov)))
