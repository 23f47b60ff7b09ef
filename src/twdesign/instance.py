"""Network data model, covariance generation, and travel-time sampling.

A delivery instance is a directed graph with the depot at node 0 and
customers 1..n, per-arc mean travel times (minutes), a full covariance
matrix over the arcs, and a route duration budget.  Covariance matrices
can be stored explicitly or generated from the network topology: arcs
that are close to each other in the undirected skeleton receive highly
correlated travel times, which is what makes consecutive arrival times
along a route strongly dependent.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

PSD_JITTER = 1e-8
SYM_TOL = 1e-12


def substream(seed: int, label: str) -> int:
    """Derive a named child seed from a master seed.

    Every stage of a pipeline (covariance generation, training draws,
    test draws) gets its own stream, so adding or reordering stages never
    shifts the draws of another stage.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class CovGenParams:
    """Parameters for topology-driven covariance generation."""

    cv_min: float = 0.01
    cv_max: float = 0.2
    neg_flip_prob: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.cv_min <= self.cv_max:
            raise ValueError("cov_gen: need 0 <= cv_min <= cv_max")
        if not 0.0 <= self.neg_flip_prob <= 1.0:
            raise ValueError("cov_gen: neg_flip_prob must lie in [0, 1]")


@dataclass(eq=False)
class Network:
    """Directed delivery network with depot node 0 and customers 1..n.

    Instances are treated as immutable after construction; the numpy
    arrays are marked read-only so shared use across threads is safe.
    """

    node_count: int
    arcs: tuple[tuple[int, int], ...]
    mean: np.ndarray
    cov: np.ndarray
    time_budget: float
    arc_index: dict[tuple[int, int], int] = field(init=False, repr=False)
    out_arcs: dict[int, tuple[tuple[int, int], ...]] = field(init=False, repr=False)
    in_arcs: dict[int, tuple[tuple[int, int], ...]] = field(init=False, repr=False)

    def __post_init__(self):
        self.node_count = int(self.node_count)
        self.arcs = tuple((int(i), int(j)) for i, j in self.arcs)
        self.mean = np.array(self.mean, dtype=float)
        self.cov = np.array(self.cov, dtype=float)
        self.time_budget = float(self.time_budget)
        _validate_network(self)
        self.mean.setflags(write=False)
        self.cov.setflags(write=False)
        self.arc_index = {arc: a for a, arc in enumerate(self.arcs)}
        out: dict[int, list] = {i: [] for i in range(self.node_count)}
        inc: dict[int, list] = {i: [] for i in range(self.node_count)}
        for a, (i, j) in enumerate(self.arcs):
            out[i].append((j, a))
            inc[j].append((i, a))
        # successor lists sorted by node id so every traversal is deterministic
        self.out_arcs = {i: tuple(sorted(v)) for i, v in out.items()}
        self.in_arcs = {i: tuple(sorted(v)) for i, v in inc.items()}

    @property
    def n_customers(self) -> int:
        return self.node_count - 1

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @property
    def customers(self) -> range:
        return range(1, self.node_count)

    def arc_labels(self) -> list[str]:
        return [f"{i}->{j}" for i, j in self.arcs]


def _validate_network(net: Network) -> None:
    n_nodes = net.node_count
    if n_nodes < 2:
        raise ValueError("network needs a depot and at least one customer")
    seen = set()
    for a, (i, j) in enumerate(net.arcs):
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValueError(f"arcs[{a}]: endpoint outside 0..{n_nodes - 1}: ({i}, {j})")
        if i == j:
            raise ValueError(f"arcs[{a}]: self-loop ({i}, {j}) not allowed")
        if (i, j) in seen:
            raise ValueError(f"arcs[{a}]: duplicate arc ({i}, {j})")
        seen.add((i, j))
    m = len(net.arcs)
    if m == 0:
        raise ValueError("network has no arcs")
    if net.mean.shape != (m,):
        raise ValueError(f"mean: expected {m} entries, got {net.mean.shape}")
    if not np.all(np.isfinite(net.mean)):
        raise ValueError("mean: entries must be finite")
    if np.any(net.mean < 0):
        bad = int(np.argmax(net.mean < 0))
        raise ValueError(f"mean[{bad}]: negative mean travel time")
    if net.cov.shape != (m, m):
        raise ValueError(f"cov: expected shape ({m}, {m}), got {net.cov.shape}")
    if not np.all(np.isfinite(net.cov)):
        raise ValueError("cov: entries must be finite")
    asym = float(np.max(np.abs(net.cov - net.cov.T))) if m else 0.0
    if asym > SYM_TOL:
        raise ValueError(f"cov: asymmetric beyond tolerance ({asym:.3e} > {SYM_TOL:g})")
    if np.any(np.diag(net.cov) < 0):
        raise ValueError("cov: negative diagonal entry")
    try:
        np.linalg.cholesky(net.cov + PSD_JITTER * np.eye(m))
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance not PSD within jitter tolerance") from exc
    if not net.time_budget > 0:
        raise ValueError("time_budget must be positive")
    reachable = _hops_from(0, n_nodes, net.arcs)
    reaching = _hops_from(0, n_nodes, [(j, i) for i, j in net.arcs])
    for k in range(1, n_nodes):
        if reachable[k] < 0:
            raise ValueError(f"disconnected network: customer {k} unreachable from depot")
        if reaching[k] < 0:
            raise ValueError(f"disconnected network: customer {k} cannot reach depot")


def _hops_from(src: int, n_nodes: int, edges) -> list[int]:
    """Hop counts from ``src`` along directed edges (i, j), -1 for nodes it
    cannot reach; breadth first, one sweep over the edges per level."""
    dist = [-1] * n_nodes
    dist[src] = 0
    level = 0
    grew = True
    while grew:
        grew = False
        for i, j in edges:
            if dist[i] == level and dist[j] < 0:
                dist[j] = level + 1
                grew = True
        level += 1
    return dist


def arc_node_hops(net: Network) -> np.ndarray:
    """Hop distance from each arc to each node in the undirected skeleton.

    Entry [a, k] is the smaller of the two endpoint-to-node shortest-path
    hop counts, so an arc incident to k has distance 0.
    """
    both_ways = [*net.arcs, *((j, i) for i, j in net.arcs)]
    dist = np.array([_hops_from(v, net.node_count, both_ways) for v in range(net.node_count)])
    if np.any(dist < 0):
        raise ValueError("disconnected network: undirected skeleton is not connected")
    ends = np.asarray(net.arcs)
    return np.minimum(dist[ends[:, 0]], dist[ends[:, 1]])


def covariance_parts(net: Network, params: CovGenParams) -> tuple[np.ndarray, np.ndarray]:
    """Correlation matrix and per-arc standard deviations, before combining.

    Construction: proximity scores 1/(1+hops) per (arc, node), an i.i.d.
    sign flip of each score with probability ``neg_flip_prob``, row
    normalisation to unit Euclidean length, and a Gram product for the
    correlation matrix.  Standard deviations are CV * mean with CV drawn
    uniformly from [cv_min, cv_max].  Draw order is fixed: sign flips
    first, then the CVs.
    """
    hops = arc_node_hops(net)
    rng = np.random.default_rng(params.seed)
    scores = 1.0 / (1.0 + hops.astype(float))
    flip = rng.random(scores.shape) < params.neg_flip_prob
    scores = np.where(flip, -scores, scores)
    norms = np.linalg.norm(scores, axis=1, keepdims=True)
    if not np.all(norms > 0):
        raise RuntimeError("internal error: zero proximity row")
    rows = scores / norms
    corr = rows @ rows.T
    corr = (corr + corr.T) / 2.0
    cv = rng.uniform(params.cv_min, params.cv_max, net.n_arcs)
    sigma = cv * net.mean
    return corr, sigma


def generate_covariance(net: Network, params: CovGenParams) -> np.ndarray:
    """Generate a PSD travel-time covariance matrix from the topology."""
    corr, sigma = covariance_parts(net, params)
    return corr * np.outer(sigma, sigma)


@dataclass(eq=False)
class SampleSet:
    """A set of joint travel-time draws, one row per scenario."""

    q: int
    values: np.ndarray
    seed: int | None = None
    clamp_rate: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("sample values must be a 2-D array (q, n_arcs)")
        if self.values.shape[0] != self.q:
            raise ValueError(f"sample values: expected {self.q} rows, got {self.values.shape[0]}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sample values must be finite")
        if np.any(self.values < 0):
            raise ValueError("sample values must be nonnegative")
        if self.values.flags.writeable:
            self.values = self.values.copy()
            self.values.setflags(write=False)

    @property
    def n_arcs(self) -> int:
        return self.values.shape[1]


def sample_travel_times(net: Network, q: int, seed: int) -> SampleSet:
    """Draw ``q`` i.i.d. joint travel-time vectors from Normal(mean, cov).

    The factor comes from a Cholesky decomposition; when the matrix is
    only PSD up to floating noise a jitter of ``PSD_JITTER`` on the
    diagonal is added before factorising.  A zero covariance matrix
    yields the degenerate distribution, every row equal to the mean.
    Negative draws are clamped to zero and the clamp rate recorded.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    m = net.n_arcs
    if not net.cov.any():
        factor = np.zeros((m, m))
    else:
        try:
            factor = np.linalg.cholesky(net.cov)
        except np.linalg.LinAlgError:
            try:
                factor = np.linalg.cholesky(net.cov + PSD_JITTER * np.eye(m))
            except np.linalg.LinAlgError as exc:
                raise ValueError("covariance not PSD") from exc
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((q, m))
    values = net.mean + z @ factor.T
    clamp_rate = float(np.mean(values < 0))
    np.maximum(values, 0.0, out=values)
    values.setflags(write=False)
    return SampleSet(q=q, values=values, seed=seed, clamp_rate=clamp_rate)


def random_network(
    n_customers: int,
    seed: int,
    complete: bool = False,
    cov_params: CovGenParams | None = None,
    tb_factor: float = 1.5,
    time_budget: float | None = None,
) -> Network:
    """Generate a routable random instance.

    Sparse instances carry ``3 * n_customers`` arcs (or the complete arc
    set when fewer exist): a random permutation cycle through all nodes
    guarantees strong connectivity and at least one full tour, and the
    remaining arcs are drawn uniformly without replacement.  The default
    budget is ``tb_factor`` times the mean duration of the embedded
    cycle, so the instance is always budget-feasible.
    """
    if n_customers < 1:
        raise ValueError("n_customers must be >= 1")
    rng = np.random.default_rng(substream(seed, "topology"))
    n_nodes = n_customers + 1
    perm = [0] + [int(v) for v in rng.permutation(np.arange(1, n_nodes))]
    cycle = [(perm[t], perm[(t + 1) % n_nodes]) for t in range(n_nodes)]
    if complete:
        arcs = [(i, j) for i in range(n_nodes) for j in range(n_nodes) if i != j]
    else:
        target = min(3 * n_customers, n_nodes * (n_nodes - 1))
        chosen = set(cycle)
        pool = sorted(
            (i, j)
            for i in range(n_nodes)
            for j in range(n_nodes)
            if i != j and (i, j) not in chosen
        )
        extra = max(0, target - len(chosen))
        if extra:
            picks = rng.choice(len(pool), size=extra, replace=False)
            chosen.update(pool[p] for p in picks)
        arcs = sorted(chosen)
    mean = rng.uniform(10.0, 30.0, len(arcs))
    arc_pos = {arc: a for a, arc in enumerate(arcs)}
    cycle_mean = float(sum(mean[arc_pos[arc]] for arc in cycle))
    tb = float(time_budget) if time_budget is not None else tb_factor * cycle_mean
    skeleton = Network(
        node_count=n_nodes,
        arcs=tuple(arcs),
        mean=mean,
        cov=np.zeros((len(arcs), len(arcs))),
        time_budget=tb,
    )
    params = cov_params or CovGenParams(seed=substream(seed, "covgen"))
    cov = generate_covariance(skeleton, params)
    return Network(
        node_count=n_nodes, arcs=tuple(arcs), mean=mean, cov=cov, time_budget=tb
    )


# ---------------------------------------------------------------------------
# file formats


def save_instance(net: Network, path) -> None:
    """Write an instance as JSON with the covariance stored explicitly."""
    doc = {
        "nodes": net.node_count,
        "arcs": [
            {"from": i, "to": j, "mean": float(net.mean[a])}
            for a, (i, j) in enumerate(net.arcs)
        ],
        "cov": [[float(v) for v in row] for row in net.cov],
        "time_budget": net.time_budget,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _is_json_int(value) -> bool:
    """True for a JSON integer; ``true``/``false`` load as ``bool``, which
    Python counts as ``int``, and are not ids or counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_arcs(doc) -> tuple[list[tuple[int, int]], list[float]]:
    raw = doc.get("arcs")
    if not isinstance(raw, list) or not raw:
        raise ValueError("arcs: expected a non-empty list")
    arcs: list[tuple[int, int]] = []
    means: list[float] = []
    for a, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"arcs[{a}]: expected an object with from/to/mean")
        for key in ("from", "to", "mean"):
            if key not in entry:
                raise ValueError(f"arcs[{a}].{key}: missing")
        i, j = entry["from"], entry["to"]
        if not _is_json_int(i) or not _is_json_int(j):
            raise ValueError(f"arcs[{a}]: from/to must be integers")
        mean = entry["mean"]
        if not _is_json_number(mean):
            raise ValueError(f"arcs[{a}].mean: expected a number")
        if mean < 0:
            raise ValueError(f"arcs[{a}].mean: negative mean travel time")
        arcs.append((i, j))
        means.append(float(mean))
    return arcs, means


def load_instance(path) -> Network:
    """Read an instance JSON file, generating the covariance if requested."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"instance file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("instance file: expected a JSON object at top level")
    nodes = doc.get("nodes")
    if not _is_json_int(nodes) or nodes < 2:
        raise ValueError("nodes: expected an integer >= 2")
    arcs, means = _parse_arcs(doc)
    if "time_budget" not in doc:
        raise ValueError("time_budget: missing")
    tb = doc["time_budget"]
    if not _is_json_number(tb) or not tb > 0:
        raise ValueError("time_budget: expected a positive number")
    has_cov = "cov" in doc
    has_gen = "cov_gen" in doc
    if has_cov and has_gen:
        raise ValueError("instance file: give either cov or cov_gen, not both")
    if not has_cov and not has_gen:
        raise ValueError("instance file: one of cov or cov_gen is required")
    m = len(arcs)
    if has_cov:
        raw = doc["cov"]
        if not isinstance(raw, list) or len(raw) != m:
            got = len(raw) if isinstance(raw, list) else type(raw).__name__
            raise ValueError(f"cov: expected {m} rows, got {got}")
        cov = np.empty((m, m))
        for r, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != m:
                got = len(row) if isinstance(row, list) else type(row).__name__
                raise ValueError(f"cov[{r}]: expected {m} entries, got {got}")
            cov[r] = row
        return Network(nodes, tuple(arcs), np.asarray(means), cov, float(tb))
    gen = doc["cov_gen"]
    if not isinstance(gen, dict):
        raise ValueError("cov_gen: expected an object")
    allowed = {"cv_min", "cv_max", "neg_flip_prob", "seed"}
    unknown = set(gen) - allowed
    if unknown:
        raise ValueError(f"cov_gen: unknown keys {sorted(unknown)}")
    params = CovGenParams(**gen)
    skeleton = Network(
        nodes, tuple(arcs), np.asarray(means), np.zeros((m, m)), float(tb)
    )
    cov = generate_covariance(skeleton, params)
    return Network(nodes, tuple(arcs), np.asarray(means), cov, float(tb))


def save_samples(samples: SampleSet, net: Network, path) -> None:
    """Write draws as CSV, one column per arc labelled ``i->j``."""
    if samples.n_arcs != net.n_arcs:
        raise ValueError("sample set does not match the network's arc count")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(net.arc_labels())
        for row in samples.values:
            writer.writerow([repr(float(v)) for v in row])


def load_samples(path, net: Network) -> SampleSet:
    """Read a sample CSV, checking the header against the network's arcs."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("sample file is empty") from None
        expected = net.arc_labels()
        if header != expected:
            raise ValueError("sample file header does not match the network's arc order")
        rows = []
        for r, row in enumerate(reader):
            if len(row) != len(expected):
                raise ValueError(f"sample row {r}: expected {len(expected)} values, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"sample row {r}: non-numeric value") from None
    if not rows:
        raise ValueError("sample file has no data rows")
    return SampleSet(q=len(rows), values=np.asarray(rows), seed=None)
