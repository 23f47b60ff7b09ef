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

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PSD_JITTER = 1e-8
SYM_TOL = 1e-12
# a network keeps two m x m float64 matrices, its covariance and that
# covariance's factor: 8 * 2000**2 = 32 MB each at this many arcs
_MAX_ARCS = 2_000


def substream(seed: int, label: str) -> int:
    """Derive a named child seed from a master seed.

    Every stage of a pipeline (covariance generation, training draws,
    test draws) gets its own stream, so adding or reordering stages never
    shifts the draws of another stage.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _is_finite_real(value) -> bool:
    """True for a finite real number that is not a bool; an integer too
    large for a float counts as non-finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _finite_array(value, name: str, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape`` with finite entries; errors
    name the input."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: entries must be finite")
    return arr


def _check_sizes(n_arcs: int, n_customers: int, samples=None, mean=None, pen=None) -> None:
    """Refuse an input made for another network: a sample set or an arc
    mean over another number of arcs, or a penalty config for another
    number of customers.  The sizes are a network's, or a route's
    (``len(route.x)`` and ``len(route.customers)``)."""
    if samples is not None and samples.n_arcs != n_arcs:
        raise ValueError("sample set does not match the network's arc count")
    if mean is not None and np.size(mean) != n_arcs:
        raise ValueError("mean does not match the network's arc count")
    if pen is not None and pen.n_customers != n_customers:
        raise ValueError("penalty config does not match the network's customer count")


@dataclass(frozen=True)
class CovGenParams:
    """Parameters for topology-driven covariance generation."""

    cv_min: float = 0.01
    cv_max: float = 0.2
    neg_flip_prob: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("cv_min", "cv_max", "neg_flip_prob"):
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise ValueError(f"cov_gen: {name} must be a finite number, got {value!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"cov_gen: seed must be an integer >= 0, got {self.seed!r}")
        if not 0.0 <= self.cv_min <= self.cv_max:
            raise ValueError("cov_gen: need 0 <= cv_min <= cv_max")
        if not 0.0 <= self.neg_flip_prob <= 1.0:
            raise ValueError("cov_gen: neg_flip_prob must lie in [0, 1]")


@dataclass(eq=False)
class Network:
    """Directed delivery network with depot node 0 and customers 1..n.

    Instances are treated as immutable after construction; the numpy
    arrays are marked read-only so shared use across threads is safe.

    ``factor``, the F with F F' = ``cov`` that every draw uses, is made
    once by the PSD check: zero for a zero ``cov``, else the Cholesky
    factor of ``cov``, or of ``cov + PSD_JITTER * I`` when ``cov`` is PSD
    only up to floating noise, as every generated one is (rank <= nodes).
    A ``cov`` that fails both is refused as not PSD.
    """

    node_count: int
    arcs: tuple[tuple[int, int], ...]
    mean: np.ndarray
    cov: np.ndarray
    time_budget: float
    arc_index: dict[tuple[int, int], int] = field(init=False, repr=False)
    out_arcs: dict[int, tuple[tuple[int, int], ...]] = field(init=False, repr=False)
    in_arcs: dict[int, tuple[tuple[int, int], ...]] = field(init=False, repr=False)
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.node_count = int(self.node_count)
        self.arcs = tuple((int(i), int(j)) for i, j in self.arcs)
        self.mean = np.array(self.mean, dtype=float)
        self.cov = np.array(self.cov, dtype=float)
        self.time_budget = float(self.time_budget)
        self.factor = _validate_network(self)
        for array in (self.mean, self.cov, self.factor):
            array.setflags(write=False)
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


def _check_arc_count(m: int) -> None:
    """Refuse more than ``_MAX_ARCS`` arcs, before an m x m matrix is made."""
    if m > _MAX_ARCS:
        raise ValueError(
            f"network has {m} arcs, more than the {_MAX_ARCS} supported: its covariance would take {8 * m * m:,} bytes"
        )


def _validate_network(net: Network) -> np.ndarray:
    """Raise ``ValueError`` on the first fault of ``net``; return the
    covariance factor that its PSD check computes (see ``Network``)."""
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
    _check_arc_count(m)
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
    if not net.cov.any():
        factor = np.zeros((m, m))
    else:
        try:
            factor = np.linalg.cholesky(net.cov)
        except np.linalg.LinAlgError:
            try:
                factor = np.linalg.cholesky(net.cov + PSD_JITTER * np.eye(m))
            except np.linalg.LinAlgError as exc:
                raise ValueError("covariance not PSD within jitter tolerance") from exc
    if not 0 < net.time_budget < np.inf:
        raise ValueError("time_budget must be positive and finite")
    reachable = _hops_from(0, _successors(n_nodes, net.arcs))
    reaching = _hops_from(0, _successors(n_nodes, ((j, i) for i, j in net.arcs)))
    for k in range(1, n_nodes):
        if reachable[k] < 0:
            raise ValueError(f"disconnected network: customer {k} unreachable from depot")
        if reaching[k] < 0:
            raise ValueError(f"disconnected network: customer {k} cannot reach depot")
    return factor


def _successors(n_nodes: int, edges) -> list[list[int]]:
    """Each node's successors along the directed edges (i, j)."""
    succ = [[] for _ in range(n_nodes)]
    for i, j in edges:
        succ[i].append(j)
    return succ


def _hops_from(src: int, succ: list[list[int]]) -> list[int]:
    """Hop counts from ``src`` along the ``_successors`` lists, -1 for nodes
    it cannot reach; a queue breadth-first search, linear in the edges."""
    dist = [-1] * len(succ)
    dist[src] = 0
    queue = [src]
    for i in queue:  # the queue grows as it is read
        hops = dist[i] + 1
        for j in succ[i]:
            if dist[j] < 0:
                dist[j] = hops
                queue.append(j)
    return dist


def arc_node_hops(net: Network) -> np.ndarray:
    """Hop distance from each arc to each node in the undirected skeleton.

    Entry [a, k] is the smaller of the two endpoint-to-node shortest-path
    hop counts, so an arc incident to k has distance 0.
    """
    succ = _successors(net.node_count, [*net.arcs, *((j, i) for i, j in net.arcs)])
    dist = np.array([_hops_from(v, succ) for v in range(net.node_count)])
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
    """Draw ``q`` i.i.d. joint travel-time vectors from Normal(mean, cov),
    as mean + F z with the network's ``factor`` F and z standard normal.

    A zero covariance matrix yields the degenerate distribution, every
    row equal to the mean.  Negative draws are clamped to zero and the
    clamp rate recorded.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((q, net.n_arcs))
    values = net.mean + z @ net.factor.T
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
    n_nodes = n_customers + 1
    m = n_nodes * n_customers if complete else min(3 * n_customers, n_nodes * n_customers)
    _check_arc_count(m)
    rng = np.random.default_rng(substream(seed, "topology"))
    perm = [0] + [int(v) for v in rng.permutation(np.arange(1, n_nodes))]
    cycle = [(perm[t], perm[(t + 1) % n_nodes]) for t in range(n_nodes)]
    if complete:
        arcs = [(i, j) for i in range(n_nodes) for j in range(n_nodes) if i != j]
    else:
        chosen = set(cycle)
        # the pool: every ordered pair (i, j) off the diagonal and off the
        # cycle, as the code i (n + 1) + j, ascending
        free = ~np.eye(n_nodes, dtype=bool)
        free[tuple(zip(*cycle))] = False
        pool = np.flatnonzero(free)
        extra = max(0, m - len(chosen))
        if extra:
            picks = rng.choice(len(pool), size=extra, replace=False)
            chosen.update(divmod(int(code), n_nodes) for code in pool[picks])
        arcs = sorted(chosen)
    mean = rng.uniform(10.0, 30.0, len(arcs))
    arc_pos = {arc: a for a, arc in enumerate(arcs)}
    cycle_mean = float(sum(mean[arc_pos[arc]] for arc in cycle))
    tb = float(time_budget) if time_budget is not None else tb_factor * cycle_mean
    params = cov_params or CovGenParams(seed=substream(seed, "covgen"))
    return _generated_network(n_nodes, tuple(arcs), mean, tb, params)


def _generated_network(nodes, arcs, mean, time_budget, params: CovGenParams) -> Network:
    """The network whose covariance ``generate_covariance`` makes from its
    topology, drawn from a zero-covariance skeleton of it."""
    m = len(arcs)
    skeleton = Network(nodes, arcs, mean, np.zeros((m, m)), time_budget)
    return Network(nodes, arcs, mean, generate_covariance(skeleton, params), time_budget)


# ---------------------------------------------------------------------------
# file formats


def _read_json(path, kind: str) -> dict:
    """The JSON object a UTF-8 file holds; errors name the file ``kind``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer too long to read
        raise ValueError(f"{kind} file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} file: expected a JSON object at top level")
    return doc


def _open_for_write(path):
    """``path`` opened for writing UTF-8 text, after making its directory;
    newlines go out untranslated, as the csv module needs."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def _write_json(doc, path) -> None:
    """Write ``doc`` as JSON indented by two spaces, with a trailing newline."""
    with _open_for_write(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


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
    _write_json(doc, path)


def _is_json_int(value) -> bool:
    """True for a JSON integer; ``true``/``false`` load as ``bool``, which
    Python counts as ``int``, and are not ids or counts."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        if not _is_finite_real(mean):
            raise ValueError(f"arcs[{a}].mean: expected a number")
        if mean < 0:
            raise ValueError(f"arcs[{a}].mean: negative mean travel time")
        arcs.append((i, j))
        means.append(float(mean))
    return arcs, means


def load_instance(path) -> Network:
    """Read an instance JSON file, generating the covariance if requested."""
    doc = _read_json(path, "instance")
    nodes = doc.get("nodes")
    if not _is_json_int(nodes) or nodes < 2:
        raise ValueError("nodes: expected an integer >= 2")
    arcs, means = _parse_arcs(doc)
    m = len(arcs)
    _check_arc_count(m)
    if nodes > m:  # each node needs an arc out, so the network is disconnected
        raise ValueError(f"nodes: expected at most {m}, the number of arcs, got {nodes}")
    if "time_budget" not in doc:
        raise ValueError("time_budget: missing")
    tb = doc["time_budget"]
    if not _is_finite_real(tb) or tb <= 0:
        raise ValueError(f"time_budget: expected a positive number, got {json.dumps(tb)}")
    has_cov = "cov" in doc
    has_gen = "cov_gen" in doc
    if has_cov and has_gen:
        raise ValueError("instance file: give either cov or cov_gen, not both")
    if not has_cov and not has_gen:
        raise ValueError("instance file: one of cov or cov_gen is required")
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
            if set(map(type, row)) <= {int, float}:  # JSON numbers: no bool, str or null
                try:
                    cov[r] = row
                    continue
                except OverflowError:  # an integer too large for a float
                    pass
            bad = next(v for v in row if not _is_finite_real(v))
            raise ValueError(f"cov[{r}]: expected numbers, got {json.dumps(bad)}")
        return Network(nodes, tuple(arcs), np.asarray(means), cov, float(tb))
    gen = doc["cov_gen"]
    if not isinstance(gen, dict):
        raise ValueError("cov_gen: expected an object")
    allowed = {"cv_min", "cv_max", "neg_flip_prob", "seed"}
    unknown = set(gen) - allowed
    if unknown:
        raise ValueError(f"cov_gen: unknown keys {sorted(unknown)}")
    return _generated_network(nodes, tuple(arcs), np.asarray(means), float(tb), CovGenParams(**gen))

