"""Network data model, covariance generation, travel-time sampling, routes.

A delivery instance is a directed graph with the depot at node 0 and
customers 1..n, per-arc mean travel times (minutes), a full covariance
matrix over the arcs, and a route duration budget.  Covariance matrices
can be stored explicitly or generated from the network topology: arcs
that are close to each other in the undirected skeleton receive highly
correlated travel times, which is what makes consecutive arrival times
along a route strongly dependent.

A route is a single-vehicle tour: depot, every customer exactly once,
depot.  Besides the visit sequence we keep the arc incidence vector x
and, per customer k, the indicator y^k of the arcs on the path from the
depot to k.  Arrival times are then linear in the scenario travel times,
tau^k = y^k . t, which is what both window designs consume.
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
# a generated network's default budget, as a multiple of the mean duration
# of the cycle through every node that it embeds
BUDGET_FACTOR = 1.5


def substream(seed: int, label: str) -> int:
    """Derive a named child seed from a master seed.

    Every stage of a pipeline (covariance generation, training draws,
    test draws) gets its own stream, so adding or reordering stages never
    shifts the draws of another stage.
    """
    _as_int(seed, "seed")
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _is_int(value) -> bool:
    """True for an integer that is not a bool: a Python or numpy integer.
    Python counts ``True`` and ``False`` (JSON's ``true``/``false`` load
    as them) as ``int``, but they are no ids, counts or seeds.  An exact
    ``int`` is let through first, without the slower ABC check."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _as_int(value, name: str, index: int | None = None) -> int:
    """``value`` as an ``int``; a value ``_is_int`` refuses is a
    ``ValueError`` that names the input, ``name`` or ``name[index]``."""
    if not _is_int(value):
        where = name if index is None else f"{name}[{index}]"
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _is_finite_real(value) -> bool:
    """True for a finite real number that is not a bool; an integer too
    large for a float counts as non-finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _finite_array(value, name: str, shape: tuple | None = None, message: str | None = None) -> np.ndarray:
    """The array rule: ``value`` as a float array of ``shape`` (any shape if
    None), if it has an integer or float dtype and every entry is finite.
    A bool, string or object array (``True``, ``"1"``, an integer too large
    for int64), and a list or tuple that holds a bool among numbers, are
    refused before the float cast, which would read them as numbers; so is
    a ragged nested sequence.  Errors name the input ``name``; ``message``,
    if given, is the error for entries the rule refuses."""
    try:
        arr = np.asarray(value)
    except ValueError:  # rows of different lengths
        raise ValueError(f"{name}: expected a rectangular array of numbers, got a ragged sequence") from None
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all() or _holds_bool(value):
        raise ValueError(message or f"{name}: entries must be finite numbers")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr.astype(float, copy=False)


def _holds_bool(value) -> bool:
    """True for a list or tuple with a bool entry at any depth, which numpy
    casts to 0 or 1 when the other entries are numbers."""
    return isinstance(value, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat
    )


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
        if not _is_int(self.seed) or self.seed < 0:
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
    only up to floating noise, as every generated one is (rank <= nodes),
    or of ``cov + PSD_JITTER * scale * I``.  A ``cov`` that fails all
    three is refused as not PSD.  The checks are relative to ``scale`` =
    max(1, max |cov|): ``cov`` may be asymmetric by ``SYM_TOL * scale``,
    so the same instance passes them in minutes and in seconds.
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
        self.node_count = _as_int(self.node_count, "node_count")
        self.arcs = tuple((_as_int(i, "arcs", a), _as_int(j, "arcs", a)) for a, (i, j) in enumerate(self.arcs))
        self.mean = np.array(_finite_array(self.mean, "mean"))
        self.cov = np.array(_finite_array(self.cov, "cov"))
        if not (_is_finite_real(self.time_budget) and self.time_budget > 0):
            raise ValueError("time_budget must be positive and finite")
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
    if n_nodes > m:  # each node needs an arc out; refused before any per-node list is made
        raise ValueError(f"node_count: expected at most {m}, the number of arcs, got {n_nodes}")
    if net.mean.shape != (m,):
        raise ValueError(f"mean: expected {m} entries, got {net.mean.shape}")
    if np.any(net.mean < 0):
        bad = int(np.argmax(net.mean < 0))
        raise ValueError(f"mean[{bad}]: negative mean travel time")
    if net.cov.shape != (m, m):
        raise ValueError(f"cov: expected shape ({m}, {m}), got {net.cov.shape}")
    scale = max(1.0, float(np.max(np.abs(net.cov))))
    asym = float(np.max(np.abs(net.cov - net.cov.T)))
    if asym > SYM_TOL * scale:
        raise ValueError(f"cov: asymmetric beyond tolerance ({asym:.3e} > {SYM_TOL * scale:g})")
    if np.any(np.diag(net.cov) < 0):
        raise ValueError("cov: negative diagonal entry")
    factor = np.zeros((m, m)) if not net.cov.any() else _cov_factor(net.cov, scale)
    reachable = _hops_from(0, _successors(n_nodes, net.arcs))
    reaching = _hops_from(0, _successors(n_nodes, ((j, i) for i, j in net.arcs)))
    for k in range(1, n_nodes):
        if reachable[k] < 0:
            raise ValueError(f"disconnected network: customer {k} unreachable from depot")
        if reaching[k] < 0:
            raise ValueError(f"disconnected network: customer {k} cannot reach depot")
    return factor


def _cov_factor(cov: np.ndarray, scale: float) -> np.ndarray:
    """The Cholesky factor of ``cov``, else of ``cov + PSD_JITTER * I``,
    else of ``cov + PSD_JITTER * scale * I``; refuse a ``cov`` all three fail."""
    for jitter in (None, PSD_JITTER, PSD_JITTER * scale):
        try:
            return np.linalg.cholesky(cov if jitter is None else cov + jitter * np.eye(len(cov)))
        except np.linalg.LinAlgError:
            pass
    raise ValueError("covariance not PSD within jitter tolerance")


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
    rows = scores / np.linalg.norm(scores, axis=1, keepdims=True)
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
    """A set of joint travel-time draws, one row per scenario: ``q`` is an
    integer (``_as_int``) and ``values`` a q x n_arcs array of finite
    numbers >= 0 (``_finite_array``), frozen."""

    q: int
    values: np.ndarray
    seed: int | None = None
    clamp_rate: float = 0.0

    def __post_init__(self):
        self.q = _as_int(self.q, "q")
        self.values = _finite_array(self.values, "sample values")
        if self.values.ndim != 2:
            raise ValueError("sample values must be a 2-D array (q, n_arcs)")
        if self.values.shape[0] != self.q:
            raise ValueError(f"sample values: expected {self.q} rows, got {self.values.shape[0]}")
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
    _as_int(q, "q")
    _as_int(seed, "seed")
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
    time_budget: float | None = None,
) -> Network:
    """Generate a routable random instance.

    Sparse instances carry ``3 * n_customers`` arcs (or the complete arc
    set when fewer exist): a random permutation cycle through all nodes
    guarantees strong connectivity and at least one full tour, and the
    remaining arcs are drawn uniformly without replacement.  The default
    budget is ``BUDGET_FACTOR`` (1.5) times the mean duration of the
    embedded cycle, so the instance is always budget-feasible;
    ``time_budget`` sets another.
    """
    _as_int(n_customers, "n_customers")
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
    tb = time_budget if time_budget is not None else BUDGET_FACTOR * cycle_mean
    params = cov_params or CovGenParams(seed=substream(seed, "covgen"))
    return _generated_network(n_nodes, tuple(arcs), mean, tb, params)


def _generated_network(nodes, arcs, mean, time_budget, params: CovGenParams) -> Network:
    """The network whose covariance ``generate_covariance`` makes from its
    topology, drawn from a zero-covariance skeleton of it."""
    m = len(arcs)
    skeleton = Network(nodes, arcs, mean, np.zeros((m, m)), time_budget)
    return Network(nodes, arcs, mean, generate_covariance(skeleton, params), time_budget)


@dataclass(eq=False)
class Route:
    """A tour with its incidence encodings against a fixed network.

    ``seq`` runs from the depot 0 through each customer 1..n once and back,
    in integer ids, also in a route built by hand: the plans designed for a
    route take its ids unchecked (``window_design._window_plan``).
    ``route_to_xy`` builds a route of a network and checks it against it."""

    seq: tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    path_arcs: tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        seq = self.seq = tuple(_as_int(v, "route", t) for t, v in enumerate(self.seq))
        if seq[:1] != (0,) or seq[-1:] != (0,) or sorted(seq[1:-1]) != list(range(1, len(seq) - 1)):
            raise ValueError(f"route: expected the depot 0, each customer 1..n once and the depot, got {list(seq)}")

    @property
    def customers(self) -> tuple[int, ...]:
        return self.seq[1:-1]


def route_to_xy(seq, net: Network) -> Route:
    """Validate a visit sequence and build its (x, y) encoding."""
    seq = tuple(_as_int(v, "route", t) for t, v in enumerate(seq))
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
    """Write ``doc`` as JSON indented by two spaces, with a trailing newline.
    A value JSON cannot hold (NaN, an infinity) is a ``ValueError`` that
    leaves no file behind.  The text is streamed to the file, not built
    first: a whole 2,000-arc instance as one string would more than double
    the writer's peak memory."""
    try:
        with _open_for_write(path) as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")
    except ValueError:
        Path(path).unlink()
        raise


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
        if not _is_int(i) or not _is_int(j):
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
    if not _is_int(nodes) or nodes < 2:
        raise ValueError("nodes: expected an integer >= 2")
    arcs, means = _parse_arcs(doc)
    m = len(arcs)
    _check_arc_count(m)
    if nodes > m:  # Network's rule, under the file's key and before the cov rows are read
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
        return Network(nodes, tuple(arcs), np.asarray(means), cov, tb)
    gen = doc["cov_gen"]
    if not isinstance(gen, dict):
        raise ValueError("cov_gen: expected an object")
    allowed = {"cv_min", "cv_max", "neg_flip_prob", "seed"}
    unknown = set(gen) - allowed
    if unknown:
        raise ValueError(f"cov_gen: unknown keys {sorted(unknown)}")
    return _generated_network(nodes, tuple(arcs), np.asarray(means), tb, CovGenParams(**gen))


def save_route(seq, path) -> None:
    _write_json({"seq": [_as_int(v, "route", t) for t, v in enumerate(seq)]}, path)


def load_route(path) -> tuple[int, ...]:
    doc = _read_json(path, "route")
    if "seq" not in doc:
        raise ValueError("route file: expected an object with a 'seq' list")
    seq = doc["seq"]
    if not isinstance(seq, list) or not all(_is_int(v) for v in seq):
        raise ValueError("route file: 'seq' must be a list of integers")
    return tuple(seq)
