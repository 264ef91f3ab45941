"""Network graph construction and size-bounded clustering of data centers."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Lloyd's loop on capacitated clusters often cycles instead of converging; the
# cap picks which phase of the cycle make_clusters returns, not how many
# iterations it runs (it stops as soon as its state repeats)
MAX_KMEANS_ITERS = 100


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class DataCenterSpec:
    id: int
    position: tuple[float, float]  # km
    storage_cap: float  # GB
    compute_cap: float  # vCPUs
    ram_cap: float  # GB

    def __post_init__(self):
        if not all(map(math.isfinite, self.position)):
            raise TopologyError(f"DC {self.id}: position must be finite, "
                                f"got {self.position}")
        caps = (self.storage_cap, self.compute_cap, self.ram_cap)
        if not all(0 < cap < math.inf for cap in caps):  # also NaN
            raise TopologyError(f"DC {self.id}: storage, vCPU and RAM capacities "
                                f"must be positive and finite, got {caps}")


@dataclass(frozen=True)
class LinkSpec:
    a: int
    b: int
    bandwidth_cap: float  # Mbps
    distance: float  # km

    def __post_init__(self):
        if self.a == self.b:
            raise TopologyError(f"self-loop link at DC {self.a}")
        if not 0 < self.bandwidth_cap < math.inf:
            raise TopologyError(f"link ({self.a},{self.b}): bandwidth must be "
                                f"positive and finite, got {self.bandwidth_cap}")
        if not math.isfinite(self.distance):
            raise TopologyError(f"link ({self.a},{self.b}): distance must be "
                                f"finite, got {self.distance}")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def key(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass
class NetworkGraph:
    dcs: list[DataCenterSpec]
    links: list[LinkSpec]
    # DC id -> (other end, link) for each link at the DC, in `links` order
    adjacency: dict[int, list[tuple[int, LinkSpec]]] = field(init=False)

    def __post_init__(self):
        self.adjacency = {dc.id: [] for dc in self.dcs}
        for link in self.links:
            self.adjacency[link.a].append((link.b, link))
            self.adjacency[link.b].append((link.a, link))

    @property
    def dc_count(self) -> int:
        return len(self.dcs)

    def dc(self, dc_id: int) -> DataCenterSpec:
        return self.dcs[dc_id]

    def neighbors(self, dc_id: int) -> list[tuple[int, LinkSpec]]:
        return self.adjacency[dc_id]


def _euclidean(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def check_geometry(section: str, area_km: float, radius_km: float) -> None:
    """A generated network's area must be positive and finite, and its link
    radius finite and at least 0."""
    if not 0 < area_km < math.inf:  # also NaN
        raise TopologyError(f"{section}.area_km must be positive and finite, "
                            f"got {area_km}")
    if not 0 <= radius_km < math.inf:
        raise TopologyError(f"{section}.radius_km must be finite and at least "
                            f"0, got {radius_km}")


@dataclass
class TopologyConfig:
    """The `topology` config section: the explicit `dcs` and `links` if
    `dcs` is given, else a random geometric graph of `dc_count` DCs."""
    dc_count: int = 0
    area_km: float = 1000.0
    radius_km: float = 250.0
    storage_gb: float = 2048.0
    ram_gb: float = 256.0
    vcpu: float = 40.0
    link_bw_mbps: float = 1000.0
    seed: int | None = None  # unset: 0 here; the CLI uses the run seed
    dcs: list[dict] | None = None
    links: list[dict] | None = None

    def __post_init__(self):
        check_geometry("topology", self.area_km, self.radius_km)
        for key in ("storage_gb", "ram_gb", "vcpu", "link_bw_mbps"):
            value = getattr(self, key)
            if not 0 < value < math.inf:  # also NaN
                raise TopologyError(f"topology.{key} must be positive and "
                                    f"finite, got {value}")


_DC_CAPS = ("storage_gb", "vcpu", "ram_gb")  # unset: the section's defaults
_DC_KEYS = ("position", "id") + _DC_CAPS
_LINK_KEYS = ("a", "b", "distance_km", "bandwidth_mbps")


def _check_keys(entry, allowed: tuple[str, ...]) -> None:
    unknown = [key for key in entry if key not in allowed]
    if unknown:
        raise ValueError(f"unknown keys {unknown}, expected {list(allowed)}")


@contextmanager
def _malformed(section: str, i: int, entry):
    """Re-raise a failure to read one explicit entry as a TopologyError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"topology.{section}[{i}] is malformed ({exc!r}): "
                            f"{entry!r}") from exc


def build_network(config: TopologyConfig | dict) -> NetworkGraph:
    """Build a connected NetworkGraph from a TopologyConfig or a dict of its
    fields.

    Explicit topologies must already be connected. Generated ones are random
    geometric graphs whose components are joined Kruskal-style by the shortest
    pairs between them, which gives the same links as joining the two closest
    components again and again. One union-find finds the components of both.
    """
    cfg = config if isinstance(config, TopologyConfig) else TopologyConfig(**config)
    if cfg.dcs is not None:
        dcs = []
        for i, entry in enumerate(cfg.dcs):
            with _malformed("dcs", i, entry):
                _check_keys(entry, _DC_KEYS)
                x, y = (float(v) for v in entry["position"])
                caps = [float(entry.get(key, getattr(cfg, key)))
                        for key in _DC_CAPS]
                dc_id = int(entry.get("id", i))
            dcs.append(DataCenterSpec(dc_id, (x, y), *caps))
        ids = sorted(dc.id for dc in dcs)
        if ids != list(range(len(dcs))):
            raise TopologyError("DC ids must be unique and dense 0..N-1")
        dcs.sort(key=lambda d: d.id)
        if len(dcs) < 2:
            raise TopologyError("need at least 2 DCs")
        links = []
        seen = set()
        for i, entry in enumerate(cfg.links or []):
            with _malformed("links", i, entry):
                _check_keys(entry, _LINK_KEYS)
                a, b = sorted((int(entry["a"]), int(entry["b"])))
                if a < 0 or b >= len(dcs):
                    raise ValueError(f"endpoints must be DC ids 0..{len(dcs) - 1}")
                min_dist = _euclidean(dcs[a].position, dcs[b].position)
                dist = float(entry.get("distance_km", min_dist))
                bandwidth = float(entry.get("bandwidth_mbps", cfg.link_bw_mbps))
            if (a, b) in seen:
                raise TopologyError(f"duplicate link ({a},{b})")
            seen.add((a, b))
            if dist < min_dist - 1e-9:
                raise TopologyError(f"link ({a},{b}) shorter than DC separation")
            links.append(LinkSpec(a, b, bandwidth, dist))
    else:
        n = cfg.dc_count
        if n < 2:
            raise TopologyError("need at least 2 DCs")
        rng = np.random.default_rng(0 if cfg.seed is None else cfg.seed)
        pos = rng.uniform(0.0, cfg.area_km, size=(n, 2))
        dcs = [DataCenterSpec(i, (float(pos[i, 0]), float(pos[i, 1])),
                              cfg.storage_gb, cfg.vcpu, cfg.ram_gb)
               for i in range(n)]
        links = []
        for i in range(n):
            for j in range(i + 1, n):
                d = _euclidean(dcs[i].position, dcs[j].position)
                if d <= cfg.radius_km:
                    links.append(LinkSpec(i, j, cfg.link_bw_mbps, d))

    n = len(dcs)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for link in links:
        parent[find(link.a)] = find(link.b)
    roots = [find(i) for i in range(n)]
    if len(set(roots)) > 1:
        if cfg.dcs is not None:
            raise TopologyError("explicit topology is disconnected")
        # Kruskal: a pair skipped inside one component stays inside one, so
        # each accepted pair is the shortest (d, i, j) between two components
        pairs = sorted((_euclidean(dcs[i].position, dcs[j].position), i, j)
                       for i in range(n) for j in range(i + 1, n)
                       if roots[i] != roots[j])
        for d, i, j in pairs:
            if find(i) != find(j):
                links.append(LinkSpec(i, j, cfg.link_bw_mbps, d))
                parent[find(i)] = find(j)

    return NetworkGraph(dcs, links)


@dataclass
class ClusterPartition:
    assignment: dict[int, int]  # dc id -> cluster id
    clusters: dict[int, list[int]]  # cluster id -> sorted dc ids
    intra_links: dict[int, list[LinkSpec]]
    inter_links: list[LinkSpec]
    centroids: dict[int, tuple[float, float]]
    size_limit: int
    # cluster -> neighbour clusters, ascending (see cluster_adjacency)
    adjacency: dict[int, list[int]] = field(init=False)
    # (a, b) -> DCs of cluster b that an inter-cluster link from a enters
    gateways: dict[tuple[int, int], set[int]] = field(init=False)

    def __post_init__(self):
        self.adjacency = cluster_adjacency(self)
        self.gateways = {}
        for link in self.inter_links:
            ca, cb = self.assignment[link.a], self.assignment[link.b]
            self.gateways.setdefault((ca, cb), set()).add(link.b)
            self.gateways.setdefault((cb, ca), set()).add(link.a)

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def cluster_of(self, dc_id: int) -> int:
        return self.assignment[dc_id]


def _kmeans_pp_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    first = int(rng.integers(n))
    chosen = [first]
    d2 = np.sum((points - points[first]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # duplicate positions: fall back to lowest unchosen id
            for i in range(n):
                if i not in chosen:
                    chosen.append(i)
                    break
            continue
        r = float(rng.random()) * total
        idx = int(np.searchsorted(np.cumsum(d2), r))
        idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((points - points[idx]) ** 2, axis=1))
    return points[chosen].copy()


def _greedy_assign(points: np.ndarray, centroids: np.ndarray, size_limit: int) -> np.ndarray:
    n, k = len(points), len(centroids)
    dist = np.sqrt(((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
    if k == 1:
        return np.zeros(n, dtype=np.intp)
    # each DC's clusters nearest first; the stable sort puts equal distances
    # in index order, so ties go to the lowest cluster index
    prefs = np.argsort(dist, axis=1, kind="stable")
    part = np.take_along_axis(dist, prefs[:, :2], axis=1)
    # most committed DCs (largest gap between best and runner-up) assigned first
    order = np.argsort(part[:, 0] - part[:, 1], kind="stable")
    remaining = [size_limit] * k
    assign = np.empty(n, dtype=np.intp)
    rows = prefs.tolist()
    for i in order.tolist():
        for c in rows[i]:  # the nearest open centroid
            if remaining[c]:
                break
        assign[i] = c
        remaining[c] -= 1
    return assign


def make_clusters(graph: NetworkGraph, size_limit: int, seed: int) -> ClusterPartition:
    """Partition DCs into clusters of at most `size_limit` members.

    Lloyd iterations with a capacity-respecting greedy assignment step;
    k-means++ seeding; deterministic for a fixed seed. The centroids fix
    every later iteration (an empty cluster keeps its centroid), so the loop
    stops when the assignment repeats the previous one, or when the
    centroids repeat earlier ones; in a cycle it returns the phase that
    iteration MAX_KMEANS_ITERS lands on, without running up to it.
    """
    n = graph.dc_count
    if size_limit < 1:
        raise TopologyError("size_limit must be >= 1")
    if size_limit > n:
        size_limit = n
    k = math.ceil(n / size_limit)
    points = np.array([graph.dc(i).position for i in range(n)], dtype=float)
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_seeds(points, k, rng)

    history: list[np.ndarray] = []  # the centroids of iteration t at index t
    first_seen: dict[bytes, int] = {}
    prev = None
    for it in range(MAX_KMEANS_ITERS + 1):
        start = first_seen.setdefault(centroids.tobytes(), it)
        if start != it:
            # iteration it repeats iteration start, so every later one
            # repeats with period it - start: take the phase of the cap
            centroids = history[start + (MAX_KMEANS_ITERS - start) % (it - start)]
        assign = np.asarray(_greedy_assign(points, centroids, size_limit))
        if (start != it or it == MAX_KMEANS_ITERS
                or prev is not None and np.array_equal(assign, prev)):
            break
        history.append(centroids)
        prev = assign
        new_centroids = centroids.copy()
        for c in range(k):
            members = np.flatnonzero(assign == c)
            if len(members):
                new_centroids[c] = points[members].mean(axis=0)
        centroids = new_centroids
    assign = assign.tolist()

    # drop empty clusters; renumber by ascending lowest member id
    members_by_c: dict[int, list[int]] = {}
    for i, c in enumerate(assign):
        members_by_c.setdefault(c, []).append(i)
    old_ids = sorted(members_by_c, key=lambda c: min(members_by_c[c]))
    remap = {old: new for new, old in enumerate(old_ids)}

    assignment = {i: remap[assign[i]] for i in range(n)}
    clusters = {remap[c]: sorted(members_by_c[c]) for c in old_ids}
    cents = {remap[c]: (float(centroids[c][0]), float(centroids[c][1])) for c in old_ids}

    intra: dict[int, list[LinkSpec]] = {c: [] for c in clusters}
    inter: list[LinkSpec] = []
    for link in graph.links:
        ca, cb = assignment[link.a], assignment[link.b]
        if ca == cb:
            intra[ca].append(link)
        else:
            inter.append(link)

    return ClusterPartition(assignment, clusters, intra, inter, cents, size_limit)


def cluster_adjacency(partition: ClusterPartition) -> dict[int, list[int]]:
    """Cluster-level graph: edge (a,b) iff some inter-cluster link joins them."""
    adj: dict[int, set[int]] = {c: set() for c in partition.clusters}
    for link in partition.inter_links:
        ca = partition.assignment[link.a]
        cb = partition.assignment[link.b]
        adj[ca].add(cb)
        adj[cb].add(ca)
    return {c: sorted(neigh) for c, neigh in sorted(adj.items())}
