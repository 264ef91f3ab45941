"""Network graph construction and size-bounded clustering of data centers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CENTROID_TOL_KM = 1e-9
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
        if self.storage_cap <= 0 or self.compute_cap <= 0 or self.ram_cap <= 0:
            raise TopologyError(f"DC {self.id}: capacities must be positive")


@dataclass(frozen=True)
class LinkSpec:
    a: int
    b: int
    bandwidth_cap: float  # Mbps
    distance: float  # km

    def __post_init__(self):
        if self.a == self.b:
            raise TopologyError(f"self-loop link at DC {self.a}")
        if self.bandwidth_cap <= 0:
            raise TopologyError(f"link ({self.a},{self.b}): bandwidth must be positive")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def key(self) -> tuple[int, int]:
        return (self.a, self.b)

    def other(self, dc_id: int) -> int:
        return self.b if dc_id == self.a else self.a


@dataclass
class NetworkGraph:
    dcs: list[DataCenterSpec]
    links: list[LinkSpec]
    adjacency: dict[int, list[LinkSpec]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.adjacency:
            self.adjacency = {dc.id: [] for dc in self.dcs}
            for link in self.links:
                self.adjacency[link.a].append(link)
                self.adjacency[link.b].append(link)

    @property
    def dc_count(self) -> int:
        return len(self.dcs)

    def dc(self, dc_id: int) -> DataCenterSpec:
        return self.dcs[dc_id]

    def neighbors(self, dc_id: int):
        for link in self.adjacency[dc_id]:
            yield link.other(dc_id), link


def _euclidean(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _is_connected(n: int, links: list[LinkSpec]) -> bool:
    if n == 0:
        return False
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for link in links:
        adj[link.a].append(link.b)
        adj[link.b].append(link.a)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def build_network(config: dict) -> NetworkGraph:
    """Build a connected NetworkGraph from an explicit or generated topology.

    Explicit topologies must already be connected; generated ones are random
    geometric graphs repaired to connectivity by adding minimum-distance edges.
    """
    cfg = dict(config)
    storage = float(cfg.get("storage_gb", 2048.0))
    vcpu = float(cfg.get("vcpu", 40.0))
    ram = float(cfg.get("ram_gb", 256.0))
    link_bw = float(cfg.get("link_bw_mbps", 1000.0))

    if "dcs" in cfg:
        dcs = []
        for i, entry in enumerate(cfg["dcs"]):
            dcs.append(DataCenterSpec(
                id=int(entry.get("id", i)),
                position=tuple(float(x) for x in entry["position"]),
                storage_cap=float(entry.get("storage_gb", storage)),
                compute_cap=float(entry.get("vcpu", vcpu)),
                ram_cap=float(entry.get("ram_gb", ram)),
            ))
        ids = sorted(dc.id for dc in dcs)
        if ids != list(range(len(dcs))):
            raise TopologyError("DC ids must be unique and dense 0..N-1")
        dcs.sort(key=lambda d: d.id)
        if len(dcs) < 2:
            raise TopologyError("need at least 2 DCs")
        links = []
        seen = set()
        for entry in cfg.get("links", []):
            a, b = int(entry["a"]), int(entry["b"])
            if a > b:
                a, b = b, a
            if (a, b) in seen:
                raise TopologyError(f"duplicate link ({a},{b})")
            seen.add((a, b))
            dist = float(entry.get("distance_km",
                                   _euclidean(dcs[a].position, dcs[b].position)))
            min_dist = _euclidean(dcs[a].position, dcs[b].position)
            if dist < min_dist - 1e-9:
                raise TopologyError(f"link ({a},{b}) shorter than DC separation")
            links.append(LinkSpec(a, b, float(entry.get("bandwidth_mbps", link_bw)), dist))
        if not _is_connected(len(dcs), links):
            raise TopologyError("explicit topology is disconnected")
        return NetworkGraph(dcs, links)

    n = int(cfg.get("dc_count", 0))
    if n < 2:
        raise TopologyError("need at least 2 DCs")
    area = float(cfg.get("area_km", 1000.0))
    radius = float(cfg.get("radius_km", 250.0))
    seed = int(cfg.get("seed", 0))

    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, area, size=(n, 2))
    dcs = [DataCenterSpec(i, (float(pos[i, 0]), float(pos[i, 1])), storage, vcpu, ram)
           for i in range(n)]

    links = []
    link_keys = set()
    for i in range(n):
        for j in range(i + 1, n):
            d = _euclidean(dcs[i].position, dcs[j].position)
            if d <= radius:
                links.append(LinkSpec(i, j, link_bw, d))
                link_keys.add((i, j))

    # connectivity repair: merge components along their closest DC pair
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for link in links:
        parent[find(link.a)] = find(link.b)
    while True:
        roots = {find(i) for i in range(n)}
        if len(roots) == 1:
            break
        best = None
        for i in range(n):
            for j in range(i + 1, n):
                if find(i) != find(j) and (i, j) not in link_keys:
                    d = _euclidean(dcs[i].position, dcs[j].position)
                    if best is None or d < best[0]:
                        best = (d, i, j)
        d, i, j = best
        links.append(LinkSpec(i, j, link_bw, d))
        link_keys.add((i, j))
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
    # routing.RoutingTables derived from the fields above, built on first use
    # by routing.routing_tables; partitions are not modified once made
    routing_cache: object = field(default=None, init=False, repr=False,
                                  compare=False)

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


def _greedy_assign(points: np.ndarray, centroids: np.ndarray, size_limit: int) -> list[int]:
    n, k = len(points), len(centroids)
    dist = np.sqrt(((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
    if k == 1:
        return [0] * n
    part = np.sort(dist, axis=1)
    # most committed DCs (largest gap between best and runner-up) assigned first
    order = sorted(range(n), key=lambda i: (part[i, 0] - part[i, 1], i))
    remaining = [size_limit] * k
    assign = [-1] * n
    for i in order:
        best = min((c for c in range(k) if remaining[c] > 0),
                   key=lambda c: (dist[i, c], c))
        assign[i] = best
        remaining[best] -= 1
    return assign


def make_clusters(graph: NetworkGraph, size_limit: int, seed: int) -> ClusterPartition:
    """Partition DCs into clusters of at most `size_limit` members.

    Lloyd iterations with a capacity-respecting greedy assignment step;
    k-means++ seeding; deterministic for a fixed seed.
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

    prev = None
    assign = _greedy_assign(points, centroids, size_limit)
    for _ in range(MAX_KMEANS_ITERS):
        if assign == prev:
            break
        prev = assign
        new_centroids = centroids.copy()
        for c in range(k):
            members = [i for i in range(n) if assign[i] == c]
            if members:
                new_centroids[c] = points[members].mean(axis=0)
        moved = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        assign = _greedy_assign(points, centroids, size_limit)
        if moved <= CENTROID_TOL_KM and assign == prev:
            break

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
