"""Network graph construction and size-bounded clustering of data centers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Iterable

import numpy as np

from .schema import AT_LEAST_0, FINITE, FINITE_AT_LEAST_0, POSITIVE, Section, \
    convert

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


@dataclass(frozen=True)
class LinkSpec:
    a: int  # the lower DC id
    b: int
    bandwidth_cap: float  # Mbps
    distance: float  # km

    @property
    def key(self) -> tuple[int, int]:
        return (self.a, self.b)


# DC id -> (other end, link) for each link at the DC among the table's links
NeighbourTable = dict[int, list[tuple[int, LinkSpec]]]


def neighbour_table(dc_ids: Iterable[int], links: Iterable[LinkSpec]) -> NeighbourTable:
    """The neighbour table of `dc_ids` over `links`, whose ends all lie
    among them; each DC's pairs are in `links` order."""
    table: NeighbourTable = {dc: [] for dc in dc_ids}
    for link in links:
        table[link.a].append((link.b, link))
        table[link.b].append((link.a, link))
    return table


class RouteTable(dict):
    """A partition's neighbour table that also keeps `routes`, the memo of
    the route searches over it with every link admitted: search key ->
    `routing.PathResult` or None. `routing` fills it as searches are asked
    for; it lives and dies with the table."""
    __slots__ = ("routes",)

    def __init__(self, table: NeighbourTable):
        super().__init__(table)
        self.routes: dict[tuple, object] = {}


@dataclass
class NetworkGraph:
    dcs: list[DataCenterSpec]
    links: list[LinkSpec]
    adjacency: NeighbourTable = field(init=False)  # the whole network's

    def __post_init__(self):
        self.adjacency = neighbour_table((dc.id for dc in self.dcs), self.links)

    @property
    def dc_count(self) -> int:
        return len(self.dcs)


def _euclidean(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


@dataclass(frozen=True)
class DcEntry:
    """One `topology.dcs` entry; an unset id is the entry's index, and an
    unset capacity is the section's."""
    position: tuple[Annotated[float, FINITE], Annotated[float, FINITE]]  # km
    id: int | None = None
    storage_gb: Annotated[float, POSITIVE] | None = None
    vcpu: Annotated[float, POSITIVE] | None = None
    ram_gb: Annotated[float, POSITIVE] | None = None


@dataclass(frozen=True)
class LinkEntry:
    """One `topology.links` entry; an unset distance is the DCs' separation,
    and an unset bandwidth is the section's `link_bw_mbps`."""
    a: int
    b: int
    distance_km: Annotated[float, FINITE] | None = None
    bandwidth_mbps: Annotated[float, POSITIVE] | None = None


@dataclass
class TopologyConfig(Section, name="topology"):
    """The `topology` config section: the explicit `dcs` and `links` if
    `dcs` is given, else a random geometric graph of `dc_count` DCs."""
    dc_count: int = 0
    area_km: Annotated[float, POSITIVE] = 1000.0
    radius_km: Annotated[float, FINITE_AT_LEAST_0] = 250.0
    storage_gb: Annotated[float, POSITIVE] = 2048.0
    ram_gb: Annotated[float, POSITIVE] = 256.0
    vcpu: Annotated[float, POSITIVE] = 40.0
    link_bw_mbps: Annotated[float, POSITIVE] = 1000.0
    seed: Annotated[int, AT_LEAST_0] | None = None  # unset: 0, or the run seed
    dcs: list[DcEntry] | None = None
    links: list[LinkEntry] | None = None


def _unset(value, default):
    return default if value is None else value


def build_network(config: TopologyConfig | dict) -> NetworkGraph:
    """Build a connected NetworkGraph from a TopologyConfig or a dict of its
    fields.

    Explicit topologies must already be connected. Generated ones are random
    geometric graphs whose components are joined Kruskal-style by the shortest
    pairs between them, which gives the same links as joining the two closest
    components again and again. One union-find finds the components of both.
    """
    try:
        cfg = convert(config, TopologyConfig, "topology")
    except ValueError as exc:  # a value its field does not take
        raise TopologyError(str(exc)) from None
    if cfg.dcs is not None:
        dcs = [DataCenterSpec(_unset(entry.id, i), entry.position,
                              _unset(entry.storage_gb, cfg.storage_gb),
                              _unset(entry.vcpu, cfg.vcpu),
                              _unset(entry.ram_gb, cfg.ram_gb))
               for i, entry in enumerate(cfg.dcs)]
        ids = sorted(dc.id for dc in dcs)
        if ids != list(range(len(dcs))):
            raise TopologyError("DC ids must be unique and dense 0..N-1")
        dcs.sort(key=lambda d: d.id)
        if len(dcs) < 2:
            raise TopologyError("need at least 2 DCs")
        links = []
        seen = set()
        for i, entry in enumerate(cfg.links or []):
            a, b = sorted((entry.a, entry.b))
            where = f"topology.links[{i}]"
            if a < 0 or b >= len(dcs):
                raise TopologyError(f"{where}: endpoints must be DC ids "
                                    f"0..{len(dcs) - 1}, got {a} and {b}")
            if a == b:
                raise TopologyError(f"{where}: self-loop link at DC {a}")
            if (a, b) in seen:
                raise TopologyError(f"{where}: duplicate link ({a},{b})")
            seen.add((a, b))
            min_dist = _euclidean(dcs[a].position, dcs[b].position)
            dist = _unset(entry.distance_km, min_dist)
            if dist < min_dist - 1e-9:
                raise TopologyError(f"{where}: link ({a},{b}) shorter than DC "
                                    "separation")
            links.append(LinkSpec(a, b, _unset(entry.bandwidth_mbps,
                                               cfg.link_bw_mbps), dist))
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
    """DCs grouped into clusters, with the routing tables built from them
    once: the cluster adjacency, the gateways of each adjacent pair, and a
    `RouteTable` per cluster and per adjacent pair. A partition is built per
    episode, so each table's memo of route searches (`routing._route`) holds
    at most the episode's distinct searches."""
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
    # cluster -> neighbour table of its DCs over its intra links
    cluster_tables: dict[int, RouteTable] = field(init=False)
    # (a, b) and (b, a), for adjacent a and b -> one neighbour table of the
    # DCs of both over their intra links and the links joining them
    pair_tables: dict[tuple[int, int], RouteTable] = field(init=False)

    def __post_init__(self):
        self.adjacency = cluster_adjacency(self)
        self.gateways = {}
        self.cluster_tables = {
            c: RouteTable(neighbour_table(dcs, self.intra_links[c]))
            for c, dcs in self.clusters.items()}
        self.pair_tables = {}
        for link in self.inter_links:
            ca, cb = self.assignment[link.a], self.assignment[link.b]
            self.gateways.setdefault((ca, cb), set()).add(link.b)
            self.gateways.setdefault((cb, ca), set()).add(link.a)
            table = self.pair_tables.get((ca, cb))
            if table is None:  # the pair's first link: start from its clusters'
                table = RouteTable({
                    dc: pairs.copy() for c in (ca, cb)
                    for dc, pairs in self.cluster_tables[c].items()})
                self.pair_tables[(ca, cb)] = self.pair_tables[(cb, ca)] = table
            table[link.a].append((link.b, link))
            table[link.b].append((link.a, link))

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
    """Each DC's nearest centroid with room, DCs with the widest gap between
    their two nearest taken first, ties to the lowest index; only a DC whose
    nearest centroid is full pays for a masked `argmin`."""
    n, k = len(points), len(centroids)
    if k == 1:
        return np.zeros(n, dtype=np.intp)
    dx = points[:, :1] - centroids[:, 0]
    dy = points[:, 1:] - centroids[:, 1]
    dist = np.sqrt(dx * dx + dy * dy)
    part = np.partition(dist, 1, axis=1)
    order = np.argsort(part[:, 0] - part[:, 1], kind="stable")
    nearest = dist.argmin(axis=1).tolist()
    remaining = [size_limit] * k
    full = np.zeros(k, dtype=bool)
    assign = np.empty(n, dtype=np.intp)
    for i in order.tolist():
        c = nearest[i]
        if not remaining[c]:
            c = int(np.where(full, np.inf, dist[i]).argmin())
        assign[i] = c
        remaining[c] -= 1
        if not remaining[c]:
            full[c] = True
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
    points = np.array([graph.dcs[i].position for i in range(n)], dtype=float)
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
        # the members' means; bincount adds in DC order, as mean(axis=0) does
        sizes = np.bincount(assign, minlength=k)[:, None]
        sums = np.array([np.bincount(assign, xs, k) for xs in points.T]).T
        centroids = np.divide(sums, sizes, out=centroids.copy(), where=sizes > 0)
    assign = assign.tolist()

    # drop empty clusters; number the rest in order of their lowest member
    remap = {old: new for new, old in enumerate(dict.fromkeys(assign))}
    assignment = {i: remap[c] for i, c in enumerate(assign)}
    clusters: dict[int, list[int]] = {c: [] for c in remap.values()}
    for i, c in assignment.items():
        clusters[c].append(i)
    cents = {new: tuple(centroids[old].tolist()) for old, new in remap.items()}

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
