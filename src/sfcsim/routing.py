"""Bandwidth-filtered path discovery: intra-cluster Dijkstra (D2D), cluster-graph
DFS (C2C), and the combined two-cluster iterative traversal."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .topology import ClusterPartition, LinkSpec, NetworkGraph, cluster_adjacency

LinkFree = Callable[[LinkSpec], float]


class RoutingError(ValueError):
    pass


@dataclass
class PathResult:
    hops: list[int]  # first = source, last = destination
    total_distance: float  # km
    links_used: list[LinkSpec]


@dataclass
class RouteCounters:
    """Instrumentation for complexity checks."""
    dijkstra_settled: list[int] = field(default_factory=list)
    dfs_edges: list[int] = field(default_factory=list)

    @property
    def max_settled(self) -> int:
        return max(self.dijkstra_settled, default=0)

    def reset(self) -> None:
        self.dijkstra_settled.clear()
        self.dfs_edges.clear()


@dataclass(frozen=True)
class RoutingTables:
    """Cluster-level routing tables of one partition."""
    adjacency: dict[int, list[int]]  # cluster -> neighbor clusters, ascending
    # (a, b) -> sorted DCs of cluster b that an inter-cluster link from a enters
    gateways: dict[tuple[int, int], list[int]]


def routing_tables(partition: ClusterPartition) -> RoutingTables:
    """The partition's routing tables, built on first use and cached on it."""
    if partition.routing_cache is None:
        gateways: dict[tuple[int, int], set[int]] = {}
        for link in partition.inter_links:
            ca, cb = partition.cluster_of(link.a), partition.cluster_of(link.b)
            gateways.setdefault((ca, cb), set()).add(link.b)
            gateways.setdefault((cb, ca), set()).add(link.a)
        partition.routing_cache = RoutingTables(
            cluster_adjacency(partition),
            {pair: sorted(dcs) for pair, dcs in gateways.items()})
    return partition.routing_cache


def _dijkstra(nodes: set[int], graph: NetworkGraph, link_free: LinkFree,
              src: int, required_bw: float,
              counters: RouteCounters | None) -> tuple[dict[int, float], dict[int, tuple[int, LinkSpec]]]:
    """Single-source shortest distances over bandwidth-feasible links inside `nodes`."""
    dist: dict[int, float] = {src: 0.0}
    prev: dict[int, tuple[int, LinkSpec]] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, link in graph.neighbors(u):
            if v not in nodes or v in settled:
                continue
            if link_free(link) < required_bw:
                continue
            nd = d + link.distance
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                prev[v] = (u, link)
                heapq.heappush(heap, (nd, v))
    if counters is not None:
        counters.dijkstra_settled.append(len(settled))
    return dist, prev


def _reconstruct(src: int, dst: int, prev: dict[int, tuple[int, LinkSpec]],
                 dist: dict[int, float]) -> PathResult:
    hops = [dst]
    links: list[LinkSpec] = []
    u = dst
    while u != src:
        p, link = prev[u]
        links.append(link)
        hops.append(p)
        u = p
    hops.reverse()
    links.reverse()
    return PathResult(hops, dist[dst], links)


def d2d_shortest_path(subgraph: Iterable[int], graph: NetworkGraph, link_free: LinkFree,
                      src: int, dst: int, required_bw: float,
                      counters: RouteCounters | None = None) -> PathResult | None:
    """Minimum-distance path between DCs of `subgraph` whose links all have at
    least `required_bw` available. None if no feasible path exists."""
    nodes = set(subgraph)
    if src not in nodes or dst not in nodes:
        raise RoutingError(f"src {src} or dst {dst} outside subgraph")
    if src == dst:
        return PathResult([src], 0.0, [])
    dist, prev = _dijkstra(nodes, graph, link_free, src, required_bw, counters)
    if dst not in dist:
        return None
    return _reconstruct(src, dst, prev, dist)


def c2c_cluster_path(cluster_graph: dict[int, list[int]], src_cluster: int,
                     dst_cluster: int,
                     counters: RouteCounters | None = None) -> list[int] | None:
    """First simple path found by DFS (neighbors in the listed order, which is
    ascending cluster id for `cluster_adjacency`).

    One visited set serves the whole search, so it costs O(V+E): each
    cluster's neighbor list is scanned at most once. In an undirected graph a
    cluster whose subtree failed to reach the destination cannot reach it
    later either, so the path found is the one a search that re-explores
    every simple path would find first. The search is iterative and cannot
    hit the recursion limit on deep cluster graphs."""
    if src_cluster not in cluster_graph or dst_cluster not in cluster_graph:
        return None
    if src_cluster == dst_cluster:
        return [src_cluster]
    visited_edges = 0
    path = [src_cluster]
    visited = {src_cluster}
    stack = [iter(cluster_graph[src_cluster])]  # stack[i] scans path[i]
    found = False
    while stack and not found:
        for nb in stack[-1]:
            visited_edges += 1
            if nb in visited:
                continue
            visited.add(nb)
            path.append(nb)
            if nb == dst_cluster:
                found = True
            else:
                stack.append(iter(cluster_graph[nb]))
            break
        else:
            stack.pop()
            path.pop()
    if counters is not None:
        counters.dfs_edges.append(visited_edges)
    return path if found else None


def _nearest_target(entry: int, targets: list[int], nodes: set[int],
                    graph: NetworkGraph, link_free: LinkFree, required_bw: float,
                    counters: RouteCounters | None) -> PathResult | None:
    """Shortest feasible path from entry to the nearest of `targets` inside nodes."""
    dist, prev = _dijkstra(nodes, graph, link_free, entry, required_bw, counters)
    best = None
    for t in sorted(targets):
        if t == entry:
            return PathResult([entry], 0.0, [])
        if t in dist and (best is None or dist[t] < dist[best]):
            best = t
    if best is None:
        return None
    return _reconstruct(entry, best, prev, dist)


def _strip_loops(path: PathResult) -> PathResult:
    """Remove revisit cycles, keeping the first occurrence of each DC."""
    if len(set(path.hops)) == len(path.hops):
        return path
    hops: list[int] = []
    links: list[LinkSpec] = []
    index: dict[int, int] = {}
    for i, h in enumerate(path.hops):
        if h in index:
            cut = index[h]
            for removed in hops[cut + 1:]:
                del index[removed]
            del links[cut:]
            del hops[cut + 1:]
        else:
            hops.append(h)
            index[h] = len(hops) - 1
            if i > 0:
                links.append(path.links_used[i - 1])
    return PathResult(hops, sum(l.distance for l in links), links)


def find_path(partition: ClusterPartition, graph: NetworkGraph, link_free: LinkFree,
              src: int, dst: int, required_bw: float,
              counters: RouteCounters | None = None) -> PathResult | None:
    """Two-level path discovery.

    Same-cluster queries use D2D directly. Cross-cluster queries follow the DFS
    cluster path, running D2D over the union of exactly two consecutive clusters
    per segment (entry DC to the nearest gateway of the next cluster, or to the
    destination once its cluster is reached).

    The cluster adjacency and gateway lists come from `routing_tables`, built
    once per partition; the cluster path costs O(V+E) in the cluster graph.
    """
    src_c = partition.cluster_of(src)
    dst_c = partition.cluster_of(dst)
    if src_c == dst_c:
        return d2d_shortest_path(partition.clusters[src_c], graph, link_free,
                                 src, dst, required_bw, counters)

    tables = routing_tables(partition)
    cpath = c2c_cluster_path(tables.adjacency, src_c, dst_c, counters)
    if cpath is None:
        return None

    entry = src
    hops: list[int] = [src]
    links: list[LinkSpec] = []
    for a, b in zip(cpath, cpath[1:]):
        nodes = set(partition.clusters[a]) | set(partition.clusters[b])
        if b == dst_c:
            targets = [dst]
        else:
            targets = tables.gateways.get((a, b))
            if not targets:
                return None
        seg = _nearest_target(entry, targets, nodes, graph, link_free,
                              required_bw, counters)
        if seg is None:
            return None
        hops.extend(seg.hops[1:])
        links.extend(seg.links_used)
        entry = seg.hops[-1]
        if b != dst_c and partition.cluster_of(entry) != b:
            # gateway selection guarantees entry lands in b
            return None
    if entry != dst:
        return None
    result = _strip_loops(PathResult(hops, sum(l.distance for l in links), links))
    # re-walk feasibility check
    for link in result.links_used:
        if link_free(link) < required_bw:
            return None
    return result
