"""Bandwidth-filtered path discovery: intra-cluster Dijkstra (D2D), cluster-graph
DFS (C2C), and the combined two-cluster iterative traversal."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .topology import ClusterPartition, LinkSpec, NetworkGraph
# stays importable here: perfbench's tracer wraps routing.cluster_adjacency
from .topology import cluster_adjacency  # noqa: F401

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


def _shortest_to(nodes: set[int], graph: NetworkGraph, link_free: LinkFree,
                 src: int, targets: set[int], required_bw: float,
                 counters: RouteCounters | None) -> PathResult | None:
    """Shortest path from src to the nearest DC of `targets` (src not among
    them) over bandwidth-feasible links inside `nodes`; None if none is
    reachable.

    Dijkstra that stops at the first target it settles: settled distances and
    predecessors are final, and the heap settles equal distances lowest id
    first, so that is the nearest target with the lowest id, and every other
    DC of the path, settled before it, is no target."""
    dist: dict[int, float] = {src: 0.0}
    prev: dict[int, tuple[int, LinkSpec]] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, src)]
    end = None
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u in targets:
            end = u
            break
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
    if end is None:
        return None
    hops, links = [end], []
    while hops[-1] != src:
        u, link = prev[hops[-1]]
        hops.append(u)
        links.append(link)
    return PathResult(hops[::-1], dist[end], links[::-1])


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
    return _shortest_to(nodes, graph, link_free, src, {dst}, required_bw,
                        counters)


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


def find_path(partition: ClusterPartition, graph: NetworkGraph, link_free: LinkFree,
              src: int, dst: int, required_bw: float,
              counters: RouteCounters | None = None) -> PathResult | None:
    """Two-level path discovery.

    Same-cluster queries use D2D directly. Cross-cluster queries follow the DFS
    cluster path, running D2D over the union of exactly two consecutive clusters
    per segment (entry DC to the nearest gateway of the next cluster, or to the
    destination once its cluster is reached).

    The path is simple by construction: each segment but the last ends at the
    first gateway of b its search settles, so its other DCs lie in a, and the
    cluster path is simple, so no DC repeats.

    The cluster adjacency and gateway sets are the partition's, built once
    with it; the cluster path costs O(V+E) in the cluster graph.
    """
    src_c = partition.cluster_of(src)
    dst_c = partition.cluster_of(dst)
    if src_c == dst_c:
        return d2d_shortest_path(partition.clusters[src_c], graph, link_free,
                                 src, dst, required_bw, counters)

    cpath = c2c_cluster_path(partition.adjacency, src_c, dst_c, counters)
    if cpath is None:
        return None

    entry = src
    hops: list[int] = [src]
    links: list[LinkSpec] = []
    for a, b in zip(cpath, cpath[1:]):
        nodes = set(partition.clusters[a]) | set(partition.clusters[b])
        # adjacent clusters share an inter-cluster link: (a, b) has gateways
        targets = {dst} if b == dst_c else partition.gateways[(a, b)]
        seg = _shortest_to(nodes, graph, link_free, entry, targets,
                           required_bw, counters)
        if seg is None:
            return None
        hops.extend(seg.hops[1:])
        links.extend(seg.links_used)
        # a gateway of b, or dst in the last segment
        entry = seg.hops[-1]
    # every link passed the Dijkstra bandwidth filter, and link state does
    # not change within the call, so the path is feasible as it stands
    return PathResult(hops, sum(l.distance for l in links), links)
