"""Bandwidth-filtered path discovery: intra-cluster Dijkstra (D2D), cluster-graph
DFS (C2C), and the combined two-cluster iterative traversal. A partition's
searches are memoised on its tables (`_route`)."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

from .topology import ClusterPartition, LinkSpec, NeighbourTable, RouteTable
# stays importable here: perfbench's tracer wraps routing.cluster_adjacency
from .topology import cluster_adjacency  # noqa: F401

LinkFree = Callable[[LinkSpec], float]


class RoutingError(ValueError):
    pass


@dataclass
class PathResult:
    """A routed path. A partition's memo hands the same result to every
    search it answers, so no caller may change one."""
    hops: list[int]  # first = source, last = destination
    total_distance: float  # km
    links_used: list[LinkSpec]


@dataclass
class RouteCounters:
    """Instrumentation for complexity checks. `dijkstra_settled` gets one
    entry per Dijkstra that runs: a search a partition's memo answers runs
    none, and one it cannot answer may run two (`_route`)."""
    dijkstra_settled: list[int] = field(default_factory=list)
    dfs_edges: list[int] = field(default_factory=list)


def _shortest_to(table: NeighbourTable, link_free: LinkFree, src: int,
                 targets: set[int], required_bw: float,
                 counters: RouteCounters | None) -> PathResult | None:
    """Shortest path from src to the nearest DC of `targets` (src not among
    them) over the bandwidth-feasible links of `table`; None if none is
    reachable.

    Dijkstra that stops at the first target it settles: settled distances and
    predecessors are final, and the heap settles equal distances lowest id
    first, so that is the nearest target with the lowest id, and every other
    DC of the path, settled before it, is no target. A link's free bandwidth
    is asked for only when the link would shorten its far end's distance;
    `link_free` is pure and relaxation strict, so neither this order nor the
    order of a DC's neighbours changes the path."""
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
        for v, link in table[u]:
            nd = d + link.distance
            if (nd < dist.get(v, math.inf) and v not in settled
                    and not link_free(link) < required_bw):
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


def _unlimited(link: LinkSpec) -> float:
    return math.inf


def _route(table: RouteTable, key: tuple, link_free: LinkFree, src: int,
           targets: set[int], required_bw: float,
           counters: RouteCounters | None) -> PathResult | None:
    """What `_shortest_to(table, link_free, src, targets, required_bw,
    counters)` returns, read from the table's memo when it can be.

    `key` names the search within `table`. The memo keeps the search's
    answer with every link admitted. None answers None, since the filter only
    removes links. A path whose every link has room is the answer as it
    stands; otherwise the filtered search runs, and its answer is not kept.

    Why a feasible memoised path P to target t is exactly the filtered
    answer, distances bit for bit: float addition is monotone, so the
    filtered search's distances are never lower than the unfiltered ones.
    The DCs of P keep theirs, since P's links are all admitted and each
    distance on P is the same sum of the same floats. A DC's candidate
    predecessors (settled DCs whose distance plus the link gives its final
    distance), and the candidate targets, can only shrink, and each keeps a
    (distance, id) settle key no lower than before. Relaxation is strict, so
    a DC's predecessor is its earliest-settled candidate, and the search
    stops at the first target it settles; P's predecessors and t settle with
    unchanged keys, so they stay the earliest, and the filtered search
    rebuilds P, with t's distance."""
    routes = table.routes
    if key in routes:
        path = routes[key]
    else:
        path = routes[key] = _shortest_to(table, _unlimited, src, targets,
                                          0.0, counters)
    if path is None or all(not link_free(link) < required_bw
                           for link in path.links_used):
        return path
    return _shortest_to(table, link_free, src, targets, required_bw, counters)


def d2d_shortest_path(table: NeighbourTable, link_free: LinkFree, src: int,
                      dst: int, required_bw: float,
                      counters: RouteCounters | None = None) -> PathResult | None:
    """Minimum-distance path between DCs of `table` over its links, each with
    at least `required_bw` available. None if no feasible path exists.

    `table` is a partition's table of one cluster, whose memo answers the
    search when it can (`_route`), or a network's `adjacency` for the whole
    network, searched on every call."""
    if src not in table or dst not in table:
        raise RoutingError(f"src {src} or dst {dst} outside the table")
    if src == dst:
        return PathResult([src], 0.0, [])
    if isinstance(table, RouteTable):
        return _route(table, (src, dst), link_free, src, {dst}, required_bw,
                      counters)
    return _shortest_to(table, link_free, src, {dst}, required_bw, counters)


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


def find_path(partition: ClusterPartition, link_free: LinkFree, src: int,
              dst: int, required_bw: float,
              counters: RouteCounters | None = None) -> PathResult | None:
    """Two-level path discovery.

    Same-cluster queries use D2D over the cluster's neighbour table.
    Cross-cluster queries follow the DFS cluster path, searching the
    neighbour table of exactly two consecutive clusters per segment (entry DC
    to the nearest gateway of the next cluster, or to the destination once
    its cluster is reached).

    The path is simple by construction: each segment but the last ends at the
    first gateway of b its search settles, so its other DCs lie in a, and the
    cluster path is simple, so no DC repeats.

    The cluster adjacency, gateway sets and neighbour tables are the
    partition's, built once with it; the cluster path costs O(V+E) in the
    cluster graph. Each Dijkstra, the same-cluster one and each segment's,
    is answered from its table's memo when it can be (`_route`), with the
    same result as a fresh search.
    """
    src_c = partition.cluster_of(src)
    dst_c = partition.cluster_of(dst)
    if src_c == dst_c:
        return d2d_shortest_path(partition.cluster_tables[src_c], link_free,
                                 src, dst, required_bw, counters)

    cpath = c2c_cluster_path(partition.adjacency, src_c, dst_c, counters)
    if cpath is None:
        return None

    entry = src
    hops: list[int] = [src]
    links: list[LinkSpec] = []
    for a, b in zip(cpath, cpath[1:]):
        # adjacent clusters share an inter-cluster link: (a, b) has gateways
        # and a table. The table serves (b, a) too, but entry lies in a, so
        # (entry, None) names the search to the gateways of b
        if b == dst_c:
            key, targets = (entry, dst), {dst}
        else:
            key, targets = (entry, None), partition.gateways[(a, b)]
        seg = _route(partition.pair_tables[(a, b)], key, link_free, entry,
                     targets, required_bw, counters)
        if seg is None:
            return None
        hops.extend(seg.hops[1:])
        links.extend(seg.links_used)
        # a gateway of b, or dst in the last segment
        entry = seg.hops[-1]
    # every link passed the Dijkstra bandwidth filter, and link state does
    # not change within the call, so the path is feasible as it stands
    return PathResult(hops, sum(l.distance for l in links), links)
