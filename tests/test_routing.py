"""Path discovery tests: D2D Dijkstra vs brute-force enumeration, C2C DFS,
and the combined two-level traversal."""

import numpy as np
import pytest

from sfcsim.routing import (RouteCounters, RoutingError, c2c_cluster_path,
                            d2d_shortest_path, find_path, routing_tables)
from sfcsim.topology import build_network, cluster_adjacency, make_clusters


def const_free(value):
    return lambda link: value


def triangle():
    return build_network({
        "dcs": [{"position": [0.0, 0.0]}, {"position": [1.0, 0.0]},
                {"position": [1.0, 1.0]}],
        "links": [{"a": 0, "b": 1, "distance_km": 1.0},
                  {"a": 1, "b": 2, "distance_km": 1.0},
                  {"a": 0, "b": 2, "distance_km": 3.0}]})


def test_src_equals_dst():
    g = triangle()
    p = d2d_shortest_path({0, 1, 2}, g, const_free(1000.0), 1, 1, 10.0)
    assert p.hops == [1]
    assert p.total_distance == 0.0
    assert p.links_used == []


def test_triangle_shortest():
    g = triangle()
    p = d2d_shortest_path({0, 1, 2}, g, const_free(1000.0), 0, 2, 10.0)
    assert p.hops == [0, 1, 2]
    assert p.total_distance == 2.0


def test_triangle_bandwidth_filter():
    g = triangle()

    def free(link):
        if link.key == (0, 1):
            return 5.0  # saturated below the request
        return 1000.0

    p = d2d_shortest_path({0, 1, 2}, g, free, 0, 2, 10.0)
    assert p.hops == [0, 2]
    assert p.total_distance == 3.0


def test_outside_subgraph_raises():
    g = triangle()
    with pytest.raises(RoutingError):
        d2d_shortest_path({0, 1}, g, const_free(1000.0), 0, 2, 1.0)


def enumerate_best(g, nodes, free, src, dst, bw):
    """Oracle: exhaustive simple-path enumeration under the bandwidth filter."""
    best = None
    link_at = {}
    for link in g.links:
        link_at[link.key] = link

    def walk(u, seen, dist):
        nonlocal best
        if u == dst:
            if best is None or dist < best:
                best = dist
            return
        for v, link in g.neighbors(u):
            if v in seen or v not in nodes or free(link) < bw:
                continue
            walk(v, seen | {v}, dist + link.distance)

    walk(src, {src}, 0.0)
    return best


def test_dijkstra_matches_enumeration():
    rng = np.random.default_rng(123)
    for trial in range(60):
        n = int(rng.integers(3, 13))
        g = build_network({"dc_count": n, "seed": int(rng.integers(2 ** 31))})
        loads = {l.key: float(rng.uniform(0, 1000)) for l in g.links}
        free = lambda link: loads[link.key]
        bw = float(rng.uniform(0, 800))
        src, dst = rng.choice(n, size=2, replace=False)
        src, dst = int(src), int(dst)
        got = d2d_shortest_path(range(n), g, free, src, dst, bw)
        want = enumerate_best(g, set(range(n)), free, src, dst, bw)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.total_distance == pytest.approx(want)
            # returned path must itself be feasible
            for link in got.links_used:
                assert free(link) >= bw


def test_c2c_trivial_and_chain():
    assert c2c_cluster_path({0: []}, 0, 0) == [0]
    chain = {0: [1], 1: [0, 2], 2: [1]}
    assert c2c_cluster_path(chain, 0, 2) == [0, 1, 2]
    disconnected = {0: [], 1: []}
    assert c2c_cluster_path(disconnected, 0, 1) is None


def test_c2c_deterministic_first_path():
    # diamond: DFS prefers the lowest-id neighbor first
    graph = {0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2]}
    assert c2c_cluster_path(graph, 0, 3) == [0, 1, 3]


def test_find_path_intra_cluster_equals_d2d():
    g = build_network({"dc_count": 8, "seed": 5})
    part = make_clusters(g, 8, 0)
    free = const_free(1000.0)
    for src, dst in [(0, 5), (2, 7)]:
        a = find_path(part, g, free, src, dst, 10.0)
        b = d2d_shortest_path(range(8), g, free, src, dst, 10.0)
        assert a.hops == b.hops
        assert a.total_distance == pytest.approx(b.total_distance)


def test_find_path_single_inter_link_forced():
    g = build_network({
        "dcs": [{"position": [0, 0]}, {"position": [10, 0]},
                {"position": [200, 0]}, {"position": [210, 0]}],
        "links": [{"a": 0, "b": 1}, {"a": 2, "b": 3}, {"a": 1, "b": 2}]})
    part = make_clusters(g, 2, 0)
    p = find_path(part, g, const_free(1000.0), 0, 3, 10.0)
    assert p.hops == [0, 1, 2, 3]


def test_find_path_feasible_and_not_shorter_than_global():
    rng = np.random.default_rng(77)
    for trial in range(40):
        n = int(rng.integers(4, 13))
        g = build_network({"dc_count": n, "seed": int(rng.integers(2 ** 31))})
        limit = int(rng.integers(2, max(3, n // 2 + 1)))
        part = make_clusters(g, limit, int(rng.integers(2 ** 31)))
        loads = {l.key: float(rng.uniform(100, 1000)) for l in g.links}
        free = lambda link: loads[link.key]
        bw = float(rng.uniform(0, 150))
        src, dst = rng.choice(n, size=2, replace=False)
        got = find_path(part, g, free, int(src), int(dst), bw)
        if got is None:
            continue
        assert len(set(got.hops)) == len(got.hops)  # loop-free
        for link in got.links_used:
            assert free(link) >= bw
        glob = d2d_shortest_path(range(n), g, free, int(src), int(dst), bw)
        assert glob is not None
        assert got.total_distance >= glob.total_distance - 1e-9


def reference_c2c_path(cluster_graph, src, dst):
    """The recursive DFS that marks only the current path: it re-explores
    every simple path, so it is exponential, but its first path is the one
    `c2c_cluster_path` must return."""
    if src not in cluster_graph or dst not in cluster_graph:
        return None
    if src == dst:
        return [src]
    path = [src]
    on_path = {src}

    def dfs(c):
        for nb in cluster_graph[c]:
            if nb in on_path:
                continue
            path.append(nb)
            on_path.add(nb)
            if nb == dst or dfs(nb):
                return True
            path.pop()
            on_path.remove(nb)
        return False

    return path if dfs(src) else None


def test_c2c_matches_reference_dfs_on_random_graphs():
    rng = np.random.default_rng(2024)
    for density in (0.15, 0.3, 0.5, 0.8):
        for trial in range(15):
            n = int(rng.integers(2, 14))
            adj = {c: [] for c in range(n)}
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < density:
                        adj[a].append(b)
                        adj[b].append(a)
            graph = {c: sorted(nb) for c, nb in adj.items()}
            twice_edges = sum(len(nb) for nb in graph.values())
            for src in range(n):
                for dst in range(n):
                    counters = RouteCounters()
                    got = c2c_cluster_path(graph, src, dst, counters)
                    assert got == reference_c2c_path(graph, src, dst)
                    assert sum(counters.dfs_edges) <= twice_edges


def test_c2c_long_chain_no_recursion_error():
    n = 5000
    chain = {c: [nb for nb in (c - 1, c + 1) if 0 <= nb < n] for c in range(n)}
    counters = RouteCounters()
    assert c2c_cluster_path(chain, 0, n - 1, counters) == list(range(n))
    assert counters.dfs_edges == [2 * (n - 1) - 1]


def check_counters_bounded(dc_count):
    g = build_network({"dc_count": dc_count, "seed": 9})
    part = make_clusters(g, 4, 0)
    sizes = sorted((len(m) for m in part.clusters.values()), reverse=True)
    bound = sizes[0] + sizes[1]
    counters = RouteCounters()
    rng = np.random.default_rng(1)
    for _ in range(30):
        src, dst = rng.choice(dc_count, size=2, replace=False)
        find_path(part, g, const_free(1000.0), int(src), int(dst), 1.0, counters)
    assert counters.max_settled <= bound
    adj = cluster_adjacency(part)
    edges = sum(len(v) for v in adj.values())  # each edge counted twice
    assert all(e <= edges for e in counters.dfs_edges)


def test_counters_bounded_by_two_cluster_union():
    check_counters_bounded(24)


def test_counters_bounded_at_100_dcs_limit_4():
    check_counters_bounded(100)


def test_routing_tables_built_once_per_partition():
    g = build_network({"dc_count": 24, "seed": 9})
    part = make_clusters(g, 4, 0)
    tables = routing_tables(part)
    assert routing_tables(part) is tables
    assert tables.adjacency == cluster_adjacency(part)
    # gateways of (a, b): each DC of b entered by an inter-cluster link from a
    entries = {(part.cluster_of(x), y) for l in part.inter_links
               for x, y in ((l.a, l.b), (l.b, l.a))}
    for (a, b), dcs in tables.gateways.items():
        assert dcs == sorted(set(dcs))
        assert all(part.cluster_of(d) == b for d in dcs)
    assert entries == {(a, d) for (a, _), dcs in tables.gateways.items()
                       for d in dcs}


def test_routing_deterministic():
    g = build_network({"dc_count": 15, "seed": 21})
    part = make_clusters(g, 4, 2)
    free = const_free(1000.0)
    a = find_path(part, g, free, 1, 13, 5.0)
    b = find_path(part, g, free, 1, 13, 5.0)
    assert a.hops == b.hops and a.total_distance == b.total_distance
