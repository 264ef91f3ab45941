"""Path discovery tests: D2D Dijkstra vs brute-force enumeration, C2C DFS,
and the combined two-level traversal."""

import heapq
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sfcsim import routing
from sfcsim.drl import ModelConfig, load_weights
from sfcsim.routing import (PathResult, RouteCounters, RoutingError,
                            c2c_cluster_path, d2d_shortest_path, find_path)
from sfcsim.sim import report_rows, run_episode
from sfcsim.substrate import Substrate
from sfcsim.topology import (ClusterPartition, build_network, cluster_adjacency,
                             make_clusters)
from sfcsim.workload import SfcRequest, default_catalog


TRAINED_WEIGHTS = str(Path(__file__).parents[1] / "perfbench" / "policy.bin")


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
    p = d2d_shortest_path(g.adjacency, const_free(1000.0), 1, 1, 10.0)
    assert p.hops == [1]
    assert p.total_distance == 0.0
    assert p.links_used == []


def test_triangle_shortest():
    g = triangle()
    p = d2d_shortest_path(g.adjacency, const_free(1000.0), 0, 2, 10.0)
    assert p.hops == [0, 1, 2]
    assert p.total_distance == 2.0


def test_triangle_bandwidth_filter():
    g = triangle()

    def free(link):
        if link.key == (0, 1):
            return 5.0  # saturated below the request
        return 1000.0

    p = d2d_shortest_path(g.adjacency, free, 0, 2, 10.0)
    assert p.hops == [0, 2]
    assert p.total_distance == 3.0


def restricted(g, dcs):
    """The neighbour table of the DCs `dcs` over the links among them."""
    return {u: [(v, link) for v, link in g.adjacency[u] if v in dcs]
            for u in dcs}


def test_outside_subgraph_raises():
    g = triangle()
    with pytest.raises(RoutingError):
        d2d_shortest_path(restricted(g, {0, 1}), const_free(1000.0), 0, 2,
                          1.0)


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
        for v, link in g.adjacency[u]:
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
        got = d2d_shortest_path(g.adjacency, free, src, dst, bw)
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
        a = find_path(part, free, src, dst, 10.0)
        b = d2d_shortest_path(g.adjacency, free, src, dst, 10.0)
        assert a.hops == b.hops
        assert a.total_distance == pytest.approx(b.total_distance)


def test_find_path_single_inter_link_forced():
    g = build_network({
        "dcs": [{"position": [0, 0]}, {"position": [10, 0]},
                {"position": [200, 0]}, {"position": [210, 0]}],
        "links": [{"a": 0, "b": 1}, {"a": 2, "b": 3}, {"a": 1, "b": 2}]})
    part = make_clusters(g, 2, 0)
    p = find_path(part, const_free(1000.0), 0, 3, 10.0)
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
        got = find_path(part, free, int(src), int(dst), bw)
        if got is None:
            continue
        assert len(set(got.hops)) == len(got.hops)  # loop-free
        for link in got.links_used:
            assert free(link) >= bw
        glob = d2d_shortest_path(g.adjacency, free, int(src), int(dst), bw)
        assert glob is not None
        assert got.total_distance >= glob.total_distance - 1e-9


def test_routed_paths_are_reservable():
    """The engine reserves a routed path right after the search, with no
    change to link state between them. So every path that find_path or
    d2d_shortest_path returns over a substrate's free bandwidth must have
    distinct links and be accepted by reserve_bandwidth, here on random
    networks and partitions whose links carry random earlier reservations
    that often leave less room than the request needs."""
    sfc = default_catalog().sfcs["CG"]
    rng = np.random.default_rng(31)
    ids = iter(range(10 ** 9))
    reserved = tight = 0
    for trial in range(40):
        n = int(rng.integers(2, 40))
        g = build_network({"dc_count": n, "seed": int(rng.integers(2 ** 31))})
        part = make_clusters(g, int(rng.integers(1, 12)),
                             int(rng.integers(2 ** 31)))
        sub = Substrate(g)
        for link in g.links:
            for _ in range(int(rng.integers(0, 3))):
                held = SfcRequest(next(ids), sfc,
                                  float(rng.uniform(0, sub.link_free(link))),
                                  link.a, link.b)
                assert sub.reserve_bandwidth(
                    PathResult([link.a, link.b], link.distance, [link]), held)
        for _ in range(25):
            src, dst = (int(x) for x in rng.integers(n, size=2))
            bw = float(rng.uniform(1, 500))
            cluster = part.cluster_tables[part.cluster_of(src)]
            routes = [lambda: find_path(part, sub.link_free, src, dst, bw),
                      lambda: d2d_shortest_path(g.adjacency, sub.link_free,
                                                src, dst, bw)]
            if dst in cluster:
                routes.append(lambda: d2d_shortest_path(
                    cluster, sub.link_free, src, dst, bw))
            for route in routes:
                tight += any(sub.link_free(l) < bw for l in g.links)
                path = route()  # searched on the state it is reserved on
                if path is None:
                    continue
                keys = [link.key for link in path.links_used]
                assert len(set(keys)) == len(keys)
                assert sub.reserve_bandwidth(
                    path, SfcRequest(next(ids), sfc, bw, src, dst))
                reserved += len(keys) > 0
        sub.verify_accounting()
    assert reserved > 500 and tight > 1000


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
        find_path(part, const_free(1000.0), int(src), int(dst), 1.0, counters)
    assert max(counters.dijkstra_settled) <= bound
    adj = cluster_adjacency(part)
    edges = sum(len(v) for v in adj.values())  # each edge counted twice
    assert all(e <= edges for e in counters.dfs_edges)


def test_counters_bounded_by_two_cluster_union():
    check_counters_bounded(24)


def test_counters_bounded_at_100_dcs_limit_4():
    check_counters_bounded(100)


def brute_cluster_graph(part, graph):
    """Cluster adjacency and gateways by a scan of every ordered pair of
    clusters against every link of the network."""
    ends = {e for l in graph.links for e in ((l.a, l.b), (l.b, l.a))}
    gateways = {}
    for a in part.clusters:
        for b in part.clusters:
            entered = {y for x in part.clusters[a] for y in part.clusters[b]
                       if a != b and (x, y) in ends}
            if entered:
                gateways[(a, b)] = entered
    adjacency = {a: [b for b in sorted(part.clusters) if (a, b) in gateways]
                 for a in sorted(part.clusters)}
    return adjacency, gateways


def hand_built_partition():
    """DCs 1 and 2 share a position and a 0 km link, and both are gateways
    of cluster {1, 2} from DC 0."""
    g = build_network({
        "dcs": [{"position": [0, 0]}, {"position": [5, 0]},
                {"position": [5, 0]}, {"position": [10, 0]}],
        "links": [{"a": 0, "b": 2, "distance_km": 5},
                  {"a": 0, "b": 1, "distance_km": 7},
                  {"a": 1, "b": 2, "distance_km": 0},
                  {"a": 2, "b": 3, "distance_km": 5}]})
    assignment = {0: 0, 1: 1, 2: 1, 3: 2}
    clusters = {0: [0], 1: [1, 2], 2: [3]}
    intra = {c: [l for l in g.links if {assignment[l.a], assignment[l.b]} == {c}]
             for c in clusters}
    inter = [l for l in g.links if assignment[l.a] != assignment[l.b]]
    return g, ClusterPartition(assignment, clusters, intra, inter,
                               {0: (0, 0), 1: (5, 0), 2: (10, 0)}, 2)


def test_partition_cluster_graph_matches_brute_force():
    """Each partition's adjacency and gateways, made by `make_clusters` or
    built by hand, equal a brute-force build."""
    cases = []
    for dc_count, limit, seed in [(24, 4, 0), (40, 4, 3), (60, 8, 1),
                                  (12, 1, 2), (10, 10, 5)]:
        g = build_network({"dc_count": dc_count, "seed": seed + 9})
        cases.append((g, make_clusters(g, limit, seed)))
    cases.append(hand_built_partition())
    for g, part in cases:
        assert (part.adjacency, part.gateways) == brute_cluster_graph(part, g)
        assert part.adjacency == cluster_adjacency(part)
    _, part = cases[-1]
    assert part.adjacency == {0: [1], 1: [0, 2], 2: [1]}
    assert part.gateways == {(0, 1): {1, 2}, (1, 0): {0}, (1, 2): {3},
                             (2, 1): {2}}


def as_sets(table):
    return {u: set(pairs) for u, pairs in table.items()}


def test_partition_tables_are_the_neighbours_inside_their_clusters():
    """Each cluster's table and each adjacent pair's table, made by
    `make_clusters` or built by hand, hold exactly the network's
    (neighbour, link) pairs inside those clusters; (a, b) and (b, a) share
    one table."""
    rng = np.random.default_rng(22)
    cases = [hand_built_partition()]
    for i in range(40):
        n = int(rng.integers(2, 201))
        g = build_network({"dc_count": n, "seed": 500 + i})
        cases.append((g, make_clusters(g, int(rng.integers(1, 10)), i)))
    pairs_seen = 0
    for g, part in cases:
        assert part.cluster_tables.keys() == part.clusters.keys()
        for c, members in part.clusters.items():
            assert as_sets(part.cluster_tables[c]) == \
                as_sets(restricted(g, set(members)))
        assert set(part.pair_tables) == set(part.gateways)
        for (a, b), table in part.pair_tables.items():
            assert part.pair_tables[(b, a)] is table
            dcs = set(part.clusters[a]) | set(part.clusters[b])
            assert as_sets(table) == as_sets(restricted(g, dcs))
            pairs_seen += 1
    assert pairs_seen > 1000


def test_bandwidth_asked_only_for_links_that_shorten():
    """On a square 0-1-3-2-0 of 1 km links, the search from 0 to 3 reaches 3
    through 1 at 2 km first; the link (2, 3) would not shorten that, so its
    free bandwidth is never asked for."""
    g = build_network({
        "dcs": [{"position": [0, 0]}, {"position": [1, 0]},
                {"position": [0, 1]}, {"position": [1, 1]}],
        "links": [{"a": 0, "b": 1}, {"a": 0, "b": 2}, {"a": 1, "b": 3},
                  {"a": 2, "b": 3}]})
    asked = []

    def free(link):
        asked.append(link.key)
        return 1000.0

    path = d2d_shortest_path(g.adjacency, free, 0, 3, 1.0)
    assert path.hops == [0, 1, 3]
    assert asked == [(0, 1), (0, 2), (1, 3)]


def test_routing_deterministic():
    g = build_network({"dc_count": 15, "seed": 21})
    part = make_clusters(g, 4, 2)
    free = const_free(1000.0)
    a = find_path(part, free, 1, 13, 5.0)
    b = find_path(part, free, 1, 13, 5.0)
    assert a.hops == b.hops and a.total_distance == b.total_distance


# Reference two-level router: a full Dijkstra per segment, the nearest
# gateway picked by a scan of the sorted gateways (equal distances go to the
# lowest id), and `ref_strip_loops` cutting any cycle out of the joined path.
# Where every link has positive length, find_path must agree with it exactly.

def ref_dijkstra(nodes, graph, free, src, bw):
    dist, prev, settled = {src: 0.0}, {}, set()
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, link in graph.adjacency[u]:
            if v not in nodes or v in settled or free(link) < bw:
                continue
            nd = d + link.distance
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                prev[v] = (u, link)
                heapq.heappush(heap, (nd, v))
    return dist, prev


def ref_reconstruct(src, dst, prev, dist):
    hops, links, u = [dst], [], dst
    while u != src:
        u, link = prev[u]
        links.append(link)
        hops.append(u)
    return PathResult(hops[::-1], dist[dst], links[::-1])


def ref_d2d(nodes, graph, free, src, dst, bw):
    if src == dst:
        return PathResult([src], 0.0, [])
    dist, prev = ref_dijkstra(set(nodes), graph, free, src, bw)
    return ref_reconstruct(src, dst, prev, dist) if dst in dist else None


def ref_strip_loops(path):
    hops, links, index = [], [], {}
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


def ref_find_path(part, graph, free, src, dst, bw, strip=True):
    src_c, dst_c = part.cluster_of(src), part.cluster_of(dst)
    if src_c == dst_c:
        return ref_d2d(part.clusters[src_c], graph, free, src, dst, bw)
    adjacency, gateways = brute_cluster_graph(part, graph)
    cpath = c2c_cluster_path(adjacency, src_c, dst_c)
    if cpath is None:
        return None
    entry, hops, links = src, [src], []
    for a, b in zip(cpath, cpath[1:]):
        nodes = set(part.clusters[a]) | set(part.clusters[b])
        targets = [dst] if b == dst_c else sorted(gateways[(a, b)])
        dist, prev = ref_dijkstra(nodes, graph, free, entry, bw)
        best = None
        for t in targets:
            if t in dist and (best is None or dist[t] < dist[best]):
                best = t
        if best is None:
            return None
        seg = ref_reconstruct(entry, best, prev, dist)
        hops.extend(seg.hops[1:])
        links.extend(seg.links_used)
        entry = best
    path = PathResult(hops, sum(l.distance for l in links), links)
    return ref_strip_loops(path) if strip else path


def tied_network(rng, n):
    """DCs in a unit square joined by links 2, 3 or 4 km long: equal
    distances, and so ties between paths and between gateways, are common."""
    pos = rng.uniform(0.0, 1.0, size=(n, 2))
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}  # a spanning tree
    for _ in range(n):
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((a, b))
    return build_network({
        "dcs": [{"position": [float(x), float(y)]} for x, y in pos],
        "links": [{"a": a, "b": b, "distance_km": float(rng.integers(2, 5))}
                  for a, b in sorted(pairs)]})


def test_router_matches_reference_on_random_graphs():
    """On random graphs, partitions and per-link free bandwidth, find_path
    and d2d_shortest_path return exactly the reference's PathResult or None,
    and every path has distinct hops."""
    rng = np.random.default_rng(14)
    found = crossing = 0
    for trial in range(160):
        n = int(rng.integers(2, 24))
        if trial % 2:
            g = tied_network(rng, n)
        else:
            g = build_network({"dc_count": n, "seed": int(rng.integers(2 ** 31))})
        part = make_clusters(g, int(rng.integers(1, 6)),
                             int(rng.integers(2 ** 31)))
        loads = {l.key: float(rng.uniform(0, 1000)) for l in g.links}
        free = lambda link: loads[link.key]
        for _ in range(20):
            src, dst = (int(x) for x in rng.integers(n, size=2))
            bw = float(rng.choice([0.0, rng.uniform(0, 600)]))
            c = part.cluster_of(src)
            cluster = part.clusters[c]
            pairs = [(find_path(part, free, src, dst, bw),
                      ref_find_path(part, g, free, src, dst, bw)),
                     (d2d_shortest_path(g.adjacency, free, src, dst, bw),
                      ref_d2d(range(n), g, free, src, dst, bw))]
            if dst in cluster:
                pairs.append((d2d_shortest_path(part.cluster_tables[c], free,
                                                src, dst, bw),
                              ref_d2d(cluster, g, free, src, dst, bw)))
            for got, want in pairs:
                assert got == want
                if got is not None:
                    assert len(set(got.hops)) == len(got.hops)
                    found += 1
            crossing += part.cluster_of(src) != part.cluster_of(dst)
    assert found > 3000 and crossing > 1500


def asks_inside(free, searched, counts):
    """`free`, raising for a link that does not lie inside one of the DC
    sets `searched`; counts its calls."""
    def guarded(link):
        if not any(link.a in dcs and link.b in dcs for dcs in searched):
            raise AssertionError(f"free bandwidth of {link.key} asked for "
                                 "outside the searched clusters")
        counts["asked"] += 1
        return free(link)
    return guarded


def test_search_asks_only_for_links_of_its_clusters(monkeypatch):
    """On the inputs of the reference test, find_path asks only for links
    inside one cluster or inside two consecutive clusters of its cluster
    path, and d2d_shortest_path only for links inside its table."""
    counts = {"asked": 0}

    def find_path_inside(part, free, src, dst, bw, counters=None):
        src_c, dst_c = part.cluster_of(src), part.cluster_of(dst)
        cpath = c2c_cluster_path(part.adjacency, src_c, dst_c) or []
        searched = [set(part.clusters[src_c])] if src_c == dst_c else [
            set(part.clusters[a]) | set(part.clusters[b])
            for a, b in zip(cpath, cpath[1:])]
        return routing.find_path(part, asks_inside(free, searched, counts),
                                 src, dst, bw, counters)

    def d2d_inside(table, free, src, dst, bw, counters=None):
        return routing.d2d_shortest_path(
            table, asks_inside(free, [set(table)], counts), src, dst, bw,
            counters)

    module = sys.modules[__name__]
    monkeypatch.setattr(module, "find_path", find_path_inside)
    monkeypatch.setattr(module, "d2d_shortest_path", d2d_inside)
    test_router_matches_reference_on_random_graphs()
    assert counts["asked"] > 10000


def test_zero_length_link_gives_simple_path():
    """DCs 1 and 2 share a position and a 0 km link, and both are gateways
    of cluster {1, 2} from DC 0. Both lie 5 km from DC 0, but DC 1 only
    through DC 2. The search stops at DC 2, the first gateway it settles, so
    the path never enters DC 1. The reference's scan takes DC 1, the lower
    id, behind DC 2, and its next segment goes back through DC 2: a loop
    that `ref_strip_loops` cuts, which leaves the same path."""
    g, part = hand_built_partition()
    free = const_free(1000.0)
    path = find_path(part, free, 0, 3, 1.0)
    assert path.hops == [0, 2, 3] and path.total_distance == 10.0
    assert ref_find_path(part, g, free, 0, 3, 1.0, strip=False).hops == \
        [0, 2, 1, 2, 3]
    assert ref_find_path(part, g, free, 0, 3, 1.0) == path


# ---- the partition's memo of bandwidth-free searches ------------------------


def filtered_search(table, key, link_free, src, targets, bw, counters):
    """`routing._route` without the memo: today's filtered search."""
    return routing._shortest_to(table, link_free, src, targets, bw, counters)


class RouteSpy:
    """Wraps `routing._route` and counts, per search, a miss (the memo had
    not seen it), a hit (its memoised answer stood) or a fallback (the
    memoised path lacked room, so the filtered search answered)."""

    def __init__(self, monkeypatch):
        self.counts = Counter()
        real = routing._route

        def spy(table, key, *args):
            seen = key in table.routes
            path = real(table, key, *args)
            if path is not table.routes[key]:
                self.counts["fallback"] += 1
            else:
                self.counts["hit" if seen else "miss"] += 1
            return path

        monkeypatch.setattr(routing, "_route", spy)


def fresh_copy(part):
    return ClusterPartition(part.assignment, part.clusters, part.intra_links,
                            part.inter_links, part.centroids, part.size_limit)


def grid_network(rng, w, h):
    """A w x h grid of DCs whose links are 1 or 2 km long, with some 2 km
    diagonals: many paths tie in length."""
    links = []
    for x in range(w):
        for y in range(h):
            i = x * h + y
            if y + 1 < h:
                links.append((i, i + 1, float(rng.integers(1, 3))))
            if x + 1 < w:
                links.append((i, i + h, float(rng.integers(1, 3))))
            if x + 1 < w and y + 1 < h and rng.random() < 0.3:
                links.append((i, i + h + 1, 2.0))
    return build_network({
        "dcs": [{"position": [float(x), float(y)]}
                for x in range(w) for y in range(h)],
        "links": [{"a": a, "b": b, "distance_km": d} for a, b, d in links]})


FREE_MBPS = [0.0, 4.0, 8.0, 20.0]  # against demands of 1, 5 and 10 Mbps


def test_memoised_routes_equal_the_filtered_search(monkeypatch):
    """One partition answers a whole sequence of queries while the free
    bandwidth of its links changes between them. Each answer of find_path,
    and of d2d_shortest_path over the partition's cluster table, equals the
    filtered search on a freshly built partition: hops, distance and links,
    with None alike."""
    spy = RouteSpy(monkeypatch)
    rng = np.random.default_rng(27)
    answers = Counter()
    for w, h in ((4, 5), (5, 6), (6, 6)):
        g = grid_network(rng, w, h)
        n = g.dc_count
        for limit in (2, 3, 5, 8):
            part = make_clusters(g, limit, int(rng.integers(2 ** 31)))
            free = {link: float(rng.choice(FREE_MBPS)) for link in g.links}
            pool = [int(x) for x in rng.choice(n, size=8, replace=False)]
            for _ in range(60):
                for i in rng.choice(len(g.links), size=3):
                    free[g.links[i]] = float(rng.choice(FREE_MBPS))
                bw = float(rng.choice([1.0, 5.0, 10.0]))
                src, dst = (int(x) for x in rng.choice(pool, size=2))
                c = part.cluster_of(src)
                near = int(rng.choice(part.clusters[c]))
                got = (find_path(part, free.__getitem__, src, dst, bw),
                       d2d_shortest_path(part.cluster_tables[c],
                                         free.__getitem__, src, near, bw))
                fresh = fresh_copy(part)
                with monkeypatch.context() as m:
                    m.setattr(routing, "_route", filtered_search)
                    want = (find_path(fresh, free.__getitem__, src, dst, bw),
                            d2d_shortest_path(fresh.cluster_tables[c],
                                              free.__getitem__, src, near, bw))
                assert got == want
                answers.update("none" if p is None else "path" for p in got)
    assert min(spy.counts[k] for k in ("hit", "miss", "fallback")) > 100
    assert answers["none"] > 100 and answers["path"] > 500


def test_memo_keeps_a_bandwidth_starved_episode(monkeypatch):
    """A greedy 40-DC episode at limit 8 and scale 3 on 20 Mbps links, where
    memoised paths often lack room, comes out as with the filtered search
    alone: the same report rows, and every request's status, drop reason and
    hop log."""
    g = build_network({"dc_count": 40, "seed": 11, "area_km": 1000.0,
                       "radius_km": 250.0, "link_bw_mbps": 20.0})
    policy = load_weights(TRAINED_WEIGHTS, ModelConfig())
    with monkeypatch.context() as m:
        spy = RouteSpy(m)
        got = run_episode(g, 8, 3.0, 11, policy)
    with monkeypatch.context() as m:
        m.setattr(routing, "_route", filtered_search)
        want = run_episode(g, 8, 3.0, 11, policy)
    assert min(spy.counts[k] for k in ("hit", "miss", "fallback")) > 0
    (rep, world), (ref_rep, ref_world) = got, want
    assert report_rows(rep) == report_rows(ref_rep)
    assert [(r.id, r.status, r.drop_reason, r.hop_log) for r in world.requests] \
        == [(r.id, r.status, r.drop_reason, r.hop_log)
            for r in ref_world.requests]
