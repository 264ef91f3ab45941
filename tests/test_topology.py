"""Network construction and size-bounded clustering tests."""

import itertools
import math

import numpy as np
import pytest

from sfcsim import topology
from sfcsim.topology import (TopologyError, build_network, cluster_adjacency,
                             make_clusters)


def two_dc_config():
    return {"dcs": [{"position": [0.0, 0.0]}, {"position": [300.0, 0.0]}],
            "links": [{"a": 0, "b": 1, "bandwidth_mbps": 1000.0}]}


def test_smallest_connected_graph():
    g = build_network(two_dc_config())
    assert g.dc_count == 2
    assert len(g.links) == 1
    assert g.links[0].bandwidth_cap == 1000.0
    assert g.links[0].distance == 300.0


def test_default_capacities():
    g = build_network({"dc_count": 6, "seed": 3})
    for dc in g.dcs:
        assert dc.storage_cap == 2048.0
        assert dc.ram_cap == 256.0
        assert dc.compute_cap == 40.0
    for link in g.links:
        assert link.bandwidth_cap == 1000.0


def test_generated_graph_deterministic_and_connected():
    a = build_network({"dc_count": 40, "seed": 7})
    b = build_network({"dc_count": 40, "seed": 7})
    assert [dc.position for dc in a.dcs] == [dc.position for dc in b.dcs]
    assert [l.key for l in a.links] == [l.key for l in b.links]
    # connectivity via reachability scan
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v, _ in a.adjacency[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == 40


def test_rejects_bad_configs():
    with pytest.raises(TopologyError):
        build_network({"dc_count": 1})
    with pytest.raises(TopologyError, match="disconnected"):
        build_network({"dcs": [{"position": [0, 0]}, {"position": [1, 0]},
                               {"position": [2, 0]}],
                       "links": [{"a": 0, "b": 1}]})  # DC 2 unreachable
    with pytest.raises(TopologyError):
        build_network({"dcs": [{"position": [0, 0], "vcpu": -1},
                               {"position": [1, 0]}],
                       "links": [{"a": 0, "b": 1}]})
    # a misspelled key names its entry instead of falling back to a default
    with pytest.raises(TopologyError, match=r"topology\.dcs\[0\].*'vcpus'"):
        build_network({"dcs": [{"position": [0, 0], "vcpus": 1},
                               {"position": [1, 0]}],
                       "links": [{"a": 0, "b": 1}]})
    with pytest.raises(TopologyError,
                       match=r"topology\.links\[0\].*'bandwith_mbps'"):
        build_network({"dcs": [{"position": [0, 0]}, {"position": [1, 0]}],
                       "links": [{"a": 0, "b": 1, "bandwith_mbps": 5}]})


@pytest.mark.parametrize("section,match", [
    ({"dc_count": 4, "link_bw_mbps": float("nan")}, r"link_bw_mbps.*nan"),
    ({"dc_count": 4, "vcpu": float("nan")}, r"vcpu.*nan"),
    ({"dc_count": 4, "storage_gb": float("inf")}, r"storage_gb.*inf"),
    ({"dc_count": 4, "area_km": float("nan")}, r"area_km.*nan"),
    ({"dc_count": 4, "radius_km": -5.0}, r"radius_km.*-5"),
    ({"dcs": [{"position": [float("nan"), 0]}, {"position": [1, 0]}],
      "links": [{"a": 0, "b": 1}]},
     r"^topology\.dcs\[0\]\.position\[0\] must be finite, got nan$"),
    ({"dcs": [{"position": [0, 0], "ram_gb": float("inf")},
              {"position": [1, 0]}],
      "links": [{"a": 0, "b": 1}]},
     r"^topology\.dcs\[0\]\.ram_gb must be positive and finite, got inf$"),
    ({"dcs": [{"position": [0, 0]}, {"position": [1, 0]}],
      "links": [{"a": 0, "b": 1, "distance_km": float("inf")}]},
     r"^topology\.links\[0\]\.distance_km must be finite, got inf$"),
    ({"dcs": [{"position": [0, 0]}, {"position": [1, 0]}],
      "links": [{"a": 0, "b": 1, "bandwidth_mbps": float("nan")}]},
     r"^topology\.links\[0\]\.bandwidth_mbps must be positive and finite, got nan$"),
], ids=["link_bw_nan", "vcpu_nan", "storage_inf", "area_nan", "radius_negative",
        "dc_position_nan", "dc_ram_inf", "link_distance_inf",
        "link_bandwidth_nan"])
def test_rejects_non_finite_values(section, match):
    """Non-finite capacities, bandwidths, positions and distances, and a
    non-finite area or radius, name the value instead of building a network
    that routes by NaN."""
    with pytest.raises(TopologyError, match=match):
        build_network(section)


@pytest.mark.parametrize("section,match", [
    ({"dcs": [{"position": [0, 0]}, {"position": [1, 0]}, {"position": [2, 0]}],
      "links": [{"a": 0, "b": 1}, {"a": 0.6, "b": 1.2}]},
     r"^topology\.links\[1\]\.a must be int, got 0\.6$"),
    ({"dcs": [{"position": [0, 0]}, {"position": [1, 0]}],
      "links": [{"a": 0, "b": True}]},
     r"^topology\.links\[0\]\.b must be int, got True$"),
    ({"dcs": [{"position": [0, 0], "id": 0.5}, {"position": [1, 0], "id": 1}],
      "links": [{"a": 0, "b": 1}]},
     r"^topology\.dcs\[0\]\.id must be int, got 0\.5$"),
], ids=["link_a_fraction", "link_b_bool", "dc_id_fraction"])
def test_rejects_ids_that_are_not_whole_numbers(section, match):
    """DC ids and link endpoints take whole numbers only, as config ints do:
    `int` used to truncate them, so `{a: 0.6, b: 1.2}` became link (0, 1)."""
    with pytest.raises(TopologyError, match=match):
        build_network(section)


THREE_DCS = [{"position": [0, 0]}, {"position": [3, 0]}, {"position": [3, 4]}]


@pytest.mark.parametrize("dcs,links,match", [
    ([{"position": [0, 0], "id": 1}, {"position": [1, 0], "id": 1}],
     [{"a": 0, "b": 1}], "DC ids must be unique and dense"),
    ([{"position": [0, 0]}, {"position": [1, 0], "id": 2}],
     [{"a": 0, "b": 1}], "DC ids must be unique and dense"),
    ([{"position": [0, 0]}], [], "need at least 2 DCs"),
    (THREE_DCS, [{"a": 0, "b": 1}, {"a": -1, "b": 2}],
     r"^topology\.links\[1\]: endpoints must be DC ids 0\.\.2, got -1 and 2$"),
    (THREE_DCS, [{"a": 0, "b": 1}, {"a": 2, "b": 2}],
     r"^topology\.links\[1\]: self-loop link at DC 2$"),
    (THREE_DCS, [{"a": 0, "b": 1}, {"a": 1, "b": 2}, {"a": 1, "b": 0}],
     r"^topology\.links\[2\]: duplicate link \(0,1\)$"),
    (THREE_DCS, [{"a": 0, "b": 1}, {"a": 0, "b": 2, "distance_km": 4.9}],
     r"^topology\.links\[1\]: link \(0,2\) shorter than DC separation$"),
    (THREE_DCS, [{"a": 0, "b": 1}], "explicit topology is disconnected"),
], ids=["id_repeated", "id_gap", "one_dc", "endpoint_negative", "self_loop",
        "duplicate_reversed", "too_short", "disconnected"])
def test_rejects_networks_that_no_single_field_rejects(dcs, links, match):
    """The checks that need more than one entry: dense unique ids, endpoints
    among them, no self-loop, duplicate or too-short link, connectivity."""
    with pytest.raises(TopologyError, match=match):
        build_network({"dcs": dcs, "links": links})


def test_accepts_whole_float_ids():
    graph = build_network({"dcs": [{"position": [0, 0], "id": 1.0},
                                   {"position": [1, 0], "id": 0}],
                           "links": [{"a": 0.0, "b": 1}]})
    assert [dc.id for dc in graph.dcs] == [0, 1]
    assert [link.key for link in graph.links] == [(0, 1)]


def ref_generated_network(cfg):
    """A generated network as an earlier build_network made it: each repair
    link came from a rescan of every DC pair, and a DC's neighbours were read
    through each of its links' other end. Returns the positions, the links,
    each DC's neighbour list and the number of repair links."""
    n = cfg["dc_count"]
    rng = np.random.default_rng(cfg["seed"])
    pos = rng.uniform(0.0, cfg["area_km"], size=(n, 2))
    points = [(float(pos[i, 0]), float(pos[i, 1])) for i in range(n)]
    links = []
    for i in range(n):
        for j in range(i + 1, n):
            d = topology._euclidean(points[i], points[j])
            if d <= cfg["radius_km"]:
                links.append(topology.LinkSpec(i, j, 1000.0, d))
    generated = len(links)
    link_keys = {link.key for link in links}
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for link in links:
        parent[find(link.a)] = find(link.b)
    while len({find(i) for i in range(n)}) > 1:
        best = None
        for i in range(n):
            for j in range(i + 1, n):
                if find(i) != find(j) and (i, j) not in link_keys:
                    d = topology._euclidean(points[i], points[j])
                    if best is None or d < best[0]:
                        best = (d, i, j)
        d, i, j = best
        links.append(topology.LinkSpec(i, j, 1000.0, d))
        link_keys.add((i, j))
        parent[find(i)] = find(j)

    adjacency = {i: [] for i in range(n)}
    for link in links:
        adjacency[link.a].append(link)
        adjacency[link.b].append(link)

    def other(link, u):
        return link.b if u == link.a else link.a

    neighbors = {u: [(other(link, u), link) for link in adjacency[u]]
                 for u in range(n)}
    return points, links, neighbors, len(links) - generated


def graph_configs(count, max_dcs, seed):
    """Generated configs over 2..max_dcs DCs, radius 0-250 km and areas
    200-3,000 km; every tenth has radius 0, so all its links are repair
    links. Networks of over 100 DCs get radii of 100 km or more in areas up
    to 1,500 km, which keeps the reference's rescans affordable."""
    rng = np.random.default_rng(seed)
    configs = []
    for k in range(count):
        if k % 10 == 0:
            n, radius, area = 2 + 59 * k // count, 0.0, 1000.0
        elif k % 10 < 8 or max_dcs <= 100:
            n = int(round(math.exp(rng.uniform(math.log(2),
                                               math.log(min(max_dcs, 100))))))
            radius, area = rng.uniform(0, 250), rng.uniform(200, 3000)
        else:
            n = int(rng.integers(100, max_dcs + 1))
            radius, area = rng.uniform(100, 250), rng.uniform(200, 1500)
        configs.append({"dc_count": n, "seed": k, "area_km": float(area),
                        "radius_km": float(radius)})
    return configs


@pytest.mark.parametrize("whole_km", [False, True])
def test_generated_graph_matches_rescan_reference(monkeypatch, whole_km):
    """One sorted pass over the pairs between components adds the same repair
    links, in the same order, as rescanning every pair per link, and each
    DC's neighbour list is the one read through the links' other ends.
    Rounding distances to whole km makes ties common, so the (d, i, j)
    tie-break is exercised too."""
    if whole_km:
        monkeypatch.setattr(topology, "_euclidean",
                            lambda p, q: float(round(math.dist(p, q))))
        configs = graph_configs(80, 60, 1956)
    else:
        configs = graph_configs(210, 200, 18)
    repairs = []
    for cfg in configs:
        points, links, neighbors, repaired = ref_generated_network(cfg)
        g = build_network(cfg)
        assert [dc.position for dc in g.dcs] == points
        assert ([(l.a, l.b, l.bandwidth_cap, l.distance) for l in g.links]
                == [(l.a, l.b, l.bandwidth_cap, l.distance) for l in links])
        assert all(g.adjacency[u] == neighbors[u] for u in range(len(points)))
        repairs.append(repaired)
    assert sum(r > 0 for r in repairs) >= (40 if whole_km else 100)
    assert max(repairs) >= 50


def test_repair_work_is_bounded(monkeypatch):
    """150 DCs at radius 0 need 149 repair links; the sorted pass computes
    each pair's distance at most once more than generation does, where a
    rescan per link made 1,568,455 distance calls."""
    calls = 0
    euclidean = topology._euclidean

    def counted(p, q):
        nonlocal calls
        calls += 1
        return euclidean(p, q)

    monkeypatch.setattr(topology, "_euclidean", counted)
    g = build_network({"dc_count": 150, "seed": 4, "radius_km": 0})
    assert len(g.links) == 149
    assert calls <= 150 * 149


def square_corner_graph():
    return build_network({
        "dcs": [{"position": [0.0, 0.0]}, {"position": [10.0, 0.0]},
                {"position": [0.0, 100.0]}, {"position": [10.0, 100.0]}],
        "links": [{"a": 0, "b": 1}, {"a": 2, "b": 3},
                  {"a": 0, "b": 2}, {"a": 1, "b": 3}]})


def test_square_corners_pair_nearest():
    """Oracle: exhaustive scan of all 2|2 partitions for the one minimizing
    within-cluster distance; the greedy assignment must find it."""
    g = square_corner_graph()
    pts = [g.dcs[i].position for i in range(4)]

    def within_cost(groups):
        cost = 0.0
        for grp in groups:
            cx = sum(pts[i][0] for i in grp) / len(grp)
            cy = sum(pts[i][1] for i in grp) / len(grp)
            cost += sum(math.hypot(pts[i][0] - cx, pts[i][1] - cy) for i in grp)
        return cost

    best = min(((a, tuple(sorted(set(range(4)) - set(a))))
                for a in itertools.combinations(range(4), 2) if 0 in a),
               key=within_cost)
    for seed in range(5):
        part = make_clusters(g, 2, seed)
        got = tuple(sorted(tuple(m) for m in part.clusters.values()))
        assert got == tuple(sorted(best))


def test_single_cluster_when_limit_covers_all():
    g = build_network({"dc_count": 8, "seed": 1})
    part = make_clusters(g, 8, 0)
    assert part.cluster_count == 1
    assert part.clusters[0] == list(range(8))
    assert part.inter_links == []


def test_forty_dcs_limit_four():
    g = build_network({"dc_count": 40, "seed": 7})
    part = make_clusters(g, 4, 0)
    assert part.cluster_count == 10
    assert all(len(m) <= 4 for m in part.clusters.values())


def test_partition_invariants_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(2, 25))
        limit = int(rng.integers(1, n + 1))
        g = build_network({"dc_count": n, "seed": int(rng.integers(2 ** 31))})
        part = make_clusters(g, limit, int(rng.integers(2 ** 31)))
        covered = sorted(d for m in part.clusters.values() for d in m)
        assert covered == list(range(n))
        assert all(len(m) <= limit for m in part.clusters.values())
        assert part.cluster_count >= math.ceil(n / limit)
        # link classification matches an independent pass
        intra = {c: [] for c in part.clusters}
        inter = []
        for link in g.links:
            if part.assignment[link.a] == part.assignment[link.b]:
                intra[part.assignment[link.a]].append(link)
            else:
                inter.append(link)
        assert part.inter_links == inter
        assert part.intra_links == intra


def test_partition_stability_at_termination():
    """No single DC strictly prefers another non-full cluster's centroid."""
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(4, 30))
        limit = int(rng.integers(2, 6))
        g = build_network({"dc_count": n, "seed": int(rng.integers(2 ** 31))})
        part = make_clusters(g, limit, int(rng.integers(2 ** 31)))
        for i in range(n):
            own = part.assignment[i]
            p = g.dcs[i].position
            d_own = math.hypot(p[0] - part.centroids[own][0],
                               p[1] - part.centroids[own][1])
            for c, members in part.clusters.items():
                if c == own or len(members) >= limit:
                    continue
                d_c = math.hypot(p[0] - part.centroids[c][0],
                                 p[1] - part.centroids[c][1])
                assert d_c >= d_own - 1e-9


def test_clustering_deterministic():
    g = build_network({"dc_count": 30, "seed": 5})
    p1 = make_clusters(g, 5, 11)
    p2 = make_clusters(g, 5, 11)
    assert p1.assignment == p2.assignment
    assert p1.clusters == p2.clusters


def test_cluster_adjacency_trivial_cases():
    g = build_network({"dc_count": 4, "seed": 0})
    one = make_clusters(g, 4, 0)
    assert cluster_adjacency(one) == {0: []}

    g2 = build_network({
        "dcs": [{"position": [0, 0]}, {"position": [1, 0]},
                {"position": [100, 0]}, {"position": [101, 0]}],
        "links": [{"a": 0, "b": 1}, {"a": 2, "b": 3}, {"a": 1, "b": 2}]})
    part = make_clusters(g2, 2, 0)
    adj = cluster_adjacency(part)
    assert len(adj) == 2
    assert adj[0] == [1] and adj[1] == [0]


def test_cluster_adjacency_matches_brute_force():
    g = build_network({"dc_count": 20, "seed": 13})
    part = make_clusters(g, 5, 1)
    adj = cluster_adjacency(part)
    expect = {c: set() for c in part.clusters}
    for link in g.links:
        ca, cb = part.assignment[link.a], part.assignment[link.b]
        if ca != cb:
            expect[ca].add(cb)
            expect[cb].add(ca)
    assert adj == {c: sorted(s) for c, s in expect.items()}


def ref_greedy_assign(points, centroids, size_limit):
    """The capacity-respecting assignment step with a Python `min` over the
    open clusters, keyed by (distance, cluster index)."""
    n, k = len(points), len(centroids)
    dist = np.sqrt(((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
    if k == 1:
        return [0] * n
    part = np.sort(dist, axis=1)
    order = sorted(range(n), key=lambda i: (part[i, 0] - part[i, 1], i))
    remaining = [size_limit] * k
    assign = [-1] * n
    for i in order:
        best = min((c for c in range(k) if remaining[c] > 0),
                   key=lambda c: (dist[i, c], c))
        assign[i] = best
        remaining[best] -= 1
    return assign


BENCHMARK_GEOMETRY = {"area_km": 1000.0, "radius_km": 250.0}
# (DCs, topology seed, cluster limit, partition seeds) of perfbench's
# eval-fragmented, eval-dense and eval-wide workloads
BENCHMARK_PARTITIONS = [(80, 5, 4, (2, 7, 11)), (40, 11, 8, (11, 12, 13)),
                        (200, 11, 8, (12, 13, 14))]


def test_greedy_assign_matches_reference(monkeypatch):
    """The vectorised assignment step gives the same partitions as the
    reference: on the benchmark's partitions, and on random graphs where
    DCs tie on distance to several centroids (a square grid)."""
    cases = [(build_network({"dc_count": n, "seed": topo, **BENCHMARK_GEOMETRY}),
              limit, seed)
             for n, topo, limit, seeds in BENCHMARK_PARTITIONS for seed in seeds]
    rng = np.random.default_rng(17)
    for i in range(30):
        n = int(rng.integers(3, 100))
        cases.append((build_network({"dc_count": n, "seed": i}),
                      int(rng.integers(1, 9)), i))
    grid = {"dcs": [{"position": [100.0 * (i % 4), 100.0 * (i // 4)]}
                    for i in range(16)],
            "links": [{"a": i, "b": i + 1} for i in range(15)]}
    cases += [(build_network(grid), limit, seed)
              for limit in (2, 3, 5) for seed in range(5)]
    for graph, limit, seed in cases:
        got = make_clusters(graph, limit, seed)
        with monkeypatch.context() as m:
            m.setattr(topology, "_greedy_assign", ref_greedy_assign)
            want = make_clusters(graph, limit, seed)
        assert got.assignment == want.assignment
        assert got.centroids == want.centroids


def ref_lloyd_greedy_assign(points, centroids, size_limit):
    """The assignment step as a masked `argmin` per DC."""
    n, k = len(points), len(centroids)
    dist = np.sqrt(((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
    if k == 1:
        return [0] * n
    part = np.sort(dist, axis=1)
    order = sorted(range(n), key=lambda i: (part[i, 0] - part[i, 1], i))
    remaining = np.full(k, size_limit)
    assign = [-1] * n
    for i in order:
        best = int(np.where(remaining > 0, dist[i], np.inf).argmin())
        assign[i] = best
        remaining[best] -= 1
    return assign


def ref_make_clusters(graph, size_limit, seed):
    """Lloyd's loop run to its fixed point or to all MAX_KMEANS_ITERS
    iterations. Returns the partition and the centroid bytes of every
    iteration it ran."""
    n = graph.dc_count
    size_limit = min(size_limit, n)
    k = math.ceil(n / size_limit)
    points = np.array([graph.dcs[i].position for i in range(n)], dtype=float)
    centroids = topology._kmeans_pp_seeds(points, k, np.random.default_rng(seed))
    states = [centroids.tobytes()]
    prev = None
    assign = ref_lloyd_greedy_assign(points, centroids, size_limit)
    for _ in range(topology.MAX_KMEANS_ITERS):
        if assign == prev:
            break
        prev = assign
        new_centroids = centroids.copy()
        for c in range(k):
            members = [i for i in range(n) if assign[i] == c]
            if members:
                new_centroids[c] = points[members].mean(axis=0)
        centroids = new_centroids
        states.append(centroids.tobytes())
        assign = ref_lloyd_greedy_assign(points, centroids, size_limit)

    members_by_c = {}
    for i, c in enumerate(assign):
        members_by_c.setdefault(c, []).append(i)
    old_ids = sorted(members_by_c, key=lambda c: min(members_by_c[c]))
    remap = {old: new for new, old in enumerate(old_ids)}
    assignment = {i: remap[assign[i]] for i in range(n)}
    clusters = {remap[c]: sorted(members_by_c[c]) for c in old_ids}
    cents = {remap[c]: (float(centroids[c][0]), float(centroids[c][1]))
             for c in old_ids}
    intra = {c: [] for c in clusters}
    inter = []
    for link in graph.links:
        ca, cb = assignment[link.a], assignment[link.b]
        if ca == cb:
            intra[ca].append(link)
        else:
            inter.append(link)
    return (topology.ClusterPartition(assignment, clusters, intra, inter, cents,
                                      size_limit), states)


def test_early_stop_matches_full_lloyd_loop():
    """Stopping at the fixed point or at the first repeated state returns
    what running every iteration returns, on random graphs, the benchmark's
    partitions and a grid with ties; some of these cycle to the cap."""
    cases = [(build_network({"dc_count": n, "seed": topo, **BENCHMARK_GEOMETRY}),
              limit, seed)
             for n, topo, limit, seeds in BENCHMARK_PARTITIONS for seed in seeds]
    rng = np.random.default_rng(2000)
    for i in range(200):
        n = int(rng.integers(2, 200))
        cases.append((build_network({"dc_count": n, "seed": 1000 + i}),
                      int(rng.integers(1, 10)), i))
    grid = {"dcs": [{"position": [100.0 * (i % 4), 100.0 * (i // 4)]}
                    for i in range(16)],
            "links": [{"a": i, "b": i + 1} for i in range(15)]}
    cases += [(build_network(grid), limit, seed)
              for limit in (2, 3, 5) for seed in range(5)]
    capped = cycles = 0
    for graph, limit, seed in cases:
        got = make_clusters(graph, limit, seed)
        want, states = ref_make_clusters(graph, limit, seed)
        assert got.assignment == want.assignment
        assert got.clusters == want.clusters
        assert (np.array(list(got.centroids.values())).tobytes()
                == np.array(list(want.centroids.values())).tobytes())
        assert got.intra_links == want.intra_links
        assert got.inter_links == want.inter_links
        if len(states) == topology.MAX_KMEANS_ITERS + 1:
            capped += 1
            last = states[-1]
            period = next(j for j in range(1, len(states))
                          if states[-1 - j] == last)
            cycles += period >= 2
    assert capped >= 10 and cycles >= 1


def west_seeded_instance(points, limit, rng):
    """k-means++ centroids for `points` at `limit` drawn from their western
    third only, so the nearest centroids of most DCs fill up before they are
    reached and the DCs fall back to farther ones."""
    k = math.ceil(len(points) / limit)
    west = points[np.argsort(points[:, 0], kind="stable")[:max(k, len(points) // 3)]]
    return topology._kmeans_pp_seeds(west, k, rng)


def test_greedy_assign_matches_reference_on_large_tight_instances():
    """One assignment step equals the masked-`argmin` reference on 500 to
    2,000 DCs where most DCs fall back past their full nearest centroid, and
    on a 20x20 lattice, whose DCs tie on distance to several centroids."""
    lattice = np.array([(100.0 * (i % 20), 100.0 * (i // 20)) for i in range(400)])
    cases = [(np.random.default_rng(n).uniform(0.0, 1000.0, size=(n, 2)), limit)
             for n in (500, 1000, 2000) for limit in (4, 8)]
    cases += [(lattice, limit) for limit in (4, 8)]
    tied = 0
    for points, limit in cases:
        centroids = west_seeded_instance(points, limit,
                                         np.random.default_rng(limit))
        got = topology._greedy_assign(points, centroids, limit)
        assert got.tolist() == ref_lloyd_greedy_assign(points, centroids, limit)
        assert np.bincount(got).max() <= limit
        dist = np.sqrt(((points[:, None, :] - centroids[None, :, :]) ** 2)
                       .sum(axis=2))
        assert np.mean(got != dist.argmin(axis=1)) > 0.5
        nearest2 = np.sort(dist, axis=1)[:, :2]
        tied += int(np.sum(nearest2[:, 0] == nearest2[:, 1]))
    assert tied > 0


def test_shared_positions_match_full_lloyd_loop():
    """12 DCs on 1 to 4 points: k-means++ seeding runs out of distinct
    positions and falls back to the lowest unchosen DC, and whole rows of
    distances tie. The partition still equals the full loop's and keeps the
    size limit."""
    fallbacks = 0
    for spots in range(1, 5):
        rng = np.random.default_rng(spots)
        places = rng.uniform(0.0, 500.0, size=(spots, 2)).tolist()
        at = rng.integers(spots, size=12)
        graph = build_network({
            "dcs": [{"position": places[s]} for s in at],
            "links": [{"a": i, "b": i + 1} for i in range(11)]})
        points = np.array([dc.position for dc in graph.dcs])
        for limit in range(2, 6):
            for seed in range(6):
                got = make_clusters(graph, limit, seed)
                want, _ = ref_make_clusters(graph, limit, seed)
                assert got.assignment == want.assignment
                assert got.clusters == want.clusters
                assert got.centroids == want.centroids
                assert got.inter_links == want.inter_links
                assert all(len(m) <= limit for m in got.clusters.values())
                k = math.ceil(12 / limit)
                seeds = topology._kmeans_pp_seeds(
                    points, k, np.random.default_rng(seed))
                fallbacks += len(np.unique(seeds, axis=0)) < k
    assert fallbacks > 0
