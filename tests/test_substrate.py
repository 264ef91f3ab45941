"""Substrate accounting tests: placement, uninstall, allocation, bandwidth."""

import math

import numpy as np
import pytest

from sfcsim.routing import PathResult
from sfcsim.substrate import Substrate, SubstrateError
from sfcsim.topology import build_network
from sfcsim.workload import VNF_ORDER, SfcRequest, catalog_from_config, \
    default_catalog


@pytest.fixture
def cat():
    return default_catalog()


@pytest.fixture
def graph():
    return build_network({"dc_count": 4, "seed": 0})


@pytest.fixture
def sub(graph):
    return Substrate(graph)


def test_can_place_boundaries(cat, sub):
    tm = cat.vnfs["TM"]
    assert sub.can_place(0, tm)  # empty 40/256/2048 DC fits a 13/7/7 TM
    dc = sub.dcs[0]
    dc.free_vcpu = 0.0
    assert not sub.can_place(0, tm)
    dc.free_vcpu = float(tm.vcpu)
    dc.free_ram = float(tm.ram)
    dc.free_storage = float(tm.storage)
    assert sub.can_place(0, tm)  # boundary is inclusive


def test_place_nat_arithmetic(cat, sub):
    sub.place_vnf(0, cat.vnfs["NAT"])
    dc = sub.dcs[0]
    assert dc.free_vcpu == 39.0
    assert dc.free_ram == 252.0
    assert dc.free_storage == 2041.0
    sub.verify_accounting()


def test_place_until_exhausted_then_reject(cat, sub):
    tm = cat.vnfs["TM"]
    placed = 0
    while sub.can_place(1, tm):
        sub.place_vnf(1, tm)
        placed += 1
    assert placed == 3  # 40 vCPU // 13
    with pytest.raises(SubstrateError):
        sub.place_vnf(1, tm)
    sub.verify_accounting()


def test_place_uninstall_identity(cat, sub):
    before = (sub.dcs[2].free_vcpu, sub.dcs[2].free_ram, sub.dcs[2].free_storage)
    inst = sub.place_vnf(2, cat.vnfs["VOC"])
    sub.uninstall_vnf(inst)
    after = (sub.dcs[2].free_vcpu, sub.dcs[2].free_ram, sub.dcs[2].free_storage)
    assert before == after
    sub.verify_accounting()


def test_uninstall_busy_refused(cat, sub):
    """An allocated instance and one reserved for a pending allocation are
    refused, and nothing changes."""
    allocated = sub.place_vnf(0, cat.vnfs["FW"])
    r = SfcRequest(0, cat.sfcs["Ind4.0"], 70.0, 0, 1, next_vnf_index=1)
    sub.allocate(r, allocated, 0.0, 0.0)
    reserved = sub.place_vnf(0, cat.vnfs["FW"])
    sub.reserve_instance(reserved)
    dc = sub.dcs[0]
    for inst in (allocated, reserved):
        before = (dc.free_vcpu, dc.free_ram, dc.free_storage)
        with pytest.raises(SubstrateError, match="busy"):
            sub.uninstall_vnf(inst)
        assert dc.installed["FW"] == [allocated, reserved]
        assert (dc.free_vcpu, dc.free_ram, dc.free_storage) == before
    sub.verify_accounting()


def test_fractional_ram_and_storage_keep_exact_accounting(sub):
    """A VNF with fractional RAM and storage, as `workload.overrides` can
    set, places and uninstalls without accounting drift: running sums of
    0.1 differ from the correctly rounded total, and three placements used
    to raise `RAM accounting drift`. Removing them all frees every unit."""
    nat = catalog_from_config(
        {"vnfs": {"NAT": {"ram": 0.1, "storage": 0.1}}}).vnfs["NAT"]
    dc = sub.dcs[0]
    caps = (dc.free_vcpu, dc.free_ram, dc.free_storage)
    placed = [sub.place_vnf(0, nat) for _ in range(3)]
    sub.verify_accounting()
    for inst in placed:
        sub.uninstall_vnf(inst)
        sub.verify_accounting()
    assert (dc.free_vcpu, dc.free_ram, dc.free_storage) == caps


def recounted_idle(dc):
    """A DC's idle instance counts counted afresh from its instances."""
    return {v: sum(i.is_idle() for i in dc.installed.get(v, []))
            for v in VNF_ORDER}


def recounted_installed(dc):
    """A DC's installed instance counts counted afresh from its instances."""
    return {v: len(dc.installed.get(v, [])) for v in VNF_ORDER}


def test_dc_features_follow_every_instance_change(cat, sub):
    """The idle and installed counts the DC keeps equal a fresh count after
    each change an instance can go through (place, allocate, free, reserve,
    a reservation given back, a reservation allocated, uninstall); the DC
    next door keeps its counts."""
    dc, other = sub.dcs[0], sub.dcs[1]
    kept = recounted_idle(other)
    kept_installed = recounted_installed(other)
    fw = cat.vnfs["FW"]
    r = SfcRequest(0, cat.sfcs["Ind4.0"], 70.0, 0, 1, next_vnf_index=1)
    r2 = SfcRequest(1, cat.sfcs["Ind4.0"], 70.0, 0, 1, next_vnf_index=1)
    held = sub.place_vnf(0, fw)
    changes = [lambda: sub.place_vnf(0, fw),
               lambda: sub.allocate(r, held, 0.0, 0.0),
               lambda: sub.free_instance(held),
               lambda: sub.reserve_instance(held),
               lambda: sub.unreserve_instance(held),
               lambda: sub.reserve_instance(held),
               lambda: sub.allocate(r2, held, 0.0, 0.0),  # assisted, found
               lambda: sub.free_instance(held),
               lambda: sub.uninstall_vnf(held)]
    for change in changes:
        change()
        assert dc.idle == recounted_idle(dc)
        assert dc.installed_counts == recounted_installed(dc)
        sub.verify_accounting()
    assert dc.idle["FW"] == len(dc.installed["FW"]) == 1
    assert dc.installed_counts["FW"] == 1
    assert other.idle == kept
    assert other.installed_counts == kept_installed


def test_verify_accounting_catches_idle_count_drift(cat, sub):
    """An idle count that disagrees with the DC's instances is drift."""
    sub.place_vnf(2, cat.vnfs["WO"])
    sub.verify_accounting()
    sub.dcs[2].idle["WO"] = 0
    with pytest.raises(SubstrateError, match="DC 2: WO idle count drift"):
        sub.verify_accounting()


def test_verify_accounting_catches_installed_count_drift(cat, sub):
    """An installed count that disagrees with the DC's instances is drift."""
    sub.place_vnf(2, cat.vnfs["WO"])
    sub.verify_accounting()
    sub.dcs[2].installed_counts["WO"] = 2
    with pytest.raises(SubstrateError,
                       match="DC 2: WO installed count drift"):
        sub.verify_accounting()


def test_uninstall_unknown_instance(cat, sub):
    inst = sub.place_vnf(0, cat.vnfs["NAT"])
    sub.uninstall_vnf(inst)
    with pytest.raises(SubstrateError):
        sub.uninstall_vnf(inst)


def test_allocate_waiting_and_busy_until(cat, sub):
    fw = cat.vnfs["FW"]
    inst = sub.place_vnf(0, fw)
    r = SfcRequest(1, cat.sfcs["Ind4.0"], 70.0, 0, 1, next_vnf_index=1)
    r.ready_time = 10.0
    assert sub.allocate(r, inst, 10.0, 0.0) == 0.0
    assert inst.busy_until == pytest.approx(10.03)


def test_allocate_accrues_waiting(cat, sub):
    fw = cat.vnfs["FW"]
    inst = sub.place_vnf(0, fw)
    r = SfcRequest(2, cat.sfcs["Ind4.0"], 70.0, 0, 1, next_vnf_index=1)
    r.ready_time = 8.0
    assert sub.allocate(r, inst, 10.0, 0.0) == pytest.approx(2.0)
    assert r.processing_total == pytest.approx(2.03)


def test_allocate_type_mismatch_and_busy(cat, sub):
    nat = cat.vnfs["NAT"]
    inst = sub.place_vnf(0, nat)
    r = SfcRequest(4, cat.sfcs["Ind4.0"], 70.0, 0, 1, next_vnf_index=1)
    with pytest.raises(SubstrateError):
        sub.allocate(r, inst, 0.0, 0.0)  # FW expected, NAT given
    r2 = SfcRequest(5, cat.sfcs["MIoT"], 10.0, 0, 1)
    sub.allocate(r2, inst, 0.0, 0.0)
    r3 = SfcRequest(6, cat.sfcs["MIoT"], 10.0, 0, 1)
    with pytest.raises(SubstrateError):
        sub.allocate(r3, inst, 0.0, 0.0)  # instance busy


def one_link_path(graph):
    link = graph.links[0]
    return PathResult([link.a, link.b], link.distance, [link])


def test_reserve_release_roundtrip(cat, graph, sub):
    path = one_link_path(graph)
    r = SfcRequest(7, cat.sfcs["AR"], 100.0, path.hops[0], path.hops[1])
    assert sub.reserve_bandwidth(path, r)
    assert sub.link_free(path.links_used[0]) == 900.0
    sub.release_bandwidth(r.id)
    assert sub.link_free(path.links_used[0]) == 1000.0


def test_fifteen_voip_exact_fsum(cat, graph, sub):
    path = one_link_path(graph)
    for i in range(15):
        r = SfcRequest(100 + i, cat.sfcs["VoIP"], 0.064, path.hops[0],
                       path.hops[1])
        assert sub.reserve_bandwidth(path, r)
    import math
    assert sub.link_free(path.links_used[0]) == 1000.0 - math.fsum([0.064] * 15)
    sub.verify_accounting()


def test_reserve_all_or_nothing(cat, sub):
    g = build_network({
        "dcs": [{"position": [0, 0]}, {"position": [1, 0]}, {"position": [2, 0]}],
        "links": [{"a": 0, "b": 1}, {"a": 1, "b": 2, "bandwidth_mbps": 50.0}]})
    s = Substrate(g)
    path = PathResult([0, 1, 2], 2.0, list(g.links))
    r = SfcRequest(8, cat.sfcs["AR"], 100.0, 0, 2)
    assert not s.reserve_bandwidth(path, r)  # second link too small
    for link in g.links:
        assert s.link_free(link) == link.bandwidth_cap  # nothing held


def test_reserve_counts_repeated_link(cat):
    g = build_network({
        "dcs": [{"position": [0, 0]}, {"position": [1, 0]}],
        "links": [{"a": 0, "b": 1, "bandwidth_mbps": 150.0}]})
    s = Substrate(g)
    link = g.links[0]
    path = PathResult([0, 1, 0], 2.0, [link, link])  # room for one share only
    r = SfcRequest(10, cat.sfcs["AR"], 100.0, 0, 0)
    assert not s.reserve_bandwidth(path, r)
    assert s.link_free(link) == 150.0
    assert s.links[link.key].reservations == {}
    s.release_bandwidth(r.id)  # nothing held: a no-op
    assert s.link_free(link) == 150.0
    s.verify_accounting()


def test_release_idempotent(cat, graph, sub):
    path = one_link_path(graph)
    r = SfcRequest(9, cat.sfcs["CG"], 4.0, path.hops[0], path.hops[1])
    sub.reserve_bandwidth(path, r)
    sub.release_bandwidth(r.id)
    sub.release_bandwidth(r.id)
    assert sub.link_free(path.links_used[0]) == 1000.0


def test_fuzzed_operations_never_drift(cat):
    g = build_network({"dc_count": 6, "seed": 10})
    sub = Substrate(g)
    rng = np.random.default_rng(55)
    vnfs = list(cat.vnfs.values())
    instances = []
    rid = 1000
    for _ in range(500):
        op = rng.integers(4)
        if op == 0:
            dc = int(rng.integers(6))
            vnf = vnfs[int(rng.integers(len(vnfs)))]
            if sub.can_place(dc, vnf):
                instances.append(sub.place_vnf(dc, vnf))
        elif op == 1 and instances:
            inst = instances[int(rng.integers(len(instances)))]
            if inst.is_idle():
                sub.uninstall_vnf(inst)
                instances.remove(inst)
        elif op == 2:
            link = g.links[int(rng.integers(len(g.links)))]
            path = PathResult([link.a, link.b], link.distance, [link])
            r = SfcRequest(rid, cat.sfcs["CG"], float(rng.uniform(1, 200)),
                           link.a, link.b)
            rid += 1
            sub.reserve_bandwidth(path, r)
        else:
            sub.release_bandwidth(int(rng.integers(1000, rid + 1)))
        sub.verify_accounting()


def recomputed_free(rt):
    return rt.link.bandwidth_cap - math.fsum(
        rt.reservations[r] for r in sorted(rt.reservations))


def test_cached_free_bw_matches_full_recompute(cat):
    g = build_network({"dc_count": 8, "seed": 3})
    sub = Substrate(g)
    rng = np.random.default_rng(8)
    rids = list(range(20))
    for _ in range(400):
        rid = int(rng.choice(rids))
        before = {key: {r: bw for r, bw in rt.reservations.items() if r != rid}
                  for key, rt in sub.links.items()}
        if rng.random() < 0.6:
            # 1-3 distinct links; a request that reserves again adds a
            # second share on links it already holds
            picks = rng.choice(len(g.links), size=int(rng.integers(1, 4)),
                               replace=False)
            links = [g.links[int(i)] for i in picks]
            path = PathResult([links[0].a, links[0].b], 1.0, links)
            r = SfcRequest(rid, cat.sfcs["CG"], float(rng.uniform(1, 300)),
                           links[0].a, links[0].b)
            sub.reserve_bandwidth(path, r)
        else:
            sub.release_bandwidth(rid)
            assert all(rid not in rt.reservations for rt in sub.links.values())
        after = {key: {r: bw for r, bw in rt.reservations.items() if r != rid}
                 for key, rt in sub.links.items()}
        assert after == before  # other requests' reservations untouched
        for rt in sub.links.values():
            assert rt.free_bw == recomputed_free(rt)
        sub.verify_accounting()


def test_free_bw_does_not_depend_on_reservation_order(cat):
    """The same reservations made, and some released, in a permuted order
    leave the same free bandwidth, bit for bit: `fsum` is correctly
    rounded, so the order of the sum does not matter."""
    g = build_network({
        "dcs": [{"position": [0, 0]}, {"position": [1, 0]}],
        "links": [{"a": 0, "b": 1, "bandwidth_mbps": 1e6}]})
    link = g.links[0]
    path = PathResult([0, 1], 1.0, [link])
    rng = np.random.default_rng(21)
    for _ in range(50):
        # magnitudes from 1e-3 to 1e3 Mbps, so a plain sum would round
        # differently in different orders
        bws = 10.0 ** rng.uniform(-3, 3, 40)
        released = set(rng.choice(40, size=10, replace=False).tolist())
        frees = set()
        for order in (range(40), rng.permutation(40), rng.permutation(40)):
            s = Substrate(g)
            for i in order:
                assert s.reserve_bandwidth(path, SfcRequest(
                    int(i), cat.sfcs["CG"], float(bws[i]), 0, 1))
            for i in rng.permutation(sorted(released)):
                s.release_bandwidth(int(i))
            frees.add(s.link_free(link).hex())
            s.verify_accounting()
        assert len(frees) == 1


def test_verify_accounting_catches_reservation_behind_cache(cat, graph, sub):
    path = one_link_path(graph)
    r = SfcRequest(11, cat.sfcs["CG"], 4.0, path.hops[0], path.hops[1])
    assert sub.reserve_bandwidth(path, r)
    sub.verify_accounting()
    sub.links[path.links_used[0].key].reservations[12] = 1.0
    with pytest.raises(SubstrateError, match="bandwidth accounting drift"):
        sub.verify_accounting()
