"""Substrate accounting tests: placement, uninstall, allocation, bandwidth."""

import math

import numpy as np
import pytest

from sfcsim.routing import PathResult
from sfcsim.substrate import Substrate, SubstrateError
from sfcsim.topology import build_network
from sfcsim.workload import SfcRequest, default_catalog


@pytest.fixture
def cat():
    return default_catalog()


@pytest.fixture
def sub():
    g = build_network({"dc_count": 4, "seed": 0})
    return Substrate(g)


def test_can_place_boundaries(cat, sub):
    tm = cat.vnf("TM")
    assert sub.can_place(0, tm)  # empty 40/256/2048 DC fits a 13/7/7 TM
    dc = sub.dcs[0]
    dc.free_vcpu = 0.0
    assert not sub.can_place(0, tm)
    dc.free_vcpu = float(tm.vcpu)
    dc.free_ram = float(tm.ram)
    dc.free_storage = float(tm.storage)
    assert sub.can_place(0, tm)  # boundary is inclusive


def test_place_nat_arithmetic(cat, sub):
    sub.place_vnf(0, cat.vnf("NAT"))
    dc = sub.dcs[0]
    assert dc.free_vcpu == 39.0
    assert dc.free_ram == 252.0
    assert dc.free_storage == 2041.0
    sub.verify_accounting()


def test_place_until_exhausted_then_reject(cat, sub):
    tm = cat.vnf("TM")
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
    inst = sub.place_vnf(2, cat.vnf("VOC"))
    out = sub.uninstall_vnf(inst, 0.0)
    assert out.removed and out.penalty == 0.0
    after = (sub.dcs[2].free_vcpu, sub.dcs[2].free_ram, sub.dcs[2].free_storage)
    assert before == after
    sub.verify_accounting()


def test_uninstall_busy_refused(cat, sub):
    inst = sub.place_vnf(0, cat.vnf("FW"))
    r = SfcRequest(0, cat.sfc("Ind4.0"), 70.0, 0, 1, next_vnf_index=1)
    sub.allocate(r, 1, inst, 0.0)
    out = sub.uninstall_vnf(inst, 0.0)
    assert not out.removed


def test_uninstall_needed_penalty(cat, sub):
    inst = sub.place_vnf(0, cat.vnf("NAT"))
    out = sub.uninstall_vnf(inst, 0.0, needed=True)
    assert out.removed and out.penalty == -0.5


def test_uninstall_unknown_instance(cat, sub):
    inst = sub.place_vnf(0, cat.vnf("NAT"))
    sub.uninstall_vnf(inst, 0.0)
    with pytest.raises(SubstrateError):
        sub.uninstall_vnf(inst, 0.0)


def test_allocate_waiting_and_busy_until(cat, sub):
    fw = cat.vnf("FW")
    inst = sub.place_vnf(0, fw)
    r = SfcRequest(1, cat.sfc("Ind4.0"), 70.0, 0, 1, next_vnf_index=1)
    r.ready_time = 10.0
    rec = sub.allocate(r, 1, inst, 10.0)
    assert rec.waited == 0.0
    assert rec.busy_until == pytest.approx(10.03)
    assert r.placements[-1].dc == 0


def test_allocate_accrues_waiting(cat, sub):
    fw = cat.vnf("FW")
    inst = sub.place_vnf(0, fw)
    r = SfcRequest(2, cat.sfc("Ind4.0"), 70.0, 0, 1, next_vnf_index=1)
    r.ready_time = 8.0
    rec = sub.allocate(r, 1, inst, 10.0)
    assert rec.waited == pytest.approx(2.0)
    assert r.processing_total == pytest.approx(2.03)


def test_allocate_chain_position_unique(cat, sub):
    nat = cat.vnf("NAT")
    i1 = sub.place_vnf(0, nat)
    i2 = sub.place_vnf(0, nat)
    r = SfcRequest(3, cat.sfc("MIoT"), 10.0, 0, 1)
    sub.allocate(r, 0, i1, 0.0)
    with pytest.raises(SubstrateError):
        sub.allocate(r, 0, i2, 0.0)  # position 0 already processed


def test_allocate_type_mismatch_and_busy(cat, sub):
    nat = cat.vnf("NAT")
    inst = sub.place_vnf(0, nat)
    r = SfcRequest(4, cat.sfc("Ind4.0"), 70.0, 0, 1, next_vnf_index=1)
    with pytest.raises(SubstrateError):
        sub.allocate(r, 1, inst, 0.0)  # FW expected, NAT given
    r2 = SfcRequest(5, cat.sfc("MIoT"), 10.0, 0, 1)
    sub.allocate(r2, 0, inst, 0.0)
    r3 = SfcRequest(6, cat.sfc("MIoT"), 10.0, 0, 1)
    with pytest.raises(SubstrateError):
        sub.allocate(r3, 0, inst, 0.0)  # instance busy


def one_link_path(sub):
    link = sub.graph.links[0]
    return PathResult([link.a, link.b], link.distance, [link])


def test_reserve_release_roundtrip(cat, sub):
    path = one_link_path(sub)
    r = SfcRequest(7, cat.sfc("AR"), 100.0, path.hops[0], path.hops[1])
    assert sub.reserve_bandwidth(path, r)
    assert sub.link_free(path.links_used[0]) == 900.0
    sub.release_bandwidth(r.id)
    assert sub.link_free(path.links_used[0]) == 1000.0


def test_fifteen_voip_exact_fsum(cat, sub):
    path = one_link_path(sub)
    for i in range(15):
        r = SfcRequest(100 + i, cat.sfc("VoIP"), 0.064, path.hops[0], path.hops[1])
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
    r = SfcRequest(8, cat.sfc("AR"), 100.0, 0, 2)
    assert not s.reserve_bandwidth(path, r)  # second link too small
    for link in g.links:
        assert s.link_free(link) == link.bandwidth_cap  # nothing held


def test_release_idempotent(cat, sub):
    path = one_link_path(sub)
    r = SfcRequest(9, cat.sfc("CG"), 4.0, path.hops[0], path.hops[1])
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
            out = sub.uninstall_vnf(inst, 0.0)
            if out.removed:
                instances.remove(inst)
        elif op == 2:
            link = g.links[int(rng.integers(len(g.links)))]
            path = PathResult([link.a, link.b], link.distance, [link])
            r = SfcRequest(rid, cat.sfc("CG"), float(rng.uniform(1, 200)),
                           link.a, link.b)
            rid += 1
            sub.reserve_bandwidth(path, r)
        else:
            sub.release_bandwidth(int(rng.integers(1000, rid + 1)))
        sub.verify_accounting()


def test_snapshot_json_parses(cat, sub):
    import json
    sub.place_vnf(0, cat.vnf("WO"))
    snap = json.loads(sub.snapshot_json())
    assert snap["dcs"]["0"]["free_vcpu"] == 35.0
    assert "WO" in snap["dcs"]["0"]["installed"]


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
            r = SfcRequest(rid, cat.sfc("CG"), float(rng.uniform(1, 300)),
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


def test_verify_accounting_catches_reservation_behind_cache(cat, sub):
    path = one_link_path(sub)
    r = SfcRequest(11, cat.sfc("CG"), 4.0, path.hops[0], path.hops[1])
    assert sub.reserve_bandwidth(path, r)
    sub.verify_accounting()
    sub.links[path.links_used[0].key].reservations[12] = 1.0
    with pytest.raises(SubstrateError, match="bandwidth accounting drift"):
        sub.verify_accounting()
