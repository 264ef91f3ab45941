"""Catalog values and request-bundle generation tests."""

import json
import math

import numpy as np
import pytest

from sfcsim.topology import build_network
from sfcsim.workload import (SFC_ORDER, SfcRequest, catalog_from_config,
                             default_catalog, export_workload, generate_bundles,
                             import_workload)


def test_catalog_sfc_rows():
    cat = default_catalog()
    cg = cat.sfcs["CG"]
    assert [v.name for v in cg.chain] == ["NAT", "FW", "VOC", "WO", "IDPS"]
    assert cg.bandwidth == 4.0
    assert cg.e2e_tolerance == 80.0
    assert cg.bundle_range == (40, 55)

    miot = cat.sfcs["MIoT"]
    assert [v.name for v in miot.chain] == ["NAT", "FW", "IDPS"]
    assert miot.bandwidth == (1.0, 50.0)
    assert miot.e2e_tolerance == 5.0
    assert miot.bundle_range == (10, 15)

    voip = cat.sfcs["VoIP"]
    assert voip.bandwidth == 0.064
    assert voip.bundle_range == (100, 200)


def test_catalog_vnf_rows():
    cat = default_catalog()
    nat = cat.vnfs["NAT"]
    assert (nat.vcpu, nat.ram, nat.storage, nat.proc_time) == (1, 4, 7, 0.06)
    idps = cat.vnfs["IDPS"]
    assert (idps.vcpu, idps.ram, idps.storage, idps.proc_time) == (11, 15, 2, 0.02)
    fw = cat.vnfs["FW"]
    assert fw.proc_time == 0.03


def test_bundle_counts_scale_one():
    cat = default_catalog()
    g = build_network({"dc_count": 6, "seed": 1})
    for seed in range(10):
        reqs = generate_bundles(cat, g, 1.0, np.random.default_rng(seed))
        voip = sum(1 for r in reqs if r.sfc_type.name == "VoIP")
        assert 100 <= voip <= 200


def test_bundle_counts_scale_two():
    cat = default_catalog()
    g = build_network({"dc_count": 6, "seed": 1})
    for seed in range(10):
        reqs = generate_bundles(cat, g, 2.0, np.random.default_rng(seed))
        cg = sum(1 for r in reqs if r.sfc_type.name == "CG")
        assert 80 <= cg <= 110


def test_two_dc_graph_distinct_endpoints():
    cat = default_catalog()
    g = build_network({"dcs": [{"position": [0, 0]}, {"position": [1, 0]}],
                       "links": [{"a": 0, "b": 1}]})
    reqs = generate_bundles(cat, g, 1.0, np.random.default_rng(0))
    for r in reqs:
        assert r.source_dc != r.dest_dc
        assert {r.source_dc, r.dest_dc} <= {0, 1}


def test_fields_within_catalog_ranges():
    cat = default_catalog()
    g = build_network({"dc_count": 10, "seed": 2})
    reqs = generate_bundles(cat, g, 1.0, np.random.default_rng(3))
    for r in reqs:
        if r.sfc_type.name == "MIoT":
            assert 1.0 <= r.bandwidth <= 50.0
        else:
            assert r.bandwidth == r.sfc_type.bandwidth
        assert r.next_vnf_index == 0


def test_generation_deterministic():
    cat = default_catalog()
    g = build_network({"dc_count": 10, "seed": 2})
    a = generate_bundles(cat, g, 1.0, np.random.default_rng(9))
    b = generate_bundles(cat, g, 1.0, np.random.default_rng(9))
    assert [(r.id, r.sfc_type.name, r.bandwidth, r.source_dc, r.dest_dc)
            for r in a] == \
           [(r.id, r.sfc_type.name, r.bandwidth, r.source_dc, r.dest_dc)
            for r in b]


def test_request_delay_bookkeeping():
    cat = default_catalog()
    r = SfcRequest(0, cat.sfcs["Ind4.0"], 70.0, 0, 1)
    assert r.next_vnf.name == "NAT"
    r.next_vnf_index = 1
    assert r.next_vnf.name == "FW"
    r.processing_total = 0.06
    r.propagation_total = 1.0
    assert r.accrued_delay == pytest.approx(1.06)


def test_workload_roundtrip(tmp_path):
    cat = default_catalog()
    g = build_network({"dc_count": 5, "seed": 4})
    reqs = generate_bundles(cat, g, 0.3, np.random.default_rng(5))
    path = tmp_path / "wl.jsonl"
    export_workload(reqs, str(path))
    back = import_workload(cat, str(path))
    assert [(r.id, r.sfc_type.name, r.bandwidth, r.source_dc, r.dest_dc)
            for r in reqs] == \
           [(r.id, r.sfc_type.name, r.bandwidth, r.source_dc, r.dest_dc)
            for r in back]


def test_catalog_overrides():
    cat = catalog_from_config({
        "vnfs": {"NAT": {"vcpu": 2}},
        "sfcs": {"CG": {"e2e_tolerance": 50.0},
                 "AR": {"bundle_range": [2.0, 5]}}})
    assert cat.vnfs["NAT"].vcpu == 2
    # an int field takes a whole float as its int
    assert cat.sfcs["AR"].bundle_range == (2, 5)
    assert all(type(n) is int for n in cat.sfcs["AR"].bundle_range)
    assert cat.sfcs["CG"].e2e_tolerance == 50.0
    # CG's chain references the overridden NAT
    assert cat.sfcs["CG"].chain[0].vcpu == 2
    # untouched entries keep the defaults
    assert cat.vnfs["FW"].vcpu == 9
    assert cat.sfcs["VS"].e2e_tolerance == 100.0


@pytest.mark.parametrize("overrides,message", [
    ({"sfcs": {"CG": {"e2e_tolerance": math.nan}}}, "tolerance .*got nan"),
    ({"sfcs": {"CG": {"e2e_tolerance": math.inf}}}, "tolerance .*got inf"),
    ({"sfcs": {"CG": {"bandwidth": math.inf}}}, "bandwidth .*got inf"),
    ({"sfcs": {"MIoT": {"bandwidth": [1.0, math.inf]}}},
     r"bandwidth .*got \(1.0, inf\)"),
    ({"vnfs": {"IDPS": {"proc_time": math.nan}}}, "proc_time .*nan"),
    ({"vnfs": {"NAT": {"storage": math.inf}}}, "storage .*inf"),
    ({"vnfs": {"NAT": {"vcpu": math.inf}}}, "vnfs.NAT.vcpu .*got inf"),
])
def test_catalog_rejects_non_finite_values(overrides, message):
    """Every catalog number is positive and finite: a NaN tolerance or
    processing time would rank every request NaN, and an infinite bandwidth
    would drop every request of its type."""
    with pytest.raises(ValueError, match=message):
        catalog_from_config(overrides)


def test_generation_rejects_bad_scale():
    cat = default_catalog()
    g = build_network({"dc_count": 4, "seed": 0})
    with pytest.raises(ValueError):
        generate_bundles(cat, g, 0.0, np.random.default_rng(0))


def test_sfc_order_covers_catalog():
    cat = default_catalog()
    assert sorted(SFC_ORDER) == sorted(cat.sfcs)


def test_import_workload_names_the_malformed_line(tmp_path):
    cat = default_catalog()
    path = tmp_path / "wl.jsonl"
    export_workload([SfcRequest(0, cat.sfcs["CG"], 4.0, 0, 1)], str(path))
    with open(path, "a") as fh:
        fh.write('{"id": 1, "sfc_type": "XX"}\n')
    with pytest.raises(ValueError, match="line 2: unknown sfc_type 'XX'"):
        import_workload(cat, str(path))


def test_import_workload_accepts_only_arrival_zero(tmp_path):
    """Every request is queued at time 0, so a record's `arrival` may be
    absent or 0; any other value raises ValueError naming the line."""
    cat = default_catalog()
    path = tmp_path / "wl.jsonl"
    record = {"sfc_type": "CG", "bandwidth": 4.0, "source_dc": 0, "dest_dc": 1}
    path.write_text(json.dumps({**record, "id": 0}) + "\n"
                    + json.dumps({**record, "id": 1, "arrival": 0.0}) + "\n")
    assert [r.id for r in import_workload(cat, str(path))] == [0, 1]
    with open(path, "a") as fh:
        fh.write(json.dumps({**record, "id": 2, "arrival": 400.0}) + "\n")
    with pytest.raises(ValueError, match="line 3: arrival must be 0"):
        import_workload(cat, str(path))


@pytest.mark.parametrize("bandwidth", [math.inf, math.nan])
def test_import_workload_rejects_bandwidth_not_positive_finite(tmp_path,
                                                              bandwidth):
    cat = default_catalog()
    path = tmp_path / "wl.jsonl"
    path.write_text(json.dumps({"id": 0, "sfc_type": "CG", "bandwidth": 4.0,
                                "source_dc": 0, "dest_dc": 1}) + "\n"
                    + json.dumps({"id": 1, "sfc_type": "CG",
                                  "bandwidth": bandwidth, "source_dc": 0,
                                  "dest_dc": 1}) + "\n")
    with pytest.raises(ValueError,
                       match="line 2: bandwidth must be positive and finite"):
        import_workload(cat, str(path))


@pytest.mark.parametrize("field,value", [("source_dc", 1.9), ("dest_dc", True),
                                         ("id", 0.5), ("source_dc", "1.5")])
def test_import_workload_takes_only_whole_number_ids(tmp_path, field, value):
    """A request id or DC id takes whole numbers only: `int` used to
    truncate them, so `"source_dc": 1.9, "dest_dc": true` replayed from DC 1
    to DC 1."""
    cat = default_catalog()
    path = tmp_path / "wl.jsonl"
    record = {"id": 0, "sfc_type": "CG", "bandwidth": 4.0,
              "source_dc": 0, "dest_dc": 1}
    path.write_text(json.dumps(record) + "\n"
                    + json.dumps({**record, "id": 1, field: value}) + "\n")
    with pytest.raises(ValueError,
                       match=rf"line 2: {field} must be int, got {value!r}"):
        import_workload(cat, str(path))
    path.write_text(json.dumps({**record, "id": 2.0, "source_dc": 1.0}) + "\n")
    [request] = import_workload(cat, str(path))
    assert (request.id, request.source_dc) == (2, 1)
    assert type(request.id) is type(request.source_dc) is int
