"""Config tests: every section's keys are its dataclass's fields, and
`resolved_config.yaml` reloads to the same run config."""

import re
from dataclasses import MISSING, fields, replace

import pytest
import yaml

from sfcsim import cli
from sfcsim.config import ConfigError, SECTIONS, from_dict, resolved_snapshot
from sfcsim.drl import ModelConfig
from sfcsim.sim import SimConfig, TrainConfig
from sfcsim.topology import DataCenterSpec, DcEntry, LinkEntry, LinkSpec, \
    TopologyConfig, build_network
from sfcsim.workload import Overrides, SfcOverride, SfcType, VnfOverride, \
    VnfType, default_catalog

EVERY_KEY = {
    "topology": {"dc_count": 6, "area_km": 400.0, "radius_km": 120.0,
                 "storage_gb": 1024.0, "ram_gb": 128.0, "vcpu": 32.0,
                 "link_bw_mbps": 500.0, "seed": 8,
                 "dcs": [{"position": [0, 0]}, {"position": [1, 0]}],
                 "links": [{"a": 0, "b": 1}]},
    "cluster": {"size_limit": 3},
    "workload": {"scale": 0.5, "replay_file": "wl.jsonl",
                 "overrides": {"sfcs": {"CG": {"e2e_tolerance": 90.0}}}},
    "drl": {"branch_width": 16, "hidden_widths": [32, 16, 8],
            "learning_rate": 5e-4, "momentum": 0.8, "discount": 0.9,
            "epsilon_start": 0.9, "epsilon_end": 0.1, "epsilon_decay": 0.99,
            "replay_capacity": 1000, "batch_size": 16, "target_sync": 10},
    "sim": {"actions_per_step": 40, "max_steps": 90, "alloc_bonus": 0.5,
            "reward_clip": 1.5, "episodes": 2, "seeds": [4, 9]},
    "train": {"episodes": 30, "dc_choices": [3, 5], "size_limit": 3,
              "scale_range": [0.1, 0.2], "round_episodes": 10,
              "updates_per_round": 7, "area_km": 250.0, "radius_km": 100.0,
              "validation_cell": [10, 3, 0.5], "validation_seed": 2},
    "sweep": {"dc_counts": [6], "cluster_limits": [2, 3], "scales": [0.5]},
    "output": {"directory": "results", "formats": ["json"]},
}


# every key of a `topology.dcs` and `topology.links` entry, and of a VNF and
# an SFC override
EVERY_ENTRY_KEY = {
    "dcs": [{"position": [0, 0], "id": 1, "storage_gb": 100, "vcpu": 8,
             "ram_gb": 16},
            {"position": [3, 4], "id": 0}, {"position": [3, 0]}],
    "links": [{"a": 1, "b": 0, "distance_km": 6, "bandwidth_mbps": 200},
              {"a": 2, "b": 0}]}
EVERY_OVERRIDE = {
    "vnfs": {"TM": {"vcpu": 2, "ram": 1.5, "storage": 0.5, "proc_time": 0.2}},
    "sfcs": {"MIoT": {"chain": ["TM", "NAT"], "bandwidth": [2, 3],
                      "e2e_tolerance": 7, "bundle_range": [1, 2]}}}


def reload(cfg):
    return from_dict(yaml.safe_load(yaml.safe_dump(resolved_snapshot(cfg))))


@pytest.mark.parametrize("raw", [
    {},
    EVERY_KEY,
    {"sim": {"actions_per_step": 25, "max_steps": 60, "alloc_bonus": 0.0,
             "reward_clip": 1.0}},
    {"train": {"validation_cell": [4, 2, 0.1]}},
    {"topology": EVERY_ENTRY_KEY, "workload": {"overrides": EVERY_OVERRIDE}},
    {"workload": {"overrides": {"vnfs": None, "sfcs": {"VS": {}}}}},
], ids=["empty", "every_key", "sim", "validation_cell", "every_entry_key",
        "vnfs_null"])
def test_resolved_snapshot_round_trips(raw):
    cfg = from_dict(raw)
    again = reload(cfg)
    assert again == cfg
    assert reload(again) == cfg


def part(value, key):
    """`value`'s entry or field `key`."""
    return value[key] if isinstance(value, (list, dict)) else getattr(value, key)


def test_every_dataclass_field_is_a_yaml_key(tmp_path):
    # a sweep section is written only when the config has one
    raw = {"sweep": {"dc_counts": [40]}}
    cfg = from_dict(raw)
    cli._write_snapshot(cfg, str(tmp_path), None)
    written = yaml.safe_load((tmp_path / "resolved_config.yaml").read_text())
    assert set(written) == set(SECTIONS)
    for section, cls in SECTIONS.items():
        names = {f.name for f in fields(cls)}
        assert set(written[section]) == names
        for name in names:
            # each field is accepted on its own, with the value written
            single = from_dict({**raw, section: {name: written[section][name]}})
            assert single == cfg
    # so is each field of an entry or override, beside the required ones
    cfg = from_dict({"topology": EVERY_ENTRY_KEY,
                     "workload": {"overrides": EVERY_OVERRIDE}})
    cli._write_snapshot(cfg, str(tmp_path), None)
    written = yaml.safe_load((tmp_path / "resolved_config.yaml").read_text())
    for path, cls in [(("topology", "dcs", 0), DcEntry),
                      (("topology", "links", 0), LinkEntry),
                      (("workload", "overrides"), Overrides),
                      (("workload", "overrides", "vnfs", "TM"), VnfOverride),
                      (("workload", "overrides", "sfcs", "MIoT"), SfcOverride)]:
        *outer, key = path
        holder, kept = written, cfg
        for step in outer:
            holder, kept = holder[step], part(kept, step)
        entry = holder[key]
        assert set(entry) == {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is MISSING}
        for name in entry:
            holder[key] = {k: v for k, v in entry.items()
                           if k == name or k in required}
            single = from_dict(written)
            for step in path:
                single = part(single, step)
            assert getattr(single, name) == getattr(part(kept, key), name)
        holder[key] = entry


def test_training_and_evaluation_share_sim_defaults():
    # `sim.train` runs SimConfig() when given no sim config
    section = from_dict({}).sim
    assert all(getattr(section, f.name) == getattr(SimConfig(), f.name)
               for f in fields(SimConfig))
    assert (SimConfig().alloc_bonus, SimConfig().reward_clip) == (1.0, 2.0)


@pytest.mark.parametrize("section,key,value", [
    ("drl", "learning_rate", float("nan")), ("drl", "learning_rate", -1.0),
    ("drl", "discount", float("nan")), ("drl", "momentum", float("inf")),
    ("sim", "reward_clip", float("nan")), ("sim", "alloc_bonus", float("nan")),
    ("sim", "episodes", -1), ("sim", "max_steps", 0),
    ("sim", "actions_per_step", 0),
    # these loaded, and eval ran them
    ("train", "size_limit", 0), ("cluster", "size_limit", 0),
    ("train", "dc_choices", [1]), ("train", "dc_choices", [3, 1]),
    ("sweep", "dc_counts", [1]), ("sweep", "cluster_limits", [0]),
    ("train", "validation_cell", [1, 0, 1.0]),
    ("train", "validation_cell", [20, 0, 1.0]),
    # a negative seed crashed inside numpy
    ("sim", "seeds", [-2]), ("topology", "seed", -3),
    ("train", "validation_seed", -1),
    # an empty sweep list ran no episode and exited 0
    ("sweep", "dc_counts", []), ("sweep", "cluster_limits", []),
    ("sweep", "scales", [])])
def test_rejected_value_is_named(section, key, value):
    with pytest.raises(ConfigError) as err:
        from_dict({section: {key: value}})
    message = str(err.value)
    assert message.startswith(f"{section}.{key}")
    if value and isinstance(value, list):  # its first entry out of range
        index = int(re.match(rf"{section}\.{key}\[(\d+)\] ", message)[1])
        value = value[index]
    assert message.endswith(f"got {value}")


@pytest.mark.parametrize("make,name", [
    (lambda: TrainConfig(size_limit=0), "train.size_limit"),
    (lambda: SimConfig(max_steps=0), "sim.max_steps"),
    (lambda: ModelConfig(momentum=1.0), "drl.momentum"),
    (lambda: TopologyConfig(seed=-1), "topology.seed"),
    (lambda: replace(TrainConfig(), dc_choices=(2, 1)), "train.dc_choices[1]"),
], ids=["train", "sim", "drl", "topology", "replace"])
def test_direct_construction_is_checked(make, name):
    """Code that builds a section itself gets the loader's checks."""
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
        make()


@pytest.mark.parametrize("value", ["x", [1, "x"], [1, 2, 3]],
                         ids=["string", "bad_range_item", "three_items"])
def test_union_error_names_every_alternative(value):
    """A value that no alternative of a union takes is reported against all
    of them: the message named only the last, a tuple, although a single
    number is the usual bandwidth."""
    with pytest.raises(ConfigError) as err:
        from_dict({"workload": {"overrides": {"sfcs": {"CG": {
            "bandwidth": value}}}}})
    assert str(err.value) == ("workload.overrides.sfcs.CG.bandwidth must be "
                              f"float or tuple[float, float], got {value!r}")


@pytest.mark.parametrize("overrides,message", [
    ({"vnfs": {"NAT": {"vcpu": 1.5}}}, "vnfs.NAT.vcpu must be int, got 1.5"),
    ({"sfcs": {"AR": {"bundle_range": [1.7, 4.2]}}},
     "sfcs.AR.bundle_range[0] must be int, got 1.7"),
], ids=["vcpu", "bundle_range"])
def test_override_ints_take_whole_numbers(overrides, message):
    """Override ints follow the section fields' rule: a vcpu of 1.5 used to
    load as 1, and a bundle range of [1.7, 4.2] as (1, 4)."""
    with pytest.raises(ConfigError) as err:
        from_dict({"workload": {"overrides": overrides}})
    assert str(err.value) == f"workload.overrides.{message}"


TWO_DC_TOPOLOGY = {"dcs": [{"position": [0, 0]}, {"position": [1, 0]}],
                   "links": [{"a": 0, "b": 1}]}
TWO_DC_NETWORK = ([DataCenterSpec(0, (0.0, 0.0), 2048.0, 40.0, 256.0),
                   DataCenterSpec(1, (1.0, 0.0), 2048.0, 40.0, 256.0)],
                  [LinkSpec(0, 1, 1000.0, 1.0)])


@pytest.mark.parametrize("raw,network,vnfs,sfcs", [
    pytest.param(
        {"topology": {**EVERY_ENTRY_KEY, "vcpu": 30, "link_bw_mbps": 300}},
        ([DataCenterSpec(0, (3.0, 4.0), 2048.0, 30.0, 256.0),
          DataCenterSpec(1, (0.0, 0.0), 100.0, 8.0, 16.0),
          DataCenterSpec(2, (3.0, 0.0), 2048.0, 30.0, 256.0)],
         [LinkSpec(0, 1, 200.0, 6.0), LinkSpec(0, 2, 300.0, 4.0)]),
        {}, {}, id="explicit_every_key"),
    pytest.param(
        {"topology": {"dcs": [{"position": ["0", "1.5"], "id": "1"},
                              {"position": [2, "1.5"], "id": "0",
                               "ram_gb": "64"}],
                      "links": [{"a": "0", "b": "1", "distance_km": "3",
                                 "bandwidth_mbps": "50"}]},
         "workload": {"overrides": {
             "vnfs": {"NAT": {"vcpu": "3", "ram": "2.5"}},
             "sfcs": {"VoIP": {"e2e_tolerance": "50", "bandwidth": "0.5"}}}}},
        ([DataCenterSpec(0, (2.0, 1.5), 2048.0, 40.0, 64.0),
          DataCenterSpec(1, (0.0, 1.5), 2048.0, 40.0, 256.0)],
         [LinkSpec(0, 1, 50.0, 3.0)]),
        {"NAT": VnfType("NAT", 3, 2.5, 7, 0.06)},
        {"VoIP": {"e2e_tolerance": 50.0, "bandwidth": 0.5}},
        id="numeric_strings"),
    pytest.param(
        {"topology": {"dcs": [{"position": [0, 0], "id": 1.0},
                              {"position": [1, 0], "id": 0.0}],
                      "links": [{"a": 0.0, "b": 1.0}]},
         "workload": {"overrides": {
             "vnfs": {"FW": {"vcpu": 3.0}},
             "sfcs": {"AR": {"bundle_range": [2.0, 5.0]}}}}},
        ([DataCenterSpec(0, (1.0, 0.0), 2048.0, 40.0, 256.0),
          DataCenterSpec(1, (0.0, 0.0), 2048.0, 40.0, 256.0)],
         [LinkSpec(0, 1, 1000.0, 1.0)]),
        {"FW": VnfType("FW", 3, 5, 1, 0.03)},
        {"AR": {"bundle_range": (2, 5)}}, id="whole_floats"),
    pytest.param(
        {"topology": TWO_DC_TOPOLOGY,
         "workload": {"overrides": EVERY_OVERRIDE}},
        TWO_DC_NETWORK, {"TM": VnfType("TM", 2, 1.5, 0.5, 0.2)},
        {"MIoT": {"chain": ("TM", "NAT"), "bandwidth": (2.0, 3.0),
                  "e2e_tolerance": 7.0, "bundle_range": (1, 2)}},
        id="every_override_field"),
    pytest.param(
        {"topology": TWO_DC_TOPOLOGY,
         "workload": {"overrides": {"vnfs": None, "sfcs": {"VS": {
             "bandwidth": 5}}}}},
        TWO_DC_NETWORK, {}, {"VS": {"bandwidth": 5.0}}, id="vnfs_null"),
])
def test_accepted_configs_load_to_these_values(raw, network, vnfs, sfcs):
    """What an accepted config loads to: its network, and the default
    catalog with the named VNFs replaced and the named SFC fields set, each
    chain made of the catalog's VNFs. Ints are ints and floats floats."""
    cfg = from_dict(raw)
    graph = build_network(cfg.topology)
    assert (graph.dcs, graph.links) == network
    for dc in graph.dcs:
        assert type(dc.id) is int
        assert all(type(x) is float for x in (*dc.position, dc.storage_cap,
                                              dc.compute_cap, dc.ram_cap))
    for link in graph.links:
        assert type(link.a) is type(link.b) is int
        assert type(link.bandwidth_cap) is type(link.distance) is float
    default, cat = default_catalog(), cfg.catalog
    assert cat.vnfs == {**default.vnfs, **vnfs}
    for name, sfc in cat.sfcs.items():
        want = {"chain": tuple(v.name for v in default.sfcs[name].chain),
                "bandwidth": default.sfcs[name].bandwidth,
                "e2e_tolerance": default.sfcs[name].e2e_tolerance,
                "bundle_range": default.sfcs[name].bundle_range,
                **sfcs.get(name, {})}
        assert sfc == SfcType(name, tuple(cat.vnfs[v] for v in want["chain"]),
                              *(want[k] for k in ("bandwidth", "e2e_tolerance",
                                                  "bundle_range")))
    for vnf in cat.vnfs.values():
        assert type(vnf.vcpu) is int
    for sfc in cat.sfcs.values():
        assert type(sfc.e2e_tolerance) is float
        assert all(type(n) is int for n in sfc.bundle_range)
        assert all(type(bw) is float for bw in (
            sfc.bandwidth if isinstance(sfc.bandwidth, tuple)
            else (sfc.bandwidth,)))
