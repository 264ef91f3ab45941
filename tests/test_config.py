"""Config tests: every section's keys are its dataclass's fields, and
`resolved_config.yaml` reloads to the same run config."""

from dataclasses import fields

import pytest
import yaml

from sfcsim import cli
from sfcsim.config import ConfigError, SECTIONS, from_dict, resolved_snapshot
from sfcsim.sim import SimConfig

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


def reload(cfg):
    return from_dict(yaml.safe_load(yaml.safe_dump(resolved_snapshot(cfg))))


@pytest.mark.parametrize("raw", [
    {},
    EVERY_KEY,
    {"sim": {"actions_per_step": 25, "max_steps": 60, "alloc_bonus": 0.0,
             "reward_clip": 1.0}},
    {"train": {"validation_cell": [4, 2, 0.1]}},
], ids=["empty", "every_key", "sim", "validation_cell"])
def test_resolved_snapshot_round_trips(raw):
    cfg = from_dict(raw)
    again = reload(cfg)
    assert again == cfg
    assert reload(again) == cfg


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
    ("sim", "actions_per_step", 0)])
def test_rejected_value_is_named(section, key, value):
    with pytest.raises(ConfigError) as err:
        from_dict({section: {key: value}})
    assert f"{section}.{key}" in str(err.value)
    assert str(err.value).endswith(f"got {value}")
