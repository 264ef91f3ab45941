"""Command-line interface tests: subcommands, exit codes, output artifacts,
and byte-identical reruns."""

import csv
import json
import os
from pathlib import Path

import pytest
import yaml

from sfcsim import cli
from sfcsim.drl import ModelConfig, QNetwork, save_weights


def write_config(path, extra=None):
    raw = {
        "topology": {"dc_count": 4, "seed": 3},
        "cluster": {"size_limit": 2},
        "workload": {"scale": 0.1},
        "sim": {"episodes": 1, "seeds": [5]},
    }
    if extra:
        for k, v in extra.items():
            raw.setdefault(k, {}).update(v)
    path.write_text(yaml.safe_dump(raw))
    return str(path)


@pytest.fixture
def weights(tmp_path):
    p = tmp_path / "w.bin"
    save_weights(QNetwork(ModelConfig(), seed=0), str(p))
    return str(p)


def test_train_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", {
        "train": {"episodes": 2, "round_episodes": 2, "updates_per_round": 2}})
    out = tmp_path / "out"
    rc = cli.main(["train", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "weights.bin").exists()
    curve = (out / "training_curve.csv").read_text().splitlines()
    assert curve[0] == "episode,mean_reward,loss,epsilon,acceptance_ratio"
    assert len(curve) == 3
    snap = yaml.safe_load((out / "resolved_config.yaml").read_text())
    assert snap["sim"]["seeds"] == [5]
    assert snap["train"]["episodes"] == 2


def test_train_runs_the_drl_and_sim_sections(tmp_path, monkeypatch, capsys):
    """`train` trains with the config's `drl` and `sim` sections and ships
    the best round's policy."""
    seen = {}
    real = cli.sim.train

    def spy(config, seed, model=None, sim_config=None, catalog=None):
        seen["result"] = real(config, seed, model, sim_config, catalog)
        seen["sections"] = (model, sim_config)
        return seen["result"]

    monkeypatch.setattr(cli.sim, "train", spy)
    cfg = write_config(tmp_path / "c.yaml", {
        "drl": {"batch_size": 8}, "sim": {"max_steps": 40},
        "train": {"episodes": 3, "round_episodes": 2, "updates_per_round": 4}})
    out = tmp_path / "out"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    loaded = cli.config_mod.load(cfg)
    assert seen["sections"] == (loaded.drl, loaded.sim)
    assert "trained 3 episodes (4 updates)" in capsys.readouterr().out
    best = cli.drl.load_weights(str(out / "weights.bin"), loaded.drl)
    for k, v in seen["result"].best.params.items():
        assert (best.params[k] == v).all()


def test_eval_writes_report(tmp_path, weights):
    cfg = write_config(tmp_path / "c.yaml")
    out = tmp_path / "out"
    rc = cli.main(["eval", "--config", cfg, "--weights", weights,
                   "--out", str(out)])
    assert rc == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0].split(",") == cli.CSV_FIELDS
    assert any(",ALL," in line for line in lines[1:])
    payload = json.loads((out / "report.json").read_text())
    assert payload[0]["dc_count"] == 4
    num, den = payload[0]["acceptance_ratio"]
    assert 0 <= num <= den


def test_eval_requires_weights(tmp_path):
    cfg = write_config(tmp_path / "c.yaml")
    assert cli.main(["eval", "--config", cfg]) == 2


def test_eval_missing_weights_file(tmp_path):
    cfg = write_config(tmp_path / "c.yaml")
    rc = cli.main(["eval", "--config", cfg,
                   "--weights", str(tmp_path / "nope.bin")])
    assert rc == 2


TWO_DCS = [{"position": [0, 0]}, {"position": [1, 0]}]


@pytest.mark.parametrize("extra,env", [
    pytest.param({"typo": {"x": 1}}, {}, id="unknown_section"),
    pytest.param({"drl": {"hidden_widths": 5}}, {}, id="hidden_widths_scalar"),
    pytest.param({"drl": {"branch_width": 0}}, {}, id="zero_width"),
    pytest.param({"sim": {"seeds": 3}}, {}, id="seeds_scalar"),
    pytest.param({"sim": {"actions_per_step": 200}}, {}, id="step_budget"),
    pytest.param({"cluster": {"size_limit": "a"}}, {}, id="size_limit_text"),
    pytest.param({"workload": {"scale": "a"}}, {}, id="scale_text"),
    pytest.param({"output": {"formats": "csv"}}, {}, id="formats_string"),
    pytest.param({"output": {"formats": ["csv", "xml"]}}, {},
                 id="formats_unknown"),
    pytest.param({"sweep": {"dc_counts": ["a"]}}, {}, id="sweep_text"),
    pytest.param({"topology": {"dc_count": "a"}}, {}, id="dc_count_text"),
    # explicit topology entries
    pytest.param({"topology": {"dcs": [{"position": ["a", 0]},
                                       {"position": [1, 0]}],
                               "links": [{"a": 0, "b": 1}]}}, {},
                 id="dc_position_text"),
    pytest.param({"topology": {"dcs": [{"position": [0, 0]}, {"id": 1}],
                               "links": [{"a": 0, "b": 1}]}}, {},
                 id="dc_position_missing"),
    pytest.param({"topology": {"dcs": TWO_DCS, "links": [{"a": 0}]}}, {},
                 id="link_endpoint_missing"),
    pytest.param({"topology": {"dcs": TWO_DCS, "links": [{"a": 0, "b": 2}]}},
                 {}, id="link_endpoint_out_of_range"),
    pytest.param({"topology": {"dcs": [{"position": [0, 0], "vcpus": 1},
                                       {"position": [1, 0]}],
                               "links": [{"a": 0, "b": 1}]}}, {},
                 id="dc_key_unknown"),
    pytest.param({"topology": {"dcs": TWO_DCS, "links": [
        {"a": 0, "b": 1, "bandwith_mbps": 5}]}}, {}, id="link_key_unknown"),
    # workload section
    pytest.param({"workload": {"overrides": {"vnf": {"NAT": {"vcpu": 99}}}}},
                 {}, id="override_section_unknown"),
    pytest.param({"workload": {"overrides": {"vnfs": {"NATT": {"vcpu": 2}}}}},
                 {}, id="override_vnf_unknown"),
    pytest.param({"workload": {"overrides": {"sfcs": {"XR": {
        "e2e_tolerance": 5.0}}}}}, {}, id="override_sfc_unknown"),
    pytest.param({"workload": {"overrides": {"sfcs": {"CG": {
        "tolerance": 1}}}}}, {}, id="override_field_unknown"),
    pytest.param({"workload": {"overrides": {"vnfs": {"NAT": {
        "vcpu": "x"}}}}}, {}, id="override_value_text"),
    pytest.param({"workload": {"overrides": {"sfcs": {"CG": {
        "chain": ["NAT", "XX"]}}}}}, {}, id="override_chain_unknown"),
    pytest.param({"workload": {"scale": -1}}, {}, id="scale_negative"),
    pytest.param({"workload": {"scale": 0}}, {}, id="scale_zero"),
    # values that crashed mid-run or passed silently
    pytest.param({"sim": {"max_steps": "x"}}, {}, id="max_steps_text"),
    pytest.param({"sim": {"max_steps": 2.5}}, {}, id="max_steps_fraction"),
    pytest.param({"drl": {"learning_rate": "x"}}, {}, id="learning_rate_text"),
    pytest.param({"sim": {"seeds": []}}, {}, id="seeds_empty"),
    pytest.param({"train": {"round_episodes": 0}}, {}, id="round_episodes_zero"),
    pytest.param({"train": {"dc_choices": []}}, {}, id="dc_choices_empty"),
    pytest.param({"sweep": {"scales": [0.0]}}, {}, id="sweep_scale_zero"),
    pytest.param({"drl": {"target_sync": 0}}, {}, id="target_sync_zero"),
    pytest.param({"drl": {"batch_size": 0}}, {}, id="batch_size_zero"),
    pytest.param({"drl": {"replay_capacity": 0}}, {},
                 id="replay_capacity_zero"),
    # replay arrays np.empty cannot reserve: refused at once, nothing allocated
    pytest.param({"drl": {"replay_capacity": 1000000000000}}, {},
                 id="replay_capacity_unreservable"),
    pytest.param({"drl": {"epsilon_start": 1.5}}, {},
                 id="epsilon_start_above_one"),
    pytest.param({"drl": {"epsilon_end": -0.1}}, {}, id="epsilon_end_negative"),
    pytest.param({"drl": {"epsilon_decay": 2.0}}, {},
                 id="epsilon_decay_above_one"),
    pytest.param({"train": {"scale_range": [0.0, 0.0]}}, {},
                 id="scale_range_zero"),
    pytest.param({"train": {"validation_cell": [20, 4, 0.0]}}, {},
                 id="validation_scale_zero"),
    # a negative clip inverted the clip: every recorded reward became |clip|
    pytest.param({"sim": {"reward_clip": -1.0}}, {}, id="reward_clip_negative"),
    # null is no value: rewards are always clipped, and every update round
    # is validated
    pytest.param({"sim": {"reward_clip": None}}, {}, id="reward_clip_null"),
    pytest.param({"train": {"validation_cell": None}}, {},
                 id="validation_cell_null"),
    # a removed knob: a target network is used whenever training passes one
    pytest.param({"drl": {"use_target": False}}, {}, id="use_target_removed"),
    # a removed knob: sweep runs sim.episodes per seed, as eval does
    pytest.param({"sweep": {"episodes_per_seed": 1}}, {},
                 id="episodes_per_seed_removed"),
    # removed engine switches: the one model holds bandwidth per transfer,
    # counts the last mile and drops a request once its remaining processing
    # cannot fit
    pytest.param({"sim": {"bw_hold": "whole-lifetime"}}, {},
                 id="bw_hold_removed"),
    pytest.param({"sim": {"count_last_mile": False}}, {},
                 id="count_last_mile_removed"),
    pytest.param({"sim": {"eager_drop": False}}, {}, id="eager_drop_removed"),
    pytest.param({}, {"SFCSIM_SEED": "abc"}, id="env_seed_text"),
    # the training config's nested names, given in another section, crashed
    # with a KeyError
    pytest.param({"cluster": {"size_limit": 2, "model": 1}}, {},
                 id="cluster_model_key"),
    pytest.param({"drl": {"sim": 3}}, {}, id="drl_sim_key"),
    pytest.param({"output": {"model": None}}, {}, id="output_model_key"),
    # an SFC bandwidth override takes a positive number or a range
    # 0 < lo <= hi, as a request file takes a positive bandwidth
    pytest.param({"workload": {"overrides": {"sfcs": {"CG": {
        "bandwidth": -4}}}}}, {}, id="override_bandwidth_negative"),
    pytest.param({"workload": {"overrides": {"sfcs": {"CG": {
        "bandwidth": 0}}}}}, {}, id="override_bandwidth_zero"),
    pytest.param({"workload": {"overrides": {"sfcs": {"CG": {
        "bandwidth": float("nan")}}}}}, {}, id="override_bandwidth_nan"),
    pytest.param({"workload": {"overrides": {"sfcs": {"MIoT": {
        "bandwidth": [50, -1]}}}}}, {}, id="override_bandwidth_range_negative"),
    pytest.param({"workload": {"overrides": {"sfcs": {"MIoT": {
        "bandwidth": [50, 1]}}}}}, {}, id="override_bandwidth_range_reversed"),
    pytest.param({"workload": {"overrides": {"sfcs": {"MIoT": {
        "bandwidth": [1, 2, 3]}}}}}, {}, id="override_bandwidth_triple"),
    # non-finite catalog values loaded: a NaN tolerance or processing time
    # made every agent's priority ranking NaN, and an infinite bandwidth
    # dropped every request of its type; an infinite integer field crashed
    pytest.param({"workload": {"overrides": {"sfcs": {"CG": {
        "bandwidth": float("inf")}}}}}, {}, id="override_bandwidth_inf"),
    pytest.param({"workload": {"overrides": {"sfcs": {"MIoT": {
        "bandwidth": [1, float("inf")]}}}}}, {},
        id="override_bandwidth_range_inf"),
    pytest.param({"workload": {"overrides": {"sfcs": {"CG": {
        "e2e_tolerance": float("nan")}}}}}, {}, id="override_tolerance_nan"),
    pytest.param({"workload": {"overrides": {"sfcs": {"CG": {
        "e2e_tolerance": float("inf")}}}}}, {}, id="override_tolerance_inf"),
    pytest.param({"workload": {"overrides": {"vnfs": {"IDPS": {
        "proc_time": float("nan")}}}}}, {}, id="override_proc_time_nan"),
    pytest.param({"workload": {"overrides": {"vnfs": {"IDPS": {
        "ram": float("inf")}}}}}, {}, id="override_ram_inf"),
    pytest.param({"workload": {"overrides": {"vnfs": {"IDPS": {
        "vcpu": float("inf")}}}}}, {}, id="override_vcpu_inf"),
    pytest.param({"workload": {"overrides": {"sfcs": {"CG": {
        "bundle_range": [1, float("inf")]}}}}}, {},
        id="override_bundle_range_inf"),
    # a non-finite scale crashed while generating bundles
    pytest.param({"workload": {"scale": float("nan")}}, {}, id="scale_nan"),
    pytest.param({"workload": {"scale": float("inf")}}, {}, id="scale_inf"),
    pytest.param({"sweep": {"scales": [1.0, float("nan")]}}, {},
                 id="sweep_scale_nan"),
    pytest.param({"sweep": {"scales": [float("inf")]}}, {},
                 id="sweep_scale_inf"),
    pytest.param({"train": {"scale_range": [0.1, float("inf")]}}, {},
                 id="scale_range_inf"),
    pytest.param({"train": {"validation_cell": [20, 4, float("nan")]}}, {},
                 id="validation_scale_nan"),
    # non-finite topology values loaded: NaN capacities and bandwidths passed
    # the `<= 0` checks, and a NaN or infinite area crashed with an
    # OverflowError while placing the DCs
    pytest.param({"topology": {"link_bw_mbps": float("nan")}}, {},
                 id="topology_link_bw_nan"),
    pytest.param({"topology": {"vcpu": float("nan")}}, {},
                 id="topology_vcpu_nan"),
    pytest.param({"topology": {"storage_gb": float("inf")}}, {},
                 id="topology_storage_inf"),
    pytest.param({"topology": {"radius_km": float("nan")}}, {},
                 id="topology_radius_nan"),
    pytest.param({"topology": {"radius_km": -5}}, {},
                 id="topology_radius_negative"),
    pytest.param({"topology": {"area_km": float("nan")}}, {},
                 id="topology_area_nan"),
    pytest.param({"topology": {"area_km": float("inf")}}, {},
                 id="topology_area_inf"),
    pytest.param({"topology": {"dcs": [{"position": [float("nan"), 0]},
                                       {"position": [1, 0]}],
                               "links": [{"a": 0, "b": 1}]}}, {},
                 id="dc_position_nan"),
    pytest.param({"topology": {"dcs": [{"position": [0, 0],
                                        "vcpu": float("nan")},
                                       {"position": [1, 0]}],
                               "links": [{"a": 0, "b": 1}]}}, {},
                 id="dc_vcpu_nan"),
    pytest.param({"topology": {"dcs": TWO_DCS, "links": [
        {"a": 0, "b": 1, "distance_km": float("inf")}]}}, {},
        id="link_distance_inf"),
    pytest.param({"topology": {"dcs": TWO_DCS, "links": [
        {"a": 0, "b": 1, "bandwidth_mbps": float("nan")}]}}, {},
        id="link_bandwidth_nan"),
    pytest.param({"train": {"radius_km": float("nan")}}, {},
                 id="train_radius_nan"),
    pytest.param({"train": {"area_km": float("nan")}}, {},
                 id="train_area_nan"),
    # training loaded these and wrote NaN weights
    pytest.param({"drl": {"learning_rate": float("nan")}}, {},
                 id="learning_rate_nan"),
    pytest.param({"drl": {"learning_rate": -1.0}}, {},
                 id="learning_rate_negative"),
    pytest.param({"drl": {"learning_rate": float("inf")}}, {},
                 id="learning_rate_inf"),
    pytest.param({"drl": {"discount": float("nan")}}, {}, id="discount_nan"),
    pytest.param({"drl": {"discount": 1.5}}, {}, id="discount_above_one"),
    pytest.param({"drl": {"momentum": float("inf")}}, {}, id="momentum_inf"),
    pytest.param({"drl": {"momentum": 1.0}}, {}, id="momentum_one"),
    pytest.param({"sim": {"reward_clip": float("nan")}}, {},
                 id="reward_clip_nan"),
    pytest.param({"sim": {"alloc_bonus": float("inf")}}, {},
                 id="alloc_bonus_inf"),
    # counts below 1: no episode ran, or every request was dropped
    pytest.param({"sim": {"episodes": -1}}, {}, id="episodes_negative"),
    pytest.param({"sim": {"episodes": 0}}, {}, id="episodes_zero"),
    pytest.param({"sim": {"max_steps": 0}}, {}, id="max_steps_zero"),
    pytest.param({"sim": {"actions_per_step": 0}}, {},
                 id="actions_per_step_zero"),
    pytest.param({"train": {"episodes": -1}}, {}, id="train_episodes_negative"),
    pytest.param({"train": {"updates_per_round": -3}}, {},
                 id="updates_per_round_negative"),
])
def test_unknown_config_key_rejected(tmp_path, weights, monkeypatch, extra,
                                     env):
    """Unknown and malformed config values exit 2 before anything runs."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cfg = write_config(tmp_path / "c.yaml", extra)
    out = tmp_path / "out"
    assert cli.main(["eval", "--config", cfg, "--weights", weights,
                     "--out", str(out)]) == 2
    assert not out.exists()


def test_train_rejects_unreservable_replay(tmp_path, capsys):
    """Training with replay arrays too large to reserve exits 2 with a
    message, not a MemoryError traceback."""
    cfg = write_config(tmp_path / "c.yaml",
                       {"drl": {"replay_capacity": 10 ** 12}})
    out = tmp_path / "out"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert "drl.replay_capacity" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_yaml_rejected(tmp_path, weights):
    p = tmp_path / "c.yaml"
    p.write_text("topology: [unclosed")
    assert cli.main(["eval", "--config", str(p), "--weights", weights]) == 2


def test_missing_config_file(tmp_path):
    assert cli.main(["clusters", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_eval_reruns_byte_identical(tmp_path, weights):
    cfg = write_config(tmp_path / "c.yaml")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["eval", "--config", cfg, "--weights", weights,
                     "--out", str(out1)]) == 0
    assert cli.main(["eval", "--config", cfg, "--weights", weights,
                     "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


@pytest.mark.parametrize("topology,workload", [
    ({"dc_count": 4}, {"scale": 0.1}),
    ({"dc_count": 4, "seed": 3}, {"scale": 1}),
    ({"dcs": [{"position": [0, 0]}, {"position": [100, 0], "vcpu": 20},
              {"position": [100, 90]}],
      "links": [{"a": 0, "b": 1}, {"a": 1, "b": 2, "bandwidth_mbps": 400}]},
     {"scale": 0.1}),
], ids=["topology_seed_unset", "scale_yaml_int", "explicit_topology"])
def test_eval_from_resolved_config_is_byte_identical(tmp_path, weights,
                                                     topology, workload):
    """Eval again from a run's resolved_config.yaml: same files, byte for
    byte."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"topology": topology, "workload": workload,
                                   "cluster": {"size_limit": 2},
                                   "sim": {"episodes": 1, "seeds": [5, 6]}}))
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(["eval", "--config", str(cfg), "--weights", weights,
                     "--out", str(first)]) == 0
    assert cli.main(["eval", "--config", str(first / "resolved_config.yaml"),
                     "--weights", weights, "--out", str(second)]) == 0
    for name in ("report.csv", "report.json", "resolved_config.yaml"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    rows = (first / "report.csv").read_text().splitlines()[1:]
    assert {row.split(",")[5] for row in rows} == {str(float(workload["scale"]))}


def test_env_seed_recorded_in_snapshot(tmp_path, weights, monkeypatch):
    """A seed from SFCSIM_SEED is the seed list resolved_config.yaml records,
    so an eval from the snapshot writes the same report."""
    cfg = write_config(tmp_path / "c.yaml")
    first, second = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("SFCSIM_SEED", "9")
    assert cli.main(["eval", "--config", cfg, "--weights", weights,
                     "--out", str(first)]) == 0
    monkeypatch.delenv("SFCSIM_SEED")
    snap = yaml.safe_load((first / "resolved_config.yaml").read_text())
    assert snap["sim"]["seeds"] == [9]
    assert cli.main(["eval", "--config", str(first / "resolved_config.yaml"),
                     "--weights", weights, "--out", str(second)]) == 0
    assert (first / "report.csv").read_bytes() == \
        (second / "report.csv").read_bytes()


def test_sweep_runs_cells(tmp_path, weights):
    cfg = write_config(tmp_path / "c.yaml", {
        "sweep": {"dc_counts": [4, 6], "cluster_limits": [2], "scales": [0.1]}})
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--config", cfg, "--weights", weights,
                   "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    dc_counts = {line.split(",")[2] for line in lines[1:]}
    assert dc_counts == {"4", "6"}


# the trained policy the benchmark ships: unlike untrained weights it accepts
# requests, so report rows depend on the network
TRAINED_WEIGHTS = str(Path(__file__).parents[1] / "perfbench" / "policy.bin")


def test_sweep_cell_equal_to_eval_gives_eval_rows(tmp_path):
    """A sweep cell with the eval config's DC count, cluster limit and scale
    runs the eval's networks and episodes; a set topology.seed holds in both."""
    cfg = write_config(tmp_path / "c.yaml", {
        "topology": {"dc_count": 8}, "cluster": {"size_limit": 4},
        "workload": {"scale": 0.3}, "sim": {"episodes": 2, "seeds": [5, 6]},
        "sweep": {"dc_counts": [8], "cluster_limits": [4], "scales": [0.3]}})
    assert cli.main(["eval", "--config", cfg, "--weights", TRAINED_WEIGHTS,
                     "--out", str(tmp_path / "e")]) == 0
    assert cli.main(["sweep", "--config", cfg, "--weights", TRAINED_WEIGHTS,
                     "--out", str(tmp_path / "s")]) == 0

    def rows(path):  # each row without its scenario_id
        return [line.split(",", 1)[1]
                for line in path.read_text().splitlines()[1:]]
    eval_rows = rows(tmp_path / "e" / "report.csv")
    assert len(eval_rows) == 4 * 7
    assert any(row.split(",")[-1] for row in eval_rows)  # a mean e2e delay
    assert rows(tmp_path / "s" / "sweep.csv") == eval_rows


def test_sweep_rejects_explicit_dcs(tmp_path, weights):
    """Explicit DCs fix the network, so no sweep cell could change its DC
    count."""
    cfg = write_config(tmp_path / "c.yaml", {
        "topology": {"dcs": TWO_DCS, "links": [{"a": 0, "b": 1}]},
        "sweep": {"dc_counts": [2, 4]}})
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--weights", weights,
                     "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_requires_section(tmp_path, weights):
    cfg = write_config(tmp_path / "c.yaml")
    assert cli.main(["sweep", "--config", cfg, "--weights", weights,
                     "--out", str(tmp_path / "o")]) == 2


def test_clusters_json_covers_all_dcs(tmp_path):
    cfg = write_config(tmp_path / "c.yaml")
    out = tmp_path / "out"
    assert cli.main(["clusters", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "clusters.json").read_text())
    members = sorted(d for dcs in payload["clusters"].values() for d in dcs)
    assert members == list(range(4))
    assert all(len(dcs) <= 2 for dcs in payload["clusters"].values())


def test_clusters_reports_first_eval_episode_partition(tmp_path, weights,
                                                        monkeypatch):
    """`clusters` reports the partition that eval's first episode, of the
    first seed, runs on."""
    from sfcsim import sim
    cfg = write_config(tmp_path / "c.yaml", {
        "topology": {"dc_count": 40, "seed": 7},
        "cluster": {"size_limit": 4},
        "sim": {"seeds": [0, 1], "max_steps": 2}})
    partitions = []
    real_run_episode = sim.run_episode

    def spy(*args, **kwargs):
        report, world = real_run_episode(*args, **kwargs)
        partitions.append(world.partition.clusters)
        return report, world

    monkeypatch.setattr(sim, "run_episode", spy)
    assert cli.main(["eval", "--config", cfg, "--weights", weights,
                     "--out", str(tmp_path / "eval")]) == 0
    out = tmp_path / "clusters"
    assert cli.main(["clusters", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "clusters.json").read_text())
    assert len(partitions) == 2
    assert payload["clusters"] == {str(c): members for c, members
                                   in sorted(partitions[0].items())}


@pytest.mark.parametrize("command", ["train", "clusters"])
def test_weights_rejected_where_unused(tmp_path, weights, command):
    """Only eval, sweep and replay run a policy; the others take no
    --weights rather than ignore it."""
    cfg = write_config(tmp_path / "c.yaml", {"train": {"episodes": 1}})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--weights", weights,
                  "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_replay_roundtrip(tmp_path, weights):
    import numpy as np
    from sfcsim.topology import build_network
    from sfcsim.workload import default_catalog, export_workload, generate_bundles
    cat = default_catalog()
    g = build_network({"dc_count": 4, "seed": 3})
    reqs = generate_bundles(cat, g, 0.1, np.random.default_rng(1))
    wl = tmp_path / "wl.jsonl"
    export_workload(reqs, str(wl))
    cfg = write_config(tmp_path / "c.yaml",
                       {"workload": {"replay_file": str(wl)}})
    out = tmp_path / "out"
    rc = cli.main(["replay", "--config", cfg, "--weights", weights,
                   "--out", str(out)])
    assert rc == 0
    lines = (out / "replay.csv").read_text().splitlines()
    all_rows = [l for l in lines[1:] if ",ALL," in l]
    gen = sum(int(l.split(",")[7]) for l in all_rows)
    assert gen == len(reqs)


def test_replay_reproduces_eval(tmp_path):
    """Replaying the requests of eval's seed-0 episode 0 runs eval's network,
    episode seed and scenario id: the same rows, byte for byte, apart from
    replay's empty scale."""
    import numpy as np
    from sfcsim.topology import build_network
    from sfcsim.workload import default_catalog, export_workload, generate_bundles
    g = build_network({"dc_count": 8, "seed": 0})  # the run seed's network
    ep_seed = int(np.random.default_rng([0, 4, 0]).integers(2 ** 31))
    wl = tmp_path / "wl.jsonl"
    export_workload(generate_bundles(default_catalog(), g, 0.5,
                                     np.random.default_rng([ep_seed, 1])),
                    str(wl))
    cfg = write_config(tmp_path / "c.yaml", {
        "topology": {"dc_count": 8, "seed": None},
        "cluster": {"size_limit": 4},
        "workload": {"scale": 0.5, "replay_file": str(wl)},
        "sim": {"episodes": 1, "seeds": [0]}})
    out = tmp_path / "out"
    for command in ("eval", "replay"):
        assert cli.main([command, "--config", cfg, "--weights",
                         TRAINED_WEIGHTS, "--out", str(out)]) == 0
    report, replay = (
        list(csv.DictReader((out / name).read_text().splitlines()))
        for name in ("report.csv", "replay.csv"))
    assert len(replay) == len(report)
    for ev, rp in zip(report, replay):
        assert ev.pop("scale") == "0.5" and rp.pop("scale") == ""
        assert rp == ev
    assert report[-1]["sfc_type"] == "ALL"
    assert int(report[-1]["accepted"]) > 0
    assert all(entry["scale"] is None for entry in
               json.loads((out / "replay.json").read_text()))


def test_replay_rows_independent_of_scale(tmp_path, weights):
    """Replayed requests do not depend on workload.scale, so neither do the
    replay's rows."""
    import numpy as np
    from sfcsim.topology import build_network
    from sfcsim.workload import default_catalog, export_workload, generate_bundles
    wl = tmp_path / "wl.jsonl"
    export_workload(generate_bundles(default_catalog(),
                                     build_network({"dc_count": 4, "seed": 3}),
                                     0.3, np.random.default_rng(2)), str(wl))
    outs = []
    for scale in (0.25, 4.0):
        cfg = write_config(tmp_path / f"c{scale}.yaml", {
            "workload": {"scale": scale, "replay_file": str(wl)}})
        outs.append(tmp_path / f"out{scale}")
        assert cli.main(["replay", "--config", cfg, "--weights", weights,
                         "--out", str(outs[-1])]) == 0
    for name in ("replay.csv", "replay.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_replay_requires_file(tmp_path, weights):
    cfg = write_config(tmp_path / "c.yaml",
                       {"workload": {"replay_file": str(tmp_path / "nope.jsonl")}})
    assert cli.main(["replay", "--config", cfg, "--weights", weights,
                     "--out", str(tmp_path / "o")]) == 2


REPLAY_RECORD = {"id": 0, "sfc_type": "CG", "bandwidth": 4.0,
                 "source_dc": 0, "dest_dc": 1}


@pytest.mark.parametrize("lines", [
    pytest.param([{**REPLAY_RECORD, "sfc_type": "XX"}], id="sfc_type_unknown"),
    pytest.param([{k: v for k, v in REPLAY_RECORD.items() if k != "sfc_type"}],
                 id="sfc_type_missing"),
    pytest.param([REPLAY_RECORD, "{not json"], id="not_json"),
    pytest.param([{**REPLAY_RECORD, "dest_dc": 12}], id="dc_outside_network"),
    pytest.param([{**REPLAY_RECORD, "bandwidth": -500.0}],
                 id="bandwidth_negative"),
    pytest.param([REPLAY_RECORD, {**REPLAY_RECORD, "source_dc": 2}],
                 id="id_duplicate"),
    pytest.param([{**REPLAY_RECORD, "arrival": 400.0}], id="arrival_nonzero"),
])
def test_replay_rejects_malformed_requests(tmp_path, weights, lines):
    """A replay file is outside input: a malformed one exits 2 before any
    output, as a malformed config does."""
    wl = tmp_path / "wl.jsonl"
    wl.write_text("".join((line if isinstance(line, str) else json.dumps(line))
                          + "\n" for line in lines))
    cfg = write_config(tmp_path / "c.yaml",  # a 4-DC network
                       {"workload": {"replay_file": str(wl)}})
    out = tmp_path / "out"
    assert cli.main(["replay", "--config", cfg, "--weights", weights,
                     "--out", str(out)]) == 2
    assert not (out / "replay.csv").exists()


def test_env_overrides(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.yaml")
    out = tmp_path / "envout"
    monkeypatch.setenv("SFCSIM_OUT", str(out))
    monkeypatch.setenv("SFCSIM_SEED", "9")
    assert cli.main(["clusters", "--config", cfg]) == 0
    assert (out / "clusters.json").exists()


def test_io_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path / "c.yaml")
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    rc = cli.main(["clusters", "--config", cfg,
                   "--out", str(blocker / "sub")])
    assert rc == 3


def test_no_temp_files_left(tmp_path, weights):
    cfg = write_config(tmp_path / "c.yaml")
    out = tmp_path / "out"
    cli.main(["eval", "--config", cfg, "--weights", weights, "--out", str(out)])
    leftovers = [f for f in os.listdir(out) if f.startswith(".tmp-")]
    assert leftovers == []
