"""Tests of the benchmark's own machinery: the tracer, the per-episode checks,
the cap and the refusal paths.

    python3 -m pytest perfbench -q
"""

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracer as tracer_mod  # noqa: E402


def test_self_times_sum_to_root_duration():
    ticks = itertools.count()
    tr = tracer_mod.Tracer(clock=lambda: float(next(ticks)))
    tr.enter("root")
    tr.enter("a")
    tr.enter("b")
    tr.exit()
    tr.enter("c")
    tr.enter("d")
    tr.exit()
    tr.exit()
    tr.exit()
    tr.enter("e")
    tr.exit()
    tr.exit()
    root_calls, root_total, _ = tr.stats["root"]
    assert root_calls == 1
    assert sum(s[2] for s in tr.stats.values()) == root_total
    # spans record their parent: a's children are b and c
    by_name = {s[1]: s for s in tr.spans}
    assert by_name["b"][4] == by_name["a"][0] == by_name["c"][4]
    assert by_name["root"][4] is None


def test_exception_closes_span():
    tr = tracer_mod.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.stack == [] and tr.stats["boom"][0] == 1


def _pass(inputs, traced):
    tr = tracer_mod.Tracer()
    if traced:
        tr.install_sfcsim()
    try:
        runner = harness.EpisodeRunner(harness.sim.run_episode)
        result = harness.run_passes(inputs, runner, 0.0, repeat=False)
    finally:
        tr.uninstall()
    assert not runner.failures
    return result, tr


@pytest.mark.parametrize("inputs", [
    pytest.param(lambda: harness.setup("eval-fragmented", 3, 1.0), id="eval"),
    pytest.param(lambda: harness.Inputs(
        harness.TrainWorkload(20, 1.0), [("train-0", 5)]), id="train"),
])
def test_tracing_changes_no_behaviour(inputs):
    inputs = inputs()
    plain, _ = _pass(inputs, traced=False)
    traced, tr = _pass(inputs, traced=True)
    assert traced.fingerprint == plain.fingerprint
    assert traced.first_pass == plain.first_pass
    assert tr.stats["sim.run_step"][0] == plain.first_pass["steps"]
    assert tr.stack == []
    # every wrapper is gone again
    assert harness.sim.run_step.__module__ == "sfcsim.sim"
    assert not hasattr(harness.sim.run_step, "__wrapped__")


def test_checks_catch_a_broken_ledger():
    inputs = harness.setup("eval-dense", 0, 0.5)
    wl = inputs.workload
    report, world = harness.sim.run_episode(
        inputs.graph, wl.cluster_limit, wl.scale, wl.partition_seeds[0],
        inputs.policy, requests=[r.fresh_copy() for r in inputs.ops[0][1]])
    assert harness.check_episode(report, world) is None
    accepted = next(r for r in world.requests if r.status == "accepted")
    accepted.propagation_total += 1e-9
    assert "ledger" in harness.check_episode(report, world)
    world.requests[0].status = "pending"
    assert harness.check_episode(report, world) == "non-terminal request"


def test_episode_over_the_cap_is_a_failed_operation(monkeypatch):
    monkeypatch.setattr(harness, "EPISODE_CAP_S", 0.01)
    inputs = harness.setup("eval-wide", 0, 1.0)
    runner = harness.EpisodeRunner(harness.sim.run_episode)
    result = harness.run_passes(inputs, runner, 0.0, repeat=False)
    assert runner.failures == {"timeout": 1}
    assert result.ops_done == 1


def test_policy_with_another_hash_is_refused(monkeypatch):
    monkeypatch.setattr(harness, "POLICY_SHA256", "0" * 64)
    with pytest.raises(RuntimeError, match="does not match"):
        harness.load_policy()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "eval-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
