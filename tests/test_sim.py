"""Simulation engine tests: delay arithmetic, step phases, episode lifecycle,
report identities, and determinism."""

import hashlib
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sfcsim import cli
from sfcsim.drl import ModelConfig, QNetwork
from sfcsim.sim import (ACTION_COST_MS, STEP_MS, SimConfig, build_world,
                        evaluate, propagation_delay, recompute_ledger,
                        report_rows, run_episode, run_step, train, TrainConfig)
from sfcsim.topology import TopologyConfig, build_network
from sfcsim.workload import ACCEPTED, SfcRequest, default_catalog


def test_propagation_delay_values():
    assert propagation_delay(0.0) == 0.0
    assert propagation_delay(300.0) == pytest.approx(1.0)
    assert propagation_delay(150.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        propagation_delay(-1.0)


def test_clock_budget_invariant():
    assert STEP_MS == 1.0 and ACTION_COST_MS == 0.01
    SimConfig(actions_per_step=100)  # fine: 100 x 0.01 ms == 1 ms step
    with pytest.raises(ValueError):
        SimConfig(actions_per_step=200)


def fresh_world(dc_count=4, limit=4, seed=0, config=None):
    g = build_network({"dc_count": dc_count, "seed": seed})
    policy = QNetwork(ModelConfig(), seed=seed)
    return build_world(g, limit, seed, policy, config=config)


def test_empty_world_step():
    world = fresh_world()
    run_step(world, epsilon=1.0)
    assert world.now == 1.0
    assert world.requests == []


def test_preinstalled_chain_same_dc():
    """An Ind4.0 request with both VNFs on its source DC, which is also its
    destination, finishes with processing-only delay 0.06 + 0.03 ms (plus
    whole-step waiting chunks)."""
    from sfcsim.agents import _execute_action, _scan_scope
    world = fresh_world(limit=4)
    cat = world.catalog
    world.substrate.place_vnf(0, cat.vnfs["NAT"])
    world.substrate.place_vnf(0, cat.vnfs["FW"])
    r = SfcRequest(0, cat.sfcs["Ind4.0"], 70.0, 0, 0)
    world.admit([r])
    agent = world.general.local_agents[world.partition.cluster_of(0)]
    _scan_scope(agent, world)  # each step's view, as local_step builds it
    out = _execute_action(agent, world, 0, 0)  # NAT
    assert out.request is r and not out.invalid
    world.now += STEP_MS
    world._complete_processing(world.now)
    _scan_scope(agent, world)
    out = _execute_action(agent, world, 0, 1)  # FW; chain complete
    assert r.status == ACCEPTED
    assert r.propagation_total == 0.0
    proc_only = sum(entry[3] for entry in r.hop_log if entry[0] == "proc")
    assert proc_only == pytest.approx(0.09)
    assert r.accrued_delay <= r.sfc_type.e2e_tolerance


def test_ledger_recomputation_matches():
    rep, world = run_episode(build_network({"dc_count": 6, "seed": 2}),
                             3, 0.2, 2, QNetwork(ModelConfig(), seed=2),
                             epsilon=1.0)
    for r in world.requests:
        prop, proc = recompute_ledger(r)
        assert prop == pytest.approx(r.propagation_total)
        assert proc == pytest.approx(r.processing_total)
        if r.status == ACCEPTED:
            assert prop + proc <= r.sfc_type.e2e_tolerance + 1e-9


def test_episode_conservation_and_ratio():
    rep, world = run_episode(build_network({"dc_count": 8, "seed": 3}),
                             4, 0.3, 3, QNetwork(ModelConfig(), seed=3),
                             epsilon=1.0)
    for name, (g, a, d) in rep.per_type.items():
        assert g == a + d
    total_gen = sum(v[0] for v in rep.per_type.values())
    total_acc = sum(v[1] for v in rep.per_type.values())
    assert rep.acceptance_ratio == Fraction(total_acc, total_gen)
    # per-cluster split sums to the global counts
    for name in rep.per_type:
        by_cluster = [v for (c, n), v in rep.per_cluster_type.items() if n == name]
        assert sum(x[0] for x in by_cluster) == rep.per_type[name][0]
        assert sum(x[1] for x in by_cluster) == rep.per_type[name][1]


def test_empty_workload_flagged():
    g = build_network({"dc_count": 4, "seed": 4})
    rep, world = run_episode(g, 4, 0.3, 4, QNetwork(ModelConfig(), seed=0),
                             epsilon=1.0, requests=[])
    assert rep.acceptance_ratio is None
    assert json.loads(cli._report_json([rep]))[0]["empty_workload"]


def test_saturating_instance_accepts_everything():
    """Single cluster, same-DC src effectively, huge tolerance: all accepted."""
    cat = default_catalog()
    over = {"sfcs": {name: {"e2e_tolerance": 10000.0,
                            "bundle_range": (1, 2)}
                     for name in cat.sfcs}}
    from sfcsim.workload import catalog_from_config, generate_bundles
    cat2 = catalog_from_config(over)
    g = build_network({"dc_count": 2, "seed": 5, "vcpu": 1000.0,
                       "ram_gb": 10000.0, "storage_gb": 100000.0})
    reqs = generate_bundles(cat2, g, 1.0, np.random.default_rng(5))
    cfg = SimConfig(max_steps=5000)
    rep, world = run_episode(g, 2, 1.0, 5, QNetwork(ModelConfig(), seed=5),
                             epsilon=1.0, catalog=cat2, config=cfg,
                             requests=reqs)
    assert rep.acceptance_ratio == 1


def test_episode_determinism():
    g = build_network({"dc_count": 10, "seed": 6})
    a, _ = run_episode(g, 4, 0.3, 6, QNetwork(ModelConfig(), seed=6), epsilon=1.0)
    b, _ = run_episode(g, 4, 0.3, 6, QNetwork(ModelConfig(), seed=6), epsilon=1.0)
    assert a.per_cluster_type == b.per_cluster_type
    assert a.acceptance_ratio == b.acceptance_ratio
    assert a.reward_by_agent == b.reward_by_agent


def test_accounting_verified_every_step():
    g = build_network({"dc_count": 8, "seed": 7})
    hooks = []
    rep, world = run_episode(g, 4, 0.3, 7, QNetwork(ModelConfig(), seed=7),
                             epsilon=1.0,
                             step_hook=lambda w: (w.substrate.verify_accounting(),
                                                  hooks.append(1)))
    assert hooks  # the hook actually ran


def test_training_update_cadence():
    tc = TrainConfig(episodes=20, round_episodes=20, updates_per_round=35)
    res = train(tc, seed=0, model=ModelConfig(batch_size=8))
    assert res.policy.update_count == 35
    assert len(res.curve) == 20
    for row in res.curve:
        assert {"episode", "mean_reward", "loss", "epsilon",
                "acceptance_ratio"} <= set(row)


def test_training_without_update_round_ships_final_policy():
    """With fewer episodes than `round_episodes` no round is validated, so
    the shipped policy is the final one."""
    res = train(TrainConfig(episodes=2, round_episodes=3), seed=0,
                model=ModelConfig(batch_size=8))
    assert res.policy.update_count == 0
    assert res.best.params.keys() == res.policy.params.keys()
    for k, v in res.policy.params.items():
        assert np.array_equal(res.best.params[k], v)


def test_sweep_rows_consistent():
    policy = QNetwork(ModelConfig(), seed=0)
    # the reports of a sweep's two cells: 6 DCs at cluster limits 3 and 6
    reports = [rep for limit in (3, 6)
               for rep in evaluate(TopologyConfig(dc_count=6), limit, 0.2,
                                   policy, seeds=[0], episodes=1)]
    assert len(reports) == 2
    for rep in reports:
        rows = report_rows(rep)
        all_row = [r for r in rows if r["sfc_type"] == "ALL"][0]
        assert all_row["generated"] == sum(
            r["generated"] for r in rows if r["sfc_type"] != "ALL")
        if rep.acceptance_ratio is not None:
            assert all_row["acc_ratio"] == f"{float(rep.acceptance_ratio):.6f}"


# Episodes whose whole lifecycle output is pinned by LIFECYCLE_DIGEST:
# (dc_count, cluster limit, scale, seed, SimConfig). Exploring (epsilon 1.0)
# with recorded transitions keeps network forwards, and so BLAS rounding, out
# of the run. Between them they accept at the destination DC, after a
# same-cluster delivery and after an assisted cross-cluster delivery, and drop
# for `deadline`, `delivery-unroutable` and `horizon`.
LIFECYCLE_EPISODES = [
    (8, 2, 0.3, 1, SimConfig(max_steps=60)),
    (6, 2, 0.2, 3, SimConfig(max_steps=60)),
    (8, 2, 0.3, 2, SimConfig(max_steps=100)),
    (10, 4, 0.3, 7, SimConfig(max_steps=80)),
]
LIFECYCLE_DIGEST = (
    "fe20bc9d50a5774ebc69c88a35ab0aca9c6d1ff720a8ee8de6ea254016fff4f6")


def test_lifecycle_pinned():
    """Report rows, each request's status, drop reason and hop log, and every
    recorded transition hash to a fixed value."""
    digest = hashlib.sha256()
    seen = Counter()
    for dc_count, limit, scale, seed, config in LIFECYCLE_EPISODES:
        g = build_network({"dc_count": dc_count, "seed": seed})
        rep, world = run_episode(g, limit, scale, seed,
                                 QNetwork(ModelConfig(), seed=seed),
                                 epsilon=1.0, config=config, train=True)
        for row in report_rows(rep):
            digest.update(repr(sorted(row.items())).encode())
        cluster_of = world.partition.cluster_of
        for r in world.requests:
            digest.update(repr((r.id, r.status, r.drop_reason,
                                r.hop_log)).encode())
            seen[r.drop_reason or r.status] += 1
            if r.status == ACCEPTED:
                # the DC of the last VNF's processing
                last = next(e[1] for e in reversed(r.hop_log)
                            if e[0] == "proc")
                if cluster_of(last) != cluster_of(r.dest_dc):
                    seen["assisted delivery"] += 1
                elif last != r.dest_dc:
                    seen["same-cluster delivery"] += 1
        for cid in sorted(world.transitions):
            for state, action, next_state, reward, terminal in \
                    world.transitions[cid]:
                for enc in (state, next_state):
                    digest.update(enc.row.tobytes())
                digest.update(repr((action, reward, terminal)).encode())
    for what in (ACCEPTED, "deadline", "horizon", "delivery-unroutable",
                 "assisted delivery", "same-cluster delivery"):
        assert seen[what] > 0, what
    assert digest.hexdigest() == LIFECYCLE_DIGEST


def test_validation_runs_the_configured_sim(monkeypatch):
    """Validation episodes run with the training config's SimConfig."""
    import sfcsim.sim as sim_mod
    real = sim_mod.run_episode
    max_steps = {}

    def spy(*args, config=None, scenario_id="episode", **kwargs):
        max_steps[scenario_id] = (config or SimConfig()).max_steps
        return real(*args, config=config, scenario_id=scenario_id, **kwargs)

    monkeypatch.setattr(sim_mod, "run_episode", spy)
    train(TrainConfig(episodes=2, round_episodes=1, updates_per_round=1,
                      validation_cell=(4, 2, 0.1)), seed=0,
          model=ModelConfig(batch_size=8), sim_config=SimConfig(max_steps=3))
    assert max_steps == {"train-0": 3, "validate-0": 3,
                         "train-1": 3, "validate-1": 3}
