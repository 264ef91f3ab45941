"""The agent phase in rounds, with one batched Q-network call per round,
against a copy of the per-agent loop it replaced, which ran each agent's
actions in turn with one single-row forward call per greedy action. The
episodes must come out the same: requests, report rows, rewards and every
recorded transition."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from sfcsim import agents, sim
from sfcsim.drl import ModelConfig, encode_state, load_weights
from sfcsim.sim import SimConfig, World, report_rows, run_episode
from sfcsim.topology import build_network, make_clusters
from sfcsim.workload import SfcRequest, catalog_from_config
from test_hot_path import DemandPolicy

TRAINED_WEIGHTS = str(Path(__file__).parents[1] / "perfbench" / "policy.bin")


@pytest.fixture(scope="module")
def policy():
    return load_weights(TRAINED_WEIGHTS, ModelConfig())


# ---- reference: each agent's actions in turn --------------------------------


def ref_local_step(agent, world, now, epsilon, rng, record_states=False):
    """One agent action: DC cursor advance, epsilon-greedy action on a
    single-row forward call, execution."""
    current_dc = agent.dc_ids[agent.cursor % len(agent.dc_ids)]
    agent.cursor += 1

    def encode():
        return encode_state(agents.build_state_view(agent, world, current_dc),
                            world.catalog)

    state = encode() if record_states else None
    if rng.random() < epsilon:
        action = int(rng.integers(agent.policy.config.action_count))
    else:
        action = int(np.argmax(agent.policy.forward(
            (encode() if state is None else state).row[None])[0]))
    outcome = agents._execute_action(agent, world, current_dc, action)
    agent.reward_total += outcome.reward
    next_state = encode() if record_states else None
    status = -1 if agent.outbox else 0
    return status, outcome, state, next_state


def ref_run_step(world, epsilon, train=False):
    now = world.now
    for cid in sorted(world.general.local_agents):
        agent = world.general.local_agents[cid]
        for i in range(world.config.actions_per_step):
            if not agent.queue and not agent.outbox:
                break
            if i == 0:  # the scope scan, at the agent's first action
                agents._scan_scope(agent, world)
            status, outcome, state, next_state = ref_local_step(
                agent, world, now, epsilon, agent.rng, record_states=train)
            if train:
                shaped = outcome.reward + world.orphan_credit[cid]
                if outcome.request is not None:
                    shaped += world.config.alloc_bonus
                record = [state, outcome.action, next_state, shaped, False]
                world.orphan_credit[cid] = 0.0
                world.transitions[cid].append(record)
                if outcome.request is not None:
                    world.credit_map[outcome.request.id] = record
                world._flush_credit()
            if outcome.invalid or outcome.action == agents.ACTION_IDLE:
                break
    agents.assist(world.general, world, now)
    world.now += sim.STEP_MS
    now = world.now
    world._release_bandwidth(now)
    world._complete_processing(now)
    world._deadline_scan(now)
    world._flush_credit()


# ---- checks -------------------------------------------------------------------


def assert_same_state(a, b):
    if a is None or b is None:
        assert a is b
        return
    assert a.row.tobytes() == b.row.tobytes()


def assert_same_episode(got, want):
    (rep, world), (ref_rep, ref_world) = got, want
    assert [(r.id, r.status, r.drop_reason, r.hop_log) for r in world.requests] \
        == [(r.id, r.status, r.drop_reason, r.hop_log)
            for r in ref_world.requests]
    assert report_rows(rep) == report_rows(ref_rep)
    assert rep.reward_by_agent == ref_rep.reward_by_agent
    assert world.transitions.keys() == ref_world.transitions.keys()
    for cid, records in world.transitions.items():
        ref_records = ref_world.transitions[cid]
        assert len(records) == len(ref_records)
        for (s, a, s2, r, t), (rs, ra, rs2, rr, rt) in zip(records, ref_records):
            assert_same_state(s, rs)
            assert_same_state(s2, rs2)
            assert (a, r, t) == (ra, rr, rt)


def run_both(monkeypatch, dc_count, limit, scale, seed, policy, **kwargs):
    g = build_network({"dc_count": dc_count, "seed": seed, "area_km": 1000.0,
                       "radius_km": 250.0})
    got = run_episode(g, limit, scale, seed, policy, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(sim, "run_step", ref_run_step)
        want = run_episode(g, limit, scale, seed, policy, **kwargs)
    return got, want


# (dc_count, cluster limit, scale, seed, epsilon, train), 30 steps each
EPISODES = [
    pytest.param(80, 4, 1.0, 5, 0.0, False, id="greedy-80-4"),
    pytest.param(40, 8, 3.0, 11, 0.0, False, id="greedy-40-8"),
    pytest.param(40, 4, 2.0, 12, 0.5, False, id="explore-40-4"),
    pytest.param(40, 8, 3.0, 13, 0.3, True, id="train-40-8"),
]


@pytest.mark.parametrize("dc_count,limit,scale,seed,epsilon,train", EPISODES)
def test_rounds_match_per_agent_loop(monkeypatch, policy, dc_count, limit,
                                     scale, seed, epsilon, train):
    rounds = []  # greedy rows per batched forward call
    real_forward = type(policy).forward

    def count_rows(net, x):
        rounds.append(len(x))
        return real_forward(net, x)

    with monkeypatch.context() as m:
        m.setattr(type(policy), "forward", count_rows)
        got, want = run_both(monkeypatch, dc_count, limit, scale, seed, policy,
                             epsilon=epsilon, train=train,
                             config=SimConfig(max_steps=30))
    assert_same_episode(got, want)
    rep, world = got
    assert rep.acceptance_ratio > 0
    assert max(rounds) > 1  # rounds do batch several agents
    if train:
        assert sum(len(t) for t in world.transitions.values()) > 300


def test_batched_argmax_matches_single_rows(policy):
    """A batch goes through gemm and a single row through gemv, so their
    Q-values may differ in the last bits; their argmax must not, on the
    states agents meet. The states come from a recorded episode, in
    batches of every size up to a round of 20 agents."""
    g = build_network({"dc_count": 80, "seed": 5, "area_km": 1000.0,
                       "radius_km": 250.0})
    _, world = run_episode(g, 4, 1.0, 5, policy, epsilon=0.3, train=True,
                           config=SimConfig(max_steps=30))
    states = [s for records in world.transitions.values()
              for record in records for s in (record[0], record[2])]
    assert len(states) > 2000
    single = [int(np.argmax(policy.forward(s.row[None])[0])) for s in states]
    start = 0
    for size in itertools.cycle(range(1, 21)):
        batch = states[start:start + size]
        if not batch:
            break
        q = policy.forward(np.stack([s.row for s in batch]))
        assert list(q.argmax(axis=1)) == single[start:start + size]
        start += size


def test_first_allocation_drop_credits_the_acting_agent(monkeypatch):
    """A request whose first allocation settles it (a one-VNF chain ending at
    its destination) and drops it has no transition record yet, so its
    penalty goes to its origin cluster's orphan credit, the one write of
    the agent phase whose result could depend on the order of the agents'
    actions. The packet is still at its source, so only the origin
    cluster's agent can allocate it in the agent phase: the credit lands on
    that agent's current transition, in rounds as in turns."""
    catalog = catalog_from_config(
        {"sfcs": {"Ind4.0": {"chain": ["NAT"], "e2e_tolerance": 0.07}}})
    g = build_network({"dc_count": 16, "seed": 4})
    requests = []  # along each cluster's DCs: a one-VNF chain and a CG
    for dcs in make_clusters(g, 4, 4).clusters.values():
        for src, dst in zip(dcs[1:], dcs):
            for sfc in ("Ind4.0", "CG"):
                requests.append(SfcRequest(len(requests), catalog.sfcs[sfc],
                                           1.0, src, dst))
    acting = []
    orphan_drops = []  # (acting agent's cluster, origin cluster)
    real_step, real_drop = sim.local_step, World.drop_request

    def step_spy(agent, *args, **kwargs):
        acting.append(agent.cluster_id)
        try:
            return real_step(agent, *args, **kwargs)
        finally:
            acting.pop()

    def drop_spy(world, request, now, reason):
        if acting and request.id not in world.credit_map:
            orphan_drops.append((acting[-1], request.origin_cluster))
        return real_drop(world, request, now, reason)

    runs = []
    for run_step in (sim.run_step, ref_run_step):
        with monkeypatch.context() as m:
            m.setattr(sim, "run_step", run_step)
            m.setattr(sim, "local_step", step_spy)
            m.setattr(World, "drop_request", drop_spy)
            runs.append(run_episode(
                g, 4, None, 4, DemandPolicy(), train=True, catalog=catalog,
                requests=[r.fresh_copy() for r in requests],
                config=SimConfig(max_steps=30)))
    assert_same_episode(*runs)
    assert len(orphan_drops) > 5  # seen in the rounds' run
    assert all(a == origin for a, origin in orphan_drops)
