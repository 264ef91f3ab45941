"""Local and general agent tests: setup, action semantics, priority ranking,
assist dispatch, and reward bookkeeping."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sfcsim import agents, drl, sim
from sfcsim.agents import priority_rank, setup
from sfcsim.drl import ModelConfig, QNetwork, load_weights
from sfcsim.sim import World, build_world, run_episode
from sfcsim.topology import build_network, cluster_adjacency
from sfcsim.workload import ACCEPTED, DROPPED, SfcRequest, default_catalog


@pytest.fixture(scope="module")
def policy():
    return QNetwork(ModelConfig(), seed=0)


def test_setup_forty_dcs(policy):
    g = build_network({"dc_count": 40, "seed": 7})
    general = setup(g, 4, 0, policy)
    assert len(general.local_agents) == 10
    for cid, agent in general.local_agents.items():
        assert agent.cluster_id == cid
        assert set(agent.dc_ids) == set(general.partition.clusters[cid])


def test_setup_degenerate_single_agent(policy):
    g = build_network({"dc_count": 2, "seed": 1})
    general = setup(g, 5, 0, policy)
    assert len(general.local_agents) == 1
    assert general.local_agents[0].dc_ids == [0, 1]


def test_setup_reinit_fresh(policy):
    g = build_network({"dc_count": 8, "seed": 2})
    world = build_world(g, 3, 0, policy)
    first = world.general.local_agents[0]
    world.enqueue(first, SfcRequest(0, world.catalog.sfcs["CG"], 4.0,
                                    first.dc_ids[0], first.dc_ids[0]))
    again = setup(g, 3, 0, policy).local_agents[0]
    assert len(first.queue) == 1 and first.waiting["NAT"]
    assert again.queue == {} and again.waiting == {} and again.local == {}


def test_priority_rank_urgency():
    cat = default_catalog()
    miot = SfcRequest(0, cat.sfcs["MIoT"], 10.0, 0, 1)
    vs = SfcRequest(1, cat.sfcs["VS"], 4.0, 0, 1)
    assert priority_rank([vs, miot], 0.0)[0] is miot


def test_priority_rank_ties_and_totality():
    cat = default_catalog()
    a = SfcRequest(3, cat.sfcs["CG"], 4.0, 0, 1)
    b = SfcRequest(5, cat.sfcs["CG"], 4.0, 0, 1)
    assert [r.id for r in priority_rank([b, a], 0.0)] == [3, 5]
    assert priority_rank([a], 0.0) == [a]
    # total order: sorting any permutation gives the same sequence
    c = SfcRequest(7, cat.sfcs["VoIP"], 0.064, 0, 1)
    import itertools
    orders = {tuple(r.id for r in priority_rank(list(p), 0.0))
              for p in itertools.permutations([a, b, c])}
    assert len(orders) == 1


def run_small_episode(seed=0, epsilon=1.0, dc_count=6, limit=3, scale=0.2):
    g = build_network({"dc_count": dc_count, "seed": seed})
    policy = QNetwork(ModelConfig(), seed=seed)
    return run_episode(g, limit, scale, seed, policy, epsilon=epsilon)


# the benchmark's trained policy: unlike untrained weights it accepts
# requests, and it fills clusters until the general agent hands requests on
TRAINED_WEIGHTS = str(Path(__file__).parents[1] / "perfbench" / "policy.bin")


def run_trained_episode(seed=2, epsilon=0.1):
    """9 DCs at cluster limit 3: accepts, drops, invalid actions and
    handoffs all occur."""
    g = build_network({"dc_count": 9, "seed": seed})
    policy = load_weights(TRAINED_WEIGHTS, ModelConfig())
    return run_episode(g, 3, 0.5, seed, policy, epsilon=epsilon)


def test_reward_bookkeeping_exact(monkeypatch):
    """Each agent's reward is its actions' rewards plus the accept and drop
    rewards of the requests that originate in its cluster, each credited
    once. Every term is a multiple of 0.5, so the sums are exact."""
    real = agents._execute_action
    action_rewards = Counter()

    def spy(agent, *args):
        outcome = real(agent, *args)
        action_rewards[agent.cluster_id] += outcome.reward
        return outcome

    monkeypatch.setattr(agents, "_execute_action", spy)
    rep, world = run_trained_episode()
    accepted, dropped = Counter(), Counter()
    for r in world.requests:
        assert r.status in (ACCEPTED, DROPPED)
        (accepted if r.status == ACCEPTED else dropped)[r.origin_cluster] += 1
    assert sum(accepted.values()) and sum(dropped.values())
    assert any(action_rewards.values())  # some invalid or uninstall penalty
    assert set(rep.reward_by_agent) == set(world.general.local_agents)
    for c, total in rep.reward_by_agent.items():
        assert total == (action_rewards[c] + 2.0 * accepted[c]
                         - 1.5 * dropped[c])


def test_termination_no_leaks():
    rep, world = run_small_episode(seed=4)
    for r in world.requests:
        assert r.status in (ACCEPTED, DROPPED)
        if r.status == ACCEPTED:
            assert r.next_vnf is None
            assert r.accrued_delay <= r.sfc_type.e2e_tolerance + 1e-9


def test_locality_agents_only_touch_own_cluster(monkeypatch):
    """Every allocation a local agent's action makes binds an instance on a
    DC of the agent's cluster, over a path whose hops all lie in it;
    allocations across clusters are the general agent's."""
    acting = []  # the agent whose action runs, if any
    allocations = []  # (acting agent's cluster, instance DC, path hops)
    real_step, real_alloc = sim.local_step, World.perform_allocation

    def step_spy(agent, *args, **kwargs):
        acting.append(agent)
        try:
            return real_step(agent, *args, **kwargs)
        finally:
            acting.pop()

    def alloc_spy(world, request, instance, path, now):
        if acting:
            allocations.append((acting[-1].cluster_id, instance.dc, path.hops))
        return real_alloc(world, request, instance, path, now)

    monkeypatch.setattr(sim, "local_step", step_spy)
    monkeypatch.setattr(World, "perform_allocation", alloc_spy)
    rep, world = run_trained_episode()
    assert world.general.handoff_log  # requests wait outside their cluster
    assert allocations
    cluster_of = world.partition.cluster_of
    for cluster, dc, hops in allocations:
        assert cluster_of(dc) == cluster
        assert hops and all(cluster_of(h) == cluster for h in hops)


def test_transfer_target_picks_max_free_vcpu():
    from sfcsim.agents import _pick_transfer_target
    g = build_network({"dc_count": 9, "seed": 8})
    policy = QNetwork(ModelConfig(), seed=0)
    world = build_world(g, 3, 0, policy)
    cat = default_catalog()
    r = SfcRequest(0, cat.sfcs["CG"], 4.0, 0, 1)
    # drain one cluster's vCPU so the fullest-free cluster wins
    clusters = world.partition.clusters
    target_before = _pick_transfer_target(world.general, world, 0, r)
    assert target_before is not None and target_before != 0
    free = {c: sum(world.substrate.dcs[d].free_vcpu for d in m)
            for c, m in clusters.items() if c != 0}
    neighbors = cluster_adjacency(world.partition)[0]
    adjacent = [c for c in free if c in neighbors]
    pool = adjacent or list(free)
    assert target_before == max(pool, key=lambda c: (free[c], -c))


def assisted_alloc_world():
    """A world whose agent 0 queues one request and has handed the general
    agent a TASK_ALLOC for a packet that waits in cluster 1."""
    from sfcsim.agents import TASK_ALLOC, AssistTask
    g = build_network({"dc_count": 9, "seed": 8})
    world = build_world(g, 3, 0, QNetwork(ModelConfig(), seed=0))
    clusters = world.partition.clusters
    agent = world.general.local_agents[0]
    away = clusters[1][0]  # the packet waits outside the agent's cluster
    cat = world.catalog
    waiting = SfcRequest(0, cat.sfcs["VS"], 4.0, clusters[0][0], 0)
    r = SfcRequest(1, cat.sfcs["CG"], 4.0, away, clusters[0][0])
    instance = world.substrate.place_vnf(clusters[0][0], cat.vnfs["NAT"])
    world.substrate.reserve_instance(instance)
    world.enqueue(agent, waiting)
    agent.outbox.append(AssistTask(TASK_ALLOC, r, instance))
    return world, agent, waiting, r, instance


def test_assisted_alloc_without_path_requeues(monkeypatch):
    """A TASK_ALLOC with no feasible path: the request goes back to the
    tail of its agent's queue, the instance is released, and no hop is
    logged."""
    from sfcsim.agents import assist
    world, agent, waiting, r, instance = assisted_alloc_world()
    monkeypatch.setattr(agents.routing, "find_path", lambda *args: None)
    assist(world.general, world, world.now)
    assert list(agent.queue) == [waiting, r] and agent.outbox == []
    assert not instance.reserved and instance.allocated_request is None
    assert r.hop_log == [] and r.next_vnf_index == 0 and r.loc == r.source_dc


def test_unreservable_routed_path_raises(monkeypatch):
    """The router returns only paths with room for the request, so a
    reservation that fails on one is a fault: the assisted allocation and
    the delivery raise instead of requeueing or dropping the request."""
    from sfcsim.agents import assist
    from sfcsim.substrate import Substrate, SubstrateError
    attempts = []

    def failing_reserve(self, path, request):
        attempts.append(request)
        return False

    monkeypatch.setattr(Substrate, "reserve_bandwidth", failing_reserve)
    world, _, _, r, _ = assisted_alloc_world()
    with pytest.raises(SubstrateError):
        assist(world.general, world, world.now)
    assert attempts == [r]  # a path was found; its reservation failed
    clusters = world.partition.clusters
    late = SfcRequest(2, world.catalog.sfcs["CG"], 4.0, clusters[0][0],
                      clusters[1][0])
    with pytest.raises(SubstrateError):
        world.deliver(late, world.now)
    assert attempts == [r, late]
    assert late.status not in (ACCEPTED, DROPPED)


def test_invalid_action_semantics():
    """A place action with no pending demand of that type is invalid."""
    from sfcsim.agents import _execute_action, _scan_scope
    g = build_network({"dc_count": 4, "seed": 9})
    policy = QNetwork(ModelConfig(), seed=0)
    world = build_world(g, 4, 0, policy)
    agent = world.general.local_agents[0]
    _scan_scope(agent, world)  # starts the turn, as run_step does
    out = _execute_action(agent, world, 0, 0)  # place NAT, empty queue
    assert out.invalid and out.reward == -1.0
    out = _execute_action(agent, world, 0, 6)  # uninstall NAT, none installed
    assert out.invalid
    out = _execute_action(agent, world, 0, 12)  # idle
    assert not out.invalid and out.reward == 0.0


def test_noop_action_records_its_state_as_next_state():
    """An invalid place action and an idle action change nothing the state
    reads: the recorded next state is the state itself, not a re-encoding."""
    g = build_network({"dc_count": 4, "seed": 9})
    world = build_world(g, 4, 0, QNetwork(ModelConfig(), seed=0))
    agent = world.general.local_agents[0]
    for action in (0, agents.ACTION_IDLE):  # place NAT with an empty queue
        agents._scan_scope(agent, world)  # starts the turn, as run_step does
        current_dc, state = agents.begin_action(agent, world,
                                                np.empty(drl.STATE_DIM))
        _, outcome, got, next_state = agents.local_step(
            agent, world, current_dc, action, state, record_states=True)
        assert outcome.invalid == (action == 0)
        assert got is state and next_state is state


def test_uninstall_needed_penalty_flows():
    from sfcsim.agents import (REWARD_UNINSTALL_NEEDED, _execute_action,
                               _scan_scope)
    g = build_network({"dc_count": 4, "seed": 9})
    policy = QNetwork(ModelConfig(), seed=0)
    world = build_world(g, 4, 0, policy)
    agent = world.general.local_agents[0]
    cat = world.catalog
    world.substrate.place_vnf(0, cat.vnfs["NAT"])
    world.substrate.place_vnf(0, cat.vnfs["NAT"])
    _scan_scope(agent, world)  # starts the turn, as run_step does
    out = _execute_action(agent, world, 0, 6)  # uninstall NAT, not demanded
    assert not out.invalid and out.reward == 0.0
    r = SfcRequest(0, cat.sfcs["MIoT"], 5.0, 0, 1)
    world.admit([r])
    _scan_scope(agent, world)
    out = _execute_action(agent, world, 0, 6)  # uninstall NAT still demanded
    assert not out.invalid and out.reward == REWARD_UNINSTALL_NEEDED == -0.5
    assert world.substrate.installed_count(0, "NAT") == 0
