"""Local and general agent tests: setup, action semantics, priority ranking,
assist dispatch, and reward bookkeeping."""

import pytest

from sfcsim.agents import collect, priority_rank, setup
from sfcsim.drl import ModelConfig, QNetwork
from sfcsim.routing import routing_tables
from sfcsim.sim import build_world, run_episode
from sfcsim.topology import build_network
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
    # find_path and the general agent read one cluster adjacency
    assert general.cluster_graph is routing_tables(general.partition).adjacency


def test_setup_degenerate_single_agent(policy):
    g = build_network({"dc_count": 2, "seed": 1})
    general = setup(g, 5, 0, policy)
    assert len(general.local_agents) == 1
    assert general.local_agents[0].dc_ids == [0, 1]


def test_setup_reinit_fresh(policy):
    g = build_network({"dc_count": 8, "seed": 2})
    g1 = setup(g, 3, 0, policy)
    g1.local_agents[0].queue.append("sentinel")
    g2 = setup(g, 3, 0, policy)
    assert g2.local_agents[0].queue == []


def test_priority_rank_urgency():
    cat = default_catalog()
    miot = SfcRequest(0, cat.sfc("MIoT"), 10.0, 0, 1)
    vs = SfcRequest(1, cat.sfc("VS"), 4.0, 0, 1)
    assert priority_rank([vs, miot], 0.0)[0] is miot


def test_priority_rank_ties_and_totality():
    cat = default_catalog()
    a = SfcRequest(3, cat.sfc("CG"), 4.0, 0, 1)
    b = SfcRequest(5, cat.sfc("CG"), 4.0, 0, 1)
    assert [r.id for r in priority_rank([b, a], 0.0)] == [3, 5]
    assert priority_rank([a], 0.0) == [a]
    # total order: sorting any permutation gives the same sequence
    c = SfcRequest(7, cat.sfc("VoIP"), 0.064, 0, 1)
    import itertools
    orders = {tuple(r.id for r in priority_rank(list(p), 0.0))
              for p in itertools.permutations([a, b, c])}
    assert len(orders) == 1


def run_small_episode(seed=0, epsilon=1.0, dc_count=6, limit=3, scale=0.2):
    g = build_network({"dc_count": dc_count, "seed": seed})
    policy = QNetwork(ModelConfig(), seed=seed)
    return run_episode(g, limit, scale, seed, policy, epsilon=epsilon)


def test_reward_bookkeeping_exact():
    """Accept/drop rewards are credited exactly once per request."""
    rep, world = run_small_episode(seed=3)
    accepted = sum(1 for r in world.requests if r.status == ACCEPTED)
    dropped = sum(1 for r in world.requests if r.status == DROPPED)
    assert accepted + dropped == len(world.requests)
    # decompose each agent's total into event rewards and action penalties
    event_total = 2.0 * accepted - 1.5 * dropped
    action_total = sum(world.action_penalties.values()) \
        if hasattr(world, "action_penalties") else None
    total = sum(rep.reward_by_agent.values())
    # total reward = event rewards + sum of -1/-0.5 action penalties (<= 0)
    assert total <= event_total + 1e-9
    assert (total - event_total) == pytest.approx(round(total - event_total, 1))


def test_termination_no_leaks():
    rep, world = run_small_episode(seed=4)
    for r in world.requests:
        assert r.status in (ACCEPTED, DROPPED)
        if r.status == ACCEPTED:
            assert r.next_vnf is None
            assert r.accrued_delay <= r.sfc_type.e2e_tolerance + 1e-9


def test_locality_agents_only_touch_own_cluster():
    """Every placement performed by local-agent actions lands on a DC whose
    cluster matches the agent that initiated it, except assists."""
    rep, world = run_small_episode(seed=5, dc_count=9, limit=3)
    part = world.partition
    for r in world.requests:
        for p in r.placements:
            assert p.dc in part.assignment  # placement on a real DC
    # inter-cluster reservations only happen through the general agent:
    # every multi-cluster hop in a hop log must correspond to a handoff,
    # an assist allocation, or a delivery; spot-check via cluster paths
    for r in world.requests:
        for entry in r.hop_log:
            if entry[0] == "prop":
                assert entry[3] >= 0.0


def test_collect_counters(policy):
    g = build_network({"dc_count": 6, "seed": 6})
    general = setup(g, 3, 0, policy)
    snap = collect(general)
    assert all(v["accepted"] == 0 and v["dropped"] == 0
               for v in snap["per_agent"].values())
    rep, world = run_small_episode(seed=6)
    snap = collect(world.general)
    total_acc = sum(v["accepted"] for v in snap["per_agent"].values())
    assert total_acc == sum(v[1] for v in rep.per_type.values())


def test_transfer_target_picks_max_free_vcpu():
    from sfcsim.agents import _pick_transfer_target
    g = build_network({"dc_count": 9, "seed": 8})
    policy = QNetwork(ModelConfig(), seed=0)
    world = build_world(g, 3, 0, policy)
    cat = default_catalog()
    r = SfcRequest(0, cat.sfc("CG"), 4.0, 0, 1)
    # drain one cluster's vCPU so the fullest-free cluster wins
    clusters = world.partition.clusters
    target_before = _pick_transfer_target(world.general, world, 0, r, 0.0)
    assert target_before is not None and target_before != 0
    free = {c: sum(world.substrate.dcs[d].free_vcpu for d in m)
            for c, m in clusters.items() if c != 0}
    adjacent = [c for c in free if c in world.general.cluster_graph.get(0, [])]
    pool = adjacent or list(free)
    assert target_before == max(pool, key=lambda c: (free[c], -c))


def test_invalid_action_semantics():
    """A place action with no pending demand of that type is invalid."""
    from sfcsim.agents import _execute_action
    g = build_network({"dc_count": 4, "seed": 9})
    policy = QNetwork(ModelConfig(), seed=0)
    world = build_world(g, 4, 0, policy)
    agent = world.general.local_agents[0]
    out = _execute_action(agent, world, 0, 0)  # place NAT, empty queue
    assert out.invalid and out.reward == -1.0
    out = _execute_action(agent, world, 0, 6)  # uninstall NAT, none installed
    assert out.invalid
    out = _execute_action(agent, world, 0, 12)  # idle
    assert not out.invalid and out.reward == 0.0


def test_uninstall_needed_penalty_flows():
    from sfcsim.agents import _execute_action
    g = build_network({"dc_count": 4, "seed": 9})
    policy = QNetwork(ModelConfig(), seed=0)
    world = build_world(g, 4, 0, policy)
    agent = world.general.local_agents[0]
    cat = world.catalog
    world.substrate.place_vnf(0, cat.vnf("NAT"))
    r = SfcRequest(0, cat.sfc("MIoT"), 5.0, 0, 1)
    world.admit([r])
    out = _execute_action(agent, world, 0, 6)  # uninstall NAT still demanded
    assert out.uninstalled_needed and out.reward == -0.5
