"""The local agents' per-action hot path (state view, encoding, scope scan,
priority order) against a reference copy of the straightforward
per-request-property implementation it replaced. The floats must match bit
for bit: a last-bit difference can flip a greedy argmax."""

import math
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sfcsim import agents, sim
from sfcsim.drl import (INPUT_A_DIM, INPUT_B_DIM, INPUT_C_DIM, INSTANCE_NORM,
                        SFC_FEATURES, STATE_DIM, ModelConfig, PendingItem,
                        SfcGroups, StateEncoding, StateView, encode_state,
                        load_weights)
from sfcsim.sim import SimConfig, run_episode
from sfcsim.topology import build_network
from sfcsim.workload import (BW_NORM_MBPS, MAX_E2E_TOLERANCE_MS, SFC_ORDER,
                             VNF_ORDER, SfcRequest, catalog_from_config,
                             default_catalog, generate_bundles)

TRAINED_WEIGHTS = str(Path(__file__).parents[1] / "perfbench" / "policy.bin")

# ---- reference: the per-request-property formulas --------------------------

# a queued request as the reference encoder reads it at one step
RefItem = namedtuple("RefItem", "sfc_name remaining_ms bandwidth "
                                "completion_frac next_vnf_name")


def ref_next_vnf(r):
    chain = r.sfc_type.chain
    return chain[r.next_vnf_index] if r.next_vnf_index < len(chain) else None


def ref_remaining_proc_time(r):
    return sum(v.proc_time for v in r.sfc_type.chain[r.next_vnf_index:])


def ref_completion_fraction(r):
    return r.next_vnf_index / len(r.sfc_type.chain)


def ref_remaining_tolerance(r, now):
    waited = max(0.0, now - r.ready_time)
    accrued = r.propagation_total + r.processing_total
    return r.sfc_type.e2e_tolerance - accrued - waited


def ref_priority_key(r, now):
    slack = ref_remaining_tolerance(r, now) - ref_remaining_proc_time(r)
    return (slack / r.sfc_type.e2e_tolerance, r.id)


def ref_bound(r, now):
    """The deadline pass's bound: accrued delay + time waited + remaining
    processing, added left to right."""
    waited = max(0.0, now - r.ready_time)
    accrued = r.propagation_total + r.processing_total
    return (accrued + waited) + ref_remaining_proc_time(r)


def ref_deadline_drops(world, now):
    """The queued requests the per-step deadline scan drops at `now`, in
    (agent id, queue order)."""
    return [r for cid in sorted(world.general.local_agents)
            for r in world.general.local_agents[cid].queue
            if ref_bound(r, now) > r.sfc_type.e2e_tolerance]


def ref_build_state_view(agent, world, current_dc):
    now = world.now
    sub = world.substrate
    items_cluster = []
    items_local = []
    out_count = 0
    for r in agent.queue:
        item = RefItem(r.sfc_type.name, ref_remaining_tolerance(r, now),
                       r.bandwidth, ref_completion_fraction(r),
                       ref_next_vnf(r).name)
        items_cluster.append(item)
        if r.loc == current_dc:
            items_local.append(item)
        if world.partition.cluster_of(r.dest_dc) != agent.cluster_id:
            out_count += 1
    dc = sub.dcs[current_dc]
    free = (dc.free_vcpu / dc.spec.compute_cap,
            dc.free_ram / dc.spec.ram_cap,
            dc.free_storage / dc.spec.storage_cap)
    installed = {v: sub.installed_count(current_dc, v) for v in VNF_ORDER}
    idle = {v: len(sub.idle_instances(current_dc, v)) for v in VNF_ORDER}
    return StateView(
        items_local=items_local,
        items_cluster=items_cluster,
        installed=installed,
        idle=idle,
        free_fracs=free,
        transfer_pending=bool(agent.outbox),
        out_of_cluster_frac=out_count / len(agent.queue) if agent.queue else 0.0,
        now=now,
    )


def _clip01(x):
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def ref_sfc_summary(items, catalog):
    out = np.zeros(INPUT_A_DIM)
    vnf_index = {name: i for i, name in enumerate(VNF_ORDER)}
    for t, name in enumerate(SFC_ORDER):
        sfc = catalog.sfcs[name]
        group = [it for it in items if it.sfc_name == name]
        base = t * SFC_FEATURES
        if not group:
            continue
        out[base + 0] = _clip01(len(group) / sfc.bundle_range[1])
        out[base + 1] = _clip01(min(it.remaining_ms for it in group)
                                / MAX_E2E_TOLERANCE_MS)
        out[base + 2] = _clip01(sum(it.bandwidth for it in group)
                                / len(group) / BW_NORM_MBPS)
        out[base + 3] = _clip01(sum(it.completion_frac for it in group) / len(group))
        for it in group:
            out[base + 4 + vnf_index[it.next_vnf_name]] += 1.0 / len(group)
    return out


def ref_encode_state(view, catalog):
    input_a = ref_sfc_summary(view.items_local, catalog)
    input_b = np.zeros(INPUT_B_DIM)
    for i, name in enumerate(VNF_ORDER):
        input_b[2 * i] = _clip01(view.installed.get(name, 0) / INSTANCE_NORM)
        input_b[2 * i + 1] = _clip01(view.idle.get(name, 0) / INSTANCE_NORM)
    input_b[-3:] = [_clip01(f) for f in view.free_fracs]
    input_c = np.zeros(INPUT_C_DIM)
    input_c[:INPUT_A_DIM] = ref_sfc_summary(view.items_cluster, catalog)
    input_c[-2] = 1.0 if view.transfer_pending else 0.0
    input_c[-1] = _clip01(view.out_of_cluster_frac)
    return StateEncoding(np.concatenate([input_a, input_b, input_c]))


def ref_scope_moves(agent, world):
    """The queued requests the reference scope scan moves to the outbox."""
    return [r for r in agent.queue
            if ref_next_vnf(r) is not None
            and not world.substrate.cluster_can_host(agent.dc_ids,
                                                     ref_next_vnf(r))]


def grouped(items):
    """The items filed in SfcGroups in list order."""
    groups = SfcGroups()
    for it in items:
        groups.add(it)
    return groups


def assert_same_encoding(got, want):
    a, b = got.row, want.row
    assert a.shape == b.shape == (STATE_DIM,)
    assert a.dtype == b.dtype and np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # also tells 0.0 from -0.0


# ---- checks ----------------------------------------------------------------


class DemandPolicy:
    """Greedy stand-in for a trained network: place or reuse the VNF type
    most wanted at the current DC (then in the cluster), else idle. Its
    Q-values are read off the encoding, and unlike an untrained network it
    keeps agents allocating, so DCs fill up and requests move out. Like
    `QNetwork.forward`, it scores stacked state rows."""
    config = ModelConfig()

    def forward(self, x):
        xa, xc = x[:, :INPUT_A_DIM], x[:, INPUT_A_DIM + INPUT_B_DIM:]
        shape = (len(xa), len(SFC_ORDER), SFC_FEATURES)
        q = np.full((len(xa), self.config.action_count), -1.0)
        q[:, :len(VNF_ORDER)] = (
            xa.reshape(shape)[:, :, 4:].sum(axis=1)
            + 0.1 * xc[:, :INPUT_A_DIM].reshape(shape)[:, :, 4:].sum(axis=1))
        q[:, agents.ACTION_IDLE] = 0.05
        return q


def check_local_steps(monkeypatch):
    """Check every agent turn and action against the reference. At the start
    of a turn (`_scan_scope`): the same requests moved to the outbox. At its
    decide step (`begin_action`): the same encoding, and the same waiting
    requests in the same priority order for every VNF type. After a recorded
    action (`local_step`): the same state and next state. At each step's
    deadline pass: the same requests dropped, in the same order, as the
    per-step scan drops. Returns the counts of what the checks saw."""
    real_scan = agents._scan_scope
    real_begin, real_local_step = sim.begin_action, sim.local_step
    real_deadlines = sim.World._deadline_scan
    real_drop = sim.World.drop_request
    seen = {"steps": 0, "items": 0, "moved": 0, "ranked": 0, "allocated": 0,
            "after_alloc_task": 0, "recorded": 0, "recorded_noop": 0,
            "dropped": 0}
    wanted = {}  # agent -> the reference encoding at its latest decide step
    turns = set()  # (step, agent id) of every turn started
    drops = []  # every request dropped, for any reason, in drop order

    def dropping(world, request, now, reason):
        drops.append(request)
        return real_drop(world, request, now, reason)

    def deadline_pass(world, now):
        want = ref_deadline_drops(world, now)
        gone = {id(r) for r in want}
        kept = {cid: [r for r in a.queue if id(r) not in gone]
                for cid, a in world.general.local_agents.items()}
        start = len(drops)
        real_deadlines(world, now)
        assert [r.id for r in drops[start:]] == [r.id for r in want]
        assert all(r.drop_reason == "deadline" and r.drop_time == now
                   for r in want)
        for cid, a in world.general.local_agents.items():
            assert list(a.queue) == kept[cid]
        seen["dropped"] += len(want)

    def scanned(agent, world):
        turn = (world.now, agent.cluster_id)
        assert turn not in turns  # a turn starts once per step
        turns.add(turn)
        moved = ref_scope_moves(agent, world)
        keep = [r for r in agent.queue if not any(r is m for m in moved)]
        before = len(agent.outbox)
        real_scan(agent, world)
        tasks = agent.outbox[before:]
        assert [t.request.id for t in tasks] == [r.id for r in moved]
        assert all(t.kind == agents.TASK_TRANSFER for t in tasks)
        assert [r.id for r in agent.queue] == [r.id for r in keep]
        seen["moved"] += len(moved)

    def begun(agent, world, row):
        now = world.now
        result = real_begin(agent, world, row)
        current_dc, got = result
        want = wanted[id(agent)] = ref_encode_state(
            ref_build_state_view(agent, world, current_dc), world.catalog)
        assert_same_encoding(got, want)
        for name in VNF_ORDER:
            pending = [r for r in agent.queue
                       if ref_next_vnf(r) is not None
                       and ref_next_vnf(r).name == name]
            got_ranked = [r.id for r in agent.ranked(name, now)]
            assert sorted(got_ranked) == sorted(r.id for r in pending)
            want_order = [r.id for r in sorted(
                pending, key=lambda r: ref_priority_key(r, now))]
            ranked = agents.priority_rank(pending, now)
            assert [r.id for r in ranked] == want_order
            assert got_ranked == want_order
            seen["ranked"] += len(ranked) > 1
        seen["steps"] += 1
        seen["items"] += len(agent.queue)
        # an out-of-cluster take earlier in this step left a TASK_ALLOC
        seen["after_alloc_task"] += any(t.kind == agents.TASK_ALLOC
                                        for t in agent.outbox)
        return result

    def checked(agent, world, current_dc, action, state=None,
                record_states=False):
        result = real_local_step(agent, world, current_dc, action, state,
                                 record_states)
        seen["allocated"] += result[1].request is not None
        if record_states:
            _, _, state, next_state = result
            assert_same_encoding(state, wanted[id(agent)])
            assert_same_encoding(next_state, ref_encode_state(
                ref_build_state_view(agent, world, current_dc), world.catalog))
            seen["recorded"] += 1
            # an invalid or idle action records its state as the next state
            seen["recorded_noop"] += (result[1].invalid
                                      or action == agents.ACTION_IDLE)
        return result

    monkeypatch.setattr(agents, "_scan_scope", scanned)
    monkeypatch.setattr(sim, "begin_action", begun)
    monkeypatch.setattr(sim, "local_step", checked)
    monkeypatch.setattr(sim.World, "_deadline_scan", deadline_pass)
    monkeypatch.setattr(sim.World, "drop_request", dropping)
    return seen


# (dc_count, cluster limit, scale, seed, epsilon), 30 steps each
EPISODES = [
    (40, 8, 3.0, 11, 0.0),
    (40, 8, 3.0, 12, 0.5),
    (20, 4, 1.0, 3, 0.0),
    (20, 4, 1.0, 4, 0.5),
]


@pytest.mark.parametrize("dc_count,limit,scale,seed,epsilon", EPISODES)
def test_hot_path_matches_reference(monkeypatch, dc_count, limit, scale, seed,
                                    epsilon):
    """At every decide step: the same encoding as the reference, the same
    requests moved to the outbox by the scope scan, the same priority order
    for every VNF type, and the same deadline drops."""
    seen = check_local_steps(monkeypatch)
    g = build_network({"dc_count": dc_count, "seed": seed})
    run_episode(g, limit, scale, seed, DemandPolicy(), epsilon=epsilon,
                config=SimConfig(max_steps=30))
    assert seen["steps"] > 300
    assert seen["items"] > 10 * seen["steps"]
    assert seen["ranked"] > 0 and seen["allocated"] > 100
    if epsilon == 0.0:
        assert seen["moved"] > 0
    else:  # exploring agents leave requests waiting past their deadlines
        assert seen["dropped"] > 0


def test_out_of_cluster_alloc_matches_reference(monkeypatch):
    """Requests handed to another cluster wait outside it; taking one for a
    TASK_ALLOC must leave the view as the reference builds it."""
    seen = check_local_steps(monkeypatch)
    g = build_network({"dc_count": 40, "seed": 11})
    run_episode(g, 4, 3.0, 11, DemandPolicy(), config=SimConfig(max_steps=30))
    assert seen["after_alloc_task"] > 50


def test_recorded_states_match_reference(monkeypatch):
    """A training episode records the state before and after each action,
    the no-op actions' next states included."""
    seen = check_local_steps(monkeypatch)
    g = build_network({"dc_count": 40, "seed": 12})
    run_episode(g, 8, 3.0, 12, DemandPolicy(), epsilon=0.5, train=True,
                config=SimConfig(max_steps=30))
    assert seen["recorded"] == seen["steps"] > 300
    assert seen["recorded_noop"] > 0
    assert seen["dropped"] > 0


# ---- the filed index: each queued request is filed once per queue join -----


def item_fields(it, now):
    """An item as the reference reads it at step `now`."""
    return RefItem(it.sfc_name, it.base_ms - max(0.0, now - it.ready),
                   it.bandwidth, it.completion_frac, it.next_vnf_name)


def assert_turn_matches_reference(agent, world):
    """The turn's items in queue order, each VNF type's waiting list, the
    out-of-cluster count, and the encoding at every DC of the cluster, as
    the reference builds them."""
    now = world.now
    ref = ref_build_state_view(agent, world, agent.dc_ids[0])
    assert ([item_fields(r.item, now) for r in agent.queue]
            == ref.items_cluster)
    for name in VNF_ORDER:
        assert list(agent.waiting.get(name, ())) == [
            r for r in agent.queue if ref_next_vnf(r).name == name]
    assert agent.out_count == sum(
        world.partition.cluster_of(r.dest_dc) != agent.cluster_id
        for r in agent.queue)
    for dc in agent.dc_ids:
        assert_same_encoding(
            encode_state(agents.build_state_view(agent, world, dc),
                         world.catalog),
            ref_encode_state(ref_build_state_view(agent, world, dc),
                             world.catalog))


def two_cluster_world():
    """8 DCs in two clusters of four, each connected by its own links."""
    g = build_network({"dc_count": 8, "seed": 1})
    world = sim.build_world(g, 4, 0, DemandPolicy())
    a, b = (world.general.local_agents[c] for c in (0, 1))
    assert (sorted(a.dc_ids), sorted(b.dc_ids)) == ([0, 1, 6, 7], [2, 3, 4, 5])
    return world, a, b


def queue_up(world, agent, *requests):
    """Put requests in the agent's queue as if they had started there."""
    for r in requests:
        r.origin_cluster = agent.cluster_id
        world.enqueue(agent, r)


def start_turn(agent, world):
    agents._scan_scope(agent, world)
    assert_turn_matches_reference(agent, world)


def fill(world, agent, vnf_names):
    """Place instances of each type in turn at every DC of the agent's
    cluster while there is room."""
    sub = world.substrate
    for dc in agent.dc_ids:
        for name in vnf_names:
            while sub.can_place(dc, world.catalog.vnfs[name]):
                sub.place_vnf(dc, world.catalog.vnfs[name])


def first_due_step(r, now):
    """The first whole step from `now` at which the reference bound
    exceeds the tolerance."""
    while ref_bound(r, now) <= r.sfc_type.e2e_tolerance:
        now += sim.STEP_MS
    return now


def pass_deadlines(world, until):
    """Advance the clock step by step to `until`, running the deadline pass
    alone and checking it against the per-step scan of the reference, and
    each agent's next turn against the reference. Returns the requests
    dropped."""
    dropped = []
    while world.now < until:
        world.now += sim.STEP_MS
        now = world.now
        want = ref_deadline_drops(world, now)
        world._deadline_scan(now)
        assert all(r.drop_reason == "deadline" and r.drop_time == now
                   for r in want)
        for agent in world.general.local_agents.values():
            assert all(ref_bound(r, now) <= r.sfc_type.e2e_tolerance
                       for r in agent.queue)
            start_turn(agent, world)
        dropped += want
    return dropped


def test_handed_off_request_flips_its_out_of_cluster_flag():
    """A request bound for cluster b that cluster a cannot host waits in a
    as out of cluster; handed to b, it waits there as in cluster."""
    world, a, b = two_cluster_world()
    cat = world.catalog
    fill(world, a, ["NAT"])  # NAT fills a, so a cannot host TM
    vs = cat.sfcs["VS"]  # NAT FW TM VOC IDPS
    moving = SfcRequest(0, vs, 4.0, 0, 3, next_vnf_index=2)
    staying = SfcRequest(1, vs, 4.0, 1, 2)
    in_b = SfcRequest(2, vs, 4.0, 2, 0, next_vnf_index=1)
    queue_up(world, a, moving, staying)
    queue_up(world, b, in_b)
    start_turn(a, world)
    assert [t.request for t in a.outbox] == [moving]
    assert list(a.queue) == [staying]
    assert moving.item.out_of_cluster
    agents.assist(world.general, world, world.now)
    assert list(b.queue) == [in_b, moving]
    world.now += sim.STEP_MS
    start_turn(b, world)
    assert not moving.item.out_of_cluster


def test_handed_off_request_falls_due_in_its_new_cluster():
    """A request handed from cluster a to cluster b misses its deadline
    while it waits in b: the pass drops it from b's queue at the step the
    reference bound first exceeds its tolerance, once, though the entry it
    left in a falls due at the same step."""
    world, a, b = two_cluster_world()
    fill(world, a, ["NAT"])  # a cannot host TM
    ar = world.catalog.sfcs["AR"]  # NAT FW TM VOC IDPS, 10 ms
    moving = SfcRequest(0, ar, 1.0, 0, 3, next_vnf_index=2)
    staying = SfcRequest(1, world.catalog.sfcs["VS"], 4.0, 2, 0)
    queue_up(world, a, moving)
    queue_up(world, b, staying)
    world.now += sim.STEP_MS
    start_turn(a, world)
    assert [t.request for t in a.outbox] == [moving] and not a.queue
    agents.assist(world.general, world, world.now)
    assert list(b.queue) == [staying, moving]
    assert moving.item.cluster_id == b.cluster_id
    due = first_due_step(moving, world.now)
    assert due == moving.item.due == 10.0
    assert pass_deadlines(world, due + 3) == [moving]
    assert moving.drop_time == due and list(b.queue) == [staying]
    assert not b.waiting["TM"] and b.out_count == 1  # staying is bound for a


def test_requeued_request_after_failed_alloc_assist_matches_reference():
    """A request whose packet waits outside the cluster is taken for an
    instance; the general agent finds no path wide enough and puts it back
    in the queue, where the next turn reads it as the reference does. It
    keeps its item, and the pass drops it, once, at the step its reference
    bound first exceeds its tolerance."""
    world, a, _ = two_cluster_world()
    cat = world.catalog
    wide = SfcRequest(0, cat.sfcs["AR"], 1e9, 3, 0, next_vnf_index=1)
    near = SfcRequest(1, cat.sfcs["VS"], 4.0, 0, 3, next_vnf_index=1)
    queue_up(world, a, wide, near)
    item = wide.item
    start_turn(a, world)
    out = agents._execute_action(a, world, 0, VNF_ORDER.index("FW"))
    assert out.request is wide and a.outbox[0].kind == agents.TASK_ALLOC
    assert_turn_matches_reference(a, world)
    agents.assist(world.general, world, world.now)
    assert list(a.queue) == [near, wide] and wide.next_vnf_index == 1
    assert wide.item is item
    world.now += sim.STEP_MS
    start_turn(a, world)
    due = first_due_step(wide, world.now)
    assert due == item.due == 10.0
    assert pass_deadlines(world, due + 3) == [wide]
    assert wide.drop_time == due and list(a.queue) == [near]


def test_deadline_drops_come_in_agent_and_queue_order(monkeypatch):
    """The pass drops in (agent id, queue order), as the per-step scan did,
    not in the order of the due steps: requests admitted past their bounds
    are due at step 0, and the pass at step 1 drops them in queue order
    among those due at step 1, agent 0's first."""
    world, a, b = two_cluster_world()
    ar = world.catalog.sfcs["AR"]  # 10 ms
    dropped = []
    real_drop = sim.World.drop_request

    def dropping(world, request, now, reason):
        dropped.append(request)
        real_drop(world, request, now, reason)

    monkeypatch.setattr(sim.World, "drop_request", dropping)
    first, kept, late, second = (
        SfcRequest(i, ar, 1.0, 0, 3, propagation_total=p)
        for i, p in ((0, 9.5), (1, 0.0), (2, 20.0), (3, 9.5)))
    late_b = SfcRequest(4, ar, 1.0, 2, 0, propagation_total=20.0)
    world.admit([late_b, first, kept, late, second])
    assert [r.item.due for r in (first, kept, late, second, late_b)] == [
        1.0, 10.0, 0.0, 1.0, 0.0]
    want = [first, late, second, late_b]
    assert pass_deadlines(world, 1.0) == want == dropped
    assert list(a.queue) == [kept] and not b.queue


def test_two_types_unhostable_in_one_step_move_in_queue_order():
    """Requests waiting for NAT, FW and VOC are filed in one queue; a step
    later the cluster can host neither NAT nor FW. The turn moves the
    requests of both types, and only them, in queue order."""
    world, a, _ = two_cluster_world()
    cat = world.catalog
    chains = [("VS", 0), ("CG", 1), ("CG", 2), ("VoIP", 1), ("AR", 0),
              ("CG", 2), ("VS", 1), ("VoIP", 0)]  # NAT FW VOC FW NAT VOC ...
    queued = [SfcRequest(i, cat.sfcs[sfc], 1.0, a.dc_ids[i % 4], 3,
                         next_vnf_index=k)
              for i, (sfc, k) in enumerate(chains)]
    queue_up(world, a, *queued)
    start_turn(a, world)
    assert not a.outbox
    fill(world, a, ["VOC", "TM", "WO", "IDPS"])
    sub = world.substrate
    assert not sub.cluster_can_host(a.dc_ids, cat.vnfs["NAT"])
    assert not sub.cluster_can_host(a.dc_ids, cat.vnfs["FW"])
    assert sub.cluster_can_host(a.dc_ids, cat.vnfs["VOC"])
    world.now += sim.STEP_MS
    moved = ref_scope_moves(a, world)
    assert [r.id for r in moved] == [0, 1, 3, 4, 6, 7]
    start_turn(a, world)
    assert [t.request for t in a.outbox] == moved
    assert [r.id for r in a.queue] == [2, 5]


def test_request_back_at_its_next_chain_position_matches_reference():
    """A request allocated from DC 0 to an instance at DC 6 leaves DC 0's
    groups, which the turn has not read yet, and comes back to the queue
    at its next chain position with a new item."""
    world, a, _ = two_cluster_world()
    vs = world.catalog.sfcs["VS"]
    moved, left, other = (SfcRequest(i, vs, 4.0, dc, 3)
                          for i, dc in ((0, 0), (1, 0), (2, 6)))
    queue_up(world, a, moved, left, other)
    agents._scan_scope(a, world)
    # the turn's first action reads DC 6, so DC 0's groups are not read yet
    encode_state(agents.build_state_view(a, world, 6), world.catalog)
    out = agents._execute_action(a, world, 6, VNF_ORDER.index("NAT"))
    assert out.request is moved and list(a.queue) == [left, other]
    assert_turn_matches_reference(a, world)
    for _ in range(20):
        world.now += sim.STEP_MS
        world._release_bandwidth(world.now)
        world._complete_processing(world.now)
        if moved in a.queue:
            break
    assert list(a.queue) == [left, other, moved] and moved.loc == 6
    start_turn(a, world)
    assert moved.item.next_vnf_name == "FW"


def dense_episode(requests=None, epsilon=0.0):
    """30 steps of an eval-dense-shaped episode with the benchmark's
    policy: 40 DCs, cluster limit 8, scale 3."""
    g = build_network({"dc_count": 40, "seed": 11})
    policy = load_weights(TRAINED_WEIGHTS, ModelConfig())
    return run_episode(g, 8, None if requests else 3.0, 11, policy,
                       epsilon=epsilon, config=SimConfig(max_steps=30),
                       requests=requests)


@pytest.mark.parametrize("epsilon", [0.0, 0.5], ids=["greedy", "exploring"])
def test_due_heap_holds_each_queued_request_once(monkeypatch, epsilon):
    """After every deadline pass, no entry of a due heap has come due, and
    its live entries, those whose join seq is still their request's in the
    queue, are the queue's requests, one each, at their items' due steps.
    Entries of requests that left or joined again stay behind as stale."""
    real_deadlines = sim.World._deadline_scan
    seen = {"passes": 0, "live": 0, "stale": 0}

    def deadline_pass(world, now):
        real_deadlines(world, now)
        seen["passes"] += 1
        for agent in world.general.local_agents.values():
            assert all(due > now for due, _, _ in agent.due)
            live = [(due, seq, r) for due, seq, r in agent.due
                    if agent.queue.get(r) == seq]
            assert sorted((seq, r.id) for _, seq, r in live) == sorted(
                (seq, r.id) for r, seq in agent.queue.items())
            assert all(due == r.item.due for due, _, r in live)
            seen["live"] += len(live)
            seen["stale"] += len(agent.due) - len(live)

    monkeypatch.setattr(sim.World, "_deadline_scan", deadline_pass)
    dense_episode(epsilon=epsilon)
    assert seen["passes"] > 0 and seen["live"] > 0 and seen["stale"] > 0


def test_pending_items_are_made_once_per_queue_stay(monkeypatch):
    """Each request's item is made when it joins a queue, at most once per
    cluster and chain position it waits at, and far less often than a turn
    reads an item."""
    made = []
    real_item, real_enqueue = sim.PendingItem, sim.World.enqueue
    real_scan = agents._scan_scope
    stays = set()  # (request, cluster, chain position)
    read = [0]  # items the turns read: the queue lengths summed over turns

    def counted(*args):
        made.append(args)
        return real_item(*args)

    def enqueued(world, agent, r):
        stays.add((r.id, agent.cluster_id, r.next_vnf_index))
        real_enqueue(world, agent, r)

    def scanned(agent, world):
        real_scan(agent, world)
        read[0] += len(agent.queue)

    monkeypatch.setattr(sim, "PendingItem", counted)
    monkeypatch.setattr(sim.World, "enqueue", enqueued)
    monkeypatch.setattr(agents, "_scan_scope", scanned)
    dense_episode()
    assert 0 < len(made) <= len(stays)
    # rebuilding every item at every turn would make at least `read` items
    assert 10 * len(made) < read[0]


def test_turn_starts_and_deadline_passes_touch_only_what_changed(monkeypatch):
    """The turn starts and the deadline passes of an eval-dense-shaped
    episode touch only the requests that joined a queue, were dropped or
    moved to an outbox, and far fewer than a walk of every queue at every
    turn. A request counts as touched by a call when the call reads any of
    its attributes."""
    reads = set()  # ids of the requests read while `watching` is on
    watching = [False]

    class Watched(SfcRequest):
        def __getattribute__(self, name):
            if watching[0]:
                reads.add(id(self))
            return object.__getattribute__(self, name)

    def watched(call, *args):
        reads.clear()
        watching[0] = True
        try:
            call(*args)
        finally:
            watching[0] = False
        return len(reads)

    real_scan, real_enqueue = agents._scan_scope, sim.World.enqueue
    real_deadlines = sim.World._deadline_scan
    real_drop = sim.World.drop_request
    counts = {"touched": 0, "joins": 0, "drops": 0, "moves": 0, "queued": 0}

    def scanned(agent, world):
        counts["queued"] += len(agent.queue)
        before = len(agent.outbox)
        counts["touched"] += watched(real_scan, agent, world)
        counts["moves"] += len(agent.outbox) - before

    def deadline_pass(world, now):
        counts["touched"] += watched(real_deadlines, world, now)

    def enqueued(world, agent, r):
        counts["joins"] += 1
        real_enqueue(world, agent, r)

    def dropping(world, request, now, reason):
        counts["drops"] += reason == "deadline"
        real_drop(world, request, now, reason)

    monkeypatch.setattr(agents, "_scan_scope", scanned)
    monkeypatch.setattr(sim.World, "_deadline_scan", deadline_pass)
    monkeypatch.setattr(sim.World, "enqueue", enqueued)
    monkeypatch.setattr(sim.World, "drop_request", dropping)
    g = build_network({"dc_count": 40, "seed": 11})
    requests = generate_bundles(default_catalog(), g, 3.0,
                                np.random.default_rng([11, 1]))
    for r in requests:
        r.__class__ = Watched
    dense_episode(requests)
    assert counts["drops"] > 0 and counts["moves"] > 0
    assert 0 < counts["touched"] <= (counts["joins"] + counts["drops"]
                                     + counts["moves"])
    assert 10 * counts["touched"] < counts["queued"]


def test_scope_scan_asks_per_vnf_type():
    """Requests of one SFC type wait at different chain positions; only
    those whose next VNF the full cluster cannot host move out, in order."""
    g = build_network({"dc_count": 4, "seed": 1})
    world = sim.build_world(g, 4, 0, DemandPolicy())
    (agent,) = world.general.local_agents.values()
    fill(world, agent, ["NAT"])  # NAT installed everywhere, no room for more
    vs = world.catalog.sfcs["VS"]  # NAT FW TM
    cg = world.catalog.sfcs["CG"]
    queue_up(world, agent, *(SfcRequest(i, sfc, 1.0, 0, 1, next_vnf_index=k)
                             for i, (sfc, k) in enumerate(
                                 [(vs, 0), (vs, 2), (cg, 0), (vs, 0), (cg, 1),
                                  (vs, 2)])))
    moved = ref_scope_moves(agent, world)
    assert [r.id for r in moved] == [1, 4, 5]
    agents._scan_scope(agent, world)
    assert [t.request.id for t in agent.outbox] == [1, 4, 5]
    assert [r.id for r in agent.queue] == [0, 2, 3]


def test_encoding_matches_reference_on_random_items():
    """Random float fields, so a different summation order or a pairwise
    (numpy) sum shows in the last bits. An SfcGroups that was summarised
    and then had items removed, or whose step moved on, summarises as the
    reference does its remaining items at the new step; so does one whose
    type was emptied and refilled within a step, and one that had items
    added and removed and its step moved before one summary. A second
    summary at a step gives the same row, and an encoding leaves the row
    the groups keep as it was."""
    rng = np.random.default_rng(5)
    cat = default_catalog()

    def ref_items(items, now):
        return [item_fields(it, now) for it in items]

    def random_items(count, now, sfc_name=None):
        return [PendingItem(sfc_name=sfc_name or SFC_ORDER[int(rng.integers(6))],
                            base_ms=float(rng.uniform(-10, 120)),
                            ready=now - float(rng.uniform(-5, 20)),
                            bandwidth=float(rng.uniform(0, 120)),
                            completion_frac=float(rng.uniform(0, 1)),
                            next_vnf_name=VNF_ORDER[int(rng.integers(6))],
                            out_of_cluster=False, cluster_id=0, chain_pos=0,
                            due=math.inf)
                for _ in range(count)]

    def assert_summary(groups, items, now):
        row = groups.summary(cat, now)
        assert row.shape == (INPUT_A_DIM,)
        assert row.tobytes() == ref_sfc_summary(ref_items(items, now),
                                                cat).tobytes()

    for _ in range(200):
        now = float(rng.integers(0, 50))
        items = random_items(int(rng.integers(0, 120)), now)
        view = StateView(items_local=ref_items(items[::2], now),
                         items_cluster=ref_items(items, now),
                         installed={"FW": int(rng.integers(0, 20))},
                         idle={"NAT": int(rng.integers(0, 20))},
                         free_fracs=tuple(float(x) for x in rng.uniform(0, 1, 3)),
                         transfer_pending=bool(rng.integers(2)),
                         out_of_cluster_frac=float(rng.uniform(0, 1)),
                         now=now)
        view_groups = replace(view, items_local=grouped(items[::2]),
                              items_cluster=grouped(items))
        assert_same_encoding(encode_state(view_groups, cat),
                             ref_encode_state(view, cat))
        groups = grouped(items)
        assert np.array_equal(groups.summary(cat, now),
                              ref_sfc_summary(ref_items(items, now), cat))
        for it in items[::3]:
            groups.remove(it)
        kept = [it for i, it in enumerate(items) if i % 3]
        assert np.array_equal(groups.summary(cat, now),
                              ref_sfc_summary(ref_items(kept, now), cat))
        later = now + sim.STEP_MS
        assert_summary(groups, kept, later)
        # a second summary at the step: the same row, kept as it was
        first = groups.summary(cat, later).tobytes()
        assert groups.summary(cat, later).tobytes() == first
        # an encoding copies the kept rows; changing it leaves them alone
        enc = encode_state(replace(view_groups, items_local=groups,
                                   items_cluster=groups, now=later), cat)
        assert enc.row[:INPUT_A_DIM].tobytes() == first
        enc.row[:] = -1.0
        assert groups.summary(cat, later).tobytes() == first
        # one type emptied and refilled within the step
        name = SFC_ORDER[int(rng.integers(6))]
        for it in kept:
            if it.sfc_name == name:
                groups.remove(it)
        assert_summary(groups, [it for it in kept if it.sfc_name != name],
                       later)
        refill = random_items(int(rng.integers(0, 4)), later, name)
        for it in refill:
            groups.add(it)
        kept = [it for it in kept if it.sfc_name != name] + refill
        assert_summary(groups, kept, later)
        # adds, removes and a step move, then one summary
        added = random_items(int(rng.integers(0, 8)), later)
        for it in added:
            groups.add(it)
        for it in kept[::4]:
            groups.remove(it)
        kept = [it for i, it in enumerate(kept) if i % 4] + added
        later += float(rng.integers(1, 5))
        assert_summary(groups, kept, later)


CHANGED_CATALOG = {
    "vnfs": {"WO": {"proc_time": 0.37}, "NAT": {"proc_time": 0.013}},
    "sfcs": {"MIoT": {"chain": ["WO", "NAT", "TM", "FW", "WO", "IDPS", "VOC"]},
             "Ind4.0": {"chain": ["TM"]}},
}


@pytest.mark.parametrize("catalog", [default_catalog(),
                                     catalog_from_config(CHANGED_CATALOG)],
                         ids=["default", "changed_chain"])
def test_chain_tables_match_property_formulas(catalog):
    for sfc in catalog.sfcs.values():
        n = len(sfc.chain)
        assert len(sfc.next_vnfs) == len(sfc.remaining_proc) \
            == len(sfc.completion) == n + 1
        for k in range(n + 1):
            r = SfcRequest(0, sfc, 1.0, 0, 1, next_vnf_index=k)
            assert sfc.next_vnfs[k] == ref_next_vnf(r)
            assert sfc.remaining_proc[k] == ref_remaining_proc_time(r)
            assert sfc.completion[k] == ref_completion_fraction(r)
            assert r.next_vnf == ref_next_vnf(r)
        assert sfc.next_vnfs[n] is None and r.next_vnf is None
    assert len(catalog_from_config(CHANGED_CATALOG).sfcs["MIoT"].completion) == 8


def test_chain_tables_leave_equality_and_hash_alone():
    a, b = default_catalog(), default_catalog()
    assert a == b
    for name in SFC_ORDER:
        sfc = a.sfcs[name]
        assert sfc == b.sfcs[name] and hash(sfc) == hash(b.sfcs[name])
        # the hash covers the constructor fields only
        assert hash(sfc) == hash((sfc.name, sfc.chain, sfc.bandwidth,
                                  sfc.e2e_tolerance, sfc.bundle_range))
    assert "remaining_proc" not in repr(a.sfcs["CG"])
