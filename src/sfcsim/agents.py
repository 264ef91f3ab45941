"""Per-cluster local agents (DRL-driven provisioning with priority-point
allocation) and the general agent (setup, path assistance, overflow transfer,
metrics collection)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import routing
from .drl import PendingItem, QNetwork, StateEncoding, StateView, encode_state
from .routing import RouteCounters
from .topology import ClusterPartition, NetworkGraph, make_clusters
# stays importable here: perfbench's tracer wraps agents.cluster_adjacency
from .topology import cluster_adjacency  # noqa: F401
from .workload import SfcRequest, VNF_ORDER

REWARD_ACCEPT = 2.0
REWARD_DROP = -1.5
REWARD_UNINSTALL_NEEDED = -0.5
REWARD_INVALID = -1.0

ACTION_IDLE = 2 * len(VNF_ORDER)  # action 12: wait for the next step

TASK_ALLOC = "alloc"
TASK_TRANSFER = "transfer"
TASK_DELIVERY = "delivery"


@dataclass
class AssistTask:
    kind: str
    request: SfcRequest
    instance: object = None  # VnfInstance for TASK_ALLOC


@dataclass
class ActionOutcome:
    action: int
    reward: float
    accepted_sfc: bool = False
    dropped_sfc: bool = False
    invalid: bool = False
    uninstalled_needed: bool = False
    request: SfcRequest | None = None  # the request this action allocated


@dataclass
class LocalAgent:
    cluster_id: int
    dc_ids: list[int]
    policy: QNetwork
    cursor: int = 0
    queue: list[SfcRequest] = field(default_factory=list)
    outbox: list[AssistTask] = field(default_factory=list)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    reward_total: float = 0.0
    last_scope_scan: float = -1.0  # sim time of the last outbox scan

    def dc_set(self) -> set[int]:
        return set(self.dc_ids)


class GeneralAgent:
    """Coordinator: owns the partition, inter-cluster routing, overflow
    transfers, and system-wide bookkeeping."""

    def __init__(self, graph: NetworkGraph, partition: ClusterPartition,
                 local_agents: dict[int, LocalAgent]):
        self.graph = graph
        self.partition = partition
        self.local_agents = local_agents
        self.cluster_graph = routing.routing_tables(partition).adjacency
        self.counters = RouteCounters()
        self.handoff_log: list[tuple] = []
        # (cluster, sfc name) -> [generated, accepted, dropped]
        self.stats: dict[tuple[int, str], list[int]] = {}

    def stat(self, cluster: int, sfc_name: str) -> list[int]:
        return self.stats.setdefault((cluster, sfc_name), [0, 0, 0])

    def agent_of_dc(self, dc_id: int) -> LocalAgent:
        return self.local_agents[self.partition.cluster_of(dc_id)]


def setup(graph: NetworkGraph, size_limit: int, seed: int,
          policy: QNetwork) -> GeneralAgent:
    """Partition the network and register one local agent per cluster.

    All local agents share the policy network (architecture invariance makes
    one weight set applicable to every cluster)."""
    partition = make_clusters(graph, size_limit, seed)
    agents = {c: LocalAgent(c, list(partition.clusters[c]), policy)
              for c in sorted(partition.clusters)}
    return GeneralAgent(graph, partition, agents)


def priority_rank(pending: list[SfcRequest], now: float) -> list[SfcRequest]:
    """Order same-type pending VNFs by urgency.

    Priority = 1 - slack/tolerance where slack discounts accrued delay, time
    already spent waiting, and a lower bound on the remaining processing work.
    Ties break by arrival time, then request id."""
    def key(r: SfcRequest):
        slack = r.remaining_tolerance(now) - r.remaining_proc_time
        return (slack / r.sfc_type.e2e_tolerance, r.arrival, r.id)
    return sorted(pending, key=key)


def build_state_view(agent: LocalAgent, world, current_dc: int) -> StateView:
    now = world.clock.now
    sub = world.substrate
    items_cluster = []
    items_local = []
    out_count = 0
    for r in agent.queue:
        item = PendingItem(r.sfc_type.name, r.remaining_tolerance(now),
                           r.bandwidth, r.completion_fraction, r.next_vnf.name)
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
    idle = {v: len(sub.idle_instances(current_dc, v, now)) for v in VNF_ORDER}
    return StateView(
        items_local=items_local,
        items_cluster=items_cluster,
        installed=installed,
        idle=idle,
        free_fracs=free,
        transfer_pending=bool(agent.outbox),
        out_of_cluster_frac=out_count / len(agent.queue) if agent.queue else 0.0,
    )


def _scan_scope(agent: LocalAgent, world) -> None:
    """Move requests the agent cannot serve into the assist outbox."""
    now = world.clock.now
    keep = []
    for r in agent.queue:
        vnf = r.next_vnf
        if vnf is not None and not world.substrate.cluster_can_host(
                agent.dc_ids, vnf, now):
            agent.outbox.append(AssistTask(TASK_TRANSFER, r))
        else:
            keep.append(r)
    agent.queue[:] = keep


def _try_allocate(agent: LocalAgent, world, instance, now: float) -> dict | None:
    """Allocate the top-priority pending VNF of the instance's type, routing the
    packet to the instance's DC. Cross-cluster packet locations defer to the
    general agent. Returns the allocation result dict, or None."""
    vname = instance.vnf_type.name
    pending = [r for r in agent.queue
               if r.next_vnf is not None and r.next_vnf.name == vname]
    for r in priority_rank(pending, now):
        if r.loc in agent.dc_set():
            path = routing.d2d_shortest_path(
                agent.dc_ids, world.graph, world.substrate.link_free,
                r.loc, instance.dc, r.bandwidth, world.general.counters)
            if path is None:
                continue
            agent.queue.remove(r)
            result = world.perform_allocation(agent, r, instance, path, now)
            result["request"] = r
            return result
        # packet sits outside the cluster (post-transfer): general agent routes
        agent.queue.remove(r)
        instance.reserved = True
        agent.outbox.append(AssistTask(TASK_ALLOC, r, instance))
        return {"pending_path": True, "request": r}
    return None


def _execute_action(agent: LocalAgent, world, current_dc: int,
                    action: int) -> ActionOutcome:
    now = world.clock.now
    sub = world.substrate
    nv = len(VNF_ORDER)

    if action == ACTION_IDLE:  # wait: no change until the next step
        return ActionOutcome(action, 0.0)

    if action < nv:  # place / reuse a VNFI of this type at the current DC
        vnf = world.catalog.vnfs[VNF_ORDER[action]]
        # priority points are assigned over pending VNFs of the selected type
        # before execution; with no such VNF the action cannot be carried out
        if not any(r.next_vnf is not None and r.next_vnf.name == vnf.name
                   for r in agent.queue):
            return ActionOutcome(action, REWARD_INVALID, invalid=True)
        idle = sub.idle_instances(current_dc, vnf.name, now)
        if idle:
            instance = idle[0]
        elif sub.can_place(current_dc, vnf):
            instance = sub.place_vnf(current_dc, vnf)
        else:
            return ActionOutcome(action, REWARD_INVALID, invalid=True)
        result = _try_allocate(agent, world, instance, now) or {}
        # accept/drop rewards are credited by the world's event bookkeeping to
        # the transition of the action that allocated the request
        return ActionOutcome(action, 0.0,
                             accepted_sfc=bool(result.get("accepted")),
                             dropped_sfc=bool(result.get("dropped")),
                             request=result.get("request"))

    # uninstall an idle VNFI of this type from the current DC
    vnf = world.catalog.vnfs[VNF_ORDER[action - nv]]
    idle = sub.idle_instances(current_dc, vnf.name, now)
    if not idle:
        return ActionOutcome(action, REWARD_INVALID, invalid=True)
    needed = any(r.next_vnf is not None and r.next_vnf.name == vnf.name
                 for r in agent.queue)
    result = sub.uninstall_vnf(idle[0], now, needed=needed)
    if not result.removed:
        return ActionOutcome(action, REWARD_INVALID, invalid=True)
    if result.penalty:
        return ActionOutcome(action, result.penalty, uninstalled_needed=True)
    return ActionOutcome(action, 0.0)


def local_step(agent: LocalAgent, world, now: float, epsilon: float,
               rng: np.random.Generator, record_states: bool = False
               ) -> tuple[int, ActionOutcome, StateEncoding | None,
                          StateEncoding | None]:
    """One agent action: scope scan (once per step), DC cursor advance,
    epsilon-greedy action, execution. Status -1 signals queued general-agent
    assistance. State encodings are returned only when recording transitions
    or when the greedy branch needed one."""
    if agent.last_scope_scan != now:
        _scan_scope(agent, world)
        agent.last_scope_scan = now
    current_dc = agent.dc_ids[agent.cursor % len(agent.dc_ids)]
    agent.cursor += 1
    # same draw order as drl.act, but the encoding is skipped when exploring
    # and no transition is being recorded
    state = None
    if rng.random() < epsilon:
        action = int(rng.integers(agent.policy.config.action_count))
        if record_states:
            state = encode_state(build_state_view(agent, world, current_dc),
                                 world.catalog)
    else:
        state = encode_state(build_state_view(agent, world, current_dc),
                             world.catalog)
        action = int(np.argmax(agent.policy.forward(state)))
    outcome = _execute_action(agent, world, current_dc, action)
    agent.reward_total += outcome.reward  # accept/drop credited by the world
    next_state = None
    if record_states:
        next_state = encode_state(build_state_view(agent, world, current_dc),
                                  world.catalog)
    status = -1 if agent.outbox else 0
    return status, outcome, state, next_state


def _cluster_free_vcpu(world, cluster: int) -> float:
    return sum(world.substrate.dcs[d].free_vcpu
               for d in world.partition.clusters[cluster])


def _pick_transfer_target(general: GeneralAgent, world, from_cluster: int,
                          request: SfcRequest, now: float) -> int | None:
    vnf = request.next_vnf
    candidates = [c for c in general.partition.clusters
                  if c != from_cluster and world.substrate.cluster_can_host(
                      general.partition.clusters[c], vnf, now)]
    if not candidates:
        return None
    adjacent = [c for c in candidates
                if c in general.cluster_graph.get(from_cluster, [])]
    pool = adjacent or candidates
    return max(pool, key=lambda c: (_cluster_free_vcpu(world, c), -c))


def assist(general: GeneralAgent, world, now: float) -> None:
    """Drain every agent's outbox in FIFO order by (agent id, arrival)."""
    for cid in sorted(general.local_agents):
        agent = general.local_agents[cid]
        tasks, agent.outbox = agent.outbox, []
        for task in tasks:
            r = task.request
            if task.kind == TASK_ALLOC:
                path = routing.find_path(
                    general.partition, general.graph, world.substrate.link_free,
                    r.loc, task.instance.dc, r.bandwidth, general.counters)
                if path is None:
                    task.instance.reserved = False
                    agent.queue.append(r)
                else:
                    world.perform_allocation(agent, r, task.instance, path, now)
            elif task.kind == TASK_TRANSFER:
                target = _pick_transfer_target(general, world, cid, r, now)
                if target is None:
                    world.drop_request(r, now, "no-cluster-can-host")
                else:
                    general.local_agents[target].queue.append(r)
                    general.handoff_log.append((r.id, cid, target, now))
            elif task.kind == TASK_DELIVERY:
                path = routing.find_path(
                    general.partition, general.graph, world.substrate.link_free,
                    r.loc, r.dest_dc, r.bandwidth, general.counters)
                if path is None:
                    world.drop_request(r, now, "delivery-unroutable")
                else:
                    world.finish_delivery(r, path, now)


def collect(general: GeneralAgent) -> dict:
    """Pure read of system-wide statistics."""
    per_agent = {}
    for cid, agent in sorted(general.local_agents.items()):
        accepted = sum(v[1] for (c, _), v in general.stats.items() if c == cid)
        dropped = sum(v[2] for (c, _), v in general.stats.items() if c == cid)
        per_agent[cid] = {
            "dcs": list(agent.dc_ids),
            "queued": len(agent.queue),
            "accepted": accepted,
            "dropped": dropped,
            "reward_total": agent.reward_total,
        }
    return {
        "per_agent": per_agent,
        "per_type": {f"{c}:{s}": list(v)
                     for (c, s), v in sorted(general.stats.items())},
        "handoffs": len(general.handoff_log),
        "dijkstra_max_settled": general.counters.max_settled,
        "dijkstra_calls": len(general.counters.dijkstra_settled),
    }
