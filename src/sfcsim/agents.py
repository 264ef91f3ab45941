"""Per-cluster local agents (DRL-driven provisioning with priority-point
allocation) and the general agent (setup, path assistance, overflow transfer,
cross-cluster delivery)."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import routing
from .drl import (PendingItem, QNetwork, SfcGroups, StateEncoding, StateView,
                  encode_state)
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
    invalid: bool = False
    request: SfcRequest | None = None  # the request this action allocated


class StepView:
    """An agent's queue as its state view reads it, built by the scope scan
    (`_scan_scope`) when `run_step` starts the agent's turn. Within the turn
    `now` is fixed, so each queued request's PendingItem is too, and the
    agent's own takes, made through this view, are the only changes to the
    queue: it only shrinks. The scan's one pass over the queue hands over the
    items, made once per queue stay and with their slack refreshed for this
    step, grouped per SFC type for the cluster and for each DC where packets
    wait; a VNF type's ranked list of waiting requests is built the first
    time the turn asks for it. A take keeps all of them current."""

    def __init__(self, now: float, queue: list[SfcRequest],
                 cluster: SfcGroups, local: dict[int, SfcGroups],
                 out_count: int):
        self.now = now
        self.queue = queue  # the agent's queue; each request holds its item
        self.cluster = cluster
        self._local = local  # DC -> items of the requests whose packet is there
        self.out_count = out_count  # requests bound for a DC outside the cluster
        # VNF type -> the queued requests waiting for it, by priority
        self._ranked: dict[str, list[SfcRequest]] = {}

    def local(self, dc: int) -> SfcGroups:
        """The items of the requests whose packet is at `dc`, as the scan
        grouped them; empty groups for a DC where no packet waits."""
        groups = self._local.get(dc)
        if groups is None:
            groups = self._local[dc] = SfcGroups({})
        return groups

    def ranked(self, vnf_name: str) -> list[SfcRequest]:
        """The queued requests waiting for `vnf_name` in priority order,
        ranked at the first call in the turn; the keys do not change within
        it. Empty, without ranking, when no request waits for the type."""
        ranked = self._ranked.get(vnf_name)
        if ranked is None:
            waiting = [r for r in self.queue
                       if r.item.next_vnf_name == vnf_name]
            ranked = self._ranked[vnf_name] = (
                priority_rank(waiting, self.now) if waiting else waiting)
        return ranked

    def take(self, r: SfcRequest) -> None:
        """Remove a request the agent allocates from the queue, from its
        item's groups (its DC's too, whether or not the turn has read them)
        and from its ranked list."""
        self.queue.remove(r)
        item = r.item
        self.cluster.remove(item)
        self._local[r.loc].remove(item)
        ranked = self._ranked.get(item.next_vnf_name)
        if ranked is not None:
            ranked.remove(r)
        if item.out_of_cluster:
            self.out_count -= 1


@dataclass
class LocalAgent:
    cluster_id: int
    dc_ids: list[int]
    policy: QNetwork
    rng: np.random.Generator
    cursor: int = 0
    queue: list[SfcRequest] = field(default_factory=list)
    outbox: list[AssistTask] = field(default_factory=list)
    reward_total: float = 0.0
    # the agent's turn in a step: run_step builds it by the scope scan before
    # the step's first round and drops it after the last, so it is None
    # outside the agent phase; _execute_action and build_state_view read it,
    # and the turn's takes go through it
    view: StepView | None = field(default=None, repr=False)


class GeneralAgent:
    """Coordinator: owns the partition, inter-cluster routing, overflow
    transfers and cross-cluster deliveries, with their routing counters and
    handoff log."""

    def __init__(self, partition: ClusterPartition,
                 local_agents: dict[int, LocalAgent]):
        self.partition = partition
        self.local_agents = local_agents
        self.counters = RouteCounters()
        self.handoff_log: list[tuple] = []

    def agent_of_dc(self, dc_id: int) -> LocalAgent:
        return self.local_agents[self.partition.cluster_of(dc_id)]


def setup(graph: NetworkGraph, size_limit: int, seed: int,
          policy: QNetwork) -> GeneralAgent:
    """Partition the network and register one local agent per cluster.

    All local agents share the policy network (architecture invariance makes
    one weight set applicable to every cluster). Each agent explores with
    its own generator, drawn from the episode seed and its cluster id."""
    partition = make_clusters(graph, size_limit, seed)
    agents = {c: LocalAgent(c, list(partition.clusters[c]), policy,
                            np.random.default_rng([seed, 2, c]))
              for c in sorted(partition.clusters)}
    return GeneralAgent(partition, agents)


def priority_rank(pending: list[SfcRequest], now: float) -> list[SfcRequest]:
    """Order same-type pending VNFs by urgency.

    Priority = 1 - slack/tolerance where slack discounts accrued delay, time
    already spent waiting, and a lower bound on the remaining processing work.
    Ties break by request id."""
    def key(r: SfcRequest):
        t = r.sfc_type
        waited = now - r.ready_time
        # tolerance - accrued delay - time waited - remaining processing
        slack = (t.e2e_tolerance - (r.propagation_total + r.processing_total)
                 - (waited if waited > 0.0 else 0.0)
                 - t.remaining_proc[r.next_vnf_index])
        return (slack / t.e2e_tolerance, r.id)
    return sorted(pending, key=key)


def build_state_view(agent: LocalAgent, world, current_dc: int) -> StateView:
    view = agent.view
    dc = world.substrate.dcs[current_dc]
    free = (dc.free_vcpu / dc.spec.compute_cap,
            dc.free_ram / dc.spec.ram_cap,
            dc.free_storage / dc.spec.storage_cap)
    installed = {}
    idle = {}
    for v in VNF_ORDER:
        instances = dc.installed.get(v)
        if instances:
            installed[v] = len(instances)
            idle[v] = sum(1 for i in instances if i.is_idle())
        else:  # most types have no instance at a DC
            installed[v] = idle[v] = 0
    return StateView(
        items_local=view.local(current_dc),
        items_cluster=view.cluster,
        installed=installed,
        idle=idle,
        free_fracs=free,
        transfer_pending=bool(agent.outbox),
        out_of_cluster_frac=(view.out_count / len(agent.queue)
                             if agent.queue else 0.0),
    )


def _scan_scope(agent: LocalAgent, world) -> None:
    """Start the agent's turn in one pass over its queue: move each request
    whose next VNF the cluster cannot host into the assist outbox, and build
    the turn's view of the rest. A request's PendingItem is made only when
    its stamp shows a new queue stay (another cluster or chain position; its
    accrued delay grows only when it is allocated, which also advances its
    chain position); otherwise the item is reused, and a kept request's
    slack is refreshed, as `now` moved. The same pass files the item in its SFC type's groups
    for the cluster and for its packet's DC. The substrate does not change
    during the scan, so each VNF type's hostability is asked once."""
    now = world.now
    cid = agent.cluster_id
    assignment = world.partition.assignment
    hostable: dict[str, bool] = {}  # VNF type name -> can the cluster host it
    keep = []
    cluster: dict[str, list[PendingItem]] = defaultdict(list)
    local: dict[int, dict[str, list[PendingItem]]] = defaultdict(
        lambda: defaultdict(list))
    out_count = 0
    for r in agent.queue:
        item = r.item
        k = r.next_vnf_index
        if item is None or item.chain_pos != k or item.cluster_id != cid:
            t = r.sfc_type
            item = r.item = PendingItem(
                t.name, 0.0, r.bandwidth, t.completion[k], t.next_vnfs[k].name,
                t.e2e_tolerance - (r.propagation_total + r.processing_total),
                assignment[r.dest_dc] != cid, cid, k)
        name = item.next_vnf_name
        ok = hostable.get(name)
        if ok is None:
            ok = hostable[name] = world.substrate.cluster_can_host(
                agent.dc_ids, r.next_vnf)
        if not ok:
            agent.outbox.append(AssistTask(TASK_TRANSFER, r))
            continue
        keep.append(r)
        waited = now - r.ready_time
        # the conditional is max(0.0, waited) without the call
        item.remaining_ms = item.base_ms - (waited if waited > 0.0 else 0.0)
        cluster[item.sfc_name].append(item)
        local[r.loc][item.sfc_name].append(item)
        if item.out_of_cluster:
            out_count += 1
    agent.queue[:] = keep
    agent.view = StepView(
        now, agent.queue, SfcGroups(cluster),
        {dc: SfcGroups(groups) for dc, groups in local.items()},
        out_count)


def _try_allocate(agent: LocalAgent, world, instance,
                  now: float) -> SfcRequest | None:
    """Allocate the top-priority queued request waiting for the instance's
    type, routing the packet to the instance's DC. Cross-cluster packet
    locations defer to the general agent. Returns the request taken from the
    queue, or None."""
    for r in agent.view.ranked(instance.vnf_type.name):
        if world.partition.cluster_of(r.loc) == agent.cluster_id:
            path = routing.d2d_shortest_path(
                world.partition.cluster_tables[agent.cluster_id],
                world.substrate.link_free, r.loc, instance.dc, r.bandwidth,
                world.general.counters)
            if path is None:
                continue
            agent.view.take(r)
            world.perform_allocation(r, instance, path, now)
            return r
        # packet sits outside the cluster (post-transfer): general agent routes
        agent.view.take(r)
        instance.reserved = True
        agent.outbox.append(AssistTask(TASK_ALLOC, r, instance))
        return r
    return None


def _execute_action(agent: LocalAgent, world, current_dc: int,
                    action: int) -> ActionOutcome:
    now = world.now
    sub = world.substrate
    nv = len(VNF_ORDER)

    if action == ACTION_IDLE:  # wait: no change until the next step
        return ActionOutcome(action, 0.0)

    if action < nv:  # place / reuse a VNFI of this type at the current DC
        vnf = world.catalog.vnfs[VNF_ORDER[action]]
        # priority points are assigned over pending VNFs of the selected type
        # before execution; with no such VNF the action cannot be carried out
        if not agent.view.ranked(vnf.name):
            return ActionOutcome(action, REWARD_INVALID, invalid=True)
        idle = sub.idle_instances(current_dc, vnf.name)
        if idle:
            instance = idle[0]
        elif sub.can_place(current_dc, vnf):
            instance = sub.place_vnf(current_dc, vnf)
        else:
            return ActionOutcome(action, REWARD_INVALID, invalid=True)
        # accept/drop rewards are credited by the world's event bookkeeping to
        # the transition of the action that allocated the request
        return ActionOutcome(
            action, 0.0,
            request=_try_allocate(agent, world, instance, now))

    # uninstall an idle VNFI of this type from the current DC
    vnf = world.catalog.vnfs[VNF_ORDER[action - nv]]
    idle = sub.idle_instances(current_dc, vnf.name)
    if not idle:
        return ActionOutcome(action, REWARD_INVALID, invalid=True)
    sub.uninstall_vnf(idle[0])
    return ActionOutcome(action, REWARD_UNINSTALL_NEEDED
                         if agent.view.ranked(vnf.name) else 0.0)


def begin_action(agent: LocalAgent, world) -> tuple[int, StateEncoding]:
    """The agent's part of a round before its epsilon-greedy draw, within a
    turn that `run_step` started: DC cursor advance and state encoding.
    Returns the action's DC and its state."""
    current_dc = agent.dc_ids[agent.cursor % len(agent.dc_ids)]
    agent.cursor += 1
    return current_dc, encode_state(build_state_view(agent, world, current_dc),
                                    world.catalog)


def local_step(agent: LocalAgent, world, current_dc: int, action: int,
               state: StateEncoding | None = None, record_states: bool = False
               ) -> tuple[int, ActionOutcome, StateEncoding | None,
                          StateEncoding | None]:
    """Execute one agent action that `begin_action` and `act` chose at
    `current_dc`. Returns (status, outcome, state, next_state): status -1
    signals queued general-agent assistance, and the state after the action
    is encoded only when recording transitions. An invalid or idle action
    changes nothing the state reads, so its next state is `state` itself."""
    outcome = _execute_action(agent, world, current_dc, action)
    agent.reward_total += outcome.reward  # accept/drop credited by the world
    if not record_states:
        next_state = None
    elif outcome.invalid or action == ACTION_IDLE:
        next_state = state
    else:
        next_state = encode_state(build_state_view(agent, world, current_dc),
                                  world.catalog)
    status = -1 if agent.outbox else 0
    return status, outcome, state, next_state


def _cluster_free_vcpu(world, cluster: int) -> float:
    return sum(world.substrate.dcs[d].free_vcpu
               for d in world.partition.clusters[cluster])


def _pick_transfer_target(general: GeneralAgent, world, from_cluster: int,
                          request: SfcRequest) -> int | None:
    vnf = request.next_vnf
    candidates = [c for c in general.partition.clusters
                  if c != from_cluster and world.substrate.cluster_can_host(
                      general.partition.clusters[c], vnf)]
    if not candidates:
        return None
    neighbors = general.partition.adjacency[from_cluster]
    adjacent = [c for c in candidates if c in neighbors]
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
                    general.partition, world.substrate.link_free, r.loc,
                    task.instance.dc, r.bandwidth, general.counters)
                if path is None:
                    task.instance.reserved = False
                    agent.queue.append(r)  # turns are over: no view to update
                else:
                    world.perform_allocation(r, task.instance, path, now)
            elif task.kind == TASK_TRANSFER:
                target = _pick_transfer_target(general, world, cid, r)
                if target is None:
                    world.drop_request(r, now, "no-cluster-can-host")
                else:
                    general.local_agents[target].queue.append(r)
                    general.handoff_log.append((r.id, cid, target, now))
            elif task.kind == TASK_DELIVERY:
                world.deliver(r, now)
