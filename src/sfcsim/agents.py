"""Per-cluster local agents (DRL-driven provisioning with priority-point
allocation) and the general agent (setup, path assistance, overflow transfer,
cross-cluster delivery)."""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import routing
from .drl import QNetwork, SfcGroups, StateEncoding, StateView, encode_state
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


@dataclass
class LocalAgent:
    cluster_id: int
    dc_ids: list[int]
    policy: QNetwork
    rng: np.random.Generator
    cursor: int = 0
    # the queue and its index, kept across steps: `file` adds a request when
    # it joins the queue and `unfile` removes it when it leaves; each dict is
    # insertion ordered, so it holds its requests or items in queue order
    queue: dict[SfcRequest, int] = field(default_factory=dict)  # -> join seq
    cluster: SfcGroups = field(default_factory=SfcGroups, repr=False)
    # DC -> the items of the queued requests whose packet waits there
    local: defaultdict[int, SfcGroups] = field(
        default_factory=lambda: defaultdict(SfcGroups), repr=False)
    # VNF type name -> the queued requests waiting for it
    waiting: defaultdict[str, dict[SfcRequest, None]] = field(
        default_factory=lambda: defaultdict(dict), repr=False)
    out_count: int = 0  # queued requests bound for a DC outside the cluster
    # a heap of (due step, join seq, request), one entry per join; an entry
    # whose seq is not its request's in the queue is stale: the request left
    # or joined again, and `falling_due` skips it
    due: list[tuple[float, int, SfcRequest]] = field(default_factory=list,
                                                     repr=False)
    # the turn's ranked list of each VNF type it asked for: `_scan_scope`
    # empties it when it starts the turn, and `take` keeps it current
    ranked_lists: dict[str, list[SfcRequest]] = field(default_factory=dict,
                                                      repr=False)
    outbox: list[AssistTask] = field(default_factory=list)
    reward_total: float = 0.0

    def file(self, r: SfcRequest, seq: int) -> None:
        """Add `r`, whose item is its current stay's, at the tail of the queue,
        of its groups for the cluster and for its packet's DC and of its next
        VNF type's waiting list, and push it on the due heap. `seq` orders
        the joins of all queues."""
        item = r.item
        self.queue[r] = seq
        self.cluster.add(item)
        self.local[r.loc].add(item)
        self.waiting[item.next_vnf_name][r] = None
        self.out_count += item.out_of_cluster
        heapq.heappush(self.due, (item.due, seq, r))

    def unfile(self, r: SfcRequest) -> None:
        """Remove `r` from the queue and from everything `file` added it to
        but the due heap, whose entry goes stale."""
        del self.queue[r]
        item = r.item
        self.cluster.remove(item)
        self.local[r.loc].remove(item)
        del self.waiting[item.next_vnf_name][r]
        self.out_count -= item.out_of_cluster

    def falling_due(self, now: float) -> list[SfcRequest]:
        """The queued requests whose stays fall due at a step up to `now`,
        in queue order. Their entries leave the heap, so the caller unfiles
        every request returned."""
        heap = self.due
        due: list[SfcRequest] = []
        while heap and heap[0][0] <= now:
            _, seq, r = heapq.heappop(heap)
            if self.queue.get(r) == seq:
                due.append(r)
        due.sort(key=self.queue.__getitem__)  # by join
        return due

    def ranked(self, vnf_name: str, now: float) -> list[SfcRequest]:
        """The queued requests waiting for `vnf_name` in priority order at the
        turn's step `now`, ranked at the turn's first call from the type's
        waiting list; the keys do not change within it. Empty, without
        ranking, when no request waits for the type."""
        ranked = self.ranked_lists.get(vnf_name)
        if ranked is None:
            waiting = self.waiting.get(vnf_name)
            ranked = self.ranked_lists[vnf_name] = (
                priority_rank(list(waiting), now) if waiting else [])
        return ranked

    def take(self, r: SfcRequest) -> None:
        """Unfile a request the turn allocates and remove it from its ranked
        list. Within a turn the agent's takes are the only changes to its
        queue."""
        self.unfile(r)
        ranked = self.ranked_lists.get(r.item.next_vnf_name)
        if ranked is not None:
            ranked.remove(r)


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
    its own generator, drawn from the episode seed and its cluster id. The
    agents are registered in ascending cluster id, the order in which every
    per-agent pass of a step and of the report visits them."""
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
    dc = world.substrate.dcs[current_dc]
    spec = dc.spec
    return StateView(
        items_local=agent.local[current_dc],
        items_cluster=agent.cluster,
        installed=dc.installed_counts,
        idle=dc.idle,
        free_fracs=(dc.free_vcpu / spec.compute_cap,
                    dc.free_ram / spec.ram_cap,
                    dc.free_storage / spec.storage_cap),
        transfer_pending=bool(agent.outbox),
        out_of_cluster_frac=(agent.out_count / len(agent.queue)
                             if agent.queue else 0.0),
        now=world.now,
    )


def _scan_scope(agent: LocalAgent, world) -> None:
    """Start the agent's turn: empty its ranked lists and move each queued
    request whose next VNF the cluster cannot host into the assist outbox,
    in queue order. The queue's index is kept across steps, so the scan
    reads no request it keeps: it asks hostability once per VNF type that
    requests wait for (the substrate does not change during the scan) and
    touches only the waiting requests of the types the cluster cannot host."""
    agent.ranked_lists.clear()
    moved: list[SfcRequest] = []
    for name, waiting in agent.waiting.items():
        if waiting and not world.substrate.cluster_can_host(
                agent.dc_ids, world.catalog.vnfs[name]):
            moved.extend(waiting)
    if moved:
        moved.sort(key=agent.queue.__getitem__)  # by join: queue order
        for r in moved:
            agent.unfile(r)
            agent.outbox.append(AssistTask(TASK_TRANSFER, r))


def _try_allocate(agent: LocalAgent, world, instance,
                  now: float) -> SfcRequest | None:
    """Allocate the top-priority queued request waiting for the instance's
    type, routing the packet to the instance's DC. Cross-cluster packet
    locations defer to the general agent. Returns the request taken from the
    queue, or None."""
    for r in agent.ranked(instance.vnf_type.name, now):
        if world.partition.cluster_of(r.loc) == agent.cluster_id:
            path = routing.d2d_shortest_path(
                world.partition.cluster_tables[agent.cluster_id],
                world.substrate.link_free, r.loc, instance.dc, r.bandwidth,
                world.general.counters)
            if path is None:
                continue
            agent.take(r)
            world.perform_allocation(r, instance, path, now)
            return r
        # packet sits outside the cluster (post-transfer): general agent routes
        agent.take(r)
        world.substrate.reserve_instance(instance)
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
        if not agent.ranked(vnf.name, now):
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
                         if agent.ranked(vnf.name, now) else 0.0)


def begin_action(agent: LocalAgent, world, row: np.ndarray
                 ) -> tuple[int, StateEncoding]:
    """The agent's part of a round before its epsilon-greedy draw, within a
    turn that `run_step` started: DC cursor advance and state encoding into
    `row`, the agent's row of the round's matrix. Returns the action's DC and
    its state."""
    current_dc = agent.dc_ids[agent.cursor % len(agent.dc_ids)]
    agent.cursor += 1
    return current_dc, encode_state(build_state_view(agent, world, current_dc),
                                    world.catalog, row)


def local_step(agent: LocalAgent, world, current_dc: int, action: int,
               state: StateEncoding | None = None, record_states: bool = False
               ) -> tuple[int, ActionOutcome, StateEncoding | None,
                          StateEncoding | None]:
    """Execute one agent action that `begin_action` and `act` chose at
    `current_dc`, in the turn `_scan_scope` started; a take keeps the turn's
    ranked lists current. Returns (status, outcome, state, next_state): status -1
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
    for cid, agent in general.local_agents.items():
        tasks, agent.outbox = agent.outbox, []
        for task in tasks:
            r = task.request
            if task.kind == TASK_ALLOC:
                path = routing.find_path(
                    general.partition, world.substrate.link_free, r.loc,
                    task.instance.dc, r.bandwidth, general.counters)
                if path is None:
                    world.substrate.unreserve_instance(task.instance)
                    world.enqueue(agent, r)  # back at the tail, same stay
                else:
                    world.perform_allocation(r, task.instance, path, now)
            elif task.kind == TASK_TRANSFER:
                target = _pick_transfer_target(general, world, cid, r)
                if target is None:
                    world.drop_request(r, now, "no-cluster-can-host")
                else:
                    world.enqueue(general.local_agents[target], r)
                    general.handoff_log.append((r.id, cid, target, now))
            elif task.kind == TASK_DELIVERY:
                world.deliver(r, now)
