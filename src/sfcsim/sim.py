"""Discrete-time engine: 1 ms steps, up to 100 agent actions per step, VNF
processing and inter-DC transfer advancement, deadline judging, the training
and evaluation loops, and report rows."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import agents as agents_mod
from . import drl, routing
from .agents import (AssistTask, GeneralAgent, TASK_DELIVERY, assist,
                     begin_action, local_step, setup)
from .drl import ModelConfig, QNetwork, ReplayMemory
from .routing import PathResult
from .substrate import Substrate, SubstrateError, VnfInstance
from .topology import (NetworkGraph, TopologyConfig, build_network,
                       check_geometry)
from .workload import (ACCEPTED, Catalog, DROPPED, SFC_ORDER, SfcRequest,
                       default_catalog, generate_bundles)

LIGHT_SPEED_KM_PER_MS = 300.0  # optical fiber, 3e8 m/s
STEP_MS = 1.0
ACTION_COST_MS = 0.01  # agent inference budget per action


def propagation_delay(distance_km: float) -> float:
    """Propagation delay in ms for a fiber span of the given length."""
    if distance_km < 0:
        raise ValueError("distance must be non-negative")
    return distance_km / LIGHT_SPEED_KM_PER_MS


@dataclass
class SimConfig:
    actions_per_step: int = 100
    max_steps: int = 500
    # training-only shaping credited to recorded transitions whose action
    # allocated a VNF; reported episode rewards never include it
    alloc_bonus: float = 1.0
    # training-only symmetric clip on recorded rewards; keeps lumped drop
    # penalties from drowning per-action reward differences
    reward_clip: float = 2.0

    def __post_init__(self):
        for name in ("actions_per_step", "max_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"sim.{name} must be at least 1, "
                                 f"got {getattr(self, name)}")
        if self.actions_per_step * ACTION_COST_MS > STEP_MS + 1e-12:
            raise ValueError("actions per step exceed the step budget")
        if not self.reward_clip >= 0:  # also NaN
            raise ValueError(f"sim.reward_clip must be non-negative, "
                             f"got {self.reward_clip}")
        if not math.isfinite(self.alloc_bonus):
            raise ValueError(f"sim.alloc_bonus must be finite, "
                             f"got {self.alloc_bonus}")


def recompute_ledger(request: SfcRequest) -> tuple[float, float]:
    """Re-derive (propagation, processing) totals from the per-hop log."""
    prop = 0.0
    proc = 0.0
    for entry in request.hop_log:
        if entry[0] == "prop":
            prop += entry[4]
        elif entry[0] == "proc":
            proc += entry[2] + entry[3]
    return prop, proc


class World:
    """Owns the simulated time, the substrate, the agents, and all in-flight
    events."""

    def __init__(self, graph: NetworkGraph, general: GeneralAgent,
                 substrate: Substrate, catalog: Catalog, config: SimConfig):
        self.graph = graph
        self.general = general
        self.partition = general.partition
        self.substrate = substrate
        self.catalog = catalog
        self.config = config
        self.now = 0.0  # ms, advanced by STEP_MS at the end of each step
        self._seq = 0
        self.processing: list[tuple[float, int, VnfInstance, SfcRequest]] = []
        self.bw_releases: list[tuple[float, int, int]] = []  # (time, seq, request id)
        self.requests: list[SfcRequest] = []
        self.terminal_count = 0
        self.transitions: dict[int, list] = {c: [] for c in general.local_agents}
        # request id -> transition record of the action that last allocated it,
        # so that accept/drop rewards land on the causing action's transition
        self.credit_map: dict[int, list] = {}
        self.pending_credit: list[tuple[int, float]] = []
        self.orphan_credit: dict[int, float] = {c: 0.0 for c in general.local_agents}

    # ---- workload wiring --------------------------------------------------

    def admit(self, requests: list[SfcRequest]) -> None:
        for r in requests:
            cluster = self.partition.cluster_of(r.source_dc)
            r.origin_cluster = cluster
            self.general.local_agents[cluster].queue.append(r)
            self.requests.append(r)

    # ---- event helpers ----------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ---- request lifecycle ------------------------------------------------

    def accept_request(self, request: SfcRequest) -> None:
        if request.status in (ACCEPTED, DROPPED):
            return
        request.status = ACCEPTED
        self.terminal_count += 1
        agent = self.general.local_agents[request.origin_cluster]
        agent.reward_total += agents_mod.REWARD_ACCEPT
        self.pending_credit.append((request.id, agents_mod.REWARD_ACCEPT))

    def drop_request(self, request: SfcRequest, now: float, reason: str) -> None:
        if request.status in (ACCEPTED, DROPPED):
            return
        request.status = DROPPED
        request.drop_reason = reason
        request.drop_time = now
        self.terminal_count += 1
        self.substrate.release_bandwidth(request.id)
        agent = self.general.local_agents[request.origin_cluster]
        agent.reward_total += agents_mod.REWARD_DROP
        if request.id in self.credit_map:
            self.pending_credit.append((request.id, agents_mod.REWARD_DROP))
        else:
            # never allocated: the penalty lands on the originating agent's
            # next recorded transition so that starving a request still hurts
            self.orphan_credit[request.origin_cluster] += agents_mod.REWARD_DROP

    def _flush_credit(self) -> None:
        """Move buffered accept/drop rewards onto the transitions of the
        actions that allocated the corresponding requests."""
        for rid, amount in self.pending_credit:
            record = self.credit_map.get(rid)
            if record is not None:
                record[3] += amount
        self.pending_credit.clear()

    def _transfer(self, request: SfcRequest, path: PathResult,
                  now: float) -> float:
        """Move the packet along `path`: reserve bandwidth on its links until
        the packet arrives and log the propagation delay, which is returned.
        The router admits only links with room for the request and nothing
        changes link state before the transfer, so a routed path always
        reserves; one that does not is a routing fault and raises
        SubstrateError."""
        delay = propagation_delay(path.total_distance)
        if path.links_used:
            if not self.substrate.reserve_bandwidth(path, request):
                raise SubstrateError(
                    f"request {request.id}: routed path {path.hops} cannot "
                    "reserve its bandwidth")
            heapq.heappush(self.bw_releases,
                           (now + delay, self._next_seq(), request.id))
            request.propagation_total += delay
            request.hop_log.append(("prop", path.hops[0], path.hops[-1],
                                    path.total_distance, delay))
        return delay

    def _settle(self, request: SfcRequest, now: float) -> None:
        """Accept a finished request within its tolerance, else drop it."""
        if request.accrued_delay <= request.sfc_type.e2e_tolerance:
            self.accept_request(request)
        else:
            self.drop_request(request, now, "deadline")

    def perform_allocation(self, request: SfcRequest, instance: VnfInstance,
                           path: PathResult, now: float) -> None:
        """Transfer the packet along `path` (if it spans links) and bind the
        instance to the request's next VNF."""
        delay = self._transfer(request, path, now)
        waited = self.substrate.allocate(request, instance, now, delay)
        request.hop_log.append(("proc", instance.dc, waited,
                                instance.vnf_type.proc_time))
        heapq.heappush(self.processing,
                       (instance.busy_until, self._next_seq(), instance, request))
        # the chain completes once processing ends; settle early when the
        # last VNF runs at the destination DC, so no delivery follows
        if request.next_vnf is None and request.dest_dc == instance.dc:
            self._settle(request, now)

    def deliver(self, request: SfcRequest, now: float) -> None:
        """Route a fully processed packet to its destination DC and settle
        it; the last mile may cross clusters."""
        path = routing.find_path(
            self.partition, self.graph, self.substrate.link_free,
            request.loc, request.dest_dc, request.bandwidth,
            self.general.counters)
        if path is None:
            self.drop_request(request, now, "delivery-unroutable")
        else:
            self._transfer(request, path, now)
            request.loc = request.dest_dc
            self._settle(request, now)

    # ---- phase 3 ----------------------------------------------------------

    def _complete_processing(self, now: float) -> None:
        while self.processing and self.processing[0][0] <= now:
            finish, _, instance, request = heapq.heappop(self.processing)
            instance.allocated_request = None
            if request.status in (ACCEPTED, DROPPED):
                continue
            request.loc = instance.dc
            request.ready_time = finish
            agent = self.general.agent_of_dc(request.loc)
            if request.next_vnf is not None:
                agent.queue.append(request)
            elif agent.cluster_id == self.partition.cluster_of(request.dest_dc):
                self.deliver(request, now)
            else:  # the general agent routes the cross-cluster last mile
                agent.outbox.append(AssistTask(TASK_DELIVERY, request))

    def _release_bandwidth(self, now: float) -> None:
        while self.bw_releases and self.bw_releases[0][0] <= now:
            _, _, rid = heapq.heappop(self.bw_releases)
            self.substrate.release_bandwidth(rid)

    def _deadline_scan(self, now: float) -> None:
        """Drop each queued request that cannot finish its chain in budget
        even if every remaining VNF started now."""
        for cid in sorted(self.general.local_agents):
            agent = self.general.local_agents[cid]
            keep = []
            for r in agent.queue:
                t = r.sfc_type
                waited = now - r.ready_time
                # accrued delay + max(0.0, waited) + the remaining processing
                bound = ((r.propagation_total + r.processing_total)
                         + (waited if waited > 0.0 else 0.0)
                         + t.remaining_proc[r.next_vnf_index])
                if bound > t.e2e_tolerance:
                    self.drop_request(r, now, "deadline")
                else:
                    keep.append(r)
            agent.queue[:] = keep

    @property
    def done(self) -> bool:
        return self.terminal_count >= len(self.requests)


def build_world(graph: NetworkGraph, size_limit: int, seed: int,
                policy: QNetwork, catalog: Catalog | None = None,
                config: SimConfig | None = None) -> World:
    catalog = catalog or default_catalog()
    config = config or SimConfig()
    general = setup(graph, size_limit, seed, policy)
    return World(graph, general, Substrate(graph), catalog, config)


def run_step(world: World, epsilon: float, train: bool = False) -> None:
    """One simulation step: agent phase, assist phase, time advance.

    The agent phase runs in rounds of at most one action per agent. In a
    round, each agent that still acts takes its `begin_action` in agent-id
    order, one `act` call picks all their actions with a single batched
    forward pass over the greedy ones, and each agent's `local_step` then
    executes its action, again in agent-id order. An agent leaves the phase
    when its queue and outbox are empty, when its action was invalid or
    idle, or after `actions_per_step` rounds. A local agent's action touches
    only its own queue, outbox, DCs and intra-cluster links, a link's free
    bandwidth is a correctly rounded sum of its reservations, which does not
    depend on their order, and the rewards that settling a request credits
    to its origin agent are multiples of 0.5, which add exactly in any
    order. So the rounds give the same results as running each agent's
    actions in turn.

    In training, the step-end flush moves accept and drop rewards onto the
    records of the actions that allocated the requests. A record takes at
    most one such reward, and no request allocated in the agent phase is
    allocated again within the step, so a flush after every action would
    give the same records."""
    now = world.now
    acting = [a for _, a in sorted(world.general.local_agents.items())
              if a.queue or a.outbox]
    for _ in range(world.config.actions_per_step):
        if not acting:
            break
        begun = [begin_action(agent, world) for agent in acting]
        actions = drl.act(acting[0].policy, [state for _, state in begun],
                          epsilon, [agent.rng for agent in acting])
        still = []
        for agent, (current_dc, state), action in zip(acting, begun, actions):
            status, outcome, state, next_state = local_step(
                agent, world, current_dc, action, state, record_states=train)
            if train:
                cid = agent.cluster_id
                shaped = outcome.reward + world.orphan_credit[cid]
                if outcome.request is not None:
                    shaped += world.config.alloc_bonus
                record = [state, outcome.action, next_state, shaped, False]
                world.orphan_credit[cid] = 0.0
                world.transitions[cid].append(record)
                if outcome.request is not None:
                    world.credit_map[outcome.request.id] = record
            if (outcome.invalid or outcome.action == agents_mod.ACTION_IDLE
                    or not (agent.queue or agent.outbox)):
                # an invalid action stalls the agent until the next step;
                # idling means waiting for the next step by choice
                agent.view = None  # it holds for the agent's turn only
            else:
                still.append(agent)
        acting = still
    for agent in acting:
        agent.view = None
    assist(world.general, world, now)
    world.now += STEP_MS
    now = world.now
    world._release_bandwidth(now)
    world._complete_processing(now)
    world._deadline_scan(now)
    world._flush_credit()


@dataclass
class EpisodeReport:
    scenario_id: str
    seed: int
    dc_count: int
    cluster_limit: int
    cluster_count: int
    scale: float | None  # None: the episode ran given requests
    per_cluster_type: dict[tuple[int, str], tuple[int, int, int]]
    per_type: dict[str, tuple[int, int, int]]  # generated, accepted, dropped
    mean_e2e_ms: dict[str, float | None]
    acceptance_ratio: Fraction | None
    reward_by_agent: dict[int, float]
    steps: int

    @property
    def acceptance_float(self) -> float | None:
        if self.acceptance_ratio is None:
            return None
        return float(self.acceptance_ratio)


def _build_report(world: World, scenario_id: str, seed: int,
                  scale: float | None, steps: int) -> EpisodeReport:
    """The report of a finished episode, read from its settled requests."""
    # (origin cluster, type) and type -> [generated, accepted, dropped]
    per_cluster_type: dict[tuple[int, str], list[int]] = {}
    per_type = {name: [0, 0, 0] for name in SFC_ORDER}
    delays: dict[str, list[float]] = {name: [] for name in SFC_ORDER}
    for r in world.requests:
        name = r.sfc_type.name
        accepted = r.status == ACCEPTED  # else dropped: all have settled
        for counts in (per_cluster_type.setdefault((r.origin_cluster, name),
                                                   [0, 0, 0]),
                       per_type[name]):
            counts[0] += 1
            counts[1 if accepted else 2] += 1
        if accepted:
            delays[name].append(r.accrued_delay)
    total_gen = len(world.requests)
    total_acc = sum(v[1] for v in per_type.values())
    ratio = Fraction(total_acc, total_gen) if total_gen else None
    return EpisodeReport(
        scenario_id=scenario_id,
        seed=seed,
        dc_count=world.graph.dc_count,
        cluster_limit=world.partition.size_limit,
        cluster_count=world.partition.cluster_count,
        scale=scale,
        per_cluster_type={k: tuple(v)
                          for k, v in sorted(per_cluster_type.items())},
        per_type={k: tuple(v) for k, v in per_type.items()},
        mean_e2e_ms={name: sum(d) / len(d) if d else None
                     for name, d in delays.items()},
        acceptance_ratio=ratio,
        reward_by_agent={c: a.reward_total
                         for c, a in sorted(world.general.local_agents.items())},
        steps=steps,
    )


def run_episode(graph: NetworkGraph, size_limit: int, scale: float | None,
                seed: int, policy: QNetwork, epsilon: float = 0.0,
                catalog: Catalog | None = None, config: SimConfig | None = None,
                train: bool = False, scenario_id: str = "episode",
                requests: list[SfcRequest] | None = None,
                step_hook=None) -> tuple[EpisodeReport, World]:
    """Run one episode to completion: every request ends accepted or dropped.
    It generates requests at `scale`, or runs the given `requests`, which
    take no scale."""
    catalog = catalog or default_catalog()
    config = config or SimConfig()
    world = build_world(graph, size_limit, seed, policy, catalog, config)
    if requests is None:
        requests = generate_bundles(catalog, graph, scale,
                                    np.random.default_rng([seed, 1]))
    world.admit(requests)
    steps = 0
    while not world.done and steps < config.max_steps:
        run_step(world, epsilon, train=train)
        steps += 1
        if step_hook is not None:
            step_hook(world)
    # safety net: anything still unresolved at the horizon is dropped (a
    # no-op for settled requests); every effect of a horizon drop is
    # independent of the order of the drops
    for r in world.requests:
        world.drop_request(r, world.now, "horizon")
    for agent in world.general.local_agents.values():
        agent.queue.clear()
        agent.outbox.clear()
    if train:
        world._flush_credit()
        for cid, items in world.transitions.items():
            if items:
                # drop penalties accrued after the agent's last decision still
                # belong to its trajectory: fold them into the terminal record
                items[-1][3] += world.orphan_credit[cid]
                world.orphan_credit[cid] = 0.0
                items[-1][4] = True
    report = _build_report(world, scenario_id, seed, scale, steps)
    return report, world


# ---- training -------------------------------------------------------------

@dataclass
class TrainConfig:
    episodes: int = 600
    dc_choices: tuple[int, ...] = (2, 3, 4)
    size_limit: int = 2
    scale_range: tuple[float, float] = (0.05, 0.3)  # per-episode volume draw
    round_episodes: int = 20
    updates_per_round: int = 350
    area_km: float = 200.0
    radius_km: float = 150.0
    # held-out scenario (dc_count, cluster_limit, scale) scored greedily after
    # each update round; the best-scoring parameters are the shipped policy
    validation_cell: tuple[int, int, float] = (20, 4, 1.0)
    validation_seed: int = 7

    def __post_init__(self):
        if not self.dc_choices or self.round_episodes < 1:
            raise ValueError("train.dc_choices must be non-empty and "
                             "train.round_episodes at least 1")
        if self.episodes < 1 or self.updates_per_round < 0:
            raise ValueError(f"train.episodes must be at least 1 and "
                             f"train.updates_per_round at least 0, got "
                             f"{self.episodes} and {self.updates_per_round}")
        if not all(0 < scale < math.inf for scale in self.scale_range):
            raise ValueError(f"train.scale_range must be positive and finite, "
                             f"got {self.scale_range}")
        if not 0 < self.validation_cell[2] < math.inf:  # also NaN
            raise ValueError(f"train.validation_cell's scale must be "
                             f"positive and finite, got {self.validation_cell}")
        check_geometry("train", self.area_km, self.radius_km)


@dataclass
class TrainResult:
    policy: QNetwork
    best: QNetwork  # the best validation round's policy, else `policy`
    curve: list[dict]  # one row per episode


def train(config: TrainConfig, seed: int, model: ModelConfig | None = None,
          sim_config: SimConfig | None = None,
          catalog: Catalog | None = None) -> TrainResult:
    """DQN training on the small-network curriculum: random DC counts per
    episode, replay appended at episode end, batched update rounds. `model`
    and `sim_config` are the `drl` and `sim` sections; None runs defaults."""
    catalog = catalog or default_catalog()
    mc = model or ModelConfig()
    sim_config = sim_config or SimConfig()
    policy = QNetwork(mc, seed=seed)
    target = policy.clone()
    memory = ReplayMemory(mc.replay_capacity)
    rng = np.random.default_rng([seed, 3])
    epsilon = mc.epsilon_start
    curve: list[dict] = []
    best = (None, -1.0)
    losses: list[float] = []
    val_dcs, val_limit, val_scale = config.validation_cell
    val_graph = build_network({"dc_count": val_dcs,
                               "seed": config.validation_seed,
                               "area_km": config.area_km,
                               "radius_km": config.radius_km})
    for ep in range(config.episodes):
        dc_count = int(rng.choice(config.dc_choices))
        topo = {"dc_count": dc_count, "area_km": config.area_km,
                "radius_km": config.radius_km, "seed": int(rng.integers(2 ** 31))}
        graph = build_network(topo)
        ep_seed = int(rng.integers(2 ** 31))
        scale = float(rng.uniform(*config.scale_range))
        report, world = run_episode(
            graph, config.size_limit, scale, ep_seed, policy,
            epsilon=epsilon, catalog=catalog, config=sim_config, train=True,
            scenario_id=f"train-{ep}")
        clip = sim_config.reward_clip
        for cid in sorted(world.transitions):
            for s, a, s2, r, terminal in world.transitions[cid]:
                memory.push(s, a, s2, max(-clip, min(clip, r)), terminal)
        mean_loss = sum(losses) / len(losses) if losses else float("nan")
        acc = report.acceptance_float
        curve.append({
            "episode": ep,
            "mean_reward": sum(report.reward_by_agent.values())
            / max(1, len(report.reward_by_agent)),
            "loss": mean_loss,
            "epsilon": epsilon,
            "acceptance_ratio": acc if acc is not None else "",
        })
        if (ep + 1) % config.round_episodes == 0:
            losses = []
            for _ in range(config.updates_per_round):
                loss = drl.update(policy, target, memory, mc, rng)
                if loss is not None:
                    losses.append(loss)
            # score the greedy policy on the held-out scenario; the best
            # round's parameters become the shipped policy
            vrep, _ = run_episode(val_graph, val_limit, val_scale,
                                  config.validation_seed, policy,
                                  epsilon=0.0, catalog=catalog,
                                  config=sim_config,
                                  scenario_id=f"validate-{ep}")
            vacc = vrep.acceptance_float or 0.0
            if vacc > best[1]:
                best = (policy.clone(), vacc)
        epsilon = max(mc.epsilon_end, epsilon * mc.epsilon_decay)
    return TrainResult(policy, best[0] or policy, curve)


# ---- evaluation -----------------------------------------------------------

def run_network(topology: TopologyConfig, seed: int) -> NetworkGraph:
    """The network of a run with `seed`: an unset topology seed is the run
    seed."""
    if topology.seed is None:
        topology = replace(topology, seed=seed)
    return build_network(topology)


def episode_seed(seed: int, ep: int) -> int:
    """The episode seed of episode `ep` of run seed `seed`: it seeds the
    episode's partition, agents and generated requests."""
    return int(np.random.default_rng([seed, 4, ep]).integers(2 ** 31))


def evaluate(topology: TopologyConfig, size_limit: int, scale: float | None,
             policy: QNetwork, seeds: list[int], episodes: int,
             catalog: Catalog | None = None, config: SimConfig | None = None,
             requests: list[SfcRequest] | None = None,
             scenario: str = "eval-s{seed}-e{ep}") -> list[EpisodeReport]:
    """Greedy episodes on each seed's run network; one report per episode.

    Episode `ep` of seed `seed` runs at `episode_seed(seed, ep)` and is
    named `scenario.format(seed=seed, ep=ep)`. It generates its requests, or
    runs a fresh copy of `requests`."""
    reports = []
    for seed in seeds:
        graph = run_network(topology, seed)
        for ep in range(episodes):
            report, _ = run_episode(
                graph, size_limit, scale, episode_seed(seed, ep), policy,
                epsilon=0.0, catalog=catalog, config=config,
                scenario_id=scenario.format(seed=seed, ep=ep),
                requests=(None if requests is None
                          else [r.fresh_copy() for r in requests]))
            reports.append(report)
    return reports


def _report_row(report: EpisodeReport, sfc_type: str,
                counts: tuple[int, int, int], ratio: Fraction | None,
                mean_e2e: float | None) -> dict:
    generated, accepted, dropped = counts
    return {
        "scenario_id": report.scenario_id,
        "seed": report.seed,
        "dc_count": report.dc_count,
        "cluster_limit": report.cluster_limit,
        "cluster_count": report.cluster_count,
        "scale": report.scale,
        "sfc_type": sfc_type,
        "generated": generated,
        "accepted": accepted,
        "dropped": dropped,
        "acc_ratio": "" if ratio is None else f"{float(ratio):.6f}",
        "mean_e2e_ms": "" if mean_e2e is None else f"{mean_e2e:.6f}",
    }


def report_rows(report: EpisodeReport) -> list[dict]:
    """Flatten a report into CSV rows (one per SFC type plus an ALL row).
    The ALL row's delay is the mean of the per-type means."""
    rows = []
    for name in SFC_ORDER:
        counts = report.per_type[name]
        rows.append(_report_row(
            report, name, counts,
            Fraction(counts[1], counts[0]) if counts[0] else None,
            report.mean_e2e_ms[name]))
    means = [report.mean_e2e_ms[name] for name in SFC_ORDER
             if report.mean_e2e_ms[name] is not None]
    rows.append(_report_row(
        report, "ALL", tuple(sum(c) for c in zip(*report.per_type.values())),
        report.acceptance_ratio, sum(means) / len(means) if means else None))
    return rows
