"""Workload definitions, input generation, and the episode runner that checks
every operation, caps its wall-clock time and timestamps simulated steps.

Importing this module imports sfcsim, so the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import csv
import hashlib
import io
import signal
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sfcsim import drl, sim
from sfcsim.cli import CSV_FIELDS
from sfcsim.substrate import SubstrateError
from sfcsim.topology import build_network
from sfcsim.workload import (ACCEPTED, DROPPED, SFC_ORDER, default_catalog,
                             generate_bundles)

from hostspeed import SpeedMeter

POLICY_FILE = Path(__file__).with_name("policy.bin")
# `sfcsim train` with the default config at seed 0; see README.md
POLICY_SHA256 = "69bbe5f9157b0abbff761890111c2802bff2d8e583a21635e1541b2d8877825a"

# One episode that runs longer than this is recorded as a failed operation
# ("timeout") instead of hanging the run.
EPISODE_CAP_S = 30.0
# A run stops starting operations after this long, so that it always ends
# well inside the 180 s a run may take.
RUN_BUDGET_S = 120.0
MIN_STEP_SAMPLES = 200

# Topology generation settings shared by every eval workload (those of
# `sim.evaluate_sweep`).
AREA_KM = 1000.0
RADIUS_KM = 250.0


# A pass holds this share of --seconds worth of operations at nominal speed,
# so that it fits in --seconds even when the host runs at half that speed.
PASS_SHARE = 0.5


@dataclass(frozen=True)
class EvalWorkload:
    """Greedy evaluation episodes on one fixed topology. Episode i runs on the
    partition seeded by partition_seeds[i % len] with the i-th request list
    drawn from the workload seed."""
    dc_count: int
    cluster_limit: int
    scale: float
    topology_seed: int
    partition_seeds: tuple[int, ...]
    nominal_op_s: float  # reference seconds per episode; sizes the pass


@dataclass(frozen=True)
class TrainWorkload:
    """Whole `sim.train` runs from scratch, each with a training seed drawn
    from the workload seed."""
    episodes: int
    nominal_op_s: float  # reference seconds per training run


def pass_length(workload: EvalWorkload | TrainWorkload, seconds: float) -> int:
    return max(1, round(PASS_SHARE * seconds / workload.nominal_op_s))


# Why each workload exists, and which layer it stresses, is in README.md.
WORKLOADS: dict[str, EvalWorkload | TrainWorkload] = {
    "eval-fragmented": EvalWorkload(80, 4, 1.0, 5, (2, 7, 11), 0.5),
    "eval-dense": EvalWorkload(40, 8, 3.0, 11, (11, 12, 13), 0.83),
    "eval-wide": EvalWorkload(200, 8, 3.0, 11, (12, 13, 14), 2.5),
    # two whole update rounds with their validation episodes
    "train": TrainWorkload(40, 3.2),
}


class EpisodeTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise EpisodeTimeout()


def load_policy() -> drl.QNetwork:
    data = POLICY_FILE.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != POLICY_SHA256:
        raise RuntimeError(f"{POLICY_FILE.name}: SHA-256 {digest} does not match "
                           f"the recorded {POLICY_SHA256}")
    return drl.load_weights(str(POLICY_FILE), drl.ModelConfig())


def report_csv(report: sim.EpisodeReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    for row in sim.report_rows(report):
        writer.writerow(row)
    return buf.getvalue()


def check_episode(report: sim.EpisodeReport, world: sim.World) -> str | None:
    """The reason the episode's outputs are wrong, or None if they hold."""
    try:
        world.substrate.verify_accounting()
    except SubstrateError as exc:
        return f"accounting: {exc}"
    if any(r.status not in (ACCEPTED, DROPPED) for r in world.requests):
        return "non-terminal request"
    generated = Counter(r.sfc_type.name for r in world.requests)
    for name in SFC_ORDER:
        g, a, d = report.per_type[name]
        if g != generated[name] or g != a + d:
            return f"{name}: generated {g} != accepted {a} + dropped {d}"
    for r in world.requests:
        if r.status == ACCEPTED and sim.recompute_ledger(r) != (
                r.propagation_total, r.processing_total):
            return f"request {r.id}: delay ledger mismatch"
    return None


@dataclass
class EpisodeRunner:
    """Stands in for `sim.run_episode`: arms the per-episode cap, passes a
    step hook that timestamps every simulated step, and checks the outputs.
    With a meter, the hook also samples host speed between steps and step
    times are reported in reference seconds (see hostspeed.py).

    The exact counts it keeps repeat bit for bit on identical inputs."""
    run_episode: object
    meter: SpeedMeter | None = None
    step_s: list[float] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    _episode_steps: list[float] = field(default_factory=list)
    _last_step: float | None = None

    def _step_hook(self, world) -> None:
        now = time.perf_counter()
        # the first interval of an episode would include building the world
        if self._last_step is not None:
            self._episode_steps.append(now - self._last_step)
        if self.meter is not None:
            self.meter.tick()
        self._last_step = time.perf_counter()

    def __call__(self, *args, **kwargs):
        kwargs["step_hook"] = self._step_hook
        self._last_step = None
        self._episode_steps.clear()
        mark = len(self.meter.samples) if self.meter is not None else 0
        self.counts["ops"] += 1
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EPISODE_CAP_S)
        try:
            report, world = self.run_episode(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        scale = self.meter.factor(mark) if self.meter is not None else 1.0
        self.step_s.extend(s * scale for s in self._episode_steps)
        reason = check_episode(report, world)
        if reason is not None:
            self.failures[reason] += 1
        per_type = report.per_type.values()
        c = self.counts
        c["episodes.train" if report.scenario_id.startswith("train-")
          else "episodes.other"] += 1
        c["steps"] += report.steps
        c["requests"] += sum(v[0] for v in per_type)
        c["accepted"] += sum(v[1] for v in per_type)
        c["agents.handoffs"] += len(world.general.handoff_log)
        c["routing.dfs_edges"] += sum(world.general.counters.dfs_edges)
        c["routing.dijkstra_settled"] += sum(
            world.general.counters.dijkstra_settled)
        return report, world


@dataclass
class Inputs:
    """Everything a workload's operations need, generated before timing."""
    workload: EvalWorkload | TrainWorkload
    ops: list  # one (label, argument) pair per operation of a pass
    graph: object = None
    policy: drl.QNetwork | None = None


def setup(name: str, seed: int, seconds: float) -> Inputs:
    """Build the fixed topology and generate one pass of inputs from `seed`."""
    workload = WORKLOADS[name]
    count = pass_length(workload, seconds)
    if isinstance(workload, TrainWorkload):
        seeds = [int(np.random.default_rng([seed, t]).integers(2 ** 31))
                 for t in range(count)]
        return Inputs(workload, [(f"{name}-{t}", s)
                                 for t, s in enumerate(seeds)])
    graph = build_network({"dc_count": workload.dc_count,
                           "seed": workload.topology_seed,
                           "area_km": AREA_KM, "radius_km": RADIUS_KM})
    catalog = default_catalog()
    ops = [(f"{name}-{i}",
            generate_bundles(catalog, graph, workload.scale,
                             np.random.default_rng([seed, i])))
           for i in range(count)]
    return Inputs(workload, ops, graph, load_policy())


def run_op(inputs: Inputs, runner: EpisodeRunner, index: int) -> str:
    """Run operation `index` of the pass; return its fingerprint text."""
    label, arg = inputs.ops[index]
    wl = inputs.workload
    if isinstance(wl, TrainWorkload):
        # sim.train looks run_episode up in its module on every episode
        saved = sim.run_episode
        sim.run_episode = runner
        try:
            result = sim.train(sim.TrainConfig(episodes=wl.episodes), arg)
        finally:
            sim.run_episode = saved
        weights = b"".join(result.policy.params[k].tobytes()
                           for k in sorted(result.policy.params))
        return label + hashlib.sha256(weights).hexdigest() + repr(result.curve)
    seed = wl.partition_seeds[index % len(wl.partition_seeds)]
    report, _ = runner(inputs.graph, wl.cluster_limit, wl.scale, seed,
                       inputs.policy, epsilon=0.0, scenario_id=label,
                       requests=[r.fresh_copy() for r in arg])
    return report_csv(report)


@dataclass
class PassResult:
    elapsed_s: float  # wall time of the whole loop
    # one pass in reference seconds (raw without a meter): the sum over the
    # pass's operations of each one's mean time over its repetitions, so
    # that repetitions add samples without changing the mix of inputs
    pass_s: float
    fingerprint: str
    first_pass: Counter  # exact counts of the first pass
    ops_done: int


def run_passes(inputs: Inputs, runner: EpisodeRunner, seconds: float,
               repeat: bool, meter: SpeedMeter | None = None) -> PassResult:
    """Run the pass once, then (if `repeat`) cycle through it again until
    `seconds` have passed. Every repeated operation must reproduce the
    fingerprint of its first run. With a meter, host speed is sampled around
    every operation and operation times are in reference seconds."""
    n = len(inputs.ops)
    first: list[str | None] = [None] * n
    op_s: list[list[float]] = [[] for _ in range(n)]
    first_pass = Counter()
    t0 = time.perf_counter()
    i = 0
    while i < n or (repeat and time.perf_counter() - t0 < seconds):
        if time.perf_counter() - t0 > RUN_BUDGET_S:
            # the rest of the pass is never attempted: count the cut once
            runner.counts["ops"] += 1
            runner.failures["run-budget"] += 1
            break
        k = i % n
        if meter is not None:
            meter.sample()
            mark, spent = len(meter.samples), meter.spent
        start = time.perf_counter()
        try:
            text = run_op(inputs, runner, k)
        except EpisodeTimeout:
            runner.failures["timeout"] += 1
            text = None
        except Exception as exc:  # a failed operation is counted, not fatal
            runner.failures[f"error: {type(exc).__name__}: {exc}"] += 1
            text = None
        took = time.perf_counter() - start
        if meter is not None:
            took -= meter.spent - spent
            meter.sample()
            took *= meter.factor(mark)
        op_s[k].append(took)
        if i < n:
            first[k] = text
            if i == n - 1:
                first_pass = Counter(runner.counts)
        elif text is not None and first[k] is not None and text != first[k]:
            runner.failures["nondeterministic"] += 1
        i += 1
    elapsed = time.perf_counter() - t0
    if i < n:
        first_pass = Counter(runner.counts)
    pass_s = sum(sum(t) / len(t) for t in op_s if t)
    joined = "".join(t if t is not None else "FAILED\n" for t in first)
    return PassResult(elapsed, pass_s, hashlib.sha256(joined.encode()).hexdigest(),
                      first_pass, i)
