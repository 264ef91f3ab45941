"""Outside-in span tracer for sfcsim.

Timing wrappers are installed at the name each caller looks up (a module
global or a class attribute), so no file of the package changes. Spans go on
a stack kept in memory; each closed span adds its duration to its parent, and
its self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# The first this many spans are kept in full and written out at the end of
# the run; aggregates cover every span.
SPAN_LOG_LIMIT = 50_000

# Every span `Tracer.install_sfcsim` records, by layer.
SPAN_NAMES = (
    "sim.run_episode", "sim.run_step", "sim.deadline_scan",
    "sim.complete_processing", "sim.release_due_bandwidth",
    "agents.local_step", "agents.build_state_view", "agents.priority_rank",
    "agents.assist",
    "drl.encode_state", "drl.forward_b1", "drl.forward_batch", "drl.update",
    "drl.replay_push", "drl.replay_sample",
    "routing.find_path", "routing.c2c_cluster_path", "routing.d2d_shortest_path",
    "substrate.link_free", "substrate.reserve_bandwidth",
    "substrate.release_bandwidth",
    "topology.make_clusters", "topology.cluster_adjacency",
    "workload.generate_bundles",
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.episode = -1  # index of the latest sim.run_episode span
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.next_id = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total, self]
        self.spans: list[tuple] = []  # (id, name, start, end, parent, episode)
        self.spans_dropped = 0
        self.counts: Counter = Counter()
        self._patches: list[tuple] = []

    # ---- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        if name == "sim.run_episode":
            self.episode += 1
        self.stack.append([self.next_id, name, self.clock(), 0.0])
        self.next_id += 1

    def exit(self) -> None:
        span_id, name, start, child = self.stack.pop()
        end = self.clock()
        duration = end - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        parent = None
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        if len(self.spans) < SPAN_LOG_LIMIT:
            self.spans.append((span_id, name, start, end, parent, self.episode))
        else:
            self.spans_dropped += 1

    def wrap(self, name, fn, count=None):
        """`fn` timed as span `name`; `count(args, result)` may add counts.
        `name` may be a function of the call's arguments."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                count(args, result)
            return result
        return traced

    # ---- installation ------------------------------------------------------

    def patch(self, owner, attr: str, name, count=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install_sfcsim(self) -> None:
        """Wrap the public calls into each sfcsim module where their callers
        look them up."""
        from sfcsim import agents, drl, routing, sim
        from sfcsim.substrate import Substrate

        def outcome_counts(args, result):
            _, outcome, _, _ = result
            self.counts["agents.local_step.invalid"] += outcome.invalid
            self.counts["agents.local_step.idle"] += (
                outcome.action == agents.ACTION_IDLE)
            self.counts["agents.local_step.alloc"] += outcome.request is not None

        def path_failures(args, result):
            self.counts["routing.find_path.fail"] += result is None

        def links_scanned(args, result):
            self.counts["substrate.links_scanned"] += len(args[0].links)

        def forward_name(args):
            if isinstance(args[1], drl.StateEncoding):
                return "drl.forward_b1"
            return "drl.forward_batch"

        self.patch(sim, "run_episode", "sim.run_episode")
        self.patch(sim, "run_step", "sim.run_step")
        self.patch(sim.World, "_deadline_scan", "sim.deadline_scan")
        self.patch(sim.World, "_complete_processing", "sim.complete_processing")
        self.patch(sim.World, "_release_bandwidth", "sim.release_due_bandwidth")
        self.patch(sim, "local_step", "agents.local_step", outcome_counts)
        self.patch(agents, "build_state_view", "agents.build_state_view")
        self.patch(agents, "priority_rank", "agents.priority_rank")
        self.patch(sim, "assist", "agents.assist")
        self.patch(agents, "encode_state", "drl.encode_state")
        self.patch(drl.QNetwork, "forward", forward_name)
        self.patch(drl, "update", "drl.update")
        self.patch(drl.ReplayMemory, "push", "drl.replay_push")
        self.patch(drl.ReplayMemory, "sample", "drl.replay_sample")
        self.patch(routing, "find_path", "routing.find_path", path_failures)
        self.patch(routing, "c2c_cluster_path", "routing.c2c_cluster_path")
        self.patch(routing, "d2d_shortest_path", "routing.d2d_shortest_path")
        self.patch(Substrate, "link_free", "substrate.link_free")
        self.patch(Substrate, "reserve_bandwidth", "substrate.reserve_bandwidth")
        self.patch(Substrate, "release_bandwidth", "substrate.release_bandwidth",
                   links_scanned)
        self.patch(agents, "make_clusters", "topology.make_clusters")
        self.patch(agents, "cluster_adjacency", "topology.cluster_adjacency")
        self.patch(routing, "cluster_adjacency", "topology.cluster_adjacency")
        self.patch(sim, "generate_bundles", "workload.generate_bundles")

    # ---- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, episode in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "episode": episode})
                         + "\n")
