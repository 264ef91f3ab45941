#!/usr/bin/env python3
"""sfcsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the benchmark imports sfcsim from ./src and
nothing else. With --trace 0 it prints every end-to-end metric; with
--trace 1 it makes one untraced and one traced pass over the same inputs and
prints the per-layer metrics of the traced pass. The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
The exit code is 0 when every check held, 1 when one failed and 2 when the
benchmark could not run. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("eval-fragmented", "eval-dense", "eval-wide", "train")
SETUP_SAMPLES = 5
SPEED_SAMPLES_AROUND_PROBE = 20
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only, then print the CLOCK_MONOTONIC time")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def probe_setup_s(args, meter) -> float:
    """Process start to the end of set-up in a fresh interpreter, in
    reference seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe"]
    mark = len(meter.samples) + 1
    for _ in range(SPEED_SAMPLES_AROUND_PROBE):
        meter.sample()
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    raw = float(done.stdout.split()[-1]) - start
    for _ in range(SPEED_SAMPLES_AROUND_PROBE):
        meter.sample()
    return raw * meter.factor(mark)


def metric(value, unit, samples=None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def end_to_end(harness, inputs, setup_samples, runner, result):
    """The gated metrics (those of BENCHMARK.json) and the ones only shown."""
    first = result.first_pass
    if isinstance(inputs.workload, harness.TrainWorkload):
        episodes = first["episodes.train"]
    else:
        episodes = first["episodes.other"]
    steps_ms = sorted(s * 1e3 for s in runner.step_s)
    if len(steps_ms) < harness.MIN_STEP_SAMPLES:
        runner.failures["too few steps for p95"] += 1
        steps_ms = steps_ms or [float("nan")]
    quantiles = (statistics.quantiles(steps_ms, n=100, method="inclusive")
                 if len(steps_ms) > 1 else steps_ms * 99)
    gated = {
        "requests_per_s": metric(first["requests"] / result.pass_s, "1/s",
                                 first["requests"]),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup_samples), "s",
                          len(setup_samples)),
    }
    # Across seeds these move with the inputs by more than a third of any
    # allowed bound (README.md), so they are shown but not gated.
    shown = {
        "episodes_per_s": metric(episodes / result.pass_s, "1/s", episodes),
        "step_ms_p50": metric(quantiles[49], "ms", len(runner.step_s)),
        "step_ms_p95": metric(quantiles[94], "ms", len(runner.step_s)),
        "acceptance_ratio": metric(first["accepted"] / max(1, first["requests"]),
                                   "ratio", first["requests"]),
    }
    return gated, shown


def per_layer(tracer_mod, tracer, runner, throughput_ratio) -> dict:
    out = {}
    for name in tracer_mod.SPAN_NAMES:
        calls, total, self_s = tracer.stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.self_ms"] = metric(self_s * 1e3, "ms")
        out[f"{name}.us_per_call"] = metric(total * 1e6 / calls if calls else 0.0,
                                            "us")
    tc = tracer.counts
    decisions = tracer.stats.get("agents.local_step", (0,))[0]
    for kind in ("invalid", "idle", "alloc"):
        out[f"agents.local_step.{kind}_share"] = metric(
            tc[f"agents.local_step.{kind}"] / max(1, decisions), "ratio")
    for name in ("agents.handoffs", "routing.dfs_edges",
                 "routing.dijkstra_settled"):
        out[name] = metric(runner.counts[name], "count")
    finds = tracer.stats.get("routing.find_path", (0,))[0]
    out["routing.find_path.fail_share"] = metric(
        tc["routing.find_path.fail"] / max(1, finds), "ratio")
    out["substrate.links_scanned"] = metric(tc["substrate.links_scanned"], "count")
    out["trace.throughput_ratio"] = metric(throughput_ratio, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: on 2 vCPUs a second one burns CPU in drl.update for no
    # wall-time gain and makes the train workload noisier. Results are
    # bit-identical either way.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "sfcsim" / "__init__.py").is_file():
        print(f"error: no sfcsim sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports sfcsim from SRC

    import sfcsim
    if Path(sfcsim.__file__).resolve().parent != SRC / "sfcsim":
        print(f"error: sfcsim was imported from {sfcsim.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        harness.setup(args.workload, args.seed, args.seconds)
        print(time.monotonic())
        return 0

    from hostspeed import SpeedMeter
    meter = SpeedMeter()
    setup_samples = []
    if not args.trace:
        setup_samples = [probe_setup_s(args, meter)
                         for _ in range(SETUP_SAMPLES)]
    inputs = harness.setup(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}: seed {args.seed}, {len(inputs.ops)} "
          f"operations per pass, {args.seconds:g} s")

    if not args.trace:
        runner = harness.EpisodeRunner(harness.sim.run_episode, meter)
        result = harness.run_passes(inputs, runner, args.seconds, repeat=True,
                                    meter=meter)
        metrics, shown = end_to_end(harness, inputs, setup_samples, runner,
                                    result)
        counts = result.first_pass
        print(f"wall {result.elapsed_s:.3f} s for {result.ops_done} operations; "
              f"one pass {result.pass_s:.3f} reference s; "
              f"{len(meter.samples)} host-speed samples")
    else:
        import tracer as tracer_mod
        reference = harness.EpisodeRunner(harness.sim.run_episode)
        untraced = harness.run_passes(inputs, reference, args.seconds,
                                      repeat=False, meter=meter)
        tracer = tracer_mod.Tracer()
        tracer.install_sfcsim()
        try:
            runner = harness.EpisodeRunner(harness.sim.run_episode)
            result = harness.run_passes(inputs, runner, args.seconds,
                                        repeat=False, meter=meter)
        finally:
            tracer.uninstall()
        runner.failures.update(reference.failures)
        if result.fingerprint != untraced.fingerprint:
            runner.failures["tracing changed the fingerprint"] += 1
        if result.first_pass != untraced.first_pass:
            runner.failures["tracing changed the exact counts"] += 1
        counts = result.first_pass
        metrics = per_layer(tracer_mod, tracer, runner,
                            untraced.pass_s / result.pass_s)
        shown = {}
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(span_file)
        print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}"
              f", {tracer.spans_dropped} more aggregated only")

    attempted = runner.counts["ops"] + (reference.counts["ops"]
                                        if args.trace else 0)
    failed = sum(runner.failures.values())
    print(f"fingerprint {result.fingerprint}")
    print("exact counts (first pass): " + json.dumps(dict(sorted(counts.items()))))
    for title, group in (("metrics", metrics), ("also shown", shown)):
        if group:
            print(f"{title}:")
        for name, m in group.items():
            n = f"  (n={m['samples']})" if "samples" in m else ""
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}{n}")
    print(f"ops {attempted}  ops_failed {failed}")
    for reason, n in sorted(runner.failures.items()):
        print(f"  failed x{n}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
