"""Command-line entry point: train, eval, sweep, clusters, replay.

Exit codes: 0 success, 2 invalid config or incompatible inputs, 3 I/O failure.
Environment overrides: SFCSIM_SEED, SFCSIM_OUT.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import tempfile
from dataclasses import replace
from typing import Annotated

import yaml

from . import config as config_mod
from . import drl, sim, workload
from .config import ConfigError, RunConfig
from .schema import AT_LEAST_0, convert
from .topology import TopologyError, make_clusters

CSV_FIELDS = ["scenario_id", "seed", "dc_count", "cluster_limit", "cluster_count",
              "scale", "sfc_type", "generated", "accepted", "dropped",
              "acc_ratio", "mean_e2e_ms"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rows_to_csv(rows: list[dict], fields: list[str] = CSV_FIELDS) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _report_json(reports: list[sim.EpisodeReport]) -> str:
    payload = []
    for r in reports:
        payload.append({
            "scenario_id": r.scenario_id,
            "seed": r.seed,
            "dc_count": r.dc_count,
            "cluster_limit": r.cluster_limit,
            "cluster_count": r.cluster_count,
            "scale": r.scale,
            "per_type": {k: list(v) for k, v in r.per_type.items()},
            "per_cluster_type": {f"{c}:{s}": list(v)
                                 for (c, s), v in r.per_cluster_type.items()},
            "mean_e2e_ms": r.mean_e2e_ms,
            "acceptance_ratio": (None if r.acceptance_ratio is None else
                                 [r.acceptance_ratio.numerator,
                                  r.acceptance_ratio.denominator]),
            "empty_workload": r.acceptance_ratio is None,
            "steps": r.steps,
        })
    return json.dumps(payload, indent=2, sort_keys=True)


def _load_policy(cfg: RunConfig, args, command: str) -> drl.QNetwork:
    if not args.weights:
        raise ConfigError(f"{command} requires --weights")
    try:
        return drl.load_weights(args.weights, cfg.drl)
    except FileNotFoundError as exc:
        raise ConfigError(f"weights file not found: {args.weights}") from exc
    except drl.DrlError as exc:
        raise ConfigError(str(exc)) from exc


def _seed_list(cfg: RunConfig, args) -> list[int]:
    """`--seed`, else `SFCSIM_SEED`, else `sim.seeds`; a seed is at least 0."""
    for where, seed in (("--seed", args.seed),
                        ("SFCSIM_SEED", os.environ.get("SFCSIM_SEED"))):
        if seed is not None:
            try:
                return [convert(seed, Annotated[int, AT_LEAST_0], where)]
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
    return cfg.sim.seeds


def _out_dir(cfg: RunConfig, args) -> str:
    return args.out or os.environ.get("SFCSIM_OUT") or cfg.output.directory


def _write_snapshot(cfg: RunConfig, out_dir: str,
                    seeds: list[int] | None) -> None:
    """Write resolved_config.yaml with the seeds the run used."""
    snap = config_mod.resolved_snapshot(cfg, seeds)
    _atomic_write(os.path.join(out_dir, "resolved_config.yaml"),
                  yaml.safe_dump(snap, sort_keys=True))


def cmd_train(args) -> int:
    cfg = config_mod.load(args.config)
    out_dir = _out_dir(cfg, args)
    seed = _seed_list(cfg, args)[0]
    # training draws its own networks, but an explicit entry list is
    # checked the way the other commands check it: by building it
    if cfg.topology.dcs is not None:
        sim.run_network(cfg.topology, seed)
    result = sim.train(cfg.train, seed, cfg.drl, cfg.sim, cfg.catalog)
    os.makedirs(out_dir, exist_ok=True)
    drl.save_weights(result.best, os.path.join(out_dir, "weights.bin"))
    curve_fields = ["episode", "mean_reward", "loss", "epsilon", "acceptance_ratio"]
    _atomic_write(os.path.join(out_dir, "training_curve.csv"),
                  _rows_to_csv(result.curve, curve_fields))
    _write_snapshot(cfg, out_dir, [seed])
    updates = (cfg.train.episodes // cfg.train.round_episodes
               * cfg.train.updates_per_round)
    print(f"trained {cfg.train.episodes} episodes "
          f"({updates} updates); weights -> {out_dir}/weights.bin")
    return EXIT_OK


def _write_reports(reports: list[sim.EpisodeReport], cfg: RunConfig,
                   out_dir: str, stem: str) -> None:
    rows = [row for r in reports for row in sim.report_rows(r)]
    if "csv" in cfg.output.formats:
        _atomic_write(os.path.join(out_dir, f"{stem}.csv"), _rows_to_csv(rows))
    if "json" in cfg.output.formats:
        _atomic_write(os.path.join(out_dir, f"{stem}.json"), _report_json(reports))


def cmd_eval(args) -> int:
    cfg = config_mod.load(args.config)
    policy = _load_policy(cfg, args, "eval")
    out_dir = _out_dir(cfg, args)
    seeds = _seed_list(cfg, args)
    reports = sim.evaluate(cfg.topology, cfg.cluster.size_limit,
                           cfg.workload.scale, policy, seeds, cfg.sim.episodes,
                           catalog=cfg.catalog, config=cfg.sim)
    _write_reports(reports, cfg, out_dir, "report")
    _write_snapshot(cfg, out_dir, seeds)
    print(f"{len(reports)} evaluation episodes -> {out_dir}/report.csv")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = config_mod.load(args.config)
    policy = _load_policy(cfg, args, "sweep")
    sweep = cfg.sweep
    if sweep is None:
        raise ConfigError("sweep requires a 'sweep' config section")
    if cfg.topology.dcs is not None:
        raise TopologyError("sweep sets the DC count of each cell and cannot "
                            "use an explicit topology.dcs network")
    out_dir = _out_dir(cfg, args)
    seeds = _seed_list(cfg, args)
    # each cell runs eval's loop on the topology with the cell's DC count
    reports = [
        report
        for dc, limit, scale in itertools.product(
            sweep.dc_counts, sweep.cluster_limits, sweep.scales)
        for report in sim.evaluate(
            replace(cfg.topology, dc_count=dc), limit, scale, policy, seeds,
            cfg.sim.episodes, catalog=cfg.catalog, config=cfg.sim,
            scenario=f"dc{dc}-cl{limit}-x{scale}-e{{ep}}")]
    _write_reports(reports, cfg, out_dir, "sweep")
    _write_snapshot(cfg, out_dir, seeds)
    print(f"{len(reports)} sweep episodes -> {out_dir}/sweep.csv")
    return EXIT_OK


def cmd_clusters(args) -> int:
    cfg = config_mod.load(args.config)
    out_dir = _out_dir(cfg, args)
    seed = _seed_list(cfg, args)[0]
    graph = sim.run_network(cfg.topology, seed)
    # the partition of the seed's first eval episode
    partition = make_clusters(graph, cfg.cluster.size_limit,
                              sim.episode_seed(seed, 0))
    payload = {
        "dc_count": graph.dc_count,
        "size_limit": cfg.cluster.size_limit,
        "clusters": {str(c): members
                     for c, members in sorted(partition.clusters.items())},
        "intra_link_counts": {str(c): len(links)
                              for c, links in sorted(partition.intra_links.items())},
        "inter_link_count": len(partition.inter_links),
        "cluster_adjacency": {str(c): nbrs
                              for c, nbrs in partition.adjacency.items()},
    }
    for c in sorted(partition.clusters):
        print(f"cluster {c}: DCs {partition.clusters[c]} "
              f"(intra links {len(partition.intra_links[c])})")
    print(f"inter-cluster links: {len(partition.inter_links)}")
    _atomic_write(os.path.join(out_dir, "clusters.json"),
                  json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_replay(args) -> int:
    cfg = config_mod.load(args.config)
    if not cfg.workload.replay_file:
        raise ConfigError("replay requires workload.replay_file in the config")
    policy = _load_policy(cfg, args, "replay")
    try:
        requests = workload.import_workload(cfg.catalog, cfg.workload.replay_file)
    except FileNotFoundError as exc:
        raise ConfigError(
            f"replay file not found: {cfg.workload.replay_file}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed replay file: {exc}") from exc
    out_dir = _out_dir(cfg, args)
    seeds = _seed_list(cfg, args)
    # every seed's run network has the same DCs, with ids 0..N-1
    dc_count = sim.run_network(cfg.topology, seeds[0]).dc_count
    for r in requests:
        if not (0 <= r.source_dc < dc_count and 0 <= r.dest_dc < dc_count):
            raise ConfigError(
                f"replay request {r.id} runs from DC {r.source_dc} to DC "
                f"{r.dest_dc}, outside the run's {dc_count}-DC network")
    # replayed requests do not depend on workload.scale: rows carry no scale
    reports = sim.evaluate(cfg.topology, cfg.cluster.size_limit, None, policy,
                           seeds, cfg.sim.episodes, catalog=cfg.catalog,
                           config=cfg.sim, requests=requests)
    _write_reports(reports, cfg, out_dir, "replay")
    _write_snapshot(cfg, out_dir, seeds)
    print(f"replayed {len(requests)} requests -> {out_dir}/replay.csv")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfcsim",
        description="Distributed SFC provisioning simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("train", cmd_train), ("eval", cmd_eval),
                     ("sweep", cmd_sweep), ("clusters", cmd_clusters),
                     ("replay", cmd_replay)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if fn in (cmd_eval, cmd_sweep, cmd_replay):  # the runs of a policy
            p.add_argument("--weights", default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
