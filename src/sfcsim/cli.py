"""Command-line entry point: train, eval, sweep, clusters, replay.

Exit codes: 0 success, 2 invalid config or incompatible inputs, 3 I/O failure.
Environment overrides: SFCSIM_SEED, SFCSIM_OUT.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile

import numpy as np
import yaml

from . import config as config_mod
from . import drl, sim, workload
from .config import ConfigError, RunConfig
from .topology import TopologyError, build_network, cluster_adjacency, make_clusters

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


def _rows_to_csv(rows: list[dict]) -> str:
    import io
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
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
            "empty_workload": r.empty_workload,
            "steps": r.steps,
        })
    return json.dumps(payload, indent=2, sort_keys=True)


def _load_config(path: str) -> RunConfig:
    return config_mod.load(path)


def _seed_list(cfg: RunConfig, args) -> list[int]:
    env = os.environ.get("SFCSIM_SEED")
    if args.seed is not None:
        return [args.seed]
    if env is not None:
        return [int(env)]
    return cfg.seeds


def _out_dir(cfg: RunConfig, args) -> str:
    return args.out or os.environ.get("SFCSIM_OUT") or cfg.output_dir


def _write_snapshot(cfg: RunConfig, out_dir: str, seed: int | None) -> None:
    snap = config_mod.resolved_snapshot(cfg, seed)
    _atomic_write(os.path.join(out_dir, "resolved_config.yaml"),
                  yaml.safe_dump(snap, sort_keys=True))


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    out_dir = _out_dir(cfg, args)
    seed = _seed_list(cfg, args)[0]
    catalog = workload.catalog_from_config(cfg.catalog_overrides)
    result = sim.train(cfg.train, seed, catalog=catalog)
    best = drl.QNetwork(cfg.model, seed=0)
    best.params = result.best_params
    os.makedirs(out_dir, exist_ok=True)
    drl.save_weights(best, os.path.join(out_dir, "weights.bin"))
    curve_fields = ["episode", "mean_reward", "loss", "epsilon", "acceptance_ratio"]
    import io
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=curve_fields, lineterminator="\n")
    writer.writeheader()
    for row in result.curve:
        writer.writerow({k: row[k] for k in curve_fields})
    _atomic_write(os.path.join(out_dir, "training_curve.csv"), buf.getvalue())
    _write_snapshot(cfg, out_dir, seed)
    print(f"trained {cfg.train.episodes} episodes "
          f"({result.update_calls} updates); weights -> {out_dir}/weights.bin")
    return EXIT_OK


def _run_eval_episodes(cfg: RunConfig, policy, seeds: list[int],
                       requests=None) -> list[sim.EpisodeReport]:
    catalog = workload.catalog_from_config(cfg.catalog_overrides)
    reports = []
    for seed in seeds:
        topo = dict(cfg.topology)
        topo.setdefault("seed", seed)
        graph = build_network(topo)
        for ep in range(cfg.episodes):
            ep_seed = int(np.random.default_rng([seed, 4, ep]).integers(2 ** 31))
            report, _ = sim.run_episode(
                graph, cfg.size_limit, cfg.scale, ep_seed, policy,
                epsilon=0.0, catalog=catalog, config=cfg.sim,
                scenario_id=f"eval-s{seed}-e{ep}",
                requests=([r.fresh_copy() for r in requests]
                          if requests is not None else None))
            reports.append(report)
    return reports


def _write_reports(reports: list[sim.EpisodeReport], cfg: RunConfig,
                   out_dir: str, stem: str) -> None:
    rows = [row for r in reports for row in sim.report_rows(r)]
    if "csv" in cfg.output_formats:
        _atomic_write(os.path.join(out_dir, f"{stem}.csv"), _rows_to_csv(rows))
    if "json" in cfg.output_formats:
        _atomic_write(os.path.join(out_dir, f"{stem}.json"), _report_json(reports))


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    if not args.weights:
        raise ConfigError("eval requires --weights")
    try:
        policy = drl.load_weights(args.weights, cfg.model)
    except FileNotFoundError as exc:
        raise ConfigError(f"weights file not found: {args.weights}") from exc
    except drl.DrlError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = _out_dir(cfg, args)
    seeds = _seed_list(cfg, args)
    reports = _run_eval_episodes(cfg, policy, seeds)
    _write_reports(reports, cfg, out_dir, "report")
    _write_snapshot(cfg, out_dir, args.seed)
    print(f"{len(reports)} evaluation episodes -> {out_dir}/report.csv")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if not args.weights:
        raise ConfigError("sweep requires --weights")
    try:
        policy = drl.load_weights(args.weights, cfg.model)
    except FileNotFoundError as exc:
        raise ConfigError(f"weights file not found: {args.weights}") from exc
    except drl.DrlError as exc:
        raise ConfigError(str(exc)) from exc
    sweep = cfg.sweep
    if not sweep:
        raise ConfigError("sweep requires a 'sweep' config section")
    cells = [sim.SweepCell(int(dc), int(cl), float(sc))
             for dc in sweep.get("dc_counts", [40])
             for cl in sweep.get("cluster_limits", [4])
             for sc in sweep.get("scales", [1.0])]
    out_dir = _out_dir(cfg, args)
    catalog = workload.catalog_from_config(cfg.catalog_overrides)
    reports = sim.evaluate_sweep(
        cells, policy, _seed_list(cfg, args),
        episodes_per_seed=int(sweep.get("episodes_per_seed", cfg.episodes)),
        catalog=catalog, config=cfg.sim, topology=cfg.topology)
    _write_reports(reports, cfg, out_dir, "sweep")
    _write_snapshot(cfg, out_dir, args.seed)
    print(f"{len(reports)} sweep episodes -> {out_dir}/sweep.csv")
    return EXIT_OK


def cmd_clusters(args) -> int:
    cfg = _load_config(args.config)
    out_dir = _out_dir(cfg, args)
    seed = _seed_list(cfg, args)[0]
    topo = dict(cfg.topology)
    topo.setdefault("seed", seed)
    graph = build_network(topo)
    partition = make_clusters(graph, cfg.size_limit, seed)
    payload = {
        "dc_count": graph.dc_count,
        "size_limit": cfg.size_limit,
        "clusters": {str(c): members
                     for c, members in sorted(partition.clusters.items())},
        "intra_link_counts": {str(c): len(links)
                              for c, links in sorted(partition.intra_links.items())},
        "inter_link_count": len(partition.inter_links),
        "cluster_adjacency": {str(c): nbrs
                              for c, nbrs in cluster_adjacency(partition).items()},
    }
    for c in sorted(partition.clusters):
        print(f"cluster {c}: DCs {partition.clusters[c]} "
              f"(intra links {len(partition.intra_links[c])})")
    print(f"inter-cluster links: {len(partition.inter_links)}")
    _atomic_write(os.path.join(out_dir, "clusters.json"),
                  json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_replay(args) -> int:
    cfg = _load_config(args.config)
    if not cfg.replay_file:
        raise ConfigError("replay requires workload.replay_file in the config")
    if not args.weights:
        raise ConfigError("replay requires --weights")
    try:
        policy = drl.load_weights(args.weights, cfg.model)
    except FileNotFoundError as exc:
        raise ConfigError(f"weights file not found: {args.weights}") from exc
    except drl.DrlError as exc:
        raise ConfigError(str(exc)) from exc
    catalog = workload.catalog_from_config(cfg.catalog_overrides)
    try:
        requests = workload.import_workload(catalog, cfg.replay_file)
    except FileNotFoundError as exc:
        raise ConfigError(f"replay file not found: {cfg.replay_file}") from exc
    out_dir = _out_dir(cfg, args)
    reports = _run_eval_episodes(cfg, policy, _seed_list(cfg, args),
                                 requests=requests)
    _write_reports(reports, cfg, out_dir, "replay")
    _write_snapshot(cfg, out_dir, args.seed)
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
