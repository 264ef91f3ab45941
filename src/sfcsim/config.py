"""Run configuration: YAML loading, strict validation, typed section objects."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import yaml

from .drl import DrlError, ModelConfig
from .sim import SimConfig, TrainConfig


class ConfigError(ValueError):
    pass


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


OUTPUT_FORMATS = ("csv", "json")
SWEEP_LISTS = {"dc_counts": int, "cluster_limits": int, "scales": float}
# the drl, sim and train keys are the fields of the section's dataclass;
# `sim` also carries the episode count and seed list of eval runs, and the
# training config's nested model and sim are the drl and sim sections
_SCHEMA = {
    "topology": {"dc_count", "area_km", "radius_km", "storage_gb", "ram_gb",
                 "vcpu", "link_bw_mbps", "seed", "dcs", "links"},
    "cluster": {"size_limit"},
    "workload": {"scale", "overrides", "replay_file"},
    "drl": _field_names(ModelConfig),
    "sim": _field_names(SimConfig) | {"episodes", "seeds"},
    "train": _field_names(TrainConfig) - {"model", "sim"},
    "sweep": set(SWEEP_LISTS) | {"episodes_per_seed"},
    "output": {"directory", "formats"},
}


@dataclass
class RunConfig:
    topology: dict
    size_limit: int
    scale: float
    replay_file: str | None
    catalog_overrides: dict | None
    model: ModelConfig
    sim: SimConfig
    episodes: int
    seeds: list[int]
    train: TrainConfig
    sweep: dict
    output_dir: str
    output_formats: list[str]


def validate_raw(raw: dict) -> None:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for section, content in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        unknown = set(content) - _SCHEMA[section]
        if unknown:
            raise ConfigError(
                f"unknown keys in section {section!r}: {sorted(unknown)}")


def from_dict(raw: dict) -> RunConfig:
    validate_raw(raw)
    topo = dict(raw.get("topology") or {})
    cluster = raw.get("cluster") or {}
    workload = raw.get("workload") or {}
    drl_cfg = dict(raw.get("drl") or {})
    sim_cfg = dict(raw.get("sim") or {})
    train_cfg = dict(raw.get("train") or {})
    sweep_cfg = raw.get("sweep") or {}
    output = raw.get("output") or {}

    formats = output.get("formats", list(OUTPUT_FORMATS))
    if not (isinstance(formats, list) and formats
            and all(f in OUTPUT_FORMATS for f in formats)):
        raise ConfigError(f"output.formats must be a non-empty list drawn "
                          f"from {list(OUTPUT_FORMATS)}, got {formats!r}")
    try:
        episodes = int(sim_cfg.pop("episodes", 3))
        seeds = [int(s) for s in sim_cfg.pop("seeds", [0])]
        model = ModelConfig(**drl_cfg)
        # one SimConfig serves evaluation and training; only training reads
        # its alloc_bonus and reward_clip
        sim = SimConfig(**sim_cfg)
        train = TrainConfig(model=model, sim=sim, **train_cfg)
        size_limit = int(cluster.get("size_limit", 4))
        scale = float(workload.get("scale", 1.0))
        sweep = {k: [kind(v) for v in sweep_cfg[k]]
                 for k, kind in SWEEP_LISTS.items() if k in sweep_cfg}
        if "episodes_per_seed" in sweep_cfg:
            sweep["episodes_per_seed"] = int(sweep_cfg["episodes_per_seed"])
    except (TypeError, ValueError, DrlError) as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        topology=topo,
        size_limit=size_limit,
        scale=scale,
        replay_file=workload.get("replay_file"),
        catalog_overrides=workload.get("overrides"),
        model=model,
        sim=sim,
        episodes=episodes,
        seeds=seeds,
        train=train,
        sweep=sweep,
        output_dir=str(output.get("directory", "out")),
        output_formats=formats,
    )


def load(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    return from_dict(raw)


def resolved_snapshot(cfg: RunConfig, seed_override: int | None = None) -> dict:
    """Fully resolved config for byte-identical reruns: `from_dict` of its
    YAML dump equals `cfg` (with the seed override applied)."""
    snap = {
        "topology": dict(cfg.topology),
        "cluster": {"size_limit": cfg.size_limit},
        "workload": {"scale": cfg.scale, "replay_file": cfg.replay_file,
                     "overrides": cfg.catalog_overrides},
        "drl": asdict(cfg.model),
        "sim": {**asdict(cfg.sim), "episodes": cfg.episodes,
                "seeds": list(cfg.seeds)},
        "train": {k: v for k, v in asdict(cfg.train).items()
                  if k in _SCHEMA["train"]},
        "sweep": dict(cfg.sweep),
        "output": {"directory": cfg.output_dir, "formats": cfg.output_formats},
    }
    if seed_override is not None:
        snap["sim"]["seeds"] = [seed_override]
    return snap
