"""Run configuration: YAML loading, strict validation, typed section objects.

Each YAML section is one dataclass and takes exactly that dataclass's fields;
every value is converted to its field's declared type or rejected."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import yaml

from .drl import DrlError, ModelConfig
from .sim import SimConfig, TrainConfig
from .topology import TopologyConfig
from .workload import Catalog, catalog_from_config


class ConfigError(ValueError):
    pass


OUTPUT_FORMATS = ("csv", "json")


@dataclass
class ClusterConfig:
    size_limit: int = 4


@dataclass
class WorkloadConfig:
    scale: float = 1.0
    # per-type catalog fields, read by workload.catalog_from_config
    overrides: dict | None = None
    replay_file: str | None = None

    def __post_init__(self):
        if not 0 < self.scale < math.inf:  # also NaN
            raise ValueError(f"workload.scale must be positive and finite, "
                             f"got {self.scale}")


@dataclass
class SimSection(SimConfig):
    """The SimConfig that eval and training share, plus eval runs' episode
    count and seed list."""
    episodes: int = 3
    seeds: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self):
        super().__post_init__()
        if self.episodes < 1:
            raise ValueError(f"sim.episodes must be at least 1, "
                             f"got {self.episodes}")
        if not self.seeds:
            raise ValueError("sim.seeds must be a non-empty list")


@dataclass
class SweepConfig:
    dc_counts: list[int] = field(default_factory=lambda: [40])
    cluster_limits: list[int] = field(default_factory=lambda: [4])
    scales: list[float] = field(default_factory=lambda: [1.0])

    def __post_init__(self):
        if not all(0 < scale < math.inf for scale in self.scales):
            raise ValueError(f"sweep.scales must be positive and finite, got "
                             f"{self.scales}")


@dataclass
class OutputConfig:
    directory: str = "out"
    formats: list[str] = field(default_factory=lambda: list(OUTPUT_FORMATS))

    def __post_init__(self):
        if not self.formats or not set(self.formats) <= set(OUTPUT_FORMATS):
            raise ValueError(f"output.formats must be a non-empty list drawn "
                             f"from {list(OUTPUT_FORMATS)}, got {self.formats!r}")


SECTIONS = {"topology": TopologyConfig, "cluster": ClusterConfig,
            "workload": WorkloadConfig, "drl": ModelConfig, "sim": SimSection,
            "train": TrainConfig, "sweep": SweepConfig, "output": OutputConfig}


@dataclass
class RunConfig:
    topology: TopologyConfig
    cluster: ClusterConfig
    workload: WorkloadConfig
    drl: ModelConfig
    sim: SimSection
    train: TrainConfig
    sweep: SweepConfig | None  # None: no sweep section
    output: OutputConfig
    catalog: Catalog  # the default catalog with workload.overrides applied


def _convert(value, kind, where: str):
    """`value` as the declared field type `kind`: int, float, str or dict, a
    list or tuple of those, or `X | None`; else ValueError."""
    while get_origin(kind) in (Union, UnionType):
        if value is None:
            return None
        kind = get_args(kind)[0]
    origin, args = get_origin(kind), get_args(kind)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        kinds = (args[:1] * len(value) if origin is list or args[-1] is Ellipsis
                 else args)
        if len(kinds) == len(value):
            return origin(_convert(v, k, f"{where}[{i}]")
                          for i, (v, k) in enumerate(zip(value, kinds)))
    elif kind is dict:
        if isinstance(value, dict):
            return value
    elif origin is None and isinstance(value, (int, float, str)) \
            and not isinstance(value, bool):
        try:
            converted = kind(value)
            # an int field takes only whole numbers
            if kind is not int or converted == float(value):
                return converted
        except (ValueError, OverflowError):
            pass
    name = kind.__name__ if origin is None else kind
    raise ValueError(f"{where} must be {name}, got {value!r}")


def from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}")
    built = {}
    try:
        for name, cls in SECTIONS.items():
            content = raw.get(name)
            if name == "sweep" and content in (None, {}):
                built[name] = None  # `sweep` runs only from a non-empty section
                continue
            content = {} if content is None else content
            if not isinstance(content, dict):
                raise ConfigError(f"section {name!r} must be a mapping")
            unknown = set(content) - {f.name for f in fields(cls)}
            if unknown:
                raise ConfigError(
                    f"unknown keys in section {name!r}: {sorted(unknown)}")
            hints = get_type_hints(cls)
            built[name] = cls(**{k: _convert(v, hints[k], f"{name}.{k}")
                                 for k, v in content.items()})
        catalog = catalog_from_config(built["workload"].overrides)
    except (TypeError, ValueError, DrlError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(**built, catalog=catalog)


def load(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    return from_dict(raw)


def resolved_snapshot(cfg: RunConfig, seeds: list[int] | None = None) -> dict:
    """Every field of every section, for byte-identical reruns: `from_dict`
    of its YAML dump equals `cfg`, with `seeds` as `sim.seeds` if given."""
    snap = {}
    for name in SECTIONS:
        section = getattr(cfg, name)
        snap[name] = None if section is None else asdict(section)
    if seeds is not None:
        snap["sim"]["seeds"] = list(seeds)
    return snap
