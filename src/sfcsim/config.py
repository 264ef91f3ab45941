"""Run configuration: YAML loading, strict validation, typed section objects.

Each YAML section is one dataclass and takes exactly that dataclass's fields;
every value is converted to its field's declared type and range, or rejected."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Annotated

import yaml

from .drl import ModelConfig
from .schema import AT_LEAST_0, AT_LEAST_1, AT_LEAST_2, NON_EMPTY, POSITIVE, \
    Range, Section, convert
from .sim import SimConfig, TrainConfig
from .topology import TopologyConfig
from .workload import Catalog, Overrides, catalog_from_config


class ConfigError(ValueError):
    pass


OUTPUT_FORMATS = ("csv", "json")
OUTPUT_FORMAT = Range(f"one of {list(OUTPUT_FORMATS)}", OUTPUT_FORMATS.__contains__)


@dataclass
class ClusterConfig(Section, name="cluster"):
    size_limit: Annotated[int, AT_LEAST_1] = 4


@dataclass
class WorkloadConfig(Section, name="workload"):
    scale: Annotated[float, POSITIVE] = 1.0
    # per-type catalog fields, read by workload.catalog_from_config
    overrides: Overrides | None = None
    replay_file: str | None = None


@dataclass
class SimSection(SimConfig):
    """The SimConfig that eval and training share, plus eval runs' episode
    count and seed list."""
    episodes: Annotated[int, AT_LEAST_1] = 3
    seeds: Annotated[list[Annotated[int, AT_LEAST_0]], NON_EMPTY] = field(
        default_factory=lambda: [0])


@dataclass
class SweepConfig(Section, name="sweep"):
    dc_counts: Annotated[list[Annotated[int, AT_LEAST_2]], NON_EMPTY] = field(
        default_factory=lambda: [40])
    cluster_limits: Annotated[list[Annotated[int, AT_LEAST_1]], NON_EMPTY] = field(
        default_factory=lambda: [4])
    scales: Annotated[list[Annotated[float, POSITIVE]], NON_EMPTY] = field(
        default_factory=lambda: [1.0])


@dataclass
class OutputConfig(Section, name="output"):
    directory: str = "out"
    formats: Annotated[list[Annotated[str, OUTPUT_FORMAT]], NON_EMPTY] = field(
        default_factory=lambda: list(OUTPUT_FORMATS))


SECTIONS = {"topology": TopologyConfig, "cluster": ClusterConfig,
            "workload": WorkloadConfig, "drl": ModelConfig, "sim": SimSection,
            "train": TrainConfig, "sweep": SweepConfig, "output": OutputConfig}


@dataclass
class RunConfig:
    """The sections of a config; an absent section takes its defaults."""
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    drl: ModelConfig = field(default_factory=ModelConfig)
    sim: SimSection = field(default_factory=SimSection)
    train: TrainConfig = field(default_factory=TrainConfig)
    sweep: SweepConfig | None = None  # None: no sweep section
    output: OutputConfig = field(default_factory=OutputConfig)
    # the default catalog with workload.overrides applied
    catalog: Catalog = field(init=False)

    def __post_init__(self):
        self.catalog = catalog_from_config(self.workload.overrides)


def from_dict(raw: dict) -> RunConfig:
    """The RunConfig of a loaded YAML document. A section that is null or
    empty is absent: it takes its defaults, and `sweep` runs only from a
    non-empty section."""
    if isinstance(raw, dict):
        raw = {name: content for name, content in raw.items()
               if content not in (None, {})}
    try:
        return convert(raw, RunConfig, "")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
