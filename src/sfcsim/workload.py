"""SFC/VNF catalogs and randomized request-bundle generation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .schema import convert
from .topology import NetworkGraph

if TYPE_CHECKING:
    from .drl import PendingItem

VNF_ORDER = ["NAT", "FW", "VOC", "TM", "WO", "IDPS"]
SFC_ORDER = ["CG", "AR", "VoIP", "VS", "MIoT", "Ind4.0"]

# normalization constants shared with the DRL state encoder
MAX_E2E_TOLERANCE_MS = 100.0
BW_NORM_MBPS = 100.0

PENDING = "pending"
ACCEPTED = "accepted"
DROPPED = "dropped"


@dataclass(frozen=True)
class VnfType:
    name: str
    vcpu: int
    ram: float  # GB
    storage: float  # GB
    proc_time: float  # ms

    def __post_init__(self):
        values = (self.vcpu, self.ram, self.storage, self.proc_time)
        if not all(0 < v < math.inf for v in values):  # also NaN
            raise ValueError(f"VNF {self.name}: vcpu, ram, storage and "
                             f"proc_time must be positive and finite, got "
                             f"{values}")


@dataclass(frozen=True)
class SfcType:
    name: str
    chain: tuple[VnfType, ...]
    bandwidth: float | tuple[float, float]  # Mbps, or uniform range
    e2e_tolerance: float  # ms
    bundle_range: tuple[int, int]
    # chain-position tables, indexed by a request's next_vnf_index (0..n);
    # derived from `chain`, so equality and hash ignore them
    next_vnfs: tuple[VnfType | None, ...] = field(
        init=False, compare=False, repr=False)
    remaining_proc: tuple[float, ...] = field(
        init=False, compare=False, repr=False)
    completion: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.chain:
            raise ValueError(f"SFC {self.name}: chain must be non-empty")
        if not 0 < self.e2e_tolerance < math.inf:  # also NaN
            raise ValueError(f"SFC {self.name}: tolerance must be positive and "
                             f"finite, got {self.e2e_tolerance!r}")
        bw = self.bandwidth
        lo_hi = bw if isinstance(bw, tuple) else (bw, bw)
        if len(lo_hi) != 2 or not 0 < lo_hi[0] <= lo_hi[1] < math.inf:
            raise ValueError(f"SFC {self.name}: bandwidth must be positive and "
                             f"finite or a range 0 < lo <= hi < inf, got {bw!r}")
        lo, hi = self.bundle_range
        if lo > hi or lo < 0:
            raise ValueError(f"SFC {self.name}: empty bundle range")
        n = len(self.chain)
        positions = range(n + 1)
        object.__setattr__(self, "next_vnfs", self.chain + (None,))
        object.__setattr__(self, "remaining_proc", tuple(
            sum(v.proc_time for v in self.chain[k:]) for k in positions))
        object.__setattr__(self, "completion", tuple(k / n for k in positions))


# A request is an entity with mutable progress: equality is identity, so
# removing one from a queue compares pointers, not every field.
@dataclass(eq=False)
class SfcRequest:
    id: int
    sfc_type: SfcType
    bandwidth: float
    source_dc: int
    dest_dc: int
    next_vnf_index: int = 0
    propagation_total: float = 0.0
    processing_total: float = 0.0
    status: str = PENDING
    # runtime bookkeeping
    loc: int = -1  # current DC of the packet
    ready_time: float = 0.0  # when it became ready for the next VNF
    origin_cluster: int = -1
    hop_log: list[tuple] = field(default_factory=list)
    drop_reason: str | None = None
    drop_time: float | None = None
    # the drl.PendingItem of the request's current or latest queue stay: made
    # by `World.enqueue` when the request joins a queue in another cluster or
    # at another chain position than the item's, with the stay's due step,
    # and kept unchanged while the request waits there
    item: PendingItem | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.loc < 0:
            self.loc = self.source_dc

    def fresh_copy(self) -> "SfcRequest":
        """A pristine copy with all runtime progress reset (for replays)."""
        return SfcRequest(self.id, self.sfc_type, self.bandwidth,
                          self.source_dc, self.dest_dc)

    @property
    def accrued_delay(self) -> float:
        return self.propagation_total + self.processing_total

    @property
    def next_vnf(self) -> VnfType | None:
        return self.sfc_type.next_vnfs[self.next_vnf_index]


@dataclass
class Catalog:
    vnfs: dict[str, VnfType]
    sfcs: dict[str, SfcType]


_VNF_ROWS = [
    # name, vcpu, ram GB, storage GB, proc time ms
    ("NAT", 1, 4, 7, 0.06),
    ("FW", 9, 5, 1, 0.03),
    ("VOC", 5, 11, 13, 0.11),
    ("TM", 13, 7, 7, 0.07),
    ("WO", 5, 2, 5, 0.08),
    ("IDPS", 11, 15, 2, 0.02),
]

_SFC_ROWS = [
    # name, chain, bandwidth Mbps, e2e tolerance ms, bundle range
    ("CG", ["NAT", "FW", "VOC", "WO", "IDPS"], 4.0, 80.0, (40, 55)),
    ("AR", ["NAT", "FW", "TM", "VOC", "IDPS"], 100.0, 10.0, (1, 4)),
    ("VoIP", ["NAT", "FW", "TM", "FW", "NAT"], 0.064, 100.0, (100, 200)),
    ("VS", ["NAT", "FW", "TM", "VOC", "IDPS"], 4.0, 100.0, (50, 100)),
    ("MIoT", ["NAT", "FW", "IDPS"], (1.0, 50.0), 5.0, (10, 15)),
    ("Ind4.0", ["NAT", "FW"], 70.0, 8.0, (1, 4)),
]


def default_catalog() -> Catalog:
    """The six standard VNF types and six SFC service classes."""
    vnfs = {name: VnfType(name, vcpu, ram, sto, pt)
            for name, vcpu, ram, sto, pt in _VNF_ROWS}
    sfcs = {}
    for name, chain, bw, tol, bundle in _SFC_ROWS:
        bw_val = tuple(bw) if isinstance(bw, tuple) else float(bw)
        sfcs[name] = SfcType(name, tuple(vnfs[v] for v in chain), bw_val, tol, bundle)
    return Catalog(vnfs, sfcs)


# a `workload.overrides` entry: the fields it sets; unset ones keep the
# catalog's, and `chain` names VNFs of the overridden catalog
@dataclass(frozen=True)
class VnfOverride:
    vcpu: int | None = None
    ram: float | None = None
    storage: float | None = None
    proc_time: float | None = None


@dataclass(frozen=True)
class SfcOverride:
    chain: tuple[str, ...] | None = None
    bandwidth: float | tuple[float, float] | None = None
    e2e_tolerance: float | None = None
    bundle_range: tuple[int, int] | None = None


@dataclass(frozen=True)
class Overrides:
    """The `workload.overrides` value: VNF and SFC type name -> override."""
    vnfs: dict[str, VnfOverride] | None = None
    sfcs: dict[str, SfcOverride] | None = None


def _set(override) -> dict:
    """The fields that `override` sets."""
    return {k: v for k, v in vars(override).items() if v is not None}


def catalog_from_config(overrides: Overrides | dict | None) -> Catalog:
    """Default catalog with the `workload.overrides` applied, given as an
    `Overrides` or a mapping of its fields; an override of an unknown type,
    a chain of an unknown VNF, or a value its field or type does not take
    raises ValueError."""
    overrides = convert(overrides, Overrides | None, "workload.overrides")
    cat = default_catalog()
    if overrides is None:
        return cat
    vnf_overrides, sfc_overrides = overrides.vnfs or {}, overrides.sfcs or {}
    for section, given, table in (("vnfs", vnf_overrides, cat.vnfs),
                                  ("sfcs", sfc_overrides, cat.sfcs)):
        if unknown := [name for name in given if name not in table]:
            raise ValueError(f"workload.overrides.{section}: unknown names "
                             f"{unknown}, expected {list(table)}")
    vnfs = {name: replace(vnf, **_set(vnf_overrides.get(name, VnfOverride())))
            for name, vnf in cat.vnfs.items()}
    sfcs = {}
    for name, sfc in cat.sfcs.items():
        values = _set(sfc_overrides.get(name, SfcOverride()))
        chain = values.pop("chain", [v.name for v in sfc.chain])
        if unknown := [v for v in chain if v not in vnfs]:
            raise ValueError(f"workload.overrides.sfcs.{name}.chain: unknown "
                             f"VNFs {unknown}")
        # every chain takes the overridden VNFs
        sfcs[name] = replace(sfc, chain=tuple(vnfs[v] for v in chain), **values)
    return Catalog(vnfs, sfcs)


def generate_bundles(catalog: Catalog, graph: NetworkGraph, scale: float,
                     rng: np.random.Generator) -> list[SfcRequest]:
    """Generate one episode's request bundles; deterministic for a fixed rng."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = graph.dc_count
    requests: list[SfcRequest] = []
    rid = 0
    for name in SFC_ORDER:
        sfc = catalog.sfcs[name]
        lo, hi = sfc.bundle_range
        count = round(scale * int(rng.integers(lo, hi + 1)))
        for _ in range(count):
            src = int(rng.integers(n))
            dst = int(rng.integers(n - 1))
            if dst >= src:
                dst += 1
            if isinstance(sfc.bandwidth, tuple):
                bw = float(rng.uniform(sfc.bandwidth[0], sfc.bandwidth[1]))
            else:
                bw = sfc.bandwidth
            requests.append(SfcRequest(rid, sfc, bw, src, dst))
            rid += 1
    return requests


def export_workload(requests: list[SfcRequest], path: str) -> None:
    """Write requests as line-delimited JSON records for reproducible replays."""
    with open(path, "w") as fh:
        for r in requests:
            fh.write(json.dumps({
                "id": r.id,
                "sfc_type": r.sfc_type.name,
                "bandwidth": r.bandwidth,
                "source_dc": r.source_dc,
                "dest_dc": r.dest_dc,
            }) + "\n")


def import_workload(catalog: Catalog, path: str) -> list[SfcRequest]:
    """The requests of a file written by `export_workload`. A line that is
    not a request record of a catalog SFC type with positive, finite
    bandwidth and an `arrival` that is absent or 0, or that repeats a request
    id, raises ValueError naming the line."""
    requests = []
    ids = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path} line {lineno}"
            try:
                rec = json.loads(line)
                sfc = catalog.sfcs.get(rec["sfc_type"])
                if sfc is None:
                    raise ValueError(f"unknown sfc_type {rec['sfc_type']!r}")
                request = SfcRequest(
                    id=convert(rec["id"], int, "id"),
                    sfc_type=sfc,
                    bandwidth=float(rec["bandwidth"]),
                    source_dc=convert(rec["source_dc"], int, "source_dc"),
                    dest_dc=convert(rec["dest_dc"], int, "dest_dc"),
                )
                if not 0 < request.bandwidth < math.inf:  # also NaN
                    raise ValueError(f"bandwidth must be positive and finite, "
                                     f"got {request.bandwidth}")
                # every request is queued at time 0
                if float(rec.get("arrival", 0.0)) != 0.0:
                    raise ValueError(
                        f"arrival must be 0 or absent, got {rec['arrival']!r}")
            except KeyError as exc:
                raise ValueError(f"{where}: missing field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: {exc}") from None
            if request.id in ids:
                raise ValueError(f"{where}: duplicate request id {request.id}")
            ids.add(request.id)
            requests.append(request)
    return requests
