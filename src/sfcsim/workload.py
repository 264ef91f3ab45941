"""SFC/VNF catalogs and randomized request-bundle generation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .topology import NetworkGraph

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
        if self.vcpu <= 0 or self.ram <= 0 or self.storage <= 0 or self.proc_time <= 0:
            raise ValueError(f"VNF {self.name}: all fields must be positive")


@dataclass(frozen=True)
class SfcType:
    name: str
    chain: tuple[VnfType, ...]
    bandwidth: float | tuple[float, float]  # Mbps, or uniform range
    e2e_tolerance: float  # ms
    bundle_range: tuple[int, int]
    # chain-position tables, indexed by a request's next_vnf_index (0..n);
    # derived from `chain`, so equality and hash ignore them
    chain_length: int = field(init=False, compare=False, repr=False)
    next_vnfs: tuple[VnfType | None, ...] = field(
        init=False, compare=False, repr=False)
    remaining_proc: tuple[float, ...] = field(
        init=False, compare=False, repr=False)
    completion: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.chain:
            raise ValueError(f"SFC {self.name}: chain must be non-empty")
        if self.e2e_tolerance <= 0:
            raise ValueError(f"SFC {self.name}: tolerance must be positive")
        lo, hi = self.bundle_range
        if lo > hi or lo < 0:
            raise ValueError(f"SFC {self.name}: empty bundle range")
        n = len(self.chain)
        positions = range(n + 1)
        object.__setattr__(self, "chain_length", n)
        object.__setattr__(self, "next_vnfs", self.chain + (None,))
        object.__setattr__(self, "remaining_proc", tuple(
            sum(v.proc_time for v in self.chain[k:]) for k in positions))
        object.__setattr__(self, "completion", tuple(k / n for k in positions))


@dataclass
class Placement:
    dc: int
    start: float
    finish: float


# A request is an entity with mutable progress: equality is identity, so
# removing one from a queue compares pointers, not every field.
@dataclass(eq=False)
class SfcRequest:
    id: int
    sfc_type: SfcType
    bandwidth: float
    source_dc: int
    dest_dc: int
    arrival: float = 0.0
    next_vnf_index: int = 0
    placements: list[Placement] = field(default_factory=list)
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

    def __post_init__(self):
        if self.loc < 0:
            self.loc = self.source_dc

    def fresh_copy(self) -> "SfcRequest":
        """A pristine copy with all runtime progress reset (for replays)."""
        return SfcRequest(self.id, self.sfc_type, self.bandwidth,
                          self.source_dc, self.dest_dc, self.arrival)

    @property
    def accrued_delay(self) -> float:
        return self.propagation_total + self.processing_total

    @property
    def next_vnf(self) -> VnfType | None:
        return self.sfc_type.next_vnfs[self.next_vnf_index]

    @property
    def remaining_proc_time(self) -> float:
        return self.sfc_type.remaining_proc[self.next_vnf_index]

    @property
    def completion_fraction(self) -> float:
        return self.sfc_type.completion[self.next_vnf_index]

    def remaining_tolerance(self, now: float) -> float:
        """Slack left after accrued delay and time already spent waiting."""
        waited = max(0.0, now - self.ready_time)
        return self.sfc_type.e2e_tolerance - self.accrued_delay - waited


@dataclass
class Catalog:
    vnfs: dict[str, VnfType]
    sfcs: dict[str, SfcType]

    def vnf(self, name: str) -> VnfType:
        return self.vnfs[name]

    def sfc(self, name: str) -> SfcType:
        return self.sfcs[name]


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


def catalog_from_config(overrides: dict | None) -> Catalog:
    """Default catalog with optional per-type field overrides from config."""
    cat = default_catalog()
    if not overrides:
        return cat
    vnfs = dict(cat.vnfs)
    for name, fields in (overrides.get("vnfs") or {}).items():
        base = vnfs[name]
        vnfs[name] = VnfType(
            name,
            int(fields.get("vcpu", base.vcpu)),
            float(fields.get("ram", base.ram)),
            float(fields.get("storage", base.storage)),
            float(fields.get("proc_time", base.proc_time)),
        )
    sfcs = {}
    for name, base in cat.sfcs.items():
        fields = (overrides.get("sfcs") or {}).get(name, {})
        chain_names = fields.get("chain", [v.name for v in base.chain])
        bw = fields.get("bandwidth", base.bandwidth)
        sfcs[name] = SfcType(
            name,
            tuple(vnfs[v] for v in chain_names),
            tuple(bw) if isinstance(bw, (list, tuple)) else float(bw),
            float(fields.get("e2e_tolerance", base.e2e_tolerance)),
            tuple(fields.get("bundle_range", base.bundle_range)),
        )
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
                "arrival": r.arrival,
            }) + "\n")


def import_workload(catalog: Catalog, path: str) -> list[SfcRequest]:
    requests = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            requests.append(SfcRequest(
                id=int(rec["id"]),
                sfc_type=catalog.sfcs[rec["sfc_type"]],
                bandwidth=float(rec["bandwidth"]),
                source_dc=int(rec["source_dc"]),
                dest_dc=int(rec["dest_dc"]),
                arrival=float(rec.get("arrival", 0.0)),
            ))
    return requests
