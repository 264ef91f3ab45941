"""Authoritative mutable NFV substrate state: installed VNF instances, DC
residual resources, and link residual bandwidth, with exact accounting."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .routing import PathResult
from .topology import DataCenterSpec, LinkSpec, NetworkGraph
from .workload import Placement, SfcRequest, VnfType


class SubstrateError(RuntimeError):
    pass


@dataclass
class VnfInstance:
    instance_id: int
    dc: int
    vnf_type: VnfType
    busy_until: float = 0.0
    allocated_request: int | None = None
    reserved: bool = False  # allocation pending general-agent path assistance

    def is_idle(self) -> bool:
        return self.allocated_request is None and not self.reserved


@dataclass
class DcRuntime:
    spec: DataCenterSpec
    free_vcpu: float = 0.0
    free_ram: float = 0.0
    free_storage: float = 0.0
    installed: dict[str, list[VnfInstance]] = field(default_factory=dict)

    def __post_init__(self):
        self.free_vcpu = self.spec.compute_cap
        self.free_ram = self.spec.ram_cap
        self.free_storage = self.spec.storage_cap

    def instances(self):
        for lst in self.installed.values():
            yield from lst


class LinkRuntime:
    """A link's reservations and its free bandwidth. Reservations change only
    through `Substrate`, which refreshes `free_bw` after every change."""

    __slots__ = ("link", "reservations", "free_bw")

    def __init__(self, link: LinkSpec):
        self.link = link
        self.reservations: dict[int, float] = {}  # request id -> Mbps
        self.free_bw = self.computed_free_bw()

    def computed_free_bw(self) -> float:
        """Free bandwidth recomputed from the reservations in request-id order."""
        return self.link.bandwidth_cap - math.fsum(
            self.reservations[r] for r in sorted(self.reservations))


@dataclass
class AllocationRecord:
    request_id: int
    chain_index: int
    instance: VnfInstance
    waited: float  # ms spent queued before this allocation
    busy_until: float


@dataclass
class UninstallOutcome:
    removed: bool
    penalty: float = 0.0


class Substrate:
    """Mutable runtime state over a NetworkGraph."""

    def __init__(self, graph: NetworkGraph):
        self.graph = graph
        self.dcs: dict[int, DcRuntime] = {dc.id: DcRuntime(dc) for dc in graph.dcs}
        self.links: dict[tuple[int, int], LinkRuntime] = {
            l.key: LinkRuntime(l) for l in graph.links}
        # request id -> the links it reserved on (one entry per reservation)
        self._held: dict[int, list[LinkRuntime]] = {}
        self._next_instance_id = 0

    # ---- link state -------------------------------------------------------

    def link_free(self, link: LinkSpec) -> float:
        return self.links[link.key].free_bw

    def reserve_bandwidth(self, path: PathResult, request: SfcRequest) -> bool:
        """Reserve request.bandwidth on every link of the path, all-or-nothing."""
        runtimes = [self.links[l.key] for l in path.links_used]
        if any(rt.free_bw < request.bandwidth for rt in runtimes):
            return False
        for rt in runtimes:
            rt.reservations[request.id] = rt.reservations.get(request.id, 0.0) \
                + request.bandwidth
            rt.free_bw = rt.computed_free_bw()
            self._held.setdefault(request.id, []).append(rt)
        return True

    def release_bandwidth(self, request_id: int) -> None:
        """Drop all reservations held by the request; idempotent."""
        for rt in self._held.pop(request_id, ()):
            rt.reservations.pop(request_id, None)
            rt.free_bw = rt.computed_free_bw()

    # ---- DC / instance state ---------------------------------------------

    def can_place(self, dc_id: int, vnf: VnfType) -> bool:
        dc = self.dcs[dc_id]
        return (dc.free_vcpu >= vnf.vcpu and dc.free_ram >= vnf.ram
                and dc.free_storage >= vnf.storage)

    def place_vnf(self, dc_id: int, vnf: VnfType) -> VnfInstance:
        if not self.can_place(dc_id, vnf):
            raise SubstrateError(f"insufficient resources on DC {dc_id} for {vnf.name}")
        dc = self.dcs[dc_id]
        dc.free_vcpu -= vnf.vcpu
        dc.free_ram -= vnf.ram
        dc.free_storage -= vnf.storage
        inst = VnfInstance(self._next_instance_id, dc_id, vnf)
        self._next_instance_id += 1
        dc.installed.setdefault(vnf.name, []).append(inst)
        return inst

    def uninstall_vnf(self, instance: VnfInstance, now: float,
                      needed: bool = False) -> UninstallOutcome:
        dc = self.dcs[instance.dc]
        lst = dc.installed.get(instance.vnf_type.name, [])
        if instance not in lst:
            raise SubstrateError(f"unknown instance {instance.instance_id}")
        if instance.allocated_request is not None or instance.reserved:
            return UninstallOutcome(removed=False)
        lst.remove(instance)
        vnf = instance.vnf_type
        dc.free_vcpu += vnf.vcpu
        dc.free_ram += vnf.ram
        dc.free_storage += vnf.storage
        return UninstallOutcome(removed=True, penalty=-0.5 if needed else 0.0)

    def allocate(self, request: SfcRequest, k: int, instance: VnfInstance,
                 now: float, transfer_delay: float = 0.0) -> AllocationRecord:
        """Bind an idle instance to the request's k-th VNF at time `now`."""
        if k != request.next_vnf_index:
            raise SubstrateError(
                f"request {request.id}: chain index {k} already processed or not ready")
        vnf = request.sfc_type.chain[k]
        if instance.vnf_type.name != vnf.name:
            raise SubstrateError(
                f"type mismatch: instance {instance.vnf_type.name} vs chain {vnf.name}")
        if instance.allocated_request is not None:
            raise SubstrateError(f"instance {instance.instance_id} is busy")
        waited = max(0.0, now - request.ready_time)
        start = now + transfer_delay
        instance.allocated_request = request.id
        instance.reserved = False
        instance.busy_until = start + vnf.proc_time
        request.placements.append(Placement(instance.dc, start, instance.busy_until))
        request.next_vnf_index = k + 1
        request.processing_total += waited + vnf.proc_time
        return AllocationRecord(request.id, k, instance, waited, instance.busy_until)

    # ---- idle / capacity queries -----------------------------------------

    def idle_instances(self, dc_id: int, vnf_name: str, now: float) -> list[VnfInstance]:
        return [i for i in self.dcs[dc_id].installed.get(vnf_name, [])
                if i.is_idle()]

    def installed_count(self, dc_id: int, vnf_name: str) -> int:
        return len(self.dcs[dc_id].installed.get(vnf_name, []))

    def cluster_can_host(self, dc_ids, vnf: VnfType, now: float) -> bool:
        """True if some DC has an instance of the type installed (busy ones
        become reusable once processing completes) or room to place one."""
        for d in dc_ids:
            if self.installed_count(d, vnf.name) or self.can_place(d, vnf):
                return True
        return False

    # ---- verification and export -----------------------------------------

    def verify_accounting(self) -> None:
        """Recompute every residual from first principles; raise on any drift."""
        for dc_id, dc in self.dcs.items():
            used_vcpu = sum(i.vnf_type.vcpu for i in dc.instances())
            used_ram = math.fsum(i.vnf_type.ram for i in dc.instances())
            used_sto = math.fsum(i.vnf_type.storage for i in dc.instances())
            if dc.free_vcpu != dc.spec.compute_cap - used_vcpu:
                raise SubstrateError(f"DC {dc_id}: vCPU accounting drift")
            if dc.free_ram != dc.spec.ram_cap - used_ram:
                raise SubstrateError(f"DC {dc_id}: RAM accounting drift")
            if dc.free_storage != dc.spec.storage_cap - used_sto:
                raise SubstrateError(f"DC {dc_id}: storage accounting drift")
            if dc.free_vcpu < 0 or dc.free_ram < 0 or dc.free_storage < 0:
                raise SubstrateError(f"DC {dc_id}: capacity exceeded")
        for key, rt in self.links.items():
            if rt.free_bw != rt.computed_free_bw():
                raise SubstrateError(f"link {key}: bandwidth accounting drift")
            if rt.free_bw < -1e-12:
                raise SubstrateError(f"link {key}: bandwidth exceeded")

    def snapshot(self) -> dict:
        return {
            "dcs": {
                str(dc_id): {
                    "free_vcpu": dc.free_vcpu,
                    "free_ram": dc.free_ram,
                    "free_storage": dc.free_storage,
                    "installed": {
                        name: [{"id": i.instance_id, "busy_until": i.busy_until,
                                "request": i.allocated_request}
                               for i in lst]
                        for name, lst in sorted(dc.installed.items()) if lst
                    },
                } for dc_id, dc in sorted(self.dcs.items())
            },
            "links": {
                f"{a}-{b}": {
                    "free_bw": rt.free_bw,
                    "reservations": {str(r): bw for r, bw
                                     in sorted(rt.reservations.items())},
                } for (a, b), rt in sorted(self.links.items())
            },
        }

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)
