"""Authoritative mutable NFV substrate state: installed VNF instances, DC
residual resources, and link residual bandwidth, with exact accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .routing import PathResult
from .topology import DataCenterSpec, LinkSpec, NetworkGraph
from .workload import VNF_ORDER, SfcRequest, VnfType


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
    """A DC's residual resources, installed instances, and installed and
    idle instance counts per VNF type in VNF_ORDER. All four change only
    through `Substrate`, which recomputes the free resources and keeps the
    installed counts at each placement and removal, and keeps the idle
    counts at every change of an instance."""
    spec: DataCenterSpec
    free_vcpu: float = 0.0
    free_ram: float = 0.0
    free_storage: float = 0.0
    installed: dict[str, list[VnfInstance]] = field(default_factory=dict)
    installed_counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(VNF_ORDER, 0))
    idle: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(VNF_ORDER, 0))

    def __post_init__(self):
        self.free_vcpu, self.free_ram, self.free_storage = self.computed_free()

    def instances(self):
        for lst in self.installed.values():
            yield from lst

    def computed_free(self) -> tuple[float, float, float]:
        """Free vCPU, RAM and storage recomputed from the installed
        instances. `fsum` is correctly rounded, so fractional RAM and storage
        do not depend on the order of placements and removals."""
        vnfs = [i.vnf_type for i in self.instances()]
        return (self.spec.compute_cap - sum(v.vcpu for v in vnfs),
                self.spec.ram_cap - math.fsum(v.ram for v in vnfs),
                self.spec.storage_cap - math.fsum(v.storage for v in vnfs))


class LinkRuntime:
    """A link's reservations and its free bandwidth. Reservations change only
    through `Substrate`, which refreshes `free_bw` after every change."""

    __slots__ = ("link", "reservations", "free_bw")

    def __init__(self, link: LinkSpec):
        self.link = link
        self.reservations: dict[int, float] = {}  # request id -> Mbps
        self.free_bw = self.computed_free_bw()

    def computed_free_bw(self) -> float:
        """Free bandwidth recomputed from the reservations. `fsum` is
        correctly rounded, so the result does not depend on their order."""
        return self.link.bandwidth_cap - math.fsum(self.reservations.values())


class Substrate:
    """Mutable runtime state over a NetworkGraph."""

    def __init__(self, graph: NetworkGraph):
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
        """Reserve request.bandwidth on every link of the path, all-or-nothing.
        A link the path lists more than once needs room for every share."""
        need: dict[LinkRuntime, float] = {}
        for link in path.links_used:
            rt = self.links[link.key]
            need[rt] = need.get(rt, 0.0) + request.bandwidth
        if any(rt.free_bw < bw for rt, bw in need.items()):
            return False
        held = self._held.setdefault(request.id, [])
        for rt, bw in need.items():
            rt.reservations[request.id] = rt.reservations.get(request.id, 0.0) + bw
            rt.free_bw = rt.computed_free_bw()
            held.append(rt)
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
        inst = VnfInstance(self._next_instance_id, dc_id, vnf)
        self._next_instance_id += 1
        dc.installed.setdefault(vnf.name, []).append(inst)
        dc.free_vcpu, dc.free_ram, dc.free_storage = dc.computed_free()
        dc.installed_counts[vnf.name] += 1
        dc.idle[vnf.name] += 1
        return inst

    def uninstall_vnf(self, instance: VnfInstance) -> None:
        """Remove an idle instance and free its resources. An allocated or
        reserved instance is refused, with nothing changed."""
        dc = self.dcs[instance.dc]
        lst = dc.installed.get(instance.vnf_type.name, [])
        if instance not in lst:
            raise SubstrateError(f"unknown instance {instance.instance_id}")
        if not instance.is_idle():
            raise SubstrateError(f"instance {instance.instance_id} is busy")
        lst.remove(instance)
        dc.free_vcpu, dc.free_ram, dc.free_storage = dc.computed_free()
        dc.installed_counts[instance.vnf_type.name] -= 1
        dc.idle[instance.vnf_type.name] -= 1

    def allocate(self, request: SfcRequest, instance: VnfInstance,
                 now: float, transfer_delay: float) -> float:
        """Bind an idle instance to the request's next VNF at time `now`,
        starting once the packet arrives `transfer_delay` ms later; return
        the ms the request waited for it."""
        k = request.next_vnf_index
        vnf = request.sfc_type.chain[k]
        if instance.vnf_type.name != vnf.name:
            raise SubstrateError(
                f"type mismatch: instance {instance.vnf_type.name} vs chain {vnf.name}")
        if instance.allocated_request is not None:
            raise SubstrateError(f"instance {instance.instance_id} is busy")
        waited = max(0.0, now - request.ready_time)
        if instance.reserved:  # already counted busy when it was reserved
            instance.reserved = False
        else:
            self.dcs[instance.dc].idle[vnf.name] -= 1
        instance.allocated_request = request.id
        # processing starts once the packet has arrived
        instance.busy_until = now + transfer_delay + vnf.proc_time
        request.next_vnf_index = k + 1
        request.processing_total += waited + vnf.proc_time
        return waited

    def reserve_instance(self, instance: VnfInstance) -> None:
        """Hold an idle instance for an allocation that waits for the
        general agent's path assistance."""
        instance.reserved = True
        self.dcs[instance.dc].idle[instance.vnf_type.name] -= 1

    def unreserve_instance(self, instance: VnfInstance) -> None:
        """Give back a held instance whose assisted allocation found no
        path."""
        instance.reserved = False
        self.dcs[instance.dc].idle[instance.vnf_type.name] += 1

    def free_instance(self, instance: VnfInstance) -> None:
        """Unbind an instance whose processing has completed."""
        instance.allocated_request = None
        self.dcs[instance.dc].idle[instance.vnf_type.name] += 1

    # ---- idle / capacity queries -----------------------------------------

    def idle_instances(self, dc_id: int, vnf_name: str) -> list[VnfInstance]:
        return [i for i in self.dcs[dc_id].installed.get(vnf_name, [])
                if i.is_idle()]

    def installed_count(self, dc_id: int, vnf_name: str) -> int:
        return len(self.dcs[dc_id].installed.get(vnf_name, []))

    def cluster_can_host(self, dc_ids, vnf: VnfType) -> bool:
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
            for resource, free, computed in zip(
                    ("vCPU", "RAM", "storage"),
                    (dc.free_vcpu, dc.free_ram, dc.free_storage),
                    dc.computed_free()):
                if free != computed:
                    raise SubstrateError(
                        f"DC {dc_id}: {resource} accounting drift")
            if dc.free_vcpu < 0 or dc.free_ram < 0 or dc.free_storage < 0:
                raise SubstrateError(f"DC {dc_id}: capacity exceeded")
            for v in VNF_ORDER:
                instances = dc.installed.get(v, ())
                if dc.installed_counts[v] != len(instances):
                    raise SubstrateError(f"DC {dc_id}: {v} installed count drift")
                if dc.idle[v] != sum(i.is_idle() for i in instances):
                    raise SubstrateError(f"DC {dc_id}: {v} idle count drift")
        for key, rt in self.links.items():
            if rt.free_bw != rt.computed_free_bw():
                raise SubstrateError(f"link {key}: bandwidth accounting drift")
            if rt.free_bw < -1e-12:
                raise SubstrateError(f"link {key}: bandwidth exceeded")
