"""Multi-input Q-network with an attention block, replay memory, and DQN updates.

A state is one fixed-length row of three aggregate blocks, whatever the
cluster's DC count, so the same weights apply to clusters of any size.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .schema import AT_LEAST_1, BELOW_1, POSITIVE, UNIT, Section
from .workload import (BW_NORM_MBPS, MAX_E2E_TOLERANCE_MS, SFC_ORDER, VNF_ORDER,
                       Catalog, SfcType)

SFC_FEATURES = 4 + len(VNF_ORDER)  # per-type summary + next-VNF histogram
INPUT_A_DIM = len(SFC_ORDER) * SFC_FEATURES            # 60
INPUT_B_DIM = 2 * len(VNF_ORDER) + 3                   # 15
INPUT_C_DIM = INPUT_A_DIM + 2                          # 62
STATE_DIM = INPUT_A_DIM + INPUT_B_DIM + INPUT_C_DIM    # 137: a replay row
_C_START = INPUT_A_DIM + INPUT_B_DIM  # the first column of input C
INSTANCE_NORM = 10.0
_VNF_INDEX = {name: i for i, name in enumerate(VNF_ORDER)}
_ZERO_HISTOGRAM = (0.0,) * len(VNF_ORDER)
_ZERO_BLOCK = (0.0,) * SFC_FEATURES
# the first column of each SFC type's slice in an INPUT_A_DIM summary
_SFC_BASE = {name: t * SFC_FEATURES for t, name in enumerate(SFC_ORDER)}

_MAGIC = b"SFCQNET1"


class DrlError(RuntimeError):
    pass


@dataclass
class ModelConfig(Section, name="drl"):
    branch_width: Annotated[int, AT_LEAST_1] = 32
    hidden_widths: tuple[Annotated[int, AT_LEAST_1], ...] = (128, 64)
    learning_rate: Annotated[float, POSITIVE] = 1e-3
    momentum: Annotated[float, BELOW_1] = 0.9
    discount: Annotated[float, UNIT] = 0.95
    epsilon_start: Annotated[float, UNIT] = 1.0
    epsilon_end: Annotated[float, UNIT] = 0.05
    epsilon_decay: Annotated[float, UNIT] = 0.995
    replay_capacity: Annotated[int, AT_LEAST_1] = 200_000
    batch_size: Annotated[int, AT_LEAST_1] = 64
    target_sync: Annotated[int, AT_LEAST_1] = 50

    def __post_init__(self):
        super().__post_init__()
        if self.batch_size > self.replay_capacity:  # no update could run
            raise ValueError(f"drl.batch_size {self.batch_size} exceeds "
                             f"drl.replay_capacity {self.replay_capacity}")
        try:  # as much as the replay arrays take, reserved and released
            np.empty((self.replay_capacity, 2 * STATE_DIM + 5))
        except MemoryError:
            raise ValueError(f"drl.replay_capacity {self.replay_capacity} is too "
                             "large: its replay arrays cannot be reserved") from None

    @property
    def action_count(self) -> int:
        return 2 * len(VNF_ORDER) + 1

    def arch_dict(self) -> dict:
        return {"branch_width": self.branch_width,
                "hidden_widths": list(self.hidden_widths),
                "vnf_count": len(VNF_ORDER)}

    def arch_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.arch_dict(), sort_keys=True).encode()).hexdigest()


@dataclass
class StateEncoding:
    """One state as the STATE_DIM row that `act`, replay and `QNetwork`
    take: the current DC's incoming SFC summary (INPUT_A_DIM floats), its
    resources and installed VNFI counts (INPUT_B_DIM), and the cluster-wide
    SFC summary plus coordinator signals (INPUT_C_DIM)."""
    row: np.ndarray


# identity hash: an agent files the item of one request in its groups and
# unfiles it when the request leaves the queue
@dataclass(frozen=True, slots=True, eq=False)
class PendingItem:
    """A queued request as the state encoder reads it. `World.enqueue` makes
    the item when the request starts a queue stay, that is, when it joins a
    queue at another cluster or chain position than its latest item's
    (`cluster_id`, `chain_pos`), and keeps it on the request
    (`SfcRequest.item`); a request put back in the same queue at the same
    position keeps its item. Nothing in it changes during the stay: the
    remaining slack at step `now` is `base_ms - max(0, now - ready)`, and
    `due` is the first step at which the deadline pass drops the request."""
    sfc_name: str
    base_ms: float  # tolerance minus accrued delay
    ready: float  # the request's ready_time: its wait counts from here
    bandwidth: float
    completion_frac: float
    next_vnf_name: str
    out_of_cluster: bool  # the destination lies outside `cluster_id`
    cluster_id: int
    chain_pos: int  # the request's next_vnf_index
    due: float  # the step at which the stay misses its deadline


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


# `_clip01(n / INSTANCE_NORM)` for each instance count n up to INSTANCE_NORM;
# every larger count clips to 1.0
_INSTANCE_FRACS = tuple(_clip01(n / INSTANCE_NORM)
                        for n in range(int(INSTANCE_NORM) + 1))


def _group_summary(group: dict[PendingItem, None],
                   sfc: SfcType) -> list[float]:
    """One SFC type's SFC_FEATURES floats but the least remaining slack,
    left 0.0 (`_least_slack` fills it in): count, mean bandwidth, mean
    completion and the next-VNF histogram, which change only with the
    group's items. Python's left-to-right `sum` over the group in queue
    order fixes the bits."""
    n, most = len(group), sfc.bundle_range[1]
    # a bundle range that ends at 0 reads as full: the clip of n / 0
    out = [_clip01(n / most) if most else 1.0, 0.0,
           _clip01(sum([it.bandwidth for it in group]) / n / BW_NORM_MBPS),
           _clip01(sum([it.completion_frac for it in group]) / n)]
    out.extend(_ZERO_HISTOGRAM)
    share = 1.0 / n
    for it in group:
        out[4 + _VNF_INDEX[it.next_vnf_name]] += share
    return out


def _least_slack(group: dict[PendingItem, None], now: float) -> float:
    """The group's least remaining slack at `now`, as its summary holds it.
    An item's slack is `base_ms - max(0, now - ready)`, with the
    conditional in place of the call."""
    least = min([it.base_ms - (w if (w := now - it.ready) > 0.0 else 0.0)
                 for it in group])
    return _clip01(least / MAX_E2E_TOLERANCE_MS)


class SfcGroups:
    """Pending items grouped per SFC type (SFC name -> items), each group in
    the order the items were added, which is queue order: an agent adds a
    request's item when the request joins its queue and removes it when the
    request leaves. The groups keep their summary as one INPUT_A_DIM row: an
    add or a remove only marks its type stale, and `summary` rewrites the
    slices of the stale types and, when the step has moved on, the least
    slack of every other non-empty type."""
    __slots__ = ("_groups", "_row", "_stale", "_now")

    def __init__(self):
        # insertion-ordered dicts as ordered sets: removal is O(1)
        self._groups: dict[str, dict[PendingItem, None]] = {}
        self._row = np.zeros(INPUT_A_DIM)  # the summary at step `_now`
        self._stale: set[str] = set()  # types whose slice is out of date
        self._now: float | None = None

    def add(self, item: PendingItem) -> None:
        group = self._groups.get(item.sfc_name)
        if group is None:
            group = self._groups[item.sfc_name] = {}
        group[item] = None
        self._stale.add(item.sfc_name)

    def remove(self, item: PendingItem) -> None:
        del self._groups[item.sfc_name][item]
        self._stale.add(item.sfc_name)

    def summary(self, catalog: Catalog, now: float) -> np.ndarray:
        """INPUT_A_DIM floats: each type's `_group_summary` with its
        `_least_slack` at `now`, in SFC_ORDER; zeros for a type with no
        items. The row is the one the groups keep: read it, do not change
        it."""
        row, stale = self._row, self._stale
        if now != self._now:  # every slack moved with the step
            self._now = now
            for name, group in self._groups.items():
                if group and name not in stale:
                    row[_SFC_BASE[name] + 1] = _least_slack(group, now)
        for name in stale:
            base = _SFC_BASE[name]
            group = self._groups[name]
            if group:
                block = _group_summary(group, catalog.sfcs[name])
                block[1] = _least_slack(group, now)
            else:
                block = _ZERO_BLOCK
            row[base:base + SFC_FEATURES] = block
        stale.clear()
        return row


@dataclass(slots=True)
class StateView:
    """Everything the encoder needs, pre-extracted by the owning agent at
    step `now`. The item groups keep their summary row between encodings,
    and `dc_block` is input B as the DC keeps it (`DcRuntime.input_block`):
    the encoder only copies it."""
    items_local: SfcGroups
    items_cluster: SfcGroups
    dc_block: np.ndarray  # INPUT_B_DIM floats
    transfer_pending: bool
    out_of_cluster_frac: float
    now: float


def encode_state(view: StateView, catalog: Catalog,
                 row: np.ndarray | None = None) -> StateEncoding:
    """Fixed-length normalized encoding, independent of cluster size,
    written into `row` (a C-contiguous STATE_DIM row, such as a row of a
    round's matrix), else into a new row."""
    if row is None:
        row = np.empty(STATE_DIM)
    row[:INPUT_A_DIM] = view.items_local.summary(catalog, view.now)
    row[INPUT_A_DIM:_C_START] = view.dc_block
    row[_C_START:-2] = view.items_cluster.summary(catalog, view.now)
    row[-2] = 1.0 if view.transfer_pending else 0.0
    row[-1] = _clip01(view.out_of_cluster_frac)
    return StateEncoding(row)


# the branch biases lead the flat vector, side by side, so that `_forward`
# adds all three with one add and `loss_and_grads` sums them with one sum
_BRANCH_BIASES = ("ba", "bb", "bc")


def _layout(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], slice]]:
    """Each parameter's shape and its slice of the flat vector, in
    `QNetwork.params` order: an affine layer's weights, then its bias, from
    the three branches to the output layer. The vector holds the branch
    biases first and every other parameter after them in that order."""
    F = config.branch_width
    shapes: dict[str, tuple[int, ...]] = {}

    def layer(name, fan_in, fan_out):
        shapes["W" + name] = (fan_in, fan_out)
        shapes["b" + name] = (fan_out,)

    layer("a", INPUT_A_DIM, F)
    layer("b", INPUT_B_DIM, F)
    layer("c", INPUT_C_DIM, F)
    layer("att", 3 * F, 3 * F)
    prev = 3 * F
    for i, width in enumerate(config.hidden_widths):
        layer(f"h{i}", prev, width)
        prev = width
    layer("out", prev, config.action_count)
    spans, start = {}, 0
    for name in (*_BRANCH_BIASES,
                 *(n for n in shapes if n not in _BRANCH_BIASES)):
        stop = start + math.prod(shapes[name])
        spans[name] = slice(start, stop)
        start = stop
    return {name: (shape, spans[name]) for name, shape in shapes.items()}


class ParamVector(dict):
    """Named arrays that are views of one flat float64 vector, `flat`, laid
    out by `_layout`: a network's parameters, its velocities or one
    gradient. An operation on every array is one operation on `flat`.
    Assigning an array to a name copies it into that name's view."""
    __slots__ = ("flat",)

    def __init__(self, layout, flat: np.ndarray):
        super().__init__({name: flat[span].reshape(shape)
                          for name, (shape, span) in layout.items()})
        self.flat = flat

    def __setitem__(self, name: str, value) -> None:
        view = self[name]
        if np.shape(value) != view.shape:
            raise ValueError(f"{name} has shape {view.shape}, "
                             f"got {np.shape(value)}")
        view[...] = value


class QNetwork:
    """Three affine input branches -> concatenation -> attention -> hidden
    layers -> Q-values. All math in float64 numpy; analytic gradients. The
    parameters and the momentum velocities are one flat vector each
    (`ParamVector`)."""

    def __init__(self, config: ModelConfig, seed: int | None = 0):
        """Weights drawn from `seed` (He normal) and zero biases; `seed`
        None leaves the weights zero too and draws nothing, as a network
        that takes its parameters from elsewhere starts."""
        self.config = config
        self.update_count = 0
        self._layout = _layout(config)
        size = max(span.stop for _, span in self._layout.values())
        self.params = ParamVector(self._layout, np.zeros(size))
        self.velocity = ParamVector(self._layout, np.zeros(size))
        if seed is not None:
            rng = np.random.default_rng(seed)
            for name, w in self.params.items():
                if name[0] == "W":
                    w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]),
                                        size=w.shape)

    # ---- forward ----------------------------------------------------------

    def _forward(self, x, cache=None):
        """The Q-values of the state rows `x`. Given a `cache` dict, it keeps
        there the activations `loss_and_grads` reads; without one it
        overwrites each activation with the next in place."""
        keep = cache is not None
        p = self.params
        F = self.config.branch_width
        xa = x[:, :INPUT_A_DIM]
        xb, xc = x[:, INPUT_A_DIM:_C_START], x[:, _C_START:]
        # the three branches side by side in one pre-activation array
        zpre = np.empty((x.shape[0], 3 * F))
        for lo, xi, name in ((0, xa, "a"), (F, xb, "b"), (2 * F, xc, "c")):
            np.matmul(xi, p["W" + name], out=zpre[:, lo:lo + F])
        zpre += p.flat[:3 * F]  # ba, bb and bc
        z = np.maximum(zpre, 0.0, out=None if keep else zpre)
        u = z @ p["Watt"]
        u += p["batt"]
        u -= u.max(axis=1, keepdims=True)
        alpha = np.exp(u, out=u)
        alpha /= alpha.sum(axis=1, keepdims=True)
        h = np.multiply(3 * F, z, out=None if keep else z)
        h *= alpha
        if keep:
            cache.update(xa=xa, xb=xb, xc=xc, zpre=zpre, z=z, alpha=alpha)
        for i in range(len(self.config.hidden_widths)):
            zi = h @ p[f"Wh{i}"]
            zi += p[f"bh{i}"]
            if keep:
                cache[f"zh{i}"] = zi
                cache[f"in_h{i}"] = h
            h = np.maximum(zi, 0.0, out=None if keep else zi)
        if keep:
            cache["h_last"] = h
        q = h @ p["Wout"]
        q += p["bout"]
        return q

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values, one row per state row of `x`, shape (B, STATE_DIM)."""
        if x.shape[1] != STATE_DIM:
            raise DrlError("input dimension mismatch")
        return self._forward(x)

    # ---- backward ---------------------------------------------------------

    def loss_and_grads(self, x, actions, targets):
        """Mean squared TD error on the selected actions of the state rows
        `x`, with gradients: a `ParamVector` of its own, which later calls
        leave alone."""
        p = self.params
        F = self.config.branch_width
        B = x.shape[0]
        cache = {}
        q = self._forward(x, cache)
        idx = np.arange(B)
        diff = q[idx, actions] - targets
        loss = float(np.mean(diff ** 2))

        grads = ParamVector(self._layout, np.empty(p.flat.size))
        dq = np.zeros_like(q)
        dq[idx, actions] = 2.0 * diff / B

        np.matmul(cache["h_last"].T, dq, out=grads["Wout"])
        dq.sum(axis=0, out=grads["bout"])
        dh = dq @ p["Wout"].T
        for i in reversed(range(len(self.config.hidden_widths))):
            dz = dh * (cache[f"zh{i}"] > 0)
            np.matmul(cache[f"in_h{i}"].T, dz, out=grads[f"Wh{i}"])
            dz.sum(axis=0, out=grads[f"bh{i}"])
            dh = dz @ p[f"Wh{i}"].T

        # attention block: o = 3F * z * softmax(z Watt + batt)
        z, alpha = cache["z"], cache["alpha"]
        g3 = 3 * F * dh
        dz = g3 * alpha
        dalpha = np.multiply(g3, z, out=g3)
        du = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        np.matmul(z.T, du, out=grads["Watt"])
        du.sum(axis=0, out=grads["batt"])
        dz += du @ p["Watt"].T

        dz *= cache["zpre"] > 0
        for name, x_key, lo in (("a", "xa", 0), ("b", "xb", F),
                                ("c", "xc", 2 * F)):
            np.matmul(cache[x_key].T, dz[:, lo:lo + F], out=grads["W" + name])
        dz.sum(axis=0, out=grads.flat[:3 * F])  # ba, bb and bc
        return loss, grads

    def apply_grads(self, grads: ParamVector) -> None:
        """Momentum step on the flat vectors, in place: the operations of
        `v = mom * v - lr * g; p += v`, in that order, without their
        temporaries."""
        lr, mom = self.config.learning_rate, self.config.momentum
        v = self.velocity.flat
        v *= mom
        v -= lr * grads.flat
        self.params.flat += v

    # ---- weight transfer --------------------------------------------------

    def copy_params_from(self, other: "QNetwork") -> None:
        self.params.flat[...] = other.params.flat

    def clone(self) -> "QNetwork":
        net = QNetwork(self.config, seed=None)
        net.copy_params_from(self)
        return net


def act(net: QNetwork, rows: np.ndarray, epsilon: float,
        rngs: list[np.random.Generator]) -> list[int]:
    """Epsilon-greedy actions for a round of states, the rows of `rows`,
    with one generator each; greedy ties break to the lowest index. Each
    generator draws `random()`, then `integers` when it explores. The greedy
    rows go through one `forward` call: the whole matrix when every row is
    greedy."""
    if not 0.0 <= epsilon <= 1.0:
        raise DrlError("epsilon must be in [0,1]")
    actions: list[int] = []
    greedy: list[int] = []  # round indices
    for i, rng in enumerate(rngs):
        if rng.random() < epsilon:
            actions.append(int(rng.integers(net.config.action_count)))
        else:
            actions.append(-1)
            greedy.append(i)
    if greedy:
        q = net.forward(rows if len(greedy) == len(rows) else rows[greedy])
        for i, a in zip(greedy, q.argmax(axis=1).tolist()):
            actions[i] = a
    return actions


class ReplayMemory:
    """Ring buffer of transitions in arrays allocated once at `capacity`:
    the action, reward and terminal flag in one slot each, and the indices
    of its state's and next state's rows in one store of `2 * capacity`
    rows. `np.empty` only reserves them; a page becomes resident when a row
    on it is first written. Each push fills slot `pos` and advances it, back
    to slot 0 after the last. It writes the state's row, and the next
    state's unless the next state is the state itself, at the store's
    cursor, which wraps the same way. A push writes at most 2 rows, so the
    rows of the last `capacity` transitions are never overwritten while
    they are held."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.rows = np.empty((2 * capacity, STATE_DIM))
        self.state_row = np.empty(capacity, dtype=int)
        self.next_row = np.empty(capacity, dtype=int)
        self.actions = np.empty(capacity, dtype=int)
        self.rewards = np.empty(capacity)
        self.terminal = np.empty(capacity, dtype=bool)
        self.size = 0
        self.pos = 0
        self.row_pos = 0  # the store's next row to write

    def push(self, state: StateEncoding, action: int, next_state: StateEncoding,
             reward: float, terminal: bool) -> None:
        i, r, store = self.pos, self.row_pos, len(self.rows)
        self.rows[r] = state.row
        self.state_row[i] = r
        if next_state is not state:
            r = (r + 1) % store
            self.rows[r] = next_state.row
        self.next_row[i] = r
        self.row_pos = (r + 1) % store
        self.actions[i] = action
        self.rewards[i] = reward
        self.terminal[i] = terminal
        self.pos = (i + 1) % self.capacity
        if self.size < self.capacity:
            self.size += 1

    def __len__(self) -> int:
        return self.size

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """The slot indices of a batch drawn without replacement."""
        return rng.choice(self.size, size=batch_size, replace=False)


def update(net: QNetwork, target_net: QNetwork, memory: ReplayMemory,
           config: ModelConfig, rng: np.random.Generator) -> float | None:
    """One DQN gradient step on a random replay batch, with next states scored
    by `target_net`, which takes `net`'s parameters every `target_sync`
    updates; None if memory is short. The batch's state rows are gathered
    from the replay row store through the slots' row indices."""
    if len(memory) < config.batch_size:
        return None
    idx = memory.sample(config.batch_size, rng)
    next_q = target_net.forward(memory.rows[memory.next_row[idx]])
    targets = memory.rewards[idx] + np.where(
        memory.terminal[idx], 0.0, config.discount * next_q.max(axis=1))

    loss, grads = net.loss_and_grads(memory.rows[memory.state_row[idx]],
                                     memory.actions[idx], targets)
    net.apply_grads(grads)
    net.update_count += 1
    if net.update_count % config.target_sync == 0:
        target_net.copy_params_from(net)
    return loss


# ---- persistence ----------------------------------------------------------

def save_weights(net: QNetwork, path: str) -> None:
    """Self-describing header (shapes + architecture hash) followed by
    little-endian float64 parameter data. Round-trips bit-exactly."""
    names = sorted(net.params)
    header = {
        "arch": net.config.arch_dict(),
        "arch_hash": net.config.arch_hash(),
        "params": [[name, list(net.params[name].shape)] for name in names],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(net.params[name], dtype="<f8").tobytes())


def load_weights(path: str, config: ModelConfig) -> QNetwork:
    """The network `save_weights` wrote to `path`; DrlError unless it has
    `config`'s architecture, lists every parameter once, with its shape, and
    holds only finite values."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_MAGIC) or len(data) < len(_MAGIC) + 4:
        raise DrlError("not a weight file")
    off = len(_MAGIC)
    (hlen,) = struct.unpack_from("<I", data, off)
    off += 4
    try:  # a header that is not a JSON object has no `get`
        header = json.loads(data[off:off + hlen])
        arch_hash, params = header.get("arch_hash"), header.get("params")
    except (ValueError, UnicodeDecodeError, AttributeError) as exc:
        raise DrlError("corrupt weight header") from exc
    off += hlen
    if arch_hash != config.arch_hash():
        raise DrlError("weight file does not match the model configuration")
    net = QNetwork(config, seed=None)
    try:  # `params` absent, or not [name, shape] pairs
        listed = sorted(name for name, _ in params)
    except (TypeError, ValueError):
        listed = None
    if listed != sorted(net.params):
        raise DrlError("weight file does not name every network parameter "
                       "exactly once")
    for name, shape in params:
        own = net.params[name]
        if shape != list(own.shape) or off + own.nbytes > len(data):
            raise DrlError("weight file shape mismatch")
        own[...] = np.frombuffer(data, dtype="<f8", count=own.size,
                                 offset=off).reshape(own.shape)
        if not np.isfinite(own).all():  # one NaN makes every Q-value NaN
            raise DrlError(f"weight file parameter {name} is not finite")
        off += own.nbytes
    if off != len(data):
        raise DrlError("trailing bytes in weight file")
    return net
