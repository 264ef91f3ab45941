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

import numpy as np

from .workload import (BW_NORM_MBPS, MAX_E2E_TOLERANCE_MS, SFC_ORDER, VNF_ORDER,
                       Catalog, SfcType)

SFC_FEATURES = 4 + len(VNF_ORDER)  # per-type summary + next-VNF histogram
INPUT_A_DIM = len(SFC_ORDER) * SFC_FEATURES            # 60
INPUT_B_DIM = 2 * len(VNF_ORDER) + 3                   # 15
INPUT_C_DIM = INPUT_A_DIM + 2                          # 62
STATE_DIM = INPUT_A_DIM + INPUT_B_DIM + INPUT_C_DIM    # 137: a replay row
INSTANCE_NORM = 10.0
_VNF_INDEX = {name: i for i, name in enumerate(VNF_ORDER)}
_ZERO_HISTOGRAM = (0.0,) * len(VNF_ORDER)
_ZERO_BLOCK = (0.0,) * SFC_FEATURES

_MAGIC = b"SFCQNET1"


class DrlError(RuntimeError):
    pass


@dataclass
class ModelConfig:
    branch_width: int = 32
    hidden_widths: tuple[int, ...] = (128, 64)
    learning_rate: float = 1e-3
    momentum: float = 0.9
    discount: float = 0.95
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.995
    replay_capacity: int = 200_000
    batch_size: int = 64
    target_sync: int = 50

    def __post_init__(self):
        self.hidden_widths = tuple(int(w) for w in self.hidden_widths)
        if self.branch_width <= 0 or any(w <= 0 for w in self.hidden_widths):
            raise DrlError("layer widths must be positive")
        for name in ("batch_size", "replay_capacity", "target_sync"):
            if getattr(self, name) < 1:
                raise DrlError(f"drl.{name} must be at least 1, "
                               f"got {getattr(self, name)}")
        for name in ("epsilon_start", "epsilon_end", "epsilon_decay",
                     "discount"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # also NaN
                raise DrlError(f"drl.{name} must be in [0, 1], "
                               f"got {getattr(self, name)}")
        if not 0.0 < self.learning_rate < math.inf:
            raise DrlError(f"drl.learning_rate must be positive and finite, "
                           f"got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise DrlError(f"drl.momentum must be in [0, 1), "
                           f"got {self.momentum}")
        try:  # as much as the replay arrays take, reserved and released
            np.empty((self.replay_capacity, 2 * STATE_DIM + 3))
        except MemoryError:
            raise DrlError(f"drl.replay_capacity {self.replay_capacity} is too "
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


# identity equality: a view removes the item of one request from its groups
@dataclass(slots=True, eq=False)
class PendingItem:
    sfc_name: str
    remaining_ms: float  # tolerance minus accrued delay and elapsed waiting
    bandwidth: float
    completion_frac: float
    next_vnf_name: str


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _group_summary(group: list[PendingItem], sfc: SfcType) -> list[float]:
    """One SFC type's SFC_FEATURES floats: count, least remaining slack,
    mean bandwidth, mean completion and the next-VNF histogram. Python's
    left-to-right `sum`/`min` over the group in queue order fixes the bits."""
    n = len(group)
    out = [_clip01(n / sfc.bundle_range[1]),
           _clip01(min([it.remaining_ms for it in group]) / MAX_E2E_TOLERANCE_MS),
           _clip01(sum([it.bandwidth for it in group]) / n / BW_NORM_MBPS),
           _clip01(sum([it.completion_frac for it in group]) / n)]
    out.extend(_ZERO_HISTOGRAM)
    share = 1.0 / n
    for it in group:
        out[4 + _VNF_INDEX[it.next_vnf_name]] += share
    return out


class SfcGroups:
    """Pending items grouped per SFC type, each group in queue order. A
    group's summary is kept until an item of its type is removed: a summary
    is recomputed only for the types that changed."""
    __slots__ = ("_groups", "_summaries")

    def __init__(self, items):
        groups: dict[str, list[PendingItem]] = {}
        for it in items:
            group = groups.get(it.sfc_name)
            if group is None:
                groups[it.sfc_name] = [it]
            else:
                group.append(it)
        self._groups = groups
        self._summaries: dict[str, list[float]] = {}

    def remove(self, item: PendingItem) -> None:
        self._groups[item.sfc_name].remove(item)
        self._summaries.pop(item.sfc_name, None)

    def summary(self, catalog: Catalog) -> list[float]:
        """INPUT_A_DIM floats: each type's `_group_summary` in SFC_ORDER,
        zeros for a type with no items."""
        out: list[float] = []
        for name in SFC_ORDER:
            group = self._groups.get(name)
            if not group:
                out.extend(_ZERO_BLOCK)
                continue
            block = self._summaries.get(name)
            if block is None:
                block = self._summaries[name] = _group_summary(
                    group, catalog.sfcs[name])
            out.extend(block)
        return out


@dataclass
class StateView:
    """Everything the encoder needs, pre-extracted by the owning agent. The
    item groups keep their summaries between encodings."""
    items_local: SfcGroups
    items_cluster: SfcGroups
    installed: dict[str, int]
    idle: dict[str, int]
    free_fracs: tuple[float, float, float]
    transfer_pending: bool
    out_of_cluster_frac: float


def encode_state(view: StateView, catalog: Catalog) -> StateEncoding:
    """Fixed-length normalized encoding, independent of cluster size."""
    row = view.items_local.summary(catalog)  # a new list on every call
    for name in VNF_ORDER:
        row.append(_clip01(view.installed.get(name, 0) / INSTANCE_NORM))
        row.append(_clip01(view.idle.get(name, 0) / INSTANCE_NORM))
    row.extend(_clip01(f) for f in view.free_fracs)
    row += view.items_cluster.summary(catalog)
    row.append(1.0 if view.transfer_pending else 0.0)
    row.append(_clip01(view.out_of_cluster_frac))
    # fromiter with the length known skips np.array's type inference
    return StateEncoding(np.fromiter(row, float, STATE_DIM))


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


class QNetwork:
    """Three affine input branches -> concatenation -> attention -> hidden
    layers -> Q-values. All math in float64 numpy; analytic gradients."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.update_count = 0
        rng = np.random.default_rng(seed)
        F = config.branch_width
        self.params: dict[str, np.ndarray] = {}

        def init(name, fan_in, fan_out):
            self.params["W" + name] = rng.normal(
                0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            self.params["b" + name] = np.zeros(fan_out)

        init("a", INPUT_A_DIM, F)
        init("b", INPUT_B_DIM, F)
        init("c", INPUT_C_DIM, F)
        init("att", 3 * F, 3 * F)
        prev = 3 * F
        for i, width in enumerate(config.hidden_widths):
            init(f"h{i}", prev, width)
            prev = width
        init("out", prev, config.action_count)
        self.velocity = {k: np.zeros_like(v) for k, v in self.params.items()}

    # ---- forward ----------------------------------------------------------

    def _forward_cached(self, x):
        p = self.params
        F = self.config.branch_width
        b = INPUT_A_DIM + INPUT_B_DIM
        xa, xb, xc = x[:, :INPUT_A_DIM], x[:, INPUT_A_DIM:b], x[:, b:]
        cache = {"xa": xa, "xb": xb, "xc": xc}
        za = xa @ p["Wa"] + p["ba"]
        zb = xb @ p["Wb"] + p["bb"]
        zc = xc @ p["Wc"] + p["bc"]
        cache["za"], cache["zb"], cache["zc"] = za, zb, zc
        z = np.concatenate([_relu(za), _relu(zb), _relu(zc)], axis=1)
        cache["z"] = z
        u = z @ p["Watt"] + p["batt"]
        u_shift = u - u.max(axis=1, keepdims=True)
        exp = np.exp(u_shift)
        alpha = exp / exp.sum(axis=1, keepdims=True)
        cache["alpha"] = alpha
        h = 3 * F * z * alpha
        cache["o"] = h
        for i in range(len(self.config.hidden_widths)):
            zi = h @ p[f"Wh{i}"] + p[f"bh{i}"]
            cache[f"zh{i}"] = zi
            cache[f"in_h{i}"] = h
            h = _relu(zi)
        cache["h_last"] = h
        q = h @ p["Wout"] + p["bout"]
        return q, cache

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values, one row per state row of `x`, shape (B, STATE_DIM)."""
        if x.shape[1] != STATE_DIM:
            raise DrlError("input dimension mismatch")
        q, _ = self._forward_cached(x)
        return q

    # ---- backward ---------------------------------------------------------

    def loss_and_grads(self, x, actions, targets):
        """Mean squared TD error on the selected actions of the state rows
        `x`, with gradients."""
        p = self.params
        F = self.config.branch_width
        B = x.shape[0]
        q, cache = self._forward_cached(x)
        idx = np.arange(B)
        diff = q[idx, actions] - targets
        loss = float(np.mean(diff ** 2))

        grads = {}
        dq = np.zeros_like(q)
        dq[idx, actions] = 2.0 * diff / B

        grads["Wout"] = cache["h_last"].T @ dq
        grads["bout"] = dq.sum(axis=0)
        dh = dq @ p["Wout"].T
        for i in reversed(range(len(self.config.hidden_widths))):
            dz = dh * (cache[f"zh{i}"] > 0)
            grads[f"Wh{i}"] = cache[f"in_h{i}"].T @ dz
            grads[f"bh{i}"] = dz.sum(axis=0)
            dh = dz @ p[f"Wh{i}"].T

        # attention block: o = 3F * z * softmax(z Watt + batt)
        z, alpha = cache["z"], cache["alpha"]
        g = dh
        dz = 3 * F * g * alpha
        dalpha = 3 * F * g * z
        du = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        grads["Watt"] = z.T @ du
        grads["batt"] = du.sum(axis=0)
        dz = dz + du @ p["Watt"].T

        for name, x_key, z_key, lo in (("a", "xa", "za", 0),
                                       ("b", "xb", "zb", F),
                                       ("c", "xc", "zc", 2 * F)):
            dbranch = dz[:, lo:lo + F] * (cache[z_key] > 0)
            grads["W" + name] = cache[x_key].T @ dbranch
            grads["b" + name] = dbranch.sum(axis=0)
        return loss, grads

    def apply_grads(self, grads: dict[str, np.ndarray]) -> None:
        """Momentum step, in place: the operations of `v = mom * v - lr * g`,
        in that order, without its temporaries."""
        lr, mom = self.config.learning_rate, self.config.momentum
        for k, g in grads.items():
            v = self.velocity[k]
            v *= mom
            v -= lr * g
            self.params[k] += v

    # ---- weight transfer --------------------------------------------------

    def copy_params_from(self, other: "QNetwork") -> None:
        for k in self.params:
            self.params[k] = other.params[k].copy()

    def clone(self) -> "QNetwork":
        net = QNetwork(self.config, seed=0)
        net.copy_params_from(self)
        return net


def act(net: QNetwork, states: list[StateEncoding], epsilon: float,
        rngs: list[np.random.Generator]) -> list[int]:
    """Epsilon-greedy actions for a round of states, one generator each;
    greedy ties break to the lowest index. Each generator draws `random()`,
    then `integers` when it explores. The greedy rows go through one
    `forward` call."""
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
        q = net.forward(np.stack([states[i].row for i in greedy]))
        for i, a in zip(greedy, q.argmax(axis=1)):
            actions[i] = int(a)
    return actions


class ReplayMemory:
    """Ring buffer of transitions, one row each in arrays allocated once at
    `capacity`: a state's row in `states` and `next_states`, and the
    action, reward and terminal flag in one slot each. `np.empty` only
    reserves them; a page becomes resident when a row on it is first
    written. Each push writes row `pos` and advances it, back to row 0
    after the last."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.states = np.empty((capacity, STATE_DIM))
        self.next_states = np.empty((capacity, STATE_DIM))
        self.actions = np.empty(capacity, dtype=int)
        self.rewards = np.empty(capacity)
        self.terminal = np.empty(capacity, dtype=bool)
        self.size = 0
        self.pos = 0

    def push(self, state: StateEncoding, action: int, next_state: StateEncoding,
             reward: float, terminal: bool) -> None:
        i = self.pos
        self.states[i] = state.row
        self.next_states[i] = next_state.row
        self.actions[i] = action
        self.rewards[i] = reward
        self.terminal[i] = terminal
        self.pos = (i + 1) % self.capacity
        if self.size < self.capacity:
            self.size += 1

    def __len__(self) -> int:
        return self.size

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """The row indices of a batch drawn without replacement."""
        return rng.choice(self.size, size=batch_size, replace=False)


def update(net: QNetwork, target_net: QNetwork, memory: ReplayMemory,
           config: ModelConfig, rng: np.random.Generator) -> float | None:
    """One DQN gradient step on a random replay batch, with next states scored
    by `target_net`, which takes `net`'s parameters every `target_sync`
    updates; None if memory is short. The batch's state rows are gathered
    from the replay arrays by index."""
    if len(memory) < config.batch_size:
        return None
    idx = memory.sample(config.batch_size, rng)
    next_q = target_net.forward(memory.next_states[idx])
    targets = memory.rewards[idx] + np.where(
        memory.terminal[idx], 0.0, config.discount * next_q.max(axis=1))

    loss, grads = net.loss_and_grads(memory.states[idx], memory.actions[idx],
                                     targets)
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
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_MAGIC) or len(data) < len(_MAGIC) + 4:
        raise DrlError("not a weight file")
    off = len(_MAGIC)
    (hlen,) = struct.unpack_from("<I", data, off)
    off += 4
    try:
        header = json.loads(data[off:off + hlen])
    except (ValueError, UnicodeDecodeError) as exc:
        raise DrlError("corrupt weight header") from exc
    off += hlen
    if header.get("arch_hash") != config.arch_hash():
        raise DrlError("weight file does not match the model configuration")
    net = QNetwork(config, seed=0)
    for name, shape in header["params"]:
        size = int(np.prod(shape)) * 8
        if off + size > len(data) or name not in net.params \
                or tuple(shape) != net.params[name].shape:
            raise DrlError("weight file shape mismatch")
        net.params[name] = np.frombuffer(
            data[off:off + size], dtype="<f8").reshape(shape).copy()
        off += size
    if off != len(data):
        raise DrlError("trailing bytes in weight file")
    return net
