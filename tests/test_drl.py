"""Q-network tests: encoding invariance, forward determinism, gradient checks
against finite differences, replay and update mechanics, weight persistence."""

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from sfcsim.drl import (DrlError, INPUT_A_DIM, INPUT_B_DIM, INPUT_C_DIM,
                        STATE_DIM, ModelConfig, PendingItem, QNetwork,
                        ReplayMemory, SfcGroups, StateEncoding, StateView, act,
                        encode_state, load_weights, save_weights, update)
from sfcsim.sim import SimConfig, run_episode
from sfcsim.topology import build_network
from sfcsim.workload import VNF_ORDER, catalog_from_config, default_catalog

TRAINED_WEIGHTS = str(Path(__file__).parents[1] / "perfbench" / "policy.bin")


def empty_view():
    """The view at an empty DC: no instances, every resource free."""
    dc_block = np.zeros(INPUT_B_DIM)
    dc_block[-3:] = 1.0
    return StateView(items_local=SfcGroups(), items_cluster=SfcGroups(),
                     dc_block=dc_block, transfer_pending=False,
                     out_of_cluster_frac=0.0, now=0.0)


def pending(sfc_name, remaining_ms, bandwidth, completion_frac,
            next_vnf_name):
    """An item ready at step 0, so its slack at step 0 is `remaining_ms`."""
    return PendingItem(sfc_name, remaining_ms, 0.0, bandwidth, completion_frac,
                       next_vnf_name, False, 0, 0, math.inf)


def grouped(items):
    """The items filed in SfcGroups in list order."""
    groups = SfcGroups()
    for it in items:
        groups.add(it)
    return groups


def random_state(rng):
    return StateEncoding(rng.uniform(0, 1, STATE_DIM))


def blocks(enc):
    """The three input blocks of a state row."""
    b = INPUT_A_DIM + INPUT_B_DIM
    return enc.row[:INPUT_A_DIM], enc.row[INPUT_A_DIM:b], enc.row[b:]


def q_values(net, s):
    """One state's Q-values from a 1-row forward call."""
    return net.forward(s.row[None])[0]


def test_encode_empty_system():
    enc = encode_state(empty_view(), default_catalog())
    assert enc.row.shape == (STATE_DIM,)
    input_a, input_b, input_c = blocks(enc)
    assert input_a.shape == (INPUT_A_DIM,)
    assert input_b.shape == (INPUT_B_DIM,)
    assert input_c.shape == (INPUT_C_DIM,)
    assert np.all(input_a == 0.0)
    assert np.all(input_b[-3:] == 1.0)  # fully free resources
    assert np.all(input_c == 0.0)


def test_encode_single_cg_request():
    cat = default_catalog()
    view = empty_view()
    view.items_local = grouped([pending("CG", 80.0, 4.0, 0.0, "NAT")])
    input_a, _, _ = blocks(encode_state(view, cat))
    base = 0  # CG is the first SFC type
    assert input_a[base + 0] == pytest.approx(1 / 55)
    assert input_a[base + 1] == pytest.approx(0.8)  # 80 ms / 100 ms
    assert input_a[base + 2] == pytest.approx(0.04)
    assert input_a[base + 4] == 1.0  # next VNF is NAT
    assert np.all(input_a[base + 5:base + 10] == 0.0)
    # other SFC type blocks untouched
    assert np.all(input_a[10:] == 0.0)


def test_encode_count_of_a_bundle_range_ending_at_zero():
    """An SFC type whose bundle range ends at 0 reads a count of 1.0, the
    clip of n / 0, where it raised ZeroDivisionError; every other feature
    keeps its bits."""
    rows = []
    for cat in (default_catalog(),
                catalog_from_config({"sfcs": {"CG": {"bundle_range": [0, 0]}}})):
        view = empty_view()
        items = [pending("CG", 80.0, 4.0, 0.0, "NAT"),
                 pending("AR", 9.0, 100.0, 0.4, "TM")]
        view.items_local, view.items_cluster = grouped(items), grouped(items)
        rows.append(encode_state(view, cat).row)
    default, zero = rows
    changed = np.flatnonzero(default != zero)
    assert len(changed) == 2  # CG's count among local and cluster items
    assert np.all(default[changed] == 1 / 55) and np.all(zero[changed] == 1.0)


def test_encoding_bounds_and_locality():
    rng = np.random.default_rng(0)
    cat = default_catalog()
    names = list(cat.sfcs)
    for _ in range(50):
        items = [pending(names[int(rng.integers(6))],
                         float(rng.uniform(-10, 200)),
                         float(rng.uniform(0, 500)),
                         float(rng.uniform(0, 1)),
                         VNF_ORDER[int(rng.integers(6))])
                 for _ in range(int(rng.integers(1, 30)))]
        view = empty_view()
        view.items_local = grouped(items)
        view.items_cluster = grouped(items)
        view.dc_block = rng.uniform(0, 1, INPUT_B_DIM)
        row = encode_state(view, cat).row
        assert np.all(row >= 0.0) and np.all(row <= 1.0)


def test_architecture_invariant_to_cluster_size():
    # encoding length is fixed by config, not by how many DCs feed the view
    enc_small = encode_state(empty_view(), default_catalog())
    big = empty_view()
    big.items_cluster = grouped(
        [pending("VoIP", 50.0, 0.064, 0.2, "FW") for _ in range(40)])
    enc_big = encode_state(big, default_catalog())
    assert enc_small.row.shape == enc_big.row.shape == (STATE_DIM,)


def test_forward_shapes_and_determinism():
    cfg = ModelConfig()
    net = QNetwork(cfg, seed=3)
    s = random_state(np.random.default_rng(1))
    q1 = net.forward(s.row[None])
    q2 = net.forward(s.row[None])
    assert q1.shape == (1, 13)
    assert np.array_equal(q1, q2)
    assert net.forward(np.stack([s.row] * 3)).shape == (3, 13)


def ref_forward_blocks(net, xa, xb, xc):
    """`QNetwork.forward` as it was on three separate contiguous input
    arrays, one per block."""
    p = net.params
    F = net.config.branch_width
    z = np.concatenate([np.maximum(xa @ p["Wa"] + p["ba"], 0.0),
                        np.maximum(xb @ p["Wb"] + p["bb"], 0.0),
                        np.maximum(xc @ p["Wc"] + p["bc"], 0.0)], axis=1)
    u = z @ p["Watt"] + p["batt"]
    exp = np.exp(u - u.max(axis=1, keepdims=True))
    h = 3 * F * z * (exp / exp.sum(axis=1, keepdims=True))
    for i in range(len(net.config.hidden_widths)):
        h = np.maximum(h @ p[f"Wh{i}"] + p[f"bh{i}"], 0.0)
    return h @ p["Wout"] + p["bout"]


def test_forward_on_rows_matches_contiguous_blocks():
    """Slicing the blocks out of stacked rows gives the bits the three
    contiguous input arrays give, at every batch size up to a round of 20
    agents and at the update batch of 64, with the trained weights."""
    net = load_weights(TRAINED_WEIGHTS, ModelConfig())
    rng = np.random.default_rng(12)
    for size in [*range(1, 21), 64]:
        x = rng.uniform(0, 1, (size, STATE_DIM))
        x[rng.uniform(size=x.shape) < 0.5] = 0.0  # encodings are sparse
        b = INPUT_A_DIM + INPUT_B_DIM
        want = ref_forward_blocks(
            net, *(np.ascontiguousarray(x[:, cols]) for cols in
                   (slice(0, INPUT_A_DIM), slice(INPUT_A_DIM, b),
                    slice(b, None))))
        assert net.forward(x).tobytes() == want.tobytes(), size


def randomized(net, seed):
    """`net` with every parameter, biases included, drawn at random."""
    rng = np.random.default_rng(seed)
    for k, v in net.params.items():
        net.params[k] = rng.normal(0.0, 0.3, v.shape)
    return net


@pytest.mark.parametrize("make", [
    lambda: load_weights(TRAINED_WEIGHTS, ModelConfig()),
    lambda: randomized(QNetwork(ModelConfig()), 9),
    lambda: randomized(QNetwork(small_config()), 9),
], ids=["trained", "random", "small"])
def test_forward_gives_the_q_of_the_training_forward(make):
    """`forward`, which overwrites its activations in place, gives the bits
    of the Q-values `loss_and_grads` computes while it keeps them, at every
    batch size from 1 to 64, and leaves its input as it was."""
    net = make()
    rng = np.random.default_rng(31)
    real = net._forward
    kept = []

    def keeping(x, cache=None):
        assert cache is not None  # the training forward keeps a cache
        kept.append(real(x, cache))
        return kept[-1]

    for size in range(1, 65):
        x = rng.uniform(0, 1, (size, STATE_DIM))
        x[rng.uniform(size=x.shape) < 0.5] = 0.0  # encodings are sparse
        given = x.copy()
        net._forward = keeping
        net.loss_and_grads(x, rng.integers(net.config.action_count, size=size),
                           rng.normal(size=size))
        del net._forward
        assert net.forward(x).tobytes() == kept[-1].tobytes(), size
        assert x.tobytes() == given.tobytes()


def ref_loss_and_grads(net, x, actions, targets):
    """`QNetwork.loss_and_grads` as it was with one array per branch: each
    branch's pre-activation and ReLU on its own, concatenated, and each
    branch's backward pass masked by its own pre-activation."""
    p = net.params
    F = net.config.branch_width
    B = x.shape[0]
    b = INPUT_A_DIM + INPUT_B_DIM
    xs = {"a": x[:, :INPUT_A_DIM], "b": x[:, INPUT_A_DIM:b], "c": x[:, b:]}
    pre = {k: xs[k] @ p["W" + k] + p["b" + k] for k in "abc"}
    z = np.concatenate([np.maximum(pre[k], 0.0) for k in "abc"], axis=1)
    u = z @ p["Watt"] + p["batt"]
    exp = np.exp(u - u.max(axis=1, keepdims=True))
    alpha = exp / exp.sum(axis=1, keepdims=True)
    h = 3 * F * z * alpha
    ins, zs = [], []
    for i in range(len(net.config.hidden_widths)):
        ins.append(h)
        zs.append(h @ p[f"Wh{i}"] + p[f"bh{i}"])
        h = np.maximum(zs[-1], 0.0)
    q = h @ p["Wout"] + p["bout"]
    idx = np.arange(B)
    diff = q[idx, actions] - targets
    grads = {}
    dq = np.zeros_like(q)
    dq[idx, actions] = 2.0 * diff / B
    grads["Wout"] = h.T @ dq
    grads["bout"] = dq.sum(axis=0)
    dh = dq @ p["Wout"].T
    for i in reversed(range(len(net.config.hidden_widths))):
        dz = dh * (zs[i] > 0)
        grads[f"Wh{i}"] = ins[i].T @ dz
        grads[f"bh{i}"] = dz.sum(axis=0)
        dh = dz @ p[f"Wh{i}"].T
    dz = 3 * F * dh * alpha
    dalpha = 3 * F * dh * z
    du = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    grads["Watt"] = z.T @ du
    grads["batt"] = du.sum(axis=0)
    dz = dz + du @ p["Watt"].T
    for j, k in enumerate("abc"):
        dbranch = dz[:, j * F:(j + 1) * F] * (pre[k] > 0)
        grads["W" + k] = xs[k].T @ dbranch
        grads["b" + k] = dbranch.sum(axis=0)
    return float(np.mean(diff ** 2)), grads


def test_loss_and_grads_match_per_branch_reference():
    """The fused branch layer gives the loss and gradient bits of one array
    per branch, at every batch size up to the update batch of 64, with the
    trained weights, and again after momentum steps have moved the weights
    and biases in place and after `copy_params_from` swapped the arrays."""
    net = load_weights(TRAINED_WEIGHTS, ModelConfig())
    other = QNetwork(ModelConfig(), seed=3)
    rng = np.random.default_rng(21)

    def check_all_sizes():
        for size in range(1, 65):
            x = rng.uniform(0, 1, (size, STATE_DIM))
            x[rng.uniform(size=x.shape) < 0.5] = 0.0  # encodings are sparse
            actions = rng.integers(net.config.action_count, size=size)
            targets = rng.normal(size=size)
            loss, grads = net.loss_and_grads(x, actions, targets)
            want_loss, want = ref_loss_and_grads(net, x, actions, targets)
            assert loss == want_loss, size
            assert grads.keys() == want.keys()
            for k in grads:
                assert grads[k].tobytes() == want[k].tobytes(), (size, k)
            last = grads
        return last

    for _ in range(3):
        net.apply_grads(check_all_sizes())
    check_all_sizes()
    net.copy_params_from(other)
    check_all_sizes()


def test_forward_zero_weights():
    net = QNetwork(ModelConfig(), seed=0)
    for k in net.params:
        net.params[k] = np.zeros_like(net.params[k])
    q = q_values(net, random_state(np.random.default_rng(2)))
    assert np.all(q == 0.0)


def test_attention_weights_normalized():
    net = QNetwork(ModelConfig(), seed=5)
    s = random_state(np.random.default_rng(7))
    cache = {}
    net._forward(s.row[None], cache)
    assert cache["alpha"].sum(axis=1) == pytest.approx(1.0)


def test_forward_dim_mismatch():
    net = QNetwork(ModelConfig(), seed=0)
    with pytest.raises(DrlError):
        net.forward(np.zeros((1, STATE_DIM - 1)))


def test_act_epsilon_extremes():
    net = QNetwork(ModelConfig(), seed=1)
    s = random_state(np.random.default_rng(4))
    rng = np.random.default_rng(0)
    assert act(net, s.row[None], 0.0, [rng]) == [int(np.argmax(q_values(net, s)))]
    with pytest.raises(DrlError):
        act(net, s.row[None], 1.5, [rng])


def test_act_draws_as_one_state_at_a_time():
    """A round of states gives each generator the draws one single-state
    epsilon-greedy makes (`random()`, then `integers` when exploring), and
    each greedy row the argmax of its own forward pass; a round of one
    greedy row is one 1-row forward call."""
    net = QNetwork(ModelConfig(), seed=1)
    rng = np.random.default_rng(4)
    for epsilon in (0.0, 0.3, 1.0):
        states = [random_state(rng) for _ in range(7)]
        seeds = [int(x) for x in rng.integers(2 ** 31, size=7)]
        want = []
        for s, seed in zip(states, seeds):
            r = np.random.default_rng(seed)
            if r.random() < epsilon:
                want.append(int(r.integers(net.config.action_count)))
            else:
                want.append(int(np.argmax(q_values(net, s))))
        rngs = [np.random.default_rng(seed) for seed in seeds]
        assert act(net, np.stack([s.row for s in states]), epsilon,
                   rngs) == want
        # and each generator is left where the single-state draws leave it
        for r, seed in zip(rngs, seeds):
            ref = np.random.default_rng(seed)
            if ref.random() < epsilon:
                ref.integers(net.config.action_count)
            assert r.random() == ref.random()
    seen = []
    real = net.forward
    net.forward = lambda x: seen.append(x.shape) or real(x)
    act(net, states[0].row[None], 0.0, [np.random.default_rng(0)])
    assert seen == [(1, STATE_DIM)]


def ref_act(net, states, epsilon, rngs):
    """`act` as it was on a list of encodings: the greedy rows stacked."""
    actions, greedy = [], []
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


def test_act_on_a_round_matrix_matches_stacked_rows():
    """Encodings written into the rows of one round matrix, as `run_step`
    writes them, hold the bits of encodings made one by one, and `act` on
    the matrix gives the actions and leaves each generator where the stacked
    rows of the one-by-one encodings do, with greedy and exploring rows in
    the same round."""
    net = load_weights(TRAINED_WEIGHTS, ModelConfig())
    cat = default_catalog()
    rng = np.random.default_rng(17)
    names = list(cat.sfcs)
    mixed = 0  # rounds with greedy and exploring rows
    for epsilon in (0.0, 0.5, 1.0):
        for size in (1, 2, 7, 20):
            views = []
            for _ in range(size):
                items = [pending(names[int(rng.integers(6))],
                                 float(rng.uniform(-10, 200)),
                                 float(rng.uniform(0, 500)),
                                 float(rng.uniform(0, 1)),
                                 VNF_ORDER[int(rng.integers(6))])
                         for _ in range(int(rng.integers(0, 30)))]
                view = empty_view()
                view.items_local = grouped(items[::2])
                view.items_cluster = grouped(items)
                view.dc_block = rng.uniform(0, 1, INPUT_B_DIM)
                views.append(view)
            rows = np.empty((size, STATE_DIM))
            in_rows = [encode_state(v, cat, row) for v, row in zip(views, rows)]
            alone = [encode_state(v, cat) for v in views]
            for enc, row, ref in zip(in_rows, rows, alone):
                assert np.shares_memory(enc.row, rows)
                assert row.tobytes() == ref.row.tobytes()
            seeds = [int(x) for x in rng.integers(2 ** 31, size=size)]
            explores = {np.random.default_rng(seed).random() < epsilon
                        for seed in seeds}
            mixed += len(explores) == 2
            rngs = [np.random.default_rng(seed) for seed in seeds]
            ref_rngs = [np.random.default_rng(seed) for seed in seeds]
            assert (act(net, rows, epsilon, rngs)
                    == ref_act(net, alone, epsilon, ref_rngs))
            for r, ref in zip(rngs, ref_rngs):
                assert r.random() == ref.random()
    assert mixed >= 2


def test_act_uniform_at_epsilon_one():
    net = QNetwork(ModelConfig(), seed=1)
    s = random_state(np.random.default_rng(4))
    rng = np.random.default_rng(99)
    n = 100_000
    counts = np.zeros(13)
    for a in act(net, np.broadcast_to(s.row, (n, STATE_DIM)), 1.0, [rng] * n):
        counts[a] += 1
    expected = n / 13
    sigma = np.sqrt(n * (1 / 13) * (12 / 13))
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_argmax_scale_invariance():
    net = QNetwork(ModelConfig(), seed=6)
    s = random_state(np.random.default_rng(8))
    a1 = int(np.argmax(q_values(net, s)))
    for k in ("Wout", "bout"):
        net.params[k] = net.params[k] * 2.0
    assert int(np.argmax(q_values(net, s))) == a1


def small_config():
    return ModelConfig(branch_width=4, hidden_widths=(8,))


def test_gradient_matches_finite_differences():
    """Central-difference oracle on the reduced net, 100 random draws."""
    eps = 1e-5
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        cfg = small_config()
        net = QNetwork(cfg, seed=int(rng.integers(2 ** 31)))
        s = random_state(rng)
        x = s.row[None]
        action = np.array([int(rng.integers(cfg.action_count))])
        target = np.array([float(rng.normal())])
        _, grads = net.loss_and_grads(x, action, target)
        # probe a handful of coordinates from every parameter tensor
        for name in net.params:
            flat = net.params[name].reshape(-1)
            for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _ = net.loss_and_grads(x, action, target)
                flat[idx] = orig - eps
                lm, _ = net.loss_and_grads(x, action, target)
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                an = grads[name].reshape(-1)[idx]
                denom = max(abs(fd), abs(an), 1e-8)
                rel = abs(fd - an) / denom
                worst = max(worst, rel)
    assert worst < 1e-4


def test_replay_capacity_and_sampling():
    """Pushes fill slots 0, 1, ... and then wrap: after 8 pushes into 5 slots,
    slots 0-2 hold pushes 5-7 and slots 3-4 pushes 3-4."""
    mem = ReplayMemory(5)
    rng = np.random.default_rng(0)
    pushed = [(random_state(rng), random_state(rng)) for _ in range(8)]
    for i, (s, s2) in enumerate(pushed):
        mem.push(s, i % 13, s2, float(i), i % 2 == 1)
    assert len(mem) == 5 and mem.pos == 3
    survivors = [5, 6, 7, 3, 4]
    assert mem.rewards.tolist() == [float(i) for i in survivors]
    assert mem.actions.tolist() == [i % 13 for i in survivors]
    assert mem.terminal.tolist() == [i % 2 == 1 for i in survivors]
    for slot, i in enumerate(survivors):
        s, s2 = pushed[i]
        assert np.array_equal(mem.rows[mem.state_row[slot]], s.row)
        assert np.array_equal(mem.rows[mem.next_row[slot]], s2.row)
    idx = mem.sample(5, np.random.default_rng(1))
    assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]


def test_replay_writes_a_noop_transition_once():
    """A push whose next state is its state writes one row, any other push
    two, and the rows of every held transition stay as pushed while the
    slots and the row store wrap."""
    mem = ReplayMemory(5)
    rng = np.random.default_rng(3)
    pushed = []
    for i in range(40):
        s = random_state(rng)
        s2 = s if rng.random() < 0.6 else random_state(rng)
        row_pos = mem.row_pos
        mem.push(s, i % 13, s2, float(i), False)
        pushed.append((s, s2))
        assert mem.row_pos == (row_pos + (1 if s2 is s else 2)) % 10
        last = len(pushed) - 1
        for slot in range(len(mem)):  # holds the latest push with its index
            s, s2 = pushed[last - (last - slot) % 5]
            assert mem.rows[mem.state_row[slot]].tobytes() == s.row.tobytes()
            assert mem.rows[mem.next_row[slot]].tobytes() == s2.row.tobytes()
            assert (mem.state_row[slot] == mem.next_row[slot]) == (s2 is s)


class RefReplayMemory:
    """The list-of-tuples ring buffer the row arrays replaced."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.buffer = []
        self.pos = 0

    def push(self, state, action, next_state, reward, terminal):
        item = (state, action, next_state, reward, terminal)
        if len(self.buffer) < self.capacity:
            self.buffer.append(item)
        else:
            self.buffer[self.pos] = item
        self.pos = (self.pos + 1) % self.capacity

    def sample(self, batch_size, rng):
        idx = rng.choice(len(self.buffer), size=batch_size, replace=False)
        return [self.buffer[int(i)] for i in idx]


def ref_update(net, target_net, memory, config, rng, velocity):
    """The update on stacked encodings, with the momentum step written as
    `v = mom * v - lr * g` on `velocity`."""
    if len(memory.buffer) < config.batch_size:
        return None
    batch = memory.sample(config.batch_size, rng)
    x = np.stack([b[0].row for b in batch])
    actions = np.array([b[1] for b in batch], dtype=int)
    rewards = np.array([b[3] for b in batch])
    terminal = np.array([b[4] for b in batch], dtype=bool)
    next_q = target_net.forward(np.stack([b[2].row for b in batch]))
    targets = rewards + np.where(terminal, 0.0,
                                 config.discount * next_q.max(axis=1))
    loss, grads = net.loss_and_grads(x, actions, targets)
    for k, g in grads.items():
        velocity[k] = config.momentum * velocity[k] - config.learning_rate * g
        net.params[k] += velocity[k]
    net.update_count += 1
    if net.update_count % config.target_sync == 0:
        target_net.copy_params_from(net)
    return loss


def recorded_transitions():
    """The clipped transitions one training episode records, in the order
    `sim.train` pushes them."""
    sim_config = SimConfig(max_steps=100)
    _, world = run_episode(build_network({"dc_count": 40, "seed": 5}), 4, 3.0,
                           5, QNetwork(ModelConfig(), seed=1), epsilon=0.5,
                           config=sim_config, train=True)
    clip = sim_config.reward_clip
    return [(s, a, s2, max(-clip, min(clip, r)), terminal)
            for cid in sorted(world.transitions)
            for s, a, s2, r, terminal in world.transitions[cid]]


def test_update_matches_list_replay_reference():
    """Row replay and the list reference, fed the same recorded transitions
    in chunks through a ring that wraps, give bit-equal parameters and equal
    losses after every update."""
    transitions = recorded_transitions()
    config = ModelConfig(replay_capacity=256, target_sync=20)
    assert len(transitions) > 3 * config.replay_capacity
    net, ref_net = QNetwork(config, seed=4), QNetwork(config, seed=4)
    target, ref_target = net.clone(), ref_net.clone()
    mem, ref_mem = ReplayMemory(256), RefReplayMemory(256)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    velocity = {k: np.zeros_like(v) for k, v in ref_net.params.items()}
    updates = 0
    for start in range(0, len(transitions), 40):
        for t in transitions[start:start + 40]:
            mem.push(*t)
            ref_mem.push(*t)
        for _ in range(8):
            loss = update(net, target, mem, config, rng)
            assert loss == ref_update(ref_net, ref_target, ref_mem, config,
                                      ref_rng, velocity)
            for k in net.params:
                assert np.array_equal(net.params[k], ref_net.params[k]), k
                assert np.array_equal(target.params[k], ref_target.params[k])
            updates += loss is not None
    assert updates >= 200
    assert mem.pos == ref_mem.pos


def test_apply_grads_matches_momentum_formula():
    """The in-place momentum step gives the bits of `v = mom * v - lr * g;
    p += v` after 50 steps."""
    config = small_config()
    net = QNetwork(config, seed=2)
    params = {k: v.copy() for k, v in net.params.items()}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    rng = np.random.default_rng(6)
    for _ in range(50):
        states = [random_state(rng) for _ in range(8)]
        _, grads = net.loss_and_grads(
            np.stack([s.row for s in states]),
            rng.integers(config.action_count, size=8), rng.normal(size=8))
        for k, g in grads.items():
            velocity[k] = config.momentum * velocity[k] - config.learning_rate * g
            params[k] += velocity[k]
        net.apply_grads(grads)
    for k in params:
        assert np.array_equal(net.params[k], params[k])
        assert np.array_equal(net.velocity[k], velocity[k])


def test_update_zero_loss_fixed_point():
    cfg = small_config()
    cfg = ModelConfig(branch_width=4, hidden_widths=(8,), discount=0.0,
                      batch_size=1)
    net = QNetwork(cfg, seed=0)
    s = random_state(np.random.default_rng(3))
    q = q_values(net, s)
    a = int(np.argmax(q))
    mem = ReplayMemory(10)
    mem.push(s, a, s, float(q[a]), False)  # reward equals current estimate
    loss = update(net, net.clone(), mem, cfg, np.random.default_rng(0))
    assert loss == pytest.approx(0.0, abs=1e-18)


def test_update_insufficient_memory():
    cfg = ModelConfig(branch_width=4, hidden_widths=(8,), batch_size=64)
    net = QNetwork(cfg, seed=0)
    assert update(net, net.clone(), ReplayMemory(10), cfg,
                  np.random.default_rng(0)) is None


def test_update_converges_on_single_transition():
    cfg = ModelConfig(branch_width=4, hidden_widths=(8,), discount=0.0,
                      batch_size=1, learning_rate=1e-2,
                      momentum=0.0)
    net = QNetwork(cfg, seed=9)
    s = random_state(np.random.default_rng(5))
    mem = ReplayMemory(4)
    mem.push(s, 3, s, 2.0, True)
    target = net.clone()  # discount 0: next-state values never count
    losses = [update(net, target, mem, cfg, np.random.default_rng(0))
              for _ in range(200)]
    assert losses[-1] < losses[0]
    assert q_values(net, s)[3] == pytest.approx(2.0, abs=0.05)


def test_weight_roundtrip(tmp_path):
    cfg = ModelConfig()
    net = QNetwork(cfg, seed=17)
    path = str(tmp_path / "w.bin")
    save_weights(net, path)
    back = load_weights(path, cfg)
    s = random_state(np.random.default_rng(11))
    assert np.array_equal(q_values(net, s), q_values(back, s))


def test_weight_arch_mismatch(tmp_path):
    net = QNetwork(ModelConfig(), seed=0)
    path = str(tmp_path / "w.bin")
    save_weights(net, path)
    with pytest.raises(DrlError):
        load_weights(path, ModelConfig(branch_width=16))


def test_weight_params_must_name_every_parameter_once(tmp_path):
    """A header that leaves out a parameter, names one twice or has no
    `params` is refused: the left-out ones used to keep their seed-0
    values, and a missing list raised a KeyError. So are a header that is
    not a JSON object and a shape that is not a list of whole numbers."""
    cfg = ModelConfig()
    net = QNetwork(cfg, seed=3)
    path = str(tmp_path / "w.bin")
    net.params = {"Wa": net.params["Wa"]}
    save_weights(net, path)
    with pytest.raises(DrlError, match="exactly once"):
        load_weights(path, cfg)

    def write(header):
        blob = json.dumps(header).encode()
        with open(path, "wb") as fh:
            fh.write(b"SFCQNET1" + struct.pack("<I", len(blob)) + blob)

    arch = {"arch": cfg.arch_dict(), "arch_hash": cfg.arch_hash()}
    full = QNetwork(cfg, seed=0).params
    listed = [[name, list(full[name].shape)] for name in sorted(full)]
    for params in (listed + listed[:1], listed[1:], 5, [[1, 2, 3]]):
        write({**arch, "params": params})
        with pytest.raises(DrlError, match="exactly once"):
            load_weights(path, cfg)
    write(arch)
    with pytest.raises(DrlError, match="exactly once"):
        load_weights(path, cfg)
    write([arch])  # JSON, but not an object
    with pytest.raises(DrlError, match="corrupt weight header"):
        load_weights(path, cfg)
    for shape in ("x", None, [None]):  # these crashed inside numpy
        write({**arch, "params": [[listed[0][0], shape], *listed[1:]]})
        with pytest.raises(DrlError, match="shape mismatch"):
            load_weights(path, cfg)


def test_weight_corrupt_header(tmp_path):
    net = QNetwork(ModelConfig(), seed=0)
    path = str(tmp_path / "w.bin")
    save_weights(net, path)
    data = bytearray(open(path, "rb").read())
    data[20] ^= 0xFF  # flip a header byte
    open(path, "wb").write(bytes(data))
    with pytest.raises(DrlError):
        load_weights(path, ModelConfig())


def test_load_weights_rejects_non_finite_parameters(tmp_path):
    """A weight file with a NaN or an infinity in one parameter is refused,
    with the parameter named: one NaN in `Wh0` made every Q-value NaN, and
    argmax picked action 0 for every agent."""
    cfg = ModelConfig()
    path = str(tmp_path / "w.bin")
    for name, bad in (("Wh0", math.nan), ("bout", math.inf),
                      ("ba", -math.inf)):
        net = QNetwork(cfg, seed=0)
        net.params[name].reshape(-1)[1] = bad
        save_weights(net, path)
        with pytest.raises(DrlError, match=f"parameter {name} is not finite"):
            load_weights(path, cfg)


# ---- the parameter vector --------------------------------------------------


def test_copies_share_no_memory_with_their_source(tmp_path):
    """`clone`, `copy_params_from` and `load_weights` give networks with
    parameters and velocities of their own: each array is a view of its own
    network's vector and shares no memory with the source's, and updates of
    the source leave the copies' bits as they were."""
    cfg = ModelConfig(batch_size=8)
    net = QNetwork(cfg, seed=4)
    path = str(tmp_path / "w.bin")
    save_weights(net, path)
    copied = QNetwork(cfg, seed=5)
    copied.copy_params_from(net)
    copies = [net.clone(), copied, load_weights(path, cfg)]
    kept = [c.params.flat.tobytes() for c in copies]
    assert kept == [net.params.flat.tobytes()] * 3
    for c in copies:
        for k in net.params:
            for own, source in ((c.params, net.params),
                                (c.velocity, net.velocity)):
                assert np.shares_memory(own[k], own.flat)
                assert not np.shares_memory(own[k], source.flat), k
    rng = np.random.default_rng(0)
    mem = ReplayMemory(16)
    for _ in range(16):
        mem.push(random_state(rng), int(rng.integers(13)), random_state(rng),
                 float(rng.normal()), False)
    target = net.clone()
    for _ in range(3):
        update(net, target, mem, cfg, rng)
    assert net.params.flat.tobytes() != kept[0]
    assert [c.params.flat.tobytes() for c in copies] == kept


def test_gradients_keep_their_bits_after_later_calls():
    """The gradients one `loss_and_grads` call returns are a vector of their
    own: a second call on other inputs, and a momentum step with its
    gradients, leave the first call's bits as they were."""
    net = load_weights(TRAINED_WEIGHTS, ModelConfig())
    rng = np.random.default_rng(14)

    def grads_of(size):
        x = rng.uniform(0, 1, (size, STATE_DIM))
        return net.loss_and_grads(
            x, rng.integers(net.config.action_count, size=size),
            rng.normal(size=size))[1]

    first = grads_of(64)
    kept = {k: g.tobytes() for k, g in first.items()}
    for size in (64, 5):
        later = grads_of(size)
        assert not np.shares_memory(later.flat, first.flat)
        net.apply_grads(later)
        assert {k: g.tobytes() for k, g in first.items()} == kept


def test_assigning_a_parameter_writes_into_the_vector():
    """`net.params[k] = array` copies the array into k's view of the
    parameter vector, so `forward`, which adds the three branch biases as
    one slice of the vector, gives the bits of the per-branch reference
    after each branch bias is assigned; an array of another shape is
    refused."""
    net = QNetwork(ModelConfig(), seed=2)
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, (5, STATE_DIM))
    b = INPUT_A_DIM + INPUT_B_DIM
    blocks_of_x = [np.ascontiguousarray(x[:, cols]) for cols in
                   (slice(0, INPUT_A_DIM), slice(INPUT_A_DIM, b),
                    slice(b, None))]
    for k in ("ba", "bb", "bc"):
        before = net.forward(x).tobytes()
        net.params[k] = rng.normal(0.0, 1.0, net.params[k].shape)
        assert np.shares_memory(net.params[k], net.params.flat)
        got = net.forward(x).tobytes()
        assert got != before
        assert got == ref_forward_blocks(net, *blocks_of_x).tobytes(), k
    with pytest.raises(ValueError, match=r"ba has shape \(32,\)"):
        net.params["ba"] = np.zeros(3)
