"""Acceptance suite: the shipped guarantees, one test and one printed
PASS/FAIL line per criterion."""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
import yaml

import sfcsim.sim as sim
from sfcsim import cli
from sfcsim.drl import ModelConfig, QNetwork, save_weights
from sfcsim.routing import RouteCounters, d2d_shortest_path, find_path
from sfcsim.sim import recompute_ledger, run_episode
from sfcsim.topology import build_network, make_clusters
from sfcsim.workload import ACCEPTED


VERDICT_LINES: list[str] = []


def verdict(num: int, desc: str, ok: bool) -> bool:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stderr__)
    return ok


# ---- criteria 1, 2, 10 share one batch of verified episodes ----------------

@pytest.fixture(scope="module")
def verified_runs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    runs = []
    for i in range(50):
        n = int(rng.integers(4, 21))
        g = build_network({"dc_count": n, "seed": int(rng.integers(2 ** 31))})
        limit = int(rng.integers(2, 7))
        scale = float(rng.uniform(0.05, 0.3))
        rep, world = run_episode(
            g, limit, scale, int(rng.integers(2 ** 31)),
            QNetwork(ModelConfig(), seed=i), epsilon=1.0,
            step_hook=lambda w: w.substrate.verify_accounting())
        runs.append((rep, world))
    return runs, time.perf_counter() - t0


def test_criterion_01_constraint_safety(verified_runs):
    """Full-state accounting recomputed after every step of 50 episodes:
    node capacities, link bandwidth, exact equality, within 2 minutes."""
    runs, elapsed = verified_runs
    # the step hook re-derives every residual from first principles and
    # raises on any drift, so reaching here means zero violations
    ok = len(runs) == 50 and elapsed < 120.0
    assert verdict(1, f"constraint safety, 50 episodes in {elapsed:.1f}s", ok)


def test_criterion_02_deadline_soundness(verified_runs):
    """Accepted: recomputed delay ledger within budget, exactly. Dropped for
    deadline: the recorded lower bound proves the request could not finish."""
    runs, _ = verified_runs
    checked_acc = checked_drop = 0
    ok = True
    for rep, world in runs:
        for r in world.requests:
            if r.status == ACCEPTED:
                prop, proc = recompute_ledger(r)
                ok &= prop == r.propagation_total
                ok &= proc == r.processing_total
                ok &= prop + proc <= r.sfc_type.e2e_tolerance
                checked_acc += 1
            elif r.drop_reason == "deadline":
                waited = max(0.0, r.drop_time - r.ready_time)
                bound = (r.accrued_delay + waited
                         + r.sfc_type.remaining_proc[r.next_vnf_index])
                ok &= bound > r.sfc_type.e2e_tolerance
                checked_drop += 1
    ok &= checked_acc > 0 and checked_drop > 0
    assert verdict(
        2, f"deadline soundness ({checked_acc} accepts, "
           f"{checked_drop} deadline drops)", ok)


# ---- criterion 3: routing vs exhaustive enumeration ------------------------

def _enumerate_best(g, nodes, free, src, dst, bw):
    best = None

    def walk(u, seen, dist):
        nonlocal best
        if u == dst:
            if best is None or dist < best:
                best = dist
            return
        for v, link in g.adjacency[u]:
            if v in seen or v not in nodes or free(link) < bw:
                continue
            walk(v, seen | {v}, dist + link.distance)

    walk(src, {src}, 0.0)
    return best


def test_criterion_03_routing_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(321)
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 13))
        g = build_network({"dc_count": n, "seed": int(rng.integers(2 ** 31))})
        loads = {l.key: float(rng.uniform(0, 1000)) for l in g.links}
        free = lambda link: loads[link.key]
        bw = float(rng.uniform(0, 800))
        src, dst = (int(x) for x in rng.choice(n, size=2, replace=False))
        got = d2d_shortest_path(g.adjacency, free, src, dst, bw)
        want = _enumerate_best(g, set(range(n)), free, src, dst, bw)
        if want is None:
            ok &= got is None
        else:
            ok &= got is not None and got.total_distance == pytest.approx(want)
            ok &= all(free(link) >= bw for link in got.links_used)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert verdict(3, f"routing oracle, 200 graphs in {elapsed:.1f}s", ok)


def test_criterion_04_c2c_locality():
    """Two-level path discovery never settles more nodes than the two largest
    clusters combined; a whole-network search does."""
    g = build_network({"dc_count": 80, "seed": 13})
    part = make_clusters(g, 5, 0)
    sizes = sorted((len(m) for m in part.clusters.values()), reverse=True)
    bound = sizes[0] + sizes[1]
    local = RouteCounters()
    glob = RouteCounters()
    rng = np.random.default_rng(4)
    exceeded = False
    for _ in range(200):
        src, dst = (int(x) for x in rng.choice(80, size=2, replace=False))
        find_path(part, lambda link: 1000.0, src, dst, 1.0, local)
        p = d2d_shortest_path(g.adjacency, lambda link: 1000.0, src, dst,
                              1.0, glob)
        if glob.dijkstra_settled and glob.dijkstra_settled[-1] > bound:
            exceeded = True
    local_max = max(local.dijkstra_settled)
    ok = part.cluster_count == 16 and local_max <= bound and exceeded
    assert verdict(
        4, f"locality: clustered max {local_max} <= {bound}, "
           f"global max {max(glob.dijkstra_settled)}", ok)


def test_criterion_05_clustering_invariants():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 60))
        limit = int(rng.integers(2, 9))
        g = build_network({"dc_count": n, "seed": int(rng.integers(2 ** 31))})
        part = make_clusters(g, limit, int(rng.integers(2 ** 31)))
        members = sorted(d for m in part.clusters.values() for d in m)
        ok &= members == list(range(n))  # coverage, no duplicates
        ok &= all(len(m) <= limit for m in part.clusters.values())
        # stability: no DC strictly prefers another cluster with spare room
        for i in range(n):
            own = part.assignment[i]
            p = g.dcs[i].position
            d_own = math.hypot(p[0] - part.centroids[own][0],
                               p[1] - part.centroids[own][1])
            for c, m in part.clusters.items():
                if c == own or len(m) >= limit:
                    continue
                d_c = math.hypot(p[0] - part.centroids[c][0],
                                 p[1] - part.centroids[c][1])
                ok &= d_c >= d_own - 1e-9
    assert verdict(5, "clustering coverage/size/stability, 100 instances", ok)


def test_criterion_06_gradient_check():
    t0 = time.perf_counter()
    eps = 1e-5
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        cfg = ModelConfig(branch_width=4, hidden_widths=(8,))
        net = QNetwork(cfg, seed=int(rng.integers(2 ** 31)))
        from sfcsim.drl import STATE_DIM
        x = rng.uniform(0, 1, (1, STATE_DIM))
        action = np.array([int(rng.integers(cfg.action_count))])
        target = np.array([float(rng.normal())])
        _, grads = net.loss_and_grads(x, action, target)
        for name in net.params:
            flat = net.params[name].reshape(-1)
            for idx in rng.choice(flat.size, size=min(2, flat.size),
                                  replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _ = net.loss_and_grads(x, action, target)
                flat[idx] = orig - eps
                lm, _ = net.loss_and_grads(x, action, target)
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                an = grads[name].reshape(-1)[idx]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    assert verdict(
        6, f"gradient check, worst rel err {worst:.2e} in {elapsed:.1f}s", ok)


# ---- criteria 7 and 8 share one trained policy -----------------------------

EVAL_SEEDS = (11, 12, 13, 14, 15)


@pytest.fixture(scope="module")
def trained_eval():
    t0 = time.perf_counter()
    result = sim.train(sim.TrainConfig(), seed=0)
    # the shipped policy: the best validation round's
    policy = result.best
    g = build_network({"dc_count": 20, "seed": 11})

    def evaluate(policy, limit, epsilon):
        return [run_episode(g, limit, 1.0, s, policy, epsilon=epsilon)[0]
                for s in EVAL_SEEDS]

    reports = {
        "trained_dist": evaluate(policy, 4, 0.0),
        "trained_cent": evaluate(policy, 20, 0.0),
        "random_dist": [run_episode(g, 4, 1.0, s,
                                    QNetwork(ModelConfig(), seed=s),
                                    epsilon=1.0)[0]
                        for s in EVAL_SEEDS],
    }
    return reports, time.perf_counter() - t0


def _mean_acc(reports):
    return float(np.mean([float(r.acceptance_ratio) for r in reports]))


def test_criterion_07_training_efficacy(trained_eval):
    reports, elapsed = trained_eval
    tr_dist = _mean_acc(reports["trained_dist"])
    tr_cent = _mean_acc(reports["trained_cent"])
    rand = _mean_acc(reports["random_dist"])
    ok = (tr_dist >= rand + 0.15 and tr_dist >= tr_cent + 0.10
          and elapsed < 1800.0)
    assert verdict(
        7, f"training efficacy: trained {tr_dist:.3f} vs random {rand:.3f}, "
           f"centralized {tr_cent:.3f}, {elapsed:.0f}s", ok)


def test_criterion_08_priority_trend(trained_eval):
    reports, _ = trained_eval
    gen = {"MIoT": 0, "AR": 0}
    acc = {"MIoT": 0, "AR": 0}
    for rep in reports["trained_dist"]:
        for name in gen:
            g, a, d = rep.per_type[name]
            gen[name] += g
            acc[name] += a
    miot = acc["MIoT"] / gen["MIoT"]
    ar = acc["AR"] / gen["AR"]
    ok = miot >= ar
    assert verdict(
        8, f"priority trend: MIoT acceptance {miot:.3f} >= AR {ar:.3f}", ok)


def test_criterion_09_byte_identical_reruns(tmp_path):
    save_weights(QNetwork(ModelConfig(), seed=0), str(tmp_path / "w.bin"))
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({
        "topology": {"dc_count": 8, "seed": 3},
        "cluster": {"size_limit": 3},
        "workload": {"scale": 0.2},
        "sim": {"episodes": 2, "seeds": [1, 2]},
    }))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["eval", "--config", str(cfg),
                       "--weights", str(tmp_path / "w.bin"),
                       "--out", str(out)])
        assert rc == 0
        outs.append(((out / "report.csv").read_bytes(),
                     (out / "report.json").read_bytes()))
    ok = outs[0] == outs[1]
    assert verdict(9, "byte-identical CSV/JSON across reruns", ok)


def test_criterion_10_accounting_identity(verified_runs):
    runs, _ = verified_runs
    ok = True
    for rep, world in runs:
        per_type = {name: [0, 0, 0] for name in rep.per_type}
        for (c, name), (g, a, d) in rep.per_cluster_type.items():
            per_type[name][0] += g
            per_type[name][1] += a
            per_type[name][2] += d
        ok &= {k: tuple(v) for k, v in per_type.items()} == rep.per_type
        ok &= all(g == a + d for g, a, d in rep.per_type.values())
        total_gen = sum(v[0] for v in rep.per_type.values())
        total_acc = sum(v[1] for v in rep.per_type.values())
        if total_gen:
            ok &= rep.acceptance_ratio == Fraction(total_acc, total_gen)
        else:
            ok &= rep.acceptance_ratio is None
    assert verdict(10, "acceptance-ratio accounting identity, 50 reports", ok)
