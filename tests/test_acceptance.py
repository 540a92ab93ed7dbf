"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Absolute numbers from the original measurement campaigns are not reproducible
at desk scale; these criteria check the directional properties against
simulator ground truth at pinned tolerances.
"""

from __future__ import annotations

import csv
import math
import os
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from wifislam import evaluation, gating
from wifislam.cli import main as cli_main
from wifislam.clustering import ClusterStore, assign, similar_clusters
from wifislam.frontend import InvertedIndex, word_masks
from wifislam.posegraph import (
    Pose2,
    PoseGraph,
    apply_rigid,
    between,
    compose,
    kabsch_align,
    optimize,
    residual,
    residual_jacobians,
    rmse,
)
from wifislam.signature import Signature
from wifislam.simworld import preset_worlds


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


RTAB_TIGHT_THRESHOLD = 70.0  # forces WM flushes well before the revisit on j_hall


@pytest.fixture(scope="module")
def rtab_tight_runs(dataset_cache):
    """Criterion 2/3 shared runs: rtab on j_hall at the tight threshold, 10 seeds."""
    out = {}
    for seed in range(10):
        ds = dataset_cache("j_hall", seed)
        pair = {}
        for gated in (False, True):
            p = gating.PolicyParams(
                policy="rtab",
                gated=gated,
                min_matches=20,
                seed=seed,
                rtab=gating.RtabParams(real_time_threshold=RTAB_TIGHT_THRESHOLD),
            )
            rec = gating.run_pipeline(ds, p)
            pair[gated] = evaluation.report_row(rec, ds)
        out[seed] = pair
    return out


def test_criterion_01_perceptual_aliasing_fix(dataset_cache):
    """Vanilla ORB at low min-matches suffers false positives on aliased
    corridors; gating removes every one of them. Bounded runtime."""
    t0 = time.perf_counter()
    n_seeds = 20
    vanilla_hit = {}
    gated_clean = True
    for preset in ("b_hall", "c_hall"):
        for mm in (10, 15):
            hits = 0
            for seed in range(n_seeds):
                ds = dataset_cache(preset, seed)
                fp = {}
                for gated in (True, False):
                    p = gating.PolicyParams(policy="orb", gated=gated, min_matches=mm, seed=seed)
                    rec = gating.run_pipeline(ds, p)
                    score = evaluation.score_loops(rec.loop_edges, ds.gt_loop_pairs)
                    fp[gated] = score.false_positives
                if fp[False] >= 1:
                    hits += 1
                if fp[True] != 0:
                    gated_clean = False
            vanilla_hit[(preset, mm)] = hits / n_seeds
    elapsed = time.perf_counter() - t0
    ok = all(v >= 0.8 for v in vanilla_hit.values()) and gated_clean and elapsed < 120.0
    report(
        "criterion 1 (aliasing fix)",
        ok,
        f"vanilla FP rate per cell {vanilla_hit}, gated always clean={gated_clean}, runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_02_rtab_memory_recovery(rtab_tight_runs):
    """With a tight budget all related frames leave WM: vanilla misses every
    closure while Wi-Fi retrieval recovers them."""
    vanilla_fn = [float(pair[False]["fn_pct"]) for pair in rtab_tight_runs.values()]
    gated_fn = [float(pair[True]["fn_pct"]) for pair in rtab_tight_runs.values()]
    ok = all(v == 100.0 for v in vanilla_fn) and all(g <= 20.0 for g in gated_fn)
    report(
        "criterion 2 (rtab memory recovery)",
        ok,
        f"vanilla FN% {sorted(set(vanilla_fn))}, gated FN% max {max(gated_fn):.1f} <= 20",
    )


def test_criterion_03_accuracy_direction(rtab_tight_runs):
    """Wherever vanilla missed all closures, gating at least halves the RMSE."""
    ratios = {}
    for seed, pair in rtab_tight_runs.items():
        if float(pair[False]["fn_pct"]) == 100.0:
            ratios[seed] = float(pair[True]["rmse_m"]) / float(pair[False]["rmse_m"])
    ok = bool(ratios) and all(r < 0.5 for r in ratios.values())
    report(
        "criterion 3 (accuracy direction)",
        ok,
        f"gated/vanilla RMSE ratios over {len(ratios)} scenarios, worst {max(ratios.values()):.3f} < 0.5",
    )


def test_criterion_04_compute_reduction(dataset_cache):
    """Gated ORB search cost is at most 85% of vanilla on the large preset,
    with gated candidate sets always subsets of vanilla's."""
    ratios = []
    subset_clean = True
    clusters_ok = True
    for seed in range(10):
        ds = dataset_cache("j_hall", seed)
        cost = {}
        for gated in (True, False):
            p = gating.PolicyParams(policy="orb", gated=gated, min_matches=20, seed=seed)
            rec = gating.run_pipeline(ds, p)
            cost[gated] = rec.loop_cost
            if gated:
                subset_clean &= rec.subset_violations == 0
                clusters_ok &= len(rec.store) >= 8
        ratios.append(cost[True] / cost[False])
    mean_ratio = sum(ratios) / len(ratios)
    ok = mean_ratio <= 0.85 and subset_clean and clusters_ok
    report(
        "criterion 4 (compute reduction)",
        ok,
        f"mean gated/vanilla cost {mean_ratio:.3f} <= 0.85, subsets clean={subset_clean}, >=8 clusters={clusters_ok}",
    )


def test_criterion_05_overhead_bound(dataset_cache):
    """Clustering + management overhead stays within 10% of the vanilla
    loop-closure cost on every preset."""
    pct = {}
    for name in ("a_hall", "b_hall", "c_hall", "j_hall"):
        ds = dataset_cache(name, 0)
        vanilla = gating.run_pipeline(
            ds, gating.PolicyParams(policy="orb", gated=False, min_matches=20, seed=0)
        )
        gated = gating.run_pipeline(
            ds, gating.PolicyParams(policy="orb", gated=True, min_matches=20, seed=0)
        )
        pct[name] = 100.0 * (gated.clustering_cost + gated.management_cost) / vanilla.loop_cost
    ok = all(v <= 10.0 for v in pct.values())
    report(
        "criterion 5 (overhead bound)",
        ok,
        "overhead as % of vanilla loop cost: " + ", ".join(f"{k}={v:.2f}%" for k, v in pct.items()),
    )


def test_criterion_06_similarity_distance_trend(dataset_cache):
    """Wi-Fi similarity falls with physical distance, with and without RSSI noise."""
    base = preset_worlds()["b_hall"]
    rhos = {}
    for sigma, bound in ((0.0, -0.5), (2.0, -0.3)):
        cfg = replace(base, propagation=replace(base.propagation, noise_sigma_db=sigma))
        worst = -1.0
        for seed in range(5):
            ds = dataset_cache(f"b_hall_sigma{sigma}", seed, config=cfg)
            _pts, rho = evaluation.similarity_distance_curve(ds, ds.signatures)
            worst = max(worst, rho)
        rhos[sigma] = (worst, bound)
    ok = all(worst < bound for worst, bound in rhos.values())
    report(
        "criterion 6 (similarity-distance trend)",
        ok,
        ", ".join(f"sigma={s}: worst rho {w:.3f} < {b}" for s, (w, b) in rhos.items()),
    )


def test_criterion_07_numerical_oracles():
    """Kabsch recovers rigid transforms exactly; Jacobians match finite
    differences; LM error is non-increasing over accepted steps."""
    rng = np.random.default_rng(123)

    # Kabsch exactness on synthetic rigid transforms
    kabsch_ok = True
    for _ in range(25):
        pts = rng.uniform(-10, 10, size=(int(rng.integers(2, 40)), 2))
        th = rng.uniform(-math.pi, math.pi)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        gt = pts @ rot.T + rng.uniform(-5, 5, size=2)
        r, t = kabsch_align(pts, gt)
        kabsch_ok &= rmse(apply_rigid(r, t, pts), gt) < 1e-9

    # Jacobians vs central differences on 50 random graphs
    h = 1e-6
    worst_rel = 0.0
    for _ in range(50):
        g = _random_graph(rng)
        m = len(g.edges)
        for (a, b), z in zip(g.edges.tolist(), g._z[:m].tolist()):
            z = Pose2(*z)
            _r0, ja, jb = residual_jacobians(g.nodes[a], g.nodes[b], z)
            for node_id, jan in ((a, ja), (b, jb)):
                fd = np.zeros((3, 3))
                for col in range(3):
                    plus, minus = [], []
                    for sign in (+1, -1):
                        nodes = dict(g.nodes)
                        p = nodes[node_id]
                        vals = [p.x, p.y, p.theta]
                        vals[col] += sign * h
                        nodes[node_id] = Pose2(*vals)
                        (plus if sign > 0 else minus).append(residual(nodes[a], nodes[b], z))
                    fd[:, col] = (plus[0] - minus[0]) / (2 * h)
                scale = max(1.0, float(np.abs(jan).max()))
                worst_rel = max(worst_rel, float(np.max(np.abs(fd - jan))) / scale)
    jac_ok = worst_rel < 1e-6

    # LM monotonicity over accepted steps
    lm_ok = True
    for _ in range(10):
        g = _random_graph(rng)
        stats: dict = {}
        optimize(g, max_iters=50, stats=stats)
        errs = stats["accepted_errors"]
        lm_ok &= all(b <= a for a, b in zip(errs, errs[1:]))

    ok = kabsch_ok and jac_ok and lm_ok
    report(
        "criterion 7 (numerical oracles)",
        ok,
        f"kabsch exact={kabsch_ok}, jacobian worst rel err {worst_rel:.2e} < 1e-6, LM monotone={lm_ok}",
    )


def _random_graph(rng, n_nodes=6, n_loops=3):
    g = PoseGraph()
    g.add_node(0, Pose2())
    pose = Pose2()
    for k in range(1, n_nodes):
        step = Pose2(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3), rng.uniform(-0.6, 0.6))
        pose = compose(pose, step)
        g.add_node(k, pose)
        noisy = Pose2(
            step.x + rng.normal(0, 0.05), step.y + rng.normal(0, 0.05), step.theta + rng.normal(0, 0.02)
        )
        g.add_edge(k - 1, k, noisy, np.diag(rng.uniform(0.5, 4.0, size=3)))
    for _ in range(n_loops):
        a, b = rng.choice(n_nodes, size=2, replace=False)
        rel = between(g.nodes[int(a)], g.nodes[int(b)])
        g.add_edge(int(a), int(b), rel, np.diag(rng.uniform(0.5, 4.0, size=3)))
    return g


def test_criterion_08_oracle_equivalence():
    """Index queries and similar-cluster queries agree with brute force."""
    rng = np.random.default_rng(7)

    bags = [tuple(sorted(rng.choice(300, size=int(rng.integers(3, 30)), replace=True).tolist())) for _ in range(500)]
    queries = [tuple(rng.choice(300, size=int(rng.integers(3, 30)), replace=True).tolist()) for _ in range(100)]
    every = bags + queries  # the masks of one word_masks call, as a dataset's are
    masks = word_masks(np.array([w for b in every for w in b], dtype=np.int64), np.cumsum([0, *map(len, every)]))
    idx = InvertedIndex()
    for kf in range(len(bags)):
        idx.insert(kf, masks[kf])
    index_ok = True
    for q, q_mask in zip(queries, masks[len(bags):]):
        shared = {kf: sum((Counter(q) & Counter(b)).values()) for kf, b in enumerate(bags)}
        brute = sorted(
            ((n, kf) for kf, n in shared.items() if n > 0),
            key=lambda e: (-e[0], e[1]),
        )
        index_ok &= idx.query(q_mask) == [kf for _n, kf in brute]

    ap = lambda k: f"0A:00:00:00:{k:02X}:00"
    store = ClusterStore()
    from wifislam.signature import cosine_similarity

    for k in range(40):
        rep = Signature(
            entries={ap(int(j)): float(v) for j, v in enumerate(rng.uniform(0, 60, size=6)) if v > 5},
            collected_at=float(k),
            pause_index=k,
        )
        if not rep.entries:
            rep = Signature(entries={ap(0): 10.0}, collected_at=float(k), pause_index=k)
        assign(store, k, rep, set(), ())
    clusters_ok = True
    for _ in range(100):
        probe = Signature(
            entries={ap(int(j)): float(v) for j, v in enumerate(rng.uniform(1, 60, size=6))},
            collected_at=0.0,
            pause_index=0,
        )
        thr = float(rng.uniform(0.2, 0.999))
        got = similar_clusters(store, probe, thr)
        brute = sorted(
            (
                (c.id, cosine_similarity(probe, c.representative))
                for c in store.clusters
                if cosine_similarity(probe, c.representative) >= thr
            ),
            key=lambda e: (-e[1], e[0]),
        )
        clusters_ok &= list(got) == brute

    ok = index_ok and clusters_ok
    report(
        "criterion 8 (oracle equivalence)",
        ok,
        f"index_query == brute force over 100 cases: {index_ok}; similar_clusters == brute filter: {clusters_ok}",
    )


def test_criterion_09_determinism(tmp_path):
    """gen + run twice with a fixed seed produce byte-identical outputs,
    wall-time fields excluded."""
    outs = []
    for tag in ("a", "b"):
        d = tmp_path / f"ds_{tag}"
        r = tmp_path / f"run_{tag}"
        assert cli_main(["gen", "--world", "b_hall", "--seed", "11", "--out", str(d)]) == 0
        assert (
            cli_main(
                ["run", "--dataset", str(d), "--out", str(r), "--policy", "orb",
                 "--gated", "true", "--min-matches", "15", "--seed", "11"]
            )
            == 0
        )
        outs.append((d, r))
    same = True
    for name in ("frames.csv", "scans.csv", "loops_gt.csv", "world.json"):
        same &= (outs[0][0] / name).read_bytes() == (outs[1][0] / name).read_bytes()
    names = sorted(os.listdir(outs[0][1]))
    same &= names == sorted(os.listdir(outs[1][1]))
    for name in names:
        if name not in ("timings.json", "report_row.csv"):  # wall-clock times; the row is compared below
            same &= (outs[0][1] / name).read_bytes() == (outs[1][1] / name).read_bytes()
    # report row: identical after dropping the wall-time column
    rows = []
    for _d, r in outs:
        with open(r / "report_row.csv") as fh:
            row = next(csv.DictReader(fh))
        row.pop("wall_ms")
        rows.append(row)
    same &= rows[0] == rows[1]
    report("criterion 9 (determinism)", same, "all CSV/JSONL outputs byte-identical (wall-time excluded)")


def test_criterion_10_localization_cdf(dataset_cache):
    """Cluster-gated localization places at least 90% of queries within 4 m."""
    fractions = []
    for seed in range(5):
        ds = dataset_cache("c_hall", seed)
        errors, _fallbacks, _n_map, _n_query = evaluation.localize_dataset(ds, split=0.4, threshold=0.85)
        fractions.append(bisect_right(errors, 4.0) / len(errors))
    ok = all(f >= 0.90 for f in fractions)
    report(
        "criterion 10 (localization CDF)",
        ok,
        f"fraction within 4 m per seed: {[f'{f:.3f}' for f in fractions]} (all >= 0.90)",
    )
