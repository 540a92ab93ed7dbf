from __future__ import annotations

import csv
import math
import os
from collections import deque
from itertools import count
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wifislam import frontend, gating, simworld
from wifislam.clustering import ClusterStore, assign, members_of, similar_clusters
from wifislam.frontend import InvertedIndex, word_masks
from wifislam.gating import (
    MemoryCorruption,
    MemoryState,
    PolicyParams,
    RtabParams,
    orb_candidates,
    params_from_json,
    params_to_json,
    rgbd_candidates,
    rtab_step,
    run_pipeline,
    save_run,
)
from wifislam.posegraph import Pose2, PoseGraph, between
from wifislam.signature import Signature, associate_frames, signatures_of


def sig(entries, t=0.0, pause=0):
    return Signature(entries=entries, collected_at=t, pause_index=pause)


AP = lambda k: f"0A:00:00:00:{k:02X}:00"
I3 = np.eye(3)


def chain_graph(n):
    g = PoseGraph()
    g.add_node(0, Pose2())
    for k in range(1, n):
        g.add_node(k, Pose2(float(k), 0, 0))
        g.add_edge(k - 1, k, Pose2(1, 0, 0), I3)
    return g


def rgbd(graph, current, params, similar=None):
    """rgbd candidates over the base the pipeline computes for ``graph``."""
    return rgbd_candidates(graph, current, params, similar, gating._rgbd_base(graph))


class TestRgbdCandidates:
    @pytest.fixture
    def small_base(self, monkeypatch):
        """A base of the 2 newest keyframes and the newest one's neighbours."""
        monkeypatch.setattr(gating, "RGBD_PREDECESSORS", 2)
        monkeypatch.setattr(gating, "RGBD_GEODESIC_DEPTH", 1)

    def test_first_frame_empty(self):
        p = PolicyParams(policy="rgbd", gated=False, seed=0)
        assert rgbd(PoseGraph(), 0, p) == []

    def test_vanilla_exact_random_count(self, monkeypatch):
        monkeypatch.setattr(gating, "RGBD_RANDOM_KEYFRAMES", 5)
        g = chain_graph(100)
        p = PolicyParams(policy="rgbd", gated=False, seed=0)
        cands = rgbd(g, 100, p)
        base = {99, 98, 97}  # predecessors; geodesic depth 2 from 99 adds 97..99
        extra = [c for c in cands if c not in base]
        assert len(extra) == 5
        assert len(cands) == len(set(cands))

    def test_vanilla_random_is_seeded(self):
        g = chain_graph(50)
        p = PolicyParams(policy="rgbd", gated=False, seed=9)
        a = rgbd(g, 50, p)
        b = rgbd(g, 50, p)
        assert a == b

    def test_gated_without_similar_clusters(self, small_base):
        g = chain_graph(30)
        p = PolicyParams(policy="rgbd", gated=True, seed=0)
        cands = rgbd(g, 30, p, similar=set())
        assert cands == sorted({29, 28})

    def test_gated_adds_cluster_members(self, small_base):
        g = chain_graph(30)
        p = PolicyParams(policy="rgbd", gated=True, seed=0)
        cands = rgbd(g, 30, p, similar={3, 4})
        assert set(cands) == {29, 28, 3, 4}

    def test_current_must_be_absent(self):
        g = chain_graph(5)
        p = PolicyParams(policy="rgbd", gated=False, seed=0)
        with pytest.raises(ValueError):
            rgbd(g, 4, p)


def fresh_memory(stm=(), wm=(), ltm=(), immune=()):
    return MemoryState(stm=deque(stm), wm=set(wm), ltm=set(ltm), immune=set(immune))


class TestRtabStep:
    @pytest.fixture(autouse=True)
    def small_memory(self, monkeypatch):
        """A 3-keyframe STM and transfers of 2 keyframes, unless a test sets its own."""
        monkeypatch.setattr(gating, "RTAB_STM_CAPACITY", 3)
        monkeypatch.setattr(gating, "RTAB_TRANSFER_BATCH", 2)

    def params(self, threshold=math.inf, gated=False):
        return PolicyParams(policy="rtab", gated=gated, seed=0, rtab=RtabParams(real_time_threshold=threshold))

    def test_infinite_threshold_no_transfers(self):
        state = fresh_memory(stm=[7, 8, 9], wm=[1, 2, 3])
        g = chain_graph(10)
        cands, state, transfers, retrievals = rtab_step(
            state, 10, self.params(), step_cost=50.0, graph=g, similar=None
        )
        assert transfers == [] and retrievals == []
        assert cands == [1, 2, 3, 7]  # 7 spilled from STM into WM this step

    def test_stm_overflow_moves_to_wm(self):
        state = fresh_memory(stm=[7, 8, 9])
        g = chain_graph(10)
        cands, state, _, _ = rtab_step(state, 10, self.params(), 0.0, graph=g, similar=None)
        assert list(state.stm) == [8, 9, 10]
        assert state.wm == {7}
        assert cands == [7]

    def test_gated_immunizes_and_retrieves(self):
        state = fresh_memory(stm=[8, 9], wm=[1], ltm=[2, 5])
        g = chain_graph(10)
        p = self.params(gated=True)
        cands, state, transfers, retrieved = rtab_step(state, 10, p, 0.0, graph=g, similar={1, 2, 5})
        assert retrieved == [2, 5]
        assert state.ltm == set()
        assert state.immune == {1, 2, 5}
        assert cands == [1, 2, 5]

    def test_immune_never_transferred(self):
        state = fresh_memory(stm=[9], wm=[1, 2, 3, 4, 5, 6])
        g = chain_graph(10)
        p = self.params(threshold=2.0, gated=True)
        _, state, transfers, _ = rtab_step(state, 10, p, step_cost=99.0, graph=g, similar={1})
        assert 1 not in transfers
        assert 1 in state.wm and 1 in state.immune
        assert len(state.wm) <= 2 + 1  # batch granularity may overshoot the target

    def test_transfer_priority_farthest_first(self, monkeypatch):
        monkeypatch.setattr(gating, "RTAB_TRANSFER_BATCH", 1)
        state = fresh_memory(stm=[9], wm=[1, 2, 3, 8])
        g = chain_graph(10)
        p = self.params(threshold=3.0)
        _, state, transfers, _ = rtab_step(state, 10, p, step_cost=10.0, graph=g, similar=None)
        assert transfers[0] == 1  # graph-wise farthest from the newest node

    def test_transfers_until_projection_fits(self):
        state = fresh_memory(stm=[9], wm=set(range(1, 8)))
        g = chain_graph(10)
        p = self.params(threshold=3.0)
        _, state, transfers, _ = rtab_step(state, 10, p, step_cost=50.0, graph=g, similar=None)
        assert len(state.wm) <= 3
        assert set(transfers) | state.wm == set(range(1, 8))

    def test_memory_invariants_enforced(self):
        state = fresh_memory(stm=[5], wm=[5])
        g = chain_graph(6)
        with pytest.raises(MemoryCorruption):
            rtab_step(state, 6, self.params(), 0.0, graph=g, similar=None)


def merged_cluster_indexes(q, masks, cluster_of, similar):
    """Gated ORB candidates of frame ``q`` the way one index per cluster gives them: query each
    similar cluster's index and merge the scored results by shared count desc, then id asc."""
    indexes: dict[int, InvertedIndex] = {}
    for kf, cid in cluster_of.items():
        indexes.setdefault(cid, InvertedIndex()).insert(kf, masks[kf])
    scored = [e for cid in similar if cid in indexes for e in indexes[cid].query_scored(masks[q])]
    return [kf for kf, _n in sorted(scored, key=lambda e: (-e[1], e[0]))]


def orb_map(masks, cluster_of, n_clusters):
    """A store with ``n_clusters`` clusters holding the keyframes of ``cluster_of``, and one
    index of all those keyframes, from their ``masks``."""
    store, index = ClusterStore(), InvertedIndex()
    for c in range(n_clusters):
        store._new_cluster(sig({AP(c): 10.0}))
    for kf, cid in cluster_of.items():
        store._add_member(cid, kf)
        index.insert(kf, masks[kf])
    return store, index


def gate(store, similar_ids):
    """The pipeline's gate for a frame whose similar clusters are ``similar_ids``."""
    return set(members_of(store, [(cid, 0.9) for cid in similar_ids]))


def query_frame(bags, query):
    """The word bag ``query`` as the frame after the keyframe bags ``bags`` (ids 0..n-1): its id
    and the word masks of all those frames, as a dataset gives them."""
    bags = [*bags, query]
    return len(bags) - 1, word_masks(np.array([w for b in bags for w in b], dtype=np.int64),
                                     np.cumsum([0, *map(len, bags)]))


class TestOrbCandidates:
    def test_gated_no_similar_clusters_empty(self):
        q, masks = query_frame([(1, 2)], (1, 2))
        store, _index = orb_map(masks, {0: 0}, 1)
        assert orb_candidates(None, q, masks, gate(store, [])) == []

    def test_gated_subset_of_vanilla(self):
        rng = np.random.default_rng(0)
        store = ClusterStore()
        rep = sig({AP(1): 10.0})
        bags = []
        for kf in range(20):
            bags.append(tuple(sorted(rng.choice(50, size=8).tolist())))
            sims = similar_clusters(store, rep, 0.99) if kf else ()
            assign(store, kf, rep, {kf - 1} if kf else set(), sims)
        q, masks = query_frame(bags, tuple(range(0, 50, 3)))
        index = InvertedIndex()
        for kf in range(len(bags)):
            index.insert(kf, masks[kf])
        gated = orb_candidates(None, q, masks, gate(store, [c.id for c in store.clusters]))
        vanilla = orb_candidates(index, q, masks, None)
        assert gated and set(gated) <= set(vanilla)

    def test_aliased_keyframe_excluded_when_cluster_not_similar(self):
        shared = tuple(range(12))
        q, masks = query_frame([shared, shared], shared)
        store, index = orb_map(masks, {0: 0, 1: 1}, 2)
        assert orb_candidates(None, q, masks, gate(store, [0])) == [0]  # cluster 1 is not similar
        assert orb_candidates(index, q, masks, None) == [0, 1]

    @settings(max_examples=200, deadline=None)
    @given(
        bags=st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=12), min_size=0, max_size=25),
        query=st.lists(st.integers(0, 15), min_size=1, max_size=12),
        n_clusters=st.integers(1, 5),
        data=st.data(),
    )
    def test_gated_equals_merged_cluster_indexes(self, bags, query, n_clusters, data):
        cluster_of = {kf: data.draw(st.integers(0, n_clusters - 1)) for kf in range(len(bags))}
        similar = data.draw(st.lists(st.integers(0, n_clusters - 1), unique=True))
        q, masks = query_frame(bags, query)
        store, _index = orb_map(masks, cluster_of, n_clusters)
        expected = merged_cluster_indexes(q, masks, cluster_of, similar)
        assert orb_candidates(None, q, masks, gate(store, similar)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        bags=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=16), max_size=20),
        far=st.lists(st.lists(st.integers(100, 107), min_size=1, max_size=6), min_size=1, max_size=4),
        query=st.lists(st.integers(0, 7), min_size=1, max_size=16),
        data=st.data(),
    )
    def test_gated_scores_equal_the_index_ranking_in_the_gate(self, bags, far, query, data):
        # a small vocabulary repeats words within a bag; the `far` keyframes share no word with
        # the query and are always in the gate
        keyframes = bags + far
        similar = data.draw(st.sets(st.sampled_from(range(len(bags))))) if bags else set()
        similar |= set(range(len(bags), len(keyframes)))
        q, masks = query_frame(keyframes, query)
        index = InvertedIndex()
        for kf in range(len(keyframes)):
            index.insert(kf, masks[kf])
        ranking = index.query(masks[q])
        assert orb_candidates(None, q, masks, similar) == [k for k in ranking if k in similar]
        assert orb_candidates(index, q, masks, None) == ranking


@pytest.fixture
def small_rtab_memory(monkeypatch):
    """A 5-keyframe STM and transfers of 3 keyframes, so that a short run under a tight budget moves keyframes."""
    monkeypatch.setattr(gating, "RTAB_STM_CAPACITY", 5)
    monkeypatch.setattr(gating, "RTAB_TRANSFER_BATCH", 3)


@pytest.fixture(scope="module")
def tiny_dataset():
    cfg = simworld.WorldConfig(
        name="tiny",
        trajectory=simworld.TrajectorySpec(shape="square_loop", scale=10.0, laps=2.0, pause_every=3.5),
        template_of={0: 0, 1: 1, 2: 2, 3: 3},
        ap_count=16,
        tx_power_at_1m=-35.0,
        propagation=simworld.PropagationParams(
            path_loss_exponent=3.4, wall_loss_db=7.0, noise_sigma_db=2.0, visibility_floor_dbm=-85.0
        ),
    )
    return simworld.synthesize(cfg, seed=2)


class TestRunPipeline:
    def test_no_revisit_no_loops(self):
        cfg = simworld.WorldConfig(
            name="line",
            trajectory=simworld.TrajectorySpec(shape="square_loop", scale=10.0, laps=0.5),
            template_of={0: 0, 1: 1},
            ap_count=10,
            tx_power_at_1m=-35.0,
        )
        ds = simworld.synthesize(cfg, seed=0)
        rec = run_pipeline(ds, PolicyParams(policy="orb", gated=True, min_matches=20, seed=0))
        assert rec.loop_edges == []
        edges = rec.graph.edges
        odo = edges[edges[:, 0] < edges[:, 1]]  # odometry runs i - 1 -> i, a committed match i -> an earlier keyframe
        assert len(odo) == len(ds.frames) - 1

    def test_gated_orb_closes_loop_without_fp(self, tiny_dataset):
        from wifislam import evaluation

        rec = run_pipeline(tiny_dataset, PolicyParams(policy="orb", gated=True, min_matches=20, seed=2))
        assert len(rec.loop_edges) >= 1
        score = evaluation.score_loops(rec.loop_edges, tiny_dataset.gt_loop_pairs)
        assert score.false_positives == 0

    def test_bit_identical_reruns(self, tiny_dataset, tmp_path):
        p = PolicyParams(policy="orb", gated=True, min_matches=20, seed=2)
        r1 = run_pipeline(tiny_dataset, p)
        r2 = run_pipeline(tiny_dataset, p)
        save_run(r1, tmp_path / "a")
        save_run(r2, tmp_path / "b")
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            if name != "timings.json":  # wall-clock times
                assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("policy", gating.POLICIES)
    def test_frame_trace_agrees_with_frames(self, tiny_dataset, tmp_path, policy):
        n = len(tiny_dataset.frames)
        rtab_columns = ["stm", "wm", "ltm", "immune", "transfers", "retrievals"]
        for gated in (True, False):  # the vanilla run reuses the gated run's directory
            rec = run_pipeline(tiny_dataset, PolicyParams(policy=policy, gated=gated, min_matches=20, seed=2))
            save_run(rec, tmp_path)
            assert sorted(os.listdir(tmp_path)) == [
                "cluster_representatives.jsonl", "config.json", "frame_trace.csv", "timings.json",
                "trajectory_est.csv", "trajectory_gt.csv",
            ]
            reps = (tmp_path / "cluster_representatives.jsonl").read_text()
            assert reps.count("\n") == (len(rec.store) if gated else 0)
            with open(tmp_path / "frame_trace.csv", newline="") as fh:
                trace = csv.DictReader(fh)
                rows = list(trace)
            assert trace.fieldnames == \
                "frame,candidate_count,loop_to,stm,wm,ltm,immune,transfers,retrievals,cluster".split(",")
            assert [r["frame"] for r in rows] == [str(i) for i in range(n)]
            assert list(rec.frames) == ["candidate_count", "loop_to", *(rtab_columns if policy == "rtab" else [])]
            assert all(len(column) == n for column in rec.frames.values())
            assert rec.events is rec.frames and rec.memory_trace == (rec.frames if policy == "rtab" else {})
            for name in ["candidate_count", "loop_to", *rtab_columns]:  # rtab's pools are blank in other runs
                assert [r[name] for r in rows] == list(map(str, rec.frames.get(name, [""] * n))), name
            cluster_of = {k: str(c.id) for c in rec.store.clusters for k in c.members} if gated else {}
            assert [r["cluster"] for r in rows] == [cluster_of.get(i, "") for i in range(n)]
            assert len(cluster_of) == (n if gated else 0)
            loop_to = [int(r["loop_to"]) for r in rows]
            assert rec.loop_edges == [(i, to) for i, to in enumerate(loop_to) if to >= 0]
            assert rec.loop_cost == sum(int(r["candidate_count"]) for r in rows) * gating.VISUAL_COMPARE_COST

    def test_gating_and_subset_violations_zero(self, tiny_dataset):
        for policy in ("rgbd", "rtab", "orb"):
            rec = run_pipeline(tiny_dataset, PolicyParams(policy=policy, gated=True, min_matches=20, seed=2))
            assert rec.gating_violations == 0
            assert rec.subset_violations == 0

    # one predecessor is the newest keyframe, which is its own geodesic neighbour: that
    # base is the geodesic neighbourhood alone
    @pytest.mark.parametrize("policy, n_predecessors", [("rgbd", 1), ("rgbd", 3), ("rtab", 3), ("orb", 3)])
    def test_audit_counts_a_leaked_keyframe(self, monkeypatch, dataset_cache, policy, n_predecessors):
        # a broken candidate selection that also offers keyframe 0 late in the run, when it
        # is mostly neither a predecessor, a geodesic neighbour, a similar-cluster member
        # nor, for orb, in the frame's ranking
        attr = {"rgbd": "rgbd_candidates", "rtab": "rtab_step", "orb": "orb_candidates"}[policy]
        real, frame = getattr(gating, attr), count()  # the policy is called once per frame

        def leak(cands):
            return cands if 0 in cands else [0, *cands]

        def leaky(*args, **kwargs):
            out = real(*args, **kwargs)
            if next(frame) <= 40:
                return out
            return (leak(out[0]), *out[1:]) if policy == "rtab" else leak(out)

        monkeypatch.setattr(gating, attr, leaky)
        monkeypatch.setattr(gating, "RGBD_PREDECESSORS", n_predecessors)
        p = PolicyParams(policy=policy, gated=True, min_matches=20, seed=0)
        rec = run_pipeline(dataset_cache("b_hall", 0), p)
        assert rec.gating_violations > 0
        if policy == "orb":
            assert rec.subset_violations > 0

    @pytest.mark.parametrize("policy, gated, owner, per_frame", [
        ("orb", True, InvertedIndex, {"__init__": 0, "query": 0, "insert": 0}),
        ("orb", False, InvertedIndex, {"query": 1, "insert": 1}),
        ("rgbd", True, gating, {"_rgbd_base": 1}),
    ], ids=["orb", "orb-vanilla", "rgbd"])
    def test_one_gate_input_per_frame(self, monkeypatch, tiny_dataset, policy, gated, owner, per_frame):
        # the audits check the candidates or base the policy was given; they compute none of their own.
        # A gated orb run scores its gate and keeps no index; a vanilla one queries and grows its index
        # once per frame
        calls = {attr: count() for attr in per_frame}

        def counted(attr):
            real = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                next(calls[attr])
                return real(*args, **kwargs)
            return wrapper

        for attr in per_frame:
            monkeypatch.setattr(owner, attr, counted(attr))
        run_pipeline(tiny_dataset, PolicyParams(policy=policy, gated=gated, min_matches=20, seed=2))
        assert {attr: next(c) for attr, c in calls.items()} == {
            attr: n * len(tiny_dataset.frames) for attr, n in per_frame.items()
        }

    def test_poses_only_for_committed_matches(self, monkeypatch, dataset_cache):
        # each word-sharing candidate pair derives its draw key once; only a committed match draws its pose
        ds = dataset_cache("c_hall", 0)
        p = PolicyParams(policy="orb", gated=True, min_matches=20, seed=0)
        keyed, sharing, poses = [], [], count()
        real_key, real_match, real_between = frontend._pair_key, gating.match_frames, frontend.between

        def match(a_id, b_id, shared, *rest):
            if shared:
                sharing.append((p.seed, a_id, b_id))
            return real_match(a_id, b_id, shared, *rest)

        def between(a, b):
            next(poses)
            return real_between(a, b)

        monkeypatch.setattr(frontend, "_pair_key", lambda *args: keyed.append(args) or real_key(*args))
        monkeypatch.setattr(gating, "match_frames", match)
        monkeypatch.setattr(frontend, "between", between)
        rec = run_pipeline(ds, p)
        edges = rec.graph.edges
        loop_edges = edges[edges[:, 0] > edges[:, 1]]  # a committed match runs i -> an earlier keyframe
        assert sharing and keyed == sharing
        assert next(poses) == len(loop_edges) > len(rec.loop_edges) > 0

    def test_rtab_memory_trace_shape(self, tiny_dataset, small_rtab_memory):
        p = PolicyParams(policy="rtab", gated=True, min_matches=20, seed=2, rtab=RtabParams(real_time_threshold=8.0))
        rec = run_pipeline(tiny_dataset, p)  # internal checks raise on violation
        assert list(rec.memory_trace) == list(gating.FRAME_COLUMNS)
        assert all(len(column) == len(tiny_dataset.frames) for column in rec.memory_trace.values())

    def test_rtab_gated_transfer_and_retrieval_cycle(self, monkeypatch, dataset_cache):
        # a multi-cluster world under a tight budget: far clusters spill to
        # LTM, then come back when their region turns similar again
        monkeypatch.setattr(gating, "RTAB_TRANSFER_BATCH", 5)
        ds = dataset_cache("j_hall", 0)
        p = PolicyParams(policy="rtab", gated=True, min_matches=20, seed=0, rtab=RtabParams(real_time_threshold=30.0))
        rec = run_pipeline(ds, p)
        transfers = sum(rec.memory_trace["transfers"])
        retrievals = sum(rec.memory_trace["retrievals"])
        assert transfers > 0 and retrievals > 0
        assert len(rec.loop_edges) > 0

    def test_rtab_infinite_threshold_trace_matches_vanilla(self, tiny_dataset):
        traces = {}
        for gated in (True, False):
            p = PolicyParams(policy="rtab", gated=gated, min_matches=20, seed=2)
            rec = run_pipeline(tiny_dataset, p)
            traces[gated] = rec.memory_trace["transfers"]
        assert traces[True] == traces[False] == [0] * len(tiny_dataset.frames)

    def test_vanilla_runs_have_no_store(self, tiny_dataset):
        rec = run_pipeline(tiny_dataset, PolicyParams(policy="orb", gated=False, min_matches=20, seed=2))
        assert rec.store is None
        assert rec.clustering_cost == 0.0 and rec.management_cost == 0.0


class TestDatasetInputs:
    """The per-frame inputs a Dataset derives once, for every run on it."""

    def test_members_equal_a_fresh_derivation(self, tiny_dataset):
        ds = tiny_dataset
        sigs = list(signatures_of(ds.scans))
        assert list(ds.signatures) == sigs
        frames = ds.frames
        assert ds.frame_signatures == associate_frames([(i, t) for i, t in enumerate(frames.t.tolist())], sigs)
        corridors = simworld.frame_corridors(ds.world.corridors, frames.gt, frames.template).tolist()
        origins = [Pose2(c.x1, c.y1, c.heading) for c in map(ds.world.corridors.__getitem__, corridors)]
        poses = [between(o, Pose2(*p)) for o, p in zip(origins, frames.gt.tolist())]
        assert ds.template_poses.tolist() == [[p.x, p.y, p.theta] for p in poses]
        assert list(ds.word_masks) == word_masks(frames.words, frames.offsets)
        for name in ("signatures", "frame_signatures", "template_poses", "word_masks"):
            assert getattr(ds, name) is getattr(ds, name), name

    def test_trajectories_hold_python_numbers(self, tiny_dataset):
        """The frame table's numpy columns do not leak into a run's trajectories."""
        rec = run_pipeline(tiny_dataset, PolicyParams(policy="orb", gated=True, min_matches=20, seed=2))
        for k, t, p in rec.est:
            assert (type(k), type(t), type(p.x), type(p.y), type(p.theta)) == (int, float, float, float, float)

    @pytest.mark.parametrize("policy", gating.POLICIES)
    def test_reruns_equal_a_run_on_a_fresh_copy(self, tiny_dataset, small_rtab_memory, policy):
        p = PolicyParams(policy=policy, gated=True, min_matches=20, seed=2, rtab=RtabParams(real_time_threshold=8.0))

        def outputs(rec):
            est = [(k, t, pose.x, pose.y, pose.theta) for k, t, pose in rec.est]
            return (rec.frames, est, rec.loop_edges, rec.loop_cost, rec.clustering_cost, rec.management_cost,
                    rec.opt_iterations)

        first, second = run_pipeline(tiny_dataset, p), run_pipeline(tiny_dataset, p)
        fresh = replace(tiny_dataset)
        assert "frame_signatures" not in vars(fresh)
        assert outputs(first) == outputs(second) == outputs(run_pipeline(fresh, p))
        assert fresh.frame_signatures is not tiny_dataset.frame_signatures

    def test_runs_on_one_dataset_derive_once(self, monkeypatch, tiny_dataset):
        real, calls = simworld.associate_frames, []
        monkeypatch.setattr(simworld, "associate_frames", lambda *args: calls.append(1) or real(*args))
        ds = replace(tiny_dataset)
        for gated in (True, False):
            run_pipeline(ds, PolicyParams(policy="orb", gated=gated, min_matches=20, seed=2))
        assert len(calls) == 1

    def test_a_replaced_copy_derives_its_own_signatures(self, tiny_dataset):
        assert tiny_dataset.signatures  # derived before the copy is made
        scans = tiny_dataset.scans
        keep = scans.dwell != 1
        holed = replace(tiny_dataset, scans=replace(
            scans, dwell=scans.dwell[keep], t=scans.t[keep], bssid=scans.bssid[keep], rssi=scans.rssi[keep]
        ))
        n_dwells = len(set(scans.dwell.tolist()))
        assert len(holed.signatures) == n_dwells - 1
        assert all(s.pause_index != 1 for s in holed.signatures)
        assert len(tiny_dataset.signatures) == n_dwells


def test_params_json_roundtrip():
    p = PolicyParams(policy="rtab", gated=True, min_matches=15, seed=3,
                     rtab=RtabParams(real_time_threshold=math.inf))
    q = params_from_json(params_to_json(p))
    assert q == p
    p2 = replace(p, rtab=RtabParams(real_time_threshold=70.0))
    assert params_from_json(params_to_json(p2)) == p2


def test_params_from_json_defaults_and_threshold_strings():
    assert params_from_json({}) == PolicyParams()
    p = params_from_json({"policy": "rgbd", "rtab": {"real_time_threshold": "70"}})
    assert p == PolicyParams(policy="rgbd", rtab=RtabParams(real_time_threshold=70.0))
    assert params_from_json({"rtab": {"real_time_threshold": "Infinity"}}).rtab.real_time_threshold == math.inf
    # the one top-level alias, which overrides the nested value
    p = params_from_json({"real_time_threshold": "70", "rtab": {"real_time_threshold": 5}})
    assert p.rtab == RtabParams(real_time_threshold=70.0)


@pytest.mark.parametrize("d, message", [
    ({"rtab": {"stm_capacity": 15}}, "unknown setting rtab.stm_capacity; settings are real_time_threshold"),
    ({"policy": "orb", "inlier_distance": 3.0},
     "unknown setting inlier_distance; settings are policy, gated, min_matches, wifi_threshold, seed, rtab, "
     "real_time_threshold"),
], ids=["nested", "top_level"])
def test_params_from_json_unknown_key_names_its_path(d, message):
    with pytest.raises(ValueError) as exc:
        params_from_json(d)
    assert str(exc.value) == message


@pytest.mark.parametrize("key, value", [("rtab", 70)])
def test_params_from_json_non_object_nested_value(key, value):
    with pytest.raises(ValueError, match=f"{key} must be a JSON object"):
        params_from_json({key: value})
