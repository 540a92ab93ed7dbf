from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from wifislam import clustering, gating, simworld
from wifislam.clustering import (
    ClusterStore,
    DuplicateAssignment,
    SimilarClusters,
    assign,
    members_of,
    similar_clusters,
    write_cluster_dump,
)
from wifislam.signature import Signature, cosine_similarity


def sig(entries, t=0.0, pause=0):
    return Signature(entries=entries, collected_at=t, pause_index=pause)


AP = lambda k: f"0A:00:00:00:{k:02X}:00"


@pytest.fixture()
def store_abc():
    """Three clusters with representatives along one axis family."""
    store = ClusterStore()
    reps = [
        sig({AP(1): 60.0, AP(2): 10.0}),
        sig({AP(1): 40.0, AP(2): 40.0}),
        sig({AP(1): 10.0, AP(2): 60.0}),
    ]
    for k, rep in enumerate(reps):
        assign(store, k, rep, set(), similar_clusters(store, rep, 0.999))
    return store


class TestSimilarClusters:
    def test_identity_hit(self):
        store = ClusterStore()
        rep = sig({AP(1): 30.0})
        assign(store, 0, rep, set(), SimilarClusters(entries=()))
        out = similar_clusters(store, rep, 0.85)
        assert out.entries == ((0, 1.0),)

    def test_disjoint_empty(self, store_abc):
        out = similar_clusters(store_abc, sig({AP(9): 10.0}), 0.5)
        assert out.entries == ()

    def test_filter_and_sort(self):
        store = ClusterStore()
        reps = {0: 0.9, 1: 0.8, 2: 0.95}
        # representatives engineered to reach those similarities against the probe
        probe = sig({AP(1): 1.0, AP(2): 0.0})
        for k, target in reps.items():
            x = target
            y = math.sqrt(1 - x * x)
            rep = sig({AP(1): 100 * x, AP(2): 100 * y})
            assign(store, k, rep, set(), SimilarClusters(entries=()))
        out = similar_clusters(store, sig({AP(1): 50.0}), 0.85)
        assert [cid for cid, _ in out.entries] == [2, 0]
        scores = [s for _, s in out.entries]
        assert scores == sorted(scores, reverse=True)

    def test_empty_store_is_empty_result(self):
        assert similar_clusters(ClusterStore(), sig({AP(1): 1.0}), 0.9).entries == ()

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            similar_clusters(ClusterStore(), sig({AP(1): 1.0}), 0.0)

    def test_matches_bruteforce(self, store_abc):
        import numpy as np

        rng = np.random.default_rng(7)
        for _ in range(50):
            probe = sig({AP(int(k)): float(v) for k, v in enumerate(rng.uniform(0, 60, size=3), start=1)})
            thr = float(rng.uniform(0.2, 0.999))
            got = similar_clusters(store_abc, probe, thr).entries
            want = sorted(
                (
                    (c.id, cosine_similarity(probe, c.representative))
                    for c in store_abc.clusters
                    if cosine_similarity(probe, c.representative) >= thr
                ),
                key=lambda e: (-e[1], e[0]),
            )
            assert list(got) == want


def brute_similar(store, probe, threshold):
    """The filter `similar_clusters` must equal: every cluster scored afresh, then sorted."""
    return tuple(sorted(
        ((c.id, cosine_similarity(probe, c.representative)) for c in store.clusters
         if cosine_similarity(probe, c.representative) >= threshold),
        key=lambda e: (-e[1], e[0]),
    ))


class TestPerStoreRows:
    """A store scores each (signature, representative) pair once and reuses the score."""

    thresholds = st.floats(min_value=0.0, max_value=1.0, exclude_min=True) | st.sampled_from([1.0, 0.5, 0.85])
    ops = st.lists(st.one_of(
        st.tuples(st.just("cluster"), st.integers(0, 5)),
        st.tuples(st.sampled_from(["assign", "query"]), st.integers(0, 5), st.booleans(), thresholds),
    ), max_size=40)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.dictionaries(st.integers(1, 6).map(AP), st.floats(0.0, 60.0), min_size=1, max_size=4),
                    min_size=6, max_size=6), ops)
    def test_queries_equal_brute_force(self, pool, ops):
        """Clusters made by `assign` and `_new_cluster` between repeated queries, with the pool's
        own signature objects and with fresh copies of them, at varying thresholds."""
        pool = [sig(e, pause=k) for k, e in enumerate(pool)]
        store, keyframe = ClusterStore(), 0
        for kind, k, *query in ops:
            if kind == "cluster":
                store._new_cluster(pool[k])
                continue
            fresh, threshold = query
            probe = sig(dict(pool[k].entries), pause=k) if fresh else pool[k]
            got = similar_clusters(store, probe, threshold)
            assert got.entries == brute_similar(store, probe, threshold)
            if kind == "assign":
                assign(store, keyframe, probe, {keyframe - 1} if keyframe else set(), got)
                keyframe += 1

    def test_gated_orb_scores_each_pair_once(self, monkeypatch, dataset_cache):
        scored, queried, pairs_queried = Counter(), set(), 0
        cosine, query = clustering.cosine_similarity, gating.similar_clusters

        def counted(a, b):
            scored[id(a), id(b)] += 1
            return cosine(a, b)

        def recorded(store, probe, threshold):
            nonlocal pairs_queried
            queried.update((id(probe), id(c.representative)) for c in store.clusters)
            pairs_queried += len(store.clusters)
            return query(store, probe, threshold)

        monkeypatch.setattr(clustering, "cosine_similarity", counted)
        monkeypatch.setattr(gating, "similar_clusters", recorded)
        gating.run_pipeline(dataset_cache("j_hall", 0), gating.PolicyParams(policy="orb", gated=True, seed=0))
        assert scored == Counter(dict.fromkeys(queried, 1))
        assert len(queried) < pairs_queried  # the run asks about a scored pair again


class TestAssign:
    def test_first_frame_new_cluster(self):
        store = ClusterStore()
        out = assign(store, 0, sig({AP(1): 5.0}), set(), SimilarClusters(entries=()))
        assert out.cluster_id == 0 and out.created
        assert store.clusters[0].members == [0]

    def test_joins_highest_similarity_linked_cluster(self, store_abc):
        probe = sig({AP(1): 55.0, AP(2): 20.0})
        sims = similar_clusters(store_abc, probe, 0.5)
        assert len(sims) >= 2
        # edges into members of clusters 0 and 1; scores rank 0 above 1
        out = assign(store_abc, 10, probe, {0, 1}, sims)
        assert not out.created
        assert out.cluster_id == sims.entries[0][0]

    def test_similar_but_no_edge_creates_new(self, store_abc):
        probe = store_abc.clusters[0].representative
        sims = similar_clusters(store_abc, probe, 0.9)
        assert sims.entries
        out = assign(store_abc, 10, probe, set(), sims)
        assert out.created and out.cluster_id == 3

    def test_duplicate_assignment(self, store_abc):
        with pytest.raises(DuplicateAssignment):
            assign(store_abc, 0, sig({AP(1): 5.0}), set(), SimilarClusters(entries=()))

    def test_ids_dense_ascending(self, store_abc):
        assert [c.id for c in store_abc.clusters] == [0, 1, 2]

    def test_representative_frozen(self, store_abc):
        rep_before = store_abc.clusters[0].representative
        probe = sig({AP(1): 61.0, AP(2): 11.0})
        sims = similar_clusters(store_abc, probe, 0.5)
        assign(store_abc, 10, probe, {0}, sims)
        assert store_abc.clusters[0].representative is rep_before


class TestMembersOf:
    def test_empty(self, store_abc):
        assert members_of(store_abc, SimilarClusters(entries=())) == []

    def test_union(self, store_abc):
        sims = SimilarClusters(entries=((1, 0.9), (0, 0.8)))
        assert members_of(store_abc, sims) == [1, 0]

    def test_single_membership_partition(self, store_abc):
        # assign a few more frames, then check the partition property
        for k in range(10, 16):
            probe = sig({AP(1): 60.0 - k, AP(2): 10.0 + k})
            sims = similar_clusters(store_abc, probe, 0.5)
            assign(store_abc, k, probe, {k - 10} if k > 10 else set(), sims)
        seen = list(itertools.chain.from_iterable(c.members for c in store_abc.clusters))
        assert len(seen) == len(set(seen))


def test_determinism_identical_sequences():
    def build():
        store = ClusterStore()
        for k in range(12):
            probe = sig({AP(1 + k % 3): 30.0 + k, AP(2): 12.0})
            sims = similar_clusters(store, probe, 0.8)
            assign(store, k, probe, {k - 1} if k else set(), sims)
        return [(c.id, tuple(c.members), dict(c.representative.entries)) for c in store.clusters]

    assert build() == build()


def test_dump_roundtrip(tmp_path, store_abc):
    jsonl_path = tmp_path / "reps.jsonl"
    write_cluster_dump(store_abc, jsonl_path)
    assert jsonl_path.read_text().count("\n") == len(store_abc.clusters)


def test_spatial_coherence_zero_noise(dataset_cache):
    """Intra-cluster ground-truth spread stays below inter-cluster spread."""
    from dataclasses import replace

    base = simworld.preset_worlds()["c_hall"]
    cfg = replace(base, propagation=replace(base.propagation, noise_sigma_db=0.0))
    ds = dataset_cache("c_hall_zero_noise", 0, config=cfg)
    rec = gating.run_pipeline(ds, gating.PolicyParams(policy="orb", gated=True, min_matches=20, seed=0))
    pos = dict(enumerate(map(tuple, ds.frames.gt[:, :2].tolist())))

    def mean_pairwise(points):
        pairs = [
            math.dist(a, b) for a, b in itertools.combinations(points, 2)
        ]
        return sum(pairs) / len(pairs) if pairs else 0.0

    intra = []
    centroids = []
    for c in rec.store.clusters:
        pts = [pos[k] for k in c.members]
        if len(pts) >= 2:
            intra.append(mean_pairwise(pts))
        centroids.append(
            (sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts))
        )
    inter = mean_pairwise(centroids)
    assert sum(intra) / len(intra) < inter
