from __future__ import annotations

import dataclasses
import math
import random
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wifislam import gating, simworld
from wifislam.clustering import members_of, similar_clusters
from wifislam.evaluation import (
    KEY_COLUMNS,
    REPORT_COLUMNS,
    BadReport,
    EmptyMap,
    LoopScore,
    build_map_clusters,
    localize_dataset,
    localize_queries,
    key_fields,
    read_report,
    report_row,
    score_loops,
    similarity_distance_curve,
    trajectory_error,
    write_cdf_csv,
)
from wifislam.posegraph import LengthMismatch


def dense_score_loops(edges, gt_pairs, match_radius):
    """Reference scoring over the full edges x pairs nearness matrix."""
    gt = sorted({(min(a, b), max(a, b)) for a, b in gt_pairs})
    ed = [(min(a, b), max(a, b)) for a, b in edges]
    if not gt:
        return LoopScore(0, len(ed), 0, 100.0 if ed else 0.0, 0.0)
    if not ed:
        return LoopScore(0, 0, len(gt), 0.0, 100.0)
    g, e = np.array(gt), np.array(ed)
    near = (np.abs(e[:, None, 0] - g[None, :, 0]) <= match_radius) & (
        np.abs(e[:, None, 1] - g[None, :, 1]) <= match_radius
    )
    tp = int(near.any(axis=0).sum())
    fp = int((~near.any(axis=1)).sum())
    fn = len(gt) - tp
    return LoopScore(tp, fp, fn, 100.0 * fp / len(ed), 100.0 * fn / (tp + fn))


class TestScoreLoops:
    def test_no_edges_all_missed(self):
        s = score_loops([], {(0, 50), (1, 51)}, match_radius=5)
        assert (s.true_positives, s.false_positives, s.false_negatives) == (0, 0, 2)
        assert s.fn_pct == 100.0

    def test_exact_equality(self):
        gt = {(0, 50), (1, 51), (2, 52)}
        s = score_loops(sorted(gt), gt, match_radius=5)
        assert (s.false_positives, s.false_negatives) == (0, 0)
        assert s.true_positives == 3

    def test_aliased_far_edge_is_fp(self):
        gt = {(0, 50)}
        s = score_loops([(0, 50), (10, 200)], gt, match_radius=5)
        assert s.false_positives == 1
        assert s.false_negatives == 0
        assert s.fp_pct == pytest.approx(50.0)

    def test_tolerance_radius(self):
        gt = {(10, 100)}
        assert score_loops([(13, 97)], gt, match_radius=5).false_negatives == 0
        assert score_loops([(16, 97)], gt, match_radius=5).false_negatives == 1

    def test_tp_plus_fn_equals_gt(self):
        rng = random.Random(0)
        gt = {(rng.randrange(100), 200 + rng.randrange(100)) for _ in range(40)}
        edges = [(rng.randrange(120), 180 + rng.randrange(140)) for _ in range(30)]
        s = score_loops(edges, gt, match_radius=4)
        assert s.true_positives + s.false_negatives == len(gt)

    def test_order_invariance(self):
        rng = random.Random(1)
        gt = {(rng.randrange(50), 100 + rng.randrange(50)) for _ in range(20)}
        edges = [(rng.randrange(60), 95 + rng.randrange(60)) for _ in range(25)]
        base = score_loops(edges, gt, match_radius=3)
        for _ in range(5):
            rng.shuffle(edges)
            assert score_loops(edges, gt, match_radius=3) == base

    def test_unordered_pairs_normalized(self):
        assert score_loops([(50, 0)], {(0, 50)}, 5).true_positives == 1

    def test_matches_dense_reference(self):
        rng = random.Random(2)
        cases = [([], set(), 5), ([], {(0, 50)}, 5), ([(3, 9), (9, 3)], set(), 5)]
        for _ in range(300):
            n = rng.choice([12, 60, 400])
            gt = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(60))}
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(40))]
            edges += [(b, a) for a, b in edges[:rng.randrange(5)]] + edges[:rng.randrange(5)]  # reversed, duplicated
            cases.append((edges, gt, rng.choice([1, 2, 5, 2.5])))
        for edges, gt, radius in cases:
            assert score_loops(edges, gt, radius) == dense_score_loops(edges, gt, radius), (edges, gt, radius)


class TestTrajectoryError:
    @staticmethod
    def poses(points):
        return np.array([(x, y, 0.0) for x, y in points])

    def test_rigid_transform_gives_zero(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (3.0, 1.0)]
        c, s = math.cos(0.7), math.sin(0.7)
        moved = [(c * x - s * y + 4.0, s * x + c * y - 1.0) for x, y in pts]
        assert trajectory_error(self.poses(moved), self.poses(pts)) < 1e-9

    def test_constant_offset_removed(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]
        off = [(x + 1.0, y) for x, y in pts]
        assert trajectory_error(self.poses(off), self.poses(pts)) < 1e-9

    def test_no_correspondence(self):
        """Estimate and ground truth pair up by row: a pose without a counterpart is an error."""
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]
        with pytest.raises(LengthMismatch):
            trajectory_error(self.poses(pts), self.poses(pts[:2]))

    def test_loop_closure_beats_odometry(self, dataset_cache):
        ds = dataset_cache("j_hall", 0)
        closed = gating.run_pipeline(ds, gating.PolicyParams(policy="orb", gated=True, min_matches=20, seed=0))
        open_p = gating.PolicyParams(
            policy="rtab", gated=False, min_matches=20, seed=0,
            rtab=gating.RtabParams(real_time_threshold=70.0),
        )
        drifted = gating.run_pipeline(ds, open_p)
        assert not drifted.loop_edges
        assert trajectory_error(closed.graph.poses, ds.frames.gt) < trajectory_error(drifted.graph.poses, ds.frames.gt)


class TestLedger:
    def test_vanilla_zero_overhead(self, dataset_cache):
        ds = dataset_cache("b_hall", 0)
        rec = gating.run_pipeline(ds, gating.PolicyParams(policy="orb", gated=False, min_matches=20, seed=0))
        assert rec.clustering_cost == 0.0 and rec.management_cost == 0.0

    def test_gated_cost_at_most_vanilla(self, dataset_cache):
        ds = dataset_cache("b_hall", 0)
        costs = {}
        for gated in (True, False):
            rec = gating.run_pipeline(ds, gating.PolicyParams(policy="orb", gated=gated, min_matches=20, seed=0))
            costs[gated] = rec.loop_cost
        assert costs[True] <= costs[False]

    def test_per_frame_overhead_grows_with_clusters(self, dataset_cache):
        per_frame = {}
        for name in ("a_hall", "j_hall"):
            ds = dataset_cache(name, 0)
            rec = gating.run_pipeline(ds, gating.PolicyParams(policy="orb", gated=True, min_matches=20, seed=0))
            per_frame[name] = (rec.clustering_cost + rec.management_cost) / len(ds.frames)
        assert per_frame["a_hall"] < per_frame["j_hall"]


class TestSimilarityCurve:
    def test_identical_location_dwells(self, dataset_cache):
        ds = dataset_cache("c_hall", 0)
        sigs = ds.signatures
        pts, rho = similarity_distance_curve(ds, sigs)
        assert len(pts) == len(sigs) * (len(sigs) - 1) // 2
        assert rho < -0.5

    def test_needs_two_dwells(self, dataset_cache):
        ds = dataset_cache("c_hall", 0)
        sigs = ds.signatures
        with pytest.raises(ValueError):
            similarity_distance_curve(ds, sigs[:1])

    def test_identical_location_dwells_score_one(self):
        # zero noise, dwell spacing dividing the lap: second-lap dwells land
        # exactly on first-lap dwell positions
        from wifislam import simworld

        cfg = simworld.WorldConfig(
            name="repeat",
            trajectory=simworld.TrajectorySpec(
                shape="square_loop", scale=10.0, laps=2.0, speed=1.0, pause_every=4.0
            ),
            template_of={0: 0, 1: 1, 2: 2, 3: 3},
            ap_count=12,
            tx_power_at_1m=-35.0,
            propagation=simworld.PropagationParams(noise_sigma_db=0.0, visibility_floor_dbm=-85.0),
        )
        ds = simworld.synthesize(cfg, seed=0)
        sigs = ds.signatures
        pts, _rho = similarity_distance_curve(ds, sigs)
        colocated = [s for d, s in pts if d < 1e-9]
        assert colocated
        assert all(s == pytest.approx(1.0, abs=1e-12) for s in colocated)


class TestCdf:
    @staticmethod
    def rows(tmp_path, errors):
        """The (error, fraction) rows `write_cdf_csv` writes for ``errors``, sorted as a localizer returns them."""
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, sorted(errors))
        return [tuple(map(float, line.split(","))) for line in path.read_text().splitlines()[1:-1]]

    def test_fractions_monotone_terminal_one(self, tmp_path):
        rows = self.rows(tmp_path, [3.0, 1.0, 2.0, 0.5])
        assert [e for e, _f in rows] == [0.5, 1.0, 2.0, 3.0]
        fractions = [f for _e, f in rows]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0

    def test_fraction_within(self, tmp_path):
        """The CLI's ``within_4m`` formula equals the last CDF fraction at an error within the distance."""
        errors = [1.0, 2.0, 3.0, 4.0]
        rows = self.rows(tmp_path, errors)
        for x, want in ((2.5, 0.5), (2.0, 0.5), (0.1, 0.0), (10, 1.0)):
            assert bisect_right(errors, x) / len(errors) == want
            assert max((f for e, f in rows if e <= x), default=0.0) == want


def with_rows(ds, rows):
    """A copy of ``ds`` whose frames are ``ds``'s frames ``rows``, in that order, numbered anew."""
    f = ds.frames
    bags = [f.words[f.offsets[i]:f.offsets[i + 1]] for i in rows]
    frames = simworld.Frames(f.t[rows], f.gt[rows], f.odom[rows], f.template[rows], np.concatenate(bags),
                             np.cumsum([0, *map(len, bags)]))
    return dataclasses.replace(ds, frames=frames)


class TestLocalize:
    def test_query_identical_to_map_frame(self, dataset_cache):
        ds = with_rows(dataset_cache("c_hall", 0), [*range(150), 40])  # query frame 150 repeats map frame 40
        store = build_map_clusters(range(150), ds.frame_signatures, 0.85)
        errors, fallbacks = localize_queries(ds, range(150), store, [150], 0.85)
        assert errors[0] < 1e-9

    def test_split_counts(self, dataset_cache):
        ds = dataset_cache("c_hall", 0)
        errors, fallbacks, n_map, n_query = localize_dataset(ds, split=0.4)
        assert abs(n_map - round(0.4 * len(ds.frames))) <= 1
        assert n_map + n_query == len(ds.frames)
        assert len(errors) == n_query

    def test_picks_the_brute_force_best_map_frame(self, dataset_cache):
        ds = dataset_cache("b_hall", 0)
        frame_sig = ds.frame_signatures
        n = len(ds.frames)
        n_map = int(round(0.4 * n))
        map_ids, query_ids = range(n_map), range(n_map, n)
        store = build_map_clusters(map_ids, frame_sig, 0.85)
        bounds, words = ds.frames.offsets.tolist(), ds.frames.words.tolist()
        bags = [Counter(words[a:b]) for a, b in zip(bounds, bounds[1:])]
        xy = ds.frames.gt[:, :2].tolist()

        def shared(a, b):
            return sum((a & b).values())

        errors, fallbacks = [], 0
        for q in query_ids:
            cand_ids = members_of(store, similar_clusters(store, frame_sig[q], 0.85))
            if not cand_ids:
                fallbacks += 1
                cand_ids = list(map_ids)
            # highest multiset shared-word count, ties to the lowest id
            best = min(cand_ids, key=lambda kf: (-shared(bags[q], bags[kf]), kf))
            err = math.hypot(xy[best][0] - xy[q][0], xy[best][1] - xy[q][1])
            errors.append(err)
            one, _ = localize_queries(ds, map_ids, store, [q], 0.85)
            assert one == (err,), q
        assert localize_queries(ds, map_ids, store, query_ids, 0.85) == (tuple(sorted(errors)), fallbacks)
        assert len(set(errors)) > 1

    def test_empty_map(self):
        with pytest.raises(EmptyMap):
            localize_queries(None, [], None, [], 0.85)

    def test_gated_localization_beats_alias_separation(self, dataset_cache):
        # aliased corridors are ~20 m apart in c_hall; gating keeps errors below that
        ds = dataset_cache("c_hall", 0)
        errors, _fb, _m, _q = localize_dataset(ds, split=0.4)
        assert bisect_right(errors, 10.0) / len(errors) > 0.95


def test_report_row_fields(dataset_cache):
    ds = dataset_cache("b_hall", 0)
    rec = gating.run_pipeline(ds, gating.PolicyParams(policy="rgbd", gated=False, min_matches=20, seed=0))
    row = report_row(rec, ds)
    assert row["dataset"] == "b_hall" and row["policy"] == "rgbd" and row["gated"] == "false"
    assert float(row["rmse_m"]) >= 0.0
    assert row["real_time_threshold"] == "inf"


def test_key_columns_are_every_setting():
    settings_ = [f.name for params in (gating.PolicyParams(), gating.RtabParams())
                 for f in dataclasses.fields(params) if not dataclasses.is_dataclass(getattr(params, f.name))]
    assert KEY_COLUMNS[0] == "dataset"
    assert sorted(KEY_COLUMNS[1:]) == sorted(settings_) and len(set(KEY_COLUMNS)) == len(KEY_COLUMNS)
    assert len(settings_) == 6


def _old_key_fields(dataset_name, p):
    """The key columns as report rows held them before the nested settings were added, less
    inlier_distance, which is now a module constant."""
    rt = p.rtab.real_time_threshold
    return {
        "dataset": dataset_name,
        "policy": p.policy,
        "gated": str(p.gated).lower(),
        "seed": str(p.seed),
        "min_matches": str(p.min_matches),
        "wifi_threshold": repr(float(p.wifi_threshold)),
        "real_time_threshold": "inf" if math.isinf(rt) else repr(float(rt)),
    }


@settings(max_examples=200, deadline=None)
@given(
    policy=st.sampled_from(gating.POLICIES),
    gated=st.booleans(),
    seed=st.integers(0, 10**6),
    min_matches=st.integers(1, 500),  # PolicyParams rejects a count that is not an integer
    wifi_threshold=st.just(1) | st.floats(1e-3, 1.0),
    real_time_threshold=st.integers(1, 500) | st.floats(1e-3, 1e4) | st.just(math.inf),
)
def test_key_fields_keep_the_old_strings(policy, gated, seed, min_matches, wifi_threshold, real_time_threshold):
    p = gating.PolicyParams(
        policy=policy, gated=gated, seed=seed, min_matches=min_matches, wifi_threshold=wifi_threshold,
        rtab=gating.RtabParams(real_time_threshold),
    )
    new = key_fields("b_hall", p)
    assert list(new) == list(KEY_COLUMNS)
    assert new == _old_key_fields("b_hall", p)


@pytest.mark.parametrize("text, line, named", [
    ("dataset,policy\nb_hall,orb\n", 1, "missing columns ['gated', "),
    (",".join(REPORT_COLUMNS) + ",extra\n", 1, "unknown columns ['extra']"),
    (",".join(REPORT_COLUMNS) + "\n" + ",".join(["1"] * len(REPORT_COLUMNS)) + "\nb_hall,orb\n", 3, "2 fields"),
    (",".join(REPORT_COLUMNS) + ",fp\n" + ",".join(["1"] * len(REPORT_COLUMNS)) + ",2\n", 1, "repeated columns ['fp']"),
], ids=["old_header", "unknown_column", "short_row", "repeated_column"])
def test_read_report_names_file_and_line(tmp_path, text, line, named):
    path = tmp_path / "report.csv"
    path.write_text(text)
    with pytest.raises(BadReport) as info:
        read_report(path)
    assert str(info.value).startswith(f"{path}:{line}: ") and named in str(info.value)
