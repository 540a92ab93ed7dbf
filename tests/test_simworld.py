from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import fields, replace
from io import BytesIO
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wifislam import simworld
from wifislam.posegraph import Pose2, between, compose, wrap_angle
from wifislam.simworld import (
    FRAME_RATE_HZ,
    LOOP_PAIR_GAP_S,
    LOOP_PAIR_RADIUS_M,
    MAX_WORD_ID,
    AccessPoint,
    AppearanceModel,
    BadWorld,
    Corridor,
    Dataset,
    DataError,
    Frames,
    PropagationParams,
    TrajectorySpec,
    Wall,
    WorldConfig,
    World,
    _loop_pairs,
    derive_world,
    frame_corridors,
    generate_trajectory,
    load_dataset,
    load_world_config,
    mean_rssi,
    preset_worlds,
    save_dataset,
    synthesize,
    wall_crossings,
)

NOISELESS = PropagationParams(noise_sigma_db=0.0)


def segments_cross(p1, p2, q1, q2) -> bool:
    """Reference crossing test, one pair of segments at a time (the scalar form of `wall_crossings`)."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(v) < 1e-12:
            return 0
        return 1 if v > 0 else -1

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12
            and min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12
        )

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_seg(p1, p2, q1):
        return True
    if o2 == 0 and on_seg(p1, p2, q2):
        return True
    if o3 == 0 and on_seg(q1, q2, p1):
        return True
    if o4 == 0 and on_seg(q1, q2, p2):
        return True
    return False


def reference_crossings(walls, sources, points):
    return [[sum(segments_cross(s, p, (w.x1, w.y1), (w.x2, w.y2)) for w in walls) for s in sources] for p in points]


def corridor_of_frame(world, gt_pose, template):
    """Reference corridor of one frame: the nearest of the corridors carrying its template, each tried
    in turn, a later one winning only when nearer by more than 1e-12 (the scalar form of `frame_corridors`)."""
    best = None
    for idx, c in enumerate(world.corridors):
        if c.template != template:
            continue
        vx, vy = c.x2 - c.x1, c.y2 - c.y1
        wx, wy = gt_pose.x - c.x1, gt_pose.y - c.y1
        length2 = vx * vx + vy * vy
        f = 0.0 if length2 == 0 else max(0.0, min(1.0, (wx * vx + wy * vy) / length2))
        d = math.hypot(gt_pose.x - (c.x1 + f * vx), gt_pose.y - (c.y1 + f * vy))
        if best is None or d < best[0] - 1e-12:
            best = (d, idx)
    if best is None:
        raise BadWorld(f"no corridor carries template {template}")
    return best[1]


def template_pose_of(world, gt_pose, template):
    """Reference template pose of one frame: its pose in the frame of its corridor's start, heading along it."""
    corridor = world.corridors[corridor_of_frame(world, gt_pose, template)]
    return between(Pose2(corridor.x1, corridor.y1, corridor.heading), gt_pose)


def reference_template_poses(ds):
    """Each frame's (corridor, template pose) from the scalar references."""
    frames = [(Pose2(*p), template) for p, template in zip(ds.frames.gt.tolist(), ds.frames.template.tolist())]
    return [corridor_of_frame(ds.world, *f) for f in frames], [template_pose_of(ds.world, *f) for f in frames]


def reference_rssi(ap, pos, walls, params):
    """Reference noise-free mean RSSI of one AP at one point."""
    d = math.hypot(ap.x - pos[0], ap.y - pos[1])
    crossings = reference_crossings(walls, [(ap.x, ap.y)], [pos])[0][0]
    return (
        ap.tx_power_at_1m
        - 10.0 * params.path_loss_exponent * math.log10(max(d, 1.0))
        - params.wall_loss_db * crossings
    )


class TestRssi:
    def test_reference_distance(self):
        ap = AccessPoint("0A:00:00:00:00:00", 0.0, 0.0, tx_power_at_1m=-30.0)
        assert mean_rssi([ap], [(1.0, 0.0)], (), NOISELESS) == [[pytest.approx(-30.0)]]

    def test_monotone_decreasing(self):
        ap = AccessPoint("0A:00:00:00:00:00", 0.0, 0.0, tx_power_at_1m=-30.0)
        vals = [row[0] for row in mean_rssi([ap], [(d, 0.0) for d in (1.5, 3, 6, 12, 24)], (), NOISELESS)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_wall_formula_hand_value(self):
        ap = AccessPoint("0A:00:00:00:00:00", 0.0, 0.0, tx_power_at_1m=-30.0)
        params = PropagationParams(path_loss_exponent=3.0, wall_loss_db=5.0, noise_sigma_db=0.0)
        walls = (Wall(5.0, -1.0, 5.0, 1.0),)
        assert mean_rssi([ap], [(10.0, 0.0)], walls, params) == [[pytest.approx(-65.0, abs=1e-9)]]

    def test_crossing_count(self):
        walls = (Wall(1, -1, 1, 1), Wall(2, -1, 2, 1), Wall(3, 5, 4, 5))
        assert wall_crossings(walls, [(0.0, 0.0)], [(5.0, 0.0)]).tolist() == [[2]]

    def test_empty_inputs(self):
        walls = (Wall(1, -1, 1, 1),)
        assert wall_crossings(walls, [], [(0.0, 0.0)] * 3).shape == (3, 0)
        assert wall_crossings(walls, [(0.0, 0.0)] * 2, []).shape == (0, 2)
        assert mean_rssi([], [(0.0, 0.0)], (), NOISELESS) == [[]]

    def test_crossings_match_reference_on_random_segments(self):
        rng = np.random.default_rng(0)
        # coarse integer coordinates make touching, collinear and shared-endpoint cases common
        for coords in (rng.uniform(-10, 10, size=(40, 4)), rng.integers(-3, 4, size=(40, 4)).astype(float)):
            walls = tuple(Wall(*map(float, c)) for c in coords[:12])
            sources = [tuple(map(float, c[:2])) for c in coords[12:20]]
            points = [tuple(map(float, c[2:])) for c in coords[12:40]]
            assert wall_crossings(walls, sources, points).tolist() == reference_crossings(walls, sources, points)

    def test_crossings_match_reference_within_tolerances(self):
        rng = np.random.default_rng(3)
        # lattice points nudged by less than, about and more than the 1e-12 tolerances
        nudges = [0.0, 5e-14, -5e-14, 5e-13, -5e-13, 3e-12]
        coords = rng.integers(-2, 3, size=(400, 4)) + rng.choice(nudges, size=(400, 4))
        walls = tuple(Wall(*map(float, c)) for c in coords[:20])
        sources = [tuple(map(float, c[:2])) for c in coords[20:40]]
        points = [tuple(map(float, c[2:])) for c in coords[40:]]
        assert wall_crossings(walls, sources, points).tolist() == reference_crossings(walls, sources, points)

    def test_crossings_in_chunks_match_reference(self, monkeypatch):
        rng = np.random.default_rng(1)
        walls = tuple(Wall(*map(float, c)) for c in rng.uniform(-10, 10, size=(5, 4)))
        sources, points = rng.uniform(-10, 10, size=(3, 2)).tolist(), rng.uniform(-10, 10, size=(23, 2)).tolist()
        expected = reference_crossings(walls, sources, points)
        for chunk in (1, 30, 1 << 16):  # 1, 2 and all of the points per pass
            monkeypatch.setattr(simworld, "_CROSSING_CHUNK", chunk)
            assert wall_crossings(walls, sources, points).tolist() == expected

    @pytest.mark.parametrize("walls, source, point", [
        ((Wall(0, 0, 4, 0),), (1.0, 0.0), (6.0, 0.0)),  # collinear overlap
        ((Wall(0, 0, 4, 0),), (5.0, 0.0), (6.0, 0.0)),  # collinear, disjoint
        ((Wall(0, 0, 4, 0),), (4.0, 0.0), (4.0, 3.0)),  # shared endpoint
        ((Wall(2, 2, 2, 2),), (0.0, 0.0), (4.0, 4.0)),  # zero-length wall on the segment
        ((Wall(2, 3, 2, 3),), (0.0, 0.0), (4.0, 4.0)),  # zero-length wall off it
        ((Wall(0, -1, 0, 1),), (0.0, 0.0), (3.0, 0.0)),  # AP on a wall
        ((Wall(0, -1, 0, 1), Wall(0, -1, 0, 1)), (-1.0, 0.0), (3.0, 0.0)),  # a wall listed twice
        ((), (0.0, 0.0), (3.0, 0.0)),  # no walls
        ((Wall(0, -1, 0, 1),), (2.0, 2.0), (2.0, 2.0)),  # zero-length segment
        # within the 1e-12 tolerances, where only the on-segment tests count a crossing
        ((Wall(0, 0, 4, 0),), (4 + 5e-13, 0.0), (4 + 5e-13, 3.0)),  # AP just past a wall's end
        ((Wall(4 + 5e-13, 0, 4 + 5e-13, 3),), (0.0, 0.0), (4.0, 0.0)),  # wall starting just past the point
        ((Wall(4 + 5e-13, 3, 4 + 5e-13, 0),), (0.0, 0.0), (4.0, 0.0)),  # the same wall reversed
    ], ids=["collinear_overlap", "collinear_disjoint", "shared_endpoint", "zero_wall_on", "zero_wall_off",
            "ap_on_wall", "duplicate_wall", "no_walls", "zero_segment", "ap_in_tolerance",
            "wall_start_in_tolerance", "wall_end_in_tolerance"])
    def test_degenerate_geometry_matches_reference(self, walls, source, point):
        for s, p in ((source, point), (point, source)):
            assert wall_crossings(walls, [s], [p]).tolist() == reference_crossings(walls, [s], [p])

    @pytest.mark.parametrize("name", ["c_hall", "b_hall", "j_hall", "a_hall"])
    def test_field_equals_scalar_formula(self, dataset_cache, name):
        ds = dataset_cache(name, 0)
        dwells = generate_trajectory(ds.world.config.trajectory, ds.world.config.template_of).dwells
        points = list(zip(dwells.x[::3].tolist(), dwells.y[::3].tolist()))
        params = ds.world.config.propagation
        walls = ds.world.config.extra_walls
        expected = [[reference_rssi(ap, p, walls, params) for ap in ds.world.aps] for p in points]
        assert mean_rssi(ds.world.aps, points, walls, params) == expected


class TestTrajectory:
    def test_square_loop_closes(self):
        spec = TrajectorySpec(shape="square_loop", scale=20.0, speed=1.0, laps=1.0)
        traj = generate_trajectory(spec)
        x, y = traj.samples.x, traj.samples.y
        assert math.hypot(x[0] - x[-1], y[0] - y[-1]) < 1e-9

    def test_dwell_count_floor_rule(self):
        spec = TrajectorySpec(shape="square_loop", scale=20.0, speed=1.0, pause_every=3.5, laps=1.0)
        traj = generate_trajectory(spec)
        assert traj.path_length == pytest.approx(80.0)
        assert len(traj.dwells.t) == 22

    def test_figure_eight_single_crossing(self):
        spec = TrajectorySpec(shape="figure_eight", scale=12.0, speed=1.0)
        traj = generate_trajectory(spec)
        pts = list(zip(traj.samples.x.tolist(), traj.samples.y.tolist()))
        crossings = set()
        for i in range(len(pts)):
            for j in range(i + 8, len(pts)):
                if math.dist(pts[i], pts[j]) < 0.25:
                    crossings.add((round(pts[i][0], 1), round(pts[i][1], 1)))
        assert len(crossings) == 1

    def test_dwells_pause_the_clock(self):
        spec = TrajectorySpec(shape="square_loop", scale=20.0, speed=1.0, pause_every=3.5, pause_duration=10.0)
        traj = generate_trajectory(spec)
        # total duration = travel time + dwell time
        assert traj.samples.t[-1] == pytest.approx(80.0 / 1.0 + 22 * 10.0)

    def test_times_count_the_earlier_dwells_at_12_laps(self):
        config = preset_worlds()["j_hall"]
        spec = replace(config.trajectory, laps=12.0)
        traj = generate_trajectory(spec, config.template_of)
        spacing, total = spec.speed / FRAME_RATE_HZ, traj.path_length
        arcs = [k * spacing for k in range(int(total / spacing) + 1) if k * spacing <= total + 1e-9]
        if total - arcs[-1] > 1e-9:
            arcs.append(total)
        dwell_arcs = traj.dwells.arc.tolist()

        def t_at(arc):
            return arc / spec.speed + sum(1 for d in dwell_arcs if d < arc - 1e-9) * spec.pause_duration

        assert len(dwell_arcs) > 100
        assert traj.samples.arc.tolist() == arcs
        assert traj.samples.t.tolist() == [t_at(a) for a in arcs]
        assert traj.dwells.t.tolist() == [t_at(a) for a in dwell_arcs]

    @pytest.mark.parametrize("laps", [0.3, 1.1, 2.5, 12.0])
    @pytest.mark.parametrize("name", ["c_hall", "b_hall", "j_hall", "a_hall"])
    def test_points_equal_the_leg_by_leg_reference(self, name, laps):
        """Each point lies on the first route leg that has not ended 1e-9 m before it (the last leg
        past the end), at its offset into that leg, interpolated along the leg's corridor."""
        config = preset_worlds()[name]
        spec = replace(config.trajectory, laps=laps)
        corridors, loop, tail = simworld._shape_corridors(spec, config.template_of)
        route = simworld._route(spec.laps, corridors, loop, tail)
        legs, start = [], 0.0  # (start, end, corridor, offset into the corridor) along the path
        for cid, a0, a1 in route:
            legs.append((start, start + (a1 - a0), cid, a0))
            start += a1 - a0

        def reference(arc):
            start, _, cid, off = next((leg for leg in legs if leg[0] - 1e-9 <= arc < leg[1] - 1e-9), legs[-1])
            c, carc = corridors[cid], off + (arc - start)
            f = carc / c.length
            return c.x1 + f * (c.x2 - c.x1), c.y1 + f * (c.y2 - c.y1), wrap_angle(c.heading), cid, carc

        traj = generate_trajectory(spec, config.template_of)
        assert traj.path_length == start
        for points in (traj.samples, traj.dwells):
            got = zip(points.x.tolist(), points.y.tolist(), points.heading.tolist(), points.corridor.tolist(),
                      points.corridor_arc.tolist())
            assert list(got) == [reference(arc) for arc in points.arc.tolist()]

    def test_unknown_shape(self):
        with pytest.raises(BadWorld, match="unknown trajectory shape 'spiral'; valid shapes: square_loop, "):
            TrajectorySpec(shape="spiral", scale=5.0)


class TestSynthesize:
    def test_zero_noise_odometry_composes_to_gt(self, tiny_world):
        cfg = replace(tiny_world, odom_noise=replace(tiny_world.odom_noise, sigma_xy_per_m=0.0, sigma_theta_per_m=0.0))
        ds = synthesize(cfg, seed=0)
        gt, odom = ds.frames.gt.tolist(), ds.frames.odom.tolist()
        pose = Pose2(*gt[0])
        for (x, y, _theta), step in zip(gt[1:], odom[1:]):
            pose = compose(pose, Pose2(*step))
            assert math.hypot(pose.x - x, pose.y - y) < 1e-9

    def test_alias_corridors_share_template(self):
        ds = synthesize(preset_worlds()["c_hall"], seed=0)
        templates = {}
        for cid, template in zip(frame_corridors(ds.world.corridors, ds.frames.gt, ds.frames.template).tolist(),
                                 ds.frames.template.tolist()):
            templates.setdefault(cid, set()).add(template)
        assert templates[0] == templates[2] == {0}

    def test_zero_noise_readings_are_the_field(self, tiny_world):
        params = replace(tiny_world.propagation, noise_sigma_db=0.0, visibility_floor_dbm=-30.0)
        walls = (Wall(5.0, -20.0, 5.0, 20.0), Wall(-20.0, 5.0, 20.0, 5.0))
        cfg = replace(tiny_world, tx_power_at_1m=20.0, propagation=params, extra_walls=walls)
        ds = synthesize(cfg, seed=2)
        dwells = generate_trajectory(cfg.trajectory, cfg.template_of).dwells
        rows = list(ds.scans.rows())
        levels = []
        for index, xy in enumerate(zip(dwells.x.tolist(), dwells.y.tolist())):
            for ap in ds.world.aps:
                level = reference_rssi(ap, xy, walls, params)
                levels.append(level)
                n_readings = 0 if level < params.visibility_floor_dbm else cfg.scans_per_dwell * cfg.bssids_per_ap
                heard = [rssi for _, bssid, rssi, di in rows if di == index and bssid[:-1] == ap.ap_id[:-1]]
                assert heard == [min(level, 0.0)] * n_readings
        assert min(levels) < params.visibility_floor_dbm < 0.0 < max(levels)  # the floor and the clip both act

    def test_readings_follow_one_scalar_draw_per_reading(self, tiny_world):
        params = replace(tiny_world.propagation, noise_sigma_db=3.0, visibility_floor_dbm=-30.0)
        walls = (Wall(5.0, -20.0, 5.0, 20.0), Wall(-20.0, 5.0, 20.0, 5.0))
        cfg = replace(tiny_world, tx_power_at_1m=20.0, propagation=params, extra_walls=walls, scans_per_dwell=3,
                      bssids_per_ap=3)
        ds = synthesize(cfg, seed=7)
        rng_scan = np.random.default_rng((7, 2))
        expected, floored, clipped = [], 0, 0
        dwells = generate_trajectory(cfg.trajectory, cfg.template_of).dwells
        for index, (x, y, t_arrival) in enumerate(zip(dwells.x.tolist(), dwells.y.tolist(), dwells.t.tolist())):
            base = [reference_rssi(ap, (x, y), walls, params) for ap in ds.world.aps]
            for sidx in range(cfg.scans_per_dwell):
                t = t_arrival + (sidx + 0.5) * cfg.trajectory.pause_duration / cfg.scans_per_dwell
                for k, ap in enumerate(ds.world.aps):
                    for radio in range(1, cfg.bssids_per_ap + 1):
                        rssi = base[k] + params.noise_sigma_db * float(rng_scan.normal())
                        if rssi < params.visibility_floor_dbm:
                            floored += 1
                            continue
                        clipped += rssi > 0.0
                        expected.append((t, ap.ap_id[:-1] + f"{radio:X}", min(rssi, 0.0), index))
        assert floored and clipped  # the floor and the clip both act
        assert list(ds.scans.rows()) == expected
        assert ds.scans.t.dtype == ds.scans.rssi.dtype == np.float64
        assert all(column.base is None for column in (ds.scans.dwell, ds.scans.t, ds.scans.bssid, ds.scans.rssi))

    def test_no_reading_below_floor(self, tiny_world):
        floor = tiny_world.propagation.visibility_floor_dbm
        rssi = synthesize(tiny_world, seed=4).scans.rssi
        assert rssi.size and rssi.min() >= floor
        # a floor above every mean level leaves nothing to hear without noise
        params = replace(tiny_world.propagation, noise_sigma_db=0.0, visibility_floor_dbm=tiny_world.tx_power_at_1m + 0.1)
        silent = synthesize(replace(tiny_world, propagation=params), seed=4)
        assert silent.scans.dwell.size == 0 and silent.signatures == ()

    def test_same_seed_identical(self, tiny_world):
        a = synthesize(tiny_world, seed=5)
        b = synthesize(tiny_world, seed=5)
        assert a == b

    def test_different_seed_differs(self, tiny_world):
        a = synthesize(tiny_world, seed=5)
        b = synthesize(tiny_world, seed=6)
        assert a != b

    def test_loop_pairs_symmetric_and_not_adjacent(self, tiny_world):
        ds = synthesize(tiny_world, seed=1)
        assert ds.gt_loop_pairs
        for a, b in ds.gt_loop_pairs:
            assert a < b
            assert ds.frames.t[b] - ds.frames.t[a] > 30.0

    def test_template_pose_consistent_for_aliases(self):
        ds = synthesize(preset_worlds()["c_hall"], seed=0)
        # two frames at the same corridor arc in aliased corridors map to the
        # same template-local position
        by_corridor = {}
        for cid, tpl in zip(frame_corridors(ds.world.corridors, ds.frames.gt, ds.frames.template).tolist(),
                            ds.template_poses.tolist()):
            by_corridor.setdefault(cid, []).append(tpl)
        tpl0 = by_corridor[0][3]
        tpl2 = min(by_corridor[2], key=lambda tpl: abs(tpl[0] - tpl0[0]))
        assert abs(tpl0[0] - tpl2[0]) < 0.5 and abs(tpl0[1] - tpl2[1]) < 1e-6


class TestTemplatePoses:
    """`frame_corridors` and `Dataset.template_poses`, numpy passes over every frame, equal the scalar
    references bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("preset", ["a_hall", "b_hall", "c_hall", "j_hall"])
    def test_columns_equal_the_scalar_reference(self, dataset_cache, preset, seed):
        self.check(dataset_cache(preset, seed))

    def test_three_lap_j_hall(self):
        config = preset_worlds()["j_hall"]
        self.check(synthesize(replace(config, trajectory=replace(config.trajectory, laps=3.0)), seed=1))

    @staticmethod
    def check(ds):
        corridors, poses = reference_template_poses(ds)
        assert frame_corridors(ds.world.corridors, ds.frames.gt, ds.frames.template).tolist() == corridors
        assert set(corridors) == set(range(len(ds.world.corridors)))  # every corridor has a frame
        assert ds.template_poses.dtype == np.float64 and ds.template_poses.shape == (len(ds.frames), 3)
        assert repr(ds.template_poses.tolist()) == repr([[p.x, p.y, p.theta] for p in poses])  # -0.0 too

    @pytest.mark.parametrize("first", [0, 1])
    def test_first_corridor_wins_a_shared_corner(self, dataset_cache, first):
        """A frame on the corner two corridors of one template share lies at distance 0 from both; the
        first of them is its corridor. The other frames lie inside one corridor each."""
        legs = [Corridor(0.0, 0.0, 10.0, 0.0, 4), Corridor(10.0, 0.0, 10.0, 10.0, 4), Corridor(0.0, 5.0, 9.0, 5.0, 1)]
        legs = legs[first:first + 1] + legs[1 - first:2 - first] + legs[2:]
        gt = np.array([[10.0, 0.0, 0.5], [4.0, 0.0, 0.0], [10.0, 3.0, -3.0], [2.0, 5.0, math.pi]])
        template = np.array([4, 4, 4, 1])
        ds = dataset_cache("c_hall", 0)
        ds = Dataset(ds.seed, Frames(np.arange(4.0), gt, np.zeros((4, 3)), template, np.arange(4), np.arange(5)),
                     ds.scans, frozenset(), World(ds.world.config, ds.world.bounds, ds.world.aps, tuple(legs)))
        corridors, poses = reference_template_poses(ds)
        assert corridors[0] == 0  # the first corridor of template 4 wins the tie
        assert frame_corridors(ds.world.corridors, gt, template).tolist() == corridors
        assert repr(ds.template_poses.tolist()) == repr([[p.x, p.y, p.theta] for p in poses])
        assert ds.template_poses[0].tolist() == ([10.0, 0.0, 0.5] if first == 0 else [0.0, 0.0, 0.5 - math.pi / 2])

    def test_a_template_no_corridor_carries_is_rejected(self, dataset_cache):
        ds = dataset_cache("c_hall", 0)
        template = ds.frames.template.copy()
        template[5] = 7
        with pytest.raises(BadWorld, match="no corridor carries template 7"):
            frame_corridors(ds.world.corridors, ds.frames.gt, template)


def dense_loop_pairs(frames):
    """Reference ground-truth pairs from the full N x N distance and time-gap matrices."""
    pos, ts = frames.gt[:, :2], frames.t
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    dt = np.abs(ts[:, None] - ts[None, :])
    ii, jj = np.nonzero((d2 < LOOP_PAIR_RADIUS_M**2) & (dt > LOOP_PAIR_GAP_S))
    return {(int(a), int(b)) for a, b in zip(ii, jj) if a < b}


def frames_at(points):
    """A Frames table of frames at the given (t, x, y), heading 0, each with the word bag (1,)."""
    txy = np.array(points, dtype=float).reshape(-1, 3)
    n = len(txy)
    return simworld.Frames(txy[:, 0], np.column_stack([txy[:, 1:], np.zeros(n)]), np.zeros((n, 3)),
                           np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64), np.arange(n + 1))


class TestLoopPairs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["c_hall", "b_hall", "j_hall", "a_hall"])
    def test_presets_match_dense_reference(self, dataset_cache, name, seed):
        ds = dataset_cache(name, seed)
        pairs = _loop_pairs(ds.frames)
        assert pairs and pairs == dense_loop_pairs(ds.frames) == ds.gt_loop_pairs

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_few_frames(self, n):
        frames = frames_at([(100.0 * i, 0.5 * i, 0.0) for i in range(n)])
        assert _loop_pairs(frames) == dense_loop_pairs(frames) == ({(0, 1)} if n == 2 else set())

    def test_boundaries(self):
        r, gap = LOOP_PAIR_RADIUS_M, LOOP_PAIR_GAP_S
        inside = math.nextafter(r, 0.0)
        frames = frames_at([
            (0.0, 0.0, 0.0),
            (100.0, r, 0.0),  # frame 1, exactly R from frame 0: not a pair
            (200.0, 0.0, inside),  # frame 2, just inside R of frame 0
            (200.0 + gap, 0.0, inside),  # frame 2's twin exactly the gap later: not a pair
            (300.0, 0.6 * r, 0.8 * r),  # frame 4, R away by a sum of squares
        ])
        pairs = _loop_pairs(frames)
        assert pairs == dense_loop_pairs(frames)
        assert (0, 2) in pairs and (0, 1) not in pairs and (2, 3) not in pairs


class TestPresets:
    def test_ap_counts(self):
        worlds = preset_worlds()
        assert worlds["c_hall"].ap_count == 35
        assert worlds["c_hall"].ap_count < 40
        assert worlds["j_hall"].ap_count == 70

    def test_a_hall_fewer_walls_than_c_hall(self):
        worlds = preset_worlds()
        assert len(worlds["a_hall"].extra_walls) < len(worlds["c_hall"].extra_walls)

    def test_cluster_counts_in_reported_bands(self, dataset_cache):
        from wifislam import gating

        expected = {"c_hall": 7, "b_hall": 13, "j_hall": 19, "a_hall": 8}
        for name, target in expected.items():
            ds = dataset_cache(name, 0)
            rec = gating.run_pipeline(
                ds, gating.PolicyParams(policy="orb", gated=True, min_matches=20, seed=0)
            )
            n = len(rec.store)
            assert 0.5 * target <= n <= 1.5 * target, f"{name}: {n} clusters vs target {target}"

    def test_curve_places_dwells_pause_every_apart(self, dataset_cache):
        from wifislam.evaluation import similarity_distance_curve

        ds = dataset_cache("b_hall", 0)
        step = ds.world.config.trajectory.pause_every
        # the first three dwells lie on the first corridor, in path order, pause_every apart
        pts, _rho = similarity_distance_curve(ds, ds.signatures[:3])
        assert [d for d, _s in pts] == pytest.approx([step, 2 * step, step], abs=1e-6)  # pairs 01, 02, 12

    @pytest.mark.parametrize("change, reason", [
        ({"appearance": AppearanceModel(unique_words_per_bin=0, alias_words_per_bin=0, jitter_words=0)},
         "the appearance word counts are all 0"),
        ({"appearance": AppearanceModel(unique_words_per_bin=257)}, "unique_words_per_bin must be at most 256"),
        ({"template_of": {0: 512}}, "template_of values must be in 0..511, got 512"),
        ({"appearance": AppearanceModel(bin_meters=0.005)}, "gives a corridor 2400 word bins; at most 2048 fit"),
        # the id fields: the APs' MAC numbering, and the path's frames and dwells, counted from its lap length
        ({"ap_count": 65537}, "ap_count must be at most 65536, got 65537"),
        ({"trajectory": TrajectorySpec("figure_eight", 12.0, laps=40_000)},
         r"\(40000 laps\) has up to 1097143 dwells; the dwell indices have room for 1048576"),
        ({"trajectory": TrajectorySpec("figure_eight", 12.0, pause_every=1e9, laps=185_000)},
         r"\(185000 laps\) may have up to 25371431 frames; the word ids have room for 25165824"),
        # a short path of very many laps: few frames and dwells, but one route leg per corridor per lap
        ({"trajectory": TrajectorySpec("figure_eight", 1e-6, laps=1e9)},
         r"\(1000000000.0 laps\) has up to 8000000000 route legs; at most 4194304 are built"),
    ], ids=["no_words", "unique_words_257", "template_512", "corridor_bins_2400", "ap_count_65537", "dwells_1097143",
            "frames_25371431", "legs_8000000000"])
    def test_replaced_preset_checks_itself(self, change, reason):
        with pytest.raises(ValueError, match=reason):
            replace(preset_worlds()["b_hall"], **change)

    def test_id_fields_admit_the_largest_worlds(self):
        """Just inside each limit a world is accepted: 65,536 APs, with distinct MACs; a path of 1,042,286
        dwells; one of 24,685,716 frames, whose last jitter words still fit below `MAX_WORD_ID`; one of
        4,194,304 route legs."""
        config = preset_worlds()["b_hall"]  # 96 m laps, a frame every 0.7 m, a dwell every 3.5 m
        assert replace(config, ap_count=65536).ap_count == 65536
        assert len({simworld._ap_mac(i) for i in range(65536)}) == 65536
        replace(config, trajectory=replace(config.trajectory, laps=38_000))
        replace(config, trajectory=replace(config.trajectory, laps=180_000, pause_every=1e9))
        replace(config, trajectory=replace(config.trajectory, scale=1e-3, laps=(1 << 22) // 8))  # 8 legs a lap
        assert simworld._JITTER_WORD_BASE + simworld._FRAMES * simworld._JITTER_WORDS_PER_FRAME == MAX_WORD_ID

    def test_wall_checks_itself(self):
        with pytest.raises(ValueError, match="y2 must be finite, got inf"):
            Wall(0.0, 0.0, 1.0, math.inf)


class TestDerivedWorld:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["c_hall", "b_hall", "j_hall", "a_hall", "tiny"])
    def test_equals_the_synthesized_world(self, dataset_cache, tiny_world, name, seed):
        config = tiny_world if name == "tiny" else preset_worlds()[name]
        world = derive_world(config, seed)
        assert world == dataset_cache(name, seed, tiny_world if name == "tiny" else None).world
        segments = (*world.corridors, *config.extra_walls)
        xs, ys = [v for g in segments for v in (g.x1, g.x2)], [v for g in segments for v in (g.y1, g.y2)]
        m = config.margin
        assert world.bounds == (min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m)
        assert len(world.aps) == config.ap_count
        assert all(world.bounds[0] < ap.x < world.bounds[2] and world.bounds[1] < ap.y < world.bounds[3]
                   for ap in world.aps)

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", True, None])
    def test_unusable_seed(self, tiny_world, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            derive_world(tiny_world, seed)


def column_kinds(frames):
    return [getattr(frames, c.name).dtype.kind for c in fields(frames)]


class TestSerialization:
    def test_roundtrip_equality(self, tiny_world, dataset_cache, tmp_path):
        ds = synthesize(tiny_world, seed=3)
        save_dataset(ds, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert loaded.frames == ds.frames
        assert loaded.gt_loop_pairs == ds.gt_loop_pairs
        assert loaded.scans == ds.scans
        assert loaded.world.aps == ds.world.aps
        assert loaded.world.corridors == ds.world.corridors
        for name in preset_worlds():
            for seed in (0, 1, 2):
                ds = dataset_cache(name, seed)
                written = save_dataset(ds, tmp_path / f"{name}-{seed}" / "a")
                loaded = load_dataset(written)
                assert loaded.frames == ds.frames, (name, seed)
                assert column_kinds(loaded.frames) == column_kinds(ds.frames) == list("fffiii"), (name, seed)
                rewritten = save_dataset(loaded, tmp_path / f"{name}-{seed}" / "b")
                for f in DATASET_FILES:
                    assert (written / f).read_bytes() == (rewritten / f).read_bytes(), (name, seed, f)

    def test_byte_identical_rewrites(self, tiny_world, tmp_path):
        ds = synthesize(tiny_world, seed=3)
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        for name in ("frames.csv", "scans.csv", "loops_gt.csv", "world.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_load_then_save_reproduces_the_files(self, dataset_cache, tmp_path):
        written = save_dataset(dataset_cache("b_hall", 1), tmp_path / "a")
        rewritten = save_dataset(load_dataset(written), tmp_path / "b")
        for name in ("frames.csv", "scans.csv", "loops_gt.csv", "world.json"):
            assert (written / name).read_bytes() == (rewritten / name).read_bytes(), name


DATASET_FILES = ("frames.csv", "scans.csv", "loops_gt.csv", "world.json")
DIFFERS = "differs from the dataset world.json's config and seed derive"
BLOCK = 1024  # scans.csv rows; edits fall at and across multiples of it, in a file of several
TINY = WorldConfig(name="tiny", trajectory=TrajectorySpec(shape="square_loop", scale=6.0),
                   template_of={0: 0, 1: 1, 2: 0, 3: 2}, ap_count=4)


@pytest.fixture(scope="module")
def saved_tiny(tmp_path_factory):
    """A small saved dataset that tests copy before altering."""
    return save_dataset(synthesize(TINY, seed=3), tmp_path_factory.mktemp("saved") / "d")


@pytest.fixture(scope="module")
def saved_b_hall(tmp_path_factory, dataset_cache):
    """A saved preset dataset whose scans.csv spans several blocks of rows."""
    saved = save_dataset(dataset_cache("b_hall", 0), tmp_path_factory.mktemp("saved") / "b")
    assert len((saved / "scans.csv").read_text().split("\n")) > 3 * BLOCK
    return saved


@pytest.fixture()
def tiny_copy(saved_tiny, tmp_path):
    return Path(shutil.copytree(saved_tiny, tmp_path / "d"))


def first_differing_line(saved: bytes, edited: bytes) -> int:
    """Reference: the first line, counted from 1, at which two files differ, each line ending after its
    newline byte; a line only one of them has counts."""
    pairs = zip_longest(BytesIO(saved).readlines(), BytesIO(edited).readlines())
    return next(k for k, (a, b) in enumerate(pairs, start=1) if a != b)


def load_fault(d):
    """The DataError message `load_dataset` raises on directory ``d``, or None if it loads."""
    try:
        load_dataset(d)
    except DataError as exc:
        return str(exc)
    return None


def assert_first_difference_named(d, name, saved_dir, line=None):
    """Loading ``d``, whose ``name`` was edited from ``saved_dir``'s, names the first line that differs,
    as the reference finds it (and as ``line`` gives it), or loads if the file is unchanged."""
    path, saved = d / name, (saved_dir / name).read_bytes()
    if path.read_bytes() == saved:
        assert line is None and load_fault(d) is None
        return
    expected = first_differing_line(saved, path.read_bytes())
    assert load_fault(d) == f"{path}:{expected}: {DIFFERS}"
    assert line in (None, expected)


class TestLoadDataset:
    def test_scan_rows_roundtrip(self, tiny_copy, saved_tiny):
        """The saved readings load as the synthesized ones. Readings written by hand are not the dataset's,
        however well-formed: their first line is named."""
        assert load_dataset(tiny_copy).scans == synthesize(TINY, seed=3).scans
        (tiny_copy / "scans.csv").write_text(
            f"{simworld.SCANS_HEADER}\n"
            "0.5,AA:BB:CC:DD:EE:F3,-55.5,0\n1.5,AA:BB:CC:DD:EE:F4,-60,0\n2.5,AA:BB:CC:DD:EE:F4,-61,2\n"
        )
        assert_first_difference_named(tiny_copy, "scans.csv", saved_tiny, line=2)

    def test_interleaved_dwells_group_in_row_order(self, tiny_copy, saved_tiny):
        """Readings whose dwells interleave are not regrouped into a dataset: their first line is named."""
        (tiny_copy / "scans.csv").write_text(
            f"{simworld.SCANS_HEADER}\n"
            "0.5,AA:BB:CC:DD:EE:F3,-55.5,0\n9.0,aa:bb:cc:dd:ee:f4,-70,1\n1.5,AA:BB:CC:DD:EE:F4,-60,0\n"
        )
        assert_first_difference_named(tiny_copy, "scans.csv", saved_tiny, line=2)

    @pytest.mark.parametrize("field, value", [
        (1, "ZZ:00:00:00:00:01"), (2, "5.0"), (2, "nan"), (2, "-"), (0, "inf"), (3, "x"),
    ], ids=["bad_bssid", "positive_rssi", "nan_rssi", "non_numeric_rssi", "inf_timestamp", "non_numeric_dwell"])
    @pytest.mark.parametrize("row", ["middle", BLOCK, BLOCK + 1], ids=["middle", "last_of_a_chunk", "first_of_a_chunk"])
    def test_bad_scan_row_names_its_line(self, saved_b_hall, tmp_path, row, field, value):
        """A faulty value on a data row, rows 1,024 and 1,025 included, is named by its line; later rows
        with other faults do not move the blame."""
        d = Path(shutil.copytree(saved_b_hall, tmp_path / "d"))
        path = d / "scans.csv"
        lines = path.read_text().split("\n")
        k = len(lines) // 2 if row == "middle" else row
        fields = lines[k].split(",")
        fields[field] = value
        lines[k] = ",".join(fields)
        lines[k + 2] = lines[k + 2].replace(",-", ",5", 1)  # a positive RSSI, then a row of two fields
        lines[k + 3] = "broken,row"
        path.write_text("\n".join(lines))
        assert_first_difference_named(d, "scans.csv", saved_b_hall, line=k + 1)

    @pytest.mark.parametrize("fields", [
        ("x", "ZZ", "5.0", "-1"), ("x", "ZZ", "5.0", "0"), ("0.5", "ZZ", "nan", "0"), ("0.5", "ZZ", "5.0", "0"),
    ], ids=["dwell", "timestamp", "rssi", "positive_rssi"])
    def test_row_faults_are_checked_in_field_order(self, tiny_copy, saved_tiny, fields):
        """A row with several faulty fields is named by its line, whichever fields they are."""
        lines = (saved_tiny / "scans.csv").read_text().split("\n")
        (tiny_copy / "scans.csv").write_text(f"{lines[0]}\n{lines[1]}\n{','.join(fields)}\n")
        assert_first_difference_named(tiny_copy, "scans.csv", saved_tiny, line=3)

    def test_error_names_line(self, tiny_copy, saved_tiny):
        lines = (saved_tiny / "scans.csv").read_text().split("\n")
        (tiny_copy / "scans.csv").write_text(f"{lines[0]}\n{lines[1]}\nbroken,row\n")
        assert_first_difference_named(tiny_copy, "scans.csv", saved_tiny, line=3)

    @pytest.mark.parametrize("dwell", [-1, 1 << 20, 10**18])
    def test_dwell_index_out_of_range(self, tiny_copy, saved_tiny, dwell):
        (tiny_copy / "scans.csv").write_text(f"{simworld.SCANS_HEADER}\n0.5,AA:BB:CC:DD:EE:F3,-55.5,{dwell}\n")
        assert_first_difference_named(tiny_copy, "scans.csv", saved_tiny, line=2)

    @pytest.mark.parametrize("name", ["frames.csv", "scans.csv", "loops_gt.csv"])
    def test_bad_header(self, tiny_copy, saved_tiny, name):
        path = tiny_copy / name
        path.write_text("time,mac,power\n" + path.read_text().split("\n", 1)[1])
        assert_first_difference_named(tiny_copy, name, saved_tiny, line=1)

    @pytest.mark.parametrize("name", ["frames.csv", "scans.csv", "loops_gt.csv"])
    def test_missing_csv_names_it(self, tiny_copy, monkeypatch, name):
        """A CSV that cannot be opened is named before anything is synthesized."""
        monkeypatch.setattr(simworld, "synthesize", lambda *args: pytest.fail("synthesized without the CSVs"))
        (tiny_copy / name).unlink()
        assert load_fault(tiny_copy) == f"{tiny_copy / name}: No such file or directory"

    def test_absent_optional_key_takes_default(self, tiny_copy):
        path = tiny_copy / "world.json"
        wj = json.loads(path.read_text())
        for key in ("margin", "walls", "appearance"):
            del wj[key]
        path.write_text(json.dumps(wj))
        defaults = WorldConfig(name="x", trajectory=TrajectorySpec("square_loop", 1.0), template_of={}, ap_count=1)
        for config in (load_dataset(tiny_copy).world.config, load_world_config(path)):
            assert config.margin == defaults.margin
            assert config.extra_walls == defaults.extra_walls
            assert config.appearance == defaults.appearance

    @pytest.mark.parametrize("key", ["name", "trajectory", "template_of", "ap_count", "seed", "aps", "digests"])
    def test_missing_required_key(self, tiny_copy, key):
        path = tiny_copy / "world.json"
        wj = json.loads(path.read_text())
        del wj[key]
        path.write_text(json.dumps(wj))
        with pytest.raises(DataError) as exc:
            load_dataset(tiny_copy)
        assert str(exc.value) == f"{path}: missing key {key!r}"

    @pytest.mark.parametrize("key, edit", [
        ("bounds", lambda wj: wj["bounds"].__setitem__(0, wj["bounds"][0] - 1.0)),
        ("aps", lambda wj: wj["aps"][1].__setitem__("x", wj["aps"][1]["x"] + 0.5)),
        ("aps", lambda wj: wj["aps"].pop()),
        ("aps", lambda wj: wj.__setitem__("seed", wj["seed"] + 1)),  # another seed places other APs
        ("corridors", lambda wj: wj["corridors"][0].__setitem__("template", "0")),
        ("corridors", lambda wj: wj["corridors"][2].__setitem__("x2", 7.0)),
    ], ids=["bounds", "moved_ap", "dropped_ap", "other_seed", "template_string", "moved_corridor"])
    def test_derived_key_out_of_step(self, tiny_copy, key, edit):
        """``bounds``, ``aps`` and ``corridors`` follow from the config and the seed; the loader checks them."""
        path = tiny_copy / "world.json"
        wj = json.loads(path.read_text())
        edit(wj)
        path.write_text(json.dumps(wj))
        with pytest.raises(DataError) as exc:
            load_dataset(tiny_copy)
        assert str(exc.value) == f"{path}: {key!r} differs from the world its config and seed derive"

    @pytest.mark.parametrize("section, key, value", [
        ("odom_noise", "sigma_xy_per_m", 0.5),
        ("propagation", "noise_sigma_db", 9.0),
        ("trajectory", "laps", 5000.0),  # within the limits, a long path to synthesize
        (None, "scans_per_dwell", 6),
        (None, "name", "other"),
        (None, "margin", 4),  # the int of an equal float setting
    ], ids=["odom_noise", "rssi_noise", "laps", "scans_per_dwell", "name", "int_margin"])
    def test_edited_setting_is_named_before_synthesis(self, tiny_copy, monkeypatch, section, key, value):
        """A setting that differs from the one the dataset was saved with fails the recorded settings digest
        before anything is synthesized."""
        monkeypatch.setattr(simworld, "synthesize", lambda *args: pytest.fail("synthesized an edited world"))
        path = tiny_copy / "world.json"
        wj = json.loads(path.read_text())
        (wj[section] if section else wj)[key] = value
        path.write_text(json.dumps(wj))
        assert load_fault(tiny_copy) == f"{path}: the settings differ from those the dataset was saved with"

    @pytest.mark.parametrize("key", ["frames.csv", "scans.csv", "loops_gt.csv", "columns", "settings"])
    def test_edited_digest_names_world_json(self, tiny_copy, key):
        """A recorded digest that no longer fits files that are the dataset's names world.json."""
        path = tiny_copy / "world.json"
        wj = json.loads(path.read_text())
        wj["digests"][key] = "0" * 64
        path.write_text(json.dumps(wj))
        reason = ("the settings differ from those the dataset was saved with" if key == "settings"
                  else "the dataset its config and seed derive differs from its 'digests'")
        assert load_fault(tiny_copy) == f"{path}: {reason}"

    def test_changed_synthesis_names_world_json(self, tiny_copy, monkeypatch):
        """Unedited files whose config and seed now derive other data, as another numpy's streams might: one
        reading 1 dB weaker fails the columns digest, and world.json is named."""
        synthesize_as_saved = simworld.synthesize

        def shifted(config, seed):
            dataset = synthesize_as_saved(config, seed)
            dataset.scans.rssi[0] -= 1.0
            return dataset

        monkeypatch.setattr(simworld, "synthesize", shifted)
        path = tiny_copy / "world.json"
        assert load_fault(tiny_copy) == f"{path}: the dataset its config and seed derive differs from its 'digests'"

    def test_ap_count_is_checked_before_any_ap_is_placed(self, tiny_copy, monkeypatch):
        """An ``ap_count`` other than the number of ``aps`` is rejected before the world is derived, so a
        corrupt count, however large, sizes no work: one past the MACs' room fails the config's own check,
        one within it the count of ``aps``."""
        monkeypatch.setattr(simworld, "derive_world", lambda *args: pytest.fail("the world was derived"))
        path = tiny_copy / "world.json"
        wj = json.loads(path.read_text())
        for count, reason in ((10**12, "ap_count must be at most 65536, got 1000000000000"),
                              (65536, "'aps' differs from the world its config and seed derive")):
            wj["ap_count"] = count
            path.write_text(json.dumps(wj))
            with pytest.raises(DataError) as exc:
                load_dataset(tiny_copy)
            assert str(exc.value) == f"{path}: {reason}"

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", None])
    def test_unusable_seed(self, tiny_copy, seed):
        path = tiny_copy / "world.json"
        wj = json.loads(path.read_text())
        wj["seed"] = seed
        path.write_text(json.dumps(wj))
        with pytest.raises(DataError) as exc:
            load_dataset(tiny_copy)
        assert str(exc.value) == f"{path}: seed must be an integer >= 0, got {seed!r}"

    @pytest.mark.parametrize("theta", ["inf", "nan"])
    def test_non_finite_angle_names_line(self, tiny_copy, saved_tiny, theta):
        path = tiny_copy / "frames.csv"
        lines = path.read_text().split("\n")
        fields = lines[2].split(",")
        fields[4] = theta
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines))
        assert_first_difference_named(tiny_copy, "frames.csv", saved_tiny, line=3)

    @pytest.mark.parametrize("field, value", [(1, "-1.0"), (9, ""), (8, "7")],
                             ids=["earlier_timestamp", "empty_words", "uncarried_template"])
    def test_bad_frame_row_names_line(self, tiny_copy, saved_tiny, field, value):
        path = tiny_copy / "frames.csv"
        lines = path.read_text().split("\n")
        fields = lines[2].split(",")
        fields[field] = value
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines))
        assert_first_difference_named(tiny_copy, "frames.csv", saved_tiny, line=3)

    @pytest.mark.parametrize("row", ["7,5", "3,99999", "-4,2", "6,6"],
                             ids=["reversed", "past_last_frame", "negative", "self_pair"])
    def test_bad_loop_pair_names_line(self, tiny_copy, saved_tiny, row):
        """The row is named on a middle line, on the first and the fourth data line and on the one after."""
        path = tiny_copy / "loops_gt.csv"
        saved = path.read_text().split("\n")
        assert len(saved) > 6  # the header, at least 5 pairs and the last line's end
        for k in (2, 1, 4, 5):  # the row goes on line k + 1
            path.write_text("\n".join(saved[:k] + [row] + saved[k:]))
            assert_first_difference_named(tiny_copy, "loops_gt.csv", saved_tiny, line=k + 1)

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(DATASET_FILES),
        value=st.one_of(
            st.sampled_from(["", "x", "-1", "5.0", "nan", "inf", "1e999", "ZZ:00:00:00:00:00", "[", "null"]),
            st.integers().map(str),
            st.floats().map(repr),
            st.text(max_size=12),
        ),
        data=st.data(),
    )
    def test_one_corrupted_field_loads_or_raises_data_error(self, saved_tiny, name, value, data):
        """An edited CSV field names the first line that differs; an edited world.json loads or names itself."""
        lines = (saved_tiny / name).read_text().split("\n")
        k = data.draw(st.integers(0, len(lines) - 1), label="line")
        fields = lines[k].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1), label="field")] = value
        lines[k] = ",".join(fields)
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(shutil.copytree(saved_tiny, Path(tmp) / "d"))
            (d / name).write_text("\n".join(lines), encoding="utf-8")
            if name != "world.json":
                assert_first_difference_named(d, name, saved_tiny)
            elif (fault := load_fault(d)) is not None:
                assert fault.startswith(str(d / name))


def write_rows(d, saved_dir, name, kept, lines, newline):
    """Write ``name`` in ``d`` as the saved file's header and first ``kept`` rows, then ``lines``, each
    line ended by ``newline`` but the last."""
    saved = (saved_dir / name).read_text().split("\n")
    (d / name).write_bytes(newline.join([*saved[:kept + 1], *lines]).encode())


class TestChunkedScans:
    """``scans.csv`` edited across blocks of rows: line ends, blank and padded lines, truncation, faults in
    neighbouring rows and arbitrary rows; each load names the first line that differs from the saved file."""

    def b_hall_rows(self, saved_b_hall, tmp_path):
        d = Path(shutil.copytree(saved_b_hall, tmp_path / "d"))
        return d, (d / "scans.csv").read_text().split("\n")

    def test_saved_file(self, saved_b_hall, dataset_cache):
        assert load_dataset(saved_b_hall).scans == dataset_cache("b_hall", 0).scans

    def test_crlf_line_ends(self, saved_b_hall, tmp_path):
        d, lines = self.b_hall_rows(saved_b_hall, tmp_path)
        (d / "scans.csv").write_bytes("\r\n".join(lines).encode())
        assert_first_difference_named(d, "scans.csv", saved_b_hall, line=1)

    def test_blank_and_padded_lines(self, saved_b_hall, tmp_path):
        d, lines = self.b_hall_rows(saved_b_hall, tmp_path)
        for k in (3, BLOCK - 1, BLOCK + 5):
            lines[k] = f" \t{lines[k]}  "
        lines[2 * BLOCK:2 * BLOCK] = ["", "   ", "\t"]
        lines[5:5] = [" "] * (BLOCK + 3)
        (d / "scans.csv").write_text("\n".join(lines))
        assert_first_difference_named(d, "scans.csv", saved_b_hall, line=4)
        lines[3] = lines[3].strip()
        (d / "scans.csv").write_text("\n".join(lines))
        assert_first_difference_named(d, "scans.csv", saved_b_hall, line=6)

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_whole_chunks(self, saved_b_hall, tmp_path, chunks):
        """A file cut after whole blocks of rows names the first line it lacks."""
        d, lines = self.b_hall_rows(saved_b_hall, tmp_path)
        (d / "scans.csv").write_text("\n".join(lines[:chunks * BLOCK + 1]) + "\n")
        assert_first_difference_named(d, "scans.csv", saved_b_hall, line=chunks * BLOCK + 2)

    def test_field_count_in_first_row_of_second_chunk(self, saved_b_hall, tmp_path):
        d, lines = self.b_hall_rows(saved_b_hall, tmp_path)
        lines[BLOCK + 1] += ",0"  # data row BLOCK + 1, on line BLOCK + 2
        (d / "scans.csv").write_text("\n".join(lines))
        assert_first_difference_named(d, "scans.csv", saved_b_hall, line=BLOCK + 2)

    @pytest.mark.parametrize("value_first", [True, False])
    def test_value_and_field_count_faults_in_one_chunk(self, saved_b_hall, tmp_path, value_first):
        """The earlier of two faulty rows is named, whichever kind of fault each has."""
        d, lines = self.b_hall_rows(saved_b_hall, tmp_path)
        value_row, count_row = (10, 20) if value_first else (20, 10)
        lines[value_row] = lines[value_row].rsplit(",", 2)[0] + ",nan," + lines[value_row].rsplit(",", 1)[1]
        lines[count_row] = "broken,row"
        (d / "scans.csv").write_text("\n".join(lines))
        assert_first_difference_named(d, "scans.csv", saved_b_hall, line=min(value_row, count_row) + 1)

    def test_short_row_then_long_row(self, tiny_copy, saved_tiny):
        """Rows of 3 and 5 fields whose commas add up to two rows' worth."""
        (tiny_copy / "scans.csv").write_text(
            f"{simworld.SCANS_HEADER}\n0.5,AA:BB:CC:DD:EE:F3,-55.5\n0,0.5,AA:BB:CC:DD:EE:F3,-55.5,0\n")
        assert_first_difference_named(tiny_copy, "scans.csv", saved_tiny, line=2)

    rows = st.tuples(
        st.sampled_from(["0.5", "1.25", " 2.0", "1_0.5", "nan", "x", "-3.0"]),
        st.sampled_from(["AA:BB:CC:DD:EE:F3", "aa:bb:cc:dd:ee:f4", "0A:00:00:00:01:F0", "ZZ:00:00:00:00:00"]),
        st.sampled_from(["-55.5", "-60", "0", "5.0", "-inf", " -70 "]),
        st.sampled_from(["0", "1", "2", "-1", "1048576", "1_0", "y"]),
    ).map(",".join) | st.sampled_from(["0.5,AA:BB:CC:DD:EE:F3,-55.5,0", "1.5,aa:bb:cc:dd:ee:f4,-60,0",
                                       "9.0,0A:00:00:00:01:F0,-70,1"]) | \
        st.sampled_from(["", "  ", "\t", "broken,row", "0.5,AA:BB:CC:DD:EE:F3,-55.5", "0,0.5,AA:BB:CC:DD:EE:F3,-55.5,0"])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(rows, max_size=14), st.sampled_from(["\n", "\r\n", "\r"]), st.integers(1, 4))
    def test_equals_per_row_reading(self, saved_tiny, tmp_path_factory, lines, newline, kept):
        """After ``kept`` saved rows, arbitrary rows: the line named is the first a line-by-line reading finds."""
        d = Path(shutil.copytree(saved_tiny, tmp_path_factory.mktemp("scans") / "d"))
        write_rows(d, saved_tiny, "scans.csv", kept, lines, newline)
        assert_first_difference_named(d, "scans.csv", saved_tiny)


class TestChunkedLoops:
    """``loops_gt.csv`` holds the sorted ground-truth pairs; arbitrary rows after some of them name the
    first line that differs."""

    def test_saved_file(self, tiny_copy):
        rows = (tiny_copy / "loops_gt.csv").read_text().split("\n")[1:-1]
        assert load_dataset(tiny_copy).gt_loop_pairs == {tuple(map(int, row.split(","))) for row in rows}

    ids = st.sampled_from(["0", "3", "9", "10", " 5", "1_0", "-1", "x", "2.0", "99999999999999999999999"])
    rows = st.tuples(ids, ids).map(",".join) | st.sampled_from(["0,1", "2,9", "0,1", "", "  ", "1,2,3", "4"])

    @pytest.mark.parametrize("kept", [1, 2, 7])
    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(rows, max_size=16), newline=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_equals_per_row_reading(self, saved_tiny, tmp_path_factory, kept, lines, newline):
        d = Path(shutil.copytree(saved_tiny, tmp_path_factory.mktemp("loops") / "d"))
        write_rows(d, saved_tiny, "loops_gt.csv", kept, lines, newline)
        assert_first_difference_named(d, "loops_gt.csv", saved_tiny)


FRAME_ROWS = 128  # frames.csv rows; faults fall at the first, the last and either side of the 128th
FRAME_FAULTS = {  # fault -> edit of data row r's fields, given the previous row's
    "field_count": lambda r, p, prev: [*p, "7"],
    "non_numeric": lambda r, p, prev: p[:2] + ["x"] + p[3:],
    "non_finite": lambda r, p, prev: p[:6] + ["inf"] + p[7:],
    "id_not_index": lambda r, p, prev: [str(r + 5)] + p[1:],
    "earlier_timestamp": lambda r, p, prev: [p[0], repr(float(prev[1]) - 1.0)] + p[2:],
    "empty_bag": lambda r, p, prev: p[:9] + [""],
    "non_numeric_word": lambda r, p, prev: p[:9] + [p[9].replace("|", "|x|", 1)],
    "negative_word": lambda r, p, prev: p[:9] + ["-5|" + p[9]],
    "uncarried_template": lambda r, p, prev: p[:8] + ["7"] + p[9:],
}


class TestChunkedFrames:
    """``frames.csv`` edited row by row, across blocks of rows and with arbitrary rows; each load names the
    first line that differs from the saved file."""

    @pytest.mark.parametrize("where", ["first", "chunk_end", "chunk_start", "last"])
    @pytest.mark.parametrize("fault", FRAME_FAULTS)
    def test_fault_names_its_row(self, saved_b_hall, tmp_path, fault, where):
        d = Path(shutil.copytree(saved_b_hall, tmp_path / "d"))
        path = d / "frames.csv"
        lines = path.read_text().split("\n")
        n = len(lines) - 2  # data rows: less the header and the empty string after the last newline
        assert n > FRAME_ROWS + 1
        r = {"first": 0, "chunk_end": FRAME_ROWS - 1, "chunk_start": FRAME_ROWS, "last": n - 1}[where]
        if fault == "earlier_timestamp":
            r = max(r, 1)  # the first row has no previous one
        lines[r + 1] = ",".join(FRAME_FAULTS[fault](r, lines[r + 1].split(","), lines[r].split(",")))
        path.write_text("\n".join(lines))
        assert_first_difference_named(d, "frames.csv", saved_b_hall, line=r + 2)

    def test_saved_file(self, saved_b_hall, dataset_cache):
        loaded = load_dataset(saved_b_hall)
        assert loaded.frames == dataset_cache("b_hall", 0).frames and len(loaded.frames) > FRAME_ROWS

    @pytest.mark.parametrize("word", ["-5", "99999999999999999999999", "1_0", "٣"])
    def test_word_outside_the_domain_is_rejected(self, dataset_cache, tmp_path, word):
        """A sign, a number past 2**31, an underscore or a non-ASCII digit, each of which int() accepts."""
        saved = save_dataset(dataset_cache("a_hall", 0), tmp_path / "saved")
        d = Path(shutil.copytree(saved, tmp_path / "d"))
        path = d / "frames.csv"
        lines = path.read_text().split("\n")
        p = lines[5].split(",")
        lines[5] = ",".join(p[:9] + [p[9] + "|" + word])
        path.write_text("\n".join(lines), encoding="utf-8")
        assert_first_difference_named(d, "frames.csv", saved, line=6)

    # mostly valid values, so that faults come after valid rows
    rows = st.tuples(
        st.sampled_from(["index"] * 20 + ["index + 1", "x", " index", "1_0"]),
        st.sampled_from(["inc"] * 20 + ["dec", "nan", "x", "1_0.5"]),
        st.sampled_from(["0.0"] * 12 + ["-1.25", "7", "4.0", " 2.0", "inf", "x"]),
        st.sampled_from(["0", "1"] * 6 + ["-1", "9223372036854775807", "x", "99999999999999999999999"]),
        st.sampled_from(["1|2|3", "5", "3|3|3", "2147483647|0", "0007"] * 4 + [
            "", "1||2", "1|", "|1", "-5", "1_0", "٣", "x", "2147483648", " 7"]),
        st.sampled_from([""] * 20 + [",0"]),
    ) | st.sampled_from(["", "  ", "\t", "broken,row"])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(rows, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]), st.integers(1, 4),
           st.integers(2, 7))
    def test_equals_per_row_reading(self, saved_tiny, tmp_path_factory, rows, newline, kept, pose_field):
        """After ``kept`` saved rows, arbitrary rows: the line named is the first a line-by-line reading finds."""
        lines, k = [], kept
        for row in rows:
            if isinstance(row, str):
                lines.append(row)
                continue
            ident, t, pose, template, bag, extra = row
            fields = ["0.0"] * 10
            fields[0] = ident.replace("index + 1", str(k + 1)).replace("index", str(k))
            fields[1] = {"inc": repr(float(k)), "dec": repr(k - 1.5)}.get(t, t)
            fields[pose_field], fields[8], fields[9] = pose, template, bag
            lines.append(",".join(fields) + extra)
            k += 1
        d = Path(shutil.copytree(saved_tiny, tmp_path_factory.mktemp("frames") / "d"))
        write_rows(d, saved_tiny, "frames.csv", kept, lines, newline)
        assert_first_difference_named(d, "frames.csv", saved_tiny)
