from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wifislam import simworld
from wifislam.posegraph import Pose2, between, compose, wrap_angle
from wifislam.signature import mask_bssid
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


@pytest.fixture(scope="module")
def saved_tiny(tmp_path_factory):
    """A small saved dataset that tests copy before altering."""
    config = WorldConfig(
        name="tiny",
        trajectory=TrajectorySpec(shape="square_loop", scale=6.0),
        template_of={0: 0, 1: 1, 2: 0, 3: 2},
        ap_count=4,
    )
    return save_dataset(synthesize(config, seed=3), tmp_path_factory.mktemp("saved") / "d")


@pytest.fixture(scope="module")
def saved_b_hall(tmp_path_factory):
    """A saved preset dataset whose scans.csv spans several of the reader's chunks."""
    saved = save_dataset(synthesize(preset_worlds()["b_hall"], seed=0), tmp_path_factory.mktemp("saved") / "b")
    assert len((saved / "scans.csv").read_text().split("\n")) > 3 * simworld._SCAN_ROWS
    return saved


@pytest.fixture()
def tiny_copy(saved_tiny, tmp_path):
    return Path(shutil.copytree(saved_tiny, tmp_path / "d"))


class TestLoadDataset:
    def test_scan_rows_roundtrip(self, tiny_copy):
        (tiny_copy / "scans.csv").write_text(
            "timestamp_s,bssid,rssi_dbm,dwell_index\n"
            "0.5,AA:BB:CC:DD:EE:F3,-55.5,0\n1.5,AA:BB:CC:DD:EE:F4,-60,0\n2.5,AA:BB:CC:DD:EE:F4,-61,2\n"
        )
        ds = load_dataset(tiny_copy)
        assert list(ds.scans.rows()) == [
            (0.5, "AA:BB:CC:DD:EE:F3", -55.5, 0), (1.5, "AA:BB:CC:DD:EE:F4", -60.0, 0),
            (2.5, "AA:BB:CC:DD:EE:F4", -61.0, 2),
        ]

    def test_checks_each_distinct_bssid_once(self, monkeypatch, tiny_copy):
        calls = []
        monkeypatch.setattr(simworld, "mask_bssid", lambda b: calls.append(b) or mask_bssid(b))
        ds = load_dataset(tiny_copy)
        assert len(ds.scans.dwell) > len(calls) == len(set(calls)) == len(set(b for _, b, _, _ in ds.scans.rows()))

    def test_interleaved_dwells_group_in_row_order(self, tiny_copy):
        (tiny_copy / "scans.csv").write_text(
            "timestamp_s,bssid,rssi_dbm,dwell_index\n"
            "0.5,AA:BB:CC:DD:EE:F3,-55.5,0\n9.0,aa:bb:cc:dd:ee:f4,-70,1\n1.5,AA:BB:CC:DD:EE:F4,-60,0\n"
        )
        ds = load_dataset(tiny_copy)
        assert list(ds.scans.rows()) == [
            (0.5, "AA:BB:CC:DD:EE:F3", -55.5, 0), (1.5, "AA:BB:CC:DD:EE:F4", -60.0, 0),
            (9.0, "aa:bb:cc:dd:ee:f4", -70.0, 1),
        ]
        assert [(s.pause_index, s.collected_at, dict(s.entries)) for s in ds.signatures] == [
            (0, 1.0, {"AA:BB:CC:DD:EE:F0": 42.25}), (1, 9.0, {"AA:BB:CC:DD:EE:F0": 30.0}),
        ]

    @pytest.mark.parametrize("field, value, reason", [
        (1, "ZZ:00:00:00:00:01", "malformed MAC 'ZZ:00:00:00:00:01': bad octet 'ZZ'"),
        (2, "5.0", "rssi must be <= 0 dBm, got 5.0"),
        (2, "nan", "non-finite number 'nan'"),
        (2, "-", "could not convert string to float: '-'"),
        (0, "inf", "non-finite number 'inf'"),
        (3, "x", "invalid literal for int() with base 10: 'x'"),
    ], ids=["bad_bssid", "positive_rssi", "nan_rssi", "non_numeric_rssi", "inf_timestamp", "non_numeric_dwell"])
    @pytest.mark.parametrize("row", ["middle", 1024, 1025], ids=["middle", "last_of_a_chunk", "first_of_a_chunk"])
    def test_bad_scan_row_names_its_line(self, saved_b_hall, tmp_path, row, field, value, reason):
        """A fault on a data row, after a valid lower-case BSSID, is blamed on that row; a
        later row with another fault does not move the blame. The reader checks
        ``simworld._SCAN_ROWS`` = 1024 lines at a time."""
        d = Path(shutil.copytree(saved_b_hall, tmp_path / "d"))
        path = d / "scans.csv"
        lines = path.read_text().split("\n")
        k = len(lines) // 2 if row == "middle" else row
        lines[1] = lines[1].lower()
        fields = lines[k].split(",")
        fields[field] = value
        lines[k] = ",".join(fields)
        lines[k + 2] = lines[k + 2].replace(",-", ",5", 1)  # a positive RSSI, then a row of two fields
        lines[k + 3] = "broken,row"
        path.write_text("\n".join(lines))
        with pytest.raises(DataError) as exc:
            load_dataset(d)
        assert str(exc.value) == f"{path}:{k + 1}: {reason}"

    @pytest.mark.parametrize("fields, reason", [
        (("x", "ZZ", "5.0", "-1"), "dwell index -1 outside [0, 1048576)"),
        (("x", "ZZ", "5.0", "0"), "could not convert string to float: 'x'"),
        (("0.5", "ZZ", "nan", "0"), "non-finite number 'nan'"),
        (("0.5", "ZZ", "5.0", "0"), "rssi must be <= 0 dBm, got 5.0"),
    ], ids=["dwell", "timestamp", "rssi", "positive_rssi"])
    def test_row_faults_are_checked_in_field_order(self, tiny_copy, fields, reason):
        path = tiny_copy / "scans.csv"
        path.write_text(f"timestamp_s,bssid,rssi_dbm,dwell_index\n0.5,AA:BB:CC:DD:EE:F3,-55.5,0\n{','.join(fields)}\n")
        with pytest.raises(DataError) as exc:
            load_dataset(tiny_copy)
        assert str(exc.value) == f"{path}:3: {reason}"

    def test_error_names_line(self, tiny_copy):
        path = tiny_copy / "scans.csv"
        path.write_text("timestamp_s,bssid,rssi_dbm,dwell_index\n0.5,AA:BB:CC:DD:EE:F3,-55.5,0\nbroken,row\n")
        with pytest.raises(DataError, match="expected 4 fields, got 2") as exc:
            load_dataset(tiny_copy)
        assert str(exc.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("dwell", [-1, 1 << 20, 10**18])
    def test_dwell_index_out_of_range(self, tiny_copy, dwell):
        path = tiny_copy / "scans.csv"
        path.write_text(f"timestamp_s,bssid,rssi_dbm,dwell_index\n0.5,AA:BB:CC:DD:EE:F3,-55.5,{dwell}\n")
        with pytest.raises(DataError) as exc:
            load_dataset(tiny_copy)
        assert str(exc.value) == f"{path}:2: dwell index {dwell} outside [0, {1 << 20})"

    @pytest.mark.parametrize("name", ["frames.csv", "scans.csv", "loops_gt.csv"])
    def test_bad_header(self, tiny_copy, name):
        path = tiny_copy / name
        path.write_text("time,mac,power\n" + path.read_text().split("\n", 1)[1])
        with pytest.raises(DataError) as exc:
            load_dataset(tiny_copy)
        assert str(exc.value).startswith(f"{path}:1: expected header ")

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

    @pytest.mark.parametrize("key", ["name", "trajectory", "template_of", "ap_count", "seed", "aps"])
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
    def test_non_finite_angle_names_line(self, tiny_copy, theta):
        path = tiny_copy / "frames.csv"
        lines = path.read_text().split("\n")
        fields = lines[2].split(",")
        fields[4] = theta
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines))
        with pytest.raises(DataError) as exc:
            load_dataset(tiny_copy)
        assert str(exc.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("field, value, reason", [
        (1, "-1.0", "timestamp -1.0 s is earlier than the previous frame's 0.0 s"),
        (9, "", "empty word bag"),
        (8, "7", "no corridor carries template 7"),
    ], ids=["earlier_timestamp", "empty_words", "uncarried_template"])
    def test_bad_frame_row_names_line(self, tiny_copy, field, value, reason):
        path = tiny_copy / "frames.csv"
        lines = path.read_text().split("\n")
        fields = lines[2].split(",")
        fields[field] = value
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines))
        with pytest.raises(DataError) as exc:
            load_dataset(tiny_copy)
        assert str(exc.value) == f"{path}:3: {reason}"

    @pytest.mark.parametrize("row", ["7,5", "3,99999", "-4,2", "6,6"],
                             ids=["reversed", "past_last_frame", "negative", "self_pair"])
    def test_bad_loop_pair_names_line(self, tiny_copy, monkeypatch, row):
        """The row is named on a middle line; then, read 4 lines at a time, on the first and the last line
        of the first chunk and on the first line of the second."""
        path = tiny_copy / "loops_gt.csv"
        saved = path.read_text().split("\n")
        n_frames = len((tiny_copy / "frames.csv").read_text().split()) - 1
        reason = f"loop pair {row} must satisfy 0 <= id_a < id_b < {n_frames}, the frame count"
        assert len(saved) > 6  # the header, at least 5 pairs and the last line's end
        for chunk_rows, k in ((simworld._SCAN_ROWS, 2), (4, 1), (4, 4), (4, 5)):  # the row goes on line k + 1
            monkeypatch.setattr(simworld, "_SCAN_ROWS", chunk_rows)
            path.write_text("\n".join(saved[:k] + [row] + saved[k:]))
            with pytest.raises(DataError) as exc:
                load_dataset(tiny_copy)
            assert str(exc.value) == f"{path}:{k + 1}: {reason}"

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
        lines = (saved_tiny / name).read_text().split("\n")
        k = data.draw(st.integers(0, len(lines) - 1), label="line")
        fields = lines[k].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1), label="field")] = value
        lines[k] = ",".join(fields)
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(shutil.copytree(saved_tiny, Path(tmp) / "d"))
            (d / name).write_text("\n".join(lines), encoding="utf-8")
            try:
                load_dataset(d)
            except DataError as exc:
                assert str(exc).startswith(str(d / name))


def reference_scans(path):
    """The per-row reading of ``scans.csv`` that the chunked reader must equal: the same `Scans`,
    or a DataError with the same message. Each non-blank line is stripped and split on its own;
    a row's field count is checked first, then its dwell, timestamp, RSSI and BSSID."""

    def finite(text):
        if not math.isfinite(float(text)):
            raise ValueError(f"non-finite number {text!r}")
        return float(text)

    readings, bssids = [], {}  # (dwell, t, code, rssi, line) per row; bssids in order of first use
    with open(path, newline="") as fh:
        if fh.readline().strip() != simworld.SCANS_HEADER:
            raise DataError(f"{path}:1: expected header {simworld.SCANS_HEADER}")
        for line, text in enumerate(fh, start=2):
            text = text.strip()
            if not text:
                continue
            try:
                parts = text.split(",")
                if len(parts) != 4:
                    raise ValueError(f"expected 4 fields, got {len(parts)}")
                t_s, bssid, rssi, dwell = parts
                if not 0 <= int(dwell) < simworld.MAX_DWELLS:
                    raise ValueError(f"dwell index {int(dwell)} outside [0, {simworld.MAX_DWELLS})")
                t = finite(t_s)
                if finite(rssi) > 0:
                    raise ValueError(f"rssi must be <= 0 dBm, got {float(rssi)}")
                mask_bssid(bssid)
            except ValueError as exc:
                raise DataError(f"{path}:{line}: {exc}") from exc
            readings.append((int(dwell), t, bssids.setdefault(bssid, len(bssids)), float(rssi), line))
    readings.sort(key=lambda r: r[0])  # stable: each dwell's readings stay in row order
    by_dwell = {}
    for r in readings:
        by_dwell.setdefault(r[0], []).append(r)
    means = [(d, sum(r[1] for r in rs) / len(rs), rs[0][4]) for d, rs in by_dwell.items()]
    for (d0, m0, _), (d, m, line) in zip(means, means[1:]):
        if m < m0:
            raise DataError(f"{path}:{line}: dwell {d} (mean time {m!r} s) is earlier than dwell {d0} ({m0!r} s)")
    d, t, code, rssi, _ = zip(*readings) if readings else ((),) * 5
    return simworld.Scans(np.array(d, dtype=np.int64), np.array(t, dtype=float), np.array(code, dtype=np.int64),
                          np.array(rssi, dtype=float), tuple(bssids))


def scans_or_message(load, path):
    """What a reader makes of ``path``: its Scans as comparable columns, or its DataError message."""
    try:
        s = load()
    except DataError as exc:
        return str(exc)
    return [(c.dtype.str, c.tolist()) for c in (s.dwell, s.t, s.bssid, s.rssi)] + [s.bssids]


class TestChunkedScans:
    """`load_dataset` reads ``scans.csv`` ``simworld._SCAN_ROWS`` lines at a time and splits each
    chunk in one pass; it must equal the per-row reading on every file."""

    def assert_like_reference(self, d, expect_fault=None):
        path = d / "scans.csv"
        got = scans_or_message(lambda: load_dataset(d).scans, path)
        assert got == scans_or_message(lambda: reference_scans(path), path)
        if expect_fault is not None:
            assert got == f"{path}:{expect_fault}"

    def b_hall_rows(self, saved_b_hall, tmp_path):
        d = Path(shutil.copytree(saved_b_hall, tmp_path / "d"))
        return d, (d / "scans.csv").read_text().split("\n")

    def test_saved_file(self, saved_b_hall, tmp_path):
        d, lines = self.b_hall_rows(saved_b_hall, tmp_path)
        assert len(lines) > 3 * simworld._SCAN_ROWS
        self.assert_like_reference(d)

    def test_crlf_line_ends(self, saved_b_hall, tmp_path):
        d, lines = self.b_hall_rows(saved_b_hall, tmp_path)
        (d / "scans.csv").write_bytes("\r\n".join(lines).encode())
        self.assert_like_reference(d)
        assert load_dataset(d).scans == load_dataset(saved_b_hall).scans

    def test_blank_and_padded_lines(self, saved_b_hall, tmp_path):
        d, lines = self.b_hall_rows(saved_b_hall, tmp_path)
        n = simworld._SCAN_ROWS
        for k in (3, n - 1, n + 5):
            lines[k] = f" \t{lines[k]}  "
        lines[2 * n:2 * n] = ["", "   ", "\t"]  # blank lines that push later rows across a chunk boundary
        lines[5:5] = [" "] * (n + 3)  # a whole chunk of blank lines
        (d / "scans.csv").write_text("\n".join(lines))
        self.assert_like_reference(d)
        assert load_dataset(d).scans == load_dataset(saved_b_hall).scans

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_whole_chunks(self, saved_b_hall, tmp_path, chunks):
        """A file of exactly whole chunks, so the last chunk read comes back empty."""
        d, lines = self.b_hall_rows(saved_b_hall, tmp_path)
        rows = [line for line in lines[1:] if line]
        (d / "scans.csv").write_text("\n".join([lines[0], *rows[:chunks * simworld._SCAN_ROWS]]) + "\n")
        self.assert_like_reference(d)
        assert len(load_dataset(d).scans.dwell) == chunks * simworld._SCAN_ROWS

    def test_field_count_in_first_row_of_second_chunk(self, saved_b_hall, tmp_path):
        d, lines = self.b_hall_rows(saved_b_hall, tmp_path)
        n = simworld._SCAN_ROWS
        lines[n + 1] += ",0"  # data row n + 1, on line n + 2
        (d / "scans.csv").write_text("\n".join(lines))
        self.assert_like_reference(d, f"{n + 2}: expected 4 fields, got 5")

    @pytest.mark.parametrize("value_first", [True, False])
    def test_value_and_field_count_faults_in_one_chunk(self, saved_b_hall, tmp_path, value_first):
        """The earlier of two faulty rows is named, whichever kind of fault each has."""
        d, lines = self.b_hall_rows(saved_b_hall, tmp_path)
        value_row, count_row = (10, 20) if value_first else (20, 10)
        lines[value_row] = lines[value_row].rsplit(",", 2)[0] + ",nan," + lines[value_row].rsplit(",", 1)[1]
        lines[count_row] = "broken,row"
        (d / "scans.csv").write_text("\n".join(lines))
        reason = "non-finite number 'nan'" if value_first else "expected 4 fields, got 2"
        self.assert_like_reference(d, f"{min(value_row, count_row) + 1}: {reason}")

    def test_short_row_then_long_row(self, tiny_copy):
        """Rows of 3 and 5 fields whose commas add up to two rows' worth are still a fault."""
        (tiny_copy / "scans.csv").write_text(
            f"{simworld.SCANS_HEADER}\n0.5,AA:BB:CC:DD:EE:F3,-55.5\n0,0.5,AA:BB:CC:DD:EE:F3,-55.5,0\n")
        self.assert_like_reference(tiny_copy, "2: expected 4 fields, got 3")

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
    def test_equals_per_row_reading(self, tmp_path_factory, lines, newline, chunk_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simworld, "_SCAN_ROWS", chunk_rows)
            d = tmp_path_factory.mktemp("scans")
            (d / "scans.csv").write_bytes(newline.join([simworld.SCANS_HEADER, *lines]).encode())
            path = d / "scans.csv"
            got = scans_or_message(lambda: simworld._read_csv(path, simworld.SCANS_HEADER, simworld._scans), path)
            assert got == scans_or_message(lambda: reference_scans(path), path)


def reference_loops(path, n_frames):
    """The per-row reading of ``loops_gt.csv`` that the chunked reader must equal: the same pairs, or a
    DataError with the same message. Each non-blank line is stripped and split on its own; a row's field
    count is checked first, then its pair."""
    pairs = set()
    with open(path, newline="") as fh:
        if fh.readline().strip() != simworld.LOOPS_HEADER:
            raise DataError(f"{path}:1: expected header {simworld.LOOPS_HEADER}")
        for line, text in enumerate(fh, start=2):
            text = text.strip()
            if not text:
                continue
            try:
                parts = text.split(",")
                if len(parts) != 2:
                    raise ValueError(f"expected 2 fields, got {len(parts)}")
                a, b = int(parts[0]), int(parts[1])
                if not 0 <= a < b < n_frames:
                    raise ValueError(f"loop pair {a},{b} must satisfy 0 <= id_a < id_b < {n_frames}, the frame count")
            except ValueError as exc:
                raise DataError(f"{path}:{line}: {exc}") from exc
            pairs.add((a, b))
    return frozenset(pairs)


def pairs_or_message(load):
    """What a reader makes of a ``loops_gt.csv``: its pairs, or its DataError message."""
    try:
        return load()
    except DataError as exc:
        return str(exc)


class TestChunkedLoops:
    """`load_dataset` reads ``loops_gt.csv`` ``simworld._SCAN_ROWS`` lines at a time and splits each
    chunk in one pass; it must equal the per-row reading on every file."""

    N_FRAMES = 10

    def read(self, path):
        return simworld._read_csv(path, simworld.LOOPS_HEADER, lambda fh: simworld._loop_rows(fh, self.N_FRAMES))

    def test_saved_file(self, tiny_copy):
        path = tiny_copy / "loops_gt.csv"
        n_frames = len((tiny_copy / "frames.csv").read_text().split()) - 1
        assert load_dataset(tiny_copy).gt_loop_pairs == reference_loops(path, n_frames)

    ids = st.sampled_from(["0", "3", "9", "10", " 5", "1_0", "-1", "x", "2.0", "99999999999999999999999"])
    rows = st.tuples(ids, ids).map(",".join) | st.sampled_from(["0,1", "2,9", "0,1", "", "  ", "1,2,3", "4"])

    @pytest.mark.parametrize("chunk_rows", [1, 2, 7])
    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(rows, max_size=16), newline=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_equals_per_row_reading(self, tmp_path_factory, chunk_rows, lines, newline):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simworld, "_SCAN_ROWS", chunk_rows)
            path = tmp_path_factory.mktemp("loops") / "loops_gt.csv"
            path.write_bytes(newline.join([simworld.LOOPS_HEADER, *lines]).encode())
            assert pairs_or_message(lambda: self.read(path)) == pairs_or_message(
                lambda: reference_loops(path, self.N_FRAMES))


def reference_frames(path, templates):
    """The per-row reading of ``frames.csv`` that the chunked reader must equal: its columns, or a
    DataError with the same message. Each non-blank line is stripped and split on its own and its
    fields are checked in the order id, timestamp, id against the row index, time order, bag
    emptiness, poses, words and template. A word must be ASCII decimal digits for an integer
    below 2**31, and a template must fit in 64 bits and be one of ``templates``, those the
    corridors carry."""

    def finite(text):
        if not math.isfinite(float(text)):
            raise ValueError(f"non-finite number {text!r}")
        return float(text)

    rows = []  # (t, gt pose, odometry pose, template, words) per row
    with open(path, newline="") as fh:
        if fh.readline().strip() != simworld.FRAMES_HEADER:
            raise DataError(f"{path}:1: expected header {simworld.FRAMES_HEADER}")
        for line, text in enumerate(fh, start=2):
            text = text.strip()
            if not text:
                continue
            try:
                p = text.split(",")
                if len(p) != 10:
                    raise ValueError(f"expected 10 fields, got {len(p)}")
                k, t = int(p[0]), finite(p[1])
                if k != len(rows):
                    raise ValueError(f"frame id {k} is not the row index {len(rows)}")
                if rows and t < rows[-1][0]:
                    raise ValueError(f"timestamp {t!r} s is earlier than the previous frame's {rows[-1][0]!r} s")
                if not p[9]:
                    raise ValueError("empty word bag")
                gt, odom = Pose2(*map(finite, p[2:5])), Pose2(*map(finite, p[5:8]))
                words = []
                for w in p[9].split("|"):
                    words.append(int(w))
                    if not (w.isascii() and w.isdigit() and words[-1] < 2**31):
                        raise ValueError(f"word {w!r} is not a decimal integer in [0, 2147483648)")
                if not -(2**63) <= int(p[8]) < 2**63:
                    raise ValueError(f"template id {int(p[8])} does not fit in 64 bits")
                if int(p[8]) not in templates:
                    raise ValueError(f"no corridor carries template {int(p[8])}")
            except ValueError as exc:
                raise DataError(f"{path}:{line}: {exc}") from exc
            rows.append((t, gt, odom, int(p[8]), words))
    return [[r[0] for r in rows], [[r[1].x, r[1].y, r[1].theta] for r in rows],
            [[r[2].x, r[2].y, r[2].theta] for r in rows], [r[3] for r in rows], [w for r in rows for w in r[4]],
            np.cumsum([0, *(len(r[4]) for r in rows)]).tolist()]


def frames_or_message(load, path):
    """What a reader makes of ``path``: its frame columns as Python values, or its DataError message."""
    try:
        f = load()
    except DataError as exc:
        return str(exc)
    return f if isinstance(f, list) else [c.tolist() for c in (f.t, f.gt, f.odom, f.template, f.words, f.offsets)]


def read_frames(path, templates):
    return simworld._read_csv(path, simworld.FRAMES_HEADER, lambda fh: simworld._frames(fh, templates))


B_HALL_TEMPLATES = sorted(set(preset_worlds()["b_hall"].template_of.values()))  # 0-6, one per corridor but 5


FRAME_FAULTS = {  # fault -> (edit, reason), each of data row r's fields and the previous row's
    "field_count": (lambda r, p, prev: [*p, "7"], lambda r, p, prev: "expected 10 fields, got 11"),
    "non_numeric": (lambda r, p, prev: p[:2] + ["x"] + p[3:], lambda r, p, prev: "could not convert string to float: 'x'"),
    "non_finite": (lambda r, p, prev: p[:6] + ["inf"] + p[7:], lambda r, p, prev: "non-finite number 'inf'"),
    "id_not_index": (lambda r, p, prev: [str(r + 5)] + p[1:], lambda r, p, prev: f"frame id {r + 5} is not the row index {r}"),
    "earlier_timestamp": (lambda r, p, prev: [p[0], repr(float(prev[1]) - 1.0)] + p[2:],
                          lambda r, p, prev: f"timestamp {float(p[1])!r} s is earlier than the previous frame's "
                                             f"{float(prev[1])!r} s"),
    "empty_bag": (lambda r, p, prev: p[:9] + [""], lambda r, p, prev: "empty word bag"),
    "non_numeric_word": (lambda r, p, prev: p[:9] + [p[9].replace("|", "|x|", 1)],
                         lambda r, p, prev: "invalid literal for int() with base 10: 'x'"),
    "negative_word": (lambda r, p, prev: p[:9] + ["-5|" + p[9]],
                      lambda r, p, prev: "word '-5' is not a decimal integer in [0, 2147483648)"),
    "uncarried_template": (lambda r, p, prev: p[:8] + ["7"] + p[9:],
                           lambda r, p, prev: "no corridor carries template 7"),
}


class TestChunkedFrames:
    """`load_dataset` reads ``frames.csv`` ``simworld._FRAME_ROWS`` lines at a time and checks each chunk
    in bulk; every fault must name the line and reason that the per-row reading gives."""

    @pytest.mark.parametrize("where", ["first", "chunk_end", "chunk_start", "last"])
    @pytest.mark.parametrize("fault", FRAME_FAULTS)
    def test_fault_names_its_row(self, saved_b_hall, tmp_path, fault, where):
        d = Path(shutil.copytree(saved_b_hall, tmp_path / "d"))
        path = d / "frames.csv"
        lines = path.read_text().split("\n")
        n = len(lines) - 2  # data rows: less the header and the empty string after the last newline
        assert n > simworld._FRAME_ROWS + 1
        r = {"first": 0, "chunk_end": simworld._FRAME_ROWS - 1, "chunk_start": simworld._FRAME_ROWS, "last": n - 1}[where]
        if fault == "earlier_timestamp":
            r = max(r, 1)  # the first row has no previous one
        edit, reason = FRAME_FAULTS[fault]
        lines[r + 1] = ",".join(edit(r, lines[r + 1].split(","), lines[r].split(",")))
        path.write_text("\n".join(lines))
        expected = f"{path}:{r + 2}: {reason(r, lines[r + 1].split(','), lines[r].split(','))}"
        assert frames_or_message(lambda: load_dataset(d).frames, path) == expected
        assert frames_or_message(lambda: reference_frames(path, B_HALL_TEMPLATES), path) == expected

    def test_saved_file(self, saved_b_hall):
        path = saved_b_hall / "frames.csv"
        got = frames_or_message(lambda: read_frames(path, B_HALL_TEMPLATES), path)
        assert got == frames_or_message(lambda: reference_frames(path, B_HALL_TEMPLATES), path)
        assert len(got[0]) > simworld._FRAME_ROWS

    @pytest.mark.parametrize("word", ["-5", "99999999999999999999999", "1_0", "٣"])
    def test_word_outside_the_domain_is_rejected(self, dataset_cache, tmp_path, word):
        """Only ASCII decimal words below 2**31 load: not a sign, a number past 2**31, an underscore
        or a non-ASCII digit, each of which int() accepts."""
        d = save_dataset(dataset_cache("a_hall", 0), tmp_path / "d")
        path = d / "frames.csv"
        lines = path.read_text().split("\n")
        p = lines[5].split(",")
        lines[5] = ",".join(p[:9] + [p[9] + "|" + word])
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_dataset(d)
        assert str(exc.value) == f"{path}:6: word {word!r} is not a decimal integer in [0, 2147483648)"

    def test_largest_word_loads(self, tmp_path):
        path = tmp_path / "frames.csv"
        path.write_text(f"{simworld.FRAMES_HEADER}\n0,0.0,0,0,0,0,0,0,0,2147483647|0|0007\n")
        frames = read_frames(path, [0])
        assert frames.words.tolist() == [2**31 - 1, 0, 7] and frames.offsets.tolist() == [0, 3]

    # mostly valid values, so that faults come after valid rows of earlier chunks
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
    def test_equals_per_row_reading(self, tmp_path_factory, rows, newline, chunk_rows, pose_field):
        lines, k = [], 0
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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simworld, "_FRAME_ROWS", chunk_rows)
            path = tmp_path_factory.mktemp("frames") / "frames.csv"
            path.write_bytes(newline.join([simworld.FRAMES_HEADER, *lines]).encode())
            templates = [0, 1, 2**63 - 1]  # -1 is carried by no corridor
            got = frames_or_message(lambda: read_frames(path, templates), path)
            assert got == frames_or_message(lambda: reference_frames(path, templates), path)
