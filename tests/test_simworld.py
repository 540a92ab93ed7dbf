from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wifislam.posegraph import compose
from wifislam.signature import ScanReading
from wifislam.simworld import (
    FRAME_RATE_HZ,
    AccessPoint,
    BadWorld,
    DataError,
    FloorPlan,
    PropagationParams,
    TrajectorySpec,
    Wall,
    WorldConfig,
    count_wall_crossings,
    corridor_of_frame,
    dwell_positions,
    generate_trajectory,
    load_dataset,
    load_world_config,
    preset_worlds,
    rssi_at,
    save_dataset,
    synthesize,
    template_pose_of,
)

PLAIN = FloorPlan(walls=(), bounds=(-50, -50, 50, 50))
NOISELESS = PropagationParams(noise_sigma_db=0.0)


class TestRssi:
    def test_reference_distance(self):
        ap = AccessPoint("0A:00:00:00:00:00", 0.0, 0.0, tx_power_at_1m=-30.0)
        assert rssi_at(ap, (1.0, 0.0), PLAIN, NOISELESS) == pytest.approx(-30.0)

    def test_monotone_decreasing(self):
        ap = AccessPoint("0A:00:00:00:00:00", 0.0, 0.0, tx_power_at_1m=-30.0)
        vals = [rssi_at(ap, (d, 0.0), PLAIN, NOISELESS) for d in (1.5, 3, 6, 12, 24)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_wall_formula_hand_value(self):
        ap = AccessPoint("0A:00:00:00:00:00", 0.0, 0.0, tx_power_at_1m=-30.0)
        plan = FloorPlan(walls=(Wall(5.0, -1.0, 5.0, 1.0),), bounds=(-50, -50, 50, 50))
        params = PropagationParams(path_loss_exponent=3.0, wall_loss_db=5.0, noise_sigma_db=0.0)
        assert rssi_at(ap, (10.0, 0.0), plan, params) == pytest.approx(-65.0, abs=1e-9)

    def test_crossing_count(self):
        plan = FloorPlan(
            walls=(Wall(1, -1, 1, 1), Wall(2, -1, 2, 1), Wall(3, 5, 4, 5)), bounds=(-9, -9, 9, 9)
        )
        assert count_wall_crossings(plan, (0.0, 0.0), (5.0, 0.0)) == 2


class TestTrajectory:
    def test_square_loop_closes(self):
        spec = TrajectorySpec(shape="square_loop", scale=20.0, speed=1.0, laps=1.0)
        traj = generate_trajectory(spec)
        first, last = traj.samples[0].pose, traj.samples[-1].pose
        assert math.hypot(first.x - last.x, first.y - last.y) < 1e-9

    def test_dwell_count_floor_rule(self):
        spec = TrajectorySpec(shape="square_loop", scale=20.0, speed=1.0, pause_every=3.5, laps=1.0)
        traj = generate_trajectory(spec)
        assert traj.path_length == pytest.approx(80.0)
        assert len(traj.dwells) == 22

    def test_figure_eight_single_crossing(self):
        spec = TrajectorySpec(shape="figure_eight", scale=12.0, speed=1.0)
        traj = generate_trajectory(spec)
        pts = [(s.pose.x, s.pose.y) for s in traj.samples]
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
        assert traj.samples[-1].t == pytest.approx(80.0 / 1.0 + 22 * 10.0)

    def test_times_count_the_earlier_dwells_at_12_laps(self):
        config = preset_worlds()["j_hall"]
        spec = replace(config.trajectory, laps=12.0)
        traj = generate_trajectory(spec, config.template_of)
        spacing, total = spec.speed / FRAME_RATE_HZ, traj.path_length
        arcs = [k * spacing for k in range(int(total / spacing) + 1) if k * spacing <= total + 1e-9]
        if total - arcs[-1] > 1e-9:
            arcs.append(total)
        dwell_arcs = [d.arc for d in traj.dwells]

        def t_at(arc):
            return arc / spec.speed + sum(1 for d in dwell_arcs if d < arc - 1e-9) * spec.pause_duration

        assert len(traj.dwells) > 100
        assert [s.t for s in traj.samples] == [t_at(a) for a in arcs]
        assert [d.t_arrival for d in traj.dwells] == [t_at(a) for a in dwell_arcs]

    def test_unknown_shape(self):
        with pytest.raises(BadWorld, match="unknown trajectory shape 'spiral'; valid shapes: square_loop, "):
            TrajectorySpec(shape="spiral", scale=5.0)


class TestSynthesize:
    def test_zero_noise_odometry_composes_to_gt(self, tiny_world):
        cfg = replace(tiny_world, odom_noise=replace(tiny_world.odom_noise, sigma_xy_per_m=0.0, sigma_theta_per_m=0.0))
        ds = synthesize(cfg, seed=0)
        pose = ds.frames[0].gt_pose
        for f in ds.frames[1:]:
            pose = compose(pose, f.odom_delta)
            assert math.hypot(pose.x - f.gt_pose.x, pose.y - f.gt_pose.y) < 1e-9

    def test_alias_corridors_share_template(self):
        ds = synthesize(preset_worlds()["c_hall"], seed=0)
        templates = {}
        for f in ds.frames:
            cid = corridor_of_frame(ds.world, f.gt_pose, f.appearance.place_template)
            templates.setdefault(cid, set()).add(f.appearance.place_template)
        assert templates[0] == templates[2] == {0}

    def test_zero_noise_readings_are_rssi_at(self, tiny_world):
        params = replace(tiny_world.propagation, noise_sigma_db=0.0, visibility_floor_dbm=-30.0)
        walls = (Wall(5.0, -20.0, 5.0, 20.0), Wall(-20.0, 5.0, 20.0, 5.0))
        cfg = replace(tiny_world, tx_power_at_1m=20.0, propagation=params, extra_walls=walls)
        ds = synthesize(cfg, seed=2)
        dwells = generate_trajectory(cfg.trajectory, cfg.template_of).dwells
        assert len(ds.dwell_scans) == len(dwells)
        levels = []
        for d, scans in zip(dwells, ds.dwell_scans):
            for ap in ds.world.aps:
                level = rssi_at(ap, (d.x, d.y), ds.world.plan, params)
                levels.append(level)
                n_readings = 0 if level < params.visibility_floor_dbm else cfg.scans_per_dwell * cfg.bssids_per_ap
                assert [r.rssi for r in scans if r.bssid[:-1] == ap.ap_id[:-1]] == [min(level, 0.0)] * n_readings
        assert min(levels) < params.visibility_floor_dbm < 0.0 < max(levels)  # the floor and the clip both act

    def test_no_reading_below_floor(self, tiny_world):
        floor = tiny_world.propagation.visibility_floor_dbm
        readings = [r for scans in synthesize(tiny_world, seed=4).dwell_scans for r in scans]
        assert readings and min(r.rssi for r in readings) >= floor
        # a floor above every mean level leaves nothing to hear without noise
        params = replace(tiny_world.propagation, noise_sigma_db=0.0, visibility_floor_dbm=tiny_world.tx_power_at_1m + 0.1)
        assert not any(synthesize(replace(tiny_world, propagation=params), seed=4).dwell_scans)

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
            assert ds.frames[b].t - ds.frames[a].t > 30.0

    def test_template_pose_consistent_for_aliases(self):
        ds = synthesize(preset_worlds()["c_hall"], seed=0)
        # two frames at the same corridor arc in aliased corridors map to the
        # same template-local position
        by_corridor = {}
        for f in ds.frames:
            cid = corridor_of_frame(ds.world, f.gt_pose, f.appearance.place_template)
            by_corridor.setdefault(cid, []).append(f)
        f0 = by_corridor[0][3]
        tpl0 = template_pose_of(ds.world, f0.gt_pose, f0.appearance.place_template)
        twin = min(
            by_corridor[2],
            key=lambda f: abs(
                template_pose_of(ds.world, f.gt_pose, f.appearance.place_template).x - tpl0.x
            ),
        )
        tpl2 = template_pose_of(ds.world, twin.gt_pose, twin.appearance.place_template)
        assert abs(tpl0.x - tpl2.x) < 0.5 and abs(tpl0.y - tpl2.y) < 1e-6


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

    def test_dwell_positions_recovered(self, dataset_cache):
        ds = dataset_cache("b_hall", 0)
        pos = dwell_positions(ds)
        assert len(pos) == len(ds.dwell_scans)
        # dwell order follows the path; consecutive dwells are pause_every apart
        d0, d1 = pos[0], pos[1]
        gap = math.hypot(d0[1] - d1[1], d0[2] - d1[2])
        assert gap == pytest.approx(ds.world.config.trajectory.pause_every, abs=1e-6)


class TestSerialization:
    def test_roundtrip_equality(self, tiny_world, tmp_path):
        ds = synthesize(tiny_world, seed=3)
        save_dataset(ds, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert loaded.frames == ds.frames
        assert loaded.gt_loop_pairs == ds.gt_loop_pairs
        assert loaded.dwell_scans == ds.dwell_scans
        assert loaded.world.aps == ds.world.aps
        assert loaded.world.corridors == ds.world.corridors

    def test_byte_identical_rewrites(self, tiny_world, tmp_path):
        ds = synthesize(tiny_world, seed=3)
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        for name in ("frames.csv", "scans.csv", "loops_gt.csv", "world.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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
        assert ds.dwell_scans == (
            (ScanReading(0.5, "AA:BB:CC:DD:EE:F3", -55.5), ScanReading(1.5, "AA:BB:CC:DD:EE:F4", -60.0)),
            (),
            (ScanReading(2.5, "AA:BB:CC:DD:EE:F4", -61.0),),
        )

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
    ], ids=["earlier_timestamp", "empty_words"])
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
