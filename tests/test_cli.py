from __future__ import annotations

import json
import csv
import shutil
import subprocess
import sys
import time

import pytest

from wifislam import cli, evaluation, simworld
from wifislam.cli import main
from wifislam.gating import PolicyParams, run_pipeline


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "b0"
    code = run_cli("gen", "--world", "b_hall", "--seed", "0", "--out", out)
    assert code == 0
    return out


WORLD = '{"name": "w", "trajectory": {"shape": "square_loop", "scale": 5.0}, "template_of": {}, "ap_count": 4}'
BAD_WORLD_SETTINGS = {  # test id -> (world-file setting, message)
    "ap_count_str": ('"ap_count": "x"', "{world}: ap_count must be int, got 'x'"),
    "scans_per_dwell_float": ('"scans_per_dwell": 2.5', "{world}: scans_per_dwell must be int, got 2.5"),
    "bssids_per_ap_str": ('"bssids_per_ap": "2"', "{world}: bssids_per_ap must be int, got '2'"),
    "bssids_per_ap_16": ('"bssids_per_ap": 16', "{world}: bssids_per_ap must be at most 15, got 16"),
    "tx_power_str": ('"tx_power_at_1m": "loud"', "{world}: tx_power_at_1m must be float, got 'loud'"),
    "margin_null": ('"margin": null', "{world}: margin must be float, got None"),
    "window_bins_str": ('"appearance": {"window_bins": "x"}', "{world}: window_bins must be int, got 'x'"),
    "sigma_xy_str": ('"odom_noise": {"sigma_xy_per_m": "x"}', "{world}: sigma_xy_per_m must be float, got 'x'"),
    "visibility_floor_str": ('"propagation": {"visibility_floor_dbm": "x"}',
                             "{world}: visibility_floor_dbm must be float, got 'x'"),
    "template_str": ('"template_of": {"0": "a"}', "{world}: template_of values must be int, got 'a'"),
    "bin_meters_0": ('"appearance": {"bin_meters": 0}', "{world}: bin_meters must be positive, got 0"),
    "noise_nan": ('"propagation": {"noise_sigma_db": NaN}', "{world}: noise_sigma_db must not be NaN"),
    "sigma_xy_inf": ('"odom_noise": {"sigma_xy_per_m": Infinity}', "{world}: sigma_xy_per_m must be finite, got inf"),
    "wall_inf": ('"walls": [[0, 0, 1, Infinity]]', "{world}: y2 must be finite, got inf"),
    "no_words": ('"appearance": {"unique_words_per_bin": 0, "alias_words_per_bin": 0, "jitter_words": 0}',
                 "{world}: the appearance word counts are all 0"),
    # settings past a field width of the word ids, which would make unrelated frames share words
    "jitter_words_65": ('"appearance": {"jitter_words": 65}', "{world}: jitter_words must be at most 64, got 65"),
    "unique_words_257": ('"appearance": {"unique_words_per_bin": 257}',
                         "{world}: unique_words_per_bin must be at most 256, got 257"),
    "alias_words_257": ('"appearance": {"alias_words_per_bin": 257}',
                        "{world}: alias_words_per_bin must be at most 256, got 257"),
    "template_512": ('"template_of": {"0": 512}', "{world}: template_of values must be in 0..511, got 512"),
    "template_negative": ('"template_of": {"0": -1}', "{world}: template_of values must be in 0..511, got -1"),
    "corridor_bins_2500": ('"appearance": {"bin_meters": 0.002}',
                           "{world}: bin_meters 0.002 gives a corridor 2500 word bins; at most 2048 fit"),
}


class TestGen:
    def test_writes_dataset_files(self, gen_dir):
        for name in ("frames.csv", "scans.csv", "loops_gt.csv", "world.json"):
            assert (gen_dir / name).exists()

    def test_deterministic_regen(self, gen_dir, tmp_path):
        out2 = tmp_path / "again"
        assert run_cli("gen", "--world", "b_hall", "--seed", "0", "--out", out2) == 0
        for name in ("frames.csv", "scans.csv", "loops_gt.csv", "world.json"):
            assert (gen_dir / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_preset_exit_2_lists_presets(self, tmp_path, capsys):
        code = run_cli("gen", "--world", "nope", "--seed", "0", "--out", tmp_path / "x")
        assert code == 2
        err = capsys.readouterr().err
        for name in ("a_hall", "b_hall", "c_hall", "j_hall"):
            assert name in err

    def test_gen_from_world_json_path(self, gen_dir, tmp_path):
        out = tmp_path / "from_json"
        code = run_cli("gen", "--world", gen_dir / "world.json", "--seed", "0", "--out", out)
        assert code == 0
        for name in ("frames.csv", "scans.csv", "loops_gt.csv", "world.json"):
            assert (gen_dir / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize("text, reason", [
        ('{"name": "w", "trajectory": {"shape": "square_loop", "scale": 5.0}, "template_of": {}}',
         "missing key 'ap_count'"),
        ("{not json", "bad JSON"),
        ("[1, 2]", "expected a JSON object"),
        ('{"name": "w", "trajectory": {"shape": "hexagon", "scale": 5.0}, "template_of": {}, "ap_count": 4}',
         "{world}: unknown trajectory shape 'hexagon'"),
        *((WORLD[:-1] + f", {setting}}}", reason) for setting, reason in BAD_WORLD_SETTINGS.values()),
    ], ids=["missing_key", "bad_json", "not_object", "unknown_shape", *BAD_WORLD_SETTINGS])
    def test_bad_world_file_exit_2(self, tmp_path, capsys, text, reason):
        world = tmp_path / "w.json"
        world.write_text(text)
        assert run_cli("gen", "--world", world, "--seed", "0", "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert reason.format(world=world) in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_endless_path_exit_2_at_once(self, tmp_path, capsys):
        """A path too long for the word ids is refused from its lap length, before any route is built."""
        world = tmp_path / "w.json"
        world.write_text(WORLD.replace('"scale": 5.0', '"scale": 5.0, "laps": 1e12'))
        t0 = time.perf_counter()
        assert run_cli("gen", "--world", world, "--seed", "0", "--out", tmp_path / "x") == 2
        assert time.perf_counter() - t0 < 1.0
        assert f"{world}: the trajectory (1000000000000.0 laps) may have up to " in capsys.readouterr().err


    def test_many_laps_of_a_short_path_exit_2_at_once(self, tmp_path, capsys, monkeypatch):
        """A path of few frames but billions of laps is refused from its lap count, before any route is built."""
        monkeypatch.setattr(simworld, "synthesize", lambda *args: pytest.fail("synthesized a refused world"))
        world = tmp_path / "w.json"
        world.write_text(WORLD.replace('"scale": 5.0', '"scale": 1e-6, "laps": 1e9'))
        t0 = time.perf_counter()
        assert run_cli("gen", "--world", world, "--seed", "0", "--out", tmp_path / "x") == 2
        assert time.perf_counter() - t0 < 1.0
        assert f"{world}: the trajectory (1000000000.0 laps) has up to 4000000000 route legs; at most 4194304 " \
               "are built" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestRun:
    def test_run_writes_artifacts_and_honors_flags(self, gen_dir, tmp_path):
        out = tmp_path / "run1"
        code = run_cli(
            "run", "--dataset", gen_dir, "--out", out,
            "--policy", "rgbd", "--gated", "false", "--min-matches", "15", "--seed", "3",
            "--wifi-threshold", "0.8",
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "report_row.csv")))
        assert rows[0]["policy"] == "rgbd" and rows[0]["gated"] == "false"
        assert rows[0]["min_matches"] == "15" and rows[0]["seed"] == "3"
        assert rows[0]["wifi_threshold"] == "0.8"
        assert sorted(p.name for p in out.iterdir()) == [
            "cluster_representatives.jsonl", "config.json", "frame_trace.csv", "report_row.csv",
            "timings.json", "trajectory_est.csv", "trajectory_gt.csv",
        ]

    def test_missing_dataset_exit_3(self, tmp_path):
        assert run_cli("run", "--dataset", tmp_path / "absent", "--out", tmp_path / "o") == 3

    def test_config_file_with_flag_override(self, gen_dir, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"policy": "rtab", "gated": True, "min_matches": 10,
                                    "rtab": {"real_time_threshold": "inf"}}))
        out = tmp_path / "run2"
        code = run_cli("run", "--dataset", gen_dir, "--out", out, "--config", cfgf, "--min-matches", "25")
        assert code == 0
        rows = list(csv.DictReader(open(out / "report_row.csv")))
        assert rows[0]["policy"] == "rtab" and rows[0]["min_matches"] == "25"
        assert rows[0]["real_time_threshold"] == "inf"

    def test_top_level_real_time_threshold_matches_nested(self, gen_dir, tmp_path):
        rows = []
        for k, cfg in enumerate(({"policy": "rtab", "real_time_threshold": 70},
                                 {"policy": "rtab", "rtab": {"real_time_threshold": 70}})):
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            assert run_cli("run", "--dataset", gen_dir, "--out", tmp_path / f"r{k}", "--config", tmp_path / "cfg.json") == 0
            (row,) = evaluation.read_report(tmp_path / f"r{k}" / "report_row.csv")
            rows.append({c: v for c, v in row.items() if c != "wall_ms"})
        assert rows[0] == rows[1] and rows[0]["real_time_threshold"] == "70.0"

    @pytest.mark.parametrize("key, value, named", [
        ("loop_gap_s", 30.0, "loop_gap_s"),  # settings that became constants, at their old defaults
        ("opt_every", 25, "opt_every"),
        ("rtab", {"real_time_threshold": "fast"}, "fast"),
        ("rgbd", [1], "bad run configuration"),
        ("gated", "false", "gated must be bool, got 'false'"),  # wrong-typed settings
        ("seed", "1", "seed must be int, got '1'"),
        ("min_matches", 2.5, "min_matches must be int, got 2.5"),
        ("wifi_threshold", "0.9", "wifi_threshold must be float, got '0.9'"),
        ("rtab", {"real_time_threshold": True}, "real_time_threshold must be float, got True"),
        ("seed", -1, "seed must be >= 0"),  # numpy's generators take no negative seed
    ])
    def test_bad_config_value_exit_2(self, gen_dir, tmp_path, capsys, key, value, named):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({key: value}))
        code = run_cli("run", "--dataset", gen_dir, "--out", tmp_path / "o", "--config", cfgf)
        assert code == 2
        err = capsys.readouterr().err
        assert "bad run configuration" in err and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, name", [
        ("--wifi-threshold", "wifi_threshold"), ("--real-time-threshold", "real_time_threshold"),
    ])
    def test_nan_setting_flag_exit_2(self, gen_dir, tmp_path, capsys, flag, name):
        code = run_cli("run", "--dataset", gen_dir, "--out", tmp_path / "o", flag, "nan")
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad run configuration: {name} must not be NaN" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"], ids=["missing", "bad_json", "not_object"])
    def test_bad_config_file_exit_2(self, gen_dir, tmp_path, capsys, text):
        cfgf = tmp_path / "cfg.json"
        if text is not None:
            cfgf.write_text(text)
        code = run_cli("run", "--dataset", gen_dir, "--out", tmp_path / "o", "--config", cfgf)
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad run configuration {cfgf}" in err
        assert not (tmp_path / "o").exists()


class TestSweep:
    def test_grid_cardinality_and_resume(self, gen_dir, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "policy": ["orb"],
            "gated": [True, False],
            "min_matches": [10, 15, 20, 50, 100],
            "seed": [0],
        }))
        report = tmp_path / "report.csv"
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", grid, "--out", report, "--jobs", "2") == 0
        rows = list(csv.DictReader(open(report)))
        assert len(rows) == 10

        # delete one row; only that cell is recomputed
        kept = [r for r in rows if not (r["gated"] == "true" and r["min_matches"] == "15")]
        with open(report, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=rows[0].keys())
            w.writeheader()
            w.writerows(kept)
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", grid, "--out", report, "--jobs", "1") == 0
        rows2 = list(csv.DictReader(open(report)))
        assert len(rows2) == 10
        reused = {(r["gated"], r["min_matches"]): r["wall_ms"] for r in kept}
        for r in rows2:
            key = (r["gated"], r["min_matches"])
            if key in reused:
                assert r["wall_ms"] == reused[key], "existing cells must not be recomputed"

    def test_rtab_threshold_grid(self, gen_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "policy": ["rtab"],
            "gated": [False],
            "real_time_threshold": ["inf", 70, 100, 200],
            "seed": [0],
        }))
        report = tmp_path / "rtab.csv"
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", grid, "--out", report, "--jobs", "2") == 0
        rows = list(csv.DictReader(open(report)))
        assert sorted(r["real_time_threshold"] for r in rows) == sorted(["inf", "70.0", "100.0", "200.0"])

        # every row is found again under the key the sweep computes for its cell
        capsys.readouterr()
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", grid, "--out", report, "--jobs", "1") == 0
        assert "(0 computed, 4 reused)" in capsys.readouterr().out

    def test_jobs_1_loads_dataset_once(self, gen_dir, tmp_path, monkeypatch):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"policy": ["rtab"], "gated": [False, True], "seed": [0]}))
        load = simworld.load_dataset
        loads = []
        monkeypatch.setattr(simworld, "load_dataset", lambda path: loads.append(path) or load(path))
        report = tmp_path / "report.csv"
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", grid, "--out", report, "--jobs", "1") == 0
        assert len(loads) == 1

        rows = evaluation.read_report(report)
        assert [r["gated"] for r in rows] == ["false", "true"]
        for row in rows:
            dataset = load(gen_dir)
            record = run_pipeline(dataset, PolicyParams(policy="rtab", gated=row["gated"] == "true", seed=0))
            expected = evaluation.report_row(record, dataset)
            assert {k: v for k, v in row.items() if k != "wall_ms"} == {
                k: v for k, v in expected.items() if k != "wall_ms"
            }

    def test_jobs_1_rows_equal_run_config_rows(self, gen_dir, tmp_path):
        grid = {"policy": ["orb", "rtab"], "gated": [True, False], "seed": [0]}
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        report = tmp_path / "report.csv"
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", tmp_path / "grid.json", "--out", report, "--jobs", "1") == 0
        rows = evaluation.read_report(report)
        assert len(rows) == 4
        for k, swept in enumerate(rows):
            cfg = tmp_path / f"cfg{k}.json"
            cfg.write_text(json.dumps({"policy": swept["policy"], "gated": swept["gated"] == "true", "seed": 0}))
            assert run_cli("run", "--dataset", gen_dir, "--out", tmp_path / f"run{k}", "--config", cfg) == 0
            (ran,) = evaluation.read_report(tmp_path / f"run{k}" / "report_row.csv")
            assert {c: v for c, v in swept.items() if c != "wall_ms"} == {c: v for c, v in ran.items() if c != "wall_ms"}

    def test_one_pending_cell_runs_in_process(self, gen_dir, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep with one pending cell started a worker pool")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        (tmp_path / "grid.json").write_text(json.dumps({"policy": "rtab", "gated": False, "seed": 0}))
        report = tmp_path / "report.csv"
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", tmp_path / "grid.json", "--out", report, "--jobs", "4") == 0
        assert len(evaluation.read_report(report)) == 1

    def test_workers_at_most_pending_cells(self, gen_dir, tmp_path, monkeypatch):
        started = []

        class InlinePool:  # runs the cells in this process, as a pool of max_workers would
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_worker_dataset", None)  # restored after the in-process initializer sets it
        (tmp_path / "grid.json").write_text(json.dumps({"policy": "rtab", "gated": [False, True], "seed": 0}))
        report = tmp_path / "report.csv"
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", tmp_path / "grid.json", "--out", report, "--jobs", "4") == 0
        assert started == [2]
        assert len(evaluation.read_report(report)) == 2

    def test_nested_object_axis_matches_run_config(self, gen_dir, tmp_path):
        cell = {"policy": "rtab", "gated": False, "seed": 0, "rtab": {"real_time_threshold": 70}}
        for name in ("grid.json", "cfg.json"):  # a grid value that is not a list is a one-point axis
            (tmp_path / name).write_text(json.dumps(cell))
        report = tmp_path / "report.csv"
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", tmp_path / "grid.json", "--out", report, "--jobs", "2") == 0
        assert run_cli("run", "--dataset", gen_dir, "--out", tmp_path / "run", "--config", tmp_path / "cfg.json") == 0
        (swept,) = evaluation.read_report(report)
        (ran,) = evaluation.read_report(tmp_path / "run" / "report_row.csv")
        assert {k: v for k, v in swept.items() if k != "wall_ms"} == {k: v for k, v in ran.items() if k != "wall_ms"}

    def test_resume_recomputes_a_cell_whose_nested_setting_differs(self, gen_dir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        for threshold in ("inf", 70):
            (tmp_path / "grid.json").write_text(json.dumps(
                {"policy": "rtab", "gated": False, "seed": 0, "rtab": {"real_time_threshold": threshold}}))
            assert run_cli("sweep", "--dataset", gen_dir, "--grid", tmp_path / "grid.json", "--out", report,
                           "--jobs", "1") == 0
            assert "(1 computed, 0 reused)" in capsys.readouterr().out
        rows = evaluation.read_report(report)
        assert [r["real_time_threshold"] for r in rows] == ["70.0", "inf"]
        assert rows[0]["loop_cost"] != rows[1]["loop_cost"]

    def test_reused_counts_only_cells_of_the_grid(self, gen_dir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        for seeds, expected in (([0, 1], "2 rows (2 computed, 0 reused)"), ([1, 2], "3 rows (1 computed, 1 reused)")):
            (tmp_path / "grid.json").write_text(json.dumps({"policy": "rtab", "gated": False, "seed": seeds}))
            assert run_cli("sweep", "--dataset", gen_dir, "--grid", tmp_path / "grid.json", "--out", report,
                           "--jobs", "1") == 0
            assert expected in capsys.readouterr().out  # the seed-0 row is kept but is no cell of the second grid
        assert [r["seed"] for r in evaluation.read_report(report)] == ["0", "1", "2"]

    def test_nested_axis_values_get_their_own_rows(self, gen_dir, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"policy": ["rtab"], "gated": [True], "seed": [0],
                                    "rtab": [{"real_time_threshold": 70}, {"real_time_threshold": 100}]}))
        report = tmp_path / "report.csv"
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", grid, "--out", report, "--jobs", "2") == 0
        rows = evaluation.read_report(report)
        assert sorted(r["real_time_threshold"] for r in rows) == ["100.0", "70.0"]
        assert len({evaluation.row_key(r) for r in rows}) == 2

    @pytest.mark.parametrize("key, value", [("rtab", "fast")])
    def test_non_object_nested_axis_exit_2(self, gen_dir, tmp_path, capsys, key, value):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"policy": ["rgbd"], key: [value]}))
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", grid, "--out", tmp_path / "r.csv", "--jobs", "1") == 2
        err = capsys.readouterr().err
        assert "bad grid cell" in err and f"{key} must be a JSON object" in err and "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_wrong_typed_axis_value_exit_2(self, gen_dir, tmp_path, capsys):
        # "false" would otherwise run a gated cell under the same report key as the vanilla one
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"policy": ["orb"], "gated": [False, "false"], "seed": [0]}))
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", grid, "--out", tmp_path / "r.csv", "--jobs", "1") == 2
        err = capsys.readouterr().err
        assert "bad grid cell" in err and "gated must be bool, got 'false'" in err and "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_equal_cells_run_once(self, gen_dir, tmp_path, capsys):
        # four combinations, one setting: the seeds are equal and so are the two spellings of infinity
        (tmp_path / "grid.json").write_text(json.dumps(
            {"policy": ["rtab"], "gated": [False], "seed": [0, 0], "real_time_threshold": ["inf", "Infinity"]}))
        report = tmp_path / "report.csv"
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", tmp_path / "grid.json", "--out", report,
                       "--jobs", "1") == 0
        assert "1 rows (1 computed, 0 reused)" in capsys.readouterr().out
        assert len(evaluation.read_report(report)) == 1

    def test_empty_axis_exit_2(self, gen_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"policy": ["orb"], "gated": [True, False], "seed": []}))
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", grid, "--out", tmp_path / "r.csv", "--jobs", "1") == 2
        err = capsys.readouterr().err
        assert "grid axis 'seed' has no values" in err and "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_malformed_grid_exit_2(self, gen_dir, tmp_path):
        grid = tmp_path / "bad.json"
        grid.write_text("{not json")
        assert run_cli("sweep", "--dataset", gen_dir, "--grid", grid, "--out", tmp_path / "r.csv") == 2


class TestCurveAndLocalize:
    def test_curve_footer_metadata(self, gen_dir, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli("curve", "--dataset", gen_dir, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "distance_m,similarity"
        assert lines[-1].startswith("# spearman_rho=")
        rho = float(lines[-1].split("=")[1])
        assert rho < -0.3

    def test_localize_split_ratio(self, gen_dir, tmp_path, capsys):
        out = tmp_path / "cdf.csv"
        assert run_cli("localize", "--dataset", gen_dir, "--out", out, "--split", "0.4") == 0
        msg = capsys.readouterr().out
        assert "map=" in msg and "query=" in msg
        n_map = int(msg.split("map=")[1].split()[0])
        n_query = int(msg.split("query=")[1].split()[0])
        assert abs(n_map / (n_map + n_query) - 0.4) < 0.01

    @pytest.mark.parametrize("split", ["1.5", "1", "0", "-0.2", "nan"])
    def test_localize_bad_split_exit_2(self, gen_dir, tmp_path, capsys, split):
        with pytest.raises(SystemExit) as exc:
            run_cli("localize", "--dataset", gen_dir, "--out", tmp_path / "c.csv", "--split", split)
        assert exc.value.code == 2
        assert "argument --split: expected a fraction in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_localize_empty_dataset_exit_3(self, tmp_path):
        assert run_cli("localize", "--dataset", tmp_path / "absent", "--out", tmp_path / "c.csv") == 3


def run_on_dataset(command, dataset, tmp_path):
    """Run `run`, `curve`, `localize` or a one-cell `sweep` on a dataset; returns the exit code."""
    if command == "sweep":
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"policy": ["orb"], "seed": [0]}))
        return run_cli("sweep", "--dataset", dataset, "--grid", grid, "--out", tmp_path / "r.csv", "--jobs", "1")
    return run_cli(command, "--dataset", dataset, "--out", tmp_path / "o")


DIFFERS = "differs from the dataset world.json's config and seed derive"


def _broken_dataset(gen_dir, root, fault):
    """A copy of the dataset with one fault; returns its path and the text stderr must show."""
    d = root / "broken"
    if fault == "absent_dir":
        return d, f"{d / 'world.json'}: "
    shutil.copytree(gen_dir, d)
    if fault == "missing_key":
        wj = json.loads((d / "world.json").read_text())
        del wj["aps"]
        (d / "world.json").write_text(json.dumps(wj))
        return d, f"{d / 'world.json'}: missing key 'aps'"
    world_edits = {  # a key that follows from the config and the seed, edited out of step with them
        "corridor_template_string": ("corridors", lambda wj: wj["corridors"][0].__setitem__("template", "0")),
        "moved_ap": ("aps", lambda wj: wj["aps"][3].__setitem__("x", wj["aps"][3]["x"] + 1.0)),
    }
    if fault == "endless_path":  # a setting edited to a path too long for the word ids
        wj = json.loads((d / "world.json").read_text())
        wj["trajectory"]["laps"] = 1e12
        (d / "world.json").write_text(json.dumps(wj))
        return d, f"{d / 'world.json'}: the trajectory (1000000000000.0 laps) may have up to "
    if fault == "edited_setting":  # noisier odometry and readings than the files were written with
        wj = json.loads((d / "world.json").read_text())
        wj["odom_noise"]["sigma_xy_per_m"], wj["propagation"]["noise_sigma_db"] = 0.5, 9.0
        (d / "world.json").write_text(json.dumps(wj))
        return d, f"{d / 'world.json'}: the settings differ from those the dataset was saved with"
    if fault in world_edits:
        key, edit = world_edits[fault]
        wj = json.loads((d / "world.json").read_text())
        edit(wj)
        (d / "world.json").write_text(json.dumps(wj))
        return d, f"{d / 'world.json'}: {key!r} differs from the world its config and seed derive"
    if fault == "unsorted_dwells":  # dwell 1 scanned 1000 s earlier, before dwell 0
        lines = (d / "scans.csv").read_text().split("\n")
        moved = [k for k, line in enumerate(lines) if k and line.split(",")[-1] == "1"]
        for k in moved:
            t, *rest = lines[k].split(",")
            lines[k] = ",".join([repr(float(t) - 1000.0), *rest])
        (d / "scans.csv").write_text("\n".join(lines))
        return d, f"{d / 'scans.csv'}:{moved[0] + 1}: {DIFFERS}"
    if fault == "unsorted_frames":  # frames 0 and 1 swap rows
        lines = (d / "frames.csv").read_text().split("\n")
        lines[1], lines[2] = lines[2], lines[1]
        (d / "frames.csv").write_text("\n".join(lines))
        return d, f"{d / 'frames.csv'}:2: {DIFFERS}"
    scan_faults = {  # on a middle row; fault -> (field, value)
        "bad_bssid": (1, "ZZ:00:00:00:00:01"),
        "positive_rssi": (2, "5.0"),
        "nan_rssi": (2, "nan"),
        "inf_timestamp": (0, "inf"),
    }
    if fault in scan_faults:
        field, value = scan_faults[fault]
        lines = (d / "scans.csv").read_text().split("\n")
        k = len(lines) // 2
        row = lines[k].split(",")
        row[field] = value
        lines[k] = ",".join(row)
        (d / "scans.csv").write_text("\n".join(lines))
        return d, f"{d / 'scans.csv'}:{k + 1}: {DIFFERS}"
    name, edit = {
        "nan_odometry": ("frames.csv", lambda row: [*row[:5], "nan", *row[6:]]),
        "non_numeric_id": ("frames.csv", lambda row: ["x", *row[1:]]),
        "extra_field": ("frames.csv", lambda row: [*row, "7"]),
        "reversed_loop_pair": ("loops_gt.csv", lambda row: row[::-1]),
    }[fault]
    lines = (d / name).read_text().split("\n")
    lines[1] = ",".join(edit(lines[1].split(",")))
    (d / name).write_text("\n".join(lines))
    return d, f"{d / name}:2: {DIFFERS}"


@pytest.mark.parametrize("command", ["run", "curve", "localize", "sweep"])
@pytest.mark.parametrize(
    "fault",
    ["bad_bssid", "positive_rssi", "non_numeric_id", "extra_field", "missing_key", "absent_dir", "unsorted_dwells",
     "unsorted_frames", "nan_odometry", "nan_rssi", "inf_timestamp", "reversed_loop_pair", "corridor_template_string",
     "moved_ap", "endless_path", "edited_setting"],
)
def test_data_fault_exit_3(gen_dir, tmp_path, capsys, fault, command):
    dataset, named = _broken_dataset(gen_dir, tmp_path, fault)
    assert run_on_dataset(command, dataset, tmp_path) == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("word", ["-5", "99999999999999999999999", "1_0", "٣"])
def test_word_outside_the_domain_exit_3(gen_dir, tmp_path, capsys, word):
    """int() accepts each of these words, and no dataset holds them."""
    dataset = shutil.copytree(gen_dir, tmp_path / "d")
    path = dataset / "frames.csv"
    lines = path.read_text().split("\n")
    lines[1] += "|" + word
    path.write_text("\n".join(lines), encoding="utf-8")
    assert run_on_dataset("localize", dataset, tmp_path) == 3
    err = capsys.readouterr().err
    assert f"{path}:2: {DIFFERS}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "curve", "localize", "sweep"])
def test_no_signatures_exit_3(gen_dir, tmp_path, capsys, command):
    """A dataset whose visibility floor no reading reaches holds no reading, so no signature."""
    world = tmp_path / "silent.json"
    wj = json.loads((gen_dir / "world.json").read_text())
    wj["propagation"]["visibility_floor_dbm"] = 100.0
    world.write_text(json.dumps(wj))
    dataset = tmp_path / "no_scans"
    assert run_cli("gen", "--world", world, "--seed", "0", "--out", dataset) == 0
    assert (dataset / "scans.csv").read_text() == simworld.SCANS_HEADER + "\n"
    assert run_on_dataset(command, dataset, tmp_path) == 3
    assert "signatures" in capsys.readouterr().err


COMMAND_INPUTS = {
    "gen": ["--world", "b_hall", "--seed", "0"],
    "run": ["--dataset", "{dataset}"],
    "sweep": ["--dataset", "{dataset}", "--grid", "{grid}", "--jobs", "1"],
    "curve": ["--dataset", "{dataset}"],
    "localize": ["--dataset", "{dataset}"],
    "report": ["--runs", "{dataset}"],
}
FILE_OUT_COMMANDS = ["sweep", "curve", "localize", "report"]  # gen and run make their --out directory


@pytest.mark.parametrize("command, where", [
    *((c, "under_file") for c in COMMAND_INPUTS), *((c, "missing_dir") for c in FILE_OUT_COMMANDS)
])
def test_unwritable_out_exit_2(gen_dir, tmp_path, capsys, monkeypatch, command, where):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(simworld, "synthesize", no_work)
    monkeypatch.setattr(simworld, "load_dataset", no_work)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"policy": ["orb"]}))
    (tmp_path / "file").write_text("")
    out = tmp_path / ("file" if where == "under_file" else "missing") / "o"
    inputs = [a.format(dataset=gen_dir, grid=grid) for a in COMMAND_INPUTS[command]]
    assert run_cli(command, *inputs, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write --out {out}: " in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag, value", [
    ("localize", "--wifi-threshold", "0"),
    ("localize", "--wifi-threshold", "1.5"),
    ("localize", "--wifi-threshold", "nan"),
    ("sweep", "--jobs", "-1"),
    ("gen", "--seed", "-1"),  # numpy's generators take no negative seed
])
def test_bad_flag_value_exit_2(gen_dir, tmp_path, capsys, monkeypatch, command, flag, value):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(simworld, "load_dataset", no_work)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"policy": ["orb"]}))
    inputs = [a.format(dataset=gen_dir, grid=grid) for a in COMMAND_INPUTS[command]]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *inputs, "--out", tmp_path / "o", flag, value)
    assert exc.value.code == 2
    assert f"argument {flag}: expected " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_report_consolidation(gen_dir, tmp_path):
    for k, policy in enumerate(("orb", "rgbd")):
        assert run_cli("run", "--dataset", gen_dir, "--out", tmp_path / f"r{k}",
                       "--policy", policy, "--gated", "true", "--seed", "0") == 0
    out = tmp_path / "all.csv"
    assert run_cli("report", "--runs", tmp_path, "--out", out) == 0
    rows = list(csv.DictReader(open(out)))
    assert sorted(r["policy"] for r in rows) == ["orb", "rgbd"]


@pytest.mark.parametrize("bad, problem", [("absent", "no such directory"), ("a_file", "not a directory")])
def test_report_unreadable_runs_exit_2(gen_dir, tmp_path, capsys, bad, problem):
    assert run_cli("run", "--dataset", gen_dir, "--out", tmp_path / "r0", "--policy", "orb", "--seed", "0") == 0
    (tmp_path / "a_file").write_text("")
    out = tmp_path / "all.csv"
    assert run_cli("report", "--runs", tmp_path / "r0", tmp_path / bad, "--out", out) == 2
    assert f"error: cannot read --runs {tmp_path / bad}: {problem}" in capsys.readouterr().err
    assert not out.exists()


REMOVED_SETTINGS = {  # test id -> (run settings, the key path the error names); each is now a module constant
    "inlier_distance": ({"inlier_distance": 3.0}, "inlier_distance"),
    "rgbd": ({"rgbd": {"n_random_keyframes": 8}}, "rgbd"),
    "stm_capacity": ({"rtab": {"stm_capacity": 15}}, "rtab.stm_capacity"),
    "wm_transfer_batch": ({"rtab": {"wm_transfer_batch": 10}}, "rtab.wm_transfer_batch"),
}
REMOVED_COLUMNS = ["inlier_distance", "n_predecessors", "geodesic_depth", "n_random_keyframes", "stm_capacity",
                   "wm_transfer_batch"]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("setting", REMOVED_SETTINGS)
def test_removed_setting_exit_2(gen_dir, tmp_path, capsys, command, setting):
    config, named = REMOVED_SETTINGS[setting]
    out = tmp_path / "o"
    if command == "run":
        (tmp_path / "cfg.json").write_text(json.dumps({"policy": "rgbd", **config}))
        code = run_cli("run", "--dataset", gen_dir, "--out", out, "--config", tmp_path / "cfg.json")
    else:
        (tmp_path / "grid.json").write_text(json.dumps({"policy": ["rgbd"], **{k: [v] for k, v in config.items()}}))
        code = run_cli("sweep", "--dataset", gen_dir, "--grid", tmp_path / "grid.json", "--out", out, "--jobs", "1")
    assert code == 2
    err = capsys.readouterr().err
    problem = "bad run configuration" if command == "run" else "bad grid cell"
    assert problem in err and f"unknown setting {named}; settings are " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "sweep"])
@pytest.mark.parametrize("fault", ["old_header", "short_row", "removed_columns", "repeated_column"])
def test_malformed_report_exit_3(gen_dir, tmp_path, capsys, command, fault):
    bad = tmp_path / "runs" / "r0" / "report_row.csv"
    bad.parent.mkdir(parents=True)
    if fault == "old_header":
        bad.write_text("dataset,policy\nb_hall,orb\n")
        named = f"{bad}:1: report header: missing columns ['gated', "
    elif fault == "removed_columns":  # a report written when the six constants were still run settings
        header = [*evaluation.KEY_COLUMNS, *REMOVED_COLUMNS, *evaluation.REPORT_COLUMNS[len(evaluation.KEY_COLUMNS):]]
        bad.write_text(",".join(header) + "\n")
        named = f"{bad}:1: report header: missing columns [], unknown columns {REMOVED_COLUMNS}"
    elif fault == "repeated_column":  # a row that would silently keep its later fp value
        header = [*evaluation.REPORT_COLUMNS, "fp"]
        bad.write_text(",".join(header) + "\n" + ",".join(["1"] * len(header)) + "\n")
        named = f"{bad}:1: report header: missing columns [], unknown columns [], repeated columns ['fp']"
    else:
        bad.write_text(",".join(evaluation.REPORT_COLUMNS) + "\nb_hall,orb\n")
        named = f"{bad}:2: 2 fields"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"policy": ["orb"], "seed": [0]}))
    if command == "report":
        code = run_cli("report", "--runs", tmp_path / "runs", "--out", tmp_path / "all.csv")
    else:
        code = run_cli("sweep", "--dataset", gen_dir, "--grid", grid, "--out", bad, "--jobs", "1")
    assert code == 3
    err = capsys.readouterr().err
    assert f"error: bad report: {named}" in err and "Traceback" not in err


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wifislam.cli", "gen", "--world", "nope", "--seed", "1", "--out", "/tmp/x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
