"""The benchmark's workloads: inputs made from a seed, one pass of work, and the
checks that decide whether each operation of the pass produced correct output.

An operation is one sweep cell, one pipeline run or one CLI command. `run`
is the timed pass and only does the program's work; `check` runs after the
clock stops and turns the raw outputs into `Op` outcomes with a digest of
every deterministic output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import traceback
from pathlib import Path

from wifislam import cli, evaluation, gating, simworld
from wifislam.gating import OPT_ITERATION_COST, PolicyParams, RtabParams


@dataclasses.dataclass
class Op:
    """Outcome of one operation."""

    name: str
    frames: int
    problems: list[str]
    digest: str
    quality: dict[str, float]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _file_bytes(*paths: Path) -> bytes:
    return b"".join(p.read_bytes() for p in paths)


def _cli(argv: list[str]) -> int:
    """One CLI command with its stdout swallowed; an exception counts as a failed command."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return -1


def _pipeline(dataset: simworld.Dataset, params: PolicyParams):
    """One pipeline run plus its report row, as a program user would make them."""
    try:
        record = gating.run_pipeline(dataset, params)
        return record, evaluation.report_row(record, dataset)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, None


def _row_without_wall(row: dict[str, str]) -> list[tuple[str, str]]:
    return sorted((k, v) for k, v in row.items() if k != "wall_ms")


def _record_outputs(record: gating.RunRecord) -> tuple:
    """Trajectory, loop events, memory trace and cluster dump of one run."""
    est = [(kf, t, p.x, p.y, p.theta) for kf, t, p in record.est]
    clusters = None
    if record.store is not None:
        clusters = [
            (c.id, c.members, list(c.representative.entries.items()),
             c.representative.collected_at, c.representative.pause_index)
            for c in record.store.clusters
        ]
    return est, record.events, record.memory_trace, clusters


def _pipeline_op(name: str, record, row, cli_row=None) -> Op:
    if record is None:
        return Op(name, 0, ["raised an exception"], "", {})
    problems = []
    if record.subset_violations:
        problems.append(f"subset_violations={record.subset_violations}")
    if record.gating_violations:
        problems.append(f"gating_violations={record.gating_violations}")
    rmse = float(row["rmse_m"])
    if not math.isfinite(rmse):
        problems.append(f"rmse_m={rmse!r}")
    if cli_row is not None and _row_without_wall(cli_row) != _row_without_wall(row):
        problems.append("the CLI's report row differs from one computed from the run record")
    quality = {
        "cost_units": record.loop_cost + record.clustering_cost + record.management_cost
        + record.opt_iterations * OPT_ITERATION_COST,
        "fp_loops": int(row["fp"]),
        "fn_loops": int(row["fn"]),
        "rmse_m": rmse,
    }
    return Op(name, len(record.est), problems, _digest(_row_without_wall(row), _record_outputs(record)), quality)


def _j_hall(laps: float) -> simworld.WorldConfig:
    config = simworld.preset_worlds()["j_hall"]
    return dataclasses.replace(config, trajectory=dataclasses.replace(config.trajectory, laps=laps))


@contextlib.contextmanager
def _record_tap():
    """Collect the RunRecords a CLI command makes and otherwise throws away.

    ``run_pipeline`` is wrapped under both names a caller may look it up by.
    """
    records = []
    saved = [(owner, vars(owner)["run_pipeline"]) for owner in (cli, gating) if "run_pipeline" in vars(owner)]

    def tap(original):
        def wrapper(*args, **kwargs):
            record = original(*args, **kwargs)
            records.append(record)
            return record
        return wrapper

    for owner, original in saved:
        owner.run_pipeline = tap(original)
    try:
        yield records
    finally:
        for owner, original in saved:
            owner.run_pipeline = original


class Workload:
    name = ""
    setup_reps = 1  # set-ups timed before each timed pass; setup_s is their median

    def __init__(self, work: Path) -> None:
        self.work = work
        self.seed = 0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def check(self, raw) -> list[Op]:
        raise NotImplementedError


class LongOrb(Workload):
    """`run_pipeline` plus `report_row` on a long multi-lap j_hall, gated ORB."""

    laps = 3.0

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dataset = simworld.synthesize(_j_hall(self.laps), seed)

    def run(self):
        return [_pipeline(self.dataset, PolicyParams(policy="orb", gated=True, seed=self.seed))]

    def check(self, raw) -> list[Op]:
        return [_pipeline_op("orb-gated", record, row) for record, row in raw]


class RtabBudget(Workload):
    """`wifislam sweep --jobs 1` of the rtab policy, vanilla and gated, under a
    real-time budget and without one, on a dataset written in set-up."""

    laps = 1.0
    gated = (False, True)
    thresholds = ("70", "inf")
    cells = len(gated) * len(thresholds)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dataset = simworld.synthesize(_j_hall(self.laps), seed)
        simworld.save_dataset(self.dataset, self.work / "dataset")
        grid = {"policy": ["rtab"], "gated": self.gated, "real_time_threshold": self.thresholds, "seed": [seed]}
        (self.work / "grid.json").write_text(json.dumps(grid))

    def run(self):
        with _record_tap() as records:
            code = _cli([
                "sweep", "--dataset", str(self.work / "dataset"), "--grid", str(self.work / "grid.json"),
                "--out", str(self.work / "report.csv"), "--jobs", "1",
            ])
        return code, records

    def check(self, raw) -> list[Op]:
        code, records = raw
        report = self.work / "report.csv"
        cli_rows = {evaluation.row_key(r): r for r in evaluation.read_report(report)}
        report.unlink(missing_ok=True)  # the sweep resumes from an existing report
        names = [f"gated={g}/threshold={t}" for g in self.gated for t in self.thresholds]
        if code != 0 or len(records) != self.cells:
            return [Op(n, 0, [f"sweep exit code {code}, {len(records)} cells run"], "", {}) for n in names]
        ops = []
        for name, record in zip(names, records):
            row = evaluation.report_row(record, self.dataset)
            cli_row = cli_rows.get(evaluation.row_key(row))
            op = _pipeline_op(name, record, row, cli_row)
            if cli_row is None:
                op.problems.append("no report row for this cell")
            ops.append(op)
        return ops


class Pipelines(Workload):
    """The long gated ORB run and the rtab budget sweep, one after the other."""

    name = "pipelines"

    def __init__(self, work: Path) -> None:
        super().__init__(work)
        self.parts = (LongOrb(work), RtabBudget(work))

    def setup(self, seed: int) -> None:
        for part in self.parts:
            part.setup(seed)

    def run(self):
        return [part.run() for part in self.parts]

    def check(self, raw) -> list[Op]:
        return [op for part, r in zip(self.parts, raw) for op in part.check(r)]


def _world_json(config: simworld.WorldConfig) -> dict:
    """A world file in the form `wifislam gen --world <file>.json` reads."""
    return {
        "name": config.name,
        "trajectory": dataclasses.asdict(config.trajectory),
        "template_of": {str(k): v for k, v in config.template_of.items()},
        "ap_count": config.ap_count,
        "tx_power_at_1m": config.tx_power_at_1m,
        "propagation": dataclasses.asdict(config.propagation),
        "walls": [dataclasses.astuple(w) for w in config.extra_walls],
        "margin": config.margin,
        "odom_noise": dataclasses.asdict(config.odom_noise),
        "appearance": dataclasses.asdict(config.appearance),
        "scans_per_dwell": config.scans_per_dwell,
        "bssids_per_ap": config.bssids_per_ap,
    }


def _trailer(path: Path, key: str) -> str:
    """The value of the `# key=value` line the CLI appends to its CSV outputs."""
    for line in path.read_text().splitlines():
        if line.startswith(f"# {key}="):
            return line.split("=", 1)[1]
    raise ValueError(f"{path.name} has no {key} line")


class MapLocalize(Workload):
    """`wifislam gen`, `curve` and `localize` from a world file: dataset writes next to reads."""

    name = "map-localize"
    laps = 3.0
    setup_reps = 20  # writing one small file; many repeats keep its median steady

    def setup(self, seed: int) -> None:
        self.seed = seed
        with open(self.work / "world.json", "w") as fh:
            json.dump(_world_json(_j_hall(self.laps)), fh, indent=1, sort_keys=True)

    def run(self):
        data, w = str(self.work / "dataset"), self.work
        return [
            _cli(["gen", "--world", str(w / "world.json"), "--seed", str(self.seed), "--out", data]),
            _cli(["curve", "--dataset", data, "--out", str(w / "curve.csv")]),
            _cli(["localize", "--dataset", data, "--out", str(w / "cdf.csv")]),
        ]

    def check(self, raw) -> list[Op]:
        gen_code, curve_code, loc_code = raw
        data = self.work / "dataset"
        files = [data / n for n in ("frames.csv", "scans.csv", "loops_gt.csv", "world.json")]
        frames = 0
        ops = []
        if gen_code == 0:
            frames = files[0].read_text().count("\n") - 1  # less the header line
            ops.append(Op("gen", frames, [], _digest(_file_bytes(*files)), {}))
        else:
            ops.append(Op("gen", 0, [f"exit code {gen_code}"], "", {}))

        curve = self.work / "curve.csv"
        if curve_code == 0:
            rho = float(_trailer(curve, "spearman_rho"))
            problems = [] if math.isfinite(rho) else [f"spearman_rho={rho!r}"]
            ops.append(Op("curve", frames, problems, _digest(_file_bytes(curve)), {}))
        else:
            ops.append(Op("curve", 0, [f"exit code {curve_code}"], "", {}))

        cdf = self.work / "cdf.csv"
        if loc_code == 0:
            rows = [line.split(",") for line in cdf.read_text().splitlines()[1:] if not line.startswith("#")]
            within = max((float(f) for e, f in rows if float(e) <= 4.0), default=0.0)
            quality = {"loc_within_4m": within, "localize_fallbacks": int(_trailer(cdf, "fallback_queries"))}
            problems = [] if 0.0 <= within <= 1.0 and rows else ["empty or malformed CDF"]
            ops.append(Op("localize", frames, problems, _digest(_file_bytes(cdf)), quality))
        else:
            ops.append(Op("localize", 0, [f"exit code {loc_code}"], "", {}))
        for p in (curve, cdf):
            p.unlink(missing_ok=True)
        return ops


WORKLOADS = {w.name: w for w in (Pipelines, MapLocalize)}
