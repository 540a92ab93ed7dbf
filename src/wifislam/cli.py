"""Experiment runner: dataset generation, single runs, parameter sweeps,
similarity curves, and localization CDFs.

Exit codes: 0 success, 2 usage/config error (including a flag value out of
range and an --out path that cannot be written, both found before any work),
3 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

from . import evaluation, gating, simworld
from .gating import PolicyParams, run_pipeline, save_run
from .signature import NoSignatures

USAGE_ERROR = 2
DATA_ERROR = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _world_config(name_or_path: str) -> simworld.WorldConfig:
    presets = simworld.preset_worlds()
    if name_or_path in presets:
        return presets[name_or_path]
    p = Path(name_or_path)
    if p.exists() and p.suffix == ".json":
        return simworld.load_world_config(p)
    raise CliError(
        f"unknown world {name_or_path!r}; valid presets: {', '.join(sorted(presets))}",
        USAGE_ERROR,
    )


def _params_from_args(args: argparse.Namespace) -> PolicyParams:
    base: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CliError(f"bad run configuration {args.config}: {exc}", USAGE_ERROR) from exc
        if not isinstance(base, dict):
            raise CliError(f"bad run configuration {args.config}: expected a JSON object", USAGE_ERROR)
    for key in ("policy", "gated", "min_matches", "wifi_threshold", "real_time_threshold", "seed"):
        v = getattr(args, key)
        if v is not None:
            base[key] = v
    try:
        return gating.params_from_json(base)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad run configuration: {exc}", USAGE_ERROR) from exc


def _ranged(cast, ok, expected: str):
    """An argparse type: ``cast(text)`` where ``ok`` holds, else a usage error naming ``expected``."""
    def parse(text: str):
        try:
            v = cast(text)
        except ValueError:
            v = None
        if v is None or not ok(v):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return v
    return parse


_split_fraction = _ranged(float, lambda v: 0 < v < 1, "a fraction in (0, 1)")
_similarity = _ranged(float, lambda v: 0 < v <= 1, "a similarity in (0, 1]")
_non_negative = _ranged(int, lambda v: v >= 0, "an integer >= 0")


def _check_out(path: str, is_dir: bool) -> None:
    """Fail with a usage error unless ``path`` can be written: as a directory made with its
    parents when ``is_dir``, else as a file in an existing directory."""
    p = Path(path)
    if is_dir:
        base = next(a for a in (p, *p.parents) if a.exists())
        problem = None if base.is_dir() else f"{base} is not a directory"
    elif p.is_dir():
        base, problem = p, "is a directory"
    else:
        base = p.parent
        problem = None if base.is_dir() else f"no directory {base}"
    if problem is None and not os.access(p if p.exists() else base, os.W_OK):
        problem = "permission denied"
    if problem:
        raise CliError(f"cannot write --out {path}: {problem}", USAGE_ERROR)


def _bool_flag(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        dataset = simworld.synthesize(_world_config(args.world), args.seed)
    except simworld.DataError as exc:  # a world file is configuration, not data
        raise CliError(f"bad world: {exc}", USAGE_ERROR) from exc
    out = simworld.save_dataset(dataset, args.out)
    dwells = len(set(dataset.scans.dwell.tolist()))  # the dwells scans.csv holds, one signature each
    print(f"wrote {out}: frames={len(dataset.frames)} dwells={dwells} aps={len(dataset.world.aps)} "
          f"gt_loop_pairs={len(dataset.gt_loop_pairs)}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    dataset = simworld.load_dataset(args.dataset)
    record = run_pipeline(dataset, params)
    out = save_run(record, args.out)
    row = evaluation.report_row(record, dataset)
    evaluation.write_report(out / "report_row.csv", [row])
    print(
        f"wrote {out}: rmse_m={row['rmse_m']} fp={row['fp']} fn={row['fn']} "
        f"loop_cost={row['loop_cost']} overhead_cost={row['overhead_cost']}"
    )
    return 0


def _sweep_cell(dataset: simworld.Dataset, params: PolicyParams) -> dict:
    record = run_pipeline(dataset, params)
    return evaluation.report_row(record, dataset)


_worker_dataset: simworld.Dataset | None = None  # a sweep worker process's dataset, loaded once


def _load_worker_dataset(dataset_dir: str) -> None:
    global _worker_dataset
    _worker_dataset = simworld.load_dataset(dataset_dir)


def _worker_sweep_cell(params: PolicyParams) -> dict:
    return _sweep_cell(_worker_dataset, params)


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        with open(args.grid) as fh:
            grid = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"malformed grid file: {exc}", USAGE_ERROR) from exc
    if not isinstance(grid, dict) or not grid:
        raise CliError("grid must be a non-empty JSON object of lists", USAGE_ERROR)
    axes = {k: v if isinstance(v, list) else [v] for k, v in grid.items()}
    empty = [k for k, v in axes.items() if not v]
    if empty:
        raise CliError(f"grid axis {empty[0]!r} has no values", USAGE_ERROR)
    cells = []
    for combo in product(*axes.values()):
        cell = dict(zip(axes.keys(), combo))
        try:
            cells.append(gating.params_from_json(cell))
        except (TypeError, ValueError) as exc:
            raise CliError(f"bad grid cell {cell}: {exc}", USAGE_ERROR) from exc
    cells = list(dict.fromkeys(cells))  # combinations that give the same settings are one cell

    out_path = Path(args.out)
    existing = evaluation.read_report(out_path)
    have = {evaluation.row_key(r) for r in existing}
    dataset = simworld.load_dataset(args.dataset)
    pending = [p for p in cells if evaluation.row_key(evaluation.key_fields(dataset.name, p)) not in have]

    rows = list(existing)
    if pending:
        jobs = min(args.jobs or os.cpu_count() or 1, len(pending))
        if jobs == 1:
            results = [_sweep_cell(dataset, p) for p in pending]
        else:
            with ProcessPoolExecutor(
                max_workers=jobs, initializer=_load_worker_dataset, initargs=(args.dataset,)
            ) as ex:
                results = list(ex.map(_worker_sweep_cell, pending))
        rows.extend(results)
    rows.sort(key=evaluation.row_key)
    evaluation.write_report(out_path, rows)
    print(f"wrote {out_path}: {len(rows)} rows ({len(pending)} computed, {len(cells) - len(pending)} reused)")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    dataset = simworld.load_dataset(args.dataset)
    points, rho = evaluation.similarity_distance_curve(dataset, dataset.signatures)
    evaluation.write_similarity_curve_csv(args.out, points, rho)
    print(f"wrote {args.out}: {len(points)} dwell pairs, spearman_rho={rho!r}")
    return 0


def cmd_localize(args: argparse.Namespace) -> int:
    dataset = simworld.load_dataset(args.dataset)
    errors, fallbacks, n_map, n_query = evaluation.localize_dataset(
        dataset, split=args.split, threshold=args.wifi_threshold
    )
    evaluation.write_cdf_csv(args.out, errors, fallbacks)
    print(
        f"wrote {args.out}: map={n_map} query={n_query} fallbacks={fallbacks} "
        f"within_4m={bisect_right(errors, 4.0) / len(errors)!r}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    for root in map(Path, args.runs):  # a missing path would otherwise read as no rows
        if not root.is_dir():
            problem = "not a directory" if root.exists() else "no such directory"
            raise CliError(f"cannot read --runs {root}: {problem}", USAGE_ERROR)
    rows = []
    for root in args.runs:
        for p in sorted(Path(root).rglob("report_row.csv")):
            rows.extend(evaluation.read_report(p))
    rows.sort(key=evaluation.row_key)
    evaluation.write_report(args.out, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wifislam", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a dataset from a preset or world.json")
    g.add_argument("--world", required=True)
    g.add_argument("--seed", type=_non_negative, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen, out_is_dir=True)

    r = sub.add_parser("run", help="run one pipeline configuration on a dataset")
    r.add_argument("--dataset", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--config", help="JSON file of run parameters; flags override")
    r.add_argument("--policy", choices=gating.POLICIES)
    r.add_argument("--gated", type=_bool_flag)
    r.add_argument("--min-matches", dest="min_matches", type=int)
    r.add_argument("--wifi-threshold", dest="wifi_threshold", type=float)
    r.add_argument("--real-time-threshold", dest="real_time_threshold")
    r.add_argument("--seed", type=int)
    r.set_defaults(fn=cmd_run, out_is_dir=True)

    s = sub.add_parser("sweep", help="run a Cartesian parameter grid; resumable")
    s.add_argument("--dataset", required=True)
    s.add_argument("--grid", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--jobs", type=_non_negative, default=0, help="worker processes (default: cpu count)")
    s.set_defaults(fn=cmd_sweep)

    c = sub.add_parser("curve", help="similarity-vs-distance curve over dwell pairs")
    c.add_argument("--dataset", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_curve)

    l = sub.add_parser("localize", help="cluster-gated map-image localization CDF")
    l.add_argument("--dataset", required=True)
    l.add_argument("--out", required=True)
    l.add_argument("--split", type=_split_fraction, default=0.4)
    l.add_argument("--wifi-threshold", dest="wifi_threshold", type=_similarity, default=0.85)
    l.set_defaults(fn=cmd_localize)

    rep = sub.add_parser("report", help="consolidate report rows from run directories")
    rep.add_argument("--runs", nargs="+", required=True)
    rep.add_argument("--out", required=True)
    rep.set_defaults(fn=cmd_report)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_out(args.out, getattr(args, "out_is_dir", False))
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (simworld.DataError, NoSignatures) as exc:  # BadWorld, EmptyMap and BadReport are DataErrors
        what = "report" if isinstance(exc, evaluation.BadReport) else "dataset"
        print(f"error: bad {what}: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
