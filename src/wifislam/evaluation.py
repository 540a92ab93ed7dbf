"""Metrics over completed runs: loop-closure FP/FN counts, aligned trajectory
error and the report rows that carry them with a run's cost totals, the
similarity-vs-distance curve, and the cluster-gated map-image localizer with
its error CDF. The curve and the localizer read the dataset's own signatures.

Loop scoring is adjudicated against the simulator's ground-truth pairs with
an index tolerance: an accepted edge is a true detection when some ground
truth pair lies within ``match_radius`` frames on both endpoints, and a
ground-truth pair is missed (a false negative) when no accepted edge lies
within the same tolerance; report rows use ``MATCH_RADIUS``. TP + FN always
equals the ground-truth pair count; FN% is relative to all true closures and
FP% to all detections.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import spearmanr

from .clustering import ClusterStore, assign, members_of, similar_clusters
from .frontend import word_masks
from .gating import PolicyParams, RunRecord
from .posegraph import kabsch_align, apply_rigid, rmse
from .signature import NoSignatures, Signature, similarity_matrix
from .simworld import DataError, Dataset, Frame


MATCH_RADIUS = 5  # frames an accepted loop edge may lie from a ground-truth pair in report rows


class NoCorrespondence(ValueError):
    """Estimate and ground truth share no keyframe ids."""


class EmptyMap(DataError):
    """Localization was attempted with an empty map split."""


@dataclass(frozen=True)
class LoopScore:
    true_positives: int
    false_positives: int
    false_negatives: int
    fp_pct: float
    fn_pct: float


def score_loops(
    edges: Sequence[tuple[int, int]],
    gt_pairs: Iterable[tuple[int, int]],
    match_radius: int = MATCH_RADIUS,
) -> LoopScore:
    """Adjudicate accepted loop edges against ground-truth pairs.

    A ground-truth pair counts as detected when any edge covers it within the
    tolerance, never more than once however many edges land nearby, so the
    result is invariant to event order.
    """
    if match_radius <= 0:
        raise ValueError("match_radius must be positive")
    gt = sorted({(min(a, b), max(a, b)) for a, b in gt_pairs})
    ed = [(min(a, b), max(a, b)) for a, b in edges]
    if not gt:
        fp = len(ed)
        return LoopScore(0, fp, 0, 100.0 if fp else 0.0, 0.0)
    if not ed:
        return LoopScore(0, 0, len(gt), 0.0, 100.0)
    # an edge covers a pair when both ids lie within match_radius: a max-norm ball, exact on integer ids
    e, g = (cKDTree(np.array(pairs, dtype=float)) for pairs in (ed, gt))
    near = e.query_ball_tree(g, match_radius, p=np.inf)  # per edge, the indices of the pairs it covers
    tp = len(set().union(*near))
    fn = len(gt) - tp
    fp = sum(not pairs for pairs in near)
    fp_pct = 100.0 * fp / len(ed)
    fn_pct = 100.0 * fn / (tp + fn)
    return LoopScore(tp, fp, fn, fp_pct, fn_pct)


def trajectory_error(
    est: Sequence[tuple[int, float, object]], gt: Sequence[tuple[int, float, object]]
) -> float:
    """Kabsch-align the estimate onto ground truth and return positional RMSE."""
    gt_by_id = {kf: pose for kf, _t, pose in gt}
    pairs = [(pose, gt_by_id[kf]) for kf, _t, pose in est if kf in gt_by_id]
    if not pairs:
        raise NoCorrespondence("no common keyframe ids between estimate and ground truth")
    p = [(e.x, e.y) for e, _ in pairs]
    q = [(g.x, g.y) for _, g in pairs]
    rot, t = kabsch_align(p, q)
    return rmse(apply_rigid(rot, t, p), q)


# ---------------------------------------------------------------------------
# similarity vs distance


def similarity_distance_curve(
    dataset: Dataset, signatures: Sequence[Signature]
) -> tuple[list[tuple[float, float]], float]:
    """All dwell pairs as (gt distance, cosine similarity) plus Spearman rank correlation.
    A signature sits at the ground-truth position of the frame at or before its
    ``collected_at`` (the first frame when none is); frame times must ascend."""
    if len(signatures) < 2:
        raise NoSignatures(f"need at least 2 dwell signatures, got {len(signatures)}")
    times = [f.t for f in dataset.frames]
    pos = [dataset.frames[max(bisect_right(times, s.collected_at) - 1, 0)].gt_pose for s in signatures]
    i, j = np.triu_indices(len(signatures), 1)  # every pair, row by row
    sims = similarity_matrix(signatures)[i, j].tolist()
    pts = [(math.hypot(pos[a].x - pos[b].x, pos[a].y - pos[b].y), s) for a, b, s in zip(i.tolist(), j.tolist(), sims)]
    rho = float(spearmanr([p[0] for p in pts], [p[1] for p in pts]).statistic)
    return pts, rho


# ---------------------------------------------------------------------------
# cluster-gated localization


@dataclass(frozen=True)
class CdfCurve:
    errors: tuple[float, ...]  # sorted ascending
    fractions: tuple[float, ...]  # non-decreasing, ends at 1.0

    @classmethod
    def from_errors(cls, errors: Sequence[float]) -> "CdfCurve":
        e = sorted(float(x) for x in errors)
        n = len(e)
        return cls(errors=tuple(e), fractions=tuple((k + 1) / n for k in range(n)))

    def fraction_within(self, x: float) -> float:
        f = 0.0
        for e, frac in zip(self.errors, self.fractions):
            if e <= x:
                f = frac
            else:
                break
        return f


def build_map_clusters(
    map_frames: Sequence[Frame], frame_sig: dict[int, Signature], threshold: float
) -> ClusterStore:
    """Cluster the mapping split: consecutive map frames act as the linking edge."""
    store = ClusterStore()
    prev: int | None = None
    for f in map_frames:
        sims = similar_clusters(store, frame_sig[f.id], threshold)
        linked = {prev} if prev is not None else set()
        assign(store, f.id, frame_sig[f.id], linked, sims)
        prev = f.id
    return store


def localize_queries(
    map_frames: Sequence[Frame],
    map_store: ClusterStore,
    frame_sig: dict[int, Signature],
    query_frames: Sequence[Frame],
    threshold: float,
) -> tuple[CdfCurve, int]:
    """Locate each query at the best map frame within its similar clusters.

    The winner is the map frame with the highest shared-word count (ties go
    to the lowest frame id); queries whose signature matches no cluster fall
    back to a global scan and are counted.
    """
    if not map_frames:
        raise EmptyMap("no map frames")
    by_id = {f.id: f for f in map_frames}
    masks = word_masks([f.appearance for f in (*map_frames, *query_frames)])
    map_mask = {f.id: m for f, m in zip(map_frames, masks)}
    fallbacks = 0
    errors = []
    for q, q_mask in zip(query_frames, masks[len(map_frames):]):
        sims = similar_clusters(map_store, frame_sig[q.id], threshold)
        cand_ids = members_of(map_store, sims)
        if not cand_ids:
            fallbacks += 1
            cand_ids = [f.id for f in map_frames]
        best = max(cand_ids, key=lambda kf: ((q_mask & map_mask[kf]).bit_count(), -kf))
        chosen = by_id[best]
        errors.append(
            math.hypot(chosen.gt_pose.x - q.gt_pose.x, chosen.gt_pose.y - q.gt_pose.y)
        )
    return CdfCurve.from_errors(errors), fallbacks


def localize_dataset(
    dataset: Dataset, split: float = 0.4, threshold: float = 0.85
) -> tuple[CdfCurve, int, int, int]:
    """Split the dataset by time into map/query phases and run the localizer."""
    if not 0 < split < 1:
        raise ValueError("split must be in (0, 1)")
    frames = dataset.frames
    if not frames:
        raise EmptyMap("dataset has no frames")
    n_map = int(round(split * len(frames)))
    if n_map < 1 or n_map >= len(frames):
        raise EmptyMap("split leaves an empty map or query phase")
    frame_sig = dataset.frame_signatures
    map_frames = frames[:n_map]
    query_frames = frames[n_map:]
    store = build_map_clusters(map_frames, frame_sig, threshold)
    curve, fallbacks = localize_queries(map_frames, store, frame_sig, query_frames, threshold)
    return curve, fallbacks, len(map_frames), len(query_frames)


# ---------------------------------------------------------------------------
# report files


_FORMATS = {str: str, int: str, bool: lambda v: str(v).lower(), float: lambda v: repr(float(v))}  # by declared type


def _settings(params) -> dict[str, str]:
    """Every setting of a params dataclass by field name, nested params flattened in
    place, formatted for its declared type."""
    types = get_type_hints(type(params))
    out: dict[str, str] = {}
    for f in fields(params):
        v = getattr(params, f.name)
        if is_dataclass(v):
            out.update(_settings(v))
        else:
            out[f.name] = _FORMATS[types[f.name]](v)
    return out


def key_fields(dataset_name: str, p: PolicyParams) -> dict[str, str]:
    """The report columns that identify a run configuration, formatted as report rows hold them."""
    return {"dataset": dataset_name, **_settings(p)}


KEY_COLUMNS = tuple(key_fields("", PolicyParams()))
REPORT_COLUMNS = [
    *KEY_COLUMNS,
    "rmse_m",
    "fp",
    "fn",
    "fp_pct",
    "fn_pct",
    "loop_cost",
    "overhead_cost",
    "wall_ms",
]


class BadReport(DataError):
    """A report file's header or one of its rows is malformed; the message names the file and line."""


def report_row(record: RunRecord, dataset: Dataset) -> dict[str, str]:
    score = score_loops(record.loop_edges, dataset.gt_loop_pairs)
    err = trajectory_error(record.est, record.gt)
    return {
        **key_fields(record.dataset.name, record.params),
        "rmse_m": repr(float(err)),
        "fp": str(score.false_positives),
        "fn": str(score.false_negatives),
        "fp_pct": repr(float(score.fp_pct)),
        "fn_pct": repr(float(score.fn_pct)),
        "loop_cost": repr(float(record.loop_cost)),
        "overhead_cost": repr(float(record.clustering_cost + record.management_cost)),
        "wall_ms": repr(float(sum(record.wall.values()) * 1000.0)),
    }


def row_key(row: dict[str, str]) -> tuple:
    return tuple(row[k] for k in KEY_COLUMNS)


def write_report(path: str | Path, rows: Sequence[dict[str, str]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow(row)


def read_report(path: str | Path) -> list[dict[str, str]]:
    """The rows of a report file, none when it does not exist. Raises BadReport for a
    header that lacks a report column, has an unknown one or repeats one, and for a row
    whose length differs from the header's."""
    if not Path(path).exists():
        return []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in REPORT_COLUMNS if c not in header]
        unknown = [c for c in header if c not in REPORT_COLUMNS]
        repeated = [c for c in REPORT_COLUMNS if header.count(c) > 1]
        if missing or unknown or repeated:
            raise BadReport(f"{path}:1: report header: missing columns {missing}, "
                            f"unknown columns {unknown}, repeated columns {repeated}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise BadReport(f"{path}:{reader.line_num}: {len(row)} fields, the header has {len(header)}")
            rows.append(dict(zip(header, row)))
        return rows


def write_cdf_csv(path: str | Path, curve: CdfCurve, fallbacks: int = 0) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("error_m,fraction\n")
        for e, f in zip(curve.errors, curve.fractions):
            fh.write(f"{e!r},{f!r}\n")
        fh.write(f"# fallback_queries={fallbacks}\n")


def write_similarity_curve_csv(
    path: str | Path, points: Sequence[tuple[float, float]], rho: float
) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("distance_m,similarity\n")
        for d, s in points:
            fh.write(f"{d!r},{s!r}\n")
        fh.write(f"# spearman_rho={rho!r}\n")
