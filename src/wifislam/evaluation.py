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
from .gating import PolicyParams, RunRecord
from .posegraph import kabsch_align, apply_rigid, rmse
from .signature import NoSignatures, Signature, similarity_matrix
from .simworld import DataError, Dataset


MATCH_RADIUS = 5  # frames an accepted loop edge may lie from a ground-truth pair in report rows


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


def trajectory_error(est: np.ndarray, gt: np.ndarray) -> float:
    """Kabsch-align the (n, 3) estimated poses onto the (n, 3) ground truth and return positional
    RMSE. The two pair up by row, as a run's do (row k is frame k in both); `kabsch_align` raises
    LengthMismatch when their lengths differ."""
    p, q = est[:, :2], gt[:, :2]
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
    times, xy = dataset.frames.t.tolist(), dataset.frames.gt[:, :2].tolist()
    pos = [xy[max(bisect_right(times, s.collected_at) - 1, 0)] for s in signatures]
    i, j = np.triu_indices(len(signatures), 1)  # every pair, row by row
    sims = similarity_matrix(signatures)[i, j].tolist()
    pts = [(math.dist(pos[a], pos[b]), s) for a, b, s in zip(i.tolist(), j.tolist(), sims)]
    rho = float(spearmanr([p[0] for p in pts], [p[1] for p in pts]).statistic)
    return pts, rho


# ---------------------------------------------------------------------------
# cluster-gated localization


def build_map_clusters(map_ids: Sequence[int], frame_sig: dict[int, Signature], threshold: float) -> ClusterStore:
    """Cluster the mapping split: consecutive map frames act as the linking edge."""
    store = ClusterStore()
    prev: int | None = None
    for i in map_ids:
        sims = similar_clusters(store, frame_sig[i], threshold)
        assign(store, i, frame_sig[i], {prev} if prev is not None else set(), sims)
        prev = i
    return store


def localize_queries(
    dataset: Dataset, map_ids: Sequence[int], map_store: ClusterStore, query_ids: Sequence[int], threshold: float
) -> tuple[tuple[float, ...], int]:
    """Locate each query frame at the best of the dataset's map frames within its similar clusters;
    return the localization errors, sorted ascending, and the fallback count.

    The winner is the map frame with the highest shared-word count, read from the dataset's
    `word_masks`, so a query must not be a map frame (ties go to the lowest frame id); queries
    whose signature matches no cluster fall back to a global scan and are counted.
    """
    if not map_ids:
        raise EmptyMap("no map frames")
    frame_sig, masks, xy = dataset.frame_signatures, dataset.word_masks, dataset.frames.gt[:, :2].tolist()
    fallbacks = 0
    errors = []
    for q in query_ids:
        cand_ids = members_of(map_store, similar_clusters(map_store, frame_sig[q], threshold))
        if not cand_ids:
            fallbacks += 1
            cand_ids = map_ids
        best = max(cand_ids, key=lambda kf: ((masks[q] & masks[kf]).bit_count(), -kf))
        errors.append(math.dist(xy[best], xy[q]))
    return tuple(sorted(errors)), fallbacks


def localize_dataset(
    dataset: Dataset, split: float = 0.4, threshold: float = 0.85
) -> tuple[tuple[float, ...], int, int, int]:
    """Split the dataset by time into map/query phases and run the localizer: the sorted errors and
    fallback count of `localize_queries`, then the map and query frame counts."""
    if not 0 < split < 1:
        raise ValueError("split must be in (0, 1)")
    n = len(dataset.frames)
    if not n:
        raise EmptyMap("dataset has no frames")
    n_map = int(round(split * n))
    if n_map < 1 or n_map >= n:
        raise EmptyMap("split leaves an empty map or query phase")
    store = build_map_clusters(range(n_map), dataset.frame_signatures, threshold)
    errors, fallbacks = localize_queries(dataset, range(n_map), store, range(n_map, n), threshold)
    return errors, fallbacks, n_map, n - n_map


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
    err = trajectory_error(record.graph.poses, dataset.frames.gt)
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


def write_cdf_csv(path: str | Path, errors: Sequence[float], fallbacks: int = 0) -> None:
    """The empirical CDF of ``errors``, sorted ascending: the k-th (from 0) beside the fraction (k + 1) / n."""
    n = len(errors)
    with open(path, "w", newline="") as fh:
        fh.write("error_m,fraction\n")
        for k, e in enumerate(errors):
            fh.write(f"{e!r},{(k + 1) / n!r}\n")
        fh.write(f"# fallback_queries={fallbacks}\n")


def write_similarity_curve_csv(
    path: str | Path, points: Sequence[tuple[float, float]], rho: float
) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("distance_m,similarity\n")
        for d, s in points:
            fh.write(f"{d!r},{s!r}\n")
        fh.write(f"# spearman_rho={rho!r}\n")
