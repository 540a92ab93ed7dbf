"""Loop-closure candidate selection under three policy variants, each in
vanilla and Wi-Fi-gated mode, plus the frame-by-frame pipeline driver.

Wi-Fi gating reaches a policy as one value per frame: ``similar``, the set of
keyframes in the clusters similar to the frame's signature, which the
pipeline computes once per frame (``None`` in a vanilla run). Each policy
intersects it with its own candidate pool:
  rgbd - predecessors + geodesic neighbors (the base, which the pipeline
         computes once per frame) + a seeded random keyframe subset; gating
         replaces the random subset with ``similar``.
  rtab - short-term/working/long-term memory pools with a real-time budget;
         gating immunizes the working-memory keyframes in ``similar`` and
         retrieves its long-term ones back before the candidate scan.
  orb  - every earlier keyframe sharing a visual word with the frame, ranked
         by shared count from the frames' word masks; vanilla ranks the whole
         map with one inverted index over the masks' bits, gated scores only
         ``similar`` and keeps no index.
The pipeline audits each gated frame against those same inputs: candidates
must lie in ``similar`` (or rgbd's base), and ORB's must be earlier keyframes
that share a word with the frame, as vanilla ORB's are.

A run's settings, its `PolicyParams`, are only those a workload varies. The
sizes of rgbd's base and random subset and of rtab's short-term memory and
transfer batch are module constants (`RGBD_PREDECESSORS` ... `RTAB_TRANSFER_BATCH`).

The pipeline reads each frame's signature, word mask and template pose from
the ``Dataset``, which derives them once for every run on it, and its
ground-truth pose and template from the frame table. A run records each
frame's decisions once, as one entry of each of its trace columns
(`FRAME_COLUMNS`); the ``RunRecord``'s loop events, memory trace, loop edges
and loop cost are views over those columns, and ``save_run`` writes them, with
each frame's Wi-Fi cluster, as the columns of one file, ``frame_trace.csv``.

Costs are deterministic: one visual comparison costs 1 unit, one Wi-Fi
cluster comparison 0.02 units, one optimizer iteration 0.1 units. Wall-clock
times are recorded alongside but never drive any decision.
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .clustering import ClusterStore, assign, members_of, similar_clusters, write_cluster_dump
from .frontend import MATCH_INFORMATION, InvertedIndex, MatchResult, match_frames
from .posegraph import Pose2, PoseGraph, compose, optimize, write_trajectory
from .simworld import LOOP_PAIR_GAP_S, Dataset, check_known_keys, check_setting_types

VISUAL_COMPARE_COST = 1.0
WIFI_COMPARE_COST = 0.02
OPT_ITERATION_COST = 0.1

OPT_EVERY = 25  # frames between periodic optimizations
OPT_MIN_SPACING = 14  # frames a loop-triggered optimization waits after the previous one
OPT_MAX_ITERS = 2  # iterations of each optimization during the run
FINAL_OPT_MAX_ITERS = 100  # iterations of the optimization after the last frame, over the whole graph
# each optimization during the run frees only the newest OPT_WINDOW keyframes and
# those within OPT_WINDOW_HOPS hops of an end of an edge added since the previous one
OPT_WINDOW = 40
OPT_WINDOW_HOPS = 1

RGBD_PREDECESSORS = 3  # newest keyframes rgbd always searches
RGBD_GEODESIC_DEPTH = 2  # hops from the newest keyframe rgbd always searches
RGBD_RANDOM_KEYFRAMES = 8  # other keyframes a vanilla rgbd frame draws at random
RTAB_STM_CAPACITY = 15  # keyframes in rtab's short-term memory
RTAB_TRANSFER_BATCH = 10  # working-memory keyframes moved to long-term memory at a time

POLICIES = ("rgbd", "rtab", "orb")

# a run's per-frame trace: how many keyframes its policy compared the frame with, the loop closure it
# committed (-1 when none) and, in rtab runs only, the memory pool sizes after its step and the keyframes
# the step moved
FRAME_COLUMNS = ("candidate_count", "loop_to", "stm", "wm", "ltm", "immune", "transfers", "retrievals")


class MemoryCorruption(RuntimeError):
    """An rtab memory invariant broke (disjointness or immune scope)."""


@dataclass(frozen=True)
class RtabParams:
    real_time_threshold: float = math.inf


@dataclass(frozen=True)
class PolicyParams:
    policy: str = "orb"
    gated: bool = True
    min_matches: int = 20
    wifi_threshold: float = 0.85
    seed: int = 0
    rtab: RtabParams = RtabParams()

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        check_setting_types(self)
        if self.min_matches <= 0:
            raise ValueError("min_matches must be positive")
        if not 0 < self.wifi_threshold <= 1:
            raise ValueError("wifi_threshold must be in (0, 1]")
        if self.rtab.real_time_threshold <= 0:
            raise ValueError("real_time_threshold must be positive")


@dataclass
class MemoryState:
    stm: deque = field(default_factory=deque)
    wm: set = field(default_factory=set)
    ltm: set = field(default_factory=set)
    immune: set = field(default_factory=set)

    def check(self) -> None:
        stm = set(self.stm)
        if stm & self.wm or stm & self.ltm or self.wm & self.ltm:
            raise MemoryCorruption("memory pools are not disjoint")
        if not self.immune <= self.wm:
            raise MemoryCorruption("immune frames must live in WM")


@dataclass
class RunRecord:
    """One run: its dataset, settings, final graph and cluster store, its per-frame trace and totals.

    ``frames`` maps each of the run's `FRAME_COLUMNS` (rtab's pool columns only in rtab runs) to a
    list with one int per frame id."""

    dataset: Dataset
    params: PolicyParams
    graph: PoseGraph
    store: ClusterStore | None
    frames: dict[str, list[int]]
    clustering_cost: float
    management_cost: float
    opt_iterations: int
    subset_violations: int
    gating_violations: int
    wall: dict

    @property
    def events(self) -> dict[str, list[int]]:
        """The per-frame loop events: the whole trace."""
        return self.frames

    @property
    def memory_trace(self) -> dict[str, list[int]]:
        """The per-frame rtab memory trace: the whole trace under rtab, empty otherwise."""
        return self.frames if self.params.policy == "rtab" else {}

    @property
    def loop_edges(self) -> list[tuple[int, int]]:
        """(from_id, to_id) of each committed loop closure, time gap > simworld.LOOP_PAIR_GAP_S."""
        return [(i, to) for i, to in enumerate(self.frames["loop_to"]) if to >= 0]

    @property
    def loop_cost(self) -> float:
        return sum(self.frames["candidate_count"]) * VISUAL_COMPARE_COST

    @property
    def est(self) -> list:
        """(keyframe_id, t, Pose2) of the final graph's ``poses``, one per frame: the view perfbench's
        workloads read."""
        t, poses = self.dataset.frames.t.tolist(), self.graph.poses.tolist()
        return [(i, ti, Pose2(*p)) for i, (ti, p) in enumerate(zip(t, poses))]


# ---------------------------------------------------------------------------
# policy candidate selection


def _rgbd_base(graph: PoseGraph) -> set[int]:
    """The keyframes rgbd always searches: the newest `RGBD_PREDECESSORS` of the
    graph and those within `RGBD_GEODESIC_DEPTH` hops of the newest one."""
    ids = graph.ids
    base = set(ids[-RGBD_PREDECESSORS:])
    if ids:
        base.update(_hops_from(graph, [ids[-1]], RGBD_GEODESIC_DEPTH))
    return base


def rgbd_candidates(
    graph: PoseGraph,
    current: int,
    params: PolicyParams,
    similar: set[int] | None,
    base: set[int],
) -> list[int]:
    """``base`` (the graph's `_rgbd_base`) + (``similar`` when gated | a seeded
    random subset of the other keyframes).

    The current keyframe must not be in the graph yet; candidates are
    returned sorted ascending.
    """
    if current in graph.ids:
        raise ValueError(f"keyframe {current} already in graph")
    if similar is not None:
        return sorted(base | similar)
    pool = [k for k in graph.ids if k not in base]
    rng = np.random.default_rng((params.seed, 7, current))
    n = min(RGBD_RANDOM_KEYFRAMES, len(pool))
    extra = [int(k) for k in rng.choice(pool, size=n, replace=False)] if n else []
    return sorted(base.union(extra))


def rtab_step(
    state: MemoryState,
    current: int,
    params: PolicyParams,
    step_cost: float,
    *,
    graph: PoseGraph,
    similar: set[int] | None,
    recent_matches: Sequence[int] = (),
) -> tuple[list[int], MemoryState, list[int], list[int]]:
    """One memory-management step; mutates and returns the state.

    ``step_cost`` is the measured deterministic cost of the previously
    processed frame (the budget check is necessarily retrospective). Order:
    the current frame enters STM and overflow spills to WM; in gated mode
    (``similar`` given) WM keyframes in ``similar`` become immune and LTM
    ones are retrieved back (and made immune); candidates are the WM (gated:
    only its keyframes in ``similar``); finally, if the budget was exceeded,
    the lowest-priority non-immune WM frames move to LTM in batches until
    the projected next-step cost fits.
    """
    state.stm.append(current)
    while len(state.stm) > RTAB_STM_CAPACITY:
        state.wm.add(state.stm.popleft())

    retrieved: list[int] = []
    if similar is not None:
        state.immune &= similar  # immunity lapses once the cluster stops being similar
        state.immune |= state.wm & similar
        retrieved = sorted(state.ltm & similar)
        for k in retrieved:
            state.ltm.discard(k)
            state.wm.add(k)
            state.immune.add(k)
        candidates = sorted(state.wm & similar)
    else:
        candidates = sorted(state.wm)

    transferred: list[int] = []
    if step_cost > params.rtab.real_time_threshold:
        sources = [n for n in recent_matches if n in graph.ids]
        if graph.ids:
            sources.append(graph.ids[-1])
        hops = _hops_from(graph, sources)
        order = sorted(
            (k for k in state.wm if k not in state.immune),
            key=lambda k: (-hops.get(k, 1 << 30), k),
        )
        pos = 0
        while (
            len(state.wm) * VISUAL_COMPARE_COST > params.rtab.real_time_threshold
            and pos < len(order)
        ):
            batch = order[pos : pos + RTAB_TRANSFER_BATCH]
            pos += len(batch)
            for k in batch:
                state.wm.discard(k)
                state.ltm.add(k)
            transferred.extend(batch)

    state.check()
    return candidates, state, transferred, retrieved


def _hops_from(graph: PoseGraph, sources: Sequence[int], max_hops: float = math.inf) -> dict[int, int]:
    """Breadth-first hop counts from ``sources``, which must be nodes of ``graph``,
    up to ``max_hops``."""
    hops = {s: 0 for s in sources}
    frontier = list(sources)
    d = 0
    while frontier and d < max_hops:
        d += 1
        nxt = []
        for n in frontier:
            for m in graph.neighbors(n):
                if m not in hops:
                    hops[m] = d
                    nxt.append(m)
        frontier = nxt
    return hops


def _window(graph: PoseGraph, since_edge: int) -> set[int]:
    """The keyframes an in-run optimization frees: the newest `OPT_WINDOW` and
    those within `OPT_WINDOW_HOPS` hops of either end of the graph's edges from
    index ``since_edge`` on, less the anchor."""
    ends = set(graph.edges[since_edge:].ravel().tolist())
    free = set(graph.ids[-OPT_WINDOW:]).union(_hops_from(graph, list(ends), OPT_WINDOW_HOPS))
    free.discard(graph.ids[0])
    return free


def orb_candidates(
    index: InvertedIndex | None,
    current: int,
    masks: Sequence[int],
    similar: set[int] | None,
) -> list[int]:
    """The keyframes sharing at least one visual word with frame ``current``, by
    shared count desc then id asc, from ``masks`` (`frontend.word_masks` of the
    dataset's frames).

    Vanilla (``similar`` is None): ``index``'s ranking of the frame's mask over
    the whole map. Gated: only the keyframes of ``similar``, all earlier than
    ``current``, each scored from its mask; ``index`` is not read, and a gated
    run keeps none. A gated list is thus the vanilla list cut to ``similar``.
    """
    q = masks[current]
    if similar is None:
        return index.query(q)
    ranked = sorted((-n, k) for k in similar if (n := (q & masks[k]).bit_count()))
    return [k for _n, k in ranked]


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(dataset: Dataset, params: PolicyParams) -> RunRecord:
    """Drive the full per-frame loop; deterministic for a fixed (dataset, params)."""
    frames = dataset.frames
    frame_sig, masks, template_poses = dataset.frame_signatures, dataset.word_masks, dataset.template_poses
    times, templates = frames.t, frames.template.tolist()  # times stay numpy: no float object per frame
    onoise = dataset.world.config.odom_noise

    graph = PoseGraph()
    store: ClusterStore | None = ClusterStore() if params.gated else None
    # vanilla orb: the whole map's keyframes, each inserted once; a gated run scores its gate instead
    index = InvertedIndex() if params.policy == "orb" and not params.gated else None
    audit_orb = params.policy == "orb" and params.gated
    memory = MemoryState()

    columns = FRAME_COLUMNS if params.policy == "rtab" else FRAME_COLUMNS[:2]  # rtab's pool columns come last
    trace: dict[str, list[int]] = {name: [] for name in columns}
    clustering_cost = management_cost = 0.0
    opt_iterations = 0
    subset_violations = 0
    gating_violations = 0
    wall = {"loop_closure_s": 0.0, "clustering_s": 0.0, "management_s": 0.0, "optimize_s": 0.0}

    prev_step_cost = 0.0
    prev_matches: list[int] = []
    pending_opt = False
    last_opt = -(1 << 30)
    opt_edges = 0  # edges in the graph at the previous in-run optimization

    for i, sig in frame_sig.items():  # every frame, in order
        sims: tuple[tuple[int, float], ...] = ()
        similar: set[int] | None = None  # the frame's Wi-Fi gate
        if params.gated:
            t0 = time.perf_counter()
            sims = similar_clusters(store, sig, params.wifi_threshold)
            similar = set(members_of(store, sims))
            clustering_cost += len(store) * WIFI_COMPARE_COST
            wall["clustering_s"] += time.perf_counter() - t0

        # candidate selection happens before the frame enters the graph;
        # gated candidates outside `similar` may come only from `base`
        pools: tuple[int, ...] = ()  # rtab: its memory pools after the step and the keyframes the step moved
        base: set[int] = set()
        if params.policy == "rgbd":
            base = _rgbd_base(graph)
            cands = rgbd_candidates(graph, i, params, similar, base)
        elif params.policy == "rtab":
            cands, memory, transfers, retrievals = rtab_step(
                memory, i, params, prev_step_cost,
                graph=graph, similar=similar, recent_matches=prev_matches,
            )
            pools = (len(memory.stm), len(memory.wm), len(memory.ltm), len(memory.immune),
                     len(transfers), len(retrievals))
        else:
            cands = orb_candidates(index, i, masks, similar)

        if similar is not None and not (set(cands) - similar) <= base:
            gating_violations += 1

        # the keyframe joins the graph on its composed odometry estimate
        if i == 0:
            graph.add_node(0, Pose2(*frames.gt[0].tolist()))
        else:
            step = Pose2(*frames.odom[i])
            graph.add_node(i, compose(Pose2(*graph.poses[i - 1].tolist()), step))
            sxy, sth = onoise.sigmas(math.hypot(step.x, step.y))
            info = np.diag([1.0 / sxy**2, 1.0 / sxy**2, 1.0 / sth**2])
            graph.add_edge(i - 1, i, step, info)

        t0 = time.perf_counter()
        accepted: list[tuple[int, MatchResult]] = []
        leaked = False  # gated orb: a candidate vanilla orb would not compare
        for c in cands:
            shared = (masks[i] & masks[c]).bit_count()
            if audit_orb and not (shared and 0 <= c < i):
                leaked = True
            mr = match_frames(i, c, shared, templates, frames.gt, template_poses, params.min_matches, params.seed)
            if mr.accepted:
                accepted.append((c, mr))
        subset_violations += leaked
        wall["loop_closure_s"] += time.perf_counter() - t0

        # commit one transformation per category per keyframe event, like the
        # host systems: the strongest match wins, ties to the lowest id; only a
        # committed match's pose is drawn
        loop_hits = [(c, mr) for c, mr in accepted if times[i] - times[c] > LOOP_PAIR_GAP_S]
        local_hits = [(c, mr) for c, mr in accepted if times[i] - times[c] <= LOOP_PAIR_GAP_S]
        committed: list[tuple[int, MatchResult]] = []
        for group in (local_hits, loop_hits):
            if group:
                committed.append(max(group, key=lambda cm: (cm[1].num_matches, -cm[0])))
        for c, mr in committed:
            graph.add_edge(i, c, mr.relative, MATCH_INFORMATION)

        loop_to = -1
        if loop_hits:
            loop_to = committed[-1][0]
            pending_opt = True

        accepted_ids = [c for c, _ in committed]
        if params.gated:
            t0 = time.perf_counter()
            edges_gained = set(accepted_ids) | ({i - 1} if i > 0 else set())
            assign(store, i, sig, edges_gained, sims)
            management_cost += (len(sims) + 1) * WIFI_COMPARE_COST
            wall["management_s"] += time.perf_counter() - t0
        if index is not None:
            index.insert(i, masks[i])

        opt_iters_now = 0
        periodic = i > 0 and i % OPT_EVERY == 0
        if len(graph.edges) and (periodic or (pending_opt and i - last_opt >= OPT_MIN_SPACING)):
            t0 = time.perf_counter()
            stats: dict = {}
            graph = optimize(graph, max_iters=OPT_MAX_ITERS, stats=stats, free=_window(graph, opt_edges))
            opt_edges = len(graph.edges)
            opt_iters_now = stats.get("iterations", 0)
            opt_iterations += opt_iters_now
            wall["optimize_s"] += time.perf_counter() - t0
            pending_opt = False
            last_opt = i

        prev_step_cost = len(cands) * VISUAL_COMPARE_COST + opt_iters_now * OPT_ITERATION_COST
        prev_matches = accepted_ids
        for column, value in zip(trace.values(), (len(cands), loop_to, *pools)):
            column.append(value)

    if len(graph.edges):
        t0 = time.perf_counter()
        stats = {}
        graph = optimize(graph, max_iters=FINAL_OPT_MAX_ITERS, stats=stats)
        opt_iterations += stats.get("iterations", 0)
        wall["optimize_s"] += time.perf_counter() - t0

    return RunRecord(
        dataset=dataset,
        params=params,
        graph=graph,
        store=store,
        frames=trace,
        clustering_cost=clustering_cost,
        management_cost=management_cost,
        opt_iterations=opt_iterations,
        subset_violations=subset_violations,
        gating_violations=gating_violations,
        wall=wall,
    )


# ---------------------------------------------------------------------------
# serialization


def params_to_json(params: PolicyParams) -> dict:
    d = asdict(params)
    if math.isinf(d["rtab"]["real_time_threshold"]):
        d["rtab"]["real_time_threshold"] = "inf"
    return d


def params_from_json(d: dict) -> PolicyParams:
    """The PolicyParams a JSON object describes. Absent settings, ``rtab`` included, take
    their defaults. ``real_time_threshold`` may also sit at the top level, where it
    overrides ``rtab``'s; a string value such as "inf" is parsed.
    Raises ValueError or TypeError for a bad object; the message for an unknown key
    names its path and the valid keys."""
    check_known_keys(d, [*(f.name for f in fields(PolicyParams)), "real_time_threshold"])
    d = dict(d)
    rtab = d.pop("rtab", {})
    if not isinstance(rtab, dict):
        raise ValueError(f"rtab must be a JSON object, got {rtab!r}")
    check_known_keys(rtab, [f.name for f in fields(RtabParams)], "rtab.")
    rtab = dict(rtab)
    if "real_time_threshold" in d:
        rtab["real_time_threshold"] = d.pop("real_time_threshold")
    if isinstance(rtab.get("real_time_threshold"), str):
        rtab["real_time_threshold"] = float(rtab["real_time_threshold"])
    return PolicyParams(rtab=RtabParams(**rtab), **d)


def save_run(record: RunRecord, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as fh:
        json.dump(
            {
                "dataset": record.dataset.name,
                "dataset_seed": record.dataset.seed,
                "params": params_to_json(record.params),
                "cost_units": {
                    "visual_compare": VISUAL_COMPARE_COST,
                    "wifi_compare": WIFI_COMPARE_COST,
                    "opt_iteration": OPT_ITERATION_COST,
                },
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
    frames = record.dataset.frames
    write_trajectory(out / "trajectory_est.csv", frames.t, record.graph.poses)
    write_trajectory(out / "trajectory_gt.csv", frames.t, frames.gt)
    store = record.store or ClusterStore()  # a vanilla run has no clusters
    with open(out / "frame_trace.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")  # None is written as an empty cell
        w.writerow(["frame", *FRAME_COLUMNS, "cluster"])
        n = len(record.frames["loop_to"])
        columns = [record.frames.get(name, [None] * n) for name in FRAME_COLUMNS]  # rtab's pools: rtab runs only
        w.writerows(zip(range(n), *columns, map(store.cluster_of, range(n))))
    write_cluster_dump(store, out / "cluster_representatives.jsonl")
    with open(out / "timings.json", "w") as fh:
        json.dump(record.wall, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out
