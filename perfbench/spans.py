"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces public wifislam functions with timing wrappers at
the names their callers look up (``gating.match_frames``, ``cli.run_pipeline``,
``frontend.InvertedIndex.query_scored`` ...) and `Tracer.restore` puts the
originals back. Each span keeps its self time: its duration minus the time of
the spans it caused. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from wifislam import cli, clustering, evaluation, frontend, gating, posegraph, simworld

PIPELINE = "gating.pipeline"
AUDIT = "gating.audit_query"
INDEX_QUERY = "frontend.index_query"

# per-layer metric name -> (unit, better); the order is the report order
LAYER_METRICS = {
    "posegraph.optimize_s": ("s", "lower"),
    "posegraph.optimize_calls": ("count", "lower"),
    "posegraph.opt_iterations": ("count", "lower"),
    "posegraph.ms_per_iteration": ("ms", "lower"),
    "posegraph.optimize_call_p50_ms": ("ms", "lower"),
    "posegraph.optimize_call_tail_ms": ("ms", "lower"),
    "posegraph.graph_build_s": ("s", "lower"),
    "frontend.match_s": ("s", "lower"),
    "frontend.match_calls": ("count", "lower"),
    "frontend.match_accept_ratio": ("ratio", "higher"),
    "frontend.shared_words_s": ("s", "lower"),
    "frontend.shared_words_calls": ("count", "lower"),
    "frontend.index_query_s": ("s", "lower"),
    "frontend.index_query_calls": ("count", "lower"),
    "frontend.index_insert_s": ("s", "lower"),
    "gating.pipeline_s": ("s", "lower"),
    "gating.candidates_s": ("s", "lower"),
    "gating.candidates_per_frame": ("count", "lower"),
    "gating.audit_query_s": ("s", "lower"),
    "gating.bfs_s": ("s", "lower"),
    "gating.rtab_transfers": ("count", "lower"),
    "gating.rtab_retrievals": ("count", "lower"),
    "gating.unattributed_s": ("s", "lower"),
    "gating.unattributed_share": ("ratio", "lower"),
    "gating.frame_p50_ms": ("ms", "lower"),
    "gating.frame_tail_ms": ("ms", "lower"),
    "clustering.query_s": ("s", "lower"),
    "clustering.query_calls": ("count", "lower"),
    "clustering.assign_s": ("s", "lower"),
    "clustering.clusters_final": ("count", "lower"),
    "clustering.wifi_units": ("units", "lower"),
    "signature.build_s": ("s", "lower"),
    "signature.cosine_s": ("s", "lower"),
    "signature.cosine_calls": ("count", "lower"),
    "simworld.synthesize_s": ("s", "lower"),
    "simworld.save_s": ("s", "lower"),
    "simworld.load_s": ("s", "lower"),
    "simworld.load_calls": ("count", "lower"),
    "simworld.bytes_written": ("B", "lower"),
    "simworld.bytes_read": ("B", "lower"),
    "evaluation.report_row_s": ("s", "lower"),
    "evaluation.score_loops_s": ("s", "lower"),
    "evaluation.trajectory_error_s": ("s", "lower"),
    "evaluation.curve_s": ("s", "lower"),
    "evaluation.localize_s": ("s", "lower"),
    "evaluation.localize_fallbacks": ("count", "lower"),
    "cli.command_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0.0 for no samples."""
    if not samples:
        return 0.0
    s = sorted(samples)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def tail_quantile(n: int) -> float:
    """The highest quantile with at least ten samples beyond it (the maximum below 11 samples)."""
    return 1.0 - 10.0 / n if n > 10 else 1.0


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Spans and work counters for one traced pass."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [span name, seconds spent in child spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.count: Counter[str] = Counter()
        self.optimize_ms: list[float] = []
        self.frame_ms: list[float] = []
        self.records: list[gating.RunRecord] = []
        self._last_frame: float | None = None
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr: str, name, before=None, after=None) -> None:
        """Wrap ``owner.attr``; ``name`` is a span name or a function of the parent span.

        A name the program no longer has is listed in ``missing`` and its
        metrics read 0; the cross-checks show whether its calls went unseen.
        """
        fn = vars(owner).get(attr)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        stack = self.stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(stack[-1][0] if stack else None) if callable(name) else name
            if before is not None:
                before()
            entry = [span, 0.0]
            stack.append(entry)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[span] += dt - entry[1]
                total_s[span] += dt
                calls[span] += 1
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, kwargs, out, dt)
            return out

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        p = self._patch
        p(cli, "main", "cli.command")
        for owner in (cli, gating):
            p(owner, "run_pipeline", PIPELINE, before=self._pipeline_start, after=self._pipeline_end)
        for attr in ("orb_candidates", "rgbd_candidates", "rtab_step"):
            p(gating, attr, "gating.candidates", before=self._frame_tick,
              after=self._rtab_moves if attr == "rtab_step" else None)
        for attr in ("_geodesic_neighbors", "_hops_from"):
            p(gating, attr, "gating.bfs")

        p(gating, "match_frames", "frontend.match", after=self._matched)
        for owner in (frontend, evaluation):
            p(owner, "shared_word_count", "frontend.shared_words")
        # a gated run's own query of the global index is the shadow audit
        p(frontend.InvertedIndex, "query", lambda parent: AUDIT if parent == PIPELINE else INDEX_QUERY)
        p(frontend.InvertedIndex, "query_scored", lambda parent: parent + ".scored"
          if parent in (AUDIT, INDEX_QUERY) else INDEX_QUERY)
        p(frontend.InvertedIndex, "insert", "frontend.index_insert")

        p(gating, "optimize", "posegraph.optimize", after=self._optimized)
        for attr in ("add_node", "add_edge"):
            p(posegraph.PoseGraph, attr, "posegraph.graph_build")

        p(gating, "similar_clusters", "clustering.query", after=self._query_units)
        p(evaluation, "similar_clusters", "clustering.query")
        p(gating, "assign", "clustering.assign", after=self._assign_units)
        p(evaluation, "assign", "clustering.assign")
        p(gating, "orb_cluster_management", "clustering.manage")
        p(evaluation, "build_map_clusters", "clustering.map", after=self._map_built)

        p(gating, "build_signatures", "signature.build")
        for owner in (gating, evaluation):
            p(owner, "associate_frames", "signature.build")
        for owner in (clustering, evaluation):
            p(owner, "cosine_similarity", "signature.cosine")

        p(simworld, "synthesize", "simworld.synthesize")
        p(simworld, "save_dataset", "simworld.save", after=self._saved_bytes)
        p(simworld, "load_dataset", "simworld.load", after=self._loaded_bytes)

        p(evaluation, "report_row", "evaluation.report_row")
        p(evaluation, "score_loops", "evaluation.score_loops")
        p(evaluation, "trajectory_error", "evaluation.trajectory_error")
        p(evaluation, "similarity_distance_curve", "evaluation.curve")
        p(evaluation, "localize_dataset", "evaluation.localize", after=self._localized)

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- counters taken from arguments and results ----------------------------

    def _pipeline_start(self) -> None:
        self._last_frame = None

    def _pipeline_end(self, args, kwargs, record, dt) -> None:
        self.records.append(record)
        self.count["frames"] += len(record.est)
        if record.store is not None:
            self.count["clusters_final"] += len(record.store)

    def _frame_tick(self) -> None:
        now = perf_counter()
        if self._last_frame is not None:
            self.frame_ms.append((now - self._last_frame) * 1000.0)
        self._last_frame = now

    def _rtab_moves(self, args, kwargs, out, dt) -> None:
        _cands, _state, transferred, retrieved = out
        self.count["rtab_transfers"] += len(transferred)
        self.count["rtab_retrievals"] += len(retrieved)

    def _matched(self, args, kwargs, result, dt) -> None:
        self.count["match_accepted"] += result.accepted

    def _optimized(self, args, kwargs, graph, dt) -> None:
        stats = kwargs.get("stats")
        self.count["opt_iterations"] += stats.get("iterations", 0) if stats is not None else 0
        self.optimize_ms.append(dt * 1000.0)

    def _query_units(self, args, kwargs, sims, dt) -> None:
        self.count["wifi_compares"] += len(_arg(args, kwargs, 0, "store"))

    def _assign_units(self, args, kwargs, outcome, dt) -> None:
        self.count["wifi_compares"] += len(_arg(args, kwargs, 4, "similar")) + 1

    def _map_built(self, args, kwargs, store, dt) -> None:
        self.count["clusters_final"] += len(store)

    def _saved_bytes(self, args, kwargs, out_dir, dt) -> None:
        self.count["bytes_written"] += _dir_bytes(out_dir)

    def _loaded_bytes(self, args, kwargs, dataset, dt) -> None:
        self.count["bytes_read"] += _dir_bytes(_arg(args, kwargs, 0, "path"))

    def _localized(self, args, kwargs, out, dt) -> None:
        self.count["localize_fallbacks"] += out[1]

    # -- results --------------------------------------------------------------

    def _self(self, *names: str) -> float:
        return sum(self.self_s[n] for n in names)

    def metrics(self) -> dict[str, float]:
        """Every metric of LAYER_METRICS for this pass; a layer that never ran reads 0."""
        c, calls = self.count, self.calls
        opt_s = self._self("posegraph.optimize")
        pipeline_s = self.total_s[PIPELINE]
        unattributed = self.self_s[PIPELINE]
        n_opt, n_frame = len(self.optimize_ms), len(self.frame_ms)
        m = {
            "posegraph.optimize_s": opt_s,
            "posegraph.optimize_calls": calls["posegraph.optimize"],
            "posegraph.opt_iterations": c["opt_iterations"],
            "posegraph.ms_per_iteration": opt_s * 1000.0 / c["opt_iterations"] if c["opt_iterations"] else 0.0,
            "posegraph.optimize_call_p50_ms": percentile(self.optimize_ms, 0.5),
            "posegraph.optimize_call_tail_ms": percentile(self.optimize_ms, tail_quantile(n_opt)) if n_opt else 0.0,
            "posegraph.graph_build_s": self._self("posegraph.graph_build"),
            "frontend.match_s": self._self("frontend.match"),
            "frontend.match_calls": calls["frontend.match"],
            "frontend.match_accept_ratio": c["match_accepted"] / calls["frontend.match"] if calls["frontend.match"] else 0.0,
            "frontend.shared_words_s": self._self("frontend.shared_words"),
            "frontend.shared_words_calls": calls["frontend.shared_words"],
            "frontend.index_query_s": self._self(INDEX_QUERY, INDEX_QUERY + ".scored"),
            "frontend.index_query_calls": calls[INDEX_QUERY],
            "frontend.index_insert_s": self._self("frontend.index_insert"),
            "gating.pipeline_s": pipeline_s,
            "gating.candidates_s": self._self("gating.candidates"),
            "gating.candidates_per_frame": calls["frontend.match"] / c["frames"] if c["frames"] else 0.0,
            "gating.audit_query_s": self._self(AUDIT, AUDIT + ".scored"),
            "gating.bfs_s": self._self("gating.bfs"),
            "gating.rtab_transfers": c["rtab_transfers"],
            "gating.rtab_retrievals": c["rtab_retrievals"],
            "gating.unattributed_s": unattributed,
            "gating.unattributed_share": unattributed / pipeline_s if pipeline_s else 0.0,
            "gating.frame_p50_ms": percentile(self.frame_ms, 0.5),
            "gating.frame_tail_ms": percentile(self.frame_ms, tail_quantile(n_frame)) if n_frame else 0.0,
            "clustering.query_s": self._self("clustering.query"),
            "clustering.query_calls": calls["clustering.query"],
            "clustering.assign_s": self._self("clustering.assign", "clustering.manage", "clustering.map"),
            "clustering.clusters_final": c["clusters_final"],
            "clustering.wifi_units": c["wifi_compares"] * gating.WIFI_COMPARE_COST,
            "signature.build_s": self._self("signature.build"),
            "signature.cosine_s": self._self("signature.cosine"),
            "signature.cosine_calls": calls["signature.cosine"],
            "simworld.synthesize_s": self._self("simworld.synthesize"),
            "simworld.save_s": self._self("simworld.save"),
            "simworld.load_s": self._self("simworld.load"),
            "simworld.load_calls": calls["simworld.load"],
            "simworld.bytes_written": c["bytes_written"],
            "simworld.bytes_read": c["bytes_read"],
            "evaluation.report_row_s": self._self("evaluation.report_row"),
            "evaluation.score_loops_s": self._self("evaluation.score_loops"),
            "evaluation.trajectory_error_s": self._self("evaluation.trajectory_error"),
            "evaluation.curve_s": self._self("evaluation.curve"),
            "evaluation.localize_s": self._self("evaluation.localize"),
            "evaluation.localize_fallbacks": c["localize_fallbacks"],
            "cli.command_s": self.total_s["cli.command"],
            "cli.self_s": self.self_s["cli.command"],
        }
        return m

    def cross_check(self, expected_fallbacks: int | None) -> list[str]:
        """Compare the wrappers' counts with the totals the program reports itself.

        A wrapper that misses a call path shows up here as a mismatch.
        """
        recs = self.records
        problems = []
        loop_cost = sum(r.loop_cost for r in recs)
        if self.calls["frontend.match"] != loop_cost:
            problems.append(f"frontend.match_calls={self.calls['frontend.match']} but summed loop_cost={loop_cost}")
        iters = sum(r.opt_iterations for r in recs)
        if self.count["opt_iterations"] != iters:
            problems.append(f"posegraph.opt_iterations={self.count['opt_iterations']} but summed opt_iterations={iters}")
        units = self.count["wifi_compares"] * gating.WIFI_COMPARE_COST
        wifi = sum(r.clustering_cost + r.management_cost for r in recs)
        if not math.isclose(units, wifi, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"clustering.wifi_units={units!r} but summed clustering+management cost={wifi!r}")
        if expected_fallbacks is not None and self.count["localize_fallbacks"] != expected_fallbacks:
            problems.append(
                f"evaluation.localize_fallbacks={self.count['localize_fallbacks']} "
                f"but the CDF file reports {expected_fallbacks}"
            )
        return problems


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
