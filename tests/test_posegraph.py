from __future__ import annotations

import math
from collections.abc import Sequence
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from wifislam import gating, posegraph
from wifislam.gating import PolicyParams
from wifislam.posegraph import (
    ERROR_FLOOR,
    BadInformation,
    DanglingEdge,
    DegenerateAlignment,
    DisconnectedGraph,
    GraphEdge,
    LengthMismatch,
    Pose2,
    PoseGraph,
    apply_rigid,
    between,
    compose,
    kabsch_align,
    optimize,
    residual,
    residual_jacobians,
    rmse,
    total_error,
    wrap_angle,
)

I3 = np.eye(3)


def pose_strategy():
    f = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    th = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
    return st.builds(Pose2, f, f, th)


class TestGroupOps:
    def test_identity_element(self):
        p = Pose2(1.2, -0.7, 0.3)
        q = compose(Pose2(), p)
        assert (q.x, q.y, q.theta) == pytest.approx((p.x, p.y, p.theta), abs=1e-15)

    def test_between_hand_value(self):
        a = Pose2(1.0, 0.0, math.pi / 2)
        b = Pose2(1.0, 1.0, math.pi / 2)
        d = between(a, b)
        assert (d.x, d.y, d.theta) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    @given(pose_strategy(), pose_strategy())
    def test_compose_between_roundtrip(self, a, b):
        c = compose(a, between(a, b))
        assert math.hypot(c.x - b.x, c.y - b.y) < 1e-12
        assert abs(wrap_angle(c.theta - b.theta)) < 1e-12

    def test_theta_normalized(self):
        assert Pose2(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
        assert -math.pi < Pose2(0, 0, -math.pi).theta <= math.pi


def two_node_graph(p0, p1, rel, info=None):
    g = PoseGraph()
    g.add_node(0, p0)
    g.add_node(1, p1)
    g.add_edge(GraphEdge(0, 1, rel, I3 if info is None else info))
    return g


class TestResiduals:
    def test_consistent_edge_zero(self):
        g = two_node_graph(Pose2(), Pose2(1, 0, 0), Pose2(1, 0, 0))
        assert residual(g.edges[0], g.nodes) == pytest.approx(np.zeros(3), abs=1e-15)

    def test_empty_graph_zero_error(self):
        g = PoseGraph()
        g.add_node(0, Pose2())
        assert total_error(g) == 0.0

    def test_hand_error(self):
        g = two_node_graph(Pose2(), Pose2(1.1, 0, 0), Pose2(1, 0, 0))
        assert total_error(g) == pytest.approx(0.01, abs=1e-12)

    def test_dangling_edge(self):
        g = two_node_graph(Pose2(), Pose2(1, 0, 0), Pose2(1, 0, 0))
        with pytest.raises(DanglingEdge):
            residual(g.edges[0], {0: Pose2()})


def random_graph(rng, n_nodes=6, n_loops=3):
    g = PoseGraph()
    g.add_node(0, Pose2())
    pose = Pose2()
    for k in range(1, n_nodes):
        step = Pose2(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3), rng.uniform(-0.6, 0.6))
        pose = compose(pose, step)
        g.add_node(k, pose)
        info = np.diag(rng.uniform(0.5, 4.0, size=3))
        noisy = Pose2(step.x + rng.normal(0, 0.05), step.y + rng.normal(0, 0.05), step.theta + rng.normal(0, 0.02))
        g.add_edge(GraphEdge(k - 1, k, noisy, info))
    for _ in range(n_loops):
        a, b = rng.choice(n_nodes, size=2, replace=False)
        rel = between(g.nodes[int(a)], g.nodes[int(b)])
        g.add_edge(GraphEdge(int(a), int(b), rel, np.diag(rng.uniform(0.5, 4.0, size=3))))
    return g


class TestTotalError:
    def test_equals_optimize_initial_error(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_graph(rng, n_nodes=int(rng.integers(2, 12)), n_loops=int(rng.integers(0, 6)))
            before = total_error(g)
            stats: dict = {}
            optimize(g, max_iters=5, stats=stats)
            assert before == stats["error_initial"]  # bit for bit
            assert total_error(g) == pytest.approx(stats["error_final"], rel=1e-9)  # after the theta re-wrap


class TestJacobians:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(50):
            g = random_graph(rng)
            for edge in g.edges:
                r0, ja, jb = residual_jacobians(edge, g.nodes)
                for which, node_id, jan in ((0, edge.from_id, ja), (1, edge.to_id, jb)):
                    fd = np.zeros((3, 3))
                    for col in range(3):
                        for sign, out in ((+1, 0), (-1, 1)):
                            nodes = dict(g.nodes)
                            p = nodes[node_id]
                            vals = [p.x, p.y, p.theta]
                            vals[col] += sign * h
                            nodes[node_id] = Pose2(*vals)
                            if sign > 0:
                                rp = residual(edge, nodes)
                            else:
                                rm = residual(edge, nodes)
                        fd[:, col] = (rp - rm) / (2 * h)
                    scale = max(1.0, float(np.abs(jan).max()))
                    assert np.max(np.abs(fd - jan)) / scale < 1e-6


class TestOptimize:
    def test_consistent_graph_fixed_point(self):
        g = PoseGraph()
        g.add_node(0, Pose2())
        p = Pose2()
        for k in range(1, 5):
            step = Pose2(1, 0, 0.1)
            p = compose(p, step)
            g.add_node(k, p)
            g.add_edge(GraphEdge(k - 1, k, step, I3))
        assert total_error(g) == pytest.approx(0.0, abs=1e-20)
        before = dict(g.nodes)
        out = optimize(g)
        assert out is g  # optimized in place
        assert total_error(out) == pytest.approx(0.0, abs=1e-18)
        for k in before:
            assert before[k].x == pytest.approx(out.nodes[k].x, abs=1e-12)

    def test_square_with_loop_edge_improves_10x(self):
        rng = np.random.default_rng(3)
        g = PoseGraph()
        true = [Pose2(0, 0, 0), Pose2(5, 0, math.pi / 2), Pose2(5, 5, math.pi), Pose2(0, 5, -math.pi / 2)]
        g.add_node(0, true[0])
        est = true[0]
        for k in range(1, 4):
            step = between(true[k - 1], true[k])
            noisy = Pose2(step.x + rng.normal(0, 0.3), step.y + rng.normal(0, 0.3), step.theta + rng.normal(0, 0.1))
            est = compose(est, noisy)
            g.add_node(k, est)
            g.add_edge(GraphEdge(k - 1, k, noisy, I3))
        g.add_edge(GraphEdge(3, 0, between(true[3], true[0]), np.diag([100.0, 100.0, 100.0])))
        e0 = total_error(g)
        stats = {}
        out = optimize(g, max_iters=100, stats=stats)
        assert total_error(out) < e0 / 10.0
        errs = stats["accepted_errors"]
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_chain_consistent_zero(self):
        g = PoseGraph()
        g.add_node(0, Pose2())
        p = Pose2()
        for k in range(1, 6):
            step = Pose2(0.8, 0.1, 0.05)
            p = compose(p, step)
            g.add_node(k, p)
            g.add_edge(GraphEdge(k - 1, k, step, I3))
        out = optimize(g)
        assert total_error(out) == pytest.approx(0.0, abs=1e-18)

    def test_anchor_unchanged(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng)
        before = g.nodes[0]
        out = optimize(g, max_iters=30)
        assert out.nodes[0] == before
        assert out.nodes[1] != random_graph(np.random.default_rng(5)).nodes[1]  # free nodes moved, in place

    def test_disconnected_graph(self):
        g = PoseGraph()
        g.add_node(0, Pose2())
        g.add_node(1, Pose2(1, 0, 0))
        g.add_node(2, Pose2(5, 5, 0))
        g.add_node(3, Pose2(6, 5, 0))
        g.add_edge(GraphEdge(0, 1, Pose2(1, 0, 0), I3))
        g.add_edge(GraphEdge(2, 3, Pose2(1, 0, 0), I3))
        with pytest.raises(DisconnectedGraph):
            optimize(g)

    def test_bad_information(self):
        g = two_node_graph(Pose2(), Pose2(1, 0, 0), Pose2(1, 0, 0), info=np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(BadInformation):
            optimize(g)

    def test_gauge_invariance(self):
        # exactly-consistent constraints, perturbed initialization: both runs
        # converge to the same (rigidly transformed) zero-error optimum
        rng = np.random.default_rng(11)
        true = [Pose2(0, 0, 0)]
        for k in range(1, 8):
            true.append(compose(true[-1], Pose2(1.0, 0.2, 0.35)))

        def build(transform: Pose2) -> PoseGraph:
            g = PoseGraph()
            for k, p in enumerate(true):
                init = compose(transform, p)
                if k > 0:  # perturb all but the anchor
                    init = Pose2(init.x + perturb[k][0], init.y + perturb[k][1], init.theta + perturb[k][2])
                g.add_node(k, init)
            for k in range(1, len(true)):
                g.add_edge(GraphEdge(k - 1, k, between(true[k - 1], true[k]), I3))
            g.add_edge(GraphEdge(len(true) - 1, 0, between(true[-1], true[0]), I3))
            return g

        perturb = {k: rng.normal(0, 0.05, size=3) for k in range(len(true))}
        base = optimize(build(Pose2()), max_iters=200)
        moved = optimize(build(Pose2(3.0, -2.0, 0.8)), max_iters=200)
        p = [(base.nodes[k].x, base.nodes[k].y) for k in sorted(base.nodes)]
        q = [(moved.nodes[k].x, moved.nodes[k].y) for k in sorted(moved.nodes)]
        rot, t = kabsch_align(p, q)
        assert rmse(apply_rigid(rot, t, p), q) < 1e-9


def cold_copy(g: PoseGraph) -> PoseGraph:
    """The same nodes and edges in a new graph, nodes added in id order: no cached state."""
    out = PoseGraph()
    for k in sorted(g.nodes):
        out.add_node(k, g.nodes[k])
    for e in g.edges:
        out.add_edge(e)
    return out


def bits(graph: PoseGraph, stats: dict) -> tuple:
    """Poses and stats in a form that tells -0.0 from 0.0."""
    poses = sorted((k, p.x, p.y, p.theta) for k, p in graph.nodes.items())
    return repr(poses), repr(sorted(stats.items()))


@st.composite
def growth_plans(draw):
    """Steps of (new node ids, loop-edge pairs, max_iters) over ids 0, 1, 2, ..."""
    n_nodes = draw(st.integers(3, 14))
    ids = list(range(n_nodes))
    cuts = sorted(draw(st.sets(st.integers(2, n_nodes - 1), max_size=4)))
    bounds = [0, *cuts, n_nodes]
    steps = []
    for lo, hi in zip(bounds, bounds[1:]):
        known = ids[:hi]
        loops = draw(st.lists(st.tuples(st.sampled_from(known), st.sampled_from(known)), max_size=3))
        steps.append((ids[lo:hi], [(a, b) for a, b in loops if a != b], draw(st.integers(1, 6))))
    return steps


class TestIncrementalState:
    """The graph's cached state (arrays, validation watermark, union-find)
    gives the same optimizer output as a cold graph, and a rejected id leaves
    that state as it was."""

    @given(growth_plans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_warm_equals_cold_between_growth_steps(self, steps, seed):
        rng = np.random.default_rng(seed)
        g = PoseGraph()
        for new_ids, loops, max_iters in steps:
            for k in new_ids:
                g.add_node(k, Pose2(*rng.uniform(-5, 5, size=2), rng.uniform(-3.2, 3.2)))
                if len(g.nodes) > 1:  # join each node to an earlier one, keeping the graph connected
                    prev = list(g.nodes)[int(rng.integers(len(g.nodes) - 1))]
                    rel = Pose2(*rng.normal(0, 1, size=2), rng.uniform(-3.2, 3.2))
                    g.add_edge(GraphEdge(prev, k, rel, np.diag(rng.uniform(0.5, 4.0, size=3))))
            for a, b in loops:
                info = np.diag(rng.uniform(0.5, 40.0, size=3))
                g.add_edge(GraphEdge(a, b, between(g.nodes[a], g.nodes[b]), info, "loop"))
            cold = cold_copy(g)
            warm_stats, cold_stats = {}, {}
            assert optimize(g, max_iters=max_iters, stats=warm_stats) is g
            optimize(cold, max_iters=max_iters, stats=cold_stats)
            assert bits(g, warm_stats) == bits(cold, cold_stats)

    def test_bad_information_is_raised_on_every_call(self):
        g = two_node_graph(Pose2(), Pose2(1, 0, 0), Pose2(1, 0, 0))
        optimize(g)
        g.add_node(2, Pose2(2, 0, 0))
        g.add_edge(GraphEdge(1, 2, Pose2(1, 0, 0), np.diag([1.0, -1.0, 1.0])))
        for _ in range(2):
            with pytest.raises(BadInformation, match="positive definite"):
                optimize(g)
        g.add_node(3, Pose2(3, 0, 0))
        g.add_edge(GraphEdge(2, 3, Pose2(1, 0, 0), np.eye(2)))
        with pytest.raises(BadInformation, match="edge 2->3: information must be 3x3"):
            optimize(g)

    def test_disconnected_message_then_joined(self):
        g = PoseGraph()
        for k, p in enumerate([Pose2(), Pose2(1, 0, 0), Pose2(5, 5, 0), Pose2(6, 5, 0)]):
            g.add_node(k, p)
        g.add_edge(GraphEdge(0, 1, Pose2(1, 0, 0), I3))
        g.add_edge(GraphEdge(2, 3, Pose2(1, 0, 0), I3))
        for _ in range(2):
            with pytest.raises(DisconnectedGraph) as info:
                optimize(g)
            assert str(info.value) == "nodes unreachable from 0: [2, 3]..."
        g.add_edge(GraphEdge(1, 2, Pose2(4, 4.5, 0), I3, "loop"))
        stats = {}
        optimize(g, max_iters=20, stats=stats)
        assert stats["error_final"] < stats["error_initial"]

    def test_nodes_view_is_read_only(self):
        g = two_node_graph(Pose2(), Pose2(1, 0, 0), Pose2(1, 0, 0))
        with pytest.raises(TypeError):
            g.nodes[0] = Pose2(5, 5, 0)
        with pytest.raises(TypeError):
            g.ids[0] = 5
        assert dict(g.nodes) == {0: Pose2(), 1: Pose2(1, 0, 0)}
        assert list(g.ids) == [0, 1] and g.ids[-1] == 1
        assert g.neighbors(0) == [1] and g.neighbors(1) == [0]

    def test_only_the_next_id_is_accepted_and_the_graph_is_unchanged(self):
        g = _loop_graph()
        cold = cold_copy(g)
        before = _state(g)
        for bad in (4, 1, 2):  # a gap, a lower id, a repeat
            with pytest.raises(ValueError, match="not the next id 3"):
                g.add_node(bad, Pose2(9, 9, 0))
        assert _state(g) == before
        stats, cold_stats = {}, {}
        optimize(g, max_iters=10, stats=stats)
        optimize(cold, max_iters=10, stats=cold_stats)
        assert bits(g, stats) == bits(cold, cold_stats)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_an_id_outside_the_graph_is_rejected_everywhere(self, bad):
        g = _loop_graph()
        before = _state(g)
        assert bad not in g.nodes and bad not in g.ids
        with pytest.raises(KeyError):
            g.nodes[bad]
        with pytest.raises(KeyError):
            g.neighbors(bad)
        for a, b in ((bad, 1), (1, bad)):
            with pytest.raises(DanglingEdge):
                g.add_edge(GraphEdge(a, b, Pose2(1, 0, 0), I3))
        with pytest.raises(ValueError, match=rf"missing from the graph: \[{bad}\]"):
            optimize(g, free={1, bad})
        assert _state(g) == before


def _loop_graph() -> PoseGraph:
    """Nodes 0, 1, 2, off their odometry, joined in a loop."""
    g = PoseGraph()
    for k, p in enumerate([Pose2(), Pose2(1.1, 0.1, 0.05), Pose2(2.0, -0.2, 0.1)]):
        g.add_node(k, p)
    g.add_edge(GraphEdge(0, 1, Pose2(1, 0, 0), I3))
    g.add_edge(GraphEdge(1, 2, Pose2(1, 0, 0), I3))
    g.add_edge(GraphEdge(2, 0, Pose2(-2, 0, 0), I3, "loop"))
    return g


def _state(g: PoseGraph) -> tuple:
    """Nodes, ids, edges and neighbour lists, in a comparable form."""
    return (repr(sorted(g.nodes.items())), list(g.ids), [(e.from_id, e.to_id) for e in g.edges],
            [list(g.neighbors(k)) for k in g.ids])

def _run_recording(monkeypatch, dataset, params, cold: bool):
    calls = []

    def recording_optimize(graph, max_iters=50, stats=None, free=None):
        out = optimize(cold_copy(graph) if cold else graph, max_iters=max_iters, stats=stats, free=free)
        calls.append(repr(sorted(stats.items())))
        return out

    monkeypatch.setattr(gating, "optimize", recording_optimize)
    rec = gating.run_pipeline(dataset, params)
    est = repr([(k, t, p.x, p.y, p.theta) for k, t, p in rec.est])
    return calls, est, rec.events, rec.loop_edges, rec.memory_trace, rec.loop_cost, rec.opt_iterations


@pytest.mark.parametrize("policy", ["orb", "rgbd", "rtab"])
@pytest.mark.parametrize("gated", [False, True])
def test_pipeline_equals_cold_graph_run(monkeypatch, dataset_cache, policy, gated):
    ds = dataset_cache("b_hall", 0)
    params = PolicyParams(policy=policy, gated=gated, seed=0)
    warm = _run_recording(monkeypatch, ds, params, cold=False)
    cold = _run_recording(monkeypatch, ds, params, cold=True)
    assert len(warm[0]) > 1
    assert warm == cold


def test_pipeline_windows(monkeypatch, dataset_cache):
    """Each in-run optimization frees the newest `OPT_WINDOW` keyframes and both
    ends of every edge added since the previous one, never the anchor; the
    final optimization is global."""
    calls = []

    def recording_optimize(graph, max_iters=50, stats=None, free=None):
        calls.append((max_iters, free, list(graph.ids), [(e.from_id, e.to_id) for e in graph.edges]))
        return optimize(graph, max_iters=max_iters, stats=stats, free=free)

    monkeypatch.setattr(gating, "optimize", recording_optimize)
    gating.run_pipeline(dataset_cache("j_hall", 0), PolicyParams(policy="orb", gated=True, seed=0))
    *in_run, (final_iters, final_free, _, _) = calls
    assert (final_iters, final_free) == (gating.FINAL_OPT_MAX_ITERS, None)
    assert len(in_run) > 10
    seen = 0  # edges present at the previous in-run call
    old_ends = 0  # edge ends outside the newest keyframes, freed by the hop set alone
    for max_iters, free, ids, edges in in_run:
        assert max_iters == gating.OPT_MAX_ITERS
        assert ids[0] not in free
        assert set(ids[-gating.OPT_WINDOW:]) - {ids[0]} <= free
        ends = {k for e in edges[seen:] for k in e} - {ids[0]}
        assert ends <= free
        old_ends += len(ends - set(ids[-gating.OPT_WINDOW:]))
        seen = len(edges)
    assert old_ends > 0
    assert max(len(free) / (len(ids) - 1) for _, free, ids, _ in in_run[-5:]) < 0.5


def _count_solves(monkeypatch) -> list:
    """The matrices `optimize` passes to `spsolve`, one per solve, from now on."""
    solved = []
    real = posegraph.spsolve

    def counting(a, b):
        solved.append(a)
        return real(a, b)

    monkeypatch.setattr(posegraph, "spsolve", counting)
    return solved


@pytest.mark.parametrize("gated", [False, True])
def test_rtab_optimizations_at_the_error_floor_make_no_solve(monkeypatch, dataset_cache, gated):
    solved = _count_solves(monkeypatch)
    calls = []  # (error_initial, solves) of each optimization

    def recording_optimize(graph, max_iters=50, stats=None, free=None):
        before = len(solved)
        out = optimize(graph, max_iters=max_iters, stats=stats, free=free)
        calls.append((stats["error_initial"], len(solved) - before))
        return out

    monkeypatch.setattr(gating, "optimize", recording_optimize)
    gating.run_pipeline(dataset_cache("b_hall", 0), PolicyParams(policy="rtab", gated=gated, seed=0))
    at_floor = [n for e, n in calls if e <= ERROR_FLOOR]
    assert at_floor and at_floor == [0] * len(at_floor)


def _chain(n: int, moved: Sequence[int] = ()) -> tuple[PoseGraph, list[Pose2]]:
    """An odometry chain of ``n`` nodes and its true poses; the nodes in ``moved``
    start off them, the others on them."""
    step, off = Pose2(1.0, 0.2, 0.3), Pose2(0.4, -0.3, 0.2)
    true = [Pose2()]
    for _ in range(1, n):
        true.append(compose(true[-1], step))
    g = PoseGraph()
    for k, p in enumerate(true):
        g.add_node(k, compose(p, off) if k in moved else p)
        if k:
            g.add_edge(GraphEdge(k - 1, k, step, I3))
    return g, true


class TestWindow:
    """`optimize` with a set of free nodes."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_every_non_anchor_node_free_is_the_default(self, seed, max_iters):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n_nodes=int(rng.integers(2, 14)), n_loops=int(rng.integers(0, 6)))
        windowed = cold_copy(g)
        stats, w_stats = {}, {}
        optimize(g, max_iters=max_iters, stats=stats)
        assert optimize(windowed, max_iters=max_iters, stats=w_stats, free=set(windowed.ids[1:])) is windowed
        assert bits(g, stats) == bits(windowed, w_stats)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_fixed_nodes_keep_their_bytes_and_errors_never_rise(self, seed, max_iters):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n_nodes=int(rng.integers(3, 14)), n_loops=int(rng.integers(0, 6)))
        ids = list(g.ids)
        free = {k for k in ids[1:] if rng.random() < 0.5} or {ids[-1]}
        before = {k: repr(g.nodes[k]) for k in ids}
        stats = {}
        optimize(g, max_iters=max_iters, stats=stats, free=free)
        assert {k: repr(g.nodes[k]) for k in ids if k not in free} == {k: v for k, v in before.items() if k not in free}
        errs = stats["accepted_errors"]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[0] == stats["error_initial"] and errs[-1] == stats["error_final"]
        if len(errs) > 1:
            assert any(repr(g.nodes[k]) != before[k] for k in free)

    def test_window_joined_to_the_anchor_only_through_fixed_nodes_converges(self):
        g, true = _chain(8, moved=(5, 6, 7))
        g.add_edge(GraphEdge(7, 3, between(true[7], true[3]), I3, "loop"))
        stats = {}
        optimize(g, max_iters=50, stats=stats, free={5, 6, 7})
        assert stats["error_initial"] > 0.1 and stats["error_final"] < 1e-18
        assert total_error(g) < 1e-18
        for k in range(8):
            p = g.nodes[k]
            assert (p.x, p.y, p.theta) == pytest.approx((true[k].x, true[k].y, true[k].theta), abs=1e-9)

    @pytest.mark.parametrize(
        "free, message",
        [({0, 2}, "must not include the anchor 0"), ({2, 9, 11}, r"missing from the graph: \[9, 11\]"),
         (set(), "at least one node")],
    )
    def test_bad_free_raises_and_leaves_the_graph(self, free, message):
        g, _ = _chain(4, moved=(2,))
        before = repr(sorted(g.nodes.items()))
        with pytest.raises(ValueError, match=message):
            optimize(g, free=free)
        assert repr(sorted(g.nodes.items())) == before


class TestErrorFloor:
    def test_consistent_chain_makes_no_solve_and_keeps_its_bytes(self, monkeypatch):
        g, _ = _chain(40)
        solved = _count_solves(monkeypatch)
        before = repr(sorted(g.nodes.items()))
        stats = {}
        assert optimize(g, stats=stats) is g
        assert stats["error_initial"] <= ERROR_FLOOR
        assert stats["iterations"] == 0 and stats["accepted_errors"] == [stats["error_initial"]]
        assert solved == []
        assert repr(sorted(g.nodes.items())) == before

    def test_chain_with_one_node_moved_still_iterates_and_converges(self, monkeypatch):
        g, true = _chain(40, moved=(20,))
        solved = _count_solves(monkeypatch)
        stats = {}
        optimize(g, stats=stats)
        assert stats["error_initial"] > 0.1
        assert stats["iterations"] > 0 and len(solved) >= stats["iterations"]
        assert stats["error_final"] < 1e-18
        for k, p in enumerate(true):
            q = g.nodes[k]
            assert (q.x, q.y, q.theta) == pytest.approx((p.x, p.y, p.theta), abs=1e-9)


def _random_info(rng) -> np.ndarray:
    """A random symmetric positive definite 3x3 matrix, off-diagonal terms included."""
    a = rng.normal(0, 1, size=(3, 3))
    return a @ a.T + 0.1 * I3


@st.composite
def assembly_cases(draw):
    """A connected graph with at least one pair of parallel edges, a set of free
    nodes and ``max_iters``. The anchor is never free and the graph is connected,
    so some edge always has one fixed end."""
    n = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = PoseGraph()
    for k in range(n):
        g.add_node(k, Pose2(*rng.uniform(-5, 5, size=2), rng.uniform(-3.1, 3.1)))
    node = st.integers(0, n - 1)
    pairs = [(k - 1, k) for k in range(1, n)]
    a, b = pairs[draw(st.integers(0, n - 2))]
    pairs.append(draw(st.sampled_from([(a, b), (b, a)])))  # parallel to an odometry edge
    pairs += [(a, b) for a, b in draw(st.lists(st.tuples(node, node), max_size=6)) if a != b]
    for a, b in pairs:
        rel = Pose2(*rng.normal(0, 2, size=2), rng.uniform(-3.1, 3.1))
        g.add_edge(GraphEdge(a, b, rel, _random_info(rng)))
    free = draw(st.sets(st.integers(1, n - 1), min_size=1))
    return g, free, draw(st.integers(1, 4))


def _dense_normal_equations(g: PoseGraph, x: np.ndarray, free: set[int]):
    """Sums of J^T Omega J and of J^T Omega r over the edges with a free end,
    edge by edge, and the same sums of the terms' absolute values, which bound
    the rounding error of any order of summation. The poses are ``x`` as the
    optimizer holds it: a Pose2 would wrap a theta that a step took past pi."""
    nodes = {k: SimpleNamespace(x=px, y=py, theta=th) for k, (px, py, th) in enumerate(x.tolist())}
    var = {k: 3 * v for v, k in enumerate(sorted(free))}
    h, grad = np.zeros((3 * len(free),) * 2), np.zeros(3 * len(free))
    h_mag, grad_mag = np.zeros_like(h), np.zeros_like(grad)
    for e in g.edges:
        r, ja, jb = residual_jacobians(e, nodes)
        ends = [(var[k], jac) for k, jac in ((e.from_id, ja), (e.to_id, jb)) if k in var]
        for v1, j1 in ends:
            grad[v1:v1 + 3] += j1.T @ e.information @ r
            grad_mag[v1:v1 + 3] += np.abs(j1).T @ np.abs(e.information) @ np.abs(r)
            for v2, j2 in ends:
                h[v1:v1 + 3, v2:v2 + 3] += j1.T @ e.information @ j2
                h_mag[v1:v1 + 3, v2:v2 + 3] += np.abs(j1).T @ np.abs(e.information) @ np.abs(j2)
    return h, grad, h_mag, grad_mag


class TestAssembly:
    """Each iteration's CSR normal equations against a dense reference, and the
    damping trials' matrices against the iteration's Hessian."""

    @given(assembly_cases())
    @settings(max_examples=40, deadline=None)
    def test_csr_normal_equations_equal_a_dense_reference(self, case):
        g, free, max_iters = case
        events = []  # ("assembly", pattern, h, g, x) and ("solve", matrix, rhs), in call order
        state = {}
        real_residuals, real_assembly, real_solve = (
            posegraph._residuals_vec, posegraph._normal_equations, posegraph.spsolve)

        def residuals(x, *args):
            state["x"] = x.copy()  # the Hessian is assembled at the last residuals' poses
            return real_residuals(x, *args)

        def assembly(pattern, *args):
            h, grad = real_assembly(pattern, *args)
            events.append(("assembly", pattern, h.copy(), grad.copy(), state["x"]))
            return h, grad

        def solve(a, b):
            events.append(("solve", a.copy(), b.copy()))
            return real_solve(a, b)

        with mock.patch.object(posegraph, "_residuals_vec", residuals), \
                mock.patch.object(posegraph, "_normal_equations", assembly), \
                mock.patch.object(posegraph, "spsolve", solve):
            optimize(g, max_iters=max_iters, free=free)

        assemblies = [ev for ev in events if ev[0] == "assembly"]
        assert assemblies  # random poses start far above the floor
        first = assemblies[0][1]
        nvars = 3 * len(free)
        rows = np.repeat(np.arange(nvars), np.diff(first.indptr))
        on_diag = first.indices == rows
        assert sorted(first.diag) == list(np.flatnonzero(on_diag))
        for kind, *ev in events:
            if kind == "assembly":
                pattern, h, grad, x = ev
                assert pattern is first  # one pattern per call
                csr = sp.csr_matrix((h, pattern.indices, pattern.indptr), shape=(nvars, nvars))
                assert csr.has_canonical_format
                h_ref, g_ref, h_mag, g_mag = _dense_normal_equations(g, x, free)
                # relative to the terms' magnitudes: near a minimum the gradient is a sum that nearly cancels
                assert np.all(np.abs(csr.toarray() - h_ref) <= 1e-12 * h_mag)
                assert np.all(np.abs(grad - g_ref) <= 1e-12 * g_mag)
            else:  # a damping trial of the last assembly: its Hessian plus one damping on the diagonal
                a, b = ev
                assert np.array_equal(a.indptr, first.indptr) and np.array_equal(a.indices, first.indices)
                assert np.array_equal(a.data[~on_diag], h[~on_diag])
                added = a.data[on_diag] - h[on_diag]
                assert added.min() > 0
                np.testing.assert_allclose(added, added[0], rtol=1e-6, atol=1e-14 * np.abs(h).max())
                assert np.array_equal(b, -grad)


class TestKabsch:
    def test_identity(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
        rot, t = kabsch_align(pts, pts)
        assert rot == pytest.approx(np.eye(2), abs=1e-12)
        assert t == pytest.approx(np.zeros(2), abs=1e-12)

    def test_pure_rotation(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=(20, 2))
        r90 = np.array([[0.0, -1.0], [1.0, 0.0]])
        gt = pts @ r90.T
        rot, t = kabsch_align(pts, gt)
        assert rot == pytest.approx(r90, abs=1e-12)
        assert rmse(apply_rigid(rot, t, pts), gt) < 1e-9

    def test_pure_translation(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, -1.0)]
        gt = [(x + 3.0, y - 2.0) for x, y in pts]
        rot, t = kabsch_align(pts, gt)
        assert rot == pytest.approx(np.eye(2), abs=1e-12)
        assert t == pytest.approx(np.array([3.0, -2.0]), abs=1e-12)

    def test_exact_on_any_rigid_transform(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            pts = rng.uniform(-10, 10, size=(rng.integers(2, 30), 2))
            th = rng.uniform(-math.pi, math.pi)
            rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            gt = pts @ rot.T + rng.uniform(-5, 5, size=2)
            r, t = kabsch_align(pts, gt)
            assert rmse(apply_rigid(r, t, pts), gt) < 1e-9

    def test_len_mismatch(self):
        with pytest.raises(LengthMismatch):
            kabsch_align([(0, 0), (1, 1)], [(0, 0)])

    def test_degenerate(self):
        with pytest.raises(DegenerateAlignment):
            kabsch_align([(1.0, 1.0)] * 4, [(0.0, 0.0), (1, 0), (0, 1), (1, 1)])

    @given(
        st.lists(
            st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
            min_size=2,
            max_size=12,
        ),
        st.lists(
            st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
            min_size=2,
            max_size=12,
        ),
    )
    @settings(max_examples=60)
    def test_alignment_never_hurts(self, est, gt):
        n = min(len(est), len(gt))
        est, gt = est[:n], gt[:n]
        spread = lambda pts: max(abs(a - pts[0][0]) + abs(b - pts[0][1]) for a, b in pts)
        if spread(est) < 1e-9 or spread(gt) < 1e-9:
            return
        rot, t = kabsch_align(est, gt)
        assert rmse(apply_rigid(rot, t, est), gt) <= rmse(est, gt) + 1e-9


class TestRmse:
    def test_identical(self):
        assert rmse([(0, 0), (1, 1)], [(0, 0), (1, 1)]) == 0.0

    def test_constant_offset(self):
        pts = [(0.0, 0.0), (3.0, 4.0)]
        off = [(x + 1.0, y) for x, y in pts]
        assert rmse(off, pts) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        a = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        b = [(0.0, 0.0), (1.0, 0.0), (2.0, 3.0)]
        assert rmse(a, b) == pytest.approx(math.sqrt(3.0), abs=1e-9)

    def test_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([(0, 0)], [(0, 0), (1, 1)])
