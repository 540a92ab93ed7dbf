"""Relations between whole runs whose outputs must agree (metamorphic tests)."""

from __future__ import annotations

import pytest

from wifislam import gating
from wifislam.gating import PolicyParams, run_pipeline
from wifislam.posegraph import Pose2, compose


def _est_bits(rec) -> str:
    """The estimated trajectory in a form that tells -0.0 from 0.0."""
    return repr([(k, t, p.x, p.y, p.theta) for k, t, p in rec.est])


@pytest.mark.parametrize("preset", ["a_hall", "b_hall", "c_hall", "j_hall"])
def test_a_full_gate_gives_vanilla_orb(monkeypatch, dataset_cache, preset):
    """Gated ORB whose gate holds every earlier keyframe compares, commits and
    optimizes exactly as vanilla ORB: a gated candidate list is the vanilla
    list cut to the gate."""
    ds = dataset_cache(preset, 0)
    vanilla = run_pipeline(ds, PolicyParams(policy="orb", gated=False, seed=0))
    # every frame joins the store at the end of its step, so the store's members are the earlier keyframes
    monkeypatch.setattr(gating, "members_of", lambda store, sims: [k for c in store.clusters for k in c.members])
    gated = run_pipeline(ds, PolicyParams(policy="orb", gated=True, seed=0))
    assert gated.subset_violations == gated.gating_violations == 0
    assert gated.frames == vanilla.frames
    assert _est_bits(gated) == _est_bits(vanilla)


def test_no_possible_match_gives_dead_reckoning(dataset_cache):
    """With ``min_matches`` above every word bag no match is accepted, so each
    policy commits no edge but odometry, and a graph of odometry edges alone
    starts at the error floor: every estimate is the composed odometry chain."""
    ds = dataset_cache("j_hall", 0)
    assert run_pipeline(ds, PolicyParams(policy="orb", gated=True, seed=0)).loop_edges  # closes loops at defaults
    frames = ds.frames
    chain = [Pose2(*frames.gt[0].tolist())]
    for step in frames.odom[1:].tolist():
        chain.append(compose(chain[-1], Pose2(*step)))
    dead_reckoning = repr([(i, t, p.x, p.y, p.theta) for (i, t), p in zip(enumerate(frames.t.tolist()), chain)])
    unreachable = max(len(frames.appearance(i).words) for i in range(len(frames))) + 1
    for policy in ("orb", "rgbd", "rtab"):
        for gated in (False, True):
            rec = run_pipeline(ds, PolicyParams(policy=policy, gated=gated, min_matches=unreachable, seed=0))
            assert rec.loop_edges == []
            assert rec.graph.edges.tolist() == [[k - 1, k] for k in range(1, len(frames))]
            assert rec.opt_iterations == 0
            assert _est_bits(rec) == dead_reckoning, (policy, gated)
