"""Relations between whole runs whose outputs must agree (metamorphic tests)."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from wifislam import gating
from wifislam.gating import PolicyParams, run_pipeline, save_run
from wifislam.posegraph import Pose2, compose
from wifislam.signature import mask_bssid, similarity_matrix


def _est_bits(rec) -> str:
    """The estimated trajectory in a form that tells -0.0 from 0.0."""
    return repr([(k, t, p.x, p.y, p.theta) for k, t, p in rec.est])


PRESETS = ["a_hall", "b_hall", "c_hall", "j_hall"]


@pytest.mark.parametrize("policy, preset", [*(("orb", p) for p in PRESETS), *(("rtab", p) for p in PRESETS)],
                         ids=[*PRESETS, *(f"rtab-{p}" for p in PRESETS)])
def test_a_full_gate_gives_vanilla_orb(monkeypatch, dataset_cache, policy, preset):
    """A gated run whose gate holds every earlier keyframe compares, commits and
    optimizes exactly as the vanilla run of its policy. ORB: a gated candidate
    list is the vanilla list cut to the gate. rtab, with the default unbounded
    real-time budget: nothing leaves working memory, whose gated candidates are
    then all of it, and every working-memory keyframe is immune."""
    ds = dataset_cache(preset, 0)
    vanilla = run_pipeline(ds, PolicyParams(policy=policy, gated=False, seed=0))
    # every frame joins the store at the end of its step, so the store's members are the earlier keyframes
    monkeypatch.setattr(gating, "members_of", lambda store, sims: [k for c in store.clusters for k in c.members])
    gated = run_pipeline(ds, PolicyParams(policy=policy, gated=True, seed=0))
    assert gated.subset_violations == gated.gating_violations == 0
    expected = dict(vanilla.frames)
    if policy == "rtab":  # only a gated run makes keyframes immune
        assert gated.frames["immune"] == gated.frames["wm"]
        expected["immune"] = gated.frames["wm"]
    assert gated.frames == expected
    assert gated.opt_iterations == vanilla.opt_iterations
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
    unreachable = int(np.diff(frames.offsets).max()) + 1  # past the largest word bag
    for policy in ("orb", "rgbd", "rtab"):
        for gated in (False, True):
            rec = run_pipeline(ds, PolicyParams(policy=policy, gated=gated, min_matches=unreachable, seed=0))
            assert rec.loop_edges == []
            assert rec.graph.edges.tolist() == [[k - 1, k] for k in range(1, len(frames))]
            assert rec.opt_iterations == 0
            assert _est_bits(rec) == dead_reckoning, (policy, gated)


def _mac(value: int) -> str:
    return ":".join(f"{value >> shift & 0xFF:02X}" for shift in range(40, -1, -8))


@pytest.mark.parametrize("preset", PRESETS)
def test_relabelled_bssids_give_the_same_runs(dataset_cache, tmp_path, preset):
    """Renaming the BSSIDs by a bijection that keeps the order of their masked
    (per-AP) names, and each BSSID's radio nibble, leaves every run output
    unchanged but the AP names of the cluster dump: a signature sums over its
    APs in ascending name order and reads nothing else of a name."""
    ds = dataset_cache(preset, 0)
    aps = sorted({mask_bssid(b) for b in ds.scans.bssids})
    renamed = {ap: _mac(0x02_C0_FF_EE_00_00 + 0x130 * k) for k, ap in enumerate(aps)}  # increasing, low nibble 0
    assert sorted(renamed.values()) == list(renamed.values()) and not set(renamed.values()) & set(aps)
    bssids = tuple(renamed[mask_bssid(b)][:-1] + b[-1] for b in ds.scans.bssids)
    relabelled = replace(ds, scans=replace(ds.scans, bssids=bssids))
    # every similarity keeps its bits; a bijection that reverses the order moves some in the last place
    assert (similarity_matrix(relabelled.signatures) == similarity_matrix(ds.signatures)).all()
    original_name = {new: ap for ap, new in renamed.items()}
    for policy in gating.POLICIES:
        params = PolicyParams(policy=policy, gated=True, seed=0)
        runs = [save_run(run_pipeline(d, params), tmp_path / f"{policy}{k}") for k, d in enumerate((ds, relabelled))]
        files = sorted(p.name for p in runs[0].iterdir())
        assert files == sorted(p.name for p in runs[1].iterdir())
        for name in files:
            a, b = ((run / name).read_text() for run in runs)
            if name == "cluster_representatives.jsonl":
                assert a != b  # the dump names the APs
                dump = [json.loads(line) for line in b.splitlines()]
                for rec in dump:
                    rec["entries"] = {original_name[ap]: s for ap, s in rec["entries"].items()}
                b = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in dump)
            if name != "timings.json":
                assert a == b, (policy, name)
