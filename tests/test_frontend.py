from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wifislam import frontend, simworld
from wifislam.frontend import (
    DROPOUT_KEEP,
    INLIER_DISTANCE,
    MATCH_INFORMATION,
    NOISE_THETA,
    NOISE_XY,
    Appearance,
    FrameTruth,
    InvertedIndex,
    MatchResult,
    match_frames,
)
from wifislam.gating import PolicyParams
from wifislam.posegraph import Pose2, between
from wifislam.simworld import template_pose_of


def app(words, template=0):
    return Appearance(words=tuple(sorted(words)), place_template=template)


def ref_shared(a, b):
    """Reference multiset intersection size, independent of the frontend's bag encoding."""
    return sum((Counter(a.words) & Counter(b.words)).values())


def flat_bags(bags):
    """Word bags as `frontend.word_masks` takes them: one flat int64 array and its offsets."""
    return np.array([w for b in bags for w in b], dtype=np.int64), np.cumsum([0, *map(len, bags)])


def word_masks(apps):
    """`frontend.word_masks` of Appearance bags, handed over as one flat word array."""
    return frontend.word_masks(*flat_bags([a.words for a in apps]))


def shared_word_count(a, b):
    """Multiset intersection size of the two word bags: the one-pair view of `word_masks`."""
    ma, mb = word_masks((a, b))
    return (ma & mb).bit_count()


def match(a_id, b_id, a, b, *rest, **kw):
    """match_frames given the pair's reference shared-word count."""
    return match_frames(a_id, b_id, ref_shared(a, b), a.place_template, b.place_template, *rest, **kw)


def brute_scored(q, apps):
    """(keyframe, shared) for every keyframe sharing a word, by shared desc then id asc."""
    scored = ((kf, ref_shared(q, a)) for kf, a in apps.items())
    return sorted(((kf, n) for kf, n in scored if n > 0), key=lambda e: (-e[1], e[0]))


@lru_cache(maxsize=None)
def ref_dropout_cdf(n):
    """P(X <= j) for j in 0..n-1, X ~ Binomial(n, DROPOUT_KEEP), as exact fractions from `math.comb`."""
    p = Fraction(repr(DROPOUT_KEEP))  # 4/5, the decimal the constant is written as
    cdf, cum = [], Fraction(0)
    for j in range(n):
        cum += comb(n, j) * p**j * (1 - p) ** (n - j)
        cdf.append(cum)
    return cdf


def ref_count(n, u):
    """Inverse of the exact CDF at the 64-bit draw ``u``: the least j with u < floor(P(X <= j) * 2**64)."""
    return next((j for j, f in enumerate(ref_dropout_cdf(n)) if u < math.floor(f * 2**64)), n)


def ref_normal(u):
    """Standard normal at the 64-bit draw ``u``: the inverse CDF at its top 52 bits, centred in (0, 1)."""
    return NormalDist().inv_cdf(Fraction((u >> 12) * 2 + 1, 2**53))


def always_draw_match(a_id, b_id, a, b, truth_a, truth_b, min_matches, seed):
    """(num_matches, accepted, relative) of match_frames without the zero-share
    exit or the deferred pose: every pair derives its key, a zero-share pair
    counts 0 matches, and every accepted pair draws its pose at once. The key and
    its draws are the frontend's; the inversions are this file's exact ones."""
    shared = ref_shared(a, b)
    key = frontend._pair_key(seed, a_id, b_id)
    num = ref_count(shared, frontend._draw(key, 0)) if shared else 0
    if num < min_matches:
        return num, False, None
    dx = truth_a.gt_pose.x - truth_b.gt_pose.x
    dy = truth_a.gt_pose.y - truth_b.gt_pose.y
    if (dx * dx + dy * dy) ** 0.5 <= INLIER_DISTANCE:
        rel = between(truth_a.gt_pose, truth_b.gt_pose)
    elif a.place_template == b.place_template:
        rel = between(truth_a.template_pose, truth_b.template_pose)
    else:
        return num, False, None
    nx, ny, nth = (ref_normal(frontend._draw(key, k)) for k in (1, 2, 3))
    noisy = Pose2(rel.x + NOISE_XY * nx, rel.y + NOISE_XY * ny, rel.theta + NOISE_THETA * nth)
    return num, True, noisy


def truth(x, y, theta=0.0, tx=0.0, ty=0.0, tth=0.0):
    return FrameTruth(gt_pose=Pose2(x, y, theta), template_pose=Pose2(tx, ty, tth))


MIN_MATCHES = 10


class TestMatchFrames:
    def test_self_match_near_identity(self):
        a = app(range(40))
        t = truth(1.0, 2.0, 0.3, tx=5.0)
        mr = match(0, 1, a, a, t, t, MIN_MATCHES, seed=0)
        assert mr.accepted
        assert mr.num_matches >= MIN_MATCHES
        assert math.hypot(mr.relative.x, mr.relative.y) < 0.3

    def test_disjoint_rejected(self):
        mr = match(0, 1, app(range(40)), app(range(100, 140)), truth(0, 0), truth(0, 0), MIN_MATCHES, 0)
        assert mr.num_matches == 0 and not mr.accepted and mr.relative is None

    def test_alias_injects_false_transform(self):
        # same template, far apart: accepted, with the template-implied pose
        a = app(range(40), template=7)
        b = app(range(40), template=7)
        ta = truth(0.0, 0.0, 0.0, tx=2.0, ty=0.0)
        tb = truth(20.0, 5.0, 0.0, tx=2.0, ty=0.0)
        mr = match(3, 4, a, b, ta, tb, MIN_MATCHES, seed=1)
        assert mr.accepted
        assert math.hypot(mr.relative.x, mr.relative.y) < 0.5  # aliases look co-located
        true_sep = 20.6
        assert abs(math.hypot(mr.relative.x, mr.relative.y) - true_sep) > 10

    def test_distant_different_template_demoted(self):
        a = app(range(40), template=1)
        b = app(range(40), template=2)
        mr = match(0, 1, a, b, truth(0, 0), truth(30, 0), MIN_MATCHES, 0)
        assert mr.num_matches >= MIN_MATCHES
        assert not mr.accepted and mr.relative is None

    def test_deterministic(self):
        a, b = app(range(60)), app(range(30, 90))
        args = (5, 9, a, b, truth(0, 0), truth(1, 0), MIN_MATCHES, 123)
        r1, r2 = match(*args), match(*args)
        assert r1 == r2

    def test_monotone_in_min_matches(self):
        a, b = app(range(60)), app(range(30, 90))
        prev_accepted = True
        for mm in (1, 5, 10, 20, 25, 28, 29, 30, 40):
            mr = match(5, 9, a, b, truth(0, 0), truth(1, 0), mm, 77)
            if mr.accepted:
                assert prev_accepted, "raising min_matches converted a rejection to acceptance"
                assert mr.num_matches >= mm
            else:
                prev_accepted = False

    def test_inlier_distance_gates_feasibility(self):
        a = app(range(60), template=1)
        b = app(range(60), template=2)
        near = match(0, 1, a, b, truth(0, 0), truth(INLIER_DISTANCE - 1.0, 0), MIN_MATCHES, 0)
        far = match(0, 1, a, b, truth(0, 0), truth(INLIER_DISTANCE + 1.0, 0), MIN_MATCHES, 0)
        assert near.accepted and not far.accepted

    def test_information_is_inverse_covariance(self):
        assert np.array_equal(MATCH_INFORMATION, np.diag([1 / 0.05**2, 1 / 0.05**2, 1 / 0.01**2]))

    def test_equals_always_draw_reference_on_every_pair(self, dataset_cache):
        ds = dataset_cache("b_hall", 0)
        apps = [ds.frames.appearance(i) for i in range(len(ds.frames))]
        poses = [Pose2(*p) for p in ds.frames.gt.tolist()]
        truths = [FrameTruth(p, template_pose_of(ds.world, p, a.place_template)) for p, a in zip(poses, apps)]
        min_matches = PolicyParams().min_matches
        masks = frontend.word_masks(ds.frames.words, ds.frames.offsets)
        zero_share = accepted = 0
        for ia, fa in enumerate(apps):
            for ib, fb in enumerate(apps):
                shared = ref_shared(fa, fb)
                if ia != ib:  # the pipeline's count; word_masks leaves the diagonal out
                    assert (masks[ia] & masks[ib]).bit_count() == shared, (ia, ib)
                rest = (truths[ia], truths[ib], min_matches, 0)
                got = match_frames(ia, ib, shared, fa.place_template, fb.place_template, *rest)  # the accept step
                pose = got.relative  # the pose step
                assert (got.num_matches, got.accepted, pose) == always_draw_match(ia, ib, fa, fb, *rest), (ia, ib)
                zero_share += shared == 0
                accepted += got.accepted
        assert zero_share > 0 and accepted > 0

    def test_uses_the_callers_count(self):
        # the count is the caller's: equal bags with shared=0 draw nothing, disjoint bags with a count can match
        a, b = app(range(40)), app(range(100, 140))
        t = truth(0, 0)
        assert match(0, 1, a, a, t, t, MIN_MATCHES, 0) == match_frames(0, 1, 40, 0, 0, t, t, MIN_MATCHES, 0)
        assert match_frames(0, 1, 0, 0, 0, t, t, MIN_MATCHES, 0) == MatchResult(0)
        assert match(0, 1, a, b, t, t, MIN_MATCHES, 0) == MatchResult(0)
        assert match_frames(0, 1, 40, 0, 0, t, t, MIN_MATCHES, 0).accepted

    def test_pose_step_draws_once(self, monkeypatch):
        # the accept step makes draw 0 only; the pose step makes draws 1-3 on first read and keeps the pose
        a, b = app(range(60)), app(range(30, 90))
        draws, real_draw = [], frontend._draw
        monkeypatch.setattr(frontend, "_draw", lambda key, k: draws.append(k) or real_draw(key, k))
        mr = match(5, 9, a, b, truth(0, 0), truth(1, 0), MIN_MATCHES, 123)
        assert mr.accepted and draws == [0]
        pose = mr.relative
        assert draws == [0, 1, 2, 3]
        assert mr.relative is pose and draws == [0, 1, 2, 3]
        assert mr == match(5, 9, a, b, truth(0, 0), truth(1, 0), MIN_MATCHES, 123)
        del draws[:]
        rejected = match(5, 9, a, b, truth(0, 0), truth(1, 0), 1000, 123)
        assert not rejected.accepted and rejected.relative is None and rejected.key is None
        assert draws == [0]


def largest_preset_bag(dataset_cache):
    return max(int(np.diff(dataset_cache(name, 0).frames.offsets).max()) for name in simworld.preset_worlds())


class TestCounterDraws:
    """The match draws: a pure function of (seed, a_id, b_id, k), with no generator state."""

    def test_draws_are_splitmix64(self):
        # key 0's draws 1-3 are splitmix64's first three outputs from state 0 (Steele, Lea and Flood, 2014)
        assert [frontend._draw(0, k) for k in (1, 2, 3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_dropout_cdf_equals_exact_reference(self, dataset_cache):
        largest = largest_preset_bag(dataset_cache)
        assert largest == 136  # three bins of 38 corridor and 6 alias words, plus 4 jitter words
        for n in (1, 2, 3, 7, 20, 60, 100, largest, 500, 1600):  # 0.2**n underflows a float from n = 463
            table = frontend._dropout_cdf(n)
            assert len(table) == n
            assert list(table) == [math.floor(f * 2**64) for f in ref_dropout_cdf(n)], n
            assert all(x <= y for x, y in zip(table, table[1:])), n
            assert table[-1] < 2**64, n  # below 1 before the last count: a count of n can be drawn
        assert frontend._dropout_cdf(1600)[0] == 0 and frontend._dropout_cdf(1600)[-1] == 2**64 - 1

    def test_binomial_fits_exact_pmf(self, dataset_cache):
        # chi-square of 20,000 counts per n against the exact pmf, cells merged until each expects >= 20
        for n in (1, 5, 20, 60, largest_preset_bag(dataset_cache)):
            cdf = [float(f) for f in ref_dropout_cdf(n)] + [1.0]
            pmf = np.diff([0.0] + cdf)
            draws = 20_000
            bag = app(range(n))
            counts = np.bincount(
                [match(n, b, bag, bag, truth(0, 0), truth(0, 0), n + 1, 0).num_matches for b in range(draws)],
                minlength=n + 1,
            )
            observed, expected, o, e = [], [], 0, 0.0
            for j in range(n + 1):
                o, e = o + counts[j], e + draws * pmf[j]
                if e >= 20:
                    observed.append(o)
                    expected.append(e)
                    o, e = 0, 0.0
            observed[-1] += o
            expected[-1] += e
            chi2 = sum((ob - ex) ** 2 / ex for ob, ex in zip(observed, expected))
            assert stats.chi2.sf(chi2, len(observed) - 1) > 1e-3, (n, chi2, len(observed))
            mean = counts @ np.arange(n + 1) / draws
            assert abs(mean - n * DROPOUT_KEEP) < 5 * math.sqrt(n * DROPOUT_KEEP * (1 - DROPOUT_KEEP) / draws), n

    def test_normals_are_standard(self):
        # the match noise of 10,000 keys, 30,000 normals: mean, variance and a KS bound at fixed seeds
        keys = [frontend._pair_key(7, a, a + 1) for a in range(10_000)]
        z = np.array([frontend._normal(key, k) for key in keys for k in (1, 2, 3)])
        n = len(z)
        assert abs(z.mean()) < 4 / math.sqrt(n)
        assert abs(z.var() - 1.0) < 4 * math.sqrt(2 / n)
        assert stats.kstest(z, "norm").statistic < 1.63 / math.sqrt(n)  # the 1% critical value
        # draws 1-3 of one key are not correlated with each other
        by_k = z.reshape(-1, 3)
        assert np.abs(np.corrcoef(by_k, rowvar=False) - np.eye(3)).max() < 4 / math.sqrt(len(keys))

    def test_order_independent(self, dataset_cache):
        # a pair's result is a function of the pair: shuffled, with cold caches, every pair draws the same
        ds = dataset_cache("c_hall", 0)
        templates = ds.frames.template.tolist()
        poses = [Pose2(*p) for p in ds.frames.gt.tolist()]
        truths = [FrameTruth(p, template_pose_of(ds.world, p, tpl)) for p, tpl in zip(poses, templates)]
        masks = ds.word_masks
        pairs = [(i, j) for i in range(0, len(poses), 3) for j in range(i) if masks[i] & masks[j]]

        def results(order):
            return {
                (i, j): (mr.num_matches, mr.accepted, mr.relative)
                for i, j in order
                for mr in [match_frames(i, j, (masks[i] & masks[j]).bit_count(), templates[i], templates[j],
                                        truths[i], truths[j], 10, 3)]
            }

        first = results(pairs)
        frontend._dropout_cdf.cache_clear()
        frontend._seed_key.cache_clear()
        shuffled = pairs[:]
        random.Random(0).shuffle(shuffled)
        assert shuffled != pairs and results(shuffled) == first
        assert sum(acc for _n, acc, _r in first.values()) > 100

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1, 2**70])
    def test_seeds_two_to_the_64_apart_differ(self, seed):
        # every 64-bit limb of the seed enters the key: a seed and the one 2**64 above share no draws
        assert PolicyParams(seed=seed + 2**64).seed == seed + 2**64
        a, b = app(range(60)), app(range(30, 90))
        low = [match(i, i + 1, a, b, truth(0, 0), truth(1, 0), MIN_MATCHES, seed) for i in range(50)]
        high = [match(i, i + 1, a, b, truth(0, 0), truth(1, 0), MIN_MATCHES, seed + 2**64) for i in range(50)]
        assert frontend._seed_key(seed) != frontend._seed_key(seed + 2**64)
        assert [r.num_matches for r in low] != [r.num_matches for r in high]
        assert all(x.relative != y.relative for x, y in zip(low, high) if x.accepted and y.accepted)

    def test_negative_seed_rejected(self):
        a = app(range(40))
        with pytest.raises(ValueError, match="seed must be non-negative"):
            match(0, 1, a, a, truth(0, 0), truth(0, 0), MIN_MATCHES, -1)


class TestSharedWordCount:
    def test_multiset_semantics(self):
        a = app([1, 1, 2, 3])
        b = app([1, 2, 2, 4])
        assert shared_word_count(a, b) == ref_shared(a, b) == 2  # one 1 and one 2

    def test_symmetric(self):
        a, b = app([1, 2, 3, 3]), app([3, 3, 3, 5])
        assert shared_word_count(a, b) == shared_word_count(b, a) == ref_shared(a, b) == 2


BAGS = st.lists(st.integers(0, 7), min_size=1, max_size=16)  # unsorted; a small vocabulary forces repeats


@settings(max_examples=200, deadline=None)
@given(a=BAGS, b=BAGS, disjoint=st.booleans())
def test_shared_word_count_matches_reference(a, b, disjoint):
    if disjoint:
        b = [w + 100 for w in b]
    qa, qb = Appearance(tuple(a), 0), Appearance(tuple(b), 0)
    assert shared_word_count(qa, qb) == ref_shared(qa, qb)
    if disjoint:
        assert shared_word_count(qa, qb) == 0
        assert word_masks((qa, qb)) == [0, 0]


@settings(max_examples=200, deadline=None)
@given(
    bags=st.lists(BAGS, min_size=2, max_size=10),
    far=st.lists(BAGS, max_size=3),
    singles=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=6, unique=True), max_size=3),
)
def test_word_masks_match_reference_on_every_pair(bags, far, singles):
    # `far` bags use a vocabulary no other bag has; `singles` bags hold words found in no other bag
    far = [[w + 100 for w in ws] for ws in far]
    singles = [[1000 + 10 * k + w for w in ws] for k, ws in enumerate(singles)]
    words = bags + far + singles
    apps = [Appearance(tuple(ws), 0) for ws in words]
    masks = word_masks(apps)
    assert len(masks) == len(apps)
    for i, a in enumerate(apps):
        for j, b in enumerate(apps):
            if i != j:
                assert (masks[i] & masks[j]).bit_count() == ref_shared(a, b), (i, j)
    for m in masks[len(bags) + len(far):]:
        assert m == 0


@settings(max_examples=100, deadline=None)
@given(bags=st.lists(BAGS, min_size=1, max_size=10), n_new=st.integers(1, 4))
def test_appending_single_bag_words_keeps_the_masks(bags, n_new):
    apps = [Appearance(tuple(ws), 0) for ws in bags]
    fresh = [Appearance((1000 + 2 * k, 1000 + 2 * k + 1), 0) for k in range(n_new)]
    masks = word_masks(apps + fresh)
    assert masks[: len(apps)] == word_masks(apps)
    assert masks[len(apps):] == [0] * n_new


def test_word_masks_leave_the_diagonal_out():
    # a bag's own popcount counts only its tokens that another bag shares
    a, b = app([1, 1, 2, 3]), app([1, 4])
    ma, mb = word_masks([a, b])
    assert (ma & mb).bit_count() == ref_shared(a, b) == 1
    assert ma.bit_count() == 1 < ref_shared(a, a) == 4


EDGE_WORDS = st.integers(0, 7) | st.sampled_from([0, 2**31 - 2, 2**31 - 1])  # the ends of the word id range


@settings(max_examples=100, deadline=None)
@given(
    bags=st.lists(st.lists(EDGE_WORDS, max_size=12), min_size=2, max_size=8),
    word=EDGE_WORDS,
    copies=st.tuples(st.integers(300, 340), st.integers(0, 345)),
    data=st.data(),
)
def test_flat_word_masks_match_reference_on_every_pair(bags, word, copies, data):
    # bag 0 holds one word at least 300 times and bag 1 some of those copies, in any order in each bag
    for k, n in enumerate(copies):
        bags[k] = data.draw(st.permutations(bags[k] + [word] * n), label=f"bag {k}")
    masks = frontend.word_masks(*flat_bags(bags))
    assert len(masks) == len(bags)
    for i, a in enumerate(bags):
        for j, b in enumerate(bags):
            if i != j:
                assert (masks[i] & masks[j]).bit_count() == ref_shared(app(a), app(b)), (i, j)
    # bits are numbered by the first bag holding their token, so bag i's mask fits the tokens of bags 0..i
    tokens = [{(w, k) for w, n in Counter(b).items() for k in range(n)} for b in bags]
    shared, seen = {t for t in set().union(*tokens) if sum(t in ts for ts in tokens) > 1}, set()
    for i, ts in enumerate(tokens):
        seen |= ts & shared
        assert masks[i].bit_length() <= len(seen), i


@settings(max_examples=100, deadline=None)
@given(bags=st.lists(BAGS, min_size=1, max_size=12), q=BAGS, disjoint=st.booleans())
def test_query_scored_matches_reference_scan(bags, q, disjoint):
    idx = InvertedIndex()
    apps = {}
    for kf, words in enumerate(bags):
        apps[kf] = Appearance(tuple(words), 0)
        idx.insert(kf, apps[kf])
    query = Appearance(tuple(w + 100 for w in q) if disjoint else tuple(q), 0)
    expected = brute_scored(query, apps)
    assert idx.query_scored(query) == expected
    assert idx.query(query) == [kf for kf, _n in expected]
    if disjoint:
        assert expected == []


class TestInvertedIndex:
    def test_empty_query(self):
        assert InvertedIndex().query(app([1, 2])) == []

    def test_count_ordering(self):
        idx = InvertedIndex()
        idx.insert(1, app([1, 2, 3]))
        idx.insert(2, app([3]))
        out = idx.query(app([1, 2, 3]))
        assert out == [1, 2]

    def test_zero_overlap_absent(self):
        idx = InvertedIndex()
        idx.insert(1, app([10, 11]))
        assert idx.query(app([1, 2])) == []

    def test_ties_break_by_id(self):
        idx = InvertedIndex()
        idx.insert(5, app([1, 9]))
        idx.insert(2, app([1, 8]))
        assert idx.query(app([1])) == [2, 5]

    def test_rejects_empty_words(self):
        with pytest.raises(ValueError):
            InvertedIndex().insert(1, Appearance(words=(), place_template=0))

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(4)
        idx = InvertedIndex()
        apps = {}
        for kf in range(500):
            words = tuple(sorted(rng.choice(200, size=rng.integers(3, 25), replace=True).tolist()))
            apps[kf] = app(words)
            idx.insert(kf, apps[kf])
        for _ in range(100):
            q = app(rng.choice(200, size=rng.integers(3, 25), replace=True).tolist())
            got = idx.query(q)
            assert got == [kf for kf, _n in brute_scored(q, apps)]

