"""Synthetic visual frontend: per-frame word masks, frame matching, and the
inverted index over the masks' bits whose ranking the vanilla ORB-style policy
searches. A vanilla ORB run queries that index once per frame; a gated run
keeps no index and scores only the keyframes of its Wi-Fi gate, from their
word masks.

Pixels are out of scope; a frame's view is a multiset of visual-word ids, its
word bag, drawn from the scene template of the corridor it was taken in.
Matching degrades the shared-word count with a deterministic per-pair dropout
(features randomly absent from individual frames, each word kept with
DROPOUT_KEEP) and gates transform estimation on true geometric separation, at
most INLIER_DISTANCE. Two *distant* frames that share a scene template are
perceptual aliases: matching succeeds and returns the transform implied by
the shared words, which is how false loop closures enter the graph.

Shared-word counts come from `word_masks`: one integer per frame, built once
per dataset, with one bit per visual-word token that at least two frames
carry, so a pair's count is one AND and a popcount. The masks are the only
form in which a frame's words reach any scorer, the inverted index included.
`match_frames` takes that count from its caller. A candidate that shares no
word with the query is rejected before its dropout draw is made, yet the
pipeline still charges it 1.0 visual-comparison unit; rtab candidates are
mostly such pairs, so rtab wall time and loop_cost diverge.

`match_frames` is the accept step: the dropout draw and the transform tests.
The pose step, `MatchResult.relative`, runs only when read, and the pipeline
reads it only for the matches it commits, at most two per frame.

Match draws are counter-based, after Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3" (SC 2011): a pair's k-th draw is the splitmix64 finalizer
(Steele, Lea and Flood, OOPSLA 2014) of the pair's 64-bit key plus k
golden-ratio steps, so it is a pure function of (seed, a_id, b_id, k) and no
generator state exists. The key folds in every 64-bit limb of the seed. Draw 0
is the dropout count, the inverse of Binomial(shared, DROPOUT_KEEP)'s CDF
table; draws 1-3 are the match noise, standard normals by inverse CDF of
open-interval uniforms.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .posegraph import Pose2, between


DROPOUT_KEEP = 0.8  # chance that a shared word survives in a match
INLIER_DISTANCE = 3.0  # separation, m, within which a match recovers the true relative pose
NOISE_XY = 0.05  # std of the noise on an accepted match's translation, m
NOISE_THETA = 0.01  # std of the noise on an accepted match's rotation, rad

# information matrix of every accepted match: the inverse of the injected noise covariance
MATCH_INFORMATION = np.diag([1.0 / NOISE_XY**2, 1.0 / NOISE_XY**2, 1.0 / NOISE_THETA**2])


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's counter step, 2**64 / golden ratio
_OPEN_UNIT = 2.0**-52  # (52-bit integer + 0.5) * _OPEN_UNIT lies in (0, 1), never at either end
_STD_NORMAL = NormalDist()


def _mix64(z: int) -> int:
    """The splitmix64 finalizer: a bijection of [0, 2**64) whose output bits each depend on every input bit."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=64)
def _seed_key(seed: int) -> int:
    """One 64-bit key for a non-negative seed of any size: every 64-bit limb is
    folded in, so seeds 2**64 apart do not share their draws."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = _GAMMA
    while True:
        key = _mix64(key ^ (seed & _MASK64))
        seed >>= 64
        if not seed:
            return key


def _pair_key(seed: int, a_id: int, b_id: int) -> int:
    """The ordered pair's key; every match draw of the pair derives from it."""
    return _mix64(_mix64(_seed_key(seed) ^ a_id) ^ b_id)


def _draw(key: int, k: int) -> int:
    """Draw ``k`` of the pair keyed ``key``: a uniform 64-bit integer."""
    return _mix64((key + k * _GAMMA) & _MASK64)


def _normal(key: int, k: int) -> float:
    """Draw ``k`` as a standard normal: the inverse CDF at its top 52 bits, centred in (0, 1)."""
    return _STD_NORMAL.inv_cdf(((_draw(key, k) >> 12) + 0.5) * _OPEN_UNIT)


@lru_cache(maxsize=None)  # one table per distinct shared-word count, at most the largest word bag
def _dropout_cdf(n: int) -> tuple[int, ...]:
    """P(X <= j) for j in 0..n-1, X ~ Binomial(n, DROPOUT_KEEP), in units of
    2**-64 rounded down, so a uniform 64-bit draw ``u`` gives
    ``X = bisect_right(table, u)``, exact to 2**-64 per count.

    Computed in integers from DROPOUT_KEEP as the decimal it is written as,
    p / d = 4 / 5: term j is C(n, j) p**j (d - p)**(n - j), each from the last
    by an exact division, and the CDF is their running sum over d**n. So no
    term overflows or underflows at any n, the table never decreases and every
    entry is below 2**64: a count of n keeps a non-zero chance.
    """
    keep = Fraction(repr(DROPOUT_KEEP))
    p, q = keep.numerator, keep.denominator - keep.numerator
    scale = keep.denominator**n
    table, cum, term = [], 0, q**n
    for j in range(n):
        cum += term
        table.append((cum << 64) // scale)
        term = term * (n - j) * p // ((j + 1) * q)
    return tuple(table)


@dataclass(frozen=True, eq=False)
class MatchResult:
    """One pair's accept step: the thinned shared-word count and, when a
    transform was found, the pose step's inputs.

    ``ends`` are the two poses, as (x, y, theta) lists, whose relation an
    accepted match recovers (true poses, or template poses for an alias) and
    ``key`` the pair's draw key. `relative` makes the pair's draws 1-3, the
    match noise, on first read and is cached, so each is made once and every
    read returns the same pose.
    Equality compares `num_matches`, `accepted` and `relative`.
    """

    num_matches: int
    ends: tuple[list[float], list[float]] | None = field(default=None, repr=False)
    key: int | None = field(default=None, repr=False)

    @property
    def accepted(self) -> bool:
        return self.ends is not None

    @cached_property
    def relative(self) -> Pose2 | None:
        """Pose of b in a's frame with the match noise added; None unless accepted."""
        if self.ends is None:
            return None
        rel = between(*(Pose2(*end) for end in self.ends))
        nx, ny, nth = (_normal(self.key, k) for k in (1, 2, 3))
        return Pose2(rel.x + NOISE_XY * nx, rel.y + NOISE_XY * ny, rel.theta + NOISE_THETA * nth)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchResult):
            return NotImplemented
        return (self.num_matches, self.accepted, self.relative) == (other.num_matches, other.accepted, other.relative)


_NO_SHARED_WORDS = MatchResult(num_matches=0)  # the result of every zero-share pair


_MASK_ROWS = 32  # masks whose bits are set per numpy pass of word_masks; bounds its memory


def word_masks(words: np.ndarray, offsets: np.ndarray) -> list[int]:
    """One bit mask per bag, bag i being ``words[offsets[i]:offsets[i + 1]]`` (ids below 2**31), such
    that for bags i != j the multiset intersection size of the two is ``(m[i] & m[j]).bit_count()``.

    A bag's k-th copy of a word is the token (word, k), so set intersection size equals multiset
    intersection size. Each token that occurs in at least two of the bags gets a bit, numbered in
    the order of the first bag holding it, so an early bag's mask is a small integer; a token found
    in only one bag can be shared with no other and gets none. The diagonal i == j is not covered:
    ``m[i].bit_count()`` leaves out bag i's single-bag tokens.
    """
    key = np.asarray(words, dtype=np.int64) << 32
    key |= np.repeat(np.arange(len(offsets) - 1, dtype=np.int32), np.diff(offsets))
    key.sort()  # by word, then bag
    bag = key.astype(np.int32)  # the low half
    word = np.right_shift(key, 32, out=key).astype(np.int32)  # the high half
    del key
    start = np.ones(len(word), dtype=bool)  # the first copy of a word in a bag
    start[1:] = (word[1:] != word[:-1]) | (bag[1:] != bag[:-1])
    at = np.arange(len(word), dtype=np.int32)
    copy = at - np.maximum.accumulate(np.where(start, at, 0))  # k: the copies of the word before this one in its bag
    if copy.any():  # to (k, word, bag) order
        order = np.argsort(copy, kind="stable")
        word, bag, copy = word[order], bag[order], copy[order]
        del order
    start[1:] = (word[1:] != word[:-1]) | (copy[1:] != copy[:-1])  # from here, the first copy of a token
    del at, word, copy
    firsts = np.flatnonzero(start)
    shared = np.diff(firsts, append=len(start)) > 1  # the token is in two bags or more
    bit = np.full(len(firsts), -1, dtype=np.int32)
    bit[shared] = np.argsort(np.argsort(bag[firsts[shared]], kind="stable"), kind="stable")  # by first bag
    bit = bit[np.cumsum(start, dtype=np.int32) - 1]
    bag, bit = bag[bit >= 0], bit[bit >= 0]
    masks = []
    for lo in range(0, len(offsets) - 1, _MASK_ROWS):
        sel = (bag >= lo) & (bag < lo + _MASK_ROWS)
        rows = np.zeros((min(_MASK_ROWS, len(offsets) - 1 - lo), bit[sel].max(initial=-1) + 1), dtype=bool)
        rows[bag[sel] - lo, bit[sel]] = True
        masks.extend(int.from_bytes(row, "little") for row in np.packbits(rows, axis=1, bitorder="little"))
    return masks


def _set_bits(mask: int) -> list[int]:
    """The numbers of the bits set in ``mask``, a non-negative int, in ascending order."""
    if not mask:
        return []
    bits = np.unpackbits(np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8),
                         bitorder="little")
    return np.flatnonzero(bits).tolist()


def match_frames(
    a_id: int,
    b_id: int,
    shared: int,
    templates: Sequence[int],
    gt: np.ndarray,
    template_poses: np.ndarray,
    min_matches: int,
    seed: int,
) -> MatchResult:
    """Accept step of matching frames ``a_id`` and ``b_id``; an accepted
    result's `relative` is the pose of b in a's frame.

    ``shared`` is the pair's multiset shared-word count, which the caller
    reads from its `word_masks`; it is not recounted here. The count is
    thinned by an independent per-word dropout, the pair's draw 0, so results
    are a pure function of (seed, a_id, b_id) and the inputs, whatever the
    order pairs are matched in. ``seed`` must be non-negative.
    Acceptance requires num_matches >= min_matches; transform estimation then
    succeeds with the true relative pose when the frames are geometrically
    within `INLIER_DISTANCE`, succeeds with the alias-implied (false) pose when
    distant frames share a scene template, and fails otherwise. ``templates``,
    ``gt`` and ``template_poses`` hold every frame's scene template,
    ground-truth pose and template pose (x, y, theta) by frame id; only a
    pair whose count passes reads the two frames' rows.
    """
    if not shared:
        return _NO_SHARED_WORDS
    key = _pair_key(seed, a_id, b_id)
    num = bisect_right(_dropout_cdf(shared), _draw(key, 0))
    if num < min_matches:
        return MatchResult(num_matches=num)

    a, b = gt[a_id].tolist(), gt[b_id].tolist()  # Python floats: each step computes as on Pose2s
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    separation = (dx * dx + dy * dy) ** 0.5
    if separation <= INLIER_DISTANCE:
        ends = (a, b)
    elif templates[a_id] == templates[b_id]:
        ends = (template_poses[a_id].tolist(), template_poses[b_id].tolist())
    else:
        # enough matched words but no feasible transform: RANSAC-style rejection
        return MatchResult(num_matches=num)
    return MatchResult(num_matches=num, ends=ends, key=key)


class InvertedIndex:
    """Word-mask bit -> keyframes carrying it; queries rank by shared-word count.

    Keyframes and queries are given as `word_masks` bits, and every mask passed to one index
    must come from one `word_masks` call, as ``Dataset.word_masks`` does: a bit names a
    token only within its call. A keyframe's count is then its multiset shared-word count
    with the query, for any two different frames. A mask of 0 shares no word with any other
    frame, so inserting it posts nothing.
    """

    def __init__(self) -> None:
        self._postings: dict[int, list[int]] = {}  # keyframes in insertion order
        self._ids: set[int] = set()

    def insert(self, keyframe_id: int, mask: int) -> None:
        if keyframe_id in self._ids:
            raise ValueError(f"keyframe {keyframe_id} already indexed")
        self._ids.add(keyframe_id)
        for b in _set_bits(mask):
            self._postings.setdefault(b, []).append(keyframe_id)

    def query_scored(self, mask: int) -> list[tuple[int, int]]:
        """(keyframe, multiset shared-word count) sharing at least one word,
        ordered by count desc then id asc."""
        postings = self._postings
        counts = Counter(chain.from_iterable(postings[b] for b in _set_bits(mask) if b in postings))
        return sorted(counts.items(), key=lambda e: (-e[1], e[0]))

    def query(self, mask: int) -> list[int]:
        """Keyframes sharing at least one word, by shared count desc then id asc."""
        return [kf for kf, _n in self.query_scored(mask)]
