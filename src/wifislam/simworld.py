"""Synthetic indoor worlds: floor plans, access points, wall-attenuated RSSI read into
columns of scan readings, dwelled trajectories, aliased appearances, and noisy odometry.

The appearance model lays a stream of visual words along each corridor
(one bag per meter-sized bin, a frame sees its bin plus a window around it).
Every corridor owns a mostly-unique word stream; corridors assigned the same
scene template additionally share a small per-bin word subset. Two frames at
the same along-corridor position in template twins therefore match well
enough to pass low min-matches thresholds while true revisits share far
more words - which is exactly the perceptual-aliasing regime the gating
layer is meant to fix.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, asdict, fields, is_dataclass
from functools import cache, cached_property
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Sequence, TextIO, TypeVar

import numpy as np
from scipy.spatial import cKDTree

from . import frontend
from .posegraph import Pose2, _wrap_angles, between, wrap_angle
from .signature import Scans, Signature, associate_frames, mask_bssid, signatures_of

FRAME_RATE_HZ = 2.0  # simulated keyframe rate while moving
LOOP_PAIR_RADIUS_M = 2.0  # gt loop pairs: closer than this ...
LOOP_PAIR_GAP_S = 30.0  # ... and further apart in time than this

# word-id spaces (disjoint while each field keeps to its width; see _corridor_word)
_ALIAS_WORD_BASE = 1 << 28
_JITTER_WORD_BASE = 1 << 29
MAX_WORD_ID = 1 << 31  # visual word ids lie below this


class DataError(ValueError):
    """A dataset or world file read from outside the program is malformed or unusable.

    The loader's message reads ``<file>:<line>: <reason>`` for a fault in a row of a
    dataset CSV, and ``<file>: <reason>`` for one in a world file.
    """


class BadWorld(DataError):
    """A world configuration violates a structural limit."""


def check_setting_types(settings, finite: bool = False) -> None:
    """TypeError for a setting, nested too, not of its declared type (a bool is no number; other declared
    types take any non-bool); ValueError for a NaN float, any non-finite one when ``finite``, or an int < 0."""
    accepted = {"bool": bool, "int": numbers.Integral, "float": numbers.Real, "str": str}  # by declared type
    for f in fields(settings):
        v = getattr(settings, f.name)
        if is_dataclass(v):
            check_setting_types(v, finite)
        elif not isinstance(v, accepted.get(f.type, object)) or isinstance(v, bool) != (f.type == "bool"):
            raise TypeError(f"{f.name} must be {f.type}, got {v!r}")
        elif f.type == "float" and math.isnan(v):
            raise ValueError(f"{f.name} must not be NaN")
        elif f.type == "float" and finite and math.isinf(v):
            raise ValueError(f"{f.name} must be finite, got {v!r}")
        elif f.type == "int" and v < 0:
            raise ValueError(f"{f.name} must be >= 0")


@dataclass(frozen=True)
class Wall:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        check_setting_types(self, finite=True)


@dataclass(frozen=True)
class AccessPoint:
    ap_id: str  # masked MAC
    x: float
    y: float
    tx_power_at_1m: float


@dataclass(frozen=True)
class PropagationParams:
    path_loss_exponent: float = 3.0
    wall_loss_db: float = 5.0
    noise_sigma_db: float = 2.0
    visibility_floor_dbm: float = -95.0

    def __post_init__(self) -> None:
        if self.path_loss_exponent <= 0 or self.wall_loss_db < 0 or self.noise_sigma_db < 0:
            raise BadWorld("invalid propagation parameters")


@dataclass(frozen=True)
class Corridor:
    x1: float
    y1: float
    x2: float
    y2: float
    template: int

    @property
    def length(self) -> float:
        return math.hypot(self.x2 - self.x1, self.y2 - self.y1)

    @property
    def heading(self) -> float:
        return math.atan2(self.y2 - self.y1, self.x2 - self.x1)


SHAPES = ("square_loop", "figure_eight", "nine_loop", "long_track")  # the cases of _shape_corridors


@dataclass(frozen=True)
class TrajectorySpec:
    shape: str  # one of SHAPES
    scale: float
    speed: float = 1.4
    pause_every: float = 3.5
    pause_duration: float = 10.0
    laps: float = 1.0

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise BadWorld(f"unknown trajectory shape {self.shape!r}; valid shapes: {', '.join(SHAPES)}")
        if min(self.scale, self.speed, self.pause_every, self.pause_duration, self.laps) <= 0:
            raise BadWorld("trajectory magnitudes must be positive")


@dataclass(frozen=True)
class AppearanceModel:
    bin_meters: float = 1.0
    window_bins: int = 1
    unique_words_per_bin: int = 38
    alias_words_per_bin: int = 6
    jitter_words: int = 4


@dataclass(frozen=True)
class OdomNoise:
    sigma_xy_per_m: float = 0.01
    sigma_theta_per_m: float = 0.002

    def sigmas(self, step: float) -> tuple[float, float]:
        """Standard deviations of the xy and theta odometry error over a ``step`` metres long."""
        root = math.sqrt(max(step, 1e-6))
        return self.sigma_xy_per_m * root, self.sigma_theta_per_m * root


@dataclass(frozen=True)
class WorldConfig:
    name: str
    trajectory: TrajectorySpec
    template_of: dict[int, int]  # corridor index -> scene template
    ap_count: int
    tx_power_at_1m: float = -30.0
    propagation: PropagationParams = PropagationParams()
    extra_walls: tuple[Wall, ...] = ()
    margin: float = 4.0
    odom_noise: OdomNoise = OdomNoise()
    appearance: AppearanceModel = AppearanceModel()
    scans_per_dwell: int = 5
    bssids_per_ap: int = 2

    def __post_init__(self) -> None:
        """TypeError or ValueError for a setting of the wrong type, a non-finite float, a
        ``bin_meters`` <= 0, word counts that leave every word bag empty, a non-int template or
        a word count, template or corridor's number of bins past its field of the word ids;
        BadWorld for more APs than their MACs can number, or a path that may hold more frames
        than the word ids or more dwells than the dwell indices have room for, or more route
        legs than `_ROUTE_LEGS`. The path is measured from its lap length, so no route is built."""
        check_setting_types(self, finite=True)  # each Wall has checked itself
        if self.bssids_per_ap > 15:  # the radio number is the BSSID's last hex digit
            raise BadWorld(f"bssids_per_ap must be at most 15, got {self.bssids_per_ap}")
        if self.ap_count > _AP_IDS:
            raise BadWorld(f"ap_count must be at most {_AP_IDS}, got {self.ap_count}")
        model = self.appearance
        if model.bin_meters <= 0:
            raise ValueError(f"bin_meters must be positive, got {model.bin_meters!r}")
        if model.unique_words_per_bin + model.alias_words_per_bin + model.jitter_words == 0:
            raise ValueError("the appearance word counts are all 0, so every word bag would be empty")
        for template in self.template_of.values():
            if isinstance(template, bool) or not isinstance(template, int):
                raise TypeError(f"template_of values must be int, got {template!r}")
            if not 0 <= template < _TEMPLATES:
                raise ValueError(f"template_of values must be in 0..{_TEMPLATES - 1}, got {template}")
        widths = {"unique_words_per_bin": _WORDS_PER_BIN, "alias_words_per_bin": _WORDS_PER_BIN,
                  "jitter_words": _JITTER_WORDS_PER_FRAME}
        for key, width in widths.items():
            if getattr(model, key) > width:
                raise ValueError(f"{key} must be at most {width}, got {getattr(model, key)}")
        spec = self.trajectory
        corridors, loop, tail = _shape_corridors(spec, self.template_of)
        n_bins = math.ceil(max(c.length for c in corridors) / model.bin_meters)  # as `_frame_words` counts them
        if n_bins > _BINS_PER_CORRIDOR:
            raise ValueError(f"bin_meters {model.bin_meters!r} gives a corridor {n_bins} word bins; "
                             f"at most {_BINS_PER_CORRIDOR} fit")
        path = spec.laps * sum(corridors[i].length for i in loop) + sum(a1 - a0 for _i, a0, a1 in tail)
        frames = path / (spec.speed / FRAME_RATE_HZ) + 2  # at least `generate_trajectory`'s count; may be inf
        if frames > _FRAMES:
            raise BadWorld(f"the trajectory ({spec.laps!r} laps) may have up to {frames:.0f} frames; "
                           f"the word ids have room for {_FRAMES}")
        if path / spec.pause_every > MAX_DWELLS:
            raise BadWorld(f"the trajectory ({spec.laps!r} laps) has up to {path / spec.pause_every:.0f} dwells; "
                           f"the dwell indices have room for {MAX_DWELLS}")
        legs = math.ceil(spec.laps) * len(loop) + len(tail)  # at most `_route`'s count
        if legs > _ROUTE_LEGS:
            raise BadWorld(f"the trajectory ({spec.laps!r} laps) has up to {legs} route legs; "
                           f"at most {_ROUTE_LEGS} are built")


@dataclass(frozen=True)
class PathPoints:
    """Points along a trajectory as columns: point i lies ``arc[i]`` m along the path, reached at ``t[i]`` s,
    at (``x[i]``, ``y[i]``) heading ``heading[i]``, ``corridor_arc[i]`` m along corridor ``corridor[i]``."""

    arc: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray  # in (-pi, pi]
    corridor: np.ndarray  # int
    corridor_arc: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    samples: PathPoints  # one per frame
    dwells: PathPoints
    path_length: float


@dataclass(frozen=True, eq=False)
class Frames:
    """Every frame of a dataset as columns. Frame i (its id is i) was taken at ``t[i]`` s at the
    ground-truth pose ``gt[i]`` (x, y, theta), ``odom[i]`` the odometry step from frame i - 1 (zeros
    for frame 0), in a corridor of scene template ``template[i]``, and saw the word bag
    ``words[offsets[i]:offsets[i + 1]]``. Angles lie in (-pi, pi]. Two are equal when their columns are."""

    t: np.ndarray
    gt: np.ndarray  # (n, 3)
    odom: np.ndarray  # (n, 3)
    template: np.ndarray  # int
    words: np.ndarray  # int64, every bag in frame order
    offsets: np.ndarray  # (n + 1,) int

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Frames) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True)
class World:
    """Everything about the generated world needed to interpret a dataset; `derive_world` derives it
    from the config and the seed. Its walls are ``config.extra_walls``."""

    config: WorldConfig
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    aps: tuple[AccessPoint, ...]
    corridors: tuple[Corridor, ...]


@dataclass(frozen=True)
class Dataset:
    """A dataset plus the per-frame inputs derived from it, each derived on first use
    and kept; a `dataclasses.replace` copy derives its own."""

    seed: int
    frames: Frames
    scans: Scans
    gt_loop_pairs: frozenset[tuple[int, int]]
    world: World

    @property
    def name(self) -> str:
        return self.world.config.name

    @cached_property
    def signatures(self) -> tuple[Signature, ...]:
        """One signature per dwell with readings, in time order."""
        return signatures_of(self.scans)

    @cached_property
    def frame_signatures(self) -> dict[int, Signature]:
        """Each frame id's signature: the latest collected at or before the frame (the first, before any)."""
        return associate_frames(list(enumerate(self.frames.t.tolist())), self.signatures)

    @cached_property
    def template_poses(self) -> np.ndarray:
        """Each frame's ground-truth pose in the frame of its corridor (`frame_corridors`), whose origin is the
        corridor's start and whose x axis runs along it, as an (n, 3) array, angles in (-pi, pi]: the pose an
        aliased match recovers, shared by frames at one place in corridors of one scene template."""
        corridors, gt = self.world.corridors, self.frames.gt
        headings = [wrap_angle(c.heading) for c in corridors]
        columns = ([c.x1 for c in corridors], [c.y1 for c in corridors], headings,
                   list(map(math.cos, headings)), list(map(math.sin, headings)))  # per corridor, by math as `between`
        at = frame_corridors(corridors, gt, self.frames.template)
        x1, y1, heading, c, s = (np.array(column, dtype=float)[at] for column in columns)
        dx, dy = gt[:, 0] - x1, gt[:, 1] - y1
        return np.column_stack([c * dx + s * dy, -s * dx + c * dy, _wrap_angles(gt[:, 2] - heading)])

    @cached_property
    def word_masks(self) -> tuple[int, ...]:
        """`frontend.word_masks` of the frames' word bags, in frame order."""
        return tuple(frontend.word_masks(self.frames.words, self.frames.offsets))


# ---------------------------------------------------------------------------
# geometry


_CROSSING_CHUNK = 1 << 16  # points x sources x walls per numpy pass of wall_crossings; bounds its memory


def _orient(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Side of c against the line a→b: 1 left, -1 right, 0 within 1e-12 of collinear."""
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return np.where(np.abs(v) < 1e-12, 0, np.where(v > 0, 1, -1))


def _on_box(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """c lies in the bounding box of a and b, widened by 1e-12."""
    return (
        (np.minimum(ax, bx) - 1e-12 <= cx) & (cx <= np.maximum(ax, bx) + 1e-12)
        & (np.minimum(ay, by) - 1e-12 <= cy) & (cy <= np.maximum(ay, by) + 1e-12)
    )


def wall_crossings(walls: Sequence[Wall], sources: Sequence[tuple[float, float]],
                   points: Sequence[tuple[float, float]]) -> np.ndarray:
    """Walls crossed by the segment from each source to each (x, y) point, as an int
    array of shape (len(points), len(sources)).

    A segment crosses a wall when the two properly intersect, or when an endpoint of
    one lies on the other (within 1e-12): touching, collinear overlap and
    zero-length walls all count."""
    out = np.zeros((len(points), len(sources)), dtype=np.int64)
    if not walls or out.size == 0:
        return out
    qx1, qy1, qx2, qy2 = np.array([[w.x1, w.y1, w.x2, w.y2] for w in walls], dtype=float).T  # (walls,)
    s = np.array(sources, dtype=float)[:, None, :]  # (sources, 1, 2)
    sx, sy = s[..., 0], s[..., 1]
    points = np.array(points, dtype=float)
    # the source against each wall depends on no point
    o3 = _orient(qx1, qy1, qx2, qy2, sx, sy)
    on3 = (o3 == 0) & _on_box(qx1, qy1, qx2, qy2, sx, sy)
    step = max(1, _CROSSING_CHUNK // (len(sources) * len(walls)))
    for lo in range(0, len(points), step):
        p = points[lo:lo + step, None, None, :]  # (chunk, 1, 1, 2)
        px, py = p[..., 0], p[..., 1]
        o1 = _orient(sx, sy, px, py, qx1, qy1)
        o2 = _orient(sx, sy, px, py, qx2, qy2)
        o4 = _orient(qx1, qy1, qx2, qy2, px, py)
        cross = (o1 != o2) & (o3 != o4)
        cross |= (o1 == 0) & _on_box(sx, sy, px, py, qx1, qy1)
        cross |= (o2 == 0) & _on_box(sx, sy, px, py, qx2, qy2)
        cross |= on3
        cross |= (o4 == 0) & _on_box(qx1, qy1, qx2, qy2, px, py)
        out[lo:lo + step] = cross.sum(axis=2)
    return out


def mean_rssi(
    aps: Sequence[AccessPoint], points: Sequence[tuple[float, float]], walls: Sequence[Wall], params: PropagationParams
) -> list[list[float]]:
    """Noise-free mean RSSI in dBm of each AP at each point, indexed [point][ap]:
    log-distance path loss with per-wall attenuation."""
    crossings = wall_crossings(walls, [(ap.x, ap.y) for ap in aps], points).tolist()
    return [
        [
            ap.tx_power_at_1m
            - 10.0 * params.path_loss_exponent * math.log10(max(math.hypot(ap.x - x, ap.y - y), 1.0))
            - params.wall_loss_db * n
            for ap, n in zip(aps, row)
        ]
        for (x, y), row in zip(points, crossings)
    ]


# ---------------------------------------------------------------------------
# trajectory shapes

def _square(scale: float, origin=(0.0, 0.0)) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    x0, y0 = origin
    s = scale
    pts = [(x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s), (x0, y0)]
    return list(zip(pts[:-1], pts[1:]))


def _shape_corridors(spec: TrajectorySpec, template_of: dict[int, int]) -> tuple[
        list[Corridor], list[int], list[tuple[int, float, float]]]:
    """Corridor geometry, the indices of the corridors one lap walks, and the (corridor index,
    arc_from, arc_to) legs walked after the last lap."""
    s = spec.scale
    segs: list[tuple[tuple[float, float], tuple[float, float]]]
    if spec.shape == "square_loop":
        segs = _square(s)
        loop = [0, 1, 2, 3]
        tail: list[tuple[int, float, float]] = []
    elif spec.shape == "figure_eight":
        segs = _square(s) + [
            ((0.0, 0.0), (0.0, -s)),
            ((0.0, -s), (-s, -s)),
            ((-s, -s), (-s, 0.0)),
            ((-s, 0.0), (0.0, 0.0)),
        ]
        loop = [0, 1, 2, 3, 4, 5, 6, 7]
        tail = []
    elif spec.shape == "nine_loop":
        junction = 0.3 * s
        segs = _square(s) + [((junction, 0.0), (junction, -0.5 * s))]
        loop = [0, 1, 2, 3]
        # after the final lap, re-enter the first corridor up to the junction,
        # then take the adjoining tail out
        tail = [(0, 0.0, junction), (4, 0.0, 0.5 * s)]
    else:  # long_track, the last of SHAPES
        pts = [(0.0, 0.0), (3 * s, 0.0), (3 * s, s), (0.0, s), (0.0, 0.0)]
        segs = list(zip(pts[:-1], pts[1:]))
        loop = [0, 1, 2, 3]
        tail = []

    corridors = [
        Corridor(a[0], a[1], b[0], b[1], template_of.get(i, i)) for i, (a, b) in enumerate(segs)
    ]
    return corridors, loop, tail


_ROUTE_LEGS = 1 << 22  # legs `_route` may build, one per corridor per lap; bounds its memory (about 0.5 GB)


def _route(laps: float, corridors: Sequence[Corridor], loop: Sequence[int],
           tail: Sequence[tuple[int, float, float]]) -> list[tuple[int, float, float]]:
    """The (corridor index, arc_from, arc_to) legs of ``laps`` laps of ``loop``, then ``tail``'s."""
    route: list[tuple[int, float, float]] = []
    lap_len = sum(corridors[i].length for i in loop)
    full, frac = int(laps), laps - int(laps)
    for _ in range(full):
        route.extend((i, 0.0, corridors[i].length) for i in loop)
    remaining = frac * lap_len
    for i in loop:
        if remaining <= 1e-9:
            break
        take = min(remaining, corridors[i].length)
        route.append((i, 0.0, take))
        remaining -= take
    route.extend(tail)
    return route


def generate_trajectory(spec: TrajectorySpec, template_of: dict[int, int] | None = None) -> Trajectory:
    """Constant-speed traversal with a dwell every pause_every meters of arc.

    Samples are emitted every speed/frame_rate meters of arc plus one at the
    exact path end; no samples are emitted while dwelling (the pose would not
    change), dwells only advance the clock.
    """
    corridors, loop, tail = _shape_corridors(spec, template_of or {})
    route = _route(spec.laps, corridors, loop, tail)
    leg_corridor, leg_a0, leg_a1 = (np.array(column) for column in zip(*route))
    ends = np.cumsum(leg_a1 - leg_a0)  # each leg's end along the path, summed leg by leg
    starts = np.concatenate(([0.0], ends[:-1]))
    total = float(ends[-1])
    dwell_arcs = np.arange(1, int(math.floor(total / spec.pause_every + 1e-9)) + 1) * spec.pause_every

    spacing = spec.speed / FRAME_RATE_HZ
    arcs = [k * spacing for k in range(int(total / spacing) + 1) if k * spacing <= total + 1e-9]
    if total - arcs[-1] > 1e-9:
        arcs.append(total)
    geometry = np.array([(c.x1, c.y1, c.x2, c.y2, c.length, wrap_angle(c.heading)) for c in corridors]).T

    def points(arc: np.ndarray) -> PathPoints:  # a point's time counts the dwells before it
        leg = np.minimum(np.searchsorted(ends - 1e-9, arc, side="right"), len(ends) - 1)  # the first leg not ended
        corridor, corridor_arc = leg_corridor[leg], leg_a0[leg] + (arc - starts[leg])
        x1, y1, x2, y2, length, heading = geometry[:, corridor]
        f = corridor_arc / length
        t = arc / spec.speed + np.searchsorted(dwell_arcs, arc - 1e-9) * spec.pause_duration
        return PathPoints(arc, t, x1 + f * (x2 - x1), y1 + f * (y2 - y1), heading, corridor, corridor_arc)

    return Trajectory(points(np.array(arcs)), points(dwell_arcs), total)


# ---------------------------------------------------------------------------
# appearance model


# field widths of the word ids; `WorldConfig` rejects a world that exceeds one
_WORDS_PER_BIN = 256  # a bin's corridor or alias words are its first word (below) + j, j < 256
_BINS_PER_CORRIDOR = 2048
_TEMPLATES = _ALIAS_WORD_BASE // (_BINS_PER_CORRIDOR * _WORDS_PER_BIN)  # 512; template 512 would reach the jitter words
_JITTER_WORDS_PER_FRAME = 64
_FRAMES = (MAX_WORD_ID - _JITTER_WORD_BASE) // _JITTER_WORDS_PER_FRAME  # frames whose jitter words fit


def _corridor_word(corridor: int, word_bin: int) -> int:
    return (corridor * _BINS_PER_CORRIDOR + word_bin) * _WORDS_PER_BIN


def _alias_word(template: int, word_bin: int) -> int:
    return _ALIAS_WORD_BASE + (template * _BINS_PER_CORRIDOR + word_bin) * _WORDS_PER_BIN


def _frame_words(model: AppearanceModel, corridors: Sequence[Corridor], corridor: np.ndarray, arc: np.ndarray,
                 template: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The word bags of frames 0, 1, ... taken ``arc`` m along corridor ``corridor`` of scene template
    ``template``, as one flat array and its offsets. A frame sees its word bin and ``window_bins`` on
    either side, and each bag is sorted: its corridor words, then its alias words, bin by bin, then its
    jitter words."""
    n_bins = np.array([max(1, math.ceil(c.length / model.bin_meters)) for c in corridors])[corridor, None]
    bins = np.minimum((arc / model.bin_meters).astype(np.int64)[:, None], n_bins - 1)
    bins = bins + np.arange(-model.window_bins, model.window_bins + 1)  # (frame, bin)
    seen = ((bins >= 0) & (bins < n_bins))[..., None]  # the corridor has the bin
    firsts = (_corridor_word(corridor[:, None], bins), _alias_word(template[:, None], bins))
    grid = [np.where(seen, first[..., None] + np.arange(count), -1).reshape(len(arc), -1)
            for first, count in zip(firsts, (model.unique_words_per_bin, model.alias_words_per_bin))]
    grid = np.hstack([*grid, _JITTER_WORD_BASE + np.arange(len(arc))[:, None] * _JITTER_WORDS_PER_FRAME
                      + np.arange(model.jitter_words)])
    kept = grid >= 0
    return grid[kept], np.concatenate(([0], np.cumsum(kept.sum(axis=1))))


# ---------------------------------------------------------------------------
# synthesis


def derive_world(config: WorldConfig, seed: int) -> World:
    """The world of a dataset of ``config`` at ``seed``: its corridors, its bounds (every corridor and
    wall end, ``margin`` further out) and its APs, placed by the seed's (seed, 1) stream. ValueError
    for a seed that is not an integer >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    corridors, _loop, _tail = _shape_corridors(config.trajectory, config.template_of)
    segments = (*corridors, *config.extra_walls)
    xs, ys = [x for s in segments for x in (s.x1, s.x2)], [y for s in segments for y in (s.y1, s.y2)]
    m = config.margin
    bounds = (min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m)
    return World(config, bounds, _place_aps(config, bounds, np.random.default_rng((seed, 1))), tuple(corridors))


_AP_IDS = 1 << 16  # `_ap_mac` numbers APs in two bytes of the MAC


def _ap_mac(i: int) -> str:
    return f"0A:00:{(i >> 8) & 0xFF:02X}:00:{i & 0xFF:02X}:00"


def _place_aps(config: WorldConfig, bounds: tuple[float, float, float, float],
               rng: np.random.Generator) -> tuple[AccessPoint, ...]:
    """Jittered-grid placement: even coverage with per-seed variation."""
    xmin, ymin, xmax, ymax = bounds
    w, h = xmax - xmin, ymax - ymin
    cols = max(1, round(math.sqrt(config.ap_count * w / h)))
    rows = max(1, math.ceil(config.ap_count / cols))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    order = rng.permutation(len(cells))
    aps = []
    for i in range(config.ap_count):
        r, c = cells[order[i % len(cells)]]
        cw, ch = w / cols, h / rows
        x = xmin + (c + 0.5) * cw + rng.uniform(-0.4, 0.4) * cw
        y = ymin + (r + 0.5) * ch + rng.uniform(-0.4, 0.4) * ch
        aps.append(AccessPoint(ap_id=_ap_mac(i), x=float(x), y=float(y), tx_power_at_1m=config.tx_power_at_1m))
    return tuple(aps)


def synthesize(config: WorldConfig, seed: int) -> Dataset:
    """Generate a full dataset: frames, scan readings, gt loop pairs, world snapshot.

    Pure function of (config, seed): the seed's streams (seed, 1), (seed, 2) and (seed, 3) drive
    AP placement (`derive_world`), RSSI noise and odometry drift.
    """
    world = derive_world(config, seed)
    traj = generate_trajectory(config.trajectory, config.template_of)
    rng_scan = np.random.default_rng((seed, 2))
    rng_odom = np.random.default_rng((seed, 3))
    aps = world.aps

    samples = traj.samples
    templates = np.array([c.template for c in world.corridors])[samples.corridor]
    words, bounds = _frame_words(config.appearance, world.corridors, samples.corridor, samples.corridor_arc, templates)
    gt = np.column_stack([samples.x, samples.y, samples.heading])
    odom = [(0.0, 0.0, 0.0)]
    noise = rng_odom.normal(0.0, 1.0, size=(len(gt) - 1, 3)).tolist()  # 3 draws per step, in frame order
    for a, b, (ex, ey, eth) in zip(gt.tolist(), gt[1:].tolist(), noise):
        true_delta = between(Pose2(*a), Pose2(*b))
        sxy, sth = config.odom_noise.sigmas(math.hypot(true_delta.x, true_delta.y))
        odom.append((true_delta.x + sxy * ex, true_delta.y + sxy * ey, wrap_angle(true_delta.theta + sth * eth)))
    frames = Frames(samples.t, gt, np.array(odom), templates, words, bounds)

    # one standard-normal draw per (dwell, scan, AP, radio), in that order; a reading under the
    # visibility floor still uses up its draw
    params, dwells = config.propagation, traj.dwells
    shape = (len(dwells.t), config.scans_per_dwell, len(aps), config.bssids_per_ap)
    points = list(zip(dwells.x.tolist(), dwells.y.tolist()))
    field = np.array(mean_rssi(aps, points, config.extra_walls, params)).reshape(shape[0], 1, shape[2], 1)
    levels = field + params.noise_sigma_db * rng_scan.normal(size=shape)
    dwell, scan, k, radio = np.nonzero(~(levels < params.visibility_floor_dbm))  # in drawing order
    offsets = (np.arange(config.scans_per_dwell) + 0.5) * config.trajectory.pause_duration / config.scans_per_dwell
    bssids = tuple(ap.ap_id[:-1] + f"{radio:X}" for ap in aps for radio in range(1, config.bssids_per_ap + 1))

    gt_loop_pairs = _loop_pairs(frames)
    return Dataset(
        seed=seed,
        frames=frames,
        scans=Scans(dwell, dwells.t[dwell] + offsets[scan],
                    k * config.bssids_per_ap + radio, np.minimum(levels[dwell, scan, k, radio], 0.0), bssids),
        gt_loop_pairs=frozenset(gt_loop_pairs),
        world=world,
    )


def _loop_pairs(frames: Frames) -> set[tuple[int, int]]:
    """All frame pairs (a, b), a < b, closer than LOOP_PAIR_RADIUS_M with a time gap above LOOP_PAIR_GAP_S."""
    pos, ts = frames.gt[:, :2], frames.t
    # the tree's slightly wider radius only nominates pairs; the exact d² test decides boundary pairs
    ii, jj = cKDTree(pos).query_pairs(LOOP_PAIR_RADIUS_M * (1 + 1e-9), output_type="ndarray").T
    d2 = ((pos[ii] - pos[jj]) ** 2).sum(axis=1)
    keep = (d2 < LOOP_PAIR_RADIUS_M**2) & (np.abs(ts[ii] - ts[jj]) > LOOP_PAIR_GAP_S)
    return set(zip(ii[keep].tolist(), jj[keep].tolist()))


def frame_corridors(corridors: Sequence[Corridor], gt: np.ndarray, template: np.ndarray) -> np.ndarray:
    """The corridor each frame was taken in, by index: of the corridors carrying the frame's ``template``,
    the one nearest its position ``gt[:, :2]``, the first of those within 1e-12 of the nearest. A frame lies
    exactly on its corridor, so that is the one. One numpy pass per corridor, over every frame."""
    x, y = gt[:, 0], gt[:, 1]
    at, nearest = np.full(len(gt), -1), np.full(len(gt), math.inf)
    for k, c in enumerate(corridors):
        vx, vy = c.x2 - c.x1, c.y2 - c.y1
        length2 = vx * vx + vy * vy
        f = np.clip(((x - c.x1) * vx + (y - c.y1) * vy) / length2, 0.0, 1.0) if length2 else 0.0
        d = np.hypot(x - (c.x1 + f * vx), y - (c.y1 + f * vy))
        closer = (template == c.template) & (d < nearest - 1e-12)
        at[closer], nearest[closer] = k, d[closer]
    if (at < 0).any():
        raise BadWorld(f"no corridor carries template {template[at < 0][0]}")
    return at


# ---------------------------------------------------------------------------
# presets


def _box_walls(x0: float, y0: float, x1: float, y1: float) -> list[Wall]:
    return [
        Wall(x0, y0, x1, y0),
        Wall(x1, y0, x1, y1),
        Wall(x1, y1, x0, y1),
        Wall(x0, y1, x0, y0),
    ]


def preset_worlds() -> dict[str, WorldConfig]:
    """The four named worlds mirroring the measurement campaigns' shape, AP
    density, and openness (square loop / figure eight / nine / open track).
    Each call returns a new dict of the same configs, built and checked once."""
    return dict(_presets())


@cache
def _presets() -> dict[str, WorldConfig]:
    indoor = PropagationParams(
        path_loss_exponent=3.4, wall_loss_db=7.0, noise_sigma_db=2.0, visibility_floor_dbm=-82.0
    )
    square_hall = PropagationParams(
        path_loss_exponent=3.4, wall_loss_db=7.0, noise_sigma_db=2.0, visibility_floor_dbm=-85.0
    )
    open_hall = PropagationParams(
        path_loss_exponent=2.9, wall_loss_db=5.0, noise_sigma_db=2.0, visibility_floor_dbm=-84.0
    )
    c_hall = WorldConfig(
        name="c_hall",
        trajectory=TrajectorySpec(shape="square_loop", scale=20.0, laps=2.5),
        template_of={0: 0, 1: 1, 2: 0, 3: 2},  # opposite corridors alias
        ap_count=35,
        tx_power_at_1m=-35.0,
        propagation=square_hall,
        extra_walls=tuple(_box_walls(3, 3, 17, 17) + _box_walls(-2, -2, 22, 22)),
    )
    b_hall = WorldConfig(
        name="b_hall",
        trajectory=TrajectorySpec(shape="figure_eight", scale=12.0, laps=1.0),
        template_of={0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 0, 6: 5, 7: 6},  # 0 and 5 alias
        ap_count=40,
        tx_power_at_1m=-35.0,
        propagation=indoor,
        extra_walls=tuple(
            _box_walls(2.5, 2.5, 9.5, 9.5) + _box_walls(-9.5, -9.5, -2.5, -2.5) + _box_walls(-14, -14, 14, 14)
        ),
    )
    j_hall = WorldConfig(
        name="j_hall",
        trajectory=TrajectorySpec(shape="nine_loop", scale=35.0, laps=2.0),
        template_of={0: 0, 1: 1, 2: 0, 3: 2, 4: 3},  # loop corridors 0 and 2 alias
        ap_count=70,
        tx_power_at_1m=-35.0,
        propagation=indoor,
        extra_walls=tuple(
            _box_walls(5, 5, 30, 30)
            + [Wall(8.5, -2.0, 8.5, -28.0), Wall(12.5, -2.0, 12.5, -28.0)]
            + _box_walls(-4, -32, 39, 39)
        ),
        # the long loop accumulates odometry error, so a missed closure hurts
        odom_noise=OdomNoise(sigma_xy_per_m=0.025, sigma_theta_per_m=0.006),
    )
    a_hall = WorldConfig(
        name="a_hall",
        trajectory=TrajectorySpec(shape="long_track", scale=25.0, laps=1.1),
        template_of={0: 0, 1: 1, 2: 2, 3: 3},  # no aliasing on the open track
        ap_count=45,
        tx_power_at_1m=-35.0,
        propagation=open_hall,
        extra_walls=(Wall(25.0, 8.0, 25.0, 17.0), Wall(50.0, 8.0, 50.0, 17.0)),
    )
    return {w.name: w for w in (c_hall, b_hall, j_hall, a_hall)}


# ---------------------------------------------------------------------------
# serialization


FRAMES_HEADER = "id,t_s,gt_x,gt_y,gt_theta,odo_dx,odo_dy,odo_dtheta,template_id,words"
SCANS_HEADER = "timestamp_s,bssid,rssi_dbm,dwell_index"
LOOPS_HEADER = "id_a,id_b"

MAX_DWELLS = 1 << 20  # dwell indices lie below this
_SCAN_ROWS = 1024  # scans.csv and loops_gt.csv lines split and checked per numpy pass; bounds the readers' memory
_FRAME_ROWS = 128  # frames.csv lines, each about 1.5 kB, split and checked per numpy pass

T = TypeVar("T")


def save_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames = dataset.frames
    with open(out / "frames.csv", "w", newline="") as fh:
        fh.write(FRAMES_HEADER + "\n")
        offsets = frames.offsets.tolist()  # a bag's list "[1, 2]" is written "1|2"
        bags = (str(frames.words[a:b].tolist())[1:-1].replace(", ", "|") for a, b in zip(offsets, offsets[1:]))
        for i, (t, (x, y, theta), (dx, dy, dtheta), template, words) in enumerate(
                zip(frames.t.tolist(), frames.gt.tolist(), frames.odom.tolist(), frames.template.tolist(), bags)):
            fh.write(f"{i},{t!r},{x!r},{y!r},{theta!r},{dx!r},{dy!r},{dtheta!r},{template},{words}\n")
    with open(out / "scans.csv", "w", newline="") as fh:
        fh.write(SCANS_HEADER + "\n")
        fh.writelines(f"{t!r},{bssid},{rssi!r},{d}\n" for t, bssid, rssi, d in dataset.scans.rows())
    with open(out / "loops_gt.csv", "w", newline="") as fh:
        fh.write(LOOPS_HEADER + "\n")
        for a, b in sorted(dataset.gt_loop_pairs):
            fh.write(f"{a},{b}\n")
    with open(out / "world.json", "w") as fh:
        json.dump(_world_to_json(dataset.world, dataset.seed), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out


def _world_to_json(w: World, seed: int) -> dict:
    cfg = w.config
    return {
        "name": cfg.name,
        "seed": seed,
        "bounds": list(w.bounds),
        "walls": [[wl.x1, wl.y1, wl.x2, wl.y2] for wl in cfg.extra_walls],
        "aps": [{"mac": a.ap_id, "x": a.x, "y": a.y, "tx_power_at_1m": a.tx_power_at_1m} for a in w.aps],
        "propagation": asdict(cfg.propagation),
        "corridors": [
            {"x1": c.x1, "y1": c.y1, "x2": c.x2, "y2": c.y2, "template": c.template} for c in w.corridors
        ],
        "trajectory": asdict(cfg.trajectory),
        "odom_noise": asdict(cfg.odom_noise),
        "appearance": asdict(cfg.appearance),
        "template_of": {str(k): v for k, v in cfg.template_of.items()},
        "ap_count": cfg.ap_count,
        "tx_power_at_1m": cfg.tx_power_at_1m,
        "scans_per_dwell": cfg.scans_per_dwell,
        "bssids_per_ap": cfg.bssids_per_ap,
        "margin": cfg.margin,
    }


def _config_from_json(wj: dict) -> WorldConfig:
    """The WorldConfig a world-file object describes: ``name``, ``trajectory``, ``template_of``
    and ``ap_count`` are required, absent settings take the dataclass defaults, and the keys
    only a saved dataset has (``seed``, ``bounds``, ``aps``, ``corridors``) are not read.
    The settings are checked by `WorldConfig` itself."""
    scalars = ("tx_power_at_1m", "margin", "scans_per_dwell", "bssids_per_ap")
    return WorldConfig(
        name=wj["name"],
        trajectory=TrajectorySpec(**wj["trajectory"]),
        template_of={int(k): v for k, v in wj["template_of"].items()},
        ap_count=wj["ap_count"],
        propagation=PropagationParams(**wj.get("propagation", {})),
        extra_walls=tuple(Wall(*w) for w in wj.get("walls", ())),
        odom_noise=OdomNoise(**wj.get("odom_noise", {})),
        appearance=AppearanceModel(**wj.get("appearance", {})),
        **{k: wj[k] for k in scalars if k in wj},
    )


def _saved_world(wj: dict) -> tuple[World, int]:
    """The World and seed of a saved dataset's world.json, derived from its config and seed. Its keys that
    follow from those (``bounds``, ``aps``, ``corridors``) are checked, not read: ValueError unless each
    equals the derived world's as `_world_to_json` renders it."""
    config, seed = _config_from_json(wj), wj["seed"]
    out_of_step = "{!r} differs from the world its config and seed derive"
    if len(wj["aps"]) != config.ap_count:  # counted before any AP is placed, so a bad ap_count sizes no work
        raise ValueError(out_of_step.format("aps"))
    world = derive_world(config, seed)
    rendered = _world_to_json(world, seed)
    for key in ("bounds", "aps", "corridors"):
        if wj[key] != rendered[key]:
            raise ValueError(out_of_step.format(key))
    return world, seed


def _read_world_file(path: Path, build: Callable[[dict], T]) -> T:
    """Build from the JSON object in a world file; any fault raises DataError naming the file."""
    try:
        with open(path) as fh:
            wj = json.load(fh)
        if not isinstance(wj, dict):
            raise TypeError("expected a JSON object")
        return build(wj)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: bad JSON: {exc.msg}") from exc
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from exc
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_world_config(path: str | Path) -> WorldConfig:
    """Read a world file: a saved dataset's world.json, or one written by hand."""
    return _read_world_file(Path(path), _config_from_json)


class _LineFault(ValueError):
    """A fault a dataset CSV parser finds after reading, blamed on an earlier ``line``."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(reason)
        self.line = line


def _read_csv(path: Path, header: str, parse: Callable[[TextIO], T]) -> T:
    """Check a dataset CSV's header, then ``parse`` the rest of the open file. Any fault
    raises DataError naming the file, and the line of a `_LineFault`."""
    try:
        with open(path, newline="") as fh:
            if fh.readline().strip() != header:
                raise _LineFault(1, f"expected header {header}")
            return parse(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except _LineFault as exc:
        raise DataError(f"{path}:{exc.line}: {exc}") from exc
    except (OverflowError, ValueError) as exc:  # a fault in reading the file, not in a row
        raise DataError(f"{path}: {exc}") from exc


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {text!r}")
    return v


def _table(fh: TextIO, size: int, n_fields: int, parse: Callable[[list[str]], T],
           check: Callable[[list[str]], None]) -> list[tuple[np.ndarray, T]]:
    """The rest of a dataset CSV, read ``size`` lines at a time: for each chunk (at least one), the line
    numbers of its non-blank lines and ``parse`` of their stripped rows' fields, row after row. A chunk
    with a fault (a row without ``n_fields`` fields, or a ValueError or OverflowError from ``parse``) is
    checked again row by row, its field count and then ``check`` of its fields, and the first fault found
    is raised naming its row's line; if none is, the chunk's own fault is raised."""
    out, start, chunk = [], 2, None  # start: the line number of the next chunk's first line
    while chunk is None or len(chunk) == size:  # until a chunk comes back short
        chunk = list(islice(fh, size))
        text = list(map(str.strip, chunk))
        lines, rows = np.flatnonzero(list(map(bool, text))) + start, list(filter(None, text))
        start += len(text)
        try:
            if not set(map(str.count, rows, repeat(","))) <= {n_fields - 1}:
                raise ValueError(f"a row without {n_fields} fields")
            out.append((lines, parse(",".join(rows).split(",") if rows else [])))
        except (OverflowError, ValueError):
            for line, row in zip(lines.tolist(), rows):
                try:
                    p = row.split(",")
                    if len(p) != n_fields:
                        raise ValueError(f"expected {n_fields} fields, got {len(p)}")
                    check(p)
                except ValueError as exc:
                    raise _LineFault(line, str(exc)) from exc
            raise
    return out


def _ints(texts: list[str]) -> np.ndarray:
    return np.array(list(map(int, texts)), dtype=np.int64)


def _frames(fh: TextIO, templates: Sequence[int]) -> Frames:
    """Frames in row order, read `_FRAME_ROWS` lines at a time (`_table`); ``check`` names the first
    faulty row of a faulty chunk. A row's id must be its index, its timestamp no earlier than the previous
    row's, its word bag non-empty, each word ASCII decimal digits for an integer below `MAX_WORD_ID`, and
    its template one of ``templates``, those the world's corridors carry."""
    n, last_t = 0, -math.inf  # the rows read, and the last one's time

    def parse(fields: list[str]) -> tuple[np.ndarray, ...]:
        nonlocal n, last_t
        values = np.array([list(map(float, fields[k::10])) for k in range(1, 8)]).reshape(7, -1)  # t, gt, odom
        template, bags = _ints(fields[8::10]), fields[9::10]
        text = "|".join(bags)  # a fault: a byte besides ASCII digits and "|", or an empty word
        if bags and (text.encode().translate(None, b"0123456789|") or "||" in f"|{text}|"):
            raise ValueError("a faulty word bag")
        words = np.fromstring(text, dtype=np.int64, sep="|") if bags else np.zeros(0, dtype=np.int64)
        t = np.concatenate(([last_t], values[0]))
        if (list(map(int, fields[0::10])) != list(range(n, n + len(bags))) or not np.isfinite(values).all()
                or (t[1:] < t[:-1]).any() or (words >= MAX_WORD_ID).any() or not np.isin(template, templates).all()):
            raise ValueError("a faulty frame row")
        n, last_t = n + len(bags), float(t[-1])
        return values, template, words, np.array(list(map(str.count, bags, repeat("|"))), dtype=np.int64) + 1

    def check(p: list[str]) -> None:  # the fields of row n in the order id, time, bag, poses, words, template
        nonlocal n, last_t
        i, t = int(p[0]), _finite(p[1])
        if i != n:
            raise ValueError(f"frame id {i} is not the row index {n}")
        if t < last_t:
            raise ValueError(f"timestamp {t!r} s is earlier than the previous frame's {last_t!r} s")
        if not p[9]:
            raise ValueError("empty word bag")
        list(map(_finite, p[2:8]))
        for w in p[9].split("|"):
            if not (w.isascii() and w.isdigit() and int(w) < MAX_WORD_ID):
                int(w)  # a word int() rejects keeps int()'s message
                raise ValueError(f"word {w!r} is not a decimal integer in [0, {MAX_WORD_ID})")
        if not -1 << 63 <= int(p[8]) < 1 << 63:
            raise ValueError(f"template id {int(p[8])} does not fit in 64 bits")
        if int(p[8]) not in templates:
            raise ValueError(f"no corridor carries template {int(p[8])}")
        n, last_t = n + 1, t

    chunks = (columns for _, columns in _table(fh, _FRAME_ROWS, 10, parse, check))
    values, template, words, sizes = (np.concatenate(column, axis=-1) for column in zip(*chunks))
    t, gt, odom = values[0], values[1:4].T, values[4:7].T
    gt[:, 2], odom[:, 2] = (list(map(wrap_angle, theta.tolist())) for theta in (gt[:, 2], odom[:, 2]))  # as Pose2 does
    return Frames(t, gt, odom, template, words, np.concatenate(([0], np.cumsum(sizes))))


def _scans(fh: TextIO) -> Scans:
    """Readings grouped by dwell, each dwell's in row order, read `_SCAN_ROWS` lines at a time (`_table`);
    `_check_scan_row` names the first faulty row of a faulty chunk. A dwell whose mean reading time (its
    signature's ``collected_at``) is earlier than the previous dwell's is blamed on its first reading."""
    bssids = {}  # each distinct BSSID's code, in order of first use

    def parse(fields: list[str]) -> tuple[np.ndarray, ...]:
        t, r = (np.array(list(map(float, fields[k::4])), dtype=float) for k in (0, 2))
        d = _ints(fields[3::4])
        known = len(bssids)
        for b in dict.fromkeys(fields[1::4]):
            bssids.setdefault(b, len(bssids))
        code = np.array(list(map(bssids.__getitem__, fields[1::4])), dtype=np.int64)
        list(map(mask_bssid, list(bssids)[known:]))  # each distinct BSSID must be a MAC
        if not (np.isfinite(t) & np.isfinite(r) & (r <= 0) & (d >= 0) & (d < MAX_DWELLS)).all():
            raise ValueError("a faulty scan row")
        return d, t, code, r

    lines, columns = zip(*_table(fh, _SCAN_ROWS, 4, parse, _check_scan_row))
    d, t, code, r = (np.concatenate(column) for column in zip(*columns))
    order = np.argsort(d, kind="stable")
    scans = Scans(d[order], t[order], code[order], r[order], tuple(bssids))
    dwells, first, at = np.unique(scans.dwell, return_index=True, return_inverse=True)
    means = (np.bincount(at, weights=scans.t) / np.bincount(at)).tolist()
    late = np.flatnonzero(np.less(means[1:], means[:-1]))  # dwell k + 1 has an earlier mean than dwell k
    if late.size:
        k = int(late[0])
        raise _LineFault(int(np.concatenate(lines)[order[first[k + 1]]]),
                         f"dwell {dwells[k + 1]} (mean time {means[k + 1]!r} s) is "
                         f"earlier than dwell {dwells[k]} ({means[k]!r} s)")
    return scans


def _check_scan_row(p: list[str]) -> None:  # the fields in the order dwell, timestamp, RSSI, BSSID
    t_s, bssid, rssi, dwell = p
    if not 0 <= int(dwell) < MAX_DWELLS:
        raise ValueError(f"dwell index {int(dwell)} outside [0, {MAX_DWELLS})")
    _finite(t_s)
    if _finite(rssi) > 0:
        raise ValueError(f"rssi must be <= 0 dBm, got {float(rssi)}")
    mask_bssid(bssid)


def _loop_rows(fh: TextIO, n_frames: int) -> frozenset[tuple[int, int]]:
    """Ground-truth loop pairs, read `_SCAN_ROWS` lines at a time (`_table`). Each row must name two
    frames, the earlier first."""
    def parse(fields: list[str]) -> tuple[np.ndarray, np.ndarray]:
        a, b = _ints(fields[0::2]), _ints(fields[1::2])
        if not ((0 <= a) & (a < b) & (b < n_frames)).all():
            raise ValueError("a faulty loop pair")
        return a, b

    def check(p: list[str]) -> None:
        a, b = int(p[0]), int(p[1])
        if not 0 <= a < b < n_frames:
            raise ValueError(f"loop pair {a},{b} must satisfy 0 <= id_a < id_b < {n_frames}, the frame count")

    a, b = (np.concatenate(column) for column in zip(*(pair for _, pair in _table(fh, _SCAN_ROWS, 2, parse, check))))
    return frozenset(zip(a.tolist(), b.tolist()))


def load_dataset(path: str | Path) -> Dataset:
    """Load a dataset directory written by save_dataset; the one reader of the dataset format.

    Every fault in its files raises DataError naming the file (and the line of a CSV row)."""
    root = Path(path)
    world, seed = _read_world_file(root / "world.json", _saved_world)
    templates = [c.template for c in world.corridors]
    frames = _read_csv(root / "frames.csv", FRAMES_HEADER, lambda fh: _frames(fh, templates))
    return Dataset(
        seed=seed,
        frames=frames,
        scans=_read_csv(root / "scans.csv", SCANS_HEADER, _scans),
        gt_loop_pairs=_read_csv(root / "loops_gt.csv", LOOPS_HEADER, lambda fh: _loop_rows(fh, len(frames))),
        world=world,
    )
