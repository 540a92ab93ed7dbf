"""Synthetic indoor worlds: floor plans, access points, wall-attenuated RSSI,
dwelled trajectories, aliased appearances, and noisy odometry.

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
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, asdict, fields, is_dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO, TypeVar

import numpy as np

from .frontend import Appearance
from .posegraph import Pose2, between
from .signature import ScanReading

FRAME_RATE_HZ = 2.0  # simulated keyframe rate while moving
LOOP_PAIR_RADIUS_M = 2.0  # gt loop pairs: closer than this ...
LOOP_PAIR_GAP_S = 30.0  # ... and further apart in time than this

# word-id spaces (disjoint while each field keeps to its width; see _corridor_word)
_ALIAS_WORD_BASE = 1 << 28
_JITTER_WORD_BASE = 1 << 29


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


@dataclass(frozen=True)
class FloorPlan:
    walls: tuple[Wall, ...]
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax


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

    @property
    def origin_pose(self) -> Pose2:
        return Pose2(self.x1, self.y1, self.heading)

    def point_at(self, arc: float) -> tuple[float, float]:
        f = arc / self.length
        return (self.x1 + f * (self.x2 - self.x1), self.y1 + f * (self.y2 - self.y1))


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
        for key in ("ap_count", "scans_per_dwell", "bssids_per_ap"):
            v = getattr(self, key)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise BadWorld(f"{key} must be a non-negative integer, got {v!r}")
        if self.bssids_per_ap > 15:  # the radio number is the BSSID's last hex digit
            raise BadWorld(f"bssids_per_ap must be at most 15, got {self.bssids_per_ap}")
        for key in ("tx_power_at_1m", "margin"):
            v = getattr(self, key)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise BadWorld(f"{key} must be a finite number, got {v!r}")


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    pose: Pose2
    corridor: int
    corridor_arc: float


@dataclass(frozen=True)
class DwellMark:
    index: int
    arc: float
    t_arrival: float
    x: float
    y: float


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[TrajectorySample, ...]
    dwells: tuple[DwellMark, ...]
    corridors: tuple[Corridor, ...]
    path_length: float


@dataclass(frozen=True)
class Frame:
    id: int
    t: float
    gt_pose: Pose2
    odom_delta: Pose2
    appearance: Appearance


@dataclass(frozen=True)
class World:
    """Everything about the generated world needed to interpret a dataset."""

    config: WorldConfig
    plan: FloorPlan
    aps: tuple[AccessPoint, ...]
    corridors: tuple[Corridor, ...]


@dataclass(frozen=True)
class Dataset:
    name: str
    seed: int
    frames: tuple[Frame, ...]
    dwell_scans: tuple[tuple[ScanReading, ...], ...]  # index = dwell index
    gt_loop_pairs: frozenset[tuple[int, int]]
    world: World


# ---------------------------------------------------------------------------
# geometry


def _segments_cross(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(v) < 1e-12:
            return 0
        return 1 if v > 0 else -1

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12
            and min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12
        )

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_seg(p1, p2, q1):
        return True
    if o2 == 0 and on_seg(p1, p2, q2):
        return True
    if o3 == 0 and on_seg(q1, q2, p1):
        return True
    if o4 == 0 and on_seg(q1, q2, p2):
        return True
    return False


def count_wall_crossings(plan: FloorPlan, p: tuple[float, float], q: tuple[float, float]) -> int:
    n = 0
    for w in plan.walls:
        if _segments_cross(p, q, (w.x1, w.y1), (w.x2, w.y2)):
            n += 1
    return n


def rssi_at(ap: AccessPoint, pos: tuple[float, float], plan: FloorPlan, params: PropagationParams) -> float:
    """Noise-free mean RSSI in dBm: log-distance path loss with per-wall attenuation."""
    d = math.hypot(ap.x - pos[0], ap.y - pos[1])
    crossings = count_wall_crossings(plan, (ap.x, ap.y), pos)
    return (
        ap.tx_power_at_1m
        - 10.0 * params.path_loss_exponent * math.log10(max(d, 1.0))
        - params.wall_loss_db * crossings
    )


# ---------------------------------------------------------------------------
# trajectory shapes

def _square(scale: float, origin=(0.0, 0.0)) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    x0, y0 = origin
    s = scale
    pts = [(x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s), (x0, y0)]
    return list(zip(pts[:-1], pts[1:]))


def _shape_corridors(spec: TrajectorySpec, template_of: dict[int, int]) -> tuple[list[Corridor], list[tuple[int, float, float]]]:
    """Corridor geometry plus a route of (corridor index, arc_from, arc_to) legs."""
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

    route: list[tuple[int, float, float]] = []
    lap_len = sum(corridors[i].length for i in loop)
    full, frac = int(spec.laps), spec.laps - int(spec.laps)
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
    return corridors, route


def generate_trajectory(spec: TrajectorySpec, template_of: dict[int, int] | None = None) -> Trajectory:
    """Constant-speed traversal with a dwell every pause_every meters of arc.

    Samples are emitted every speed/frame_rate meters of arc plus one at the
    exact path end; no samples are emitted while dwelling (the pose would not
    change), dwells only advance the clock.
    """
    corridors, route = _shape_corridors(spec, template_of or {})
    leg_arc: list[tuple[float, float, int, float]] = []  # start_arc, end_arc, corridor, corridor_arc_offset
    total = 0.0
    for cid, a0, a1 in route:
        length = a1 - a0
        leg_arc.append((total, total + length, cid, a0))
        total += length

    n_dwells = int(math.floor(total / spec.pause_every + 1e-9))
    dwell_arcs = [k * spec.pause_every for k in range(1, n_dwells + 1)]

    def locate(arc: float) -> tuple[int, float]:
        for start, end, cid, off in leg_arc:
            if start - 1e-9 <= arc < end - 1e-9:
                return cid, off + (arc - start)
        start, end, cid, off = leg_arc[-1]
        return cid, off + (arc - start)

    spacing = spec.speed / FRAME_RATE_HZ
    arcs = [k * spacing for k in range(int(total / spacing) + 1) if k * spacing <= total + 1e-9]
    if total - arcs[-1] > 1e-9:
        arcs.append(total)

    samples = []
    for arc in arcs:
        cid, carc = locate(arc)
        x, y = corridors[cid].point_at(carc)
        t = arc / spec.speed + bisect_left(dwell_arcs, arc - 1e-9) * spec.pause_duration
        samples.append(
            TrajectorySample(t=t, pose=Pose2(x, y, corridors[cid].heading), corridor=cid, corridor_arc=carc)
        )

    dwells = []
    for k, darc in enumerate(dwell_arcs):
        cid, carc = locate(darc)
        x, y = corridors[cid].point_at(carc)
        pauses_before = bisect_left(dwell_arcs, darc - 1e-9)
        dwells.append(
            DwellMark(index=k, arc=darc, t_arrival=darc / spec.speed + pauses_before * spec.pause_duration, x=x, y=y)
        )

    return Trajectory(
        samples=tuple(samples), dwells=tuple(dwells), corridors=tuple(corridors), path_length=total
    )


# ---------------------------------------------------------------------------
# appearance model


# field widths of the word ids; `_config_from_json` rejects a world that exceeds one
_WORDS_PER_BIN = 256  # a bin's corridor or alias words are its first word (below) + j, j < 256
_BINS_PER_CORRIDOR = 2048
_TEMPLATES = _ALIAS_WORD_BASE // (_BINS_PER_CORRIDOR * _WORDS_PER_BIN)  # 512; template 512 would reach the jitter words
_JITTER_WORDS_PER_FRAME = 64


def _corridor_word(corridor: int, word_bin: int) -> int:
    return (corridor * _BINS_PER_CORRIDOR + word_bin) * _WORDS_PER_BIN


def _alias_word(template: int, word_bin: int) -> int:
    return _ALIAS_WORD_BASE + (template * _BINS_PER_CORRIDOR + word_bin) * _WORDS_PER_BIN


def _frame_words(model: AppearanceModel, corridor: Corridor, corridor_idx: int, corridor_arc: float, frame_id: int) -> tuple[int, ...]:
    n_bins = max(1, math.ceil(corridor.length / model.bin_meters))
    center = min(int(corridor_arc / model.bin_meters), n_bins - 1)
    words: list[int] = []
    for b in range(center - model.window_bins, center + model.window_bins + 1):
        if not 0 <= b < n_bins:
            continue
        c, a = _corridor_word(corridor_idx, b), _alias_word(corridor.template, b)
        words.extend(range(c, c + model.unique_words_per_bin))
        words.extend(range(a, a + model.alias_words_per_bin))
    jitter = _JITTER_WORD_BASE + frame_id * _JITTER_WORDS_PER_FRAME
    words.extend(range(jitter, jitter + model.jitter_words))
    return tuple(sorted(words))


# ---------------------------------------------------------------------------
# synthesis


def _make_plan(config: WorldConfig, corridors: Sequence[Corridor]) -> FloorPlan:
    xs = [c.x1 for c in corridors] + [c.x2 for c in corridors]
    ys = [c.y1 for c in corridors] + [c.y2 for c in corridors]
    for w in config.extra_walls:
        xs.extend([w.x1, w.x2])
        ys.extend([w.y1, w.y2])
    m = config.margin
    bounds = (min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m)
    return FloorPlan(walls=tuple(config.extra_walls), bounds=bounds)


def _ap_mac(i: int) -> str:
    return f"0A:00:{(i >> 8) & 0xFF:02X}:00:{i & 0xFF:02X}:00"


def _place_aps(config: WorldConfig, plan: FloorPlan, rng: np.random.Generator) -> tuple[AccessPoint, ...]:
    """Jittered-grid placement: even coverage with per-seed variation."""
    xmin, ymin, xmax, ymax = plan.bounds
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
    """Generate a full dataset: frames, dwell scans, gt loop pairs, world snapshot.

    Pure function of (config, seed): one rng stream drives AP placement,
    RSSI noise, and odometry drift in a fixed order.
    """
    traj = generate_trajectory(config.trajectory, config.template_of)
    plan = _make_plan(config, traj.corridors)
    rng_aps = np.random.default_rng((seed, 1))
    rng_scan = np.random.default_rng((seed, 2))
    rng_odom = np.random.default_rng((seed, 3))
    aps = _place_aps(config, plan, rng_aps)

    frames: list[Frame] = []
    prev_pose: Pose2 | None = None
    for i, s in enumerate(traj.samples):
        corridor = traj.corridors[s.corridor]
        words = _frame_words(config.appearance, corridor, s.corridor, s.corridor_arc, i)
        appearance = Appearance(words=words, place_template=corridor.template)
        if prev_pose is None:
            delta = Pose2()
        else:
            true_delta = between(prev_pose, s.pose)
            sxy, sth = config.odom_noise.sigmas(math.hypot(true_delta.x, true_delta.y))
            ex, ey, eth = rng_odom.normal(0.0, 1.0, size=3)
            delta = Pose2(true_delta.x + sxy * ex, true_delta.y + sxy * ey, true_delta.theta + sth * eth)
        frames.append(Frame(id=i, t=s.t, gt_pose=s.pose, odom_delta=delta, appearance=appearance))
        prev_pose = s.pose

    dwell_scans: list[tuple[ScanReading, ...]] = []
    for d in traj.dwells:
        base = [rssi_at(ap, (d.x, d.y), plan, config.propagation) for ap in aps]
        readings: list[ScanReading] = []
        for sidx in range(config.scans_per_dwell):
            t = d.t_arrival + (sidx + 0.5) * config.trajectory.pause_duration / config.scans_per_dwell
            for k, ap in enumerate(aps):
                for radio in range(1, config.bssids_per_ap + 1):
                    rssi = base[k] + config.propagation.noise_sigma_db * float(rng_scan.normal())
                    if rssi < config.propagation.visibility_floor_dbm:
                        continue
                    bssid = ap.ap_id[:-1] + f"{radio:X}"
                    readings.append(ScanReading(timestamp=t, bssid=bssid, rssi=min(rssi, 0.0)))
        dwell_scans.append(tuple(readings))

    gt_loop_pairs = _loop_pairs(frames)
    world = World(config=config, plan=plan, aps=aps, corridors=traj.corridors)
    return Dataset(
        name=config.name,
        seed=seed,
        frames=tuple(frames),
        dwell_scans=tuple(dwell_scans),
        gt_loop_pairs=frozenset(gt_loop_pairs),
        world=world,
    )


def _loop_pairs(frames: Sequence[Frame]) -> set[tuple[int, int]]:
    """All frame pairs closer than LOOP_PAIR_RADIUS_M with a time gap above LOOP_PAIR_GAP_S."""
    pos = np.array([[f.gt_pose.x, f.gt_pose.y] for f in frames])
    ts = np.array([f.t for f in frames])
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    dt = np.abs(ts[:, None] - ts[None, :])
    ii, jj = np.nonzero((d2 < LOOP_PAIR_RADIUS_M**2) & (dt > LOOP_PAIR_GAP_S))
    return {(int(a), int(b)) for a, b in zip(ii, jj) if a < b}


def dwell_positions(dataset: Dataset) -> list[tuple[float, float, float]]:
    """(t_mean, x, y) per dwell, recovered from the stationary frame preceding the scans
    (the first frame when none precedes them). Frame times must ascend.

    Exact when pause_every is a multiple of the frame spacing (true for all
    presets); otherwise off by at most one frame spacing.
    """
    frames = dataset.frames
    times = [f.t for f in frames]
    out = []
    for scans in dataset.dwell_scans:
        if not scans:
            out.append((math.nan, math.nan, math.nan))
            continue
        tm = sum(r.timestamp for r in scans) / len(scans)
        k = max(bisect_right(times, tm) - 1, 0)
        out.append((tm, frames[k].gt_pose.x, frames[k].gt_pose.y))
    return out


def corridor_of_frame(world: World, gt_pose: Pose2, template: int) -> int:
    """Recover which corridor a frame was taken in from its pose and template.

    Frames lie exactly on their corridor in ground truth, so the nearest
    corridor among those carrying the frame's template is the original one.
    """
    best = None
    for idx, c in enumerate(world.corridors):
        if c.template != template:
            continue
        d = _point_segment_distance((gt_pose.x, gt_pose.y), c)
        if best is None or d < best[0] - 1e-12:
            best = (d, idx)
    if best is None:
        raise BadWorld(f"no corridor carries template {template}")
    return best[1]


def _point_segment_distance(p: tuple[float, float], c: Corridor) -> float:
    vx, vy = c.x2 - c.x1, c.y2 - c.y1
    wx, wy = p[0] - c.x1, p[1] - c.y1
    L2 = vx * vx + vy * vy
    f = 0.0 if L2 == 0 else max(0.0, min(1.0, (wx * vx + wy * vy) / L2))
    return math.hypot(p[0] - (c.x1 + f * vx), p[1] - (c.y1 + f * vy))


def template_pose_of(world: World, gt_pose: Pose2, template: int) -> Pose2:
    """The frame's pose expressed in its scene template's local frame."""
    corridor = world.corridors[corridor_of_frame(world, gt_pose, template)]
    return between(corridor.origin_pose, gt_pose)


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
    density, and openness (square loop / figure eight / nine / open track)."""
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

MAX_DWELLS = 1 << 20  # dwell indices lie below this; every consumer visits each dwell up to the largest

T = TypeVar("T")


def save_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "frames.csv", "w", newline="") as fh:
        fh.write(FRAMES_HEADER + "\n")
        for f in dataset.frames:
            words = "|".join(str(w) for w in f.appearance.words)
            fh.write(
                f"{f.id},{f.t!r},{f.gt_pose.x!r},{f.gt_pose.y!r},{f.gt_pose.theta!r},"
                f"{f.odom_delta.x!r},{f.odom_delta.y!r},{f.odom_delta.theta!r},"
                f"{f.appearance.place_template},{words}\n"
            )
    with open(out / "scans.csv", "w", newline="") as fh:
        fh.write(SCANS_HEADER + "\n")
        for di, scans in enumerate(dataset.dwell_scans):
            for r in scans:
                fh.write(f"{r.timestamp!r},{r.bssid},{r.rssi!r},{di}\n")
    with open(out / "loops_gt.csv", "w", newline="") as fh:
        fh.write(LOOPS_HEADER + "\n")
        for a, b in sorted(dataset.gt_loop_pairs):
            fh.write(f"{a},{b}\n")
    with open(out / "world.json", "w") as fh:
        json.dump(_world_to_json(dataset), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out


def _world_to_json(dataset: Dataset) -> dict:
    w = dataset.world
    cfg = w.config
    return {
        "name": dataset.name,
        "seed": dataset.seed,
        "bounds": list(w.plan.bounds),
        "walls": [[wl.x1, wl.y1, wl.x2, wl.y2] for wl in w.plan.walls],
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
    Raises TypeError or ValueError for a setting of the wrong type, a non-finite float, a
    ``bin_meters`` <= 0, word counts that leave every word bag empty, a non-int template or
    a word count, template or corridor's number of bins past its field of the word ids."""
    scalars = ("tx_power_at_1m", "margin", "scans_per_dwell", "bssids_per_ap")
    config = WorldConfig(
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
    for settings in (config, *config.extra_walls):
        check_setting_types(settings, finite=True)
    model = config.appearance
    if model.bin_meters <= 0:
        raise ValueError(f"bin_meters must be positive, got {model.bin_meters!r}")
    if model.unique_words_per_bin + model.alias_words_per_bin + model.jitter_words == 0:
        raise ValueError("the appearance word counts are all 0, so every word bag would be empty")
    for template in config.template_of.values():
        if isinstance(template, bool) or not isinstance(template, int):
            raise TypeError(f"template_of values must be int, got {template!r}")
        if not 0 <= template < _TEMPLATES:
            raise ValueError(f"template_of values must be in 0..{_TEMPLATES - 1}, got {template}")
    widths = {"unique_words_per_bin": _WORDS_PER_BIN, "alias_words_per_bin": _WORDS_PER_BIN,
              "jitter_words": _JITTER_WORDS_PER_FRAME}
    for key, width in widths.items():
        if getattr(model, key) > width:
            raise ValueError(f"{key} must be at most {width}, got {getattr(model, key)}")
    corridors, _ = _shape_corridors(config.trajectory, config.template_of)
    n_bins = math.ceil(max(c.length for c in corridors) / model.bin_meters)  # as `_frame_words` counts them
    if n_bins > _BINS_PER_CORRIDOR:
        raise ValueError(f"bin_meters {model.bin_meters!r} gives a corridor {n_bins} word bins; "
                         f"at most {_BINS_PER_CORRIDOR} fit")
    return config


def _saved_world(wj: dict) -> tuple[World, int]:
    """The World and seed recorded in a saved dataset's world.json."""
    config = _config_from_json(wj)
    plan = FloorPlan(walls=config.extra_walls, bounds=tuple(wj["bounds"]))
    aps = tuple(
        AccessPoint(ap_id=a["mac"], x=a["x"], y=a["y"], tx_power_at_1m=a["tx_power_at_1m"])
        for a in wj["aps"]
    )
    corridors = tuple(Corridor(c["x1"], c["y1"], c["x2"], c["y2"], c["template"]) for c in wj["corridors"])
    return World(config=config, plan=plan, aps=aps, corridors=corridors), wj["seed"]


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


def _read_rows(path: Path, header: str, parse: Callable[[Iterator[tuple[int, list[str]]]], T]) -> T:
    """Check a dataset CSV's header, then ``parse`` its non-blank rows as (line number, fields),
    split into as many fields as the header has. Any fault raises DataError naming the file
    and the line."""
    n_fields = header.count(",") + 1
    lineno = 1

    def rows(fh: TextIO) -> Iterator[tuple[int, list[str]]]:
        nonlocal lineno
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if line:
                parts = line.split(",")
                if len(parts) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(parts)}")
                yield lineno, parts

    try:
        with open(path, newline="") as fh:
            if fh.readline().strip() != header:
                raise ValueError(f"expected header {header}")
            return parse(rows(fh))
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except (OverflowError, ValueError) as exc:
        raise DataError(f"{path}:{exc.line if isinstance(exc, _LineFault) else lineno}: {exc}") from exc


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {text!r}")
    return v


def _frames(rows: Iterator[tuple[int, list[str]]]) -> tuple[Frame, ...]:
    """Frames in row order. A row's id must be its index, its timestamp no earlier
    than the previous row's, and its word bag non-empty."""
    frames: list[Frame] = []
    for _, p in rows:
        k, t = int(p[0]), _finite(p[1])
        if k != len(frames):
            raise ValueError(f"frame id {k} is not the row index {len(frames)}")
        if frames and t < frames[-1].t:
            raise ValueError(f"timestamp {t!r} s is earlier than the previous frame's {frames[-1].t!r} s")
        if not p[9]:
            raise ValueError("empty word bag")
        frames.append(Frame(
            id=k,
            t=t,
            gt_pose=Pose2(_finite(p[2]), _finite(p[3]), _finite(p[4])),
            odom_delta=Pose2(_finite(p[5]), _finite(p[6]), _finite(p[7])),
            appearance=Appearance(tuple(map(int, p[9].split("|"))), int(p[8])),
        ))
    return tuple(frames)


def _dwell_scans(rows: Iterator[tuple[int, list[str]]]) -> tuple[tuple[ScanReading, ...], ...]:
    """Readings grouped by dwell index. Dwells must be in time order: a dwell whose mean
    reading time (a signature's ``collected_at``) is earlier than the previous dwell's is
    blamed on its first reading."""
    groups: defaultdict[int, list[ScanReading]] = defaultdict(list)
    first_line: dict[int, int] = {}
    for line, (t_s, bssid, rssi, dwell) in rows:
        d = int(dwell)
        if not 0 <= d < MAX_DWELLS:
            raise ValueError(f"dwell index {d} outside [0, {MAX_DWELLS})")
        groups[d].append(ScanReading(timestamp=_finite(t_s), bssid=bssid, rssi=_finite(rssi)))
        first_line.setdefault(d, line)
    n_dwells = max(groups) + 1 if groups else 0
    dwells = tuple(tuple(groups.get(i, ())) for i in range(n_dwells))
    prev, prev_t = -1, -math.inf
    for d, readings in enumerate(dwells):
        if readings:
            t = sum(r.timestamp for r in readings) / len(readings)
            if t < prev_t:
                raise _LineFault(
                    first_line[d], f"dwell {d} (mean time {t!r} s) is earlier than dwell {prev} ({prev_t!r} s)"
                )
            prev, prev_t = d, t
    return dwells


def load_dataset(path: str | Path) -> Dataset:
    """Load a dataset directory written by save_dataset; the one reader of the dataset format.

    Every fault in its files raises DataError naming the file (and the line of a CSV row)."""
    root = Path(path)
    world, seed = _read_world_file(root / "world.json", _saved_world)
    return Dataset(
        name=world.config.name,
        seed=seed,
        frames=_read_rows(root / "frames.csv", FRAMES_HEADER, _frames),
        dwell_scans=_read_rows(root / "scans.csv", SCANS_HEADER, _dwell_scans),
        gt_loop_pairs=_read_rows(
            root / "loops_gt.csv", LOOPS_HEADER, lambda rows: frozenset((int(a), int(b)) for _, (a, b) in rows)
        ),
        world=world,
    )
