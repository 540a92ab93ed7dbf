"""SE(2) pose graph: group operations, Levenberg-Marquardt optimization,
and the trajectory alignment/error primitives used by evaluation.

Residual convention for an edge (i -> j) with measurement z:
    pred = between(x_i, x_j)          # pose of j expressed in i's frame
    r    = [pred.x - z.x, pred.y - z.y, wrap(pred.theta - z.theta)]
which gives simple closed-form Jacobians:
    d r / d x_i = [[-c, -s,  py], [ s, -c, -px], [0, 0, -1]]
    d r / d x_j = [[ c,  s,   0], [-s,  c,   0], [0, 0,  1]]
with c = cos(theta_i), s = sin(theta_i) and (px, py) the predicted relative
translation. Node ids are 0, 1, 2, ... in insertion order, and each is its
node's row in the graph's arrays. Each edge is one row of the graph's edge
arrays, in insertion order, which `PoseGraph.add_edge` checks before it
stores it; no Python object is kept per edge. The gauge is fixed by holding
node 0 (the anchor) constant. `optimize` may also be given a set of free
nodes, in which case every other node is held constant too: an edge with one
fixed end then acts as a prior on its free end, and the gauge is the anchor
plus the fixed nodes.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve


class DanglingEdge(ValueError):
    """An edge references a node id missing from the graph."""


class DisconnectedGraph(ValueError):
    """The graph is not connected from the gauge-fixed node."""


class BadInformation(ValueError):
    """An edge carries a non-symmetric-positive-definite information matrix."""


class LengthMismatch(ValueError):
    """Paired point lists have different lengths."""


class DegenerateAlignment(ValueError):
    """Alignment input is degenerate (all points coincident)."""


def wrap_angle(a: float) -> float:
    """Wrap into (-pi, pi]."""
    r = a - math.tau * round(a / math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


@dataclass(frozen=True)
class Pose2:
    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))


def compose(a: Pose2, b: Pose2) -> Pose2:
    """a then b: returns a * b."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(
        a.x + c * b.x - s * b.y,
        a.y + s * b.x + c * b.y,
        a.theta + b.theta,
    )


def between(a: Pose2, b: Pose2) -> Pose2:
    """Pose of b expressed in a's frame: a^-1 * b."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    dx, dy = b.x - a.x, b.y - a.y
    return Pose2(c * dx + s * dy, -s * dx + c * dy, b.theta - a.theta)


def _reserve(buf: np.ndarray, n: int) -> np.ndarray:
    """``buf`` itself when it holds ``n`` rows, else a copy with room for at least ``n``."""
    if n <= len(buf):
        return buf
    out = np.empty((max(n, 2 * len(buf)),) + buf.shape[1:], dtype=buf.dtype)
    out[: len(buf)] = buf
    return out


def _wrap_angles(a: np.ndarray) -> np.ndarray:
    """`wrap_angle` on each element, bit for bit (``+ 0.0`` turns the -0.0 that
    ``np.round`` keeps into the 0 that Python's ``round`` returns)."""
    r = a - math.tau * (np.round(a / math.tau) + 0.0)
    return np.where(r <= -math.pi, r + math.tau, r)


_OFF3 = np.arange(3)
_BLOCK_ROW = np.repeat(_OFF3, 3)  # row offsets of a 3x3 block, row-major
_BLOCK_COL = np.tile(_OFF3, 3)


class _HessianPattern(NamedTuple):
    """Where `_normal_equations` puts each value, fixed for one `optimize` call.

    The Hessian's values come in four sections: the from-node diagonal blocks
    of the edges whose from-node is free, the to-node diagonal blocks of the
    edges whose to-node is free, and the off-diagonal blocks and their
    transposes of the edges with both ends free. Each section lists its edges
    in edge order, and each block row-major. ``slot`` is each value's entry in
    the data of the CSR matrix that ``indptr`` and ``indices`` describe; the
    values of one entry share a slot. ``diag`` holds the diagonal's slots.
    ``grad`` is each gradient value's row, for the first two sections.
    """

    sel: tuple[np.ndarray, np.ndarray, np.ndarray]  # edges with a free from-node, a free to-node, both free
    slot: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray
    grad: np.ndarray


def _hessian_pattern(vi: np.ndarray, vj: np.ndarray, n_free: int) -> _HessianPattern:
    """The pattern of the normal equations of edges whose ends have variable
    indices ``vi``/``vj`` (-1 for a fixed node) among ``n_free`` free nodes.

    The CSR structure is built per 3x3 block, so no array of the Hessian's
    size is sorted. The slots and the CSR index arrays are int32, the type
    scipy picks for these sizes, so that no call converts them.
    """
    mi, mj = vi >= 0, vj >= 0
    sel = (np.flatnonzero(mi), np.flatnonzero(mj), np.flatnonzero(mi & mj))
    # the block row and column of each section's blocks, in value order
    brow = np.concatenate((vi[sel[0]], vj[sel[1]], vi[sel[2]], vj[sel[2]]))
    bcol = np.concatenate((vi[sel[0]], vj[sel[1]], vj[sel[2]], vi[sel[2]]))
    keys, block = np.unique(brow * n_free + bcol, return_inverse=True)  # the distinct blocks, row-major
    urow, ucol = np.divmod(keys, n_free)
    per_row = np.bincount(urow, minlength=n_free)  # at least 1: every free node has an edge
    first = np.cumsum(per_row) - per_row  # distinct blocks before each block row
    # block row R is 3 CSR rows of 3 * per_row[R] entries each, from entry 9 * first[R] on
    corner = 9 * first[urow] + 3 * (np.arange(len(keys)) - first[urow])
    uslot = (corner[:, None] + 3 * per_row[urow, None] * _BLOCK_ROW + _BLOCK_COL).astype(np.int32)
    indices = np.empty(uslot.size, dtype=np.int32)
    indices[uslot] = 3 * ucol[:, None] + _BLOCK_COL
    indptr = np.append(9 * first[:, None] + 3 * per_row[:, None] * _OFF3, uslot.size).astype(np.int32)
    diag = uslot[urow == ucol][:, ::4].ravel()  # block entries (0, 0), (1, 1) and (2, 2)
    grad = np.concatenate([(3 * v[k, None] + _OFF3).ravel() for v, k in ((vi, sel[0]), (vj, sel[1]))])
    return _HessianPattern(sel, uslot[block].ravel(), indptr, indices, diag, grad)


def _normal_equations(
    pattern: _HessianPattern, omega: np.ndarray, r: np.ndarray, ja: np.ndarray, jb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR data of the Hessian, the sum over edges of J^T Omega J, and the
    gradient, the sum of J^T Omega r, from the edges' residuals and Jacobians."""
    sel_i, sel_j, sel_b = pattern.sel
    oa, ob = omega @ ja, omega @ jb
    jat = ja.transpose(0, 2, 1)
    haa, hab, hbb = jat @ oa, jat @ ob, jb.transpose(0, 2, 1) @ ob
    rt = r[:, None, :]
    ga, gb = (rt @ oa)[:, 0], (rt @ ob)[:, 0]
    hab = hab[sel_b]
    vals = np.concatenate((haa[sel_i].ravel(), hbb[sel_j].ravel(), hab.ravel(), hab.transpose(0, 2, 1).ravel()))
    h = np.bincount(pattern.slot, vals, minlength=len(pattern.indices))
    grad_vals = np.concatenate((ga[sel_i].ravel(), gb[sel_j].ravel()))
    return h, np.bincount(pattern.grad, grad_vals, minlength=len(pattern.indptr) - 1)


class PoseGraph:
    """Keyframe poses plus odometry/loop constraints.

    Node ids are 0, 1, 2, ... in insertion order, as keyframes enter a map in
    time order: `add_node` accepts only the next id. Each id is its node's row
    in the graph's arrays; node 0 is the optimizer's gauge anchor and, by
    default, the free variables are nodes 1 onwards. The graph owns the
    optimizer's state and grows it in `add_node` and `add_edge`: an (n, 3)
    node-state array; one row per edge, in insertion order, of its end ids,
    measurement and information matrix; neighbour lists in edge order and a
    union-find of the connected components. ``ids`` is ``range(n)``, and
    ``poses`` and ``edges`` are read-only array views: row i of the (n, 3)
    ``poses`` is node i's (x, y, theta), and each row of the (m, 2) ``edges``
    is an edge's (from, to) ids; `neighbors` returns the
    graph's own lists, which callers must not modify. Every id argument
    outside ``ids`` is rejected, negative ones included.
    """

    def __init__(self) -> None:
        self._x = np.empty((16, 3))
        self._adj: list[list[int]] = []  # neighbour ids of each node, in edge order
        self._parent: list[int] = []  # union-find over node ids
        self._components = 0
        self._m = 0  # edges: rows [0, _m) of the edge arrays
        self._ij = np.empty((16, 2), dtype=np.intp)  # from- and to-id
        self._z = np.empty((16, 3))
        self._omega = np.empty((16, 3, 3))
        self._validated = 0  # edges [0, _validated) passed `_check_information`

    @property
    def ids(self) -> range:
        return range(len(self._parent))

    @property
    def poses(self) -> np.ndarray:
        view = self._x[: len(self._parent)]
        view.flags.writeable = False
        return view

    @property
    def edges(self) -> np.ndarray:
        view = self._ij[: self._m]
        view.flags.writeable = False
        return view

    def neighbors(self, node_id: int) -> list[int]:
        """Ids joined to ``node_id`` by an edge, once per edge, in edge order."""
        if node_id not in self.ids:
            raise KeyError(node_id)
        return self._adj[node_id]

    def add_node(self, node_id: int, pose: Pose2) -> None:
        """Append node ``len(ids)``; ValueError, leaving the graph as it was, for any other id."""
        n = len(self._parent)
        if node_id != n:
            raise ValueError(f"node {node_id} is not the next id {n}; ids must be 0, 1, 2, ...")
        self._x = _reserve(self._x, n + 1)
        self._x[n] = (pose.x, pose.y, pose.theta)
        self._adj.append([])
        self._parent.append(n)
        self._components += 1

    def add_edge(self, from_id: int, to_id: int, relative: Pose2, information) -> None:
        """Append the edge ``from_id -> to_id`` that measures ``relative`` with
        ``information``. Raises TypeError for an id that is not an integer,
        ValueError for a self edge, `DanglingEdge` for an id outside ``ids`` and
        `BadInformation` for information that is not 3x3, each leaving the
        graph as it was; `optimize` checks that it is symmetric positive
        definite."""
        a, b = operator.index(from_id), operator.index(to_id)
        if a == b:
            raise ValueError("self edges are not allowed")
        if a not in self.ids or b not in self.ids:
            raise DanglingEdge(f"edge {a}->{b} references a missing node")
        info = np.asarray(information, dtype=float)
        if info.shape != (3, 3):
            raise BadInformation(f"edge {a}->{b}: information must be 3x3")
        k = self._m
        self._ij, self._z, self._omega = (_reserve(buf, k + 1) for buf in (self._ij, self._z, self._omega))
        self._ij[k] = a, b
        self._z[k] = relative.x, relative.y, relative.theta
        self._omega[k] = info
        self._m = k + 1
        self._adj[a].append(b)
        self._adj[b].append(a)
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb
            self._components -= 1

    def _find(self, s: int) -> int:
        parent = self._parent
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s


def residual(a: Pose2, b: Pose2, z: Pose2) -> np.ndarray:
    """The residual `optimize` uses for an edge from pose ``a`` to pose ``b`` that measures ``z``."""
    return residual_jacobians(a, b, z)[0]


def residual_jacobians(a: Pose2, b: Pose2, z: Pose2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """That residual and its Jacobians wrt ``a`` and ``b``, as `optimize` uses them."""
    x = np.array([[a.x, a.y, a.theta], [b.x, b.y, b.theta]])
    r, px, py, c, s = _residuals_vec(x, np.array([0]), np.array([1]), np.array([[z.x, z.y, z.theta]]))
    ja, jb = _jacobians_vec(c, s, px, py)
    return r[0], ja[0], jb[0]


def total_error(graph: PoseGraph) -> float:
    """Weighted squared error of the graph: `optimize`'s ``error_initial``."""
    m = graph._m
    ii, jj = graph._ij[:m].T
    return _weighted_error(_residuals_vec(graph._x[: len(graph.ids)], ii, jj, graph._z[:m])[0], graph._omega[:m])


def _check_information(omega: np.ndarray) -> None:
    """BadInformation unless each of the (k, 3, 3) matrices is symmetric positive definite."""
    if not np.allclose(omega, np.transpose(omega, (0, 2, 1)), atol=1e-9):
        raise BadInformation("information matrices must be symmetric")
    try:
        np.linalg.cholesky(omega)  # batched; fails on any non-PD member
    except np.linalg.LinAlgError:
        raise BadInformation("information matrices must be positive definite") from None


def _check_connected(graph: PoseGraph) -> None:
    """Raise DisconnectedGraph naming the five lowest ids outside node 0's component."""
    if graph._components == 1:
        return
    root = graph._find(0)
    missing = [k for k in graph.ids if graph._find(k) != root][:5]
    raise DisconnectedGraph(f"nodes unreachable from 0: {missing}...")


def _residuals_vec(x: np.ndarray, ii: np.ndarray, jj: np.ndarray, z: np.ndarray):
    """Vectorized residuals plus the predicted relative translations (for Jacobians)."""
    ti = x[ii, 2]
    c, s = np.cos(ti), np.sin(ti)
    dx = x[jj, 0] - x[ii, 0]
    dy = x[jj, 1] - x[ii, 1]
    px = c * dx + s * dy
    py = -s * dx + c * dy
    dth = _wrap_angles(x[jj, 2] - x[ii, 2] - z[:, 2])
    r = np.stack([px - z[:, 0], py - z[:, 1], dth], axis=1)
    return r, px, py, c, s


def _jacobians_vec(c: np.ndarray, s: np.ndarray, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 3, 3) Jacobians of `_residuals_vec`'s residuals wrt the from- and to-node states."""
    zero, one = np.zeros_like(c), np.ones_like(c)
    ja = np.stack((-c, -s, py, s, -c, -px, zero, zero, -one), axis=1).reshape(-1, 3, 3)
    jb = np.stack((c, s, zero, -s, c, zero, zero, zero, one), axis=1).reshape(-1, 3, 3)
    return ja, jb


DAMPING_INIT = 1e-4  # Levenberg-Marquardt damping at the start of every optimize call
# The weighted error at or below which `optimize` stops. Over the 4 presets x 3
# policies x gated and vanilla at seeds 0-2, every call started either at 2e-26 to
# 6e-23, the rounding error of a window whose edges all agree with its poses, or
# at 8 and above, so the floor sits in a gap of more than 20 orders of magnitude;
# a solve below it can gain only rounding error.
ERROR_FLOOR = 1e-20


def _weighted_error(r: np.ndarray, omega: np.ndarray) -> float:
    """The sum over edges of r^T Omega r."""
    return float(np.vdot(r, omega @ r[:, :, None]))


def _free_rows(graph: PoseGraph, free: Collection[int]) -> np.ndarray:
    """The ids in ``free``, ascending; ValueError for an empty collection, the
    anchor 0 or an id missing from the graph."""
    if not free:
        raise ValueError("free must name at least one node")
    if 0 in free:
        raise ValueError("free must not include the anchor 0")
    missing = sorted(k for k in free if k not in graph.ids)
    if missing:
        raise ValueError(f"free names ids missing from the graph: {missing[:5]}")
    return np.unique(np.fromiter(free, dtype=np.intp, count=len(free)))


def optimize(
    graph: PoseGraph,
    max_iters: int = 50,
    stats: dict | None = None,
    free: Collection[int] | None = None,
) -> PoseGraph:
    """Levenberg-Marquardt over the nodes in ``free``; every other node stays fixed.

    ``free`` defaults to every node but the anchor, node 0, which is never
    free. With a smaller set the gauge is the anchor plus the fixed nodes: an
    edge with one fixed end acts as a prior on its free end, and an edge with
    two fixed ends is left out, as it adds only a constant to the error.

    Optimizes ``graph`` in place and returns it. The normal equations' CSR
    pattern is built once per call from the edges' node ids; each iteration
    fills its data, and each damping trial adds the damping to a copy of the
    data's diagonal. Accepted steps strictly decrease the weighted error of the
    edges with a free end; a rejected step raises the damping tenfold and is
    retried. The call stops at the first of:

    - the error is at or below `ERROR_FLOOR`, checked before each iteration:
      a call that starts there makes no solve, reports 0 iterations and
      leaves every pose's bytes as they were;
    - ``max_iters`` iterations, each counting whether or not its step was
      accepted;
    - an accepted step that improves the error by less than a relative 1e-9;
    - the damping passing 1e12 without an accepted step.

    When a ``stats`` dict is supplied it receives ``iterations``,
    ``error_initial``, ``error_final`` and ``accepted_errors`` (the initial
    error, then the error after each accepted step), each the error of the
    edges with a free end, which is `total_error` for the default ``free``.

    Raises ValueError for a graph without edges or a ``free`` that is empty,
    holds the anchor or names an id missing from the graph; `BadInformation`
    for an information matrix that is not symmetric positive definite
    (checked once per edge, on the first call that sees it, from the edge
    rows; `add_edge` rejects one that is not 3x3) and `DisconnectedGraph`
    when a node is unreachable from the anchor. Each leaves the graph as it
    was.
    """
    n_nodes, n_edges = len(graph.ids), graph._m
    if not n_edges:
        raise ValueError("optimize requires at least one edge")
    free_rows = np.arange(1, n_nodes) if free is None else _free_rows(graph, free)
    if graph._validated < n_edges:
        _check_information(graph._omega[graph._validated : n_edges])
        graph._validated = n_edges

    _check_connected(graph)

    var = np.full(n_nodes, -1, dtype=np.intp)  # variable index of each node, -1 when fixed
    var[free_rows] = np.arange(len(free_rows))
    vi, vj = var[graph._ij[:n_edges]].T
    act = np.flatnonzero((vi >= 0) | (vj >= 0))  # the edges with a free end; all of them by default
    (ii, jj), z, omega = graph._ij[act].T, graph._z[act], graph._omega[act]
    nvars = 3 * len(free_rows)

    x = graph._x[:n_nodes]
    r, px, py, c, s = _residuals_vec(x, ii, jj, z)
    err = _weighted_error(r, omega)
    # a call that starts at the floor makes no solve, so it needs no pattern
    pattern = _hessian_pattern(vi[act], vj[act], len(free_rows)) if err > ERROR_FLOOR else None
    lam = DAMPING_INIT
    err_initial = err
    iters_done = 0
    accepted_errors = [err]

    for _ in range(max_iters):
        if err <= ERROR_FLOOR:
            break
        iters_done += 1
        hdata, g = _normal_equations(pattern, omega, r, *_jacobians_vec(c, s, px, py))
        improved = False
        while True:
            damped = hdata.copy()  # h + lam * I
            damped[pattern.diag] += lam
            try:
                delta = spsolve(sp.csr_matrix((damped, pattern.indices, pattern.indptr), shape=(nvars, nvars)), -g)
            except RuntimeError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                xc = x.copy()
                xc[free_rows] += delta.reshape(-1, 3)
                rc, pxc, pyc, cc2, sc2 = _residuals_vec(xc, ii, jj, z)
                errc = _weighted_error(rc, omega)
                if errc < err:
                    rel = (err - errc) / err
                    x, r, px, py, c, s = xc, rc, pxc, pyc, cc2, sc2
                    err = errc
                    accepted_errors.append(err)
                    lam = max(lam / 10.0, 1e-12)
                    improved = True
                    if rel < 1e-9:
                        improved = False  # converged; stop outer loop
                    break
            lam *= 10.0
            if lam > 1e12:
                break
        if not improved:
            break

    if stats is not None:
        stats["iterations"] = iters_done
        stats["error_initial"] = err_initial
        stats["error_final"] = err
        stats["accepted_errors"] = accepted_errors

    if len(accepted_errors) > 1:
        xf = x[free_rows]
        xf[:, 2] = _wrap_angles(xf[:, 2])  # as a Pose2 stores theta
        graph._x[free_rows] = xf
    return graph


def kabsch_align(est: Sequence[Sequence[float]], gt: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    """Rigid transform (R, t) minimizing sum |R*est_i + t - gt_i|^2.

    A proper rotation is enforced by flipping the sign of the smallest
    singular direction when the raw solution is a reflection.
    """
    p = np.asarray(est, dtype=float)
    q = np.asarray(gt, dtype=float)
    if p.shape != q.shape:
        raise LengthMismatch(f"est has {len(p)} points, gt has {len(q)}")
    if len(p) < 2:
        raise LengthMismatch("alignment needs at least 2 points")
    cp = p.mean(axis=0)
    cq = q.mean(axis=0)
    p0 = p - cp
    q0 = q - cq
    if float(np.abs(p0).max(initial=0.0)) < 1e-12 or float(np.abs(q0).max(initial=0.0)) < 1e-12:
        raise DegenerateAlignment("all points coincide; rotation is unobservable")
    h = p0.T @ q0
    u, _sv, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, d]) @ u.T
    t = cq - rot @ cp
    return rot, t


def apply_rigid(rot: np.ndarray, t: np.ndarray, pts: Sequence[Sequence[float]]) -> np.ndarray:
    return np.asarray(pts, dtype=float) @ rot.T + t


def rmse(est: Sequence[Sequence[float]], gt: Sequence[Sequence[float]]) -> float:
    """Root-mean-square positional distance between corresponding points."""
    p = np.asarray(est, dtype=float)
    q = np.asarray(gt, dtype=float)
    if p.shape != q.shape:
        raise LengthMismatch(f"est has {len(p)} points, gt has {len(q)}")
    if len(p) == 0:
        raise LengthMismatch("rmse needs at least 1 point")
    d2 = ((p - q) ** 2).sum(axis=1)
    return float(np.sqrt(d2.mean()))


def write_trajectory(path: str | Path, t: np.ndarray, poses: np.ndarray) -> None:
    """CSV `keyframe_id,t_s,x_m,y_m,theta_rad`, row k holding k, ``t[k]`` and the
    (n, 3) ``poses[k]``, each float as its `repr`; shared by estimates and ground truth."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["keyframe_id", "t_s", "x_m", "y_m", "theta_rad"])
        w.writerows(zip(range(len(t)), t.tolist(), *poses.T.tolist()))
