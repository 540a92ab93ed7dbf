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
node's row in the graph's arrays. The gauge is fixed by holding node 0 (the
anchor) constant. `optimize` may also be given a set of free nodes, in which
case every other node is held constant too: an edge with one fixed end then
acts as a prior on its free end, and the gauge is the anchor plus the fixed
nodes.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

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


def inverse(a: Pose2) -> Pose2:
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(-(c * a.x + s * a.y), -(-s * a.x + c * a.y), -a.theta)


def between(a: Pose2, b: Pose2) -> Pose2:
    """Pose of b expressed in a's frame: inverse(a) * b."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    dx, dy = b.x - a.x, b.y - a.y
    return Pose2(c * dx + s * dy, -s * dx + c * dy, b.theta - a.theta)


@dataclass(frozen=True)
class GraphEdge:
    from_id: int
    to_id: int
    relative: Pose2
    information: np.ndarray  # 3x3 SPD
    kind: str = "odometry"  # {"odometry", "loop"}

    def __post_init__(self) -> None:
        if self.from_id == self.to_id:
            raise ValueError("self edges are not allowed")
        info = np.asarray(self.information, dtype=float)
        object.__setattr__(self, "information", info)


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


class _NodeView(Mapping):
    """Read-only ``node id -> Pose2`` view of a graph's node-state array."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "PoseGraph") -> None:
        self._graph = graph

    def __getitem__(self, node_id: int) -> Pose2:
        if node_id not in self:
            raise KeyError(node_id)
        x, y, theta = self._graph._x[node_id].tolist()
        return Pose2(x, y, theta)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._graph.ids

    def __iter__(self) -> Iterator[int]:
        return iter(self._graph.ids)

    def __len__(self) -> int:
        return len(self._graph.ids)


_OFF3 = np.arange(3)
_BLOCK_ROW = np.repeat(_OFF3, 3)  # row offsets of a 3x3 block, row-major
_BLOCK_COL = np.tile(_OFF3, 3)


def _hessian_pattern(vi: np.ndarray, vj: np.ndarray):
    """Edge selections, COO rows and columns, and gradient slots of the normal
    equations for edges with variable indices ``vi``/``vj`` (-1 for a fixed node).

    Values are emitted in four sections: the from-node diagonal blocks of edges
    whose from-node is free, the to-node diagonal blocks of edges whose to-node
    is free, and the off-diagonal blocks and their transposes of edges with
    both ends free. Each section lists its edges in edge order; the gradient
    slots are those of the first two sections.
    """
    mi, mj = vi >= 0, vj >= 0
    sel = [np.flatnonzero(m) for m in (mi, mj, mi & mj)]  # free from-node, free to-node, both free
    bi, bj = 3 * vi, 3 * vj
    blocks = ((bi, bi, 0), (bj, bj, 1), (bi, bj, 2), (bj, bi, 2))
    # int32, the index type scipy picks for these sizes, so that no call converts them
    rows = np.concatenate([(rb[sel[k], None] + _BLOCK_ROW).ravel() for rb, _, k in blocks], dtype=np.int32)
    cols = np.concatenate([(cb[sel[k], None] + _BLOCK_COL).ravel() for _, cb, k in blocks], dtype=np.int32)
    grad = np.concatenate([(b[sel[k], None] + _OFF3).ravel() for k, b in enumerate((bi, bj))])
    return sel, rows, cols, grad


class PoseGraph:
    """Keyframe poses plus odometry/loop constraints.

    Node ids are 0, 1, 2, ... in insertion order, as keyframes enter a map in
    time order: `add_node` accepts only the next id. Each id is its node's row
    in the graph's arrays; node 0 is the optimizer's gauge anchor and, by
    default, the free variables are nodes 1 onwards. The graph owns the
    optimizer's state and grows it in `add_node` and `add_edge`: an (n, 3)
    node-state array, edge arrays of endpoints, measurements and information
    matrices, neighbour lists in edge order and a union-find of the connected
    components. ``nodes`` (id -> pose) is a read-only view and ``ids`` is
    ``range(n)``; ``edges`` and `neighbors` return the graph's own lists,
    which callers must not modify. Every id argument outside ``ids`` is
    rejected, negative ones included.
    """

    def __init__(self) -> None:
        self._x = np.empty((16, 3))
        self._adj: list[list[int]] = []  # neighbour ids of each node, in edge order
        self._parent: list[int] = []  # union-find over node ids
        self._components = 0
        self._edges: list[GraphEdge] = []
        self._ii = np.empty(16, dtype=np.intp)
        self._jj = np.empty(16, dtype=np.intp)
        self._z = np.empty((16, 3))
        self._omega = np.empty((16, 3, 3))
        self._validated = 0  # edges [0, _validated) passed `_check_information`
        self._nodes = _NodeView(self)

    @property
    def nodes(self) -> Mapping[int, Pose2]:
        return self._nodes

    @property
    def ids(self) -> range:
        return range(len(self._parent))

    @property
    def edges(self) -> list[GraphEdge]:
        return self._edges

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

    def add_edge(self, edge: GraphEdge) -> None:
        a, b = edge.from_id, edge.to_id
        if a not in self.ids or b not in self.ids:
            raise DanglingEdge(f"edge {a}->{b} references a missing node")
        k = len(self._edges)
        if k == len(self._ii):
            self._ii, self._jj, self._z, self._omega = (
                _reserve(buf, k + 1) for buf in (self._ii, self._jj, self._z, self._omega)
            )
        self._ii[k] = a
        self._jj[k] = b
        rel = edge.relative
        self._z[k] = (rel.x, rel.y, rel.theta)
        # a wrong shape is reported by `optimize`, as it always was
        self._omega[k] = edge.information if edge.information.shape == (3, 3) else np.nan
        self._edges.append(edge)
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


def _single_edge(edge: GraphEdge, nodes: Mapping[int, Pose2]):
    """One edge as `_residuals_vec` arguments: its two node states, ``ii``, ``jj`` and ``z``."""
    if edge.from_id not in nodes or edge.to_id not in nodes:
        raise DanglingEdge(f"edge {edge.from_id}->{edge.to_id} references a missing node")
    a, b, rel = nodes[edge.from_id], nodes[edge.to_id], edge.relative
    x = np.array([[a.x, a.y, a.theta], [b.x, b.y, b.theta]])
    return x, np.array([0]), np.array([1]), np.array([[rel.x, rel.y, rel.theta]])


def residual(edge: GraphEdge, nodes: Mapping[int, Pose2]) -> np.ndarray:
    """The residual `optimize` uses for one edge."""
    return _residuals_vec(*_single_edge(edge, nodes))[0][0]


def residual_jacobians(edge: GraphEdge, nodes: Mapping[int, Pose2]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual and its Jacobians wrt the from- and to-node parameters, as `optimize` uses them."""
    r, px, py, c, s = _residuals_vec(*_single_edge(edge, nodes))
    ja, jb = _jacobians_vec(c, s, px, py)
    return r[0], ja[0], jb[0]


def total_error(graph: PoseGraph) -> float:
    """Weighted squared error of the graph: `optimize`'s ``error_initial``."""
    n_edges = len(graph.edges)
    x = graph._x[: len(graph.ids)]
    r = _residuals_vec(x, graph._ii[:n_edges], graph._jj[:n_edges], graph._z[:n_edges])[0]
    return _weighted_error(r, graph._omega[:n_edges])


def _check_information(edges: Sequence[GraphEdge]) -> None:
    for edge in edges:
        if edge.information.shape != (3, 3):
            raise BadInformation(f"edge {edge.from_id}->{edge.to_id}: information must be 3x3")
    stacked = np.array([e.information for e in edges])
    if not np.allclose(stacked, np.transpose(stacked, (0, 2, 1)), atol=1e-9):
        raise BadInformation("information matrices must be symmetric")
    try:
        np.linalg.cholesky(stacked)  # batched; fails on any non-PD member
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


def _weighted_error(r: np.ndarray, omega: np.ndarray) -> float:
    return float(np.einsum("ei,eij,ej->", r, omega, r))


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

    Optimizes ``graph`` in place and returns it. The Hessian's index pattern
    is built once per call from the edges' node ids. Accepted steps strictly
    decrease the weighted error of the edges with a free end; rejected steps
    raise the damping tenfold and are retried. Terminates on max_iters
    (accepted or rejected) or when the relative error improvement drops below
    1e-9. When a ``stats`` dict is supplied it receives ``iterations``,
    ``error_initial``, ``error_final`` and ``accepted_errors`` (the initial
    error, then the error after each accepted step), each the error of the
    edges with a free end, which is `total_error` for the default ``free``.

    Raises ValueError for a graph without edges or a ``free`` that is empty,
    holds the anchor or names an id missing from the graph; `BadInformation`
    for an information matrix that is not 3x3 symmetric positive definite
    (checked once per edge, on the first call that sees it) and
    `DisconnectedGraph` when a node is unreachable from the anchor. Each
    leaves the graph as it was.
    """
    edges = graph.edges
    if not edges:
        raise ValueError("optimize requires at least one edge")
    n_nodes, n_edges = len(graph.ids), len(edges)
    free_rows = np.arange(1, n_nodes) if free is None else _free_rows(graph, free)
    if graph._validated < n_edges:
        _check_information(edges[graph._validated:])
        graph._validated = n_edges

    _check_connected(graph)

    var = np.full(n_nodes, -1, dtype=np.intp)  # variable index of each node, -1 when fixed
    var[free_rows] = np.arange(len(free_rows))
    vi, vj = var[graph._ii[:n_edges]], var[graph._jj[:n_edges]]
    act = np.flatnonzero((vi >= 0) | (vj >= 0))  # the edges with a free end; all of them by default
    ii, jj, z, omega = graph._ii[act], graph._jj[act], graph._z[act], graph._omega[act]
    (sel_i, sel_j, sel_b), rows, cols, grad = _hessian_pattern(vi[act], vj[act])
    nvars = 3 * len(free_rows)
    diag = None  # slots of the diagonal in the CSR Hessian, whose structure is fixed per call

    x = graph._x[:n_nodes]
    r, px, py, c, s = _residuals_vec(x, ii, jj, z)
    err = _weighted_error(r, omega)
    lam = DAMPING_INIT
    err_initial = err
    iters_done = 0
    accepted_errors = [err]

    for _ in range(max_iters):
        if err == 0.0:
            break
        iters_done += 1
        ja, jb = _jacobians_vec(c, s, px, py)

        # normal equation blocks
        oa = np.einsum("eij,ejk->eik", omega, ja)
        ob = np.einsum("eij,ejk->eik", omega, jb)
        haa = np.einsum("eji,ejk->eik", ja, oa)
        hab = np.einsum("eji,ejk->eik", ja, ob)
        hbb = np.einsum("eji,ejk->eik", jb, ob)
        ga = np.einsum("eji,ej->ei", oa, r)
        gb = np.einsum("eji,ej->ei", ob, r)

        vals = np.concatenate(
            (haa[sel_i].ravel(), hbb[sel_j].ravel(), hab[sel_b].ravel(), np.transpose(hab, (0, 2, 1))[sel_b].ravel())
        )
        # one pass in the same order as accumulating ga's terms then gb's
        g = np.bincount(grad, np.concatenate((ga[sel_i].ravel(), gb[sel_j].ravel())), minlength=nvars)
        h = sp.coo_matrix((vals, (rows, cols)), shape=(nvars, nvars)).tocsr()
        if diag is None:
            entry_rows = np.repeat(np.arange(nvars), np.diff(h.indptr))
            diag = np.flatnonzero(h.indices == entry_rows)

        improved = False
        while True:
            # h + lam * I, which drops the entries that sum to zero
            hd = h.copy()
            hd.data[diag] += lam
            hd.eliminate_zeros()
            try:
                delta = spsolve(hd, -g)
            except RuntimeError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                xc = x.copy()
                xc[free_rows] += delta.reshape(-1, 3)
                rc, pxc, pyc, cc2, sc2 = _residuals_vec(xc, ii, jj, z)
                errc = _weighted_error(rc, omega)
                if errc < err:
                    rel = (err - errc) / err if err > 0 else 0.0
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


def write_trajectory(path: str | Path, rows: Iterable[tuple[int, float, Pose2]]) -> None:
    """CSV `keyframe_id,t_s,x_m,y_m,theta_rad`; shared by estimates and ground truth."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["keyframe_id", "t_s", "x_m", "y_m", "theta_rad"])
        for kf, t, pose in rows:
            w.writerow([kf, repr(float(t)), repr(pose.x), repr(pose.y), repr(pose.theta)])
