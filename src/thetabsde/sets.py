"""Compact, possibly non-convex uncertainty sets.

Variants: axis-aligned boxes, Euclidean balls, finite point clouds and
finite unions of the above. All geometry runs on flat ambient coordinates
(see :mod:`thetabsde.ambient`). Projection, membership and linear
maximization are vectorized over batches of query points; ties are broken
deterministically (lowest member index, then lexicographically smallest
coordinates).
"""

from dataclasses import dataclass, field

import numpy as np

from .ambient import MAX_DIM, as_number, as_point, row_sq, row_sum

INF_GAP = np.inf

# Query rows per block of the point-cloud search: its (rows, k) buffers
# then stay bounded however large the query batch grows.
_CLOUD_BLOCK = 1024


class SetError(ValueError):
    pass


def _check_batch(P, dim):
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        P = P.reshape(1, -1)
    if P.ndim != 2 or P.shape[1] != dim:
        raise SetError(f"query batch has shape {P.shape}, expected (n, {dim})")
    return P


def _cloud_nearest(P, pts):
    """Per query row: index of the nearest cloud point, its distance and
    the second-smallest distance (inf for a single-point cloud).

    Squared distances accumulate coordinate by coordinate on (rows, k)
    buffers, left to right, which is the order ``np.sum`` uses over a
    trailing axis shorter than 8: up to dim 7 the result is bitwise that
    of summing the (rows, k, dim) squared differences. The nearest point
    is the first argmin of the squared distances, and the second-smallest
    is the row minimum once that entry is set to inf; only these two take
    a square root, which is monotone, so they are bitwise the two smallest
    rooted distances.
    """
    n = len(P)
    cols = np.ascontiguousarray(pts.T)  # (dim, k): coordinate j of each point
    idx = np.empty(n, dtype=np.int64)
    d1 = np.empty(n)
    d2 = np.full(n, np.inf)
    buf = np.empty((2, min(n, _CLOUD_BLOCK), len(pts)))
    for s in range(0, n, _CLOUD_BLOCK):
        rows = slice(s, s + _CLOUD_BLOCK)
        Q = P[rows]
        D, sq = buf[:, :len(Q)]
        np.subtract(Q[:, :1], cols[0], out=D)
        np.multiply(D, D, out=D)
        for j in range(1, len(cols)):
            np.subtract(Q[:, j:j + 1], cols[j], out=sq)
            np.multiply(sq, sq, out=sq)
            D += sq
        # pts are stored lexicographically sorted, so the first argmin among
        # points at exactly the same squared distance is the
        # lexicographically smallest candidate.
        best = np.argmin(D, axis=1)
        at = np.arange(len(D))
        idx[rows] = best
        d1[rows] = D[at, best]
        if len(pts) >= 2:
            D[at, best] = np.inf
            d2[rows] = D.min(axis=1)
    np.sqrt(d1, out=d1)
    np.sqrt(d2, out=d2)
    return idx, d1, d2


@dataclass(frozen=True)
class ProjectionResult:
    """Nearest point per query row, its distance, the winning union member
    (-1 outside a union) and the medial gap: second-smallest candidate
    distance minus the smallest (inf with a single candidate). Fields are
    (n, dim) and (n,) arrays from ``project_batch``, one row's values from
    ``project``."""

    point: np.ndarray
    distance: np.ndarray
    member_index: np.ndarray
    medial_gap: np.ndarray


def plain_result(point, distance, medial_gap=None):
    """Record of a set that is not a union: member index -1 and, unless
    given, an inf medial gap, both as stride-0 views."""
    n = len(distance)
    if medial_gap is None:
        medial_gap = np.broadcast_to(INF_GAP, n)
    return ProjectionResult(point, distance, np.broadcast_to(np.int64(-1), n),
                            medial_gap)


class UncertaintySet:
    """Base class; subclasses implement the geometry primitives."""

    dim: int

    def project_batch(self, P):
        """The ProjectionResult of a (n, dim) batch of query points."""
        raise NotImplementedError

    def linear_max(self, c):
        """(max over the set of <c, a>, an argmax); a batch of one, so the
        scalar and batched calls share one tie rule."""
        c = as_point(c, dim=self.dim)
        vals, args = self.linear_max_batch(c.reshape(1, -1))
        return float(vals[0]), args[0]

    def linear_max_batch(self, C):
        """Vectorized linear_max over a (n, dim) batch of functionals."""
        raise NotImplementedError

    def bounding_box(self):
        raise NotImplementedError

    def fixed_element(self):
        """Deterministic representative, used when the argmax degenerates."""
        raise NotImplementedError

    # conveniences ---------------------------------------------------------

    def project(self, p):
        """project_batch on one row, with scalar fields."""
        p = as_point(p, dim=self.dim)
        r = self.project_batch(p.reshape(1, -1))
        return ProjectionResult(r.point[0], float(r.distance[0]),
                                int(r.member_index[0]), float(r.medial_gap[0]))

    def contains(self, p, tol=0.0):
        return bool(self.project(p).distance <= tol)

    def contains_batch(self, P, tol=0.0):
        return self.project_batch(P).distance <= tol


@dataclass
class Box(UncertaintySet):
    lower: np.ndarray
    upper: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        self.lower = as_point(self.lower)
        self.upper = as_point(self.upper, dim=self.lower.size)
        if np.any(self.lower > self.upper):
            raise SetError("box lower bound exceeds upper bound")
        self.dim = self.lower.size

    def project_batch(self, P):
        P = _check_batch(P, self.dim)
        pts = np.clip(P, self.lower, self.upper)
        return plain_result(pts, np.sqrt(row_sq(P - pts)))

    def linear_max_batch(self, C):
        C = _check_batch(C, self.dim)
        # per-coordinate sign selection; c == 0 picks the lower bound
        args = np.where(C > 0, self.upper, self.lower)
        return row_sum(args * C), args

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()

    def fixed_element(self):
        return self.lower.copy()


@dataclass
class Ball(UncertaintySet):
    center: np.ndarray
    radius: float
    dim: int = field(init=False)

    def __post_init__(self):
        self.center = as_point(self.center)
        # a finite radius keeps the ball compact
        self.radius = as_number(SetError, self.radius, "radius", above=0.0)
        self.dim = self.center.size

    def project_batch(self, P):
        P = _check_batch(P, self.dim)
        diff = P - self.center
        dist = np.sqrt(row_sq(diff))
        outside = dist > self.radius
        # every row is scaled and the inside ones are discarded: cheaper
        # than gathering and scattering the outside ones
        scale = np.divide(self.radius, dist, out=np.zeros_like(dist),
                          where=outside)
        diff *= scale[:, None]
        diff += self.center
        pts = np.where(outside[:, None], diff, P)
        return plain_result(pts, np.sqrt(row_sq(P - pts)))

    def linear_max_batch(self, C):
        C = _check_batch(C, self.dim)
        nc = np.sqrt(row_sq(C))
        args = np.tile(self.center, (len(C), 1))
        nz = nc > 0
        args[nz] += self.radius * C[nz] / nc[nz, None]
        return C @ self.center + self.radius * nc, args

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def fixed_element(self):
        return self.center.copy()


@dataclass
class PointCloud(UncertaintySet):
    points: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise SetError("point cloud needs a nonempty (k, dim) array")
        if pts.shape[1] > MAX_DIM:
            raise SetError(f"point dim exceeds {MAX_DIM}")
        if not np.all(np.isfinite(pts)):
            raise SetError("point cloud has non-finite entries")
        # dedupe, and keep lexicographic storage order so first-argmin ties
        # resolve to the lex-smallest candidate: a stable sort, first
        # column first, then drop each row equal to its predecessor. This
        # is np.unique(pts, axis=0), which would import numpy.ma.
        pts = pts[np.lexsort(pts.T[::-1])]
        fresh = np.ones(len(pts), dtype=bool)
        fresh[1:] = np.any(pts[1:] != pts[:-1], axis=1)
        self.points = pts[fresh]
        self.dim = pts.shape[1]

    def project_batch(self, P):
        P = _check_batch(P, self.dim)
        idx, d1, d2 = _cloud_nearest(P, self.points)
        d2 -= d1
        return plain_result(self.points[idx], d1, d2)

    def linear_max_batch(self, C):
        C = _check_batch(C, self.dim)
        V = C @ self.points.T
        idx = np.argmax(V, axis=1)
        return V[np.arange(len(C)), idx], self.points[idx]

    def bounding_box(self):
        return self.points.min(axis=0), self.points.max(axis=0)

    def fixed_element(self):
        return self.points[0].copy()


@dataclass
class UnionSet(UncertaintySet):
    members: list
    dim: int = field(init=False)

    def __post_init__(self):
        if not self.members:
            raise SetError("union needs at least one member")
        self.members = list(self.members)
        dims = {m.dim for m in self.members}
        if len(dims) != 1:
            raise SetError(f"union members disagree on dim: {sorted(dims)}")
        self.dim = dims.pop()

    def project_batch(self, P):
        P = _check_batch(P, self.dim)
        projs = [m.project_batch(P) for m in self.members]
        D = np.stack([r.distance for r in projs], axis=1)
        best = np.argmin(D, axis=1)  # first minimum = lowest member index
        pts = np.empty_like(P)
        for j, r in enumerate(projs):
            sel = best == j
            pts[sel] = r.point[sel]
        if len(projs) < 2:
            gap = np.broadcast_to(INF_GAP, len(P))
        else:
            two = np.partition(D, 1, axis=1)
            gap = two[:, 1] - two[:, 0]
        return ProjectionResult(pts, D[np.arange(len(P)), best], best, gap)

    def linear_max_batch(self, C):
        C = _check_batch(C, self.dim)
        vals, args = self.members[0].linear_max_batch(C)
        for m in self.members[1:]:
            v, a = m.linear_max_batch(C)
            better = v > vals  # strict: keeps the lowest member index on ties
            vals = np.where(better, v, vals)
            args[better] = a[better]
        return vals, args

    def bounding_box(self):
        boxes = [m.bounding_box() for m in self.members]
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        return lo, hi

    def fixed_element(self):
        return self.members[0].fixed_element()


def grid_cover(uset, step):
    """Regular grid over the bounding box, thinned to points within
    ``step`` of the set. Brute-force oracle support; dim <= 3 only."""
    if uset.dim > 3:
        raise SetError("grid cover supported for dim <= 3 only")
    lo, hi = uset.bounding_box()
    axes = [np.arange(lo[j], hi[j] + step / 2, step) for j in range(uset.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    P = np.stack([m.ravel() for m in mesh], axis=1)
    keep = uset.contains_batch(P, tol=step)
    return P[keep]
