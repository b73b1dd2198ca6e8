"""Compact, possibly non-convex uncertainty sets.

Variants: axis-aligned boxes, Euclidean balls, finite point clouds and
finite unions of the above. All geometry runs on flat ambient coordinates
(see :mod:`thetabsde.ambient`). Projection and linear maximization are
vectorized over batches of query points, and membership reads a
projection's distance; ties are broken deterministically (lowest member
index, then lexicographically smallest coordinates).
"""

from dataclasses import dataclass, field

import numpy as np

from .ambient import MAX_DIM, as_number, as_point, row_sq, row_sum

INF_GAP = np.inf

# float64 elements in each of the point-cloud search's two (rows, k)
# buffers: rows = max(1, _CLOUD_BUDGET // k) query rows per block, so the
# buffers stay bounded however large the query batch or the cloud grows.
_CLOUD_BUDGET = 2 ** 14


class SetError(ValueError):
    pass


def _check_batch(P, dim):
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        P = P.reshape(1, -1)
    if P.ndim != 2 or P.shape[1] != dim:
        raise SetError(f"query batch has shape {P.shape}, expected (n, {dim})")
    return P


def _cloud_nearest(P, pts, second=True):
    """Per query row: index of the nearest cloud point, its distance and,
    with ``second``, the second-smallest distance (inf for a single-point
    cloud; None without ``second``).

    Squared distances accumulate coordinate by coordinate on (rows, k)
    buffers, left to right, which is the order ``np.sum`` uses over a
    trailing axis shorter than 8: up to dim 7 the result is bitwise that
    of summing the (rows, k, dim) squared differences. The nearest point
    is the first argmin of the squared distances, and the second-smallest
    is the row minimum once that entry is set to inf; only these two take
    a square root, which is monotone, so they are bitwise the two smallest
    rooted distances. Rows are searched independently, so the block size
    does not change a bit.
    """
    n, k = len(P), len(pts)
    block = max(1, _CLOUD_BUDGET // k)
    cols = np.ascontiguousarray(pts.T)  # (dim, k): coordinate j of each point
    idx = np.empty(n, dtype=np.int64)
    d1 = np.empty(n)
    d2 = np.full(n, np.inf) if second else None
    buf = np.empty((2, min(n, block), k))
    for s in range(0, n, block):
        rows = slice(s, s + block)
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
        if second and k >= 2:
            D[at, best] = np.inf
            d2[rows] = D.min(axis=1)
    np.sqrt(d1, out=d1)
    if second:
        np.sqrt(d2, out=d2)
    return idx, d1, d2


@dataclass(frozen=True)
class ProjectionResult:
    """Nearest point per query row, its distance, the winning union member
    (-1 outside a union) and the medial gap: second-smallest candidate
    distance minus the smallest (inf with a single candidate; None when the
    caller asked for none). Fields are (n, dim) and (n,) arrays from
    ``project_batch``, one row's values from ``project``."""

    point: np.ndarray
    distance: np.ndarray
    member_index: np.ndarray
    medial_gap: np.ndarray


# read-only 0-d buffers of plain_result's stride-0 fields
_NO_MEMBER = np.array(-1, dtype=np.int64)
_NO_GAP = np.array(INF_GAP)
_NO_MEMBER.flags.writeable = _NO_GAP.flags.writeable = False


def _repeated(value, n):
    """A read-only 0-d array as a read-only stride-0 (n,) view of it: the
    ndarray constructor takes about 1.6 us where np.broadcast_to takes
    6-8."""
    return np.ndarray((n,), value.dtype, buffer=value, strides=(0,))


def plain_result(point, distance, medial_gap=_NO_GAP):
    """Record of a set that is not a union: member index -1 and, by
    default, medial gap inf, each a read-only stride-0 (n,) view; a given
    ``medial_gap`` is an (n,) array or None."""
    n = len(distance)
    if medial_gap is _NO_GAP:
        medial_gap = _repeated(_NO_GAP, n)
    return ProjectionResult(point, distance, _repeated(_NO_MEMBER, n),
                            medial_gap)


class UncertaintySet:
    """Base class; subclasses implement the geometry primitives."""

    dim: int

    def project_batch(self, P, gap=True):
        """The ProjectionResult of a (n, dim) batch of query points. With
        ``gap`` False the caller reads no medial gap, and a set that would
        have to search for it (a point cloud, a union) leaves it None."""
        raise NotImplementedError

    def linear_max_batch(self, C):
        """The support function at each row c of a (n, dim) batch of
        functionals: the (n,) maxima over the set of <c, a>."""
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

    def project_batch(self, P, gap=True):
        P = _check_batch(P, self.dim)
        # a query of one signed zero at a bound of the other projects to
        # the bound, in every dimension and layout: np.maximum and
        # np.minimum take their second operand on a tie of zeros, where
        # np.clip keeps the query when the bounds are constant along its
        # inner loop
        pts = np.minimum(np.maximum(P, self.lower), self.upper)
        return plain_result(pts, np.sqrt(row_sq(P - pts)))

    def linear_max_batch(self, C):
        C = _check_batch(C, self.dim)
        # per-coordinate sign selection; c == 0 picks the lower bound
        return row_sum(np.where(C > 0, self.upper, self.lower) * C)

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

    def project_batch(self, P, gap=True):
        P = _check_batch(P, self.dim)
        diff = P - self.center
        dist = np.sqrt(row_sq(diff))
        outside = dist > self.radius
        # every row is scaled and the inside ones are discarded: cheaper
        # than gathering and scattering the outside ones. An inside row's
        # scale is 1, so no division is by zero; an outside row's is
        # radius / dist
        diff *= (self.radius / np.maximum(dist, self.radius))[:, None]
        diff += self.center
        # rebinding lets go of the scaled rows before P - diff is taken
        diff = np.where(outside[:, None], diff, P)
        return plain_result(diff, np.sqrt(row_sq(P - diff)))

    def linear_max_batch(self, C):
        C = _check_batch(C, self.dim)
        # BLAS's matrix-vector kernel sums a column-major C in another order
        return (np.ascontiguousarray(C) @ self.center
                + self.radius * np.sqrt(row_sq(C)))

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

    def project_batch(self, P, gap=True):
        P = _check_batch(P, self.dim)
        idx, d1, d2 = _cloud_nearest(P, self.points, gap)
        if gap:
            d2 -= d1
        # the nearest points gathered column-major, as every projection is
        return plain_result(self.points.T.take(idx, axis=1).T, d1, d2)

    def linear_max_batch(self, C):
        C = _check_batch(C, self.dim)
        # BLAS sums a column-major C of one or many columns in another order
        V = np.ascontiguousarray(C) @ self.points.T
        return V[np.arange(len(C)), np.argmax(V, axis=1)]

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

    def project_batch(self, P, gap=True):
        """Folds the members in one at a time, holding one member's record
        beside the running one: the nearest point, its distance and member
        so far, and with ``gap`` the smallest distance of the others. A
        member takes a row on a strictly smaller distance, so ties keep
        the lowest index, and a tie leaves a gap of 0; a nan distance
        takes the row unless a nan already holds it, so the choice is
        ``np.argmin``'s over the member distances. The union writes into
        its first member's record."""
        P = _check_batch(P, self.dim)
        # the union reads each member's point and distance, never its gap
        first = self.members[0].project_batch(P, gap=False)
        pts, dist = first.point, first.distance
        best = np.zeros(len(P), dtype=np.int64)
        # the nearest other member (inf for one), as a partition would pick
        second = np.full(len(P), np.inf) if gap else None
        for j, m in enumerate(self.members[1:], start=1):
            r = m.project_batch(P, gap=False)
            take = r.distance < dist
            take |= np.isnan(r.distance) & ~np.isnan(dist)
            if gap:
                np.minimum(second, np.where(take, dist, r.distance),
                           out=second)
            best[take] = j
            np.copyto(dist, r.distance, where=take)
            np.copyto(pts, r.point, where=take[:, None])
            del r
        if gap:
            second -= dist
        return ProjectionResult(pts, dist, best, second)

    def linear_max_batch(self, C):
        C = _check_batch(C, self.dim)
        vals = self.members[0].linear_max_batch(C)
        for m in self.members[1:]:
            v = m.linear_max_batch(C)
            vals = np.where(v > vals, v, vals)
        return vals

    def fixed_element(self):
        return self.members[0].fixed_element()
