import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetabsde import sets
from thetabsde.sets import (Ball, Box, PointCloud, SetError, UnionSet,
                            grid_cover)


def brute_nearest(P, candidates):
    """Independent oracle: exhaustive nearest point among candidates."""
    D = np.linalg.norm(P[:, None, :] - candidates[None, :, :], axis=2)
    idx = np.argmin(D, axis=1)
    return candidates[idx], D[np.arange(len(P)), idx]


def test_box_projection_against_dense_oracle():
    box = Box([-1.0, 0.0], [1.0, 2.0])
    rng = np.random.default_rng(0)
    P = rng.uniform(-4, 4, size=(200, 2))
    # dense grid of the box as oracle candidates
    g = np.stack(np.meshgrid(np.linspace(-1, 1, 201), np.linspace(0, 2, 201),
                             indexing="ij"), axis=-1).reshape(-1, 2)
    r = box.project_batch(P)
    pts, dist = r.point, r.distance
    opts, odist = brute_nearest(P, g)
    assert np.all(dist <= odist + 1e-9)
    assert np.allclose(pts, np.clip(P, box.lower, box.upper))


def test_ball_projection():
    ball = Ball([1.0, 1.0], 2.0)
    rng = np.random.default_rng(1)
    P = rng.uniform(-5, 5, size=(300, 2))
    r = ball.project_batch(P)
    pts, dist = r.point, r.distance
    # projected points on/inside the sphere, distances consistent
    assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= 2.0 + 1e-12)
    assert np.allclose(dist, np.linalg.norm(P - pts, axis=1))
    inside = np.linalg.norm(P - ball.center, axis=1) <= 2.0
    assert np.allclose(pts[inside], P[inside])


def reference_ball_projection(ball, P):
    """Ball.project_batch before the row kernels: gather the outside rows,
    scale them, scatter them back; numpy reductions over the rows."""
    diff = P - ball.center
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    pts = P.copy()
    outside = dist > ball.radius
    scale = ball.radius / dist[outside]
    pts[outside] = ball.center + diff[outside] * scale[:, None]
    return pts, np.linalg.norm(P - pts, axis=1)


def reference_box_projection(box, P):
    pts = np.clip(P, box.lower, box.upper)
    return pts, np.linalg.norm(P - pts, axis=1)


def ball_queries(ball, rng):
    """Batches that cover every branch of the ball projection: random
    rows, the centre (distance 0), rows exactly on the sphere (the axis
    points and a 3-4-5 triangle scaled to the radius, kept where the
    arithmetic is exact), all inside and all outside."""
    dim, c, r = ball.dim, ball.center, ball.radius
    on = np.zeros((2 * dim, dim))
    for j in range(dim):
        on[2 * j, j] = r
        on[2 * j + 1, j] = -r
    on += c
    if dim >= 2:
        tri = np.zeros((1, dim))
        tri[0, :2] = 0.6 * r, 0.8 * r
        on = np.vstack([on, c + tri])
    diff = on - c
    on = on[np.sqrt(np.sum(diff * diff, axis=1)) == r]
    assert len(on) >= 2 * dim  # the axis points are exact for dyadic data
    u = rng.standard_normal((500, dim))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return {
        "mixed": np.vstack([c + 2.0 * r * rng.standard_normal((500, dim)),
                            c[None], on]),
        "centre": c[None].copy(),
        "on_sphere": on,
        "inside": c + 0.99 * r * rng.uniform(0, 1, (500, 1)) * u,
        "outside": c + r * (1.01 + rng.uniform(0, 3, (500, 1))) * u,
    }


@pytest.mark.parametrize("center, radius", [
    ([0.5], 2.0), ([1.0, -2.0], 5.0), ([0.125, 0.25, -0.375], 1.0),
    (np.arange(10) / 8 - 0.5, 3.0)], ids=["dim1", "dim2", "dim3", "dim10"])
def test_ball_projection_is_bitwise_the_gather_scatter_formula(center, radius):
    ball = Ball(center, radius)
    rng = np.random.default_rng(ball.dim)
    for name, P in ball_queries(ball, rng).items():
        r = ball.project_batch(P)
        pts, dist = reference_ball_projection(ball, P)
        assert np.array_equal(r.point, pts), name
        assert np.array_equal(r.distance, dist), name
        if name in ("inside", "on_sphere", "centre"):
            assert np.all(r.distance == 0.0) and np.array_equal(r.point, P)
        if name == "outside":
            assert np.all(r.distance > 0.0)
        for i in range(0, len(P), 97):  # the scalar call is a batch of one
            one = ball.project(P[i])
            assert np.array_equal(one.point, pts[i]) and one.distance == dist[i]


@pytest.mark.parametrize("dim", [1, 3, 10])
def test_box_projection_is_bitwise_the_norm_formula(dim):
    rng = np.random.default_rng(dim)
    lower = rng.uniform(-1, 0, dim)
    box = Box(lower, lower + rng.uniform(0.5, 2, dim))
    batches = {"mixed": rng.uniform(-3, 3, (500, dim)),
               "inside": rng.uniform(box.lower, box.upper, (500, dim)),
               "outside": box.upper + rng.uniform(0.1, 2, (500, dim)),
               "corners": np.vstack([box.lower, box.upper])}
    for name, P in batches.items():
        r = box.project_batch(P)
        pts, dist = reference_box_projection(box, P)
        assert np.array_equal(r.point, pts), name
        assert np.array_equal(r.distance, dist), name
        for i in range(0, len(P), 97):
            one = box.project(P[i])
            assert np.array_equal(one.point, pts[i]) and one.distance == dist[i]
    C = rng.standard_normal((500, dim))
    vals, args = box.linear_max_batch(C)
    ref = np.sum(np.where(C > 0, box.upper, box.lower) * C, axis=1)
    assert np.array_equal(vals, ref)


def test_cloud_projection_and_medial_gap():
    cloud = PointCloud([[0.0], [1.0]])
    r = cloud.project(0.3)
    assert r.point[0] == 0.0 and r.distance == pytest.approx(0.3)
    assert r.medial_gap == pytest.approx(0.4)  # 0.7 - 0.3
    # exact midpoint: gap 0, lex-smallest candidate wins
    r = cloud.project(0.5)
    assert r.medial_gap == pytest.approx(0.0)
    assert r.point[0] == 0.0


def test_cloud_dedupes_points():
    cloud = PointCloud([[1.0], [1.0], [0.0]])
    assert cloud.points.shape == (2, 1)
    # duplicates must not fake a zero medial gap
    assert cloud.project(1.0).medial_gap == pytest.approx(1.0)


def test_single_point_cloud_gap_is_infinite():
    cloud = PointCloud([[2.0]])
    assert np.isinf(cloud.project(0.0).medial_gap)


def test_union_projection_and_member_index():
    u = UnionSet([Box([0.0], [1.0]), Box([5.0], [6.0])])
    r = u.project(2.0)
    assert r.point[0] == 1.0 and r.member_index == 0
    r = u.project(4.0)
    assert r.point[0] == 5.0 and r.member_index == 1
    # medial point between the members
    r = u.project(3.0)
    assert r.medial_gap == pytest.approx(0.0)
    assert r.member_index == 0  # tie broken to the lowest member index
    # a one-member union is its member, at index 0, with no second candidate
    box = Box([0.0], [1.0])
    P = np.array([[-1.0], [0.5], [2.0]])
    r = UnionSet([box]).project_batch(P)
    assert np.array_equal(r.point, box.project_batch(P).point)
    assert np.all(r.member_index == 0) and np.all(np.isinf(r.medial_gap))


def test_union_medial_gap_values():
    u = UnionSet([Box([0.0], [1.0]), Box([5.0], [6.0])])
    gaps = u.project_batch(np.array([[2.0], [4.5]])).medial_gap
    assert gaps[0] == pytest.approx(3.0 - 1.0)  # 3 vs 1
    assert gaps[1] == pytest.approx(3.5 - 0.5)


def test_linear_max_against_enumeration():
    rng = np.random.default_rng(3)
    u = UnionSet([Box([-1.0, -1.0], [1.0, 1.0]), Ball([3.0, 0.0], 0.5)])
    # dense sample of the union as oracle
    g1 = np.stack(np.meshgrid(np.linspace(-1, 1, 101), np.linspace(-1, 1, 101),
                              indexing="ij"), axis=-1).reshape(-1, 2)
    th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    g2 = np.stack([3.0 + 0.5 * np.cos(th), 0.5 * np.sin(th)], axis=1)
    g = np.vstack([g1, g2])
    for _ in range(20):
        c = rng.standard_normal(2)
        val, arg = u.linear_max(c)
        assert val >= np.max(g @ c) - 1e-9
        assert u.contains(arg, tol=1e-9)
    # batch agrees with scalar
    C = rng.standard_normal((50, 2))
    vals, args = u.linear_max_batch(C)
    for i in range(50):
        v, a = u.linear_max(C[i])
        assert vals[i] == pytest.approx(v, abs=1e-12)
        assert np.allclose(args[i], a)


def test_box_linear_max_zero_coefficient_picks_lower():
    b = Box([0.0, -2.0], [1.0, 3.0])
    val, arg = b.linear_max(np.array([0.0, 1.0]))
    assert arg[0] == 0.0 and arg[1] == 3.0 and val == pytest.approx(3.0)


def test_grid_cover():
    b = Ball([0.0, 0.0], 1.0)
    pts = grid_cover(b, 0.1)
    assert np.all(b.contains_batch(pts, tol=0.1))
    # covers the set reasonably densely
    assert len(pts) > 250


def test_set_validation_errors():
    with pytest.raises(SetError):
        Box([1.0], [0.0])
    with pytest.raises(SetError):
        Ball([0.0], -1.0)
    with pytest.raises(SetError, match="radius must be finite"):
        Ball([0.0], np.inf)  # not compact
    with pytest.raises(SetError):
        UnionSet([])
    with pytest.raises(SetError):
        UnionSet([Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1.0])])
    with pytest.raises(SetError, match=r"expected \(n, 1\)"):
        Box([0.0], [1.0]).project_batch(np.zeros((3, 2)))
    with pytest.raises(SetError, match="nonempty"):
        PointCloud(np.zeros((0, 2)))
    with pytest.raises(SetError, match="point dim exceeds 64"):
        PointCloud(np.zeros((2, 65)))
    with pytest.raises(SetError, match="non-finite"):
        PointCloud([[0.0, np.nan]])


def test_union_linear_max_tie_keeps_lowest_member_index():
    u = UnionSet([PointCloud([[1.0, 0.0]]), PointCloud([[0.0, 1.0]])])
    c = np.array([1.0, 1.0])
    val, arg = u.linear_max(c)
    vals, args = u.linear_max_batch(c.reshape(1, -1))
    assert val == vals[0] == 1.0
    assert np.array_equal(arg, [1.0, 0.0])
    assert np.array_equal(args[0], [1.0, 0.0])


def test_union_projects_each_member_once(monkeypatch):
    u = UnionSet([Box([0.0], [1.0]), PointCloud([[3.0], [4.0]])])
    rows = []
    project = PointCloud.project_batch

    def counted(self, P):
        rows.append(len(P))
        return project(self, P)
    monkeypatch.setattr(PointCloud, "project_batch", counted)
    r = u.project_batch(np.array([[0.5], [3.2], [5.0]]))
    pts, dist = r.point, r.distance
    assert rows == [3]
    assert np.array_equal(pts[:, 0], [0.5, 3.0, 4.0])
    assert np.allclose(dist, [0.0, 0.2, 1.0])


def test_cloud_search_spanning_blocks_matches_one_shot_brute_force():
    rng = np.random.default_rng(4)
    # half-integer coordinates make exact distance ties common
    cloud = PointCloud(np.round(rng.uniform(-2, 2, size=(40, 2)) * 2) / 2)
    P = np.round(rng.uniform(-3, 3, size=(2 * sets._CLOUD_BLOCK + 37, 2)) * 2) / 2
    r = cloud.project_batch(P)
    pts, dist, gap = r.point, r.distance, r.medial_gap
    D = np.linalg.norm(P[:, None, :] - cloud.points[None, :, :], axis=2)
    idx = np.argmin(D, axis=1)
    assert np.array_equal(pts, cloud.points[idx])
    assert np.array_equal(dist, D[np.arange(len(P)), idx])
    assert np.array_equal(gap, np.sort(D, axis=1)[:, 1] - dist)
    assert np.any(gap == 0.0)  # the batch does contain exact ties


def broadcast_cloud_nearest(P, pts):
    """The (rows, k, dim) broadcast search, summed by ``np.sum``: the first
    argmin of the squared distances, and the two smallest distances."""
    diff = P[:, None, :] - pts[None, :, :]
    S = np.sum(diff * diff, axis=2)
    idx = np.argmin(S, axis=1)
    D = np.sqrt(S)
    d2 = np.sort(D, axis=1)[:, 1] if len(pts) >= 2 \
        else np.full(len(P), np.inf)
    return idx, D[np.arange(len(P)), idx], d2


@pytest.mark.parametrize("case", ["equidistant", "one_point"])
def test_cloud_search_edge_cases_match_broadcast_search(case):
    if case == "equidistant":
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0]])
        # each query is exactly as far from the first point as the second
        P = np.array([[1.0, 0.0], [1.0, 3.0], [1.0, -0.5]])
    else:
        pts = np.array([[0.5, -1.0]])
        P = np.random.default_rng(3).normal(size=(50, 2))
    got = sets._cloud_nearest(P, pts)
    for a, b in zip(got, broadcast_cloud_nearest(P, pts)):
        assert np.array_equal(a, b)
    idx, d1, d2 = got
    if case == "equidistant":
        assert np.array_equal(idx, [0, 0, 0]) and np.array_equal(d1, d2)
    else:
        assert np.all(idx == 0) and np.all(np.isinf(d2))


def test_cloud_dedupe_is_np_unique_bitwise():
    # duplicate rows, rows equal but for the sign of a zero (either sign
    # first), and rows sharing their leading coordinates
    pts = np.array([[1.0, 2.0], [0.0, 3.0], [1.0, 2.0], [-0.0, 3.0],
                    [1.0, -1.0], [-0.0, -0.0], [0.0, 0.0], [1.0, 2.0],
                    [0.5, 7.0], [1.0, -1.0], [0.5, -7.0]])
    expected = np.unique(pts, axis=0)
    got = PointCloud(pts).points
    assert got.shape == expected.shape == (6, 2)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.signbit(got[0, 0]) and not np.signbit(got[1, 0])


@pytest.mark.parametrize("dim", range(1, 11))
@pytest.mark.parametrize("k", [1, 37])
def test_feature_major_cloud_search_matches_broadcast_sum(dim, k):
    rng = np.random.default_rng(100 * dim + k)
    pts = np.unique(rng.normal(size=(k, dim)), axis=0)
    P = rng.normal(scale=2.0, size=(2 * sets._CLOUD_BLOCK + 37, dim))
    idx, d1, d2 = sets._cloud_nearest(P, pts)
    o_idx, o_d1, o_d2 = broadcast_cloud_nearest(P, pts)
    assert np.array_equal(idx, o_idx)
    if dim <= 7:  # the same left-to-right sum as np.sum
        assert np.array_equal(d1, o_d1) and np.array_equal(d2, o_d2)
    else:  # np.sum sums pairwise from 8 terms on
        assert np.allclose(d1, o_d1, rtol=1e-15, atol=0.0)
        assert np.allclose(d2, o_d2, rtol=1e-15, atol=0.0)
    assert np.all(np.isinf(d2)) == (k == 1)


# property test: batched calls, the scalar API and a plain-Python oracle ----

def _dist(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def _dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def oracle_project(s, p):
    """(nearest point, distance, medial gap, member index) by enumeration."""
    if isinstance(s, UnionSet):
        per = [oracle_project(m, p) for m in s.members]
        d = [r[1] for r in per]
        i = d.index(min(d))  # lowest member index on ties
        two = sorted(d)
        return per[i][0], d[i], two[1] - two[0] if len(d) > 1 else math.inf, i
    if isinstance(s, Box):
        q = [min(max(v, lo), hi) for v, lo, hi in zip(p, s.lower, s.upper)]
        return q, _dist(p, q), math.inf, -1
    if isinstance(s, Ball):
        r = _dist(p, s.center)
        q = list(p) if r <= s.radius else \
            [c + (v - c) * (s.radius / r) for v, c in zip(p, s.center)]
        return q, _dist(p, q), math.inf, -1
    # nearest, then lexicographically smallest
    cands = sorted((_dist(p, q), tuple(q)) for q in s.points)
    gap = cands[1][0] - cands[0][0] if len(cands) > 1 else math.inf
    return list(cands[0][1]), cands[0][0], gap, -1


def oracle_linear_max(s, c):
    """(max of <c, a>, argmax): lowest member index, then lex smallest."""
    if isinstance(s, UnionSet):
        per = [oracle_linear_max(m, c) for m in s.members]
        return max(per, key=lambda r: r[0])  # first maximum on ties
    if isinstance(s, Ball):
        nc = math.sqrt(_dot(c, c))
        if nc == 0.0:
            return _dot(s.center, c), list(s.center)
        return (_dot(s.center, c) + s.radius * nc,
                [m + s.radius * v / nc for m, v in zip(s.center, c)])
    cands = itertools.product(*zip(s.lower, s.upper)) if isinstance(s, Box) \
        else map(tuple, s.points)
    val, neg = max((_dot(q, c), tuple(-v for v in q)) for q in cands)
    return val, [-v for v in neg]


HALF = st.integers(-6, 6).map(lambda k: k / 2)


@st.composite
def simple_set(draw, dim):
    kind = draw(st.sampled_from(["box", "ball", "cloud"]))
    if kind == "box":
        lo = [draw(HALF) for _ in range(dim)]
        return Box(lo, [v + draw(st.integers(0, 4)) / 2 for v in lo])
    if kind == "ball":
        return Ball([draw(HALF) for _ in range(dim)], draw(st.integers(1, 4)) / 2)
    k = draw(st.integers(1, 5))
    return PointCloud([[draw(HALF) for _ in range(dim)] for _ in range(k)])


@st.composite
def set_queries(draw):
    dim = draw(st.integers(1, 3))
    members = draw(st.lists(simple_set(dim), min_size=1, max_size=3))
    uset = members[0] if len(members) == 1 else UnionSet(members)
    n = draw(st.integers(1, 8))
    P = np.array([[draw(HALF) for _ in range(dim)] for _ in range(n)])
    # small integer functionals: zero coefficients and ties are frequent
    C = np.array([[draw(st.integers(-2, 2)) for _ in range(dim)]
                  for _ in range(n)], dtype=float)
    return uset, members, P, C


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(set_queries())
def test_batched_scalar_and_oracle_geometry_agree(case):
    uset, members, P, C = case
    # on half-integer data box and cloud arithmetic is exact, so ties are
    # exact and every result must equal the oracle's; balls round
    exact = not any(isinstance(m, Ball) for m in members)
    tol = 0.0 if exact else 1e-9
    rec = uset.project_batch(P)
    pts, dist, gaps, index = (rec.point, rec.distance, rec.medial_gap,
                              rec.member_index)
    assert pts.shape == P.shape
    assert dist.shape == gaps.shape == index.shape == (len(P),)
    vals, args = uset.linear_max_batch(C)
    for i, p in enumerate(P):
        r = uset.project(p)
        assert np.array_equal(r.point, pts[i]) and r.distance == dist[i]
        assert r.medial_gap == gaps[i] and r.member_index == index[i]
        val, arg = uset.linear_max(C[i])
        assert val == vals[i] and np.array_equal(arg, args[i])

        q, d, gap, mi = oracle_project(uset, p)
        assert abs(dist[i] - d) <= tol
        assert gaps[i] == gap if math.isinf(gap) else abs(gaps[i] - gap) <= tol
        assert abs(_dist(p, pts[i]) - d) <= tol
        assert oracle_project(uset, pts[i])[1] <= tol  # a point of the set
        ov, oa = oracle_linear_max(uset, C[i])
        assert abs(vals[i] - ov) <= tol and abs(_dot(args[i], C[i]) - ov) <= tol
        assert oracle_project(uset, args[i])[1] <= tol
        if exact:
            assert np.array_equal(pts[i], q) and index[i] == mi
            assert np.array_equal(args[i], oa)
    # the projected points lie in the set, which is what makes every
    # maximizer the solver records feasible
    scale = 1.0 + max(np.max(np.abs(P)), *(np.max(np.abs(b))
                                           for b in uset.bounding_box()))
    assert np.all(uset.project_batch(pts).distance <= 1e-12 * scale)
