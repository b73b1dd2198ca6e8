import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetabsde import sets
from thetabsde.ambient import row_sq
from thetabsde.drivers import AffineDriver, maximizer
from thetabsde.sets import Ball, Box, PointCloud, SetError, UnionSet


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
    vals = box.linear_max_batch(C)
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
        val = u.linear_max_batch(c[None])[0]
        assert val >= np.max(g @ c) - 1e-9
        # the support functions of the box and the ball, in closed form
        closed = max(abs(c[0]) + abs(c[1]), 3.0 * c[0] + 0.5 * np.hypot(*c))
        assert val == pytest.approx(closed, abs=1e-12)
    # the batch agrees with batches of one
    C = rng.standard_normal((50, 2))
    vals = u.linear_max_batch(C)
    for i in range(50):
        v = u.linear_max_batch(C[i][None])
        assert vals[i] == pytest.approx(v[0], abs=1e-12)


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


def test_union_projects_each_member_once(monkeypatch):
    u = UnionSet([Box([0.0], [1.0]), PointCloud([[3.0], [4.0]])])
    rows = []
    project = PointCloud.project_batch

    def counted(self, P, **kwargs):
        rows.append(len(P))
        return project(self, P, **kwargs)
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
    n = 2 * cloud_block(len(cloud.points)) + 37
    P = np.round(rng.uniform(-3, 3, size=(n, 2)) * 2) / 2
    r = cloud.project_batch(P)
    pts, dist, gap = r.point, r.distance, r.medial_gap
    D = np.linalg.norm(P[:, None, :] - cloud.points[None, :, :], axis=2)
    idx = np.argmin(D, axis=1)
    assert np.array_equal(pts, cloud.points[idx])
    assert np.array_equal(dist, D[np.arange(len(P)), idx])
    assert np.array_equal(gap, np.sort(D, axis=1)[:, 1] - dist)
    assert np.any(gap == 0.0)  # the batch does contain exact ties


def cloud_block(k):
    """Query rows per block of the cloud search on ``k`` points."""
    return max(1, sets._CLOUD_BUDGET // k)


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
    P = rng.normal(scale=2.0, size=(2 * cloud_block(len(pts)) + 37, dim))
    idx, d1, d2 = sets._cloud_nearest(P, pts)
    o_idx, o_d1, o_d2 = broadcast_cloud_nearest(P, pts)
    assert np.array_equal(idx, o_idx)
    if dim <= 7:  # the same left-to-right sum as np.sum
        assert np.array_equal(d1, o_d1) and np.array_equal(d2, o_d2)
    else:  # np.sum sums pairwise from 8 terms on
        assert np.allclose(d1, o_d1, rtol=1e-15, atol=0.0)
        assert np.allclose(d2, o_d2, rtol=1e-15, atol=0.0)
    assert np.all(np.isinf(d2)) == (k == 1)


# 501 rows: blocks of one row, 72 blocks with a partial last one, and one
# partial block
@pytest.mark.parametrize("rows", [1, 7, 1000])
def test_cloud_search_is_bitwise_at_every_block_size(monkeypatch, rows):
    # half-integer coordinates make exact distance ties common; rows are
    # searched independently, so the block size cannot change a bit
    rng = np.random.default_rng(6)
    pts = np.unique(np.round(rng.uniform(-2, 2, size=(40, 2)) * 2) / 2, axis=0)
    P = np.round(rng.uniform(-3, 3, size=(501, 2)) * 2) / 2
    monkeypatch.setattr(sets, "_CLOUD_BUDGET", rows * len(pts))
    assert cloud_block(len(pts)) == rows
    want = broadcast_cloud_nearest(P, pts)
    for a, b in zip(sets._cloud_nearest(P, pts), want):
        assert np.array_equal(a, b)
    assert np.any(want[1] == want[2])  # the batch does contain exact ties
    idx, d1, d2 = sets._cloud_nearest(P, pts, second=False)
    assert np.array_equal(idx, want[0]) and np.array_equal(d1, want[1])
    assert d2 is None


def partition_gap(u, P):
    """The union's medial gap by ``np.partition`` of the member distances."""
    D = np.stack([m.project_batch(P).distance for m in u.members], axis=1)
    two = np.partition(D, 1, axis=1)
    return two[:, 1] - two[:, 0]


@pytest.mark.parametrize("members", ["two", "three", "nested"])
def test_union_gap_is_the_partition_gap(members):
    # members placed so that many half-integer queries are equidistant from
    # two of them, and some from all three
    cloud = PointCloud([[-2.0, 0.0], [2.0, 0.0]])
    box = Box([-0.5, 2.0], [0.5, 3.0])
    ball = Ball([0.0, -2.5], 0.5)
    u = {"two": UnionSet([cloud, box]),
         "three": UnionSet([cloud, box, ball]),
         "nested": UnionSet([box, UnionSet([ball, cloud])])}[members]
    g = np.arange(-4.0, 4.5, 0.5)
    P = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    r = u.project_batch(P)
    want = partition_gap(u, P)
    assert np.array_equal(r.medial_gap, want)
    assert np.any(want == 0.0)
    D = np.stack([m.project_batch(P).distance for m in u.members], axis=1)
    assert np.array_equal(r.distance, D.min(axis=1))
    assert np.array_equal(r.member_index, np.argmin(D, axis=1))
    # a caller that reads no gap gets the same point and distance
    lean = u.project_batch(P, gap=False)
    assert lean.medial_gap is None
    for name in ("point", "distance", "member_index"):
        assert np.array_equal(getattr(lean, name), getattr(r, name))


def broadcast_box_projection(box, P):
    """Box.project_batch with the bounds broadcast over the rows; a tie of
    signed zeros takes the bound."""
    pts = np.minimum(np.maximum(P, box.lower), box.upper)
    return pts, np.sqrt(row_sq(P - pts))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_signed_zero_tie_takes_the_bound_in_every_dimension(dim):
    # -0.0 at a lower bound of 0.0 and 0.0 at an upper bound of -0.0
    # project to the bound, as they do from dim 2 on
    ones = np.ones(dim)
    for box, q, want in ((Box(0.0 * ones, ones), -0.0, 0.0),
                         (Box(-ones, -0.0 * ones), 0.0, -0.0)):
        for P in (np.full((3, dim), q), np.asfortranarray(np.full((3, dim), q))):
            r = box.project_batch(P)
            assert np.array_equal(np.signbit(r.point), np.full((3, dim), np.signbit(want)))
            assert np.signbit(box.project(P[0]).point).tolist() == [np.signbit(want)] * dim


def broadcast_ball_projection(ball, P):
    """Ball.project_batch with the centre and the scale broadcast over the
    rows and columns."""
    diff = P - ball.center
    dist = np.sqrt(row_sq(diff))
    outside = dist > ball.radius
    scale = np.divide(ball.radius, dist, out=np.zeros_like(dist),
                      where=outside)
    diff *= scale[:, None]
    diff += ball.center
    np.copyto(diff, P, where=~outside[:, None])
    return diff, np.sqrt(row_sq(P - diff))


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("dim", range(1, 11))
def test_box_and_ball_are_bitwise_their_broadcast_formulas(dim,
                                                           special_batch):
    # signed zeros, infinities, nan and subnormals in the queries, and
    # bounds a query can tie with
    P = special_batch(400, dim, dim)
    P[::7] = np.where(np.arange(dim) % 2, 0.0, -0.0)
    lower = np.where(np.arange(dim) % 2, -0.0, np.linspace(-1.0, 0.0, dim))
    upper = np.where(np.arange(dim) % 3, 1e-310, 0.0) + np.maximum(lower, 0.0)
    ball = Ball(np.where(np.arange(dim) % 2, -0.0, 1e-310), 0.75)
    for uset, formula in ((Box(lower, upper), broadcast_box_projection),
                          (ball, broadcast_ball_projection)):
        with np.errstate(all="ignore"):
            r = uset.project_batch(P)
            pts, dist = formula(uset, P)
        assert np.array_equal(bits(r.point), bits(pts)), type(uset)
        assert np.array_equal(bits(r.distance), bits(dist)), type(uset)


@pytest.mark.parametrize("dim", range(1, 6))
def test_projections_are_bitwise_across_layouts(dim, special_batch):
    # a column-major query batch projects to the bits of the C-ordered one,
    # and to a column-major point batch
    rng = np.random.default_rng(dim)
    P = special_batch(400, dim, 60 + dim)
    P[::7] = np.where(np.arange(dim) % 2, 0.0, -0.0)
    box = Box(np.where(np.arange(dim) % 2, -0.0, -0.5), np.full(dim, 0.5))
    ball = Ball(np.where(np.arange(dim) % 2, -0.0, 1e-310), 0.75)
    cloud = PointCloud(rng.normal(size=(9, dim)))
    union = UnionSet([box, cloud, ball])
    for uset in (box, ball, cloud, union):
        with np.errstate(all="ignore"):
            want = uset.project_batch(P)
            got = uset.project_batch(np.asfortranarray(P))
        assert got.point.flags.f_contiguous, type(uset)
        for name in ("point", "distance", "member_index", "medial_gap"):
            assert np.array_equal(bits(getattr(got, name)),
                                  bits(getattr(want, name))), (type(uset), name)


def stacked_union_projection(u, P, gap=True):
    """UnionSet.project_batch with every member's record held at once: the
    first ``np.argmin`` of the stacked member distances, and the gap to the
    row minimum once the winner is masked with inf."""
    projs = [stacked_union_projection(m, P, False) if isinstance(m, UnionSet)
             else m.project_batch(P, gap=False) for m in u.members]
    D = np.stack([r.distance for r in projs], axis=1)
    best = np.argmin(D, axis=1)
    pts = np.empty_like(P)
    for j, r in enumerate(projs):
        pts[best == j] = r.point[best == j]
    at = np.arange(len(P))
    dist = D[at, best]
    medial = None
    if gap:
        D[at, best] = np.inf
        medial = D.min(axis=1) - dist
    return sets.ProjectionResult(pts, dist, best, medial)


@pytest.mark.parametrize("members", ["two", "three", "nested", "ball_first"])
def test_union_fold_is_bitwise_the_stacked_argmin(members, special_batch):
    # half-integer queries tie two members, and some all three; infinite
    # queries give a ball a nan distance, where np.argmin picks the first
    # nan and the fold must too
    cloud = PointCloud([[-2.0, 0.0], [2.0, 0.0]])
    box = Box([-0.5, 2.0], [0.5, 3.0])
    ball = Ball([0.0, -2.5], 0.5)
    u = {"two": UnionSet([cloud, box]),
         "three": UnionSet([cloud, box, ball]),
         "nested": UnionSet([box, UnionSet([ball, cloud])]),
         "ball_first": UnionSet([ball, box, cloud, ball])}[members]
    g = np.arange(-4.0, 4.5, 0.5)
    P = np.vstack([np.stack(np.meshgrid(g, g, indexing="ij"),
                            axis=-1).reshape(-1, 2),
                   special_batch(300, 2, 11)])
    with np.errstate(all="ignore"):
        want = stacked_union_projection(u, P)
        ties = np.sum(want.medial_gap == 0.0)
        for gap in (True, False):
            r = u.project_batch(P, gap=gap)
            assert np.array_equal(r.member_index, want.member_index)
            assert np.array_equal(bits(r.point), bits(want.point))
            assert np.array_equal(bits(r.distance), bits(want.distance))
            if gap:
                assert np.array_equal(bits(r.medial_gap),
                                      bits(want.medial_gap))
            else:
                assert r.medial_gap is None
    assert ties > 0
    assert np.any(np.isnan(want.distance))


def big_cloud_queries():
    rng = np.random.default_rng(5)
    return (rng.normal(scale=2.0, size=(20_000, 2)),
            PointCloud(rng.normal(size=(1000, 2))))


def test_cloud_projection_holds_only_its_budget(traced_peak):
    # the record (an (n, dim) point, three (n,) rows) plus the search's two
    # buffers of _CLOUD_BUDGET floats; 1,024-row blocks held 16 MB here
    P, cloud = big_cloud_queries()
    row = len(P) * 8
    peak, r = traced_peak(cloud.project_batch, P)
    assert np.all(np.isfinite(r.medial_gap))
    assert peak <= P.nbytes + 3 * row + 2 * 8 * sets._CLOUD_BUDGET, peak


def test_union_projection_holds_only_its_budget(traced_peak):
    # each member's record, the stacked member distances and the union's
    # record are a few (n,) rows each; the cloud adds only its buffers
    P, cloud = big_cloud_queries()
    u = UnionSet([Box([-4.0, -1.0], [-3.0, 1.0]), cloud])
    row = len(P) * 8
    peak, r = traced_peak(u.project_batch, P)
    assert np.array_equal(r.medial_gap, partition_gap(u, P))
    assert peak <= 16 * row + 2 * 8 * sets._CLOUD_BUDGET, peak


def test_union_holds_one_member_record_beside_its_own(traced_peak):
    # a box and three clouds: folded one at a time, the union holds its
    # running record, an (n, dim) point and three (n,) rows, beside the
    # member it projects, whose peak is at most a cloud's
    P, _ = big_cloud_queries()
    rng = np.random.default_rng(6)
    clouds = [PointCloud(rng.normal(loc=c, size=(1000, 2)))
              for c in (-1.0, 0.0, 1.0)]
    u = UnionSet([Box([-4.0, -1.0], [-3.0, 1.0])] + clouds)
    row = len(P) * 8
    cloud_peak, _ = traced_peak(clouds[0].project_batch, P, gap=False)
    for gap in (True, False):
        peak, r = traced_peak(u.project_batch, P, gap=gap)
        assert np.array_equal(r.member_index,
                              stacked_union_projection(u, P).member_index)
        assert peak <= cloud_peak + P.nbytes + 3 * row + row / 2, (
            (peak - cloud_peak) / row)


def test_ball_projection_holds_no_fourth_block(traced_peak):
    # the projection and the P - point temporary, (n, dim) each, and a few
    # (n,) rows: the projection is built in the centred copy
    P = np.random.default_rng(8).normal(scale=2.0, size=(20_000, 3))
    ball = Ball([0.1, 0.0, -0.2], 1.5)
    peak, r = traced_peak(ball.project_batch, P)
    assert np.any(r.distance > 0) and np.any(r.distance == 0)
    assert peak <= 2 * P.nbytes + 5 * len(P) * 8, peak


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
    """The max of <c, a> over the set: over a box's corners and a cloud's
    points, in closed form on a ball."""
    if isinstance(s, UnionSet):
        return max(oracle_linear_max(m, c) for m in s.members)
    if isinstance(s, Ball):
        return _dot(s.center, c) + s.radius * math.sqrt(_dot(c, c))
    cands = itertools.product(*zip(s.lower, s.upper)) if isinstance(s, Box) \
        else s.points
    return max(_dot(q, c) for q in cands)


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
    vals = uset.linear_max_batch(C)
    for i, p in enumerate(P):
        r = uset.project(p)
        assert np.array_equal(r.point, pts[i]) and r.distance == dist[i]
        assert r.medial_gap == gaps[i] and r.member_index == index[i]
        assert uset.linear_max_batch(C[i][None])[0] == vals[i]

        q, d, gap, mi = oracle_project(uset, p)
        assert abs(dist[i] - d) <= tol
        assert gaps[i] == gap if math.isinf(gap) else abs(gaps[i] - gap) <= tol
        assert abs(_dist(p, pts[i]) - d) <= tol
        assert oracle_project(uset, pts[i])[1] <= tol  # a point of the set
        assert abs(vals[i] - oracle_linear_max(uset, C[i])) <= tol
        if exact:
            assert np.array_equal(pts[i], q) and index[i] == mi
    # the projected points lie in the set, which is what makes every
    # maximizer the solver records feasible
    scale = 1.0 + max(np.max(np.abs(P)), np.max(np.abs(pts)))
    assert np.all(uset.project_batch(pts).distance <= 1e-12 * scale)


def plain_records(n):
    """The records of each set that is not a union, and the degenerate
    argmax's, for n query rows."""
    rng = np.random.default_rng(n)
    P = np.asfortranarray(rng.normal(size=(n, 2)))
    yield "box", Box([0.0, -1.0], [1.0, 0.5]).project_batch(P)
    yield "ball", Ball([0.5, 0.0], 1.0).project_batch(P)
    cloud = PointCloud(rng.normal(size=(5, 2)))
    yield "cloud", cloud.project_batch(P)
    yield "cloud_no_gap", cloud.project_batch(P, gap=False)
    yield "degenerate_argmax", maximizer(
        AffineDriver(1.0, 0.0, [0.0]), Box([0.2], [0.9]), 0.0,
        np.zeros((n, 1)), np.zeros(n), np.zeros((n, 1)))[0]


@pytest.mark.parametrize("n", [1, 4, 1000])
def test_plain_records_hold_read_only_stride_0_fields(n):
    # member index -1 (all of them) and medial gap inf (all but the
    # cloud's) are read-only stride-0 views, not n-element arrays
    for name, rec in plain_records(n):
        fields = [(rec.member_index, np.int64, -1)]
        if name in ("box", "ball", "degenerate_argmax"):
            fields.append((rec.medial_gap, np.float64, np.inf))
        elif name == "cloud":
            assert rec.medial_gap.shape == (n,) and rec.medial_gap.strides == (8,)
        else:
            assert rec.medial_gap is None
        for field, dtype, value in fields:
            assert field.dtype == dtype and field.shape == (n,), name
            assert field.strides == (0,), name
            assert np.all(field == value), name
            assert not field.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0
            with pytest.raises(ValueError):
                field.flags.writeable = True
