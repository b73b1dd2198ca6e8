import numpy as np
import pytest

from thetabsde import drivers
from thetabsde.drivers import (AffineDriver, DriverError, GLimitDriver,
                               GRegularizedDriver,
                               RegularizedProjectionDriver, StateFn,
                               ZeroDriver, effective_driver,
                               embed_zz, evaluate, maximizer)
from thetabsde.sets import Ball, Box, PointCloud, UnionSet

from oracles import empirical_lipschitz, maximizer_oracle


def test_statefn_value_by_hand():
    f = StateFn(c0=1.0, c_t=2.0, C_x=[1.0, -1.0], c_y=0.5, C_z=[3.0])
    v = f.value(0.5, np.array([[2.0, 1.0]]), np.array([4.0]), np.array([[1.0]]))
    # 1 + 2*0.5 + (2 - 1) + 0.5*4 + 3*1
    assert v[0] == pytest.approx(8.0)
    assert f.lipschitz_yz() == pytest.approx(3.0)
    assert f.depends_on_y()


def test_statefn_vector_codomain():
    f = StateFn(c0=np.array([0.0, 1.0]), C_z=[[1.0], [2.0]])
    v = f.value(0.0, np.zeros((1, 1)), np.zeros(1), np.array([[2.0]]))
    assert np.allclose(v, [[2.0, 5.0]])


def test_statefn_blocks_must_agree_on_the_output_dimension():
    with pytest.raises(DriverError, match="C_x"):
        StateFn(c_t=[1.0, 2.0], C_x=[[1.0]])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_embed_zz_is_bitwise_the_pairwise_loop(d):
    z = np.random.default_rng(d).standard_normal((7, d))
    ref = [z[:, i] * z[:, i] for i in range(d)]
    ref += [np.sqrt(2.0) * z[:, i] * z[:, j]
            for i in range(d) for j in range(i + 1, d)]
    assert np.array_equal(embed_zz(z), np.column_stack(ref))


@pytest.mark.parametrize("d", range(1, 7))
def test_embed_zz_is_bitwise_across_layouts(d, special_batch):
    z = special_batch(300, d, 40 + d)
    with np.errstate(all="ignore"):
        want = embed_zz(z)
        got = embed_zz(np.asfortranarray(z))
    assert want.flags.f_contiguous and got.flags.f_contiguous
    assert got.tobytes() == want.tobytes()


def test_embed_zz_matches_matrix_embedding():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(3)
    # the flat vector is an isometry: its norm is the Frobenius norm of z z^T
    assert np.linalg.norm(embed_zz(z)[0]) == pytest.approx(
        np.linalg.norm(np.outer(z, z)), abs=1e-12)


def test_evaluate_formulas():
    uset = Box([0.0], [1.0])
    z = np.array([[2.0]])
    assert evaluate(ZeroDriver(), 0.0, [[0.0]], [0.0], z, [0.5])[0] == 0.0
    d = AffineDriver(1.0, 2.0, [3.0])
    assert evaluate(d, 0.0, [[0.0]], [1.0], z, None)[0] == pytest.approx(9.0)
    G = StateFn(c0=np.array([0.0]), C_z=[[1.0]])
    p = RegularizedProjectionDriver(h=StateFn(c0=1.0), G=G, eps=0.0)
    # h - 0.5*(a - z)^2 with a=0.5, z=2
    assert evaluate(p, 0.0, [[0.0]], [0.0], z, [0.5])[0] == pytest.approx(
        1.0 - 0.5 * 1.5 ** 2)
    rp = RegularizedProjectionDriver(h=StateFn(c0=1.0), G=G, eps=0.5)
    assert evaluate(rp, 0.0, [[0.0]], [0.0], z, [0.5])[0] == pytest.approx(
        1.0 - 0.5 * 1.5 ** 2 - 0.25 * 0.25)
    g = GRegularizedDriver(eps=0.5, a0=[1.0])
    # 0.5*a*z^2 - 0.25*(a - 1)^2 with a=2, z=2
    assert evaluate(g, 0.0, [[0.0]], [0.0], z, [2.0])[0] == pytest.approx(
        4.0 - 0.25)


@pytest.mark.parametrize("dim", [1, 3, 7, 8, 10])
def test_projection_driver_value_is_bitwise_the_np_sum_formula(dim):
    rng = np.random.default_rng(dim)
    n = 400
    h = StateFn(c0=0.3, c_t=-0.2, C_x=rng.standard_normal((1, 2)), c_y=0.4,
                C_z=rng.standard_normal((1, 2)))
    G = StateFn(c0=rng.standard_normal(dim), c_t=rng.standard_normal(dim),
                C_x=rng.standard_normal((dim, 2)), c_y=rng.standard_normal(dim),
                C_z=rng.standard_normal((dim, 2)))
    x, y, z = (rng.standard_normal((n, 2)), rng.standard_normal(n),
               rng.standard_normal((n, 2)))
    a = rng.standard_normal((n, dim))
    # StateFn.value as it was built, from a tiled constant
    Gv = np.tile(G.c0, (n, 1)) + 0.7 * G.c_t + x @ G.C_x.T \
        + y[:, None] * G.c_y + z @ G.C_z.T
    assert np.array_equal(G.value(0.7, x, y, z), Gv)
    for eps in (0.0, 0.5):
        d = RegularizedProjectionDriver(h=h, G=G, eps=eps)
        ref = h.value(0.7, x, y, z)[:, 0] - 0.5 * np.sum((a - Gv) ** 2, axis=1)
        ref -= 0.5 * eps * np.sum(a * a, axis=1)
        assert np.array_equal(d.value(0.7, x, y, z, a), ref)


@pytest.mark.parametrize("dim_b", [1, 2, 3, 4])
def test_g_regularized_value_is_bitwise_the_np_sum_formula(dim_b):
    # ambient dims 1, 3, 6 and 10: the last one takes np.sum's own path
    rng = np.random.default_rng(dim_b)
    n = 400
    z = rng.standard_normal((n, dim_b))
    a0 = rng.standard_normal(dim_b * (dim_b + 1) // 2)
    a = rng.standard_normal((n, a0.size))
    d = GRegularizedDriver(eps=0.3, a0=a0)
    ref = 0.5 * np.sum(a * embed_zz(z), axis=1) \
        - 0.5 * 0.3 * np.sum((a - a0) ** 2, axis=1)
    x, y = np.zeros((n, 1)), np.zeros(n)
    assert np.array_equal(d.value(0.0, x, y, z, a), ref)


def test_closed_form_maximizers_match_grid_oracle():
    rng = np.random.default_rng(1)
    uset = Box([0.0], [1.0])
    G = StateFn(c0=np.array([0.1]), c_y=[0.5], C_z=[[1.0]])
    rp = RegularizedProjectionDriver(h=StateFn(c0=0.0), G=G, eps=0.5)
    gset = Box([1.0], [2.0])
    gr = GRegularizedDriver(eps=0.5, a0=[1.5])
    for _ in range(10):
        y = rng.uniform(-2, 2)
        z = rng.uniform(-2, 2, size=(1, 1))
        rec, v = maximizer(rp, uset, 0.0, np.zeros((1, 1)), [y], z)
        a = rec.point
        ao, vo = maximizer_oracle(rp, uset, 0.0, np.zeros((1, 1)), [y], z, 1e-3)
        assert abs(a[0, 0] - ao[0]) <= 2e-3 and rp.query is not None
        a = maximizer(gr, gset, 0.0, np.zeros((1, 1)), [y], z)[0].point
        ao, vo = maximizer_oracle(gr, gset, 0.0, np.zeros((1, 1)), [y], z, 1e-3)
        assert abs(a[0, 0] - ao[0]) <= 2e-3


def test_degenerate_argmax_uses_fixed_element():
    uset = Box([0.2], [0.9])
    driver = AffineDriver(1.0, 0.0, [0.0])
    rec, v = maximizer(driver, uset, 0.0, np.zeros((3, 1)), [0.0],
                       np.zeros((1, 1)))
    assert driver.query is None
    assert np.all(rec.point == 0.2) and v[0] == pytest.approx(1.0)
    assert rec.point.shape == (3, 1)
    assert np.all(rec.distance == 0.0) and np.all(rec.member_index == -1)
    assert np.all(rec.medial_gap == np.inf)


def test_glimit_effective_driver_vs_enumeration():
    # support function of a point cloud: direct max over members
    pts = np.array([[1.0], [2.0], [-3.0]])
    uset = PointCloud(pts)
    z = np.array([[1.5]])
    vals = effective_driver(GLimitDriver(), uset, 0.0,
                            np.zeros((1, 1)), [0.0], z)
    c = 0.5 * 1.5 ** 2
    assert vals[0] == pytest.approx(max(c * p[0] for p in pts))


def test_glimit_has_no_pointwise_interface():
    uset = Box([0.0], [1.0])
    with pytest.raises(DriverError):
        evaluate(GLimitDriver(), 0.0, [[0.0]], [0.0], [[1.0]], [0.5])
    with pytest.raises(DriverError):
        maximizer(GLimitDriver(), uset, 0.0, [[0.0]], [0.0], [[1.0]])


@pytest.mark.parametrize("driver, uset, counted, once", [
    (RegularizedProjectionDriver(
        h=StateFn(c0=0.1, C_x=[[0.5]]),
        G=StateFn(c0=np.array([0.2]), C_x=[[1.0]], C_z=[[2.0]]), eps=0.5),
     UnionSet([Box([-1.0], [0.0]), PointCloud([[0.5], [1.25], [2.0]])]),
     "StateFn.value", 2),
    (GRegularizedDriver(eps=0.5, a0=[1.5]), Box([1.0], [2.0]), "embed_zz", 1),
], ids=["projection", "g_regularized"])
def test_maximizer_evaluates_the_shared_term_once(monkeypatch, driver, uset,
                                                 counted, once):
    # G (h and G per call) and embed_zz ran once in query and again in value
    rng = np.random.default_rng(4)
    x, y, z = (rng.standard_normal((200, 1)), rng.standard_normal(200),
               rng.standard_normal((200, 1)))
    proj_ref = uset.project_batch(driver.query(0.3, x, y, z))
    value_ref = driver.value(0.3, x, y, z, proj_ref.point)
    calls = [0]
    owner, name = ((StateFn, "value") if counted == "StateFn.value"
                   else (drivers, "embed_zz"))
    original = getattr(owner, name)

    def tally(*args):
        calls[0] += 1
        return original(*args)
    monkeypatch.setattr(owner, name, tally)
    proj, value = maximizer(driver, uset, 0.3, x, y, z)
    assert calls[0] == once
    assert np.array_equal(value, value_ref)
    for field in ("point", "distance", "member_index", "medial_gap"):
        assert np.array_equal(getattr(proj, field), getattr(proj_ref, field))


def test_driver_check_dimension_checks():
    with pytest.raises(DriverError):
        # dim_b=2 needs ambient dim 3 for the G-type drivers
        GLimitDriver().check(Box([0.0], [1.0]), 1, 2)
    with pytest.raises(DriverError):
        GRegularizedDriver(eps=0.5, a0=[5.0]).check(
            Box([0.0], [1.0]), 1, 1)  # a0 outside the set
    G2 = StateFn(c0=np.array([0.0, 0.0]))
    with pytest.raises(DriverError):
        RegularizedProjectionDriver(h=StateFn(c0=0.0), G=G2, eps=0.0).check(
            Box([0.0], [1.0]), 1, 1)
    with pytest.raises(DriverError, match="h must be scalar, has 2 entries"):
        RegularizedProjectionDriver(h=StateFn(c0=[0.0, 0.0]),
                                    G=StateFn(c0=[0.0]), eps=0.0).check(
            Box([0.0], [1.0]), 1, 1)
    with pytest.raises(DriverError, match="inconsistent batch sizes"):
        evaluate(ZeroDriver(), 0.0, np.zeros((3, 1)), np.zeros(2),
                 np.zeros((3, 1)), None)


def test_effective_driver_is_max_over_random_feasible_points():
    rng = np.random.default_rng(2)
    uset = UnionSet([Box([0.0], [1.0]), Box([3.0], [4.0])])
    G = StateFn(c0=np.array([0.0]), C_z=[[2.0]])
    rp = RegularizedProjectionDriver(h=StateFn(c0=0.0), G=G, eps=0.3)
    z = rng.uniform(-3, 3, size=(50, 1))
    vals = effective_driver(rp, uset, 0.0, np.zeros((1, 1)),
                            np.zeros(50), z)
    for _ in range(20):
        a = rng.choice([rng.uniform(0, 1), rng.uniform(3, 4)])
        other = evaluate(rp, 0.0, np.zeros((1, 1)), np.zeros(50), z, [a])
        assert np.all(vals >= other - 1e-9)


def test_empirical_lipschitz_respects_affine_bound():
    uset = Box([0.0], [1.0])
    d = AffineDriver(1.0, 2.0, [3.0, 4.0])
    est = empirical_lipschitz(d, uset, ([-1, -1, -1], [1, 1, 1]), 2000, 0)
    # exact Lipschitz constant of 2y + <(3,4), z> w.r.t. |dy| + ||dz||
    assert est <= 5.0 + 1e-9
    assert est > 4.0  # the sample comes close to the true constant


def test_driver_depends_on_y():
    assert not ZeroDriver().depends_on_y()
    assert AffineDriver(0.0, 1.0, [0.0]).depends_on_y()
    assert not AffineDriver(1.0, 0.0, [2.0]).depends_on_y()
    G = StateFn(c0=np.array([0.0]), c_y=[1.0])
    assert RegularizedProjectionDriver(h=StateFn(c0=0.0), G=G, eps=0.0).depends_on_y()


@pytest.mark.parametrize("eps", [-0.1, np.nan, np.inf, "x"])
def test_projection_eps_must_be_finite_and_non_negative(eps):
    G = StateFn(c0=np.array([0.0]))
    with pytest.raises(DriverError, match="eps must be finite"):
        RegularizedProjectionDriver(h=StateFn(c0=0.0), G=G, eps=eps)


@pytest.mark.parametrize("eps, uset, unsound", [
    # a constant G: the query does not move with (y, z), so the argmax
    # cannot jump, even at eps = 0 on a union
    (0.0, UnionSet([Box([0.0], [1.0]), Box([3.0], [4.0])]), False),
    (0.0, Ball([0.0], 1.0), False),
    (0.5, UnionSet([Box([0.0], [1.0]), Box([3.0], [4.0])]), False),
    (0.5, PointCloud([[0.0], [1.0]]), False),
])
def test_unsound_for_existence_exactly_at_eps_zero_on_nonconvex_sets(
        eps, uset, unsound):
    G = StateFn(c0=np.array([0.0]))
    rp = RegularizedProjectionDriver(h=StateFn(c0=0.0), G=G, eps=eps)
    assert rp.unsound_for_existence(uset) is unsound
    # the g_regularized query a0 + embed_zz(z) / (2 eps) always moves, so
    # only the convex ball is sound
    g_unsound = GRegularizedDriver(eps=0.5, a0=[0.0]).unsound_for_existence(uset)
    assert g_unsound is (not isinstance(uset, Ball))


def test_regularization_does_not_make_the_union_maximizer_lipschitz():
    # the argmax is the projection of G / (1 + eps) at every eps: eps
    # shrinks the query but leaves the set a union, so the maximizer jumps
    # across the gap as z crosses 0, and no Lipschitz constant holds
    union = UnionSet([Box([-1.0], [-0.5]), Box([0.5], [1.0])])
    G = StateFn(c0=np.array([0.0]), C_z=[[1.0]])
    rp = RegularizedProjectionDriver(h=StateFn(c0=0.0), G=G, eps=0.5)
    below, _ = maximizer(rp, union, 0.0, [[0.0]], [0.0], [[-1e-6]])
    above, _ = maximizer(rp, union, 0.0, [[0.0]], [0.0], [[1e-6]])
    assert below.point[0, 0] == -0.5 and above.point[0, 0] == 0.5
    assert rp.unsound_for_existence(union) is True
    # on the convex hull the map is Lipschitz with constant 1 / (1 + eps)
    hull = Box([-1.0], [1.0])
    assert rp.unsound_for_existence(hull) is False


def broadcast_statefn_value(f, t, x, y, z):
    """StateFn.value with its rows and the y column broadcast."""
    out = np.empty((x.shape[0], f.c0.size))
    out[:] = f.c0
    out += t * f.c_t
    out += x @ f.C_x.T
    out += y[:, None] * f.c_y
    out += z @ f.C_z.T
    return out


@pytest.mark.parametrize("m", range(1, 11))
def test_statefn_value_is_bitwise_its_broadcast_formula(m, special_batch):
    # signed zeros and subnormals in the coefficients; signed zeros,
    # infinities, nan and subnormals in y
    rng = np.random.default_rng(m)
    odd = np.arange(m) % 2 == 1
    f = StateFn(c0=np.where(odd, -0.0, 1e-310), c_t=np.where(odd, 0.5, -0.0),
                C_x=rng.normal(size=(m, 2)), c_y=np.where(odd, -5e-324, -1.5),
                C_z=rng.normal(size=(m, 3)))
    n = 300
    x, z = rng.normal(size=(n, 2)), rng.normal(size=(n, 3))
    y = special_batch(n, 1, m)[:, 0]
    with np.errstate(all="ignore"):
        for t in (0.0, -0.0, 0.375):
            got = f.value(t, x, y, z)
            want = broadcast_statefn_value(f, t, x, y, z)
            assert got.tobytes() == want.tobytes(), t
