import numpy as np
import pytest

import thetabsde as tb
from thetabsde import engine, theta
from thetabsde.drivers import effective_driver
from thetabsde.engine import EngineError
from thetabsde.theta import (integrate_theta_qv, simulate_theta_bm,
                             verify_theta_martingale)


UNIT_BOX = tb.Box([0.0], [1.0])


def brownian_from(ens):
    n = ens.increments.shape[0]
    return np.concatenate([np.zeros((n, 1)),
                           np.cumsum(ens.increments[:, :, 0], axis=1)], axis=1)


def base_scenario(driver, n_paths=2000, n_steps=20, seed=7):
    sde = tb.SdeSpec(dim_x=1, dim_b=1, x0=[0.0], vol_const=[[1.0]])
    return tb.Scenario(sde=sde, driver=driver, uset=UNIT_BOX,
                       terminal=tb.Payoff([0.0, 1.0]),
                       grid=tb.TimeGrid(0.0, 1.0, n_steps),
                       n_paths=n_paths, seed=seed)


def test_zero_driver_bm_is_plain_bm_bitwise():
    grid = tb.TimeGrid(0.0, 1.0, 50)
    ens = simulate_theta_bm(tb.ZeroDriver(), UNIT_BOX, grid, 200, 1)
    assert np.array_equal(ens.states[:, :, 0], brownian_from(ens))


def test_zero_driver_bm_is_the_driver_loop_bitwise(monkeypatch):
    # ZeroDriver's F is 0.0, so the driver loop's b - 0.0 * dt is b: the
    # path is the running sum, from a -0.0 first increment on
    grid = tb.TimeGrid(0.0, 1.0, 12)
    n_paths = 64
    dB = engine.brownian_increments(grid, n_paths, 3, 1).copy()
    dB[::2, 0, 0] = -0.0
    dB[1::4, 3:6, 0] = -0.0
    dB[5, :, 0] = -0.0
    monkeypatch.setattr(theta, "brownian_increments", lambda *args: dB)
    ens = simulate_theta_bm(tb.ZeroDriver(), UNIT_BOX, grid, n_paths, 3)
    b = np.zeros((grid.n_steps + 1, n_paths, 1))
    ones = np.ones((n_paths, 1))
    for i in range(grid.n_steps):
        f = effective_driver(tb.ZeroDriver(), UNIT_BOX, grid.times[i], b[i],
                             b[i, :, 0], ones)
        b[i + 1, :, 0] = b[i, :, 0] - f * grid.dt + dB[:, i, 0]
    assert ens.states.tobytes() == np.ascontiguousarray(
        np.swapaxes(b, 0, 1)).tobytes()
    assert np.all(ens.states[5] == 0.0)


def test_constant_drift_exact():
    grid = tb.TimeGrid(0.0, 1.0, 40)
    c = 0.7
    ens = simulate_theta_bm(tb.AffineDriver(c, 0.0, [0.0]), UNIT_BOX, grid, 100, 2)
    expected = brownian_from(ens) - c * grid.times
    assert np.allclose(ens.states[:, :, 0], expected, atol=1e-12)


def test_realized_quadratic_variation_is_t():
    grid = tb.TimeGrid(0.0, 1.0, 10_000)
    ens = simulate_theta_bm(tb.AffineDriver(0.5, 0.0, [0.0]), UNIT_BOX,
                            grid, 1000, 3)
    qv = np.sum(np.diff(ens.states[:, :, 0], axis=1) ** 2, axis=1)
    assert abs(np.mean(qv) - 1.0) <= 0.05


def test_qv_ode_recovers_classical_dimension():
    # F = 0, d = 2: qv = 2t exactly
    grid = tb.TimeGrid(0.0, 1.0, 25)
    rng = np.random.default_rng(4)
    B = np.cumsum(rng.standard_normal((26, 2)) * np.sqrt(grid.dt), axis=0)
    B[0] = 0.0
    qv = integrate_theta_qv(tb.ZeroDriver(), tb.Box([0.0, 0.0], [1.0, 1.0]),
                            grid, B[None])
    assert np.allclose(qv.qv, 2.0 * grid.times, atol=1e-12)
    assert qv.monotone
    assert np.allclose(qv.m_path, np.sum(B ** 2, axis=1) - qv.qv)


def test_qv_constant_driver():
    grid = tb.TimeGrid(0.0, 1.0, 30)
    B = np.zeros((31, 1))
    qv = integrate_theta_qv(tb.AffineDriver(0.5, 0.0, [0.0]), UNIT_BOX,
                            grid, B[None])
    assert np.allclose(qv.qv, 1.5 * grid.times, atol=1e-12)


def test_qv_gregularized_at_frozen_zero_path():
    # z = 0 makes the quadratic term vanish; max of the penalty is 0 at a0
    grid = tb.TimeGrid(0.0, 1.0, 20)
    B = np.zeros((21, 1))
    drv = tb.GRegularizedDriver(eps=0.5, a0=[1.5])
    qv = integrate_theta_qv(drv, tb.Box([1.0], [2.0]), grid, B[None])
    assert np.allclose(qv.qv, grid.times, atol=1e-12)


def test_qv_refinement_exact_for_constant_integrand():
    drv = tb.AffineDriver(0.25, 0.0, [0.0])
    for n in (10, 20, 40):
        grid = tb.TimeGrid(0.0, 1.0, n)
        qv = integrate_theta_qv(drv, UNIT_BOX, grid, np.zeros((1, n + 1, 1)))
        assert qv.qv[0, -1] == pytest.approx(1.25, abs=1e-14)


@pytest.mark.parametrize("driver, uset", [
    (tb.AffineDriver(-0.4, 0.3, [0.2]), UNIT_BOX),
    (tb.RegularizedProjectionDriver(
        h=tb.StateFn(c0=0.0, c_y=0.2),
        G=tb.StateFn(c0=np.array([0.0]), C_x=[[1.0]], C_z=[[0.5]]), eps=0.3),
     tb.UnionSet([tb.Box([-1.0], [0.0]), tb.PointCloud([[0.5], [1.25], [2.0]])])),
    (tb.GRegularizedDriver(eps=0.5, a0=[1.5]), tb.Box([1.0], [2.0])),
])
def test_qv_paths_batch_equals_one_path_at_a_time(driver, uset):
    grid = tb.TimeGrid(0.0, 1.0, 25)
    ens = tb.simulate_forward(tb.SdeSpec(dim_x=1, dim_b=1, x0=[0.2]),
                              grid, 300, 11)
    X = ens.all_states()
    qv = integrate_theta_qv(driver, uset, grid, X)
    assert qv.qv.shape == qv.m_path.shape == (300, 26)
    for p in range(300):
        one = integrate_theta_qv(driver, uset, grid, X[p:p + 1])
        assert np.array_equal(one.qv[0], qv.qv[p])
        assert np.array_equal(one.m_path[0], qv.m_path[p])
        assert one.monotone[0] == qv.monotone[p]


def test_martingale_zero_driver():
    sc = base_scenario(tb.ZeroDriver(), n_paths=5000)
    rep = verify_theta_martingale(sc, "theta_bm", 0, sc.grid.n_steps)
    assert rep["residual"] <= 3 * rep["stderr"]


def test_martingale_constant_driver_drift_cancels():
    sc = base_scenario(tb.AffineDriver(0.5, 0.0, [0.0]), n_paths=5000)
    rep = verify_theta_martingale(sc, "theta_bm", 0, sc.grid.n_steps)
    assert rep["residual"] <= 3 * rep["stderr"]


def test_m_qv_is_martingale_on_affine_fixture():
    sc = base_scenario(tb.AffineDriver(0.3, 0.0, [0.0]), n_paths=2000,
                       n_steps=25)
    rep = verify_theta_martingale(sc, "m_qv", 0, sc.grid.n_steps)
    assert rep["residual"] <= 3 * rep["stderr"]


def test_linear_bm_witness_reports_nonzero_driver():
    c = 0.4
    sc = base_scenario(tb.AffineDriver(c, 0.0, [0.0]), n_paths=5000)
    rep = verify_theta_martingale(sc, "linear_bm", 0, sc.grid.n_steps, c=1.0)
    assert rep["driver_value"] == pytest.approx(c, abs=1e-12)
    # drift accounting: residual near |c| * (s - t)
    assert rep["residual"] == pytest.approx(c * 1.0, abs=3 * rep["stderr"])


def test_martingale_residual_shrinks_with_ensemble_size():
    residuals = []
    sizes = [500, 2000, 8000]
    for n in sizes:
        reps = [verify_theta_martingale(
            base_scenario(tb.ZeroDriver(), n_paths=n, seed=100 + r),
            "theta_bm", 0, 20)["residual"] for r in range(8)]
        residuals.append(np.mean(reps))
    slope = np.polyfit(np.log(sizes), np.log(residuals), 1)[0]
    assert -0.8 <= slope <= -0.2  # O(n^-1/2) decay


def test_martingale_index_validation():
    sc = base_scenario(tb.ZeroDriver(), n_paths=100)
    with pytest.raises(EngineError):
        verify_theta_martingale(sc, "theta_bm", 5, 5)
    with pytest.raises(EngineError):
        verify_theta_martingale(sc, "bogus", 0, 5)
    # indexed the paths with 0.5 and raised a bare IndexError
    with pytest.raises(EngineError, match="t_index must be an integer"):
        verify_theta_martingale(sc, "linear_bm", 0.5, 3)


def test_qv_rejects_paths_off_the_grid():
    grid = tb.TimeGrid(0.0, 1.0, 5)
    with pytest.raises(EngineError, match="does not match the grid"):
        integrate_theta_qv(tb.ZeroDriver(), UNIT_BOX, grid,
                           np.zeros((4, 5, 1)))


def test_martingale_window_is_solved_on_its_own_times():
    # F = t exactly (G = 0.5 lies inside the box); with M = 0 the window
    # value is the left-point sum dt * sum_{t <= t_i < s} t_i
    drv = tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0, c_t=1.0),
                                         G=tb.StateFn(c0=np.array([0.5])),
                                         eps=0.0)
    sc = base_scenario(drv, n_paths=200, n_steps=20)
    times = sc.grid.times
    for t_index, s_index in ((0, 10), (10, 20)):
        rep = verify_theta_martingale(sc, "linear_bm", t_index, s_index, c=0.0)
        expected = sc.grid.dt * np.sum(times[t_index:s_index])
        assert rep["residual"] == pytest.approx(expected, rel=1e-9)


def test_martingale_windows_to_n_are_the_solve_on_the_same_paths():
    # window (t, n) is node t of one sweep on the scenario's own grid, so
    # it reads the solve's Y_t bitwise however the driver depends on t and y
    drv = tb.RegularizedProjectionDriver(
        h=tb.StateFn(c0=0.0, c_t=0.7, c_y=0.2),
        G=tb.StateFn(c0=np.array([0.3]), C_z=[[0.5]]), eps=0.3)
    sc = base_scenario(drv, n_paths=500, n_steps=20)
    ens = simulate_theta_bm(tb.ZeroDriver(), UNIT_BOX, sc.grid, sc.n_paths,
                            sc.seed)
    B = ens.states[:, :, 0]
    Y = tb.solve_theta_bsde(sc, paths=ens, terminal_values=B[:, -1]).Y
    for t in range(sc.grid.n_steps):
        rep = verify_theta_martingale(sc, "linear_bm", t, sc.grid.n_steps)
        assert rep["residual"] == float(np.mean(np.abs(B[:, t] - Y[:, t]))), t


def test_theta_bm_holds_its_paths_and_nothing_beside_them(traced_peak):
    # 20k paths x 50 steps: b and dB are 8 MB each, and no other
    # (n_steps, n_paths) buffer is held
    grid = tb.TimeGrid(0.0, 1.0, 50)
    peak, ens = traced_peak(simulate_theta_bm,
                            tb.AffineDriver(0.5, 0.0, [0.0]), UNIT_BOX, grid,
                            20_000, 7)
    held = ens.states.nbytes + ens.increments.nbytes
    assert peak <= held + 0.5 * ens.states.nbytes, (peak, held)


def test_theta_paths_are_stored_node_major():
    grid = tb.TimeGrid(0.0, 1.0, 10)
    ens = simulate_theta_bm(tb.AffineDriver(0.5, 0.0, [0.0]), UNIT_BOX, grid, 100, 3)
    b = ens.states[:, :, 0]
    qv = integrate_theta_qv(tb.ZeroDriver(), UNIT_BOX, grid, ens.states)
    assert b.shape == qv.qv.shape == qv.m_path.shape == (100, 11)
    for i in range(grid.n_steps + 1):
        assert all(a[:, i].flags.c_contiguous for a in (b, qv.qv, qv.m_path))


def test_qv_norms_are_bitwise_across_layouts():
    # all_states hands out column-major rows at dim 3, where einsum would
    # sum the squared norms in another order than over C-ordered rows; the
    # G-limit driver on a box takes no BLAS product
    sde = tb.SdeSpec(dim_x=3, dim_b=3, x0=[0.5, -0.5, 0.0],
                     vol_const=np.eye(3))
    grid = tb.TimeGrid(0.0, 1.0, 8)
    B = engine.simulate_forward(sde, grid, 300, 5).all_states()
    box = tb.Box(np.zeros(6), np.ones(6))
    assert B[:, 0].flags.f_contiguous
    got = integrate_theta_qv(tb.GLimitDriver(), box, grid, B)
    want = integrate_theta_qv(tb.GLimitDriver(), box, grid,
                              np.ascontiguousarray(B))
    for name in ("qv", "m_path", "monotone"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
