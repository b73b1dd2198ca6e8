from dataclasses import replace

import numpy as np
import pytest

import thetabsde as tb
from thetabsde.pde import (PdeError, PdeGrid, _Lookup, _tridiagonal_inverse,
                           auto_grid, solve_pde)


UNIT_BOX = tb.Box([0.0], [1.0])


def make_sde():
    return tb.SdeSpec(dim_x=1, dim_b=1, x0=[0.0], vol_const=[[1.0]])


def heat_grid(n_x=400, T=0.25):
    span = 6.0 * np.sqrt(T)
    dx = 2 * span / (n_x - 1)
    n_t = int(np.ceil(T / (dx ** 2 / 1.1))) + 1
    return PdeGrid(-span, span, n_x, n_t, 0.0, T)


def test_heat_equation_closed_form():
    # F=0, sigma=1, phi=x^2: u(t,x) = x^2 + (T - t)
    g = heat_grid()
    surf = solve_pde(tb.ZeroDriver(), UNIT_BOX, make_sde(),
                     tb.Payoff([0.0, 0.0, 1.0]), g)
    xs = g.xs
    interior = np.abs(xs) <= 0.5 * xs[-1]
    exact = xs[interior] ** 2 + 0.25
    assert np.max(np.abs(surf.u[0][interior] - exact)) <= 1e-3


def imex_step_matrix(n_x, a):
    """Dense I - dt L of the IMEX sweep: interior rows (-a, 1 + 2a, -a),
    identity boundary rows."""
    m = np.eye(n_x)
    i = np.arange(1, n_x - 1)
    m[i, i] += 2 * a
    m[i, i - 1] = m[i, i + 1] = -a
    return m


def test_tridiagonal_inverse_matches_the_dense_inverse():
    pgrid = auto_grid(make_sde(), tb.TimeGrid(0.0, 1.0, 50))
    assert pgrid.n_x == 400
    a_fk = pgrid.dt_pde * 0.5 / pgrid.dx ** 2
    for a in (a_fk, 1e-3, 100.0):
        off = np.full(pgrid.n_x, -a)
        diag = np.full(pgrid.n_x, 1.0 + 2 * a)
        off[[0, -1]] = 0.0
        diag[[0, -1]] = 1.0
        ref = np.linalg.inv(imex_step_matrix(pgrid.n_x, a))
        assert np.max(np.abs(_tridiagonal_inverse(off, diag, off) - ref)) <= 1e-14


def full_row_tridiagonal_inverse(lower, diag, upper):
    """The Thomas elimination over the identity's columns on whole rows:
    the reference for ``_tridiagonal_inverse``'s row-prefix updates."""
    n = len(diag)
    inv = np.eye(n)
    c = np.empty(n)
    for i in range(n):
        m = diag[i]
        if i:
            m -= lower[i] * c[i - 1]
            inv[i] -= lower[i] * inv[i - 1]
        c[i] = upper[i] / m
        inv[i] /= m
    for i in range(n - 2, -1, -1):
        inv[i] -= c[i] * inv[i + 1]
    return inv


def test_tridiagonal_inverse_is_bitwise_the_full_row_elimination():
    # right of the diagonal the forward pass meets only +0.0, which the
    # full-row update and the positive pivot leave +0.0
    pgrid = auto_grid(make_sde(), tb.TimeGrid(0.0, 1.0, 50))
    rng = np.random.default_rng(4)
    cases = []
    for a in (pgrid.dt_pde * 0.5 / pgrid.dx ** 2, 1e-3, 100.0, 0.0):
        off = np.full(pgrid.n_x, -a)
        diag = np.full(pgrid.n_x, 1.0 + 2 * a)
        off[[0, -1]] = 0.0
        diag[[0, -1]] = 1.0
        cases.append((off, diag, off))
    # diagonally dominant with a positive diagonal, off-diagonals of both
    # signs and unequal sides, and one of 8 rows (the smallest grid)
    for n in (8, 57):
        lower, upper = rng.normal(size=(2, n))
        cases.append((lower, np.abs(lower) + np.abs(upper) + rng.random(n),
                      upper))
    for lower, diag, upper in cases:
        assert bits(_tridiagonal_inverse(lower, diag, upper)).tobytes() == \
            bits(full_row_tridiagonal_inverse(lower, diag, upper)).tobytes()


def test_solve_pde_forms_no_dense_inverse(monkeypatch):
    def no_inverse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    g = heat_grid()
    surf = solve_pde(tb.ZeroDriver(), UNIT_BOX, make_sde(),
                     tb.Payoff([0.0, 0.0, 1.0]), g)
    interior = np.abs(g.xs) <= 0.5 * g.xs[-1]
    exact = g.xs[interior] ** 2 + 0.25
    assert np.max(np.abs(surf.u[0][interior] - exact)) <= 1e-3


def test_constant_driver_ode():
    g = heat_grid()
    k = 0.3
    surf = solve_pde(tb.AffineDriver(k, 0.0, [0.0]), UNIT_BOX, make_sde(),
                     tb.Payoff([0.0]), g)
    assert np.max(np.abs(surf.u[0] - k * 0.25)) <= 1e-10


def test_terminal_row_is_exact():
    g = heat_grid(n_x=100)
    payoff = tb.Payoff([0.0, 1.0, 0.5])
    surf = solve_pde(tb.ZeroDriver(), UNIT_BOX, make_sde(), payoff, g)
    assert np.array_equal(surf.u[-1], payoff.value(g.xs.reshape(-1, 1)))


def test_grid_refinement_improves_heat_error():
    # phi = x^4 has nonzero spatial truncation error (a quadratic payoff is
    # differenced exactly); closed form u(0,x) = x^4 + 6x^2 T + 3T^2
    T = 0.25

    def err(n_x):
        span = 4.0  # wide domain keeps the boundary closure out of the picture
        dx = 2 * span / (n_x - 1)
        n_t = int(np.ceil(T / (dx ** 2 / 1.1))) + 1
        g = PdeGrid(-span, span, n_x, n_t, 0.0, T)
        surf = solve_pde(tb.ZeroDriver(), UNIT_BOX, make_sde(),
                         tb.Payoff([0.0, 0.0, 0.0, 0.0, 1.0]), g)
        xs = g.xs
        interior = np.abs(xs) <= 1.0
        exact = xs[interior] ** 4 + 6 * xs[interior] ** 2 * T + 3 * T ** 2
        return np.max(np.abs(surf.u[0][interior] - exact))

    assert err(100) / err(200) >= 3.0


def test_discrete_comparison_principle():
    g = heat_grid(n_x=150)
    G = tb.StateFn(c0=np.array([0.0]), C_z=[[1.0]])
    drv = tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0), G=G, eps=0.5)
    u1 = solve_pde(drv, UNIT_BOX, make_sde(), tb.Payoff([1.0, 0.0, 1.0]), g)
    u2 = solve_pde(drv, UNIT_BOX, make_sde(), tb.Payoff([0.0, 0.0, 1.0]), g)
    assert np.all(u1.u >= u2.u - 1e-12)


def test_heat_step_far_above_the_explicit_bound_is_stable():
    # n_t = 10 is about 120 times the explicit scheme's dx^2 / sigma^2 step
    g = heat_grid()
    g = PdeGrid(g.x_min, g.x_max, g.n_x, 10, 0.0, g.T)
    assert g.dt_pde >= 100 * g.dx ** 2
    G = tb.StateFn(c0=np.array([0.0]), C_z=[[1.0]])
    drv = tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0), G=G, eps=0.5)
    # max(x, 0) >= min(max(x, 0), 0.5): the driver sees different gradients
    u1 = solve_pde(drv, UNIT_BOX, make_sde(),
                   tb.Payoff([0.0, 1.0], clamp=(0.0, 1e6)), g)
    u2 = solve_pde(drv, UNIT_BOX, make_sde(),
                   tb.Payoff([0.0, 1.0], clamp=(0.0, 0.5)), g)
    assert np.all(np.isfinite(u1.u)) and np.all(np.isfinite(u2.u))
    assert np.all(u1.u >= u2.u - 1e-12)
    # and the heat solution x^2 + (T - t) is still met in the interior
    heat = solve_pde(tb.ZeroDriver(), UNIT_BOX, make_sde(),
                     tb.Payoff([0.0, 0.0, 1.0]), g)
    interior = np.abs(g.xs) <= 0.5 * g.xs[-1]
    exact = g.xs[interior] ** 2 + g.T
    assert np.max(np.abs(heat.u[0][interior] - exact)) <= 1e-3


def test_time_refinement_is_first_order_and_the_estimate_tracks_it():
    # phi = x^4, closed form u(0, 0) = 3 T^2; a fine x grid leaves the error
    # to the time step
    T = 0.25

    def solve(n_t):
        g = PdeGrid(-4.0, 4.0, 801, n_t, 0.0, T)
        surf = solve_pde(tb.ZeroDriver(), UNIT_BOX, make_sde(),
                         tb.Payoff([0.0, 0.0, 0.0, 0.0, 1.0]), g)
        return (abs(surf.value_at(0, 0.0) - 3 * T ** 2),
                float(np.interp(0.0, g.xs, surf.u0_discretisation_err)))

    (err, estimate), (err_fine, _) = solve(10), solve(20)
    assert err / err_fine >= 1.8
    assert 0.5 * err <= estimate <= 2.0 * err


def test_auto_grid_puts_four_pde_steps_on_each_mc_step():
    g = auto_grid(make_sde(), tb.TimeGrid(0.0, 1.0, 10), n_x=200)
    assert g.n_t == 40
    assert g.x_min == pytest.approx(-6.0) and g.x_max == pytest.approx(6.0)


def test_pde_grid_rejects_non_finite_bounds_and_single_steps():
    with pytest.raises(PdeError, match="finite"):
        PdeGrid(-np.inf, 1.0, 100, 10, 0.0, 1.0)
    with pytest.raises(PdeError, match="n_t must be >= 2"):
        PdeGrid(-1.0, 1.0, 100, 1, 0.0, 1.0)
    # built a 17-point grid that ran past x_max
    with pytest.raises(PdeError, match="n_x must be an integer"):
        PdeGrid(-1.0, 1.0, 16.5, 10, 0.0, 1.0)


def test_pde_grid_rejects_a_grid_numpy_cannot_size():
    # the (n_x, n_x) step matrix and the (n_t + 1, n_x) surface: numpy
    # sizes no array past np.iinfo(np.intp).max bytes
    largest = np.iinfo(np.intp).max
    n_x = 2 ** 30  # n_x ** 2 * 8 is 2**63, one byte past intp
    assert (n_x - 1) ** 2 * 8 <= largest < n_x ** 2 * 8
    PdeGrid(-1.0, 1.0, n_x - 1, 2, 0.0, 1.0)
    with pytest.raises(PdeError, match=r"n_x = 1.07e\+09 is too large"):
        PdeGrid(-1.0, 1.0, n_x, 2, 0.0, 1.0)
    n_t = 2 ** 57 - 1  # (n_t + 1) * 8 * 8 is 2**63
    PdeGrid(-1.0, 1.0, 8, n_t - 1, 0.0, 1.0)
    with pytest.raises(PdeError, match=r"n_t = 1.44e\+17 is too large"):
        PdeGrid(-1.0, 1.0, 8, n_t, 0.0, 1.0)
    for n_x, n_t in ((1e30, 10), (400, 1e30)):
        with pytest.raises(PdeError, match="too large"):
            PdeGrid(-1.0, 1.0, n_x, n_t, 0.0, 1.0)


def test_pde_grid_rejects_cells_the_lookup_cannot_estimate():
    # a cell of at least 2**-48 of the largest |x| passes
    width = 2.0 ** -48 * 1e6
    PdeGrid(1e6 - 9 * width, 1e6, 10, 2, 0.0, 1.0)
    with pytest.raises(PdeError, match="narrower than 2\\*\\*-48"):
        PdeGrid(1e6 - 9 * width * 0.99, 1e6, 10, 2, 0.0, 1.0)


LOOKUP_GRIDS = {
    "heat": PdeGrid(-3.0, 3.0, 400, 2, 0.0, 1.0),
    # odd n_x, an asymmetric span off the origin
    "odd_asymmetric": PdeGrid(-1.3, 7.9, 401, 2, 0.0, 1.0),
    "smallest": PdeGrid(0.25, 0.5, 8, 2, 0.0, 1.0),
    # cells of 2**-46 of |x|, near the narrowest a grid may have
    "narrow": PdeGrid(1e6, 1e6 + 399 * 2.0 ** -46 * 1e6, 400, 2, 0.0, 1.0),
}


def lookup_rows(n_x, rng):
    """Rows of n_x values: smooth, with zeros, -0.0 and flat runs."""
    xs = np.linspace(-2.0, 2.0, n_x)
    smooth = np.sin(3 * xs) + 0.1 * rng.normal(size=n_x)
    signed = smooth.copy()
    signed[::3], signed[1::5] = 0.0, -0.0
    flat = np.repeat(rng.normal(size=n_x // 4 + 1), 4)[:n_x]
    flat[:n_x // 2] = -0.0
    return smooth, signed, flat, np.zeros(n_x), np.full(n_x, -0.0)


def assert_lookup_is_interp(g, x, row):
    """The lookup and np.interp agree bit for bit."""
    assert np.array_equal(bits(_Lookup(g)(x, row)),
                          bits(np.interp(x, g.xs, row)))


@pytest.mark.parametrize("name", LOOKUP_GRIDS)
def test_lookup_is_bitwise_interp_on_random_points(name):
    g = LOOKUP_GRIDS[name]
    rng = np.random.default_rng(len(name))
    centre, half = 0.5 * (g.x_min + g.x_max), 0.5 * (g.x_max - g.x_min)
    for row in lookup_rows(g.n_x, rng):
        # unsorted points inside the grid and past both ends, in batches
        # of fewer and of more points than n_x
        for spread in (0.01, 0.3, 1.0, 3.0):
            for n in (3, 100, 10_000):
                x = centre + spread * half * rng.normal(size=n)
                assert_lookup_is_interp(g, x, row)


@pytest.mark.parametrize("name", LOOKUP_GRIDS)
def test_lookup_is_bitwise_interp_at_nodes_ends_and_special_values(name):
    g = LOOKUP_GRIDS[name]
    xs = g.xs
    x = np.concatenate([
        xs, np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf),
        # below, at and above both ends
        [xs[0] - 1.0, g.x_min, xs[-1], g.x_max, xs[-1] + 1.0],
        [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 5e-324, -1e300, 1e300]])
    for row in lookup_rows(g.n_x, np.random.default_rng(1)):
        # pytest turns warnings into errors: an integer cast of inf or
        # nan would warn
        assert_lookup_is_interp(g, x, row)
        assert_lookup_is_interp(g, x[::-1].copy(), row)


def test_value_surface_refuses_non_finite_or_misshaped_arrays():
    # the cell lookup reads only finite rows: a surface holds no others
    g = PdeGrid(-1.0, 1.0, 8, 2, 0.0, 1.0)
    u, err = np.zeros((3, 8)), np.zeros(8)
    assert tb.ValueSurface(u, g, err).value_at(1, 0.3) == 0.0
    for bad in (np.inf, -np.inf, np.nan):
        u_bad, err_bad = u.copy(), err.copy()
        u_bad[1, 4] = err_bad[7] = bad
        with pytest.raises(PdeError, match="^u must be a finite array"):
            tb.ValueSurface(u_bad, g, err)
        with pytest.raises(PdeError, match="^u0_discretisation_err must"):
            tb.ValueSurface(u, g, err_bad)
    for u_bad, err_bad in ((u[:2], err), (u.T, err), (u[0], err),
                           (u, np.zeros(9)), (u, err[None]), (u, 0.0)):
        with pytest.raises(PdeError, match=r"of shape \("):
            tb.ValueSurface(u_bad, g, err_bad)


def test_solve_pde_raises_before_a_non_finite_row():
    # phi = 1e308 x^2 overflows on the grid: the sweep's per-step check
    # raises, so no surface is made
    g = heat_grid(n_x=50)
    with pytest.raises(PdeError, match="non-finite values in PDE sweep"), \
            np.errstate(over="ignore", invalid="ignore"):
        solve_pde(tb.ZeroDriver(), UNIT_BOX, make_sde(),
                  tb.Payoff([0.0, 0.0, 1e308]), g)


def test_lookup_reads_one_point_as_a_float():
    g = LOOKUP_GRIDS["odd_asymmetric"]
    row = np.sin(g.xs)
    for x in (g.xs[7], 0.3, -5.0, 100.0):
        got = _Lookup(g).at(x, row)
        assert type(got) is float
        assert bits(got) == bits(np.interp(x, g.xs, row))


def test_feynman_kac_trivial_fixtures():
    grid = tb.TimeGrid(0.0, 1.0, 20)
    # martingale terminal mean: both sides near zero
    sc = tb.Scenario(sde=make_sde(), driver=tb.ZeroDriver(), uset=UNIT_BOX,
                     terminal=tb.Payoff([0.0, 1.0]), grid=grid,
                     n_paths=20_000, seed=3)
    rep = tb.feynman_kac_compare(sc, surface=fk_surface(sc, n_x=200))
    assert rep["abs_err"] <= 3 * rep["stderr"] + 1e-9
    # constant driver: both equal k*T
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(0.4, 0.0, [0.0]),
                     uset=UNIT_BOX, terminal=tb.Payoff([0.0]), grid=grid,
                     n_paths=2000, seed=3)
    rep = tb.feynman_kac_compare(sc, surface=fk_surface(sc, n_x=200))
    assert rep["y0_mc"] == pytest.approx(0.4, abs=1e-6)
    assert rep["u0"] == pytest.approx(0.4, abs=1e-6)


def test_fk_path_rms_reads_the_nearest_pde_row():
    # constant driver, phi = 0: Y_i = u(t_i, x) = 0.4 (T - t_i) on every path
    grid = tb.TimeGrid(0.0, 1.0, 20)
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(0.4, 0.0, [0.0]),
                     uset=UNIT_BOX, terminal=tb.Payoff([0.0]), grid=grid,
                     n_paths=200, seed=3)
    rep = tb.feynman_kac_compare(sc, surface=fk_surface(sc, n_x=50))
    assert rep["fk_path_rms_max"] <= 1e-9
    assert rep["u0_discretisation_err"] <= 1e-9
    # 30 PDE steps on 20 nodes: the odd nodes lie half a PDE step from the
    # nearest row, where u is off by 0.4 / 60
    rep = tb.feynman_kac_compare(sc, surface=solve_pde(
        sc.driver, sc.uset, sc.sde, sc.terminal,
        PdeGrid(-6.0, 6.0, 50, 30, 0.0, 1.0)))
    assert rep["fk_path_rms_max"] == pytest.approx(0.4 / 60, rel=1e-6)


def fk_scenario(seed, c_y=0.0, y_clip=None, n_paths=2000, n_steps=20):
    """``fk_1d``'s problem: the projection onto the unit box with eps 0.5
    and G = z (+ c_y y), and phi = max(x, 0) through the clamp."""
    G = tb.StateFn(c_y=[c_y], C_z=[[1.0]])
    return tb.Scenario(
        sde=make_sde(), driver=tb.RegularizedProjectionDriver(
            h=tb.StateFn(c0=0.0), G=G, eps=0.5), uset=UNIT_BOX,
        terminal=tb.Payoff([0.0, 1.0], clamp=(0.0, 1e6)),
        grid=tb.TimeGrid(0.0, 1.0, n_steps), n_paths=n_paths, seed=seed,
        y_clip=y_clip)


def fk_surface(sc, n_x=100):
    return solve_pde(sc.driver, sc.uset, sc.sde, sc.terminal,
                     auto_grid(sc.sde, sc.grid, n_x=n_x))


def two_pass_compare(sc, surface):
    """The comparison by its definition: one full solve's Y, every node's
    states, and np.interp on the PDE row nearest each node."""
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    sol = tb.solve_theta_bsde(sc, paths=ens)
    g = surface.grid
    rows = np.clip(np.rint((sc.grid.times - g.t0) / g.dt_pde), 0,
                   g.n_t).astype(int)
    X = ens.all_states()
    rms = [np.sqrt(np.mean((sol.Y[:, i]
                            - np.interp(X[:, i, 0], g.xs, surface.u[k])) ** 2))
           for i, k in enumerate(rows)]
    x0 = float(sc.sde.x0[0])
    u0 = float(np.interp(x0, g.xs, surface.u[0]))
    return {"y0_mc": sol.Y0, "u0": u0, "abs_err": abs(sol.Y0 - u0),
            "stderr": sol.stderr,
            "u0_discretisation_err": float(
                np.interp(x0, g.xs, surface.u0_discretisation_err)),
            "fk_path_rms_max": float(np.max(rms))}


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("seed", [7, 2027])
@pytest.mark.parametrize("c_y", [0.0, 0.5])
@pytest.mark.parametrize("y_clip", [None, (0.0, 1.0)])
def test_fk_compare_is_bitwise_its_two_pass_definition(seed, c_y, y_clip):
    sc = fk_scenario(seed, c_y, y_clip)
    surface = fk_surface(sc)
    got = tb.feynman_kac_compare(sc, surface=surface)
    want = two_pass_compare(sc, surface)
    assert got.keys() == want.keys()
    assert {k: bits(v) for k, v in got.items()} == \
        {k: bits(v) for k, v in want.items()}


def test_fk_compare_holds_no_full_y(traced_peak):
    # the comparison once held the increments (8.0 MB) and a full Y
    # (8.2 MB) together
    sc = fk_scenario(7, n_paths=20_000, n_steps=50)
    surface = fk_surface(sc)
    n, row = sc.grid.n_steps, sc.n_paths * 8
    held = (n + (n + 1)) * row
    peak, rep = traced_peak(tb.feynman_kac_compare, sc, surface=surface)
    assert np.isfinite(rep["fk_path_rms_max"])
    assert peak < held, (peak, held)


def test_fk_compare_refuses_a_surface_of_another_time_span():
    # a surface solved for T = 2 was compared with the T = 1 scenario:
    # abs_err 0.113, against 0.006 on the matching surface
    sc = fk_scenario(7)
    for t0, T in ((0.0, 2.0), (0.0, 0.5), (0.5, 1.0)):
        other = replace(sc, grid=tb.TimeGrid(t0, T, sc.grid.n_steps))
        with pytest.raises(PdeError, match="the surface spans"):
            tb.feynman_kac_compare(sc, fk_surface(other))
    assert tb.feynman_kac_compare(sc, fk_surface(sc))["abs_err"] < 0.02


def test_fk_compare_checks_the_scenario_sde():
    sc = fk_scenario(7, n_paths=100)
    surface = fk_surface(sc)
    for sde, match in (
            (tb.SdeSpec(dim_x=2, dim_b=2, x0=[0.0, 0.0], vol_const=np.eye(2)),
             "dim_x = dim_b = 1"),
            (tb.SdeSpec(dim_x=1, dim_b=1, x0=[0.0], vol_const=[[1.0]],
                        vol_lin=[[[0.5]]]), "constant volatility")):
        with pytest.raises(PdeError, match=match):
            tb.feynman_kac_compare(replace(sc, sde=sde), surface)


def test_pde_rejects_multidimensional_state():
    sde2 = tb.SdeSpec(dim_x=2, dim_b=2, x0=[0.0, 0.0],
                      vol_const=np.eye(2))
    with pytest.raises(PdeError):
        auto_grid(sde2, tb.TimeGrid(0.0, 1.0, 10))


def test_pde_rejects_state_dependent_or_zero_volatility():
    grid = tb.TimeGrid(0.0, 1.0, 10)
    with pytest.raises(PdeError, match="constant volatility"):
        auto_grid(tb.SdeSpec(dim_x=1, dim_b=1, x0=[0.0], vol_lin=[[[1.0]]]),
                  grid)
    with pytest.raises(PdeError, match="nonzero volatility"):
        auto_grid(tb.SdeSpec(dim_x=1, dim_b=1, x0=[0.0]), grid)
