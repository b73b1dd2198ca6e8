import itertools
import math
import pickle
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import thetabsde as tb
from thetabsde import engine, experiments, pde
from thetabsde.drivers import evaluate, maximizer
from thetabsde.engine import EngineError, _Basis, axiom_check
from thetabsde.experiments import eos_demo, epsilon_sweep
from thetabsde.pde import auto_grid, feynman_kac_compare, solve_pde


def make_sde(**kw):
    base = dict(dim_x=1, dim_b=1, x0=[0.0], vol_const=[[1.0]])
    base.update(kw)
    return tb.SdeSpec(**base)


UNIT_BOX = tb.Box([0.0], [1.0])


def vol_mul(sde, X, dB):
    """sigma(X) @ dB summed from zeros: the volatility part of the Euler
    step's reference formula."""
    out = np.zeros_like(X)
    if sde.vol_const is not None:
        out += dB @ sde.vol_const.T
    if sde.vol_lin is not None:
        out += np.einsum("nj,ijk,nk->ni", X, sde.vol_lin, dB)
    return out


def test_forward_deterministic_cases():
    grid = tb.TimeGrid(0.0, 1.0, 20)
    frozen = tb.SdeSpec(dim_x=1, dim_b=1, x0=[2.0])  # b=0, sigma=0
    ens = tb.simulate_forward(frozen, grid, 50, 1)
    assert np.all(ens.states == 2.0)

    ode = tb.SdeSpec(dim_x=1, dim_b=1, x0=[0.0], drift_const=[1.0])
    ens = tb.simulate_forward(ode, grid, 50, 1)
    assert np.allclose(ens.states[:, -1, 0], 1.0, atol=1e-12)


def test_forward_brownian_variance():
    grid = tb.TimeGrid(0.0, 1.0, 50)
    ens = tb.simulate_forward(make_sde(), grid, 100_000, 2)
    xT = ens.states[:, -1, 0]
    # Var chi^2 check: sample variance of B_T is T within 3 standard errors
    se = np.sqrt(2.0 / len(xT))  # stderr of the variance of a N(0,1) sample
    assert abs(np.var(xT) - 1.0) <= 3 * se


def test_forward_regeneration_is_bit_identical():
    grid = tb.TimeGrid(0.0, 1.0, 10)
    a = tb.simulate_forward(make_sde(), grid, 100, 7)
    b = tb.simulate_forward(make_sde(), grid, 100, 7)
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.states, b.states)


def test_zero_driver_constant_terminal():
    grid = tb.TimeGrid(0.0, 1.0, 20)
    sc = tb.Scenario(sde=make_sde(), driver=tb.ZeroDriver(), uset=UNIT_BOX,
                     terminal=tb.Payoff([3.0]), grid=grid, n_paths=10_000, seed=3)
    sol = tb.solve_theta_bsde(sc, keep=("Y", "Z"))
    assert np.allclose(sol.Y, 3.0, atol=1e-10)
    assert np.max(np.abs(sol.Z)) <= 5e-3


def test_constant_driver_constant_terminal():
    grid = tb.TimeGrid(0.0, 1.0, 20)
    k, c = 0.7, 2.0
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(k, 0.0, [0.0]),
                     uset=UNIT_BOX, terminal=tb.Payoff([c]), grid=grid,
                     n_paths=2000, seed=3)
    sol = tb.solve_theta_bsde(sc)
    for i, t in enumerate(grid.times):
        assert np.allclose(sol.Y[:, i], c + k * (1.0 - t), atol=1e-10)


def test_linear_y_driver_closed_form():
    # F = r*y, xi = B_T: Y_t = exp(r(T-t)) B_t
    r = 0.1
    grid = tb.TimeGrid(0.0, 1.0, 50)
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(0.0, r, [0.0]),
                     uset=UNIT_BOX, terminal=tb.Payoff([0.0, 1.0]), grid=grid,
                     n_paths=20_000, seed=4)
    ens = tb.simulate_forward(sc.sde, grid, sc.n_paths, sc.seed)
    sol = tb.solve_theta_bsde(sc, paths=ens)
    assert abs(sol.Y0) <= 3 * sol.stderr
    i = 25  # mid-grid
    b = ens.all_states()[:, i, 0]
    slope = np.polyfit(b, sol.Y[:, i], 1)[0]
    assert slope == pytest.approx(np.exp(r * 0.5), rel=0.02)


def test_theta_expectation():
    grid = tb.TimeGrid(0.0, 1.0, 10)
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(0.5, 0.0, [0.0]),
                     uset=UNIT_BOX, terminal=tb.Payoff([0.0]), grid=grid,
                     n_paths=500, seed=5)
    sol = tb.solve_theta_bsde(sc)
    # the theta-expectation at a node is the cross-path mean of Y there
    assert np.mean(sol.Y[:, 0]) == pytest.approx(0.5, abs=1e-10)
    # terminal node: mean of the payoff
    assert np.mean(sol.Y[:, 10]) == pytest.approx(0.0, abs=1e-12)


def test_recorded_maximizers_are_feasible_and_optimal():
    grid = tb.TimeGrid(0.0, 1.0, 10)
    uset = tb.UnionSet([tb.Box([0.0], [1.0]), tb.Box([3.0], [4.0])])
    G = tb.StateFn(c0=np.array([0.0]), C_z=[[2.0]])
    drv = tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0), G=G, eps=0.5)
    sc = tb.Scenario(sde=make_sde(), driver=drv, uset=uset,
                     terminal=tb.Payoff([0.0, 1.0]), grid=grid,
                     n_paths=500, seed=6)
    ens = tb.simulate_forward(sc.sde, grid, sc.n_paths, sc.seed)
    sol = tb.solve_theta_bsde(sc, paths=ens, keep=("Y", "Z", "A"))
    assert uset.project_batch(sol.A.reshape(-1, uset.dim)).distance.max() <= 1e-9
    # G = 2z moves the query on a union: the argmax may jump at any eps
    assert sol.diagnostics["unsound_for_existence"] is True
    rng = np.random.default_rng(0)
    X = ens.all_states()
    for _ in range(100):
        p = rng.integers(0, sc.n_paths)
        i = rng.integers(0, grid.n_steps + 1)
        val = evaluate(drv, grid.times[i], X[p, i][None],
                       [sol.Y[p, i]], sol.Z[p, i][None], sol.A[p, i])[0]
        for _ in range(20):
            # random feasible competitor from one of the members
            a = rng.uniform(0, 1) if rng.random() < 0.5 else rng.uniform(3, 4)
            other = evaluate(drv, grid.times[i], X[p, i][None],
                             [sol.Y[p, i]], sol.Z[p, i][None], [a])[0]
            assert val >= other - 1e-9


def test_solution_determinism_bit_identical():
    grid = tb.TimeGrid(0.0, 1.0, 15)
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(0.1, 0.2, [0.3]),
                     uset=UNIT_BOX, terminal=tb.Payoff([0.0, 0.0, 1.0]),
                     grid=grid, n_paths=2000, seed=11)
    s1 = tb.solve_theta_bsde(sc, keep=("Y", "Z", "A"))
    s2 = tb.solve_theta_bsde(sc, keep=("Y", "Z", "A"))
    assert np.array_equal(s1.Y, s2.Y)
    assert np.array_equal(s1.Z, s2.Z)
    assert np.array_equal(s1.A, s2.A)


def test_y0_variance_scales_inversely_with_paths():
    grid = tb.TimeGrid(0.0, 1.0, 5)
    sizes = [500, 2000, 8000]
    variances = []
    for n in sizes:
        y0s = []
        for rep in range(20):
            sc = tb.Scenario(sde=make_sde(), driver=tb.ZeroDriver(),
                             uset=UNIT_BOX, terminal=tb.Payoff([0.0, 1.0]),
                             grid=grid, n_paths=n, seed=1000 + rep)
            y0s.append(tb.solve_theta_bsde(sc).Y0)
        variances.append(np.var(y0s))
    slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_axiom_a1_equal_terminals():
    grid = tb.TimeGrid(0.0, 1.0, 10)
    sc = tb.Scenario(sde=make_sde(), driver=tb.ZeroDriver(), uset=UNIT_BOX,
                     terminal=tb.Payoff([0.0, 1.0]), grid=grid,
                     n_paths=500, seed=8)
    rep = axiom_check(sc, "A1_monotonicity", {"terminal2": tb.Payoff([0.0, 1.0])})
    assert rep["passed"] and rep["discrepancy"] == 0.0


def test_axiom_a2_zero_driver_exact_shift():
    grid = tb.TimeGrid(0.0, 1.0, 10)
    sc = tb.Scenario(sde=make_sde(), driver=tb.ZeroDriver(), uset=UNIT_BOX,
                     terminal=tb.Payoff([0.0, 1.0]), grid=grid,
                     n_paths=500, seed=8)
    rep = axiom_check(sc, "A2_translation", {"m": 1.0})
    assert rep["passed"] and rep["discrepancy"] <= 1e-12


def test_axiom_a2_rejects_y_dependent_driver():
    grid = tb.TimeGrid(0.0, 1.0, 10)
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(0.0, 1.0, [0.0]),
                     uset=UNIT_BOX, terminal=tb.Payoff([0.0, 1.0]), grid=grid,
                     n_paths=500, seed=8)
    with pytest.raises(EngineError):
        axiom_check(sc, "A2_translation", {"m": 1.0})


def test_axiom_a3_s_equals_t():
    grid = tb.TimeGrid(0.0, 1.0, 10)
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(0.2, 0.0, [0.1]),
                     uset=UNIT_BOX, terminal=tb.Payoff([0.0, 1.0]), grid=grid,
                     n_paths=500, seed=8)
    rep = axiom_check(sc, "A3_tower", {"s_index": 0})
    assert rep["passed"] and rep["discrepancy"] == 0.0


@pytest.mark.parametrize("axiom, params, clamp, message", [
    ("A9", {}, None, "unknown axiom"),
    ("A2_translation", {}, (0.0, 1.0), "clamped"),
    ("A3_tower", {"s_index": 11}, None, "outside the grid"),
    ("A1_monotonicity", {}, None, "terminal2"),
    # these ran the tower check at node 2 and node 1
    ("A3_tower", {"s_index": 2.7}, None, "s_index must be an integer"),
    ("A3_tower", {"s_index": True}, None, "s_index must be an integer"),
    # these ran and ignored the parameter the axiom does not read
    ("A3_tower", {"s_index": 2, "m": 5}, None, "A3_tower reads only"),
    ("normalization", {"s_index": 2}, None, "normalization reads only"),
])
def test_axiom_preconditions_fail_before_any_simulation(monkeypatch, axiom,
                                                        params, clamp, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("simulated before checking the preconditions")
    monkeypatch.setattr(engine, "simulate_forward", forbidden)
    monkeypatch.setattr(engine, "solve_theta_bsde", forbidden)
    monkeypatch.setattr(engine, "backward_sweep", forbidden)
    sc = tb.Scenario(sde=make_sde(), driver=tb.ZeroDriver(), uset=UNIT_BOX,
                     terminal=tb.Payoff([0.0, 1.0], clamp=clamp),
                     grid=tb.TimeGrid(0.0, 1.0, 10), n_paths=500, seed=8)
    with pytest.raises(EngineError, match=message):
        axiom_check(sc, axiom, params)


def test_engine_validation_errors():
    with pytest.raises(EngineError):
        tb.TimeGrid(0.0, 0.0, 10)
    with pytest.raises(EngineError):
        tb.TimeGrid(0.0, 1.0, 0)
    with pytest.raises(EngineError):
        tb.SdeSpec(dim_x=2, dim_b=1, x0=[0.0])
    with pytest.raises(EngineError):
        tb.Payoff([0.0, 1.0], clamp=(2.0, 1.0))
    # a fractional step count was kept and failed later in np.empty
    with pytest.raises(EngineError, match="n_steps must be an integer"):
        tb.TimeGrid(0, 1, 2.5)
    # a bare TypeError, a bare ValueError, and a string pair that passed
    # lo < hi before float() failed
    for clamp in (5, (1,), ("a", "b")):
        with pytest.raises(EngineError, match=r"clamp must be a \[lo, hi\] pair"):
            tb.Payoff([0, 1], clamp=clamp)


@pytest.mark.parametrize("dims, message", [
    ((0, 1), "dim_x must be >= 1, got 0"),    # failed in the forward pass
    ((-1, 1), "dim_x must be >= 1, got -1"),  # numpy's negative dimensions
    ((1, 0), "dim_b must be >= 1, got 0"),    # ran without noise
    ((1.5, 1), "dim_x must be an integer"),
], ids=["zero_dim_x", "negative_dim_x", "zero_dim_b", "fractional_dim_x"])
def test_sde_dimensions_are_positive_integers(dims, message):
    with pytest.raises(EngineError, match=message):
        tb.SdeSpec(*dims, x0=[0.0])


# backward regression --------------------------------------------------------

def power_design(Xi, degree):
    """Reference construction: every monomial rebuilt with ``**``."""
    n, dim_x = Xi.shape
    cols = [np.ones(n)]
    for total in range(1, degree + 1):
        for c in itertools.combinations_with_replacement(range(dim_x), total):
            col = np.ones(n)
            for j in range(dim_x):
                if c.count(j):
                    col = col * Xi[:, j] ** c.count(j)
            if col.std() > 1e-12:
                cols.append((col - col.mean()) / col.std())
    return np.column_stack(cols)


@pytest.mark.parametrize("dim_x", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_incremental_design_matches_power_construction(dim_x, degree):
    rng = np.random.default_rng(10 * dim_x + degree)
    Xi = 0.5 + 1.5 * rng.standard_normal((3000, dim_x))
    got = _Basis.measure(Xi, degree)[1]
    assert got.shape == (3000, math.comb(dim_x + degree, degree))
    assert np.max(np.abs(got - power_design(Xi, degree))) <= 1e-12
    if dim_x > 1:
        # a frozen coordinate: its pure powers have zero variance and drop
        Xi[:, 1] = 2.0
        got = _Basis.measure(Xi, degree)[1]
        ref = power_design(Xi, degree)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_design_at_a_point_mass_is_the_constant():
    got = _Basis.measure(np.full((50, 2), 0.3), 3)[1]
    assert got.shape == (50, 1) and np.all(got == 1.0)


def test_measuring_the_design_allocates_no_block_beside_it(traced_peak):
    # a (k, n) temporary per node (say rows[1:].std(axis=1)) is a fresh
    # mapping in every node of a solve, paid for in page faults
    n = 20_000
    Xi = np.random.default_rng(3).standard_normal((n, 3))
    peak, (basis, design) = traced_peak(_Basis.measure, Xi, 3)
    assert design.shape == (n, 20)
    row = n * Xi.itemsize
    # the design and two scratch rows: the coordinates are read from the
    # design's own degree-1 rows, not from a (dim, n) copy
    assert peak <= design.nbytes + 2 * row, (peak, design.nbytes)


def test_projector_matches_lstsq():
    rng = np.random.default_rng(1)
    basis, design = _Basis.measure(rng.standard_normal((5000, 2)), 3)
    assert basis.chol is not None
    sv = np.linalg.svd(design, compute_uv=False)
    assert basis.condition == pytest.approx(sv[0] / sv[-1], rel=1e-8)
    for targets in (rng.standard_normal(5000), rng.standard_normal((5000, 3))):
        coef = np.linalg.lstsq(design, targets, rcond=None)[0]
        got = basis.fit(design, targets)
        assert got.shape == coef.shape
        assert np.max(np.abs(got - coef)) <= 1e-10
        assert np.max(np.abs(design @ got - design @ coef)) <= 1e-10


def test_collinear_design_falls_back_to_lstsq():
    # on X in {-1, 1}: x^2 == 1 drops out and x^3 == x duplicates a column
    rng = np.random.default_rng(2)
    basis, design = _Basis.measure(rng.choice([-1.0, 1.0], size=(400, 1)), 3)
    assert design.shape == (400, 3)
    assert basis.chol is None
    # measured once, from the design's singular values
    sv = np.linalg.svd(design, compute_uv=False)
    assert basis.condition == sv[0] / sv[-1]
    targets = rng.standard_normal(400)
    got = design @ basis.fit(design, targets)
    ref = design @ np.linalg.lstsq(design, targets, rcond=None)[0]
    assert np.all(np.isfinite(got)) and np.max(np.abs(got - ref)) <= 1e-12

    grid = tb.TimeGrid(0.0, 1.0, 8)
    n_paths = 400
    ens = tb.PathEnsemble(grid, n_paths, 0,
                          rng.standard_normal((n_paths, 8, 1)) * np.sqrt(grid.dt),
                          rng.choice([-1.0, 1.0], size=(n_paths, 9, 1)))
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(0.1, 0.0, [0.2]),
                     uset=UNIT_BOX, terminal=tb.Payoff([0.0, 1.0]), grid=grid,
                     n_paths=n_paths, seed=0)
    sol = tb.solve_theta_bsde(sc, paths=ens, keep=("Y", "Z"))
    assert sol.diagnostics["lstsq_fallbacks"] == 8
    assert np.all(np.isfinite(sol.Y)) and np.all(np.isfinite(sol.Z))


def count_driver_calls(monkeypatch):
    calls = {"maximizer": 0, "effective_driver": 0}
    for name in calls:
        fn = getattr(engine, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    return calls


def driver_scenario(driver, uset=UNIT_BOX, n_steps=10, y_clip=None):
    return tb.Scenario(sde=make_sde(), driver=driver, uset=uset,
                       terminal=tb.Payoff([0.0, 1.0]),
                       grid=tb.TimeGrid(0.0, 1.0, n_steps), n_paths=500,
                       seed=12, picard_iters=3, y_clip=y_clip)


@pytest.mark.parametrize("field, value, message", [
    # a reversed clip solved a zero driver on x to Y0 = -1.0, not 0
    ("y_clip", (1.0, -1.0), "lo < hi"),
    ("y_clip", (0.5, 0.5), "lo < hi"),
    ("y_clip", (0.0, np.nan), "lo < hi"),
    ("y_clip", (1.0,), "pair"),
    ("y_clip", 1.0, "pair"),
    ("y_clip", ("low", "high"), "pair"),
    ("n_paths", 0, "n_paths must be >= 1"),
    # the library itself truncated these, or failed at solve time with a
    # bare OverflowError from the Philox key
    ("seed", 1.5, "seed must be an integer"),
    ("seed", -1, "seed must be >= 0"),
    ("seed", 2 ** 64, r"seed must be < 2\*\*64"),
    ("n_paths", 10.5, "n_paths must be an integer"),
    ("picard_iters", 2.5, "picard_iters must be an integer"),
    # the cubic design on dim_x 1 has 4 columns; at degree 1e30 numpy
    # failed to build the design
    ("n_paths", 3, "needs 4 basis columns, more than n_paths = 3"),
    ("regression_degree", 1e30, "more than n_paths = 500"),
], ids=["reversed_clip", "empty_clip", "nan_clip", "short_clip",
        "scalar_clip", "word_clip", "zero_paths", "fractional_seed",
        "negative_seed", "seed_past_philox_key", "fractional_paths",
        "fractional_picard", "paths_below_columns", "degree_past_paths"])
def test_scenario_rejects_bad_mc_fields(field, value, message):
    sc = driver_scenario(tb.ZeroDriver())
    with pytest.raises(EngineError, match=message):
        replace(sc, **{field: value})
    assert replace(sc, y_clip=[-1, 2]).y_clip == (-1.0, 2.0)
    assert replace(sc, n_paths=4).n_paths == 4


SEED_GRID = tb.TimeGrid(0.0, 1.0, 5)


@pytest.mark.parametrize("draw, message", [
    # ran as seed 1
    (lambda: tb.simulate_forward(make_sde(), SEED_GRID, 10, 1.5),
     "seed must be an integer"),
    # these raised a bare OverflowError from the Philox key
    (lambda: tb.simulate_forward(make_sde(), SEED_GRID, 10, -1),
     "seed must be >= 0"),
    (lambda: tb.simulate_theta_bm(tb.ZeroDriver(), UNIT_BOX, SEED_GRID, 10,
                                  -1), "seed must be >= 0"),
    (lambda: engine.brownian_increments(SEED_GRID, 10, 2 ** 64, 1),
     r"seed must be < 2\*\*64"),
    # a bare TypeError from np.empty
    (lambda: engine.brownian_increments(SEED_GRID, 10.5, 1, 1),
     "n_paths must be an integer"),
    # an empty (10, 5, 0) array, numpy's "negative dimensions are not
    # allowed" and a bare TypeError
    (lambda: engine.brownian_increments(SEED_GRID, 10, 1, 0),
     "dim_b must be >= 1"),
    (lambda: engine.brownian_increments(SEED_GRID, 10, 1, -1),
     "dim_b must be >= 1"),
    (lambda: engine.brownian_increments(SEED_GRID, 10, 1, 1.5),
     "dim_b must be an integer"),
], ids=["fractional_seed", "negative_seed", "negative_theta_bm_seed",
        "seed_past_philox_key", "fractional_paths", "zero_dim_b",
        "negative_dim_b", "fractional_dim_b"])
def test_raw_seeds_follow_the_scenario_rules(draw, message):
    with pytest.raises(EngineError, match=message):
        draw()


def test_y_independent_driver_is_evaluated_once_per_node(monkeypatch):
    calls = count_driver_calls(monkeypatch)
    G = tb.StateFn(c0=np.array([0.0]), C_z=[[1.0]])
    tb.solve_theta_bsde(driver_scenario(
        tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0), G=G, eps=0.5)),
        keep=("A",))
    # one per node, plus the maximizer at the terminal node
    assert calls == {"maximizer": 11, "effective_driver": 0}

    calls.update(maximizer=0, effective_driver=0)
    tb.solve_theta_bsde(driver_scenario(tb.GLimitDriver(),
                                        uset=tb.Box([1.0], [2.0])))
    assert calls == {"maximizer": 0, "effective_driver": 10}


def test_y_dependent_driver_runs_picard(monkeypatch):
    calls = count_driver_calls(monkeypatch)
    tb.solve_theta_bsde(driver_scenario(tb.AffineDriver(0.3, 0.5, [0.2])),
                        keep=("A",))
    # three Picard passes per node, then one at the final Y_i and one at
    # the terminal node for the kept A
    assert calls == {"maximizer": 41, "effective_driver": 0}


@pytest.mark.parametrize("driver", [
    tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0),
                                   G=tb.StateFn(c0=np.array([0.0]), C_z=[[2.0]]),
                                   eps=0.5),
    tb.GRegularizedDriver(eps=0.25, a0=[1.0]),
])
def test_single_evaluation_equals_picard_bitwise(monkeypatch, driver):
    uset = tb.Box([1.0], [2.0]) if isinstance(driver, tb.GRegularizedDriver) \
        else tb.UnionSet([tb.Box([0.0], [1.0]), tb.Box([3.0], [4.0])])
    sc = driver_scenario(driver, uset=uset, y_clip=(-0.5, 0.8))
    fast = tb.solve_theta_bsde(sc, keep=("Y", "Z", "A"))
    monkeypatch.setattr(driver, "depends_on_y", lambda: True)
    slow = tb.solve_theta_bsde(sc, keep=("Y", "Z", "A"))
    for a, b in ((fast.Y, slow.Y), (fast.Z, slow.Z), (fast.A, slow.A)):
        assert np.array_equal(a, b)
    assert (fast.Y0, fast.stderr) == (slow.Y0, slow.stderr)
    assert fast.diagnostics == slow.diagnostics


def box_cloud_union():
    return tb.UnionSet([tb.Box([-1.0], [0.0]),
                        tb.PointCloud([[0.5], [1.25], [2.0]])])


def record_projection_rows(monkeypatch, classes):
    """Rows of every project_batch call, per class, at every nesting level."""
    rows = {cls: [] for cls in classes}
    for cls, seen in rows.items():
        def counted(self, P, _fn=cls.project_batch, _seen=seen, **kwargs):
            _seen.append(len(P))
            return _fn(self, P, **kwargs)
        monkeypatch.setattr(cls, "project_batch", counted)
    return rows


def test_set_calls_never_exceed_one_node_of_paths(monkeypatch):
    rows = record_projection_rows(monkeypatch,
                                  (tb.Box, tb.PointCloud, tb.UnionSet))
    G = tb.StateFn(c0=np.array([0.5]), C_z=[[2.0]])
    sc = driver_scenario(
        tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0), G=G, eps=0.3),
        uset=box_cloud_union())
    tb.solve_theta_bsde(sc)
    assert all(rows.values())
    assert max(max(r) for r in rows.values()) <= sc.n_paths


@pytest.mark.parametrize("uset, G", [
    (box_cloud_union(), tb.StateFn(c0=np.array([0.5]), C_z=[[2.0]])),
    (tb.Ball([0.0, 0.0], 0.5), tb.StateFn(c0=np.array([0.3, -0.1]),
                                          C_x=np.eye(2))),
])
def test_recorded_maximizers_lie_in_the_set(uset, G):
    dim = uset.dim
    sc = tb.Scenario(sde=make_sde(dim_x=dim, dim_b=dim, x0=[0.0] * dim,
                                  vol_const=np.eye(dim)),
                     driver=tb.RegularizedProjectionDriver(
                         h=tb.StateFn(c0=0.0), G=G, eps=0.3),
                     uset=uset, terminal=tb.Payoff([0.0, 1.0]),
                     grid=tb.TimeGrid(0.0, 1.0, 10), n_paths=500, seed=12)
    sol = tb.solve_theta_bsde(sc, keep=("A",))
    assert uset.project_batch(sol.A.reshape(-1, dim)).distance.max() <= 1e-9


def test_sweep_records_the_maximizer_projection():
    uset = box_cloud_union()
    G = tb.StateFn(c0=np.array([0.5]), C_z=[[2.0]])
    sc = driver_scenario(
        tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0), G=G, eps=0.3),
        uset=uset)
    sol = tb.solve_theta_bsde(sc, keep=("Y", "Z", "A"))
    _, rows = sweep_rows(sc, records=True)
    members = set()
    # the y-free query depends on z only, so re-projecting it node by node
    # must give the sweep's own record, and the solve keeps its point
    for i, y, z, rec in rows:
        assert np.array_equal(y, sol.Y[:, i]) and np.array_equal(z, sol.Z[:, i])
        ref = uset.project_batch(sc.driver.query(0.0, np.zeros((sc.n_paths, 1)),
                                                 y, z))
        for name in PROJECTION_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name))
        assert np.array_equal(rec.point, sol.A[:, i])
        assert rec.member_index.dtype == np.int64
        members.update(np.unique(rec.member_index))
    assert members == {0, 1}


def test_sweep_records_of_degenerate_and_reduced_drivers():
    # AffineDriver ignores a: the argmax degenerates to the fixed element
    sc = driver_scenario(tb.AffineDriver(0.3, 0.0, [0.2]))
    _, rows = sweep_rows(sc, records=True)
    for _, _, _, rec in rows:
        assert np.all(rec.member_index == -1) and np.all(rec.medial_gap == np.inf)
        assert np.all(rec.point == UNIT_BOX.fixed_element())
    sol = tb.solve_theta_bsde(sc, keep=("A",))
    assert sol.diagnostics["degenerate_argmax"]
    assert np.all(sol.A == UNIT_BOX.fixed_element())
    # g_limit has no argmax, so there is no record to keep
    sc = driver_scenario(tb.GLimitDriver(), uset=tb.Box([1.0], [2.0]))
    _, rows = sweep_rows(sc, records=True)
    assert all(rec is None for _, _, _, rec in rows)
    assert tb.solve_theta_bsde(sc, keep=("A",)).A is None


def ball_scenario(dim, n_paths=500, n_steps=10):
    """y-free regularized projection of G = z onto the unit ball in R^dim."""
    return tb.Scenario(sde=make_sde(dim_x=dim, dim_b=dim, x0=[0.0] * dim,
                                    vol_const=np.eye(dim)),
                       driver=tb.RegularizedProjectionDriver(
                           h=tb.StateFn(c0=0.0),
                           G=tb.StateFn(c0=np.zeros(dim), C_z=np.eye(dim)),
                           eps=0.5),
                       uset=tb.Ball([0.0] * dim, 1.0),
                       terminal=tb.Payoff([0.0, 0.0, 1.0]),
                       grid=tb.TimeGrid(0.0, 1.0, n_steps), n_paths=n_paths,
                       seed=12)


def truncation(ens, s):
    """The first ``s`` steps of ``ens`` as an ensemble built from arrays:
    the increments up to step s and every node's states up to node s, on
    the sub-grid that ends at node s."""
    grid = ens.grid
    return tb.PathEnsemble(tb.TimeGrid(grid.t0, grid.times[s], s), ens.n_paths,
                           ens.seed, ens.increments[:, :s],
                           ens.all_states()[:, :s + 1])


LEAN_VARIANTS = {
    "ball_y_free": lambda: ball_scenario(2),
    "picard": lambda: layout_scenario(),
    "g_limit": lambda: driver_scenario(tb.GLimitDriver(),
                                       uset=tb.Box([1.0], [2.0])),
    "degenerate_affine": lambda: driver_scenario(
        tb.AffineDriver(0.3, 0.0, [0.2])),
    "y_clip": lambda: driver_scenario(
        tb.RegularizedProjectionDriver(
            h=tb.StateFn(c0=0.0), G=tb.StateFn(c0=np.array([0.5]), C_z=[[2.0]]),
            eps=0.3),
        uset=box_cloud_union(), y_clip=(-0.5, 0.8)),
}


@pytest.mark.parametrize("data", ["payoff", "terminal_values", "truncated"])
@pytest.mark.parametrize("variant", list(LEAN_VARIANTS))
def test_lean_solve_equals_full_solve_bitwise(variant, data):
    sc = LEAN_VARIANTS[variant]()
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    kwargs = {"paths": ens}
    if data == "terminal_values":
        kwargs["terminal_values"] = np.cos(ens.states[:, -1]).sum(axis=1)
    elif data == "truncated":
        kwargs["paths"] = truncation(ens, 6)
    lean = tb.solve_theta_bsde(sc, **kwargs)
    full = tb.solve_theta_bsde(sc, keep=engine.KEEPABLE, **kwargs)
    assert np.array_equal(lean.Y, full.Y)
    assert (lean.Y0, lean.stderr) == (full.Y0, full.stderr)
    assert lean.diagnostics == full.diagnostics
    assert (lean.Z, lean.A) == (None, None)
    assert full.Z.shape == full.Y.shape + (sc.sde.dim_b,)
    assert (full.A is None) == (not sc.driver.has_argmax)


def test_keep_rejects_unknown_names():
    sc = driver_scenario(tb.ZeroDriver())
    for keep in (("Z", "X"), ("member_index",), ("projection",), "ZA"):
        with pytest.raises(EngineError, match="cannot keep"):
            tb.solve_theta_bsde(sc, keep=keep)
    assert tb.solve_theta_bsde(sc, keep="Z").Z is not None


@pytest.mark.parametrize("driver", [
    tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0),
                                   G=tb.StateFn(c0=np.array([0.0]), C_z=[[1.0]]),
                                   eps=0.5),
    tb.AffineDriver(0.3, 0.5, [0.2]),
], ids=["y_free", "picard"])
def test_terminal_maximizer_runs_only_for_kept_records(monkeypatch, driver):
    calls = count_driver_calls(monkeypatch)
    # one maximizer per Picard pass; a kept record adds the terminal node
    # and, for the y-dependent driver, one call per node at the final Y_i
    expected = ((10, 10, 11, 11) if not driver.depends_on_y()
                else (30, 30, 41, 41))
    for keep, count in zip(((), ("Z",), ("A",), engine.KEEPABLE), expected):
        calls.update(maximizer=0)
        tb.solve_theta_bsde(driver_scenario(driver), keep=keep)
        assert calls["maximizer"] == count


def test_lean_solve_holds_no_full_z_or_a(traced_peak):
    # 20k paths x 21 nodes in dim 3: Z and A are 10 MB each
    sc = ball_scenario(3, n_paths=20_000, n_steps=20)
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    tb.solve_theta_bsde(sc, paths=ens)  # measures the bases outside the trace
    lean_peak, _ = traced_peak(tb.solve_theta_bsde, sc, paths=ens)
    full_peak, full = traced_peak(tb.solve_theta_bsde, sc, paths=ens,
                                  keep=engine.KEEPABLE)
    kept = full.Z.nbytes + full.A.nbytes
    assert full_peak - lean_peak >= 0.9 * kept, (lean_peak, full_peak, kept)


def test_lean_solve_holds_no_full_y(traced_peak):
    # 20k paths x 21 nodes in dim 3: Y is 3.4 MB, which Y0, its stderr and
    # the diagnostics never read
    sc = ball_scenario(3, n_paths=20_000, n_steps=20)
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    tb.solve_theta_bsde(sc, paths=ens)  # measures the bases outside the trace
    lean_peak, lean = traced_peak(tb.solve_theta_bsde, sc, paths=ens, keep=())
    kept_peak, kept = traced_peak(tb.solve_theta_bsde, sc, paths=ens,
                                  keep=("Y",))
    assert (lean.Y, lean.Z, lean.A) == (None, None, None)
    assert (lean.Y0, lean.stderr) == (kept.Y0, kept.stderr)
    assert lean.diagnostics == kept.diagnostics
    assert kept_peak - lean_peak >= 0.9 * kept.Y.nbytes, (
        lean_peak, kept_peak, kept.Y.nbytes)


# the backward sweep's rows --------------------------------------------------

def union_projection_scenario(c_y=0.0):
    """Regularized projection onto a box-and-cloud union; y-free unless
    ``c_y`` moves the query with y."""
    G = tb.StateFn(c0=np.array([0.5]), c_y=[c_y], C_z=[[2.0]])
    return driver_scenario(tb.RegularizedProjectionDriver(
        h=tb.StateFn(c0=0.0), G=G, eps=0.3), uset=box_cloud_union())


# the fields of a maximizer's ProjectionResult
PROJECTION_FIELDS = ("point", "distance", "member_index", "medial_gap")


def sweep_rows(sc, records):
    """Every node's yielded (i, y, z, rec), copied out of the one track."""
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    rows = [(i, t.y.copy(), t.z.copy(), t.rec)
            for i, _, _, (t,) in engine.backward_sweep([sc], ens,
                                                       records=records)]
    assert [r[0] for r in rows] == list(range(sc.grid.n_steps, -1, -1))
    return ens, rows


@pytest.mark.parametrize("records", [False, True])
def test_sweep_rows_are_one_node_each(records):
    sc = union_projection_scenario()
    _, rows = sweep_rows(sc, records)
    for _, y, z, rec in rows:
        assert y.shape == (sc.n_paths,)
        assert z.shape == (sc.n_paths, sc.sde.dim_b)
        # a record exists where asked for, node n included
        assert (rec is not None) == records
    # Z_n, the regression of the terminal values on node n - 1's design,
    # is Z_{n-1}
    assert np.array_equal(rows[0][2], rows[1][2])
    assert [f.name for f in fields(engine.BackwardTrack)] == [
        "scenario", "y", "accum", "z", "f", "rec"]


def test_a_sweep_needs_one_regression_degree():
    # each node's design is built once, for every scenario
    sc = driver_scenario(tb.ZeroDriver())
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    sweep = engine.backward_sweep(
        [replace(sc, regression_degree=3), replace(sc, regression_degree=2)],
        ens)
    with pytest.raises(EngineError, match=r"one sweep needs one "
                                          r"regression_degree, got \[2, 3\]"):
        next(sweep)


def test_sweep_peak_does_not_grow_with_the_steps(traced_peak):
    # the sweep stores no node beyond the one it yields, records included,
    # and one segment of rebuilt states: 3 rows at 10 steps, 6 at 40
    row = 20_000 * 8
    peaks = []
    for n_steps in (10, 40):
        sc = replace(union_projection_scenario(), n_paths=20_000,
                     grid=tb.TimeGrid(0.0, 1.0, n_steps))
        ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)

        def sweep():
            for _ in engine.backward_sweep([sc], ens, records=True):
                pass
        peaks.append(traced_peak(sweep)[0])
    # 30 more nodes: a record kept per node would add at least 30 rows
    assert peaks[1] - peaks[0] < 10 * row, peaks


def final_maximizer_members(sc):
    """Check that every yielded record, node n's included, is bitwise the
    maximizer at the node's final rows; return the members that won."""
    ens, rows = sweep_rows(sc, records=True)
    X = ens.all_states()
    members = set()
    for i, y, z, rec in rows:
        ref, _ = maximizer(sc.driver, sc.uset, sc.grid.times[i],
                           X[:, i], y, z)
        for name in PROJECTION_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name))
        members.update(np.unique(rec.member_index))
    return members


def test_sweep_record_is_the_maximizer_at_the_final_rows():
    sc = union_projection_scenario()
    assert not sc.driver.depends_on_y()
    assert final_maximizer_members(sc) == {0, 1}  # both members win somewhere


@pytest.mark.parametrize("sc", [
    union_projection_scenario(c_y=0.4),
    driver_scenario(tb.AffineDriver(0.3, 0.5, [0.2])),
], ids=["y_dependent_query", "affine_picard"])
def test_y_dependent_sweep_records_the_final_maximizer(sc):
    # its last Picard pass ran at the previous iterate; the record comes
    # from one more maximizer call at the final Y_i
    assert sc.driver.depends_on_y()
    final_maximizer_members(sc)


def test_sweep_rejects_paths_and_terminals_that_do_not_fit():
    sc = driver_scenario(tb.ZeroDriver())
    wide = tb.SdeSpec(dim_x=3, dim_b=3, x0=[0.0] * 3, vol_const=np.eye(3))
    noisy = make_sde(dim_b=2, vol_const=[[1.0, 0.5]])
    # the dim-3 paths were solved as if the scenario were dim 3: Y0 2.96
    for sde, name in ((wide, "dim_x"), (noisy, "dim_b")):
        ens = tb.simulate_forward(sde, sc.grid, sc.n_paths, sc.seed)
        with pytest.raises(EngineError, match=f"sde.{name} is 1, but the "
                                              f"paths have {name} "):
            tb.solve_theta_bsde(sc, paths=ens)
    # numpy's own "could not broadcast" ValueError
    with pytest.raises(EngineError, match=r"terminal_values of shape \(7,\) "
                                          "do not broadcast to 500 paths"):
        tb.solve_theta_bsde(sc, terminal_values=np.ones(7))
    for fits in (2.0, np.full(sc.n_paths, 2.0)):
        Y0 = tb.solve_theta_bsde(sc, terminal_values=fits).Y0
        assert Y0 == pytest.approx(2.0, abs=1e-12)


# storage layout -------------------------------------------------------------

def layout_scenario():
    """Union set, y-dependent regularized projection (Picard and argmax)."""
    G = tb.StateFn(c0=np.array([0.5]), c_y=[0.4], C_z=[[2.0]])
    return driver_scenario(tb.RegularizedProjectionDriver(
        h=tb.StateFn(c0=0.0, c_y=0.2), G=G, eps=0.3), uset=box_cloud_union())


def test_kept_records_are_the_maximizer_at_the_clipped_y():
    sc = replace(layout_scenario(), y_clip=(-0.8, 0.6))
    ens, rows = sweep_rows(sc, records=True)
    sol = tb.solve_theta_bsde(sc, paths=ens, keep=engine.KEEPABLE)
    # the clip binds, so a record from the last Picard iterate would differ
    assert np.any(np.isin(sol.Y[:, :-1], sc.y_clip))
    X = ens.all_states()
    for i, _, _, rec in rows:
        ref, _ = maximizer(sc.driver, sc.uset, sc.grid.times[i], X[:, i],
                           sol.Y[:, i], sol.Z[:, i])
        assert np.array_equal(ref.point, sol.A[:, i])
        for name in PROJECTION_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name))


@pytest.mark.parametrize("keep", [(), engine.KEEPABLE], ids=["lean", "full"])
@pytest.mark.parametrize("driver, uset, degenerate", [
    (tb.ZeroDriver(), UNIT_BOX, True),
    (tb.AffineDriver(0.3, 0.0, [0.2]), UNIT_BOX, True),
    (tb.AffineDriver(0.3, 0.5, [0.2]), UNIT_BOX, True),
    (tb.RegularizedProjectionDriver(
        h=tb.StateFn(c0=0.0), G=tb.StateFn(c0=np.array([0.5]), C_z=[[2.0]]),
        eps=0.3), UNIT_BOX, False),
    (tb.GLimitDriver(), tb.Box([1.0], [2.0]), False),
], ids=["zero", "affine_y_free", "affine_picard", "rp", "g_limit"])
def test_degenerate_argmax_is_a_property_of_the_driver(driver, uset,
                                                        degenerate, keep):
    sol = tb.solve_theta_bsde(driver_scenario(driver, uset=uset), keep=keep)
    assert sol.diagnostics["degenerate_argmax"] is degenerate


def test_per_node_slices_are_contiguous():
    sc = layout_scenario()
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    sol = tb.solve_theta_bsde(sc, paths=ens, keep=engine.KEEPABLE)
    n = sc.grid.n_steps
    assert ens.states.shape == (sc.n_paths, len(ens.checkpoints), 1)
    assert ens.increments.shape == (sc.n_paths, n, 1)
    assert sol.Y.shape == (sc.n_paths, n + 1)
    for i in range(n + 1):
        rows = [sol.Y, sol.Z, sol.A]
        if i < n:
            rows.append(ens.increments)
        if i < len(ens.checkpoints):
            rows.append(ens.states)
        assert all(a[:, i].flags.c_contiguous for a in rows)
    assert all(x.flags.c_contiguous for x in ens.replay())


def test_forward_matches_path_major_reference_bitwise():
    sde = tb.SdeSpec(dim_x=2, dim_b=3, x0=[0.1, -0.2], drift_const=[0.2, 0.1],
                     drift_t=[0.3, 0.0], drift_lin=[[-0.3, 0.1], [0.0, -0.2]],
                     vol_const=np.full((2, 3), 0.4),
                     vol_lin=np.full((2, 2, 3), 0.05))
    grid = tb.TimeGrid(0.0, 1.0, 13)
    n_paths, seed = 1001, 2027  # several draw blocks, the last one partial
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    dB = gen.standard_normal((n_paths, grid.n_steps, 3)) * np.sqrt(grid.dt)
    X = np.empty((n_paths, grid.n_steps + 1, 2))
    X[:, 0] = sde.x0
    for i, t in enumerate(grid.times[:-1]):
        Xi = X[:, i]
        X[:, i + 1] = Xi + sde.drift(t, Xi) * grid.dt + vol_mul(sde, Xi, dB[:, i])
    ens = tb.simulate_forward(sde, grid, n_paths, seed)
    assert np.array_equal(ens.increments, dB)
    assert np.array_equal(ens.states, X[:, ens.checkpoints])
    assert np.array_equal(ens.all_states(), X)
    assert np.array_equal(engine.brownian_increments(grid, n_paths, seed, 3), dB)


STEP_TERMS = {"drift_const": [-0.0, 0.2], "drift_t": [0.3, -0.0],
              "drift_lin": [[-0.3, 0.0], [0.0, -0.2]],
              "vol_const": [[0.4, 0.0, -0.0], [0.0, 0.0, 0.0]],
              "vol_lin": np.full((2, 2, 3), 0.05)}


@pytest.mark.parametrize("present", [
    c for r in range(len(STEP_TERMS) + 1)
    for c in itertools.combinations(STEP_TERMS, r)])
def test_euler_step_is_bitwise_the_zero_started_sum(present):
    # the step adds only the terms the SDE has; the reference starts every
    # sum from zeros, so signed zeros in the inputs and the coefficients
    # must come out as it gives them
    sde = tb.SdeSpec(dim_x=2, dim_b=3, x0=[0.0, 0.0],
                     **{name: STEP_TERMS[name] for name in present})
    rng = np.random.default_rng(len(present))
    X = rng.normal(size=(64, 2))
    dB = rng.normal(scale=0.1, size=(64, 3))
    X[::2, 0] = X[::3, 1] = -0.0
    dB[::2] = -0.0
    dB[1::4, 1:] = 0.0
    for t, dt in ((0.0, 0.1), (0.35, 1.0 / 3.0)):
        got = sde.step(t, dt, X, dB)
        want = X + sde.drift(t, X) * dt + vol_mul(sde, X, dB)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert not np.shares_memory(got, X)


@pytest.mark.parametrize("linear", [False, True], ids=["row", "array"])
@pytest.mark.parametrize("dim", range(1, 11))
def test_euler_step_drift_is_bitwise_the_broadcast(dim, linear,
                                                   special_batch):
    # the drift, a (dim,) row, is broadcast over the states; with
    # drift_lin it is an (n, dim) array
    sde = tb.SdeSpec(dim_x=dim, dim_b=2, x0=np.zeros(dim),
                     drift_const=np.where(np.arange(dim) % 2, -0.0, 1e-310),
                     drift_t=np.where(np.arange(dim) % 3, 0.25, -5e-324),
                     drift_lin=np.eye(dim) * -0.5 if linear else None,
                     vol_const=np.full((dim, 2), 0.5))
    X = special_batch(200, dim, dim)
    dB = special_batch(200, 2, 50 + dim)
    with np.errstate(all="ignore"):
        for t, dt in ((0.0, 0.1), (0.35, 1.0 / 3.0)):
            got = sde.step(t, dt, X, dB)
            out = dB @ sde.vol_const.T
            out += X + sde._drift_terms(t, X) * dt
            out += 0.0
            assert got.tobytes() == out.tobytes()


@pytest.mark.parametrize("dim_x", [1, 3])
def test_one_noise_step_is_bitwise_the_matmul(dim_x, special_batch):
    # with one noise the volatility is a plain product, where BLAS could
    # differ only in the sign of a zero, and the step clears that
    vol = np.array([[0.7], [-0.0], [1e-310]])[:dim_x]
    for scale in (1.0, -2.5):
        sde = tb.SdeSpec(dim_x=dim_x, dim_b=1, x0=np.zeros(dim_x),
                         drift_const=np.full(dim_x, -0.0),
                         vol_const=scale * vol)
        X = special_batch(400, dim_x, dim_x)
        dB = special_batch(400, 1, 20 + dim_x)
        with np.errstate(all="ignore"):
            for t, dt in ((0.0, 0.1), (0.35, 1.0 / 3.0)):
                got = sde.step(t, dt, X, dB)
                want = dB @ sde.vol_const.T
                want += X + sde._drift_terms(t, X) * dt
                want += 0.0
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("vol", [None, [[0.7], [-0.0], [1e-310]]],
                         ids=["no_noise", "one_noise"])
@pytest.mark.parametrize("dim_x", [1, 3])
def test_euler_step_is_bitwise_across_layouts(dim_x, vol, special_batch):
    # the steps without BLAS give a column-major batch the bits of the
    # C-ordered one, and a column-major result
    sde = tb.SdeSpec(dim_x=dim_x, dim_b=1, x0=np.zeros(dim_x),
                     drift_const=np.where(np.arange(dim_x) % 2, -0.0, 0.25),
                     drift_t=np.full(dim_x, 1e-310),
                     vol_const=None if vol is None else np.array(vol)[:dim_x])
    X = special_batch(400, dim_x, 30 + dim_x)
    dB = special_batch(400, 1, 40 + dim_x)
    with np.errstate(all="ignore"):
        for t, dt in ((0.0, 0.1), (0.35, 1.0 / 3.0)):
            want = sde.step(t, dt, X, dB)
            got = sde.step(t, dt, np.asfortranarray(X), dB)
            assert got.flags.f_contiguous
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("uset", [
    tb.Ball([0.0] * 3, 1.0),
    tb.UnionSet([tb.Box([-1.0] * 3, [0.0] * 3),
                 tb.PointCloud([[0.5, 0.5, 0.5], [1.0, -0.5, 0.25]])])],
    ids=["ball", "box_cloud_union"])
def test_backward_sweep_hands_out_column_major_rows(uset):
    # every row the sweep hands out at dim 3: the states, the increments,
    # the maximizer's query and its projection record
    G = tb.StateFn(c0=np.zeros(3), C_x=0.5 * np.eye(3), C_z=np.eye(3))
    sc = replace(ball_scenario(3, n_paths=300, n_steps=6), uset=uset,
                 driver=tb.RegularizedProjectionDriver(
                     h=tb.StateFn(c0=0.0), G=G, eps=0.5))
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    queries = []
    project = uset.project_batch

    def spy(P, gap=True):
        queries.append(P.flags.f_contiguous)
        return project(P, gap)
    uset.project_batch = spy
    nodes = []
    try:
        for i, x, _, (track,) in engine.backward_sweep([sc], ens,
                                                       records=True):
            nodes.append(i)
            assert x.flags.f_contiguous, i
            assert track.rec.point.flags.f_contiguous, i
    finally:
        del uset.project_batch
    n = sc.grid.n_steps
    assert nodes == list(range(n, -1, -1))
    assert len(queries) == n + 1 and all(queries)
    assert all(ens.increments[:, i].flags.f_contiguous for i in range(n))
    assert all(ens.states[:, j].flags.f_contiguous
               for j in range(len(ens.checkpoints)))
    assert all(ens.all_states()[:, i].flags.f_contiguous
               for i in range(n + 1))


@pytest.mark.parametrize("dim", [1, 3, 9])
def test_z_target_is_bitwise_the_broadcast(dim):
    # Z_n = Z_{n-1}, fitted on node n - 1's design against the target
    # (y - Ey) dB / dt, the residual column broadcast over C-ordered
    # increments: BLAS sums a column-major target in another order
    sc = replace(ball_scenario(dim, n_paths=400, n_steps=4),
                 driver=tb.ZeroDriver())
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    n, dt = sc.grid.n_steps, sc.grid.dt
    X = ens.all_states()
    y = sc.terminal.value(X[:, n])
    basis, design = _Basis.measure(X[:, n - 1], sc.regression_degree)
    Ey = design @ basis.fit(design, y)
    target = (y - Ey)[:, None] * np.ascontiguousarray(ens.increments[:, n - 1])
    target /= dt
    want = design @ basis.fit(design, target)
    i, _, _, (track,) = next(engine.backward_sweep([sc], ens))
    assert i == n
    assert track.z.tobytes() == want.tobytes()


def test_solve_on_path_major_copies_matches_node_major():
    sc = layout_scenario()
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    copy = engine.PathEnsemble(ens.grid, ens.n_paths, ens.seed,
                               np.ascontiguousarray(ens.increments),
                               np.ascontiguousarray(ens.all_states()))
    assert not copy.states[:, 0].flags.c_contiguous
    node = tb.solve_theta_bsde(sc, paths=ens, keep=engine.KEEPABLE)
    path = tb.solve_theta_bsde(sc, paths=copy, keep=engine.KEEPABLE)
    for a, b in ((node.Y, path.Y), (node.Z, path.Z), (node.A, path.A)):
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)
    assert abs(node.Y0 - path.Y0) <= 1e-12
    for (_, _, _, (a,)), (_, _, _, (b,)) in zip(
            engine.backward_sweep([sc], ens, records=True),
            engine.backward_sweep([sc], copy, records=True)):
        np.testing.assert_allclose(b.rec.medial_gap, a.rec.medial_gap,
                                   rtol=0, atol=1e-12)
        assert np.array_equal(a.rec.member_index, b.rec.member_index)


@pytest.mark.parametrize("big, node", [(None, 10), (1.7e308, 9)],
                         ids=["nan_on_one_path", "overflow_in_regression"])
def test_non_finite_values_name_the_node(big, node):
    sc = driver_scenario(tb.AffineDriver(0.3, 0.2, [0.0]))
    xi = np.ones(sc.n_paths)
    if big is None:
        xi[17] = np.nan
    else:
        xi[:] = big  # finite, but its regression at the next node overflows
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            EngineError, match=f"non-finite values at node {node}$"):
        tb.solve_theta_bsde(sc, terminal_values=xi)


# solves on a shared ensemble ------------------------------------------------

def fresh_copy(ens):
    """The same arrays on a new ensemble."""
    return tb.PathEnsemble(ens.grid, ens.n_paths, ens.seed, ens.increments,
                           ens.states, ens.sde)


def count_factorisations(monkeypatch):
    """Counts Gram factorisations: each measures its Gram's eigenvalues."""
    calls = [0]
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls[0] += 1
        return eigvalsh(a)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def collinear_ensemble():
    # X in {-1, 1} at every node: each node's design falls back to lstsq
    rng = np.random.default_rng(2)
    grid = tb.TimeGrid(0.0, 1.0, 8)
    return tb.PathEnsemble(grid, 400, 0,
                           rng.standard_normal((400, 8, 1)) * np.sqrt(grid.dt),
                           rng.choice([-1.0, 1.0], size=(400, 9, 1)))


BASIS_VARIANTS = {
    "y_free": dict(driver=tb.RegularizedProjectionDriver(
        h=tb.StateFn(c0=0.1), G=tb.StateFn(c0=np.array([0.0]), C_z=[[1.0]]),
        eps=0.5)),
    "picard": dict(driver=tb.RegularizedProjectionDriver(
        h=tb.StateFn(c0=0.0, c_y=0.3),
        G=tb.StateFn(c0=np.array([0.2]), C_x=[[0.5]], c_y=[0.4], C_z=[[1.0]]),
        eps=0.25)),
    "affine_degree_2": dict(driver=tb.AffineDriver(0.1, -0.2, [0.3]),
                            regression_degree=2),
}


@pytest.mark.parametrize("order", [list(BASIS_VARIANTS),
                                   list(reversed(BASIS_VARIANTS))],
                         ids=["forward", "reversed"])
@pytest.mark.parametrize("make_ens", [
    lambda: tb.simulate_forward(make_sde(), tb.TimeGrid(0.0, 1.0, 10), 400, 3),
    collinear_ensemble,
], ids=["simulated", "collinear"])
def test_solves_on_a_shared_ensemble_equal_solves_on_fresh_copies(make_ens,
                                                                    order):
    ens = make_ens()
    shared = fresh_copy(ens)
    for name in order:
        sc = tb.Scenario(sde=make_sde(), uset=UNIT_BOX,
                         terminal=tb.Payoff([0.0, 1.0, 0.5]), grid=ens.grid,
                         n_paths=ens.n_paths, seed=0, **BASIS_VARIANTS[name])
        got = tb.solve_theta_bsde(sc, paths=shared, keep=engine.KEEPABLE)
        ref = tb.solve_theta_bsde(sc, paths=fresh_copy(ens),
                                  keep=engine.KEEPABLE)
        for a, b in ((got.Y, ref.Y), (got.Z, ref.Z)):
            assert np.array_equal(a, b)
        assert (got.A is None) == (ref.A is None)
        assert got.A is None or np.array_equal(got.A, ref.A)
        assert (got.Y0, got.stderr) == (ref.Y0, ref.stderr)
        assert got.diagnostics == ref.diagnostics
        if make_ens is collinear_ensemble:
            # degree 3 repeats x as x^3; degree 2 drops x^2 and keeps [1, x]
            falls = ens.grid.n_steps if sc.regression_degree == 3 else 0
            assert got.diagnostics["lstsq_fallbacks"] == falls


@pytest.mark.parametrize("make_ens", [
    lambda: tb.simulate_forward(make_sde(), tb.TimeGrid(0.0, 1.0, 10), 400, 3),
    collinear_ensemble,
], ids=["simulated", "collinear"])
def test_a_solve_leaves_its_ensemble_as_it_found_it(make_ens):
    ens = make_ens()
    before = pickle.dumps(ens)
    for name in BASIS_VARIANTS:
        sc = tb.Scenario(sde=make_sde(), uset=UNIT_BOX,
                         terminal=tb.Payoff([0.0, 1.0, 0.5]), grid=ens.grid,
                         n_paths=ens.n_paths, seed=0, **BASIS_VARIANTS[name])
        tb.solve_theta_bsde(sc, paths=ens, keep=engine.KEEPABLE)
        for _ in engine.backward_sweep([sc], ens, records=True):
            pass
        assert pickle.dumps(ens) == before


@pytest.mark.parametrize("make_ens", [
    lambda: tb.simulate_forward(make_sde(), tb.TimeGrid(0.0, 1.0, 10), 400, 3),
    collinear_ensemble,
], ids=["simulated", "collinear"])
def test_a_sweep_builds_every_design_in_one_buffer(monkeypatch, make_ens):
    # a fresh (k, n_paths) design per node cost fresh pages at every node;
    # the shared buffer must give the same bits as a fresh one
    ens = make_ens()
    measure = engine._Basis.measure
    seen = []

    def spied(*args):
        basis, design = measure(*args)
        seen.append((args[0].copy(), basis, design, design.copy()))
        return basis, design
    monkeypatch.setattr(engine._Basis, "measure", spied)
    scenarios = [tb.Scenario(sde=make_sde(), driver=driver, uset=UNIT_BOX,
                             terminal=tb.Payoff([0.0, 1.0, 0.5]),
                             grid=ens.grid, n_paths=ens.n_paths, seed=0)
                 for driver in (tb.ZeroDriver(),
                                tb.AffineDriver(0.3, 0.5, [0.2]))]
    for _ in engine.backward_sweep(scenarios, ens):
        pass
    assert len(seen) == ens.grid.n_steps
    first = seen[0][2]
    for x, basis, design, bits in seen:
        assert np.shares_memory(design, first)
        fresh, fresh_design = measure(x, 3)
        assert np.array_equal(bits, fresh_design)
        assert basis.condition == fresh.condition
        assert (basis.chol is None) == (fresh.chol is None)
        assert basis.chol is None or np.array_equal(basis.chol, fresh.chol)


def test_a3_measures_each_node_once(monkeypatch):
    sc = driver_scenario(tb.AffineDriver(0.3, 0.5, [0.2]))
    solves = [0]
    solve = engine.solve_theta_bsde

    def counted(*args, **kwargs):
        solves[0] += 1
        return solve(*args, **kwargs)
    monkeypatch.setattr(engine, "solve_theta_bsde", counted)
    calls = count_factorisations(monkeypatch)
    rep = axiom_check(sc, "A3_tower", {"s_index": 4})
    # the nested valuation is read off the one sweep: no solve, and no
    # node below s is measured again
    assert solves[0] == 0 and calls[0] == sc.grid.n_steps
    assert rep["discrepancy"] == 0.0


def test_a3_holds_no_full_y(traced_peak):
    # 20k paths x 51 nodes: Y is 8 MB, and the check holds no row beyond
    # the sweep's and its nested accumulator
    sc = replace(driver_scenario(tb.AffineDriver(0.3, 0.5, [0.2])),
                 n_paths=20_000, grid=tb.TimeGrid(0.0, 1.0, 50))
    solve_peak, sol = traced_peak(tb.solve_theta_bsde, sc)
    a3_peak, rep = traced_peak(axiom_check, sc, "A3_tower", {"s_index": 25})
    assert rep["stderr"] > sol.stderr
    assert a3_peak < solve_peak - 0.5 * sol.Y.nbytes, (a3_peak, solve_peak)


def test_normalization_holds_no_full_y(traced_peak):
    # 20k paths x 51 nodes: Y is 8 MB, and the check keeps only the
    # largest |y - m| of the nodes the sweep has yielded
    sc = replace(driver_scenario(tb.AffineDriver(0.3, 0.5, [0.2])),
                 n_paths=20_000, grid=tb.TimeGrid(0.0, 1.0, 50))
    solve_peak, sol = traced_peak(tb.solve_theta_bsde,
                                  replace(sc, terminal=tb.Payoff([1.5])))
    peak, rep = traced_peak(axiom_check, sc, "normalization", {"m": 1.5})
    assert rep["discrepancy"] == float(np.max(np.abs(sol.Y - 1.5)))
    assert peak < solve_peak - 0.5 * sol.Y.nbytes, (peak, solve_peak)


def two_solve_a3(sc, s):
    """A3 by its definition: the outer solve, then the nested solve from
    node s, with terminal ``Y_s``, on the paths' first s steps."""
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    sol = tb.solve_theta_bsde(sc, paths=ens)
    if s == 0:
        return {"axiom": "A3_tower", "passed": True, "discrepancy": 0.0,
                "stderr": sol.stderr}
    nested = tb.solve_theta_bsde(sc, paths=truncation(ens, s),
                                 terminal_values=sol.Y[:, s])
    disc = float(abs(nested.Y0 - sol.Y0))
    stderr = float(np.hypot(sol.stderr, nested.stderr))
    return {"axiom": "A3_tower", "passed": disc <= 3.0 * stderr + 1e-12,
            "discrepancy": disc, "stderr": stderr}


A3_SDE = make_sde(x0=[0.3], drift_const=[0.1], drift_lin=[[-0.5]],
                  vol_const=[[0.8]], vol_lin=[[[0.1]]])


@pytest.mark.parametrize("y_clip", [None, (-1.0, 0.6)],
                         ids=["free", "clipped"])
@pytest.mark.parametrize("variant", list(BASIS_VARIANTS))
@pytest.mark.parametrize("n_steps", [10, 40])
def test_a3_report_equals_its_two_solve_definition(n_steps, variant, y_clip):
    sc = tb.Scenario(sde=A3_SDE, uset=UNIT_BOX, terminal=tb.Payoff([0.0, 1.0]),
                     grid=tb.TimeGrid(0.0, 1.0, n_steps), n_paths=500, seed=7,
                     y_clip=y_clip, **BASIS_VARIANTS[variant])
    times = sc.grid.times
    # a sub-grid whose dt rounds an ulp off the grid's steps its driver at
    # other times and dt; the one sweep takes the grid's own
    exact = [s for s in range(n_steps + 1)
             if s == 0 or tb.TimeGrid(0.0, times[s], s).dt == sc.grid.dt]
    assert len(exact) > n_steps // 2
    for s in exact:
        rep = axiom_check(sc, "A3_tower", {"s_index": s})
        assert rep == two_solve_a3(sc, s), s
        assert rep["discrepancy"] == 0.0


@pytest.mark.parametrize("axiom, driver, params", [
    ("A1_monotonicity", tb.AffineDriver(0.3, 0.5, [0.2]),
     {"terminal2": tb.Payoff([-1.0, 1.0])}),
    ("A2_translation", tb.AffineDriver(0.3, 0.0, [0.2]), {"m": 1.0}),
])
def test_a1_a2_build_each_node_design_once(monkeypatch, axiom, driver,
                                           params):
    # both valuations share one design per node
    designs = [0]
    rows = engine._monomial_rows

    def counted(*args):
        designs[0] += 1
        return rows(*args)
    monkeypatch.setattr(engine, "_monomial_rows", counted)
    sc = driver_scenario(driver)
    axiom_check(sc, axiom, params)
    assert designs[0] == sc.grid.n_steps


def two_solve_report(sc, axiom, params):
    """A1 and A2 by definition: two full solves on one ensemble, reduced
    over whole (n_paths, n_steps + 1) arrays."""
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    sol1 = tb.solve_theta_bsde(sc, paths=ens)
    if axiom == "A1_monotonicity":
        sol2 = tb.solve_theta_bsde(replace(sc, terminal=params["terminal2"]),
                                   paths=ens)
        diff = sol1.Y - sol2.Y
        frac = float(np.mean(diff < -1e-12))
        worst = float(max(0.0, -diff.min()))
        stderr = float(np.max(np.std(diff, axis=0)) / np.sqrt(sc.n_paths))
        return {"axiom": axiom,
                "passed": frac <= 0.005 and worst <= 3.0 * stderr + 1e-12,
                "discrepancy": worst, "violation_fraction": frac,
                "stderr": stderr}
    m = params["m"]
    coeffs = sc.terminal.coeffs
    shifted = tb.Payoff(np.concatenate(([coeffs[0] + m], coeffs[1:])))
    sol2 = tb.solve_theta_bsde(replace(sc, terminal=shifted), paths=ens)
    disc = float(np.max(np.abs(sol2.Y - sol1.Y - m)))
    return {"axiom": axiom, "passed": disc <= 1e-12, "discrepancy": disc,
            "tol": 1e-12}


KINK = {"terminal2": tb.Payoff([0.0, 1.0], clamp=(-1e9, 0.5))}


@pytest.mark.parametrize("seed", [7, 2027])
@pytest.mark.parametrize("axiom, variant, y_clip, params", [
    # x against min(x, 0.5): the cubic basis at the kink makes Y1 < Y2 on
    # some paths, so the violation count and the minimum are folded
    ("A1_monotonicity", "picard", None, KINK),
    ("A1_monotonicity", "picard", (-1.0, 0.6), KINK),
    ("A1_monotonicity", "y_free", None,
     {"terminal2": tb.Payoff([-0.5, 1.0])}),
    ("A2_translation", "y_free", None, {"m": 1.0}),
    ("A2_translation", "y_free", (-1.0, 0.6), {"m": 0.25}),
], ids=["A1_kink", "A1_kink_clipped", "A1_shift", "A2", "A2_clipped"])
def test_a1_a2_reports_equal_their_definition(seed, axiom, variant, y_clip,
                                              params):
    sc = tb.Scenario(sde=make_sde(), uset=UNIT_BOX,
                     terminal=tb.Payoff([0.0, 1.0]),
                     grid=tb.TimeGrid(0.0, 1.0, 10), n_paths=500, seed=seed,
                     y_clip=y_clip, **BASIS_VARIANTS[variant])
    rep = axiom_check(sc, axiom, params)
    assert rep == two_solve_report(sc, axiom, params)
    # plain Python values, as the summary JSON writes them
    assert {type(v) for v in rep.values()} <= {str, bool, float}
    if params is KINK:
        assert rep["violation_fraction"] > 0 and not rep["passed"]


def test_simulated_paths_are_read_only():
    ens = tb.simulate_forward(make_sde(), tb.TimeGrid(0.0, 1.0, 5), 20, 1)
    for a in (ens.states, ens.increments, ens.states.base,
              ens.increments.base):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0, 0] = 1.0


# checkpointed paths ---------------------------------------------------------

# affine drift in t and x and state-dependent volatility: every Euler step
# reads all of its inputs
CHECKPOINT_SDE = make_sde(x0=[0.3], drift_const=[0.1], drift_t=[0.2],
                          drift_lin=[[-0.5]], vol_const=[[0.8]],
                          vol_lin=[[[0.1]]])
# every grid up to 70 steps: no node to rebuild (n = 1), one, and every
# bisection shape, 2^k - 1, 2^k and 2^k + 1 among them
CHECKPOINT_STEPS = list(range(1, 71))
# the runs on checkpointed paths: no node to rebuild, one, odd and even
# halves, and 2^k - 1, 2^k and 2^k + 1
RUN_STEPS = [1, 2, 9, 10, 15, 16, 17]


def full_paths(ens, sde):
    """The ensemble's paths with X at every node, stepped
    node-major from its increments by the forward loop that stored every
    node."""
    grid, dB = ens.grid, np.swapaxes(ens.increments, 0, 1)
    X = np.empty((grid.n_steps + 1, ens.n_paths, sde.dim_x))
    X[0] = sde.x0
    for i, t in enumerate(grid.times[:-1]):
        X[i + 1] = X[i] + sde.drift(t, X[i]) * grid.dt + vol_mul(
            sde, X[i], dB[i])
    X.flags.writeable = False
    return tb.PathEnsemble(grid, ens.n_paths, ens.seed, ens.increments,
                           np.swapaxes(X, 0, 1))


def checkpoint_scenario(n_steps, seed, driver, uset=UNIT_BOX,
                        sde=CHECKPOINT_SDE, terminal=tb.Payoff([0.0, 1.0])):
    return tb.Scenario(sde=sde, driver=driver, uset=uset, terminal=terminal,
                       grid=tb.TimeGrid(0.0, 1.0, n_steps), n_paths=300,
                       seed=seed)


def union_driver(c_y=0.0):
    return tb.RegularizedProjectionDriver(
        h=tb.StateFn(c0=0.0, c_y=0.5 * c_y),
        G=tb.StateFn(c0=np.array([0.5]), C_x=[[0.5]], c_y=[c_y],
                     C_z=[[2.0]]), eps=0.3)


def fk_surface(sc):
    """The PDE oracle's surface of ``sc`` on the automatic grid."""
    return solve_pde(sc.driver, sc.uset, sc.sde, sc.terminal,
                     auto_grid(sc.sde, sc.grid))


# name -> (scenario of (n_steps, seed), the run on it)
CHECKPOINT_RUNS = {
    "solve_y_free": (
        lambda n, s: checkpoint_scenario(n, s, union_driver(),
                                         box_cloud_union()),
        lambda sc: tb.solve_theta_bsde(sc, keep=engine.KEEPABLE)),
    "solve_y_dependent": (
        lambda n, s: checkpoint_scenario(n, s, union_driver(c_y=0.4),
                                         box_cloud_union()),
        lambda sc: tb.solve_theta_bsde(sc, keep=engine.KEEPABLE)),
    "epsilon_sweep": (
        lambda n, s: checkpoint_scenario(
            n, s, tb.GLimitDriver(), tb.Box([1.0], [2.0]),
            terminal=tb.Payoff([0.0, 0.0, 1.0], clamp=(0.0, 1.0))),
        lambda sc: epsilon_sweep(sc, [0.5, 0.25, 0.125], [1.0])),
    "eos_demo": (
        lambda n, s: checkpoint_scenario(n, s, union_driver(),
                                         box_cloud_union()),
        eos_demo),
    "feynman_kac": (
        lambda n, s: checkpoint_scenario(n, s, union_driver(),
                                         sde=replace(CHECKPOINT_SDE,
                                                     vol_lin=None)),
        lambda sc: feynman_kac_compare(sc, fk_surface(sc))),
    "A1": (
        lambda n, s: checkpoint_scenario(n, s, union_driver(c_y=0.4)),
        lambda sc: axiom_check(sc, "A1_monotonicity",
                               {"terminal2": tb.Payoff([-0.5, 1.0])})),
    "A2": (
        lambda n, s: checkpoint_scenario(n, s, union_driver()),
        lambda sc: axiom_check(sc, "A2_translation", {"m": 1.0})),
    # A3 with s at node n, the one stored checkpoint after node 0, and s at
    # n - 1, the last node the replay rebuilds (n itself on a one-step grid)
    "A3_checkpoint": (
        lambda n, s: checkpoint_scenario(n, s, union_driver(c_y=0.4)),
        lambda sc: axiom_check(sc, "A3_tower", {
            "s_index": sc.grid.n_steps})),
    "A3_between": (
        lambda n, s: checkpoint_scenario(n, s, union_driver(c_y=0.4)),
        lambda sc: axiom_check(sc, "A3_tower", {
            "s_index": max(sc.grid.n_steps - 1, 1)})),
}


def assert_same(a, b):
    """``a == b`` bitwise, through dataclasses, dicts and arrays."""
    if is_dataclass(a):
        assert type(a) is type(b)
        a, b = vars(a), vars(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same(a[key], b[key])
    else:
        assert np.array_equal(a, b), (a, b)


@pytest.mark.parametrize("seed", [7, 2027])
@pytest.mark.parametrize("n_steps", RUN_STEPS)
@pytest.mark.parametrize("run", list(CHECKPOINT_RUNS))
def test_checkpointed_paths_give_the_full_paths_results_bitwise(
        monkeypatch, run, n_steps, seed):
    make, call = CHECKPOINT_RUNS[run]
    sc = make(n_steps, seed)
    checkpointed = call(sc)
    simulate = engine.simulate_forward

    def full(sde, grid, n_paths, seed):
        return full_paths(simulate(sde, grid, n_paths, seed), sde)
    for module in (engine, experiments, pde):
        monkeypatch.setattr(module, "simulate_forward", full)
    assert_same(checkpointed, call(sc))


def bits(a):
    """The float64 bit patterns of ``a``: equal bits, not equal values."""
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("n_steps", CHECKPOINT_STEPS)
def test_replays_and_truncations_rebuild_the_full_rows(n_steps):
    grid = tb.TimeGrid(0.0, 1.0, n_steps)
    ens = tb.simulate_forward(CHECKPOINT_SDE, grid, 50, 7)
    assert ens.checkpoints == [0, n_steps]
    full = full_paths(ens, CHECKPOINT_SDE).states
    assert np.array_equal(bits(ens.states), bits(full[:, [0, n_steps]]))
    assert np.array_equal(bits(ens.all_states()), bits(full))
    backward = list(ens.replay())
    assert len(backward) == n_steps + 1
    for i, x in zip(range(n_steps, -1, -1), backward):
        assert x.flags.c_contiguous, i
        assert np.array_equal(bits(x), bits(full[:, i])), i
    # a truncation built from arrays holds every node and steps none
    for s in range(1, n_steps + 1):
        sub = truncation(ens, s)
        assert sub.sde is None and sub.checkpoints == list(range(s + 1))
        assert np.array_equal(sub.all_states(), full[:, :s + 1])


def test_a_replay_reads_the_grid_times_once_per_segment(monkeypatch):
    # 10 steps, checkpoints 0 and 10: one segment, 9 nodes rebuilt
    ens = tb.simulate_forward(CHECKPOINT_SDE, tb.TimeGrid(0.0, 1.0, 10), 50, 7)
    assert ens.checkpoints == [0, 10]
    reads = [0]
    times = tb.TimeGrid.times

    def counted(grid):
        reads[0] += 1
        return times.fget(grid)
    monkeypatch.setattr(tb.TimeGrid, "times", property(counted))
    assert len(list(ens.replay())) == 11
    assert reads[0] == 1


def bisection_steps(length):
    """T(L), the Euler steps a replay takes to rebuild the L - 1 nodes
    strictly between two checkpoints L steps apart: L // 2 to the middle
    node, then both halves."""
    if length == 1:
        return 0
    half = length // 2
    return half + bisection_steps(length - half) + bisection_steps(half)


@pytest.mark.parametrize("n_steps, steps_taken", [
    (1, 0), (2, 1), (3, 2), (4, 4), (10, 15), (33, 81), (50, 133), (64, 192)])
def test_a_replay_takes_the_bisection_steps(monkeypatch, n_steps,
                                            steps_taken):
    ens = tb.simulate_forward(CHECKPOINT_SDE, tb.TimeGrid(0.0, 1.0, n_steps),
                              20, 7)
    steps = count_euler_steps(monkeypatch)
    assert len(list(ens.replay())) == n_steps + 1
    assert steps[0] == steps_taken == bisection_steps(n_steps)
    assert 2 * steps_taken <= n_steps * math.ceil(math.log2(n_steps))


def test_a_replay_holds_a_log_of_its_rows(traced_peak):
    # n = 64: the deepest descent holds X_32, X_48, ..., X_63, six rebuilt
    # rows; the Euler step adds its output and the drift-shifted states
    n, row = 64, 20_000 * 3 * 8
    sde = tb.SdeSpec(dim_x=3, dim_b=3, x0=[0.1, 0.2, 0.3],
                     drift_const=[0.1, -0.2, 0.3], drift_t=[0.2, 0.0, -0.1],
                     vol_const=0.8 * np.eye(3))
    ens = tb.simulate_forward(sde, tb.TimeGrid(0.0, 1.0, n), 20_000, 7)

    def walk():
        nodes = 0
        for x in ens.replay():
            nodes += 1
        return nodes
    peak, nodes = traced_peak(walk)
    assert nodes == n + 1
    assert peak <= (math.ceil(math.log2(n)) + 2) * row, peak / row


def count_euler_steps(monkeypatch):
    steps = [0]
    step = tb.SdeSpec.step

    def counted(*args):
        steps[0] += 1
        return step(*args)
    monkeypatch.setattr(tb.SdeSpec, "step", counted)
    return steps


def test_euler_step_budget(monkeypatch):
    # 10 steps, checkpoints 0 and 10: a replay rebuilds the 9 other nodes
    # by bisection in T(10) = 15 steps
    n, rebuilt = 10, bisection_steps(10)
    assert rebuilt == 15
    steps = count_euler_steps(monkeypatch)
    sc = checkpoint_scenario(n, 7, union_driver(), box_cloud_union())
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    assert steps[0] == n
    fk_sc = replace(sc, sde=replace(sc.sde, vol_lin=None))
    for walk, count in (
            (lambda: tb.solve_theta_bsde(sc, paths=ens, keep=engine.KEEPABLE),
             rebuilt),
            (lambda: list(ens.replay()), rebuilt),
            (ens.all_states, rebuilt),
            # the forward pass and the backward sweep, which it folds
            (lambda: eos_demo(sc), n + rebuilt),
            # the forward pass and the backward sweep, which it folds
            (lambda: feynman_kac_compare(fk_sc, fk_surface(fk_sc)),
             n + rebuilt),
            (lambda: axiom_check(sc, "A2_translation", {"m": 1.0}),
             n + rebuilt),
            # one sweep: the nested valuation is read off its nodes
            (lambda: axiom_check(sc, "A3_tower", {"s_index": 5}),
             n + rebuilt),
            (lambda: epsilon_sweep(replace(
                sc, driver=tb.GLimitDriver(), uset=tb.Box([1.0], [2.0]),
                terminal=tb.Payoff([0.0, 1.0], clamp=(0.0, 1.0))),
                [0.5, 0.25], [1.0]), n + rebuilt)):
        steps[0] = 0
        walk()
        assert steps[0] == count


def test_a_solve_peaks_below_full_states_increments_and_y(traced_peak):
    # a fresh dim-3 solve once held X at every node, dB and Y together
    sc = ball_scenario(3, n_paths=4000, n_steps=50)
    n, row = sc.grid.n_steps, sc.n_paths * 8
    held = ((n + 1) * 3 + n * 3 + (n + 1)) * row
    peak, sol = traced_peak(tb.solve_theta_bsde, sc)
    assert np.isfinite(sol.Y0)
    assert peak < held, (peak, held)


GRID_8 = tb.TimeGrid(0.0, 1.0, 8)


@pytest.mark.parametrize("arrays, field", [
    # solved with node 8 as the terminal
    (dict(states=np.zeros((50, 12, 1))), "states"),
    # a bare IndexError at node 8
    (dict(states=np.zeros((50, 5, 1))), "states"),
    # a bare IndexError at node 7
    (dict(increments=np.zeros((50, 3, 1))), "increments"),
    # numpy's "could not broadcast"
    (dict(increments=np.zeros((40, 8, 1)), states=np.zeros((40, 9, 1))),
     "increments"),
    (dict(states=np.zeros((40, 9, 1))), "states"),
    (dict(states=np.zeros((50, 9))), "states"),
], ids=["long_states", "short_states", "short_increments", "fewer_paths",
        "fewer_state_paths", "flat_states"])
def test_path_ensemble_rejects_arrays_off_its_grid(arrays, field):
    given = dict(increments=np.zeros((50, 8, 1)), states=np.zeros((50, 9, 1)))
    given.update(arrays)
    with pytest.raises(EngineError, match=f"^{field} has shape "
                                          r".*50 paths on 8 steps need"):
        tb.PathEnsemble(GRID_8, 50, 0, **given)


def test_simulated_states_are_kept_only_at_checkpoints():
    ens = tb.simulate_forward(make_sde(), GRID_8, 50, 0)
    assert ens.checkpoints == [0, 8]
    assert ens.states.shape == (50, 2, 1)
    # every node given, with the sde whose ensembles keep two of them
    with pytest.raises(EngineError, match=r"^states has shape \(50, 9, 1\), "
                                          r"but .* need \(50, 2, dim\)"):
        tb.PathEnsemble(GRID_8, 50, 0, ens.increments, ens.all_states(),
                        ens.sde)


# reflection: with a set and payoff symmetric under x -> -x, x0 = 0 and
# G = z, the scheme is equivariant under dB -> -dB, node for node and bit
# for bit, in any dimension
REFLECTION_SETS = {
    "box_d1": tb.Box([-1.0], [1.0]),
    "ball_d3": tb.Ball(np.zeros(3), 1.0),
    "union_d1": tb.UnionSet([tb.Box([-1.0], [-0.5]), tb.Box([0.5], [1.0])]),
}


def reflection_scenario(uset, vol=1.0):
    d = uset.dim
    return tb.Scenario(
        sde=tb.SdeSpec(dim_x=d, dim_b=d, x0=np.zeros(d),
                       vol_const=vol * np.eye(d)),
        driver=tb.RegularizedProjectionDriver(
            h=tb.StateFn(c0=0.0), G=tb.StateFn(C_z=np.eye(d)), eps=0.5),
        uset=uset, terminal=tb.Payoff([0.0, 0.0, 1.0]),
        grid=tb.TimeGrid(0.0, 1.0, 20), n_paths=5000, seed=7)


def reflected_solves(sc):
    """Full solves on the stepped ensemble and on the array-built
    ensembles (dB, X) and (-dB, -X) of its paths."""
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    dB, X = np.array(ens.increments), np.array(ens.all_states())
    return [tb.solve_theta_bsde(sc, paths=paths, keep=engine.KEEPABLE)
            for paths in (ens, *(tb.PathEnsemble(sc.grid, sc.n_paths,
                                                 sc.seed, s * dB, s * X)
                                 for s in (1.0, -1.0)))]


@pytest.mark.parametrize("name", REFLECTION_SETS)
def test_reflected_noise_mirrors_z_and_a_bitwise(name):
    stepped, up, down = reflected_solves(
        reflection_scenario(REFLECTION_SETS[name]))
    assert bits(up.Y0).tobytes() == bits(stepped.Y0).tobytes()
    assert bits(down.Y).tobytes() == bits(up.Y).tobytes()
    for field in ("Z", "A"):
        a, b = getattr(up, field), getattr(down, field)
        assert bits(b).tobytes() == bits(-a).tobytes(), field
    # not vacuous: Z and A take both signs
    assert (up.Z > 0).any() and (up.Z < 0).any()
    assert (up.A > 0).any() and (up.A < 0).any()


def test_reflection_breaks_on_the_medial_point():
    # with no noise X stays at 0, so Z is 0 up to the regression's
    # rounding and every query sits at the union's medial point 0. Where
    # the two members' distances tie the lowest member index wins: both
    # ensembles pick -0.5, and A is not mirrored
    sc = reflection_scenario(REFLECTION_SETS["union_d1"], vol=0.0)
    _, up, down = reflected_solves(sc)
    assert bits(down.Y).tobytes() == bits(up.Y).tobytes()
    # equal values: the terminal node's Z is +0.0 on both sides
    assert np.array_equal(down.Z, -up.Z) and np.abs(up.Z).max() < 1e-15
    x = np.zeros((sc.n_paths, 1))
    tie = np.stack([sc.uset.project_batch(sc.driver.query(
        t, x, up.Y[:, i], up.Z[:, i])).medial_gap == 0.0
        for i, t in enumerate(sc.grid.times)], axis=1)[..., None]
    # how many nodes tie depends on the fits' rounding, which differs
    # between BLAS kernel families (about 95 % and 76 % of the entries)
    assert tie.mean() > 0.5
    assert np.all(up.A[tie] == -0.5) and np.all(down.A[tie] == -0.5)
    assert bits(down.A[~tie]).tobytes() == bits(-up.A[~tie]).tobytes()
