"""Acceptance suite: nine checks, each printing one pass/fail line.

Budgeted checks time themselves; the final check also asserts the whole
module stayed inside the overall budget.
"""

import time

import numpy as np
import pytest

import thetabsde as tb
from thetabsde.config import parse_config
from thetabsde.drivers import empirical_lipschitz, maximizer, maximizer_oracle
from thetabsde.engine import axiom_check
from thetabsde.experiments import eos_demo, epsilon_sweep, run_scenario
from thetabsde.pde import auto_grid, solve_pde
from thetabsde.theta import (integrate_theta_qv, simulate_theta_bm,
                             verify_theta_martingale)

MODULE_START = time.perf_counter()

UNIT_BOX = tb.Box([0.0], [1.0])


def make_sde():
    return tb.SdeSpec(dim_x=1, dim_b=1, x0=[0.0], vol_const=[[1.0]])


def report(tag, ok):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}")
    assert ok, tag


def rp_driver(eps=0.5, g_z=None, g_y=None, g_c=0.0):
    G = tb.StateFn(c0=np.array([g_c]), c_y=g_y, C_z=g_z)
    return tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0), G=G, eps=eps)


def test_c1_maximizer_matches_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    rp = rp_driver(eps=0.5, g_z=[[1.0]], g_y=[0.5], g_c=0.1)
    gr = tb.GRegularizedDriver(eps=0.5, a0=[1.5])
    gset = tb.Box([1.0], [2.0])
    worst = 0.0
    for _ in range(50):
        y = rng.uniform(-2, 2)
        z = rng.uniform(-2, 2, size=(1, 1))
        a, _, _ = maximizer(rp, UNIT_BOX, 0.0, np.zeros((1, 1)), [y], z)
        ao, _ = maximizer_oracle(rp, UNIT_BOX, 0.0, np.zeros((1, 1)), [y], z, 1e-3)
        worst = max(worst, abs(a[0, 0] - ao[0]))
        a, _, _ = maximizer(gr, gset, 0.0, np.zeros((1, 1)), [y], z)
        ao, _ = maximizer_oracle(gr, gset, 0.0, np.zeros((1, 1)), [y], z, 1e-3)
        worst = max(worst, abs(a[0, 0] - ao[0]))
    wall = time.perf_counter() - start
    report("C1 closed-form maximizers vs grid oracle (50 states each)",
           worst <= 2e-3 and wall < 30)


def test_c2_analytic_bsde_fixtures():
    start = time.perf_counter()
    # constant terminal + constant driver: Y_t = c + k(T - t) within 1e-10
    grid = tb.TimeGrid(0.0, 1.0, 50)
    k, c = 0.3, 2.0
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(k, 0.0, [0.0]),
                     uset=UNIT_BOX, terminal=tb.Payoff([c]), grid=grid,
                     n_paths=10_000, seed=1)
    sol = tb.solve_theta_bsde(sc)
    const_err = max(np.max(np.abs(sol.Y[:, i] - (c + k * (1.0 - t))))
                    for i, t in enumerate(grid.times))

    # linear y-driver: Y_t = exp(r(T-t)) B_t; slope at mid-grid within 2%
    r = 0.1
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(0.0, r, [0.0]),
                     uset=UNIT_BOX, terminal=tb.Payoff([0.0, 1.0]), grid=grid,
                     n_paths=100_000, seed=2)
    ens = tb.simulate_forward(sc.sde, grid, sc.n_paths, sc.seed)
    sol = tb.solve_theta_bsde(sc, paths=ens)
    slope = np.polyfit(ens.states[:, 25, 0], sol.Y[:, 25], 1)[0]
    slope_ok = abs(slope / np.exp(r * 0.5) - 1.0) <= 0.02
    y0_ok = abs(sol.Y0) <= 3 * sol.stderr
    wall = time.perf_counter() - start
    report("C2 analytic fixtures (constant 1e-10; linear slope 2%)",
           const_err <= 1e-10 and slope_ok and y0_ok and wall < 120)


def test_c3_axiom_suite():
    grid = tb.TimeGrid(0.0, 1.0, 40)
    rp = rp_driver(eps=0.5, g_z=[[1.0]])
    sc_rp = tb.Scenario(sde=make_sde(), driver=rp, uset=UNIT_BOX,
                        terminal=tb.Payoff([0.0, 0.0, 1.0]), grid=grid,
                        n_paths=20_000, seed=3)
    sc_zero = tb.Scenario(sde=make_sde(), driver=tb.ZeroDriver(), uset=UNIT_BOX,
                          terminal=tb.Payoff([0.0, 0.0, 1.0]), grid=grid,
                          n_paths=20_000, seed=3)
    a1 = axiom_check(sc_rp, "A1_monotonicity",
                     {"terminal2": tb.Payoff([0.0, 0.0, 0.5])})
    a2 = axiom_check(sc_rp, "A2_translation", {"m": 1.0})
    a3_rp = axiom_check(sc_rp, "A3_tower", {"s_index": 20})
    a3_z = axiom_check(sc_zero, "A3_tower", {"s_index": 20})
    norm = axiom_check(sc_rp, "normalization", {"m": 2.5})
    ok = (a1["passed"] and a1["violation_fraction"] <= 0.005
          and a2["passed"] and a2["discrepancy"] <= 1e-12
          and a3_rp["passed"] and a3_z["passed"]
          and norm["passed"] and norm["discrepancy"] <= 1e-12)
    report("C3 axiom suite (comparison/translation/tower/normalization)", ok)


def test_c4_effective_driver_lipschitz_bound():
    eps = 0.5
    rp = rp_driver(eps=eps, g_z=[[1.0]])  # h = 0, G(z) = z on [0, 1]
    y_lo, y_hi, z_lo, z_hi = -1.0, 1.0, -2.0, 2.0
    est = empirical_lipschitz(rp, UNIT_BOX, ([y_lo, z_lo], [y_hi, z_hi]),
                              5000, 0)
    # constants from the fixture coefficients:
    l_g = rp.G.lipschitz_yz()                      # = 1
    l_a = rp.maximizer_lipschitz()                 # = l_g / (1 + eps)
    a_lo, a_hi = 0.0, 1.0
    # L_{F,yz} = sup |a - G| * L_G over the sample box and the set
    l_fyz = max(abs(a - z) for a in (a_lo, a_hi) for z in (z_lo, z_hi)) * l_g
    # L_{F,a} = sup ||(1+eps) a - G||
    l_fa = max(abs((1 + eps) * a - z) for a in (a_lo, a_hi)
               for z in (z_lo, z_hi))
    bound = l_fyz + l_fa * l_a
    report("C4 effective-driver Lipschitz estimate within structural bound",
           0.5 < est <= bound + 1e-6)


def test_c5_feynman_kac_cross_checks():
    start = time.perf_counter()
    grid = tb.TimeGrid(0.0, 1.0, 50)
    results = []

    # heat: Zero driver, phi = x^2
    sc = tb.Scenario(sde=make_sde(), driver=tb.ZeroDriver(), uset=UNIT_BOX,
                     terminal=tb.Payoff([0.0, 0.0, 1.0]), grid=grid,
                     n_paths=50_000, seed=5)
    results.append(tb.feynman_kac_compare(sc))

    # constant driver, phi = 0
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(0.4, 0.0, [0.0]),
                     uset=UNIT_BOX, terminal=tb.Payoff([0.0]), grid=grid,
                     n_paths=10_000, seed=5)
    results.append(tb.feynman_kac_compare(sc))

    # regularized projection, phi = max(x, 0) via clamping
    sc = tb.Scenario(sde=make_sde(), driver=rp_driver(eps=0.5, g_z=[[1.0]]),
                     uset=UNIT_BOX,
                     terminal=tb.Payoff([0.0, 1.0], clamp=(0.0, 1e6)),
                     grid=grid, n_paths=50_000, seed=5)
    results.append(tb.feynman_kac_compare(sc))

    fk_ok = all(r["abs_err"] <= max(0.02, 3 * r["stderr"]) for r in results)

    # heat-equation interior accuracy of the FD oracle itself
    T = 0.25
    span = 6.0 * np.sqrt(T)
    dx = 2 * span / 399
    n_t = int(np.ceil(T / (dx ** 2 / 1.1))) + 1
    g = tb.PdeGrid(-span, span, 400, n_t, 0.0, T, 1.0)
    surf = solve_pde(tb.ZeroDriver(), UNIT_BOX, make_sde(),
                     tb.Payoff([0.0, 0.0, 1.0]), g)
    interior = np.abs(g.xs) <= 0.5 * g.xs[-1]
    heat_err = np.max(np.abs(surf.u[0][interior]
                             - (g.xs[interior] ** 2 + T)))
    wall = time.perf_counter() - start
    report("C5 Monte Carlo vs PDE oracle on three 1-d fixtures",
           fk_ok and heat_err <= 1e-3 and wall < 180)


def test_c6_regularization_convergence():
    start = time.perf_counter()
    sc = tb.Scenario(sde=make_sde(), driver=tb.GLimitDriver(),
                     uset=tb.Box([1.0], [2.0]),
                     terminal=tb.Payoff([0.0, 0.0, 1.0], clamp=(0.0, 4.0)),
                     grid=tb.TimeGrid(0.0, 1.0, 50), n_paths=50_000, seed=6)
    res = epsilon_sweep(sc, [0.5, 0.25, 0.125, 0.0625], [1.0])
    mono = all(res.sup_y_err[i + 1] <= res.sup_y_err[i]
               + np.hypot(res.stderrs[i], res.stderrs[i + 1])
               for i in range(len(res.epsilons) - 1))
    slope_ok = 0.4 <= res.fitted_slope <= 1.3
    wall = time.perf_counter() - start
    report(f"C6 regularization sweep (slope {res.fitted_slope:.2f})",
           mono and slope_ok and wall < 300)


def test_c7_theta_calculus():
    grid = tb.TimeGrid(0.0, 1.0, 50)
    ens = simulate_theta_bm(tb.ZeroDriver(), UNIT_BOX, grid, 500, 7)
    B = np.concatenate([np.zeros((500, 1)),
                        np.cumsum(ens.increments[:, :, 0], axis=1)], axis=1)
    bit_exact = np.array_equal(ens.b_theta, B)

    fine = tb.TimeGrid(0.0, 1.0, 10_000)
    ens = simulate_theta_bm(tb.AffineDriver(0.5, 0.0, [0.0]), UNIT_BOX,
                            fine, 1000, 7)
    qv_realized = np.mean(np.sum(np.diff(ens.b_theta, axis=1) ** 2, axis=1))
    qv_ok = abs(qv_realized - 1.0) <= 0.05

    B2 = np.cumsum(np.random.default_rng(8).standard_normal((51, 2))
                   * np.sqrt(grid.dt), axis=0)
    B2[0] = 0.0
    qv = integrate_theta_qv(tb.ZeroDriver(), tb.Box([0.0, 0.0], [1.0, 1.0]),
                            grid, B2[None])
    ode_exact = np.allclose(qv.qv, 2.0 * grid.times, atol=1e-12)

    c = 0.4
    sc = tb.Scenario(sde=make_sde(), driver=tb.AffineDriver(c, 0.0, [0.0]),
                     uset=UNIT_BOX, terminal=tb.Payoff([0.0, 1.0]),
                     grid=grid, n_paths=2000, seed=9)
    rep = verify_theta_martingale(sc, "linear_bm", 0, 50, c=1.0)
    witness_ok = abs(rep["driver_value"] - c) <= 1e-12 and rep["driver_value"] != 0.0

    report("C7 drift-corrected calculus (exactness, QV, witness)",
           bit_exact and qv_ok and ode_exact and witness_ok)


def test_c8_pathwise_uniqueness_empirics():
    uset = tb.UnionSet([tb.Box([0.0], [1.0]), tb.Box([5.0], [6.0])])
    drv = rp_driver(eps=0.5, g_c=0.0)
    drv.G.C_x = np.array([[1.0]])  # query follows the state
    kwargs = dict(sde=make_sde(), driver=drv, uset=uset,
                  terminal=tb.Payoff([0.0, 1.0]), n_paths=10_000, seed=10)
    r1 = eos_demo(tb.Scenario(grid=tb.TimeGrid(0.0, 1.0, 200), **kwargs))
    r2 = eos_demo(tb.Scenario(grid=tb.TimeGrid(0.0, 1.0, 400), **kwargs))
    report(f"C8 medial hit fraction {r1.medial_hit_fraction:.2e} "
           f"-> {r2.medial_hit_fraction:.2e} under step doubling",
           r1.medial_hit_fraction <= 0.01
           and r2.medial_hit_fraction <= r1.medial_hit_fraction)


DET_CFG = """
kind = epsilon_sweep
name = det
set.type = box
set.lower = [1.0]
set.upper = [2.0]
driver.type = g_limit
terminal.coeffs = [0.0, 0.0, 1.0]
terminal.clamp = [0.0, 4.0]
grid.T = 1.0
grid.n_steps = 20
mc.n_paths = 4000
mc.seed = 12
sweep.epsilons = [0.5, 0.25]
sweep.a0 = [1.0]
"""


def test_c9_determinism_and_budget(tmp_path):
    for cfg_text, files in [
        (DET_CFG, ["det.summary.json", "det.sweep.csv"]),
        (DET_CFG.replace("kind = epsilon_sweep", "kind = solve")
         + "mc.y_clip = [0.0, 4.0]\n",
         ["det.summary.json", "det.paths.csv"]),
    ]:
        cfg = parse_config(cfg_text)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, str(d1), paths_dump=True)
        run_scenario(cfg, str(d2), paths_dump=True)
        for name in files:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        for p in (d1, d2):
            for f in p.iterdir():
                f.unlink()
    elapsed = time.perf_counter() - MODULE_START
    report(f"C9 byte-identical reruns; suite wall {elapsed:.0f}s",
           elapsed < 900)
