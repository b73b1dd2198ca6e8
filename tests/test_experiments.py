import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import thetabsde as tb
from thetabsde import experiments
from thetabsde.config import build_pde_grid, build_scenario, parse_config
from thetabsde.experiments import (ExperimentError, dump_json, eos_demo,
                                   epsilon_sweep, fmt, run_scenario, write_csv)
from thetabsde.pde import solve_pde


def make_sde():
    return tb.SdeSpec(dim_x=1, dim_b=1, x0=[0.0], vol_const=[[1.0]])


def scenario(uset, driver, terminal, grid, n_paths, seed, **kwargs):
    return tb.Scenario(sde=make_sde(), driver=driver, uset=uset,
                       terminal=terminal, grid=grid, n_paths=n_paths,
                       seed=seed, **kwargs)


def test_fmt_and_dump_json():
    assert fmt(1.0) == "1"
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    text = dump_json({"a": 1.5, "b": [1, 2.0], "c": None, "inf": np.inf,
                      "arr": np.array([0.5])})
    parsed = json.loads(text)
    assert parsed == {"a": 1.5, "b": [1, 2.0], "c": None, "inf": None,
                      "arr": [0.5]}
    assert dump_json({}) == "{}" and dump_json([]) == "[]"
    assert dump_json({"e": [], "f": {}}) == '{\n  "e": [],\n  "f": {}\n}'


def sweep_scenario(n_paths, seed, n_steps=10):
    return scenario(tb.Box([1.0], [2.0]), tb.GLimitDriver(),
                    tb.Payoff([0.0, 0.0, 1.0], clamp=(0.0, 4.0)),
                    tb.TimeGrid(0.0, 1.0, n_steps), n_paths, seed)


EPS = [0.5, 0.25, 0.125, 0.0625]


def test_sweep_builds_each_node_design_once(monkeypatch):
    # the reference and the four runs share one design per node
    from thetabsde import engine
    counts = {"designs": 0, "factorisations": 0}

    def counting(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted
    monkeypatch.setattr(engine, "_monomial_rows",
                        counting(engine._monomial_rows, "designs"))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counting(np.linalg.eigvalsh, "factorisations"))
    sc = sweep_scenario(500, 3)
    epsilon_sweep(sc, EPS, [1.0])
    assert counts == {"designs": sc.grid.n_steps,
                      "factorisations": sc.grid.n_steps}


def five_solve_sweep(sc, epsilons, a0):
    """The sweep's definition: one full solve per driver on common paths,
    errors reduced over whole (n_paths, n_steps + 1) arrays."""
    base = replace(sc, y_clip=sc.terminal.clamp)
    ens = tb.simulate_forward(base.sde, base.grid, base.n_paths, base.seed)
    ref = tb.solve_theta_bsde(replace(base, driver=tb.GLimitDriver()),
                              paths=ens, keep=("Y", "Z"))
    sup_errs, z_errs, ses = [], [], []
    for e in epsilons:
        sol = tb.solve_theta_bsde(
            replace(base, driver=tb.GRegularizedDriver(eps=e, a0=a0)),
            paths=ens, keep=("Y", "Z"))
        dY = sol.Y - ref.Y
        rms = np.sqrt(np.mean(dY ** 2, axis=0))
        j = int(np.argmax(rms))
        sup_errs.append(float(rms[j]))
        ses.append(float(np.std(np.abs(dY[:, j])) / np.sqrt(base.n_paths)))
        dZ = sol.Z - ref.Z
        z_errs.append(float(np.sqrt(np.sum(
            base.grid.dt * np.mean(np.sum(dZ ** 2, axis=2), axis=0)))))
    slope = float(np.polyfit(np.log(epsilons),
                             np.log(np.maximum(sup_errs, 1e-300)), 1)[0])
    return {"epsilons": list(epsilons), "sup_y_err": sup_errs,
            "z_err_l2": z_errs, "stderrs": ses, "fitted_slope": slope,
            "y0": ref.Y0}


@pytest.mark.parametrize("seed, dim_b", [(7, 1), (2027, 1), (7, 2)])
def test_sweep_equals_five_separate_solves(seed, dim_b):
    # a narrow clamp makes y_clip bind on some paths and nodes; with two
    # Brownian columns, |dZ|^2 sums over a row
    sc = replace(sweep_scenario(800, seed, n_steps=12),
                 terminal=tb.Payoff([0.0, 0.0, 1.0], clamp=(0.0, 0.6)))
    a0 = [1.0]
    if dim_b == 2:
        sc = replace(sc, sde=tb.SdeSpec(dim_x=1, dim_b=2, x0=[0.0],
                                        vol_const=[[1.0, 0.5]]),
                     uset=tb.Box([1.0, -0.2, 0.5], [2.0, 0.2, 1.5]))
        a0 = [1.0, 0.0, 1.0]
    expected = five_solve_sweep(sc, EPS, a0)
    base = replace(sc, y_clip=sc.terminal.clamp)
    ens = tb.simulate_forward(base.sde, base.grid, base.n_paths, base.seed)
    ref = tb.solve_theta_bsde(replace(base, driver=tb.GLimitDriver()),
                              paths=ens)
    assert np.any(ref.Y[:, :-1] == 0.6)  # the clip binds
    assert vars(epsilon_sweep(sc, EPS, a0)) == expected


def test_sweep_holds_no_full_solution(traced_peak):
    # the sweep's traced peak is the ensemble with X at every node plus
    # less than two (n_paths, n_steps + 1) arrays; five full solves need
    # far more
    sc = sweep_scenario(4000, 5, n_steps=40)
    row = sc.n_paths * 8
    bound = ((sc.grid.n_steps + 1) * sc.sde.dim_x * row
             + sc.grid.n_steps * sc.sde.dim_b * row
             + 2 * (sc.grid.n_steps + 1) * row)
    peak, _ = traced_peak(epsilon_sweep, sc, EPS, [1.0])
    assert peak <= bound, (peak, bound)


def test_sweep_singleton_set_is_inert():
    # single-point set: penalty vanishes, every eps-run equals the reference
    uset = tb.Box([1.0], [1.0])
    res = epsilon_sweep(
        scenario(uset, tb.GLimitDriver(),
                 tb.Payoff([0.0, 0.0, 1.0], clamp=(0.0, 4.0)),
                 tb.TimeGrid(0.0, 1.0, 10), 2000, 3),
        [0.5, 0.25, 0.125], [1.0])
    assert all(e <= 3 * (se + 1e-15) for e, se in zip(res.sup_y_err, res.stderrs))


def test_sweep_rejects_nonconvex_set():
    uset = tb.UnionSet([tb.Box([1.0], [1.5]), tb.Box([2.0], [2.5])])
    with pytest.raises(ExperimentError):
        epsilon_sweep(scenario(uset, tb.GLimitDriver(),
                               tb.Payoff([0.0, 0.0, 1.0], clamp=(0.0, 4.0)),
                               tb.TimeGrid(0.0, 1.0, 10), 500, 3),
                      [0.5, 0.25], [1.0])


def test_sweep_requires_clamped_terminal_and_decreasing_eps():
    uset = tb.Box([1.0], [2.0])
    grid = tb.TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ExperimentError):
        epsilon_sweep(scenario(uset, tb.GLimitDriver(),
                               tb.Payoff([0.0, 0.0, 1.0]), grid, 500, 3),
                      [0.5, 0.25], [1.0])
    with pytest.raises(ExperimentError):
        epsilon_sweep(scenario(uset, tb.GLimitDriver(),
                               tb.Payoff([0.0, 0.0, 1.0], clamp=(0.0, 4.0)),
                               grid, 500, 3),
                      [0.25, 0.5], [1.0])


def two_interval_union():
    return tb.UnionSet([tb.Box([0.0], [1.0]), tb.Box([5.0], [6.0])])


def rp_driver(g_const=0.0, g_x=None, g_z=None, eps=0.5):
    G = tb.StateFn(c0=np.array([g_const]), C_x=g_x, C_z=g_z)
    return tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0), G=G, eps=eps)


def test_eos_constant_query_deep_in_member():
    # G/(1+eps) = 0.5: well inside member 0, far from the medial region
    res = eos_demo(scenario(two_interval_union(),
                            rp_driver(g_const=0.75, eps=0.5),
                            tb.Payoff([0.0, 1.0]),
                            tb.TimeGrid(0.0, 1.0, 20), 500, 5))
    assert res.member_occupancy == [1.0, 0.0]
    assert res.medial_hit_fraction == 0.0
    assert abs(sum(res.member_occupancy) - 1.0) <= 1e-12


def test_eos_symmetric_occupancy():
    # two symmetric singleton members, G(z) = z, even terminal makes the
    # law of Z symmetric under sign flip
    uset = tb.UnionSet([tb.PointCloud([[-1.0]]), tb.PointCloud([[1.0]])])
    res = eos_demo(scenario(uset, rp_driver(g_z=[[1.0]], eps=0.5),
                            tb.Payoff([0.0, 0.0, 1.0]),
                            tb.TimeGrid(0.0, 1.0, 50), 20_000, 8))
    n = 20_000 * 51
    se = 0.5 / np.sqrt(n)  # Bernoulli(1/2) scale; samples are correlated,
    # so allow a generous multiple
    assert abs(res.member_occupancy[0] - 0.5) <= 30 * se


def test_eos_occupancy_invariant_under_member_relabeling():
    kwargs = dict(terminal=tb.Payoff([0.0, 1.0]),
                  grid=tb.TimeGrid(0.0, 1.0, 20), n_paths=1000, seed=9)
    a = eos_demo(scenario(
        tb.UnionSet([tb.Box([0.0], [1.0]), tb.Box([5.0], [6.0])]),
        rp_driver(g_x=[[1.0]]), **kwargs))
    b = eos_demo(scenario(
        tb.UnionSet([tb.Box([5.0], [6.0]), tb.Box([0.0], [1.0])]),
        rp_driver(g_x=[[1.0]]), **kwargs))
    assert a.member_occupancy == b.member_occupancy[::-1]


def test_eos_rejects_bad_inputs():
    rest = (tb.Payoff([0.0, 1.0]), tb.TimeGrid(0.0, 1.0, 10), 100, 1)
    with pytest.raises(ExperimentError):
        eos_demo(scenario(tb.Box([0.0], [1.0]), rp_driver(), *rest))
    with pytest.raises(ExperimentError):
        eos_demo(scenario(two_interval_union(), tb.ZeroDriver(), *rest))
    with pytest.raises(ExperimentError):  # the plain projection driver
        eos_demo(scenario(two_interval_union(), rp_driver(eps=0.0), *rest))
    for threshold in ("big", np.nan, -1.0, np.inf):
        with pytest.raises(ExperimentError, match="gap_threshold"):
            eos_demo(scenario(two_interval_union(), rp_driver(), *rest),
                     gap_threshold=threshold)


SOLVE_CFG = """
kind = solve
name = demo
set.type = box
set.lower = [0.0]
set.upper = [1.0]
driver.type = zero
terminal.coeffs = [0.0, 1.0]
grid.T = 1.0
grid.n_steps = 10
mc.n_paths = 400
mc.seed = 42
"""


def test_run_scenario_solve_writes_artifacts(tmp_path):
    cfg = parse_config(SOLVE_CFG)
    summary, ok = run_scenario(cfg, str(tmp_path), paths_dump=True)
    assert ok
    assert (tmp_path / "demo.summary.json").exists()
    paths = (tmp_path / "demo.paths.csv").read_text().splitlines()
    assert paths[0] == "t,path_id,Y,Z0,A0"
    assert len(paths) == 1 + 400 * 11
    echoed = json.loads((tmp_path / "demo.summary.json").read_text())
    assert echoed["kind"] == "solve"
    assert parse_config(json.dumps(echoed["config"])) == cfg


def test_run_scenario_byte_identical_reruns(tmp_path):
    cfg = parse_config(SOLVE_CFG)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, str(d1), paths_dump=True)
    run_scenario(cfg, str(d2), paths_dump=True)
    for name in ("demo.summary.json", "demo.paths.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_run_scenario_dispatch_kinds(tmp_path):
    fk = SOLVE_CFG.replace("kind = solve", "kind = fk_check") \
        + "pde.n_x = 150\n"
    summary, ok = run_scenario(parse_config(fk), str(tmp_path))
    assert ok and "abs_err" in summary
    assert (tmp_path / "demo.surface.csv").exists()

    ax = SOLVE_CFG.replace("kind = solve", "kind = axiom_check") \
        + "axiom.name = A2_translation\naxiom.m = 1.0\n"
    summary, ok = run_scenario(parse_config(ax), str(tmp_path))
    assert ok and summary["passed"]

    mg = SOLVE_CFG.replace("kind = solve", "kind = martingale_check") \
        + "martingale.process = theta_bm\n"
    summary, ok = run_scenario(parse_config(mg), str(tmp_path))
    assert ok and "residual" in summary


def test_fk_check_solves_the_pde_once(tmp_path, monkeypatch):
    from thetabsde import experiments, pde
    calls = []
    solve = pde.solve_pde

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)
    monkeypatch.setattr(experiments, "solve_pde", counted)
    monkeypatch.setattr(pde, "solve_pde", counted)
    fk = SOLVE_CFG.replace("kind = solve", "kind = fk_check") + "pde.n_x = 100\n"
    summary, ok = run_scenario(parse_config(fk), str(tmp_path))
    assert ok and len(calls) == 1
    # the comparison reads the same surface that was written
    rows = (tmp_path / "demo.surface.csv").read_text().splitlines()
    xs = np.array([float(r.split(",")[1]) for r in rows[1:101]])
    u0 = np.array([float(r.split(",")[2]) for r in rows[1:101]])
    assert summary["u0"] == np.interp(0.0, xs, u0)


def test_eos_projects_each_node_once(monkeypatch):
    # y-independent driver: per node one maximizer projection, whose record
    # the demo reads instead of projecting the query again
    uset = tb.UnionSet([tb.Box([-1.0], [0.0]),
                        tb.PointCloud([[0.5], [1.25], [2.0]])])
    rows = []
    project = tb.PointCloud.project_batch

    def counted(self, P, **kwargs):
        rows.append(len(P))
        return project(self, P, **kwargs)
    monkeypatch.setattr(tb.PointCloud, "project_batch", counted)
    n_paths, n_steps = 300, 12
    res = eos_demo(scenario(uset, rp_driver(g_x=[[1.0]]),
                            tb.Payoff([0.0, 1.0]),
                            tb.TimeGrid(0.0, 1.0, n_steps), n_paths, 3))
    assert sum(rows) == (n_steps + 1) * n_paths
    assert max(rows) == n_paths
    assert abs(sum(res.member_occupancy) - 1.0) <= 1e-12


def reprojection(sc):
    """Every node's query, member index and medial gap, from projecting
    ``driver.query`` node by node after the solve."""
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    sol = tb.solve_theta_bsde(sc, paths=ens, keep=("Y", "Z"))
    shape = sol.Y.shape
    K = np.empty(shape + (sc.uset.dim,))
    idx = np.empty(shape, dtype=np.int64)
    gaps = np.empty(shape)
    X = ens.all_states()
    for i, t in enumerate(sc.grid.times):
        K[:, i] = sc.driver.query(t, X[:, i], sol.Y[:, i], sol.Z[:, i])
        r = sc.uset.project_batch(K[:, i])
        idx[:, i] = r.member_index
        gaps[:, i] = r.medial_gap
    return K, idx, gaps


def eos_by_reprojection(sc):
    """The demo's four statistics from ``reprojection``."""
    K, idx, gaps = reprojection(sc)
    counts = np.bincount(idx.ravel(), minlength=len(sc.uset.members))
    threshold = 2.0 * float(np.linalg.norm(np.diff(K, axis=1), axis=2).max())
    return ([float(c) for c in counts / counts.sum()],
            float(gaps[np.isfinite(gaps)].min()),
            float(np.mean(gaps < threshold)), threshold)


@pytest.mark.parametrize("G, terminal, y_clip", [
    (tb.StateFn(c0=np.array([0.5]), C_x=[[1.5]], C_z=[[0.2]]),
     tb.Payoff([0.0, 1.0]), None),
    (tb.StateFn(c0=np.array([0.5]), c_y=[1.0], C_x=[[1.5]]),
     tb.Payoff([0.0, 1.0], clamp=(-1.0, 1.0)), (-0.4, 0.4)),
])
def test_eos_reads_the_solver_record_bitwise(G, terminal, y_clip):
    uset = tb.UnionSet([tb.Box([-1.0], [0.0]),
                        tb.PointCloud([[2.0], [4.0], [6.0]])])
    driver = tb.RegularizedProjectionDriver(h=tb.StateFn(c0=0.0), G=G, eps=0.5)
    sc = scenario(uset, driver, terminal, tb.TimeGrid(0.0, 1.0, 40), 800, 11,
                  y_clip=y_clip)
    res = eos_demo(sc)
    expected = eos_by_reprojection(sc)
    assert (res.member_occupancy, res.min_medial_gap, res.medial_hit_fraction,
            res.gap_threshold) == expected
    # the per-node argmax moments are those of a solve's full A
    A = tb.solve_theta_bsde(sc, keep=("A",)).A
    assert np.array_equal(res.a_path_mean, A.mean(axis=0))
    assert np.array_equal(res.a_path_std, A.std(axis=0))
    assert 0.0 < res.medial_hit_fraction < 1.0
    assert all(0.0 < o < 1.0 for o in res.member_occupancy)
    if y_clip is not None:
        # the clip binds, and the y-dependent query sees the clipped Y
        Y = tb.solve_theta_bsde(sc).Y
        assert np.any(Y == y_clip[0]) and np.any(Y == y_clip[1])
        assert expected != eos_by_reprojection(replace(sc, y_clip=None))


def test_eos_argmax_moments_reduce_c_ordered_rows_in_dim_2():
    # the solver's argmax rows are column-major; over the path axis numpy
    # sums those pairwise, and the moments must stay those of a solve's
    # full A, whose node rows are C-ordered
    uset = tb.UnionSet([tb.Box([-2.0, -1.0], [0.0, 1.0]),
                        tb.PointCloud([[2.0, 0.0], [3.0, 1.0], [2.5, -1.0]])])
    G = tb.StateFn(c0=np.zeros(2), C_x=np.eye(2), C_z=0.2 * np.eye(2))
    sc = tb.Scenario(sde=tb.SdeSpec(dim_x=2, dim_b=2, x0=[0.5, 0.0],
                                    vol_const=np.eye(2)),
                     driver=tb.RegularizedProjectionDriver(
                         h=tb.StateFn(c0=0.0), G=G, eps=0.5),
                     uset=uset, terminal=tb.Payoff([0.0, 1.0]),
                     grid=tb.TimeGrid(0.0, 1.0, 20), n_paths=700, seed=3)
    res = eos_demo(sc)
    A = tb.solve_theta_bsde(sc, keep=("A",)).A
    assert np.array_equal(res.a_path_mean, A.mean(axis=0))
    assert np.array_equal(res.a_path_std, A.std(axis=0))


def test_a_given_threshold_is_counted_node_by_node():
    sc = scenario(tb.UnionSet([tb.Box([-1.0], [0.0]),
                               tb.PointCloud([[2.0], [4.0], [6.0]])]),
                  rp_driver(g_const=0.5, g_x=[[1.5]], g_z=[[0.2]]),
                  tb.Payoff([0.0, 1.0]), tb.TimeGrid(0.0, 1.0, 40), 800, 11)
    _, _, gaps = reprojection(sc)
    finite = gaps[np.isfinite(gaps)]
    for threshold in (0.0, *np.quantile(finite, [0.01, 0.5]), finite.max(),
                      finite.max() + 1.0):
        res = eos_demo(sc, gap_threshold=threshold)
        assert res.medial_hit_fraction == float(np.mean(gaps < threshold))
        assert res.min_medial_gap == float(finite.min())
        assert res.gap_threshold == threshold


def dim2_union_scenario():
    uset = tb.UnionSet([tb.Box([-1.0, -1.0], [0.0, 0.0]),
                        tb.PointCloud([[2.0, 0.0], [4.0, 1.0], [6.0, -1.0]])])
    G = tb.StateFn(c0=np.array([0.5, 0.0]), C_x=1.5 * np.eye(2),
                   C_z=0.2 * np.eye(2))
    return tb.Scenario(sde=tb.SdeSpec(dim_x=2, dim_b=2, x0=[0.0, 0.0],
                                      vol_const=np.eye(2)),
                       driver=tb.RegularizedProjectionDriver(
                           h=tb.StateFn(c0=0.0), G=G, eps=0.5),
                       uset=uset, terminal=tb.Payoff([0.0, 1.0]),
                       grid=tb.TimeGrid(0.0, 1.0, 40), n_paths=20_000, seed=11)


def test_a_given_threshold_holds_no_gap_array(traced_peak):
    # the default threshold is known only after the last node, so that run
    # holds every node's gaps; a given one is counted as each node comes
    sc = dim2_union_scenario()
    peak_default, full = traced_peak(eos_demo, sc)
    peak_given, given = traced_peak(eos_demo, sc,
                                    gap_threshold=full.gap_threshold)
    assert given.medial_hit_fraction == full.medial_hit_fraction
    assert given.min_medial_gap == full.min_medial_gap
    gap_array = (sc.grid.n_steps + 1) * sc.n_paths * 8
    assert peak_default - peak_given >= 0.9 * gap_array, (
        peak_default, peak_given, gap_array)


def test_eos_holds_no_full_solution(traced_peak):
    # beyond its paths the demo holds one (n_steps + 1, n_paths) gap array
    # and one node's rows: less than a full Z plus A, which in dim 2 are
    # four such arrays; a kept solve held them with Y and the projection
    # record
    sc = dim2_union_scenario()
    uset = sc.uset
    ens = tb.simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    paths = ens.increments.nbytes + ens.states.nbytes
    z_and_a = (sc.grid.n_steps + 1) * sc.n_paths * 8 * (sc.sde.dim_b + uset.dim)
    peak, res = traced_peak(eos_demo, sc)
    assert peak - paths < z_and_a, (peak, paths, z_and_a)
    assert 0.0 < res.medial_hit_fraction < 1.0


def test_eos_honours_y_clip():
    # the query follows z, and the clip binds on x^2, so clipping moves A
    sc = scenario(two_interval_union(), rp_driver(g_z=[[1.0]]),
                  tb.Payoff([0.0, 0.0, 1.0]), tb.TimeGrid(0.0, 1.0, 10),
                  500, 4, y_clip=(0.0, 0.5))
    res = eos_demo(sc)
    clipped = tb.solve_theta_bsde(sc, keep=("A",)).A.mean(axis=0)
    unclipped = tb.solve_theta_bsde(replace(sc, y_clip=None),
                                    keep=("A",)).A.mean(axis=0)
    assert not np.array_equal(clipped, unclipped)
    assert np.array_equal(res.a_path_mean, clipped)


def csv_oracle(header, keys, blocks):
    """The CSV text with every value formatted on its own."""
    return ",".join(header) + "\n" + "".join(
        ",".join(format(float(v), ".17g") for v in (*lead, key, *row)) + "\n"
        for lead, values in blocks for key, row in zip(keys, values))


def test_write_csv_matches_per_value_formatting(tmp_path, monkeypatch):
    path = tmp_path / "x.csv"
    edge = [-0.0, 5e-324, 1e22, 0.1, np.inf, -np.inf, np.nan, -7e-300]
    ids = [0, 1, 12345, 10 ** 15]
    blocks = [((t,), np.array(edge, dtype=float).reshape(4, 2))
              for t in (0.0, 1.0 / 3.0, -0.0, 2.5)]
    write_csv(path, ["t", "path_id", "a", "b"], np.array(ids), iter(blocks))
    text = path.read_text()
    assert text == csv_oracle(["t", "path_id", "a", "b"], ids, blocks)
    # integer keys come out as integer text
    assert text.splitlines()[4].split(",")[1] == str(10 ** 15)

    # chunk boundaries inside the key templates, two leads
    rng = np.random.default_rng(3)
    n = 2 * 1024 + 37
    keys = np.ldexp(rng.standard_normal(n), rng.integers(-1070, 1020, n))
    blocks = [((t, -t), np.ldexp(rng.standard_normal((n, 3)),
                                 rng.integers(-1070, 1020, (n, 3))))
              for t in (0.1, 7e-300)]
    header = ["s", "r", "key", "u", "v", "w"]
    write_csv(path, header, keys, iter(blocks))
    assert path.read_text() == csv_oracle(header, keys, blocks)

    # no lead: one block, the epsilon sweep's shape
    blocks = [((), np.array([[1e-3, 0.25], [np.nan, -0.0], [1e22, 5e-324]]))]
    keys = [0.5, 0.25, 0.125]
    write_csv(path, ["epsilon", "a", "b"], keys, blocks)
    assert path.read_text() == csv_oracle(["epsilon", "a", "b"], keys, blocks)

    # chunks of 5 values (2 rows of 2): chunks that end mid-block, blocks
    # longer than a chunk, leads and keys of different lengths, a change
    # of row width, and rows with no values
    monkeypatch.setattr(experiments, "_CHUNK", 5)
    keys = [0, 12345, 1.0 / 3.0]
    blocks = [((t,), np.array([[0.1, -2.5], [1e-7, 1e300], [7.0, np.nan]]))
              for t in (0.0, 1.0 / 3.0, -7e-300, 2.0)]
    write_csv(path, ["t", "key", "a", "b"], keys, iter(blocks))
    assert path.read_text() == csv_oracle(["t", "key", "a", "b"], keys, blocks)
    blocks = [blocks[0], ((0.5, -1e-9), np.array([[3.0], [-0.0], [1e22]])),
              blocks[1]]
    write_csv(path, ["t", "key", "a", "b"], keys, iter(blocks))
    assert path.read_text() == csv_oracle(["t", "key", "a", "b"], keys, blocks)
    blocks = [((t,), np.zeros((3, 0))) for t in (0.25, 1e-5)]
    write_csv(path, ["t", "key"], keys, iter(blocks))
    assert path.read_text() == csv_oracle(["t", "key"], keys, blocks)
    monkeypatch.undo()

    with pytest.raises(ExperimentError, match="3 keys"):
        write_csv(path, ["t", "x", "u"], keys, [((0.0,), np.zeros((2, 1)))])
    with pytest.raises(ExperimentError, match="header"):  # lead missing
        write_csv(path, ["t", "x", "u"], keys, [((), np.zeros((3, 1)))])


def formatted(x):
    """The float kernel's text of each value of the 1-d array ``x``, and
    how many values it handed to ``%``."""
    out = np.zeros((len(x), 4), dtype="<u8")
    slow = experiments._format_fields(x, out, experiments._FloatTables())
    text = out.view(np.uint8)
    return bytes(text[text != 0]).decode().split(",")[1:], slow


def test_float_kernel_row_brackets_every_binade():
    # 10**kb <= 2**(e - 1) < 10**(kb + 1) for every frexp exponent e, so
    # a value's decimal exponent is kb or kb + 1
    rows = experiments._FloatTables().row
    for e in range(-1073, 1025):
        kb = int(rows[e]) - experiments._X0
        assert Fraction(10) ** kb <= Fraction(2) ** (e - 1) < Fraction(10) ** (kb + 1)


def test_float_kernel_is_format_17g():
    rng = np.random.default_rng(36)
    bits = rng.integers(0, 2 ** 64, 400_000, dtype=np.uint64,
                        endpoint=False).view(np.float64)
    normals = rng.standard_normal(200_000)
    p10 = 10.0 ** np.arange(-323, 309)
    up, down = np.nextafter(p10, np.inf), np.nextafter(p10, 0.0)
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    switches = np.concatenate([np.nextafter(switches, np.inf), switches,
                               np.nextafter(switches, 0.0)])
    # doubles under a power of ten whose 17 digits round up to it
    carries = np.array([d for d in np.concatenate([down, p10]).tolist()
                        if format(d, ".17g").split("e")[0].strip("0.") == "1"
                        and Fraction(d) < Fraction(format(d, ".17g"))])
    special = np.array([0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456.0])
    x = np.concatenate([bits, normals, p10, up, down, switches, carries,
                        special])
    x = np.concatenate([x, -x])
    assert len(x) >= 10 ** 6
    got, slow = formatted(x)
    assert slow < 0.2 * len(x)
    expected = [format(v, ".17g") for v in x.tolist()]
    if got != expected:
        bad = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected)
               if g != e]
        pytest.fail(f"{len(got)} texts for {len(x)} values; first "
                    f"mismatches (value, kernel, format): {bad[:5]}")
    # the fast path takes nearly every normal draw; an exact tie goes to %
    assert formatted(normals)[1] <= 0.01 * len(normals)
    assert formatted(np.array([1.0 + 2.0 ** -17]))[1] == 1
    carries = carries[carries >= 1e-280]
    assert len(carries) >= 5 and formatted(carries)[1] == 0


def test_surface_csv_is_the_pde_solution_row_by_row(tmp_path):
    fk = SOLVE_CFG.replace("kind = solve", "kind = fk_check") + "pde.n_x = 16\n"
    cfg = parse_config(fk)
    run_scenario(cfg, str(tmp_path))
    sc = build_scenario(cfg)
    surf = solve_pde(sc.driver, sc.uset, sc.sde, sc.terminal,
                     build_pde_grid(cfg, sc))
    assert len(surf.grid.xs) == 16
    expected = "t,x,u\n" + "".join(
        f"{format(t, '.17g')},{format(x, '.17g')},{format(v, '.17g')}\n"
        for t, row in zip(surf.grid.ts, surf.u)
        for x, v in zip(surf.grid.xs, row))
    assert (tmp_path / "demo.surface.csv").read_bytes() == expected.encode()


def test_paths_dump_streams(tmp_path, monkeypatch, traced_peak):
    from thetabsde import experiments
    # 336k rows, about 21 MB
    cfg = parse_config(SOLVE_CFG.replace("mc.n_paths = 400", "mc.n_paths = 16000")
                       .replace("grid.n_steps = 10", "grid.n_steps = 20"))

    def dump_peak(dump):
        return traced_peak(run_scenario, cfg, str(tmp_path / f"dump{int(dump)}"),
                           paths_dump=True)[0]

    dumped = dump_peak(True)
    # the same solve, keeping the same Z and A, with the write left out
    monkeypatch.setattr(experiments, "_write_paths", lambda path, sol: None)
    growth = dumped - dump_peak(False)
    size = (tmp_path / "dump1" / "demo.paths.csv").stat().st_size
    assert size > 20e6
    assert growth < 0.1 * size, (growth, size)
