import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import thetabsde as tb
from thetabsde.config import parse_config
from thetabsde.experiments import (ExperimentError, dump_json, eos_demo,
                                   epsilon_sweep, fmt, run_scenario, write_csv)


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
    # y-independent driver: per node one maximizer projection, one
    # max_a_distance projection and one diagnostic projection of the query
    uset = tb.UnionSet([tb.Box([-1.0], [0.0]),
                        tb.PointCloud([[0.5], [1.25], [2.0]])])
    rows = []
    project = tb.PointCloud.project_batch

    def counted(self, P):
        rows.append(len(P))
        return project(self, P)
    monkeypatch.setattr(tb.PointCloud, "project_batch", counted)
    n_paths, n_steps = 300, 12
    res = eos_demo(scenario(uset, rp_driver(g_x=[[1.0]]),
                            tb.Payoff([0.0, 1.0]),
                            tb.TimeGrid(0.0, 1.0, n_steps), n_paths, 3))
    assert sum(rows) == 3 * (n_steps + 1) * n_paths
    assert max(rows) == n_paths
    assert abs(sum(res.member_occupancy) - 1.0) <= 1e-12


def test_eos_honours_y_clip():
    # the query follows z, and the clip binds on x^2, so clipping moves A
    sc = scenario(two_interval_union(), rp_driver(g_z=[[1.0]]),
                  tb.Payoff([0.0, 0.0, 1.0]), tb.TimeGrid(0.0, 1.0, 10),
                  500, 4, y_clip=(0.0, 0.5))
    res = eos_demo(sc)
    clipped = tb.solve_theta_bsde(sc).A.mean(axis=0)
    unclipped = tb.solve_theta_bsde(replace(sc, y_clip=None)).A.mean(axis=0)
    assert not np.array_equal(clipped, unclipped)
    assert np.array_equal(res.a_path_mean, clipped)


def test_write_csv_matches_per_value_formatting(tmp_path):
    rows = [(0.0, 0, -0.0, 5e-324), (0.1, 1, 1e22, 0.1),
            (1.0 / 3.0, 12345, -np.inf, np.nan), (2.5, 10 ** 15, 1.0, -7e-300)]
    blocks = [np.array(rows[:1], dtype=float), np.array(rows[1:], dtype=float)]
    write_csv(tmp_path / "x.csv", ["t", "path_id", "a", "b"], iter(blocks))
    expected = "t,path_id,a,b\n" + "".join(
        ",".join([format(t, ".17g"), str(p), format(a, ".17g"),
                  format(b, ".17g")]) + "\n" for t, p, a, b in rows)
    assert (tmp_path / "x.csv").read_bytes() == expected.encode()


def test_paths_dump_streams(tmp_path):
    # 336k rows, about 21 MB
    cfg = parse_config(SOLVE_CFG.replace("mc.n_paths = 400", "mc.n_paths = 16000")
                       .replace("grid.n_steps = 10", "grid.n_steps = 20"))

    def traced_peak(dump):
        tracemalloc.start()
        try:
            run_scenario(cfg, str(tmp_path / f"dump{int(dump)}"), paths_dump=dump)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = traced_peak(True) - traced_peak(False)
    size = (tmp_path / "dump1" / "demo.paths.csv").stat().st_size
    assert size > 20e6
    assert growth < 0.1 * size, (growth, size)
