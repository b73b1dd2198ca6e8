import json
import string
from pathlib import Path

import pytest

from thetabsde.cli import main
from thetabsde.config import (ConfigError, ScenarioConfig, _parse_lines,
                              parse_config)

GOOD = """
# minimal solve scenario
kind = solve
set.type = box
set.lower = [0.0]
set.upper = [1.0]
driver.type = zero
terminal.coeffs = [0.0, 1.0]
grid.T = 1.0
grid.n_steps = 5
mc.n_paths = 50
mc.seed = 1
"""


def test_parse_minimal_config():
    cfg = parse_config(GOOD)
    assert cfg.kind == "solve"
    assert cfg.name == "solve"  # defaults to the kind
    assert cfg.scenario.seed == 1


def test_json_alternate_encoding():
    cfg1 = parse_config(GOOD)
    cfg2 = parse_config(json.dumps(cfg1.data))
    assert cfg1 == cfg2


def test_config_root_must_be_a_mapping():
    # parse_config always hands over a mapping; only a caller that decodes
    # the data itself can reach this check
    with pytest.raises(ConfigError, match="config root must be a mapping"):
        ScenarioConfig([1])


def test_vector_valued_projection_map_from_config():
    cfg = parse_config(GOOD.replace(
        "driver.type = zero",
        "driver.type = regularized_projection\n"
        "driver.eps = 0.5\n"
        "driver.g.z = [[1.0]]"))
    from thetabsde.config import build_scenario
    sc = build_scenario(cfg)
    assert sc.driver.G.dim_out == 1


def test_projection_type_is_the_eps_zero_member():
    from thetabsde.config import build_scenario
    from thetabsde.drivers import RegularizedProjectionDriver
    sc = build_scenario(parse_config(GOOD.replace(
        "driver.type = zero", "driver.type = projection\ndriver.g.z = [[1.0]]")))
    assert isinstance(sc.driver, RegularizedProjectionDriver)
    assert sc.driver.eps == 0.0


def test_cli_validate_negative_eps_exits_2(tmp_path, capsys):
    p = tmp_path / "neg_eps.cfg"
    p.write_text(GOOD.replace(
        "driver.type = zero",
        "driver.type = regularized_projection\n"
        "driver.eps = -0.1\n"
        "driver.g.z = [[1.0]]"))
    assert main(["validate", str(p)]) == 2
    assert "eps" in capsys.readouterr().err


def test_union_set_from_json_members():
    cfg = parse_config(GOOD.replace(
        "set.type = box",
        'set.type = union\nset.members = '
        '[{"type":"box","lower":[0.0],"upper":[1.0]},'
        '{"type":"ball","center":[3.0],"radius":0.5}]')
        .replace("set.lower = [0.0]", "")
        .replace("set.upper = [1.0]", ""))
    from thetabsde.config import build_scenario
    assert len(build_scenario(cfg).uset.members) == 2


def test_missing_seed():
    bad = GOOD.replace("mc.seed = 1", "")
    with pytest.raises(ConfigError, match="mc.seed required"):
        parse_config(bad)


def test_negative_ball_radius_names_field():
    bad = GOOD.replace("set.type = box", "set.type = ball") \
        .replace("set.lower = [0.0]", "set.center = [0.0]") \
        .replace("set.upper = [1.0]", "set.radius = -1")
    with pytest.raises(ConfigError, match="set"):
        parse_config(bad)


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "1.5", "true",
                                  '"abc"'])
def test_seed_outside_philox_key_range_rejected(seed):
    with pytest.raises(ConfigError, match="mc: seed"):
        parse_config(GOOD.replace("mc.seed = 1", f"mc.seed = {seed}"))


def test_largest_seed_accepted():
    assert parse_config(GOOD.replace("mc.seed = 1",
                                     "mc.seed = 18446744073709551615"))


def test_hash_inside_quoted_value_is_kept():
    cfg = parse_config(GOOD + 'name = "run#1"   # a trailing comment\n')
    assert cfg.name == "run#1"
    data = _parse_lines('set.label = "say \\"#\\" twice" # comment\n')
    assert data["set"]["label"] == 'say "#" twice'


def test_unknown_kind():
    with pytest.raises(ConfigError, match="kind"):
        parse_config(GOOD.replace("kind = solve", "kind = bogus"))


def test_dimension_mismatch_rejected():
    bad = GOOD.replace("driver.type = zero",
                       "driver.type = g_limit\nsde.dim_b = 2")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("kind = solve\nthis is not a key value pair\n")


def test_cli_validate_ok(tmp_path, capsys):
    p = tmp_path / "good.cfg"
    p.write_text(GOOD)
    assert main(["validate", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_cli_validate_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(GOOD.replace("mc.seed = 1", ""))
    assert main(["validate", str(p)]) == 2
    assert "mc.seed" in capsys.readouterr().err


def test_cli_run_writes_summary(tmp_path, capsys):
    p = tmp_path / "solve.cfg"
    p.write_text(GOOD)
    out = tmp_path / "results"
    assert main(["run", str(p), "--out", str(out)]) == 0
    assert (out / "solve.summary.json").exists()
    line = capsys.readouterr().out.strip()
    assert line.startswith("kind=solve") and "seed=1" in line


def test_cli_validate_negative_seed_exits_2(tmp_path, capsys):
    p = tmp_path / "neg.cfg"
    p.write_text(GOOD.replace("mc.seed = 1", "mc.seed = -3"))
    assert main(["validate", str(p)]) == 2
    assert "mc: seed" in capsys.readouterr().err


def test_cli_run_quoted_hash_in_name(tmp_path):
    p = tmp_path / "solve.cfg"
    p.write_text(GOOD + 'name = "run#1"\n')
    assert main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "run#1.summary.json").exists()


def test_cli_run_missing_file(capsys):
    assert main(["run", "/nonexistent/nope.cfg"]) == 2


def test_cli_run_invariant_failure_exit_1(tmp_path, capsys):
    # A1 with terminal2 above terminal1 violates the check's precondition
    p = tmp_path / "bad_axiom.cfg"
    p.write_text(GOOD.replace("kind = solve", "kind = axiom_check")
                 + "axiom.name = A1_monotonicity\n"
                 + "axiom.terminal2_coeffs = [10.0, 1.0]\n")
    assert main(["run", str(p), "--out", str(tmp_path)]) == 1


def test_cli_paths_dump_flag(tmp_path):
    p = tmp_path / "solve.cfg"
    p.write_text(GOOD + "name = dumped\n")
    assert main(["run", str(p), "--out", str(tmp_path), "--paths-dump",
                 "--quiet"]) == 0
    assert (tmp_path / "dumped.paths.csv").exists()


SWEEP = (GOOD.replace("kind = solve", "kind = epsilon_sweep")
         .replace("driver.type = zero", "driver.type = g_limit")
         .replace("set.lower = [0.0]", "set.lower = [1.0]")
         .replace("set.upper = [1.0]", "set.upper = [2.0]")
         + "terminal.clamp = [0.0, 4.0]\n")
UNION = ('set.type = union\nset.members = [{"type": "box", "lower": [0.0], '
         '"upper": [1.0]}, {"type": "box", "lower": [2.0], "upper": [3.0]}]')


@pytest.mark.parametrize("kind_cfg, message", [
    # each of these passed validate and then failed in run with exit 1
    (GOOD.replace("kind = solve", "kind = epsilon_sweep")
     .replace("driver.type = zero", "driver.type = g_limit")
     .replace("set.type = box", UNION).replace("set.lower = [0.0]", "")
     .replace("set.upper = [1.0]", "")
     + "terminal.clamp = [0.0, 4.0]\n", "convex"),
    (GOOD.replace("kind = solve", "kind = fk_check")
     .replace("set.lower = [0.0]", "set.lower = [0.0, 0.0]")
     .replace("set.upper = [1.0]", "set.upper = [1.0, 1.0]")
     + "sde.dim_x = 2\n", "dim_x"),
    (GOOD.replace("kind = solve", "kind = eos_demo")
     .replace("driver.type = zero", "driver.type = regularized_projection\n"
              "driver.eps = 0.5\ndriver.g.z = [[1.0]]"), "union"),
    (GOOD.replace("kind = solve", "kind = martingale_check")
     + "martingale.s_index = 9\n", "s_index"),
    # the solve on the one-dimensional Brownian paths raised "sde.dim_x is
    # 2, but the paths have dim_x 1", and the same for dim_b
    (GOOD.replace("kind = solve", "kind = martingale_check")
     + "sde.dim_x = 2\n", "sde.dim_x = sde.dim_b = 1"),
    (GOOD.replace("kind = solve", "kind = martingale_check")
     + "sde.dim_b = 2\n", "sde.dim_x = sde.dim_b = 1"),
    (GOOD.replace("terminal.coeffs = [0.0, 1.0]", "terminal.coeffs = []"),
     "terminal"),
    (GOOD.replace("terminal.coeffs = [0.0, 1.0]", "terminal.coeffs = [[1, 2]]"),
     "terminal"),
    (GOOD.replace("terminal.coeffs = [0.0, 1.0]", "terminal.coeffs = [0, NaN]"),
     "terminal"),
    (GOOD + "sde.x0 = [NaN]\n", "x0 must be finite"),
    (GOOD + "sde.drift_const = [NaN]\n", "drift_const must be finite"),
    (GOOD + "sde.drift_t = [Infinity]\n", "drift_t must be finite"),
    (GOOD + "sde.drift_lin = [[NaN]]\n", "drift_lin must be finite"),
    (GOOD + "sde.vol_const = [[NaN]]\n", "vol_const must be finite"),
    (GOOD + "sde.vol_lin = [[[NaN]]]\n", "vol_lin must be finite"),
    (GOOD.replace("grid.T = 1.0", "grid.T = Infinity"), "T must be finite"),
    (GOOD + "grid.t0 = -Infinity\n", "t0 must be finite"),
    (GOOD.replace("driver.type = zero", "driver.type = affine\ndriver.alpha = NaN"),
     "alpha must be finite"),
    (GOOD.replace("driver.type = zero", "driver.type = affine\ndriver.beta = NaN"),
     "beta must be finite"),
    (GOOD.replace("driver.type = zero",
                  "driver.type = affine\ndriver.gamma = [Infinity]"),
     "gamma must be finite"),
    (GOOD.replace("driver.type = zero", "driver.type = regularized_projection\n"
                  "driver.eps = 0.5\ndriver.g.x = [[NaN]]"), "C_x must be finite"),
    (GOOD.replace("driver.type = zero", "driver.type = g_regularized\n"
                  "driver.eps = Infinity\ndriver.a0 = [0.5]"),
     "eps must be finite"),
    # run joins the name to --out: a number raised a TypeError there, and a
    # path wrote artifacts outside the output directory
    (GOOD + "name = 5\n", "name"),
    (GOOD + 'name = "../escape"\n', "name"),
    (GOOD + "name = a/b\n", "name"),
    (GOOD + "name = /tmp/x\n", "name"),
    (GOOD + 'name = "a\\\\b"\n', "name"),
    (GOOD + "name = ..\n", "name"),
    (GOOD + "name = .\n", "name"),
    (GOOD + 'name = ""\n', "name"),
    # the sweep's drivers raised DriverError and AmbientError in run
    (SWEEP + "sweep.a0 = [5.0]\n", "a0 must lie in the uncertainty set"),
    (SWEEP + "sweep.a0 = [1.0, 1.0]\n", "dimension mismatch"),
    # the solve raised "non-finite values at node 5" in run
    (GOOD.replace("kind = solve", "kind = martingale_check")
     + "martingale.process = linear_bm\nmartingale.c = NaN\n",
     "c must be finite"),
    # an unbounded ball is not compact; it passed validate and ran
    (GOOD.replace("set.type = box", "set.type = ball")
     .replace("set.lower = [0.0]", "set.center = [0.0]")
     .replace("set.upper = [1.0]", "set.radius = Infinity"),
     "set: radius must be finite"),
    # format errors
    (GOOD + " = 5\n", "empty key"),
    (GOOD + "grid.T.x = 2\n", "grid.T.x conflicts with a scalar key"),
    ("{" + GOOD, "JSON config"),
    (GOOD.replace("set.type = box", "set = 5").replace("set.lower = [0.0]", "")
     .replace("set.upper = [1.0]", ""), "set must be a mapping"),
    (GOOD.replace("driver.type = zero", "driver = 5"),
     "driver must be a mapping"),
    (GOOD.replace("set.type = box", "set.type = blob"),
     "set.type unknown: 'blob'"),
    (GOOD.replace("driver.type = zero", "driver.type = blob"),
     "driver.type unknown: 'blob'"),
    (GOOD.replace("driver.type = zero", "driver.type = regularized_projection"
                  "\ndriver.eps = 0.5\ndriver.g = [1.0]"),
     "driver.g must be a number or mapping"),
    # numpy raised "Maximum allowed dimension exceeded" building the design
    (GOOD + "mc.regression_degree = 1e30\n",
     "mc: regression_degree 1000000000000000019884624838656 on dim_x 1 "
     "needs"),
], ids=["sweep_on_union", "fk_in_dim_2", "eos_on_box", "martingale_past_grid",
        "martingale_dim_x_2", "martingale_dim_b_2",
        "empty_coeffs", "nested_coeffs", "nan_coeff", "nan_x0", "nan_drift_const",
        "inf_drift_t", "nan_drift_lin", "nan_vol_const", "nan_vol_lin", "inf_T",
        "inf_t0", "nan_alpha", "nan_beta", "inf_gamma", "nan_g_x", "inf_g_eps",
        "int_name", "parent_name", "nested_name", "absolute_name",
        "backslash_name", "dotdot_name", "dot_name", "empty_name",
        "sweep_a0_outside_set", "sweep_a0_wrong_dim", "martingale_nan_c",
        "inf_ball_radius", "empty_key", "key_under_scalar", "malformed_json",
        "scalar_set", "scalar_driver", "unknown_set_type",
        "unknown_driver_type", "list_driver_g", "degree_past_n_paths"])
def test_cli_validate_rejects_what_run_would_fail(tmp_path, capsys, kind_cfg,
                                                  message):
    p = tmp_path / "kind.cfg"
    p.write_text(kind_cfg)
    assert main(["validate", str(p)]) == 2
    assert message in capsys.readouterr().err


PROJECTION = GOOD.replace("driver.type = zero",
                          "driver.type = regularized_projection\ndriver.eps = 0.5")
AFFINE = GOOD.replace("driver.type = zero", "driver.type = affine")


@pytest.mark.parametrize("cfg, message", [
    # each passed validate and then failed in run with a matmul ValueError
    (PROJECTION + "driver.g.x = [[1.0, 2.0, 3.0]]\n", "G: C_x has 3 columns"),
    (PROJECTION + "driver.g.z = [[1.0]]\ndriver.h.x = [1.0, 2.0]\n",
     "h: C_x has 2 columns"),
    (AFFINE + "driver.gamma = [0.0]\nsde.dim_x = 2\n", "gamma"),
    (AFFINE + "driver.gamma = [1.0]\nsde.dim_b = 2\n", "gamma"),
], ids=["g_x_columns", "h_x_columns", "gamma_on_dim_x_2", "gamma_on_dim_b_2"])
def test_cli_validate_checks_driver_coefficient_shapes(tmp_path, capsys, cfg,
                                                       message):
    p = tmp_path / "shape.cfg"
    p.write_text(cfg)
    assert main(["validate", str(p)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind, lines", [
    # theta_bm and martingale_check evaluate the driver at one-column x and
    # z, theta_qv at x = B and z = 2B of dim_x columns; each passed
    # validate and then failed in run with a matmul ValueError
    ("theta_bm", "driver.g.x = [[1.0, 1.0]]\nsde.dim_x = 2\n"),
    ("martingale_check", "driver.g.x = [[1.0, 1.0]]\nsde.dim_x = 2\n"),
    ("theta_qv", "driver.g.z = [[1.0]]\nsde.dim_x = 2\nsde.dim_b = 1\n"
                 "sde.vol_const = [[1.0], [1.0]]\nsde.x0 = [0.0, 0.0]\n"),
], ids=["theta_bm", "martingale_check", "theta_qv"])
def test_cli_validate_checks_the_driver_at_the_theta_dimensions(
        tmp_path, capsys, kind, lines):
    p = tmp_path / "theta.cfg"
    p.write_text(PROJECTION.replace("kind = solve", f"kind = {kind}") + lines)
    assert main(["validate", str(p)]) == 2
    assert "columns, needs" in capsys.readouterr().err


def test_theta_qv_runs_with_a_z_block_of_dim_x_columns(tmp_path):
    p = tmp_path / "qv.cfg"
    p.write_text(PROJECTION.replace("kind = solve", "kind = theta_qv")
                 + "driver.g.z = [[1.0, 1.0]]\nsde.dim_x = 2\n")
    assert main(["validate", str(p)]) == 0
    assert main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 0


def test_theta_bm_run_is_finite_and_reruns_bitwise(tmp_path):
    p = tmp_path / "bm.cfg"
    p.write_text(PROJECTION.replace("kind = solve", "kind = theta_bm")
                 + "driver.g.z = [[1.0]]\nname = bm\n")
    texts = []
    for out in ("a", "b"):
        assert main(["run", str(p), "--out", str(tmp_path / out),
                     "--quiet"]) == 0
        texts.append((tmp_path / out / "bm.summary.json").read_text())
    assert texts[0] == texts[1]
    summary = json.loads(texts[0])
    for key in ("final_mean", "final_var", "realized_qv_mean"):
        assert isinstance(summary[key], float), (key, summary[key])


def test_affine_default_runs_on_dim_x_2(tmp_path):
    # the default gamma was [0.0], which failed in run on any dim_b > 1
    p = tmp_path / "affine.cfg"
    p.write_text(AFFINE + "sde.dim_x = 2\n")
    assert main(["run", str(p), "--out", str(tmp_path), "--quiet"]) == 0


ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted(ROOT.glob("configs/*.cfg")) + sorted(
    ROOT.glob("perfbench/workloads/*.cfg"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_and_benchmarked_configs_validate(tmp_path, capsys, path):
    text = string.Template(path.read_text(encoding="utf-8")).substitute(seed=7)
    p = tmp_path / path.name
    p.write_text(text, encoding="utf-8")
    assert main(["validate", str(p)]) == 0, capsys.readouterr().err


SOLVE_DEMO = (ROOT / "configs" / "solve_demo.cfg").read_text(encoding="utf-8")


@pytest.mark.parametrize("encoding", ["lines", "json"])
@pytest.mark.parametrize("text, key", [
    # each validated and ran as if the key were absent (mc.n_path: 1,000
    # paths; driver.g.Z: G = 0, which moves solve_demo's Y0 at 2,000 paths
    # from 0.6406 to 1.0089)
    (GOOD.replace("mc.n_paths = 50", "mc.n_path = 50"), "mc.n_path"),
    (SOLVE_DEMO.replace("driver.g.z", "driver.g.Z"), "driver.g.Z"),
    (PROJECTION + "driver.g.z = [[1.0]]\ndriver.h.const = 0.0\n"
     "driver.h.zz = [1.0]\n", "driver.h.zz"),
    (GOOD.replace("set.type = box", UNION.replace(
        '"upper": [1.0]}', '"upper": [1.0], "colour": "red"}'))
     .replace("set.lower = [0.0]", "").replace("set.upper = [1.0]", ""),
     "set.members[0].colour"),
    (GOOD.replace("driver.type = zero", "driver.type = projection\n"
                  "driver.eps = 0.5\ndriver.g.z = [[1.0]]"), "driver.eps"),
    (GOOD + "nmae = demo\n", "nmae"),
], ids=["mc_n_path", "driver_g_Z", "driver_h_zz", "union_member_colour",
        "projection_eps", "top_level_nmae"])
def test_cli_validate_rejects_a_key_that_nothing_reads(tmp_path, capsys, text,
                                                       key, encoding):
    if encoding == "json":
        text = json.dumps(_parse_lines(text))
    p = tmp_path / "typo.cfg"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err == f"config error: unknown key {key}\n"


@pytest.mark.parametrize("section", [
    "pde.n_x = 40", "sweep.a0 = [1.0]", "eos.gap_threshold = 0.1",
    "axiom.name = A9", "martingale.c = 2.0"])
def test_another_kinds_section_is_accepted_unread(tmp_path, section):
    p = tmp_path / "solve.cfg"
    p.write_text(GOOD + section + "\n")
    assert main(["validate", str(p)]) == 0


def test_cli_run_failure_names_the_exception_type(tmp_path, capsys):
    p = tmp_path / "bad_axiom.cfg"
    p.write_text(GOOD.replace("kind = solve", "kind = axiom_check")
                 + "axiom.name = A1_monotonicity\n"
                 + "axiom.terminal2_coeffs = [10.0, 1.0]\n")
    assert main(["run", str(p), "--out", str(tmp_path)]) == 1
    assert "run failed: EngineError: A1 requires" in capsys.readouterr().err


def test_non_numeric_sde_dimension_is_a_config_error():
    with pytest.raises(ConfigError, match="sde"):
        parse_config(GOOD + 'sde.dim_x = "two"\n')


@pytest.mark.parametrize("line, message", [
    # validate passed, then run failed with "IndexError: index 0 is out of
    # bounds"
    ("sde.dim_x = 0", "sde.dim_x must be >= 1, got 0"),
    # numpy's "negative dimensions are not allowed" named no field
    ("sde.dim_x = -1", "sde.dim_x must be >= 1, got -1"),
    # validate passed and the solve ran without noise
    ("sde.dim_b = 0", "sde.dim_b must be >= 1, got 0"),
], ids=["zero_dim_x", "negative_dim_x", "zero_dim_b"])
def test_cli_validate_rejects_sde_dimensions_below_one(tmp_path, capsys, line,
                                                        message):
    p = tmp_path / "sde.cfg"
    p.write_text(GOOD + line + "\n")
    assert main(["validate", str(p)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("mc.n_paths = 0", "n_paths"),    # validate passed, run exited 1
    ("mc.n_paths = two", "mc"),       # validate died with a ValueError
    ("mc.regression_degree = cubic", "mc"),
    ("mc.picard_iters = [3]", "mc"),
    # validate passed and the engine clamped or ignored the value
    ("mc.picard_iters = 0", "picard_iters must be >= 1"),
    ("mc.regression_degree = -2", "regression_degree must be >= 0"),
    ("mc.y_clip = [1.0, -1.0]", "y_clip must satisfy lo < hi"),
    ("mc.y_clip = [1.0]", "y_clip must be a [lo, hi] pair"),
    ("mc.y_clip = 1.0", "y_clip must be a [lo, hi] pair"),
], ids=["zero_paths", "word_paths", "word_degree", "list_picard",
        "zero_picard", "negative_degree", "reversed_clip", "short_clip",
        "scalar_clip"])
def test_cli_validate_rejects_bad_mc_fields(tmp_path, capsys, line, message):
    p = tmp_path / "mc.cfg"
    p.write_text(GOOD.replace("mc.n_paths = 50", line) if "n_paths" in line
                 else GOOD + line + "\n")
    assert main(["validate", str(p)]) == 2
    assert message in capsys.readouterr().err


AXIOM = GOOD.replace("kind = solve", "kind = axiom_check")
FK = GOOD.replace("kind = solve", "kind = fk_check")
MARTINGALE = GOOD.replace("kind = solve", "kind = martingale_check")


@pytest.mark.parametrize("cfg, message", [
    # each of these passed validate and ran with the value truncated by int()
    (GOOD.replace("mc.n_paths = 50", "mc.n_paths = 50.9"), "mc: n_paths"),
    (GOOD.replace("mc.n_paths = 50", 'mc.n_paths = "50"'), "mc: n_paths"),
    (GOOD.replace("mc.n_paths = 50", "mc.n_paths = true"), "mc: n_paths"),
    (GOOD.replace("grid.n_steps = 5", "grid.n_steps = 5.5"), "grid: n_steps"),
    (GOOD + "sde.dim_x = 1.5\n", "sde.dim_x"),
    (GOOD + "sde.dim_b = 1.5\n", "sde.dim_b"),
    (GOOD + "mc.regression_degree = 2.5\n", "mc: regression_degree"),
    (GOOD + "mc.picard_iters = 1.5\n", "mc: picard_iters"),
    (AXIOM + "axiom.name = A3_tower\naxiom.s_index = 2.7\n", "axiom: s_index"),
    (MARTINGALE + "martingale.t_index = 0.5\n", "martingale: t_index"),
    (MARTINGALE + "martingale.s_index = 4.5\n", "martingale: s_index"),
    (FK + "pde.n_x = 16.5\n", "pde: n_x"),
    (FK + "pde.x_min = -3.0\npde.x_max = 3.0\npde.n_x = 40\npde.n_t = 100.5\n",
     "pde: n_t"),
    # integral floats are integers
    (GOOD.replace("mc.n_paths = 50", "mc.n_paths = 50.0"), None),
    (AXIOM + "axiom.name = A3_tower\naxiom.s_index = 2.0\n", None),
    (FK + "pde.x_min = -3.0\npde.x_max = 3.0\npde.n_x = 40\npde.n_t = 100.0\n",
     None),
], ids=["paths_fraction", "paths_string", "paths_bool", "steps", "dim_x",
        "dim_b", "degree", "picard", "axiom_s_index", "martingale_t_index",
        "martingale_s_index", "pde_n_x", "pde_n_t", "paths_integral_float",
        "axiom_integral_float", "pde_integral_float"])
def test_cli_validate_rejects_non_integer_fields(tmp_path, capsys, cfg, message):
    p = tmp_path / "int.cfg"
    p.write_text(cfg)
    assert main(["validate", str(p)]) == (0 if message is None else 2)
    if message is not None:
        assert f"{message} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("bounds, message", [
    # both passed validate; run then failed with exit 1 on a non-finite sweep
    ("pde.x_min = -Infinity\npde.x_max = 3.0\n", "pde: x_min must be finite"),
    ("pde.x_min = -3.0\npde.x_max = Infinity\n", "pde: x_max must be finite"),
    ("pde.x_min = -3.0\npde.x_max = 3.0\n", None),
], ids=["x_min_inf", "x_max_inf", "finite_ok"])
def test_cli_validate_rejects_non_finite_pde_bounds(tmp_path, capsys, bounds,
                                                    message):
    p = tmp_path / "fk.cfg"
    p.write_text(FK + bounds + "pde.n_x = 40\npde.n_t = 20\n")
    assert main(["validate", str(p)]) == (0 if message is None else 2)
    if message is not None:
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("keys, name", [
    # both passed validate; run then failed with exit 1 in numpy
    # ("Maximum allowed size exceeded")
    ("pde.n_x = 1e30\n", "n_x"),
    ("pde.x_min = -3.0\npde.x_max = 3.0\npde.n_t = 1e30\n", "n_t"),
], ids=["n_x", "n_t"])
def test_cli_validate_rejects_a_pde_grid_numpy_cannot_size(tmp_path, capsys,
                                                           keys, name):
    p = tmp_path / "fk.cfg"
    p.write_text(FK + keys)
    assert main(["validate", str(p)]) == 2
    assert f"pde: {name} = 1e+30 is too large" in capsys.readouterr().err


@pytest.mark.parametrize("keys, missing", [
    # each validated and then ran on the automatic grid, ignoring the keys
    ("pde.x_min = 100\npde.n_t = 7\n", "pde.x_max"),
    ("pde.x_min = -3.0\n", "pde.x_max and pde.n_t"),
    ("pde.x_max = 3.0\npde.n_x = 40\n", "pde.x_min and pde.n_t"),
    ("pde.n_t = 20\n", "pde.x_min and pde.x_max"),
], ids=["x_min_n_t", "x_min", "x_max_n_x", "n_t"])
def test_cli_validate_rejects_a_partial_pde_grid(tmp_path, capsys, keys,
                                                 missing):
    p = tmp_path / "fk.cfg"
    p.write_text(FK + keys)
    assert main(["validate", str(p)]) == 2
    assert f"needs {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("bounds, message", [
    # validated, then ran with u0 read at the clamped edge x = 1: exit 1
    # with abs_err 0.48 on the unit box's fk_check at 2k paths
    ("pde.x_min = 1.0\npde.x_max = 3.0\n",
     "pde: the surface's x range [1, 3] does not hold x0 = 0"),
    ("pde.x_min = -3.0\npde.x_max = -0.5\n", "does not hold x0 = 0"),
    ("pde.x_min = 0.0\npde.x_max = 3.0\n", None),
    ("pde.x_min = -3.0\npde.x_max = 0.0\n", None),
], ids=["above", "below", "at_x_min", "at_x_max"])
def test_cli_validate_rejects_a_pde_grid_without_x0(tmp_path, capsys, bounds,
                                                    message):
    p = tmp_path / "fk.cfg"
    p.write_text(FK + bounds + "pde.n_t = 80\n")
    assert main(["validate", str(p)]) == (0 if message is None else 2)
    if message is not None:
        assert message in capsys.readouterr().err


def test_explicit_pde_grid_takes_the_default_n_x():
    from thetabsde.pde import PdeGrid
    cfg = parse_config(FK + "pde.x_min = -3.0\npde.x_max = 3.0\npde.n_t = 20\n")
    assert cfg.params["pde_grid"] == PdeGrid(-3.0, 3.0, 400, 20, 0.0, 1.0)


@pytest.mark.parametrize("mc", ["5", "null", '"seed"', "[1]"],
                         ids=["number", "null", "string", "list"])
def test_cli_validate_rejects_a_non_mapping_mc(tmp_path, capsys, mc):
    # a number, null or string died in validate with a TypeError traceback
    # and exit 1; a list read as "mc.seed required"
    text = GOOD.replace("mc.n_paths = 50\nmc.seed = 1\n", f"mc = {mc}\n")
    assert "mc.seed" not in text
    p = tmp_path / "mc.cfg"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    assert "mc must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, message", [
    (AXIOM + "axiom.name = A9\n", "unknown axiom"),
    (AXIOM + "axiom.name = A2_translation\nterminal.clamp = [0.0, 1.0]\n",
     "clamped"),
    (AXIOM + "axiom.name = A2_translation\n", None),
    (AXIOM.replace("driver.type = zero", "driver.type = affine\ndriver.beta = 0.5")
     + "axiom.name = A2_translation\n", "y-independent"),
    (AXIOM + "axiom.name = A3_tower\naxiom.s_index = 6\n", "s_index"),
    (AXIOM + "axiom.name = A3_tower\naxiom.s_index = 5\n", None),
    (AXIOM + "axiom.name = A3_tower\n", "s_index"),
    (AXIOM + "axiom.name = A1_monotonicity\n", "terminal2"),
    # these passed validate and then failed in run with exit 1
    (AXIOM + "axiom.name = A2_translation\naxiom.m = big\n", "m must be"),
    (AXIOM + "axiom.name = A2_translation\naxiom.tol = [1]\n", "tol must be"),
    (AXIOM + "axiom.name = normalization\naxiom.m = tiny\n", "m must be"),
    (AXIOM + "axiom.name = normalization\naxiom.tol = loose\n", "tol must be"),
    (AXIOM + "axiom.name = A2_translation\naxiom.m = 2\naxiom.tol = 1e-9\n",
     None),
    # these validated and ran without reading the parameter
    (AXIOM + "axiom.name = A3_tower\naxiom.s_index = 2\naxiom.m = 5\n",
     "axiom: A3_tower reads only ('s_index',), not 'm'"),
    (AXIOM + "axiom.name = A1_monotonicity\naxiom.terminal2_coeffs = [0.0]\n"
     "axiom.tol = 0.1\n", "axiom: A1_monotonicity reads only"),
], ids=["unknown", "a2_clamped", "a2_ok", "a2_y_dependent", "a3_past_grid",
        "a3_ok", "a3_missing", "a1_missing", "a2_word_m", "a2_list_tol",
        "norm_word_m", "norm_word_tol", "a2_numbers_ok", "a3_reads_no_m",
        "a1_reads_no_tol"])
def test_cli_validate_checks_axiom_preconditions(tmp_path, capsys, cfg, message):
    p = tmp_path / "axiom.cfg"
    p.write_text(cfg)
    assert main(["validate", str(p)]) == (0 if message is None else 2)
    if message is not None:
        assert message in capsys.readouterr().err


EOS = (GOOD.replace("kind = solve", "kind = eos_demo")
       .replace("set.type = box", UNION).replace("set.lower = [0.0]", "")
       .replace("set.upper = [1.0]", "")
       .replace("driver.type = zero", "driver.type = regularized_projection\n"
                "driver.eps = 0.5\ndriver.g.z = [[1.0]]"))


@pytest.mark.parametrize("line, message", [
    # all four passed validate; a word then failed in run with exit 1, and
    # the others ran to a hit fraction of 0 or 1 (threshold null if not finite)
    ("eos.gap_threshold = big", "gap_threshold"),
    ("eos.gap_threshold = NaN", "gap_threshold"),
    ("eos.gap_threshold = -0.5", "gap_threshold"),
    ("eos.gap_threshold = Infinity", "gap_threshold"),
    ("eos.gap_threshold = 0.25", None),
    ("", None),
], ids=["word", "nan", "negative", "inf", "number_ok", "default_ok"])
def test_cli_validate_checks_eos_gap_threshold(tmp_path, capsys, line, message):
    p = tmp_path / "eos.cfg"
    p.write_text(EOS + line + "\n")
    assert main(["validate", str(p)]) == (0 if message is None else 2)
    if message is not None:
        assert message in capsys.readouterr().err


def test_eos_demo_runs_end_to_end_and_reruns_bitwise(tmp_path):
    p = tmp_path / "eos.cfg"
    p.write_text(EOS.replace("mc.n_paths = 50", "mc.n_paths = 300")
                 .replace("grid.n_steps = 5", "grid.n_steps = 10")
                 + "name = eos\n")
    texts = []
    for out in ("a", "b"):
        assert main(["run", str(p), "--out", str(tmp_path / out),
                     "--quiet"]) == 0
        texts.append((tmp_path / out / "eos.summary.json").read_bytes())
    assert texts[0] == texts[1]
    occupancy = json.loads(texts[0])["member_occupancy"]
    assert len(occupancy) == 2
    assert sum(occupancy) == pytest.approx(1.0, abs=1e-12)
