import json

import pytest

from thetabsde.cli import main
from thetabsde.config import ConfigError, parse_config

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
    assert cfg.mc["seed"] == 1


def test_json_alternate_encoding():
    cfg1 = parse_config(GOOD)
    cfg2 = parse_config(json.dumps(cfg1.data))
    assert cfg1 == cfg2


def test_vector_valued_projection_map_from_config():
    cfg = parse_config(GOOD.replace(
        "driver.type = zero",
        "driver.type = regularized_projection\n"
        "driver.eps = 0.5\n"
        "driver.g.z = [[1.0]]"))
    from thetabsde.config import build_scenario
    sc = build_scenario(cfg)
    assert sc.driver.G.dim_out == 1 and not sc.driver.G.scalar


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
    with pytest.raises(ConfigError, match="mc.seed"):
        parse_config(GOOD.replace("mc.seed = 1", f"mc.seed = {seed}"))


def test_largest_seed_accepted():
    assert parse_config(GOOD.replace("mc.seed = 1",
                                     "mc.seed = 18446744073709551615"))


def test_hash_inside_quoted_value_is_kept():
    cfg = parse_config(GOOD + 'name = "run#1"   # a trailing comment\n'
                       + 'set.label = "say \\"#\\" twice" # comment\n')
    assert cfg.name == "run#1"
    assert cfg.data["set"]["label"] == 'say "#" twice'


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
    assert "mc.seed" in capsys.readouterr().err


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
], ids=["sweep_on_union", "fk_in_dim_2", "eos_on_box", "martingale_past_grid"])
def test_cli_validate_rejects_what_run_would_fail(tmp_path, capsys, kind_cfg,
                                                  message):
    p = tmp_path / "kind.cfg"
    p.write_text(kind_cfg)
    assert main(["validate", str(p)]) == 2
    assert message in capsys.readouterr().err


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
