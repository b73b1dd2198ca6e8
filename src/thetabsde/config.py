"""Declarative scenario configs.

Two input encodings parse to the same nested dict:

* line format — one ``dotted.key = value`` per line, values in JSON
  notation (bare words fall back to strings), ``#`` comments allowed;
* a single JSON object.

Validation builds every referenced object up front (cheap, no paths are
simulated) so dimension mismatches surface before any compute, naming the
first offending field.
"""

import json
from contextlib import contextmanager

import numpy as np

from .ambient import as_integer
from .drivers import (AffineDriver, GLimitDriver, GRegularizedDriver,
                      RegularizedProjectionDriver, StateFn, ZeroDriver)
from .engine import Payoff, Scenario, SdeSpec, TimeGrid, check_axiom
from .experiments import check_eos, check_sweep
from .pde import PdeGrid, auto_grid, check_sde
from .sets import Ball, Box, PointCloud, UnionSet
from .theta import check_martingale, check_theta_driver

KINDS = ("solve", "fk_check", "epsilon_sweep", "eos_demo", "theta_bm",
         "theta_qv", "axiom_check", "martingale_check")


class ConfigError(ValueError):
    pass


@contextmanager
def _field(where):
    """Re-raise any failure inside the block as a ConfigError naming ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except Exception as e:
        raise ConfigError(f"{where}: {e}") from None


def _strip_comment(line):
    """``line`` up to the first ``#`` outside a double-quoted JSON string."""
    in_string = escaped = False
    for i, ch in enumerate(line):
        if escaped:
            escaped = False
        elif ch == "\\" and in_string:
            escaped = True
        elif ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i]
    return line


def _parse_lines(text):
    root = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        try:
            value = json.loads(val.strip())
        except json.JSONDecodeError:
            value = val.strip()
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {ln}: {key} conflicts with a scalar key")
        node[parts[-1]] = value
    return root


class ScenarioConfig:
    """Validated config; equality is by parsed content. Validation builds
    the ``scenario`` and the kind's ``params`` (see ``kind_params``), and
    the config keeps both for the run."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        self.data = data
        self._validate()

    def __eq__(self, other):
        return isinstance(other, ScenarioConfig) and self.data == other.data

    @property
    def kind(self):
        return self.data.get("kind")

    @property
    def name(self):
        return self.data.get("name", self.kind)

    @property
    def mc(self):
        return self.data.get("mc", {})

    def _validate(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.mc, dict):
            raise ConfigError(f"mc must be a mapping, got {self.mc!r}")
        name = self.name
        # artifacts are written to <out>/<name>.*, so the name must be one
        # plain path component (an absolute path has a separator)
        if (not isinstance(name, str) or name in ("", ".", "..")
                or "/" in name or "\\" in name):
            raise ConfigError("name must be a non-empty file name without "
                              f"path separators, got {name!r}")
        self.scenario = build_scenario(self)
        self.params = kind_params(self, self.scenario)


def parse_config(text):
    text = text.lstrip("﻿").strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"JSON config: {e}") from None
    else:
        data = _parse_lines(text)
    return ScenarioConfig(data)


# builders ------------------------------------------------------------------

def _need(section, key, where):
    if key not in section:
        raise ConfigError(f"{where}.{key} required")
    return section[key]


def build_set(spec, where="set"):
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a mapping")
    typ = _need(spec, "type", where)
    with _field(where):
        if typ == "box":
            return Box(_need(spec, "lower", where), _need(spec, "upper", where))
        if typ == "ball":
            return Ball(_need(spec, "center", where), _need(spec, "radius", where))
        if typ == "cloud":
            return PointCloud(_need(spec, "points", where))
        if typ == "union":
            members = _need(spec, "members", where)
            return UnionSet([build_set(m, f"{where}.members[{i}]")
                             for i, m in enumerate(members)])
    raise ConfigError(f"{where}.type unknown: {typ!r}")


def _build_statefn(spec, where):
    if isinstance(spec, (int, float)):
        spec = {"const": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a number or mapping")
    with _field(where):
        return StateFn(c0=spec.get("const"), c_t=spec.get("t"),
                       C_x=spec.get("x"), c_y=spec.get("y"), C_z=spec.get("z"))


def build_driver(spec, where="driver"):
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a mapping")
    typ = _need(spec, "type", where)
    with _field(where):
        if typ == "zero":
            return ZeroDriver()
        if typ == "affine":
            return AffineDriver(spec.get("alpha", 0.0), spec.get("beta", 0.0),
                                spec.get("gamma"))
        if typ in ("projection", "regularized_projection"):
            # the plain projection driver is the eps = 0 member
            eps = 0.0 if typ == "projection" else _need(spec, "eps", where)
            return RegularizedProjectionDriver(
                _build_statefn(spec.get("h", 0.0), f"{where}.h"),
                _build_statefn(_need(spec, "g", where), f"{where}.g"),
                eps)
        if typ == "g_regularized":
            return GRegularizedDriver(_need(spec, "eps", where),
                                      _need(spec, "a0", where))
        if typ == "g_limit":
            return GLimitDriver()
    raise ConfigError(f"{where}.type unknown: {typ!r}")


def build_sde(spec, where="sde"):
    spec = spec or {}
    with _field(where):
        # config computes with the dimensions before SdeSpec holds them
        dim_x = as_integer(ConfigError, spec.get("dim_x", 1), f"{where}.dim_x")
        dim_b = as_integer(ConfigError, spec.get("dim_b", dim_x),
                           f"{where}.dim_b")
        vol = spec.get("vol_const")
        if vol is None and "vol_lin" not in spec:
            vol = np.eye(dim_x, dim_b)  # default: driving noise passes through
        return SdeSpec(dim_x=dim_x, dim_b=dim_b,
                       x0=spec.get("x0", np.zeros(dim_x)),
                       drift_const=spec.get("drift_const"),
                       drift_t=spec.get("drift_t"),
                       drift_lin=spec.get("drift_lin"),
                       vol_const=vol, vol_lin=spec.get("vol_lin"))


def build_terminal(spec, where="terminal"):
    spec = spec or {}
    with _field(where):
        return Payoff(spec.get("coeffs", [0.0, 1.0]), clamp=spec.get("clamp"))


def build_grid(spec, where="grid"):
    spec = spec or {}
    with _field(where):
        return TimeGrid(spec.get("t0", 0.0), _need(spec, "T", where),
                        _need(spec, "n_steps", where))


def build_scenario(cfg):
    d = cfg.data
    uset = build_set(_need(d, "set", "config"))
    driver = build_driver(_need(d, "driver", "config"))
    sde = build_sde(d.get("sde"))
    terminal = build_terminal(d.get("terminal"))
    grid = build_grid(_need(d, "grid", "config"))
    mc = d.get("mc", {})
    with _field("driver/set/sde dimensions"):
        driver.check(uset, sde.dim_x, sde.dim_b)
    with _field("mc"):
        return Scenario(sde=sde, driver=driver, uset=uset, terminal=terminal,
                        grid=grid, n_paths=mc.get("n_paths", 1000),
                        seed=_need(mc, "seed", "mc"),
                        regression_degree=mc.get("regression_degree", 3),
                        picard_iters=mc.get("picard_iters", 3),
                        y_clip=mc.get("y_clip"))


def build_pde_grid(cfg, scenario):
    spec = cfg.data.get("pde", {})
    with _field("pde"):
        check_sde(scenario.sde)
        n_x = spec.get("n_x", 400)
        # an explicit grid needs all three keys; none gives the automatic one
        missing = [f"pde.{k}" for k in ("x_min", "x_max", "n_t")
                   if k not in spec]
        if len(missing) == 3:
            return auto_grid(scenario.sde, scenario.grid, n_x=n_x)
        if missing:
            raise ConfigError(f"an explicit PDE grid also needs "
                              f"{' and '.join(missing)}")
        return PdeGrid(spec["x_min"], spec["x_max"], n_x, spec["n_t"],
                       scenario.grid.t0, scenario.grid.T)


# the config section of each kind's parameters, which names its failures
SECTIONS = {"epsilon_sweep": "sweep", "eos_demo": "eos",
            "axiom_check": "axiom", "martingale_check": "martingale"}


def kind_params(cfg, scenario):
    """Arguments of the kind's library call after the scenario, from the
    kind's config section, parsed by the library's own checks."""
    kind = cfg.kind
    if kind == "fk_check":
        return {"pde_grid": build_pde_grid(cfg, scenario)}
    where = SECTIONS.get(kind, kind)
    with _field(where):
        spec = dict(cfg.data.get(where, {}))
        if kind == "epsilon_sweep":
            eps = spec.get("epsilons", [0.5, 0.25, 0.125, 0.0625])
            a0 = spec.get("a0", scenario.uset.fixed_element())
            return {"epsilons": check_sweep(scenario, eps, a0), "a0": a0}
        if kind == "eos_demo":
            return {"gap_threshold": check_eos(scenario,
                                               spec.get("gap_threshold"))}
        if kind == "axiom_check":
            axiom = _need(spec, "name", "axiom")
            del spec["name"]
            if "terminal2_coeffs" in spec:
                spec["terminal2"] = Payoff(
                    spec.pop("terminal2_coeffs"),
                    clamp=spec.pop("terminal2_clamp", None))
            return {"axiom": axiom,
                    "params": check_axiom(scenario, axiom, spec)}
        if kind == "martingale_check":
            process = spec.get("process", "theta_bm")
            t_index, s_index, c = check_martingale(
                scenario, process, spec.get("t_index", 0),
                spec.get("s_index", scenario.grid.n_steps), spec.get("c", 1.0))
            return {"process": process, "t_index": t_index,
                    "s_index": s_index, "c": c}
        if kind == "theta_bm":
            check_theta_driver(scenario.driver, scenario.uset, 1)
        if kind == "theta_qv":
            check_theta_driver(scenario.driver, scenario.uset,
                               scenario.sde.dim_x)
    return {}
