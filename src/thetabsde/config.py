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

from .drivers import (AffineDriver, GLimitDriver, GRegularizedDriver,
                      RegularizedProjectionDriver, StateFn, ZeroDriver,
                      is_convex)
from .engine import (EngineError, Payoff, Scenario, SdeSpec, TimeGrid,
                     as_integer, check_axiom)
from .pde import PdeGrid, auto_grid, check_sde
from .sets import Ball, Box, PointCloud, UnionSet
from .theta import check_martingale, check_theta_driver

KINDS = ("solve", "fk_check", "epsilon_sweep", "eos_demo", "theta_bm",
         "theta_qv", "axiom_check", "martingale_check")


class ConfigError(ValueError):
    pass


class ExperimentError(ValueError):
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
        if "seed" not in self.mc:
            raise ConfigError("mc.seed required")
        seed = self.mc["seed"]
        # the seed keys a Philox generator, which takes an unsigned 64-bit key
        if not 0 <= _integer(seed, "mc.seed") < 2 ** 64:
            raise ConfigError(
                f"mc.seed must be an integer in [0, 2**64), got {seed!r}")
        # raise naming the field
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


def _integer(value, where):
    """``value`` as an int by the library's rule (``engine.as_integer``)."""
    try:
        return as_integer(value, where)
    except EngineError as e:
        raise ConfigError(str(e)) from None


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
            return PointCloud(np.asarray(_need(spec, "points", where), dtype=float))
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
        dim_x = _integer(spec.get("dim_x", 1), f"{where}.dim_x")
        dim_b = _integer(spec.get("dim_b", dim_x), f"{where}.dim_b")
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
        return TimeGrid(float(spec.get("t0", 0.0)), float(_need(spec, "T", where)),
                        _integer(_need(spec, "n_steps", where), f"{where}.n_steps"))


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
                        grid=grid,
                        n_paths=_integer(mc.get("n_paths", 1000), "mc.n_paths"),
                        seed=_integer(_need(mc, "seed", "mc"), "mc.seed"),
                        regression_degree=_integer(
                            mc.get("regression_degree", 3), "mc.regression_degree"),
                        picard_iters=_integer(mc.get("picard_iters", 3),
                                              "mc.picard_iters"),
                        y_clip=mc.get("y_clip"))


def build_pde_grid(cfg, scenario):
    spec = cfg.data.get("pde", {})
    with _field("pde"):
        check_sde(scenario.sde)
        n_x = _integer(spec.get("n_x", 400), "pde.n_x")
        # an explicit grid needs all three keys; none gives the automatic one
        missing = [f"pde.{k}" for k in ("x_min", "x_max", "n_t")
                   if k not in spec]
        if len(missing) == 3:
            return auto_grid(scenario.sde, scenario.grid, n_x=n_x)
        if missing:
            raise ConfigError(f"an explicit PDE grid also needs "
                              f"{' and '.join(missing)}")
        return PdeGrid(float(spec["x_min"]), float(spec["x_max"]), n_x,
                       _integer(spec["n_t"], "pde.n_t"),
                       scenario.grid.t0, scenario.grid.T)


def kind_params(cfg, scenario):
    """Arguments of the kind's library call after the scenario, from the
    kind's config section, passed through the library's own checks."""
    kind, d = cfg.kind, cfg.data
    with _field(kind):
        if kind == "fk_check":
            return {"pde_grid": build_pde_grid(cfg, scenario)}
        if kind == "epsilon_sweep":
            sw = d.get("sweep", {})
            eps = sw.get("epsilons", [0.5, 0.25, 0.125, 0.0625])
            a0 = sw.get("a0", scenario.uset.fixed_element())
            return {"epsilons": check_sweep(scenario, eps, a0), "a0": a0}
        if kind == "eos_demo":
            threshold = d.get("eos", {}).get("gap_threshold")
            return {"gap_threshold": check_eos(scenario, threshold)}
        if kind == "axiom_check":
            ax = dict(d.get("axiom", {}))
            axiom = _need(ax, "name", "axiom")
            del ax["name"]
            if "s_index" in ax:
                ax["s_index"] = _integer(ax["s_index"], "axiom.s_index")
            if "terminal2_coeffs" in ax:
                ax["terminal2"] = Payoff(ax.pop("terminal2_coeffs"),
                                         clamp=ax.pop("terminal2_clamp", None))
            check_axiom(scenario, axiom, ax)
            return {"axiom": axiom, "params": ax}
        if kind == "martingale_check":
            mg = d.get("martingale", {})
            p = {"process": mg.get("process", "theta_bm"),
                 "t_index": _integer(mg.get("t_index", 0), "martingale.t_index"),
                 "s_index": _integer(mg.get("s_index", scenario.grid.n_steps),
                                     "martingale.s_index"),
                 "c": float(mg.get("c", 1.0))}
            check_martingale(scenario.grid, p["process"], p["t_index"],
                             p["s_index"], p["c"])
            check_theta_driver(scenario.driver, scenario.uset, 1)
            return p
        if kind == "theta_bm":
            check_theta_driver(scenario.driver, scenario.uset, 1)
        if kind == "theta_qv":
            check_theta_driver(scenario.driver, scenario.uset,
                               scenario.sde.dim_x)
    return {}


# preconditions of the experiment kinds, shared with experiments.py
def check_sweep(scenario, epsilons, a0):
    """Preconditions of ``epsilon_sweep``; returns the epsilons as floats."""
    if not is_convex(scenario.uset):
        raise ExperimentError("epsilon sweep requires a convex set (box/ball)")
    eps = [float(e) for e in epsilons]
    if len(eps) < 2 or not all(eps[i] > eps[i + 1] > 0 for i in range(len(eps) - 1)):
        raise ExperimentError("epsilons must be strictly decreasing and positive")
    if scenario.terminal.clamp is None:
        raise ExperimentError("sweep requires a bounded (clamped) terminal")
    # the check of every driver the sweep builds
    GRegularizedDriver(eps[0], a0).check(scenario.uset, scenario.sde.dim_x,
                                         scenario.sde.dim_b)
    return eps


def check_eos(scenario, gap_threshold=None):
    """Preconditions of ``eos_demo``; returns the gap threshold as a float,
    or None for the default."""
    uset, driver = scenario.uset, scenario.driver
    if not isinstance(uset, UnionSet) or len(uset.members) < 2:
        raise ExperimentError("demo requires a union of at least two members")
    if not isinstance(driver, RegularizedProjectionDriver) or driver.eps == 0:
        raise ExperimentError("demo requires the regularized projection driver")
    if gap_threshold is None:
        return None
    try:
        threshold = float(gap_threshold)
    except (TypeError, ValueError):
        threshold = np.nan
    if not 0.0 <= threshold < np.inf:
        raise ExperimentError("gap_threshold must be a finite number >= 0, "
                              f"got {gap_threshold!r}")
    return threshold
