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
from .engine import Payoff, Scenario, SdeSpec, TimeGrid
from .pde import PdeGrid, auto_grid, check_sde
from .sets import Ball, Box, PointCloud, UnionSet
from .theta import check_martingale

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
    """Validated config; equality is by parsed content."""

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
        if "seed" not in self.mc:
            raise ConfigError("mc.seed required")
        seed = self.mc["seed"]
        # the seed keys a Philox generator, which takes an unsigned 64-bit key
        integral = (isinstance(seed, int) and not isinstance(seed, bool)) or (
            isinstance(seed, float) and seed.is_integer())
        if not (integral and 0 <= seed < 2 ** 64):
            raise ConfigError(
                f"mc.seed must be an integer in [0, 2**64), got {seed!r}")
        kind_params(self, build_scenario(self))  # raise naming the field


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
            return PointCloud(np.asarray(_need(spec, "points", where), dtype=float))
        if typ == "union":
            members = _need(spec, "members", where)
            return UnionSet([build_set(m, f"{where}.members[{i}]")
                             for i, m in enumerate(members)])
    raise ConfigError(f"{where}.type unknown: {typ!r}")


def _build_statefn(spec, where, vector=False):
    if isinstance(spec, (int, float)):
        if vector:
            return StateFn(c0=np.atleast_1d(float(spec)))
        return StateFn(c0=float(spec))
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a number or mapping")
    c0 = spec.get("const")
    if c0 is None and vector:
        # infer the codomain dimension from the coefficient blocks
        dim = 1
        for key in ("t", "y"):  # vector coefficients: one entry per output
            v = spec.get(key)
            if v is not None:
                dim = np.atleast_1d(np.asarray(v, dtype=float)).size
                break
        else:
            for key in ("x", "z"):  # matrix coefficients: one row per output
                v = spec.get(key)
                if v is not None:
                    dim = len(np.atleast_2d(np.asarray(v, dtype=float)))
                    break
        c0 = np.zeros(dim)
    elif c0 is None:
        c0 = 0.0
    elif vector:
        c0 = np.atleast_1d(np.asarray(c0, dtype=float))
    with _field(where):
        return StateFn(c0=np.asarray(c0, dtype=float),
                       c_t=spec.get("t"), C_x=spec.get("x"),
                       c_y=spec.get("y"), C_z=spec.get("z"))


def build_driver(spec, where="driver"):
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a mapping")
    typ = _need(spec, "type", where)
    with _field(where):
        if typ == "zero":
            return ZeroDriver()
        if typ == "affine":
            return AffineDriver(spec.get("alpha", 0.0), spec.get("beta", 0.0),
                                spec.get("gamma", [0.0]))
        if typ in ("projection", "regularized_projection"):
            # the plain projection driver is the eps = 0 member
            eps = 0.0 if typ == "projection" else _need(spec, "eps", where)
            return RegularizedProjectionDriver(
                _build_statefn(spec.get("h", 0.0), f"{where}.h"),
                _build_statefn(_need(spec, "g", where), f"{where}.g", vector=True),
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
        dim_x = int(spec.get("dim_x", 1))
        dim_b = int(spec.get("dim_b", dim_x))
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
                        int(_need(spec, "n_steps", where)))


def build_scenario(cfg):
    d = cfg.data
    uset = build_set(_need(d, "set", "config"))
    driver = build_driver(_need(d, "driver", "config"))
    sde = build_sde(d.get("sde"))
    terminal = build_terminal(d.get("terminal"))
    grid = build_grid(_need(d, "grid", "config"))
    mc = d.get("mc", {})
    with _field("driver/set/sde dimensions"):
        driver.check(uset, sde.dim_b)
    y_clip = mc.get("y_clip")
    if y_clip is not None:
        try:
            lo, hi = (float(v) for v in y_clip)
        except (TypeError, ValueError):
            raise ConfigError("mc.y_clip must be a [lo, hi] pair") from None
        if not lo < hi:
            raise ConfigError("mc.y_clip must satisfy lo < hi")
        y_clip = (lo, hi)
    return Scenario(sde=sde, driver=driver, uset=uset, terminal=terminal,
                    grid=grid,
                    n_paths=int(mc.get("n_paths", 1000)),
                    seed=int(_need(mc, "seed", "mc")),
                    regression_degree=int(mc.get("regression_degree", 3)),
                    picard_iters=int(mc.get("picard_iters", 3)),
                    y_clip=y_clip)


def build_pde_grid(cfg, scenario):
    spec = cfg.data.get("pde", {})
    with _field("pde"):
        check_sde(scenario.sde)
        if {"x_min", "x_max", "n_x", "n_t"} <= set(spec):
            return PdeGrid(float(spec["x_min"]), float(spec["x_max"]),
                           int(spec["n_x"]), int(spec["n_t"]),
                           scenario.grid.t0, scenario.grid.T,
                           scenario.sde.sigma_max())
        return auto_grid(scenario.sde, scenario.grid,
                         n_x=int(spec.get("n_x", 400)))


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
            return {"epsilons": check_sweep(scenario, eps),
                    "a0": sw.get("a0", scenario.uset.fixed_element())}
        if kind == "eos_demo":
            check_eos(scenario)
            return {"gap_threshold": d.get("eos", {}).get("gap_threshold")}
        if kind == "axiom_check":
            ax = dict(d.get("axiom", {}))
            axiom = _need(ax, "name", "axiom")
            del ax["name"]
            if "terminal2_coeffs" in ax:
                ax["terminal2"] = Payoff(ax.pop("terminal2_coeffs"),
                                         clamp=ax.pop("terminal2_clamp", None))
            return {"axiom": axiom, "params": ax}
        if kind == "martingale_check":
            mg = d.get("martingale", {})
            p = {"process": mg.get("process", "theta_bm"),
                 "t_index": int(mg.get("t_index", 0)),
                 "s_index": int(mg.get("s_index", scenario.grid.n_steps)),
                 "c": float(mg.get("c", 1.0))}
            check_martingale(scenario.grid, p["process"], p["t_index"],
                             p["s_index"])
            return p
    return {}


# preconditions of the experiment kinds, shared with experiments.py
def check_sweep(scenario, epsilons):
    """Preconditions of ``epsilon_sweep``; returns the epsilons as floats."""
    if not is_convex(scenario.uset):
        raise ExperimentError("epsilon sweep requires a convex set (box/ball)")
    eps = [float(e) for e in epsilons]
    if len(eps) < 2 or not all(eps[i] > eps[i + 1] > 0 for i in range(len(eps) - 1)):
        raise ExperimentError("epsilons must be strictly decreasing and positive")
    if scenario.terminal.clamp is None:
        raise ExperimentError("sweep requires a bounded (clamped) terminal")
    return eps


def check_eos(scenario):
    """Preconditions of ``eos_demo``."""
    uset, driver = scenario.uset, scenario.driver
    if not isinstance(uset, UnionSet) or len(uset.members) < 2:
        raise ExperimentError("demo requires a union of at least two members")
    if not isinstance(driver, RegularizedProjectionDriver) or driver.eps == 0:
        raise ExperimentError("demo requires the regularized projection driver")
