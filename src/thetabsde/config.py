"""Declarative scenario configs.

Two input encodings parse to the same nested dict:

* line format — one ``dotted.key = value`` per line, values in JSON
  notation (bare words fall back to strings), ``#`` comments allowed;
* a single JSON object.

Validation builds every referenced object up front (cheap, no paths are
simulated) so dimension mismatches surface before any compute, naming the
first offending field. Every value is read through one ``_Section``, so a
key that nothing reads is a config error too.
"""

import json

import numpy as np

from .ambient import as_integer
from .drivers import (AffineDriver, GLimitDriver, GRegularizedDriver,
                      RegularizedProjectionDriver, StateFn, ZeroDriver)
from .engine import Payoff, Scenario, SdeSpec, TimeGrid, check_axiom
from .experiments import check_eos, check_sweep
from .pde import PdeGrid, auto_grid, check_grid
from .sets import Ball, Box, PointCloud, UnionSet
from .theta import check_martingale, check_theta_driver

KINDS = ("solve", "fk_check", "epsilon_sweep", "eos_demo", "theta_bm",
         "theta_qv", "axiom_check", "martingale_check")


class ConfigError(ValueError):
    pass


class _Section:
    """One mapping of the config at dotted path ``where`` ("" for the root),
    read through ``get`` and ``need``. Its block prefixes ``where`` to any
    library error, and its clean exit rejects the first key nothing read."""

    def __init__(self, spec, where, what="a mapping"):
        if not isinstance(spec, dict):
            raise ConfigError(f"{where or 'config root'} must be {what}")
        self.spec, self.where = spec, where
        self.unread = dict.fromkeys(spec)  # ordered, so the first is named

    def get(self, key, default=None):
        self.unread.pop(key, None)
        return self.spec.get(key, default)

    def need(self, key):
        if key not in self.spec:
            raise ConfigError(f"{self.where or 'config'}.{key} required")
        return self.get(key)

    def __enter__(self):
        return self

    def __exit__(self, error_type, error, traceback):
        if error_type is None:
            for key in self.unread:
                path = f"{self.where}.{key}" if self.where else key
                raise ConfigError(f"unknown key {path}")
        elif (issubclass(error_type, Exception)
              and not issubclass(error_type, ConfigError)):
            raise ConfigError(f"{self.where or 'config'}: {error}") from None


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
    """Validated config; equality is by parsed content. Reading the root
    section sets the ``kind``, ``name``, ``scenario`` and the kind's
    ``params`` (see ``kind_params``), which the config keeps for the run."""

    def __init__(self, data):
        self.data, self._root = data, _Section(data, "")
        with self._root as root:
            self.kind = root.get("kind")
            if self.kind not in KINDS:
                raise ConfigError(
                    f"kind must be one of {KINDS}, got {self.kind!r}")
            name = self.name = root.get("name", self.kind)
            # artifacts are written to <out>/<name>.*, so the name must be one
            # plain path component (an absolute path has a separator)
            if (not isinstance(name, str) or name in ("", ".", "..")
                    or "/" in name or "\\" in name):
                raise ConfigError("name must be a non-empty file name without "
                                  f"path separators, got {name!r}")
            self.scenario = build_scenario(self)
            self.params = kind_params(self, self.scenario)
            for other in SECTIONS.values():  # another kind's, left unread
                root.get(other)

    def __eq__(self, other):
        return isinstance(other, ScenarioConfig) and self.data == other.data


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

def build_set(spec, where="set"):
    with _Section(spec, where) as spec:
        typ = spec.need("type")
        if typ == "box":
            return Box(spec.need("lower"), spec.need("upper"))
        if typ == "ball":
            return Ball(spec.need("center"), spec.need("radius"))
        if typ == "cloud":
            return PointCloud(spec.need("points"))
        if typ == "union":
            return UnionSet([build_set(m, f"{where}.members[{i}]")
                             for i, m in enumerate(spec.need("members"))])
        raise ConfigError(f"{where}.type unknown: {typ!r}")


def _build_statefn(spec, where):
    if isinstance(spec, (int, float)):
        spec = {"const": spec}
    with _Section(spec, where, "a number or mapping") as spec:
        return StateFn(c0=spec.get("const"), c_t=spec.get("t"),
                       C_x=spec.get("x"), c_y=spec.get("y"), C_z=spec.get("z"))


def build_driver(spec, where="driver"):
    with _Section(spec, where) as spec:
        typ = spec.need("type")
        if typ == "zero":
            return ZeroDriver()
        if typ == "affine":
            return AffineDriver(spec.get("alpha", 0.0), spec.get("beta", 0.0),
                                spec.get("gamma"))
        if typ in ("projection", "regularized_projection"):
            # the plain projection driver is the eps = 0 member
            eps = 0.0 if typ == "projection" else spec.need("eps")
            return RegularizedProjectionDriver(
                _build_statefn(spec.get("h", 0.0), f"{where}.h"),
                _build_statefn(spec.need("g"), f"{where}.g"),
                eps)
        if typ == "g_regularized":
            return GRegularizedDriver(spec.need("eps"), spec.need("a0"))
        if typ == "g_limit":
            return GLimitDriver()
        raise ConfigError(f"{where}.type unknown: {typ!r}")


def build_sde(spec, where="sde"):
    with _Section(spec, where) as spec:
        # config computes with the dimensions before SdeSpec holds them
        dim_x = as_integer(ConfigError, spec.get("dim_x", 1), f"{where}.dim_x",
                           1)
        dim_b = as_integer(ConfigError, spec.get("dim_b", dim_x),
                           f"{where}.dim_b", 1)
        vol = spec.get("vol_const")
        if vol is None and "vol_lin" not in spec.spec:
            vol = np.eye(dim_x, dim_b)  # default: driving noise passes through
        return SdeSpec(dim_x=dim_x, dim_b=dim_b,
                       x0=spec.get("x0", np.zeros(dim_x)),
                       drift_const=spec.get("drift_const"),
                       drift_t=spec.get("drift_t"),
                       drift_lin=spec.get("drift_lin"),
                       vol_const=vol, vol_lin=spec.get("vol_lin"))


def build_scenario(cfg):
    root = cfg._root
    uset = build_set(root.need("set"))
    driver = build_driver(root.need("driver"))
    sde = build_sde(root.get("sde", {}))
    with _Section(root.get("terminal", {}), "terminal") as spec:
        terminal = Payoff(spec.get("coeffs", [0.0, 1.0]),
                          clamp=spec.get("clamp"))
    with _Section(root.need("grid"), "grid") as spec:
        grid = TimeGrid(spec.get("t0", 0.0), spec.need("T"),
                        spec.need("n_steps"))
    with _Section({}, "driver/set/sde dimensions"):
        driver.check(uset, sde.dim_x, sde.dim_b)
    with _Section(root.get("mc", {}), "mc") as mc:
        return Scenario(sde=sde, driver=driver, uset=uset, terminal=terminal,
                        grid=grid, n_paths=mc.get("n_paths", 1000),
                        seed=mc.need("seed"),
                        regression_degree=mc.get("regression_degree", 3),
                        picard_iters=mc.get("picard_iters", 3),
                        y_clip=mc.get("y_clip"))


def build_pde_grid(cfg, scenario):
    with _Section(cfg._root.get("pde", {}), "pde") as spec:
        n_x = spec.get("n_x", 400)
        # an explicit grid needs all three keys; none gives the automatic one
        missing = [f"pde.{k}" for k in ("x_min", "x_max", "n_t")
                   if k not in spec.spec]
        if len(missing) == 3:
            return auto_grid(scenario.sde, scenario.grid, n_x=n_x)
        if missing:
            raise ConfigError(f"an explicit PDE grid also needs "
                              f"{' and '.join(missing)}")
        return check_grid(PdeGrid(spec.get("x_min"), spec.get("x_max"), n_x,
                                  spec.get("n_t"), scenario.grid.t0,
                                  scenario.grid.T), scenario)


# the config section of each kind's parameters, which names its failures
SECTIONS = {"fk_check": "pde", "epsilon_sweep": "sweep", "eos_demo": "eos",
            "axiom_check": "axiom", "martingale_check": "martingale"}


def kind_params(cfg, scenario):
    """Arguments of the kind's library call after the scenario, from the
    kind's config section, parsed by the library's own checks."""
    kind = cfg.kind
    if kind == "fk_check":
        return {"pde_grid": build_pde_grid(cfg, scenario)}
    where = SECTIONS.get(kind, kind)
    with _Section(cfg._root.get(where, {}), where) as spec:
        if kind == "epsilon_sweep":
            eps = spec.get("epsilons", [0.5, 0.25, 0.125, 0.0625])
            a0 = spec.get("a0", scenario.uset.fixed_element())
            return {"epsilons": check_sweep(scenario, eps, a0), "a0": a0}
        if kind == "eos_demo":
            return {"gap_threshold": check_eos(scenario,
                                               spec.get("gap_threshold"))}
        if kind == "axiom_check":
            axiom = spec.need("name")
            # the axiom rejects any other key that it does not read
            params = {k: spec.get(k) for k in list(spec.unread)}
            if "terminal2_coeffs" in params:
                params["terminal2"] = Payoff(
                    params.pop("terminal2_coeffs"),
                    clamp=params.pop("terminal2_clamp", None))
            return {"axiom": axiom,
                    "params": check_axiom(scenario, axiom, params)}
        if kind == "martingale_check":
            process = spec.get("process", "theta_bm")
            t_index, s_index, c = check_martingale(
                scenario, process, spec.get("t_index", 0),
                spec.get("s_index", scenario.grid.n_steps), spec.get("c", 1.0))
            return {"process": process, "t_index": t_index,
                    "s_index": s_index, "c": c}
        if kind in ("theta_bm", "theta_qv"):
            check_theta_driver(scenario.driver, scenario.uset,
                               1 if kind == "theta_bm" else scenario.sde.dim_x)
    return {}
