"""Named, reproducible experiment runners and their artifact writers.

Outputs are deterministic: floats are serialized with 17 significant
digits, files carry no timestamps, and re-running with the same config and
seed is byte-identical.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .drivers import (GLimitDriver, GRegularizedDriver,
                      RegularizedProjectionDriver, is_convex)
from .engine import (Payoff, Scenario, axiom_check, simulate_forward,
                     solve_theta_bsde)
from .pde import feynman_kac_compare, solve_pde
from .sets import UnionSet
from .theta import integrate_theta_qv, simulate_theta_bm, verify_theta_martingale


class ExperimentError(ValueError):
    pass


# serialization -------------------------------------------------------------

def fmt(x):
    """Float formatting used in every artifact: 17 significant digits."""
    return format(float(x), ".17g")


def dump_json(obj, indent=0):
    """Deterministic JSON text; non-finite floats become null."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return fmt(x) if math.isfinite(x) else "null"
    if isinstance(obj, str):
        import json
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {dump_json(str(k))}: {dump_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [dump_json(v, indent + 1) for v in seq]
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(pad + "  " + s for s in items) + "\n" + pad + "]"
    raise ExperimentError(f"cannot serialize {type(obj).__name__}")


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


# epsilon sweep -------------------------------------------------------------

@dataclass
class EpsilonSweepResult:
    epsilons: list
    sup_y_err: list
    z_err_l2: list
    stderrs: list
    fitted_slope: float
    y0_ref: float


def epsilon_sweep(uset, epsilons, a0, sde, terminal, grid, n_paths, seed,
                  regression_degree=3, picard_iters=3):
    """Convergence of the quadratically regularized runs toward the
    support-function reference, on common paths."""
    if not is_convex(uset):
        raise ExperimentError("epsilon sweep requires a convex set (box/ball)")
    eps = [float(e) for e in epsilons]
    if len(eps) < 2 or not all(eps[i] > eps[i + 1] > 0 for i in range(len(eps) - 1)):
        raise ExperimentError("epsilons must be strictly decreasing and positive")
    if terminal.clamp is None:
        raise ExperimentError("sweep requires a bounded (clamped) terminal")

    ens = simulate_forward(sde, grid, n_paths, seed)
    # both driver variants vanish at z = 0, so the clamp bounds are
    # super/subsolutions and Y may be clipped to them
    base = dict(sde=sde, uset=uset, terminal=terminal, grid=grid,
                n_paths=n_paths, seed=seed,
                regression_degree=regression_degree, picard_iters=picard_iters,
                y_clip=terminal.clamp)
    ref = solve_theta_bsde(Scenario(driver=GLimitDriver(), **base), paths=ens)

    sup_errs, z_errs, ses = [], [], []
    dt = grid.dt
    for e in eps:
        sol = solve_theta_bsde(
            Scenario(driver=GRegularizedDriver(eps=e, a0=a0), **base), paths=ens)
        dY = sol.Y - ref.Y
        rms = np.sqrt(np.mean(dY ** 2, axis=0))
        j = int(np.argmax(rms))
        sup_errs.append(float(rms[j]))
        ses.append(float(np.std(np.abs(dY[:, j])) / np.sqrt(n_paths)))
        dZ = sol.Z - ref.Z
        z_errs.append(float(np.sqrt(np.sum(
            dt * np.mean(np.sum(dZ ** 2, axis=2), axis=0)))))
    safe = np.maximum(sup_errs, 1e-300)
    slope = float(np.polyfit(np.log(eps), np.log(safe), 1)[0])
    return EpsilonSweepResult(epsilons=eps, sup_y_err=sup_errs,
                              z_err_l2=z_errs, stderrs=ses,
                              fitted_slope=slope, y0_ref=ref.Y0)


# union-set maximizer demo --------------------------------------------------

@dataclass
class EosDemoResult:
    member_occupancy: list
    min_medial_gap: float
    medial_hit_fraction: float
    gap_threshold: float
    a_path_mean: np.ndarray   # (n_steps + 1, dim_a)
    a_path_std: np.ndarray


def eos_demo(uset, driver, sde, terminal, grid, n_paths, seed,
             regression_degree=3, picard_iters=3, gap_threshold=None):
    """Pathwise uniqueness empirics: how often the projection query point
    lands near the medial region between union members."""
    if not isinstance(uset, UnionSet) or len(uset.members) < 2:
        raise ExperimentError("demo requires a union of at least two members")
    if not isinstance(driver, RegularizedProjectionDriver) or driver.eps == 0:
        raise ExperimentError("demo requires the regularized projection driver")

    sc = Scenario(sde=sde, driver=driver, uset=uset, terminal=terminal,
                  grid=grid, n_paths=n_paths, seed=seed,
                  regression_degree=regression_degree,
                  picard_iters=picard_iters)
    ens = simulate_forward(sde, grid, n_paths, seed)
    sol = solve_theta_bsde(sc, paths=ens)

    n = grid.n_steps
    times = grid.times
    K = np.empty((n_paths, n + 1, uset.dim))
    idx = np.empty((n_paths, n + 1), dtype=np.int64)
    gaps = np.empty((n_paths, n + 1))
    for i in range(n + 1):
        K[:, i] = driver.query(times[i], ens.states[:, i], sol.Y[:, i], sol.Z[:, i])
        r = uset.project_batch(K[:, i])
        idx[:, i] = r.member_index
        gaps[:, i] = r.medial_gap

    counts = np.bincount(idx.ravel(), minlength=len(uset.members)).astype(float)
    occupancy = counts / counts.sum()
    finite = gaps[np.isfinite(gaps)]
    min_gap = float(finite.min()) if finite.size else np.inf

    if gap_threshold is None:
        steps = np.linalg.norm(np.diff(K, axis=1), axis=2)
        gap_threshold = 2.0 * float(steps.max())
    hit = float(np.mean(gaps < gap_threshold))
    return EosDemoResult(member_occupancy=[float(o) for o in occupancy],
                         min_medial_gap=min_gap,
                         medial_hit_fraction=hit,
                         gap_threshold=float(gap_threshold),
                         a_path_mean=sol.A.mean(axis=0),
                         a_path_std=sol.A.std(axis=0))


# dispatch ------------------------------------------------------------------

def _paths_csv(sol, ens):
    dim_b = sol.Z.shape[2]
    dim_a = 0 if sol.A is None else sol.A.shape[2]
    header = ["t", "path_id", "Y"] + [f"Z{k}" for k in range(dim_b)] \
        + [f"A{k}" for k in range(dim_a)]
    lines = [",".join(header)]
    times = sol.grid.times
    for i in range(sol.grid.n_steps + 1):
        for p in range(ens.n_paths):
            row = [fmt(times[i]), str(p), fmt(sol.Y[p, i])]
            row += [fmt(v) for v in sol.Z[p, i]]
            if sol.A is not None:
                row += [fmt(v) for v in sol.A[p, i]]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _surface_csv(surface):
    lines = ["t,x,u"]
    ts, xs = surface.grid.ts, surface.grid.xs
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            lines.append(f"{fmt(t)},{fmt(x)},{fmt(surface.u[i, j])}")
    return "\n".join(lines) + "\n"


def run_scenario(cfg, out_dir, paths_dump=False):
    """Dispatch a validated config, write artifacts, return (summary, ok)."""
    from . import config as _config  # deferred: config builds on this module's siblings

    os.makedirs(out_dir, exist_ok=True)
    name = cfg.name
    kind = cfg.kind
    summary = {"kind": kind, "name": name, "seed": cfg.mc["seed"],
               "versions": {"package": __version__, "numpy": np.__version__}}
    ok = True
    extra_files = {}

    if kind == "solve":
        sc = _config.build_scenario(cfg)
        ens = simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
        sol = solve_theta_bsde(sc, paths=ens)
        summary.update(y0=sol.Y0, stderr=sol.stderr,
                       diagnostics=sol.diagnostics)
        if paths_dump:
            extra_files[f"{name}.paths.csv"] = _paths_csv(sol, ens)

    elif kind == "fk_check":
        sc = _config.build_scenario(cfg)
        pgrid = _config.build_pde_grid(cfg, sc)
        surface = solve_pde(sc.driver, sc.uset, sc.sde, sc.terminal, pgrid)
        rep = feynman_kac_compare(sc, surface=surface)
        summary.update(rep)
        summary["y0"] = rep["y0_mc"]
        extra_files[f"{name}.surface.csv"] = _surface_csv(surface)
        ok = rep["abs_err"] <= max(0.02, 3.0 * rep["stderr"])

    elif kind == "epsilon_sweep":
        sc = _config.build_scenario(cfg)
        sw = cfg.data.get("sweep", {})
        res = epsilon_sweep(sc.uset, sw.get("epsilons", [0.5, 0.25, 0.125, 0.0625]),
                            sw.get("a0", sc.uset.fixed_element()),
                            sc.sde, sc.terminal, sc.grid, sc.n_paths, sc.seed,
                            sc.regression_degree, sc.picard_iters)
        summary.update(epsilons=res.epsilons, sup_y_err=res.sup_y_err,
                       z_err_l2=res.z_err_l2, stderrs=res.stderrs,
                       fitted_slope=res.fitted_slope, y0=res.y0_ref)
        lines = ["epsilon,sup_y_err,z_err_l2"]
        for e, y, z in zip(res.epsilons, res.sup_y_err, res.z_err_l2):
            lines.append(f"{fmt(e)},{fmt(y)},{fmt(z)}")
        extra_files[f"{name}.sweep.csv"] = "\n".join(lines) + "\n"

    elif kind == "eos_demo":
        sc = _config.build_scenario(cfg)
        eos = cfg.data.get("eos", {})
        res = eos_demo(sc.uset, sc.driver, sc.sde, sc.terminal, sc.grid,
                       sc.n_paths, sc.seed, sc.regression_degree,
                       sc.picard_iters, eos.get("gap_threshold"))
        summary.update(member_occupancy=res.member_occupancy,
                       min_medial_gap=res.min_medial_gap,
                       medial_hit_fraction=res.medial_hit_fraction,
                       gap_threshold=res.gap_threshold,
                       a_path_mean=res.a_path_mean,
                       a_path_std=res.a_path_std)
        ok = abs(sum(res.member_occupancy) - 1.0) <= 1e-12

    elif kind == "theta_bm":
        sc = _config.build_scenario(cfg)
        ens = simulate_theta_bm(sc.driver, sc.uset, sc.grid, sc.n_paths, sc.seed)
        realized_qv = np.sum(np.diff(ens.b_theta, axis=1) ** 2, axis=1)
        summary.update(final_mean=float(np.mean(ens.b_theta[:, -1])),
                       final_var=float(np.var(ens.b_theta[:, -1])),
                       realized_qv_mean=float(np.mean(realized_qv)))

    elif kind == "theta_qv":
        sc = _config.build_scenario(cfg)
        ens = simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
        qv = integrate_theta_qv(sc.driver, sc.uset, sc.grid, ens.states)
        summary.update(qv_final_mean=float(np.mean(qv.qv[:, -1])),
                       monotone=bool(np.all(qv.monotone)))

    elif kind == "axiom_check":
        sc = _config.build_scenario(cfg)
        ax = dict(cfg.data.get("axiom", {}))
        axiom = ax.pop("name")
        if "terminal2_coeffs" in ax:
            ax["terminal2"] = Payoff(ax.pop("terminal2_coeffs"),
                                     clamp=ax.pop("terminal2_clamp", None))
        rep = axiom_check(sc, axiom, ax)
        summary.update(rep)
        ok = bool(rep["passed"])

    elif kind == "martingale_check":
        sc = _config.build_scenario(cfg)
        mg = cfg.data.get("martingale", {})
        rep = verify_theta_martingale(sc, mg.get("process", "theta_bm"),
                                      int(mg.get("t_index", 0)),
                                      int(mg.get("s_index", sc.grid.n_steps)),
                                      c=float(mg.get("c", 1.0)))
        summary.update(rep)

    else:
        raise ExperimentError(f"unknown kind {kind!r}")

    summary["config"] = cfg.data
    write_text(os.path.join(out_dir, f"{name}.summary.json"),
               dump_json(summary) + "\n")
    for fname, text in extra_files.items():
        write_text(os.path.join(out_dir, fname), text)
    return summary, ok
