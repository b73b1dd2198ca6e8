"""Named, reproducible experiment runners and their artifact writers.

Outputs are deterministic: floats are serialized with 17 significant
digits, files carry no timestamps, and re-running with the same config and
seed is byte-identical.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import (ExperimentError, build_scenario, check_eos, check_sweep,
                     kind_params)
from .drivers import GLimitDriver, GRegularizedDriver
from .engine import axiom_check, simulate_forward, solve_theta_bsde
from .pde import feynman_kac_compare, solve_pde
from .theta import integrate_theta_qv, simulate_theta_bm, verify_theta_martingale


# serialization -------------------------------------------------------------

# float format of every artifact: 17 significant digits, enough to round-trip
FLOAT_FORMAT = "%.17g"


def fmt(x):
    return FLOAT_FORMAT % float(x)


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


def write_csv(path, header, blocks):
    """Stream a CSV: the header, then the rows of each 2-d block as it
    comes, every value (integers included) in ``FLOAT_FORMAT``."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for block in blocks:
            row = ",".join([FLOAT_FORMAT] * block.shape[1]) + "\n"
            for i in range(0, len(block), 1024):  # bounds the text held
                rows = block[i:i + 1024]
                f.write(row * len(rows) % tuple(rows.ravel().tolist()))


# epsilon sweep -------------------------------------------------------------

@dataclass
class EpsilonSweepResult:
    epsilons: list
    sup_y_err: list
    z_err_l2: list
    stderrs: list
    fitted_slope: float
    y0: float  # of the g_limit reference


def epsilon_sweep(scenario, epsilons, a0):
    """Convergence of the regularized runs toward the support-function
    reference on common paths; ``scenario.driver`` is not used."""
    eps = check_sweep(scenario, epsilons)
    # both driver variants vanish at z = 0, so the clamp bounds are
    # super/subsolutions and Y may be clipped to them
    base = replace(scenario, y_clip=scenario.terminal.clamp)
    ens = simulate_forward(base.sde, base.grid, base.n_paths, base.seed)
    ref = solve_theta_bsde(replace(base, driver=GLimitDriver()), paths=ens)

    sup_errs, z_errs, ses = [], [], []
    dt = base.grid.dt
    for e in eps:
        sol = solve_theta_bsde(
            replace(base, driver=GRegularizedDriver(eps=e, a0=a0)), paths=ens)
        dY = sol.Y - ref.Y
        rms = np.sqrt(np.mean(dY ** 2, axis=0))
        j = int(np.argmax(rms))
        sup_errs.append(float(rms[j]))
        ses.append(float(np.std(np.abs(dY[:, j])) / np.sqrt(base.n_paths)))
        dZ = sol.Z - ref.Z
        z_errs.append(float(np.sqrt(np.sum(
            dt * np.mean(np.sum(dZ ** 2, axis=2), axis=0)))))
    safe = np.maximum(sup_errs, 1e-300)
    slope = float(np.polyfit(np.log(eps), np.log(safe), 1)[0])
    return EpsilonSweepResult(epsilons=eps, sup_y_err=sup_errs,
                              z_err_l2=z_errs, stderrs=ses,
                              fitted_slope=slope, y0=ref.Y0)


# union-set maximizer demo --------------------------------------------------

@dataclass
class EosDemoResult:
    member_occupancy: list
    min_medial_gap: float
    medial_hit_fraction: float
    gap_threshold: float
    a_path_mean: np.ndarray   # (n_steps + 1, dim_a)
    a_path_std: np.ndarray


def eos_demo(scenario, gap_threshold=None):
    """Pathwise uniqueness empirics: how often the projection query point
    lands near the medial region between union members."""
    check_eos(scenario)
    sc, uset = scenario, scenario.uset
    ens = simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    sol = solve_theta_bsde(sc, paths=ens)

    shape = sol.Y.shape  # (n_paths, n_steps + 1)
    K = np.empty(shape + (uset.dim,))
    idx = np.empty(shape, dtype=np.int64)
    gaps = np.empty(shape)
    for i, t in enumerate(sc.grid.times):
        K[:, i] = sc.driver.query(t, ens.states[:, i], sol.Y[:, i], sol.Z[:, i])
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

def _write_paths(path, sol):
    """One block per time node: t, path id, Y, Z and (if recorded) A."""
    parts = [sol.Z] if sol.A is None else [sol.Z, sol.A]
    header = ["t", "path_id", "Y"] + [f"{p}{k}" for p, a in zip("ZA", parts)
                                      for k in range(a.shape[2])]
    ids = np.arange(len(sol.Y), dtype=float)
    write_csv(path, header, (
        np.column_stack([np.full(len(ids), t), ids, sol.Y[:, i]]
                        + [a[:, i] for a in parts])
        for i, t in enumerate(sol.grid.times)))


def run_scenario(cfg, out_dir, paths_dump=False):
    """Dispatch a validated config, write artifacts, return (summary, ok)."""
    os.makedirs(out_dir, exist_ok=True)
    kind = cfg.kind
    out = os.path.join(out_dir, cfg.name)  # artifact path without suffix
    summary = {"kind": kind, "name": cfg.name, "seed": cfg.mc["seed"],
               "versions": {"package": __version__, "numpy": np.__version__}}
    ok = True
    sc = build_scenario(cfg)
    params = kind_params(cfg, sc)

    if kind == "solve":
        sol = solve_theta_bsde(sc)
        summary.update(y0=sol.Y0, stderr=sol.stderr,
                       diagnostics=sol.diagnostics)
        if paths_dump:
            _write_paths(f"{out}.paths.csv", sol)

    elif kind == "fk_check":
        surface = solve_pde(sc.driver, sc.uset, sc.sde, sc.terminal,
                            params["pde_grid"])
        rep = feynman_kac_compare(sc, surface=surface)
        summary.update(rep)
        summary["y0"] = rep["y0_mc"]
        ts, xs = surface.grid.ts, surface.grid.xs
        write_csv(f"{out}.surface.csv", ["t", "x", "u"],
                  (np.column_stack([np.full(len(xs), t), xs, u])
                   for t, u in zip(ts, surface.u)))
        ok = rep["abs_err"] <= max(0.02, 3.0 * rep["stderr"])

    elif kind == "epsilon_sweep":
        res = epsilon_sweep(sc, **params)
        summary.update(vars(res))
        write_csv(f"{out}.sweep.csv", ["epsilon", "sup_y_err", "z_err_l2"],
                  [np.column_stack([res.epsilons, res.sup_y_err, res.z_err_l2])])

    elif kind == "eos_demo":
        res = eos_demo(sc, **params)
        summary.update(vars(res))
        ok = abs(sum(res.member_occupancy) - 1.0) <= 1e-12

    elif kind == "theta_bm":
        ens = simulate_theta_bm(sc.driver, sc.uset, sc.grid, sc.n_paths, sc.seed)
        realized_qv = np.sum(np.diff(ens.b_theta, axis=1) ** 2, axis=1)
        summary.update(final_mean=float(np.mean(ens.b_theta[:, -1])),
                       final_var=float(np.var(ens.b_theta[:, -1])),
                       realized_qv_mean=float(np.mean(realized_qv)))

    elif kind == "theta_qv":
        ens = simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
        qv = integrate_theta_qv(sc.driver, sc.uset, sc.grid, ens.states)
        summary.update(qv_final_mean=float(np.mean(qv.qv[:, -1])),
                       monotone=bool(np.all(qv.monotone)))

    elif kind == "axiom_check":
        rep = axiom_check(sc, **params)
        summary.update(rep)
        ok = bool(rep["passed"])

    elif kind == "martingale_check":
        summary.update(verify_theta_martingale(sc, **params))

    else:
        raise ExperimentError(f"unknown kind {kind!r}")

    summary["config"] = cfg.data
    with open(f"{out}.summary.json", "w", encoding="utf-8", newline="\n") as f:
        f.write(dump_json(summary) + "\n")
    return summary, ok
