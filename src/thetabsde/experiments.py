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
from .ambient import as_number, row_sq
from .drivers import (GLimitDriver, GRegularizedDriver,
                      RegularizedProjectionDriver, is_convex)
from .engine import (KEEPABLE, axiom_check, backward_sweep,
                     simulate_forward, solve_theta_bsde)
from .pde import feynman_kac_compare, solve_pde
from .sets import UnionSet
from .theta import integrate_theta_qv, simulate_theta_bm, verify_theta_martingale


class ExperimentError(ValueError):
    pass


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


def write_csv(path, header, keys, blocks):
    """Stream a CSV: the header, then for each block ``(lead, values)`` as
    it comes, one row ``lead..., keys[j], values[j]...`` per key, every
    value (integers included) in ``FLOAT_FORMAT``. Keys are formatted once
    per file, a block's lead once per block."""
    keys = [fmt(k) for k in keys]
    rows = None  # one row template per key, built for the first block
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for lead, values in blocks:
            k = values.shape[1]
            if len(values) != len(keys) or len(lead) + 1 + k != len(header):
                raise ExperimentError(
                    f"block of {len(lead)} lead and {values.shape} values "
                    f"does not fit {len(keys)} keys and header {header}")
            if rows is None:
                # a formatted number holds no '%', so a key-filled
                # template still has exactly k format slots
                rows = [key + ("," + FLOAT_FORMAT) * k + "\n" for key in keys]
            prefix = "".join(fmt(v) + "," for v in lead)
            for i in range(0, len(keys), 1024):  # bounds the text held
                f.write((prefix + prefix.join(rows[i:i + 1024]))
                        % tuple(values[i:i + 1024].ravel().tolist()))


# epsilon sweep -------------------------------------------------------------

@dataclass
class EpsilonSweepResult:
    epsilons: list
    sup_y_err: list
    z_err_l2: list
    stderrs: list
    fitted_slope: float
    y0: float  # of the g_limit reference


def check_sweep(scenario, epsilons, a0):
    """Preconditions of ``epsilon_sweep``; returns the epsilons as floats."""
    if not is_convex(scenario.uset):
        raise ExperimentError("epsilon sweep requires a convex set (box/ball)")
    eps = [as_number(ExperimentError, e, "epsilons") for e in epsilons]
    if len(eps) < 2 or not all(eps[i] > eps[i + 1] > 0 for i in range(len(eps) - 1)):
        raise ExperimentError("epsilons must be strictly decreasing and positive")
    if scenario.terminal.clamp is None:
        raise ExperimentError("sweep requires a bounded (clamped) terminal")
    # the check of every driver the sweep builds
    GRegularizedDriver(eps[0], a0).check(scenario.uset, scenario.sde.dim_x,
                                         scenario.sde.dim_b)
    return eps


def epsilon_sweep(scenario, epsilons, a0):
    """Convergence of the regularized runs toward the support-function
    reference on common paths; ``scenario.driver`` is not used.

    The reference and the runs share one backward sweep, which holds only
    the node it has reached: each run's errors against the reference are
    folded node by node into (n_steps + 1,) rows, the RMS of dY, the
    cross-path sd of |dY| and the path mean of |dZ|^2, and no run's ``Y``
    or ``Z`` is kept for every node."""
    eps = check_sweep(scenario, epsilons, a0)
    # both driver variants vanish at z = 0, so the clamp bounds are
    # super/subsolutions and Y may be clipped to them
    base = replace(scenario, y_clip=scenario.terminal.clamp)
    ens = simulate_forward(base.sde, base.grid, base.n_paths, base.seed)
    drivers = [GLimitDriver()] + [GRegularizedDriver(eps=e, a0=a0) for e in eps]
    n = base.grid.n_steps
    rms, sd, z_sq = (np.zeros((len(eps), n + 1)) for _ in range(3))
    for i, _, _, (ref, *runs) in backward_sweep(
            [replace(base, driver=d) for d in drivers], ens):
        for k, run in enumerate(runs):
            dY = run.y - ref.y
            rms[k, i] = np.sqrt(np.mean(dY ** 2))
            sd[k, i] = np.std(np.abs(dY))
            z_sq[k, i] = np.mean(row_sq(run.z - ref.z))

    sup_errs, z_errs, ses = [], [], []
    dt = base.grid.dt
    for k in range(len(eps)):
        j = int(np.argmax(rms[k]))
        sup_errs.append(float(rms[k, j]))
        ses.append(float(sd[k, j] / np.sqrt(base.n_paths)))
        z_errs.append(float(np.sqrt(np.sum(dt * z_sq[k]))))
    safe = np.maximum(sup_errs, 1e-300)
    slope = float(np.polyfit(np.log(eps), np.log(safe), 1)[0])
    return EpsilonSweepResult(epsilons=eps, sup_y_err=sup_errs,
                              z_err_l2=z_errs, stderrs=ses,
                              fitted_slope=slope, y0=float(np.mean(ref.y)))


# union-set maximizer demo --------------------------------------------------

@dataclass
class EosDemoResult:
    member_occupancy: list
    min_medial_gap: float
    medial_hit_fraction: float
    gap_threshold: float
    a_path_mean: np.ndarray   # (n_steps + 1, dim_a)
    a_path_std: np.ndarray


def check_eos(scenario, gap_threshold=None):
    """Preconditions of ``eos_demo``; returns the gap threshold as a float,
    or None for the default."""
    uset, driver = scenario.uset, scenario.driver
    if not isinstance(uset, UnionSet) or len(uset.members) < 2:
        raise ExperimentError("demo requires a union of at least two members")
    if not isinstance(driver, RegularizedProjectionDriver) or driver.eps == 0:
        raise ExperimentError("demo requires the regularized projection driver")
    if gap_threshold is not None:
        gap_threshold = as_number(ExperimentError, gap_threshold,
                                  "gap_threshold", least=0.0)
    return gap_threshold


def eos_demo(scenario, gap_threshold=None):
    """Pathwise uniqueness empirics: how often the projection query point
    lands near the medial region between union members. A fold over one
    backward sweep with records: each node's member index, medial gap and
    argmax are those of the solver's own maximizer projection. A given
    ``gap_threshold`` is counted node by node; the default one is known
    only after the last node, so then the gaps are held for every node."""
    gap_threshold = check_eos(scenario, gap_threshold)
    sc, uset = scenario, scenario.uset
    ens = simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    n, times = sc.grid.n_steps, sc.grid.times
    counts = np.zeros(len(uset.members), dtype=np.int64)
    gaps = np.empty((n + 1, sc.n_paths)) if gap_threshold is None else None
    hits, min_gap = 0, np.inf
    a_mean, a_std = np.empty((2, n + 1, uset.dim))
    # largest one-step move of the query, driver.query(t_i, X_i, Y_i, Z_i)
    # at Y_i after any clip
    step, prev = 0.0, None
    for i, x, _, (t,) in backward_sweep([sc], ens, records=True):
        rec = t.rec
        gap = rec.medial_gap
        counts += np.bincount(rec.member_index, minlength=len(counts))
        # the smallest finite gap, without a copy of the finite ones
        min_gap = min(min_gap, np.min(gap, where=np.isfinite(gap),
                                      initial=np.inf))
        # over the path axis numpy sums a column-major array pairwise and
        # a C-ordered one row by row: the statistics reduce the latter
        point = np.ascontiguousarray(rec.point)
        a_mean[i] = point.mean(axis=0)
        a_std[i] = point.std(axis=0)
        if gaps is None:
            hits += np.count_nonzero(gap < gap_threshold)
        else:
            gaps[i] = gap
            K = sc.driver.query(times[i], x, t.y, t.z)
            if prev is not None:
                step = max(step, float(np.sqrt(row_sq(K - prev)).max()))
            prev = K

    occupancy = counts / counts.sum()
    if gaps is not None:
        gap_threshold = 2.0 * step
        hits = np.count_nonzero(gaps < gap_threshold)
    # a count over the node count, as np.mean of the hits would divide
    hit = int(hits) / ((n + 1) * sc.n_paths)
    return EosDemoResult(member_occupancy=[float(o) for o in occupancy],
                         min_medial_gap=float(min_gap),
                         medial_hit_fraction=hit,
                         gap_threshold=gap_threshold,
                         a_path_mean=a_mean, a_path_std=a_std)


# dispatch ------------------------------------------------------------------

def _write_paths(path, sol):
    """One block per time node: t, path id, Y, Z and (if recorded) A."""
    parts = [sol.Z] if sol.A is None else [sol.Z, sol.A]
    header = ["t", "path_id", "Y"] + [f"{p}{k}" for p, a in zip("ZA", parts)
                                      for k in range(a.shape[2])]
    write_csv(path, header, np.arange(len(sol.Y)), (
        ((t,), np.column_stack([sol.Y[:, i]] + [a[:, i] for a in parts]))
        for i, t in enumerate(sol.grid.times)))


def run_scenario(cfg, out_dir, paths_dump=False):
    """Dispatch a validated config, write artifacts, return (summary, ok)."""
    os.makedirs(out_dir, exist_ok=True)
    kind = cfg.kind
    out = os.path.join(out_dir, cfg.name)  # artifact path without suffix
    summary = {"kind": kind, "name": cfg.name, "seed": cfg.scenario.seed,
               "versions": {"package": __version__, "numpy": np.__version__}}
    ok = True
    sc, params = cfg.scenario, cfg.params

    if kind == "solve":
        sol = solve_theta_bsde(sc, keep=KEEPABLE if paths_dump else ())
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
        grid = surface.grid
        write_csv(f"{out}.surface.csv", ["t", "x", "u"], grid.xs,
                  (((t,), u[:, None]) for t, u in zip(grid.ts, surface.u)))
        ok = rep["abs_err"] <= max(0.02, 3.0 * rep["stderr"])

    elif kind == "epsilon_sweep":
        res = epsilon_sweep(sc, **params)
        summary.update(vars(res))
        write_csv(f"{out}.sweep.csv", ["epsilon", "sup_y_err", "z_err_l2"],
                  res.epsilons,
                  [((), np.column_stack([res.sup_y_err, res.z_err_l2]))])

    elif kind == "eos_demo":
        res = eos_demo(sc, **params)
        summary.update(vars(res))
        ok = abs(sum(res.member_occupancy) - 1.0) <= 1e-12

    elif kind == "theta_bm":
        b = simulate_theta_bm(sc.driver, sc.uset, sc.grid, sc.n_paths,
                              sc.seed).states[:, :, 0]
        realized_qv = np.sum(np.diff(b, axis=1) ** 2, axis=1)
        summary.update(final_mean=float(np.mean(b[:, -1])),
                       final_var=float(np.var(b[:, -1])),
                       realized_qv_mean=float(np.mean(realized_qv)))

    elif kind == "theta_qv":
        ens = simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
        qv = integrate_theta_qv(sc.driver, sc.uset, sc.grid,
                                ens.all_states())
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
