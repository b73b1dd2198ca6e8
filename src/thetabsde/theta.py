"""Drift-corrected Brownian motion, its quadratic-variation compensator,
and martingale verification under the worst-case valuation.

The drift-corrected process solves db = -F_max(t, b, 1) dt + dB; the
compensator solves the path-coupled ODE
d qv = (d + F_max(t, |B_t|^2 - qv, 2 B_t^T)) dt, which makes
|B_t|^2 - qv_t a martingale under the valuation.
"""

from dataclasses import dataclass

import numpy as np

from .drivers import effective_driver
from .engine import (EngineError, PathEnsemble, TimeGrid, brownian_increments,
                     solve_theta_bsde)


@dataclass
class ThetaEnsemble:
    grid: object
    b_theta: np.ndarray       # (n_paths, n_steps + 1)
    increments: np.ndarray    # (n_paths, n_steps, 1)
    drift_record: np.ndarray  # (n_paths, n_steps) values of F_max(t, b, 1)


def simulate_theta_bm(driver, uset, grid, n_paths, seed):
    """Euler scheme for the scalar drift-corrected Brownian motion."""
    dB = brownian_increments(grid, n_paths, seed, 1)
    n = grid.n_steps
    dt = grid.dt
    times = grid.times
    b = np.zeros((n_paths, n + 1))
    drift = np.empty((n_paths, n))
    ones = np.ones((n_paths, 1))
    for i in range(n):
        x = b[:, i].reshape(-1, 1)
        f, _ = effective_driver(driver, uset, times[i], x, b[:, i], ones)
        drift[:, i] = f
        b[:, i + 1] = b[:, i] - f * dt + dB[:, i, 0]
    if not np.all(np.isfinite(b)):
        raise EngineError("drift-corrected simulation produced non-finite values")
    return ThetaEnsemble(grid=grid, b_theta=b, increments=dB, drift_record=drift)


@dataclass
class QvPath:
    grid: object
    qv: np.ndarray        # (n_paths, n_steps + 1)
    m_path: np.ndarray    # |B_t|^2 - qv_t per path and node
    monotone: np.ndarray  # (n_paths,) integrand stayed >= 0 along the path


def integrate_theta_qv(driver, uset, grid, B):
    """Forward Euler for the compensator ODE along frozen B paths, all
    paths at once; ``B`` is (n_paths, n_steps + 1, d) node values on
    ``grid``."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 3 or B.shape[1] != grid.n_steps + 1:
        raise EngineError(f"B shape {B.shape} does not match the grid")
    d = B.shape[2]
    dt = grid.dt
    times = grid.times
    norms = np.einsum("pij,pij->pi", B, B)
    qv = np.zeros(norms.shape)
    monotone = np.ones(len(B), dtype=bool)
    for i in range(grid.n_steps):
        f, _ = effective_driver(driver, uset, times[i], B[:, i],
                                norms[:, i] - qv[:, i], 2.0 * B[:, i])
        integrand = d + f
        monotone &= integrand >= 0
        qv[:, i + 1] = qv[:, i] + integrand * dt
    return QvPath(grid=grid, qv=qv, m_path=norms - qv, monotone=monotone)


def check_martingale(grid, process, t_index, s_index):
    """Preconditions of ``verify_theta_martingale`` on ``grid``."""
    if process not in ("theta_bm", "m_qv", "linear_bm"):
        raise EngineError(f"unknown process {process!r}")
    if not 0 <= t_index < s_index <= grid.n_steps:
        raise EngineError("need 0 <= t_index < s_index <= n_steps")


def verify_theta_martingale(scenario_base, process, t_index, s_index, c=1.0):
    """Check M_t = E_t[M_s] numerically for one of the canonical processes.

    ``process`` is "theta_bm", "m_qv" or "linear_bm"; the latter uses
    M = c * B and additionally reports the effective-driver value
    F_max(t, c*B_t, c) whose deviation from zero explains a failure.
    E_t[M_s] is computed by solving the backward equation on [t, s] with
    per-path terminal M_s; at t_index 0 the conditioning is exact.
    """
    sc = scenario_base
    check_martingale(sc.grid, process, t_index, s_index)
    if process == "theta_bm":
        ens_th = simulate_theta_bm(sc.driver, sc.uset, sc.grid, sc.n_paths, sc.seed)
        B = ens_th.b_theta
        dB = ens_th.increments
        M = B
    else:
        # plain Brownian paths; d = 1 throughout the verification fixtures
        dB = brownian_increments(sc.grid, sc.n_paths, sc.seed, 1)
        B = np.concatenate([np.zeros((sc.n_paths, 1)),
                            np.cumsum(dB[:, :, 0], axis=1)], axis=1)
        if process == "linear_bm":
            M = c * B
        else:
            M = integrate_theta_qv(sc.driver, sc.uset, sc.grid,
                                   B[:, :, None]).m_path

    times = sc.grid.times
    sub_grid = TimeGrid(times[t_index], times[s_index], s_index - t_index)
    # reuse the realized driving noise on the [t, s] window
    sub = PathEnsemble(sub_grid, sc.n_paths, sc.seed,
                       dB[:, t_index:s_index],
                       B[:, t_index:s_index + 1, None])
    sol = solve_theta_bsde(sc, paths=sub, terminal_values=M[:, s_index])
    diff = M[:, t_index] - sol.Y[:, 0]
    # sampling scale of the window increment, not of the (possibly
    # cross-path-constant) residual itself
    stderr = float(np.std(M[:, s_index] - M[:, t_index]) / np.sqrt(sc.n_paths))
    out = {
        "residual": float(np.mean(np.abs(diff))),
        "stderr": stderr,
    }
    if process == "linear_bm":
        x = B[:, t_index].reshape(-1, 1)
        z = np.full((sc.n_paths, 1), c, dtype=float)
        f, _ = effective_driver(sc.driver, sc.uset, sc.grid.times[t_index],
                                x, c * B[:, t_index], z)
        out["driver_value"] = float(np.mean(f))
    return out
