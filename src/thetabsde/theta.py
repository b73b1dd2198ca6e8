"""Drift-corrected Brownian motion, its quadratic-variation compensator,
and martingale verification under the worst-case valuation.

The drift-corrected process solves db = -F_max(t, b, 1) dt + dB; the
compensator solves the path-coupled ODE
d qv = (d + F_max(t, |B_t|^2 - qv, 2 B_t^T)) dt, which makes
|B_t|^2 - qv_t a martingale under the valuation.
"""

from dataclasses import dataclass

import numpy as np

from .ambient import as_integer, as_number
from .drivers import ZeroDriver, effective_driver
from .engine import (EngineError, PathEnsemble, TimeGrid, backward_sweep,
                     brownian_increments)


def check_theta_driver(driver, uset, dim):
    """The driver must accept the x and z these processes evaluate it at,
    both of ``dim`` columns: 1 for the drift-corrected Brownian motion and
    the martingale check, the dimension of B for the compensator."""
    driver.check(uset, dim, dim)


def simulate_theta_bm(driver, uset, grid, n_paths, seed):
    """Euler scheme for the scalar drift-corrected Brownian motion: a
    ``PathEnsemble`` built from arrays, so it holds b at every node, with
    b = ``states[:, :, 0]``. Under ``ZeroDriver`` F is 0.0 on every path,
    and b - 0.0 * dt is b bitwise, so b is the running sum of the
    increments, plain Brownian motion."""
    check_theta_driver(driver, uset, 1)
    dB = brownian_increments(grid, n_paths, seed, 1)
    n_paths = len(dB)
    steps = dB[:, :, 0].T
    dt = grid.dt
    times = grid.times
    b = np.zeros((grid.n_steps + 1, n_paths, 1))
    ones = np.ones((n_paths, 1))
    for i in range(grid.n_steps):
        f = effective_driver(driver, uset, times[i], b[i], b[i, :, 0], ones)
        b[i + 1, :, 0] = b[i, :, 0] - f * dt + steps[i]
    if not np.all(np.isfinite(b)):
        raise EngineError("drift-corrected simulation produced non-finite values")
    b.flags.writeable = False
    return PathEnsemble(grid, n_paths, int(seed), dB, np.swapaxes(b, 0, 1))


@dataclass
class QvPath:
    """``qv`` and ``m_path`` are transpose views of node-major buffers."""

    qv: np.ndarray        # (n_paths, n_steps + 1)
    m_path: np.ndarray    # |B_t|^2 - qv_t per path and node
    monotone: np.ndarray  # (n_paths,) integrand stayed >= 0 along the path


def integrate_theta_qv(driver, uset, grid, B):
    """Forward Euler for the compensator ODE along frozen B paths, all
    paths at once; ``B`` is (n_paths, n_steps + 1, d) node values on
    ``grid``, read node by node (contiguously when it is the transpose
    view of a node-major buffer)."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 3 or B.shape[1] != grid.n_steps + 1:
        raise EngineError(f"B shape {B.shape} does not match the grid")
    d = B.shape[2]
    check_theta_driver(driver, uset, d)
    dt = grid.dt
    times = grid.times
    nodes = np.swapaxes(B, 0, 1)
    # einsum sums a column-major row in another order: each node's squared
    # norms reduce a C-ordered copy of its row
    norms = np.array([np.einsum("pj,pj->p", x, x)
                      for x in map(np.ascontiguousarray, nodes)])
    qv = np.zeros(norms.shape)
    monotone = np.ones(len(B), dtype=bool)
    for i in range(grid.n_steps):
        f = effective_driver(driver, uset, times[i], nodes[i],
                             norms[i] - qv[i], 2.0 * nodes[i])
        integrand = d + f
        monotone &= integrand >= 0
        qv[i + 1] = qv[i] + integrand * dt
    return QvPath(qv=qv.T, m_path=(norms - qv).T, monotone=monotone)


def check_martingale(scenario, process, t_index, s_index, c):
    """Preconditions of ``verify_theta_martingale``; returns ``(t_index,
    s_index, c)`` parsed."""
    if process not in ("theta_bm", "m_qv", "linear_bm"):
        raise EngineError(f"unknown process {process!r}")
    t_index = as_integer(EngineError, t_index, "t_index")
    s_index = as_integer(EngineError, s_index, "s_index")
    if not 0 <= t_index < s_index <= scenario.grid.n_steps:
        raise EngineError("need 0 <= t_index < s_index <= n_steps")
    check_theta_driver(scenario.driver, scenario.uset, 1)
    # the check solves on one-dimensional Brownian paths
    if scenario.sde.dim_x != 1 or scenario.sde.dim_b != 1:
        raise EngineError("martingale check supports sde.dim_x = "
                          "sde.dim_b = 1 only")
    return t_index, s_index, as_number(EngineError, c, "c")


def verify_theta_martingale(scenario_base, process, t_index, s_index, c=1.0):
    """Check M_t = E_t[M_s] numerically for one of the canonical processes.

    ``process`` is "theta_bm", "m_qv" or "linear_bm"; the latter two run on
    plain Brownian paths, the first on the drift-corrected ones, and
    "linear_bm" uses M = c * B and additionally reports the effective-driver
    value F_max(t, c*B_t, c) whose deviation from zero explains a failure.
    E_t[M_s] is node t of one backward sweep over nodes s, ..., t of the
    paths, with per-path terminal M_s; at t_index 0 the conditioning is
    exact.
    """
    sc = scenario_base
    t_index, s_index, c = check_martingale(sc, process, t_index, s_index, c)
    driver = sc.driver if process == "theta_bm" else ZeroDriver()
    ens = simulate_theta_bm(driver, sc.uset, sc.grid, sc.n_paths, sc.seed)
    B = ens.states[:, :, 0]
    if process == "theta_bm":
        M = B
    elif process == "linear_bm":
        M = c * B
    else:
        M = integrate_theta_qv(sc.driver, sc.uset, sc.grid, ens.states).m_path

    if s_index < sc.grid.n_steps:
        # the leading nodes 0, ..., s of the same paths (ROADMAP item 4:
        # this grid's dt can be an ulp off the parent's)
        prefix = TimeGrid(sc.grid.t0, sc.grid.times[s_index], s_index)
        ens = PathEnsemble(prefix, ens.n_paths, ens.seed,
                           ens.increments[:, :s_index],
                           ens.states[:, :s_index + 1])
    for i, _, _, (track,) in backward_sweep([sc], ens, M[:, s_index]):
        if i == t_index:
            break
    diff = M[:, t_index] - track.y
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
        f = effective_driver(sc.driver, sc.uset, sc.grid.times[t_index],
                             x, c * B[:, t_index], z)
        out["driver_value"] = float(np.mean(f))
    return out
