"""Explicit finite-difference oracle for the 1-d nonlinear parabolic PDE
associated with the worst-case-driver valuation:

    -du/dt - b u_x - (1/2) sigma^2 u_xx - F_max(t, x, u, u_x * sigma) = 0,
    u(T, x) = phi(x),

stepped backward in time with central differences. Used as an independent
check of the Monte Carlo solver (the value process satisfies Y = u(t, X_t)).
"""

from dataclasses import dataclass

import numpy as np

from .drivers import effective_driver
from .engine import simulate_forward, solve_theta_bsde


class PdeError(ValueError):
    pass


_CFL_MARGIN = 0.1


@dataclass(frozen=True)
class PdeGrid:
    x_min: float
    x_max: float
    n_x: int
    n_t: int
    t0: float
    T: float
    sigma_max: float

    def __post_init__(self):
        if self.n_x < 8:
            raise PdeError("need n_x >= 8")
        if self.n_t < 1:
            raise PdeError("need n_t >= 1")
        if not self.x_max > self.x_min:
            raise PdeError("need x_max > x_min")
        if self.sigma_max > 0 and self.dt_pde > self.cfl_limit:
            raise PdeError(
                f"CFL violated: dt={self.dt_pde:.3e} > {self.cfl_limit:.3e}; "
                "increase n_t")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dt_pde(self):
        return (self.T - self.t0) / self.n_t

    @property
    def cfl_limit(self):
        return self.dx ** 2 / (self.sigma_max ** 2 * (1.0 + _CFL_MARGIN))

    @property
    def xs(self):
        return self.x_min + self.dx * np.arange(self.n_x)

    @property
    def ts(self):
        return self.t0 + self.dt_pde * np.arange(self.n_t + 1)


def check_sde(sde):
    """The oracle's scope: one state, one noise, constant volatility."""
    if sde.dim_x != 1 or sde.dim_b != 1:
        raise PdeError("PDE oracle supports dim_x = dim_b = 1 only")
    if sde.vol_lin is not None:
        raise PdeError("PDE oracle requires constant volatility")


def auto_grid(sde, grid, n_x=400, half_width_sigmas=6.0):
    """Domain x0 +/- 6 sigma sqrt(T - t0), n_t chosen to satisfy the CFL
    stability bound."""
    check_sde(sde)
    smax = sde.sigma_max()
    if smax == 0.0:
        raise PdeError("need nonzero volatility for an automatic domain")
    span = float(np.sqrt(grid.T - grid.t0)) * smax * half_width_sigmas
    x0 = float(sde.x0[0])
    dx = 2.0 * span / (n_x - 1)
    limit = dx ** 2 / (smax ** 2 * (1.0 + _CFL_MARGIN))
    n_t = int(np.ceil((grid.T - grid.t0) / limit)) + 1
    return PdeGrid(x0 - span, x0 + span, n_x, n_t, grid.t0, grid.T, smax)


@dataclass
class ValueSurface:
    u: np.ndarray  # (n_t + 1, n_x), row 0 = t0, last row = T
    grid: PdeGrid

    def value_at(self, t_index, x):
        """Linear interpolation in x at a stored time row."""
        return float(np.interp(x, self.grid.xs, self.u[t_index]))


def solve_pde(driver, uset, sde, payoff, pgrid):
    """Backward explicit sweep; returns the value surface on the grid."""
    check_sde(sde)
    xs = pgrid.xs
    ts = pgrid.ts
    dx, dt = pgrid.dx, pgrid.dt_pde
    X = xs.reshape(-1, 1)
    sig = sde.vol_const[0, 0] if sde.vol_const is not None else 0.0

    u = np.empty((pgrid.n_t + 1, pgrid.n_x))
    u[-1] = payoff.value(X)
    for k in range(pgrid.n_t, 0, -1):
        uk = u[k]
        t = ts[k]
        ux = np.empty_like(uk)
        ux[1:-1] = (uk[2:] - uk[:-2]) / (2 * dx)
        ux[0] = (uk[1] - uk[0]) / dx
        ux[-1] = (uk[-1] - uk[-2]) / dx
        uxx = np.zeros_like(uk)
        # boundary closure: second derivative zero (linear extrapolation)
        uxx[1:-1] = (uk[2:] - 2 * uk[1:-1] + uk[:-2]) / dx ** 2
        drift = sde.drift(t, X)[:, 0]
        z = (ux * sig).reshape(-1, 1)
        f, _ = effective_driver(driver, uset, t, X, uk, z)
        u[k - 1] = uk + dt * (drift * ux + 0.5 * sig ** 2 * uxx + f)
        if not np.all(np.isfinite(u[k - 1])):
            raise PdeError(f"non-finite values in PDE sweep at time step {k - 1}")
    return ValueSurface(u=u, grid=pgrid)


def feynman_kac_compare(scenario, pde_grid=None, surface=None):
    """Solve the same problem by Monte Carlo and by the FD oracle and
    compare the time-zero values.

    ``surface`` is an already solved ``ValueSurface`` of this scenario; the
    PDE is solved here (on ``pde_grid``) only when it is not given.
    """
    sc = scenario
    if surface is None:
        if pde_grid is None:
            pde_grid = auto_grid(sc.sde, sc.grid)
        surface = solve_pde(sc.driver, sc.uset, sc.sde, sc.terminal, pde_grid)
    ens = simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    sol = solve_theta_bsde(sc, paths=ens)
    u0 = surface.value_at(0, float(sc.sde.x0[0]))
    return {
        "y0_mc": sol.Y0,
        "u0": u0,
        "abs_err": abs(sol.Y0 - u0),
        "stderr": sol.stderr,
    }
