"""Finite-difference oracle for the 1-d nonlinear parabolic PDE associated
with the worst-case-driver valuation:

    -du/dt - b u_x - (1/2) sigma^2 u_xx - F_max(t, x, u, u_x * sigma) = 0,
    u(T, x) = phi(x),

stepped backward in time by IMEX Euler (Ascher, Ruuth & Spiteri 1997,
"Implicit-explicit Runge-Kutta methods for time-dependent partial
differential equations"): the diffusion is implicit, drift and driver are
explicit, all with central differences. Used as an independent check of the
Monte Carlo solver (the value process satisfies Y = u(t, X_t)); u between
nodes is the linear interpolant, read by a cell lookup on the uniform grid
that gives numpy.interp's bits without its binary search (``_Lookup``).
"""

from dataclasses import dataclass

import numpy as np

from .ambient import as_integer, as_number
from .drivers import effective_driver
from .engine import TimeGrid, backward_sweep, simulate_forward


# half-width of the automatic domain, in standard deviations of X_T
HALF_WIDTH_SIGMAS = 6.0

# the narrowest cell a grid may have, as a fraction of its largest |x|.
# Rounding moves xs and (x - x_min) / dx, in x units, by under 4 ulps of
# that |x|, 2**-50 of it; at 2**-48 the cell lookup's estimate lands
# within one cell of x's own (see _Lookup)
_MIN_CELL = 2.0 ** -48


class PdeError(ValueError):
    pass


@dataclass(frozen=True)
class PdeGrid:
    """The uniform x grid ``xs`` of ``n_x`` nodes on ``[x_min, x_max]`` and
    ``n_t`` time steps on ``[t0, T]``. A grid is refused when numpy could
    not size the oracle's arrays, or when its cells are too narrow for the
    cell lookup (``_MIN_CELL``)."""

    x_min: float
    x_max: float
    n_x: int
    n_t: int
    t0: float
    T: float

    def __post_init__(self):
        x_min = as_number(PdeError, self.x_min, "x_min")
        for name, value in (
                ("x_min", x_min),
                ("x_max", as_number(PdeError, self.x_max, "x_max", above=x_min)),
                ("n_x", as_integer(PdeError, self.n_x, "n_x", 8)),
                ("n_t", as_integer(PdeError, self.n_t, "n_t", 2))):
            object.__setattr__(self, name, value)
        # the sweep holds an (n_x, n_x) step matrix and an (n_t + 1, n_x)
        # surface of float64; numpy sizes no array past intp's bytes
        for name, shape, count in (
                ("n_x", "(n_x, n_x)", self.n_x ** 2),
                ("n_t", "(n_t + 1, n_x)", (self.n_t + 1) * self.n_x)):
            if count * 8 > np.iinfo(np.intp).max:
                raise PdeError(f"{name} = {getattr(self, name):.3g} is too "
                               f"large: numpy cannot size the oracle's "
                               f"{shape} float64 array")
        reach = max(abs(self.x_min), abs(self.x_max))
        if self.dx < _MIN_CELL * reach:
            raise PdeError(f"cells of width {self.dx:.3g} are narrower than "
                           f"2**-48 of the grid's largest |x|, {reach:.3g}")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dt_pde(self):
        return TimeGrid(self.t0, self.T, self.n_t).dt

    @property
    def xs(self):
        return self.x_min + self.dx * np.arange(self.n_x)

    @property
    def ts(self):
        return TimeGrid(self.t0, self.T, self.n_t).times


def check_sde(sde):
    """The oracle's scope: one state, one noise, constant volatility."""
    if sde.dim_x != 1 or sde.dim_b != 1:
        raise PdeError("PDE oracle supports dim_x = dim_b = 1 only")
    if sde.vol_lin is not None:
        raise PdeError("PDE oracle requires constant volatility")


def auto_grid(sde, grid, n_x=400):
    """Domain x0 +/- 6 sigma sqrt(T - t0) and four PDE steps per Monte Carlo
    step, so PDE row 4i lies on Monte Carlo node i."""
    check_sde(sde)
    smax = 0.0 if sde.vol_const is None else float(
        np.linalg.norm(sde.vol_const, ord=2))
    if smax == 0.0:
        raise PdeError("need nonzero volatility for an automatic domain")
    span = float(np.sqrt(grid.T - grid.t0)) * smax * HALF_WIDTH_SIGMAS
    x0 = float(sde.x0[0])
    return PdeGrid(x0 - span, x0 + span, n_x, 4 * grid.n_steps, grid.t0, grid.T)


@dataclass
class ValueSurface:
    u: np.ndarray  # (n_t + 1, n_x), row 0 = t0, last row = T
    grid: PdeGrid
    u0_discretisation_err: np.ndarray  # (n_x,), |u[0] - u[0] at n_t // 2|

    def value_at(self, t_index, x):
        """Linear interpolation in x at a stored time row."""
        return _Lookup(self.grid).at(x, self.u[t_index])


class _Lookup:
    """``numpy.interp(x, pgrid.xs, row)``, bitwise, found without a binary
    search. The grid is uniform, so x's cell is ``(x - x_min) / dx``
    truncated, clamped to the grid and corrected once up and once down
    against ``xs`` itself (``_MIN_CELL`` keeps the estimate within one
    cell). Then numpy.interp's own rules: x clipped to ``[xs[0], xs[-1]]``
    takes the value of a node it sits on, else ``slope * (x - xs[j]) +
    row[j]`` with numpy.interp's slope; a NaN x comes back as itself, and
    on a row with an inf or a NaN a NaN result takes numpy.interp's two
    fallbacks. The grid's arrays are read once, when the lookup is made;
    a call's (n,) work arrays are its own and freed on return, since
    buffers kept for the next call would be held through the backward
    sweep's own work, where its memory peaks."""

    def __init__(self, pgrid):
        xs = pgrid.xs
        self.xs, self.x_min, self.dx = xs, pgrid.x_min, pgrid.dx
        # xs[j + 1] at j, and +inf past the last node, where no x goes up
        self.xs_up = np.append(xs[1:], np.inf)
        self.widths = xs[1:] - xs[:-1]
        # the last slope stays 0: only a point on the last node gets there
        self.slopes = np.zeros(len(xs))

    def __call__(self, x, row):
        xs = self.xs
        c, out = np.empty(len(x)), np.empty(len(x))
        j, mask = np.empty(len(x), dtype=np.intp), np.empty(len(x), dtype=bool)
        with np.errstate(all="ignore"):  # numpy.interp raises no FP warning
            np.subtract(row[1:], row[:-1], out=self.slopes[:-1])
            self.slopes[:-1] /= self.widths
            np.clip(x, xs[0], xs[-1], out=c)
            # c >= x_min, so the estimate is >= 0; fmin sends a NaN to the top
            np.subtract(c, self.x_min, out=out)
            out /= self.dx
            np.fmin(out, len(xs) - 1, out=out)
            np.copyto(j, out, casting="unsafe")
            np.take(self.xs_up, j, out=out)
            np.greater_equal(c, out, out=mask)
            j += mask
            np.take(xs, j, out=out)
            np.less(c, out, out=mask)
            if mask.any():
                j -= mask
                np.take(xs, j, out=out)
            np.equal(c, out, out=mask)  # on a node
            np.subtract(c, out, out=out)
            np.take(self.slopes, j, out=c)
            out *= c
            np.take(row, j, out=c)
            out += c
            if not np.isfinite(row).all():
                bad = np.flatnonzero(np.isnan(out))
                out[bad] = self._fallback(x[bad], j[bad], row)
        np.copyto(out, c, where=mask)
        return out

    def _fallback(self, x, j, row):
        """numpy.interp's value where ``slope * (x - xs[j]) + row[j]`` is
        NaN: the same from the cell's right end, then ``row[j]`` if both
        ends hold the same value; a NaN x is its own value."""
        right = np.minimum(j + 1, len(row) - 1)
        alt = self.slopes[j] * (x - self.xs_up[j]) + row[right]
        alt = np.where(np.isnan(alt) & (row[j] == row[right]), row[j], alt)
        return np.where(np.isnan(x), x, alt)

    def at(self, x, row):
        """The interpolant at one point, as a float."""
        return float(self(np.array([x], dtype=float), row)[0])


def _tridiagonal_inverse(lower, diag, upper):
    """Inverse of the tridiagonal matrix with row i = (lower[i], diag[i],
    upper[i]) around the diagonal, by a Thomas elimination run on every
    column of the identity at once: 2n row operations and no LAPACK call.
    Stable without pivoting when the matrix is diagonally dominant. The
    forward pass leaves row i zero right of column i, so it updates only
    the prefix ``[:i]`` and the diagonal; on those zeros ``0 - l * 0``
    would give the same +0.0."""
    n = len(diag)
    inv = np.eye(n)
    c = np.empty(n)
    for i in range(n):
        m = diag[i]
        if i:
            m -= lower[i] * c[i - 1]
            inv[i, :i] -= lower[i] * inv[i - 1, :i]
        c[i] = upper[i] / m
        inv[i, :i + 1] /= m
    for i in range(n - 2, -1, -1):
        inv[i] -= c[i] * inv[i + 1]
    return inv


def _sweep(driver, uset, sde, payoff, pgrid, n_t):
    """Backward IMEX Euler sweep of ``n_t`` steps on the x grid of ``pgrid``;
    returns the ``(n_t + 1, n_x)`` surface."""
    tgrid = TimeGrid(pgrid.t0, pgrid.T, n_t)
    ts, dx, dt = tgrid.times, pgrid.dx, tgrid.dt
    X = pgrid.xs.reshape(-1, 1)
    sig = sde.vol_const[0, 0] if sde.vol_const is not None else 0.0

    # implicit diffusion: (I - dt L) u[k-1] = explicit update, where L is
    # the central (1/2) sigma^2 u_xx with zero rows at the boundary
    # (second derivative zero, i.e. linear extrapolation)
    a = dt * 0.5 * sig ** 2 / dx ** 2
    off = np.full(pgrid.n_x, -a)
    diag = np.full(pgrid.n_x, 1.0 + 2 * a)
    off[[0, -1]] = 0.0
    diag[[0, -1]] = 1.0
    step = _tridiagonal_inverse(off, diag, off)

    u = np.empty((n_t + 1, pgrid.n_x))
    u[-1] = payoff.value(X)
    for k in range(n_t, 0, -1):
        uk = u[k]
        t = ts[k]
        ux = np.empty_like(uk)
        ux[1:-1] = (uk[2:] - uk[:-2]) / (2 * dx)
        ux[0] = (uk[1] - uk[0]) / dx
        ux[-1] = (uk[-1] - uk[-2]) / dx
        drift = sde.drift(t, X)[:, 0]
        z = (ux * sig).reshape(-1, 1)
        f = effective_driver(driver, uset, t, X, uk, z)
        u[k - 1] = step @ (uk + dt * (drift * ux + f))
        if not np.isfinite(u[k - 1]).all():
            raise PdeError(f"non-finite values in PDE sweep at time step {k - 1}")
    return u


def solve_pde(driver, uset, sde, payoff, pgrid):
    """Value surface on ``pgrid`` by backward IMEX Euler, with its own error
    estimate.

    The implicit diffusion puts no bound on dt, so n_t is chosen for
    accuracy. The explicit drift b and driver (z-Lipschitz constant L_z)
    are stable by von Neumann analysis for dt <= sigma^2 / (|b| + L_z
    sigma)^2, a bound free of dx; it is not checked here. A second sweep at
    n_t // 2 steps gives ``u0_discretisation_err``: for a first-order scheme
    the difference of the two time-zero rows estimates the error of the fine
    one. It and the per-step non-finite check are the guard.
    """
    check_sde(sde)
    u = _sweep(driver, uset, sde, payoff, pgrid, pgrid.n_t)
    u_half = _sweep(driver, uset, sde, payoff, pgrid, pgrid.n_t // 2)
    return ValueSurface(u=u, grid=pgrid,
                        u0_discretisation_err=np.abs(u[0] - u_half[0]))


def feynman_kac_compare(scenario, surface=None):
    """Solve the same problem by Monte Carlo and by the FD oracle and
    compare the time-zero values and the values along the paths.

    ``surface`` is an already solved ``ValueSurface`` of this scenario; the
    PDE is solved here, on ``auto_grid``, only when it is not given. The
    Monte Carlo side is one ``backward_sweep``, and like ``epsilon_sweep``
    it keeps no full solution: at each node it keeps only the RMS over
    paths of |Y_i - u(t_i, X_i)|, with u interpolated in x on the PDE row
    nearest to t_i, and it reads Y0 and its stderr off node 0.
    """
    sc = scenario
    if surface is None:
        surface = solve_pde(sc.driver, sc.uset, sc.sde, sc.terminal,
                            auto_grid(sc.sde, sc.grid))
    pgrid = surface.grid
    rows = np.clip(np.rint((sc.grid.times - pgrid.t0) / pgrid.dt_pde), 0,
                   pgrid.n_t).astype(int)
    rms = []
    lookup = _Lookup(pgrid)
    ens = simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    for i, x, _, (track,) in backward_sweep([sc], ens):
        d = lookup(x[:, 0], surface.u[rows[i]])
        np.subtract(track.y, d, out=d)
        rms.append(np.sqrt(np.mean(np.square(d, out=d))))
        del d  # not held through the next node, where the sweep peaks
    y0, stderr = track.estimate()
    x0 = float(sc.sde.x0[0])
    u0 = lookup.at(x0, surface.u[0])
    return {
        "y0_mc": y0,
        "u0": u0,
        "abs_err": abs(y0 - u0),
        "stderr": stderr,
        "u0_discretisation_err": lookup.at(
            x0, surface.u0_discretisation_err),
        "fk_path_rms_max": float(np.max(rms)),
    }
