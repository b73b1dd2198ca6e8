"""Forward simulation and the regression Monte Carlo backward solver.

The backward pass follows the standard least-squares scheme on a polynomial
basis of the forward state: at each node the conditional expectation of the
next value is regressed, the volatility component comes from regressing the
centered next value against the Brownian increment, the driver is evaluated
at its pointwise maximum over the uncertainty set, and the adversarial
parameter path is read off from the maximizer map.
"""

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .drivers import effective_driver, maximizer


class EngineError(ValueError):
    pass


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    T: float
    n_steps: int

    def __post_init__(self):
        if not self.T > self.t0:
            raise EngineError("need T > t0")
        if self.n_steps < 1:
            raise EngineError("need n_steps >= 1")

    @property
    def dt(self):
        return (self.T - self.t0) / self.n_steps

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def truncated(self, n_steps):
        """Sub-grid [t0, t0 + n_steps*dt] on the same spacing."""
        return TimeGrid(self.t0, self.t0 + n_steps * self.dt, n_steps)


@dataclass
class SdeSpec:
    """Affine drift/volatility: b = b0 + b_t*t + B_x x,
    sigma = sig0 + sum_j x_j * sig_x[j]."""

    dim_x: int
    dim_b: int
    x0: np.ndarray
    drift_const: Optional[np.ndarray] = None
    drift_t: Optional[np.ndarray] = None
    drift_lin: Optional[np.ndarray] = None
    vol_const: Optional[np.ndarray] = None
    vol_lin: Optional[np.ndarray] = None

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.x0.size != self.dim_x:
            raise EngineError("x0 size does not match dim_x")
        if self.drift_const is not None:
            self.drift_const = np.broadcast_to(
                np.asarray(self.drift_const, dtype=float), (self.dim_x,)).copy()
        if self.drift_t is not None:
            self.drift_t = np.broadcast_to(
                np.asarray(self.drift_t, dtype=float), (self.dim_x,)).copy()
        if self.drift_lin is not None:
            self.drift_lin = np.asarray(self.drift_lin, dtype=float).reshape(
                self.dim_x, self.dim_x)
        if self.vol_const is not None:
            self.vol_const = np.asarray(self.vol_const, dtype=float).reshape(
                self.dim_x, self.dim_b)
        if self.vol_lin is not None:
            self.vol_lin = np.asarray(self.vol_lin, dtype=float).reshape(
                self.dim_x, self.dim_x, self.dim_b)

    def drift(self, t, X):
        out = np.zeros_like(X)
        if self.drift_const is not None:
            out += self.drift_const
        if self.drift_t is not None:
            out += t * self.drift_t
        if self.drift_lin is not None:
            out += X @ self.drift_lin.T
        return out

    def vol_mul(self, t, X, dB):
        """sigma(t, X) @ dB, batched over paths."""
        out = np.zeros_like(X)
        if self.vol_const is not None:
            out += dB @ self.vol_const.T
        if self.vol_lin is not None:
            out += np.einsum("nj,ijk,nk->ni", X, self.vol_lin, dB)
        return out

    def sigma_max(self):
        """Bound on ||sigma|| for constant-volatility specs (PDE CFL)."""
        if self.vol_lin is not None:
            raise EngineError("sigma_max undefined for state-dependent volatility")
        if self.vol_const is None:
            return 0.0
        return float(np.linalg.norm(self.vol_const, ord=2))


@dataclass
class Payoff:
    """Terminal map phi(x) = coeffs[0] + sum_j sum_{k>=1} coeffs[k] x_j^k,
    optionally clamped to [clamp_lo, clamp_hi]."""

    coeffs: np.ndarray
    clamp: Optional[tuple] = None

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if self.clamp is not None:
            lo, hi = self.clamp
            if not lo < hi:
                raise EngineError("clamp bounds must satisfy lo < hi")
            self.clamp = (float(lo), float(hi))

    def value(self, XT):
        XT = np.atleast_2d(np.asarray(XT, dtype=float))
        out = np.full(XT.shape[0], self.coeffs[0])
        for k in range(1, self.coeffs.size):
            if self.coeffs[k] != 0.0:
                out = out + self.coeffs[k] * np.sum(XT ** k, axis=1)
        if self.clamp is not None:
            out = np.clip(out, self.clamp[0], self.clamp[1])
        return out


@dataclass
class PathEnsemble:
    grid: TimeGrid
    n_paths: int
    seed: int
    increments: np.ndarray  # (n_paths, n_steps, dim_b)
    states: np.ndarray      # (n_paths, n_steps + 1, dim_x)

    def truncated(self, n_steps):
        return PathEnsemble(self.grid.truncated(n_steps), self.n_paths,
                            self.seed,
                            self.increments[:, :n_steps],
                            self.states[:, :n_steps + 1])


def brownian_increments(grid, n_paths, seed, dim_b):
    """Counter-based (Philox) draws; regeneration is bit-identical."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return gen.standard_normal((n_paths, grid.n_steps, dim_b)) * np.sqrt(grid.dt)


def simulate_forward(sde, grid, n_paths, seed):
    """Euler scheme for the forward diffusion on the shared time grid."""
    if n_paths < 1:
        raise EngineError("need n_paths >= 1")
    dB = brownian_increments(grid, n_paths, seed, sde.dim_b)
    X = np.empty((n_paths, grid.n_steps + 1, sde.dim_x))
    X[:, 0] = sde.x0
    times = grid.times
    dt = grid.dt
    for i in range(grid.n_steps):
        Xi = X[:, i]
        X[:, i + 1] = Xi + sde.drift(times[i], Xi) * dt + sde.vol_mul(times[i], Xi, dB[:, i])
    return PathEnsemble(grid, n_paths, int(seed), dB, X)


@dataclass
class Scenario:
    sde: SdeSpec
    driver: object
    uset: object
    terminal: Payoff
    grid: TimeGrid
    n_paths: int
    seed: int
    regression_degree: int = 3
    picard_iters: int = 3
    # optional a priori bounds on Y applied after each backward step;
    # legitimate whenever constants are super/subsolutions (driver vanishes
    # at z = 0), and it keeps quadratic-in-z drivers from amplifying
    # regression tail noise
    y_clip: Optional[tuple] = None


@dataclass
class BsdeSolution:
    grid: TimeGrid
    Y: np.ndarray                 # (n_paths, n_steps + 1)
    Z: np.ndarray                 # (n_paths, n_steps + 1, dim_b)
    A: Optional[np.ndarray]       # (n_paths, n_steps + 1, dim_a) or None
    Y0: float
    stderr: float
    regression_degree: int
    diagnostics: dict = field(default_factory=dict)


# Design condition number (2-norm) above which the normal equations would
# lose too many digits; such a node is solved by SVD least squares instead.
_MAX_CONDITION = 1e6


def _design_matrix(Xi, degree):
    """Constant plus standardized monomials; zero-variance columns dropped.

    Built feature-major: each monomial is its parent (the same index tuple
    less its last entry) times one coordinate, so every operation runs on a
    contiguous row of a (k, n) array. Returns the (n, k) transpose view.
    """
    n, dim_x = Xi.shape
    coords = np.ascontiguousarray(Xi.T)
    monomials = [c for total in range(1, degree + 1)
                 for c in itertools.combinations_with_replacement(range(dim_x), total)]
    rows = np.empty((len(monomials) + 1, n))
    rows[0] = 1.0
    row_of = {(): 0}
    for r, c in enumerate(monomials, start=1):
        parent = row_of[c[:-1]]
        if parent:
            np.multiply(rows[parent], coords[c[-1]], out=rows[r])
        else:
            rows[r] = coords[c[-1]]
        row_of[c] = r
    # standardize in place, compacting the kept rows to the front; every
    # raw row is read before a later write can reach it
    k = 1
    for r in range(1, len(rows)):
        mu, sd = rows[r].mean(), rows[r].std()
        if sd > 1e-12:
            np.subtract(rows[r], mu, out=rows[k])
            rows[k] /= sd
            k += 1
    return rows[:k].T


class _Projector:
    """Least-squares projection onto the columns of one node's design.

    The Gram matrix is factored once by Cholesky and reused for every
    right-hand side. A design whose condition number passes
    ``_MAX_CONDITION``, or whose Gram matrix is not positive definite, is
    solved by ``lstsq`` (SVD) instead.
    """

    def __init__(self, design):
        self.design = design
        gram = design.T @ design
        eig = np.linalg.eigvalsh(gram)
        self.chol = None
        self.condition = np.inf
        if eig[0] > 0:
            self.condition = float(np.sqrt(eig[-1] / eig[0]))
            if self.condition <= _MAX_CONDITION:
                try:
                    self.chol = np.linalg.cholesky(gram)
                except np.linalg.LinAlgError:
                    pass

    @property
    def fallback(self):
        return self.chol is None

    def fit(self, targets):
        """Fitted values of ``targets`` (n,) or (n, m) on the design."""
        X = self.design
        if self.chol is None:
            sol, _, _, sv = np.linalg.lstsq(X, targets, rcond=None)
            self.condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        else:
            L = self.chol
            sol = np.linalg.solve(L.T, np.linalg.solve(L, X.T @ targets))
        return X @ sol


def solve_theta_bsde(scenario, paths=None, terminal_values=None):
    """Backward regression sweep; returns the solution triplet ensembles.

    ``paths`` reuses a pre-simulated ensemble (common-path experiments);
    ``terminal_values`` overrides the payoff with per-path terminal data
    (nested tower-property solves).
    """
    sc = scenario
    sc.driver.check(sc.uset, sc.sde.dim_b)
    ens = paths if paths is not None else simulate_forward(
        sc.sde, sc.grid, sc.n_paths, sc.seed)
    grid = ens.grid
    n = grid.n_steps
    dt = grid.dt
    times = grid.times
    X, dB = ens.states, ens.increments
    n_paths = ens.n_paths
    db = dB.shape[2]

    has_argmax = sc.driver.has_argmax
    # a y-independent driver makes the Picard map constant in y, so its
    # first evaluation is the fixed point and also yields the maximizer
    y_free = not sc.driver.depends_on_y()
    Y = np.empty((n_paths, n + 1))
    Z = np.zeros((n_paths, n + 1, db))
    A = np.empty((n_paths, n + 1, sc.uset.dim)) if has_argmax else None

    if terminal_values is not None:
        Y[:, n] = np.asarray(terminal_values, dtype=float)
    else:
        Y[:, n] = sc.terminal.value(X[:, n])

    conds = []
    fallbacks = 0
    degenerate = False
    # per node: largest distance from a row of A to the set
    a_dists = []
    picard = max(1, sc.picard_iters)
    # per-path total of terminal + accumulated driver, for the Y0 stderr
    accum = Y[:, n].copy()
    for i in range(n - 1, -1, -1):
        proj = _Projector(_design_matrix(X[:, i], sc.regression_degree))
        Ey = proj.fit(Y[:, i + 1])
        Zi = proj.fit((Y[:, i + 1] - Ey)[:, None] * dB[:, i] / dt)
        conds.append(proj.condition)
        fallbacks += proj.fallback
        Z[:, i] = Zi
        if i == n - 1:
            # the terminal Z is the regression of xi * dB / dt on the same
            # design, i.e. exactly this node's Z
            Z[:, n] = Zi
            if has_argmax:
                astar, _, deg = maximizer(sc.driver, sc.uset, times[n], X[:, n],
                                          Y[:, n], Z[:, n])
                A[:, n] = astar
                degenerate = degenerate or deg
                a_dists.append(np.max(sc.uset.project_batch(astar).distance))

        if y_free:
            if has_argmax:
                astar, f, deg = maximizer(sc.driver, sc.uset, times[i], X[:, i],
                                          Ey, Zi)
            else:
                f, _ = effective_driver(sc.driver, sc.uset, times[i], X[:, i], Ey, Zi)
            Yk = Ey + dt * f
        else:
            Yk = Ey
            for _ in range(picard):
                f, _ = effective_driver(sc.driver, sc.uset, times[i], X[:, i], Yk, Zi)
                Ynew = Ey + dt * f
                if np.max(np.abs(Ynew - Yk)) <= 1e-12:
                    Yk = Ynew
                    break
                Yk = Ynew
        if sc.y_clip is not None:
            Yk = np.clip(Yk, sc.y_clip[0], sc.y_clip[1])
        Y[:, i] = Yk
        accum += dt * f

        if has_argmax:
            if not y_free:
                astar, _, deg = maximizer(sc.driver, sc.uset, times[i], X[:, i],
                                          Y[:, i], Zi)
            A[:, i] = astar
            degenerate = degenerate or deg
            a_dists.append(np.max(sc.uset.project_batch(astar).distance))

    if not np.all(np.isfinite(Y)) or not np.all(np.isfinite(Z)):
        raise EngineError("solver produced non-finite values")

    diagnostics = {
        "max_condition": float(np.max(conds)),
        "lstsq_fallbacks": fallbacks,
        "degenerate_argmax": bool(degenerate),
        "unsound_for_existence": sc.driver.unsound_for_existence(sc.uset),
    }
    if A is not None:
        diagnostics["max_a_distance"] = float(np.max(a_dists))

    Y0 = float(np.mean(Y[:, 0]))
    stderr = float(np.std(accum) / np.sqrt(n_paths))
    return BsdeSolution(grid=grid, Y=Y, Z=Z, A=A, Y0=Y0, stderr=stderr,
                        regression_degree=sc.regression_degree,
                        diagnostics=diagnostics)


def theta_expectation(solution, t_index):
    """Cross-path summary of Y at a node; per-path values live on the
    solution object."""
    if not 0 <= t_index <= solution.grid.n_steps:
        raise EngineError("t_index outside the grid")
    return float(np.mean(solution.Y[:, t_index]))


def axiom_check(scenario, axiom, params=None):
    """Numeric check of one valuation axiom; returns a report dict."""
    params = dict(params or {})
    if axiom == "normalization":
        m = float(params.get("m", 1.0))
        sc = replace(scenario, terminal=Payoff([m]))
        sol = solve_theta_bsde(sc)
        disc = float(np.max(np.abs(sol.Y - m)))
        tol = float(params.get("tol", 1e-12))
        return {"axiom": axiom, "passed": disc <= tol, "discrepancy": disc,
                "tol": tol}

    ens = simulate_forward(scenario.sde, scenario.grid, scenario.n_paths,
                           scenario.seed)

    if axiom == "A1_monotonicity":
        terminal2 = params["terminal2"]
        xi1 = scenario.terminal.value(ens.states[:, -1])
        xi2 = terminal2.value(ens.states[:, -1])
        if np.any(xi1 < xi2):
            raise EngineError("A1 requires terminal1 >= terminal2 on the sample")
        sol1 = solve_theta_bsde(scenario, paths=ens)
        sc2 = replace(scenario, terminal=terminal2)
        sol2 = solve_theta_bsde(sc2, paths=ens)
        diff = sol1.Y - sol2.Y
        viol = diff < -1e-12
        frac = float(np.mean(viol))
        worst = float(max(0.0, -diff.min()))
        stderr = float(np.max(np.std(diff, axis=0)) / np.sqrt(ens.n_paths))
        passed = frac <= 0.005 and worst <= 3.0 * stderr + 1e-12
        return {"axiom": axiom, "passed": passed, "discrepancy": worst,
                "violation_fraction": frac, "stderr": stderr}

    if axiom == "A2_translation":
        if scenario.driver.depends_on_y():
            raise EngineError("A2 check requires a y-independent driver")
        m = float(params.get("m", 1.0))
        sol1 = solve_theta_bsde(scenario, paths=ens)
        shifted = Payoff(np.concatenate(([scenario.terminal.coeffs[0] + m],
                                         scenario.terminal.coeffs[1:])),
                         clamp=None)
        if scenario.terminal.clamp is not None:
            raise EngineError("A2 shift check does not support clamped payoffs")
        sc2 = replace(scenario, terminal=shifted)
        sol2 = solve_theta_bsde(sc2, paths=ens)
        disc = float(np.max(np.abs(sol2.Y - sol1.Y - m)))
        tol = float(params.get("tol", 1e-12))
        return {"axiom": axiom, "passed": disc <= tol, "discrepancy": disc,
                "tol": tol}

    if axiom == "A3_tower":
        s_index = int(params["s_index"])
        if not 0 <= s_index <= scenario.grid.n_steps:
            raise EngineError("s_index outside the grid")
        sol = solve_theta_bsde(scenario, paths=ens)
        if s_index == 0:
            return {"axiom": axiom, "passed": True, "discrepancy": 0.0,
                    "stderr": sol.stderr}
        nested = solve_theta_bsde(scenario, paths=ens.truncated(s_index),
                                  terminal_values=sol.Y[:, s_index])
        disc = float(abs(nested.Y0 - sol.Y0))
        stderr = float(np.hypot(sol.stderr, nested.stderr))
        passed = disc <= 3.0 * stderr + 1e-12
        return {"axiom": axiom, "passed": passed, "discrepancy": disc,
                "stderr": stderr}

    raise EngineError(f"unknown axiom {axiom!r}")
