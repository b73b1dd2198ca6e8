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

from .ambient import (as_integer, as_number, as_pair, as_seed, require_finite,
                      row_sum)
from .drivers import effective_driver, maximizer


class EngineError(ValueError):
    pass


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    T: float
    n_steps: int

    def __post_init__(self):
        t0 = as_number(EngineError, self.t0, "t0")
        for name, value in (
                ("t0", t0), ("T", as_number(EngineError, self.T, "T", above=t0)),
                ("n_steps", as_integer(EngineError, self.n_steps, "n_steps", 1))):
            object.__setattr__(self, name, value)

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
        require_finite(EngineError, self, ("x0", "drift_const", "drift_t",
                                           "drift_lin", "vol_const", "vol_lin"))

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


@dataclass
class Payoff:
    """Terminal map phi(x) = coeffs[0] + sum_j sum_{k>=1} coeffs[k] x_j^k,
    optionally clamped to [clamp_lo, clamp_hi]."""

    coeffs: np.ndarray
    clamp: Optional[tuple] = None

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if (self.coeffs.ndim != 1 or self.coeffs.size == 0
                or not np.all(np.isfinite(self.coeffs))):
            raise EngineError("coeffs must be a non-empty list of finite "
                              f"numbers, got {self.coeffs.tolist()}")
        if self.clamp is not None:
            self.clamp = as_pair(EngineError, self.clamp, "clamp")

    def value(self, XT):
        XT = np.atleast_2d(np.asarray(XT, dtype=float))
        out = np.full(XT.shape[0], self.coeffs[0])
        for k in range(1, self.coeffs.size):
            if self.coeffs[k] != 0.0:
                out = out + self.coeffs[k] * row_sum(XT ** k)
        if self.clamp is not None:
            out = np.clip(out, self.clamp[0], self.clamp[1])
        return out


def _swap(a):
    """Path-major view of a node-major array and back; None stays None."""
    return None if a is None else np.swapaxes(a, 0, 1)


@dataclass
class PathEnsemble:
    """Simulated paths. ``simulate_forward`` stores both arrays node-major
    and read-only, and hands out their path-major transpose views, so
    ``states[:, i]`` is one contiguous row; arrays with other strides are
    read correctly too.

    The first solve that reaches a node keeps that node's regression basis
    on the ensemble, and every later solve on it, or on a ``truncated``
    ensemble, reuses it. So an ensemble's arrays must not change after its
    first solve."""

    grid: TimeGrid
    n_paths: int
    seed: int
    increments: np.ndarray  # (n_paths, n_steps, dim_b)
    states: np.ndarray      # (n_paths, n_steps + 1, dim_x)
    # (regression_degree, node) -> _Basis, filled by solve_theta_bsde
    _bases: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def truncated(self, n_steps):
        """The first ``n_steps`` steps; shares the basis records, since
        its nodes are this ensemble's nodes 0..n_steps."""
        if not 1 <= n_steps <= self.grid.n_steps:
            raise EngineError(f"need 1 <= n_steps <= {self.grid.n_steps}, "
                              f"got {n_steps}")
        sub = PathEnsemble(self.grid.truncated(n_steps), self.n_paths,
                           self.seed,
                           self.increments[:, :n_steps],
                           self.states[:, :n_steps + 1])
        sub._bases = self._bases
        return sub


# paths per Philox draw: a block's transpose into the node-major buffer
# stays in cache
_DRAW_BLOCK = 256


def brownian_increments(grid, n_paths, seed, dim_b):
    """Counter-based (Philox) draws; regeneration is bit-identical.

    The stream is drawn path-major, block by block, which continues it
    exactly as one draw would; each block is scaled straight into its
    columns of the node-major buffer. Returns the read-only
    (n_paths, n_steps, dim_b) transpose view."""
    n_paths = as_integer(EngineError, n_paths, "n_paths", 1)
    seed = as_seed(EngineError, seed)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    out = np.empty((grid.n_steps, n_paths, dim_b))
    scale = np.sqrt(grid.dt)
    for p in range(0, n_paths, _DRAW_BLOCK):
        draw = gen.standard_normal((min(_DRAW_BLOCK, n_paths - p),
                                    grid.n_steps, dim_b))
        for j in range(dim_b):  # 2-d transposes: long inner loops
            np.multiply(draw[:, :, j].T, scale, out=out[:, p:p + len(draw), j])
    out.flags.writeable = False
    return _swap(out)


def simulate_forward(sde, grid, n_paths, seed):
    """Euler scheme for the forward diffusion on the shared time grid; the
    ensemble's arrays are read-only, so a kept basis cannot go stale."""
    dB = brownian_increments(grid, n_paths, seed, sde.dim_b)
    n_paths = len(dB)
    steps = _swap(dB)
    X = np.empty((grid.n_steps + 1, n_paths, sde.dim_x))
    X[0] = sde.x0
    times = grid.times
    dt = grid.dt
    for i in range(grid.n_steps):
        Xi = X[i]
        X[i + 1] = Xi + sde.drift(times[i], Xi) * dt + sde.vol_mul(times[i], Xi, steps[i])
    X.flags.writeable = False
    return PathEnsemble(grid, n_paths, int(seed), dB, _swap(X))


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

    def __post_init__(self):
        for name, least in (("n_paths", 1), ("picard_iters", 1),
                            ("regression_degree", 0)):
            setattr(self, name, as_integer(EngineError, getattr(self, name),
                                           name, least))
        self.seed = as_seed(EngineError, self.seed)
        if self.y_clip is not None:
            self.y_clip = as_pair(EngineError, self.y_clip, "y_clip")


@dataclass
class BsdeSolution:
    """Solution ensembles; every per-path array is the path-major transpose
    view of a node-major buffer, so ``Y[:, i]`` is one contiguous row.
    ``Y`` is always kept; the other arrays are None unless the solve was
    asked to keep them (``A`` and the projection record also need a driver
    with an argmax)."""

    grid: TimeGrid
    Y: np.ndarray                 # (n_paths, n_steps + 1)
    Z: Optional[np.ndarray]       # (n_paths, n_steps + 1, dim_b)
    A: Optional[np.ndarray]       # (n_paths, n_steps + 1, dim_a)
    Y0: float
    stderr: float
    diagnostics: dict = field(default_factory=dict)
    # the maximizer's projection record per node, (n_paths, n_steps + 1)
    member_index: Optional[np.ndarray] = None
    medial_gap: Optional[np.ndarray] = None


# per-node records that solve_theta_bsde can keep for every node
KEEPABLE = ("Z", "A", "projection")


# Design condition number (2-norm) above which the normal equations would
# lose too many digits; such a node is solved by SVD least squares instead.
_MAX_CONDITION = 1e6


def _monomial_rows(Xi, degree):
    """The constant and every monomial of ``Xi`` up to ``degree``, raw, as
    the rows of one (k, n) array. Built feature-major: each monomial is its
    parent (the same index tuple less its last entry) times one coordinate,
    so every operation runs on a contiguous row."""
    n, dim_x = Xi.shape
    coords = np.ascontiguousarray(Xi.T)
    monomials = [c for total in range(1, degree + 1)
                 for c in itertools.combinations_with_replacement(range(dim_x), total)]
    rows = np.empty((len(monomials) + 1, n))
    rows[0] = 1.0
    row_of = {(): 0}
    for r, c in enumerate(monomials, start=1):
        # a degree-1 parent is the constant row, and 1.0 * x is x bitwise
        np.multiply(rows[row_of[c[:-1]]], coords[c[-1]], out=rows[r])
        row_of[c] = r
    return rows


def _standardized(rows, scaling):
    """The (n, k) design view of the raw ``rows``, each kept monomial centred
    and scaled into its slot behind the constant: the one place a design
    row is standardized, so a rebuilt design is bitwise the measured one."""
    # row r is read before a later write can reach it
    for k, (r, mu, sd) in enumerate(scaling, start=1):
        np.subtract(rows[r], mu, out=rows[k])
        rows[k] /= sd
    return rows[:len(scaling) + 1].T


@dataclass(frozen=True)
class _Basis:
    """One node's regression, measured once by the first solve that reaches
    the node: the constant plus the monomials up to ``degree`` that vary,
    each kept as (raw row, mean, sd); the Cholesky factor of the design's
    Gram matrix; and the design's condition number. A design whose
    condition passes ``_MAX_CONDITION``, or whose Gram matrix is not
    positive definite, has no factor; it is fitted by ``lstsq``, and its
    condition is the ratio of its extreme singular values."""

    degree: int
    scaling: list
    chol: Optional[np.ndarray]
    condition: float

    @classmethod
    def measure(cls, Xi, degree):
        """The record of states ``Xi`` and its design. Each monomial's mean
        and sd are measured on one (n,) scratch row, bitwise ``np.mean`` and
        ``np.std``, and the raw rows become the design in place: a (k, n)
        temporary at every node would cost fresh pages."""
        rows = _monomial_rows(Xi, degree)
        n = len(Xi)
        sq = np.empty(n)
        scaling = []
        for r in range(1, len(rows)):
            mu = rows[r].sum() / n
            np.subtract(rows[r], mu, out=sq)
            np.multiply(sq, sq, out=sq)
            sd = np.sqrt(sq.sum() / n)
            if sd > 1e-12:
                scaling.append((r, mu, sd))
        design = _standardized(rows, scaling)
        gram = design.T @ design
        eig = np.linalg.eigvalsh(gram)
        if eig[0] > 0:
            condition = float(np.sqrt(eig[-1] / eig[0]))
            if condition <= _MAX_CONDITION:
                try:
                    return cls(degree, scaling, np.linalg.cholesky(gram),
                               condition), design
                except np.linalg.LinAlgError:
                    pass
        sv = np.linalg.svd(design, compute_uv=False)
        return cls(degree, scaling, None, float(sv[0] / sv[-1])
                   if sv[-1] > 0 else np.inf), design

    def design(self, Xi):
        """The (n, k) design of states ``Xi``, bitwise ``measure``'s."""
        return _standardized(_monomial_rows(Xi, self.degree), self.scaling)

    def fit(self, design, targets):
        """Least-squares coefficients of ``targets`` (n,) or (n, m) on a
        design of this record."""
        if self.chol is None:
            return np.linalg.lstsq(design, targets, rcond=None)[0]
        half = np.linalg.solve(self.chol, design.T @ targets)
        return np.linalg.solve(self.chol.T, half)


@dataclass(eq=False)
class BackwardTrack:
    """One scenario's state in ``backward_sweep``: ``y`` and ``z`` are its
    ``Y`` and ``Z`` rows at the node last yielded (``z`` is None at the
    terminal node), and ``accum`` is its per-path terminal plus accumulated
    driver, for the Y0 stderr. ``Z``, ``A``, ``member_index`` and
    ``medial_gap`` are the node-major records it keeps for every node, or
    None."""

    scenario: Scenario
    y: np.ndarray                 # (n_paths,)
    accum: np.ndarray             # (n_paths,)
    z: Optional[np.ndarray] = None    # (n_paths, dim_b)
    Z: Optional[np.ndarray] = None    # (n_steps + 1, n_paths, dim_b)
    A: Optional[np.ndarray] = None    # (n_steps + 1, n_paths, dim_a)
    member_index: Optional[np.ndarray] = None  # (n_steps + 1, n_paths)
    medial_gap: Optional[np.ndarray] = None    # (n_steps + 1, n_paths)


def backward_sweep(scenarios, paths, terminal_values=None, keep=()):
    """The backward regression loop, run once over ``scenarios`` on their
    common ensemble ``paths``. A generator: it yields ``(i, tracks)`` for
    i = n, n - 1, ..., 0, once every scenario's ``BackwardTrack`` in
    ``tracks`` holds its rows at node i; a track keeps no other node's
    ``Y`` or ``Z`` unless ``keep`` names "Z".

    Each node's design is built once, or measured by the first sweep on
    ``paths`` that reaches it, and every scenario fits its own ``E[Y_{i+1}
    | X_i]`` and ``Z_i`` on it, so the scenarios must share
    ``regression_degree``. Each keeps its own driver, set, terminal,
    Picard count and ``y_clip``. ``terminal_values`` and ``keep`` apply to
    every scenario, as in ``solve_theta_bsde``.
    """
    # one name on its own is a name, not a sequence of letters
    keep = {keep} if isinstance(keep, str) else set(keep)
    if not keep <= set(KEEPABLE):
        raise EngineError(f"cannot keep {sorted(keep - set(KEEPABLE))}, "
                          f"only a subset of {KEEPABLE}")
    degrees = {sc.regression_degree for sc in scenarios}
    if len(degrees) != 1:
        raise EngineError("one sweep needs one regression_degree, got "
                          f"{sorted(degrees)}")
    (degree,) = degrees
    grid = paths.grid
    n = grid.n_steps
    dt = grid.dt
    times = grid.times
    # node-major reads, contiguous for an ensemble from simulate_forward
    X, dB = _swap(paths.states), _swap(paths.increments)
    n_paths = paths.n_paths
    db = dB.shape[2]

    def driver_at(t, i, y, z):
        """max_a F of track ``t`` at node i; an argmax driver also writes
        node i of each kept record, and nothing else outlives the call."""
        sc = t.scenario
        if not sc.driver.has_argmax:
            return effective_driver(sc.driver, sc.uset, times[i], X[i], y, z)
        rec, f = maximizer(sc.driver, sc.uset, times[i], X[i], y, z)
        if t.A is not None:
            t.A[i] = rec.point
        if t.member_index is not None:
            t.member_index[i] = rec.member_index
            t.medial_gap[i] = rec.medial_gap
        return f

    tracks = []
    for sc in scenarios:
        sc.driver.check(sc.uset, sc.sde.dim_x, sc.sde.dim_b)
        y = np.empty(n_paths)
        y[:] = (sc.terminal.value(X[n]) if terminal_values is None
                else np.asarray(terminal_values, dtype=float))
        _require_finite(n, y)
        has_argmax = sc.driver.has_argmax
        projection = has_argmax and "projection" in keep
        tracks.append(BackwardTrack(
            sc, y, y.copy(),
            Z=np.empty((n + 1, n_paths, db)) if "Z" in keep else None,
            A=(np.empty((n + 1, n_paths, sc.uset.dim))
               if has_argmax and "A" in keep else None),
            member_index=(np.empty((n + 1, n_paths), dtype=np.int64)
                          if projection else None),
            medial_gap=np.empty((n + 1, n_paths)) if projection else None))
    y_free = [not sc.driver.depends_on_y() for sc in scenarios]
    yield n, tracks

    for i in range(n - 1, -1, -1):
        basis = paths._bases.get((degree, i))
        if basis is None:
            basis, design = _Basis.measure(X[i], degree)
            paths._bases[degree, i] = basis
        else:
            design = basis.design(X[i])
        for t, free in zip(tracks, y_free):
            sc = t.scenario
            records = t.A is not None or t.member_index is not None
            # the previous node's rows are freed once read, as a single
            # solve frees them; held through the Picard loop, they fragment
            # the heap and raise peak RSS
            t.z = None
            Ey = design @ basis.fit(design, t.y)
            Zi = design @ basis.fit(design, (t.y - Ey)[:, None] * dB[i] / dt)
            if t.Z is not None:
                t.Z[i] = Zi
            if i == n - 1:
                # Z_n, the regression of xi * dB / dt on node n - 1's
                # design, is exactly Z_{n-1}; the terminal maximizer runs
                # at it
                if t.Z is not None:
                    t.Z[n] = Zi
                if records:
                    driver_at(t, n, t.y, Zi)
            t.y = None

            # one pass is the fixed point of a y-free driver's Picard map,
            # and its maximizer is the one at the final Y_i
            picard = 1 if free else sc.picard_iters
            Yk = Ey
            for k in range(1, picard + 1):
                f = driver_at(t, i, Yk, Zi)
                Yk, Yprev = Ey + dt * f, Yk
                # converged: stop early; the last pass stops anyway
                if k < picard and np.max(np.abs(Yk - Yprev)) <= 1e-12:
                    break
            if sc.y_clip is not None:
                Yk = np.clip(Yk, sc.y_clip[0], sc.y_clip[1])
            _require_finite(i, Yk, Zi)
            t.y, t.z = Yk, Zi
            t.accum += dt * f

            if records and not free:
                # the last pass ran at the previous iterate; record at Y_i
                driver_at(t, i, Yk, Zi)
        yield i, tracks


def solve_theta_bsde(scenario, paths=None, terminal_values=None, keep=()):
    """Backward regression sweep; returns the solution ensembles.

    Each node's ``Y`` is the fixed point of ``y -> E[Y_{i+1} | X_i] + dt *
    max_a F(y, Z_i)``, from at most ``picard_iters`` Picard passes, or one
    for a y-free driver, whose map is constant in y. Each pass evaluates
    the driver once, through ``maximizer`` when it has an argmax;
    ``degenerate_argmax`` means it has an argmax but no query.

    ``paths`` reuses a pre-simulated ensemble (common-path experiments),
    and with it the regression basis of every node that an earlier solve
    on it reached; ``terminal_values`` overrides the payoff with per-path
    terminal data (nested tower-property solves). The solution holds ``Y``
    for every node; each node's ``Z`` and maximizer live only for that
    node's step, unless ``keep`` (a subset of ``KEEPABLE``) names them:
    "Z", "A" (the maximizer's point) and "projection" (the member index
    and medial gap of its projection) are then kept for every node, at
    the final ``Y_i``: a y-dependent driver's maximizer runs once more there.
    This is ``backward_sweep`` over the one scenario.
    """
    sc = scenario
    ens = paths if paths is not None else simulate_forward(
        sc.sde, sc.grid, sc.n_paths, sc.seed)
    n = ens.grid.n_steps
    Y = np.empty((n + 1, ens.n_paths))
    for i, (track,) in backward_sweep([sc], ens, terminal_values, keep):
        Y[i] = track.y

    bases = [ens._bases[sc.regression_degree, i] for i in range(n)]
    diagnostics = {
        "max_condition": max(b.condition for b in bases),
        "lstsq_fallbacks": sum(b.chol is None for b in bases),
        "degenerate_argmax": sc.driver.has_argmax and sc.driver.query is None,
        "unsound_for_existence": sc.driver.unsound_for_existence(sc.uset),
    }

    Y0 = float(np.mean(Y[0]))
    stderr = float(np.std(track.accum) / np.sqrt(ens.n_paths))
    return BsdeSolution(grid=ens.grid, Y=_swap(Y), Z=_swap(track.Z),
                        A=_swap(track.A), Y0=Y0, stderr=stderr,
                        diagnostics=diagnostics,
                        member_index=_swap(track.member_index),
                        medial_gap=_swap(track.medial_gap))


def _require_finite(i, *values):
    """Raise naming node ``i`` when any of ``values`` is not finite."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise EngineError(f"solver produced non-finite values at node {i}")


def theta_expectation(solution, t_index):
    """Cross-path summary of Y at a node; per-path values live on the
    solution object."""
    t_index = as_integer(EngineError, t_index, "t_index")
    if not 0 <= t_index <= solution.grid.n_steps:
        raise EngineError("t_index outside the grid")
    return float(np.mean(solution.Y[:, t_index]))


AXIOM_PARAMS = {"normalization": ("m", "tol"),
                "A1_monotonicity": ("terminal2",),
                "A2_translation": ("m", "tol"), "A3_tower": ("s_index",)}
AXIOMS = tuple(AXIOM_PARAMS)


def check_axiom(scenario, axiom, params):
    """Preconditions of ``axiom_check`` that need no sample; returns a copy
    of ``params`` with the numbers the axiom reads parsed, defaults filled."""
    if axiom not in AXIOMS:
        raise EngineError(f"unknown axiom {axiom!r}, expected one of {AXIOMS}")
    for name in params:
        if name not in AXIOM_PARAMS[axiom]:
            raise EngineError(f"{axiom} reads only {AXIOM_PARAMS[axiom]}, "
                              f"not {name!r}")
    params = dict(params)
    if axiom in ("normalization", "A2_translation"):
        params["m"] = as_number(EngineError, params.get("m", 1.0), "m")
        params["tol"] = as_number(EngineError, params.get("tol", 1e-12), "tol")
    if axiom == "A1_monotonicity" and "terminal2" not in params:
        raise EngineError("A1 check needs a second terminal 'terminal2'")
    if axiom == "A2_translation":
        if scenario.driver.depends_on_y():
            raise EngineError("A2 check requires a y-independent driver")
        if scenario.terminal.clamp is not None:
            raise EngineError("A2 shift check does not support clamped payoffs")
    if axiom == "A3_tower":
        if "s_index" not in params:
            raise EngineError("A3 check needs 's_index'")
        params["s_index"] = as_integer(EngineError, params["s_index"],
                                       "s_index")
        if not 0 <= params["s_index"] <= scenario.grid.n_steps:
            raise EngineError("s_index outside the grid")
    return params


def axiom_check(scenario, axiom, params=None):
    """Numeric check of one valuation axiom; returns a report dict."""
    params = check_axiom(scenario, axiom, params or {})
    if axiom == "normalization":
        m, tol = params["m"], params["tol"]
        sc = replace(scenario, terminal=Payoff([m]))
        sol = solve_theta_bsde(sc)
        disc = float(np.max(np.abs(sol.Y - m)))
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
        m, tol = params["m"], params["tol"]
        sol1 = solve_theta_bsde(scenario, paths=ens)
        shifted = Payoff(np.concatenate(([scenario.terminal.coeffs[0] + m],
                                         scenario.terminal.coeffs[1:])))
        sc2 = replace(scenario, terminal=shifted)
        sol2 = solve_theta_bsde(sc2, paths=ens)
        disc = float(np.max(np.abs(sol2.Y - sol1.Y - m)))
        return {"axiom": axiom, "passed": disc <= tol, "discrepancy": disc,
                "tol": tol}

    # A3_tower, the last name check_axiom lets through
    s_index = params["s_index"]
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
