"""Forward simulation and the regression Monte Carlo backward solver.

The backward pass follows the standard least-squares scheme on a polynomial
basis of the forward state: at each node the conditional expectation of the
next value is regressed, the volatility component comes from regressing the
centered next value against the Brownian increment, the driver is evaluated
at its pointwise maximum over the uncertainty set, and the adversarial
parameter path is read off from the maximizer map.
"""

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .ambient import (as_integer, as_number, as_pair, as_seed, col_product,
                      require_finite, row_sum)
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
        for name in ("dim_x", "dim_b"):
            setattr(self, name, as_integer(EngineError, getattr(self, name),
                                           name, 1))
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

    def _drift_terms(self, t, X):
        """The drift terms this SDE has, summed left to right in the order
        of the fields, or None without any: a (dim_x,) row without
        ``drift_lin``, else a column-major (n, dim_x) array."""
        out = self.drift_const
        if self.drift_t is not None:
            out = t * self.drift_t if out is None else out + t * self.drift_t
        if self.drift_lin is not None:
            lin = col_product(X, self.drift_lin)
            out = lin if out is None else np.add(lin, out, out=lin)
        return out

    def _vol_terms(self, X, dB):
        """sigma(t, X) @ dB over the terms this SDE has, a column-major
        (n, dim_x) array, or None without any."""
        out = None
        if self.vol_const is not None:
            out = col_product(dB, self.vol_const)
        if self.vol_lin is not None:
            lin = np.einsum("nj,ijk,nk->ni", X, self.vol_lin, dB)
            out = lin if out is None else np.add(out, lin, out=out)
        return out

    def drift(self, t, X):
        out = np.zeros_like(X)
        terms = self._drift_terms(t, X)
        if terms is not None:
            out += terms
        return out

    def step(self, t, dt, X, dB):
        """One Euler step, bitwise ``X + drift(t, X) * dt + sigma(t, X) @
        dB`` with both sums started from zeros, signed zeros included, with
        no zero arrays: it starts from the volatility product and adds only
        the terms this SDE has. It can differ from the zero-started sums
        only in the sign of a zero; they hold no -0.0, and the closing
        ``+ 0.0`` clears every -0.0.
        ``simulate_forward`` and ``PathEnsemble.replay`` both take this
        step, so a rebuilt state is bitwise the one the forward pass
        reached."""
        out = self._vol_terms(X, dB)
        drift = self._drift_terms(t, X)
        if drift is not None:
            X = X + drift * dt
        if out is None:
            return X + 0.0
        out += X
        out += 0.0
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


def _paths_view(buf):
    """The (n_paths, nodes, dim) view of a (nodes, dim, n_paths) buffer,
    whose node rows ``_swap(view)[i]`` are column-major (n_paths, dim)."""
    return buf.transpose(2, 0, 1)


@dataclass
class PathEnsemble:
    """Simulated paths: the Brownian increments at every step, and the
    states X at the ``checkpoints`` only. ``sde`` is the diffusion that
    ``simulate_forward`` stepped the states with on ``grid``, and then the
    checkpoints are nodes 0 and n_steps; an ensemble built from arrays has
    no ``sde`` and holds every node. ``replay`` hands out every node's
    states, stepping each one between two checkpoints from the one below
    it with ``sde.step``, bitwise as the forward pass did.

    ``simulate_forward`` stores both arrays node-major in (nodes, dim,
    n_paths) buffers, read-only, and hands out their path-major transpose
    views, so ``states[:, j]`` is one column-major (n_paths, dim) row whose
    columns are contiguous; arrays with other strides are read correctly
    too."""

    grid: TimeGrid
    n_paths: int
    seed: int
    increments: np.ndarray  # (n_paths, n_steps, dim_b)
    states: np.ndarray      # (n_paths, len(checkpoints), dim_x)
    sde: Optional[SdeSpec] = None

    def __post_init__(self):
        self.n_paths = as_integer(EngineError, self.n_paths, "n_paths", 1)
        n = self.grid.n_steps
        for name, nodes in (("increments", n),
                            ("states", len(self.checkpoints))):
            shape = np.shape(getattr(self, name))
            if len(shape) != 3 or shape[:2] != (self.n_paths, nodes):
                raise EngineError(
                    f"{name} has shape {shape}, but {self.n_paths} paths on "
                    f"{n} steps need ({self.n_paths}, {nodes}, dim)")

    @property
    def checkpoints(self):
        """The nodes whose states ``states`` holds, in order."""
        n = self.grid.n_steps
        return [0, n] if self.sde is not None else list(range(n + 1))

    def replay(self):
        """Every node's states, X_n to X_0. Checkpoint rows are read, and
        the nodes strictly between two checkpoints lo and hi are rebuilt
        by bisection: step from X_lo to mid = (lo + hi) // 2 keeping only
        X_mid, hand out (mid, hi) that way, then X_mid, then (lo, mid).
        Between nodes 0 and n a replay takes T(n) Euler steps, T(1) = 0
        and T(L) = L // 2 + T(L - L // 2) + T(L // 2), at most
        n ceil(log2 n) / 2, and holds one rebuilt row per level of the
        bisection, at most ceil(log2 n), beside the one it steps; it lets
        go of each row as it hands it out."""
        X, nodes = _swap(self.states), self.checkpoints
        dB, times, dt = _swap(self.increments), self.grid.times, self.grid.dt

        def between(lo, x_lo, hi):
            """X_{hi-1}, ..., X_{lo+1}, from X_lo = ``x_lo``."""
            if hi - lo < 2:
                return
            mid = (lo + hi) // 2
            x = x_lo
            for i in range(lo, mid):
                x = self.sde.step(times[i], dt, x, dB[i])
            yield from between(mid, x, hi)
            yield x
            # held through the lower half, X_mid would add a row per level
            x = None
            yield from between(lo, x_lo, mid)

        yield X[-1]
        for j in range(len(nodes) - 2, -1, -1):
            yield from between(nodes[j], X[j], nodes[j + 1])
            yield X[j]

    def all_states(self):
        """Every node's states as one (n_paths, n_steps + 1, dim_x)
        transpose view of a (n_steps + 1, dim_x, n_paths) buffer, filled by
        one replay: each node's row is column-major."""
        n = self.grid.n_steps
        X = np.empty((n + 1, self.states.shape[2], self.n_paths))
        for i, x in zip(range(n, -1, -1), self.replay()):
            X[i] = x.T
        return _paths_view(X)


# paths per Philox draw: a block's transpose into the node-major buffer
# stays in cache
_DRAW_BLOCK = 256


def brownian_increments(grid, n_paths, seed, dim_b):
    """Counter-based (Philox) draws; regeneration is bit-identical.

    The stream is drawn path-major, block by block, which continues it
    exactly as one draw would; each block is scaled straight into its
    columns of the (n_steps, dim_b, n_paths) buffer, one 2-d transpose.
    Returns the read-only (n_paths, n_steps, dim_b) transpose view, whose
    rows ``[:, i]`` are column-major."""
    n_paths = as_integer(EngineError, n_paths, "n_paths", 1)
    dim_b = as_integer(EngineError, dim_b, "dim_b", 1)
    seed = as_seed(EngineError, seed)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    out = np.empty((grid.n_steps * dim_b, n_paths))
    scale = np.sqrt(grid.dt)
    for p in range(0, n_paths, _DRAW_BLOCK):
        draw = gen.standard_normal((min(_DRAW_BLOCK, n_paths - p),
                                    len(out)))
        np.multiply(draw.T, scale, out=out[:, p:p + len(draw)])
    out.flags.writeable = False
    return _paths_view(out.reshape(grid.n_steps, dim_b, n_paths))


def simulate_forward(sde, grid, n_paths, seed):
    """Euler scheme for the forward diffusion on the shared time grid. The
    ensemble keeps every increment, and the states only at its checkpoints,
    nodes 0 and n_steps, from which ``replay`` rebuilds every other node;
    both arrays are read-only. The random stream is that of
    ``brownian_increments``, and the states are stored as it stores the
    increments."""
    dB = brownian_increments(grid, n_paths, seed, sde.dim_b)
    steps = _swap(dB)
    X = np.empty((2, sde.dim_x, len(dB)))
    X[0] = sde.x0[:, None]
    x = X[0].T
    times = grid.times
    dt = grid.dt
    for i in range(grid.n_steps):
        x = sde.step(times[i], dt, x, steps[i])
    X[1] = x.T
    X.flags.writeable = False
    return PathEnsemble(grid, len(dB), int(seed), dB, _paths_view(X), sde)


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
        # the regression needs at least as many paths as basis columns
        columns = math.comb(self.sde.dim_x + self.regression_degree,
                            self.regression_degree)
        if columns > self.n_paths:
            raise EngineError(
                f"regression_degree {self.regression_degree} on dim_x "
                f"{self.sde.dim_x} needs {columns} basis columns, more than "
                f"n_paths = {self.n_paths}")
        if self.y_clip is not None:
            self.y_clip = as_pair(EngineError, self.y_clip, "y_clip")


@dataclass
class BsdeSolution:
    """Solution ensembles; every per-path array is the path-major transpose
    view of a node-major buffer, so ``Y[:, i]`` is one contiguous row.
    Each array is None unless the solve was asked to keep it (``A`` also
    needs a driver with an argmax); ``Y0``, ``stderr`` and ``diagnostics``
    are always there."""

    grid: TimeGrid
    Y: Optional[np.ndarray]       # (n_paths, n_steps + 1)
    Z: Optional[np.ndarray]       # (n_paths, n_steps + 1, dim_b)
    A: Optional[np.ndarray]       # (n_paths, n_steps + 1, dim_a)
    Y0: float
    stderr: float
    diagnostics: dict = field(default_factory=dict)


# per-node records that solve_theta_bsde can keep for every node
KEEPABLE = ("Y", "Z", "A")


# Design condition number (2-norm) above which the normal equations would
# lose too many digits; such a node is solved by SVD least squares instead.
_MAX_CONDITION = 1e6


def _monomial_rows(Xi, degree, rows=None):
    """The constant and every monomial of ``Xi`` up to ``degree``, raw, as
    the rows of one (k, n) array, k = comb(dim_x + degree, degree): of
    ``rows`` when given, else a fresh one. Built feature-major: each
    monomial is its parent (the same index tuple less its last entry)
    times one coordinate, so every operation runs on a contiguous row.
    Coordinate j is read from its degree-1 row ``rows[1 + j]``, which is
    ``1.0 * x_j``, bitwise ``x_j``."""
    n, dim_x = Xi.shape
    monomials = [c for total in range(1, degree + 1)
                 for c in itertools.combinations_with_replacement(range(dim_x), total)]
    if rows is None:
        rows = np.empty((len(monomials) + 1, n))
    rows[0] = 1.0
    row_of = {(): 0}
    for r, c in enumerate(monomials, start=1):
        coord = Xi[:, c[0]] if len(c) == 1 else rows[1 + c[-1]]
        np.multiply(rows[row_of[c[:-1]]], coord, out=rows[r])
        row_of[c] = r
    return rows


@dataclass(frozen=True)
class _Basis:
    """One node's regression: the Cholesky factor of its design's Gram
    matrix, and the design's condition number. The design is the constant
    plus the standardized monomials up to the degree that vary. A design
    whose condition passes ``_MAX_CONDITION``, or whose Gram matrix is not
    positive definite, has no factor; it is fitted by ``lstsq``, and its
    condition is the ratio of its extreme singular values."""

    chol: Optional[np.ndarray]
    condition: float

    @classmethod
    def measure(cls, Xi, degree, rows=None):
        """The record of states ``Xi`` and its design, a view of ``rows``
        (see ``_monomial_rows``). Each monomial's mean and sd are bitwise
        ``np.mean`` and ``np.std``, and the raw rows become the design in
        place: a (k, n) temporary at every node would cost fresh pages.
        A row is centred once, straight into the slot it takes if it is
        kept, and its squares go to one (n,) scratch row."""
        rows = _monomial_rows(Xi, degree, rows)
        n = len(Xi)
        sq = np.empty(n)
        k = 0
        for r in range(1, len(rows)):
            # the slot behind the kept rows is at most r, so no unread row
            # is overwritten; a row that is dropped leaves it free again
            centred = rows[k + 1]
            np.subtract(rows[r], rows[r].sum() / n, out=centred)
            np.multiply(centred, centred, out=sq)
            sd = np.sqrt(sq.sum() / n)
            if sd > 1e-12:
                k += 1
                centred /= sd
        design = rows[:k + 1].T
        gram = design.T @ design
        eig = np.linalg.eigvalsh(gram)
        if eig[0] > 0:
            condition = float(np.sqrt(eig[-1] / eig[0]))
            if condition <= _MAX_CONDITION:
                try:
                    return cls(np.linalg.cholesky(gram), condition), design
                except np.linalg.LinAlgError:
                    pass
        sv = np.linalg.svd(design, compute_uv=False)
        return cls(None, float(sv[0] / sv[-1])
                   if sv[-1] > 0 else np.inf), design

    def fit(self, design, targets):
        """Least-squares coefficients of ``targets`` (n,) or (n, m) on a
        design of this record."""
        if self.chol is None:
            return np.linalg.lstsq(design, targets, rcond=None)[0]
        half = np.linalg.solve(self.chol, design.T @ targets)
        return np.linalg.solve(self.chol.T, half)


@dataclass(eq=False)
class BackwardTrack:
    """One scenario's rows in ``backward_sweep`` at the node last yielded:
    ``y`` and ``z`` are its ``Y`` and ``Z``, ``accum`` its per-path
    terminal plus accumulated driver, for the Y0 stderr, ``f`` the driver
    value whose ``dt * f`` this node added to ``accum`` (None at node n),
    and ``rec`` the maximizer's ``ProjectionResult`` at the final
    ``(Y_i, Z_i)`` when ``records`` asks for it and the driver has an
    argmax."""

    scenario: Scenario
    y: np.ndarray                 # (n_paths,)
    accum: np.ndarray             # (n_paths,)
    z: Optional[np.ndarray] = None    # (n_paths, dim_b)
    f: Optional[np.ndarray] = None    # (n_paths,)
    rec: Optional[object] = None

    def estimate(self):
        """``(Y0, stderr)`` at node 0: the path mean of ``y``, and the
        standard error of the mean of ``accum``."""
        return float(np.mean(self.y)), _stderr(self.accum)


def _stderr(accum):
    """The standard error of the path mean of ``accum``."""
    return float(np.std(accum) / np.sqrt(len(accum)))


def backward_sweep(scenarios, paths, terminal_values=None, records=False):
    """The backward regression loop, run once over ``scenarios`` on their
    common ensemble ``paths``. A generator: it yields ``(i, x, basis,
    tracks)`` for i = n, n - 1, ..., 0, once every scenario's
    ``BackwardTrack`` in ``tracks`` holds its rows at node i; ``x`` is
    node i's states, from one ``paths.replay``, and ``basis`` is node i's
    ``_Basis``, None at node n. No track keeps another node's rows.

    Node n is yielded once node n - 1's regression has run: ``Z_n``, the
    regression of the terminal values times ``dB / dt`` on node n - 1's
    design, is exactly ``Z_{n-1}``. With ``records``, every node's ``rec``
    is the maximizer's record at that node's final ``(Y_i, Z_i)``: a
    y-free driver's one Picard pass computes it, and node n and each node
    of a y-dependent driver take one more maximizer call.

    Each node's design is built once, in the sweep's one design buffer,
    and every scenario fits its own ``E[Y_{i+1} | X_i]`` and ``Z_i`` on
    it, so the scenarios must share ``regression_degree``. Each keeps its
    own driver, set, terminal, Picard count and ``y_clip``.
    ``terminal_values`` applies to every scenario, as in
    ``solve_theta_bsde``.
    """
    degrees = {sc.regression_degree for sc in scenarios}
    if len(degrees) != 1:
        raise EngineError("one sweep needs one regression_degree, got "
                          f"{sorted(degrees)}")
    (degree,) = degrees
    grid = paths.grid
    n = grid.n_steps
    dt = grid.dt
    times = grid.times
    # node-major reads, column-major rows for an ensemble from
    # simulate_forward
    dB = _swap(paths.increments)
    n_paths = paths.n_paths
    if terminal_values is not None:
        try:
            terminal_values = np.broadcast_to(
                np.asarray(terminal_values, dtype=float), (n_paths,))
        except ValueError:
            raise EngineError("terminal_values of shape "
                              f"{np.shape(terminal_values)} do not broadcast "
                              f"to {n_paths} paths") from None

    def driver_at(t, i, x, y, z, keep_rec):
        """max_a F of track ``t`` at node i; with ``keep_rec``, an argmax
        driver's record goes on the track, and nothing else outlives it."""
        sc = t.scenario
        if not sc.driver.has_argmax:
            return effective_driver(sc.driver, sc.uset, times[i], x, y, z)
        rec, f = maximizer(sc.driver, sc.uset, times[i], x, y, z)
        if keep_rec:
            t.rec = rec
        return f

    def fit(t, basis, design, i):
        """``E[Y_{i+1} | X_i]`` and ``Z_i`` of track ``t`` on node i's
        design."""
        Ey = design @ basis.fit(design, t.y)
        # the Z target (y - Ey) dB / dt in its one (n, dim_b) array,
        # C-ordered, since BLAS sums a column-major one in another order:
        # filled column by column, each read contiguous
        res, target = t.y - Ey, np.empty(dB[i].shape)
        for j in range(target.shape[1]):
            np.multiply(res, dB[i][:, j], out=target[:, j])
        target /= dt
        return Ey, design @ basis.fit(design, target)

    tracks = []
    states = paths.replay()
    x_n = next(states)
    for sc in scenarios:
        for name, have in (("dim_x", paths.states.shape[2]),
                           ("dim_b", dB.shape[2])):
            if getattr(sc.sde, name) != have:
                raise EngineError(f"sde.{name} is {getattr(sc.sde, name)}, "
                                  f"but the paths have {name} {have}")
        sc.driver.check(sc.uset, sc.sde.dim_x, sc.sde.dim_b)
        y = np.empty(n_paths)
        y[:] = (sc.terminal.value(x_n) if terminal_values is None
                else terminal_values)
        _require_finite(n, y)
        tracks.append(BackwardTrack(sc, y, y.copy()))
    y_free = [not sc.driver.depends_on_y() for sc in scenarios]
    wants_rec = [records and sc.driver.has_argmax for sc in scenarios]
    # every node's design is built over the last one's, which no fit reads
    # any more: a fresh (k, n_paths) block per node would cost fresh pages
    rows = np.empty((math.comb(x_n.shape[1] + degree, degree), n_paths))

    for i, x in zip(range(n - 1, -1, -1), states):
        basis, design = _Basis.measure(x, degree, rows)
        # the previous node's rows are freed once read, as a single solve
        # frees them; held through the fits, they fragment the heap and
        # raise peak RSS
        for t in tracks:
            t.z = t.f = t.rec = None
        pending = []
        if i == n - 1:
            # node n waits for every scenario's Z_{n-1}, which is its Z_n
            pending = [fit(t, basis, design, i) for t in tracks]
            for t, (_, Zi), want in zip(tracks, pending, wants_rec):
                t.z = Zi
                if want:
                    driver_at(t, n, x_n, t.y, Zi, True)
            yield n, x_n, None, tracks
        for t, free, want in zip(tracks, y_free, wants_rec):
            sc = t.scenario
            Ey, Zi = pending.pop(0) if pending else fit(t, basis, design, i)
            t.y = None

            # one pass is the fixed point of a y-free driver's Picard map,
            # and its maximizer is the one at the final Y_i
            picard = 1 if free else sc.picard_iters
            Yk = Ey
            for k in range(1, picard + 1):
                f = driver_at(t, i, x, Yk, Zi, want and free)
                Yk, Yprev = Ey + dt * f, Yk
                # converged: stop early; the last pass stops anyway
                if k < picard and np.max(np.abs(Yk - Yprev)) <= 1e-12:
                    break
            if sc.y_clip is not None:
                Yk = np.clip(Yk, sc.y_clip[0], sc.y_clip[1])
            _require_finite(i, Yk, Zi)
            if want and not free:
                driver_at(t, i, x, Yk, Zi, True)
            t.y, t.z, t.f = Yk, Zi, f
            t.accum += dt * f
        yield i, x, basis, tracks


def solve_theta_bsde(scenario, paths=None, terminal_values=None,
                     keep=("Y",)):
    """Backward regression sweep; returns the solution ensembles.

    Each node's ``Y`` is the fixed point of ``y -> E[Y_{i+1} | X_i] + dt *
    max_a F(y, Z_i)``, from at most ``picard_iters`` Picard passes, or one
    for a y-free driver, whose map is constant in y. Each pass evaluates
    the driver once, through ``maximizer`` when it has an argmax;
    ``degenerate_argmax`` means it has an argmax but no query.

    ``paths`` reuses a pre-simulated ensemble (common-path experiments);
    ``terminal_values`` overrides the payoff with per-path terminal data.
    Each node's ``Y``, ``Z`` and maximizer live only for that node's
    step, unless ``keep`` (a subset of ``KEEPABLE``) names them: "Y", "Z"
    and "A" (the maximizer's point at the final ``Y_i``) are then kept for
    every node. ``Y0``, its stderr and the diagnostics need none of them.
    This is ``backward_sweep`` over the one scenario, copying each yielded
    node's rows into what ``keep`` names.
    """
    # one name on its own is a name, not a sequence of letters
    keep = {keep} if isinstance(keep, str) else set(keep)
    if not keep <= set(KEEPABLE):
        raise EngineError(f"cannot keep {sorted(keep - set(KEEPABLE))}, "
                          f"only a subset of {KEEPABLE}")
    sc = scenario
    ens = paths if paths is not None else simulate_forward(
        sc.sde, sc.grid, sc.n_paths, sc.seed)
    n, n_paths = ens.grid.n_steps, ens.n_paths
    Y = np.empty((n + 1, n_paths)) if "Y" in keep else None
    Z = np.empty((n + 1, n_paths, sc.sde.dim_b)) if "Z" in keep else None
    A = (np.empty((n + 1, n_paths, sc.uset.dim))
         if sc.driver.has_argmax and "A" in keep else None)

    # a condition number is at least 1
    max_condition, fallbacks = 0.0, 0
    for i, _, basis, (track,) in backward_sweep([sc], ens, terminal_values,
                                                A is not None):
        if Y is not None:
            Y[i] = track.y
        if Z is not None:
            Z[i] = track.z
        if A is not None:
            A[i] = track.rec.point
        if basis is not None:
            max_condition = max(max_condition, basis.condition)
            fallbacks += basis.chol is None

    diagnostics = {
        "max_condition": max_condition,
        "lstsq_fallbacks": fallbacks,
        "degenerate_argmax": sc.driver.has_argmax and sc.driver.query is None,
        "unsound_for_existence": sc.driver.unsound_for_existence(sc.uset),
    }

    Y0, stderr = track.estimate()
    return BsdeSolution(grid=ens.grid, Y=_swap(Y), Z=_swap(Z), A=_swap(A),
                        Y0=Y0, stderr=stderr, diagnostics=diagnostics)


def _require_finite(i, *values):
    """Raise naming node ``i`` when any of ``values`` is not finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise EngineError(f"solver produced non-finite values at node {i}")


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
    ens = simulate_forward(scenario.sde, scenario.grid, scenario.n_paths,
                           scenario.seed)

    if axiom == "normalization":
        m, tol = params["m"], params["tol"]
        disc = 0.0
        for _, _, _, (track,) in backward_sweep(
                [replace(scenario, terminal=Payoff([m]))], ens):
            disc = max(disc, float(np.max(np.abs(track.y - m))))
        return {"axiom": axiom, "passed": disc <= tol, "discrepancy": disc,
                "tol": tol}

    if axiom == "A1_monotonicity":
        terminal2 = params["terminal2"]
        xi1 = scenario.terminal.value(ens.states[:, -1])
        xi2 = terminal2.value(ens.states[:, -1])
        if np.any(xi1 < xi2):
            raise EngineError("A1 requires terminal1 >= terminal2 on the sample")
        # both valuations run in one sweep, and their difference is folded
        # node by node: the violations, its minimum and its largest sd
        violations, lowest, sd = 0, np.inf, 0.0
        for _, _, _, (t1, t2) in backward_sweep(
                [scenario, replace(scenario, terminal=terminal2)], ens):
            diff = t1.y - t2.y
            violations += int(np.count_nonzero(diff < -1e-12))
            lowest = min(lowest, diff.min())
            sd = max(sd, np.std(diff))
        frac = violations / (ens.n_paths * (ens.grid.n_steps + 1))
        worst = float(max(0.0, -lowest))
        stderr = float(sd / np.sqrt(ens.n_paths))
        passed = frac <= 0.005 and worst <= 3.0 * stderr + 1e-12
        return {"axiom": axiom, "passed": passed, "discrepancy": worst,
                "violation_fraction": frac, "stderr": stderr}

    if axiom == "A2_translation":
        m, tol = params["m"], params["tol"]
        shifted = Payoff(np.concatenate(([scenario.terminal.coeffs[0] + m],
                                         scenario.terminal.coeffs[1:])))
        disc = 0.0
        for _, _, _, (t1, t2) in backward_sweep(
                [scenario, replace(scenario, terminal=shifted)], ens):
            disc = max(disc, float(np.max(np.abs(t2.y - t1.y - m))))
        return {"axiom": axiom, "passed": disc <= tol, "discrepancy": disc,
                "tol": tol}

    # A3_tower, the last name check_axiom lets through. The nested
    # valuation of Y_s on these paths would run the sweep's own nodes
    # s - 1, ..., 0 again: the same rows, designs and driver values. So it
    # is read off the one sweep: its accumulator is Y_s plus every lower
    # node's dt * f, and its Y0 is the sweep's own node-0 mean, which makes
    # the discrepancy 0.0 by construction (ROADMAP item 5: an out-of-sample
    # check on independent paths can fail).
    s = params["s_index"]
    dt = ens.grid.dt
    for i, _, _, (track,) in backward_sweep([scenario], ens):
        if i == s:
            nested = track.y.copy()
        elif i < s:
            nested += dt * track.f
    _, stderr = track.estimate()
    disc = 0.0
    if s > 0:
        stderr = float(np.hypot(stderr, _stderr(nested)))
    passed = disc <= 3.0 * stderr + 1e-12
    return {"axiom": axiom, "passed": passed, "discrepancy": disc,
            "stderr": stderr}
