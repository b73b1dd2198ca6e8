"""Driver families F(t, x, y, z, a), their maximizer maps and the reduced
driver max_a F.

All evaluation entry points are batched over the sample axis: ``x`` has
shape (n, dim_x), ``y`` shape (n,), ``z`` shape (n, dim_b) and ``a`` shape
(n, dim_a) or (dim_a,). Maximizers are closed-form: the metric projection
of the driver's query onto the set, or the set's fixed element where F
ignores a.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ambient import (as_number, as_point, col_product, off_diagonal,
                      require_finite, row_sq, row_sum, sym_vec_dim)
from .sets import Box, Ball, plain_result


class DriverError(ValueError):
    pass


def _batch_args(t, x, y, z):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z.reshape(1, -1)
    n = max(x.shape[0], y.shape[0], z.shape[0])
    if x.shape[0] == 1 and n > 1:
        x = np.broadcast_to(x, (n, x.shape[1]))
    if y.shape[0] == 1 and n > 1:
        y = np.broadcast_to(y, (n,))
    if z.shape[0] == 1 and n > 1:
        z = np.broadcast_to(z, (n, z.shape[1]))
    if not (x.shape[0] == y.shape[0] == z.shape[0]):
        raise DriverError("inconsistent batch sizes for (x, y, z)")
    return float(t), x, y, z


def embed_zz(z):
    """Batched ambient embedding of z^T z for row vectors z (n, d), as a
    column-major (n, d(d+1)/2) array."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z.reshape(1, -1)
    n, d = z.shape
    out = np.empty((sym_vec_dim(d), n)).T
    out[:, :d] = z * z
    # one product per off-diagonal pair, written into its contiguous column
    for k, (i, j) in enumerate(zip(*off_diagonal(d)), start=d):
        out[:, k] = np.sqrt(2.0) * z[:, i] * z[:, j]
    return out


@dataclass
class StateFn:
    """Affine map (t, x, y, z) -> c0 + c_t*t + C_x x + c_y*y + C_z z with
    values in R^m.

    ``c0``, ``c_t`` and ``c_y`` have shape (m,), ``C_x`` shape (m, dim_x)
    and ``C_z`` shape (m, dim_b); for m = 1 a number or a flat row will do.
    m is the length of ``c0``, or else of the first block given. Blocks may
    be None (treated as zero; ``c0`` as the zero vector); affinity keeps
    every Lipschitz constant computable exactly.
    """

    c0: Optional[np.ndarray] = None
    c_t: Optional[np.ndarray] = None
    C_x: Optional[np.ndarray] = None
    c_y: Optional[np.ndarray] = None
    C_z: Optional[np.ndarray] = None

    def __post_init__(self):
        m = None
        for name in ("c0", "c_t", "C_x", "c_y", "C_z"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=float)
            matrix = name.startswith("C")
            v = np.atleast_2d(v) if matrix else np.atleast_1d(v)
            m = len(v) if m is None else m
            if v.ndim != (2 if matrix else 1) or len(v) != m:
                raise DriverError(f"{name} has shape {v.shape}, not {m} "
                                  + ("rows" if matrix else "entries"))
            setattr(self, name, v)
        if self.c0 is None:
            self.c0 = np.zeros(1 if m is None else m)
        require_finite(DriverError, self, ("c0", "c_t", "C_x", "c_y", "C_z"))

    @property
    def dim_out(self):
        return self.c0.size

    def check(self, dim_x, dim_b):
        """The x and z blocks must have dim_x and dim_b columns."""
        for name, dim in (("C_x", dim_x), ("C_z", dim_b)):
            v = getattr(self, name)
            if v is not None and v.shape[1] != dim:
                raise DriverError(
                    f"{name} has {v.shape[1]} columns, needs {dim}")

    def value(self, t, x, y, z):
        """Values at batched (t, x, y, z), a column-major (n, m) array."""
        out = np.empty((self.c0.size, x.shape[0])).T
        out[:] = self.c0
        if self.c_t is not None:
            out += t * self.c_t
        if self.C_x is not None:
            out += col_product(x, self.C_x)
        if self.c_y is not None:
            out += y[:, None] * self.c_y
        if self.C_z is not None:
            out += col_product(z, self.C_z)
        return out

    def lipschitz_yz(self):
        """Lipschitz constant w.r.t. |dy| + ||dz|| (exact for affine maps)."""
        ly = 0.0 if self.c_y is None else float(np.linalg.norm(self.c_y))
        lz = 0.0 if self.C_z is None else float(np.linalg.norm(self.C_z, ord=2))
        return max(ly, lz)

    def depends_on_y(self):
        return self.c_y is not None and np.any(self.c_y != 0)


def _check_g_type_dim(uset, dim_b):
    need = sym_vec_dim(dim_b)
    if uset.dim != need:
        raise DriverError(
            f"G-type driver with dim_b={dim_b} needs ambient dim {need}, "
            f"set has {uset.dim}")


class Driver:
    """A driver family. Each subclass owns its formulas: the value F, the
    projection query (the point whose projection onto the set is the
    argmax), whether F depends on y, and its set and dimension checks. A
    family whose F ignores ``a`` has no query method: ``query`` stays None,
    and its argmax degenerates to the set's fixed element. The methods
    receive (t, x, y, z) already batched by ``_batch_args``, and ``value``
    receives ``a`` as an (n, dim_a) batch. A family whose ``query`` and
    ``value`` read a common term computes it in ``shared``: ``maximizer``
    evaluates it once and passes it to both, which compute it themselves
    when called without it."""

    # False for a driver given only by its reduced value max_a F
    has_argmax = True
    query = None

    def value(self, t, x, y, z, a):
        raise NotImplementedError

    def shared(self, t, x, y, z):
        return None

    def depends_on_y(self):
        return False

    def check(self, uset, dim_x, dim_b):
        """Dimension and membership checks before any compute."""

    def unsound_for_existence(self, uset):
        """True when the argmax may jump, so existence is not guaranteed."""
        return False


@dataclass
class ZeroDriver(Driver):
    def value(self, t, x, y, z, a):
        return np.zeros(x.shape[0])


@dataclass
class AffineDriver(Driver):
    """F = alpha + beta*y + <gamma, z>; independent of a. ``gamma`` None
    means no z term."""

    alpha: float
    beta: float
    gamma: Optional[np.ndarray]

    def __post_init__(self):
        self.alpha = as_number(DriverError, self.alpha, "alpha")
        self.beta = as_number(DriverError, self.beta, "beta")
        if self.gamma is not None:
            self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        require_finite(DriverError, self, ("gamma",))

    def value(self, t, x, y, z, a):
        val = self.alpha + self.beta * y
        # BLAS's matrix-vector kernel sums a column-major z in another order
        return (val if self.gamma is None
                else val + np.ascontiguousarray(z) @ self.gamma)

    def depends_on_y(self):
        return self.beta != 0.0

    def check(self, uset, dim_x, dim_b):
        if self.gamma is not None and self.gamma.shape != (dim_b,):
            raise DriverError(
                f"gamma has shape {self.gamma.shape}, needs ({dim_b},)")


@dataclass
class RegularizedProjectionDriver(Driver):
    """F = h(t,x,y,z) - 0.5*||a - G(t,x,y,z)||^2 - (eps/2)*||a||^2.

    ``eps = 0`` is the plain projection driver. At every eps the argmax is
    the metric projection of G / (1 + eps), which can jump between the
    members of a non-convex set.
    """

    h: StateFn
    G: StateFn
    eps: float

    def __post_init__(self):
        self.eps = as_number(DriverError, self.eps, "eps", least=0.0)

    def shared(self, t, x, y, z):
        return self.G.value(t, x, y, z)

    def value(self, t, x, y, z, a, G=None):
        if G is None:
            G = self.shared(t, x, y, z)
        h = self.h.value(t, x, y, z)[:, 0]
        val = h - 0.5 * row_sq(a - G)
        val -= 0.5 * self.eps * row_sq(a)
        return val

    def query(self, t, x, y, z, G=None):
        if G is None:
            G = self.shared(t, x, y, z)
        return G / (1.0 + self.eps)

    def depends_on_y(self):
        return self.h.depends_on_y() or self.G.depends_on_y()

    def check(self, uset, dim_x, dim_b):
        if self.h.dim_out != 1:
            raise DriverError(f"h must be scalar, has {self.h.dim_out} entries")
        if self.G.dim_out != uset.dim:
            raise DriverError(
                f"G codomain dim {self.G.dim_out} != set dim {uset.dim}")
        for name, f in (("h", self.h), ("G", self.G)):
            try:
                f.check(dim_x, dim_b)
            except DriverError as e:
                raise DriverError(f"{name}: {e}") from None

    def unsound_for_existence(self, uset):
        # eps shrinks the query G / (1 + eps) without convexifying the set
        return not is_convex(uset) and self.G.lipschitz_yz() > 0


@dataclass
class GRegularizedDriver(Driver):
    """F = 0.5*<a, embed_zz(z)> - (eps/2)*||a - a0||^2."""

    eps: float
    a0: np.ndarray

    def __post_init__(self):
        self.eps = as_number(DriverError, self.eps, "eps", above=0.0)
        self.a0 = as_point(self.a0)

    def shared(self, t, x, y, z):
        return embed_zz(z)

    def value(self, t, x, y, z, a, zz=None):
        if zz is None:
            zz = embed_zz(z)
        return 0.5 * row_sum(a * zz) - 0.5 * self.eps * row_sq(a - self.a0)

    def query(self, t, x, y, z, zz=None):
        # complete the square: argmax_a <a,c> - (eps/2)||a-a0||^2
        if zz is None:
            zz = embed_zz(z)
        return self.a0 + zz / (2.0 * self.eps)

    def check(self, uset, dim_x, dim_b):
        _check_g_type_dim(uset, dim_b)
        as_point(self.a0, dim=uset.dim)
        if not uset.contains(self.a0, tol=1e-9):
            raise DriverError("a0 must lie in the uncertainty set")

    def unsound_for_existence(self, uset):
        # the query a0 + embed_zz(z) / (2 eps) always moves with z
        return not is_convex(uset)


@dataclass
class GLimitDriver(Driver):
    """Reduced driver is the support function max_a 0.5*<a, embed_zz(z)>
    directly; there is no a argument."""

    has_argmax = False

    def value(self, t, x, y, z, a):
        raise DriverError("g_limit driver has no a argument; use effective_driver")

    def query(self, t, x, y, z, shared=None):
        raise DriverError("g_limit driver has no maximizer; use effective_driver")

    def support(self, uset, z):
        vals, _ = uset.linear_max_batch(0.5 * embed_zz(z))
        return vals

    def check(self, uset, dim_x, dim_b):
        _check_g_type_dim(uset, dim_b)


def is_convex(uset):
    return isinstance(uset, (Box, Ball))


def evaluate(driver, t, x, y, z, a):
    """Pointwise driver value F(t, x, y, z, a)."""
    t, x, y, z = _batch_args(t, x, y, z)
    if a is not None:
        a = np.asarray(a, dtype=float)
        if a.ndim == 1:
            a = np.broadcast_to(a, (x.shape[0], a.size))
    return driver.value(t, x, y, z, a)


def maximizer(driver, uset, t, x, y, z):
    """Closed-form argmax over the set. Returns (proj, value): ``proj`` is
    the ProjectionResult of the query, whose ``point`` is the argmax; a
    driver without a query (a degenerate argmax) gets the tiled fixed
    element at distance 0, member index -1 and an inf medial gap. The
    driver's ``shared`` term is computed once, for its query and value."""
    t, x, y, z = _batch_args(t, x, y, z)
    if driver.query is None:
        n = x.shape[0]
        proj = plain_result(np.tile(uset.fixed_element(), (n, 1)), np.zeros(n))
        return proj, driver.value(t, x, y, z, proj.point)
    shared = driver.shared(t, x, y, z)
    proj = uset.project_batch(driver.query(t, x, y, z, shared))
    return proj, driver.value(t, x, y, z, proj.point, shared)


def effective_driver(driver, uset, t, x, y, z):
    """Value of max_a F: the support value for a driver without an argmax,
    else the driver at its maximizer (``maximizer`` has the argmax)."""
    if not driver.has_argmax:
        return driver.support(uset, z)
    return maximizer(driver, uset, t, x, y, z)[1]
