"""Ambient space for uncertainty sets.

A symmetric d x d matrix (the z z^T of a G-type driver, and the points of
its set) is written as a flat vector of length d(d+1)/2: the diagonal,
then each entry of the strict upper triangle once, scaled by sqrt(2), so
that the Euclidean norm of the vector equals the Frobenius norm of the
matrix (``sym_vec_dim``, ``off_diagonal``; ``drivers.embed_zz`` builds
it). Plain Euclidean vectors pass through unchanged, which lets all set
geometry run on one code path.

The kernel rule of the per-path hot loop: an (n, dim) batch of the solver
(states, increments, queries, projections, driver terms) is column-major,
so that each coordinate is one contiguous (n,) column and broadcasting a
(dim,) row over the batch runs over contiguous columns. A reduction over
its short trailing axis (a query's coordinates, a driver's ambient
dimension) goes through ``row_sum`` or ``row_sq``. Below
``_ROW_KERNEL_DIM`` columns they accumulate column by column, left to right,
into one contiguous (n,) row, which is the order ``np.sum`` uses over the
trailing axis of a C-ordered array, so the result is bitwise that of
``np.sum(x, axis=1)`` without its per-row overhead; from there on they call
``np.sum`` on a C-ordered copy, since over a column-major array it would
sum left to right rather than pairwise. A matrix product ``x @ m.T``
goes through ``col_product``, which returns it column-major with the
values of the C-ordered product.
"""

import functools

import numpy as np

MAX_DIM = 64

# np.sum reduces a trailing axis shorter than 8 left to right; from 8 on it
# sums pairwise, which the column loop would not reproduce
_ROW_KERNEL_DIM = 8

# OpenBLAS's matrix kernels give a column-major operand the values of a
# C-ordered one below 32 inner columns on every core type checked (SkylakeX,
# Cooperlake, Haswell, Zen, Sandybridge, Nehalem, Prescott); from 32 on the
# AVX-512 kernels do not
_COL_PRODUCT_DIM = 32


class AmbientError(ValueError):
    pass


def as_point(x, dim=None):
    """Validate and return a 1-d float64 ambient point."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise AmbientError(f"ambient point must be 1-d, got shape {p.shape}")
    if p.size == 0 or p.size > MAX_DIM:
        raise AmbientError(f"ambient dim must be in [1, {MAX_DIM}], got {p.size}")
    if not np.all(np.isfinite(p)):
        raise AmbientError("ambient point has non-finite entries")
    if dim is not None and p.size != dim:
        raise AmbientError(f"dimension mismatch: expected {dim}, got {p.size}")
    return p


def require_finite(error, obj, names):
    """Raise ``error`` naming the first of ``obj``'s fields ``names`` that
    is set (not None) and holds a non-finite number."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not np.all(np.isfinite(value)):
            raise error(f"{name} must be finite, got {value}")


# value rules: each raises the caller's error type, naming the field

def as_integer(error, value, name, least=None):
    """``value`` as an int, at least ``least`` when given: an int or an
    integral float passes, anything else (2.7, "2", True) is rejected
    rather than truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def as_seed(error, value):
    """``value`` as a Philox key: an integer in ``[0, 2**64)``."""
    seed = as_integer(error, value, "seed", least=0)
    if seed >= 2 ** 64:
        raise error(f"seed must be < 2**64, got {seed}")
    return seed


def as_number(error, value, name, least=None, above=None):
    """``value`` as a finite float, >= ``least`` and > ``above`` if given."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = np.nan
    if not (np.isfinite(number) and (least is None or number >= least)
            and (above is None or number > above)):
        bound = "" if least is None else f" and >= {least}"
        bound += "" if above is None else f" and > {above}"
        raise error(f"{name} must be finite{bound}, got {value!r}")
    return number


def as_pair(error, value, name):
    """``value`` as floats ``(lo, hi)``, lo < hi; either may be infinite."""
    try:
        lo, hi = np.asarray(value, dtype=float)
        ordered = bool(lo < hi)
    except (TypeError, ValueError):
        raise error(f"{name} must be a [lo, hi] pair, got {value!r}") from None
    if not ordered:
        raise error(f"{name} must satisfy lo < hi, got {value!r}")
    return float(lo), float(hi)


def row_sum(x):
    """``np.sum(x, axis=1)`` of an (n, d) array, bitwise."""
    if x.shape[1] >= _ROW_KERNEL_DIM:
        return np.sum(np.ascontiguousarray(x), axis=1)
    # 0.0 + x turns a -0.0 into 0.0, as np.sum's zero start does
    out = np.add(x[:, 0], 0.0)
    for j in range(1, x.shape[1]):
        out += x[:, j]
    return out


def row_sq(x):
    """``np.sum(x * x, axis=1)`` of an (n, d) array, bitwise: the squared
    row norms."""
    if x.shape[1] >= _ROW_KERNEL_DIM:
        x = np.ascontiguousarray(x)
        return np.sum(x * x, axis=1)
    out = np.multiply(x[:, 0], x[:, 0])
    sq = np.empty_like(out)
    for j in range(1, x.shape[1]):
        np.multiply(x[:, j], x[:, j], out=sq)
        out += sq
    return out


def col_product(x, m):
    """``x @ m.T`` of an (n, d) batch and a (k, d) matrix, as a
    column-major (n, k) array, with the values of the C-ordered batch's
    product. BLAS's matrix kernel reads a column-major batch as it is
    below ``_COL_PRODUCT_DIM`` columns; on special values its AVX-512
    kernel can then give a product that underflows to zero the other sign.
    Its matrix-vector kernel, which takes one row of ``m``, and its AVX-512
    matrix kernel from there on sum a column-major batch in another order,
    so they get a C-ordered copy. With one inner column each entry is one
    product, which BLAS adds to a zero: ``(m * x[:, 0]).T`` plus 0.0,
    which turns a -0.0 into the +0.0 BLAS gives, has its bits but for the
    sign of a NaN, at a fifth of BLAS's time."""
    if x.shape[1] == 1:
        out = np.multiply(m, x[:, 0])
        out += 0.0
        return out.T
    if len(m) == 1 or x.shape[1] >= _COL_PRODUCT_DIM:
        x = np.ascontiguousarray(x)
    return np.asfortranarray(x @ m.T)


def sym_vec_dim(d):
    """Length of the flattened vector for a d x d symmetric matrix."""
    return d * (d + 1) // 2


@functools.lru_cache(maxsize=None)
def off_diagonal(d):
    """Row and column indices of the strictly upper triangle of a d x d
    matrix, in the order the flattened vector stores them. Cached (the
    driver embeds z^T z at every node), hence read-only."""
    i, j = np.triu_indices(d, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j
