"""Brute-force references for the tests: a grid-search maximizer and a
sampled Lipschitz constant of the effective driver. pytest's default
import mode puts this directory on ``sys.path``, so test modules import
it as ``oracles``."""

import numpy as np

from thetabsde.drivers import effective_driver, evaluate


def maximizer_oracle(driver, box, t, x, y, z, grid_step):
    """Exhaustive search for the argmax of F over a 1-d ``Box``, on the
    grid ``box.lower, box.lower + grid_step, ...`` up to ``box.upper``, at
    one state (t, x, y, z): (the best grid point, its value)."""
    assert box.dim == 1, "the grid oracle searches a 1-d box"
    pts = np.arange(box.lower[0], box.upper[0] + grid_step / 2,
                    grid_step)[:, None]
    x, y, z = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (x, y, z))
    assert len(x) == len(y) == len(z) == 1, "one state at a time"
    n = len(pts)
    vals = evaluate(driver, t, np.broadcast_to(x, (n, x.shape[1])),
                    np.broadcast_to(y[0], (n,)),
                    np.broadcast_to(z, (n, z.shape[1])), pts)
    i = int(np.argmax(vals))
    return pts[i].copy(), float(vals[i])


def empirical_lipschitz(driver, uset, sample_box, n_pairs, seed):
    """Sampled lower bound on the Lipschitz constant of max_a F in (y, z)
    w.r.t. |dy| + ||dz||, at t = 0 and x = 0.

    ``sample_box`` is a pair (lo, hi) over the stacked (y, z) coordinates.
    """
    lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in sample_box)
    assert lo.size == hi.size >= 2 and np.all(lo < hi), sample_box
    rng = np.random.default_rng(seed)
    u = rng.uniform(lo, hi, size=(n_pairs, lo.size))
    v = rng.uniform(lo, hi, size=(n_pairs, lo.size))
    x0 = np.zeros((1, 1))
    f_u = effective_driver(driver, uset, 0.0, x0, u[:, 0], u[:, 1:])
    f_v = effective_driver(driver, uset, 0.0, x0, v[:, 0], v[:, 1:])
    denom = np.abs(u[:, 0] - v[:, 0]) + np.linalg.norm(u[:, 1:] - v[:, 1:],
                                                       axis=1)
    ok = denom > 1e-12
    return float(np.max(np.abs(f_u[ok] - f_v[ok]) / denom[ok]))
