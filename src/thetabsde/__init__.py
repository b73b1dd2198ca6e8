"""Numerics for valuations driven by worst-case (maximized) BSDE drivers:
set geometry, driver families, a regression Monte Carlo solver, a 1-d PDE
oracle, drift-corrected Brownian calculus, and reproducible experiments.
"""

__version__ = "0.1.0"

from .ambient import sym_vec_dim
from .drivers import (AffineDriver, GLimitDriver, GRegularizedDriver,
                      RegularizedProjectionDriver, StateFn, ZeroDriver,
                      effective_driver, evaluate, maximizer)
from .engine import (Payoff, PathEnsemble, Scenario, SdeSpec, TimeGrid,
                     axiom_check, simulate_forward, solve_theta_bsde)
from .pde import PdeGrid, ValueSurface, auto_grid, feynman_kac_compare, solve_pde
from .sets import Ball, Box, PointCloud, UnionSet
from .theta import integrate_theta_qv, simulate_theta_bm, verify_theta_martingale
