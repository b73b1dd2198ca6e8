"""Numerics for valuations driven by worst-case (maximized) BSDE drivers:
set geometry, driver families, a regression Monte Carlo solver, a 1-d PDE
oracle, drift-corrected Brownian calculus, and reproducible experiments.
"""

__version__ = "0.1.0"

from .ambient import embed, extract, frobenius_inner, matrix_dim, sym_vec_dim
from .drivers import (AffineDriver, GLimitDriver, GRegularizedDriver,
                      RegularizedProjectionDriver, StateFn, ZeroDriver,
                      effective_driver, empirical_lipschitz, evaluate,
                      maximizer, maximizer_oracle)
from .engine import (Payoff, PathEnsemble, Scenario, SdeSpec, TimeGrid,
                     axiom_check, simulate_forward, solve_theta_bsde,
                     theta_expectation)
from .pde import PdeGrid, ValueSurface, auto_grid, feynman_kac_compare, solve_pde
from .sets import Ball, Box, PointCloud, UnionSet, grid_cover
from .theta import integrate_theta_qv, simulate_theta_bm, verify_theta_martingale
