"""Shared numerical tolerances and budget defaults.

Every threshold used by more than one module lives here so the CLI can
override them in one place. The zero-eigenvalue rule itself is
``stability.Spectrum.of``, shared by the verdicts and local dimension.
"""

import numpy as np

# equilibrium acceptance: ||F(x)||_2 <= EQ_TOL_SCALE * (1 + ||x||_inf)
EQ_TOL_SCALE = 1e-9

# zero-eigenvalue bucket: |lambda| <= ZERO_TOL_SCALE * max(1, |lambda|_max)
ZERO_TOL_SCALE = 1e-7

# absolute tolerance for roots of the coupling function
ROOT_TOL = 1e-12
ROOT_MAX_BISECT = 60

# edge-space distance below which two equilibria are considered the same
DEDUP_DISTANCE = 1e-6

# pseudo-arclength step (edge-space arclength)
CONTINUATION_STEP = 0.05

# integrator defaults
ODE_RTOL = 1e-8
ODE_ATOL = 1e-10
ODE_T_END = 200.0
# step attempts, accepted or rejected, before a run gives up (exit 3)
ODE_MAX_STEPS = 100_000

# energy-monotonicity slack: 1e-7 * (1 + |E(x0)|)
MONO_TOL_SCALE = 1e-7

# enumeration / search budgets
CYCLE_CAP = 10_000
AUTOMORPHISM_CAP = 100_000
SEARCH_VERTEX_CAP = 16
ZERO_PATTERN_VERTEX_CAP = 20

# fixed default seed so every run is reproducible unless told otherwise
DEFAULT_SEED = 1729


def eq_tolerance(x, scale: float = EQ_TOL_SCALE):
    """Residual acceptance threshold at state ``x``; a stack of states of
    shape (k, n) gives an array of k thresholds."""
    top = np.abs(x).max(axis=-1, initial=0.0)
    return scale * (1.0 + (float(top) if top.ndim == 0 else top))


def rank_tolerance(n: int, m: int, sigma_max: float) -> float:
    """Singular-value cutoff for numerical rank of an n-by-m matrix."""
    return max(n, m) * np.finfo(float).eps * sigma_max


def mono_tolerance(e0: float) -> float:
    """Allowed energy increase between consecutive trajectory samples."""
    return MONO_TOL_SCALE * (1.0 + abs(e0))
