"""Spherical means of homogeneous functions and expected minima of iid
nonnegative random variables, computed by mutually cross-validating
routes: survival-power quadrature, Gaussian-transfer identities, large-n
asymptotic laws, and seeded Monte Carlo.

The Monte Carlo routes are the one part that needs numpy, and they live
only in the submodule `spheremin.transfer` (`from spheremin import
transfer`); `import spheremin` binds every name of `__all__` and loads
no numpy."""

from .distributions import (
    Distribution,
    exponential,
    half_normal,
    heavy_tail,
    power_law,
    uniform01,
)
from .errors import (
    HypothesisViolatedError,
    InvalidToleranceError,
    NonConvergentError,
    SphereMinError,
)
from .minima import (
    DEFAULT_TOL,
    MinResult,
    asymptotic_min,
    emin,
    expected_min,
    nmin,
)
from .special import gamma_ratio, log_erfc

__all__ = [
    "DEFAULT_TOL",
    "Distribution",
    "HypothesisViolatedError",
    "InvalidToleranceError",
    "MinResult",
    "NonConvergentError",
    "SphereMinError",
    "asymptotic_min",
    "emin",
    "expected_min",
    "exponential",
    "gamma_ratio",
    "half_normal",
    "heavy_tail",
    "log_erfc",
    "nmin",
    "power_law",
    "uniform01",
]

__version__ = "0.1.0"
