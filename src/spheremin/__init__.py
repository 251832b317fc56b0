"""Spherical means of homogeneous functions and expected minima of iid
nonnegative random variables, computed by mutually cross-validating
routes: survival-power quadrature, Gaussian-transfer identities, large-n
asymptotic laws, and seeded Monte Carlo."""

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
    emin_asymptotic,
    expected_min,
    nmin,
)
from .quadrature import survival_power_integral
from .special import gamma_ratio, log_erfc
from .transfer import (
    Estimate,
    HomogeneousFunction,
    TransferReport,
    builtin_function,
    builtin_functions,
    sphere_mean_direct,
    sphere_mean_from_gaussian,
    transfer_identity_check,
)

__all__ = [
    "DEFAULT_TOL",
    "Distribution",
    "Estimate",
    "HomogeneousFunction",
    "HypothesisViolatedError",
    "InvalidToleranceError",
    "MinResult",
    "NonConvergentError",
    "SphereMinError",
    "TransferReport",
    "asymptotic_min",
    "builtin_function",
    "builtin_functions",
    "emin",
    "emin_asymptotic",
    "expected_min",
    "exponential",
    "gamma_ratio",
    "half_normal",
    "heavy_tail",
    "log_erfc",
    "nmin",
    "power_law",
    "sphere_mean_direct",
    "sphere_mean_from_gaussian",
    "survival_power_integral",
    "transfer_identity_check",
    "uniform01",
]

__version__ = "0.1.0"
