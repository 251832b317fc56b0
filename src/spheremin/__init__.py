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
    expected_min,
    nmin,
)
from .special import gamma_ratio, log_erfc


# The names of __all__ not bound above are the Monte Carlo names of transfer,
# the one module that needs numpy; they and the submodule itself are imported
# on first use (PEP 562), so that the quadrature routes and the min commands
# of the CLI never load numpy.
def __getattr__(name):
    if name == "transfer" or name in __all__:
        # import_module, since `from . import transfer` would look the name
        # up on this package first and so call back into this hook
        from importlib import import_module

        transfer = import_module(".transfer", __name__)
        if name == "transfer":
            return transfer
        value = globals()[name] = getattr(transfer, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


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
    "transfer_identity_check",
    "uniform01",
]

__version__ = "0.1.0"
