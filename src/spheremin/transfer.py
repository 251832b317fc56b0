"""Sphere <-> Gaussian transfer of homogeneous-function means.

For f homogeneous of degree d,

    mean of f over S^(n-1)  =  Gamma(n/2)/Gamma((n+d)/2) * E[f(X_1..X_n)],

with iid coordinates X_i ~ Normal(0, 1/2).  Both sides are estimated by
Monte Carlo: the right via Gaussian draws plus the exact gamma factor,
the left directly via normalized Gaussian vectors (uniform on the
sphere).  Both routes share one sampling kernel, and estimates are
bitwise-reproducible for a fixed seed.

Rows are drawn in blocks of max(1, _BLOCK_ELEMENTS // n) rows, at most
max(_BLOCK_ELEMENTS, n) coordinates, into one reused buffer; each block's
float64 f-values are added by one np.sum and the block sums by
math.fsum, so the block bounds an estimate's memory and, as part of the
seed-reproducibility contract, fixes its bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple, Union

import numpy as np

from .errors import _check_int
from .special import gamma_ratio

SeedLike = Union[int, np.random.SeedSequence]

# floats per block of rows drawn and summed at once: the two kernels of a
# transfer check, running together, hold what one 2^16 block held
_BLOCK_ELEMENTS = 2**15
_FOLD_BELOW = 8  # numpy adds a row of fewer coordinates in order


@dataclass(frozen=True)
class HomogeneousFunction:
    """A degree-tagged function of an n-vector; eval is vectorized over
    the leading axes of an (..., n) array.

    The Monte Carlo routes call eval on (rows, n) blocks of one reused
    buffer and sum eval's one value per row as float64, with no staging
    buffer; eval must not keep a reference to a block, which the next
    draw overwrites.  transfer_identity_check runs its two routes at once
    on a two-worker concurrent.futures pool, whose map hands the results
    back in route order, so eval must be thread-safe; the built-ins, pure
    numpy, are."""

    name: str
    degree: int
    eval: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Estimate:
    point: float
    std_error: float
    samples: int


@dataclass(frozen=True)
class TransferReport:
    function: str
    n: int
    samples: int
    gaussian_side: Estimate
    sphere_side: Estimate
    z_score: float
    agree: bool


def _reduce(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """op.reduce(a, axis=-1), bit for bit.  Short rows are folded column
    by column, which is faster: min and max are exact, and numpy adds
    fewer than _FOLD_BELOW terms in order."""
    if 0 < a.shape[-1] < _FOLD_BELOW:
        return functools.reduce(op, np.moveaxis(a, -1, 0))
    return op.reduce(a, axis=-1)


def _min_abs(x: np.ndarray) -> np.ndarray:
    return _reduce(np.minimum, np.abs(x))


def _max_abs(x: np.ndarray) -> np.ndarray:
    return _reduce(np.maximum, np.abs(x))


def _sum_abs(x: np.ndarray) -> np.ndarray:
    return _reduce(np.add, np.abs(x))


def _sum_squares(x: np.ndarray) -> np.ndarray:
    return _reduce(np.add, x * x)


def _abs_first(x: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(x)[..., 0])


def builtin_functions() -> List[HomogeneousFunction]:
    return [
        HomogeneousFunction("min-abs", 1, _min_abs),
        HomogeneousFunction("max-abs", 1, _max_abs),
        HomogeneousFunction("sum-abs", 1, _sum_abs),
        HomogeneousFunction("sum-squares", 2, _sum_squares),
        HomogeneousFunction("abs-first", 1, _abs_first),
    ]


def builtin_function(name: str) -> HomogeneousFunction:
    for f in builtin_functions():
        if f.name == name:
            return f
    raise KeyError(f"unknown function {name!r}; known: "
                   + ", ".join(f.name for f in builtin_functions()))


def _sample_mean(
    f: HomogeneousFunction, n: int, samples: int, seed: SeedLike, normalise: bool
) -> Tuple[float, float]:
    """Mean and standard error of f over `samples` rows of iid N(0, 1/2)
    coordinates, or over iid N(0, 1) rows normalised onto S^(n-1)."""
    _check_int("n", n)
    _check_int("samples", samples, 2)
    rng = np.random.default_rng(seed)
    block_rows = max(1, _BLOCK_ELEMENTS // n)
    block = np.empty((min(block_rows, samples), n))
    root_half = math.sqrt(0.5)
    sums, sumsqs = [], []
    for lo in range(0, samples, block_rows):
        rows = min(block_rows, samples - lo)
        x = block[:rows]
        rng.standard_normal(out=x)
        if normalise:
            norms = np.sqrt(_sum_squares(x))
            while np.any(norms == 0.0):  # probability-zero guard
                bad = norms == 0.0
                x[bad] = rng.standard_normal((int(np.sum(bad)), n))
                norms = np.sqrt(_sum_squares(x))
            x /= norms[:, None]
            del norms  # this and v are freed before the next block is drawn
        else:
            x *= root_half
        v = np.asarray(f.eval(x), dtype=np.float64)
        if v.shape != (rows,):
            raise ValueError(
                f"function {f.name!r}: eval of a ({rows}, {n}) block "
                f"returned shape {v.shape}, expected one value per row")
        sums.append(float(np.sum(v)))
        sumsqs.append(float(np.sum(v * v)))
        del v
    total = math.fsum(sums)
    total_sq = math.fsum(sumsqs)
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


def sphere_mean_from_gaussian(
    f: HomogeneousFunction, n: int, samples: int, seed: SeedLike
) -> Estimate:
    """Estimate the spherical mean of f via Gaussian draws and the exact
    gamma-ratio transfer factor."""
    factor = gamma_ratio(n, f.degree)  # rejects a bad degree before sampling
    mean, se = _sample_mean(f, n, samples, seed, normalise=False)
    return Estimate(point=factor * mean, std_error=factor * se, samples=samples)


def sphere_mean_direct(
    f: HomogeneousFunction, n: int, samples: int, seed: SeedLike
) -> Estimate:
    """Estimate the spherical mean of f by uniform sampling on S^(n-1)
    (normalized iid Gaussian vectors)."""
    mean, se = _sample_mean(f, n, samples, seed, normalise=True)
    return Estimate(point=mean, std_error=se, samples=samples)


def transfer_identity_check(
    f: HomogeneousFunction, n: int, samples: int, seed: SeedLike
) -> TransferReport:
    """Compare the two Monte Carlo routes; agreement means |z| <= 4.

    The two routes run at once on a two-worker concurrent.futures pool,
    whose map hands their results back in route order, Gaussian first.
    Each has its own spawned seed, so the report is the one the two routes
    give one after the other.  An error of either route is raised here,
    the Gaussian one if both fail."""
    from concurrent.futures import ThreadPoolExecutor  # deferred: loads logging
    _check_int("samples", samples, 2)
    gamma_ratio(n, f.degree)  # a bad input raises before any eval
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    routes = (sphere_mean_from_gaussian, sphere_mean_direct)
    with ThreadPoolExecutor(2, thread_name_prefix="spheremin-route") as pool:
        g, s = pool.map(lambda route, sub: route(f, n, samples, sub), routes, root.spawn(2))
    spread = math.hypot(g.std_error, s.std_error)
    diff = abs(g.point - s.point)
    if spread > 0.0:
        z = diff / spread
    else:
        z = 0.0 if diff == 0.0 else math.inf
    return TransferReport(
        function=f.name,
        n=n,
        samples=samples,
        gaussian_side=g,
        sphere_side=s,
        z_score=z,
        agree=z <= 4.0,
    )
