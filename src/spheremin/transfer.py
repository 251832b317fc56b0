"""Sphere <-> Gaussian transfer of homogeneous-function means.

For f homogeneous of degree d,

    mean of f over S^(n-1)  =  Gamma(n/2)/Gamma((n+d)/2) * E[f(X_1..X_n)],

with iid coordinates X_i ~ Normal(0, 1/2).  Both sides are estimated by
Monte Carlo: the right via Gaussian draws plus the exact gamma factor,
the left directly via normalized Gaussian vectors (uniform on the
sphere).  Estimates are bitwise-reproducible for a fixed seed; sampling
is chunked so sample counts in the tens of millions stay in bounded
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Union

import numpy as np

from .errors import _check_int
from .special import gamma_ratio

SeedLike = Union[int, np.random.SeedSequence]

_CHUNK_ELEMENTS = 4_000_000  # floats per sampling chunk


@dataclass(frozen=True)
class HomogeneousFunction:
    """A degree-tagged function of an n-vector; eval is vectorized over
    the leading axes of an (..., n) array."""

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


def _min_abs(x: np.ndarray) -> np.ndarray:
    return np.min(np.abs(x), axis=-1)


def _max_abs(x: np.ndarray) -> np.ndarray:
    return np.max(np.abs(x), axis=-1)


def _sum_abs(x: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(x), axis=-1)


def _sum_squares(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x, axis=-1)


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


def _chunks(samples: int, n: int):
    rows = max(1, _CHUNK_ELEMENTS // n)
    done = 0
    while done < samples:
        take = min(rows, samples - done)
        yield take
        done += take


def _accumulate(draw_values, samples: int, n: int):
    """Stream chunks of f-values; return (mean, std_error) with fixed
    summation order for reproducibility."""
    sums, sumsqs = [], []
    for take in _chunks(samples, n):
        vals = draw_values(take)
        sums.append(float(np.sum(vals)))
        sumsqs.append(float(np.sum(vals * vals)))
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
    _check_args(n, samples)
    rng = np.random.default_rng(seed)
    root_half = math.sqrt(0.5)

    def draw(take: int) -> np.ndarray:
        return f.eval(rng.standard_normal((take, n)) * root_half)

    mean, se = _accumulate(draw, samples, n)
    factor = gamma_ratio(n, f.degree)
    return Estimate(point=factor * mean, std_error=factor * se, samples=samples)


def sphere_mean_direct(
    f: HomogeneousFunction, n: int, samples: int, seed: SeedLike
) -> Estimate:
    """Estimate the spherical mean of f by uniform sampling on S^(n-1)
    (normalized iid Gaussian vectors)."""
    _check_args(n, samples)
    rng = np.random.default_rng(seed)

    def draw(take: int) -> np.ndarray:
        x = rng.standard_normal((take, n))
        norms = np.linalg.norm(x, axis=1)
        while np.any(norms == 0.0):  # probability-zero guard
            bad = norms == 0.0
            x[bad] = rng.standard_normal((int(np.sum(bad)), n))
            norms = np.linalg.norm(x, axis=1)
        return f.eval(x / norms[:, None])

    mean, se = _accumulate(draw, samples, n)
    return Estimate(point=mean, std_error=se, samples=samples)


def transfer_identity_check(
    f: HomogeneousFunction, n: int, samples: int, seed: SeedLike
) -> TransferReport:
    """Compare the two Monte Carlo routes; agreement means |z| <= 4."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    gauss_seed, sphere_seed = root.spawn(2)
    g = sphere_mean_from_gaussian(f, n, samples, gauss_seed)
    s = sphere_mean_direct(f, n, samples, sphere_seed)
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


def _check_args(n: int, samples: int) -> None:
    _check_int("n", n)
    _check_int("samples", samples, 2)
