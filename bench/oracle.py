"""Reference values for the benchmark, computed with mpmath and never with
spheremin.

The integrals are slow at high precision, so they are cached in
``oracle_cache.json`` beside this file.  Rebuild the cache with

    python3 bench/oracle.py --rebuild

which recomputes every entry at two precisions and refuses to write the
file if they disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import mpmath as mp

DPS = 40
CACHE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_cache.json")

# n values whose integrals the benchmark needs: the traced run's probe (rows
# 1-50 of the emin table and sphere-mean of min-abs at n = 2-200), the decade
# grid of dist-grid, and the estimates of mc-sphere.
PROBE_NS = range(1, 201)
DECADE_NS = tuple(10**k for k in range(7))
MC_SPHERE_NS = (2, 40, 1000)


def _tail_points(n: int, log_integrand) -> list:
    """Breakpoints 0, s, 2s, 4s, ... with s the scale of the mass near 0,
    up to where the integrand is below e^-200, then infinity."""
    s = mp.sqrt(mp.pi) / (2 * n)
    pts = [mp.mpf(0)]
    x = s
    while log_integrand(x) > -200:
        pts.append(x)
        x *= 2
    pts.append(x)
    pts.append(mp.inf)
    return pts


def erfc_power_integral(n: int, dps: int = DPS) -> mp.mpf:
    """int_0^inf erfc(y)^n dy: the expected minimum of n half-normals with
    variance 1/2."""
    with mp.workdps(dps):
        pts = _tail_points(n, lambda y: n * mp.log(mp.erfc(y)))
        return mp.quad(lambda y: mp.erfc(y) ** n, pts)


def erf_max_integral(n: int, dps: int = DPS) -> mp.mpf:
    """int_0^inf (1 - erf(y)^n) dy: the expected maximum of n half-normals
    with variance 1/2."""
    with mp.workdps(dps):
        # 1 - erf^n ~ n erfc(y) in the tail; the mass sits out to sqrt(log n)
        pts = [mp.mpf(0)] + [mp.mpf(k) / 4 for k in range(1, 25)] + [mp.inf]
        return mp.quad(lambda y: -mp.expm1(n * mp.log1p(-mp.erfc(y))), pts)


def gamma_half_ratio(n: int) -> mp.mpf:
    """Gamma(n/2) / Gamma((n+1)/2)."""
    with mp.workdps(DPS):
        return mp.gamma(mp.mpf(n) / 2) / mp.gamma(mp.mpf(n + 1) / 2)


def exponential_min(rate: float, n: int) -> mp.mpf:
    with mp.workdps(DPS):
        return 1 / (n * mp.mpf(rate))


def uniform01_min(n: int) -> mp.mpf:
    with mp.workdps(DPS):
        return 1 / mp.mpf(n + 1)


def power_law_min(k: float, n: int) -> mp.mpf:
    """int_0^1 (1 - y^k)^n dy = Gamma(n+1) Gamma(1+1/k) / Gamma(n+1+1/k)."""
    with mp.workdps(DPS):
        inv = 1 / mp.mpf(k)
        return mp.beta(inv, n + 1) * inv


def heavy_tail_min(alpha: float, n: int) -> mp.mpf:
    """int_0^inf (1+y)^(-n alpha) dy = 1 / (n alpha - 1), for n alpha > 1."""
    with mp.workdps(DPS):
        return 1 / (n * mp.mpf(alpha) - 1)


def _needed() -> dict:
    return {
        "erfc_power_integral": (erfc_power_integral, sorted(set(PROBE_NS) | set(DECADE_NS) | set(MC_SPHERE_NS))),
        "erf_max_integral": (erf_max_integral, list(MC_SPHERE_NS)),
    }


def rebuild(path: str = CACHE_PATH) -> None:
    out = {"dps": DPS}
    for name, (fn, ns) in _needed().items():
        table = {}
        for n in ns:
            hi = fn(n, DPS)
            lo = fn(n, DPS - 10)
            with mp.workdps(DPS):
                if abs(hi - lo) > mp.mpf(10) ** (-(DPS - 12)) * abs(hi):
                    raise RuntimeError(f"{name}({n}) unstable: {hi} vs {lo}")
            table[str(n)] = mp.nstr(hi, DPS - 5, strip_zeros=False)
        out[name] = table
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


class Oracle:
    """Float views of the cached integrals and of the closed forms."""

    def __init__(self, path: str = CACHE_PATH):
        with open(path) as fh:
            raw = json.load(fh)
        with mp.workdps(DPS):
            self._erfc = {int(k): mp.mpf(v) for k, v in raw["erfc_power_integral"].items()}
            self._erf_max = {int(k): mp.mpf(v) for k, v in raw["erf_max_integral"].items()}
        self._ratio = {}

    def _half_ratio(self, n: int) -> mp.mpf:
        if n not in self._ratio:
            self._ratio[n] = gamma_half_ratio(n)
        return self._ratio[n]

    def nmin(self, n: int) -> float:
        return float(self._erfc[n])

    def half_ratio(self, n: int) -> float:
        return float(self._half_ratio(n))

    def emin(self, n: int) -> float:
        with mp.workdps(DPS):
            return float(self._erfc[n] * self._half_ratio(n))

    def sphere_mean(self, fn: str, n: int) -> float:
        """Exact mean of a built-in function over S^(n-1)."""
        with mp.workdps(DPS):
            first = self._half_ratio(n) / mp.sqrt(mp.pi)  # mean of |x_1|
            exact = {
                "sum-squares": mp.mpf(1),
                "abs-first": first,
                "sum-abs": n * first,
                "min-abs": self._erfc[n] * self._half_ratio(n),
                "max-abs": self._erf_max.get(n, mp.nan) * self._half_ratio(n),
            }[fn]
            return float(exact)

    exponential_min = staticmethod(lambda rate, n: float(exponential_min(rate, n)))
    uniform01_min = staticmethod(lambda n: float(uniform01_min(n)))
    power_law_min = staticmethod(lambda k, n: float(power_law_min(k, n)))
    heavy_tail_min = staticmethod(lambda alpha, n: float(heavy_tail_min(alpha, n)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rebuild", action="store_true",
                        help="recompute oracle_cache.json from mpmath")
    args = parser.parse_args(argv)
    if not args.rebuild:
        parser.print_help()
        return 2
    rebuild()
    print(f"wrote {CACHE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
