"""High-precision references for the capacities the command line prints.

Each function evaluates the same finite or convergent sum as the program,
in mpmath at 30 significant digits and with exact integer binomials, so the
reference holds for every dimension the program accepts.  Values are
returned as floats in the requested log base, clamped like the program's
output where the program clamps.
"""

from __future__ import annotations

import math

import mpmath

mpmath.mp.dps = 30


def _log_base(base: str, d: int):
    return mpmath.log(2) if base == "2" else mpmath.log(d)


def _cos2_sin2(r: float):
    return mpmath.cos(mpmath.mpf(r)) ** 2, mpmath.sin(mpmath.mpf(r)) ** 2


def quantum_unclamped(d: int, r: float, base: str = "d") -> float:
    """sum_k (p~_k - p_k) log k with binomial block weights."""
    c2, s2 = _cos2_sin2(r)
    total = mpmath.mpf(0)
    for k in range(2, d + 1):
        binom = math.comb(d - 1, k - 1)
        p = binom * c2 ** (d - k) * s2 ** (k - 1)
        p_tilde = binom * c2 ** (k - 1) * s2 ** (d - k)
        total += (p_tilde - p) * mpmath.log(k)
    return float(total / _log_base(base, d))


def quantum(d: int, r: float, base: str = "d") -> float:
    return max(0.0, quantum_unclamped(d, r, base))


def quantum_w(d: int, w: float, base: str = "d") -> float:
    """(1+w)^-(d-1) sum_k w^k C(d-1,k) log((d-k)/(k+1)), clamped at zero."""
    w = mpmath.mpf(w)
    total = mpmath.mpf(0)
    for k in range(d):
        total += w**k * math.comb(d - 1, k) * (mpmath.log(d - k) - mpmath.log(k + 1))
    value = total / (1 + w) ** (d - 1) / _log_base(base, d)
    return max(0.0, float(value))


def classical(d: int, r: float, base: str = "d") -> float:
    """log d - sum_k p_k log k, clamped at zero."""
    c2, s2 = _cos2_sin2(r)
    total = mpmath.log(d)
    for k in range(2, d + 1):
        total -= math.comb(d - 1, k - 1) * c2 ** (d - k) * s2 ** (k - 1) * mpmath.log(k)
    return max(0.0, float(total / _log_base(base, d)))


def unruh(d: int, z: float, base: str = "d") -> float:
    """(1/d)(1-z)^(d+1) sum_k k C(d+k-1,k) log((d+k-1)/k) z^(k-1).

    Summed until the geometric bound on the tail, with ratio
    z (d+k)/k >= term_{k+1}/term_k, drops below 1e-20 of the total.
    """
    z = mpmath.mpf(z)
    binom_z = mpmath.mpf(d)  # C(d+k-1, k) z^(k-1) at k = 1
    total = mpmath.mpf(0)
    k = 1
    while True:
        term = k * binom_z * (mpmath.log(d + k - 1) - mpmath.log(k))
        total += term
        ratio = z * (d + k) / k
        if ratio < 1 and term * ratio / (1 - ratio) <= total * mpmath.mpf("1e-20"):
            break
        binom_z *= z * (d + k) / (k + 1)
        k += 1
    value = (1 - z) ** (d + 1) / d * total / _log_base(base, d)
    return float(value)


def unruh_approx(d: int, z: float, base: str = "d") -> float:
    """(d-1)/(d ln d) (1-z)/z (1 - (1-z)^d), native to base d."""
    z = mpmath.mpf(z)
    value = (d - 1) / (d * mpmath.log(d)) * (1 - z) / z * (1 - (1 - z) ** d)
    return float(value * mpmath.log(d) / _log_base(base, d))


def ratio(d: int) -> float:
    """d ln d / ((d-1) 2^(d-1)) sum_k (d-1-2k) C(d-1,k) log_d((d-k)/(k+1))."""
    ld = mpmath.log(d)
    total = mpmath.mpf(0)
    for k in range((d - 1) // 2 + 1):
        total += (d - 1 - 2 * k) * math.comb(d - 1, k) * (mpmath.log(d - k) - mpmath.log(k + 1))
    return float(d / mpmath.mpf(d - 1) / mpmath.mpf(2) ** (d - 1) * total)
