"""Closed-form channel capacities and their reparametrized forms.

All capacity formulas default to the base-d logarithm (``base="d"``), which
normalizes a noiseless qudit channel to capacity 1; pass ``base="2"`` for
bits.  Quantum-capacity values are clamped at zero for reporting; the raw
(possibly negative) expression is available separately for diagnostics.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "log_base_value",
    "DegradingWeights",
    "UnruhCapacity",
    "block_weights",
    "degrading_weights",
    "quantum_capacity_grassmann",
    "quantum_capacity_grassmann_unclamped",
    "quantum_capacity_grassmann_w",
    "classical_capacity_grassmann",
    "quantum_capacity_unruh",
    "unruh_capacity_approx",
    "capacity_ratio",
]

UNRUH_MAX_TERMS = 10_000_000


def log_base_value(base, d: int) -> float:
    """Resolve a log-base label, "2" or "d", to a numeric base."""
    if base == "d" and d >= 2:
        return float(d)
    if base in ("2", "d"):
        return 2.0  # at d=1 log base 1 is degenerate, and d=1 capacities are all 0
    raise DomainError(f'log base must be "2" or "d", got {base!r}')


# Stirling errors log(n!) - log(sqrt(2 pi n) (n/e)^n) at n = 0..15; above 15
# the asymptotic series in _stirlerr is accurate to 1e-16.
_STIRLERR_TABLE = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(n: np.ndarray) -> np.ndarray:
    nf = np.maximum(n, 16).astype(float)
    nn = nf * nf
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / nf
    return np.where(n <= 15, _STIRLERR_TABLE[np.minimum(n, 15)], series)


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Deviance x log(x/m) + m - x, by its series in v = (x-m)/(x+m) near x = m."""
    diff = x - m
    v = diff / (x + m)
    v2 = v * v
    poly = 0.0  # sum_{j=1..9} v^(2j) / (2j+1): |v| < 0.1 leaves 1e-18 relative
    for j in range(19, 1, -2):
        poly = (poly + 1.0 / j) * v2
    series = diff * v + 2.0 * x * v * poly
    direct = np.where(x > 0, x * np.log(x / m), 0.0) - diff
    return np.where(np.abs(diff) < 0.1 * (x + m), series, direct)


# ``_binomial_logpmf`` evaluates the Loader terms under this state.  They divide by zero,
# overflow or form 0/0 only where the result is dropped or right: 0 log 0 at the ends and at
# n = 0, s = 0 (D = inf, zero mass) off x = 0, and x/m past the largest float at subnormal m
# (D = inf, dropping a mass below m).
_LOADER_ERRSTATE = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


def _binomial_logpmf(x, n, s: float, c: float) -> np.ndarray:
    """Log Binomial(n, s) pmf at x, elementwise over broadcast integer arrays x and n.

    Loader (2000): log C(n,x) s^x c^(n-x) = e(n) - e(x) - e(n-x) - D(x, ns)
    - D(n-x, nc) - log(2 pi x (n-x) / n) / 2, the last term dropped at x = 0
    and n, with Stirling errors e and deviances D.  Each term is O(1) where
    the mass lies, so near the mean the pmf keeps a few-ulp accuracy at any n.
    Off the mean its relative error is first order in the rounding of the
    means n s and n c, since dD(x, m)/dm = 1 - x/m: about u |x - n s| for unit
    roundoff u.  Against mpmath it is 1.9e-12 at x = 10^6 + 1, n = x + 8.7e6,
    s = 0.1, a pmf of 3e-226 in the Unruh series' tail.  To first order it
    does not see the rounding of s and of c = 1 - s, passed in its own.
    s == c gives a bitwise symmetric result: antisymmetric sums cancel exactly.
    """
    with np.errstate(**_LOADER_ERRSTATE):
        y = n - x
        n, x = x + y, n - y  # both take the shape of y, exactly in integers
        st = _stirlerr(np.stack((n, x, y)))  # one call, not three: small n is call-bound
        half_log = np.where((0 < x) & (x < n), 0.5 * np.log(2.0 * math.pi * (x * y / n)), 0.0)
        dev = _bd0(np.stack((x, y)), np.stack((n * s, n * c)))
        return st[0] - (st[1] + st[2]) - (dev[0] + dev[1]) - half_log


def _check_integer(value, name: str, noun: str = "") -> int:
    """value as an int; DomainError, naming noun + name, unless a Python or numpy integer.

    A bool is not taken as an integer, although ``operator.index`` takes it.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{noun}{name} must be an integer, got {name}={value!r}")


def _check_d(d, least: int = 1) -> int:
    """d as an int; DomainError unless it is an integer (Python or numpy) of at least ``least``."""
    n = _check_integer(d, "d")
    if n < least:
        raise DomainError(f"need d >= {least}, got d={n}")
    return n


def _check_r(r: float):
    if not 0.0 <= r < math.pi / 2:
        raise DomainError(f"squeezing parameter r={r} outside [0, pi/2)")


def _check_tol(tol: float):
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")


def block_weights(d: int, r: float) -> np.ndarray:
    """Sector weights p_k, k = 1..d, as the float array p with p[k - 1] = p_k.

    p_k = C(d-1,k-1) cos^(2(d-1))r tan^(2(k-1))r: the Binomial(d-1, sin^2 r)
    pmf, from ``_binomial_logpmf``.  The complementary weights p~_k, with
    tangent exponent 2(d-k), are its reversal: p~_k = p[d - k].  The channel
    builders do not call it; they weigh their blocks by their own sector
    amplitudes.
    """
    d = _check_d(d)
    _check_r(r)
    p = np.exp(_binomial_logpmf(np.arange(d), d - 1, math.sin(r) ** 2, math.cos(r) ** 2))
    assert abs(p.sum() - 1.0) < 1e-12
    return p


class DegradingWeights(NamedTuple):
    """Convex weights of the degrading map, valid iff all are nonnegative."""

    q: np.ndarray
    valid: bool


def degrading_weights(d: int, r: float) -> DegradingWeights:
    """Weights q_k of the degrading map; q_1 = tan^(2(d-1))r.

    The others are q_k = p~_k - q_1 p_k, from the sector weights p and their
    reversal p~.  The weights always sum to 1; they are all nonnegative exactly
    on r in [0, pi/4], which the ``valid`` flag reports.
    """
    p = block_weights(d, r)
    # tan^(2(d-1)) r overflows to inf past pi/4 at large d; q is then not valid
    with np.errstate(over="ignore", invalid="ignore"):
        q1 = np.float64(math.tan(r) ** 2) ** (d - 1)
        q = np.concatenate([[q1], p[::-1][1:] - q1 * p[1:]])
    valid = bool(np.all(q >= -1e-12) and abs(q.sum() - 1.0) <= 1e-12)
    return DegradingWeights(q, valid)


def _q_sum(p: np.ndarray, base_val: float) -> float:
    # (1/d) sum_k k C(d,k) log k (cos^(2(d-1)) tan^(2(d-k)) - ... tan^(2(k-1)))
    # collapses to sum_k (p~_k - p_k) log k via k C(d,k) = d C(d-1,k-1), p~ the reversal of p
    return float((p[::-1] - p) @ np.log(np.arange(1, len(p) + 1))) / math.log(base_val)


def quantum_capacity_grassmann_unclamped(d: int, r: float, base="d") -> float:
    """Raw quantum-capacity expression; negative beyond r = pi/4."""
    return _q_sum(block_weights(d, r), log_base_value(base, d))


def quantum_capacity_grassmann(d: int, r: float, base="d") -> float:
    """Quantum capacity of the d-dimensional channel, clamped at zero."""
    return max(0.0, quantum_capacity_grassmann_unclamped(d, r, base))


def quantum_capacity_grassmann_w(d: int, w: float, base="d") -> float:
    """Quantum capacity as a function of w = tan^2 r, covering w = 1 exactly.

    Evaluates one form, clamped at zero: the r-form's sum_k (p~_k - p_k) log k
    over the sector weights at tan^2 r = w, the Binomial(d-1, w/(1+w)) pmf.
    The tests compare it with a second form, ``q_w_form_a`` in ``tests/helpers.py``.
    """
    d = _check_d(d)
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"w={w} outside [0, 1]")
    w = float(w)  # a numpy float32 w would keep w / (1 + w) in float32 under NumPy 2
    base_val = log_base_value(base, d)
    p = np.exp(_binomial_logpmf(np.arange(d), d - 1, w / (1.0 + w), 1.0 / (1.0 + w)))
    return max(0.0, _q_sum(p, base_val))


def classical_capacity_grassmann(d: int, r: float, base="d") -> float:
    """Classical capacity: log d - sum_k p_k log k, clamped at zero.

    Evaluates this one form over the sector weights p.  The tests compare it
    with the three-term entropy expression of ``tests/helpers.py``.
    """
    p = block_weights(d, r)
    closed = (math.log(d) - p @ np.log(np.arange(1, d + 1))) / math.log(log_base_value(base, d))
    return float(max(0.0, closed))


class UnruhCapacity(NamedTuple):
    value: float
    remainder: float
    terms: int


def _nb_pmf(j: np.ndarray, n: int, z: float) -> np.ndarray:
    """NB(j; n, z) over rows of consecutive j, with the Loader kernel at each row's first j only.

    The row's first term is n/(n+j) Bin(n; n+j, 1-z); the rest follow by the
    exact term ratio NB(j)/NB(j-1) = z (n+j-1)/j, multiplied in order: three
    roundings a step, at most 3 * 63 beyond the anchor's own error in a row of
    64.  An anchor that underflows to 0 keeps its row 0 (the ratios are finite,
    so no inf * 0 appears); the next row starts again from its own anchor.
    """
    factor = np.empty(j.shape)
    anchor = j[:, 0]
    factor[:, 0] = n / (n + anchor) * np.exp(_binomial_logpmf(n, n + anchor, 1.0 - z, z))
    factor[:, 1:] = z * (n - 1 + j[:, 1:]) / j[:, 1:]
    return np.cumprod(factor, axis=1)


def quantum_capacity_unruh(d: int, z: float, tol: float = 1e-12, base="d") -> UnruhCapacity:
    """Quantum capacity of the d-dimensional bosonic squeezing channel.

    With j = k - 1, (1/d)(1-z)^(d+1) sum_{k>=1} k C(d+k-1,k) log((d+k-1)/k)
    z^(k-1) is the expectation of log1p((d-1)/(j+1)) under NB(j; d+1, z).  Its
    terms are summed in chunks of 256 doubling to 4096, each a (chunk/64, 64)
    block of ``_nb_pmf`` rows: the shared Loader kernel runs once every 64
    terms.  Term ratios are bounded by q = z (1 + d/(j+1)), so summing stops
    at the first term where q < 1 and the tail bound term * q / (1 - q) is
    below ``tol``: the reported remainder.
    """
    d = _check_d(d)
    if not 0.0 <= z < 1.0:
        raise DomainError(f"z={z} outside [0, 1)")
    z = float(z)  # a numpy float32 z would keep _nb_pmf's 1 - z in float32 under NumPy 2
    _check_tol(tol)
    lb = math.log(log_base_value(base, d))
    cap, n = UNRUH_MAX_TERMS, d + 1
    total = 0.0
    start, size = 0, 256
    while start < cap:
        m = min(size, cap - start)  # the chunk at the cap is padded to whole rows, then cut
        j = np.arange(start, start + -(-m // 64) * 64)
        pmf = _nb_pmf(j.reshape(-1, 64), n, z).ravel()[:m]
        j = j[:m]
        term = pmf * np.log1p((d - 1) / (j + 1)) / lb
        q = z * (1.0 + d / (j + 1))
        with np.errstate(divide="ignore", invalid="ignore"):  # q == 1; masked below
            tail = term * q / (1.0 - q)
        done = np.flatnonzero((q < 1.0) & (tail < tol))
        if done.size:
            stop = int(done[0])
            return UnruhCapacity(total + float(term[: stop + 1].sum()), float(tail[stop]),
                                 start + stop + 1)
        total += float(term.sum())
        start, size = start + m, min(2 * size, 4096)
    raise ConvergenceError(
        f"Unruh series did not certify tol={tol} within {cap} terms",
        partial=total,
    )


def unruh_capacity_approx(d: int, z: float, base="d") -> float:
    """Closed-form large-acceleration approximation of the Unruh capacity."""
    d = _check_d(d)
    if not 0.0 < z <= 1.0:
        raise DomainError(f"z={z} outside (0, 1]")
    z = float(z)  # a numpy float32 z would keep the arithmetic below in float32 under NumPy 2
    base_val = log_base_value(base, d)
    if d == 1:
        return 0.0  # a one-rail channel carries nothing; log(1) would divide by zero
    # 1 - (1-z)^d as -expm1(d log1p(-z)) keeps its digits where it is about d z, and
    # dividing it, not 1 - z, by z stays finite at subnormal z
    loss = -math.expm1(d * math.log1p(-z)) if z < 1.0 else 1.0
    value = (d - 1) / (d * math.log(d)) * (1.0 - z) * (loss / z)
    # the formula is native to base d; rescale log factors for other bases
    return value * math.log(d) / math.log(base_val)


def capacity_ratio(d: int) -> float:
    """Infinite-acceleration ratio r_d of the fermionic to bosonic capacity."""
    d = _check_d(d, least=2)
    # C(d-1,k) / 2^(d-1) is the Binomial(d-1, 1/2) pmf
    k = np.arange((d - 1) // 2 + 1)
    pmf = np.exp(_binomial_logpmf(k, d - 1, 0.5, 0.5))
    s = ((d - 1 - 2 * k) * pmf) @ (np.log(d - k) - np.log(k + 1))
    return d / (d - 1) * float(s)
