"""Closed-form capacities, weights, series, and reparametrizations."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grasschan import capacity
from grasschan.capacity import (
    block_weights,
    capacity_ratio,
    classical_capacity_grassmann,
    degrading_weights,
    quantum_capacity_grassmann,
    quantum_capacity_grassmann_unclamped,
    quantum_capacity_grassmann_w,
    quantum_capacity_unruh,
    unruh_capacity_approx,
)
from grasschan.errors import ConvergenceError, DomainError
from helpers import classical_three_term, q_w_form_a


@pytest.mark.parametrize("r", np.linspace(0.0, 1.5, 20))
def test_qubit_closed_forms(r):
    # the d=2 member reduces to the known erasure-channel capacities
    r = float(r)
    p = math.sin(r) ** 2
    assert abs(quantum_capacity_grassmann(2, r, "2") - max(0.0, 1.0 - 2 * p)) < 1e-12
    assert abs(classical_capacity_grassmann(2, r, "2") - (1.0 - p)) < 1e-12


@pytest.mark.parametrize("d", range(2, 21))
def test_unclamped_zero_at_self_complementary_point(d):
    assert abs(quantum_capacity_grassmann_unclamped(d, math.pi / 4)) < 1e-13
    assert quantum_capacity_grassmann(d, math.pi / 4) >= 0.0


@pytest.mark.parametrize("d", [2, 5, 11, 20])
def test_unclamped_antisymmetric_about_pi4(d):
    for r in (0.2, 0.5, 0.7):
        left = quantum_capacity_grassmann_unclamped(d, r)
        right = quantum_capacity_grassmann_unclamped(d, math.pi / 2 - r)
        assert abs(left + right) < 1e-12
        assert left > 0 > right


@pytest.mark.parametrize("d", [2, 3, 7, 15])
def test_base_conversion_factor(d):
    factor = math.log(d) / math.log(2)
    for r in (0.1, 0.6, 1.0):
        assert abs(
            quantum_capacity_grassmann(d, r, "2") - quantum_capacity_grassmann(d, r, "d") * factor
        ) < 1e-12
        assert abs(
            classical_capacity_grassmann(d, r, "2")
            - classical_capacity_grassmann(d, r, "d") * factor
        ) < 1e-12
    z = 0.4
    assert abs(
        quantum_capacity_unruh(d, z, tol=1e-14, base="2").value
        - quantum_capacity_unruh(d, z, tol=1e-14, base="d").value * factor
    ) < 1e-12
    assert abs(unruh_capacity_approx(d, z, "2") - unruh_capacity_approx(d, z, "d") * factor) < 1e-12


def test_three_algebraic_forms_agree():
    rng = np.random.default_rng(17)
    for d in range(2, 21):
        for r in rng.uniform(0.0, 1.5, size=50):
            r = float(r)
            w = math.tan(r) ** 2
            if w > 1.0:
                w = 1.0 / w
                r = math.atan(math.sqrt(w))
            via_r = quantum_capacity_grassmann(d, r)
            via_w = quantum_capacity_grassmann_w(d, w)
            assert abs(via_w - max(0.0, q_w_form_a(d, w))) <= 1e-12, (d, w)
            assert abs(via_r - via_w) < 1e-11, (d, r)


def test_w_parametrization_edges():
    for d in (2, 3, 10):
        assert quantum_capacity_grassmann_w(d, 1.0) == 0.0
        assert abs(quantum_capacity_grassmann_w(d, 0.0) - 1.0) < 1e-14
    with pytest.raises(DomainError):
        quantum_capacity_grassmann_w(3, 1.5)


def test_classical_capacity_limits():
    for d in (2, 3, 8, 20):
        assert abs(classical_capacity_grassmann(d, 0.0, "2") - math.log2(d)) < 1e-12
        assert abs(classical_capacity_grassmann(d, 0.0, "d") - 1.0) < 1e-12
        assert classical_capacity_grassmann(d, 1.55, "d") < 5e-3
        grid = np.linspace(0.0, 1.55, 40)
        values = [classical_capacity_grassmann(d, float(r), "d") for r in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_block_weights_sum_and_reversal():
    for d in (1, 2, 3, 6, 12):
        for r in (0.0, 0.3, 0.9, 1.4):
            p = block_weights(d, r)
            assert abs(p.sum() - 1.0) < 1e-12
    p0 = block_weights(4, 0.0)
    assert np.allclose(p0, [1, 0, 0, 0])


@pytest.mark.parametrize("d", [*range(1, 10), 64])
def test_block_weights_are_the_binomial_kernel_bitwise(d):
    # one kernel evaluates the weights at every d, with no second path
    for r in (0.0, 5e-324, 1e-160, 0.7, math.pi / 4, 1.5707963):
        want = np.exp(
            capacity._binomial_logpmf(np.arange(d), d - 1, math.sin(r) ** 2, math.cos(r) ** 2)
        )
        assert block_weights(d, r).tobytes() == want.tobytes()


def _degrading_weights_binomial(d, r):
    # q_k = C(d-1,k-1) cos^(2(d-1)) r (tan^(2(d-k)) r - tan^(2(d+k-2)) r), term by term
    t2, c2 = math.tan(r) ** 2, math.cos(r) ** 2
    q = [t2 ** (d - 1)]
    for k in range(2, d + 1):
        q.append(math.comb(d - 1, k - 1) * c2 ** (d - 1) * (t2 ** (d - k) - t2 ** (d + k - 2)))
    return np.array(q)


def test_weight_records_are_read_only_named_tuples():
    # block weights are the float array p alone; the degrading weights a (q, valid) record
    p, q = block_weights(4, 0.3), degrading_weights(4, 0.3)
    assert type(p) is np.ndarray and p.dtype == float and p.shape == (4,)
    assert "BlockWeights" not in capacity.__all__ and not hasattr(capacity, "BlockWeights")
    assert type(q)._fields == ("q", "valid")
    assert q[0] is q.q and q[1] is q.valid
    for field in ("q", "valid"):
        with pytest.raises(AttributeError):
            setattr(q, field, None)


def test_degrading_weights_against_linear_solve():
    # oracles: q_1 p_k + q_k = p~_k solved directly from the weight vectors,
    # and the term-by-term binomial expansion
    for d in (2, 3, 4, 6):
        for r in (0.1, 0.4, 0.7, 1.0, 1.3):
            p = block_weights(d, r)
            p_tilde = p[::-1]
            q1 = p_tilde[0] / p[0]
            expected = np.concatenate([[q1], p_tilde[1:] - q1 * p[1:]])
            got = degrading_weights(d, r)
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.abs(got.q - expected).max() < 1e-12 * scale
            assert np.abs(got.q - _degrading_weights_binomial(d, r)).max() < 1e-12 * scale
            assert abs(got.q.sum() - 1.0) < 1e-12 * scale
            assert abs(got.q[0] - math.tan(r) ** (2 * (d - 1))) < 1e-12 * scale


def test_degrading_weights_boundary_behavior():
    for d in (2, 3, 4):
        at_pi4 = degrading_weights(d, math.pi / 4)
        assert abs(at_pi4.q[0] - 1.0) < 1e-12
        assert np.abs(at_pi4.q[1:]).max() < 1e-12
        assert at_pi4.valid
        at_zero = degrading_weights(d, 0.0)
        assert abs(at_zero.q[-1] - 1.0) < 1e-15
        assert at_zero.valid
        for r in (0.9, 1.1, 1.3):
            assert not degrading_weights(d, r).valid


@pytest.mark.filterwarnings("error")
def test_degrading_weights_large_dimension():
    # tan^(2(d-1)) r under- or overflows here; the flag must still be right
    for d in (1100, 10**4):
        for r in (0.3, math.pi / 4 - 1e-3):
            assert degrading_weights(d, r).valid
        assert not degrading_weights(d, 0.9).valid


def test_unruh_z0_single_term():
    for d in (2, 3, 7):
        res = quantum_capacity_unruh(d, 0.0)
        assert abs(res.value - 1.0) < 1e-14  # log_d d
        assert res.terms == 1
        assert abs(quantum_capacity_unruh(d, 0.0, base="2").value - math.log2(d)) < 1e-13


def test_unruh_series_vs_naive_long_sum():
    d, z = 2, 0.5
    res = quantum_capacity_unruh(d, z, tol=1e-12)
    k = np.arange(1, 1_000_001, dtype=float)
    with np.errstate(under="ignore"):
        terms = k * (k + 1) * (np.log(k + 1) - np.log(k)) / math.log(d) * z ** (k - 1)
    naive = (1 - z) ** (d + 1) / d * terms.sum()
    assert abs(res.value - naive) < 1e-12


def test_unruh_remainder_bound_is_honest():
    for d, z in ((2, 0.5), (3, 0.8), (5, 0.9)):
        res = quantum_capacity_unruh(d, z, tol=1e-10)
        k = np.arange(1, 2 * res.terms + 1, dtype=float)
        with np.errstate(under="ignore"):
            terms = (
                k
                * np.array([math.comb(d + int(kk) - 1, int(kk)) for kk in k])
                * (np.log(d + k - 1) - np.log(k))
                / math.log(d)
                * z ** (k - 1)
            )
        doubled = (1 - z) ** (d + 1) / d * terms.sum()
        assert abs(doubled - res.value) <= res.remainder


def test_unruh_convergence_cap(monkeypatch):
    monkeypatch.setattr(capacity, "UNRUH_MAX_TERMS", 10)
    with pytest.raises(ConvergenceError) as err:
        quantum_capacity_unruh(3, 0.9, tol=1e-12)
    assert err.value.partial > 0.0


def test_unruh_cap_is_never_exceeded(monkeypatch):
    # (3, 0.9) certifies tol=1e-12 at term 295, inside the second chunk (terms 257..768, rows of
    # 64 from term 257); a cap of 200 cuts the first chunk (terms 1..256) inside its fourth row,
    # and 294 and 295 cut the second chunk inside its first row: a padded row is cut back
    monkeypatch.setattr(capacity, "UNRUH_MAX_TERMS", 200)
    with pytest.raises(ConvergenceError):
        quantum_capacity_unruh(3, 0.9, tol=1e-12)
    monkeypatch.setattr(capacity, "UNRUH_MAX_TERMS", 294)
    with pytest.raises(ConvergenceError):
        quantum_capacity_unruh(3, 0.9, tol=1e-12)
    monkeypatch.setattr(capacity, "UNRUH_MAX_TERMS", 295)
    assert quantum_capacity_unruh(3, 0.9, tol=1e-12).terms == 295


def _loader_nb(j, n, z):
    """NB(j; n, z) = n/(n+j) Bin(n; n+j, 1-z) from the Loader kernel at every term, unanchored."""
    return n / (n + j) * np.exp(capacity._binomial_logpmf(n, n + j, 1.0 - z, z))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 50, 1000, 10**6])
def test_anchored_pmf_matches_the_per_term_kernel(d):
    # The anchored pmf differs from the per-term kernel by the recurrence's roundings, at most
    # 3 * 63 in a row, and by the kernel's own error at the anchor and at j.  That error is first
    # order in the rounding of the binomial means (n+j)(1-z) and (n+j)z, which grows with their
    # distance |n z - j (1-z)| from n, and in that of the O(|ln NB|) deviance sums.  Bound:
    # relative u (192 + 16 |n z - j (1-z)| + 8 |ln NB|), u = 2^-53, asserted where NB > 1e-290.
    # It is about 2.5e-14 near the mass at small d; the largest difference, 5.4e-12, is deep in
    # the left tail at d = 10^6.
    u, n, tol, piece = 2.0**-53, d + 1, 1e-12, 1 << 16
    lb = math.log(capacity.log_base_value("d", d))
    for z in (0.0, 1e-320, 0.3, 0.9, 0.999):
        try:
            res = quantum_capacity_unruh(d, z, tol=tol)
        except ConvergenceError:
            continue  # only d = 10^6, z = 0.999: past the term cap
        ref_total, stop, underflowed, end = 0.0, None, 0, -(-res.terms // 64) * 64
        for lo in range(0, end, piece):  # pieces of whole rows, as the series lays them out
            j = np.arange(lo, min(lo + piece, end))
            anchored = capacity._nb_pmf(j.reshape(-1, 64), n, z).ravel()
            ref = _loader_nb(j, n, z)
            assert np.all(np.isfinite(anchored)), (z, lo)
            underflowed += int(np.count_nonzero(anchored[::64] == 0.0))
            big = ref > 1e-290
            spread = np.abs(n * z - j[big] * (1 - z))
            bound = u * (192 + 16 * spread + 8 * np.abs(np.log(ref[big])))
            assert np.all(np.abs(anchored[big] / ref[big] - 1.0) <= bound), (z, lo)
            assert np.all(anchored[~big] <= 1e-280), (z, lo)
            # the per-term series over the same terms, under the same stop rule
            j, ref = j[j < res.terms], ref[j < res.terms]
            term = ref * np.log1p((d - 1) / (j + 1)) / lb
            q = z * (1.0 + d / (j + 1))
            with np.errstate(divide="ignore", invalid="ignore"):
                done = np.flatnonzero((q < 1.0) & (term * q / (1.0 - q) < tol))
            if stop is None and done.size:
                stop = lo + int(done[0])
            ref_total += float(term.sum())
        assert stop == res.terms - 1, z
        assert abs(res.value - ref_total) <= 1e-13, z
        if d == 10**6 and z == 0.9:
            assert underflowed > 0  # the left tail's anchors underflow to 0, and their rows stay 0


def _unruh_recurrence(d, z, tol, base):
    """The series in linear space, C(d+k-1,k) z^(k-1) by recurrence, Neumaier-summed.

    That coefficient overflows near k = 333 once d is a few hundred, so this
    reference holds only where it stays finite.
    """
    lb = math.log(capacity.log_base_value(base, d))
    prefac = (1.0 - z) ** (d + 1) / d
    total = comp = 0.0
    k, binom_z = 1, float(d)
    while True:
        term = prefac * k * binom_z * (math.log(d + k - 1) - math.log(k)) / lb
        t = total + term
        comp += (total - t) + term if abs(total) >= abs(term) else (term - t) + total
        total = t
        q = z * (1.0 + d / k)
        if q < 1.0 and term * q / (1.0 - q) < tol:
            return total + comp, k
        binom_z *= z * (d + k) / (k + 1)
        k += 1


@pytest.mark.parametrize("d", [1, 2, 3, 7, 20, 100])
def test_unruh_matches_linear_recurrence(d):
    for z in (0.0, 0.3, 0.6, 0.9, 0.99, 0.999):
        for tol, base in ((1e-10, "d"), (1e-13, "2")):
            value, terms = _unruh_recurrence(d, z, tol, base)
            res = quantum_capacity_unruh(d, z, tol=tol, base=base)
            assert res.terms == terms, (z, tol)
            assert abs(res.value - value) <= 1e-13, (z, tol)


def _mp_unruh(d, z):
    """(1-z)^(d+1) sum_j C(d+j,j) z^j log((d+j)/(j+1)) / log d, to a 1e-20 relative tail."""
    with mpmath.workdps(30):
        z = mpmath.mpf(z)
        coef, total, j = (1 - z) ** (d + 1), mpmath.mpf(0), 0
        while True:
            term = coef * mpmath.log(mpmath.mpf(d + j) / (j + 1))
            total += term
            ratio = z * (d + j + 1) / (j + 1)  # coef_{j+1} / coef_j bounds the term ratio
            if ratio < 1 and term * ratio / (1 - ratio) < total * mpmath.mpf("1e-20"):
                return float(total / mpmath.log(d))
            coef *= ratio
            j += 1


@pytest.mark.parametrize(
    "d, z, expected", [(300, 0.95, 0.008962866612001), (1000, 0.9, 0.015237216093433)]
)
def test_unruh_large_dimension_against_mpmath(d, z, expected):
    # the linear-space recurrence overflowed here and spun to the term cap
    ref = _mp_unruh(d, z)
    assert abs(ref - expected) < 1e-15
    res = quantum_capacity_unruh(d, z, tol=1e-12)
    assert res.terms < capacity.UNRUH_MAX_TERMS
    assert abs(res.value - ref) <= res.remainder + 1e-13


def test_unruh_approx_hand_value():
    expected = 0.75 / (2 * math.log(2))
    assert abs(unruh_capacity_approx(2, 0.5) - expected) < 1e-15
    assert unruh_capacity_approx(3, 1.0) == 0.0
    assert unruh_capacity_approx(1, 0.5) == 0.0  # one rail, like every d=1 capacity


def test_unruh_approx_rejects_z_outside_its_interval():
    for z in (0.0, -0.1, 1.0 + 1e-15, 2.0, math.nan, -math.inf):
        with pytest.raises(DomainError, match=r"outside \(0, 1\]"):
            unruh_capacity_approx(3, z)


def _mp_unruh_approx(d: int, z: float) -> float:
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        loss = -mpmath.expm1(d * mpmath.log1p(-z))  # 1 - (1-z)^d
        return float((d - 1) / (d * mpmath.log(d)) * (1 - z) / z * loss)


@pytest.mark.parametrize("d", [2, 3, 10, 50, 1000])
def test_unruh_approx_keeps_its_digits_at_small_z(d):
    # 1 - (1-z)^d in floats cancels: from z = 1e-4 or 1e-5 down, 12 decimals were lost
    for z in [10.0**-e for e in range(1, 17)] + [1e-320]:
        assert unruh_capacity_approx(d, z) == pytest.approx(_mp_unruh_approx(d, z), rel=2e-15)
    # at z = 5e-324 the limit (d-1)/ln d, no longer nan from (1-z)/z overflowing
    assert unruh_capacity_approx(d, 5e-324) == pytest.approx((d - 1) / math.log(d), rel=2e-15)


@pytest.mark.filterwarnings("error")
def test_tiny_parameters_raise_no_overflow_warning():
    # x / m overflows inside the binomial kernel when the mean m = n s is subnormal
    assert quantum_capacity_grassmann_w(5, 1e-310) == pytest.approx(1.0, abs=1e-12)
    assert quantum_capacity_grassmann(1000, 1e-160) == pytest.approx(1.0, abs=1e-12)
    assert quantum_capacity_grassmann_w(3, 5e-324) == pytest.approx(1.0, abs=1e-12)
    assert quantum_capacity_unruh(3, 1e-320).value == pytest.approx(1.0, abs=1e-12)


def test_capacity_ratio_values():
    assert abs(capacity_ratio(2) - math.log(2)) < 1e-12
    ratios = [capacity_ratio(d) for d in range(2, 51)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    r100 = capacity_ratio(100)
    assert ratios[-1] < r100 < 1.0
    with pytest.raises(DomainError):
        capacity_ratio(1)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: quantum_capacity_grassmann(d, 0.3),
        lambda d: quantum_capacity_grassmann_unclamped(d, 0.3),
        lambda d: quantum_capacity_grassmann_w(d, 0.3),
        lambda d: classical_capacity_grassmann(d, 0.3),
        lambda d: block_weights(d, 0.3),
        lambda d: degrading_weights(d, 0.3),
        lambda d: quantum_capacity_unruh(d, 0.5),
        lambda d: unruh_capacity_approx(d, 0.5),
        capacity_ratio,
    ],
)
@pytest.mark.parametrize("d", [2.5, 3.0, np.float64(3.0), "3", None])
def test_closed_forms_reject_a_non_integer_d(call, d):
    # 2.5 and 3.0 raised IndexError, or read a value (unruh_capacity_approx(2.5, 0.5) = 0.539)
    with pytest.raises(DomainError, match="d must be an integer"):
        call(d)


def test_closed_forms_take_numpy_integer_d():
    for d in (np.int64(3), np.int32(3), np.uint8(3)):
        assert quantum_capacity_grassmann(d, 0.3) == quantum_capacity_grassmann(3, 0.3)
        assert quantum_capacity_grassmann_w(d, 0.3) == quantum_capacity_grassmann_w(3, 0.3)
        assert quantum_capacity_unruh(d, 0.5) == quantum_capacity_unruh(3, 0.5)
        assert unruh_capacity_approx(d, 0.5) == unruh_capacity_approx(3, 0.5)
        assert capacity_ratio(d) == capacity_ratio(3)


_NUMPY_FLOATS = [np.float32(0.3), np.float64(0.3), np.float32(1.0), np.float16(0.5)]


@pytest.mark.parametrize("x", _NUMPY_FLOATS, ids=repr)
@pytest.mark.parametrize("call", [quantum_capacity_grassmann_w, unruh_capacity_approx])
def test_closed_forms_of_a_numpy_float_return_its_python_float_value(call, x):
    # under NumPy 2 a float32 x once kept its arithmetic with Python floats in float32
    for d in (1, 3, 5):
        value = call(d, x)
        assert type(value) is float and value == call(d, float(x)), (d, x)


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_capacity_ratio_is_the_limit_of_the_two_capacities(d):
    # w = tan^2 r and z = tanh^2 r_B are one acceleration axis, and infinite acceleration
    # is x -> 1, where both capacities vanish; their quotient tends to capacity_ratio(d)
    # with an error of order eps^2 in eps = 1 - x
    errors = []
    for eps in (1e-2, 1e-3):
        fermionic = quantum_capacity_grassmann_w(d, 1.0 - eps)
        bosonic = quantum_capacity_unruh(d, 1.0 - eps, tol=1e-14).value
        errors.append(abs(fermionic / bosonic - capacity_ratio(d)))
        assert errors[-1] <= 2 * eps**2
    assert errors[1] * 50 <= errors[0]


def test_domain_errors():
    with pytest.raises(DomainError):
        quantum_capacity_grassmann(3, math.pi / 2)
    with pytest.raises(DomainError):
        quantum_capacity_grassmann(0, 0.3)
    with pytest.raises(DomainError):
        quantum_capacity_unruh(3, 1.0)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            quantum_capacity_unruh(3, 0.5, tol=tol)
    for base in ("1", "e", 2.0, 3, math.nan, math.inf):
        with pytest.raises(DomainError):
            capacity.log_base_value(base, 3)
    with pytest.raises(DomainError):
        quantum_capacity_grassmann(3, 0.3, base=math.nan)


# Property tests over the whole dimension range: the closed forms have no
# dimension cap, so d reaches 10^4 (bigint weights overflowed from d ~ 1030).
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
DIMS = st.integers(2, 10_000)
RS = st.floats(0.0, 1.5)
BASES = st.sampled_from(["2", "d"])


@PROPERTY
@given(d=DIMS, r=RS)
@example(d=10_000, r=0.3)
def test_block_weights_property(d, r):
    assert abs(block_weights(d, r).sum() - 1.0) < 1e-12


@PROPERTY
@given(d=DIMS, r=RS, base=BASES)
@example(d=10_000, r=0.3, base="2")
def test_unclamped_antisymmetry_property(d, r, base):
    assume(math.pi / 2 - r < math.pi / 2)
    left = quantum_capacity_grassmann_unclamped(d, r, base)
    right = quantum_capacity_grassmann_unclamped(d, math.pi / 2 - r, base)
    assert abs(left + right) < 1e-12
    assert abs(quantum_capacity_grassmann_unclamped(d, math.pi / 4, base)) < 1e-12


@PROPERTY
@given(d=DIMS, r=RS, w=st.floats(0.0, 1.0), base=BASES)
@example(d=10_000, r=0.3, w=0.4, base="2")
@example(d=5, r=0.0, w=0.0, base="d")
@example(d=3, r=0.0, w=5e-324, base="2")
@example(d=10_000, r=0.0, w=1.0, base="d")
def test_closed_forms_match_their_second_forms(d, r, w, base):
    assert abs(quantum_capacity_grassmann_w(d, w, base) - max(0.0, q_w_form_a(d, w, base))) <= 1e-12
    classical = classical_capacity_grassmann(d, r, base)
    assert abs(classical - max(0.0, classical_three_term(d, r, base))) <= 1e-10


@PROPERTY
@given(d=DIMS, rs=st.lists(RS, min_size=2, max_size=6), base=BASES)
@example(d=10_000, rs=[0.0, 0.4, 0.8, 1.5], base="d")
def test_capacities_non_increasing_in_r(d, rs, base):
    rs = sorted(rs)
    for func in (quantum_capacity_grassmann, classical_capacity_grassmann):
        values = [func(d, r, base) for r in rs]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:])), func.__name__


def _mp_log_base(d, base):
    return mpmath.log(2) if base == "2" else mpmath.log(d)


def _mp_weights(d, r):
    c2, s2 = mpmath.cos(mpmath.mpf(r)) ** 2, mpmath.sin(mpmath.mpf(r)) ** 2
    return [math.comb(d - 1, k - 1) * c2 ** (d - k) * s2 ** (k - 1) for k in range(1, d + 1)]


def _close(value, ref):
    return abs(value - float(ref)) <= 2e-12 + 1e-12 * abs(float(ref))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 2000), r=RS, w=st.floats(0.0, 1.0), base=BASES)
@example(d=2000, r=0.3, w=0.9, base="2")
def test_closed_forms_against_mpmath(d, r, w, base):
    with mpmath.workdps(30):
        _check_against_mpmath(d, r, w, base)


def _check_against_mpmath(d, r, w, base):
    lb = _mp_log_base(d, base)
    p = _mp_weights(d, r)
    logs = [mpmath.log(k) for k in range(1, d + 1)]
    q = sum((p[d - k] - p[k - 1]) * logs[k - 1] for k in range(1, d + 1)) / lb
    assert _close(quantum_capacity_grassmann_unclamped(d, r, base), q)
    c = (logs[-1] - sum(pk * lk for pk, lk in zip(p, logs))) / lb
    assert _close(classical_capacity_grassmann(d, r, base), max(0, c))
    wm = mpmath.mpf(w)
    qw = sum(
        wm**k * math.comb(d - 1, k) * (logs[d - k - 1] - logs[k]) for k in range(d)
    ) / (1 + wm) ** (d - 1) / lb
    assert _close(quantum_capacity_grassmann_w(d, w, base), max(0, qw))
    ratio = sum(
        (d - 1 - 2 * k) * math.comb(d - 1, k) * (logs[d - k - 1] - logs[k])
        for k in range((d - 1) // 2 + 1)
    ) * d / mpmath.mpf(d - 1) / mpmath.mpf(2) ** (d - 1)
    assert _close(capacity_ratio(d), ratio)
