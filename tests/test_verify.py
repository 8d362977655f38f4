"""Entropy utilities, optimizers, and structural verification checks."""

import itertools
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from grasschan import capacity, channels, fock, verify
from grasschan.errors import DomainError, PreconditionError
from helpers import (
    degradable_reference,
    intertwiner_solve,
    pair_sectors,
    random_density,
    sector_maps,
)


def test_entropy_pure_and_mixed():
    assert verify.von_neumann_entropy(np.diag([1.0, 0.0, 0.0]).astype(complex)) == 0.0
    for n in (2, 3, 5):
        assert abs(verify.von_neumann_entropy(np.eye(n) / n, base=2.0) - math.log2(n)) < 1e-12
    # direct evaluation oracle for a two-point spectrum
    expected = 2.0 - 0.75 * math.log2(3.0)
    got = verify.von_neumann_entropy(np.diag([0.75, 0.25]).astype(complex), base=2.0)
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.8112781244591328) < 1e-12


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_entropy_rejects_non_finite_entries(entry):
    # NaN eigenvalues fail the floor test, so without the check the entropy read -0.0
    with pytest.raises(PreconditionError, match="finite"):
        verify.von_neumann_entropy(np.full((2, 2), entry))
    rho = np.eye(3, dtype=complex) / 3
    rho[0, 2] = entry
    with pytest.raises(PreconditionError, match="finite"):
        verify.von_neumann_entropy(rho)


@pytest.mark.parametrize("base", [math.nan, math.inf, -math.inf, 1.0, 0.0, -2.0])
def test_entropy_rejects_a_bad_log_base(base):
    # base nan read nan, and base 1 read inf with a RuntimeWarning
    with pytest.raises(DomainError, match="log base"):
        verify.von_neumann_entropy(np.eye(2) / 2, base=base)


def test_entropy_additive_on_products():
    rng = np.random.default_rng(21)
    for _ in range(5):
        rho = random_density(3, rng)
        sigma = random_density(4, rng)
        lhs = verify.von_neumann_entropy(np.kron(rho, sigma))
        rhs = verify.von_neumann_entropy(rho) + verify.von_neumann_entropy(sigma)
        assert abs(lhs - rhs) < 1e-10


def test_random_su_properties():
    rng = np.random.default_rng(1)
    for d in (2, 3, 5):
        u = verify.random_su(d, rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_coherent_information_identity_limit():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        rho = random_density(d, rng)
        expected = verify.von_neumann_entropy(rho, base=float(d) if d > 1 else 2.0)
        assert abs(verify.coherent_information(d, 0.0, rho) - expected) < 1e-10


def test_coherent_information_vanishes_at_pi4():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        for _ in range(5):
            rho = random_density(d, rng)
            assert abs(verify.coherent_information(d, math.pi / 4, rho)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_coherent_information_maximally_mixed_equals_closed_form(d):
    for r in (0.2, 0.5, 0.7):
        got = verify.coherent_information(d, r, np.eye(d) / d)
        assert abs(got - capacity.quantum_capacity_grassmann_unclamped(d, r)) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_coherent_information_purification_oracle(d):
    # independent route: extend the isometry over a purifying register and
    # take entropies of the dense reduced states
    from grasschan import fock

    rng = np.random.default_rng(31)
    r = 0.6
    rho = random_density(d, rng)
    evals, vecs = np.linalg.eigh(rho)
    dim_ac = 1 << (2 * d)
    tau = np.zeros((dim_ac, d), dtype=complex)  # columns indexed by the register
    for i in range(d):
        if evals[i] < 1e-14:
            continue
        tau[:, i] = math.sqrt(evals[i]) * fock.isometry_apply(d, r, vecs[:, i]).dense()
    full = tau.reshape(1 << d, 1 << d, d)  # (A, C, R)
    rho_a = np.einsum("acr,bcr->ab", full, full.conj())
    rho_c = np.einsum("acr,adr->cd", full, full.conj())
    base = float(d)
    expected = verify.von_neumann_entropy(rho_a, base) - verify.von_neumann_entropy(rho_c, base)
    assert abs(verify.coherent_information(d, r, rho) - expected) < 1e-10


def test_coherent_information_shape_check():
    with pytest.raises(PreconditionError):
        verify.coherent_information(3, 0.5, np.eye(2) / 2)
    rho = np.eye(2) / 2
    rho[1, 0] = math.nan
    for bad in (np.full((2, 2), math.nan), rho, np.diag([math.inf, 0.0])):
        with pytest.raises(PreconditionError, match="finite"):
            verify.coherent_information(2, 0.4, bad)
    # not density matrices: trace 2, not Hermitian, not positive semidefinite
    for bad, reason in (
        (np.eye(2), "unit trace"),
        ([[0.5, 1.0], [0.0, 0.5]], "Hermitian"),
        (np.diag([2.0, -1.0]), "positive semidefinite"),
    ):
        with pytest.raises(PreconditionError, match=reason):
            verify.coherent_information(2, 0.4, bad)


def test_objectives_reject_a_whole_float_d():
    # (3, 3) == (3.0, 3.0), so the shape check passes; the block tables, warm at d = 3, must
    # not take 3.0 for 3
    rho = np.eye(3) / 3
    verify.coherent_information(3, 0.4, rho)
    for d in (3.0, np.float64(3.0)):
        with pytest.raises(DomainError, match="d must be an integer"):
            verify.coherent_information(d, 0.4, rho)
        with pytest.raises(DomainError, match="d must be an integer"):
            verify.holevo_quantity(d, 0.4, [(1.0, rho)])


def test_optimize_coherent_information_qubit():
    value, rho, _ = verify.optimize_coherent_information(2, 0.3, seed=7)
    expected = 1.0 - 2.0 * math.sin(0.3) ** 2
    assert abs(value - expected) < 1e-6
    assert np.linalg.norm(rho - np.eye(2) / 2) < 1e-3


def test_optimize_coherent_information_zero_point():
    value, _, _ = verify.optimize_coherent_information(3, math.pi / 4, seed=7)
    assert abs(value) < 1e-6


def test_holevo_quantity_examples():
    rng = np.random.default_rng(4)
    rho = random_density(2, rng)
    assert abs(verify.holevo_quantity(2, 0.4, [(1.0, rho)])) < 1e-12
    for d in (2, 3):
        rails = [(1.0 / d, np.diag(np.eye(d)[i]).astype(complex)) for i in range(d)]
        assert abs(verify.holevo_quantity(d, 0.0, rails) - 1.0) < 1e-10  # log_d d
    for r in (0.3, 0.8):
        rails = [(0.5, np.diag([1.0, 0.0]).astype(complex)), (0.5, np.diag([0.0, 1.0]).astype(complex))]
        assert abs(verify.holevo_quantity(2, r, rails) - (1 - math.sin(r) ** 2)) < 1e-10
    with pytest.raises(PreconditionError):
        verify.holevo_quantity(2, 0.4, [(0.7, rho)])
    for probs in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(PreconditionError, match="distribution"):
            verify.holevo_quantity(2, 0.4, list(zip(probs, (rho, rho))))
    nan_state = rho.copy()
    nan_state[0, 1] = math.nan
    for bad in (nan_state, np.full((2, 2), math.inf)):
        with pytest.raises(PreconditionError, match="finite"):
            verify.holevo_quantity(2, 0.4, [(0.5, rho), (0.5, bad)])
    for bad in (rho[:1], np.eye(3), np.zeros((2, 2, 2)), [[1.0]]):
        with pytest.raises(PreconditionError, match="state shape"):
            verify.holevo_quantity(2, 0.4, [(0.5, rho), (0.5, bad)])
    for bad, reason in (
        (np.eye(2), "unit trace"),
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "Hermitian"),
        (np.diag([2.0, -1.0]), "positive semidefinite"),
    ):
        with pytest.raises(PreconditionError, match=reason):
            verify.holevo_quantity(2, 0.4, [(0.5, rho), (0.5, bad)])


def test_optimize_holevo_qubit():
    value, ensemble, _ = verify.optimize_holevo(2, 0.5, seed=11, ensemble_size=4)
    closed = capacity.classical_capacity_grassmann(2, 0.5)
    assert value <= closed + 1e-6
    assert abs(value - closed) < 1e-4
    probs = [p for p, _ in ensemble]
    assert abs(sum(probs) - 1.0) < 1e-12


def test_optimize_holevo_monotone_in_r():
    values = [
        verify.optimize_holevo(2, r, seed=11, ensemble_size=3)[0]
        for r in (0.0, 0.5, 1.0, 1.3)
    ]
    assert all(a >= b - 1e-6 for a, b in zip(values, values[1:]))
    assert abs(values[0] - 1.0) < 1e-6


def test_optimize_domain_caps():
    optimizers = (verify.optimize_coherent_information, verify.optimize_holevo)
    for optimize in optimizers:
        with pytest.raises(DomainError, match="capped at d=8"):
            optimize(9, 0.3, seed=7)
    for d in (0, -2):
        with pytest.raises(DomainError):
            verify.optimize_holevo(d, 0.3, seed=7)
        with pytest.raises(DomainError):
            verify.optimize_coherent_information(d, 0.3, seed=7)
    with pytest.raises(PreconditionError):
        verify.optimize_holevo(3, 0.3, seed=7, ensemble_size=2)
    # a whole float d, or ensemble size, reached numpy's shape checks as a bare TypeError
    for optimize, d in itertools.product(optimizers, (2.0, 2.5, "2", None)):
        with pytest.raises(DomainError, match="d must be an integer"):
            optimize(d, 0.3, seed=1)
    for size in (3.0, 3.5, "3"):
        with pytest.raises(DomainError, match="ensemble_size must be an integer"):
            verify.optimize_holevo(2, 0.3, seed=1, ensemble_size=size)
    for optimize, kwargs in ((optimizers[0], {}), (optimizers[1], {"ensemble_size": 3})):
        want = optimize(2, 0.3, seed=1, **kwargs)
        got = optimize(np.int64(2), 0.3, seed=1, **{k: np.int64(v) for k, v in kwargs.items()})
        assert got[0] == want[0] and got[2] == want[2]


def _concave_quadratic(n, seed):
    # -(x - c)^T A (x - c) / 2, maximal at c.  The stop rule on a relative decrease
    # of 1e-15 leaves an error near sqrt(2e-15 / lambda), so A has eigenvalues in [1e6, 4e6]
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * rng.uniform(1e6, 4e6, n)) @ q.T
    peak = rng.standard_normal(n)

    def value_and_grad(x):
        return -0.5 * (x - peak) @ a @ (x - peak), -a @ (x - peak)

    return value_and_grad, peak, [rng.standard_normal(n) for _ in range(2)]


def test_maximize_reaches_the_peak_of_a_concave_quadratic():
    value_and_grad, peak, starts = _concave_quadratic(12, 3)
    value, x, stats = verify._maximize(value_and_grad, starts, maxiter=2000)
    assert stats["success"] == [True, True]
    assert np.abs(x - peak).max() < 1e-10
    assert -1e-12 < value <= 0.0
    assert stats["nfev"] <= 45  # scipy's L-BFGS-B takes 39 calls from these starts


def test_maximize_stops_at_maxiter_without_raising():
    value_and_grad, _, starts = _concave_quadratic(12, 3)
    _, _, stats = verify._maximize(value_and_grad, starts, maxiter=3)
    assert stats["success"] == [False, False]


def test_maximize_counts_every_objective_call():
    quadratic, _, starts = _concave_quadratic(12, 3)
    rng = np.random.default_rng(8)
    ensembles = [rng.standard_normal(4 * 2 * 3 + 4) for _ in range(3)]
    for fun, x0s, maxiter in (
        (quadratic, starts, 3),
        (quadratic, starts, 2000),
        (lambda x: verify._holevo_and_grad(x, 3, 1.05, 4), ensembles, 3000),
    ):
        calls = []

        def counted(x, fun=fun, calls=calls):
            calls.append(None)
            return fun(x)

        _, _, stats = verify._maximize(counted, x0s, maxiter)
        assert stats["nfev"] == len(calls)


def test_lbfgs_stops_where_no_search_can_gain():
    # near the minimum of |x|^2 / 2, with values rounded to 1e-12, no step can lower f
    # measurably: the search along -g fails after 20 calls, and the gain it predicted,
    # |g|^2 = 1e-16, is below 1e-15 max(|f|, 1), so the restart converged
    calls = []

    def rounded(x):
        calls.append(None)
        return round(0.5 * float(x @ x), 12), x.copy()

    x0 = np.full(4, 5e-9)
    x, f, _, ok = verify._lbfgs(rounded, x0, maxiter=100)
    assert ok and len(calls) == 21
    assert np.array_equal(x, x0) and f == 0.0


def test_lbfgs_searches_above_the_gradient_gate():
    # the same start without rounding: its largest gradient entry, 5e-9, is above
    # 1e-10, so it searches though the gain it predicts is only 1e-16, and it stops
    # at the exact minimum
    calls = []

    def exact(x):
        calls.append(None)
        return 0.5 * float(x @ x), x.copy()

    x, f, g, ok = verify._lbfgs(exact, np.full(4, 5e-9), maxiter=100)
    assert ok and len(calls) > 1
    assert f == 0.0 and not g.any()

    # a failed search that predicted a gain above rounding is no convergence
    def walled(x):  # undefined off the start
        return (0.5 * float(x @ x) if not (x - 1.0).any() else math.nan), x.copy()

    x, _, g, ok = verify._lbfgs(walled, np.ones(4), maxiter=100)
    assert not ok and not (x - 1.0).any() and np.abs(g).max() == 1.0


def test_lbfgs_clears_its_pairs_and_retries_along_minus_g_after_a_failed_search():
    # an anisotropic bowl that turns NaN after six calls: the search along -H g fails after
    # 20 calls with pairs in memory, which are cleared, and the retry along -g, unit step,
    # fails after 20 more; the gain that retry predicted is far above rounding
    scales, calls = np.array([1.0, 10.0, 100.0]), []

    def fun(x):
        calls.append(x.copy())
        value = 0.5 * float(x @ (scales * x)) if len(calls) <= 6 else math.nan
        return value, scales * x

    x, f, g, ok = verify._lbfgs(fun, np.ones(3), maxiter=100)
    assert len(calls) == 6 + 40 and not ok
    assert f == 0.5 * float(x @ (scales * x)) and np.array_equal(g, scales * x)
    assert np.array_equal(calls[26], x - g) and not np.array_equal(calls[6], x - g)
    # every failed call is on one of the two rays from x
    for ray in (calls[6:26], calls[26:]):
        steps = np.array([point - x for point in ray])
        assert np.linalg.matrix_rank(steps, tol=1e-12 * np.abs(steps).max()) == 1


def test_the_coherent_information_objective_at_the_zero_point():
    # F = 0 has no trace to normalize by: the state is I/d, and the gradient is zero
    for d in (1, 3):
        x = np.zeros(2 * d * d)
        assert np.array_equal(verify._params_to_density(x, d), np.eye(d) / d)
        value, grad = verify._coherent_information_and_grad(x, d, 0.7)
        assert value == verify.coherent_information(d, 0.7, np.eye(d) / d)
        assert grad.shape == x.shape and not grad.any()


def test_line_search_cases():
    def search(value, stp):
        # one dimension, p = 1 from t = 0 with f0 = 0.5 and slope -1, the gradient being
        # that of the bowl; returns the search result and the number of objective calls
        calls = []

        def fun(x):
            calls.append(x[0])
            return value(x[0]), x - 1.0

        return verify._line_search(fun, np.zeros(1), 0.5, np.ones(1), -1.0, stp), len(calls)

    def bowl(t):
        return 0.5 * (t - 1.0) ** 2

    def decreases(t, f):
        return f <= 0.5 - 1e-3 * t

    def nan_beyond(radius):
        return lambda t: bowl(t) if t < radius else math.nan

    # the first step meets both conditions
    (x, f, g), calls = search(bowl, 1.0)
    assert calls == 1 and x[0] == 1.0 and f == 0.0
    # an overshooting step shrinks to the quadratic fit, here the bowl's minimum
    (x, f, g), calls = search(bowl, 10.0)
    assert calls == 2 and x[0] == 1.0 and decreases(x[0], f)
    # a step that is too short doubles until the slope is at least 0.9 of slope0
    (x, f, g), calls = search(bowl, 0.01)
    assert calls == 5 and x[0] == 0.16 and decreases(x[0], f) and g[0] >= -0.9
    # a NaN value is a rejected step: the search halves back inside the radius
    (x, f, g), calls = search(nan_beyond(0.3), 1.0)
    assert calls == 3 and x[0] == 0.25 and math.isfinite(f) and decreases(x[0], f)
    # a rejected step after an accepted one returns the accepted one
    (x, f, g), calls = search(nan_beyond(0.1), 0.03)
    assert calls == 3 and x[0] == 0.06 and decreases(x[0], f)
    # an expansion still too short after 20 calls returns its last accepted step
    (x, f, g), calls = search(bowl, 1e-9)
    assert calls == 20 and x[0] == 2.0**19 * 1e-9 and decreases(x[0], f)
    # an objective that never decreases fails after 20 calls
    assert search(lambda t: 1.0, 1.0) == (None, 20)


def _scipy_maximize(value_and_grad, starts, maxiter):
    # the same multi-start ascent through scipy's L-BFGS-B: a test-time reference only
    from scipy.optimize import minimize

    def negated(x):
        value, grad = value_and_grad(x)
        return -value, -grad

    options = {"ftol": 1e-15, "gtol": 1e-10, "maxiter": maxiter}
    results = [minimize(negated, x0, jac=True, method="L-BFGS-B", options=options) for x0 in starts]
    best = min(results, key=lambda res: res.fun)
    return -float(best.fun), best.x, {}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [0.3, 1.05])
def test_oracles_match_scipy_lbfgsb(d, r, monkeypatch):
    def optima():
        q = verify.optimize_coherent_information(d, r, seed=7)[0]
        return q, verify.optimize_holevo(d, r, seed=11)[0]

    ours = optima()
    monkeypatch.setattr(verify, "_maximize", _scipy_maximize)
    ref = optima()
    assert np.abs(np.subtract(ours, ref)).max() <= 1e-12


def _central_difference(fun, x, h=1e-6):
    steps = np.eye(len(x)) * h
    return np.array([(fun(x + e)[0] - fun(x - e)[0]) / (2 * h) for e in steps])


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [0.55, 1.05])
def test_coherent_information_objective_value_and_gradient(d, r):
    rng = np.random.default_rng(100 * d + int(100 * r))
    x = rng.standard_normal(2 * d * d)

    def fun(y):
        return verify._coherent_information_and_grad(y, d, r)

    value, grad = fun(x)
    rho = verify._params_to_density(x, d)
    assert abs(value - verify.coherent_information(d, r, rho)) < 1e-12
    assert np.abs(grad - _central_difference(fun, x)).max() < 1e-6


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [0.55, 1.05])
def test_holevo_objective_value_and_gradient(d, r):
    size = d + 1
    rng = np.random.default_rng(100 * d + int(100 * r) + 1)
    x = rng.standard_normal(size * 2 * d + size)

    def fun(y):
        return verify._holevo_and_grad(y, d, r, size)

    value, grad = fun(x)
    ensemble = verify._params_to_ensemble(x, d, size)
    assert abs(value - verify.holevo_quantity(d, r, ensemble)) < 1e-12
    assert np.abs(grad - _central_difference(fun, x)).max() < 1e-6

    # a member with a zero vector holds a fixed state and takes no gradient
    x[: 2 * d] = 0.0
    value, grad = fun(x)
    ensemble = verify._params_to_ensemble(x, d, size)
    assert abs(value - verify.holevo_quantity(d, r, ensemble)) < 1e-12
    assert np.all(np.isfinite(grad)) and not grad[: 2 * d].any()
    assert np.abs(grad[2 * d :] - _central_difference(fun, x)[2 * d :]).max() < 1e-6


def _neg_log(out, ln_base):
    # L = -log+(out)/ln b from one full-size eigh, zeroing eigenvalues at or below 1e-14
    evals, vecs = np.linalg.eigh(out)
    logs = np.log(evals, out=np.zeros_like(evals), where=evals > 1e-14)
    return (vecs * (-logs / ln_base)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _stacked_adjoint(kraus, mat):  # sum_m K_m^dag mat K_m, for one matrix or a stack
    return channels.apply_kraus(kraus.conj().transpose(0, 2, 1), mat)


def _coherent_reference(d, r, x):
    # I_c and its gradient at x through the zero-padded Kraus stacks and full-size eigensolves
    fwd, comp = channels.grassmann_channel(d, r), channels.complementary_channel(d, r)
    base = capacity.log_base_value("d", d)
    rho = verify._params_to_density(x, d)
    out_a = channels.apply_kraus(fwd.kraus, rho)
    out_c = channels.apply_kraus(comp.kraus, rho)
    i_c = verify.von_neumann_entropy(out_a, base) - verify.von_neumann_entropy(out_c, base)
    g = _stacked_adjoint(fwd.kraus, _neg_log(out_a, math.log(base)))
    g = g - _stacked_adjoint(comp.kraus, _neg_log(out_c, math.log(base)))
    factor = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
    step = (2.0 / float(x @ x)) * (g - np.trace(g @ rho).real * np.eye(d)) @ factor
    return i_c, np.concatenate([step.real.ravel(), step.imag.ravel()])


def _holevo_reference(d, r, x, size):
    # chi and its gradient at the ensemble point x, by the same stacked route
    fwd = channels.grassmann_channel(d, r)
    base = capacity.log_base_value("d", d)
    probs, unit, norms = verify._ensemble_parts(x, d, size)
    psi = unit[:, :, None] * unit.conj()[:, None, :]
    outputs = channels.apply_kraus(fwd.kraus, psi)
    avg = (probs[:, None, None] * outputs).sum(axis=0)
    ents = np.array([verify.von_neumann_entropy(out, base) for out in (avg, *outputs)])
    chi = ents[0] - probs @ ents[1:]
    logs = _neg_log(np.concatenate((avg[None], outputs)), math.log(base))
    marginal = (outputs.reshape(size, -1) @ logs[0].conj().ravel()).real - ents[1:]
    pulled = probs[:, None, None] * _stacked_adjoint(fwd.kraus, logs[0] - logs[1:])
    hu = (pulled @ unit[..., None])[..., 0]
    w = (2.0 / norms)[:, None] * (hu - (unit.conj() * hu).sum(axis=1).real[:, None] * unit)
    grad = np.concatenate(
        [np.stack((w.real, w.imag), axis=1).ravel(), probs * (marginal - probs @ marginal)]
    )
    return chi, grad


@pytest.mark.parametrize("d", range(1, 9))
def test_sector_objectives_match_stacked_reference(d):
    rng = np.random.default_rng(40 + d)
    size = 3
    for r in (0.0, 0.3, math.pi / 4, 1.4, 1.5707963):  # near pi/2 the complement dominates
        full = rng.standard_normal(2 * d * d)
        rank_one = np.zeros(2 * d * d)
        rank_one[::d] = rng.standard_normal(2 * d)  # one nonzero column of the factor F
        for x in (full, rank_one):
            i_c, want = _coherent_reference(d, r, x)
            value, grad = verify._coherent_information_and_grad(x, d, r)
            rho = verify._params_to_density(x, d)
            assert abs(verify.coherent_information(d, r, rho) - i_c) < 1e-13
            assert abs(value - i_c) < 1e-13
            assert np.abs(grad - want).max() < 1e-13

        # pure-state ensembles: the members are rank 1 and their average full rank
        x = rng.standard_normal(size * 2 * d + size)
        chi, want = _holevo_reference(d, r, x, size)
        probs, unit, _ = verify._ensemble_parts(x, d, size)
        psi = unit[:, :, None] * unit.conj()[:, None, :]
        value, grad = verify._holevo_and_grad(x, d, r, size)
        assert abs(verify.holevo_quantity(d, r, list(zip(probs, psi))) - chi) < 1e-13
        assert abs(value - chi) < 1e-13
        assert np.abs(grad - want).max() < 1e-13


def _hermitian(rng, shape):
    # exactly Hermitian, so the diagonal is exactly real
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (g + g.conj().swapaxes(-1, -2)) / 2


def _sector_contraction(d, tables, rho):
    # the group's unit-weight blocks as dense products of the ladder-built sector tensors:
    # block i contracts its sector over (C code, rail)
    sectors, n = pair_sectors(d), tables.gather.shape[-1]
    blocks = np.zeros((*rho.shape[:-2], len(tables.sectors), n, n), dtype=complex)
    for i, s in enumerate(tables.sectors):
        t = sectors[s].real
        x = np.einsum("pci,...ij->...pcj", t, rho)  # one nonzero product per entry, so exact
        dim = len(t)
        blocks[..., i, :dim, :dim] = np.einsum("...pcj,qcj->...pq", x, t)
    return blocks


def _block_test_inputs(d, rng):
    # one density matrix and a (2, 3) stack of them, each exactly Hermitian
    one = random_density(d, rng)
    stack = _hermitian(rng, (2, 3, d, d)) + 2 * d * np.eye(d)
    stack /= np.trace(stack, axis1=-2, axis2=-1).real[..., None, None]
    return (one + one.conj().T) / 2, stack


def _assert_blocks_match(got, want):
    # off the diagonal bit for bit; the diagonal sums over rails, in either order, within 4 ulp
    off = ~np.eye(got.shape[-1], dtype=bool)
    assert np.array_equal(got[..., off], want[..., off])
    diag, want_diag = got[..., ~off], want[..., ~off]
    assert not diag.imag.any() and not want_diag.imag.any()
    assert np.all(np.abs(diag.real - want_diag.real) <= 4 * np.spacing(want_diag.real))


@pytest.mark.parametrize("d", range(1, 9))
def test_block_tables_match_the_dense_sector_contraction(d):
    rng = np.random.default_rng(80 + d)
    for rho in _block_test_inputs(d, rng):
        _, terms = verify._block_terms(d, 0.4, rho, logs=False)
        for tables, blocks, _ in terms:
            _assert_blocks_match(blocks, _sector_contraction(d, tables, rho))

            # adjointness: tr(B(rho) W) = tr(rho B^dag(W)) for Hermitian W, block by block
            w = _hermitian(rng, blocks.shape)
            lhs = np.einsum("...iab,...iba->...", blocks, w)
            rhs = np.einsum("...ab,...ba->...", rho, verify._group_adjoint(d, tables, w))
            assert np.abs(lhs - rhs).max() < 1e-13


@pytest.mark.parametrize("d", range(1, 9))
def test_complement_blocks_are_the_signed_complements_of_the_forward_blocks(d):
    # The objectives never gather a complement block: the one with d - k fermions on C,
    # sector d - k + 1 of the ladder-built pair state contracted over (A code, rail), must be
    # V_k B_k V_k^T, B_k the gathered forward block and V_k the signed anti-identity.
    rng = np.random.default_rng(70 + d)
    sectors = pair_sectors(d)
    for rho in _block_test_inputs(d, rng):
        _, terms = verify._block_terms(d, 0.4, rho, logs=False)
        for tables, blocks, _ in terms:
            for i, s in enumerate(tables.sectors):
                k, dim = s + 1, math.comb(d, s + 1)
                v = verify._signed_complement(d, k)
                forward = blocks[..., i, :dim, :dim]
                assert not blocks[..., i, dim:, :].any() and not blocks[..., i, :, dim:].any()
                t = sectors[d - k].real.transpose(1, 0, 2)  # [C code, A code, rail]
                x = np.einsum("pci,...ij->...pcj", t, rho)
                mirror = np.einsum("...pcj,qcj->...pq", x, t)
                _assert_blocks_match(v @ forward @ v.T, mirror)


@pytest.mark.parametrize("d", range(1, 9))
def test_adjoint_terms_run_by_sector_then_position_down_each_column(d):
    # The adjointness above holds in any term order, but the order of the sums down each
    # column fixes the last bits of every gradient.  The live terms (sign != 0) lead every
    # column, strictly increasing in (sector of the term's block, position), and point into
    # the group's blocks; the padding is position 0, sign 0.
    for tables in verify._block_tables(d).groups:
        blocks, n = len(tables.gather), tables.gather.shape[-1]
        adjoint, signs = tables.adjoint, tables.signs
        live = signs != 0
        assert live[0].any() and not (live[1:] & ~live[:-1]).any()
        assert np.all(np.abs(signs[live]) == 1) and not adjoint[~live].any()
        assert np.all((0 <= adjoint[live]) & (adjoint[live] < blocks * n * n))
        key = tables.sectors[adjoint // (n * n)] * blocks * n * n + adjoint
        assert np.all(np.diff(key, axis=0)[live[1:]] > 0)


@pytest.mark.parametrize("d", range(1, 9))
def test_block_spectra_are_the_subset_sums_of_the_input_spectrum(d):
    # The spectral identity: forward block k of a state with spectrum lam has spectrum
    # a_k {sum_{i in S} lam_i : |S| = k}, and the complement block with j fermions
    # a_(j+1) {1 - sum_{i in S} lam_i : |S| = j}, a_k = cos^(2(d-1)) r tan^(2(k-1)) r.
    # The forward eigenvalues are taken in the layout of the entropy pass, times the squared
    # amplitudes that its per-eigenvalue table names; the padding of shared groups adds zeros.
    # The complement side is read off the dense complementary channel's output sectors.
    rng = np.random.default_rng(90 + d)
    rho = random_density(d, rng)
    lam = np.linalg.eigvalsh(rho)
    tables = verify._block_tables(d)

    def subset_sums(size):
        return np.array([lam[list(s)].sum() for s in itertools.combinations(range(d), size)])

    for r in (0.4, 1.1):
        _, terms = verify._block_terms(d, r, rho, logs=False)
        evals = np.concatenate([np.linalg.eigvalsh(blocks).ravel() for _, blocks, _ in terms])
        a = [math.cos(r) ** (2 * (d - 1)) * math.tan(r) ** (2 * k) for k in range(d)]
        scaled = evals * np.take(a, tables.sectors)
        assert len(scaled) == len(tables.sectors)
        for sector in range(d):
            got = np.sort(scaled[tables.sectors == sector])
            want = a[sector] * subset_sums(sector + 1)
            assert len(got) >= len(want)
            want = np.sort(np.concatenate((want, np.zeros(len(got) - len(want)))))
            assert np.abs(got - want).max() < 1e-13

        comp = channels.complementary_channel(d, r)
        out = channels.apply_kraus(comp.kraus, rho)
        for k, rows in channels.block_slices(comp).items():
            j = d - k  # fermions on C
            got = np.linalg.eigvalsh(out[rows, rows])
            want = np.sort(a[j] * (1.0 - subset_sums(j)))
            assert np.abs(got - want).max() < 1e-13


def _fail_once(monkeypatch, name, at):
    # np.linalg.<name> raises LinAlgError on its call number ``at`` (from 0) and only there
    real, calls = getattr(np.linalg, name), []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == at + 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, flaky)
    return calls


@pytest.mark.parametrize("d", [2, 4, 8])
def test_objectives_survive_an_eigensolver_failure(d, monkeypatch):
    # heevd can fail to converge on a degenerate block for some inputs; the
    # group that failed is solved again, shifted, and every result stays exact
    rng = np.random.default_rng(60 + d)
    r, size = 1.4, 3
    x = rng.standard_normal(2 * d * d)
    rho = verify._params_to_density(x, d)
    xe = rng.standard_normal(size * 2 * d + size)
    probs, unit, _ = verify._ensemble_parts(xe, d, size)
    ensemble = list(zip(probs, unit[:, :, None] * unit.conj()[:, None, :]))
    i_c, want_q = _coherent_reference(d, r, x)
    chi, want_e = _holevo_reference(d, r, xe, size)
    values = (
        ("eigvalsh", lambda: verify.coherent_information(d, r, rho), i_c),
        ("eigvalsh", lambda: verify.holevo_quantity(d, r, ensemble), chi),
    )
    objectives = (
        (lambda: verify._coherent_information_and_grad(x, d, r), i_c, want_q),
        (lambda: verify._holevo_and_grad(xe, d, r, size), chi, want_e),
    )
    for at in range(len(verify._block_tables(d)[1])):
        for name, run, want in values:
            calls = _fail_once(monkeypatch, name, at)
            value = run()
            monkeypatch.undo()
            assert len(calls) > at
            assert abs(value - want) < 1e-13
        for run, want_value, want_grad in objectives:
            calls = _fail_once(monkeypatch, "eigh", at)
            value, grad = run()
            monkeypatch.undo()
            assert len(calls) > at
            assert abs(value - want_value) < 1e-13
            assert np.abs(grad - want_grad).max() < 1e-13


def test_objectives_allocate_no_stack_sized_temporary():
    # half of one zero-padded d = 8 stack: the objectives touch one block group at a time
    limit = 255 * 255 * 8 * 16 // 2
    rng = np.random.default_rng(17)
    rho = random_density(8, rng)
    x = rng.standard_normal(2 * 8 * 8)
    verify.coherent_information(8, 0.4, rho)  # warms the r-free sector caches
    for call in (
        lambda: verify.coherent_information(8, 0.4, rho),
        lambda: verify._coherent_information_and_grad(x, 8, 0.4),
    ):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("r", [0.55, 1.05])
def test_oracle_restarts_converge(d, r):
    # the seed of the CLI's oracle-q and oracle-c suites
    stats_q = verify.optimize_coherent_information(d, r, seed=7)[2]
    stats_c = verify.optimize_holevo(d, r, seed=7)[2]
    assert stats_q["success"] == [True] * 4
    assert stats_c["success"] == [True] * 3


def test_verify_oracles_report_work_counts(capsys):
    from grasschan import cli

    assert cli.main(["verify", "--suite", "all", "--d", "4", "--r", "0.55", "--seed", "7"]) == 0
    reports = {rep["check"]: rep for rep in json.loads(capsys.readouterr().out)["reports"]}
    for check, restarts in (("oracle-q", 4), ("oracle-c", 3)):
        trial = reports[check]["trials"][0]
        assert reports[check]["pass"] is True
        # a derivative-free search needs tens of thousands of calls here
        assert 0 < trial["nfev"] < 1000
        assert len(trial["success"]) == restarts
        assert all(isinstance(flag, bool) for flag in trial["success"])
        assert len(trial["grad_norm"]) == restarts
        assert all(isinstance(g, float) and math.isfinite(g) for g in trial["grad_norm"])


def test_check_degradable_inside_boundary():
    rep = verify.check_degradable(2, 0.3)
    detail = rep.trials[0]
    assert rep.passed
    assert detail["solve_residual"] < 1e-9
    assert detail["choi_min_eig"] >= -1e-9
    assert detail["q_gap"] < 1e-10


@pytest.mark.parametrize("d", range(1, 9))
def test_complement_intertwiners_follow_the_signed_complement_rule(d):
    # each V_k is a signed anti-identity, intertwines exactly, and is the solved
    # intertwiner up to one phase; the unsigned anti-identity fails from d = 2 on
    for k in range(1, d + 1):
        n, v = math.comb(d, k), verify._signed_complement(d, k)
        assert np.array_equal(np.abs(v), np.eye(n)[::-1])
        t_maps, l_maps = sector_maps(d, k)
        assert np.linalg.norm(v @ t_maps - l_maps @ v, axis=(1, 2)).max() == 0.0, k
        ref = intertwiner_solve(t_maps, l_maps)
        phase = np.vdot(v, ref) / n
        assert abs(abs(phase) - 1.0) <= 1e-12, (k, phase)
        assert np.abs(ref - phase * v).max() <= 1e-12, k


@pytest.mark.parametrize("d", [2, 3, 4])
def test_check_degradable_matches_the_dense_reference(d):
    # the sector-by-sector solve against the joint Kronecker/lstsq solve it replaced
    for r in (0.1, 0.3, 0.55, math.pi / 4, 1.05, 1.4):
        report, ref = verify.check_degradable(d, r), degradable_reference(d, r)
        trial = report.trials[0]
        q, q_ref = np.array(trial["q_solved"]), ref["q_solved"]
        assert np.all(np.abs(q - q_ref) <= 1e-12 * np.maximum(1.0, np.abs(q_ref))), (r, q, q_ref)
        for key in ("weights_valid", "cp_ok"):
            assert trial[key] == ref[key], (r, key)
        assert report.passed == ref["pass"], r
        got, want = trial["choi_min_eig"], ref["choi_min_eig"]
        if r <= math.pi / 4:
            assert got >= -1e-12 and want >= -1e-12, (r, got, want)
        else:
            assert abs(got - want) <= 1e-9 * abs(want), (r, got, want)


@pytest.mark.parametrize("d", range(2, 9))
def test_check_degradable_holds_near_pi_over_2(d):
    # q grows like tan^(2(d-1)) r here, so the columns of the solve differ in size by as much;
    # at the last r below pi/2 the Choi block's least eigenvalue passes the float range
    for r in (1.5, 1.56, 1.5707, 1.5707963, math.nextafter(math.pi / 2, 0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify.check_degradable(d, r)
        trial = report.trials[0]
        assert report.passed and not trial["cp_ok"], r
        assert trial["solve_residual"] <= 1e-12, (r, trial["solve_residual"])
        q, formula = np.array(trial["q_solved"]), capacity.degrading_weights(d, r).q
        assert np.all(np.abs(q - formula) <= 1e-12 * np.abs(formula)), (r, q, formula)
        # the least Choi eigenvalue is clamped at -float max, so the report stays strict JSON
        assert -sys.float_info.max <= trial["choi_min_eig"] < 0.0, (r, trial["choi_min_eig"])
        assert json.dumps(report.to_json_dict(), allow_nan=False)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_dense_channel_sectors_are_the_weighted_maps_the_check_reads(d):
    # forward sector k is w_k T_k and complement sector m is w_(d-m+1) L_m, with
    # w_k = C(d-1, k-1) times the squared sector amplitude; T_k and L_m come from channels
    maps = [sector_maps(d, k) for k in range(1, d + 1)]
    for r in (0.3, 1.05):
        w = [a * a * math.comb(d - 1, k) for k, a in enumerate(channels._sector_amplitudes(d, r))]
        for ch, weighted in ((channels.grassmann_channel(d, r),
                              lambda k: w[k - 1] * maps[k - 1][0]),
                             (channels.complementary_channel(d, r),
                              lambda m: w[d - m] * maps[m - 1][1])):
            side = ch.out_dim
            full = channels.transfer_matrix(ch).reshape(side, side, d * d)
            for k, rows in channels.block_slices(ch).items():
                block = full[rows, rows].transpose(2, 0, 1)
                assert np.abs(block - weighted(k)).max() <= 1e-14, (r, ch.label, k)


@pytest.mark.parametrize("d", [2, 3])
def test_reports_serialize_at_a_numpy_integer_dimension(d):
    # json.dumps rejects a numpy integer, so the reports' params must hold Python ints
    for suite in ("all", *verify.SUITES):
        reports = verify.suite_reports(suite, np.int64(d), 0.5, 7, 1e-9)
        text = json.dumps([report.to_json_dict() for report in reports])
        assert text == json.dumps([report.to_json_dict() for report in
                                   verify.suite_reports(suite, d, 0.5, 7, 1e-9)]), suite
    report = verify.check_wolf_eisert_form(np.int64(d), np.int64(d), 7)
    assert type(report.params["k"]) is int and json.dumps(report.to_json_dict())
    # a numpy seed, r or tol too, and the numpy booleans a numpy r or tol makes in the trials
    for report in (verify.check_covariance(d, 0.5, np.int64(7)),
                   verify.check_degradable(d, np.float32(0.5)),
                   verify.check_degradable(d, np.float64(1.05)),
                   verify.check_degradable(d, 0.5, tol=np.float32(1e-9)),
                   *verify.suite_reports("all", d, 0.5, np.int64(7), 1e-9)):
        assert json.dumps(report.to_json_dict(), allow_nan=False), report.check


def test_check_degradable_rejects_a_bad_tolerance():
    # the CLI's --tol check, now in the check itself: nan and -1 returned a report
    for tol in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(DomainError, match="must be positive and finite"):
            verify.check_degradable(2, 0.3, tol=tol)


def test_check_degradable_self_complementary_point():
    rep = verify.check_degradable(3, math.pi / 4)
    detail = rep.trials[0]
    assert rep.passed
    assert abs(detail["q_solved"][0] - 1.0) < 1e-10
    assert max(abs(q) for q in detail["q_solved"][1:]) < 1e-10


def test_check_degradable_fails_beyond_boundary():
    rep = verify.check_degradable(2, 1.0)
    detail = rep.trials[0]
    assert rep.passed  # expected failure observed
    assert not detail["cp_ok"]
    assert not detail["weights_valid"]
    assert detail["choi_min_eig"] < -1e-6
    assert detail["solve_residual"] < 1e-9


def test_check_covariance_random_and_diagonal():
    for d in (2, 3, 4):
        rep = verify.check_covariance(d, 0.5, seed=5)
        assert rep.passed and rep.worst_residual < 1e-9


def test_covariance_identity_rotation_exact():
    d, r = 3, 0.7
    fwd = channels.grassmann_channel(d, r)
    rng = np.random.default_rng(12)
    v = verify.random_pure_state(d, rng)
    psi = np.outer(v, v.conj())
    out = channels.apply_kraus(fwd.kraus, psi)
    assert np.linalg.norm(channels.apply_kraus(fwd.kraus, np.eye(d) @ psi) - out) == 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_degradability_boundary_sweep(d):
    for r in (0.1, 0.3, 0.5, 0.7, math.pi / 4):
        rep = verify.check_degradable(d, r)
        detail = rep.trials[0]
        assert rep.passed and detail["cp_ok"] and detail["weights_valid"]
    for r in (0.9, 1.2):
        rep = verify.check_degradable(d, r)
        detail = rep.trials[0]
        assert rep.passed and not detail["cp_ok"] and not detail["weights_valid"]


def test_check_covariance_diagonal_phases_exact():
    # diagonal special unitaries act through minors with no mixing
    d, r = 3, 0.5
    fwd = channels.grassmann_channel(d, r)
    phases = np.exp(2j * np.pi * np.array([0.1, 0.3, -0.4]))
    u = np.diag(phases / np.linalg.det(np.diag(phases)) ** (1 / 3))
    rng = np.random.default_rng(6)
    v = verify.random_pure_state(d, rng)
    psi = np.outer(v, v.conj())
    from grasschan import fock

    rep_blocks = [fock.exterior_power(u, k) for k in range(1, d + 1)]
    rep = np.zeros((7, 7), dtype=complex)
    pos = 0
    for lam in rep_blocks:
        n = lam.shape[0]
        rep[pos : pos + n, pos : pos + n] = lam
        pos += n
    lhs = channels.apply_kraus(fwd.kraus, u @ psi @ u.conj().T)
    rhs = rep @ channels.apply_kraus(fwd.kraus, psi) @ rep.conj().T
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_check_wolf_eisert_examples():
    for d, k in ((3, 2), (4, 2), (5, 3), (4, 1), (4, 4)):
        assert verify.check_wolf_eisert_form(d, k, seed=3).passed
    # spot values: d=4, k=2 flat level is 1/3 with multiplicity 3
    block = channels.grassmann_block(4, 2)
    out = channels.apply_kraus(block.kraus, np.diag([1.0, 0, 0, 0]).astype(complex))
    evals = np.sort(np.linalg.eigvalsh(out))[::-1]
    assert np.abs(evals[:3] - 1 / 3).max() < 1e-12
    assert np.abs(evals[3:]).max() < 1e-12


def test_check_complementary_spectra():
    for d, r in ((3, 0.6), (2, 0.4), (4, 1.1)):
        assert verify.check_complementary_spectra(d, r, seed=9).passed
    # at the self-complementary point the full outputs are globally isospectral
    rng = np.random.default_rng(8)
    fwd = channels.grassmann_channel(3, math.pi / 4)
    comp = channels.complementary_channel(3, math.pi / 4)
    v = verify.random_pure_state(3, rng)
    psi = np.outer(v, v.conj())
    ev_a = np.sort(np.linalg.eigvalsh(channels.apply_kraus(fwd.kraus, psi)))
    ev_c = np.sort(np.linalg.eigvalsh(channels.apply_kraus(comp.kraus, psi)))
    assert np.abs(ev_a - ev_c).max() < 1e-12


@pytest.mark.parametrize("d", [3, 4, 5])
def test_check_werner_holevo(d):
    rep = verify.check_werner_holevo(d)
    assert rep.passed
    assert rep.worst_residual < 1e-10
    assert rep.trials[0]["partial_transpose_min_eig"] < -1e-6


def test_check_factorization():
    assert verify.check_factorization(0.0).worst_residual < 1e-14
    assert verify.check_factorization(0.7).passed
    rep = verify.check_factorization(math.pi / 4)
    assert rep.passed
    # an r outside [0, pi/2) is a domain error, not a failed report: at the float pi/2 the
    # two oracles differ by 2.2, and at r = 3 they agree and the check passed
    for r in (-1.0, math.pi / 2, 3.0):
        for oracle in (fock.pair_generator, fock.factored_squeezing_unitary):
            with pytest.raises(DomainError, match=r"outside \[0, pi/2\)"):
                oracle(1, r)
        with pytest.raises(DomainError, match=r"outside \[0, pi/2\)"):
            verify.check_factorization(r)
    sv = fock.squeezed_vacuum(1, math.pi / 4)
    amp = math.sqrt(2) / 2
    assert abs(sv.amplitudes[0b00] - amp) < 1e-12
    assert abs(sv.amplitudes[0b11] - amp) < 1e-12


def test_check_ppt():
    # completely depolarizing point is separable: PT stays PSD
    sep = channels.transpose_depolarizing(3, 0.0)
    assert verify.check_ppt(sep, 3) >= -1e-12
    wh = channels.choi_matrix(channels.werner_holevo(3))
    assert verify.check_ppt(wh, 3) < -1e-6
    threshold = -1.0 / (3 * 3 - 1)
    assert verify.check_ppt(channels.transpose_depolarizing(3, threshold - 1e-4), 3) < 0
    assert verify.check_ppt(channels.transpose_depolarizing(3, threshold + 1e-4), 3) > 0
    with pytest.raises(PreconditionError, match="^cut dimension 4 does not divide 6$"):
        verify.check_ppt(np.eye(6), 4)
    # a cut of 0 divided by zero, and a float one reached reshape
    for cut in (0, -3, 3.0, np.float64(3.0), 1.5, "3", None):
        with pytest.raises(PreconditionError, match="is not a positive integer"):
            verify.check_ppt(wh, cut)
    assert verify.check_ppt(wh, np.int64(3)) == verify.check_ppt(wh, 3) < -1e-6
    assert verify.check_ppt(wh, 1) >= -1e-12 and verify.check_ppt(wh, 9) >= -1e-12


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: capacity.block_weights(True, 0.3), DomainError, "d must be an integer, got d=True"),
        (lambda: channels.grassmann_block(3, True), DomainError,
         "sector k must be an integer, got k=True"),
        (lambda: fock.sector_codes(True, False), DomainError, "d must be an integer, got d=True"),
        (lambda: fock.sector_codes(3, False), DomainError, "sector k must be an integer, got k=False"),
        (lambda: verify.optimize_holevo(1, 0.5, 7, ensemble_size=True), DomainError,
         "ensemble_size must be an integer, got ensemble_size=True"),
        (lambda: verify.check_ppt(np.eye(4), True), PreconditionError,
         "cut dimension True is not a positive integer"),
    ],
    ids=["block_weights", "grassmann_block", "sector_codes_d", "sector_codes_k", "optimize_holevo",
         "check_ppt"],
)
def test_integer_arguments_reject_a_bool(call, error, message):
    # operator.index and numbers.Integral both take a bool as 0 or 1
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_check_approximation_rate_qubit():
    rep = verify.check_approximation_rate(2)
    assert rep.passed
    assert 1.8 <= rep.trials[0]["slope"] <= 2.2
    with pytest.raises(DomainError):
        verify.check_approximation_rate(1)


def test_report_json_shape():
    rep = verify.check_factorization(0.3)
    doc = rep.to_json_dict()
    assert list(doc) == ["check", "params", "pass", "worst_residual", "trials"]
    assert isinstance(doc["pass"], bool)


def test_cli_suite_names_follow_the_table():
    from grasschan import cli

    assert cli.SUITES == ("all", *verify.SUITES)


def test_suites_that_all_runs_at_each_dimension():
    every = list(verify.SUITES)
    no_degradable = [name for name in every if name != "degradable"]
    expected = {1: no_degradable, **{d: every for d in range(2, 9)}}
    for d, names in expected.items():
        assert [name for name, (runs, _) in verify.SUITES.items() if runs(d)] == names, d
    # above the cap, all exits at its first channel-building suite
    with pytest.raises(DomainError, match="^explicit channel construction is capped at d=8$"):
        verify.suite_reports("all", 9, 0.3, 7, 1e-9)


def test_floored_suites_report_d2_at_d1():
    for suite, check in (("werner-holevo", "werner-holevo"), ("ppt", "ppt"),
                         ("rate", "approximation-rate")):
        (report,) = verify.suite_reports(suite, 1, 0.5, 7, 1e-9)
        assert (report.check, report.params["d"], report.passed) == (check, 2, True)


def test_all_reports_in_table_order():
    reports = verify.suite_reports("all", 5, 0.55, 7, 1e-9)
    assert [rep.check for rep in reports] == [
        "degradable",
        "covariance",
        "complementary-spectra",
        *["wolf-eisert"] * 5,
        "werner-holevo",
        "factorization",
        "oracle-q",
        "oracle-c",
        "ppt",
        "approximation-rate",
    ]
    assert [rep.params["k"] for rep in reports[3:8]] == [1, 2, 3, 4, 5]
    assert all(rep.passed for rep in reports)


def test_every_report_prints_its_check_settings():
    # the settings are constants of each check; only degradable's tol and the seed come in
    expected = [
        {"d": 3, "r": 0.5, "tol": 1e-09},
        {"d": 3, "r": 0.5, "trials": 20, "tol": 1e-09, "seed": 7},
        {"d": 3, "r": 0.5, "trials": 20, "seed": 7},
        {"d": 3, "k": 1, "trials": 50, "seed": 7},
        {"d": 3, "k": 2, "trials": 50, "seed": 7},
        {"d": 3, "k": 3, "trials": 50, "seed": 7},
        {"d": 3, "tol": 1e-10},
        {"r": 0.5, "tol": 1e-12},
        {"d": 3, "r": 0.5, "seed": 7},
        {"d": 3, "r": 0.5, "seed": 7},
        {"d": 3},
        {"d": 3, "z": [0.9, 0.99, 0.999, 0.9999]},
    ]
    reports = verify.suite_reports("all", 3, 0.5, 7, 1e-9)
    # item lists, so the key order is pinned with the values
    assert [list(rep.params.items()) for rep in reports] == [list(p.items()) for p in expected]


@pytest.mark.parametrize("suite, d", [("degradable", 1), ("degradable", 9), ("oracle-q", 9),
                                      ("oracle-c", 9)])
def test_suite_named_outside_its_range_raises(suite, d):
    with pytest.raises(DomainError):
        verify.suite_reports(suite, d, 0.5, 7, 1e-9)


def test_suites_look_their_checks_up_when_they_run(monkeypatch):
    # a tracer wraps check_* in this module's namespace after the table is built
    marker = verify.VerificationReport("factorization", {}, True, 0.0)
    monkeypatch.setattr(verify, "check_factorization", lambda r: marker)
    assert verify.suite_reports("factorization", 3, 0.5, 7, 1e-9) == [marker]
