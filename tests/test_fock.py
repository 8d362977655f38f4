"""Fock-space arithmetic: bases, ladder operators, squeezing, minors."""

import itertools
import math
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm  # Pade scaling-and-squaring, a test-time reference only

from grasschan import fock, verify
from grasschan.errors import DomainError, PreconditionError
from grasschan.fock import StateVector, _jw_sign


def basis_state_vector(bits) -> StateVector:
    return StateVector(len(bits), {int("".join(map(str, bits)), 2): 1.0 + 0.0j})


def apply_annihilation(state: StateVector, mode: int) -> StateVector:
    """Apply the annihilation operator for ``mode`` (0-based) with JW sign."""
    m = state.num_modes
    if not 0 <= mode < m:
        raise DomainError(f"mode {mode} outside [0, {m})")
    bit = 1 << (m - 1 - mode)
    out: dict[int, complex] = {}
    for code, amp in state.amplitudes.items():
        if not code & bit:
            continue  # empty mode annihilates the component
        new = code & ~bit
        out[new] = out.get(new, 0.0) + _jw_sign(code, m, mode) * amp
    return StateVector(m, out)


def _sector_bits(d, k):
    """Sector codes unpacked to bit tuples, mode 0 first."""
    return [tuple((c >> (d - 1 - j)) & 1 for j in range(d)) for c in fock.sector_codes(d, k)]


def test_sector_codes_d3_k2_matches_stated_ordering():
    assert fock.sector_codes(3, 2) == [0b011, 0b101, 0b110]
    assert _sector_bits(3, 2) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_sector_codes_vacuum_sector():
    assert _sector_bits(4, 0) == [(0, 0, 0, 0)]


@pytest.mark.parametrize("d", range(1, 7))
def test_sector_codes_enumeration_oracle(d):
    # oracle: enumerate all bit-vectors, filter popcount, sort lexicographically
    for k in range(d + 1):
        expected = sorted(bits for bits in itertools.product((0, 1), repeat=d) if sum(bits) == k)
        got = _sector_bits(d, k)
        assert got == expected
        assert len(got) == math.comb(d, k)


def test_sector_codes_d5_k2_endpoints():
    states = _sector_bits(5, 2)
    assert len(states) == 10
    assert states[0] == (0, 0, 0, 1, 1)
    assert states[-1] == (1, 1, 0, 0, 0)


def test_sector_codes_domain_errors():
    with pytest.raises(DomainError):
        fock.sector_codes(3, 4)
    with pytest.raises(DomainError):
        fock.sector_codes(3, -1)
    with pytest.raises(DomainError):
        fock.sector_codes(0, 0)


_D_ENTRY_POINTS = {
    "sector_codes": lambda d: fock.sector_codes(d, 1),
    "squeezed_vacuum": lambda d: fock.squeezed_vacuum(d, 0.3),
    "isometry_apply": lambda d: fock.isometry_apply(d, 0.3, [1, 0]),
    "pair_generator": lambda d: fock.pair_generator(d, 0.3),
    "squeezing_unitary": lambda d: fock.squeezing_unitary(d, 0.3),
    "factored_squeezing_unitary": lambda d: fock.factored_squeezing_unitary(d, 0.3),
}


@pytest.mark.parametrize("name", _D_ENTRY_POINTS)
def test_entry_points_reject_a_non_integer_d(name):
    call = _D_ENTRY_POINTS[name]
    for d in (2.0, 2.5, np.float64(2.0), "2", None):
        with pytest.raises(DomainError, match="d must be an integer"):
            call(d)
    # numpy integers pass, as they do for the channel builders
    want = call(2)
    for d in (np.int64(2), np.uint8(2)):
        got = call(d)
        if isinstance(want, StateVector):
            assert got.num_modes == want.num_modes and got.amplitudes == want.amplitudes
        else:
            assert np.array_equal(got, want)


# each entry point, the name its integer check gives, and an integer out of range with its message
_INTEGER_ARGUMENTS = {
    "sector_codes": (
        lambda k: fock.sector_codes(3, k), "sector k", 4, r"fermion count k=4 outside \[0, 3\]"
    ),
    "exterior_power": (
        lambda k: fock.exterior_power(np.eye(3), k), "sector k", 4, r"sector k=4 outside \[1, 3\]"
    ),
    "ladder_matrix": (
        lambda m: fock.ladder_matrix(m, 0), "num_modes", -4, r"mode 0 outside \[0, -4\)"
    ),
    "ladder_matrix_mode": (
        lambda i: fock.ladder_matrix(3, i), "mode", 3, r"mode 3 outside \[0, 3\)"
    ),
    "apply_creation": (
        lambda i: fock.apply_creation(fock.vacuum(3), i).dense(),
        "mode",
        3,
        r"mode 3 outside \[0, 3\)",
    ),
}


@pytest.mark.parametrize("name", _INTEGER_ARGUMENTS)
def test_entry_points_reject_a_non_integer_k_or_mode_count(name):
    call, what, out_of_range, message = _INTEGER_ARGUMENTS[name]
    for value in (1.5, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(DomainError, match=f"{what} must be an integer"):
            call(value)
    # numpy integers pass, and an integer out of range keeps its own message
    want = call(2)
    for value in (np.int64(2), np.uint8(2)):
        assert np.array_equal(call(value), want)
    with pytest.raises(DomainError, match=message):
        call(out_of_range)


def test_creation_jw_sign_examples():
    # one fermion sits left of mode 1, so the created component picks up -1
    out = fock.apply_creation(basis_state_vector((1, 0, 0)), 1)
    assert out.amplitudes == {0b110: -1.0 + 0.0j}
    # occupied target mode annihilates the component
    assert fock.apply_creation(basis_state_vector((1, 0, 0)), 0).amplitudes == {}
    # empty prefix keeps the plus sign
    out = fock.apply_creation(basis_state_vector((0, 1, 0)), 0)
    assert out.amplitudes == {0b110: 1.0 + 0.0j}


def test_annihilation_examples():
    out = apply_annihilation(basis_state_vector((1, 0, 0)), 0)
    assert out.amplitudes == {0b000: 1.0 + 0.0j}
    assert apply_annihilation(fock.vacuum(3), 0).amplitudes == {}


def _kron_ladder(num_modes: int, mode: int, dagger: bool) -> np.ndarray:
    # independent dense oracle: Z-string construction assembled in the test
    z = np.diag([1.0, -1.0]).astype(complex)
    raise_op = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    factors = [z] * mode + [raise_op] + [np.eye(2, dtype=complex)] * (num_modes - mode - 1)
    mat = reduce(np.kron, factors)
    return mat if dagger else mat.conj().T


def _random_state(num_modes: int, rng) -> fock.StateVector:
    dim = 1 << num_modes
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    return fock.StateVector(num_modes, {c: vec[c] for c in range(dim)})


@pytest.mark.parametrize("num_modes", [2, 3, 4])
def test_ladder_ops_match_dense_oracle(num_modes):
    rng = np.random.default_rng(42)
    for mode in range(num_modes):
        created = _kron_ladder(num_modes, mode, dagger=True)
        destroyed = _kron_ladder(num_modes, mode, dagger=False)
        assert np.allclose(created, fock.ladder_matrix(num_modes, mode))
        for _ in range(5):
            state = _random_state(num_modes, rng)
            assert np.allclose(fock.apply_creation(state, mode).dense(), created @ state.dense())
            assert np.allclose(
                apply_annihilation(state, mode).dense(), destroyed @ state.dense()
            )


def test_anticommutators_on_random_states():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 5):
        for _ in range(50):
            state = _random_state(d, rng)
            for i in range(d):
                for j in range(d):
                    a_then_c = fock.apply_creation(apply_annihilation(state, i), j)
                    c_then_a = apply_annihilation(fock.apply_creation(state, j), i)
                    acc = dict(a_then_c.amplitudes)
                    for code, amp in c_then_a.amplitudes.items():
                        acc[code] = acc.get(code, 0.0) + amp
                    expected = state.amplitudes if i == j else {}
                    for code in set(acc) | set(expected):
                        assert abs(acc.get(code, 0.0) - expected.get(code, 0.0)) < 1e-12
                    # {a_i, a_j} = 0
                    both = apply_annihilation(apply_annihilation(state, i), j)
                    swap = apply_annihilation(apply_annihilation(state, j), i)
                    for code in set(both.amplitudes) | set(swap.amplitudes):
                        total = both.amplitudes.get(code, 0.0) + swap.amplitudes.get(code, 0.0)
                        assert abs(total) < 1e-12


def test_squeezed_vacuum_d2_expansion():
    r = 0.6
    sv = fock.squeezed_vacuum(2, r)
    c2, t = math.cos(r) ** 2, math.tan(r)
    assert abs(sv.amplitudes[0b0000] - c2) < 1e-14
    assert abs(sv.amplitudes[0b1010] - c2 * t) < 1e-14
    assert abs(sv.amplitudes[0b0101] - c2 * t) < 1e-14
    assert abs(sv.amplitudes[0b1111] + c2 * t * t) < 1e-14
    assert len(sv.amplitudes) == 4


def test_squeezed_vacuum_identity_limit():
    sv = fock.squeezed_vacuum(3, 0.0)
    assert {c: a for c, a in sv.amplitudes.items() if a != 0} == {0: 1.0 + 0.0j}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("r", [0.1, 0.3, 0.9, 1.4])
def test_squeezed_vacuum_sector_sign_closed_form(d, r):
    sv = fock.squeezed_vacuum(d, r)
    for k in range(d + 1):
        expected = math.cos(r) ** d * (-1) ** (k * (k - 1) // 2) * math.tan(r) ** k
        for code in fock.sector_codes(d, k):
            got = sv.amplitudes[(code << d) | code]
            assert abs(got - expected) < 1e-12, (d, r, k)
    assert abs(sv.norm() - 1.0) < 1e-12


def test_squeezed_vacuum_d3_k2_sector_negative():
    sv = fock.squeezed_vacuum(3, 0.3)
    assert abs(sv.norm() - 1.0) < 1e-12
    for code in fock.sector_codes(3, 2):
        assert sv.amplitudes[(code << 3) | code].real < 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [0.1, 0.3, 0.7, math.pi / 4, 1.0, 1.3, 1.5])
def test_squeezed_vacuum_halves_carry_d_binary_entropies_of_sin2_r(d, r):
    # the paper's entanglement of the pair state: each of the d pairs holds h2(sin^2 r) bits;
    # r stays away from 0 and pi/2, where eigenvalues drop under the entropy's 1e-14 floor
    psi = fock.squeezed_vacuum(d, r).dense().reshape(1 << d, 1 << d)  # [A code, C code]: A is high
    s = math.sin(r) ** 2
    bits = d * -(s * math.log2(s) + (1 - s) * math.log2(1 - s))
    for half in (psi @ psi.conj().T, psi.T @ psi.conj()):  # the A-half, then the C-half
        assert abs(verify.von_neumann_entropy(half, 2.0) - bits) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [0.3, 1.0])
def test_squeezed_vacuum_matches_dense_exponential(d, r):
    dense = fock.squeezing_unitary(d, r)
    vac = np.zeros(1 << (2 * d))
    vac[0] = 1.0
    assert np.linalg.norm(dense @ vac - fock.squeezed_vacuum(d, r).dense()) < 1e-12


def test_isometry_d2_rotated_erasure_structure():
    r = 0.6
    beta = np.array([0.8, 0.6])
    phi = fock.isometry_apply(2, r, beta)
    cr, sr = math.cos(r), math.sin(r)
    assert abs(phi.amplitudes[0b1000] - cr * 0.8) < 1e-14
    assert abs(phi.amplitudes[0b0100] - cr * 0.6) < 1e-14
    # the C register carries the rotated pair (beta_1 |2> - beta_2 |1>)
    assert abs(phi.amplitudes[0b1101] - sr * 0.8) < 1e-14
    assert abs(phi.amplitudes[0b1110] + sr * 0.6) < 1e-14
    assert abs(phi.norm() - 1.0) < 1e-12


def test_isometry_d4_rail1_component_signs():
    r = 0.7
    phi = fock.isometry_apply(4, r, [1.0, 0.0, 0.0, 0.0])
    c3 = math.cos(r) ** 3
    t = math.tan(r)
    expected = {
        (0b1000 << 4) | 0b0000: c3,
        (0b1001 << 4) | 0b0001: c3 * t,
        (0b1010 << 4) | 0b0010: c3 * t,
        (0b1100 << 4) | 0b0100: c3 * t,
        (0b1011 << 4) | 0b0011: -c3 * t * t,
        (0b1101 << 4) | 0b0101: -c3 * t * t,
        (0b1110 << 4) | 0b0110: -c3 * t * t,
        (0b1111 << 4) | 0b0111: -c3 * t * t * t,
    }
    assert set(phi.amplitudes) == set(expected)
    for code, value in expected.items():
        assert abs(phi.amplitudes[code] - value) < 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_isometry_norms_random_inputs(d):
    rng = np.random.default_rng(d)
    for r in (0.0, 0.4, 1.1, 1.5):
        beta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        beta /= np.linalg.norm(beta)
        assert abs(fock.isometry_apply(d, r, beta).norm() - 1.0) < 1e-12


def test_isometry_matches_dense_exponential_oracle():
    rng = np.random.default_rng(1)
    d, r = 3, 0.5
    beta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    beta /= np.linalg.norm(beta)
    multirail = np.zeros(1 << (2 * d), dtype=complex)
    for i in range(d):
        multirail[1 << (2 * d - 1 - i)] = beta[i]
    dense_image = fock.squeezing_unitary(d, r) @ multirail
    assert np.linalg.norm(dense_image - fock.isometry_apply(d, r, beta).dense()) < 1e-12


def test_isometry_preconditions():
    with pytest.raises(PreconditionError):
        fock.isometry_apply(2, 0.3, [1.0, 1.0])
    with pytest.raises(DomainError):
        fock.isometry_apply(2, math.pi / 2, [1.0, 0.0])
    with pytest.raises(DomainError):
        fock.squeezed_vacuum(2, -0.1)


def test_isometry_apply_and_exterior_power_reject_a_wrong_shape():
    for beta in ([1.0, 0.0, 0.0], [[1.0, 0.0]], 1.0):
        with pytest.raises(PreconditionError, match="beta must be a length-2 vector"):
            fock.isometry_apply(2, 0.3, beta)
    for u in (np.ones((2, 3)), np.eye(3)[0], np.ones((2, 2, 2))):
        with pytest.raises(PreconditionError, match="expected a square matrix"):
            fock.exterior_power(u, 1)


def _random_unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def test_exterior_power_first_and_top():
    rng = np.random.default_rng(3)
    u = _random_unitary(4, rng)
    first = fock.exterior_power(u, 1)
    # lexicographic singleton order lists modes in reverse
    assert np.allclose(first, u[::-1, ::-1])
    top = fock.exterior_power(u, 4)
    assert top.shape == (1, 1)
    assert abs(top[0, 0] - np.linalg.det(u)) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exterior_power_multiplicative(k):
    rng = np.random.default_rng(11)
    for _ in range(5):
        u, v = _random_unitary(4, rng), _random_unitary(4, rng)
        lhs = fock.exterior_power(u @ v, k)
        rhs = fock.exterior_power(u, k) @ fock.exterior_power(v, k)
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_exterior_power_unitary_output():
    rng = np.random.default_rng(5)
    u = _random_unitary(5, rng)
    for k in range(1, 6):
        lam = fock.exterior_power(u, k)
        assert np.linalg.norm(lam.conj().T @ lam - np.eye(lam.shape[0])) < 1e-10


def _minor_loop(u, k):
    """Compound matrix from one determinant per minor, the reference for exterior_power."""
    d = len(u)
    subsets = [
        [j for j in range(d) if (code >> (d - 1 - j)) & 1] for code in fock.sector_codes(d, k)
    ]
    dets = [[np.linalg.det(u[np.ix_(rows, cols)]) for cols in subsets] for rows in subsets]
    return np.array(dets)


@pytest.mark.parametrize("d", range(1, 9))
def test_exterior_power_matches_minor_loop(d):
    u = _random_unitary(d, np.random.default_rng(30 + d))
    for k in range(1, d + 1):
        assert np.array_equal(fock.exterior_power(u, k), _minor_loop(u, k))


def test_exterior_power_rejects_nonunitary():
    with pytest.raises(PreconditionError):
        fock.exterior_power(np.ones((3, 3)), 2)
    with pytest.raises(DomainError):
        fock.exterior_power(np.eye(3), 4)


@pytest.mark.parametrize("r", [0.1, 0.7, 1.2])
def test_factored_product_matches_dense_exponential(r):
    gap = np.linalg.norm(fock.squeezing_unitary(1, r) - fock.factored_squeezing_unitary(1, r))
    assert gap < 1e-12


def _dense_pair_sum(d):
    return sum(fock.ladder_matrix(2 * d, i) @ fock.ladder_matrix(2 * d, d + i) for i in range(d))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.9, 1.4])
def test_dense_oracles_match_pade_exponential(d, r):
    pairs = _dense_pair_sum(d)
    number = np.array([code.bit_count() for code in range(1 << (2 * d))], dtype=float)
    pade_factored = math.cos(r) ** d * (
        expm(math.tan(r) * pairs)
        @ np.diag(math.cos(r) ** -number)
        @ expm(-math.tan(r) * pairs.conj().T)
    )
    unitary = fock.squeezing_unitary(d, r)
    assert np.abs(unitary - expm(fock.pair_generator(d, r))).max() < 1e-11
    assert np.abs(unitary.conj().T @ unitary - np.eye(1 << (2 * d))).max() < 1e-11
    assert np.abs(fock.factored_squeezing_unitary(d, r) - pade_factored).max() < 1e-11


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pair_sum_is_nilpotent(d):
    # the factored oracle writes exp(t S) as a product over the pair operators; that needs these
    ops = fock._pair_operators(d)
    for p, q in itertools.combinations(ops, 2):
        assert np.array_equal(p @ q, q @ p)
    for p in ops:
        assert not np.any(p @ p)
    pairs = sum(ops)
    assert np.any(np.linalg.matrix_power(pairs, d))
    assert not np.any(np.linalg.matrix_power(pairs, d + 1))


def test_dense_oracle_cap():
    with pytest.raises(DomainError):
        fock.pair_generator(5, 0.3)
