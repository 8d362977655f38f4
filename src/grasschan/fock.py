"""Fermionic Fock-space arithmetic on occupation bit-strings.

Occupation states of ``m`` modes are packed into integers with mode 0 in the
most significant bit, so ascending integer order enumerates occupation
bit-vectors (n_0, ..., n_{m-1}) lexicographically.  Bipartite states over two
registers A and C of d modes each use 2d modes ordered A_0 ... A_{d-1}
C_0 ... C_{d-1}.

Ladder operators carry the Jordan-Wigner phase (-1)^(number of occupied modes
with smaller index); every signed state produced here comes from sequential
ladder applications, never from hand-written sign formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .capacity import _check_d, _check_integer, _check_r
from .errors import DomainError, PreconditionError

__all__ = [
    "StateVector",
    "sector_codes",
    "vacuum",
    "apply_creation",
    "squeezed_vacuum",
    "isometry_apply",
    "exterior_power",
    "ladder_matrix",
    "pair_generator",
    "squeezing_unitary",
    "factored_squeezing_unitary",
]

DENSE_ORACLE_MAX_MODES = 4


def sector_codes(d: int, k: int) -> list[int]:
    """Integer codes of all C(d, k) states with k fermions, ascending.

    Ascending codes are lexicographically ordered bit-vectors; this ordering
    is the basis contract for every sector block downstream.
    """
    d, k = _check_d(d), _check_integer(k, "k", "sector ")
    if not 0 <= k <= d:
        raise DomainError(f"fermion count k={k} outside [0, {d}]")
    return [c for c in range(1 << d) if c.bit_count() == k]


@dataclass
class StateVector:
    """Sparse complex amplitude map over occupation codes.

    Treated as immutable after construction; operations return new values.
    """

    num_modes: int
    amplitudes: dict[int, complex]

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= 1e-12

    def dense(self) -> np.ndarray:
        vec = np.zeros(1 << self.num_modes, dtype=complex)
        for code, amp in self.amplitudes.items():
            vec[code] = amp
        return vec


def vacuum(num_modes: int) -> StateVector:
    return StateVector(num_modes, {0: 1.0 + 0.0j})


def _jw_sign(code: int, num_modes: int, mode: int) -> int:
    # (-1)^(occupied modes with index < mode); lower-index modes sit in
    # higher-significance bits.
    prefix = code >> (num_modes - mode)
    return -1 if prefix.bit_count() & 1 else 1


def apply_creation(state: StateVector, mode: int) -> StateVector:
    """Apply the creation operator for ``mode`` (0-based) with JW sign."""
    m, mode = state.num_modes, _check_integer(mode, "mode")
    if not 0 <= mode < m:
        raise DomainError(f"mode {mode} outside [0, {m})")
    bit = 1 << (m - 1 - mode)
    out: dict[int, complex] = {}
    for code, amp in state.amplitudes.items():
        if code & bit:
            continue  # already occupied
        new = code | bit
        out[new] = out.get(new, 0.0) + _jw_sign(code, m, mode) * amp
    return StateVector(m, out)


def _exp_pair_vacuum(d: int, t: float) -> StateVector:
    """exp(t * sum_i a_i^dag c_i^dag)|vac> as the product of the factors (1 + t a_i^dag c_i^dag).

    The pair operators commute and square to zero, so the product is exact.
    Factor i adds pair i only to states that lack it, so its two terms never
    share a code; a state with k pairs gets t**k times its unit sign.
    """
    state = vacuum(2 * d)
    for i in range(d):
        paired = apply_creation(apply_creation(state, d + i), i)
        state = StateVector(2 * d, state.amplitudes | paired.amplitudes)
    mask = (1 << d) - 1
    amps = {code: t ** (code & mask).bit_count() * amp for code, amp in state.amplitudes.items()}
    return StateVector(2 * d, amps)


def squeezed_vacuum(d: int, r: float) -> StateVector:
    """Two-mode-squeezed vacuum of d A/C mode pairs (a 2d-mode state)."""
    d = _check_d(d)
    _check_r(r)
    state = _exp_pair_vacuum(d, math.tan(r))
    c = math.cos(r) ** d
    out = StateVector(2 * d, {code: c * amp for code, amp in state.amplitudes.items()})
    assert out.is_normalized(), "squeezed vacuum lost normalization"
    return out


def isometry_apply(d: int, r: float, beta) -> StateVector:
    """Image of the multi-rail qudit ``beta`` under the channel isometry.

    Computes cos^(d-1)(r) * (sum_i beta_i a_i^dag) exp(tan r * sum_j
    a_j^dag c_j^dag)|vac> by sequential ladder application.
    """
    d = _check_d(d)
    _check_r(r)
    beta = np.asarray(beta, dtype=complex)
    if beta.shape != (d,):
        raise PreconditionError(f"beta must be a length-{d} vector, got shape {beta.shape}")
    if abs(np.linalg.norm(beta) - 1.0) > 1e-12:
        raise PreconditionError(f"beta must be unit norm, got {np.linalg.norm(beta)!r}")

    core = _exp_pair_vacuum(d, math.tan(r))
    out: dict[int, complex] = {}
    for i in range(d):
        if beta[i] == 0:
            continue
        term = apply_creation(core, i)
        for code, amp in term.amplitudes.items():
            out[code] = out.get(code, 0.0) + beta[i] * amp
    c = math.cos(r) ** (d - 1)
    result = StateVector(2 * d, {code: c * amp for code, amp in out.items() if amp != 0})
    assert result.is_normalized(), "isometry image lost normalization"
    return result


def exterior_power(u: np.ndarray, k: int) -> np.ndarray:
    """Compound matrix of k-by-k minors of a unitary, in sector basis order."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {u.shape}")
    d, k = u.shape[0], _check_integer(k, "k", "sector ")
    if not 1 <= k <= d:
        raise DomainError(f"sector k={k} outside [1, {d}]")
    if np.linalg.norm(u.conj().T @ u - np.eye(d)) > 1e-10:
        raise PreconditionError("input matrix is not unitary within 1e-10")
    subsets = np.array(
        [[j for j in range(d) if (code >> (d - 1 - j)) & 1] for code in sector_codes(d, k)]
    )
    # minors[a, b] = u[subsets[a]][:, subsets[b]], all C(d, k)^2 of them in one det call
    return np.linalg.det(u[subsets[:, None, :, None], subsets[None, :, None, :]])


# ---------------------------------------------------------------------------
# Dense Jordan-Wigner matrices; oracle plumbing for small mode counts.
# ---------------------------------------------------------------------------

_SIGMA_RAISE = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |0> -> |1>
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


def ladder_matrix(num_modes: int, mode: int) -> np.ndarray:
    """Dense 2^m x 2^m creation operator via the Jordan-Wigner construction."""
    num_modes, mode = _check_integer(num_modes, "num_modes"), _check_integer(mode, "mode")
    if not 0 <= mode < num_modes:
        raise DomainError(f"mode {mode} outside [0, {num_modes})")
    factors = [_PAULI_Z] * mode + [_SIGMA_RAISE] + [_ID2] * (num_modes - mode - 1)
    return reduce(np.kron, factors)


def _pair_operators(d: int) -> list[np.ndarray]:
    """Dense pair operators a_i^dag c_i^dag on 2d modes; they commute and square to zero."""
    d = _check_d(d)
    if d > DENSE_ORACLE_MAX_MODES:
        raise DomainError(f"dense oracle is capped at d={DENSE_ORACLE_MAX_MODES}")
    return [ladder_matrix(2 * d, i) @ ladder_matrix(2 * d, d + i) for i in range(d)]


def pair_generator(d: int, r: float) -> np.ndarray:
    """Dense generator r * sum_i (a_i^dag c_i^dag - c_i a_i) = r (S - S^dag) on 2d modes."""
    _check_r(r)
    pairs = sum(_pair_operators(d))
    return r * (pairs - pairs.conj().T)


def squeezing_unitary(d: int, r: float) -> np.ndarray:
    """exp(G) of the anti-Hermitian pair generator, as V e^{i lam} V^dag from eigh(-iG)."""
    lam, vecs = np.linalg.eigh(-1j * pair_generator(d, r))
    return (vecs * np.exp(1j * lam)) @ vecs.conj().T


def factored_squeezing_unitary(d: int, r: float) -> np.ndarray:
    """Three-factor product form of the squeezing unitary on 2d modes.

    cos^d(r) * exp(tan r * S) * exp(-ln cos r * sum N) * exp(-tan r * S^dag),
    with S = sum_i P_i and P_i = a_i^dag c_i^dag from dense ladder matrices.
    The P_i commute and square to zero, so exp(tan r * S) is the product of
    the (I + tan r * P_i), and exp(-tan r * S^dag) that of the (I - tan r * P_i^dag).
    """
    _check_r(r)
    pairs = _pair_operators(d)
    t = math.tan(r)
    eye = np.eye(len(pairs[0]), dtype=complex)
    # exp(-ln cos r * total number operator) is diagonal in occupation codes
    number_diag = np.array([code.bit_count() for code in range(len(eye))], dtype=float)
    middle = np.diag(math.cos(r) ** (-number_diag)).astype(complex)
    create = reduce(np.matmul, [eye + t * p for p in pairs])
    annihilate = reduce(np.matmul, [eye - t * p.conj().T for p in pairs])
    return math.cos(r) ** d * (create @ middle @ annihilate)
