"""CPTP channel representations built from the fermionic squeezing isometry.

The forward channel traces out the C register of the isometry image; its
output space is spanned by the 2^d - 1 nonempty occupation states of the A
register, ordered by fermion number k = 1..d and lexicographically inside
each sector.  The complementary channel traces out A instead; its output
space is spanned by the 2^d - 1 C-register states with at most d - 1
fermions, ordered by fermion number j = 0..d-1.  The C-side sector with j
fermions carries the weight and (up to a fixed unitary) the state of the
forward sector k = d - j.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fock
from .capacity import block_weights
from .errors import DomainError

__all__ = [
    "Block",
    "ChannelRep",
    "rail_reversal",
    "output_codes",
    "environment_codes",
    "grassmann_channel",
    "grassmann_block",
    "complementary_channel",
    "complement_channel_rep",
    "erasure_channel",
    "werner_holevo",
    "transpose_depolarizing",
    "apply_kraus",
    "choi_matrix",
    "transfer_matrix",
    "channel_to_json_dict",
    "channel_from_json_dict",
    "dump_channel_json",
    "load_channel_json",
]

CHANNEL_MAX_D = 8


def rail_reversal(d: int) -> np.ndarray:
    """Permutation aligning the lexicographic 1-fermion basis with rail order.

    Sector bases sort occupation bit-vectors ascending, which lists the
    1-fermion states as e_d, ..., e_1; channel inputs index rails as
    e_1, ..., e_d.  Conjugating a 1-fermion block by this anti-identity
    expresses it in rail order.
    """
    return np.eye(d)[::-1].astype(complex)


class Block(NamedTuple):
    k: int
    weight: float
    dim: int


@dataclass
class ChannelRep:
    """A CPTP map given by Kraus operators, with optional block metadata.

    Values are immutable after construction and safe to share.
    """

    in_dim: int
    out_dim: int
    kraus: list[np.ndarray]
    blocks: list[Block] | None = None
    label: str = ""

    def kraus_completeness(self) -> np.ndarray:
        """sum_m K_m^dag K_m, equal to the identity for a CPTP map."""
        acc = np.zeros((self.in_dim, self.in_dim), dtype=complex)
        for k in self.kraus:
            acc += k.conj().T @ k
        return acc


def output_codes(d: int) -> list[int]:
    """A-side output basis: nonempty occupations, sector-major, lex inside."""
    return [c for k in range(1, d + 1) for c in fock.sector_codes(d, k)]


def environment_codes(d: int) -> list[int]:
    """C-side basis: occupations with at most d-1 fermions, sector-major."""
    return [c for j in range(d) for c in fock.sector_codes(d, j)]


def _isometry_columns(d: int, r: float) -> list[fock.StateVector]:
    cols = []
    for i in range(d):
        beta = np.zeros(d, dtype=complex)
        beta[i] = 1.0
        cols.append(fock.isometry_apply(d, r, beta))
    return cols


def _check_channel_d(d: int):
    if d < 1:
        raise DomainError(f"need d >= 1, got d={d}")
    if d > CHANNEL_MAX_D:
        raise DomainError(f"explicit channel construction is capped at d={CHANNEL_MAX_D}")


def _kraus_from_columns(
    cols: list[fock.StateVector], d: int, out_list: list[int], env_list: list[int], trace_out_a: bool
) -> list[np.ndarray]:
    """Split isometry columns into Kraus operators by environment index.

    With ``trace_out_a`` false the environment is the C register (forward
    channel); otherwise it is the A register (complementary channel).
    Amplitudes whose environment code is not in ``env_list`` are dropped.
    """
    out_index = {c: i for i, c in enumerate(out_list)}
    mask = (1 << d) - 1
    kraus = {env: np.zeros((len(out_list), d), dtype=complex) for env in env_list}
    for i, col in enumerate(cols):
        for code, amp in col.amplitudes.items():
            a_code, c_code = code >> d, code & mask
            out_code, env_code = (c_code, a_code) if trace_out_a else (a_code, c_code)
            op = kraus.get(env_code)
            if op is not None:
                op[out_index[out_code], i] = amp
    return [kraus[env] for env in env_list if np.any(kraus[env])]


def grassmann_channel(d: int, r: float) -> ChannelRep:
    """The d-dimensional channel induced by tracing C from the isometry."""
    _check_channel_d(d)
    cols = _isometry_columns(d, r)
    kraus = _kraus_from_columns(cols, d, output_codes(d), environment_codes(d), trace_out_a=False)
    weights = block_weights(d, r)
    blocks = [Block(k, float(weights.p[k - 1]), math.comb(d, k)) for k in range(1, d + 1)]
    return ChannelRep(d, (1 << d) - 1, kraus, blocks, label=f"grassmann(d={d},r={r:.12g})")


def complementary_channel(d: int, r: float) -> ChannelRep:
    """The complementary channel, tracing A instead of C.

    Block metadata labels the C-side sector with j fermions by the forward
    sector k = d - j it mirrors, so block k carries weight p~_k.
    """
    _check_channel_d(d)
    cols = _isometry_columns(d, r)
    kraus = _kraus_from_columns(cols, d, environment_codes(d), output_codes(d), trace_out_a=True)
    weights = block_weights(d, r)
    blocks = [
        Block(d - j, float(weights.p_tilde[d - j - 1]), math.comb(d, j)) for j in range(d)
    ]
    return ChannelRep(d, (1 << d) - 1, kraus, blocks, label=f"grassmann-comp(d={d},r={r:.12g})")


def grassmann_block(d: int, k: int) -> ChannelRep:
    """The r-independent CPTP block map onto the k-fermion sector.

    Rail i maps to a_i^dag exp(sum_j a_j^dag c_j^dag)|vac>, the isometry
    image without its r-dependent factors; its k-fermion A sector has
    C(d-1, k-1) unit-magnitude amplitudes, hence the normalization.
    """
    _check_channel_d(d)
    if not 1 <= k <= d:
        raise DomainError(f"sector k={k} outside [1, {d}]")
    pairs = fock._exp_pair_vacuum(d, 1.0)
    cols = [fock.apply_creation(pairs, i) for i in range(d)]
    ops = _kraus_from_columns(
        cols, d, fock.sector_codes(d, k), fock.sector_codes(d, k - 1), trace_out_a=False
    )
    norm = math.sqrt(math.comb(d - 1, k - 1))
    kraus = [op / norm for op in ops]
    blocks = [Block(k, 1.0, math.comb(d, k))]
    return ChannelRep(d, math.comb(d, k), kraus, blocks, label=f"grassmann-block(d={d},k={k})")


def complement_channel_rep(ch: ChannelRep) -> ChannelRep:
    """Complementary channel of an arbitrary Kraus set.

    The environment basis is indexed by the given Kraus operators, so the
    output dimension equals their number.
    """
    n = len(ch.kraus)
    kraus = []
    for a in range(ch.out_dim):
        op = np.zeros((n, ch.in_dim), dtype=complex)
        for m, k in enumerate(ch.kraus):
            op[m, :] = k[a, :]
        if np.any(op):
            kraus.append(op)
    return ChannelRep(ch.in_dim, n, kraus, None, label=f"complement-of[{ch.label}]")


def erasure_channel(p: float) -> ChannelRep:
    """Qubit-to-qutrit erasure: (1-p) psi directed-sum p |f><f|."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"erasure probability p={p} outside [0, 1]")
    keep = np.zeros((3, 2), dtype=complex)
    keep[0, 0] = keep[1, 1] = math.sqrt(1.0 - p)
    flag0 = np.zeros((3, 2), dtype=complex)
    flag0[2, 0] = math.sqrt(p)
    flag1 = np.zeros((3, 2), dtype=complex)
    flag1[2, 1] = math.sqrt(p)
    kraus = [op for op in (keep, flag0, flag1) if np.any(op)]
    return ChannelRep(2, 3, kraus, None, label=f"erasure(p={p:.12g})")


def werner_holevo(d: int) -> ChannelRep:
    """Antisymmetric-Kraus channel sigma -> (Tr sigma I - sigma^T)/(d-1)."""
    if d < 2:
        raise DomainError(f"need d >= 2, got d={d}")
    kraus = []
    norm = 1.0 / math.sqrt(d - 1)
    for i in range(d):
        for j in range(i + 1, d):
            op = np.zeros((d, d), dtype=complex)
            op[j, i] = norm
            op[i, j] = -norm
            kraus.append(op)
    return ChannelRep(d, d, kraus, None, label=f"werner-holevo(d={d})")


def transpose_depolarizing(d: int, t: float) -> np.ndarray:
    """Choi matrix of sigma -> t sigma^T + (1-t) Tr(sigma) I/d.

    The matrix is PSD exactly on -1/(d-1) <= t <= 1/(d+1); a ``t`` outside
    that window is not an error.
    """
    if d < 2:
        raise DomainError(f"need d >= 2, got d={d}")
    swap = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    return t * swap + (1.0 - t) / d * np.eye(d * d)


def apply_kraus(kraus: list[np.ndarray], mat: np.ndarray) -> np.ndarray:
    out = np.zeros((kraus[0].shape[0], kraus[0].shape[0]), dtype=complex)
    for k in kraus:
        out += k @ mat @ k.conj().T
    return out


def choi_matrix(ch: ChannelRep) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) N(|i><j|), trace = in_dim."""
    dim = ch.in_dim * ch.out_dim
    choi = np.zeros((dim, dim), dtype=complex)
    for k in ch.kraus:
        v = k.T.reshape(-1)  # index (i, a) -> K[a, i]
        choi += np.outer(v, v.conj())
    return choi


def transfer_matrix(ch: ChannelRep) -> np.ndarray:
    """Row-major superoperator: vec(N(X)) = T vec(X)."""
    acc = np.zeros((ch.out_dim**2, ch.in_dim**2), dtype=complex)
    for k in ch.kraus:
        acc += np.kron(k, k.conj())
    return acc


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def _kraus_to_pairs(op: np.ndarray) -> list[list[float]]:
    flat = op.reshape(-1)
    return [[float(x.real), float(x.imag)] for x in flat]


def channel_to_json_dict(ch: ChannelRep, family: str, d: int, r: float) -> dict:
    return {
        "family": family,
        "d": d,
        "r": r,
        "in_dim": ch.in_dim,
        "out_dim": ch.out_dim,
        "kraus": [_kraus_to_pairs(op) for op in ch.kraus],
        "blocks": [{"k": b.k, "weight": b.weight, "dim": b.dim} for b in ch.blocks or []],
    }


def channel_from_json_dict(doc: dict) -> ChannelRep:
    out_dim, in_dim = doc["out_dim"], doc["in_dim"]
    kraus = [
        np.array([complex(re, im) for re, im in op], dtype=complex).reshape(out_dim, in_dim)
        for op in doc["kraus"]
    ]
    blocks = [Block(b["k"], b["weight"], b["dim"]) for b in doc["blocks"]] or None
    return ChannelRep(in_dim, out_dim, kraus, blocks, label=f"{doc['family']}(json)")


def dump_channel_json(ch: ChannelRep, family: str, d: int, r: float, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_json_dict(ch, family, d, r), fh)
        fh.write("\n")


def load_channel_json(path) -> ChannelRep:
    with open(path, encoding="utf-8") as fh:
        return channel_from_json_dict(json.load(fh))
