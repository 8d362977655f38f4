"""CPTP channel representations built from the fermionic squeezing isometry.

The forward channel traces out the C register of the isometry image; its
output space is spanned by the 2^d - 1 nonempty occupation states of the A
register, ordered by fermion number k = 1..d and lexicographically inside
each sector.  The complementary channel traces out A instead; its output
space is spanned by the 2^d - 1 C-register states with at most d - 1
fermions, ordered by fermion number j = 0..d-1.  The C-side sector with j
fermions carries the weight and (up to a fixed unitary) the state of the
forward sector k = d - j.

Every Grassmann Kraus set is a scaled slice of one r-free decomposition of
the unit pair state a_i^dag exp(sum_j a_j^dag c_j^dag)|vac> into fermion-
number sectors.  Both builders fill one zero-padded [C code, A code, rail]
stack from it, sector k scaled by cos^(d-1) r tan^(k-1) r, and slice it: the
channel takes its C rows in use, the complement the A rows in use of its
transpose, and nothing scans it.  Block channel k is sector k divided by
sqrt(C(d-1, k-1)).  ``verify``'s capacity objectives skip the stack: they
contract the sector tensors block by block (``_block_groups``).
``fock.isometry_apply`` builds the same image rail by rail; the tests
compare every Kraus set against it.

A ``ChannelRep`` holds its Kraus set as one complex array of shape
(m, out_dim, in_dim), operator m being ``kraus[m]``, and its sector layout in
``blocks``; ``block_slices`` reads each sector's output rows from there.
``apply_kraus``, ``choi_matrix``, ``transfer_matrix`` and the complement act
on the whole stack at once.  ``dump_channel_json`` formats each distinct
Kraus entry once, telling entries apart by their bytes, and joins the
tokens into a file byte-identical to ``json.dumps`` of the nested-list
document.  ``load_channel_json`` parses with ``json.loads`` while the cyclic
garbage collector is paused, and copies the entries operator by operator into
one preallocated stack.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fock
from .capacity import _check_r, block_weights
from .errors import DomainError, PreconditionError

__all__ = [
    "Block",
    "ChannelRep",
    "rail_reversal",
    "block_slices",
    "grassmann_channel",
    "grassmann_block",
    "complementary_channel",
    "complement_channel_rep",
    "werner_holevo",
    "transpose_depolarizing",
    "apply_kraus",
    "choi_matrix",
    "transfer_matrix",
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
    """A CPTP map given by a stack of Kraus operators, with optional block metadata.

    ``kraus`` may be given as any sequence of (out_dim, in_dim) matrices; it
    is held as one complex array of shape (m, out_dim, in_dim).  Values are
    immutable after construction and safe to share.
    """

    in_dim: int
    out_dim: int
    kraus: np.ndarray
    blocks: list[Block] | None = None
    label: str = ""

    def __post_init__(self):
        self.kraus = np.asarray(self.kraus, dtype=complex)
        if self.kraus.ndim != 3 or self.kraus.shape[1:] != (self.out_dim, self.in_dim):
            raise PreconditionError(
                f"Kraus stack must have shape (m, {self.out_dim}, {self.in_dim}), "
                f"got {self.kraus.shape}"
            )

    def kraus_completeness(self) -> np.ndarray:
        """sum_m K_m^dag K_m, equal to the identity for a CPTP map."""
        return np.einsum("mai,maj->ij", self.kraus.conj(), self.kraus, optimize=True)


def block_slices(ch: ChannelRep) -> dict[int, slice]:
    """Output rows of each block, keyed by the forward sector k it carries.

    The blocks tile the output in the order ``ch.blocks`` lists them; a
    channel without block metadata has none.
    """
    blocks = ch.blocks or []
    ends = itertools.accumulate(b.dim for b in blocks)
    return {b.k: slice(end - b.dim, end) for b, end in zip(blocks, ends)}


def _check_channel_d(d: int):
    if d < 1:
        raise DomainError(f"need d >= 1, got d={d}")
    if d > CHANNEL_MAX_D:
        raise DomainError(f"explicit channel construction is capped at d={CHANNEL_MAX_D}")


@functools.lru_cache(maxsize=None)
def _pair_sectors(d: int) -> tuple[np.ndarray, ...]:
    """Sector tensors of the unit pair state, the r-free core of every Kraus set.

    Rail i maps to a_i^dag exp(sum_j a_j^dag c_j^dag)|vac>, the isometry
    image without its r-dependent factors.  Its part with k fermions in A
    (and k - 1 in C) is tensor k - 1, with entries [A code, C code, rail] in
    ``fock.sector_codes`` order; every nonzero entry has unit magnitude.
    Cached per d (1.9 MB for all d <= 8 together), so the tensors are read-only.
    """
    pairs = fock._exp_pair_vacuum(d, 1.0)
    index = {c: n for k in range(d + 1) for n, c in enumerate(fock.sector_codes(d, k))}
    mask = (1 << d) - 1
    sectors = [
        np.zeros((math.comb(d, k), math.comb(d, k - 1), d), dtype=complex) for k in range(1, d + 1)
    ]
    for i in range(d):
        for code, amp in fock.apply_creation(pairs, i).amplitudes.items():
            a_code, c_code = code >> d, code & mask
            sectors[a_code.bit_count() - 1][index[a_code], index[c_code], i] = amp
    for sector in sectors:
        sector.flags.writeable = False
    return tuple(sectors)


# Blocks of up to this many rows cost more in numpy calls than in padded
# products, so they share one zero-padded stack; at d <= 4 that is all of them.
_SHARED_STACK_ROWS = 8


@functools.lru_cache(maxsize=None)
def _block_groups(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Groups (Q, s) of output-block operands; block i is weighted by sector s[i] + 1.

    Forward block k contracts tensor k of ``_pair_sectors`` with itself over
    (C code, rail).  The complement block with d - k fermions on C, which
    mirrors it, contracts tensor d - k + 1 over (A code, rail).  Both operands
    are C(d, k) x C(d, k-1) d.  A group stacks forward operands, then their
    mirrors: the pairs with at most ``_SHARED_STACK_ROWS`` rows share one
    group, zero-padded to its largest operand, and every other pair is a group
    of its own.  The entries are signs, so Q is its own conjugate.  Cached per
    d (3.0 MB at d = 8), so the arrays are read-only.
    """
    sectors = _pair_sectors(d)
    assert not any(sector.imag.any() for sector in sectors)
    small = [k for k in range(1, d + 1) if math.comb(d, k) <= _SHARED_STACK_ROWS]
    groups = []
    for run in [small] + [[k] for k in range(1, d + 1) if k not in small]:
        n, m = (max(math.comb(d, k - j) for k in run) for j in (0, 1))
        q = np.zeros((2, len(run), n, m, d), dtype=complex)
        for i, k in enumerate(run):
            fwd = sectors[k - 1]
            q[:, i, : len(fwd), : fwd.shape[1]] = (fwd, sectors[d - k].transpose(1, 0, 2))
        q = q.reshape(2 * len(run), n, m * d)
        q.flags.writeable = False
        groups.append((q, np.array([k - 1 for k in run] + [d - k for k in run])))
    return tuple(groups)


def _sector_amplitudes(d: int, r: float) -> list[float]:
    """cos^(d-1) r tan^(k-1) r for sector k = 1..d; rejects the d and r the builders reject."""
    _check_channel_d(d)
    _check_r(r)
    return [math.cos(r) ** (d - 1) * math.tan(r) ** (k - 1) for k in range(1, d + 1)]


def _nonzero_ops(kraus: np.ndarray) -> np.ndarray:
    """Drop all-zero operators, copying the stack only if there are any."""
    nonzero = np.any(kraus, axis=(1, 2))
    return kraus if nonzero.all() else kraus[nonzero]


def _image_stack(d: int, r: float) -> tuple[np.ndarray, int, int]:
    """Zero-padded [C code, A code, rail] Kraus stack of the isometry image, with its rows in use.

    Sector k, scaled by cos^(d-1) r tan^(k-1) r, fills the C rows with k - 1
    fermions and the A columns with k; both registers stack their sectors by
    fermion number.  The counts of C rows and A columns filled by nonzero
    sectors come with it: the rows the channel and its complement keep.
    """
    kraus = np.zeros(((1 << d) - 1, (1 << d) - 1, d), dtype=complex)
    c_rows = a_rows = 0
    for amp, sector in zip(_sector_amplitudes(d, r), _pair_sectors(d)):
        # only r = 0 or an underflowing tan^(k-1) r gives a zero amplitude, and every later one is
        # zero too: they do not increase with k when tan r < 1, and none is zero when tan r >= 1
        if amp == 0.0:
            break
        n_a, n_c = sector.shape[:2]
        kraus[c_rows : c_rows + n_c, a_rows : a_rows + n_a] = amp * sector.transpose(1, 0, 2)
        c_rows += n_c
        a_rows += n_a
    return kraus, c_rows, a_rows


def grassmann_channel(d: int, r: float) -> ChannelRep:
    """The d-dimensional channel induced by tracing C from the isometry."""
    stack, c_rows, _ = _image_stack(d, r)  # rejects d outside [1, 8], then r outside [0, pi/2)
    weights = block_weights(d, r)
    kraus = stack[:c_rows]
    blocks = [Block(k, float(weights.p[k - 1]), math.comb(d, k)) for k in range(1, d + 1)]
    return ChannelRep(d, (1 << d) - 1, kraus, blocks, label=f"grassmann(d={d},r={r:.12g})")


def complementary_channel(d: int, r: float) -> ChannelRep:
    """The complementary channel, tracing A instead of C.

    Its Kraus stack is the transposed forward stack cut to the A rows in use;
    the output keeps every C-side row (at r = 0 only the empty one is reached).
    Block metadata labels the C-side sector with j fermions by the forward
    sector k = d - j it mirrors, so block k carries weight p~_k.
    """
    stack, _, a_rows = _image_stack(d, r)  # rejects d outside [1, 8], then r outside [0, pi/2)
    weights = block_weights(d, r)
    kraus = stack.transpose(1, 0, 2)[:a_rows]
    blocks = [Block(d - j, float(weights.p_tilde[d - j - 1]), math.comb(d, j)) for j in range(d)]
    return ChannelRep(d, (1 << d) - 1, kraus, blocks, label=f"grassmann-comp(d={d},r={r:.12g})")


def grassmann_block(d: int, k: int) -> ChannelRep:
    """The r-independent CPTP block map onto the k-fermion sector.

    Sector k of the pair-state decomposition, sliced by C code; each rail
    has C(d-1, k-1) unit-magnitude amplitudes there, hence the normalization.
    """
    _check_channel_d(d)
    if not 1 <= k <= d:
        raise DomainError(f"sector k={k} outside [1, {d}]")
    sector = _pair_sectors(d)[k - 1] / math.sqrt(math.comb(d - 1, k - 1))
    kraus, blocks = sector.transpose(1, 0, 2), [Block(k, 1.0, math.comb(d, k))]
    return ChannelRep(d, math.comb(d, k), kraus, blocks, label=f"grassmann-block(d={d},k={k})")


def complement_channel_rep(ch: ChannelRep) -> ChannelRep:
    """Complementary channel of an arbitrary Kraus set.

    The environment basis is indexed by the given Kraus operators, so the
    output dimension equals their number.
    """
    kraus = _nonzero_ops(ch.kraus.transpose(1, 0, 2))  # operator a holds row a of every K_m
    return ChannelRep(ch.in_dim, len(ch.kraus), kraus, None, label=f"complement-of[{ch.label}]")


def werner_holevo(d: int) -> ChannelRep:
    """Antisymmetric-Kraus channel sigma -> (Tr sigma I - sigma^T)/(d-1)."""
    if d < 2:
        raise DomainError(f"need d >= 2, got d={d}")
    _check_channel_d(d)
    i, j = np.triu_indices(d, 1)
    m = np.arange(len(i))
    kraus = np.zeros((len(i), d, d), dtype=complex)
    kraus[m, j, i] = 1.0 / math.sqrt(d - 1)
    kraus[m, i, j] = -1.0 / math.sqrt(d - 1)
    return ChannelRep(d, d, kraus, None, label=f"werner-holevo(d={d})")


def transpose_depolarizing(d: int, t: float) -> np.ndarray:
    """Choi matrix of sigma -> t sigma^T + (1-t) Tr(sigma) I/d.

    The matrix is PSD exactly on -1/(d-1) <= t <= 1/(d+1); a ``t`` outside
    that window is not an error.
    """
    if d < 2:
        raise DomainError(f"need d >= 2, got d={d}")
    _check_channel_d(d)
    swap = np.eye(d * d, dtype=complex)[np.arange(d * d).reshape(d, d).T.ravel()]  # |ij> -> |ji>
    return t * swap + (1.0 - t) / d * np.eye(d * d)


def apply_kraus(kraus, mat: np.ndarray) -> np.ndarray:
    """N(X) = sum_m K_m X K_m^dag for a Kraus stack of shape (m, out, in).

    ``mat`` is one (in, in) matrix or a stack (..., in, in) of them; the result has
    the same leading shape.  One product per call: with R[a, (m, j)] = K_m[a, j] and
    L[..., a, (m, j)] = conj(K_m X)[a, j], the sum is conj(L R^T).  Conjugating L in
    place keeps the temporaries to two copies of the Kraus stack per input.
    """
    rows = np.ascontiguousarray(np.asarray(kraus, dtype=complex).transpose(1, 0, 2))
    left = rows @ np.asarray(mat)[..., None, :, :]
    np.conjugate(left, out=left)
    return (left.reshape(*left.shape[:-2], -1) @ rows.reshape(len(rows), -1).T).conj()


def choi_matrix(ch: ChannelRep) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) N(|i><j|), trace = in_dim."""
    vecs = ch.kraus.transpose(0, 2, 1).reshape(len(ch.kraus), -1)  # (m, (i, a)) -> K_m[a, i]
    return vecs.T @ vecs.conj()


def transfer_matrix(ch: ChannelRep) -> np.ndarray:
    """Row-major superoperator: vec(N(X)) = T vec(X)."""
    t = np.einsum("mai,mbj->abij", ch.kraus, ch.kraus.conj(), optimize=True)
    return t.reshape(ch.out_dim**2, ch.in_dim**2)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def _kraus_text(kraus: np.ndarray) -> str:
    """The stack as ``json.dumps`` writes its nested [re, im] lists.

    Each distinct entry is formatted once.  Entries are told apart by their
    16 bytes, so 0.0 and -0.0, or two NaNs, keep their own text.  The
    all-zero entry, most of a Grassmann stack, skips the sort.
    """
    bits = np.ascontiguousarray(kraus).view(np.uint64).reshape(-1, 2)
    nonzero = bits.any(axis=1)
    keys, index = np.unique(bits[nonzero].view("V16"), return_inverse=True)
    floats = json.dumps([0.0, 0.0, *keys.view(float).tolist()])[1:-1].split(", ")
    tokens = [f"[{re}, {im}]" for re, im in zip(floats[::2], floats[1::2])]
    ids = np.zeros(len(bits), np.intp)
    ids[nonzero] = index.ravel() + 1
    ops = ids.reshape(len(kraus), math.prod(kraus.shape[1:])).tolist()
    return "[" + ", ".join("[" + ", ".join(map(tokens.__getitem__, op)) + "]" for op in ops) + "]"


def dump_channel_json(ch: ChannelRep, family: str, d: int, r: float, path):
    head = {"family": family, "d": d, "r": r, "in_dim": ch.in_dim, "out_dim": ch.out_dim}
    blocks = [{"k": b.k, "weight": b.weight, "dim": b.dim} for b in ch.blocks or []]
    kraus = _kraus_text(ch.kraus)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{json.dumps(head)[:-1]}, "kraus": {kraus}, "blocks": {json.dumps(blocks)}}}\n')


def _kraus_stack(ops, out_dim, in_dim, literals: bool) -> np.ndarray:
    """The (m, out_dim, in_dim) stack of a parsed "kraus" list, checked as the loader says.

    ``literals`` says whether the file holds a true or false literal; without
    one no entry can be a bool, and the scan for bools is skipped.
    """
    if any(type(n) is not int or n < 1 for n in (out_dim, in_dim)):
        raise ValueError(f"in_dim, out_dim must be positive integers, not {in_dim!r}, {out_dim!r}")
    flat = itertools.chain.from_iterable
    try:
        sized = all(len(op) == out_dim * in_dim for op in ops) and set(map(len, flat(ops))) == {2}
    except TypeError:  # an operator or an entry that is a number
        sized = False
    if not sized:
        raise ValueError(f"need one or more Kraus operators of {out_dim} x {in_dim} (re, im) pairs")
    # one operator at a time into the stack; np.array on the nested lists would peak at 3x the
    # stack.  array("d") takes ints, floats and bools and refuses everything else.
    kraus = np.empty((len(ops), out_dim, in_dim), complex)
    try:
        for row, op in zip(kraus.reshape(len(ops), -1).view(float), ops):
            row[:] = array("d", list(flat(op)))
        if literals and bool in map(type, flat(flat(ops))):
            raise TypeError
    except (TypeError, OverflowError):
        raise ValueError("Kraus entries must be JSON numbers in float range") from None
    if not np.isfinite(kraus).all():
        raise ValueError("Kraus entries must be finite")
    return kraus


def _blocks(entries, out_dim: int) -> list[Block] | None:
    """The block metadata of a parsed "blocks" list, checked as the loader says."""
    if type(entries) is not list:
        raise ValueError(f'"blocks" must be a list, not {type(entries).__name__}')
    try:
        blocks = [Block(b["k"], b["weight"], b["dim"]) for b in entries]
    except (TypeError, KeyError):  # a block that is no object, or lacks a key
        raise ValueError('each block must be an object with "k", "weight" and "dim"') from None
    for b in blocks:
        if any(type(n) is not int or n < 1 for n in (b.k, b.dim)):
            raise ValueError(f"block k and dim must be positive integers, not {b.k!r}, {b.dim!r}")
        if not (type(b.weight) is int or type(b.weight) is float and math.isfinite(b.weight)):
            raise ValueError(f"block weight must be a finite number, not {b.weight!r}")
    if len({b.k for b in blocks}) < len(blocks):
        raise ValueError(f"block k repeats in {[b.k for b in blocks]}")
    if blocks and sum(b.dim for b in blocks) != out_dim:
        raise ValueError(f"block dims {[b.dim for b in blocks]} do not sum to out_dim = {out_dim}")
    return blocks or None


def load_channel_json(path) -> ChannelRep:
    """Read a channel file; a file that does not hold a channel raises ``ValueError``.

    The file holds one JSON object with at least the keys "family", "in_dim",
    "out_dim", "kraus" and "blocks".  in_dim and out_dim must be positive
    integers and the Kraus list nonempty.  Each operator holds out_dim x
    in_dim [re, im] pairs of finite JSON numbers: ints or floats, never
    bools, nulls or strings.  Each block is a {"k", "weight", "dim"} object
    with positive integer k and dim and a finite number as weight; no k
    repeats, and a nonempty block list has dims summing to out_dim.
    """
    # the parse tree is acyclic lists and floats, all freed by reference counting; with the
    # cyclic collector on, its rescans of the growing tree take longer than the parse itself
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        literals = "true" in text or "false" in text
        doc = json.loads(text)
        del text  # 7 MB at d = 8, freed before the floats are copied out
        if type(doc) is not dict:
            raise ValueError(f"a channel file holds one JSON object, not {type(doc).__name__}")
        missing = {"family", "in_dim", "out_dim", "kraus", "blocks"} - doc.keys()
        if missing:
            raise ValueError(f"channel file lacks the keys {sorted(missing)}")
        in_dim, out_dim = doc["in_dim"], doc["out_dim"]
        # popped, so the Kraus lists are freed as soon as the stack is filled
        kraus = _kraus_stack(doc.pop("kraus"), out_dim, in_dim, literals)
        blocks = _blocks(doc["blocks"], out_dim)
        return ChannelRep(in_dim, out_dim, kraus, blocks, label=f"{doc['family']}(json)")
    finally:
        if collecting:
            gc.enable()
