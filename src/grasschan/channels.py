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
number sectors, whose nonzeros ``_sector_nonzeros`` lists once per d.
``_image`` scatters them, scaled by the sector amplitudes, into one read-only
stack, kept for the last (d, r) with the block weights read off the same
amplitudes: this module consults no closed form.  The channel is a view of
its C rows in use and the complement of the A rows in use of its transpose,
so a pair at one (d, r) shares one stack, and nothing scans it.  Block
channel k scatters sector k alone.  ``verify``'s capacity objectives skip
the stacks and gather their output blocks through tables read off the same
listing.  Every Kraus set equals, entry for entry, the image that
``fock.isometry_apply`` builds by ladder application, which this module
does not use.

A ``ChannelRep`` holds its Kraus set as one complex array of shape
(m, out_dim, in_dim), operator m being ``kraus[m]``, and its sector layout in
``blocks``; ``block_slices`` reads each sector's output rows from there.
``apply_kraus``, ``choi_matrix``, ``transfer_matrix`` and the complement act
on the whole stack at once.  ``dump_channel_json`` formats each distinct
Kraus entry once, telling entries apart by their bytes, takes runs of zero
entries as memoryview slices of one encoded zero string, joins each operator
once into bytes and writes the file operator by operator through one binary
buffer, byte-identical to ``json.dumps`` of the nested-list document.
``load_channel_json`` reads a file in that layout, sparse or dense, one
operator at a time, counting the writer's zero entries where an entry must
start without storing them: only the other entries reach the decoder, their
floats and flat indices are kept, and they are scattered into one zeroed
stack at the end; ``json.loads`` sees only the file less its Kraus list.  It
parses any other file whole by ``json.loads``; either way it decodes as
``json.loads`` does.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .capacity import _check_d, _check_integer, _check_r
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

CHANNEL_MAX_D = 8  # the largest d at which a channel is built explicitly


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
    is held as one complex array of shape (m, out_dim, in_dim), and a stack of
    any other rank raises.  ``in_dim`` and ``out_dim`` are read off its shape.
    Values are immutable after construction and safe to share: a Grassmann
    channel's stack is read-only and shared with its complement at the same (d, r).
    """

    kraus: np.ndarray
    blocks: list[Block] | None = None
    label: str = ""

    def __post_init__(self):
        self.kraus = np.asarray(self.kraus, dtype=complex)
        if self.kraus.ndim != 3:
            raise PreconditionError(
                f"Kraus stack must have shape (m, out_dim, in_dim), got {self.kraus.shape}"
            )

    @property
    def in_dim(self) -> int:
        return self.kraus.shape[2]

    @property
    def out_dim(self) -> int:
        return self.kraus.shape[1]

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


def _check_channel_d(d: int, least: int = 1) -> int:
    """d as an int; DomainError unless it is an integer in [least, CHANNEL_MAX_D]."""
    d = _check_d(d, least)
    if d > CHANNEL_MAX_D:
        raise DomainError(f"explicit channel construction is capped at d={CHANNEL_MAX_D}")
    return d


class _SectorNonzeros(NamedTuple):
    """The nonzero entries of one sector of the unit pair state, listed by A code, then rail."""

    a: np.ndarray  # index of each entry's A code among the sector's A codes
    c: np.ndarray  # index of its C code among the codes with one fermion fewer
    rail: np.ndarray
    unit: np.ndarray  # its value, +1.0 or -1.0
    flat: np.ndarray  # its position in the flattened zero-padded [C code, A code, rail] stack


@functools.lru_cache(maxsize=None)
def _sector_nonzeros(d: int) -> tuple[_SectorNonzeros, ...]:
    """The nonzero entries of every sector of the unit pair state: d 2^(d-1) in all.

    Rail i maps to a_i^dag exp(sum_j a_j^dag c_j^dag)|vac>, the isometry image
    without its r-dependent factors.  Sector k is its part with k fermions in A
    and m = k - 1 in C, an [A, C, rail] tensor over each register's ascending
    occupation codes, mode 0 the most significant bit.  Its entry [A, C, i] is
    nonzero exactly when mode i is in A and C = A - {i}, and then equals
    (-1)^(m(m-1)/2 + #{j in C : j < i}): moving the a^dag of the m pairs left of
    their c^dag gives the first sign, and a_i^dag passing the occupied A modes
    before mode i the second.  Entries are listed by A code, then by i ascending,
    which is C code ascending.  Sector k fills the C rows with k - 1 fermions and
    the A columns with k of the stack that ``_image`` scales it into, so ``flat``
    is r-free.  Cached per d (40 KB at d = 8), so the arrays are read-only.
    """
    codes = np.arange(1 << d)
    bits = codes[:, None] >> np.arange(d - 1, -1, -1) & 1  # [code, mode]
    fermions, before = bits.sum(axis=1), np.cumsum(bits, axis=1) - bits
    side, listing = (1 << d) - 1, []
    c_rows = a_rows = 0
    for k in range(1, d + 1):
        a_codes, c_codes = np.flatnonzero(fermions == k), np.flatnonzero(fermions == k - 1)
        a, rail = np.nonzero(bits[a_codes])
        a_code = a_codes[a]
        c = np.searchsorted(c_codes, a_code - (1 << (d - 1 - rail)))
        unit = np.where(((k - 1) * (k - 2) // 2 + before[a_code, rail]) & 1, -1.0, 1.0)
        flat = ((c_rows + c) * side + a_rows + a) * d + rail
        entries = _SectorNonzeros(a, c, rail, unit, flat)
        for array in entries:
            array.flags.writeable = False
        listing.append(entries)
        c_rows, a_rows = c_rows + len(c_codes), a_rows + len(a_codes)
    return tuple(listing)


def _sector_amplitudes(d: int, r: float) -> list[float]:
    """cos^(d-1) r tan^(k-1) r for sector k = 1..d, d already checked; rejects a bad r."""
    _check_r(r)
    return [math.cos(r) ** (d - 1) * math.tan(r) ** (k - 1) for k in range(1, d + 1)]


def _nonzero_ops(kraus: np.ndarray) -> np.ndarray:
    """Drop all-zero operators, copying the stack only if there are any."""
    nonzero = np.any(kraus, axis=(1, 2))
    return kraus if nonzero.all() else kraus[nonzero]


@functools.lru_cache(maxsize=1)
def _image(d: int, r: float) -> tuple[np.ndarray, int, int, tuple[float, ...]]:
    """The isometry image at (d, r): its Kraus stack, C and A rows in use, and block weights.

    In the zero-padded [C code, A code, rail] stack, sector k times its amplitude
    a = cos^(d-1) r tan^(k-1) r fills the C rows with k - 1 fermions and the A columns with
    k: one scatter of its nonzeros (``_sector_nonzeros``) into the zeroed stack.  Block
    weight k is a * a * C(d-1, k-1), the squared norm of that sector's image of one rail.
    Read-only (8.3 MB at d = 8), and cached for the last (d, r) only: a channel and its
    complement at one r share it.
    """
    amps = _sector_amplitudes(d, r)  # checks r before the (2^d - 1)^2 d stack is allocated
    kraus = np.zeros(((1 << d) - 1, (1 << d) - 1, d), dtype=complex)
    flat = kraus.reshape(-1).real  # a view: the signs are real, so the imaginary parts stay 0
    c_rows = a_rows = 0
    for k, (amp, entries) in enumerate(zip(amps, _sector_nonzeros(d)), 1):
        # only r = 0 or an underflowing tan^(k-1) r gives a zero amplitude, and every later one is
        # zero too: they do not increase with k when tan r < 1, and none is zero when tan r >= 1
        if amp == 0.0:
            break
        flat[entries.flat] = amp * entries.unit
        c_rows, a_rows = c_rows + math.comb(d, k - 1), a_rows + math.comb(d, k)
    kraus.flags.writeable = False
    weights = tuple(a * a * math.comb(d - 1, k - 1) for k, a in enumerate(amps, 1))
    return kraus, c_rows, a_rows, weights


def grassmann_channel(d: int, r: float) -> ChannelRep:
    """The d-dimensional channel induced by tracing C from the isometry."""
    d = _check_channel_d(d)  # before the cache, which would take 3.0 for 3
    stack, c_rows, _, p = _image(d, r)  # rejects r
    blocks = [Block(k, p[k - 1], math.comb(d, k)) for k in range(1, d + 1)]
    return ChannelRep(stack[:c_rows], blocks, label=f"grassmann(d={d},r={r:.12g})")


def complementary_channel(d: int, r: float) -> ChannelRep:
    """The complementary channel, tracing A instead of C.

    Its Kraus stack is the transposed forward stack cut to the A rows in use;
    the output keeps every C-side row (at r = 0 only the empty one is reached).
    Block metadata labels the C-side sector with j fermions by the forward
    sector k = d - j it mirrors, so block k carries weight p~_k = p_(d-k+1) = p[j].
    """
    d = _check_channel_d(d)  # before the cache, which would take 3.0 for 3
    stack, _, a_rows, p = _image(d, r)  # rejects r
    kraus = stack.transpose(1, 0, 2)[:a_rows]
    blocks = [Block(d - j, p[j], math.comb(d, j)) for j in range(d)]
    return ChannelRep(kraus, blocks, label=f"grassmann-comp(d={d},r={r:.12g})")


def grassmann_block(d: int, k: int) -> ChannelRep:
    """The r-independent CPTP block map onto the k-fermion sector.

    Sector k of the pair-state decomposition, scattered from ``_sector_nonzeros``
    by C code; each rail has C(d-1, k-1) unit-magnitude amplitudes there, hence
    the normalization.
    """
    d, k = _check_channel_d(d), _check_integer(k, "k", "sector ")
    if not 1 <= k <= d:
        raise DomainError(f"sector k={k} outside [1, {d}]")
    entries = _sector_nonzeros(d)[k - 1]
    kraus = np.zeros((math.comb(d, k - 1), math.comb(d, k), d), dtype=complex)
    kraus[entries.c, entries.a, entries.rail] = entries.unit / math.sqrt(math.comb(d - 1, k - 1))
    blocks = [Block(k, 1.0, math.comb(d, k))]
    return ChannelRep(kraus, blocks, label=f"grassmann-block(d={d},k={k})")


def complement_channel_rep(ch: ChannelRep) -> ChannelRep:
    """Complementary channel of an arbitrary Kraus set.

    The environment basis is indexed by the given Kraus operators, so the
    output dimension equals their number.
    """
    kraus = _nonzero_ops(ch.kraus.transpose(1, 0, 2))  # operator a holds row a of every K_m
    return ChannelRep(kraus, label=f"complement-of[{ch.label}]")


def werner_holevo(d: int) -> ChannelRep:
    """Antisymmetric-Kraus channel sigma -> (Tr sigma I - sigma^T)/(d-1)."""
    d = _check_channel_d(d, least=2)
    i, j = np.triu_indices(d, 1)
    m = np.arange(len(i))
    kraus = np.zeros((len(i), d, d), dtype=complex)
    kraus[m, j, i] = 1.0 / math.sqrt(d - 1)
    kraus[m, i, j] = -1.0 / math.sqrt(d - 1)
    return ChannelRep(kraus, label=f"werner-holevo(d={d})")


def transpose_depolarizing(d: int, t: float) -> np.ndarray:
    """Choi matrix of sigma -> t sigma^T + (1-t) Tr(sigma) I/d.

    The matrix is PSD exactly on -1/(d-1) <= t <= 1/(d+1); a ``t`` outside
    that window is not an error; a non-finite one is.
    """
    d = _check_channel_d(d, least=2)
    if not math.isfinite(t):
        raise DomainError(f"transpose-depolarizing parameter t={t} is not finite")
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

_KRAUS_KEY, _BLOCKS_KEY = ', "kraus": [', '], "blocks": '  # around the writer's Kraus list
_ZERO_ENTRY = "[0.0, 0.0], "  # the writer's zero entry and the separator after it
# runs of 2048, 1024, ..., 1 zero entries; the first spans a whole d = 8 operator (2,040 entries)
_ZERO_RUNS = [_ZERO_ENTRY * (1 << k) for k in range(11, -1, -1)]


def _kraus_text(kraus: np.ndarray) -> Iterator[tuple[bytes | memoryview, ...]]:
    """The stack as ``json.dumps`` writes its nested [re, im] lists, as the bytes of each operator.

    Each distinct nonzero entry is formatted once, by one ``json.dumps`` call;
    entries are told apart by their 16 bytes, so 0.0 and -0.0, or two NaNs,
    keep their own text.  Runs of zero entries, most of a Grassmann stack, are
    memoryview slices of one encoded zero string.  The numpy work is done by
    the call; each operator, when reached, is joined once into bytes and
    yielded as three pieces: its opening "[" (led by ", " after the first),
    a memoryview of its entries less their trailing ", ", and its "]".
    """
    m, size = len(kraus), math.prod(kraus.shape[1:])
    bits = np.ascontiguousarray(kraus).view(np.uint64).reshape(m, size, 2)
    # an entry is zero where both halves are: their two flags read as one 16-bit word is zero
    nonzero = (bits != 0).view(np.uint16)[..., 0] != 0
    keys, index = np.unique(bits.view("V16")[..., 0][nonzero], return_inverse=True)
    floats = json.dumps(keys.view(float).tolist())[1:-1].split(", ")
    # every operator gains one last entry, the empty token, led by the zeros that close it
    tokens = [f"[{real}, {imag}], ".encode() for real, imag in zip(floats[::2], floats[1::2])]
    tokens.append(b"")
    at = np.flatnonzero(np.pad(nonzero, ((0, 0), (0, 1)), constant_values=True))
    column = at % (size + 1)
    ids = np.full(len(at), len(keys))
    ids[column < size] = index
    zeros = memoryview((_ZERO_ENTRY * size).encode())
    pads = (np.diff(at, prepend=-1) - 1) * len(_ZERO_ENTRY)
    ends = np.flatnonzero(column == size) + 1

    def operators():
        opening, start = b"[", 0
        for end in ends.tolist():
            # a dense operator has an empty run before each entry: b"" costs less than a memoryview
            runs = [zeros[:pad] if pad else b"" for pad in pads[start:end].tolist()]
            pairs = zip(runs, map(tokens.__getitem__, ids[start:end].tolist()))
            yield opening, memoryview(b"".join(itertools.chain.from_iterable(pairs)))[:-2], b"]"
            opening, start = b", [", end

    return operators()


def dump_channel_json(ch: ChannelRep, family: str, d: int, r: float, path):
    """Write a channel file, byte-identical to ``json.dumps`` of its nested-list document.

    All formatting but the join of each operator's bytes happens before the
    file is opened, in binary with a 1 MiB buffer, which is then written one
    operator at a time; a dump that fails after the open removes the file.
    ``path`` is opened for writing as it is: a symlink is followed and its
    target truncated, and a device such as /dev/stdout is written through.
    """
    head = {"family": family, "d": d, "r": r, "in_dim": ch.in_dim, "out_dim": ch.out_dim}
    blocks = [{"k": b.k, "weight": b.weight, "dim": b.dim} for b in ch.blocks or []]
    plain = functools.partial(json.dumps, default=np.generic.item)  # a numpy scalar as its value
    head, tail, ops = plain(head)[:-1], plain(blocks), _kraus_text(ch.kraus)
    fh = open(path, "wb", buffering=1 << 20)
    try:
        with fh:  # json.dumps escapes every non-ASCII character, so the text is ASCII
            fh.write(f"{head}{_KRAUS_KEY}".encode())
            fh.writelines(itertools.chain.from_iterable(ops))
            fh.write(f"{_BLOCKS_KEY}{tail}}}\n".encode())
    except BaseException:
        os.remove(path)
        raise


def _append_operator(rows: array, op, size: int | None) -> int:
    """Append one parsed Kraus operator's floats to ``rows``; returns its entry count.

    The operator must be a list of [re, im] pairs, ``size`` of them once that
    is known.  array("d") takes ints, floats and bools and refuses the rest,
    so the bools are looked for after it.
    """
    flat = itertools.chain.from_iterable
    try:
        sized = set(map(len, op)) == {2} and size in (None, len(op))
    except TypeError:  # an operator or an entry that is a number
        sized = False
    if not sized:
        raise ValueError("each Kraus operator must be a list of [re, im] pairs, all of one length")
    try:
        rows.fromlist(list(flat(op)))
        if bool in map(type, flat(op)):
            raise TypeError
    except (TypeError, OverflowError):
        raise ValueError("Kraus entries must be JSON numbers in float range") from None
    return len(op)


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


def _writer_doc(text: str) -> dict | None:
    """The document of a channel file in the layout ``dump_channel_json`` writes, else None.

    Cut at the first ', "kraus": [' and the last '], "blocks": ' (a quote in a JSON
    string is escaped, so neither falls in one), the file less its Kraus list must
    decode as two objects: the head, closed by "}" at the top level, to the keys family,
    d, r, in_dim and out_dim in turn, and the rest, opened by "{", to "blocks" alone.
    ``walked`` reads the Kraus list between one operator at a time, sparse or dense; one
    it cannot read, or of another length than the first, leaves the text to ``json.loads``.
    The writer's zero entries are only counted: the floats of every other entry, and its
    flat index in ``at``, are kept, and scattered at the end into one zeroed stack.
    """
    start, end = text.find(_KRAUS_KEY), text.rfind(_BLOCKS_KEY)
    pos, decoder = start + len(_KRAUS_KEY), json.JSONDecoder()
    if start < 0 or end < pos:
        return None
    try:  # one array of the two objects; end + 3 is the quote that opens "blocks"
        doc, tail = json.loads("[" + text[:start] + "}, {" + text[end + 3 :] + "]")
    except ValueError:  # bad JSON, or an array of more or fewer than two values
        return None
    if list(doc) != ["family", "d", "r", "in_dim", "out_dim"] or list(tail) != ["blocks"]:
        return None
    values, at = array("d"), array("q")

    def walked(pos: int, first: int) -> tuple[int, int] | None:
        """The end and entry count of the operator at ``pos``; ``first`` is its first flat index.

        Runs of the writer's zero entries where an entry must start are counted
        and skipped; each other entry is decoded and its flat index appended to
        ``at``.  When "]" closes the operator its decoded entries are checked,
        and their floats appended to ``values``, by one ``_append_operator``
        call.  None where the operator departs from the writer's form or holds
        an entry that is no [re, im] pair of numbers.
        """
        if not text.startswith("[[", pos):
            return None
        pos, n, entries = pos + 1, first, []
        while True:
            end = pos
            if text.startswith(_ZERO_ENTRY, end):  # else no run fits: a dense operator's entry
                for run in _ZERO_RUNS:
                    while text.startswith(run, end):
                        end += len(run)
            n += (end - pos) // len(_ZERO_ENTRY)
            try:
                entry, pos = decoder.raw_decode(text, end)
            except ValueError:
                return None
            entries.append(entry)
            at.append(n)
            n += 1
            if text.startswith("]", pos):
                break
            if not text.startswith(", ", pos):
                return None
            pos += 2
        try:
            _append_operator(values, entries, None)
        except ValueError:
            return None
        return pos + 1, n - first

    count, size = 0, None
    while pos < end:
        walk = walked(pos, count * (size or 0))
        if not walk or size not in (None, walk[1]):  # bad, or of another length
            return None
        (pos, size), count = walk, count + 1
        if not text.startswith(", ", pos):
            break
        pos += 2
    if pos != end or text.startswith(", ", end - 2):  # a list ends at "]", after no comma
        return None
    kraus = np.zeros((count, size or 0), dtype=complex)
    kraus.reshape(-1)[np.frombuffer(at, dtype=np.int64)] = np.frombuffer(values).view(complex)
    return dict(doc, kraus=kraus.view(float), **tail)


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
    with open(path, encoding="utf-8") as fh:
        text = fh.read()  # about 6 MB at d = 8
    doc = _writer_doc(text) or json.loads(text)
    del text  # freed before the finiteness check allocates one bool per entry
    if type(doc) is not dict:
        raise ValueError(f"a channel file holds one JSON object, not {type(doc).__name__}")
    if missing := {"family", "in_dim", "out_dim", "kraus", "blocks"} - doc.keys():
        raise ValueError(f"channel file lacks the keys {sorted(missing)}")
    in_dim, out_dim, rows = doc["in_dim"], doc["out_dim"], doc["kraus"]
    if any(type(n) is not int or n < 1 for n in (out_dim, in_dim)):
        raise ValueError(f"in_dim, out_dim must be positive integers, not {in_dim!r}, {out_dim!r}")
    if type(rows) is list:  # decoded whole by json.loads
        ops, rows, size = rows, array("d"), None
        for op in ops:
            size = _append_operator(rows, op, size)
        rows = np.frombuffer(rows).reshape(len(ops), 2 * (size or 0))
    if type(rows) is not np.ndarray or not len(rows) or rows.shape[1] != 2 * out_dim * in_dim:
        raise ValueError(f"need one or more Kraus operators of {out_dim} x {in_dim} (re, im) pairs")
    kraus = rows.view(complex).reshape(len(rows), out_dim, in_dim)
    if not np.isfinite(kraus).all():
        raise ValueError("Kraus entries must be finite")
    blocks = _blocks(doc["blocks"], out_dim)
    return ChannelRep(kraus, blocks, label=f"{doc['family']}(json)")
