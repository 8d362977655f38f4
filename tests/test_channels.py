"""Channel construction: Kraus sets, blocks, complements, reference channels."""

import copy
import dataclasses
import gc
import itertools
import json
import math
import os
import stat
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grasschan import capacity, channels, fock, verify
from grasschan.channels import (
    apply_kraus,
    choi_matrix,
    complement_channel_rep,
    complementary_channel,
    grassmann_block,
    grassmann_channel,
    transfer_matrix,
    transpose_depolarizing,
    werner_holevo,
)
from grasschan.errors import DomainError, PreconditionError
from helpers import erasure_channel, pair_sectors


def _random_pure(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _sector_slices(d):
    out, pos = [], 0
    for k in range(1, d + 1):
        n = math.comb(d, k)
        out.append(slice(pos, pos + n))
        pos += n
    return out


@pytest.mark.parametrize("d", range(1, 7))
def test_trace_preserving_and_choi_psd(d):
    for r in np.linspace(0.0, 1.55, 20):
        ch = grassmann_channel(d, float(r))
        assert np.linalg.norm(ch.kraus_completeness() - np.eye(d)) < 1e-10
        assert np.linalg.eigvalsh(choi_matrix(ch)).min() > -1e-9
        assert ch.out_dim == 2**d - 1
        assert abs(sum(b.weight for b in ch.blocks) - 1.0) < 1e-12
        assert sum(b.dim for b in ch.blocks) == ch.out_dim


@pytest.mark.parametrize("d", range(2, 7))
def test_block_weights_input_independent(d):
    rng = np.random.default_rng(d)
    r = 0.9
    ch = grassmann_channel(d, r)
    expected = capacity.block_weights(d, r)
    for _ in range(5):
        out = apply_kraus(ch.kraus, _random_pure(d, rng))
        for sl, p_k in zip(_sector_slices(d), expected):
            assert abs(np.trace(out[sl, sl]).real - p_k) < 1e-12


_WEIGHT_RS = (0.0, 1e-160, 1e-100, 1e-20, *np.linspace(0.0, 1.5707963, 25)[1:].tolist(),
              1.5707963267948963)


def _exact_weight(d, k, r):
    # C(d-1, k-1) cos^(2(d-1)) r tan^(2(k-1)) r at the binary value of r, in 50 digits
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        return float(mpmath.binomial(d - 1, k - 1) * mpmath.cos(r) ** (2 * (d - 1))
                     * mpmath.tan(r) ** (2 * (k - 1)))


@pytest.mark.parametrize("d", range(1, 9))
def test_block_weights_match_the_binomial_pmf_in_high_precision(d):
    # read off the sector amplitudes, the weights keep their digits where the Loader kernel
    # loses a few ulps, and stay nonzero where tan^2 r is subnormal (7e-320 at d = 8, r = 1e-160)
    for r in _WEIGHT_RS:
        forward, comp = grassmann_channel(d, r), complementary_channel(d, r)
        for b in forward.blocks:
            exact = _exact_weight(d, b.k, r)
            assert abs(b.weight - exact) <= 1e-14 * exact + 1e-322, (r, b)
        for b in comp.blocks:  # complement block k carries p_(d-k+1)
            exact = _exact_weight(d, d - b.k + 1, r)
            assert abs(b.weight - exact) <= 1e-14 * exact + 1e-322, (r, b)


@pytest.mark.parametrize("d", range(1, 9))
def test_block_weights_are_the_traces_of_their_output_sectors(d):
    rails = np.eye(d)[:, :, None] * np.eye(d)[:, None, :]  # |i><i| for each rail i
    for r in (0.2, 0.7, math.pi / 4, 1.3):
        for ch in (grassmann_channel(d, r), complementary_channel(d, r)):
            out = apply_kraus(ch.kraus, rails)
            for b, rows in zip(ch.blocks, channels.block_slices(ch).values()):
                traces = np.trace(out[:, rows, rows], axis1=1, axis2=2).real
                assert np.abs(traces - b.weight).max() <= 1e-14 * b.weight, (r, ch.label, b)


def test_channels_holds_no_closed_form():
    assert not hasattr(channels, "block_weights")
    assert not hasattr(capacity, "CHANNEL_MAX_D")
    assert channels.CHANNEL_MAX_D == 8


@pytest.mark.parametrize("d", range(2, 7))
def test_flat_block_spectra(d):
    # inside sector k every nonzero eigenvalue equals 1/C(d-1,k-1)
    rng = np.random.default_rng(d + 100)
    ch = grassmann_channel(d, 0.8)
    weights = capacity.block_weights(d, 0.8)
    for _ in range(50):
        out = apply_kraus(ch.kraus, _random_pure(d, rng))
        for k, sl in enumerate(_sector_slices(d), start=1):
            evals = np.linalg.eigvalsh(out[sl, sl] / weights[k - 1])
            flat = 1.0 / math.comb(d - 1, k - 1)
            nonzero = evals[np.abs(evals) > 1e-9]
            assert np.abs(nonzero - flat).max() < 1e-9
            assert len(nonzero) == math.comb(d - 1, k - 1)


def test_d1_trivial_trace_map():
    ch = grassmann_channel(1, 0.9)
    assert ch.in_dim == ch.out_dim == 1
    assert ch.blocks == [channels.Block(1, 1.0, 1)]
    assert np.allclose(apply_kraus(ch.kraus, np.eye(1)), np.eye(1))


@pytest.mark.parametrize("r", np.linspace(0.0, 1.5, 7))
def test_d2_matches_erasure_choi_spectrum(r):
    g2 = grassmann_channel(2, float(r))
    er = erasure_channel(math.sin(r) ** 2)
    ev_g = np.sort(np.linalg.eigvalsh(choi_matrix(g2)))
    ev_e = np.sort(np.linalg.eigvalsh(choi_matrix(er)))
    assert np.abs(ev_g - ev_e).max() < 1e-12


def test_d2_equals_erasure_after_rail_alignment():
    # exact map equality once the lexicographic rails are relabeled
    r = 0.7
    g2 = grassmann_channel(2, r)
    er = erasure_channel(math.sin(r) ** 2)
    align = np.zeros((3, 3))
    align[0, 1] = align[1, 0] = align[2, 2] = 1.0
    rng = np.random.default_rng(0)
    for _ in range(5):
        rho = _random_pure(2, rng)
        lhs = align @ apply_kraus(g2.kraus, rho) @ align.T
        rhs = apply_kraus(er.kraus, rho)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_erasure_endpoints():
    rng = np.random.default_rng(2)
    rho = _random_pure(2, rng)
    out0 = apply_kraus(erasure_channel(0.0).kraus, rho)
    assert np.linalg.norm(out0[:2, :2] - rho) < 1e-14 and abs(out0[2, 2]) < 1e-14
    out1 = apply_kraus(erasure_channel(1.0).kraus, rho)
    assert abs(out1[2, 2] - 1.0) < 1e-14 and np.linalg.norm(out1[:2, :2]) < 1e-14
    with pytest.raises(DomainError):
        erasure_channel(1.5)


def test_d3_second_block_explicit_matrix():
    rng = np.random.default_rng(3)
    r = 0.7
    ch = grassmann_channel(3, r)
    p2 = capacity.block_weights(3, r)[1]
    for _ in range(5):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        out = apply_kraus(ch.kraus, np.outer(v, v.conj()))
        chi2 = out[3:6, 3:6] / p2
        b1, b2, b3 = v
        expected = 0.5 * np.array(
            [
                [abs(b2) ** 2 + abs(b3) ** 2, b2 * np.conj(b1), -b3 * np.conj(b1)],
                [np.conj(b2) * b1, abs(b1) ** 2 + abs(b3) ** 2, b3 * np.conj(b2)],
                [-np.conj(b3) * b1, np.conj(b3) * b2, abs(b1) ** 2 + abs(b2) ** 2],
            ]
        )
        assert np.linalg.norm(chi2 - expected) < 1e-12


def test_d3_rail1_input_block2_diagonal():
    out = apply_kraus(grassmann_block(3, 2).kraus, np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert np.linalg.norm(out - np.diag([0.0, 0.5, 0.5])) < 1e-12


def test_block_k1_is_rail_reversal():
    for d in (2, 3, 4):
        block = grassmann_block(d, 1)
        assert len(block.kraus) == 1
        assert np.allclose(block.kraus[0], channels.rail_reversal(d))


def test_block_top_sector_is_constant_flag():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4):
        block = grassmann_block(d, d)
        out = apply_kraus(block.kraus, _random_pure(d, rng))
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 1.0) < 1e-12


@pytest.mark.parametrize("d,k", [(3, 2), (4, 2), (4, 3), (5, 2), (6, 3), (8, 5)])
def test_block_matches_full_channel_sectors(d, k):
    # the extracted block map reproduces sector k of the full channel at any r
    rng = np.random.default_rng(10 * d + k)
    block = grassmann_block(d, k)
    assert np.linalg.norm(block.kraus_completeness() - np.eye(d)) < 1e-12
    sl = _sector_slices(d)[k - 1]
    for r in (0.3, 0.8, 1.2):
        ch = grassmann_channel(d, r)
        p_k = capacity.block_weights(d, r)[k - 1]
        rho = _random_pure(d, rng)
        sector = apply_kraus(ch.kraus, rho)[sl, sl]
        assert np.linalg.norm(sector - p_k * apply_kraus(block.kraus, rho)) < 1e-12


def _bytes(ch):
    """Every field of a Grassmann channel to the bit, block weights included."""
    blocks = [(b.k, b.weight.hex(), b.dim) for b in ch.blocks]
    return ch.kraus.shape, ch.kraus.tobytes(), blocks, ch.label


def _channel_bytes(d, r):
    chans = (grassmann_channel(d, r), complementary_channel(d, r))
    chans += tuple(grassmann_block(d, k) for k in range(1, d + 1))
    return [_bytes(ch) for ch in chans]


@pytest.mark.parametrize("d", [1, 3, 6])
def test_sector_nonzeros_cache_is_shared_and_read_only(d):
    channels._sector_nonzeros.cache_clear()
    fresh = _channel_bytes(d, 0.7)
    channels._sector_nonzeros.cache_clear()
    _channel_bytes(d, 0.2)  # fills the cache at another r
    listing = channels._sector_nonzeros(d)
    again = channels._sector_nonzeros(d)
    assert isinstance(listing, tuple) and len(listing) == d
    assert again is listing
    for entries in listing:
        for array in entries:
            with pytest.raises(ValueError):
                array[0] = 2
    assert _channel_bytes(d, 0.7) == fresh


_BUILDERS = (grassmann_channel, complementary_channel)
_IMAGE_RS = [0.0, -0.0, 1e-160, 0.3, math.pi / 4, 1.2, 1.5707]


def _fresh(build, d, r):
    channels._image.cache_clear()
    return _bytes(build(d, r))


@pytest.mark.parametrize("d", range(1, 9))
def test_shared_image_builds_match_a_fresh_cache_in_every_order(d):
    # each r is interleaved with the next one on the grid, so no stale entry can leak
    for r, other in zip(_IMAGE_RS, _IMAGE_RS[1:] + _IMAGE_RS[:1]):
        fresh = {(build, repr(x)): _fresh(build, d, x) for build in _BUILDERS for x in (r, other)}
        orders = (
            [(grassmann_channel, r), (complementary_channel, r)],
            [(complementary_channel, r), (grassmann_channel, r)],
            [(build, x) for x in (r, other, r) for build in _BUILDERS],
        )
        for order in orders:
            channels._image.cache_clear()
            for build, x in order:
                assert _bytes(build(d, x)) == fresh[build, repr(x)]


@pytest.mark.parametrize("d", range(1, 9))
def test_channel_and_complement_share_one_read_only_stack(d):
    fwd, comp = grassmann_channel(d, 0.7), complementary_channel(d, 0.7)
    assert np.shares_memory(fwd.kraus, comp.kraus)
    for ch in (fwd, comp):
        with pytest.raises(ValueError, match="read-only"):
            ch.kraus[0, 0, 0] = 1.0
    assert _bytes(fwd) == _fresh(grassmann_channel, d, 0.7)


def test_a_complement_built_after_its_channel_allocates_no_stack():
    fwd = grassmann_channel(8, 0.7)
    peak = _traced_peak(lambda: complementary_channel(8, 0.7))
    assert peak < 0.01 * fwd.kraus.base.nbytes  # the stack is 8.3 MB


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("r, twin", [(0.0, -0.0), (-0.0, 0.0), (1, 1.0), (1.0, 1)])
def test_equal_keys_share_the_image_and_keep_their_own_label(d, r, twin):
    for build in _BUILDERS:
        want = _fresh(build, d, twin)
        channels._image.cache_clear()
        first, hit = build(d, r), build(d, twin)
        assert np.shares_memory(first.kraus, hit.kraus)
        assert _bytes(hit) == want  # the label prints twin, the caller's own r


def test_rejected_inputs_raise_on_every_call_and_leave_the_cache_correct():
    # d is checked before r, as before the cache, and before the stack is allocated
    cases = [
        (0, 0.3, "need d >= 1, got d=0"),
        (0, math.nan, "need d >= 1, got d=0"),
        (9, math.nan, "explicit channel construction is capped at d=8"),
        (3, math.nan, "squeezing parameter r=nan outside [0, pi/2)"),
        (3, math.pi / 2, f"squeezing parameter r={math.pi / 2} outside [0, pi/2)"),
    ]
    want = {build: _fresh(build, 3, 0.3) for build in _BUILDERS}
    for build, (d, r, message) in itertools.product(_BUILDERS, cases):
        build(3, 0.3)
        for _ in range(2):
            with pytest.raises(DomainError) as info:
                build(d, r)
            assert str(info.value) == message
            assert [_bytes(b(3, 0.3)) for b in _BUILDERS] == list(want.values())
    # a d = 9 stack would take 511 x 511 x 9 x 16 B = 37.6 MB
    for build in _BUILDERS:
        assert _traced_peak(lambda: pytest.raises(DomainError, build, 9, 0.3)) < 2**20


@pytest.mark.parametrize("d", range(1, 9))
def test_sector_nonzeros_list_every_nonzero_of_the_sector_tensors(d):
    listing = channels._sector_nonzeros(d)
    assert channels._sector_nonzeros(d) is listing
    assert sum(len(entries.unit) for entries in listing) == d << (d - 1)
    n = (1 << d) - 1
    scattered, placed = np.zeros(n * n * d, dtype=complex), np.zeros((n, n, d), dtype=complex)
    c_row = a_row = 0
    for sector, entries in zip(pair_sectors(d), listing):
        # the sign rule against the ladders, sign for sign, and nothing off the listing
        assert entries.unit.dtype == float and set(entries.unit.tolist()) <= {-1.0, 1.0}
        rebuilt = np.zeros_like(sector)
        rebuilt[entries.a, entries.c, entries.rail] = entries.unit
        assert rebuilt.tobytes() == sector.tobytes()
        # listed by A code, then by rail, which is C code ascending
        assert np.all(np.diff(entries.a * d + entries.rail) > 0)
        assert np.all((np.diff(entries.a) > 0) | (np.diff(entries.c) > 0))
        for array in entries:
            with pytest.raises(ValueError):
                array[0] = array[0]
        # the flat positions place the sector where the dense fill of the padded stack does
        scattered[entries.flat] = entries.unit
        n_a, n_c = sector.shape[:2]
        placed[c_row : c_row + n_c, a_row : a_row + n_a] = sector.transpose(1, 0, 2)
        c_row, a_row = c_row + n_c, a_row + n_a
    assert scattered.tobytes() == placed.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        lambda d: grassmann_channel(d, 0.3),
        lambda d: complementary_channel(d, 0.3),
        lambda d: grassmann_block(d, 1),
        werner_holevo,
        lambda d: transpose_depolarizing(d, 0.1),
        lambda d: verify.check_ppt_threshold(d),
    ],
)
@pytest.mark.parametrize("d", [2.0, 3.0, 2.5, np.float64(3.0), "3", None])
def test_builders_reject_a_non_integer_d(call, d):
    # 1 << d and np.triu_indices raised a bare TypeError from inside the builders; the image
    # cache, warm at d = 3, must not take 3.0 for 3
    call(3)
    with pytest.raises(DomainError, match="d must be an integer"):
        call(d)


def test_builders_take_numpy_integer_d():
    for d in (np.int64(3), np.uint8(3)):
        assert _bytes(grassmann_channel(d, 0.3)) == _bytes(grassmann_channel(3, 0.3))
        assert _bytes(grassmann_block(d, 2)) == _bytes(grassmann_block(3, 2))
        assert werner_holevo(d).kraus.tobytes() == werner_holevo(3).kraus.tobytes()
        assert transpose_depolarizing(d, 0.1).tobytes() == transpose_depolarizing(3, 0.1).tobytes()


@pytest.mark.parametrize("k", [1.5, 2.0, np.float64(2.0), "2", None])
def test_grassmann_block_rejects_a_non_integer_k(k):
    # k indexed the sector tuple and was compared with ints: 1.5 and 2.0 raised a bare
    # TypeError from the index, "2" from the comparison
    with pytest.raises(DomainError, match="sector k must be an integer"):
        grassmann_block(3, k)
    for k in (0, 4):
        with pytest.raises(DomainError, match=rf"sector k={k} outside \[1, 3\]"):
            grassmann_block(3, k)
    for k in (np.int64(2), np.uint8(2)):
        assert _bytes(grassmann_block(3, k)) == _bytes(grassmann_block(3, 2))


def test_transpose_depolarizing_rejects_a_non_finite_t():
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="not finite"):
            transpose_depolarizing(3, t)
    assert np.isfinite(transpose_depolarizing(3, 5.0)).all()  # outside the PSD window: no error


def test_block_kraus_entry_magnitudes():
    block = grassmann_block(3, 2)
    assert len(block.kraus) == 3
    for op in block.kraus:
        nonzero = np.abs(op[np.abs(op) > 1e-12])
        assert np.allclose(nonzero, 1.0 / math.sqrt(2))


def test_complementary_r0_is_constant_vacuum():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        ch = complementary_channel(d, 0.0)
        out = apply_kraus(ch.kraus, _random_pure(d, rng))
        expected = np.zeros_like(out)
        expected[0, 0] = 1.0  # the C-side basis starts with the vacuum
        assert np.linalg.norm(out - expected) < 1e-12


def test_complementary_blocks_metadata():
    d, r = 3, 0.6
    ch = complementary_channel(d, r)
    p = capacity.block_weights(d, r)
    assert [b.k for b in ch.blocks] == [3, 2, 1]
    assert [b.dim for b in ch.blocks] == [1, 3, 3]
    for b in ch.blocks:
        assert abs(b.weight - p[d - b.k]) < 1e-15
    assert abs(sum(b.weight for b in ch.blocks) - 1.0) < 1e-12


@pytest.mark.parametrize("d", range(2, 7))
def test_complementary_channel_is_cptp(d):
    for r in (0.0, 0.4, 1.0, 1.5):
        ch = complementary_channel(d, r)
        assert np.linalg.norm(ch.kraus_completeness() - np.eye(d)) < 1e-10
        assert np.linalg.eigvalsh(choi_matrix(ch)).min() > -1e-9
        assert ch.out_dim == 2**d - 1


def test_large_dimension_construction_smoke():
    # the explicit-construction cap admits d = 7 comfortably
    ch = grassmann_channel(7, 0.6)
    assert ch.out_dim == 127
    assert np.linalg.norm(ch.kraus_completeness() - np.eye(7)) < 1e-10
    comp = complementary_channel(7, 0.6)
    assert np.linalg.norm(comp.kraus_completeness() - np.eye(7)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_complement_choi_spectrum_mirrors_reversed_parameter(d):
    r = 0.5
    ev_c = np.sort(np.linalg.eigvalsh(choi_matrix(complementary_channel(d, r))))
    ev_f = np.sort(np.linalg.eigvalsh(choi_matrix(grassmann_channel(d, math.pi / 2 - r))))
    assert np.abs(ev_c - ev_f).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_generic_complement_agrees_with_direct_construction(d):
    ch = grassmann_channel(d, 0.8)
    direct = complementary_channel(d, 0.8)
    generic = complement_channel_rep(ch)
    assert np.linalg.norm(choi_matrix(generic) - choi_matrix(direct)) < 1e-12


def _isometry_kraus(d, r):
    """Forward and complementary Kraus sets split from the isometry columns, and its blocks.

    Block k is the image's sector k over its amplitude cos^(d-1) r tan^(k-1) r and
    sqrt(C(d-1, k-1)), as a [C code, A code, rail] stack, or None where that amplitude is 0.
    """
    a_codes = [c for k in range(1, d + 1) for c in fock.sector_codes(d, k)]
    c_codes = [c for j in range(d) for c in fock.sector_codes(d, j)]
    a_row = {c: n for n, c in enumerate(a_codes)}
    c_row = {c: n for n, c in enumerate(c_codes)}
    index = {c: n for k in range(d + 1) for n, c in enumerate(fock.sector_codes(d, k))}
    fwd = {c: np.zeros((len(a_codes), d), dtype=complex) for c in c_codes}
    comp = {a: np.zeros((len(c_codes), d), dtype=complex) for a in a_codes}
    scales = [math.cos(r) ** (d - 1) * math.tan(r) ** (k - 1) for k in range(1, d + 1)]
    blocks = [
        np.zeros((math.comb(d, k - 1), math.comb(d, k), d), dtype=complex) if scale else None
        for k, scale in enumerate(scales, 1)
    ]
    for i in range(d):
        for code, amp in fock.isometry_apply(d, r, np.eye(d)[i]).amplitudes.items():
            a, c = code >> d, code & ((1 << d) - 1)
            fwd[c][a_row[a], i] = amp
            comp[a][c_row[c], i] = amp
            # the image is real; a complex quotient would overflow on a subnormal scale
            k = a.bit_count()
            unit = amp.real / scales[k - 1]
            assert amp.imag == 0 and unit in (-1.0, 1.0)
            blocks[k - 1][index[c], index[a], i] = unit / math.sqrt(math.comb(d - 1, k - 1))
    return [[op for op in ops.values() if np.any(op)] for ops in (fwd, comp)], blocks


@pytest.mark.parametrize("r", [0.0, 5e-324, 1e-160, 0.3, math.pi / 4, 1.2, 1.5707])
@pytest.mark.parametrize("d", range(1, 9))
def test_kraus_sets_match_isometry_apply(d, r):
    # both scale the unit sign of a k-fermion sector by cos^(d-1) r times tan r ** (k-1)
    built = (grassmann_channel(d, r), complementary_channel(d, r))
    references, blocks = _isometry_kraus(d, r)
    for ch, reference in zip(built, references):
        assert len(ch.kraus) == len(reference)
        for op, ref in zip(ch.kraus, reference):
            assert np.array_equal(op, ref)
    # the r-free block maps against the same ladder-built image, wherever its sector is nonzero
    for k, ref in enumerate(blocks, 1):
        if ref is not None:
            assert np.array_equal(grassmann_block(d, k).kraus, ref)


def _scanned_stacks(d, r):
    """Forward and complement stacks by a full scan: every sector placed, zero operators dropped."""
    n = (1 << d) - 1
    full = np.zeros((n, n, d), dtype=complex)
    c_row = a_row = 0
    for amp, sector in zip(channels._sector_amplitudes(d, r), pair_sectors(d)):
        n_a, n_c = sector.shape[:2]
        full[c_row : c_row + n_c, a_row : a_row + n_a] = amp * sector.transpose(1, 0, 2)
        c_row, a_row = c_row + n_c, a_row + n_a
    return [stack[np.any(stack, axis=(1, 2))] for stack in (full, full.transpose(1, 0, 2))]


@pytest.mark.parametrize("r", [0.0, 5e-324, 1e-300, 1e-160, 1e-40, 0.7, 1.2])
@pytest.mark.parametrize("d", range(1, 9))
def test_builders_slice_the_operators_a_full_scan_keeps(d, r):
    # an underflowing tan^(k-1) r zeroes every sector from some k on; the builders stop there
    zero = [amp == 0.0 for amp in channels._sector_amplitudes(d, r)]
    assert zero == sorted(zero)
    built = (grassmann_channel(d, r), complementary_channel(d, r))
    for ch, ref in zip(built, _scanned_stacks(d, r)):
        assert ch.kraus.shape == ref.shape
        assert ch.kraus.tobytes() == ref.tobytes()
    counts = [len(ch.kraus) for ch in built]
    if r == 0.0:
        assert counts == [1, d]
    if (d, r) == (8, 1e-160):  # sectors 1..3 survive: tan^2 r is subnormal, tan^3 r is 0
        assert counts == [37, 92]


@pytest.mark.parametrize("r", [0.0, 0.7])
@pytest.mark.parametrize("d", range(1, 9))
def test_kraus_mass_stays_inside_one_block(d, r):
    # the sector-by-sector kernels assume that no Kraus mass falls outside its block
    for ch in (grassmann_channel(d, r), complementary_channel(d, r)):
        rows = channels.block_slices(ch)
        assert list(rows) == [b.k for b in ch.blocks]
        bounds = [(sl.start, sl.stop) for sl in rows.values()]
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == ch.out_dim
        touched = np.any(ch.kraus, axis=2)  # (operator, output row) pairs with nonzero entries
        per_block = np.stack([touched[:, sl].any(axis=1) for sl in rows.values()], axis=1)
        assert np.all(per_block.sum(axis=1) == 1)
    assert channels.block_slices(werner_holevo(3)) == {}


def _loop_complement(ch):
    """The complement built operator by operator: operator a collects row a of each K_m."""
    ops = []
    for a in range(ch.out_dim):
        op = np.zeros((len(ch.kraus), ch.in_dim), dtype=complex)
        for m, k in enumerate(ch.kraus):
            op[m, :] = k[a, :]
        if np.any(op):
            ops.append(op)
    return ops


def _kernel_channels(case):
    if case == "werner-holevo":
        return [werner_holevo(4)]
    if case == "erasure":
        return [erasure_channel(0.3), erasure_channel(0.0)]
    if case == "complex":  # a random isometry: no built channel has complex entries
        g = np.random.default_rng(9).standard_normal((12, 6)).view(complex)
        return [channels.ChannelRep(np.linalg.qr(g)[0].reshape(3, 4, 3))]
    d = case
    built = [grassmann_channel(d, 0.7), complementary_channel(d, 0.7), grassmann_channel(d, 0.0)]
    return built + [grassmann_block(d, k) for k in range(1, d + 1)]


@pytest.mark.parametrize("case", [*range(1, 9), "werner-holevo", "erasure", "complex"])
def test_stacked_kernels_match_operator_loops(case):
    rng = np.random.default_rng(40)
    for ch in _kernel_channels(case):
        kraus = ch.kraus
        assert kraus.dtype == complex and kraus.shape == (len(kraus), ch.out_dim, ch.in_dim)
        rho = _random_pure(ch.in_dim, rng)
        out = sum(k @ rho @ k.conj().T for k in kraus)
        assert np.abs(apply_kraus(kraus, rho) - out).max() < 1e-14
        assert np.abs(apply_kraus(list(kraus), rho) - out).max() < 1e-14
        # a (2, 3, in, in) stack of inputs: each slice equals its 2-D call bit for bit
        stack = np.array([_random_pure(ch.in_dim, rng) for _ in range(6)]).reshape(2, 3, *rho.shape)
        outs = apply_kraus(kraus, stack)
        assert outs.shape == (2, 3, ch.out_dim, ch.out_dim)
        assert np.array_equal(outs[1], apply_kraus(kraus, stack[1]))
        assert all(np.array_equal(outs[0, j], apply_kraus(kraus, stack[0, j])) for j in range(3))
        gram = sum(k.conj().T @ k for k in kraus)
        assert np.abs(ch.kraus_completeness() - gram).max() < 1e-14
        if ch.in_dim * ch.out_dim <= 600:  # the loop sums take seconds on full d = 7, 8 channels
            choi = sum(np.outer(k.T.reshape(-1), k.T.reshape(-1).conj()) for k in kraus)
            assert np.abs(choi_matrix(ch) - choi).max() < 1e-14
            transfer = sum(np.kron(k, k.conj()) for k in kraus)
            assert np.abs(transfer_matrix(ch) - transfer).max() < 1e-14
        comp = complement_channel_rep(ch)
        reference = _loop_complement(ch)
        assert comp.kraus.shape == (len(reference), len(kraus), ch.in_dim)
        assert all(np.array_equal(op, ref) for op, ref in zip(comp.kraus, reference))


def test_channel_dimensions_follow_the_kraus_stack(tmp_path):
    built = [werner_holevo(d) for d in range(2, 9)]
    for d in range(1, 9):
        built += [grassmann_channel(d, 0.7), complementary_channel(d, 0.7)]
        built += [grassmann_block(d, k) for k in range(1, d + 1)]
    built += [complement_channel_rep(ch) for ch in built[:12]]
    path = tmp_path / "channel.json"
    for ch in (grassmann_channel(3, 0.4), channels.ChannelRep(np.ones((2, 5, 3)))):
        channels.dump_channel_json(ch, "loaded", 3, 0.4, path)
        built.append(channels.load_channel_json(path))
    for ch in built:
        assert (ch.in_dim, ch.out_dim) == (ch.kraus.shape[2], ch.kraus.shape[1]), ch.label
        assert type(ch.in_dim) is int and type(ch.out_dim) is int
    # the dimensions are no fields: they can be neither passed in nor set apart from the stack
    assert [f.name for f in dataclasses.fields(channels.ChannelRep)] == ["kraus", "blocks", "label"]
    ch = built[-1]
    with pytest.raises(TypeError):
        channels.ChannelRep(ch.kraus, in_dim=3, out_dim=5)
    for name in ("in_dim", "out_dim"):
        with pytest.raises(AttributeError):
            setattr(ch, name, 4)
    assert (ch.in_dim, ch.out_dim) == (3, 5)


def test_kraus_stack_shape_and_json_operator_size(tmp_path):
    for flat in (np.zeros((2, 3)), np.zeros((1, 1, 2, 3)), np.zeros(3), 1.0):
        with pytest.raises(PreconditionError, match=r"shape \(m, out_dim, in_dim\)"):
            channels.ChannelRep(flat)
    path = tmp_path / "channel.json"
    channels.dump_channel_json(grassmann_channel(2, 0.5), "grassmann", 2, 0.5, path)
    doc = json.loads(path.read_text())
    assert [b["dim"] for b in doc["blocks"]] == [2, 1] and gc.isenabled()

    def entry(value):
        return lambda bad: bad["kraus"][1][0].__setitem__(0, value)

    def block(key, value, i=0):
        return lambda bad: bad["blocks"][i].__setitem__(key, value)

    def edited(edit):
        bad = json.loads(json.dumps(doc))
        edit(bad)
        return bad

    bad_edits = (
        lambda bad: bad["kraus"][1].pop(),
        lambda bad: bad["kraus"][1].append([0.0, 0.0]),
        # the entry count is right, so only each operator's length can tell
        lambda bad: bad["kraus"][0].append(bad["kraus"][1].pop()),
        lambda bad: bad["kraus"][1][0].pop(),
        entry(True),
        entry(False),
        entry(None),
        entry("1"),
        entry(math.nan),
        entry(-math.inf),
        entry([0.0]),
        lambda bad: bad["kraus"][1].__setitem__(0, 0.0),
        lambda bad: bad.update(kraus=[]),
        lambda bad: bad.update(in_dim=0, out_dim=0, kraus=[[]]),
        lambda bad: bad.update(out_dim=float(bad["out_dim"])),
        lambda bad: bad.update(in_dim=True),
        lambda bad: bad.pop("kraus"),
        lambda bad: bad.pop("blocks"),
        lambda bad: bad.update(blocks=bad["blocks"][0]),
        lambda bad: bad.update(blocks=[1, 2]),
        lambda bad: bad["blocks"][0].pop("weight"),
        block("k", True),
        block("k", 0),
        block("dim", "2"),
        block("dim", 2.0),
        block("weight", None),
        block("weight", "0.5"),
        block("weight", math.inf),
        block("k", 1, i=1),
        block("dim", 5),
    )
    for bad in [*map(edited, bad_edits), [doc], "channel"]:
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError):
            channels.load_channel_json(path)
        assert gc.isenabled()
    # a JSON int is a number, as an entry or a weight, and a true literal outside the Kraus list
    # is no entry
    for edit in (entry(1), lambda good: good.update(family="true or false"), block("weight", 1)):
        good = edited(edit)
        path.write_text(json.dumps(good))
        kraus = np.array(good["kraus"], dtype=float).view(complex)[..., 0]
        assert np.array_equal(channels.load_channel_json(path).kraus.reshape(kraus.shape), kraus)
        assert gc.isenabled()


def test_load_channel_json_leaves_a_disabled_collector_disabled(tmp_path):
    path, bad = tmp_path / "channel.json", tmp_path / "bad.json"
    channels.dump_channel_json(grassmann_channel(3, 0.4), "grassmann", 3, 0.4, path)
    bad.write_text(path.read_text().replace('"dim": 3', '"dim": 4', 1))
    gc.disable()
    try:
        assert channels.load_channel_json(path).kraus.shape == (7, 7, 3)
        assert not gc.isenabled()
        with pytest.raises(ValueError):
            channels.load_channel_json(bad)
        assert not gc.isenabled()
    finally:
        gc.enable()
    with pytest.raises(FileNotFoundError):
        channels.load_channel_json(tmp_path / "missing.json")
    assert gc.isenabled()


def test_werner_holevo_action_formula():
    rng = np.random.default_rng(6)
    for d in (2, 3, 4, 5):
        wh = werner_holevo(d)
        assert len(wh.kraus) == math.comb(d, 2)
        assert np.linalg.norm(wh.kraus_completeness() - np.eye(d)) < 1e-12
        sigma = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        sigma = sigma + sigma.conj().T
        expected = (np.trace(sigma) * np.eye(d) - sigma.T) / (d - 1)
        assert np.linalg.norm(apply_kraus(wh.kraus, sigma) - expected) < 1e-12


def test_werner_holevo_d2_single_flip():
    wh = werner_holevo(2)
    assert len(wh.kraus) == 1
    assert np.allclose(wh.kraus[0], np.array([[0, -1], [1, 0]]))


def test_transpose_depolarizing_cp_window():
    def choi_psd(d, t):
        return np.linalg.eigvalsh(transpose_depolarizing(d, t)).min() >= -1e-9

    for d in (2, 3, 4):
        lo, hi = -1.0 / (d - 1), 1.0 / (d + 1)
        assert choi_psd(d, lo) and choi_psd(d, hi)
        assert not choi_psd(d, lo - 1e-6)
        assert not choi_psd(d, hi + 1e-6)


def test_transpose_depolarizing_werner_holevo_point():
    for d in (2, 3, 4):
        choi = transpose_depolarizing(d, -1.0 / (d - 1))
        assert np.linalg.norm(choi - choi_matrix(werner_holevo(d))) < 1e-12


def test_transpose_depolarizing_center_point():
    d = 3
    assert np.linalg.norm(transpose_depolarizing(d, 0.0) - np.eye(d * d) / d) < 1e-14
    # at t = 1 it is the swap: entry [(i, j), (k, l)] is 1 exactly when i = l and j = k
    swap = np.einsum("il,jk->ijkl", np.eye(d), np.eye(d)).reshape(d * d, d * d)
    assert np.array_equal(transpose_depolarizing(d, 1.0), swap)


def test_apply_kraus_identity():
    rng = np.random.default_rng(8)
    rho = _random_pure(3, rng)
    assert np.linalg.norm(apply_kraus([np.eye(3, dtype=complex)], rho) - rho) < 1e-15


def test_choi_trace_convention():
    ch = grassmann_channel(2, 0.5)
    assert abs(np.trace(choi_matrix(ch)).real - 2.0) < 1e-12
    ident = channels.ChannelRep([np.eye(3, dtype=complex)], None, "identity")
    choi = choi_matrix(ident)
    evals = np.sort(np.linalg.eigvalsh(choi))
    assert abs(evals[-1] - 3.0) < 1e-12 and np.abs(evals[:-1]).max() < 1e-12
    flag = choi_matrix(erasure_channel(1.0))
    assert abs(np.trace(flag).real - 2.0) < 1e-12


def test_channel_dimension_cap():
    with pytest.raises(DomainError):
        grassmann_channel(9, 0.3)
    with pytest.raises(DomainError):
        grassmann_channel(0, 0.3)
    for r in (math.nan, math.inf, -0.1, math.pi / 2):
        for build in (grassmann_channel, complementary_channel):
            with pytest.raises(DomainError):
                build(3, r)
    for build in (werner_holevo, lambda d: transpose_depolarizing(d, 0.1)):
        with pytest.raises(DomainError, match="capped at d=8"):
            build(9)


def test_json_roundtrip(tmp_path):
    path = tmp_path / "channel.json"
    ch = grassmann_channel(3, 0.4)
    channels.dump_channel_json(ch, "grassmann", 3, 0.4, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["family", "d", "r", "in_dim", "out_dim", "kraus", "blocks"]
    assert doc["family"] == "grassmann" and doc["d"] == 3 and doc["in_dim"] == 3
    assert doc["out_dim"] == 7
    assert all(len(entry) == 2 for op in doc["kraus"] for entry in op)
    loaded = channels.load_channel_json(path)
    assert np.linalg.norm(choi_matrix(loaded) - choi_matrix(ch)) < 1e-12
    assert np.array_equal(loaded.kraus, ch.kraus)  # the repr of each float round-trips exactly


def test_d2_dump_kraus_sparsity(tmp_path):
    path = tmp_path / "d2.json"
    channels.dump_channel_json(grassmann_channel(2, 0.5), "grassmann", 2, 0.5, path)
    doc = json.loads(path.read_text())
    assert doc["out_dim"] == 3
    nonzero = sum(
        1 for op in doc["kraus"] for re, im in op if abs(re) > 1e-15 or abs(im) > 1e-15
    )
    assert nonzero == 4


def _reference_json(ch, family, d, r):
    """The writer before entry dedup: json.dumps of the nested-list document."""
    kraus = ch.kraus
    doc = {
        "family": family,
        "d": d,
        "r": r,
        "in_dim": ch.in_dim,
        "out_dim": ch.out_dim,
        "kraus": np.stack((kraus.real, kraus.imag), -1).reshape(len(kraus), -1, 2).tolist(),
        "blocks": [{"k": b.k, "weight": b.weight, "dim": b.dim} for b in ch.blocks or []],
    }
    return json.dumps(doc) + "\n"


def _assert_dump_bytes(tmp_path, ch, family, d, r):
    path = tmp_path / "channel.json"
    channels.dump_channel_json(ch, family, d, r, path)
    assert path.read_bytes() == _reference_json(ch, family, d, r).encode()


@pytest.mark.parametrize("r", [0.0, 0.3, math.pi / 4, 1.2, 1.5707])
@pytest.mark.parametrize("d", range(1, 9))
def test_dump_bytes_match_the_reference_writer(tmp_path, d, r):
    _assert_dump_bytes(tmp_path, grassmann_channel(d, r), "grassmann", d, r)
    _assert_dump_bytes(tmp_path, complementary_channel(d, r), "grassmann-comp", d, r)


def test_dump_bytes_match_the_reference_writer_off_family(tmp_path):
    rng = np.random.default_rng(14)
    dense = rng.standard_normal((6, 5, 3)) + 1j * rng.standard_normal((6, 5, 3))
    # 0.0 and -0.0 share a value but not their text; NaN and inf print as JSON constants
    odd = np.array([[0.0, -0.0], [-0.0, 0.0], [math.nan, -math.inf], [math.inf, -math.nan]])
    # the same among zero runs, as bit patterns: a -0.0 half, NaNs with distinct payloads
    # (quiet, negative, signaling), each a distinct entry, all printed as NaN
    neg0, inf, nan = 1 << 63, 0x7FF << 52, 0x7FF8 << 48
    halves = [(0, neg0), (neg0, 0), (neg0, neg0), (nan, 0), (0, nan + 1), (nan | neg0, inf + 1)]
    sparse = np.zeros((3 * 4 * 2, 2), np.uint64)
    sparse[[1, 3, 4, 9, 10, 14, 23]] = [*halves, (inf, inf | neg0)]
    cases = (
        (werner_holevo(4), "werner-holevo", 4, 0.0),
        (erasure_channel(0.3), "erasure", 2, 0.3),
        (channels.ChannelRep(dense), "dense", 3, 0.1),
        (channels.ChannelRep(odd.view(complex).reshape(2, 2, 1)), "odd", 1, 0.5),
        (channels.ChannelRep(sparse.view(complex).reshape(3, 4, 2)), "sparse", 2, 0.5),
        (channels.ChannelRep(dense[:2, :3, :2], blocks=[]), "no-blocks", 2, 0.2),
    )
    for ch, family, d, r in cases:
        assert not ch.blocks
        _assert_dump_bytes(tmp_path, ch, family, d, r)


def _assert_bitwise_roundtrip(path, ch):
    channels.dump_channel_json(ch, ch.label, ch.in_dim, 0.5, path)
    back = channels.load_channel_json(path)
    assert (back.in_dim, back.out_dim, back.blocks) == (ch.in_dim, ch.out_dim, ch.blocks or None)
    assert back.kraus.shape == ch.kraus.shape
    assert back.kraus.tobytes() == np.ascontiguousarray(ch.kraus).tobytes()


def test_json_roundtrip_is_bitwise_at_d8(tmp_path):
    signed = np.array([[0.0, -0.0], [-0.0, 0.0], [1e-300, -5e-324]]).view(complex).reshape(1, 3, 1)
    # signed zeros among the writer's zeros, in either half and next to an operator's closing zero
    sparse = np.zeros((2 * 5 * 3, 2))
    signs = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [1e-300, -0.0]]
    sparse[[0, 1, 7, 12, 13, 16, 28, 29]] = signs * 2
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    for ch in (
        grassmann_channel(8, 0.7),
        complementary_channel(8, 1.2),
        channels.ChannelRep(signed),
        channels.ChannelRep(sparse.view(complex).reshape(2, 5, 3)),
        channels.ChannelRep(dense),
    ):
        _assert_bitwise_roundtrip(tmp_path / "channel.json", ch)


def test_json_roundtrip_is_bitwise_for_every_family(tmp_path):
    builds = (grassmann_channel, complementary_channel)
    family = [build(d, r) for d in range(1, 8) for r in (0.0, 0.7, 1.2) for build in builds]
    family += [grassmann_block(d, k) for d in (1, 4, 7) for k in range(1, d + 1)]
    family += [werner_holevo(d) for d in (2, 3, 5)] + [erasure_channel(p) for p in (0.0, 0.3, 1.0)]
    for ch in family:
        _assert_bitwise_roundtrip(tmp_path / "channel.json", ch)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one d = 8 Kraus stack; its file holds 520,200 [re, im] entries, 99.8% of them zero
_D8_STACK = 255 * 255 * 8 * 16


def test_json_dump_holds_one_operator_text_at_a_time(tmp_path):
    path = tmp_path / "channel.json"
    ch = grassmann_channel(8, 0.7)
    peak = _traced_peak(lambda: channels.dump_channel_json(ch, "grassmann", 8, 0.7, path))
    assert peak < 0.5 * _D8_STACK


def test_json_load_holds_one_operator_parse_tree_at_a_time(tmp_path):
    path = tmp_path / "channel.json"
    channels.dump_channel_json(grassmann_channel(8, 0.7), "grassmann", 8, 0.7, path)
    assert _traced_peak(lambda: channels.load_channel_json(path)) < 3.5 * _D8_STACK


def test_loader_decodes_as_json_loads(tmp_path):
    path = tmp_path / "channel.json"
    ch = grassmann_channel(3, 0.4)
    doc = json.loads(_reference_json(ch, "grassmann", 3, 0.4))
    compact = json.dumps(doc, separators=(",", ":"))
    spaced = json.dumps(doc, indent=" \t\r", separators=(" \n,\t ", "\r : \n"))
    # a bad first "kraus" value must not count: the last key wins, as in json.loads
    first = '{"kraus": [[[1.0, 2.0], true], 3], "kraus": null, "family"'
    # the writer's layout but for one separator after an entry, or the end of its Kraus list
    writer, end = json.dumps(doc), ']]], "blocks": '
    texts = (
        json.dumps(doc, indent=2),
        compact,
        json.dumps(doc, sort_keys=True),
        f"\n\t {spaced} \r\n",
        json.dumps(doc).replace('{"family"', first, 1),
        _reference_json(ch, 'x "kraus": [', 3, 0.4),
        writer.replace("], [", "],[", 1),
        writer.replace(end, ']] ], "blocks": ', 1),
    )
    for text in texts:
        path.write_text(text, encoding="utf-8")
        want = json.loads(text)
        back = channels.load_channel_json(path)
        assert back.kraus.tobytes() == np.array(want["kraus"]).view(complex).tobytes()
        assert back.kraus.tobytes() == ch.kraus.tobytes()
        assert back.blocks == ch.blocks and back.label == f"{want['family']}(json)"
    body = compact.index('"kraus":[') + len('"kraus":[')
    op_end = compact.index("]]", body) + 2
    bad_texts = (
        compact[:-1] + ",}",
        compact.replace("]]],", "]],],", 1),
        compact + compact,
        compact + " 0",
        "\ufeff" + compact,
        compact.replace('"in_dim":', '"in_dim"', 1),
        compact[:op_end],
        compact.replace('{"family"', '{3:1,"family"', 1),
        writer.replace("], [", "]x [", 1),
        writer.replace(end, ']], ], "blocks": ', 1),  # a trailing comma
    )
    for text in bad_texts:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            json.loads(text)
        with pytest.raises(ValueError):
            channels.load_channel_json(path)


_ZERO = "[0.0, 0.0]"


def _writer_parts(ch, family, path):
    """A writer file's text split at its Kraus list: head, operator texts, tail."""
    channels.dump_channel_json(ch, family, ch.in_dim, 0.5, path)
    text = path.read_text(encoding="utf-8")
    start = text.index('"kraus": [') + len('"kraus": [')
    end = text.rindex('], "blocks": ')
    # each operator is yielded as byte pieces: its opening "[" (after ", " past the first),
    # its entries and its "]"
    ops = [b"".join(op).decode().removeprefix(", ") for op in channels._kraus_text(ch.kraus)]
    assert ", ".join(ops) == text[start:end]
    return text[:start], ops, text[end:]


def _json_operator(op_text, ch):
    """One operator as json.loads reads it; None where json rejects it or it is no operator."""
    try:
        op = json.loads(op_text)
    except json.JSONDecodeError:
        return None
    size = ch.out_dim * ch.in_dim
    pairs = all(type(e) is list and len(e) == 2 for e in op) and len(op) == size
    if not pairs or any(type(x) not in (int, float) for e in op for x in e):
        return None
    return np.array(op, dtype=float).view(complex).reshape(ch.out_dim, ch.in_dim)


def _zero_operator(ch, raw=()):
    """An operator text of the writer's zero entries, with raw entry texts at some indices."""
    entries = [_ZERO] * (ch.out_dim * ch.in_dim)
    for at, entry in dict(raw).items():
        entries[at] = entry
    return f"[{', '.join(entries)}]"


@pytest.mark.parametrize("d", [3, 8])
def test_loader_counts_zero_runs_only_at_entry_positions(tmp_path, d):
    path = tmp_path / "channel.json"
    ch = grassmann_channel(d, 0.7)
    head, ops, tail = _writer_parts(ch, "grassmann", path)
    last = ch.out_dim * ch.in_dim - 1
    spellings = ("[-0.0, 0.0]", "[0, 0.0]", "[0.00, 0.0]", "[0.0e0, 0.0]")
    spellings += ("[0.0,0.0]", "[0.0, 0.0 ]")
    # each zero spelling that is not the writer's sits between two runs of the writer's zeros
    spelled = {2 * i + 1: entry for i, entry in enumerate((*spellings, "[0.0, -0.0]"))}
    accepted = (
        _zero_operator(ch),
        _zero_operator(ch, {0: "[1.5, -2.5]", last // 2: "[3e-300, 0.0]", last: "[0.0, 7.0]"}),
        _zero_operator(ch, {4: "[1.5, -2.5]", 5: "[-0.0, 1e308]", 6: "[5e-324, 0]"}),
        _zero_operator(ch, spelled),
    )
    for i, op in enumerate(accepted):
        at = 1 + i % (len(ops) - 1)
        text = head + ", ".join([*ops[:at], op, *ops[at + 1 :]]) + tail
        path.write_text(text, encoding="utf-8")
        want = ch.kraus.copy()
        want[at] = _json_operator(op, ch)
        if d == 3:  # at d = 8 only the edited operator is not writer text, so json reads just that
            assert np.array(json.loads(text)["kraus"]).view(complex).tobytes() == want.tobytes()
        back = channels.load_channel_json(path).kraus
        assert back.tobytes() == want.tobytes()
    assert np.signbit(back[at].real.ravel()[1]) and np.signbit(back[at].imag.ravel()[13])

    family = f'x {_ZERO}, {_ZERO}, "kraus": [[{_ZERO}, '
    assert _writer_parts(ch, family, path)[1] == ops
    loaded = channels.load_channel_json(path)
    assert loaded.label == f"{family}(json)"
    assert loaded.kraus.tobytes() == ch.kraus.tobytes()

    # after a zero run, each of these is no entry, or leaves the operator the wrong length
    no_entries = ("true", "null", f'"{_ZERO}"', f'"{_ZERO}, {_ZERO}, "', "[0.0, 0.0, 0.0]", "[0.0]")
    rejected = [_zero_operator(ch, {3: entry}) for entry in no_entries]
    few, many = _zero_operator(ch)[: -len(_ZERO) - 3] + "]", _zero_operator(ch)[:-1] + f", {_ZERO}]"
    rejected += [few, many, _zero_operator(ch)[:-1] + ", ]"]
    # one entry too few in one operator and too many in the next keep the file's entry count
    for edit in [[op] for op in rejected] + [[few, many]]:
        assert all(_json_operator(op, ch) is None for op in edit)
        text = head + ", ".join([ops[0], *edit, *ops[1 + len(edit) :]]) + tail
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            channels.load_channel_json(path)
    truncated = f"{head}{ops[0]}, {_zero_operator(ch)[: 1 + 5 * len(f'{_ZERO}, ') + 4]}"
    assert truncated.endswith(f"{_ZERO}, [0.0")
    path.write_text(truncated, encoding="utf-8")
    with pytest.raises(ValueError):
        json.loads(truncated)
    with pytest.raises(ValueError):
        channels.load_channel_json(path)


@pytest.mark.parametrize("d", [3, 8])
def test_loader_scatters_the_kept_entries_as_json_loads_reads_them(tmp_path, monkeypatch, d):
    # the walk keeps only the entries that are not the writer's zeros, with their flat indices,
    # and scatters them into a zeroed stack: its first and last index, an operator of zeros
    # and zeros spelled otherwise than by the writer must land bit for bit
    path = tmp_path / "channel.json"
    ch = grassmann_channel(d, 0.7)
    head, ops, tail = _writer_parts(ch, "grassmann", path)
    last_op, last = len(ops) - 1, ch.out_dim * ch.in_dim - 1
    edges = _zero_operator(ch, {0: "[1.5, -2.5]", last: "[-3e-300, 7.0]"})
    spelled = _zero_operator(ch, {0: "[0.0, -0.0]", 1: "[-0.0, 0.0]", last: "[0, 0.0]"})
    cases = (
        {0: edges, last_op: edges},
        {0: _zero_operator(ch), last_op: _zero_operator(ch)},
        {last_op // 2: _zero_operator(ch)},
        {0: spelled, last_op // 2: spelled, last_op: spelled},
    )
    texts = _loaded_texts(monkeypatch)
    for edits in cases:
        text = head + ", ".join(edits.get(i, op) for i, op in enumerate(ops)) + tail
        path.write_text(text, encoding="utf-8")
        texts.clear()
        back = channels.load_channel_json(path).kraus
        assert texts == [_less_kraus(text)]  # walked, not handed to json.loads whole
        assert back.tobytes() == np.array(json.loads(text)["kraus"]).view(complex).tobytes()
    assert np.signbit(back[0].ravel()[:2].view(float)).tolist() == [False, True, True, False]
    # the same stacks as the writer writes them
    kraus = np.zeros_like(ch.kraus)
    kraus[0].flat[0], kraus[-1].flat[-1] = 1.5 - 2.5j, -3e-300 + 7j
    kraus[1].flat[:2] = np.array([0.0, -0.0, -0.0, 0.0]).view(complex)
    for stack in (kraus, np.zeros_like(ch.kraus)):
        channels.dump_channel_json(channels.ChannelRep(stack), "sparse", d, 0.5, path)
        text = path.read_text(encoding="utf-8")
        back = channels.load_channel_json(path).kraus
        assert back.tobytes() == np.array(json.loads(text)["kraus"]).view(complex).tobytes()
        assert back.tobytes() == stack.tobytes()


def test_dump_writes_through_a_symlink_and_leaves_only_the_new_bytes(tmp_path):
    small, large = grassmann_channel(3, 0.4), grassmann_channel(8, 0.7)
    want = _reference_json(small, "grassmann", 3, 0.4).encode()
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    link.symlink_to(target)
    for path in (target, link):
        channels.dump_channel_json(large, "grassmann", 8, 0.7, target)  # a longer file first
        channels.dump_channel_json(small, "grassmann", 3, 0.4, path)
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == want


def _texts_with_entry(value):
    """Channel files with ``value`` in one Kraus entry, and the documents they came from.

    A d = 3 Grassmann channel and a dense (2, 5, 3) stack get it in either half
    of the first, middle and last entry of operator 1.  Each file is in the
    writer's form, which is walked, and indented and compact, which
    ``json.loads`` parses whole; the walk gives up on the dense operators, 15
    nonzero entries each, at their ninth entry, so those are decoded whole in
    every form.
    """
    rng = np.random.default_rng(5)
    dense = channels.ChannelRep(rng.standard_normal((2, 5, 3)) + 0j)
    for ch in (grassmann_channel(3, 0.4), dense):
        doc = json.loads(_reference_json(ch, "true", ch.in_dim, 0.5))
        last = ch.out_dim * ch.in_dim - 1
        for at, half in itertools.product((0, last // 2, last), (0, 1)):
            bad = copy.deepcopy(doc)
            bad["kraus"][1][at][half] = value
            compact = json.dumps(bad, separators=(",", ":"))
            for text in (json.dumps(bad), json.dumps(bad, indent=1), compact):
                yield ch, doc, text


def test_loader_rejects_bool_entries_in_every_operator_form(tmp_path):
    path = tmp_path / "channel.json"
    for literal in (True, False):
        for ch, doc, text in _texts_with_entry(literal):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match="must be JSON numbers"):
                channels.load_channel_json(path)
            # literals outside the Kraus list are no entries
            path.write_text(json.dumps(dict(doc, note=[True, False])), encoding="utf-8")
            assert channels.load_channel_json(path).kraus.tobytes() == ch.kraus.tobytes()


def test_loader_rejects_nonfinite_entries_in_every_operator_form(tmp_path):
    # "Infinity" and "NaN" are JSON numbers to the decoder: only the finiteness check refuses them
    path = tmp_path / "channel.json"
    for value in (math.inf, -math.inf, math.nan):
        for _, _, text in _texts_with_entry(value):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match="^Kraus entries must be finite$"):
                channels.load_channel_json(path)


def test_loader_reports_the_first_bad_operator_first(tmp_path):
    # a non-finite entry in operator 0 is reported before a bool in operator 1 or a bad size
    path = tmp_path / "channel.json"
    doc = json.loads(_reference_json(grassmann_channel(3, 0.4), "grassmann", 3, 0.4))
    cases = (
        ({0: math.nan, 1: True}, {}, "^Kraus entries must be finite$"),
        ({0: math.inf}, {"out_dim": 6}, "^Kraus entries must be finite$"),
        ({0: True, 1: math.nan}, {}, "must be JSON numbers"),
    )
    for entries, edit, message in cases:
        bad = copy.deepcopy(dict(doc, **edit))
        for op, value in entries.items():
            bad["kraus"][op][0][0] = value
        for indent in (None, 1):  # the writer's layout, then one that json.loads parses whole
            path.write_text(json.dumps(bad, indent=indent), encoding="utf-8")
            with pytest.raises(ValueError, match=message):
                channels.load_channel_json(path)


_ENTRY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 7), st.integers(1, 3)),
    indent=st.sampled_from([None, 0, 1, 2, "\t", " \r"]),
    separators=st.sampled_from([(", ", ": "), (",", ":"), (" ,\n", " : "), (",\t", ":")]),
)
def test_loader_reads_sparse_stacks_as_json_loads(tmp_path, data, shape, indent, separators):
    size = math.prod(shape)
    nonzero = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    entries = st.tuples(_ENTRY_VALUES, _ENTRY_VALUES)
    values = data.draw(st.lists(entries, min_size=size, max_size=size))
    pairs = np.array([pair if keep else (0.0, 0.0) for keep, pair in zip(nonzero, values)])
    ch = channels.ChannelRep(pairs.view(complex).reshape(shape))
    path = tmp_path / "channel.json"
    channels.dump_channel_json(ch, "sparse", shape[2], 0.5, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    copy = json.dumps(doc, indent=indent, separators=separators)
    for text in (path.read_text(encoding="utf-8"), copy):
        path.write_text(text, encoding="utf-8")
        want = np.array(json.loads(text)["kraus"], dtype=float).view(complex)
        assert channels.load_channel_json(path).kraus.tobytes() == want.tobytes()
    assert want.tobytes() == ch.kraus.tobytes()


def _decoded(monkeypatch) -> list:
    """Record each (value, character count) that ``json.JSONDecoder.raw_decode`` returns."""
    decoded, raw_decode = [], json.JSONDecoder.raw_decode

    def counted(self, s, idx=0):
        value, end = raw_decode(self, s, idx)
        decoded.append((value, end - idx))
        return value, end

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counted)
    return decoded


def test_loader_counts_the_writer_zero_entries_without_decoding_them(tmp_path, monkeypatch):
    path = tmp_path / "channel.json"
    ch = grassmann_channel(8, 0.7)
    channels.dump_channel_json(ch, "grassmann", 8, 0.7, path)
    decoded = _decoded(monkeypatch)
    assert channels.load_channel_json(path).kraus.tobytes() == ch.kraus.tobytes()
    # json decodes the nonzero entries, each operator's last entry and the top-level values
    assert sum(n for _, n in decoded) <= 0.05 * len(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("d", range(1, 9))
def test_loader_walks_every_operator_of_a_writer_file(tmp_path, monkeypatch, d):
    path = tmp_path / "channel.json"
    decoded = _decoded(monkeypatch)
    for r in (0.0, 0.3, math.pi / 4, 1.2, 1.5707):
        for ch in (grassmann_channel(d, r), complementary_channel(d, r)):
            channels.dump_channel_json(ch, ch.label, d, r, path)
            decoded.clear()
            assert channels.load_channel_json(path).kraus.tobytes() == ch.kraus.tobytes()
            # an operator decoded whole is a list of [re, im] lists; an entry or a block is not
            assert not [op for op, _ in decoded if type(op) is list and op and type(op[0]) is list]


def _loaded_texts(monkeypatch) -> list:
    """Record each text that ``json.loads`` is handed."""
    texts, loads = [], json.loads

    def recorded(s, *args, **kwargs):
        texts.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", recorded)
    return texts


def _less_kraus(text: str) -> str:
    """A writer file less its Kraus list, as the two-object array the loader decodes."""
    head, tail = text[: text.index(', "kraus": [')], text[text.rindex('], "blocks": ') + 3 :]
    return "[" + head + "}, {" + tail + "]"


@pytest.mark.parametrize("d", range(1, 9))
def test_loader_hands_only_the_head_of_a_writer_file_to_json_loads(tmp_path, monkeypatch, d):
    # the head and the blocks, the file less its Kraus list, for sparse and dense operators alike
    path = tmp_path / "channel.json"
    rng = np.random.default_rng(d)
    dense = channels.ChannelRep(rng.standard_normal((3, 4, d, 2)).view(complex)[..., 0])
    built = [grassmann_channel(d, 0.7), complementary_channel(d, 1.2), grassmann_block(d, d), dense]
    built += [werner_holevo(d)] if d > 1 else []
    texts = _loaded_texts(monkeypatch)
    for ch in built:
        channels.dump_channel_json(ch, ch.label, d, 0.5, path)
        texts.clear()
        assert channels.load_channel_json(path).kraus.tobytes() == ch.kraus.tobytes()
        assert texts == [_less_kraus(path.read_text(encoding="utf-8"))], ch.label


def test_loader_hands_every_other_layout_to_json_loads_whole(tmp_path, monkeypatch):
    path = tmp_path / "channel.json"
    ch = grassmann_channel(4, 0.7)
    doc = json.loads(_reference_json(ch, "grassmann", 4, 0.7))
    texts = _loaded_texts(monkeypatch)
    copies = (json.dumps(doc, indent=1), json.dumps(doc, separators=(",", ":")))
    for text in (*copies, json.dumps(doc, indent=" \t\r")):
        path.write_text(text, encoding="utf-8")
        texts.clear()
        back = channels.load_channel_json(path)
        assert texts == [path.read_text(encoding="utf-8")]  # "\r" reads back as "\n"
        assert back.kraus.tobytes() == np.array(doc["kraus"]).view(complex).tobytes()
        assert back.kraus.tobytes() == ch.kraus.tobytes() and back.blocks == ch.blocks


def test_loader_reads_the_writer_layout_as_json_loads_does(tmp_path, monkeypatch):
    path = tmp_path / "channel.json"
    ch = grassmann_channel(3, 0.4)
    family = 'x ], "blocks": [], "kraus": [[[1.0, 2.0]]] y'
    channels.dump_channel_json(ch, family, 3, 0.4, path)
    text = path.read_text(encoding="utf-8")
    texts = _loaded_texts(monkeypatch)
    back = channels.load_channel_json(path)
    assert back.kraus.tobytes() == ch.kraus.tobytes() and back.blocks == ch.blocks
    assert back.label == f"{family}(json)" and texts == [_less_kraus(text)]
    # a "kraus" key after the blocks wins, as in json.loads
    path.write_text(text[: text.rindex("}")] + ', "kraus": null}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="need one or more Kraus operators"):
        channels.load_channel_json(path)
    # so does one after a first Kraus list with a bad operator
    first = '[[[true, 0.0]]], "kraus": [[[0.0, 0.0], '
    path.write_text(text.replace("[[[0.0, 0.0], ", first, 1), encoding="utf-8")
    assert channels.load_channel_json(path).kraus.tobytes() == ch.kraus.tobytes()
    # a writer file of dense operators reads as json.loads of its text
    kraus = np.random.default_rng(3).standard_normal((3, 5, 3, 2)).view(complex)[..., 0]
    dense = channels.ChannelRep(kraus, [channels.Block(1, 0.25, 2), channels.Block(2, 0.75, 3)])
    channels.dump_channel_json(dense, family, 3, 0.4, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    back = channels.load_channel_json(path)
    assert back.kraus.tobytes() == np.array(doc["kraus"]).view(complex).tobytes()
    assert back.kraus.tobytes() == dense.kraus.tobytes() and back.label == f"{doc['family']}(json)"
    assert back.blocks == [channels.Block(**b) for b in doc["blocks"]] == dense.blocks


def test_loader_reads_a_kraus_list_nested_in_the_head_or_blocks_as_json_loads_does(tmp_path):
    # the file less such a list is a channel document, but the file itself has no Kraus list
    path = tmp_path / "channel.json"
    ops = ', "kraus": [[[1.0, 0.0]]], "blocks": '
    head = '{"family": "f", "d": 1, "r": 0.0, "in_dim": 1, "out_dim": 1'
    rest = ', "d": 1, "r": 0.0, "in_dim": 1, "out_dim": 1, "blocks": []}'
    for text in (
        '{"family": {"a": 1' + ops + "2}" + rest,
        head + ', "blocks": [{"k": 1, "weight": 1.0, "dim": 1' + ops + "2}]}",
    ):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"lacks the keys \['kraus'\]"):
            channels.load_channel_json(path)
    path.write_text(head + ops + "[]}", encoding="utf-8")
    assert channels.load_channel_json(path).kraus.tobytes() == np.ones((1, 1, 1), complex).tobytes()


def test_dump_writes_numpy_scalar_arguments_as_their_python_values(tmp_path):
    path = tmp_path / "channel.json"
    ch = grassmann_channel(np.int64(3), 0.4)
    for d, r in ((np.int64(3), np.float64(0.4)), (np.uint8(3), np.int64(0))):  # an int r stays 0
        channels.dump_channel_json(ch, "grassmann", d, r, path)
        assert path.read_bytes() == _reference_json(ch, "grassmann", d.item(), r.item()).encode()
    channels.dump_channel_json(ch, "grassmann", np.int64(3), np.float32(0.4), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert (doc["d"], doc["r"]) == (3, float(np.float32(0.4)))
    blocks = [channels.Block(np.int64(k), np.float32(w), np.int64(dim)) for k, w, dim in ch.blocks]
    channels.dump_channel_json(channels.ChannelRep(ch.kraus, blocks), "grassmann", 3, 0.4, path)
    back = channels.load_channel_json(path)
    assert back.kraus.tobytes() == ch.kraus.tobytes()
    assert back.blocks == [channels.Block(b.k, float(b.weight), b.dim) for b in blocks]
    assert all(type(n) is int for b in back.blocks for n in (b.k, b.dim))


def test_loader_raises_on_a_bad_operator_of_a_writer_file(tmp_path):
    path = tmp_path / "channel.json"
    ch = grassmann_channel(3, 0.4)
    channels.dump_channel_json(ch, "grassmann", 3, 0.4, path)
    text = path.read_text(encoding="utf-8")
    entry = ", [0.0, 0.0]], [[0.0, 0.0], "  # the end of operator 0 and the start of operator 1
    assert entry in text
    edits = (
        ("[true, 0.0]", "must be JSON numbers"),
        ('[0.0, "0.0"]', "must be JSON numbers"),
        ("[0.0]", "list of \\[re, im\\] pairs"),
        ("[0.0, 0.0], [0.0, 0.0]", "list of \\[re, im\\] pairs"),
    )
    for bad, message in edits:
        path.write_text(text.replace(entry, f", [0.0, 0.0]], [{bad}, ", 1), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            channels.load_channel_json(path)


def test_loader_raises_on_a_bad_writer_file_as_on_its_indented_copy(tmp_path):
    path = tmp_path / "channel.json"
    doc = json.loads(_reference_json(grassmann_channel(3, 0.4), "grassmann", 3, 0.4))
    edits = (
        {"kraus": [[]]},
        {"in_dim": 0, "out_dim": 0, "kraus": [[]]},  # the dims are checked before the operators
        {"in_dim": 0, "kraus": [doc["kraus"][0], [[True, 0.0]] * 21]},
        {"kraus": [doc["kraus"][0], doc["kraus"][1][1:]]},
    )
    for edit in edits:
        messages = []
        for indent in (None, 1):  # the writer's layout, then one that json.loads parses whole
            path.write_text(json.dumps(dict(doc, **edit), indent=indent), encoding="utf-8")
            with pytest.raises(ValueError) as raised:
                channels.load_channel_json(path)
            messages.append(str(raised.value))
        assert messages[0] == messages[1], edit


_KRAUS_TEXT = channels._kraus_text


def _fail_after_one_operator(kraus):
    yield next(_KRAUS_TEXT(kraus))
    raise RuntimeError("formatting failed")


def test_a_failed_dump_leaves_no_file(tmp_path, monkeypatch):
    path = tmp_path / "channel.json"
    ch = grassmann_channel(3, 0.4)

    def fail(*args, **kwargs):
        raise RuntimeError("formatting failed")

    patches = ((channels, "_kraus_text", _fail_after_one_operator), (json, "dumps", fail))
    for owner, name, patch in patches:
        with monkeypatch.context() as m:
            m.setattr(owner, name, patch)
            with pytest.raises(RuntimeError, match="formatting failed"):
                channels.dump_channel_json(ch, "grassmann", 3, 0.4, path)
        assert not path.exists()
    channels.dump_channel_json(ch, "grassmann", 3, 0.4, path)
    assert path.read_text() == _reference_json(ch, "grassmann", 3, 0.4)


def test_a_failed_dump_removes_no_symlink_fifo_or_pipe(tmp_path, monkeypatch):
    ch = grassmann_channel(3, 0.4)
    monkeypatch.setattr(channels, "_kraus_text", _fail_after_one_operator)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old", encoding="utf-8")
    link.symlink_to(target)
    with pytest.raises(RuntimeError, match="formatting failed"):
        channels.dump_channel_json(ch, "grassmann", 3, 0.4, link)
    assert link.is_symlink() and link.resolve() == target.resolve() and target.is_file()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the dump's open does not block
    try:
        with pytest.raises(RuntimeError, match="formatting failed"):
            channels.dump_channel_json(ch, "grassmann", 3, 0.4, fifo)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    # a link to the write end of a pipe whose read end is closed, as "--out /dev/stdout | head"
    read, write = os.pipe()
    os.close(read)
    pipe = tmp_path / "pipe"
    pipe.symlink_to(f"/proc/self/fd/{write}")
    try:
        with pytest.raises(BrokenPipeError):
            channels.dump_channel_json(ch, "grassmann", 3, 0.4, pipe)
    finally:
        os.close(write)
    assert pipe.is_symlink()
