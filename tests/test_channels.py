"""Channel construction: Kraus sets, blocks, complements, reference channels."""

import gc
import json
import math

import numpy as np
import pytest

from grasschan import capacity, channels, fock
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
from helpers import erasure_channel


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
    expected = capacity.block_weights(d, r).p
    for _ in range(5):
        out = apply_kraus(ch.kraus, _random_pure(d, rng))
        for sl, p_k in zip(_sector_slices(d), expected):
            assert abs(np.trace(out[sl, sl]).real - p_k) < 1e-12


@pytest.mark.parametrize("d", range(2, 7))
def test_flat_block_spectra(d):
    # inside sector k every nonzero eigenvalue equals 1/C(d-1,k-1)
    rng = np.random.default_rng(d + 100)
    ch = grassmann_channel(d, 0.8)
    weights = capacity.block_weights(d, 0.8).p
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
    p2 = capacity.block_weights(3, r).p[1]
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
        p_k = capacity.block_weights(d, r).p[k - 1]
        rho = _random_pure(d, rng)
        sector = apply_kraus(ch.kraus, rho)[sl, sl]
        assert np.linalg.norm(sector - p_k * apply_kraus(block.kraus, rho)) < 1e-12


def _channel_bytes(d, r):
    chans = (grassmann_channel(d, r), complementary_channel(d, r))
    chans += tuple(grassmann_block(d, k) for k in range(1, d + 1))
    return [(ch.kraus.shape, ch.kraus.tobytes(), ch.blocks, ch.label) for ch in chans]


@pytest.mark.parametrize("d", [1, 3, 6])
def test_pair_sectors_cache_is_shared_and_read_only(d):
    channels._pair_sectors.cache_clear()
    fresh = _channel_bytes(d, 0.7)
    channels._pair_sectors.cache_clear()
    _channel_bytes(d, 0.2)  # fills the cache at another r
    sectors = channels._pair_sectors(d)
    again = channels._pair_sectors(d)
    assert isinstance(sectors, tuple) and len(sectors) == d
    assert again is sectors
    for sector in sectors:
        with pytest.raises(ValueError):
            sector[0, 0, 0] = 2.0
    assert _channel_bytes(d, 0.7) == fresh


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
    weights = capacity.block_weights(d, r)
    assert [b.k for b in ch.blocks] == [3, 2, 1]
    assert [b.dim for b in ch.blocks] == [1, 3, 3]
    for b in ch.blocks:
        assert abs(b.weight - weights.p_tilde[b.k - 1]) < 1e-15
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
    """Forward and complementary Kraus sets split from the isometry columns."""
    a_codes = [c for k in range(1, d + 1) for c in fock.sector_codes(d, k)]
    c_codes = [c for j in range(d) for c in fock.sector_codes(d, j)]
    a_row = {c: n for n, c in enumerate(a_codes)}
    c_row = {c: n for n, c in enumerate(c_codes)}
    fwd = {c: np.zeros((len(a_codes), d), dtype=complex) for c in c_codes}
    comp = {a: np.zeros((len(c_codes), d), dtype=complex) for a in a_codes}
    for i in range(d):
        for code, amp in fock.isometry_apply(d, r, np.eye(d)[i]).amplitudes.items():
            a, c = code >> d, code & ((1 << d) - 1)
            fwd[c][a_row[a], i] = amp
            comp[a][c_row[c], i] = amp
    return [[op for op in ops.values() if np.any(op)] for ops in (fwd, comp)]


@pytest.mark.parametrize("r", [0.0, 0.3, math.pi / 4, 1.2, 1.5707])
@pytest.mark.parametrize("d", range(1, 9))
def test_kraus_sets_match_isometry_apply(d, r):
    built = (grassmann_channel(d, r), complementary_channel(d, r))
    for ch, reference in zip(built, _isometry_kraus(d, r)):
        assert len(ch.kraus) == len(reference)
        for op, ref in zip(ch.kraus, reference):
            assert op.shape == ref.shape
            assert np.array_equal(op != 0, ref != 0)
            assert np.all(np.abs(op - ref) <= 5e-16 * np.abs(ref))


def _scanned_stacks(d, r):
    """Forward and complement stacks by a full scan: every sector placed, zero operators dropped."""
    n = (1 << d) - 1
    full = np.zeros((n, n, d), dtype=complex)
    c_row = a_row = 0
    for amp, sector in zip(channels._sector_amplitudes(d, r), channels._pair_sectors(d)):
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
        return [channels.ChannelRep(3, 4, np.linalg.qr(g)[0].reshape(3, 4, 3))]
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


def test_kraus_stack_shape_and_json_operator_size(tmp_path):
    with pytest.raises(PreconditionError):
        channels.ChannelRep(2, 3, np.zeros((1, 2, 3)))
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
    ident = channels.ChannelRep(3, 3, [np.eye(3, dtype=complex)], None, "identity")
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
    cases = (
        (werner_holevo(4), "werner-holevo", 4, 0.0),
        (erasure_channel(0.3), "erasure", 2, 0.3),
        (channels.ChannelRep(3, 5, dense), "dense", 3, 0.1),
        (channels.ChannelRep(1, 2, odd.view(complex).reshape(2, 2, 1)), "odd", 1, 0.5),
        (channels.ChannelRep(2, 3, dense[:2, :3, :2], blocks=[]), "no-blocks", 2, 0.2),
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
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    for ch in (
        grassmann_channel(8, 0.7),
        complementary_channel(8, 1.2),
        channels.ChannelRep(1, 3, signed),
        channels.ChannelRep(2, 3, dense),
    ):
        _assert_bitwise_roundtrip(tmp_path / "channel.json", ch)


def test_json_roundtrip_is_bitwise_for_every_family(tmp_path):
    builds = (grassmann_channel, complementary_channel)
    family = [build(d, r) for d in range(1, 8) for r in (0.0, 0.7, 1.2) for build in builds]
    family += [grassmann_block(d, k) for d in (1, 4, 7) for k in range(1, d + 1)]
    family += [werner_holevo(d) for d in (2, 3, 5)] + [erasure_channel(p) for p in (0.0, 0.3, 1.0)]
    for ch in family:
        _assert_bitwise_roundtrip(tmp_path / "channel.json", ch)
