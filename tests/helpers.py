"""Reference channels, sector tensors, second closed forms and random inputs for the tests."""

import functools
import math

import numpy as np

from grasschan import channels, fock
from grasschan.capacity import _binomial_logpmf, block_weights, degrading_weights, log_base_value
from grasschan.channels import ChannelRep, _nonzero_ops
from grasschan.errors import DomainError


def erasure_channel(p: float) -> ChannelRep:
    """Qubit-to-qutrit erasure: (1-p) psi directed-sum p |f><f|."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"erasure probability p={p} outside [0, 1]")
    kraus = np.zeros((3, 3, 2), dtype=complex)
    kraus[0, 0, 0] = kraus[0, 1, 1] = math.sqrt(1.0 - p)  # keep
    kraus[1, 2, 0] = kraus[2, 2, 1] = math.sqrt(p)  # flag either rail
    return ChannelRep(_nonzero_ops(kraus), label=f"erasure(p={p:.12g})")


def q_w_form_a(d: int, w: float, base="d") -> float:
    """Quantum capacity at w = tan^2 r, unclamped, by a second form of the w-rewrite.

    (1/d) (1+w)^-(d-1) sum_k k C(d,k) log k (w^(d-k) - w^(k-1)), with P the
    Binomial(d, w/(1+w)) pmf: C(d,k) w^(d-k) = (1+w)^d P[d-k] and
    k C(d,k) w^(k-1) = (1+w)^d (d-k+1) P[k-1].  It shares only the binomial
    kernel with ``quantum_capacity_grassmann_w``, which sums over the
    Binomial(d-1, w/(1+w)) pmf.
    """
    k = np.arange(1, d + 1)
    pmf = np.exp(_binomial_logpmf(k - 1, d, w / (1.0 + w), 1.0 / (1.0 + w)))
    s = np.log(k) @ (k * pmf[::-1] - (d + 1 - k) * pmf)
    return float(s) * (1.0 + w) / d / math.log(log_base_value(base, d))


def classical_three_term(d: int, r: float, base="d") -> float:
    """Classical capacity, unclamped, as sum_k p_k [log C(d,k) - log C(d-1,k-1)].

    This is the three-term expression H({p_k}) + sum_k p_k log C(d,k) - H(pure-input
    output) after its H({p_k}) terms cancel, where the output entropy uses the
    flat sector spectra (eigenvalue 1/C(d-1,k-1) with multiplicity C(d-1,k-1)
    inside sector k).  ``classical_capacity_grassmann`` evaluates log d - sum_k p_k log k.
    The two log binomials each carry about d log 2 and cancel, so this form's error grows
    like d times the unit roundoff: 1.7e-10 at d = 10^6 in base 2, past the 1e-10 it is
    compared at, which is why the property test stops at d = 10^4.
    """
    p = block_weights(d, r)
    lb = math.log(log_base_value(base, d))
    k = np.arange(1, d + 1)
    # log C(n, x) = log Binomial(n, 1/2) pmf + n log 2
    sector_term = (p @ (_binomial_logpmf(k, d, 0.5, 0.5) + d * math.log(2))) / lb
    flat_entropy = _binomial_logpmf(k - 1, d - 1, 0.5, 0.5) + (d - 1) * math.log(2)
    return float(sector_term - (p @ flat_entropy) / lb)


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@functools.lru_cache(maxsize=None)
def pair_sectors(d: int) -> tuple[np.ndarray, ...]:
    """Sector tensors of the unit pair state a_i^dag exp(sum_j a_j^dag c_j^dag)|vac>, by ladders.

    Tensor k - 1 is its part with k fermions in A and k - 1 in C, with entries
    [A code, C code, rail] in ``fock.sector_codes`` order.  Every sign comes from
    ``fock``'s ladder applications, none from the rule that ``channels`` lists
    its sector nonzeros by.  Cached per d, so the tensors are read-only.
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


def intertwiner_solve(a_maps, b_maps) -> np.ndarray:
    """Unitary V with V A_t = B_t V for all t, via a Kronecker nullspace and a polar step.

    Row-major, V A_t - B_t V = 0 reads (I kron A_t^T - B_t kron I) vec(V) = 0;
    the system stacks these over t, and its right singular vector of least
    singular value, made unitary by a polar step, is V.  Where A_t and B_t are
    both diagonal, equation (p, q) reads V[p, q] (A_t[q, q] - B_t[p, p]) = 0, so
    the entries whose diagonals differ vanish and only the rest are solved for:
    the full system at d = 8 would take 24 GB.  Rows that are zero over the
    remaining entries are dropped.  The nullspace must be one-dimensional.
    """
    a_maps, b_maps = np.asarray(a_maps), np.asarray(b_maps)
    n = a_maps.shape[1]
    free = np.ones((n, n), dtype=bool)
    for a, b in zip(a_maps, b_maps):
        a_diag, b_diag = np.diag(np.diagonal(a)), np.diag(np.diagonal(b))
        if np.array_equal(a, a_diag) and np.array_equal(b, b_diag):
            free &= np.abs(np.diagonal(b)[:, None] - np.diagonal(a)[None, :]) <= 1e-12
    p, q = np.nonzero(free)
    unknowns = np.arange(len(p))
    rows = []
    for a, b in zip(a_maps, b_maps):
        m = np.zeros((n, n, len(p)), dtype=complex)  # d(V A - B V)[p', q'] / dV[p, q]
        m[p, :, unknowns] = a[q]  # E_pq A is row q of A, put in row p
        m[:, q, unknowns] -= b[:, p]  # B E_pq is column p of B, put in column q
        m = m.reshape(n * n, len(p))
        rows.append(m[np.abs(m).max(axis=1) > 0])
    # zero rows up to one per unknown, so vh spans every unknown even if no row is left (d = 1)
    rows.append(np.zeros((max(len(p) - sum(map(len, rows)), 0), len(p))))
    _, s, vh = np.linalg.svd(np.vstack(rows), full_matrices=False)
    assert len(s) == 1 or s[-2] > 1e-6 * s[0], f"nullspace is not one-dimensional: {s[-2:]}"
    v = np.zeros((n, n), dtype=complex)
    v[p, q] = vh[-1].conj()
    u, _, wh = np.linalg.svd(v)
    return u @ wh


def sector_maps(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(T_k, L_k) as ``channels`` builds them, each a stack of d^2 matrices of side C(d, k).

    T_k is block map k's transfer matrix, and L_k that of the complement of block map
    d-k+1 (complement sector d - k); matrix t of a stack is the image of rail pair t.
    """
    n = math.comb(d, k)
    block = channels.grassmann_block(d, k)
    mirror = channels.complement_channel_rep(channels.grassmann_block(d, d - k + 1))
    maps = channels.transfer_matrix(block), channels.transfer_matrix(mirror)
    return tuple(t.reshape(n, n, d * d).transpose(2, 0, 1) for t in maps)


def degradable_reference(d: int, r: float, tol: float = 1e-9) -> dict:
    """The degrading-map solve of ``verify.check_degradable`` over the dense channel stacks.

    The same ansatz (X -> W X W^dag, plus for m = 2..d block map m fed by forward
    block 1 in rail order and divided by p_1), built as d_a^2 x d_a^2 Kronecker
    pieces (d_a = 2^d - 1) and solved against the dense complement's transfer
    matrix by one joint lstsq; the Choi matrix is the dense d_a d_c one.  Nothing is read
    from ``verify``: each V_k is ``intertwiner_solve``'s, whose phase per sector
    cancels in W X W^dag on block-diagonal outputs, in each piece's embedding and in the
    rank-one Choi term, and each T_k is built by ``channels``.  Returns
    ``q_solved``, ``solve_residual``, ``choi_min_eig``, ``weights_valid``,
    ``cp_ok`` and ``pass`` as the check reports them.  lstsq's rcond cut drops
    whole columns once q grows like tan^(2(d-1)) r, so near pi/2 it fails.
    """
    fwd, comp = channels.grassmann_channel(d, r), channels.complementary_channel(d, r)
    t_fwd, t_comp = channels.transfer_matrix(fwd), channels.transfer_matrix(comp)
    d_a, d_c = fwd.out_dim, comp.out_dim
    p_1 = block_weights(d, r)[0]
    a_rows, c_rows = channels.block_slices(fwd), channels.block_slices(comp)
    w_mat = np.zeros((d_c, d_a), dtype=complex)
    for k in range(1, d + 1):
        w_mat[c_rows[k], a_rows[k]] = intertwiner_solve(*sector_maps(d, k))
    r1 = np.zeros((d, d_a), dtype=complex)
    r1[:, a_rows[1]] = channels.rail_reversal(d)
    pieces = [np.kron(w_mat, w_mat.conj())]
    for m in range(2, d + 1):
        embed = w_mat[:, a_rows[m]]
        t_block = channels.transfer_matrix(channels.grassmann_block(d, m))
        pieces.append(np.kron(embed, embed.conj()) @ t_block @ np.kron(r1, r1) / p_1)
    columns = [(piece @ t_fwd).reshape(-1) for piece in pieces]
    a_mat = np.stack([np.concatenate([c.real, c.imag]) for c in columns], axis=1)
    b_vec = np.concatenate([t_comp.reshape(-1).real, t_comp.reshape(-1).imag])
    q_solved, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    scale = max(1.0, float(sum(abs(q) * np.linalg.norm(c) for q, c in zip(q_solved, columns))))
    residual = float(np.linalg.norm(a_mat @ q_solved - b_vec) / scale)
    t_map = sum(q * piece for q, piece in zip(q_solved, pieces))
    choi = t_map.reshape(d_c, d_c, d_a, d_a).transpose(2, 0, 3, 1).reshape(d_a * d_c, -1)
    min_eig = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min())
    valid, expected, cp_ok = degrading_weights(d, r).valid, r <= math.pi / 4 + 1e-12, min_eig >= -tol
    return {
        "q_solved": q_solved,
        "solve_residual": residual,
        "choi_min_eig": min_eig,
        "weights_valid": valid,
        "cp_ok": cp_ok,
        "pass": valid == expected and residual <= tol and cp_ok == expected,
    }
