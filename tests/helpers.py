"""Reference channels, sector tensors and random inputs that only the tests use."""

import functools
import math

import numpy as np

from grasschan import fock
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
