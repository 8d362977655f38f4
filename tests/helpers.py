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
    return ChannelRep(2, 3, _nonzero_ops(kraus), None, label=f"erasure(p={p:.12g})")


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
