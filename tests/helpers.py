"""Reference channels and random inputs that only the tests use."""

import math

import numpy as np

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
