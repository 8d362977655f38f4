"""Grassmann quantum channels: construction, capacities, verification."""

import importlib

from . import capacity, channels, fock
from .errors import ConsistencyError, ConvergenceError, DomainError, PreconditionError

__version__ = "0.1.0"

__all__ = [
    "capacity",
    "channels",
    "fock",
    "verify",
    "ConsistencyError",
    "ConvergenceError",
    "DomainError",
    "PreconditionError",
]


def __getattr__(name):
    # verify loads on first use: the capacity, sweep and dump-channel commands never call it
    if name == "verify":
        return importlib.import_module(f"{__name__}.verify")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
