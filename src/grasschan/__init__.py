"""Grassmann quantum channels: construction, capacities, verification."""

import importlib

from . import capacity
from .errors import ConvergenceError, DomainError, PreconditionError

__version__ = "0.1.0"

__all__ = [
    "capacity",
    "channels",
    "fock",
    "verify",
    "ConvergenceError",
    "DomainError",
    "PreconditionError",
]


def __getattr__(name):
    # PEP 562: these load on first access, as the capacity and sweep commands use none of them
    if name in ("channels", "fock", "verify"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
