"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """An input violates a stated precondition (e.g. an unnormalized state)."""


class ConvergenceError(RuntimeError):
    """A truncated series failed to certify its tolerance within the cap.

    The best partial value is attached as ``partial``.
    """

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial
