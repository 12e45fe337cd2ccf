"""Exception types shared across the package: one per exit code of the CLI.

``InvalidInputError`` is every refusal (exit 2): a malformed file, an
inconsistent flag, a model or argument outside its domain, or a regime whose
hypotheses these inputs do not meet.  ``InternalConsistencyError`` is a
failed cross-check (exit 3).
"""


class InvalidInputError(ValueError):
    """The inputs are refused: the message says which requirement they miss."""


class InternalConsistencyError(RuntimeError):
    """A cross-check between two independent computations failed."""


class HillOrderError(InternalConsistencyError):
    """Scalar fiber levels out of the discrete Hill order; ``channel`` is the failing row of the solved stack."""

    def __init__(self, message: str, channel: int) -> None:
        super().__init__(message)
        self.channel = channel
