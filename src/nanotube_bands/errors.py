"""Exception types shared across the package."""


class InvalidModelError(ValueError):
    """Model parameters violate a structural requirement (e.g. N < 2)."""


class InvalidInputError(ValueError):
    """Bad user-supplied data: malformed potential file, inconsistent flags."""


class InvalidParameterError(ValueError):
    """A numeric argument is outside its admissible domain (e.g. |tau| != 1)."""


class FlatBandChannelError(ValueError):
    """Transfer-matrix machinery was applied to a channel with a vanishing hopping."""


class NotApplicableError(ValueError):
    """An asymptotic predictor's hypotheses are not met for these inputs."""


class InvalidTruncationError(ValueError):
    """Finite axial length incompatible with the potential period."""


class InternalConsistencyError(RuntimeError):
    """A cross-check between two independent computations failed."""


class HillOrderError(InternalConsistencyError):
    """Scalar fiber levels out of the discrete Hill order; ``channel`` is the failing row of the solved stack."""

    def __init__(self, message: str, channel: int) -> None:
        super().__init__(message)
        self.channel = channel
