"""Exception hierarchy shared by all subnyq modules."""


class SubnyqError(Exception):
    """Base class for all subnyq errors."""


class ConfigError(SubnyqError):
    """Invalid scenario / sweep / geometry configuration."""


class EstimationError(SubnyqError):
    """A pipeline step failed; `step` identifies which one."""

    def __init__(self, message: str, step: str | None = None):
        super().__init__(message)
        self.step = step


class PeakCountError(EstimationError):
    """The phase search found fewer noise-subspace cost minima than
    requested sources."""

    def __init__(self, message: str, found: int, wanted: int, step: str | None = None):
        super().__init__(message, step=step)
        self.found = found
        self.wanted = wanted


class RankDeficiencyError(EstimationError):
    """Least-squares system is numerically rank deficient."""


class EmptySupportError(EstimationError):
    """Support recovery was given a covariance with no energy: no positive
    eigenvalue to build a support from."""
