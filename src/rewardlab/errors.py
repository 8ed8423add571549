"""Exception types shared across the workbench.

Every contract violation raises one of these rather than a bare
ValueError, so callers (and tests) can tell input bugs apart from
numerical trouble.
"""


class RewardLabError(Exception):
    """Base class for all workbench errors."""


class ZeroVectorError(RewardLabError):
    """Vector too close to zero to normalize."""


class NonPositiveTemperatureError(RewardLabError):
    """Softmax temperature must be > 0."""


class NonFiniteValueError(RewardLabError):
    """A function produced NaN or infinity."""


class ShapeMismatchError(RewardLabError):
    """Array shape does not match the declared layout."""


class UnknownTaskError(RewardLabError):
    """Task id is not registered."""


class BadClusterIndexError(RewardLabError):
    """Cluster index outside [0, K)."""


class EmptyPositiveSetError(RewardLabError):
    """A contrastive anchor has no positive sample."""


class MissingFailureTextsError(RewardLabError):
    """Failure-negative mode requested for a task without a prompt pool."""


class TooFewSamplesError(RewardLabError):
    """Fewer samples than clusters."""


class BadConfigError(RewardLabError):
    """Invalid or inconsistent configuration."""


class ArchetypeUnsupportedError(RewardLabError):
    """Requested failure archetype cannot be realized for this task."""


class CorruptFileError(RewardLabError):
    """File ended early or failed to parse."""


class VersionMismatchError(RewardLabError):
    """File header declares an unsupported format version."""


class BadHorizonError(RewardLabError):
    """Action sequence length is not divisible into chunks."""


class InsufficientDataError(RewardLabError):
    """Not enough transitions to fit a model."""


class InsufficientStratumError(RewardLabError):
    """Dataset stratum too small for the requested batch."""


class OneClassOnlyError(RewardLabError):
    """Separation metrics need both successes and failures."""


class EmptyReportError(RewardLabError):
    """A summary was asked of a report with no entries."""


class GenerationFailedError(RewardLabError):
    """A scripted rollout did not realize its requested label in any attempt."""


class RefinementRegressedError(RewardLabError):
    """CEM refinement returned a plan scoring below the one it started from."""
