"""Exception hierarchy shared by all modules."""


class PmcmcLabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(PmcmcLabError):
    """Model tables are inconsistent with the declared horizon or alphabet."""


class NonStochasticRow(PmcmcLabError):
    """A transition row does not form a probability vector."""


class NegativePotential(PmcmcLabError):
    """A potential table contains a negative entry."""


class ZeroPotential(PmcmcLabError):
    """A potential vanishes where a strictly positive value is required."""


class PathSpaceTooLarge(PmcmcLabError):
    """Exact path enumeration would exceed the configured guard."""


class IndexOutOfRange(PmcmcLabError):
    """An index (time, state, particle slot or stream coordinate) falls
    outside its valid range."""


class AllWeightsZero(PmcmcLabError):
    """Every resampling weight is zero at some time step."""

    def __init__(self, message: str = "all weights are zero", time: int | None = None):
        self.time = time
        if time is not None:
            message = f"{message} (time {time})"
        super().__init__(message)


class DegenerateEstimate(PmcmcLabError):
    """A normalizing-constant estimate is zero (some slice had no mass)."""


class ZeroPinnedPotential(PmcmcLabError):
    """The retained trajectory carries zero potential at some time."""


class ZeroPathMass(PmcmcLabError):
    """A path carries zero mass under every parameter value of a joint model."""


class LineageClash(PmcmcLabError):
    """Two pinned trajectories demand the same particle slot with different states."""


class OutcomeSpaceTooLarge(PmcmcLabError):
    """Exact enumeration of the particle system would exceed the guard."""


class StateSpaceTooLarge(PmcmcLabError):
    """The joint parameter/path state space is too large to enumerate."""


class NotReversible(PmcmcLabError):
    """Detailed balance fails beyond tolerance for a kernel that must be reversible."""


class SingularSolve(PmcmcLabError):
    """A linear solve on the mean-zero subspace is singular (non-ergodic chain)."""


class EpsilonOutOfRange(PmcmcLabError):
    """A minorization constant left (0, 1]; indicates an internal inconsistency."""


class ZeroTransitionOverlap(PmcmcLabError):
    """Two transition rows have disjoint support, so no finite overlap ratio exists."""


class DegenerateB(PmcmcLabError):
    """All conditional laws are point masses; the weighted-gap problem is void."""


class TraceTooShort(PmcmcLabError):
    """A chain trace has too few iterations for the requested batch count."""


class ConfigError(PmcmcLabError):
    """An experiment configuration file is missing or invalid."""


class AssertionFailure(PmcmcLabError):
    """An inequality-check suite found a violation.

    Carries the name of the inequality and the witness function index.
    """

    def __init__(self, inequality: str, witness=None, violation: float | None = None):
        self.inequality = inequality
        self.witness = witness
        self.violation = violation
        msg = f"violated inequality: {inequality}"
        if witness is not None:
            msg += f" (witness {witness})"
        if violation is not None:
            msg += f" (violation {violation:.3e})"
        super().__init__(msg)
