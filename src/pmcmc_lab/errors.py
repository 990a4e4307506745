"""Exception hierarchy shared by all modules."""


class PmcmcLabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(PmcmcLabError):
    """Model tables are inconsistent with the declared horizon or alphabet."""


class NonStochasticRow(PmcmcLabError):
    """A transition row does not form a probability vector, or a kernel
    does not leave its stated stationary vector invariant."""


class NegativePotential(PmcmcLabError):
    """A potential table, or a vector of resampling weights, contains a
    negative entry."""


class ZeroPotential(PmcmcLabError):
    """A potential vanishes where a strictly positive value is required."""


class PathSpaceTooLarge(PmcmcLabError):
    """Exact path enumeration would exceed the configured guard."""


class IndexOutOfRange(PmcmcLabError):
    """An index falls outside its valid range: a time, a stream coordinate,
    a pinned path's slot (outside [0, N)) or state (outside the alphabet,
    negatives included), or a path or state an enumeration does not hold."""


class AllWeightsZero(PmcmcLabError):
    """Every resampling weight is zero at some time step."""

    def __init__(self, message: str = "all weights are zero", time: int | None = None):
        self.time = time
        if time is not None:
            message = f"{message} (time {time})"
        super().__init__(message)


class ZeroPinnedPotential(PmcmcLabError):
    """A pinned path carries zero potential at some time under its
    replicate's model, so no pass can keep it."""


class TooFewParticles(PmcmcLabError):
    """A particle count is below what the pass or bound needs (N >= 1 for a
    pass, N >= 2 for the minorization constants, count >= 0 for a resampling
    draw)."""


class ConstantOutOfRange(PmcmcLabError):
    """A constant passed to a bound lies outside the range its definition
    gives it (alpha >= 1, a normalised weight supremum >= 1, an estimate's
    supremum >= gamma_T > 0, a schedule slope C > 0, a horizon T >= 1, the
    argument of Lambert W >= -1/e); NaN lies outside every range."""


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


class ZeroStationaryMass(PmcmcLabError):
    """A chain's stationary vector has a zero entry where an analysis
    divides by it (spectral summaries, the exact minorization constant)."""


class SingularSolve(PmcmcLabError):
    """A linear solve on the mean-zero subspace is singular (non-ergodic chain)."""


class EpsilonOutOfRange(PmcmcLabError):
    """A minorization constant left (0, 1]; indicates an internal inconsistency."""


class ZeroTransitionOverlap(PmcmcLabError):
    """Two transition rows have disjoint support, so no finite overlap ratio exists."""


class DegenerateB(PmcmcLabError):
    """All conditional laws are point masses; the weighted-gap problem is void."""


class TraceTooShort(PmcmcLabError):
    """A chain run or trace is too short for what is asked of it: a negative
    step count or curve length, an acceptance rate over no rows or steps, or
    fewer than two batches of two values for a batch-means variance."""


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
