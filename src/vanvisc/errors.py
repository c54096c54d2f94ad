"""Exception types raised by the library contracts."""


class VanviscError(Exception):
    """Base class for all library errors."""


# system
class NonHyperbolic(VanviscError):
    pass


class OutOfDomain(VanviscError):
    pass


class BadParameter(VanviscError):
    pass


class GNLViolation(VanviscError):
    pass


# riemann
class NoRoot(VanviscError):
    pass


class NoSolution(VanviscError):
    pass


class NotOnLocus(VanviscError):
    pass


# front tracking
class EventBudgetExceeded(VanviscError):
    pass


class InvalidConfiguration(VanviscError):
    pass


class OutOfRange(VanviscError):
    pass


# measures
class NotMonotone(VanviscError):
    pass


class NegativeMass(VanviscError):
    pass


class NonMonotoneHistory(VanviscError):
    pass


# viscous
class CFLViolation(VanviscError):
    pass


class NotLaxPair(VanviscError):
    pass


class ShootFailure(VanviscError):
    pass


# hybrid
class OverlappingTracks(VanviscError):
    pass
