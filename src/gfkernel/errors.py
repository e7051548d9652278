"""Exception types shared across the library.

Everything raised on purpose derives from :class:`GFKernelError` so callers
can catch library failures without swallowing genuine bugs.
"""

from __future__ import annotations


class GFKernelError(Exception):
    pass


class OutOfDomain(GFKernelError):
    """Evaluation requested outside the open set a function lives on."""


class JetCapExceeded(GFKernelError):
    """A derivative order above the configured jet cap was requested."""


class DomainMismatch(GFKernelError):
    """Two objects with incompatible underlying open sets were combined."""


class InvalidRadius(GFKernelError):
    pass


class EmptyCover(GFKernelError):
    pass


class GapInCover(GFKernelError):
    """The requested cover leaves part of the target set uncovered."""


class NotContained(GFKernelError):
    """A set inclusion precondition (supp f in V, V in U, ...) failed."""


class IncompatiblePieces(GFKernelError):
    """Gluing data disagrees on an overlap."""


class UnboundedSupport(GFKernelError):
    pass


class SingularMomentSystem(GFKernelError):
    """The moment system of a mollifier is numerically singular."""


class NoSeparation(GFKernelError):
    """Sup norms along a kernel sequence fail to separate strictly."""


class WrongTag(GFKernelError):
    """A reification/coercion was asked for a tag the element does not carry."""


class TooFewPoints(GFKernelError):
    pass


class NonFiniteSweep(GFKernelError):
    """A rate sweep produced NaN or infinite values, so no fit means anything."""


class NoConvergence(GFKernelError):
    """Adaptive quadrature ran out of budget, or met a non-finite integrand.

    Carries the best available estimate and a (conservative) error bound so
    callers can decide whether the partial answer is still usable; a
    non-finite integrand carries estimate nan and bound inf at once, since
    no refinement converges past it.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class ParseError(GFKernelError):
    """Expression syntax error; ``position`` indexes into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConfigError(GFKernelError):
    pass
