"""Exception types shared across the package."""


class SaddleError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoop(SaddleError):
    """An edge list contains an edge (i, i)."""


class DisconnectedGraph(SaddleError):
    """Some node is unreachable from node 0."""


class DimensionMismatch(SaddleError, ValueError):
    """A vector argument has the wrong length for its node or domain."""


class InfeasibleDomain(SaddleError, ValueError):
    """The declared feasible set is empty."""


class NonFiniteState(SaddleError, ValueError):
    """A vector handed to a projection holds NaN or inf."""


class OutOfWindow(SaddleError, KeyError):
    """A stale read reaches a time its window (or a delay table) does not hold."""


class NoFeasibleDelta(SaddleError):
    """The dual-regularizer fixed point has no real solution at this horizon.

    Carries ``C`` (the delta-independent part of the fixed-point equation) and
    ``min_T`` (the smallest horizon at which a solution exists).
    """

    def __init__(self, C: float, T: int):
        self.C = C
        self.T = T
        self.min_T = int(8.0 * C) + 1
        super().__init__(
            f"no real delta solves the regularizer fixed point at T={T} "
            f"(C={C:.6g}); need T >= {self.min_T}"
        )


class DegenerateSeries(SaddleError, ValueError):
    """A series has too few positive points for a log-log rate fit."""


class DegenerateEstimates(SaddleError, ValueError):
    """Moment estimates the advisor cannot use: one of them is not positive,
    as the constraint moments of a network without constraints are."""


class InvalidConfig(SaddleError, ValueError):
    """An application config violates its declared invariants."""


class OutputError(SaddleError):
    """An output directory or file cannot be created or written."""


class AuditFailure(SaddleError):
    """A run's trace fails the invariant audit where the caller asked for a
    passing one."""
