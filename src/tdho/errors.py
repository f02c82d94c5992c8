"""Exception types shared across the package.

Everything numeric raises subclasses of TdhoError so callers can catch one
base type at the CLI boundary.  Error objects carry the data needed to act on
them (byte offsets, event times, zero locations) rather than just a message.
An expression's non-finite omega^2 (NonFiniteError) is a DomainError, like
every other omega^2 outside a profile's domain, so code that steps around
a domain fault catches both with one clause.  check_positive() is the one
test of a scale that must be positive and finite: the mass mu, a solver's
tol, a Gaussian's sigma and the Schrodinger residual's difference steps.
check_count() is the one test of a count: a grid's n, verify_solution's
n_samples and time_sliced_oracle's n_slices, where an integral float counts
as its int.  MAX_COUNT bounds every count, and crank_nicolson's steps per
segment, before anything is allocated.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

# the length of the largest complex128 array an index can address
MAX_COUNT = np.iinfo(np.intp).max // 16


class TdhoError(Exception):
    """Base class for all library errors."""


class DomainError(TdhoError, ValueError):
    """Input outside the mathematical domain of an operation."""


def check_positive(name: str, value: float) -> None:
    """Refuse value unless 0 < value < inf, naming it."""
    if not 0 < value < float("inf"):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def check_count(name: str, value: float, least: int = 1) -> int:
    """value as an int if it is a whole number in [least, MAX_COUNT]; else refuse it, naming it."""
    if not (isinstance(value, Real) and not isinstance(value, bool)
            and value >= least and value % 1 == 0):
        raise DomainError(f"{name} must be a whole number >= {least}, got {value!r}")
    if value > MAX_COUNT:
        raise DomainError(f"{name} must be at most {MAX_COUNT}, the longest array an index "
                          f"addresses, got {value!r}")
    return int(value)


class ParseError(TdhoError, ValueError):
    """Expression rejected by the parser.

    position is the byte offset into the source string, expected a short
    human-readable set of what would have been legal there.
    """

    def __init__(self, message: str, position: int, expected: str = ""):
        super().__init__(f"{message} at offset {position}" + (f" (expected {expected})" if expected else ""))
        self.position = position
        self.expected = expected


class UnknownIdentifierError(ParseError):
    """Identifier is neither the time variable, a bound constant, nor a known function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


class NonFiniteError(DomainError, ArithmeticError):
    """A value at time t is inf or nan: an expression outside its domain, or a
    propagated state that floats cannot hold."""

    def __init__(self, t: float, detail: str):
        super().__init__(f"non-finite value at t={t!r}: {detail}")
        self.t = t
        self.detail = detail


class EvalAtImpulse(TdhoError, ValueError):
    """omega^2 requested exactly at a delta-impulse time; the value is not defined there."""

    def __init__(self, t: float):
        super().__init__(f"omega^2 has a delta impulse at t={t!r}; evaluate the smooth part on either side instead")
        self.t = t


class StepFailure(TdhoError, RuntimeError):
    """Adaptive integrator could not meet its tolerance."""


class DegenerateSolution(TdhoError, ValueError):
    """Provided solution is numerically the zero solution: f and f' vanish at t_a."""


class SolutionMismatch(TdhoError, ValueError):
    """Claimed solution does not satisfy f'' + omega^2(t) f = 0 on the requested window."""

    def __init__(self, message: str, worst_t: float, residual: float):
        super().__init__(f"{message}: residual {residual:.3e} at t={worst_t!r}")
        self.worst_t = worst_t
        self.residual = residual


class CausticInWindow(TdhoError, ArithmeticError):
    """The reference solution vanishes inside the time window; 1/f^2 is not integrable there."""

    def __init__(self, t_zero: float):
        super().__init__(f"reference solution has a zero at t={t_zero!r} inside the window")
        self.t_zero = t_zero


class CausticAtEndpoint(TdhoError, ArithmeticError):
    """v(t_b) is numerically zero: the propagator is singular (focal point) at t_b."""

    def __init__(self, t_b: float, v_b: float):
        super().__init__(f"focal point at t_b={t_b!r}: v(t_b)={v_b:.3e} is below the singularity threshold")
        self.t_b = t_b
        self.v_b = v_b


class GridTooNarrow(TdhoError, ValueError):
    """Wavepacket support reaches the grid edge; results would be circulant garbage."""


class GridMismatch(TdhoError, ValueError):
    """Two wavepackets live on different grids and cannot be compared pointwise."""


class StabilityWarning(UserWarning):
    """Time step too coarse for the strongest potential phase on the grid; accuracy, not stability, suffers."""
