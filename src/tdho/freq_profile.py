"""Time-dependent frequency profiles omega^2(t).

Seven variants: five analytic families (constant, exponential decay, power
law, delta impulse with a step, sech^2 well), tabulated data, and parsed
expressions.  A profile answers four questions:

  * omega_squared(t): the pointwise value, at one time or at an array of
    times.  Raises EvalAtImpulse exactly at a delta impulse, DomainError
    outside the profile's domain.
  * jump_events(t_a, t_b): the impulses strength*delta(t - time) in omega^2
    inside the window, as (time, strength) pairs; each kicks any solution of
    f'' + omega^2 f = 0 by df'(time) = -strength * f(time).  Every solver
    asks this first, and it refuses a window unless -inf < t_a < t_b < inf.
  * breakpoints(t_a, t_b): times inside the open window where omega^2 is
    continuous but not smooth (a tabulated profile's knots).
  * to_json()/profile_from_json(): config round trip.

Step discontinuities are right-continuous: theta(0) = 1.  Events land in the
half-open window (t_a, t_b], so composing adjacent windows counts each
impulse exactly once.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import omega_expr
from .errors import DomainError, EvalAtImpulse
from .omega_expr import ExprNode

__all__ = [
    "JumpEvent", "FrequencyProfile", "Constant", "ExpDecay", "PowerLaw",
    "DeltaPulse", "SechSquared", "Tabulated", "Expression",
    "omega_squared_at", "jump_events", "profile_from_json",
]


Times = float | np.ndarray  # one time, or an array of times of any shape


@dataclass(frozen=True)
class JumpEvent:
    """A delta impulse in omega^2: strength * delta(t - time)."""
    time: float
    strength: float


class FrequencyProfile:
    """Base class; concrete profiles implement omega_squared, and _smooth
    when they carry delta terms.

    omega_squared and smooth_omega_squared take a float or an ndarray of
    times and return a numpy float or an array of t's shape.  Both go
    through the same numpy calls, so a float's value equals that time's
    entry in an array.  The solvers pass arrays: the classical solver's
    Gauss nodes, the zero scan, the W quadrature and the grid routes' step
    times.  An array with one bad time raises the same typed error as that
    time alone, naming it.
    """

    def omega_squared(self, t: Times) -> Times:
        raise NotImplementedError

    def smooth_omega_squared(self, t: Times) -> Times:
        """omega^2 with delta terms dropped (steps kept, right-continuous).

        Solvers integrate this between impulses and apply the impulses
        separately, so unlike omega_squared it is defined at impulse times.
        Every solver reads omega^2 through here, so here it takes t's shape,
        also from a subclass that returns one number, and here it is refused
        when not finite: DomainError names the first such time.
        """
        value = np.asarray(self._smooth(t))
        if value.shape != np.shape(t):  # one value for all of t
            value = np.full(np.shape(t), value)
        finite = np.isfinite(value)
        if not finite.all():
            raise DomainError(f"omega^2 is {float(value[~finite][0])} "
                              f"at t={float(np.asarray(t)[~finite][0])!r}")
        return value[()]

    def _smooth(self, t: Times) -> Times:
        """smooth_omega_squared before its finiteness check."""
        return self.omega_squared(t)

    def jump_events(self, t_a: float, t_b: float) -> list[JumpEvent]:
        """Delta impulses in (t_a, t_b], and the one place a window is refused:
        every solver calls this first, and an override calls super() first."""
        if not -math.inf < t_a < t_b < math.inf:
            raise DomainError(f"need a finite window t_a < t_b, got [{t_a}, {t_b}]")
        return []

    def breakpoints(self, t_a: float, t_b: float) -> list[float]:
        """Times in the open window (t_a, t_b) where omega^2 is continuous
        but not smooth, such as the knots of a tabulated profile.

        The classical solver starts a segment there: its sixth-order error
        estimate assumes omega^2 smooth within each step.
        """
        return []

    def to_json(self) -> dict:
        """The dict form profile_from_json reads back: the family's type name,
        then the dataclass fields in declaration order."""
        return {"type": _KIND[type(self)], **dataclasses.asdict(self)}


@dataclass(frozen=True)
class Constant(FrequencyProfile):
    omega0: float

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and self.omega0 >= 0):
            raise DomainError(f"omega0 must be finite and >= 0, got {self.omega0}")

    def omega_squared(self, t: Times) -> Times:
        return np.full(np.shape(t), self.omega0 ** 2)[()]


@dataclass(frozen=True)
class ExpDecay(FrequencyProfile):
    """omega^2(t) = omega0^2 * exp(-alpha t)."""
    omega0: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if not (math.isfinite(self.omega0) and self.omega0 >= 0):
            raise DomainError(f"omega0 must be finite and >= 0, got {self.omega0}")

    def omega_squared(self, t: Times) -> Times:
        return self.omega0 ** 2 * np.exp(-self.alpha * t)


@dataclass(frozen=True)
class PowerLaw(FrequencyProfile):
    """omega^2(t) = (omega0 * alpha^beta)^2 * t^beta  on t >= 0.

    beta > -2 keeps the t=0 singularity mild enough for the oscillator
    equation; for beta < 0 the value itself still diverges at t=0, so the
    domain there is t > 0.
    """
    omega0: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > -2):
            raise DomainError(f"beta must be > -2, got {self.beta}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if not (math.isfinite(self.omega0) and self.omega0 >= 0):
            raise DomainError(f"omega0 must be finite and >= 0, got {self.omega0}")

    def omega_squared(self, t: Times) -> Times:
        outside = (t < 0) | ((t == 0) & (self.beta < 0))
        if np.any(outside):
            raise DomainError("power-law profile needs t >= 0 (t > 0 for beta < 0), "
                              f"got t={float(np.asarray(t)[outside][0])}")
        c = self.omega0 * self.alpha ** self.beta
        return c * c * np.power(t, self.beta)


@dataclass(frozen=True)
class DeltaPulse(FrequencyProfile):
    """omega^2(t) = omega0^2 delta(t - t0) + omega0^4 theta(t - t0)."""
    omega0: float
    t0: float

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and self.omega0 >= 0):
            raise DomainError(f"omega0 must be finite and >= 0, got {self.omega0}")
        if not math.isfinite(self.t0):
            raise DomainError(f"t0 must be finite, got {self.t0}")

    def omega_squared(self, t: Times) -> Times:
        if np.any(t == self.t0) and self.omega0 != 0.0:
            raise EvalAtImpulse(self.t0)
        return self.smooth_omega_squared(t)

    def _smooth(self, t: Times) -> Times:
        return np.where(t >= self.t0, self.omega0 ** 4, 0.0)[()]

    def jump_events(self, t_a: float, t_b: float) -> list[JumpEvent]:
        super().jump_events(t_a, t_b)
        if self.omega0 != 0.0 and t_a < self.t0 <= t_b:
            return [JumpEvent(self.t0, self.omega0 ** 2)]
        return []


@dataclass(frozen=True)
class SechSquared(FrequencyProfile):
    """omega^2(t) = alpha^2 / cosh^2(beta (t - t0))."""
    alpha: float
    beta: float
    t0: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "t0"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    def omega_squared(self, t: Times) -> Times:
        return self.alpha ** 2 * omega_expr.sech(self.beta * (t - self.t0)) ** 2


@dataclass
class Tabulated(FrequencyProfile):
    """Sampled omega^2 on a strictly increasing time grid.

    interp: "cubic" (default) or "linear".  Interpolation reproduces the
    samples exactly at the nodes; evaluation outside [t[0], t[-1]] raises
    DomainError rather than extrapolating.
    """
    t: np.ndarray
    omega2: np.ndarray
    interp: str = "cubic"
    _spline: object = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.omega2 = np.asarray(self.omega2, dtype=float)
        if self.t.ndim != 1 or self.t.shape != self.omega2.shape:
            raise DomainError("t and omega2 must be 1-d arrays of equal length")
        if len(self.t) < 2:
            raise DomainError("need at least two samples")
        if not np.all(np.diff(self.t) > 0):
            raise DomainError("t must be strictly increasing")
        if not (np.all(np.isfinite(self.t)) and np.all(np.isfinite(self.omega2))):
            raise DomainError("samples must be finite")
        if self.interp not in ("cubic", "linear"):
            raise DomainError(f"interp must be 'cubic' or 'linear', got {self.interp!r}")
        if self.interp == "cubic" and len(self.t) >= 3:
            from scipy.interpolate import CubicSpline
            bc = "not-a-knot" if len(self.t) >= 4 else "natural"
            self._spline = CubicSpline(self.t, self.omega2, bc_type=bc)

    def omega_squared(self, t: Times) -> Times:
        outside = (t < self.t[0]) | (t > self.t[-1])
        if np.any(outside):
            raise DomainError(f"t={float(np.asarray(t)[outside][0])} outside tabulated range [{self.t[0]}, {self.t[-1]}]")
        value = self._spline(t) if self._spline is not None else np.interp(t, self.t, self.omega2)
        return value[()]

    def breakpoints(self, t_a: float, t_b: float) -> list[float]:
        return [float(k) for k in self.t if t_a < k < t_b]

    def to_json(self) -> dict:
        return {"type": _KIND[type(self)], "t": self.t.tolist(),
                "omega2": self.omega2.tolist(), "interp": self.interp}


@dataclass
class Expression(FrequencyProfile):
    """omega^2(t) given by a parsed expression in t (constants already inlined)."""
    node: ExprNode

    def __post_init__(self):
        if isinstance(self.node, str):
            self.node = omega_expr.parse(self.node)

    def omega_squared(self, t: Times) -> Times:
        return omega_expr.evaluate(self.node, t)

    def to_json(self) -> dict:
        return {"type": _KIND[type(self)], "expr": omega_expr.to_string(self.node)}


# nothing in tdho calls these two wrappers: bench/tracing.py patches them by
# identity, and they go when the tracer reads run traces (ROADMAP item 5)
def omega_squared_at(profile: FrequencyProfile, t: Times) -> Times:
    return profile.omega_squared(t)


def jump_events(profile: FrequencyProfile, t_a: float, t_b: float) -> list[JumpEvent]:
    return profile.jump_events(t_a, t_b)


_FAMILIES = {
    "constant": Constant, "exp_decay": ExpDecay, "power_law": PowerLaw,
    "delta_pulse": DeltaPulse, "sech_squared": SechSquared,
    "tabulated": Tabulated, "expression": Expression,
}
_KIND = {cls: kind for kind, cls in _FAMILIES.items()}


def _parsed(expr: str, constants: dict | None = None) -> Expression:
    """The expression family's dict fields: exactly expr and, optionally, constants."""
    return Expression(omega_expr.parse(expr, constants or {}))


def profile_from_json(data: dict) -> FrequencyProfile:
    """Build a profile from its dict form.  Inverse of to_json."""
    if not isinstance(data, dict) or "type" not in data:
        raise DomainError("profile config must be a dict with a 'type' key")
    kind = data["type"]
    cls = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DomainError(f"unknown profile type {kind!r}")
    extra = {k: v for k, v in data.items() if k != "type"}
    try:
        if cls is Tabulated:
            return Tabulated(np.asarray(extra.pop("t")), np.asarray(extra.pop("omega2")), **extra)
        if cls is Expression:
            return _parsed(extra.pop("expr"), **extra)
        return cls(**extra)
    except TypeError as exc:
        raise DomainError(f"bad fields for profile type {kind!r}: {exc}") from exc
    except KeyError as exc:
        raise DomainError(f"missing field for profile type {kind!r}: {exc}") from exc
