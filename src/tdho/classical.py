"""Classical side of the reduction: f'' + omega^2(t) f = 0.

The quantum propagator of the time-dependent oscillator is determined by one
classical trajectory problem.  This module solves it:

  * solve_fundamental: the fundamental pair u, v with u(t_a)=1, u'(t_a)=0,
    v(t_a)=0, v'(t_a)=1, dense over the window, Wronskian u v' - u' v = 1.
    One DOP853 solve (8th-order Dormand-Prince) at tol/10 gives both the
    dense pair and the focal count: the zeros of v are read off the signs of
    v at the solver's accepted steps.  Delta impulses in omega^2 are
    first-class events: integration stops at each one and restarts with f'
    kicked by -strength * f(t0); they are never smeared into the right-hand
    side.
  * closed_form: the catalog of reference solutions for the five analytic
    families.  Two entries (delta_pulse, sech_squared) are quoted reference
    forms that do NOT satisfy the equation for generic parameters; they are
    shipped verbatim with satisfies_equation=False and verify_solution grades
    them FAIL.  Numerical solutions are authoritative for those families.
  * verify_solution: central-difference residual grading with two-step
    Richardson calibration (an exact solution shows slope 2.0 as h halves).
  * pair_from_solution: promote one known solution to a fundamental pair
    using a single numerical companion solve.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from . import specfun
from .errors import DegenerateSolution, DomainError, SolutionMismatch, StepFailure
from .freq_profile import (Constant, DeltaPulse, ExpDecay, FrequencyProfile,
                           PowerLaw, SechSquared, Times)

__all__ = [
    "FundamentalPair", "SolutionCurve", "ClosedFormSolution", "ResidualReport",
    "solve_fundamental", "closed_form", "verify_solution", "pair_from_solution",
]


@dataclass
class SolutionCurve:
    """One solution of f'' + omega^2 f = 0 given by value/derivative callables.

    f and fdot take a float or an ndarray of times and return a float or an
    array of t's shape; consumers broadcast a constant result, such as
    fdot=lambda t: 3.0, to the shape of t.
    """
    f: Callable[[Times], Times]
    fdot: Callable[[Times], Times]
    label: str = ""


@dataclass
class ClosedFormSolution(SolutionCurve):
    family: str = ""
    params: dict = field(default_factory=dict)
    domain: tuple[float, float] | None = None  # open constraint, None = all t
    satisfies_equation: bool = True
    note: str = ""


_DEFAULT_NODES = 1001  # focal-count grid of a pair given only a state_fn


class FundamentalPair:
    """Dense fundamental pair on [t_a, t_b].

    u and v carry the canonical initial data at t_a; derivatives are
    right-continuous at impulse times.  nodes = (t, v(t)) are non-decreasing
    times from t_a to t_b with v there, at which focal_count reads the sign
    of v; without them a uniform grid of _DEFAULT_NODES times is evaluated
    through state_fn once, on first use.  Instances are immutable after
    construction, apart from such caches, and safe to share between threads.
    """

    def __init__(self, t_a: float, t_b: float,
                 state_fn: Callable[[np.ndarray], np.ndarray],
                 event_times: tuple[float, ...] = (),
                 nodes: tuple[np.ndarray, np.ndarray] | None = None):
        self.t_a = float(t_a)
        self.t_b = float(t_b)
        self._state = state_fn
        self.event_times = tuple(event_times)
        self._nodes = nodes
        self._drift: float | None = None

    def state(self, t: Times) -> np.ndarray:
        """Rows u, u', v, v' at t: shape (4,) for a float, (4, *t.shape) for an array."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.t_a - 1e-12) or np.any(t_arr > self.t_b + 1e-12):
            raise DomainError(f"t outside pair window [{self.t_a}, {self.t_b}]")
        return self._state(t_arr)

    def u(self, t):
        return self.state(t)[0]

    def udot(self, t):
        return self.state(t)[1]

    def v(self, t):
        return self.state(t)[2]

    def vdot(self, t):
        return self.state(t)[3]

    def combination(self, f_a: float, fdot_a: float, label: str = "") -> SolutionCurve:
        """The solution with initial data f(t_a)=f_a, f'(t_a)=fdot_a."""
        def f(t):
            s = self.state(t)
            return f_a * s[0] + fdot_a * s[2]

        def fdot(t):
            s = self.state(t)
            return f_a * s[1] + fdot_a * s[3]

        return SolutionCurve(f, fdot, label or f"{f_a}*u + {fdot_a}*v")

    @property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, v(t)) at the times where focal_count reads the sign of v."""
        if self._nodes is None:
            ts = np.linspace(self.t_a, self.t_b, _DEFAULT_NODES)
            self._nodes = (ts, np.asarray(self._state(ts)[2], dtype=float))
        return self._nodes

    def focal_count(self, t_end: float, v_end: float) -> int:
        """Number of zeros of v in the open interval (t_a, t_end).

        v_end = v(t_end).  Counts sign changes of v along the nodes before
        t_end, starting from v > 0 just after t_a (v' = 1 there) and ending
        at v_end.  Exact whenever no node interval holds two zeros: zeros of
        v between impulses lie at least pi / max(omega) apart, and
        solve_fundamental's steps are far shorter than that.
        """
        ts, vs = self.nodes
        inner = vs[1:np.searchsorted(ts, t_end, side="left")]
        signs = np.sign(np.concatenate(([1.0], inner, [v_end])))
        signs = signs[signs != 0.0]
        return int(np.count_nonzero(signs[1:] != signs[:-1]))

    @property
    def wronskian_drift(self) -> float:
        """max |u v' - u' v - 1| over 100 uniform sample times."""
        if self._drift is None:
            ts = np.linspace(self.t_a, self.t_b, 100)
            u, ud, v, vd = self.state(ts)
            self._drift = float(np.max(np.abs(u * vd - ud * v - 1.0)))
        return self._drift


def solve_fundamental(profile: FrequencyProfile, t_a: float, t_b: float,
                      tol: float = 1e-10) -> FundamentalPair:
    """Integrate the fundamental pair with the adaptive DOP853 scheme.

    The solver runs at atol = tol/10, rtol = max(tol/10, 1e-13).  Dense
    output everywhere in [t_a, t_b]; the integration is split at each jump
    event, with the impulse kick applied exactly between segments, and at
    each of the profile's breakpoints.  The accepted steps and v there
    become the pair's focal-count nodes; v is continuous across kicks, so
    the segments' nodes simply concatenate.
    """
    if not (t_b > t_a):
        raise DomainError(f"need t_b > t_a, got [{t_a}, {t_b}]")
    if not (tol > 0):
        raise DomainError(f"tol must be positive, got {tol}")

    events = profile.jump_events(t_a, t_b)
    interior = sorted({e.time for e in events if e.time < t_b})
    strength = {e.time: e.strength for e in events}
    boundaries = sorted({t_a, t_b, *interior, *profile.breakpoints(t_a, t_b)})

    def make_rhs(hi: float, step_at_hi: bool):
        # the theta-step attached to an event belongs to [t0, inf); stage
        # evaluations at the segment's right end must see the left limit
        def rhs(t, y):
            tt = t
            if step_at_hi and t >= hi:
                tt = math.nextafter(hi, -math.inf)
            w2 = profile.smooth_omega_squared(tt)
            return (y[1], -w2 * y[0], y[3], -w2 * y[2])
        return rhs

    y = np.array([1.0, 0.0, 0.0, 1.0])
    segments = []  # (lo, hi, OdeSolution)
    node_t, node_v = [], []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        sol = solve_ivp(make_rhs(hi, hi in strength), (lo, hi), y,
                        method="DOP853", dense_output=True,
                        rtol=max(0.1 * tol, 1e-13), atol=0.1 * tol)
        if not sol.success:
            raise StepFailure(f"integration failed on [{lo}, {hi}]: {sol.message}")
        segments.append((lo, hi, sol.sol))
        node_t.append(sol.t)
        node_v.append(sol.y[2])
        y = sol.y[:, -1].copy()
        if hi in strength:  # impulse at the segment end: kick the derivatives
            s = strength[hi]
            y[1] -= s * y[0]
            y[3] -= s * y[2]

    # an impulse exactly at t_b only alters the terminal derivatives
    terminal = y if t_b in strength else None
    seg_starts = [lo for lo, _, _ in segments]

    def state_fn(t_arr: np.ndarray) -> np.ndarray:
        if t_arr.ndim == 0:  # one time: same values, without the grouping below
            t = float(t_arr)
            if terminal is not None and t == t_b:
                return terminal.copy()
            return segments[max(bisect.bisect_right(seg_starts, t) - 1, 0)][2](t)
        ts = t_arr.ravel()
        out = np.empty((4, ts.size))
        idx = np.searchsorted(seg_starts, ts, side="right") - 1
        np.clip(idx, 0, len(segments) - 1, out=idx)
        for k in np.unique(idx):
            mask = idx == k
            out[:, mask] = segments[k][2](ts[mask])
        if terminal is not None:
            at_end = ts == t_b
            if np.any(at_end):
                out[:, at_end] = terminal[:, None]
        return out.reshape((4,) + t_arr.shape)

    return FundamentalPair(t_a, t_b, state_fn,
                           tuple(interior + ([t_b] if terminal is not None else [])),
                           (np.concatenate(node_t), np.concatenate(node_v)))


def _xp(t: Times):
    """The module whose elementary functions evaluate at t: math for a float, numpy for an array."""
    return math if isinstance(t, float) else np


def closed_form(profile: FrequencyProfile) -> ClosedFormSolution | None:
    """Reference solution for the five analytic families, None otherwise.

    Entries with satisfies_equation=False are quoted forms kept for
    comparison; verify_solution grades them FAIL and the numerical path is
    authoritative.
    """
    if isinstance(profile, Constant):
        w0 = profile.omega0
        return ClosedFormSolution(
            f=lambda t: _xp(t).cos(w0 * t),
            fdot=lambda t: -w0 * _xp(t).sin(w0 * t),
            label=f"cos({w0}*t)",
            family="constant", params={"omega0": w0})

    if isinstance(profile, ExpDecay):
        w0, a = profile.omega0, profile.alpha

        def z(t):
            return (2.0 * w0 / a) * _xp(t).exp(-0.5 * a * t)

        return ClosedFormSolution(
            f=lambda t: specfun.bessel_j(0.0, z(t)),
            fdot=lambda t: 0.5 * a * z(t) * specfun.bessel_j(1.0, z(t)),
            label="J0(2 w0/a exp(-a t/2))",
            family="exp_decay", params={"omega0": w0, "alpha": a})

    if isinstance(profile, PowerLaw):
        w0, a, b = profile.omega0, profile.alpha, profile.beta
        if w0 == 0.0:
            return None
        c = w0 * a ** b
        nu = 1.0 / (b + 2.0)

        def z(t):
            return (2.0 * c / (b + 2.0)) * t ** (0.5 * (b + 2.0))

        def f(t):
            # sqrt(0) J_nu(0) = 0: J_nu(0) = 0 for nu > 0
            return _xp(t).sqrt(t / c) * specfun.bessel_j(nu, z(t))

        def fdot(t):
            sqrt = _xp(t).sqrt
            zz = z(t)
            jn = specfun.bessel_j(nu, zz)
            # J'_nu = (nu/z) J_nu - J_{nu+1}, keeping orders nonnegative
            jprime = (nu / zz) * jn - specfun.bessel_j(nu + 1.0, zz)
            return (0.5 / sqrt(t * c)) * jn + sqrt(t / c) * jprime * c * t ** (0.5 * b)

        return ClosedFormSolution(
            f=f, fdot=fdot, label="sqrt(t/c) J_nu(z(t))",
            family="power_law", params={"omega0": w0, "alpha": a, "beta": b},
            domain=(0.0, math.inf))

    if isinstance(profile, DeltaPulse):
        w0, t0 = profile.omega0, profile.t0

        def f(t):
            return _xp(t).exp(w0 * abs(t - t0))

        def fdot(t):
            sign = 2.0 * (t >= t0) - 1.0  # +1 from t0 on: right-continuous at the kink
            return w0 * sign * _xp(t).exp(w0 * abs(t - t0))

        return ClosedFormSolution(
            f=f, fdot=fdot, label="exp(w0 |t - t0|)",
            family="delta_pulse", params={"omega0": w0, "t0": t0},
            satisfies_equation=False,
            note="quoted reference form; direct substitution leaves an O(1) "
                 "residual on both sides of t0 for generic omega0, and the "
                 "derivative jump at t0 has the wrong size. Use the numerical "
                 "solver for anything quantitative.")

    if isinstance(profile, SechSquared):
        al, be, t0 = profile.alpha, profile.beta, profile.t0
        if al >= 0.5:
            degree = specfun.LegendreDegree.conical(math.sqrt(al * al - 0.25))
        else:
            degree = specfun.LegendreDegree.real(-0.5 - math.sqrt(0.25 - al * al))

        def x(t):
            return _xp(t).tanh(be * (t - t0))

        def f(t):
            return specfun.legendre_p(degree, x(t))

        def fdot(t):
            xx = x(t)
            return specfun.legendre_p_dx(degree, xx) * be * (1.0 - xx * xx)

        return ClosedFormSolution(
            f=f, fdot=fdot, label="P_lambda(tanh(beta (t - t0)))",
            family="sech_squared", params={"alpha": al, "beta": be, "t0": t0},
            satisfies_equation=False,
            note="quoted reference form; the degree solves lambda(lambda+1) = "
                 "-alpha^2, while the substitution x = tanh(beta(t-t0)) needs "
                 "lambda(lambda+1) = +alpha^2/beta^2, so the residual is O(1) "
                 "for generic alpha, beta. Use the numerical solver for "
                 "anything quantitative.")

    return None


@dataclass
class ResidualReport:
    window: tuple[float, float]
    h: float
    max_residual: float          # at step h
    worst_t: float
    max_residual_refined: float  # at step h/2
    slope: float                 # Richardson order estimate, 2.0 for a solution
    calibration_c: float         # max_residual / h^2
    jump_mismatches: list[tuple[float, float, float, bool]]  # (t0, at h, at h/2, ok)
    passed: bool
    note: str = ""


_ROUNDOFF_FLOOR = 1e-12


def _residuals(profile: FrequencyProfile, sol: SolutionCurve, ts: np.ndarray,
               steps: tuple[float, ...]) -> np.ndarray:
    """|f''_h + omega^2(t) f| / max(1, |f|) at ts, one row per step h.

    f''_h is the central second difference with step h.  sol.f is called
    once, on ts and all its shifted copies together.
    """
    k, hs = len(steps), np.array(steps)[:, None]
    grid = np.vstack([ts, ts - hs, ts + hs])  # rows: t, t - h per step, t + h per step
    fv = np.broadcast_to(sol.f(grid), grid.shape)
    f0, fm, fp = fv[0], fv[1:k + 1], fv[k + 1:]
    second = (fp - 2.0 * f0 + fm) / (hs * hs)
    return np.abs(second + profile.smooth_omega_squared(ts) * f0) / np.maximum(1.0, np.abs(f0))


def verify_solution(profile: FrequencyProfile, sol: SolutionCurve,
                    window: tuple[float, float], h: float = 1e-2,
                    n_samples: int = 200) -> ResidualReport:
    """Grade sol against f'' + omega^2(t) f = 0 on the window.

    Residual |f''_h + omega^2 f| / max(1, |f|) with a central second
    difference, evaluated at steps h and h/2; PASS needs the Richardson slope
    in [1.5, 2.6] (or the residual at the roundoff floor).  Sample points
    within 3h of a jump event are excluded, and each event's derivative jump
    is checked against -strength * f(t0) separately.
    """
    a, b = window
    if not (b > a):
        raise DomainError(f"empty window {window}")
    if not (0 < h < 0.25 * (b - a)):
        raise DomainError(f"step h={h} does not fit the window {window}")

    events = profile.jump_events(a, b)
    ts = np.linspace(a + h, b - h, n_samples)
    for e in events:
        ts = ts[np.abs(ts - e.time) > 3.0 * h]
    if ts.size == 0:
        raise DomainError("no sample points left after excluding event neighborhoods")

    res = _residuals(profile, sol, ts, (h, 0.5 * h))
    worst = int(np.argmax(res[0]))
    r1, worst_t, r2 = float(res[0, worst]), float(ts[worst]), float(np.max(res[1]))
    floor_hit = r1 <= _ROUNDOFF_FLOOR
    slope = math.log2(r1 / r2) if (r1 > 0 and r2 > 0) else math.inf

    jumps = []
    jumps_ok = True
    for e in events:
        if not (a + 3.0 * h < e.time < b - 3.0 * h):
            continue
        f0 = sol.f(e.time)
        scale = max(1.0, abs(e.strength) * abs(f0))

        def mismatch(step: float) -> float:
            # one-sided first-order Richardson for f'(t0 +/- 0)
            right = 2.0 * sol.fdot(e.time + 0.5 * step) - sol.fdot(e.time + step)
            left = 2.0 * sol.fdot(e.time - 0.5 * step) - sol.fdot(e.time - step)
            return abs((right - left) + e.strength * f0)

        m1, m2 = mismatch(h), mismatch(0.5 * h)
        ok = m2 <= max(0.75 * m1, 1e-8 * scale)
        jumps.append((e.time, m1, m2, ok))
        jumps_ok = jumps_ok and ok

    passed = jumps_ok and (floor_hit or 1.5 <= slope <= 2.6)
    note = "residual at roundoff floor" if floor_hit else ""
    return ResidualReport(window=(a, b), h=h, max_residual=r1, worst_t=worst_t,
                          max_residual_refined=r2, slope=slope,
                          calibration_c=r1 / (h * h),
                          jump_mismatches=jumps, passed=passed, note=note)


def spot_check_solution(profile: FrequencyProfile, sol: SolutionCurve,
                        t_a: float, t_b: float, h: float = 1e-4,
                        rel_tol: float = 1e-2) -> None:
    """Cheap residual probe at a handful of interior points.

    Raises SolutionMismatch when sol visibly fails the equation; used as a
    guard before trusting a caller-provided solution.
    """
    events = profile.jump_events(t_a, t_b) if t_b > t_a else []
    ts = np.linspace(t_a + 5 * h, t_b - 5 * h, 7)
    for e in events:
        ts = ts[np.abs(ts - e.time) > 5.0 * h]
    res = _residuals(profile, sol, ts, (h,))[0]
    if res.size and res.max() > rel_tol:
        worst = int(np.argmax(res))
        raise SolutionMismatch("provided curve does not solve f'' + omega^2 f = 0",
                               worst_t=float(ts[worst]), residual=float(res[worst]))


def pair_from_solution(sol: SolutionCurve, profile: FrequencyProfile,
                       t_a: float, t_b: float, tol: float = 1e-10) -> FundamentalPair:
    """Fundamental pair built from one known solution plus a numerical companion.

    Raises DegenerateSolution if sol is numerically the zero solution at t_a
    (no independent companion can be combined), SolutionMismatch if sol does
    not actually solve the equation.
    """
    spot_check_solution(profile, sol, t_a, t_b)
    num = solve_fundamental(profile, t_a, t_b, tol)
    f_a, fdot_a = sol.f(t_a), sol.fdot(t_a)
    scale = max(abs(f_a), abs(fdot_a))
    if scale <= 1e-6:
        raise DegenerateSolution(
            f"solution has f(t_a)={f_a:.3e}, f'(t_a)={fdot_a:.3e}; cannot normalize a pair")

    def state_fn(t_arr: np.ndarray) -> np.ndarray:
        s = num.state(t_arr)
        ft = np.broadcast_to(sol.f(t_arr), t_arr.shape)
        fd = np.broadcast_to(sol.fdot(t_arr), t_arr.shape)
        if abs(f_a) >= abs(fdot_a):
            # companion = numerical v (Wronskian with f is f_a)
            return np.stack([ft / f_a - (fdot_a / f_a) * s[2],
                             fd / f_a - (fdot_a / f_a) * s[3], s[2], s[3]])
        # companion = numerical u (Wronskian with f is -fdot_a)
        return np.stack([s[0], s[1], ft / fdot_a - (f_a / fdot_a) * s[0],
                         fd / fdot_a - (f_a / fdot_a) * s[1]])

    ts = num.nodes[0]
    return FundamentalPair(t_a, t_b, state_fn, num.event_times, (ts, state_fn(ts)[2]))
