"""Classical side of the reduction: f'' + omega^2(t) f = 0.

The quantum propagator of the time-dependent oscillator is determined by one
classical trajectory problem.  This module solves it:

  * solve_fundamental: the fundamental pair u, v with u(t_a)=1, u'(t_a)=0,
    v(t_a)=0, v'(t_a)=1, dense over the window, Wronskian u v' - u' v = 1.
    Sixth-order Magnus steps, refined in whole arrays, give both the dense
    pair and the focal count: the zeros of v are read off the signs of v at
    the step ends.  A rejected step is cut at once into the 2^k dyadic
    sub-steps that its measured error (~ h^7) and omega h call for.  Each
    delta impulse in omega^2 kicks f' by -strength * f(t0) as a step of its
    own; it is never smeared into omega^2.
  * closed_form: the catalog of reference solutions for the five analytic
    families: f, f', a label and whether the form solves the equation; the
    family and its parameters are the profile's own (to_json).  Two entries
    (delta_pulse, sech_squared) are quoted reference forms that do NOT
    satisfy the equation for generic parameters; they are shipped verbatim
    with satisfies_equation=False and verify_solution grades them FAIL.
    Numerical solutions are authoritative for those families.
  * verify_solution: central-difference residual grading with two-step
    Richardson calibration (an exact solution shows slope 2.0 as h halves).
  * pair_from_solution: the solved pair of a window, after a residual check
    of a caller's solution on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import specfun
from .errors import (DegenerateSolution, DomainError, SolutionMismatch, StepFailure,
                     check_count, check_positive)
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
    satisfies_equation: bool = True
    note: str = ""


_GAUSS = np.array([-math.sqrt(0.15), 0.0, math.sqrt(0.15)])  # Gauss nodes, from a step's midpoint per unit length
_INITIAL_STEPS = 8     # uniform steps per segment before bisection
_MAX_STEPS = 1 << 18   # largest mesh solve_fundamental builds
_MAX_SPLIT = 17        # most levels a rejected step skips: 2^17 sub-steps of two halves fill _MAX_STEPS


@dataclass(frozen=True, eq=False)
class FundamentalPair:
    """The fundamental pair on [t_a, t_b] as solve_fundamental's node arrays.

    u and v carry the canonical initial data at t_a; derivatives are
    right-continuous at impulse times.  node_t holds the step ends, from t_a
    to t_b, and node_y[k] = [[u, v], [u', v']] at node_t[k], the product of
    every step before it.  A kick at t0 is a zero-length step, so t0 appears
    twice: first with the state before the kick, then with the state after
    it.  Between nodes, state() takes a partial Magnus step from the node
    before.  state() and focal_count() only read these arrays, so a pair is
    safe to share between threads.
    """
    profile: FrequencyProfile
    t_a: float
    t_b: float
    node_t: np.ndarray         # (n,) non-decreasing step ends
    node_y: np.ndarray         # (n, 2, 2) prefix products of the steps
    event_times: tuple[float, ...]

    def state(self, t: Times) -> np.ndarray:
        """Rows u, u', v, v' at t: shape (4,) for a float, (4, *t.shape) for an array."""
        t_arr = np.asarray(t, dtype=float)
        if not np.all((t_arr >= self.t_a - 1e-12) & (t_arr <= self.t_b + 1e-12)):
            raise DomainError(f"t outside pair window [{self.t_a}, {self.t_b}]")
        ts = np.clip(t_arr.ravel(), self.t_a, self.t_b)
        # side="right": the state after a kick at that very time, and at t_b
        k = np.searchsorted(self.node_t, ts, side="right") - 1
        y = self.node_y[k]
        part = ts > self.node_t[k]
        if np.any(part):
            y[part] = _magnus(self.profile, self.node_t[k[part]], ts[part])[0] @ y[part]
        return np.stack([y[:, 0, 0], y[:, 1, 0], y[:, 0, 1], y[:, 1, 1]]).reshape((4,) + t_arr.shape)

    def combination(self, f_a: float, fdot_a: float) -> SolutionCurve:
        """The solution with initial data f(t_a)=f_a, f'(t_a)=fdot_a."""
        def f(t):
            s = self.state(t)
            return f_a * s[0] + fdot_a * s[2]

        def fdot(t):
            s = self.state(t)
            return f_a * s[1] + fdot_a * s[3]

        return SolutionCurve(f, fdot, f"{f_a}*u + {fdot_a}*v")

    def focal_count(self, t_end: float, v_end: float) -> int:
        """Number of zeros of v in the open interval (t_a, t_end).

        v_end = v(t_end).  Counts sign changes of v along the nodes before
        t_end, starting from v > 0 just after t_a (v' = 1 there) and ending
        at v_end.  Exact whenever no node interval holds two zeros: zeros of
        v between impulses lie at least pi / max(omega) apart, and
        solve_fundamental's node intervals keep omega h <= 1/2.
        """
        inner = self.node_y[1:np.searchsorted(self.node_t, t_end, side="left"), 0, 1]
        signs = np.sign(np.concatenate(([1.0], inner, [v_end])))
        signs = signs[signs != 0.0]
        return int(np.count_nonzero(signs[1:] != signs[:-1]))

    @cached_property
    def wronskian_drift(self) -> float:
        """max |u v' - u' v - 1| over 100 uniform sample times."""
        u, ud, v, vd = self.state(np.linspace(self.t_a, self.t_b, 100))
        return float(np.max(np.abs(u * vd - ud * v - 1.0)))


def _magnus(profile: FrequencyProfile, t0: np.ndarray, t1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sixth-order Gauss Magnus steps of y' = [[0, 1], [-omega^2, 0]] y from t0 to t1.

    Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 151 (2009): omega^2 is
    evaluated at each step's three Gauss nodes, in one array call, and never
    at its ends; Omega's commutators are written out entry by entry.  Returns
    the step matrices, shape (n, 2, 2), and the largest |omega^2| at each
    step's nodes.
    """
    h = t1 - t0
    wl, wm, wr = profile.smooth_omega_squared(0.5 * (t0 + t1) + np.multiply.outer(_GAUSS, h))
    # Omega = A1 + A3/12 + [X, A2 + C2]/240 with X = -20 A1 - A3 + C1, C1 = [A1, A2] = (p, 0, 0),
    # C2 = [A1, 2 A3 + C1]/-60 = (q0, q1, q2), A1 = (0, h, hw), A2 = (0, 0, g2) and A3 = (0, 0, g3),
    # as (a, b, c) = [[a, b], [c, -a]] with [x, y] = (x1 y2 - y1 x2, 2 (x0 y1 - y0 x1),
    # 2 (y0 x2 - x0 y2)).  Only exact zero terms are dropped, in operand order: the same bits.
    hw = -h * wm
    g2 = -(math.sqrt(15.0) / 3.0) * h * (wr - wl)
    g3 = -(10.0 / 3.0) * h * (wr - 2.0 * wm + wl)
    p = h * g2
    q0, q1, q2 = h * (2.0 * g3) / -60.0, 2.0 * -(p * h) / -60.0, 2.0 * (p * hw) / -60.0
    x1, x2, y2 = -20.0 * h, -20.0 * hw - g3, g2 + q2  # X = (p, x1, x2), A2 + C2 = (q0, q1, y2)
    a = (x1 * y2 - q1 * x2) / 240.0
    b = h + 2.0 * (p * q1 - q0 * x1) / 240.0
    c = hw + g3 / 12.0 + 2.0 * (q0 * x2 - p * y2) / 240.0
    # Omega is traceless: exp(Omega) = cosh(r) I + (sinh(r) / r) Omega with
    # r^2 = -det Omega, cos and sin for r^2 < 0; its determinant is 1
    d = a * a + b * c
    r = np.sqrt(np.abs(d))
    ch = np.where(d < 0, np.cos(r), np.cosh(r))
    sh = np.where(r > 0, np.where(d < 0, np.sin(r), np.sinh(r)) / np.where(r > 0, r, 1.0), 1.0)
    mats = np.stack([ch + sh * a, sh * b, sh * c, ch - sh * a], axis=-1)
    return mats.reshape(h.shape + (2, 2)), np.max(np.abs([wl, wm, wr]), axis=0)


def _dyadic(t0: np.ndarray, t1: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2^k sub-steps of each step t0 -> t1, from k rounds of the midpoints bisection takes.

    The steps with k = 0 come first, in their order.
    """
    for _ in range(int(k.max(initial=0))):
        split = k > 0
        mid = 0.5 * (t0[split] + t1[split])
        t0, t1 = np.concatenate([t0[~split], t0[split], mid]), np.concatenate([t1[~split], mid, t1[split]])
        k = np.concatenate([k[~split], k[split] - 1, k[split] - 1])
    return t0, t1


def solve_fundamental(profile: FrequencyProfile, t_a: float, t_b: float,
                      tol: float = 1e-10) -> FundamentalPair:
    """The fundamental pair on [t_a, t_b] from sixth-order Gauss Magnus steps.

    Each segment between jump events and breakpoints starts from
    _INITIAL_STEPS uniform steps.  A step passes when its one-step and
    two-half-step matrices differ by at most budget h in each entry, with
    budget = 63 tol / (t_b - t_a) (relative to entries above 1, so roundoff
    in omega-sized entries passes), which bounds its halves' error by
    tol h / (t_b - t_a), and omega h <= 1, so that no step holds two zeros
    of v; it then contributes its two halves.  A failing step is cut into
    the 2^k sub-steps that k levels of bisection reach, with
    k = ceil(max(log2(err / (budget h)) / 6, log2(omega h))) in
    [1, _MAX_SPLIT], and 1 where err is not finite: err shrinks like h^7
    against a budget like h.  So every node of plain bisection is a node
    here.  Each level is one _magnus call, for the halves of every step and
    the whole of each fresh sub-step.  A kick [[1, 0], [-strength, 1]] is a
    zero-length step.  One prefix product gives the state at the step ends,
    the pair's nodes; between them the state is a partial step from the node
    before.  Raises DomainError on a bad window (from profile.jump_events) or
    a tol that is not positive and finite, and StepFailure when the halves of
    the initial steps, or the steps passed and the halves of the sub-steps
    left (naming the worst step), would pass _MAX_STEPS.
    """
    check_positive("tol", tol)
    kicks = {e.time: e.strength for e in profile.jump_events(t_a, t_b)}
    boundaries = sorted({t_a, t_b, *kicks, *profile.breakpoints(t_a, t_b)})
    edges = [np.linspace(lo, hi, _INITIAL_STEPS + 1) for lo, hi in zip(boundaries[:-1], boundaries[1:])]
    t0, t1 = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
    no_mesh = f"no mesh of at most {_MAX_STEPS} steps meets tol={tol} on [{t_a}, {t_b}]"
    if 2 * t0.size > _MAX_STEPS:
        raise StepFailure(f"{no_mesh}: its {t0.size} initial steps alone are too many")
    budget = 63.0 * tol / (t_b - t_a)
    times = np.array(sorted(kicks))
    steps = [(times, times, np.array([[[1.0, 0.0], [-kicks[k], 1.0]] for k in times]).reshape(-1, 2, 2))]
    n_accepted = 0
    full = np.empty((0, 2, 2))  # whole-step matrices of the leading steps; the rest are fresh
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # failing steps may overflow
        while True:
            h, n, m = t1 - t0, t0.size, len(full)
            mid = 0.5 * (t0 + t1)
            mats, w2max = _magnus(profile, np.concatenate([t0, mid, t0[m:]]), np.concatenate([mid, t1, t1[m:]]))
            left, right, full = mats[:n], mats[n:2 * n], np.concatenate([full, mats[2 * n:]])
            err = np.max(np.abs(full - right @ left) / np.maximum(1.0, np.abs(full)), axis=(1, 2))
            wh = h * np.sqrt(np.maximum(w2max[:n], w2max[n:2 * n]))
            ok = (err <= budget * h) & (wh <= 1.0)
            steps += [(t0[ok], mid[ok], left[ok]), (mid[ok], t1[ok], right[ok])]
            n_accepted += 2 * np.count_nonzero(ok)
            bad = ~ok
            # levels to skip: 2^k sub-steps cut err ~ h^7 against a budget ~ h by 2^(6k), omega h by 2^k
            r = np.maximum(np.log2(err / (budget * h)) / 6.0, np.log2(wh))
            k = np.where(np.isfinite(r), np.clip(np.ceil(r), 1, _MAX_SPLIT), 1).astype(int)[bad]
            if n_accepted + np.sum(2 << k) > _MAX_STEPS:
                w = int(np.argmax(r))  # a non-finite err counts as the worst
                raise StepFailure(f"{no_mesh}; the worst step, from t={float(t0[w])!r} to t={float(t1[w])!r}, "
                                  f"has error {err[w] / (budget * h[w]):.3g} times its budget and "
                                  f"omega h = {wh[w]:.3g}")
            if not k.size:
                break
            # a rejected step's halves, whose whole-step matrices are known, cut by the levels left to skip
            skip = np.concatenate([k, k]) - 1
            t0, t1 = _dyadic(np.concatenate([t0[bad], mid[bad]]), np.concatenate([mid[bad], t1[bad]]), skip)
            full = np.concatenate([left[bad], right[bad]])[skip == 0]
        lo, hi, mats = (np.concatenate(x) for x in zip(*steps))
        order = np.lexsort((hi, lo))  # a kick precedes the step that starts at its time
        mats = mats[order]
        shift = 1
        while shift < len(mats):  # prefix product: mats[k] becomes step k times ... step 0
            mats[shift:] = mats[shift:] @ mats[:-shift]
            shift *= 2
    if not np.all(np.isfinite(mats)):
        raise StepFailure(f"the fundamental pair overflows on [{t_a}, {t_b}]")
    node_t = np.concatenate([[t_a], hi[order]])
    node_y = np.concatenate([np.eye(2)[None], mats])
    return FundamentalPair(profile, float(t_a), float(t_b), node_t, node_y, tuple(sorted(kicks)))


def closed_form(profile: FrequencyProfile) -> ClosedFormSolution | None:
    """Reference solution for the five analytic families, None otherwise.

    Entries with satisfies_equation=False are quoted forms kept for
    comparison; verify_solution grades them FAIL and the numerical path is
    authoritative.
    """
    if isinstance(profile, Constant):
        w0 = profile.omega0
        return ClosedFormSolution(
            f=lambda t: np.cos(w0 * t),
            fdot=lambda t: -w0 * np.sin(w0 * t),
            label=f"cos({w0}*t)")

    if isinstance(profile, ExpDecay):
        w0, a = profile.omega0, profile.alpha

        def z(t):
            return (2.0 * w0 / a) * np.exp(-0.5 * a * t)

        return ClosedFormSolution(
            f=lambda t: specfun.bessel_j(0.0, z(t)),
            fdot=lambda t: 0.5 * a * z(t) * specfun.bessel_j(1.0, z(t)),
            label="J0(2 w0/a exp(-a t/2))")

    if isinstance(profile, PowerLaw):
        w0, a, b = profile.omega0, profile.alpha, profile.beta
        if w0 == 0.0:
            return None
        c = w0 * a ** b
        nu = 1.0 / (b + 2.0)

        def z(t):
            return (2.0 * c / (b + 2.0)) * t ** (0.5 * (b + 2.0))

        def refuse(t, outside) -> None:
            bad = np.asarray(t)[outside]
            if bad.size:
                raise DomainError(f"power-law solution is defined for t > 0, got t={float(bad[0])}")

        def f(t):
            refuse(t, t < 0.0)  # sqrt(0) J_nu(0) = 0: J_nu(0) = 0 for nu > 0
            return np.sqrt(t / c) * specfun.bessel_j(nu, z(t))

        def fdot(t):
            refuse(t, t <= 0.0)
            zz = z(t)
            jn = specfun.bessel_j(nu, zz)
            # J'_nu = (nu/z) J_nu - J_{nu+1}, keeping orders nonnegative
            jprime = (nu / zz) * jn - specfun.bessel_j(nu + 1.0, zz)
            return (0.5 / np.sqrt(t * c)) * jn + np.sqrt(t / c) * jprime * c * t ** (0.5 * b)

        return ClosedFormSolution(f=f, fdot=fdot, label="sqrt(t/c) J_nu(z(t))")

    if isinstance(profile, DeltaPulse):
        w0, t0 = profile.omega0, profile.t0

        def f(t):
            return np.exp(w0 * abs(t - t0))

        def fdot(t):
            sign = 2.0 * (t >= t0) - 1.0  # +1 from t0 on: right-continuous at the kink
            return w0 * sign * np.exp(w0 * abs(t - t0))

        return ClosedFormSolution(
            f=f, fdot=fdot, label="exp(w0 |t - t0|)",
            satisfies_equation=False,
            note="quoted reference form; direct substitution leaves an O(1) "
                 "residual on both sides of t0 for generic omega0, and the "
                 "derivative jump at t0 has the wrong size. Use the numerical "
                 "solver for anything quantitative.")

    if isinstance(profile, SechSquared):
        al, be, t0 = profile.alpha, profile.beta, profile.t0
        # lambda(lambda+1) = -alpha^2: conical -1/2 + i mu from alpha = 1/2 on
        degree = complex(-0.5, math.sqrt(al * al - 0.25)) if al >= 0.5 else \
            -0.5 - math.sqrt(0.25 - al * al)

        def x(t):
            return np.tanh(be * (t - t0))

        def f(t):
            return specfun.legendre_p(degree, x(t))

        def fdot(t):
            xx = x(t)
            return specfun.legendre_p_dx(degree, xx) * be * (1.0 - xx * xx)

        return ClosedFormSolution(
            f=f, fdot=fdot, label="P_lambda(tanh(beta (t - t0)))",
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
_SPOT_H = 1e-4  # spot_check_solution's difference step on windows of 20 _SPOT_H and more


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
    events = profile.jump_events(a, b)
    n_samples = check_count("n_samples", n_samples)
    if not (0 < h < 0.25 * (b - a)):
        raise DomainError(f"step h={h} does not fit the window {window}")
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

    inner = [e for e in events if a + 3.0 * h < e.time < b - 3.0 * h]
    jumps = []
    if inner:
        t0, strength = np.array([(e.time, e.strength) for e in inner]).T
        # f' at t0 + step/2, t0 + step, t0 - step/2, t0 - step, for step h and h/2
        offsets = np.outer([h, 0.5 * h], [0.5, 1.0, -0.5, -1.0])
        fd = np.broadcast_to(sol.fdot(t0[:, None, None] + offsets), (t0.size, 2, 4))
        kick = strength * np.broadcast_to(sol.f(t0), t0.shape)
        # one-sided first-order Richardson for f'(t0 +/- 0)
        m = np.abs((2.0 * fd[..., 0] - fd[..., 1]) - (2.0 * fd[..., 2] - fd[..., 3]) + kick[:, None])
        ok = m[:, 1] <= np.maximum(0.75 * m[:, 0], 1e-8 * np.maximum(1.0, np.abs(kick)))
        jumps = [(e.time, float(m1), float(m2), bool(k))  # plain floats and bools for JSON
                 for e, (m1, m2), k in zip(inner, m, ok)]

    passed = all(j[3] for j in jumps) and (floor_hit or 1.5 <= slope <= 2.6)
    note = "residual at roundoff floor" if floor_hit else ""
    return ResidualReport(window=(a, b), h=h, max_residual=r1, worst_t=worst_t,
                          max_residual_refined=r2, slope=slope,
                          calibration_c=r1 / (h * h),
                          jump_mismatches=jumps, passed=passed, note=note)


def spot_check_solution(profile: FrequencyProfile, sol: SolutionCurve,
                        t_a: float, t_b: float, rel_tol: float = 1e-2) -> None:
    """Cheap residual probe at seven interior points.

    The residual is that of verify_solution at the one step
    h = min(_SPOT_H, (t_b - t_a)/20), at times at least 5h from the window's
    ends and from its jump events.  Raises SolutionMismatch when it exceeds
    rel_tol anywhere; used as a guard before trusting a caller-provided
    solution.  The second difference's roundoff, about 4 eps / h^2, must
    stay below rel_tol, so a window shorter than 40 sqrt(eps / rel_tol)
    raises DomainError.
    """
    events = profile.jump_events(t_a, t_b)
    shortest = 40.0 * math.sqrt(np.finfo(float).eps / rel_tol)
    if t_b - t_a < shortest:
        raise DomainError(f"window [{t_a}, {t_b}] is too short for the residual probe "
                          f"at rel_tol={rel_tol}; it needs a span of at least {shortest:.3e}")
    h = min(_SPOT_H, (t_b - t_a) / 20.0)
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
    """The window's fundamental pair, once sol passes as a nonzero solution on it.

    A pair is fixed by its initial data, so sol is only checked, never used:
    the result is solve_fundamental(profile, t_a, t_b, tol).  Raises
    SolutionMismatch if sol does not actually solve the equation, then
    DegenerateSolution if it is numerically the zero solution at t_a.
    """
    spot_check_solution(profile, sol, t_a, t_b)
    f_a, fdot_a = sol.f(t_a), sol.fdot(t_a)
    if max(abs(f_a), abs(fdot_a)) <= 1e-6:
        raise DegenerateSolution(
            f"solution has f(t_a)={f_a:.3e}, f'(t_a)={fdot_a:.3e}; it is numerically zero")
    return solve_fundamental(profile, t_a, t_b, tol)
