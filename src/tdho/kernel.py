"""Exact propagator of the time-dependent harmonic oscillator from one classical solution.

Two equivalent routes to K(q_b, t_b; q_a, t_a):

  * kernel_eq17 — the solution-scaled form.  Any classical solution f with no
    zeros in the window works; it needs the accumulated quadrature
    W = int dt / f(t)^2 over the window, which gives the fundamental pair's
    end, v_b = f_a f_b W and the rest (kernel_eq17's docstring), and then
    the endpoint form below.  Algebraically the result is independent of
    which f is used, which compare-against-kernel_robust tests exercise
    numerically.
  * kernel_robust — the endpoint form in terms of the fundamental pair:

        K = e^{-i pi/4 - i n pi/2} sqrt(mu / (2 pi |v_b|)) *
            exp{ i mu/(2 v_b) (vdot_b q_b^2 + u_b q_a^2 - 2 q_a q_b) }

    No quadrature and no zero-free requirement away from the endpoint; the
    only breakdown is v_b = 0, the focal point, where the kernel degenerates
    to a delta function and we refuse to evaluate (CausticAtEndpoint).

Maslov convention: n is the number of focal points (interior zeros of v)
strictly inside the window, counted exactly from the classical solver's
steps.  Each one adds -pi/2 to the prefactor's phase (Horvathy, Int. J.
Theor. Phys. 18, 245 (1979); Rezende, J. Math. Phys. 25, 3264 (1984)).
_kernel computes it as the principal root sqrt(mu / (2 pi i v_b)) times a
sign s = maslov_sign(n): -1 when n mod 4 is 1 or 2 and +1 otherwise;
caustic-free windows get s = 1 and the principal branch.  The prefactor is
right on either side of a focal point.

Reported phases are "unwrapped": -pi/4 - n pi/2 plus the full quadratic form
divided by 2 v_b, NOT reduced mod 2 pi, so phase differences between nearby
arguments are smooth.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .classical import (FundamentalPair, SolutionCurve, solve_fundamental,
                        spot_check_solution)
from .errors import (CausticAtEndpoint, CausticInWindow, DomainError, StepFailure,
                     check_positive)
from .freq_profile import FrequencyProfile, Times

__all__ = [
    "KernelValue", "maslov_sign", "compute_W", "kernel_eq17",
    "kernel_robust", "kernel", "kernel_batch", "schrodinger_residual",
]

_ENDPOINT_CAUSTIC_REL = 1e-12
_W_RTOL = 1e-10
_RESIDUAL_TOL = 1e-12


@dataclass
class KernelValue:
    k: complex
    modulus: float
    phase: float               # unwrapped, see module docstring
    caustic_flag: bool = False  # informational: n_focal > 0
    diagnostics: dict = field(default_factory=dict)


def _zero_scan_grid(profile: FrequencyProfile, t_a: float, t_b: float) -> np.ndarray:
    # at least ~40 samples per oscillation period so no zero slips between nodes
    span = t_b - t_a
    probe = np.linspace(t_a, t_b, 33)
    try:
        w2 = profile.smooth_omega_squared(probe)
    except DomainError:  # an end outside the domain, e.g. t = 0 of a power law with beta < 0 or of log(t)
        w2 = profile.smooth_omega_squared(probe[1:-1])
    w2max = float(np.max(np.abs(w2)))
    n = max(400, int(40.0 * span * math.sqrt(w2max) / (2.0 * math.pi)) + 1)
    return np.linspace(t_a, t_b, n)


def _first_zero(fvals: np.ndarray, ts: np.ndarray,
                f: Callable[[float], float]) -> float | None:
    """The scan's earliest zero, or None: a node where |f| is 0 or grazes 0
    (below 1e-8 of its largest value), or the root of a sign flip between
    nodes i and i+1, which lies past node i.  brentq runs only when the
    first flip comes before the first such node."""
    flips = np.flatnonzero(np.sign(fvals[:-1]) * np.sign(fvals[1:]) < 0)
    nodes = np.flatnonzero((fvals == 0.0) | (np.abs(fvals) < 1e-8 * np.max(np.abs(fvals))))
    first_node = nodes[0] if nodes.size else ts.size
    if flips.size and flips[0] < first_node:
        from scipy.optimize import brentq  # local: only a refused zero needs it
        return float(brentq(f, ts[flips[0]], ts[flips[0] + 1], xtol=1e-14))
    return float(ts[first_node]) if nodes.size else None


def compute_W(f: Callable[[Times], Times], t_a: float, t_b: float,
              profile: FrequencyProfile) -> tuple[float, float]:
    """Quadrature W = int_{t_a}^{t_b} dt / f(t)^2, with a zero pre-scan.

    f takes a float or an ndarray of times, as SolutionCurve.f does, and a
    constant result is broadcast.  The scan and the 21-point Gauss-Kronrod
    cubature pass whole arrays; only brentq, locating a zero that is then
    refused, passes one time, so curves need no fast path for it.  Returns
    (W, abserr).  Raises CausticInWindow at the first zero of f (the
    integrand is non-integrable there and the solution-scaled kernel form
    does not apply), StepFailure if the quadrature does not converge.
    profile's jump times are the quadrature's known kinks, and its frequency
    scale sets the scan density.
    """
    # local: no other route needs scipy.integrate, whose import (with the part
    # of scipy.optimize it pulls in) adds about 0.1 s to a cold start
    from scipy.integrate import cubature

    kinks = [e.time for e in profile.jump_events(t_a, t_b) if e.time < t_b]
    ts = _zero_scan_grid(profile, t_a, t_b)
    fvals = np.broadcast_to(f(ts), ts.shape)
    t_zero = _first_zero(fvals, ts, f)
    if t_zero is not None:
        raise CausticInWindow(t_zero)

    res = cubature(lambda x: 1.0 / np.broadcast_to(f(x[:, 0]), x.shape[:1]) ** 2,
                   [t_a], [t_b], rule="gk21", rtol=_W_RTOL, atol=0.0,
                   max_subdivisions=200, points=[[k] for k in kinks])
    if res.status != "converged":
        raise StepFailure(f"W quadrature on [{t_a}, {t_b}] did not converge: "
                          f"estimate {float(res.estimate)!r}, error estimate {float(res.error):.3e}")
    return float(res.estimate), float(res.error)


def kernel_eq17(profile: FrequencyProfile, sol: SolutionCurve,
                t_a: float, t_b: float, q_a: float, q_b: float,
                mu: float = 1.0) -> KernelValue:
    """Solution-scaled kernel form from a caller-provided zero-free solution.

    sol is first spot-probed against the classical equation at relative
    tolerance 1e-3 (SolutionMismatch otherwise).  A zero of sol in the window
    raises CausticInWindow; use kernel_robust to cross a focal point.  The
    paper's map v(t) = f_a f(t) int_{t_a}^t ds / f^2, u = (f - f'_a v) / f_a
    gives the fundamental pair's end from f's ends and W, with no focal point,
    and the endpoint form takes it from there.
    """
    check_positive("mu", mu)
    spot_check_solution(profile, sol, t_a, t_b, rel_tol=1e-3)
    w, w_err = compute_W(sol.f, t_a, t_b, profile)
    ends = np.array([t_a, t_b])
    f_a, f_b = np.broadcast_to(sol.f(ends), (2,)).tolist()
    fd_a, fd_b = np.broadcast_to(sol.fdot(ends), (2,)).tolist()
    v_b, vd_b = f_a * f_b * w, f_a * (fd_b * w + 1.0 / f_b)
    end = ((f_b - fd_a * v_b) / f_a, (fd_b - fd_a * vd_b) / f_a, v_b, vd_b, 0)
    return _kernel(t_a, t_b, end, q_a, q_b, mu, {"W": w, "W_abserr": w_err, "f_a": f_a,
                                                 "f_b": f_b, "fdot_a": fd_a, "fdot_b": fd_b})


def _refuse_focal_end(t_a: float, t_b: float, v_b: float) -> None:
    """Raise CausticAtEndpoint when |v_b| is at most 1e-12 of the window span
    (focal point: the kernel is a delta function there)."""
    if abs(v_b) <= _ENDPOINT_CAUSTIC_REL * (t_b - t_a):
        raise CausticAtEndpoint(t_b, v_b)


def _kernel(t_a: float, t_b: float, end: tuple[float, float, float, float, int],
            q_a: float | np.ndarray, q_b: float | np.ndarray, mu: float,
            diagnostics: dict) -> KernelValue:
    """The endpoint form at (q_a, q_b) from end = (u_b, u'_b, v_b, v'_b, n_focal),
    with its prefactor and unwrapped phase (module docstring)."""
    u_b, udot_b, v_b, vdot_b, n_focal = end
    _refuse_focal_end(t_a, t_b, v_b)
    # the principal root carries e^{-i pi/4} for v_b > 0 and e^{+i pi/4} for
    # v_b < 0; the Maslov factor differs from it by maslov_sign
    pref = maslov_sign(n_focal) * cmath.sqrt(mu / (2.0 * math.pi * 1j * v_b))
    quad_part = 0.5 * mu / v_b * (vdot_b * q_b ** 2 + u_b * q_a ** 2 - 2.0 * q_a * q_b)
    return KernelValue(k=pref * np.exp(1j * quad_part), modulus=abs(pref),
                       phase=-math.pi / 4.0 - n_focal * math.pi / 2.0 + quad_part,
                       caustic_flag=n_focal > 0, diagnostics=diagnostics)


def maslov_sign(n_focal: int) -> float:
    """-1 when n_focal mod 4 is 1 or 2, else 1: the principal root of a
    radicand that turns by pi per focal point (1 / (i v), and the thawed
    Gaussian's 1 / Q) times this is the continuous branch."""
    return -1.0 if n_focal % 4 in (1, 2) else 1.0


def kernel_robust(pair: FundamentalPair, q_a: float | np.ndarray,
                  q_b: float | np.ndarray, mu: float = 1.0) -> KernelValue:
    """Endpoint kernel form from the fundamental pair; valid across caustics.

    q_a and q_b are scalars or arrays of one broadcastable shape; k and phase
    take that shape.  The form reads pair.end, u_b, u'_b, v_b, v'_b and the
    focal count n_focal, which is exact: it is read from the signs of v at
    the classical solver's step ends, whose spacing stays well below that of
    the zeros.  diagnostics holds pair.end by name, n_focal as
    "interior_v_zeros".  Raises CausticAtEndpoint when |v_b| is at most 1e-12
    of the window span (focal point: the kernel is a delta function there).
    """
    check_positive("mu", mu)
    return _kernel(pair.t_a, pair.t_b, pair.end, q_a, q_b, mu,
                   dict(zip(("u_b", "udot_b", "v_b", "vdot_b", "interior_v_zeros"), pair.end)))


def kernel(profile: FrequencyProfile, t_a: float, t_b: float,
           q_a: float, q_b: float, mu: float = 1.0,
           tol: float = 1e-10) -> KernelValue:
    """One-call propagator: solve the fundamental pair, apply the endpoint form."""
    pair = solve_fundamental(profile, t_a, t_b, tol)
    return kernel_robust(pair, q_a, q_b, mu)


def kernel_batch(pair: FundamentalPair, q_a: np.ndarray, q_b: np.ndarray,
                 mu: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Vectorized endpoint form over paired endpoint arrays.

    Returns (k, modulus, phase, caustic_flag); the pair is solved once and
    the per-point work is elementwise arithmetic.  modulus holds the one |K|
    of every pair, broadcast to q_a's shape and read-only.
    """
    qa = np.asarray(q_a, dtype=float)
    qb = np.asarray(q_b, dtype=float)
    if qa.shape != qb.shape:
        raise DomainError(f"q_a shape {qa.shape} != q_b shape {qb.shape}")
    kv = kernel_robust(pair, qa, qb, mu)
    return kv.k, np.broadcast_to(kv.modulus, qa.shape), kv.phase, kv.caustic_flag


def schrodinger_residual(profile: FrequencyProfile, t_a: float, t_b: float,
                         q_a: float, q_b: float, mu: float = 1.0,
                         h_t: float = 1e-2, h_q: float = 1e-2) -> float:
    """Normalized defect of K in the time-dependent Schrodinger equation.

    Central differences in t_b and q_b of the endpoint-form kernel:

        | i dK/dt_b + (1/2mu) d^2K/dq_b^2 - (mu/2) omega^2(t_b) q_b^2 K | / |K|

    evaluated at one step size; an exact kernel leaves an O(h^2) remainder,
    so halving h_t and h_q should shrink the result fourfold.  The windows
    [t_a, t_b - h_t], [t_a, t_b] and [t_a, t_b + h_t] are each solved and
    read at their end.  DomainError refuses an h_t that leaves
    [t_a, t_b - h_t] empty or is below the float spacing at t_b, and a jump
    event in (t_b - h_t, t_b + h_t], one the t-derivative would straddle.
    """
    check_positive("h_t", h_t)
    check_positive("h_q", h_q)
    pair = solve_fundamental(profile, t_a, t_b, _RESIDUAL_TOL)
    if not t_a < t_b - h_t:
        raise DomainError(f"h_t = {h_t!r} leaves [t_a, t_b - h_t] empty on the window [{t_a}, {t_b}]")
    if h_t < math.ulp(t_b):
        raise DomainError(f"h_t = {h_t!r} is below the float spacing {math.ulp(t_b):.3e} "
                          f"at t_b on the window [{t_a}, {t_b}]")
    t_lo, t_hi = t_b - h_t, t_b + h_t
    kicks = profile.jump_events(t_lo, t_hi)
    if kicks:
        raise DomainError(f"jump event at {kicks[0].time} in (t_b - h_t, t_b + h_t] = "
                          f"({t_lo}, {t_hi}]: the t-derivative would straddle it")
    before, after = (solve_fundamental(profile, t_a, t, _RESIDUAL_TOL) for t in (t_lo, t_hi))
    km, k0, kp = kernel_robust(pair, q_a, q_b + np.array([-h_q, 0.0, h_q]), mu).k
    # divided by the span of the two times as rounded, which near t_b's float
    # spacing is not 2 h_t
    dt = (kernel_robust(after, q_a, q_b, mu).k - kernel_robust(before, q_a, q_b, mu).k) / (t_hi - t_lo)
    d2q = (kp - 2.0 * k0 + km) / (h_q * h_q)
    w2 = profile.smooth_omega_squared(t_b)
    defect = 1j * dt + d2q / (2.0 * mu) - 0.5 * mu * w2 * q_b ** 2 * k0
    return abs(defect) / abs(k0)
