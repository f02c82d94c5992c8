"""Exact propagator of the time-dependent harmonic oscillator from one classical solution.

Two equivalent routes to K(q_b, t_b; q_a, t_a):

  * kernel_eq17 — the solution-scaled form.  Any classical solution f with no
    zeros in the window works; it needs the accumulated quadrature
    W = int dt / f(t)^2 over the window.  Algebraically the result is
    independent of which f is used (the combination f_a f_b W and the
    boundary ratios conspire), which compare-against-kernel_robust tests
    exercise numerically.
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
endpoint() computes it as the principal root sqrt(mu / (2 pi i v_b)) times a
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
from scipy.integrate import cubature
from scipy.optimize import brentq

from .classical import (FundamentalPair, SolutionCurve, solve_fundamental,
                        spot_check_solution)
from .errors import (CausticAtEndpoint, CausticInWindow, DomainError, StepFailure,
                     check_positive)
from .freq_profile import FrequencyProfile, Times

__all__ = [
    "KernelValue", "Endpoint", "endpoint", "maslov_sign", "compute_W", "kernel_eq17",
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


@dataclass(frozen=True)
class Endpoint:
    """A window's classical endpoint data, from which every kernel route reads.

    u_b, udot_b, v_b, vdot_b are the fundamental pair at the window's end,
    n_focal the number of focal points strictly inside the window, and pref
    the kernel prefactor e^{-i pi/4 - i n_focal pi/2} sqrt(mu / (2 pi |v_b|)).
    """
    u_b: float
    udot_b: float
    v_b: float
    vdot_b: float
    n_focal: int
    pref: complex


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
    raises CausticInWindow; use kernel_robust to cross a focal point.
    """
    check_positive("mu", mu)
    spot_check_solution(profile, sol, t_a, t_b, rel_tol=1e-3)
    w, w_err = compute_W(sol.f, t_a, t_b, profile)
    ends = np.array([t_a, t_b])
    f_a, f_b = np.broadcast_to(sol.f(ends), (2,)).tolist()
    fd_a, fd_b = np.broadcast_to(sol.fdot(ends), (2,)).tolist()

    quad_part = 0.5 * mu * (fd_b / f_b * q_b ** 2 - fd_a / f_a * q_a ** 2)
    quad_part += 0.5 * mu / w * (q_b / f_b - q_a / f_a) ** 2
    # f has no zeros, so f_a f_b W = v_b > 0: no focal point, base -pi/4
    pref = cmath.sqrt(mu / (2.0 * math.pi * 1j * (f_a * f_b * w)))
    return KernelValue(k=pref * cmath.exp(1j * quad_part), modulus=abs(pref),
                       phase=-math.pi / 4.0 + quad_part,
                       diagnostics={"W": w, "W_abserr": w_err,
                                    "f_a": f_a, "f_b": f_b,
                                    "fdot_a": fd_a, "fdot_b": fd_b})


def endpoint(pair: FundamentalPair, mu: float = 1.0,
             t_end: float | None = None) -> Endpoint:
    """The window's endpoint data at t_end, with its focal count and prefactor.

    t_end defaults to the pair's right endpoint; any time inside the pair's
    window works, which makes finite-difference probes in t_b cheap.  Raises
    CausticAtEndpoint when |v(t_end)| is at most 1e-12 of the window span
    (focal point: the kernel is a delta function there).  This includes
    t_end = t_a, where v = 0 and the kernel is delta(q_b - q_a).

    n_focal is the number of focal points strictly inside (t_a, t_end).  The
    count is exact: it is read from the signs of v at the classical solver's
    step ends (FundamentalPair.focal_count), whose spacing stays well below
    that of the zeros.
    """
    check_positive("mu", mu)
    tb = pair.t_b if t_end is None else float(t_end)
    u_b, ud_b, v_b, vd_b = (float(x) for x in pair.state(tb))
    span = tb - pair.t_a
    if abs(v_b) <= _ENDPOINT_CAUSTIC_REL * span:
        raise CausticAtEndpoint(tb, v_b)

    n_focal = pair.focal_count(tb, v_b)
    # the principal root carries e^{-i pi/4} for v_b > 0 and e^{+i pi/4} for
    # v_b < 0; the Maslov factor differs from it by maslov_sign
    return Endpoint(u_b, ud_b, v_b, vd_b, n_focal,
                    maslov_sign(n_focal) * cmath.sqrt(mu / (2.0 * math.pi * 1j * v_b)))


def maslov_sign(n_focal: int) -> float:
    """-1 when n_focal mod 4 is 1 or 2, else 1: the principal root of a
    radicand that turns by pi per focal point (1 / (i v), and the thawed
    Gaussian's 1 / Q) times this is the continuous branch."""
    return -1.0 if n_focal % 4 in (1, 2) else 1.0


def kernel_robust(pair: FundamentalPair, q_a: float | np.ndarray,
                  q_b: float | np.ndarray, mu: float = 1.0,
                  t_end: float | None = None) -> KernelValue:
    """Endpoint kernel form from the fundamental pair; valid across caustics.

    q_a and q_b are scalars or arrays of one broadcastable shape; k and phase
    take that shape.  t_end and the CausticAtEndpoint refusal are as in
    endpoint().  diagnostics["interior_v_zeros"] is the focal count n_focal.
    """
    e = endpoint(pair, mu, t_end)
    quad_part = 0.5 * mu / e.v_b * (e.vdot_b * q_b ** 2 + e.u_b * q_a ** 2
                                    - 2.0 * q_a * q_b)
    return KernelValue(k=e.pref * np.exp(1j * quad_part), modulus=abs(e.pref),
                       phase=-math.pi / 4.0 - e.n_focal * math.pi / 2.0 + quad_part,
                       caustic_flag=e.n_focal > 0,
                       diagnostics={"u_b": e.u_b, "udot_b": e.udot_b,
                                    "v_b": e.v_b, "vdot_b": e.vdot_b,
                                    "interior_v_zeros": e.n_focal})


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
    the per-point work is elementwise arithmetic.
    """
    qa = np.asarray(q_a, dtype=float)
    qb = np.asarray(q_b, dtype=float)
    if qa.shape != qb.shape:
        raise DomainError(f"q_a shape {qa.shape} != q_b shape {qb.shape}")
    kv = kernel_robust(pair, qa, qb, mu)
    return kv.k, np.full_like(qa, kv.modulus), kv.phase, kv.caustic_flag


def schrodinger_residual(profile: FrequencyProfile, t_a: float, t_b: float,
                         q_a: float, q_b: float, mu: float = 1.0,
                         h_t: float = 1e-2, h_q: float = 1e-2) -> float:
    """Normalized defect of K in the time-dependent Schrodinger equation.

    Central differences in t_b and q_b of the endpoint-form kernel:

        | i dK/dt_b + (1/2mu) d^2K/dq_b^2 - (mu/2) omega^2(t_b) q_b^2 K | / |K|

    evaluated at one step size; an exact kernel leaves an O(h^2) remainder,
    so halving h_t and h_q should shrink the result fourfold.  Keep t_b away
    from jump events (the t-derivative straddles the kick otherwise).
    """
    check_positive("h_t", h_t)
    check_positive("h_q", h_q)
    pair = solve_fundamental(profile, t_a, t_b + h_t, _RESIDUAL_TOL)
    for e in pair.event_times:
        if abs(e - t_b) <= h_t:
            raise DomainError(f"t_b within h_t of jump event at {e}")

    def K(qb: float, te: float) -> complex:
        return kernel_robust(pair, q_a, qb, mu, t_end=te).k

    k0 = K(q_b, t_b)
    dt = (K(q_b, t_b + h_t) - K(q_b, t_b - h_t)) / (2.0 * h_t)
    d2q = (K(q_b + h_q, t_b) - 2.0 * k0 + K(q_b - h_q, t_b)) / (h_q * h_q)
    w2 = profile.smooth_omega_squared(t_b)
    defect = 1j * dt + d2q / (2.0 * mu) - 0.5 * mu * w2 * q_b ** 2 * k0
    return abs(defect) / abs(k0)
