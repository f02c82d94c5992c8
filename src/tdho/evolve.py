"""Wavepacket evolution: the kernel route and two independent checks.

propagate_kernel applies the exact propagator as an integral operator,

    psi_out(q_b) = int K(q_b, t_b; q, t_a) psi(q) dq
                 = P e^{i C q_b^2} int e^{i A q^2} e^{i B(q_b) q} psi(q) dq

with A = mu u_b/(2 v_b), B = -mu q_b/v_b, C = mu vdot_b/(2 v_b) and P the
prefactor kernel.endpoint computes, Maslov sign included.  A Gaussian input
skips the integral: Heller's thawed Gaussian (J. Chem. Phys. 62, 1544
(1975)) is exact for a quadratic Hamiltonian.  Its centre (q_t, p_t) and its
width pair (Q, P) follow the classical flow [[u, v/mu], [mu u', v']], and the
state picks up the phase (p_t q_t - p_0 q_0)/2; Q^{-1/2} is the principal
root times kernel.maslov_sign.  Nothing divides by v_b, so the Gaussian
route is valid on focal points too.  For everything else the oscillatory
factor e^{iBq} is handled with a Filon-type rule: g(q) = psi(q) e^{iAq^2} is
interpolated by piecewise cubics while the exponential is integrated
exactly, giving a composite rule

    int g e^{iBq} dq  ~=  h W(theta) sum_n e^{i B q_n} g_n,   theta = B h,

whose interior weight W(theta) -> 1 as theta -> 0 (plain Riemann) and stays
O(1) accurate for |theta| >> 1 where a naive rule aliases.  On the uniform
grid the sums for all q_b at once form a chirp-z transform: Bluestein's
identity q_b q = (q_b^2 + q^2 - (q_b - q)^2)/2 turns them into
chirp x FFT convolution x chirp, O(n log n) in the grid size.  Boundary weight
corrections are dropped: inputs must be negligible near the grid edges
anyway (GridTooNarrow enforces it), so the missing corrections act on
amplitudes below 1e-8.

crank_nicolson marches i dpsi/dt = H(t) psi directly (unitary, O(dt^2),
Dirichlet walls), one LAPACK tridiagonal solve per step.  It makes one march
over the whole window, reading omega^2 at all the steps' midpoints in one
call; the off-diagonals are rebuilt only when the step changes, the
diagonals when the step or omega^2 changes.  A matrix that serves a run of
steps is factored once (gttrf) and each step of the run solves with the
factors (gttrs); a matrix that serves one step is factored and solved in one
gtsv call.  time_sliced_oracle applies the short-time kernel composition
that defines the path integral, with O(1/n) convergence.  The three routes
share no mechanism, which is the point: agreement is evidence.  They share
one input check.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.linalg import get_lapack_funcs
from scipy.linalg import solve_banded  # noqa: F401  unused here; bench/tracing.py patches it (ROADMAP item 5)

from .classical import solve_fundamental
from .errors import (DomainError, GridMismatch, GridTooNarrow, StabilityWarning,
                     StepFailure, check_positive)
from .freq_profile import FrequencyProfile
from .kernel import endpoint, maslov_sign

__all__ = [
    "WavePacket", "GaussianState", "propagate_kernel", "crank_nicolson",
    "time_sliced_oracle", "max_slices", "compare", "uniform_grid",
]

_EDGE_BAND = 4       # grid points on each side treated as "edge"
_EDGE_AMPLITUDE = 1e-8


@dataclass(frozen=True)
class GaussianState:
    """Normalized Gaussian (2 pi sigma^2)^{-1/4} exp(-(q-qbar)^2/(4 sigma^2) + i kbar q)."""
    qbar: float = 0.0
    kbar: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        check_positive("sigma", self.sigma)

    def psi(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        norm = (2.0 * math.pi * self.sigma ** 2) ** -0.25
        return norm * np.exp(-((q - self.qbar) ** 2) / (4.0 * self.sigma ** 2)
                             + 1j * self.kbar * q)

    def on_grid(self, q: np.ndarray, t: float = 0.0) -> "WavePacket":
        return WavePacket(q=np.asarray(q, dtype=float), psi=self.psi(q), t=t,
                          gaussian=self)


@dataclass
class WavePacket:
    """State sampled on a uniform grid at one instant.

    gaussian, when set, certifies that psi is exactly that Gaussian; the
    kernel propagator then uses the thawed Gaussian instead of quadrature.
    Propagation outputs never carry the tag.
    """
    q: np.ndarray
    psi: np.ndarray
    t: float
    gaussian: GaussianState | None = None

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.q.ndim != 1 or self.q.shape != self.psi.shape:
            raise DomainError("q and psi must be 1-d arrays of equal length")
        if self.q.size < 2 * _EDGE_BAND + 4:
            raise DomainError(f"grid too small ({self.q.size} points)")
        d = np.diff(self.q)
        if not (np.isfinite(self.q).all() and d[0] > 0 and np.max(np.abs(d - d[0])) <= 1e-9 * d[0]):
            raise DomainError("grid must be finite, uniform and increasing")

    @property
    def dq(self) -> float:
        return float(self.q[1] - self.q[0])

    def norm(self) -> float:
        return math.sqrt(float(np.trapezoid(np.abs(self.psi) ** 2, self.q)))

    def mean_q(self) -> float:
        w = np.abs(self.psi) ** 2
        return float(np.trapezoid(w * self.q, self.q) / np.trapezoid(w, self.q))

    def mean_q2(self) -> float:
        w = np.abs(self.psi) ** 2
        return float(np.trapezoid(w * self.q ** 2, self.q) / np.trapezoid(w, self.q))


def uniform_grid(q_min: float, q_max: float, n: int) -> np.ndarray:
    if not (q_min < q_max and math.isfinite(q_max - q_min) and n >= 16):
        raise DomainError(f"need q_min < q_max with a finite span and n >= 16, got {q_min}, {q_max}, {n}")
    return np.linspace(q_min, q_max, n)


def _check_packet(packet: WavePacket, mu: float) -> None:
    """The input check the three grid routes share."""
    if not np.all(np.isfinite(packet.psi)):
        raise DomainError("psi has non-finite values")
    amp = np.abs(packet.psi)
    scale = float(np.max(amp))
    if scale == 0.0:
        raise DomainError("zero state")
    edge = max(float(np.max(amp[:_EDGE_BAND])), float(np.max(amp[-_EDGE_BAND:])))
    if edge > _EDGE_AMPLITUDE * scale:
        raise GridTooNarrow(
            f"|psi| reaches {edge:.2e} of peak near the grid edge; "
            f"widen the window (limit {_EDGE_AMPLITUDE:.0e})")
    check_positive("mu", mu)


# cubic Lagrange coefficients on nodes u = -1, 0, 1, 2 (rows: powers u^0..u^3)
_LAGRANGE = np.array([
    [0.0, -1.0 / 3.0, 0.5, -1.0 / 6.0],   # node -1
    [1.0, -0.5, -1.0, 0.5],               # node  0
    [0.0, 1.0, 0.5, -0.5],                # node  1
    [0.0, -1.0 / 6.0, 0.0, 1.0 / 6.0],    # node  2
])
_NODES = np.array([-1.0, 0.0, 1.0, 2.0])
_SERIES_TERMS = 24  # 1/23! < 1e-22: the series is converged for |theta| <= 1


def _filon_weight(theta: np.ndarray) -> np.ndarray:
    """Interior sample weight W(theta), elementwise; W(0) = 1.

    Built from the moments c_k(theta) = int_0^1 u^k e^{i theta u} du,
    k = 0..3, of the cubic's Lagrange basis.
    """
    theta = np.asarray(theta, dtype=float)
    c = np.empty((4,) + theta.shape, dtype=complex)
    small = np.abs(theta) <= 1.0
    # series sum_j (i theta)^j / (j! (k+j+1)); upward recursion in 1/theta
    # cancels badly here, the series does not
    it = 1j * theta[small]
    term = np.ones_like(it)  # (i theta)^j / j!
    total = np.zeros((4,) + it.shape, dtype=complex)
    for j in range(_SERIES_TERMS):
        total += term / (np.arange(1.0, 5.0) + j)[:, None]
        term = term * it / (j + 1)
    c[:, small] = total
    it = 1j * theta[~small]
    e = np.exp(it)
    ck = (e - 1.0) / it
    c[0, ~small] = ck
    for k in range(1, 4):
        ck = (e - k * ck) / it
        c[k, ~small] = ck
    m = np.tensordot(_LAGRANGE, c, axes=1)  # M_r for r = -1, 0, 1, 2
    return np.sum(m * np.exp(-1j * np.multiply.outer(_NODES, theta)), axis=0)


def propagate_kernel(profile: FrequencyProfile, packet: WavePacket, t_b: float,
                     mu: float = 1.0, tol: float = 1e-10) -> WavePacket:
    """Evolve packet from its own time to t_b through the exact kernel.

    A Gaussian input takes the thawed Gaussian, valid at every t_b; any
    other input takes the Filon route, which raises CausticAtEndpoint at a
    focal point.
    """
    _check_packet(packet, mu)
    pair = solve_fundamental(profile, packet.t, t_b, tol)
    q = packet.q

    if packet.gaussian is not None:
        # psi0 = N exp(i A0 (q - qbar)^2 / 2 + i kbar q): (q_t, p_t) and (Q, P)
        # flow from (qbar, kbar) and (1, A0); Im Q has v's sign, so Q != 0
        g = packet.gaussian
        u, ud, v, vd = (float(x) for x in pair.state(t_b))
        a0 = 0.5j / g.sigma ** 2
        big_q, big_p = u + v * a0 / mu, mu * ud + vd * a0
        q_t, p_t = u * g.qbar + v * g.kbar / mu, mu * ud * g.qbar + vd * g.kbar
        amp = maslov_sign(pair.focal_count(t_b, v)) * (2.0 * math.pi * g.sigma ** 2) ** -0.25 \
            / cmath.sqrt(big_q)
        d = q - q_t
        psi_out = amp * np.exp(0.5j * (big_p / big_q) * d ** 2 + 1j * p_t * d
                               + 0.5j * (p_t * q_t + g.kbar * g.qbar))
        return WavePacket(q=q, psi=psi_out, t=t_b)

    e = endpoint(pair, mu)  # endpoint caustic check happens here
    v_b, pref = e.v_b, e.pref
    a_coef = 0.5 * mu * e.u_b / v_b
    c_coef = 0.5 * mu * e.vdot_b / v_b

    # On the uniform grid q_b q = (q_b^2 + q^2 - (q_b - q)^2) / 2 with
    # q_b - q = h (j - m), so the Filon sum over e^{i beta q_b q} g(q),
    # beta = -mu / v_b, is chirp x (FFT convolution with a chirp) x chirp
    # (Bluestein's chirp-z identity): O(n log n) for all q_b at once.
    beta = -mu / v_b
    h = packet.dq
    n = q.size
    chirp = np.exp(0.5j * beta * q ** 2)
    g_samples = packet.psi * np.exp(1j * a_coef * q ** 2) * chirp
    kern = np.exp(-0.5j * beta * h * h * np.arange(1 - n, n) ** 2)
    m = fft.next_fast_len(2 * n - 1)  # circular wrap-around misses [n-1, 2n-1)
    sums = fft.ifft(fft.fft(g_samples, m) * fft.fft(kern, m))[n - 1:2 * n - 1] * chirp
    psi_out = pref * np.exp(1j * c_coef * q ** 2) * h * _filon_weight(beta * q * h) * sums
    return WavePacket(q=q, psi=psi_out, t=t_b)


def crank_nicolson(profile: FrequencyProfile, packet: WavePacket, t_b: float,
                   mu: float = 1.0, dt: float = 1e-3) -> WavePacket:
    """Unitary O(dt^2) finite-difference evolution on the packet's grid.

    One march covers the window.  Its steps fit each segment between jump
    events, and each impulse of strength s applies the exact phase
    exp(-i mu s q^2 / 2) after its segment's last step.  Consecutive steps
    with equal step and omega^2 share one LAPACK factorization, bit for bit
    the solve_banded result.  Walls are Dirichlet, so the grid must stay
    wide enough that nothing reaches them.
    """
    _check_packet(packet, mu)
    check_positive("dt", dt)

    strength = {e.time: e.strength for e in profile.jump_events(packet.t, t_b)}
    cuts = [packet.t] + sorted(strength) + ([t_b] if t_b not in strength else [])
    # the step schedule of every segment; each segment's start times are
    # summed as a march sums them, t += step, so that omega^2 takes one array
    # call at the same midpoints
    steps, starts, kicks = [], [], {}  # kicks: step index -> strength after it
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n_steps = max(1, math.ceil((hi - lo) / dt))
        step = (hi - lo) / n_steps
        steps += [step] * n_steps
        starts.append(np.add.accumulate(np.concatenate(([lo], np.full(n_steps - 1, step)))))
        if hi in strength:
            kicks[len(steps) - 1] = strength[hi]
    t = np.concatenate(starts)
    step_of = np.array(steps)
    w2s = profile.smooth_omega_squared(t + 0.5 * step_of)
    q = packet.q
    q2 = q ** 2
    # the scheme is unconditionally stable; warn when the potential phase
    # per step is order one, since accuracy is gone well before stability
    if float(np.max(step_of * np.abs(w2s))) * float(np.max(q2)) > 1.0:
        warnings.warn(StabilityWarning(
            "time step does not resolve the potential phase at the grid "
            "edges; results will be inaccurate (though not unstable)"))

    # a step with its predecessor's (step, omega^2) reuses its matrix; a run
    # of such steps factors it once (gttrf) and solves by gttrs, a matrix for
    # one step takes gtsv, which is cheaper than gttrf + gttrs
    fresh = np.append(True, (step_of[1:] != step_of[:-1]) | (w2s[1:] != w2s[:-1]))
    solo = fresh & np.append(fresh[1:], True)

    dq2 = (q[1] - q[0]) ** 2
    off = -1.0 / (2.0 * mu * dq2)
    kin = 1.0 / (mu * dq2)
    # I + i(step/2)H in solve_banded's layout: rows hold the super-, main and
    # sub-diagonal
    ab = np.zeros((3, q.size), dtype=complex)
    # gtsv (the routine solve_banded picks for a (1, 1) band) and gttrf factor
    # their input in place, so each factors a copy made into one buffer; the
    # right-hand side is built in two more (fresh buffers cost page faults on
    # every step at large n)
    lu = np.empty_like(ab)
    rhs, hop_psi = np.empty_like(packet.psi), np.empty_like(packet.psi)
    gtsv, gttrf, gttrs = get_lapack_funcs(("gtsv", "gttrf", "gttrs"), (ab,))
    psi = packet.psi
    step_prev = None
    for k, (step, w2) in enumerate(zip(steps, w2s)):
        if fresh[k]:
            if step != step_prev:  # the off-diagonals change only with the step
                half = 0.5j * step
                hop = half * off
                ab[0, 1:] = ab[2, :-1] = hop
                ab[0, 1] = ab[2, -2] = 0.0  # these zeros decouple the Dirichlet walls exactly
                step_prev = step
            ih = half * (kin + 0.5 * mu * w2 * q2)
            explicit = 1.0 - ih
            ab[1] = 1.0 + ih
            ab[1, 0] = ab[1, -1] = 1.0  # Dirichlet walls
            lu[...] = ab
            if not solo[k]:
                *factors, info = gttrf(lu[2, :-1], lu[1], lu[0, 1:], overwrite_dl=True,
                                       overwrite_d=True, overwrite_du=True)
        # hop * psi once, its two shifted slices subtracted: each element sees
        # explicit * psi - hop * psi_left - hop * psi_right in that order
        np.multiply(hop, psi, out=hop_psi)
        np.multiply(explicit, psi, out=rhs)
        rhs[1:] -= hop_psi[:-1]
        rhs[:-1] -= hop_psi[1:]
        rhs[0] = rhs[-1] = 0.0  # Dirichlet walls
        if solo[k]:
            psi, info = gtsv(lu[2, :-1], lu[1], lu[0, 1:], rhs, overwrite_dl=True,
                             overwrite_d=True, overwrite_du=True, overwrite_b=True)[3:]
        else:
            psi = gttrs(*factors, rhs, overwrite_b=True)[0]
        if info:  # I + i(step/2)H with real H is never singular for finite input
            raise StepFailure(f"tridiagonal solve failed (info={info}) at t={float(t[k])!r}")
        if k in kicks:
            psi = psi * np.exp(-0.5j * mu * kicks[k] * q2)
    return WavePacket(q=q, psi=psi, t=t_b)


def max_slices(packet: WavePacket, t_b: float, mu: float = 1.0) -> int:
    """Most slices time_sliced_oracle accepts from the packet's time to t_b.

    The grid resolves the slice kernel while mu * span * dq / eps <= pi,
    with span the grid's extent and eps the slice length.  A t_b at or
    before the packet's time raises DomainError.
    """
    check_positive("mu", mu)
    if t_b <= packet.t:
        raise DomainError(f"need t_b after the packet's time t={packet.t}, got t_b={t_b}")
    limit = math.pi * (t_b - packet.t) / (mu * (packet.q[-1] - packet.q[0]) * packet.dq)
    if not math.isfinite(limit):
        raise DomainError(f"no slice limit from t={packet.t} to t_b={t_b}")
    return int(limit)


def time_sliced_oracle(profile: FrequencyProfile, packet: WavePacket, t_b: float,
                       n_slices: int, mu: float = 1.0) -> WavePacket:
    """Short-time kernel composition (the path-integral definition).

    n_slices kernel applications with eps = (t_b - t)/n_slices; slice j
    carries the free spreading factor and the potential phase sampled at the
    slice's right edge t_j (right Riemann), so the error is O(1/n).  An
    impulse at t0 applies its exact phase with the slice containing t0.

    Each free hop is the grid sum psi(q) <- sum_m K_eps(q, q_m) psi(q_m) h,
    evaluated as an FFT convolution (the sum is Toeplitz in q - q_m).  The
    chirp K_eps must be resolved by the grid: its phase advances by
    mu L h / eps radians per sample at the largest separation L, and once
    that exceeds pi the aliased tails feed back coherently and grow
    exponentially with the slice count.  DomainError enforces the bound
    rather than returning garbage — refine the grid or lower n_slices.
    """
    _check_packet(packet, mu)
    if n_slices < 1:
        raise DomainError("n_slices must be >= 1")
    events = profile.jump_events(packet.t, t_b)
    limit = max_slices(packet, t_b, mu)
    eps = (t_b - packet.t) / n_slices
    q = packet.q
    h = packet.dq
    n = q.size

    if n_slices > limit:
        span = q[-1] - q[0]
        rate = mu * span * h / eps  # chirp phase advance per sample, worst case
        # on the same extent dq = span/(n-1), so the grid needs n-1 >= mu*span^2/(pi*eps)
        raise DomainError(
            f"grid cannot resolve the slice kernel: mu*span*dq/eps = {rate:.2f} "
            f"> pi; use at most n_slices = {limit} "
            f"on this grid, or at least {math.ceil(mu * span ** 2 / (math.pi * eps)) + 1} points")

    pref = cmath.sqrt(mu / (2.0 * math.pi * 1j * eps))
    offsets = np.arange(-(n - 1), n) * h
    kern = pref * h * np.exp(0.5j * mu * offsets ** 2 / eps)
    m = fft.next_fast_len(2 * n - 1)  # circular wrap-around misses [n-1, 2n-1)
    kern_hat = fft.fft(kern, m)

    impulse_slice: dict[int, float] = {}
    for e in events:
        j = max(1, math.ceil((e.time - packet.t) / eps - 1e-12))
        impulse_slice[j] = impulse_slice.get(j, 0.0) + e.strength

    # omega^2 at every slice's right edge t_j, in one call
    w2s = profile.smooth_omega_squared(packet.t + np.arange(1, n_slices + 1) * eps)
    # the phases go into one buffer and multiply psi, a view of each slice's
    # own convolution output, in place (fresh arrays cost page faults on
    # every slice at large n)
    q2 = q ** 2
    phase = np.empty(n, dtype=complex)
    psi = packet.psi
    w2_prev = None
    for j, w2 in enumerate(w2s, 1):
        psi = fft.ifft(fft.fft(psi, m) * kern_hat)[n - 1:2 * n - 1]
        if w2 != w2_prev:  # the potential phase changes only with omega^2
            np.exp(np.multiply(-0.5j * eps * mu * w2, q2, out=phase), out=phase)
            w2_prev = w2
        psi *= phase
        if j in impulse_slice:
            psi *= np.exp(-0.5j * mu * impulse_slice[j] * q2)
    return WavePacket(q=q, psi=psi.copy(), t=t_b)  # not a view pinning the 2n buffer


def compare(p1: WavePacket, p2: WavePacket) -> dict:
    """L2 and sup distances plus overlap; the packets must share a grid."""
    if p1.q.shape != p2.q.shape or not np.allclose(p1.q, p2.q, rtol=0, atol=1e-12):
        raise GridMismatch("packets live on different grids")
    diff = p1.psi - p2.psi
    return {
        "l2_error": math.sqrt(float(np.trapezoid(np.abs(diff) ** 2, p1.q))),
        "max_error": float(np.max(np.abs(diff))),
        "norm_ratio": p1.norm() / p2.norm(),
        "overlap": complex(np.trapezoid(np.conj(p1.psi) * p2.psi, p1.q)),
    }
