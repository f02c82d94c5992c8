"""Wavepacket evolution: the kernel route and two independent checks.

propagate_kernel applies the exact propagator as an integral operator,
psi_out(q_b) = int K(q_b, t_b; q, t_a) psi(q) dq.  A Gaussian input skips
the integral: Heller's thawed Gaussian (J. Chem. Phys. 62, 1544 (1975)) is
exact for a quadratic Hamiltonian.  Its centre (q_t, p_t) and its width pair
(Q, P) follow the classical flow [[u, v/mu], [mu u', v']], and the state
picks up the phase (p_t q_t - p_0 q_0)/2; Q^{-1/2} is the principal root
times kernel.maslov_sign.  Nothing divides by v_b, so the Gaussian route is
valid on focal points too.

Any other input takes the paper's map to free motion: with
-2 q q_b = (q_b - q)^2 - q^2 - q_b^2 the endpoint kernel factors as

    K = s e^{i mu (v'_b - 1) q_b^2 / (2 v_b)} K_free(q_b - q; v_b) e^{i mu (u_b - 1) q^2 / (2 v_b)},

s = maslov_sign(n_focal) and K_free(.; tau) the free propagator of duration
tau.  The free hop is a grid sum, Toeplitz in q_b - q, so one FFT linear
convolution gives all q_b at once in O(n log n).  A Filon-type rule handles
its oscillatory factor e^{-i mu q_b q / v_b}: the rest of the integrand is
interpolated by piecewise cubics and the exponential integrated exactly,
which scales each output by the interior weight W(theta) = (1 + theta^2/6)
sinc^4(theta/2), theta = -mu q_b h / v_b, the cubic-order attenuation factor
of Numerical Recipes section 13.9.  W -> 1 as theta -> 0 (plain Riemann) and
stays O(1) accurate for |theta| >> 1, where a naive rule aliases.  Boundary
weight corrections are dropped: GridTooNarrow keeps the input below 1e-8 of
its peak near the grid edges.

time_sliced_oracle composes the short-time kernels that define the path
integral, O(1/n): per slice, a free hop of the slice's duration and the
slice's potential phase.  crank_nicolson marches i dpsi/dt = H(t) psi
(unitary, O(dt^2), Dirichlet walls) over the whole window, reading omega^2
at every step's midpoint in one call.  Each step is the Cayley form of
Goldberg, Schey and Schwartz (Am. J. Phys. 35, 177 (1967)),
psi <- (I + iK)^{-1}(I - iK) psi = 2 (I + iK)^{-1} psi - psi with
K = (step/2) H, on the interior points, so the walls stay exactly 0: one
tridiagonal solve and one axpy, no right-hand side to build.  A run of one
step (omega^2 changing on every step) takes one LAPACK gtsv call.  A longer
run of equal step and omega^2 factors I + iK once (gttrf): I + iK is
symmetric, so without a row interchange it is L D L^T, and each step is a
unit-lower BLAS tbsv sweep, a multiply by 2/D and a unit-upper sweep; a
factorization that interchanged rows (omega^2 < 0 only) solves by gttrs.
Every solve writes into one buffer, and a kick ends its run rather than
being looked up at each step, so a step is its arithmetic alone.
CN shares nothing with the other two routes; the Filon route and slicing
share the free hop, and each has its own independent test reference.
Agreement is the evidence.  All three share one input check.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.linalg import get_blas_funcs, get_lapack_funcs
from scipy.linalg import solve_banded  # noqa: F401  unused here; bench/tracing.py patches it (ROADMAP item 5)

from .classical import solve_fundamental
from .errors import (MAX_COUNT, DomainError, GridMismatch, GridTooNarrow, StabilityWarning,
                     StepFailure, check_count, check_positive)
from .freq_profile import FrequencyProfile
from .kernel import _refuse_focal_end, maslov_sign

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
        for name, value in (("qbar", self.qbar), ("kbar", self.kbar)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        check_positive("sigma", self.sigma)

    def psi(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        norm = (2.0 * math.pi * self.sigma ** 2) ** -0.25
        return norm * np.exp(-((q - self.qbar) ** 2) / (4.0 * self.sigma ** 2)
                             + 1j * self.kbar * q)

    def on_grid(self, q: np.ndarray, t: float = 0.0) -> "WavePacket":
        return WavePacket(q=q, psi=self.psi(q), t=t, gaussian=self)


@dataclass(frozen=True)
class WavePacket:
    """State sampled on a uniform grid at one instant; immutable.

    q and psi are read-only copies of the arrays given.  gaussian, when set,
    certifies that psi is exactly that Gaussian on q, bit for bit (a tag that
    does not match raises DomainError), for the packet's whole life; the
    kernel propagator then uses the thawed Gaussian instead of quadrature.
    Propagation outputs never carry the tag.
    """
    q: np.ndarray
    psi: np.ndarray
    t: float
    gaussian: GaussianState | None = None

    def __post_init__(self):
        for name, dtype in (("q", float), ("psi", complex)):
            a = np.array(getattr(self, name), dtype=dtype)  # a copy
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.q.ndim != 1 or self.q.shape != self.psi.shape:
            raise DomainError("q and psi must be 1-d arrays of equal length")
        if self.q.size < 2 * _EDGE_BAND + 4:
            raise DomainError(f"grid too small ({self.q.size} points)")
        d = np.diff(self.q)
        if not (np.isfinite(self.q).all() and d[0] > 0 and np.max(np.abs(d - d[0])) <= 1e-9 * d[0]):
            raise DomainError("grid must be finite, uniform and increasing")
        if self.gaussian is not None and not np.array_equal(self.psi, self.gaussian.psi(self.q)):
            raise DomainError(f"psi is not the tagged Gaussian {self.gaussian} on q")

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
    n = check_count("n", n, 16)
    if not (q_min < q_max and math.isfinite(q_max - q_min)):
        raise DomainError(f"need q_min < q_max with a finite span, got {q_min}, {q_max}")
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


def _free_hop(n: int, h: float, tau: float, mu: float):
    """The free propagator of duration tau on an n-point grid of spacing h.

    Returns x -> sum_m K_free(q_j - q_m; tau) x_m h for all j at once: the
    sum is Toeplitz in j - m, so it is one FFT linear convolution with the
    kernel's 2n - 1 samples, transformed here once.
    """
    kern = cmath.sqrt(mu / (2.0 * math.pi * 1j * tau)) * h \
        * np.exp(0.5j * mu * (np.arange(1 - n, n) * h) ** 2 / tau)
    m = fft.next_fast_len(2 * n - 1)  # circular wrap-around misses [n-1, 2n-1)
    kern_hat = fft.fft(kern, m)
    return lambda x: fft.ifft(fft.fft(x, m) * kern_hat)[n - 1:2 * n - 1]


def _filon_weight(theta: np.ndarray) -> np.ndarray:
    """W(theta) = (1 + theta^2/6) sinc^4(theta/2), the interior sample weight.

    Numerical Recipes' cubic Filon attenuation factor (section 13.9),
    (6 + theta^2)/(3 theta^4) (3 - 4 cos theta + cos 2 theta), with the
    bracket written 8 sin^4(theta/2) so nothing cancels near 0; real, even,
    and np.sinc makes W(0) = 1.
    """
    return (1.0 + theta * theta / 6.0) * np.sinc(theta / (2.0 * math.pi)) ** 4


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
    u, ud, v, vd, n_focal = pair.end

    if packet.gaussian is not None:
        # psi0 = N exp(i A0 (q - qbar)^2 / 2 + i kbar q): (q_t, p_t) and (Q, P)
        # flow from (qbar, kbar) and (1, A0); Im Q has v's sign, so Q != 0
        g = packet.gaussian
        a0 = 0.5j / g.sigma ** 2
        big_q, big_p = u + v * a0 / mu, mu * ud + vd * a0
        q_t, p_t = u * g.qbar + v * g.kbar / mu, mu * ud * g.qbar + vd * g.kbar
        amp = maslov_sign(n_focal) * (2.0 * math.pi * g.sigma ** 2) ** -0.25 \
            / cmath.sqrt(big_q)
        d = q - q_t
        psi_out = amp * np.exp(0.5j * (big_p / big_q) * d ** 2 + 1j * p_t * d
                               + 0.5j * (p_t * q_t + g.kbar * g.qbar))
        return WavePacket(q=q, psi=psi_out, t=t_b)

    _refuse_focal_end(pair.t_a, pair.t_b, v)
    # chirp x free hop x chirp (module docstring), the hop weighted by Filon's W
    h = packet.dq
    hop = _free_hop(q.size, h, v, mu)
    chirp_in = np.exp(0.5j * mu * (u - 1.0) / v * q ** 2)
    psi_out = (maslov_sign(n_focal) * np.exp(0.5j * mu * (vd - 1.0) / v * q ** 2)
               * _filon_weight(-mu / v * q * h) * hop(packet.psi * chirp_in))
    return WavePacket(q=q, psi=psi_out, t=t_b)


def crank_nicolson(profile: FrequencyProfile, packet: WavePacket, t_b: float,
                   mu: float = 1.0, dt: float = 1e-3) -> WavePacket:
    """Unitary O(dt^2) finite-difference evolution on the packet's grid.

    One march covers the window.  Its steps fit each segment between jump
    events, and each impulse of strength s applies the exact phase
    exp(-i mu s q^2 / 2) after its segment's last step.  A step is the
    Cayley form (Goldberg, Schey and Schwartz 1967) psi <- 2 A^{-1} psi - psi,
    A = I + i(step/2)H, on the interior points; a run of consecutive steps
    with equal step and omega^2, which a kick ends, shares one LAPACK
    factorization A = L D L^T and solves by two unit-bidiagonal BLAS sweeps,
    2 A^{-1} = L^{-T} (2/D) L^{-1}.  Each solve writes into one buffer the
    march owns, so a step allocates nothing and tests nothing.  Walls are
    Dirichlet: the input's two wall values are dropped and the output's are
    exactly 0, so the grid must stay wide enough that nothing reaches them.
    A dt that needs more steps on a segment than an array can hold
    (errors.MAX_COUNT) raises DomainError.
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
        count = (hi - lo) / dt
        if not count <= MAX_COUNT:  # inf or nan too
            raise DomainError(f"dt={dt!r} needs {count:.3g} steps on [{lo!r}, {hi!r}], "
                              f"more than the {MAX_COUNT} an array can hold")
        n_steps = max(1, math.ceil(count))
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

    # a run is a maximal stretch of steps with equal (step, omega^2), so one
    # matrix A, that a kick also ends: a run of one step takes gtsv, which is
    # cheaper than factoring; a longer run factors A once (gttrf).  With no
    # row interchange (always at omega^2 >= 0, where A is strictly diagonally
    # dominant) the factors are A = L D L^T, L unit lower bidiagonal with
    # gttrf's multipliers dl, and every pivot has Re d >= 1, so |2/d| <= 2;
    # after an interchange each step takes gttrs
    change = np.flatnonzero((step_of[1:] != step_of[:-1]) | (w2s[1:] != w2s[:-1])) + 1
    runs = sorted({0, len(steps), *(k + 1 for k in kicks), *change.tolist()})

    dq2 = (q[1] - q[0]) ** 2
    off = -1.0 / (2.0 * mu * dq2)
    kin = 1.0 / (mu * dq2)
    # the march runs on the interior points: the walls stay 0 and are no rows
    # of the band.  Each run builds A = I + i(step/2)H straight into the one
    # band buffer that gtsv (the routine solve_banded picks for a (1, 1)
    # band) or gttrf factors in place; rows hold the super-, main and
    # sub-diagonal
    q2_in = q2[1:-1]
    lu = np.empty((3, q2_in.size), dtype=complex)
    band = (lu[2, :-1], lu[1], lu[0, 1:])
    h_diag = np.empty(q2_in.size)
    # BLAS band storage of both unit sweeps in one Fortran-order array (a C
    # array would be copied on every call): row 0 is L^T's superdiagonal,
    # row 1 L's subdiagonal, and neither sweep reads its diagonal row
    unit = np.zeros((2, q2_in.size), dtype=complex, order="F")
    rows = np.arange(1, q2_in.size + 1)  # gttrf's ipiv when nothing is interchanged
    gtsv, gttrf, gttrs = get_lapack_funcs(("gtsv", "gttrf", "gttrs"), (lu,))
    tbsv, = get_blas_funcs(("tbsv",), (lu,))
    psi = packet.psi[1:-1].copy()
    # every solve overwrites x, a copy of psi: psi <- 2 A^{-1} psi - psi needs
    # both.  The f2py calls in the loops are positional, since a keyword
    # dict is parsed on every call: gtsv(dl, d, du, b, overwrite_dl,
    # overwrite_d, overwrite_du, overwrite_b), gttrs(dl, d, du, du2, ipiv, b,
    # trans, overwrite_b) and tbsv(k, a, x, incx, offx, lower, trans, diag,
    # overwrite_x)
    x = np.empty_like(psi)
    for lo, hi in zip(runs[:-1], runs[1:]):
        half = 0.5j * steps[lo]
        lu[0] = lu[2] = half * off
        # 1 + half (kin + (mu/2) omega^2 q^2) in place, in the step-by-step
        # march's operand order, so no bit changes
        np.multiply(0.5 * mu * w2s[lo], q2_in, out=h_diag)
        h_diag += kin
        np.multiply(half, h_diag, out=lu[1])
        lu[1] += 1.0
        if hi - lo == 1:
            np.copyto(x, psi)
            info = gtsv(*band, x, 1, 1, 1, 1)[4]
        else:
            *factors, info = gttrf(*band, 1, 1, 1)
        if info:  # I + i(step/2)H with real H is never singular for finite input
            raise StepFailure(f"tridiagonal solve failed (info={info}) at t={float(t[lo])!r}")
        if hi - lo == 1:  # Cayley: A^{-1}(2I - A) psi = 2x - psi
            np.multiply(2.0, x, out=x)
            np.subtract(x, psi, out=psi)
        elif np.array_equal(factors[4], rows):  # psi <- L^{-T} (2/D) L^{-1} psi - psi
            unit[0, 1:] = unit[1, :-1] = factors[0]
            scale = 2.0 / factors[1]
            for _ in range(hi - lo):
                np.copyto(x, psi)
                tbsv(1, unit, x, 1, 0, 1, 0, 1, 1)
                np.multiply(x, scale, out=x)
                tbsv(1, unit, x, 1, 0, 0, 0, 1, 1)
                np.subtract(x, psi, out=psi)
        else:
            for _ in range(hi - lo):
                np.copyto(x, psi)
                gttrs(*factors, x, "N", 1)
                np.multiply(2.0, x, out=x)
                np.subtract(x, psi, out=psi)
        if hi - 1 in kicks:
            psi *= np.exp(-0.5j * mu * kicks[hi - 1] * q2_in)
    return WavePacket(q=q, psi=np.pad(psi, 1), t=t_b)


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

    Each slice's free hop, psi(q) <- sum_m K_free(q - q_m; eps) psi(q_m) h,
    is the one the Filon route takes (_free_hop).  The chirp K_free must be
    resolved by the grid: its phase advances by
    mu L h / eps radians per sample at the largest separation L, and once
    that exceeds pi the aliased tails feed back coherently and grow
    exponentially with the slice count.  DomainError enforces the bound
    rather than returning garbage — refine the grid or lower n_slices.
    """
    _check_packet(packet, mu)
    n_slices = check_count("n_slices", n_slices)
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

    hop = _free_hop(n, h, eps, mu)

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
        psi = hop(psi)
        if w2 != w2_prev:  # the potential phase changes only with omega^2
            np.exp(np.multiply(-0.5j * eps * mu * w2, q2, out=phase), out=phase)
            w2_prev = w2
        psi *= phase
        if j in impulse_slice:
            psi *= np.exp(-0.5j * mu * impulse_slice[j] * q2)
    return WavePacket(q=q, psi=psi, t=t_b)


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
