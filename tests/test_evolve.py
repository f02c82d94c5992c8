import cmath
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy import fft
from scipy.integrate import quad
from scipy.linalg import blas, lapack, solve_banded

import oracles
from conftest import PACKET
from tdho import evolve
from tdho.classical import solve_fundamental
from tdho.errors import (MAX_COUNT, CausticAtEndpoint, DomainError, GridMismatch, GridTooNarrow,
                         StabilityWarning, StepFailure)
from tdho.evolve import (GaussianState, WavePacket, _filon_weight, compare,
                         crank_nicolson, max_slices, propagate_kernel,
                         time_sliced_oracle, uniform_grid)
from tdho.freq_profile import (Constant, DeltaPulse, ExpDecay, Expression,
                               FrequencyProfile, JumpEvent, SechSquared, Tabulated)
from tdho.kernel import compute_W, kernel_robust

FREE = Constant(0.0)


def _free_packet(n=2048, span=8.0):
    return PACKET.on_grid(uniform_grid(-span, span, n))


# ---------------------------------------------------------------------------
# construction and validation

def test_gaussian_state_validation_and_norm():
    with pytest.raises(DomainError):
        GaussianState(sigma=0.0)
    p = _free_packet()
    assert p.norm() == pytest.approx(1.0, abs=1e-12)
    assert p.mean_q2() == pytest.approx(0.5, abs=1e-9)


def test_wavepacket_validation():
    q = uniform_grid(-4.0, 4.0, 64)
    with pytest.raises(DomainError):
        WavePacket(q=q, psi=np.ones(32), t=0.0)
    with pytest.raises(DomainError):
        WavePacket(q=q[:8], psi=np.ones(8), t=0.0)
    with pytest.raises(DomainError):
        WavePacket(q=q ** 3, psi=np.ones(64), t=0.0)
    with pytest.raises(DomainError):
        uniform_grid(-1.0, 1.0, 8)
    with pytest.raises(DomainError):
        uniform_grid(1.0, -1.0, 64)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, value", [("qbar", math.nan), ("kbar", math.inf),
                                          ("kbar", -math.inf), ("qbar", -math.inf)])
def test_gaussian_state_refuses_a_non_finite_centre_naming_the_field(field, value):
    # a nan centre used to surface as "psi is not the tagged Gaussian", an
    # infinite kbar as a RuntimeWarning from the phase
    with pytest.raises(DomainError, match=f"{field} must be finite, got {value}"):
        GaussianState(**{field: value}).on_grid(uniform_grid(-4.0, 4.0, 64))


def test_uniform_grid_takes_a_whole_float_count_as_its_int():
    assert np.array_equal(uniform_grid(-1.0, 1.0, 256.0), uniform_grid(-1.0, 1.0, 256))
    assert np.array_equal(uniform_grid(-1.0, 1.0, np.int64(64)), uniform_grid(-1.0, 1.0, 64))
    for bad in (256.5, 15.0, math.nan, math.inf, True, "256"):
        with pytest.raises(DomainError, match=r"n must be a whole number >= 16"):
            uniform_grid(-1.0, 1.0, bad)
    # numpy's "array is too big" ValueError, or an allocation, before the bound
    for big in (9 * 10 ** 18, MAX_COUNT + 1, 1e300):
        with pytest.raises(DomainError, match=f"n must be at most {MAX_COUNT}, .* got {re.escape(repr(big))}"):
            uniform_grid(-1.0, 1.0, big)


def test_wavepacket_refuses_a_gaussian_tag_that_does_not_match_psi():
    # a mismatched tag would send propagate_kernel down the thawed-Gaussian
    # route with the tag's state, ignoring psi
    g = GaussianState(0.3, 0.2, 0.7)
    q = uniform_grid(-8.0, 8.0, 256)
    for psi in (GaussianState(0.3, 0.2, 0.71).psi(q), g.psi(q) * (1.0 + 1e-15), g.psi(q[::-1])):
        with pytest.raises(DomainError, match="tagged Gaussian"):
            WavePacket(q=q, psi=psi, t=0.0, gaussian=g)
    assert WavePacket(q=q, psi=g.psi(q), t=0.0, gaussian=g).gaussian is g
    assert g.on_grid(q).gaussian is g


def test_wavepacket_is_immutable_so_its_tag_holds_for_its_whole_life():
    # a tagged packet whose psi could change would send propagate_kernel down
    # the thawed-Gaussian route with the tag's state, ignoring psi
    q = uniform_grid(-8.0, 8.0, 256)
    psi = GaussianState(0.3, 0.2, 0.7).psi(q)
    p = WavePacket(q=q, psi=psi, t=0.0, gaussian=GaussianState(0.3, 0.2, 0.7))
    other = GaussianState(-0.5, 0.0, 0.6).psi(q)
    for name, value in (("psi", other), ("q", q), ("t", 1.0), ("gaussian", None)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    for a in (p.psi, p.q):
        with pytest.raises(ValueError, match="read-only"):
            a[:] = a[::-1]
    # the packet holds copies: the caller's arrays stay writable and apart
    psi[:] = other
    q[0] = -9.0
    assert np.array_equal(p.psi, GaussianState(0.3, 0.2, 0.7).psi(p.q)) and p.q[0] == -8.0


def test_grids_refuse_non_finite_values():
    # NaN compares False both ways, so it must fail each test, not pass it
    for q_min, q_max in ((-1e308, 1e308), (-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(DomainError, match="finite span"):
            uniform_grid(q_min, q_max, 64)
    q = uniform_grid(-4.0, 4.0, 64)
    for bad in (np.full(64, math.nan), np.append(-math.inf, q[1:]), np.append(q[:-1], math.inf)):
        with pytest.raises(DomainError, match="grid must be finite, uniform and increasing"):
            WavePacket(q=bad, psi=np.ones(64), t=0.0)
    p = _free_packet(256)
    for t_b in (math.inf, math.nan):
        with pytest.raises(DomainError, match="no slice limit"):
            max_slices(p, t_b)


@pytest.mark.parametrize("t_b", [0.5, 0.5 - 1e-12, 0.25, -1.0])
def test_max_slices_refuses_a_window_that_ends_at_or_before_the_packet(t_b):
    # the limit is proportional to t_b - t, so these once gave 0 or -1
    p = PACKET.on_grid(uniform_grid(-8.0, 8.0, 256), t=0.5)
    with pytest.raises(DomainError, match=f"need t_b after the packet's time t=0.5, got t_b={t_b}"):
        max_slices(p, t_b)


def test_narrow_grid_is_refused():
    p = GaussianState(0.0, 0.0, 1.0).on_grid(uniform_grid(-3.0, 3.0, 64))
    with pytest.raises(GridTooNarrow):
        propagate_kernel(FREE, p, 1.0)
    with pytest.raises(GridTooNarrow):
        crank_nicolson(FREE, p, 1.0)
    with pytest.raises(GridTooNarrow):
        time_sliced_oracle(FREE, p, 1.0, 8)


def test_outputs_are_never_tagged_gaussian():
    p = _free_packet(512)
    assert p.gaussian is not None
    assert propagate_kernel(FREE, p, 0.3).gaussian is None
    assert crank_nicolson(FREE, p, 0.01, dt=1e-3).gaussian is None
    assert time_sliced_oracle(FREE, p, 0.3, 1).gaussian is None


# ---------------------------------------------------------------------------
# kernel route

def test_free_spreading_second_moment():
    # <q^2>(t) = sigma^2 + t^2/(4 mu^2 sigma^2) = 1 at t=1 for sigma^2 = 1/2
    out = propagate_kernel(FREE, _free_packet(), 1.0)
    assert out.t == 1.0
    assert out.mean_q2() == pytest.approx(1.0, abs=1e-6)
    assert out.norm() == pytest.approx(1.0, abs=1e-8)


def test_free_motion_of_kicked_packet():
    moving = GaussianState(0.0, 2.0, math.sqrt(0.5))
    p = moving.on_grid(uniform_grid(-8.0, 8.0, 2048))
    out = propagate_kernel(FREE, p, 0.5)
    assert out.mean_q() == pytest.approx(1.0, abs=1e-6)  # <q> = kbar t / mu


def test_kernel_route_matches_free_gaussian_analytic():
    out = propagate_kernel(FREE, _free_packet(), 1.0)
    want = oracles.free_gaussian(out.q, 1.0, 1.0, math.sqrt(0.5))
    err = math.sqrt(np.trapezoid(np.abs(out.psi - want) ** 2, out.q))
    assert err <= 1e-9


def test_filon_quadrature_agrees_with_closed_form():
    p = _free_packet(1024)
    untagged = WavePacket(q=p.q, psi=p.psi.copy(), t=p.t)
    prof = SechSquared(1.0, 1.0, 0.5)
    a = propagate_kernel(prof, p, 1.0)         # gaussian closed form
    b = propagate_kernel(prof, untagged, 1.0)  # filon path
    assert compare(a, b)["l2_error"] <= 1e-7


# Reference for the FFT route: the direct Filon sum, one row of q_b at a
# time, with the moments c_k(theta) = int_0^1 u^k e^{i theta u} du from a
# scalar series (|theta| <= 1) or upward recursion.
def _filon_moments_scalar(theta):
    c = np.empty(4, dtype=complex)
    if abs(theta) <= 1.0:
        for k in range(4):
            total, term, j = 0.0 + 0.0j, 1.0 + 0.0j, 0
            while True:
                contrib = term / (k + j + 1.0)
                total += contrib
                if abs(contrib) < 1e-18:
                    break
                j += 1
                term *= 1j * theta / j
            c[k] = total
        return c
    e, it = cmath.exp(1j * theta), 1j * theta
    c[0] = (e - 1.0) / it
    for k in range(1, 4):
        c[k] = (e - k * c[k - 1]) / it
    return c


_LAGRANGE_ROWS = np.array([
    [0.0, -1.0 / 3.0, 0.5, -1.0 / 6.0],
    [1.0, -0.5, -1.0, 0.5],
    [0.0, 1.0, 0.5, -0.5],
    [0.0, -1.0 / 6.0, 0.0, 1.0 / 6.0],
])


def _filon_weight_scalar(theta):
    m = _LAGRANGE_ROWS @ _filon_moments_scalar(theta)
    return complex(np.sum(m * np.exp(-1j * theta * np.array([-1.0, 0.0, 1.0, 2.0]))))


def _per_row_filon(profile, packet, t_b, mu=1.0):
    kv = kernel_robust(solve_fundamental(profile, packet.t, t_b), 0, 0, mu)
    d, pref = kv.diagnostics, kv.k
    u_b, v_b, vd_b = d["u_b"], d["v_b"], d["vdot_b"]
    q, h = packet.q, packet.dq
    g = packet.psi * np.exp(0.5j * mu * u_b / v_b * q ** 2)
    out = np.empty_like(packet.psi)
    for jb, qb in enumerate(q):
        b = -mu * qb / v_b
        out[jb] = (pref * cmath.exp(0.5j * mu * vd_b / v_b * qb * qb) * h
                   * _filon_weight_scalar(b * h) * np.sum(np.exp(1j * b * q) * g))
    return out


# an untagged two-Gaussian packet a + c b takes the Filon route
TWO = (GaussianState(-0.8, 0.3, 0.6), GaussianState(0.9, -0.4, 0.65), 0.3 + 0.4j)


DELTA = DeltaPulse(1.0, 0.3)  # v zeros at t = 3.04, 6.18, 9.32


@pytest.mark.parametrize("profile,t_b,n_focal,mu", [
    (Constant(1.0), 2.8, 0, 1.0), (Constant(1.0), 3.5, 1, 1.0), (Constant(1.0), 6.6, 2, 1.0),
    (DELTA, 2.6, 0, 1.0), (DELTA, 3.5, 1, 1.0), (DELTA, 6.6, 2, 1.0),
    (Constant(1.0), 2.9, 0, 0.5), (DELTA, 3.5, 1, 2.0),
], ids=["constant-0", "constant-1", "constant-2", "delta-0", "delta-1", "delta-2",
        "constant-0-mu0.5", "delta-1-mu2"])
def test_filon_fft_route_matches_per_row_sum(profile, t_b, n_focal, mu):
    q = uniform_grid(-8.0, 8.0, 256)
    a, b, c = TWO
    p = WavePacket(q=q, psi=a.psi(q) + c * b.psi(q), t=0.0)
    d = kernel_robust(solve_fundamental(profile, 0.0, t_b), 0.0, 0.0).diagnostics
    assert d["interior_v_zeros"] == n_focal
    # |theta| = |mu q_b h / v_b| passes 1 at the grid edges: both branches of the
    # reference's moments run
    assert mu * 8.0 * p.dq / abs(d["v_b"]) > 1.0
    want = _per_row_filon(profile, p, t_b, mu)
    got = propagate_kernel(profile, p, t_b, mu=mu).psi
    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


@pytest.mark.parametrize("profile,t_b,n_focal", [
    (Constant(1.0), 1.5, 0), (Constant(1.0), 4.7, 1), (Constant(1.0), 7.9, 2),
    (DELTA, 1.47, 0), (DELTA, 4.6, 1), (DELTA, 7.75, 2),
], ids=["constant-0", "constant-1", "constant-2", "delta-0", "delta-1", "delta-2"])
def test_filon_route_matches_closed_form_across_caustics(profile, t_b, n_focal):
    q = uniform_grid(-8.0, 8.0, 1024)
    a, b, c = TWO
    mixed = WavePacket(q=q, psi=a.psi(q) + c * b.psi(q), t=0.0)
    pair = solve_fundamental(profile, 0.0, t_b)
    assert kernel_robust(pair, 0.0, 0.0).diagnostics["interior_v_zeros"] == n_focal
    want = (propagate_kernel(profile, a.on_grid(q), t_b).psi
            + c * propagate_kernel(profile, b.on_grid(q), t_b).psi)
    got = propagate_kernel(profile, mixed, t_b)
    assert compare(got, WavePacket(q=q, psi=want, t=t_b))["l2_error"] <= 1e-7


def test_filon_weight_matches_quadrature_of_the_lagrange_basis():
    # W(theta) = sum_r e^{-i theta r} int_0^1 L_r(u) e^{i theta u} du, with L_r
    # the cubic Lagrange basis on the nodes -1, 0, 1, 2
    nodes = (-1, 0, 1, 2)

    def basis(r, u):
        return math.prod((u - s) / (r - s) for s in nodes if s != r)

    def direct(theta):
        def part(f):
            return quad(lambda u: sum(basis(r, u) * f(theta * (u - r)) for r in nodes),
                        0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        return complex(part(math.cos), part(math.sin))

    thetas = np.array([0.0, 1e-8, -1e-8, 0.999, -0.999, 1.001, -1.001,
                       5.0, -5.0, 50.0, -50.0, 2 * math.pi, -2 * math.pi,
                       4 * math.pi, -4 * math.pi, 1e3, -1e3])
    got = _filon_weight(thetas)
    assert got.shape == thetas.shape and got.dtype == np.float64
    assert got[0] == 1.0
    assert np.array_equal(_filon_weight(-thetas), got)
    for theta, w in zip(thetas, got):
        assert abs(w - direct(theta)) <= 1e-13


def test_coherent_state_recurrence_over_full_period():
    # displaced ground packet of the unit oscillator returns to minus itself
    # after one period; T = 2 pi is a focal time, so propagate in 4 hops
    prof = Constant(1.0)
    grid = uniform_grid(-10.0, 10.0, 2048)
    start = GaussianState(1.0, 0.0, math.sqrt(0.5)).on_grid(grid)
    p = start
    for k in range(4):
        p = propagate_kernel(prof, p, (k + 1) * math.pi / 2.0)
    err = math.sqrt(np.trapezoid(np.abs(p.psi - (-start.psi)) ** 2, grid))
    assert err <= 1e-6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gaussian_route_is_exact_at_focal_points(k):
    # the unit oscillator's state at T = k pi is (-i)^k psi0((-1)^k q): the
    # thawed Gaussian divides by no v_b, so T = k pi is an ordinary time,
    # while the endpoint form and the Filon route both refuse it
    g = GaussianState(0.5, 0.3, 0.7)
    q = uniform_grid(-8.0, 8.0, 2048)
    pair = solve_fundamental(Constant(1.0), 0.0, k * math.pi)
    with pytest.raises(CausticAtEndpoint):
        kernel_robust(pair, 0.1, 0.2)
    with pytest.raises(CausticAtEndpoint):
        propagate_kernel(Constant(1.0), WavePacket(q=q, psi=g.psi(q), t=0.0), k * math.pi)
    got = propagate_kernel(Constant(1.0), g.on_grid(q), k * math.pi).psi
    assert np.max(np.abs(got - (-1j) ** k * g.psi((-1) ** k * q))) <= 1e-12


def test_thawed_gaussian_is_finite_on_an_inverted_oscillator():
    # omega^2 = -1600 to T = 1: u and v reach 1e17, so q_t does and d^2 reaches
    # 1e34; an imaginary part of P/Q off by a rounding of Re(P/Q) ~ 40 then
    # puts e^(1e20) into psi, where the conserved 1/(2 sigma^2 |Q|^2) does not
    q = uniform_grid(-8.0, 8.0, 1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = propagate_kernel(Expression("-1600"), GaussianState(0.5, 0.3, 0.7).on_grid(q), 1.0)
    assert np.isfinite(got.psi).all()


def test_thawed_gaussian_width_is_sigma_abs_q_on_an_inverted_oscillator():
    # T = 0.25: the packet stays on a 2^21-point grid over [-1.5e5, 1.5e5],
    # |Q| = 1.1e4, and |psi|^2 is the Gaussian of width sigma |Q|, norm 1
    g = GaussianState(0.5, 0.3, 0.7)
    got = propagate_kernel(Expression("-1600"), g.on_grid(uniform_grid(-1.5e5, 1.5e5, 2 ** 21)), 0.25)
    u, _, v, _, _ = solve_fundamental(Expression("-1600"), 0.0, 0.25).end
    width = g.sigma * abs(u + 0.5j * v / g.sigma ** 2)
    assert abs(got.norm() - 1.0) <= 1e-12
    assert abs(math.sqrt(got.mean_q2() - got.mean_q() ** 2) / width - 1.0) <= 1e-10


@pytest.mark.parametrize("profile,t_b,n_focal", [
    (Constant(1.0), 0.7, 0), (Constant(1.0), 4.0, 1), (Constant(1.0), 7.7, 2),
    (Constant(1.0), 11.0, 3), (Constant(2.0), 7.0, 4), (ExpDecay(2.0, 0.5), 2.5, 1),
    (DELTA, 3.5, 1), (SechSquared(1.0, 1.0, 0.5), 1.0, 0), (FREE, 1.0, 0),
])
@pytest.mark.parametrize("mu", [1.0, 0.7])
def test_gaussian_route_matches_the_kernel_integral_away_from_focal_points(profile, t_b, n_focal, mu):
    q = uniform_grid(-8.0, 8.0, 2048)
    g = GaussianState(0.5, 0.3, 0.7)
    pair = solve_fundamental(profile, 0.0, t_b)
    u_b, udot_b, v_b, vdot_b, n_b = pair.end
    assert n_b == n_focal
    pref = kernel_robust(pair, 0.0, 0.0, mu).k  # the kernel at q_a = q_b = 0 is its prefactor
    want = oracles.gaussian_through_kernel(u_b, udot_b, v_b, vdot_b, pref,
                                           g.qbar, g.kbar, g.sigma, q, mu)
    got = propagate_kernel(profile, g.on_grid(q), t_b, mu=mu).psi
    assert np.max(np.abs(got - want)) <= 1e-12


# The kernel routes, Crank-Nicolson and the time-sliced product share no
# mechanism; a wrong Maslov sign would put the kernel routes at L2 distance 2
# (twice the norm) from the other two.  omega = 2 has focal points at k pi/2.
@pytest.mark.parametrize("t_b,n_focal", [(1.0, 0), (2.3, 1), (3.9, 2), (5.5, 3), (7.0, 4)])
def test_three_routes_agree_across_focal_points(t_b, n_focal):
    prof = Constant(2.0)
    q = uniform_grid(-8.0, 8.0, 2048)
    p = GaussianState(0.5, 0.3, 0.7).on_grid(q)
    assert solve_fundamental(prof, 0.0, t_b).end[4] == n_focal
    rk = propagate_kernel(prof, p, t_b)
    quad = propagate_kernel(prof, WavePacket(q=q, psi=p.psi, t=0.0), t_b)
    assert compare(quad, rk)["l2_error"] <= 1e-7
    assert compare(crank_nicolson(prof, p, t_b, dt=2e-3), rk)["l2_error"] <= 2e-3
    # Richardson extrapolation of the O(1/n) slice error
    n = max_slices(p, t_b) // 2 * 2
    fine, coarse = (time_sliced_oracle(prof, p, t_b, m).psi for m in (n, n // 2))
    assert compare(WavePacket(q=q, psi=2.0 * fine - coarse, t=t_b), rk)["l2_error"] <= 2e-2


@pytest.mark.parametrize("profile,t_mid,t_end,counts", [
    (Constant(1.0), 2.0, 4.0, (0, 0, 1)), (DELTA, 3.5, 7.0, (1, 1, 2)),
], ids=["focal-point-in-direct-hop-only", "focal-point-in-every-hop"])
def test_semigroup_across_a_focal_point(profile, t_mid, t_end, counts):
    q = uniform_grid(-8.0, 8.0, 1024)
    p0 = GaussianState(0.5, 0.3, 0.7).on_grid(q)
    for (lo, hi), n_focal in zip(((0.0, t_mid), (t_mid, t_end), (0.0, t_end)), counts):
        assert solve_fundamental(profile, lo, hi).end[4] == n_focal
    mid = propagate_kernel(profile, p0, t_mid)  # untagged: the second hop is the Filon route
    two_hops = propagate_kernel(profile, mid, t_end)
    assert compare(two_hops, propagate_kernel(profile, p0, t_end))["l2_error"] <= 1e-6


# ---------------------------------------------------------------------------
# Crank-Nicolson route

def test_cn_free_spreading_matches_analytic():
    out = crank_nicolson(FREE, _free_packet(), 1.0, dt=1e-3)
    want = oracles.free_gaussian(out.q, 1.0, 1.0, math.sqrt(0.5))
    err = math.sqrt(np.trapezoid(np.abs(out.psi - want) ** 2, out.q))
    assert err <= 1e-5


def test_cn_is_unitary():
    p = _free_packet()
    out = crank_nicolson(Constant(1.0), p, 1.0, dt=1e-3)  # 1000 steps
    assert abs(out.norm() - p.norm()) <= 1e-8


def test_cn_preserves_stationary_state():
    # sigma^2 = 1/2 packet is the ground state of omega = 1: over one full
    # period the density is frozen and the global phase is e^{-i pi} = -1
    p = PACKET.on_grid(uniform_grid(-20.0, 20.0, 2048))
    out = crank_nicolson(Constant(1.0), p, 2.0 * math.pi, dt=1e-3)
    density_drift = math.sqrt(np.trapezoid((np.abs(out.psi) - np.abs(p.psi)) ** 2, p.q))
    assert density_drift <= 1e-6
    ov = compare(out, p)["overlap"]
    assert abs(ov) == pytest.approx(1.0, abs=1e-8)
    # global phase ~ pi, up to the O(dq^2) energy shift of the discrete H
    assert abs(abs(cmath.phase(ov)) - math.pi) <= 2e-4


def test_cn_warns_when_potential_phase_unresolved():
    p = GaussianState(0.0, 0.0, 0.2).on_grid(uniform_grid(-2.0, 2.0, 64))
    with pytest.warns(StabilityWarning):
        crank_nicolson(Constant(1.0), p, 0.6, dt=0.3)  # dt w2 qmax^2 = 1.2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        crank_nicolson(Constant(1.0), p, 0.48, dt=0.24)  # = 0.96, just under
    assert not [w for w in caught if issubclass(w.category, StabilityWarning)]


def test_cn_argument_validation():
    p = _free_packet(512)
    with pytest.raises(DomainError):
        crank_nicolson(FREE, p, 0.0)
    with pytest.raises(DomainError):
        crank_nicolson(FREE, p, 1.0, dt=0.0)


def test_cn_impulse_is_split_exactly():
    # delta profile == free march, exact kick phase, constant-frequency march
    w0, t0 = 0.6, 0.5
    p = PACKET.on_grid(uniform_grid(-8.0, 8.0, 1024))
    direct = crank_nicolson(DeltaPulse(w0, t0), p, 1.0, dt=1e-3)
    a = crank_nicolson(FREE, p, t0, dt=1e-3)
    kicked = WavePacket(q=a.q, psi=a.psi * np.exp(-0.5j * w0 ** 2 * a.q ** 2), t=t0)
    b = crank_nicolson(Constant(w0 ** 2), kicked, 1.0, dt=1e-3)
    assert compare(direct, b)["l2_error"] <= 1e-12


def _cn_reference(profile, packet, t_b, mu=1.0, dt=1e-3):
    """The Crank-Nicolson march written step by step, every per-step term
    recomputed and solve_banded called with its default checks."""
    q = packet.q
    n = q.size
    dq2 = (q[1] - q[0]) ** 2
    off = -1.0 / (2.0 * mu * dq2)
    kin = 1.0 / (mu * dq2)
    strength = {e.time: e.strength for e in profile.jump_events(packet.t, t_b)}
    cuts = [packet.t] + sorted(strength) + ([t_b] if t_b not in strength else [])
    psi = packet.psi.copy()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n_steps = max(1, math.ceil((hi - lo) / dt))
        step = (hi - lo) / n_steps
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = 0.5j * step * off
        ab[2, :-1] = 0.5j * step * off
        ab[0, 1] = ab[2, n - 2] = 0.0
        t = lo
        for _ in range(n_steps):
            w2 = profile.smooth_omega_squared(t + 0.5 * step)
            h_diag = kin + 0.5 * mu * w2 * q ** 2
            rhs = (1.0 - 0.5j * step * h_diag) * psi
            rhs[1:] -= 0.5j * step * off * psi[:-1]
            rhs[:-1] -= 0.5j * step * off * psi[1:]
            rhs[0] = rhs[-1] = 0.0
            ab[1, :] = 1.0 + 0.5j * step * h_diag
            ab[1, 0] = ab[1, -1] = 1.0
            psi = solve_banded((1, 1), ab, rhs)
            t += step
        if hi in strength:
            psi = psi * np.exp(-0.5j * mu * strength[hi] * q ** 2)
    return psi


def _cayley_reference(profile, packet, t_b, mu=1.0, dt=1e-3):
    """The Cayley march psi <- 2 A^{-1} psi - psi, A = I + i(step/2)H, on the
    interior points, written step by step: every per-step term recomputed
    and A solved anew at every step by the kernel the march picks for that
    step's run of equal (step, omega^2), which a kick ends.  A step alone in
    its run takes solve_banded (gtsv); a step of a longer run factors A with
    gttrf, then takes the unit sweeps of A = L D L^T, or gttrs after a row
    interchange.  The walls are 0."""
    q = packet.q[1:-1]
    dq2 = (packet.q[1] - packet.q[0]) ** 2
    off = -1.0 / (2.0 * mu * dq2)
    kin = 1.0 / (mu * dq2)
    strength = {e.time: e.strength for e in profile.jump_events(packet.t, t_b)}
    cuts = [packet.t] + sorted(strength) + ([t_b] if t_b not in strength else [])
    schedule = []  # (step, omega^2 at its midpoint, kick after it or None)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n_steps = max(1, math.ceil((hi - lo) / dt))
        step = (hi - lo) / n_steps
        t = lo
        for i in range(n_steps):
            kick = strength.get(hi) if i == n_steps - 1 else None
            schedule.append((step, profile.smooth_omega_squared(t + 0.5 * step), kick))
            t += step
    keys = [entry[:2] for entry in schedule]
    psi = packet.psi[1:-1].copy()
    for k, (step, w2, kick) in enumerate(schedule):
        sub = np.full(q.size - 1, 0.5j * step * off)
        diag = 1.0 + 0.5j * step * (kin + 0.5 * mu * w2 * q ** 2)
        before = keys[k - 1:k] if k and schedule[k - 1][2] is None else []
        after = keys[k + 1:k + 2] if kick is None else []
        alone_in_its_run = keys[k] not in before + after
        if alone_in_its_run:
            ab = np.zeros((3, q.size), dtype=complex)
            ab[0, 1:] = ab[2, :-1] = sub
            ab[1] = diag
            twice = 2.0 * solve_banded((1, 1), ab, psi)
        else:
            dl, d, du, du2, ipiv, info = lapack.zgttrf(sub, diag, sub)
            assert info == 0
            if np.array_equal(ipiv, np.arange(1, q.size + 1)):
                lower, upper = np.zeros((2, 2, q.size), dtype=complex)
                lower[1, :-1] = upper[0, 1:] = dl
                y = blas.ztbsv(1, lower, psi, lower=1, diag=1)
                twice = blas.ztbsv(1, upper, y * (2.0 / d), diag=1)
            else:
                twice = 2.0 * lapack.zgttrs(dl, d, du, du2, ipiv, psi)[0]
        psi = twice - psi
        if kick is not None:
            psi = psi * np.exp(-0.5j * mu * kick * q ** 2)
    return np.concatenate(([0.0], psi, [0.0]))


class TwoKicks(FrequencyProfile):
    """Impulses at 0.3004 and 0.55 with a different constant omega^2 on each
    side, so the three CN segments differ in length, step and diagonals."""

    def omega_squared(self, t):
        return np.select([t < 0.3004, t < 0.55], [1.0, 0.5], 2.0)[()]

    def jump_events(self, t_a, t_b):
        super().jump_events(t_a, t_b)
        return [JumpEvent(t, s) for t, s in ((0.3004, 0.7), (0.55, 1.1)) if t_a < t <= t_b]


class Staircase(FrequencyProfile):
    """Piecewise-constant omega^2 with its edges on the dt = 1e-3 step
    boundaries of [0, 1]: runs of 200, 1, 1, 2 and 1 equal CN steps side by
    side, then 495 equal steps that a kick at 0.5 cuts into runs of 295 and
    200 (the steps on both sides of it are equal), then a run of 2 and one
    of 298 at negative omega^2."""

    EDGES = (0.2, 0.201, 0.202, 0.204, 0.205, 0.7, 0.702)
    VALUES = (1.0, 0.5, 2.0, 0.25, 1.5, 0.75, 0.0, -0.5)

    def omega_squared(self, t):
        return np.select([t < e for e in self.EDGES], self.VALUES[:-1], self.VALUES[-1])[()]

    def jump_events(self, t_a, t_b):
        super().jump_events(t_a, t_b)
        return [JumpEvent(0.5, 0.4)] if t_a < 0.5 <= t_b else []


class KickMidRun(FrequencyProfile):
    """omega^2 = 2 on [0.499, 0.501) and 1 elsewhere, with a kick at 0.5: on
    [0, 1] at dt = 1e-3 the kick cuts the two equal CN steps at omega^2 = 2
    into two one-step runs, between runs of 499 steps."""

    def omega_squared(self, t):
        return np.where((0.499 <= t) & (t < 0.501), 2.0, 1.0)[()]

    def jump_events(self, t_a, t_b):
        super().jump_events(t_a, t_b)
        return [JumpEvent(0.5, 0.4)] if t_a < 0.5 <= t_b else []


# flat, ramp (omega^2 changes on every step), flat
FLATS_AND_RAMP = Tabulated([0.0, 0.3, 0.6, 1.0], [1.0, 1.0, 0.2, 0.2], interp="linear")


@pytest.mark.parametrize("profile, n, mu, dt", [
    (Constant(1.0), 512, 1.0, 1e-3),
    (DeltaPulse(0.8, 0.5), 512, 1.0, 1e-3),
    (SechSquared(1.0, 1.0, 0.5), 512, 1.0, 1e-3),
    (Constant(1.0), 256, 1.0, 1e-3),
    (DeltaPulse(0.8, 0.5), 1024, 1.0, 1e-3),
    (DeltaPulse(0.8, 0.5), 512, 0.5, 1e-3),
    (ExpDecay(1.2, 0.9), 512, 1.0, 1e-3),    # omega^2 changes on every step
    (TwoKicks(), 512, 1.0, 1e-3),
    (Staircase(), 512, 1.0, 1e-3),
    (Staircase(), 256, 0.5, 1e-3),
    (FLATS_AND_RAMP, 512, 1.0, 1e-3),
    # |i (step/2) off| >> 1, about 51 and 818: A is far from I
    (FREE, 1024, 1.0, 0.05),
    (FREE, 2048, 1.0, 0.2),
    (FREE, 512, 1.0, 2.0),                  # t_b - t_a < dt: a march of one gtsv step
    (FREE, 512, 1.0, 0.5),                  # one run of exactly two swept steps
    (DeltaPulse(0.8, 1.0), 512, 1.0, 1e-3),  # the kick at t_b, after the march's last step
    (Staircase(), 32, 1.0, 1e-3),
    (KickMidRun(), 512, 1.0, 1e-3),
], ids=["constant", "delta-pulse", "sech-squared", "constant-n256",
        "delta-pulse-n1024", "delta-pulse-mu0.5", "exp-decay", "two-kicks",
        "staircase", "staircase-n256-mu0.5", "tabulated-flats-and-ramp",
        "free-dt0.05-n1024", "free-dt0.2-n2048", "one-step", "two-step-run",
        "kick-at-t_b", "staircase-n32", "kick-mid-run"])
def test_cn_is_bit_identical_to_the_step_by_step_march(profile, n, mu, dt):
    # bit for bit the Cayley march, so the run factoring changes no bit; and
    # within roundoff of the march that builds the explicit half by hand
    p = GaussianState(0.3, 0.2, 0.7).on_grid(uniform_grid(-8.0, 8.0, n))
    out = crank_nicolson(profile, p, 1.0, mu=mu, dt=dt)
    assert np.array_equal(out.psi, _cayley_reference(profile, p, 1.0, mu=mu, dt=dt))
    assert out.psi[0] == out.psi[-1] == 0.0
    want = _cn_reference(profile, p, 1.0, mu=mu, dt=dt)
    assert np.linalg.norm(out.psi - want) <= 1e-12 * np.linalg.norm(want)


class CountingTwoKicks(TwoKicks):
    """TwoKicks that records the shape of each smooth_omega_squared call."""

    def __init__(self):
        self.shapes = []

    def smooth_omega_squared(self, t):
        self.shapes.append(np.shape(t))
        return super().smooth_omega_squared(t)


def _count_solver_calls(monkeypatch, fail=None):
    """Patch evolve's LAPACK and BLAS lookups; returns the list of lookups, a
    Counter of the calls of every routine they hand out and the ipiv of
    every gttrf call.  The routine named fail reports info = 1 after doing
    its work."""
    lookups, calls, pivots = [], Counter(), []

    def wrap(name, func):
        def counted(*args, **kwargs):
            calls[name] += 1
            out = func(*args, **kwargs)
            if name == "gttrf":
                pivots.append(out[4])
            return out[:-1] + (1,) if name == fail else out
        return counted

    def counting(lookup):
        def counting_lookup(names, arrays):
            lookups.append(names)
            return [wrap(name, f) for name, f in zip(names, lookup(names, arrays))]
        return counting_lookup

    for attr in ("get_lapack_funcs", "get_blas_funcs"):
        monkeypatch.setattr(evolve, attr, counting(getattr(evolve, attr)))
    return lookups, calls, pivots


def test_cn_reads_omega_squared_and_looks_up_gtsv_once_per_run(monkeypatch):
    # one lookup of each library and one omega^2 read per march; a matrix is
    # factored once per run of equal steps, which a kick ends (TwoKicks and
    # DeltaPulse: one per segment; Staircase: the kick at 0.5 cuts one run in
    # two, its three one-step runs take gtsv, and its run at omega^2 = -0.5
    # interchanges no rows either; KickMidRun: the kick leaves two one-step
    # runs) and never when omega^2 changes on every step (ExpDecay: gtsv
    # throughout); every step of a factored run is two tbsv sweeps
    lookups, calls, pivots = _count_solver_calls(monkeypatch)
    two_kicks = CountingTwoKicks()
    p = GaussianState(0.3, 0.2, 0.7).on_grid(uniform_grid(-8.0, 8.0, 256))
    cuts = (0.0, 0.3004, 0.55, 1.0)
    n_steps = sum(math.ceil((hi - lo) / 1e-3) for lo, hi in zip(cuts[:-1], cuts[1:]))
    for prof, total, gttrf, gtsv in ((two_kicks, n_steps, 3, 0),
                                     (ExpDecay(1.2, 0.9), 1000, 0, 1000),
                                     (Staircase(), 1000, 6, 3),
                                     (DeltaPulse(0.8, 0.5), 1000, 2, 0),
                                     (KickMidRun(), 1000, 2, 2)):
        lookups.clear()
        calls.clear()
        crank_nicolson(prof, p, 1.0, dt=1e-3)
        assert lookups == [("gtsv", "gttrf", "gttrs"), ("tbsv",)]
        assert calls == Counter(gttrf=gttrf, tbsv=2 * (total - gtsv), gtsv=gtsv)
    assert two_kicks.shapes == [(n_steps,)]
    assert len(pivots) == 13 and all(np.array_equal(ipiv, np.arange(1, 255)) for ipiv in pivots)


def test_cn_solves_by_gttrs_after_a_row_interchange(monkeypatch):
    # omega^2 = -4 with dt = 0.1 on [-8, 8]: gttrf interchanges rows, so
    # each of the run's 10 steps takes gttrs, still bit for bit the march
    _, calls, pivots = _count_solver_calls(monkeypatch)
    profile = Expression("-4")
    p = GaussianState(0.3, 0.2, 0.7).on_grid(uniform_grid(-8.0, 8.0, 512))
    with pytest.warns(StabilityWarning):
        out = crank_nicolson(profile, p, 1.0, dt=0.1)
    (ipiv,) = pivots
    assert not np.array_equal(ipiv, np.arange(1, 511))
    assert calls == Counter(gttrf=1, gttrs=10)
    assert np.array_equal(out.psi, _cayley_reference(profile, p, 1.0, dt=0.1))


def test_cn_long_swept_march_keeps_the_norm_and_the_reference():
    # 5000 swept steps at n = 1024: the roundoff of the 2/d scaling does not
    # build up, in the discrete norm or against the explicit-RHS march
    p = GaussianState(0.3, 0.2, 0.7).on_grid(uniform_grid(-8.0, 8.0, 1024))
    out = crank_nicolson(Constant(1.0), p, 5.0, dt=1e-3)
    norm = np.linalg.norm(p.psi)
    assert abs(np.linalg.norm(out.psi) - norm) <= 1e-12 * norm
    want = _cn_reference(Constant(1.0), p, 5.0)
    assert np.linalg.norm(out.psi - want) <= 1e-12 * np.linalg.norm(want)


def test_cn_leaves_the_input_packet_unchanged():
    # the first step hands LAPACK the input's own interior points
    p = GaussianState(0.3, 0.2, 0.7).on_grid(uniform_grid(-8.0, 8.0, 256))
    before = p.psi.copy()
    out = crank_nicolson(Staircase(), p, 1.0, dt=1e-3)
    assert np.array_equal(p.psi, before)
    assert not np.shares_memory(out.psi, p.psi)


@pytest.mark.parametrize("routine, profile, t_a, t_fail", [
    ("gttrf", Constant(1.0), 0.0, 0.0),       # the first step's run is factored
    ("gtsv", ExpDecay(1.2, 0.9), 0.0, 0.0),   # every step is a one-step run
    # from 0.2 Staircase gives two one-step runs, then the first factored run
    ("gtsv", Staircase(), 0.2, 0.2),
    ("gttrf", Staircase(), 0.2, 0.202),
])
def test_cn_refuses_a_failed_factorization_naming_t(monkeypatch, routine, profile, t_a, t_fail):
    _count_solver_calls(monkeypatch, fail=routine)
    p = GaussianState(0.3, 0.2, 0.7).on_grid(uniform_grid(-8.0, 8.0, 256), t=t_a)
    with pytest.raises(StepFailure, match=r"info=1\) at t=") as exc:
        crank_nicolson(profile, p, 1.0, dt=1e-3)
    assert float(str(exc.value).rsplit("t=", 1)[1]) == pytest.approx(t_fail, abs=1e-12)


@pytest.mark.parametrize("dt, count", [(1e-320, "inf"), (1e-300, "1e+300"), (1e-18, "1e+18")])
def test_cn_refuses_a_dt_that_needs_more_steps_than_an_array_holds(dt, count):
    # math.ceil(inf) raised OverflowError, and a list of 10^300 steps another
    p = GaussianState(0.3, 0.2, 0.7).on_grid(uniform_grid(-8.0, 8.0, 256))
    with pytest.raises(DomainError, match=rf"dt={dt!r} needs {re.escape(count)} steps on \[0.0, 1.0\], "
                                          rf"more than the {MAX_COUNT} "):
        crank_nicolson(Constant(1.0), p, 1.0, dt=dt)


class NanAfter(FrequencyProfile):
    """omega^2 = 1 before t_bad and nan from t_bad on."""

    def __init__(self, t_bad):
        self.t_bad = t_bad

    def omega_squared(self, t):
        return np.where(t < self.t_bad, 1.0, math.nan)[()]


def test_cn_refuses_non_finite_omega_squared():
    with pytest.raises(DomainError) as exc:
        crank_nicolson(NanAfter(0.05), _free_packet(512), 0.1, dt=1e-2)
    assert "t=0.055" in str(exc.value)
    # every other consumer of omega^2 gives the same refusal, naming a time
    # past t_bad, instead of a nan state, a mesh search or a bare ValueError
    for route in (lambda p, q: time_sliced_oracle(p, q, 10.0, n_slices=20),
                  lambda p, q: propagate_kernel(p, q, 0.1),
                  lambda p, q: solve_fundamental(p, 0.0, 0.1),
                  lambda p, q: compute_W(lambda t: np.ones_like(t), 0.0, 0.1, p)):
        with pytest.raises(DomainError, match=r"omega\^2 is nan at t=") as exc:
            route(NanAfter(0.05), _free_packet(512))
        assert 0.05 <= float(str(exc.value).rsplit("t=", 1)[1]) <= 0.5


# ---------------------------------------------------------------------------
# time-sliced route

def test_single_free_slice_is_exact():
    out = time_sliced_oracle(FREE, _free_packet(), 1.0, n_slices=1)
    want = oracles.free_gaussian(out.q, 1.0, 1.0, math.sqrt(0.5))
    err = math.sqrt(np.trapezoid(np.abs(out.psi - want) ** 2, out.q))
    assert err <= 1e-10


def test_sliced_error_halves_when_slices_double():
    prof = Constant(1.0)
    grid = uniform_grid(-8.0, 8.0, 32768)  # resolves the n=128 slice chirp
    p = PACKET.on_grid(grid)
    ref = propagate_kernel(prof, p, 0.5)
    errs = [compare(time_sliced_oracle(prof, p, 0.5, n), ref)["l2_error"]
            for n in (64, 128)]
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.4)


def test_sliced_alias_guard_names_the_knob():
    p = _free_packet(2048)
    with pytest.raises(DomainError) as exc:
        time_sliced_oracle(Constant(1.0), p, 1.0, n_slices=64)
    assert "n_slices" in str(exc.value)


@pytest.mark.parametrize("n_slices", [40, 400])
def test_sliced_refusal_suggests_the_smallest_accepted_grid(n_slices):
    # 256 points on [-8, 8] resolve 3 slices over T = 1; the hint names the
    # first n whose dq = 16/(n-1) resolves n_slices on the same extent
    prof = Constant(1.0)
    with pytest.raises(DomainError) as exc:
        time_sliced_oracle(prof, _free_packet(256), 1.0, n_slices)
    n = int(re.search(r"at least (\d+) points", str(exc.value)).group(1))
    out = time_sliced_oracle(prof, _free_packet(n), 1.0, n_slices)
    assert np.all(np.isfinite(out.psi))
    with pytest.raises(DomainError, match="cannot resolve"):
        time_sliced_oracle(prof, _free_packet(n - 1), 1.0, n_slices)


@pytest.mark.parametrize("n", [256, 3260, 3261])
def test_sliced_accepts_max_slices_and_refuses_one_more(n):
    # the grids of the test above: 256 points, and the smallest grid (3261
    # points) accepting 40 slices with its one-point-smaller neighbour
    prof = Constant(1.0)
    p = _free_packet(n)
    limit = max_slices(p, 1.0)
    assert np.all(np.isfinite(time_sliced_oracle(prof, p, 1.0, limit).psi))
    with pytest.raises(DomainError, match=f"cannot resolve.*at most n_slices = {limit} "):
        time_sliced_oracle(prof, p, 1.0, limit + 1)


def test_sliced_argument_validation():
    p = _free_packet(512)
    with pytest.raises(DomainError):
        time_sliced_oracle(FREE, p, 1.0, n_slices=0)
    with pytest.raises(DomainError):
        time_sliced_oracle(FREE, p, 0.0, n_slices=4)
    # a fractional count would run whole slices of (t_b - t)/n_slices past t_b
    for bad in (40.5, 2.5, 0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="whole number"):
            time_sliced_oracle(FREE, p, 1.0, n_slices=bad)
    prof = ExpDecay(2.0, 0.5)
    assert np.array_equal(time_sliced_oracle(prof, p, 1.0, n_slices=3.0).psi,
                          time_sliced_oracle(prof, p, 1.0, n_slices=3).psi)


def _sliced_reference(profile, packet, t_b, n_slices, mu=1.0):
    """The time-sliced composition written slice by slice, every potential
    phase rebuilt from q ** 2; omega^2 is read in one call, as the route
    reads it."""
    q, h, n = packet.q, packet.dq, packet.q.size
    eps = (t_b - packet.t) / n_slices
    pref = cmath.sqrt(mu / (2.0 * math.pi * 1j * eps))
    kern = pref * h * np.exp(0.5j * mu * (np.arange(-(n - 1), n) * h) ** 2 / eps)
    m = fft.next_fast_len(2 * n - 1)
    kern_hat = fft.fft(kern, m)
    kicks = {}
    for e in profile.jump_events(packet.t, t_b):
        j = max(1, math.ceil((e.time - packet.t) / eps - 1e-12))
        kicks[j] = kicks.get(j, 0.0) + e.strength
    w2s = np.broadcast_to(profile.smooth_omega_squared(packet.t + np.arange(1, n_slices + 1) * eps),
                          (n_slices,))
    psi = packet.psi
    for j in range(1, n_slices + 1):
        psi = fft.ifft(fft.fft(psi, m) * kern_hat)[n - 1:2 * n - 1]
        psi = psi * np.exp(-0.5j * eps * mu * w2s[j - 1] * q ** 2)
        if j in kicks:
            psi = psi * np.exp(-0.5j * mu * kicks[j] * q ** 2)
    return psi


@pytest.mark.parametrize("profile, mu, n_slices", [
    (Constant(1.0), 1.0, 8), (DeltaPulse(0.6, 0.5), 1.0, 8), (ExpDecay(1.2, 0.9), 1.0, 8),
    (DeltaPulse(0.6, 0.5), 0.5, 8), (ExpDecay(1.2, 0.9), 2.0, 4),
], ids=["constant", "delta-pulse", "exp-decay", "delta-pulse-mu0.5", "exp-decay-mu2"])
def test_sliced_is_bit_identical_to_the_slice_by_slice_composition(profile, mu, n_slices):
    # the route multiplies its phases in place, never into the input, and
    # returns an array of its own
    p = PACKET.on_grid(uniform_grid(-8.0, 8.0, 2048))
    before = p.psi.copy()
    out = time_sliced_oracle(profile, p, 1.0, n_slices, mu=mu)
    assert np.array_equal(out.psi, _sliced_reference(profile, p, 1.0, n_slices, mu))
    assert np.array_equal(p.psi, before)
    assert out.psi.base is None


def test_sliced_impulse_converges_toward_kernel():
    prof = DeltaPulse(0.6, 0.5)
    grid = uniform_grid(-8.0, 8.0, 2048)
    p = PACKET.on_grid(grid)
    ref = propagate_kernel(prof, p, 1.0)
    e4 = compare(time_sliced_oracle(prof, p, 1.0, 4), ref)["l2_error"]
    e8 = compare(time_sliced_oracle(prof, p, 1.0, 8), ref)["l2_error"]
    assert e8 < e4 < 0.1


# ---------------------------------------------------------------------------
# compare

def test_compare_identity_and_phase():
    p = _free_packet(512)
    same = compare(p, p)
    assert same["l2_error"] == 0.0
    assert same["norm_ratio"] == pytest.approx(1.0, rel=1e-14)
    assert same["overlap"] == pytest.approx(1.0 + 0.0j, abs=1e-10)

    alpha = 0.7
    shifted = WavePacket(q=p.q, psi=p.psi * cmath.exp(1j * alpha), t=p.t)
    d = compare(shifted, p)
    assert d["l2_error"] == pytest.approx(2.0 * abs(math.sin(alpha / 2.0)), rel=1e-10)
    assert abs(d["overlap"]) == pytest.approx(1.0, abs=1e-10)
    assert cmath.phase(d["overlap"]) == pytest.approx(-alpha, abs=1e-12)


def test_compare_orthogonal_states():
    q = uniform_grid(-10.0, 10.0, 1024)
    ground = PACKET.on_grid(q)
    first = WavePacket(q=q, psi=math.sqrt(2.0) * q * ground.psi, t=0.0)
    assert abs(compare(ground, first)["overlap"]) <= 1e-10


def test_compare_grid_mismatch():
    a = _free_packet(512)
    b = _free_packet(256)
    with pytest.raises(GridMismatch):
        compare(a, b)
    c = PACKET.on_grid(uniform_grid(-7.0, 9.0, 512))
    with pytest.raises(GridMismatch):
        compare(a, c)


def _routes(packet, t_b=0.5):
    return (lambda: propagate_kernel(FREE, packet, t_b),
            lambda: crank_nicolson(FREE, packet, t_b),
            lambda: time_sliced_oracle(FREE, packet, t_b, 2))


@pytest.mark.parametrize("bad, message", [
    (None, "zero state"), (math.nan, "non-finite"), (math.inf, "non-finite"),
], ids=["zero", "nan", "inf"])
def test_every_grid_route_refuses_a_zero_or_non_finite_state(bad, message):
    q = uniform_grid(-4.0, 4.0, 64)
    if bad is None:
        psi = np.zeros(64, dtype=complex)
    else:
        psi = GaussianState(0.0, 0.0, 0.5).psi(q)
        psi[32] = bad
    for route in _routes(WavePacket(q=q, psi=psi, t=0.0)):
        with pytest.raises(DomainError, match=message):
            route()


def test_every_grid_route_refuses_t_b_not_after_the_packet():
    p = _free_packet(256)
    for t_b in (0.0, -0.5):
        for route in _routes(p, t_b):
            with pytest.raises(DomainError, match=rf"need a finite window t_a < t_b, got \[0\.0, {t_b}\]"):
                route()
