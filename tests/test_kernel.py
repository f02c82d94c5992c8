import cmath
import importlib
import math
from functools import cached_property

import numpy as np
import pytest
import scipy.interpolate
import scipy.optimize
from scipy.optimize import brentq

import oracles
from tdho.classical import (FundamentalPair, SolutionCurve, closed_form,
                            pair_from_solution, solve_fundamental)
from tdho.errors import (CausticAtEndpoint, CausticInWindow, DomainError,
                         SolutionMismatch, StepFailure)
from tdho.freq_profile import (Constant, DeltaPulse, ExpDecay, Expression,
                               FrequencyProfile, JumpEvent, PowerLaw, SechSquared,
                               Tabulated)
from tdho.kernel import (_zero_scan_grid, compute_W, kernel, kernel_batch, kernel_eq17,
                         kernel_robust, schrodinger_residual)

ONE = SolutionCurve(f=lambda t: 1.0, fdot=lambda t: 0.0, label="1")
COS = SolutionCurve(f=np.cos, fdot=lambda t: -np.sin(t), label="cos")


def test_quadrature_pinned_values():
    w, err = compute_W(ONE.f, 0.0, 2.0, Constant(0.0))
    assert w == pytest.approx(2.0, abs=1e-12)
    assert err < 1e-10
    w, err = compute_W(COS.f, 0.0, 0.5, Constant(1.0))
    assert w == pytest.approx(math.tan(0.5), rel=1e-10)


def test_quadrature_detects_caustic():
    with pytest.raises(CausticInWindow) as exc:
        compute_W(COS.f, 0.0, 2.0, Constant(1.0))
    assert exc.value.t_zero == pytest.approx(math.pi / 2.0, abs=1e-9)
    with pytest.raises(DomainError):
        compute_W(ONE.f, 1.0, 1.0, Constant(0.0))


# a node of the zero scan that compute_W runs for Constant(0.0) on [0, 9.99]
_NODE = _zero_scan_grid(Constant(0.0), 0.0, 9.99)[120]


@pytest.mark.parametrize("f, want", [
    (np.cos, math.pi / 2.0),                                   # two sign flips
    (lambda t: (t - _NODE) * (t - 5.555), _NODE),              # an exact zero on a node, then a flip
    (lambda t: (t - 2.345) * (t - _NODE), 2.345),              # a flip, then an exact zero on a node
    (lambda t: (t - _NODE - 1e-12) * (t - 5.555), _NODE),      # a grazing node just before a flip
], ids=["two-flips", "node-then-flip", "flip-then-node", "grazing-then-flip"])
def test_quadrature_refuses_at_the_earliest_zero(monkeypatch, f, want):
    calls = []

    def counting_brentq(*args, **kw):
        calls.append(args[1:3])
        return brentq(*args, **kw)

    # kernel imports brentq from scipy.optimize when it calls it
    monkeypatch.setattr(scipy.optimize, "brentq", counting_brentq)
    with pytest.raises(CausticInWindow) as exc:
        compute_W(f, 0.0, 9.99, Constant(0.0))
    assert exc.value.t_zero == pytest.approx(want, abs=1e-12)
    assert len(calls) <= 1
    assert bool(calls) == (want != _NODE)  # brentq runs for a flip before any zero node


def test_quadrature_refuses_an_unconverged_W():
    # 1/f^2 oscillates 3183 times on the window: 200 subdivisions do not resolve it
    with pytest.raises(StepFailure, match=r"\[0\.0, 1\.0\].*estimate.*error estimate"):
        compute_W(lambda t: 2.0 + np.sin(2e4 * t), 0.0, 1.0, Constant(0.0))


def test_eq17_steps_around_a_non_finite_expression_end():
    # 0*log(t) is nan at t = 0: the zero scan's probe drops that end, as it
    # does a power law's, since NonFiniteError is a DomainError
    profile = Expression("1 + 0*log(t)")
    pair = solve_fundamental(profile, 0.0, 1.0)
    got = kernel_eq17(profile, pair.combination(1.0, 0.0), 0.0, 1.0, 0.1, 0.2).k
    want = kernel_robust(pair, 0.1, 0.2).k
    assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("profile, t_b", [(SechSquared(1.0, 1.0, 0.5), 1.0), (ExpDecay(2.0, 0.5), 0.5)])
def test_eq17_maps_its_curve_to_the_pairs_end(monkeypatch, profile, t_b):
    # v = f_a f int ds / f^2 and u = (f - f'_a v) / f_a, for the zero-free
    # f = u + 0.5 v, give back the solved pair's end to W's rtol
    kernel_module = importlib.import_module("tdho.kernel")  # tdho.kernel is the function
    seen, form = [], kernel_module._kernel
    monkeypatch.setattr(kernel_module, "_kernel",
                        lambda t_a, t_b, end, *a: seen.append(end) or form(t_a, t_b, end, *a))
    pair = solve_fundamental(profile, 0.0, t_b)
    kernel_eq17(profile, pair.combination(1.0, 0.5), 0.0, t_b, 0.3, -0.2)
    (end,) = seen
    assert end[4] == 0
    assert np.max(np.abs(np.array(end[:4]) - pair.end[:4])) <= 1e-9


@pytest.mark.parametrize("h_t, h_q", [(0.0, 1e-2), (-1e-2, 1e-2), (math.inf, 1e-2),
                                      (1e-2, 0.0), (1e-2, math.nan), (1e-2, -1e-2)])
def test_schrodinger_residual_refuses_bad_steps(h_t, h_q):
    with pytest.raises(DomainError, match=r"^h_[tq] must be positive and finite, got"):
        schrodinger_residual(Constant(1.0), 0.0, 1.0, 0.1, 0.2, h_t=h_t, h_q=h_q)


def test_schrodinger_residual_refuses_a_step_longer_than_the_window():
    # the [t_a, t_b - h_t] solve would be reversed: the refusal names h_t and
    # the caller's window, not [0.0, -0.005]
    with pytest.raises(DomainError, match=r"^h_t = 0\.01 leaves \[t_a, t_b - h_t\] empty "
                                          r"on the window \[0\.0, 0\.005\]$"):
        schrodinger_residual(Constant(1.0), 0.0, 0.005, 0.1, 0.2)


def test_schrodinger_residual_refuses_a_step_below_the_float_spacing_at_t_b():
    # t_b - h_t and t_b + h_t both round to t_b = 1e10 + 1, whose spacing is 2^-19
    with pytest.raises(DomainError, match=r"^h_t = 1e-07 is below the float spacing 1\.907e-06 "
                                          r"at t_b on the window \[10000000000\.0, 10000000001\.0\]$"):
        schrodinger_residual(Constant(1.0), 1e10, 1e10 + 1.0, 0.1, 0.2, h_t=1e-7)


def test_schrodinger_residual_divides_by_the_rounded_span():
    # a few float spacings (2^-19) from t_b, t_b + h_t - (t_b - h_t) is not
    # 2 h_t: at 3e-6 it is 7.6e-6, and dividing by 6e-6 gave 0.11
    r = [schrodinger_residual(Constant(1.0), 1e10, 1e10 + 1.0, 0.3, 0.7, h_t=h_t)
         for h_t in (2e-6, 3e-6, 5e-6, 1e-5)]
    assert max(r) <= 1e-4, r
    assert max(r) <= 1.01 * min(r), r


def test_free_kernel_both_routes():
    want = oracles.free_kernel(1.0, 1.0, 0.0, 1.0)

    kv = kernel_eq17(Constant(0.0), ONE, 0.0, 1.0, 0.0, 1.0)
    assert abs(kv.k - want) <= 1e-12 * abs(want)
    assert kv.modulus == pytest.approx(0.3989422804, abs=1e-10)
    assert kv.phase == pytest.approx(0.5 - math.pi / 4.0, abs=1e-12)
    assert not kv.caustic_flag

    kv = kernel(Constant(0.0), 0.0, 1.0, 0.0, 1.0)
    assert abs(kv.k - want) <= 1e-12 * abs(want)
    assert kv.diagnostics["v_b"] == pytest.approx(1.0, abs=1e-13)


def test_free_kernel_random_endpoints():
    rng = np.random.default_rng(2)
    for _ in range(20):
        qa, qb = rng.uniform(-3, 3, size=2)
        T = rng.uniform(0.2, 2.0)
        want = oracles.free_kernel(1.0, T, qa, qb)
        kv = kernel_eq17(Constant(0.0), ONE, 0.0, T, qa, qb)
        assert abs(kv.k - want) <= 1e-12 * abs(want)


def test_constant_frequency_matches_mehler_both_routes():
    prof = Constant(1.0)
    qs = np.linspace(-2.0, 2.0, 5)
    pair = solve_fundamental(prof, 0.0, 0.5)
    for qa in qs:
        for qb in qs:
            want = oracles.mehler_kernel(1.0, 1.0, 0.5, qa, qb)
            kv = kernel_eq17(prof, COS, 0.0, 0.5, float(qa), float(qb))
            assert abs(kv.k - want) <= 1e-9 * abs(want)
            kv = kernel_robust(pair, float(qa), float(qb))
            assert abs(kv.k - want) <= 1e-9 * abs(want)


def test_solution_scaled_equals_endpoint_form():
    prof = ExpDecay(1.0, 1.0)
    sol = closed_form(prof)
    pair = solve_fundamental(prof, 0.0, 1.0)
    for qa, qb in ((0.0, 0.0), (0.7, -0.4), (-1.5, 2.0), (2.0, 2.0)):
        a = kernel_eq17(prof, sol, 0.0, 1.0, qa, qb)
        b = kernel_robust(pair, qa, qb)
        assert abs(a.k - b.k) <= 1e-9 * abs(b.k)


def test_solution_scaled_is_gauge_invariant():
    # which zero-free classical solution is used must not matter
    prof = ExpDecay(1.0, 1.0)
    pair = solve_fundamental(prof, 0.0, 1.0)
    f1 = pair.combination(1.0, 0.3)
    f2 = pair.combination(0.7, -0.2)
    for qa, qb in ((0.3, 0.9), (-1.0, 0.5)):
        a = kernel_eq17(prof, f1, 0.0, 1.0, qa, qb)
        b = kernel_eq17(prof, f2, 0.0, 1.0, qa, qb)
        assert abs(a.k - b.k) <= 1e-8 * abs(b.k)


def test_modulus_is_endpoint_independent():
    # |K| = sqrt(mu / 2 pi |v_b|) for every (q_a, q_b)
    pair = solve_fundamental(Constant(0.8), 0.0, 1.0)
    v_b = float(pair.state(1.0)[2])
    want = math.sqrt(1.0 / (2.0 * math.pi * abs(v_b)))
    rng = np.random.default_rng(4)
    for _ in range(10):
        qa, qb = rng.uniform(-5, 5, size=2)
        assert kernel_robust(pair, qa, qb).modulus == pytest.approx(want, rel=1e-12)


def test_phase_is_unwrapped():
    kv = kernel_eq17(Constant(0.0), ONE, 0.0, 1.0, 0.0, 10.0)
    assert kv.phase == pytest.approx(50.0 - math.pi / 4.0, rel=1e-12)
    assert kv.phase > 2.0 * math.pi  # not reduced
    assert cmath.isclose(kv.k, kv.modulus * cmath.exp(1j * kv.phase), rel_tol=1e-12)


def test_past_caustic_branch_and_flag():
    # T = 3.5 > pi: v = sin t has crossed zero once, flag set, Maslov phase added
    kv = kernel(Constant(1.0), 0.0, 3.5, 0.4, -0.3)
    assert kv.caustic_flag
    assert kv.diagnostics["interior_v_zeros"] == 1
    v_b = kv.diagnostics["v_b"]
    assert v_b == pytest.approx(math.sin(3.5), abs=1e-9)
    assert kv.modulus == pytest.approx(math.sqrt(1.0 / (2.0 * math.pi * abs(v_b))), rel=1e-9)
    # prefactor phase is -pi/4 - pi/2 after one focal point, not the
    # principal root's +pi/4
    want = oracles.mehler_kernel(1.0, 1.0, 3.5, 0.4, -0.3)
    assert abs(kv.k - want) <= 1e-9 * abs(want)
    quad_part = 0.5 / v_b * (kv.diagnostics["vdot_b"] * 0.3 ** 2
                             + kv.diagnostics["u_b"] * 0.4 ** 2
                             - 2.0 * 0.4 * -0.3)
    assert kv.phase - quad_part == pytest.approx(-3.0 * math.pi / 4.0, abs=1e-12)


@pytest.mark.parametrize("n_focal", range(6))
def test_maslov_phase_after_each_focal_point(n_focal):
    # K = e^{-i pi/4 - i n pi/2} / sqrt(2 pi |sin T|) e^{i S_cl} for omega = 1,
    # past n = floor(T / pi) focal points
    t_b = 0.6 + n_focal * math.pi
    qa, qb = 0.4, -0.3
    kv = kernel(Constant(1.0), 0.0, t_b, qa, qb)
    s, c = math.sin(t_b), math.cos(t_b)
    action = ((qa * qa + qb * qb) * c - 2.0 * qa * qb) / (2.0 * s)
    want = (cmath.exp(-1j * (math.pi / 4.0 + n_focal * math.pi / 2.0) + 1j * action)
            / math.sqrt(2.0 * math.pi * abs(s)))
    assert kv.diagnostics["interior_v_zeros"] == n_focal
    assert kv.caustic_flag == (n_focal > 0)
    assert abs(kv.k - want) <= 1e-9 * abs(want)
    assert kv.phase == pytest.approx(-math.pi / 4.0 - n_focal * math.pi / 2.0 + action, abs=1e-9)


def rotation_pair(t_b: float, n: int) -> FundamentalPair:
    """omega = 1's exact pair u = cos t, v = sin t, as a record with n + 1 uniform nodes."""
    ts = np.linspace(0.0, t_b, n + 1)
    c, s = np.cos(ts), np.sin(ts)
    node_y = np.stack([np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)], axis=-2)
    return FundamentalPair(Constant(1.0), 0.0, t_b, ts, node_y, ())


def test_caustic_at_endpoint_refuses():
    pair = rotation_pair(math.pi, 16)
    with pytest.raises(CausticAtEndpoint) as exc:
        kernel_robust(pair, 0.3, 0.4)
    assert exc.value.t_b == pytest.approx(math.pi)
    assert abs(exc.value.v_b) < 1e-12 * math.pi
    # just short of the focal time it still evaluates
    kv = kernel_robust(rotation_pair(math.pi - 1e-3, 16), 0.3, 0.4)
    assert math.isfinite(kv.modulus)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_focal_endpoint_refuses_at_the_default_tol(k):
    # T = k pi is a focal time of omega = 1; the solve must put v_b at
    # roundoff there, below the singularity threshold, not at ~1e-11
    with pytest.raises(CausticAtEndpoint) as exc:
        kernel(Constant(1.0), 0.0, k * math.pi, 0.3, -0.2)
    assert abs(exc.value.v_b) < 1e-15


@pytest.mark.parametrize("t_b", [1.0, 3.0, 6.0])
def test_inverted_oscillator_matches_closed_form(t_b):
    # omega^2 = -1: u = cosh t and v = sinh t, so v has no zero after t = 0
    profile = Expression("-1")
    grid = np.linspace(0.0, t_b, 7)
    w2 = profile.omega_squared(grid)
    assert isinstance(w2, np.ndarray) and w2.shape == grid.shape and np.all(w2 == -1.0)
    q_a, q_b = np.array([-1.0, 0.3, 1.2, 0.0]), np.array([0.5, -0.8, 1.1, 2.0])
    got = kernel_robust(solve_fundamental(profile, 0.0, t_b), q_a, q_b).k
    u, v = math.cosh(t_b), math.sinh(t_b)
    want = cmath.sqrt(1.0 / (2.0 * math.pi * 1j * v)) * np.exp(
        0.5j / v * (u * q_b ** 2 + u * q_a ** 2 - 2.0 * q_a * q_b))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


_TABLE_T = np.linspace(0.0, 8.0, 17)
_TABLE_SPLINE = scipy.interpolate.CubicSpline(_TABLE_T, 2.0 + np.sin(_TABLE_T), bc_type="not-a-knot")
# profile, t_b, omega^2 as plain Python, kicks (t0, s) and the relative kernel
# error an earlier scratch probe of this oracle found (the table's own: 3e-12 here)
INVARIANT_PHASE_CASES = {
    "exp-decay": (ExpDecay(2.0, 0.5), 8.0, lambda t: 4.0 * math.exp(-0.5 * t), (), 6.6e-12),
    "delta-pulse": (DeltaPulse(1.2, 1.0), 9.0, lambda t: 1.2 ** 4 if t >= 1.0 else 0.0, [(1.0, 1.44)], 1.5e-12),
    "sech-squared": (SechSquared(3.0, 1.0, 2.0), 4.0, lambda t: 9.0 / math.cosh(t - 2.0) ** 2, (), 6.8e-12),
    "negative-omega2": (Expression("-1 + 3*sin(5*t)"), 6.0, lambda t: -1.0 + 3.0 * math.sin(5.0 * t), (), 5.2e-12),
    "power-law": (PowerLaw(1.0, 1.0, 1.0), 9.0, lambda t: t, (), 8e-11),
    "constant": (Constant(20.0), 3.0, lambda t: 400.0, (), 5.2e-10),
    "tabulated": (Tabulated(_TABLE_T, 2.0 + np.sin(_TABLE_T)), 8.0, lambda t: float(_TABLE_SPLINE(t)),
                  [(t, 0.0) for t in _TABLE_T[1:-1]], 3e-12),
}


@pytest.mark.parametrize("name", INVARIANT_PHASE_CASES)
def test_kernel_matches_the_invariant_phase_oracle(name):
    # the oracle's pair and focal count come from DOP853 on z = u + i v, not
    # from the Magnus solve or its sign scan: v vanishes where theta = arg z
    # passes a multiple of pi, so the count is floor(theta_b / pi)
    profile, t_b, omega2, kicks, err = INVARIANT_PHASE_CASES[name]
    u, ud, v, vd, theta = oracles.invariant_phase(omega2, 0.0, t_b, kicks)
    n = math.floor(theta / math.pi)
    pair = solve_fundamental(profile, 0.0, t_b)
    assert pair.end[4] == n
    q_a, q_b = np.array([0.3, 1.1, -0.7]), np.array([-0.2, 0.4, 0.9])
    want = np.exp(1j * (-math.pi / 4.0 - n * math.pi / 2.0 + (u * q_a ** 2 - 2.0 * q_a * q_b + vd * q_b ** 2)
                        / (2.0 * v))) / math.sqrt(2.0 * math.pi * abs(v))
    assert np.max(np.abs(kernel_robust(pair, q_a, q_b).k - want) / np.abs(want)) <= 10.0 * err


def zeros_after(v0: float, vd0: float, w: float, tau: float) -> int:
    """Zeros in (0, tau) of v0 cos(w s) + (vd0/w) sin(w s), v0 != 0."""
    phi = math.atan2(v0, vd0 / w)  # the curve is R sin(w s + phi)
    return math.floor((w * tau + phi) / math.pi) - math.floor(phi / math.pi)


def focal_count(pair):
    return kernel_robust(pair, 0.3, -0.2).diagnostics["interior_v_zeros"]


def focal_count_at(profile, t_end):
    """The focal count of the window [0, t_end], solved afresh."""
    return focal_count(solve_fundamental(profile, 0.0, t_end))


@pytest.mark.parametrize("omega, want", [(50.0, 159), (400.0, 1273)])
def test_focal_count_at_high_frequency(omega, want):
    kv = kernel(Constant(omega), 0.0, 10.0, 0.3, -0.2)
    assert want == math.floor(10.0 * omega / math.pi)
    assert kv.diagnostics["interior_v_zeros"] == want


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
def test_focal_count_is_tolerance_independent(tol):
    omega, T = 23.0, 10.0
    pair = solve_fundamental(Constant(omega), 0.0, T, tol)
    assert focal_count(pair) == math.floor(omega * T / math.pi)


def test_focal_count_inside_the_window():
    omega = 3.0
    profile = Constant(omega)
    for k in (1, 2, 5):
        zero = k * math.pi / omega
        assert focal_count_at(profile, zero - 1e-6) == k - 1
        assert focal_count_at(profile, zero + 1e-6) == k
    ts = solve_fundamental(profile, 0.0, 6.0).node_t
    # windows ending at the nodes of a longer window, between them, and in its first step
    for t_end in np.concatenate([ts[1:-1], 0.5 * (ts[:-1] + ts[1:]), [0.5 * ts[1]]]):
        if abs(math.remainder(omega * t_end, math.pi)) > 1e-9:
            assert focal_count_at(profile, t_end) == math.floor(omega * t_end / math.pi), t_end


class KickedConstant(FrequencyProfile):
    """omega^2 = omega0^2 plus strength * delta(t - t0)."""

    def __init__(self, omega0, t0, strength):
        self.omega0, self.t0, self.strength = omega0, t0, strength

    def omega_squared(self, t):
        return self.omega0 ** 2

    def jump_events(self, t_a, t_b):
        super().jump_events(t_a, t_b)
        return [JumpEvent(self.t0, self.strength)] if t_a < self.t0 <= t_b else []


@pytest.mark.parametrize("profile, w, before", [
    # kick at t0 = 1.5, between the zeros of sin(3t) at pi/3 and 2 pi/3
    (KickedConstant(3.0, 1.5, 4.0), 3.0,
     lambda t0: (math.sin(3.0 * t0) / 3.0, math.cos(3.0 * t0), 1)),
    # omega^2 = 0 before t0, so v = t; the kick v' -> 1 - 4 v sends v down
    (DeltaPulse(2.0, 1.5), 4.0, lambda t0: (t0, 1.0, 0)),
], ids=["kick-between-zeros", "delta-pulse"])
def test_focal_count_across_an_impulse(profile, w, before):
    t0, T = 1.5, 6.0
    assert solve_fundamental(profile, 0.0, T).event_times == (t0,)
    v0, vd0, n0 = before(t0)
    s = profile.jump_events(0.0, T)[0].strength
    for t_end in np.linspace(0.05, T, 240):
        if t_end < t0:
            want = math.floor(w * t_end / math.pi) if n0 else 0
        else:
            want = n0 + zeros_after(v0, vd0 - s * v0, w, t_end - t0)
        assert focal_count_at(profile, t_end) == want, t_end
    assert want == 6  # the sweep has passed six zeros by t = T


def test_focal_count_of_pair_from_solution():
    # a pair is fixed by its initial data: the caller's f = cos(3t + 1.2) is
    # only checked, and the pair is the solved one, bit for bit
    omega, T = 3.0, 5.0
    sol = SolutionCurve(f=lambda t: np.cos(omega * t + 1.2),
                        fdot=lambda t: -omega * np.sin(omega * t + 1.2))
    pair = pair_from_solution(sol, Constant(omega), 0.0, T)
    solved = solve_fundamental(Constant(omega), 0.0, T)
    assert np.array_equal(pair.node_t, solved.node_t) and np.array_equal(pair.node_y, solved.node_y)
    ts = np.linspace(0.0, T, 41)
    assert np.array_equal(pair.state(ts), solved.state(ts))
    for t_end in (1.0, 1.1, 2.0, 2.2, T):
        pair = pair_from_solution(sol, Constant(omega), 0.0, t_end)
        assert focal_count(pair) == math.floor(omega * t_end / math.pi)


def test_focal_count_of_hand_built_pair():
    # node spacing at most 0.25 keeps omega h <= 1/2, so no interval holds two zeros
    for t_end in (1.0, math.pi - 1e-3, math.pi + 1e-3, 20.0, 40.0):
        pair = rotation_pair(t_end, math.ceil(4.0 * t_end))
        assert focal_count(pair) == math.floor(t_end / math.pi)


def test_three_kernel_calls_read_the_end_without_state_and_count_focal_points_once(monkeypatch):
    pair = solve_fundamental(Constant(2.0), 0.0, 5.0)
    calls = []
    state, end = FundamentalPair.state, FundamentalPair.end.func
    monkeypatch.setattr(FundamentalPair, "state", lambda self, t: calls.append("state") or state(self, t))
    counting_end = cached_property(lambda self: calls.append("end") or end(self))
    counting_end.__set_name__(FundamentalPair, "end")
    monkeypatch.setattr(FundamentalPair, "end", counting_end)
    values = [kernel_robust(pair, qa, qb).k for qa, qb in ((0.1, 0.2), (-0.5, 1.0), (1.5, -0.3))]
    assert calls == ["end"]
    assert all(np.isfinite(k) for k in values)


# every family, on windows from t_a to up to t_a + 9 that pass 0 to 4 focal points and more
END_PROFILES = {
    "constant": (Constant(2.0), 0.0),
    "exp-decay": (ExpDecay(3.0, 0.1), 0.0),
    "power-law": (PowerLaw(1.5, 1.0, 0.5), 0.3),
    "delta-pulse": (DeltaPulse(1.5, 0.5), 0.0),
    "sech-squared": (SechSquared(3.0, 0.2, 4.0), 0.0),
    "tabulated": (Tabulated(np.linspace(0.0, 10.0, 41), 4.0 + np.sin(np.linspace(0.0, 10.0, 41))), 0.0),
    "expression": (Expression("4 + sin(t)"), 0.0),
}


def _end_the_long_way(pair):
    """u, u', v, v' at t_b by state(), and the focal count as the sign changes
    of v at 4001 times from t_a to t_b, also by state()."""
    u, ud, v, vd = (float(x) for x in pair.state(pair.t_b))
    signs = np.sign(pair.state(np.linspace(pair.t_a, pair.t_b, 4001))[2, 1:])
    signs = signs[signs != 0.0]
    return u, ud, v, vd, int(np.count_nonzero(signs[1:] != signs[:-1]))


def _end_windows(name):
    profile, t_a = END_PROFILES[name]
    return [(profile, t_a, t_b) for t_b in t_a + np.linspace(0.35, 9.0, 25)]


@pytest.mark.parametrize("name", [*END_PROFILES, "kick-at-t_b"])
def test_endpoint_reads_the_end_as_state_and_focal_count_do(name):
    windows = [(DeltaPulse(1.5, 0.5), 0.0, 0.5), (DeltaPulse(1.5, 2.0), 0.0, 2.0)] \
        if name == "kick-at-t_b" else _end_windows(name)
    seen = set()
    for profile, t_a, t_b in windows:
        pair = solve_fundamental(profile, t_a, t_b)
        assert pair.end == _end_the_long_way(pair)
        diagnostics = kernel_robust(pair, 0.3, -0.2, 1.3).diagnostics
        assert tuple(diagnostics.values()) == pair.end
        seen.add(pair.end[4])
    if name == "kick-at-t_b":  # the state after the kick, not before it
        assert pair.node_t[-2] == pair.node_t[-1] == 2.0
        assert pair.end[1] != pair.node_y[-2, 1, 0]
    else:
        assert {0, 1, 2, 3, 4} <= seen


@pytest.mark.parametrize("name", [*END_PROFILES, "kick-at-t_b"])
def test_thawed_gaussian_reads_the_end_as_state_and_focal_count_do(monkeypatch, name):
    from tdho.evolve import GaussianState, propagate_kernel, uniform_grid
    windows = [(DeltaPulse(1.5, 2.0), 0.0, 2.0)] if name == "kick-at-t_b" else _end_windows(name)[::4]
    q = uniform_grid(-8.0, 8.0, 256)
    packets = [GaussianState(0.3, -0.4, 0.7).on_grid(q, t=t_a) for _, t_a, _ in windows]
    direct = [propagate_kernel(prof, p, t_b, mu=1.3).psi for (prof, _, t_b), p in zip(windows, packets)]
    monkeypatch.setattr(FundamentalPair, "end", property(_end_the_long_way))
    for (prof, _, t_b), p, psi in zip(windows, packets, direct):
        assert np.array_equal(propagate_kernel(prof, p, t_b, mu=1.3).psi, psi)


def test_eq17_detects_caustic_in_window():
    with pytest.raises(CausticInWindow) as exc:
        kernel_eq17(Constant(1.0), COS, 0.0, 2.0, 0.1, 0.2)
    assert exc.value.t_zero == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_eq17_rejects_non_solution():
    wrong = SolutionCurve(f=lambda t: np.cos(2.0 * t),
                          fdot=lambda t: -2.0 * np.sin(2.0 * t))
    with pytest.raises(SolutionMismatch):
        kernel_eq17(Constant(1.0), wrong, 0.0, 1.0, 0.0, 0.5)


def test_mu_must_be_positive():
    with pytest.raises(DomainError):
        kernel_eq17(Constant(0.0), ONE, 0.0, 1.0, 0.0, 0.5, mu=0.0)
    pair = solve_fundamental(Constant(0.0), 0.0, 1.0)
    with pytest.raises(DomainError):
        kernel_robust(pair, 0.0, 0.5, mu=-1.0)


def test_kernel_batch_matches_scalar_loop():
    pair = solve_fundamental(ExpDecay(1.0, 1.0), 0.0, 1.0)
    rng = np.random.default_rng(9)
    qa = rng.uniform(-2, 2, size=10)
    qb = rng.uniform(-2, 2, size=10)
    k, modulus, phase, flag = kernel_batch(pair, qa, qb)
    assert not flag
    for i in range(10):
        kv = kernel_robust(pair, float(qa[i]), float(qb[i]))
        assert abs(k[i] - kv.k) <= 1e-13 * abs(kv.k)
        assert modulus[i] == pytest.approx(kv.modulus, rel=1e-13)
        assert phase[i] == pytest.approx(kv.phase, rel=1e-13)
    with pytest.raises(DomainError):
        kernel_batch(pair, qa, qb[:3])


def test_kernel_batch_modulus_is_a_read_only_broadcast_of_one_value():
    pair = solve_fundamental(ExpDecay(1.0, 1.0), 0.0, 1.0)
    axis = np.linspace(-2.0, 2.0, 7)
    qa, qb = np.broadcast_arrays(axis[:, None], axis)
    _, modulus, _, _ = kernel_batch(pair, qa, qb)
    assert modulus.shape == (7, 7) and modulus.strides == (0, 0)
    assert not modulus.flags.writeable
    assert np.all(modulus == kernel_robust(pair, qa, qb).modulus)


def test_schrodinger_residual_free_kernel():
    res = schrodinger_residual(Constant(0.0), 0.0, 1.0, 0.3, 0.7,
                               h_t=1e-3, h_q=1e-3)
    assert res <= 1e-4


def test_schrodinger_residual_is_second_order():
    for prof in (Constant(0.8), SechSquared(1.0, 1.0, 0.5)):
        r1 = schrodinger_residual(prof, 0.0, 1.0, 0.3, 0.7, h_t=2e-2, h_q=2e-2)
        r2 = schrodinger_residual(prof, 0.0, 1.0, 0.3, 0.7, h_t=1e-2, h_q=1e-2)
        slope = math.log2(r1 / r2)
        assert slope == pytest.approx(2.0, abs=0.2)


def test_schrodinger_residual_guards_jump_events():
    # at 0.49 the stencil's right end is the kick: 0.49 + 1e-2 is 0.5, though
    # 0.5 - 0.49 is a little more than 1e-2
    for t_b in (0.505, 0.5, 0.49):
        with pytest.raises(DomainError, match=r"^jump event at 0\.5 in \(t_b - h_t, t_b \+ h_t\]"):
            schrodinger_residual(DeltaPulse(0.6, 0.5), 0.0, t_b, 0.1, 0.2, h_t=1e-2)


def test_schrodinger_residual_takes_a_kick_at_the_stencils_left_end():
    # 0.51 - 1e-2 is 0.5: the window ending there holds the state after the
    # kick, so all three times lie on one smooth branch
    r1 = schrodinger_residual(DeltaPulse(0.6, 0.5), 0.0, 0.51, 0.1, 0.2, h_t=1e-2, h_q=1e-2)
    r2 = schrodinger_residual(DeltaPulse(0.6, 0.5), 0.0, 0.51, 0.1, 0.2, h_t=5e-3, h_q=5e-3)
    assert math.log2(r1 / r2) == pytest.approx(2.0, abs=0.2)
