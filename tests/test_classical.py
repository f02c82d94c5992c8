import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import SUITE
from tdho.classical import (
    FundamentalPair, SolutionCurve, closed_form, pair_from_solution,
    solve_fundamental, spot_check_solution, verify_solution,
)
from tdho.errors import DegenerateSolution, DomainError, SolutionMismatch, StepFailure
from tdho.freq_profile import (
    Constant, DeltaPulse, ExpDecay, Expression, FrequencyProfile, JumpEvent,
    PowerLaw, SechSquared, Tabulated,
)


def test_constant_frequency_pinned_values():
    pair = solve_fundamental(Constant(2.0), 0.0, 1.0)
    assert pair.u(0.5) == pytest.approx(math.cos(1.0), abs=1e-9)
    assert pair.v(0.5) == pytest.approx(math.sin(1.0) / 2.0, abs=1e-9)
    assert pair.udot(0.5) == pytest.approx(-2.0 * math.sin(1.0), abs=1e-9)
    assert pair.vdot(0.5) == pytest.approx(math.cos(1.0), abs=1e-9)


def test_free_particle_pair_is_affine():
    pair = solve_fundamental(Constant(0.0), 0.3, 1.7)
    for t in np.linspace(0.3, 1.7, 11):
        assert pair.u(t) == pytest.approx(1.0, abs=1e-12)
        assert pair.udot(t) == pytest.approx(0.0, abs=1e-12)
        assert pair.v(t) == pytest.approx(t - 0.3, abs=1e-12)
        assert pair.vdot(t) == pytest.approx(1.0, abs=1e-12)


def test_delta_impulse_kick_matches_piecewise_analytic():
    # before t0: free.  kick: df' = -omega0^2 f.  after: constant omega0^4.
    w0, t0 = 0.6, 0.5
    s = w0 ** 2            # 0.36
    W = w0 ** 2            # post-step frequency sqrt(omega0^4)
    pair = solve_fundamental(DeltaPulse(w0, t0), 0.0, 1.0)
    assert pair.event_times == (t0,)

    # derivatives are right-continuous at the event
    assert pair.udot(t0) == pytest.approx(-s, abs=1e-10)
    assert pair.vdot(t0) == pytest.approx(1.0 - s * t0, abs=1e-10)
    assert pair.udot(t0 - 1e-9) == pytest.approx(0.0, abs=1e-7)

    for t in (0.6, 0.8, 1.0):
        tau = t - t0
        c, sn = math.cos(W * tau), math.sin(W * tau)
        u_want = c - (s / W) * sn
        v_want = t0 * c + ((1.0 - s * t0) / W) * sn
        assert pair.u(t) == pytest.approx(u_want, abs=1e-10)
        assert pair.udot(t) == pytest.approx(-W * sn - s * c, abs=1e-10)
        assert pair.v(t) == pytest.approx(v_want, abs=1e-10)
        assert pair.vdot(t) == pytest.approx(-t0 * W * sn + (1.0 - s * t0) * c, abs=1e-10)


def test_impulse_exactly_at_right_edge():
    pair = solve_fundamental(DeltaPulse(0.6, 1.0), 0.0, 1.0)
    assert 1.0 in pair.event_times
    assert pair.u(1.0) == pytest.approx(1.0, abs=1e-12)
    assert pair.udot(1.0) == pytest.approx(-0.36, abs=1e-10)
    assert pair.udot(1.0 - 1e-9) == pytest.approx(0.0, abs=1e-7)


class TwoKicks(FrequencyProfile):
    """omega^2 = 1 plus impulses 0.7 delta(t - 0.4) and 1.3 delta(t - 1)."""

    def omega_squared(self, t):
        return 1.0

    def jump_events(self, t_a, t_b):
        super().jump_events(t_a, t_b)
        return [JumpEvent(t, s) for t, s in ((0.4, 0.7), (1.0, 1.3)) if t_a < t <= t_b]


def test_state_on_a_2d_array_equals_scalar_calls():
    pair = solve_fundamental(TwoKicks(), 0.0, 1.0)
    assert pair.event_times == (0.4, 1.0)
    ts = np.array([[0.4, 0.4 - 1e-9, 1.0], [0.0, 0.7, 1.0 - 1e-9]])
    got = pair.state(ts)
    assert got.shape == (4, 2, 3) and pair.state(np.array([])).shape == (4, 0)
    for i, j in np.ndindex(ts.shape):
        assert np.array_equal(got[:, i, j], pair.state(float(ts[i, j])))
    # right-continuous derivatives: each kick is df' = -strength * f
    assert got[1, 0, 0] == pytest.approx(-math.sin(0.4) - 0.7 * math.cos(0.4), abs=1e-10)
    assert got[1, 0, 1] == pytest.approx(-math.sin(0.4), abs=1e-8)
    np.testing.assert_allclose(got[[1, 3], 0, 2] - got[[1, 3], 1, 2],
                               -1.3 * got[[0, 2], 0, 2], atol=1e-8)


EXACT_SOLUTIONS = {
    # omega^2 = -1: cosh t + 2 sinh t, so both u and v enter
    "negative-omega2": (Expression("-1"), 0.0, 2.0,
                        SolutionCurve(lambda t: np.cosh(t) + 2.0 * np.sinh(t),
                                      lambda t: np.sinh(t) + 2.0 * np.cosh(t))),
    # omega T = 1000, about 160 periods: cos + sin of 1000 t
    "high-frequency": (Constant(1000.0), 0.0, 1.0,
                       SolutionCurve(lambda t: np.cos(1e3 * t) + np.sin(1e3 * t),
                                     lambda t: 1e3 * (np.cos(1e3 * t) - np.sin(1e3 * t)))),
    # omega = 1e4: roundoff in the omega-sized matrix entries is above the
    # absolute per-step budget, so the step test must be relative there
    "very-high-frequency": (Constant(1e4), 0.0, 1.0,
                            SolutionCurve(lambda t: np.cos(1e4 * t), lambda t: -1e4 * np.sin(1e4 * t))),
    # beta < 0: omega^2 = 0.64 / t diverges at t = 0, just left of the window
    "power-law-singular": (PowerLaw(0.8, 1.0, -1.0), 0.01, 2.0, closed_form(PowerLaw(0.8, 1.0, -1.0))),
}


@pytest.mark.parametrize("name", EXACT_SOLUTIONS)
def test_pair_reproduces_exact_solution(name):
    profile, t_a, t_b, exact = EXACT_SOLUTIONS[name]
    curve = solve_fundamental(profile, t_a, t_b).combination(float(exact.f(t_a)), float(exact.fdot(t_a)))
    ts = np.linspace(t_a, t_b, 13)  # node times and times between nodes
    for got, want in ((curve.f(ts), exact.f(ts)), (curve.fdot(ts), exact.fdot(ts))):
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("expr", ["1/(t-0.5)^2", "sin(1/(t-0.5))/(t-0.5)^4"])
def test_singular_profile_fails_within_a_bounded_mesh(expr):
    # omega diverges at t = 0.5, so no mesh keeps omega h <= 1 there; the
    # solver must give up quickly, not bisect until memory runs out
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(StepFailure, match="t=0.5"):
        solve_fundamental(Expression(expr), 0.0, 1.0)
    elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 10.0 and peak < 200e6, (elapsed, peak)


def test_time_translation_covariance_for_autonomous_profile():
    p = Constant(1.3)
    base = solve_fundamental(p, 0.0, 1.0)
    shifted = solve_fundamental(p, 0.4, 1.4)
    for s in np.linspace(0.0, 1.0, 9):
        np.testing.assert_allclose(shifted.state(0.4 + s), base.state(s),
                                   rtol=0, atol=1e-9)


def test_combination_is_linear():
    pair = solve_fundamental(ExpDecay(1.0, 1.0), 0.0, 1.0)
    sol = pair.combination(2.0, 3.0)
    for t in (0.0, 0.4, 1.0):
        assert sol.f(t) == pytest.approx(2.0 * pair.u(t) + 3.0 * pair.v(t), rel=1e-12)
        assert sol.fdot(t) == pytest.approx(2.0 * pair.udot(t) + 3.0 * pair.vdot(t), rel=1e-12)
    assert sol.f(0.0) == pytest.approx(2.0, abs=1e-12)
    assert sol.fdot(0.0) == pytest.approx(3.0, abs=1e-12)


def test_wronskian_drift_across_suite():
    for profile in SUITE:
        pair = solve_fundamental(profile, 0.0, 1.0)
        assert pair.wronskian_drift <= 1e-9, profile


def test_wronskian_drift_on_long_caustic_free_power_law_window():
    # a window where an RK45 solve at tol 1e-10 drifted by 1.24e-9
    prof = PowerLaw(omega0=1.1255948094804742, alpha=1.3855371824046459,
                    beta=-0.383590810088119)
    pair = solve_fundamental(prof, 0.2984347397385992, 1.6572102618789633)
    assert pair.wronskian_drift <= 1e-9
    assert pair.focal_count(pair.t_b, float(pair.v(pair.t_b))) == 0


def test_wronskian_drift_on_tabulated_window_split_at_knots():
    # a cubic spline's third derivative jumps at every knot; one DOP853 step
    # across a knot misjudges its error (drift 1.65e-9 without the split)
    ts = np.linspace(0.0, 30.0, 61)
    prof = Tabulated(ts, 3.0 * (1.0 + 0.4 * np.sin(0.75 * ts + 4.0)))
    assert prof.breakpoints(0.0, 1.5) == [0.5, 1.0]
    pair = solve_fundamental(prof, 0.0, 1.5)
    assert pair.event_times == ()
    assert {0.5, 1.0} <= set(pair.nodes[0])
    assert pair.wronskian_drift <= 1e-9


def test_state_rejects_times_outside_window():
    pair = solve_fundamental(Constant(1.0), 0.0, 1.0)
    with pytest.raises(DomainError):
        pair.u(1.5)
    with pytest.raises(DomainError):
        pair.state(np.array([0.2, -0.1]))


def test_solver_argument_validation():
    with pytest.raises(DomainError):
        solve_fundamental(Constant(1.0), 1.0, 1.0)
    with pytest.raises(DomainError):
        solve_fundamental(Constant(1.0), 0.0, 1.0, tol=0.0)


# ---------------------------------------------------------------------------
# closed-form catalog and residual grading

def test_catalog_constant_passes_audit():
    sol = closed_form(Constant(0.8))
    assert sol.satisfies_equation
    report = verify_solution(Constant(0.8), sol, (0.0, 1.0), h=3e-3)
    assert report.passed
    assert report.slope == pytest.approx(2.0, abs=0.1)


def test_catalog_exp_decay_passes_audit():
    sol = closed_form(ExpDecay(1.0, 1.0))
    assert sol.satisfies_equation
    report = verify_solution(ExpDecay(1.0, 1.0), sol, (0.0, 2.0), h=1e-2)
    assert report.passed
    assert report.slope == pytest.approx(2.0, abs=0.1)


def test_catalog_power_law_passes_audit():
    p = PowerLaw(0.8, 1.0, 1.0)
    sol = closed_form(p)
    assert sol.satisfies_equation
    assert sol.domain == (0.0, math.inf)
    report = verify_solution(p, sol, (0.2, 1.2), h=1e-2)
    assert report.passed
    assert report.slope == pytest.approx(2.0, abs=0.1)


def test_power_law_solution_refuses_a_float_outside_its_domain():
    # the domain is t > 0; f(0) = 0 is kept, so a window from 0 is a caustic
    p = PowerLaw(0.8, 1.0, 1.0)
    sol = closed_form(p)
    assert sol.f(0.0) == 0.0
    with pytest.raises(DomainError, match="t=0.0"):
        sol.fdot(0.0)
    with pytest.raises(DomainError, match="t=-0.25"):
        sol.f(-0.25)
    with pytest.raises(DomainError):
        pair_from_solution(sol, p, 0.0, 1.0)


def test_power_law_solution_refuses_an_array_outside_its_domain():
    sol = closed_form(PowerLaw(0.8, 1.0, 1.0))
    with pytest.raises(DomainError, match="t=0.0"):
        sol.fdot(np.array([0.5, 0.0, -1.0]))
    with pytest.raises(DomainError, match="t=-0.5"):
        sol.f(np.array([1.0, -0.5, -1.0]))
    assert sol.f(np.array([0.0, 1.0]))[0] == 0.0


def test_catalog_delta_pulse_fails_audit_with_magnitudes():
    p = DeltaPulse(1.0, 0.5)
    sol = closed_form(p)
    assert not sol.satisfies_equation
    assert "numerical solver" in sol.note
    report = verify_solution(p, sol, (0.0, 1.0), h=1e-2)
    assert not report.passed
    # f = exp(|t-t0|): residual 2.0 on the stepped side, jump off by 3
    assert report.max_residual == pytest.approx(2.0, rel=0.1)
    (t0, m1, m2, ok) = report.jump_mismatches[0]
    assert t0 == 0.5
    assert m1 == pytest.approx(3.0, rel=0.1)
    assert not ok
    # plain Python values, as the CLI writes the report as JSON
    assert type(ok) is bool and type(report.passed) is bool
    assert all(type(x) is float for x in (m1, m2, report.max_residual, report.slope))
    json.dumps(dataclasses.asdict(report))


def test_catalog_sech_squared_fails_audit_with_magnitude():
    p = SechSquared(2.0, 1.0, 0.5)
    sol = closed_form(p)
    assert not sol.satisfies_equation
    report = verify_solution(p, sol, (0.0, 1.0), h=1e-2)
    assert not report.passed
    # residual alpha^2 (beta^2 + 1) (1 - x^2) peaks near the well center
    assert report.max_residual == pytest.approx(8.0, rel=0.15)


def test_catalog_has_no_entry_for_non_analytic_profiles():
    assert closed_form(PowerLaw(0.0, 1.0, 1.0)) is None
    assert closed_form(Tabulated(np.array([0.0, 1.0]), np.array([1.0, 1.0]))) is None
    assert closed_form(Expression("1+t")) is None


def test_verify_solution_argument_validation():
    sol = closed_form(Constant(1.0))
    with pytest.raises(DomainError):
        verify_solution(Constant(1.0), sol, (0.0, 1.0), h=0.3)
    with pytest.raises(DomainError):
        verify_solution(Constant(1.0), sol, (1.0, 1.0))


def test_verify_solution_grades_wrong_frequency_fail():
    wrong = SolutionCurve(f=lambda t: np.cos(2.0 * t),
                          fdot=lambda t: -2.0 * np.sin(2.0 * t),
                          label="cos(2t)")
    report = verify_solution(Constant(1.0), wrong, (0.0, 1.0))
    assert not report.passed
    assert report.max_residual > 1.0  # O(1), not O(h^2)


def test_spot_check_raises_on_wrong_solution():
    wrong = SolutionCurve(f=lambda t: np.cos(2.0 * t),
                          fdot=lambda t: -2.0 * np.sin(2.0 * t))
    with pytest.raises(SolutionMismatch) as exc:
        spot_check_solution(Constant(1.0), wrong, 0.0, 1.0)
    assert exc.value.residual > 1.0
    assert 0.0 < exc.value.worst_t < 1.0


# ---------------------------------------------------------------------------
# pair_from_solution

def test_pair_from_cosine_solution():
    sol = SolutionCurve(f=np.cos, fdot=lambda t: -np.sin(t))
    pair = pair_from_solution(sol, Constant(1.0), 0.0, 1.0)
    for t in np.linspace(0.0, 1.0, 7):
        assert pair.u(t) == pytest.approx(math.cos(t), abs=1e-10)
        assert pair.v(t) == pytest.approx(math.sin(t), abs=1e-9)
    assert pair.wronskian_drift <= 1e-9


def test_pair_from_solution_vanishing_at_start():
    # f(t_a) = 0 exercises the other normalization branch
    sol = SolutionCurve(f=np.sin, fdot=np.cos)
    pair = pair_from_solution(sol, Constant(1.0), 0.0, 1.0)
    assert pair.u(0.0) == pytest.approx(1.0, abs=1e-10)
    assert pair.udot(0.0) == pytest.approx(0.0, abs=1e-10)
    assert pair.v(0.0) == pytest.approx(0.0, abs=1e-12)
    assert pair.vdot(0.0) == pytest.approx(1.0, abs=1e-12)
    for t in (0.3, 0.8):
        assert pair.v(t) == pytest.approx(math.sin(t), abs=1e-10)
        assert pair.u(t) == pytest.approx(math.cos(t), abs=1e-9)


def test_pair_from_free_affine_solution():
    sol = SolutionCurve(f=lambda t: 2.0 + 3.0 * t, fdot=lambda t: 3.0)
    pair = pair_from_solution(sol, Constant(0.0), 0.0, 1.0)
    for t in (0.0, 0.5, 1.0):
        assert pair.u(t) == pytest.approx(1.0, abs=1e-10)
        assert pair.v(t) == pytest.approx(t, abs=1e-10)


def test_pair_from_zero_solution_is_degenerate():
    zero = SolutionCurve(f=lambda t: 0.0, fdot=lambda t: 0.0)
    with pytest.raises(DegenerateSolution):
        pair_from_solution(zero, Constant(1.0), 0.0, 1.0)


def test_pair_from_solution_rejects_non_solution():
    wrong = SolutionCurve(f=lambda t: np.cos(2.0 * t),
                          fdot=lambda t: -2.0 * np.sin(2.0 * t))
    with pytest.raises(SolutionMismatch):
        pair_from_solution(wrong, Constant(1.0), 0.0, 1.0)


# ---------------------------------------------------------------------------
# typed refusals and exclusions

def test_overflowing_pair_is_a_step_failure():
    # omega^2 = -9e4 grows the pair like e^{300 t}: past a float by t = 3
    with pytest.raises(StepFailure, match="overflows"):
        solve_fundamental(Expression("-90000"), 0.0, 3.0)


def test_verify_solution_refuses_a_window_left_without_samples():
    sol = solve_fundamental(DeltaPulse(1.0, 0.5), 0.0, 1.0).combination(1.0, 0.0)
    with pytest.raises(DomainError, match="no sample points left"):
        verify_solution(DeltaPulse(1.0, 0.5), sol, (0.49, 0.51), h=0.004, n_samples=3)


def test_verify_solution_skips_an_event_within_3h_of_the_edge():
    profile = DeltaPulse(1.0, 0.5)
    sol = solve_fundamental(profile, 0.0, 1.0).combination(1.0, 0.0)
    inside = verify_solution(profile, sol, (0.0, 1.0))
    assert [j[0] for j in inside.jump_mismatches] == [0.5] and inside.passed
    near_edge = verify_solution(profile, sol, (0.48, 1.0))  # a + 3h = 0.51
    assert profile.jump_events(0.48, 1.0) and near_edge.jump_mismatches == []
    assert near_edge.passed


def test_spot_check_drops_probe_times_near_an_event():
    # the middle of the seven probes of [0, 1] falls on the kick at 0.5,
    # where the second difference of f straddles the jump in f'
    profile = DeltaPulse(1.0, 0.5)
    sol = solve_fundamental(profile, 0.0, 1.0).combination(1.0, 0.0)
    spot_check_solution(profile, sol, 0.0, 1.0)
    with pytest.raises(SolutionMismatch):
        spot_check_solution(Constant(1.0), sol, 0.0, 1.0)
