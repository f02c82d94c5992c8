import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import SUITE
from tdho import classical
from tdho.classical import (
    _INITIAL_STEPS, _MAX_SPLIT, _MAX_STEPS, FundamentalPair, SolutionCurve, _magnus, closed_form,
    pair_from_solution, solve_fundamental, spot_check_solution, verify_solution,
)
from tdho.errors import MAX_COUNT, DegenerateSolution, DomainError, SolutionMismatch, StepFailure
from tdho.freq_profile import (
    Constant, DeltaPulse, ExpDecay, Expression, FrequencyProfile, JumpEvent,
    PowerLaw, SechSquared, Tabulated,
)
from tdho.kernel import kernel_robust


def test_constant_frequency_pinned_values():
    pair = solve_fundamental(Constant(2.0), 0.0, 1.0)
    u, udot, v, vdot = pair.state(0.5)
    assert u == pytest.approx(math.cos(1.0), abs=1e-9)
    assert v == pytest.approx(math.sin(1.0) / 2.0, abs=1e-9)
    assert udot == pytest.approx(-2.0 * math.sin(1.0), abs=1e-9)
    assert vdot == pytest.approx(math.cos(1.0), abs=1e-9)


def test_free_particle_pair_is_affine():
    pair = solve_fundamental(Constant(0.0), 0.3, 1.7)
    for t in np.linspace(0.3, 1.7, 11):
        u, udot, v, vdot = pair.state(t)
        assert u == pytest.approx(1.0, abs=1e-12)
        assert udot == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(t - 0.3, abs=1e-12)
        assert vdot == pytest.approx(1.0, abs=1e-12)


def test_delta_impulse_kick_matches_piecewise_analytic():
    # before t0: free.  kick: df' = -omega0^2 f.  after: constant omega0^4.
    w0, t0 = 0.6, 0.5
    s = w0 ** 2            # 0.36
    W = w0 ** 2            # post-step frequency sqrt(omega0^4)
    pair = solve_fundamental(DeltaPulse(w0, t0), 0.0, 1.0)
    assert pair.event_times == (t0,)

    # derivatives are right-continuous at the event
    _, udot, _, vdot = pair.state(t0)
    assert udot == pytest.approx(-s, abs=1e-10)
    assert vdot == pytest.approx(1.0 - s * t0, abs=1e-10)
    assert pair.state(t0 - 1e-9)[1] == pytest.approx(0.0, abs=1e-7)

    for t in (0.6, 0.8, 1.0):
        tau = t - t0
        c, sn = math.cos(W * tau), math.sin(W * tau)
        u_want = c - (s / W) * sn
        v_want = t0 * c + ((1.0 - s * t0) / W) * sn
        u, udot, v, vdot = pair.state(t)
        assert u == pytest.approx(u_want, abs=1e-10)
        assert udot == pytest.approx(-W * sn - s * c, abs=1e-10)
        assert v == pytest.approx(v_want, abs=1e-10)
        assert vdot == pytest.approx(-t0 * W * sn + (1.0 - s * t0) * c, abs=1e-10)


def test_impulse_exactly_at_right_edge():
    pair = solve_fundamental(DeltaPulse(0.6, 1.0), 0.0, 1.0)
    assert 1.0 in pair.event_times
    u, udot, _, _ = pair.state(1.0)
    assert u == pytest.approx(1.0, abs=1e-12)
    assert udot == pytest.approx(-0.36, abs=1e-10)
    assert pair.state(1.0 - 1e-9)[1] == pytest.approx(0.0, abs=1e-7)


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


@pytest.mark.parametrize("profile, why", [
    # omega h = 1.25e8 on each initial step asks for 2^17 sub-steps apiece
    (Constant(1e9), r"the worst step, from t=0\.0 to t=0\.125, .* omega h = 1\.25e\+08$"),
    # 131,073 knot intervals take one initial step each, whose halves pass 2^18
    (Tabulated(np.linspace(0.0, 1.0, 131074), np.ones(131074)), r": its 131073 initial steps alone are too many$"),
])
def test_a_mesh_sized_past_the_cap_is_refused_before_it_is_built(profile, why):
    tracemalloc.start()
    with pytest.raises(StepFailure, match=why):
        solve_fundamental(profile, 0.0, 1.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 50e6, peak


# omega h reaches 20-56 on these windows' initial steps, outside the Magnus
# series' range: a step's one-step and two-half-step matrices differ by O(1),
# by 1e17 and more, or by nan, which read as an h^7 error once asked for up
# to 2^17 sub-steps of one step (132,877 nodes at alpha 40, StepFailure on the
# rest).  Each window with the node count of the solve that sizes such a
# step by omega h alone
MODERATE_FREQUENCY = {
    "sech-squared-40": (SechSquared(40.0, 1.0, 0.0), -3.0, 3.0, 2813),
    "sech-squared-50": (SechSquared(50.0, 1.0, 0.0), -3.0, 3.0, 4065),
    "sech-squared-100": (SechSquared(100.0, 1.0, 0.0), -3.0, 3.0, 8081),
    "sine-modulated": (Expression("2500*(1+0.5*sin(3*t))"), 0.0, 6.0, 7571),
    "gaussian-pulse": (Expression("2500*exp(-t^2)"), 0.0, 6.0, 1895),
}


@pytest.mark.parametrize("name", MODERATE_FREQUENCY)
def test_a_diverged_magnus_step_is_cut_by_omega_h_alone(name):
    profile, t_a, t_b, nodes = MODERATE_FREQUENCY[name]
    pair = solve_fundamental(profile, t_a, t_b)
    assert nodes / 1.5 <= pair.node_t.size <= 1.5 * nodes


def test_sech_squared_50_matches_the_invariant_phase_oracle():
    # 46 focal points on [-3, 3]; the pair in units where omega_a = omega_b
    # = 50 sech 3 makes every entry of the transfer matrix order one
    u, ud, v, vd, theta = oracles.invariant_phase(lambda t: 2500.0 / math.cosh(t) ** 2, -3.0, 3.0)
    pair = solve_fundamental(SechSquared(50.0, 1.0, 0.0), -3.0, 3.0)
    got_u, got_ud, got_v, got_vd, n_focal = pair.end
    assert n_focal == math.floor(theta / math.pi) == 46
    omega = 50.0 / math.cosh(3.0)
    scale = np.diag([1.0, 1.0 / omega])
    diff = scale @ np.array([[got_u - u, got_v - v], [got_ud - ud, got_vd - vd]]) @ np.diag([1.0, omega])
    assert np.max(np.abs(diff)) <= 1e-9


def test_a_table_of_20000_intervals_solves():
    # past 2^14 segments each starts from fewer than 8 steps: 20,000 knot
    # intervals start from 6 each, and the result is the formula's own
    ts = np.linspace(0.0, 10.0, 20001)
    table = solve_fundamental(Tabulated(ts, 2.0 + np.sin(ts)), 0.0, 10.0)
    formula = solve_fundamental(Expression("2 + sin(t)"), 0.0, 10.0)
    assert table.end[4] == formula.end[4] == 4
    got, want = kernel_robust(table, 0.3, -0.2).k, kernel_robust(formula, 0.3, -0.2).k
    assert abs(got - want) <= 1e-10 * abs(want)  # the solves' tol


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
        u, udot, v, vdot = pair.state(t)
        assert sol.f(t) == pytest.approx(2.0 * u + 3.0 * v, rel=1e-12)
        assert sol.fdot(t) == pytest.approx(2.0 * udot + 3.0 * vdot, rel=1e-12)
    assert sol.f(0.0) == pytest.approx(2.0, abs=1e-12)
    assert sol.fdot(0.0) == pytest.approx(3.0, abs=1e-12)


def test_wronskian_drift_across_suite():
    for profile in SUITE:
        pair = solve_fundamental(profile, 0.0, 1.0)
        assert pair.wronskian_drift <= 1e-9, profile


@pytest.mark.parametrize("omega2, t_b", [(-1600.0, 1.0), (-64.0, 3.0), (1.0, 10.0)])
def test_wronskian_drift_is_relative_to_the_products(omega2, t_b):
    # on omega^2 = -k^2, u v' and u' v grow like cosh^2(k t), and their rounding
    # alone made the absolute |u v' - u' v - 1| read 2.3e18 at k = 40, though v_b
    # is right to 2e-15; on omega^2 = 1 the products sum to 1 and both read the same
    pair = solve_fundamental(Expression(str(omega2)), 0.0, t_b)
    k = math.sqrt(abs(omega2))
    want = math.sinh(k * t_b) / k if omega2 < 0 else math.sin(k * t_b) / k
    assert pair.end[2] == pytest.approx(want, rel=1e-14)
    assert pair.wronskian_drift <= 1e-14


def test_wronskian_drift_on_long_caustic_free_power_law_window():
    # a window where an RK45 solve at tol 1e-10 drifted by 1.24e-9
    prof = PowerLaw(omega0=1.1255948094804742, alpha=1.3855371824046459,
                    beta=-0.383590810088119)
    pair = solve_fundamental(prof, 0.2984347397385992, 1.6572102618789633)
    assert pair.wronskian_drift <= 1e-9
    assert pair.end[4] == 0


def test_wronskian_drift_on_tabulated_window_split_at_knots():
    # a cubic spline's third derivative jumps at every knot; one DOP853 step
    # across a knot misjudges its error (drift 1.65e-9 without the split)
    ts = np.linspace(0.0, 30.0, 61)
    prof = Tabulated(ts, 3.0 * (1.0 + 0.4 * np.sin(0.75 * ts + 4.0)))
    assert prof.breakpoints(0.0, 1.5) == [0.5, 1.0]
    pair = solve_fundamental(prof, 0.0, 1.5)
    assert pair.event_times == ()
    assert {0.5, 1.0} <= set(pair.node_t)
    assert pair.wronskian_drift <= 1e-9


def test_state_rejects_times_outside_window():
    # NaN compares False both ways, so it must fail the window test, not pass it
    pair = solve_fundamental(Constant(1.0), 0.0, 1.0)
    for t in (1.5, np.array([0.2, -0.1]), math.nan, np.array([0.2, math.nan])):
        with pytest.raises(DomainError):
            pair.state(t)


def test_solver_argument_validation():
    # bad windows are in test_windows.py, with every other route
    for tol in (0.0, -1e-10, math.inf, math.nan):
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            solve_fundamental(ExpDecay(2.0, 0.5), 0.0, 1.0, tol)


def test_pair_is_a_frozen_record_that_state_only_reads():
    # state() copies the node matrices it steps from, so a shared pair is never written
    pair = solve_fundamental(ExpDecay(2.0, 0.5), 0.0, 3.0)
    node_t, node_y = pair.node_t.copy(), pair.node_y.copy()
    mid = 0.5 * (node_t[:-1] + node_t[1:])  # each a partial step from the node before
    pair.state(mid)
    pair.state(float(mid[5]))
    assert np.array_equal(pair.node_t, node_t) and np.array_equal(pair.node_y, node_y)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.node_y = node_y
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.t_b = 4.0


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


def test_verify_solution_takes_a_whole_float_count_as_its_int():
    sol = closed_form(Constant(1.0))
    assert verify_solution(Constant(1.0), sol, (0.0, 1.0), n_samples=16.0) \
        == verify_solution(Constant(1.0), sol, (0.0, 1.0), n_samples=16)
    for bad in (16.5, 0, math.nan, math.inf):
        with pytest.raises(DomainError, match=r"n_samples must be a whole number >= 1"):
            verify_solution(Constant(1.0), sol, (0.0, 1.0), n_samples=bad)
    # numpy's "array is too big" ValueError before the bound
    with pytest.raises(DomainError, match=f"n_samples must be at most {MAX_COUNT}, "):
        verify_solution(Constant(1.0), sol, (0.0, 1.0), n_samples=9 * 10 ** 18)


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
        assert pair.state(t)[0] == pytest.approx(math.cos(t), abs=1e-10)
        assert pair.state(t)[2] == pytest.approx(math.sin(t), abs=1e-9)
    assert pair.wronskian_drift <= 1e-9


def test_pair_from_solution_vanishing_at_start():
    # f(t_a) = 0 with f'(t_a) = 1 is a nonzero solution, not a degenerate one
    sol = SolutionCurve(f=np.sin, fdot=np.cos)
    pair = pair_from_solution(sol, Constant(1.0), 0.0, 1.0)
    u, udot, v, vdot = pair.state(0.0)
    assert u == pytest.approx(1.0, abs=1e-10)
    assert udot == pytest.approx(0.0, abs=1e-10)
    assert v == pytest.approx(0.0, abs=1e-12)
    assert vdot == pytest.approx(1.0, abs=1e-12)
    for t in (0.3, 0.8):
        assert pair.state(t)[2] == pytest.approx(math.sin(t), abs=1e-10)
        assert pair.state(t)[0] == pytest.approx(math.cos(t), abs=1e-9)


def test_pair_from_free_affine_solution():
    sol = SolutionCurve(f=lambda t: 2.0 + 3.0 * t, fdot=lambda t: 3.0)
    pair = pair_from_solution(sol, Constant(0.0), 0.0, 1.0)
    for t in (0.0, 0.5, 1.0):
        assert pair.state(t)[0] == pytest.approx(1.0, abs=1e-10)
        assert pair.state(t)[2] == pytest.approx(t, abs=1e-10)


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
# the closed-form Magnus step against the stacked-commutator oracle


class Quadratic(FrequencyProfile):
    """omega^2 = c0 + c1 (t - tc) + c2 (t - tc)^2."""

    def __init__(self, c0, c1=0.0, c2=0.0, tc=0.0):
        self.c, self.tc = (c0, c1, c2), tc

    def omega_squared(self, t):
        s = t - self.tc
        return self.c[0] + self.c[1] * s + self.c[2] * s * s


def _steps(rng, n, lo=1e-9, hi=1.0):
    """n steps starting in [0, 2], with lengths log-uniform in [lo, hi]."""
    t0 = rng.uniform(0.0, 2.0, n)
    return t0, t0 + 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)


def _magnus_case(case, rng, n):
    """(profile, t0, t1) of n seeded steps."""
    if case == "positive":
        return (Quadratic(rng.uniform(0.5, 50.0), 1.0, 0.5), *_steps(rng, n))
    if case == "negative":
        return (Quadratic(-rng.uniform(0.5, 50.0), -1.0, -0.5), *_steps(rng, n))
    if case == "zero":
        return (Constant(0.0), *_steps(rng, n))
    if case == "sign-change":  # omega^2 = 30 (t - 1) changes sign inside every step
        h = 10.0 ** rng.uniform(-9.0, 0.0, n)
        t0 = 1.0 - rng.uniform(0.1, 0.9, n) * h
        return Quadratic(0.0, 30.0, 0.0, tc=1.0), t0, t0 + h
    t0 = rng.uniform(0.0, 2.0, n)  # omega-h-near-1
    return Constant(7.0), t0, t0 + rng.uniform(0.9, 1.1, n) / 7.0


MAGNUS_CASES = ["positive", "negative", "zero", "sign-change", "omega-h-near-1"]


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("case", MAGNUS_CASES)
def test_closed_form_magnus_step_is_bit_identical_to_the_stacked_commutators(case, n):
    rng = np.random.default_rng([20261019, n, MAGNUS_CASES.index(case)])
    profile, t0, t1 = _magnus_case(case, rng, n)
    got, want = _magnus(profile, t0, t1), oracles._magnus(profile, t0, t1)
    assert np.all(np.isfinite(want[0]))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_overflowing_magnus_step_is_non_finite_in_both_forms():
    # omega^2 = -1e6: exp(Omega) grows like 1000 e^{1000 h}, past a float near h = 0.704
    rng = np.random.default_rng(20261019)
    t0, t1 = _steps(rng, 32, lo=1e-6, hi=1.0)
    profile = Quadratic(-1e6, 0.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _magnus(profile, t0, t1), oracles._magnus(profile, t0, t1)
    finite = np.isfinite(want[0]).all(axis=(1, 2))
    assert np.array_equal(np.isfinite(got[0]).all(axis=(1, 2)), finite)
    h = t1 - t0
    assert finite[h < 0.7].all() and not finite[h > 0.72].any() and 0 < finite.sum() < finite.size
    assert np.array_equal(got[0][finite], want[0][finite]) and np.array_equal(got[1], want[1])


def _stacked_step_solve(profile, t_a, t_b, tol=1e-10, plain=False):
    """solve_fundamental's nodes and state, level by level on the oracle step.

    Each level is one oracle call.  Each rejected step in turn is split
    into solve_fundamental's 2^k dyadic sub-steps, or, with plain=True, into
    its two halves: the one-level bisection whose mesh the sizing refines.
    Sub-steps past the cap raise StepFailure naming the level's worst step,
    the first largest r among all its steps.
    """
    kicks = {e.time: e.strength for e in profile.jump_events(t_a, t_b)}
    boundaries = sorted({t_a, t_b, *kicks, *profile.breakpoints(t_a, t_b)})
    edges = [np.linspace(lo, hi, _INITIAL_STEPS + 1) for lo, hi in zip(boundaries[:-1], boundaries[1:])]
    t0, t1 = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
    budget = 63.0 * tol / (t_b - t_a)
    times = np.array(sorted(kicks))
    steps = [(times, times, np.array([[[1.0, 0.0], [-kicks[k], 1.0]] for k in times]).reshape(-1, 2, 2))]
    n_accepted = 0
    full = np.empty((0, 2, 2))  # known whole-step matrices of the leading steps
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while t0.size:
            h, m = t1 - t0, len(full)
            assert n_accepted + 2 * h.size <= _MAX_STEPS
            mid = 0.5 * (t0 + t1)
            mats, w2max = oracles._magnus(profile, np.concatenate([t0, mid, t0[m:]]),
                                          np.concatenate([mid, t1, t1[m:]]))
            left, right, fresh = np.split(mats, [h.size, 2 * h.size])
            full = np.concatenate([full, fresh])
            err = np.max(np.abs(full - right @ left) / np.maximum(1.0, np.abs(full)), axis=(1, 2))
            wh = h * np.sqrt(np.maximum(*np.split(w2max[:2 * h.size], 2)))
            ok = (err <= budget * h) & (wh <= 1.0)
            steps += [(t0[ok], mid[ok], left[ok]), (mid[ok], t1[ok], right[ok])]
            n_accepted += 2 * np.count_nonzero(ok)
            r = np.maximum(np.log2(err / (budget * h)) / 6.0, np.log2(wh))
            sized = []
            for i in np.flatnonzero(~ok):
                # a diverged step (omega h > 1, halves more than 1 apart) is sized by omega h alone
                levels = r[i] if err[i] <= 1.0 or wh[i] <= 1.0 else np.log2(wh[i])
                k = 1 if plain or not np.isfinite(levels) else min(max(math.ceil(levels), 1), _MAX_SPLIT)
                sized.append((i, k))
            if n_accepted + sum(2 << k for _, k in sized) > _MAX_STEPS:
                w = int(np.argmax(r))
                raise StepFailure(f"the worst step, from t={float(t0[w])!r} to t={float(t1[w])!r}, has error "
                                  f"{err[w] / (budget * h[w]):.3g} times its budget and omega h = {wh[w]:.3g}")
            known, new = [], []
            for i, k in sized:
                if k == 1:
                    known += [(t0[i], mid[i], left[i]), (mid[i], t1[i], right[i])]
                    continue
                ends = np.array([t0[i], t1[i]])
                for _ in range(k):
                    ends = np.insert(ends, np.arange(1, ends.size), 0.5 * (ends[:-1] + ends[1:]))
                new += list(zip(ends[:-1], ends[1:]))
            t0 = np.array([s[0] for s in known] + [s[0] for s in new])
            t1 = np.array([s[1] for s in known] + [s[1] for s in new])
            full = np.array([s[2] for s in known]).reshape(-1, 2, 2)
        lo, hi, mats = (np.concatenate(x) for x in zip(*steps))
        order = np.lexsort((hi, lo))
        mats = mats[order]
        shift = 1
        while shift < len(mats):
            mats[shift:] = mats[shift:] @ mats[:-shift]
            shift *= 2
    node_t = np.concatenate([[t_a], hi[order]])
    node_y = np.concatenate([np.eye(2)[None], mats])

    def state(t):
        k = np.searchsorted(node_t, t, side="right") - 1
        y = node_y[k]
        part = t > node_t[k]
        y[part] = oracles._magnus(profile, node_t[k[part]], t[part])[0] @ y[part]
        return np.stack([y[:, 0, 0], y[:, 1, 0], y[:, 0, 1], y[:, 1, 1]])

    return node_t, node_y, state


STACKED_SOLVES = {
    "constant": (Constant(2.3), 0.0, 7.0),
    "exp-decay": (ExpDecay(3.0, 0.1), 0.0, 9.0),
    "power-law": (PowerLaw(1.5, 1.0, 0.5), 0.3, 6.0),
    "delta-pulse-kick": (DeltaPulse(1.2, 0.9), 0.0, 4.0),
    "sech-squared": (SechSquared(3.0, 0.2, 4.0), 0.0, 9.0),
    "tabulated-breakpoints": (Tabulated(np.linspace(0.0, 10.0, 21),
                                        2.0 + np.sin(np.linspace(0.0, 10.0, 21))), 0.25, 7.3),
    "expression-sign-change": (Expression("4*sin(0.5*t) + 1"), 0.0, 12.0),
}


# the moderate-frequency windows take the dyadic skips and the steps sized
# by omega h alone
@pytest.mark.parametrize("name", [*STACKED_SOLVES, *MODERATE_FREQUENCY])
def test_solve_is_bit_identical_to_the_stacked_step_bisection(name):
    profile, t_a, t_b = STACKED_SOLVES[name] if name in STACKED_SOLVES else MODERATE_FREQUENCY[name][:3]
    node_t, node_y, state = _stacked_step_solve(profile, t_a, t_b)
    pair = solve_fundamental(profile, t_a, t_b)
    assert np.array_equal(pair.node_t, node_t) and np.array_equal(pair.node_y, node_y)
    assert node_t.size > 16 * (1 + len(profile.breakpoints(t_a, t_b)))  # bisected past level 1
    ts = np.concatenate([node_t, np.linspace(t_a, t_b, 37)])
    assert np.array_equal(pair.state(ts), state(ts))


# windows like the bench's requests: each family over 3-4 focal points, solved in 2-3 levels
BENCH_LIKE_SOLVES = {
    "constant": (Constant(2.0), 0.0, 6.5),
    "exp-decay": (ExpDecay(4.0, 0.3), 0.0, 4.0),
    "power-law": (PowerLaw(2.0, 1.0, 1.0), 0.2, 4.0),
    "delta-pulse": (DeltaPulse(1.5, 1.0), 0.0, 6.0),
    "sech-squared": (SechSquared(4.0, 0.5, 2.0), 0.0, 4.2),
    "tabulated-breakpoints": (Tabulated(np.linspace(0.0, 6.0, 13),
                                        6.0 + 2.0 * np.sin(np.linspace(0.0, 6.0, 13))), 0.0, 5.3),
    "expression": (Expression("9 + 4*sin(t)"), 0.0, 4.0),
}


def _count_steps(monkeypatch) -> dict:
    """A count of classical._magnus calls, the levels of a solve, from now on."""
    calls = {"magnus": 0}

    def counted(*args, step=_magnus):
        calls["magnus"] += 1
        return step(*args)
    monkeypatch.setattr(classical, "_magnus", counted)
    return calls


@pytest.mark.parametrize("name", [*BENCH_LIKE_SOLVES, "kick-at-t_b"])
def test_solve_and_state_are_bit_identical_to_the_stacked_steps_on_bench_like_windows(name, monkeypatch):
    profile, t_a, t_b = BENCH_LIKE_SOLVES.get(name, (DeltaPulse(1.5, 4.0), 0.0, 4.0))
    node_t, node_y, state = _stacked_step_solve(profile, t_a, t_b)
    calls = _count_steps(monkeypatch)
    pair = solve_fundamental(profile, t_a, t_b)
    assert np.array_equal(pair.node_t, node_t) and np.array_equal(pair.node_y, node_y)
    if name == "kick-at-t_b":  # the last two nodes are t_b, before and after the kick
        assert pair.event_times == (t_b,) and np.array_equal(node_t[-2:], [t_b, t_b])
    else:
        assert pair.end[4] in (3, 4) and calls["magnus"] in (2, 3), (pair.end[4], calls)
    ts = np.linspace(t_a, t_b, 30)
    for t in (t_a, 0.5 * (t_a + t_b), t_b, float(node_t[len(node_t) // 2])):  # 0-d: shape (4,)
        got = pair.state(t)
        assert got.shape == (4,) and np.array_equal(got, state(np.array([t]))[:, 0])
    for t in (np.concatenate([node_t, ts]), ts.reshape(5, 6)):  # 1-d and 2-d
        assert np.array_equal(pair.state(t), state(t.ravel()).reshape((4,) + t.shape))


def test_a_refused_solve_names_the_step_the_stacked_steps_name():
    # omega h = 3750 on the initial steps: each is cut into 2^12 sub-steps,
    # whose halves then ask for more than _MAX_STEPS; sizing only the rejected
    # steps must name the same worst step as sizing them all
    profile = ExpDecay(3e4, 1.0)
    with pytest.raises(StepFailure) as want:
        _stacked_step_solve(profile, 0.0, 1.0)
    with pytest.raises(StepFailure) as got:
        solve_fundamental(profile, 0.0, 1.0)
    assert str(got.value) == f"no mesh of at most {_MAX_STEPS} steps meets tol=1e-10 on [0.0, 1.0]; {want.value}"
    assert "from t=0.0 to t=3.0517578125e-05," in str(want.value)


@pytest.mark.parametrize("name", BENCH_LIKE_SOLVES)
def test_every_omega2_read_goes_through_smooth_omega_squared_once_a_level(name, monkeypatch):
    profile, t_a, t_b = BENCH_LIKE_SOLVES[name]
    reads = {"smooth": 0, "bypass": 0, "inside": 0}

    def smooth(self, t, read=FrequencyProfile.smooth_omega_squared):
        reads["smooth"] += 1
        reads["inside"] += 1
        try:
            return read(self, t)
        finally:
            reads["inside"] -= 1

    def direct(read):
        def spy(self, t):
            reads["bypass"] += not reads["inside"]
            return read(self, t)
        return spy

    monkeypatch.setattr(FrequencyProfile, "smooth_omega_squared", smooth)
    for meth in ("omega_squared", "_smooth"):
        monkeypatch.setattr(type(profile), meth, direct(getattr(type(profile), meth)))
    calls = _count_steps(monkeypatch)
    pair = solve_fundamental(profile, t_a, t_b)
    assert reads["smooth"] == calls["magnus"] >= 2 and reads["bypass"] == 0, (reads, calls)
    solve_reads = reads["smooth"]
    pair.state(pair.node_t)  # every time a node: no partial step, no read
    assert reads["smooth"] == solve_reads
    pair.state(np.linspace(t_a, t_b, 30).reshape(3, 10))  # partial steps: one read
    pair.state(t_a + (t_b - t_a) / 3.0)  # no dyadic mesh holds a third of the window
    assert reads["smooth"] == calls["magnus"] == solve_reads + 2 and reads["bypass"] == 0, (reads, calls)


@pytest.mark.parametrize("name", STACKED_SOLVES)
def test_sized_mesh_refines_the_plain_bisection_in_fewer_step_calls(name, monkeypatch):
    profile, t_a, t_b = STACKED_SOLVES[name]
    calls = {classical: 0, oracles: 0}
    for module in calls:
        def counted(*args, module=module, step=module._magnus):
            calls[module] += 1
            return step(*args)
        monkeypatch.setattr(module, "_magnus", counted)
    plain_t, _, plain_state = _stacked_step_solve(profile, t_a, t_b, plain=True)
    pair = solve_fundamental(profile, t_a, t_b)
    sized, plain = calls[classical], calls[oracles]
    assert np.isin(plain_t, pair.node_t).all()
    want = plain_state(np.array([t_b]))[:, 0]
    assert np.max(np.abs(pair.state(t_b) - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))
    assert sized < plain if plain > 2 else sized <= plain, (sized, plain)


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


@pytest.mark.parametrize("profile, span", [
    (Constant(1.0), 5e-4), (ExpDecay(1.0, 1.0), 2e-4), (Constant(1.0), 2e-5),
])
def test_spot_check_probes_inside_a_short_window(profile, span):
    # below 20 _SPOT_H the step shrinks with the window, so no probe time or
    # difference point leaves it, and a true solution passes
    from tdho.kernel import kernel_eq17, kernel_robust
    pair = solve_fundamental(profile, 0.0, span)
    sol = pair.combination(1.0, 0.3)
    want = kernel_robust(pair, 0.1, 0.1).k
    assert kernel_eq17(profile, sol, 0.0, span, 0.1, 0.1).k == pytest.approx(want, rel=1e-12)
    assert pair_from_solution(sol, profile, 0.0, span).state(span) == pytest.approx(pair.state(span))
    wrong = SolutionCurve(f=lambda t: np.cos(2.0 * t), fdot=lambda t: -2.0 * np.sin(2.0 * t))
    with pytest.raises(SolutionMismatch):
        spot_check_solution(profile, wrong, 0.0, span)


def test_spot_check_refuses_a_window_its_roundoff_swamps(monkeypatch):
    # the second difference's roundoff 4 eps / h^2 reaches rel_tol below a
    # span of 40 sqrt(eps / rel_tol): 1.9e-5 at rel_tol = 1e-3
    sol = closed_form(Constant(1.0))
    with pytest.raises(DomainError, match=r"span of at least 1\.885e-05"):
        spot_check_solution(Constant(1.0), sol, 0.0, 1e-5, rel_tol=1e-3)
    with pytest.raises(DomainError, match=r"span of at least 5\.960e-06"):
        pair_from_solution(sol, Constant(1.0), 0.0, 1e-6)
    # a window of at least 20 _SPOT_H keeps the fixed step and probe times
    seen = []
    residuals = classical._residuals
    monkeypatch.setattr(classical, "_residuals",
                        lambda *args: seen.append(args[2:]) or residuals(*args))
    spot_check_solution(Constant(1.0), sol, 0.0, 20 * classical._SPOT_H)
    (ts, steps), = seen
    assert steps == (classical._SPOT_H,)
    assert np.array_equal(ts, np.linspace(5 * classical._SPOT_H, 15 * classical._SPOT_H, 7))


@pytest.mark.parametrize("omega", [35.0, 40.0, 100.0, 300.0, 1e3])
def test_spot_check_passes_exact_solutions_at_high_frequency(omega):
    # the truncation error of the second difference, about omega^4 h^2 / 12,
    # passes rel_tol = 1e-3 from omega = 35 on; it is measured against omega^2
    from tdho.kernel import kernel_eq17, kernel_robust
    profile, t_b = Constant(omega), 1.0 / omega
    spot_check_solution(profile, closed_form(profile), 0.0, t_b, rel_tol=1e-3)
    pair = solve_fundamental(profile, 0.0, t_b)
    want = kernel_robust(pair, 0.1, 0.1).k
    assert kernel_eq17(profile, pair.combination(1.0, 0.0), 0.0, t_b, 0.1, 0.1).k == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("omega", [2e3, 1e4])
def test_spot_check_caps_omega_h_so_exact_solutions_pass_at_any_frequency(omega):
    # on [0, 3/omega] the step span/20 gives omega h = 0.15, whose truncation
    # error (omega h)^2 / 12 = 1.9e-3 of omega^2 refused this exact solution
    from tdho.kernel import kernel, kernel_eq17
    profile, t_b = Constant(omega), 3.0 / omega
    sol = SolutionCurve(f=lambda t: np.cos(omega * t - 1.5),
                        fdot=lambda t: -omega * np.sin(omega * t - 1.5))
    want = kernel(profile, 0.0, t_b, 0.1, 0.1).k
    assert kernel_eq17(profile, sol, 0.0, t_b, 0.1, 0.1).k == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("omega", [0.5, 1.0, 35.0, 100.0, 1e3, 2e3, 1e4])
def test_spot_check_refuses_a_frequency_one_percent_off(omega):
    w = 1.01 * omega
    off = SolutionCurve(f=lambda t: np.cos(w * t), fdot=lambda t: -w * np.sin(w * t))
    with pytest.raises(SolutionMismatch):
        spot_check_solution(Constant(omega), off, 0.0, 1.0 / omega, rel_tol=1e-3)
