"""The evaluation contract: a float or an ndarray of times goes in, and a
result of the same shape comes out, equal to the per-point float results.

Covers the seven profile types, the closed-form catalogue, the special
functions, the typed errors of an array with one bad point, and the
consumers that evaluate a whole time grid in one call.
"""

import math

import numpy as np
import pytest

from tdho.classical import (SolutionCurve, closed_form, solve_fundamental,
                            verify_solution)
from tdho.errors import DomainError, EvalAtImpulse, NonFiniteError
from tdho.freq_profile import (Constant, DeltaPulse, ExpDecay, Expression,
                               PowerLaw, SechSquared, Tabulated)
from tdho.kernel import _zero_scan_grid, compute_W
from tdho.specfun import LegendreDegree, bessel_j, legendre_p, legendre_p_dx

# 2-d, so that "same shape" is not satisfied by accident by a flat result
GRID = np.linspace(0.2, 1.2, 24).reshape(4, 6)

PROFILES = {
    "constant": Constant(1.3),
    "exp_decay": ExpDecay(1.1, 0.7),
    "power_law": PowerLaw(0.8, 1.2, -0.6),
    "delta_pulse": DeltaPulse(1.2, 0.55),
    "sech_squared": SechSquared(1.4, 1.1, 0.6),
    "tabulated": Tabulated(np.linspace(0.0, 1.5, 9), 1.0 + np.sin(np.linspace(0.0, 1.5, 9))),
    "expression": Expression("1 + 0.5*sin(2*t)*exp(-t/3) + sech(t)^2 - log(1+t)"),
}

CLOSED_FORMS = {
    "constant": Constant(0.8),
    "exp_decay": ExpDecay(1.0, 1.0),
    "power_law": PowerLaw(1.3, 0.7, -0.6),
    "delta_pulse": DeltaPulse(1.0, 0.5),
    "sech_squared_conical": SechSquared(2.0, 1.0, 0.5),
    "sech_squared_real": SechSquared(0.3, 1.2, 0.4),
}


def assert_matches_points(fn, grid):
    """fn(grid) keeps grid's shape and equals fn at each point to 1e-15."""
    got = fn(grid)
    assert isinstance(got, np.ndarray) and got.shape == grid.shape
    want = np.array([fn(float(x)) for x in grid.flat]).reshape(grid.shape)
    assert all(isinstance(fn(float(x)), float) for x in grid.flat[:3])
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name", PROFILES)
def test_profile_array_equals_points(name):
    profile = PROFILES[name]
    assert_matches_points(profile.omega_squared, GRID)
    assert_matches_points(profile.smooth_omega_squared, GRID)


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_form_array_equals_points(name):
    sol = closed_form(CLOSED_FORMS[name])
    assert_matches_points(sol.f, GRID)
    assert_matches_points(sol.fdot, GRID)


def test_combination_array_equals_points():
    curve = solve_fundamental(SechSquared(1.4, 1.1, 0.6), 0.0, 1.5).combination(0.3, 1.1)
    assert_matches_points(curve.f, GRID)
    assert_matches_points(curve.fdot, GRID)


@pytest.mark.parametrize("nu", [0.0, 1.0, 1.0 / 3.0, 2.5])
def test_bessel_array_equals_points(nu):
    assert_matches_points(lambda x: bessel_j(nu, x), np.linspace(0.0, 30.0, 40).reshape(5, 8))


@pytest.mark.parametrize("degree", [LegendreDegree.real(0.3), LegendreDegree.real(-0.7),
                                    LegendreDegree.real(3.0), LegendreDegree.conical(1.7)],
                         ids=["real-0.3", "real-neg", "integer", "conical"])
def test_legendre_array_equals_points(degree):
    # both branches (series about 1 and about 0), x = 0, x = 1 and |x| near 1
    x = np.concatenate([np.linspace(-0.99, 1.0, 28), [0.0, -0.5, 0.5, 1.0]]).reshape(4, 8)
    assert_matches_points(lambda v: legendre_p(degree, v), x)
    assert_matches_points(lambda v: legendre_p_dx(degree, v), x)
    # an array that meets only one branch, and an empty one
    assert_matches_points(lambda v: legendre_p(degree, v), np.linspace(0.1, 0.9, 5))
    assert legendre_p(degree, np.array([])).shape == (0,)


def test_one_bad_point_raises_the_scalar_error():
    t = np.array([0.5, 1.0, -0.25, 2.0, -0.5])
    with pytest.raises(DomainError, match="t=-0.25"):
        PowerLaw(1.0, 1.0, 0.5).omega_squared(t)
    with pytest.raises(DomainError, match="t=0.0"):
        PowerLaw(1.0, 1.0, -0.5).smooth_omega_squared(np.array([1.0, 0.0]))
    tab = Tabulated(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.5]))
    with pytest.raises(DomainError, match="t=2.5"):
        tab.omega_squared(np.array([0.5, 2.5, 1.0]))
    pulse = DeltaPulse(1.0, 0.5)
    with pytest.raises(EvalAtImpulse) as exc:
        pulse.omega_squared(np.array([0.25, 0.5, 0.75]))
    assert exc.value.t == 0.5
    assert pulse.smooth_omega_squared(np.array([0.25, 0.5])).tolist() == [0.0, 1.0]
    with pytest.raises(NonFiniteError) as exc:
        Expression("log(t)").omega_squared(np.array([1.0, 2.0, -1.0, 0.0]))
    assert exc.value.t == -1.0
    with pytest.raises(NonFiniteError) as exc:
        Expression("1/(1/t)").omega_squared(np.array([1.0, 0.0, 2.0]))
    assert exc.value.t == 0.0
    with pytest.raises(DomainError, match="x=-1.0"):
        bessel_j(0.0, np.array([1.0, -1.0]))
    with pytest.raises(DomainError, match="x=-1.0"):
        legendre_p(LegendreDegree.real(0.5), np.array([0.5, -1.0]))


def test_constant_results_broadcast_to_the_grid():
    assert Expression("2^3 - 1").omega_squared(GRID).shape == GRID.shape
    assert Constant(2.0).omega_squared(GRID).tolist() == np.full(GRID.shape, 4.0).tolist()
    w, _ = compute_W(lambda t: 2.0, 0.0, 1.0, Constant(0.0))
    assert w == pytest.approx(0.25, rel=1e-14)


class CountingCurve(SolutionCurve):
    """cos t, recording the shape of every argument f is called with."""

    def __init__(self):
        self.shapes = []

        def f(t):
            self.shapes.append(np.shape(t))
            return np.cos(t)

        super().__init__(f, lambda t: -np.sin(t), "counted cos")


def test_compute_W_scans_in_one_call():
    curve = CountingCurve()
    profile = Constant(1.0)
    compute_W(curve.f, 0.0, 1.0, profile)
    arrays = [s for s in curve.shapes if s != ()]
    assert arrays == [_zero_scan_grid(profile, 0.0, 1.0).shape]


def test_verify_solution_evaluates_in_one_call():
    curve = CountingCurve()
    report = verify_solution(Constant(1.0), curve, (0.0, 1.0), h=1e-2, n_samples=50)
    # t, t - h, t - h/2, t + h, t + h/2 for the 50 sample times
    assert curve.shapes == [(5, 50)]
    assert report.passed and isinstance(report.passed, bool)
    assert isinstance(report.max_residual, float) and isinstance(report.worst_t, float)


def test_power_law_window_from_zero_keeps_its_probe():
    # omega^2 diverges at t = 0 for beta < 0: the probe drops the ends and
    # still sees the large values just after t = 0
    profile = PowerLaw(20.0, 1.0, -0.5)
    grid = _zero_scan_grid(profile, 0.0, 10.0)
    w2max = max(profile.omega_squared(float(t)) for t in np.linspace(0.0, 10.0, 33)[1:-1])
    assert grid.size == int(40.0 * 10.0 * math.sqrt(w2max) / (2.0 * math.pi)) + 1
    assert grid.size > 400
