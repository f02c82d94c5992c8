import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import oracles
from tdho.errors import DomainError
from tdho.specfun import LegendreDegree, bessel_j, gamma, legendre_p, legendre_p_dx


# ---------------------------------------------------------------------------
# gamma

def test_gamma_pinned_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_duplication_formula():
    rng = np.random.default_rng(11)
    for _ in range(40):
        z = rng.uniform(0.1, 8.0)
        lhs = gamma(z) * gamma(z + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * z) * math.sqrt(math.pi) * gamma(2.0 * z)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gamma_complex_modulus_identity():
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y)
    for y in (0.0, 0.3, 1.0, 2.5):
        g = gamma(complex(0.5, y))
        assert abs(g) ** 2 == pytest.approx(math.pi / math.cosh(math.pi * y), rel=1e-12)


def test_gamma_matches_stdlib_on_reals():
    for x in np.linspace(0.2, 12.0, 31):
        assert gamma(float(x)) == pytest.approx(math.gamma(x), rel=1e-13)


@pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -7.0])
def test_gamma_is_inf_at_the_poles(pole):
    assert gamma(pole) == math.inf
    # just off the pole -n it follows the residue (-1)^n / n!
    n = int(-pole)
    assert gamma(pole + 1e-9) == pytest.approx((-1) ** n / (math.factorial(n) * 1e-9), rel=1e-6)


# ---------------------------------------------------------------------------
# Bessel J

def test_bessel_pinned_values():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.0, 0.0) == 0.0
    assert bessel_j(0.0, 1.0) == pytest.approx(0.7651976866, abs=5e-11)
    assert bessel_j(1.0 / 3.0, 2.5) == pytest.approx(
        oracles.bessel_j_series(1.0 / 3.0, 2.5), rel=1e-12)


def test_bessel_matches_series_oracle():
    rng = np.random.default_rng(20260816)
    for _ in range(200):
        nu = rng.uniform(0.0, 5.0)
        x = rng.uniform(0.0, 10.0)
        want = oracles.bessel_j_series(nu, x)
        got = bessel_j(nu, x)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (nu, x)


def test_bessel_recurrence_including_large_x():
    # J_{nu-1} + J_{nu+1} = (2 nu / x) J_nu, exercised across the series/
    # Miller switchover at x = max(12, 2 nu)
    rng = np.random.default_rng(7)
    for _ in range(150):
        nu = rng.uniform(1.0, 5.0)
        x = rng.uniform(0.5, 40.0)
        lhs = bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x)
        rhs = (2.0 * nu / x) * bessel_j(nu, x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(bessel_j(nu, x)))


def _bessel_ode_residual(nu, x, h):
    jm, j0, jp = bessel_j(nu, x - h), bessel_j(nu, x), bessel_j(nu, x + h)
    d1 = (jp - jm) / (2 * h)
    d2 = (jp - 2 * j0 + jm) / (h * h)
    return x * x * d2 + x * d1 + (x * x - nu * nu) * j0


def test_bessel_ode_residual():
    # at h=1e-4 the eps/h^2 differencing floor (~x^2 * 4e-14 / h^2) dominates
    # the O(h^2) truncation, so the spot check is loose ...
    for nu in (0.0, 0.5, 1.0 / 3.0, 2.0, 4.5):
        for x in (0.7, 2.3, 6.1, 9.4):
            res = _bessel_ode_residual(nu, x, 1e-4)
            assert abs(res) <= 1e-2 * max(1.0, abs(bessel_j(nu, x)))
    # ... and the O(h^2) claim itself is pinned where truncation dominates
    for nu, x in ((0.5, 2.3), (2.0, 0.7), (1.0 / 3.0, 1.9)):
        r1 = abs(_bessel_ode_residual(nu, x, 3e-2))
        r2 = abs(_bessel_ode_residual(nu, x, 3e-3))
        slope = math.log10(r1 / r2)
        assert 1.8 <= slope <= 2.2


def test_bessel_seam_continuity():
    # series and Miller branches agree across the switchover; the straddle is
    # tight enough that J's own slope contributes only ~2e-13
    for nu in (0.0, 0.7, 2.0, 5.0):
        seam = max(12.0, 2.0 * nu)
        lo = bessel_j(nu, seam - 1e-12)
        hi = bessel_j(nu, seam + 1e-12)
        assert abs(hi - lo) <= 5e-12


def test_bessel_against_scipy_beyond_series_range():
    rng = np.random.default_rng(13)
    for _ in range(60):
        nu = rng.uniform(0.0, 5.0)
        x = rng.uniform(12.0, 50.0)
        want = scipy.special.jv(nu, x)
        assert abs(bessel_j(nu, x) - want) <= 1e-12 * max(1.0, abs(want))


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(0.0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(-0.5, 1.0)


# ---------------------------------------------------------------------------
# Legendre / conical P

def test_degree_lambda_products():
    assert LegendreDegree.real(2.0).lam_lam1 == 6.0
    assert LegendreDegree.real(0.0).lam_lam1 == 0.0
    d = LegendreDegree.conical(1.3)
    assert d.lam_lam1 == pytest.approx(-(1.3 ** 2 + 0.25), rel=1e-15)


@pytest.mark.parametrize("kind", ["Real", "CONICAL", "integer", ""])
def test_degree_refuses_an_unknown_kind(kind):
    with pytest.raises(DomainError, match="kind must be 'real' or 'conical'"):
        LegendreDegree(kind, 2.0)


def test_legendre_pinned_identities():
    assert legendre_p(LegendreDegree.real(2.7), 1.0) == 1.0
    assert legendre_p(LegendreDegree.conical(1.0), 1.0) == 1.0
    for x in (-0.5, 0.0, 0.7):
        assert legendre_p(LegendreDegree.real(1.0), x) == pytest.approx(x, abs=1e-13)
        assert legendre_p(LegendreDegree.real(0.0), x) == pytest.approx(1.0, rel=1e-13)
    # quadratic: P_2 = (3x^2 - 1)/2
    for x in (-0.8, -0.3, 0.4, 0.9):
        assert legendre_p(LegendreDegree.real(2.0), x) == pytest.approx(
            0.5 * (3 * x * x - 1), abs=1e-12)


def test_legendre_matches_series_oracle():
    rng = np.random.default_rng(20260816)
    for _ in range(200):
        x = rng.uniform(0.1, 1.0)
        d = LegendreDegree.real(rng.uniform(0.0, 6.0))
        want = oracles.legendre_p_series(d.lam_lam1, x)
        assert abs(legendre_p(d, x) - want) <= 1e-10 * max(1.0, abs(want))
        d = LegendreDegree.conical(rng.uniform(0.0, 4.0))
        want = oracles.legendre_p_series(d.lam_lam1, x)
        assert abs(legendre_p(d, x) - want) <= 1e-10 * max(1.0, abs(want))


def _legendre_ivp_continuation(d, x_targets):
    # independent check of the x <= 0 branch: integrate the Legendre ODE
    # leftward from x=0.5 where the series oracle is trustworthy
    L = d.lam_lam1
    y0 = [oracles.legendre_p_series(L, 0.5),
          (oracles.legendre_p_series(L, 0.5 + 5e-7)
           - oracles.legendre_p_series(L, 0.5 - 5e-7)) / 1e-6]

    def rhs(x, y):
        return [y[1], (2 * x * y[1] - L * y[0]) / (1 - x * x)]

    sol = scipy.integrate.solve_ivp(
        rhs, (0.5, min(x_targets) - 1e-3), y0, dense_output=True,
        rtol=1e-12, atol=1e-14, method="RK45")
    return {x: sol.sol(x)[0] for x in x_targets}


def test_legendre_negative_x_branch():
    targets = [-0.05, -0.3, -0.6, -0.9]
    for d in (LegendreDegree.real(1.7), LegendreDegree.conical(1.0)):
        want = _legendre_ivp_continuation(d, targets)
        for x in targets:
            assert legendre_p(d, x) == pytest.approx(want[x], rel=2e-9, abs=2e-9)


def test_legendre_smooth_across_zero():
    # P(0) from the about-zero branch matches a cubic extrapolation of the
    # about-one branch; mismatch would mean the branches are misaligned
    h = 0.005
    for d in (LegendreDegree.real(2.3), LegendreDegree.real(0.9),
              LegendreDegree.conical(0.8), LegendreDegree.conical(2.0)):
        extrap = (4 * legendre_p(d, h) - 6 * legendre_p(d, 2 * h)
                  + 4 * legendre_p(d, 3 * h) - legendre_p(d, 4 * h))
        assert abs(extrap - legendre_p(d, 0.0)) <= 1e-6


def test_legendre_ode_residual():
    h = 1e-4
    for d in (LegendreDegree.real(0.9), LegendreDegree.real(3.4),
              LegendreDegree.conical(0.5), LegendreDegree.conical(2.0)):
        L = d.lam_lam1
        for x in (-0.9, -0.45, -0.1, 0.2, 0.55, 0.93):
            pm, p0, pp = (legendre_p(d, x - h), legendre_p(d, x),
                          legendre_p(d, x + h))
            d1 = (pp - pm) / (2 * h)
            d2 = (pp - 2 * p0 + pm) / (h * h)
            res = (1 - x * x) * d2 - 2 * x * d1 + L * p0
            assert abs(res) <= 1e-5 * max(1.0, abs(p0))


def test_legendre_derivative_matches_finite_difference():
    h = 1e-6
    for d in (LegendreDegree.real(1.8), LegendreDegree.conical(1.2)):
        for x in (-0.7, -0.2, 0.3, 0.8):
            fd = (legendre_p(d, x + h) - legendre_p(d, x - h)) / (2 * h)
            assert legendre_p_dx(d, x) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_legendre_derivative_pinned():
    # P_1' = 1, P_2' = 3x
    for x in (-0.5, 0.2, 0.9):
        assert legendre_p_dx(LegendreDegree.real(1.0), x) == pytest.approx(1.0, rel=1e-10)
        assert legendre_p_dx(LegendreDegree.real(2.0), x) == pytest.approx(3 * x, rel=1e-9)


def test_legendre_domain_errors():
    d = LegendreDegree.real(1.0)
    with pytest.raises(DomainError):
        legendre_p(d, 1.0 + 1e-12)
    with pytest.raises(DomainError):
        legendre_p(d, -1.0)
    with pytest.raises(DomainError):
        legendre_p(d, -1.5)


def test_conical_values_are_real_floats():
    for tau in (0.3, 1.0, 2.7):
        for x in (-0.9, -0.2, 0.4, 0.99):
            v = legendre_p(LegendreDegree.conical(tau), x)
            assert isinstance(v, float) and math.isfinite(v)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_degree_refuses_non_finite_parameters(value):
    with pytest.raises(DomainError, match="^degree must be finite$"):
        LegendreDegree.real(value)
    with pytest.raises(DomainError, match="^conical parameter must be finite$"):
        LegendreDegree.conical(value)


def test_degree_constructor_refuses_non_finite_parameters():
    with pytest.raises(DomainError, match="^degree must be finite$"):
        LegendreDegree("real", math.nan)
    with pytest.raises(DomainError, match="^conical parameter must be finite$"):
        LegendreDegree("conical", math.inf)
