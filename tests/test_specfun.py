import math
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import oracles
from tdho.errors import DomainError
from tdho.specfun import bessel_j, gamma, legendre_p, legendre_p_dx


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

def _lam_lam1(d):
    """lambda(lambda+1): nu(nu+1) for a real degree, -(mu^2 + 1/4) for -1/2 + i mu."""
    return -(d.imag ** 2 + 0.25) if isinstance(d, complex) else d * (d + 1.0)


def test_degree_lambda_products():
    # about x = 1 the degree enters only through lambda(lambda+1), so nu and
    # -1 - nu give the same bits (DLMF 14.9.5), as do -1/2 + i mu and its
    # conjugate; the oracle takes lambda(lambda+1) itself
    x = np.linspace(0.05, 1.0, 20)
    assert np.array_equal(legendre_p(2.0, x), legendre_p(-3.0, x))
    assert np.array_equal(legendre_p(complex(-0.5, 1.3), x), legendre_p(complex(-0.5, -1.3), x))
    assert legendre_p(2.0, 0.5) == pytest.approx(oracles.legendre_p_series(6.0, 0.5), rel=1e-14)
    assert legendre_p(complex(-0.5, 1.3), 0.5) == pytest.approx(
        oracles.legendre_p_series(-(1.3 ** 2 + 0.25), 0.5), rel=1e-14)
    # and past x = 0 through P(0) and P'(0) as well, to roundoff
    x = np.linspace(-0.9, 0.0, 10)
    assert legendre_p(2.0, x) == pytest.approx(legendre_p(-3.0, x), rel=1e-13, abs=1e-14)


def test_legendre_pinned_identities():
    assert legendre_p(2.7, 1.0) == 1.0
    assert legendre_p(complex(-0.5, 1.0), 1.0) == 1.0
    for x in (-0.5, 0.0, 0.7):
        assert legendre_p(1.0, x) == pytest.approx(x, abs=1e-13)
        assert legendre_p(0.0, x) == pytest.approx(1.0, rel=1e-13)
    # quadratic: P_2 = (3x^2 - 1)/2
    for x in (-0.8, -0.3, 0.4, 0.9):
        assert legendre_p(2.0, x) == pytest.approx(0.5 * (3 * x * x - 1), abs=1e-12)


def test_legendre_matches_series_oracle():
    rng = np.random.default_rng(20260816)
    for _ in range(200):
        x = rng.uniform(0.1, 1.0)
        d = rng.uniform(0.0, 6.0)
        want = oracles.legendre_p_series(_lam_lam1(d), x)
        assert abs(legendre_p(d, x) - want) <= 1e-10 * max(1.0, abs(want))
        d = complex(-0.5, rng.uniform(0.0, 4.0))
        want = oracles.legendre_p_series(_lam_lam1(d), x)
        assert abs(legendre_p(d, x) - want) <= 1e-10 * max(1.0, abs(want))


def _legendre_ivp_continuation(d, x_targets):
    # independent check of the x <= 0 branch: integrate the Legendre ODE
    # leftward from x=0.5 where the series oracle is trustworthy
    L = _lam_lam1(d)
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
    for d in (1.7, complex(-0.5, 1.0)):
        want = _legendre_ivp_continuation(d, targets)
        for x in targets:
            assert legendre_p(d, x) == pytest.approx(want[x], rel=2e-9, abs=2e-9)


def test_legendre_smooth_across_zero():
    # P(0) from the about-zero branch matches a cubic extrapolation of the
    # about-one branch; mismatch would mean the branches are misaligned
    h = 0.005
    for d in (2.3, 0.9, complex(-0.5, 0.8), complex(-0.5, 2.0)):
        extrap = (4 * legendre_p(d, h) - 6 * legendre_p(d, 2 * h)
                  + 4 * legendre_p(d, 3 * h) - legendre_p(d, 4 * h))
        assert abs(extrap - legendre_p(d, 0.0)) <= 1e-6


def test_legendre_ode_residual():
    h = 1e-4
    for d in (0.9, 3.4, complex(-0.5, 0.5), complex(-0.5, 2.0)):
        L = _lam_lam1(d)
        for x in (-0.9, -0.45, -0.1, 0.2, 0.55, 0.93):
            pm, p0, pp = (legendre_p(d, x - h), legendre_p(d, x),
                          legendre_p(d, x + h))
            d1 = (pp - pm) / (2 * h)
            d2 = (pp - 2 * p0 + pm) / (h * h)
            res = (1 - x * x) * d2 - 2 * x * d1 + L * p0
            assert abs(res) <= 1e-5 * max(1.0, abs(p0))


def test_legendre_derivative_matches_finite_difference():
    h = 1e-6
    for d in (1.8, complex(-0.5, 1.2)):
        for x in (-0.7, -0.2, 0.3, 0.8):
            fd = (legendre_p(d, x + h) - legendre_p(d, x - h)) / (2 * h)
            assert legendre_p_dx(d, x) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_legendre_derivative_pinned():
    # P_1' = 1, P_2' = 3x
    for x in (-0.5, 0.2, 0.9):
        assert legendre_p_dx(1.0, x) == pytest.approx(1.0, rel=1e-10)
        assert legendre_p_dx(2.0, x) == pytest.approx(3 * x, rel=1e-9)


def test_legendre_domain_errors():
    d = 1.0
    with pytest.raises(DomainError):
        legendre_p(d, 1.0 + 1e-12)
    with pytest.raises(DomainError):
        legendre_p(d, -1.0)
    with pytest.raises(DomainError):
        legendre_p(d, -1.5)


def test_conical_values_are_real_floats():
    for tau in (0.3, 1.0, 2.7):
        for x in (-0.9, -0.2, 0.4, 0.99):
            v = legendre_p(complex(-0.5, tau), x)
            assert isinstance(v, float) and math.isfinite(v)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_degree_refuses_non_finite_parameters(value):
    refusal = r"^degree must be a finite real nu or -1/2 \+ i mu, got "
    for degree in (value, complex(-0.5, value)):
        for fn in (legendre_p, legendre_p_dx):
            with pytest.raises(DomainError, match=refusal):
                fn(degree, 0.5)
    with pytest.raises(DomainError, match=f"got {value!r}"):
        legendre_p(value, np.array([]))


@pytest.mark.parametrize("degree", [complex(2.0, 0.0), complex(0.0, 1.0), complex(-0.5 + 1e-16, 1.0),
                                    complex(math.nan, 1.0)])
def test_degree_refuses_a_complex_degree_off_the_conical_line(degree):
    # a complex degree is conical, Re lambda = -1/2 exactly
    for fn in (legendre_p, legendre_p_dx):
        with pytest.raises(DomainError, match=re.escape(f"got {degree!r}")):
            fn(degree, np.array([0.5, -0.5]))
