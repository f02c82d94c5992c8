import math
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import oracles
from tdho import specfun
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
    # conjugate; the oracle takes lambda(lambda+1) itself.  From degree 2 on,
    # nu and -1 - nu take the recurrence from the same degrees, at every x
    x = np.linspace(0.05, 1.0, 20)
    assert np.array_equal(legendre_p(2.0, x), legendre_p(-3.0, x))
    assert np.array_equal(legendre_p(complex(-0.5, 1.3), x), legendre_p(complex(-0.5, -1.3), x))
    assert legendre_p(2.0, 0.5) == pytest.approx(oracles.legendre_p_series(6.0, 0.5), rel=1e-14)
    assert legendre_p(complex(-0.5, 1.3), 0.5) == pytest.approx(
        oracles.legendre_p_series(-(1.3 ** 2 + 0.25), 0.5), rel=1e-14)
    # and past x = 0, about x = -1, nu and -1 - nu swap a = -nu and b = nu + 1,
    # which leaves 1/(G(a) G(b)) and psi(a) + psi(b) alone, so they agree to roundoff
    x = np.linspace(-0.9, 0.0, 10)
    assert np.array_equal(legendre_p(2.0, x), legendre_p(-3.0, x))
    assert legendre_p(1.7, x) == pytest.approx(legendre_p(-2.7, x), rel=1e-13, abs=1e-14)


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


def _conical_seam(mu):
    """Where the series about x = -1 hands a conical degree over: (1 + x)/2 = min(1/10, 2/|lambda(lambda+1)|)."""
    return 2.0 * min(0.1, -2.0 / specfun._degree_terms(complex(-0.5, mu))[0]) - 1.0


@pytest.mark.parametrize("d, seam", [(2.3, 0.0), (0.9, 0.0), (5.2, 0.0), (2.0 + 1e-7, 0.0), (-0.3, -0.8),
                                     (-0.75, -0.8), (complex(-0.5, 0.8), -0.8), (complex(-0.5, 4.0), -0.8),
                                     (complex(-0.5, 12.0), _conical_seam(12.0)),
                                     (complex(-0.5, 16.0), _conical_seam(16.0))])
def test_legendre_continuous_across_each_seam(d, seam):
    # x <= 0 is summed about x = -1 when lambda(lambda+1) > 0, and (1 + x)/2 <=
    # min(1/10, 2/|lambda(lambda+1)|) otherwise; the series about x = 1 takes the
    # next float up, so a mismatch of the branches shows as a jump in P or dP/dx
    # there.  A degree from 2 on is carried at every x by the recurrence in the
    # degree from two degrees in [0, 2), and so meets their seam at x = 0
    x = np.array([seam, np.nextafter(seam, 1.0)])
    for fn in (legendre_p, legendre_p_dx):
        left, right = fn(d, x)
        assert abs(left - right) <= 1e-13 * max(1.0, abs(left)), fn


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


@pytest.mark.parametrize("nu", [0.3, -0.7, -0.25, 1.5, 3.7, 5.2])
def test_legendre_derivative_satisfies_the_degree_recurrence(nu):
    # (1 - x^2) P'_nu = (nu + 1)(x P_nu - P_{nu+1}) (DLMF 14.10.5) on both
    # sides of x = 0, to 1e-12: the finite-difference check above is 1e-7
    x = np.linspace(-0.95, 0.999, 2001)
    lhs = (1.0 - x * x) * legendre_p_dx(nu, x)
    rhs = (nu + 1.0) * (x * legendre_p(nu, x) - legendre_p(nu + 1.0, x))
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(rhs)))


@pytest.mark.parametrize("nu", [2.0, 2.5, 8.3, 25.3, -21.4, 30.0])
def test_degree_from_2_on_sums_only_the_series_it_returns(nu, monkeypatch):
    # the recurrence in the degree starts from nu0 - 1 and nu0 in [0, 2): P
    # sums their P series, once on each side of the seam, and dP/dx adds their
    # dP/dx series (but for degree 0, whose dP/dx is 0).  Both carry the bits
    # of DLMF 14.10.3 and its x-derivative run here from those start values
    x = np.linspace(-0.99, 0.99, 41)
    calls = []
    sum_terms = specfun._sum
    monkeypatch.setattr(specfun, "_sum", lambda *args: calls.append(args[1]) or sum_terms(*args))
    p = legendre_p(nu, x)
    assert sorted(calls) == ["-1", "-1", "1", "1"]
    calls.clear()
    d = legendre_p_dx(nu, x)
    top = max(nu, -1.0 - nu)
    assert len(calls) == (7 if top.is_integer() else 8)
    nu0 = top - math.floor(top) + 1.0
    p0, p1 = legendre_p(nu0 - 1.0, x), legendre_p(nu0, x)
    d0, d1 = legendre_p_dx(nu0 - 1.0, x), legendre_p_dx(nu0, x)
    for n in nu0 + np.arange(math.floor(top) - 1.0):
        p0, p1, d0, d1 = (p1, ((2.0 * n + 1.0) * x * p1 - n * p0) / (n + 1.0),
                          d1, ((2.0 * n + 1.0) * (p1 + x * d1) - n * d0) / (n + 1.0))
    assert np.array_equal(p, p1) and np.array_equal(d, d1)


# degrees on both sides of lambda(lambda+1) = 0, next to the integer 2 and at
# it, and conical; the series about x = -1 takes near-integer degrees through
# psi next to its poles
NEAR_MINUS_ONE_DEGREES = [0.3, 1.7, 5.2, -0.3, -0.75, 2.0 - 1e-7, 2.0 + 1e-7, 2.0 - 1e-12, 2.0 + 1e-12, 0.0, 3.0,
                          complex(-0.5, 0.5), complex(-0.5, 1.3), complex(-0.5, 4.0)]
NEAR_MINUS_ONE = np.concatenate([-1.0 + np.geomspace(1e-12, 0.5, 40, endpoint=False),
                                 np.linspace(-0.5, 1.0, 31)])


@pytest.mark.parametrize("d", NEAR_MINUS_ONE_DEGREES, ids=repr)
def test_legendre_bounded_cost_down_to_minus_one(d, monkeypatch):
    # every series converges at least like 0.9^k: the one about x = -1 serves
    # (1 + x)/2 <= 1/2, and the one about x = 1 serves (1 - x)/2 <= 0.9 and has
    # terms of one sign there, so 400 terms reach 1e-17 of the sum even for
    # conical mu = 4 (357 terms), at any x down to -1 + 1e-12
    monkeypatch.setattr(specfun, "_MAX_TERMS", 400)
    for fn in (legendre_p, legendre_p_dx):
        assert np.all(np.isfinite(fn(d, NEAR_MINUS_ONE)))


@pytest.mark.parametrize("d", NEAR_MINUS_ONE_DEGREES, ids=repr)
def test_legendre_near_minus_one_matches_the_ode_oracle(d):
    # the oracle integrates the Legendre equation in ln((1 + x)/2) from x = -1/2;
    # the derivative is compared as (1 + x) dP/dx, which the logarithm keeps O(P)
    x = NEAR_MINUS_ONE[NEAR_MINUS_ONE <= -0.5]
    want, want_s = oracles.legendre_p_near_minus_one(_lam_lam1(d), x)
    scale = np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(legendre_p(d, x) - want) <= 1e-12 * scale)
    assert np.all(np.abs((1.0 + x) * legendre_p_dx(d, x) - want_s) <= 1e-12 * scale)


@pytest.mark.parametrize("mu", [0.5, 1.3, 2.0, 3.9])
def test_conical_keeps_the_series_about_one_down_to_minus_0_8(mu):
    # the series about x = -1 carries 1/(G(a) G(b)) = cosh(pi mu)/pi times the
    # rounding, about 3e-11 near x = 0 at mu = 3.9; the series about x = 1 has
    # terms of one sign for a conical degree, so 400 of them summed by fsum are
    # a reference down to x = -0.8, where (1 - x)/2 = 0.9
    d = complex(-0.5, mu)
    for x in np.linspace(-0.8, 0.0, 17):
        want = oracles.legendre_p_series(_lam_lam1(d), x, terms=400)
        assert abs(legendre_p(d, x) - want) <= 1e-13 * max(1.0, abs(want)), x


@pytest.mark.parametrize("mu", [8.0, 12.0, 16.0])
def test_conical_seam_moves_toward_minus_one_as_mu_grows(mu):
    # past mu = 4 the series about x = -1 would carry cosh(pi mu)/pi times its
    # rounding to (1 + x)/2 = 1/10 (1.5e-7 at mu = 16), so it hands over at
    # 2/|lambda(lambda+1)|; the series about x = 1 stays one-signed there, and
    # summed by fsum to well past its last digit it is the reference either side
    d, seam = complex(-0.5, mu), _conical_seam(mu)
    for f in (0.5, 0.9, 1.0, 1.1, 2.0, 5.0):
        x = -1.0 + f * (1.0 + seam)
        want = oracles.legendre_p_series(_lam_lam1(d), x, terms=int(120.0 / (f * (1.0 + seam))))
        assert abs(legendre_p(d, x) - want) <= 1e-13 * max(1.0, abs(want)), f


@pytest.mark.parametrize("n", [2.0, 3.0, 10.0, 20.0, -21.0])
def test_integer_degree_has_parity_down_to_minus_one(n):
    # P_n(-x) = (-1)^n P_n(x) and P_n'(-x) = (-1)^(n+1) P_n'(x); the series about
    # x = 1 has terms up to C(n,k) C(n+k,k) z^k (5e13 at n = 20, z -> 1), so from
    # n = 2 on every x is carried by the recurrence in the degree from P_0 and P_1
    m = n if n >= 0 else -1.0 - n
    x = np.array([-0.9, -0.99, -0.999, -1.0 + 1e-12])
    sign = -1.0 if m % 2 else 1.0
    for fn, s in ((legendre_p, sign), (legendre_p_dx, -sign)):
        want = s * fn(n, -x)
        assert np.all(np.abs(fn(n, x) - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), fn
    assert legendre_p(n, -1.0 + 1e-12) == pytest.approx(sign, abs=m * (m + 1.0) * 1e-12)


@pytest.mark.parametrize("nu", [2.5, 8.3, 10.0, 12.3, 20.4, -21.4, 25.3, 30.0])
def test_large_real_degree_matches_mehler_dirichlet(nu):
    # both series lose digits near x = 0 as the degree grows (the one about
    # x = 1 by 2.3e-4 at 25.3 and 6.6e-2 at 30 on these x > 0); the recurrence
    # in the degree does not, on either side.  dP/dx is checked through
    # (1 - x^2) P'_nu = (nu + 1)(x P_nu - P_{nu+1}) (DLMF 14.10.5) on the oracle
    x = np.linspace(-0.95, 0.95, 39)
    p = np.array([oracles.legendre_p_mehler(nu, v) for v in x])
    p1 = np.array([oracles.legendre_p_mehler(nu + 1.0, v) for v in x])
    dp = (nu + 1.0) * (x * p - p1) / (1.0 - x * x)
    assert np.all(np.abs(legendre_p(nu, x) - p) <= 1e-13 * np.maximum(1.0, np.abs(p)))
    assert np.all(np.abs(legendre_p_dx(nu, x) - dp) <= 3e-13 * np.maximum(1.0, np.abs(dp)))


def test_legendre_domain_errors():
    d = 1.0
    with pytest.raises(DomainError):
        legendre_p(d, 1.0 + 1e-12)
    with pytest.raises(DomainError):
        legendre_p(d, -1.0)
    with pytest.raises(DomainError):
        legendre_p(d, -1.5)


@pytest.mark.parametrize("about, cap, converging, slow", [
    ("-1", 8, [-1.0 + 1e-12, -1.0 + 1e-9, -1.0 + 1e-6], -0.8 - np.geomspace(1e-3, 1e-1, 300)),  # near x = -0.8
    ("1", 20, [0.999, 0.99, 0.9], np.geomspace(1e-3, 1e-1, 300)),                              # near x = 0
])
def test_unconverged_series_names_its_first_point_on_one_line(about, cap, converging, slow, monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_TERMS", cap)
    x = np.concatenate([converging, slow])
    with pytest.raises(DomainError) as exc:
        legendre_p(complex(-0.5, 1.0), x)
    msg = str(exc.value)
    assert "\n" not in msg and len(msg) < 160, msg
    assert f"about x={about} " in msg and "300 of 303 points" in msg
    assert msg.endswith(f"the first x={float(slow[0])!r}")


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


def test_degree_refuses_more_recurrence_steps_than_the_term_cap(monkeypatch):
    # a real degree from 2 on takes about |degree| steps of the recurrence, at every x
    monkeypatch.setattr(specfun, "_MAX_TERMS", 50)
    assert math.isfinite(legendre_p(50.0, -0.5)) and math.isfinite(legendre_p_dx(-50.0, -0.5))
    for degree in (50.5, -51.5, complex(-0.5, 50.0)):
        with pytest.raises(DomainError, match=re.escape(f"got {degree!r}, of size <= 50")):
            legendre_p(degree, -0.5)


@pytest.mark.parametrize("degree", [complex(2.0, 0.0), complex(0.0, 1.0), complex(-0.5 + 1e-16, 1.0),
                                    complex(math.nan, 1.0)])
def test_degree_refuses_a_complex_degree_off_the_conical_line(degree):
    # a complex degree is conical, Re lambda = -1/2 exactly
    for fn in (legendre_p, legendre_p_dx):
        with pytest.raises(DomainError, match=re.escape(f"got {degree!r}")):
            fn(degree, np.array([0.5, -0.5]))
