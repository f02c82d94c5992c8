"""Special functions needed by the closed-form solution catalog.

Only what the catalog uses, nothing more: the gamma function and Bessel J of
real order nu >= 0 (both from scipy.special), and Legendre P on (-1, 1] of a
degree lambda given as one number: a float nu, or a complex -1/2 + i*mu for
the conical case (DLMF 14.20); any other degree raises DomainError.
bessel_j, legendre_p and legendre_p_dx take x as a float or an ndarray and
return a real float or an array of x's shape; the conical case is
real-valued on (-1, 1) even though the degree is complex.

Method selection
----------------
The Legendre functions are summed here because scipy.special.hyp2f1 rejects
the complex parameters of the conical case.  For x > 0, legendre_p sums the
Gauss hypergeometric series about x = 1 in the variable (1 - x)/2, and
legendre_p_dx the series of its derivative (DLMF 15.5.1), whose term ratio
is the same with the index shifted by one; one loop sums both.  For
x <= 0 that series converges too slowly, so the function is continued through
x = 0 with the pair of quadratically transformed series in x^2 (the even/odd
solutions of the Legendre equation), joined with the exact values of P and
dP/dx at 0 built from gamma factors.  Both series have real coefficients
driven only by lambda*(lambda+1), so the conical case never leaves real
arithmetic.  An array is summed in one loop over the terms; each point stops
adding terms where it alone would, so a float and an array give the same
bits.  Intended accuracy 1e-10 relative for |x| <= 0.99; the x -> -1
endpoint is logarithmically singular and out of scope.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = ["gamma", "bessel_j", "legendre_p", "legendre_p_dx"]


def gamma(z):
    """Gamma function (scipy.special.gamma).

    Real in, real out (inf at the poles 0, -1, -2, ...); complex in, complex out.
    """
    if isinstance(z, complex):
        return complex(special.gamma(z))
    x = float(z)
    return math.inf if x <= 0.0 and x.is_integer() else float(special.gamma(x))


def bessel_j(nu: float, x: float | np.ndarray) -> float | np.ndarray:
    """J_nu(x) for real order nu >= 0 and x >= 0 (scipy.special.jv)."""
    if not (math.isfinite(nu) and nu >= 0.0):
        raise DomainError(f"order must be finite and >= 0, got nu={nu}")
    xs = np.asarray(x, dtype=float)
    bad = xs[~(np.isfinite(xs) & (xs >= 0.0))]
    if bad.size:
        raise DomainError(f"argument must be finite and >= 0, got x={bad[0]}")
    out = special.jv(nu, xs)
    return out if isinstance(x, np.ndarray) else float(out)


def _degree_terms(degree: float | complex) -> tuple[float, float, float]:
    """lambda(lambda+1), P(0) and P'(0) of a degree lambda.

    A real degree nu takes the gamma-factor values of DLMF 14.5.1-2; a
    complex one must be conical, -1/2 + i mu, whose gamma arguments come in
    conjugate pairs, so both products are |.|^2 and stay real.
    """
    conical = isinstance(degree, complex)
    lam = complex(degree) if conical else float(degree)
    if not cmath.isfinite(lam) or (conical and lam.real != -0.5):
        raise DomainError(f"degree must be a finite real nu or -1/2 + i mu, got {degree!r}")
    lam_lam1 = (lam * (lam + 1.0)).real
    root_pi = math.sqrt(math.pi)
    if conical:
        g_even = special.gamma(complex(0.75, 0.5 * lam.imag))
        g_odd = special.gamma(complex(0.25, 0.5 * lam.imag))
        return (lam_lam1, root_pi / (g_even.real ** 2 + g_even.imag ** 2),
                -2.0 * root_pi / (g_odd.real ** 2 + g_odd.imag ** 2))
    return (lam_lam1,
            root_pi * special.rgamma(0.5 * lam + 1.0) * special.rgamma(0.5 - 0.5 * lam),
            -2.0 * root_pi * special.rgamma(0.5 * lam + 0.5) * special.rgamma(-0.5 * lam))


_MAX_TERMS = 200000


def legendre_p(degree: float | complex, x: float | np.ndarray) -> float | np.ndarray:
    """Legendre/conical P_degree(x) on (-1, 1]."""
    return _legendre(degree, x, derivative=False)


def legendre_p_dx(degree: float | complex, x: float | np.ndarray) -> float | np.ndarray:
    """d/dx of P_degree at x, same domain and method split as legendre_p."""
    return _legendre(degree, x, derivative=True)


def _legendre(degree: float | complex, x: float | np.ndarray, derivative: bool):
    L, p0, dp0 = _degree_terms(degree)
    xs = np.asarray(x, dtype=float)
    bad = xs[~((-1.0 < xs) & (xs <= 1.0))]
    if bad.size:
        raise DomainError(f"argument must lie in (-1, 1], got x={bad[0]}")
    out = np.empty(xs.shape)
    right = xs > 0.0
    out[right] = _about_one(L, xs[right], derivative)
    out[~right] = _about_zero(L, p0, dp0, xs[~right], derivative)
    return out if isinstance(x, np.ndarray) else float(out)


def _unconverged(about: str, x: np.ndarray, live: np.ndarray) -> DomainError:
    """The error for the points of x whose series is still live at _MAX_TERMS terms."""
    return DomainError(f"legendre series about x={about} did not converge in {_MAX_TERMS} terms at "
                       f"{np.count_nonzero(live)} of {x.size} points, the first x={float(x[live][0])!r}")


def _about_one(L: float, x, derivative: bool):
    z = 0.5 * (1.0 - x)
    # P = F(-lam, lam+1; 1; z) and dP/dx = (L/2) F(1-lam, lam+2; 2; z): the
    # term ratio of the second is that of the first with k shifted by s = 1
    s = int(derivative)
    term = total = 1.0
    live = True  # per point of z: still adding terms
    for k in range(_MAX_TERMS):
        term *= ((k + s) * (k + s + 1.0) - L) * z / ((k + s + 1.0) * (k + 1.0))
        total += term * live
        live &= (abs(term) > 1e-17 * abs(total)) | (k <= 4)
        if not live.any():
            return 0.5 * L * total if derivative else total
    raise _unconverged("1", x, live)


def _about_zero(L: float, p0: float, dp0: float, x, derivative: bool):
    x2 = x * x
    # even solution E = F(-lam/2, (lam+1)/2; 1/2; x^2)
    # odd solution  O = x F((1-lam)/2, lam/2+1; 3/2; x^2)
    # iteration k turns term k into term k+1, i.e. the coefficient of x^(2k+2)
    e_term = e_sum = 1.0
    e_dsum = 0.0   # dE/dx, with one power of x divided out at the end
    o_term = o_sum = 1.0
    o_dsum = 1.0   # dO/dx = sum (2k+1) o_k x^(2k)
    live = True    # per point of x: still adding terms
    for k in range(_MAX_TERMS):
        e_num = k * k + 0.5 * k - 0.25 * L
        o_num = k * k + 1.5 * k + 0.25 * (2.0 - L)
        e_term *= e_num * x2 / ((k + 0.5) * (k + 1.0))
        o_term *= o_num * x2 / ((k + 1.5) * (k + 1.0))
        e_sum += e_term * live
        o_sum += o_term * live
        e_dsum += 2.0 * (k + 1.0) * e_term * live
        o_dsum += (2.0 * k + 3.0) * o_term * live
        # the 1e-300 only keeps o_sum = 0 from stalling the test
        live &= ((abs(e_term) > 1e-17 * abs(e_sum))
                 | (abs(o_term) > 1e-17 * (abs(o_sum) + 1e-300)) | (k <= 4))
        if not live.any():
            break
    else:
        raise _unconverged("0", x, live)
    if derivative:
        # e_dsum is 0 at x = 0, where dE/dx = 0: any nonzero divisor will do
        return p0 * e_dsum / np.where(x == 0.0, 1.0, x) + dp0 * o_dsum
    return p0 * e_sum + dp0 * x * o_sum
