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
the complex parameters of the conical case.  Every value is built from one
Gauss series F(a, b; c; w) (DLMF 15.2.1), whose (a + k)(b + k) is a real
quadratic in k driven only by lambda*(lambda+1), so the conical case never
leaves real arithmetic.  For x > 0 that series is taken about x = 1 in
w = (1 - x)/2.  For x <= 0 it converges too slowly, so the function is
continued through x = 0 with the even/odd solutions of the Legendre equation,
quadratically transformed series in w = x^2, joined with the exact values of
P and dP/dx at 0 built from gamma factors.  legendre_p_dx writes each
derivative as such series too, through d/dw F(a, b; c; w) = (ab/c)
F(a+1, b+1; c+1; w) (DLMF 15.5.1) and d/dx [x F(a, b; 3/2; x^2)] =
F(a, b; 1/2; x^2), so each value and each derivative is one or two series.
An array is summed in one loop over the terms; each point stops adding
terms where it alone would, so a float and an array give the same bits.
Intended accuracy 1e-10 relative for |x| <= 0.99; the x -> -1
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
    x1, x0 = xs[right], xs[~right]
    z, x2 = 0.5 * (1.0 - x1), x0 * x0
    # about x = 1: P = F(-lam, lam+1; 1; z), dP/dx = (L/2) F(1-lam, lam+2; 2; z);
    # about x = 0: P = p0 E + dp0 O with E = F(-lam/2, (lam+1)/2; 1/2; x^2) and
    # O = x F((1-lam)/2, lam/2+1; 3/2; x^2), whose derivatives are DLMF 15.5.1
    # for E and d/dx [x F(a, b; 3/2; x^2)] = F(a, b; 1/2; x^2) for O
    if derivative:
        out[right] = 0.5 * L * _series(3.0, 2.0 - L, 2.0, z, "1", x1)
        out[~right] = (-L * p0 * x0 * _series(2.5, 1.5 - 0.25 * L, 1.5, x2, "0", x0)
                       + dp0 * _series(1.5, 0.25 * (2.0 - L), 0.5, x2, "0", x0))
    else:
        out[right] = _series(1.0, -L, 1.0, z, "1", x1)
        out[~right] = (p0 * _series(0.5, -0.25 * L, 0.5, x2, "0", x0)
                       + dp0 * x0 * _series(1.5, 0.25 * (2.0 - L), 1.5, x2, "0", x0))
    return out if isinstance(x, np.ndarray) else float(out)


def _series(p: float, q: float, c: float, w: np.ndarray, about: str, x: np.ndarray) -> np.ndarray:
    """The Gauss series F(a, b; c; w) whose (a + k)(b + k) is k^2 + p k + q.

    Term k+1 is term k times (k^2 + p k + q) w / ((k + c)(k + 1)).  Each point
    of w stops adding terms once a term past the fifth falls below 1e-17 of
    its sum; about and x name the expansion and the points in the error.
    """
    term = total = 1.0
    live = True  # per point of w: still adding terms
    for k in range(_MAX_TERMS):
        term *= (k * k + p * k + q) * w / ((k + c) * (k + 1.0))
        total += term * live
        live &= (abs(term) > 1e-17 * abs(total)) | (k <= 4)
        if not live.any():
            return total
    raise DomainError(f"legendre series about x={about} did not converge in {_MAX_TERMS} terms at "
                      f"{np.count_nonzero(live)} of {x.size} points, the first x={float(x[live][0])!r}")
