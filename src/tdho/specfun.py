"""Special functions needed by the closed-form solution catalog.

Only what the catalog uses, nothing more: the gamma function and Bessel J of
real order nu >= 0 (both from scipy.special), and Legendre P on (-1, 1] for
real degree or conical degree lambda = -1/2 + i*mu.  bessel_j, legendre_p and
legendre_p_dx take x as a float or an ndarray and return a real float or an
array of x's shape; the conical case is real-valued on (-1, 1) even though
the degree is complex.

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

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = ["gamma", "bessel_j", "LegendreDegree", "legendre_p", "legendre_p_dx"]


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


@dataclass(frozen=True)
class LegendreDegree:
    """Degree of a Legendre function: real nu, or conical -1/2 + i*mu.

    Exactly one flavor is active.  Everything downstream only consumes
    lambda*(lambda+1), which is real in both cases.
    """

    kind: str    # "real" or "conical"
    param: float  # nu, or mu

    def __post_init__(self):
        if self.kind not in ("real", "conical"):
            raise DomainError(f"degree kind must be 'real' or 'conical', got {self.kind!r}")
        if not math.isfinite(self.param):
            raise DomainError("degree must be finite" if self.kind == "real"
                              else "conical parameter must be finite")

    @classmethod
    def real(cls, nu: float) -> "LegendreDegree":
        return cls("real", float(nu))

    @classmethod
    def conical(cls, mu: float) -> "LegendreDegree":
        return cls("conical", float(mu))

    @property
    def lam_lam1(self) -> float:
        """lambda*(lambda+1)."""
        if self.kind == "real":
            return self.param * (self.param + 1.0)
        return -(self.param * self.param + 0.25)

    def half_degree_gammas(self) -> tuple[float, float]:
        """(P(0), P'(0)) of this degree, from the standard gamma-factor values."""
        root_pi = math.sqrt(math.pi)
        if self.kind == "conical":
            # arguments come in conjugate pairs, so both products are |.|^2
            g_even = special.gamma(complex(0.75, 0.5 * self.param))
            g_odd = special.gamma(complex(0.25, 0.5 * self.param))
            p0 = root_pi / (g_even.real ** 2 + g_even.imag ** 2)
            dp0 = -2.0 * root_pi / (g_odd.real ** 2 + g_odd.imag ** 2)
            return p0, dp0
        nu = self.param
        p0 = root_pi * special.rgamma(0.5 * nu + 1.0) * special.rgamma(0.5 - 0.5 * nu)
        dp0 = -2.0 * root_pi * special.rgamma(0.5 * nu + 0.5) * special.rgamma(-0.5 * nu)
        return p0, dp0


_MAX_TERMS = 200000


def legendre_p(degree: LegendreDegree, x: float | np.ndarray) -> float | np.ndarray:
    """Legendre/conical P_degree(x) on (-1, 1]."""
    return _legendre(degree, x, derivative=False)


def legendre_p_dx(degree: LegendreDegree, x: float | np.ndarray) -> float | np.ndarray:
    """d/dx of P_degree at x, same domain and method split as legendre_p."""
    return _legendre(degree, x, derivative=True)


def _legendre(degree: LegendreDegree, x: float | np.ndarray, derivative: bool):
    xs = np.asarray(x, dtype=float)
    bad = xs[~((-1.0 < xs) & (xs <= 1.0))]
    if bad.size:
        raise DomainError(f"argument must lie in (-1, 1], got x={bad[0]}")
    if xs.ndim == 0:
        # the same loop on a numpy scalar, not on a one-element array (a
        # plain float has no live.any())
        x0 = np.float64(xs)
        out = (_about_one if x0 > 0.0 else _about_zero)(degree, x0, derivative)
        return np.asarray(out, dtype=float) if isinstance(x, np.ndarray) else float(out)
    out = np.empty(xs.shape)
    right = xs > 0.0
    out[right] = _about_one(degree, xs[right], derivative)
    out[~right] = _about_zero(degree, xs[~right], derivative)
    return out if isinstance(x, np.ndarray) else float(out)


def _about_one(degree: LegendreDegree, x, derivative: bool):
    L = degree.lam_lam1
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
    raise DomainError(f"legendre series about x=1 did not converge (z={z})")


def _about_zero(degree: LegendreDegree, x, derivative: bool):
    L = degree.lam_lam1
    p0, dp0 = degree.half_degree_gammas()
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
        raise DomainError(f"legendre series about x=0 did not converge (x={x})")
    if derivative:
        # e_dsum is 0 at x = 0, where dE/dx = 0: any nonzero divisor will do
        return p0 * e_dsum / np.where(x == 0.0, 1.0, x) + dp0 * o_dsum
    return p0 * e_sum + dp0 * x * o_sum
