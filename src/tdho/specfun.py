"""Special functions needed by the closed-form solution catalog.

Only what the catalog uses: gamma and Bessel J of real order nu >= 0 (from
scipy.special), and Legendre P on (-1, 1] of a degree given as a float nu or,
in the conical case (DLMF 14.20), a complex -1/2 + i*mu, at most _MAX_TERMS
in size; any other degree raises DomainError.  bessel_j, legendre_p and
legendre_p_dx take x as a float or an ndarray and return a real float or an
array of x's shape.

Method selection
----------------
The Legendre functions are summed here because scipy.special.hyp2f1 rejects
the complex parameters of the conical case.  With a = -lambda, b = lambda + 1
and L = lambda(lambda+1), (a + k)(b + k) = k^2 + k - L is real, so no series
leaves real arithmetic.  P is F(a, b; 1; z) about x = 1, z = (1 - x)/2 (DLMF
15.2.1), or the logarithmic series for c = a + b about x = -1, w = (1 + x)/2
(DLMF 15.8.10); dP/dx is each differentiated.  Both lose digits near x = 0 as
a real degree grows, so nu = max(lambda, -1 - lambda) from 2 on takes the
recurrence in the degree (DLMF 14.10.3) from nu - floor(nu) + {0, 1} at every
x; an integer below 2 takes its terminating series about x = 1 at every x.
Any other degree takes the series about x = -1 at x <= 0 if L > 0, where the
other alternates, and at w <= min(1/10, 2/|L|) if L < 0, as 1/(G(a) G(b)) ~
e^(pi mu)/(2 pi) scales its rounding, and the series about x = 1 elsewhere.
One loop over the terms sums an array; each point stops where it alone would,
so a float and an array give the same bits.  On [-1 + 1e-12, 1] P and dP/dx
are within 1e-13 of max(1, |value|), real degrees to 30 and conical mu to 16.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = ["gamma", "bessel_j", "legendre_p", "legendre_p_dx"]
_MAX_TERMS = 200000  # terms of one Legendre series at a point, and steps of the recurrence


def gamma(z):
    """scipy.special.gamma: real in, real out (inf at the poles 0, -1, -2, ...); complex in, complex out."""
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


def _degree_terms(lam: float | complex) -> tuple[float, float, float]:
    """lambda(lambda+1), 1/(G(a) G(b)) and psi(a) + psi(b), with a = -lambda and b = lambda+1.

    All are real, as a degree _legendre accepts that is complex is conical, -1/2 + i mu.  psi takes complex
    arguments, as scipy's real psi loses digits next to its poles; an integer degree gives 0 and nan.
    """
    a, b = complex(-lam), complex(lam + 1.0)
    return ((lam * (lam + 1.0)).real, (special.rgamma(a) * special.rgamma(b)).real,
            (special.psi(a) + special.psi(b)).real)


def legendre_p(degree: float | complex, x: float | np.ndarray) -> float | np.ndarray:
    """Legendre/conical P_degree(x) on (-1, 1]."""
    return _legendre(degree, x, derivative=False)


def legendre_p_dx(degree: float | complex, x: float | np.ndarray) -> float | np.ndarray:
    """d/dx of P_degree at x, same domain and method split as legendre_p."""
    return _legendre(degree, x, derivative=True)


def _legendre(degree: float | complex, x: float | np.ndarray, derivative: bool):
    conical = isinstance(degree, complex)
    lam = complex(degree) if conical else float(degree)
    if not cmath.isfinite(lam) or (conical and lam.real != -0.5) or abs(lam) > _MAX_TERMS:
        raise DomainError(f"degree must be a finite real nu or -1/2 + i mu, got {degree!r}, of size <= {_MAX_TERMS}")
    xs = np.asarray(x, dtype=float)
    bad = xs[~((-1.0 < xs) & (xs <= 1.0))]
    if bad.size:
        raise DomainError(f"argument must lie in (-1, 1], got x={bad[0]}")
    nu = -1.0 if conical else max(lam, -1.0 - lam)
    if nu >= 2.0:  # from the degrees n - 1, n in [0, 2) by DLMF 14.10.3 and its x-derivative, all exact
        n0 = nu - math.floor(nu) + 1.0
        p0, p1 = (_legendre(m, xs, False) for m in (n0 - 1.0, n0))
        d0, d1 = (_legendre(m, xs, True) for m in (n0 - 1.0, n0)) if derivative else (None, None)
        for n in n0 + np.arange(math.floor(nu) - 1.0):
            if derivative:
                d0, d1 = d1, ((2.0 * n + 1.0) * (p1 + xs * d1) - n * d0) / (n + 1.0)
            p0, p1 = p1, ((2.0 * n + 1.0) * xs * p1 - n * p0) / (n + 1.0)
        out = np.asarray(d1 if derivative else p1)
        return out if isinstance(x, np.ndarray) else float(out)
    L, C, S = _degree_terms(lam)
    # x <= seam about x = -1, x > seam about x = 1
    seam = (0.0 if L > 0.0 else 2.0 * min(0.1, -2.0 / L) - 1.0) if math.isfinite(S) else -1.0
    left, out = xs <= seam, np.empty(xs.shape)
    z, w = 0.5 * (1.0 - xs[~left]), 0.5 * (1.0 + xs[left])
    # about x = 1: P = F(-lam, lam+1; 1; z), dP/dx = (L/2) F(1-lam, lam+2; 2; z);
    # about x = -1: P = C sum_k t_k (h_k - ln w), dP/dx = (C/2w) sum_k t_k (k (h_k - ln w) - 1)
    p, q, c, scale = (3.0, 2.0 - L, 2.0, 0.5 * L) if derivative else (1.0, -L, 1.0, 1.0)
    out[~left] = scale * _sum(_gauss(p, q, c, z), "1", xs[~left]) if scale else 0.0
    out[left] = (0.5 * C / w if derivative else C) * _sum(_log_terms(L, S, w, derivative), "-1", xs[left])
    return out if isinstance(x, np.ndarray) else float(out)


def _gauss(p: float, q: float, c: float, w: np.ndarray):
    """The terms of the Gauss series F(a, b; c; w) whose (a + k)(b + k) is k^2 + p k + q."""
    term = 1.0
    for k in itertools.count():
        yield term
        term = term * ((k * k + p * k + q) * w / ((k + c) * (k + 1.0)))


def _log_terms(L: float, S: float, w: np.ndarray, derivative: bool):
    """The terms t_k (h_k - ln w) of F(a, b; a + b; 1 - w) / C (DLMF 15.8.10), or those of its w d/dw."""
    g = -2.0 * np.euler_gamma - S - np.log(w)  # h_k - ln w, h_k = 2 psi(k+1) - psi(a+k) - psi(b+k)
    for k, t in enumerate(_gauss(1.0, -L, 1.0, w)):
        yield t * (k * g - 1.0) if derivative else t * g
        g = g + 2.0 / (k + 1.0) - (2.0 * k + 1.0) / (k * k + k - L)


def _sum(terms, about: str, x: np.ndarray) -> np.ndarray:
    """Sum terms at each point of x until one past the sixth falls below 1e-17 of its sum."""
    total, live, k = next(terms), np.ones(x.shape, bool), 0  # live per point of x: still adding terms
    while live.any():
        if k == _MAX_TERMS:
            raise DomainError(f"legendre series about x={about} did not converge in {k} terms at "
                              f"{np.count_nonzero(live)} of {x.size} points, the first x={float(x[live][0])!r}")
        term = next(terms)
        total += term * live
        live &= (abs(term) > 1e-17 * abs(total)) | (k <= 4)
        k += 1
    return total
