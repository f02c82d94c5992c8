"""Independent references for the benchmark's output checks.

Nothing here imports tdho.  Profiles are evaluated from their JSON specs with
plain numpy/scipy, the fundamental pair u, v comes from scipy's DOP853 at
rtol 1e-11 with impulse kicks applied between segments, and the propagator
carries the Maslov factor exp(-i pi/4 - i pi n/2), n the number of zeros of
v inside the window (Horvathy 1979; Rezende 1984).  For constant frequency
the pair is the closed-form cos/sin (Mehler kernel).

The checkers return one of three outcomes:

  PASS           the output matches the reference within its tolerance;
  KNOWN_DEFECT   the output is exactly the negated reference at a focal
                 count n = 1 or 2 (mod 4): the missing Maslov sign recorded
                 as a seed defect.  Still a failed op;
  FAIL           anything else.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

PASS = "pass"
KNOWN_DEFECT = "known_defect"
FAIL = "fail"

# kernel values: the program solves at tol 1e-10, the reference at 1e-11
KERNEL_RTOL = 1e-6

# expression templates: program source text and the same formula in numpy;
# parameters are formatted with 6 decimals so both sides use equal numbers
EXPR_TEMPLATES = {
    "sine": ("{a}*(1 + {b}*sin({c}*t))", lambda t, a, b, c: a * (1 + b * np.sin(c * t))),
    "decay": ("{a}*exp(-{b}*t) + {c}", lambda t, a, b, c: a * np.exp(-b * t) + c),
    "step": ("{a}*(1 + {b}*tanh({c}*(t - 4)))", lambda t, a, b, c: a * (1 + b * np.tanh(c * (t - 4)))),
}


def omega2_fn(spec: dict, expr_params: tuple | None = None):
    """(smooth omega^2 as a vectorised function of t, impulses as [(t0, s)]).

    Constant frequency never gets here: PairRef uses cos and sin for it."""
    kind = spec["type"]
    if kind == "exp_decay":
        w2, a = spec["omega0"] ** 2, spec["alpha"]
        return (lambda t: w2 * np.exp(-a * t)), []
    if kind == "power_law":
        c = spec["omega0"] * spec["alpha"] ** spec["beta"]
        b = spec["beta"]
        return (lambda t: c * c * np.power(t, b)), []
    if kind == "delta_pulse":
        w0, t0 = spec["omega0"], spec["t0"]
        return (lambda t: np.where(np.asarray(t) >= t0, w0 ** 4, 0.0)), [(t0, w0 ** 2)]
    if kind == "sech_squared":
        a, b, t0 = spec["alpha"], spec["beta"], spec.get("t0", 0.0)
        return (lambda t: (a / np.cosh(b * (np.asarray(t) - t0))) ** 2), []
    if kind == "tabulated":
        ts, w2s = np.asarray(spec["t"]), np.asarray(spec["omega2"])
        if spec.get("interp", "cubic") == "linear" or ts.size < 3:
            return (lambda t: np.interp(t, ts, w2s)), []
        spline = CubicSpline(ts, w2s, bc_type="not-a-knot" if ts.size >= 4 else "natural")
        return spline, []
    if kind == "expression":
        template, params = expr_params
        return (lambda t: EXPR_TEMPLATES[template][1](np.asarray(t, dtype=float), *params)), []
    raise ValueError(f"no reference for profile type {kind!r}")


class PairRef:
    """Fundamental pair u, v from t_a: rows u, u', v, v'.

    With stop_after set, integration ends at that many zeros of v (or at
    t_end), so a window can be placed between two consecutive focal points
    without integrating further than needed.  v_zeros lists the zeros found.
    """

    def __init__(self, spec: dict, t_a: float, t_end: float, expr_params=None,
                 stop_after: int | None = None):
        self.t_a, self.t_end = t_a, t_end
        self.segments = []  # (lo, hi, dense solution)
        self.kicks = {}
        if spec["type"] == "constant":
            self.w = spec["omega0"]
            zeros = [k * math.pi / self.w for k in range(1, (stop_after or 0) + 1)]
            self.v_zeros = [t_a + z for z in zeros if t_a + z <= t_end]
            return
        self.w = None
        self.v_zeros = []
        w2, impulses = omega2_fn(spec, expr_params)
        kicks = {t0: s for t0, s in impulses if t_a < t0 < t_end}
        cuts = [t_a] + sorted(kicks) + [t_end]
        y = np.array([1.0, 0.0, 0.0, 1.0])
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            # the step attached to an impulse starts at hi: see its left limit
            left = hi if hi not in kicks else math.nextafter(hi, -math.inf)

            def rhs(t, s, left=left):
                c = float(w2(min(t, left)))
                return [s[1], -c * s[0], s[3], -c * s[2]]

            def v_event(t, s):
                return s[2] if t > t_a else 1.0  # v(t_a) = 0 is the start, not a zero

            events = None
            if stop_after is not None:
                v_event.terminal = stop_after - len(self.v_zeros)
                events = v_event
            sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-11,
                            atol=1e-13, dense_output=True, events=events)
            if not sol.success:
                raise RuntimeError(f"reference solve failed on [{lo}, {hi}]")
            if events is not None:
                self.v_zeros.extend(float(z) for z in sol.t_events[0])
            self.segments.append((lo, float(sol.t[-1]), sol.sol))
            if sol.status == 1:  # reached stop_after zeros
                self.t_end = float(sol.t[-1])
                break
            y = sol.y[:, -1].copy()
            if hi in kicks:
                self.kicks[hi] = kicks[hi]
                y[1] -= kicks[hi] * y[0]
                y[3] -= kicks[hi] * y[2]

    def state(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.w is not None:
            w, x = self.w, self.w * (t - self.t_a)
            return np.stack([np.cos(x), -w * np.sin(x), np.sin(x) / w, np.cos(x)])
        if np.any(t < self.t_a - 1e-12) or np.any(t > self.t_end + 1e-12):
            raise ValueError(f"t outside the reference window [{self.t_a}, {self.t_end}]")
        out = np.empty((4, t.size))
        starts = np.array([lo for lo, _, _ in self.segments])
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1)
        for k in np.unique(idx):
            out[:, idx == k] = self.segments[k][2](t[idx == k])
        # derivatives are right-continuous at an impulse
        for t0, s in self.kicks.items():
            at = t == t0
            if np.any(at):
                out[1, at] -= s * out[0, at]
                out[3, at] -= s * out[2, at]
        return out

    def curve_zeros(self, f_a: float, fdot_a: float, t_hi: float) -> list[float]:
        """Zeros in [t_a, t_hi] of the solution f_a u + fdot_a v."""
        ts = np.linspace(self.t_a, t_hi, max(2000, int(400 * (t_hi - self.t_a))))

        def f(t):
            s = self.state(t)
            return f_a * s[0] + fdot_a * s[2]

        vals = f(ts)
        flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        return [brentq(lambda x: float(f(x)[0]), ts[i], ts[i + 1], xtol=1e-14)
                for i in flips]


def focal_count(pair: PairRef, t_b: float) -> int:
    if pair.w is not None:
        return int(math.floor(pair.w * (t_b - pair.t_a) / math.pi))
    return sum(1 for z in pair.v_zeros if z < t_b)


def kernel_ref(pair: PairRef, t_b: float, q_a, q_b, mu: float = 1.0) -> np.ndarray:
    """Maslov-corrected endpoint kernel K(q_b, t_b; q_a, t_a)."""
    u, _, v, vd = (float(x) for x in pair.state(t_b)[:, 0])
    n = focal_count(pair, t_b)
    qa, qb = np.asarray(q_a, dtype=float), np.asarray(q_b, dtype=float)
    pref = math.sqrt(mu / (2 * math.pi * abs(v))) * np.exp(-1j * math.pi / 4 - 1j * math.pi * n / 2)
    return pref * np.exp(0.5j * mu / v * (vd * qb ** 2 + u * qa ** 2 - 2 * qa * qb))


def gaussian_ref(pair: PairRef, t_b: float, q: np.ndarray, qbar: float,
                 kbar: float, sigma: float, mu: float = 1.0) -> np.ndarray:
    """The normalised Gaussian packet pushed through kernel_ref, in closed form.

    int exp(a x^2 + b x + c) dx = sqrt(pi / -a) exp(c - b^2 / (4 a)) for Re a < 0.
    """
    u, _, v, vd = (float(x) for x in pair.state(t_b)[:, 0])
    n = focal_count(pair, t_b)
    pref = math.sqrt(mu / (2 * math.pi * abs(v))) * np.exp(-1j * math.pi / 4 - 1j * math.pi * n / 2)
    norm = (2 * math.pi * sigma ** 2) ** -0.25
    a = 0.5j * mu * u / v - 1 / (4 * sigma ** 2)
    b = qbar / (2 * sigma ** 2) + 1j * kbar - 1j * mu * q / v
    c = -qbar ** 2 / (4 * sigma ** 2)
    return pref * norm * np.sqrt(np.pi / -a) * np.exp(0.5j * mu * vd / v * q ** 2 + c - b ** 2 / (4 * a))


def closed_curve_zeros(spec: dict, t_a: float, t_b: float) -> list[float]:
    """Zeros in [t_a, t_b] of the catalogue solution for constant, exp_decay, power_law.

    constant: cos(w t); exp_decay: J0((2 w/a) e^{-a t/2});
    power_law: sqrt(t/c) J_nu((2 c/(b+2)) t^{(b+2)/2}), nu = 1/(b+2).
    """
    kind = spec["type"]
    if kind == "constant":
        w = spec["omega0"]
        k0 = math.ceil(w * t_a / math.pi - 0.5)
        return [(k + 0.5) * math.pi / w for k in range(k0, 10_000)
                if (k + 0.5) * math.pi / w <= t_b]
    if kind == "exp_decay":
        w, a = spec["omega0"], spec["alpha"]
        z_of_t = lambda t: (2 * w / a) * math.exp(-0.5 * a * t)  # noqa: E731
        nu, t_of_z = 0.0, lambda z: -2.0 / a * math.log(z * a / (2 * w))  # noqa: E731
    elif kind == "power_law":
        w, a, b = spec["omega0"], spec["alpha"], spec["beta"]
        c = w * a ** b
        nu = 1.0 / (b + 2.0)
        z_of_t = lambda t: (2 * c / (b + 2)) * t ** (0.5 * (b + 2))  # noqa: E731
        t_of_z = lambda z: (z * (b + 2) / (2 * c)) ** (2.0 / (b + 2))  # noqa: E731
        if t_a == 0.0:
            return [0.0]
    else:
        raise ValueError(kind)
    z_lo, z_hi = sorted((z_of_t(t_a), z_of_t(t_b)))
    # zeros of J_nu: bracket on a fine grid in z
    zs = np.linspace(z_lo, z_hi, max(200, int(50 * (z_hi - z_lo))))
    vals = special.jv(nu, zs)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    roots = [brentq(lambda z: special.jv(nu, z), zs[i], zs[i + 1], xtol=1e-15) for i in flips]
    return sorted(t_of_z(z) for z in roots)


def classify_values(got, ref, n_focal: int, rtol: float) -> str:
    """Relative max-norm comparison of complex arrays, with the sign-defect signature."""
    got, ref = np.asarray(got), np.asarray(ref)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return FAIL
    scale = float(np.max(np.abs(ref)))
    if float(np.max(np.abs(got - ref))) <= rtol * scale:
        return PASS
    if n_focal % 4 in (1, 2) and float(np.max(np.abs(got + ref))) <= rtol * scale:
        return KNOWN_DEFECT
    return FAIL


def classify_packet(got, ref, dq: float, n_focal: int, tol: float) -> str:
    """L2 distance on the grid against tol, with the sign-defect signature."""
    got, ref = np.asarray(got), np.asarray(ref)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return FAIL
    if math.sqrt(dq * float(np.sum(np.abs(got - ref) ** 2))) <= tol:
        return PASS
    if n_focal % 4 in (1, 2) and math.sqrt(dq * float(np.sum(np.abs(got + ref) ** 2))) <= tol:
        return KNOWN_DEFECT
    return FAIL

