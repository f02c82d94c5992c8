"""Independent reference implementations used only by the tests.

Nothing here imports the package under test.  Each oracle is written with a
deliberately different mechanism from the production code (lgamma-based fixed
series instead of adaptive ratio recurrences, a shunting-yard evaluator
instead of recursive descent) so a shared bug would have to be a shared idea,
not shared code.  The one exception is the Gauss-Magnus step, kept verbatim in
its earlier stacked-commutator form as the bit-for-bit reference of the
closed-form step that replaced it.
"""

from __future__ import annotations

import cmath
import math
import re

import numpy as np

# ---------------------------------------------------------------------------
# special functions


def bessel_j_series(nu: float, x: float, terms: int = 40) -> float:
    """Fixed 40-term ascending series; valid for x <= ~10, nu >= 0.

    Summed in numpy longdouble (80-bit on this platform) because the series
    alternates with terms up to ~700 while the sum is O(1) near x=10; plain
    double accumulation would cost ~2e-12 right where the comparison
    tolerance sits.
    """
    import numpy as np
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    half = np.longdouble(x) / 2
    term = np.exp(np.longdouble(nu) * np.log(half)
                  - np.longdouble(math.lgamma(1.0 + nu)))
    total = term
    neg_q = -half * half
    for k in range(1, terms):
        term = term * neg_q / (np.longdouble(k) * (np.longdouble(k + nu)))
        total += term
    return float(total)


def legendre_p_series(lam_lam1: float, x: float, terms: int = 40) -> float:
    """Hypergeometric series about x=1 in z=(1-x)/2; valid for x >= ~0.1.

    Consumes lambda*(lambda+1) directly, which is real for both real and
    conical degrees; term ratio is (k(k+1) - L) z / (k+1)^2.
    """
    z = 0.5 * (1.0 - x)
    term = 1.0
    vals = [1.0]
    for k in range(terms):
        term *= (k * (k + 1.0) - lam_lam1) * z / ((k + 1.0) ** 2)
        vals.append(term)
    return math.fsum(vals)


def legendre_p_near_minus_one(lam_lam1: float, x) -> tuple[np.ndarray, np.ndarray]:
    """P and (1 + x) dP/dx at the points x of (-1, -1/2], by the Legendre equation in s = ln((1 + x)/2).

    In w = (1 + x)/2 the equation is w(1 - w) P'' + (1 - 2w) P' + L P = 0,
    and in s = ln w it is P_ss = w (P_s - L P) / (1 - w): its right side dies
    like e^s, so P tends to A + B s, the logarithm at x = -1, and DOP853
    follows it to x = -1 + 1e-12 in a few dozen steps.  It starts at x = -1/2
    from the series about x = 1 in z = 3/4, summed to 400 terms with fsum,
    and from that series differentiated term by term.  (1 + x) dP/dx is P_s,
    which stays well conditioned where P has no logarithm (an integer degree).
    """
    import scipy.integrate
    z, t, vals, dvals = 0.75, 1.0, [1.0], []
    for k in range(400):
        t *= (k * (k + 1.0) - lam_lam1) * z / ((k + 1.0) ** 2)
        vals.append(t)
        dvals.append((k + 1.0) * t / z)
    # P_s = w dP/dw = -w dP/dz, with w = 1/4 at x = -1/2
    y0 = [math.fsum(vals), -0.25 * math.fsum(dvals)]
    s, at = np.unique(np.log(0.5 * (1.0 + np.asarray(x, dtype=float))), return_inverse=True)

    def rhs(s, y):
        w = math.exp(s)
        return [y[1], w * (y[1] - lam_lam1 * y[0]) / (1.0 - w)]

    sol = scipy.integrate.solve_ivp(rhs, (math.log(0.25), s[0]), y0, method="DOP853",
                                    t_eval=s[::-1], rtol=3e-14, atol=1e-15)
    p, p_s = sol.y[:, ::-1][:, at]
    return p, p_s


def legendre_p_mehler(nu: float, x: float) -> float:
    """P_nu(x) for a real degree nu and x in (-1, 1) by the Mehler-Dirichlet integral (DLMF 14.12.1).

    With x = cos(theta), P_nu = (sqrt 2/pi) int_0^theta cos((nu + 1/2) phi) /
    sqrt(cos phi - cos theta) dphi.  phi = theta (1 - s^2) removes the inverse
    square root at phi = theta, and cos phi - cos theta is taken as the product
    2 sin((theta + phi)/2) sin(theta s^2/2), so quad meets a smooth integrand.
    Its accuracy does not depend on the degree, unlike any series in x; away
    from x = -1, where the integrand peaks, it is about 1e-15.
    """
    import scipy.integrate
    th = math.acos(x)

    def f(s):
        if s == 0.0:
            return 2.0 * math.sqrt(th / math.sin(th))
        phi = th * (1.0 - s * s)
        return 2.0 * th * s * math.cos((nu + 0.5) * phi) / math.sqrt(
            2.0 * math.sin(0.5 * (th + phi)) * math.sin(0.5 * th * s * s))

    v, _ = scipy.integrate.quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400)
    return math.sqrt(2.0) / math.pi * v


# ---------------------------------------------------------------------------
# reference propagators


def free_kernel(mu: float, t_span: float, q_a: float, q_b: float) -> complex:
    pref = cmath.sqrt(mu / (2j * math.pi * t_span))
    return pref * cmath.exp(1j * mu * (q_b - q_a) ** 2 / (2.0 * t_span))


def mehler_kernel(mu: float, w0: float, t_span: float,
                  q_a: float, q_b: float) -> complex:
    """Constant-frequency oscillator propagator in its textbook trig form.

    Past n = floor(w0 T / pi) focal points the prefactor is
    e^{-i pi/4 - i n pi/2} sqrt(mu w0 / (2 pi |sin w0 T|)): the principal
    root below, negated when n mod 4 is 1 or 2.
    """
    s = math.sin(w0 * t_span)
    c = math.cos(w0 * t_span)
    pref = cmath.sqrt(mu * w0 / (2j * math.pi * s))
    if math.floor(w0 * t_span / math.pi) % 4 in (1, 2):
        pref = -pref
    phase = mu * w0 * ((q_a * q_a + q_b * q_b) * c - 2.0 * q_a * q_b) / (2.0 * s)
    return pref * cmath.exp(1j * phase)


def free_gaussian(q, t: float, mu: float = 1.0, sigma: float = 1.0):
    """Spreading of the (qbar=0, kbar=0, sigma) Gaussian under H = p^2/(2 mu)."""
    import numpy as np
    s = 1.0 + 1j * t / (2.0 * mu * sigma * sigma)
    return ((2.0 * math.pi * sigma * sigma) ** -0.25 / np.sqrt(s)
            * np.exp(-np.asarray(q) ** 2 / (4.0 * sigma * sigma * s)))


def gaussian_through_kernel(u_b: float, udot_b: float, v_b: float, vdot_b: float,
                            pref: complex, qbar: float, kbar: float, sigma: float,
                            q, mu: float = 1.0):
    """The (qbar, kbar, sigma) Gaussian pushed through the endpoint kernel

        K = pref exp(i mu / (2 v_b) (vdot_b q^2 + u_b q_a^2 - 2 q_a q))

    by the Gaussian integral over q_a, in the form propagate_kernel used
    before its thawed-Gaussian route: it divides by v_b, so it is a
    reference only away from focal points.
    """
    a = 1j * 0.5 * mu * u_b / v_b - 1.0 / (4.0 * sigma ** 2)
    b = qbar / (2.0 * sigma ** 2) + 1j * kbar + 1j * (-mu / v_b) * np.asarray(q)
    c0 = -qbar ** 2 / (4.0 * sigma ** 2)
    amp = pref * (2.0 * math.pi * sigma ** 2) ** -0.25 * cmath.sqrt(math.pi / -a)
    return amp * np.exp(1j * 0.5 * mu * vdot_b / v_b * np.asarray(q) ** 2 + c0 - b ** 2 / (4.0 * a))


def invariant_phase(omega2, t_a: float, t_b: float, kicks=()):
    """u, u', v, v' at t_b and the phase theta_b of z = u + i Omega v, Omega = 1,
    by DOP853 on (Re z, Im z, Re z', Im z', theta) at rtol 1e-12.

    rho = |z| solves the Ermakov-Pinney equation rho'' + omega^2 rho =
    Omega^2 / rho^3 and never vanishes, and theta = arg z obeys theta' =
    Omega / rho^2 (Pinney, Proc. Amer. Math. Soc. 1, 681 (1950); Lewis and
    Riesenfeld, J. Math. Phys. 10, 1458 (1969)).  v = rho_a rho sin(theta) /
    Omega, so v vanishes where theta passes a multiple of pi: the focal count
    on (t_a, t_b) is floor(theta_b / pi), with no sign scan.  omega2 is a float
    function of a float t; kicks lists (t0, s) with t_a < t0 < t_b, each
    f' -> f' - s f, so a kick of strength 0 only restarts the solve (at a knot).
    """
    import scipy.integrate
    y, lo = np.array([1.0, 0.0, 0.0, 1.0, 0.0]), t_a
    for hi, s in sorted(kicks) + [(t_b, 0.0)]:
        left = math.nextafter(hi, -math.inf)  # each segment sees omega^2 left of its end

        def rhs(t, y, left=left):
            w2 = omega2(min(t, left))
            return [y[2], y[3], -w2 * y[0], -w2 * y[1], 1.0 / (y[0] * y[0] + y[1] * y[1])]

        y = scipy.integrate.solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
        y[2:4] -= s * y[:2]
        lo = hi
    return y[0], y[2], y[1], y[3], y[4]


# ---------------------------------------------------------------------------
# Gauss-Magnus step, as tdho.classical computed it with stacked commutators

_GAUSS = np.array([-math.sqrt(0.15), 0.0, math.sqrt(0.15)])  # Gauss nodes, from a step's midpoint per unit length


def _comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] of traceless 2x2 matrices stored as rows (a, b, c) = [[a, b], [c, -a]]."""
    return np.stack([x[1] * y[2] - y[1] * x[2], 2.0 * (x[0] * y[1] - y[0] * x[1]),
                     2.0 * (y[0] * x[2] - x[0] * y[2])])


def _magnus(profile: FrequencyProfile, t0: np.ndarray, t1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sixth-order Gauss Magnus steps of y' = [[0, 1], [-omega^2, 0]] y from t0 to t1.

    Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 151 (2009): omega^2 is
    evaluated at each step's three Gauss nodes, in one array call, and never
    at its ends.  Returns the step matrices, shape (n, 2, 2), and the largest
    |omega^2| at each step's nodes.
    """
    h = t1 - t0
    wl, wm, wr = np.broadcast_to(profile.smooth_omega_squared(
        0.5 * (t0 + t1) + np.multiply.outer(_GAUSS, h)), (3,) + h.shape)
    zero = np.zeros_like(h)
    a1 = np.stack([zero, h, -h * wm])
    a2 = np.stack([zero, zero, -(math.sqrt(15.0) / 3.0) * h * (wr - wl)])
    a3 = np.stack([zero, zero, -(10.0 / 3.0) * h * (wr - 2.0 * wm + wl)])
    c1 = _comm(a1, a2)
    c2 = _comm(a1, 2.0 * a3 + c1) / -60.0
    a, b, c = a1 + a3 / 12.0 + _comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    # Omega is traceless: exp(Omega) = cosh(r) I + (sinh(r) / r) Omega with
    # r^2 = -det Omega, cos and sin for r^2 < 0; its determinant is 1
    d = a * a + b * c
    r = np.sqrt(np.abs(d))
    ch = np.where(d < 0, np.cos(r), np.cosh(r))
    sh = np.where(r > 0, np.where(d < 0, np.sin(r), np.sinh(r)) / np.where(r > 0, r, 1.0), 1.0)
    mats = np.stack([ch + sh * a, sh * b, sh * c, ch - sh * a], axis=-1)
    return mats.reshape(h.shape + (2, 2)), np.max(np.abs([wl, wm, wr]), axis=0)


# ---------------------------------------------------------------------------
# shunting-yard expression evaluator

def _sech(x: float) -> float:
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


_SY_FUNCS = {
    "sin": (1, math.sin), "cos": (1, math.cos), "exp": (1, math.exp),
    "log": (1, math.log), "sqrt": (1, math.sqrt), "tanh": (1, math.tanh),
    "cosh": (1, math.cosh), "sech": (1, _sech), "abs": (1, abs),
    "pow": (2, math.pow),
}

_SY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "u-": 3, "^": 4}
_SY_RIGHT = {"u-", "^"}

_SY_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _sy_tokens(src: str):
    pos = 0
    out = []
    while pos < len(src):
        m = _SY_TOKEN.match(src, pos)
        if m is None:
            if not src[pos:].strip():
                break
            raise ValueError(f"bad character at {pos}")
        if m.group("num") is not None:
            out.append(("num", m.group("num")))
        elif m.group("ident") is not None:
            out.append(("ident", m.group("ident")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


def _sy_rpn(src: str):
    """Dijkstra's shunting yard; '-' is unary after '(' ',' an operator or at start.

    Unary minus is prefix, so it never pops on push; that single rule gives
    -t^2 == -(t^2) and t^-2 == t^(-2) simultaneously.
    """
    tokens = _sy_tokens(src)
    output = []
    stack = []  # operators, "(", or ("func", name)
    prev = None
    for i, (kind, text) in enumerate(tokens):
        if kind == "num":
            output.append(("num", float(text)))
        elif kind == "ident":
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            if text in _SY_FUNCS and nxt == ("op", "("):
                stack.append(("func", text))
            else:
                output.append(("var", text))
        elif text == "(":
            stack.append("(")
        elif text == ",":
            while stack and stack[-1] != "(":
                output.append(("op", stack.pop()))
            if not stack:
                raise ValueError("comma outside call")
        elif text == ")":
            while stack and stack[-1] != "(":
                output.append(("op", stack.pop()))
            if not stack:
                raise ValueError("unbalanced ')'")
            stack.pop()
            if stack and isinstance(stack[-1], tuple) and stack[-1][0] == "func":
                output.append(("call", stack.pop()[1]))
        else:
            op = text
            unary_pos = prev is None or prev == ("op", "(") or prev == ("op", ",") \
                or (prev[0] == "op" and prev[1] in "+-*/^")
            if op == "-" and unary_pos:
                stack.append("u-")  # prefix: nothing to resolve, just push
            else:
                p = _SY_PREC[op]
                while stack and isinstance(stack[-1], str) and stack[-1] != "(":
                    q = _SY_PREC[stack[-1]]
                    if q > p or (q == p and op not in _SY_RIGHT):
                        output.append(("op", stack.pop()))
                    else:
                        break
                stack.append(op)
        prev = (kind, text)
    while stack:
        top = stack.pop()
        if top == "(":
            raise ValueError("unbalanced '('")
        output.append(("op", top) if isinstance(top, str) else ("call", top[1]))
    return output


def shunting_yard_eval(src: str, t: float, constants: dict | None = None) -> float:
    """Evaluate src at time t; raises on malformed input or non-finite values."""
    constants = constants or {}
    stack = []
    for kind, val in _sy_rpn(src):
        if kind == "num":
            stack.append(val)
        elif kind == "var":
            if val == "t":
                stack.append(float(t))
            elif val in constants:
                stack.append(float(constants[val]))
            else:
                raise ValueError(f"unknown identifier {val!r}")
        elif kind == "call":
            arity, fn = _SY_FUNCS[val]
            args = [stack.pop() for _ in range(arity)][::-1]
            stack.append(fn(*args))
        elif val == "u-":
            stack.append(-stack.pop())
        else:
            b = stack.pop()
            a = stack.pop()
            if val == "+":
                stack.append(a + b)
            elif val == "-":
                stack.append(a - b)
            elif val == "*":
                stack.append(a * b)
            elif val == "/":
                stack.append(a / b)
            else:
                stack.append(math.pow(a, b))
    if len(stack) != 1:
        raise ValueError("malformed expression")
    if not math.isfinite(stack[0]):
        raise ArithmeticError(f"non-finite result {stack[0]!r}")
    return stack[0]
