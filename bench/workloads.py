"""The three workloads: seeded inputs, their references and the output checks.

This module runs in the benchmark's runner process, which never imports tdho.
generate() turns a seed into a fixed op list.  Each Op carries `spec`, the
only thing the worker process (and so the program) receives, and `ref`, the
reference data that stays here.  check() grades one op's output.

Why these workloads:

  propagator-requests  the paper's core operation: one classical solve, then
      the endpoint kernel at a few points, sometimes the solution-scaled form.
      Time goes to freq_profile, classical, kernel and specfun only.
  packet-evolution     one packet through one of the four evolve routes on
      grids spanning a factor of 4, so the exponent in n shows.  Time goes
      almost entirely to evolve.
  cli-runs             the five subcommands as the README runs them, leaning
      towards output-heavy runs; CSV formatting dominates, so cli changes
      show only here, and kernel_batch is used on arrays.

Every list is stratified (profile type x focal count x route or task), so the
mix of work, and the share of ops that hit the Maslov-sign and default-slices
defects, is the same for every seed; the seed moves parameters inside each
stratum.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import (EXPR_TEMPLATES, FAIL, KERNEL_RTOL, KNOWN_DEFECT, PASS,
                       PairRef, classify_packet, classify_values,
                       closed_curve_zeros, gaussian_ref, kernel_ref)

WORKLOADS = ("propagator-requests", "packet-evolution", "cli-runs")

PROFILE_KINDS = ("constant", "exp_decay", "power_law", "delta_pulse",
                 "sech_squared", "tabulated", "expression")
CLOSED_KINDS = ("constant", "exp_decay", "power_law")
COMBINATION_KINDS = ("sech_squared", "tabulated", "expression")
HORIZON = 29.5        # windows end before this much time after t_a
MAX_FOCAL = 4         # propagator windows span 0..4 focal points: omega T < 5 pi
DRIFT_LIMIT = 1e-9    # Wronskian drift allowed on caustic-free windows

PACKET_SIZES = (256, 512, 1024)
PACKET_ROUTES = ("gaussian", "quadrature", "cn", "sliced")
PACKET_GRID = (-8.0, 8.0)
CN_DT = 4e-3
# L2 tolerances per route, each scaled by its discretization.  The closed
# form is exact up to the solve.  Filon interpolates the chirped packet by
# cubics, O(dq^4).  CN carries O(dt^2 + dq^2) per unit time.  Slicing is
# first order in the slice width.  Constants are about 5x the worst error
# seen over seeds 1-5; a sign flip (L2 distance 2) fails every route.
GAUSS_TOL = 1e-6


def quad_tol(dq: float) -> float:
    return max(1e-6, 100.0 * dq ** 4)


def cn_tol(t_span: float, dq: float, dt: float) -> float:
    return min(1.0, 8.0 * t_span * (dq ** 2 + dt ** 2))


def sliced_tol(t_span: float, n_slices: int) -> float:
    return min(1.0, 3.0 * t_span / n_slices)


# The README's own configs, byte for byte.
README_PROPAGATE = """{
  "task": "propagate",
  "profile": {"type": "sech_squared", "alpha": 1.0, "beta": 1.0, "t0": 0.5},
  "window": {"t_a": 0.0, "t_b": 1.0},
  "state": {"qbar": 0.0, "kbar": 1.0, "sigma": 0.7},
  "grid": {"q_min": -8.0, "q_max": 8.0, "n": 2048},
  "method": "kernel"
}
"""
# compare on the README grid, n_slices left at the CLI default
README_COMPARE = README_PROPAGATE.replace('"propagate"', '"compare"').replace(
    ',\n  "method": "kernel"', "")

DEFECT_MASLOV = "maslov-sign"              # ROADMAP item 1
DEFECT_SLICES = "compare-default-slices"  # ROADMAP item 5
# the RK45 solve at tol 1e-10 lets u v' - u' v drift by about 2.5e-10 per
# focal interval, so the longest caustic-free windows can pass DRIFT_LIMIT
DEFECT_DRIFT = "wronskian-drift"


@dataclass
class Op:
    kind: str                 # warm-up class: one untimed op of each kind
    spec: dict                # what the program receives
    ref: dict = field(default_factory=dict)


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def draw_profile(rng, kind: str):
    """(profile spec, t_a, expression template params or None)."""
    if kind == "constant":
        return {"type": kind, "omega0": _u(rng, 0.5, 3.0)}, 0.0, None
    if kind == "exp_decay":
        return {"type": kind, "omega0": _u(rng, 2.0, 4.0), "alpha": _u(rng, 0.05, 0.15)}, 0.0, None
    if kind == "power_law":
        spec = {"type": kind, "omega0": _u(rng, 1.0, 2.0), "alpha": _u(rng, 0.5, 1.5),
                "beta": _u(rng, -0.5, 1.0)}
        return spec, _u(rng, 0.2, 0.5), None
    if kind == "delta_pulse":
        return {"type": kind, "omega0": _u(rng, 0.8, 1.6), "t0": _u(rng, 0.3, 2.0)}, 0.0, None
    if kind == "sech_squared":
        return {"type": kind, "alpha": _u(rng, 2.5, 4.0), "beta": _u(rng, 0.1, 0.25),
                "t0": _u(rng, 3.0, 6.0)}, 0.0, None
    if kind == "tabulated":
        ts = np.linspace(0.0, 30.0, 61)
        w2 = _u(rng, 0.6, 4.0) * (1 + 0.4 * np.sin(_u(rng, 0.3, 1.0) * ts + _u(rng, 0, 2 * math.pi)))
        return {"type": kind, "t": ts.tolist(), "omega2": w2.tolist()}, 0.0, None
    if kind == "expression":
        template = ("sine", "decay", "step")[int(rng.integers(3))]
        ranges = {"sine": ((0.6, 4.0), (0.1, 0.5), (0.5, 2.0)),
                  "decay": ((1.0, 3.0), (0.05, 0.2), (0.5, 1.5)),
                  "step": ((0.6, 3.0), (0.1, 0.5), (0.5, 2.0))}[template]
        text = [f"{_u(rng, lo, hi):.6f}" for lo, hi in ranges]
        src = EXPR_TEMPLATES[template][0].format(a=text[0], b=text[1], c=text[2])
        return {"type": kind, "expr": src}, 0.0, (template, tuple(float(x) for x in text))
    raise ValueError(kind)


def frac(rep: int, reps: int) -> float:
    """Where t_b sits between two focal points, by repeat: evenly spaced over
    20-80% of the way, away from the focal points where the kernel is
    singular.  Fixed rather than drawn, so every seed has the same spread of
    window lengths and the latency percentiles do not move with the seed."""
    return 0.2 + 0.6 * (rep + 0.5) / reps


def draw_window(rng, kind: str, n_focal: int, where: float):
    """A profile and a window [t_a, t_b] with exactly n_focal zeros of v inside,
    t_b the fraction `where` of the way from the n-th to the (n+1)-th zero.
    Profiles with too few zeros before the horizon are redrawn from the same
    stream.
    """
    while True:
        spec, t_a, ep = draw_profile(rng, kind)
        pair = PairRef(spec, t_a, t_a + HORIZON, ep, stop_after=n_focal + 1)
        if len(pair.v_zeros) == n_focal + 1:
            break
    bounds = [t_a] + pair.v_zeros
    t_b = bounds[n_focal] + where * (bounds[n_focal + 1] - bounds[n_focal])
    return spec, t_a, t_b, ep, pair


# --------------------------------------------------------------- generation

def gen_propagator(rng) -> list[Op]:
    """175 requests: 7 profile types x 5 focal counts x 5 repeats.

    At focal counts 0, 2 and 4, repeat 0 of the closed-form types and repeat
    1 of three numeric types also call kernel_eq17 (9 + 9 ops), with the
    catalogue curve and with a pair.combination curve respectively.  The
    combination ops are the slowest of all, with seed-dependent cost; at 5%
    of the list they stay clear of p90, which then falls among the plain
    requests.
    """
    ops, reps = [], 5
    strata = len(PROFILE_KINDS) * (MAX_FOCAL + 1)
    for k in range(strata * reps):
        kind, n_focal, rep = PROFILE_KINDS[k % 7], (k // 7) % (MAX_FOCAL + 1), k // strata
        spec, t_a, t_b, _, pair = draw_window(rng, kind, n_focal, frac(rep, reps))
        points = rng.uniform(-2.0, 2.0, size=(3, 2)).tolist()
        eq17, zeros, op_kind = None, [], "request"
        if rep == 0 and n_focal % 2 == 0 and kind in CLOSED_KINDS:
            eq17, op_kind = {"curve": "closed"}, "eq17-closed"
            zeros = closed_curve_zeros(spec, t_a, t_b)
        elif rep == 1 and n_focal % 2 == 0 and kind in COMBINATION_KINDS:
            f_a = _u(rng, 0.5, 1.5) * (1 if rng.random() < 0.5 else -1)
            fdot_a = _u(rng, -1.5, 1.5)
            eq17, op_kind = {"curve": "combination", "f_a": f_a, "fdot_a": fdot_a}, "eq17-combination"
            zeros = pair.curve_zeros(f_a, fdot_a, t_b)
        ops.append(Op(op_kind, {"profile": spec, "t_a": t_a, "t_b": t_b,
                                "points": points, "eq17": eq17},
                      {"pair": pair, "n": n_focal, "zeros": zeros}))
    return ops


def _packet_state(rng, qlo=-1.0, qhi=1.0) -> dict:
    # |psi| at the grid edge stays below the 1e-8 GridTooNarrow limit
    return {"qbar": _u(rng, qlo, qhi), "kbar": _u(rng, -0.8, 0.8), "sigma": _u(rng, 0.55, 0.7)}


def _packet_profile(rng, kind: str, n_focal: int, where: float):
    """Near-unit frequency, so packets stay on the [-8, 8] grid and the
    window length (which sets the CN and slice work) follows the focal count."""
    if kind == "constant":
        spec = {"type": kind, "omega0": _u(rng, 0.95, 1.05)}
    else:
        spec = {"type": kind, "omega0": _u(rng, 0.97, 1.03), "t0": _u(rng, 0.2, 0.5)}
    pair = PairRef(spec, 0.0, 12.0, stop_after=n_focal + 1)
    bounds = [0.0] + pair.v_zeros
    t_b = bounds[n_focal] + where * (bounds[n_focal + 1] - bounds[n_focal])
    return spec, t_b, pair


def max_slices(t_span: float, n: int, q_min: float, q_max: float) -> int:
    """Most slices the grid resolves: span * dq * slices / t_span <= pi (mu = 1)."""
    span = q_max - q_min
    return int(math.pi * t_span / (span * span / (n - 1)))


def gen_packets(rng) -> list[Op]:
    """108 evolutions: 4 routes x 3 grid sizes x 3 focal counts x 3 repeats.

    Repeats 0 and 2 use constant frequency, repeat 1 a delta pulse.
    """
    ops = []
    for rep in range(3):
        kind = "delta_pulse" if rep == 1 else "constant"
        for n_focal in range(3):
            for n in PACKET_SIZES:
                for route in PACKET_ROUTES:
                    spec, t_b, pair = _packet_profile(rng, kind, n_focal, frac(rep, 3))
                    s = {"route": route, "profile": spec, "t_a": 0.0, "t_b": t_b,
                         "grid": [*PACKET_GRID, n]}
                    if route == "quadrature":
                        mag, arg = _u(rng, 0.3, 0.8), _u(rng, 0, 2 * math.pi)
                        s["components"] = [
                            dict(_packet_state(rng, -1.2, -0.4), c=[1.0, 0.0]),
                            dict(_packet_state(rng, 0.4, 1.2), c=[mag * math.cos(arg), mag * math.sin(arg)]),
                        ]
                    else:
                        s["state"] = _packet_state(rng)
                    if route == "cn":
                        s["dt"] = CN_DT
                    if route == "sliced":
                        s["n_slices"] = max(1, int(0.9 * max_slices(t_b, n, *PACKET_GRID)))
                    ops.append(Op(route, s, {"pair": pair, "n": n_focal}))
    return ops


# parameters of the catalogue families that `validate` grades on [0.5, 2]
VALIDATE_RANGES = {
    "constant": {"omega0": (0.5, 2.0)},
    "exp_decay": {"omega0": (0.5, 2.0), "alpha": (0.5, 1.5)},
    "power_law": {"omega0": (0.5, 1.5), "alpha": (0.5, 1.5), "beta": (0.5, 2.0)},
    "delta_pulse": {"omega0": (0.5, 1.5), "t0": (0.9, 1.4)},
    "sech_squared": {"alpha": (0.6, 1.5), "beta": (0.5, 1.5), "t0": (0.5, 2.0)},
}


def gen_cli(rng) -> list[Op]:
    """100 CLI runs: 40 kernel grids, 30 classical samplings, 15 strict
    validations (3 per closed-form family), 10 propagations (including the
    README config verbatim) and 5 compares (including the README grid with
    the default n_slices, which is predicted to succeed)."""
    ops = []
    kernel_kinds = ("constant", "sech_squared", "expression", "exp_decay", "delta_pulse")
    for k in range(40):
        n_focal = k % 5
        spec, t_a, t_b, _, pair = draw_window(rng, kernel_kinds[(k // 5) % 5], n_focal, frac(k // 20, 2))
        n = (30, 45, 60, 75)[k % 4]
        cfg = {"task": "kernel", "profile": spec, "window": {"t_a": t_a, "t_b": t_b},
               "grid": {"q_min": -2.0, "q_max": 2.0, "n": n}}
        ops.append(Op("kernel", {"config": cfg}, {"pair": pair, "n": n_focal, "t_b": t_b}))
    for k in range(30):
        spec, t_a, t_b, _, pair = draw_window(rng, PROFILE_KINDS[k % 7], k % 3, frac(k // 15, 2))
        cfg = {"task": "classical", "profile": spec, "window": {"t_a": t_a, "t_b": t_b},
               "n_samples": (1000, 3000, 6000)[k % 3]}
        ops.append(Op("classical", {"config": cfg}, {"pair": pair}))
    for k in range(15):
        kind = tuple(VALIDATE_RANGES)[k % 5]
        spec = {"type": kind, **{name: _u(rng, *r) for name, r in VALIDATE_RANGES[kind].items()}}
        cfg = {"task": "validate", "profile": spec, "window": {"t_a": 0.5, "t_b": 2.0}}
        # the catalogue's delta_pulse and sech_squared entries are quoted
        # heuristics that do not solve the equation: --strict exits 2
        ops.append(Op("validate", {"config": cfg, "strict": True},
                      {"passed": kind in CLOSED_KINDS, "exit": 0 if kind in CLOSED_KINDS else 2}))
    readme = json.loads(README_PROPAGATE)
    ops.append(Op("propagate", {"config_text": README_PROPAGATE},
                  {"pair": PairRef(readme["profile"], 0.0, 1.0), "n": 0}))
    for k in range(9):
        method = ("kernel", "crank_nicolson", "time_sliced")[k % 3]
        n_focal = k % 2
        spec, t_b, pair = _packet_profile(rng, ("constant", "delta_pulse")[k % 2], n_focal, frac(k // 3, 3))
        n = {"kernel": 1024, "crank_nicolson": 512, "time_sliced": 1024}[method]
        cfg = {"task": "propagate", "profile": spec, "window": {"t_a": 0.0, "t_b": t_b},
               "state": _packet_state(rng), "grid": {"q_min": -8.0, "q_max": 8.0, "n": n},
               "method": method}
        if method == "crank_nicolson":
            cfg["dt"] = CN_DT
        if method == "time_sliced":
            cfg["n_slices"] = max(1, int(0.9 * max_slices(t_b, n, -8.0, 8.0)))
        ops.append(Op("propagate", {"config": cfg}, {"pair": pair, "n": n_focal}))
    ops.append(Op("compare", {"config_text": README_COMPARE}, {"known": DEFECT_SLICES}))
    for k in range(4):
        spec, t_b, pair = _packet_profile(rng, ("constant", "delta_pulse")[k % 2], 0, frac(k, 4))
        cfg = {"task": "compare", "profile": spec, "window": {"t_a": 0.0, "t_b": t_b},
               "state": _packet_state(rng), "grid": {"q_min": -8.0, "q_max": 8.0, "n": 1024},
               "dt": CN_DT, "n_slices": max(1, int(0.9 * max_slices(t_b, 1024, -8.0, 8.0)))}
        ops.append(Op("compare", {"config": cfg}, {}))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def generate(workload: str, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = {"propagator-requests": gen_propagator, "packet-evolution": gen_packets,
           "cli-runs": gen_cli}[workload](rng)
    for i, op in enumerate(ops):
        op.spec["id"] = i
        op.spec["kind"] = op.kind
    return ops


# ------------------------------------------------------------------- checks

def _worst(verdicts: list[tuple[str, str]]) -> tuple[str, str]:
    for outcome in (FAIL, KNOWN_DEFECT):
        for v in verdicts:
            if v[0] == outcome:
                return v
    return PASS, ""


def _defect(outcome: str, what: str) -> tuple[str, str]:
    return outcome, (DEFECT_MASLOV if outcome == KNOWN_DEFECT else what)


def check_request(op: Op, out: dict) -> tuple[str, str]:
    if out.get("error"):
        return FAIL, out["error"]
    s, r = op.spec, op.ref
    qa, qb = np.array(s["points"]).T
    k_ref = kernel_ref(r["pair"], s["t_b"], qa, qb)
    got = np.array([complex(*z) for z in out["robust"]])
    verdicts = [_defect(classify_values(got, k_ref, r["n"], KERNEL_RTOL), "kernel_robust off reference")]
    if s["eq17"] is not None:
        e = out["eq17"]
        if r["zeros"]:
            ok = e.get("raised") == "CausticInWindow" and \
                abs(e["t_zero"] - r["zeros"][0]) <= 1e-6 * (s["t_b"] - s["t_a"])
            verdicts.append((PASS, "") if ok else (FAIL, f"eq17: expected CausticInWindow at {r['zeros'][0]}, got {e}"))
        elif "value" not in e:
            verdicts.append((FAIL, f"eq17 refused a zero-free curve: {e}"))
        else:
            val = complex(*e["value"])
            verdicts.append(_defect(classify_values([val], k_ref[:1], r["n"], KERNEL_RTOL), "eq17 off reference"))
            if abs(val - got[0]) > KERNEL_RTOL * abs(got[0]):
                verdicts.append((FAIL, "kernel_eq17 and kernel_robust disagree"))
    if s["profile"]["type"] != "constant" and r["n"] == 0 and not out["drift"] <= DRIFT_LIMIT:
        verdicts.append((KNOWN_DEFECT, DEFECT_DRIFT))
    return _worst(verdicts)


def _grid(spec_grid) -> np.ndarray:
    lo, hi, n = spec_grid
    return np.linspace(lo, hi, int(n))


def check_packet(op: Op, out: dict, arrays) -> tuple[str, str]:
    if out.get("error"):
        return FAIL, out["error"]
    s, r = op.spec, op.ref
    q = _grid(s["grid"])
    dq = q[1] - q[0]
    psi = arrays[f"psi{s['id']}"]
    route = s["route"]
    if route == "quadrature":
        comps = s["components"]
        ref = sum(complex(*c["c"]) * gaussian_ref(r["pair"], s["t_b"], q, c["qbar"], c["kbar"], c["sigma"])
                  for c in comps)
        lin = sum(complex(*c["c"]) * arrays[f"lin{s['id']}_{j}"] for j, c in enumerate(comps))
        tol = quad_tol(dq)
        verdicts = [_defect(classify_packet(psi, ref, dq, r["n"], tol), "quadrature off reference")]
        if classify_packet(psi, lin, dq, 0, tol) != PASS:
            verdicts.append((FAIL, "quadrature result is not the sum of the closed-form results"))
        return _worst(verdicts)
    st = s["state"]
    ref = gaussian_ref(r["pair"], s["t_b"], q, st["qbar"], st["kbar"], st["sigma"])
    if route == "gaussian":
        return _defect(classify_packet(psi, ref, dq, r["n"], GAUSS_TOL), "gaussian off reference")
    # CN and time slicing never compose across a focal point, so a sign
    # flip there is not the known defect: grade with n = 0
    span = s["t_b"] - s["t_a"]
    tol = cn_tol(span, dq, s["dt"]) if route == "cn" else sliced_tol(span, s["n_slices"])
    return _defect(classify_packet(psi, ref, dq, 0, tol), f"{route} off reference")


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_cli(op: Op, out: dict, first: Path, rerun: Path | None) -> tuple[str, str]:
    if out.get("error"):
        return FAIL, out["error"]
    r = op.ref
    task = op.kind
    want_exit = r.get("exit", 0)
    if out["exit"] != want_exit:
        if r.get("known") == DEFECT_SLICES and out["exit"] == 1 and \
                "cannot resolve the slice kernel" in out["stderr"]:
            return KNOWN_DEFECT, DEFECT_SLICES
        return FAIL, f"exit {out['exit']} (predicted {want_exit}): {out['stderr'].strip()[:200]}"
    manifest = json.loads((first / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        if _sha(first / name) != digest:
            return FAIL, f"manifest hash of {name} does not match the file"
    if rerun is not None:
        for f in sorted(first.iterdir()):
            if f.read_bytes() != (rerun / f.name).read_bytes():
                return FAIL, f"rerun changed the bytes of {f.name}"
    cfg = op.spec.get("config") or json.loads(op.spec["config_text"])
    if task == "kernel":
        data = np.loadtxt(first / "kernel.csv", delimiter=",", skiprows=1)
        k_ref = kernel_ref(r["pair"], r["t_b"], data[:, 0], data[:, 2])
        return _defect(classify_values(data[:, 4] + 1j * data[:, 5], k_ref, r["n"], KERNEL_RTOL),
                       "kernel.csv off reference")
    if task == "classical":
        data = np.loadtxt(first / "classical.csv", delimiter=",", skiprows=1)
        ref = r["pair"].state(data[:, 0])
        err = float(np.max(np.abs(data[:, 1:].T - ref)))
        scale = max(1.0, float(np.max(np.abs(ref))))
        return (PASS, "") if err <= 1e-6 * scale else (FAIL, f"classical.csv off reference by {err:.2e}")
    if task == "validate":
        doc = json.loads((first / "validate.json").read_text())
        if doc["report"]["passed"] != r["passed"]:
            return FAIL, f"validate graded {cfg['profile']['type']} passed={doc['report']['passed']}"
        return PASS, ""
    if task == "propagate":
        data = np.loadtxt(first / "wavepacket.csv", delimiter=",", skiprows=1)
        q, psi = data[:, 0], data[:, 1] + 1j * data[:, 2]
        st = {"qbar": 0.0, "kbar": 0.0, "sigma": 1.0, **cfg["state"]}
        ref = gaussian_ref(r["pair"], cfg["window"]["t_b"], q, st["qbar"], st["kbar"], st["sigma"])
        method = cfg["method"]
        if method == "kernel":
            return _defect(classify_packet(psi, ref, q[1] - q[0], r["n"], GAUSS_TOL), "wavepacket.csv off reference")
        span = cfg["window"]["t_b"] - cfg["window"]["t_a"]
        tol = cn_tol(span, q[1] - q[0], cfg["dt"]) if method == "crank_nicolson" \
            else sliced_tol(span, cfg["n_slices"])
        return _defect(classify_packet(psi, ref, q[1] - q[0], 0, tol), "wavepacket.csv off reference")
    return PASS, ""  # compare: exit code, hashes and rerun bytes above


def check(workload: str, op: Op, out: dict, arrays, out_dir: Path) -> tuple[str, str]:
    if workload == "propagator-requests":
        return check_request(op, out)
    if workload == "packet-evolution":
        return check_packet(op, out, arrays)
    i = op.spec["id"]
    rerun = out_dir / "rerun" / f"op{i:03d}"
    return check_cli(op, out, out_dir / "first" / f"op{i:03d}", rerun if rerun.exists() else None)
