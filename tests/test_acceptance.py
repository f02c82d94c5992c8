"""Twelve end-to-end checks of the shipped functionality.

Each test measures its margins, records a verdict via conftest.record_criterion
(so the terminal summary prints one PASS/FAIL line per criterion with the
measured magnitudes), and only then asserts.
"""

import hashlib
import json
import math

import numpy as np

import oracles
from conftest import PACKET, SEED, SUITE, WINDOW, record_criterion
from tdho.classical import (SolutionCurve, closed_form, solve_fundamental,
                            verify_solution)
from tdho.cli import main
from tdho.errors import CausticInWindow
from tdho.evolve import (compare, crank_nicolson, propagate_kernel,
                         time_sliced_oracle, uniform_grid)
from tdho.freq_profile import Constant, DeltaPulse, ExpDecay, PowerLaw, SechSquared
from tdho.kernel import kernel_eq17, kernel_robust, schrodinger_residual
from tdho.specfun import LegendreDegree, bessel_j, legendre_p

COS = SolutionCurve(lambda t: math.cos(t), lambda t: -math.sin(t), "cos")
ONE = SolutionCurve(lambda t: 1.0, lambda t: 0.0, "1")


def grade(num: int, title: str, passed, detail: str = "") -> None:
    record_criterion(num, title, bool(passed), detail)
    assert passed, f"criterion {num:02d}: {title} [{detail}]"


def test_c01_solution_form_kernel_vs_trig_oracle():
    prof = Constant(1.0)
    axis = np.linspace(-2.0, 2.0, 20)
    worst = 0.0
    for qa in axis:
        for qb in axis:
            got = kernel_eq17(prof, COS, 0.0, 0.5, qa, qb).k
            want = oracles.mehler_kernel(1.0, 1.0, 0.5, qa, qb)
            worst = max(worst, abs(got - want) / abs(want))
    grade(1, "solution-form kernel vs trigonometric oracle (20x20, T=0.5)",
          worst <= 1e-9, f"worst rel {worst:.2e}, tol 1e-9")


def test_c02_free_propagator():
    free = Constant(0.0)
    pair = solve_fundamental(free, 0.0, 1.0)
    axis = np.linspace(-2.0, 2.0, 20)
    worst = 0.0
    for qa in axis:
        for qb in axis:
            want = oracles.free_kernel(1.0, 1.0, qa, qb)
            a = kernel_eq17(free, ONE, 0.0, 1.0, qa, qb).k
            b = kernel_robust(pair, qa, qb).k
            worst = max(worst, abs(a - want) / abs(want),
                        abs(b - want) / abs(want))
    mod = kernel_eq17(free, ONE, 0.0, 1.0, 0.3, -0.7).modulus
    mod_err = abs(mod - 0.3989422804)
    grade(2, "free propagator, both kernel forms (T=1)",
          worst <= 1e-12 and mod_err <= 5e-11,
          f"worst rel {worst:.2e} (tol 1e-12); |K|={mod:.10f} vs 0.3989422804")


def test_c03_closed_form_catalog_audit():
    # three exact entries must pass with second-order refinement, the two
    # heuristic entries must fail with quantified magnitudes
    cases = [
        (Constant(0.8), (0.0, 1.0), 3e-3, True),
        (ExpDecay(1.0, 1.0), (0.0, 2.0), 1e-2, True),
        (PowerLaw(0.8, 1.0, 1.0), (0.2, 1.2), 1e-2, True),
        (DeltaPulse(1.0, 0.5), (0.0, 1.0), 1e-2, False),
        (SechSquared(2.0, 1.0, 0.5), (0.0, 1.0), 1e-2, False),
    ]
    verdicts, details = [], []
    for prof, window, h, should_pass in cases:
        rep = verify_solution(prof, closed_form(prof), window, h=h)
        ok = rep.passed == should_pass
        if should_pass:
            ok = ok and abs(rep.slope - 2.0) <= 0.1
            details.append(f"{type(prof).__name__} PASS slope {rep.slope:.2f}")
        else:
            mags = f"residual {rep.max_residual:.2g}"
            if rep.jump_mismatches:
                mags += f", jump {rep.jump_mismatches[0][1]:.2g}"
            details.append(f"{type(prof).__name__} FAIL {mags}")
        verdicts.append(ok)
    grade(3, "closed-form catalog audit (3 pass, 2 fail with magnitudes)",
          all(verdicts), "; ".join(details))


def test_c04_initial_condition_independence():
    rng = np.random.default_rng(SEED)
    ts = np.linspace(*WINDOW, 201)
    worst = 0.0
    n_cases = 0
    for prof in SUITE:
        pair = solve_fundamental(prof, *WINDOW)
        ref_curve = pair.combination(1.0, 0.0)
        n = 0
        while n < 50:
            fa, fda = rng.uniform(-2.0, 2.0, size=2)
            curve = pair.combination(fa, fda)
            vals = curve.f(ts)
            if np.min(np.abs(vals)) < 0.05 * np.max(np.abs(vals)):
                continue  # too close to a zero: not caustic-free
            n += 1
            qa, qb = rng.uniform(-1.5, 1.5, size=2)
            a = kernel_eq17(prof, curve, *WINDOW, qa, qb, check=False).k
            b = kernel_eq17(prof, ref_curve, *WINDOW, qa, qb, check=False).k
            worst = max(worst, abs(a - b) / abs(b))
        n_cases += n
    grade(4, "kernel independent of solution initial data (250 random cases)",
          n_cases == 250 and worst <= 1e-8,
          f"worst rel {worst:.2e}, tol 1e-8")


def test_c05_schrodinger_residual_is_second_order():
    rng = np.random.default_rng(SEED)
    lo, hi = math.inf, -math.inf
    for prof in SUITE:
        for _ in range(10):
            qa, qb = rng.uniform(-1.5, 1.5, size=2)
            r1 = schrodinger_residual(prof, *WINDOW, qa, qb, h_t=2e-2, h_q=2e-2)
            r2 = schrodinger_residual(prof, *WINDOW, qa, qb, h_t=1e-2, h_q=1e-2)
            slope = math.log2(r1 / r2)
            lo, hi = min(lo, slope), max(hi, slope)
    grade(5, "Schrodinger-equation residual is O(h^2) (5 profiles x 10 points)",
          1.8 <= lo and hi <= 2.2, f"slopes in [{lo:.3f}, {hi:.3f}], want 2.0 +/- 0.2")


def test_c06_wronskian_conservation():
    worst = 0.0
    for prof in SUITE:
        for window in (WINDOW, (0.0, 2.0)):
            worst = max(worst, solve_fundamental(prof, *window).wronskian_drift)
    grade(6, "Wronskian drift at 100 sample times per solve",
          worst <= 1e-9, f"worst {worst:.2e}, tol 1e-9")


def test_c07_three_method_agreement():
    grid = uniform_grid(-8.0, 8.0, 32768)
    p0 = PACKET.on_grid(grid)
    worst = 0.0
    ratios = []
    for prof in SUITE:
        rk = propagate_kernel(prof, p0, 1.0)
        rc = crank_nicolson(prof, p0, 1.0, 1.0, 1e-3)
        r256 = time_sliced_oracle(prof, p0, 1.0, 256)
        r128 = time_sliced_oracle(prof, p0, 1.0, 128)
        e_ks = compare(rk, r256)["l2_error"]
        worst = max(worst, compare(rk, rc)["l2_error"], e_ks,
                    compare(rc, r256)["l2_error"])
        ratios.append(compare(rk, r128)["l2_error"] / e_ks)
    halves = all(1.6 <= r <= 2.4 for r in ratios)
    grade(7, "kernel / Crank-Nicolson / time-sliced pairwise agreement (t=1)",
          worst <= 1e-3 and halves,
          f"worst L2 {worst:.2e} (tol 1e-3); halving ratios "
          f"{min(ratios):.2f}..{max(ratios):.2f} (want 2.0 +/- 20%)")


def test_c08_semigroup_composition():
    grid = uniform_grid(-8.0, 8.0, 2048)
    p0 = PACKET.on_grid(grid)
    worst = 0.0
    for prof in (Constant(0.0), Constant(1.0)):
        mid = propagate_kernel(prof, p0, 0.4)
        two_hops = propagate_kernel(prof, mid, 1.0)
        direct = propagate_kernel(prof, p0, 1.0)
        worst = max(worst, compare(two_hops, direct)["l2_error"])
    grade(8, "semigroup: a->b->c equals a->c (free and constant omega)",
          worst <= 1e-6, f"worst L2 {worst:.2e}, tol 1e-6")


def test_c09_short_time_delta_limit():
    grid = uniform_grid(-8.0, 8.0, 2048)
    p0 = PACKET.on_grid(grid)
    errs = [compare(propagate_kernel(Constant(1.0), p0, T), p0)["l2_error"]
            for T in (8e-3, 4e-3, 2e-3, 1e-3)]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    suite_worst = max(compare(propagate_kernel(prof, p0, 1e-3), p0)["l2_error"]
                      for prof in SUITE)
    grade(9, "T -> 0 returns the input packet, error decreasing with T",
          decreasing and errs[-1] <= 1e-3 and suite_worst <= 1e-3,
          f"errs(T=8,4,2,1 ms) {', '.join(f'{e:.1e}' for e in errs)}; "
          f"suite worst {suite_worst:.1e} (tol 1e-3)")


def test_c10_bessel_and_legendre():
    rng = np.random.default_rng(SEED)
    worst_j = 0.0
    for _ in range(200):
        nu = rng.uniform(0.0, 5.0)
        x = rng.uniform(0.0, 10.0)
        err = abs(bessel_j(nu, x) - oracles.bessel_j_series(nu, x))
        worst_j = max(worst_j, err / max(1.0, abs(oracles.bessel_j_series(nu, x))))
    worst_p = 0.0
    for _ in range(200):
        if rng.random() < 0.5:
            deg = LegendreDegree.real(rng.uniform(0.0, 6.0))
        else:
            deg = LegendreDegree.conical(rng.uniform(0.0, 4.0))
        # x >= 0.1 keeps the 40-term oracle tail below 1e-14; the x <= 0
        # branch is audited separately by ODE continuation in the unit tests
        x = rng.uniform(0.1, 1.0)
        want = oracles.legendre_p_series(deg.lam_lam1, x)
        err = abs(legendre_p(deg, x) - want)
        worst_p = max(worst_p, err / max(1.0, abs(want)))
    at_one = max(abs(legendre_p(d, 1.0) - 1.0) for d in
                 (LegendreDegree.real(0.5), LegendreDegree.real(3.7),
                  LegendreDegree.conical(1.3)))
    grade(10, "Bessel and Legendre vs 40-term series oracles (200 points each)",
          worst_j <= 1e-12 and worst_p <= 1e-10 and at_one <= 1e-14,
          f"J worst {worst_j:.1e} (tol 1e-12); P worst {worst_p:.1e} "
          f"(tol 1e-10); P(1)-1 {at_one:.1e}")


def test_c11_focal_point_detection_and_endpoint_form():
    prof = Constant(1.0)
    t_zero = None
    try:
        kernel_eq17(prof, COS, 0.0, 2.0, 0.3, -0.4)
    except CausticInWindow as exc:
        t_zero = exc.t_zero
    detected = t_zero is not None and abs(t_zero - math.pi / 2) <= 1e-6

    pair = solve_fundamental(prof, 0.0, 2.0)
    worst = 0.0
    for qa in np.linspace(-1.5, 1.5, 5):
        for qb in np.linspace(-1.5, 1.5, 5):
            got = kernel_robust(pair, qa, qb).k
            want = oracles.mehler_kernel(1.0, 1.0, 2.0, qa, qb)
            worst = max(worst, abs(got - want) / abs(want))
    grade(11, "interior focal point: solution form refuses, endpoint form evaluates",
          detected and worst <= 1e-9,
          f"zero located at {t_zero!r} (pi/2 +/- 1e-6); "
          f"endpoint form vs oracle worst rel {worst:.2e} (tol 1e-9)")


def test_c12_cli_determinism(tmp_path):
    configs = [
        {"task": "kernel", "profile": {"type": "constant", "omega0": 0.8},
         "window": {"t_a": 0.0, "t_b": 1.0},
         "points": {"q_a": [0.0, 0.5, -1.0], "q_b": [0.2, -0.4, 1.0]}},
        {"task": "classical",
         "profile": {"type": "exp_decay", "omega0": 1.0, "alpha": 1.0},
         "window": {"t_a": 0.0, "t_b": 1.0}, "n_samples": 41},
        {"task": "propagate", "profile": {"type": "sech_squared", "alpha": 1.0,
                                          "beta": 1.0, "t0": 0.25},
         "window": {"t_a": 0.0, "t_b": 0.5},
         "state": {"qbar": 0.0, "kbar": 0.8, "sigma": 0.6},
         "grid": {"q_min": -6.0, "q_max": 6.0, "n": 256}, "method": "kernel"},
        {"task": "validate", "profile": {"type": "constant", "omega0": 0.8},
         "window": {"t_a": 0.0, "t_b": 1.0}},
        {"task": "compare", "profile": {"type": "sech_squared", "alpha": 1.0,
                                        "beta": 1.0, "t0": 0.25},
         "window": {"t_a": 0.0, "t_b": 0.5},
         "state": {"qbar": 0.0, "kbar": 0.0, "sigma": 0.6},
         "grid": {"q_min": -6.0, "q_max": 6.0, "n": 256},
         "dt": 1e-3, "n_slices": 2, "tolerance": 0.05},
    ]
    identical = True
    n_files = 0
    for cfg in configs:
        cfg_path = tmp_path / f"{cfg['task']}.json"
        cfg_path.write_text(json.dumps(cfg))
        digests = []
        for run in ("one", "two"):
            out = tmp_path / f"{cfg['task']}-{run}"
            rc = main([cfg["task"], "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0
            digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in out.iterdir()})
        identical = identical and digests[0] == digests[1]
        n_files += len(digests[0])
    grade(12, "repeated CLI runs are byte-identical (all five subcommands)",
          identical, f"{n_files} files compared across 5 tasks x 2 runs")
