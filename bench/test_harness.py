"""Tests of the benchmark itself: its checker, its span arithmetic, its metric names.

    PYTHONPATH=src python3 -m pytest bench/test_harness.py -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from reference import (FAIL, KERNEL_RTOL, KNOWN_DEFECT, PASS, PairRef,  # noqa: E402
                       classify_packet, classify_values, gaussian_ref,
                       kernel_ref)
from workloads import check_request, generate  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def requests():
    return generate("propagator-requests", 7)


def _exact_output(op) -> dict:
    """What a correct program returns for a request, built from the reference."""
    s, r = op.spec, op.ref
    qa, qb = np.array(s["points"]).T
    k = kernel_ref(r["pair"], s["t_b"], qa, qb)
    out = {"robust": [[z.real, z.imag] for z in k], "drift": 1e-12}
    if s["eq17"] is not None:
        out["eq17"] = ({"raised": "CausticInWindow", "t_zero": r["zeros"][0]} if r["zeros"]
                       else {"value": [k[0].real, k[0].imag]})
    return out


def test_checker_accepts_reference_values(requests):
    assert all(check_request(op, _exact_output(op))[0] == PASS for op in requests)


@pytest.mark.parametrize("factor", [-1.0, 1.0 + 1e-4, 1j])
def test_checker_fails_sign_flipped_or_perturbed_kernel(requests, factor):
    for op in requests:
        out = _exact_output(op)
        out["robust"] = [[(complex(*z) * factor).real, (complex(*z) * factor).imag] for z in out["robust"]]
        outcome, _ = check_request(op, out)
        assert outcome != PASS
        # only a pure sign flip at n = 1, 2 (mod 4) carries the known-defect label
        want_known = factor == -1.0 and op.ref["n"] % 4 in (1, 2)
        assert (outcome == KNOWN_DEFECT) == want_known


def test_checker_fails_eq17_off_reference(requests):
    op = next(op for op in requests if op.spec["eq17"] is not None and not op.ref["zeros"])
    out = _exact_output(op)
    out["eq17"]["value"][1] *= 1 + 1e-4
    assert check_request(op, out)[0] == FAIL


def test_checker_fails_missed_caustic(requests):
    op = next(op for op in requests if op.spec["eq17"] is not None and op.ref["zeros"])
    out = _exact_output(op)
    out["eq17"] = {"value": out["robust"][0]}
    assert check_request(op, out)[0] == FAIL


def test_mehler_reference_carries_maslov_sign():
    # K(0.3 -> -0.2) for omega = 1 against the textbook Mehler kernel with
    # the sign of sin(T) absorbed into the focal count
    for T in (1.0, 4.0, 7.0, 10.0, 13.0):
        pair = PairRef({"type": "constant", "omega0": 1.0}, 0.0, T)
        n = int(T // np.pi)
        s = np.sin(T)
        mehler = np.sqrt(1 / (2 * np.pi * abs(s))) * np.exp(-1j * np.pi / 4 - 1j * np.pi * n / 2) * \
            np.exp(1j / (2 * s) * ((0.09 + 0.04) * np.cos(T) + 2 * 0.06))
        assert abs(kernel_ref(pair, T, 0.3, -0.2) - mehler) < 1e-12


def test_numeric_reference_matches_closed_form():
    spec = {"type": "sech_squared", "alpha": 1e-9, "beta": 1.0, "t0": 0.0}  # free particle
    pair = PairRef(spec, 0.0, 2.0)
    u, ud, v, vd = pair.state(2.0)[:, 0]
    assert abs(u - 1) < 1e-9 and abs(v - 2) < 1e-9 and abs(vd - 1) < 1e-9


def test_packet_checker_fails_flip_and_perturbation():
    pair = PairRef({"type": "constant", "omega0": 1.0}, 0.0, 4.0)
    q = np.linspace(-8, 8, 512)
    ref = gaussian_ref(pair, 4.0, q, 0.5, 0.3, 0.7)
    dq = q[1] - q[0]
    assert abs(np.sqrt(dq * np.sum(abs(ref) ** 2)) - 1) < 1e-6  # unitary
    assert classify_packet(ref, ref, dq, 1, 1e-6) == PASS
    assert classify_packet(-ref, ref, dq, 1, 1e-6) == KNOWN_DEFECT
    assert classify_packet(-ref, ref, dq, 0, 1e-6) == FAIL
    assert classify_packet(ref * np.exp(1e-3j * q), ref, dq, 1, 1e-6) == FAIL
    assert classify_values(np.array([np.nan]), np.array([1.0]), 0, KERNEL_RTOL) == FAIL


def _spans(rows):
    """rows: (name, start, end, parent, op, count)."""
    names = sorted({r[0] for r in rows})
    return {"names": np.array(names), "name": np.array([names.index(r[0]) for r in rows]),
            "start": np.array([r[1] for r in rows], float), "end": np.array([r[2] for r in rows], float),
            "parent": np.array([r[3] for r in rows]), "op": np.array([r[4] for r in rows]),
            "count": np.array([r[5] for r in rows]), "size": np.zeros(len(rows), int),
            "flag": np.zeros(len(rows), np.int8)}


def test_self_time_on_synthetic_tree():
    rows = [
        ("op", 0.0, 10.0, -1, 0, 1),                  # 0: 10 - (5 + 2) = 3 uncovered
        ("classical.solve", 1.0, 6.0, 0, 0, 1),       # 1: 5 - 1 - 1 = 3
        ("freq_profile.omega2", 2.0, 3.0, 1, 0, 1),   # 2: 1 (its nested call is 0.5)
        ("freq_profile.omega2", 2.25, 2.75, 2, 0, 1),  # 3: 0.5, not an outer call
        ("classical.state", 4.0, 5.0, 1, 0, 7),       # 4: 1
        ("kernel.robust", 7.0, 9.0, 0, 0, 1),         # 5: 2
        ("op", 10.0, 11.0, -1, 1, 1),                 # 6: a second op, all uncovered
    ]
    spans = _spans(rows)
    selfs = tracing.self_times(spans["start"], spans["end"], spans["parent"])
    assert np.allclose(selfs, [3.0, 3.0, 0.5, 0.5, 1.0, 2.0, 1.0])
    m, diag = tracing.aggregate(spans)
    assert m["classical.solve.self_ms"] == pytest.approx(3000.0)
    assert m["freq_profile.self_ms"] == pytest.approx(1000.0)
    assert m["freq_profile.calls"] == 1 and m["freq_profile.points"] == 1
    assert m["classical.state.points"] == 7
    assert m["kernel.robust.self_ms"] == pytest.approx(2000.0)
    assert diag["uncovered_ms"] == pytest.approx(4000.0)
    assert diag["identity_residual_ms"] == pytest.approx(0.0, abs=1e-9)


def test_n_exponent_recovers_power_law():
    sizes = np.repeat([256, 512, 1024], 3)
    assert tracing.n_exponent(sizes, 1e-6 * sizes ** 2.0) == pytest.approx(2.0)
    assert tracing.n_exponent([512, 512], [1.0, 2.0]) == 0.0


def test_metric_names_match_benchmark_json():
    res = {"latencies": [[0.01, 0.02, 0.03]] * 3, "calibration": [[2e-3] * 3] * 3, "peak_rss_mb": 90.0,
           "traced": {"latencies": [0.02, 0.03, 0.04], "calibration": [2e-3] * 3}}
    e2e = run.end_to_end([1.0, 1.2], res)
    spans = _spans([("op", 0.0, 1.0, -1, 0, 1)])
    layer, _ = run.per_layer(spans, res, BENCH / "no-such-dir")
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]
    assert layer["trace.overhead_ratio"]["value"] == pytest.approx(1.5)
    for group, printed in (("end_to_end", e2e), ("per_layer", layer)):
        for m in SPEC[group]:
            assert NAME.match(m["name"]) and printed[m["name"]]["unit"] == m["unit"]


def test_traced_run_end_to_end(tmp_path):
    """One short traced run: last line is the contract's JSON, names as declared."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "cli-runs",
                           "--seed", "3", "--seconds", "0.1", "--trace", "1"],
                          capture_output=True, text=True, timeout=300, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] > 0  # the seed defects show
    assert list(last["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
