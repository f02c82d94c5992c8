"""One workload in one process: set up, time the op list, optionally trace it.

Started by run.py, never by hand:

    python3 bench/worker.py --workload W --workdir DIR --seconds S --trace 0|1 [--setup-only]

DIR holds inputs.json, written by the runner.  Set-up is importing tdho,
loading the inputs, writing the CLI configs and one untimed warm-up op of each
kind; its end is reported as a CLOCK_MONOTONIC time, so the runner can
measure set-up from the moment it started this process.  Then the op list
runs in passes, one client in a closed loop, until --seconds have passed
and at least MIN_PASSES passes are done (later passes are the reruns that
the determinism checks compare against).  With --trace 1 one more pass runs with
every tdho layer wrapped.  Results go to DIR/results.json, DIR/arrays.npz
and DIR/spans.npz; the last stdout line is a small JSON status.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

import tdho
from tdho.errors import StabilityWarning

import calibrate
import ops
from tracing import OP, Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # per-op medians need three samples; the second pass is also the rerun


def _run(workload: str, spec: dict, cfg_dir: Path, out_root: Path):
    """Execute one op; returns (output for the checks, extra kept for post-processing)."""
    if workload == "propagator-requests":
        return ops.run_request(spec)
    if workload == "packet-evolution":
        return ops.run_packet(spec), None
    out = out_root / f"op{spec['id']:03d}"
    return ops.run_cli(spec, cfg_dir / f"op{spec['id']:03d}.json", out), None


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def _timed_pass(workload, specs, cfg_dir, out_root, tracer=None):
    """Run the op list once.  Each op is preceded by one calibration kernel, untimed."""
    outs, extras, lat, cal = [], [], [], []
    for spec in specs:
        cal.append(calibrate.kernel())
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.current_op = spec["id"]
            idx = tracer.open(tracer.name_id(OP))
        try:
            out, extra = _run(workload, spec, cfg_dir, out_root)
        except Exception as exc:  # recorded per op; the checks count it as a failure
            out, extra = {"error": f"{type(exc).__name__}: {exc}"}, None
        finally:
            if tracer is not None:
                tracer.close(idx)
        lat.append(time.perf_counter() - t0)
        outs.append(out)
        extras.append(extra)
    return lat, cal, outs, extras


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # the program under test must be this checkout's, never an installed copy
    if Path(tdho.__file__).resolve().parent != ROOT / "src" / "tdho":
        print(f"tdho imported from {tdho.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3
    warnings.simplefilter("error", StabilityWarning)

    wl, work = args.workload, args.workdir
    specs = json.loads((work / "inputs.json").read_text())
    cfg_dir = work / "cfg"
    if wl == "cli-runs":
        cfg_dir.mkdir(exist_ok=True)
        for spec in specs:
            text = spec.get("config_text") or json.dumps(spec["config"], indent=2) + "\n"
            (cfg_dir / f"op{spec['id']:03d}.json").write_text(text)
    seen = set()
    for spec in specs:  # warm-up: the first op of each kind
        if spec["kind"] not in seen:
            seen.add(spec["kind"])
            _run(wl, spec, cfg_dir, work / "out" / "warm")
    status = {"t_ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(status))
        return 0

    lats, cals = [], []  # one list of op latencies, and of calibration times, per pass
    first, extras = None, None
    mismatched = set()
    while len(lats) < MIN_PASSES or time.monotonic() - status["t_ready"] < args.seconds:
        out_root = work / "out" / ("first" if first is None else "rerun")
        lat, cal, outs, ex = _timed_pass(wl, specs, cfg_dir, out_root)
        lats.append(lat)
        cals.append(cal)
        if first is None:
            first, extras = outs, ex
        else:
            mismatched.update(i for i, (a, b) in enumerate(zip(first, outs)) if not _same(a, b))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # untimed follow-ups for the checks
    arrays, drift = {}, {}
    for i, (spec, out, extra) in enumerate(zip(specs, first, extras)):
        if wl == "propagator-requests" and extra is not None:
            drift[i] = float(extra.wronskian_drift)
        if wl == "packet-evolution" and isinstance(out, np.ndarray):
            arrays[f"psi{i}"] = out
            if spec["route"] == "quadrature":
                for j, psi in enumerate(ops.packet_components(spec)):
                    arrays[f"lin{i}_{j}"] = psi

    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            tlat, tcal, touts, _ = _timed_pass(wl, specs, cfg_dir, work / "out" / "trace", tracer)
            traced = {"latencies": tlat, "calibration": tcal}
        finally:
            tracer.active = False
            tracer.uninstall()
        np.savez(work / "spans.npz", **tracer.arrays())
        # tracing must not change a result
        mismatched.update(i for i, (a, b) in enumerate(zip(first, touts)) if not _same(a, b))

    np.savez(work / "arrays.npz", **arrays)
    results = {"latencies": lats, "calibration": cals, "peak_rss_mb": peak_rss_mb,
               "outputs": [o if isinstance(o, dict) else {} for o in first],
               "drift": drift, "rerun_mismatch": sorted(mismatched),
               "traced": traced,
               "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                       "scipy": scipy.__version__}}
    (work / "results.json").write_text(json.dumps(results))
    print(json.dumps(status))
    return 0


if __name__ == "__main__":
    sys.exit(main())
