"""tdho benchmark: one seeded workload, timed end to end, checked against references.

    python3 bench/run.py --workload propagator-requests --seed 1 --seconds 15 --trace 0

Workloads: propagator-requests, packet-evolution, cli-runs (see workloads.py
for what each exercises and why).  Run from a checkout's root; the program
under test is the checkout's src/tdho, so no install is needed.

This runner never imports tdho.  It generates the op list from --seed,
computes the references, starts worker processes (one at a time, each a
single-threaded closed-loop client), and grades their outputs.  Set-up is
measured in SETUP_REPEATS extra worker processes that stop after set-up, plus
the timed worker itself; setup_s is the median.

--trace 0 prints the end-to-end metrics; --trace 1 adds a traced pass with
every tdho layer wrapped and prints the per-layer metrics instead.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  Earlier lines give the environment, failures by cause and, with
--trace 1, the self time of every span.
"""

import os

# pinned before numpy loads, here and in every worker
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.stats.mstats import hdquantiles  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
from reference import FAIL, KNOWN_DEFECT, PASS  # noqa: E402
from workloads import WORKLOADS, check, generate  # noqa: E402

SETUP_REPEATS = 4
WORKER_TIMEOUT = 150
SETUP_TIMEOUT = 60


def _worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run one worker; returns its set-up time (raw seconds) and its status line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    status = json.loads(proc.stdout.strip().splitlines()[-1])
    return status["t_ready"] - t_spawn, status


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def scaled(latencies, calibration) -> np.ndarray:
    """passes x ops latencies rescaled to the reference machine speed (calibrate.py)."""
    return np.array([np.asarray(lat) * calibrate.speed_factors(cal)
                     for lat, cal in zip(latencies, calibration)])


def end_to_end(raw_setups: list[float], res: dict) -> dict:
    """Times at the reference machine speed.  The op timings come from each
    op's median over the passes, so one slow spell does not move them.  A
    set-up spans several of the host's speed changes, so the median set-up
    is scaled by the median calibration of the whole run, taken within
    seconds of it."""
    op_ms = np.median(scaled(res["latencies"], res["calibration"]), axis=0) * 1e3
    speed = calibrate.REF_S / float(np.median(res["calibration"]))
    # Harrell-Davis: a Beta-weighted mean of all order statistics, steadier
    # from seed to seed than the one op that a plain percentile picks
    p50, p90 = np.asarray(hdquantiles(op_ms, [0.5, 0.9]))
    return {
        "setup_s": metric(statistics.median(raw_setups) * speed, "s"),
        "wall_s": metric(op_ms.sum() / 1e3, "s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }


UNITS = {"calls": "count", "points": "count", "refusals": "count", "steps": "count",
         "slices": "count", "self_ms": "ms", "n_exponent": "1", "bytes_written": "B",
         "files_written": "count", "overhead_ratio": "1"}


def per_layer(spans: dict, res: dict, cli_out: Path) -> tuple[dict, dict]:
    layer, diag = tracing.aggregate(spans)
    speed = calibrate.REF_S / float(np.median(res["traced"]["calibration"]))
    for k in layer:
        if k.endswith("self_ms"):
            layer[k] *= speed
    files = [f for f in cli_out.rglob("*") if f.is_file()] if cli_out.exists() else []
    layer["cli.bytes_written"] = sum(f.stat().st_size for f in files)
    layer["cli.files_written"] = len(files)
    traced = scaled([res["traced"]["latencies"]], [res["traced"]["calibration"]]).sum()
    layer["trace.overhead_ratio"] = traced / np.median(scaled(res["latencies"], res["calibration"]).sum(axis=1))
    return {k: metric(v, UNITS[k.rsplit(".", 1)[1]]) for k, v in layer.items()}, diag


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tdho" / "__init__.py").is_file():
        print(f"no tdho sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    op_list = generate(args.workload, args.seed)
    (work / "inputs.json").write_text(json.dumps([op.spec for op in op_list]))

    common = ["--workload", args.workload, "--workdir", str(work), "--seconds", str(args.seconds)]
    runs = [_worker(common + ["--setup-only"], SETUP_TIMEOUT) for _ in range(SETUP_REPEATS)]
    runs.append(_worker(common + ["--trace", str(args.trace)], WORKER_TIMEOUT))
    raw_setups = [t for t, _ in runs]
    res = json.loads((work / "results.json").read_text())

    # grade every op of the first pass; the later passes must repeat it exactly
    arrays = np.load(work / "arrays.npz")
    outcomes = []
    for i, (op, out) in enumerate(zip(op_list, res["outputs"])):
        if str(i) in res["drift"]:
            out["drift"] = res["drift"][str(i)]
        outcome = check(args.workload, op, out, arrays, work / "out")
        if i in res["rerun_mismatch"]:
            outcome = (FAIL, "a rerun or the traced run changed the output")
        outcomes.append(outcome)
    attempted = len(outcomes)
    failed = sum(o != PASS for o, _ in outcomes)
    unexpected = [(i, d) for i, (o, d) in enumerate(outcomes) if o == FAIL]
    causes: dict[str, int] = {}
    for o, d in outcomes:
        if o == KNOWN_DEFECT:
            causes[d] = causes.get(d, 0) + 1
    causes["unexpected"] = len(unexpected)

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__, "worker": res["env"],
           "passes": len(res["latencies"]), "ops_per_pass": attempted,
           "raw_pass_wall_s": [round(sum(p), 4) for p in res["latencies"]],
           "raw_setup_s": [round(t, 4) for t in raw_setups],
           "calibration_ms": round(1e3 * float(np.median(res["calibration"])), 4)}
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# fail_ratio {failed / attempted:.4f} 1 ({failed}/{attempted}) by cause "
          + json.dumps(causes, sort_keys=True))
    if args.workload == "propagator-requests":
        by_n: dict[str, dict[int, int]] = {"fail": {}, "pass": {}}
        for op, (o, _) in zip(op_list, outcomes):
            if op.spec["profile"]["type"] == "constant":
                key = "pass" if o == PASS else "fail"
                by_n[key][op.ref["n"]] = by_n[key].get(op.ref["n"], 0) + 1
        print("# constant requests by focal count " + json.dumps(by_n, sort_keys=True))
    for i, d in unexpected[:10]:
        print(f"# unexpected failure op {i} ({op_list[i].kind}): {d}")

    if args.trace == 0:
        metrics = end_to_end(raw_setups, res)
        residual_ok = True
    else:
        metrics, diag = per_layer(dict(np.load(work / "spans.npz")), res, work / "out" / "trace")
        print("# trace " + json.dumps(diag, sort_keys=True))
        # the layers' self times plus uncovered time must add up to each op's duration
        residual_ok = diag["identity_residual_ms"] <= 1e-6
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected and residual_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
