"""Command-line front end.

Five subcommands, each driven by one JSON config file (validated against the
shipped schema before anything runs):

    tdho kernel    --config cfg.json    propagator values on endpoint pairs
    tdho classical --config cfg.json    fundamental pair samples
    tdho propagate --config cfg.json    evolve a Gaussian by one method
    tdho validate  --config cfg.json    grade the closed-form catalog entry
    tdho compare   --config cfg.json    kernel vs finite-difference vs sliced

A numeric key the config omits takes the default of the library call it feeds.

Outputs land in --out (default: $TDHO_OUT, then the working directory):
data as CSV with %.17g floats and %d integers or JSON with sorted keys, plus
manifest.json recording the config hash and per-file hashes.  CSV rows are
formatted in blocks, one %-format call each, and a float column with at most
half its values distinct (a grid axis, a broadcast modulus) formats each
distinct bit pattern once; either way the bytes are those of one call per
value.  Nothing timestamped, nothing random: reruns are byte-identical.  The
argument parser is built once per process.

Exit codes: 0 success; 1 error (unusable config, caustic, solver breakdown,
an output number that is not finite, refused before any file is written);
2 a graded check failed under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .classical import closed_form, solve_fundamental, verify_solution
from .errors import DomainError, TdhoError, check_count
from .evolve import (GaussianState, compare, crank_nicolson, max_slices,
                     propagate_kernel, time_sliced_oracle, uniform_grid)
from .freq_profile import profile_from_json
from .kernel import kernel_batch

_BLOCK_ROWS = 4096


def _format(row: str, arrays) -> str:
    """row %-formatted on each row of the 1-d arrays, one call per _BLOCK_ROWS rows."""
    parts = []
    for start in range(0, arrays[0].size, _BLOCK_ROWS):
        block = [a[start:start + _BLOCK_ROWS].tolist() for a in arrays]
        parts.append((row * len(block[0])) % tuple(itertools.chain.from_iterable(zip(*block))))
    return "".join(parts)


def _csv(header: list[str], columns) -> bytes:
    """Rows of the 1-d array columns, a scalar column repeating on every row:
    ints and bools as %d, others as %.17g, one %-format call per _BLOCK_ROWS rows.
    A float column with at most half its values distinct formats each distinct
    bit pattern once (so -0.0 stays apart from 0.0) and its rows take those
    strings with %s."""
    fields, arrays = [], []
    for col in columns:
        if not np.ndim(col):
            fields.append(("%d" if isinstance(col, (int, np.integer, np.bool_)) else "%.17g") % col)
            continue
        fmt = "%d" if col.dtype.kind in "biu" else "%.17g"
        if fmt == "%.17g":
            bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
            # a %s row costs about a sixth of a %.17g one, so mostly distinct columns skip it
            if 2 * bits.size <= col.size:
                distinct = _format("%.17g\n", [bits.view(np.float64)]).split("\n")[:-1]
                fmt, col = "%s", np.array(distinct, dtype=object)[inverse]
        fields.append(fmt)
        arrays.append(col)
    row = ",".join(fields) + "\n"
    return (",".join(header) + "\n" + _format(row, arrays)).encode()


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


class _NonFiniteOutput(TdhoError):
    """A number bound for an output file is not finite; no file is written."""


def _encode(name: str, content) -> bytes:
    """The bytes of output file name: content is (header, columns) for a .csv,
    otherwise a JSON document.  A number that is not finite raises
    _NonFiniteOutput naming the file and the column and row, or the JSON path,
    so no file holds NaN or inf and every JSON file is strict JSON."""
    if name.endswith(".csv"):
        header, columns = content
        for h, col in zip(header, columns):
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:
                raise _NonFiniteOutput(f"{name} column {h!r} row {bad[0] + 1}: "
                                       f"{np.ravel(col)[bad[0]]} is not a finite number")
        return _csv(header, columns)
    found = _non_finite(content)
    if found is not None:
        raise _NonFiniteOutput(f"{name} at {_json_path(found[0])}: {found[1]} is not a finite number")
    return _json_bytes(content)


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _json_path(parts) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in parts)


def _non_finite(node, parts: tuple = ()) -> tuple | None:
    """The path (keys and indices) and value of node's first float that is not
    finite, or None: json reads NaN, Infinity and overflowing literals such as
    1e999 as floats, and writes them as NaN and Infinity, which is not JSON."""
    if isinstance(node, float) and not np.isfinite(node):
        return parts, node
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, (list, tuple)) else ()
    return next(filter(None, (_non_finite(v, (*parts, k)) for k, v in items)), None)


@functools.cache
def _schema() -> dict:
    return json.loads(resources.files("tdho").joinpath("config_schema.json").read_text())


def _validate_config(cfg: dict, task: str) -> str | None:
    """cfg's first error as a string, or None: a number that is not finite,
    then the schema branch for task, then the checks the schema cannot state."""
    found = _non_finite(cfg)
    if found is not None:
        parts, value = found
        key = [p for p in parts if isinstance(p, str)][-1]
        return f"config error at {_json_path(parts)}: {value} in {key!r} is not a finite number"
    # local: only config checking needs jsonschema, which adds about 35 ms to a cold start
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    schema = _schema()
    branch = next(b for b in schema["oneOf"]
                  if b["properties"]["task"]["const"] == task)
    # the profile branch its type names, so that an error names its key; for
    # any other type, a schema that lists the known ones
    kinds = {b["properties"]["type"]["const"]: b for b in schema["$defs"]["profile"]["oneOf"]}
    kind = cfg["profile"].get("type") if isinstance(cfg.get("profile"), dict) else None
    profile = kinds[kind] if isinstance(kind, str) and kind in kinds else \
        {"type": "object", "required": ["type"], "properties": {"type": {"enum": list(kinds)}}}
    # copies: the cached schema stays as parsed
    doc = {**branch, "$defs": {**schema["$defs"], "profile": profile}}
    err = best_match(Draft202012Validator(doc).iter_errors(cfg))
    if err is not None:
        if err.validator == "oneOf" and all(list(b) == ["required"] for b in err.validator_value):
            keys = " or ".join(repr(k) for b in err.validator_value for k in b["required"])
            return f"config error at {_json_path(err.absolute_path)}: needs exactly one of {keys}"
        return f"config error at {_json_path(err.absolute_path)}: {err.message}"
    if task == "kernel" and "points" in cfg:
        if len(cfg["points"]["q_a"]) != len(cfg["points"]["q_b"]):
            return "config error at $.points: q_a and q_b must have equal length"
    w = cfg["window"]
    if not w["t_b"] > w["t_a"]:
        return "config error at $.window: need t_b > t_a"
    return None


def _given(cfg: dict, *keys: str) -> dict:
    """The config's values for those keys it sets; the library call's own
    defaults cover the keys it omits."""
    return {k: cfg[k] for k in keys if k in cfg}


def _packet(cfg):
    g = cfg["grid"]
    q = uniform_grid(g["q_min"], g["q_max"], g["n"])
    state = GaussianState(**cfg.get("state", {}))
    return state.on_grid(q, t=cfg["window"]["t_a"])


def _evolve(method: str, profile, packet, cfg: dict):
    """The packet at the window's end by one route.  Time slicing defaults to
    128 slices, or fewer if the grid resolves fewer."""
    t_b = cfg["window"]["t_b"]
    if method == "kernel":
        return propagate_kernel(profile, packet, t_b, **_given(cfg, "mu", "tol"))
    if method == "crank_nicolson":
        return crank_nicolson(profile, packet, t_b, **_given(cfg, "mu", "dt"))
    kw = _given(cfg, "mu")
    n_slices = cfg["n_slices"] if "n_slices" in cfg else \
        max(1, min(128, max_slices(packet, t_b, **kw)))
    return time_sliced_oracle(profile, packet, t_b, n_slices, **kw)


def _run_kernel(profile, cfg: dict):
    t_a, t_b = cfg["window"]["t_a"], cfg["window"]["t_b"]
    if "points" in cfg:
        qa = np.asarray(cfg["points"]["q_a"], dtype=float)
        qb = np.asarray(cfg["points"]["q_b"], dtype=float)
    else:
        g = cfg["grid"]
        axis = uniform_grid(g["q_min"], g["q_max"], g["n"])
        qa = np.repeat(axis, axis.size)
        qb = np.tile(axis, axis.size)
    pair = solve_fundamental(profile, t_a, t_b, **_given(cfg, "tol"))
    k, modulus, phase, flag = kernel_batch(pair, qa, qb, **_given(cfg, "mu"))
    out = {"kernel.csv": (
        ["q_a", "t_a", "q_b", "t_b", "re_k", "im_k", "abs_k", "phase", "caustic_flag"],
        [qa, t_a, qb, t_b, k.real, k.imag, modulus, phase, flag])}
    summary = {"n_rows": int(qa.size), "caustic_flag": bool(flag),
               "wronskian_drift": float(pair.wronskian_drift)}
    return out, summary, None


def _run_classical(profile, cfg: dict):
    t_a, t_b = cfg["window"]["t_a"], cfg["window"]["t_b"]
    pair = solve_fundamental(profile, t_a, t_b, **_given(cfg, "tol"))
    ts = np.linspace(t_a, t_b, check_count("n_samples", cfg.get("n_samples", 201)))
    u, ud, v, vd = pair.state(ts)
    out = {"classical.csv": (["t", "u", "udot", "v", "vdot"], [ts, u, ud, v, vd])}
    summary = {"wronskian_drift": float(pair.wronskian_drift),
               "event_times": [float(t) for t in pair.event_times]}
    return out, summary, None


def _run_propagate(profile, cfg: dict):
    method = cfg["method"]
    result = _evolve(method, profile, _packet(cfg), cfg)
    out = {"wavepacket.csv": (
        ["q", "re_psi", "im_psi", "abs_psi"],
        [result.q, result.psi.real, result.psi.imag, np.abs(result.psi)])}
    summary = {"method": method, "t_b": float(cfg["window"]["t_b"]), "norm": result.norm(),
               "mean_q": result.mean_q(), "mean_q2": result.mean_q2()}
    return out, summary, None


def _run_validate(profile, cfg: dict):
    sol = closed_form(profile)
    if sol is None:
        raise DomainError(
            f"no closed-form reference for profile type {cfg['profile']['type']!r}")
    window = (cfg["window"]["t_a"], cfg["window"]["t_b"])
    report = verify_solution(profile, sol, window, **_given(cfg, "h", "n_samples"))
    params = profile.to_json()
    family = params.pop("type")
    doc = {
        "family": family,
        "label": sol.label,
        "params": params,
        "claimed_exact": sol.satisfies_equation,
        "note": sol.note,
        "report": {**dataclasses.asdict(report),
                   "slope": None if report.slope == float("inf") else report.slope},
    }
    out = {"validate.json": doc}
    summary = {"family": family, "passed": report.passed}
    strict_fail = None if report.passed else \
        f"closed form for {family!r} fails the residual check " \
        f"(max residual {report.max_residual:.3e}, slope {report.slope:.2f})"
    return out, summary, strict_fail


def _run_compare(profile, cfg: dict):
    packet = _packet(cfg)
    results = {m: _evolve(m, profile, packet, cfg)
               for m in ("kernel", "crank_nicolson", "time_sliced")}
    doc = {"norms": {k: v.norm() for k, v in results.items()}}
    worst = 0.0
    for a, b in itertools.combinations(results, 2):
        c = compare(results[a], results[b])
        doc[f"{a}_vs_{b}"] = {
            "l2_error": c["l2_error"],
            "max_error": c["max_error"],
            "norm_ratio": c["norm_ratio"],
            "overlap": [c["overlap"].real, c["overlap"].imag],
        }
        worst = max(worst, c["l2_error"])
    tolerance = cfg.get("tolerance", 1e-3)
    doc["max_l2_error"] = worst
    doc["tolerance"] = tolerance
    doc["passed"] = worst <= tolerance
    out = {"compare.json": doc}
    summary = {"max_l2_error": worst, "passed": doc["passed"]}
    strict_fail = None if doc["passed"] else \
        f"methods disagree: max L2 error {worst:.3e} > tolerance {tolerance:.1e}"
    return out, summary, strict_fail


# each subcommand's runner and its --help line
_TASKS = {
    "kernel": (_run_kernel, "propagator values on endpoint pairs or a grid"),
    "classical": (_run_classical, "sample the fundamental solution pair"),
    "propagate": (_run_propagate, "evolve a Gaussian wavepacket by one method"),
    "validate": (_run_validate, "grade a closed-form catalog entry against its equation"),
    "compare": (_run_compare, "cross-check kernel, finite-difference, and sliced evolution"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process; it holds no per-run state ($TDHO_OUT is read by main)."""
    parser = argparse.ArgumentParser(
        prog="tdho",
        description="Exact propagator of the harmonic oscillator with "
                    "time-dependent frequency.")
    parser.add_argument("--version", action="version", version=f"tdho {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, text) in _TASKS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, type=Path,
                       help="JSON run configuration")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: $TDHO_OUT, else '.')")
        p.add_argument("--strict", action="store_true",
                       help="exit 2 when a graded check fails")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        raw = args.config.read_bytes()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"config error: {args.config} is not valid JSON: {exc}", file=sys.stderr)
        return 1
    if not isinstance(cfg, dict) or cfg.get("task") != args.command:
        print(f"config error at $.task: expected {args.command!r}, "
              f"got {cfg.get('task')!r}" if isinstance(cfg, dict)
              else "config error: top level must be a JSON object", file=sys.stderr)
        return 1
    msg = _validate_config(cfg, args.command)
    if msg is not None:
        print(msg, file=sys.stderr)
        return 1

    out_dir = args.out or Path(os.environ.get("TDHO_OUT") or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 1

    try:
        outputs, summary, strict_fail = _TASKS[args.command][0](profile_from_json(cfg["profile"]), cfg)
        files = {name: _encode(name, content) for name, content in outputs.items()}
        files["manifest.json"] = _encode("manifest.json", {
            "command": args.command,
            "version": __version__,
            "config_sha256": hashlib.sha256(raw).hexdigest(),
            "outputs": {name: hashlib.sha256(data).hexdigest() for name, data in files.items()},
            "summary": summary,
        })
    except TdhoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, data in files.items():
        _write_atomic(out_dir / name, data)
        print(f"wrote {out_dir / name}")

    if args.strict and strict_fail is not None:
        print(f"strict: {strict_fail}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
