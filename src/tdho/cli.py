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
built in blocks, each one byte matrix.  Its floats are formatted in numpy: each
is scaled to its 17 significant digits by Dekker's exact product with a table
of 10^s, and only a value that is not finite, lies outside [1e-280, 1e280] or
may be a rounding tie takes Python's '%.17g', so every field holds the bytes
of '%.17g' of its value.  Columns broadcast together by numpy's rules, one
row per element in C order, and each is formatted once per value it stores (a
scalar, a grid axis, a broadcast modulus once per block).  Nothing
timestamped, nothing random: reruns are byte-identical.  A rerun rewrites
only the files whose bytes changed: a file that already holds its bytes is
left alone, inode and mtime too, because a rename over an existing file makes
ext4 (auto_da_alloc) start writing the new data back inside the rename.  A
file that changes is written to <name>.tmp and moved over <name> by
os.replace, so no reader sees it half written.  The argument parser is built
once per process, and the schema validator once per task and profile type.

Exit codes: 0 success; 1 error (unusable config, a state the grid cannot
sample, caustic, solver breakdown, an output number that is not finite, a
run out of memory, each refused before any file is written; or an output
file that cannot be written, which stops the run with its <name>.tmp
removed); 2 a graded check failed under --strict.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import math
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
_CHUNK = 1 << 20  # bytes of an existing output file read per compare
_WIDTH = 24  # the longest '%.17g' of a float64, as '-2.2250738585072014e-308'
_S0, _S1 = -266, 299  # 10^s for s = 16 - e, e = floor(log10 |x|) +- 1 for |x| in [1e-280, 1e280]


@functools.cache
def _tables():
    """The tables of _fields, built on first use.  pow10[:, s - _S0] is 10^s
    as hi + lo, hi the nearest double, with Dekker's halves of hi: hi, its
    head, its tail, lo.  ascii4[g] is the ASCII of g in 0000 to 9999 as one
    uint32, zeros4[g] its count of trailing zeros (4 for 0).  layouts[k] is,
    for each output byte, its byte in a value's 32-byte source row, and
    k = 425 sign + keys[e + 300] + significant digits for exponent e."""
    hi, lo = [], []
    for s in range(_S0, _S1):
        if s >= 0:
            hi.append(float(10**s))
            lo.append(float(10**s - int(hi[-1])))
        else:  # int true division rounds correctly
            hi.append(1 / 10**-s)
            m, q = hi[-1].as_integer_ratio()
            lo.append((q - m * 10**-s) / (q * 10**-s))
    hi = np.array(hi)
    c = 134217729.0 * hi  # 2^27 + 1
    head = c - (c - hi)
    g = np.arange(10000)
    digits = (g[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    zeros4 = np.select([g % 10**k == 0 for k in (4, 3, 2, 1)], [4, 3, 2, 1], 0).astype(np.uint8)
    # a source row: bytes 0-19 the 17 digits as '000' and four groups of 4
    # (so byte 0 is '0'), 20-23 the exponent as 4 digits, then '-.e+' and NUL
    layouts = []
    for neg, eclass, nsig in itertools.product((0, 1), range(25), range(1, 18)):
        digits_at = [3 + j for j in range(nsig)]
        if eclass < 21:  # fixed form, exponent eclass - 4 in [-4, 16]
            e = eclass - 4
            body = [0, 25] + [0] * (-e - 1) + digits_at if e < 0 else \
                [3 + j for j in range(e + 1)] + ([25] + digits_at[e + 1:] if nsig > e + 1 else [])
        else:  # exponent form: classes e+XX, e+XXX, e-XX, e-XXX
            minus, three = divmod(eclass - 21, 2)
            body = digits_at[:1] + ([25] + digits_at[1:] if nsig > 1 else []) + \
                [26, 24 if minus else 27] + [21, 22, 23][1 - three:]
        field = [24] * neg + body
        layouts.append(field + [28] * (_WIDTH - len(field)))
    e = np.arange(-300, 300)  # the exponent class: e + 4 for the fixed form, 21-24 as above
    eclass = np.where((e >= -4) & (e < 17), e + 4, 21 + 2 * (e < 0) + (abs(e) >= 100))
    return (np.stack([hi, head, hi - head, np.array(lo)]), digits.view(np.uint32)[:, 0], zeros4,
            np.array(layouts, dtype=np.intp), 17 * eclass - 1)


def _scaled(a: np.ndarray, e: np.ndarray, pow10: np.ndarray):
    """a 10^(16 - e) as p + r, p = fl(a hi) and r its error plus a lo, to
    within about 1e-14: Dekker's exact product of a and hi."""
    h, h1, h2, lo = np.take(pow10, 16 - _S0 - e, axis=1)
    c = 134217729.0 * a
    a1 = c - (c - a)
    a2 = a - a1
    p = a * h
    return p, (((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2) + a * lo


def _format_each(x: np.ndarray) -> np.ndarray:
    """'%.17g' of each value of x, one call each, as NUL-padded rows of _WIDTH bytes."""
    return np.array(["%.17g" % v for v in x.tolist()], dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)


def _fields(x: np.ndarray) -> np.ndarray:
    """The bytes of '%.17g' % v for each v of the float64 array x, as NUL-padded
    rows of _WIDTH bytes.  |v| in [1e-280, 1e280] is scaled to the 17-digit
    integer n = round(|v| 10^(16 - e)), e = floor(log10 |v|) moved by one
    where log10 rounded across a power of ten or n reached 10^17, and 0 is n = 0;
    a layout per sign, exponent class and count of significant digits then
    gathers sign, digits, point and exponent.  The other values, and those
    whose scaled fraction lies within 1e-9 of a tie, take _format_each."""
    pow10, ascii4, zeros4, layouts, keys = _tables()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, e, pow10)
    shift = ((p - 1e17) + r >= 0.0).astype(np.int64) - ((p - 1e16) + r < 0.0)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        p[moved], r[moved] = _scaled(a[moved], e[moved], pow10)
    k = np.floor(r)
    frac = r - k
    slow = np.flatnonzero(~(fast | zero) | (abs(frac - 0.5) < 1e-9))
    n = p.astype(np.int64) + k.astype(np.int64) + (frac > 0.5)
    carry = n == 10**17
    n[carry] = 10**16
    n[zero] = 0
    e += carry
    top, low = np.divmod(n, 10**8)
    first, mid = np.divmod(top, 10**8)
    groups = [*np.divmod(mid, 10000), *np.divmod(low, 10000)]
    src = np.empty((x.size, 8), np.uint32)
    for j, g in enumerate([first, *groups, abs(e)]):
        src[:, j] = ascii4[g]
    src[:, 6] = np.frombuffer(b"-.e+", np.uint32)[0]
    src[:, 7] = 0
    g1, g2, g3, g4 = groups
    nsig = 17 - (zeros4[g4] + (g4 == 0) * (zeros4[g3] + (g3 == 0) * (zeros4[g2] + (g2 == 0) * zeros4[g1])))
    at = layouts[keys[e + 300] + nsig + 425 * np.signbit(x)]
    at += np.arange(0, 32 * x.size, 32)[:, None]
    out = np.take(src.view(np.uint8), at)
    if slow.size:
        out[slow] = _format_each(x[slow])
    return out


def _csv(header: list[str], columns) -> bytes:
    """One row per element, in C order, of the shape the columns broadcast to:
    ints as %d, floats as %.17g.  Each column is formatted once per
    value it stores: it is broadcast to that shape and cut to one entry along
    every stride-0 axis, so a scalar, a grid axis or a constant column reaches
    _fields once per block and its byte rows are broadcast into the block.  A
    block is max(1, _BLOCK_ROWS // inner size) slices of the leading axis: one
    byte matrix, its floats from one _fields call, its NUL padding dropped."""
    shape = np.broadcast_shapes(*map(np.shape, columns))
    step = max(1, _BLOCK_ROWS // math.prod(shape[1:]))
    comma, newline = np.frombuffer(b",\n", np.uint8).reshape(2, *[1] * len(shape), 1)
    parts = [(",".join(header) + "\n").encode()]
    for start in range(0, shape[0], step):
        stored = [c[tuple(slice(None) if s else slice(1) for s in c.strides)]
                  for c in (np.broadcast_to(c, shape)[start:start + step] for c in columns)]
        floats = [c for c in stored if c.dtype.kind == "f"]
        fields = iter(np.split(_fields(np.concatenate([c.ravel() for c in floats])),
                               np.cumsum([c.size for c in floats])[:-1]))
        cols = []
        for c in stored:
            f = next(fields) if c.dtype.kind == "f" else c.astype("S").view(np.uint8)
            cols += [f.reshape(*c.shape, -1), comma]
        block = (min(step, shape[0] - start), *shape[1:])
        out = np.concatenate([np.broadcast_to(f, (*block, f.shape[-1]))
                              for f in cols[:-1] + [newline]], axis=-1)
        parts.append(out[out != 0].tobytes())
    return b"".join(parts)


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
        shape = np.broadcast_shapes(*map(np.shape, columns))
        for h, col in zip(header, (np.broadcast_to(c, shape) for c in columns)):
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:
                raise _NonFiniteOutput(f"{name} column {h!r} row {bad[0] + 1}: "
                                       f"{col.flat[bad[0]]} is not a finite number")
        return _csv(header, columns)
    found = _non_finite(content)
    if found is not None:
        raise _NonFiniteOutput(f"{name} at {_json_path(found[0])}: {found[1]} is not a finite number")
    return _json_bytes(content)


def _holds(path: Path, data: bytes) -> bool:
    """Whether the file at path holds exactly data: its size, then its bytes
    a chunk at a time (bytes slices compare in C; a chunk bounds the memory
    held).  Any OSError, such as no file there, reads as no."""
    try:
        with open(path, "rb") as f:
            return os.fstat(f.fileno()).st_size == len(data) and \
                all(f.read(_CHUNK) == data[start:start + _CHUNK] for start in range(0, len(data), _CHUNK))
    except OSError:
        return False


def _write_atomic(path: Path, data: bytes) -> None:
    """Write data to path through path.tmp and os.replace, unless the file
    there already holds it (see the module docstring).  A failed write
    removes path.tmp and raises its OSError."""
    if _holds(path, data):
        return
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


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


@functools.cache
def _profile_kinds() -> dict:
    """Each profile type's branch of the schema, by its type name."""
    return {b["properties"]["type"]["const"]: b for b in _schema()["$defs"]["profile"]["oneOf"]}


@functools.cache
def _validator(task: str, kind: str | None):
    """The validator of task's schema branch with the profile branch kind
    names, so that an error names its key; for kind None (any type the schema
    does not know), a profile schema that lists the known ones.  Built once
    per task and kind."""
    from jsonschema import Draft202012Validator

    schema = _schema()
    branch = next(b for b in schema["oneOf"] if b["properties"]["task"]["const"] == task)
    kinds = _profile_kinds()
    profile = kinds[kind] if kind is not None else \
        {"type": "object", "required": ["type"], "properties": {"type": {"enum": list(kinds)}}}
    # copies: the cached schema stays as parsed
    return Draft202012Validator({**branch, "$defs": {**schema["$defs"], "profile": profile}})


def _validate_config(cfg: dict, task: str) -> str | None:
    """cfg's first error as a string, or None: a number that is not finite,
    then the schema branch for task, then the checks the schema cannot state."""
    found = _non_finite(cfg)
    if found is not None:
        parts, value = found
        key = [p for p in parts if isinstance(p, str)][-1]
        return f"config error at {_json_path(parts)}: {value} in {key!r} is not a finite number"
    # local: only config checking needs jsonschema, which adds about 35 ms to a cold start
    from jsonschema.exceptions import best_match

    kind = cfg["profile"].get("type") if isinstance(cfg.get("profile"), dict) else None
    known = isinstance(kind, str) and kind in _profile_kinds()
    err = best_match(_validator(task, kind if known else None).iter_errors(cfg))
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
    """The config's Gaussian on its grid; the routes refuse one the grid cannot sample."""
    g = cfg["grid"]
    return GaussianState(**cfg.get("state", {})).on_grid(uniform_grid(g["q_min"], g["q_max"], g["n"]),
                                                        t=cfg["window"]["t_a"])


def _default_slices(packet, cfg: dict) -> int:
    """128 slices, or the most the grid resolves if that is fewer."""
    return max(1, min(128, max_slices(packet, cfg["window"]["t_b"], **_given(cfg, "mu"))))


def _evolve(method: str, profile, packet, cfg: dict, n_slices: int | None = None):
    """The packet at the window's end by one route.  Time slicing takes
    n_slices, else the config's, else _default_slices."""
    t_b = cfg["window"]["t_b"]
    if method == "kernel":
        return propagate_kernel(profile, packet, t_b, **_given(cfg, "mu", "tol"))
    if method == "crank_nicolson":
        return crank_nicolson(profile, packet, t_b, **_given(cfg, "mu", "dt"))
    if n_slices is None:
        n_slices = cfg["n_slices"] if "n_slices" in cfg else _default_slices(packet, cfg)
    return time_sliced_oracle(profile, packet, t_b, n_slices, **_given(cfg, "mu"))


def _run_kernel(profile, cfg: dict):
    t_a, t_b = cfg["window"]["t_a"], cfg["window"]["t_b"]
    if "points" in cfg:
        qa = np.asarray(cfg["points"]["q_a"], dtype=float)
        qb = np.asarray(cfg["points"]["q_b"], dtype=float)
    else:
        g = cfg["grid"]
        axis = uniform_grid(g["q_min"], g["q_max"], g["n"])
        qa, qb = np.broadcast_arrays(axis[:, None], axis)
    pair = solve_fundamental(profile, t_a, t_b, **_given(cfg, "tol"))
    k, modulus, phase, flag = kernel_batch(pair, qa, qb, **_given(cfg, "mu"))
    out = {"kernel.csv": (
        ["q_a", "t_a", "q_b", "t_b", "re_k", "im_k", "abs_k", "phase", "caustic_flag"],
        [qa, t_a, qb, t_b, k.real, k.imag, modulus, phase, int(flag)])}
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
    """Kernel, Crank-Nicolson and time slicing, graded by their largest L2
    distance.  Slicing is first order in its slice count, so the graded
    slicing result is the Richardson combination (s psi_s - m psi_m) / (s - m)
    of runs at s and m = s // 2 slices, 2 psi_s - psi_m for an even s; s = 1
    grades the raw run.  s is the config's n_slices, else the largest even
    count within _default_slices.  The raw run's distances are reported too."""
    packet = _packet(cfg)
    results = {m: _evolve(m, profile, packet, cfg) for m in ("kernel", "crank_nicolson")}
    s = check_count("n_slices", cfg["n_slices"]) if "n_slices" in cfg else \
        max(1, _default_slices(packet, cfg) // 2 * 2)
    half = s // 2
    results["time_sliced"] = raw = _evolve("time_sliced", profile, packet, cfg, s)
    extrapolated = raw if not half else dataclasses.replace(
        raw, psi=(s * raw.psi - half * _evolve("time_sliced", profile, packet, cfg, half).psi) / (s - half))
    doc = {"norms": {k: v.norm() for k, v in results.items()}, "n_slices": [s, half]}
    for a, b in itertools.combinations(results, 2):
        doc[f"{a}_vs_{b}"] = _distances(results[a], results[b])
    for a in ("kernel", "crank_nicolson"):
        doc[f"{a}_vs_time_sliced_extrapolated"] = _distances(results[a], extrapolated)
    worst = max(doc[key]["l2_error"] for key in ("kernel_vs_crank_nicolson", "kernel_vs_time_sliced_extrapolated",
                                                  "crank_nicolson_vs_time_sliced_extrapolated"))
    tolerance = cfg.get("tolerance", 1e-3)
    doc["max_l2_error"] = worst
    doc["tolerance"] = tolerance
    doc["passed"] = worst <= tolerance
    out = {"compare.json": doc}
    summary = {"max_l2_error": worst, "passed": doc["passed"]}
    strict_fail = None if doc["passed"] else \
        f"methods disagree: max L2 error {worst:.3e} > tolerance {tolerance:.1e}"
    return out, summary, strict_fail


def _distances(p1, p2) -> dict:
    c = compare(p1, p2)
    return {"l2_error": c["l2_error"], "max_error": c["max_error"], "norm_ratio": c["norm_ratio"],
            "overlap": [c["overlap"].real, c["overlap"].imag]}


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
        # an integer int64 cannot hold reads as float(s), not as a numpy object;
        # past the float range that is inf, refused below (the length test
        # keeps int() off the thousands of digits it refuses)
        cfg = json.loads(raw, parse_int=lambda s: int(s) if len(s) <= 20 and -2**63 <= int(s) < 2**63
                         else float(s))
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
    except MemoryError as exc:  # numpy's ArrayMemoryError too: a count or grid too large to hold
        print(f"error: {args.command} ran out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return 1

    for name, data in files.items():
        try:
            _write_atomic(out_dir / name, data)
        except OSError as exc:
            print(f"error: cannot write {out_dir / name}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {out_dir / name}")

    if args.strict and strict_fail is not None:
        print(f"strict: {strict_fail}", file=sys.stderr)
        return 2
    return 0
