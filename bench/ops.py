"""Op runners: each turns one generated input into the calls a tdho user makes.

Every call goes through a module attribute (classical.solve_fundamental, not
a name bound at import), so the tracer's patches see it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from pathlib import Path

import numpy as np

from tdho import classical, cli, errors, evolve, freq_profile

kernel = importlib.import_module("tdho.kernel")  # the package attribute `kernel` is the function


def run_request(spec: dict):
    """One propagator request.  Returns (output, pair) -- the pair for the untimed drift check."""
    profile = freq_profile.profile_from_json(spec["profile"])
    pair = classical.solve_fundamental(profile, spec["t_a"], spec["t_b"])
    values = [kernel.kernel_robust(pair, qa, qb).k for qa, qb in spec["points"]]
    out = {"robust": [[k.real, k.imag] for k in values]}
    eq17 = spec["eq17"]
    if eq17 is not None:
        if eq17["curve"] == "closed":
            curve = classical.closed_form(profile)
        else:
            curve = pair.combination(eq17["f_a"], eq17["fdot_a"])
        qa, qb = spec["points"][0]
        try:
            kv = kernel.kernel_eq17(profile, curve, spec["t_a"], spec["t_b"], qa, qb)
            out["eq17"] = {"value": [kv.k.real, kv.k.imag]}
        except errors.CausticInWindow as exc:  # a correct refusal when the curve has a zero
            out["eq17"] = {"raised": "CausticInWindow", "t_zero": exc.t_zero}
    return out, pair


def _grid(spec: dict) -> np.ndarray:
    lo, hi, n = spec["grid"]
    return evolve.uniform_grid(lo, hi, int(n))


def run_packet(spec: dict) -> np.ndarray:
    """One packet through one route; returns psi at t_b."""
    profile = freq_profile.profile_from_json(spec["profile"])
    q = _grid(spec)
    t_a, t_b, route = spec["t_a"], spec["t_b"], spec["route"]
    if route == "quadrature":
        psi = sum(complex(*c["c"]) * evolve.GaussianState(c["qbar"], c["kbar"], c["sigma"]).psi(q)
                  for c in spec["components"])
        return evolve.propagate_kernel(profile, evolve.WavePacket(q, psi, t_a), t_b).psi
    packet = evolve.GaussianState(**spec["state"]).on_grid(q, t=t_a)
    if route == "gaussian":
        return evolve.propagate_kernel(profile, packet, t_b).psi
    if route == "cn":
        return evolve.crank_nicolson(profile, packet, t_b, dt=spec["dt"]).psi
    return evolve.time_sliced_oracle(profile, packet, t_b, spec["n_slices"]).psi


def packet_components(spec: dict) -> list[np.ndarray]:
    """Closed-form results for each component of a superposition (linearity check)."""
    profile = freq_profile.profile_from_json(spec["profile"])
    q = _grid(spec)
    return [evolve.propagate_kernel(
        profile, evolve.GaussianState(c["qbar"], c["kbar"], c["sigma"]).on_grid(q, t=spec["t_a"]),
        spec["t_b"]).psi for c in spec["components"]]


def run_cli(spec: dict, config: Path, out_dir: Path) -> dict:
    """One in-process `tdho <task> --config ... --out ...`; returns exit code and stderr."""
    argv = [spec["kind"], "--config", str(config), "--out", str(out_dir)]
    if spec.get("strict"):
        argv.append("--strict")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stderr": err.getvalue()}
