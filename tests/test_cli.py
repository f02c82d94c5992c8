"""End-to-end checks of the command-line front end.

Configs are written to tmp_path and main() runs in-process. One test checks
the `tdho` entry point from outside: `python -m tdho --version` in a fresh
process, the installed `tdho` script the same way when one is on PATH, and
that pyproject.toml's [project.scripts] maps `tdho` to `tdho.cli:main`.
"""

import copy
import hashlib
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tdho
from tdho import __version__, cli
from tdho.classical import solve_fundamental, verify_solution
from tdho.cli import main
from tdho.evolve import crank_nicolson, propagate_kernel, time_sliced_oracle
from tdho.freq_profile import Constant, profile_from_json
from tdho.kernel import kernel_batch

REPO = Path(__file__).resolve().parents[1]


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def kernel_cfg(**over):
    cfg = {
        "task": "kernel",
        "profile": {"type": "constant", "omega0": 0.8},
        "window": {"t_a": 0.0, "t_b": 1.0},
        "points": {"q_a": [0.0, 0.5, -1.0], "q_b": [0.2, -0.4, 1.0]},
    }
    cfg.update(over)
    return cfg


def propagate_cfg(**over):
    cfg = {
        "task": "propagate",
        "profile": {"type": "constant", "omega0": 0.0},
        "window": {"t_a": 0.0, "t_b": 0.5},
        "state": {"qbar": 0.0, "kbar": 0.8, "sigma": 0.6},
        "grid": {"q_min": -6.0, "q_max": 6.0, "n": 256},
        "method": "kernel",
    }
    cfg.update(over)
    return cfg


def compare_cfg(**over):
    cfg = {
        "task": "compare",
        "profile": {"type": "sech_squared", "alpha": 1.0, "beta": 1.0, "t0": 0.25},
        "window": {"t_a": 0.0, "t_b": 0.5},
        "state": {"qbar": 0.0, "kbar": 0.0, "sigma": 0.6},
        "grid": {"q_min": -6.0, "q_max": 6.0, "n": 256},
        "dt": 1e-3,
        "n_slices": 2,
        "tolerance": 0.05,
    }
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------- plumbing


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"tdho {__version__}"


def test_console_script():
    # The child imports the same tdho that is under test, not another copy.
    env = dict(os.environ, PYTHONPATH=str(Path(tdho.__file__).resolve().parents[1]))
    commands = [[sys.executable, "-m", "tdho", "--version"]]
    if shutil.which("tdho"):
        commands.append(["tdho", "--version"])
    for cmd in commands:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (cmd, proc.stderr)
        assert proc.stdout.strip() == f"tdho {__version__}"

    # `python -m tdho` goes through __main__; pin the script name to the same main.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"tdho": "tdho.cli:main"}


def test_missing_config_file(tmp_path, capsys):
    assert main(["kernel", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error: cannot read" in capsys.readouterr().err


def test_config_not_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{")
    assert main(["kernel", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_config_not_an_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    assert main(["kernel", "--config", str(path)]) == 1
    assert "top level must be a JSON object" in capsys.readouterr().err


def test_task_must_match_subcommand(tmp_path, capsys):
    path = write_cfg(tmp_path, kernel_cfg())
    assert main(["classical", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error at $.task" in err
    assert "expected 'classical'" in err and "got 'kernel'" in err


def test_missing_required_field(tmp_path, capsys):
    cfg = kernel_cfg()
    del cfg["profile"]
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error at $")
    assert "profile" in err


def test_bad_nested_value_reports_json_path(tmp_path, capsys):
    cfg = kernel_cfg(profile={"type": "constant", "omega0": -1.0})
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert "$.profile" in err


def test_non_finite_constant_is_named(tmp_path, capsys):
    # json writes and reads NaN, so a config can carry one
    cfg = kernel_cfg(profile={"type": "expression", "expr": "w0^2*t", "constants": {"w0": math.nan}})
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "'w0'" in err and "t=" not in err


_KERNEL_GRID = {"q_min": -1.0, "q_max": 1.0, "n": 16}


@pytest.mark.parametrize("cfg, path", [
    (kernel_cfg(mu=math.inf), "$.mu"),
    (kernel_cfg(points=None, grid={**_KERNEL_GRID, "q_min": -math.inf}), "$.grid.q_min"),
    (kernel_cfg(points={"q_a": [0.0, math.nan, 1.0], "q_b": [0.2, -0.4, 1.0]}), "$.points.q_a[1]"),
    (propagate_cfg(method="crank_nicolson", window={"t_a": 0.0, "t_b": math.inf}), "$.window.t_b"),
    (propagate_cfg(method="time_sliced", window={"t_a": 0.0, "t_b": math.inf}), "$.window.t_b"),
    (kernel_cfg(window={"t_a": 0.0, "t_b": "1e999"}), "$.window.t_b"),  # json reads it as inf
], ids=["mu-inf", "q_min-minus-inf", "q_a-nan", "cn-t_b-inf", "sliced-t_b-inf", "t_b-1e999"])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, cfg, path):
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path_cfg = tmp_path / "cfg.json"
    path_cfg.write_text(json.dumps(cfg).replace('"1e999"', "1e999"))
    out = tmp_path / "out"
    assert main([cfg["task"], "--config", str(path_cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error at {path}: ")
    assert not out.exists()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = kernel_cfg(frequency=3)
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    assert "frequency" in capsys.readouterr().err


def test_kernel_needs_points_or_grid(tmp_path, capsys):
    cfg = kernel_cfg()
    del cfg["points"]
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err.startswith("config error at $")


def test_points_length_mismatch(tmp_path, capsys):
    cfg = kernel_cfg(points={"q_a": [0.0, 1.0], "q_b": [0.5]})
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error at $.points")
    assert "equal length" in err


def test_window_must_be_increasing(tmp_path, capsys):
    cfg = kernel_cfg(window={"t_a": 1.0, "t_b": 1.0})
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    assert "need t_b > t_a" in capsys.readouterr().err


def test_schema_is_parsed_once_and_never_mutated(tmp_path, capsys):
    # two different bad configs in one process each get their own error path
    schema = copy.deepcopy(cli._schema())
    bad_profile = kernel_cfg(profile={"type": "constant", "omega0": -1.0})
    bad_grid = propagate_cfg(grid={"q_min": -6.0, "q_max": 6.0, "n": "many"})
    assert main(["kernel", "--config", str(write_cfg(tmp_path, bad_profile, "a.json"))]) == 1
    assert capsys.readouterr().err.startswith("config error at $.profile")
    assert main(["propagate", "--config", str(write_cfg(tmp_path, bad_grid, "b.json"))]) == 1
    assert capsys.readouterr().err.startswith("config error at $.grid.n:")
    assert cli._schema() is cli._schema()
    assert cli._schema() == schema


def test_out_dir_is_created(tmp_path):
    out = tmp_path / "a" / "b" / "c"
    path = write_cfg(tmp_path, kernel_cfg())
    assert main(["kernel", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "kernel.csv").exists()


def test_tdho_out_env_fallback(tmp_path, monkeypatch):
    out = tmp_path / "from-env"
    monkeypatch.setenv("TDHO_OUT", str(out))
    path = write_cfg(tmp_path, kernel_cfg())
    assert main(["kernel", "--config", str(path)]) == 0
    assert (out / "kernel.csv").exists()
    assert (out / "manifest.json").exists()


def test_default_out_is_cwd(tmp_path, monkeypatch):
    monkeypatch.delenv("TDHO_OUT", raising=False)
    path = write_cfg(tmp_path, kernel_cfg())
    monkeypatch.chdir(tmp_path)
    assert main(["kernel", "--config", str(path)]) == 0
    assert (tmp_path / "kernel.csv").exists()


def test_the_one_parser_keeps_no_state_between_runs(tmp_path, monkeypatch, capsys):
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--strict"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err

    cfg = {"task": "validate",
           "profile": {"type": "delta_pulse", "omega0": 1.0, "t0": 0.5},
           "window": {"t_a": 0.0, "t_b": 1.0}}
    cfg_path = write_cfg(tmp_path, cfg)
    given = tmp_path / "given"
    assert main(["validate", "--config", str(cfg_path), "--out", str(given), "--strict"]) == 2
    assert main(["validate", "--config", str(cfg_path), "--out", str(given)]) == 0

    # no --out: each run reads $TDHO_OUT afresh
    for name in ("env1", "env2"):
        monkeypatch.setenv("TDHO_OUT", str(tmp_path / name))
        assert main(["validate", "--config", str(cfg_path)]) == 0
    for name in ("given", "env1", "env2"):
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["manifest.json", "validate.json"]


# ---------------------------------------------------------------- subcommands


def test_kernel_points_output(tmp_path, capsys):
    cfg = kernel_cfg()
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["kernel", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out

    header, rows = read_csv(out / "kernel.csv")
    assert header == ["q_a", "t_a", "q_b", "t_b", "re_k", "im_k",
                      "abs_k", "phase", "caustic_flag"]
    assert len(rows) == 3
    assert all(r[-1] == "0" for r in rows)

    # CSV floats are %.17g, so they round-trip to the library values exactly
    pair = solve_fundamental(Constant(0.8), 0.0, 1.0, 1e-10)
    k, modulus, phase, flag = kernel_batch(
        pair, np.array(cfg["points"]["q_a"]), np.array(cfg["points"]["q_b"]), 1.0)
    assert not flag
    got = np.array([[float(c) for c in r] for r in rows])
    np.testing.assert_array_equal(got[:, 4], k.real)
    np.testing.assert_array_equal(got[:, 5], k.imag)
    np.testing.assert_array_equal(got[:, 6], modulus)
    np.testing.assert_array_equal(got[:, 7], phase)

    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "kernel"
    assert man["version"] == __version__
    assert man["config_sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    for name, digest in man["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert man["summary"]["n_rows"] == 3
    assert man["summary"]["caustic_flag"] is False
    assert man["summary"]["wronskian_drift"] <= 1e-9


def test_kernel_grid_ordering(tmp_path):
    cfg = kernel_cfg(grid={"q_min": -2.0, "q_max": 2.0, "n": 16})
    del cfg["points"]
    out = tmp_path / "out"
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    header, rows = read_csv(out / "kernel.csv")
    assert len(rows) == 256
    # q_a varies slowest, q_b fastest
    axis = np.linspace(-2.0, 2.0, 16)
    got_qa = np.array([float(r[0]) for r in rows])
    got_qb = np.array([float(r[2]) for r in rows])
    np.testing.assert_array_equal(got_qa, np.repeat(axis, 16))
    np.testing.assert_array_equal(got_qb, np.tile(axis, 16))


def test_kernel_focal_endpoint_exits_1(tmp_path, capsys):
    # tol must beat the 1e-12*span singularity threshold for v(t_b) ~ sin(pi)
    cfg = kernel_cfg(profile={"type": "constant", "omega0": 1.0},
                     window={"t_a": 0.0, "t_b": math.pi}, tol=1e-12)
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "focal point" in err


def test_classical_output(tmp_path):
    cfg = {"task": "classical",
           "profile": {"type": "delta_pulse", "omega0": 0.6, "t0": 0.5},
           "window": {"t_a": 0.0, "t_b": 1.0},
           "n_samples": 41}
    out = tmp_path / "out"
    assert main(["classical", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    header, rows = read_csv(out / "classical.csv")
    assert header == ["t", "u", "udot", "v", "vdot"]
    assert len(rows) == 41
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0
    # initial conditions u=1, udot=0, v=0, vdot=1
    assert [float(c) for c in rows[0][1:]] == [1.0, 0.0, 0.0, 1.0]
    man = json.loads((out / "manifest.json").read_text())
    assert man["summary"]["event_times"] == [0.5]
    assert man["summary"]["wronskian_drift"] <= 1e-9


def test_propagate_kernel_output(tmp_path):
    cfg = propagate_cfg()
    out = tmp_path / "out"
    assert main(["propagate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    header, rows = read_csv(out / "wavepacket.csv")
    assert header == ["q", "re_psi", "im_psi", "abs_psi"]
    assert len(rows) == 256
    got = np.array([[float(c) for c in r] for r in rows])
    np.testing.assert_allclose(got[:, 3], np.hypot(got[:, 1], got[:, 2]), rtol=1e-15)
    man = json.loads((out / "manifest.json").read_text())
    assert man["summary"]["method"] == "kernel"
    assert man["summary"]["norm"] == pytest.approx(1.0, abs=1e-8)
    # free drift: <q> = kbar t / mu
    assert man["summary"]["mean_q"] == pytest.approx(0.4, abs=1e-6)


def test_propagate_sliced_alias_guard_exits_1(tmp_path, capsys):
    cfg = propagate_cfg(method="time_sliced", n_slices=16,
                        grid={"q_min": -8.0, "q_max": 8.0, "n": 512})
    assert main(["propagate", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "n_slices" in err


def test_validate_pass_exits_0_even_strict(tmp_path):
    cfg = {"task": "validate",
           "profile": {"type": "constant", "omega0": 0.8},
           "window": {"t_a": 0.0, "t_b": 1.0}}
    out = tmp_path / "out"
    rc = main(["validate", "--config", str(write_cfg(tmp_path, cfg)),
               "--out", str(out), "--strict"])
    assert rc == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["claimed_exact"] is True
    assert doc["report"]["passed"] is True
    assert doc["report"]["slope"] == pytest.approx(2.0, abs=0.1)


def test_validate_fail_is_graded(tmp_path, capsys):
    cfg = {"task": "validate",
           "profile": {"type": "delta_pulse", "omega0": 1.0, "t0": 0.5},
           "window": {"t_a": 0.0, "t_b": 1.0}}
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"

    # without --strict a failing grade still exits 0
    assert main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["claimed_exact"] is False
    assert doc["report"]["passed"] is False
    assert doc["report"]["max_residual"] == pytest.approx(2.0, rel=0.1)
    assert doc["report"]["jump_mismatches"]
    capsys.readouterr()

    rc = main(["validate", "--config", str(cfg_path), "--out", str(out), "--strict"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("strict:")
    assert "max residual" in err
    # outputs are written before the strict verdict
    assert (out / "validate.json").exists() and (out / "manifest.json").exists()


CATALOGUE_PROFILES = {
    "constant": {"type": "constant", "omega0": 1},
    "exp_decay": {"type": "exp_decay", "omega0": 2, "alpha": 0.5},
    "power_law": {"type": "power_law", "omega0": 0.8, "alpha": 1, "beta": 1},
    "delta_pulse": {"type": "delta_pulse", "omega0": 1, "t0": 0.5},
    "sech_squared": {"type": "sech_squared", "alpha": 1, "beta": 2},  # t0 defaults to 0.0
    "sech_squared-real-degree": {"type": "sech_squared", "alpha": 0.25, "beta": 1.5, "t0": 0.5},
}


@pytest.mark.parametrize("profile", CATALOGUE_PROFILES.values(), ids=CATALOGUE_PROFILES.keys())
def test_validate_family_and_params_are_the_profile_json(tmp_path, profile):
    cfg = {"task": "validate", "profile": profile, "window": {"t_a": 0.2, "t_b": 1.2}}
    out = tmp_path / "out"
    assert main(["validate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    doc = json.loads((out / "validate.json").read_text())
    want = profile_from_json(profile).to_json()
    assert doc["family"] == want.pop("type") == profile["type"]
    assert doc["params"] == want
    # an integer-valued number stays an integer, and a defaulted t0 is written
    given = {k: v for k, v in profile.items() if k != "type"}
    if profile["type"] == "sech_squared":
        given = {"t0": 0.0, **given}
    assert {k: (v, type(v)) for k, v in doc["params"].items()} == \
        {k: (v, type(v)) for k, v in given.items()}


def test_validate_without_closed_form_exits_1(tmp_path, capsys):
    cfg = {"task": "validate",
           "profile": {"type": "tabulated", "t": [0.0, 0.5, 1.0],
                       "omega2": [1.0, 1.2, 0.9]},
           "window": {"t_a": 0.0, "t_b": 1.0}}
    assert main(["validate", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "no closed-form reference" in err and "tabulated" in err


def test_compare_output(tmp_path):
    cfg = compare_cfg()
    out = tmp_path / "out"
    assert main(["compare", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    doc = json.loads((out / "compare.json").read_text())
    assert set(doc["norms"]) == {"kernel", "crank_nicolson", "time_sliced"}
    for key in ("kernel_vs_crank_nicolson", "kernel_vs_time_sliced",
                "crank_nicolson_vs_time_sliced"):
        block = doc[key]
        assert block["l2_error"] <= doc["max_l2_error"]
        assert block["norm_ratio"] == pytest.approx(1.0, abs=1e-6)
        assert len(block["overlap"]) == 2
    assert doc["tolerance"] == 0.05
    assert doc["passed"] is True


def test_compare_strict_failure_exits_2(tmp_path, capsys):
    cfg = compare_cfg(tolerance=1e-12, n_slices=1)
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(write_cfg(tmp_path, cfg)),
               "--out", str(out), "--strict"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("strict:")
    assert "methods disagree" in err
    doc = json.loads((out / "compare.json").read_text())
    assert doc["passed"] is False


def test_compare_on_readme_grid_defaults_to_resolved_slices(tmp_path):
    # the README's propagate config as a compare: 2048 points on [-8, 8]
    # resolve at most 25 slices at t = 1, so the default drops below 128
    cfg = propagate_cfg(profile={"type": "sech_squared", "alpha": 1.0, "beta": 1.0, "t0": 0.5},
                        window={"t_a": 0.0, "t_b": 1.0},
                        state={"qbar": 0.0, "kbar": 1.0, "sigma": 0.7},
                        grid={"q_min": -8.0, "q_max": 8.0, "n": 2048})
    del cfg["method"]
    cfg["task"] = "compare"
    out = tmp_path / "out"
    assert main(["compare", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    doc = json.loads((out / "compare.json").read_text())
    assert doc["norms"]["time_sliced"] == pytest.approx(1.0, abs=1e-6)

    cfg.update(task="propagate", method="time_sliced")
    explicit = dict(cfg, n_slices=25)
    for name, c in (("default", cfg), ("explicit", explicit)):
        assert main(["propagate", "--config", str(write_cfg(tmp_path, c, name + ".json")),
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "default" / "wavepacket.csv").read_bytes() == \
        (tmp_path / "explicit" / "wavepacket.csv").read_bytes()


def test_default_slices_stay_128_where_the_grid_resolves_them(tmp_path):
    # [-6, 6] with 128 points resolves 138 slices over t = 50
    cfg = propagate_cfg(method="time_sliced", profile={"type": "constant", "omega0": 1.0},
                        window={"t_a": 0.0, "t_b": 50.0},
                        grid={"q_min": -6.0, "q_max": 6.0, "n": 128})
    for name, c in (("default", cfg), ("explicit", dict(cfg, n_slices=128))):
        assert main(["propagate", "--config", str(write_cfg(tmp_path, c, name + ".json")),
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "default" / "wavepacket.csv").read_bytes() == \
        (tmp_path / "explicit" / "wavepacket.csv").read_bytes()


# ---------------------------------------------------------------- CSV bytes


def per_value_csv(header, rows):
    """The CSV rule one value at a time: ints and bools as str(int), the rest %.17g."""
    def fmt(x):
        if isinstance(x, (bool, np.bool_, int, np.integer)):
            return str(int(x))
        return format(float(x), ".17g")
    lines = [",".join(header)] + [",".join(fmt(x) for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


# two NaN bit patterns: the default quiet NaN and a negative one with a payload
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)
REPEATED = np.array([-0.0, 0.0, np.inf, -np.inf, *NANS, 5e-324, -5e-324, 2.5e-309, 1e300, 0.1])


@pytest.mark.parametrize("n", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
def test_csv_matches_the_per_value_rule(n):
    rng = np.random.default_rng(n)
    special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, 0.1]
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[:len(special)] = special[:n]
    ints = rng.integers(-2**62, 2**62, n)
    bools = rng.random(n) < 0.5
    # float columns with at most half their bit patterns distinct, which _csv
    # formats once per pattern, and one just over half
    repeated = REPEATED[rng.permutation(np.arange(n) % REPEATED.size)]
    half = np.resize(rng.standard_normal(max(1, n // 2)), n)
    over_half = np.resize(rng.standard_normal(n // 2 + 1), n)
    single = np.full(n, -0.0)
    if n > 1:
        shares = [np.unique(c.view(np.int64)).size / n for c in (repeated, half, single, over_half)]
        assert [s <= 0.5 for s in shares] == [True, True, True, False]
    header = ["f", "i_scalar", "i", "f_scalar", "b", "b_scalar", "np_f_scalar", "g",
              "repeated", "half", "single", "over_half"]
    columns = [floats, 7, ints, 0.1, bools, True, np.float64(-0.0), floats[::-1],
               repeated, half, single, over_half]
    rows = [[c[i] if np.ndim(c) else c for c in columns] for i in range(n)]
    assert cli._csv(header, columns) == per_value_csv(header, rows)


def test_kernel_and_classical_csv_bytes(tmp_path):
    # a JSON integer t_a prints as 0; 70^2 rows and 4097 samples cross a block boundary
    profile = {"type": "delta_pulse", "omega0": 0.6, "t0": 0.5}
    kcfg = {"task": "kernel", "profile": profile, "window": {"t_a": 0, "t_b": 1.25},
            "grid": {"q_min": -3.0, "q_max": 3.0, "n": 70}}
    ccfg = {"task": "classical", "profile": profile, "window": {"t_a": 0, "t_b": 1.25},
            "n_samples": cli._BLOCK_ROWS + 1}
    for cfg in (kcfg, ccfg):
        out = tmp_path / cfg["task"]
        assert main([cfg["task"], "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0

    pair = solve_fundamental(profile_from_json(profile), 0, 1.25, 1e-10)
    axis = np.linspace(-3.0, 3.0, 70)
    qa, qb = np.repeat(axis, 70), np.tile(axis, 70)
    k, modulus, phase, flag = kernel_batch(pair, qa, qb, 1.0)
    rows = [(qa[i], 0, qb[i], 1.25, k[i].real, k[i].imag, modulus[i], phase[i], flag)
            for i in range(qa.size)]
    header = ["q_a", "t_a", "q_b", "t_b", "re_k", "im_k", "abs_k", "phase", "caustic_flag"]
    assert (tmp_path / "kernel" / "kernel.csv").read_bytes() == per_value_csv(header, rows)

    ts = np.linspace(0, 1.25, cli._BLOCK_ROWS + 1)
    rows = zip(ts, *pair.state(ts))
    assert (tmp_path / "classical" / "classical.csv").read_bytes() == \
        per_value_csv(["t", "u", "udot", "v", "vdot"], rows)


def test_first_run_in_a_process_writes_the_bytes_of_later_runs(tmp_path):
    # odd n puts 0 on the axis; the child process runs the same tdho as this one
    cfg = {"task": "kernel", "profile": {"type": "exp_decay", "omega0": 1.0, "alpha": 0.5},
           "window": {"t_a": 0.0, "t_b": 1.0}, "grid": {"q_min": -2.0, "q_max": 2.0, "n": 31}}
    cfg_path = write_cfg(tmp_path, cfg)
    env = dict(os.environ, PYTHONPATH=str(Path(tdho.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-m", "tdho", "kernel", "--config", str(cfg_path),
           "--out", str(tmp_path / "fresh")]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("again", "once more"):
        assert main(["kernel", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
    for f in ("kernel.csv", "manifest.json"):
        fresh = (tmp_path / "fresh" / f).read_bytes()
        assert fresh == (tmp_path / "again" / f).read_bytes() == (tmp_path / "once more" / f).read_bytes()
    assert b"\n0,0,0,1," in (tmp_path / "fresh" / "kernel.csv").read_bytes()


TASK_CFGS = [
    kernel_cfg(),
    {"task": "classical", "profile": {"type": "exp_decay", "omega0": 1.0, "alpha": 1.0},
     "window": {"t_a": 0.0, "t_b": 1.0}, "n_samples": 41},
    propagate_cfg(),
    {"task": "validate", "profile": {"type": "constant", "omega0": 0.8},
     "window": {"t_a": 0.0, "t_b": 1.0}},
    compare_cfg(),
]
TASK_IDS = [cfg["task"] for cfg in TASK_CFGS]


@pytest.mark.parametrize("cfg", TASK_CFGS, ids=TASK_IDS)
def test_reruns_are_byte_identical(tmp_path, cfg):
    cfg_path = write_cfg(tmp_path, cfg)
    dirs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main([cfg["task"], "--config", str(cfg_path), "--out", str(out)]) == 0
        dirs.append(out)
    a, b = dirs
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert "manifest.json" in names
    for n in names:
        assert (a / n).read_bytes() == (b / n).read_bytes()


# each optional config key a subcommand hands to the library, and the call whose default it takes
LIBRARY_KEYS = {
    "kernel": {"tol": solve_fundamental, "mu": kernel_batch},
    "classical": {"tol": solve_fundamental},
    "propagate": {"tol": propagate_kernel, "mu": propagate_kernel, "dt": crank_nicolson},
    "validate": {"h": verify_solution, "n_samples": verify_solution},
    "compare": {"tol": propagate_kernel, "mu": time_sliced_oracle, "dt": crank_nicolson},
}


@pytest.mark.parametrize("cfg", TASK_CFGS + [propagate_cfg(method="crank_nicolson"),
                                             propagate_cfg(method="time_sliced")],
                         ids=TASK_IDS + ["propagate-cn", "propagate-sliced"])
def test_omitted_keys_take_the_library_defaults(tmp_path, cfg):
    keys = LIBRARY_KEYS[cfg["task"]]
    bare = {k: v for k, v in cfg.items() if k not in keys}
    defaults = {k: inspect.signature(f).parameters[k].default for k, f in keys.items()}
    written = []
    for name, c in (("bare", bare), ("full", {**bare, **defaults})):
        out = tmp_path / name
        assert main([c["task"], "--config", str(write_cfg(tmp_path, c, f"{name}.json")),
                     "--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert written[0] == written[1] and written[0]


def test_out_directory_that_cannot_be_created(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("a regular file")
    out = blocker / "out"
    assert main(["kernel", "--config", str(write_cfg(tmp_path, kernel_cfg())), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot create {out}")
    assert blocker.read_text() == "a regular file"


def test_too_deep_an_expression_exits_1(tmp_path, capsys):
    cfg = kernel_cfg(profile={"type": "expression", "expr": "+".join(["t"] * 1000)})
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested deeper than" in err
    assert not (tmp_path / "manifest.json").exists()
