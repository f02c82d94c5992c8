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


def readme_compare_cfg():
    """The README's propagate config as a compare: 2048 points on [-8, 8], n_slices left out."""
    cfg = propagate_cfg(profile={"type": "sech_squared", "alpha": 1.0, "beta": 1.0, "t0": 0.5},
                        window={"t_a": 0.0, "t_b": 1.0},
                        state={"qbar": 0.0, "kbar": 1.0, "sigma": 0.7},
                        grid={"q_min": -8.0, "q_max": 8.0, "n": 2048})
    del cfg["method"]
    cfg["task"] = "compare"
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


_IMPORT_PROBE = """
import json, sys
import tdho, tdho.cli
cfg, out, *names = sys.argv[1:]
loaded = lambda: sorted(m for m in names if m in sys.modules)
at_import = loaded()
assert tdho.cli.main(["classical", "--config", cfg, "--out", out]) == 0
print(json.dumps([at_import, loaded()]))
"""


def test_import_and_a_classical_run_leave_quadrature_and_schema_modules_unloaded(tmp_path):
    # scipy.integrate and scipy.optimize serve only compute_W, jsonschema only
    # the config check: a fresh process shows what importing tdho loads
    cfg = write_cfg(tmp_path, {"task": "classical",
                               "profile": {"type": "constant", "omega0": 0.8},
                               "window": {"t_a": 0.0, "t_b": 1.0}})
    env = dict(os.environ, PYTHONPATH=str(Path(tdho.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(cfg), str(tmp_path / "out"),
         "scipy.integrate", "scipy.optimize", "jsonschema"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    at_import, after_classical = json.loads(proc.stdout.splitlines()[-1])
    assert at_import == []
    assert after_classical == ["jsonschema"]


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
# past the 4300 digits Python's int() converts
_DIGITS_5001 = "1" + "0" * 5000


@pytest.mark.parametrize("cfg, path", [
    (kernel_cfg(mu=math.inf), "$.mu"),
    (kernel_cfg(points=None, grid={**_KERNEL_GRID, "q_min": -math.inf}), "$.grid.q_min"),
    (kernel_cfg(points={"q_a": [0.0, math.nan, 1.0], "q_b": [0.2, -0.4, 1.0]}), "$.points.q_a[1]"),
    (propagate_cfg(method="crank_nicolson", window={"t_a": 0.0, "t_b": math.inf}), "$.window.t_b"),
    (propagate_cfg(method="time_sliced", window={"t_a": 0.0, "t_b": math.inf}), "$.window.t_b"),
    (kernel_cfg(window={"t_a": 0.0, "t_b": "1e999"}), "$.window.t_b"),  # json reads it as inf
    # an integer no float holds reads as inf
    (kernel_cfg(window={"t_a": 0, "t_b": 10**400}), "$.window.t_b"),
    (kernel_cfg(points={"q_a": [10**400], "q_b": [0.5]}), "$.points.q_a[0]"),
    (kernel_cfg(profile={"type": "constant", "omega0": 10**400}), "$.profile.omega0"),
    (kernel_cfg(window={"t_a": 0, "t_b": _DIGITS_5001}), "$.window.t_b"),
], ids=["mu-inf", "q_min-minus-inf", "q_a-nan", "cn-t_b-inf", "sliced-t_b-inf", "t_b-1e999",
        "t_b-10^400", "q_a-10^400", "omega0-10^400", "t_b-10^5000"])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, cfg, path):
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path_cfg = tmp_path / "cfg.json"
    text = json.dumps(cfg).replace('"1e999"', "1e999")
    path_cfg.write_text(text.replace(f'"{_DIGITS_5001}"', _DIGITS_5001))
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


def test_kernel_without_points_or_grid_names_both_keys(tmp_path, capsys):
    cfg = kernel_cfg()
    del cfg["points"]
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == "config error at $: needs exactly one of 'points' or 'grid'\n"


def test_profile_missing_a_key_names_it(tmp_path, capsys):
    cfg = kernel_cfg(profile={"type": "constant"})
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == "config error at $.profile: 'omega0' is a required property\n"


def test_unknown_profile_type_lists_the_known_ones(tmp_path, capsys):
    cfg = kernel_cfg(profile={"type": "constnt", "omega0": 1.0})
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error at $.profile.type: 'constnt' is not one of ")
    for kind in cli._schema()["$defs"]["profile"]["oneOf"]:
        assert repr(kind["properties"]["type"]["const"]) in err


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


def test_kernel_refuses_a_non_finite_value_before_writing(tmp_path, capsys):
    # q_a = 1e200 overflows the quadratic form: the kernel comes out nan
    cfg = kernel_cfg(points={"q_a": [0.0, 1e200], "q_b": [0.2, 0.5]})
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: kernel.csv column 're_k' row 2: nan is not a finite number\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_propagate_refuses_a_nan_summary_before_writing(tmp_path, capsys):
    # a packet the grid samples (sigma (pi/dq - |kbar|) = 110.7) but that
    # leaves it: free motion at kbar = 25 to t = 10 carries it to q = 250, far
    # past q = 20, so its norm reads 0 and mean_q is 0/0
    cfg = propagate_cfg(window={"t_a": 0.0, "t_b": 10.0},
                        state={"qbar": 0.0, "kbar": 25.0, "sigma": 2.0},
                        grid={"q_min": -20.0, "q_max": 20.0, "n": 1024})
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        assert main(["propagate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: manifest.json at $.summary.mean_q: nan is not a finite number\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


def aliased_cfg(task: str, method: str | None = None, n: int = 256) -> dict:
    """The README propagate config at kbar = 100 on n points over [-8, 8]."""
    cfg = readme_compare_cfg()
    cfg["state"]["kbar"] = 100.0
    cfg["grid"]["n"] = n
    if task == "propagate":
        cfg.update(task="propagate", method=method)
    return cfg


@pytest.mark.parametrize("task,method", [("propagate", "crank_nicolson"), ("propagate", "kernel"),
                                         ("compare", None)])
def test_a_state_the_grid_cannot_sample_is_refused_before_writing(tmp_path, capsys, task, method):
    # pi/dq = 50.07 on 256 points, half of kbar: sigma (pi/dq - |kbar|) = -35,
    # below sqrt(ln 1e8) = 4.29, where the spectrum at pi/dq is 1e-8 of its peak
    out = tmp_path / "out"
    assert main([task, "--config", str(write_cfg(tmp_path, aliased_cfg(task, method))),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: the grid cannot sample state kbar=100.0, sigma=0.7: its spectrum "
                            "at pi/dq = 50.0691 is above 1e-8 of its peak; it needs n >= 542 on [-8.0, 8.0]\n")
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_the_grid_the_sampling_refusal_names_is_the_smallest_that_passes(tmp_path, capsys):
    # n - 1 >= 16 (100 + 4.29 / 0.7) / pi = 540.5; to t = 0.01 the packet moves by 1
    for n, code in ((541, 1), (542, 0)):
        cfg = aliased_cfg("propagate", "kernel", n)
        cfg["window"]["t_b"] = 0.01
        assert main(["propagate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / str(n))]) == code
    assert "it needs n >= 542 on" in capsys.readouterr().err


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


def test_validate_sech_squared_reads_only_the_size_of_alpha(tmp_path, capsys):
    # omega^2 = alpha^2 sech^2(beta (t - t0)) and the degree of the closed form
    # depend on alpha^2 only, so a negative alpha, which the schema accepts,
    # gives the report of its positive twin
    reports = []
    for alpha in (1, -1):
        cfg = {"task": "validate", "profile": {"type": "sech_squared", "alpha": alpha, "beta": 1, "t0": 0.5},
               "window": {"t_a": 0.0, "t_b": 1.0}}
        out = tmp_path / f"alpha{alpha}"
        assert main(["validate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        reports.append(json.loads((out / "validate.json").read_text())["report"])
    assert reports[0] == reports[1]


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
    assert doc["n_slices"] == [2, 1]
    # slicing is graded as 2 psi_2 - psi_1; the raw 2-slice run is reported, not graded
    graded = ("kernel_vs_crank_nicolson", "kernel_vs_time_sliced_extrapolated",
              "crank_nicolson_vs_time_sliced_extrapolated")
    raw = ("kernel_vs_time_sliced", "crank_nicolson_vs_time_sliced")
    for key in graded + raw:
        assert len(doc[key]["overlap"]) == 2
    for key in ("kernel_vs_crank_nicolson",) + raw:  # the unitary runs
        assert doc[key]["norm_ratio"] == pytest.approx(1.0, abs=1e-6)
    assert doc["max_l2_error"] == max(doc[key]["l2_error"] for key in graded)
    assert doc["kernel_vs_time_sliced_extrapolated"]["l2_error"] < doc["kernel_vs_time_sliced"]["l2_error"]
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
    assert doc["n_slices"] == [1, 0]  # one slice: the raw run is graded
    assert doc["kernel_vs_time_sliced_extrapolated"] == doc["kernel_vs_time_sliced"]


def test_compare_on_readme_grid_defaults_to_resolved_slices(tmp_path):
    # 2048 points on [-8, 8] resolve at most 25 slices at t = 1, so the default drops below 128
    cfg = readme_compare_cfg()
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


def test_the_readme_compare_config_passes_its_own_check(tmp_path, capsys):
    # the README grid resolves 25 slices; compare grades 2 psi_24 - psi_12,
    # 5.5e-4 from the kernel route, where the raw 24 slices are 1.5e-2 off
    cfg = readme_compare_cfg()
    out = tmp_path / "out"
    assert main(["compare", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out), "--strict"]) == 0
    assert "strict:" not in capsys.readouterr().err
    doc = json.loads((out / "compare.json").read_text())
    assert doc["passed"] is True and doc["tolerance"] == 1e-3
    assert doc["n_slices"] == [24, 12]
    assert doc["max_l2_error"] <= 6e-4
    assert doc["kernel_vs_time_sliced"]["l2_error"] > 1e-2


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
    """The CSV rule one value at a time: ints as str(int), the rest %.17g."""
    def fmt(x):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".17g")
    lines = [",".join(header)] + [",".join(fmt(x) for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


# two NaN bit patterns: the default quiet NaN and a negative one with a payload
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)
REPEATED = np.array([-0.0, 0.0, np.inf, -np.inf, *NANS, 5e-324, -5e-324, 2.5e-309, 1e300, 0.1])


def csv_cases(n):
    """Columns that broadcast together: n rows of 1-d columns with scalars, or
    for n = 70 a 70 x 70 grid, whose 4,900 rows cross a block boundary that
    70 does not divide.  _csv formats each column once per value it stores."""
    rng = np.random.default_rng(n)
    special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, 0.1]
    if n == 70:
        axis = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        axis[:len(special)] = special
        grid = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
        header = ["a_col", "i_scalar", "a_row", "f_scalar", "grid", "flag_scalar", "flag_row",
                  "i_col", "np_f_scalar", "repeated", "constant"]
        return header, [axis[:, None], 7, axis[::-1], 0.1, grid, 1,
                        np.broadcast_to((rng.random(n) < 0.5).astype(int), (n, n)),
                        rng.integers(-2**62, 2**62, (n, 1)), np.float64(-0.0),
                        np.broadcast_to(np.resize(REPEATED, n), (n, n)),
                        np.broadcast_to(-0.0, (n, n))]
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[:len(special)] = special[:n]
    ints = rng.integers(-2**62, 2**62, n)
    flags = (rng.random(n) < 0.5).astype(int)
    repeated = REPEATED[rng.permutation(np.arange(n) % REPEATED.size)]
    header = ["f", "i_scalar", "i", "f_scalar", "flag", "flag_scalar", "np_f_scalar", "g",
              "repeated", "constant"]
    return header, [floats, 7, ints, 0.1, flags, 1, np.float64(-0.0), floats[::-1],
                    repeated, np.broadcast_to(-0.0, n)]


@pytest.mark.parametrize("n", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1, 70])
def test_csv_matches_the_per_value_rule(n):
    header, columns = csv_cases(n)
    shape = np.broadcast_shapes(*map(np.shape, columns))
    flat = [np.broadcast_to(c, shape).ravel() for c in columns]
    rows = [[c[i] for c in flat] for i in range(math.prod(shape))]
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
    rows = [(qa[i], 0, qb[i], 1.25, k[i].real, k[i].imag, modulus[i], phase[i], int(flag))
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


def formatter_cases():
    """Values whose '%.17g' bytes _fields must reproduce, by class."""
    rng = np.random.default_rng(34)

    def doubles(exponent, mantissa):
        sign = rng.integers(0, 2, exponent.size, dtype=np.uint64) << np.uint64(63)
        return (sign | exponent.astype(np.uint64) << np.uint64(52) | mantissa).view(np.float64)

    normal = doubles(rng.integers(1, 2047, 40000), rng.integers(0, 2**52, 40000, dtype=np.uint64))
    subnormal = doubles(np.zeros(2000, np.int64), rng.integers(1, 2**52, 2000, dtype=np.uint64))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    # the doubles nearest 9.99999999999999995 10^k, halfway between 10^(k+1)
    # and the 17-digit value below it: some round up to 10^(k+1)
    round_up = np.array([float(f"9.99999999999999995e{k}") for k in range(-300, 300, 7)] + [9.9999999999999999e22])
    return {
        "normal": normal,
        "subnormal": np.concatenate([subnormal, [5e-324, -5e-324, 2.2250738585072009e-308]]),
        "zero": np.array([0.0, -0.0]),
        "powers of ten and neighbours": np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)]),
        "integers to 2^53": np.concatenate([rng.integers(0, 2**53, 20000).astype(float), [2.0**53, 2.0**53 - 1]]),
        "quarter-integer ties": rng.integers(4 * 10**15, 9 * 10**15, 4000) / 4,
        "fixed/exponent switches": np.concatenate([switches, np.nextafter(switches, 0),
                                                   np.nextafter(switches, np.inf), -switches]),
        "round up to a power of ten": np.concatenate([round_up, np.nextafter(round_up, np.inf)]),
        "not finite": np.array([np.inf, -np.inf, *NANS]),
    }


@pytest.mark.parametrize("case", list(formatter_cases()))
def test_fields_are_the_bytes_of_format_17g(case):
    x = formatter_cases()[case]
    fields = cli._fields(x)
    assert fields.shape == (x.size, cli._WIDTH)
    want = [format(v, ".17g").encode() for v in x.tolist()]
    assert [f.tobytes().rstrip(b"\0") for f in fields] == want


def test_kernel_and_classical_csv_take_no_per_value_fallback(tmp_path, monkeypatch):
    # every value of these CSVs is finite, in [1e-280, 1e280] or 0, and no tie:
    # the per-value rule is the formatter's fallback, so a fast path switched
    # off would still write the right bytes, only slowly
    fallback = []
    format_each = cli._format_each
    monkeypatch.setattr(cli, "_format_each", lambda x: fallback.extend(x.tolist()) or format_each(x))
    profile = {"type": "exp_decay", "omega0": 1.0, "alpha": 0.5}
    for cfg in ({"task": "kernel", "profile": profile, "window": {"t_a": 0.0, "t_b": 1.0},
                 "grid": {"q_min": -2.0, "q_max": 2.0, "n": 65}},
                {"task": "classical", "profile": profile, "window": {"t_a": 0.0, "t_b": 2.0},
                 "n_samples": cli._BLOCK_ROWS + 1}):
        assert main([cfg["task"], "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    assert fallback == []
    assert cli._fields(np.array([np.inf, 0.0])).shape == (2, cli._WIDTH) and fallback == [np.inf]


def test_kernel_grid_formats_each_stored_value_once(tmp_path, monkeypatch):
    # re_k, im_k and the phase hold a value per row; q_a, q_b, t_a, t_b and
    # abs_k are broadcast, so each block formats only the values they store:
    # any of them built per row again adds 70^2 values and breaks the bound
    sizes = []
    fields = cli._fields
    monkeypatch.setattr(cli, "_fields", lambda x: sizes.append(x.size) or fields(x))
    cfg = kernel_cfg(grid={"q_min": -3.0, "q_max": 3.0, "n": 70})
    del cfg["points"]
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    blocks = -(-70 // (cli._BLOCK_ROWS // 70))
    assert len(sizes) == blocks and 3 * 70**2 < sum(sizes) < 4 * 70**2


def test_a_non_finite_grid_value_names_its_csv_row():
    axis = np.linspace(-3.0, 3.0, 70)
    axis[3] = np.nan
    qa, qb = np.broadcast_arrays(axis[:, None], axis)
    for header, columns, row in ((["q_a", "q_b"], [qa, qb], 211), (["q_b", "q_a"], [qb, qa], 4),
                                 (["q_a", "q_b"], [axis[:, None], axis], 211)):
        with pytest.raises(cli._NonFiniteOutput, match=f"column '{header[0]}' row {row}: nan "):
            cli._encode("kernel.csv", (header, columns))


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


def _stats(out):
    return {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in out.iterdir()}


@pytest.mark.parametrize("cfg", TASK_CFGS, ids=TASK_IDS)
def test_a_rerun_into_the_same_out_leaves_every_file_alone(tmp_path, capsys, cfg):
    # the same bytes, inode and mtime: no file was written again or renamed over
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        assert main([cfg["task"], "--config", str(cfg_path), "--out", str(out)]) == 0
        runs.append((_stats(out), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert "manifest.json" in runs[0][0] and not list(out.glob("*.tmp"))


def _spoil_flip(path):
    # one byte past the first chunk the compare reads
    data = bytearray(path.read_bytes())
    at = cli._CHUNK + 1000
    assert len(data) > at
    data[at] ^= 1
    path.write_bytes(bytes(data))


def _spoil_truncate(path):
    path.write_bytes(path.read_bytes()[: cli._CHUNK // 2])


@pytest.mark.parametrize("spoil", [_spoil_flip, _spoil_truncate], ids=["flipped", "truncated"])
def test_a_rerun_rewrites_a_file_whose_bytes_differ(tmp_path, spoil):
    cfg = kernel_cfg(grid={"q_min": -3.0, "q_max": 3.0, "n": 100})
    del cfg["points"]
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["kernel", "--config", str(cfg_path), "--out", str(out)]) == 0
    before = _stats(out)
    spoil(out / "kernel.csv")
    ino = (out / "kernel.csv").stat().st_ino
    assert main(["kernel", "--config", str(cfg_path), "--out", str(out)]) == 0
    after = _stats(out)
    # kernel.csv came back through kernel.csv.tmp and os.replace; the manifest was left alone
    assert after["kernel.csv"][0] == before["kernel.csv"][0]
    assert after["kernel.csv"][1] != ino
    assert after["manifest.json"] == before["manifest.json"]
    manifest = json.loads(after["manifest.json"][0])
    assert hashlib.sha256(after["kernel.csv"][0]).hexdigest() == manifest["outputs"]["kernel.csv"]
    assert not list(out.glob("*.tmp"))


def test_a_file_that_holds_other_bytes_of_the_same_size_is_rewritten(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(b"abc")
    cli._write_atomic(path, b"abd")
    assert path.read_bytes() == b"abd"
    cli._write_atomic(path, b"")
    assert path.read_bytes() == b""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv"]


def _disk_full(self, data):
    # half the bytes reach the file, then the disk is full
    with open(self, "wb") as f:
        f.write(data[: len(data) // 2])
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("blocked", ["directory", "disk full"])
def test_an_output_that_cannot_be_written_exits_1_without_a_tmp_file(tmp_path, capsys, monkeypatch, blocked):
    cfg_path = write_cfg(tmp_path, kernel_cfg())
    out = tmp_path / "out"
    if blocked == "directory":
        (out / "kernel.csv").mkdir(parents=True)
    else:
        monkeypatch.setattr(Path, "write_bytes", _disk_full)
    assert main(["kernel", "--config", str(cfg_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out / 'kernel.csv'}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert sorted(p.name for p in out.iterdir()) == (["kernel.csv"] if blocked == "directory" else [])


def test_one_validator_per_task_and_profile_type(tmp_path, capsys):
    cli._validator.cache_clear()
    cfgs = [kernel_cfg(), kernel_cfg(profile={"type": "constant", "omega0": 0.3}),
            kernel_cfg(profile={"type": "nope"}), kernel_cfg(profile={"type": "other"}),
            kernel_cfg(profile={"type": ["constant"]})]
    for i, cfg in enumerate(cfgs):
        main(["kernel", "--config", str(write_cfg(tmp_path, cfg, f"{i}.json")), "--out", str(tmp_path)])
    # constant, and one shared entry for every type the schema does not know
    assert cli._validator.cache_info().currsize == 2
    assert capsys.readouterr().err.count("config error at $.profile.type: ") == 3


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


def _integer_keys(node):
    """Every property name the schema types as "integer"."""
    if isinstance(node, list):
        return set().union(*map(_integer_keys, node))
    if not isinstance(node, dict):
        return set()
    own = {k for k, v in node.get("properties", {}).items() if v.get("type") == "integer"}
    return own.union(*map(_integer_keys, node.values()))


# JSON Schema's "integer" admits 256.0; each such value must run as its int
INTEGRAL_FLOATS = [
    (propagate_cfg(), {"grid": {"q_min": -6.0, "q_max": 6.0, "n": 256.0}}),
    (propagate_cfg(method="time_sliced", n_slices=2), {"n_slices": 2.0}),
    (TASK_CFGS[1], {"n_samples": 41.0}),
    ({**TASK_CFGS[3], "n_samples": 16}, {"n_samples": 16.0}),
    (compare_cfg(grid={"q_min": -6.0, "q_max": 6.0, "n": 256}),
     {"grid": {"q_min": -6.0, "q_max": 6.0, "n": 256.0}, "n_slices": 2.0}),
]


def test_the_schema_has_no_integer_key_but_those_the_cli_makes_ints():
    assert _integer_keys(cli._schema()) == {"n", "n_samples", "n_slices"}


@pytest.mark.parametrize("cfg,over", INTEGRAL_FLOATS,
                         ids=["grid-n", "n_slices", "classical-n_samples",
                              "validate-n_samples", "compare"])
def test_integral_floats_in_integer_keys_write_the_int_configs_bytes(tmp_path, cfg, over):
    written = []
    for name, c in (("int", cfg), ("float", {**cfg, **over})):
        out = tmp_path / name
        assert main([c["task"], "--config", str(write_cfg(tmp_path, c, f"{name}.json")),
                     "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = json.loads(files.pop("manifest.json"))
        manifest.pop("config_sha256")
        written.append((files, manifest))
    assert written[0] == written[1]


@pytest.mark.parametrize("task", ["kernel", "classical"])
def test_integers_past_int64_read_as_floats(tmp_path, capsys, task):
    # numpy stored a JSON 10^20 as an object and failed on it; as a float it runs
    cfg = {"task": task, "profile": {"type": "constant", "omega0": 1e-6},
           "window": {"t_a": 10**20, "t_b": 100000000000001000000}}
    if task == "kernel":
        cfg["points"] = {"q_a": [0.0], "q_b": [0.5]}
    assert main([task, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    header, rows = read_csv(tmp_path / f"{task}.csv")
    assert rows[0][header.index("t_a" if task == "kernel" else "t")] == "1e+20"


@pytest.mark.parametrize("target, cfg, exc", [
    # "n": 10^11 passes the schema and check_count, and np.linspace then
    # asks for 745 GiB; the stand-in raises numpy's error for that request
    ("uniform_grid", kernel_cfg(points=None, grid={"q_min": -3.0, "q_max": 3.0, "n": 100000000000}),
     np._core._exceptions._ArrayMemoryError((100000000000,), np.dtype(float))),
    ("kernel_batch", kernel_cfg(), MemoryError()),
])
def test_a_run_out_of_memory_exits_1_naming_the_task(tmp_path, capsys, monkeypatch, target, cfg, exc):
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, out_of_memory)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    out = tmp_path / "out"
    assert main(["kernel", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: kernel ran out of memory: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert str(exc) in captured.err
    assert list(out.iterdir()) == []


def _samples_cfg(task):
    return {"task": task, "profile": {"type": "constant", "omega0": 0.8},
            "window": {"t_a": 0.0, "t_b": 1.0}, "n_samples": 9000000000000000000}


@pytest.mark.parametrize("cfg, why", [
    (propagate_cfg(method="crank_nicolson", dt=1e-320), "dt=1e-320 needs inf steps"),
    (propagate_cfg(method="crank_nicolson", dt=1e-300), "dt=1e-300 needs 5e+299 steps on [0.0, 0.5]"),
    (compare_cfg(dt=1e-300), "dt=1e-300 needs 5e+299 steps"),
    (kernel_cfg(points=None, grid={"q_min": -3.0, "q_max": 3.0, "n": 9000000000000000000}),
     "n must be at most"),
    (_samples_cfg("classical"), "n_samples must be at most"),
    (_samples_cfg("validate"), "n_samples must be at most"),
], ids=["propagate-dt1e-320", "propagate-dt1e-300", "compare-dt1e-300", "kernel-grid-n",
        "classical-n_samples", "validate-n_samples"])
def test_a_count_or_dt_past_the_longest_array_exits_1_before_writing(tmp_path, capsys, cfg, why):
    # these raised OverflowError from math.ceil or from a list of 10^300 steps,
    # or numpy's "array is too big" ValueError, none of them a TdhoError
    cfg = {k: v for k, v in cfg.items() if v is not None}
    out = tmp_path / "out"
    assert main([cfg["task"], "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert why in captured.err and "Traceback" not in captured.err
    assert list(out.iterdir()) == []


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
