"""The benchmark's span tracer finds every package name it wraps.

bench/tracing.py patches module attributes by name (omega_squared_at,
jump_events, specfun.gamma, evolve.solve_banded, ...).  A rename or deletion
under src/ makes its install() raise; this test fails first.
"""

from pathlib import Path

import tdho.evolve

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    original = tdho.evolve.crank_nicolson
    tracer = Tracer()
    try:
        tracer.install()
        assert tdho.evolve.crank_nicolson is not original
    finally:
        tracer.uninstall()
    assert tdho.evolve.crank_nicolson is original
