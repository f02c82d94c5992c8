"""Span tracing around tdho's public functions, and per-layer aggregation.

Tracer.install() wraps the public functions and methods of each package
module from outside: nothing under src/ changes.  Modules import each other's
functions by name (tdho.cli.kernel_batch, tdho.evolve.solve_fundamental), so
a function is replaced under every name that refers to it, in every module.

Each wrapped call records a span: name, start, end, parent span, op id, a
count (points evaluated, CN steps, slices) and a grid size.  Spans sit in
typed arrays in memory and are written out once, when the traced pass ends.
A span's self time is its duration minus its children's durations; spans of
one thread nest, so the children never overlap.

aggregate() and self_times() need only numpy, so the runner imports this
module without importing tdho.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

OP = "op"  # the root span the worker opens around each op

# metric group -> the span names whose self time it sums
GROUPS = {
    "freq_profile": ("freq_profile.omega2", "freq_profile.expr", "freq_profile.other"),
    "classical.solve": ("classical.solve",),
    "classical.state": ("classical.state",),
    "kernel.robust": ("kernel.robust",),
    "kernel.batch": ("kernel.batch",),
    "kernel.compute_W": ("kernel.compute_W",),
    "specfun": ("specfun",),
    "evolve.gaussian": ("evolve.gaussian",),
    "evolve.quadrature": ("evolve.quadrature",),
    "evolve.cn": ("evolve.cn",),
    "evolve.sliced": ("evolve.sliced",),
    "cli": ("cli.main",),
}
# classical.other, kernel.eq17, kernel.other and evolve.other carry no metric
# of their own; wrapping them keeps their time out of their parent's self time

REFUSED, RAISED = 1, 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start, self.end = array("d"), array("d")
        self.parent, self.op, self.name = array("q"), array("q"), array("q")
        self.count, self.size, self.flag = array("q"), array("q"), array("b")
        self.stack: list[int] = []
        self.current_op = -1
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, count: int = 1, size: int = 0) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.name.append(name_id)
        self.count.append(count)
        self.size.append(size)
        self.flag.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, count=None, size=None, refusal=None):
        """name is a span name, or a function of the call's args giving one."""
        tracer = self
        fixed = None if callable(name) else self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else tracer.name_id(name(args, kwargs))
            idx = tracer.open(nid, count(args, kwargs) if count else 1,
                              size(args, kwargs) if size else 0)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.flag[idx] = REFUSED if refusal and isinstance(exc, refusal) else RAISED
                raise
            finally:
                tracer.close(idx)

        return wrapper

    def counter(self, fn):
        """Count calls of fn into the innermost open span (CN steps)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active and tracer.stack:
                tracer.count[tracer.stack[-1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        import importlib

        import tdho
        from tdho import (classical, cli, errors, evolve, freq_profile,
                          omega_expr, specfun)
        kernel = importlib.import_module("tdho.kernel")  # tdho.kernel is the function

        def arg(i, key):
            return lambda a, k: a[i] if len(a) > i else k[key]

        def points(i, key):
            return lambda a, k: int(np.size(arg(i, key)(a, k)))

        grid_n = lambda a, k: int(arg(1, "packet")(a, k).q.size)  # noqa: E731
        funcs = {
            freq_profile.profile_from_json: ("freq_profile.other",),
            freq_profile.omega_squared_at: ("freq_profile.other",),
            freq_profile.jump_events: ("freq_profile.other",),
            omega_expr.parse: ("freq_profile.expr",),
            omega_expr.evaluate: ("freq_profile.expr",),
            omega_expr.to_string: ("freq_profile.expr",),
            classical.solve_fundamental: ("classical.solve",),
            classical.closed_form: ("classical.other",),
            classical.verify_solution: ("classical.other",),
            classical.spot_check_solution: ("classical.other",),
            classical.pair_from_solution: ("classical.other",),
            kernel.kernel_robust: ("kernel.robust",),
            kernel.kernel_batch: ("kernel.batch", points(1, "q_a")),
            kernel.compute_W: ("kernel.compute_W", None, None, errors.CausticInWindow),
            kernel.kernel_eq17: ("kernel.eq17",),
            kernel.kernel: ("kernel.other",),
            kernel.schrodinger_residual: ("kernel.other",),
            specfun.gamma: ("specfun",),
            specfun.bessel_j: ("specfun",),
            specfun.legendre_p: ("specfun",),
            specfun.legendre_p_dx: ("specfun",),
            evolve.propagate_kernel: (
                lambda a, k: "evolve.gaussian" if arg(1, "packet")(a, k).gaussian is not None
                else "evolve.quadrature", None, grid_n),
            evolve.crank_nicolson: ("evolve.cn", lambda a, k: 0, grid_n),
            evolve.time_sliced_oracle: ("evolve.sliced", lambda a, k: int(arg(3, "n_slices")(a, k)), grid_n),
            evolve.compare: ("evolve.other",),
            evolve.uniform_grid: ("evolve.other",),
            cli.main: ("cli.main",),
        }
        wrappers = {f: self.wrap(f, *how) for f, how in funcs.items()}
        modules = (tdho, classical, cli, evolve, freq_profile, kernel, omega_expr, specfun)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and not isinstance(value, type):
                    w = wrappers.get(value)
                    if w is not None:
                        self._patch(module, attr, w)
        self._patch(evolve, "solve_banded", self.counter(evolve.solve_banded))

        profile_classes = [c for c in vars(freq_profile).values()
                           if isinstance(c, type) and issubclass(c, freq_profile.FrequencyProfile)]
        for cls in profile_classes:
            for meth in ("omega_squared", "smooth_omega_squared"):
                if meth in cls.__dict__:
                    self._patch(cls, meth, self.wrap(cls.__dict__[meth], "freq_profile.omega2",
                                                     points(1, "t")))
            if "jump_events" in cls.__dict__:
                self._patch(cls, "jump_events", self.wrap(cls.__dict__["jump_events"], "freq_profile.other"))
        self._patch(classical.FundamentalPair, "state",
                    self.wrap(classical.FundamentalPair.state, "classical.state", points(1, "t")))
        for meth in ("psi", "on_grid"):
            self._patch(evolve.GaussianState, meth, self.wrap(getattr(evolve.GaussianState, meth), "evolve.other"))
        for meth in ("norm", "mean_q", "mean_q2"):
            self._patch(evolve.WavePacket, meth, self.wrap(getattr(evolve.WavePacket, meth), "evolve.other"))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end), "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64), "name": np.frombuffer(self.name, dtype=np.int64),
                "count": np.frombuffer(self.count, dtype=np.int64), "size": np.frombuffer(self.size, dtype=np.int64),
                "flag": np.frombuffer(self.flag, dtype=np.int8)}


# ------------------------------------------------------------- aggregation

def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def n_exponent(sizes, costs) -> float:
    """Least-squares slope of log(median cost per size) against log(size); 0 below two sizes."""
    sizes, costs = np.asarray(sizes), np.asarray(costs)
    distinct = np.unique(sizes)
    if distinct.size < 2:
        return 0.0
    med = np.array([np.median(costs[sizes == n]) for n in distinct])
    return float(np.polyfit(np.log(distinct), np.log(med), 1)[0])


def aggregate(spans: dict) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass, plus diagnostics.

    calls count spans entered from outside their own name (an omega^2
    method that calls another is one evaluation).  The diagnostics hold the
    self time of every span name, the grid sizes behind each exponent, and
    the worst per-op residual of  sum(self times) - op duration,  which is
    zero up to rounding because the op span's self time is the part no
    wrapper covered.
    """
    names = [str(n) for n in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    selfs = self_times(spans["start"], spans["end"], parent) * 1e3
    label = np.array(names + [""], dtype=object)[name]
    has = parent >= 0
    parent_label = np.full(label.shape, None, dtype=object)
    parent_label[has] = label[parent[has]]
    outer = label != parent_label

    def sel(n):
        return label == n

    def self_ms(group):
        return float(sum(selfs[sel(n)].sum() for n in GROUPS[group]))

    def calls(n):
        return int(np.count_nonzero(sel(n) & outer))

    def total(n, field="count"):
        return int(spans[field][sel(n) & outer].sum())

    m = {
        "freq_profile.calls": calls("freq_profile.omega2"),
        "freq_profile.points": total("freq_profile.omega2"),
        "freq_profile.self_ms": self_ms("freq_profile"),
        "classical.solve.calls": calls("classical.solve"),
        "classical.solve.self_ms": self_ms("classical.solve"),
        "classical.state.calls": calls("classical.state"),
        "classical.state.points": total("classical.state"),
        "classical.state.self_ms": self_ms("classical.state"),
        "kernel.robust.calls": calls("kernel.robust"),
        "kernel.robust.self_ms": self_ms("kernel.robust"),
        "kernel.batch.points": total("kernel.batch"),
        "kernel.batch.self_ms": self_ms("kernel.batch"),
        "kernel.compute_W.calls": calls("kernel.compute_W"),
        "kernel.compute_W.refusals": int(np.count_nonzero(sel("kernel.compute_W") & (spans["flag"] == REFUSED))),
        "kernel.compute_W.self_ms": self_ms("kernel.compute_W"),
        "specfun.calls": calls("specfun"),
        "specfun.self_ms": self_ms("specfun"),
        "evolve.gaussian.calls": calls("evolve.gaussian"),
        "evolve.gaussian.self_ms": self_ms("evolve.gaussian"),
        "evolve.quadrature.calls": calls("evolve.quadrature"),
        "evolve.quadrature.self_ms": self_ms("evolve.quadrature"),
        "evolve.cn.steps": total("evolve.cn"),
        "evolve.cn.self_ms": self_ms("evolve.cn"),
        "evolve.sliced.slices": total("evolve.sliced"),
        "evolve.sliced.self_ms": self_ms("evolve.sliced"),
        "cli.main.calls": calls("cli.main"),
        "cli.self_ms": self_ms("cli"),
    }
    quad, cn = sel("evolve.quadrature"), sel("evolve.cn") & (spans["count"] > 0)
    m["evolve.quadrature.n_exponent"] = n_exponent(spans["size"][quad], selfs[quad])
    # CN cost per step, so windows of different length compare
    m["evolve.cn.n_exponent"] = n_exponent(spans["size"][cn], selfs[cn] / np.maximum(spans["count"][cn], 1))

    ops = spans["op"]
    is_op = sel(OP)
    residual = 0.0
    if is_op.any():
        per_op = np.zeros(int(ops.max()) + 1)
        np.add.at(per_op, ops[ops >= 0], selfs[ops >= 0])
        dur = (np.asarray(spans["end"]) - np.asarray(spans["start"]))[is_op] * 1e3
        residual = float(np.max(np.abs(per_op[ops[is_op]] - dur)))
    diag = {
        "self_ms_by_span": {n: float(selfs[sel(n)].sum()) for n in sorted(set(names))},
        "uncovered_ms": float(selfs[is_op].sum()),
        "quadrature_sizes": sorted(int(n) for n in np.unique(spans["size"][quad])),
        "cn_sizes": sorted(int(n) for n in np.unique(spans["size"][cn])),
        "identity_residual_ms": residual,
        "spans": int(len(name)),
    }
    return m, diag

