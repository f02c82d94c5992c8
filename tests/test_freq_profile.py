import dataclasses
import math

import numpy as np
import pytest

from tdho import omega_expr
from tdho.errors import DomainError, EvalAtImpulse, NonFiniteError
from tdho.freq_profile import (
    Constant, DeltaPulse, ExpDecay, Expression, JumpEvent, PowerLaw,
    SechSquared, Tabulated, jump_events, omega_squared_at, profile_from_json,
)


def test_pinned_pointwise_values():
    assert omega_squared_at(Constant(2.0), 5.0) == 4.0
    assert omega_squared_at(ExpDecay(1.0, 1.0), 0.0) == 1.0
    assert omega_squared_at(DeltaPulse(1.0, 0.0), 1.0) == 1.0
    assert omega_squared_at(SechSquared(2.0, 1.0, 0.0), 0.0) == 4.0


def test_delta_pulse_step_is_right_continuous():
    p = DeltaPulse(2.0, 0.5)
    assert omega_squared_at(p, 0.4999) == 0.0
    assert omega_squared_at(p, 0.5001) == 16.0
    # theta(0) = 1 on the smooth part; the pointwise value at t0 is undefined
    assert p.smooth_omega_squared(0.5) == 16.0
    with pytest.raises(EvalAtImpulse) as exc:
        omega_squared_at(p, 0.5)
    assert exc.value.t == 0.5
    # a zero-strength pulse is just the zero profile
    z = DeltaPulse(0.0, 0.5)
    assert omega_squared_at(z, 0.5) == 0.0
    assert jump_events(z, 0.0, 1.0) == []


def test_jump_events_window_is_half_open():
    p = DeltaPulse(2.0, 0.5)
    assert jump_events(p, 0.0, 1.0) == [JumpEvent(0.5, 4.0)]
    assert jump_events(p, 0.5, 1.0) == []          # open at the left
    assert jump_events(p, 0.0, 0.5) == [JumpEvent(0.5, 4.0)]  # closed at the right
    assert jump_events(p, 0.6, 1.0) == []
    assert jump_events(Constant(1.0), 0.0, 1.0) == []
    with pytest.raises(DomainError):
        jump_events(Constant(1.0), 1.0, 1.0)


def test_exp_decay_multiplicative():
    p = ExpDecay(1.3, 0.7)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t, s = rng.uniform(-2, 4, size=2)
        a = omega_squared_at(p, t + s)
        b = omega_squared_at(p, t) * math.exp(-p.alpha * s)
        assert math.isclose(a, b, rel_tol=1e-14)


def test_power_law_beta_zero_is_constant():
    p = PowerLaw(0.8, 1.7, 0.0)
    for t in (0.0, 0.3, 2.0, 17.0):
        assert omega_squared_at(p, t) == 0.8 ** 2


def test_power_law_domain():
    p = PowerLaw(1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        omega_squared_at(p, -0.1)
    assert omega_squared_at(p, 0.0) == 0.0
    q = PowerLaw(1.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        omega_squared_at(q, 0.0)
    assert omega_squared_at(q, 4.0) == 0.5


def test_power_law_scaling_constant():
    # omega^2 = (omega0 alpha^beta)^2 t^beta
    p = PowerLaw(2.0, 3.0, 2.0)
    assert omega_squared_at(p, 1.0) == pytest.approx((2.0 * 9.0) ** 2, rel=1e-15)


def test_constructor_validation():
    with pytest.raises(DomainError):
        Constant(-1.0)
    with pytest.raises(DomainError):
        Constant(math.nan)
    with pytest.raises(DomainError):
        ExpDecay(1.0, 0.0)
    with pytest.raises(DomainError):
        ExpDecay(-1.0, 1.0)
    with pytest.raises(DomainError):
        PowerLaw(1.0, 1.0, -2.0)
    with pytest.raises(DomainError):
        PowerLaw(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        DeltaPulse(1.0, math.inf)
    with pytest.raises(DomainError):
        SechSquared(math.nan, 1.0, 0.0)


def test_tabulated_reproduces_nodes():
    t = np.linspace(0.0, 2.0, 9)
    w2 = 1.0 + np.sin(t) ** 2
    for interp in ("cubic", "linear"):
        p = Tabulated(t, w2, interp=interp)
        got = np.array([omega_squared_at(p, ti) for ti in t])
        np.testing.assert_allclose(got, w2, rtol=0, atol=1e-15)


def test_tabulated_three_point_cubic_and_linear():
    p = Tabulated(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]))
    assert omega_squared_at(p, 1.0) == pytest.approx(2.0, abs=1e-15)
    q = Tabulated(np.array([0.0, 1.0]), np.array([1.0, 3.0]), interp="linear")
    assert omega_squared_at(q, 0.25) == pytest.approx(1.5, rel=1e-15)


def test_tabulated_refuses_extrapolation():
    p = Tabulated(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]))
    with pytest.raises(DomainError):
        omega_squared_at(p, -0.001)
    with pytest.raises(DomainError):
        omega_squared_at(p, 2.001)


def test_tabulated_validation():
    with pytest.raises(DomainError):
        Tabulated(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DomainError):
        Tabulated(np.array([0.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        Tabulated(np.array([0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DomainError):
        Tabulated(np.array([0.0, 1.0]), np.array([1.0, math.nan]))
    with pytest.raises(DomainError):
        Tabulated(np.array([0.0, 1.0]), np.array([1.0, 2.0]), interp="quintic")


def test_expression_profile():
    p = Expression("1+t^2")
    assert omega_squared_at(p, 2.0) == 5.0
    with pytest.raises(NonFiniteError):
        omega_squared_at(Expression("1/t"), 0.0)


def test_json_round_trip_analytic_families():
    profiles = [
        Constant(0.8),
        ExpDecay(1.0, 1.0),
        PowerLaw(0.8, 1.0, 1.0),
        DeltaPulse(0.6, 0.5),
        SechSquared(1.0, 1.0, 0.5),
    ]
    for p in profiles:
        q = profile_from_json(p.to_json())
        assert q == p


def test_json_round_trip_tabulated():
    t = np.linspace(0.0, 1.0, 7)
    p = Tabulated(t, np.cos(t), interp="linear")
    q = profile_from_json(p.to_json())
    assert isinstance(q, Tabulated)
    assert np.array_equal(q.t, p.t) and np.array_equal(q.omega2, p.omega2)
    assert q.interp == "linear"


def test_json_round_trip_expression():
    p = Expression("exp(-t)*2")
    q = profile_from_json(p.to_json())
    assert isinstance(q, Expression)
    assert q.node == p.node


def test_expression_json_with_constants():
    data = {"type": "expression", "expr": "w0^2*exp(-a*t)",
            "constants": {"w0": 2.0, "a": 1.0}}
    p = profile_from_json(data)
    assert omega_squared_at(p, 0.0) == 4.0
    assert omega_squared_at(p, 1.0) == pytest.approx(4.0 * math.exp(-1.0), rel=1e-15)
    # constants are inlined, so the round trip needs none
    q = profile_from_json(p.to_json())
    assert omega_squared_at(q, 1.0) == omega_squared_at(p, 1.0)


@pytest.mark.parametrize("profile, doc", [
    (Constant(0.8), {"type": "constant", "omega0": 0.8}),
    (ExpDecay(1.0, 1.5), {"type": "exp_decay", "omega0": 1.0, "alpha": 1.5}),
    (PowerLaw(0.8, 1.0, 0.5), {"type": "power_law", "omega0": 0.8, "alpha": 1.0, "beta": 0.5}),
    (DeltaPulse(0.6, 0.5), {"type": "delta_pulse", "omega0": 0.6, "t0": 0.5}),
    (SechSquared(1.0, 2.0), {"type": "sech_squared", "alpha": 1.0, "beta": 2.0, "t0": 0.0}),
    (Tabulated([0.0, 0.5, 1.0], [1.0, 2.0, 1.5], interp="linear"),
     {"type": "tabulated", "t": [0.0, 0.5, 1.0], "omega2": [1.0, 2.0, 1.5], "interp": "linear"}),
    (Expression("exp(-t)*2"), {"type": "expression", "expr": "exp(-t)*2.0"}),
], ids=lambda x: x["type"] if isinstance(x, dict) else "")
def test_json_round_trip_keeps_the_key_order(profile, doc):
    assert list(profile.to_json().items()) == list(doc.items())
    assert list(profile_from_json(doc).to_json().items()) == list(doc.items())


def test_json_errors():
    cases = [
        ({"type": "spline"}, "unknown profile type 'spline'"),
        # a non-string or unhashable type is unknown, not a TypeError
        ({"type": ["constant"]}, "unknown profile type ['constant']"),
        ({"type": None}, "unknown profile type None"),
        ({"type": {"constant": 1}}, "unknown profile type {'constant': 1}"),
        ({"omega0": 1.0}, "profile config must be a dict with a 'type' key"),
        ([1, 2], "profile config must be a dict with a 'type' key"),
        ({"type": "exp_decay", "omega0": 1.0}, "bad fields for profile type 'exp_decay': "),
        ({"type": "constant", "omega0": 1.0, "x": 2}, "bad fields for profile type 'constant': "),
        ({"type": "tabulated", "omega2": [1.0, 2.0]}, "missing field for profile type 'tabulated': 't'"),
        ({"type": "expression"}, "missing field for profile type 'expression': 'expr'"),
        # expression takes exactly expr and constants, like the other families
        ({"type": "expression", "expr": "2*t", "interp": "cubic"},
         "bad fields for profile type 'expression': "),
        ({"type": "expression", "expr": "w*t", "contants": {"w": 2.0}},
         "bad fields for profile type 'expression': "),
    ]
    for data, message in cases:
        with pytest.raises(DomainError) as exc:
            profile_from_json(data)
        assert str(exc.value).startswith(message)


def test_tabulated_spline_is_not_a_field_callers_set():
    with pytest.raises(DomainError, match="bad fields for profile type 'tabulated': "):
        profile_from_json({"type": "tabulated", "t": [0, 1], "omega2": [1, 2], "_spline": 3})
    with pytest.raises(TypeError):
        Tabulated(np.array([0.0, 1.0]), np.array([1.0, 2.0]), _spline=3)
    # a two-sample cubic profile interpolates linearly
    assert Tabulated(np.array([0.0, 1.0]), np.array([1.0, 2.0])).omega_squared(0.5) == 1.5


def test_tabulated_and_expression_are_immutable_so_the_spline_stays_their_samples():
    # a reassigned or rewritten omega2 would leave the spline built from the
    # old samples: omega_squared would read 1.0 while to_json read 4.0
    t, w2 = np.linspace(0.0, 1.0, 5), np.ones(5)
    tab = Tabulated(t, w2)
    for name, value in (("t", t), ("omega2", np.full(5, 4.0)), ("interp", "linear")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tab, name, value)
    for a in (tab.t, tab.omega2):
        with pytest.raises(ValueError, match="read-only"):
            a[:] = 9.0
    # the profile holds copies: the caller's arrays stay writable and apart
    w2[:] = 4.0
    t[0] = -1.0
    assert tab.omega_squared(0.5) == 1.0 and tab.t[0] == 0.0
    assert tab.to_json()["omega2"] == [1.0] * 5 and tab.to_json()["t"][0] == 0.0
    # equality is identity: comparing the arrays element-wise would raise
    assert tab == tab and tab != Tabulated(tab.t, tab.omega2)
    expr = Expression("1+t^2")
    with pytest.raises(dataclasses.FrozenInstanceError):
        expr.node = omega_expr.parse("4")
    assert expr == Expression("1+t^2")


def test_sech_squared_far_from_well():
    p = SechSquared(3.0, 2.0, 0.0)
    assert omega_squared_at(p, 400.0) == 0.0  # no cosh overflow
    assert omega_squared_at(p, -400.0) == 0.0
    assert omega_squared_at(p, 0.0) == 9.0


@pytest.mark.parametrize("cls, rest", [(PowerLaw, (1.0, 0.5)), (DeltaPulse, (0.5,))])
@pytest.mark.parametrize("omega0", [-1.0, math.nan, math.inf])
def test_omega0_must_be_finite_and_non_negative(cls, rest, omega0):
    with pytest.raises(DomainError, match="omega0 must be finite and >= 0"):
        cls(omega0, *rest)


def test_expression_from_a_node_prints_it_in_to_json():
    p = Expression(omega_expr.parse("1+t^2"))
    assert p.to_json() == {"type": "expression", "expr": "1.0+t^2.0"}
    assert omega_squared_at(p, 2.0) == 5.0
