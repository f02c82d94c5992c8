import math

import numpy as np
import pytest

import oracles
from tdho.errors import DomainError, NonFiniteError, ParseError, UnknownIdentifierError
from tdho import omega_expr
from tdho.classical import solve_fundamental
from tdho.freq_profile import Expression
from tdho.omega_expr import BinOp, Call, Num, Neg, TimeVar, evaluate, parse, to_string


def test_constants_are_inlined():
    node = parse("w0^2*exp(-a*t)", {"w0": 1.0, "a": 1.0})
    for t in (0.0, 0.3, 1.0, 2.5):
        assert evaluate(node, t) == math.exp(-t)
    # no identifier survives into the tree
    assert "w0" not in to_string(node) and "a" not in to_string(node)


def test_malformed_operator_offset():
    with pytest.raises(ParseError) as exc:
        parse("2*+")
    assert exc.value.position == 2


def test_unary_minus_binds_below_power():
    assert evaluate(parse("-t^2"), 2.0) == -4.0
    assert evaluate(parse("-2^2"), 0.0) == -4.0
    assert evaluate(parse("2^-2"), 0.0) == 0.25
    assert evaluate(parse("2^-3^2"), 0.0) == 2.0 ** -9


def test_exponent_examples():
    assert evaluate(parse("cosh(t)^-2"), 0.0) == 1.0
    assert evaluate(parse("t^1.5"), 4.0) == 8.0


def test_precedence_pins():
    assert evaluate(parse("2+3*4^2"), 0.0) == 50.0
    assert evaluate(parse("2^3^2"), 0.0) == 512.0
    assert evaluate(parse("6/3/2"), 0.0) == 1.0


def test_division_by_zero_is_nonfinite():
    node = parse("1/(t-1)")
    with pytest.raises(NonFiniteError) as exc:
        evaluate(node, 1.0)
    assert exc.value.t == 1.0
    assert evaluate(node, 2.0) == 1.0


def test_overflow_and_domain_faults():
    with pytest.raises(NonFiniteError):
        evaluate(parse("exp(t)"), 1e6)
    with pytest.raises(NonFiniteError):
        evaluate(parse("log(t)"), -1.0)
    with pytest.raises(NonFiniteError):
        evaluate(parse("sqrt(t)"), -4.0)


def test_sech_does_not_overflow():
    assert evaluate(parse("sech(t)"), 0.0) == 1.0
    assert evaluate(parse("sech(t)"), 1000.0) == 0.0
    assert evaluate(parse("sech(t)^2"), 800.0) == 0.0


def test_unknown_identifier_carries_name_and_position():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("foo + t")
    assert exc.value.name == "foo"
    assert exc.value.position == 0
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("t + bar")
    assert exc.value.name == "bar"
    assert exc.value.position == 4


def test_call_arity_checked():
    with pytest.raises(ParseError):
        parse("pow(t)")
    with pytest.raises(ParseError):
        parse("sin(t, 1)")
    assert evaluate(parse("pow(t, 3)"), 2.0) == 8.0


def test_function_requires_call_syntax():
    with pytest.raises(ParseError):
        parse("sin + 1")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError) as exc:
        parse("t t")
    assert exc.value.position == 2
    assert "end of input" in exc.value.expected


def test_misc_parse_errors():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("(t+1")
    with pytest.raises(ParseError) as exc:
        parse("2 $ 3")
    assert exc.value.position == 2


@pytest.mark.parametrize("src, position, expected", [
    ("sin + 1", 4, "'('"),
    ("(t+1", 4, "')'"),
    ("pow(t)", 0, ""),
    ("sin(t, 1)", 0, ""),
    ("2^", 2, "an operand"),
    ("-", 1, "an operand"),
    (")", 0, "an operand"),
    ("t,", 1, "end of input"),
    ("", 0, "an operand"),
])
def test_parse_error_pins(src, position, expected):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert type(exc.value) is ParseError
    assert (exc.value.position, exc.value.expected) == (position, expected)


def test_t_cannot_be_a_constant():
    with pytest.raises(DomainError):
        parse("t+1", {"t": 2.0})


def test_number_token_forms():
    assert evaluate(parse(".5*t"), 2.0) == 1.0
    assert evaluate(parse("5."), 0.0) == 5.0
    assert evaluate(parse("1e-2 + 2E+1"), 0.0) == 20.01


def test_signed_zero_survives_round_trip():
    s = to_string(Num(-0.0))
    assert s == "-0.0"
    node = parse(s)
    assert isinstance(node, Num)
    assert math.copysign(1.0, node.value) == -1.0
    assert math.copysign(1.0, parse("0.0").value) == 1.0


def _walk_nums(node):
    if isinstance(node, Num):
        yield node.value
    elif isinstance(node, Neg):
        yield from _walk_nums(node.child)
    elif isinstance(node, BinOp):
        yield from _walk_nums(node.left)
        yield from _walk_nums(node.right)
    elif isinstance(node, Call):
        for a in node.args:
            yield from _walk_nums(a)


def _random_tree(rng, depth):
    # Neg(Num) never comes out of the parser (it folds), so don't generate it
    if depth <= 0:
        if rng.random() < 0.5:
            return TimeVar()
        return Num(float(rng.uniform(-3.0, 3.0)))
    r = rng.random()
    if r < 0.15:
        return TimeVar()
    if r < 0.30:
        return Num(float(rng.uniform(-3.0, 3.0)))
    if r < 0.42:
        child = _random_tree(rng, depth - 1)
        while isinstance(child, Num):
            child = _random_tree(rng, depth - 1)
        return Neg(child)
    if r < 0.62:
        fn = ("sin", "cos", "exp", "tanh", "cosh", "sech", "abs")[rng.integers(7)]
        return Call(fn, (_random_tree(rng, depth - 1),))
    op = "+-*/^"[rng.integers(5)]
    return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_random_tree_round_trip_is_structural():
    rng = np.random.default_rng(20260816)
    for _ in range(300):
        tree = _random_tree(rng, 4)
        back = parse(to_string(tree))
        assert back == tree
        # dataclass == treats -0.0 and 0.0 alike; compare leaf signs too
        for a, b in zip(_walk_nums(tree), _walk_nums(back)):
            assert math.copysign(1.0, a) == math.copysign(1.0, b)


def test_random_sources_match_independent_evaluator():
    rng = np.random.default_rng(20260817)
    n_checked = 0
    while n_checked < 200:
        src = to_string(_random_tree(rng, 3))
        t = float(rng.uniform(-2.0, 3.0))
        try:
            want = oracles.shunting_yard_eval(src, t)
        except (ValueError, OverflowError, ZeroDivisionError, ArithmeticError):
            with pytest.raises(NonFiniteError):
                evaluate(parse(src), t)
            continue
        got = evaluate(parse(src), t)
        ulp = math.ulp(max(abs(got), abs(want), 1e-300))
        assert abs(got - want) <= 2.0 * ulp, (src, t, got, want)
        n_checked += 1


def test_round_trip_idempotent_on_pinned_sources():
    for src in ("w0^2*exp(-a*t)", "-t^2", "cosh(t)^-2", "2+3*4^2",
                "t^-2", "pow(t,2)/(1+t^2)", "-(t+1)*-(t-1)"):
        node = parse(src, {"w0": 2.0, "a": 0.5})
        assert parse(to_string(node)) == node


@pytest.mark.parametrize("src, position", [("1e999", 0), ("2*1e400", 2), ("t + 5.3e400*t", 4)])
def test_non_finite_literal_is_refused_at_its_offset(src, position):
    # a literal that overflows to inf would print as "inf", which does not re-parse
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert type(exc.value) is ParseError
    assert exc.value.position == position


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_constant_is_refused_by_name(value):
    with pytest.raises(DomainError, match="'w0'"):
        parse("w0^2*t", {"w0": value, "a": 1.0})


# ---------------------------------------------------------------- depth limit

# sources past the depth limit m, and the offset of the first token past it
TOO_DEEP = {
    "parens": ("(" * 600 + "t" + ")" * 600, lambda m: m),
    "minuses": ("-" * 1000 + "t", lambda m: m),
    "sum": ("+".join(["t"] * 1000), lambda m: 2 * m - 1),  # the "+" making it too deep
    "power": ("^".join(["t"] * 1000), lambda m: 2 * m),
}


@pytest.mark.parametrize("shape", TOO_DEEP)
def test_too_deep_a_tree_is_refused_at_its_token(shape):
    src, position = TOO_DEEP[shape]
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert type(exc.value) is ParseError
    assert exc.value.position == position(omega_expr._MAX_DEPTH)


def test_a_sum_at_the_depth_limit_parses_evaluates_and_round_trips():
    m = omega_expr._MAX_DEPTH
    src = "+".join(["t"] * m)
    node = parse(src)
    assert evaluate(node, 0.5) == 0.5 * m
    assert parse(to_string(node)) == node
    with pytest.raises(ParseError):
        parse(src + "+t")


def test_a_tree_at_the_depth_limit_is_safe_inside_the_solver():
    # calls recurse the most frames per level in parse, repr and ==
    m = omega_expr._MAX_DEPTH
    src = "pow(" * (m - 1) + "t" + ",1)" * (m - 1)
    node = parse(src)
    assert repr(node).count("Call") == m - 1
    assert parse(to_string(node)) == node
    pair = solve_fundamental(Expression(node), 0.0, 1.0)
    assert pair.wronskian_drift < 1e-12
