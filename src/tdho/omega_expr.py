"""Parser and evaluator for omega^2(t) expressions.

Small arithmetic language over one free variable t.  Atoms are finite
number literals, t, named constants, f(expr, ...) calls of the functions in
FUNCTIONS, and (expr).  The operators and their binding strengths are the
table _PREC, which both parse and to_string read:

    + -     1   left-associative
    * /     2   left-associative
    - x     3   unary minus, so -t^2 is -(t^2) and -2*t is (-2)*t
    ^       4   right-associative; its right operand may start with a
                minus, so t^-2 and 2^-3^2 parse

Named constants are inlined as number literals at parse time, so an ExprNode
never refers to anything except t.  Unary minus applied to a number literal is
folded into the literal, which keeps to_string/parse an exact structural
round trip.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, NonFiniteError, ParseError, UnknownIdentifierError

__all__ = ["ExprNode", "Num", "TimeVar", "Neg", "BinOp", "Call", "parse", "evaluate", "to_string"]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class Neg:
    child: "ExprNode"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["ExprNode", ...]


ExprNode = Union[Num, TimeVar, Neg, BinOp, Call]


def sech(x):
    """1/cosh(x) without overflow for large |x|."""
    e = np.exp(-np.abs(x))
    return 2.0 * e / (1.0 + e * e)


# every callable: its arity and its numpy function.  pow is the only binary
# one (x^y is usually written with the operator, pow(x,y) exists for
# generated configs)
FUNCTIONS = {
    "sin": (1, np.sin), "cos": (1, np.cos), "exp": (1, np.exp), "log": (1, np.log),
    "sqrt": (1, np.sqrt), "tanh": (1, np.tanh), "cosh": (1, np.cosh), "sech": (1, sech),
    "abs": (1, np.abs), "pow": (2, np.power),
}
# binding strength of each operator, "neg" being unary minus; atoms bind at 5
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S)"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tokens, last one first, so that pop() takes the
    next token.  An operator's kind is its own text."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.group() if m.lastgroup == "op" else m.lastgroup, m.group(), m.start()))
    return [("end", "", len(src))] + tokens[::-1]


def _right_min(op: str) -> int:
    """The least binding strength of op's right operand: ^ is
    right-associative, the other binary operators left-associative."""
    return _PREC[op] + (op != "^")


def _unexpected(token: tuple[str, str, int], expected: str) -> ParseError:
    kind, text, pos = token
    return ParseError("unexpected end of input" if kind == "end" else f"unexpected {text!r}", pos, expected)


def _expr(tokens: list, constants: dict[str, float], min_prec: int = 1) -> ExprNode:
    """Precedence climbing: a prefix minus or an atom, then each binary
    operator that binds at least min_prec, with its right operand."""
    if tokens[-1][0] == "-":
        tokens.pop()
        node = _expr(tokens, constants, _PREC["neg"])
        # fold -literal so that printed negative numbers reparse to the same tree
        node = Num(-node.value) if isinstance(node, Num) else Neg(node)
    else:
        node = _atom(tokens, constants)
    while tokens[-1][0] in _OPS and _PREC[tokens[-1][0]] >= min_prec:
        op = tokens.pop()[0]
        node = BinOp(op, node, _expr(tokens, constants, _right_min(op)))
    return node


def _close(tokens: list) -> None:
    if tokens[-1][0] != ")":
        raise _unexpected(tokens[-1], "')'")
    tokens.pop()


def _atom(tokens: list, constants: dict[str, float]) -> ExprNode:
    kind, text, pos = token = tokens.pop()
    if kind == "num":
        value = float(text)
        if not math.isfinite(value):
            raise ParseError(f"number {text!r} overflows a float", pos)
        return Num(value)
    if kind == "(":
        node = _expr(tokens, constants)
        _close(tokens)
        return node
    if kind != "ident":
        raise _unexpected(token, "an operand")
    if text in FUNCTIONS:
        if tokens[-1][0] != "(":
            raise ParseError(f"function {text!r} must be called", tokens[-1][2], expected="'('")
        tokens.pop()
        args = [_expr(tokens, constants)]
        while tokens[-1][0] == ",":
            tokens.pop()
            args.append(_expr(tokens, constants))
        _close(tokens)
        arity = FUNCTIONS[text][0]
        if len(args) != arity:
            raise ParseError(f"{text} takes {arity} argument(s), got {len(args)}", pos)
        return Call(text, tuple(args))
    if text == "t":
        return TimeVar()
    if text in constants:
        value = float(constants[text])
        if not math.isfinite(value):
            raise DomainError(f"constant {text!r} is {value}; constants must be finite")
        return Num(value)
    raise UnknownIdentifierError(text, pos)


def parse(src: str, constants: dict[str, float] | None = None) -> ExprNode:
    """Parse src into an ExprNode, inlining constants as literals.

    Raises ParseError (with .position byte offset), UnknownIdentifierError,
    and DomainError for a constant named t or one that is not finite.
    """
    constants = dict(constants or {})
    if "t" in constants:
        raise DomainError("'t' is the time variable and cannot be bound as a constant")
    tokens = _tokenize(src)
    node = _expr(tokens, constants)
    kind, text, pos = tokens[-1]
    if kind != "end":
        raise ParseError(f"unexpected {text!r} after expression", pos, expected="end of input")
    return node


def evaluate(node: ExprNode, t: float | np.ndarray) -> float | np.ndarray:
    """Evaluate node at time t, a float or an ndarray of times.

    A float gives a numpy float, an array an array of t's shape, a constant
    expression included.  Raises NonFiniteError when any operation gives
    inf or nan (a division by zero, an overflow, a domain fault), naming the
    first time at which one does.
    """
    t = np.asarray(t, dtype=float)
    faults = np.zeros(t.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = np.broadcast_to(_eval(node, t, faults), t.shape).astype(float)
    if np.any(faults):
        raise NonFiniteError(float(t.flat[np.argmax(faults)]), "an operation gave inf or nan")
    return value[()]


def _eval(node: ExprNode, t: np.ndarray, faults: np.ndarray):
    """node's value at t; sets faults wherever an operation gives inf or nan."""
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, Neg):
        value = -_eval(node.child, t, faults)
    elif isinstance(node, BinOp):
        value = _OPS[node.op](_eval(node.left, t, faults), _eval(node.right, t, faults))
    elif isinstance(node, Call):
        value = FUNCTIONS[node.func][1](*(_eval(arg, t, faults) for arg in node.args))
    else:
        raise TypeError(f"not an ExprNode: {node!r}")
    faults |= ~np.isfinite(value)
    return value


def _prec(node: ExprNode) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    # a negative literal prints with its minus; repr covers -0.0, which `< 0` misses
    if isinstance(node, Neg) or (isinstance(node, Num) and repr(node.value).startswith("-")):
        return _PREC["neg"]
    return 5


def to_string(node: ExprNode) -> str:
    """Render with minimal parentheses; parse(to_string(n)) reproduces n exactly."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, Neg):
        child = to_string(node.child)
        return f"-({child})" if _prec(node.child) < _PREC["neg"] else f"-{child}"
    if isinstance(node, Call):
        return f"{node.func}({','.join(to_string(a) for a in node.args)})"
    if isinstance(node, BinOp):
        left, right = to_string(node.left), to_string(node.right)
        # a left operand binds at least as tightly as op (more tightly under
        # ^); a right operand binds as the parser requires, or starts with a
        # minus, which the parser takes wherever an operand starts
        if _prec(node.left) < _PREC[node.op] + (node.op == "^"):
            left = f"({left})"
        if _prec(node.right) < _right_min(node.op) and _prec(node.right) != _PREC["neg"]:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an ExprNode: {node!r}")
