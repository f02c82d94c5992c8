"""Parser and evaluator for omega^2(t) expressions.

Small arithmetic language over one free variable t.  Grammar, in decreasing
binding strength:

    atoms:  numbers, t, named constants, f(expr), (expr)
    ^       right-associative
    - x     unary minus (binds looser than ^, so -t^2 is -(t^2))
    * /
    + -

Named constants are inlined as number literals at parse time, so an ExprNode
never refers to anything except t.  Unary minus applied to a number literal is
folded into the literal, which keeps to_string/parse an exact structural
round trip.
"""

from __future__ import annotations

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

# arity of every callable; pow is the only binary one (x^y is usually written
# with the operator, pow(x,y) exists for generated configs)
FUNCTIONS = {
    "sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1,
    "tanh": 1, "cosh": 1, "sech": 1, "abs": 1, "pow": 2,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            # skip over any trailing whitespace before complaining
            stripped = src[pos:].lstrip()
            at = len(src) - len(stripped)
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


def _neg(node: ExprNode) -> ExprNode:
    # fold -literal so that printed negative numbers reparse to the same tree
    if isinstance(node, Num):
        return Num(-node.value)
    return Neg(node)


class _Parser:
    def __init__(self, src: str, constants: dict[str, float]):
        self.src = src
        self.constants = constants
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"unexpected {text!r}" if kind != "end" else "unexpected end of input",
                             pos, expected=repr(op))
        return self.next()

    # additive level (+ -), then multiplicative (* /), then unary, then power
    def parse_sum(self) -> ExprNode:
        node = self.parse_product()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = BinOp(text, node, self.parse_product())
            else:
                return node

    def parse_product(self) -> ExprNode:
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = BinOp(text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> ExprNode:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return _neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> ExprNode:
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            # right-assoc, and the exponent may carry a unary minus: t^-2
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> ExprNode:
        kind, text, pos = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self.parse_sum()
            self.expect_op(")")
            return node
        if kind == "ident":
            if text in FUNCTIONS:
                nk, nt, npos = self.peek()
                if nk == "op" and nt == "(":
                    return self.parse_call(text, pos)
                raise ParseError(f"function {text!r} must be called", npos, expected="'('")
            if text == "t":
                return TimeVar()
            if text in self.constants:
                return Num(float(self.constants[text]))
            raise UnknownIdentifierError(text, pos)
        if kind == "end":
            raise ParseError("unexpected end of input", pos, expected="an operand")
        raise ParseError(f"unexpected {text!r}", pos, expected="an operand")

    def parse_call(self, func: str, pos: int) -> ExprNode:
        self.expect_op("(")
        args = [self.parse_sum()]
        while True:
            kind, text, p = self.peek()
            if kind == "op" and text == ",":
                self.next()
                args.append(self.parse_sum())
            else:
                break
        self.expect_op(")")
        arity = FUNCTIONS[func]
        if len(args) != arity:
            raise ParseError(f"{func} takes {arity} argument(s), got {len(args)}", pos)
        return Call(func, tuple(args))


def parse(src: str, constants: dict[str, float] | None = None) -> ExprNode:
    """Parse src into an ExprNode, inlining constants as literals.

    Raises ParseError (with .position byte offset), UnknownIdentifierError.
    """
    constants = dict(constants or {})
    if "t" in constants:
        raise DomainError("'t' is the time variable and cannot be bound as a constant")
    p = _Parser(src, constants)
    node = p.parse_sum()
    kind, text, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected {text!r} after expression", pos, expected="end of input")
    return node


def sech(x):
    """1/cosh(x) without overflow for large |x|."""
    e = np.exp(-np.abs(x))
    return 2.0 * e / (1.0 + e * e)


# the functions callable in an expression, and the binary operators
_FN = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "tanh": np.tanh, "cosh": np.cosh, "sech": sech,
    "abs": np.abs, "pow": np.power,
}
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


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
        value = _FN[node.func](*(_eval(arg, t, faults) for arg in node.args))
    else:
        raise TypeError(f"not an ExprNode: {node!r}")
    faults |= ~np.isfinite(value)
    return value


# printing precedence; atoms sit above everything
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prints_negative(node: ExprNode) -> bool:
    # covers -0.0 as well, which `< 0` would miss
    return isinstance(node, Num) and repr(node.value).startswith("-")


def _prec(node: ExprNode) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg) or _prints_negative(node):
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
        if _prec(node.child) < _PREC["neg"]:
            child = f"({child})"
        return f"-{child}"
    if isinstance(node, Call):
        return f"{node.func}({','.join(to_string(a) for a in node.args)})"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        left = to_string(node.left)
        right = to_string(node.right)
        if node.op == "^":
            # right-assoc: parenthesize an operator-left-child, keep t^-2 bare
            if _prec(node.left) <= p:
                left = f"({left})"
            if _prec(node.right) < p and not isinstance(node.right, Neg) \
                    and not _prints_negative(node.right):
                right = f"({right})"
        else:
            if _prec(node.left) < p:
                left = f"({left})"
            if _prec(node.right) <= p:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an ExprNode: {node!r}")
