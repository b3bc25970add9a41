"""Tiny expression language for coefficients, data and terminal conditions.

Grammar (infix, case-sensitive):

    variables   t, v, x1, x2, ..., w1, w2, ...
    constants   decimal literals (1, 0.5, 2.5e-3)
    operators   + - * / ^   with ^ right-associative and binding tighter
                than unary minus, so -x1^2 means -(x1^2)
    functions   sin cos exp sqrt abs tanh  (one argument)
                min max                    (two arguments)

`parse` produces a small AST, `print_expression` renders it back with minimal
parentheses such that parse(print_expression(parse(s))) == parse(s), and
`evaluate` binds variables to scalars or numpy arrays.  Parse errors carry the
byte offset of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

FUNCTIONS_1 = ("sin", "cos", "exp", "sqrt", "abs", "tanh")
FUNCTIONS_2 = ("min", "max")
_VAR_PATTERN = re.compile(r"^(t|v|x[1-9][0-9]*|w[1-9][0-9]*)$")


class ExprParseError(ValueError):
    """Malformed source; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class ExprEvalError(ValueError):
    """Evaluation failed: unbound variable or non-finite result."""


# -- AST -----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Num | Var | Unary | Bin | Call


# -- tokenizer -----------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # num ident op end
    text: str
    offset: int


_NUM_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^(),")


def _byte_offset(src: str, pos: int) -> int:
    return len(src[:pos].encode("utf-8"))


def _tokenize(src: str) -> Iterator[_Token]:
    pos = 0
    n = len(src)
    while pos < n:
        ch = src[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        m = _NUM_RE.match(src, pos)
        if m:
            yield _Token("num", m.group(), _byte_offset(src, pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(src, pos)
        if m:
            yield _Token("ident", m.group(), _byte_offset(src, pos))
            pos = m.end()
            continue
        if ch in _OPS:
            yield _Token("op", ch, _byte_offset(src, pos))
            pos += 1
            continue
        raise ExprParseError(f"unexpected character {ch!r}", _byte_offset(src, pos))
    yield _Token("end", "", _byte_offset(src, n))


# -- parser ---------------------------------------------------------------------

# binding powers: additive 10, multiplicative 20, unary minus 25, power 30
_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = list(_tokenize(src))
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            got = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ExprParseError(f"expected {text!r}, got {got}", tok.offset)
        return self.advance()

    def parse(self) -> Node:
        tok = self.peek()
        if tok.kind == "end":
            raise ExprParseError("empty expression", tok.offset)
        node = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ExprParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return node

    def expression(self, min_bp: int) -> Node:
        node = self.prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _LBP:
                break
            lbp = _LBP[tok.text]
            if lbp <= min_bp:
                break
            self.advance()
            # ^ is right-associative: recurse with its own lbp minus one
            rbp = lbp - 1 if tok.text == "^" else lbp
            right = self.expression(rbp)
            node = Bin(tok.text, node, right)
        return node

    def prefix(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            return self.ident(tok)
        if tok.kind == "op" and tok.text == "-":
            return Unary("-", self.expression(_UNARY_BP))
        if tok.kind == "op" and tok.text == "(":
            node = self.expression(0)
            self.expect_op(")")
            return node
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ExprParseError(f"expected a value, got {got}", tok.offset)

    def ident(self, tok: _Token) -> Node:
        name = tok.text
        nxt = self.peek()
        is_call = nxt.kind == "op" and nxt.text == "("
        if name in FUNCTIONS_1 or name in FUNCTIONS_2:
            if not is_call:
                raise ExprParseError(f"function {name!r} used without arguments", tok.offset)
            self.advance()
            args = [self.expression(0)]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.advance()
                args.append(self.expression(0))
            self.expect_op(")")
            want = 1 if name in FUNCTIONS_1 else 2
            if len(args) != want:
                raise ExprParseError(
                    f"function {name!r} takes {want} argument(s), got {len(args)}", tok.offset
                )
            return Call(name, tuple(args))
        if is_call:
            raise ExprParseError(f"unknown function {name!r}", tok.offset)
        if not _VAR_PATTERN.match(name):
            raise ExprParseError(f"unknown variable {name!r}", tok.offset)
        return Var(name)


def parse(src: str) -> Node:
    return _Parser(src).parse()


def expression_variables(node: Node) -> set[str]:
    """Names of all variables appearing in the tree."""
    match node:
        case Num():
            return set()
        case Var(name):
            return {name}
        case Unary(_, operand):
            return expression_variables(operand)
        case Bin(_, left, right):
            return expression_variables(left) | expression_variables(right)
        case Call(_, args):
            out: set[str] = set()
            for arg in args:
                out |= expression_variables(arg)
            return out
    raise TypeError(f"not an expression node: {node!r}")


# -- canonical printer -----------------------------------------------------------


def _prec(node: Node) -> int:
    match node:
        case Bin(op, _, _):
            return _LBP[op]
        case Unary():
            return _UNARY_BP
        case Num(v) if v < 0 or (v == 0 and np.signbit(v)):
            return _UNARY_BP
        case _:
            return 100


def _wrap(text: str, need: bool) -> str:
    return f"({text})" if need else text


def print_expression(node: Node) -> str:
    """Render with minimal parentheses; reparsing gives back the same tree."""
    match node:
        case Num(v):
            return repr(float(v))
        case Var(name):
            return name
        case Unary(op, operand):
            inner = print_expression(operand)
            return op + _wrap(inner, _prec(operand) < _UNARY_BP)
        case Bin(op, left, right):
            lbp = _LBP[op]
            lt = print_expression(left)
            rt = print_expression(right)
            if op == "^":
                lt = _wrap(lt, _prec(left) <= lbp)
                rt = _wrap(rt, _prec(right) < lbp - 1)
            else:
                lt = _wrap(lt, _prec(left) < lbp)
                rt = _wrap(rt, _prec(right) <= lbp)
            return f"{lt}{op}{rt}"
        case Call(func, args):
            return f"{func}({','.join(print_expression(a) for a in args)})"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation -------------------------------------------------------------------

_FUNC_IMPL = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
    "min": np.minimum,
    "max": np.maximum,
}


def _eval(node: Node, env: Mapping[str, object]):
    match node:
        case Num(v):
            return v
        case Var(name):
            try:
                return env[name]
            except KeyError:
                raise ExprEvalError(f"unbound variable {name!r}") from None
        case Unary("-", operand):
            return -_eval(operand, env)
        case Bin(op, left, right):
            lv = _eval(left, env)
            rv = _eval(right, env)
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            if op == "/":
                return np.divide(lv, rv)
            if op == "^":
                return np.power(lv, rv)
        case Call(func, args):
            return _FUNC_IMPL[func](*(_eval(a, env) for a in args))
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Node, env: Mapping[str, object]):
    """Evaluate with numpy semantics; results must be finite everywhere.

    Scalar inputs give a float back; array inputs broadcast.
    """
    with np.errstate(all="ignore"):
        out = _eval(node, env)
    arr = np.asarray(out, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ExprEvalError(f"expression produced a non-finite value: {print_expression(node)}")
    if arr.ndim == 0:
        return float(arr)
    return arr
