"""Expression language tests.

Core claims:
    - literals, variables, and all operators parse to the expected trees
    - ^ is right-associative and binds tighter than unary minus
    - unary minus chains and mixed precedence parse correctly
    - one- and two-argument functions parse and evaluate
    - parse errors carry byte offsets; malformed input never half-parses
    - evaluation matches an independent shunting-yard reference on
      randomized well-formed expressions
    - evaluation broadcasts numpy arrays and rejects unbound variables
    - non-finite results (division by zero, overflow) raise ExprEvalError
    - print_expression emits minimal parentheses with a stable round-trip:
      parse(print(parse(s))) == parse(s) on randomized trees
    - expression_variables lists exactly the used names
"""

import math

import numpy as np
import pytest
from pytest import approx

from bspdelab.expr import (
    Bin,
    Call,
    ExprEvalError,
    ExprParseError,
    Num,
    Unary,
    Var,
    evaluate,
    expression_variables,
    parse,
    print_expression,
)

# -- reference evaluator (shunting yard, written independently of the parser) ----

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_RIGHT = {"^"}
_UNARY_PREC = 3


def _ref_tokens(src):
    import re

    pattern = re.compile(
        r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
        r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
        r"|(?P<op>[-+*/^(),]))"
    )
    pos = 0
    out = []
    while pos < len(src):
        m = pattern.match(src, pos)
        if not m:
            raise ValueError(f"reference tokenizer stuck at {pos}")
        pos = m.end()
        if m.group("num"):
            out.append(("num", float(m.group("num"))))
        elif m.group("ident"):
            out.append(("ident", m.group("ident")))
        else:
            out.append(("op", m.group("op")))
    return out


def _ref_eval(src, env):
    """Shunting-yard to RPN, then a stack machine; scalars only."""
    funcs1 = {
        "sin": math.sin,
        "cos": math.cos,
        "exp": math.exp,
        "sqrt": math.sqrt,
        "abs": abs,
        "tanh": math.tanh,
    }
    funcs2 = {"min": min, "max": max}
    tokens = _ref_tokens(src)
    output, stack = [], []
    prev = None  # previous meaningful token decides unary vs binary minus
    for kind, val in tokens:
        if kind == "num":
            output.append(("num", val))
        elif kind == "ident" and (val in funcs1 or val in funcs2):
            stack.append(("func", val))
        elif kind == "ident":
            output.append(("var", val))
        elif val == "(":
            stack.append(("op", "("))
        elif val == ")":
            while stack and stack[-1] != ("op", "("):
                output.append(stack.pop())
            stack.pop()
            if stack and stack[-1][0] == "func":
                output.append(stack.pop())
        elif val == ",":
            while stack and stack[-1] != ("op", "("):
                output.append(stack.pop())
        else:
            unary = val == "-" and (prev is None or prev in ("(", ",", "+", "-", "*", "/", "^"))
            if unary:
                # unary minus: binds looser than ^, tighter than * /
                while stack and stack[-1][0] == "op" and stack[-1][1] not in "(," and (
                    _PREC.get(stack[-1][1], 0) > _UNARY_PREC
                ):
                    output.append(stack.pop())
                stack.append(("op", "neg"))
            else:
                p = _PREC[val]
                while (
                    stack
                    and stack[-1][0] == "op"
                    and stack[-1][1] not in "(,"
                    and (
                        (stack[-1][1] == "neg" and p <= _UNARY_PREC)
                        or (
                            stack[-1][1] != "neg"
                            and (
                                _PREC[stack[-1][1]] > p
                                or (_PREC[stack[-1][1]] == p and val not in _RIGHT)
                            )
                        )
                    )
                ):
                    output.append(stack.pop())
                stack.append(("op", val))
        prev = val if kind == "op" else kind
    while stack:
        output.append(stack.pop())

    vals = []
    for kind, val in output:
        if kind == "num":
            vals.append(val)
        elif kind == "var":
            vals.append(float(env[val]))
        elif kind == "func":
            if val in funcs2:
                b, a = vals.pop(), vals.pop()
                vals.append(funcs2[val](a, b))
            else:
                vals.append(funcs1[val](vals.pop()))
        elif val == "neg":
            vals.append(-vals.pop())
        else:
            b, a = vals.pop(), vals.pop()
            if val == "+":
                vals.append(a + b)
            elif val == "-":
                vals.append(a - b)
            elif val == "*":
                vals.append(a * b)
            elif val == "/":
                vals.append(a / b)
            else:
                vals.append(a ** b)
    assert len(vals) == 1
    return vals[0]


# -- parse shapes ---------------------------------------------------------------


def test_literals_and_variables():
    assert parse("2.5") == Num(2.5)
    assert parse("2.5e-3") == Num(0.0025)
    assert parse(".5") == Num(0.5)
    assert parse("x1") == Var("x1")
    assert parse("w12") == Var("w12")
    assert parse("t") == Var("t")
    assert parse("v") == Var("v")


def test_precedence_and_associativity():
    assert parse("1 + 2 * 3") == Bin("+", Num(1), Bin("*", Num(2), Num(3)))
    assert parse("2 ^ 3 ^ 2") == Bin("^", Num(2), Bin("^", Num(3), Num(2)))
    assert parse("1 - 2 - 3") == Bin("-", Bin("-", Num(1), Num(2)), Num(3))
    # ^ binds tighter than unary minus
    assert parse("-x1 ^ 2") == Unary("-", Bin("^", Var("x1"), Num(2)))
    assert parse("(-x1) ^ 2") == Bin("^", Unary("-", Var("x1")), Num(2))


def test_function_calls():
    assert parse("sin(x1)") == Call("sin", (Var("x1"),))
    assert parse("max(t, 2)") == Call("max", (Var("t"), Num(2)))
    assert parse("min(sin(t), cos(t))") == Call(
        "min", (Call("sin", (Var("t"),)), Call("cos", (Var("t"),)))
    )


@pytest.mark.parametrize(
    "src",
    [
        "",
        "1 +",
        "sin()",
        "sin(1, 2)",
        "max(1)",
        "1 2",
        "(1",
        "1)",
        "foo(1)",
        "x0",
        "1..2",
        "* 3",
        "1 @ 2",
    ],
)
def test_parse_errors(src):
    with pytest.raises(ExprParseError):
        parse(src)


def test_parse_error_offset_points_at_problem():
    with pytest.raises(ExprParseError) as err:
        parse("1 + @")
    assert err.value.offset == 4


def test_expression_variables():
    node = parse("sin(x1) * w2 + t / max(v, 1)")
    assert expression_variables(node) == {"x1", "w2", "t", "v"}
    assert expression_variables(parse("1 + 2")) == set()


# -- evaluation ---------------------------------------------------------------


def test_evaluate_basic_values():
    assert evaluate(parse("1 + 2 * 3"), {}) == approx(7.0)
    assert evaluate(parse("2 ^ 3 ^ 2"), {}) == approx(512.0)
    assert evaluate(parse("-2 ^ 2"), {}) == approx(-4.0)
    assert evaluate(parse("sin(t) ^ 2 + cos(t) ^ 2"), {"t": 0.7}) == approx(1.0)
    assert evaluate(parse("max(1, min(2, 3))"), {}) == approx(2.0)
    assert evaluate(parse("tanh(0)"), {}) == approx(0.0)


def test_evaluate_broadcasts_arrays():
    x = np.linspace(-1, 1, 7)
    out = evaluate(parse("x1 ^ 2 + 1"), {"x1": x})
    assert isinstance(out, np.ndarray)
    assert out == approx(x ** 2 + 1)


def test_evaluate_rejects_unbound_and_nonfinite():
    with pytest.raises(ExprEvalError):
        evaluate(parse("x1 + 1"), {})
    with pytest.raises(ExprEvalError):
        evaluate(parse("1 / 0"), {})
    with pytest.raises(ExprEvalError):
        evaluate(parse("sqrt(0 - 1)"), {})


# -- randomized agreement with the reference ----------------------------------


def _random_source(rng, depth=0):
    roll = rng.integers(0, 10)
    if depth > 4 or roll < 3:
        if roll % 2 == 0:
            return f"{rng.uniform(0.5, 3.0):.6f}"
        return rng.choice(["t", "x1", "x2", "w1"])
    if roll < 8:
        op = rng.choice(["+", "-", "*", "/", "^"])
        left = _random_source(rng, depth + 1)
        right = _random_source(rng, depth + 1)
        if op == "^":
            # keep powers tame and bases positive for the math module
            return f"abs({left}) ^ {rng.uniform(0.5, 2.0):.3f}"
        if op == "/":
            return f"({left}) / (abs({right}) + 1)"
        return f"({left}) {op} ({right})"
    if roll == 8:
        return f"-({_random_source(rng, depth + 1)})"
    func = rng.choice(["sin", "cos", "tanh", "exp", "abs", "min", "max"])
    if func in ("min", "max"):
        return f"{func}({_random_source(rng, depth + 1)}, {_random_source(rng, depth + 1)})"
    if func == "exp":
        return f"exp(tanh({_random_source(rng, depth + 1)}))"
    return f"{func}({_random_source(rng, depth + 1)})"


def test_randomized_sources_match_reference():
    rng = np.random.default_rng(99)
    env = {"t": 0.4, "x1": -1.2, "x2": 2.3, "w1": 0.9}
    checked = 0
    for _ in range(300):
        src = _random_source(rng)
        expected = _ref_eval(src, env)
        got = evaluate(parse(src), env)
        assert got == approx(expected, rel=1e-12, abs=1e-12)
        checked += 1
    assert checked == 300


def test_roundtrip_on_randomized_trees():
    rng = np.random.default_rng(7)
    for _ in range(300):
        src = _random_source(rng)
        tree = parse(src)
        printed = print_expression(tree)
        assert parse(printed) == tree
        # printing is idempotent once normalized
        assert print_expression(parse(printed)) == printed


def test_roundtrip_preserves_semantics():
    rng = np.random.default_rng(13)
    env = {"t": 1.1, "x1": 0.3, "x2": -0.8, "w1": 2.0}
    for _ in range(100):
        src = _random_source(rng)
        tree = parse(src)
        assert evaluate(tree, env) == approx(
            evaluate(parse(print_expression(tree)), env), rel=1e-14
        )
