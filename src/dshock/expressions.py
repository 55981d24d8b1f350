"""Minimal arithmetic expressions for scenario files.

Grammar (deliberately small):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right associative
    atom   := NUMBER | NAME | 'sqrt' '(' expr ')' | '(' expr ')' | '|' expr '|'

Names resolve against the evaluation environment. Spatial contexts provide
x1..xn, the vector x, the radius r = |x| and time t; radial contexts provide
r and t. Bars take the absolute value of scalars and the Euclidean norm of
the vector x, so "|x| - 1 - 0.5*t" is a moving sphere.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

from .errors import InvalidParameterError

__all__ = ["Expression", "parse_expression"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()|]))"
)


def _tokenize(src: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise InvalidParameterError(f"bad character in expression at: {src[pos:]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        k, v = self.tokens[self.i]
        if (kind is not None and k != kind) or (value is not None and v != value):
            raise InvalidParameterError(f"unexpected token {v!r} in expression")
        self.i += 1
        return v

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise InvalidParameterError(f"trailing input in expression: {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take("op")
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take("op")
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take("op")
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take("op")
            return ("pow", base, self.unary())
        return base

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return ("const", float(value))
        if kind == "name":
            self.take()
            if value == "sqrt":
                self.take("op", "(")
                inner = self.expr()
                self.take("op", ")")
                return ("sqrt", inner)
            return ("var", value)
        if (kind, value) == ("op", "("):
            self.take()
            inner = self.expr()
            self.take("op", ")")
            return inner
        if (kind, value) == ("op", "|"):
            self.take()
            inner = self.expr()
            self.take("op", "|")
            return ("abs", inner)
        raise InvalidParameterError(f"unexpected token {value!r} in expression")


def _names(node, out: set):
    tag = node[0]
    if tag == "var":
        out.add(node[1])
    elif tag == "const":
        pass
    else:
        for child in node[1:]:
            _names(child, out)


def _scalar(value, what: str) -> float:
    if isinstance(value, np.ndarray) and value.ndim > 0:
        raise InvalidParameterError(f"{what} requires a scalar, got a vector")
    return float(value)


def _eval(node, env: dict):
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "var":
        name = node[1]
        if name not in env:
            raise InvalidParameterError(f"unknown name {name!r} in expression")
        return env[name]
    if tag == "neg":
        return -_scalar(_eval(node[1], env), "negation")
    if tag == "abs":
        value = _eval(node[1], env)
        if isinstance(value, np.ndarray) and value.ndim > 0:
            return float(np.linalg.norm(value))
        return abs(float(value))
    if tag == "sqrt":
        return float(np.sqrt(_scalar(_eval(node[1], env), "sqrt")))
    a = _scalar(_eval(node[1], env), "arithmetic")
    b = _scalar(_eval(node[2], env), "arithmetic")
    if tag == "add":
        return a + b
    if tag == "sub":
        return a - b
    if tag == "mul":
        return a * b
    if tag == "div":
        return a / b
    if tag == "pow":
        try:
            value = a**b
        except OverflowError:
            raise ArithmeticError(f"{a!r}^{b!r} overflows") from None
        if isinstance(value, complex):
            raise ArithmeticError(f"{a!r}^{b!r} is not a real number")
        return value
    raise InvalidParameterError(f"unknown expression node {tag!r}")


class Expression:
    """Parsed expression; call with keyword bindings for its free names."""

    def __init__(self, source: str):
        self.source = source
        self._ast = _Parser(_tokenize(source)).parse()
        names: set[str] = set()
        _names(self._ast, names)
        self.variables = frozenset(names)

    def _value(self, env: dict) -> float:
        """The expression's value in ``env``; arithmetic faults name the expression."""
        try:
            return float(_eval(self._ast, env))
        except ArithmeticError as exc:
            raise InvalidParameterError(
                f"expression {self.source!r} cannot be evaluated: {exc}"
            ) from exc

    def __call__(self, **env) -> float:
        return self._value(env)

    def eval_point(self, x: np.ndarray, t: float) -> float:
        """Evaluate in a spatial context: x vector, components x1.., r, t."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        env = {"t": float(t), "x": x, "r": float(np.linalg.norm(x))}
        for k in range(x.size):
            env[f"x{k + 1}"] = float(x[k])
        if x.size == 1:
            env["x"] = float(x[0])
        return self._value(env)

    def eval_radial(self, r, t) -> np.ndarray:
        """Evaluate on radius arrays in a radial context (names r and t)."""
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        flat = r.reshape(-1)
        res = out.reshape(-1)
        for i, ri in enumerate(flat):
            res[i] = self._value({"r": float(ri), "t": float(t)})
        return out if out.shape else float(res[0])

    def __repr__(self) -> str:
        return f"Expression({self.source!r})"


def parse_expression(source: str, allowed: Iterable[str] | None = None) -> Expression:
    """Parse and optionally restrict the free names of an expression."""
    expr = Expression(source)
    if allowed is not None:
        extra = expr.variables - set(allowed)
        if extra:
            raise InvalidParameterError(
                f"expression uses names {sorted(extra)} outside {sorted(allowed)}"
            )
    return expr
