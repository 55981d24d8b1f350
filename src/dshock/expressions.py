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

Values may be numpy arrays that broadcast together: a radial field takes
arrays of (r, t) and a level set takes (m, dim) rows of points, each
evaluated elementwise in one pass. Arithmetic runs in float64 with division
by zero, overflow and results that are not real numbers raised as
``InvalidParameterError`` naming the expression; underflow to zero is
allowed. Numeric literals must be finite.
"""

from __future__ import annotations

import math
import operator
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
            value = float(m.group("num"))
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"expression {src!r} has a literal that is not finite: {m.group('num')}"
                )
            tokens.append(("num", np.float64(value)))
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
            return ("const", value)
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


class _Vector:
    """The point x in more than one dimension: only |x| applies to it."""

    def __init__(self, norm):
        self.norm = norm


def _scalar(value, what: str):
    if isinstance(value, _Vector):
        raise InvalidParameterError(f"{what} requires a scalar, got a vector")
    return value


def _number(value):
    """A binding as a numpy float or a float array; the vector x stays as it is."""
    if isinstance(value, _Vector):
        return value
    value = np.asarray(value, dtype=float)
    return value if value.ndim else value[()]


# Python operators on numpy floats and arrays, so that np.errstate governs them.
_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "pow": operator.pow,
}
_FAULTS = (("divide", "division by zero"), ("overflow", "a value overflows"))


def _eval(node, env: dict):
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "var":
        name = node[1]
        if name not in env:
            raise InvalidParameterError(f"unknown name {name!r} in expression")
        return env[name]
    if tag == "abs":
        value = _eval(node[1], env)
        return value.norm if isinstance(value, _Vector) else abs(value)
    if tag == "neg":
        return -_scalar(_eval(node[1], env), "negation")
    if tag == "sqrt":
        return np.sqrt(_scalar(_eval(node[1], env), "sqrt"))
    if tag in _BINARY:
        a = _scalar(_eval(node[1], env), "arithmetic")
        b = _scalar(_eval(node[2], env), "arithmetic")
        return _BINARY[tag](a, b)
    raise InvalidParameterError(f"unknown expression node {tag!r}")


class Expression:
    """Parsed expression; call with keyword bindings for its free names.

    Bindings are numbers or arrays that broadcast together; a call returns a
    float when every binding is a number and an array otherwise.
    """

    def __init__(self, source: str):
        self.source = source
        self._ast = _Parser(_tokenize(source)).parse()
        names: set[str] = set()
        _names(self._ast, names)
        self.variables = frozenset(names)

    def __call__(self, **env):
        """The expression's value; arithmetic faults name the expression."""
        env = {k: _number(v) for k, v in env.items()}
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
                value = _eval(self._ast, env)
        except FloatingPointError as exc:
            # numpy's message names the fault: divide by zero, overflow or invalid value.
            fault = next((f for k, f in _FAULTS if k in str(exc)), "a value is not a real number")
            raise InvalidParameterError(
                f"expression {self.source!r} cannot be evaluated: {fault}"
            ) from exc
        return value if isinstance(value, np.ndarray) else float(value)

    def eval_point(self, x, t):
        """Evaluate in a spatial context: x1.., the vector x, r = |x| and t.

        ``x`` is one point of shape (dim,), giving a float, or (m, dim) rows,
        giving an (m,) array; ``t`` is a number or an (m,) array of row times.
        """
        x = np.asarray(x, dtype=float)
        rows = np.atleast_2d(x)
        r = np.sqrt(np.vecdot(rows, rows))
        env = {f"x{k + 1}": col for k, col in enumerate(rows.T)}
        env.update(t=t, r=r, x=env["x1"] if rows.shape[1] == 1 else _Vector(r))
        value = np.broadcast_to(self(**env), r.shape)
        return value if x.ndim > 1 else float(value[0])

    def eval_radial(self, r, t):
        """Evaluate in a radial context on radii and times that broadcast together."""
        value = self(r=r, t=t)
        if np.ndim(r) == 0 and np.ndim(t) == 0:
            return value
        return np.broadcast_to(value, np.broadcast_shapes(np.shape(r), np.shape(t)))

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
