"""Tests for the small arithmetic expression parser used by scenario files."""

import re

import numpy as np
import pytest

from dshock import InvalidParameterError, parse_expression
from dshock.expressions import Expression


def test_basic_arithmetic():
    assert Expression("1 + 2*3")() == pytest.approx(7.0)
    assert Expression("(1 + 2)*3")() == pytest.approx(9.0)
    assert Expression("7/2")() == pytest.approx(3.5)
    assert Expression("-3 + 1")() == pytest.approx(-2.0)
    assert Expression("2^3")() == pytest.approx(8.0)


def test_power_binds_tighter_than_unary_minus():
    assert Expression("-2^2")() == pytest.approx(-4.0)
    assert Expression("2^-1")() == pytest.approx(0.5)


def test_scientific_notation():
    assert Expression("1.5e-3")() == pytest.approx(1.5e-3)
    assert Expression(".25e2")() == pytest.approx(25.0)


def test_abs_and_sqrt():
    assert Expression("|0 - 3|")() == pytest.approx(3.0)
    assert Expression("sqrt(16)")() == pytest.approx(4.0)
    assert Expression("sqrt(2)^2")() == pytest.approx(2.0)


def test_variables():
    e = Expression("a*x + b")
    assert e.variables == frozenset({"a", "x", "b"})
    assert e(a=2.0, x=3.0, b=1.0) == pytest.approx(7.0)


def test_unknown_name_raises_at_eval():
    e = Expression("y + 1")
    with pytest.raises(InvalidParameterError):
        e(x=1.0)


def test_parse_expression_restricts_names():
    parse_expression("r^2 + t", allowed={"r", "t"})
    with pytest.raises(InvalidParameterError):
        parse_expression("r + q", allowed={"r", "t"})


def test_bad_syntax_raises():
    with pytest.raises(InvalidParameterError):
        Expression("2 +")
    with pytest.raises(InvalidParameterError):
        Expression("foo(3)")
    with pytest.raises(InvalidParameterError):
        Expression("1 # 2")


def test_eval_point_components_and_radius():
    e = Expression("x1 + 2*x2 + r")
    x = np.array([3.0, 4.0])
    assert e.eval_point(x, 0.0) == pytest.approx(3.0 + 8.0 + 5.0)


def test_eval_point_scalar_x_in_1d():
    e = Expression("x*t")
    assert e.eval_point(np.array([2.0]), 3.0) == pytest.approx(6.0)


def test_abs_of_vector_is_norm():
    e = Expression("|x|")
    assert e.eval_point(np.array([3.0, 4.0]), 0.0) == pytest.approx(5.0)


def test_eval_radial_vectorized():
    e = Expression("r^(0 - 2) * t")
    r = np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(e.eval_radial(r, 2.0), 2.0 / r**2)


@pytest.mark.parametrize("src", ["1e200*1e200", "sqrt(0-1)", "1/(0-0)", "1e400"])
def test_faults_name_the_expression(src, recwarn):
    with pytest.raises(InvalidParameterError, match=re.escape(repr(src))):
        parse_expression(src)()
    assert not recwarn.list


def test_arrays_evaluate_elementwise():
    # An array binding gives the values of each element on its own; a name
    # the expression does not use still sets the shape of eval_radial.
    r = np.array([0.5, 1.0, 3.0])
    e = Expression("sqrt(r) * t - r^3 / 2")
    np.testing.assert_array_equal(e(r=r, t=2.0), [e(r=rk, t=2.0) for rk in r])
    np.testing.assert_array_equal(Expression("t").eval_radial(r, 2.0), [2.0, 2.0, 2.0])
    with pytest.raises(InvalidParameterError, match="division by zero"):
        Expression("1/(r-1)")(r=r)
