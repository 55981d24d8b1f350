"""Bump factors against the masked reference they replaced, bit for bit.

The reference kernels below gather the points inside the support through a
boolean mask, evaluate there, scatter into zeros and modulate with
``polyval``. The in-place kernels of ``dshock.bumps`` must give the same
IEEE bits everywhere, signed zeros included, so ladders computed with them
stay byte-identical.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dshock.bumps import _EDGE, BumpFactor, _core, _core_deriv


def _ref_core(xi):
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0 - 1e-9
    q = 1.0 - xi[inside] ** 2
    out[inside] = np.exp(-1.0 / q)
    return out


def _ref_core_deriv(xi):
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0 - 1e-9
    q = 1.0 - xi[inside] ** 2
    out[inside] = np.exp(-1.0 / q) * (-2.0 * xi[inside] / q**2)
    return out


def _ref_xi(f, x):
    if f.anchored_left:
        return (x - f.lo) / (f.hi - f.lo)
    return (2.0 * x - (f.lo + f.hi)) / (f.hi - f.lo)


def _ref_value(f, x):
    x = np.asarray(x, dtype=float)
    xi = _ref_xi(f, x)
    out = _ref_core(xi) * np.polynomial.polynomial.polyval(xi, np.asarray(f.poly))
    if f.anchored_left:
        out = np.where(xi < 0.0, 0.0, out)
    return out


def _ref_deriv(f, x):
    x = np.asarray(x, dtype=float)
    xi = _ref_xi(f, x)
    p = np.asarray(f.poly)
    pd = np.polynomial.polynomial.polyder(p) if p.size > 1 else np.zeros(1)
    out = _ref_core_deriv(xi) * np.polynomial.polynomial.polyval(xi, p)
    out += _ref_core(xi) * np.polynomial.polynomial.polyval(xi, pd)
    if f.anchored_left:
        out = np.where(xi < 0.0, 0.0, out)
    return out * f._dxi_dx()


def _assert_bits(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.int64), ref.view(np.int64)), (got, ref)


# xi on, inside and just outside the 1 - 1e-9 band, at 0 and far outside.
_BAND = [_EDGE, np.nextafter(_EDGE, 0.0), np.nextafter(_EDGE, 2.0), 1.0, 1.0 + 1e-12]
_SPECIAL_XI = [0.0, -0.0, 0.5] + _BAND + [-v for v in _BAND] + [3.0, -40.0, 1e6, -1e6]

_xis = st.lists(
    st.one_of(
        st.sampled_from(_SPECIAL_XI),
        st.floats(-1.5, 1.5),
        st.floats(-1e6, 1e6),
    ),
    min_size=1,
    max_size=60,
)

_polys = st.one_of(
    st.sampled_from([(1.0,), (0.0, 1.0), (0.5,), (-0.0,)]),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3).map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(xi=_xis)
def test_support_kernels_match_masked_reference(xi):
    xi = np.array(xi)
    for kernel, ref in ((_core, _ref_core), (_core_deriv, _ref_core_deriv)):
        _assert_bits(kernel(xi), ref(xi))
        _assert_bits(kernel(xi.reshape(1, -1)[:, ::2]), ref(xi[::2].reshape(1, -1)))
        _assert_bits(kernel(np.asarray(xi[0])), ref(np.asarray(xi[0])))


@settings(max_examples=100, deadline=None)
@given(
    lo=st.floats(-3.0, 3.0),
    width=st.floats(0.01, 5.0),
    poly=_polys,
    anchored=st.booleans(),
    xi=_xis,
)
def test_factor_value_and_deriv_match_polyval_reference(lo, width, poly, anchored, xi):
    f = BumpFactor(lo, lo + width, poly, anchored_left=anchored)
    # Points mapped from xi, plus the support centre and both ends.
    if anchored:
        x = f.lo + np.array(xi) * (f.hi - f.lo)
    else:
        x = 0.5 * (f.lo + f.hi) + 0.5 * np.array(xi) * (f.hi - f.lo)
    x = np.concatenate([x, [0.5 * (f.lo + f.hi), f.lo, f.hi]])
    for method, ref in ((f.value, _ref_value), (f.deriv, _ref_deriv)):
        _assert_bits(method(x), ref(f, x))
        _assert_bits(method(x.reshape(-1, 1)[::3, 0]), ref(f, x[::3]))
        # 0-d inputs: a numpy scalar, a 0-d array and a Python float.
        for scalar in (x[-4], np.asarray(x[0]), float(x[-1])):
            _assert_bits(method(scalar), ref(f, scalar))


def test_xi_zero_keeps_the_reference_signed_zero():
    # At xi = 0 the core derivative is -0.0; the reference adds core * 0 for a
    # constant modulation, which makes it +0.0.
    xi = np.array([0.0, -0.0])
    _assert_bits(_core_deriv(xi), [-0.0, 0.0])
    f = BumpFactor(-1.0, 1.0)
    _assert_bits(f.deriv(np.array([0.0])), [0.0])
    _assert_bits(f.deriv(np.array([0.0])), _ref_deriv(f, np.array([0.0])))


def test_kernels_raise_no_floating_point_warning():
    # The suite turns any RuntimeWarning into a failure; far-outside points
    # must not overflow in xi^2 or in the slope.
    xi = np.array([1e200, -1e300, 1.0, -1.0, np.inf, -np.inf])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert not np.any(_core(xi))
        assert not np.any(_core_deriv(xi))
        assert BumpFactor(-1.0, 1.0).value(np.array([1e300, -1e300])).tolist() == [0.0, 0.0]
