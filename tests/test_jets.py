"""Jet arithmetic against the central-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2frames.jets import Jet, JetOrderError, fd_partial, fd_second, table, variables

FD_STEP = 1e-5
FD_TOL = 1e-5


def crooked(x, y, z):
    return (x * y).sin() * (0.3 * z).exp() + (1.0 + x * x + z * z).sqrt() / (y + 2.0)


def crooked_np(p):
    x, y, z = p
    return np.sin(x * y) * np.exp(0.3 * z) + np.sqrt(1.0 + x * x + z * z) / (y + 2.0)


POINTS = [(0.4, -0.7, 1.2), (0.0, 0.3, -0.5), (1.1, 1.0, 0.2)]


@pytest.mark.parametrize("pt", POINTS)
def test_gradient_matches_finite_differences(pt):
    j = crooked(*variables(pt, 1))
    assert j.value == pytest.approx(crooked_np(pt), abs=1e-12)
    for v in range(3):
        assert j.partial(v) == pytest.approx(fd_partial(crooked_np, pt, v, FD_STEP), abs=FD_TOL)


@pytest.mark.parametrize("pt", POINTS)
def test_second_derivatives_match_finite_differences(pt):
    j = crooked(*variables(pt, 2))
    for v in range(3):
        for w in range(3):
            got = j.derivative(v).partial(w)
            assert got == pytest.approx(fd_second(crooked_np, pt, v, w), abs=2e-4)


def test_mixed_partials_symmetric():
    j = crooked(*variables((0.8, 0.1, -0.3), 3))
    for v in range(3):
        for w in range(3):
            assert j.derivative(v).partial(w) == pytest.approx(j.derivative(w).partial(v), abs=1e-13)


def test_jet_order_restriction_consistent():
    # an order-3 jet truncated to a lower order equals the lower-order jet
    pt = (0.5, -0.2, 0.9)
    hi = crooked(*variables(pt, 3))
    for q in (0, 1, 2):
        lo = crooked(*variables(pt, q))
        assert np.allclose(hi.truncate(q).coef, lo.coef, atol=1e-14)


def test_third_order_against_analytic():
    # f = x^3: third derivative 6, everything else known
    (x,) = variables((1.7,), 3)
    j = x**3
    assert j.derivative(0).derivative(0).partial(0) == pytest.approx(6.0)
    assert j.partial(0) == pytest.approx(3 * 1.7**2)


def test_analytic_function_identities():
    x, y = variables((0.6, 1.9), 3)
    one = x.sin() ** 2 + x.cos() ** 2
    assert np.allclose(one.coef, Jet.constant(1.0, 2, 3).coef, atol=1e-14)
    back = (y.log()).exp()
    assert np.allclose(back.coef, y.coef, atol=1e-13)
    assert np.allclose((y.sqrt() * y.sqrt()).coef, y.coef, atol=1e-13)
    assert np.allclose((y.power(-1.5) * y.power(1.5)).coef, Jet.constant(1.0, 2, 3).coef, atol=1e-13)


def test_division_and_reciprocal():
    x, y = variables((0.3, -1.2), 2)
    expr = (x + 2.0) / (y + 3.0)
    direct = (x + 2.0) * (y + 3.0).reciprocal()
    assert np.allclose(expr.coef, direct.coef, atol=1e-15)
    with pytest.raises(ZeroDivisionError):
        (x - 0.3).reciprocal()


def test_compose_univariate():
    (r,) = variables((0.7,), 2)
    inner = r * r + 1.0
    v = inner.value
    comp = inner.compose([math.sin(v), math.cos(v), -math.sin(v)])
    direct = (r * r + 1.0).sin()
    assert np.allclose(comp.coef, direct.coef, atol=1e-14)


def test_embed_keeps_derivatives():
    x, y = variables((0.4, 0.9), 2)
    j = (x * y).embed(5, (1, 4))
    assert j.nvars == 5
    assert j.value == pytest.approx(0.36)
    assert j.partial(1) == pytest.approx(0.9)
    assert j.partial(4) == pytest.approx(0.4)
    assert j.partial(0) == 0.0


def test_order_cap_reported():
    with pytest.raises(JetOrderError) as err:
        table(3, 4)
    assert err.value.order == 4
    j = crooked(*variables((0.1, 0.2, 0.3), 0))
    with pytest.raises(JetOrderError):
        j.partial(0)


def test_multiplication_fast_paths_match_table():
    rng = np.random.default_rng(5)
    for nvars, order in [(1, 1), (4, 1), (4, 2), (7, 1), (7, 2), (7, 3)]:
        tab = table(nvars, order)
        a = Jet(tab, rng.normal(size=tab.size))
        b = Jet(tab, rng.normal(size=tab.size))
        ref = np.zeros(tab.size)
        np.add.at(ref, tab.mul_k, a.coef[tab.mul_i] * b.coef[tab.mul_j])
        assert np.allclose((a * b).coef, ref, atol=1e-13)


def test_reciprocal_and_log_of_a_tiny_order_one_jet():
    # only the value and first-derivative terms are needed; v**3 would underflow to 0
    x = Jet.variable(1e-120, 0, 2, 1)
    r, lg = x.reciprocal(), x.log()
    assert r.value == 1.0 / 1e-120 and r.partial(0) == -1.0 / 1e-240 and r.partial(1) == 0.0
    assert lg.value == math.log(1e-120) and lg.partial(0) == 1.0 / 1e-120
    with pytest.raises(ZeroDivisionError, match=r"v = 1e-120: v\*\*3 is 0 in the term 2/v\*\*3"):
        Jet.variable(1e-120, 0, 2, 2).reciprocal()


def test_order_zero_batch_matches_scalar_jets_bitwise():
    # values where numpy's SIMD power and exp round differently from libm
    x = np.random.default_rng(3).uniform(1e-3, 3.0, 2000)
    ops = [
        lambda r: (2.0 * r + 0.25).power(-0.5),
        lambda r: (0.7 * r.power(0.5)).sqrt(),
        lambda r: (0.3 + -0.1 * r + 0.2 * r.sin()).exp(),
        lambda r: 1.5 + r * 3.0 + r * r,
    ]
    for op in ops:
        scalar = np.array([op(Jet.variable(v, 0, 1, 0)).value for v in x.tolist()])
        batch = op(Jet.variable(x, 0, 1, 0)).value
        assert batch.tobytes() == scalar.tobytes()
    with pytest.raises(ValueError, match="non-positive"):
        Jet.variable(np.array([1.0, 0.0]), 0, 1, 0).sqrt()


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def _jet_batches(draw):
    """(table, coefficient rows of a batch of jets, second batch)."""
    nvars, order = draw(st.sampled_from([(4, 2), (4, 3), (7, 1)]))
    tab = table(nvars, order)
    rows = draw(st.integers(1, 5))
    coef = st.lists(st.lists(_ENTRY, min_size=tab.size, max_size=tab.size), min_size=rows, max_size=rows)
    return tab, np.array(draw(coef)), np.array(draw(coef))


_BATCH_OPS = {
    "mul": lambda a, b: a * b,
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "reciprocal": lambda a, b: a.reciprocal(),
    "power": lambda a, b: a.power(-0.75),
    "sqrt": lambda a, b: a.sqrt(),
    "exp": lambda a, b: a.exp(),
    "sin": lambda a, b: a.sin(),
}


@settings(max_examples=60, deadline=None)
@given(batch=_jet_batches(), name=st.sampled_from(sorted(_BATCH_OPS)))
def test_batched_jets_equal_their_rows_bitwise(batch, name):
    tab, a, b = batch
    if name in ("reciprocal", "power", "sqrt"):
        a[:, 0] = np.abs(a[:, 0]) + 0.25  # a positive value
    op = _BATCH_OPS[name]
    got = op(Jet(tab, a), Jet(tab, b)).coef
    for i in range(len(a)):
        assert got[i].tobytes() == op(Jet(tab, a[i]), Jet(tab, b[i])).coef.tobytes(), (name, i)
