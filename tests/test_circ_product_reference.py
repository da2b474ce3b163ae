"""circ_product against the earlier Fraction loop, on four modules.

circ_product_reference below is the earlier body of braided.circ_product:
per degree d, the Tensor sum of every juxtaposition x_m y_(d-m), then one
braidize.  The product under test clears each part to integers once,
accumulates each degree in one integer dict over the lcm of its pairs'
denominators and hands that to braidize's integer core; the two must agree
exactly.  The series are random, not braided: rational coefficients with
mixed denominators, parts left out at random, truncations 0-4, and
optionally one degree c whose juxtapositions cancel to zero (x_0 = a,
y_0 = b, y_c = -(b/a) x_c and no x_m for 0 < m < c).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gfrob import BraidedSeries, Tensor, braidize, circ_product, dual_module
from gfrob.braided import unit_series
from gfrob.errors import ModuleMismatch
from gfrob.singularity import z2_frobenius_algebra

from conftest import make_s3_module, make_z3_module

MODULES = {
    "z2-orbifold-dual": dual_module(z2_frobenius_algebra(3).module),
    "z3-rotation": make_z3_module(),
    "s3": make_s3_module(),
    "s3-sign": make_s3_module(sign_twist=True),
}


def circ_product_reference(x: BraidedSeries, y: BraidedSeries) -> BraidedSeries:
    h = x.module
    parts = {}
    for d in range(x.truncation + 1):
        acc = Tensor(d)
        for m, xm in x.parts.items():
            yn = y.parts.get(d - m)
            if yn:
                acc = acc + xm.juxt(yn)  # the loop the accumulation lint keeps out of src/gfrob
        if acc:
            parts[d] = braidize(h, acc)
    return BraidedSeries(h, x.truncation, parts)


coefficients = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))


@st.composite
def tensors(draw, dim, n):
    keys = st.tuples(*[st.integers(0, dim - 1)] * n)
    return Tensor(n, draw(st.dictionaries(keys, coefficients, max_size=3)))


@st.composite
def series_pairs(draw):
    h = MODULES[draw(st.sampled_from(sorted(MODULES)))]
    truncation = draw(st.integers(0, 4))
    x = {d: draw(tensors(h.dim, d)) for d in range(truncation + 1) if draw(st.booleans())}
    y = {d: draw(tensors(h.dim, d)) for d in range(truncation + 1) if draw(st.booleans())}
    if truncation and draw(st.booleans()):
        c = draw(st.integers(1, truncation))
        a = draw(coefficients.filter(bool))
        b = draw(coefficients)
        x[0], y[0] = Tensor.scalar(a), Tensor.scalar(b)
        x[c] = draw(tensors(h.dim, c))
        y[c] = x[c].scale(-b / a)
        for m in range(1, c):
            x.pop(m, None)
    return BraidedSeries(h, truncation, x), BraidedSeries(h, truncation, y)


@settings(max_examples=80, deadline=None)
@given(series_pairs())
def test_circ_product_matches_the_fraction_loop(pair):
    x, y = pair
    assert circ_product(x, y) == circ_product_reference(x, y)


def test_a_cancelling_degree_is_absent():
    h = MODULES["s3"]
    t = Tensor(2, {(1, 2): Fraction(1, 3), (0, 3): Fraction(-2, 5)})
    x = BraidedSeries(h, 3, {0: Tensor.scalar(Fraction(2, 3)), 2: t})
    y = BraidedSeries(h, 3, {0: Tensor.scalar(Fraction(1, 7)), 2: t.scale(Fraction(-3, 14))})
    prod = circ_product(x, y)
    assert 2 not in prod.parts and prod == circ_product_reference(x, y)


def test_truncation_mismatch_raises():
    h = MODULES["z2-orbifold-dual"]
    with pytest.raises(ModuleMismatch, match="different truncations"):
        circ_product(unit_series(h, 2), unit_series(h, 3))
