"""The sparse slot kernel and the exact braid check against dense reference routes.

The reference loops below are the slot-by-slot implementations that the
kernel replaced; they serve as independent oracles.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from gfrob import (
    MultiPoly,
    Potential,
    Tensor,
    braid_act,
    diagonal_act,
    dual_module,
    form_from_poly,
    is_braided,
)
from gfrob.braided import pullback_tensor
from gfrob.frobenius import braid_witness
from gfrob.singularity import z2_frobenius_algebra

from conftest import make_s3_module, make_z3_module

MODULES = {
    "orbifold": z2_frobenius_algebra(3).module,
    "orbifold-dual-4": dual_module(z2_frobenius_algebra(4).module),
    "z3-rotation": make_z3_module(),
    "s3": make_s3_module(),
    "s3-sign": make_s3_module(sign_twist=True),
}

# -- reference loops ----------------------------------------------------------


def ref_braid_act(h, i, v, inverse=False):
    s = i - 1
    g = h.group
    terms = {}
    for idx, c in v.terms.items():
        a, b = idx[s], idx[s + 1]
        if inverse:
            m = h.action[g.inv(h.degrees[b])]
            for k in range(h.dim):
                if m[k][a]:
                    new = idx[:s] + (b, k) + idx[s + 2:]
                    terms[new] = terms.get(new, Fraction(0)) + m[k][a] * c
        else:
            m = h.action[h.degrees[a]]
            for k in range(h.dim):
                if m[k][b]:
                    new = idx[:s] + (k, a) + idx[s + 2:]
                    terms[new] = terms.get(new, Fraction(0)) + m[k][b] * c
    return Tensor(v.n, terms)


def ref_apply_matrix_slot(h, m, v, slot):
    terms = {}
    for idx, c in v.terms.items():
        j = idx[slot]
        for i in range(h.dim):
            if m[i][j]:
                new = idx[:slot] + (i,) + idx[slot + 1:]
                terms[new] = terms.get(new, Fraction(0)) + m[i][j] * c
    return Tensor(v.n, terms)


def ref_diagonal_act(h, g, v):
    out = v
    if g == h.group.identity:
        return out
    for slot in range(v.n):
        out = ref_apply_matrix_slot(h, h.action[g], out, slot)
    return out


def ref_pullback_tensor(x, m):
    out = x
    cols = len(m[0]) if m else 0
    for slot in range(x.n):
        terms = {}
        for idx, c in out.terms.items():
            row = m[idx[slot]]
            for j in range(cols):
                if row[j]:
                    new = idx[:slot] + (j,) + idx[slot + 1:]
                    terms[new] = terms.get(new, Fraction(0)) + row[j] * c
        out = Tensor(x.n, terms)
    return out


def ref_potential_is_braided(h, pot, top=5):
    """Polarize each homogeneous part and check it against every generator."""
    hd = dual_module(h)
    return all(is_braided(hd, form_from_poly(pot.poly, pot.names, n)) for n in range(2, top + 1))


# -- strategies ---------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def module_and_tensor(draw, max_n=4):
    name = draw(st.sampled_from(sorted(MODULES)))
    h = MODULES[name]
    n = draw(st.integers(2, max_n))
    idx = st.tuples(*[st.integers(0, h.dim - 1)] * n)
    terms = draw(st.dictionaries(idx, fractions, max_size=6))
    return h, Tensor(n, terms)


NAMES = ("s0", "s1", "s2", "s3")


@st.composite
def potentials(draw):
    support = draw(st.sets(st.integers(0, 3), min_size=1))
    exp = st.tuples(*[st.integers(0, 3) if k in support else st.just(0) for k in range(4)])
    terms = draw(st.dictionaries(exp.filter(lambda e: 2 <= sum(e) <= 5), fractions, min_size=1, max_size=3))
    return Potential(NAMES, MultiPoly(NAMES, terms))


FOUR_DIMENSIONAL = sorted(name for name, h in MODULES.items() if h.dim == len(NAMES))


# -- kernel against the reference loops ---------------------------------------


@settings(max_examples=150, deadline=None)
@given(module_and_tensor(), st.data())
def test_braid_act_matches_reference(ht, data):
    h, v = ht
    i = data.draw(st.integers(1, v.n - 1))
    for inverse in (False, True):
        assert braid_act(h, i, v, inverse=inverse) == ref_braid_act(h, i, v, inverse=inverse)


@settings(max_examples=100, deadline=None)
@given(module_and_tensor(), st.data())
def test_diagonal_act_matches_reference(ht, data):
    h, v = ht
    g = data.draw(st.sampled_from(h.group.elements()))
    assert diagonal_act(h, g, v) == ref_diagonal_act(h, g, v)


@settings(max_examples=100, deadline=None)
@given(module_and_tensor(), st.data())
def test_pullback_tensor_matches_reference(ht, data):
    h, x = ht
    cols = data.draw(st.integers(1, 4))
    entry = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)])
    m = data.draw(st.tuples(*[st.tuples(*[entry] * cols)] * h.dim))
    assert pullback_tensor(x, m) == ref_pullback_tensor(x, m)


# -- the exact braid check against the polarized-tensor route -----------------


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FOUR_DIMENSIONAL), potentials())
def test_potential_is_braided_matches_tensor_route(name, pot):
    h = MODULES[name]
    assert (braid_witness(h, pot) is None) == ref_potential_is_braided(h, pot)


def test_potential_is_braided_matches_tensor_route_on_every_monomial():
    verdicts = set()
    for name in FOUR_DIMENSIONAL:
        h = MODULES[name]
        for exp in product(range(6), repeat=4):
            if 2 <= sum(exp) <= 5:
                pot = Potential(NAMES, MultiPoly(NAMES, {exp: Fraction(1)}))
                got = braid_witness(h, pot) is None
                assert got == ref_potential_is_braided(h, pot), (name, exp)
                verdicts.add(got)
    assert verdicts == {True, False}
