"""frobenius.g_degree_witness against the G-degree filter BraidedSeries once ran.

series_filter_reference below is that earlier filter: it polarizes the
potential with series_from_poly and asks every index tuple of every part,
one ordering of a monomial's letters each, to multiply to the target.  The
function under test decides each monomial without enumerating orderings.
The modules are the Z2 orbifold module, the Z3 and S3 test modules and
their duals; the potentials are sums of up to three random monomials of
degree at most four, under a random naming of the coordinates.
"""

from hypothesis import given, settings, strategies as st

from gfrob import MultiPoly, Potential, dual_module
from gfrob.braided import series_from_poly
from gfrob.frobenius import g_degree_witness
from gfrob.singularity import z2_frobenius_algebra

from conftest import make_s3_module, make_s3_regular_module, make_z3_module


def series_filter_reference(h, pot, g_target) -> bool:
    """Every index tuple of the polarization multiplies to g_target, in slot order."""
    series = series_from_poly(h, pot.poly, pot.names)
    g = h.group
    return all(g.product(h.degree_tuple(idx)) == g_target for t in series.parts.values() for idx in t.terms)


BASE = {
    "z2": z2_frobenius_algebra(3).module,
    "z3": make_z3_module(),
    "s3": make_s3_module(),
    "s3_regular": make_s3_regular_module(),
}
MODULES = {**BASE, **{f"{label}_dual": dual_module(h) for label, h in BASE.items()}}


@st.composite
def cases(draw):
    h = MODULES[draw(st.sampled_from(sorted(MODULES)))]
    names = tuple(draw(st.permutations([f"c{j}" for j in range(h.dim)])))
    terms = {}
    for letters in draw(st.lists(st.lists(st.integers(0, h.dim - 1), max_size=4), min_size=1, max_size=3)):
        exp = tuple(letters.count(j) for j in range(h.dim))
        terms[exp] = terms.get(exp, 0) + 1  # positive coefficients: no monomial cancels
    return h, Potential(names, MultiPoly(names, terms)), draw(st.sampled_from(h.group.elements()))


@settings(max_examples=300, deadline=None)
@given(cases())
def test_g_degree_witness_matches_the_series_filter(case):
    h, pot, target = case
    witness = g_degree_witness(h, pot, target)
    assert (witness is None) == series_filter_reference(h, pot, target)
    if witness is not None:
        exp = [0] * h.dim
        for j, e in witness:
            exp[j] = e
        monomial = Potential(pot.names, MultiPoly(pot.names, {tuple(exp): 1}))
        assert pot.poly.coefficient(dict(zip(pot.names, exp))) != 0
        assert not series_filter_reference(h, monomial, target)
