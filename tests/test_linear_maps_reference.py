"""The sparse linear-map layer of linalg against dense oracles, and its shape edges.

check_metric reads invariance as the pullback linalg.pullback_metric(m, rho_g),
is_morphism compares m rho_s with rho_t m through linalg.apply, and
braid_witness reads the columns of the action of h.  The dense
rho_g^T m rho_g, the dense m rho_s = rho_t m (both from the conftest
mat_mul) and the earlier row scan of the dual module's action serve as
oracles, on the Z2, Z3 and S3 fixtures and on a module with a non-integral
action, with invariant metrics and morphisms (averaged over the group) and
with perturbed ones that are not.  The shape edges pin the maps to and from
the zero module and the inclusion of no vectors.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gfrob import MultiPoly, cyclic_group, graded_module
from gfrob.braided import BraidedSeries, restrict_invariants
from gfrob.frobenius import Potential, braid_witness, check_metric
from gfrob.linalg import ZERO, identity, inclusion, pullback_metric, transpose
from gfrob.modules import GradedModule, Tensor, dual_module, invariants_basis, is_morphism
from gfrob.singularity import z2_frobenius_algebra

from conftest import (
    has_non_integral_entry,
    make_s3_module,
    make_s3_regular_module,
    make_z3_module,
    mat_mul,
    rescale_basis,
)

MODULES = {
    "z2": z2_frobenius_algebra(3).module,
    "z3": make_z3_module(),
    "s3": make_s3_module(),
    "s3_regular": make_s3_regular_module(),
    "z3_rescaled": rescale_basis(make_z3_module(), 0, Fraction(1, 2)),
}
assert has_non_integral_entry(MODULES["z3_rescaled"])

entries = st.sampled_from([ZERO, ZERO, ZERO, Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 2)])


def dense_g_invariant(h, m):
    """The g_invariant witness of check_metric as first written: the dense rho^T m rho per element."""
    return next(
        (f"g = {g}" for g in h.group.elements() if mat_mul(transpose(h.action[g]), mat_mul(m, h.action[g])) != m),
        None,
    )


def dense_is_morphism(source, target, m):
    """is_morphism as first written: degrees entry by entry, then the dense m rho_s = rho_t m."""
    if source.group != target.group or len(m) != target.dim or any(len(r) != source.dim for r in m):
        return False
    if any(m[i][j] and target.degrees[i] != source.degrees[j] for i in range(target.dim) for j in range(source.dim)):
        return False
    return all(mat_mul(m, source.action[g]) == mat_mul(target.action[g], m) for g in source.group.elements())


def averaged(source, target, m0):
    """(1/|G|) sum_g rho_t(g) m0 rho_s(g^-1): an equivariant map, degree-preserving when m0 is."""
    g = source.group
    terms = [mat_mul(target.action[x], mat_mul(m0, source.action[g.inv(x)])) for x in g.elements()]
    return tuple(
        tuple(sum((t[i][j] for t in terms), ZERO) / g.order for j in range(source.dim)) for i in range(target.dim)
    )


@st.composite
def maps(draw, square_metric=False):
    """(source, target, m): a fixture with itself or with its rescaled basis, and a map between them
    that is averaged over the group, averaged and then moved in one entry, or left as drawn."""
    name = draw(st.sampled_from(sorted(MODULES)))
    source = MODULES[name]
    target = MODULES["z3_rescaled"] if name == "z3" and not square_metric and draw(st.booleans()) else source
    m0 = [[draw(entries) for _ in range(source.dim)] for _ in range(target.dim)]
    if square_metric:
        m0 = [[m0[i][j] + m0[j][i] for j in range(source.dim)] for i in range(source.dim)]
    kind = draw(st.sampled_from(("averaged", "moved", "raw")))
    if kind == "raw":
        return source, target, tuple(tuple(row) for row in m0), kind
    if not square_metric:  # keep only the degree-preserving entries, so the average is a morphism
        deg_s, deg_t = source.degrees, target.degrees
        m0 = [[x if deg_t[i] == deg_s[j] else ZERO for j, x in enumerate(row)] for i, row in enumerate(m0)]
    if square_metric:  # rho^T m0 rho averaged: the metric pulled back along every rho_g
        g = source.group
        pulled = [mat_mul(transpose(source.action[x]), mat_mul(m0, source.action[x])) for x in g.elements()]
        m = [[sum((p[i][j] for p in pulled), ZERO) / g.order for j in range(source.dim)] for i in range(source.dim)]
    else:
        m = [list(row) for row in averaged(source, target, m0)]
    if kind == "moved":
        i, j = draw(st.integers(0, target.dim - 1)), draw(st.integers(0, source.dim - 1))
        m[i][j] += draw(st.sampled_from([Fraction(1), Fraction(-1, 2)]))
    return source, target, tuple(tuple(row) for row in m), kind


@settings(max_examples=150, deadline=None)
@given(maps(square_metric=True))
def test_g_invariant_is_the_dense_pullback(case):
    h, _, m, kind = case
    got = check_metric(h, m).checks["g_invariant"]
    assert got == dense_g_invariant(h, m)
    if kind == "averaged":
        assert got is None


@settings(max_examples=150, deadline=None)
@given(maps())
def test_is_morphism_is_the_dense_commutation(case):
    source, target, m, kind = case
    got = is_morphism(source, target, m)
    assert got == dense_is_morphism(source, target, m)
    if kind == "averaged":
        assert got


def dense_braid_witness(h, pot):
    """braid_witness as first written: row x of the dual module's action at the dual degree of y."""
    hd = dual_module(h)
    for x in range(h.dim):
        for y in range(h.dim):
            row = hd.action[hd.degrees[y]][x]
            moved = MultiPoly.sum_of_products((pot.second(y, b), w) for b, w in enumerate(row) if w != 0)
            if pot.second(y, x) != moved:
                return x, y
    return None


@st.composite
def potentials(draw):
    """A fixture and a sparse polynomial in its coordinates, each monomial of degree 2 to 4."""
    name = draw(st.sampled_from(sorted(MODULES)))
    h = MODULES[name]
    names = tuple(f"t{j}" for j in range(h.dim))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exp = [0] * h.dim
        for _ in range(draw(st.integers(2, 4))):
            exp[draw(st.integers(0, h.dim - 1))] += 1
        terms[tuple(exp)] = draw(st.sampled_from([1, -3, Fraction(1, 2)]))
    return h, Potential(names, MultiPoly(names, terms))


@settings(max_examples=150, deadline=None)
@given(potentials())
def test_braid_witness_matches_the_dual_row_scan(case):
    h, pot = case
    assert braid_witness(h, pot) == dense_braid_witness(h, pot)


# -- shape edges ----------------------------------------------------------------

Z2 = cyclic_group(2)
ZERO_MODULE = GradedModule(Z2, (), ((), ()))
ORBIFOLD = MODULES["z2"]


def test_is_morphism_to_the_zero_module():
    assert is_morphism(ORBIFOLD, ZERO_MODULE, ())


def test_is_morphism_from_the_zero_module():
    assert is_morphism(ZERO_MODULE, ORBIFOLD, ((),) * ORBIFOLD.dim)


def test_pullback_metric_along_an_empty_inclusion():
    assert pullback_metric(identity(3), inclusion([], 3)) == ()


def test_restrict_invariants_of_a_line_without_invariants():
    """The Z2 sign line has no invariants, so every part of a series restricts to zero."""
    line = graded_module(Z2, [0], [[[1]], [[-1]]])
    x = BraidedSeries(dual_module(line), 3, {1: Tensor(1, {(0,): 1}), 2: Tensor(2, {(0, 0): 3})})
    assert invariants_basis(line) == []
    got = restrict_invariants(x, invariants_basis(line))
    assert got.module.dim == 0 and got.truncation == 3 and got.parts == {}
