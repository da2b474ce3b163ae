"""check_gfa and GFrobeniusAlgebra.product against the earlier hand-written loops.

check_gfa_reference below is the earlier body of frobenius.check_gfa: each
product axiom as its own loop over a table of nonzero structure constants,
and the unit law through dense_product, the earlier dense
GFrobeniusAlgebra.product.  They serve as an independent oracle for the
check that runs every axiom over the nonzero structure constants.  The
algebras are the orbifold algebras of A_3, A_4 and A_5 over Z2 and the group
algebras of Z3, S3 and of A3 graded in S3, in a random block-preserving
basis, and optionally broken in a structure constant, a metric entry, a unit
entry or an action entry, or by swapping a product e_a e_b with e_b e_a; the
two reports must be equal, down to the failure string.  Larger algebras with
one moved constant pin the least witness of metric invariance and of
associativity, also where only one side of the comparison is nonzero.
Braided commutativity is cross-checked against braided.is_braided on the
cubic form of each drawn algebra whose metric passes and is invariant.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import cubic_form_of, dot, mat_mul, mat_vec
from gfrob import cyclic_group, dual_module, is_braided, linalg, symmetric_group
from gfrob.frobenius import GFrobeniusAlgebra, check_gfa, check_metric, gfa_from_cubic
from gfrob.linalg import ZERO
from gfrob.modules import GradedModule, Verdict, validate_module
from gfrob.singularity import milnor_ring, z2_frobenius_algebra

# -- dense reference ------------------------------------------------------------


def dense_product(alg, v, w):
    d = alg.dim
    out = [Fraction(0)] * d
    for a in range(d):
        if v[a] == 0:
            continue
        for b in range(d):
            if w[b] == 0:
                continue
            coef = v[a] * w[b]
            for k in range(d):
                if alg.mult[a][b][k] != 0:
                    out[k] += coef * alg.mult[a][b][k]
    return tuple(out)


def self_invariance_reference(h):
    return next(
        (f"g = {gamma}, (i, j) = ({i}, {j})" for gamma in h.group.elements() for j in h.block_indices(gamma)
         for i in range(h.dim) if h.action[gamma][i][j] != int(i == j)),
        None,
    )


def check_gfa_reference(alg) -> Verdict:
    h = alg.module
    g = h.group
    d = h.dim
    c = alg.mult
    eta = alg.metric
    mod_rep = validate_module(h)
    metric_rep = check_metric(h, eta)
    nz = [[[(k, x) for k, x in enumerate(c[a][b]) if x] for b in range(d)] for a in range(d)]
    pairs = [(a, b) for a in range(d) for b in range(d)]
    triples = [(a, b, x) for a in range(d) for b in range(d) for x in range(d)]

    def nz_col(m, j):
        return [(i, m[i][j]) for i in range(d) if m[i][j]]

    def actions():
        for gamma in g.elements():
            rho = h.action[gamma]
            yield gamma, rho, [nz_col(rho, a) for a in range(d)]

    def equivariant(rho, cols, a, b):
        lhs = [Fraction(0)] * d
        for i, ra in cols[a]:
            for j, rb in cols[b]:
                coef = ra * rb
                for k, x in nz[i][j]:
                    lhs[k] += coef * x
        return tuple(lhs) == mat_vec(rho, c[a][b])

    def braided_commutes(a, b):
        rho = h.action[h.degrees[a]]
        rhs = [Fraction(0)] * d
        for i, r in nz_col(rho, b):
            for k, x in nz[i][a]:
                rhs[k] += r * x
        return tuple(rhs) == c[a][b]

    eta_cols = linalg.transpose(eta)

    def metric_invariant(a, b, x):
        return sum((p * q for p, q in zip(c[a][b], eta_cols[x]) if p and q), ZERO) == sum(
            (p * q for p, q in zip(eta[a], c[b][x]) if p and q), ZERO
        )

    def associates(a, b, x):
        lhs = [Fraction(0)] * d
        for k, y in nz[a][b]:
            for l, z in nz[k][x]:
                lhs[l] += y * z
        rhs = [Fraction(0)] * d
        for k, y in nz[b][x]:
            for l, z in nz[a][k]:
                rhs[l] += y * z
        return lhs == rhs

    def unit_law(b):
        e_b = tuple(Fraction(1) if i == b else Fraction(0) for i in range(d))
        return dense_product(alg, alg.unit, e_b) == e_b

    witnesses = {
        "module_valid": None if mod_rep.passed else mod_rep,
        "self_invariant": self_invariance_reference(h),
        "equivariance": next(
            (f"g = {gamma}, (a, b) = ({a}, {b})" for gamma, rho, cols in actions() for a, b in pairs
             if not equivariant(rho, cols, a, b)),
            None,
        ),
        "graded_mult": next(
            (f"(a, b, k) = ({a}, {b}, {k})" for a, b, k in triples
             if c[a][b][k] != 0 and h.degrees[k] != g.mul(h.degrees[a], h.degrees[b])),
            None,
        ),
        "braided_commutativity": next((f"(a, b) = ({a}, {b})" for a, b in pairs if not braided_commutes(a, b)), None),
        "metric_invariance": next(
            (f"(a, b, c) = ({a}, {b}, {x})" for a, b, x in triples if not metric_invariant(a, b, x)), None
        ),
        "invariant_unit": next(
            (f"g = {gamma}" for gamma in g.elements() if mat_vec(h.action[gamma], alg.unit) != alg.unit),
            next((f"j = {j}" for j in range(d) if alg.unit[j] != 0 and h.degrees[j] != g.identity), None),
        ),
        "associative": next((f"(a, b, c) = ({a}, {b}, {x})" for a, b, x in triples if not associates(a, b, x)), None),
        "unital": next((f"b = {b}" for b in range(d) if not unit_law(b)), None),
        "metric": None if metric_rep.passed else metric_rep,
    }
    return Verdict(witnesses)


# -- fixtures -------------------------------------------------------------------


def group_algebra(group, support=None):
    """k[H] for the elements H of support (default all of G), graded by G.

    e_x has degree x, g acts by e_x -> e_{g x g^-1}, e_x e_y = e_{xy}, the
    metric pairs e_x with e_{x^-1}, and e_1 is the unit; support must be a
    subgroup closed under conjugation.
    """
    xs = list(support if support is not None else group.elements())
    slot = {x: i for i, x in enumerate(xs)}
    n = len(xs)

    def line(i):
        return tuple(Fraction(int(j == i)) for j in range(n))

    action = tuple(tuple(zip(*(line(slot[group.conj(g, x)]) for x in xs))) for g in group.elements())
    mult = tuple(tuple(line(slot[group.mul(x, y)]) for y in xs) for x in xs)
    metric = tuple(line(slot[group.inv(x)]) for x in xs)
    return GFrobeniusAlgebra(GradedModule(group, tuple(xs), action), metric, mult, line(slot[group.identity]))


S3 = symmetric_group(3)
ALGEBRAS = {
    "z2": z2_frobenius_algebra(3),
    "z2-wide": z2_frobenius_algebra(4),
    "z2-d8": z2_frobenius_algebra(5),
    "z3": group_algebra(cyclic_group(3)),
    "s3": group_algebra(S3),
    "s3-a3": group_algebra(S3, [x for x in S3.elements() if S3.mul(x, S3.mul(x, x)) == S3.identity]),
}
SCALES = [Fraction(x) for x in ("1", "-1", "2", "-1/2", "3/2", "1/3")]
SMALL = st.sampled_from([Fraction(x) for x in ("1", "-1", "2", "1/2", "-3/5")])
MUTATIONS = ("none", "mult", "metric", "unit", "action", "swap")


def in_basis(alg, p):
    """The same algebra in the basis e'_a = sum_i p[i][a] e_i."""
    d = alg.dim
    p_inv = linalg.mat_inv(p)
    cols = linalg.transpose(p)
    mult = [[list(mat_vec(p_inv, dense_product(alg, cols[a], cols[b]))) for b in range(d)] for a in range(d)]
    action = [[list(r) for r in mat_mul(p_inv, mat_mul(m, p))] for m in alg.module.action]
    metric = [list(r) for r in mat_mul(cols, mat_mul(alg.metric, p))]
    return mult, action, metric, list(mat_vec(p_inv, alg.unit))


@st.composite
def algebras(draw):
    """(name, algebra, mutation): a fixture in a random graded basis, maybe broken."""
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    alg = ALGEBRAS[name]
    h, d = alg.module, alg.dim
    # P = diag(s) (I + c E_ij) with deg i = deg j preserves every degree block
    p = [[draw(st.sampled_from(SCALES)) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    same = [(i, j) for i in range(d) for j in range(d) if i != j and h.degrees[i] == h.degrees[j]]
    if same and draw(st.booleans()):
        i, j = draw(st.sampled_from(same))
        p[i][j] = draw(SMALL)
    mult, action, metric, unit = in_basis(alg, linalg.mat(p))

    mutation = draw(st.sampled_from(MUTATIONS))
    a, b, k = (draw(st.integers(0, d - 1)) for _ in range(3))
    if mutation == "mult":
        mult[a][b][k] += draw(SMALL)
    elif mutation == "metric":
        metric[a][b] += draw(SMALL)
    elif mutation == "unit":
        unit[a] += draw(SMALL)
    elif mutation == "action":
        action[draw(st.sampled_from(list(h.group.elements())))][a][b] += draw(SMALL)
    elif mutation == "swap":
        mult[a][b], mult[b][a] = mult[b][a], mult[a][b]
    module = GradedModule(h.group, h.degrees, tuple(linalg.mat(m) for m in action))
    planes = tuple(linalg.mat(plane) for plane in mult)
    return name, GFrobeniusAlgebra(module, linalg.mat(metric), planes, linalg.vec(unit)), mutation


# zeros that are and are not the ZERO object, and plain ints
vectors = st.lists(st.sampled_from([ZERO, Fraction(0), 0, 3] + [Fraction(x) for x in ("1", "-2", "1/3", "5/2")]))


@settings(max_examples=250, deadline=None)
@given(algebras())
def test_check_gfa_matches_the_loop_reference(case):
    name, alg, mutation = case
    rep = check_gfa(alg)
    ref = check_gfa_reference(alg)
    assert rep == ref and list(rep.checks) == list(ref.checks) and rep.failure == ref.failure
    if mutation == "none":
        assert rep.passed and rep.failure is None


@settings(max_examples=200, deadline=None)
@given(algebras(), st.data())
def test_product_matches_the_dense_product(case, data):
    _, alg, _ = case
    d = alg.dim
    v = tuple(data.draw(vectors.map(lambda xs: (xs + [Fraction(0)] * d)[:d])))
    w = tuple(data.draw(vectors.map(lambda xs: (xs + [Fraction(0)] * d)[:d])))
    assert alg.product(v, w) == dense_product(alg, v, w)
    e = linalg.identity(d)
    assert [[alg.product(x, y) for y in e] for x in e] == [[tuple(r) for r in plane] for plane in alg.mult]


def test_every_fixture_passes():
    """Every fixture passes check_gfa and the reference alike, and so does the algebra that gfa_from_cubic
    builds from its cubic form and unit."""
    for alg in ALGEBRAS.values():
        assert check_gfa(alg).passed and check_gfa_reference(alg).passed
        assert check_gfa(gfa_from_cubic(alg.module, alg.metric, cubic_form_of(alg), alg.unit)).passed


@settings(max_examples=200, deadline=None)
@given(algebras())
@example(("s3", ALGEBRAS["s3"], "none"))
def test_braided_commutativity_is_the_braiding_of_the_cubic(case):
    """Where the metric passes and is invariant, the braided_commutativity row passes exactly when the cubic
    form eta(e_a e_b, e_c) is braided on the dual module: check_gfa and is_braided read one axiom."""
    _, alg, _ = case
    rep = check_gfa(alg)
    assume(rep.checks["metric"] is None and rep.checks["metric_invariance"] is None)
    braided = is_braided(dual_module(alg.module), cubic_form_of(alg))
    assert (rep.checks["braided_commutativity"] is None) == braided


def with_constant(alg, a, b, k, x):
    """alg with the structure constant mult[a][b][k] set to x."""
    mult = [[list(r) for r in plane] for plane in alg.mult]
    mult[a][b][k] = x
    return GFrobeniusAlgebra(alg.module, alg.metric, tuple(linalg.mat(plane) for plane in mult), alg.unit)


def one_sided_constant(alg):
    """The least (a, b, k) with mult[a][b][k] = 0 and some c with eta_kc != 0 and eta(e_a, e_b e_c) = 0.

    Setting that constant makes eta(e_a e_b, e_c) nonzero where the other
    side of metric invariance is zero, so the two sides differ at a key that
    only one of them holds.
    """
    d, eta = alg.dim, alg.metric
    e = linalg.identity(d)
    return next(
        (a, b, k) for a in range(d) for b in range(d) for k in range(d)
        if alg.mult[a][b][k] == 0
        and any(eta[k][c] and not dot(eta[a], dense_product(alg, e[b], e[c])) for c in range(d))
    )


WITNESS_ALGEBRAS = {
    "z2-d10": z2_frobenius_algebra(6),
    "A10": milnor_ring("A", 10),
    "D8": milnor_ring("D", 8),
}


# (algebra, moved constant, metric_invariance witness, associative witness); None where the check passes
WITNESS_CASES = [
    ("z2-d10", "last", None, None),
    ("z2-d10", "first", (0, 0, 4), (0, 0, 1)),
    ("z2-d10", "one-sided", (0, 0, 3), (0, 0, 1)),
    ("A10", "last", (0, 9, 9), (1, 8, 9)),
    ("A10", "first", (0, 0, 9), (0, 0, 1)),
    ("A10", "one-sided", (0, 0, 8), (0, 0, 1)),
    ("D8", "last", None, None),
    ("D8", "first", (0, 0, 6), (0, 0, 1)),
    ("D8", "one-sided", (0, 0, 5), (0, 0, 1)),
]


@pytest.mark.parametrize("name, position, invariance, association", WITNESS_CASES, ids=[
    f"{name}-{position}" for name, position, _, _ in WITNESS_CASES
])
def test_witness_order_matches_the_reference(name, position, invariance, association):
    """One structure constant moved by 1/2 at (d-1, d-1, d-1), at (0, 0, 0) or where one side of metric
    invariance is zero: every witness is the reference's, and the least (a, b, c) of metric_invariance
    and associative is pinned."""
    alg = WITNESS_ALGEBRAS[name]
    d = alg.dim
    assert check_gfa(alg).passed
    a, b, k = {"last": (d - 1,) * 3, "first": (0, 0, 0)}.get(position) or one_sided_constant(alg)
    bad = with_constant(alg, a, b, k, alg.mult[a][b][k] + Fraction(1, 2))
    rep, ref = check_gfa(bad), check_gfa_reference(bad)
    assert rep == ref and rep.failure == ref.failure
    pinned = [None if w is None else "(a, b, c) = ({}, {}, {})".format(*w) for w in (invariance, association)]
    assert [rep.checks["metric_invariance"], rep.checks["associative"]] == pinned


def test_the_s3_group_algebra_passes():
    """k[S3] with the conjugation action satisfies e_a e_b = rho_{deg(a)}(e_b) e_a, the Jarvis-Kaufmann-Kimura
    axiom; the reading rho_{deg(a)^-1} would fail it on a product of two 3-cycles."""
    assert check_gfa(ALGEBRAS["s3"]).passed
