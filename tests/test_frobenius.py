import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gfrob import (
    FmData,
    GFrobeniusAlgebra,
    MultiPoly,
    Potential,
    Tensor,
    assemble_z2,
    check_gfa,
    check_metric,
    check_pre_gfm,
    gfa_from_cubic,
    graded_module,
    mult_from_potential,
    subalgebras,
    wdvv_check,
)
from gfrob.errors import BlockDegreeViolation, DegenerateMetric, InvalidAction, RestrictionMismatch
from gfrob.frobenius import braid_witness, decompose_z2_potential, g_degree_witness
from gfrob.groups import cyclic_group, trivial_group
from gfrob.linalg import identity, mat, mat_inv, rank, solve_columns, transpose
from gfrob.modules import GradedModule, dual_module, invariants_basis, trivial_graded_module
from gfrob.singularity import (
    flat_metric,
    milnor_ring,
    potential_A,
    potential_D,
    potential_D_metric,
    z2_frobenius_algebra,
    z2_frobenius_manifold,
)

from conftest import cubic_form_of, make_s3_regular_module, mat_mul


def v(name):
    return MultiPoly.variable(name)


def potential_unit(pot, eta):
    """The vector u with u o e_b = e_b at the origin; raises ValueError if none."""
    d = len(pot.names)
    c = mult_from_potential(pot, eta)
    rows = [[c[a][b][l] for a in range(d)] for b in range(d) for l in range(d)]
    rhs = [Fraction(int(b == l)) for b in range(d) for l in range(d)]
    try:
        return solve_columns(rows, [rhs])[0]
    except ValueError:
        raise ValueError("no unique unit vector at the origin") from None


def test_check_metric_identity_trivial(trivial_modules):
    h = trivial_modules[1]
    rep = check_metric(h, identity(3))
    assert rep.passed


def test_check_metric_orbifold_block():
    alg = z2_frobenius_algebra(4)
    rep = check_metric(alg.module, alg.metric)
    assert rep.passed


def test_check_metric_degenerate_twisted_block():
    alg = z2_frobenius_algebra(3)
    m = [list(r) for r in alg.metric]
    m[-1][-1] = Fraction(0)
    rep = check_metric(alg.module, tuple(tuple(r) for r in m))
    assert rep.checks["blockwise_nondegenerate"] is not None
    assert rep.checks["symmetric"] is None and rep.checks["grading_preserving"] is None
    assert rep.failure == "blockwise_nondegenerate fails at g = 1"


def test_check_metric_grading_violation():
    alg = z2_frobenius_algebra(3)
    m = [list(r) for r in alg.metric]
    m[0][3] = m[3][0] = Fraction(1)  # pairs untwisted with twisted
    rep = check_metric(alg.module, tuple(tuple(r) for r in m))
    assert rep.checks["grading_preserving"] is not None


def test_wdvv_cubic_potential_constant_algebra():
    # cubic potential whose induced multiplication is the A_2 ring
    pot = potential_A(2)
    rep = wdvv_check(pot, flat_metric(2))
    assert rep.passed


def test_wdvv_four_parameter_family():
    assert wdvv_check(potential_A(4), flat_metric(4)).passed


def test_wdvv_degenerate_metric():
    pot = potential_A(3)
    with pytest.raises(DegenerateMetric):
        wdvv_check(pot, tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3)))


def test_wdvv_scaling_stability():
    # scaling the degree-n part by a^n preserves associativity (a = 2)
    pot = potential_A(3)
    scaled = MultiPoly.zero(pot.poly.vars)
    for d in range(pot.poly.total_degree() + 1):
        scaled = scaled + pot.poly.homogeneous_part(d) * Fraction(2) ** d
    assert wdvv_check(Potential(pot.names, scaled), flat_metric(3)).passed


def test_wdvv_relabeling_invariance():
    pot = potential_A(3)
    relabeled = pot.poly.substitute({f"t_{i}": MultiPoly.variable(f"u_{i}") for i in range(3)})
    rep = wdvv_check(Potential(("u_0", "u_1", "u_2"), relabeled), flat_metric(3))
    assert rep.passed


def test_mult_from_potential_origin():
    c = mult_from_potential(potential_A(3), flat_metric(3))
    # -d0 is the unit
    assert c[0][0] == (Fraction(-1), Fraction(0), Fraction(0))
    assert c[1][1] == (Fraction(0), Fraction(0), Fraction(-1))
    u = potential_unit(potential_A(3), flat_metric(3))
    assert u == (Fraction(-1), Fraction(0), Fraction(0))


def test_mult_commutative_at_points():
    pot = potential_A(4)
    eta = flat_metric(4)
    pt = {"t_0": Fraction(1, 2), "t_1": Fraction(-1), "t_2": Fraction(2), "t_3": Fraction(1, 3)}
    c = mult_from_potential(pot, eta, pt)
    for a in range(4):
        for b in range(4):
            assert c[a][b] == c[b][a]


def test_mult_from_potential_matches_the_dense_contraction():
    """Each c[a][b][l] is the Fraction sum over every k of Y_abk g^{kl}, as first
    written, for flat metrics, a metric with a dense inverse and a metric that
    is not symmetric (where the rows g^{k.} and the columns of eta^-1 differ),
    at the origin and at a point."""
    dense_eta = mat([[2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 1, Fraction(1, 2)], [0, 0, Fraction(1, 2), 5]])
    skew_eta = mat([[1, 2, 0], [0, 1, 1], [1, 0, Fraction(1, 2)]])
    cases = [
        (potential_A(5), flat_metric(5)),
        (potential_D(4), potential_D_metric(4)),
        (potential_A(4), dense_eta),
        (potential_A(3), skew_eta),
    ]
    for pot, eta in cases:
        ginv, d = mat_inv(eta), len(pot.names)
        for pt in ({}, {name: Fraction(j - 1, 3) for j, name in enumerate(pot.names)}):
            point = {name: pt.get(name, Fraction(0)) for name in pot.names}
            want = tuple(
                tuple(tuple(sum(pot.third(a, b, k).eval(point) * ginv[k][l] for k in range(d)) for l in range(d))
                      for b in range(d))
                for a in range(d)
            )
            got = mult_from_potential(pot, eta, pt)
            assert got == want and all(type(x) is Fraction for row in got for ab in row for x in ab)


def test_group_algebra_is_gfa(z2):
    h = graded_module(z2, (0, 1), [identity(2), identity(2)])
    eta = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    mult = (
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
    )
    alg = GFrobeniusAlgebra(h, eta, mult, (Fraction(1), Fraction(0)))
    assert check_gfa(alg).passed


def test_orbifold_algebra_axioms():
    for n in (3, 4, 5, 6):
        assert check_gfa(z2_frobenius_algebra(n)).passed


@pytest.mark.parametrize("alg", [
    pytest.param(lambda: z2_frobenius_algebra(10), id="z2-d18"),
    pytest.param(lambda: z2_frobenius_algebra(14), id="z2-d26"),
    pytest.param(lambda: z2_frobenius_algebra(18), id="z2-d34"),
    pytest.param(lambda: milnor_ring("A", 28), id="A28"),
])
def test_large_algebras_pass(alg):
    """Sizes at which a d^4 check takes seconds: the sparse check_gfa proves them in a fraction of one."""
    assert check_gfa(alg()).passed


@pytest.mark.parametrize("shape", ["one matrix", "short rows", "ragged", "bad degree"])
def test_check_gfa_refuses_a_malformed_module(shape):
    """The module's shape is checked before its action is read: a ragged matrix is InvalidAction too."""
    alg = z2_frobenius_algebra(3)
    h = alg.module
    degrees, action = h.degrees, h.action
    if shape == "one matrix":
        action = action[:1]
    elif shape == "short rows":
        action = tuple(tuple(r[:-1] for r in m) for m in action)
    elif shape == "ragged":
        action = tuple(tuple(r if i == 0 else r[:-1] for i, r in enumerate(m)) for m in action)
    else:
        degrees = degrees[:-1] + (h.group.order,)
    bad = GFrobeniusAlgebra(GradedModule(h.group, degrees, action), alg.metric, alg.mult, alg.unit)
    with pytest.raises(InvalidAction):
        check_gfa(bad)


def test_orbifold_algebra_broken_square_fails():
    alg = z2_frobenius_algebra(3)
    mult = [[[c for c in row] for row in plane] for plane in alg.mult]
    y = alg.dim - 1
    mult[y][y] = [-c for c in mult[y][y]]  # y.y = +z^{2n-4} instead
    bad = GFrobeniusAlgebra(alg.module, alg.metric, tuple(tuple(tuple(r) for r in p) for p in mult), alg.unit)
    rep = check_gfa(bad)
    assert not rep.passed
    assert {"metric_invariance", "associative"} & set(rep.failed)


def test_orbifold_algebra_rescaled_twisted_metric_fails_only_invariance():
    # the product is untouched, so it stays associative; the metric stays a
    # valid block metric, but eta(y.y, 1) != eta(y, y.1) once eta_yy doubles
    alg = z2_frobenius_algebra(3)
    m = [list(r) for r in alg.metric]
    m[-1][-1] *= 2
    bad = GFrobeniusAlgebra(alg.module, tuple(tuple(r) for r in m), alg.mult, alg.unit)
    rep = check_gfa(bad)
    assert rep.failed == ["metric_invariance"]
    assert rep.checks["associative"] is None and rep.checks["metric"] is None
    # eta(z . y, y) = 2 eta_yy, while eta(z, y . y) keeps the old value
    assert rep.failure == "metric_invariance fails at (a, b, c) = (0, 3, 3)"


def _broken_algebras(rng, count):
    """The A_3 orbifold algebra with up to two structure constants, metric or unit entries moved."""
    alg = z2_frobenius_algebra(3)
    d = alg.dim
    for _ in range(count):
        mult = [[list(r) for r in p] for p in alg.mult]
        metric = [list(r) for r in alg.metric]
        unit = list(alg.unit)
        for _ in range(rng.randint(1, 2)):
            v = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2))
            kind = rng.randrange(3)
            if kind == 0:
                mult[rng.randrange(d)][rng.randrange(d)][rng.randrange(d)] += v
            elif kind == 1:
                metric[rng.randrange(d)][rng.randrange(d)] += v
            else:
                unit[rng.randrange(d)] += v
        yield GFrobeniusAlgebra(
            alg.module, tuple(map(tuple, metric)), tuple(tuple(map(tuple, p)) for p in mult), tuple(unit)
        )


def test_gfa_failure_names_the_first_failing_axiom_and_a_true_witness():
    seen = set()
    for alg in _broken_algebras(random.Random(3), 150):
        rep = check_gfa(alg)
        assert (rep.failure is None) == rep.passed
        if rep.passed:
            continue
        first = rep.failed[0]
        seen.add(first)
        assert rep.failure.startswith(f"{first} fails")
        idx = [int(x) for x in re.findall(r"-?\d+", rep.failure.split(" fails")[1])]
        e = identity(alg.dim)

        def eta(v, w):
            return sum(x * y * alg.metric[i][j] for i, x in enumerate(v) for j, y in enumerate(w))

        if first == "associative":
            a, b, c = idx
            assert alg.product(alg.product(e[a], e[b]), e[c]) != alg.product(e[a], alg.product(e[b], e[c]))
        elif first == "metric_invariance":
            a, b, c = idx
            assert eta(alg.product(e[a], e[b]), e[c]) != eta(e[a], alg.product(e[b], e[c]))
        elif first == "unital":
            (b,) = idx
            assert alg.product(alg.unit, e[b]) != e[b]
        elif first == "graded_mult":
            a, b, k = idx
            assert alg.mult[a][b][k] != 0
    assert {"metric_invariance", "unital", "graded_mult"} <= seen


def test_gfa_from_cubic_round_trip():
    """gfa_from_cubic solves eta(e_a e_b, e_k) = Y3(e_k, e_b, e_a), the identity cubic_form_of reads, for any
    invertible metric: also for the metric with entry (0, 1) raised by 1, which is not symmetric."""
    alg = z2_frobenius_algebra(3)
    raised = [list(row) for row in alg.metric]
    raised[0][1] += 1
    skewed = dataclasses.replace(alg, metric=mat(raised))
    assert rank(skewed.metric) == alg.dim and skewed.metric != transpose(skewed.metric)
    for a in (alg, skewed):
        y3 = cubic_form_of(a)
        rebuilt = gfa_from_cubic(a.module, a.metric, y3, a.unit)
        assert rebuilt.mult == a.mult
        assert cubic_form_of(rebuilt) == y3


def test_gfa_from_cubic_zero_unit_fails():
    """gfa_from_cubic builds the zero product; check_gfa's unital row names its first basis vector."""
    alg = z2_frobenius_algebra(3)
    assert check_gfa(gfa_from_cubic(alg.module, alg.metric, Tensor(3), alg.unit)).checks["unital"] == "b = 0"


def fixed_locus_algebra(n, extra=None):
    """The product sum_k Y_abk g^{kl} of z2_frobenius_manifold(n) along its fixed locus, with unit -e_0.

    The structure constants are MultiPolys in the fixed coordinates: every other coordinate is set to
    zero in the third partials.  extra, a MultiPoly in the manifold's names, is added to the potential.
    """
    fm = z2_frobenius_manifold(n)
    names = fm.potential.names
    pot = fm.potential if extra is None else Potential(names, fm.potential.poly + extra)
    off = [v for v in names if v not in fm.fixed_names]
    ginv, d = mat_inv(fm.metric), len(names)

    def constant(a, b, l):
        return MultiPoly.sum_of_products((pot.third(a, b, k).subst_zero(off), ginv[k][l]) for k in range(d))

    mult = tuple(tuple(tuple(constant(a, b, l) for l in range(d)) for b in range(d)) for a in range(d))
    unit = tuple(Fraction(-int(j == 0)) for j in range(d))
    return GFrobeniusAlgebra(fm.module, fm.metric, mult, unit)


@pytest.mark.parametrize("n", [3, 4])
def test_check_gfa_runs_on_polynomial_structure_constants(n):
    """Along the fixed locus the constants are polynomials, kept as they are, and every axiom holds."""
    alg = fixed_locus_algebra(n)
    assert any(isinstance(x, MultiPoly) and x.total_degree() > 0 for row in alg.mult for ab in row for x in ab)
    verdict = check_gfa(alg)
    assert len(verdict.checks) == 10 and verdict.passed


def test_check_gfa_names_a_broken_polynomial_product():
    """t_2^2 t_4^2 / 7 breaks associativity of the fixed-locus product at n = 4, and nothing else."""
    extra = MultiPoly(("t_2", "t_4"), {(2, 2): Fraction(1, 7)})
    verdict = check_gfa(fixed_locus_algebra(4, extra))
    assert verdict.failed == ["associative"]
    assert verdict.checks["associative"] == "(a, b, c) = (1, 1, 2)"


def test_gfa_braided_commutativity_inherited():
    alg = z2_frobenius_algebra(4)
    rebuilt = gfa_from_cubic(alg.module, alg.metric, cubic_form_of(alg), alg.unit)
    assert check_gfa(rebuilt).checks["braided_commutativity"] is None


def test_subalgebras_trivial_group(trivial_modules):
    h = trivial_modules[0]
    alg = GFrobeniusAlgebra(h, identity(1), (((Fraction(1),),),), (Fraction(1),))
    sub_e, sub_g = subalgebras(alg)
    assert sub_e.mult == alg.mult and sub_g.mult == alg.mult


def two_branch_subalgebras(alg):
    """The untwisted sector by index slicing and the invariants by one solve per product, as first written."""
    h = alg.module
    e_idx = h.untwisted_indices()
    mult_e = tuple(tuple(tuple(alg.mult[a][b][k] for k in e_idx) for b in e_idx) for a in e_idx)
    eta_e = tuple(tuple(alg.metric[i][j] for j in e_idx) for i in e_idx)
    unit_e = tuple(alg.unit[j] for j in e_idx)
    sub_e = GFrobeniusAlgebra(trivial_graded_module(trivial_group(), len(e_idx)), eta_e, mult_e, unit_e)
    inv = invariants_basis(h)
    incl = tuple(tuple(v[i] for v in inv) for i in range(h.dim))
    mult_g = tuple(tuple(solve_columns(incl, [alg.product(p, q)])[0] for q in inv) for p in inv)
    eta_g = mat_mul(transpose(incl), mat_mul(alg.metric, incl))
    unit_g = solve_columns(incl, [alg.unit])[0]
    return sub_e, GFrobeniusAlgebra(trivial_graded_module(trivial_group(), len(inv)), eta_g, mult_g, unit_g)


@pytest.mark.parametrize(
    "kind, n", [("Z2", n) for n in range(3, 9)] + [("A", n) for n in range(2, 7)] + [("D", n) for n in range(3, 7)]
)
def test_subalgebras_match_the_two_branch_restriction(kind, n):
    alg = z2_frobenius_algebra(n) if kind == "Z2" else milnor_ring(kind, n)
    assert subalgebras(alg) == two_branch_subalgebras(alg)


def test_subalgebras_refuse_a_product_outside_a_sector():
    # e_0 e_0 = e_1 leaves the untwisted sector {e_0} of the module with degrees (e, g)
    h = graded_module(cyclic_group(2), (0, 1), [identity(2)] * 2)
    zero, one = Fraction(0), Fraction(1)
    mult = (((zero, one), (zero, zero)), ((zero, zero), (zero, zero)))
    alg = GFrobeniusAlgebra(h, identity(2), mult, (one, zero))
    with pytest.raises(ValueError, match="inconsistent system"):
        subalgebras(alg)


def check_assembly(asm):
    """check_pre_gfm on the module, metric and potential of an assembly."""
    return check_pre_gfm(asm.module, asm.metric, asm.potential)


def test_check_pre_gfm_passes_for_assembled():
    pa, pd = potential_A(3), potential_D(3)
    fe = FmData(flat_metric(3), pa)
    fg = FmData(potential_D_metric(3), pd)
    asm = assemble_z2(fe, fg, [0, 2], [0, 1])
    assert check_assembly(asm).passed
    assert asm.fixed_names == ("t_0", "t_2")
    assert asm.sign_names == ("t_1",)
    assert asm.twisted_names == ("t_*",)


def test_check_pre_gfm_detects_bad_twisted_term():
    pa, pd = potential_A(3), potential_D(3)
    broken = pd.poly + MultiPoly(("t_*", "t_0", "t_2"), {(2, 0, 2): Fraction(1, 7)})
    fe = FmData(flat_metric(3), pa)
    fg = FmData(potential_D_metric(3), Potential(pd.names, broken))
    report = check_assembly(assemble_z2(fe, fg, [0, 2], [0, 1]))
    assert not report.passed
    assert report.checks["wdvv_invariants"] is not None
    assert report.checks["wdvv_untwisted"] is None


def test_check_pre_gfm_trivial_group_single_wdvv(trivial_modules):
    h = trivial_modules[1]
    pot = potential_A(3)
    rep = check_pre_gfm(h, flat_metric(3), pot)
    assert rep.passed
    assert h.untwisted_indices() == list(range(h.dim))  # the untwisted restriction is the whole potential


def test_check_pre_gfm_degree_filter_ignores_coordinate_names():
    """x2 x3 x5 has dual degrees 2, 4, 5 and 2*4 != 4*2: off degree e in some ordering, whatever the names."""
    h = make_s3_regular_module()
    g = h.group
    eta = [[int(g.mul(i, j) == g.identity) for j in g.elements()] for i in g.elements()]
    plain = tuple(f"x{i}" for i in range(6))
    swapped = ("x0", "x1", "x5", "x3", "x4", "x2")  # coordinates 2 and 5 trade names
    for names in (plain, swapped):
        exp = tuple(int(j in (2, 3, 5)) for j in range(6))
        report = check_pre_gfm(h, eta, Potential(names, MultiPoly(names, {exp: 1})))
        assert "degree_filter" in report.failed
        assert report.checks["degree_filter"] == [[2, 1], [3, 1], [5, 1]]


def test_g_degree_witness_on_the_orbifold_dual(orbifold_module):
    hd = dual_module(orbifold_module)
    names = ("t_0", "t_2", "t_1", "t_*")
    t_star = MultiPoly(("t_*",), {(1,): 1})
    assert g_degree_witness(hd, Potential(names, t_star), 0) == ((3, 1),)
    assert g_degree_witness(hd, Potential(names, t_star * t_star), 0) is None
    assert g_degree_witness(hd, Potential(names, t_star * t_star * t_star), 1) is None


def test_assemble_z2_trivial_merge():
    # both inputs equal, everything shared: no sign or twisted block
    pa = potential_A(3)
    fe = FmData(flat_metric(3), pa)
    asm = assemble_z2(fe, fe, [0, 1, 2], [0, 1, 2])
    assert asm.sign_names == () and asm.twisted_names == ()
    assert asm.potential.poly == pa.poly
    assert asm.metric == flat_metric(3)
    assert check_assembly(asm).passed


def test_assemble_z2_restriction_mismatch():
    pa, pd = potential_A(3), potential_D(3)
    fe = FmData(flat_metric(3), Potential(pa.names, pa.poly + v("t_0") ** 3))
    fg = FmData(potential_D_metric(3), pd)
    with pytest.raises(RestrictionMismatch):
        assemble_z2(fe, fg, [0, 2], [0, 1])


def test_assemble_z2_metric_block_violation():
    pa, pd = potential_A(3), potential_D(3)
    m = [list(r) for r in potential_D_metric(3)]
    m[0][2] = m[2][0] = Fraction(1)  # pair shared with twisted
    fe = FmData(flat_metric(3), pa)
    fg = FmData(tuple(tuple(r) for r in m), pd)
    with pytest.raises(BlockDegreeViolation):
        assemble_z2(fe, fg, [0, 2], [0, 1])


def test_assemble_z2_odd_twisted_degree():
    pa, pd = potential_A(3), potential_D(3)
    odd = pd.poly + MultiPoly(("t_*", "t_0", "t_2"), {(1, 1, 1): Fraction(1)})
    fe = FmData(flat_metric(3), pa)
    fg = FmData(potential_D_metric(3), Potential(pd.names, odd))
    asm = assemble_z2(fe, fg, [0, 2], [0, 1])
    assert asm.potential.names == ("t_0", "t_2", "t_1", "t_*")
    assert check_assembly(asm).checks["degree_filter"] == [[0, 1], [1, 1], [3, 1]]  # t_0 t_2 t_*


def test_assemble_z2_name_mismatch():
    pa, pd = potential_A(3), potential_D(3)
    fe = FmData(flat_metric(3), pa)
    renamed = Potential(("u_0", "t_2", "t_*"), pd.poly.subst("t_0", MultiPoly.variable("u_0")))
    fg = FmData(potential_D_metric(3), renamed)
    with pytest.raises(RestrictionMismatch):
        assemble_z2(fe, fg, [0, 2], [0, 1])


def test_decompose_z2_potential_unique():
    pa, pd = potential_A(3), potential_D(3)
    fe = FmData(flat_metric(3), pa)
    fg = FmData(potential_D_metric(3), pd)
    asm = assemble_z2(fe, fg, [0, 2], [0, 1])
    y_i, y_v, y_g = decompose_z2_potential(asm)
    assert asm.potential.poly == y_i + y_v + y_g
    assert y_i + y_v == pa.poly
    assert (y_i + y_g).compact() == pd.poly.compact()
    mixed = asm.potential.poly + MultiPoly(("t_*", "t_1"), {(1, 1): Fraction(1)})
    with pytest.raises(BlockDegreeViolation):
        decompose_z2_potential(dataclasses.replace(asm, potential=Potential(asm.potential.names, mixed)))


def test_gfa_report_metric_nondegenerate_on_invariants():
    for n in (3, 4, 5):
        alg = z2_frobenius_algebra(n)
        sub = subalgebras(alg)[1]
        assert rank(sub.metric) == sub.module.dim


def test_potential_braidedness_non_diagonal_module():
    # the rotation-block module is not diagonal, so braidedness falls back
    # to polarized-tensor checks
    from conftest import make_z3_module

    h = make_z3_module()
    names = ("s0", "s1", "s2", "s3")
    inside = MultiPoly(names, {(2, 1, 0, 0): Fraction(1)})  # untwisted only
    assert braid_witness(h, Potential(names, inside)) is None
    mixed = MultiPoly(names, {(1, 0, 1, 0): Fraction(1)})  # rotation x twisted
    assert braid_witness(h, Potential(names, mixed)) is not None


def test_potential_braidedness_is_exact_beyond_degree_four():
    # s0^4 s2 mixes the rotation block with a twisted line; its polarization
    # has tensor degree 5 and is not fixed by the braiding
    from gfrob import dual_module, form_from_poly, is_braided
    from conftest import make_z3_module

    h = make_z3_module()
    names = ("s0", "s1", "s2", "s3")
    quintic = MultiPoly(names, {(4, 0, 1, 0): Fraction(1)})
    assert not is_braided(dual_module(h), form_from_poly(quintic, names, 5))
    assert braid_witness(h, Potential(names, quintic)) == (0, 2)


@st.composite
def potentials(draw):
    """A polynomial over some of the names a..d, and coordinate names that may include unused ones."""
    used = draw(st.permutations("abcd"))[: draw(st.integers(0, 4))]
    exps = st.tuples(*[st.integers(0, 4)] * len(used))
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    poly = MultiPoly(used, draw(st.dictionaries(exps, coefs, max_size=5)))
    names = tuple(draw(st.permutations("abcdxy"))[: draw(st.integers(1, 4))])
    return Potential(names, poly)


@settings(max_examples=100, deadline=None)
@given(potentials())
def test_partials_match_repeated_diff(pot):
    """second and third are d_a d_b P and d_a d_b d_c P in every argument order,
    also for coordinates the polynomial does not use."""
    p, names = pot.poly, pot.names
    for a, b in itertools.product(range(len(names)), repeat=2):
        assert pot.second(a, b) == p.diff(names[a]).diff(names[b])
    for a, b, c in itertools.product(range(len(names)), repeat=3):
        assert pot.third(a, b, c) == p.diff(names[a]).diff(names[b]).diff(names[c])
