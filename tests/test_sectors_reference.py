"""Sector bases and the two WDVV rows of check_pre_gfm against the earlier loops.

invariants_basis_reference, untwisted_basis_reference and
z2_decompose_reference are the earlier bodies of the three sector-basis
functions of gfrob.modules: one nullspace of the stacked rho(gamma) - I for
the invariants, the coordinate vectors of the untwisted block, and an
eigenspace loop per sign on the untwisted block of an order-two module.
They must agree with the library on every fixture module, down to the
Fractions of each vector.

The WDVV rows are held against two independent restrictions: the untwisted
sector by setting the twisted coordinates to zero and taking the untwisted
block of the metric (the earlier route), the invariants by expanding every
monomial in the linear forms t_j = sum_b v_b[j] u_b and pulling the metric
back with dense products.  make_z2_swap_module swaps two untwisted basis
vectors, so its invariants include e_0 + e_1 and neither sector basis of
swap_manifold is a set of coordinate vectors.
"""

from fractions import Fraction

import pytest

from gfrob import MultiPoly, Potential, check_pre_gfm, linalg, potential_A, wdvv_check
from gfrob.errors import DegenerateMetric, NotZ2
from gfrob.groups import trivial_group
from gfrob.modules import (
    invariants_basis,
    self_invariance_witness,
    trivial_graded_module,
    untwisted_basis,
    z2_decompose,
)
from gfrob.singularity import flat_metric, z2_frobenius_manifold

from conftest import (
    make_s3_regular_module,
    make_z2_swap_module,
    mat_mul,
    swap_broken_term,
    swap_manifold,
)

# -- the earlier sector bases --------------------------------------------------


def invariants_basis_reference(h):
    rows = []
    ident = linalg.identity(h.dim)
    for gamma in h.group.elements():
        if gamma == h.group.identity:
            continue
        for i in range(h.dim):
            rows.append([h.action[gamma][i][j] - ident[i][j] for j in range(h.dim)])
    if not rows:
        return [tuple(row) for row in ident]
    return linalg.nullspace(rows)


def untwisted_basis_reference(h):
    ident = linalg.identity(h.dim)
    return [ident[j] for j in h.untwisted_indices()]


def z2_decompose_reference(h):
    g = h.group
    if g.order != 2:
        raise NotZ2("z2_decompose requires a group of order 2")
    if self_invariance_witness(h) is not None:
        raise NotZ2("z2_decompose requires a self-invariant module")
    nontriv = 1 - g.identity
    rho = h.action[nontriv]
    e_idx = h.untwisted_indices()

    def eigen(sign):
        rows = []
        for i in e_idx:
            rows.append([rho[i][j] - (sign if i == j else 0) for j in e_idx])
        out = []
        for k in linalg.nullspace(rows):
            full = [Fraction(0)] * h.dim
            for pos, j in enumerate(e_idx):
                full[j] = k[pos]
            out.append(tuple(full))
        return out

    h_g = [tuple(Fraction(int(i == j)) for i in range(h.dim)) for j in h.block_indices(nontriv)]
    return eigen(1), eigen(-1), h_g


FIXTURE_MODULES = ["orbifold_module", "z3_module", "s3_module", "s3_module_twisted", "trivial_modules"]


def fixture_modules(request):
    """Every module fixture of conftest, the S3 regular module and the swap module."""
    out = []
    for name in FIXTURE_MODULES:
        value = request.getfixturevalue(name)
        out += value if isinstance(value, list) else [value]
    return out + [make_s3_regular_module(), make_z2_swap_module()]


def exactly(basis):
    """The vectors as tuples of (type, value) pairs, so an int where a Fraction was due is seen."""
    return [tuple((type(x), x) for x in v) for v in basis]


def test_sector_bases_match_the_earlier_loops(request):
    for h in fixture_modules(request):
        assert exactly(invariants_basis(h)) == exactly(invariants_basis_reference(h))
        assert exactly(untwisted_basis(h)) == exactly(untwisted_basis_reference(h))
        try:
            want = z2_decompose_reference(h)
        except NotZ2 as exc:
            with pytest.raises(NotZ2, match=str(exc)):
                z2_decompose(h)
        else:
            assert [exactly(part) for part in z2_decompose(h)] == [exactly(part) for part in want]


def test_swap_module_invariants_are_not_coordinate_vectors():
    h = make_z2_swap_module()
    one, zero = Fraction(1), Fraction(0)
    assert invariants_basis(h) == [(one, one, zero, zero), (zero, zero, one, zero), (zero, zero, zero, one)]
    assert z2_decompose(h) == (
        [(one, one, zero, zero), (zero, zero, one, zero)],
        [(-one, one, zero, zero)],
        [(zero, zero, zero, one)],
    )


# -- the two WDVV rows ---------------------------------------------------------


def sector_row(sector, pot, eta):
    """check_pre_gfm's WDVV row on a restricted potential and metric."""
    try:
        report = wdvv_check(pot, eta)
    except DegenerateMetric:
        return f"metric is singular on the {sector} sector"
    return [list(w) for w in report.witnesses[:10]] or None


def untwisted_row_reference(h, eta, pot):
    """The twisted coordinates set to zero, and the untwisted block of the metric."""
    e_idx = h.untwisted_indices()
    names = tuple(pot.names[j] for j in e_idx)
    other = [pot.names[j] for j in range(h.dim) if j not in e_idx]
    metric = tuple(tuple(eta[i][j] for j in e_idx) for i in e_idx)
    return sector_row("untwisted", Potential(names, pot.poly.subst_zero(other)), metric)


def invariants_row_reference(h, eta, pot):
    """Every monomial expanded in t_j = sum_b v_b[j] u_b, and the metric pulled back densely."""
    basis = invariants_basis_reference(h)
    names = tuple(f"u{b}" for b in range(len(basis)))
    unit = [tuple(int(b == c) for c in range(len(basis))) for b in range(len(basis))]
    linear = {
        v: sum((MultiPoly(names, {unit[b]: vec[j]}) for b, vec in enumerate(basis)), MultiPoly.zero(names))
        for j, v in enumerate(pot.names)
    }
    restricted = MultiPoly.zero(names)
    for exp, c in pot.poly.sorted_terms():
        term = MultiPoly.constant(c, names)
        for v, e in zip(pot.poly.vars, exp):
            for _ in range(e):
                term = term * linear[v]
        restricted = restricted + term
    incl = tuple(tuple(v[i] for v in basis) for i in range(h.dim))
    metric = mat_mul(linalg.transpose(incl), mat_mul(eta, incl))
    return sector_row("invariant", Potential(names, restricted), metric)


def pre_gfm_cases():
    """(module, metric, potential) by name: the swap module, two order-two assemblies and the trivial group."""
    z2 = {n: z2_frobenius_manifold(n) for n in (3, 4)}
    return {
        "swap": swap_manifold(),
        "swap_broken": swap_manifold(swap_broken_term()),
        "swap_broken_in_x2": swap_manifold(MultiPoly(("x2",), {(4,): Fraction(1, 7)})),
        **{f"z2_{n}": (fm.module, fm.metric, fm.potential) for n, fm in z2.items()},
        "trivial_A3": (trivial_graded_module(trivial_group(), 3), flat_metric(3), potential_A(3)),
    }


@pytest.mark.parametrize("case", ["swap", "swap_broken", "swap_broken_in_x2", "z2_3", "z2_4", "trivial_A3"])
def test_wdvv_rows_match_the_independent_restrictions(case):
    h, eta, pot = pre_gfm_cases()[case]
    verdict = check_pre_gfm(h, eta, pot)
    assert verdict.checks["wdvv_untwisted"] == untwisted_row_reference(h, eta, pot)
    assert verdict.checks["wdvv_invariants"] == invariants_row_reference(h, eta, pot)


def test_swap_manifold_passes():
    assert check_pre_gfm(*swap_manifold()).passed


def test_swap_manifold_with_a_broken_term_fails_both_sectors():
    verdict = check_pre_gfm(*swap_manifold(swap_broken_term()))
    assert verdict.failed == ["wdvv_untwisted", "wdvv_invariants"]
    assert verdict.checks["wdvv_invariants"] == [
        [0, 0, 1, 1], [0, 0, 1, 2], [0, 0, 2, 1], [0, 0, 2, 2], [0, 1, 1, 0], [0, 1, 2, 0], [0, 2, 1, 0], [0, 2, 2, 0],
    ]


def test_a_singular_invariant_metric_is_named():
    """e_0 + e_1 is null for a metric with eta_00 = eta_11 = -eta_01: the invariant sector is singular."""
    h, _, pot = swap_manifold()
    eta = linalg.mat([[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    verdict = check_pre_gfm(h, eta, pot)
    assert verdict.checks["wdvv_invariants"] == "metric is singular on the invariant sector"
    assert verdict.checks["wdvv_invariants"] == invariants_row_reference(h, eta, pot)
