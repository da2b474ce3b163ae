"""The quadruple WDVV loop, kept as a test-only oracle.

The library walks the 4-multisets of indices and computes each pair product
M(P, Q) = sum_l rows[P][l] Y_lQ once.  The loop it replaced recomputes both
sides of every comparison afresh for each tuple (a, b, c, d) with a <= c.  It
is kept here as an independent reference: on any potential and any invertible
metric, symmetric or not, both must report the same verdict and the same
witness tuples.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gfrob import MultiPoly, Potential, wdvv_check
from gfrob.errors import DegenerateMetric
from gfrob.frobenius import WdvvReport
from gfrob.linalg import mat_inv
from gfrob.singularity import flat_metric, potential_A, potential_D, potential_D_metric


def wdvv_reference(pot, eta):
    """Compare sum_l row(a,b)[l] Y_lcd with sum_l row(b,c)[l] Y_lad for every a <= c."""
    d = len(pot.names)
    try:
        ginv = mat_inv(eta)
    except ValueError:
        raise DegenerateMetric("metric is singular") from None
    y3 = pot.third

    rows = {}
    for a in range(d):
        for b in range(a, d):
            row = []
            for l in range(d):
                acc = MultiPoly.zero(pot.names)
                for k in range(d):
                    if ginv[k][l] != 0:
                        acc = acc + y3(a, b, k) * ginv[k][l]
                row.append(acc)
            rows[(a, b)] = row

    def row(a, b):
        return rows[(a, b) if a <= b else (b, a)]

    witnesses = []
    for a in range(d):
        for c in range(a, d):
            for b in range(d):
                lhs_row = row(a, b)
                rhs_row = row(b, c)
                for dd in range(d):
                    lhs = MultiPoly.zero(pot.names)
                    rhs = MultiPoly.zero(pot.names)
                    for l in range(d):
                        if lhs_row[l]:
                            lhs = lhs + lhs_row[l] * y3(l, c, dd)
                        if rhs_row[l]:
                            rhs = rhs + rhs_row[l] * y3(l, a, dd)
                    if lhs != rhs:
                        witnesses.append((a, b, c, dd))
    return WdvvReport(tuple(sorted(set(witnesses))))


CLOSED_FORMS = {
    "A3": (potential_A(3), flat_metric(3)),
    "A5": (potential_A(5), flat_metric(5)),
    "D3": (potential_D(3), potential_D_metric(3)),
    "D4": (potential_D(4), potential_D_metric(4)),
}


def perturbed(pot, seed):
    """The potential plus a few seeded cubic and quartic monomials."""
    rng = random.Random(seed)
    d = len(pot.names)
    extra = {}
    for degree in (3, 4):
        for _ in range(rng.randint(0, 2)):
            exp = [0] * d
            for _ in range(degree):
                exp[rng.randrange(d)] += 1
            extra[tuple(exp)] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return Potential(pot.names, pot.poly + MultiPoly(pot.names, extra))


def random_metric(d, seed, symmetric):
    """A seeded rational matrix near the identity; symmetric only on request."""
    rng = random.Random(seed)
    m = [[Fraction(int(i == j) * rng.choice((1, -1, 2))) for j in range(d)] for i in range(d)]
    for _ in range(rng.randint(0, d)):
        i, j = rng.randrange(d), rng.randrange(d)
        m[i][j] += Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        if symmetric and i != j:
            m[j][i] = m[i][j]
    return tuple(tuple(r) for r in m)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(CLOSED_FORMS)),
    pot_seed=st.integers(0, 2**32 - 1),
    metric_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    symmetric=st.booleans(),
)
def test_wdvv_matches_reference_on_perturbed_potentials(name, pot_seed, metric_seed, symmetric):
    pot, eta = CLOSED_FORMS[name]
    pot = perturbed(pot, pot_seed)
    if metric_seed is not None:
        eta = random_metric(len(pot.names), metric_seed, symmetric)
    try:
        expected = wdvv_reference(pot, eta)
    except DegenerateMetric:
        with pytest.raises(DegenerateMetric):
            wdvv_check(pot, eta)
        return
    got = wdvv_check(pot, eta)
    assert got.passed == expected.passed
    assert got.witnesses == expected.witnesses


def test_reference_sees_nonsymmetric_witnesses():
    """A non-symmetric metric breaks WDVV for A3, and both routes say where."""
    pot, _ = CLOSED_FORMS["A3"]
    eta = ((Fraction(0), Fraction(0), Fraction(1)), (Fraction(0), Fraction(1), Fraction(0)), (Fraction(1), Fraction(1), Fraction(0)))
    expected = wdvv_reference(pot, eta)
    assert not expected.passed
    assert wdvv_check(pot, eta) == expected


@pytest.mark.parametrize(
    "pot, eta",
    [(potential_A(n), flat_metric(n)) for n in range(2, 8)]
    + [(potential_D(n), potential_D_metric(n)) for n in range(3, 6)],
    ids=[f"A{n}" for n in range(2, 8)] + [f"D{n}" for n in range(3, 6)],
)
def test_closed_forms_pass_on_both_routes(pot, eta):
    got = wdvv_check(pot, eta)
    assert got.passed and got.witnesses == ()
    assert wdvv_reference(pot, eta) == got


def test_no_pair_product_sums_an_empty_list(monkeypatch):
    """Where no nonzero row entry meets a nonzero third partial, the pair product is a stored zero, not a kernel call."""
    pot, eta = potential_A(8), flat_metric(8)
    sizes = []
    kernel = MultiPoly.sum_of_products

    def counted(pairs, variables=()):
        pairs = list(pairs)
        sizes.append(len(pairs))
        return kernel(pairs, variables)

    monkeypatch.setattr(MultiPoly, "sum_of_products", staticmethod(counted))
    assert wdvv_check(pot, eta).passed
    assert sizes and 0 not in sizes
