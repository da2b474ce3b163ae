"""The residue route to the A/B/D potentials, kept as a test-only oracle.

The library reads the potential off one coefficient of the inverse Laurent
series and proves it with O(n^2) residue reductions.  The route it replaced
computes every third partial Y_abc = residue(dF_a dF_b dF_c / F') as an
O(n^3) loop of triple products reduced mod F', then integrates them with
the Euler operator.  It is kept here as an independent reference: the two
routes must agree term by term, names and declared variables included.
"""

import re
from functools import cache
from fractions import Fraction
from math import perm

import pytest

from gfrob import MultiPoly, flat_coordinates, potential_A, potential_B, potential_D
from gfrob.errors import IntegrabilityFailure
from gfrob.frobenius import Potential
from gfrob.serialize import potential_to_json
from gfrob.singularity import (
    _potential_D_from,
    check_potential_residues,
    inverse_series_potential,
    potential_terms,
    zp_mul,
    zp_reduce,
)


def euler_integrate(names, third):
    """The potential (terms of degree >= 3) from its third partials, a <= b <= c."""
    t = [MultiPoly.variable(v) for v in names]
    total = MultiPoly.zero(names)
    for (a, b, c), y in third.items():
        perms = {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}
        total = total + y * (t[a] * t[b] * t[c] * len(perms))
    # A degree-d term of P contributes d(d-1)(d-2) times itself to the sum.
    parts = (total.homogeneous_part(d) * Fraction(1, perm(d, 3)) for d in range(3, total.total_degree() + 1))
    return sum(parts, MultiPoly.zero(total.vars))


@cache
def residue_route_A(n):
    """(chart, potential) of A_n from the O(n^3) triple residues."""
    chart = flat_coordinates(n)
    fp = chart.fprime_in_t()
    dfs = [chart.df_dt(a) for a in range(n)]
    third = {}
    for a in range(n):
        for b in range(a, n):
            ab = zp_mul(dfs[a], dfs[b])
            for c in range(b, n):
                red = zp_reduce(zp_mul(ab, dfs[c]), fp)
                third[(a, b, c)] = red[n - 1] if len(red) >= n else MultiPoly.zero()
    pot = Potential(chart.t_names, euler_integrate(chart.t_names, third))
    for (a, b, c), y in third.items():
        assert pot.third(a, b, c) == y, (n, a, b, c)
    return chart, pot


def same(got, want):
    assert potential_to_json(got) == potential_to_json(want)


@pytest.mark.parametrize("n", range(2, 11))
def test_potential_A_matches_residue_route(n):
    same(potential_A(n), residue_route_A(n)[1])


@pytest.mark.parametrize("n", range(3, 7))
def test_potential_D_matches_residue_route(n):
    same(potential_D(n), _potential_D_from(*residue_route_A(2 * n - 3)))


@pytest.mark.parametrize("m", range(2, 5))
def test_potential_B_matches_residue_route(m):
    pa = residue_route_A(2 * m - 1)[1]
    odd = [pa.names[i] for i in range(1, 2 * m - 1, 2) if pa.names[i] in pa.poly.vars]
    names = tuple(pa.names[i] for i in range(0, 2 * m - 1, 2))
    same(potential_B(m), Potential(names, pa.poly.subst_zero(odd)))


@pytest.mark.parametrize("n", range(2, 9))
def test_inverse_series_sign(n):
    """With u_j = (n+1) a_{n+1-j}, the degree parts enter with a plus sign:
    the unit term t_0^2 t_{n-1} comes out as -1/2, as d0 d0 d_{n-1} P = -eta."""
    poly = inverse_series_potential(flat_coordinates(n))
    assert poly.coefficient({"t_0": 2, f"t_{n - 1}": 1}) == Fraction(-1, 2)


def test_potential_terms_bounds_the_term_count():
    for n in range(2, 11):
        assert len(potential_A(n).poly.terms) <= potential_terms(n)
    assert [potential_terms(m) for m in (2, 3, 13)] == [2, 5, 863]
    assert potential_terms(1) == potential_terms(-3) == 0


def t(i):
    return MultiPoly.variable(f"t_{i}")


@pytest.mark.parametrize(
    "n, mutate, pair",
    [
        (5, lambda p: p + t(1) ** 3, (1, 1)),  # a cubic term
        (5, lambda p: p + t(3) ** 2 * t(4) ** 3 * Fraction(1, 7), (3, 3)),  # a degree-5 term
        (5, lambda p: p + t(4) ** 7, (4, 4)),  # a top-degree term
        (6, lambda p: p + t(0) ** 2 * t(5) * 3, (0, 0)),  # the unit term
        (6, lambda p: p * 2, (0, 0)),  # the whole potential scaled
        (9, lambda p: p - t(2) * t(5) * t(8) ** 2, (2, 5)),
    ],
)
def test_residue_check_names_the_failing_pair(n, mutate, pair):
    chart = flat_coordinates(n)
    pot = potential_A(n)
    check_potential_residues(chart, pot)
    with pytest.raises(IntegrabilityFailure, match="third partials .* at " + re.escape(str(pair))):
        check_potential_residues(chart, Potential(pot.names, mutate(pot.poly)))


def test_residue_check_catches_a_chart_that_is_not_flat():
    import dataclasses

    n = 5
    chart = flat_coordinates(n)
    bent = dataclasses.replace(chart, a_of_t=chart.a_of_t[:-1] + (t(n - 1) * -2,))
    with pytest.raises(IntegrabilityFailure, match=r"not flat at \(0, 4\)"):
        check_potential_residues(bent, potential_A(n))


def test_potential_A_runs_the_residue_check(monkeypatch):
    import gfrob.singularity as sing

    series = sing.inverse_series_potential
    monkeypatch.setattr(sing, "inverse_series_potential", lambda chart: series(chart) + t(1) ** 3)
    with pytest.raises(IntegrabilityFailure, match=re.escape("(1, 1)")):
        sing.potential_A(5)
