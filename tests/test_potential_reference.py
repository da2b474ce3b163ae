"""The residue route to the A/B/D potentials, kept as a test-only oracle.

The library reads the potential off one coefficient of the inverse Laurent
series and proves it with O(n^2) residue reductions.  The route it replaced
computes every third partial Y_abc = residue(dF_a dF_b dF_c / F') as an
O(n^3) loop of triple products reduced mod F', then integrates them with
the Euler operator.  It is kept here as an independent reference: the two
routes must agree term by term, names and declared variables included.

Two more oracles cover the stages the residue route does not reach: the
flat chart built from untruncated Laurent powers, and Miller's recurrence
run on Fractions, as both were first written.
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
    _scaled_power_series,
    check_potential_residues,
    inverse_series_potential,
    jacobi_multiply,
    jacobi_residue,
    potential_terms,
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


def residue(product, fp):
    """res(product / F' dz): the z^(n-1) coefficient of the product reduced mod F'."""
    return jacobi_residue(jacobi_multiply(product, MultiPoly.constant(1), fp), fp)


@cache
def residue_route_A(n):
    """(chart, potential) of A_n from the O(n^3) triple residues."""
    chart = flat_coordinates(n)
    fp = chart.fprime_in_t()
    dfs = [chart.df_dt(a) for a in range(n)]
    third = {}
    for a in range(n):
        for b in range(a, n):
            ab = dfs[a] * dfs[b]
            for c in range(b, n):
                third[(a, b, c)] = residue(ab * dfs[c], fp)
    pot = Potential(chart.t_names, euler_integrate(chart.t_names, third))
    for (a, b, c), y in third.items():
        assert pot.third(a, b, c) == y, (n, a, b, c)
    return chart, pot


def same(got, want):
    assert potential_to_json(got) == potential_to_json(want)


def identical(got, want):
    """Equal terms and equal declared variables."""
    assert (got.vars, got.terms) == (want.vars, want.terms)


def untruncated_chart(n):
    """(a_of_t, t_of_a) from every power z^k kept down to w^-(n+1)."""
    tn = tuple(f"t_{i}" for i in range(n))
    an = tuple(f"a{i}" for i in range(n))
    t = [MultiPoly.variable(v) for v in tn]
    z = {1: MultiPoly.constant(1)}
    for j in range(n):
        z[j - n] = t[j]

    def lmul(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                if e1 + e2 >= -(n + 1):
                    out[e1 + e2] = out.get(e1 + e2, MultiPoly.zero()) + c1 * c2
        return {e: c for e, c in out.items() if c}

    powers = [{0: MultiPoly.constant(1)}, z]
    for _ in range(2, n + 2):
        powers.append(lmul(powers[-1], z))
    a_of_t = [None] * n
    for m in range(n - 1, -1, -1):
        acc = powers[n + 1].get(m, MultiPoly.zero()) * Fraction(1, n + 1)
        for i in range(m + 1, n):
            if powers[i].get(m):
                acc = acc + a_of_t[i] * powers[i][m]
        a_of_t[m] = -acc
    t_of_a = [None] * n
    for m in range(n - 1, -1, -1):
        expr = -MultiPoly.variable(an[m]) + (a_of_t[m] + t[m])
        for j in range(n - 1, m, -1):
            expr = expr.subst(tn[j], t_of_a[j])
        t_of_a[m] = expr
    return tuple(a_of_t), tuple(t_of_a)


def fraction_recurrence(chart):
    """The potential from Miller's recurrence on Fractions, g_k = (1/k) sum_j ((x+1) j - k) u_j g_{k-j}."""
    n = chart.n
    big_k = 2 * n + 3
    x1 = Fraction(big_k, n + 1) + 1
    u = [(j, chart.a_of_t[n + 1 - j] * (n + 1)) for j in range(2, n + 2)]
    g = [MultiPoly.constant(1)]
    for k in range(1, big_k + 2):
        acc = MultiPoly.zero()
        for j, uj in u:
            if j <= k:
                acc = acc + uj * ((x1 * j - k) / k) * g[k - j]
        g.append(acc)
    c = g[big_k + 1]
    parts = (c.homogeneous_part(d) * Fraction(1, big_k * (n + 2) * (d - 2)) for d in range(3, c.total_degree() + 1))
    return sum(parts, MultiPoly.zero(chart.t_names))


@pytest.mark.parametrize("n", range(2, 15))
def test_truncated_chart_matches_the_untruncated_one(n):
    chart = flat_coordinates(n)
    a_of_t, t_of_a = untruncated_chart(n)
    for got, want in zip(chart.a_of_t + chart.t_of_a, a_of_t + t_of_a):
        identical(got, want)


@pytest.mark.parametrize("n", range(2, 13))
def test_integer_recurrence_matches_the_fraction_one(n):
    """n = 11 and 12 lie beyond the residue route's range."""
    chart = flat_coordinates(n)
    identical(inverse_series_potential(chart), fraction_recurrence(chart))


@pytest.mark.parametrize("n", range(2, 13))
def test_recurrence_runs_on_ints(n):
    u, g = _scaled_power_series(flat_coordinates(n))
    assert len(u) == n and len(g) == 2 * n + 5
    for p in [uj for _, uj in u] + g:
        assert all(type(c) is int for c in p.terms.values())


@pytest.mark.parametrize("n", range(2, 11))
def test_potential_A_matches_residue_route(n):
    same(potential_A(n), residue_route_A(n)[1])


def d_from_a(chart, pa):
    """The D potential from the chart and potential of A_(2n-3): add -(1/2) a_0 t_*^2, drop odd coordinates."""
    tstar = MultiPoly.variable("t_*")
    full = pa.poly + chart.a_of_t[0] * tstar * tstar * Fraction(-1, 2)
    return Potential(chart.t_names[0::2] + ("t_*",), full.subst_zero(chart.t_names[1::2]))


@pytest.mark.parametrize("n", range(3, 7))
def test_potential_D_matches_residue_route(n):
    same(potential_D(n), d_from_a(*residue_route_A(2 * n - 3)))


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
