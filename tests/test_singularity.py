import random
from fractions import Fraction

import pytest

from gfrob import MultiPoly, flat_coordinates, flat_metric, milnor_ring, potential_A, potential_B, potential_D
from gfrob.errors import BadIndex
from gfrob.frobenius import Potential, check_gfa, check_pre_gfm
from gfrob.linalg import identity
from gfrob.singularity import (
    TSTAR,
    fprime_coeffs,
    jacobi_multiply,
    jacobi_residue,
    potential_D_metric,
    z2_frobenius_algebra,
    z2_frobenius_manifold,
    zp_mul,
    zp_reduce,
)
from test_potential_reference import residue


def v(name):
    return MultiPoly.variable(name)


def C(x):
    return MultiPoly.constant(x)


def zpoly(*coeffs):
    return [c if isinstance(c, MultiPoly) else C(c) for c in coeffs]


def k_fprime(n):
    """F' = z^n + sum_i i k_i z^{i-1} over free parameters k_0 .. k_{n-1}."""
    return fprime_coeffs(n, [v(f"k{i}") for i in range(n)])


# -- Milnor rings ----------------------------------------------------------


def test_milnor_a3():
    m = milnor_ring("A", 3)
    assert m.metric[0] == (0, 0, 1)
    assert m.mult[1][1] == (0, 0, 1)  # z.z = z^2
    assert m.mult[2][1] == (0, 0, 0)  # z^2.z = 0
    assert m.metric[0][2] == 1 and m.metric[1][1] == 1 and m.metric[0][0] == 0


def test_milnor_d4():
    m = milnor_ring("D", 4)
    assert m.mult[3][3] == (0, 0, -1, 0)  # y.y = -x^2
    assert m.mult[1][3] == (0, 0, 0, 0)  # x.y = 0
    assert m.mult[1][1] == (0, 0, 1, 0)
    assert m.mult[1][2] == (0, 0, 0, 0)  # x^3 = 0
    assert m.metric[0] == (0, 0, 1, 0)


@pytest.mark.parametrize("kind, n", [("A", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)])
def test_milnor_rings_are_frobenius_algebras_of_the_trivial_group(kind, n):
    m = milnor_ring(kind, n)
    assert m.module.group.order == 1 and m.dim == n
    assert m.unit == tuple(int(i == 0) for i in range(n))
    assert check_gfa(m).passed


def test_milnor_bad_index():
    with pytest.raises(BadIndex):
        milnor_ring("A", 1)
    with pytest.raises(BadIndex):
        milnor_ring("D", 2)
    with pytest.raises(BadIndex):
        milnor_ring("E", 6)


def test_milnor_associative_commutative():
    for kind, n in (("A", 5), ("D", 5)):
        m = milnor_ring(kind, n)

        def mul_vec(a, b):
            out = [Fraction(0)] * m.dim
            for p in range(m.dim):
                if a[p] == 0:
                    continue
                for q in range(m.dim):
                    if b[q] == 0:
                        continue
                    prod = m.mult[p][q]
                    for k in range(m.dim):
                        out[k] += a[p] * b[q] * prod[k]
            return tuple(out)

        rng = random.Random(0)
        for _ in range(20):
            a, b, c = (
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.dim)) for _ in range(3)
            )
            assert mul_vec(a, b) == mul_vec(b, a)
            assert mul_vec(mul_vec(a, b), c) == mul_vec(a, mul_vec(b, c))


# -- parametric reduction and residues ---------------------------------------


def test_jacobi_multiply_at_zero_parameters():
    n = 4
    fp = k_fprime(n)
    for a in range(n):
        for b in range(n):
            f = zpoly(*([0] * a + [1]))
            g = zpoly(*([0] * b + [1]))
            red = jacobi_multiply(f, g, fp)
            if a + b <= n - 1:
                assert len(red) == a + b + 1
                assert red[a + b] == C(1)
            else:
                # reduction has no z-power above n-1, and constant terms vanish at k=0
                assert len(red) <= n
                for p in red:
                    assert p.constant_term() == 0


def test_jacobi_multiply_a3_example():
    # z . z^2 = z^3 = -2 k_2 z - k_1 modulo z^3 + 2 k_2 z + k_1
    red = jacobi_multiply(zpoly(0, 1), zpoly(0, 0, 1), k_fprime(3))
    assert red[0] == -v("k1")
    assert red[1] == v("k2") * -2
    assert len(red) == 2


def test_reduce_idempotent():
    n = 4
    fp = k_fprime(n)
    rng = random.Random(1)
    for _ in range(10):
        f = zpoly(*[rng.randint(-3, 3) for _ in range(7)])
        red = zp_reduce(f, fp)
        assert zp_reduce(red, fp) == red
        assert len(red) <= n


def test_residue_at_origin_is_delta():
    for n in (3, 4, 5):
        fp = k_fprime(n)
        for i in range(n):
            for j in range(n):
                val = jacobi_residue(jacobi_multiply(zpoly(*([0] * i + [1])), zpoly(*([0] * j + [1])), fp), fp)
                const = val.constant_term()
                assert const == (1 if i + j == n - 1 else 0)
                if i + j < n - 1:
                    assert not val  # no parameter terms below top degree either


def test_jacobi_ring_axioms_up_to_six():
    rng = random.Random(5)
    for n in (3, 4, 5, 6):
        one = zpoly(1)
        fp = k_fprime(n)
        for _ in range(6):
            f, g, h = (zpoly(*[rng.randint(-2, 2) for _ in range(n + 1)]) for _ in range(3))
            assert jacobi_multiply(f, g, fp) == jacobi_multiply(g, f, fp)
            lhs = jacobi_multiply(jacobi_multiply(f, g, fp), h, fp)
            rhs = jacobi_multiply(f, jacobi_multiply(g, h, fp), fp)
            assert lhs == rhs
            assert jacobi_multiply(one, f, fp) == zp_reduce(f, fp)


def test_residue_frobenius_property():
    # residue(fg, h) == residue(f, gh) in the Jacobi ring
    rng = random.Random(2)
    n = 4
    fp = k_fprime(n)
    for _ in range(15):
        f, g, h = (zpoly(*[rng.randint(-2, 2) for _ in range(n)]) for _ in range(3))
        lhs = jacobi_residue(jacobi_multiply(jacobi_multiply(f, g, fp), h, fp), fp)
        rhs = jacobi_residue(jacobi_multiply(f, jacobi_multiply(g, h, fp), fp), fp)
        assert lhs == rhs


def test_residue_matches_counit_at_origin():
    for n in (3, 5):
        m = milnor_ring("A", n)
        fp = k_fprime(n)
        for i in range(n):
            for j in range(n):
                val = jacobi_residue(jacobi_multiply(zpoly(*([0] * i + [1])), zpoly(*([0] * j + [1])), fp), fp)
                assert val.constant_term() == m.metric[i][j]


# -- flat coordinates ---------------------------------------------------------


def test_flat_tables_n3():
    ch = flat_coordinates(3)
    assert ch.a_of_t[2] == -v("t_2")
    assert ch.a_of_t[1] == -v("t_1")
    assert ch.a_of_t[0] == -v("t_0") + v("t_2") ** 2 * Fraction(1, 2)
    assert ch.t_of_a[0] == -v("a0") + v("a2") ** 2 * Fraction(1, 2)


def test_flat_tables_n5():
    ch = flat_coordinates(5)
    t = {i: v(f"t_{i}") for i in range(5)}
    assert ch.a_of_t[2] == -t[2] + t[4] ** 2 * Fraction(3, 2)
    assert ch.a_of_t[1] == -t[1] + t[3] * t[4] * 2
    assert ch.a_of_t[0] == -t[0] + t[3] ** 2 * Fraction(1, 2) + t[2] * t[4] - t[4] ** 3 * Fraction(1, 3)
    a = {i: v(f"a{i}") for i in range(5)}
    assert ch.t_of_a[0] == -a[0] + a[3] ** 2 * Fraction(1, 2) + a[2] * a[4] - a[4] ** 3 * Fraction(7, 6)


def test_t_of_a_is_built_only_when_read():
    from gfrob.singularity import shared_builds

    with shared_builds():
        potential_A(7)
        z2_frobenius_manifold(4)
        charts = [flat_coordinates(7), flat_coordinates(5)]
        assert all("t_of_a" not in vars(ch) for ch in charts)
        assert len(charts[1].t_of_a) == 5 and "t_of_a" in vars(charts[1])


def test_flat_roundtrip():
    for n in (3, 4, 5):
        ch = flat_coordinates(n)
        for m in range(n):
            expr = ch.a_of_t[m]
            for j in range(n - 1, -1, -1):
                if ch.t_names[j] in expr.vars:
                    expr = expr.subst(ch.t_names[j], ch.t_of_a[j])
            assert expr == v(ch.a_names[m])


def test_flat_metric_constancy():
    for n in (3, 4, 5):
        chart = flat_coordinates(n)
        fp, dfs = chart.fprime_in_t(), [chart.df_dt(a) for a in range(n)]
        eta = flat_metric(n)
        for i in range(n):
            for j in range(n):
                assert residue(n, zp_mul(dfs[i], dfs[j]), fp) == MultiPoly.constant(eta[i][j])


# -- potentials ---------------------------------------------------------------


def test_potential_a3_exact():
    pot = potential_A(3)
    t0, t1, t2 = v("t_0"), v("t_1"), v("t_2")
    want = (
        t0 ** 2 * t2 * Fraction(-1, 2)
        + t0 * t1 ** 2 * Fraction(-1, 2)
        + t1 ** 2 * t2 ** 2 * Fraction(-1, 4)
        + t2 ** 5 * Fraction(-1, 60)
    )
    assert pot.poly == want


def test_potential_a5_spot_coefficients():
    pot = potential_A(5)
    assert pot.poly.coefficient({"t_4": 7}) == Fraction(-1, 210)
    assert pot.poly.coefficient({"t_3": 2, "t_4": 4}) == Fraction(-1, 8)
    assert pot.poly.coefficient({"t_1": 1, "t_3": 3}) == Fraction(-1, 6)
    assert len(pot.poly.terms) == 14


def test_potential_d3_exact():
    pot = potential_D(3)
    ts, t0, t2 = v(TSTAR), v("t_0"), v("t_2")
    want = (
        t0 ** 2 * t2 * Fraction(-1, 2)
        + t0 * ts ** 2 * Fraction(1, 2)
        + t2 ** 2 * ts ** 2 * Fraction(-1, 4)
        + t2 ** 5 * Fraction(-1, 60)
    )
    assert pot.poly == want


def test_potential_d4_spot_coefficients():
    pot = potential_D(4)
    assert pot.poly.coefficient({TSTAR: 2, "t_4": 3}) == Fraction(1, 6)
    assert pot.poly.coefficient({TSTAR: 2, "t_0": 1}) == Fraction(1, 2)
    assert pot.poly.coefficient({TSTAR: 2, "t_2": 1, "t_4": 1}) == Fraction(-1, 2)
    assert len(pot.poly.terms) == 8


def test_potential_degree_bound():
    for n in (2, 3, 4, 5, 6):
        pot = potential_A(n)
        assert pot.poly.total_degree() <= n + 2
        assert all(sum(e) >= 3 for e, _ in pot.poly.sorted_terms())


def test_potential_b_restriction_consistency():
    for n in (3, 4):
        pb = potential_B(n - 1)
        pa = potential_A(2 * n - 3)
        odd = [nm for i, nm in enumerate(pa.names) if i % 2 == 1 and nm in pa.poly.vars]
        assert pb.poly == pa.poly.subst_zero(odd)
        pd = potential_D(n)
        assert pd.poly.subst_zero([TSTAR]) == pb.poly.with_vars(
            sorted(set(pb.poly.vars) | {TSTAR})
        )


# -- the orbifold pipeline ------------------------------------------------------


def test_z2_algebra_relations():
    alg = z2_frobenius_algebra(3)
    assert alg.dim == 4
    y = alg.dim - 1
    # y.y = -z^2: basis order (1, z^2, z, y)
    assert alg.mult[y][y] == (0, -1, 0, 0)
    assert alg.metric[y][y] == -1
    for n in (4, 5, 6):
        a = z2_frobenius_algebra(n)
        assert a.metric[-1][-1] == -1
        assert a.dim == 2 * n - 2


def hand_written_z2_algebra(n):
    """C[z,y]/(z^{2n-3}, yz, y^2 + z^{2n-4}) built from its relations in the orbifold basis.

    Basis (1, z^2, ..., z^{2n-4} | z, z^3, ..., z^{2n-5} | y) as
    (degrees, action of the involution, metric, mult, unit).
    """
    dim = 2 * n - 2
    even = list(range(0, 2 * n - 3, 2))
    odd = list(range(1, 2 * n - 4, 2))
    powers = even + odd
    pos_of_power = {p: i for i, p in enumerate(powers)}
    y = dim - 1
    degrees = tuple([0] * (dim - 1) + [1])
    signs = [1] * len(even) + [-1] * len(odd) + [1]
    rho_g = tuple(tuple(Fraction(signs[i] if i == j else 0) for j in range(dim)) for i in range(dim))
    eta = [[Fraction(0)] * dim for _ in range(dim)]
    for i, p in enumerate(powers):
        for j, q in enumerate(powers):
            if p + q == 2 * n - 4:
                eta[i][j] = Fraction(1)
    eta[y][y] = Fraction(-1)
    mult = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, p in enumerate(powers):
        for j, q in enumerate(powers):
            if p + q <= 2 * n - 4:
                mult[i][j][pos_of_power[p + q]] = Fraction(1)
    mult[0][y][y] = mult[y][0][y] = Fraction(1)  # y z^p = 0 for p >= 1
    mult[y][y][pos_of_power[2 * n - 4]] = Fraction(-1)
    unit = tuple(Fraction(int(i == 0)) for i in range(dim))
    return (
        degrees,
        rho_g,
        tuple(tuple(row) for row in eta),
        tuple(tuple(tuple(v) for v in row) for row in mult),
        unit,
    )


@pytest.mark.parametrize("n", range(3, 11))
def test_z2_algebra_matches_the_hand_written_tables(n):
    alg = z2_frobenius_algebra(n)
    degrees, rho_g, eta, mult, unit = hand_written_z2_algebra(n)
    assert alg.module.degrees == degrees
    assert alg.module.action == (identity(2 * n - 2), rho_g)
    assert alg.metric == eta
    assert alg.mult == mult
    assert alg.unit == unit


def test_z2_manifold_roundtrip():
    for n in (3, 4):
        fm = z2_frobenius_manifold(n)
        asm = fm.assembly
        assert check_pre_gfm(asm.module, asm.metric, Potential(asm.names, asm.potential)).passed
        assert fm.matches_algebra
        expected = MultiPoly(("t_*", "t_0"), {(2, 1): Fraction(1, 2)})
        assert fm.twisted_cubic == expected


def test_z2_manifold_unit_at_origin():
    fm = z2_frobenius_manifold(3)
    d = fm.assembly.module.dim
    e_b = lambda b: tuple(Fraction(1) if i == b else Fraction(0) for i in range(d))
    for b in range(d):
        assert fm.origin_algebra.product(fm.origin_algebra.unit, e_b(b)) == e_b(b)


def test_z2_manifold_twisted_part_n3():
    fm = z2_frobenius_manifold(3)
    y_g = fm.potential - fm.potential.subst_zero([TSTAR])
    want = MultiPoly(("t_*", "t_0", "t_2"), {(2, 1, 0): Fraction(1, 2), (2, 0, 2): Fraction(-1, 4)})
    assert y_g == want


def test_unit_row_of_third_partials():
    # d0 da db (potential) == -eta_ab at the origin for every family
    from gfrob import potential_A

    cases = [
        (potential_A(3), flat_metric(3)),
        (potential_A(5), flat_metric(5)),
        (potential_D(3), potential_D_metric(3)),
        (potential_D(4), potential_D_metric(4)),
    ]
    for pot, eta in cases:
        d = len(pot.names)
        origin = {n: 0 for n in pot.names}
        for a in range(d):
            for b in range(d):
                assert pot.third(0, a, b).eval(origin) == -eta[a][b]


def test_potential_a_needs_two():
    with pytest.raises(BadIndex):
        potential_A(1)


def test_mult_from_potential_matches_jacobi_ring_at_generic_point():
    # the tangent algebra at any point is the Jacobi ring at the unfolding
    # parameters of that point: check structure constants both ways
    from gfrob.frobenius import mult_from_potential
    from gfrob.linalg import mat_inv, mat_vec
    from gfrob.singularity import zp_mul

    for n, point in (
        (3, {"t_0": Fraction(1, 2), "t_1": Fraction(-2), "t_2": Fraction(3)}),
        (4, {"t_0": Fraction(1), "t_1": Fraction(1, 3), "t_2": Fraction(-1), "t_3": Fraction(2)}),
    ):
        pot = potential_A(n)
        eta = flat_metric(n)
        got = mult_from_potential(pot, eta, point)

        chart = flat_coordinates(n)
        fp_t = chart.fprime_in_t()
        fp = [MultiPoly.constant(p.eval(point)) for p in fp_t]
        dfs = []
        for a in range(n):
            dfs.append([MultiPoly.constant(p.eval(point)) for p in chart.df_dt(a)])
        eta_inv = mat_inv(eta)
        for a in range(n):
            for b in range(n):
                prod = zp_reduce(zp_mul(dfs[a], dfs[b]), fp)
                # pairings with each basis field, then raise an index
                w = []
                for k in range(n):
                    red = zp_reduce(zp_mul(prod, dfs[k]), fp)
                    w.append(red[n - 1].constant_term() if len(red) >= n else Fraction(0))
                coords = mat_vec(eta_inv, w)
                assert coords == got[a][b], (n, a, b)
