import random
from fractions import Fraction

import pytest

from gfrob import MultiPoly
from gfrob.errors import UnknownVariable
from gfrob.serialize import poly_from_json, poly_to_json


def v(name):
    return MultiPoly.variable(name)


def rand_poly(rng, names, terms=4, maxdeg=3):
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, maxdeg) for _ in names)
        out[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MultiPoly(names, out)


def test_ring_laws_randomized():
    rng = random.Random(0)
    names = ("x", "y", "z")
    for _ in range(40):
        p, q, r = (rand_poly(rng, names) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p - p == MultiPoly.zero(names)


def test_diff_commutes_and_power_rule():
    rng = random.Random(1)
    names = ("t_0", "t_1", "t_2")
    for _ in range(30):
        p = rand_poly(rng, names)
        assert p.diff("t_0").diff("t_2") == p.diff("t_2").diff("t_0")
    p = v("t_0") * v("t_0") * v("t_2")
    assert p.diff("t_0") == v("t_0") * v("t_2") * 2
    assert MultiPoly.constant(7, names).diff("t_1") == MultiPoly.zero(names)


def test_diff_unknown_variable():
    """An undeclared variable is absent: zero derivative, substitution leaves p as it is."""
    p = v("x") ** 2 + v("x") * 3
    for got in (p.diff("q"), p.subst("q", v("y") + 1), p.subst("q", 5), p.subst_zero(["q"])):
        assert got.vars == p.vars
    assert p.diff("q") == MultiPoly.zero()
    assert p.subst("q", v("y") + 1) == p.subst("q", 5) == p.subst_zero(["q", "r"]) == p
    assert p.subst_zero(["q", "x"]) == MultiPoly.zero()
    with pytest.raises(UnknownVariable):
        p.with_vars(["y"])  # declaring fewer variables still refuses to drop a live one


def test_subst():
    p = v("x") ** 2 + v("y")
    q = p.subst("x", v("y") + 1)
    assert q == v("y") ** 2 + v("y") * 3 + 1
    assert p.subst("y", 0) == v("x") ** 2


def test_subst_zero_and_homogeneous_parts():
    p = v("x") ** 3 + v("x") * v("y") + v("y")
    assert p.subst_zero(["y"]) == v("x") ** 3
    assert p.homogeneous_part(2) == v("x") * v("y")
    assert p.total_degree() == 3


def test_variables_sorted_lexicographically():
    p = MultiPoly(("b", "a"), {(1, 2): 1})
    assert p.vars == ("a", "b")
    assert p.coefficient({"a": 2, "b": 1}) == 1


def test_eval():
    p = v("x") * v("y") * Fraction(1, 2) + 3
    assert p.eval({"x": 4, "y": Fraction(1, 2)}) == 4


def test_linear_subst():
    p = v("x") ** 2 + v("y")
    q = p.substitute({"x": v("u") + v("w"), "y": v("w") * 2})
    assert q == (v("u") + v("w")) ** 2 + v("w") * 2


def test_linear_subst_registers_no_names():
    """All old names are substituted at once: no temporary name enters the variable registry."""
    from gfrob import poly

    p = (v("x") + v("y") * 2) ** 3 + v("z")
    size = len(poly._offsets)
    q = p.substitute({"x": v("y"), "y": v("x")})
    assert len(poly._offsets) == size
    assert q == (v("y") + v("x") * 2) ** 3 + v("z")


def test_json_round_trip():
    rng = random.Random(2)
    for _ in range(20):
        p = rand_poly(rng, ("a", "b"))
        assert poly_from_json(poly_to_json(p)) == p


def test_pow():
    p = v("x") + 1
    assert p ** 0 == MultiPoly.constant(1, ("x",))
    assert p ** 3 == p * p * p


def test_subst_chain_rule():
    rng = random.Random(3)
    for _ in range(20):
        p = rand_poly(rng, ("y",), terms=3, maxdeg=4)
        q = rand_poly(rng, ("x",), terms=3, maxdeg=3)
        lhs = p.subst("y", q).diff("x")
        rhs = p.diff("y").subst("y", q) * q.diff("x")
        assert lhs == rhs
