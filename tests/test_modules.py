import random
from fractions import Fraction

import pytest

from gfrob import (
    Tensor,
    arrow_act,
    braid_act,
    braid_gen_action,
    compose_arrows,
    diagonal_act,
    dual_module,
    enumerate_component,
    gen_arrow,
    graded_module,
    invariants_basis,
    self_invariance_witness,
    untwisted_basis,
    validate_module,
    z2_decompose,
)
from gfrob.errors import DegreeMismatch, IndexOutOfRange, InvalidAction, NotZ2
from gfrob.linalg import identity
from gfrob.modules import is_morphism, require_morphism
from gfrob.singularity import z2_frobenius_algebra

from conftest import (
    diag,
    has_non_integral_entry,
    literal_action,
    make_s3_module,
    make_z3_module,
    random_tensor,
    rescale_basis,
    submodule_on_indices,
    unvalidated_module,
)


def test_validate_trivial_module(trivial_modules):
    for h in trivial_modules:
        rep = validate_module(h)
        assert rep.passed and self_invariance_witness(h) is None


def test_validate_orbifold_module(orbifold_module):
    rep = validate_module(orbifold_module)
    assert rep.passed and self_invariance_witness(orbifold_module) is None


def test_orbifold_module_negated_twist(z2):
    # flipping the sign of the involution on the twisted line keeps a valid
    # grading but destroys self-invariance
    h = graded_module(z2, (0, 0, 0, 1), [identity(4), diag([1, 1, -1, -1])])
    rep = validate_module(h)
    assert rep.passed and self_invariance_witness(h) is not None


def test_validate_rejects_non_homomorphism(z2):
    bad = unvalidated_module(z2, (0, 0), [identity(2), diag([2, 1])])
    rep = validate_module(bad)
    assert not rep.passed
    with pytest.raises(InvalidAction):
        graded_module(z2, (0, 0), [identity(2), diag([2, 1])])


def test_validate_rejects_block_violation(z2):
    # action sends an untwisted vector into the twisted block
    m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    bad = unvalidated_module(z2, (0, 1), [identity(2), m])
    assert validate_module(bad).checks["grading axiom"] is not None


@pytest.mark.parametrize(
    "degrees, action, message",
    [
        ((0, 0), [[1, 1], [2, 1]], "homomorphism axiom fails at (a, b) = (1, 1)"),
        ((0, 0), [[0, 1], [0, 1]], "identity axiom fails at (i, j) = (0, 0)"),
        ((0, 1), [[1, 1], [[0, 1], [1, 0]]], "grading axiom fails at g = 1, (i, j) = (0, 1)"),
    ],
)
def test_invalid_module_names_axiom_and_witness(z2, degrees, action, message):
    """The first failing axiom, in report order, and its witness.  A singular
    rho(g) always breaks the homomorphism or identity axiom first."""
    import re

    mats = [m if isinstance(m[0], list) else diag(m) for m in action]
    rep = validate_module(unvalidated_module(z2, degrees, mats))
    assert not rep.passed and rep.failure == message
    with pytest.raises(InvalidAction, match=re.escape(message)):
        graded_module(z2, degrees, mats)


def test_dual_module_z3(z3_module):
    d = dual_module(z3_module)
    # a twisted line in degree g moves to degree g^2 in the dual
    assert d.degrees == (0, 0, 2, 1)
    assert validate_module(d).passed
    dd = dual_module(d)
    assert dd.degrees == z3_module.degrees
    assert dd.action == z3_module.action


def test_braid_act_orbifold_example(orbifold_module):
    # twisted (x) sign goes to -(sign (x) twisted): b_1(y (x) z) = -(z (x) y)
    h = orbifold_module
    out = braid_act(h, 1, Tensor.basis((3, 2)))
    assert out == Tensor(2, {(2, 3): Fraction(-1)})
    # untwisted first factor is a plain swap
    assert braid_act(h, 1, Tensor.basis((0, 3))) == Tensor.basis((3, 0))


def test_braid_act_inverse(orbifold_module, z3_module, s3_module):
    rng = random.Random(0)
    for h in (orbifold_module, z3_module, s3_module):
        for _ in range(30):
            n = rng.choice([2, 3, 4])
            v = random_tensor(rng, h, n)
            i = rng.randrange(1, n)
            assert braid_act(h, i, braid_act(h, i, v, inverse=True)) == v
            assert braid_act(h, i, braid_act(h, i, v), inverse=True) == v


def test_braid_act_degree_bookkeeping(s3_module):
    h = s3_module
    rng = random.Random(1)
    for _ in range(40):
        idx = tuple(rng.randrange(h.dim) for _ in range(3))
        i = rng.randrange(1, 3)
        out = braid_act(h, i, Tensor.basis(idx))
        want = braid_gen_action(h.group, i, h.degree_tuple(idx))
        assert all(h.degree_tuple(j) == want for j in out.terms)


def test_braid_relations_on_tensors(orbifold_module, z3_module, s3_module):
    import itertools

    # exhaustive over basis tensors at n = 3 and 4 for the dim-4 modules
    for h in (orbifold_module, z3_module, s3_module):
        for idx in itertools.product(range(h.dim), repeat=3):
            v = Tensor.basis(idx)
            lhs = braid_act(h, 1, braid_act(h, 2, braid_act(h, 1, v)))
            rhs = braid_act(h, 2, braid_act(h, 1, braid_act(h, 2, v)))
            assert lhs == rhs
        for idx in itertools.product(range(h.dim), repeat=4):
            v = Tensor.basis(idx)
            far = braid_act(h, 1, braid_act(h, 3, v))
            assert far == braid_act(h, 3, braid_act(h, 1, v))
            lhs = braid_act(h, 2, braid_act(h, 3, braid_act(h, 2, v)))
            rhs = braid_act(h, 3, braid_act(h, 2, braid_act(h, 3, v)))
            assert lhs == rhs


def test_dual_of_morphism_is_morphism(orbifold_module):
    from gfrob.linalg import transpose

    h = orbifold_module
    sub, incl = submodule_on_indices(h, [0, 1, 2])
    assert is_morphism(dual_module(h), dual_module(sub), transpose(incl))


def test_braid_act_index_error(orbifold_module):
    with pytest.raises(IndexOutOfRange):
        braid_act(orbifold_module, 2, Tensor.basis((0, 1)))


def test_arrow_act_identity_and_componentwise(orbifold_module, z2):
    h = orbifold_module
    from gfrob.groupoid import identity_arrow, make_arrow

    v = Tensor.basis((2, 3))
    assert arrow_act(h, identity_arrow(z2, (0, 1)), v) == v
    a = make_arrow(z2, (0, 1), (1, 0), (0, 1))
    assert arrow_act(h, a, v) == v.scale(-1)


def test_arrow_act_degree_mismatch(orbifold_module, z2):
    from gfrob.groupoid import identity_arrow

    with pytest.raises(DegreeMismatch):
        arrow_act(orbifold_module, identity_arrow(z2, (1, 1)), Tensor.basis((0, 0)))


def test_arrow_act_pins_composition(orbifold_module, s3_module):
    rng = random.Random(3)
    for h in (orbifold_module, s3_module):
        g = h.group
        for _ in range(40):
            n = rng.choice([2, 3])
            idx = tuple(rng.randrange(h.dim) for _ in range(n))
            v = Tensor.basis(idx)
            comp = enumerate_component(g, h.degree_tuple(idx))
            a1 = rng.choice(comp.arrows)
            a2 = rng.choice(enumerate_component(g, a1.target).arrows)
            assert arrow_act(h, compose_arrows(g, a2, a1), v) == arrow_act(
                h, a2, arrow_act(h, a1, v)
            )


def test_gen_arrow_matches_braid_act(z3_module):
    h = z3_module
    rng = random.Random(4)
    for _ in range(40):
        n = rng.choice([2, 3])
        idx = tuple(rng.randrange(h.dim) for _ in range(n))
        i = rng.randrange(1, n)
        a = gen_arrow(h.group, i, h.degree_tuple(idx))
        assert arrow_act(h, a, Tensor.basis(idx)) == braid_act(h, i, Tensor.basis(idx))


def test_diagonal_act(orbifold_module, z3_module, s3_module):
    h = orbifold_module
    assert diagonal_act(h, 0, Tensor.basis((1, 2))) == Tensor.basis((1, 2))
    # sign (x) sign is fixed by the involution
    assert diagonal_act(h, 1, Tensor.basis((2, 2))) == Tensor.basis((2, 2))
    rng = random.Random(5)
    for mod in (orbifold_module, z3_module, s3_module):
        for _ in range(20):
            v = random_tensor(rng, mod, 3)
            g = rng.randrange(mod.group.order)
            i = rng.randrange(1, 3)
            assert diagonal_act(mod, g, braid_act(mod, i, v)) == braid_act(
                mod, i, diagonal_act(mod, g, v)
            )


@pytest.mark.parametrize("make", [make_z3_module, make_s3_module])
def test_actions_on_a_non_integral_module_match_literal_matrices(make):
    """On a module with Fraction entries in its columns, every action is the literal matrix action."""
    from gfrob.groupoid import inverse_gen_arrow

    h = rescale_basis(make(), 1, Fraction(1, 2))
    assert has_non_integral_entry(h) and not has_non_integral_entry(make())
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(6):
            v = random_tensor(rng, h, n)
            for g in h.group.elements():
                assert diagonal_act(h, g, v) == Tensor(n, literal_action(h, (g,) * n, range(n), v.terms))
            for i in range(1, n):
                for step, inverse in ((gen_arrow, False), (inverse_gen_arrow, True)):
                    want = Tensor(n)
                    for idx, c in v.terms.items():
                        a = step(h.group, i, h.degree_tuple(idx))
                        moved = arrow_act(h, a, Tensor(n, {idx: c}))
                        assert moved == Tensor(n, literal_action(h, a.gpart, a.perm, {idx: c}))
                        want = want + moved
                    assert braid_act(h, i, v, inverse=inverse) == want


INTEGRAL_MODULES = {
    "z2-orbifold-dual": lambda: dual_module(z2_frobenius_algebra(3).module),
    "z3-rot": make_z3_module,
    "s3": make_s3_module,
    "s3-sign": lambda: make_s3_module(sign_twist=True),
}


@pytest.mark.parametrize("name", sorted(INTEGRAL_MODULES))
def test_columns_of_an_integral_action_hold_ints(name):
    h = INTEGRAL_MODULES[name]()
    for g, m in enumerate(h.action):
        assert h.columns[g] == [[(i, m[i][j]) for i in range(h.dim) if m[i][j]] for j in range(h.dim)]
    assert all(type(x) is int for cols in h.columns for col in cols for _, x in col)


@pytest.mark.parametrize("make", [make_z3_module, make_s3_module])
def test_columns_hold_fractions_exactly_at_non_integral_entries(make):
    h = rescale_basis(make(), 1, Fraction(1, 2))
    assert has_non_integral_entry(h)
    for g, m in enumerate(h.action):
        assert h.columns[g] == [[(i, m[i][j]) for i in range(h.dim) if m[i][j]] for j in range(h.dim)]
        for j, col in enumerate(h.columns[g]):
            assert all(type(x) is (int if m[i][j].denominator == 1 else Fraction) for i, x in col)


def test_invariants_and_untwisted(orbifold_module, trivial_modules):
    for h in trivial_modules:
        assert len(invariants_basis(h)) == h.dim
        assert len(untwisted_basis(h)) == h.dim
    inv = invariants_basis(orbifold_module)
    assert len(inv) == 3  # 1, z^2, y
    assert len(untwisted_basis(orbifold_module)) == 3  # 1, z^2, z


def test_z2_decompose_dimensions():
    for n in (3, 4, 5, 6):
        h = z2_frobenius_algebra(n).module
        h_i, h_v, h_g = z2_decompose(h)
        assert len(h_i) == n - 1
        assert len(h_v) == n - 2
        assert len(h_g) == 1
        assert len(h_i) + len(h_v) + len(h_g) == h.dim


def test_z2_decompose_wrong_group(z3_module):
    with pytest.raises(NotZ2):
        z2_decompose(z3_module)


def test_z2_decompose_not_self_invariant(z2):
    h = graded_module(z2, (0, 0, 0, 1), [identity(4), diag([1, 1, -1, -1])])
    with pytest.raises(NotZ2):
        z2_decompose(h)


def test_morphism_validation(orbifold_module):
    h = orbifold_module
    assert is_morphism(h, h, identity(4))
    assert is_morphism(h, h, diag([2, 3, 5, 7]))
    # swapping untwisted and twisted lines is not degree-preserving
    bad = [[Fraction(0)] * 4 for _ in range(4)]
    bad[0][3] = Fraction(1)
    assert not is_morphism(h, h, tuple(tuple(r) for r in bad))
    with pytest.raises(Exception):
        require_morphism(h, h, tuple(tuple(r) for r in bad))


def test_submodule_inclusion(orbifold_module):
    sub, incl = submodule_on_indices(orbifold_module, [0, 1, 2])
    assert sub.dim == 3
    assert validate_module(sub).passed
    assert is_morphism(sub, orbifold_module, incl)


def test_projector_sum(orbifold_module):
    h = orbifold_module
    h_i, h_v, h_g = z2_decompose(h)
    # three blocks give a direct sum decomposition of the whole space
    from gfrob.linalg import rank

    rows = [list(v) for v in h_i + h_v + h_g]
    assert rank(rows) == h.dim
