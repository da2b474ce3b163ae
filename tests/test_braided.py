import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from gfrob import (
    BraidedSeries,
    Tensor,
    br_basis,
    braid_act,
    braidize,
    circ_product,
    cyclic_group,
    dual_module,
    form_from_poly,
    invariants_basis,
    is_braided,
    pair,
    poly_from_form,
    pullback_series,
    restrict_invariants,
    restrict_untwisted,
    MultiPoly,
)
from gfrob.braided import (
    pullback_tensor,
    series_from_poly,
    unit_series,
)
from gfrob.errors import DegreeMismatch, ModuleMismatch
from gfrob.frobenius import Potential, g_degree_witness
from gfrob.linalg import identity, rank
from gfrob.groups import trivial_group
from gfrob.modules import trivial_graded_module, z2_module
from gfrob.singularity import z2_frobenius_algebra

from conftest import (
    commutative_product,
    diag,
    is_symmetric,
    literal_action,
    make_s3_module,
    make_z3_module,
    random_tensor,
    rescale_basis,
    series_from_tensors,
    submodule_on_indices,
)


def random_braided_series(rng, h, truncation, terms=2):
    parts = []
    for d in range(truncation + 1):
        t = braidize(h, random_tensor(rng, h, d, terms))
        if t:
            parts.append(t)
    return series_from_tensors(h, truncation, parts)


def test_braidize_is_symmetrization_for_trivial_group(trivial_modules):
    h = trivial_modules[1]
    rng = random.Random(0)
    for _ in range(20):
        n = rng.choice([2, 3])
        v = random_tensor(rng, h, n)
        sym = Tensor(n)
        for perm in itertools.permutations(range(n)):
            moved = {}
            for idx, c in v.terms.items():
                key = tuple(idx[perm[s]] for s in range(n))
                moved[key] = moved.get(key, Fraction(0)) + c
            sym = sym + Tensor(n, moved)
        assert braidize(h, v) == sym.scale(Fraction(1, factorial(n)))


def test_braidize_kills_mixed_pair(orbifold_module):
    hd = dual_module(orbifold_module)
    assert braidize(hd, Tensor.basis((2, 3))) == Tensor(2)
    assert braidize(hd, Tensor.basis((3, 2))) == Tensor(2)


def test_braidize_low_degrees_identity(orbifold_module):
    assert braidize(orbifold_module, Tensor.scalar(5)) == Tensor.scalar(5)
    v = Tensor.basis((2,)) + Tensor.basis((3,)).scale(Fraction(1, 2))
    assert braidize(orbifold_module, v) == v


def test_braidize_fixes_invariants(orbifold_module):
    hd = dual_module(orbifold_module)
    for form in br_basis(hd, 3):
        assert braidize(hd, form.tensor) == form.tensor


def test_braidize_properties(orbifold_module, z3_module, s3_module, s3_module_twisted):
    rng = random.Random(1)
    for h in (orbifold_module, z3_module, s3_module, s3_module_twisted):
        for _ in range(25):
            n = rng.choice([2, 3])
            v = random_tensor(rng, h, n)
            b = braidize(h, v)
            assert braidize(h, b) == b
            assert is_braided(h, b)
            i = rng.randrange(1, n)
            assert braidize(h, braid_act(h, i, v)) == b
            assert braidize(h, braid_act(h, i, v, inverse=True)) == b


def test_braidize_associativity(orbifold_module, s3_module):
    rng = random.Random(2)
    for h in (orbifold_module, s3_module):
        for shape in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1)):
            for _ in range(10):
                v, w, z = (random_tensor(rng, h, k, 2) for k in shape)
                lhs = braidize(h, braidize(h, v.juxt(w)).juxt(z))
                rhs = braidize(h, v.juxt(braidize(h, w.juxt(z))))
                assert lhs == rhs


def test_braidize_functorial(orbifold_module):
    h = orbifold_module
    rng = random.Random(3)
    sub, incl = submodule_on_indices(h, [0, 1, 2])
    scalings = [diag([2, 3, 5, 7]), identity(4)]
    for _ in range(20):
        n = rng.choice([2, 3])
        v = random_tensor(rng, sub, n)
        pushed = pullback_tensor(v, tuple(zip(*incl)))  # transpose: push forward indices
        # inclusion: braidize commutes with the induced map on tensors
        vi = Tensor(n, {idx: c for idx, c in v.terms.items()})
        image = Tensor(n, {tuple(idx): c for idx, c in v.terms.items()})
        assert braidize(h, image) == Tensor(
            n, braidize(sub, v).terms
        )
    for m in scalings:
        for _ in range(10):
            n = 2
            v = random_tensor(rng, h, n)
            mapped = pullback_tensor(v, tuple(zip(*m)))
            assert braidize(h, mapped) == pullback_tensor(braidize(h, v), tuple(zip(*m)))


def test_br_basis_trivial(trivial_modules):
    h = trivial_modules[0]
    for n in range(4):
        assert len(br_basis(h, n)) == 1


def test_br_basis_matches_braidize_image(orbifold_module, z3_module):
    for h in (dual_module(orbifold_module), z3_module):
        for n in (2, 3):
            forms = br_basis(h, n)
            tuples = sorted(itertools.product(range(h.dim), repeat=n))
            pos = {t: i for i, t in enumerate(tuples)}
            rows = []
            for t in tuples:
                b = braidize(h, Tensor.basis(t))
                row = [Fraction(0)] * len(tuples)
                for idx, c in b.terms.items():
                    row[pos[idx]] = c
                if any(row):
                    rows.append(row)
            assert rank(rows) == len(forms)
            for f in forms:
                assert is_braided(h, f.tensor)


def test_pair_degree_one_and_reversal():
    h = cyclic_group(1)
    x = Tensor.basis((0,))
    v = Tensor.basis((0,))
    assert pair(x, v) == 1
    x2 = Tensor.basis((0, 1))
    v2 = Tensor.basis((1, 0))
    assert pair(x2, v2) == 1
    assert pair(x2, Tensor.basis((0, 1))) == 0
    with pytest.raises(DegreeMismatch):
        pair(x, v2)


def test_pair_reflection_adjoint(orbifold_module, s3_module):
    rng = random.Random(4)
    for h in (orbifold_module, s3_module):
        hd = dual_module(h)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            x = random_tensor(rng, hd, n)
            v = random_tensor(rng, h, n)
            for i in range(1, n):
                assert pair(braid_act(hd, i, x), v) == pair(x, braid_act(h, n - i, v))
                assert pair(braid_act(hd, i, x, inverse=True), v) == pair(
                    x, braid_act(h, n - i, v, inverse=True)
                )


def test_pair_braidize_duality(orbifold_module, z3_module, s3_module):
    rng = random.Random(5)
    for h in (orbifold_module, z3_module, s3_module):
        hd = dual_module(h)
        for _ in range(50):
            n = rng.choice([2, 3, 4])
            x = random_tensor(rng, hd, n)
            v = random_tensor(rng, h, n)
            assert pair(braidize(hd, x), v) == pair(x, braidize(h, v))


def test_pair_vanishes_off_matching_degrees(orbifold_module, s3_module):
    # a nonzero pairing forces the vector degrees to be the reflection of
    # the form degrees
    from gfrob import reflect_tuple

    for h in (orbifold_module, s3_module):
        hd = dual_module(h)
        for xt in itertools.product(range(h.dim), repeat=2):
            for vt in itertools.product(range(h.dim), repeat=2):
                if pair(Tensor.basis(xt), Tensor.basis(vt)) != 0:
                    assert h.degree_tuple(vt) == reflect_tuple(
                        h.group, hd.degree_tuple(xt)
                    )


def test_circ_product_trivial_group_is_polynomial_product(trivial_modules):
    # with no grading the ring of braided series is the symmetric algebra
    h = trivial_modules[1]
    names = ("u0", "u1", "u2")
    rng = random.Random(20)
    for _ in range(10):
        def rand_poly():
            terms = {}
            for _ in range(3):
                exp = [0, 0, 0]
                for _ in range(rng.randint(0, 3)):  # total degree <= 3
                    exp[rng.randrange(3)] += 1
                terms[tuple(exp)] = Fraction(rng.randint(-3, 3))
            return MultiPoly(names, terms)

        p, q = rand_poly(), rand_poly()
        sp = series_from_poly(h, p, names, truncation=6)
        sq = series_from_poly(h, q, names, truncation=6)
        prod = circ_product(sp, sq)
        got = sum(
            (poly_from_form(t, names) for t in prod.parts.values()),
            MultiPoly.zero(names),
        )
        assert got == p * q


def test_circ_product_unital_and_truncated(orbifold_module):
    hd = dual_module(orbifold_module)
    rng = random.Random(6)
    one = unit_series(hd, 4)
    for _ in range(10):
        x = random_braided_series(rng, hd, 4)
        assert circ_product(one, x) == x
        assert circ_product(x, one) == x


def test_circ_product_associative_up_to_truncation(orbifold_module):
    hd = dual_module(orbifold_module)
    rng = random.Random(7)
    for _ in range(8):
        x = random_braided_series(rng, hd, 3, terms=1)
        y = random_braided_series(rng, hd, 3, terms=1)
        z = random_braided_series(rng, hd, 3, terms=1)
        assert circ_product(circ_product(x, y), z) == circ_product(x, circ_product(y, z))


def test_circ_product_braided_commutative(orbifold_module):
    hd = dual_module(orbifold_module)
    rng = random.Random(8)
    for _ in range(15):
        v = random_tensor(rng, hd, 1)
        w = random_tensor(rng, hd, 2)
        juxt = v.juxt(w)
        crossed = braid_act(hd, 2, braid_act(hd, 1, juxt))
        assert braidize(hd, juxt) == braidize(hd, crossed)


def test_circ_product_module_mismatch(orbifold_module, z3_module):
    a = unit_series(dual_module(orbifold_module), 2)
    b = unit_series(dual_module(z3_module), 2)
    with pytest.raises(ModuleMismatch):
        circ_product(a, b)


def test_mixed_sector_products_vanish(orbifold_module):
    hd = dual_module(orbifold_module)
    # a sign-sector form times a twisted-sector form dies in every degree
    xv = series_from_tensors(hd, 4, [Tensor.basis((2,))])
    xg = series_from_tensors(hd, 4, [Tensor.basis((3,))])
    prod = circ_product(xv, xg)
    assert not prod.parts


def test_form_poly_round_trip():
    names = ("a", "b", "c")
    rng = random.Random(9)
    for _ in range(20):
        exp = [rng.randint(0, 2) for _ in names]
        if sum(exp) == 0:
            continue
        p = MultiPoly(names, {tuple(exp): Fraction(rng.randint(1, 5))})
        t = form_from_poly(p, names, sum(exp))
        assert is_symmetric(t)
        assert poly_from_form(t, names) == p
    # polarization normalizes diagonal evaluation
    p = MultiPoly(names, {(2, 1, 0): Fraction(3)})
    t = form_from_poly(p, names, 3)
    assert t.terms[(0, 0, 1)] == Fraction(3) * 2 / 6


def test_series_as_poly_is_the_truncated_polynomial(orbifold_module):
    hd = dual_module(orbifold_module)
    names = ("a", "b", "c", "d")
    rng = random.Random(16)
    for _ in range(10):
        terms = {tuple(rng.randint(0, 2) for _ in names): Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)}
        p = MultiPoly(names, terms)
        for truncation in range(p.total_degree() + 2):
            capped = sum((p.homogeneous_part(d) for d in range(truncation + 1)), MultiPoly.zero(names))
            assert series_from_poly(hd, p, names, truncation).as_poly(names) == capped
        with pytest.raises(DegreeMismatch):
            series_from_poly(hd, p, names).as_poly(names[:3])


def test_restrict_untwisted_is_morphism(orbifold_module):
    hd = dual_module(orbifold_module)
    rng = random.Random(10)
    for _ in range(15):
        x = random_braided_series(rng, hd, 4)
        y = random_braided_series(rng, hd, 4)
        rx, ry = restrict_untwisted(x), restrict_untwisted(y)
        assert circ_product(rx, ry) == restrict_untwisted(circ_product(x, y)) == commutative_product(rx, ry)


def test_restrictions_send_the_unit_to_the_unit_on_an_empty_sector():
    # every basis vector twisted: the untwisted sector is zero, yet the
    # restriction is an algebra morphism and keeps the constant term
    hd = dual_module(z2_module(0, 0, 2))
    zero_space = trivial_graded_module(trivial_group(), 0)
    assert restrict_untwisted(unit_series(hd, 3)) == unit_series(zero_space, 3)
    assert restrict_invariants(unit_series(hd, 3), []) == unit_series(zero_space, 3)


def test_restrict_invariants_symmetric(orbifold_module, z3_module):
    rng = random.Random(11)
    for h in (orbifold_module, z3_module):
        hd = dual_module(h)
        inv = invariants_basis(h)
        for _ in range(10):
            x = random_braided_series(rng, hd, 3)
            s = restrict_invariants(x, inv)
            assert s.module == trivial_graded_module(trivial_group(), len(inv))
            s.assert_braided()
            for t in s.parts.values():
                assert is_symmetric(t)


def test_restrictions_identity_for_trivial_group(trivial_modules):
    h = trivial_modules[1]
    rng = random.Random(12)
    for _ in range(10):
        x = random_braided_series(rng, h, 3)
        r = restrict_untwisted(x)
        assert r.parts == x.parts
        ri = restrict_invariants(x, invariants_basis(h))
        assert ri.parts == x.parts


def test_pullback_multiplicative(orbifold_module):
    h = orbifold_module
    sub, incl = submodule_on_indices(h, [0, 1, 2])
    hd = dual_module(h)
    rng = random.Random(13)
    for _ in range(10):
        x = random_braided_series(rng, hd, 3)
        y = random_braided_series(rng, hd, 3)
        px = pullback_series(sub, h, incl, x)
        py = pullback_series(sub, h, incl, y)
        assert pullback_series(sub, h, incl, circ_product(x, y)) == circ_product(px, py)


def test_pullback_identity(orbifold_module):
    h = orbifold_module
    hd = dual_module(h)
    rng = random.Random(14)
    x = random_braided_series(rng, hd, 3)
    assert pullback_series(h, h, identity(4), x) == x


def test_pullback_realizes_untwisted_restriction(orbifold_module):
    h = orbifold_module
    sub, incl = submodule_on_indices(h, h.untwisted_indices())
    hd = dual_module(h)
    rng = random.Random(15)
    for _ in range(10):
        x = random_braided_series(rng, hd, 3)
        via_pullback = pullback_series(sub, h, incl, x)
        direct = restrict_untwisted(x)
        assert direct.parts == via_pullback.parts


def test_series_from_poly_braided(orbifold_module):
    hd = dual_module(orbifold_module)
    names = ("t_0", "t_2", "t_1", "t_*")
    p = MultiPoly(names, {(1, 0, 2, 0): Fraction(1), (0, 1, 0, 2): Fraction(2)})
    assert g_degree_witness(hd, Potential(names, p), 0) is None
    s = series_from_poly(hd, p, names, truncation=3)
    s.assert_braided()
    mixed = MultiPoly(names, {(0, 0, 1, 1): Fraction(1)})
    bad = series_from_poly(hd, mixed, names, truncation=2)
    with pytest.raises(DegreeMismatch):
        bad.assert_braided()


def test_br_basis_closes_each_component_once():
    # Z2 at n=4 has 16 degree tuples in 5 components (by the count of twisted
    # entries); a cold br_basis builds one closure per component
    from gfrob import groupoid

    h = dual_module(z2_frobenius_algebra(3).module)
    groupoid._orbit_cache.clear()
    forms = br_basis(h, 4)
    built = set(groupoid._orbit_cache.values())
    assert len(built) == 5
    assert {f.component for f in forms} <= {c.canonical for c in built}


def _span_rank(tensors, tuples):
    pos = {t: k for k, t in enumerate(tuples)}
    rows = []
    for v in tensors:
        row = [Fraction(0)] * len(tuples)
        for idx, c in v.terms.items():
            row[pos[idx]] = c
        rows.append(row)
    return rank(rows)


@pytest.mark.parametrize(
    "module, max_n",
    [
        ("orbifold_dual", 4), ("z3_module", 3), ("s3_module", 3), ("s3_module_twisted", 3),
        ("s3-half", 3), ("z3-rot-half", 3),
    ],
)
def test_br_basis_spans_braidize_image(request, module, max_n):
    """Two independent routes to the braid invariants give one subspace,
    also on modules whose action matrices are not orthogonal."""
    if module == "orbifold_dual":
        h = dual_module(request.getfixturevalue("orbifold_module"))
    elif module in PROPERTY_MODULES:
        h = PROPERTY_MODULES[module]
    else:
        h = request.getfixturevalue(module)
    for n in range(max_n + 1):
        tuples = list(itertools.product(range(h.dim), repeat=n))
        basis = [f.tensor for f in br_basis(h, n)]
        image = [braidize(h, Tensor.basis(t)) for t in tuples]
        r = _span_rank(basis, tuples)
        assert r == len(basis) == _span_rank(image, tuples) == _span_rank(basis + image, tuples)


@pytest.mark.parametrize("length", range(8))
def test_distinct_perms_match_set_of_permutations(length):
    from gfrob.braided import _distinct_perms

    for letters in itertools.combinations_with_replacement(range(length), length):
        got = list(_distinct_perms(letters))
        assert len(got) == len(set(got))
        assert set(got) == set(itertools.permutations(letters))
        assert got == sorted(got)


def test_polarizing_high_power_is_prompt():
    import time

    p = MultiPoly(("x", "y"), {(9, 1): Fraction(1)})
    start = time.perf_counter()
    t = form_from_poly(p, ("x", "y"), 10)
    assert time.perf_counter() - start < 0.2
    assert len(t.terms) == 10 and set(t.terms.values()) == {Fraction(1, 10)}


def test_braidize_shares_one_component_per_orbit():
    # (e,e,g), (e,g,e) and (g,e,e) form one orbit: a cold braidize builds its
    # component once and moves the other parts to its basepoint
    from gfrob import groupoid

    h = dual_module(z2_frobenius_algebra(3).module)
    g = h.degrees.index(1)
    v = Tensor(3, {(0, 0, g): Fraction(1), (0, g, 0): Fraction(2), (g, 0, 0): Fraction(-3)})
    groupoid._orbit_cache.clear()
    w = braidize(h, v)
    assert len(set(groupoid._orbit_cache.values())) == 1
    assert is_braided(h, w) and w == braidize(h, w)


def test_braidize_keeps_one_bucket_per_orbit_across_a_cache_clear(s3_module, monkeypatch):
    # parts in orbit order A, B, A: with room for 8 members, building B's
    # 9-member component empties the cache, and the second part of A's
    # 3-member orbit rebuilds it at another basepoint
    from gfrob import groupoid

    h = s3_module
    t = h.degrees.index(1)
    u = h.degrees.index(2)
    v = Tensor(3, {(0, 0, t): Fraction(1), (0, t, u): Fraction(5), (0, t, 0): Fraction(2)})
    groupoid._orbit_cache.clear()
    expected = braidize(h, v)
    monkeypatch.setattr(groupoid, "_ORBIT_CACHE_BOUND", 8)
    built, build = [], groupoid.enumerate_component

    def counted(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(groupoid, "enumerate_component", counted)
    groupoid._orbit_cache.clear()
    assert braidize(h, v) == expected
    assert [len(c.connectors) for c in built] == [3, 9, 3]  # A was rebuilt
    assert is_braided(h, expected)


# -- braidize properties over generated tensors ----------------------------

PROPERTY_MODULES = {
    "z2-orbifold-dual": dual_module(z2_frobenius_algebra(3).module),
    "z3-rot": make_z3_module(),
    "z3-rot-half": rescale_basis(make_z3_module(), 1, Fraction(1, 2)),
    "s3": make_s3_module(),
    "s3-half": rescale_basis(make_s3_module(), 1, Fraction(1, 2)),
    "s3-sign": make_s3_module(sign_twist=True),
}


def test_property_modules_cover_non_integral_actions():
    assert PROPERTY_MODULES["z3-rot-half"].delta == PROPERTY_MODULES["s3-half"].delta == 2
    assert PROPERTY_MODULES["z3-rot"].delta == PROPERTY_MODULES["s3"].delta == 1


def br_basis_reference(h, n):
    """The earlier br_basis, kept as an oracle: per component, the kernel of
    b_i - 1 for every generator b_i, one row per tuple u of the block with
    the entry b_i(e_t)[u] - [t = u] at column t, one form per free column
    of the block's sorted tuples."""
    from gfrob.braided import InvariantForm
    from gfrob.groupoid import orbit_component
    from gfrob.linalg import eliminate, kernel

    if n == 0:
        return [InvariantForm((), h.group.identity, Tensor.scalar(1))]
    blocks, comps = {}, {}
    for idx in itertools.product(range(h.dim), repeat=n):
        comp = orbit_component(h.group, h.degree_tuple(idx))
        comps[comp.canonical] = comp
        blocks.setdefault(comp.canonical, []).append(idx)
    out = []
    for rep in sorted(blocks):
        tuples = sorted(blocks[rep])
        pos = {t: k for k, t in enumerate(tuples)}
        rows = []
        for i in range(1, n):
            block = [{k: Fraction(-1)} for k in range(len(tuples))]
            for k, t in enumerate(tuples):
                for u, c in braid_act(h, i, Tensor.basis(t)).terms.items():
                    block[pos[u]][k] = block[pos[u]].get(k, Fraction(0)) + c
            rows.extend(block)
        for vec in kernel(eliminate(rows), len(tuples)):
            tensor = Tensor(n, {tuples[k]: c for k, c in vec.items()})
            out.append(InvariantForm(rep, comps[rep].g_degree, tensor))
    return out


BR_BASIS_MODULES = {
    **PROPERTY_MODULES,
    "z2-dual-4": dual_module(z2_frobenius_algebra(4).module),
    "z2-dual-5": dual_module(z2_frobenius_algebra(5).module),
}


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in sorted(BR_BASIS_MODULES) for n in range(5)] + [("z2-dual-4", 5)],
)
def test_br_basis_matches_row_oracle(name, n):
    """The fibre route gives the oracle's forms in the oracle's order, with
    the same component, G-degree and terms, also for Delta = 2 modules."""
    h = BR_BASIS_MODULES[name]
    got = br_basis(h, n)
    assert got == br_basis_reference(h, n)
    assert all(type(c) is Fraction for f in got for c in f.tensor.terms.values())


@st.composite
def module_tensor(draw, max_n=4):
    name = draw(st.sampled_from(sorted(PROPERTY_MODULES)))
    h = PROPERTY_MODULES[name]
    n = draw(st.integers(0, max_n))
    idx = st.tuples(*[st.integers(0, h.dim - 1)] * n)
    coef = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    terms = draw(st.dictionaries(idx, coef, max_size=3))
    return h, Tensor(n, terms)


@settings(max_examples=60, deadline=None)
@given(module_tensor())
def test_braidize_is_idempotent(hv):
    h, v = hv
    w = braidize(h, v)
    assert all(type(c) is Fraction for c in w.terms.values())
    assert braidize(h, w) == w
    assert is_braided(h, w)


@settings(max_examples=60, deadline=None)
@given(module_tensor(), st.data())
def test_braidize_is_self_adjoint(hv, data):
    h, v = hv
    hd = dual_module(h)
    idx = st.tuples(*[st.integers(0, h.dim - 1)] * v.n)
    x = Tensor(v.n, data.draw(st.dictionaries(idx, st.integers(-5, 5), max_size=3)))
    assert pair(braidize(hd, x), v) == pair(x, braidize(h, v))


@settings(max_examples=30, deadline=None)
@given(module_tensor())
def test_braidize_is_literal_arrow_average(hv):
    """Oracle: every arrow of the component applied to every term, straight
    from the Fraction action matrices, summed and divided by n_C."""
    from gfrob.groupoid import enumerate_component

    h, v = hv
    want = {}
    for idx, c in v.terms.items():
        comp = enumerate_component(h.group, h.degree_tuple(idx))
        for a in comp.arrows:
            for key, w in literal_action(h, a.gpart, a.perm, {idx: c / comp.n_C}).items():
                want[key] = want.get(key, Fraction(0)) + w
    assert braidize(h, v) == Tensor(v.n, want)


@st.composite
def series_pair(draw, max_truncation=3):
    name = draw(st.sampled_from(sorted(PROPERTY_MODULES)))
    h = PROPERTY_MODULES[name]
    truncation = draw(st.integers(0, max_truncation))
    coef = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    pair_ = []
    for _ in range(2):
        parts = []
        for d in range(truncation + 1):
            idx = st.tuples(*[st.integers(0, h.dim - 1)] * d)
            parts.append(braidize(h, Tensor(d, draw(st.dictionaries(idx, coef, max_size=2)))))
        pair_.append(series_from_tensors(h, truncation, parts))
    return pair_


@settings(max_examples=40, deadline=None)
@given(series_pair())
def test_circ_product_matches_per_pair_braidization(xy):
    """Oracle: braidize each juxtaposition x_m y_(d-m) on its own and sum;
    braidize is linear, so this equals one braidize of the degree-d sum."""
    x, y = xy
    h = x.module
    want = {}
    for d in range(x.truncation + 1):
        acc = Tensor(d)
        for m in range(d + 1):
            xm, yn = x.parts.get(m), y.parts.get(d - m)
            if xm and yn:
                acc = acc + braidize(h, xm.juxt(yn))
        want[d] = acc
    assert circ_product(x, y) == BraidedSeries(h, x.truncation, want)
