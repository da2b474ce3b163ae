import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gfrob import (
    braid_gen_action,
    compose_arrows,
    cyclic_group,
    diagonal_g_action,
    enumerate_component,
    g_degree,
    gen_arrow,
    inverse_arrow,
    reflect_arrow,
    reflect_tuple,
    symmetric_group,
)
from gfrob.errors import IndexOutOfRange, SizeLimit, SourceTargetMismatch
from gfrob.groupoid import (
    components,
    diagonal_tuple_action,
    guard_size,
    identity_arrow,
    inverse_gen_arrow,
)

from conftest import perm_index, realize


def all_tuples(g, n):
    return itertools.product(range(g.order), repeat=n)


def oracle_arrows(g, base):
    """Reference closure: every arrow with source base, by brute-force BFS
    over generator arrows and their inverses, each with one realizing word."""
    n = len(base)
    start = identity_arrow(g, base)
    words = {start: ()}
    queue = [start]
    while queue:
        frontier = []
        for a in queue:
            for i in range(1, n):
                for inv in (False, True):
                    step = inverse_gen_arrow(g, i, a.target) if inv else gen_arrow(g, i, a.target)
                    c = compose_arrows(g, step, a)
                    if c not in words:
                        words[c] = words[a] + ((i, inv),)
                        frontier.append(c)
        queue = frontier
    return words


def _reflect_step(g, n, i, inv, source):
    """Reflection of one signed generator arrow applied at the given source."""
    if not inv:
        # b_i at s reflects to b_{n-i} at r(b_i s), mapping r(b_i s) -> r(s).
        return gen_arrow(g, n - i, source)
    # b_i^{-1} at s reflects to b_{n-i}^{-1} at r(b_i^{-1} s).
    return inverse_gen_arrow(g, n - i, source)


def reflect_along(g, word, a):
    """Reference reflection: reverse a word realizing a, swap b_i for b_{n-i},
    and replay it from r(target)."""
    out = identity_arrow(g, reflect_tuple(g, a.target))
    for i, inv in reversed(word):
        out = compose_arrows(g, _reflect_step(g, a.n, i, inv, out.target), out)
    return out


def test_gen_action_z2(z2):
    assert braid_gen_action(z2, 1, (0, 1)) == (1, 0)
    assert braid_gen_action(z2, 1, (1, 0)) == (0, 1)


def test_gen_action_s3(s3):
    t12 = perm_index(3, (1, 0, 2))
    t13 = perm_index(3, (2, 1, 0))
    t23 = perm_index(3, (0, 2, 1))
    assert braid_gen_action(s3, 1, (t12, t13)) == (t23, t12)


def test_gen_action_inverse_round_trip(s3):
    rng = random.Random(0)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        t = tuple(rng.randrange(6) for _ in range(n))
        i = rng.randrange(1, n)
        assert braid_gen_action(s3, i, braid_gen_action(s3, i, t, inverse=True)) == t
        assert braid_gen_action(s3, i, braid_gen_action(s3, i, t), inverse=True) == t


def test_braid_relations_exhaustive(z2, z3, s3):
    # every tuple, both defining relations, for |G| <= 6 and n <= 4
    for g in (z2, z3, s3):
        for n in (3, 4):
            for t in all_tuples(g, n):
                for i in range(1, n - 1):
                    lhs = braid_gen_action(g, i, braid_gen_action(g, i + 1, braid_gen_action(g, i, t)))
                    rhs = braid_gen_action(g, i + 1, braid_gen_action(g, i, braid_gen_action(g, i + 1, t)))
                    assert lhs == rhs
                if n == 4:
                    far = braid_gen_action(g, 1, braid_gen_action(g, 3, t))
                    assert far == braid_gen_action(g, 3, braid_gen_action(g, 1, t))


def test_index_out_of_range(z2):
    with pytest.raises(IndexOutOfRange):
        braid_gen_action(z2, 2, (0, 1))
    with pytest.raises(IndexOutOfRange):
        gen_arrow(z2, 0, (0, 1))


def test_gen_arrow_values(z2, s3):
    a = gen_arrow(z2, 1, (0, 1))
    assert a.gpart == (0, 0) and a.perm == (1, 0) and a.target == (1, 0)
    b = gen_arrow(z2, 1, (1, 0))
    assert b.gpart == (0, 1) and b.perm == (1, 0)
    t = (1, 2, 3)
    c = gen_arrow(s3, 2, t)
    assert c.gpart == (s3.identity, s3.identity, t[1])
    assert c.perm == (0, 2, 1)


def test_arrows_compare_and_hash_by_source_gpart_and_perm(s3):
    """The target follows from the other three fields, so equality and hashing ignore it."""
    a = gen_arrow(s3, 2, (1, 2, 3))
    relabelled = dataclasses.replace(a, target=a.source)
    assert relabelled == a and hash(relabelled) == hash(a) == hash((a.source, a.gpart, a.perm))
    assert dataclasses.replace(a, perm=(0, 1, 2)) != a and a != (a.source, a.gpart, a.perm, a.target)


def test_compose_with_identity(z2):
    a = gen_arrow(z2, 1, (0, 1))
    assert compose_arrows(z2, a, identity_arrow(z2, (0, 1))) == a
    assert compose_arrows(z2, identity_arrow(z2, a.target), a) == a


def test_compose_two_generators(z2):
    a1 = gen_arrow(z2, 1, (0, 1))
    a2 = gen_arrow(z2, 1, (1, 0))
    c = compose_arrows(z2, a2, a1)
    assert c.source == (0, 1)
    assert c.gpart == (1, 0)
    assert c.perm == (0, 1)


def test_compose_mismatch(z2):
    a = gen_arrow(z2, 1, (0, 1))
    with pytest.raises(SourceTargetMismatch):
        compose_arrows(z2, a, a)


def test_compose_associative_random(s3):
    rng = random.Random(3)
    comp = enumerate_component(s3, (1, 4, 2))
    for _ in range(40):
        a = rng.choice(comp.arrows)
        b = rng.choice(enumerate_component(s3, a.target).arrows)
        c = rng.choice(enumerate_component(s3, b.target).arrows)
        assert compose_arrows(s3, c, compose_arrows(s3, b, a)) == compose_arrows(
            s3, compose_arrows(s3, c, b), a
        )


def test_inverse_arrow(s3):
    comp = enumerate_component(s3, (1, 2))
    for a in comp.arrows:
        inv = inverse_arrow(s3, a)
        assert compose_arrows(s3, inv, a) == identity_arrow(s3, a.source)
        assert compose_arrows(s3, a, inv) == identity_arrow(s3, a.target)


def test_z2_components(z2):
    reps = set()
    for t in all_tuples(z2, 2):
        reps.add(enumerate_component(z2, t).canonical)
    assert reps == {(0, 0), (0, 1), (1, 1)}
    mixed = enumerate_component(z2, (0, 1))
    assert sorted(mixed.members) == [(0, 1), (1, 0)]
    assert mixed.m_C == 2 and mixed.n_C == 4
    endo = {(a.gpart, a.perm) for a in mixed.hom((0, 1))}
    assert endo == {((0, 0), (0, 1)), ((1, 0), (0, 1))}


def test_counting_identity(z2, z3, s3):
    for g, n in ((z2, 2), (z2, 3), (z3, 2), (s3, 2), (s3, 3)):
        for t in all_tuples(g, n):
            c = enumerate_component(g, t)
            assert c.n_C == len(c.members) * c.m_C
            per_target = [len(c.hom(m)) for m in c.members]
            assert set(per_target) == {c.m_C}


def test_component_matches_oracle(z2, z3, s3):
    for g, top in ((z2, 4), (z3, 3), (s3, 3)):
        for n in range(1, top + 1):
            for t in all_tuples(g, n):
                comp = enumerate_component(g, t)
                ref = oracle_arrows(g, t)
                arrows = comp.arrows
                assert len(arrows) == len(set(arrows)) == comp.n_C
                assert set(arrows) == set(ref)
                assert comp.members == {a.target for a in ref}
                per_target = {m: sum(a.target == m for a in ref) for m in comp.members}
                assert set(per_target.values()) == {comp.m_C}
                assert comp.g_degree == g_degree(g, t)


def bfs_orbits(g, n):
    """The braid orbits on G^n by brute-force BFS over every b_i and b_i^-1, in order of least member."""
    seen, out = set(), []
    for t in all_tuples(g, n):
        if t in seen:
            continue
        orbit, queue = {t}, [t]
        for s in queue:
            for i in range(1, n):
                for inverse in (False, True):
                    u = braid_gen_action(g, i, s, inverse)
                    if u not in orbit:
                        orbit.add(u)
                        queue.append(u)
        seen |= orbit
        out.append(frozenset(orbit))
    return out


@pytest.mark.parametrize("group, top", [("z2", 6), ("z3", 4), ("s3", 3)])
def test_components_yields_each_orbit_once_at_its_least_member(request, group, top):
    from gfrob import groupoid

    g = request.getfixturevalue(group)
    for n in range(top + 1):
        groupoid._orbit_cache.clear()
        comps = list(components(g, all_tuples(g, n)))
        orbits = bfs_orbits(g, n)
        assert [c.members for c in comps] == orbits
        assert [c.basepoint for c in comps] == [c.canonical for c in comps] == [min(o) for o in orbits]
        assert len(set(comps)) == len(comps) == len(set(groupoid._orbit_cache.values()))
        # in any order, each orbit comes once, at the first of its members met
        backwards = list(components(g, reversed(list(all_tuples(g, n)))))
        assert [c.members for c in backwards] == sorted(orbits, key=max, reverse=True)
        assert set(backwards) == set(comps)


def test_bounded_orbit_cache_keeps_the_census_exact(s3, monkeypatch):
    # with room for 8 members the cache is emptied many times during the
    # S3 n=3 census; each orbit still comes once, and is built once
    from gfrob import groupoid

    bound = 8
    monkeypatch.setattr(groupoid, "_ORBIT_CACHE_BOUND", bound)
    built, build = [], groupoid.enumerate_component

    def counted(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(groupoid, "enumerate_component", counted)
    cache = groupoid._orbit_cache
    cache.clear()
    comps = []
    for comp in components(s3, all_tuples(s3, 3)):
        comps.append(comp)
        assert comp is built[-1]
        assert len(cache) <= bound + len(comp.members)
    assert [c.members for c in comps] == bfs_orbits(s3, 3)
    assert len(built) == len(comps) and len(cache) < s3.order ** 3
    assert groupoid._orbit_cache is cache


def test_reflect_arrow_matches_oracle_words(z2, z3, s3):
    rng = random.Random(11)
    for g, n in ((z2, 4), (z3, 3), (s3, 3)):
        for _ in range(15):
            t = tuple(rng.randrange(g.order) for _ in range(n))
            ref = oracle_arrows(g, t)
            for a in rng.sample(sorted(ref, key=lambda a: (a.target, a.gpart, a.perm)), min(4, len(ref))):
                assert reflect_arrow(g, a) == reflect_along(g, ref[a], a)


def test_stored_arrows_are_realized(s3):
    # every connector and transversal entry is an arrow some braid word
    # realizes: the word-built closure finds each with a word that replays it
    t = (1, 2, 4)
    comp = enumerate_component(s3, t)
    ref = oracle_arrows(s3, t)
    stored = list(comp.connectors.values())
    stored += [u for level in comp.transversals for u in level.values()]
    assert len(stored) == len(comp.members) + sum(len(level) for level in comp.transversals)
    for a in stored:
        assert realize(s3, t, ref[a]) == a


def test_arrow_closure_is_groupoid(s3):
    comp = enumerate_component(s3, (1, 2))
    arrows = set(comp.arrows)
    for a in comp.arrows:
        assert inverse_arrow(s3, a) in set(enumerate_component(s3, a.target).arrows)
        for b in enumerate_component(s3, a.target).arrows[:6]:
            c = compose_arrows(s3, b, a)
            assert c in set(enumerate_component(s3, c.source).arrows)
        if a.target == comp.basepoint:
            assert inverse_arrow(s3, a) in arrows


def test_g_degree(z2, s3):
    assert g_degree(z2, (0, 0, 0)) == 0
    assert g_degree(z2, (1, 1)) == 0
    for t in all_tuples(s3, 3):
        c = enumerate_component(s3, t)
        assert all(g_degree(s3, m) == c.g_degree for m in c.members)


def test_diagonal_action(z2, s3):
    c = enumerate_component(z2, (0, 1))
    assert diagonal_g_action(z2, 0, c).members == c.members
    assert diagonal_g_action(z2, 1, c).members == c.members  # abelian
    t12 = perm_index(3, (1, 0, 2))
    t13 = perm_index(3, (2, 1, 0))
    t23 = perm_index(3, (0, 2, 1))
    c = enumerate_component(s3, (t12, t12))
    moved = diagonal_g_action(s3, t13, c)
    assert (t23, t23) in moved.members
    # degree conjugates
    assert moved.g_degree == s3.conj(t13, c.g_degree)


def test_diagonal_commutes_with_generators(s3):
    for t in all_tuples(s3, 3):
        for g in range(6):
            for i in (1, 2):
                lhs = diagonal_tuple_action(s3, g, braid_gen_action(s3, i, t))
                rhs = braid_gen_action(s3, i, diagonal_tuple_action(s3, g, t))
                assert lhs == rhs


def test_reflect_tuple(z2, s3):
    assert reflect_tuple(z2, (0, 0, 0)) == (0, 0, 0)
    assert reflect_tuple(z2, (0, 1)) == (1, 0)
    t = (1, 3, 4)
    assert reflect_tuple(s3, t) == tuple(s3.inv(x) for x in reversed(t))


def test_reflect_hom_set_sizes(z2, s3):
    # hom-set sizes are constant (= m_C) per component, so the bijection
    # claim reduces to m_C agreeing with the reflected component, checked
    # on every component with n <= 3
    for g, n in ((z2, 2), (z2, 3), (s3, 2), (s3, 3)):
        for t in all_tuples(g, n):
            comp = enumerate_component(g, t)
            refl = enumerate_component(g, reflect_tuple(g, t))
            assert comp.m_C == refl.m_C
            assert len(comp.members) == len(refl.members)
        for t in itertools.islice(all_tuples(g, n), 12):
            comp = enumerate_component(g, t)
            for tgt in sorted(comp.members)[:3]:
                fwd = len(comp.hom(tgt))
                bwd = len(enumerate_component(g, reflect_tuple(g, tgt)).hom(reflect_tuple(g, t)))
                assert fwd == bwd


def test_reflect_arrow_builds_no_component(s3, monkeypatch):
    # the reflection is read off the arrow in closed form: reflecting arrows
    # out of every member of the 18-member orbit of (1,2,4) closes no component
    from gfrob import groupoid

    members = sorted(enumerate_component(s3, (1, 2, 4)).members)
    assert len(members) == 18
    groupoid._orbit_cache.clear()
    built = []
    monkeypatch.setattr(groupoid, "enumerate_component", lambda *args: built.append(args))
    for t in members:
        a = gen_arrow(s3, 1, t)
        r = reflect_arrow(s3, a)
        assert (r.source, r.target) == (reflect_tuple(s3, a.target), reflect_tuple(s3, t))
    assert len(set(groupoid._orbit_cache.values())) == 0 and built == []


def test_reflect_arrow_generator(z2):
    a = gen_arrow(z2, 1, (0, 1))
    r = reflect_arrow(z2, a)
    assert r.source == reflect_tuple(z2, a.target)
    assert r.target == reflect_tuple(z2, a.source)


def test_reflect_arrow_antihomomorphism(s3):
    rng = random.Random(5)
    for _ in range(25):
        t = tuple(rng.randrange(6) for _ in range(3))
        comp = enumerate_component(s3, t)
        a = rng.choice(comp.arrows)
        b = rng.choice(enumerate_component(s3, a.target).arrows)
        ba = compose_arrows(s3, b, a)
        assert reflect_arrow(s3, ba) == compose_arrows(
            s3, reflect_arrow(s3, a), reflect_arrow(s3, b)
        )


def test_reflect_identity_is_identity(z3):
    for t in all_tuples(z3, 2):
        ida = identity_arrow(z3, t)
        assert reflect_arrow(z3, ida) == identity_arrow(z3, reflect_tuple(z3, t))


def test_size_guard(monkeypatch, s3):
    with pytest.raises(SizeLimit):
        guard_size(s3, 9)
    monkeypatch.setenv("GFROB_SIZE_LIMIT", "10")
    with pytest.raises(SizeLimit):
        guard_size(s3, 2)
    monkeypatch.setenv("GFROB_SIZE_LIMIT", "10000000000000")
    guard_size(s3, 9)


def test_inverse_gen_arrow(s3):
    t = (2, 5, 1)
    a = inverse_gen_arrow(s3, 2, t)
    assert a.source == t
    assert a.target == braid_gen_action(s3, 2, t, inverse=True)


def test_reflect_arrow_word_independence(s3):
    # reflecting along a detoured word (insert b_i b_i^{-1}) gives the same arrow
    ref = oracle_arrows(s3, (1, 2, 4))
    rng = random.Random(8)
    for a in sorted(ref, key=lambda a: (a.target, a.gpart, a.perm))[:8]:
        i = rng.randrange(1, 3)
        detour = ref[a] + ((i, False), (i, True))
        assert realize(s3, a.source, detour) == a
        assert reflect_along(s3, detour, a) == reflect_arrow(s3, a)


GROUPS = {"z2": cyclic_group(2), "z3": cyclic_group(3), "s3": symmetric_group(3)}


@st.composite
def group_word(draw, max_n=6, max_len=14):
    g = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    n = draw(st.integers(1, max_n))
    t = tuple(draw(st.lists(st.integers(0, g.order - 1), min_size=n, max_size=n)))
    word = ()
    if n > 1:
        letter = st.tuples(st.integers(1, n - 1), st.booleans())
        word = tuple(draw(st.lists(letter, max_size=max_len)))
    return g, t, word


@settings(max_examples=300, deadline=None)
@given(group_word())
def test_reflect_arrow_closed_form_matches_word_replay(gtw):
    g, t, word = gtw
    a = realize(g, t, word)
    r = reflect_arrow(g, a)
    assert r == reflect_along(g, word, a)
    assert (r.source, r.target) == (reflect_tuple(g, a.target), reflect_tuple(g, t))
    assert reflect_arrow(g, r) == a
