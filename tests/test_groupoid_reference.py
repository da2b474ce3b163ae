"""The stabilizer chain of End(t) against two earlier bodies of enumerate_component.

closure_component below is the same breadth-first spanning tree, but the
Schreier generators are closed into the whole vertex group one generator at
a time, storing every endomorphism with a braid word.  It serves as an
independent oracle for the chain's m_C and its hom-sets, and its words
prove that every endomorphism it lists is realized by a braid word, which
the chain does not record.

reference_component is the same search and Schreier-Sims chain run on Arrow
objects, one compose_arrows per product and one inverse_arrow per Schreier
generator.  groupoid.enumerate_component runs them on flat point
permutations, and must return the same Component field for field, dict
order included.
"""

import itertools
import time

from gfrob import compose_arrows, cyclic_group, enumerate_component, gen_arrow, inverse_arrow, symmetric_group
from gfrob.groupoid import Component, g_degree, identity_arrow, make_arrow

from conftest import realize


def _invert_word(word):
    return tuple((i, not inv) for i, inv in reversed(word))


def closure_component(group, t):
    """(connectors, {endomorphism: word}) for the component of t, based at t."""
    t = tuple(t)
    ident = identity_arrow(group, t)
    connectors = {t: ident}
    words = {ident: ()}
    schreier = []
    queue = [t]
    for s in queue:
        conn_s = connectors[s]
        for i in range(1, len(t)):
            b = gen_arrow(group, i, s)
            a = compose_arrows(group, b, conn_s)
            w = words[conn_s] + ((i, False),)
            conn_u = connectors.get(b.target)
            if conn_u is None:
                connectors[b.target] = a
                words[a] = w
                queue.append(b.target)
            else:
                x = compose_arrows(group, inverse_arrow(group, conn_u), a)
                schreier.append((x, w + _invert_word(words[conn_u])))

    endos = {ident: ()}
    gens = []
    for x, wx in schreier:
        if x in endos:
            continue
        gens.append((x, wx))
        subgroup = list(endos.items())
        reps = [(ident, ())]  # coset representatives; grows during iteration
        for r, wr in reps:
            for g, wg in gens:
                y = compose_arrows(group, r, g)
                if y not in endos:
                    wy = wg + wr
                    reps.append((y, wy))
                    for h, wh in subgroup:
                        endos[compose_arrows(group, h, y)] = wy + wh
    return connectors, endos


class ReferenceChain:
    """Schreier-Sims over End(t) on Arrows, fed one generator at a time; the order of _Chain's steps."""

    def __init__(self, group, t):
        self.group = group
        self.ident = identity_arrow(group, t)
        self.base = []
        self.trans = []
        self.inverses = []
        self.gens = []  # strong generators fixing base[:i]
        self.checked = []

    def sift(self, x, level=0):
        for i in range(level, len(self.base)):
            slot = self.base[i]
            point = (x.perm[slot], x.gpart[slot])
            if point == (slot, self.group.identity):
                continue
            inv = self.inverses[i].get(point)
            if inv is None:
                return x, i
            x = compose_arrows(self.group, inv, x)
        return x, len(self.base)

    def add(self, x):
        h, j = self.sift(x)
        if h == self.ident:
            return
        self._extend(h, j)
        i = j
        while i >= 0:
            j = self._check(i)
            i = i - 1 if j is None else j

    def _check(self, i):
        group, slot, trans, checked = self.group, self.base[i], self.trans[i], self.checked[i]
        for beta, u in list(trans.items()):
            for k, s in enumerate(self.gens[i]):
                if (beta, k) in checked:
                    continue
                checked.add((beta, k))
                y = compose_arrows(group, s, u)
                gamma = (y.perm[slot], y.gpart[slot])
                y = compose_arrows(group, self.inverses[i][gamma], y)
                h, j = self.sift(y, i + 1)
                if h != self.ident:
                    self._extend(h, j)
                    return j
        return None

    def _extend(self, h, j):
        if j == len(self.base):
            e = self.group.identity
            slot = next(i for i in range(h.n) if (h.perm[i], h.gpart[i]) != (i, e))
            self.base.append(slot)
            self.trans.append({(slot, e): self.ident})
            self.inverses.append({(slot, e): self.ident})
            self.gens.append([])
            self.checked.append(set())
        for level in range(j + 1):
            self.gens[level].append(h)
            self._grow_orbit(level)

    def _grow_orbit(self, level):
        group, trans = self.group, self.trans[level]
        queue = list(trans)
        for beta in queue:
            p, g = beta
            for s in self.gens[level]:
                gamma = (s.perm[p], group.mul(s.gpart[p], g))
                if gamma not in trans:
                    y = compose_arrows(group, s, trans[beta])
                    trans[gamma] = y
                    self.inverses[level][gamma] = inverse_arrow(group, y)
                    queue.append(gamma)


def reference_component(group, t):
    """The component of t on Arrows: breadth-first connectors, every other edge's Schreier generator sifted."""
    t = tuple(t)
    connectors = {t: identity_arrow(group, t)}
    chain = ReferenceChain(group, t)
    queue = [t]
    for s in queue:
        conn_s = connectors[s]
        for i in range(1, len(t)):
            b = gen_arrow(group, i, s)
            a = compose_arrows(group, b, conn_s)
            conn_u = connectors.get(b.target)
            if conn_u is None:
                connectors[b.target] = a
                queue.append(b.target)
            else:
                chain.add(compose_arrows(group, inverse_arrow(group, conn_u), a))
    gens = tuple(chain.gens[0]) if chain.gens else ()
    return Component(group, t, connectors, tuple(chain.base), tuple(chain.trans), gens, g_degree(group, t))


def _fields(comp):
    """Every field of a component, each dict as its item list, so that order counts."""
    return (
        comp.group,
        comp.basepoint,
        list(comp.connectors.items()),
        comp.base,
        [list(level.items()) for level in comp.transversals],
        comp.gens,
        comp.g_degree,
    )


def test_flat_chain_matches_the_arrow_chain_field_for_field(z2, z3, s3):
    for g, top in ((z2, 6), (z3, 4), (s3, 3), (cyclic_group(4), 3), (symmetric_group(4), 2)):
        for n in range(top + 1):
            for t in itertools.product(range(g.order), repeat=n):
                assert _fields(enumerate_component(g, t)) == _fields(reference_component(g, t)), (g.order, t)


def test_converted_targets_are_the_acted_sources(z2, z3, s3):
    # Arrow.target is compare=False, so only this catches a wrong target
    for g, top in ((z2, 5), (z3, 4), (s3, 3)):
        for n in range(top + 1):
            for t in itertools.product(range(g.order), repeat=n):
                comp = enumerate_component(g, t)
                arrows = [*comp.connectors.values(), *comp.gens]
                arrows += [a for level in comp.transversals for a in level.values()]
                for a in arrows:
                    assert a.target == make_arrow(g, a.source, a.gpart, a.perm).target
                assert all(a.target == u for u, a in comp.connectors.items())


def test_chain_matches_closure(z2, z3, s3):
    for g, top in ((z2, 5), (z3, 3), (s3, 3)):
        for n in range(top + 1):
            for t in itertools.product(range(g.order), repeat=n):
                comp = enumerate_component(g, t)
                connectors, endos = closure_component(g, t)
                assert comp.m_C == len(endos)
                assert comp.members == set(connectors)
                for m, conn in connectors.items():
                    want = {compose_arrows(g, conn, e) for e in endos}
                    homs = comp.hom(m)
                    assert len(homs) == len(set(homs)) and set(homs) == want
                # each closure word realizes its endomorphism too
                for e, w in itertools.islice(endos.items(), 8):
                    assert realize(g, t, w) == e


def test_chain_transversals_factor_end(z2, s3):
    # the levels fix base points 0..i-1, so m_C = prod |U_i| exactly, and each
    # level's identity entry comes first
    for g, n in ((z2, 4), (s3, 3)):
        for t in itertools.product(range(g.order), repeat=n):
            comp = enumerate_component(g, t)
            ident = identity_arrow(g, t)
            for i, (slot, level) in enumerate(zip(comp.base, comp.transversals)):
                first = next(iter(level.values()))
                assert first == ident
                for point, u in level.items():
                    assert (u.perm[slot], u.gpart[slot]) == point
                    for prev in comp.base[:i]:
                        assert (u.perm[prev], u.gpart[prev]) == (prev, g.identity)


def test_large_vertex_group_is_prompt(z2, monkeypatch):
    # End((1,)*8) over Z2 has 2^7 * 8! elements; the closure would store each
    monkeypatch.setenv("GFROB_SIZE_LIMIT", str(10**8))
    start = time.perf_counter()
    comp = enumerate_component(z2, (1,) * 8)
    assert comp.m_C == 2**7 * 40320 == 5_160_960
    assert time.perf_counter() - start < 2
