"""The stabilizer chain of End(t) against the earlier closure of End(t) as a set.

closure_component below is an earlier body of groupoid.enumerate_component:
the same breadth-first spanning tree, but the Schreier generators are closed
into the whole vertex group one generator at a time, storing every
endomorphism with a braid word.  It serves as an independent oracle for the
chain's m_C and its hom-sets, and its words prove that every endomorphism
it lists is realized by a braid word, which the chain does not record.
"""

import itertools
import time

from gfrob import compose_arrows, enumerate_component, gen_arrow, inverse_arrow
from gfrob.groupoid import identity_arrow

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
