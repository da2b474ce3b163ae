"""The braid groupoid on n-tuples of group elements.

The braid group acts on G^n by conjugate-and-swap: the generator b_i sends
(.., g_i, g_{i+1}, ..) to (.., g_i g_{i+1} g_i^{-1}, g_i, ..).  Each braid
word, applied at a concrete tuple, realizes an element of G^n x| S_n; these
realized pairs are the arrows of a finite groupoid whose objects are the
tuples.  Distinct braid words can realize the same arrow, and arrows are
compared by their (source, gpart, perm) triple alone.

Conventions fixed here and relied on everywhere else:

* an arrow (gpart, perm) acts on a tuple by conjugating componentwise first
  and then permuting slots, so slot perm[i] of the result comes from slot i;
* composition (a,sigma) o (b,tau) has perm sigma o tau and gpart
  c[j] = a[tau(j)] * b[j];
* generator indices are 1-based: b_i braids slots i and i+1 for
  1 <= i <= n-1.

A component is stored as a spanning tree of its orbit plus the endomorphism
group of its basepoint, closed from Schreier generators, never as its
|C| * m_C arrows.  Each arrow is one connector after one endomorphism, so
n_C = |C| * m_C holds by construction, with m_C the constant hom-set size.
Every component has a constant G-degree (the ordered product of the entries).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import factorial

from .errors import BadIndex, IndexOutOfRange, SizeLimit, SourceTargetMismatch
from .groups import FiniteGroup

DEFAULT_SIZE_LIMIT = 10**6

GTuple = tuple[int, ...]
Perm = tuple[int, ...]


def size_limit() -> int:
    raw = os.environ.get("GFROB_SIZE_LIMIT")
    if not raw:
        return DEFAULT_SIZE_LIMIT
    if not raw.isdecimal() or int(raw) == 0:
        raise BadIndex(f"GFROB_SIZE_LIMIT must be a positive integer, got {raw!r}")
    return int(raw)


def guard_size(group: FiniteGroup, n: int, limit: int | None = None) -> None:
    if n < 0:
        raise BadIndex(f"tuple length n = {n} is negative")
    cap = limit if limit is not None else size_limit()
    total = group.order**n * factorial(n)
    if total > cap:
        raise SizeLimit(f"|G|^n * n! = {total} exceeds limit {cap}")


@dataclass(frozen=True)
class Arrow:
    """A realized element of G^n x| S_n attached to its source tuple."""

    source: GTuple
    gpart: GTuple
    perm: Perm
    target: GTuple

    @property
    def n(self) -> int:
        return len(self.source)

    def __eq__(self, other):
        if not isinstance(other, Arrow):
            return NotImplemented
        return (self.source, self.gpart, self.perm) == (other.source, other.gpart, other.perm)

    def __hash__(self):
        return hash((self.source, self.gpart, self.perm))


def _act(group: FiniteGroup, gpart: GTuple, perm: Perm, t: GTuple) -> GTuple:
    out = [0] * len(t)
    for i, (g, x) in enumerate(zip(gpart, t)):
        out[perm[i]] = group.conj(g, x)
    return tuple(out)


def make_arrow(group: FiniteGroup, source: GTuple, gpart: GTuple, perm: Perm) -> Arrow:
    return Arrow(source, gpart, perm, _act(group, gpart, perm, source))


def identity_arrow(group: FiniteGroup, t: GTuple) -> Arrow:
    n = len(t)
    e = group.identity
    return Arrow(t, tuple([e] * n), tuple(range(n)), t)


def braid_gen_action(group: FiniteGroup, i: int, t: GTuple, inverse: bool = False) -> GTuple:
    n = len(t)
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"generator index {i} for n={n}")
    j = i - 1
    out = list(t)
    if inverse:
        out[j], out[j + 1] = t[j + 1], group.conj(group.inv(t[j + 1]), t[j])
    else:
        out[j], out[j + 1] = group.conj(t[j], t[j + 1]), t[j]
    return tuple(out)


def gen_arrow(group: FiniteGroup, i: int, t: GTuple) -> Arrow:
    """The arrow realized by the generator b_i at tuple t."""
    n = len(t)
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"generator index {i} for n={n}")
    e = group.identity
    gpart = [e] * n
    gpart[i] = t[i - 1]
    perm = list(range(n))
    perm[i - 1], perm[i] = i, i - 1
    return make_arrow(group, t, tuple(gpart), tuple(perm))


def inverse_arrow(group: FiniteGroup, a: Arrow) -> Arrow:
    perm_inv = [0] * a.n
    for i, p in enumerate(a.perm):
        perm_inv[p] = i
    gpart = tuple(group.inv(a.gpart[perm_inv[j]]) for j in range(a.n))
    return Arrow(a.target, gpart, tuple(perm_inv), a.source)


def inverse_gen_arrow(group: FiniteGroup, i: int, t: GTuple) -> Arrow:
    """The arrow realized by b_i^{-1} at tuple t."""
    s = braid_gen_action(group, i, t, inverse=True)
    return inverse_arrow(group, gen_arrow(group, i, s))


def compose_arrows(group: FiniteGroup, a2: Arrow, a1: Arrow) -> Arrow:
    """a2 o a1 (first a1, then a2)."""
    if a1.target != a2.source:
        raise SourceTargetMismatch(f"target {a1.target} != source {a2.source}")
    perm = tuple(a2.perm[p] for p in a1.perm)
    gpart = tuple(group.mul(a2.gpart[a1.perm[j]], a1.gpart[j]) for j in range(a1.n))
    return Arrow(a1.source, gpart, perm, a2.target)


def g_degree(group: FiniteGroup, t: GTuple) -> int:
    return group.product(t)


def reflect_tuple(group: FiniteGroup, t: GTuple) -> GTuple:
    return tuple(group.inv(x) for x in reversed(t))


def diagonal_tuple_action(group: FiniteGroup, g: int, t: GTuple) -> GTuple:
    return tuple(group.conj(g, x) for x in t)


Word = tuple[tuple[int, bool], ...]  # sequence of (generator index, inverted)


def _invert_word(word: Word) -> Word:
    return tuple((i, not inv) for i, inv in reversed(word))


@dataclass(frozen=True, eq=False)
class Component:
    """One connected component of the braid groupoid, based at a chosen tuple.

    Stored as a spanning tree plus a vertex group: connectors maps each member
    u to one arrow basepoint -> u (the identity at the basepoint), and endos is
    End(basepoint).  Every arrow with source basepoint is conn(u) o e for
    exactly one member u and one e in endos, so each hom-set has
    m_C = |endos| arrows and n_C = |C| * m_C holds by construction.  words
    holds one realizing braid word (later-applied generators last) for each
    connector and each endomorphism.
    """

    group: FiniteGroup
    basepoint: GTuple
    connectors: dict[GTuple, Arrow] = field(repr=False)
    endos: tuple[Arrow, ...] = field(repr=False)
    words: dict[Arrow, Word] = field(repr=False)
    g_degree: int

    @property
    def members(self) -> frozenset[GTuple]:
        return frozenset(self.connectors)

    @property
    def m_C(self) -> int:
        return len(self.endos)

    @property
    def n_C(self) -> int:
        return len(self.connectors) * len(self.endos)

    @property
    def canonical(self) -> GTuple:
        return min(self.connectors)

    def hom(self, target: GTuple) -> list[Arrow]:
        """Arrows basepoint -> target, ordered by (gpart, perm)."""
        conn = self.connectors.get(target)
        if conn is None:
            return []
        homs = (compose_arrows(self.group, conn, e) for e in self.endos)
        return sorted(homs, key=lambda a: (a.gpart, a.perm))

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        """Every arrow with source basepoint, ordered by (target, gpart, perm)."""
        return tuple(a for t in sorted(self.connectors) for a in self.hom(t))

    def word(self, a: Arrow) -> Word:
        """A braid word realizing a, which must have source basepoint."""
        conn = self.connectors.get(a.target)
        if conn is not None:
            endo = compose_arrows(self.group, inverse_arrow(self.group, conn), a)
            if endo in self.words:
                return self.words[endo] + self.words[conn]
        raise SourceTargetMismatch("arrow is not realized from its stated source")


_component_cache: dict[tuple[FiniteGroup, GTuple], Component] = {}


def enumerate_component(group: FiniteGroup, t: GTuple, limit: int | None = None) -> Component:
    """The component of t, based at t: a spanning tree and End(t).

    One breadth-first search over the orbit records a connector t -> u for
    each member u.  Every other generator arrow b: s -> u yields the Schreier
    generator conn(u)^-1 o b o conn(s) of End(t) (Schreier's lemma).  Each
    b_i permutes the finite set G^n, so forward generators alone reach the
    whole orbit and generate End(t).  The generators are closed into End(t)
    one at a time: a generator not yet in the group H adds whole cosets
    H o r, so H at least doubles and at most log2(m_C) generators are ever
    multiplied through.

    Results are cached per basepoint; the insert is idempotent, so
    concurrent readers sharing the cache are safe.
    """
    t = tuple(t)
    key = (group, t)
    hit = _component_cache.get(key)
    if hit is not None:
        return hit
    guard_size(group, len(t), limit)
    ident = identity_arrow(group, t)
    connectors = {t: ident}
    words: dict[Arrow, Word] = {ident: ()}
    schreier: list[tuple[Arrow, Word]] = []
    queue = [t]
    for s in queue:  # grows during iteration: breadth-first order
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
    gens: list[tuple[Arrow, Word]] = []
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
    words.update(endos)

    deg = g_degree(group, t)
    if any(g_degree(group, m) != deg for m in connectors):
        raise AssertionError(f"G-degree not constant on the component of {t}")
    comp = Component(group, t, connectors, tuple(endos), words, deg)
    _component_cache[key] = comp
    return comp


def diagonal_g_action(group: FiniteGroup, g: int, comp: Component) -> Component:
    return enumerate_component(group, diagonal_tuple_action(group, g, comp.basepoint))


def _reflect_step(group: FiniteGroup, n: int, i: int, inv: bool, source: GTuple) -> Arrow:
    """Reflection of one signed generator arrow applied at the given source."""
    if not inv:
        # b_i at s reflects to b_{n-i} at r(b_i s), mapping r(b_i s) -> r(s).
        return gen_arrow(group, n - i, source)
    # b_i^{-1} at s reflects to b_{n-i}^{-1} at r(b_i^{-1} s).
    return inverse_gen_arrow(group, n - i, source)


def reflect_arrow(group: FiniteGroup, a: Arrow) -> Arrow:
    """Image of an arrow under the reflection functor.

    Sends an arrow source -> target to an arrow r(target) -> r(source),
    reversing any realizing braid word and swapping b_i for b_{n-i}.  The
    result does not depend on the chosen word.
    """
    word = enumerate_component(group, a.source).word(a)
    n = a.n
    out = identity_arrow(group, reflect_tuple(group, a.target))
    for i, inv in reversed(word):
        step = _reflect_step(group, n, i, inv, out.target)
        out = compose_arrows(group, step, out)
    return out
