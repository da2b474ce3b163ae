"""The braid groupoid on n-tuples of group elements.

The braid group acts on G^n by conjugate-and-swap: the generator b_i sends
(.., g_i, g_{i+1}, ..) to (.., g_i g_{i+1} g_i^{-1}, g_i, ..).  Each braid
word, applied at a concrete tuple, realizes an element of G^n x| S_n; these
realized pairs are the arrows of a finite groupoid whose objects are the
tuples.  Distinct braid words can realize the same arrow, and arrows are
compared by their (source, gpart, perm) triple alone; no word is stored.

Conventions fixed here and relied on everywhere else:

* an arrow (gpart, perm) acts on a tuple by conjugating componentwise first
  and then permuting slots, so slot perm[i] of the result comes from slot i;
* composition (a,sigma) o (b,tau) has perm sigma o tau and gpart
  c[j] = a[tau(j)] * b[j];
* generator indices are 1-based: b_i braids slots i and i+1 for
  1 <= i <= n-1.

A component is stored as a spanning tree of its orbit plus a stabilizer
chain of the endomorphism group of its basepoint, never as its |C| * m_C
arrows nor as the m_C endomorphisms.  Arrows act faithfully on the n|G|
points (slot, x) by (i, x) -> (perm[i], gpart[i] x), which respects
composition, so End(basepoint) is a permutation group and Schreier-Sims
builds a base and transversals U_1..U_k for it from the Schreier generators
of the spanning tree.  Each endomorphism is u_1 o ... o u_k for exactly one
u_i in each U_i, and each arrow is one connector after one endomorphism, so
m_C = prod |U_i| and n_C = |C| * m_C hold by construction, with m_C the
constant hom-set size.  Every component has a constant G-degree (the
ordered product of the entries).

The reflection functor is read off an arrow in closed form: conjugating by
the slot reversal with entry inversion maps the groupoid to itself, so no
realizing word needs to be found or replayed.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from math import factorial, prod
from typing import Iterable, Iterator

from .errors import BadIndex, IndexOutOfRange, SizeLimit, SourceTargetMismatch
from .groups import FiniteGroup

DEFAULT_SIZE_LIMIT = 10**6

GTuple = tuple[int, ...]
Perm = tuple[int, ...]


def max_digits() -> int:
    """The most digits that int() parses and str() prints: the interpreter's limit, or 4300 where it sets none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def check_size(what: str, cost: int) -> None:
    """Refuse a cost over GFROB_SIZE_LIMIT (default 10^6), naming that override in the message.

    With D = max_digits(), a cost of 10^D or more, which str() refuses to
    print, exceeds every limit that int() parses, and its refusal does not
    print it.
    """
    digits = max_digits()
    raw = os.environ.get("GFROB_SIZE_LIMIT")
    if raw and raw.isdecimal() and len(raw) > digits:
        raise BadIndex(f"GFROB_SIZE_LIMIT must be below 10^{digits}, got {len(raw)} digits")
    if raw and (not raw.isdecimal() or int(raw) == 0):
        raise BadIndex(f"GFROB_SIZE_LIMIT must be a positive integer, got {raw!r}")
    cap = int(raw) if raw else DEFAULT_SIZE_LIMIT
    if cost > cap:
        size = f"= {cost}" if cost < 10**digits else f">= 10^{digits}"
        raise SizeLimit(f"{what} {size} exceeds limit {cap}; set GFROB_SIZE_LIMIT to raise it")


def guard_size(group: FiniteGroup, n: int) -> None:
    if n < 0:
        raise BadIndex(f"tuple length n = {n} is negative")
    digits = max_digits()
    # n! alone reaches 10^digits before n = digits, so a longer tuple is refused without building its cost
    check_size("|G|^n * n!", group.order**n * factorial(n) if n <= digits else 10**digits)


@dataclass(frozen=True)
class Arrow:
    """A realized element of G^n x| S_n attached to its source tuple."""

    source: GTuple
    gpart: GTuple
    perm: Perm
    target: GTuple = field(compare=False)  # determined by source, gpart and perm

    @property
    def n(self) -> int:
        return len(self.source)


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
    tab, g2, p2 = group.table, a2.gpart, a2.perm
    perm = tuple([p2[p] for p in a1.perm])
    gpart = tuple([tab[g2[p]][g] for p, g in zip(a1.perm, a1.gpart)])
    return Arrow(a1.source, gpart, perm, a2.target)


def g_degree(group: FiniteGroup, t: GTuple) -> int:
    return group.product(t)


def reflect_tuple(group: FiniteGroup, t: GTuple) -> GTuple:
    return tuple(group.inv(x) for x in reversed(t))


def diagonal_tuple_action(group: FiniteGroup, g: int, t: GTuple) -> GTuple:
    return tuple(group.conj(g, x) for x in t)


Point = tuple[int, int]  # (slot, group element)


@dataclass(frozen=True, eq=False)
class Component:
    """One connected component of the braid groupoid, based at a chosen tuple.

    Stored as a spanning tree plus a stabilizer chain of the vertex group:
    connectors maps each member u to one arrow basepoint -> u (the identity
    at the basepoint), and End(basepoint) is kept as a base and transversals
    U_1..U_k, never as a set.  An endomorphism acts on the n|G| points
    (slot, x) by (i, x) -> (perm[i], gpart[i] x); base point i is
    (base[i], e), and transversals[i] maps each image of that point under
    the stabilizer of the earlier base points to one arrow realizing it,
    the identity first; gens holds the chain's strong generators, which
    generate End(basepoint).  Every endomorphism is u_1 o ... o u_k for
    exactly one choice of u_i in U_i, so m_C = prod |U_i|, and every arrow with
    source basepoint is conn(u) o e for exactly one member u and
    endomorphism e, so n_C = |C| * m_C holds by construction.  No braid
    word is kept: the word-built closures in the tests prove that every
    stored arrow is realized.
    """

    group: FiniteGroup
    basepoint: GTuple
    connectors: dict[GTuple, Arrow] = field(repr=False)
    base: tuple[int, ...]
    transversals: tuple[dict[Point, Arrow], ...] = field(repr=False)
    gens: tuple[Arrow, ...] = field(repr=False)
    g_degree: int

    @property
    def members(self) -> frozenset[GTuple]:
        return frozenset(self.connectors)

    @property
    def m_C(self) -> int:
        return prod(len(u) for u in self.transversals)

    @property
    def n_C(self) -> int:
        return len(self.connectors) * self.m_C

    @property
    def canonical(self) -> GTuple:
        return min(self.connectors)

    def _endos(self) -> list[Arrow]:
        out = [identity_arrow(self.group, self.basepoint)]
        for level in reversed(self.transversals):
            out = [compose_arrows(self.group, u, e) for u in level.values() for e in out]
        return out

    def _hom(self, target: GTuple, endos: list[Arrow]) -> list[Arrow]:
        conn = self.connectors[target]
        homs = (compose_arrows(self.group, conn, e) for e in endos)
        return sorted(homs, key=lambda a: (a.gpart, a.perm))

    def hom(self, target: GTuple) -> list[Arrow]:
        """Arrows basepoint -> target, ordered by (gpart, perm)."""
        if target not in self.connectors:
            return []
        return self._hom(target, self._endos())

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        """Every arrow with source basepoint, ordered by (target, gpart, perm)."""
        endos = self._endos()
        return tuple(a for t in sorted(self.connectors) for a in self._hom(t, endos))


class _Chain:
    """Deterministic Schreier-Sims over End(t), fed one generator at a time.

    The chain is complete (a base and strong generating set) after every
    add(), so sifting an arrow to the identity proves it is already in the
    group generated so far.  Levels only grow: transversal entries are never
    replaced, so a Schreier generator once sifted to the identity stays
    covered and each (orbit point, strong generator) pair is checked once.
    """

    def __init__(self, group: FiniteGroup, t: GTuple):
        self.group = group
        self.ident = identity_arrow(group, t)
        self.base: list[int] = []
        self.trans: list[dict[Point, Arrow]] = []
        self.inverses: list[dict[Point, Arrow]] = []
        self.gens: list[list[Arrow]] = []  # strong generators fixing base[:i]
        self.checked: list[set[tuple[Point, int]]] = []

    def sift(self, x: Arrow, level: int = 0) -> tuple[Arrow, int]:
        """Strip x through levels >= level: (residue, level it stopped at)."""
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

    def add(self, x: Arrow) -> None:
        """Add x to the group generated so far."""
        h, j = self.sift(x)
        if h == self.ident:
            return
        self._extend(h, j)
        i = j
        while i >= 0:  # every level deeper than i is complete
            j = self._check(i)
            i = i - 1 if j is None else j

    def _check(self, i: int) -> int | None:
        """Sift the unchecked Schreier generators of level i; the level extended, if any."""
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

    def _extend(self, h: Arrow, j: int) -> None:
        """Add h, which fixes base points 0..j-1, as a strong generator."""
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

    def _grow_orbit(self, level: int) -> None:
        group, slot, trans = self.group, self.base[level], self.trans[level]
        queue = list(trans)  # grows during iteration
        for beta in queue:
            p, g = beta
            for s in self.gens[level]:
                gamma = (s.perm[p], group.mul(s.gpart[p], g))
                if gamma not in trans:
                    y = compose_arrows(group, s, trans[beta])
                    trans[gamma] = y
                    self.inverses[level][gamma] = inverse_arrow(group, y)
                    queue.append(gamma)


_orbit_cache: dict[tuple[FiniteGroup, GTuple], Component] = {}  # member -> its orbit's component
_ORBIT_CACHE_BOUND = 1 << 16  # members kept; a new component past it empties the cache first


def enumerate_component(group: FiniteGroup, t: GTuple) -> Component:
    """The component of t, based at t: a spanning tree and a chain for End(t).

    One breadth-first search over the orbit records a connector t -> u for
    each member u.  Every other generator arrow b: s -> u yields the Schreier
    generator conn(u)^-1 o b o conn(s) of End(t) (Schreier's lemma).  Each
    b_i permutes the finite set G^n, so forward generators alone reach the
    whole orbit and generate End(t).  Each one is sifted through the
    stabilizer chain built so far and joins it only if it is new
    (Schreier-Sims: Sims 1970; Seress, Permutation Group Algorithms, ch. 4).
    Every call builds afresh; orbit_component is the cached accessor.
    """
    t = tuple(t)
    guard_size(group, len(t))
    ident = identity_arrow(group, t)
    connectors = {t: ident}
    chain = _Chain(group, t)
    queue = [t]
    for s in queue:  # grows during iteration: breadth-first order
        conn_s = connectors[s]
        for i in range(1, len(t)):
            b = gen_arrow(group, i, s)
            a = compose_arrows(group, b, conn_s)
            u = b.target
            conn_u = connectors.get(u)
            if conn_u is None:
                connectors[u] = a
                queue.append(u)
            else:
                chain.add(compose_arrows(group, inverse_arrow(group, conn_u), a))

    deg = g_degree(group, t)
    if any(g_degree(group, m) != deg for m in connectors):
        raise AssertionError(f"G-degree not constant on the component of {t}")
    gens = tuple(chain.gens[0]) if chain.gens else ()
    return Component(group, t, connectors, tuple(chain.base), tuple(chain.trans), gens, deg)


def orbit_component(group: FiniteGroup, t: GTuple) -> Component:
    """The one cached component of t's orbit, based at whichever member came first.

    Arrows out of a member s are conn(u) o e o conn(s)^-1, so every member of
    an orbit can share one component, and the cache maps each member to it.
    When storing a new component would take the cache past _ORBIT_CACHE_BOUND
    members, the cache is emptied in place first, so it never holds more than
    the bound plus the members of the component just built.
    """
    comp = _orbit_cache.get((group, t))
    if comp is None:
        comp = enumerate_component(group, t)
        if len(_orbit_cache) + len(comp.connectors) > _ORBIT_CACHE_BOUND:
            _orbit_cache.clear()
        _orbit_cache.update(dict.fromkeys(((group, m) for m in comp.connectors), comp))
    return comp


def components(group: FiniteGroup, tuples: Iterable[GTuple]) -> Iterator[Component]:
    """Each orbit met among the tuples once, as its cached component, at the first member met.

    For tuples in lexicographic order that member is the least one met.
    The orbits are told apart by their members, not by the component
    objects, since the cache may be emptied and an orbit rebuilt mid-census.
    """
    seen: set[GTuple] = set()  # the members of every orbit yielded
    for t in tuples:
        if t not in seen:
            comp = orbit_component(group, t)
            seen.update(comp.connectors)
            yield comp


def diagonal_g_action(group: FiniteGroup, g: int, comp: Component) -> Component:
    return enumerate_component(group, diagonal_tuple_action(group, g, comp.basepoint))


def reflect_arrow(group: FiniteGroup, a: Arrow) -> Arrow:
    """Image of an arrow under the reflection functor.

    Sends an arrow source -> target to an arrow r(target) -> r(source): any
    realizing braid word is reversed and b_i swapped for b_{n-i}.  In closed
    form, with rho the slot reversal with entry inversion (rho(t) = r(t)),
    the result is (rho o a o rho^-1)^-1.  rho commutes with conjugation, so
    rho o a o rho^-1 : r(source) -> r(target) has gpart[j] = a.gpart[n-1-j]
    and perm[j] = n-1-a.perm[n-1-j]; on b_i at s it gives b_{n-i} at
    r(b_i s), and both sides respect composition.
    """
    last = a.n - 1
    perm = tuple(last - p for p in reversed(a.perm))
    conj = Arrow(reflect_tuple(group, a.source), a.gpart[::-1], perm, reflect_tuple(group, a.target))
    return inverse_arrow(group, conj)
