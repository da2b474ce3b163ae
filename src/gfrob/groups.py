"""Finite groups as multiplication tables with 0-based element indices.

A group of order n is a table t where t[a][b] is the index of a*b.
Validation is exhaustive over the carrier: two-sided identity, two-sided
inverses, and associativity via Light's test (checking a(xy)=(ax)y for a
running over a generating set, which is equivalent to the full check once
the generating set closes to the whole table).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import BadIndex, NotAGroup, SizeLimit

SYMMETRIC_ORDER_CAP = 720


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    def elements(self) -> range:
        return range(len(self.table))

    def product(self, elems: Sequence[int]) -> int:
        acc = self.identity
        for x in elems:
            acc = self.table[acc][x]
        return acc

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in self.elements() for b in self.elements())


def _closure(table: Sequence[Sequence[int]], gens: set[int], identity: int) -> set[int]:
    seen = {identity} | set(gens)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = table[a][g]
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def group_from_table(table: Sequence[Sequence[int]]) -> FiniteGroup:
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    rows = []
    for row in table:
        if len(row) != n:
            raise NotAGroup("table is not square")
        for x in row:
            if not isinstance(x, int) or not 0 <= x < n:
                raise NotAGroup(f"entry {x!r} out of range")
        rows.append(tuple(row))
    t = tuple(rows)

    identity = next(
        (e for e in range(n) if all(t[e][a] == a and t[a][e] == a for a in range(n))),
        None,
    )
    if identity is None:
        raise NotAGroup("no two-sided identity")

    inverse = []
    for a in range(n):
        b = next((b for b in range(n) if t[a][b] == identity and t[b][a] == identity), None)
        if b is None:
            raise NotAGroup(f"element {a} has no two-sided inverse")
        inverse.append(b)

    # Light's associativity test over a generating set.
    gens: set[int] = set()
    closed = _closure(t, gens, identity)
    while len(closed) < n:
        g = min(a for a in range(n) if a not in closed)
        gens.add(g)
        closed = _closure(t, gens, identity)
    for g in gens:
        for x in range(n):
            gx = t[g][x]
            row_x = t[x]
            row_gx = t[gx]
            for y in range(n):
                if t[g][row_x[y]] != row_gx[y]:
                    raise NotAGroup(f"associativity fails at ({g},{x},{y})")

    return FiniteGroup(table=t, identity=identity, inverse=tuple(inverse))


def trivial_group() -> FiniteGroup:
    return group_from_table([[0]])


def cyclic_group(n: int) -> FiniteGroup:
    """Z/nZ with elements 0..n-1 under addition; for n=2 this is (e, g)."""
    if n < 1:
        raise BadIndex("cyclic_group requires n >= 1")
    return group_from_table([[(a + b) % n for b in range(n)] for a in range(n)])


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on points 0..n-1; elements are permutation tuples in sorted order.

    The product of indices a, b is the composite "apply b, then a".
    """
    if n < 1:
        raise BadIndex("symmetric_group requires n >= 1")
    order = 1
    for k in range(2, n + 1):
        order *= k
    if order > SYMMETRIC_ORDER_CAP:
        raise SizeLimit(f"symmetric_group({n}) has order {order} > {SYMMETRIC_ORDER_CAP}")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(pa[pb[i]] for i in range(n))] for pb in perms]
        for pa in perms
    ]
    return group_from_table(table)


def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Partition of element indices into conjugation orbits, canonically sorted."""
    seen: set[int] = set()
    classes = []
    for a in group.elements():
        if a in seen:
            continue
        orbit = sorted({group.conj(g, a) for g in group.elements()})
        seen.update(orbit)
        classes.append(tuple(orbit))
    classes.sort(key=lambda c: c[0])
    return tuple(classes)
