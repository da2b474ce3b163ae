"""Braided tensors: the averaging projector, invariant bases, and the ring.

The braidization of a homogeneous tensor of degree tuple d averages the
actions of all groupoid arrows with source d.  It is an idempotent
projector onto the braid-invariant tensors, constant on braid orbits, and
it commutes with module morphisms; juxtaposition followed by braidization
is an associative braided-commutative product with unity.

Forms on a module live as tensors on its dual module.  Evaluation pairs
slot k of the vector side against slot n+1-k of the form side (reversed
trace), which makes the generator b_i on forms adjoint to b_{n-i} on
vectors, and makes braidization self-adjoint for the pairing.

Homogeneous degree-n polynomials and symmetric n-tensors are identified by
full polarization: the tensor coefficient on any index tuple realizing the
exponent vector a is coeff(a) * a! / n!, so that diagonal evaluation
recovers the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product as iter_product
from math import factorial, lcm
from typing import Iterator, Sequence

from . import linalg
from .errors import DegreeMismatch, ModuleMismatch
from .groupoid import Component, check_size, components, guard_size, inverse_arrow, orbit_component
from .groups import trivial_group
from .modules import (
    GradedModule,
    Tensor,
    arrow_apply_into,
    braid_act,
    dual_module,
    require_morphism,
    slot_apply_into,
    split_homogeneous,
    trivial_graded_module,
    untwisted_basis,
)
from .poly import MultiPoly


def braidize(h: GradedModule, v: Tensor) -> Tensor:
    """Average of all arrow actions with source the degree tuple of each part.

    All members of an orbit share one component based at b.  The arrows out
    of a member s are conn(u) o e o conn(s)^-1 for members u and e in End(b),
    and End(b) = U_1 o ... o U_k factors through its stabilizer chain, so
    sum(A) . v = sum_u conn(u) . (sum U_1) ... (sum U_k) . conn(s)^-1 . v,
    the deepest level applied first.  The parts of one component are moved to
    b and summed there, so each component costs one application per part
    plus |C| + sum |U_i|, instead of |C| * m_C per part.  Each orbit keeps
    one bucket even if the orbit cache is emptied and the orbit rebuilt at
    another member between two of its parts.

    The sums run fraction-free: a component's parts are cleared to one
    common denominator D, every step multiplies the integer numerators by
    Delta^n (the kernel's factor; the identity terms of the transversals and
    the parts already at b get it by hand), and each output term is divided
    once by D * n_C * Delta^(n * steps).
    """
    if v.n <= 1:
        return v
    group = h.group
    dn = h.delta**v.n
    by_base: dict[tuple[int, ...], tuple[Component, list]] = {}
    for deg, part in split_homogeneous(h, v).items():
        comp = orbit_component(group, deg)
        if comp.basepoint not in by_base:  # a new orbit, or one rebuilt after the cache was emptied
            comp = next((c for c, _ in by_base.values() if deg in c.connectors), comp)
        by_base.setdefault(comp.basepoint, (comp, []))[1].append((deg, part))
    out: dict[tuple[int, ...], Fraction] = {}
    for comp, parts in by_base.values():
        den = lcm(*(c.denominator for _, part in parts for c in part.values()))
        at_base: dict[tuple[int, ...], int] = {}
        for deg, part in parts:
            nums = {idx: c.numerator * (den // c.denominator) for idx, c in part.items()}
            if deg == comp.basepoint:
                for idx, c in nums.items():
                    at_base[idx] = at_base.get(idx, 0) + c * dn
            else:
                arrow_apply_into(h, inverse_arrow(group, comp.connectors[deg]), nums, at_base)
        terms = {idx: c for idx, c in at_base.items() if c}
        for level in reversed(comp.transversals):
            acc = {idx: c * dn for idx, c in terms.items()}  # the identity, first in every transversal
            for u in islice(level.values(), 1, None):
                arrow_apply_into(h, u, terms, acc)
            terms = {idx: c for idx, c in acc.items() if c}
        nums = {}
        for conn in comp.connectors.values():
            arrow_apply_into(h, conn, terms, nums)
        den *= comp.n_C * dn ** (len(comp.transversals) + 2)
        for idx, c in nums.items():
            if c:
                out[idx] = Fraction(c, den)
    return Tensor(v.n, out)


def is_braided(h: GradedModule, v: Tensor) -> bool:
    return all(braid_act(h, i, v) == v for i in range(1, v.n))


@dataclass(frozen=True)
class InvariantForm:
    """A braid-invariant tensor tagged with its supporting component."""

    component: tuple[int, ...]  # canonical representative tuple
    g_degree: int
    tensor: Tensor


def br_basis(h: GradedModule, n: int) -> list[InvariantForm]:
    """Canonical basis of the braid-invariant n-tensors: B v = v for every generator B.

    On a component based at b, an invariant is the transport sum_u conn(u) x
    of its part x on the fibre F_b of degree-b tuples, and x is fixed by
    End(b) (Brown, Topology and Groupoids): x spans the kernel of the integer
    matrix s - Delta^n, one row per strong generator s of End(b) and tuple u
    of F_b, with the entry (s e_t)[u] - Delta^n [t = u] at column t.  The
    canonical basis, one form per free column of the component's sorted
    tuples, is the RREF of the transported vectors with the columns in
    reverse order.  No step uses the averaging in braidize.
    """
    guard_size(h.group, n)
    check_size("dim^n", h.dim**n)
    if n == 0:
        return [InvariantForm((), h.group.identity, Tensor.scalar(1))]

    # lexicographic degree tuples, so components come by least member; a degree
    # with no basis vector (only an unvalidated module has one) gives no tuples
    blocks = [h.block_indices(g) for g in h.group.elements()]
    dn = h.delta**n
    out: list[InvariantForm] = []
    for comp in components(h.group, iter_product(sorted(set(h.degrees)), repeat=n)):
        rep = comp.canonical
        tuples = sorted(idx for m in comp.connectors for idx in iter_product(*(blocks[g] for g in m)))
        fibre = list(iter_product(*(blocks[g] for g in comp.basepoint)))  # lexicographic, as blocks ascend
        last = len(tuples) - 1
        at = {t: k for k, t in enumerate(fibre)}
        rows = []
        for s in comp.gens:
            block = [{k: -dn} for k in range(len(fibre))]  # row u of s - Delta^n
            for k, t in enumerate(fibre):
                image: dict[tuple[int, ...], int] = {}
                arrow_apply_into(h, s, {t: 1}, image)
                for u, c in image.items():
                    row = block[at[u]]
                    row[k] = row.get(k, 0) + c
            rows.extend(block)
        col = {t: last - k for k, t in enumerate(tuples)}
        spans = []
        for x in linalg.kernel(linalg.eliminate(rows), len(fibre)):
            den = lcm(*(c.denominator for c in x.values()))
            nums = {fibre[k]: c.numerator * (den // c.denominator) for k, c in x.items()}
            v: dict[tuple[int, ...], int] = {}
            for conn in comp.connectors.values():
                arrow_apply_into(h, conn, nums, v)
            spans.append({col[t]: c for t, c in v.items()})
        for row in reversed(linalg.eliminate(spans).values()):
            tensor = Tensor(n, {tuples[last - k]: c for k, c in row.items()})
            out.append(InvariantForm(rep, comp.g_degree, tensor))
    return out


def pair(x: Tensor, v: Tensor) -> Fraction:
    """Reversed-trace evaluation of a dual tensor against a primal tensor."""
    if x.n != v.n:
        raise DegreeMismatch("tensor degrees differ")
    total = Fraction(0)
    for idx, c in x.terms.items():
        w = v.terms.get(tuple(reversed(idx)))
        if w is not None:
            total += c * w
    return total


@dataclass(frozen=True)
class BraidedSeries:
    """Degree-truncated sum of braided tensors on one module."""

    module: GradedModule
    truncation: int
    parts: dict[int, Tensor] = field(default_factory=dict)

    def __post_init__(self):
        clean = {d: t for d, t in self.parts.items() if t and 0 <= d <= self.truncation}
        for d, t in clean.items():
            if t.n != d:
                raise DegreeMismatch(f"part at degree {d} has tensor degree {t.n}")
        object.__setattr__(self, "parts", clean)

    def part(self, d: int) -> Tensor:
        return self.parts.get(d, Tensor(d))

    def __add__(self, other: "BraidedSeries") -> "BraidedSeries":
        if self.module != other.module or self.truncation != other.truncation:
            raise ModuleMismatch("series live on different modules or truncations")
        parts = dict(self.parts)
        for d, t in other.parts.items():
            parts[d] = parts.get(d, Tensor(d)) + t
        return BraidedSeries(self.module, self.truncation, parts)

    def scale(self, c) -> "BraidedSeries":
        return BraidedSeries(self.module, self.truncation, {d: t.scale(c) for d, t in self.parts.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BraidedSeries)
            and self.module == other.module
            and self.truncation == other.truncation
            and self.parts == other.parts
        )

    def as_poly(self, names: Sequence[str]) -> MultiPoly:
        """The polynomial whose polarization is this series, one name per coordinate."""
        if len(names) != self.module.dim:
            raise DegreeMismatch("coordinate name count differs from dimension")
        return sum((poly_from_form(t, names) for t in self.parts.values()), MultiPoly.zero(names))

    def assert_braided(self) -> None:
        for t in self.parts.values():
            if not is_braided(self.module, t):
                raise DegreeMismatch("series part is not braid-invariant")


def unit_series(h: GradedModule, truncation: int) -> BraidedSeries:
    return BraidedSeries(h, truncation, {0: Tensor.scalar(1)})


def circ_product(x: BraidedSeries, y: BraidedSeries) -> BraidedSeries:
    """Degreewise juxtaposition followed by braidization, truncated.

    parts[d] = braidize(sum_m x_m y_(d-m)): one braidization per degree.
    """
    if x.module != y.module:
        raise ModuleMismatch("series live on different modules")
    if x.truncation != y.truncation:
        raise ModuleMismatch("series have different truncations")
    h = x.module
    parts: dict[int, Tensor] = {}
    for d in range(x.truncation + 1):
        acc = Tensor(d)
        for m, xm in x.parts.items():
            yn = y.parts.get(d - m)
            if yn:
                acc = acc + xm.juxt(yn)
        if acc:
            parts[d] = braidize(h, acc)
    return BraidedSeries(h, x.truncation, parts)


# -- polynomials <-> symmetric tensors (polarization) ----------------------


def form_from_poly(p: MultiPoly, names: Sequence[str], n: int) -> Tensor:
    """Polarize the degree-n homogeneous part of p over the given coordinates."""
    part = p.homogeneous_part(n)
    terms: dict[tuple[int, ...], Fraction] = {}
    for exp, c in part.sorted_terms():
        letters: list[int] = []
        weight = Fraction(c)
        for v, e in zip(part.vars, exp):
            if e:
                letters.extend([names.index(v)] * e)
                weight *= factorial(e)
        weight /= factorial(n)
        for tup in _distinct_perms(tuple(letters)):
            terms[tup] = terms.get(tup, Fraction(0)) + weight
    return Tensor(n, terms)


def _distinct_perms(letters: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each distinct ordering of a multiset once, in lexicographic order.

    Steps from the sorted tuple by next-permutation, so the cost is linear in
    the number of distinct orderings, not in n!.
    """
    a = sorted(letters)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def poly_from_form(t: Tensor, names: Sequence[str]) -> MultiPoly:
    """Diagonal evaluation: the polynomial whose polarization is the tensor."""
    out: dict[tuple[int, ...], Fraction] = {}
    for idx, c in t.terms.items():
        exp = [0] * len(names)
        for j in idx:
            exp[j] += 1
        key = tuple(exp)
        out[key] = out.get(key, Fraction(0)) + c
    return MultiPoly(names, out)


def series_from_poly(
    h: GradedModule, p: MultiPoly, names: Sequence[str], truncation: int | None = None
) -> BraidedSeries:
    cap = truncation if truncation is not None else p.total_degree()
    parts = {}
    for d in range(cap + 1):
        t = form_from_poly(p, names, d)
        if t:
            parts[d] = t
    return BraidedSeries(h, cap, parts)


# -- pullback and restrictions ---------------------------------------------


def pullback_tensor(x: Tensor, m: linalg.Mat) -> Tensor:
    """Slot-wise transport of a dual tensor along a linear map.

    If x lives on K^* and m is the matrix of phi : H -> K (rows indexed by K),
    the result is the n-fold pullback living on H^*: every slot value i
    becomes sum_j m[i][j] e_j, so each slot is acted on by m^T.
    """
    cols = [[(j, a) for j, a in enumerate(row) if a != 0] for row in m]
    out: dict[tuple[int, ...], Fraction] = {}
    slot_apply_into([cols] * x.n, range(x.n), x.terms, out)
    return Tensor(x.n, out)


def pullback_series(
    source: GradedModule,
    target: GradedModule,
    m: linalg.Mat,
    x: BraidedSeries,
) -> BraidedSeries:
    """Pull a series of forms on the target back along a morphism source -> target.

    The series x must live on dual_module(target); the result lives on
    dual_module(source).  Morphisms are validated before use.
    """
    require_morphism(source, target, m)
    if x.module != dual_module(target):
        raise ModuleMismatch("series does not live on the dual of the target module")
    parts = {d: pullback_tensor(t, m) for d, t in x.parts.items()}
    return BraidedSeries(dual_module(source), x.truncation, parts)


def restrict_untwisted(x: BraidedSeries) -> BraidedSeries:
    """Restriction to the untwisted sector; an algebra morphism onto the series of the trivial group."""
    return restrict_invariants(x, untwisted_basis(x.module))


def restrict_invariants(x: BraidedSeries, invariant_vectors: Sequence[linalg.Vec]) -> BraidedSeries:
    """Restriction of forms to tuples of the given vectors; linear, lands in the series of the trivial group.

    Each part is pulled back slot-wise along the inclusion of the vectors,
    so a tensor over indices into their list comes out.  Over the trivial
    group a braid generator is a plain slot swap, so those series are the
    symmetric ones and circ_product is the commutative product.
    """
    basis = list(invariant_vectors)
    incl = linalg.inclusion(basis, x.module.dim)
    parts = {d: pullback_tensor(t, incl) for d, t in x.parts.items()}
    return BraidedSeries(trivial_graded_module(trivial_group(), len(basis)), x.truncation, parts)
