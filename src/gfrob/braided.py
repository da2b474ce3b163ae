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
from itertools import chain, islice, product as iter_product
from math import factorial, lcm, prod
from typing import Iterator, Sequence

from . import linalg
from .errors import DegreeMismatch, ModuleMismatch
from .groupoid import check_size, components, guard_size, inverse_arrow
from .groups import trivial_group
from .modules import (
    GradedModule,
    Tensor,
    arrow_apply_into,
    braid_act,
    dual_module,
    require_morphism,
    slot_apply_into,
    trivial_graded_module,
    untwisted_basis,
)
from .poly import MultiPoly


def braidize(h: GradedModule, v: Tensor) -> Tensor:
    """Average of all arrow actions with source the degree tuple of each part, on the tensor's coefficients
    cleared by linalg.cleared to integer numerators over one denominator."""
    nums, den = linalg.cleared(v.terms)
    return _braidize_numerators(h, v.n, nums, den)


def _braidize_numerators(h: GradedModule, n: int, nums: dict[tuple[int, ...], int], den: int) -> Tensor:
    """braidize of the n-tensor nums / den, for integer numerators nums over one denominator den.

    All members of an orbit share one component based at b.  The arrows out
    of a member s are conn(u) o e o conn(s)^-1 for members u and e in End(b),
    and End(b) = U_1 o ... o U_k factors through its stabilizer chain, so
    sum(A) . v = sum_u conn(u) . (sum U_1) ... (sum U_k) . conn(s)^-1 . v,
    the deepest level applied first.  The orbits come from the one census,
    components, and the parts of one component are moved to b and summed
    there, so each component costs one application per part plus
    |C| + sum |U_i|, instead of |C| * m_C per part.

    The sums never divide: an integral action keeps the numerators ints, a
    non-integral one turns them into Fractions, and each output term is
    divided once by den * n_C.
    """
    if n <= 1:
        return Tensor(n, {idx: Fraction(c, den) for idx, c in nums.items()})
    group = h.group
    by_degree: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for idx, c in nums.items():
        if c:
            by_degree.setdefault(h.degree_tuple(idx), {})[idx] = c
    out: dict[tuple[int, ...], Fraction] = {}
    for comp in components(group, by_degree):
        at_base: dict[tuple[int, ...], int | Fraction] = {}
        for deg in by_degree.keys() & comp.connectors.keys():
            part = by_degree[deg]
            if deg == comp.basepoint:
                for idx, c in part.items():
                    at_base[idx] = at_base.get(idx, 0) + c
            else:
                arrow_apply_into(h, inverse_arrow(group, comp.connectors[deg]), part, at_base)
        terms = {idx: c for idx, c in at_base.items() if c}
        for level in reversed(comp.transversals):
            acc = dict(terms)  # the identity, first in every transversal
            for u in islice(level.values(), 1, None):
                arrow_apply_into(h, u, terms, acc)
            terms = {idx: c for idx, c in acc.items() if c}
        moved: dict[tuple[int, ...], int | Fraction] = {}
        for conn in comp.connectors.values():
            arrow_apply_into(h, conn, terms, moved)
        total = den * comp.n_C
        for idx, c in moved.items():
            if c:
                out[idx] = Fraction(c, total)
    return Tensor(n, out)


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
    End(b) (Brown, Topology and Groupoids): x spans the kernel of the matrix
    s - 1, one row per strong generator s of End(b) and tuple u of F_b, with
    the entry (s e_t)[u] - [t = u] at column t.  The
    canonical basis, one form per free column of the component's sorted
    tuples, is the RREF of the transported vectors with the columns in
    reverse order.  No step uses the averaging in braidize.
    """
    guard_size(h.group, n)
    check_size("dim^n", h.dim**n)
    # lexicographic degree tuples, so components come by least member; a degree
    # with no basis vector (only an unvalidated module has one) gives no tuples
    blocks = [h.block_indices(g) for g in h.group.elements()]
    out: list[InvariantForm] = []
    for comp in components(h.group, iter_product(sorted(set(h.degrees)), repeat=n)):
        rep = comp.canonical
        tuples = sorted(idx for m in comp.connectors for idx in iter_product(*(blocks[g] for g in m)))
        fibre = list(iter_product(*(blocks[g] for g in comp.basepoint)))  # lexicographic, as blocks ascend
        last = len(tuples) - 1
        at = {t: k for k, t in enumerate(fibre)}
        rows = []
        for s in comp.gens:
            block = [{k: -1} for k in range(len(fibre))]  # row u of s - 1
            for k, t in enumerate(fibre):
                image: dict[tuple[int, ...], int | Fraction] = {}
                arrow_apply_into(h, s, {t: 1}, image)
                for u, c in image.items():
                    row = block[at[u]]
                    row[k] = row.get(k, 0) + c
            rows.extend(block)
        col = {t: last - k for k, t in enumerate(tuples)}
        spans = []
        for x in linalg.kernel(linalg.eliminate(rows), len(fibre)):
            nums = {fibre[k]: c for k, c in linalg.cleared(x)[0].items()}
            v: dict[tuple[int, ...], int | Fraction] = {}
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
        parts = linalg.accumulate(chain(self.parts.items(), other.parts.items()))
        return BraidedSeries(self.module, self.truncation, parts)

    def scale(self, c) -> "BraidedSeries":
        return BraidedSeries(self.module, self.truncation, {d: t.scale(c) for d, t in self.parts.items()})

    def as_poly(self, names: Sequence[str]) -> MultiPoly:
        """The polynomial whose polarization is this series, one name per coordinate."""
        if len(names) != self.module.dim:
            raise DegreeMismatch("coordinate name count differs from dimension")
        return MultiPoly.sum_of_products(((poly_from_form(t, names), 1) for t in self.parts.values()), names)


def unit_series(h: GradedModule, truncation: int) -> BraidedSeries:
    return BraidedSeries(h, truncation, {0: Tensor.scalar(1)})


def circ_product(x: BraidedSeries, y: BraidedSeries) -> BraidedSeries:
    """Degreewise juxtaposition followed by braidization, truncated.

    parts[d] = braidize(sum_m x_m y_(d-m)): one braidization per degree.
    Each part of x and y is cleared to integers once; the juxtapositions of
    one degree accumulate into one integer dict over the lcm of their pairs'
    denominators, which goes to braidize's integer core as it is.
    """
    if x.module != y.module:
        raise ModuleMismatch("series live on different modules")
    if x.truncation != y.truncation:
        raise ModuleMismatch("series have different truncations")
    h = x.module
    xs = [(m, *linalg.cleared(t.terms)) for m, t in x.parts.items()]
    ys = {m: linalg.cleared(t.terms) for m, t in y.parts.items()}
    parts: dict[int, Tensor] = {}
    for d in range(x.truncation + 1):
        pairs = [(xn, xd, *ys[d - m]) for m, xn, xd in xs if d - m in ys]
        den = lcm(*(xd * yd for _, xd, _, yd in pairs))
        acc: dict[tuple[int, ...], int] = {}
        for xn, xd, yn, yd in pairs:
            scale = den // (xd * yd)
            for i1, c1 in xn.items():
                c1 *= scale
                for i2, c2 in yn.items():
                    idx = i1 + i2
                    acc[idx] = acc.get(idx, 0) + c1 * c2
        if acc:
            parts[d] = _braidize_numerators(h, d, acc, den)
    return BraidedSeries(h, x.truncation, parts)


# -- polynomials <-> symmetric tensors (polarization) ----------------------


def form_from_poly(p: MultiPoly, names: Sequence[str], n: int) -> Tensor:
    """Polarize the degree-n homogeneous part of p over the given coordinates."""
    part = p.homogeneous_part(n)
    terms = []
    for exp, c in part.sorted_terms():
        letters = tuple(names.index(v) for v, e in zip(part.vars, exp) for _ in range(e))
        weight = Fraction(c) * prod(map(factorial, exp))
        weight /= factorial(n)
        terms += [(tup, weight) for tup in _distinct_perms(letters)]
    return Tensor(n, linalg.accumulate(terms))


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

    def exponent(idx: tuple[int, ...]) -> tuple[int, ...]:
        exp = [0] * len(names)
        for j in idx:
            exp[j] += 1
        return tuple(exp)

    return MultiPoly(names, linalg.accumulate((exponent(idx), c) for idx, c in t.terms.items()))


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
