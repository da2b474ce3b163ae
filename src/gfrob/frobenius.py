"""Metrics, potentials, WDVV verification, and G-Frobenius algebra checks.

A potential is a polynomial in the flat coordinates dual to a chosen basis.
Third partials contracted with the inverse metric define the multiplication
e_a o e_b = Y_abk g^{kl} e_l; the WDVV system is exactly the associativity
of this product, checked here as exact polynomial identities.

The cubic part of a potential and the metric together determine an algebra
by eta(v1 . v2, v3) = Y3(v1, v2, v3).  For a group of order two, a pair of
ordinary Frobenius manifolds agreeing on a common subspace assembles into a
module with three blocks (fixed / sign / twisted) carrying a braided
potential whose two restrictions recover the inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import BlockDegreeViolation, DegenerateMetric, DegreeMismatch, RestrictionMismatch
from .groups import trivial_group
from .linalg import ONE, ZERO, Mat, Vec
from .modules import (
    GradedModule,
    Tensor,
    Verdict,
    dual_module,
    invariants_basis,
    self_invariance_witness,
    trivial_graded_module,
    untwisted_basis,
    validate_module,
    z2_module,
)
from .poly import MultiPoly, exact

# -- metrics ----------------------------------------------------------------


def submatrix(m: Mat, rows: Sequence[int], cols: Sequence[int]) -> Mat:
    return tuple(tuple(m[i][j] for j in cols) for i in rows)


def check_metric(h: GradedModule, m: Mat) -> Verdict:
    """The symmetric, g_invariant, grading_preserving and blockwise_nondegenerate checks of a metric m on h.

    The witness is an entry (i, j) of m for symmetry and for grading, and an
    element g for invariance and for the nondegenerate pairing of H_g with
    H_{g^-1}; the failure line reads `blockwise_nondegenerate fails at g = 1`.
    Invariance is read as a pullback: m is g-invariant when
    linalg.pullback_metric(m, rho_g) = rho_g^T m rho_g equals m.
    """
    g = h.group
    d = h.dim

    def block_nondegenerate(gamma: int) -> bool:
        rows = h.block_indices(gamma)
        cols = h.block_indices(g.inv(gamma))
        return len(rows) == len(cols) and (not rows or linalg.rank(submatrix(m, rows, cols)) == len(rows))

    cells = [(i, j) for i in range(d) for j in range(d)]
    return Verdict({
        "symmetric": next((f"(i, j) = ({i}, {j})" for i, j in cells if m[i][j] != m[j][i]), None),
        "g_invariant": next(
            (f"g = {gamma}" for gamma in g.elements() if linalg.pullback_metric(m, h.action[gamma]) != m), None
        ),
        "grading_preserving": next(
            (f"(i, j) = ({i}, {j})" for i, j in cells
             if m[i][j] != 0 and g.mul(h.degrees[i], h.degrees[j]) != g.identity),
            None,
        ),
        "blockwise_nondegenerate": next(
            (f"g = {gamma}" for gamma in g.elements() if not block_nondegenerate(gamma)), None
        ),
    })


# -- potentials and WDVV ------------------------------------------------------


Pair = tuple[int, int]  # a sorted pair of coordinate indices


@dataclass(frozen=True)
class Potential:
    """Polynomial potential in named flat coordinates (one per basis vector).

    The second and third partials are built together on first use and kept
    on the instance, indexed by sorted coordinate-index tuples.
    """

    names: tuple[str, ...]
    poly: MultiPoly

    @cached_property
    def seconds(self) -> dict[Pair, MultiPoly]:
        """d_a d_b P for every a <= b."""
        d = len(self.names)
        firsts = [self.poly.diff(v) for v in self.names]
        return {(a, b): firsts[a].diff(self.names[b]) for a in range(d) for b in range(a, d)}

    @cached_property
    def thirds(self) -> dict[tuple[int, int, int], MultiPoly]:
        """d_a d_b d_c P for every a <= b <= c."""
        d = len(self.names)
        return {(a, b, c): y.diff(self.names[c]) for (a, b), y in self.seconds.items() for c in range(b, d)}

    def second(self, a: int, b: int) -> MultiPoly:
        return self.seconds[(a, b) if a <= b else (b, a)]

    def third(self, a: int, b: int, c: int) -> MultiPoly:
        return self.thirds[tuple(sorted((a, b, c)))]


@dataclass(frozen=True)
class WdvvReport:
    witnesses: tuple[tuple[int, int, int, int], ...]  # every violating tuple, sorted

    @property
    def passed(self) -> bool:
        return not self.witnesses


def _inverse_metric(eta: Mat) -> Mat:
    """eta^-1; DegenerateMetric where eta is singular."""
    try:
        return linalg.mat_inv(eta)
    except ValueError:
        raise DegenerateMetric("metric is singular") from None


def _rows(pot: Potential, ginv: Mat) -> dict[Pair, list[tuple[int, MultiPoly]]]:
    """rows[(a, b)] for a <= b: the (l, c_ab^l = sum_k Y_abk g^{kl}) over the nonzero Y_abk and g^{kl},
    for each l with such a pair."""
    d = len(pot.names)
    cols = linalg.columns(ginv)
    rows = {}
    for a, b in itertools.combinations_with_replacement(range(d), 2):
        ys = {k: y for k in range(d) if (y := pot.third(a, b, k))}
        sums = ((l, [(ys[k], x) for k, x in col if k in ys]) for l, col in enumerate(cols))
        rows[(a, b)] = [(l, MultiPoly.sum_of_products(terms, pot.names)) for l, terms in sums if terms]
    return rows


def wdvv_check(pot: Potential, eta: Mat) -> WdvvReport:
    """Exact associativity of the potential's product: reports violating tuples.

    With rows[P][l] = sum_k Y_Pk g^{kl} for a sorted index pair P, the pair
    product M(P, Q) = sum_l rows[P][l] Y_lQ is the coefficient that WDVV makes
    symmetric in its two pairs (Dubrovin 1996, Lecture 1).  A tuple
    (a, b, c, d) with a <= c is a witness when M((a,b), (c,d)) differs from
    M((b,c), (a,d)).  Both sides split the 4-multiset {a, b, c, d} into two
    pairs.  So the loop walks the multisets and computes M once on each of
    their three pairings, in both orders unless g^{-1} is symmetric (then
    M(P, Q) = M(Q, P) exactly); only where these values differ does it walk
    the 24 permutations, on the values already computed.
    """
    d = len(pot.names)
    ginv = _inverse_metric(eta)
    y3 = pot.third
    rows = _rows(pot, ginv)
    symmetric = all(ginv[k][l] == ginv[l][k] for k in range(d) for l in range(k))
    zero = MultiPoly.zero(pot.names)

    def pair(a: int, b: int) -> Pair:
        return (a, b) if a <= b else (b, a)

    def product(table: dict[tuple[Pair, Pair], MultiPoly], p: Pair, q: Pair) -> MultiPoly:
        key = (q, p) if symmetric and q < p else (p, q)
        m = table.get(key)
        if m is None:
            c, e = key[1]
            terms = [(x, y) for l, x in rows[key[0]] if x and (y := y3(l, c, e))]
            m = table[key] = MultiPoly.sum_of_products(terms, pot.names) if terms else zero
        return m

    witnesses = []
    for quad in itertools.combinations_with_replacement(range(d), 4):
        table: dict[tuple[Pair, Pair], MultiPoly] = {}  # this multiset's pair products
        w, x, y, z = quad
        sides = [((w, x), (y, z)), ((w, y), (x, z)), ((w, z), (x, y))]
        values = [product(table, p, q) for p, q in sides + ([] if symmetric else [(q, p) for p, q in sides])]
        if values.count(values[0]) < len(values):
            for a, b, c, e in set(itertools.permutations(quad)):
                if a <= c and product(table, pair(a, b), pair(c, e)) != product(table, pair(b, c), pair(a, e)):
                    witnesses.append((a, b, c, e))
    return WdvvReport(tuple(sorted(witnesses)))


def mult_from_potential(pot: Potential, eta: Mat, point: Mapping[str, Fraction] | None = None):
    """Structure constants c[a][b][l] = sum_k Y_abk g^{kl} at a point (default origin).

    Each nonzero third partial is evaluated once at the point, and its
    scalar, on every ordering of its indices, goes to the contraction that
    gfa_from_cubic shares; c is symmetric in a and b, and an entry with no
    nonzero term is ZERO.
    """
    pt = {n: Fraction(0) for n in pot.names}
    if point:
        pt.update({k: Fraction(v) for k, v in point.items()})
    values = ((abc, y.eval(pt)) for abc, y in pot.thirds.items() if y)
    terms = ((abk, v) for abc, v in values if v for abk in set(itertools.permutations(abc)))
    return _contract(terms, _inverse_metric(eta), len(pot.names))


def _contract(terms: Iterable[tuple], ginv: Mat, d: int) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """The dense mult[a][b][l] = sum_k Y_abk g^{kl} over the ((a, b, k), Y) terms and the sparse rows g^{k.} of
    ginv; an entry with no nonzero term is ZERO."""
    rows = linalg.columns(linalg.transpose(ginv))
    sums = linalg.accumulate(((a, b, l), y * x) for (a, b, k), y in terms for l, x in rows[k])
    return tuple(tuple(tuple(sums.get((a, b, l), ZERO) for l in range(d)) for b in range(d)) for a in range(d))


# -- G-Frobenius algebras ------------------------------------------------------


@dataclass(frozen=True)
class GFrobeniusAlgebra:
    """The product e_a e_b = sum_k mult[a][b][k] e_k on a graded module, with a metric and a unit.

    The nonzero structure constants are gathered on first use and kept on
    the instance.  times, the one multiplication, runs over them alone on
    sparse vectors {index: nonzero entry}; product is its dense form.
    """

    module: GradedModule
    metric: Mat
    mult: tuple[tuple[tuple[Fraction, ...], ...], ...]  # mult[a][b][k]
    unit: Vec

    @property
    def dim(self) -> int:
        return self.module.dim

    @cached_property
    def nonzero(self) -> list[list[list[tuple[int, int | Fraction | MultiPoly]]]]:
        """nonzero[a][b] = the (k, mult[a][b][k]) pairs with a nonzero constant: a scalar as an int where it is
        integral, a MultiPoly (a product along a locus, say) as it is, so check_gfa proves polynomial identities."""
        return [
            [[(k, x if isinstance(x, MultiPoly) else exact(x)) for k, x in enumerate(ab) if x] for ab in row]
            for row in self.mult
        ]

    def times(self, v: Mapping[int, Fraction], w: Mapping[int, Fraction]) -> dict[int, Fraction]:
        nz = self.nonzero
        return linalg.accumulate((k, x * y * z) for a, x in v.items() for b, y in w.items() for k, z in nz[a][b])

    def product(self, v: Vec, w: Vec) -> Vec:
        out = self.times(linalg.accumulate(enumerate(v)), linalg.accumulate(enumerate(w)))
        return tuple(Fraction(out.get(k, 0)) for k in range(self.dim))


def _least_difference(left: Mapping, right: Mapping) -> str | None:
    """(a, b, c) of the least key (a, b, c, ...) at which two sparse sums differ, one-sided keys included."""
    keys = () if left == right else [k for k in left.keys() | right.keys() if left.get(k) != right.get(k)]
    return "(a, b, c) = ({}, {}, {})".format(*min(keys)[:3]) if keys else None


def check_gfa(alg: GFrobeniusAlgebra) -> Verdict:
    """Every axiom of a G-Frobenius algebra, each with its first witness, in report order.

    The ten checks are module_valid, self_invariant, equivariance,
    graded_mult, braided_commutativity, metric_invariance, invariant_unit,
    associative, unital and metric.  The witness of module_valid and of
    metric is the failing verdict of validate_module or check_metric, so the
    failure line reads `metric fails: blockwise_nondegenerate fails at g = 1`.
    The others name the first indices at which the product breaks an axiom:
    an element g and a pair (a, b) for equivariance, (a, b, k) for a
    structure constant of the wrong degree, (a, b) for braided
    commutativity, (a, b, c) for metric invariance and associativity, g or a
    unit entry j for the invariant unit, and b for the unit law.

    validate_module runs first, so a malformed module raises before the
    action is read.  Every axiom runs over the nonzero constants alone, in
    O(nnz * d) for nnz of them.  Equivariance rho_g(e_a) rho_g(e_b) =
    rho_g(e_a e_b), braided commutativity, the invariant unit and the unit
    law 1 e_b = e_b compare sparse vectors through alg.times, with rho_g(e_a)
    the sparse columns of the action.  Metric invariance compares
    eta(e_a e_b, e_c) with eta(e_a, e_b e_c) and associativity
    (e_a e_b) e_c with e_a (e_b e_c), each side built once, at the least
    (a, b, c) where they differ, an entry on one side only included.
    Braided commutativity is e_a e_b = rho_{deg(a)}(e_b) e_a, the axiom of
    Kaufmann (2003) and Jarvis-Kaufmann-Kimura (2005) and the braiding that
    braided.is_braided tests: where the metric passes check_metric and
    metric_invariance holds, the row passes exactly when the cubic form
    eta(e_a e_b, e_c) is braided on the dual module.
    """
    h = alg.module
    g, d, deg, eta, nz = h.group, h.dim, h.degrees, alg.metric, alg.nonzero
    consts = [(a, b, k, y) for a, row in enumerate(nz) for b, ab in enumerate(row) for k, y in ab]
    unit = linalg.accumulate(enumerate(alg.unit))
    return Verdict({
        "module_valid": validate_module(h).witness,
        "self_invariant": self_invariance_witness(h),
        "equivariance": next(
            (f"g = {gamma}, (a, b) = ({a}, {b})" for gamma, cols in enumerate(h.columns) for a in range(d)
             for b in range(d) if alg.times(dict(cols[a]), dict(cols[b])) != linalg.apply(cols, nz[a][b])),
            None,
        ),
        "graded_mult": next(
            (f"(a, b, k) = ({a}, {b}, {k})" for a, b, k, _ in consts if deg[k] != g.mul(deg[a], deg[b])), None
        ),
        "braided_commutativity": next(
            (f"(a, b) = ({a}, {b})" for a in range(d) for b in range(d)
             if dict(nz[a][b]) != alg.times(dict(h.columns[deg[a]][b]), {a: ONE})),
            None,
        ),
        "metric_invariance": _least_difference(  # eta(e_a e_b, e_c) and eta(e_a, e_b e_c)
            linalg.accumulate(((a, b, x), y * eta[k][x]) for a, b, k, y in consts for x in range(d) if eta[k][x]),
            linalg.accumulate(((x, a, b), eta[x][k] * y) for a, b, k, y in consts for x in range(d) if eta[x][k]),
        ),
        "invariant_unit": next(
            (f"g = {gamma}" for gamma, cols in enumerate(h.columns) if linalg.apply(cols, unit.items()) != unit),
            next((f"j = {j}" for j in unit if deg[j] != g.identity), None),
        ),
        "associative": _least_difference(  # (e_a e_b) e_c and e_a (e_b e_c), keyed (a, b, c, l)
            linalg.accumulate(((a, b, x, l), y * z) for a, b, k, y in consts for x in range(d) for l, z in nz[k][x]),
            linalg.accumulate(((x, a, b, l), y * z) for a, b, k, y in consts for x in range(d) for l, z in nz[x][k]),
        ),
        "unital": next((f"b = {b}" for b in range(d) if alg.times(unit, {b: ONE}) != {b: ONE}), None),
        "metric": check_metric(h, eta).witness,
    })


def gfa_from_cubic(h: GradedModule, eta: Mat, y3: Tensor, unit: Vec) -> GFrobeniusAlgebra:
    """The algebra with eta(v_a . v_b, v_k) = Y3(v_k, v_b, v_a), the metric eta and the given unit.

    That is mult[a][b][l] = sum_k Y3(v_k, v_b, v_a) g^{kl}, over the rows
    g^{k.} of eta^-1 for any invertible eta, symmetric or not: the
    contraction that mult_from_potential shares, fed the cubic's nonzero
    terms.  Only the tensor degree 3 is required (DegreeMismatch otherwise),
    and a singular eta raises DegenerateMetric.  The axioms are check_gfa's:
    a cubic that is not braid-invariant, has a term off G-degree e or does
    not fit the unit gives an algebra whose check names the witness.
    """
    if y3.n != 3:
        raise DegreeMismatch("cubic form must have tensor degree 3")
    mult = _contract((((a, b, k), y) for (k, b, a), y in y3.terms.items()), _inverse_metric(eta), h.dim)
    return GFrobeniusAlgebra(h, eta, mult, tuple(Fraction(x) for x in unit))


def subalgebras(alg: GFrobeniusAlgebra) -> tuple[GFrobeniusAlgebra, GFrobeniusAlgebra]:
    """Ordinary Frobenius algebras on the untwisted sector and on the invariants."""
    h = alg.module
    return _restrict(alg, untwisted_basis(h)), _restrict(alg, invariants_basis(h))


def _restrict(alg: GFrobeniusAlgebra, basis: Sequence[Vec]) -> GFrobeniusAlgebra:
    """The algebra on the span of the basis over the trivial group; ValueError if a product or the unit leaves it."""
    r = len(basis)
    incl = linalg.inclusion(basis, alg.dim)
    *flat, unit = linalg.solve_columns(incl, [alg.product(v, w) for v in basis for w in basis] + [alg.unit])
    mult = tuple(tuple(flat[p * r:(p + 1) * r]) for p in range(r))
    metric = linalg.pullback_metric(alg.metric, incl)
    return GFrobeniusAlgebra(trivial_graded_module(trivial_group(), r), metric, mult, unit)


# -- pre-G-Frobenius-manifold checking ----------------------------------------


def g_degree_witness(h: GradedModule, pot: Potential, g_target: int) -> tuple[tuple[int, int], ...] | None:
    """First monomial not of G-degree g_target, as sorted (coordinate index, exponent) pairs, else None.

    The polarization of a monomial holds every ordering of its letters, and
    swapping two adjacent degrees that do not commute changes the product.
    So a monomial passes exactly when the degrees of its coordinates commute
    pairwise and multiply to the target, whatever the coordinates are called.
    """
    g = h.group
    for exp, _ in pot.poly.sorted_terms():
        mono = sorted((pot.names.index(v), e) for v, e in zip(pot.poly.vars, exp) if e)
        degrees = [h.degrees[j] for j, _ in mono]
        total = g.product([x for x, (_, e) in zip(degrees, mono) for _ in range(e % g.order)])  # x^|G| = 1
        if total != g_target or any(g.mul(a, b) != g.mul(b, a) for a, b in itertools.combinations(degrees, 2)):
            return tuple(mono)
    return None


def braid_witness(h: GradedModule, pot: Potential) -> tuple[int, int] | None:
    """First coordinate pair (x, y) at which the potential is not braided, else None.

    For the polarization T on dual_module(h), with rho the action of h,
    b_1 T = T reads T(y, x, ...) = sum_b rho(deg y)[b][x] T(y, b, ...), that is
    d_y d_x P = sum_b rho(deg y)[b][x] d_y d_b P in every degree at once: the
    dual acts by rho(g^-1)^T, and y has degree deg(y)^-1 there.  The sum runs
    over column x of rho(deg y), read from h.columns.  Slot permutations fix
    T and conjugate b_1 into every b_i, so this is exact.
    """
    d = len(pot.names)
    for x in range(d):
        for y in range(d):
            moved = MultiPoly.sum_of_products((pot.second(y, b), w) for b, w in h.columns[h.degrees[y]][x])
            if pot.second(y, x) != moved:
                return x, y
    return None


def _sector_wdvv(sector: str, pot: Potential, eta: Mat, basis: Sequence[Vec]) -> list[list[int]] | str | None:
    """The first ten tuples that break WDVV on the span of the basis, the line naming the sector where its
    metric is singular, or None.

    The potential is restricted along the basis onto fresh coordinates
    s0, s1, ..., and the metric with linalg.pullback_metric, as subalgebras
    restricts an algebra; a witness is a tuple of positions in the basis.
    """
    incl = linalg.inclusion(basis, len(pot.names))
    s_names = tuple(f"s{b}" for b in range(len(basis)))
    units = [tuple(int(b == c) for c in range(len(basis))) for b in range(len(basis))]
    y = pot.poly.substitute({name: MultiPoly(s_names, dict(zip(units, row))) for name, row in zip(pot.names, incl)})
    try:
        report = wdvv_check(Potential(s_names, y), linalg.pullback_metric(eta, incl))
    except DegenerateMetric:
        return f"metric is singular on the {sector} sector"
    return [list(w) for w in report.witnesses[:10]] or None


def check_pre_gfm(h: GradedModule, eta: Mat, pot: Potential) -> Verdict:
    """Module, metric, braiding and G-degree e of the potential, then WDVV on its two sector restrictions.

    The seven checks are module_valid, self_invariant, metric, braided,
    degree_filter, wdvv_untwisted and wdvv_invariants.  module_valid and
    metric carry the failing verdict of validate_module or check_metric;
    braided the coordinate pair [x, y] of braid_witness; degree_filter the
    monomial of g_degree_witness as [coordinate index, exponent] pairs; and
    each WDVV check its first ten violating tuples, or the line
    `metric is singular on the invariant sector` (or `untwisted`).  Both are
    _sector_wdvv along untwisted_basis and invariants_basis.

    No constructor runs it: a caller that wants the verdict on an assembly calls it.
    """
    checks = {
        "module_valid": validate_module(h).witness,
        "self_invariant": self_invariance_witness(h),
        "metric": check_metric(h, eta).witness,
    }
    braided = braid_witness(h, pot)
    checks["braided"] = braided and list(braided)
    degree = g_degree_witness(dual_module(h), pot, h.group.identity)
    checks["degree_filter"] = degree and [list(p) for p in degree]
    checks["wdvv_untwisted"] = _sector_wdvv("untwisted", pot, eta, untwisted_basis(h))
    checks["wdvv_invariants"] = _sector_wdvv("invariant", pot, eta, invariants_basis(h))
    return Verdict(checks)


# -- assembling an order-two pre-Frobenius manifold from two ordinary ones -----


@dataclass(frozen=True)
class FmData:
    """One formal Frobenius manifold: flat metric and potential in named flat coordinates."""

    metric: Mat
    potential: Potential


@dataclass(frozen=True)
class Z2Assembly:
    """An order-two pre-Frobenius manifold: module, block metric, potential, and the names of its three blocks."""

    module: GradedModule
    metric: Mat
    potential: Potential
    fixed_names: tuple[str, ...]
    sign_names: tuple[str, ...]
    twisted_names: tuple[str, ...]

    @property
    def twisted_cubic(self) -> MultiPoly:
        """The terms of the cubic part of the potential that have a factor in twisted_names."""
        cubic = self.potential.poly.homogeneous_part(3)
        return cubic - cubic.subst_zero(self.twisted_names)


def decompose_z2_potential(asm: Z2Assembly) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Split an assembly's potential into (fixed-only, has-sign-factor, has-twisted-factor) parts."""
    poly, v_names, g_names = asm.potential.poly, asm.sign_names, asm.twisted_names
    y_no_v = poly.subst_zero(v_names)
    y_no_g = poly.subst_zero(g_names)
    y_i = y_no_v.subst_zero(g_names)
    y_v = poly - y_no_v
    y_g = poly - y_no_g
    if poly != y_i + y_v + y_g:
        raise BlockDegreeViolation("potential has a term mixing sign and twisted factors")
    return y_i, y_v, y_g


def assemble_z2(fe: FmData, fg: FmData, iota_e: Sequence[int], iota_g: Sequence[int]) -> Z2Assembly:
    """Glue two Frobenius manifolds along a shared flat subspace, as one Z2Assembly asm.

    The embeddings are coordinate embeddings given by index lists; matched
    coordinates must carry the same name in both inputs.  The shared
    coordinates make the fixed block, the other coordinates of fe the sign
    block and those of fg the twisted block, each in index order.  asm has
    an order-two module with involution +1 / -1 / +1 on the three blocks,
    the block metric, and the summed potential in the names
    fixed + sign + twisted.  Only the gluing conditions are checked here:
    matching names, disjoint complements, agreeing restrictions and
    homogeneous metric blocks.  check_pre_gfm(asm.module, asm.metric,
    asm.potential) verifies the result; a term of odd twisted degree is its
    failed degree_filter row, with the monomial as witness.
    """
    if len(iota_e) != len(iota_g):
        raise RestrictionMismatch("embeddings have different ranks")
    pe, pg = fe.potential, fg.potential
    for j, (i, k) in enumerate(zip(iota_e, iota_g)):
        if pe.names[i] != pg.names[k]:
            raise RestrictionMismatch(f"shared coordinate {j} is named {pe.names[i]!r} vs {pg.names[k]!r}")
    shared = [pe.names[i] for i in iota_e]
    v_idx = sorted(set(range(len(pe.names))) - set(iota_e))
    g_idx = sorted(set(range(len(pg.names))) - set(iota_g))
    v_names = [pe.names[j] for j in v_idx]
    g_names = [pg.names[j] for j in g_idx]
    if set(v_names) & set(g_names) or set(shared) & (set(v_names) | set(g_names)):
        raise RestrictionMismatch("coordinate names of the complements must be disjoint")

    eta_i_e = submatrix(fe.metric, iota_e, iota_e)
    eta_i_g = submatrix(fg.metric, iota_g, iota_g)
    if eta_i_e != eta_i_g:
        raise RestrictionMismatch("restricted metrics disagree on the shared subspace")
    if any(fe.metric[i][j] != 0 for i in iota_e for j in v_idx) or any(
        fg.metric[i][j] != 0 for i in iota_g for j in g_idx
    ):
        raise BlockDegreeViolation("metric blocks must be homogeneous: cross pairings found")

    y_g_restricted = pg.poly.subst_zero(g_names)
    if pe.poly.subst_zero(v_names) != y_g_restricted:
        raise RestrictionMismatch("restricted potentials disagree on the shared subspace")

    names = tuple(shared + v_names + g_names)
    # (block, source metric, source index) of each coordinate; the blocks pair only with themselves
    coords = (
        [(0, fe.metric, i) for i in iota_e] + [(1, fe.metric, j) for j in v_idx] + [(2, fg.metric, j) for j in g_idx]
    )
    eta_m = tuple(tuple(m[i][j] if b == c else ZERO for c, _, j in coords) for b, m, i in coords)

    y_total = pe.poly + (pg.poly - y_g_restricted)
    return Z2Assembly(
        module=z2_module(len(shared), len(v_names), len(g_names)),
        metric=eta_m,
        potential=Potential(names, y_total.with_vars(sorted(set(y_total.vars) | set(names)))),
        fixed_names=tuple(shared),
        sign_names=tuple(v_names),
        twisted_names=tuple(g_names),
    )
