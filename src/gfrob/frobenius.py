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
from typing import Mapping, Sequence

from . import linalg
from .braided import is_braided
from .errors import (
    BlockDegreeViolation,
    DegenerateMetric,
    DegreeMismatch,
    RestrictionMismatch,
    UnitFails,
)
from .groups import trivial_group
from .linalg import ZERO, Mat, Vec
from .modules import (
    GradedModule,
    ModuleReport,
    Tensor,
    dual_module,
    invariants_basis,
    trivial_graded_module,
    untwisted_basis,
    validate_module,
    z2_module,
)
from .poly import MultiPoly

# -- metrics ----------------------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    symmetric: bool
    g_invariant: bool
    grading_preserving: bool
    blockwise_nondegenerate: bool
    failure: str | None = None  # the first failing check of the four above, with its witness

    @property
    def passed(self) -> bool:
        return (
            self.symmetric
            and self.g_invariant
            and self.grading_preserving
            and self.blockwise_nondegenerate
        )


def submatrix(m: Mat, rows: Sequence[int], cols: Sequence[int]) -> Mat:
    return tuple(tuple(m[i][j] for j in cols) for i in rows)


def check_metric(h: GradedModule, m: Mat) -> MetricReport:
    """The four checks of a metric m on h, with the first failing one and its witness in failure."""
    g = h.group
    d = h.dim

    def block_nondegenerate(gamma: int) -> bool:
        rows = h.block_indices(gamma)
        cols = h.block_indices(g.inv(gamma))
        return len(rows) == len(cols) and (not rows or linalg.rank(submatrix(m, rows, cols)) == len(rows))

    cells = [(i, j) for i in range(d) for j in range(d)]
    witnesses = {
        "symmetric": next((f"(i, j) = ({i}, {j})" for i, j in cells if m[i][j] != m[j][i]), None),
        "g_invariant": next(
            (f"g = {gamma}" for gamma in g.elements()
             if linalg.mat_mul(linalg.transpose(h.action[gamma]), linalg.mat_mul(m, h.action[gamma])) != m),
            None,
        ),
        "grading_preserving": next(
            (f"(i, j) = ({i}, {j})" for i, j in cells
             if m[i][j] != 0 and g.mul(h.degrees[i], h.degrees[j]) != g.identity),
            None,
        ),
        "blockwise_nondegenerate": next(
            (f"g = {gamma}" for gamma in g.elements() if not block_nondegenerate(gamma)), None
        ),
    }
    failure = next((f"{name} fails at {w}" for name, w in witnesses.items() if w is not None), None)
    ok = {name: w is None for name, w in witnesses.items()}
    return MetricReport(**ok, failure=failure)


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
    passed: bool
    witnesses: tuple[tuple[int, int, int, int], ...]
    failure: str | None = None  # why the check failed where no tuple can witness it


def _inverse_metric(eta: Mat) -> Mat:
    """eta^-1; DegenerateMetric where eta is singular."""
    try:
        return linalg.mat_inv(eta)
    except ValueError:
        raise DegenerateMetric("metric is singular") from None


def wdvv_check(pot: Potential, eta: Mat) -> WdvvReport:
    """Exact associativity of the potential's product: reports violating tuples.

    With rows[P][l] = sum_k Y_Pk g^{kl} for a sorted index pair P, the pair
    product M(P, Q) = sum_l rows[P][l] Y_lQ is the coefficient that WDVV makes
    symmetric in its two pairs (Dubrovin 1996, Lecture 1).  A tuple
    (a, b, c, d) with a <= c is a witness when M((a,b), (c,d)) differs from
    M((b,c), (a,d)).  Both sides pair up the 4-multiset {a, b, c, d}, so the
    loop walks the multisets and keeps each one's pair products in a table
    that is dropped with it: every M is computed once in the whole run.  When
    g^{-1} is symmetric, M(P, Q) = M(Q, P) exactly and the table is keyed by
    the unordered {P, Q}; otherwise by the ordered (P, Q).
    """
    d = len(pot.names)
    ginv = _inverse_metric(eta)
    y3 = pot.third

    # rows[a][b][l] = sum_k Y_abk g^{kl}, over the nonzero g^{kl} of each column l
    cols = [[(k, x) for k, x in enumerate(col) if x] for col in linalg.transpose(ginv)]
    rows = {
        (a, b): [MultiPoly.sum_of_products(((y3(a, b, k), x) for k, x in col), pot.names) for col in cols]
        for a in range(d) for b in range(a, d)
    }

    symmetric = all(ginv[k][l] == ginv[l][k] for k in range(d) for l in range(k))

    def pair(a: int, b: int) -> Pair:
        return (a, b) if a <= b else (b, a)

    def product(table: dict[tuple[Pair, Pair], MultiPoly], p: Pair, q: Pair) -> MultiPoly:
        key = (q, p) if symmetric and q < p else (p, q)
        m = table.get(key)
        if m is None:
            c, e = key[1]
            terms = ((x, y) for l, x in enumerate(rows[key[0]]) if x and (y := y3(l, c, e)))
            m = table[key] = MultiPoly.sum_of_products(terms, pot.names)
        return m

    witnesses = []
    for quad in itertools.combinations_with_replacement(range(d), 4):
        table: dict[tuple[Pair, Pair], MultiPoly] = {}  # this multiset's pair products
        for a, b, c, e in set(itertools.permutations(quad)):
            if a <= c and product(table, pair(a, b), pair(c, e)) != product(table, pair(b, c), pair(a, e)):
                witnesses.append((a, b, c, e))
    return WdvvReport(not witnesses, tuple(sorted(witnesses)))


def mult_from_potential(pot: Potential, eta: Mat, point: Mapping[str, Fraction] | None = None):
    """Structure constants c[a][b][l] of the product at a point (default origin)."""
    d = len(pot.names)
    ginv = _inverse_metric(eta)
    pt = {n: Fraction(0) for n in pot.names}
    if point:
        pt.update({k: Fraction(v) for k, v in point.items()})
    out = []
    for a in range(d):
        row = []
        for b in range(d):
            entry = [sum(pot.third(a, b, k).eval(pt) * ginv[k][l] for k in range(d)) for l in range(d)]
            row.append(tuple(entry))
        out.append(tuple(row))
    return tuple(out)


# -- G-Frobenius algebras ------------------------------------------------------


@dataclass(frozen=True)
class GFrobeniusAlgebra:
    """The product e_a e_b = sum_k mult[a][b][k] e_k on a graded module, with a metric and a unit.

    The nonzero structure constants are gathered on first use and kept on
    the instance; product, the one multiplication, runs over them alone.
    """

    module: GradedModule
    metric: Mat
    mult: tuple[tuple[tuple[Fraction, ...], ...], ...]  # mult[a][b][k]
    unit: Vec

    @property
    def dim(self) -> int:
        return self.module.dim

    @cached_property
    def _nonzero(self) -> list[list[list[tuple[int, Fraction]]]]:
        """_nonzero[a][b] = the (k, mult[a][b][k]) pairs with a nonzero constant."""
        return [[[(k, x) for k, x in enumerate(ab) if x] for ab in row] for row in self.mult]

    def product(self, v: Vec, w: Vec) -> Vec:
        out = [ZERO] * self.dim
        ws = [(b, y) for b, y in enumerate(w) if y]
        for row, x in zip(self._nonzero, v):
            if x:
                for b, y in ws:
                    coef = x * y
                    for k, z in row[b]:
                        out[k] += coef * z
        return tuple(out)


# the boolean checks of a GfaReport in report order; the metric's verdict follows them
GFA_CHECKS = (
    "module_valid", "self_invariant", "equivariance", "graded_mult", "braided_commutativity",
    "metric_invariance", "invariant_unit", "associative", "unital",
)


@dataclass(frozen=True)
class GfaReport:
    module_valid: bool
    self_invariant: bool
    metric: MetricReport
    equivariance: bool
    graded_mult: bool
    braided_commutativity: bool
    metric_invariance: bool
    invariant_unit: bool
    associative: bool
    unital: bool
    failure: str | None = None  # the first of failures(), with its witness

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        out = [name for name in GFA_CHECKS if not getattr(self, name)]
        if not self.metric.passed:
            out.append("metric")
        return out


def check_gfa(alg: GFrobeniusAlgebra) -> GfaReport:
    """Every axiom of a G-Frobenius algebra; failure names the first that fails.

    The witness is the failing report line of the module or the metric, or
    the first indices at which the product breaks an axiom: an element g and
    a pair (a, b) for equivariance, (a, b, k) for a structure constant of the
    wrong degree, (a, b) for braided commutativity, (a, b, c) for metric
    invariance and associativity, g or a unit entry j for the invariant unit,
    and b for the unit law.

    Every product below is alg.product: with e the basis and rho_g(e_a)
    the columns of the action, equivariance is rho_g(e_a) rho_g(e_b) =
    rho_g(e_a e_b), associativity (e_a e_b) e_c = e_a (e_b e_c), and the
    unit law 1 e_b = e_b.  Braided commutativity is checked as
    e_a e_b = rho_{deg(a)^-1}(e_b) e_a.  The Jarvis-Kaufmann-Kimura axiom,
    and the braiding that braided.is_braided tests, read rho_{deg(a)}
    instead; the two agree when deg(a)^2 acts trivially, as over Z2, and
    differ on the group algebra of S3 (a known defect, kept so that every
    verdict stays as it was).
    """
    h = alg.module
    g = h.group
    d = h.dim
    eta = alg.metric
    mod_rep = validate_module(h)
    metric_rep = check_metric(h, eta)
    e = linalg.identity(d)
    ab = [[alg.product(x, y) for y in e] for x in e]  # ab[a][b] = e_a e_b
    cols = [linalg.transpose(rho) for rho in h.action]  # cols[g][a] = rho_g(e_a)
    eta_cols = linalg.transpose(eta)
    pairs = [(a, b) for a in range(d) for b in range(d)]
    triples = [(a, b, x) for a in range(d) for b in range(d) for x in range(d)]

    witnesses = {
        "module_valid": mod_rep.failure,
        "self_invariant": mod_rep.self_invariance_failure,
        "equivariance": next(
            (f"g = {gamma}, (a, b) = ({a}, {b})" for gamma in g.elements() for a, b in pairs
             if alg.product(cols[gamma][a], cols[gamma][b]) != linalg.mat_vec(h.action[gamma], ab[a][b])),
            None,
        ),
        "graded_mult": next(
            (f"(a, b, k) = ({a}, {b}, {k})" for a, b, k in triples
             if ab[a][b][k] != 0 and h.degrees[k] != g.mul(h.degrees[a], h.degrees[b])),
            None,
        ),
        "braided_commutativity": next(
            (f"(a, b) = ({a}, {b})" for a, b in pairs
             if ab[a][b] != alg.product(cols[g.inv(h.degrees[a])][b], e[a])),
            None,
        ),
        "metric_invariance": next(
            (f"(a, b, c) = ({a}, {b}, {x})" for a, b, x in triples
             if linalg.dot(ab[a][b], eta_cols[x]) != linalg.dot(eta[a], ab[b][x])),
            None,
        ),
        "invariant_unit": next(
            (f"g = {gamma}" for gamma in g.elements() if linalg.mat_vec(h.action[gamma], alg.unit) != alg.unit),
            next((f"j = {j}" for j in range(d) if alg.unit[j] != 0 and h.degrees[j] != g.identity), None),
        ),
        "associative": next(
            (f"(a, b, c) = ({a}, {b}, {x})" for a, b, x in triples
             if alg.product(ab[a][b], e[x]) != alg.product(e[a], ab[b][x])),
            None,
        ),
        "unital": next((f"b = {b}" for b in range(d) if alg.product(alg.unit, e[b]) != e[b]), None),
        "metric": metric_rep.failure,
    }
    failure = next(
        (f"{name} fails: {w}" if name in ("module_valid", "metric") else f"{name} fails at {w}"
         for name, w in witnesses.items() if w is not None),
        None,
    )
    ok = {name: w is None for name, w in witnesses.items() if name != "metric"}
    return GfaReport(**ok, metric=metric_rep, failure=failure)


def gfa_from_cubic(h: GradedModule, eta: Mat, y3: Tensor, unit: Vec) -> GFrobeniusAlgebra:
    """Solve eta(v_a . v_b, v_k) = Y3(v_a, v_b, v_k) for the multiplication."""
    d = h.dim
    if y3.n != 3:
        raise DegreeMismatch("cubic form must have tensor degree 3")
    hd = dual_module(h)
    if not is_braided(hd, y3):
        raise DegreeMismatch("cubic form is not braid-invariant")
    for idx in y3.terms:
        if h.group.product(hd.degree_tuple(idx)) != h.group.identity:
            raise DegreeMismatch("cubic form has a component of nontrivial G-degree")
    eta_inv = _inverse_metric(eta)
    mult = []
    for a in range(d):
        row = []
        for b in range(d):
            w = [y3.terms.get((k, b, a), Fraction(0)) for k in range(d)]
            row.append(linalg.mat_vec(eta_inv, w))
        mult.append(tuple(row))
    alg = GFrobeniusAlgebra(h, eta, tuple(mult), tuple(Fraction(x) for x in unit))
    for b, e_b in enumerate(linalg.identity(d)):
        if alg.product(alg.unit, e_b) != e_b:
            raise UnitFails(f"unit fails on basis vector {b}")
    return alg


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

    For the polarization T on hd = dual_module(h), with rho the action of hd,
    b_1 T = T reads T(y, x, ...) = sum_b rho(deg y)[x][b] T(y, b, ...), that is
    d_y d_x P = sum_b rho(deg y)[x][b] d_y d_b P in every degree at once.
    Slot permutations fix T and conjugate b_1 into every b_i, so this is exact.
    """
    hd = dual_module(h)
    d = len(pot.names)
    for x in range(d):
        for y in range(d):
            row = hd.action[hd.degrees[y]][x]
            moved = MultiPoly.sum_of_products((pot.second(y, b), w) for b, w in enumerate(row) if w != 0)
            if pot.second(y, x) != moved:
                return x, y
    return None


@dataclass(frozen=True)
class PreGfmReport:
    module: ModuleReport
    metric: MetricReport
    braid_witness: tuple[int, int] | None  # first failing coordinate pair, or None
    degree_witness: tuple[tuple[int, int], ...] | None  # first monomial off the identity degree, or None
    untwisted_potential: MultiPoly
    wdvv_untwisted: WdvvReport
    wdvv_invariants: WdvvReport

    @property
    def braided(self) -> bool:
        return self.braid_witness is None

    @property
    def degree_filter(self) -> bool:
        return self.degree_witness is None

    @property
    def passed(self) -> bool:
        return (
            self.module.valid
            and self.module.self_invariant
            and self.metric.passed
            and self.braided
            and self.degree_filter
            and self.wdvv_untwisted.passed
            and self.wdvv_invariants.passed
        )


def _sector_wdvv(sector: str, pot: Potential, eta: Mat) -> WdvvReport:
    """wdvv_check on one sector, failed with a witness naming the sector where its metric is singular."""
    try:
        return wdvv_check(pot, eta)
    except DegenerateMetric:
        return WdvvReport(False, (), f"metric is singular on the {sector} sector")


def check_pre_gfm(h: GradedModule, eta: Mat, pot: Potential) -> PreGfmReport:
    """Module, metric, braiding and G-degree e of the potential, then WDVV on its two sector restrictions.

    No constructor runs it: a caller that wants the verdict on an assembly calls it.
    """
    mod_rep = validate_module(h)
    metric_rep = check_metric(h, eta)
    witness = braid_witness(h, pot)
    degree_witness = g_degree_witness(dual_module(h), pot, h.group.identity)

    e_idx = h.untwisted_indices()
    e_names = tuple(pot.names[j] for j in e_idx)
    other = [pot.names[j] for j in range(h.dim) if j not in e_idx]
    y_e = pot.poly.subst_zero(other)
    wdvv_e = _sector_wdvv("untwisted", Potential(e_names, y_e), submatrix(eta, e_idx, e_idx))

    inv = invariants_basis(h)
    incl = linalg.inclusion(inv, h.dim)
    s_names = tuple(f"s{b}" for b in range(len(inv)))
    units = [tuple(int(b == c) for c in range(len(inv))) for b in range(len(inv))]
    y_g = pot.poly.substitute({name: MultiPoly(s_names, dict(zip(units, row))) for name, row in zip(pot.names, incl)})
    eta_g = linalg.pullback_metric(eta, incl)
    wdvv_g = _sector_wdvv("invariant", Potential(s_names, y_g), eta_g)

    return PreGfmReport(
        module=mod_rep,
        metric=metric_rep,
        braid_witness=witness,
        degree_witness=degree_witness,
        untwisted_potential=y_e,
        wdvv_untwisted=wdvv_e,
        wdvv_invariants=wdvv_g,
    )


# -- assembling an order-two pre-Frobenius manifold from two ordinary ones -----


@dataclass(frozen=True)
class FmData:
    """One formal Frobenius manifold: coordinate names, flat metric, potential."""

    names: tuple[str, ...]
    metric: Mat
    potential: MultiPoly


@dataclass(frozen=True)
class Z2Assembly:
    module: GradedModule
    names: tuple[str, ...]
    metric: Mat
    potential: MultiPoly
    fixed_names: tuple[str, ...]
    sign_names: tuple[str, ...]
    twisted_names: tuple[str, ...]


def decompose_z2_potential(
    assembly_names: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]],
    poly: MultiPoly,
) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Split a potential into (fixed-only, has-sign-factor, has-twisted-factor) parts."""
    _, v_names, g_names = assembly_names
    y_no_v = poly.subst_zero(v_names)
    y_no_g = poly.subst_zero(g_names)
    y_i = y_no_v.subst_zero(g_names)
    y_v = poly - y_no_v
    y_g = poly - y_no_g
    if poly != y_i + y_v + y_g:
        raise BlockDegreeViolation("potential has a term mixing sign and twisted factors")
    return y_i, y_v, y_g


def assemble_z2(fe: FmData, fg: FmData, iota_e: Sequence[int], iota_g: Sequence[int]) -> Z2Assembly:
    """Glue two Frobenius manifolds along a shared flat subspace.

    The embeddings are coordinate embeddings given by index lists; matched
    coordinates must carry the same name in both inputs.  The result is an
    order-two graded module with involution +1 / -1 / +1 on the fixed, sign
    and twisted blocks, block metric, and summed potential.  Only the
    gluing conditions are checked here; check_pre_gfm(module, metric,
    Potential(names, potential)) verifies the result.
    """
    if len(iota_e) != len(iota_g):
        raise RestrictionMismatch("embeddings have different ranks")
    r = len(iota_e)
    for j in range(r):
        if fe.names[iota_e[j]] != fg.names[iota_g[j]]:
            raise RestrictionMismatch(
                f"shared coordinate {j} is named {fe.names[iota_e[j]]!r} vs {fg.names[iota_g[j]]!r}"
            )
    shared = [fe.names[iota_e[j]] for j in range(r)]
    v_names = [n for j, n in enumerate(fe.names) if j not in set(iota_e)]
    g_names = [n for j, n in enumerate(fg.names) if j not in set(iota_g)]
    if set(v_names) & set(g_names) or set(shared) & (set(v_names) | set(g_names)):
        raise RestrictionMismatch("coordinate names of the complements must be disjoint")

    eta_i_e = submatrix(fe.metric, iota_e, iota_e)
    eta_i_g = submatrix(fg.metric, iota_g, iota_g)
    if eta_i_e != eta_i_g:
        raise RestrictionMismatch("restricted metrics disagree on the shared subspace")
    v_idx = [j for j in range(len(fe.names)) if j not in set(iota_e)]
    g_idx = [j for j in range(len(fg.names)) if j not in set(iota_g)]
    if any(fe.metric[i][j] != 0 for i in iota_e for j in v_idx) or any(
        fg.metric[i][j] != 0 for i in iota_g for j in g_idx
    ):
        raise BlockDegreeViolation("metric blocks must be homogeneous: cross pairings found")

    y_e_restricted = fe.potential.subst_zero(v_names)
    y_g_restricted = fg.potential.subst_zero(g_names)
    if y_e_restricted != y_g_restricted:
        raise RestrictionMismatch("restricted potentials disagree on the shared subspace")
    twisted = [v in g_names for v in fg.potential.vars]
    for exp, _ in fg.potential.sorted_terms():
        if sum(e for e, t in zip(exp, twisted) if t) % 2:
            raise BlockDegreeViolation("potential has odd twisted degree")

    names = tuple(shared + v_names + g_names)
    module = z2_module(r, len(v_names), len(g_names))
    # (block, source metric, source index) of each coordinate; the blocks pair only with themselves
    coords = (
        [(0, fe.metric, i) for i in iota_e] + [(1, fe.metric, j) for j in v_idx] + [(2, fg.metric, j) for j in g_idx]
    )
    eta_m = tuple(tuple(m[i][j] if b == c else ZERO for c, _, j in coords) for b, m, i in coords)

    y_total = fe.potential + (fg.potential - y_g_restricted)
    return Z2Assembly(
        module=module,
        names=names,
        metric=eta_m,
        potential=y_total.with_vars(sorted(set(y_total.vars) | set(names))),
        fixed_names=tuple(shared),
        sign_names=tuple(v_names),
        twisted_names=tuple(g_names),
    )
