"""Milnor rings and Frobenius structures of the A- and D-series singularities.

The one-variable family is w^{n+1}/(n+1); its miniversal unfolding is
F = z^{n+1}/(n+1) + k_{n-1} z^{n-1} + ... + k_0.  Tangent spaces are the
Jacobi rings Q[k][z] / (F'), with F' monic of degree n, so reduction is
parametric univariate division.  The residue pairing of two tangent vectors
is the sum over all poles of f g / F' dz, which for a monic F' equals the
coefficient of z^{n-1} in the reduction of f g.  A Jacobi-ring element is
one MultiPoly over the parameters and the variable Z = "z", so a product is
one kernel call and a reduction one per quotient coefficient and one for
the remainder; jacobi_multiply and jacobi_residue take F' as an argument.

Flat coordinates t come from inverting z = w + t_{n-1}/w + ... + t_0/w^n in
F(z(w)) = w^{n+1}/(n+1), through the powers of P = 1 + sum_j t_j x^{n+1-j}
with x = 1/w.  Only these stay coefficient lists (ZPoly), each cut at
x^{n+1} by zp_mul as it is built: the chart built from packed full products,
then cut, took 1.24 times as long at n = 10 and 2.4 times at n = 16.  The
potential is read off one more coefficient of the inverse series z(w)
(inverse_series_potential) and proved against the residues
Y_abc(t) = residue(dF/dt_a * dF/dt_b * dF/dt_c / F') by O(n^2) reductions
(check_potential_residues).

The two-variable family 1/2 x y^2 + x^{n-1}/(2n-2) is handled through its
Milnor ring and through the odd-coordinate restriction of the one-variable
potentials: the restriction plus the correction term -(1/2) a_0 t_*^2 gives
the potential on coordinates (t_even, t_*).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, perm
from typing import Callable, Iterator, Sequence, TypeVar

from . import linalg
from .errors import BadIndex, IntegrabilityFailure, ModuleMismatch
from .frobenius import FmData, GFrobeniusAlgebra, Potential, Z2Assembly, assemble_z2, mult_from_potential
from .groupoid import check_size
from .groups import trivial_group
from .modules import trivial_graded_module, z2_module
from .poly import MultiPoly

# -- Milnor rings --------------------------------------------------------------


def milnor_ring(kind: str, n: int) -> GFrobeniusAlgebra:
    """The Milnor ring of A_n or D_n as a Frobenius algebra of the trivial group.

    The basis is 1, z, .., z^{n-1} with z^n = 0 for A_n, and 1, x, ..,
    x^{n-2}, y with x^{n-1} = x y = 0 and y^2 = -x^{n-2} for D_n.  The unit
    is e_0 and the metric is (u, v) -> counit(u v), with the counit reading
    the top power z^{n-1} or x^{n-2}.
    """
    if kind == "A":
        if n < 2:
            raise BadIndex("A-series needs n >= 2")
        top, y = n - 1, None
    elif kind == "D":
        if n < 3:
            raise BadIndex("D-series needs n >= 3")
        top, y = n - 2, n - 1
    else:
        raise BadIndex(f"unknown singularity kind {kind!r}")

    def product(p: int, q: int) -> linalg.Vec:
        out = [Fraction(0)] * n
        if p == q == y:
            out[top] = Fraction(-1)
        elif y in (p, q):
            if 0 in (p, q):
                out[y] = Fraction(1)
        elif p + q <= top:
            out[p + q] = Fraction(1)
        return tuple(out)

    mult = tuple(tuple(product(p, q) for q in range(n)) for p in range(n))
    metric = tuple(tuple(mult[p][q][top] for q in range(n)) for p in range(n))
    unit = tuple(Fraction(int(i == 0)) for i in range(n))
    return GFrobeniusAlgebra(trivial_graded_module(trivial_group(), n), metric, mult, unit)


# -- parametric Jacobi rings -----------------------------------------------------


Z = "z"  # the variable of F, declared beside the parameters in every Jacobi-ring element
ZPoly = list[MultiPoly]  # index = power of the one variable, entries over the parameter ring


def zp_mul(f: Sequence[MultiPoly], g: Sequence[MultiPoly], top: int) -> ZPoly:
    """f g up to the power `top` and without trailing zeros, each power one sum of products."""
    out = [
        MultiPoly.sum_of_products((a, g[k - i]) for i, a in enumerate(f) if a and 0 <= k - i < len(g) and g[k - i])
        for k in range(min(len(f) + len(g) - 1, top + 1))
    ]
    while out and not out[-1]:
        out.pop()
    return out


def _z_term(k: int, c: int = 1) -> MultiPoly:
    return MultiPoly((Z,), {(k,): c})


def fprime_coeffs(n: int, unfolding: Sequence[MultiPoly]) -> MultiPoly:
    """dF/dz = z^n + sum_i i * a_i z^{i-1} for F with coefficients `unfolding`, one polynomial in z and the a_i."""
    terms = ((a, _z_term(i - 1, i)) for i, a in enumerate(unfolding) if i and a)
    return MultiPoly.sum_of_products([(_z_term(n), 1), *terms])


def jacobi_multiply(f: MultiPoly, g: MultiPoly, fprime: MultiPoly) -> MultiPoly:
    """Product in the Jacobi ring of the monic fprime of degree n in z: f g reduced mod F'.

    f g is one product, returned as it is when its degree in z is below n.
    Otherwise the quotient q is found top first, one sum of products per
    coefficient, q_j = [z^(j+n)] f g - sum_{i<n} q_{j+n-i} [z^i] F', and the
    remainder f g - q F' is one more.
    """
    fg = f * g
    cols, fp = fg.by_power(Z), fprime.by_power(Z)
    n, top = max(fp), max(cols, default=0)
    if top < n:
        return fg
    low, zero = [(i, p) for i, p in fp.items() if i < n], MultiPoly.zero()
    neg_q: dict[int, MultiPoly] = {}
    for k in range(top, n - 1, -1):
        terms = ((neg_q[k - i], p) for i, p in low if k - i in neg_q)
        if q := MultiPoly.sum_of_products([(cols.get(k, zero), 1), *terms]):
            neg_q[k - n] = -q
    neg = MultiPoly.sum_of_products((c, _z_term(j)) for j, c in neg_q.items())
    return MultiPoly.sum_of_products([(fg, 1), (neg, fprime)])


def jacobi_residue(r: MultiPoly, fprime: MultiPoly) -> MultiPoly:
    """Global residue of r / F' dz for r reduced mod the monic fprime of degree n in z: the coefficient of z^(n-1)."""
    return r.by_power(Z).get(max(fprime.by_power(Z)) - 1, MultiPoly.zero())


# -- flat coordinates --------------------------------------------------------------


@dataclass(frozen=True)
class UnfoldingChart:
    """Unfolding coefficients as polynomials in flat coordinates, and back."""

    n: int
    t_names: tuple[str, ...]
    a_names: tuple[str, ...]
    a_of_t: tuple[MultiPoly, ...]

    @cached_property
    def t_of_a(self) -> tuple[MultiPoly, ...]:
        """Flat coordinates in the a_i, built on first read by inverting the triangular system.

        t_m = -a_m + (a_m + t_m)(t_{m+2}, ...), substituting t_j(a) for j > m.
        """
        t_of_a: list[MultiPoly | None] = [None] * self.n
        for m in range(self.n - 1, -1, -1):
            h = self.a_of_t[m] + MultiPoly.variable(self.t_names[m])  # higher-order part, in t
            expr = -MultiPoly.variable(self.a_names[m]) + h
            t_of_a[m] = expr.substitute({self.t_names[j]: t_of_a[j] for j in range(m + 1, self.n)})
        return tuple(t_of_a)

    @cached_property
    def potential(self) -> Potential:
        """The potential on this chart, read off the inverse series on first read and proved by the residues."""
        pot = Potential(self.t_names, inverse_series_potential(self))
        check_potential_residues(self, pot)
        return pot

    def fprime_in_t(self) -> MultiPoly:
        return fprime_coeffs(self.n, self.a_of_t)

    def df_dt(self, a: int) -> MultiPoly:
        """dF/dt_a = sum_i (d a_i / d t_a) z^i, one polynomial in z and t."""
        parts = ((d, _z_term(i)) for i, p in enumerate(self.a_of_t) if (d := p.diff(self.t_names[a])))
        return MultiPoly.sum_of_products(parts, (*self.t_names, Z))


def flat_coordinates(n: int) -> UnfoldingChart:
    """Invert the ansatz z = w + t_{n-1}/w + ... + t_0/w^n order by order."""
    if n < 2:
        raise BadIndex("flat_coordinates needs n >= 2")
    return _shared(("chart", n), lambda: _build_flat_coordinates(n))


def _build_flat_coordinates(n: int) -> UnfoldingChart:
    """Solve for a_of_t from the powers z^k = w^k P(x)^k, each kept only up to the power the solve reads.

    With x = 1/w, z = w P(x) for the ZPoly P = [1, 0, t_{n-1}, .., t_0], and
    the w^m coefficient of z^k is the x^{k-m} coefficient of P^k.  The solve
    reads only m >= 0, of z^k for k <= n+1, so each P^k is needed only up to
    x^{n+1}, and zp_mul drops every power above that when it builds P^k.
    """
    tn = tuple(f"t_{i}" for i in range(n))
    t = [MultiPoly.variable(v) for v in tn]
    p = [MultiPoly.constant(1), MultiPoly.zero(), *reversed(t)]
    powers: list[ZPoly] = [[MultiPoly.constant(1)], p]
    for _ in range(2, n + 2):
        powers.append(zp_mul(powers[-1], p, top=n + 1))

    def coeff(k: int, m: int) -> MultiPoly:
        """The w^m coefficient of z^k."""
        return powers[k][k - m] if k - m < len(powers[k]) else MultiPoly.zero()

    # Solve for a_m, top coefficient first: the w^m coefficient of
    # z^{n+1}/(n+1) + sum_i a_i z^i must vanish for m = n-1 .. 0.
    a_of_t: list[MultiPoly | None] = [None] * n
    for m in range(n - 1, -1, -1):
        terms = ((a_of_t[i], c) for i in range(m + 1, n) if (c := coeff(i, m)))
        # a_m enters through a_m * z^m whose w^m coefficient is 1.
        a_of_t[m] = -MultiPoly.sum_of_products([(coeff(n + 1, m), Fraction(1, n + 1)), *terms])

    # Structural check: linear term -t_m, higher terms only in t_{m+2}..t_{n-1}.
    for m in range(n):
        p = a_of_t[m]
        if p.coefficient({tn[m]: 1}) != Fraction(-1):
            raise IntegrabilityFailure(f"a_{m} has linear coefficient != -1 on t_{m}")
        linear = p.homogeneous_part(1)
        if linear != -t[m]:
            raise IntegrabilityFailure(f"a_{m} has a stray linear term")
        if not set((p - linear - p.constant_term()).compact().vars) <= set(tn[m + 2:]):
            raise IntegrabilityFailure(f"a_{m} has higher terms outside t_{m + 2}..t_{n - 1}")

    return UnfoldingChart(n=n, t_names=tn, a_names=tuple(f"a{i}" for i in range(n)), a_of_t=tuple(a_of_t))


def flat_metric(n: int) -> linalg.Mat:
    """Residue metric in flat coordinates, eta_ij = [i + j == n - 1]: the metric of the A_n Milnor ring."""
    return milnor_ring("A", n).metric


# -- potentials --------------------------------------------------------------------


def potential_terms(m: int) -> int:
    """Upper bound on the term count of potential_A(m), read off the weights.

    The potential is quasi-homogeneous: t_i has weight m+1-i and every term
    has weighted degree 2m+4 and at least three factors.  This counts those
    monomials (30% above the true count at m = 13).
    """
    if m < 2:
        return 0
    top = 2 * m + 4
    ways = [[0] * 4 for _ in range(top + 1)]  # [weight][factors, capped at 3]
    ways[0][0] = 1
    for w in range(2, m + 2):
        for s in range(w, top + 1):
            for p in range(4):
                ways[s][min(p + 1, 3)] += ways[s - w][p]
    return ways[top][3]


def guard_unfolding(m: int, power: int = 2) -> None:
    """Refuse work on the A_m potential whose estimated cost exceeds the size limit.

    The estimate is potential_terms(m) * m**power term operations: power 2
    for the chart and the potential (the residue proof makes O(m^2)
    reductions), power 3 when every potential is also WDVV-checked.  A unit
    took 0.6 to 1.5 microseconds under CPython 3.11.7 on a 2-core x86-64 host
    (as subprocesses: `potential A 15` 0.57-0.61 s for 420,750 units,
    `potential A 16` 0.83-0.85 s for 693,504, `construct-z2 7` 0.31-0.32 s
    for 501,787), so the default limit of 10^6 admits the potential of A_16
    and construct-z2 up to n = 7, well inside ten seconds.

    The cubic terms t_0 t_b t_{m-1-b} alone give potential_terms(m) >=
    (m-1)//2 + 1, so a cost over the limit on that lower bound is refused
    before the O(m^2) count runs; the verdict is the same for every m.
    """
    floor = (m - 1) // 2 + 1 if m >= 2 else 0
    check_size(f"A_{m} potential: estimated cost (lower bound)", floor * m**power)
    check_size(f"A_{m} potential: estimated cost", potential_terms(m) * m**power)


_T = TypeVar("_T")
_builds: ContextVar[dict | None] = ContextVar("gfrob_shared_builds", default=None)


@contextmanager
def shared_builds() -> Iterator[None]:
    """Inside the block, build each A_m flat chart (with its potential) and Z2 manifold once.

    The memo belongs to the block and is dropped when it exits; outside any
    block every call builds (and proves) its objects afresh.
    """
    token = _builds.set({})
    try:
        yield
    finally:
        _builds.reset(token)


def _shared(key: tuple, build: Callable[[], _T]) -> _T:
    memo = _builds.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def potential_A(n: int) -> Potential:
    """Potential of the one-variable unfolding in flat coordinates, degree <= n+2."""
    if n < 2:
        raise BadIndex("potential_A needs n >= 2")
    return flat_coordinates(n).potential


def inverse_series_potential(chart: UnfoldingChart) -> MultiPoly:
    """The potential read off one coefficient of the inverse series z(w).

    With u = (n+1) sum_i a_i(t) z^{i-n-1}, so that (n+1) F = z^{n+1} (1 + u),
    Lagrange-Buermann inversion gives the w^{-K} coefficient of z(w) as
    c_K = [z^{-K-1}] (1 + u)^{K/(n+1)} / K.  The coefficients g_k of
    (1 + u)^x in 1/z follow J.C.P. Miller's power recurrence
    g_k = (1/k) sum_j ((x+1) j - k) u_j g_{k-j}, g_0 = 1.  For K = 2n+3 the
    degree-d part of c_K is (n+2)(d-2) times the degree-d part of the
    potential.  With t_i of weight n+1-i, u_j and g_k have weight j and k,
    so every term of c_K has weight 2n+4 and hence degree d >= 3.

    The recurrence runs on integers: with N = n+1 and x = K/N, the scaled
    G_k = N^k k! g_k satisfy
    G_k = sum_j ((K+N) j - N k) N^(j-1) (k-1)!/(k-j)! u_j G_{k-j}, G_0 = 1,
    whose scalars are integers.  The u_j are integral too: the solve for
    a_m adds 1/N times an integral coefficient of z^{n+1} to integer
    multiples of the a_i with i > m, so N a_m is integral by induction.  The
    only division is one per degree part of G_{K+1}, by
    N^(K+1) (K+1)! K (n+2) (d-2).
    """
    n = chart.n
    big_n, big_k = n + 1, 2 * n + 3
    c = _scaled_power_series(chart)[1][big_k + 1]
    base = big_n ** (big_k + 1) * factorial(big_k + 1) * big_k * (n + 2)
    parts = ((c.homogeneous_part(d), Fraction(1, base * (d - 2))) for d in range(3, c.total_degree() + 1))
    return MultiPoly.sum_of_products(parts, chart.t_names)


def _scaled_power_series(chart: UnfoldingChart) -> tuple[list[tuple[int, MultiPoly]], list[MultiPoly]]:
    """The pairs (j, u_j) for j = 2..n+1, and G_0 .. G_{K+1} of Miller's recurrence on integers."""
    n = chart.n
    big_n, big_k = n + 1, 2 * n + 3
    u = [(j, chart.a_of_t[n + 1 - j] * big_n) for j in range(2, n + 2)]
    g = [MultiPoly.constant(1)]
    for k in range(1, big_k + 2):  # u[: k - 1] holds the u_j with j <= k
        scales = [((big_k + big_n) * j - big_n * k) * big_n ** (j - 1) * perm(k - 1, j - 1) for j, _ in u[: k - 1]]
        terms = ((uj * s, g[k - j]) for (j, uj), s in zip(u, scales) if s and g[k - j])
        g.append(MultiPoly.sum_of_products(terms))
    return u, g


def check_potential_residues(chart: UnfoldingChart, pot: Potential) -> None:
    """Prove res(dF_a dF_b dF_c / F') = P_abc for every triple from O(n^2) reductions.

    For each a <= b, r_ab = dF_a dF_b mod F' must have the constant residue
    [a + b = n - 1] (flatness), read off as its z^(n-1) coefficient since F'
    is monic of degree n, and must equal sum_c P_abc dF_{n-1-c}.  Pairing
    the second identity with dF_c through the first gives every triple residue.
    Raises IntegrabilityFailure naming the first pair (a, b) that fails.
    """
    n = chart.n
    fp = chart.fprime_in_t()
    dfs = [chart.df_dt(a) for a in range(n)]
    for a in range(n):
        for b in range(a, n):
            r = jacobi_multiply(dfs[a], dfs[b], fp)
            if r.by_power(Z).get(n - 1, MultiPoly.zero()) != int(a + b == n - 1):
                raise IntegrabilityFailure(f"residue pairing is not flat at {(a, b)}")
            if MultiPoly.sum_of_products((y, dfs[n - 1 - c]) for c in range(n) if (y := pot.third(a, b, c))) != r:
                raise IntegrabilityFailure(f"third partials do not match the residues at {(a, b)}")


def potential_B(m: int) -> Potential:
    """Restriction of the (2m-1)-variable potential to even flat coordinates."""
    if m < 2:
        raise BadIndex("potential_B needs m >= 2")
    pa = potential_A(2 * m - 1)
    return Potential(pa.names[0::2], pa.poly.subst_zero(pa.names[1::2]))


TSTAR = "t_*"


def potential_D(n: int) -> Potential:
    """Two-variable family: add -(1/2) a_0 t_*^2, then drop odd coordinates."""
    if n < 3:
        raise BadIndex("potential_D needs n >= 3")
    return _potential_D_from(flat_coordinates(2 * n - 3))


def _potential_D_from(chart: UnfoldingChart) -> Potential:
    """potential_D(n) from the chart of A_{2n-3} and its potential."""
    tstar = MultiPoly.variable(TSTAR)
    full = chart.potential.poly + chart.a_of_t[0] * tstar * tstar * Fraction(-1, 2)
    return Potential(chart.t_names[0::2] + (TSTAR,), full.subst_zero(chart.t_names[1::2]))


def potential_D_metric(n: int) -> linalg.Mat:
    """Flat metric on (t_0, t_2, ..., t_{2n-4}, t_*): the metric of the D_n Milnor ring."""
    return milnor_ring("D", n).metric


# -- the order-two orbifold objects --------------------------------------------


def z2_frobenius_algebra(n: int) -> GFrobeniusAlgebra:
    """The order-two Frobenius algebra C[z,y]/(z^{2n-3}, yz, y^2 + z^{2n-4}).

    This is the Milnor ring of D_{2n-2} with x = z, reordered to the basis
    (1, z^2, ..., z^{2n-4} | z, z^3, ..., z^{2n-5} | y): the involution fixes
    the even powers and y and negates the odd powers, and y is twisted.
    """
    if n < 3:
        raise BadIndex("z2_frobenius_algebra needs n >= 3")
    ring = milnor_ring("D", 2 * n - 2)
    order = [*range(0, 2 * n - 3, 2), *range(1, 2 * n - 4, 2), 2 * n - 3]
    return GFrobeniusAlgebra(
        z2_module(n - 1, n - 2, 1),
        tuple(tuple(ring.metric[p][q] for q in order) for p in order),
        tuple(tuple(tuple(ring.mult[p][q][k] for k in order) for q in order) for p in order),
        ring.unit,
    )


def z2_frobenius_manifold(n: int) -> Z2Assembly:
    """Glue the A_{2n-3} and D_n manifolds over their shared block, as the Z2Assembly of assemble_z2.

    The fixed block is (t_0, t_2, ..., t_{2n-4}), the sign block the odd
    t_j and the twisted block t_*.  Only what gluing needs is checked here:
    check_pre_gfm(fm.module, fm.metric, fm.potential) checks both
    restrictions, and z2_cubic_witness(fm) the cubic part.
    """
    if n < 3:
        raise BadIndex("z2_frobenius_manifold needs n >= 3")
    return _shared(("Z2", n), lambda: _build_z2_manifold(n))


def _build_z2_manifold(n: int) -> Z2Assembly:
    m = 2 * n - 3
    chart = flat_coordinates(m)
    fe = FmData(flat_metric(m), chart.potential)
    fg = FmData(potential_D_metric(n), _potential_D_from(chart))
    return assemble_z2(fe, fg, list(range(0, m, 2)), list(range(n - 1)))


def z2_cubic_witness(asm: Z2Assembly) -> tuple[int, ...] | None:
    """First index at which the cubic part of asm's potential misses z2_frobenius_algebra(n), else None.

    Here n = len(asm.fixed_names) + 1, the n of z2_frobenius_manifold(n);
    ModuleMismatch if asm's module is not the algebra's z2_module(n - 1, n - 2, 1).
    Transported along basis vector -> -(coordinate vector), the algebra of
    the degree-3 part must have the metric of z2_frobenius_algebra(n) and
    its negated structure constants, read off by mult_from_potential at the
    origin.  The witness is the first metric entry (i, j) that differs, else
    the first structure constant (a, b, k); a cubic whose algebra breaks an
    axiom gets one too.
    """
    n, dim = len(asm.fixed_names) + 1, asm.module.dim
    algebra = z2_frobenius_algebra(n)
    if asm.module != algebra.module:
        raise ModuleMismatch(f"the assembly's module is not that of z2_frobenius_algebra({n})")
    cells = itertools.product(range(dim), repeat=2)
    if (entry := next(((i, j) for i, j in cells if asm.metric[i][j] != algebra.metric[i][j]), None)) is not None:
        return entry
    cubic = Potential(asm.potential.names, asm.potential.poly.homogeneous_part(3))
    mult = mult_from_potential(cubic, asm.metric)
    constants = itertools.product(range(dim), repeat=3)
    return next(((a, b, k) for a, b, k in constants if mult[a][b][k] != -algebra.mult[a][b][k]), None)
