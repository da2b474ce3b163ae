"""Finite-dimensional G-graded G-modules and sparse tensors on them.

A module carries one group-element degree per basis vector (every basis
vector is homogeneous) and one exact rational matrix per group element.
The action must be a homomorphism and must map each degree block H_m onto
the block of the conjugate degree gmg^{-1}.

Tensor powers are sparse maps from basis-index tuples to coefficients.
The braiding on adjacent factors sends v (x) w, with v homogeneous of
degree g, to (g.w) (x) v; its inverse sends v (x) w to w (x) (h^{-1}.v)
with h the degree of w.  Degree tuples then transform exactly like the
conjugate-and-swap action on G^n, which ties these operators to the braid
groupoid arrows.

Every linear action on tensors (groupoid arrows, the braiding applied per
degree tuple, the diagonal action, pullbacks) is one call of the sparse
kernel slot_apply_into: the slot permutation first, one itemgetter per
term, then sparse matrix columns on the slots whose matrix is not the
identity.  A module keeps the nonzero entries of each action matrix as its
columns, from linalg.columns: an int where the entry is integral and a
Fraction otherwise, so an integral action runs on ints alone.  The module
axioms and is_morphism multiply those columns with linalg.apply.
braidize's integer core, which circ_product feeds directly with the
juxtapositions of one degree, gives the kernel numerators over one common
denominator and divides once per output term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Mapping, Sequence

from . import linalg
from .errors import DegreeMismatch, IndexOutOfRange, InvalidAction, InvalidMorphism, NotZ2
from .groupoid import Arrow, GTuple, gen_arrow, inverse_gen_arrow
from .groups import FiniteGroup, cyclic_group

Matrix = linalg.Mat
# Fractions, or the integer numerators that braidize and circ_product feed braidize's core
Terms = Mapping[tuple[int, ...], int | Fraction]


@dataclass(frozen=True)
class GradedModule:
    group: FiniteGroup
    degrees: tuple[int, ...]
    action: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def degree_tuple(self, idx: Sequence[int]) -> GTuple:
        return tuple(self.degrees[j] for j in idx)

    @cached_property
    def columns(self) -> list[linalg.Columns]:
        """columns[g] = linalg.columns of the action matrix of g."""
        return [linalg.columns(m) for m in self.action]

    def block_indices(self, g: int) -> list[int]:
        return [j for j, d in enumerate(self.degrees) if d == g]

    def untwisted_indices(self) -> list[int]:
        return self.block_indices(self.group.identity)


@dataclass(frozen=True)
class Verdict:
    """The checks of one list of axioms, in report order, each mapped to its first witness or None.

    A check fails exactly when it has a witness.  A witness may itself be a
    Verdict, such as the module or the metric under an algebra.
    """

    checks: dict[str, object]

    @property
    def passed(self) -> bool:
        return not self.failed

    @property
    def failed(self) -> list[str]:
        """The names of the failing checks, in report order."""
        return [name for name, w in self.checks.items() if w is not None]

    @property
    def failure(self) -> str | None:
        """The first failing check with its witness, or None: `name fails: <inner failure>` for a
        nested verdict and `name fails at <witness>` otherwise."""
        for name, w in self.checks.items():
            if w is not None:
                return f"{name} fails: {w.failure}" if isinstance(w, Verdict) else f"{name} fails at {w}"
        return None

    @property
    def witness(self) -> Verdict | None:
        """This verdict as the witness of the check it settles: None when it passes."""
        return None if self.passed else self


def _require_shape(h: GradedModule) -> None:
    """InvalidAction unless the action is |G| square matrices of the module dimension and every degree is in G."""
    g = h.group
    d = h.dim
    if len(h.action) != g.order or any(len(m) != d or any(len(r) != d for r in m) for m in h.action):
        raise InvalidAction("action matrices must be |G| square matrices of the module dimension")
    if any(not 0 <= deg < g.order for deg in h.degrees):
        raise InvalidAction("basis degree out of range")


def validate_module(h: GradedModule) -> Verdict:
    """The homomorphism, identity, grading and invertible axioms of a G-module, each with its first witness.

    The witness is a pair (a, b) for the homomorphism axiom, an entry (i, j)
    of rho(e) for the identity axiom, an element g and an entry (i, j) of
    rho(g) for the grading axiom, and an element g for invertibility; the
    failure line reads `homomorphism axiom fails at (a, b) = (1, 1)`.
    InvalidAction if the action matrices do not fit the module.

    The homomorphism axiom rho(ab) = rho(a) rho(b) is checked exactly on
    the sparse columns.  Once it and the identity axiom hold,
    rho(g) rho(g^-1) = rho(e) = I proves every rho(g) invertible, so ranks
    are computed only when one of the two fails.
    """
    _require_shape(h)
    g = h.group
    d = h.dim
    rho, elements, e = h.action, list(g.elements()), g.identity
    cols = h.columns
    checks = {
        "homomorphism axiom": next(
            (f"(a, b) = ({a}, {b})" for a in elements for b in elements
             if [linalg.apply(cols[a], col) for col in cols[b]] != [dict(col) for col in cols[g.mul(a, b)]]),
            None,
        ),
        "identity axiom": next(
            (f"(i, j) = ({i}, {j})" for i, row in enumerate(rho[e]) for j, x in enumerate(row) if x != int(i == j)),
            None,
        ),
        "grading axiom": next(
            (f"g = {gamma}, (i, j) = ({i}, {j})" for gamma in elements
             for i, row in enumerate(rho[gamma]) for j, x in enumerate(row)
             if x and h.degrees[i] != g.conj(gamma, h.degrees[j])),
            None,
        ),
    }
    proved = checks["homomorphism axiom"] is None and checks["identity axiom"] is None
    checks["invertible axiom"] = None if proved else next(
        (f"g = {gamma}" for gamma in elements if linalg.rank(rho[gamma]) != d), None
    )
    return Verdict(checks)


def self_invariance_witness(h: GradedModule) -> str | None:
    """First g and entry (i, j), with j in the block H_g, at which rho(g) is not the identity, else None.

    InvalidAction if the action matrices do not fit the module.
    """
    _require_shape(h)
    rho = h.action
    return next(
        (f"g = {gamma}, (i, j) = ({i}, {j})" for gamma in h.group.elements() for j in h.block_indices(gamma)
         for i in range(h.dim) if rho[gamma][i][j] != int(i == j)),
        None,
    )


def graded_module(
    group: FiniteGroup,
    degrees: Sequence[int],
    action: Sequence[Sequence[Sequence]],
) -> GradedModule:
    return require_valid_module(GradedModule(group, tuple(degrees), tuple(linalg.mat(m) for m in action)))


def require_valid_module(h: GradedModule) -> GradedModule:
    """h itself; InvalidAction naming the first failing axiom of validate_module if h is no G-module."""
    failure = validate_module(h).failure
    if failure is not None:
        raise InvalidAction(f"module validation failed: {failure}")
    return h


def dual_module(h: GradedModule) -> GradedModule:
    """Dual basis module: degrees invert, and gamma acts by rho(gamma^-1)^T."""
    g = h.group
    degrees = tuple(g.inv(d) for d in h.degrees)
    action = tuple(linalg.transpose(h.action[g.inv(gamma)]) for gamma in g.elements())
    return GradedModule(g, degrees, action)


class Tensor:
    """Sparse element of the n-th tensor power, keyed by basis-index tuples."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.n = n
        clean: dict[tuple[int, ...], Fraction] = {}
        for idx, c in (terms or {}).items():
            if len(idx) != n:
                raise ValueError("index tuple length mismatch")
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                clean[tuple(idx)] = c
        self.terms = clean

    @classmethod
    def basis(cls, idx: Sequence[int]) -> "Tensor":
        return cls(len(idx), {tuple(idx): Fraction(1)})

    @classmethod
    def scalar(cls, c) -> "Tensor":
        return cls(0, {(): Fraction(c)})

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.n != other.n:
            raise DegreeMismatch("tensor degrees differ")
        return Tensor(self.n, linalg.accumulate(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + other.scale(-1)

    def scale(self, c) -> "Tensor":
        c = Fraction(c)
        return Tensor(self.n, {idx: c * v for idx, v in self.terms.items()})

    def juxt(self, other: "Tensor") -> "Tensor":
        """Concatenation product into the (n+m)-th tensor power."""
        terms = ((i1 + i2, c1 * c2) for i1, c1 in self.terms.items() for i2, c2 in other.terms.items())
        return Tensor(self.n + other.n, linalg.accumulate(terms))

    def __eq__(self, other) -> bool:
        return isinstance(other, Tensor) and self.n == other.n and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return f"Tensor({self.n}, 0)"
        bits = [f"{c}*e{list(idx)}" for idx, c in self.sorted_terms()]
        return " + ".join(bits)


def split_homogeneous(h: GradedModule, v: Tensor) -> dict[GTuple, dict[tuple[int, ...], Fraction]]:
    """Split a tensor's terms into its G^n-homogeneous parts, keyed by degree tuple."""
    parts: dict[GTuple, dict[tuple[int, ...], Fraction]] = {}
    for idx, c in v.terms.items():
        parts.setdefault(h.degree_tuple(idx), {})[idx] = c
    return parts


def slot_apply_into(
    cols: Sequence[linalg.Columns | None],
    perm: Sequence[int],
    terms: Terms,
    out: dict[tuple[int, ...], int | Fraction],
) -> None:
    """Accumulate P_perm . (M_1 (x) ... (x) M_n) . terms into out.

    cols[s] holds the sparse columns of the matrix M_s acting on slot s, or
    None for the identity; slot perm[s] of the result then comes from slot s.
    Coefficients and matrix entries may be ints or Fractions; ints stay ints.
    """
    # Position k of the result comes from slot source[k]; one itemgetter puts every slot in place, then
    # only the slots whose matrix is not the identity are patched.
    source = [0] * len(perm)
    for s, k in enumerate(perm):
        source[k] = s
    pick = itemgetter(*source) if len(source) > 1 else tuple
    moved = [(k, s, cols[s]) for k, s in enumerate(source) if cols[s] is not None]
    for idx, c in terms.items():
        key = pick(idx)
        fan = None
        for k, s, col in moved:
            j = idx[s]
            branches = col[j]
            if fan is None and len(branches) == 1:
                i, w = branches[0]
                c = c * w
                if i != j:
                    key = key[:k] + (i,) + key[k + 1:]
            else:
                fan = [(p[:k] + (i,) + p[k + 1:], pc * w) for p, pc in ([(key, c)] if fan is None else fan)
                       for i, w in branches]
        for key, c in [(key, c)] if fan is None else fan:
            prev = out.get(key)
            out[key] = c if prev is None else prev + c


def arrow_apply_into(
    h: GradedModule,
    a: "Arrow",
    terms: Terms,
    out: dict[tuple[int, ...], int | Fraction],
) -> None:
    """Accumulate a . terms into out (no degree validation); an integral action keeps int terms ints."""
    e = h.group.identity
    slot_apply_into([None if g == e else h.columns[g] for g in a.gpart], a.perm, terms, out)


def braid_act(h: GradedModule, i: int, v: Tensor, inverse: bool = False) -> Tensor:
    """Categorical braiding on adjacent tensor factors i, i+1 (1-based).

    Each homogeneous part is moved by the arrow of b_i (or b_i^{-1}) at its
    degree tuple.
    """
    if not 1 <= i <= v.n - 1:
        raise IndexOutOfRange(f"generator index {i} for n={v.n}")
    step = inverse_gen_arrow if inverse else gen_arrow
    out: dict[tuple[int, ...], Fraction] = {}
    for deg, part in split_homogeneous(h, v).items():
        arrow_apply_into(h, step(h.group, i, deg), part, out)
    return Tensor(v.n, out)


def arrow_act(h: GradedModule, a: Arrow, v: Tensor) -> Tensor:
    """Apply a groupoid arrow: gpart componentwise, then permute slots."""
    if v.n != a.n:
        raise DegreeMismatch("tensor degree differs from arrow length")
    for idx in v.terms:
        if h.degree_tuple(idx) != a.source:
            raise DegreeMismatch(
                f"tensor term of degree {h.degree_tuple(idx)} does not match arrow source {a.source}"
            )
    out: dict[tuple[int, ...], Fraction] = {}
    arrow_apply_into(h, a, v.terms, out)
    return Tensor(v.n, out)


def diagonal_act(h: GradedModule, g: int, v: Tensor) -> Tensor:
    """The action of g on every tensor factor at once."""
    if g == h.group.identity:
        return v
    out: dict[tuple[int, ...], Fraction] = {}
    slot_apply_into([h.columns[g]] * v.n, range(v.n), v.terms, out)
    return Tensor(v.n, out)


def _eigenbasis(h: GradedModule, idx: Sequence[int], pairs: Sequence[tuple[int, int]] = ()) -> list[linalg.Vec]:
    """The canonical basis of the vectors supported on idx with rho(gamma) v = s v for each (gamma, s) in pairs.

    One linalg.nullspace of the rows i in idx of every rho(gamma) - s I, read
    on the columns in idx, embedded in the full dimension; with no pairs, the
    coordinate vectors of idx.
    """
    rows = [[h.action[gamma][i][j] - (s if i == j else 0) for j in idx] for gamma, s in pairs for i in idx]
    kern = linalg.nullspace(rows) if pairs else linalg.identity(len(idx))
    embed = {j: pos for pos, j in enumerate(idx)}
    return [tuple(k[embed[j]] if j in embed else linalg.ZERO for j in range(h.dim)) for k in kern]


def invariants_basis(h: GradedModule) -> list[linalg.Vec]:
    """Basis of the joint fixed space of all rho(gamma), one _eigenbasis over every index."""
    e = h.group.identity
    return _eigenbasis(h, range(h.dim), [(gamma, 1) for gamma in h.group.elements() if gamma != e])


def untwisted_basis(h: GradedModule) -> list[linalg.Vec]:
    """The coordinate vectors of the untwisted sector, in index order."""
    return _eigenbasis(h, h.untwisted_indices())


def z2_decompose(h: GradedModule) -> tuple[list[linalg.Vec], list[linalg.Vec], list[linalg.Vec]]:
    """Split a self-invariant order-2 module into (fixed, sign, twisted) parts.

    Returns bases of H_i (untwisted, fixed by the involution), H_v (untwisted,
    flipped by the involution) and H_g (the twisted sector), each one _eigenbasis.
    """
    g = h.group
    if g.order != 2:
        raise NotZ2("z2_decompose requires a group of order 2")
    if self_invariance_witness(h) is not None:
        raise NotZ2("z2_decompose requires a self-invariant module")
    nontriv = 1 - g.identity
    e_idx = h.untwisted_indices()
    return (
        _eigenbasis(h, e_idx, [(nontriv, 1)]),
        _eigenbasis(h, e_idx, [(nontriv, -1)]),
        _eigenbasis(h, h.block_indices(nontriv)),
    )


def is_morphism(source: GradedModule, target: GradedModule, m: Matrix) -> bool:
    """Check a matrix (target.dim x source.dim) is degree-preserving and equivariant."""
    if source.group != target.group:
        return False
    if len(m) != target.dim or any(len(r) != source.dim for r in m):
        return False
    cols = linalg.columns(m) if m else [[]] * source.dim  # columns() cannot see the width of a matrix with no rows
    if any(target.degrees[i] != source.degrees[j] for j, col in enumerate(cols) for i, _ in col):
        return False
    # m rho_s(gamma) = rho_t(gamma) m, column by column
    return all(
        linalg.apply(cols, s) == linalg.apply(target.columns[gamma], cols[j])
        for gamma in source.group.elements() for j, s in enumerate(source.columns[gamma])
    )


def require_morphism(source: GradedModule, target: GradedModule, m: Matrix) -> None:
    if not is_morphism(source, target, m):
        raise InvalidMorphism("matrix is not a degree-preserving equivariant morphism")


def trivial_graded_module(group: FiniteGroup, dim: int) -> GradedModule:
    """Everything in the untwisted sector with the trivial action."""
    e = group.identity
    ident = linalg.identity(dim)
    return GradedModule(group, tuple([e] * dim), tuple(ident for _ in group.elements()))


def z2_module(fixed: int, sign: int, twisted: int) -> GradedModule:
    """The order-two module on three blocks in this order, on which the involution acts as +1, -1 and +1.

    The fixed and sign blocks are untwisted; the twisted block has the degree of the involution.
    """
    group = cyclic_group(2)
    dim = fixed + sign + twisted
    diag = [Fraction(1)] * fixed + [Fraction(-1)] * sign + [Fraction(1)] * twisted
    rho = tuple(tuple(diag[i] if i == j else Fraction(0) for j in range(dim)) for i in range(dim))
    degrees = (group.identity,) * (fixed + sign) + (1 - group.identity,) * twisted
    return GradedModule(group, degrees, (linalg.identity(dim), rho))
