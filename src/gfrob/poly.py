"""Sparse multivariate polynomials over exact rationals.

A MultiPoly declares a variable tuple, sorted by name (which fixes a
canonical serialization), and maps monomials to nonzero coefficients.  A
coefficient is stored as a Python int when it is integral and as a Fraction
only when it is not (`exact` is the one normalization, applied wherever a
coefficient is stored), so integer products and sums run on CPython ints.
True division of a coefficient must go through Fraction, since int / int is
a float.  A monomial is a name-sorted tuple of (variable, exponent)
pairs with positive integer exponents, the same key whatever variables a
polynomial declares: binary operations declare the union of the two tuples
and never rewrite a term.  This monomial format is private to this module:
other modules read terms through sorted_terms (dense exponent vectors over
the declared variables), homogeneous_part, coefficient and compact.

A variable that a polynomial does not declare is absent from it: its
derivative is zero, and substituting it (by a value or by zero) returns the
polynomial unchanged.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import UnknownVariable

Scalar = Union[int, Fraction]
Monomial = tuple[tuple[str, int], ...]


def exact(c) -> Scalar:
    """The stored form of a scalar: its int value when integral, else a Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _declare(variables: Iterable[str]) -> tuple[str, ...]:
    order = tuple(sorted(variables))
    if len(set(order)) != len(order):
        raise ValueError("duplicate variable names")
    return order


def _union(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    return a if a == b else tuple(sorted(set(a).union(b)))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1 or not m2:
        return m1 or m2
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Scalar]):
        """Polynomial from dense exponent vectors, one entry per given variable."""
        variables = tuple(variables)
        order = _declare(variables)
        clean: dict[Monomial, Scalar] = {}
        for exp, c in terms.items():
            if len(exp) != len(order):
                raise ValueError("exponent vector length mismatch")
            c = exact(c)
            if c:
                clean[tuple(sorted((v, e) for v, e in zip(variables, exp) if e))] = c
        object.__setattr__(self, "vars", order)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_pairs(cls, variables: tuple[str, ...], terms: dict[Monomial, Scalar]) -> "MultiPoly":
        """Wrap a sorted variable tuple and pair-keyed nonzero `exact` terms as they are."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", variables)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "MultiPoly":
        return cls._from_pairs(_declare(variables), {})

    @classmethod
    def constant(cls, c: Scalar, variables: Sequence[str] = ()) -> "MultiPoly":
        return cls._from_pairs(_declare(variables), {(): exact(c)} if c else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): 1})

    def with_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Declare a superset of the variables (sorted internally); the terms are shared."""
        target = _declare(variables)
        missing = set(self.vars) - set(target)
        if missing:
            raise UnknownVariable(f"cannot drop live variables {sorted(missing)}")
        return MultiPoly._from_pairs(target, self.terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.vars)
        big, small = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        terms = dict(big.terms)
        for m, c in small.terms.items():
            s = terms.get(m)
            s = c if s is None else exact(s + c)
            if s:
                terms[m] = s
            else:
                del terms[m]
        return MultiPoly._from_pairs(_union(self.vars, other.vars), terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_pairs(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = exact(other)
            return MultiPoly._from_pairs(self.vars, {m: exact(c * v) for m, v in self.terms.items()} if c else {})
        terms: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = terms.get(m)
                terms[m] = c1 * c2 if s is None else s + c1 * c2
        return MultiPoly._from_pairs(_union(self.vars, other.vars), {m: exact(c) for m, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(1, self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus and substitution --------------------------------------

    def diff(self, name: str) -> "MultiPoly":
        """Partial derivative; zero over the same variables when name is absent."""
        if name not in self.vars:
            return MultiPoly._from_pairs(self.vars, {})
        terms = {}
        for m, c in self.terms.items():
            for i, (v, e) in enumerate(m):
                if v == name:
                    terms[m[:i] + (((v, e - 1),) if e > 1 else ()) + m[i + 1:]] = exact(c * e)
                    break
        return MultiPoly._from_pairs(self.vars, terms)

    def subst(self, name: str, value) -> "MultiPoly":
        """Substitute a variable by a polynomial or scalar; unchanged when name is absent."""
        if name not in self.vars:
            return self
        if not isinstance(value, MultiPoly):
            value = MultiPoly.constant(value)
        rest_vars = tuple(v for v in self.vars if v != name)
        by_power: dict[int, dict[Monomial, Scalar]] = {}
        for m, c in self.terms.items():
            by_power.setdefault(dict(m).get(name, 0), {})[tuple(p for p in m if p[0] != name)] = c
        out = MultiPoly._from_pairs(rest_vars, by_power.pop(0, {}))
        power, done = MultiPoly.constant(1, rest_vars), 0
        for k in sorted(by_power):
            power, done = power * value ** (k - done), k
            out = out + MultiPoly._from_pairs(rest_vars, by_power[k]) * power
        return out

    def subst_zero(self, names: Iterable[str]) -> "MultiPoly":
        """Set the given variables to zero (keeping them in the variable list).

        Names the polynomial does not declare are ignored.
        """
        drop = set(names).intersection(self.vars)
        if not drop:
            return self
        return MultiPoly._from_pairs(
            self.vars, {m: c for m, c in self.terms.items() if all(v not in drop for v, _ in m)}
        )

    def rename(self, mapping: Mapping[str, str]) -> "MultiPoly":
        terms = {tuple(sorted((mapping.get(v, v), e) for v, e in m)): c for m, c in self.terms.items()}
        return MultiPoly._from_pairs(_declare(mapping.get(v, v) for v in self.vars), terms)

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            for v, e in m:
                c *= Fraction(point[v]) ** e
            total += c
        return total

    # -- structure -------------------------------------------------------

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def homogeneous_part(self, d: int) -> "MultiPoly":
        return MultiPoly._from_pairs(
            self.vars, {m: c for m, c in self.terms.items() if sum(e for _, e in m) == d}
        )

    def constant_term(self) -> Scalar:
        return self.terms.get((), 0)

    def coefficient(self, assignment: Mapping[str, int]) -> Scalar:
        m = tuple(sorted((v, e) for v, e in assignment.items() if e and v in self.vars))
        return self.terms.get(m, 0)

    def compact(self) -> "MultiPoly":
        """Drop variables that never occur with positive exponent."""
        live = {v for m in self.terms for v, _ in m}
        return MultiPoly._from_pairs(tuple(v for v in self.vars if v in live), self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """(dense exponent vector over vars, coefficient) pairs in exponent-vector order."""
        return sorted((tuple(dict(m).get(v, 0) for v in self.vars), c) for m, c in self.terms.items())

    def __repr__(self) -> str:
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exp) if e)
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits) or "0"


def linear_subst(
    p: MultiPoly,
    old_names: Sequence[str],
    matrix: Sequence[Sequence[Fraction]],
    new_names: Sequence[str],
) -> MultiPoly:
    """Substitute old_j -> sum_b matrix[j][b] * new_b."""
    out = p.rename({name: "#" + name for name in old_names})
    for name, row in zip(old_names, matrix):
        image = {((v, 1),): exact(a) for v, a in zip(new_names, row) if a != 0}
        out = out.subst("#" + name, MultiPoly._from_pairs(_declare(new_names), image))
    return out
