"""Sparse multivariate polynomials over exact rationals.

A MultiPoly declares a variable tuple, sorted by name (which fixes a canonical
serialization), and maps monomials to nonzero coefficients.  A coefficient is
stored as a Python int when it is integral and as a Fraction only when it is
not (`exact` is the one normalization, applied wherever a coefficient is
stored), so integer products and sums run on CPython ints; true division of a
coefficient must go through Fraction.  A monomial is one int, the sum of
e_v * 2^(32 * index(v)) (packed exponent vectors, after Monagan and Pearce),
with index(v) the place of v in a process-wide registry of variable names,
which only grows and is never cleared.  Keys do not depend on the declared
variables: binary operations declare the union of the two tuples and never
rewrite a term.  sum_of_products makes every product and linear combination
of products, each monomial product one int addition.  Exponents are below
2^31; a product reaching 2^31 in the guard bit atop each field raises
SizeLimit instead of carrying into the next.  Other modules read terms
through sorted_terms (dense exponent vectors over the declared variables),
homogeneous_part, coefficient, compact and by_power.  An undeclared variable
is absent: its derivative is zero, and substituting it returns the
polynomial unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import prod
from typing import Iterable, Mapping, Sequence, Union

from .errors import SizeLimit, UnknownVariable

Scalar = Union[int, Fraction]
_MASK, _BOUND = (1 << 32) - 1, 1 << 31  # a field, and its guard bit that no exponent reaches
_offsets: dict[str, int] = {}  # the registry: variable name -> bit offset of its field
_guard = [0]  # the guard bits of all registered fields, updated in place so no module name is rebound


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
    for v in order:
        if v not in _offsets:
            _guard[0] |= _BOUND << _offsets.setdefault(v, 32 * len(_offsets))
    return order


def _union(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    return a if a == b or not b else b if not a else tuple(sorted(set(a).union(b)))


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Scalar]):
        """Polynomial from dense exponent vectors, one entry per given variable."""
        variables = tuple(variables)
        order = _declare(variables)
        offsets = [_offsets[v] for v in variables]
        clean: dict[int, Scalar] = {}
        for exp, c in terms.items():
            if len(exp) != len(order):
                raise ValueError("exponent vector length mismatch")
            if not all(0 <= e < _BOUND for e in exp):
                raise ValueError("negative exponent") if min(exp) < 0 else SizeLimit(f"exponent {max(exp)} >= 2^31")
            c = exact(c)
            if c:
                clean[sum(e << s for s, e in zip(offsets, exp))] = c
        object.__setattr__(self, "vars", order)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _wrap(cls, variables: tuple[str, ...], terms: dict[int, Scalar]) -> "MultiPoly":
        """Wrap a sorted, registered variable tuple and packed nonzero `exact` terms as they are."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", variables)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "MultiPoly":
        return cls._wrap(_declare(variables), {})

    @classmethod
    def constant(cls, c: Scalar, variables: Sequence[str] = ()) -> "MultiPoly":
        return cls._wrap(_declare(variables), {0: exact(c)} if c else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): 1})

    def with_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Declare a superset of the variables (sorted internally); the terms are shared."""
        target = _declare(variables)
        missing = set(self.vars) - set(target)
        if missing:
            raise UnknownVariable(f"cannot drop live variables {sorted(missing)}")
        return MultiPoly._wrap(target, self.terms)

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
        return MultiPoly._wrap(_union(self.vars, other.vars), terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._wrap(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        return MultiPoly.sum_of_products(((self, other),))

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple], variables: Sequence[str] = ()) -> "MultiPoly":
        """Sum a * b over the pairs (a, b), where a is a MultiPoly and b a MultiPoly or scalar, in one dict.

        The guard bits are checked once, over every product monomial before any
        cancellation, so SizeLimit is raised exactly when some pair's product
        reaches 2^31; coefficients are normalized by `exact` once.  The result
        declares `variables` and the variables of every operand.
        """
        terms: dict[int, Scalar] = {}
        get = terms.get
        order = _declare(variables) if variables else ()
        for a, b in pairs:
            order = _union(order, a.vars)
            if isinstance(b, MultiPoly):
                order = _union(order, b.vars)
                right = b.terms.items()
                for m1, c1 in a.terms.items():
                    for m2, c2 in right:
                        m = m1 + m2
                        s = get(m)
                        terms[m] = c1 * c2 if s is None else s + c1 * c2
            elif c := exact(b):
                for m, v in a.terms.items():
                    s = get(m)
                    terms[m] = c * v if s is None else s + c * v
        if reduce(int.__or__, terms, 0) & _guard[0]:  # factor fields are below 2^31: no sum carries
            raise SizeLimit("a product has an exponent of 2^31 or more")
        return MultiPoly._wrap(order, {m: exact(c) for m, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        result, base = MultiPoly.constant(1, self.vars), self
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
            return MultiPoly._wrap(self.vars, {})
        s = _offsets[name]
        terms = {m - (1 << s): exact(c * e) for m, c in self.terms.items() if (e := m >> s & _MASK)}
        return MultiPoly._wrap(self.vars, terms)

    def by_power(self, name: str) -> dict[int, "MultiPoly"]:
        """{k: the coefficient of name^k} in ascending k, each over the other variables; {0: self} if name is absent."""
        if name not in self.vars:
            return {0: self}
        s, parts = _offsets[name], {}
        rest_bits = ~(_MASK << s)
        for m, c in self.terms.items():
            parts.setdefault(m >> s & _MASK, {})[m & rest_bits] = c
        rest = tuple(v for v in self.vars if v != name)
        return {k: MultiPoly._wrap(rest, parts[k]) for k in sorted(parts)}

    def substitute(self, images: Mapping[str, object]) -> "MultiPoly":
        """Substitute polynomials or scalars for variables, all at once; names not declared are ignored.

        Terms are grouped by their exponents in the substituted fields, and the
        result is one sum_of_products over the groups: each pairs its rest
        coefficients with the product of its image powers (1 for the group
        with none).  Each power of an image that occurs is built from the next
        lower one that occurs, so an exponent k costs O(log k) products.
        """
        live = {_offsets[v]: img if isinstance(img, MultiPoly) else MultiPoly.constant(img)
                for v, img in images.items() if v in self.vars}
        if not live:
            return self
        mask = sum(_MASK << s for s in live)
        rest_vars = tuple(v for v in self.vars if _offsets[v] not in live)
        by_part: dict[int, dict[int, Scalar]] = {}
        for m, c in self.terms.items():
            by_part.setdefault(m & mask, {})[m & ~mask] = c
        powers: dict[tuple[int, int], MultiPoly] = {}
        for s, img in live.items():
            power, done = MultiPoly.constant(1, rest_vars), 0
            for k in sorted({part >> s & _MASK for part in by_part} - {0}):
                power, done = power * img ** (k - done), k
                powers[s, k] = power
        pairs = []
        for part, rest in by_part.items():
            images = [powers[s, k] for s in live if (k := part >> s & _MASK)]
            pairs.append((MultiPoly._wrap(rest_vars, rest), reduce(MultiPoly.__mul__, images) if images else 1))
        return MultiPoly.sum_of_products(pairs, rest_vars)

    def subst(self, name: str, value) -> "MultiPoly":
        """Substitute one variable by a polynomial or scalar; unchanged when name is absent."""
        return self.substitute({name: value})

    def subst_zero(self, names: Iterable[str]) -> "MultiPoly":
        """Set the given variables to zero, keeping them declared; names not declared are ignored."""
        mask = sum(_MASK << _offsets[v] for v in set(names).intersection(self.vars))
        if not mask:
            return self
        return MultiPoly._wrap(self.vars, {m: c for m, c in self.terms.items() if not m & mask})

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        monomials = ((c, zip(self.vars, exp)) for exp, c in self.sorted_terms())
        return sum((c * prod(Fraction(point[v]) ** e for v, e in ves if e) for c, ves in monomials), Fraction(0))

    # -- structure -------------------------------------------------------

    def total_degree(self) -> int:
        return max((sum(exp) for exp, _ in self.sorted_terms()), default=0)

    def homogeneous_part(self, d: int) -> "MultiPoly":
        offsets = [_offsets[v] for v in self.vars]
        terms = {m: c for m, c in self.terms.items() if sum(m >> s & _MASK for s in offsets) == d}
        return MultiPoly._wrap(self.vars, terms)

    def constant_term(self) -> Scalar:
        return self.terms.get(0, 0)

    def coefficient(self, assignment: Mapping[str, int]) -> Scalar:
        fields = [(_offsets[v], e) for v, e in assignment.items() if e and v in self.vars]
        return self.terms.get(sum(e << s for s, e in fields), 0) if all(0 < e < _BOUND for _, e in fields) else 0

    def compact(self) -> "MultiPoly":
        """Drop variables that never occur with positive exponent."""
        live = reduce(int.__or__, self.terms, 0)
        return MultiPoly._wrap(tuple(v for v in self.vars if (live >> _offsets[v]) & _MASK), self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """(dense exponent vector over vars, coefficient) pairs in exponent-vector order."""
        offsets = [_offsets[v] for v in self.vars]
        return sorted((tuple((m >> s) & _MASK for s in offsets), c) for m, c in self.terms.items())

    def __repr__(self) -> str:
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exp) if e)
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits) or "0"
