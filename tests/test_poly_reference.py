"""MultiPoly against a dense reference on polynomials over different variable sets.

DensePoly below is the earlier representation: dense exponent vectors over
the polynomial's own sorted variable tuple, realigned by name on every mixed
operation.  It serves as an independent oracle for the packed MultiPoly,
down to the declared variables that poly_to_json writes.  DensePoly holds
every coefficient as a Fraction; MultiPoly must store an integral one as an
int and any other as a Fraction, and never a float, after every operation.
Near the guard bit (exponents up to 2^31 - 1), every MultiPoly result either
matches the oracle or raises SizeLimit; none carries into a neighbouring field.
MultiPoly.sum_of_products must equal the loop `acc = acc + a * b` it replaces,
and refuse exactly when one of its products reaches 2^31.  The z-polynomial
product zp_mul cut at z^top must equal the full product cut there.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gfrob import MultiPoly, flat_coordinates
from gfrob.braided import form_from_poly
from gfrob.errors import SizeLimit, UnknownVariable
from gfrob.serialize import poly_to_json
from gfrob.singularity import inverse_series_potential, zp_mul, zp_trim

# -- dense reference ------------------------------------------------------------


class DensePoly:
    def __init__(self, variables, terms):
        order = tuple(sorted(variables))
        if len(set(order)) != len(order):
            raise ValueError("duplicate variable names")
        remap = [order.index(v) for v in variables]
        clean = {}
        for exp, c in terms.items():
            new = [0] * len(order)
            for pos, e in zip(remap, exp):
                new[pos] = e
            clean[tuple(new)] = clean.get(tuple(new), Fraction(0)) + Fraction(c)
        self.vars = order
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def constant(cls, c, variables=()):
        return cls(variables, {tuple([0] * len(variables)): c})

    def with_vars(self, variables):
        target = tuple(sorted(variables))
        if set(self.vars) - set(target):
            raise UnknownVariable("cannot drop variables")
        pos = [target.index(v) for v in self.vars]
        terms = {}
        for exp, c in self.terms.items():
            new = [0] * len(target)
            for p, e in zip(pos, exp):
                new[p] = e
            terms[tuple(new)] = c
        return DensePoly(target, terms)

    @staticmethod
    def _aligned(a, b):
        union = tuple(sorted(set(a.vars) | set(b.vars)))
        return a.with_vars(union), b.with_vars(union)

    def __add__(self, other):
        if not isinstance(other, DensePoly):
            other = DensePoly.constant(other, self.vars)
        a, b = DensePoly._aligned(self, other)
        terms = dict(a.terms)
        for exp, c in b.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        return DensePoly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return DensePoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, DensePoly):
            other = DensePoly.constant(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, DensePoly):
            return DensePoly(self.vars, {e: Fraction(other) * c for e, c in self.terms.items()})
        a, b = DensePoly._aligned(self, other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return DensePoly(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = DensePoly.constant(1, self.vars)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        a, b = DensePoly._aligned(self, other)
        return a.terms == b.terms

    def diff(self, name):
        if name not in self.vars:
            return DensePoly(self.vars, {})
        i = self.vars.index(name)
        terms = {}
        for exp, c in self.terms.items():
            if exp[i]:
                new = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
                terms[new] = c * exp[i]
        return DensePoly(self.vars, terms)

    def subst(self, name, value):
        if name not in self.vars:
            return self
        i = self.vars.index(name)
        if not isinstance(value, DensePoly):
            value = DensePoly.constant(value)
        rest_vars = tuple(v for v in self.vars if v != name)
        out = DensePoly(rest_vars, {})
        powers = {0: DensePoly.constant(1, rest_vars)}
        for k in range(1, max((e[i] for e in self.terms), default=0) + 1):
            powers[k] = powers[k - 1] * value
        for exp, c in self.terms.items():
            rest = exp[:i] + exp[i + 1:]
            out = out + DensePoly(rest_vars, {rest: c}) * powers[exp[i]]
        return out

    def subst_zero(self, names):
        idx = [self.vars.index(n) for n in names if n in self.vars]
        return DensePoly(self.vars, {e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)})

    def rename(self, mapping):
        return DensePoly(tuple(mapping.get(v, v) for v in self.vars), dict(self.terms))

    def eval(self, point):
        total = Fraction(0)
        for exp, c in self.terms.items():
            val = c
            for v, e in zip(self.vars, exp):
                val *= Fraction(point[v]) ** e
            total += val
        return total

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def homogeneous_part(self, d):
        return DensePoly(self.vars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def constant_term(self):
        return self.terms.get(tuple([0] * len(self.vars)), Fraction(0))

    def coefficient(self, assignment):
        return self.terms.get(tuple(assignment.get(v, 0) for v in self.vars), Fraction(0))

    def compact(self):
        live = [i for i in range(len(self.vars)) if any(e[i] for e in self.terms)]
        return DensePoly(
            tuple(self.vars[i] for i in live), {tuple(e[i] for i in live): c for e, c in self.terms.items()}
        )

    def sorted_terms(self):
        return sorted(self.terms.items())


def dense_substitute(p, images):
    """Substitute every named variable at once: rename each to a '#' temporary, then substitute one at a time."""
    live = [name for name in images if name in p.vars]
    out = p.rename({name: "#" + name for name in live})
    for name in live:
        out = out.subst("#" + name, images[name])
    return out


def linear_images(old_names, matrix, new_names, cls):
    """old_j -> sum_b matrix[j][b] * new_b, each a polynomial of class cls declaring all of new_names."""
    units = [tuple(int(k == b) for k in range(len(new_names))) for b in range(len(new_names))]
    return {name: cls(new_names, dict(zip(units, row))) for name, row in zip(old_names, matrix)}


# -- strategies ------------------------------------------------------------------

POOL = ("a", "b", "c", "d")
HIGH = 2**31  # the first exponent a MultiPoly refuses
# ints, integral Fractions and non-integral Fractions, mixed
coefs = st.one_of(
    st.integers(-4, 4),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


near_guard = st.one_of(st.integers(0, 3), st.integers(HIGH - 4, HIGH - 1))


@st.composite
def pairs(draw, count=2, exponents=st.integers(0, 3)):
    """Both representations of `count` polynomials, each over its own variable subset."""
    out = []
    for _ in range(count):
        names = draw(st.permutations(POOL))[: draw(st.integers(0, len(POOL)))]
        exps = st.tuples(*[exponents] * len(names))
        terms = draw(st.dictionaries(exps, coefs, max_size=4))
        out.append((MultiPoly(names, terms), DensePoly(names, terms)))
    return out


def stored_exactly(p: MultiPoly) -> bool:
    """Every stored coefficient is a nonzero int or a Fraction that is not integral."""
    return all(
        c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
        for c in p.terms.values()
    )


def same(p: MultiPoly, ref: DensePoly) -> bool:
    return stored_exactly(p) and poly_to_json(p) == poly_to_json(ref) and p.sorted_terms() == ref.sorted_terms()


def agrees(compute, ref: DensePoly, strict: bool = True) -> bool:
    """compute() matches ref, or raises SizeLimit; with strict, only when ref has an exponent >= 2^31."""
    try:
        got = compute()
    except SizeLimit:
        return not strict or any(e >= HIGH for exp in ref.terms for e in exp)
    return same(got, ref)


def dense_monomial_subst(ref, old_names, matrix, new_names):
    """Linear substitution for rows with at most one nonzero entry, an int, without expanding any power."""
    live = [j for j, name in enumerate(old_names) if name in ref.vars]
    rest = [v for v in ref.vars if v not in old_names]
    moved = any(exp[ref.vars.index(old_names[j])] for exp in ref.terms for j in live)
    out_vars = rest + [b for b in new_names if b not in rest] if moved else rest
    terms = {}
    for exp, c in ref.terms.items():
        e = dict(zip(ref.vars, exp))
        for j, k in [(j, e.pop(old_names[j])) for j in live]:  # all old exponents out before any new one goes in
            b = next((i for i, a in enumerate(matrix[j]) if a), None)
            c *= 0**k if b is None else matrix[j][b] ** k
            if b is not None:
                e[new_names[b]] = e.get(new_names[b], 0) + k
        key = tuple(e.get(v, 0) for v in out_vars)
        terms[key] = terms.get(key, 0) + c
    return DensePoly(out_vars, terms)


# -- properties ------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(pairs(), coefs, st.integers(0, 3))
def test_arithmetic_matches_dense(polys, k, power):
    (p, rp), (q, rq) = polys
    assert same(p + q, rp + rq)
    assert same(p - q, rp - rq)
    assert same(p * q, rp * rq)
    assert same(p ** power, rp ** power)
    assert same(p + k, rp + k) and same(k - p, k - rp) and same(p * k, rp * k)
    assert same(MultiPoly.constant(k, p.vars), DensePoly.constant(k, rp.vars))
    assert (p == q) == (rp == rq)
    if p == q:
        assert hash(p) == hash(q)


@settings(max_examples=150, deadline=None)
@given(pairs(), st.data())
def test_calculus_and_substitution_match_dense(polys, data):
    (p, rp), (q, rq) = polys
    for name in POOL:
        c = data.draw(coefs)
        assert same(p.diff(name), rp.diff(name))
        assert same(p.subst(name, q), rp.subst(name, rq))
        assert same(p.subst(name, c), rp.subst(name, c))
        if name not in p.vars:  # absent: zero derivative, substitution returns p
            assert not p.diff(name) and p.diff(name).vars == p.vars
            assert same(p.subst(name, q), rp) and same(p.subst(name, c), rp) and same(p.subst_zero([name]), rp)
    zeros = data.draw(st.lists(st.sampled_from(POOL), unique=True))
    assert same(p.subst_zero(zeros), rp.subst_zero(zeros))


@settings(max_examples=150, deadline=None)
@given(pairs(count=1), st.data())
def test_structure_matches_dense(polys, data):
    [(p, rp)] = polys
    for d in range(5):
        assert same(p.homogeneous_part(d), rp.homogeneous_part(d))
    assert same(p.compact(), rp.compact())
    assert p.total_degree() == rp.total_degree()
    assert p.constant_term() == rp.constant_term()
    assignment = data.draw(st.dictionaries(st.sampled_from(POOL), st.integers(0, 3)))
    assert p.coefficient(assignment) == rp.coefficient(assignment)
    point = data.draw(st.fixed_dictionaries({v: coefs for v in POOL}))
    value = p.eval(point)
    assert type(value) is Fraction and value == rp.eval(point)
    image = data.draw(st.permutations(POOL + ("u", "w")))
    renamed = p.substitute({a: MultiPoly.variable(b) for a, b in zip(POOL, image)})
    assert same(renamed, dense_substitute(rp, {a: DensePoly((b,), {(1,): 1}) for a, b in zip(POOL, image)}))
    extra = data.draw(st.sets(st.sampled_from(POOL + ("u",))))
    assert same(p.with_vars(set(p.vars) | extra), rp.with_vars(set(rp.vars) | extra))


@settings(max_examples=100, deadline=None)
@given(pairs(count=1), st.data())
def test_linear_subst_matches_dense(polys, data):
    [(p, rp)] = polys
    old = data.draw(st.permutations(POOL))
    new = data.draw(st.sampled_from([("u", "w"), ("a", "u"), ("b", "a", "c")]))
    matrix = [[data.draw(coefs) for _ in new] for _ in old]
    images = linear_images(old, matrix, new, MultiPoly)
    assert same(p.substitute(images), dense_substitute(rp, linear_images(old, matrix, new, DensePoly)))


@settings(max_examples=150, deadline=None)
@given(pairs(count=4), st.data())
def test_substitute_matches_dense(polys, data):
    """Up to three variables at once, each by a polynomial of degree up to 3 (which may hold the
    substituted variables) or a scalar.

    The terms match the oracle.  The declared variables are the rest of p's and
    those of the image of each variable that occurs in p; the oracle's can
    differ where an intermediate result is zero, which drops what its later
    images would declare.
    """
    (p, rp), *rest = polys
    names = data.draw(st.permutations(POOL + ("u",)))
    images, dense = {}, {}
    for name, (q, rq) in zip(names, rest):
        if data.draw(st.booleans()):
            q = rq = data.draw(coefs)
        images[name], dense[name] = q, rq
    got = p.substitute(images)
    assert same(got.compact(), dense_substitute(rp, dense).compact()) and stored_exactly(got)
    declared = set(p.vars).difference(images)
    for name in images:
        if p.diff(name):
            declared.update(getattr(images[name], "vars", ()))
    assert set(got.vars) == declared


@settings(max_examples=150, deadline=None)
@given(pairs(exponents=near_guard), st.integers(0, 3), st.data())
def test_near_guard_bit_matches_dense_or_refuses(polys, power, data):
    """Exponents from {0..3} and {2^31-4 .. 2^31-1}: exact results, or SizeLimit, never a wrapped term."""
    (p, rp), (q, rq) = polys
    assert agrees(lambda: p * q, rp * rq) and agrees(lambda: p ** power, rp ** power)
    assert agrees(lambda: p + q, rp + rq) and agrees(lambda: p - q, rp - rq)
    for d in {sum(exp) for exp in rp.terms}:
        assert agrees(lambda: p.homogeneous_part(d), rp.homogeneous_part(d))
    assert agrees(p.compact, rp.compact()) and p.total_degree() == rp.total_degree()
    assignment = data.draw(st.dictionaries(st.sampled_from(POOL), near_guard))
    assert p.coefficient(assignment) == rp.coefficient(assignment)
    for name in POOL:
        assert agrees(lambda: p.diff(name), rp.diff(name)) and agrees(lambda: p.subst_zero([name]), rp.subst_zero([name]))
        # Moving an exponent onto another variable: groups that would cancel may each overflow first.
        target = data.draw(st.sampled_from(POOL))
        ref = dense_monomial_subst(rp, (name,), [[1]], (target,))
        assert agrees(lambda: p.subst(name, MultiPoly.variable(target)), ref, strict=False)
    old = data.draw(st.permutations(POOL))
    new = data.draw(st.sampled_from([("u", "w"), ("a", "u"), ("b", "a", "c")]))
    matrix = [[0] * len(new) for _ in old]
    for row in matrix:
        b = data.draw(st.integers(-1, len(new) - 1))
        if b >= 0:
            row[b] = data.draw(st.sampled_from([-1, 1]))  # any other entry to a power near 2^31 is too large
    ref = dense_monomial_subst(rp, old, matrix, new)
    assert agrees(lambda: p.substitute(linear_images(old, matrix, new, MultiPoly)), ref, strict=False)


@st.composite
def product_lists(draw, exponents=st.integers(0, 3)):
    """Both representations of up to four pairs (a, b), with b a polynomial or a scalar.

    A pair may be followed by its negation (a, -b), so that products cancel across pairs.
    """
    polys = draw(pairs(count=8, exponents=exponents))
    out = []
    for (a, ra), (b, rb) in zip(polys[0::2], polys[1::2][: draw(st.integers(0, 4))]):
        scalar = draw(st.one_of(st.none(), st.just(0), coefs))
        if scalar is not None:
            b = rb = scalar
        out.append(((a, b), (ra, rb)))
        if draw(st.booleans()):
            out.append(((a, -b), (ra, -rb)))
    return out


def loop_sum(products, variables, zero):
    """The hand loop that sum_of_products replaces."""
    acc = zero(tuple(sorted(variables)))
    for a, b in products:
        acc = acc + a * b
    return acc


def reaches_guard(ra: DensePoly, rb) -> bool:
    """Some monomial of the product ra * rb, before any cancellation, has an exponent >= 2^31."""
    if not isinstance(rb, DensePoly):
        return False
    ra, rb = DensePoly._aligned(ra, rb)
    return any(x + y >= HIGH for e1 in ra.terms for e2 in rb.terms for x, y in zip(e1, e2))


@settings(max_examples=150, deadline=None)
@given(product_lists(), st.sets(st.sampled_from(POOL + ("u",))))
def test_sum_of_products_matches_the_accumulation_loop(products, variables):
    """Terms, declared variables and exact storage, with cancelling pairs, scalar factors and empty lists."""
    polys = [p for p, _ in products]
    ref = loop_sum([r for _, r in products], variables, lambda names: DensePoly.constant(0, names))
    got = MultiPoly.sum_of_products(polys, variables)
    loop = loop_sum(polys, variables, MultiPoly.zero)
    assert same(got, ref) and same(loop, ref) and got.vars == loop.vars


@settings(max_examples=150, deadline=None)
@given(product_lists(exponents=near_guard))
def test_sum_of_products_refuses_exactly_when_a_product_reaches_the_guard_bit(products):
    """Also where every product cancels against its negation in a later pair."""
    polys = [p for p, _ in products]
    cancelled = polys + [(a, -b) for a, b in polys]
    if any(reaches_guard(ra, rb) for _, (ra, rb) in products):
        for listed in (polys, cancelled):
            with pytest.raises(SizeLimit):
                MultiPoly.sum_of_products(listed)
        with pytest.raises(SizeLimit):
            loop_sum(polys, (), MultiPoly.zero)
    else:
        ref = loop_sum([r for _, r in products], (), lambda names: DensePoly.constant(0, names))
        assert same(MultiPoly.sum_of_products(polys), ref)
        assert not MultiPoly.sum_of_products(cancelled)


def test_sum_of_products_edge_cases():
    x = MultiPoly.variable("a")
    big = MultiPoly(("a",), {(HIGH - 1,): 1})
    with pytest.raises(SizeLimit):  # each product reaches 2^31, although the two cancel
        MultiPoly.sum_of_products([(big, x), (big, -x)])
    assert MultiPoly.sum_of_products([(big, 3), (big, Fraction(-3))]).vars == ("a",)
    cancelled = MultiPoly.sum_of_products([(x, x), (x, -x)], ("b",))
    assert not cancelled and cancelled.vars == ("a", "b")
    assert MultiPoly.sum_of_products([]).vars == () and not MultiPoly.sum_of_products([])
    assert MultiPoly.sum_of_products([(x, 0)]).vars == ("a",) and not MultiPoly.sum_of_products([(x, 0)])
    half = MultiPoly.sum_of_products([(x, Fraction(1, 2)), (x, Fraction(1, 2)), (x, x)])
    assert half.sorted_terms() == [((1,), 1), ((2,), 1)] and stored_exactly(half)


@st.composite
def zpolys(draw):
    """A z-polynomial of up to four coefficients over different variable subsets, zero ones included."""
    return [p for p, _ in draw(pairs(count=draw(st.integers(0, 4)), exponents=st.integers(0, 2)))]


ONE, A = MultiPoly.constant(1), MultiPoly.variable("a")


@settings(max_examples=150, deadline=None)
@given(zpolys(), zpolys(), st.integers(-3, 9))
@example([], [], 2)
@example([A], [], 0)
@example([ONE, A], [A], -1)
@example([ONE, A], [A], -5)
@example([ONE, A], [ONE, A, A], 10)  # beyond the full degree 3
@example([A, A], [ONE, -ONE], 1)  # a(1 + z)(1 - z) = a - a z^2: the cut lands on a cancelled coefficient
def test_truncated_zp_mul_is_the_cut_full_product(f, g, top):
    """zp_mul(f, g, top) is the full product cut after z^top, declared variables included; [] for top < 0."""
    want = zp_trim(zp_mul(f, g)[: top + 1]) if top >= 0 else []
    assert [(p.vars, p.terms) for p in zp_mul(f, g, top)] == [(p.vars, p.terms) for p in want]


def test_registry_survives_cache_resets():
    """Clearing every gfrob cache, as the benchmark's resetter does, leaves live polynomials intact."""
    import gfrob.cli  # noqa: F401  (every gfrob module, with its caches)

    p = MultiPoly(("x_reset", "y_reset"), {(2, 1): 3, (0, 5): Fraction(1, 2)})
    before = p.sorted_terms()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gfrob" or name.startswith("gfrob.")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                value.cache_clear()
            elif "cache" in attr and isinstance(value, dict):
                value.clear()
    assert p.sorted_terms() == before
    q = MultiPoly(("z_reset", "x_reset"), {(1, 1): 1})  # a name registered after the reset
    assert (p * q).vars == ("x_reset", "y_reset", "z_reset")
    assert (p * q).sorted_terms() == [((1, 5, 1), Fraction(1, 2)), ((3, 1, 1), 3)]


# -- regressions at the two division sites that see MultiPoly coefficients -----


def test_form_from_poly_divides_exactly():
    """t_0 t_1 t_2 has the int coefficient 1; each of its 6 orderings weighs 1/6, not a float."""
    names = ("t_0", "t_1", "t_2")
    form = form_from_poly(MultiPoly(names, {(1, 1, 1): 1}), names, 3)
    assert len(form.terms) == 6
    assert all(type(w) is Fraction and w == Fraction(1, 6) for w in form.terms.values())


def test_inverse_series_potential_stores_exact_coefficients():
    pot = inverse_series_potential(flat_coordinates(5))
    assert stored_exactly(pot)
    assert {type(c) for c in pot.terms.values()} == {int, Fraction}
