"""The sparse elimination core against a dense Gauss-Jordan loop.

dense_rref below runs column by column: swap a pivot up, scale it, and clear
the column from every other row.  It and the dense rank, nullspace, mat_inv
and solve_columns built on it serve as an independent oracle for
linalg.eliminate and the adapters over it (rref here, the rest in linalg),
on sparse, dense, wide, tall, rank-deficient and empty matrices and on
matrices with zero rows.  The keyed sum linalg.accumulate is checked against
a plain per-key sum, and linalg.cleared against its defining identities.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gfrob import linalg
from gfrob.poly import MultiPoly

from conftest import dot, mat_mul, mat_vec

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows):
    """Dense reduced row echelon form through linalg.eliminate: (nonzero rows, pivot column indices)."""
    width = len(rows[0]) if rows else 0
    reduced = linalg.eliminate(dict(enumerate(r)) for r in rows)
    return [[r.get(j, ZERO) for j in range(width)] for r in reduced.values()], list(reduced)


# -- dense reference ------------------------------------------------------------


def dense_rref(rows):
    m = [list(r) for r in rows]
    pivots = []
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def dense_nullspace(a):
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = dense_rref(a)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def dense_mat_inv(a):
    n = len(a)
    aug = [list(a[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    rows, pivots = dense_rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def dense_solve_columns(a, b):
    ncols = len(a[0])
    rows, pivots = dense_rref([list(row) + [bi] for row, bi in zip(a, b)])
    if ncols in pivots:
        raise ValueError("inconsistent system")
    if pivots != list(range(ncols)):
        raise ValueError("columns are not independent")
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return tuple(x)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


# -- strategies -----------------------------------------------------------------

entries = st.fractions(min_value=-6, max_value=6, max_denominator=5)
KINDS = ("sparse", "dense", "low_rank", "zero_rows")


@st.composite
def matrices(draw, nrows=None, ncols=None, kinds=KINDS):
    nrows = draw(st.integers(0, 7)) if nrows is None else nrows
    ncols = draw(st.integers(0, 7)) if ncols is None else ncols
    kind = draw(st.sampled_from(kinds))

    def block(r, c, nonzero):
        return [[draw(entries) if draw(nonzero) else ZERO for _ in range(c)] for _ in range(r)]

    if kind == "low_rank":
        k = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
        if k == 0:
            return [[ZERO] * ncols for _ in range(nrows)]
        left, right = block(nrows, k, st.just(True)), block(k, ncols, st.just(True))
        return [list(row) for row in mat_mul(left, right)]
    sparse = st.sampled_from((True, False, False, False, False))
    m = block(nrows, ncols, sparse if kind == "sparse" else st.booleans())
    if kind == "zero_rows":
        m = [[ZERO] * ncols if draw(st.booleans()) else row for row in m]
    return m


# -- the adapters against the oracle --------------------------------------------


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_rank_nullspace_match_dense(m):
    assert rref(m) == dense_rref(m)
    assert linalg.rank(m) == len(dense_rref(m)[1])
    assert linalg.nullspace(m) == dense_nullspace(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: matrices(n, n)))
def test_mat_inv_matches_dense(m):
    got, want = outcome(linalg.mat_inv, m), outcome(dense_mat_inv, m)
    assert got == want
    if got[0] == "ok":
        assert mat_mul(got[1], linalg.mat(m)) == linalg.identity(len(m))


def test_mat_inv_singular():
    m = [[ONE, Fraction(2)], [Fraction(2), Fraction(4)]]
    assert outcome(linalg.mat_inv, m) == outcome(dense_mat_inv, m) == ("error", "matrix is singular")


def dense_solve_many(a, bs):
    """dense_solve_columns column by column, with one error for the whole system.

    An inconsistent column is reported before dependent columns of a, as
    one elimination of a and every column together finds it.
    """
    outcomes = [outcome(dense_solve_columns, a, b) for b in bs]
    errors = sorted({msg for kind, msg in outcomes if kind == "error"}, key=lambda msg: msg != "inconsistent system")
    if errors:
        raise ValueError(errors[0])
    if dense_rref(a)[1] != list(range(len(a[0]))):
        raise ValueError("columns are not independent")
    return [x for _, x in outcomes]


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(lambda shape: matrices(*shape)), st.data())
def test_solve_columns_matches_dense(a, data):
    bs = []
    for k in range(data.draw(st.integers(0, 4), label="right-hand sides")):
        if data.draw(st.booleans(), label=f"consistent {k}"):
            x = [data.draw(entries) for _ in a[0]]
            bs.append([sum((p * q for p, q in zip(row, x)), ZERO) for row in a])
        else:
            bs.append([data.draw(entries) for _ in a])
    assert outcome(linalg.solve_columns, a, bs) == outcome(dense_solve_many, a, bs)


def test_solve_columns_inconsistent_and_dependent():
    a = [[ONE, ZERO], [ZERO, ONE], [ONE, ONE]]
    assert outcome(linalg.solve_columns, a, [[ONE, ONE, ZERO]]) == ("error", "inconsistent system")
    dep = [[ONE, Fraction(2)], [Fraction(3), Fraction(6)]]
    assert outcome(linalg.solve_columns, dep, [[ONE, Fraction(3)]]) == ("error", "columns are not independent")
    for m, b in ((a, [ONE, ONE, ZERO]), (dep, [ONE, Fraction(3)])):
        assert outcome(linalg.solve_columns, m, [b]) == outcome(dense_solve_many, m, [b])
    good, bad = [ONE, Fraction(2), Fraction(3)], [ONE, ONE, ZERO]
    assert linalg.solve_columns(a, [good]) == [(ONE, Fraction(2))]
    assert linalg.solve_columns(a, [good, [ZERO] * 3, good]) == [(ONE, Fraction(2)), (ZERO, ZERO), (ONE, Fraction(2))]
    for bs in ([good, bad], [bad, good], [bad, [x * 2 for x in bad]]):
        assert outcome(linalg.solve_columns, a, bs) == ("error", "inconsistent system")
    assert outcome(linalg.solve_columns, dep, []) == ("error", "columns are not independent")
    assert linalg.solve_columns(a, []) == []


def test_empty_matrices():
    for m in ([], [[]], [[], [], []]):
        assert rref(m) == dense_rref(m) == ([], [])
        assert linalg.rank(m) == 0
        assert linalg.nullspace(m) == dense_nullspace(m) == []
    assert linalg.mat_inv(()) == dense_mat_inv(()) == ()


# -- the core itself ------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_eliminate_is_canonical_and_sparse(m, rnd):
    """The same RREF for any row order; rows store no zeros and no other pivot."""
    rows = [dict(enumerate(r)) for r in m]
    reduced = linalg.eliminate(rows)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert linalg.eliminate(shuffled) == reduced
    assert list(reduced) == sorted(reduced) == dense_rref(m)[1]
    for p, row in reduced.items():
        assert row[p] == 1 and min(row) == p
        assert all(x != 0 for x in row.values())
        assert not (set(row) - {p}) & set(reduced)
    assert rows == [dict(enumerate(r)) for r in m]  # inputs are left alone


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_vectors_solve_the_system(m):
    width = len(m[0]) if m else 0
    basis = linalg.kernel(linalg.eliminate(dict(enumerate(r)) for r in m), width)
    assert len(basis) == width - linalg.rank(m)
    for v in basis:
        assert all(sum((row[c] * x for c, x in v.items()), ZERO) == 0 for row in m)


@st.composite
def products(draw):
    """a (n x k), b (k x m) with some columns zeroed, and a k-vector v, for k from 0."""
    inner = draw(st.integers(0, 5))
    a, b = draw(matrices(ncols=inner)), draw(matrices(nrows=inner))
    zeroed = [draw(st.booleans()) for _ in range(len(b[0]) if b else 0)]
    b = [[ZERO if z else x for x, z in zip(row, zeroed)] for row in b]
    return a, b, [draw(entries) if draw(st.booleans()) else ZERO for _ in range(inner)]


def dense(w, n):
    """The sparse vector {row: entry} as n dense entries."""
    return tuple(w.get(i, ZERO) for i in range(n))


@settings(max_examples=150, deadline=None)
@given(products())
def test_columns_and_apply_match_dense(case):
    """linalg.columns holds each column's nonzero entries, an int exactly
    where one is integral, and a matrix with no rows has no columns.
    linalg.apply gives the dense a v, and apply over the columns of b gives
    the dense a b column by column; the conftest oracles return Fractions,
    also for zero rows, zero columns and an empty inner dimension."""
    a, b, v = case
    cols = linalg.columns(a)
    assert cols == ([[(i, row[j]) for i, row in enumerate(a) if row[j]] for j in range(len(v))] if a else [])
    assert all(type(x) is (int if x.denominator == 1 else Fraction) for col in cols for _, x in col)
    assert all(type(dot(row, v)) is Fraction for row in a)
    if a:
        av = linalg.apply(cols, enumerate(v))
        assert all(av.values()) and dense(av, len(a)) == mat_vec(a, v)
        want = mat_mul(a, b)
        got = [dense(linalg.apply(cols, col), len(a)) for col in linalg.columns(b)]
        assert len(got) == (len(b[0]) if b else 0)
        assert got == [tuple(row[j] for row in want) for j in range(len(got))]
        assert all(type(x) is Fraction for row in want for x in row)


big = st.integers(-(2**64), 2**64)
mixed_entries = st.one_of(
    st.integers(-6, 6),
    entries,
    big,
    st.builds(Fraction, big, st.integers(1, 2**64)),
)


@st.composite
def integer_like_rows(draw):
    """Rows of ints, of ints mixed with Fractions, with entries up to 2^64,
    and rows scaled by a common factor; zeros dropped at random."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("int", "mixed", "big", "common_factor")))
    cell = {"int": st.integers(-6, 6), "mixed": mixed_entries, "big": big, "common_factor": st.integers(-6, 6)}[kind]
    m = [[draw(cell) if draw(st.booleans()) else 0 for _ in range(ncols)] for _ in range(nrows)]
    if kind == "common_factor":
        m = [[x * draw(st.sampled_from((2, 6, 2**64, -35))) for x in row] for row in m]
    if draw(st.booleans()):
        return m, [dict(enumerate(r)) for r in m]
    return m, [{c: x for c, x in enumerate(r) if x} for r in m]


@settings(max_examples=200, deadline=None)
@given(integer_like_rows())
def test_eliminate_integer_and_mixed_rows_match_dense(case):
    """Fraction-free elimination gives the dense oracle's RREF, in Fractions
    with pivot 1, on int, mixed and large rows, and leaves its input alone."""
    m, rows = case
    before = [[(c, type(x), x) for c, x in r.items()] for r in rows]
    reduced = linalg.eliminate(rows)
    assert [[(c, type(x), x) for c, x in r.items()] for r in rows] == before
    want_rows, want_pivots = dense_rref([[Fraction(x) for x in r] for r in m])
    assert list(reduced) == want_pivots
    width = len(m[0]) if m else 0
    assert [[row.get(j, ZERO) for j in range(width)] for row in reduced.values()] == want_rows
    for p, row in reduced.items():
        assert type(row[p]) is Fraction and row[p] == 1
        assert all(type(x) is Fraction and x != 0 for x in row.values())


def test_eliminate_clears_a_common_factor():
    """A row with content 2^64 and an int row reduce to the same Fraction RREF."""
    rows = [{0: 2**64, 1: 3 * 2**64}, {0: Fraction(1, 3), 2: 5}]
    reduced = linalg.eliminate(rows)
    assert reduced == {0: {0: ONE, 2: Fraction(15)}, 1: {1: ONE, 2: Fraction(-5)}}
    assert rows == [{0: 2**64, 1: 3 * 2**64}, {0: Fraction(1, 3), 2: 5}]


# -- accumulate and cleared ------------------------------------------------------

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-2, 2), max_size=3
).map(lambda terms: MultiPoly(("x", "y"), terms))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(st.integers(-3, 3), 0), (fractions, ZERO), (polys, MultiPoly.zero())]).flatmap(
        lambda kind: st.tuples(st.lists(st.tuples(st.integers(0, 4), kind[0]), max_size=12), st.just(kind[1]))
    ),
    st.randoms(use_true_random=False),
)
def test_accumulate_is_the_per_key_sum_without_zeros(case, rnd):
    """int, Fraction and MultiPoly values: the plain per-key sum with its zero sums dropped, in any term order."""
    terms, zero = case
    want = {}
    for key, x in terms:
        want[key] = want.get(key, zero) + x
    want = {key: x for key, x in want.items() if x}
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert linalg.accumulate(terms) == want
    assert linalg.accumulate(iter(shuffled)) == want


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.one_of(fractions, st.integers(-5, 5))))
def test_cleared_numerators_over_the_lcm(terms):
    """Integer numerators over the lcm of the denominators, which recover every nonzero entry; zeros are dropped."""
    nums, den = linalg.cleared(terms)
    assert den == math.lcm(*(x.denominator for x in terms.values()))
    assert all(type(c) is int for c in nums.values())
    assert set(nums) == {k for k, x in terms.items() if x}
    assert all(Fraction(nums[k], den) == terms[k] for k in nums)
