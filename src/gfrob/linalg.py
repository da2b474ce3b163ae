"""Exact linear algebra over Fraction, on one sparse fraction-free Gauss-Jordan core.

Matrices are tuples of tuples of Fraction; vectors are tuples of Fraction.
Every elimination runs through `eliminate`: sparse rows (column -> nonzero
int or Fraction) in, the unique reduced row echelon form in Fractions out,
with integer arithmetic in between.  Working on nonzeros only keeps the
sparse br_basis systems cheap, and the unique form makes every kernel basis
read from it canonical.  `rank`, `nullspace`, `mat_inv` and
`solve_columns` are thin dense adapters over it.

`columns`, `apply`, `accumulate` and `cleared` are the one sparse layer: a
matrix as the nonzero (row, entry) pairs of each column, M v for a sparse v,
the per-key sum of (key, value) terms, and rationals cleared to integers
over one denominator.  Every action, matrix product and metric pullback
reads them; `inclusion` and `pullback_metric`, computed over the columns of
the inclusion, restrict a metric to a subspace.  `apply` keeps its own sum:
it is the matrix-vector kernel behind every module validation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
Row = dict[int, Fraction]
IntRow = dict[int, int]
Columns = list[list[tuple[int, int | Fraction]]]  # columns[j] = nonzero (row, entry of M) pairs

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Sequence) -> Vec:
    """The entries as Fractions; an entry that already is one is kept, not rebuilt."""
    return tuple(e if isinstance(e, Fraction) else Fraction(e) for e in entries)


def mat(rows: Sequence[Sequence]) -> Mat:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    if not a:
        return ()
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def columns(m: Sequence[Sequence[Fraction]]) -> Columns:
    """The sparse columns of m, each entry an int where it is integral; a matrix with no rows has none."""
    return [[(i, a.numerator if a.denominator == 1 else a) for i, a in enumerate(col) if a] for col in zip(*m)]


def apply(cols: Columns, v: Iterable[tuple[int, int | Fraction]]) -> dict[int, int | Fraction]:
    """M v as {row: nonzero entry}, for M given by its sparse columns and v by its (index, entry) pairs."""
    out: dict[int, int | Fraction] = {}
    for j, y in v:
        for i, x in cols[j]:
            out[i] = out.get(i, 0) + x * y
    return {i: x for i, x in out.items() if x}


def accumulate(terms: Iterable[tuple]) -> dict:
    """The sums of the (key, value) terms per key, without the sums that are zero; values need only `+` and truth."""
    out: dict = {}
    for key, x in terms:
        out[key] = out[key] + x if key in out else x
    return {key: x for key, x in out.items() if x}


def cleared(terms: Mapping) -> tuple[dict, int]:
    """The nonzero rationals of terms as integer numerators over their one least common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items() if c}, den


def _sub_multiple(target: IntRow, f: int, row: IntRow) -> None:
    """target -= f * row, dropping the entries that cancel."""
    for c, x in row.items():
        y = target.get(c, 0) - f * x
        if y:
            target[c] = y
        else:
            del target[c]


def _primitive(row: IntRow) -> IntRow:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {c: x // g for c, x in row.items()}


def eliminate(rows: Iterable[Mapping[int, int | Fraction]]) -> dict[int, Row]:
    """Sparse fraction-free Gauss-Jordan: the reduced row echelon form of the rows.

    Rows map column -> int or Fraction (zeros dropped) and are not modified.
    Each row is cleared to integers by `cleared` and reduced by the pivot
    rows R_p it meets: with L the lcm of their pivot entries d_p it becomes
    L r - sum_p (L r[p] / d_p) R_p, exact since pivot rows vanish at each
    other's pivots.  Made primitive, it pivots on its least column, which
    is cleared from the earlier pivot rows as a R_q - b r (Bareiss 1968).
    Each row is divided by its pivot entry once, at the end, so the result,
    {pivot column: row of Fractions} in ascending order, is the unique RREF
    whatever the order of the input.

    holders maps each non-pivot column to the pivot rows that may hold it
    (a superset), so clearing a new pivot column visits those rows only.
    """
    reduced: dict[int, IntRow] = {}
    holders: dict[int, set[int]] = {}
    for row in rows:
        r = cleared(row)[0]
        hit = [p for p in r if p in reduced]
        if hit:
            scale = lcm(*(reduced[p][p] for p in hit))
            coefs = [(r[p] * (scale // reduced[p][p]), reduced[p]) for p in hit]
            if scale != 1:
                r = {c: x * scale for c, x in r.items()}
            for f, pivot_row in coefs:
                _sub_multiple(r, f, pivot_row)
        if not r:
            continue
        r = _primitive(r)
        p = min(r)
        d = r[p]
        others = [c for c in r if c != p]
        for q in holders.pop(p, ()):
            f = reduced[q].get(p)
            if f:
                g = gcd(d, f)
                a = d // g
                target = {c: x * a for c, x in reduced[q].items()} if a != 1 else reduced[q]
                _sub_multiple(target, f // g, r)
                reduced[q] = _primitive(target)
                for c in others:
                    holders.setdefault(c, set()).add(q)
        for c in others:
            holders.setdefault(c, set()).add(p)
        reduced[p] = r
    out: dict[int, Row] = {}
    for p in sorted(reduced):
        r = reduced[p]
        d = r[p]
        out[p] = {c: ONE if c == p else Fraction(x, d) for c, x in r.items()}
    return out


def kernel(reduced: Mapping[int, Row], width: int) -> list[Row]:
    """Sparse basis of the right kernel of an eliminated system.

    One vector per free column f < width, in ascending order of f:
    e_f - sum over pivots p of reduced[p][f] e_p.
    """
    basis = {f: {f: ONE} for f in range(width) if f not in reduced}
    for p, row in reduced.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return list(basis.values())


def _dense(row: Mapping[int, Fraction], width: int) -> list[Fraction]:
    return [row.get(j, ZERO) for j in range(width)]


def rank(a: Sequence[Sequence[Fraction]]) -> int:
    return len(eliminate(dict(enumerate(r)) for r in a))


def nullspace(a: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Basis of the right kernel, one vector per free column (canonical)."""
    if not a:
        return []
    width = len(a[0])
    reduced = eliminate(dict(enumerate(r)) for r in a)
    return [tuple(_dense(v, width)) for v in kernel(reduced, width)]


def mat_inv(a: Mat) -> Mat:
    n = len(a)
    reduced = eliminate({**dict(enumerate(row)), n + i: ONE} for i, row in enumerate(a))
    if list(reduced) != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row.get(n + j, ZERO) for j in range(n)) for row in reduced.values())


def solve_columns(a: Mat, bs: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """The unique x with a x = b for each b in bs, for a of full column rank, from one elimination of a | bs.

    Raises ValueError if a system is inconsistent or the columns of a are dependent.
    """
    width = len(a[0]) if a else 0
    rows = ({**dict(enumerate(row)), **{width + k: b[i] for k, b in enumerate(bs)}} for i, row in enumerate(a))
    reduced = eliminate(rows)
    if any(p >= width for p in reduced):
        raise ValueError("inconsistent system")
    if list(reduced) != list(range(width)):
        raise ValueError("columns are not independent")
    return [tuple(row.get(width + k, ZERO) for row in reduced.values()) for k in range(len(bs))]


def inclusion(basis: Sequence[Vec], dim: int) -> Mat:
    """The dim x len(basis) matrix whose columns are the basis vectors."""
    return tuple(tuple(v[i] for v in basis) for i in range(dim))


def pullback_metric(eta: Mat, incl: Mat) -> Mat:
    """incl^T eta incl, over the sparse columns of incl: the metric eta restricted to the span of those columns."""
    cols, eta_cols = columns(incl), columns(eta)
    moved = [apply(eta_cols, q) for q in cols]  # the columns of eta incl
    return tuple(tuple(sum((x * w[i] for i, x in p if i in w), ZERO) for w in moved) for p in cols)
