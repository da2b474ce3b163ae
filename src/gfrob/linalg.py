"""Exact linear algebra over Fraction, on one sparse Gauss-Jordan core.

Matrices are tuples of tuples of Fraction; vectors are tuples of Fraction.
Every elimination runs through `eliminate`, which takes rows as sparse dicts
(column -> nonzero entry) and returns the reduced row echelon form keyed by
pivot column.  The systems met here are sparse: the rows of the br_basis
blocks, -e_t + b_i(e_t), hold a few nonzeros among hundreds of columns, and
working on nonzeros only is what makes those blocks cheap.  The reduced form
is unique, so every kernel basis read from it is canonical.  `rref`, `rank`,
`nullspace`, `mat_inv` and `solve_columns` are thin dense adapters over it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
Row = dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Sequence) -> Vec:
    return tuple(Fraction(e) for e in entries)


def mat(rows: Sequence[Sequence]) -> Mat:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    if not a:
        return ()
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum((x * y for x, y in zip(row, col) if x and y), ZERO) for col in bt) for row in a)


def mat_vec(a: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), ZERO) for row in a)


def _sub_multiple(target: Row, f: Fraction, row: Row) -> None:
    """target -= f * row, dropping the entries that cancel."""
    for c, x in row.items():
        y = target.get(c, ZERO) - f * x
        if y:
            target[c] = y
        else:
            del target[c]


def eliminate(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, Row]:
    """Sparse Gauss-Jordan: the reduced row echelon form of the rows.

    Rows map column -> entry (zero entries are dropped).  Each incoming row
    is reduced by the pivot rows so far, takes its least column as a new
    pivot, and that column is then cleared from the earlier pivot rows.
    Returns {pivot column: reduced row} in ascending pivot order; each row
    is 1 at its pivot and 0 at every other pivot column, so the result is
    the unique RREF of the row space whatever the order of the input.

    holders maps each non-pivot column to the pivot rows that may hold it
    (a superset: entries that cancel are not removed), so clearing a new
    pivot column visits those rows only, not every earlier pivot row.
    """
    reduced: dict[int, Row] = {}
    holders: dict[int, set[int]] = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        for p in [c for c in r if c in reduced]:
            _sub_multiple(r, r[p], reduced[p])
        if not r:
            continue
        p = min(r)
        inv = ONE / r[p]
        r = {c: x * inv for c, x in r.items()}
        others = [c for c in r if c != p]
        for q in holders.pop(p, ()):
            f = reduced[q].get(p)
            if f:
                _sub_multiple(reduced[q], f, r)
                for c in others:
                    holders.setdefault(c, set()).add(q)
        for c in others:
            holders.setdefault(c, set()).add(p)
        reduced[p] = r
    return dict(sorted(reduced.items()))


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


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    width = len(rows[0]) if rows else 0
    reduced = eliminate(dict(enumerate(r)) for r in rows)
    return [_dense(r, width) for r in reduced.values()], list(reduced)


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


def solve_columns(a: Mat, b: Sequence[Fraction]) -> Vec:
    """The unique x with a x = b, for a of full column rank.

    Raises ValueError if the system is inconsistent or the columns of a are
    dependent.
    """
    width = len(a[0]) if a else 0
    reduced = eliminate({**dict(enumerate(row)), width: bi} for row, bi in zip(a, b))
    if width in reduced:
        raise ValueError("inconsistent system")
    if list(reduced) != list(range(width)):
        raise ValueError("columns are not independent")
    return tuple(row.get(width, ZERO) for row in reduced.values())
