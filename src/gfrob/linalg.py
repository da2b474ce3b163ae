"""Small exact linear algebra over Fraction.

Matrices are tuples of tuples of Fraction; vectors are tuples of Fraction.
Everything is dense and exact -- sizes here are tiny (module dimensions and
tensor blocks), so plain Gaussian elimination is enough.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

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
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
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


def rank(a: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(a)[1])


def nullspace(a: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Basis of the right kernel, one vector per free column (canonical)."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def mat_inv(a: Mat) -> Mat:
    n = len(a)
    aug = [list(a[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def solve_columns(a: Mat, b: Sequence[Fraction]) -> Vec:
    """Least structure solve for full-column-rank a (e.g. coordinates in a subbasis).

    Raises ValueError if the system is inconsistent or underdetermined.
    """
    ncols = len(a[0])
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        raise ValueError("inconsistent system")
    if pivots != list(range(ncols)):
        raise ValueError("columns are not independent")
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return tuple(x)
