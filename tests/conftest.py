"""Shared fixtures: small graded modules over the four test groups, and helpers that only tests use."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from gfrob import (
    GradedModule,
    MultiPoly,
    Tensor,
    cyclic_group,
    graded_module,
    symmetric_group,
    trivial_group,
)
from gfrob.braided import BraidedSeries, form_from_poly, series_from_poly
from gfrob.errors import InvalidMorphism
from gfrob.frobenius import GFrobeniusAlgebra, Potential, gfa_from_cubic
from gfrob.groupoid import compose_arrows, gen_arrow, identity_arrow, inverse_gen_arrow
from gfrob.linalg import ZERO, identity, mat, transpose
from gfrob.serialize import frac_to_str, matrix_to_json, module_to_json
from gfrob.singularity import Z, z2_frobenius_algebra, z2_frobenius_manifold


def perm_index(n, perm):
    """Index of a permutation tuple inside symmetric_group(n)'s element order."""
    return sorted(itertools.permutations(range(n))).index(tuple(perm))


def series_from_tensors(h, truncation, tensors):
    """The series on h whose degree-d part is the sum of the given tensors of degree d."""
    parts = {}
    for t in tensors:
        parts[t.n] = parts.get(t.n, Tensor(t.n)) + t
    return BraidedSeries(h, truncation, parts)


def submodule_on_indices(h, indices):
    """Module on a subset of basis vectors whose span is action-invariant.

    Returns the submodule and the inclusion matrix (h.dim x len(indices)).
    """
    idx = list(indices)
    degrees = tuple(h.degrees[j] for j in idx)
    action = []
    for gamma in h.group.elements():
        m = h.action[gamma]
        if any(m[i][j] != 0 and i not in idx for i in range(h.dim) for j in idx):
            raise InvalidMorphism("span of chosen indices is not action-invariant")
        action.append(tuple(tuple(m[i][j] for j in idx) for i in idx))
    incl = tuple(tuple(Fraction(int(i == idx[j])) for j in range(len(idx))) for i in range(h.dim))
    return GradedModule(h.group, degrees, tuple(action)), incl


def gfa_to_json(a: GFrobeniusAlgebra) -> dict:
    """The JSON document of an algebra that gfa_from_json and `gfrob check-gfa` read."""
    return {
        "module": module_to_json(a.module),
        "metric": matrix_to_json(a.metric),
        "mult": [[[frac_to_str(x) for x in a.mult[i][j]] for j in range(a.dim)] for i in range(a.dim)],
        "unit": [frac_to_str(x) for x in a.unit],
    }


def origin_algebra(asm) -> GFrobeniusAlgebra:
    """The algebra of the cubic part of an order-two manifold's potential, rescaled by 3!, with unit -e_0."""
    y3 = form_from_poly(asm.potential.poly.homogeneous_part(3), asm.potential.names, 3).scale(6)
    unit = tuple(Fraction(-int(i == 0)) for i in range(asm.module.dim))
    return gfa_from_cubic(asm.module, asm.metric, y3, unit)


def cubic_form_of(alg) -> Tensor:
    """Y3(v_c, v_b, v_a) = eta(v_a . v_b, v_c) as a tensor on the dual, in the slot order gfa_from_cubic reads."""
    d = alg.dim
    terms = {}
    for a in range(d):
        for b in range(d):
            for cc in range(d):
                val = sum(alg.mult[a][b][k] * alg.metric[k][cc] for k in range(d))
                if val != 0:
                    terms[(cc, b, a)] = val
    return Tensor(3, terms)


def dot(v, w):
    """The dense dot product, a Fraction: an oracle for the sparse products of src/gfrob."""
    return sum((x * y for x, y in zip(v, w)), ZERO)


def mat_vec(a, v):
    """The dense matrix-vector product a v, an oracle for the sparse products of src/gfrob."""
    return tuple(dot(row, v) for row in a)


def mat_mul(a, b):
    """The dense matrix product a b, an oracle for the sparse products of src/gfrob."""
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def zp_trim(f):
    """The coefficient list f without its trailing zeros."""
    while f and not f[-1]:
        f.pop()
    return f


def zp_mul(f, g):
    """The full product of two coefficient lists (index = power of z), each power one sum of products:
    an oracle for the packed Jacobi ring."""
    if not f or not g:
        return []
    return zp_trim([
        MultiPoly.sum_of_products((a, g[k - i]) for i, a in enumerate(f) if a and 0 <= k - i < len(g) and g[k - i])
        for k in range(len(f) + len(g) - 1)
    ])


def zp_reduce(f, fprime):
    """Remainder of the coefficient list f divided by the monic coefficient list fprime of degree n, column by column:
    an oracle for the packed Jacobi ring.

    Top first, q_j = f_{j+n} - sum_{i<n} q_{j+n-i} fprime_i; then r_k = f_k - sum_{i<n} q_{k-i} fprime_i.
    """
    n = len(fprime) - 1
    low = [(i, p) for i, p in enumerate(fprime[:n]) if p]
    neg_q = {}

    def column(k):
        return MultiPoly.sum_of_products([(f[k], 1), *((neg_q[k - i], p) for i, p in low if k - i in neg_q)])

    for j in range(len(f) - n - 1, -1, -1):
        if q := column(j + n):
            neg_q[j] = -q
    return zp_trim([column(k) for k in range(min(len(f), n))])


def pack(coeffs):
    """The coefficient list (index = power of z) as one polynomial in z."""
    return MultiPoly.sum_of_products((c, MultiPoly((Z,), {(k,): 1})) for k, c in enumerate(coeffs) if c)


def unpack(p):
    """The coefficient list (index = power of z) of a polynomial in z, read through by_power."""
    parts = p.by_power(Z)
    return zp_trim([parts.get(k, MultiPoly.zero()) for k in range(max(parts, default=-1) + 1)])


def diag(entries):
    n = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def orbifold_module():
    """dim 4, degrees (e,e,e,g), involution diag(1,1,-1,1)."""
    return z2_frobenius_algebra(3).module


def make_z3_module():
    """dim 4 over Z/3Z: 2-dim untwisted rotation block plus two twisted lines."""
    g = cyclic_group(3)
    rot = [
        [Fraction(0), Fraction(-1), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(-1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
    ]
    rot2 = [
        [Fraction(-1), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(-1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
    ]
    return graded_module(g, (0, 0, 1, 2), [identity(4), rot, rot2])


def make_z2_swap_module():
    """dim 4 over Z/2Z: the involution swaps the untwisted e_0 and e_1 and fixes the untwisted e_2
    and the twisted e_3, so the invariants are spanned by e_0 + e_1, e_2 and e_3."""
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return graded_module(cyclic_group(2), (0, 0, 0, 1), [identity(4), swap])


SWAP_NAMES = ("x0", "x1", "x2", "x3")


def swap_manifold(extra=None):
    """(module, metric, potential) of z2_frobenius_manifold(3) in the basis of make_z2_swap_module.

    The manifold's basis (t_0, t_2, t_1, t_*) becomes (e_0 + e_2, e_0 - e_2, e_1, e_3): the new
    first two vectors are the sums of the fixed t_0 and the sign t_1 vectors, which the involution
    swaps.  So t_0 = x0 + x1, t_1 = x0 - x1, t_2 = x2 and t_* = x3, the metric is pulled back along
    that change of basis, and the potential passes check_pre_gfm.  extra, a MultiPoly in SWAP_NAMES,
    is added to the potential.
    """
    fm = z2_frobenius_manifold(3)
    x = [MultiPoly((v,), {(1,): 1}) for v in SWAP_NAMES]
    t_0, t_2, t_1, t_star = fm.potential.names
    poly = fm.potential.poly.substitute({t_0: x[0] + x[1], t_2: x[2], t_1: x[0] - x[1], t_star: x[3]})
    if extra is not None:
        poly = poly + extra
    change = mat([[1, 1, 0, 0], [0, 0, 1, 0], [1, -1, 0, 0], [0, 0, 0, 1]])  # old coordinate of each new basis vector
    metric = mat_mul(transpose(change), mat_mul(fm.metric, change))
    return make_z2_swap_module(), metric, Potential(SWAP_NAMES, poly.with_vars(SWAP_NAMES))


def swap_broken_term():
    """x0^2 x1^2 / 7, symmetric under the swap: it breaks WDVV on both sectors of swap_manifold."""
    return MultiPoly(("x0", "x1"), {(2, 2): Fraction(1, 7)})


def unvalidated_module(group, degrees, action) -> GradedModule:
    """The module graded_module would build, without its validation, so a test can break an axiom."""
    return GradedModule(group, tuple(degrees), tuple(mat(m) for m in action))


def rescale_basis(h, j, s):
    """The same module in the basis where basis vector j is multiplied by s.

    Rescaling by 1/2 turns entries 1 into 2 or 1/2 wherever vector j meets
    another one, so the common denominator of the action becomes 2.
    """
    scale = [Fraction(1)] * h.dim
    scale[j] = Fraction(s)
    action = [[[m[a][b] * scale[b] / scale[a] for b in range(h.dim)] for a in range(h.dim)] for m in h.action]
    return graded_module(h.group, h.degrees, action)


def has_non_integral_entry(h: GradedModule) -> bool:
    """Whether some entry of some action matrix of h is not an integer."""
    return any(a.denominator != 1 for m in h.action for row in m for a in row)


def make_s3_module(sign_twist: bool = False):
    """dim 4 over S_3: one untwisted line plus the three transposition lines."""
    g = symmetric_group(3)
    trans = [perm_index(3, p) for p in ((1, 0, 2), (2, 1, 0), (0, 2, 1))]
    degrees = (g.identity, trans[0], trans[1], trans[2])
    slot = {d: i for i, d in enumerate(degrees)}
    sign = {}
    for a in g.elements():
        sign[a] = 1
    for p in trans:
        sign[p] = -1
    # sign of each element: transpositions and their products
    perms = sorted(__import__("itertools").permutations(range(3)))
    def parity(p):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        return -1 if inv % 2 else 1
    action = []
    for gamma in g.elements():
        m = [[Fraction(0)] * 4 for _ in range(4)]
        s = parity(perms[gamma]) if sign_twist else 1
        m[0][0] = Fraction(s)
        for d in trans:
            target = g.conj(gamma, d)
            m[slot[target]][slot[d]] = Fraction(s)
        action.append(m)
    return graded_module(g, degrees, action)


def make_s3_regular_module():
    """dim 6 over S_3: basis and degrees the group elements, each element acting by conjugation."""
    g = symmetric_group(3)
    action = [[[int(i == g.conj(s, j)) for j in g.elements()] for i in g.elements()] for s in g.elements()]
    return graded_module(g, tuple(g.elements()), action)


@pytest.fixture(scope="session")
def z3_module():
    return make_z3_module()


@pytest.fixture(scope="session")
def s3_module():
    return make_s3_module()


@pytest.fixture(scope="session")
def s3_module_twisted():
    return make_s3_module(sign_twist=True)


@pytest.fixture(scope="session")
def trivial_modules():
    g = trivial_group()
    return [
        GradedModule(g, (0,), (identity(1),)),
        GradedModule(g, (0, 0, 0), (identity(3),)),
    ]


def random_tensor(rng: random.Random, h: GradedModule, n: int, terms: int = 3) -> Tensor:
    out = {}
    for _ in range(terms):
        idx = tuple(rng.randrange(h.dim) for _ in range(n))
        out[idx] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Tensor(n, out)


def is_symmetric(t: Tensor) -> bool:
    """Every permutation of every index tuple carries the same coefficient."""
    return all(t.terms.get(p, 0) == c for idx, c in t.terms.items() for p in itertools.permutations(idx))


def commutative_product(x, y):
    """Two series of the trivial group multiplied as commutative polynomials and truncated:
    an oracle for circ_product there, independent of braidize."""
    names = tuple(f"s{i}" for i in range(x.module.dim))
    prod = x.as_poly(names) * y.as_poly(names)
    capped = sum((prod.homogeneous_part(d) for d in range(x.truncation + 1)), MultiPoly.zero(names))
    return series_from_poly(x.module, capped, names, x.truncation)


def realize(group, source, word):
    """The arrow a braid word of (generator index, inverted) letters realizes at source."""
    out = identity_arrow(group, source)
    for i, inv in word:
        step = inverse_gen_arrow(group, i, out.target) if inv else gen_arrow(group, i, out.target)
        out = compose_arrows(group, step, out)
    return out


def literal_action(h: GradedModule, gpart, perm, terms) -> dict:
    """(gpart, perm) applied to sparse terms straight from the Fraction action
    matrices: each slot s is acted on by gpart[s] and then moved to slot perm[s]."""
    out = {}
    for idx, c in terms.items():
        images = [[(i, h.action[g][i][j]) for i in range(h.dim) if h.action[g][i][j]] for g, j in zip(gpart, idx)]
        for picks in itertools.product(*images):
            key = [0] * len(idx)
            w = Fraction(c)
            for s, (i, entry) in enumerate(picks):
                key[perm[s]] = i
                w *= entry
            out[tuple(key)] = out.get(tuple(key), Fraction(0)) + w
    return out
