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
from gfrob.braided import BraidedSeries, series_from_poly
from gfrob.errors import InvalidMorphism
from gfrob.frobenius import GFrobeniusAlgebra
from gfrob.groupoid import compose_arrows, gen_arrow, identity_arrow, inverse_gen_arrow
from gfrob.linalg import identity, mat
from gfrob.serialize import frac_to_str, matrix_to_json, module_to_json
from gfrob.singularity import z2_frobenius_algebra


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
