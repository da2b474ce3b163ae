"""modules.slot_apply_into against the literal Kronecker product and slot permutation.

The kernel puts every slot of a term in result order with one itemgetter and
then patches only the slots whose matrix is not the identity.  The reference
below takes the definition instead: every entry of M_1 (x) ... (x) M_n, the
product of one entry per slot, moved by the slot permutation (slot s of the
product lands in slot perm[s] of the result) and summed into a pre-filled
dict.  Both skip the structural zeros of the matrices only, so the two dicts
must be equal key for key, down to the type of every value: an integral
action on int terms stays int, and a Fraction appears only where a Fraction
entry or coefficient went in.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gfrob.modules import slot_apply_into


def slot_apply_reference(d, mats, perm, terms, out):
    """out plus P_perm . (M_1 (x) ... (x) M_n) . terms, each M_s a dense d x d matrix or None for the identity."""
    n = len(perm)
    result = dict(out)
    for idx, c in terms.items():
        for image in itertools.product(range(d), repeat=n):
            entries = [m[image[s]][idx[s]] if m is not None else int(image[s] == idx[s]) for s, m in enumerate(mats)]
            if not all(entries):
                continue
            w = c
            for x in entries:
                w = w * x
            key = [0] * n
            for s in range(n):
                key[perm[s]] = image[s]
            key = tuple(key)
            result[key] = result[key] + w if key in result else w
    return result


def sparse_columns(m):
    """The nonzero (row, entry) pairs of each column, every entry kept as drawn."""
    return [[(i, m[i][j]) for i in range(len(m)) if m[i][j]] for j in range(len(m))]


INTS = st.integers(-3, 3)
FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))


@st.composite
def slot_matrix(draw, d):
    """None (the identity), a diagonal of +-1, a signed permutation, or a dense int or Fraction matrix."""
    kind = draw(st.sampled_from(["identity", "diagonal", "signed permutation", "int", "fraction"]))
    if kind == "identity":
        return None
    if kind == "diagonal":
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
        return [[signs[i] if i == j else 0 for j in range(d)] for i in range(d)]
    if kind == "signed permutation":
        sigma = draw(st.permutations(range(d)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
        return [[signs[j] if i == sigma[j] else 0 for j in range(d)] for i in range(d)]
    entries = INTS if kind == "int" else st.one_of(FRACTIONS, st.just(0))
    return [draw(st.lists(entries, min_size=d, max_size=d)) for _ in range(d)]


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(0, 4))
    d = draw(st.integers(1, 3))
    mats = [draw(slot_matrix(d)) for _ in range(n)]
    perm = draw(st.one_of(st.just(range(n)), st.permutations(range(n))))
    indices = st.tuples(*[st.integers(0, d - 1)] * n)
    coefficient = st.one_of(INTS, FRACTIONS)
    terms = draw(st.dictionaries(indices, coefficient, max_size=6))
    out = draw(st.dictionaries(indices, coefficient, max_size=3))
    return d, mats, perm, terms, out


def typed(values):
    return {key: (x, type(x)) for key, x in values.items()}


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_slot_kernel_matches_the_kronecker_reference(case):
    d, mats, perm, terms, out = case
    got = dict(out)
    slot_apply_into([None if m is None else sparse_columns(m) for m in mats], perm, terms, got)
    assert typed(got) == typed(slot_apply_reference(d, mats, perm, terms, out))


@settings(max_examples=100, deadline=None)
@given(kernel_cases())
def test_an_integral_action_on_int_terms_returns_ints(case):
    _, mats, perm, terms, _ = case
    mats = [m if m is None or all(type(x) is int for row in m for x in row) else None for m in mats]
    terms = {idx: int(c) for idx, c in terms.items()}
    got = {}
    slot_apply_into([None if m is None else sparse_columns(m) for m in mats], perm, terms, got)
    assert all(type(x) is int for x in got.values())
