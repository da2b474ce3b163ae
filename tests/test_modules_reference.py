"""validate_module against the earlier dense check, on valid and broken modules.

validate_module_reference below is the earlier body of modules.validate_module:
the homomorphism axiom as dense Fraction products rho(a) rho(b), and a rank
for every rho(g).  It serves as an independent oracle for the check on the
sparse columns of rho(g), which computes ranks only when the homomorphism
or identity axiom fails.  The modules are the Z2, Z3 and S3 fixtures in a
random block-preserving basis (so the action is non-integral), optionally
broken by a perturbed entry, a singular rho(g), a broken grading, swapped
matrices or an idempotent action; the two verdicts must be equal, down to
the failure string, and so must the self-invariance witnesses.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gfrob import graded_module, linalg, self_invariance_witness, validate_module
from gfrob.modules import Verdict
from gfrob.singularity import z2_frobenius_algebra

from conftest import has_non_integral_entry, make_s3_module, make_z3_module, mat_mul, unvalidated_module

# -- dense reference ------------------------------------------------------------


def validate_module_reference(h) -> Verdict:
    g = h.group
    d = h.dim
    rho, elements, e = h.action, list(g.elements()), g.identity
    cells = [(i, j) for i in range(d) for j in range(d)]
    witnesses = {
        "homomorphism axiom": next(
            (f"(a, b) = ({a}, {b})" for a in elements for b in elements
             if rho[g.mul(a, b)] != mat_mul(rho[a], rho[b])),
            None,
        ),
        "identity axiom": next((f"(i, j) = ({i}, {j})" for i, j in cells if rho[e][i][j] != int(i == j)), None),
        "grading axiom": next(
            (f"g = {gamma}, (i, j) = ({i}, {j})" for gamma in elements for i, j in cells
             if rho[gamma][i][j] != 0 and h.degrees[i] != g.conj(gamma, h.degrees[j])),
            None,
        ),
        "invertible axiom": next((f"g = {gamma}" for gamma in elements if linalg.rank(rho[gamma]) != d), None),
    }
    return Verdict(witnesses)


def self_invariance_reference(h):
    g = h.group
    d = h.dim
    rho, elements = h.action, list(g.elements())
    self_inv = None
    for gamma in elements:
        m = rho[gamma]
        for j in h.block_indices(gamma):
            for i in range(d):
                want = Fraction(1) if i == j else Fraction(0)
                if m[i][j] != want and self_inv is None:
                    self_inv = f"g = {gamma}, (i, j) = ({i}, {j})"
    return self_inv


# -- strategies -----------------------------------------------------------------

BASES = {
    "z2": z2_frobenius_algebra(3).module,
    "z2-wide": z2_frobenius_algebra(4).module,
    "z3": make_z3_module(),
    "s3": make_s3_module(),
    "s3-sign": make_s3_module(sign_twist=True),
}
SCALES = [Fraction(x) for x in ("1", "-1", "2", "-1/2", "3/2", "1/3", "-5/4")]
SMALL = st.sampled_from([Fraction(x) for x in ("1", "-1", "2", "1/2", "-3/5", "7")])
MUTATIONS = ("none", "entry", "singular", "grading", "swap", "idempotent")


@st.composite
def modules(draw):
    """(degrees, action, mutation): a fixture in a random graded basis, maybe broken."""
    h = BASES[draw(st.sampled_from(sorted(BASES)))]
    g, d, degrees = h.group, h.dim, h.degrees
    # P = diag(s) (I + c E_ij) with deg i = deg j preserves every degree block
    p = [[draw(st.sampled_from(SCALES)) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    same = [(i, j) for i in range(d) for j in range(d) if i != j and degrees[i] == degrees[j]]
    if same and draw(st.booleans()):
        i, j = draw(st.sampled_from(same))
        p[i][j] = draw(SMALL)
    p = linalg.mat(p)
    p_inv = linalg.mat_inv(p)
    action = [[list(r) for r in mat_mul(p_inv, mat_mul(m, p))] for m in h.action]

    mutation = draw(st.sampled_from(MUTATIONS))
    gamma = draw(st.sampled_from(list(g.elements())))
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    if mutation == "entry":
        action[gamma][i][j] += draw(SMALL)
    elif mutation == "singular":
        for row in action[gamma]:
            row[j] = Fraction(0)
    elif mutation == "grading":
        off = [(a, b) for a in range(d) for b in range(d) if degrees[a] != g.conj(gamma, degrees[b])]
        if off:
            a, b = draw(st.sampled_from(off))
            action[gamma][a][b] += draw(SMALL)
    elif mutation == "swap":
        other = draw(st.sampled_from(list(g.elements())))
        action[gamma], action[other] = action[other], action[gamma]
    elif mutation == "idempotent":
        # rho(g) = E for every g with E^2 = E: a homomorphism with singular values
        keep = draw(st.lists(st.booleans(), min_size=d, max_size=d))
        action = [[[Fraction(int(a == b and keep[a])) for b in range(d)] for a in range(d)] for _ in g.elements()]
    return h.group, degrees, action, mutation


@settings(max_examples=300, deadline=None)
@given(modules())
def test_validate_module_matches_dense_reference(case):
    group, degrees, action, mutation = case
    h = unvalidated_module(group, degrees, action)
    rep = validate_module(h)
    ref = validate_module_reference(h)
    assert rep == ref and list(rep.checks) == list(ref.checks) and rep.failure == ref.failure
    assert self_invariance_witness(h) == self_invariance_reference(h)
    if mutation == "none":
        assert rep.passed and rep.failure is None


def test_basis_change_makes_non_integral_actions():
    """The strategy reaches modules whose action has a non-integral entry."""
    h = BASES["z3"]
    s = [Fraction(1), Fraction(1, 2), Fraction(1), Fraction(1)]
    action = [[[m[a][b] * s[b] / s[a] for b in range(h.dim)] for a in range(h.dim)] for m in h.action]
    scaled = graded_module(h.group, h.degrees, action)
    assert has_non_integral_entry(scaled)
    assert validate_module(scaled) == validate_module_reference(scaled)
    assert self_invariance_witness(scaled) == self_invariance_reference(scaled)
