"""Acceptance criteria, one test per criterion, each printing a verdict line.

Everything here is exact rational arithmetic; the only tolerances are the
wall-clock budgets stated alongside the criteria.
"""

import random
import time
from fractions import Fraction
from math import comb

from gfrob import (
    MultiPoly,
    Potential,
    br_basis,
    braid_act,
    braidize,
    check_gfa,
    check_pre_gfm,
    circ_product,
    dual_module,
    enumerate_component,
    flat_coordinates,
    flat_metric,
    invariants_basis,
    is_braided,
    milnor_ring,
    pair,
    potential_A,
    potential_D,
    subalgebras,
    wdvv_check,
)
from gfrob.braided import pullback_tensor, restrict_invariants, restrict_untwisted
from gfrob.singularity import TSTAR, potential_D_metric, z2_frobenius_algebra, z2_frobenius_manifold

from conftest import (
    commutative_product,
    diag,
    is_symmetric,
    make_s3_module,
    make_z3_module,
    random_tensor,
    series_from_tensors,
    submodule_on_indices,
)


def verdict(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def var(name):
    return MultiPoly.variable(name)


def test_criterion_1_flat_coordinates():
    start = time.monotonic()
    ch3 = flat_coordinates(3)
    ok = ch3.a_of_t == (
        -var("t_0") + var("t_2") ** 2 * Fraction(1, 2),
        -var("t_1"),
        -var("t_2"),
    )
    ok = ok and ch3.t_of_a == (
        -var("a0") + var("a2") ** 2 * Fraction(1, 2),
        -var("a1"),
        -var("a2"),
    )
    # the second displayed table belongs to the five-parameter unfolding
    ch5 = flat_coordinates(5)
    t = [var(f"t_{i}") for i in range(5)]
    a = [var(f"a{i}") for i in range(5)]
    ok = ok and ch5.a_of_t == (
        -t[0] + t[3] ** 2 * Fraction(1, 2) + t[2] * t[4] - t[4] ** 3 * Fraction(1, 3),
        -t[1] + t[3] * t[4] * 2,
        -t[2] + t[4] ** 2 * Fraction(3, 2),
        -t[3],
        -t[4],
    )
    ok = ok and ch5.t_of_a == (
        -a[0] + a[3] ** 2 * Fraction(1, 2) + a[2] * a[4] - a[4] ** 3 * Fraction(7, 6),
        -a[1] + a[3] * a[4] * 2,
        -a[2] + a[4] ** 2 * Fraction(3, 2),
        -a[3],
        -a[4],
    )
    # the four-parameter chart has no displayed table; pin the exact round trip
    ch4 = flat_coordinates(4)
    for m in range(4):
        expr = ch4.a_of_t[m]
        for j in range(3, -1, -1):
            if ch4.t_names[j] in expr.vars:
                expr = expr.subst(ch4.t_names[j], ch4.t_of_a[j])
        ok = ok and expr == var(ch4.a_names[m])
    elapsed = time.monotonic() - start
    verdict(1, "flat coordinates", ok and elapsed < 1.0)


def test_criterion_2_potentials():
    start = time.monotonic()
    t = {i: var(f"t_{i}") for i in range(5)}
    ts = var(TSTAR)
    phi_a3 = (
        t[0] ** 2 * t[2] * Fraction(-1, 2)
        + t[0] * t[1] ** 2 * Fraction(-1, 2)
        + t[1] ** 2 * t[2] ** 2 * Fraction(-1, 4)
        + t[2] ** 5 * Fraction(-1, 60)
    )
    phi_a5 = (
        t[0] ** 2 * t[4] * Fraction(-1, 2)
        - t[0] * t[1] * t[3]
        + t[0] * t[2] ** 2 * Fraction(-1, 2)
        + t[1] ** 2 * t[2] * Fraction(-1, 2)
        + t[1] ** 2 * t[4] ** 2 * Fraction(-1, 4)
        - t[1] * t[2] * t[3] * t[4]
        + t[1] * t[3] ** 3 * Fraction(-1, 6)
        + t[2] ** 3 * t[4] * Fraction(-1, 6)
        + t[2] ** 2 * t[3] ** 2 * Fraction(-1, 2)
        + t[2] ** 2 * t[4] ** 3 * Fraction(-1, 6)
        + t[2] * t[3] ** 2 * t[4] ** 2 * Fraction(-1, 2)
        + t[3] ** 4 * t[4] * Fraction(-1, 6)
        + t[3] ** 2 * t[4] ** 4 * Fraction(-1, 8)
        + t[4] ** 7 * Fraction(-1, 210)
    )
    phi_d3 = (
        t[0] ** 2 * t[2] * Fraction(-1, 2)
        + t[0] * ts ** 2 * Fraction(1, 2)
        + t[2] ** 2 * ts ** 2 * Fraction(-1, 4)
        + t[2] ** 5 * Fraction(-1, 60)
    )
    phi_d4 = (
        t[0] ** 2 * t[4] * Fraction(-1, 2)
        + t[0] * t[2] ** 2 * Fraction(-1, 2)
        + t[0] * ts ** 2 * Fraction(1, 2)
        + t[2] ** 3 * t[4] * Fraction(-1, 6)
        + t[2] * t[4] * ts ** 2 * Fraction(-1, 2)
        + t[2] ** 2 * t[4] ** 3 * Fraction(-1, 6)
        + ts ** 2 * t[4] ** 3 * Fraction(1, 6)
        + t[4] ** 7 * Fraction(-1, 210)
    )
    ok = potential_A(3).poly == phi_a3
    ok = ok and potential_A(5).poly == phi_a5
    ok = ok and potential_D(3).poly == phi_d3
    ok = ok and potential_D(4).poly == phi_d4
    ok = ok and potential_A(5).poly.coefficient({"t_4": 7}) == Fraction(-1, 210)
    elapsed = time.monotonic() - start
    verdict(2, "potentials monomial-for-monomial", ok and elapsed < 10.0)


def test_criterion_3_wdvv():
    start = time.monotonic()
    ok = wdvv_check(potential_A(3), flat_metric(3)).passed
    ok = ok and wdvv_check(potential_A(5), flat_metric(5)).passed
    ok = ok and wdvv_check(potential_D(3), potential_D_metric(3)).passed
    ok = ok and wdvv_check(potential_D(4), potential_D_metric(4)).passed
    pa5 = potential_A(5)
    bump = Fraction(-1, 5) - Fraction(-1, 6)
    perturbed = pa5.poly + MultiPoly(pa5.names, {(0, 0, 0, 4, 1): bump})
    rep = wdvv_check(Potential(pa5.names, perturbed), flat_metric(5))
    ok = ok and not rep.passed and len(rep.witnesses) > 0
    elapsed = time.monotonic() - start
    verdict(3, "WDVV with perturbation witness", ok and elapsed < 30.0)


def test_criterion_4_orbifold_algebras():
    start = time.monotonic()
    ok = True
    for n in range(3, 7):
        alg = z2_frobenius_algebra(n)
        ok = ok and check_gfa(alg).passed
        _, inv = subalgebras(alg)
        ring = milnor_ring("D", n)
        ok = ok and inv.mult == ring.mult
        ok = ok and inv.metric == ring.metric
    elapsed = time.monotonic() - start
    verdict(4, "orbifold algebra axioms and invariants ring", ok and elapsed < 5.0)


def test_criterion_5_structure_round_trip():
    ok = True
    for n in (3, 4):
        fm = z2_frobenius_manifold(n)
        asm = fm.assembly
        ok = ok and check_pre_gfm(asm.module, asm.metric, Potential(asm.names, asm.potential)).passed
        ok = ok and fm.matches_algebra
        d = fm.assembly.module.dim
        ok = ok and fm.origin_algebra.metric == fm.algebra.metric
        ok = ok and all(
            fm.origin_algebra.mult[a][b][k] == -fm.algebra.mult[a][b][k]
            for a in range(d) for b in range(d) for k in range(d)
        )
    verdict(5, "structure theorem round trip", ok)


def _acceptance_modules():
    from gfrob import GradedModule, cyclic_group, graded_module, trivial_group
    from gfrob.linalg import identity

    triv = trivial_group()
    z2 = cyclic_group(2)
    mods = [
        ("trivial-1", GradedModule(triv, (0,), (identity(1),))),
        ("trivial-3", GradedModule(triv, (0, 0, 0), (identity(3),))),
        ("order2-orbifold", z2_frobenius_algebra(3).module),
        ("order2-signed-twist", graded_module(z2, (0, 0, 0, 1), [identity(4), diag([1, 1, -1, -1])])),
        ("order3-rotation", make_z3_module()),
        ("sym3-permutation", make_s3_module()),
        ("sym3-sign-twist", make_s3_module(sign_twist=True)),
    ]
    return mods


def _morphisms_for(h):
    """Certified endomorphisms / inclusions used for functoriality checks."""
    from gfrob.linalg import identity
    from gfrob.modules import is_morphism

    out = [(h, identity(h.dim))]
    scaled = tuple(
        tuple(Fraction(3) if i == j else Fraction(0) for j in range(h.dim))
        for i in range(h.dim)
    )
    if is_morphism(h, h, scaled):
        out.append((h, scaled))
    e_idx = h.untwisted_indices()
    if 0 < len(e_idx) < h.dim:
        try:
            sub, incl = submodule_on_indices(h, e_idx)
            out.append((sub, incl))
        except Exception:
            pass
    return out


def test_criterion_6_braidization_property_suite():
    rng = random.Random(2024)
    failures = []
    duality_pairs = 0

    for name, h in _acceptance_modules():
        g = h.group
        hd = dual_module(h)
        heavy = g.order > 3
        for n in (2, 3, 4):
            trials = 1 if (heavy and n == 4) else 3
            size = 1 if (heavy and n == 4) else 2
            for _ in range(trials):
                v = random_tensor(rng, h, n, size)
                b = braidize(h, v)
                if braidize(h, b) != b:
                    failures.append((name, n, "idempotent"))
                if not is_braided(h, b):
                    failures.append((name, n, "invariant"))
                i = rng.randrange(1, n)
                if braidize(h, braid_act(h, i, v)) != b:
                    failures.append((name, n, "orbit-constant"))
                if braidize(h, braid_act(h, i, v, inverse=True)) != b:
                    failures.append((name, n, "orbit-constant-inverse"))

        # associativity of the projector across juxtaposition
        for shape in ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)):
            v, w, z = (random_tensor(rng, h, k, 1) for k in shape)
            lhs = braidize(h, braidize(h, v.juxt(w)).juxt(z))
            rhs = braidize(h, v.juxt(braidize(h, w.juxt(z))))
            if lhs != rhs:
                failures.append((name, shape, "associativity"))

        # functoriality along certified morphisms src -> h
        for src, m in _morphisms_for(h):
            push = tuple(zip(*m))  # index pushforward uses the transpose
            for n in (2, 3):
                v = random_tensor(rng, src, n, 2)
                lhs = braidize(h, pullback_tensor(v, push))
                rhs = pullback_tensor(braidize(src, v), push)
                if lhs != rhs:
                    failures.append((name, n, "functorial"))

        # counting identity on every component touched by random tensors
        seen = set()
        for _ in range(6):
            n = rng.choice([2, 3, 4])
            deg = tuple(rng.randrange(g.order) for _ in range(n))
            comp = enumerate_component(g, deg)
            if comp.canonical in seen:
                continue
            seen.add(comp.canonical)
            if comp.n_C != len(comp.members) * comp.m_C:
                failures.append((name, deg, "counting"))

        # duality of the projector against the reversed-trace pairing
        per_module = 60 if not heavy else 30
        for _ in range(per_module):
            n = rng.choice([2, 3]) if heavy else rng.choice([2, 3, 4])
            x = random_tensor(rng, hd, n, 2)
            w = random_tensor(rng, h, n, 2)
            duality_pairs += 1
            if pair(braidize(hd, x), w) != pair(x, braidize(h, w)):
                failures.append((name, n, "duality"))

    # top up duality pairs on the cheap abelian fixtures to pass 1000
    cheap = [m for label, m in _acceptance_modules() if m.group.order <= 3]
    while duality_pairs < 1000:
        h = cheap[duality_pairs % len(cheap)]
        hd = dual_module(h)
        n = rng.choice([2, 3, 4])
        x = random_tensor(rng, hd, n, 2)
        w = random_tensor(rng, h, n, 2)
        duality_pairs += 1
        if pair(braidize(hd, x), w) != pair(x, braidize(h, w)):
            failures.append(("cheap", n, "duality"))

    ok = not failures and duality_pairs >= 1000
    if failures:
        print("failures:", failures[:10])
    print(f"  duality pairs checked: {duality_pairs}")
    verdict(6, "braidization property suite", ok)


def test_criterion_7_invariant_ring_dimensions():
    ok = True
    for n_sing in (3, 4):
        alg = z2_frobenius_algebra(n_sing)
        hd = dual_module(alg.module)
        dim = hd.dim
        ni, nv, ng = n_sing - 1, n_sing - 2, 1
        v_idx = set(range(ni, ni + nv))
        g_idx = {dim - 1}
        for k in range(5):
            forms = br_basis(hd, k)
            total = comb(dim + k - 1, k)
            no_v = comb(ni + ng + k - 1, k)
            no_g = comb(ni + nv + k - 1, k)
            neither = comb(ni + k - 1, k)
            expected = no_v + no_g - neither
            ok = ok and len(forms) == expected
            for f in forms:
                for idx in f.tensor.terms:
                    s = set(idx)
                    ok = ok and not (s & v_idx and s & g_idx)
    verdict(7, "invariant ring dimension vs quotient count", ok)


def test_criterion_8_restriction_morphisms():
    rng = random.Random(99)
    failures = 0
    symmetric_checks = 0
    for h in (z2_frobenius_algebra(3).module, make_z3_module()):
        hd = dual_module(h)
        inv = invariants_basis(h)
        for _ in range(12):
            parts_x = [braidize(hd, random_tensor(rng, hd, d, 2)) for d in range(5)]
            parts_y = [braidize(hd, random_tensor(rng, hd, d, 2)) for d in range(5)]
            x = series_from_tensors(hd, 4, [p for p in parts_x if p])
            y = series_from_tensors(hd, 4, [p for p in parts_y if p])
            xy = circ_product(x, y)
            rx, ry = restrict_untwisted(x), restrict_untwisted(y)
            if not circ_product(rx, ry) == restrict_untwisted(xy) == commutative_product(rx, ry):
                failures += 1
            for series in (x, y, xy):
                s = restrict_invariants(series, inv)
                for t in s.parts.values():
                    symmetric_checks += 1
                    if not is_symmetric(t):
                        failures += 1
    print(f"  symmetric outputs checked: {symmetric_checks}")
    verdict(8, "restriction morphisms", failures == 0 and symmetric_checks > 0)
