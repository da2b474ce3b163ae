"""Frozen reference values for the simple-singularity families.

Every check here pins a quantity whose exact value is known in closed form
for the A/D unfoldings and their order-two orbifold data: coordinate
tables, potential coefficients, metric matrices, algebra relations, and
the structural identities of the braid groupoid.  The CLI exposes the
whole list as the `verify-paper` subcommand; the acceptance tests reuse it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .braided import br_basis, braidize, series_from_poly, restrict_untwisted, restrict_invariants
from .frobenius import Potential, check_gfa, check_metric, check_pre_gfm, g_degree_witness, subalgebras, wdvv_check
from .groupoid import compose_arrows, enumerate_component, g_degree, gen_arrow, inverse_gen_arrow
from .groups import cyclic_group, symmetric_group
from .modules import (
    Tensor,
    dual_module,
    invariants_basis,
    validate_module,
    z2_decompose,
)
from .poly import MultiPoly
from .singularity import (
    TSTAR,
    flat_coordinates,
    flat_metric,
    milnor_ring,
    potential_A,
    potential_D,
    potential_D_metric,
    shared_builds,
    z2_frobenius_algebra,
    z2_frobenius_manifold,
)

Check = tuple[str, Callable[[], tuple[bool, str]]]


def _poly(names, spec) -> MultiPoly:
    """Build a polynomial from {(exponent tuple): coefficient} over names."""
    return MultiPoly(names, {exp: Fraction(*c) if isinstance(c, tuple) else Fraction(c) for exp, c in spec.items()})


def phi_a3() -> MultiPoly:
    names = ("t_0", "t_1", "t_2")
    return _poly(names, {
        (2, 0, 1): (-1, 2),
        (1, 2, 0): (-1, 2),
        (0, 2, 2): (-1, 4),
        (0, 0, 5): (-1, 60),
    })


def phi_d3() -> MultiPoly:
    names = ("t_*", "t_0", "t_2")
    return _poly(names, {
        (0, 2, 1): (-1, 2),
        (2, 1, 0): (1, 2),
        (2, 0, 2): (-1, 4),
        (0, 0, 5): (-1, 60),
    })


def phi_a5() -> MultiPoly:
    names = ("t_0", "t_1", "t_2", "t_3", "t_4")
    return _poly(names, {
        (2, 0, 0, 0, 1): (-1, 2),
        (1, 1, 0, 1, 0): -1,
        (1, 0, 2, 0, 0): (-1, 2),
        (0, 2, 1, 0, 0): (-1, 2),
        (0, 2, 0, 0, 2): (-1, 4),
        (0, 1, 1, 1, 1): -1,
        (0, 1, 0, 3, 0): (-1, 6),
        (0, 0, 3, 0, 1): (-1, 6),
        (0, 0, 2, 2, 0): (-1, 2),
        (0, 0, 2, 0, 3): (-1, 6),
        (0, 0, 1, 2, 2): (-1, 2),
        (0, 0, 0, 4, 1): (-1, 6),
        (0, 0, 0, 2, 4): (-1, 8),
        (0, 0, 0, 0, 7): (-1, 210),
    })


def phi_d4() -> MultiPoly:
    names = ("t_*", "t_0", "t_2", "t_4")
    return _poly(names, {
        (0, 2, 0, 1): (-1, 2),
        (0, 1, 2, 0): (-1, 2),
        (2, 1, 0, 0): (1, 2),
        (0, 0, 3, 1): (-1, 6),
        (2, 0, 1, 1): (-1, 2),
        (0, 0, 2, 3): (-1, 6),
        (2, 0, 0, 3): (1, 6),
        (0, 0, 0, 7): (-1, 210),
    })


def _ok(cond: bool, witness: str = "") -> tuple[bool, str]:
    return bool(cond), witness


def _check_cyclic2():
    g = cyclic_group(2)
    return _ok(g.order == 2 and g.is_abelian() and g.identity == 0, f"order={g.order}")


def _check_third_partial_a3():
    pot = Potential(("t_0", "t_1", "t_2"), phi_a3())
    val = pot.third(0, 0, 2).eval({"t_0": 0, "t_1": 0, "t_2": 0})
    return _ok(val == Fraction(-1), f"d0 d0 d2 = {val}")


def _check_gen_arrows_z2():
    z2 = cyclic_group(2)
    a = gen_arrow(z2, 1, (0, 1))
    b = gen_arrow(z2, 1, (1, 0))
    return _ok(
        a.gpart == (0, 0) and a.perm == (1, 0) and b.gpart == (0, 1) and b.perm == (1, 0),
        f"gparts {a.gpart}, {b.gpart}",
    )


def _check_component_counting():
    import itertools
    from collections import Counter

    for group, n in ((cyclic_group(2), 2), (cyclic_group(2), 3), (symmetric_group(3), 2)):
        for t in itertools.product(range(group.order), repeat=n):
            c = enumerate_component(group, t)
            arrows = set(c.arrows)
            for a in arrows:
                for i in range(1, n):
                    for b in (gen_arrow(group, i, a.target), inverse_gen_arrow(group, i, a.target)):
                        if compose_arrows(group, b, a) not in arrows:
                            return _ok(False, f"arrows from {t} not closed under b_{i} at {a.target}")
            per_target = Counter(a.target for a in arrows)
            if set(per_target) != c.members or set(per_target.values()) != {c.m_C}:
                return _ok(False, f"hom-set sizes differ from m_C = {c.m_C} at {t}")
            if any(g_degree(group, m) != c.g_degree for m in c.members):
                return _ok(False, f"degree not constant at {t}")
    return _ok(True, "n_C = |C| m_C and constant degree")


def _check_orbifold_module(n: int):
    alg = z2_frobenius_algebra(n)
    rep = validate_module(alg.module)
    return _ok(rep.valid and rep.self_invariant, f"n={n}")


def _check_sector_dimensions(n: int):
    alg = z2_frobenius_algebra(n)
    h_i, h_v, h_g = z2_decompose(alg.module)
    inv = invariants_basis(alg.module)
    ok = len(inv) == n and len(h_v) == n - 2 and len(h_i) + len(h_v) + len(h_g) == alg.dim
    return _ok(ok, f"dim inv={len(inv)}, dim sign={len(h_v)}")


def _check_braidize_identity_on_invariants():
    alg = z2_frobenius_algebra(3)
    hd = dual_module(alg.module)
    for form in br_basis(hd, 2):
        if braidize(hd, form.tensor) != form.tensor:
            return _ok(False, f"moved on component {form.component}")
    return _ok(True, "projector fixes invariant forms")


def _check_no_mixed_monomials():
    alg = z2_frobenius_algebra(3)
    hd = dual_module(alg.module)
    v_idx, g_idx = {2}, {3}
    for k in (2, 3):
        for form in br_basis(hd, k):
            for idx in form.tensor.terms:
                s = set(idx)
                if s & v_idx and s & g_idx:
                    return _ok(False, f"mixed term {idx}")
    return _ok(True, "no sign/twisted mixing in invariant forms")


def _check_diagonal_commutes_with_braiding():
    alg = z2_frobenius_algebra(3)
    h = alg.module
    from .modules import braid_act, diagonal_act

    for idx in ((0, 2), (2, 3), (3, 2), (1, 3)):
        v = Tensor.basis(idx)
        lhs = diagonal_act(h, 1, braid_act(h, 1, v))
        rhs = braid_act(h, 1, diagonal_act(h, 1, v))
        if lhs != rhs:
            return _ok(False, f"fails at {idx}")
    return _ok(True, "diagonal action commutes with braiding")


def _check_orbifold_metric():
    alg = z2_frobenius_algebra(3)
    rep = check_metric(alg.module, alg.metric)
    return _ok(rep.passed and alg.metric[-1][-1] == Fraction(-1), "block metric passes")


def _check_flat_tables():
    ch3 = flat_coordinates(3)
    ok3 = (
        ch3.a_of_t[2] == -MultiPoly.variable("t_2")
        and ch3.a_of_t[1] == -MultiPoly.variable("t_1")
        and ch3.a_of_t[0]
        == -MultiPoly.variable("t_0") + MultiPoly.variable("t_2") * MultiPoly.variable("t_2") * Fraction(1, 2)
    )
    ch5 = flat_coordinates(5)
    t = {i: MultiPoly.variable(f"t_{i}") for i in range(5)}
    ok5 = (
        ch5.a_of_t[4] == -t[4]
        and ch5.a_of_t[3] == -t[3]
        and ch5.a_of_t[2] == -t[2] + t[4] * t[4] * Fraction(3, 2)
        and ch5.a_of_t[1] == -t[1] + t[3] * t[4] * 2
        and ch5.a_of_t[0]
        == -t[0] + t[3] * t[3] * Fraction(1, 2) + t[2] * t[4] - t[4] ** 3 * Fraction(1, 3)
    )
    a = {i: MultiPoly.variable(f"a{i}") for i in range(5)}
    ok5_inv = ch5.t_of_a[0] == -a[0] + a[3] * a[3] * Fraction(1, 2) + a[2] * a[4] - a[4] ** 3 * Fraction(7, 6)
    return _ok(ok3 and ok5 and ok5_inv, "both coordinate tables")


def _check_roundtrip(n: int):
    ch = flat_coordinates(n)
    for m in range(n):
        expr = ch.a_of_t[m].substitute(dict(zip(ch.t_names, ch.t_of_a)))
        if expr != MultiPoly.variable(ch.a_names[m]):
            return _ok(False, f"a_{m}(t(a)) != a_{m}")
    return _ok(True, f"n={n}")


def _check_potentials():
    checks = [
        (potential_A(3).poly, phi_a3(), "A3"),
        (potential_A(5).poly, phi_a5(), "A5"),
        (potential_D(3).poly, phi_d3(), "D3"),
        (potential_D(4).poly, phi_d4(), "D4"),
    ]
    for got, want, label in checks:
        if got != want:
            return _ok(False, f"{label} differs")
    coef = potential_A(5).poly.coefficient({"t_4": 7})
    return _ok(coef == Fraction(-1, 210), "all four potentials, t_4^7 coefficient -1/210")


def _check_degree_bound():
    for n in (3, 4, 5):
        if potential_A(n).poly.total_degree() > n + 2:
            return _ok(False, f"degree bound fails at n={n}")
    return _ok(True, "deg <= n+2 for n=3,4,5")


def _check_metric_constancy():
    for n in (3, 4):
        potential_A(n)  # its build proves res(dF_a dF_b / F') = flat_metric(n)[a][b] for every a <= b
    return _ok(True, "residue metric constant in flat coordinates")


def _check_four_potentials_wdvv():
    cases = [
        ("A3", potential_A(3), flat_metric(3)),
        ("A5", potential_A(5), flat_metric(5)),
        ("D3", potential_D(3), potential_D_metric(3)),
        ("D4", potential_D(4), potential_D_metric(4)),
    ]
    for label, pot, eta in cases:
        if not wdvv_check(pot, eta).passed:
            return _ok(False, f"{label} fails")
    return _ok(True, "associativity holds for all four potentials")


def _check_milnor_rings():
    a3 = milnor_ring("A", 3)
    d4 = milnor_ring("D", 4)
    ok = a3.metric[0] == (0, 0, 1) and d4.mult[3][3] == (0, 0, Fraction(-1), 0) and d4.mult[1][3] == (0, 0, 0, 0)
    return _ok(ok, "A3 counit; D4 relations y.y=-x^2, x.y=0")


def _check_algebra(n: int):
    alg = z2_frobenius_algebra(n)
    rep = check_gfa(alg)
    if not rep.passed:
        return _ok(False, f"n={n}: {rep.failures()}")
    if alg.metric[-1][-1] != Fraction(-1):
        return _ok(False, "eta(y,y) != -1")
    _, sub_g = subalgebras(alg)
    mg = milnor_ring("D", n)
    ok = sub_g.mult == mg.mult and sub_g.metric == mg.metric
    return _ok(ok, f"n={n}: axioms + invariants ring")


def _check_pre_gfm_n3():
    asm = z2_frobenius_manifold(3).assembly
    rep = check_pre_gfm(asm.module, asm.metric, Potential(asm.names, asm.potential))
    ok = rep.passed and rep.untwisted_potential == phi_a3()
    return _ok(ok, "restrictions satisfy associativity")


def _check_twisted_cubic():
    expected = MultiPoly(("t_*", "t_0"), {(2, 1): Fraction(1, 2)})
    for n in (3, 4, 5, 6):
        fm = z2_frobenius_manifold(n)
        if fm.twisted_cubic != expected:
            return _ok(False, f"n={n}: {fm.twisted_cubic}")
        if not fm.matches_algebra:
            return _ok(False, f"n={n}: cubic part does not match the algebra")
    return _ok(True, "t_0 t_*^2 / 2 for n=3..6; cubic reproduces the algebra")


def _check_y_g_n3():
    fm = z2_frobenius_manifold(3)
    y = fm.potential
    y_g = y - y.subst_zero([TSTAR])
    expected = MultiPoly(
        ("t_*", "t_0", "t_2"), {(2, 1, 0): Fraction(1, 2), (2, 0, 2): Fraction(-1, 4)}
    )
    return _ok(y_g == expected, "twisted part of the n=3 potential")


def _check_restrictions_n3():
    fm = z2_frobenius_manifold(3)
    h = fm.assembly.module
    hd = dual_module(h)
    y = series_from_poly(hd, fm.potential, fm.names, truncation=5)
    y.assert_braided()
    ok = g_degree_witness(hd, Potential(fm.names, fm.potential), h.group.identity) is None
    e_names = tuple(fm.names[j] for j in h.untwisted_indices())
    ok = ok and restrict_untwisted(y).as_poly(e_names) == potential_A(3).poly
    inv = invariants_basis(h)
    inv_names = tuple(fm.names[[i for i, x in enumerate(v) if x][0]] for v in inv)
    ok = ok and restrict_invariants(y, inv).as_poly(inv_names) == potential_D(3).poly
    return _ok(ok, "untwisted -> A3, invariants -> D3")


def _check_assembly_decomposition():
    from .frobenius import decompose_z2_potential

    fm = z2_frobenius_manifold(3)
    names = (fm.assembly.fixed_names, fm.assembly.sign_names, fm.assembly.twisted_names)
    y_i, y_v, y_g = decompose_z2_potential(names, fm.potential)
    ok = fm.potential == y_i + y_v + y_g
    ok = ok and y_i + y_v == potential_A(3).poly
    ok = ok and (y_i + y_g).compact() == potential_D(3).poly.compact()
    return _ok(ok, "unique three-part split recovers both inputs")


def all_checks() -> list[Check]:
    checks: list[Check] = [
        ("group.order-two", _check_cyclic2),
        ("poly.third-partial-A3", _check_third_partial_a3),
        ("groupoid.generator-arrows", _check_gen_arrows_z2),
        ("groupoid.component-counting", _check_component_counting),
        ("module.orbifold-valid.n3", lambda: _check_orbifold_module(3)),
        ("module.orbifold-valid.n6", lambda: _check_orbifold_module(6)),
        ("module.sector-dimensions.n3", lambda: _check_sector_dimensions(3)),
        ("module.sector-dimensions.n5", lambda: _check_sector_dimensions(5)),
        ("module.diagonal-commutes", _check_diagonal_commutes_with_braiding),
        ("braided.projector-identity", _check_braidize_identity_on_invariants),
        ("braided.no-mixed-monomials", _check_no_mixed_monomials),
        ("metric.orbifold-block", _check_orbifold_metric),
        ("flat.tables", _check_flat_tables),
        ("flat.roundtrip.n3", lambda: _check_roundtrip(3)),
        ("flat.roundtrip.n4", lambda: _check_roundtrip(4)),
        ("flat.roundtrip.n5", lambda: _check_roundtrip(5)),
        ("flat.metric-constancy", _check_metric_constancy),
        ("potential.displayed-values", _check_potentials),
        ("potential.degree-bound", _check_degree_bound),
        ("wdvv.four-potentials", _check_four_potentials_wdvv),
        ("milnor.rings", _check_milnor_rings),
        ("algebra.orbifold.n3", lambda: _check_algebra(3)),
        ("algebra.orbifold.n4", lambda: _check_algebra(4)),
        ("algebra.orbifold.n5", lambda: _check_algebra(5)),
        ("algebra.orbifold.n6", lambda: _check_algebra(6)),
        ("manifold.pre-structure.n3", _check_pre_gfm_n3),
        ("manifold.twisted-cubic", _check_twisted_cubic),
        ("manifold.twisted-part.n3", _check_y_g_n3),
        ("manifold.restrictions.n3", _check_restrictions_n3),
        ("manifold.decomposition", _check_assembly_decomposition),
    ]
    return checks


def run_all() -> list[tuple[str, bool, str]]:
    """Run every check, sharing the A_m potentials and Z2 manifolds they build."""
    out = []
    with shared_builds():
        for name, fn in all_checks():
            try:
                ok, witness = fn()
            except Exception as exc:  # a crashed check is a failed check
                ok, witness = False, f"{type(exc).__name__}: {exc}"
            out.append((name, ok, witness))
    return out
