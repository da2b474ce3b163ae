"""Seeded inputs and job lists of the three benchmark workloads.

Inputs are generated here from the seed, written as JSON into the run's work
directory, and handed to gfrob only as files and command-line arguments.
Group tables and modules are built from scratch (the same modules as the
test fixtures); the closed-form potentials come from ``gfrob.refchecks``
through the canonical JSON encoder.

Random tensors are seeded but put their terms in a fixed set of braid-orbit
components (largest first).  The ``braidize`` tensors of ``orbits`` draw the
member, basis indices and coefficients from the seed; the ``circ_product``
chains of ``tensor_ring`` draw only the coefficients.  The work a job does
then depends little on the seed, which keeps the run-to-run spread of the
timings small.

Library jobs look up gfrob functions through their modules at call time, so
the outside tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("unfolding", "orbits", "tensor_ring")


@dataclass
class Job:
    """One user request: returns (exit code, canonical stdout, value for the oracle)."""

    id: str
    run: Callable[[], tuple[int, str, object]]
    check: Callable[[int, str, object], str | None]  # None when the output is right
    pinned: bool  # inputs do not depend on the seed, so the stdout digest is pinned


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    cold_per_job: bool  # reset gfrob's caches before every job, as a fresh CLI process


def fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# -- groups, modules and braid orbits, built without gfrob -----------------------


@dataclass(frozen=True)
class Group:
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def identity(self) -> int:
        return next(e for e in range(self.order) if all(self.table[e][a] == a for a in range(self.order)))

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple(self.table[a].index(self.identity) for a in range(self.order))

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        return self.table[self.table[g][x]][self.inv(g)]

    def product(self, elems) -> int:
        acc = self.identity
        for x in elems:
            acc = self.table[acc][x]
        return acc

    def to_json(self) -> dict:
        return {"order": self.order, "table": [list(r) for r in self.table]}


def cyclic(n: int) -> Group:
    return Group(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


PERMS3 = sorted(itertools.permutations(range(3)))


def symmetric3() -> Group:
    """S_3 on sorted permutation tuples; a*b applies b, then a."""
    index = {p: i for i, p in enumerate(PERMS3)}
    return Group(tuple(tuple(index[tuple(pa[pb[i]] for i in range(3))] for pb in PERMS3) for pa in PERMS3))


def _identity(d: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


@dataclass
class ModuleSpec:
    group: Group
    degrees: tuple[int, ...]
    action: list[list[list[Fraction]]]

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "dim": self.dim,
            "degrees": list(self.degrees),
            "action": {str(g): [[fr(x) for x in row] for row in m] for g, m in enumerate(self.action)},
        }


def z3_rotation_module() -> ModuleSpec:
    """dim 4 over Z/3: a 2-dim untwisted rotation block plus two twisted lines."""
    f = Fraction
    rot = [[f(0), f(-1), f(0), f(0)], [f(1), f(-1), f(0), f(0)], [f(0), f(0), f(1), f(0)], [f(0), f(0), f(0), f(1)]]
    rot2 = [[f(-1), f(1), f(0), f(0)], [f(-1), f(0), f(0), f(0)], [f(0), f(0), f(1), f(0)], [f(0), f(0), f(0), f(1)]]
    return ModuleSpec(cyclic(3), (0, 0, 1, 2), [_identity(4), rot, rot2])


def s3_module(sign_twist: bool = False) -> ModuleSpec:
    """dim 4 over S_3: one untwisted line plus the three transposition lines."""
    g = symmetric3()
    trans = [PERMS3.index(p) for p in ((1, 0, 2), (2, 1, 0), (0, 2, 1))]
    degrees = (g.identity, *trans)
    slot = {d: i for i, d in enumerate(degrees)}
    action = []
    for gamma, perm in enumerate(PERMS3):
        odd = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3)) % 2
        s = Fraction(-1 if sign_twist and odd else 1)
        m = [[Fraction(0)] * 4 for _ in range(4)]
        m[0][0] = s
        for d in trans:
            m[slot[g.conj(gamma, d)]][slot[d]] = s
        action.append(m)
    return ModuleSpec(g, degrees, action)


def z2_orbifold_dual(n: int) -> ModuleSpec:
    """Dual of the order-two orbifold module of z2_frobenius_algebra(n).

    Basis (1, z^2, .., z^{2n-4} | z, z^3, .., z^{2n-5} | y): the involution
    fixes the even powers and y and negates the odd powers; y is twisted.
    """
    ni, nv = n - 1, n - 2
    dim = ni + nv + 1
    signs = [1] * ni + [-1] * nv + [1]
    rho = [[Fraction(signs[i] if i == j else 0) for j in range(dim)] for i in range(dim)]
    return ModuleSpec(cyclic(2), tuple([0] * (dim - 1) + [1]), [_identity(dim), rho])


def braid_orbits(group: Group, tuples) -> list[list[tuple[int, ...]]]:
    """Partition of a braid-closed tuple set into orbits of b_i: (x, y) -> (xyx^-1, x)."""
    todo = set(tuples)
    orbits = []
    while todo:
        start = min(todo)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for t in frontier:
                for i in range(len(t) - 1):
                    u = t[:i] + (group.conj(t[i], t[i + 1]), t[i]) + t[i + 2:]
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        todo -= seen
        orbits.append(sorted(seen))
    return orbits


def module_components(h: ModuleSpec, n: int) -> list[list[tuple[int, ...]]]:
    """Braid orbits of the degree tuples of n-tensors, largest first."""
    orbits = braid_orbits(h.group, itertools.product(sorted(set(h.degrees)), repeat=n))
    return sorted(orbits, key=lambda o: (-len(o), o[0]))


def random_coef(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def component_tensor(rng, h: ModuleSpec, comps, n: int, first: int, terms: int, fixed_support: bool = False) -> dict:
    """Tensor JSON with one term in each of components first .. first+terms-1 (cyclically).

    The member is never the least one of a component with several, so that
    every term costs the closure at the least member plus its own transport.
    With ``fixed_support`` the member is the second-least one and the basis
    indices cycle through each degree's basis, so that only the coefficients
    come from the seed.
    """
    by_degree: dict[int, list[int]] = {}
    for j, d in enumerate(h.degrees):
        by_degree.setdefault(d, []).append(j)
    out = {}
    for k in range(terms):
        comp = comps[(first + k) % len(comps)]
        if fixed_support:
            member = comp[min(1, len(comp) - 1)]
            idx = tuple(by_degree[d][(p + k) % len(by_degree[d])] for p, d in enumerate(member))
        else:
            member = rng.choice(comp[1:] or comp)
            idx = tuple(rng.choice(by_degree[d]) for d in member)
        out[idx] = out.get(idx, Fraction(0)) + random_coef(rng)
    return {"n": n, "terms": [{"idx": list(i), "coef": fr(c)} for i, c in sorted(out.items()) if c]}


# -- job runners -------------------------------------------------------------------


def cli_job(argv: list[str]) -> Callable[[], tuple[int, str, object]]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sys.modules["gfrob.cli"].main(argv)
        return rc, out.getvalue(), None

    return run


class Inputs:
    """Writes the generated inputs of one run as JSON files."""

    def __init__(self, workdir: Path):
        self.dir = workdir

    def write(self, stem: str, obj) -> str:
        path = self.dir / f"{stem}.json"
        path.write_text(json.dumps(obj, sort_keys=True))
        return str(path)


# -- unfolding ------------------------------------------------------------------------


def flat_metric_json(n: int) -> list[list[str]]:
    return [[fr(Fraction(int(i + j == n - 1))) for j in range(n)] for i in range(n)]


def d_metric_json(n: int) -> list[list[str]]:
    """Flat metric of D_n on (t_0, t_2, .., t_{2n-4}, t_*)."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for p in range(n - 1):
        rows[p][n - 2 - p] = Fraction(1)
    rows[n - 1][n - 1] = Fraction(-1)
    return [[fr(x) for x in row] for row in rows]


def wdvv_bases(gfrob) -> list[tuple[str, tuple[str, ...], dict, list[list[str]]]]:
    """(label, coordinate names, polynomial JSON, metric JSON) of the closed forms."""
    ser, ref = gfrob.serialize, gfrob.refchecks
    return [
        ("A3", ("t_0", "t_1", "t_2"), ser.poly_to_json(ref.phi_a3()), flat_metric_json(3)),
        ("A5", tuple(f"t_{i}" for i in range(5)), ser.poly_to_json(ref.phi_a5()), flat_metric_json(5)),
        ("D3", ("t_0", "t_2", "t_*"), ser.poly_to_json(ref.phi_d3()), d_metric_json(3)),
        ("D4", ("t_0", "t_2", "t_4", "t_*"), ser.poly_to_json(ref.phi_d4()), d_metric_json(4)),
    ]


def perturb(poly: dict, names, rng: random.Random) -> dict:
    """Add c * m, m a quartic monomial in the non-unit coordinates.

    With an integer coefficient 1 <= |c| <= 9, every such term breaks WDVV for
    the four closed forms used here (checked exhaustively).  Some cubic terms
    never do (t_1 t_2^2 on A3), and c = 1/2 can fail to (t_1^2 t_2^2 on A3).
    The oracle still checks the verdict.
    """
    free = names[1:]
    exps = {v: 0 for v in free}
    for _ in range(4):
        exps[rng.choice(free)] += 1
    variables = list(poly["vars"])
    terms = [dict(t) for t in poly["terms"]]
    for v in free:
        if exps[v] and v not in variables:
            variables.append(v)
            for t in terms:
                t["exp"] = list(t["exp"]) + [0]
    exp = [exps.get(v, 0) for v in variables]
    terms.append({"exp": exp, "coef": str(rng.choice((-1, 1)) * rng.randint(1, 9))})
    return {"vars": variables, "terms": terms}


def rename(poly: dict, names, rng: random.Random) -> tuple[dict, tuple[str, ...]]:
    """Give the coordinates seeded fresh names, which reorders them internally."""
    fresh = [f"x{k}" for k in range(len(names))]
    rng.shuffle(fresh)
    mapping = dict(zip(names, fresh))
    return {"vars": [mapping[v] for v in poly["vars"]], "terms": poly["terms"]}, tuple(fresh)


def unfolding(gfrob, rng: random.Random, inputs: Inputs, root: Path) -> Workload:
    jobs: list[Job] = []
    golden = root / "tests" / "golden" / "potential_A3.json"
    jobs.append(Job("potential A 3", cli_job(["potential", "A", "3"]), oracles.same_text(golden), True))
    for n in range(5, 9):
        jobs.append(Job(f"potential A {n}", cli_job(["potential", "A", str(n)]), oracles.potential("A", n, gfrob), True))
    for n in (3, 4, 5):
        jobs.append(Job(f"potential D {n}", cli_job(["potential", "D", str(n)]), oracles.potential("D", n, gfrob), True))
    for n in range(4, 11):
        jobs.append(Job(f"flat-coords {n}", cli_job(["flat-coords", str(n)]), oracles.flat_round_trip(n, gfrob), True))
    for n in (3, 4, 5):
        jobs.append(Job(f"construct-z2 {n}", cli_job(["construct-z2", str(n)]), oracles.construct_z2(n), True))
    for label, names, poly, metric in wdvv_bases(gfrob):
        eta = inputs.write(f"eta-{label}", {"matrix": metric})
        variants = [("exact", poly, names, True)]
        variants.append(("renamed", *rename(poly, names, rng), True))
        # Two more perturbations of A5 put the median job inside the cluster of
        # A5 jobs instead of in the gap below it, which steadies job_p50_s.
        for k in range(1, 5 if label == "A5" else 3):
            variants.append((f"perturbed-{k}", perturb(poly, names, rng), names, False))
        for tag, p, nm, passes in variants:
            pot = inputs.write(f"phi-{label}-{tag}", {"names": list(nm), "potential": p})
            jobs.append(Job(
                f"wdvv {label} {tag}",
                cli_job(["wdvv", "--potential", pot, "--metric", eta]),
                oracles.wdvv_verdict(passes, len(names)),
                passes,  # the passing verdict does not depend on the seed
            ))
    jobs.append(Job("verify-paper", cli_job(["verify-paper"]), oracles.verify_paper(30), True))
    return Workload("unfolding", jobs, cold_per_job=True)


# -- orbits ------------------------------------------------------------------------------


def orbits(gfrob, rng: random.Random, inputs: Inputs, root: Path) -> Workload:
    jobs: list[Job] = []
    groups = {"Z2": cyclic(2), "Z3": cyclic(3), "S3": symmetric3()}
    paths = {name: inputs.write(f"group-{name}", g.to_json()) for name, g in groups.items()}
    golden = root / "tests" / "golden" / "groupoid_z2_n2.jsonl"
    for name, n in (("Z2", 2), ("Z2", 3), ("Z2", 5), ("Z3", 2), ("Z3", 4), ("S3", 2), ("S3", 3)):
        check = oracles.census(groups[name], n)
        if (name, n) == ("Z2", 2):
            check = oracles.both(check, oracles.same_text(golden))
        jobs.append(Job(f"groupoid {name} n={n}", cli_job(["groupoid", "--group", paths[name], "--n", str(n)]), check, True))
    modules = {"S3": s3_module(), "S3-sign": s3_module(sign_twist=True), "Z3-rot": z3_rotation_module()}
    for mname, spec in modules.items():
        mpath = inputs.write(f"module-{mname}", spec.to_json())
        for n, count, terms in ((3, 4, 3), (4, 3 if mname == "Z3-rot" else 2, 2)):
            comps = module_components(spec, n)
            for k in range(count):
                tensor = component_tensor(rng, spec, comps, n, k * terms, terms)
                tpath = inputs.write(f"tensor-{mname}-n{n}-{k}", tensor)
                jobs.append(Job(
                    f"braidize {mname} n={n} #{k}",
                    cli_job(["braidize", "--module", mpath, "--tensor", tpath]),
                    oracles.braidize_laws(gfrob, spec.to_json(), tensor),
                    False,
                ))
    return Workload("orbits", jobs, cold_per_job=True)


# -- tensor_ring --------------------------------------------------------------------------


def chain_job(gfrob, h, spec: ModuleSpec, comps_by_degree, rng: random.Random, offset: int):
    """x o y o z for three seeded braided series; each part is the braidization of a
    two-term tensor with a fixed support in fixed components of that degree and
    seeded coefficients.  A seeded support moved the cost of one chain by a
    fifth from seed to seed."""
    truncation = len(comps_by_degree) - 1
    tensors = [
        [component_tensor(rng, spec, comps, d, 2 * (offset + s), 2, fixed_support=True)
         for d, comps in enumerate(comps_by_degree)]
        for s in range(3)
    ]
    ser = gfrob.serialize
    parsed = [[ser.tensor_from_json(t) for t in series] for series in tensors]

    def run():
        braided = sys.modules["gfrob.braided"]
        xs = []
        for series in parsed:
            parts = {t.n: braided.braidize(h, t) for t in series}
            xs.append(braided.BraidedSeries(h, truncation, parts))
        xy = braided.circ_product(xs[0], xs[1])
        xyz = braided.circ_product(xy, xs[2])
        doc = {str(d): ser.tensor_to_json(t) for d, t in sorted(xyz.parts.items())}
        return 0, ser.dumps(doc), (h, xs, xyz)

    return run


def tensor_ring(gfrob, rng: random.Random, inputs: Inputs, root: Path) -> Workload:
    jobs: list[Job] = []
    for n, degrees in ((3, (2, 3, 4)), (4, (2, 3)), (5, (2, 3))):
        mpath = inputs.write(f"module-z2dual-{n}", z2_orbifold_dual(n).to_json())
        for k in degrees:
            jobs.append(Job(
                f"br-basis z2-dual-{n} n={k}",
                cli_job(["br-basis", "--module", mpath, "--n", str(k)]),
                oracles.orbifold_count(n, k),
                True,
            ))
    specs = {"Z3-rot": z3_rotation_module(), "S3": s3_module()}
    for (mname, k) in (("Z3-rot", 4), ("S3", 3)):
        mpath = inputs.write(f"module-{mname}", specs[mname].to_json())
        jobs.append(Job(
            f"br-basis {mname} n={k}",
            cli_job(["br-basis", "--module", mpath, "--n", str(k)]),
            oracles.basis_rank(gfrob, specs[mname].to_json(), k),
            True,
        ))
    # (module, truncation, chains).  In a session the chains cost about 0.1 s
    # over z2-dual-3, 0.2 s over z2-dual-4 and 0.03-0.09 s over Z3-rot and S3.
    # Eight and six put the median job inside the z2-dual-3 cluster and the
    # tail job on br-basis S3 (0.14 s, between the two clusters), instead of
    # on a cluster's edge, which steadies job_p50_s and job_tail_s.
    chains = (
        ("z2-dual-3", z2_orbifold_dual(3), 4, 8),
        ("z2-dual-4", z2_orbifold_dual(4), 4, 6),
        ("Z3-rot", specs["Z3-rot"], 3, 5),
        ("S3", specs["S3"], 3, 5),
    )
    for mname, spec, truncation, count in chains:
        h = gfrob.serialize.module_from_json(json.loads(Path(inputs.write(f"chain-module-{mname}", spec.to_json())).read_text()))
        comps_by_degree = [module_components(spec, d) for d in range(truncation + 1)]
        for c in range(count):
            jobs.append(Job(
                f"circ_product {mname} trunc={truncation} #{c}",
                chain_job(gfrob, h, spec, comps_by_degree, rng, 3 * c),
                oracles.ring_laws(gfrob),
                False,
            ))
    return Workload("tensor_ring", jobs, cold_per_job=False)


BUILDERS = {"unfolding": unfolding, "orbits": orbits, "tensor_ring": tensor_ring}


def build(name: str, seed: int, workdir: Path, root: Path, gfrob) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    return BUILDERS[name](gfrob, rng, Inputs(workdir), root)
