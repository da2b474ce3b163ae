"""Correctness oracles, run outside the timed region.

Each oracle returns a check ``(exit code, stdout, value) -> None | reason``.
They recompute an answer by another route than the one timed: closed forms
and golden files, counting identities, an independent orbit enumeration and
rank computation, and algebraic laws checked through different library calls.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path


def _doc(rc: int, out: str, want_rc: int):
    if rc != want_rc:
        raise AssertionError(f"exit code {rc}, expected {want_rc}")
    return json.loads(out)


def _guard(fn):
    """Turn an AssertionError, or any crash of the oracle itself, into a reason."""

    def check(rc, out, value):
        try:
            fn(rc, out, value)
        except AssertionError as exc:
            return str(exc) or "assertion failed"
        except Exception as exc:  # a malformed output must not stop the run
            return f"{type(exc).__name__}: {exc}"
        return None

    return check


def both(first, second):
    def check(rc, out, value):
        return first(rc, out, value) or second(rc, out, value)

    return check


def same_text(path: Path):
    @_guard
    def check(rc, out, value):
        assert rc == 0, f"exit code {rc}"
        assert out == path.read_text(), f"output differs from {path.name}"

    return check


# -- unfolding -------------------------------------------------------------------


def _weights(kind: str, n: int) -> tuple[dict[str, int], int]:
    """Quasi-homogeneous weights of the flat coordinates and the degree of F.

    A_m: t_i has weight m+1-i and F has degree 2m+4.  D_n is cut from
    A_{2n-3} and t_* has weight n.
    """
    m = n if kind == "A" else 2 * n - 3
    w = {f"t_{i}": m + 1 - i for i in range(m)}
    w["t_*"] = n
    return w, 2 * m + 4


def potential(kind: str, n: int, gfrob):
    closed = {("A", 5): "phi_a5", ("D", 3): "phi_d3", ("D", 4): "phi_d4"}.get((kind, n))

    @_guard
    def check(rc, out, value):
        payload = _doc(rc, out, 0)["payload"]
        names = payload["names"]
        weights, degree = _weights(kind, n)
        poly = payload["potential"]
        for term in poly["terms"]:
            wdeg = sum(weights[v] * e for v, e in zip(poly["vars"], term["exp"]))
            assert wdeg == degree, f"term {term} has weighted degree {wdeg} != {degree}"
        unit_term = [0] * len(poly["vars"])
        unit_term[poly["vars"].index("t_0")] = 2
        top = [v for v in names if v != "t_*"][-1]
        unit_term[poly["vars"].index(top)] += 1
        coef = {tuple(t["exp"]): t["coef"] for t in poly["terms"]}.get(tuple(unit_term))
        assert coef == "-1/2", f"coefficient of t_0^2 {top} is {coef}"
        ser = gfrob.serialize
        metric = ser.matrix_from_json(payload["metric"])
        d = len(names)
        if kind == "A":
            want = tuple(tuple(Fraction(int(i + j == d - 1)) for j in range(d)) for i in range(d))
        else:
            want = tuple(
                tuple(Fraction(-1 if i == j == d - 1 else int(i + j == d - 2 and max(i, j) < d - 1)) for j in range(d))
                for i in range(d)
            )
        assert metric == want, "metric is not the flat residue metric"
        if closed:
            got = ser.potential_from_json(payload).poly
            assert got == getattr(gfrob.refchecks, closed)(), f"potential differs from refchecks.{closed}"

    return check


def flat_round_trip(n: int, gfrob):
    @_guard
    def check(rc, out, value):
        payload = _doc(rc, out, 0)["payload"]
        ser = gfrob.serialize
        a_of_t = [ser.poly_from_json(p) for p in payload["a_of_t"]]
        t_of_a = [ser.poly_from_json(p) for p in payload["t_of_a"]]
        t_names, a_names = payload["t_names"], payload["a_names"]
        assert len(a_of_t) == len(t_of_a) == n
        for m in range(n):
            expr = t_of_a[m]
            for i in range(n):
                if a_names[i] in expr.vars:
                    expr = expr.subst(a_names[i], a_of_t[i])
            assert expr == type(expr).variable(t_names[m]), f"t_{m}(a(t)) != t_{m}"

    return check


def construct_z2(n: int):
    @_guard
    def check(rc, out, value):
        doc = _doc(rc, out, 0)
        verdicts = {c["name"]: c["status"] for c in doc["checks"]}
        assert verdicts == {"pre_gfm": "pass", "cubic_matches_algebra": "pass"}, verdicts
        payload = doc["payload"]
        assert payload["n"] == n and len(payload["names"]) == 2 * n - 2

    return check


def wdvv_verdict(passes: bool, dim: int):
    @_guard
    def check(rc, out, value):
        doc = _doc(rc, out, 0 if passes else 1)
        (entry,) = doc["checks"]
        assert entry["name"] == "wdvv"
        if passes:
            assert entry["status"] == "pass" and "witness" not in entry
            return
        assert entry["status"] == "fail", "perturbed potential passed WDVV"
        witnesses = entry.get("witness") or []
        assert witnesses, "failed WDVV check names no witness"
        for w in witnesses:
            assert len(w) == 4 and all(0 <= i < dim for i in w), f"bad witness {w}"

    return check


def verify_paper(count: int):
    @_guard
    def check(rc, out, value):
        checks = _doc(rc, out, 0)["checks"]
        failed = [c["name"] for c in checks if c["status"] != "pass"]
        assert not failed, f"failed checks {failed}"
        assert len(checks) == count, f"{len(checks)} checks, expected {count}"

    return check


# -- orbits ------------------------------------------------------------------------


def census(group, n: int):
    """Compare the census with an independent orbit enumeration of G^n."""
    from workloads import braid_orbits

    def expected():
        orbits = braid_orbits(group, product(range(group.order), repeat=n))
        return sorted((o[0], len(o)) for o in orbits)

    @_guard
    def check(rc, out, value):
        assert rc == 0, f"exit code {rc}"
        lines = [json.loads(line) for line in out.splitlines()]
        total = 0
        for c in lines:
            assert c["n_C"] == c["size"] * c["m_C"], f"n_C != |C| m_C for {c}"
            assert c["m_C"] >= 1
            assert c["g_degree"] == group.product(c["component"]), f"wrong G-degree for {c}"
            total += c["size"]
        assert total == group.order ** n, f"component sizes sum to {total}"
        got = sorted((tuple(c["component"]), c["size"]) for c in lines)
        assert got == expected(), "components differ from the independent orbit enumeration"

    return check


def braidize_laws(gfrob, module_json: dict, tensor_json: dict):
    """Idempotent, braid-invariant, and constant along the braid orbit of the input."""

    @_guard
    def check(rc, out, value):
        ser, braided, modules = gfrob.serialize, gfrob.braided, gfrob.modules
        payload = _doc(rc, out, 0)["payload"]
        h = ser.module_from_json(module_json)
        v = ser.tensor_from_json(tensor_json)
        w = ser.tensor_from_json(payload)
        assert w.n == v.n
        assert braided.is_braided(h, w), "output is not braid-invariant"
        assert braided.braidize(h, w) == w, "braidize is not idempotent"
        moved = modules.braid_act(h, 1, v)
        assert braided.braidize(h, moved) == w, "braidize is not constant on the orbit"

    return check


# -- tensor_ring ---------------------------------------------------------------------


def orbifold_count(n: int, k: int):
    """Acceptance-criterion-7 count no_v + no_g - neither, and no mixed v/g support."""
    ni, nv, ng = n - 1, n - 2, 1
    dim = ni + nv + ng
    v_idx = set(range(ni, ni + nv))
    g_idx = {dim - 1}
    want = comb(ni + ng + k - 1, k) + comb(ni + nv + k - 1, k) - comb(ni + k - 1, k)

    @_guard
    def check(rc, out, value):
        payload = _doc(rc, out, 0)["payload"]
        assert payload["dimension"] == want == len(payload["forms"]), (
            f"dimension {payload['dimension']}, expected {want}"
        )
        for form in payload["forms"]:
            for term in form["tensor"]["terms"]:
                s = set(term["idx"])
                assert not (s & v_idx and s & g_idx), f"mixed sign/twisted term {term}"

    return check


def _rank(vectors: list[dict]) -> int:
    """Rank of sparse rational vectors by elimination on dicts."""
    pivots: dict = {}  # pivot key -> reduced row with leading coefficient 1
    rank = 0
    for vec in vectors:
        row = {k: c for k, c in vec.items() if c}
        while row:
            key = min(row)
            piv = pivots.get(key)
            if piv is None:
                lead = row[key]
                pivots[key] = {k: c / lead for k, c in row.items()}
                rank += 1
                break
            f = row[key]
            for k, c in piv.items():
                row[k] = row.get(k, 0) - f * c
                if not row[k]:
                    del row[k]
    return rank


def basis_rank(gfrob, module_json: dict, k: int):
    """len(br_basis) equals the rank of the braidize image of all basis k-tensors."""

    @_guard
    def check(rc, out, value):
        ser, braided = gfrob.serialize, gfrob.braided
        payload = _doc(rc, out, 0)["payload"]
        h = ser.module_from_json(module_json)
        image = [braided.braidize(h, gfrob.Tensor.basis(idx)).terms for idx in product(range(h.dim), repeat=k)]
        want = _rank(image)
        assert payload["dimension"] == want == len(payload["forms"]), (
            f"dimension {payload['dimension']}, braidize image has rank {want}"
        )
        for form in payload["forms"]:
            t = ser.tensor_from_json(form["tensor"])
            assert braided.is_braided(h, t), "basis form is not braid-invariant"

    return check


def ring_laws(gfrob):
    """The product is braided, unital and associative on the job's own series."""

    @_guard
    def check(rc, out, value):
        assert rc == 0
        h, (x, y, z), xyz = value
        braided = gfrob.braided
        for t in xyz.parts.values():
            assert braided.is_braided(h, t), "product part is not braid-invariant"
        unit = braided.unit_series(h, x.truncation)
        assert braided.circ_product(unit, x) == x, "unit law fails"
        assert braided.circ_product(x, braided.circ_product(y, z)) == xyz, "associativity fails"

    return check

