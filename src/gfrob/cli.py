"""Command-line front end.

Subcommands read JSON from file arguments (or '-' for standard input) and
write canonical JSON to standard output.  Exit codes: 0 all checks passed,
1 a check failed, 2 usage error (an index out of range and a size-limit
refusal too), 3 malformed input.  GFROB_SIZE_LIMIT, a positive integer,
overrides the size guards: |G|^n * n! for `groupoid`, `braidize` (through
`enumerate_component`) and `br-basis`, dim^n for `br-basis` too, and the
estimated cost of the A_m potential for `potential`, `flat-coords` and
`construct-z2`.

Each call of `main` builds the parser of the command it is given and no
other (the whole parser for help, an empty argv or an unknown command),
and keeps no parser once it returns.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence
from . import serialize as ser
from .braided import br_basis, braidize
from .errors import BadIndex, DegenerateMetric, GfrobError, NotAGroup, SizeLimit
from .frobenius import assemble_z2, check_gfa, check_pre_gfm, wdvv_check
from .groupoid import components, guard_size
from .groups import conjugacy_classes
from .modules import Verdict, require_valid_module
from .singularity import (
    flat_coordinates,
    flat_metric,
    guard_unfolding,
    potential_A,
    potential_B,
    potential_D,
    potential_D_metric,
    z2_cubic_witness,
    z2_frobenius_manifold,
)

USAGE_ERROR, CHECK_FAILED, PARSE_ERROR = 2, 1, 3


@dataclass
class RunReport:
    command: str
    checks: list[dict] = field(default_factory=list)
    payload: dict | None = None
    lines: list[str] | None = None  # pre-rendered JSON lines (groupoid)

    def add(self, name: str, ok: bool, witness=None):
        entry = {"name": name, "status": "pass" if ok else "fail"}
        if witness is not None:
            entry["witness"] = witness
        self.checks.append(entry)

    def add_verdict(self, verdict: Verdict) -> None:
        """One row per check of the verdict, in report order; a failed row carries its witness, a nested
        verdict by its failure line."""
        for name, w in verdict.checks.items():
            self.add(name, w is None, _shown(w))

    @property
    def exit_code(self) -> int:
        return 0 if all(c["status"] == "pass" for c in self.checks) else CHECK_FAILED

    def render(self, fmt: str) -> str:
        if self.lines is not None:
            return "\n".join(self.lines) + "\n"
        if fmt == "text":
            out = []
            for c in self.checks:
                witness = f"  {c['witness']}" if "witness" in c else ""
                out.append(f"{c['status'].upper():4s}  {c['name']}{witness}")
            if self.payload is not None:
                out.append(ser.dumps(self.payload).rstrip("\n"))
            return "\n".join(out) + "\n"
        doc = {"command": self.command, "checks": self.checks, "exit_code": self.exit_code}
        if self.payload is not None:
            doc["payload"] = self.payload
        return ser.dumps(doc)


def _shown(witness):
    """A witness as a report prints it: a nested verdict by its failure line."""
    return witness.failure if isinstance(witness, Verdict) else witness


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON, bytes that are not text, an int over the digit limit
        raise ser.ParseError(f"cannot read {path}: {exc}") from None


def _cmd_group(args) -> RunReport:
    rep = RunReport("group")
    obj = _read_json(args.group)
    try:
        g = ser.group_from_json(obj)
    except NotAGroup as exc:
        rep.add("group-axioms", False, exc.reason)
        return rep
    rep.add("group-axioms", True)
    classes = conjugacy_classes(g)
    rep.payload = {
        "order": g.order,
        "identity": g.identity,
        "inverse": list(g.inverse),
        "abelian": g.is_abelian(),
        "conjugacy_classes": [list(c) for c in classes],
    }
    return rep


def _cmd_groupoid(args) -> RunReport:
    rep = RunReport("groupoid")
    g = ser.group_from_json(_read_json(args.group))
    n = args.n
    guard_size(g, n)
    rep.lines = [
        ser.dumps_line({"component": list(c.canonical), "size": len(c.connectors), "m_C": c.m_C, "n_C": c.n_C,
                        "g_degree": c.g_degree})
        for c in components(g, itertools.product(range(g.order), repeat=n))
    ]
    return rep


def _cmd_braidize(args) -> RunReport:
    rep = RunReport("braidize")
    h = require_valid_module(ser.module_from_json(_read_json(args.module)))
    v = ser.module_tensor_from_json(_read_json(args.tensor), h)
    rep.payload = ser.tensor_to_json(braidize(h, v))
    return rep


def _cmd_br_basis(args) -> RunReport:
    rep = RunReport("br-basis")
    h = require_valid_module(ser.module_from_json(_read_json(args.module)))
    forms = br_basis(h, args.n)
    rep.payload = {
        "dimension": len(forms),
        "forms": [
            {
                "component": list(f.component),
                "g_degree": f.g_degree,
                "tensor": ser.tensor_to_json(f.tensor),
            }
            for f in forms
        ],
    }
    return rep


def _cmd_check_gfa(args) -> RunReport:
    rep = RunReport("check-gfa")
    rep.add_verdict(check_gfa(ser.gfa_from_json(_read_json(args.algebra))))
    return rep


def _cmd_wdvv(args) -> RunReport:
    rep = RunReport("wdvv")
    pot = ser.potential_from_json(_read_json(args.potential))
    eta = ser.square_matrix_from_json(_read_json(args.metric), len(pot.names))
    try:
        report = wdvv_check(pot, eta)
    except DegenerateMetric as exc:  # a failed check with its witness, as check-pre-gfm reports it
        rep.add("wdvv", False, str(exc))
        return rep
    rep.add("wdvv", report.passed, [list(w) for w in report.witnesses[:20]] or None)
    return rep


def _cmd_check_pre_gfm(args) -> RunReport:
    rep = RunReport("check-pre-gfm")
    h = ser.module_from_json(_read_json(args.module))
    eta = ser.square_matrix_from_json(_read_json(args.metric), h.dim)
    pot = ser.potential_from_json(_read_json(args.potential))
    if len(pot.names) != h.dim:
        raise ser.ParseError(f"potential has {len(pot.names)} names for a module of dimension {h.dim}")
    rep.add_verdict(check_pre_gfm(h, eta, pot))
    return rep


def _checked_assembly(rep: RunReport, asm) -> dict:
    """Add an assembly's pre_gfm check, witnessed by its first failing sub-check, and return its JSON fields."""
    verdict = check_pre_gfm(asm.module, asm.metric, asm.potential)
    first = next(iter(verdict.failed), None)
    rep.add("pre_gfm", first is None, first and {"check": first, "witness": _shown(verdict.checks[first])})
    return {
        "module": ser.module_to_json(asm.module),
        "metric": ser.matrix_to_json(asm.metric),
        **ser.potential_to_json(asm.potential),
    }


def _cmd_assemble_z2(args) -> RunReport:
    rep = RunReport("assemble-z2")
    obj = _read_json(args.input)
    if not isinstance(obj, dict) or not {"fe", "fg", "iota_e", "iota_g"} <= set(obj):
        raise ser.ParseError("input needs fe, fg, iota_e, iota_g")
    fe = ser.fmdata_from_json(obj["fe"])
    fg = ser.fmdata_from_json(obj["fg"])
    iota_e = ser.embedding_from_json(obj["iota_e"], len(fe.potential.names))
    iota_g = ser.embedding_from_json(obj["iota_g"], len(fg.potential.names))
    asm = assemble_z2(fe, fg, iota_e, iota_g)
    rep.payload = {
        **_checked_assembly(rep, asm),
        "sectors": {
            "fixed": list(asm.fixed_names),
            "sign": list(asm.sign_names),
            "twisted": list(asm.twisted_names),
        },
    }
    return rep


def _cmd_potential(args) -> RunReport:
    rep = RunReport("potential")
    kind, n = args.kind, args.n
    guard_unfolding({"A": n, "B": 2 * n - 1, "D": 2 * n - 3}[kind])
    if kind == "A":
        pot, eta = potential_A(n), flat_metric(n)
    elif kind == "B":
        pot, eta = potential_B(n), None
    else:
        pot, eta = potential_D(n), potential_D_metric(n)
    rep.payload = ser.potential_to_json(pot)
    if eta is not None:
        rep.payload["metric"] = ser.matrix_to_json(eta)
    return rep


def _cmd_flat_coords(args) -> RunReport:
    rep = RunReport("flat-coords")
    guard_unfolding(args.n)
    ch = flat_coordinates(args.n)
    rep.payload = {
        "n": ch.n,
        "t_names": list(ch.t_names),
        "a_names": list(ch.a_names),
        "a_of_t": [ser.poly_to_json(p) for p in ch.a_of_t],
        "t_of_a": [ser.poly_to_json(p) for p in ch.t_of_a],
    }
    return rep


def _cmd_construct_z2(args) -> RunReport:
    rep = RunReport("construct-z2")
    guard_unfolding(2 * args.n - 3, power=3)
    asm = z2_frobenius_manifold(args.n)
    assembly = _checked_assembly(rep, asm)
    witness = z2_cubic_witness(asm)
    rep.add("cubic_matches_algebra", witness is None, witness)
    rep.payload = {"n": args.n, **assembly, "twisted_cubic": ser.poly_to_json(asm.twisted_cubic)}
    return rep


def _cmd_verify_paper(args) -> RunReport:
    from .refchecks import run_all

    rep = RunReport("verify-paper")
    for name, ok, witness in run_all():
        rep.add(name, ok, witness or None)
    return rep


_FILE = {"required": True}
_N = {"type": int, "required": True}
_POSITIONAL_N = {"type": int}

# command -> (handler, help, {argument: add_argument keywords}), in help order
COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], RunReport], str, dict[str, dict]]] = {
    "group": (_cmd_group, "validate a multiplication table and describe the group", {"--group": _FILE}),
    "groupoid": (_cmd_groupoid, "enumerate braid-orbit components of G^n", {"--group": _FILE, "--n": _N}),
    "braidize": (
        _cmd_braidize, "project a tensor onto its braid-invariant part", {"--module": _FILE, "--tensor": _FILE}
    ),
    "br-basis": (_cmd_br_basis, "basis of braid-invariant n-tensors", {"--module": _FILE, "--n": _N}),
    "check-gfa": (_cmd_check_gfa, "check the graded Frobenius algebra axioms", {"--algebra": _FILE}),
    "wdvv": (
        _cmd_wdvv, "check associativity of a potential's product", {"--potential": _FILE, "--metric": _FILE}
    ),
    "check-pre-gfm": (
        _cmd_check_pre_gfm,
        "check both sector restrictions of a potential",
        {"--module": _FILE, "--metric": _FILE, "--potential": _FILE},
    ),
    "assemble-z2": (_cmd_assemble_z2, "glue two Frobenius manifolds over a shared block", {"--input": _FILE}),
    "potential": (
        _cmd_potential,
        "potential of an A/B/D family in flat coordinates",
        {"kind": {"choices": ("A", "B", "D")}, "n": _POSITIONAL_N},
    ),
    "flat-coords": (_cmd_flat_coords, "flat coordinate change of the one-variable unfolding", {"n": _POSITIONAL_N}),
    "construct-z2": (_cmd_construct_z2, "build and verify the order-two orbifold manifold", {"n": _POSITIONAL_N}),
    "verify-paper": (_cmd_verify_paper, "run the bundled reference-value regression suite", {}),
}
FORMATS = ("json", "text")


def invoked_command(argv: Sequence[str]) -> str | None:
    """The command in argv if only --format options come before it, else None."""
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in COMMANDS:
            return token
        if token == "--format":
            i += 2
        elif token.startswith("--format="):
            i += 1
        else:
            return None
    return None


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the command `only` alone.

    A parser narrowed to one command parses an argv that names it exactly
    as the whole parser does, with the same usage and error messages: the
    command list is kept as the metavar of the subcommand argument.
    """
    ap = argparse.ArgumentParser(
        prog="gfrob",
        description="Exact computer algebra for braided tensors on graded modules "
        "and the Frobenius structures of the A/D singularities.",
    )
    ap.add_argument("--format", choices=FORMATS, default="json")
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if only is None else (only,):
        fn, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for arg, spec in arguments.items():
            p.add_argument(arg, **spec)
        p.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS)
        p.set_defaults(fn=fn)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(invoked_command(argv)).parse_args(argv)
    try:
        report: RunReport = args.fn(args)
    except (ser.ParseError, NotAGroup) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except BadIndex as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except GfrobError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED
    sys.stdout.write(report.render(args.format))
    return report.exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
