import json
from fractions import Fraction

import pytest

from gfrob.cli import main
from gfrob.serialize import (
    group_to_json,
    matrix_to_json,
    module_to_json,
    poly_to_json,
    potential_to_json,
    tensor_to_json,
)
from gfrob import Tensor, dual_module, potential_A, symmetric_group, trivial_group
from gfrob.modules import trivial_graded_module
from gfrob.linalg import identity
from gfrob.singularity import flat_metric, z2_frobenius_algebra

from conftest import gfa_to_json


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def write(name, obj):
        p = root / name
        p.write_text(json.dumps(obj))
        return str(p)

    alg = z2_frobenius_algebra(3)
    pa = potential_A(3)
    return {
        "z2": write("z2.json", {"order": 2, "table": [[0, 1], [1, 0]]}),
        "bad": write("bad.json", {"order": 2}),
        "notgroup": write("ng.json", {"order": 2, "table": [[0, 0], [0, 0]]}),
        "module": write("module.json", module_to_json(dual_module(alg.module))),
        "tensor": write("tensor.json", tensor_to_json(Tensor.basis((2, 3)))),
        "algebra": write("algebra.json", gfa_to_json(alg)),
        "phiA3": write("phiA3.json", potential_to_json(pa)),
        "etaA3": write("etaA3.json", {"matrix": matrix_to_json(flat_metric(3))}),
        "s3": write("s3.json", group_to_json(symmetric_group(3))),
        "trivial10": write("trivial10.json", module_to_json(trivial_graded_module(trivial_group(), 10))),
        "root": root,
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_group_ok(capsys, files):
    code, out = run(capsys, "group", "--group", files["z2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["order"] == 2
    assert doc["payload"]["conjugacy_classes"] == [[0], [1]]


def test_group_rejects_non_group(capsys, files):
    # a failing table is this subcommand's check failure, not a parse error
    code, out = run(capsys, "group", "--group", files["notgroup"])
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"][0]["status"] == "fail"


def test_groupoid_lines(capsys, files):
    code, out = run(capsys, "groupoid", "--group", files["z2"], "--n", "2")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 3
    by_comp = {tuple(l["component"]): l for l in lines}
    assert by_comp[(0, 1)]["size"] == 2
    assert by_comp[(0, 1)]["m_C"] == 2
    assert by_comp[(0, 1)]["n_C"] == 4
    for l in lines:
        assert l["n_C"] == l["size"] * l["m_C"]


def test_braidize_kills_mixed_term(capsys, files):
    code, out = run(capsys, "braidize", "--module", files["module"], "--tensor", files["tensor"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["terms"] == []


def test_br_basis(capsys, files):
    code, out = run(capsys, "br-basis", "--module", files["module"], "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["dimension"] == 9


def test_check_gfa(capsys, files):
    code, out = run(capsys, "check-gfa", "--algebra", files["algebra"])
    assert code == 0
    doc = json.loads(out)
    assert all(c["status"] == "pass" and "witness" not in c for c in doc["checks"])


def test_check_gfa_names_the_first_failing_axiom(capsys, tmp_path):
    # doubling eta_yy breaks only metric invariance, first at eta(z . y, y) = eta(z, y . y)
    metric = [row[:] for row in ALGEBRA["metric"]]
    metric[3][3] = str(2 * Fraction(metric[3][3]))
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra_with(metric=metric)))
    code, out = run(capsys, "check-gfa", "--algebra", str(path))
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert failed == [
        {"name": "metric_invariance", "status": "fail", "witness": "(a, b, c) = (0, 3, 3)"}
    ]


def test_wdvv_pass_and_fail(capsys, files, tmp_path):
    code, out = run(capsys, "wdvv", "--potential", files["phiA3"], "--metric", files["etaA3"])
    assert code == 0
    pa = potential_A(3)
    broken = poly_to_json(pa.poly + pa.poly.homogeneous_part(5))
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({"names": list(pa.names), "potential": broken}))
    code, out = run(capsys, "wdvv", "--potential", str(bad), "--metric", files["etaA3"])
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"][0]["status"] == "fail"
    assert doc["checks"][0]["witness"]


def test_wdvv_reports_a_singular_metric(capsys, files, tmp_path):
    """A square but singular metric fails the wdvv check with a witness; the report still prints."""
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps({"matrix": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]}))
    argv = ["wdvv", "--potential", files["phiA3"], "--metric", str(singular)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {
        "command": "wdvv",
        "checks": [{"name": "wdvv", "status": "fail", "witness": "metric is singular"}],
        "exit_code": 1,
    }
    code = main([*argv, "--format", "text"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert captured.out == "FAIL  wdvv  metric is singular\n"


def test_potential_under_the_poly_key_is_input_error(capsys, files, tmp_path):
    # a named potential is read from "potential" alone; "poly" is no alias for it
    pa = potential_A(3)
    aliased = tmp_path / "aliased.json"
    aliased.write_text(json.dumps({"names": list(pa.names), "poly": poly_to_json(pa.poly)}))
    code = main(["wdvv", "--potential", str(aliased), "--metric", files["etaA3"]])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("input error:") and "Traceback" not in captured.err


def test_potential_command(capsys):
    code, out = run(capsys, "potential", "A", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["names"] == ["t_0", "t_1", "t_2"]
    assert {"coef": "-1/60", "exp": [0, 0, 5]} in doc["payload"]["potential"]["terms"]


def test_flat_coords_command(capsys):
    code, out = run(capsys, "flat-coords", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["n"] == 3
    assert len(doc["payload"]["a_of_t"]) == 3


def test_construct_z2(capsys):
    code, out = run(capsys, "construct-z2", "3")
    assert code == 0
    doc = json.loads(out)
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names == {"pre_gfm": "pass", "cubic_matches_algebra": "pass"}


def test_check_pre_gfm_command(capsys, files, tmp_path):
    from gfrob.singularity import z2_frobenius_manifold

    fm = z2_frobenius_manifold(3)
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps(module_to_json(fm.module)))
    eta = tmp_path / "eta.json"
    eta.write_text(json.dumps({"matrix": matrix_to_json(fm.metric)}))
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps(potential_to_json(fm.potential)))
    code, out = run(capsys, "check-pre-gfm", "--module", str(mod), "--metric", str(eta), "--potential", str(pot))
    assert code == 0


PRE_GFM_CHECKS = ["module_valid", "self_invariant", "metric", "braided", "degree_filter", "wdvv_untwisted", "wdvv_invariants"]


def test_check_pre_gfm_reports_a_singular_sector(capsys, files, tmp_path):
    """A metric singular on the invariant sector fails that sector's check; all seven checks print."""
    from gfrob.singularity import z2_frobenius_manifold

    fm = z2_frobenius_manifold(3)
    metric = matrix_to_json(fm.metric)
    metric[-1][-1] = "0"
    inputs = {
        "--module": module_to_json(fm.module),
        "--metric": {"matrix": metric},
        "--potential": potential_to_json(fm.potential),
    }
    code, out = run(capsys, *argv_with_files(files, tmp_path, "check-pre-gfm", inputs))
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == PRE_GFM_CHECKS
    assert [c for c in checks if c["status"] == "fail"] == [
        {"name": "metric", "status": "fail", "witness": "blockwise_nondegenerate fails at g = 1"},
        {"name": "wdvv_invariants", "status": "fail", "witness": "metric is singular on the invariant sector"},
    ]


def test_check_pre_gfm_names_the_self_invariance_witness(capsys, files, tmp_path):
    # the involution negates the twisted basis vector, which self-invariance forbids
    module = {"group": {"order": 2, "table": [[0, 1], [1, 0]]}, "degrees": [0, 1],
              "action": {"0": [[ONE, ZERO], [ZERO, ONE]], "1": [[ONE, ZERO], [ZERO, "-1"]]}}
    inputs = {
        "--module": module,
        "--metric": {"matrix": [[ONE, ZERO], [ZERO, ONE]]},
        "--potential": {"names": ["a", "b"], "potential": {"vars": ["a"], "terms": [{"exp": [3], "coef": "1"}]}},
    }
    code, out = run(capsys, *argv_with_files(files, tmp_path, "check-pre-gfm", inputs))
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == PRE_GFM_CHECKS
    assert [c for c in checks if c["status"] == "fail"] == [
        {"name": "self_invariant", "status": "fail", "witness": "g = 1, (i, j) = (1, 1)"},
    ]


def test_assemble_z2_command(capsys, tmp_path):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(assembly_with([0, 2])))
    code, out = run(capsys, "assemble-z2", "--input", str(src))
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["sectors"] == {"fixed": ["t_0", "t_2"], "sign": ["t_1"], "twisted": ["t_*"]}


@pytest.mark.parametrize("golden, fmt", [("assemble_z2_a3_d3.json", []), ("assemble_z2_a3_d3.txt", ["--format", "text"])])
def test_golden_assemble_z2_output(capsys, tmp_path, golden, fmt):
    """The whole payload of the A3/D3 gluing: module, names, metric, potential and sectors."""
    import pathlib

    src = tmp_path / "in.json"
    src.write_text(json.dumps(assembly_with([0, 2])))
    code, out = run(capsys, *fmt, "assemble-z2", "--input", str(src))
    assert code == 0
    assert out == (pathlib.Path(__file__).parent / "golden" / golden).read_text()


def test_assemble_z2_names_the_failing_sub_check(capsys, tmp_path):
    """The broken A3/D3 gluing of test_check_pre_gfm_detects_bad_twisted_term fails WDVV on the invariants."""
    from gfrob import MultiPoly, potential_D

    broken = potential_D(3).poly + MultiPoly(("t_*", "t_0", "t_2"), {(2, 0, 2): Fraction(1, 7)})
    doc = assembly_with([0, 2])
    doc["fg"]["potential"] = poly_to_json(broken)
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    code, out = run(capsys, "assemble-z2", "--input", str(src))
    assert code == 1
    assert json.loads(out)["checks"] == [
        {"name": "pre_gfm", "status": "fail", "witness": {"check": "wdvv_invariants", "witness": [[1, 1, 2, 2], [1, 2, 2, 1]]}}
    ]


def _pre_gfm_golden_case(name):
    """(module, metric, potential) of a check-pre-gfm golden case.

    swap_broken: make_z2_swap_module, whose invariants include e_0 + e_1, with the potential of
    swap_manifold broken on both sectors.  a3_d3_broken: the broken A3/D3 gluing of
    test_assemble_z2_names_the_failing_sub_check.
    """
    from gfrob import FmData, MultiPoly, Potential, assemble_z2, potential_D
    from gfrob.singularity import potential_D_metric
    from conftest import swap_broken_term, swap_manifold

    if name == "swap_broken":
        return swap_manifold(swap_broken_term())
    pd = potential_D(3)
    broken = pd.poly + MultiPoly(("t_*", "t_0", "t_2"), {(2, 0, 2): Fraction(1, 7)})
    fe = FmData(flat_metric(3), potential_A(3))
    fg = FmData(potential_D_metric(3), Potential(pd.names, broken))
    asm = assemble_z2(fe, fg, [0, 2], [0, 1])
    return asm.module, asm.metric, asm.potential


@pytest.mark.parametrize(
    "golden, case, fmt",
    [
        ("check_pre_gfm_swap_broken.json", "swap_broken", []),
        ("check_pre_gfm_swap_broken.txt", "swap_broken", ["--format", "text"]),
        ("check_pre_gfm_a3_d3_broken.json", "a3_d3_broken", []),
        ("check_pre_gfm_a3_d3_broken.txt", "a3_d3_broken", ["--format", "text"]),
    ],
)
def test_golden_check_pre_gfm_output(capsys, files, tmp_path, golden, case, fmt):
    """Every check and witness of check-pre-gfm on a sector basis that is not made of coordinate vectors
    and on an order-two assembly, both failing WDVV."""
    import pathlib

    module, metric, pot = _pre_gfm_golden_case(case)
    inputs = {
        "--module": module_to_json(module),
        "--metric": {"matrix": matrix_to_json(metric)},
        "--potential": potential_to_json(pot),
    }
    code, out = run(capsys, *fmt, *argv_with_files(files, tmp_path, "check-pre-gfm", inputs))
    assert code == 1
    assert out == (pathlib.Path(__file__).parent / "golden" / golden).read_text()


@pytest.mark.parametrize("names", [[f"x{i}" for i in range(6)], ["x0", "x1", "x5", "x3", "x4", "x2"]], ids=["plain", "swapped"])
def test_check_pre_gfm_names_the_degree_witness(capsys, files, tmp_path, names):
    """x2 x3 x5 on S3's regular module has dual degrees 2, 4, 5, which do not commute, under either naming."""
    from conftest import make_s3_regular_module

    h = make_s3_regular_module()
    g = h.group
    exp = [int(j in (2, 3, 5)) for j in range(6)]
    inputs = {
        "--module": module_to_json(h),
        "--metric": {"matrix": [[int(g.mul(i, j) == g.identity) for j in g.elements()] for i in g.elements()]},
        "--potential": {"names": names, "potential": {"vars": names, "terms": [{"exp": exp, "coef": "1"}]}},
    }
    code, out = run(capsys, *argv_with_files(files, tmp_path, "check-pre-gfm", inputs))
    assert code == 1
    degree = next(c for c in json.loads(out)["checks"] if c["name"] == "degree_filter")
    assert degree == {"name": "degree_filter", "status": "fail", "witness": [[2, 1], [3, 1], [5, 1]]}


def test_parse_error_exit_code(capsys, files):
    code = main(["braidize", "--module", files["bad"], "--tensor", files["tensor"]])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("text", ["[[0, 1], [1, " + "1" * 5000 + "]]", b"\xff\xfe{"], ids=["5000-digit-int", "not-utf8"])
def test_unreadable_json_exits_3(capsys, tmp_path, text):
    """An int literal over the interpreter's digit limit and bytes that are not text are malformed input."""
    path = tmp_path / "group.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text('{"order": 2, "table": ' + text + "}")
    code = main(["group", "--group", str(path)])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and err.startswith(f"input error: cannot read {path}:")


POLY_A3 = {"vars": ["t_0", "t_1", "t_2"], "terms": [{"exp": [1, 1, 0], "coef": "1"}]}
ALGEBRA = gfa_to_json(z2_frobenius_algebra(3))  # dimension 4


def algebra_with(**fields):
    return {**ALGEBRA, **fields}


ONE, ZERO = "1", "0"


def z2_module_with(degrees=(0, 1), action=((ONE, ZERO), (ZERO, ONE))):
    """A two-dimensional module over Z2 whose every element acts by the given matrix."""
    rows = [list(r) for r in action]
    return {"group": {"order": 2, "table": [[0, 1], [1, 0]]}, "degrees": list(degrees), "action": {"0": rows, "1": rows}}


def assembly_with(iota_e, fe=None, fg=None):
    """The A3/D3 gluing input of test_assemble_z2_command with another iota_e.

    fe and fg override fields of the two manifolds; a field given as None is left out.
    """
    from gfrob import potential_D
    from gfrob.singularity import potential_D_metric

    def manifold(pot, metric, fields):
        doc = {**potential_to_json(pot), "metric": matrix_to_json(metric), **(fields or {})}
        return {k: x for k, x in doc.items() if x is not None}

    return {
        "fe": manifold(potential_A(3), flat_metric(3), fe),
        "fg": manifold(potential_D(3), potential_D_metric(3), fg),
        "iota_e": iota_e,
        "iota_g": [0, 1],
    }


MALFORMED = {
    "metric not square": ("wdvv", {"--potential": "phiA3", "--metric": {"matrix": [[1, 2]]}}),
    "variable not among names": (
        "wdvv",
        {"--potential": {"names": ["t_0", "t_1", "t_2"], "potential": {"vars": ["b", "t_0"], "terms": [{"exp": [1, 2], "coef": "1"}]}},
         "--metric": "etaA3"},
    ),
    "term without coef": ("wdvv", {"--potential": {"vars": ["t_0"], "terms": [{"exp": [3]}]}, "--metric": [[1]]}),
    "term without exp": ("wdvv", {"--potential": {"vars": ["t_0"], "terms": [{"coef": "1"}]}, "--metric": [[1]]}),
    "idx length is not n": ("braidize", {"--module": "module", "--tensor": {"n": 2, "terms": [{"idx": [0, 1, 2], "coef": "1"}]}}),
    "idx out of range": ("braidize", {"--module": "module", "--tensor": {"n": 2, "terms": [{"idx": [0, 9], "coef": "1"}]}}),
    "pre-gfm metric not square": (
        "check-pre-gfm",
        {"--module": "module", "--metric": [[1, 0], [0, 1]], "--potential": {"names": ["a", "b", "c", "d"], "potential": POLY_A3}},
    ),
    "gfa mult has 2 planes": ("check-gfa", {"--algebra": algebra_with(mult=ALGEBRA["mult"][:2])}),
    "gfa mult row too short": (
        "check-gfa",
        {"--algebra": algebra_with(mult=[ALGEBRA["mult"][0][:3] + [["0"]]] + ALGEBRA["mult"][1:])},
    ),
    "gfa unit has 2 entries": ("check-gfa", {"--algebra": algebra_with(unit=["1", "0"])}),
    "gfa metric has 2 rows": ("check-gfa", {"--algebra": algebra_with(metric=ALGEBRA["metric"][:2])}),
    "embedding index out of range": ("assemble-z2", {"--input": assembly_with([0, 99])}),
    "embedding index not an integer": ("assemble-z2", {"--input": assembly_with([0, "a"])}),
    "embedding not a list": ("assemble-z2", {"--input": assembly_with(5)}),
    "embedding index negative": ("assemble-z2", {"--input": assembly_with([0, -3])}),
    "embedding index repeated": ("assemble-z2", {"--input": assembly_with([2, 2])}),
    "manifold without names": ("assemble-z2", {"--input": assembly_with([0, 2], fe={"names": None})}),
    "manifold variable not among names": (
        "assemble-z2",
        {"--input": assembly_with([0, 2], fg={"names": ["t_0", "t_2", "u"]})},
    ),
    "manifold metric of the wrong size": (
        "assemble-z2",
        {"--input": assembly_with([0, 2], fe={"metric": [["1", "0"], ["0", "1"]]})},
    ),
    "manifold without potential": ("assemble-z2", {"--input": assembly_with([0, 2], fg={"potential": None})}),
    "module action not dim x dim": ("br-basis", {"--module": z2_module_with(action=[[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]]), "--n": 2}),
    "module action rows ragged": ("br-basis", {"--module": z2_module_with(action=[[ONE, ZERO], [ZERO]]), "--n": 2}),
    "module degree out of range": ("br-basis", {"--module": z2_module_with(degrees=[0, 5]), "--n": 2}),
}


def argv_with_files(files, tmp_path, command, inputs):
    """Command line whose inputs are fixture files (by key), JSON written to
    tmp_path, or plain integers such as --n."""
    argv = [command]
    for flag, value in inputs.items():
        if isinstance(value, int):
            arg = str(value)
        elif isinstance(value, str):
            arg = files[value]
        else:
            arg = tmp_path / f"{flag.strip('-')}.json"
            arg.write_text(json.dumps(value))
        argv += [flag, str(arg)]
    return argv


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_3(capsys, files, tmp_path, case):
    code = main(argv_with_files(files, tmp_path, *MALFORMED[case]))
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and err.startswith("input error:")


def test_module_failing_an_axiom_exits_1(capsys, files, tmp_path):
    # well shaped, but the action of the generator is singular: a failed check, not malformed input
    singular = z2_module_with(action=[[ZERO, ZERO], [ZERO, ONE]])
    code = main(argv_with_files(files, tmp_path, "br-basis", {"--module": singular, "--n": 2}))
    out, err = capsys.readouterr()
    assert code == 1
    assert out == "" and "InvalidAction" in err
    # rho(e) = diag(0, 1): the identity axiom is the first to fail, at entry (0, 0)
    assert "identity axiom fails at (i, j) = (0, 0)" in err
    # braidize, which needs a valid module too, refuses it the same way
    tensor = {"n": 2, "terms": [{"idx": [0, 1], "coef": "1"}]}
    code = main(argv_with_files(files, tmp_path, "braidize", {"--module": singular, "--tensor": tensor}))
    out, err = capsys.readouterr()
    assert code == 1
    assert out == "" and err == "error: InvalidAction: module validation failed: identity axiom fails at (i, j) = (0, 0)\n"


GFA_CHECK_NAMES = [
    "module_valid", "self_invariant", "equivariance", "graded_mult", "braided_commutativity",
    "metric_invariance", "invariant_unit", "associative", "unital", "metric",
]


def test_checks_report_a_module_that_breaks_an_axiom(capsys, files, tmp_path):
    """check-gfa and check-pre-gfm print every check, and module_valid fails with the module's witness."""
    # rho(1) = diag(2, 1) squares to diag(4, 1), not rho(0) = I
    module = {"group": {"order": 2, "table": [[0, 1], [1, 0]]}, "degrees": [0, 0],
              "action": {"0": [[ONE, ZERO], [ZERO, ONE]], "1": [["2", ZERO], [ZERO, ONE]]}}
    line = "homomorphism axiom fails at (a, b) = (1, 1)"
    algebra = {"module": module, "metric": [[ONE, ZERO], [ZERO, ONE]],
               "mult": [[[ONE, ZERO], [ZERO, ONE]], [[ZERO, ONE], [ONE, ZERO]]], "unit": [ONE, ZERO]}
    code = main(argv_with_files(files, tmp_path, "check-gfa", {"--algebra": algebra}))
    out, err = capsys.readouterr()
    checks = json.loads(out)["checks"]
    assert code == 1 and err == ""
    assert [c["name"] for c in checks] == GFA_CHECK_NAMES
    assert checks[0] == {"name": "module_valid", "status": "fail", "witness": line}

    inputs = {
        "--module": module,
        "--metric": {"matrix": [[ONE, ZERO], [ZERO, ONE]]},
        "--potential": {"names": ["a", "b"], "potential": {"vars": ["a"], "terms": [{"exp": [3], "coef": "1"}]}},
    }
    code = main(argv_with_files(files, tmp_path, "check-pre-gfm", inputs))
    out, err = capsys.readouterr()
    checks = json.loads(out)["checks"]
    assert code == 1 and err == ""
    assert [c["name"] for c in checks] == PRE_GFM_CHECKS
    assert checks[0] == {"name": "module_valid", "status": "fail", "witness": line}


def test_check_gfa_names_a_witness_on_every_failed_row(capsys, files, tmp_path):
    """Over Z2 with rho(0) = diag(0, 1) and rho(1) the swap, six rows of check-gfa fail, each with its own witness."""
    module = {"group": {"order": 2, "table": [[0, 1], [1, 0]]}, "degrees": [0, 1],
              "action": {"0": [[ZERO, ZERO], [ZERO, ONE]], "1": [[ZERO, ONE], [ONE, ZERO]]}}
    algebra = {"module": module, "metric": [[ONE, ZERO], [ZERO, ONE]],
               "mult": [[[ONE, ZERO], [ZERO, ONE]], [[ZERO, ONE], [ONE, ZERO]]], "unit": [ONE, ZERO]}
    code = main(argv_with_files(files, tmp_path, "check-gfa", {"--algebra": algebra}))
    failed = {c["name"]: c.get("witness") for c in json.loads(capsys.readouterr().out)["checks"] if c["status"] == "fail"}
    assert code == 1
    assert failed == {
        "module_valid": "homomorphism axiom fails at (a, b) = (0, 1)",
        "self_invariant": "g = 0, (i, j) = (0, 0)",
        "equivariance": "g = 0, (a, b) = (0, 1)",
        "braided_commutativity": "(a, b) = (0, 0)",
        "invariant_unit": "g = 0",
        "metric": "g_invariant fails at g = 0",
    }


def test_check_pre_gfm_names_braid_witness(capsys, files, tmp_path):
    from conftest import make_z3_module

    names = ["s0", "s1", "s2", "s3"]
    inputs = {
        "--module": module_to_json(make_z3_module()),
        "--metric": {"matrix": matrix_to_json(identity(4))},
        "--potential": {"names": names, "potential": {"vars": names, "terms": [{"exp": [4, 0, 1, 0], "coef": "1"}]}},
    }
    code, out = run(capsys, *argv_with_files(files, tmp_path, "check-pre-gfm", inputs))
    assert code == 1
    braided = next(c for c in json.loads(out)["checks"] if c["name"] == "braided")
    assert braided == {"name": "braided", "status": "fail", "witness": [0, 2]}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["potential", "A", "1"],
        ["potential", "D", "2"],
        ["flat-coords", "1"],
        ["construct-z2", "2"],
        ["groupoid", "--group", "z2", "--n", "-1"],
        ["br-basis", "--module", "module", "--n", "-1"],
    ],
)
def test_bad_index_is_usage_error(capsys, files, argv):
    code = main([files.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("limit", ["abc", "-5", "0", "1.5"])
def test_bad_size_limit_is_usage_error(capsys, files, monkeypatch, limit):
    monkeypatch.setenv("GFROB_SIZE_LIMIT", limit)
    for argv in (["groupoid", "--group", files["z2"], "--n", "2"], ["br-basis", "--module", files["module"], "--n", "2"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert "GFROB_SIZE_LIMIT" in err and out == ""


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["groupoid", "--group", "z2", "--n", "3"], "10"),
        (["br-basis", "--module", "module", "--n", "2"], "10"),
        (["potential", "A", "3"], "10"),
        (["potential", "B", "3"], "10"),
        (["potential", "D", "3"], "10"),
        (["flat-coords", "3"], "10"),
        (["construct-z2", "3"], "10"),
        (["potential", "A", "11"], "45616"),  # one below the estimate for A_11
        (["groupoid", "--group", "z2", "--n", "9"], None),
        (["potential", "A", "17"], None),
        (["potential", "B", "9"], None),
        (["potential", "D", "10"], None),
        (["flat-coords", "40"], None),
        (["construct-z2", "8"], None),
    ],
)
def test_size_limit_is_usage_error(capsys, files, monkeypatch, argv, limit):
    """A refusal exits 2, prints nothing on stdout and names the override."""
    if limit is None:
        monkeypatch.delenv("GFROB_SIZE_LIMIT", raising=False)
    else:
        monkeypatch.setenv("GFROB_SIZE_LIMIT", limit)
    code = main([files.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("size limit: ") and "GFROB_SIZE_LIMIT" in err


def test_size_limit_default_admits_the_benchmark_sizes(capsys, monkeypatch):
    from gfrob.singularity import guard_unfolding

    monkeypatch.delenv("GFROB_SIZE_LIMIT", raising=False)
    for m in (11, 13, 16):  # potential A 11, potential D 8, the largest admitted
        guard_unfolding(m)
    guard_unfolding(11, power=3)  # construct-z2 7
    monkeypatch.setenv("GFROB_SIZE_LIMIT", "45617")  # exactly the estimate for A_11
    code, _ = run(capsys, "potential", "A", "11")
    assert code == 0


@pytest.mark.parametrize("argv", [["potential", "A"], ["potential", "B"], ["potential", "D"], ["flat-coords"], ["construct-z2"]])
def test_size_limit_refuses_a_huge_n_at_once(capsys, monkeypatch, argv):
    import time

    monkeypatch.delenv("GFROB_SIZE_LIMIT", raising=False)
    start = time.perf_counter()
    code = main(argv + [str(10**11)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("size limit: ")
    assert elapsed < 1


HUGE_N = "7" * 1500


@pytest.mark.parametrize(
    "argv, limit_digits",
    [
        pytest.param(["groupoid", "--group", "z2", "--n", "1424"], None, id="groupoid-z2-1424"),  # 4301 digits
        pytest.param(["groupoid", "--group", "z2", "--n", str(10**6)], None, id="groupoid-z2-10^6"),
        pytest.param(["groupoid", "--group", "z2", "--n", str(10**7)], None, id="groupoid-z2-10^7"),
        pytest.param(["groupoid", "--group", "s3", "--n", "1300"], None, id="groupoid-s3-1300"),
        pytest.param(["br-basis", "--module", "trivial10", "--n", "3000"], None, id="br-basis-trivial10-3000"),
        pytest.param(["potential", "A", HUGE_N], None, id="potential-A-1500-digits"),
        pytest.param(["potential", "B", HUGE_N], None, id="potential-B-1500-digits"),
        pytest.param(["potential", "D", HUGE_N], None, id="potential-D-1500-digits"),
        pytest.param(["flat-coords", HUGE_N], None, id="flat-coords-1500-digits"),
        pytest.param(["construct-z2", HUGE_N], None, id="construct-z2-1500-digits"),
        pytest.param(["groupoid", "--group", "z2", "--n", "2"], 5000, id="groupoid-limit-5000-digits"),
        pytest.param(["br-basis", "--module", "module", "--n", "2"], 5000, id="br-basis-limit-5000-digits"),
    ],
)
def test_size_guard_refuses_unprintable_sizes_at_once(capsys, files, monkeypatch, argv, limit_digits):
    """A cost or limit of more than 4300 digits, which str() and int() refuse, exits 2 without a traceback."""
    import time

    if limit_digits is None:
        monkeypatch.delenv("GFROB_SIZE_LIMIT", raising=False)
    else:
        monkeypatch.setenv("GFROB_SIZE_LIMIT", "9" * limit_digits)
    start = time.perf_counter()
    code = main([files.get(a, a) for a in argv])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err and "GFROB_SIZE_LIMIT" in err
    assert elapsed < 1


def test_size_guard_prints_every_printable_cost(capsys, files, monkeypatch):
    """Below 10^4300 the refusal names the exact cost; a limit of 4300 digits is accepted."""
    from math import factorial

    monkeypatch.delenv("GFROB_SIZE_LIMIT", raising=False)
    assert main(["groupoid", "--group", files["z2"], "--n", "1423"]) == 2
    cost = 2**1423 * factorial(1423)
    assert capsys.readouterr().err == f"size limit: |G|^n * n! = {cost} exceeds limit 1000000; set GFROB_SIZE_LIMIT to raise it\n"
    assert main(["groupoid", "--group", files["z2"], "--n", "1424"]) == 2
    assert capsys.readouterr().err == "size limit: |G|^n * n! >= 10^4300 exceeds limit 1000000; set GFROB_SIZE_LIMIT to raise it\n"
    monkeypatch.setenv("GFROB_SIZE_LIMIT", "9" * 4300)
    assert main(["groupoid", "--group", files["z2"], "--n", "2"]) == 0


@pytest.mark.parametrize(
    "argv, limit_digits, message",
    [
        pytest.param(
            ["groupoid", "--group", "z2", "--n", "500"], None,
            "size limit: |G|^n * n! >= 10^640 exceeds limit 1000000; set GFROB_SIZE_LIMIT to raise it\n",
            id="cost-1285-digits",
        ),
        pytest.param(
            ["groupoid", "--group", "z2", "--n", "2"], 700,
            "usage error: GFROB_SIZE_LIMIT must be below 10^640, got 700 digits\n",
            id="limit-700-digits",
        ),
    ],
)
def test_size_guard_follows_a_lowered_digit_limit(files, argv, limit_digits, message):
    """Under PYTHONINTMAXSTRDIGITS=640 a cost or limit that str() or int() refuses is refused with exit 2."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = {k: v for k, v in os.environ.items() if k != "GFROB_SIZE_LIMIT"}
    env["PYTHONINTMAXSTRDIGITS"] = "640"
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if limit_digits is not None:
        env["GFROB_SIZE_LIMIT"] = "9" * limit_digits
    proc = subprocess.run(
        [sys.executable, "-m", "gfrob", *(files.get(a, a) for a in argv)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_unfolding_guard_verdict_and_message_follow_the_full_count(monkeypatch):
    """The lower bound only refuses early; where the full count runs, its message is unchanged."""
    from gfrob.errors import SizeLimit
    from gfrob.singularity import guard_unfolding, potential_terms

    terms = {m: potential_terms(m) for m in range(-4, 60)}
    for cap in (1, 7, 45616, 45617, 10**6):
        monkeypatch.setenv("GFROB_SIZE_LIMIT", str(cap))
        for m, count in terms.items():
            for power in (2, 3):
                cost = count * m**power
                try:
                    guard_unfolding(m, power)
                    refusal = None
                except SizeLimit as exc:
                    refusal = str(exc)
                assert (refusal is not None) == (cost > cap), (cap, m, power)
                if refusal is not None and "(lower bound)" not in refusal:
                    assert refusal == f"A_{m} potential: estimated cost = {cost} exceeds limit {cap}; set GFROB_SIZE_LIMIT to raise it"


def test_byte_identical_output(capsys, files):
    _, out1 = run(capsys, "potential", "D", "3")
    _, out2 = run(capsys, "potential", "D", "3")
    assert out1 == out2
    _, g1 = run(capsys, "groupoid", "--group", files["z2"], "--n", "3")
    _, g2 = run(capsys, "groupoid", "--group", files["z2"], "--n", "3")
    assert g1 == g2


def test_text_format(capsys, files):
    code, out = run(capsys, "--format", "text", "check-gfa", "--algebra", files["algebra"])
    assert code == 0
    assert "PASS" in out


def test_stdin_input(files, capsys, monkeypatch):
    import io

    payload = open(files["z2"]).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out = run(capsys, "group", "--group", "-")
    assert code == 0


def test_golden_potential_output(capsys):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "potential_A3.json"
    _, out = run(capsys, "potential", "A", "3")
    assert out == golden.read_text()


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("potential_A5.json", ["potential", "A", "5"]),
        ("potential_D4.json", ["potential", "D", "4"]),
        ("potential_B3.json", ["potential", "B", "3"]),
        ("flat_coords_6.json", ["flat-coords", "6"]),
        ("construct_z2_4.json", ["construct-z2", "4"]),
        ("construct_z2_4.txt", ["--format", "text", "construct-z2", "4"]),
        ("potential_A8.json", ["potential", "A", "8"]),
        ("potential_D6.json", ["potential", "D", "6"]),
        ("construct_z2_6.json", ["construct-z2", "6"]),
        ("construct_z2_7.json", ["construct-z2", "7"]),
    ],
)
def test_golden_polynomial_outputs(capsys, golden, argv):
    import pathlib

    _, out = run(capsys, *argv)
    assert out == (pathlib.Path(__file__).parent / "golden" / golden).read_text()


@pytest.mark.parametrize("command", ["wdvv", "check-pre-gfm"])
def test_huge_exponent_is_prompt(capsys, files, tmp_path, command):
    import time

    poly = {"vars": ["x"], "terms": [{"exp": [10**9], "coef": "1"}]}
    inputs = {"--potential": {"names": ["x"], "potential": poly}, "--metric": [[1]]}
    if command == "check-pre-gfm":
        inputs["--module"] = {"group": {"order": 1, "table": [[0]]}, "dim": 1, "degrees": [0], "action": {"0": [["1"]]}}
    start = time.perf_counter()
    code, _ = run(capsys, *argv_with_files(files, tmp_path, command, inputs))
    assert code == 0
    assert time.perf_counter() - start < 5


def test_degree_witness_of_a_huge_exponent_is_prompt(capsys, files, tmp_path):
    """x^(2^30 + 1) of degree g over Z2 fails the degree filter; its witness is one [index, exponent] pair."""
    import time

    poly = {"vars": ["x"], "terms": [{"exp": [2**30 + 1], "coef": "1"}]}
    module = {"group": {"order": 2, "table": [[0, 1], [1, 0]]}, "degrees": [1], "action": {"0": [[ONE]], "1": [[ONE]]}}
    inputs = {"--module": module, "--metric": [[1]], "--potential": {"names": ["x"], "potential": poly}}
    start = time.perf_counter()
    code, out = run(capsys, *argv_with_files(files, tmp_path, "check-pre-gfm", inputs))
    assert time.perf_counter() - start < 5
    assert code == 1
    assert [c for c in json.loads(out)["checks"] if c["status"] == "fail"] == [
        {"name": "degree_filter", "status": "fail", "witness": [[0, 2**30 + 1]]}
    ]


@pytest.mark.parametrize("exponent", [2**31, 2**30 + 3])  # refused when read; refused in a product
def test_exponent_bound_is_size_limit(capsys, files, tmp_path, exponent):
    """An exponent of 2^31 or more exits 2 and never wraps; GFROB_SIZE_LIMIT cannot raise this bound."""
    poly = {"vars": ["x"], "terms": [{"exp": [exponent], "coef": "1"}]}
    inputs = {"--potential": {"names": ["x"], "potential": poly}, "--metric": [[1]]}
    code = main(argv_with_files(files, tmp_path, "wdvv", inputs))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("size limit: ") and "Traceback" not in err and "GFROB_SIZE_LIMIT" not in err


def test_golden_groupoid_output(capsys, files):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "groupoid_z2_n2.jsonl"
    _, out = run(capsys, "groupoid", "--group", files["z2"], "--n", "2")
    assert out == golden.read_text()


@pytest.mark.parametrize("golden, group, n", [("groupoid_z2_n6.jsonl", "Z2", 6), ("groupoid_s3_n4.jsonl", "S3", 4)])
def test_golden_groupoid_census(capsys, tmp_path, golden, group, n):
    """m_C is a product of transversal sizes; the census stays byte-identical."""
    import pathlib

    from gfrob import cyclic_group, symmetric_group
    from gfrob.serialize import group_to_json

    path = tmp_path / "group.json"
    g = {"Z2": cyclic_group(2), "S3": symmetric_group(3)}[group]
    path.write_text(json.dumps(group_to_json(g)))
    _, out = run(capsys, "groupoid", "--group", str(path), "--n", str(n))
    assert out == (pathlib.Path(__file__).parent / "golden" / golden).read_text()


@pytest.mark.parametrize(
    "golden, module, n",
    [
        ("br_basis_z2_dual3_n4.json", "module", 4),
        ("br_basis_z3_rot_n3.json", "z3", 3),
        ("br_basis_s3_half_n3.json", "s3-half", 3),
        ("br_basis_z2_dual5_n3.json", "z2-dual-5", 3),
    ],
)
def test_golden_br_basis_outputs(capsys, files, tmp_path, golden, module, n):
    """Canonical invariant bases stay byte-identical, also for a non-integral action."""
    import pathlib
    from fractions import Fraction

    from conftest import make_s3_module, make_z3_module, rescale_basis

    path = files["module"]
    if module != "module":
        h = {
            "z3": make_z3_module,
            "s3-half": lambda: rescale_basis(make_s3_module(), 1, Fraction(1, 2)),
            "z2-dual-5": lambda: dual_module(z2_frobenius_algebra(5).module),
        }[module]()
        path = tmp_path / "module.json"
        path.write_text(json.dumps(module_to_json(h)))
    _, out = run(capsys, "br-basis", "--module", str(path), "--n", str(n))
    assert out == (pathlib.Path(__file__).parent / "golden" / golden).read_text()


def _braidize_golden_case(name):
    """Module and n = 4 tensor JSON; the half cases rescale basis vector 1 by 1/2."""
    from fractions import Fraction

    from conftest import make_s3_module, make_z3_module, rescale_basis

    if name == "s3":
        h = make_s3_module()
        terms = {(1, 2, 0, 3): "1/2", (2, 1, 0, 3): "-3", (1, 1, 2, 2): "2/3", (0, 1, 2, 3): "5/4", (3, 3, 0, 0): "-1"}
    elif name == "s3-half":
        h = rescale_basis(make_s3_module(), 1, Fraction(1, 2))
        terms = {(1, 2, 0, 3): "1/2", (2, 1, 0, 3): "-3", (1, 1, 2, 2): "2/3", (0, 1, 2, 3): "5/4", (3, 3, 0, 0): "-1"}
    elif name == "z2-dual-4":
        h = dual_module(z2_frobenius_algebra(4).module)
        terms = {(0, 1, 5, 5): "1/3", (5, 0, 5, 1): "-2", (3, 4, 2, 1): "7/2", (5, 5, 5, 5): "1", (1, 5, 3, 5): "-5/6"}
    else:
        h = rescale_basis(make_z3_module(), 1, Fraction(1, 2))
        terms = {(0, 1, 2, 3): "1/2", (1, 1, 0, 0): "-3/4", (2, 3, 1, 0): "2", (3, 2, 2, 2): "5/3", (1, 0, 1, 1): "-1"}
    tensor = {"n": 4, "terms": [{"idx": list(idx), "coef": c} for idx, c in sorted(terms.items())]}
    return module_to_json(h), tensor


@pytest.mark.parametrize(
    "golden, case",
    [
        ("braidize_s3_n4.json", "s3"),
        ("braidize_s3_half_n4.json", "s3-half"),
        ("braidize_z2_dual4_n4.json", "z2-dual-4"),
        ("braidize_z3_half_n4.json", "z3-half"),
    ],
)
def test_golden_braidize_outputs(capsys, tmp_path, golden, case):
    """braidize stays byte-identical, also on modules whose action is not integral."""
    import pathlib

    module, tensor = _braidize_golden_case(case)
    (tmp_path / "module.json").write_text(json.dumps(module))
    (tmp_path / "tensor.json").write_text(json.dumps(tensor))
    _, out = run(capsys, "braidize", "--module", str(tmp_path / "module.json"), "--tensor", str(tmp_path / "tensor.json"))
    assert out == (pathlib.Path(__file__).parent / "golden" / golden).read_text()


Z2_LINE = {
    "group": {"order": 2, "table": [[0, 1], [1, 0]]},
    "dim": 2,
    "degrees": [0, 1],
    "action": {"0": [["1", "0"], ["0", "1"]], "1": [["1", "0"], ["0", "1"]]},
}


@pytest.mark.parametrize("coef", ["1e5000", "-2.5E-5000", "1e1_000_000", "3e10000000"])
def test_huge_rational_exponent_is_input_error(capsys, files, tmp_path, coef):
    """An exponent over the interpreter's digit limit exits 3 at once, before 10^exponent is built."""
    import time

    tensor = {"n": 2, "terms": [{"idx": [0, 1], "coef": coef}]}
    start = time.perf_counter()
    code = main(argv_with_files(files, tmp_path, "braidize", {"--module": Z2_LINE, "--tensor": tensor}))
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("input error: bad rational") and "exponent" in err and "Traceback" not in err


def test_rational_exponents_up_to_the_digit_limit_are_read():
    from gfrob.groupoid import max_digits
    from gfrob.serialize import frac_from_str

    d = max_digits()
    assert frac_from_str(f"1e{d}") == 10**d and frac_from_str(f"-1E-{d}") == Fraction(-1, 10**d)
    assert frac_from_str("25e-3") == Fraction(1, 40) and frac_from_str(" 1.5e+2 ") == 150


def test_result_too_long_to_print_is_size_limit(capsys, files, tmp_path):
    """Two printable inputs whose sum has a 4400-digit denominator exit 2, naming no override."""
    import time

    big = 10**2199
    terms = [{"idx": [0, 1], "coef": f"1/{big + 1}"}, {"idx": [1, 0], "coef": f"1/{big + 3}"}]
    start = time.perf_counter()
    code = main(argv_with_files(files, tmp_path, "braidize", {"--module": Z2_LINE, "--tensor": {"n": 2, "terms": terms}}))
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("size limit: ") and "Traceback" not in err and "GFROB_SIZE_LIMIT" not in err
