import json
import pathlib
from collections import Counter

import pytest

import gfrob.refchecks as refchecks
import gfrob.singularity as sing
from gfrob.cli import main
from gfrob.refchecks import run_all


def test_reference_suite_all_pass():
    results = run_all()
    failures = [(name, witness) for name, ok, witness in results if not ok]
    assert not failures, failures
    assert len(results) >= 25


def test_cli_verify_paper(capsys):
    code = main(["verify-paper"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["exit_code"] == 0
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_cli_verify_paper_text(capsys):
    code = main(["--format", "text", "verify-paper"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    assert len(lines) >= 25


@pytest.mark.parametrize("golden, fmt", [("verify_paper.json", []), ("verify_paper.txt", ["--format", "text"])])
def test_golden_verify_paper_output(capsys, golden, fmt):
    assert main([*fmt, "verify-paper"]) == 0
    assert capsys.readouterr().out == (pathlib.Path(__file__).parent / "golden" / golden).read_text()


def test_run_all_builds_each_potential_and_manifold_once(monkeypatch):
    """One run shares its A_m potentials and Z2 manifolds, then drops them, and checks one manifold's pre-structure."""
    series, manifold, check = sing.inverse_series_potential, sing._build_z2_manifold, refchecks.check_pre_gfm
    built = Counter()

    def counted_series(chart):
        built["A", chart.n] += 1
        return series(chart)

    def counted_manifold(n):
        built["Z2", n] += 1
        return manifold(n)

    def counted_check(*args):
        built["check_pre_gfm"] += 1
        return check(*args)

    monkeypatch.setattr(sing, "inverse_series_potential", counted_series)
    monkeypatch.setattr(sing, "_build_z2_manifold", counted_manifold)
    monkeypatch.setattr(refchecks, "check_pre_gfm", counted_check)
    assert all(ok for _, ok, _ in run_all())
    assert built[("A", 3)] == built[("A", 5)] == built[("Z2", 3)] == built["check_pre_gfm"] == 1
    assert set(built.values()) == {1}
    assert sing._builds.get() is None
    sing.potential_A(3)
    assert built[("A", 3)] == 2  # outside a run, every call builds afresh


def test_run_all_builds_each_flat_chart_once(monkeypatch):
    """The flat-table, round-trip and metric checks share the charts the potentials are built on."""
    build = sing._build_flat_coordinates
    built = Counter()

    def counted_build(n):
        built[n] += 1
        return build(n)

    monkeypatch.setattr(sing, "_build_flat_coordinates", counted_build)
    assert all(ok for _, ok, _ in run_all())
    assert {3, 4, 5} <= set(built) and set(built.values()) == {1}
