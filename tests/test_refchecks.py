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
    """One run builds each A_m potential and Z2 manifold once and checks one manifold's pre-structure;
    a later call is served from the cache until the cache is cleared."""
    series, check = sing.inverse_series_potential, refchecks.check_pre_gfm
    built = Counter()

    def counted_series(chart):
        built["A", chart.n] += 1
        return series(chart)

    def counted_check(*args):
        built["check_pre_gfm"] += 1
        return check(*args)

    monkeypatch.setattr(sing, "inverse_series_potential", counted_series)
    monkeypatch.setattr(refchecks, "check_pre_gfm", counted_check)
    assert all(ok for _, ok, _ in run_all())
    assert built[("A", 3)] == built[("A", 5)] == built["check_pre_gfm"] == 1
    assert set(built.values()) == {1}
    assert sum(key[0] == "A" for key in built) == sing._build_flat_coordinates.cache_info().currsize == 5
    manifolds = sing._build_z2_manifold.cache_info()
    assert manifolds.misses == manifolds.currsize == 4 and manifolds.hits > 0
    sing.potential_A(3)
    assert built[("A", 3)] == 1  # a second call builds nothing
    sing._build_flat_coordinates.cache_clear()
    sing.potential_A(3)
    assert built[("A", 3)] == 2  # after cache_clear() it builds again


def test_run_all_builds_each_flat_chart_once():
    """The flat-table, round-trip and metric checks share the charts the potentials are built on."""
    assert all(ok for _, ok, _ in run_all())
    charts = sing._build_flat_coordinates.cache_info()
    assert charts.misses == charts.currsize == 5 and charts.hits > 0
    for n in (3, 4, 5):
        sing.flat_coordinates(n)
    assert sing._build_flat_coordinates.cache_info().misses == 5
