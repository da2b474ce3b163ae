"""Self-checks of the benchmark: spec, tracer, traced runs and the bare-directory refusal.

    python3 -m pytest perfbench -q                  # everything (about five minutes)
    python3 -m pytest perfbench -q -k "not repeat"  # without the traced runs
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_benchmark_json_matches_the_driver():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert any(m["name"] == "setup_s" and m["bound"] == max(n["bound"] for n in spec["end_to_end"])
               for m in spec["end_to_end"])
    reported = [(n, u, b) for n, u, b in run.PER_LAYER if u != "s" or n in run.SHARED_TIMES]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == reported
    assert run.SHARED_TIMES <= {n for n, _, _ in run.PER_LAYER}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_reference_scaling_uses_the_rounds_around_a_run():
    ref = hostspeed.Reference()
    unit = hostspeed.REF_S
    ref.starts, ref.lengths = [0.0, 1.0, 2.0, 3.0], [unit, 2 * unit, 2 * unit, unit]
    # a short run takes the speed of its two neighbours only
    assert ref.scale(1.1, 1.2) == pytest.approx(0.05)
    # a long run also takes the rounds within its own length around it, and
    # the rounds timed inside it are not its own time
    assert ref.own(0.5, 2.5) == pytest.approx(2.0 - 4 * unit)
    assert ref.scale(0.5, 2.5) == pytest.approx((2.0 - 4 * unit) / 1.5)
    with pytest.raises(ValueError):
        ref.scale(3.1, 3.2)


def test_rounds_are_sampled_inside_a_long_run():
    ref = hostspeed.Reference()
    ref.tick()
    with ref.sampling():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * hostspeed.SAMPLE_S:
            pass
        t1 = time.perf_counter()
    ref.tick()
    assert len(ref.starts) >= 4
    assert ref.own(t0, t1) == pytest.approx(t1 - t0 - sum(ref.lengths[1:-1]))
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def _bindings(modules):
    """id of every value bound in a gfrob module or class namespace."""
    out = {}
    for owner in Tracer._namespaces(modules):
        for attr, value in vars(owner).items():
            out[(id(owner), attr)] = id(value)
    return out


def test_tracer_rebinds_every_alias_and_restores_them():
    gfrob = run.load_gfrob()
    modules = sorted((n, m) for n, m in sys.modules.items() if n == "gfrob" or n.startswith("gfrob."))
    before = _bindings(modules)
    original = gfrob.braided.braidize
    poly = gfrob.poly.MultiPoly
    with Tracer() as tr:
        # package re-export, the defining module and importers share one wrapper
        assert gfrob.braidize is gfrob.braided.braidize is gfrob.refchecks.braidize
        assert gfrob.braidize is not original and gfrob.braidize.__wrapped__ is original
        # one method under two names gets one wrapper under both
        assert poly.__dict__["__mul__"] is poly.__dict__["__rmul__"]
        assert poly.__dict__["__add__"] is poly.__dict__["__radd__"]
        x = poly.variable("x")
        y = 2 * (x + 1) * x
        assert y == x * x * 2 + x * 2
    assert _bindings(modules) == before
    table = tr.table()
    assert table["poly.mul"]["calls"] >= 4 and table["poly.init"]["calls"] > 0
    for row in table.values():
        assert 0 <= row["self_s"] <= row["busy_s"] + 1e-9


def test_tracer_self_time_excludes_wrapped_callees():
    gfrob = run.load_gfrob()
    with Tracer() as tr:
        gfrob.potential_A(4)
    t = tr.table()
    pa = t["singularity.potential_A"]
    assert pa["calls"] == 1 and pa["self_s"] < pa["busy_s"]
    inner = sum(row["self_s"] for name, row in t.items() if name != "singularity.potential_A")
    assert abs(pa["self_s"] + inner - pa["busy_s"]) < 0.05 * pa["busy_s"]
    assert [s[0] for s in tr.spans if s[3] == -1] == ["singularity.potential_A"]


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["unfolding", "orbits", "tensor_ring"])
def test_traced_counts_repeat_and_outputs_match(workload):
    first, second = _traced(workload, 5), _traced(workload, 5)
    # correct also requires every traced output to equal the untraced one
    assert first["correct"] and second["correct"]
    counts = {n for n, m in first["metrics"].items() if m["unit"] in ("count", "bytes")}
    counts |= {"linalg.rref.nonzero_frac", "groupoid.enumerate_component.hit_ratio"}
    assert counts and {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert "trace.overhead_frac" in first["metrics"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbits", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
