"""gfrob benchmark: three seeded exact-arithmetic workloads, run as a user would.

    python3 perfbench/run.py --workload unfolding --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; gfrob is imported from ``src/``.
Each workload is one closed-loop client in one process.  Set-up imports
gfrob, writes the seeded inputs as JSON under ``.perfbench/`` and parses the
library inputs.  The timed part makes passes over the job list until
``--seconds`` have gone by; the first pass always completes, the last may stop
early.  Within a pass, short jobs of the cold-cache workloads run a few times
back to back, so that every job's median latency rests on several samples.
Jobs call ``gfrob.cli.main(argv)`` in-process, or the library API where no
subcommand exists.  gfrob's caches are reset before every job on
``unfolding`` and ``orbits`` (a fresh CLI process) and before every pass on
``tensor_ring`` (one library session per pass); resets are not timed.

Times are reported in reference seconds: each job run, and each set-up probe,
is scaled by the speed of the host at that moment, measured by a fixed
pure-Python kernel timed between the runs around it (``hostspeed.py``).  This
takes out the slowdowns that other tenants of a shared host cause; the text
report also prints the raw wall times.

Every job's output is checked outside the timed region by an oracle, and the
sha256 of the stdout of every job whose inputs do not depend on the seed is
pinned in ``digests.json`` (``--pin`` rewrites it).  A job execution fails on
an exception, a wrong exit code, an oracle mismatch or a digest mismatch.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untraced pass, one pass under the outside tracer (``tracer.py``) and one
under ``tracemalloc``, and reports the per-layer metrics; the spans and the
full per-function table go to ``.perfbench/trace-<workload>-seed<n>.json``.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 9
REPEAT_S = 0.1
MAX_RUNS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "fraction"),
]

# (metric, unit, better); "<traced name>.<field>" unless handled in layer_metrics.
PER_LAYER = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("serialize.dumps.calls", "count", "lower"),
    ("serialize.dumps.self_s", "s", "lower"),
    ("serialize.dumps.bytes", "bytes", "lower"),
    ("serialize.parse.calls", "count", "lower"),
    ("serialize.parse.self_s", "s", "lower"),
    ("groups.group_from_table.calls", "count", "lower"),
    ("groups.group_from_table.self_s", "s", "lower"),
    ("poly.init.calls", "count", "lower"),
    ("poly.init.self_s", "s", "lower"),
    ("poly.with_vars.calls", "count", "lower"),
    ("poly.with_vars.self_s", "s", "lower"),
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.self_s", "s", "lower"),
    ("poly.mul.terms_out", "count", "lower"),
    ("poly.add.calls", "count", "lower"),
    ("poly.add.self_s", "s", "lower"),
    ("poly.diff.calls", "count", "lower"),
    ("poly.diff.self_s", "s", "lower"),
    ("poly.subst.calls", "count", "lower"),
    ("poly.subst.self_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.rref.nonzero_frac", "fraction", "lower"),
    ("linalg.rref.max_rows", "count", "lower"),
    ("linalg.rref.max_cols", "count", "lower"),
    ("linalg.mat_inv.calls", "count", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("groupoid.enumerate_component.calls", "count", "lower"),
    ("groupoid.enumerate_component.busy_s", "s", "lower"),
    ("groupoid.enumerate_component.self_s", "s", "lower"),
    ("groupoid.enumerate_component.misses", "count", "lower"),
    ("groupoid.enumerate_component.hit_ratio", "fraction", "higher"),
    ("groupoid.members_built", "count", "lower"),
    ("groupoid.compose_arrows.calls", "count", "lower"),
    ("groupoid.gen_arrow.calls", "count", "lower"),
    ("groupoid.braid_gen_action.calls", "count", "lower"),
    ("modules.arrow_apply_into.calls", "count", "lower"),
    ("modules.arrow_apply_into.self_s", "s", "lower"),
    ("modules.arrow_apply_into.terms_in", "count", "lower"),
    ("modules.braid_act.calls", "count", "lower"),
    ("modules.braid_act.self_s", "s", "lower"),
    ("modules.split_homogeneous.calls", "count", "lower"),
    ("braided.braidize.calls", "count", "lower"),
    ("braided.braidize.busy_s", "s", "lower"),
    ("braided.braidize.self_s", "s", "lower"),
    ("braided.br_basis.calls", "count", "lower"),
    ("braided.br_basis.busy_s", "s", "lower"),
    ("braided.br_basis.self_s", "s", "lower"),
    ("braided.circ_product.calls", "count", "lower"),
    ("braided.circ_product.busy_s", "s", "lower"),
    ("braided.circ_product.self_s", "s", "lower"),
    ("braided.is_braided.calls", "count", "lower"),
    ("braided.is_braided.busy_s", "s", "lower"),
    ("braided.form_from_poly.calls", "count", "lower"),
    ("braided.form_from_poly.self_s", "s", "lower"),
    ("frobenius.wdvv_check.calls", "count", "lower"),
    ("frobenius.wdvv_check.busy_s", "s", "lower"),
    ("frobenius.wdvv_check.self_s", "s", "lower"),
    ("frobenius.wdvv_check.witnesses", "count", "lower"),
    ("frobenius.Potential.third.calls", "count", "lower"),
    ("frobenius.Potential.third.self_s", "s", "lower"),
    ("frobenius.check_pre_gfm.busy_s", "s", "lower"),
    ("frobenius.assemble_z2.busy_s", "s", "lower"),
    ("frobenius.gfa_from_cubic.busy_s", "s", "lower"),
    ("frobenius.check_gfa.busy_s", "s", "lower"),
    ("singularity.flat_coordinates.calls", "count", "lower"),
    ("singularity.flat_coordinates.busy_s", "s", "lower"),
    ("singularity.flat_coordinates.self_s", "s", "lower"),
    ("singularity.potential_A.calls", "count", "lower"),
    ("singularity.potential_A.busy_s", "s", "lower"),
    ("singularity.potential_A.self_s", "s", "lower"),
    ("singularity.potential_D.busy_s", "s", "lower"),
    ("singularity.zp_mul.calls", "count", "lower"),
    ("singularity.zp_mul.self_s", "s", "lower"),
    ("singularity.zp_reduce.calls", "count", "lower"),
    ("singularity.zp_reduce.self_s", "s", "lower"),
    ("singularity.z2_frobenius_manifold.calls", "count", "lower"),
    ("singularity.z2_frobenius_manifold.busy_s", "s", "lower"),
    ("singularity.z2_frobenius_manifold.self_s", "s", "lower"),
    ("refchecks.run_all.busy_s", "s", "lower"),
    ("mem.tracemalloc_peak_mib", "MiB", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

# Per-layer times that every workload exercises.  The other per-layer times
# read exactly 0 on a workload that never calls the layer, so they are printed
# and written to the trace file but left out of the result line.
SHARED_TIMES = {
    "cli.main.self_s",
    "serialize.dumps.self_s",
    "serialize.parse.self_s",
    "groups.group_from_table.self_s",
    "linalg.rref.self_s",
    "groupoid.enumerate_component.busy_s",
    "groupoid.enumerate_component.self_s",
    "modules.arrow_apply_into.self_s",
    "braided.braidize.busy_s",
    "braided.braidize.self_s",
}


class SetupError(Exception):
    pass


def load_gfrob():
    """Import gfrob from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "gfrob" / "__init__.py").is_file():
        raise SetupError(f"no gfrob sources under {src}; run from a gfrob checkout")
    sys.path.insert(0, str(src))
    import gfrob
    import gfrob.cli
    import gfrob.refchecks
    import gfrob.serialize

    if Path(gfrob.__file__).resolve().parent != (src / "gfrob").resolve():
        raise SetupError(f"imported gfrob from {gfrob.__file__}, not from {src}")
    return gfrob


def cache_resetters() -> list:
    """clear() of every gfrob module-level cache: lru caches and dicts named *cache*."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "gfrob" or name.startswith("gfrob.")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                out.append(value.cache_clear)
            elif "cache" in attr and isinstance(value, dict):
                out.append(value.clear)
    return out


class Run:
    """One workload in this process: its jobs, cache policy and results."""

    def __init__(self, workload: str, seed: int):
        import workloads

        self.gfrob = load_gfrob()
        self.workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.wl = workloads.build(workload, seed, self.workdir, ROOT, self.gfrob)
        self.resetters = cache_resetters()
        self.pinned = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.is_file() else {}
        self.first: dict[tuple[int, int, str], tuple[str, object]] = {}  # first output per (job, rc, digest)
        self.ref = hostspeed.Reference()

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def reset(self) -> None:
        for clear in self.resetters:
            clear()
        gc.collect()

    def run_pass(self, tracer=None, repeat: bool = False, deadline: float | None = None) -> dict:
        """Run the jobs in order, each once; only the job calls are timed.

        With ``repeat`` on a cold-cache workload, a job whose runs in this pass
        took less than REPEAT_S in total runs again, at most MAX_RUNS times, so
        that short jobs get enough samples for a steady per-job median.  Past
        ``deadline`` no further job starts, so the pass may end early.  A
        reference round (hostspeed.py) is timed before every job run, during
        it and at the end.  ``spans`` holds the (start, end) of every run of
        every job.
        """
        spans, keys = [], []
        # no reference rounds under tracemalloc, which slows them many times
        # over; such a pass has no times in reference seconds
        timed = not tracemalloc.is_tracing()
        self.reset()
        for i, job in enumerate(self.wl.jobs):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            samples = []
            while not samples or (repeat and self.wl.cold_per_job and len(samples) < MAX_RUNS
                                  and sum(self.ref.own(*span) for span in samples) < REPEAT_S):
                if self.wl.cold_per_job and (i or samples):
                    self.reset()
                elif i:
                    gc.collect()  # no job pays for a full collection of the garbage of earlier ones
                if timed:
                    self.ref.tick()
                if tracer is not None:
                    tracer.job = job.id
                value = None
                # no rounds inside a traced job, where the tracer would charge them to gfrob
                with self.ref.sampling(on=timed and tracer is None):
                    t0 = time.perf_counter()
                    try:
                        rc, out, value = job.run()
                    except (Exception, SystemExit) as exc:
                        rc, out = -1, f"{type(exc).__name__}: {exc}"
                    t1 = time.perf_counter()
                samples.append((t0, t1))
                digest = hashlib.sha256(out.encode()).hexdigest()
                key = (i, rc, digest)
                if key not in self.first:
                    self.first[key] = (out, value)
                keys.append(key)
            spans.append(samples)
        if timed:
            self.ref.tick()
        return {"spans": spans, "keys": keys}

    def times(self, passes: list[dict], i: int, scaled: bool = True) -> list[float]:
        """Every run time of job ``i`` in these passes, in reference or wall seconds."""
        return [self.ref.scale(*span) if scaled else self.ref.own(*span)
                for p in passes if i < len(p["spans"]) for span in p["spans"][i]]

    def wall(self, p: dict) -> float:
        """A complete pass's time to all verdicts: its first run of every job, in reference seconds."""
        return sum(self.ref.scale(*samples[0]) for samples in p["spans"])

    def judge(self) -> dict[tuple[int, int, str], str | None]:
        """Oracle verdict (None = right) for every distinct output seen."""
        verdicts = {}
        for key, (out, value) in self.first.items():
            i, rc, digest = key
            job = self.wl.jobs[i]
            if rc == -1:
                verdicts[key] = out
            elif job.pinned and self.pinned.get(job.id) != digest:
                verdicts[key] = "stdout digest differs from the pinned one"
            else:
                verdicts[key] = job.check(rc, out, value)
        return verdicts

    def failures(self, passes: list[dict], verdicts) -> list[str]:
        out = []
        for p in passes:
            for key in p["keys"]:
                if verdicts[key]:
                    out.append(f"{self.wl.jobs[key[0]].id}: {verdicts[key]}")
        return out


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def setup_probe(run: Run, workload: str, seed: int) -> tuple[float, float]:
    """Time from spawning a fresh benchmark process to the end of its set-up.

    Returns (reference seconds, wall seconds).  Two reference rounds are
    timed just before the spawn and two just after the child has exited:
    one round each side leaves a set-up this short at the mercy of a single
    noisy round.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    run.ref.tick()
    run.ref.tick()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
    run.ref.tick()
    run.ref.tick()
    return run.ref.scale(t0, t1), t1 - t0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(run: Run, args) -> tuple[dict, list[str], int]:
    """Passes over the job list for ``--seconds`` (the first pass always completes)."""
    passes = []
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run.run_pass(repeat=True, deadline=deadline if passes else None))
    elapsed = time.perf_counter() - t0
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = run.judge()
    failures = run.failures(passes, verdicts)
    probes = [setup_probe(run, args.workload, args.seed) for _ in range(SETUP_PROBES)]

    jobs = len(run.wl.jobs)
    attempted = sum(len(p["keys"]) for p in passes)
    samples = [run.times(passes, i) for i in range(jobs)]
    per_job = [statistics.median(s) for s in samples]
    raw_job = [statistics.median(run.times(passes, i, scaled=False)) for i in range(jobs)]
    tail_value, tail_pct = tail(per_job)
    ranked = sorted(range(jobs), key=lambda i: per_job[i])
    at_p50, at_tail = run.wl.jobs[ranked[(jobs - 1) // 2]].id, run.wl.jobs[ranked[max(jobs - 11, 0)]].id
    values = {
        "setup_s": statistics.median(ref for ref, _ in probes),
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_value,
        "peak_rss_mib": peak_rss,
        "ok_frac": 1 - len(failures) / attempted,
    }
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes over {jobs} jobs in {elapsed:.1f} s, "
          f"{min(map(len, samples))} to {max(map(len, samples))} runs per job")
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh-process set-ups "
                   f"(wall {statistics.median(dt for _, dt in probes):.4g} s)",
        "wall_s": f"sum of the per-job medians, time to all verdicts (wall {sum(raw_job):.4g} s)",
        "job_p50_s": f"median over {jobs} per-job medians, near {at_p50} (wall {statistics.median(raw_job):.4g} s)",
        "job_tail_s": f"p{tail_pct:.0f} over {jobs} per-job medians, {at_tail} ({attempted} samples)",
        "peak_rss_mib": "ru_maxrss after the timed passes",
        "ok_frac": f"fail_frac = {len(failures)}/{attempted} = {len(failures) / attempted:.4g}",
    }
    print("  times in reference seconds (hostspeed.py); raw wall times in brackets")
    for name, unit in END_TO_END:
        print(f"  {name:13s} {values[name]:12.6g} {unit:8s} {notes[name]}")
    slowest = sorted(range(jobs), key=lambda i: -per_job[i])[:3]
    print("  slowest jobs: " + ", ".join(f"{run.wl.jobs[i].id} {per_job[i]:.3f} s" for i in slowest))
    return {name: metric(values[name], unit) for name, unit in END_TO_END}, failures, attempted


def layer_metrics(table: dict, extra: dict) -> dict:
    def field(group: str, name: str) -> float:
        return table.get(group, {}).get(name, 0)

    rref_cells = field("linalg.rref", "cells")
    comp_calls = field("groupoid.enumerate_component", "calls")
    special = {
        "linalg.rref.nonzero_frac": field("linalg.rref", "nonzero") / rref_cells if rref_cells else 0.0,
        "groupoid.enumerate_component.hit_ratio": (
            (comp_calls - field("groupoid.enumerate_component", "misses")) / comp_calls if comp_calls else 0.0
        ),
        "groupoid.members_built": field("groupoid.enumerate_component", "members_built"),
        **extra,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            group, key = name.rsplit(".", 1)
            value = field(group, key)
        out[name] = metric(value, unit)
    return out


def measure_traced(run: Run, args) -> tuple[dict, list[str], int]:
    from tracer import Tracer

    tracemalloc.start()  # first, so that it also warms the heap for the two timed passes
    try:
        malloc = run.run_pass()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    plain = run.run_pass()
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        traced = run.run_pass(tracer)
    passes = [malloc, plain, traced]
    verdicts = run.judge()
    failures = run.failures(passes, verdicts)
    for i, job in enumerate(run.wl.jobs):
        if len({key for p in passes for key in p["keys"] if key[0] == i}) != 1:
            failures.append(f"{job.id}: traced output differs from the untraced one")
    table = tracer.table()
    extra = {
        "mem.tracemalloc_peak_mib": peak,
        "trace.overhead_frac": run.wall(traced) / run.wall(plain) - 1,
    }
    metrics = layer_metrics(table, extra)
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    WORK.mkdir(exist_ok=True)
    out = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    spans = [(n, s - t0, e - t0, parent, job) for n, s, e, parent, job in tracer.spans]
    out.write_text(json.dumps({"layers": table, "spans": spans}, indent=1))
    print(f"{args.workload} seed={args.seed}: traced {tracer.wrapped_count} functions, "
          f"{len(spans)} spans -> {out.relative_to(ROOT)}")
    malloc_wall = sum(e - s for (s, e), *_ in malloc["spans"])
    print(f"  pass in reference seconds: untraced {run.wall(plain):.3f}, traced {run.wall(traced):.3f}; "
          f"under tracemalloc {malloc_wall:.3f} s wall")
    top = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    for name, row in top:
        print(f"  {name:40s} calls {row['calls']:9d}  self {row['self_s']:8.3f} s  busy {row['busy_s']:8.3f} s")
    reported = {name: m for name, m in metrics.items() if m["unit"] != "s" or name in SHARED_TIMES}
    return reported, failures, sum(len(p["keys"]) for p in passes)


def pin(run: Run, args) -> int:
    """Record the stdout digests of the seed-independent jobs, after their oracles pass."""
    p = run.run_pass()
    bad = []
    digests = {}
    for i, rc, digest in p["keys"]:
        job = run.wl.jobs[i]
        out, value = run.first[(i, rc, digest)]
        reason = out if rc == -1 else job.check(rc, out, value)
        if reason:
            bad.append(f"{job.id}: {reason}")
        elif job.pinned:
            digests[job.id] = digest
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[args.workload] = digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests for {args.workload}")
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    import workloads

    rc = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc = max(rc, subprocess.run(cmd, cwd=ROOT, timeout=600).returncode)
    return rc


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="rewrite the pinned digests of this workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        run = Run(args.workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.pin:
            return pin(run, args)
        if args.trace:
            metrics, failures, attempted = measure_traced(run, args)
        else:
            metrics, failures, attempted = measure(run, args)
    finally:
        run.close()
    for line in failures[:20]:
        print(f"  FAIL {line}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
