"""grforge benchmark: time to verdict on three workloads, closed loop.

    python3 bench/run.py --workload thm417_qschur --seed 1 --seconds 40 --trace 0

One caller in one single-threaded process runs a workload's jobs back to
back; a pass is one run through all of them.  Passes repeat until --seconds
are up: the first pass always ends, and the last stops before a job that
is expected to end after the deadline.  Every
job's verdict is checked against the expected one, and a digest of each
job's report (its byte-stable portion) is printed so that verdict output can
be diffed between two versions of the program.

Times are reported in reference seconds: each job and each set-up step is
bracketed by bursts of a fixed calibration kernel, and its wall time is
scaled to a fixed host speed (speed.py), because the shared host's speed
drifts more between runs than the program's.  verdict_s and slowest_job_s
are the sum and the largest of the jobs' median times over the passes.

--trace 0 reports the end-to-end metrics with no wrappers installed.
--trace 1 ignores --seconds: it runs one untraced pass, one pass with layer
spans, one counting pass with scalar wrappers and the scalar microkernel
probe, and reports the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3

# named per-function metrics: metric prefix -> traced function key
FUNCTION_CALLS = {
    "linalg.mat_vec": "linalg.mat_vec",
    "linalg.rref": "linalg.rref",
    "linalg.charpoly": "linalg.charpoly",
    "lattices.from_rows": "lattices.Lattice.from_rows",
    "lattices.smith_track": "lattices.smith_track",
    "lattices.is_pure": "lattices.is_pure",
    "radicals.radical_field": "radicals.radical_field",
    "modules.standard_module": "modules.standard_module",
    "modules.weight_projective": "modules.weight_projective",
    "graded.gr_algebra": "graded.gr_algebra",
    "graded.gr_module": "graded.gr_module",
    "certify.certify_qha": "certify.certify_qha",
    "certify.verify_chain": "certify.verify_chain",
    "tightness.prop_52_verdicts": "tightness.prop_52_verdicts",
    "forced.primitivity_test": "forced.primitivity_test",
}
REPEAT_FRACS = ("radicals.radical_field", "modules.standard_module",
                "modules.weight_simples")
SCALAR_PROBES = ("mul", "add", "zero_test", "inverse", "valuation", "residue",
                 "field_K")
SCALAR_COUNTS = ("cyc_mul", "cyc_zero_test", "fp_mul")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    from tracing import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["fixtures.self_s"] = "s"
    for name in FUNCTION_CALLS:
        units[f"{name}.calls"] = "count"
    units["linalg.mat_vec.nonzero_frac"] = "frac"
    for name in REPEAT_FRACS:
        units[f"{name}.repeat_frac"] = "frac"
    for op in SCALAR_PROBES:
        units[f"scalars.{op}_ns"] = "ns"
    for op in SCALAR_COUNTS:
        units[f"scalars.{op}.calls"] = "count"
    units["tightness.ls_cache_id_reuse"] = "count"
    units["trace_overhead_frac"] = "frac"
    return units


END_TO_END_UNITS = {
    "verdict_s": "s",
    "slowest_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verdict_ok_frac": "frac",
}


def _digest(report):
    from grforge import files

    text = files.canonical_json(files.stable_portion(report))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Runner:
    """Runs passes over a job list and keeps the verdict tally."""

    def __init__(self, jobs, guard):
        self.jobs = jobs
        self.guard = guard
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.last_wall = {}
        self.samples = [[] for _ in jobs]  # each job's reference seconds

    def run_pass(self, tracer=None, label="pass", deadline=None):
        """One pass; returns each job's time in reference seconds (see
        speed.py) and the pass's wall seconds.  With a deadline, the pass
        stops before a job that is expected to end after it."""
        clock = time.perf_counter
        first = not self.digests
        times = []
        t_start = clock()
        before = speed.burst()
        for job in self.jobs:
            if deadline is not None and \
                    clock() + self.last_wall[job.name] > deadline:
                label = f"part of a pass, {len(times)} of {len(self.jobs)} jobs,"
                break
            fired, wrong = self.guard.fired, self.guard.wrong
            t0 = clock()
            try:
                if tracer is None:
                    ok, report = job.run()
                else:
                    ok, report = tracer.job(job.name, job.run)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok, report = False, None
            dt = clock() - t0
            self.last_wall[job.name] = dt
            after = speed.burst()
            times.append(dt * speed.scale(before, after))
            before = after
            digest = _digest(report) if report is not None else "-"
            if self.guard.fired != fired:
                print(f"job {job.name}: _LS_CACHE id reuse hazard fired",
                      file=sys.stderr)
            if self.guard.wrong != wrong:
                print(f"job {job.name}: stale _LS_CACHE verdict differs",
                      file=sys.stderr)
                ok = False
            if digest != self.digests.setdefault(job.name, digest):
                print(f"job {job.name}: report differs from the first pass",
                      file=sys.stderr)
                ok = False
            self.attempted += 1
            self.failed += not ok
            if first:
                print(f"job {job.name} {dt:.3f}s wall {times[-1]:.3f}s ref "
                      f"{'ok' if ok else 'FAIL'} digest {digest}")
        wall = clock() - t_start
        if times:
            print(f"{label} {sum(times):.3f}s ref, slowest job "
                  f"{max(times):.3f}s ref, {wall:.3f}s wall")
        return times, wall

    def run_for(self, seconds):
        """Untraced passes until `seconds` are up.  The first pass always
        ends; the last may stop part way, so that the time left still adds
        samples of the jobs that fit in it."""
        deadline = time.perf_counter() + seconds
        while True:
            times, _ = self.run_pass(
                deadline=deadline if self.samples[0] else None)
            for sample, t in zip(self.samples, times):
                sample.append(t)
            if len(times) < len(self.jobs):
                return

    def median_pass(self):
        """(verdict_s, slowest_job_s) of a pass made of each job's median
        time: a job that the host slowed in one pass does not carry the
        whole pass with it."""
        medians = [statistics.median(sample) for sample in self.samples]
        return sum(medians), max(medians)


PACKAGE_MODULES = ("algebra", "certify", "cyclo", "files", "fixtures", "forced",
                   "graded", "lattices", "linalg", "modules", "radicals",
                   "randomized", "scalars", "suites", "tightness")
# times the package import in a fresh interpreter: argv = [src, modules...]
IMPORT_TIMER = """import importlib, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module("grforge." + name)
print(time.perf_counter() - t0)
"""


def import_grforge():
    """Import the package from this checkout, and nothing else."""
    if not (SRC / "grforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no grforge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import grforge
    if Path(grforge.__file__).resolve().parent != (SRC / "grforge").resolve():
        raise SystemExit(f"error: imported grforge from {grforge.__file__}, "
                         f"not from {SRC}")
    for name in PACKAGE_MODULES:
        importlib.import_module(f"grforge.{name}")


def fresh_import_seconds():
    """Median time to import the package in a fresh interpreter; an import
    can be timed only once per process, so each sample is a child process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = speed.burst()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(SRC), *PACKAGE_MODULES],
            stdout=subprocess.PIPE, text=True, check=True)
        samples.append(float(proc.stdout) * speed.scale(before, speed.burst()))
    return statistics.median(samples)


def _hazard_text(guard):
    return (f"_LS_CACHE id reuse fired {guard.fired} times, "
            f"{guard.wrong} with a wrong verdict")


def end_to_end(workload, seed, seconds):
    from tracing import LsCacheGuard

    import_grforge()
    import_s = fresh_import_seconds()
    setup, make_jobs, _ = workloads.WORKLOADS[workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        inputs, _, ref_s = speed.timed(lambda: setup(seed))
        setup_times.append(ref_s)
    guard = LsCacheGuard()
    guard.install()
    runner = Runner(make_jobs(inputs), guard)
    runner.run_for(seconds)
    verdict_s, slowest_s = runner.median_pass()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "verdict_s": verdict_s,
        "slowest_job_s": slowest_s,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
        "verdict_ok_frac": 1.0 - runner.failed / runner.attempted,
    }
    print(f"failed_frac {runner.failed / runner.attempted:.6f} frac "
          f"({runner.failed} of {runner.attempted} jobs); "
          f"{len(runner.samples[-1])} to {len(runner.samples[0])} timings a "
          f"job; {_hazard_text(guard)}")
    return runner, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced(workload, seed):
    import probe
    from tracing import LAYERS, LsCacheGuard, ScalarCounter, SpanTracer

    import_grforge()
    setup, make_jobs, make_samples = workloads.WORKLOADS[workload]
    setup_tracer = SpanTracer()
    restore = setup_tracer.install(LAYERS + ("fixtures",))
    try:
        inputs = setup(seed)
    finally:
        restore()
    guard = LsCacheGuard()
    guard.install()
    runner = Runner(make_jobs(inputs), guard)
    base_s = sum(runner.run_pass()[0])

    tracer = SpanTracer()
    restore = tracer.install()
    try:
        traced_s = sum(runner.run_pass(tracer, label="traced pass")[0])
    finally:
        restore()

    counter = ScalarCounter()
    restore = counter.install()
    try:
        runner.run_pass(label="counting pass")
    finally:
        restore()

    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = tracer.layer_calls[layer]
        values[f"{layer}.self_s"] = tracer.layer_self[layer]
    values["fixtures.self_s"] = setup_tracer.layer_self["fixtures"]
    for name, key in FUNCTION_CALLS.items():
        values[f"{name}.calls"] = tracer.fn_calls[key]
    values["linalg.mat_vec.nonzero_frac"] = counter.nonzero_frac
    for name in REPEAT_FRACS:
        calls = tracer.fn_calls[name]
        values[f"{name}.repeat_frac"] = tracer.repeats[name] / calls if calls else 0.0
    for key, ns in probe.probe(make_samples(inputs), seed).items():
        values[key] = ns
    for op in SCALAR_COUNTS:
        values[f"scalars.{op}.calls"] = counter.counts[op]
    values["trace_overhead_frac"] = traced_s / base_s - 1.0
    values["tightness.ls_cache_id_reuse"] = guard.fired

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "untraced_verdict_s": base_s, "traced_verdict_s": traced_s,
        "setup_spans": setup_tracer.summary(), "spans": tracer.summary(),
        "scalar_counts": dict(counter.counts),
        "mat_vec_entries": counter.mat_vec_entries,
        "mat_vec_nonzero": counter.mat_vec_nonzero,
    }, indent=1, sort_keys=True))
    print(f"spans written to {out.relative_to(ROOT)}; {_hazard_text(guard)}")
    units = per_layer_units()
    return runner, {k: (values[k], units[k]) for k in units}


def run_all(args):
    """Every workload, each in its own process so that each has its own peak
    RSS and module state; prints a combined result with the metric names
    prefixed by the workload."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        sys.stdout.write(proc.stdout)
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    if args.trace:
        runner, metrics = traced(args.workload, args.seed)
    else:
        runner, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
