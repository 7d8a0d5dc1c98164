#!/usr/bin/env python3
"""isokit benchmark: seeded closed-loop workloads driven by one client.

Run from the repository root:

    python3 perfbench/run.py --workload sd-complexes --seed 1 --seconds 30 --trace 0

One process runs jobs back to back, with no threads and no subprocesses
while it times them.  Each job parses its input, calls the library in the
order the CLI handler does and ends with a canonical JSON report; the
outputs are then checked against invariants.  A run executes a fixed
number of jobs, --seconds times the workload's nominal rate (gen.py), so
two commits measure the same jobs; times are in reference seconds
(measure.py).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 runs half as many jobs untraced, replays them with every layer
call recorded as a span, and reports the per-layer metrics.
Readable tables go first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import islice
from time import perf_counter

import measure
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
WARMUP_S = 1.0  # untimed jobs first: the first jobs of a process run slowest
CALIBRATE_EVERY_S = 0.25


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import isokit from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "isokit", "__init__.py")):
        die(f"no isokit sources under {SRC}")
    sys.path.insert(0, SRC)
    import isokit

    if not os.path.abspath(isokit.__file__).startswith(SRC + os.sep):
        die(f"isokit was imported from {isokit.__file__}, not from {SRC}")
    import gen
    import jobs

    return gen, jobs


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(workload: str, seed: int):
    """Set-up time of fresh interpreters, in reference seconds."""
    out = []
    probe = os.path.join(HERE, "setup_probe.py")
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            die(f"set-up probe failed:\n{proc.stderr}")
        wall, calibration = map(float, proc.stdout.split()[-2:])
        out.append(wall * measure.REFERENCE_S / calibration)
    return out


class Phase:
    """Jobs run back to back, with calibration samples between them.

    A job's time covers its library calls and its report; the checks run
    outside it.  Calibration samples are taken before the first job, after
    any job that ends CALIBRATE_EVERY_S after the previous sample, and at
    finish().
    """

    def __init__(self, run, check, tracer):
        self.run, self.check, self.tracer = run, check, tracer
        self.done = []  # (round, job) in run order
        self.timed = []  # (wall seconds, index of the sample before the job)
        self.reports = []  # (round, report) of jobs that passed
        self.failed = 0
        self.samples = [measure.calibrate()]
        self._sampled_at = perf_counter()

    def step(self, rnd: int, job: dict) -> None:
        self.done.append((rnd, job))
        t = self.tracer
        try:
            t.begin_job(len(self.done))
            t0 = perf_counter()
            try:
                report, facts = self.run(job, t)
                elapsed = perf_counter() - t0
            finally:
                t.end_job()
            t.count("jsonio.report_bytes", len(report))
            for name, n in self.check(job, facts).items():
                t.count(name, n)
        except Exception:
            self.failed += 1
            if self.failed <= 3:
                print(f"job {job['name']} (round {rnd + 1}) failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        else:
            self.timed.append((elapsed, len(self.samples) - 1))
            self.reports.append((rnd, report))
        if perf_counter() - self._sampled_at >= CALIBRATE_EVERY_S:
            self.samples.append(measure.calibrate())
            self._sampled_at = perf_counter()

    def finish(self) -> None:
        self.samples.append(measure.calibrate())

    def wall_times(self):
        return [e for e, _ in self.timed]

    def times(self):
        """Reference seconds: each job scaled by the samples around it."""
        s = self.samples
        return [e * measure.REFERENCE_S * 2 / (s[k] + s[k + 1]) for e, k in self.timed]


def stream(gen, workload: str, seed: int):
    for rnd, jobs in enumerate(gen.rounds(workload, seed)):
        for job in jobs:
            yield rnd, job


def job_count(gen, args) -> int:
    return max(1, round(args.seconds * gen.JOBS_PER_SECOND[args.workload]))


def run_phase(run, check, tracer, jobs) -> Phase:
    phase = Phase(run, check, tracer)
    for rnd, job in jobs:
        phase.step(rnd, job)
    phase.finish()
    return phase


def warm_up(run, check, jobs) -> None:
    start = perf_counter()
    phase = Phase(run, check, spans.Untraced())
    for rnd, job in jobs:
        phase.step(rnd, job)
        if perf_counter() - start >= WARMUP_S:
            return


def digest(reports) -> str:
    """sha256 over the concatenated reports of the first round."""
    first = [r for rnd, r in reports if rnd == 0]
    h = hashlib.sha256("".join(first).encode("utf-8")).hexdigest()
    return f"sha256:{h} ({len(first)} reports of round 1)"


def show(title: str, metrics, notes=None) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        note = f"  {notes[name]}" if notes and name in notes else ""
        print(f"  {name:34s} {value:14.6g} {unit}{note}")


def emit(correct: bool, attempted: int, failed: int, metrics, names) -> None:
    missing = [n for n in names if n not in metrics]
    if missing:
        die(f"metrics not computed: {missing}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))


def untraced_run(args, gen, jobs, names) -> None:
    setup = setup_seconds(args.workload, args.seed)
    run, check = jobs.WORKLOADS[args.workload]
    warm_up(run, check, stream(gen, args.workload, args.seed))
    count = job_count(gen, args)
    phase = run_phase(run, check, spans.Untraced(),
                      islice(stream(gen, args.workload, args.seed), count))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = phase.times()
    metrics = measure.end_to_end(times, count, phase.failed, setup, rss_mb)
    wall = measure.end_to_end(phase.wall_times(), count, phase.failed, setup, rss_mb)
    n = len(times)
    pct = measure.tail(times)[1] if n else 0.0
    speed = measure.REFERENCE_S / statistics.median(phase.samples)
    show(f"{args.workload}: seed {args.seed}, {count} jobs ({phase.done[-1][0] + 1} rounds), "
         f"one client, closed loop; reference seconds (wall clock in brackets)", metrics, {
             "setup_s": f"median of {len(setup)} fresh interpreters",
             "jobs_per_s": f"[{wall['jobs_per_s'][0]:.6g}] {n} jobs",
             "job_p50_s": f"[{wall['job_p50_s'][0]:.6g}] n={n}",
             "job_tail_s": f"[{wall['job_tail_s'][0]:.6g}] p{pct:.1f}, n={n}",
             "ok_ratio": f"fail_ratio={measure.fail_ratio(count, phase.failed):.4g}",
         })
    print(f"  machine speed {speed:.3f} x reference (median of {len(phase.samples)} "
          f"calibration samples)")
    print(f"  digest {digest(phase.reports)}")
    emit(phase.failed == 0, count, phase.failed, metrics, names)


def traced_run(args, gen, jobs, names) -> None:
    run, check = jobs.WORKLOADS[args.workload]
    warm_up(run, check, stream(gen, args.workload, args.seed))
    count = max(1, job_count(gen, args) // 2)
    plain = run_phase(run, check, spans.Untraced(),
                      islice(stream(gen, args.workload, args.seed), count))
    tracer = spans.Tracer()
    restore = spans.install(tracer, library_modules(), TARGETS)
    try:
        traced = run_phase(run, check, tracer, plain.done)
    finally:
        restore()
    self_s = spans.self_times(tracer.spans)
    job_s = sum(e - s for name, s, e, _p, _j in tracer.spans if name == "job")
    metrics = measure.layer_table(self_s, tracer.counts, len(tracer.distinct.get("phi", ())), count)
    metrics["trace.job_s"] = (sum(traced.times()) / count, "s/job")
    plain_total = sum(plain.times())
    metrics["trace.overhead_ratio"] = (
        sum(traced.times()) / plain_total - 1.0 if plain_total else 0.0, "ratio")
    library = sum(v for k, v in self_s.items() if k != "job")
    show(f"{args.workload}: seed {args.seed}, {count} jobs traced ({len(tracer.spans)} spans); "
         f"self time in wall seconds per job, counts per job", metrics)
    print(f"  library self time covers {100 * library / job_s:.2f}% of traced job time; "
          f"the rest is benchmark code between library calls")
    print(f"  snf share {metrics['snf_share'][0]:.4f}% of traced job time (predicted < 1%)")
    attempted = len(plain.done) + len(traced.done)
    failed = plain.failed + traced.failed
    emit(failed == 0, attempted, failed, metrics, names)


def library_modules():
    import isokit

    return [isokit] + [
        mod for name, mod in sorted(sys.modules.items()) if name.startswith("isokit.")
    ]


def _counter(name):
    def hook(tracer, args, result):
        tracer.count(name)
    return hook


def _facets_built(tracer, args, result):
    tracer.count("gcomplex.facets_built", len(result.complex.facets))


def _phi(tracer, args, result):
    tracer.count("linking.phi_maps")
    key = (tracer.job, tuple(frozenset(h) for h in args[1]))
    tracer.distinct.setdefault("phi", set()).add(key)


def _limit(tracer, args, result):
    tracer.count("cubelim.limit_calls")
    tracer.count("cubelim.limit_elements", len(result))


# Library functions wrapped in every isokit namespace that binds them:
# name -> (span name, counter hook).  A span name of None keeps the
# caller's span, so limit's time stays with the cubelim stage that called
# it and phi_vertex_map's with decompose.  Hot primitives (mul,
# act_simplex, pointwise_stabilizer) are left alone.
TARGETS = {
    "class_rep_of": ("group.class_lookup", _counter("group.class_lookups")),
    "enumerate_subgroups": ("group.lattice", None),
    "subgroup_conjugacy_classes": ("group.lattice", None),
    "table_of_marks": ("group.marks", None),
    "barycentric_subdivision": ("gcomplex.subdivide", _facets_built),
    "exact_stratum": ("gcomplex.strata", None),
    "fixed_subcomplex": ("gcomplex.strata", None),
    "present_classes": ("gcomplex.strata", None),
    "class_fixed_union": ("gcomplex.strata", None),
    "phi_vertex_map": (None, _phi),
    "smith_normal_form": ("snf", _counter("snf.calls")),
    "limit": (None, _limit),
    "marks_vector": ("fixpoint.marks", None),
    "burnside_lefschetz": ("fixpoint.marks", None),
}


def main(argv=None) -> None:
    spec = benchmark_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    gen, jobs = load_library()
    if args.trace:
        traced_run(args, gen, jobs, [m["name"] for m in spec["per_layer"]])
    else:
        untraced_run(args, gen, jobs, [m["name"] for m in spec["end_to_end"]])


if __name__ == "__main__":
    main()
