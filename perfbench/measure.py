"""Arithmetic the benchmark reports: percentiles, failure ratios, layer
tables, and the calibration that turns wall time into reference seconds.

The machines this runs on are shared, and their speed drifts by a quarter
or more within minutes.  A fixed calibration loop, timed between jobs,
tracks that drift; a job's time divided by the speed factor of the
calibrations around it is what the job would have taken on the machine
the benchmark was defined on.  Jobs the library makes faster read faster
by the same factor, because the loop never calls the library.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

# Seconds the calibration loop took on the reference machine (2-core
# x86-64 container, Python 3.11) when the benchmark was defined.
REFERENCE_S = 0.010


def calibrate() -> float:
    """Wall time of a fixed loop of tuple, dict and frozenset work."""
    t0 = perf_counter()
    table = {}
    for i in range(6000):
        key = tuple(sorted((i % 7, i % 11, i % 13)))
        table[key] = frozenset(key) | {i % 5}
    return perf_counter() - t0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """Value at the highest percentile that still has 10 samples above it.

    Returns (value, percentile).  With n samples sorted ascending that is
    the sample at index n - 11, which sits at percentile 100 * (n - 10) / n.
    With 10 samples or fewer there is no such percentile, and the maximum
    is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def fail_ratio(attempted: int, failed: int) -> float:
    """Jobs that raised or failed a check, over jobs attempted."""
    if attempted < 1:
        raise ValueError("no jobs attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


def end_to_end(job_times: List[float], attempted: int, failed: int,
               setup_samples: List[float], peak_rss_mb: float) -> Dict[str, Tuple[float, str]]:
    """End-to-end metrics of one untraced run, each as (value, unit).

    job_times holds the time of every job that completed and passed its
    checks; throughput counts those jobs over the time they took.  With
    no such job every timing reads 0.
    """
    timed = bool(job_times)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (len(job_times) / sum(job_times) if timed else 0.0, "1/s"),
        "job_p50_s": (statistics.median(job_times) if timed else 0.0, "s"),
        "job_tail_s": (tail(job_times)[0] if timed else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (1.0 - fail_ratio(attempted, failed), "ratio"),
    }


# Span names in report order.  The job code names its calls after these;
# the wrapped library functions map onto them in run.TARGETS.  "job" is
# the benchmark's own code between library calls.
LAYER_SPANS = (
    "jsonio.parse", "gcomplex.subdivide", "gcomplex.strata", "group.lattice",
    "group.marks", "group.class_lookup", "linking.build", "linking.decompose",
    "linking.validate", "gmap.check", "gmap.subdivide_map", "fixpoint.lefschetz",
    "fixpoint.verdict", "fixpoint.marks", "fixpoint.reidemeister", "snf",
    "cubelim.generate", "cubelim.hypothesis", "cubelim.factorize",
    "cubelim.limit_map", "jsonio.emit", "job",
)

COUNTERS = (
    "gcomplex.facets_built", "gcomplex.simplices", "group.subgroups",
    "group.classes", "group.class_lookups", "linking.cells", "linking.phi_maps",
    "fixpoint.fixed_simplices", "snf.calls", "jsonio.report_bytes",
    "cubelim.limit_calls", "cubelim.limit_elements", "cubelim.corners",
)

MODULES = ("jsonio", "group", "gcomplex", "linking", "gmap", "fixpoint", "snf", "cubelim")


def time_metric(span: str) -> str:
    return span + ("_s" if "." in span else ".s")


def layer_table(self_s: Dict[str, float], counts: Dict[str, float], distinct_phi: int,
                jobs: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass, each as (value, unit).

    Times are self seconds per job plus each span's share of traced job
    time; counts are per job.  The ratio of distinct stabilizer chains to
    phi_vertex_map calls is the share of those calls a memo would keep.
    """
    total = sum(self_s.values())
    out: Dict[str, Tuple[float, str]] = {}
    for span in LAYER_SPANS:
        name = "bench.glue" if span == "job" else span
        out[time_metric(name)] = (self_s.get(span, 0.0) / jobs, "s/job")
        out[name + "_share"] = (100.0 * self_s.get(span, 0.0) / total if total else 0.0, "%")
    for name in COUNTERS:
        out[name] = (counts.get(name, 0) / jobs, "count/job")
    calls = counts.get("linking.phi_maps", 0)
    out["linking.phi_distinct_ratio"] = (distinct_phi / calls if calls else 0.0, "ratio")
    for mod in MODULES:
        out[mod + ".errors"] = (counts.get(mod + ".errors", 0), "count")
    return out
