"""Tests of the benchmark's own arithmetic, and a small run of each workload.

Run with the library on the path: PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import gen
import jobs
import measure
import run
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# -- job_tail_s -----------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 31))
    value, pct = measure.tail(values[::-1])
    assert value == 20
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_with_eleven_samples_is_the_smallest():
    value, pct = measure.tail([5.0] + [9.0] * 10)
    assert (value, pct) == (5.0, pytest.approx(100 / 11))


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert measure.tail([float(v) for v in range(10)]) == (9.0, 100.0)
    with pytest.raises(ValueError):
        measure.tail([])


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans_ = [
        ["job", 0.0, 10.0, -1, 1],
        ["a", 1.0, 6.0, 0, 1],
        ["b", 2.0, 4.0, 1, 1],
        ["a", 4.5, 5.5, 1, 1],  # same name nested in itself
        ["c", 7.0, 9.0, 0, 1],
    ]
    self_s = spans.self_times(spans_)
    assert self_s == pytest.approx({"job": 3.0, "a": 2.0 + 1.0, "b": 2.0, "c": 2.0})
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_tracer_nests_spans_and_counts_an_error_once():
    t = spans.Tracer()

    def inner():
        raise ValueError("boom")

    def outer():
        t.call(None, lambda: None)  # inherits "linking.decompose"
        return t.call("group.lattice", inner)

    t.begin_job(7)
    with pytest.raises(ValueError):
        t.call("linking.decompose", outer)
    t.end_job()
    names = [s[0] for s in t.spans]
    assert names == ["job", "linking.decompose", "linking.decompose", "group.lattice"]
    assert [s[3] for s in t.spans] == [-1, 0, 1, 1]
    assert {s[4] for s in t.spans} == {7}
    assert t.counts == {"group.errors": 1}
    assert all(s[2] >= s[1] for s in t.spans)


def test_install_wraps_every_binding_and_restores():
    import isokit
    import isokit.gcomplex
    import isokit.group

    original = isokit.group.class_rep_of
    t = spans.Tracer()
    restore = spans.install(t, run.library_modules(), run.TARGETS)
    try:
        assert isokit.group.class_rep_of is not original
        assert isokit.gcomplex.class_rep_of is not original
        g = isokit.FiniteGroup.cyclic(4)
        isokit.group.class_rep_of(g, frozenset({0, 2}))
        isokit.gcomplex.class_rep_of(g, frozenset({0}))
    finally:
        restore()
    assert isokit.group.class_rep_of is original
    assert isokit.gcomplex.class_rep_of is original
    assert isokit.class_rep_of is original
    assert t.counts["group.class_lookups"] == 2
    assert [s[0] for s in t.spans] == ["group.class_lookup"] * 2


# -- fail_ratio -------------------------------------------------------------------


def test_fail_ratio():
    assert measure.fail_ratio(10, 0) == 0.0
    assert measure.fail_ratio(12, 3) == 0.25
    for attempted, failed in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            measure.fail_ratio(attempted, failed)


def test_phase_counts_raised_and_failed_checks():
    def fake_run(job, tracer):
        if job["name"] == "raises":
            raise RuntimeError("library error")
        return "{}\n", {"ok": job["name"] != "bad"}

    def fake_check(job, facts):
        if not facts["ok"]:
            raise jobs.CheckFailed("bad output")
        return {}

    names = ["ok", "raises", "ok", "bad", "ok"]
    phase = run.run_phase(fake_run, fake_check, spans.Untraced(),
                          [(0, {"name": n}) for n in names])
    assert phase.failed == 2
    assert len(phase.times()) == 3
    metrics = measure.end_to_end(phase.times(), len(names), phase.failed, [0.1], 1.0)
    assert metrics["ok_ratio"] == (pytest.approx(0.6), "ratio")


# -- inputs ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.ROUNDS))
def test_same_seed_same_inputs(workload):
    first = next(gen.rounds(workload, 3))
    assert first == next(gen.rounds(workload, 3))
    assert first != next(gen.rounds(workload, 4))


def test_lattice_groups_have_the_stated_orders():
    for name, (make, _) in gen.LATTICE_GROUPS.items():
        order = len(make())
        assert 16 <= order <= 48, name


# -- small runs ---------------------------------------------------------------------


def _cheap_jobs(workload):
    """A few quick jobs of the first round that still cover every path."""
    first = next(gen.rounds(workload, 5))
    if workload == "sd-complexes":
        wanted = {"hexagon", "wedge", "random-C2", "random-S3"}
        picked, seen = [], set()
        for job in first:
            if job["name"] in wanted and job["name"] not in seen:
                seen.add(job["name"])
                picked.append(job)
        return picked
    if workload == "group-lattices":
        return [j for j in first if j["name"] in ("S4", "C3^3")]
    return [j for j in first if j["dim"] == 3][:5]


@pytest.mark.parametrize("workload", sorted(gen.ROUNDS))
def test_traced_jobs_pass_and_self_times_cover_job_time(workload):
    fn, check = jobs.WORKLOADS[workload]
    tracer = spans.Tracer()
    restore = spans.install(tracer, run.library_modules(), run.TARGETS)
    try:
        phase = run.run_phase(fn, check, tracer, [(0, j) for j in _cheap_jobs(workload)])
    finally:
        restore()
    assert phase.failed == 0
    job_total = sum(e - s for name, s, e, _p, _j in tracer.spans if name == "job")
    assert sum(spans.self_times(tracer.spans).values()) == pytest.approx(job_total)
    table = measure.layer_table(spans.self_times(tracer.spans), tracer.counts, 0, len(phase.done))
    assert sum(v for k, (v, unit) in table.items() if k.endswith("_share")) == pytest.approx(100)
    assert all(v == 0 for k, (v, _) in table.items() if k.endswith(".errors"))


def _bench(args, cwd=ROOT):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        capture_output=True, text=True, timeout=170, cwd=cwd, env=env,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _bench(["--workload", "cube-trials", "--seed", "2", "--seconds", "0.5",
                   "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    units = {m["name"]: m["unit"] for m in wanted}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "cube-trials", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
