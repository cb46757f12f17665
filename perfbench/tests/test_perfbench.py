"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import types

import pytest

from perfbench import spans
from perfbench.spans import BindingSiteError, Recorder, Site, Span, self_times, unattributed

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("si8-tddft-cold", "si64-excitation-scan", "serve-mixed", "trajectory-batch")


def _tree(*nodes):
    """Spans from ``(name, start, end, parent position or None)`` tuples."""
    spans_ = []
    for name, start, end, parent in nodes:
        spans_.append(Span(name, start, end, None if parent is None else spans_[parent], 1, 0))
    return spans_


def test_self_time_with_overlapping_and_overhanging_children():
    tree = _tree(
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a
        ("c", 8.0, 12.0, 0),  # clipped to the parent's end
        ("a1", 2.0, 3.0, 1),
    )
    # root loses [1, 6] and [8, 10]; a loses [2, 3].
    assert self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_unattributed_is_op_wall_minus_top_level_cover():
    tree = _tree(
        ("x", 0.0, 2.0, None),
        ("y", 1.0, 3.0, None),  # overlaps x: union is [0, 3]
        ("z", 0.5, 1.5, 0),  # nested: not top level
    )
    other = Span("other", 0.0, 9.0, None, 2, 0)
    assert unattributed(tree + [other], {1: (-1.0, 4.0)}) == pytest.approx({1: 2.0})


def _fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    class Engine:
        def step(self, n):
            return module.inner(n) + 1

    def inner(n):
        return n * 2

    module.Engine, module.inner = Engine, inner
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_recorder_nests_spans_and_restores_sites(monkeypatch):
    module = _fake_module(monkeypatch)
    original = module.Engine.step
    recorder = Recorder()
    recorder.install([
        Site("fake.step", module.__name__, "Engine.step"),
        Site("fake.inner", module.__name__, "inner", info=lambda a, k, r: {"n": r}),
    ])
    try:
        with spans.op_scope(3):
            assert module.Engine().step(5) == 11
    finally:
        recorder.uninstall()
    assert module.Engine.step is original
    outer, inner = recorder.spans
    assert (outer.name, outer.parent, outer.op) == ("fake.step", None, 3)
    assert (inner.name, inner.parent, inner.op, inner.info) == ("fake.inner", outer, 3, {"n": 10})


def test_parent_stack_is_per_thread(monkeypatch):
    module = _fake_module(monkeypatch)
    recorder = Recorder()
    recorder.install([Site("fake.inner", module.__name__, "inner")])
    try:
        barrier = threading.Barrier(2)

        def work():
            barrier.wait()
            module.inner(1)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        recorder.uninstall()
    assert [s.parent for s in recorder.spans] == [None, None]


def test_adopted_op_follows_work_to_another_thread(monkeypatch):
    module = _fake_module(monkeypatch)
    recorder = Recorder()
    recorder.install([Site("fake.inner", module.__name__, "inner", op_from=lambda a, k: a[0])])
    try:
        with spans.op_scope(42):
            spans.adopt(5)
        worker = threading.Thread(target=module.inner, args=(5,))
        worker.start()
        worker.join()
    finally:
        recorder.uninstall()
    assert recorder.spans[0].op == 42


def test_missing_binding_site_fails_loudly(monkeypatch):
    module = _fake_module(monkeypatch)
    for target in ("Engine.renamed", "gone", "Nope.step"):
        with pytest.raises(BindingSiteError):
            Recorder().install([Site("fake", module.__name__, target)])


def test_every_program_binding_site_exists():
    from perfbench.sites import sites

    recorder = Recorder()
    recorder.install(sites())
    recorder.uninstall()


def test_latency_tail_rule():
    from perfbench.bench import latency_tail

    assert latency_tail([3.0, 1.0, 2.0, 9.0]) == (2.5, 50.0, 2)
    # Continuous across the switch from the median to the tail rule.
    assert latency_tail([float(i) for i in range(19)])[0] == 9.0
    assert latency_tail([float(i) for i in range(20)])[0] == 9.0
    values = [float(i) for i in range(30)]
    value, percentile, beyond = latency_tail(values)
    assert beyond == 10 and value == 19.0
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * 20 / 30)


def test_thread_budget_mismatch_is_refused():
    from perfbench import threads

    with pytest.raises(threads.ThreadBudgetError):
        threads.verify(threads.live()["numpy_openblas"] + 1)


def test_injected_check_failure_raises_failed_frac(monkeypatch):
    from perfbench import bench, workloads

    calls = []

    def failing(result):
        calls.append(result)
        if len(calls) % 2 == 0:
            raise workloads.CheckFailed("injected")

    monkeypatch.setattr(workloads, "check_tddft", failing)
    monkeypatch.setattr(workloads.Si64ExcitationScan, "n_valence", 8)
    monkeypatch.setattr(workloads.Si64ExcitationScan, "n_conduction", 8)
    result, lines = bench.measure("si64-excitation-scan", 1, 1.5, trace=False)
    assert result["failed"] > 0 and result["correct"] is False
    frac = next(line for line in lines if line.startswith("failed_frac")).split()[1]
    assert result["failed"] / result["attempted"] == pytest.approx(float(frac), rel=1e-5)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in contract[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected


def test_refuses_to_run_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name)) as src:
                (bench_dir / name).write_text(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "si8-tddft-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _session_members(sid):
    members = []
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                if os.getsid(int(pid)) == sid:
                    members.append(int(pid))
            except OSError:
                pass  # ended while listing
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc to list processes")
def test_forked_run_leaves_no_process_behind():
    # The process backend's shared memory starts multiprocessing's resource
    # tracker; run.py must stop and reap it, or it survives as a zombie.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         "trajectory-batch", "--seed", "3", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert _session_members(proc.pid) == []
