"""Fast self-test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmarks/selftest
"""

from __future__ import annotations

import functools
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from epigraph import epipolar, losses, nn  # noqa: E402
from epigraph.errors import AmbiguousCheiralityError  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

TINY = {
    "train": dict(frames=11, points=30, epochs=6),  # 8 training pairs: 2 batches
    "eval": dict(frames=7, points=60, ckpt_frames=6, ckpt_epochs=1),
    "gradcheck": {},
}


@pytest.fixture
def tiny_presets(monkeypatch):
    """Shrink every preset's hidden width so gradcheck finishes in seconds."""
    monkeypatch.setattr(nn, "preset_config",
                        functools.partial(nn.preset_config, hidden=4))


def _untraced(name, tmp_path, capsys):
    w = workloads.WORKLOADS[name](str(tmp_path), 3, **TINY[name])
    outcomes, problems, metrics, _ = run.run_untraced(w, workloads, 0, 0.1)
    return w, outcomes, problems, metrics, capsys.readouterr().out


@pytest.mark.parametrize("name", ["train", "eval", "gradcheck"])
def test_every_end_to_end_metric_is_emitted(name, tmp_path, capsys, tiny_presets):
    w, outcomes, problems, metrics, out = _untraced(name, tmp_path, capsys)
    assert problems == []
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (v, u) in metrics.items()} == expected
    assert all(v > 0 for v, _ in metrics.values())
    printed = {line.split()[1]: line.split()[3] for line in out.splitlines()
               if line.startswith("metric ")}
    for metric in ["setup_s", w.ops_metric, "peak_rss_mb", "failed_ratio",
                   *w.quality_units]:
        assert metric in printed


@pytest.mark.parametrize("name", ["train", "eval", "gradcheck"])
def test_traced_run_emits_per_layer_metrics_and_matches_untraced_artifacts(
        name, tmp_path, capsys, tiny_presets):
    w = workloads.WORKLOADS[name](str(tmp_path), 3, **TINY[name])
    outcomes, problems, metrics, extra = run.run_traced(w, workloads, str(tmp_path))
    plain, traced = outcomes
    assert plain.digests and plain.digests == traced.digests
    assert problems == []
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (v, u) in metrics.items()} == expected
    assert os.path.isfile(tmp_path / "spans.npz")
    job = extra["job_spans"]
    # set-up work is not counted as job work
    assert job.get("synth.generate_scene", {}).get("calls", 0) == 0
    assert (metrics["setup.synth.generate_scene.calls"][0] > 0) == (name != "gradcheck")
    if name == "eval":  # the checkpoint is trained in set-up, not in the job
        for span in ("train.train", "nn.model_backward", "nn.save_checkpoint",
                     "nn.adam_step", "losses.total_loss_grad"):
            assert job.get(span, {}).get("calls", 0) == 0, span
        assert extra["setup_spans"]["train.train"]["calls"] == 1


def _bindings():
    """Identity of every global in the epigraph modules plus TERM_VALUES."""
    snap = {(id(ns), key): id(val) for ns in tracing._program_namespaces()
            for key, val in ns.items()}
    snap.update({("TERM_VALUES", k): id(v) for k, v in losses.TERM_VALUES.items()})
    return snap


def test_wrappers_restore_every_patched_attribute():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        during = _bindings()
        assert nn.model_forward.__wrapped__ is not None
    assert _bindings() == before
    changed = {k for k in before if during[k] != before[k]}
    # every function is wrapped at its home module and at by-value bindings
    for span, module, attr in tracing.TRACED:
        ns = vars(sys.modules[f"epigraph.{module}"])
        assert (id(ns), attr) in changed, span
    cli_ns = vars(sys.modules["epigraph.cli"])
    train_ns = vars(sys.modules["epigraph.train"])
    graph_ns = vars(sys.modules["epigraph.graph"])
    for ns, key in [(cli_ns, "build_graph"), (cli_ns, "generate_scene"),
                    (cli_ns, "load_correspondences"), (train_ns, "build_graph"),
                    (train_ns, "total_loss_grad"), (train_ns, "total_loss"),
                    (graph_ns, "estimate_E0")]:
        assert (id(ns), key) in changed, key
    assert all(("TERM_VALUES", k) in changed for k in losses.TERM_VALUES)


def test_self_time_on_a_synthetic_span_tree():
    # root 0..100 with children 10..30 and 40..90; the second child has a
    # grandchild 50..60; a second root 200..210 has no children.
    names = ["a", "b", "c"]
    name_id = [0, 1, 1, 2, 0]
    start = [0, 10, 40, 50, 200]
    end = [100, 30, 90, 60, 210]
    parent = [-1, 0, 0, 2, -1]
    t = tracing.span_totals(names, name_id, np.array(start) * 10**9,
                            np.array(end) * 10**9, parent, [0, 0, 1, 0, 0])
    assert t["a"] == {"calls": 2, "s": 110.0, "self_s": 30.0 + 10.0, "failed": 0}
    assert t["b"] == {"calls": 2, "s": 70.0, "self_s": 20.0 + 40.0, "failed": 1}
    assert t["c"] == {"calls": 1, "s": 10.0, "self_s": 10.0, "failed": 0}


def test_totals_of_one_run_id(monkeypatch):
    clock = iter(range(0, 10**10, 10**8))  # each reading 0.1 s after the last
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: next(clock))
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()                            # set-up: outer 0..3, inner 1..2
    tracer.run_id = tracing.JOB
    inner()                            # job: inner 4..5
    outer()                            # job: outer 6..9, inner 7..8
    setup, job = tracer.totals(tracing.SETUP), tracer.totals(tracing.JOB)
    assert setup["outer"] == {"calls": 1, "s": pytest.approx(0.3),
                              "self_s": pytest.approx(0.2), "failed": 0}
    assert setup["inner"]["calls"] == 1
    assert job["inner"]["calls"] == 2 and job["inner"]["s"] == pytest.approx(0.2)
    assert job["outer"]["calls"] == 1 and job["outer"]["self_s"] == pytest.approx(0.2)


def test_wrapper_records_nesting_failure_and_observers():
    tracer = tracing.Tracer()
    seen = []
    inner = tracer.wrap("inner", lambda x: 1 / x)
    outer = tracer.wrap("outer", lambda x: inner(x),
                        observe=lambda c, args, kwargs, r: seen.append((args, r)))
    assert outer(2) == 0.5
    with pytest.raises(ZeroDivisionError):
        outer(0)
    a = tracer.arrays()
    assert list(a["parent"]) == [-1, 0, -1, 2]
    assert list(a["failed"]) == [0, 0, 1, 1]
    assert seen == [((2,), 0.5)]
    assert tracer.stack == []


def test_a_job_that_raises_counts_every_operation_as_failed(tmp_path):
    w = workloads.Train(str(tmp_path), 0, **TINY["train"])  # no set-up: no data
    o = run.run_job(w, workloads)
    assert o.error and o.ops == 0 and o.failed == o.attempted == w.planned()
    assert run.end_to_end(w, workloads, 0.1, [o]).get(w.ops_metric) is None


def test_eval_counts_program_errors_by_class_and_aborts_on_other_errors(
        tmp_path, monkeypatch):
    w = workloads.Eval(str(tmp_path), 3, **TINY["eval"])
    w.setup()
    orig = epipolar.recover_pose
    calls = []

    def fail_second(*args, error=AmbiguousCheiralityError("tie", None), **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise error
        return orig(*args, **kwargs)

    monkeypatch.setattr(epipolar, "recover_pose", fail_second)
    o = w.job()
    assert o.failed == 1 and o.failures == {"AmbiguousCheiralityError": 1}
    assert list(o.alike) == [0, 1, 0, 1, 1, 1, 1, 0]  # the failed pair is timed apart
    calls.clear()
    monkeypatch.setattr(epipolar, "recover_pose",
                        functools.partial(fail_second, error=TypeError("bug")))
    o = run.run_job(w, workloads)
    assert o.error.startswith("TypeError") and o.failed == o.attempted == w.planned()


def test_fastest_seconds_takes_each_slot_at_its_fastest_and_alike_slots_together():
    alike = np.array([0, 1, 1, 0, 2, 2, 1])
    a = workloads.Outcome(0, 0, 0, slots=np.array([5, 4, 7, 9, 3, 6, 8]), alike=alike)
    b = workloads.Outcome(0, 0, 0, slots=np.array([6, 5, 2, 8, 4, 1, 9]), alike=alike)
    # slots 0 and 3 at their fastest; group 1 (3 slots) at 2; group 2 (2) at 1
    assert workloads.fastest_seconds([a, b]) == 5 + 8 + 3 * 2 + 2 * 1
    assert workloads.fastest_seconds([a]) == 5 + 9 + 3 * 4 + 2 * 3


@pytest.mark.parametrize("name", ["train", "eval", "gradcheck"])
def test_slots_cover_the_job_and_alike_slots_follow_the_work(
        name, tmp_path, tiny_presets):
    w = workloads.WORKLOADS[name](str(tmp_path), 3, **TINY[name])
    w.setup()
    o = run.run_job(w, workloads)
    assert o.error is None and len(o.slots) == len(o.alike)
    assert 0.9 * o.seconds < o.slots.sum() <= o.seconds
    if name == "train":  # 2 steps per epoch, so every second slot is alike
        assert list(o.alike) == [0, 1, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0]
    elif name == "eval":  # loading, each pair, reports
        assert list(o.alike) == [0] + [1] * w.planned() + [0]
    else:  # per preset: analytic part, probes but the last, last probe
        assert list(np.bincount(o.alike)[1:]) == [n - 1 for n in w.probes.values()]


def test_gradcheck_rows_outside_tolerance_are_failed_operations(
        tmp_path, tiny_presets, monkeypatch):
    w = workloads.GradCheck(str(tmp_path), 3)
    w.setup()
    orig = nn.grad_check
    # a coarse step fails rows that pass at the recheck step: counted, not fatal
    monkeypatch.setattr(nn, "grad_check", functools.partial(orig, h=3e-3))
    o = run.run_job(w, workloads)
    assert o.failed > 0 and o.detail["rc"] == 1
    assert 0 < workloads.fastest_seconds([o]) < o.seconds
    assert w.check([o]) == []
    # a wrong analytic gradient fails at every step: the run is incorrect
    def wrong(*args, **kwargs):
        return orig(*args, **{**kwargs, "corrupt": "mlp1.b"})

    monkeypatch.setattr(nn, "grad_check", wrong)
    o = w.job()
    assert o.failed > 0
    assert any("disagree" in p for p in w.check([o]))


def test_benchmark_spec_matches_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in tracing.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    spans = {s for s, _, _ in tracing.TRACED} | {tracing.TERM_VALUES_SPAN}
    for metric, _ in tracing.PER_LAYER:
        span, total = metric.removeprefix(tracing.SETUP_PREFIX).rsplit(".", 1)
        assert total not in tracing._TOTALS or span in spans, metric
    for w in workloads.WORKLOADS.values():
        assert set(w.spans) | set(w.setup_spans) <= spans
