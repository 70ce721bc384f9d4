"""Tests of the benchmark harness itself, at small scale.

    python -m pytest perfbench/tests -q

The smoke runs start Spark (4 shuffle partitions, tiny inputs) and take
about a minute each.
"""
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.measure import Gate, Reference, block_percentile, kernel_phase  # noqa: E402
from perfbench.speed import REF_PROBE_S, timed  # noqa: E402
from perfbench.trace import Patch, Tracer, batch_targets, kernel_targets  # noqa: E402
from perfbench.workloads import WORKLOADS, smoke_variant  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestGate:
    REF = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0

    def _windows(self):
        return [(9 + i, list(row)) for i, row in enumerate(self.REF.tolist())]

    def test_identical_windows_pass(self):
        g = Gate()
        g.check(self.REF, 9, self._windows())
        assert (g.attempted, g.failed) == (3, 0)

    def test_tampered_estimate_is_a_failed_operation(self):
        got = self._windows()
        got[1][1][2] = np.nextafter(got[1][1][2], np.inf)  # one ulp off
        g = Gate()
        g.check(self.REF, 9, got)
        assert (g.attempted, g.failed) == (3, 1)

    def test_missing_duplicate_and_extra_windows_fail(self):
        got = self._windows()
        g = Gate()
        g.check(self.REF, 9, [got[0], got[0], (42, got[2][1])])
        # duplicate of w=9, unexpected w=42, and w=10, w=11 never emitted
        assert (g.attempted, g.failed) == (5, 4)


def test_block_percentile_ignores_a_burst_in_one_block():
    ms = [9.0] * 50 + [1.0] * 2950  # 1.7% slow calls, all in the first block
    assert np.percentile(ms, 99) == 9.0
    assert block_percentile(ms, 99) == 1.0


def test_timed_probes_while_running_and_stops_its_sampler():
    before = threading.active_count()
    out, t = timed(lambda: time.sleep(0.3) or 7, sample_every=0.05)
    assert out == 7 and t.wall_s >= 0.3 and t.probe_s > 0
    assert t.scale == pytest.approx(REF_PROBE_S / t.probe_s)
    assert threading.active_count() == before


def _bindings(targets):
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]


@pytest.mark.parametrize("targets", [kernel_targets, batch_targets])
def test_patch_restores_original_callables(targets):
    before = _bindings(targets())
    with Patch(Tracer(), targets()):
        assert all(vars(o)[a] is not raw for o, a, raw in before)
    assert all(vars(o)[a] is raw for o, a, raw in before)


def test_patch_restores_after_an_exception():
    before = _bindings(kernel_targets())
    with pytest.raises(RuntimeError):
        with Patch(Tracer(), kernel_targets()):
            raise RuntimeError("boom")
    assert all(vars(o)[a] is raw for o, a, raw in before)


def test_traced_kernel_matches_untraced_and_stops_tracing():
    w = smoke_variant(WORKLOADS["fewk-burst-4series"])
    inputs = w.generate(3)
    ref = Reference.compute(w, inputs)
    tracer, gate = Tracer(), Gate()
    with Patch(tracer, kernel_targets()):
        kernel_phase(w, inputs, ref, gate, 0.0, timed_calls=False, tracer=tracer)
    assert gate.failed == 0 and gate.attempted > 0
    assert tracer.calls("subwindow.finalize") > 0
    assert tracer.calls("fewk.interval_sample") > 0
    n_spans = len(tracer.spans)
    kernel_phase(w, inputs, ref, gate, 0.0)
    assert len(tracer.spans) == n_spans
    assert gate.failed == 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "netmon-plain":  # few-k, burst and driver merge are bypassed
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["fewk.topk_merge_calls"] == m["fewk.samplek_merge_calls"] == 0
        assert m["burst.flagged"] == m["qlove_spark.window_result_calls"] == 0
    else:  # few-k bypasses Spark SQL Level 2
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["level2.sliding_mean_s"] == m["level2.member_rows"] == 0


def test_fails_without_program_sources():
    """Only BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    import shutil

    tmp_path = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(tmp_path, ignore_errors=True)
    tmp_path.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "netmon-plain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
