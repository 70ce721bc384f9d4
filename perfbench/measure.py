"""The measured phases of one benchmark run: kernel, Spark batch, streaming.

Each phase times calls into the public functions of the ``repro`` modules
from outside and checks every emitted window against the kernel's windows
(:class:`Gate`). Phases run until their deadline, but always do the minimum
work their statistics need.
"""
from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from perfbench import speed
from perfbench.speed import timed
from perfbench.trace import Patch, Tracer, batch_targets
from perfbench.workloads import PHIS, SIG_DIGITS, Workload
from repro.core.qlove import QloveOperator
from repro.experiments.harness import evaluate
from repro.sparklayer.level1 import freq_state, subwindow_summaries
from repro.sparklayer.level2 import complete_windows, sliding_mean_estimates
from repro.sparklayer.qlove_spark import qlove_estimates
from repro.sparklayer.streaming import make_handler, qlove_streaming
from repro.streams.runner import run_policy

MIN_KERNEL_EVALS = 1_000  # so the p99 has at least ten samples beyond it
MIN_BATCH_JOBS = 2
MIN_STEADY_BATCHES = 2
MAX_STEADY_BATCHES = 16
PROBE_EVERY_S = 0.25  # host-speed sampling while a micro-batch runs
STREAM_SCHEMA = "stream_id STRING, seq BIGINT, value DOUBLE"


@dataclass
class Gate:
    """Correctness tally: every emitted (or missing) window is one operation."""

    attempted: int = 0
    failed: int = 0

    def check(
        self, reference: np.ndarray, first_w: int, got: Iterable[tuple[int, Sequence[float]]]
    ) -> None:
        """Compare emitted ``(w, estimates)`` with the kernel's windows.

        ``reference[i]`` is the kernel's window ``first_w + i``. A window
        fails if it is not bit-identical, is emitted twice or is not
        expected; each expected window never emitted fails as missing.
        """
        expected = {first_w + i: row for i, row in enumerate(reference.tolist())}
        seen: set[int] = set()
        for w, est in got:
            w = int(w)
            self.attempted += 1
            if w in seen or expected.get(w) != [float(v) for v in est]:
                self.failed += 1
            seen.add(w)
        missing = len(expected.keys() - seen)
        self.attempted += missing
        self.failed += missing


def make_operator(w: Workload) -> QloveOperator:
    return QloveOperator(w.spec, PHIS, sig_digits=SIG_DIGITS, fewk=w.fewk)


def min_kernel_passes(w: Workload) -> int:
    """Passes that yield at least ``MIN_KERNEL_EVALS`` evaluations."""
    return math.ceil(MIN_KERNEL_EVALS / (w.evals_per_series * len(w.series)))


@dataclass
class Reference:
    """Untimed kernel pass per series: the windows every layer must match."""

    estimates: dict[str, np.ndarray]
    mean_space: float

    @classmethod
    def compute(cls, w: Workload, inputs: dict[str, np.ndarray]) -> "Reference":
        runs = {sid: run_policy(make_operator(w), x) for sid, x in inputs.items()}
        return cls(
            {sid: r.estimates_matrix(PHIS) for sid, r in runs.items()},
            float(np.mean([r.mean_space for r in runs.values()])),
        )


def value_error_pct(w: Workload, inputs: dict[str, np.ndarray]) -> dict[float, float]:
    """Paper 5.1 average relative value error (%) of the kernel per phi
    (``experiments.harness.evaluate``), averaged over the series."""
    reports = [
        evaluate(run_policy(make_operator(w), x), x, PHIS, with_rank_error=False)
        for x in inputs.values()
    ]
    return {p: float(np.mean([r.value_err_pct[p] for r in reports])) for p in PHIS}


# ---------------------------------------------------------------- kernel --
@dataclass
class KernelRun:
    """Kernel passes (every series once per pass) and the duration of every
    ``observe_chunk`` call that emitted a window; untraced, times are
    normalised for host speed (:mod:`perfbench.speed`)."""

    events: int = 0
    elapsed_s: float = 0.0
    passes: int = 0
    pass_meps: list[float] = field(default_factory=list)
    pass_meps_raw: list[float] = field(default_factory=list)
    eval_ms: list[float] = field(default_factory=list)


def kernel_phase(
    w: Workload,
    inputs: dict[str, np.ndarray],
    ref: Reference,
    gate: Gate,
    deadline: float,
    *,
    min_passes: int = 1,
    timed_calls: bool = True,
    tracer: Tracer | None = None,
) -> KernelRun:
    """``run_policy`` passes over every series until ``deadline`` (at least
    ``min_passes``).

    With ``timed_calls``, each emitting ``observe_chunk`` call is timed by
    an instance-level wrapper: the only instrumentation of the untraced run.
    Untraced, every ``run_policy`` call is bracketed by host-speed probes
    and its times are normalised; traced runs report raw times.
    """
    run = KernelRun()
    while run.passes < min_passes or time.perf_counter() < deadline:
        events, elapsed, norm = 0, 0.0, 0.0
        for sid, x in inputs.items():
            op = make_operator(w)
            call_ms: list[float] = []
            if timed_calls:
                op.observe_chunk = _timed_observe(op.observe_chunk, call_ms)
            if tracer is not None:
                with tracer.span("runner.run_policy"):
                    r = run_policy(op, x)
                scale = 1.0
            else:
                r, t = timed(lambda: run_policy(op, x))
                scale = t.scale
            events += r.n_elements
            elapsed += r.elapsed_s
            norm += r.elapsed_s * scale
            run.eval_ms.extend(ms * scale for ms in call_ms)
            gate.check(
                ref.estimates[sid],
                w.spec.n_subwindows - 1,
                enumerate(r.estimates_matrix(PHIS).tolist(), start=w.spec.n_subwindows - 1),
            )
        run.events += events
        run.elapsed_s += elapsed
        run.passes += 1
        run.pass_meps.append(events / norm / 1e6)
        run.pass_meps_raw.append(events / elapsed / 1e6)
    return run


def block_percentile(ms: Sequence[float], q: float) -> float:
    """Median, over consecutive blocks of at least ``MIN_KERNEL_EVALS``
    calls, of each block's ``q``-th percentile.

    A burst of host interruptions stretches the tail of the calls it hits
    by a multiple of a sub-millisecond call; it sets one block's tail, not
    the result, as it would a percentile pooled over all calls.
    """
    n_blocks = max(1, len(ms) // MIN_KERNEL_EVALS)
    return float(np.median([np.percentile(b, q) for b in np.array_split(np.asarray(ms), n_blocks)]))


def _timed_observe(inner, sink: list[float]):
    def observe_chunk(values):
        t0 = time.perf_counter()
        out = inner(values)
        dt = time.perf_counter() - t0
        if out:
            sink.append(dt * 1e3)
        return out

    return observe_chunk


# ----------------------------------------------------------------- batch --
def batch_job(spark: SparkSession, w: Workload, events) -> list[tuple[int, list[float]]]:
    rows = qlove_estimates(
        spark, events, w.spec, PHIS, sig_digits=SIG_DIGITS, fewk=w.fewk
    ).collect()
    return [(r.w, r.estimates) for r in rows]


def batch_phase(
    spark: SparkSession, w: Workload, events, ref: Reference, gate: Gate, deadline: float
) -> list[float]:
    """Timed ``qlove_estimates(...).collect()`` jobs on the cached events of
    ``series[0]``, after one untimed warm-up job. Returns job seconds."""
    reference = ref.estimates[w.series[0]]
    first_w = w.spec.n_subwindows - 1
    gate.check(reference, first_w, batch_job(spark, w, events))  # warm-up
    times: list[float] = []
    while len(times) < MIN_BATCH_JOBS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        out = batch_job(spark, w, events)
        times.append(time.perf_counter() - t0)
        gate.check(reference, first_w, out)
    return times


# ------------------------------------------------------------- streaming --
class Spool:
    """Closed-loop file source input: micro-batch files are written to a
    staging directory in set-up and moved into the watched directory one at
    a time, each after the previous micro-batch has completed.

    File 0 holds the first window of every series (what a restarting
    monitor replays before its first result); file ``k >= 1`` holds period
    ``n - 1 + k`` of every series.
    """

    def __init__(self, root: Path, w: Workload, inputs: dict[str, np.ndarray]):
        self.staging = root / "staging"
        self.watched = root / "spool"
        self.staging.mkdir(parents=True)
        self.watched.mkdir(parents=True)
        spec = w.spec
        self.n_steady = min(MAX_STEADY_BATCHES, w.evals_per_series - 1)
        bounds = [(0, spec.size)] + [
            (spec.size + (k - 1) * spec.period, spec.size + k * spec.period)
            for k in range(1, self.n_steady + 1)
        ]
        self.frames: list[pd.DataFrame] = []
        for k, (lo, hi) in enumerate(bounds):
            pdf = pd.concat(
                [
                    pd.DataFrame(
                        {
                            "stream_id": sid,
                            "seq": np.arange(lo, hi, dtype=np.int64),
                            "value": x[lo:hi],
                        }
                    )
                    for sid, x in inputs.items()
                ],
                ignore_index=True,
            )
            pdf.to_parquet(self.staging / self._name(k), index=False)
            self.frames.append(pdf)
        self.released = 0

    @staticmethod
    def _name(k: int) -> str:
        return f"batch-{k:05d}.parquet"

    def release_next(self) -> None:
        name = self._name(self.released)
        os.replace(self.staging / name, self.watched / name)
        self.released += 1


@dataclass
class StreamRun:
    progress: list = field(default_factory=list)  # StreamingQueryProgress per data batch
    probes: list[float] = field(default_factory=list)  # host-speed probe per data batch

    def scale(self, i: int) -> float:
        """Normalisation factor of micro-batch ``i`` (:mod:`perfbench.speed`)."""
        return speed.scale(self.probes[i])

    def steady(self, key: str) -> list[float]:
        return [float(p.durationMs.get(key, 0)) for p in self.progress[1:]]

    def steady_norm(self, key: str) -> list[float]:
        return [ms * self.scale(i) for i, ms in enumerate(self.steady(key), start=1)]

    @property
    def first_ms(self) -> float:
        return float(self.progress[0].durationMs["triggerExecution"]) * self.scale(0)

    @property
    def meps(self) -> float:
        rows = sum(p.numInputRows for p in self.progress[1:])
        return rows / sum(self.steady_norm("triggerExecution")) / 1e3

    def state(self):
        return self.progress[-1].stateOperators[0]


def stream_phase(
    spark: SparkSession, w: Workload, spool: Spool, ref: Reference, gate: Gate, deadline: float, checkpoint: Path
) -> StreamRun:
    """Run ``qlove_streaming`` over the spool, one file per micro-batch,
    until ``deadline``; check every emitted window per ``stream_id``.
    Each micro-batch is timed with host-speed probes during it."""
    events = (
        spark.readStream.schema(STREAM_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .parquet(str(spool.watched))
    )
    out = qlove_streaming(events, w.spec, PHIS, sig_digits=SIG_DIGITS, fewk=w.fewk)
    table = f"perfbench_{os.getpid()}"
    run = StreamRun()
    seen: set[int] = set()
    query = None

    def first_batch() -> None:
        nonlocal query
        spool.release_next()
        query = (
            out.writeStream.format("memory")
            .queryName(table)
            .outputMode("append")
            .option("checkpointLocation", str(checkpoint))
            .start()
        )
        query.processAllAvailable()

    def next_batch() -> None:
        spool.release_next()
        query.processAllAvailable()

    step = first_batch
    try:
        while True:
            _, t = timed(step, sample_every=PROBE_EVERY_S)
            run.probes.append(t.probe_s)
            step = next_batch
            for p in query.recentProgress:
                if p.numInputRows > 0 and p.batchId not in seen:
                    seen.add(p.batchId)
                    run.progress.append(p)
            steady = spool.released - 1
            if steady >= spool.n_steady or (
                steady >= MIN_STEADY_BATCHES and time.perf_counter() >= deadline
            ):
                break
    finally:
        if query is not None:
            query.stop()
    if len(run.progress) != spool.released:
        raise RuntimeError(
            f"{len(run.progress)} micro-batches reported for {spool.released} files"
        )
    rows = spark.table(table).collect()
    n_windows = spool.released  # file 0 completes the first window
    first_w = w.spec.n_subwindows - 1
    for sid in w.series:
        gate.check(
            ref.estimates[sid][:n_windows],
            first_w,
            [(r.w, r.estimates) for r in rows if r.stream_id == sid],
        )
    return run


class FakeGroupState:
    """The slice of ``GroupState`` the streaming handler uses."""

    def __init__(self) -> None:
        self._val = None

    @property
    def exists(self) -> bool:
        return self._val is not None

    @property
    def get(self):
        return self._val

    def update(self, v) -> None:
        self._val = v


def drive_handler(w: Workload, spool: Spool, n_batches: int, ref: Reference, gate: Gate) -> dict:
    """Feed the streaming handler the same micro-batches in this process,
    one call per ``stream_id`` per batch, and time each batch's calls."""
    handler = make_handler(w.spec, PHIS, sig_digits=SIG_DIGITS, fewk=w.fewk)
    states = {sid: FakeGroupState() for sid in w.series}
    emitted: dict[str, list] = {sid: [] for sid in w.series}
    batch_ms = []
    for pdf in spool.frames[:n_batches]:
        groups = {sid: g for sid, g in pdf.groupby("stream_id", sort=False)}
        t0 = time.perf_counter()
        for sid in w.series:
            for out in handler((sid,), iter([groups[sid]]), states[sid]):
                emitted[sid].extend(zip(out["w"], out["estimates"]))
        batch_ms.append((time.perf_counter() - t0) * 1e3)
    blobs = {sid: bytes(s.get[0]) for sid, s in states.items()}
    held = {sid: pickle.loads(b) for sid, b in blobs.items()}
    for sid in w.series:
        gate.check(ref.estimates[sid][:n_batches], w.spec.n_subwindows - 1, emitted[sid])
    return {
        "batch_ms": batch_ms,
        "state_blob_bytes": sum(len(b) for b in blobs.values()),
        "summaries_held": sum(len(st["summaries"]) for st in held.values()),
        "inflight_held": sum(len(st["inflight"]) for st in held.values()),
    }


# ---------------------------------------------------------- traced batch --
def traced_batch(
    spark: SparkSession, w: Workload, events, ref: Reference, gate: Gate, tracer: Tracer
) -> dict[str, float]:
    """Per-layer Spark batch metrics.

    Spark is lazy, so Level 1 and Level 2 are separated by caching the
    Level-1 summaries and timing their ``count``, then timing Level 2 on the
    cache. The driver-side calls of ``qlove_estimates`` (summary collect,
    ``rows_to_summaries``, ``window_result``) are traced by wrapping their
    bindings in ``repro.sparklayer.qlove_spark`` around one full job.
    """
    sc = spark.sparkContext
    spec, reference = w.spec, ref.estimates[w.series[0]]
    first_w = spec.n_subwindows - 1
    m: dict[str, float] = {}

    with tracer.span("level1.summaries"):
        summaries = subwindow_summaries(
            events, spec.period, PHIS, sig_digits=SIG_DIGITS, fewk=w.fewk
        ).where("count = %d" % spec.period).cache()
        m["level1.summary_rows"] = summaries.count()
    m["level1.summaries_s"] = tracer.total_s("level1.summaries")
    m["level1.freq_rows"] = freq_state(events, spec.period, sig_digits=SIG_DIGITS).count()

    m["level2.sliding_mean_s"] = 0.0
    m["level2.member_rows"] = 0
    if not w.fewk.budgets:  # the only path that runs Level 2 in Spark SQL
        with tracer.span("level2.sliding_mean"):
            rows = sliding_mean_estimates(summaries, spec.n_subwindows).collect()
        m["level2.sliding_mean_s"] = tracer.total_s("level2.sliding_mean")
        m["level2.member_rows"] = complete_windows(summaries, spec.n_subwindows).count()
        gate.check(reference, first_w, [(r.w, r.estimates) for r in rows])
    summaries.unpersist()

    group = f"perfbench-trace-{os.getpid()}"
    sc.setJobGroup(group, "traced qlove_estimates")
    with Patch(tracer, batch_targets()):
        with tracer.span("qlove_spark.qlove_estimates"):
            df = qlove_estimates(spark, events, spec, PHIS, sig_digits=SIG_DIGITS, fewk=w.fewk)
        rows = df.collect()
    sc.setJobGroup(None, None)  # type: ignore[arg-type]
    gate.check(reference, first_w, [(r.w, r.estimates) for r in rows])
    # few-k path: qlove_estimates collects the Level-1 summaries itself
    m["qlove_spark.collect_s"] = sum(
        s.duration for s in tracer.children_of("qlove_spark.qlove_estimates", "spark.collect")
    )
    m["qlove_spark.rows_to_summaries_s"] = tracer.total_s("qlove_spark.rows_to_summaries")
    m["qlove_spark.driver_merge_s"] = tracer.total_s("qlove_spark.window_result")
    m["qlove_spark.window_result_calls"] = tracer.calls("qlove_spark.window_result")

    tracker = sc.statusTracker()
    tasks = failed = 0
    for job_id in tracker.getJobIdsForGroup(group):
        job = tracker.getJobInfo(job_id)
        for stage_id in job.stageIds if job else ():
            stage = tracker.getStageInfo(stage_id)
            if stage:
                tasks += stage.numTasks
                failed += stage.numFailedTasks
    m["spark.tasks"] = tasks
    m["spark.tasks_failed"] = failed
    return m
