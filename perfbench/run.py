#!/usr/bin/env python3
"""QLOVE benchmark: one workload through the kernel, Spark batch and
Structured Streaming layers, with a correctness gate on every window.

    python3 perfbench/run.py --workload netmon-plain --seed 1 --seconds 30 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric with its
unit and sample count. Full results (machine, versions, Spark conf, seed,
commit, raw samples) go to ``.perfbench_out/``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 64  # as the test-suite fixture in conftest.py
SETUP_REPEATS = 3
# Shares of --seconds for the kernel, batch and streaming phases: a phase
# starts no new pass, job or micro-batch after its share, once it has the
# samples its statistics need.
KERNEL_SHARE, BATCH_SHARE = 0.3, 0.25
# Value error is a deterministic function of the input whose variation
# across seeds is the data's heavy tail, not measurement noise: it is
# measured on one fixed evaluation input, where any change of the kernel's
# estimates moves it.
ACCURACY_SEED = 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs and 4 shuffle partitions, for the harness's own tests; "
        "numbers are not comparable with full runs",
    )
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spark_conf(work: Path, partitions: int) -> dict[str, str]:
    return {
        "spark.master": f"local[{nproc()}]",
        "spark.app.name": "perfbench",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.driver.host": "127.0.0.1",
        # no hsperfdata files in /tmp, temporary files under the work dir
        "spark.driver.extraJavaOptions": f"-XX:-UsePerfData -Djava.io.tmpdir={work / 'tmp'}",
        "spark.local.dir": str(work / "spark-local"),
        "spark.sql.warehouse.dir": str(work / "warehouse"),
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.sql.shuffle.partitions": str(partitions),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
    }


def prepare_environment(work: Path) -> None:
    """Paths and environment for this process, the JVM and Spark's Python
    workers, which must import ``repro`` and write only under ``work``."""
    for d in ("tmp", "spark-local"):
        (work / d).mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    sys.path[:0] = [str(ROOT), src]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{nproc()}] --driver-memory {DRIVER_MEMORY} pyspark-shell"
    )
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work / 'tmp'}"
    os.environ.pop("SPARK_LOCAL_DIRS", None)


def machine_info() -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": nproc(),
        "mem_total_gb": round(mem_kb / 2**20, 1),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "pyspark": pyspark.__version__,
        "commit": commit,
    }


def start_spark(conf: dict[str, str]):
    from pyspark.sql import SparkSession

    builder = SparkSession.builder
    for k, v in conf.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for the JVM."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the gateway server exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def median(xs) -> float:
    return float(statistics.median(xs))


class Setup:
    """Input generation, event caching and spool writing for one workload,
    repeated ``SETUP_REPEATS`` times; the last repetition's objects are kept."""

    def __init__(self, spark, w, seed: int, work: Path):
        from perfbench.measure import Spool
        from repro.synth_data import telemetry_events

        self.times: list[float] = []
        self.ingest_s: list[float] = []
        self.events = None
        for rep in range(SETUP_REPEATS):
            if self.events is not None:
                self.events.unpersist(blocking=True)
                shutil.rmtree(work / f"input-{rep - 1}")
            t0 = time.perf_counter()
            self.inputs = w.generate(seed)
            t1 = time.perf_counter()
            self.events = telemetry_events(spark, self.inputs[w.series[0]]).cache()
            self.n_events = self.events.count()
            self.ingest_s.append(time.perf_counter() - t1)
            self.spool = Spool(work / f"input-{rep}", w, self.inputs)
            self.times.append(time.perf_counter() - t0)


def run(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    """Returns (metrics as name -> (value, unit, samples), details)."""
    from perfbench import measure
    from perfbench.speed import REF_PROBE_S
    from perfbench.workloads import WORKLOADS, smoke_variant

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    partitions = SHUFFLE_PARTITIONS
    if args.smoke:
        w, partitions = smoke_variant(w), 4
    inputs = w.generate(args.seed)
    ref = measure.Reference.compute(w, inputs)
    gate = measure.Gate()
    metrics: dict = {}
    raw: dict = {}  # timings before host-speed normalisation
    phases: dict[str, float] = {}
    if args.trace:
        metrics.update(traced_kernel(w, inputs, ref, gate))
    else:
        # before the JVM starts, so that no Spark thread competes with it
        t0 = time.perf_counter()
        kr = measure.kernel_phase(
            w, inputs, ref, gate, t0 + KERNEL_SHARE * args.seconds,
            min_passes=measure.min_kernel_passes(w),
        )
        phases["kernel"] = time.perf_counter() - t0
        value_err = measure.value_error_pct(w, w.generate(ACCURACY_SEED))

    conf = spark_conf(work, partitions)
    t0 = time.perf_counter()
    spark = start_spark(conf)
    session_s = time.perf_counter() - t0
    try:
        setup = Setup(spark, w, args.seed, work)
        t0 = time.perf_counter()
        stream_s = (1.0 - KERNEL_SHARE - BATCH_SHARE) * args.seconds
        if args.trace:
            metrics.update(traced_spark(spark, w, setup, ref, gate, stream_s, work))
        else:
            batch_end = t0 + BATCH_SHARE * args.seconds
            metrics.update(untraced_spark(spark, w, setup, ref, gate, batch_end, stream_s, work, raw))
        phases["spark"] = time.perf_counter() - t0
    finally:
        t0 = time.perf_counter()
        stop_spark(spark)
        phases["spark_stop"] = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = session_s + median(setup.times)
    if not args.trace:
        n_eval = len(kr.eval_ms)
        raw["kernel_pass_meps"] = kr.pass_meps_raw
        metrics.update(
            {
                "setup_s": (setup_s, "s", SETUP_REPEATS),
                "kernel_meps": (median(kr.pass_meps), "Mev/s", kr.passes),
                "kernel_eval_p50_ms": (measure.block_percentile(kr.eval_ms, 50), "ms", n_eval),
                "kernel_eval_p99_ms": (measure.block_percentile(kr.eval_ms, 99), "ms", n_eval),
                "space_vars": (ref.mean_space, "count", len(w.series)),
                "value_err_q99_pct": (value_err[0.99], "%", len(w.series)),
                "value_err_q999_pct": (value_err[0.999], "%", len(w.series)),
                "driver_peak_rss_mb": (rss_mb, "MB", 1),
            }
        )
    details = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "window": {"size": w.spec.size, "period": w.spec.period},
        "phis": list(measure.PHIS),
        "sig_digits": measure.SIG_DIGITS,
        "fewk_budgets": [vars(b) for b in w.fewk.budgets],
        "series": list(w.series),
        "events_per_series": w.series_len,
        "accuracy_seed": ACCURACY_SEED,
        "machine": machine_info(),
        "spark_conf": conf,
        "session_s": session_s,
        "setup_repeats_s": setup.times,
        "phases_s": phases,
        "ref_probe_s": REF_PROBE_S,
        "raw": raw,
        "setup_s": setup_s,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "driver_peak_rss_mb": rss_mb,
    }
    return metrics, details


def untraced_spark(
    spark, w, setup: Setup, ref, gate, batch_end: float, stream_s: float, work: Path, raw: dict
) -> dict:
    """End-to-end Spark metrics; streaming times are normalised for host
    speed, and their raw values and probes go to ``raw``."""
    from perfbench import measure

    jobs = measure.batch_phase(spark, w, setup.events, ref, gate, batch_end)
    stream_end = time.perf_counter() + stream_s
    sr = measure.stream_phase(spark, w, setup.spool, ref, gate, stream_end, work / "checkpoint")
    steady = sr.steady_norm("triggerExecution")
    raw["stream_batch_ms"] = [float(p.durationMs["triggerExecution"]) for p in sr.progress]
    raw["stream_probe_s"] = sr.probes
    return {
        "batch_meps": (setup.n_events / median(jobs) / 1e6, "Mev/s", len(jobs)),
        "stream_meps": (sr.meps, "Mrow/s", len(steady)),
        "stream_batch_p50_ms": (median(steady), "ms", len(steady)),
        "stream_first_batch_ms": (sr.first_ms, "ms", 1),
        "stream_state_bytes": (float(sr.state().memoryUsedBytes), "bytes", 1),
    }


def traced_kernel(w, inputs, ref, gate) -> dict:
    """Per-layer kernel metrics: the passes that make ``MIN_KERNEL_EVALS``
    evaluations run untraced, then traced; the difference is the tracing
    overhead."""
    from perfbench import measure
    from perfbench.trace import Patch, Tracer, kernel_layer_metrics, kernel_targets, layer_unit

    passes = measure.min_kernel_passes(w)
    base = measure.kernel_phase(w, inputs, ref, gate, 0.0, min_passes=passes, timed_calls=False)
    tracer = Tracer()
    with Patch(tracer, kernel_targets()):
        traced_run = measure.kernel_phase(
            w, inputs, ref, gate, 0.0, min_passes=passes, timed_calls=False, tracer=tracer
        )
    m = kernel_layer_metrics(tracer, traced_run.passes)
    m["trace.kernel_overhead_pct"] = (traced_run.elapsed_s / base.elapsed_s - 1.0) * 100.0
    tracer.dump(ROOT / ".perfbench_out" / f"{w.name}-{os.getpid()}-kernel-spans.json")
    return {k: (float(v), layer_unit(k), traced_run.passes) for k, v in m.items()}


def traced_spark(spark, w, setup: Setup, ref, gate, stream_s: float, work: Path) -> dict:
    from perfbench import measure
    from perfbench.trace import Tracer, layer_unit

    tracer = Tracer()
    m = {"events.ingest_s": median(setup.ingest_s)}
    measure.batch_job(spark, w, setup.events)  # warm-up, as in the untraced run
    m.update(measure.traced_batch(spark, w, setup.events, ref, gate, tracer))
    tracer.dump(ROOT / ".perfbench_out" / f"{w.name}-{os.getpid()}-batch-spans.json")

    stream_end = time.perf_counter() + stream_s
    sr = measure.stream_phase(spark, w, setup.spool, ref, gate, stream_end, work / "checkpoint")
    handler = measure.drive_handler(w, setup.spool, len(sr.progress), ref, gate)
    add_batch = median(sr.steady("addBatch"))
    handler_ms = median(handler["batch_ms"][1:])
    state_ops = [p.stateOperators[0] for p in sr.progress[1:]]
    m.update(
        {
            "streaming.addBatch_ms": add_batch,
            "streaming.walCommit_ms": median(sr.steady("walCommit")),
            "streaming.commitOffsets_ms": median(sr.steady("commitOffsets")),
            "streaming.queryPlanning_ms": median(sr.steady("queryPlanning")),
            "streaming.getBatch_ms": median(sr.steady("getBatch")),
            "streaming.state_rows": sr.state().numRowsTotal,
            "streaming.state_commit_ms": median(s.commitTimeMs for s in state_ops),
            "streaming.state_updates_ms": median(s.allUpdatesTimeMs for s in state_ops),
            "streaming.shuffle_partitions": sr.state().numShufflePartitions,
            "streaming.handler_ms": handler_ms,
            "streaming.state_blob_bytes": handler["state_blob_bytes"],
            "streaming.summaries_held": handler["summaries_held"],
            "streaming.inflight_held": handler["inflight_held"],
            "streaming.engine_overhead_ms": add_batch - handler_ms,
        }
    )
    return {k: (float(v), layer_unit(k), 1) for k, v in m.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"repro sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepare_environment(work)
    try:
        metrics, details = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=2, default=str))
    for name in sorted(metrics):
        value, unit, n = metrics[name]
        print(f"{name:36s} {value:16.6g} {unit:8s} n={n}")
    print(
        json.dumps(
            {
                "correct": details["failed"] == 0,
                "attempted": details["attempted"],
                "failed": details["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
