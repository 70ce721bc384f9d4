"""In-memory span tracing and reversible wrappers for the traced run.

A :class:`Tracer` records one span per call (name, start, end, parent). A
:class:`Patch` replaces attributes of modules or classes with wrappers that
open a span around the original callable, and puts the originals back on
:meth:`Patch.restore`. Wrappers are only installed for the duration of a
``with Patch(...)`` block, so the untraced measurements never see them.

Only driver-side callables are wrapped: a wrapper referenced from a closure
that Spark pickles to its Python workers would need this package on the
workers' path, and would time nothing the driver could collect.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and named counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def wrap(
        self, name: str, fn: Callable, on_return: Callable[..., None] | None = None
    ) -> Callable:
        """``fn`` with a span around every call; ``on_return(result, *args)``
        runs after the call, outside the span, to record counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(self, result, *args)
            return result

        return wrapper

    # -- reading the trace -------------------------------------------------
    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_s(self, name: str) -> float:
        """Summed duration of ``name`` spans minus what their direct
        children cover (children of one span never overlap: one thread)."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        return sum(s.duration - child_time[s.id] for s in self.spans if s.name == name)

    def children_of(self, parent_name: str, name: str) -> list[Span]:
        parents = {s.id for s in self.spans if s.name == parent_name}
        return [s for s in self.spans if s.name == name and s.parent in parents]

    def dump(self, path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        rows = [
            {**asdict(s), "start": s.start - origin, "end": s.end - origin}
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w") as f:
            json.dump({"spans": rows, "counters": dict(self.counters)}, f)


# (owner, attribute, span name, on_return) — owner is a module or a class.
Target = tuple[Any, str, str, "Callable[..., None] | None"]


class Patch:
    """Reversible replacement of ``owner.attribute`` by traced wrappers."""

    def __init__(self, tracer: Tracer, targets: list[Target]):
        self._tracer = tracer
        self._targets = targets
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("patch already installed")
        for owner, attr, name, on_return in self._targets:
            raw = vars(owner)[attr]  # the binding itself, not an inherited one
            if isinstance(raw, staticmethod):
                new = staticmethod(self._tracer.wrap(name, raw.__func__, on_return))
            else:
                new = self._tracer.wrap(name, raw, on_return)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patch":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _record_finalize(tracer: Tracer, summary, builder) -> None:
    tracer.counters["subwindow.events"] += summary.count
    tracer.counters["subwindow.unique"] += builder.last_unique


def _record_burst(tracer: Tracer, flagged: bool, *_args) -> None:
    tracer.counters["burst.flagged"] += bool(flagged)


def kernel_targets() -> list[Target]:
    """The kernel's public callables, at the bindings its callers use."""
    import repro.core.qlove as qlove
    import repro.core.subwindow as subwindow
    from repro.core.burst import BurstDetector

    builder = subwindow.SubWindowBuilder
    op = qlove.QloveOperator
    return [
        (subwindow, "quantize_sig", "compression.quantize", None),
        (subwindow, "exact_quantiles_freq", "quantile.exact_freq", None),
        (subwindow, "interval_sample", "fewk.interval_sample", None),
        (builder, "accumulate_chunk", "subwindow.accumulate", None),
        (builder, "finalize", "subwindow.finalize", _record_finalize),
        (op, "observe_chunk", "qlove.observe_chunk", None),
        (op, "space_observed", "runner.space_poll", None),
        (BurstDetector, "observe", "burst.observe", _record_burst),
        (qlove, "window_result", "qlove.window_result", None),
        (qlove, "topk_merge", "fewk.topk_merge", None),
        (qlove, "samplek_merge", "fewk.samplek_merge", None),
    ]


def batch_targets() -> list[Target]:
    """Driver-side callables of the Spark batch path."""
    import repro.sparklayer.qlove_spark as qlove_spark
    from pyspark.sql.classic.dataframe import DataFrame

    return [
        (qlove_spark, "subwindow_summaries", "level1.subwindow_summaries", None),
        (qlove_spark, "sliding_mean_estimates", "level2.sliding_mean_estimates", None),
        (qlove_spark, "rows_to_summaries", "qlove_spark.rows_to_summaries", None),
        (qlove_spark, "window_result", "qlove_spark.window_result", None),
        (DataFrame, "collect", "spark.collect", None),
    ]


def kernel_layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer kernel metrics from a trace of ``passes`` kernel passes;
    times and counts are per pass."""
    t = tracer
    per = 1.0 / passes
    unique = t.counters["subwindow.unique"]
    observed = t.calls("burst.observe")
    m = {
        "compression.quantize_s": t.self_s("compression.quantize"),
        "compression.quantize_calls": t.calls("compression.quantize"),
        "subwindow.accumulate_s": t.self_s("subwindow.accumulate"),
        "subwindow.accumulate_calls": t.calls("subwindow.accumulate"),
        "subwindow.finalize_self_s": t.self_s("subwindow.finalize"),
        "subwindow.finalize_calls": t.calls("subwindow.finalize"),
        "quantile.exact_freq_s": t.self_s("quantile.exact_freq"),
        "quantile.exact_freq_calls": t.calls("quantile.exact_freq"),
        "qlove.level2_self_s": t.self_s("qlove.observe_chunk"),
        "qlove.window_result_s": t.self_s("qlove.window_result"),
        "qlove.window_result_calls": t.calls("qlove.window_result"),
        "runner.self_s": t.self_s("runner.run_policy"),
        "runner.space_poll_s": t.self_s("runner.space_poll"),
        "fewk.interval_sample_s": t.self_s("fewk.interval_sample"),
        "fewk.interval_sample_calls": t.calls("fewk.interval_sample"),
        "fewk.topk_merge_s": t.self_s("fewk.topk_merge"),
        "fewk.topk_merge_calls": t.calls("fewk.topk_merge"),
        "fewk.samplek_merge_s": t.self_s("fewk.samplek_merge"),
        "fewk.samplek_merge_calls": t.calls("fewk.samplek_merge"),
        "burst.observe_s": t.self_s("burst.observe"),
        "burst.observe_calls": observed,
        "burst.flagged": t.counters["burst.flagged"],
    }
    m = {k: v * per for k, v in m.items()}
    # ratios are not scaled per pass
    m["subwindow.unique_per_sub"] = unique / max(1, t.calls("subwindow.finalize"))
    m["subwindow.dup_ratio"] = t.counters["subwindow.events"] / unique if unique else 0.0
    m["burst.flag_ratio"] = t.counters["burst.flagged"] / observed if observed else 0.0
    return m


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (
        ("_ms", "ms"),
        ("_s", "s"),
        ("_pct", "%"),
        ("_bytes", "bytes"),
        ("_ratio", "ratio"),
        ("_per_sub", "values"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"
