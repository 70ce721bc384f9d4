"""QLOVE as a Structured Streaming stateful aggregation.

This is the repro target's "hierarchical windowing quantile sketch as
Structured Streaming stateful aggregation": events arrive as a stream of
``(stream_id, seq, value)`` micro-batches; per ``stream_id`` group,
``applyInPandasWithState`` maintains QLOVE's state —

  - the in-flight sub-windows' frequency-compressed Level-1 states, and
  - the completed sub-windows' tiny summaries (quantiles + few-k caches) —

and emits one output row per *completed window* with the QLOVE estimates.
Summaries come from the kernel's :func:`repro.core.subwindow.summarize`,
burst flags from :func:`repro.core.burst.flag_bursts` and the estimates
from :func:`repro.core.qlove.window_result`.

Delivery order. Summaries are keyed by ``sub_id``. Window ``w`` is emitted
once its ``n`` members exist and, with burst detection on, sub-window
``w - n`` too, whose samples the first member's burst flag is tested
against. Whole sub-windows may arrive in any order (the file source does
not forbid it); windows may then be emitted out of order, so each window's
mean is recomputed from its members. Late or duplicate events, for a
sub-window already summarized or pruned, are dropped; an in-flight
sub-window with more than ``period`` events raises ``RuntimeError``.
Duplicates that keep an in-flight sub-window at or below ``period`` events
go undetected: the state keeps no per-event record.

State is held as one pickled binary column: the state is an arbitrary
nested dict (freq maps, numpy arrays) and serializing it wholesale keeps
the stateful contract in one place. Expired entries (sub-windows older
than any window that can still complete, and already-emitted window ids)
are pruned every call, so state size stays ``O(n)`` summaries like the
kernel operator's deque.
"""
from __future__ import annotations

import pickle
from typing import Any, Iterable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import BinaryType, StructField, StructType

from repro.core.burst import flag_bursts
from repro.core.fewk import FewKConfig
from repro.core.qlove import window_result
from repro.core.subwindow import summarize
from repro.core.summary import SubWindowSummary
from repro.streams.windows import WindowSpec

__all__ = ["qlove_streaming", "OUTPUT_SCHEMA", "STATE_SCHEMA"]

OUTPUT_SCHEMA = (
    "stream_id STRING, w BIGINT, estimates ARRAY<DOUBLE>"
)
STATE_SCHEMA = StructType([StructField("blob", BinaryType(), True)])


# Summary fields kept in the state blob; sub_id is the dict key and the
# burst flag is recomputed per window.
_STORED = ("count", "quantiles", "top_k", "sample_k")


def _emit_ready_windows(
    st: dict[str, Any], spec: WindowSpec, phis: tuple, cfg: FewKConfig, burst_alpha: float
) -> list[tuple[int, list[float]]]:
    """Emit every complete, not-yet-emitted window; prune expired state."""
    n = spec.n_subwindows
    summaries = st["summaries"]
    results = []
    for w in sorted(summaries):
        if w < max(st["frontier"], n - 1) or w in st["emitted"]:
            continue
        # the first member's burst flag needs its predecessor's samples
        first = w - n if cfg.burst_phi is not None and w >= n else w - n + 1
        run_ids = range(first, w + 1)
        if not all(s in summaries for s in run_ids):
            continue
        run = [SubWindowSummary(sub_id=s, **summaries[s]) for s in run_ids]
        flag_bursts(run, cfg, burst_alpha)
        res = window_result(run[-n:], phis, cfg)
        results.append((w, [res[p] for p in phis]))
        st["emitted"].add(w)
    # Prune via the monotone frontier = smallest window id not yet emitted.
    # Windows below the frontier can never be (re-)emitted — the emit loop
    # skips them — so their emitted records are droppable, and a summary is
    # dead once every window it serves (plus the burst-flag neighbour) is
    # below the frontier, i.e. once sub_id < frontier - n.
    while st["frontier"] in st["emitted"]:
        st["emitted"].discard(st["frontier"])
        st["frontier"] += 1
    live_from = st["frontier"] - n
    for s_id in [s for s in summaries if s < live_from]:
        del summaries[s_id]
    return results


def make_handler(
    spec: WindowSpec,
    phis: Sequence[float],
    *,
    sig_digits: int | None = None,
    fewk: FewKConfig | None = None,
    burst_alpha: float = 0.01,
):
    """Build the applyInPandasWithState handler closure."""
    phis = tuple(phis)
    cfg = fewk or FewKConfig()

    def handler(
        key: tuple, pdfs: Iterable[pd.DataFrame], state: GroupState
    ) -> Iterable[pd.DataFrame]:
        if state.exists:
            st = pickle.loads(bytes(state.get[0]))
        else:
            st = {
                "summaries": {},
                "inflight": {},
                "emitted": set(),
                "frontier": spec.n_subwindows - 1,
            }
        for pdf in pdfs:
            seq = pdf["seq"].to_numpy(dtype=np.int64)
            values = pdf["value"].to_numpy(dtype=np.float64)
            if sig_digits is not None:
                from repro.core.compression import quantize_sig

                values = quantize_sig(values, sig_digits)
            sub_ids = seq // spec.period
            for s_id in np.unique(sub_ids).tolist():
                if s_id in st["summaries"] or s_id < st["frontier"] - spec.n_subwindows:
                    continue  # late or duplicate: already summarized or pruned
                chunk = values[sub_ids == s_id]
                entry = st["inflight"].setdefault(s_id, {"freq": {}, "count": 0})
                uniq, counts = np.unique(chunk, return_counts=True)
                for v, c in zip(uniq.tolist(), counts.tolist()):
                    entry["freq"][v] = entry["freq"].get(v, 0) + c
                entry["count"] += len(chunk)
                if entry["count"] > spec.period:
                    raise RuntimeError(
                        f"sub-window {s_id} received {entry['count']} events, "
                        f"more than its period {spec.period}"
                    )
                if entry["count"] == spec.period:
                    freq = st["inflight"].pop(s_id)["freq"]
                    uniq = np.fromiter(freq.keys(), dtype=np.float64, count=len(freq))
                    counts = np.fromiter(freq.values(), dtype=np.int64, count=len(freq))
                    order = np.argsort(uniq)
                    s = summarize(s_id, uniq[order], counts[order], phis, cfg)
                    st["summaries"][s_id] = {f: getattr(s, f) for f in _STORED}
        results = _emit_ready_windows(st, spec, phis, cfg, burst_alpha)
        state.update((pickle.dumps(st),))
        if results:
            yield pd.DataFrame(
                {
                    "stream_id": [str(key[0])] * len(results),
                    "w": [w for w, _ in results],
                    "estimates": [est for _, est in results],
                }
            )

    return handler


def qlove_streaming(
    events_stream: DataFrame,
    spec: WindowSpec,
    phis: Sequence[float],
    *,
    sig_digits: int | None = None,
    fewk: FewKConfig | None = None,
    burst_alpha: float = 0.01,
) -> DataFrame:
    """Wire QLOVE's stateful handler into a streaming events DataFrame.

    ``events_stream`` must be a *streaming* DataFrame with columns
    ``(stream_id STRING, seq BIGINT, value DOUBLE)``. Returns an append-mode
    streaming DataFrame ``(stream_id, w, estimates)`` with one row per
    completed window.
    """
    handler = make_handler(
        spec, phis, sig_digits=sig_digits, fewk=fewk, burst_alpha=burst_alpha
    )
    return events_stream.groupBy("stream_id").applyInPandasWithState(
        handler,
        outputStructType=OUTPUT_SCHEMA,
        stateStructType=STATE_SCHEMA,
        outputMode="append",
        timeoutConf=GroupStateTimeout.NoTimeout,
    )
