"""Level-1 sub-window summaries as a Spark dataflow (Section 3.1).

The paper's frequency-compressed Level-1 state ``{value -> count}`` is
exactly a relational group-by: ``events.groupBy(sub_id, value).count()``.
Summaries (exact per-sub-window quantiles plus few-k tail caches) are then
computed per sub-window with ``applyInPandas`` over that state — one tiny
pandas group per sub-window, embarrassingly parallel across sub-windows.

The per-group computation is the kernel's own
:func:`repro.core.subwindow.summarize`, so the Spark pipeline is
bit-identical to the :class:`repro.core.qlove.QloveOperator` results
(tested in ``tests/test_spark_level1.py``). This module owns the summary
row format (:data:`SUMMARY_SCHEMA`): the UDF encodes it and
:func:`rows_to_summaries` decodes collected rows back into kernel
summaries.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.core.fewk import FewKConfig
from repro.core.subwindow import summarize
from repro.core.summary import SubWindowSummary
from repro.sparklayer.events import with_quantized_value, with_sub_id

__all__ = ["freq_state", "subwindow_summaries", "rows_to_summaries", "SUMMARY_SCHEMA"]

SUMMARY_SCHEMA = StructType(
    [
        StructField("sub_id", LongType(), False),
        StructField("count", LongType(), False),
        StructField("quantiles", ArrayType(DoubleType(), False), False),
        # Outer index aligns with FewKConfig.budgets order.
        StructField("top_k", ArrayType(ArrayType(DoubleType(), False), False), False),
        StructField("sample_k", ArrayType(ArrayType(DoubleType(), False), False), False),
    ]
)


def _budget_lists(caches: "dict[float, np.ndarray]", fewk: FewKConfig) -> list:
    """Per-phi caches -> budget-aligned lists (a disabled cache is [])."""
    return [caches[b.phi].tolist() if b.phi in caches else [] for b in fewk.budgets]


def _budget_caches(lists: list, fewk: FewKConfig) -> "dict[float, np.ndarray]":
    """Inverse of :func:`_budget_lists`."""
    return {
        b.phi: np.asarray(v, dtype=np.float64)
        for b, v in zip(fewk.budgets, lists)
        if len(v)
    }


def rows_to_summaries(rows: list, fewk: FewKConfig) -> list[SubWindowSummary]:
    """Decode collected :data:`SUMMARY_SCHEMA` rows into kernel summaries,
    sorted by ``sub_id``."""
    return [
        SubWindowSummary(
            sub_id=int(row.sub_id),
            count=int(row["count"]),
            quantiles=np.asarray(row.quantiles, dtype=np.float64),
            top_k=_budget_caches(row.top_k, fewk),
            sample_k=_budget_caches(row.sample_k, fewk),
        )
        for row in sorted(rows, key=lambda r: r.sub_id)
    ]


def freq_state(events: DataFrame, period: int, *, sig_digits: int | None = None) -> DataFrame:
    """The Level-1 state, relationally: ``(sub_id, value, freq)``.

    This is the paper's red-black-tree state expressed as a group-by — the
    degree of duplicates in the workload directly shrinks this relation
    (the ``O(P)`` term of Section 3.2).
    """
    ev = with_quantized_value(events, sig_digits)
    return (
        with_sub_id(ev, period)
        .groupBy("sub_id", "value")
        .agg(F.count(F.lit(1)).alias("freq"))
    )


def subwindow_summaries(
    events: DataFrame,
    period: int,
    phis: Sequence[float],
    *,
    sig_digits: int | None = None,
    fewk: FewKConfig | None = None,
) -> DataFrame:
    """Per-sub-window summaries: ``(sub_id, count, quantiles, top_k, sample_k)``.

    Equivalent to running :class:`repro.core.subwindow.SubWindowBuilder`
    over every sub-window, but data-parallel: the frequency state is built
    by Spark's shuffle and each summary by one ``applyInPandas`` group.
    """
    phis = tuple(phis)
    cfg = fewk or FewKConfig()
    state = freq_state(events, period, sig_digits=sig_digits)

    def summarize_group(pdf: pd.DataFrame) -> pd.DataFrame:
        values = pdf["value"].to_numpy(dtype=np.float64)
        freqs = pdf["freq"].to_numpy(dtype=np.int64)
        order = np.argsort(values)
        s = summarize(int(pdf["sub_id"].iloc[0]), values[order], freqs[order], phis, cfg)
        return pd.DataFrame(
            {
                "sub_id": [s.sub_id],
                "count": [s.count],
                "quantiles": [s.quantiles.tolist()],
                "top_k": [_budget_lists(s.top_k, cfg)],
                "sample_k": [_budget_lists(s.sample_k, cfg)],
            }
        )

    return state.groupBy("sub_id").applyInPandas(summarize_group, SUMMARY_SCHEMA)
