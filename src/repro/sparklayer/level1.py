"""Level-1 sub-window summaries as a Spark dataflow (Section 3.1).

The paper's frequency-compressed Level-1 state ``{value -> count}`` is
exactly a relational group-by: ``events.groupBy(sub_id, value).count()``.
Summaries (exact per-sub-window quantiles plus few-k tail caches) are then
computed per sub-window with ``applyInPandas`` over that state — one tiny
pandas group per sub-window, embarrassingly parallel across sub-windows.

The per-group computation reuses the kernel's ``exact_quantiles_freq`` /
``tail_prefix`` / ``interval_sample`` so the Spark pipeline is
bit-identical to the :class:`repro.core.qlove.QloveOperator` results
(tested in ``tests/test_spark_level1.py``).
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

from repro.core.fewk import FewKConfig, interval_sample, tail_prefix
from repro.core.quantile import exact_quantiles_freq
from repro.sparklayer.events import with_quantized_value, with_sub_id

__all__ = ["freq_state", "subwindow_summaries", "SUMMARY_SCHEMA"]

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

    def summarize(pdf: pd.DataFrame) -> pd.DataFrame:
        values = pdf["value"].to_numpy(dtype=np.float64)
        freqs = pdf["freq"].to_numpy(dtype=np.int64)
        order = np.argsort(values)
        values, freqs = values[order], freqs[order]
        quantiles = exact_quantiles_freq(values, freqs, phis)
        # a disabled cache (k_t or k_s = 0) is an empty list
        ranked = tail_prefix(values, freqs, cfg.max_tail)
        top_k = [ranked[: b.k_t].tolist() for b in cfg.budgets]
        sample_k = [interval_sample(ranked, b.k_s, b.big_k).tolist() for b in cfg.budgets]
        return pd.DataFrame(
            {
                "sub_id": [int(pdf["sub_id"].iloc[0])],
                "count": [int(freqs.sum())],
                "quantiles": [quantiles.tolist()],
                "top_k": [top_k],
                "sample_k": [sample_k],
            }
        )

    return state.groupBy("sub_id").applyInPandas(summarize, SUMMARY_SCHEMA)
