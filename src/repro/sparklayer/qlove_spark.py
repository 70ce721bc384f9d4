"""End-to-end QLOVE over an events DataFrame (DESIGN.md section 3).

The heavy, data-parallel part — building per-sub-window summaries over
millions of events — runs as a Spark dataflow (:mod:`.level1`). What
remains per window is tiny (``n`` summaries of ``l + k`` floats), so for
every configuration the summaries are collected and the driver runs the
kernel's own Level 2 over them: :func:`repro.core.burst.flag_bursts`,
:func:`repro.core.qlove.level2_slide` and
:func:`repro.core.qlove.window_result` (the paper's Level 2 is likewise a
"static cost" serial stage). Results are bit-identical to
:class:`repro.core.qlove.QloveOperator` by construction (tested in
``tests/test_spark_qlove.py``).

``sliding_mean_estimates`` is re-exported as the relational reference for
the Level-2 mean (:mod:`.level2`); it is not on the production path.
``rows_to_summaries`` is the Level-1 row decoder of :mod:`.level1`.
"""
from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.burst import flag_bursts
from repro.core.fewk import FewKConfig
from repro.core.qlove import level2_slide, window_result
from repro.core.summary import SubWindowSummary
from repro.sparklayer.level1 import rows_to_summaries, subwindow_summaries
from repro.sparklayer.level2 import sliding_mean_estimates
from repro.streams.windows import WindowSpec

__all__ = ["qlove_estimates", "rows_to_summaries", "sliding_mean_estimates"]


def qlove_estimates(
    spark: SparkSession,
    events: DataFrame,
    spec: WindowSpec,
    phis: Sequence[float],
    *,
    sig_digits: int | None = None,
    fewk: FewKConfig | None = None,
    burst_alpha: float = 0.01,
) -> DataFrame:
    """QLOVE estimates per complete window: ``(w, estimates ARRAY<DOUBLE>)``.

    ``w`` is the sub_id of the window's last sub-window; ``estimates`` is
    aligned with ``phis``. Runs the Level-1 Spark job when called and
    returns a local DataFrame (empty for a stream shorter than one window).
    A missing or partial sub-window before the last raises ``RuntimeError``.
    """
    phis = tuple(phis)
    cfg = fewk or FewKConfig()
    summaries = subwindow_summaries(
        events, spec.period, phis, sig_digits=sig_digits, fewk=cfg
    )
    # A trailing partial sub-window never completes a period, so no query
    # evaluation sees it (count-based windows, Section 2).
    rows = summaries.where(F.col("count") == spec.period).collect()
    run = rows_to_summaries(rows, cfg)
    for i, s in enumerate(run):
        if s.sub_id != i:
            raise RuntimeError(
                f"non-contiguous sub-window ids in summaries: sub_id {i} is missing"
            )
    flag_bursts(run, cfg, burst_alpha)
    n = spec.n_subwindows
    window: deque[SubWindowSummary] = deque(maxlen=n)
    sums = np.zeros(len(phis), dtype=np.float64)
    records = []
    for s in run:
        level2_slide(window, sums, s)
        if len(window) == n:
            res = window_result(list(window), phis, cfg, means=sums / n)
            records.append((s.sub_id, [res[p] for p in phis]))
    # From pandas (Arrow) the result is a local relation; from a list of
    # tuples every later action would run a Python RDD job.
    pdf = pd.DataFrame(records, columns=["w", "estimates"])
    return spark.createDataFrame(pdf, schema="w BIGINT, estimates ARRAY<DOUBLE>")
