"""Level-2 sliding mean in Spark SQL (Section 3.1, Figure 2): the relational
reference, diffed against DuckDB and the kernel in ``tests/test_spark_level2.py``.
Production Level 2 is the kernel's, run on the driver by ``qlove_estimates``.

A window is identified by the ``sub_id`` of its *last* sub-window (window
``w`` covers sub-windows ``[w - n + 1, w]``). Instead of a range join,
each summary is exploded into the ``n`` windows it participates in with
``explode(sequence(sub_id, sub_id + n - 1))`` — a plain shuffle-based
group-by then averages the per-phi sub-window quantiles, which is exactly
the Level-2 mean of the paper (the incremental sum/count state of the
kernel operator computes the same numbers one slide at a time).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

__all__ = ["sliding_mean_estimates", "complete_windows"]


def complete_windows(summaries: DataFrame, n_subwindows: int) -> DataFrame:
    """Explode summaries into the windows they belong to and keep only
    complete windows (all ``n`` member sub-windows present)."""
    exploded = summaries.withColumn(
        "w",
        F.explode(F.sequence(F.col("sub_id"), F.col("sub_id") + F.lit(n_subwindows - 1))),
    )
    max_sub = summaries.agg(F.max("sub_id").alias("m"))
    return (
        exploded
        # the first complete window ends at sub-window n-1; windows past the
        # last observed sub-window never complete
        .where(F.col("w") >= F.lit(n_subwindows - 1))
        .join(F.broadcast(max_sub), F.col("w") <= F.col("m"), "inner")
        .drop("m")
    )


def sliding_mean_estimates(summaries: DataFrame, n_subwindows: int) -> DataFrame:
    """Level-2 mean estimates per window: ``(w, estimates ARRAY<DOUBLE>)``.

    ``estimates[i]`` is the mean over the window's sub-windows of the
    ``i``-th requested quantile — QLOVE's non-high-quantile answer
    ``y_a = (1/n) * sum(y_i)``.
    """
    member = complete_windows(summaries, n_subwindows)
    per_phi = (
        member.select("w", "sub_id", F.posexplode("quantiles").alias("pos", "q"))
        .groupBy("w", "pos")
        .agg(F.avg("q").alias("mean_q"), F.count(F.lit(1)).alias("n_members"))
        .where(F.col("n_members") == F.lit(n_subwindows))
    )
    return (
        per_phi.groupBy("w")
        .agg(
            F.transform(
                F.array_sort(F.collect_list(F.struct("pos", "mean_q"))),
                lambda s: s["mean_q"],
            ).alias("estimates")
        )
    )
