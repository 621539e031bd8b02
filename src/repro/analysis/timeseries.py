"""Mean activated nodes over time (Figure 3's data).

For each iteration t, the mean over trials of the *cumulative* number of
nodes activated by iteration t (the paper plots exactly this curve per
seed set, averaged over 1,000 simulations). Computed relationally from
the exploded activation table: activations counted per time, then a
running sum over time. Oracle-verified.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F


def mean_active_over_time_df(
    spark: SparkSession, activations: DataFrame, n_trials: int
) -> DataFrame:
    """(time, mean_active) for t = 0 .. max activation time.

    Trials that finished before t contribute their final count (a cascade
    that stops stays at its plateau), which falls out of counting
    ``activation_time <= t`` over all trials and dividing by n_trials.
    BFS levels are contiguous — a node active at t > 0 has an in-neighbor
    active at t - 1, and every trial has its seeds at 0 — so the per-time
    counts have a row for every t in 0..max and their running sum is the
    curve. Empty input gives an empty curve.
    """
    upto_t = Window.orderBy("time").rowsBetween(Window.unboundedPreceding, Window.currentRow)
    return (
        activations.groupBy("time")
        .count()
        .select(
            F.col("time").cast("long").alias("time"),
            (F.sum("count").over(upto_t) / F.lit(float(n_trials))).alias("mean_active"),
        )
        .orderBy("time")
    )
