"""Mean activated nodes over time (Figure 3's data).

For each iteration t, the mean over trials of the *cumulative* number of
nodes activated by iteration t (the paper plots exactly this curve per
seed set, averaged over 1,000 simulations). Computed relationally from
the exploded activation table: a time grid 0..max(time) cross-joined
against trials, counting activations with time <= t. Oracle-verified.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def mean_active_over_time_df(
    spark: SparkSession, activations: DataFrame, n_trials: int
) -> DataFrame:
    """(time, mean_active) for t = 0 .. max activation time.

    Trials that finished before t contribute their final count (a cascade
    that stops stays at its plateau), which falls out of counting
    ``activation_time <= t`` over all trials and dividing by n_trials.
    """
    max_t = activations.agg(F.max("time").alias("m")).collect()[0]["m"]
    if max_t is None:  # no activations: an empty curve
        return spark.createDataFrame([], "time long, mean_active double")
    grid = spark.range(int(max_t) + 1).withColumnRenamed("id", "t")
    joined = grid.join(activations, activations.time <= grid.t)
    return (
        joined.groupBy("t")
        .agg((F.count("*") / F.lit(float(n_trials))).alias("mean_active"))
        .select(F.col("t").alias("time"), "mean_active")
        .orderBy("time")
    )
