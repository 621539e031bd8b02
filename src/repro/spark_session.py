"""The one SparkSession configuration shared by tests and jobs.

Master and driver memory are read at JVM launch, so they come from the
command line (spark-submit, or ``PYSPARK_SUBMIT_ARGS`` in tests). The
settings here are honoured after launch: shuffle partitions
(``SPARK_SHUFFLE_PARTITIONS``, default 64), Arrow-backed pandas transfer,
and no automatic broadcast joins, so the DataFrame frontier engine
exercises shuffle joins; the trial fan-out broadcasts its operands
explicitly.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app_name: str) -> SparkSession:
    """Session with the reproduction's standard configs applied."""
    return (
        SparkSession.builder.appName(app_name)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
