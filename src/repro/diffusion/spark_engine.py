"""Spark-parallel diffusion engines (S9, S10 in DESIGN.md).

Two complementary designs:

* **Trial fan-out** (:func:`run_trials_df`, :class:`SparkTrialEngine`):
  the paper's stated future-work direction ("improve the performance of
  CyNetDiff by adding parallelism"). Monte-Carlo trials are independent,
  so the ids of a ``spark.range`` are partitioned across executors and
  each partition runs the vectorized CSR kernel locally on the trials
  those ids index, via Arrow-backed ``mapInPandas``. The CSR arrays and
  the items are shipped once per executor with ``SparkContext.broadcast``
  (deliberate and documented: the graph is the shared read-only operand;
  the session fixture's disabled *auto*-broadcast join threshold concerns
  relational joins, not this). CELF's candidate fan-out
  (:func:`repro.im.spread.marginal_gains_spark`) runs on the same helper.
  Because coins are counter-based (``repro.diffusion.rng``), the result
  of trial ``t`` is bit-identical to a local engine run with
  ``trial_seed=t`` regardless of partitioning.

* **DataFrame frontier engine** (:func:`frontier_reachability_df`):
  diffusion expressed as iterative relational joins under Catalyst, over
  a *live-edge* realization (Kempe et al.): activated nodes are exactly
  the nodes reachable from the seeds through live edges. Each BFS round
  is ``frontier JOIN edges`` + anti-join against the active set; the
  DuckDB oracle checks it against a ``WITH RECURSIVE`` reachability
  query. For IC, :func:`sample_live_edges` uses the same coin stream as
  the engines, so per-trial results are bit-identical to them too.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import IntegerType, LongType, StructField, StructType

from repro.diffusion.common import (
    validate_lt_weights,
    validate_model,
    validate_seeds,
    validate_weights,
)
from repro.diffusion.csr_engine import CSREngine
from repro.diffusion.rng import STREAM_IC_COIN, STREAM_LT_PICK, uniforms
from repro.graphs.csr import CSRGraph

SUMMARY_SCHEMA = StructType(
    [
        StructField("trial", LongType(), False),
        StructField("num_active", LongType(), False),
        StructField("num_iterations", LongType(), False),
    ]
)

ACTIVATION_SCHEMA = StructType(
    [
        StructField("trial", LongType(), False),
        StructField("node", LongType(), False),
        StructField("time", IntegerType(), False),
    ]
)


def _fan_out(
    spark: SparkSession,
    csr: CSRGraph,
    weights: np.ndarray,
    model: str,
    items: np.ndarray,
    evaluate: Callable[[CSREngine, np.ndarray], Iterator[pd.DataFrame]],
    schema: StructType,
) -> DataFrame:
    """Map ``evaluate(engine, items[ids])`` over ``items`` in Spark partitions.

    ``(csr, weights, model, items)`` is broadcast once, after the weights
    are checked on the driver; the rows are just ``spark.range`` ids, so
    no driver-side frame is built or shuffled.
    Each partition rebuilds one :class:`CSREngine` from the broadcast and
    hands it the items of its id batches.
    """
    items = np.asarray(items, np.int64)
    payload = spark.sparkContext.broadcast(
        (csr, validate_weights(csr, weights), model, items)
    )

    def run_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        csr, weights, model, items = payload.value
        engine = CSREngine(csr, weights, model=model)
        for batch in batches:
            yield from evaluate(engine, items[batch["id"].to_numpy()])

    num_part = max(1, min(items.size, spark.sparkContext.defaultParallelism))
    return spark.range(items.size, numPartitions=num_part).mapInPandas(
        run_partition, schema
    )


def run_trials_df(
    spark: SparkSession,
    csr: CSRGraph,
    weights: np.ndarray,
    seeds,
    trial_seeds,
    *,
    model: str = "ic",
    output: str = "summary",
) -> DataFrame:
    """Fan Monte-Carlo trials over Spark partitions.

    Args:
        output: ``"summary"`` -> (trial, num_active, num_iterations);
            ``"activations"`` -> one row per activated node
            (trial, node, time), the input to heatmap/timeseries analytics.

    Returns a lazily-evaluated DataFrame; each partition runs its trials
    through :meth:`CSREngine.activation_times`, the batched kernel of both
    models.
    """
    model = validate_model(model)
    seeds = validate_seeds(csr.n, seeds)
    if output not in ("summary", "activations"):
        raise ValueError(f"output must be summary|activations, got {output!r}")
    want_summary = output == "summary"

    def evaluate(engine: CSREngine, trials: np.ndarray) -> Iterator[pd.DataFrame]:
        for lo, block in engine.activation_times(seeds, trials):
            tr = trials[lo : lo + len(block)]
            if want_summary:
                yield pd.DataFrame(
                    {
                        "trial": tr,
                        "num_active": (block >= 0).sum(axis=1),
                        "num_iterations": block.max(axis=1).astype(np.int64),
                    }
                )
            else:
                k, nodes = np.nonzero(block >= 0)
                yield pd.DataFrame(
                    {"trial": tr[k], "node": nodes, "time": block[k, nodes]}
                )

    schema = SUMMARY_SCHEMA if want_summary else ACTIVATION_SCHEMA
    return _fan_out(spark, csr, weights, model, trial_seeds, evaluate, schema)


class SparkTrialEngine:
    """Engine-protocol adapter running a block of trials through Spark.

    ``run_many(seeds, trial_seeds)`` answers like every other engine: the
    activated-node count of each trial, in the order of ``trial_seeds``.
    """

    kind = "spark"

    def __init__(
        self, spark: SparkSession, csr: CSRGraph, weights: np.ndarray, *, model: str = "ic"
    ) -> None:
        self.spark = spark
        self.csr = csr
        self.weights = np.asarray(weights, np.float64)
        self.model = validate_model(model)

    def run_many(self, seeds, trial_seeds) -> np.ndarray:
        """int64 counts, row ``k`` for trial ``trial_seeds[k]``.

        Each distinct trial seed runs once on Spark; the collected rows,
        sorted by trial, are then spread back over the block.
        """
        trials, pos = np.unique(np.asarray(trial_seeds, np.int64), return_inverse=True)
        pdf = run_trials_df(
            self.spark, self.csr, self.weights, seeds, trials, model=self.model
        ).toPandas()
        return pdf.sort_values("trial")["num_active"].to_numpy(np.int64)[pos]


def sample_live_edges(
    csr: CSRGraph, weights: np.ndarray, trial_seed: int, *, model: str = "ic"
) -> np.ndarray:
    """Sample a live-edge realization, ``(k, 2)`` directed edges.

    IC: edge e is live iff its shared-stream coin is below its weight —
    the *same* coin the simulation engines flip, so reachability over
    this realization equals their per-trial output exactly.

    LT: each node picks at most one incoming edge (edge e with
    probability w_e), per Kempe et al.'s live-edge theorem; equality with
    the threshold engines is distributional, not per-trial. The picks are
    a distribution only if each node's incoming weights sum to at most 1,
    so LT weights must pass :func:`validate_lt_weights`.
    """
    model = validate_model(model)
    if model == "ic":
        eids = np.arange(csr.m, dtype=np.int64)
        live = uniforms(STREAM_IC_COIN, trial_seed, eids) < validate_weights(csr, weights)
        return csr.edge_array()[live]
    w = validate_lt_weights(csr, weights)
    rev = csr.reverse()
    u_pick = uniforms(STREAM_LT_PICK, trial_seed, np.arange(csr.n, dtype=np.int64))
    picked: list[tuple[int, int]] = []
    for v in range(csr.n):
        eids, srcs = rev.in_edges(v)
        if eids.size == 0:
            continue
        cum = np.cumsum(w[eids])
        j = int(np.searchsorted(cum, u_pick[v], side="right"))
        if j < eids.size:
            picked.append((int(srcs[j]), v))
    return np.asarray(picked, np.int64).reshape(-1, 2)


def frontier_reachability_df(
    spark: SparkSession, live_edges: DataFrame, seeds
) -> DataFrame:
    """BFS reachability as iterative DataFrame joins: returns (node, time).

    ``live_edges`` must have columns (src, dst). Each round shuffles
    ``frontier JOIN edges ON node = src``, deduplicates, anti-joins the
    active set, and localCheckpoints to truncate lineage. Terminates when
    a round adds no nodes; output rows are every reachable node with its
    BFS depth (seeds at time 0).
    """
    edges = live_edges.select(
        F.col("src").cast("long"), F.col("dst").cast("long")
    )
    seeds_pdf = pd.DataFrame({"node": pd.Series(sorted({int(s) for s in seeds}), dtype="int64")})
    active = (
        spark.createDataFrame(seeds_pdf)
        .withColumn("time", F.lit(0).cast("int"))
        .localCheckpoint(eager=True)
    )
    frontier = active.select("node")
    t = 0
    while True:
        nxt = (
            frontier.join(edges, frontier.node == edges.src)
            .select(F.col("dst").alias("node"))
            .distinct()
            .join(active.select("node"), "node", "left_anti")
            .localCheckpoint(eager=True)
        )
        if nxt.count() == 0:
            break
        t += 1
        active = active.union(
            nxt.withColumn("time", F.lit(t).cast("int"))
        ).localCheckpoint(eager=True)
        frontier = nxt.select("node")
    return active
