"""Monte-Carlo influence estimation with common random numbers (S12).

``sigma(S)`` is estimated as the mean activated count over a *fixed block
of trial seeds*. Reusing the block across every evaluation inside one
greedy/CELF run (common random numbers) is both the standard variance-
reduction trick and what makes the IM layer exactly testable: under the
live-edge coupling, the IC estimate with fixed coins is a bona fide
monotone submodular set function, so lazy (CELF) and plain greedy must
select identical seed sets (asserted in tests).
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.diffusion.common import validate_model
from repro.diffusion.csr_engine import CSREngine
from repro.diffusion.rng import splitmix64_py
from repro.graphs.csr import CSRGraph


def trial_seed_block(base_seed: int, n_trials: int) -> np.ndarray:
    """Deterministic block of distinct 63-bit trial seeds.

    Hash-derived (splitmix64) so disjoint blocks never collide for
    different ``base_seed`` values, keeping Monte-Carlo batches
    independent across experiments. Block ``b`` hashes the counters
    ``b * 2**20 + i``, so a block holds at most ``2**20`` trials.
    """
    if not 0 <= n_trials <= 1 << 20:
        raise ValueError(f"n_trials must be in [0, 2**20], got {n_trials}")
    return np.asarray(
        [splitmix64_py((base_seed << 20) + i) >> 1 for i in range(n_trials)],
        dtype=np.int64,
    )


def estimate_spread(engine, seeds, trial_seeds) -> float:
    """Mean activated count over ``trial_seeds`` using a local engine.

    Engines exposing a batched ``run_many`` (the CSR kernel) evaluate all
    trials in one cross-trial vectorized BFS; the interpreted baselines
    loop — that difference is precisely what Table 2 measures.
    """
    if hasattr(engine, "spread"):  # SparkTrialEngine
        return float(engine.spread(seeds, trial_seeds))
    if hasattr(engine, "run_many"):
        return float(engine.run_many(seeds, trial_seeds).mean())
    total = 0
    for t in np.asarray(trial_seeds).tolist():
        total += engine.run(seeds, int(t)).num_active
    return total / len(trial_seeds)


def make_sigma(engine, trial_seeds) -> Callable[[Sequence[int]], float]:
    """Bind an engine + CRN trial block into a sigma-hat(S) callable."""
    block = np.asarray(trial_seeds, np.int64)

    def sigma(seed_set: Sequence[int]) -> float:
        if hasattr(engine, "spread"):  # SparkTrialEngine
            return engine.spread(seed_set, block)
        return estimate_spread(engine, seed_set, block)

    return sigma


_GAINS_SCHEMA = StructType(
    [
        StructField("candidate", LongType(), False),
        StructField("sigma_hat", DoubleType(), False),
    ]
)


def marginal_gains_spark(
    spark: SparkSession,
    csr: CSRGraph,
    weights: np.ndarray,
    candidates: Sequence[int],
    trial_seeds,
    *,
    base_seeds: Sequence[int] = (),
    model: str = "ic",
) -> DataFrame:
    """sigma-hat(base_seeds + {c}) for every candidate, in parallel.

    This is CELF's dominant cost — the first pass evaluates every node —
    and it is embarrassingly parallel over candidates, so candidates are
    fanned out with ``mapInPandas`` while each worker runs the CSR kernel
    over the shared CRN trial block. Returns (candidate, sigma_hat).
    """
    model = validate_model(model)
    payload = spark.sparkContext.broadcast(
        {
            "n": csr.n,
            "indptr": csr.indptr,
            "indices": csr.indices,
            "weights": np.asarray(weights, np.float64),
            "base": [int(b) for b in base_seeds],
            "trials": [int(t) for t in np.asarray(trial_seeds).tolist()],
            "model": model,
        }
    )

    def eval_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        p = payload.value
        engine = CSREngine(
            CSRGraph(n=p["n"], indptr=p["indptr"], indices=p["indices"]),
            p["weights"],
            model=p["model"],
        )
        for batch in batches:
            out = []
            for c in batch["candidate"].tolist():
                seeds = sorted(set(p["base"]) | {int(c)})
                out.append(
                    (int(c), float(engine.run_many(seeds, p["trials"]).mean()))
                )
            yield pd.DataFrame(out, columns=["candidate", "sigma_hat"])

    cand_pdf = pd.DataFrame({"candidate": pd.Series([int(c) for c in candidates], dtype="int64")})
    num_part = max(1, min(len(cand_pdf), spark.sparkContext.defaultParallelism))
    return (
        spark.createDataFrame(cand_pdf)
        .repartition(num_part)
        .mapInPandas(eval_partition, _GAINS_SCHEMA)
    )
