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

from repro.diffusion.common import validate_model, validate_seeds
from repro.diffusion.csr_engine import CSREngine
from repro.diffusion.rng import splitmix64_py
from repro.diffusion.spark_engine import _fan_out
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


def _crn_block(trial_seeds) -> np.ndarray:
    """The CRN trial block as int64; an empty block has no mean."""
    block = np.asarray(trial_seeds, np.int64)
    if block.size == 0:
        raise ValueError("trial block must be non-empty")
    return block


def estimate_spread(engine, seeds, trial_seeds) -> float:
    """Mean activated count of ``engine.run_many`` over ``trial_seeds``.

    The CSR kernel evaluates all trials in one cross-trial vectorized BFS;
    the interpreted baselines loop trial by trial — that difference is
    precisely what Table 2 measures.
    """
    return float(engine.run_many(seeds, _crn_block(trial_seeds)).mean())


def make_sigma(engine, trial_seeds) -> Callable[[Sequence[int]], float]:
    """Bind an engine + CRN trial block into a sigma-hat(S) callable."""
    block = _crn_block(trial_seeds)

    def sigma(seed_set: Sequence[int]) -> float:
        return float(engine.run_many(seed_set, block).mean())

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
    """sigma-hat(base_seeds + {c}) for every distinct candidate, in parallel.

    This is CELF's dominant cost — the first pass evaluates every node —
    and it is embarrassingly parallel over candidates, so candidates are
    fanned out over Spark partitions while each worker runs the CSR kernel
    over the shared CRN trial block. Seeds and the block are checked here,
    on the driver. Returns (candidate, sigma_hat).
    """
    model = validate_model(model)
    block = _crn_block(trial_seeds)
    candidates = validate_seeds(csr.n, candidates)
    base = validate_seeds(csr.n, base_seeds) if len(base_seeds) else np.empty(0, np.int64)

    def evaluate(engine: CSREngine, cands: np.ndarray) -> Iterator[pd.DataFrame]:
        sigma_hat = [engine.run_many(np.append(base, c), block).mean() for c in cands]
        yield pd.DataFrame({"candidate": cands, "sigma_hat": sigma_hat})

    return _fan_out(spark, csr, weights, model, candidates, evaluate, _GAINS_SCHEMA)
