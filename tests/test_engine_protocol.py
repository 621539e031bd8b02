"""One engine protocol: every engine answers ``run_many(seeds, trial_seeds)``
with int64 counts aligned to the trial block, and every spread estimator
rejects an empty block the same way."""
import numpy as np
import pytest

from repro.diffusion import ENGINE_KINDS, make_engine
from repro.diffusion.spark_engine import SparkTrialEngine
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights, normalize_for_lt
from repro.im.spread import estimate_spread, make_sigma, marginal_gains_spark, trial_seed_block

ALL_KINDS = (*ENGINE_KINDS, "spark")
CSR = build_csr(erdos_renyi(60, 0.08, seed=5))
SEEDS = [2, 9]


def _engine(request, kind, weights, model):
    if kind == "spark":
        return SparkTrialEngine(request.getfixturevalue("spark"), CSR, weights, model=model)
    return make_engine(kind, CSR, weights, model=model)


def _weights(model):
    w = edge_weights(CSR, "WC")
    return normalize_for_lt(CSR, w) if model == "lt" else w


@pytest.mark.parametrize("model", ["ic", "lt"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_run_many_aligned_with_trial_block(request, kind, model):
    w = _weights(model)
    t = trial_seed_block(4, 5)
    # Unsorted, with trial t[1] repeated: row k must still be trial block[k].
    block = np.array([t[3], t[1], t[4], t[1], t[0], t[2]], np.int64)
    counts = _engine(request, kind, w, model).run_many(SEEDS, block)
    csr_engine = make_engine("csr", CSR, w, model=model)
    assert counts.dtype == np.int64
    assert counts.shape == (len(block),)
    assert counts.tolist() == [csr_engine.run(SEEDS, int(ts)).num_active for ts in block]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_empty_trial_block_rejected(request, kind):
    engine = _engine(request, kind, _weights("ic"), "ic")
    with pytest.raises(ValueError, match="trial block"):
        estimate_spread(engine, [0], [])
    with pytest.raises(ValueError, match="trial block"):
        make_sigma(engine, [])


def test_empty_trial_block_rejected_by_spark_gains(spark):
    with pytest.raises(ValueError, match="trial block"):
        marginal_gains_spark(spark, CSR, _weights("ic"), [0, 1], [])
