"""Spark trial fan-out tests (S9): bit-equality with local engines."""
import numpy as np
import pytest

from repro.diffusion import make_engine
from repro.diffusion.spark_engine import SparkTrialEngine, run_trials_df
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import edge_weights, normalize_for_lt
from repro.im.spread import estimate_spread, trial_seed_block


@pytest.fixture(scope="module")
def workload():
    csr = build_csr(erdos_renyi(200, 0.03, seed=1))
    return csr, edge_weights(csr, "WC"), [0, 3, 7], trial_seed_block(0, 24)


def test_summary_matches_local_engine_per_trial(spark, workload):
    csr, w, seeds, block = workload
    local = make_engine("csr", csr, w, model="ic")
    pdf = run_trials_df(spark, csr, w, seeds, block, model="ic").toPandas()
    assert len(pdf) == len(block)
    for t, na, ni in zip(pdf["trial"], pdf["num_active"], pdf["num_iterations"]):
        r = local.run(seeds, int(t))
        assert r.num_active == na
        assert r.num_iterations == ni


def test_lt_summary_matches_local(spark, workload):
    csr, w, seeds, block = workload
    wlt = normalize_for_lt(csr, w)
    local = make_engine("csr", csr, wlt, model="lt")
    pdf = run_trials_df(spark, csr, wlt, seeds, block[:10], model="lt").toPandas()
    for t, na in zip(pdf["trial"], pdf["num_active"]):
        assert local.run(seeds, int(t)).num_active == na


def test_activations_output_matches_local(spark, workload):
    csr, w, seeds, block = workload
    local = make_engine("csr", csr, w, model="ic")
    act = (
        run_trials_df(spark, csr, w, seeds, block[:6], output="activations")
        .toPandas()
        .sort_values(["trial", "node"])
    )
    for t in block[:6].tolist():
        r = local.run(seeds, int(t))
        sub = act[act.trial == t]
        assert np.array_equal(sub["node"].to_numpy(), r.active_nodes)
        assert np.array_equal(
            sub["time"].to_numpy(), r.activation_time[r.active_nodes]
        )


def test_results_independent_of_partitioning(spark, workload):
    """Counter-based coins: the partition layout cannot change results."""
    csr, w, seeds, block = workload
    a = (
        run_trials_df(spark, csr, w, seeds, block)
        .toPandas()
        .sort_values("trial")
        .reset_index(drop=True)
    )
    b = (
        run_trials_df(spark, csr, w, seeds, block)
        .toPandas()
        .sort_values("trial")
        .reset_index(drop=True)
    )
    assert a.equals(b)


def test_spread_is_mean_num_active(spark, workload):
    csr, w, seeds, block = workload
    eng = SparkTrialEngine(spark, csr, w, model="ic")
    pdf = run_trials_df(spark, csr, w, seeds, block).toPandas()
    assert estimate_spread(eng, seeds, block) == pytest.approx(pdf["num_active"].mean())


def test_invalid_output_mode_rejected(spark, workload):
    csr, w, seeds, block = workload
    with pytest.raises(ValueError):
        run_trials_df(spark, csr, w, seeds, block, output="bogus")


def test_invalid_seeds_rejected_eagerly(spark, workload):
    csr, w, _, block = workload
    with pytest.raises(ValueError):
        run_trials_df(spark, csr, w, [csr.n + 1], block)


def test_invalid_weights_rejected_eagerly(spark, workload):
    csr, w, seeds, block = workload
    with pytest.raises(ValueError):
        run_trials_df(spark, csr, w + 1.0, seeds, block)


def test_summary_schema(spark, workload):
    csr, w, seeds, block = workload
    df = run_trials_df(spark, csr, w, seeds, block[:2])
    assert [f.name for f in df.schema.fields] == [
        "trial",
        "num_active",
        "num_iterations",
    ]
