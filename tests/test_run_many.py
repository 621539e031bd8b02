"""Tests for the cross-trial batched CSR kernel (IC and LT), its budgets and
its RNG."""
import numpy as np
import pytest
from pyspark import cloudpickle

from repro.diffusion import csr_engine, make_engine
from repro.diffusion.spark_engine import run_trials_df
from repro.diffusion.rng import (
    STREAM_IC_COIN,
    STREAM_LT_THRESHOLD,
    ScalarCoins,
    trial_bases,
    uniforms,
    uniforms_mixed,
)
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi, random_regular
from repro.graphs.weights import EWM_NAMES, edge_weights, normalize_for_lt
from repro.im.spread import trial_seed_block

from tests.helpers import from_edges, line, star

GRAPHS = {
    "er": build_csr(erdos_renyi(150, 0.04, seed=1)),
    "rr": build_csr(random_regular(100, 5, seed=3)),
}


class TestUniformsMixed:
    def test_matches_per_trial_uniforms(self):
        trials = [3, 99, 12345]
        bases = trial_bases(STREAM_IC_COIN, trials)
        ids = np.arange(200, dtype=np.int64)
        for k, t in enumerate(trials):
            mixed = uniforms_mixed(np.full(200, bases[k], np.uint64), ids)
            assert np.array_equal(mixed, uniforms(STREAM_IC_COIN, t, ids))

    def test_interleaved_pairs(self):
        trials = [7, 8]
        bases = trial_bases(STREAM_IC_COIN, trials)
        pair_trial = np.array([0, 1, 0, 1])
        ids = np.array([10, 10, 11, 11])
        got = uniforms_mixed(bases[pair_trial], ids)
        assert got[0] == uniforms(STREAM_IC_COIN, 7, np.array([10]))[0]
        assert got[1] == uniforms(STREAM_IC_COIN, 8, np.array([10]))[0]
        assert got[2] == uniforms(STREAM_IC_COIN, 7, np.array([11]))[0]
        assert got[3] == uniforms(STREAM_IC_COIN, 8, np.array([11]))[0]


@pytest.mark.parametrize("gname", list(GRAPHS))
@pytest.mark.parametrize("ewm", EWM_NAMES)
def test_run_many_equals_sequential_ic(gname, ewm):
    """Batched kernel counts == per-trial kernel counts, bit-for-bit."""
    csr = GRAPHS[gname]
    w = edge_weights(csr, ewm, seed=4)
    e = make_engine("csr", csr, w)
    block = trial_seed_block(5, 60)
    batched = e.run_many([0, 7, 23], block)
    seq = np.array([e.run([0, 7, 23], int(t)).num_active for t in block.tolist()])
    assert np.array_equal(batched, seq)


@pytest.mark.parametrize("ewm", EWM_NAMES)
def test_run_many_single_seed(ewm):
    """The CELF regime: single-seed spreads, small batched frontiers."""
    csr = GRAPHS["rr"]
    w = edge_weights(csr, ewm, seed=4)
    e = make_engine("csr", csr, w)
    block = trial_seed_block(6, 40)
    batched = e.run_many([13], block)
    seq = np.array([e.run([13], int(t)).num_active for t in block.tolist()])
    assert np.array_equal(batched, seq)


def test_run_many_flooding_regime():
    """Weight-1 graph floods every trial."""
    csr = line(40)
    e = make_engine("csr", csr, np.ones(csr.m))
    block = trial_seed_block(7, 10)
    assert (e.run_many([0], block) == 40).all()


def test_run_many_batched_regime_small_batches(monkeypatch):
    """A state budget of 4 trials per batch splits the block 4+4+...+2."""
    csr = GRAPHS["er"]
    w = edge_weights(csr, "TV", seed=4)
    e = make_engine("csr", csr, w)
    block = trial_seed_block(8, 30)
    b = e.run_many([2], block)
    monkeypatch.setattr(csr_engine, "STATE_CELLS", 4 * csr.n)
    assert [len(blk) for _, blk in e.activation_times([2], block)] == [4] * 7 + [2]
    assert np.array_equal(e.run_many([2], block), b)


def test_run_many_equals_sequential_lt():
    csr = GRAPHS["er"]
    w = normalize_for_lt(csr, edge_weights(csr, "UR", seed=1))
    e = make_engine("csr", csr, w, model="lt")
    block = trial_seed_block(9, 25)
    batched = e.run_many([0, 3], block)
    seq = np.array([e.run([0, 3], int(t)).num_active for t in block.tolist()])
    assert np.array_equal(batched, seq)


def test_run_many_short_blocks():
    csr = GRAPHS["er"]
    w = edge_weights(csr, "WC")
    e = make_engine("csr", csr, w)
    for k in (1, 2, 3):
        block = trial_seed_block(10, k)
        seq = np.array([e.run([1], int(t)).num_active for t in block.tolist()])
        assert np.array_equal(e.run_many([1], block), seq)


def test_run_many_validates_seeds():
    csr = GRAPHS["er"]
    w = edge_weights(csr, "WC")
    e = make_engine("csr", csr, w)
    with pytest.raises(ValueError):
        e.run_many([csr.n], trial_seed_block(0, 3))


def test_run_many_star_exact_distribution():
    """Star hub with p=0.5: counts are 1 + Binomial(leaves, 0.5)."""
    csr = star(20)
    e = make_engine("csr", csr, np.full(csr.m, 0.5))
    counts = e.run_many([0], trial_seed_block(11, 2000))
    assert counts.min() >= 1 and counts.max() <= 21
    assert abs(counts.mean() - 11.0) < 0.35


@pytest.fixture
def tiny_budget(monkeypatch):
    """Blocks of at most 3 trials and pieces of at most 8 edges, so blocks
    hold 1-3 trials and every BFS round splits into many pieces. Spark's
    Python workers import the kernel afresh, so the module is pickled by
    value with each task while the budgets are patched."""
    monkeypatch.setattr(csr_engine, "STATE_CELLS", 3 * GRAPHS["er"].n)
    monkeypatch.setattr(csr_engine, "EDGE_PIECE", 8)
    cloudpickle.register_pickle_by_value(csr_engine)
    yield
    cloudpickle.unregister_pickle_by_value(csr_engine)


def _pure_runs(csr, w, seeds, block, model="ic"):
    pure = make_engine("pure_python", csr, w, model=model)
    return [pure.run(seeds, int(t)) for t in block]


def _weights(csr, ewm, model):
    w = edge_weights(csr, ewm, seed=4)
    return normalize_for_lt(csr, w) if model == "lt" else w


# The IC cases keep their plain EWM ids.
@pytest.mark.parametrize(
    "model, ewm",
    [pytest.param("ic", ewm, id=ewm) for ewm in EWM_NAMES]
    + [pytest.param("lt", ewm, id=f"lt-{ewm}") for ewm in EWM_NAMES],
)
def test_tiny_budget_bit_equal_to_pure_python(tiny_budget, model, ewm):
    csr = GRAPHS["er"]
    w = _weights(csr, ewm, model)
    e = make_engine("csr", csr, w, model=model)
    block = trial_seed_block(12, 10)
    want = _pure_runs(csr, w, [0, 7, 23], block.tolist(), model)
    assert [len(b) for _, b in e.activation_times([0, 7, 23], block)] == [3, 3, 3, 1]
    assert e.run_many([0, 7, 23], block).tolist() == [r.num_active for r in want]
    for t, r in zip(block.tolist(), want):
        got = e.run([0, 7, 23], t)
        assert np.array_equal(got.activation_time, r.activation_time)
        assert got.num_iterations == r.num_iterations


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_tiny_budget_spark_workers_bit_equal_to_pure_python(tiny_budget, spark, model):
    csr = GRAPHS["er"]
    w = _weights(csr, "UR", model)
    block = trial_seed_block(13, 10)
    want = _pure_runs(csr, w, [0, 7], block.tolist(), model)
    summary = (
        run_trials_df(spark, csr, w, [0, 7], block, model=model).toPandas().sort_values("trial")
    )
    assert summary["trial"].tolist() == sorted(block.tolist())
    by_trial = dict(zip(block.tolist(), want))
    for t, na, ni in zip(summary["trial"], summary["num_active"], summary["num_iterations"]):
        assert (na, ni) == (by_trial[t].num_active, by_trial[t].num_iterations)
    act = run_trials_df(
        spark, csr, w, [0, 7], block, model=model, output="activations"
    ).toPandas()
    got = {(t, v, tm) for t, v, tm in act.itertuples(index=False)}
    exp = {
        (t, int(v), int(r.activation_time[v]))
        for t, r in by_trial.items()
        for v in r.active_nodes
    }
    assert len(act) == len(got) and got == exp


def test_lt_threshold_crossed_across_pieces(monkeypatch):
    """With one edge per piece, an in-star's sink reaches its threshold
    only after pushes from several pieces of round 1, and activates in
    that round all the same, as in pure_python."""
    monkeypatch.setattr(csr_engine, "EDGE_PIECE", 1)
    csr = from_edges(6, [[0, 4], [1, 4], [2, 4], [3, 4], [4, 5]])
    w = np.array([0.25, 0.25, 0.25, 0.25, 1.0])
    block = [
        t
        for t in trial_seed_block(14, 40).tolist()
        if ScalarCoins(STREAM_LT_THRESHOLD, t).u(4) > 0.5
    ]
    assert len(block) >= 10
    e = make_engine("csr", csr, w, model="lt")
    for t, r in zip(block, _pure_runs(csr, w, [0, 1, 2, 3], block, "lt")):
        got = e.run([0, 1, 2, 3], t).activation_time.tolist()
        assert got == r.activation_time.tolist() == [0, 0, 0, 0, 1, 2]
    assert e.run_many([0, 1, 2, 3], block).tolist() == [6] * len(block)
