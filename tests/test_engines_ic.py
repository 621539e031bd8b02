"""IC engine tests: cross-engine exact equality + model semantics (S6-S8)."""
import numpy as np
import pytest

from repro.diffusion import ENGINE_KINDS, make_engine
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi, random_regular, watts_strogatz
from repro.graphs.weights import EWM_NAMES, edge_weights

from tests.helpers import from_edges, line, star, tiny4


def _graphs():
    return {
        "er": build_csr(erdos_renyi(150, 0.04, seed=1)),
        "ws": build_csr(watts_strogatz(120, 6, 0.2, seed=2)),
        "rr": build_csr(random_regular(100, 5, seed=3)),
    }


GRAPHS = _graphs()


@pytest.mark.parametrize("gname", list(GRAPHS))
@pytest.mark.parametrize("ewm", EWM_NAMES)
@pytest.mark.parametrize("trial", [0, 1, 17, 12345])
def test_all_engines_bit_identical(gname, ewm, trial):
    """The headline determinism claim: same coins -> same cascade, every engine."""
    csr = GRAPHS[gname]
    w = edge_weights(csr, ewm, seed=4)
    seeds = [0, 7, 23]
    results = {
        kind: make_engine(kind, csr, w, model="ic").run(seeds, trial)
        for kind in ENGINE_KINDS
    }
    ref = results["csr"]
    for kind in ENGINE_KINDS:
        r = results[kind]
        assert np.array_equal(r.activation_time, ref.activation_time), kind
        assert r.num_iterations == ref.num_iterations, kind


@pytest.mark.parametrize("kind", ENGINE_KINDS)
class TestICSemantics:
    def test_seeds_active_at_time_zero(self, kind):
        csr = GRAPHS["er"]
        w = edge_weights(csr, "WC")
        r = make_engine(kind, csr, w).run([3, 5], 0)
        assert r.activation_time[3] == 0 and r.activation_time[5] == 0

    def test_zero_weights_spread_nothing(self, kind):
        csr = GRAPHS["er"]
        r = make_engine(kind, csr, np.zeros(csr.m)).run([1, 2], 7)
        assert r.num_active == 2
        assert r.num_iterations == 0

    def test_weight_one_floods_component(self, kind):
        csr = line(6)
        r = make_engine(kind, csr, np.ones(csr.m)).run([0], 0)
        assert r.num_active == 6
        assert r.activation_time.tolist() == [0, 1, 2, 3, 4, 5]

    def test_line_from_middle(self, kind):
        csr = line(6)
        r = make_engine(kind, csr, np.ones(csr.m)).run([3], 0)
        # directed path: only downstream nodes activate
        assert r.activation_time.tolist() == [-1, -1, -1, 0, 1, 2]

    def test_star_one_hop(self, kind):
        csr = star(8)
        r = make_engine(kind, csr, np.ones(csr.m)).run([0], 1)
        assert r.num_active == 9
        assert r.num_iterations == 1

    def test_dedupes_seeds(self, kind):
        csr = GRAPHS["er"]
        w = edge_weights(csr, "TV")
        a = make_engine(kind, csr, w).run([4, 4, 4], 9)
        b = make_engine(kind, csr, w).run([4], 9)
        assert np.array_equal(a.activation_time, b.activation_time)

    def test_seed_out_of_range_rejected(self, kind):
        csr = GRAPHS["er"]
        w = edge_weights(csr, "TV")
        with pytest.raises(ValueError):
            make_engine(kind, csr, w).run([csr.n], 0)
        with pytest.raises(ValueError):
            make_engine(kind, csr, w).run([-1], 0)

    def test_empty_seed_set_rejected(self, kind):
        csr = GRAPHS["er"]
        w = edge_weights(csr, "TV")
        with pytest.raises(ValueError):
            make_engine(kind, csr, w).run([], 0)

    def test_deterministic_per_trial(self, kind):
        csr = GRAPHS["ws"]
        w = edge_weights(csr, "UR", seed=1)
        e = make_engine(kind, csr, w)
        a = e.run([0, 1], 42)
        b = e.run([0, 1], 42)
        assert np.array_equal(a.activation_time, b.activation_time)

    def test_different_trials_differ(self, kind):
        csr = GRAPHS["er"]
        w = edge_weights(csr, "WC")
        e = make_engine(kind, csr, w)
        sizes = {e.run([0, 1, 2], t).num_active for t in range(20)}
        assert len(sizes) > 1  # WC cascades vary across trials

    def test_wrong_weight_shape_rejected(self, kind):
        csr = GRAPHS["er"]
        with pytest.raises(ValueError):
            make_engine(kind, csr, np.ones(3))

    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_invalid_weight_values_rejected(self, kind, model, bad):
        csr = GRAPHS["er"]
        w = np.full(csr.m, 0.01)
        w[3] = bad
        with pytest.raises(ValueError, match="finite and in"):
            make_engine(kind, csr, w, model=model)

    def test_unknown_model_rejected(self, kind):
        csr = GRAPHS["er"]
        with pytest.raises(ValueError):
            make_engine(kind, csr, np.ones(csr.m), model="sir")


@pytest.mark.parametrize("trial", range(8))
def test_seed_monotonicity_coupled(trial):
    """With coupled coins, adding seeds never shrinks the activated set."""
    csr = GRAPHS["er"]
    w = edge_weights(csr, "WC")
    e = make_engine("csr", csr, w)
    small = set(e.run([0, 1], trial).active_nodes.tolist())
    big = set(e.run([0, 1, 2, 3], trial).active_nodes.tolist())
    assert small <= big


@pytest.mark.parametrize("trial", range(5))
def test_activation_needs_active_in_neighbor(trial):
    """Observation 1 from the paper: every non-seed activated node has an
    in-neighbor activated exactly one step earlier."""
    csr = GRAPHS["er"]
    w = edge_weights(csr, "UR", seed=2)
    r = make_engine("csr", csr, w).run([0, 1, 2], trial)
    rev = csr.reverse()
    t = r.activation_time
    for v in r.active_nodes.tolist():
        if t[v] == 0:
            continue
        _, srcs = rev.in_edges(v)
        assert any(t[u] == t[v] - 1 for u in srcs.tolist()), v


def test_result_helpers_consistent():
    csr = GRAPHS["er"]
    w = edge_weights(csr, "UR", seed=2)
    r = make_engine("csr", csr, w).run([0, 1], 5)
    fs = r.frontier_sizes()
    assert fs.sum() == r.num_active
    assert fs[0] == 2  # the seeds
    assert len(fs) == r.num_iterations + 1
    cum = r.cumulative_active()
    assert cum[-1] == r.num_active
    assert (np.diff(cum) >= 0).all()


def test_tiny_graph_hand_trace():
    """Single edge with weight w: activation iff coin(edge 0) < w."""
    from repro.diffusion.rng import STREAM_IC_COIN, ScalarCoins

    csr = from_edges(2, [[0, 1]])
    for trial in range(50):
        coin = ScalarCoins(STREAM_IC_COIN, trial).u(0)
        for w, expect in ((0.3, coin < 0.3), (0.9, coin < 0.9)):
            r = make_engine("csr", csr, np.array([w])).run([0], trial)
            assert (r.num_active == 2) == expect
