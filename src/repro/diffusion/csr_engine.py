"""Vectorized NumPy CSR engine (S6) — the CyNetDiff-kernel analog.

Implements the paper's Observation 1: newly activated nodes can only come
from out-neighbors of the previous frontier, so each iteration gathers the
CSR slices of the frontier (a fully vectorized ragged gather) and touches
work proportional to the edges incident to active nodes, not to |V| or |E|.
Compiled NumPy vector loops stand in for CyNetDiff's compiled Cython scalar
loops; the algorithm and data layout are the paper's.

IC runs as one BFS over (trial, node) pairs for a whole batch of trials:
cross-trial vectorization is how a NumPy kernel recovers the throughput a
compiled scalar kernel gets for free. Two module budgets bound its working
set: ``STATE_CELLS`` caps the activation cells of one batch (so trials per
batch shrink as graphs grow) and ``EDGE_PIECE`` caps the out-edges gathered
at once within a BFS round (so flooding cascades stay cache-sized).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.diffusion.common import (
    DiffusionResult,
    validate_model,
    validate_seeds,
    validate_weights,
)
from repro.diffusion.rng import (
    STREAM_IC_COIN,
    STREAM_LT_THRESHOLD,
    trial_bases,
    uniforms,
    uniforms_mixed,
)
from repro.graphs.csr import CSRGraph

# int32 activation cells (trials x nodes) per batch: 16 MiB of state, plus
# as much again for the dedup owner array.
STATE_CELLS = 1 << 22
# Out-edges gathered per piece of a BFS round, so a flooding round's
# temporaries stay cache-sized: on a 4-core Xeon, Table 1's FB UR cell
# (100 trials) took 0.42-0.50 s with pieces of 2**13-2**16 edges, within
# noise of each other, and 1.02 s unpieced. A later piece sees the earlier
# pieces' activations, which only drops duplicate targets, so the pieces
# never change a result.
EDGE_PIECE = 1 << 14


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` over ``zip(starts, counts)``
    (at least one pair), as one flat int64 array built without a
    Python-level loop."""
    ends = counts.cumsum()
    return np.arange(ends[-1], dtype=np.int64) + (starts - ends + counts).repeat(counts)


class CSREngine:
    """IC/LT simulator over CSR with vectorized frontier BFS.

    Construction (graph + weights capture) is the analog of CyNetDiff's
    model-class instantiation and is excluded from per-trial timings, as
    in the paper's benchmarks. Every IC entry point runs the batched
    kernel (:meth:`activation_times`); LT runs one trial at a time.
    """

    kind = "csr"

    def __init__(self, csr: CSRGraph, weights: np.ndarray, *, model: str = "ic") -> None:
        self.csr = csr
        self.weights = validate_weights(csr, weights)
        self.model = validate_model(model)

    def run(self, seeds, trial_seed: int) -> DiffusionResult:
        """Run one trial; deterministic in ``trial_seed``."""
        _, block = next(self.activation_times(seeds, [trial_seed]))
        return DiffusionResult(activation_time=block[0], num_iterations=int(block[0].max()))

    def run_many(self, seeds, trial_seeds) -> np.ndarray:
        """Activated-node counts for many trials, one per ``trial_seeds``.

        Every trial's count is bit-identical to
        ``run(seeds, trial_seeds[k]).num_active`` (asserted in tests).
        """
        out = np.empty(len(trial_seeds), np.int64)
        for lo, block in self.activation_times(seeds, trial_seeds):
            out[lo : lo + len(block)] = (block >= 0).sum(axis=1)
        return out

    def activation_times(self, seeds, trial_seeds) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(lo, block)`` covering ``trial_seeds`` in order.

        ``block`` is an int32 ``[T, n]`` array whose row ``k`` is the
        activation times of trial ``trial_seeds[lo + k]`` (-1: never
        active). A trial's activated count is ``(row >= 0).sum()`` and its
        number of iterations ``row.max()``.
        """
        seeds = validate_seeds(self.csr.n, seeds)
        if self.model != "ic":
            for k, t in enumerate(trial_seeds):
                yield k, self._run_lt(seeds, int(t)).activation_time[None]
            return
        bases = trial_bases(STREAM_IC_COIN, trial_seeds)
        step = max(1, min(bases.size, STATE_CELLS // self.csr.n))
        for lo in range(0, bases.size, step):
            yield lo, self._ic_block(seeds, bases[lo : lo + step])

    def _ic_block(self, seeds: np.ndarray, bases: np.ndarray) -> np.ndarray:
        """One IC BFS over (trial, node) pairs for the trials of ``bases``."""
        indptr, indices, w, n = self.csr.indptr, self.csr.indices, self.weights, self.csr.n
        T = bases.size
        # Flat state: cell trial*n + node holds the node's activation time.
        act = np.full(T * n, -1, np.int32)
        owner = np.empty(T * n, np.int32)
        frontier = (np.arange(T, dtype=np.int64)[:, None] * n + seeds).ravel()
        act[frontier] = 0
        t = 0
        while frontier.size:
            f_trial, f_node = np.divmod(frontier, n)
            starts = indptr[f_node]
            counts = indptr[f_node + 1] - starts
            ends = counts.cumsum()
            pieces = []
            lo = 0
            while lo < frontier.size:
                # Widest run of frontier pairs within EDGE_PIECE edges (at
                # least one pair, whatever its degree).
                hi = int(ends.searchsorted(ends[lo] - counts[lo] + EDGE_PIECE, "right"))
                hi = max(hi, lo + 1)
                eids = _ragged_arange(starts[lo:hi], counts[lo:hi])
                pair_trial = f_trial[lo:hi].repeat(counts[lo:hi])
                hit = (uniforms_mixed(bases[pair_trial], eids) < w[eids]).nonzero()[0]
                tgt = pair_trial[hit] * n + indices[eids[hit]]
                tgt = tgt[act[tgt] < 0]
                # Keep one copy of each target: of repeated writes to a
                # cell exactly one lands, whichever order NumPy uses.
                k = np.arange(tgt.size, dtype=np.int32)
                owner[tgt] = k
                tgt = tgt[owner[tgt] == k]
                act[tgt] = t + 1
                pieces.append(tgt)
                lo = hi
            frontier = np.concatenate(pieces)
            if frontier.size:
                t += 1
        return act.reshape(T, n)

    def _run_lt(self, seeds: np.ndarray, trial_seed: int) -> DiffusionResult:
        csr, w = self.csr, self.weights
        act_time = np.full(csr.n, -1, np.int32)
        act_time[seeds] = 0
        # Push-based LT: when u activates we push w(u->v) into acc[v] once
        # (each source activates at most once), then compare against the
        # node's threshold. Thresholds are coin-stream uniforms keyed by
        # node id, so every engine draws the same theta_v.
        acc = np.zeros(csr.n, np.float64)
        frontier, t = seeds, 0
        while frontier.size:
            starts = csr.indptr[frontier]
            eids = _ragged_arange(starts, csr.indptr[frontier + 1] - starts)
            if eids.size == 0:
                break
            targets_all = csr.indices[eids]
            live = act_time[targets_all] < 0
            eids, targets_all = eids[live], targets_all[live]
            np.add.at(acc, targets_all, w[eids])
            cand = np.unique(targets_all)
            if cand.size == 0:
                break
            theta = uniforms(STREAM_LT_THRESHOLD, trial_seed, cand)
            newly = cand[acc[cand] >= theta]
            if newly.size == 0:
                break
            t += 1
            act_time[newly] = t
            frontier = newly
        return DiffusionResult(activation_time=act_time, num_iterations=t)
