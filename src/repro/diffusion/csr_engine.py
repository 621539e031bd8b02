"""Vectorized NumPy CSR engine (S6) — the CyNetDiff-kernel analog.

Implements the paper's Observation 1: newly activated nodes can only come
from out-neighbors of the previous frontier, so each iteration gathers the
CSR slices of the frontier (a fully vectorized ragged gather) and touches
work proportional to the edges incident to active nodes, not to |V| or |E|.
Compiled NumPy vector loops stand in for CyNetDiff's compiled Cython scalar
loops; the algorithm and data layout are the paper's.

IC and LT run as one BFS over (trial, node) pairs for a whole batch of
trials: cross-trial vectorization is how a NumPy kernel recovers the
throughput a compiled scalar kernel gets for free. The models differ in one
step per piece of a round: an IC edge coin, or an LT weight push and
threshold test. ``STATE_CELLS`` caps the activation cells of one batch (so
trials per batch shrink as graphs grow) and ``EDGE_PIECE`` the out-edges
gathered at once within a round (so flooding cascades stay cache-sized).
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
# ``uniforms`` is unused here but stays importable: perfbench/tracing.py
# wraps ``csr_engine.uniforms`` by name.
from repro.diffusion.rng import (  # noqa: F401
    STREAM_IC_COIN,
    STREAM_LT_THRESHOLD,
    trial_bases,
    uniforms,
    uniforms_mixed,
)
from repro.graphs.csr import CSRGraph

# Activation cells (trials x nodes) per batch: 16 MiB of int32 state, as
# much again for the dedup owner array and, for LT, 32 MiB of float64
# pushed-weight sums.
STATE_CELLS = 1 << 22
# Out-edges gathered per piece of a BFS round: on a 4-core Xeon, Table 1's
# FB UR cell (100 trials) took 0.42-0.50 s with pieces of 2**13-2**16 edges,
# within noise of each other, and 1.02 s unpieced. A later piece sees the
# earlier pieces' activations, which only drops pushes into active nodes;
# and rounded sums of non-negative LT weights only grow, so a node whose
# partial sum reaches its threshold would reach it with the full sum too.
# The pieces never change a result.
EDGE_PIECE = 1 << 14


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` over ``zip(starts, counts)``
    (at least one pair), as one flat int64 array built without a
    Python-level loop."""
    ends = counts.cumsum()
    return np.arange(ends[-1], dtype=np.int64) + (starts - ends + counts).repeat(counts)


def _unique_cells(cells: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """One copy of each of ``cells`` via scratch ``owner``: of repeated
    writes to a cell exactly one lands, whichever order NumPy uses."""
    k = np.arange(cells.size, dtype=np.int32)
    owner[cells] = k
    return cells[owner[cells] == k]


class CSREngine:
    """IC/LT simulator over CSR with vectorized frontier BFS.

    Construction (graph + weights capture) is the analog of CyNetDiff's
    model-class instantiation and is excluded from per-trial timings, as
    in the paper's benchmarks. Every entry point, for both models, runs
    the batched kernel (:meth:`activation_times`).
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
        stream = STREAM_IC_COIN if self.model == "ic" else STREAM_LT_THRESHOLD
        bases = trial_bases(stream, trial_seeds)
        step = max(1, min(bases.size, STATE_CELLS // self.csr.n))
        for lo in range(0, bases.size, step):
            yield lo, self._block(seeds, bases[lo : lo + step])

    def _block(self, seeds: np.ndarray, bases: np.ndarray) -> np.ndarray:
        """One BFS over (trial, node) pairs for the trials of ``bases``."""
        indptr, indices, w, n = self.csr.indptr, self.csr.indices, self.weights, self.csr.n
        lt = self.model == "lt"
        T = bases.size
        # Flat state: cell trial*n + node holds the node's activation time
        # and, for LT, the weight pushed into it so far.
        act = np.full(T * n, -1, np.int32)
        owner = np.empty(T * n, np.int32)
        acc = np.zeros(T * n, np.float64) if lt else None
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
                if lt:
                    # Push into inactive targets (np.add.at adds in pair
                    # order), then test each target once against its threshold.
                    tgt = pair_trial * n + indices[eids]
                    live = act[tgt] < 0
                    tgt = tgt[live]
                    np.add.at(acc, tgt, w[eids[live]])
                    tgt = _unique_cells(tgt, owner)
                    trial, node = np.divmod(tgt, n)
                    tgt = tgt[acc[tgt] >= uniforms_mixed(bases[trial], node)]
                else:
                    hit = (uniforms_mixed(bases[pair_trial], eids) < w[eids]).nonzero()[0]
                    tgt = pair_trial[hit] * n + indices[eids[hit]]
                    tgt = _unique_cells(tgt[act[tgt] < 0], owner)
                act[tgt] = t + 1
                pieces.append(tgt)
                lo = hi
            frontier = np.concatenate(pieces)
            if lt:
                # Sorted sources, then CSR edge order: each node's incoming
                # weights add up in the order the baselines add them.
                frontier.sort()
            if frontier.size:
                t += 1
        return act.reshape(T, n)
