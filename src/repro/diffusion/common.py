"""Shared engine types: result record, input validation, model names."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODEL_NAMES = ("ic", "lt")


@dataclass(frozen=True)
class DiffusionResult:
    """Outcome of one diffusion trial.

    Attributes:
        activation_time: ``(n,)`` int32; iteration at which each node
            activated (seeds are 0), or -1 if never activated.
        num_iterations: last iteration index that activated any node
            (0 when only the seeds activate).
    """

    activation_time: np.ndarray
    num_iterations: int

    @property
    def active_nodes(self) -> np.ndarray:
        """Sorted ids of all activated nodes (seeds included)."""
        return np.nonzero(self.activation_time >= 0)[0]

    @property
    def num_active(self) -> int:
        """Total number of activated nodes (seeds included)."""
        return int((self.activation_time >= 0).sum())

    def frontier_sizes(self) -> np.ndarray:
        """Nodes newly activated at each iteration 0..num_iterations."""
        t = self.activation_time
        return np.bincount(t[t >= 0], minlength=self.num_iterations + 1).astype(np.int64)

    def cumulative_active(self) -> np.ndarray:
        """Total active nodes after each iteration 0..num_iterations."""
        return np.cumsum(self.frontier_sizes())


class PerTrialEngine:
    """``run_many`` for the interpreted baselines: one ``run`` per trial.

    Each trial keeps its own interpreted ``run`` — all these engines can
    do, and the reason they are slow — while callers see the same
    ``run_many(seeds, trial_seeds) -> int64[R]`` as the CSR kernel's.
    """

    def run_many(self, seeds, trial_seeds) -> np.ndarray:
        """Activated-node counts, row ``k`` for trial ``trial_seeds[k]``."""
        return np.array(
            [self.run(seeds, t).num_active for t in np.asarray(trial_seeds, np.int64).tolist()],
            np.int64,
        )


def validate_seeds(n: int, seeds) -> np.ndarray:
    """Normalize a seed set: int64, deduplicated, sorted, range-checked."""
    s = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if s.size == 0:
        raise ValueError("seed set must be non-empty")
    if s[0] < 0 or s[-1] >= n:
        raise ValueError(f"seed out of range [0, {n})")
    return s


def validate_weights(csr, weights) -> np.ndarray:
    """Check edge weights are ``(m,)`` probabilities; return them as float64.

    The threshold engines take any such weights. LT's extra condition is
    checked by :func:`validate_lt_weights` where a result depends on it.
    """
    w = np.asarray(weights, np.float64)
    if w.shape != (csr.m,):
        raise ValueError(f"weights must be ({csr.m},), got {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any() or (w > 1).any():
        raise ValueError("weights must be finite and in [0, 1]")
    return w


def validate_lt_weights(csr, weights) -> np.ndarray:
    """:func:`validate_weights`, plus LT's live-edge condition: each node's
    incoming weights sum to at most 1, up to 1e-9 of float error (see
    :func:`repro.graphs.weights.normalize_for_lt`)."""
    w = validate_weights(csr, weights)
    incoming = np.bincount(csr.indices, weights=w, minlength=csr.n)
    over = np.flatnonzero(incoming > 1.0 + 1e-9)
    if over.size:
        v = int(over[0])
        raise ValueError(f"LT weights into node {v} sum to {incoming[v]} > 1")
    return w


def validate_model(model: str) -> str:
    """Check the model name is 'ic' or 'lt'."""
    if model not in MODEL_NAMES:
        raise ValueError(f"model must be one of {MODEL_NAMES}, got {model!r}")
    return model
