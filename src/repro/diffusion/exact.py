"""Brute-force exact influence (S11) — ground truth for statistical tests.

Both the IC and LT models admit a *live-edge* formulation (Kempe et al.):

* **IC**: each directed edge is independently live with probability equal
  to its weight; activated nodes are exactly those reachable from the
  seed set through live edges.
* **LT**: each node independently picks at most one incoming edge — edge
  ``e`` into ``v`` with probability ``w_e``, none with probability
  ``1 - sum``; activated nodes are again the reachable set.

On tiny graphs we enumerate every live-edge outcome with its probability
and compute sigma(S) and per-node activation probabilities exactly. Used
to validate every Monte-Carlo engine within binomial confidence bounds.
"""
from __future__ import annotations

import itertools

import numpy as np

from repro.diffusion.common import validate_lt_weights
from repro.graphs.csr import CSRGraph


def reachable(n: int, live_edges: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Boolean reachable-set from ``seeds`` over directed ``live_edges``."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in np.asarray(live_edges).reshape(-1, 2):
        adj[int(u)].append(int(v))
    seen = np.zeros(n, bool)
    stack = [int(s) for s in seeds]
    seen[stack] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def exact_ic(csr: CSRGraph, weights: np.ndarray, seeds) -> tuple[float, np.ndarray]:
    """Exact (sigma, per-node activation probability) for IC.

    Enumerates all 2^m live-edge subsets; only feasible for csr.m <= ~16.
    """
    if csr.m > 16:
        raise ValueError(f"exact_ic is 2^m; m={csr.m} too large")
    edges = csr.edge_array()
    seeds = np.asarray(seeds, np.int64)
    sigma = 0.0
    p_active = np.zeros(csr.n, np.float64)
    for mask in range(1 << csr.m):
        bits = np.array([(mask >> e) & 1 for e in range(csr.m)], bool)
        prob = float(np.prod(np.where(bits, weights, 1.0 - weights)))
        if prob == 0.0:
            continue
        seen = reachable(csr.n, edges[bits], seeds)
        sigma += prob * seen.sum()
        p_active += prob * seen
    return sigma, p_active


def exact_lt(csr: CSRGraph, weights: np.ndarray, seeds) -> tuple[float, np.ndarray]:
    """Exact (sigma, per-node activation probability) for LT.

    Enumerates the product over nodes of (in_degree + 1) live-edge picks;
    feasible when that product is <= ~200k. Requires incoming weights to
    sum to <= 1 per node (use ``normalize_for_lt``); raises otherwise.
    """
    weights = validate_lt_weights(csr, weights)
    rev = csr.reverse()
    seeds = np.asarray(seeds, np.int64)
    choices: list[list[tuple[float, tuple[int, int] | None]]] = []
    total = 1
    for v in range(csr.n):
        eids, srcs = rev.in_edges(v)
        opts: list[tuple[float, tuple[int, int] | None]] = []
        s = 0.0
        for eid, u in zip(eids.tolist(), srcs.tolist()):
            w = float(weights[eid])
            opts.append((w, (u, v)))
            s += w
        opts.append((max(0.0, 1.0 - s), None))
        choices.append(opts)
        total *= len(opts)
    if total > 200_000:
        raise ValueError(f"exact_lt outcome space {total} too large")
    sigma = 0.0
    p_active = np.zeros(csr.n, np.float64)
    for combo in itertools.product(*choices):
        prob = 1.0
        live = []
        for w, edge in combo:
            prob *= w
            if edge is not None:
                live.append(edge)
        if prob == 0.0:
            continue
        arr = np.asarray(live, np.int64).reshape(-1, 2)
        seen = reachable(csr.n, arr, seeds)
        sigma += prob * seen.sum()
        p_active += prob * seen
    return sigma, p_active


def exact_sigma(csr: CSRGraph, weights: np.ndarray, seeds, model: str) -> float:
    """Exact expected influence for either model (tiny graphs only)."""
    fn = exact_ic if model == "ic" else exact_lt
    return fn(csr, weights, seeds)[0]
