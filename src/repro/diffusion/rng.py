"""Deterministic counter-based coin streams (S5 in DESIGN.md).

Every engine — NumPy, pure-Python, NDlib-like, Spark — draws the *same*
uniform for the same ``(stream, trial_seed, id)`` triple, where ``id`` is a
CSR edge id (IC coins, LT live-edge picks) or a node id (LT thresholds).
That turns "all engines implement the same model" into an exact, testable
equality per trial instead of a statistical claim, and it makes Spark
fan-out embarrassingly parallel: no shared RNG state, no seed handshakes,
results independent of partitioning.

The hash is splitmix64 (Steele et al.), applied twice: once to fold
``(stream, trial_seed)`` into a base key, once over ``base + id``. Uniforms
are the standard 53-bit mantissa construction ``(x >> 11) * 2**-53`` in
``[0, 1)``. The NumPy and pure-Python implementations are bit-identical
(property-tested in ``tests/test_rng.py``).
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53

# Stream tags keep coin domains disjoint: an edge id must never collide
# with a node id across uses.
STREAM_IC_COIN = 0x1C0FFEE1C0FFEE01
STREAM_LT_THRESHOLD = 0x7157A6E5D0000002
STREAM_LT_PICK = 0x7157A6E5D0000003


def splitmix64_py(x: int) -> int:
    """Pure-Python splitmix64 finalizer over a 64-bit value."""
    x = (x + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK
    return (x ^ (x >> 31)) & _MASK


# The same constants as uint64 0-d arrays for the vectorized hash: the
# array ops stay uint64, and ufuncs take 0-d arrays faster than scalars.
_GAMMA_U, _MUL1_U, _MUL2_U, _S11, _S27, _S30, _S31 = (
    np.array(k, np.uint64) for k in (_GAMMA, _MUL1, _MUL2, 11, 27, 30, 31)
)


def _as_u64(values) -> np.ndarray:
    """Integers as a fresh uint64 array, wrapped like ``& _MASK``."""
    a = np.asarray(values)
    if a.dtype.kind in "iu":
        return a.astype(np.uint64)
    # Python ints that do not fit one NumPy integer type (or no values).
    return np.array([int(v) & _MASK for v in values], np.uint64)


def _splitmix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over a uint64 array, in place; returns ``x``.

    Array arithmetic on uint64 wraps modulo 2**64 without a warning; only
    NumPy scalar arithmetic checks for overflow, so every step works in
    place on the array (a 0-d input stays a 0-d array).
    """
    x += _GAMMA_U
    t = np.right_shift(x, _S30, out=np.empty_like(x))
    x ^= t
    x *= _MUL1_U
    np.right_shift(x, _S27, out=t)
    x ^= t
    x *= _MUL2_U
    np.right_shift(x, _S31, out=t)
    x ^= t
    return x


def _to_uniform(h: np.ndarray) -> np.ndarray:
    """53-bit uniforms in [0, 1) from hashes (``h`` is overwritten)."""
    h >>= _S11
    u = h.astype(np.float64)
    u *= _INV_2_53
    return u


def base_key(stream: int, trial_seed: int) -> int:
    """Fold (stream, trial_seed) into the per-trial 64-bit base key."""
    return splitmix64_py((stream ^ splitmix64_py(trial_seed & _MASK)) & _MASK)


def uniforms(stream: int, trial_seed: int, ids: np.ndarray) -> np.ndarray:
    """Vectorized uniforms in [0, 1) for an int array of ids."""
    x = _as_u64(ids)
    x += np.uint64(base_key(stream, trial_seed))
    return _to_uniform(_splitmix64_np(x))


def trial_bases(stream: int, trial_seeds) -> np.ndarray:
    """Per-trial base keys as a uint64 array (for cross-trial batching);
    ``trial_bases(s, ts)[k] == base_key(s, ts[k])``."""
    x = _splitmix64_np(_as_u64(trial_seeds))
    x ^= np.uint64(stream)
    return _splitmix64_np(x)


def uniforms_mixed(bases: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Uniforms for (trial, id) pairs given per-pair base keys.

    ``uniforms_mixed(trial_bases(s, ts)[k], ids)`` is bit-identical to
    ``uniforms(s, ts[k], ids)`` — the cross-trial batched kernel flips
    exactly the coins the per-trial kernels flip.
    """
    x = _as_u64(ids)
    x += np.asarray(bases, np.uint64)
    return _to_uniform(_splitmix64_np(x))


class ScalarCoins:
    """Per-trial scalar coin stream for the interpreted engines.

    Precomputes the base key once so the per-draw cost is a single
    splitmix64 round, matching what a tight interpreted loop would do.
    """

    __slots__ = ("_base",)

    def __init__(self, stream: int, trial_seed: int) -> None:
        self._base = base_key(stream, trial_seed)

    def u(self, id_: int) -> float:
        """Uniform in [0, 1) for ``id_``; equals ``uniforms(...)[id_]``."""
        h = splitmix64_py((self._base + id_) & _MASK)
        return (h >> 11) * _INV_2_53
