"""Shared pieces of the three workloads: input seeds and the operation record."""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# The seed the recorded numbers use, and one kept out of tuning for claim
# checks (see README.md).
DEFAULT_SEED = 1
HELDOUT_SEED = 97


def derive(seed: int, label: str) -> int:
    """Input seed for ``label`` (a graph, weights, a trial block) of a run.

    Every generated input takes its own seed from the workload seed and a
    fixed label, so adding an input never shifts the others.
    """
    ss = np.random.SeedSequence([seed, zlib.crc32(label.encode())])
    return int(ss.generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class Op:
    """One closed-loop call of a workload.

    ``kind`` names the operation; repeats of a kind share one median.
    ``fn()`` returns ``(output, trials)``, where ``trials`` counts the
    Monte-Carlo trials the call simulated toward ``mc_trials_per_s``.
    """

    kind: str
    fn: Callable[[], tuple[Any, int]]


class Workload:
    """What ``run.py`` drives: ``setup()`` builds the inputs (timed, and
    repeated ``setup_repeats`` times), ``start()`` does one-off start-up
    that cannot be repeated in one process (``start_s``),
    ``ops()`` lists one round of calls, ``check(outputs)`` returns one
    verdict per call (``outputs[i]`` holds call ``i``'s outputs, round by
    round) and ``layer_metrics`` adds per-layer metrics the spans cannot
    give."""

    setup_repeats = 3

    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer

    def start(self) -> None:
        pass

    def layer_metrics(self, medians: dict, traced_groups: list, start_s: float) -> dict:
        return {}

    def close(self) -> None:
        pass
