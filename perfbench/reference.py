"""Record plain-greedy seed sets for ``celf_im`` at the recorded seeds.

Greedy evaluates sigma-hat(S + {v}) for every candidate at every pick, so
it is the reference CELF must reproduce exactly (same CRN block, ties to
the smaller id). It takes about a minute per seed on 4 cores, which is why
the benchmark checks against this file instead of running greedy.

Run from the root of a checkout: ``python3 perfbench/reference.py``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from celf_im import EWMS, K, N, REFERENCE, build_inputs  # noqa: E402
from common import DEFAULT_SEED, HELDOUT_SEED  # noqa: E402
from repro.diffusion.csr_engine import CSREngine  # noqa: E402
from repro.im.greedy import greedy  # noqa: E402
from repro.im.spread import make_sigma  # noqa: E402


def main() -> None:
    ref = {}
    for seed in (DEFAULT_SEED, HELDOUT_SEED):
        g, ws, block = build_inputs(seed)
        ref[str(seed)] = {
            e: greedy(make_sigma(CSREngine(g, ws[e]), block), range(N), K).seeds for e in EWMS
        }
        print(seed, ref[str(seed)])
    REFERENCE.write_text(json.dumps(ref) + "\n")


if __name__ == "__main__":
    main()
