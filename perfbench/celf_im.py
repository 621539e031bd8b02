"""``celf_im``: the paper's Table 2 cells at bench scale.

CELF with k=10 over all 1,000 nodes of a random 7-regular graph, TV and
WC weights, the csr backend and one 50-trial block of common random
numbers (every sigma-hat call reuses the same trial seeds). Each round runs
both selections. Thousands of small single-seed sigma-hat calls make
per-call overhead, coin hashing and the number of lazy re-evaluations the
cost; the big-frontier path and Spark are barely used.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from common import Op, Workload as Base, derive
from repro.diffusion.csr_engine import CSREngine
from repro.diffusion.pure_python import PurePythonEngine
from repro.graphs import csr as csr_mod
from repro.graphs import generators, weights
from repro.im.celf import celf
from repro.im.spread import make_sigma, trial_seed_block

N, D, K, MC = 1000, 7, 10, 50
EWMS = ("TV", "WC")
# Candidates per pick whose sigma-hat the check compares with the pick's.
GREEDY_SAMPLE = 20
REFERENCE = Path(__file__).with_name("reference.json")


def build_inputs(seed: int):
    """(graph, {ewm: weights}, CRN block) of a run with ``seed``."""
    g = csr_mod.build_csr(generators.random_regular(N, D, seed=derive(seed, "graph")))
    ws = {e: weights.edge_weights(g, e, seed=derive(seed, f"weights/{e}")) for e in EWMS}
    return g, ws, trial_seed_block(derive(seed, "trials"), MC)


def _traced_sigma(sigma, tracer, n_first: int):
    """``sigma`` with one span per call; calls before the first pick (the
    first ``n_first``, since CELF's first pass evaluates every candidate
    once) are ``spread.sigma.first``, later ones ``spread.sigma.lazy``."""
    calls = 0

    def traced(seed_set):
        nonlocal calls
        calls += 1
        with tracer.span("spread.sigma.first" if calls <= n_first else "spread.sigma.lazy"):
            return sigma(seed_set)

    return traced


class Workload(Base):
    setup_repeats = 15

    def setup(self) -> None:
        self.csr, self.weights, self.block = build_inputs(self.seed)
        self.engines = {e: CSREngine(self.csr, w) for e, w in self.weights.items()}

    def _select(self, ewm: str):
        sigma = make_sigma(self.engines[ewm], self.block)
        if self.tracer.enabled:
            sigma = _traced_sigma(sigma, self.tracer, N)
        with self.tracer.span("celf.select"):
            res = celf(sigma, range(N), K)
        return res, res.n_evals * MC

    def ops(self) -> list[Op]:
        return [Op(f"celf_{e.lower()}_s", lambda e=e: self._select(e)) for e in EWMS]

    def check(self, outputs: list[list]) -> list[list[bool]]:
        """Per selection: the first round's trajectory is recomputed with the
        pure-Python engine over the same block; each pick beats a sample of
        other candidates; recorded seeds match their greedy reference; and
        later rounds repeat the first exactly."""
        ref = json.loads(REFERENCE.read_text()).get(str(self.seed), {})
        verdicts = []
        for ewm, outs in zip(EWMS, outputs):
            first = outs[0]
            ok = self._trajectory_ok(ewm, first) and self._greedy_ok(ewm, first)
            if ewm in ref:
                ok &= first.seeds == ref[ewm]
            verdicts.append([ok and o == first for o in outs])
        return verdicts

    def _trajectory_ok(self, ewm: str, res) -> bool:
        pure = PurePythonEngine(self.csr, self.weights[ewm])
        for i, value in enumerate(res.sigma_values):
            prefix = res.seeds[: i + 1]
            total = sum(pure.run(prefix, int(t)).num_active for t in self.block.tolist())
            if total != int(self.engines[ewm].run_many(prefix, self.block).sum()):
                return False
            if not math.isclose(value, total / MC, rel_tol=1e-12, abs_tol=1e-9):
                return False
        return True

    def _greedy_ok(self, ewm: str, res) -> bool:
        """Each pick has the largest exact activation total among itself and
        a seeded sample of the other candidates (ties to the smaller id)."""
        engine = self.engines[ewm]
        rng = np.random.default_rng(derive(self.seed, f"check-greedy/{ewm}"))

        def total(seed_set) -> int:
            return int(engine.run_many(seed_set, self.block).sum())

        for i, v in enumerate(res.seeds):
            chosen = res.seeds[:i]
            rest = np.setdiff1d(np.arange(N), res.seeds[: i + 1])
            best = total(chosen + [v])
            for u in rng.choice(rest, GREEDY_SAMPLE, replace=False).tolist():
                other = total(chosen + [u])
                if other > best or (other == best and u < v):
                    return False
        return True

    def info(self) -> dict:
        return {"n": self.csr.n, "m": self.csr.m, "k": K, "mc": MC}
