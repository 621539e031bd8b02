"""``mc_grid``: the paper's Table 1 grid through ``CSREngine.run_many``.

IC model, 100 seed nodes, three graphs (ER(2000, 0.01), WS(2000, 10, 0.1)
and the Facebook substitute BA(4039, 22)) times three edge-weight models
(TV, UR, WC): one 100-trial block per cell, nine calls per round. Mean
spread per cell runs from ~150 nodes (WS TV) to the whole graph (ER UR,
FB UR), so every path of the kernel does work here while the IM and Spark
layers stay idle.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from common import Op, Workload as Base, derive
from repro.diffusion.csr_engine import CSREngine
from repro.diffusion.pure_python import PurePythonEngine
from repro.graphs import csr as csr_mod
from repro.graphs import generators, weights
from repro.im.spread import trial_seed_block

TRIALS = 100
N_SEEDS = 100
CHECKED_TRIALS = 4  # per cell, against the pure-Python engine
EWMS = ("TV", "UR", "WC")
GRAPHS = {
    "ER": lambda s: generators.erdos_renyi(2000, 0.01, seed=s),
    "WS": lambda s: generators.watts_strogatz(2000, 10, 0.1, seed=s),
    "FB": lambda s: generators.facebook_like(seed=s),
}


@dataclass(frozen=True)
class Cell:
    name: str
    csr: object
    weights: np.ndarray
    engine: CSREngine
    seeds: np.ndarray
    block: np.ndarray


class Workload(Base):
    def setup(self) -> None:
        cells = []
        for gname, make in GRAPHS.items():
            g = csr_mod.build_csr(make(derive(self.seed, f"graph/{gname}")))
            rng = np.random.default_rng(derive(self.seed, f"seeds/{gname}"))
            seeds = np.sort(rng.choice(g.n, N_SEEDS, replace=False))
            for ewm in EWMS:
                w = weights.edge_weights(g, ewm, seed=derive(self.seed, f"weights/{gname}/{ewm}"))
                block = trial_seed_block(derive(self.seed, f"trials/{gname}/{ewm}"), TRIALS)
                cells.append(Cell(f"{gname}_{ewm}", g, w, CSREngine(g, w), seeds, block))
        self.cells = cells

    def ops(self) -> list[Op]:
        return [
            Op(f"csr_engine.cell_s.{c.name}", lambda c=c: (c.engine.run_many(c.seeds, c.block), TRIALS))
            for c in self.cells
        ]

    def check(self, outputs: list[list]) -> list[list[bool]]:
        """Per call: counts equal the first round's, which equal, on a
        sample of trials, ``CSREngine.run`` and ``PurePythonEngine.run``."""
        rng = np.random.default_rng(derive(self.seed, "check-sample"))
        self.sample = {}
        verdicts = []
        for cell, outs in zip(self.cells, outputs):
            ks = np.sort(rng.choice(TRIALS, CHECKED_TRIALS, replace=False))
            ref = PurePythonEngine(cell.csr, cell.weights)
            outdeg = cell.csr.out_degree()
            ok, edges, t0 = True, 0, time.perf_counter()
            for k in ks.tolist():
                ok &= ref.run(cell.seeds, int(cell.block[k])).num_active == outs[0][k]
            pure_s = time.perf_counter() - t0
            for k in ks.tolist():
                res = cell.engine.run(cell.seeds, int(cell.block[k]))
                ok &= res.num_active == outs[0][k]
                edges += int(outdeg[res.active_nodes].sum())
            self.sample[cell.name] = (pure_s / CHECKED_TRIALS, edges / CHECKED_TRIALS)
            verdicts.append([bool(ok) and np.array_equal(o, outs[0]) for o in outs])
        return verdicts

    def layer_metrics(self, medians: dict, traced_groups: list, start_s: float) -> dict:
        """Edges-per-second and the pure-Python shape of Table 1, from the
        untraced cell medians and the trial sample of :meth:`check`."""
        csr_s = [medians[f"csr_engine.cell_s.{c.name}"] for c in self.cells]
        pure = [self.sample[c.name][0] for c in self.cells]
        edges = [self.sample[c.name][1] * TRIALS for c in self.cells]
        return {
            "csr_engine.edges_per_s": sum(edges) / sum(csr_s),
            "pure_python.trials_per_s": 1.0 / (sum(pure) / len(pure)),
            "table1.speedup_vs_pure_python": sum(pure) / (sum(csr_s) / TRIALS),
        }

    def info(self) -> dict:
        return {c.name: {"n": c.csr.n, "m": c.csr.m} for c in self.cells}
