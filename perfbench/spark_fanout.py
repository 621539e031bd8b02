"""``spark_fanout``: one ``local[4]`` session running four kinds of job.

Per round: (a) four small trial fan-outs (100 trials, ER TV); (b) one large
fan-out (FB WC, 1,000 trials); (c) CELF's first pass through
``marginal_gains_spark`` (1,000 candidates of a random 7-regular graph, WC,
50 trials each); (d) ``run_trials_df(output="activations")`` for 300 trials
on ER TV followed by ``activation_counts_df`` and
``mean_active_over_time_df``. Inside the workers the kernel runs per-trial
``run``, not ``run_many``. (d) ships ~100k activation rows through Arrow,
against a few hundred summary rows in (a) and (b).
"""
from __future__ import annotations

import os
import subprocess
import time

import numpy as np
import pandas as pd

from common import Op, Workload as Base, derive
from repro.analysis import heatmap, timeseries
from repro.diffusion import spark_engine
from repro.diffusion.csr_engine import CSREngine
from repro.graphs import csr as csr_mod
from repro.graphs import generators, weights
from repro.im import spread
from repro.oracle import assert_equivalent

MASTER = "local[4]"
DRIVER_MEMORY = "1g"
N_SEEDS = 100
SMALL_JOBS, SMALL_TRIALS = 4, 100
BIG_TRIALS = 1000
GAINS_N, GAINS_MC = 1000, 50
ANALYSIS_TRIALS = 300

HEATMAP_SQL = """
    SELECT n.range AS node,
           COALESCE(a.c, 0) AS activations,
           COALESCE(a.c, 0) / {trials} AS frequency
    FROM range({n}) n
    LEFT JOIN (SELECT node, COUNT(*) AS c FROM act GROUP BY node) a
      ON n.range = a.node
"""
TIMESERIES_SQL = """
    SELECT g.range AS time, COUNT(*) / {trials} AS mean_active
    FROM range({max_t} + 1) g
    JOIN act a ON a.time <= g.range
    GROUP BY g.range
"""


def _summary(engine: CSREngine, seeds, block) -> pd.DataFrame:
    """The summary rows ``run_trials_df`` should produce, from local runs."""
    rows = [engine.run(seeds, int(t)) for t in block.tolist()]
    return pd.DataFrame(
        {
            "trial": block.astype(np.int64),
            "num_active": [r.num_active for r in rows],
            "num_iterations": [r.num_iterations for r in rows],
        }
    )


def _same_rows(a: pd.DataFrame, b: pd.DataFrame, key: str) -> bool:
    """Equal as row sets; Spark returns rows in partition order."""
    return a.sort_values(key).reset_index(drop=True).equals(b.sort_values(key).reset_index(drop=True))


def _repeats(outs: list, first_ok: bool, key: str) -> list[bool]:
    return [first_ok and _same_rows(o, outs[0], key) for o in outs]


class Workload(Base):
    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self.spark = None
        self.local_run_s = 0.0
        self.activation_rows = 0

    def setup(self) -> None:
        s = self.seed
        self.er = csr_mod.build_csr(generators.erdos_renyi(2000, 0.01, seed=derive(s, "graph/ER")))
        self.w_er = weights.edge_weights(self.er, "TV", seed=derive(s, "weights/ER/TV"))
        self.fb = csr_mod.build_csr(generators.facebook_like(seed=derive(s, "graph/FB")))
        self.w_fb = weights.edge_weights(self.fb, "WC")
        self.rr = csr_mod.build_csr(generators.random_regular(GAINS_N, 7, seed=derive(s, "graph/RR")))
        self.w_rr = weights.edge_weights(self.rr, "WC")
        pick = lambda g, label: np.sort(  # noqa: E731
            np.random.default_rng(derive(s, label)).choice(g.n, N_SEEDS, replace=False)
        )
        self.seeds_er, self.seeds_fb = pick(self.er, "seeds/ER"), pick(self.fb, "seeds/FB")
        self.small_blocks = [
            spread.trial_seed_block(derive(s, f"trials/job{j}"), SMALL_TRIALS)
            for j in range(SMALL_JOBS)
        ]
        self.big_block = spread.trial_seed_block(derive(s, "trials/mc"), BIG_TRIALS)
        self.gains_block = spread.trial_seed_block(derive(s, "trials/gains"), GAINS_MC)
        self.act_block = spread.trial_seed_block(derive(s, "trials/analysis"), ANALYSIS_TRIALS)
        self.local = {
            "er": CSREngine(self.er, self.w_er),
            "fb": CSREngine(self.fb, self.w_fb),
            "rr": CSREngine(self.rr, self.w_rr),
        }

    def start(self) -> None:
        """Start the session, then run one warm-up round: the first calls of
        each kind start Python workers and JIT-compile the JVM's paths."""
        out = os.path.join(os.environ["TMPDIR"], "spark")
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
            f"--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            f"--conf spark.ui.showConsoleProgress=false --conf spark.local.dir={out} "
            f"--conf spark.sql.warehouse.dir={out}/warehouse pyspark-shell"
        )
        from pyspark.sql import SparkSession

        # The settings of jobs/_session.py, which tests and jobs share.
        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        self.tracer.group = "warmup"
        for op in self.ops():
            op.fn()

    def _collect(self, df) -> pd.DataFrame:
        with self.tracer.span("spark.collect"):
            return df.toPandas()

    def _trials(self, g, w, seeds, block) -> pd.DataFrame:
        self.spark.sparkContext.setJobGroup(str(self.tracer.group), "perfbench")
        return self._collect(spark_engine.run_trials_df(self.spark, g, w, seeds, block))

    def _gains(self, candidates) -> pd.DataFrame:
        self.spark.sparkContext.setJobGroup(str(self.tracer.group), "perfbench")
        df = spread.marginal_gains_spark(self.spark, self.rr, self.w_rr, candidates, self.gains_block)
        return self._collect(df)

    def _analysis(self, block):
        self.spark.sparkContext.setJobGroup(str(self.tracer.group), "perfbench")
        act = spark_engine.run_trials_df(
            self.spark, self.er, self.w_er, self.seeds_er, block, output="activations"
        )
        with self.tracer.span("analysis.heatmap"):
            heat = self._collect(heatmap.activation_counts_df(self.spark, self.er, act, len(block)))
        with self.tracer.span("analysis.timeseries"):
            curve = self._collect(timeseries.mean_active_over_time_df(self.spark, act, len(block)))
        return heat, curve

    def ops(self) -> list[Op]:
        small = [
            Op("spark_job_s", lambda b=b: (self._trials(self.er, self.w_er, self.seeds_er, b), SMALL_TRIALS))
            for b in self.small_blocks
        ]
        return small + [
            Op("spark_mc_s", lambda: (self._trials(self.fb, self.w_fb, self.seeds_fb, self.big_block), BIG_TRIALS)),
            Op("spark_gains_s", lambda: (self._gains(range(GAINS_N)), 0)),
            Op("spark_analysis_s", lambda: (self._analysis(self.act_block), 0)),
        ]

    def check(self, outputs: list[list]) -> list[list[bool]]:
        """Counts and gains bit-equal to local csr; heatmap and timeseries
        equal DuckDB's answer over locally simulated activations. Later
        rounds must repeat the first."""
        self.spark.sparkContext.setJobGroup("check", "perfbench")
        verdicts = []
        for block, outs in zip(self.small_blocks, outputs[:SMALL_JOBS]):
            want = _summary(self.local["er"], self.seeds_er, block)
            verdicts.append(_repeats(outs, _same_rows(outs[0], want, "trial"), "trial"))

        t0 = time.perf_counter()
        want = _summary(self.local["fb"], self.seeds_fb, self.big_block)
        self.local_run_s = time.perf_counter() - t0
        outs = outputs[SMALL_JOBS]
        verdicts.append(_repeats(outs, _same_rows(outs[0], want, "trial"), "trial"))

        gains = [float(self.local["rr"].run_many([c], self.gains_block).mean()) for c in range(GAINS_N)]
        want = pd.DataFrame({"candidate": np.arange(GAINS_N, dtype=np.int64), "sigma_hat": gains})
        outs = outputs[SMALL_JOBS + 1]
        verdicts.append(_repeats(outs, _same_rows(outs[0], want, "candidate"), "candidate"))

        outs = outputs[SMALL_JOBS + 2]
        first_ok = self._analysis_ok(*outs[0])
        verdicts.append(
            [
                first_ok and _same_rows(h, outs[0][0], "node") and _same_rows(c, outs[0][1], "time")
                for h, c in outs
            ]
        )
        return verdicts

    def _analysis_ok(self, heat: pd.DataFrame, curve: pd.DataFrame) -> bool:
        act = []
        for t in self.act_block.tolist():
            res = self.local["er"].run(self.seeds_er, int(t))
            nodes = res.active_nodes
            act.append(pd.DataFrame({"trial": t, "node": nodes, "time": res.activation_time[nodes]}))
        act = pd.concat(act, ignore_index=True)
        self.activation_rows = int(heat["activations"].sum())
        trials = float(ANALYSIS_TRIALS)
        try:
            assert_equivalent(
                self.spark.createDataFrame(heat),
                HEATMAP_SQL.format(trials=trials, n=self.er.n),
                act=act,
            )
            assert_equivalent(
                self.spark.createDataFrame(curve),
                TIMESERIES_SQL.format(trials=trials, max_t=int(act["time"].max())),
                act=act,
            )
        except AssertionError:
            return False
        return True

    def layer_metrics(self, medians: dict, traced_groups: list, start_s: float) -> dict:
        tracker = self.spark.sparkContext.statusTracker()
        return {
            "spark.start_s": start_s,
            "csr_engine.local_run_s": self.local_run_s,
            "spark.speedup_vs_local": self.local_run_s / medians["spark_mc_s"],
            "spark.activation_rows": self.activation_rows,
            "spark.jobs": len(tracker.getJobIdsForGroup(traced_groups[0])),
        }

    def info(self) -> dict:
        sc = self.spark.sparkContext
        return {
            "spark_master": sc.master,
            "spark_default_parallelism": sc.defaultParallelism,
            "spark_driver_memory": sc.getConf().get("spark.driver.memory", DRIVER_MEMORY),
            **{name: {"n": g.n, "m": g.m} for name, g in (("ER", self.er), ("FB", self.fb), ("RR", self.rr))},
        }

    def close(self) -> None:
        """Stop the session and the JVM it started, and wait for both."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
