"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc_grid --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` spends half of ``--seconds`` untraced and half traced and
prints the per-layer metrics, including the tracing overhead. The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count the checked calls, ``metrics`` maps each name to its value
and unit. Results, and in traced runs every span, are written under
``.perfbench_out/``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("mc_grid", "celf_im", "spark_fanout")


def _isolate() -> None:
    """Import ``repro`` from this checkout and keep temporary files in it."""
    src = ROOT / "src"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)  # for Spark's Python workers
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark")
    # -XX:-UsePerfData keeps the JVMs from writing /tmp/hsperfdata_<user>.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"


def _measure(ops, seconds: float, tracer, label: str) -> list[tuple]:
    """Closed loop over whole rounds of ``ops`` for at least ``seconds``.

    Returns ``(round, op index, kind, seconds, trials, output)`` per call.
    """
    records = []
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        tracer.group = f"{label}{r}"
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            out, trials = op.fn()
            records.append((r, i, op.kind, time.perf_counter() - t0, trials, out))
        r += 1
    return records


def _medians(records) -> dict:
    kinds: dict = {}
    for _r, _i, kind, secs, _t, _o in records:
        kinds.setdefault(kind, []).append(secs)
    return {k: statistics.median(v) for k, v in kinds.items()}


def _round_s(ops, medians) -> float:
    """One round's seconds, as the sum of each call's median."""
    return sum(medians[op.kind] for op in ops)


def _trials_per_s(ops, records, medians) -> float:
    """Trials per second of one round's trial-running calls, from medians."""
    trials = {i: t for _r, i, _k, _s, t, _o in records}
    timed = [i for i, t in trials.items() if t]
    return sum(trials[i] for i in timed) / sum(medians[ops[i].kind] for i in timed)


def _layer_metrics(tracer, setup_groups, round_groups) -> dict:
    """Per-layer metrics from the spans: counts from the first traced round
    (they repeat exactly), times as medians over traced rounds."""
    totals = tracing.totals_by_group(tracer.spans)
    first = totals[round_groups[0]]

    def med(groups, *keys) -> float:
        return statistics.median(sum(totals[g].get(k, 0.0) for k in keys) for g in groups)

    hashes = ("rng.uniforms", "rng.uniforms_mixed", "rng.trial_bases")
    calls = first.get("csr_engine.run_many:calls", 0)
    run_many_s = med(round_groups, "csr_engine.run_many:s")
    return {
        "graphs.build_s": med(setup_groups, "graphs.self_s"),
        "rng.coins_hashed_vec": first.get("rng.uniforms:work", 0) + first.get("rng.uniforms_mixed:work", 0),
        "rng.hash_calls": sum(first.get(h + ":calls", 0) for h in hashes),
        "rng.hash_s": med(round_groups, *(h + ":s" for h in hashes)),
        "csr_engine.run_many_calls": calls,
        "csr_engine.run_many_s": run_many_s,
        "csr_engine.us_per_call": run_many_s / calls * 1e6 if calls else 0.0,
        "spread.sigma_calls": first.get("spread.sigma.first:calls", 0) + first.get("spread.sigma.lazy:calls", 0),
        "spread.sigma_s": med(round_groups, "spread.sigma.first:s", "spread.sigma.lazy:s"),
        "celf.first_pass_evals": first.get("spread.sigma.first:calls", 0),
        "celf.lazy_evals": first.get("spread.sigma.lazy:calls", 0),
        "celf.first_pass_s": med(round_groups, "spread.sigma.first:s"),
        "celf.lazy_s": med(round_groups, "spread.sigma.lazy:s"),
        "spark.plan_s": med(round_groups, "spark.plan:s"),
        "spark.collect_s": med(round_groups, "spark.collect:s"),
        "analysis.heatmap_s": med(round_groups, "analysis.heatmap:s"),
        "analysis.timeseries_s": med(round_groups, "analysis.timeseries:s"),
        **{
            f"{layer}.self_s": med(round_groups, f"{layer}.self_s")
            for layer in ("csr_engine", "spread", "celf", "spark", "analysis")
        },
    }


def _machine() -> dict:
    import numpy
    import pyspark

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _isolate()
    module = importlib.import_module(workload)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]

    tracer = tracing.Tracer()
    wl = module.Workload(seed, tracer)
    try:
        setup_s, setup_groups = [], []
        with tracing.installed(tracer) if trace else contextlib.nullcontext():
            tracer.enabled = trace
            for i in range(wl.setup_repeats):
                tracer.group = f"setup{i}"
                setup_groups.append(tracer.group)
                t0 = time.perf_counter()
                wl.setup()
                setup_s.append(time.perf_counter() - t0)
            tracer.enabled = False
        t0 = time.perf_counter()
        wl.start()
        start_s = time.perf_counter() - t0

        ops = wl.ops()
        plain = _measure(ops, seconds / 2 if trace else seconds, tracer, "u")
        traced = []
        if trace:
            with tracing.installed(tracer):
                tracer.enabled = True
                traced = _measure(ops, seconds / 2, tracer, "t")
                tracer.enabled = False
        records = plain + traced
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        t0 = time.perf_counter()
        by_op = [[r[5] for r in records if r[1] == i] for i in range(len(ops))]
        verdicts = [v for op_verdicts in wl.check(by_op) for v in op_verdicts]
        attempted, failed = len(verdicts), verdicts.count(False)
        check_s = time.perf_counter() - t0

        medians = _medians(plain)
        produced = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "mc_trials_per_s": _trials_per_s(ops, plain, medians),
            "round_s": _round_s(ops, medians),
        }
        if trace:
            round_groups = sorted({f"t{r[0]}" for r in traced})
            produced = {
                **medians,
                **_layer_metrics(tracer, setup_groups, round_groups),
                **wl.layer_metrics(medians, round_groups, start_s),
                "trace.overhead_frac": _round_s(ops, _medians(traced)) / _round_s(ops, medians) - 1,
            }
        unknown = set(produced) - {m["name"] for m in declared}
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        metrics = {
            m["name"]: {"value": float(produced.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        }
        machine, workload_info = _machine(), wl.info()
    finally:
        wl.close()

    base = f"{workload}-seed{seed}-trace{int(trace)}"
    samples = {k: [r[3] for r in plain if r[2] == k] for k in medians}
    (OUT / f"{base}.json").write_text(
        json.dumps({"machine": machine, "workload": workload_info, "setup_s": setup_s, "start_s": start_s, "check_s": check_s,
                    "samples": samples, "metrics": metrics}, indent=1)
    )
    if trace:
        tracer.dump(OUT / f"{base}.spans.jsonl")

    print("machine: " + json.dumps(machine))
    print("workload: " + json.dumps(workload_info))
    for kind, secs in samples.items():
        print(f"{kind}: {statistics.median(secs):.4f} s (median of {len(secs)}, untraced)")
    print(f"start_s: {start_s:.4f} s (one-off start-up and warm-up, not in setup_s)")
    print(f"failed_ops_frac: {failed / attempted:.4f} frac ({failed} of {attempted} checked calls)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a checkout (needs src/repro and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
