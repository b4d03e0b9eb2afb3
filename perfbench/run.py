"""End-to-end benchmark of the qTask reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload qaoa-gradient --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

With ``--trace 0`` a run reports the end-to-end metrics of one workload,
measured with no instrumentation:

* ``setup_s`` -- what a user waits before the first iteration: the median of
  five fresh-interpreter imports of ``repro`` plus the median of five
  session (or Backend) set-ups, each including the first full simulation and
  any pool warm-up;
* ``iter_p50_ms`` / ``iter_p90_ms`` -- iteration latency percentiles;
* ``iters_per_s`` -- iterations per second of the timed phase;
* ``peak_rss_mb`` -- the process's peak resident memory.

Every iteration is checked outside the timed region, and a run times at
least 100 iterations so that at least 10 samples lie beyond p90.

With ``--trace 1`` the run first times a stretch of iterations untraced,
then installs the outside-in layer trace (:mod:`layers`), rebuilds the
session and replays the same iterations, and reports the per-layer metrics
(per iteration), the tracing overhead and a Chrome trace-event span file
under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from workloads import WORKLOADS  # noqa: E402

#: iterations every untraced run times at least (10 samples beyond p90)
MIN_ITERS = 100
#: imports and session set-ups per run; ``setup_s`` uses their medians
SETUP_REPEATS = 5
#: a fresh interpreter's import of repro (what every user process pays)
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import numpy; "
                "sys.path.insert(0, sys.argv[1]); import repro; "
                "print(time.perf_counter() - t)")
#: extra seconds a run may take past ``--seconds`` to reach MIN_ITERS
CAP_EXTRA_S = 45.0

END_TO_END = {
    "setup_s": "s",
    "iter_p50_ms": "ms",
    "iter_p90_ms": "ms",
    "iters_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; times and counts are per iteration
PER_LAYER = {
    "qasm.parse_ms": "ms/iter",
    "qasm.levelize_ms": "ms/iter",
    "circuit.edit_ms": "ms/iter",
    "circuit.edits": "count/iter",
    "graph.stage_insert_ms": "ms/iter",
    "graph.stages_inserted": "count/iter",
    "graph.frontier_ms": "ms/iter",
    "graph.affected_fraction": "fraction",
    "exec_plan.build_ms": "ms/iter",
    "exec_plan.plans_built": "count/iter",
    "exec_plan.runs_per_plan": "runs/plan",
    "exec_plan.topology_change_share": "fraction",
    "cow.read_ms": "ms/iter",
    "cow.read_calls": "count/iter",
    "cow.resolve_calls": "count/iter",
    "cow.write_ms": "ms/iter",
    "cow.write_calls": "count/iter",
    "cow.bytes_read": "B/iter",
    "cow.bytes_written": "B/iter",
    "cow.allocated_mb": "MB",
    "cow.shared_mb": "MB",
    "kernels.execute_self_ms": "ms/iter",
    "kernels.calls": "count/iter",
    "kernels.bytes_computed": "B/iter",
    "simulator.update_ms": "ms/iter",
    "simulator.update_self_ms": "ms/iter",
    "parallel.kernel_overlap": "ratio",
    "observables.expectation_ms": "ms/iter",
    "observables.invalidate_ms": "ms/iter",
    "observables.counts_ms": "ms/iter",
    "observables.cached_partials": "count",
    "qtask.fork_ms": "ms/iter",
    "qtask.forks": "count/iter",
    "qtask.run_shots_ms": "ms/iter",
    "service.queue_wait_ms": "ms",
    "service.job_ms": "ms",
    "service.lease_ms": "ms/iter",
    "service.pool_hit_ratio": "ratio",
    "service.rejected": "count",
    "floor.dense_ms": "ms/iter",
    "trace.overhead_fraction": "fraction",
}

#: layers each workload must reach in a traced run; a zero count there means
#: an entry point moved and the trace no longer sees the layer
EXERCISED = {
    "qaoa-gradient": ("circuit.edit", "graph.frontier", "exec_plan.build",
                      "kernels.execute", "cow.read", "cow.resolve", "cow.write",
                      "simulator.update", "observables.expectation",
                      "observables.invalidate"),
    "synthesis-edits": ("circuit.edit", "graph.stage_insert", "graph.frontier",
                        "exec_plan.build", "kernels.execute", "cow.read",
                        "cow.write", "simulator.update"),
    "qasm-full": ("qasm.parse", "qasm.levelize", "graph.stage_insert",
                  "exec_plan.build", "kernels.execute", "cow.write",
                  "simulator.update", "observables.counts"),
    "service-shots": ("qasm.parse", "qtask.fork", "qtask.run_shots",
                      "service.lease", "simulator.update", "kernels.execute"),
}


def load_repro():
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    pkg = SRC / "repro"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != pkg.resolve():
        print(f"error: imported repro from {repro.__file__}, not {pkg}", file=sys.stderr)
        sys.exit(2)
    return repro


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def import_seconds() -> float:
    """Median time of SETUP_REPEATS fresh-interpreter imports of repro."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=str(ROOT),
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def untraced(workload, repro, seconds: float):
    import_s = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        # Free the previous set-up first, so peak memory is one set-up's.
        workload.close()
        gc.collect()
        t0 = time.perf_counter()
        workload.setup(repro)
        setups.append(time.perf_counter() - t0)
    res = workload.run(seconds=seconds, min_iters=MIN_ITERS, cap_s=seconds + CAP_EXTRA_S)
    lat = np.asarray(res["latencies"])
    p90 = np.percentile(lat, 90)
    values = {
        "setup_s": import_s + statistics.median(setups),
        "iter_p50_ms": np.percentile(lat, 50) * 1e3,
        "iter_p90_ms": p90 * 1e3,
        "iters_per_s": len(lat) / res["busy_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: _metric(values[k], unit) for k, unit in END_TO_END.items()}
    props = {
        "iterations": len(lat),
        "samples_beyond_p90": int(np.sum(lat > p90)),
        "import_s": import_s,
        "setup_runs_s": setups,
        "floor_dense_ms": _mean(res["floors"]) * 1e3,
    }
    return res, metrics, props


def traced(workload, repro, seconds: float):
    import layers

    # 1. an untraced stretch, 2. the same iterations replayed traced
    workload.setup(repro)
    base = workload.run(seconds=seconds / 2, min_iters=20, cap_s=seconds + CAP_EXTRA_S)
    n = len(base["latencies"])
    workload.close()
    gc.collect()
    trace = layers.Trace()
    trace.install()
    try:
        workload.setup(repro)
        workload.affected = []
        trace.reset()
        res = workload.run(seconds=0.0, min_iters=0, cap_s=4 * seconds + CAP_EXTRA_S,
                           count=n, trace=trace)
    finally:
        trace.uninstall()
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{workload.name}-seed{workload.seed}-spans.json"
    num_spans = trace.write_spans(str(span_file))

    tot = trace.totals()
    zero = [0, 0.0, 0.0, 0]
    missing = [layer for layer in EXERCISED[workload.name] if tot.get(layer, zero)[0] == 0]
    if missing:
        print(f"error: traced run saw no calls into {missing}; an entry point in "
              "perfbench/layers.py no longer matches repro", file=sys.stderr)
        sys.exit(3)

    def ms(layer, col=1):
        return tot.get(layer, zero)[col] * 1e3 / n

    def per_iter(layer, col=0):
        return tot.get(layer, zero)[col] / n

    def ratio(a, b):
        return a / b if b else 0.0

    alloc, shared = workload.memory()
    props = workload.properties()
    jobs = [d[2] for d in getattr(workload, "jobs", [])]
    untraced_ips = n / base["busy_s"]
    traced_ips = len(res["latencies"]) / res["busy_s"]
    values = {
        "qasm.parse_ms": ms("qasm.parse"),
        "qasm.levelize_ms": ms("qasm.levelize"),
        "circuit.edit_ms": ms("circuit.edit"),
        "circuit.edits": per_iter("circuit.edit"),
        "graph.stage_insert_ms": ms("graph.stage_insert"),
        "graph.stages_inserted": per_iter("graph.stage_insert"),
        "graph.frontier_ms": ms("graph.frontier"),
        "graph.affected_fraction": _mean(a for a, _ in trace.updates),
        "exec_plan.build_ms": ms("exec_plan.build") + ms("exec_plan.table"),
        "exec_plan.plans_built": per_iter("exec_plan.build", 3),
        "exec_plan.runs_per_plan": ratio(tot.get("exec_plan.table", zero)[3],
                                         tot.get("exec_plan.build", zero)[3]),
        "exec_plan.topology_change_share": _mean(float(c) for _, c in trace.updates),
        "cow.read_ms": ms("cow.read"),
        "cow.read_calls": per_iter("cow.read"),
        "cow.resolve_calls": per_iter("cow.resolve"),
        "cow.write_ms": ms("cow.write"),
        "cow.write_calls": per_iter("cow.write"),
        "cow.bytes_read": per_iter("cow.read", 3),
        "cow.bytes_written": per_iter("cow.write", 3),
        "cow.allocated_mb": alloc / 2**20,
        "cow.shared_mb": shared / 2**20,
        "kernels.execute_self_ms": ms("kernels.execute", 2),
        "kernels.calls": per_iter("kernels.execute"),
        "kernels.bytes_computed": per_iter("kernels.execute", 3),
        "simulator.update_ms": ms("simulator.update"),
        "simulator.update_self_ms": ms("simulator.update", 2),
        "parallel.kernel_overlap": ratio(tot.get("kernels.execute", zero)[1],
                                         tot.get("simulator.update", zero)[1]),
        "observables.expectation_ms": ms("observables.expectation"),
        "observables.invalidate_ms": ms("observables.invalidate"),
        "observables.counts_ms": ms("observables.counts"),
        "observables.cached_partials": props.get("cached_partials", 0),
        "qtask.fork_ms": ms("qtask.fork"),
        "qtask.forks": per_iter("qtask.fork"),
        "qtask.run_shots_ms": ms("qtask.run_shots"),
        "service.queue_wait_ms": _mean(j.queue_seconds for j in jobs) * 1e3,
        "service.job_ms": _mean(j.seconds for j in jobs) * 1e3,
        "service.lease_ms": ms("service.lease"),
        "service.pool_hit_ratio": props.get("pool_hit_ratio", 0.0),
        "service.rejected": res.get("rejected", 0),
        "floor.dense_ms": _mean(res["floors"]) * 1e3,
        "trace.overhead_fraction": 1.0 - traced_ips / untraced_ips,
    }
    metrics = {k: _metric(values[k], unit) for k, unit in PER_LAYER.items()}

    print(f"{'layer':<26}{'calls/iter':>12}{'total ms/iter':>15}{'self ms/iter':>14}")
    for layer in sorted(tot):
        calls, total, self_time, _ = tot[layer]
        print(f"{layer:<26}{calls / n:>12.1f}{total * 1e3 / n:>15.3f}{self_time * 1e3 / n:>14.3f}")
    print(f"tracing overhead: {values['trace.overhead_fraction']:.3f} "
          f"(untraced {untraced_ips:.2f} it/s, traced {traced_ips:.2f} it/s, {n} iterations)")
    print(f"span file: {span_file.relative_to(ROOT)} ({num_spans} spans)")
    return res, metrics, {"iterations": n, "span_file": str(span_file.relative_to(ROOT))}


def run_one(args) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    repro = load_repro()
    try:
        if args.trace:
            res, metrics, props = traced(workload, repro, args.seconds)
        else:
            res, metrics, props = untraced(workload, repro, args.seconds)
        props.update(workload.properties())
        width = repro.QTask(1)
        props["default_executor_width"] = width.statistics()["num_workers"]
        width.close()
    finally:
        workload.close()
    props.update({
        "workload": workload.name,
        "seed": args.seed,
        "input_digest": workload.digest(),
        "mean_affected_fraction": _mean(workload.affected),
        "topology_change_share": workload.topology_change_share,
    })
    attempted = int(res.get("attempted", len(res["latencies"])))
    failed = int(res["failed"])
    for name, m in metrics.items():
        print(f"{workload.name:<16} {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"{workload.name:<16} attempted {attempted} failed {failed}")
    print("properties " + json.dumps(props, sort_keys=True, default=float))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
