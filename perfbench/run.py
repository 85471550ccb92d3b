"""minisplit benchmark: every workload behind one command.

Run from the repository root:

    python3 perfbench/run.py --workload toy-sfb --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the library untouched.
``--trace 1`` measures half the time untraced and half with spans around the
library's layer functions, reports the per-layer metrics and writes the spans
to ``.perfbench_out/``. Every run passes through the correctness gate; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is 1 when any
instance failed the gate.
"""

import os

import envinfo

# BLAS is pinned to one thread before numpy is first imported.
for _var in envinfo.THREAD_VARIABLES:
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("toy-sfb", "portfolio-gfb", "compare-hetero")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _make_workload(name, seed):
    import workloads

    if name == "toy-sfb":
        return workloads.ToySfb(seed)
    if name == "portfolio-gfb":
        return workloads.PortfolioGfb(seed)
    return workloads.CompareHetero(seed, OUT_DIR)


def measure(workload, seconds, recorder=None):
    """Run the workload's cases in a closed loop.

    Every case runs at least once; the loop then cycles through the cases
    again until ``seconds`` have passed. A repeated case must reproduce the
    iteration counts of its first run.
    """
    import workloads

    records, first = [], {}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(workload.cases) or time.perf_counter() < deadline:
        slot = i % len(workload.cases)
        if recorder is not None:
            recorder.instance_id = i
        try:
            record = workload.run_case(workload.cases[slot])
        except Exception as exc:  # a failing instance is counted, the loop goes on
            record = workloads.failed_record(exc)
        if slot in first and record.get("iters_to_tol") != first[slot].get("iters_to_tol"):
            record["violations"].append("iters_to_tol differs from the first run of this case")
        first.setdefault(slot, record)
        record["first_pass"] = i < len(workload.cases)
        records.append(record)
        i += 1
    return records


def _passed(records):
    return [r for r in records if not r["violations"]]


def _pools(records, key):
    pools = {}
    for r in records:
        pools.setdefault(r["stratum"], []).append(np.atleast_1d(np.asarray(r[key], dtype=float)))
    return [p for p in (np.concatenate(v) for v in pools.values()) if p.size]


def stratified(records, key, how="mean"):
    """Median per stratum, then the mean (or geometric mean) over strata."""
    pools = _pools(records, key)
    if not pools:
        return None, 0
    combine = statistics.fmean if how == "mean" else statistics.geometric_mean
    return combine([float(np.median(p)) for p in pools]), sum(p.size for p in pools)


def iteration_rate(records):
    """Iterations per second at the median per-iteration time of each stratum."""
    pools = _pools(records, "increments")
    if not pools:
        return None, 0
    rate = statistics.geometric_mean([1e6 / float(np.median(p)) for p in pools])
    return rate, sum(p.size for p in pools)


def end_to_end(records):
    """The gated metrics of BENCHMARK.json.

    ``iters_per_s`` comes from the median iteration time: other tenants of a
    shared machine only add time, and this statistic moves least with how
    busy the machine was during the run.
    """
    ok = _passed(records)
    metrics = {
        "setup_s": stratified(ok, "setup_s"),
        "solve_s": stratified(ok, "solve_s"),
        "iters_per_s": iteration_rate(ok),
    }
    units = {"setup_s": "s", "solve_s": "s", "iters_per_s": "1/s"}
    out = {name: {"value": value, "unit": units[name], "samples": count}
           for name, (value, count) in metrics.items()}
    out["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB", "samples": 1,
    }
    return out


def solver_metrics(records):
    """Metrics printed but not gated: wall time, iterations and time to
    tolerance over the first pass, and the fail rate."""
    ok = _passed(records)
    wall, n_wall = stratified(ok, "wall_s")
    first = [r for r in ok if r["first_pass"]]
    iters, n_iters = stratified(first, "iters_to_tol", "geometric")
    ttt, n_ttt = stratified(first, "time_to_tol_s")
    return {
        "wall_s": {"value": wall, "unit": "s", "samples": n_wall},
        "iters_to_tol": {"value": iters, "unit": "count", "samples": n_iters},
        "time_to_tol_s": {"value": ttt, "unit": "s", "samples": n_ttt},
        "fail_rate": {"value": (len(records) - len(ok)) / len(records), "unit": "ratio",
                      "samples": len(records)},
    }


def per_layer(untraced, traced, trace):
    out = trace.metrics()
    increments = [r["increments"] for r in _passed(untraced) if len(r["increments"])]
    inc = np.concatenate(increments) if increments else np.zeros(1)
    out["engine.iter_us_p50"] = {"value": float(np.percentile(inc, 50)), "unit": "us"}
    out["engine.iter_us_p99"] = {"value": float(np.percentile(inc, 99)), "unit": "us"}
    out["engine.iter_samples"] = {"value": int(inc.size), "unit": "count"}
    solver = solver_metrics(untraced)
    out["solver.iters_to_tol"] = {"value": solver["iters_to_tol"]["value"] or 0, "unit": "count"}
    out["solver.time_to_tol_s"] = {"value": solver["time_to_tol_s"]["value"] or 0.0, "unit": "s"}
    untraced_rate, traced_rate = iteration_rate(_passed(untraced))[0], iteration_rate(_passed(traced))[0]
    out["trace.overhead_ratio"] = {
        "value": untraced_rate / traced_rate if untraced_rate and traced_rate else 0.0, "unit": "ratio"}
    return out


def _table(metrics):
    lines = [f"{'metric':<44} {'value':>14} {'unit':<6} {'samples':>7}"]
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"{name:<44} {value:>14} {m['unit']:<6} {m.get('samples', ''):>7}")
    return "\n".join(lines)


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "minisplit")):
        print(f"perfbench: no minisplit package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    sys.dont_write_bytecode = True

    import spans

    os.makedirs(OUT_DIR, exist_ok=True)
    env = envinfo.environment()
    workload = _make_workload(args.workload, args.seed)
    t0 = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - t0

    if args.trace:
        untraced = measure(workload, args.seconds / 2)
        trace = spans.LayerTrace()
        with spans.patched(trace.bindings()):
            traced = measure(workload, args.seconds / 2, trace.recorder)
        trace.recorder.save(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
        records = untraced + traced
        metrics = per_layer(untraced, traced, trace)
        shown = {**solver_metrics(records), **metrics}
    else:
        records = measure(workload, args.seconds)
        metrics = end_to_end(records)
        shown = {**metrics, **solver_metrics(records)}

    failures = [(i, r["violations"]) for i, r in enumerate(records) if r["violations"]]
    tracebacks = [r["traceback"] for r in records if "traceback" in r]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "prepare_s": prepare_s, "environment": env,
              "metrics": shown, "failures": failures[:20]}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)

    print("environment " + json.dumps(env))
    print(_table(shown))
    for i, violations in failures[:5]:
        print(f"FAILED run {i}: {'; '.join(violations)}", file=sys.stderr)
    if tracebacks:
        print(tracebacks[0], file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
