"""The benchmark workloads.

Each workload is a closed loop: one process runs one instance after another,
single-threaded. Instances are generated from the workload seed; a
``prepare`` step computes the accuracy references outside the timed region,
and ``run_case`` times one instance and returns its record. Library calls go
through module attributes (``bench.execute``, ``problems.gen_toy_problem``)
so the traced run can swap them for span wrappers.

A record holds lists of samples (a compare call yields one per method) under
``setup_s``, ``solve_s``, ``iterations``, ``iters_to_tol`` and
``time_to_tol_s``, the whole call under ``wall_s``, the per-iteration times in
microseconds under ``increments``, and the gate's ``violations``.
"""

import contextlib
import csv
import io
import json
import os
import tempfile
import time
import traceback

import numpy as np

import gate
from minisplit import bench, cli, params, problems
from minisplit.problems import PortfolioProblemConfig, ToyProblemConfig
from spans import patched

# toy-sfb: the routing sizes of the paper's toy composite, each with a fixed
# iteration budget that covers the slowest instance seen at that size with
# room to spare (at least 1.8x), so every run reaches its tolerance.
TOY_SIZES = ((2, 3, 3000), (5, 5, 600), (8, 6, 300))
TOY_INSTANCES_PER_SIZE = 12
#: Objective-gap tolerance, relative to max(1, |f*|).
TOY_REL_TOL = 1e-5
#: Bound on the final consensus gap, inclusion residual and distance to the
#: reference minimizer, relative to max(1, ||x*||); at this commit all three
#: stay below 1e-3 at the end of the budget.
TOY_CERTIFICATE_RTOL = 1e-2

PORTFOLIO_INSTANCES = 6
PORTFOLIO_BUDGET = 2000
PORTFOLIO_REFERENCE_ITERS = 10000
#: Bound on the consensus gap and inclusion residual, relative to
#: max(1, ||x*||), of the reference and of each run. gfb converges slowly on
#: some portfolios (the worst of 60 seeds left 1.5e-2 after 2000 iterations),
#: so this only catches broken runs; the toy workloads carry the tight checks.
PORTFOLIO_CERTIFICATE_RTOL = 1e-1

COMPARE_METHODS = ("sfb+", "gfb", "agfb")
COMPARE_INSTANCES = 4
COMPARE_ITERS = 1000
COMPARE_REFERENCE_ITERS = 5000

#: Portfolio and compare runs stop far from their solutions (gfb is slow on
#: both), so their accuracy measure only has to shrink: the objective gap of
#: a compare run to this share of its first-iteration value (the worst seen
#: at this commit is about 0.65), the distance of a portfolio run to the
#: reference solution to no more than its first-iteration value (the worst of
#: 60 seeds is about 0.94). ``iters_to_tol`` counts the first iteration where
#: the measure falls below one tenth of its first value.
PROGRESS_TARGET = 0.9
PROGRESS_TOL = 0.1
#: Bound on the error of the reference objective ``minisplit bench`` computes,
#: relative to max(1, |f*|); its capped reference runs are off by up to about
#: 1e-4 at this commit.
COMPARE_REFERENCE_RTOL = 5e-3


def _seeds(seed, count):
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _increments_us(elapsed_ms):
    return np.diff(np.asarray(elapsed_ms, dtype=float), prepend=0.0) * 1e3


def failed_record(exc):
    """Record of an instance whose run raised."""
    return {"violations": [f"raised {exc!r}"], "traceback": traceback.format_exc()}


def _design_and_solve(generate, method_name, seed, budget, trace):
    """Time set-up (generate, design, validate) and one fixed-budget solve.

    Returns ``(setup_s, solve_s, report, violations)``; the violations cover
    validation, oracle frugality and finiteness.
    """
    t0 = time.perf_counter()
    problem = generate()
    method = bench.method_for_problem(method_name, problem, design_seed=seed)
    valid = params.validate_params(method.params).passed
    setup = time.perf_counter() - t0

    report, solve, violations = gate.checked_execute(
        bench.execute, method, problem, budget,
        stop=0.0, rel_stop=0.0, record_objective=True, trace=trace)
    return setup, solve, report, ([] if valid else ["parameters fail validation"]) + violations


def _record(stratum, setup, solve, report, k, violations):
    iters = max(report.iterations, 1)
    return {
        "stratum": stratum,
        "setup_s": [setup],
        "solve_s": [solve],
        "iterations": [report.iterations],
        "iters_to_tol": [k] if k else [],
        "time_to_tol_s": [setup + solve * k / iters] if k else [],
        "wall_s": setup + solve,
        "increments": _increments_us(report.elapsed_ms),
        "violations": violations,
    }


class ToySfb:
    """sfb+ in lifted form on the toy composite at three routing sizes."""

    def __init__(self, seed):
        seeds = _seeds(seed, TOY_INSTANCES_PER_SIZE * len(TOY_SIZES))
        # sizes interleave, so a partial second pass still covers all three
        self.cases = [size + (s,) for s, size in zip(seeds, TOY_SIZES * TOY_INSTANCES_PER_SIZE)]
        self.references = {}

    @staticmethod
    def config(case):
        n, m, _, s = case
        return ToyProblemConfig(n=n, d=20, p=30, m=m, seed=s)

    def prepare(self):
        for case in self.cases:
            self.references[case] = gate.toy_reference(self.config(case))

    def run_case(self, case):
        n, m, budget, s = case
        setup, solve, report, violations = _design_and_solve(
            lambda: problems.gen_toy_problem(self.config(case)), "sfb+", s, budget, trace=False)
        x_ref, f_ref = self.references[case]
        scale = max(1.0, abs(f_ref))
        gap = report.objective - f_ref
        k = gate.first_at_or_below(gap, TOY_REL_TOL * scale)
        if report.iterations and np.min(gap) < -1e-9 * scale:
            violations.append(f"objective {np.min(gap):.3e} below the reference optimum")
        if k is None or gap[-1] > TOY_REL_TOL * scale:
            violations.append("objective gap misses its tolerance within the budget")
        x_scale = max(1.0, float(np.linalg.norm(x_ref)))
        violations += gate.certificate_violations(report, x_scale, TOY_CERTIFICATE_RTOL)
        if not np.linalg.norm(report.consensus - x_ref) <= TOY_CERTIFICATE_RTOL * x_scale:
            violations.append("consensus point is far from the reference minimizer")
        return _record(f"n{n}m{m}", setup, solve, report, k, violations)


class PortfolioGfb:
    """gfb in minimal form, with ``trace=True``, on the default portfolio."""

    def __init__(self, seed):
        self.cases = _seeds(seed, PORTFOLIO_INSTANCES)
        self.references = {}

    def prepare(self):
        for s in self.cases:
            problem = problems.gen_portfolio_problem(PortfolioProblemConfig(seed=s))
            method = bench.method_for_problem("gfb", problem, design_seed=s)
            ref, _, bad = gate.checked_execute(bench.execute, method, problem, PORTFOLIO_REFERENCE_ITERS,
                                               stop=0.0, rel_stop=1e-12, record_objective=False)
            bad += gate.certificate_violations(ref, max(1.0, float(np.linalg.norm(ref.consensus))),
                                               PORTFOLIO_CERTIFICATE_RTOL)
            if bad:
                raise RuntimeError(f"portfolio reference for seed {s} failed: {bad}")
            self.references[s] = ref.consensus

    def run_case(self, s):
        setup, solve, report, violations = _design_and_solve(
            lambda: problems.gen_portfolio_problem(PortfolioProblemConfig(seed=s)), "gfb", s,
            PORTFOLIO_BUDGET, trace=True)
        x_ref = self.references[s]
        dist = np.array([np.linalg.norm(x.mean(axis=0) - x_ref) for x in report.x_trace])
        k = gate.first_at_or_below(dist, PROGRESS_TOL * dist[0]) if dist.size else None
        if not dist.size or dist[-1] > dist[0]:
            violations.append("distance to the reference solution grew over the budget")
        violations += gate.certificate_violations(report, max(1.0, float(np.linalg.norm(x_ref))),
                                                  PORTFOLIO_CERTIFICATE_RTOL)
        return _record("portfolio", setup, solve, report, k, violations)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) if r[key] else np.nan for r in rows])
            for key in ("fp_residual", "variance", "objective", "elapsed_ms")}


class CompareHetero:
    """In-process ``minisplit bench`` on the toy-hetero suite, one repeat."""

    def __init__(self, seed, workdir):
        self.cases = _seeds(seed, COMPARE_INSTANCES)
        self.workdir = workdir
        self.references = {}

    def prepare(self):
        for s in self.cases:
            self.references[s] = gate.toy_reference(ToyProblemConfig(seed=s, hetero=True))

    def _setup_probe(self, s):
        # the design work compare does per method, timed on the same instances;
        # the median over methods is a closed-form design (gfb, agfb), so the
        # routing of sfb+ shows in wall_s here and in setup_s on toy-sfb
        times = []
        for name in COMPARE_METHODS:
            need = bench.required_forward_count(name, 5)
            t0 = time.perf_counter()
            cfg = ToyProblemConfig(seed=s, hetero=True, m=5 if need is None else need)
            method = bench.method_for_problem(name, problems.gen_toy_problem(cfg), design_seed=s)
            valid = params.validate_params(method.params).passed
            times.append(time.perf_counter() - t0)
            if not valid:
                raise RuntimeError(f"{name} parameters fail validation")
        return times

    def _gate_bindings(self, violations, solves):
        generate_fn, execute_fn = bench.gen_toy_problem, bench.execute
        counters_of = {}

        def generate(*args, **kwargs):
            instrumented, counters = gate.counted(generate_fn(*args, **kwargs))
            counters_of[id(instrumented)] = (instrumented, counters)
            return instrumented

        def execute(method, problem, iters, **kwargs):
            counters = counters_of[id(problem)][1]
            before = [c.count for c in counters]
            t0 = time.perf_counter()
            report = execute_fn(method, problem, iters, **kwargs)
            solves.append((report.iterations, time.perf_counter() - t0))
            violations.extend(gate.frugality_violations(counters, before, report.iterations))
            violations.extend(gate.finiteness_violations(report))
            return report

        return [(bench, "gen_toy_problem", generate), (bench, "execute", execute)]

    def run_case(self, s):
        setups = self._setup_probe(s)
        violations, solves = [], []
        with tempfile.TemporaryDirectory(dir=self.workdir) as out:
            argv = ["bench", "--suite", "toy-hetero", "--methods", ",".join(COMPARE_METHODS),
                    "--repeats", "1", "--seed", str(s), "--out", out,
                    "--iters", str(COMPARE_ITERS), "--reference-iters", str(COMPARE_REFERENCE_ITERS),
                    "--timing"]
            with patched(self._gate_bindings(violations, solves)), contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - t0
            if code != 0:
                return {"violations": [f"minisplit bench exited {code}"]}
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            runs = []
            for name in COMPARE_METHODS:
                stem = os.path.join(out, name.replace("+", "plus"), "rep000")
                with open(stem + ".json", encoding="utf-8") as fh:
                    runs.append((name, _read_csv(stem + ".csv"), json.load(fh)["final"]))

        _, f_ref = self.references[s]
        scale = max(1.0, abs(f_ref))
        # the call's solve is every execute it makes: reference solves and method runs
        record = {"stratum": "compare", "setup_s": setups,
                  "solve_s": [sum(t for _, t in solves)], "iterations": [sum(k for k, _ in solves)],
                  "iters_to_tol": [], "time_to_tol_s": [], "wall_s": wall,
                  "increments": [], "violations": violations}
        for name, series, final in runs:
            iters = final["iterations"]
            gap = series["objective"] - f_ref
            if iters != gap.size or iters < 1:
                violations.append(f"{name}: sidecar reports {iters} iterations, CSV has {gap.size}")
                continue
            for key, values in series.items():
                if not np.all(np.isfinite(values)):
                    violations.append(f"{name}: CSV column {key} is not finite")
            for key in ("consensus_gap", "inclusion_residual"):
                if not np.isfinite(final[key]):
                    violations.append(f"{name}: {key} is not finite")
            if np.min(gap) < -1e-9 * scale:
                violations.append(f"{name}: objective {np.min(gap):.3e} below the reference optimum")
            if gap[-1] > PROGRESS_TARGET * gap[0]:
                violations.append(f"{name}: objective gap did not shrink enough within the budget")
            cli_ref = series["objective"][-1] - summary["methods"][name]["final_residuals"][0]
            if not -1e-9 * scale <= cli_ref - f_ref <= COMPARE_REFERENCE_RTOL * scale:
                violations.append(f"{name}: reference objective off by {cli_ref - f_ref:.3e}")
            k = gate.first_at_or_below(gap, PROGRESS_TOL * gap[0])
            record["increments"].append(_increments_us(series["elapsed_ms"]))
            if k:
                record["iters_to_tol"].append(k)
        record["increments"] = np.concatenate(record["increments"]) if record["increments"] else np.zeros(0)
        return record
