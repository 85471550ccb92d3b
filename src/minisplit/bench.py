"""Experiment runner: method instantiation, persisted runs, comparisons.

A comparison shares the sampled problem data across methods per repeat but
lets each method split the smooth term into the number of forward blocks its
structure requires (the split is a design choice of the algorithm). Runs are
deterministic for fixed seeds; persisted CSVs omit wall times unless timing
is requested explicitly.
"""

import dataclasses
import json
import os

import numpy as np

from .engine import DEFAULT_REL_STOP, run, run_lifted
from .errors import ParameterError
from .graphs import complete_graph, graph_laplacian, path_graph, ring_graph
from .heuristics import sfb_plus_params
from .params import DEFAULT_THETA, assemble, params_to_dict, random_slack
# unused here: perfbench/spans.py wraps bench.validate_params when tracing
from .params import validate_params  # noqa: F401
from .presets import (
    MethodDescriptor,
    agfb_edge_order,
    agfb_params,
    davis_yin_params,
    gfb_params,
    graph_drs_params,
)
from .problems import ToyProblemConfig, gen_portfolio_problem, gen_toy_problem
from .schedule import random_schedule

METHOD_NAMES = ("dy", "drs", "graph-drs", "gfb", "rfb", "sdy", "agfb", "sfb+", "sfb+randp")


def required_forward_count(name, n):
    """Forward-block count a method imposes on the problem; None = flexible."""
    if name in ("drs", "graph-drs"):
        return 0
    if name in ("gfb", "rfb", "sdy"):
        return n - 1
    if name == "agfb":
        return n * (n - 1) // 2
    if name in ("dy", "sfb+", "sfb+randp"):
        return None
    raise ParameterError(f"unknown method {name!r}; pick from {METHOD_NAMES}")


def method_for_problem(name, problem, design_seed=0, theta=DEFAULT_THETA):
    """Instantiate a named method for a concrete problem.

    Random design choices (the schedule for sfb+, the slack for the
    random-slack variant) are drawn from ``design_seed``; two methods built
    with the same seed share those choices where they overlap.
    """
    n, m = problem.n, problem.m
    need = required_forward_count(name, n)
    if need is not None and need != m:
        raise ParameterError(
            f"method {name!r} needs m={need} forward blocks on n={n}, problem has m={m}"
        )

    if name in ("sfb+", "sfb+randp"):
        f = random_schedule(n, m, design_seed)
        params = sfb_plus_params(n, m, f, problem.beta, theta=theta)
        if name == "sfb+":
            return MethodDescriptor(name="SFBplus", params=params, notes=f"schedule {f.tolist()}")
        slack = random_slack(n, 0.5, seed=design_seed)
        noisy = assemble(params.M, slack, params.causal, params.beta, theta)
        return MethodDescriptor(
            name="SFBplus-randP",
            params=noisy,
            notes=f"schedule {f.tolist()}, random slack with norm 0.5",
        )
    if name == "dy":
        if n != 2:
            raise ParameterError("two-resolvent splitting needs n = 2")
        total = float(np.sum(problem.beta))
        gamma = 1.0 / total if total > 0 else 1.0
        return davis_yin_params(gamma, 0.9, beta=problem.beta, theta=theta)
    if name == "drs":
        if n != 2:
            raise ParameterError("two-resolvent splitting needs n = 2")
        return davis_yin_params(1.0, 0.9, 0.0, theta=theta)
    if name == "graph-drs":
        g = complete_graph(n)
        return graph_drs_params(g, g, theta=theta)
    if name in ("gfb", "rfb", "sdy"):
        coupling = {"gfb": complete_graph, "rfb": ring_graph, "sdy": path_graph}[name](n)
        desc = gfb_params(coupling, path_graph(n), problem.beta, theta=theta)
        label = {"gfb": "GFB", "rfb": "RFB", "sdy": "SDY"}[name]
        return dataclasses.replace(desc, name=label)
    # required_forward_count has rejected every other name: this is agfb
    g = complete_graph(n)
    beta_map = {e: float(b) for e, b in zip(agfb_edge_order(g), problem.beta)}
    return agfb_params(g, beta_map, theta=theta)


def execute(method, problem, iters, *, stop=0.0, rel_stop=DEFAULT_REL_STOP, record_objective=True,
            trace=False, accelerate=False):
    """Run a descriptor's bundle in minimal form, from the zero state.

    ``accelerate`` turns on the engine's safeguarded Anderson acceleration;
    compared runs never use it, so they follow their method's own iteration.
    """
    return run(method.params, problem, max_iters=iters, stop=stop, rel_stop=rel_stop,
               record_objective=record_objective, trace=trace, accelerate=accelerate)


def run_experiment(method, problem, iters, seed, out_path, *, stop=0.0, timing=False, config=None, trace=False):
    """Persist one run: CSV of the iteration records plus a JSON sidecar.

    The sidecar echoes the configuration and carries the final metrics, the
    validation report of the bundle that ran (``RunReport.validation``) and
    the serialized parameters, which replay the run when loaded as the
    method. CSV bytes are identical for identical (method, problem, seed)
    unless ``timing`` is on.
    """
    report = execute(method, problem, iters, stop=stop, trace=trace)
    report.write_csv(out_path, timing=timing)

    final = report.final_record()
    final["wall_time_s"] = float(report.elapsed_ms[-1] / 1e3) if report.iterations else 0.0
    sidecar = {
        "config": config or {},
        "method": {"name": method.name, "notes": method.notes},
        "problem": problem.label,
        "seed": seed,
        "iters": iters,
        "final": final,
        "validation": report.validation.to_dict(),
        "params": params_to_dict(method.params),
    }
    sidecar_path = os.path.splitext(str(out_path))[0] + ".json"
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1)
    return report


def _problem_for(cfg, m_blocks, seed):
    if isinstance(cfg, ToyProblemConfig):
        cfg = dataclasses.replace(cfg, m=m_blocks, seed=seed)
        return gen_toy_problem(cfg), cfg
    cfg = dataclasses.replace(cfg, chunks=m_blocks, seed=seed)
    return gen_portfolio_problem(cfg), cfg


def _require_positive(**counts):
    for name, value in counts.items():
        if value < 1:
            raise ParameterError(f"{name} must be at least 1, got {value}")


def reference_solution(problem, iters=30_000, design_seed=0):
    """Optimum estimate: an Anderson-accelerated run of sfb+ on the problem.

    The sfb+ design uses ``DEFAULT_THETA`` and the schedule drawn from
    ``design_seed``. The run stops once its residual falls to 1e-13 of the
    first one, which the acceleration usually reaches in a few thousand
    iterations or fewer, or as ``stalled`` where rounding keeps it above
    that; ``iters`` is only a cap. Returns (objective value, consensus
    point), both at the last accepted iterate.

    The run is in lifted form on the complete graph's laplacian: accelerated
    on the n-block lifted state it converges where the minimal form, with
    its own Anderson history, can stall short of the optimum (default
    portfolio seed 3 ends ``max_iters`` at 1.3e-5 of the first residual).
    """
    _require_positive(iters=iters)
    params = method_for_problem("sfb+", problem, design_seed=design_seed).params
    report = run_lifted(graph_laplacian(complete_graph(problem.n)), params.causal, params.beta,
                        params.theta, problem, max_iters=iters, rel_stop=1e-13,
                        record_objective=False, accelerate=True)
    return float(problem.objective(report.consensus)), report.consensus


def metric_series(report, metric, f_ref, x_ref):
    """Per-iteration residual series for a finished run.

    ``objective``: objective value at the consensus point minus the reference
    optimum (sound when the objective evaluator covers every term).
    ``distance``: distance of the consensus point to the reference solution
    (the right metric when constraints are handled by indicator resolvents,
    whose values the objective evaluator cannot see). Needs a traced run.
    """
    if metric == "objective":
        return report.objective - f_ref
    if metric == "distance":
        if report.x_trace is None:
            raise ParameterError("distance metric needs a traced run")
        return np.array(
            [float(np.linalg.norm(x.mean(axis=0) - x_ref)) for x in report.x_trace]
        )
    raise ParameterError(f"unknown metric {metric!r}")


def iterations_to_threshold(series, threshold):
    """First 1-based iteration whose residual is at or below the threshold."""
    hits = np.nonzero(np.asarray(series) <= threshold)[0]
    return int(hits[0]) + 1 if hits.size else None


def compare(
    methods,
    problem_config,
    repeats,
    out_dir,
    *,
    threshold=1e-5,
    iters=5000,
    reference_iters=30_000,
    timing=False,
):
    """Compare methods over seeded repeats of a problem family.

    Per repeat, every method sees the same sampled data; methods with a
    structural forward count get their own split of the smooth term. The toy
    objective does not depend on the split, so all methods of a toy repeat
    share one reference solution, solved at the config's own m (at least one
    block, so the data term is among the operators); a portfolio chunk count
    changes the covariances, so each count gets its own. Every method runs
    with ``DEFAULT_THETA``. The residual metric follows from the family: the
    objective gap for the toy, whose evaluator covers every term, and the
    distance to the reference solution for the portfolio, whose constraints
    the evaluator cannot see. Writes per-run CSV/JSON artifacts plus a
    machine-readable ``summary.json``; returns the summary dict. An unknown
    or repeated method name raises :class:`ParameterError` before any work.
    """
    if not methods:
        raise ParameterError("need at least one method")
    _require_positive(repeats=repeats, iters=iters, reference_iters=reference_iters)
    is_toy = isinstance(problem_config, ToyProblemConfig)
    n_nodes = problem_config.n if is_toy else 5
    needs = {name: required_forward_count(name, n_nodes) for name in methods}
    if len(needs) != len(methods):
        raise ParameterError(f"each method may be listed once, got {', '.join(methods)}")
    os.makedirs(out_dir, exist_ok=True)
    metric = "objective" if is_toy else "distance"
    base_seed = problem_config.seed
    default_m = problem_config.m if is_toy else problem_config.chunks

    per_method = {name: {"iters_to_threshold": [], "final_residuals": [],
                         "final_fp_residuals": [], "final_records": []} for name in methods}

    for rep in range(repeats):
        rep_seed = base_seed + rep
        ref_cache = {}
        for name, need in needs.items():
            m_blocks = default_m if need is None else need
            problem, cfg = _problem_for(problem_config, m_blocks, rep_seed)
            ref_m = max(default_m, 1) if is_toy else m_blocks
            if ref_m not in ref_cache:
                ref_problem = problem
                if ref_m != m_blocks:
                    ref_problem, _ = _problem_for(problem_config, ref_m, rep_seed)
                ref_cache[ref_m] = reference_solution(
                    ref_problem, iters=reference_iters, design_seed=rep_seed
                )
            f_ref, x_ref = ref_cache[ref_m]

            desc = method_for_problem(name, problem, design_seed=rep_seed)
            method_dir = os.path.join(out_dir, name.replace("+", "plus"))
            os.makedirs(method_dir, exist_ok=True)
            out_csv = os.path.join(method_dir, f"rep{rep:03d}.csv")
            report = run_experiment(
                desc,
                problem,
                iters,
                rep_seed,
                out_csv,
                timing=timing,
                config=dataclasses.asdict(cfg),
                trace=metric == "distance",
            )
            series = metric_series(report, metric, f_ref, x_ref)
            stats = per_method[name]
            stats["iters_to_threshold"].append(iterations_to_threshold(series, threshold))
            stats["final_residuals"].append(float(series[-1]))
            stats["final_fp_residuals"].append(float(report.fp_residual[-1]))
            stats["final_records"].append(report.final_record())

    summary = {
        "config": dataclasses.asdict(problem_config),
        "metric": metric,
        "threshold": threshold,
        "iters": iters,
        "repeats": repeats,
        "methods": {},
    }
    for name, stats in per_method.items():
        reached = [k for k in stats["iters_to_threshold"] if k is not None]
        summary["methods"][name] = {
            "median_iters_to_threshold": float(np.median(reached)) if reached else None,
            "reached": len(reached),
            **stats,
        }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary
