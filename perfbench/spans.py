"""Span recorder and the bindings it wraps in the traced run.

A span is one call into a library function: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it started (its
parent, -1 at top level) and the benchmark instance it belongs to. Spans are
kept in memory in typed columns and written once, when the run ends.

Spans are recorded from the benchmark's own files only: the traced run swaps
module-level bindings of the library (for example
``minisplit.heuristics.top_singular_triple``) for wrappers and restores them
afterwards, so the untraced measurement runs the library untouched.
"""

import array
import contextlib
import functools
import time

import numpy as np


class SpanRecorder:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.instance = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._open = []
        #: Benchmark instance that new spans are attributed to.
        self.instance_id = -1

    def begin(self, name):
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._open[-1] if self._open else -1)
        self.instance.append(self.instance_id)
        self.end.append(float("nan"))
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError("spans must close in the order they opened")

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.finish(idx)

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def columns(self):
        """The spans as numpy columns (``name`` holds indices into ``names``)."""
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "instance": np.frombuffer(self.instance, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.columns())


def self_times(start, end, parent):
    """Per-span self time: duration minus the time its child spans cover.

    Spans of one thread nest, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def layer_totals(recorder):
    """``{name: (calls, inclusive seconds, self seconds)}`` over all spans."""
    cols = recorder.columns()
    dur = cols["end"] - cols["start"]
    own = self_times(cols["start"], cols["end"], cols["parent"])
    out = {}
    for ident, name in enumerate(recorder.names):
        sel = cols["name"] == ident
        out[name] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
    return out


@contextlib.contextmanager
def patched(bindings):
    """Swap ``(owner, attribute, replacement)`` bindings; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
    try:
        for owner, attr, replacement in bindings:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LayerTrace:
    """Span wrappers for the library layers the benchmark reports on.

    ``routing`` logs ``(steps, converged)`` per routing optimization and
    ``executes`` logs ``(span index, iterations, n + m)`` per ``execute``
    call, so per-layer counts come from the calls themselves.
    """

    def __init__(self):
        self.recorder = SpanRecorder()
        self.routing = []
        self.executes = []

    def problem(self, problem):
        """Copy of ``problem`` whose oracles and objective record spans."""
        from minisplit.oracles import ForwardOracle, ProblemSpec, ResolventOracle

        rec = self.recorder
        return ProblemSpec(
            resolvents=tuple(
                ResolventOracle(rec.wrap("oracles.resolvent", r.evaluate), r.descriptor)
                for r in problem.resolvents
            ),
            forwards=tuple(
                ForwardOracle(rec.wrap("oracles.forward", f.evaluate), f.beta, f.descriptor)
                for f in problem.forwards
            ),
            dimension=problem.dimension,
            objective=None if problem.objective is None
            else rec.wrap("problems.objective", problem.objective),
            label=problem.label,
        )

    def bindings(self):
        """``(owner, attribute, wrapper)`` triples for :func:`patched`."""
        from minisplit import bench, cli, engine, heuristics, linalg, params, presets, problems

        rec = self.recorder
        routing_fn = heuristics.optimize_routing
        execute_fn = bench.execute

        def optimize_routing(*args, **kwargs):
            result = routing_fn(*args, **kwargs)
            self.routing.append((result.iterations_used, result.converged))
            return result

        def execute(method, problem, iters, **kwargs):
            idx = rec.begin("engine.execute")
            try:
                report = execute_fn(method, problem, iters, **kwargs)
            finally:
                rec.finish(idx)
            self.executes.append((idx, report.iterations, problem.n + problem.m))
            return report

        def generator(fn):
            def generate(*args, **kwargs):
                with rec.span("problems.generate"):
                    problem = fn(*args, **kwargs)
                return self.problem(problem)

            return generate

        singular = rec.wrap("linalg.top_singular_triple", linalg.top_singular_triple)
        validate = rec.wrap("params.validate_params", params.validate_params)
        toy = generator(problems.gen_toy_problem)
        portfolio = generator(problems.gen_portfolio_problem)
        return [
            (heuristics, "optimize_routing", rec.wrap("heuristics.optimize_routing", optimize_routing)),
            (heuristics, "top_singular_triple", singular),
            (linalg, "top_singular_triple", singular),
            (engine, "consensus_variance", rec.wrap("linalg.consensus_variance", engine.consensus_variance)),
            (heuristics, "assemble", rec.wrap("params.assemble", heuristics.assemble)),
            (bench, "assemble", rec.wrap("params.assemble", bench.assemble)),
            (presets, "from_components", rec.wrap("params.assemble", presets.from_components)),
            (params, "validate_params", validate),
            (engine, "validate_params", validate),
            (bench, "validate_params", validate),
            (bench, "method_for_problem", rec.wrap("bench.method_for_problem", bench.method_for_problem)),
            (bench, "reference_solution", rec.wrap("bench.reference_solution", bench.reference_solution)),
            (bench, "execute", execute),
            (bench, "run_experiment", rec.wrap("bench.run_experiment", bench.run_experiment)),
            (engine.RunReport, "write_csv", rec.wrap("engine.write_csv", engine.RunReport.write_csv)),
            (cli, "main", rec.wrap("cli.main", cli.main)),
            (problems, "gen_toy_problem", toy),
            (bench, "gen_toy_problem", toy),
            (problems, "gen_portfolio_problem", portfolio),
            (bench, "gen_portfolio_problem", portfolio),
        ]

    def metrics(self):
        """Per-layer metrics over every span recorded so far."""
        totals = layer_totals(self.recorder)
        cols = self.recorder.columns()
        own = self_times(cols["start"], cols["end"], cols["parent"])
        names = self.recorder.names

        def total(name):
            return totals.get(name, (0, 0.0, 0.0))

        exec_idx = np.array([e[0] for e in self.executes], dtype=int)
        iterations = sum(e[1] for e in self.executes)
        oracle_calls = total("oracles.forward")[0] + total("oracles.resolvent")[0]
        frugal_calls = sum(e[1] * e[2] for e in self.executes)
        ref_iters = 0
        if "bench.reference_solution" in names:
            ref_id = names.index("bench.reference_solution")
            parents = cols["parent"][exec_idx] if exec_idx.size else exec_idx
            for (_, iters, _), parent in zip(self.executes, parents):
                if parent >= 0 and cols["name"][parent] == ref_id:
                    ref_iters += iters
        engine_self = float(own[exec_idx].sum()) if exec_idx.size else 0.0
        cli_s = total("cli.main")[1]
        steps = [r[0] for r in self.routing]
        converged = [r[1] for r in self.routing]

        out = {
            "heuristics.optimize_routing.s": (total("heuristics.optimize_routing")[1], "s"),
            "heuristics.optimize_routing.calls": (len(self.routing), "count"),
            "heuristics.optimize_routing.steps": (int(sum(steps)), "count"),
            "heuristics.optimize_routing.converged_ratio": (
                float(np.mean(converged)) if converged else 0.0, "ratio"),
            "linalg.top_singular_triple.s": (total("linalg.top_singular_triple")[1], "s"),
            "linalg.top_singular_triple.calls": (total("linalg.top_singular_triple")[0], "count"),
            "oracles.forward.s": (total("oracles.forward")[1], "s"),
            "oracles.forward.calls": (total("oracles.forward")[0], "count"),
            "oracles.resolvent.s": (total("oracles.resolvent")[1], "s"),
            "oracles.resolvent.calls": (total("oracles.resolvent")[0], "count"),
            "oracles.calls_per_iter": (oracle_calls / iterations if iterations else 0.0, "count"),
            "oracles.frugality": (oracle_calls / frugal_calls if frugal_calls else 0.0, "ratio"),
            "engine.execute.s": (total("engine.execute")[1], "s"),
            "engine.iterations": (iterations, "count"),
            "engine.self_s": (engine_self, "s"),
            "engine.self_us_per_iter": (engine_self / iterations * 1e6 if iterations else 0.0, "us"),
            "linalg.consensus_variance.s": (total("linalg.consensus_variance")[1], "s"),
            "problems.objective.s": (total("problems.objective")[1], "s"),
            "problems.objective.calls": (total("problems.objective")[0], "count"),
            "problems.generate.s": (total("problems.generate")[1], "s"),
            "params.assemble.s": (total("params.assemble")[1], "s"),
            "params.validate_params.s": (total("params.validate_params")[1], "s"),
            "bench.method_for_problem.s": (total("bench.method_for_problem")[1], "s"),
            "bench.reference_solution.s": (total("bench.reference_solution")[1], "s"),
            "bench.reference_solution.calls": (total("bench.reference_solution")[0], "count"),
            "bench.reference_solution.iters": (ref_iters, "count"),
            "bench.reference_solution.share": (
                total("bench.reference_solution")[1] / cli_s if cli_s else 0.0, "ratio"),
            "bench.run_experiment.s": (total("bench.run_experiment")[1], "s"),
            "engine.write_csv.s": (total("engine.write_csv")[1], "s"),
            "cli.main.s": (cli_s, "s"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
