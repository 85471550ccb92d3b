"""Command-line interface.

Subcommands:
  validate --params <json>     certify a parameter bundle (exit 0/1)
  run      --problem ... --method ... --iters N --seed S --out run.csv
  bench    --suite ... --methods a,b --repeats R --seed S --out <dir>

Exit codes: 0 success, 1 validation failure, 2 I/O error, 3 divergence.
"""

import argparse
import dataclasses
import json
import os
import sys

from .bench import METHOD_NAMES, compare, method_for_problem, run_experiment
from .engine import DEFAULT_THETA
from .errors import DivergenceError, IngestionError, ParameterError
from .params import load_params, validate_params
from .presets import MethodDescriptor
from .problems import PortfolioProblemConfig, ToyProblemConfig, gen_portfolio_problem, gen_toy_problem

_SUITES = ("toy-homo", "toy-hetero", "portfolio")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="minisplit",
        description="Averaged frugal splitting methods with minimal memory: validator, runner, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="certify a parameter bundle from JSON")
    p_val.add_argument("--params", required=True, help="path to a parameter JSON document")

    p_run = sub.add_parser("run", help="run one method on one problem, writing CSV + JSON")
    p_run.add_argument("--problem", required=True, choices=("toy", "portfolio"))
    p_run.add_argument("--method", required=True,
                       help=f"preset name ({', '.join(METHOD_NAMES)}) or a params JSON path")
    p_run.add_argument("--iters", type=int, default=1000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p_run.add_argument("--stop", type=float, default=0.0, help="absolute residual threshold")
    p_run.add_argument("--timing", action="store_true", help="record wall times in the CSV")
    # toy problem knobs
    p_run.add_argument("--n", type=int, default=5)
    p_run.add_argument("--d", type=int, default=20)
    p_run.add_argument("--p", type=int, default=30)
    p_run.add_argument("--m", type=int, default=5)
    p_run.add_argument("--delta1", type=float, default=0.5)
    p_run.add_argument("--delta2", type=float, default=2.0)
    p_run.add_argument("--hetero", action="store_true")
    # portfolio knobs
    p_run.add_argument("--assets", type=int, default=6)
    p_run.add_argument("--days", type=int, default=123)
    p_run.add_argument("--chunks", type=int, default=4)
    p_run.add_argument("--data", default=None, help="returns CSV (days x assets)")

    p_bench = sub.add_parser("bench", help="seeded multi-method comparison")
    p_bench.add_argument("--suite", required=True, choices=_SUITES)
    p_bench.add_argument("--methods", required=True, help="comma-separated method names")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--iters", type=int, default=5000)
    p_bench.add_argument("--threshold", type=float, default=1e-5)
    p_bench.add_argument(
        "--reference-iters", type=int, default=30000,
        help="iteration cap of each accelerated reference solve (one per repeat "
        "on toy suites, one per chunk count on portfolio); they usually stop at "
        "1e-13 of their first residual well before it",
    )
    p_bench.add_argument("--timing", action="store_true")
    return parser


def _cmd_validate(args):
    try:
        params = load_params(args.params)
    except ParameterError as exc:
        print(json.dumps({"passed": False, "error": str(exc)}, indent=1))
        return 1
    report = validate_params(params)
    print(json.dumps(report.to_dict(), indent=1))
    return 0 if report.passed else 1


def _toy_config(args):
    return ToyProblemConfig(
        n=args.n, d=args.d, p=args.p, m=args.m,
        delta1=args.delta1, delta2=args.delta2,
        seed=args.seed, hetero=args.hetero,
    )


def _portfolio_config(args):
    return PortfolioProblemConfig(
        d=args.assets, p=args.days, chunks=args.chunks,
        seed=args.seed, data=args.data,
    )


def _cmd_run(args):
    if args.problem == "toy":
        cfg = _toy_config(args)
        problem = gen_toy_problem(cfg)
    else:
        cfg = _portfolio_config(args)
        problem = gen_portfolio_problem(cfg)

    # a preset name always selects the preset, even where a file of that name exists
    if args.method not in METHOD_NAMES and (args.method.endswith(".json")
                                            or os.path.exists(args.method)):
        method = MethodDescriptor(name=os.path.basename(args.method),
                                  params=load_params(args.method))
    else:
        method = method_for_problem(args.method, problem, design_seed=args.seed, theta=args.theta)

    report = run_experiment(
        method, problem, args.iters, args.seed, args.out,
        stop=args.stop, timing=args.timing, config=dataclasses.asdict(cfg),
    )
    print(json.dumps(report.final_record(), indent=1))
    return 0


def _cmd_bench(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.suite == "portfolio":
        cfg = PortfolioProblemConfig(seed=args.seed)
    else:
        cfg = ToyProblemConfig(seed=args.seed, hetero=args.suite == "toy-hetero")
    summary = compare(
        methods, cfg, args.repeats, args.out,
        threshold=args.threshold, iters=args.iters,
        reference_iters=args.reference_iters, timing=args.timing,
    )
    lines = [f"{'method':<14} {'median iters to thr.':>22} {'reached':>8}"]
    for name, stats in summary["methods"].items():
        med = stats["median_iters_to_threshold"]
        lines.append(f"{name:<14} {med if med is not None else '-':>22} {stats['reached']:>8}")
    print("\n".join(lines))
    print(f"summary written to {os.path.join(args.out, 'summary.json')}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_bench(args)
    except ParameterError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except (IngestionError, OSError, json.JSONDecodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
