import dataclasses
import json

import numpy as np
import pytest

from minisplit import bench, cli, engine
from minisplit import params as params_module
from minisplit.bench import (
    compare,
    iterations_to_threshold,
    method_for_problem,
    reference_solution,
    required_forward_count,
    run_experiment,
)
from minisplit.errors import DivergenceError, ParameterError
from minisplit.params import params_from_dict, params_to_dict, save_params, validate_params
from minisplit.problems import PortfolioProblemConfig, ToyProblemConfig, gen_toy_problem


@pytest.fixture(scope="module")
def toy():
    cfg = ToyProblemConfig(n=4, d=6, p=8, m=3, seed=0)
    return cfg, gen_toy_problem(cfg)


@pytest.fixture
def validations(monkeypatch):
    """Bundles passed to ``validate_params`` through any module that binds it."""
    calls = []

    def counting(params):
        calls.append(params)
        return validate_params(params)

    for module in (params_module, engine, bench, cli):
        monkeypatch.setattr(module, "validate_params", counting)
    return calls


class TestMethodRegistry:
    def test_forward_counts(self):
        assert required_forward_count("sfb+", 5) is None
        assert required_forward_count("drs", 5) == 0
        assert required_forward_count("gfb", 5) == 4
        assert required_forward_count("agfb", 5) == 10
        with pytest.raises(ParameterError):
            required_forward_count("nope", 5)

    def test_mismatch_rejected(self):
        cfg = ToyProblemConfig(n=4, d=6, p=8, m=2, seed=0)
        with pytest.raises(ParameterError):
            method_for_problem("gfb", gen_toy_problem(cfg))  # needs m = n-1 = 3

    def test_two_resolvent_methods_need_two_blocks(self, toy):
        _, prob = toy
        with pytest.raises(ParameterError):
            method_for_problem("dy", prob)

    def test_same_seed_shares_design(self, toy):
        _, prob = toy
        a = method_for_problem("sfb+", prob, design_seed=5)
        b = method_for_problem("sfb+randp", prob, design_seed=5)
        np.testing.assert_array_equal(a.params.causal.H, b.params.causal.H)
        np.testing.assert_array_equal(a.params.M, b.params.M)
        assert b.params.P.shape[1] > 0
        top = np.linalg.svd(b.params.P, compute_uv=False)[0]
        assert abs(top**2 - 0.5) < 1e-10


class TestRunExperiment:
    def test_csv_and_sidecar(self, toy, tmp_path):
        cfg, prob = toy
        desc = method_for_problem("sfb+", prob, design_seed=1)
        out = tmp_path / "run.csv"
        report = run_experiment(desc, prob, 30, 1, out, config={"kind": "toy"})
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,fp_residual,variance,objective,elapsed_ms"
        assert len(lines) == report.iterations + 1
        assert all(line.endswith(",") for line in lines[1:])  # no wall times by default
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert sidecar["config"] == {"kind": "toy"}
        assert sidecar["validation"]["passed"] is True
        rebuilt = params_from_dict(sidecar["params"])
        np.testing.assert_array_equal(rebuilt.S, desc.params.S)

    @pytest.mark.parametrize("name", ["sfb+", "gfb"])
    def test_validates_once(self, name, toy, tmp_path, validations):
        _, prob = toy
        desc = method_for_problem(name, prob, design_seed=1)
        report = run_experiment(desc, prob, 5, 1, tmp_path / "run.csv")
        assert len(validations) == 1
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert report.validation == validate_params(validations[0])
        assert sidecar["validation"] == report.validation.to_dict()

    def test_deterministic_bytes(self, toy, tmp_path):
        cfg, prob = toy
        desc = method_for_problem("sfb+", prob, design_seed=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(desc, prob, 25, 7, a)
        run_experiment(desc, prob, 25, 7, b)
        assert a.read_bytes() == b.read_bytes()

    def test_timing_opt_in(self, toy, tmp_path):
        cfg, prob = toy
        desc = method_for_problem("sfb+", prob, design_seed=2)
        out = tmp_path / "t.csv"
        run_experiment(desc, prob, 5, 7, out, timing=True)
        first = out.read_text().splitlines()[1]
        assert not first.endswith(",")


class TestCompare:
    def test_single_method_single_repeat_matches_run(self, tmp_path):
        cfg = ToyProblemConfig(n=4, d=6, p=8, m=3, seed=11)
        summary = compare(["sfb+"], cfg, 1, tmp_path / "cmp",
                          iters=200, reference_iters=3000)
        stats = summary["methods"]["sfb+"]
        assert summary["repeats"] == 1
        assert len(stats["final_records"]) == 1
        rec = stats["final_records"][0]
        sidecar = json.loads((tmp_path / "cmp" / "sfbplus" / "rep000.json").read_text())
        assert sidecar["final"]["iterations"] == rec["iterations"]
        assert sidecar["final"]["fp_residual"] == rec["fp_residual"]
        if stats["reached"]:
            assert stats["median_iters_to_threshold"] == stats["iters_to_threshold"][0]

    def test_fixed_seed_reproduces_summary(self, tmp_path):
        cfg = ToyProblemConfig(n=3, d=5, p=6, m=2, seed=21)
        s1 = compare(["sfb+", "sdy"], cfg, 2, tmp_path / "c1", iters=150, reference_iters=2000)
        s2 = compare(["sfb+", "sdy"], cfg, 2, tmp_path / "c2", iters=150, reference_iters=2000)
        assert s1 == s2

    def test_structural_methods_get_their_own_split(self, tmp_path):
        cfg = ToyProblemConfig(n=4, d=5, p=8, m=2, seed=31)
        summary = compare(["gfb"], cfg, 1, tmp_path / "c3", iters=100, reference_iters=1000)
        side = json.loads((tmp_path / "c3" / "gfb" / "rep000.json").read_text())
        assert side["config"]["m"] == 3  # n - 1 despite cfg.m = 2

    def test_empty_method_list_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            compare([], ToyProblemConfig(), 1, tmp_path / "c4")

    @pytest.mark.parametrize("arg", ["iters", "reference_iters", "repeats"])
    def test_counts_below_one_rejected(self, arg, tmp_path):
        counts = {"iters": 10, "reference_iters": 10, "repeats": 1, arg: 0}
        with pytest.raises(ParameterError, match=f"^{arg} must be at least 1"):
            compare(["sfb+"], ToyProblemConfig(n=3, d=4, p=6, m=2), out_dir=tmp_path / "c5", **counts)
        assert not (tmp_path / "c5").exists()

    @pytest.mark.parametrize("methods, message", [
        (["gfb", "nosuch"], "unknown method 'nosuch'"),
        (["gfb", "sdy", "gfb"], "listed once"),
    ], ids=["unknown", "repeated"])
    def test_method_names_checked_before_any_work(self, methods, message, tmp_path,
                                                  monkeypatch):
        solved = _count_references(monkeypatch)
        with pytest.raises(ParameterError, match=message):
            compare(methods, ToyProblemConfig(n=3, d=4, p=6, m=2), 1, tmp_path / "c6",
                    iters=10, reference_iters=10)
        assert solved == []
        assert not (tmp_path / "c6").exists()

    def test_reference_needs_an_iteration(self, toy):
        _, prob = toy
        with pytest.raises(ParameterError, match="iters"):
            reference_solution(prob, iters=0)


def _count_references(monkeypatch):
    """Record the forward count of every problem compare solves a reference on."""
    solved = []

    def counted(problem, **kwargs):
        solved.append(problem.m)
        return reference_solution(problem, **kwargs)

    monkeypatch.setattr(bench, "reference_solution", counted)
    return solved


class TestSharedReference:
    @pytest.mark.parametrize("methods", [["sfb+", "gfb", "agfb"], ["gfb", "agfb", "rfb"],
                                         ["sdy"], ["graph-drs", "sfb+randp"]])
    def test_toy_suites_solve_one_reference_per_repeat(self, methods, monkeypatch, tmp_path):
        solved = _count_references(monkeypatch)
        cfg = ToyProblemConfig(n=4, d=5, p=8, m=2, seed=31, hetero=True)
        compare(methods, cfg, 3, tmp_path / "c", iters=20, reference_iters=50)
        assert solved == [2, 2, 2]  # at the config's own m, whatever the methods need

    def test_portfolio_solves_one_reference_per_chunk_count(self, monkeypatch, tmp_path):
        solved = _count_references(monkeypatch)
        cfg = PortfolioProblemConfig(d=4, p=60, chunks=3, seed=1, turnover_weight=0.01)
        compare(["sfb+", "gfb", "sdy", "agfb"], cfg, 2, tmp_path / "c", iters=5, reference_iters=20)
        assert solved == [3, 4, 10] * 2

    def test_structural_methods_match_their_own_reference(self, tmp_path):
        # the shared reference stands in for the one each structural method's
        # own split would give: the gaps agree to rounding, the hits exactly
        cfg = ToyProblemConfig(n=4, d=5, p=8, m=2, seed=31)
        summary = compare(["gfb", "agfb"], cfg, 2, tmp_path / "c", iters=300, reference_iters=3000)
        reached = 0
        for name, m in (("gfb", 3), ("agfb", 6)):
            stats = summary["methods"][name]
            for rep in range(2):
                own_cfg = dataclasses.replace(cfg, m=m, seed=cfg.seed + rep)
                f_own, _ = reference_solution(gen_toy_problem(own_cfg), iters=3000, design_seed=own_cfg.seed)
                csv = tmp_path / "c" / name / f"rep{rep:03d}.csv"
                objective = np.array([float(row.split(",")[3]) for row in csv.read_text().splitlines()[1:]])
                gap = objective - f_own
                assert abs(stats["final_residuals"][rep] - gap[-1]) <= 1e-12 * max(1.0, abs(f_own))
                assert stats["iters_to_threshold"][rep] == iterations_to_threshold(gap, 1e-5)
                reached += stats["iters_to_threshold"][rep] is not None
        assert reached == 4


def test_portfolio_objective_consistent_across_designs():
    # two independently designed, converged runs of the same instance settle
    # on the same objective value, so the evaluator matches what the methods
    # solve (plain 15k-iteration runs stop about 5e-6 above the optimum)
    from minisplit.bench import reference_solution
    from minisplit.problems import gen_portfolio_problem

    cfg = PortfolioProblemConfig(d=4, p=60, chunks=3, seed=5, turnover_weight=0.01)
    prob = gen_portfolio_problem(cfg)
    f_ref, _ = reference_solution(prob, iters=15_000, design_seed=5)
    f_other, _ = reference_solution(prob, iters=15_000, design_seed=6)
    assert abs(f_other - f_ref) <= 1e-6


class TestCli:
    def test_validate_pass_and_fail(self, toy, tmp_path, capsys):
        _, prob = toy
        desc = method_for_problem("sfb+", prob, design_seed=3)
        good = tmp_path / "good.json"
        save_params(desc.params, good)
        assert cli.main(["validate", "--params", str(good)]) == 0
        doc = json.loads(good.read_text())
        doc["M"] = [1.0] * len(doc["M"])  # destroys the zero-column-sum property
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["validate", "--params", str(bad)]) == 1

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_malformed_params_document_exits_1(self, command, toy, tmp_path, capsys):
        _, prob = toy
        doc = params_to_dict(method_for_problem("sfb+", prob, design_seed=3).params)
        doc["M"] = doc["M"][:2]
        for bad_doc, message in (({"n": 4}, "lacks m, F"), (doc, "field M must hold 4 x 3")):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(bad_doc))
            argv = ["validate", "--params", str(bad)] if command == "validate" else [
                "run", "--problem", "toy", "--method", str(bad), "--iters", "5",
                "--out", str(tmp_path / "o.csv"), "--n", "4", "--d", "6", "--p", "8", "--m", "3",
            ]
            assert cli.main(argv) == 1
            assert message in "".join(capsys.readouterr())

    @pytest.mark.parametrize("key, value", [("n", 3.7), ("m", True), ("F", [0, 0.6, 2, 3])])
    def test_validate_rejects_non_integer_sizes(self, key, value, toy, tmp_path, capsys):
        _, prob = toy
        doc = params_to_dict(method_for_problem("sfb+", prob, design_seed=3).params)
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["validate", "--params", str(bad)]) == 1
        assert f"field {key} must" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [("beta", [True, 1.0, 1.0]), ("theta", "0.5"),
                                            ("M", ["0.1"] * 12)])
    def test_validate_rejects_non_numeric_float_fields(self, key, value, toy, tmp_path, capsys):
        _, prob = toy
        doc = params_to_dict(method_for_problem("sfb+", prob, design_seed=3).params)
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["validate", "--params", str(bad)]) == 1
        assert f"field {key} must hold" in capsys.readouterr().out

    def test_validate_missing_file_is_io_error(self, tmp_path):
        assert cli.main(["validate", "--params", str(tmp_path / "absent.json")]) == 2

    def test_run_toy_with_preset(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli.main([
            "run", "--problem", "toy", "--method", "sfb+", "--iters", "40",
            "--seed", "3", "--out", str(out),
            "--n", "3", "--d", "5", "--p", "6", "--m", "2",
        ])
        assert code == 0
        assert out.exists() and (tmp_path / "run.json").exists()
        final = json.loads(capsys.readouterr().out)
        assert final["iterations"] <= 40

    def test_run_with_params_file(self, tmp_path):
        cfg_args = ["--n", "3", "--d", "5", "--p", "6", "--m", "2"]
        prob = gen_toy_problem(ToyProblemConfig(n=3, d=5, p=6, m=2, seed=4))
        desc = method_for_problem("sfb+", prob, design_seed=4)
        pfile = tmp_path / "params.json"
        save_params(desc.params, pfile)
        out = tmp_path / "r.csv"
        code = cli.main([
            "run", "--problem", "toy", "--method", str(pfile), "--iters", "10",
            "--seed", "4", "--out", str(out), *cfg_args,
        ])
        assert code == 0

    @pytest.mark.parametrize("name", ["sfb+", "sfb+randp"])
    def test_sidecar_params_replay_the_preset(self, name, tmp_path):
        argv = ["run", "--problem", "toy", "--iters", "200", "--seed", "3"]
        assert cli.main([*argv, "--method", name, "--out", str(tmp_path / "preset.csv")]) == 0
        sidecar = json.loads((tmp_path / "preset.json").read_text())
        (tmp_path / "p.json").write_text(json.dumps(sidecar["params"]))
        assert cli.main([*argv, "--method", str(tmp_path / "p.json"),
                         "--out", str(tmp_path / "replay.csv")]) == 0
        assert (tmp_path / "preset.csv").read_bytes() == (tmp_path / "replay.csv").read_bytes()

    def test_run_validates_once(self, tmp_path, validations):
        code = cli.main([
            "run", "--problem", "toy", "--method", "agfb", "--iters", "5",
            "--out", str(tmp_path / "r.csv"), "--n", "3", "--d", "5", "--p", "6", "--m", "3",
        ])
        assert code == 0
        assert len(validations) == 1

    def test_run_params_problem_mismatch(self, tmp_path, capsys):
        prob = gen_toy_problem(ToyProblemConfig(n=3, d=5, p=6, m=2, seed=4))
        desc = method_for_problem("sfb+", prob, design_seed=4)
        pfile = tmp_path / "params.json"
        save_params(desc.params, pfile)
        code = cli.main([
            "run", "--problem", "toy", "--method", str(pfile), "--iters", "5",
            "--seed", "4", "--out", str(tmp_path / "x.csv"),
            "--n", "5", "--d", "5", "--p", "6", "--m", "2",
        ])
        assert code == 1
        assert "do not match problem counts (n=5, m=2)" in capsys.readouterr().err

    def test_run_portfolio(self, tmp_path):
        out = tmp_path / "p.csv"
        code = cli.main([
            "run", "--problem", "portfolio", "--method", "gfb", "--iters", "30",
            "--seed", "5", "--out", str(out), "--assets", "4", "--days", "40",
            "--chunks", "4",
        ])
        assert code == 0

    def test_bench_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = cli.main([
            "bench", "--suite", "toy-homo", "--methods", "sfb+,sdy",
            "--repeats", "1", "--seed", "6", "--out", str(out),
            "--iters", "120", "--reference-iters", "1500",
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["methods"]) == {"sfb+", "sdy"}

    @pytest.mark.parametrize("methods, message", [
        ("gfb,nosuch", "unknown method 'nosuch'"),
        ("gfb,gfb", "listed once"),
    ], ids=["unknown", "repeated"])
    def test_bench_bad_method_list_exits_1(self, methods, message, tmp_path, capsys):
        out = tmp_path / "bench"
        code = cli.main(["bench", "--suite", "toy-homo", "--methods", methods, "--repeats", "2",
                         "--out", str(out), "--iters", "10", "--reference-iters", "10"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--iters", "--reference-iters", "--repeats"])
    def test_bench_count_below_one_exits_1(self, flag, tmp_path, capsys):
        argv = ["bench", "--suite", "toy-homo", "--methods", "sfb+", "--repeats", "1",
                "--out", str(tmp_path / "bench"), "--iters", "10", "--reference-iters", "10"]
        argv[argv.index(flag) + 1] = "0"
        assert cli.main(argv) == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_divergence_exit_code(self, monkeypatch, tmp_path):
        def boom(*args, **kwargs):
            raise DivergenceError("runaway residual")

        monkeypatch.setattr(cli, "run_experiment", boom)
        code = cli.main([
            "run", "--problem", "toy", "--method", "sfb+", "--iters", "5",
            "--seed", "0", "--out", str(tmp_path / "d.csv"),
        ])
        assert code == 3

    def test_bad_returns_csv_is_io_error(self, tmp_path):
        data = tmp_path / "r.csv"
        data.write_text("0.1,0.2\n0.3,bad\n")
        code = cli.main([
            "run", "--problem", "portfolio", "--method", "sfb+", "--iters", "5",
            "--seed", "0", "--out", str(tmp_path / "o.csv"), "--data", str(data),
        ])
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("0.1,0.2\n0.3,nan\n" * 5, "row 2, column 2: not a finite number"),
        ("0.1,inf\n0.3,0.2\n" * 5, "row 1, column 2: not a finite number"),
        ("0.1\n-0.2\n" * 5, "at least two asset columns, found 1"),
    ], ids=["nan", "inf", "one-column"])
    def test_bad_returns_values_are_io_errors(self, text, message, tmp_path, capsys):
        data = tmp_path / "f.csv"
        data.write_text(text)
        code = cli.main([
            "run", "--problem", "portfolio", "--method", "gfb", "--iters", "5",
            "--seed", "0", "--out", str(tmp_path / "o.csv"), "--data", str(data),
        ])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_overflowing_returns_are_io_errors(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        np.savetxt(data, np.random.default_rng(0).uniform(0.5, 1.5, (8, 2)) * 1e200, delimiter=",")
        code = cli.main([
            "run", "--problem", "portfolio", "--method", "gfb", "--iters", "5",
            "--seed", "0", "--out", str(tmp_path / "o.csv"), "--data", str(data),
        ])
        assert code == 2
        assert "covariance of chunk 1 is not finite" in capsys.readouterr().err

    def test_preset_name_wins_over_a_path_of_that_name(self, tmp_path, monkeypatch):
        # `minisplit bench --out .` leaves a gfb/ directory behind
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gfb").mkdir()
        code = cli.main([
            "run", "--problem", "toy", "--method", "gfb", "--iters", "10",
            "--seed", "0", "--out", "g.csv", "--n", "3", "--d", "5", "--p", "6", "--m", "2",
        ])
        assert code == 0
        assert json.loads((tmp_path / "g.json").read_text())["method"]["name"] == "GFB"
