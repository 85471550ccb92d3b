"""The benchmark's accuracy measure does not depend on the run form.

sfb+ can run in minimal form (state z, residual ||dz||) or lifted form (state
w = M z, residual ||M dz||); on the complete graph the residuals differ by a
factor sqrt(n) while the x-trajectories agree. ``iters_to_tol`` is judged on
the objective, so it must agree between the forms.
"""

import numpy as np

import gate
import workloads
from minisplit import engine, params, problems
from minisplit.bench import method_for_problem
from minisplit.problems import ToyProblemConfig


def test_iters_to_tol_is_the_same_in_minimal_and_lifted_form():
    n, m, budget, seed = workloads.ToySfb(seed=1).cases[1]
    cfg = ToyProblemConfig(n=n, d=20, p=30, m=m, seed=seed)
    problem = problems.gen_toy_problem(cfg)
    method = method_for_problem("sfb+", problem, design_seed=seed)
    causal = method.params.causal
    minimal_params = params.assemble(params.factor_laplacian(method.laplacian), None, causal,
                                     method.params.beta, method.params.theta)
    minimal = engine.run(minimal_params, problem, max_iters=budget, stop=0.0, rel_stop=0.0)
    lifted = engine.run_lifted(method.laplacian, causal, method.params.beta, method.params.theta,
                               problem, max_iters=budget, stop=0.0, rel_stop=0.0)

    _, f_ref = gate.toy_reference(cfg)
    tol = workloads.TOY_REL_TOL * max(1.0, abs(f_ref))
    k_minimal = gate.first_at_or_below(minimal.objective - f_ref, tol)
    k_lifted = gate.first_at_or_below(lifted.objective - f_ref, tol)
    assert k_minimal is not None
    assert k_minimal == k_lifted
    ratio = lifted.fp_residual / minimal.fp_residual
    assert not np.allclose(ratio, 1.0, rtol=0.1)
    np.testing.assert_allclose(ratio, np.sqrt(n), rtol=1e-6)
