"""Fixed-point engine: operator evaluation, run loops and diagnostics.

One operator evaluation sweeps the resolvents in order i = 1..n. Before
resolvent i, every forward operator scheduled ahead of it (j <= F_i, not yet
evaluated) is applied exactly once to its routed input. The sweep is
inherently sequential; independent runs may execute concurrently since all
shared inputs are immutable.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError, ParameterError
from .linalg import consensus_variance
from .params import (ValidationReport, factor_laplacian, forward_penalty, from_components,
                     validate_params)

#: Residuals are also compared against the first iteration's residual; the
#: loop stops once they fall below this relative factor. The default of
#: ``run``, ``run_lifted`` and ``bench.execute``.
DEFAULT_REL_STOP = 1e-14

_DIVERGENCE_FACTOR = 1e6
_EPS = float(np.finfo(float).eps)

#: Memory depth of the accelerated loop: the number of past steps each
#: extrapolation combines.
ANDERSON_DEPTH = 10
#: Tikhonov weight of the extrapolation's least-squares problem, relative to
#: the trace of its Gram matrix.
_ANDERSON_REG = 1e-12
#: The stall rule of :class:`_Monitor`.
_FLOOR_ULPS = 1e4
_STALL_WINDOW = 1000


def extract_solution(x):
    """Consensus representative: the block average of x.

    At an exact fixed point all blocks agree and this equals each of them.
    """
    x = np.asarray(x, dtype=float)
    return x.sum(axis=0) / x.shape[0]


def _shape_checked(oracle, d):
    """``oracle.evaluate`` that raises :class:`ParameterError`, naming the
    oracle, unless its output is a real array of shape (d,): storing a
    complex output in the float sweep would drop its imaginary part."""
    evaluate = oracle.evaluate

    def call(*args):
        out = evaluate(*args)
        if np.shape(out) != (d,):
            raise ParameterError(
                f"oracle {oracle.descriptor!r} returned an output of shape "
                f"{np.shape(out)}; expected ({d},)"
            )
        dtype = np.asarray(out).dtype
        if dtype.kind not in "biuf":
            raise ParameterError(
                f"oracle {oracle.descriptor!r} returned an output of dtype {dtype}; "
                "expected real numbers"
            )
        return out

    return call


def _unit_column(row):
    """Index of the one nonzero entry of ``row`` when it is exactly 1.0, else None."""
    nonzero = np.flatnonzero(row)
    return int(nonzero[0]) if nonzero.size == 1 and row[nonzero[0]] == 1.0 else None


def _sweep_plan(problem, params, check_dim=None):
    """Per-run constants of :func:`_sweep`.

    Returns ``(rows, m)``. Row i holds the forwards due before resolvent i
    as ``(j, evaluate, K[j, :i], src)``, the views ``S[i, :i]`` and
    ``H[i, :F_i]`` (None when empty), ``hsrc``, F_i, gamma_i as a float and
    the resolvent's ``evaluate``. ``src`` is the column of a unit row
    ``K[j, :i]``, one entry 1.0 and zeros elsewhere, as an edge routing
    has; ``hsrc`` likewise for ``H[i, :F_i]``; both are None for any other
    row. With ``check_dim`` every oracle output is checked to be real with
    shape ``(check_dim,)``. Oracles are taken from ``problem`` as they are,
    so wrappers around them see every call.
    """
    s_mat, causal = params.S, params.causal
    h_mat, k_mat = causal.H, causal.K

    def evaluate(oracle):
        return oracle.evaluate if check_dim is None else _shape_checked(oracle, check_dim)

    rows, j = [], 0
    for i, f_i in enumerate(causal.F.tolist()):
        due = tuple((jj, evaluate(problem.forwards[jj]), k_mat[jj, :i], _unit_column(k_mat[jj, :i]))
                    for jj in range(j, f_i))
        j = f_i
        h_row = h_mat[i, :f_i] if f_i else None
        rows.append((due, s_mat[i, :i] if i else None, h_row,
                     None if h_row is None else _unit_column(h_row), f_i,
                     float(params.gamma[i]), evaluate(problem.resolvents[i])))
    return tuple(rows), k_mat.shape[0]


def _sweep(plan, drive):
    """One triangular sweep along a :func:`_sweep_plan`. ``drive`` is the
    (n, d) external input per row.

    A unit routing row skips its matvec: the forward gets a fresh copy of
    ``x[src]``, so one that writes into its argument leaves x intact, and
    ``H[i, :F_i] @ u`` becomes ``u[hsrc]``. While the other blocks are
    finite, both equal the matvec bit for bit up to the sign of an exact
    zero.

    The products here and in the run loop (drive, update, residual) are
    ``ndarray.dot``: the same BLAS kernel as ``@`` with less dispatch, and
    the same bits, except where a product's inner dimension is 1 (row 1 of
    every sweep, ``M z`` at n = 2, a forward block of one row) and its single
    term is a negative or underflowed zero: ``@`` adds that term to a +0.0
    accumulator, ``dot`` returns it as -0.0.

    Returns (x, u, v) where v_i is the input of resolvent i divided by
    gamma_i, so a_i = v_i - x_i / gamma_i is an element of the i-th monotone
    operator at x_i.
    """
    rows, m = plan
    n, d = drive.shape
    x = np.empty((n, d))
    u = np.empty((m, d))
    inputs = np.empty((n, d))
    for i, (due, s_row, h_row, hsrc, f_i, g_i, resolve) in enumerate(rows):
        head = x[:i]
        for j, forward, k_row, src in due:
            u[j] = forward(k_row.dot(head) if src is None else x[src].copy())
        v = inputs[i]
        if s_row is None:
            v[:] = drive[i]
        else:
            np.subtract(drive[i], s_row.dot(head), out=v)
        if hsrc is not None:
            v -= u[hsrc]
        elif h_row is not None:
            v -= h_row.dot(u[:f_i])
        x[i] = resolve(g_i, g_i * v)
    return x, u, inputs


def _entry_state(params, problem, state, rows, name):
    """The entry contract of :func:`split_step` for a state of ``rows``
    blocks named ``name``; returns the state as floats, zeros when None."""
    if params.n != problem.n or params.m != problem.m:
        raise ParameterError(f"parameter counts (n={params.n}, m={params.m}) do not match "
                             f"problem counts (n={problem.n}, m={problem.m})")
    shape = (rows, problem.dimension)
    if state is None:
        return np.zeros(shape)
    try:
        state = np.asarray(state)
    except ValueError:  # numpy refuses a ragged nested sequence
        raise ParameterError(f"{name} must be a finite real array of shape {shape}; "
                             "got a ragged nested sequence") from None
    if state.dtype.kind not in "biuf" or state.shape != shape or not np.isfinite(state).all():
        raise ParameterError(f"{name} must be a finite real array of shape {shape}; "
                             f"got {state.dtype} of shape {state.shape}")
    return state.astype(float, copy=False)


def split_step(params, problem, z):
    """One evaluation of the splitting operator in minimal form: returns
    (z_next, x, u) and calls each resolvent and forward oracle exactly once.

    The entry contract, shared with :func:`run` and :func:`run_lifted` and
    checked before any oracle runs: the problem has the bundle's resolvent
    and forward counts, and the state (``z`` here) is a finite real array of
    d columns and n-1 rows (n in lifted form). Otherwise, and for an oracle
    output that is not real of shape (d,), :class:`ParameterError` names
    the culprit. The bundle is not validated, so one that fails the matrix
    inequality can be stepped.
    """
    z = _entry_state(params, problem, z, params.n - 1, "z")
    x, u, _ = _sweep(_sweep_plan(problem, params, check_dim=problem.dimension), params.M.dot(z))
    z_next = z - params.theta * params.M.T.dot(x)
    return z_next, x, u


@dataclass
class RunReport:
    """Per-iteration convergence records plus final diagnostics.

    ``fp_residual[k]`` is ||T(state_k) - state_k|| / theta, the norm of the
    displacement of the underlying nonexpansive map T at the k-th evaluated
    state; without acceleration T(state_k) is state_{k+1}. ``validation``
    is the report of the bundle that ran, the run's only validation of it;
    in lifted form that is the bundle rebuilt from the laplacian. ``objective``
    holds NaN where no evaluator was supplied (or recording was off). The
    consensus diagnostics certify the fixed-point encoding at termination:
    all blocks of ``final_x`` close to their mean (``consensus`` and
    ``consensus_gap`` are derived from ``final_x``), and the recovered
    operator values summing to zero. An accelerated run reports them, and
    ``final_x``, at its last accepted state.
    """

    fp_residual: np.ndarray
    variance: np.ndarray
    objective: np.ndarray
    elapsed_ms: np.ndarray
    final_x: np.ndarray
    inclusion_residual: float
    termination: str
    validation: ValidationReport
    x_trace: Optional[list] = None
    state_trace: Optional[list] = None

    @property
    def iterations(self):
        return int(self.fp_residual.size)

    @property
    def consensus(self):
        """Block average of ``final_x``."""
        return extract_solution(self.final_x)

    @property
    def consensus_gap(self):
        """Largest distance of a block of ``final_x`` from their average."""
        return float(np.max(np.linalg.norm(self.final_x - self.consensus, axis=1)))

    def final_record(self):
        obj = self.objective[-1]
        return {
            "iterations": self.iterations,
            "fp_residual": float(self.fp_residual[-1]),
            "variance": float(self.variance[-1]),
            "objective": None if np.isnan(obj) else float(obj),
            "consensus_gap": self.consensus_gap,
            "inclusion_residual": self.inclusion_residual,
            "termination": self.termination,
        }

    def write_csv(self, path, *, timing=True):
        """Stream the records as ``iter,fp_residual,variance,objective,elapsed_ms``.

        Empty objective cells mean no evaluator was supplied; with
        ``timing=False`` the elapsed column is left empty so identical runs
        produce identical bytes.
        """
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iter,fp_residual,variance,objective,elapsed_ms\n")
            for k in range(self.iterations):
                obj = self.objective[k]
                obj_s = "" if np.isnan(obj) else repr(float(obj))
                ms_s = repr(float(self.elapsed_ms[k])) if timing else ""
                fh.write(
                    f"{k + 1},{float(self.fp_residual[k])!r},"
                    f"{float(self.variance[k])!r},{obj_s},{ms_s}\n"
                )


class _Anderson:
    """Safeguarded Anderson acceleration of an averaged map T.

    ``step(w, t_w, res)`` takes one evaluation T(w) with its residual and
    returns ``(next state, accepted)``. An evaluation is accepted when its
    residual is no larger than that of the last accepted one; the first
    evaluation and the plain step after a rejection are always accepted (an
    averaged map does not raise the residual along a plain step, and
    accepting it keeps rounding from stalling the run). An accepted
    evaluation joins a history of at most ``ANDERSON_DEPTH`` steps and the
    next state is the regularized least-squares extrapolation over it (type
    II, Walker & Ni 2011; safeguard after Zhang, O'Donoghue & Boyd 2020). A
    rejected one clears the history, and the next state is the plain step
    T(w_good) from the last accepted state, already computed when that state
    was accepted, so every state costs exactly one sweep.
    """

    def __init__(self):
        self.dw, self.dg = [], []
        self.last = None
        # residual and image of the last accepted evaluation; the residual is
        # None before the first one and right after a rejection
        self.good_res = None
        self.good_image = None

    def step(self, w, t_w, res):
        if self.good_res is not None and not res <= self.good_res:
            self.dw.clear()
            self.dg.clear()
            self.last = self.good_res = None
            return self.good_image, False
        self.good_res, self.good_image = res, t_w
        flat_w, g = w.ravel(), (t_w - w).ravel()
        if self.last is not None:
            self.dw.append(flat_w - self.last[0])
            self.dg.append(g - self.last[1])
            if len(self.dg) > ANDERSON_DEPTH:
                del self.dw[0], self.dg[0]
        self.last = flat_w, g
        if not self.dg:
            return t_w, True
        dg = np.stack(self.dg, axis=1)
        gram = dg.T @ dg
        reg = _ANDERSON_REG * float(np.trace(gram))
        if not 0.0 < reg < np.inf:
            return t_w, True
        coef = np.linalg.solve(gram + reg * np.eye(gram.shape[0]), dg.T @ g)
        return t_w - ((np.stack(self.dw, axis=1) + dg) @ coef).reshape(w.shape), True


class _Monitor:
    """The records and every ending of one run, fed once per evaluation.

    ``observe`` records the residual, the sweep's consensus variance and
    objective and the time, and returns a termination or None. Accepted
    evaluations alone end a run, tested in order: divergence, ``stop``,
    ``rel_stop`` times the first residual and, with ``stall``, a residual
    within ``_FLOOR_ULPS`` ulps of ||T(state)|| that has not halved over
    ``_STALL_WINDOW`` evaluations: rounding keeps it above any lower target.
    """

    def __init__(self, stop, rel_stop, objective, stall):
        self.stop, self.rel_stop, self.objective, self.stall = stop, rel_stop, objective, stall
        self.records = {"fp_residual": [], "variance": [], "objective": [], "elapsed_ms": []}
        self.lists = tuple(self.records.values())
        self.sweep = None
        # first residual, its divergence bound, residual and evaluation at the last halving
        self.initial, self.blowup, self.halved_res, self.halved_k = None, None, math.inf, 0
        self.t0 = time.perf_counter()

    def observe(self, res, sweep, image, accepted):
        fp_res, variances, objectives, elapsed = self.lists
        x = sweep[0]
        mean = extract_solution(x)
        fp_res.append(res)
        # the objective gets the mean last, so one that writes into its
        # argument cannot change the variance
        variances.append(consensus_variance(x, mean=mean))
        objectives.append(float("nan") if self.objective is None else float(self.objective(mean)))
        elapsed.append((time.perf_counter() - self.t0) * 1e3)
        if not accepted:
            return None
        self.sweep = sweep
        if self.initial is None:
            self.initial, self.blowup = res, _DIVERGENCE_FACTOR * max(res, 1e-300)
        if res > self.blowup:
            raise DivergenceError(f"fixed-point residual grew to {res:.3e} from {self.initial:.3e}; "
                                  "parameters or oracle constants are inconsistent")
        if res <= self.stop:
            return "stop_threshold"
        if res <= self.rel_stop * self.initial:
            return "relative_stop"
        if self.stall:
            k = len(fp_res) - 1
            if res <= 0.5 * self.halved_res:
                self.halved_res, self.halved_k = res, k
            elif (k - self.halved_k >= _STALL_WINDOW
                  and res <= _FLOOR_ULPS * _EPS * float(np.linalg.norm(image))):
                return "stalled"
        return None


def _fixed_point_loop(problem, params, state0, to_drive, advance, max_iters, stop, *,
                      rel_stop, record_objective, trace, accelerate):
    if max_iters < 1:
        raise ParameterError(f"max_iters must be at least 1, got {max_iters}")
    if not (stop >= 0.0 and rel_stop >= 0.0):
        raise ParameterError(f"stop and rel_stop must be nonnegative, got {stop} and {rel_stop}")
    validation = validate_params(params)
    if not validation.passed:
        raise ParameterError(f"parameters fail validation: {validation.to_dict()}")
    theta = params.theta
    anderson = _Anderson() if accelerate else None
    state = state0
    # the first sweep checks the shape of every oracle output, later ones
    # run unchecked
    plan = _sweep_plan(problem, params, check_dim=problem.dimension)
    monitor = _Monitor(stop, rel_stop, problem.objective if record_objective else None,
                       stall=accelerate and rel_stop > 0.0)
    x_trace = [] if trace else None
    state_trace = [state0.copy()] if trace else None
    for k in range(max_iters):
        sweep = _sweep(plan, to_drive(state))
        if not k:
            plan = _sweep_plan(problem, params)
        new_state = advance(state, sweep[0])
        step = (new_state - state).ravel()
        res = math.sqrt(step.dot(step)) / theta
        if anderson is None:
            state, accepted = new_state, True
        else:
            state, accepted = anderson.step(state, new_state, res)
        termination = monitor.observe(res, sweep, new_state, accepted)
        if trace:
            # every sweep and every accepted state is a new array; only a
            # rejected step returns a state that may already be in the trace
            x_trace.append(sweep[0])
            state_trace.append(state if accepted else state.copy())
        if termination is not None:
            break

    x, u, inputs = monitor.sweep
    a = inputs - x / params.gamma[:, None]
    return RunReport(**{name: np.asarray(rec) for name, rec in monitor.records.items()},
                     final_x=x, inclusion_residual=float(np.linalg.norm(a.sum(axis=0) + u.sum(axis=0))),
                     termination=termination or "max_iters", validation=validation, x_trace=x_trace,
                     state_trace=state_trace)


def run(
    params,
    problem,
    z0=None,
    max_iters=1000,
    stop=0.0,
    *,
    rel_stop=DEFAULT_REL_STOP,
    record_objective=True,
    trace=False,
    accelerate=False,
):
    """Fixed-point iteration in minimal form (state z in H^(n-1)).

    Stops at ``max_iters``, when the residual falls below the absolute ``stop``
    threshold, or below ``rel_stop`` times the first residual. Raises
    :class:`DivergenceError` if the residual grows by a factor 1e6, and
    :class:`ParameterError`, before any sweep, when ``z0`` breaks the entry
    contract of :func:`split_step`, the bundle fails validation,
    ``max_iters`` is below 1 (every run makes at least one sweep), or
    ``stop`` or ``rel_stop`` is negative or NaN; either may be ``inf``.

    ``accelerate=True`` applies safeguarded Anderson acceleration to the
    state (see :class:`_Anderson`): each iteration is still one sweep that
    calls every oracle once, the stopping and divergence tests look at
    accepted residuals only, and the final diagnostics come from the last
    accepted iterate. With ``rel_stop > 0`` it also ends as ``stalled`` when
    its residual sits at rounding level without halving for
    ``_STALL_WINDOW`` evaluations, since it cannot reach a relative target
    below that level. The x-trajectory is then no longer the method's own,
    so this is for computing reference solutions, not for comparing methods.
    """
    z0 = _entry_state(params, problem, z0, params.n - 1, "z0")
    m_mat, theta = params.M, params.theta
    return _fixed_point_loop(problem, params, z0, lambda z: m_mat.dot(z),
                             lambda z, x: z - theta * m_mat.T.dot(x), max_iters, stop,
                             rel_stop=rel_stop, record_objective=record_objective, trace=trace,
                             accelerate=accelerate)


def run_lifted(
    laplacian,
    causal,
    beta,
    theta,
    problem,
    w0=None,
    max_iters=1000,
    stop=0.0,
    *,
    rel_stop=DEFAULT_REL_STOP,
    record_objective=True,
    trace=False,
    accelerate=False,
):
    """Fixed-point iteration in lifted form (state w in H^n, sum_i w_i = 0).

    Runs the same sweep with S = laplacian + W and the update
    w <- w - theta * laplacian @ x. Produces the same x-trajectory as the
    minimal form started from any z0 with M z0 = w0, where M is a full-rank
    factor of the laplacian. The zero-sum of w is conserved because the
    laplacian annihilates the all-ones vector (an accelerated state is an
    affine combination of such states). ``accelerate`` is as in :func:`run`.

    The bundle is built with :func:`from_components` from a factor of the
    laplacian and S, and checked as in :func:`run`, with ``w0`` in place of
    ``z0``. A laplacian that is not symmetric PSD with zero row sums and
    rank n-1, a laplacian or ``beta`` whose size does not match ``causal``,
    a theta outside (0, 1) or a ``w0`` with a nonzero block sum raise
    :class:`ParameterError` too.
    """
    laplacian = np.asarray(laplacian, dtype=float)
    if laplacian.shape != (causal.n, causal.n):
        raise ParameterError(f"laplacian of shape {laplacian.shape} does not match the "
                             f"routing's n={causal.n} resolvents")
    if np.shape(beta) != (causal.m,):
        raise ParameterError(f"beta of shape {np.shape(beta)} does not match the routing's "
                             f"m={causal.m} forward operators")
    params = from_components(factor_laplacian(laplacian), laplacian + forward_penalty(causal, beta),
                             causal, beta, theta)
    w0, theta = _entry_state(params, problem, w0, params.n, "w0"), params.theta
    drift = float(np.linalg.norm(w0.sum(axis=0)))
    if drift > 1e-8 * max(1.0, float(np.max(np.abs(w0)))):
        raise ParameterError("lifted state must start with zero block sum")
    return _fixed_point_loop(problem, params, w0, lambda w: w,
                             lambda w, x: w - theta * laplacian.dot(x), max_iters, stop,
                             rel_stop=rel_stop, record_objective=record_objective, trace=trace,
                             accelerate=accelerate)
