"""Oracle and problem types.

A problem instance bundles n resolvent oracles and m forward oracles over
H = R^d. Oracles are plain evaluation callables; nothing in the engine ever
inspects their structure. All types are frozen and safe to share across
threads; oracle evaluation must be reentrant.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class ResolventOracle:
    """Backward step: ``evaluate(step, v)`` computes (Id + step*A)^{-1} v.

    For a maximal monotone A the map is firmly nonexpansive for every
    positive step. The engine passes each call a fresh array ``v``, which
    the oracle may overwrite or return.
    """

    evaluate: Callable[[float, np.ndarray], np.ndarray]
    descriptor: str = "resolvent"


@dataclass(frozen=True)
class ForwardOracle:
    """Forward step: direct evaluation of a cocoercive operator.

    ``beta`` is the cocoercivity parameter (the operator is 1/beta-cocoercive,
    hence beta-Lipschitz). beta = 0 is allowed only for constant operators.
    The engine passes each call a fresh array, which the oracle may
    overwrite or return.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    beta: float
    descriptor: str = "forward"


@dataclass(frozen=True)
class ProblemSpec:
    """An inclusion problem: find x with 0 in sum_i A_i(x) + sum_j C_j(x)."""

    resolvents: tuple
    forwards: tuple
    dimension: int
    objective: Optional[Callable[[np.ndarray], float]] = None
    label: str = "problem"

    def __post_init__(self):
        object.__setattr__(self, "resolvents", tuple(self.resolvents))
        object.__setattr__(self, "forwards", tuple(self.forwards))
        if self.n < 2:
            raise ParameterError("need at least two resolvent oracles")
        if self.dimension < 1:
            raise ParameterError("dimension must be positive")
        for f in self.forwards:
            if not 0.0 <= f.beta < np.inf:
                raise ParameterError(f"forward {f.descriptor!r} has beta {f.beta}; need finite >= 0")

    @property
    def n(self):
        return len(self.resolvents)

    @property
    def m(self):
        return len(self.forwards)

    @property
    def beta(self):
        return np.array([f.beta for f in self.forwards], dtype=float)


class CallCounter:
    """Wraps a callable and counts invocations. Not thread-safe."""

    def __init__(self, fn):
        self._fn = fn
        self.count = 0

    def __call__(self, *args):
        self.count += 1
        return self._fn(*args)


def counting_problem(problem):
    """Copy of ``problem`` with instrumented oracles.

    Returns ``(instrumented, resolvent_counters, forward_counters)`` where the
    counter lists expose per-oracle invocation counts. Used to check that the
    engine touches each oracle exactly once per operator evaluation.
    """
    res_counters = [CallCounter(r.evaluate) for r in problem.resolvents]
    fwd_counters = [CallCounter(f.evaluate) for f in problem.forwards]
    instrumented = ProblemSpec(
        resolvents=tuple(
            ResolventOracle(c, r.descriptor)
            for c, r in zip(res_counters, problem.resolvents)
        ),
        forwards=tuple(
            ForwardOracle(c, f.beta, f.descriptor)
            for c, f in zip(fwd_counters, problem.forwards)
        ),
        dimension=problem.dimension,
        objective=problem.objective,
        label=problem.label,
    )
    return instrumented, res_counters, fwd_counters
