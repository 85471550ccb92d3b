"""The paper's headline claim on the toy-hetero suite: sfb+ reaches a lower
objective gap than the existing frugal methods at a fixed iteration count.

Kept apart from ``test_acceptance.py``, whose criteria compare sfb+ only with
its own variants. The bound was confirmed on held-out seeds 13-22 before it
was fixed here: sfb+ beat gfb, rfb and sdy in 10 of 10 repeats and agfb in 9.
"""

import numpy as np

from minisplit.bench import compare
from minisplit.problems import ToyProblemConfig

BASELINES = ("gfb", "agfb", "rfb", "sdy")


def test_sfb_plus_has_the_lowest_gap_at_iteration_500(tmp_path):
    summary = compare(["sfb+", *BASELINES], ToyProblemConfig(seed=3, hetero=True), 10,
                      tmp_path, iters=500)
    gaps = {name: np.abs(stats["final_residuals"]) for name, stats in summary["methods"].items()}
    wins = {name: int(np.sum(gaps["sfb+"] < gaps[name])) for name in BASELINES}
    assert all(count >= 9 for count in wins.values()), wins
