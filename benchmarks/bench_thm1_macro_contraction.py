"""THM1 — Theorem 1's macro-iteration contraction bound, measured.

For the Definition 4 operator with step gamma in (0, 2/(mu+L)], the
bound (5) says the squared max-norm error after k macro-iterations is
at most (1 - gamma*mu)^k times the initial squared error.  We run
Definition 3 (interpolated partial updates) on lasso, ridge and
logistic instances across step sizes and delay regimes, check the
bound on every iteration, and report guaranteed vs realized
per-macro contraction.
"""

from __future__ import annotations

import numpy as np

from benchmarks._common import emit, once
from repro.analysis.reporting import render_table
from repro.core.async_iteration import AsyncIterationEngine
from repro.core.convergence import theorem1_certificate
from repro.core.flexible import InterpolatedPartials
from repro.core.macro import macro_sequence
from repro.delays.bounded import UniformRandomDelay
from repro.delays.unbounded import BaudetSqrtDelay
from repro.operators.prox_gradient import ProxGradientOperator
from repro.problems import (
    make_classification,
    make_lasso,
    make_logistic,
    make_regression,
    make_ridge,
)
from repro.steering.policies import PermutationSweeps


def build_cases():
    reg = make_regression(80, 10, sparsity=0.4, seed=1)
    cls = make_classification(100, 10, seed=2)
    return [
        ("lasso", make_lasso(reg, l1=0.05, l2=0.15)),
        ("ridge", make_ridge(reg, l2=0.3)),
        ("logistic", make_logistic(cls, l2=0.25)),
    ]


def run_thm1():
    rows = []
    worst_overall = 0.0
    for pname, prob in build_cases():
        gmax = prob.smooth.max_step()
        for gname, gamma in [("gamma_max", gmax), ("gamma_max/4", gmax / 4)]:
            n = prob.dim
            for dname, delays in [
                ("bounded(4)", UniformRandomDelay(n, 4, seed=3)),
                ("baudet sqrt(j)", BaudetSqrtDelay(n, [0, 1])),
            ]:
                op = ProxGradientOperator(prob, gamma)
                engine = AsyncIterationEngine(
                    op,
                    PermutationSweeps(n, seed=4),
                    delays,
                    InterpolatedPartials(seed=5),
                )
                res = engine.run(np.zeros(n), max_iterations=60_000, tol=1e-11)
                ms = macro_sequence(res.trace)
                cert = theorem1_certificate(res.trace, ms, op.rho)
                worst_overall = max(worst_overall, cert.worst_margin)
                rows.append(
                    [
                        pname,
                        gname,
                        dname,
                        res.iterations,
                        ms.count,
                        "yes" if cert.satisfied else "NO",
                        f"{cert.worst_margin:.3f}",
                        f"{1 - op.rho:.4f}",
                        f"{cert.empirical_rate:.4f}",
                    ]
                )
    return rows, worst_overall


def test_thm1_macro_contraction(benchmark):
    rows, worst = once(benchmark, run_thm1)
    table = render_table(
        [
            "problem",
            "step",
            "delays",
            "iters",
            "macro K",
            "bound holds",
            "worst err^2/bound",
            "guaranteed (1-rho)",
            "realized rate",
        ],
        rows,
        title="Theorem 1: ||x(j)-x*||^2 <= (1-rho)^k max_i ||x_i(0)-x*||^2",
    )
    emit("thm1_macro_contraction", table)

    # The bound must hold in every configuration.
    assert all(r[5] == "yes" for r in rows), rows
    assert worst <= 1.0 + 1e-9
    # The realized rate is at least as fast as guaranteed, everywhere.
    for r in rows:
        assert float(r[8]) <= float(r[7]) + 1e-9
