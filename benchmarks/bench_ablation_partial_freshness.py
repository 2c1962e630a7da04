"""ABLATION-PARTIALS — how fresh must partial updates be to pay off?

The Definition 3 partial model :class:`InterpolatedPartials` has two knobs:
``partial_prob`` (how often an exchanged value is a partial rather
than the labelled iterate) and ``theta_range`` (how far toward fresh
data the partial has advanced).  This ablation sweeps both on a fixed
lasso/delay configuration.  Expected shape: iterations decrease
monotonically in freshness ``theta`` and in ``partial_prob`` — partial
updates are strictly informative under contraction — while the
constraint-(3) violation rate stays negligible.
"""

from __future__ import annotations

import numpy as np

from benchmarks._common import emit, once
from repro.analysis.reporting import render_table
from repro.core.async_iteration import AsyncIterationEngine
from repro.core.flexible import InterpolatedPartials
from repro.delays.bounded import UniformRandomDelay
from repro.operators.prox_gradient import ProxGradientOperator
from repro.problems import make_lasso, make_regression
from repro.steering.policies import PermutationSweeps

TOL = 1e-9


def run_case(op, n, partial_prob, theta):
    engine = AsyncIterationEngine(
        op,
        PermutationSweeps(n, seed=2),
        UniformRandomDelay(n, 8, seed=3),
        InterpolatedPartials(partial_prob=partial_prob, theta_range=(theta, theta), seed=4),
    )
    return engine.run(np.zeros(n), max_iterations=200_000, tol=TOL)


def run_sweep():
    data = make_regression(80, 12, sparsity=0.4, seed=1)
    prob = make_lasso(data, l1=0.05, l2=0.15)
    op = ProxGradientOperator(prob, prob.smooth.max_step())
    n = prob.dim
    rows = []
    for partial_prob in (0.0, 0.5, 1.0):
        for theta in (0.25, 0.5, 0.75, 1.0):
            if partial_prob == 0.0 and theta != 0.25:
                continue  # theta irrelevant without partials
            res = run_case(op, n, partial_prob, theta)
            viol_rate = res.constraint_violations / max(res.constraint_checks, 1)
            rows.append(
                [
                    f"{partial_prob:.1f}",
                    f"{theta:.2f}" if partial_prob > 0 else "-",
                    res.converged,
                    res.iterations,
                    f"{100 * viol_rate:.2f}%",
                ]
            )
    return rows


def test_ablation_partial_freshness(benchmark):
    rows = once(benchmark, run_sweep)
    table = render_table(
        ["partial_prob", "theta (freshness)", "converged", "iterations", "(3) violations"],
        rows,
        title=f"partial-update freshness ablation (delay bound 8, tol {TOL})",
    )
    emit("ablation_partial_freshness", table)

    assert all(r[2] for r in rows)
    # more partials with full freshness beats no partials
    none = next(int(r[3]) for r in rows if r[0] == "0.0")
    full = next(int(r[3]) for r in rows if r[0] == "1.0" and r[1] == "1.00")
    assert full < none
    # within always-partial, fresher is no worse (monotone trend, 10% slack)
    thetas = [(float(r[1]), int(r[3])) for r in rows if r[0] == "1.0"]
    thetas.sort()
    for (t1, i1), (t2, i2) in zip(thetas, thetas[1:]):
        assert i2 <= i1 * 1.1, (t1, i1, t2, i2)
    # the audit stays clean
    assert all(float(r[4].rstrip("%")) < 5.0 for r in rows)
