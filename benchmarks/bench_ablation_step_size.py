"""ABLATION-STEP — the step-size range of Theorem 1.

Theorem 1 admits any fixed step ``gamma in (0, 2/(mu+L)]`` with modulus
``rho = gamma*mu``.  This ablation sweeps gamma across and beyond the
admissible range on a strongly convex lasso: iterations-to-tolerance
must improve monotonically up to ``gamma_max = 2/(mu+L)`` (where
``1 - gamma*mu`` is minimal over the admissible range) and the
iteration must still converge slightly beyond it (the Euclidean factor
``|1-gamma*L|`` takes over) until it finally diverges — locating the
crossover the theory predicts.
"""

from __future__ import annotations

import numpy as np

from benchmarks._common import emit, once
from repro.analysis.reporting import render_table
from repro.core.async_iteration import AsyncIterationEngine
from repro.core.flexible import InterpolatedPartials
from repro.delays.bounded import UniformRandomDelay
from repro.operators.gradient import gradient_contraction_factor
from repro.operators.prox_gradient import ProxGradientOperator
from repro.problems import make_lasso, make_regression
from repro.steering.policies import PermutationSweeps

TOL = 1e-9


def run_sweep():
    data = make_regression(80, 12, sparsity=0.4, seed=1)
    prob = make_lasso(data, l1=0.05, l2=0.2)
    mu, L = prob.smooth.mu, prob.smooth.lipschitz
    gmax = prob.smooth.max_step()
    rows = []
    for frac in (0.1, 0.25, 0.5, 0.75, 1.0, 1.2, 1.6):
        gamma = frac * gmax
        op = ProxGradientOperator(prob, gamma, strict_step=False)
        engine = AsyncIterationEngine(
            op,
            PermutationSweeps(prob.dim, seed=2),
            UniformRandomDelay(prob.dim, 3, seed=3),
            InterpolatedPartials(seed=4),
        )
        res = engine.run(np.zeros(prob.dim), max_iterations=150_000, tol=TOL)
        q = gradient_contraction_factor(gamma, mu, L)
        rows.append(
            [
                f"{frac:.2f} * gamma_max",
                f"{gamma:.4f}",
                f"{q:.4f}",
                res.converged,
                res.iterations if res.converged else "-",
            ]
        )
    return rows, mu, L


def test_ablation_step_size(benchmark):
    rows, mu, L = once(benchmark, run_sweep)
    table = render_table(
        ["step", "gamma", "contraction factor", "converged", "iterations to tol"],
        rows,
        title=f"step-size ablation (mu={mu:.3f}, L={L:.3f}, gamma_max=2/(mu+L))",
    )
    emit("ablation_step_size", table)

    by_frac = {r[0]: r for r in rows}
    # admissible range: monotone improvement toward gamma_max
    iters = [int(by_frac[f"{f:.2f} * gamma_max"][4]) for f in (0.1, 0.25, 0.5, 1.0)]
    assert iters == sorted(iters, reverse=True)
    # slightly beyond the bound still contracts (|1-gamma L| < 1) ...
    assert by_frac["1.20 * gamma_max"][3]
    # ... far beyond it does not reach tolerance
    assert float(by_frac["1.60 * gamma_max"][2]) >= 1.0
