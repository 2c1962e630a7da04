"""Stacked operator twins: the numpy behaviour they rest on, and dispatch.

The batched executors evaluate a group's per-scenario matvecs as one
stacked ``np.matmul`` (:func:`repro.operators.base.matvec_rows`) and the
logistic sigmoid elementwise over the ``(B', m)`` margins.  Both are
bit-identical to the solo per-row calls only because numpy runs the same
BLAS gemv (or dot) per stack item and the same ``exp`` per element.  The
tests below pin that on the shapes the twins use, so a numpy or BLAS
upgrade that breaks it fails here by name, not as a golden-digest
mismatch further down.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.operators.base import OperatorStack, matvec_rows
from repro.problems.logistic import _sigmoid_neg
from repro.scenarios.registry import build_batch
from repro.scenarios.spec import ScenarioSpec

B = 5


def _rng() -> np.random.Generator:
    return np.random.default_rng(20221)


def _solo(a: np.ndarray) -> np.ndarray:
    """A standalone copy, as a solo operator holds its own matrix."""
    return np.array(a)


class TestStackedMatmulIsPerItemGemv:
    @pytest.mark.parametrize("d,sl", [
        (64, slice(0, 1)),     # scalar jacobi block: m == 1 takes the dot path
        (64, slice(63, 64)),
        (64, slice(8, 16)),
        (32, slice(0, 32)),    # full lasso gradient
        (7, slice(2, 3)),
        (7, slice(0, 7)),
    ])
    def test_row_slice_blocks(self, d, sl):
        rng = _rng()
        A = rng.standard_normal((B, d, d))
        X = rng.standard_normal((B, d))
        got = matvec_rows(A[:, sl, :], X)
        for b in range(B):
            assert np.array_equal(got[b], _solo(A[b])[sl, :] @ X[b]), b

    @pytest.mark.parametrize("sl", [slice(0, 1), slice(23, 24), slice(3, 11),
                                    slice(0, 24)])
    def test_column_slice_transposes(self, sl):
        rng = _rng()
        A = rng.standard_normal((B, 120, 24))
        s = rng.random((B, 120))
        got = matvec_rows(A[:, :, sl].transpose(0, 2, 1), s)
        for b in range(B):
            assert np.array_equal(got[b], _solo(A[b])[:, sl].T @ s[b]), b

    def test_logistic_design(self):
        rng = _rng()
        A = rng.standard_normal((B, 120, 24))
        X = rng.standard_normal((B, 24))
        margins = matvec_rows(A, X)
        for b in range(B):
            assert np.array_equal(margins[b], _solo(A[b]) @ X[b]), b

    def test_gathered_live_rows(self):
        # A shrinking live set gathers its rows into a fresh stack.
        rng = _rng()
        A = rng.standard_normal((B, 32, 32))
        rows = np.array([0, 2, 3])
        X = rng.standard_normal((len(rows), 32))
        got = matvec_rows(A[rows], X)
        for k, b in enumerate(rows):
            assert np.array_equal(got[k], _solo(A[b]) @ X[k]), b


def _masked_sigmoid(margins: np.ndarray) -> np.ndarray:
    """The sign-masked ``1/(1 + exp(margins))`` the sigmoid replaced: the oracle."""
    out = np.empty_like(margins)
    pos = margins >= 0
    e = np.exp(-margins[pos])
    out[pos] = e / (1.0 + e)
    e2 = np.exp(margins[~pos])
    out[~pos] = 1.0 / (1.0 + e2)
    return out


#: Signed zeros, infinities, both NaN signs, margins whose ``exp``
#: underflows (|m| >= 746) or overflows, and subnormals.
SPECIAL_MARGINS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 746.0, -746.0, 1e4, -1e4,
    709.8, -709.8, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
])


class TestMaskedExpOverRows:
    """``_sigmoid_neg`` runs without masks and equals the masked formula."""

    @pytest.mark.parametrize("shape", [(200,), (B, 120)], ids=["vector", "rows"])
    def test_equals_masked_formula(self, shape):
        M = _rng().standard_normal(shape) * 30.0
        M.reshape(-1)[: SPECIAL_MARGINS.size] = SPECIAL_MARGINS
        got, want = _sigmoid_neg(M), _masked_sigmoid(M)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_sigmoid_of_rows_matches_per_row(self):
        rng = _rng()
        M = rng.standard_normal((B, 120)) * 30.0
        S = _sigmoid_neg(M)
        for b in range(B):
            assert np.array_equal(S[b], _sigmoid_neg(_solo(M[b]))), b


def _ops(problem: str, params: dict) -> list:
    specs = [
        ScenarioSpec(problem=problem, problem_params=params, seed=70 + k)
        for k in range(B)
    ]
    ops = build_batch(specs)
    if ops is None:
        ops = [s.build_problem() for s in specs]
    return ops


def _stack(ops: list):
    return type(ops[0]).stack(ops)


_ML = {"n_samples": 20, "n_features": 6}
FAMILIES = [
    ("jacobi", {"n": 6}),
    ("tridiagonal", {"n": 6}),
    ("lasso", _ML),
    ("ridge", _ML),
    ("logistic", _ML),
]


class TestStackDispatch:
    @pytest.mark.parametrize("problem,params", FAMILIES)
    def test_family_gets_its_vectorized_twin(self, problem, params):
        stack = _stack(_ops(problem, params))
        assert type(stack) is not OperatorStack, problem

    def test_family_without_twin_gets_the_row_loop(self):
        stack = _stack(_ops("quadratic", {"n": 6}))
        assert type(stack) is OperatorStack

    @pytest.mark.parametrize("problem,params", FAMILIES + [("quadratic", {"n": 6})])
    @pytest.mark.parametrize("rows", [None, [0, 2, 3]], ids=["all", "subset"])
    def test_twin_matches_solo_calls(self, problem, params, rows):
        ops = _ops(problem, params)
        stack = _stack(ops)
        rows = np.arange(B) if rows is None else np.asarray(rows)
        X = _rng().standard_normal((len(rows), ops[0].dim))
        full = stack.apply(X, rows)
        for k, b in enumerate(rows):
            assert np.array_equal(full[k], ops[b].apply(X[k])), (b, "apply")
        for i in range(ops[0].n_components):
            got = stack.apply_block(X, i, rows)
            for k, b in enumerate(rows):
                assert np.array_equal(got[k], ops[b].apply_block(X[k], i)), (b, i)
