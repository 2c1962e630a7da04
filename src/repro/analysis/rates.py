"""Convergence-rate estimation from realized series.

Asynchronous runs produce noisy, non-monotone error/residual series;
these helpers extract the quantities the benchmarks report: fitted
geometric rates, iterations/time to tolerance, and per-macro-iteration
contraction factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RateFit",
    "fit_geometric_rate",
    "iterations_to_tolerance",
    "rates_from_store",
    "time_to_tolerance",
]


@dataclass(frozen=True)
class RateFit:
    """Least-squares geometric fit ``series[j] ~ C * rate^j``.

    Attributes
    ----------
    rate:
        Fitted per-iteration contraction factor.
    log_intercept:
        Fitted ``log C``.
    r_squared:
        Goodness of fit in log space.
    n_points:
        Number of (positive, finite) points used.
    """

    rate: float
    log_intercept: float
    r_squared: float
    n_points: int

    def half_life(self) -> float:
        """Iterations to halve the series (``inf`` for non-contracting fits)."""
        if not 0.0 < self.rate < 1.0:
            return float("inf")
        return float(np.log(0.5) / np.log(self.rate))


def fit_geometric_rate(series: np.ndarray, *, skip: int = 0) -> RateFit:
    """Fit a geometric decay to a positive series by log-linear regression.

    Parameters
    ----------
    series:
        Error or residual values indexed by iteration.
    skip:
        Initial entries to ignore (transient).
    """
    y = np.asarray(series, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {y.shape}")
    idx = np.arange(y.size)
    mask = np.isfinite(y) & (y > 0)
    mask[:skip] = False
    x, ly = idx[mask].astype(np.float64), np.log(y[mask])
    if x.size < 2:
        return RateFit(rate=float("nan"), log_intercept=float("nan"), r_squared=0.0, n_points=int(x.size))
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    # A constant series is a perfect flat-line fit; without the exact
    # check, roundoff leaves ss_tot ~ 1e-32 and r2 garbage.  OLS with
    # an intercept has r2 in [0, 1] mathematically, so clamping only
    # removes floating-point noise.
    if ss_tot <= 0 or ly.max() == ly.min():
        r2 = 1.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return RateFit(rate=float(np.exp(slope)), log_intercept=intercept, r_squared=r2, n_points=int(x.size))


def rates_from_store(store, *, skip: int = 0) -> "dict[str, RateFit]":
    """Per-scenario geometric rate fits from a store's persisted traces.

    Streams the store's rows (:meth:`~repro.runtime.sweep_store.SweepStore.iter_rows`
    — no ScenarioResult materialization) and fits
    :func:`fit_geometric_rate` to each row whose trace was kept and
    recorded at least two residuals.  Keyed by scenario key; rows
    without a usable trace are simply absent, so the caller decides
    whether an empty result is an error.
    """
    fits: "dict[str, RateFit]" = {}
    for row in store.iter_rows():
        if not store.has_trace(row.content_hash):
            continue
        trace = store.load_trace(row.content_hash)
        if trace.residuals is None or len(trace.residuals) < 2:
            continue  # nothing to regress
        fits[row.key] = fit_geometric_rate(trace.residuals, skip=skip)
    return fits


def iterations_to_tolerance(series: np.ndarray, tol: float) -> int | None:
    """First index where the series falls (and stays) below ``tol``.

    "Stays" guards against the non-monotone dips of asynchronous runs:
    the index returned is the first ``j`` with ``series[r] < tol`` for
    all ``r >= j``.  Returns ``None`` when never reached.
    """
    y = np.asarray(series, dtype=np.float64)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if y.size == 0:
        return None
    below = y < tol
    if not below[-1]:
        return None  # not below at the end => never *stays* below
    above_idx = np.nonzero(~below)[0]
    if above_idx.size == 0:
        return 0  # below from the start
    j = int(above_idx[-1] + 1)  # first index after the last excursion
    return j if j < y.size else None


def time_to_tolerance(
    series: np.ndarray, times: np.ndarray, tol: float
) -> float | None:
    """Simulated time at which the series permanently drops below ``tol``.

    ``series`` has ``J + 1`` entries (initial + per iteration),
    ``times`` has ``J`` (completion times); returns the completion time
    of the iteration found by :func:`iterations_to_tolerance`, time 0.0
    when already below at the start, or ``None``.
    """
    j = iterations_to_tolerance(series, tol)
    if j is None:
        return None
    if j == 0:
        return 0.0
    t = np.asarray(times, dtype=np.float64)
    if t.size != np.asarray(series).size - 1:
        raise ValueError("times must have one fewer entry than series")
    return float(t[j - 1])
