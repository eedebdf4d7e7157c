"""Recurrence classification of half-strip walks via branching series.

Two scalar series decide everything. The boundary-visit series (expected
number of returns to layer 0) is finite exactly when the walk is transient.
The return-time series (expected steps to come back down to layer 0) is
finite exactly when the walk is positive recurrent. Each certificate keys
off the sign of the tail's mean drift: a closed form for the series that
drift makes finite, or a certified divergence pattern. No certificate, no
verdict: the result is then inconclusive with diagnostics attached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .branching import (
    DEFAULT_TOL,
    SERIES_HORIZON,
    SeriesValue,
    _ascent_visits,
    branching_data,
    expected_boundary_visits,
    series_down_weighted,
)
from .linalg import NotStochasticError
from .model import CallbackModel

POSITIVE_RECURRENT = "positive-recurrent"
NULL_RECURRENT = "null-recurrent"
TRANSIENT = "transient"
INCONCLUSIVE = "inconclusive"


def return_time_bound(model, data=None, horizon=SERIES_HORIZON, tol=DEFAULT_TOL):
    """Phase-summed bound on the expected first return time to layer 0.

    Value is sum_i E_i(return time), i.e. 1'P0 (sum of descent sojourns) + d.
    Finite exactly when the walk is positive recurrent. Returns a
    SeriesValue; an "inconclusive" status carries the partial sum.
    """
    if data is None:
        data = branching_data(model, tol=tol)
    weight = np.ones(model.d) @ model.p0
    sv = series_down_weighted(model, data, weight, start=1, horizon=horizon)
    value = sv.value + model.d if sv.status != "infinite" else math.inf
    return SeriesValue(sv.status, value, sv.last_level, sv.note)


def _ascent_time(model, weight, k):
    """Expected steps for a walk at layer k (phase row ``weight``) to first
    reach layer k+1: sum of expected visits over layers 0..k."""
    ones = np.ones(model.d)
    return sum(float(visits @ ones) for visits in _ascent_visits(model, k, weight))


def expected_return_time(model, mu, n=0, data=None, horizon=SERIES_HORIZON,
                         tol=DEFAULT_TOL):
    """Expected first return time to layer n for a walk started there at mu.

    Path decomposition: one step, plus a descent from layer n+1 if that
    step went up, plus an ascent from layer n-1 if it went down. Returns
    math.inf when the descent series is certified divergent; raises
    NoConvergenceError never (inconclusive series propagate their partial
    sum, flagged in the SeriesValue note).
    """
    d = model.d
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (d,) or np.any(mu < -1e-12) or abs(float(mu.sum()) - 1.0) > 1e-9:
        raise NotStochasticError("mu must be a probability vector over phases")
    if data is None:
        data = branching_data(model, tol=tol)
    if n == 0:
        sv = series_down_weighted(model, data, mu @ model.p0, start=1, horizon=horizon)
        if sv.status == "infinite":
            return math.inf
        return 1.0 + sv.value
    t = model.block_at(n)
    down = series_down_weighted(model, data, mu @ t.up, start=n + 1, horizon=horizon)
    if down.status == "infinite":
        return math.inf
    up_time = _ascent_time(model, mu @ t.down, n - 1)
    return 1.0 + down.value + up_time


@dataclass
class Classification:
    """Verdict plus the evidence that produced it.

    verdict: "positive-recurrent", "null-recurrent", "transient", or
    "inconclusive". certificate names the rule that fired. return_bound is
    the phase-summed return-time series (inf when certified divergent);
    return_time is the mu-weighted expected return time when mu was given.
    visit_terms / visit_partial_sums are the boundary-visit series
    diagnostics (empty when the positive-recurrence shortcut fired).
    """

    verdict: str
    certificate: str
    return_bound: float
    boundary_visits: float
    visit_terms: list
    visit_partial_sums: list
    tail_radius_up: float = None
    tail_radius_down: float = None
    return_time: float = None
    horizon: int = SERIES_HORIZON
    details: dict = field(default_factory=dict)


def classify(model, mu=None, horizon=SERIES_HORIZON, tol=DEFAULT_TOL, data=None):
    """Classify a half-strip walk with certified verdicts.

    Order of evidence: a finite return-time series proves positive
    recurrence outright (the boundary-visit series is then divergent by
    implication and not summed). Otherwise the boundary-visit series
    decides: certified divergent means null recurrent (recurrence without
    a finite mean return), certified convergent means transient. Anything
    uncertified is inconclusive. Models given by an arbitrary level
    callable have no limiting tail to certify against and are always
    inconclusive, with partial sums reported.
    """
    if isinstance(model, CallbackModel):
        bv = expected_boundary_visits(model, mu=mu, horizon=horizon, tol=tol)
        return Classification(
            verdict=INCONCLUSIVE,
            certificate="no-limiting-tail",
            return_bound=math.nan,
            boundary_visits=bv.value,
            visit_terms=bv.terms,
            visit_partial_sums=bv.partial_sums,
            horizon=bv.horizon,
            details={"note": "level blocks from a callable; finite-horizon "
                             "partial sums only", "visit_status": bv.status},
        )
    if data is None:
        data = branching_data(model, tol=tol)
    rb = return_time_bound(model, data=data, horizon=horizon, tol=tol)
    ret = None
    if mu is not None:
        ret = expected_return_time(model, mu, n=0, data=data, horizon=horizon, tol=tol)
    if rb.status == "finite":
        return Classification(
            verdict=POSITIVE_RECURRENT,
            certificate="return-time-series-finite",
            return_bound=rb.value,
            boundary_visits=math.inf,
            visit_terms=[],
            visit_partial_sums=[],
            tail_radius_down=data.radius_down,
            return_time=ret,
            horizon=horizon,
            details={"note": "boundary visits divergent by implication",
                     "return_series_note": rb.note},
        )
    bv = expected_boundary_visits(model, mu=mu, horizon=horizon, tol=tol, data=data)
    common = dict(
        return_bound=rb.value,
        boundary_visits=bv.value,
        visit_terms=bv.terms,
        visit_partial_sums=bv.partial_sums,
        tail_radius_up=bv.radius_up,
        tail_radius_down=data.radius_down,
        return_time=ret,
        horizon=horizon,
        details={"visit_status": bv.status, "return_status": rb.status,
                 "visit_note": bv.note, "return_series_note": rb.note},
    )
    if bv.status == "convergent":
        return Classification(verdict=TRANSIENT,
                              certificate="boundary-visits-finite", **common)
    if bv.status == "divergent" and rb.status == "infinite":
        return Classification(verdict=NULL_RECURRENT,
                              certificate="visits-divergent-return-time-infinite",
                              **common)
    return Classification(verdict=INCONCLUSIVE, certificate="no-certificate",
                          **common)
