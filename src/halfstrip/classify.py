"""Recurrence classification of half-strip walks via branching series.

The sign of the tail's mean drift picks the verdict (Neuts' mean-drift
condition): negative is positive recurrent, positive is transient, an
exact zero is null recurrent, and a tail phase chain with no unique
stationary vector is inconclusive. A walk that cannot reach the tail
from layer 0 (a prefix level it cannot climb past) stays in finitely
many levels and is positive recurrent whatever the tail's drift. Two
scalar series give the values that go with it. The return-time series
(expected steps to come back down to layer 0) is finite exactly when the
walk is positive recurrent, and the boundary-visit series (expected
number of returns to layer 0) exactly when it is transient; each is
summed in closed form on its side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .branching import (
    BoundaryVisits,
    _ascent_visits,
    _phase_distribution,
    expected_boundary_visits,
    series_down_weighted,
)
from .linalg import spectral_radius

POSITIVE_RECURRENT = "positive-recurrent"
NULL_RECURRENT = "null-recurrent"
TRANSIENT = "transient"
INCONCLUSIVE = "inconclusive"

# (verdict, certificate) for each certified tail drift sign
_VERDICTS = {
    -1: (POSITIVE_RECURRENT, "return-time-series-finite"),
    0: (NULL_RECURRENT, "visits-divergent-return-time-infinite"),
    1: (TRANSIENT, "boundary-visits-finite"),
    None: (INCONCLUSIVE, "no-certificate"),
}


def return_time_bound(data):
    """Phase-summed bound on the expected first return time to layer 0.

    Value is sum_i E_i(return time), i.e. 1'P0 (sum of descent sojourns) + d.
    Finite exactly when the walk is positive recurrent. Returns the
    series' SeriesValue, weights included, with d added to its value; an
    "inconclusive" status carries the partial sum.
    """
    model = data.model
    sv = series_down_weighted(data, np.ones(model.d) @ model.p0)
    return replace(sv, value=sv.value + model.d)  # inf stays inf


def expected_return_time(data, mu, n=0):
    """Expected first return time to layer n for a walk started there at mu.

    Path decomposition: one step, plus a descent from layer n+1 if that
    step went up, plus an ascent from layer n-1 if it went down. Returns
    math.inf when the descent series is certified divergent and NaN when
    its closed form is refused; an inconclusive series propagates its
    partial sum.
    """
    model = data.model
    mu = _phase_distribution(mu, model.d)
    if n == 0:  # an infinite series has value inf
        return 1.0 + series_down_weighted(data, mu @ model.p0).value
    t = model.block_at(n)
    down = series_down_weighted(data, mu @ t.up, start=n + 1)
    if down.status == "infinite":
        return math.inf
    ascent = _ascent_visits(model, n - 1, mu @ t.down)  # visits to layers < n until n
    return 1.0 + down.value + sum(float(visits @ np.ones(model.d)) for visits in ascent)


@dataclass
class Classification:
    """Verdict plus the evidence that produced it.

    verdict: "positive-recurrent", "null-recurrent", "transient", or
    "inconclusive". certificate names the rule that fired. return_bound is
    the phase-summed return-time series (inf when certified divergent);
    return_time is the mu-weighted expected return time when mu was given.
    A value whose closed form was refused is NaN, and the verdict stands.
    visit_terms / visit_partial_sums are the boundary-visit series
    diagnostics (empty when the walk is positive recurrent).
    details["exact_sign"] says whether the drift sign was taken exactly,
    details["tail_reachable"] whether a walk from layer 0 can reach the tail.
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
    details: dict = field(default_factory=dict)


def classify(data, mu=None):
    """Classify a half-strip walk by its tail's certified drift sign.

    The sign (``BranchingData.walk_sign``: the tail's drift sign, or -1
    when the walk cannot reach the tail) alone picks the verdict; the
    series only give values. A positive-recurrent walk has a finite
    return-time series, and its boundary-visit series is divergent by
    implication and not summed. Otherwise the boundary-visit series is
    reported: divergent for a null-recurrent walk, summed in closed form
    for a transient one, and only its term 0 when the tail has no sign.

    ``tail_radius_up`` is rho(G), G the downward tail root, for null and
    transient verdicts, else None: the upward offspring matrix F D and the
    mirrored tail's rate matrix D F share nonzero eigenvalues, which like
    G's are the roots of det(D + (S - I)z + U z^2) in the closed unit disk
    (Latouche & Ramaswami 1999; Bini, Latouche & Meini 2005).
    """
    verdict, certificate = _VERDICTS[data.walk_sign]
    rb = return_time_bound(data)
    ret = None if mu is None else expected_return_time(data, mu)
    details = {"return_series_note": rb.note, "exact_sign": data.exact_sign,
               "tail_reachable": data.tail_reachable}
    if verdict == POSITIVE_RECURRENT:
        bv = BoundaryVisits("divergent", math.inf, [], [])
        details["note"] = "boundary visits divergent by implication"
    else:
        bv = expected_boundary_visits(data, mu=mu)
        details.update(visit_status=bv.status, return_status=rb.status, visit_note=bv.note)
    return Classification(
        verdict=verdict,
        certificate=certificate,
        return_bound=rb.value,
        boundary_visits=bv.value,
        visit_terms=bv.terms,
        visit_partial_sums=bv.partial_sums,
        tail_radius_up=(spectral_radius(data.exit_down[-1])
                        if verdict in (NULL_RECURRENT, TRANSIENT) else None),
        tail_radius_down=data.radius_down,
        return_time=ret,
        details=details,
    )
