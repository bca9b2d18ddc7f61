"""Reference tracking error for the metrics tests.

It binds and scores one track at a time, and interpolates every object's
centers once for each track's first sample and once more for each bound
track: the oracle of evshift.metrics.tracking_error, whose report must
equal this one field for field, down to the last bit.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from evshift.errors import ContractViolationError, EmptyAlignmentError
from evshift.metrics import TrackingErrorReport, interpolate_centers


def tracking_error_per_track(
    sample_t: np.ndarray,
    sample_track: np.ndarray,
    sample_xy: np.ndarray,
    truth_t: np.ndarray,
    truth_obj: np.ndarray,
    truth_xy: np.ndarray,
    threshold: float = 2.5,
    match_radius: float = 15.0,
) -> TrackingErrorReport:
    """tracking_error one track and one object at a time."""
    if not (threshold >= 0 and match_radius > 0):
        raise ContractViolationError(f"threshold must be >= 0 and match_radius > 0: {threshold}, {match_radius}")
    sample_t = np.asarray(sample_t, dtype=float)
    sample_track = np.asarray(sample_track, dtype=int)
    sample_xy = np.asarray(sample_xy, dtype=float)
    truth_t = np.asarray(truth_t, dtype=float)
    truth_obj = np.asarray(truth_obj, dtype=int)
    truth_xy = np.asarray(truth_xy, dtype=float)
    if len(sample_t) == 0 or len(truth_t) == 0:
        raise EmptyAlignmentError("need at least one track sample and one true center")
    objects = np.unique(truth_obj)
    binding: Dict[int, int] = {}
    unmatched: List[int] = []
    for tid in np.unique(sample_track):
        sel = sample_track == tid
        first = int(np.argmin(sample_t[sel]))
        t0 = sample_t[sel][first]
        p0 = sample_xy[sel][first]
        best_obj, best_d = -1, float("inf")
        for obj in objects:
            c = interpolate_centers(truth_t, truth_obj, truth_xy, int(obj), np.array([t0]))[0]
            d = float(np.linalg.norm(p0 - c))
            if d < best_d:
                best_obj, best_d = int(obj), d
        if best_d <= match_radius:
            binding[int(tid)] = best_obj
        else:
            unmatched.append(int(tid))
    errors: List[float] = []
    per_obj_err: Dict[int, List[float]] = {}
    for tid, obj in binding.items():
        sel = sample_track == tid
        centers = interpolate_centers(truth_t, truth_obj, truth_xy, obj, sample_t[sel])
        e = np.linalg.norm(sample_xy[sel] - centers, axis=1)
        errors.extend(e.tolist())
        per_obj_err.setdefault(obj, []).extend(e.tolist())
    if not errors:
        raise EmptyAlignmentError("no track bound to any true object")
    err = np.array(errors)
    per_object = {obj: (float(np.mean(v)), len(v)) for obj, v in sorted(per_obj_err.items())}
    return TrackingErrorReport(
        mean_error=float(np.mean(err)),
        valid_fraction=float(np.mean(err <= threshold)),
        threshold=threshold,
        n_samples=len(err),
        per_object=per_object,
        track_to_object=binding,
        unmatched_tracks=sorted(unmatched),
    )
