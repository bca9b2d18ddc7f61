"""Clustering quality metrics, a k-means reference, tracking error.

Pair-counting metrics treat clustering as a binary decision over event
pairs: same cluster or not.  Events labeled as noise on either side are
excluded before counting, so quality is measured on the events both
labelings actually assign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log
from typing import Dict, List, Optional, Tuple

import numpy as np

from .clustering import NOISE
from .errors import ContractViolationError, EmptyAlignmentError


@dataclass
class Contingency:
    """Joint label-count matrix between two labelings of the same events."""

    matrix: np.ndarray
    pred_ids: np.ndarray
    truth_ids: np.ndarray
    n: int


def _check_same_length(pred, truth) -> Tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ContractViolationError(
            f"label arrays must be 1D and equal length, got {pred.shape} vs {truth.shape}"
        )
    return pred, truth


def drop_noise(pred, truth) -> Tuple[np.ndarray, np.ndarray]:
    """Remove events labeled as noise in either labeling."""
    pred, truth = _check_same_length(pred, truth)
    keep = (pred != NOISE) & (truth != NOISE)
    return pred[keep], truth[keep]


def contingency(pred, truth) -> Contingency:
    pred, truth = _check_same_length(pred, truth)
    pred_ids, pi = np.unique(pred, return_inverse=True)
    truth_ids, ti = np.unique(truth, return_inverse=True)
    m = np.zeros((len(pred_ids), len(truth_ids)), dtype=np.int64)
    np.add.at(m, (pi, ti), 1)
    return Contingency(matrix=m, pred_ids=pred_ids, truth_ids=truth_ids, n=len(pred))


@dataclass
class PairCounts:
    """Pairwise agreement counts between predicted and true labelings.

    tp: pairs together in both; fp: together in prediction only;
    fn: together in truth only; tn: separate in both.
    """

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def _pairs(counts: np.ndarray) -> int:
    c = counts.astype(np.int64)
    return int(np.sum(c * (c - 1) // 2))


def pair_counts(pred, truth) -> PairCounts:
    """Count event pairs by agreement class, noise excluded on both sides."""
    pred, truth = drop_noise(pred, truth)
    if len(pred) == 0:
        raise EmptyAlignmentError("no events left after noise exclusion")
    cont = contingency(pred, truth)
    m = cont.matrix
    together_both = _pairs(m.reshape(-1))
    together_pred = _pairs(m.sum(axis=1))
    together_truth = _pairs(m.sum(axis=0))
    all_pairs = cont.n * (cont.n - 1) // 2
    tp = together_both
    fp = together_pred - together_both
    fn = together_truth - together_both
    tn = all_pairs - tp - fp - fn
    return PairCounts(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass
class PRF:
    precision: float
    recall: float
    f_score: float
    beta: float = 1.0
    degenerate: bool = False


def precision_recall_f(pred, truth, beta: float = 1.0) -> PRF:
    """Pairwise precision, recall and F over non-noise events.

    Zero-denominator cases are vacuous: the value is reported as 1.0 for
    precision/recall (nothing contradicts the claim) and 0.0 for F when
    both rates are zero, and the result is flagged degenerate.
    """
    if beta <= 0:
        raise ContractViolationError(f"beta must be > 0, got {beta}")
    pc = pair_counts(pred, truth)
    degenerate = False
    if pc.tp + pc.fp == 0:
        precision, degenerate = 1.0, True
    else:
        precision = pc.tp / (pc.tp + pc.fp)
    if pc.tp + pc.fn == 0:
        recall, degenerate = 1.0, True
    else:
        recall = pc.tp / (pc.tp + pc.fn)
    b2 = beta * beta
    if precision == 0.0 and recall == 0.0:
        f, degenerate = 0.0, True
    else:
        f = (1 + b2) * precision * recall / (b2 * precision + recall)
    return PRF(precision=precision, recall=recall, f_score=f, beta=beta, degenerate=degenerate)


@dataclass
class ARIResult:
    value: float
    degenerate: bool = False


def adjusted_rand_index(pred, truth) -> ARIResult:
    """Chance-corrected pair agreement, noise excluded on both sides.

    When the expected and maximum index coincide (for example both
    labelings put everything in one cluster) the score is defined as 1.0
    and flagged degenerate.
    """
    pc = pair_counts(pred, truth)
    if pc.total == 0:
        return ARIResult(value=1.0, degenerate=True)
    sum_a, sum_b = pc.tp + pc.fp, pc.tp + pc.fn
    expected = sum_a * sum_b / pc.total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return ARIResult(value=1.0, degenerate=True)
    return ARIResult(value=(pc.tp - expected) / (maximum - expected))


@dataclass
class NMIResult:
    value: float
    degenerate: bool = False


def normalized_mutual_information(pred, truth) -> NMIResult:
    """Mutual information normalized by the geometric mean of entropies.

    If both labelings are constant they agree trivially (1.0); if exactly
    one is constant it carries no information about the other (0.0).  Both
    cases are flagged degenerate.
    """
    pred, truth = drop_noise(pred, truth)
    if len(pred) == 0:
        raise EmptyAlignmentError("no events left after noise exclusion")
    cont = contingency(pred, truth)
    m = cont.matrix.astype(float)
    n = float(cont.n)
    pij = m / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)

    def entropy(p: np.ndarray) -> float:
        p = p[p > 0]
        return float(-np.sum(p * np.log(p)))

    hu = entropy(pi)
    hv = entropy(pj)
    if hu == 0.0 and hv == 0.0:
        return NMIResult(value=1.0, degenerate=True)
    if hu == 0.0 or hv == 0.0:
        return NMIResult(value=0.0, degenerate=True)
    nz = pij > 0
    outer = pi[:, None] * pj[None, :]
    mi = float(np.sum(pij[nz] * np.log(pij[nz] / outer[nz])))
    mi = max(mi, 0.0)
    return NMIResult(value=mi / np.sqrt(hu * hv))


def kmeans_baseline(
    features: np.ndarray,
    k: int,
    seed: int = 0,
    max_iters: int = 100,
) -> np.ndarray:
    """Lloyd k-means over the same 4D features, for comparison runs.

    Seeding follows the distance-squared weighted scheme; ties in the
    assignment go to the lowest center index.  An emptied center is reset
    to the point farthest from its current center.  Returns one label per
    point.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ContractViolationError(f"feature matrix must be 2D, got shape {x.shape}")
    n = len(x)
    if k < 1 or k > n:
        raise ContractViolationError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = x[rng.integers(n)]
        else:
            centers[c] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centers[c]) ** 2, axis=1))
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        dist = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist, axis=1)
        for c in range(k):
            members = new_labels == c
            if not members.any():
                far = int(np.argmax(dist[np.arange(n), new_labels]))
                centers[c] = x[far]
                new_labels[far] = c
                members = new_labels == c
            centers[c] = x[members].mean(axis=0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return labels


@dataclass
class TrackingErrorReport:
    """Position error of confirmed tracks against true center trajectories."""

    mean_error: float
    valid_fraction: float
    threshold: float
    n_samples: int
    per_object: Dict[int, Tuple[float, int]] = field(default_factory=dict)
    track_to_object: Dict[int, int] = field(default_factory=dict)
    unmatched_tracks: List[int] = field(default_factory=list)


def interpolate_centers(
    truth_t: np.ndarray,
    truth_obj: np.ndarray,
    truth_xy: np.ndarray,
    obj: int,
    times: np.ndarray,
) -> np.ndarray:
    """Linearly interpolated center of one object at the given times."""
    sel = truth_obj == obj
    tt = truth_t[sel]
    xy = truth_xy[sel]
    order = np.argsort(tt, kind="stable")
    tt = tt[order]
    xy = xy[order]
    cx = np.interp(times, tt, xy[:, 0])
    cy = np.interp(times, tt, xy[:, 1])
    return np.stack([cx, cy], axis=1)


def tracking_error(
    sample_t: np.ndarray,
    sample_track: np.ndarray,
    sample_xy: np.ndarray,
    truth_t: np.ndarray,
    truth_obj: np.ndarray,
    truth_xy: np.ndarray,
    threshold: float = 2.5,
    match_radius: float = 15.0,
) -> TrackingErrorReport:
    """Score confirmed track positions against true center trajectories.

    Each track is bound to one object at its first sample: the object whose
    interpolated center is nearest at that time, if within match_radius.
    The binding is permanent.  Errors are Euclidean distances between track
    positions and the bound object's interpolated center; samples of tracks
    that never bind are excluded and those tracks reported unmatched.
    """
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
