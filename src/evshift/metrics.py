"""Clustering quality metrics, a k-means reference, tracking error.

Pair-counting metrics treat clustering as a binary decision over event
pairs: same cluster or not.  Events labeled as noise on either side are
excluded before counting, so quality is measured on the events both
labelings actually assign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .clustering import NOISE
from .errors import ContractViolationError, EmptyAlignmentError
from .tracking import norms


def _check_beta(beta: float) -> None:
    if beta <= 0:
        raise ContractViolationError(f"beta must be > 0, got {beta}")


@dataclass
class PRF:
    precision: float
    recall: float
    f_score: float
    beta: float = 1.0
    degenerate: bool = False


@dataclass
class ARIResult:
    value: float
    degenerate: bool = False


@dataclass
class NMIResult:
    value: float
    degenerate: bool = False


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

    def prf(self, beta: float = 1.0) -> PRF:
        """Pairwise precision, recall and F; see precision_recall_f."""
        _check_beta(beta)
        degenerate = False
        if self.tp + self.fp == 0:
            precision, degenerate = 1.0, True
        else:
            precision = self.tp / (self.tp + self.fp)
        if self.tp + self.fn == 0:
            recall, degenerate = 1.0, True
        else:
            recall = self.tp / (self.tp + self.fn)
        b2 = beta * beta
        if precision == 0.0 and recall == 0.0:
            f, degenerate = 0.0, True
        else:
            f = (1 + b2) * precision * recall / (b2 * precision + recall)
        return PRF(precision=precision, recall=recall, f_score=f, beta=beta, degenerate=degenerate)

    def ari(self) -> ARIResult:
        """Adjusted Rand index; see adjusted_rand_index."""
        if self.total == 0:
            return ARIResult(value=1.0, degenerate=True)
        sum_a, sum_b = self.tp + self.fp, self.tp + self.fn
        expected = sum_a * sum_b / self.total
        maximum = 0.5 * (sum_a + sum_b)
        if maximum == expected:
            return ARIResult(value=1.0, degenerate=True)
        return ARIResult(value=(self.tp - expected) / (maximum - expected))


def _pairs(counts: np.ndarray) -> int:
    c = counts.astype(np.int64)
    return int(np.sum(c * (c - 1) // 2))


@dataclass
class Contingency:
    """Joint label-count matrix between two labelings of the same events."""

    matrix: np.ndarray
    pred_ids: np.ndarray
    truth_ids: np.ndarray
    n: int

    def pair_counts(self) -> PairCounts:
        m = self.matrix
        together_both = _pairs(m.reshape(-1))
        together_pred = _pairs(m.sum(axis=1))
        together_truth = _pairs(m.sum(axis=0))
        all_pairs = self.n * (self.n - 1) // 2
        tp = together_both
        fp = together_pred - together_both
        fn = together_truth - together_both
        tn = all_pairs - tp - fp - fn
        return PairCounts(tp=tp, fp=fp, fn=fn, tn=tn)

    def nmi(self) -> NMIResult:
        """Normalized mutual information; see normalized_mutual_information."""
        pij = self.matrix.astype(float) / float(self.n)
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
    shape = (len(pred_ids), len(truth_ids))
    m = np.bincount(pi * shape[1] + ti, minlength=shape[0] * shape[1]).astype(np.int64, copy=False).reshape(shape)
    return Contingency(matrix=m, pred_ids=pred_ids, truth_ids=truth_ids, n=len(pred))


def scored_contingency(pred, truth) -> Contingency:
    """Contingency of the events neither labeling calls noise."""
    pred, truth = drop_noise(pred, truth)
    if len(pred) == 0:
        raise EmptyAlignmentError("no events left after noise exclusion")
    return contingency(pred, truth)


def pair_counts(pred, truth) -> PairCounts:
    """Count event pairs by agreement class, noise excluded on both sides."""
    return scored_contingency(pred, truth).pair_counts()


def precision_recall_f(pred, truth, beta: float = 1.0) -> PRF:
    """Pairwise precision, recall and F over non-noise events.

    Zero-denominator cases are vacuous: the value is reported as 1.0 for
    precision/recall (nothing contradicts the claim) and 0.0 for F when
    both rates are zero, and the result is flagged degenerate.
    """
    _check_beta(beta)
    return pair_counts(pred, truth).prf(beta)


def adjusted_rand_index(pred, truth) -> ARIResult:
    """Chance-corrected pair agreement, noise excluded on both sides.

    When the expected and maximum index coincide (for example both
    labelings put everything in one cluster) the score is defined as 1.0
    and flagged degenerate.
    """
    return pair_counts(pred, truth).ari()


def normalized_mutual_information(pred, truth) -> NMIResult:
    """Mutual information normalized by the geometric mean of entropies.

    If both labelings are constant they agree trivially (1.0); if exactly
    one is constant it carries no information about the other (0.0).  Both
    cases are flagged degenerate.
    """
    return scored_contingency(pred, truth).nmi()


def cluster_scores(pred, truth, beta: float = 1.0) -> Tuple[PairCounts, PRF, ARIResult, NMIResult]:
    """Pair counts, pair P/R/F, ARI and NMI of one labeling pair, from one contingency.

    Each value equals the one its own function returns.
    """
    _check_beta(beta)
    cont = scored_contingency(pred, truth)
    pc = cont.pair_counts()
    return pc, pc.prf(beta), pc.ari(), cont.nmi()


def pooled_pair_counts(parts: Iterable[Tuple[int, PairCounts]]) -> PairCounts:
    """Pair counts of labelings pooled from parts that share no cluster id,
    from each part's scored event count and pair counts: a pair across parts
    is together on neither side, so only tn takes those pairs."""
    n = tp = fp = fn = 0
    for k, pc in parts:
        n, tp, fp, fn = n + k, tp + pc.tp, fp + pc.fp, fn + pc.fn
    return PairCounts(tp=tp, fp=fp, fn=fn, tn=n * (n - 1) // 2 - tp - fp - fn)


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
    if seed < 0:
        raise ContractViolationError(f"seed must be >= 0, got {seed}")
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

    Each track is bound to one object at its first sample (the earliest, of
    equal times the first given): the object whose interpolated center is
    nearest at that time, the lowest id of equally near ones, if within
    match_radius.  The binding is permanent.  Errors are Euclidean distances
    between track positions and the bound object's interpolated center, by
    track id, then in the order given; samples of tracks that never bind are
    excluded and those tracks reported unmatched.  Sample and center times
    must be finite.  Each object's centers are interpolated at most twice.
    """
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
    if not (np.isfinite(sample_t).all() and np.isfinite(truth_t).all()):
        raise ContractViolationError("track sample and center times must be finite")
    tracks, track_of = np.unique(sample_track, return_inverse=True)
    by_time = np.lexsort((sample_t, track_of))
    first = by_time[np.r_[True, np.diff(track_of[by_time]) != 0]]
    objects = np.unique(truth_obj)
    centers = np.stack([interpolate_centers(truth_t, truth_obj, truth_xy, obj, sample_t[first]) for obj in objects], axis=1)
    d = norms(sample_xy[first, None, :] - centers)
    d[np.isnan(d)] = np.inf  # a NaN distance never binds
    nearest = np.argmin(d, axis=1)
    bound = d[np.arange(len(tracks)), nearest] <= match_radius
    nearest_obj = objects[nearest]
    rows = np.argsort(track_of, kind="stable")
    rows = rows[bound[track_of[rows]]]
    if not len(rows):
        raise EmptyAlignmentError("no track bound to any true object")
    row_obj = nearest_obj[track_of[rows]]
    err = np.empty(len(rows))
    per_object: Dict[int, Tuple[float, int]] = {}
    for obj in np.unique(row_obj):
        mine = row_obj == obj
        centers = interpolate_centers(truth_t, truth_obj, truth_xy, obj, sample_t[rows[mine]])
        err[mine] = np.linalg.norm(sample_xy[rows[mine]] - centers, axis=1)
        per_object[int(obj)] = (float(np.mean(err[mine])), int(mine.sum()))
    return TrackingErrorReport(
        mean_error=float(np.mean(err)),
        valid_fraction=float(np.mean(err <= threshold)),
        threshold=threshold,
        n_samples=len(err),
        per_object=per_object,
        track_to_object=dict(zip(tracks[bound].tolist(), nearest_obj[bound].tolist())),
        unmatched_tracks=tracks[~bound].tolist(),
    )
