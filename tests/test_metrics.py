"""Metrics checked against direct pair enumeration and frozen constants.

Reference values for the small worked example were produced by explicit
enumeration of all 21 event pairs and plain log arithmetic, independent of
the implementation under test.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from metrics_oracle import tracking_error_per_track

from evshift import metrics
from evshift.clustering import NOISE
from evshift.errors import ContractViolationError, EmptyAlignmentError
from evshift.metrics import (
    adjusted_rand_index,
    cluster_scores,
    contingency,
    interpolate_centers,
    kmeans_baseline,
    normalized_mutual_information,
    pair_counts,
    pooled_pair_counts,
    precision_recall_f,
    tracking_error,
)

PRED = [0, 0, 1, 1, 2, 2, 2]
TRUTH = [0, 0, 0, 1, 1, 2, 2]

# Frozen direct-enumeration results for the labeling above.
FROZEN_TP, FROZEN_FP, FROZEN_FN, FROZEN_TN = 2, 3, 3, 13
FROZEN_F1 = 0.4000000000000001
FROZEN_ARI = 0.21250000000000002
FROZEN_NMI = 0.5636355530993448


def brute_pairs(pred, truth):
    kept = [(p, t) for p, t in zip(pred, truth) if p != -1 and t != -1]
    tp = fp = fn = tn = 0
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            same_p = kept[i][0] == kept[j][0]
            same_t = kept[i][1] == kept[j][1]
            if same_p and same_t:
                tp += 1
            elif same_p:
                fp += 1
            elif same_t:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def brute_nmi(pred, truth):
    kept = [(p, t) for p, t in zip(pred, truth) if p != -1 and t != -1]
    n = len(kept)
    ps = sorted({p for p, _ in kept})
    ts = sorted({t for _, t in kept})

    def count(pv=None, tv=None):
        return sum(1 for p, t in kept if (pv is None or p == pv) and (tv is None or t == tv))

    mi = 0.0
    for pv in ps:
        for tv in ts:
            nij = count(pv, tv)
            if nij:
                mi += (nij / n) * math.log(nij * n / (count(pv=pv) * count(tv=tv)))
    hu = -sum((count(pv=v) / n) * math.log(count(pv=v) / n) for v in ps)
    hv = -sum((count(tv=v) / n) * math.log(count(tv=v) / n) for v in ts)
    return max(mi, 0.0) / math.sqrt(hu * hv)


def test_pair_counts_match_frozen_example():
    pc = pair_counts(PRED, TRUTH)
    assert (pc.tp, pc.fp, pc.fn, pc.tn) == (FROZEN_TP, FROZEN_FP, FROZEN_FN, FROZEN_TN)
    assert pc.total == 21


def test_prf_matches_frozen_example():
    r = precision_recall_f(PRED, TRUTH)
    assert r.precision == pytest.approx(0.4, rel=1e-14)
    assert r.recall == pytest.approx(0.4, rel=1e-14)
    assert r.f_score == pytest.approx(FROZEN_F1, rel=1e-14)
    assert not r.degenerate


def test_ari_matches_frozen_example():
    r = adjusted_rand_index(PRED, TRUTH)
    assert r.value == pytest.approx(FROZEN_ARI, rel=1e-14)
    assert not r.degenerate


def test_nmi_matches_frozen_example():
    r = normalized_mutual_information(PRED, TRUTH)
    assert r.value == pytest.approx(FROZEN_NMI, rel=1e-13)
    assert not r.degenerate


def test_pair_counts_match_brute_force_with_noise():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(5, 40))
        pred = rng.integers(-1, 4, size=n).tolist()
        truth = rng.integers(-1, 4, size=n).tolist()
        kept = [(p, t) for p, t in zip(pred, truth) if p != -1 and t != -1]
        if len(kept) == 0:
            with pytest.raises(EmptyAlignmentError):
                pair_counts(pred, truth)
            continue
        pc = pair_counts(pred, truth)
        assert (pc.tp, pc.fp, pc.fn, pc.tn) == brute_pairs(pred, truth)


def test_ari_matches_pairwise_identity():
    # ARI can be written from the four pair classes: 2(ad - bc) over
    # (a+b)(b+d) + (a+c)(c+d).  That route shares no code with the
    # contingency implementation.
    rng = np.random.default_rng(32)
    for _ in range(30):
        n = int(rng.integers(8, 50))
        pred = rng.integers(0, 4, size=n).tolist()
        truth = rng.integers(0, 4, size=n).tolist()
        a, b, c, d = brute_pairs(pred, truth)
        denom = (a + b) * (b + d) + (a + c) * (c + d)
        if denom == 0:
            continue
        want = 2.0 * (a * d - b * c) / denom
        got = adjusted_rand_index(pred, truth)
        assert got.value == pytest.approx(want, abs=1e-12)


def test_nmi_matches_brute_force():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(8, 50))
        pred = rng.integers(0, 3, size=n)
        truth = rng.integers(0, 3, size=n)
        if len(set(pred.tolist())) < 2 or len(set(truth.tolist())) < 2:
            continue
        got = normalized_mutual_information(pred, truth)
        assert not got.degenerate
        assert got.value == pytest.approx(brute_nmi(pred.tolist(), truth.tolist()), abs=1e-12)


def test_identical_labelings_score_perfect():
    labels = [0, 0, 1, 1, 2, 2, 2, 3]
    r = precision_recall_f(labels, labels)
    assert (r.precision, r.recall, r.f_score) == (1.0, 1.0, 1.0)
    assert adjusted_rand_index(labels, labels).value == pytest.approx(1.0, rel=1e-14)
    assert normalized_mutual_information(labels, labels).value == pytest.approx(1.0, rel=1e-14)


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(34)
    pred = rng.integers(0, 4, size=60)
    truth = rng.integers(0, 4, size=60)
    perm = {0: 9, 1: 4, 2: 17, 3: 0}
    pred2 = np.array([perm[int(v)] for v in pred])
    assert precision_recall_f(pred, truth).f_score == precision_recall_f(pred2, truth).f_score
    assert adjusted_rand_index(pred, truth).value == adjusted_rand_index(pred2, truth).value
    assert normalized_mutual_information(pred, truth).value == pytest.approx(
        normalized_mutual_information(pred2, truth).value, rel=1e-13
    )


def test_ari_near_zero_for_independent_labelings():
    rng = np.random.default_rng(35)
    vals = []
    for _ in range(200):
        pred = rng.integers(0, 4, size=60)
        truth = rng.integers(0, 4, size=60)
        vals.append(adjusted_rand_index(pred, truth).value)
    assert abs(float(np.mean(vals))) < 0.02


def test_degenerate_flags():
    # all singletons on both sides: no pair is together anywhere
    r = precision_recall_f([0, 1, 2], [0, 1, 2])
    assert r.degenerate
    assert (r.precision, r.recall, r.f_score) == (1.0, 1.0, 1.0)
    # prediction all singletons, truth one cluster
    r = precision_recall_f([0, 1, 2], [0, 0, 0])
    assert r.degenerate
    assert (r.precision, r.recall, r.f_score) == (1.0, 0.0, 0.0)
    assert adjusted_rand_index([0, 0, 0], [0, 0, 0]).degenerate
    assert adjusted_rand_index([0, 0, 0], [0, 0, 0]).value == 1.0
    nmi = normalized_mutual_information([0, 0, 0], [0, 0, 0])
    assert nmi.degenerate and nmi.value == 1.0
    nmi = normalized_mutual_information([0, 0, 0], [0, 1, 1])
    assert nmi.degenerate and nmi.value == 0.0
    with pytest.raises(EmptyAlignmentError):
        pair_counts([-1, -1], [0, 1])
    with pytest.raises(ContractViolationError):
        pair_counts([0, 1], [0, 1, 2])
    with pytest.raises(ContractViolationError):
        precision_recall_f([0, 1], [0, 1], beta=0.0)


def test_f_beta_weights_recall():
    pred = [0, 0, 0, 0, 1]
    truth = [0, 0, 1, 1, 1]
    r1 = precision_recall_f(pred, truth, beta=1.0)
    r2 = precision_recall_f(pred, truth, beta=2.0)
    rhalf = precision_recall_f(pred, truth, beta=0.5)
    assert r1.precision == pytest.approx(1 / 3, rel=1e-14)
    assert r1.recall == pytest.approx(0.5, rel=1e-14)
    assert r1.f_score == pytest.approx(0.4, rel=1e-14)
    assert r2.f_score == pytest.approx(5 / 11, rel=1e-14)
    assert rhalf.f_score == pytest.approx(5 / 14, rel=1e-14)


def test_kmeans_single_cluster():
    x = np.random.default_rng(0).uniform(0, 1, size=(30, 4))
    assert kmeans_baseline(x, 1).tolist() == [0] * 30


def test_kmeans_separates_far_blobs_for_any_seed():
    rng = np.random.default_rng(36)
    a = rng.normal([0, 0], 0.1, size=(20, 2))
    b = rng.normal([10, 10], 0.1, size=(20, 2))
    x = np.vstack([a, b])
    for seed in range(6):
        labels = kmeans_baseline(x, 2, seed=seed)
        first = set(labels[:20].tolist())
        second = set(labels[20:].tolist())
        assert len(first) == 1 and len(second) == 1
        assert first != second


def test_kmeans_deterministic_per_seed():
    x = np.random.default_rng(37).uniform(0, 1, size=(50, 4))
    a = kmeans_baseline(x, 4, seed=5)
    b = kmeans_baseline(x, 4, seed=5)
    assert np.array_equal(a, b)


def test_kmeans_survives_duplicate_points():
    x = np.array([[0.0, 0.0]] * 3 + [[10.0, 10.0]] * 2)
    labels = kmeans_baseline(x, 3, seed=1)
    assert len(labels) == 5
    assert set(labels.tolist()) <= {0, 1, 2}


def test_kmeans_contract():
    x = np.zeros((5, 2))
    with pytest.raises(ContractViolationError):
        kmeans_baseline(x, 0)
    with pytest.raises(ContractViolationError):
        kmeans_baseline(x, 6)
    with pytest.raises(ContractViolationError):
        kmeans_baseline(np.zeros(5), 2)


def one_object_truth():
    truth_t = np.array([0.0, 1.0])
    truth_obj = np.array([0, 0])
    truth_xy = np.array([[10.0, 10.0], [20.0, 10.0]])
    return truth_t, truth_obj, truth_xy


def test_interpolate_centers_linear_and_clamped():
    truth_t, truth_obj, truth_xy = one_object_truth()
    c = interpolate_centers(truth_t, truth_obj, truth_xy, 0, np.array([0.25, 2.0]))
    assert np.allclose(c, [[12.5, 10.0], [20.0, 10.0]])


def test_tracking_error_perfect_track():
    truth_t, truth_obj, truth_xy = one_object_truth()
    ts = np.linspace(0.1, 0.9, 9)
    xy = np.stack([10.0 + 10.0 * ts, np.full(9, 10.0)], axis=1)
    rep = tracking_error(ts, np.zeros(9, dtype=int), xy, truth_t, truth_obj, truth_xy)
    assert rep.mean_error == pytest.approx(0.0, abs=1e-12)
    assert rep.valid_fraction == 1.0
    assert rep.n_samples == 9
    assert rep.track_to_object == {0: 0}
    assert rep.unmatched_tracks == []


def test_tracking_error_offset_and_threshold_boundary():
    truth_t, truth_obj, truth_xy = one_object_truth()
    ts = np.linspace(0.1, 0.9, 9)
    xy = np.stack([10.0 + 10.0 * ts, np.full(9, 10.0 + 3.0)], axis=1)
    rep = tracking_error(ts, np.zeros(9, dtype=int), xy, truth_t, truth_obj, truth_xy)
    assert rep.mean_error == pytest.approx(3.0, abs=1e-12)
    assert rep.valid_fraction == 0.0
    xy = np.stack([10.0 + 10.0 * ts, np.full(9, 10.0 + 2.5)], axis=1)
    rep = tracking_error(ts, np.zeros(9, dtype=int), xy, truth_t, truth_obj, truth_xy)
    assert rep.valid_fraction == 1.0  # boundary counts as valid


def test_tracking_error_binding_is_permanent():
    truth_t = np.array([0.0, 1.0, 0.0, 1.0])
    truth_obj = np.array([0, 0, 1, 1])
    truth_xy = np.array([[10.0, 0.0], [10.0, 0.0], [18.0, 0.0], [18.0, 0.0]])
    ts = np.array([0.1, 0.5])
    xy = np.array([[10.0, 0.0], [18.0, 0.0]])
    rep = tracking_error(ts, np.zeros(2, dtype=int), xy, truth_t, truth_obj, truth_xy)
    assert rep.track_to_object == {0: 0}
    assert rep.mean_error == pytest.approx(4.0, abs=1e-12)


def test_tracking_error_unmatched_track_reported():
    truth_t, truth_obj, truth_xy = one_object_truth()
    ts = np.array([0.1, 0.2, 0.1, 0.2])
    tid = np.array([0, 0, 1, 1])
    xy = np.array([[11.0, 10.0], [12.0, 10.0], [200.0, 200.0], [200.0, 200.0]])
    rep = tracking_error(ts, tid, xy, truth_t, truth_obj, truth_xy)
    assert rep.unmatched_tracks == [1]
    assert rep.n_samples == 2
    rep_only_far = None
    with pytest.raises(EmptyAlignmentError):
        rep_only_far = tracking_error(
            ts[2:], tid[2:], xy[2:], truth_t, truth_obj, truth_xy
        )
    assert rep_only_far is None


@pytest.mark.parametrize("threshold, match_radius", [(-1.0, 15.0), (math.nan, 15.0), (2.5, 0.0), (2.5, math.nan)])
def test_tracking_error_rejects_invalid_settings(threshold, match_radius):
    truth_t, truth_obj, truth_xy = one_object_truth()
    ts = np.array([0.1, 0.2])
    xy = np.array([[11.0, 10.0], [12.0, 10.0]])
    with pytest.raises(ContractViolationError):
        tracking_error(ts, np.zeros(2, dtype=int), xy, truth_t, truth_obj, truth_xy, threshold, match_radius)


def test_tracking_error_empty_inputs():
    truth_t, truth_obj, truth_xy = one_object_truth()
    with pytest.raises(EmptyAlignmentError):
        tracking_error(np.array([]), np.array([]), np.zeros((0, 2)), truth_t, truth_obj, truth_xy)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["sample", "center"])
def test_tracking_error_refuses_non_finite_times(where, value):
    # A NaN first sample used to leave its track unmatched, and other
    # non-finite times were scored.
    truth_t, truth_obj, truth_xy = one_object_truth()
    ts = np.array([0.1, 0.2])
    (ts if where == "sample" else truth_t)[0] = value
    xy = np.array([[11.0, 10.0], [12.0, 10.0]])
    with pytest.raises(ContractViolationError, match="times must be finite"):
        tracking_error(ts, np.zeros(2, dtype=int), xy, truth_t, truth_obj, truth_xy)


def test_tracking_error_interpolates_each_object_at_most_twice(monkeypatch):
    calls = Counter()

    def counted(truth_t, truth_obj, truth_xy, obj, times):
        calls[int(obj)] += 1
        return interpolate_centers(truth_t, truth_obj, truth_xy, obj, times)

    monkeypatch.setattr(metrics, "interpolate_centers", counted)
    truth_t = np.tile([0.0, 1.0], 3)
    truth_obj = np.repeat([0, 1, 2], 2)
    truth_xy = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 50.0], [10.0, 50.0], [0.0, 100.0], [10.0, 100.0]])
    ts = np.tile(np.linspace(0.1, 0.9, 5), 20)
    tid = np.repeat(np.arange(20), 5)
    xy = np.stack([10.0 * ts, 50.0 * (tid % 3) + 1.0], axis=1)
    rep = tracking_error(ts, tid, xy, truth_t, truth_obj, truth_xy)
    assert rep.track_to_object == {k: k % 3 for k in range(20)}
    assert calls == {0: 2, 1: 2, 2: 2}


@st.composite
def scored_tracks(draw):
    """Track samples and true centers, as columns, whose draws include ties
    in first-sample time, duplicate center times, samples outside an
    object's center span, a track equidistant from two objects, one at the
    same distance from two objects but for the rounding of the dot product,
    and one beyond any match_radius drawn."""
    coords = st.one_of(st.integers(-8, 8).map(float), st.floats(-20, 20))
    places = st.one_of(coords, st.just(math.nan))  # a NaN distance never binds
    centers, still = [], []  # (t, object, x, y); objects that do not move
    for obj in draw(st.lists(st.integers(-2, 6), min_size=1, max_size=3, unique=True)):
        # at an integer place, an object that does not move has exactly that center at any time
        place = (float(draw(st.integers(-8, 8))), float(draw(st.integers(-8, 8)))) if draw(st.booleans()) else None
        still += [(obj, place)] if place else []
        for _ in range(draw(st.integers(1, 4))):
            t = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)))
            centers.append((t, obj, *(place or (draw(places), draw(places)))))
    samples = []
    times = st.one_of(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0]), st.floats(-1, 2))
    for track in draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)):
        offset = draw(st.sampled_from([0.0, 1.0, 1000.0]))
        samples += [(draw(times), track, draw(places) + offset, draw(places)) for _ in range(draw(st.integers(1, 6)))]
    if len(still) >= 2 and draw(st.booleans()):
        (_, a), (_, b) = still[:2]
        t0 = draw(times)
        samples.append((t0, 10, (a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
        samples += [(t0 + draw(st.floats(0, 1)), 10, draw(coords), draw(coords)) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        # |(u, w)| and |(w, u)| are equal, but a dot product that fuses a
        # multiply and an add may round them apart
        u, w = draw(st.floats(-10, 10)), draw(st.floats(-10, 10))
        centers += [(draw(times), 7, u, w), (draw(times), 8, w, u)]
        samples.append((draw(times), 11, 0.0, 0.0))
    samples, centers = draw(st.permutations(samples)), draw(st.permutations(centers))
    sample_t, sample_track, sx, sy = map(np.array, zip(*samples))
    truth_t, truth_obj, cx, cy = map(np.array, zip(*centers))
    return sample_t, sample_track, np.stack([sx, sy], axis=1), truth_t, truth_obj, np.stack([cx, cy], axis=1)


@settings(max_examples=300, deadline=None)
@given(case=scored_tracks(), threshold=st.sampled_from([0.0, 1.0, 2.5]), match_radius=st.sampled_from([2.5, 5.0, 15.0]))
def test_tracking_error_equals_the_per_track_oracle(case, threshold, match_radius):
    try:
        want = tracking_error_per_track(*case, threshold, match_radius)
    except EmptyAlignmentError:
        with pytest.raises(EmptyAlignmentError):
            tracking_error(*case, threshold, match_radius)
        return
    # repr tells every float bit and an int from a numpy int
    assert repr(tracking_error(*case, threshold, match_radius)) == repr(want)


def test_cluster_scores_equal_the_separate_metrics():
    rng = np.random.default_rng(13)
    cases = [([0, 0, 1, 1], [0, 0, 0, 0]), ([0, 0, 0], [1, 1, 1]), ([0, 1, 2], [0, 1, 2]), ([0, -1], [-1, 0])]
    for _ in range(30):
        n = int(rng.integers(1, 60))
        cases.append((rng.integers(-1, 4, size=n), rng.integers(-1, 5, size=n)))
    for pred, truth in cases:
        for beta in (0.5, 1.0, 2.0):
            try:
                want = (pair_counts(pred, truth), precision_recall_f(pred, truth, beta=beta),
                        adjusted_rand_index(pred, truth), normalized_mutual_information(pred, truth))
            except EmptyAlignmentError:
                with pytest.raises(EmptyAlignmentError):
                    cluster_scores(pred, truth, beta=beta)
                continue
            assert cluster_scores(pred, truth, beta=beta) == want
    with pytest.raises(ContractViolationError):
        cluster_scores([0, 1], [0, 1], beta=0.0)


def offset_pooled_pair_counts(packets):
    """Pooled pair counts the direct way: the ids of each scored packet are
    offset past those of the packets before it, on both sides, and one
    pair_counts runs over the concatenated labels."""
    pooled_pred, pooled_truth, offset = [], [], 0
    for pred, truth in packets:
        if not ((pred != NOISE) & (truth != NOISE)).any():
            continue
        pooled_pred.append(np.where(pred == NOISE, NOISE, pred + offset))
        pooled_truth.append(np.where(truth == NOISE, NOISE, truth + offset))
        offset += int(max(pred.max(), truth.max()) + 1)
    return pair_counts(np.concatenate(pooled_pred), np.concatenate(pooled_truth))


@settings(max_examples=200, deadline=None)
@given(packets=st.lists(st.tuples(
    st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), min_size=1, max_size=30),
    st.booleans()), min_size=1, max_size=8))
def test_pooled_pair_counts_equal_the_offset_concatenation(packets):
    # a packet whose flag is set is all noise on the predicted side, and skipped
    packets = [(np.array([NOISE if noise else p for p, _ in pairs]), np.array([t for _, t in pairs]))
               for pairs, noise in packets]
    scored = [(pred, truth) for pred, truth in packets if ((pred != NOISE) & (truth != NOISE)).any()]
    if not scored:
        return
    counts = [(int(((pred != NOISE) & (truth != NOISE)).sum()), cluster_scores(pred, truth)[0])
              for pred, truth in scored]
    assert pooled_pair_counts(counts) == offset_pooled_pair_counts(packets)


def test_contingency_counts_every_pair_of_ids():
    cont = contingency([5, 5, 2, 7, 2, 5], [1, 0, 1, 1, 1, 0])
    assert cont.pred_ids.tolist() == [2, 5, 7]
    assert cont.truth_ids.tolist() == [0, 1]
    assert cont.matrix.tolist() == [[0, 2], [2, 1], [0, 1]]
    assert cont.matrix.dtype == np.int64
    assert cont.n == 6
