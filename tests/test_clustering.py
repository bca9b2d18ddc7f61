"""Mode seeking checked against a frozen grid-search oracle.

The reference values below were produced by an independent brute-force hill
climb: kernel density summed over original features, maximized on a uniform
(fx, fy) grid of resolution 5e-4 with polarity and decayed age pinned at 1.
They are frozen here as plain numbers.  The kernels are also checked bit
for bit against the ones they replaced, in clustering_oracle.py.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evshift import clustering
from evshift.clustering import (
    MIN_BANDWIDTH,
    NOISE,
    MeanShiftParams,
    WEIGHT_FLOOR,
    _step_point,
    cluster_packet,
    find_mode_path,
    kernel_weight,
    merge_modes,
    seek_modes,
)
from evshift.errors import ContractViolationError
from evshift.events import DecayParams, Event, SensorGeometry, make_packet
import clustering_oracle
from clustering_oracle import merge_modes_union_find, seek_modes_einsum

GEOM = SensorGeometry(81, 81)
BLOB_A = [(18, 19), (20, 20), (21, 18), (19, 22), (22, 21), (20, 17)]
BLOB_B = [(58, 61), (60, 60), (62, 59), (59, 58), (61, 62), (63, 60)]

# Frozen grid-search results for the two-blob packet below, h = 0.1.
GRID_MODE_A = (0.250000, 0.243500)
GRID_MODE_B = (0.756500, 0.750000)
GRID_DENSITY = 5.78993733

PARAMS = MeanShiftParams(bandwidth_h=0.1, epsilon=1e-3, max_iters=100, merge_radius=0.05, min_cluster_size=5)


def two_blob_packet():
    events = [Event(t=1.0, x=x, y=y, p=True) for x, y in BLOB_A + BLOB_B]
    return make_packet(events, GEOM, DecayParams())


def density_at(point, reference, h):
    d = (np.asarray(point, dtype=float)[None, :] - reference) / h
    return float(np.sum(np.exp(-0.5 * np.sum(d * d, axis=1))))


def test_kernel_weight_values():
    assert kernel_weight([0.0, 0.0, 0.0, 0.0]) == 1.0
    assert kernel_weight([1.0, 0.0, 0.0, 0.0]) == pytest.approx(np.exp(-0.5), rel=1e-14)
    w = kernel_weight(np.zeros((3, 4)))
    assert w.shape == (3,)
    assert np.all(w == 1.0)


def test_find_mode_matches_frozen_grid_oracle():
    pkt = two_blob_packet()
    feats = pkt.feature_array()
    for seed, grid_mode in ((0, GRID_MODE_A), (6, GRID_MODE_B)):
        path, iters = find_mode_path(seed, pkt, PARAMS)
        mode = path[-1]
        assert 0 < iters <= PARAMS.max_iters
        assert abs(mode[0] - grid_mode[0]) <= 2e-3
        assert abs(mode[1] - grid_mode[1]) <= 2e-3
        # degenerate polarity/age columns must not move (modulo one ulp of
        # round-off in the weighted mean)
        assert mode[2] == pytest.approx(1.0, abs=1e-12)
        assert mode[3] == pytest.approx(1.0, abs=1e-12)
        assert density_at(mode, feats, PARAMS.bandwidth_h) == pytest.approx(GRID_DENSITY, rel=2e-4)


def test_find_mode_path_shape_and_stop():
    pkt = two_blob_packet()
    path, iters = find_mode_path(0, pkt, PARAMS)
    assert len(path) == iters + 1
    assert np.array_equal(path[0], pkt.feature_array()[0])
    last_step = float(np.linalg.norm(path[-1] - path[-2]))
    assert last_step < PARAMS.epsilon


def test_every_step_climbs_its_snapshot_density():
    rng = np.random.default_rng(5)
    geom = SensorGeometry(64, 48)
    dp = DecayParams()
    for _ in range(3):
        t = np.sort(rng.uniform(0.0, 0.02, size=150))
        events = [
            Event(
                t=float(t[i]),
                x=int(rng.integers(0, 64)),
                y=int(rng.integers(0, 48)),
                p=bool(rng.integers(0, 2)),
            )
            for i in range(150)
        ]
        pkt = make_packet(events, geom, dp)

        def hook(before, after, snapshot, idx):
            for b, a in zip(before, after):
                db = density_at(b, snapshot, PARAMS.bandwidth_h)
                da = density_at(a, snapshot, PARAMS.bandwidth_h)
                assert da >= db * (1 - 1e-12) - 1e-12

        seek_modes(pkt, PARAMS, step_hook=hook)


def test_ops_count_is_active_seeds_times_events():
    rng = np.random.default_rng(8)
    events = [
        Event(t=float(i) * 1e-4, x=int(rng.integers(0, 64)), y=int(rng.integers(0, 48)), p=bool(rng.integers(0, 2)))
        for i in range(80)
    ]
    pkt = make_packet(events, SensorGeometry(64, 48), DecayParams())
    counted = []

    def hook(before, after, snapshot, idx):
        counted.append(idx.size * len(pkt))

    res = seek_modes(pkt, PARAMS, step_hook=hook)
    assert res.ops_count == sum(counted)
    assert res.ops_count == int(res.iterations.sum()) * len(pkt)


def test_lockstep_matches_per_seed_when_hybrid_columns_freeze():
    # uniform polarity and equal timestamps keep the evolving columns
    # constant, so the lockstep snapshot equals the original features
    pkt = two_blob_packet()
    res = seek_modes(pkt, PARAMS)
    for i in range(len(pkt)):
        mode = find_mode_path(i, pkt, PARAMS)[0][-1]
        assert np.allclose(res.modes[i], mode, atol=1e-9)
    assert not res.stalled.any()


def test_step_point_single_step():
    pkt = two_blob_packet()
    f0 = pkt.feature_array()
    y, stalled = _step_point(f0[0], f0, PARAMS.bandwidth_h)
    assert not stalled
    # hand-rolled weighted mean against the original features
    w = np.exp(-0.5 * np.sum(((f0[0] - f0) / PARAMS.bandwidth_h) ** 2, axis=1))
    expect = (w @ f0) / w.sum()
    assert np.allclose(y, expect, atol=1e-14)


def test_step_point_underflow_stalls():
    pkt = two_blob_packet()
    f0 = pkt.feature_array()
    far = np.array([50.0, 50.0, 1.0, 1.0])
    assert np.sum(kernel_weight((far - f0) / PARAMS.bandwidth_h)) < WEIGHT_FLOOR
    y, stalled = _step_point(far, f0, PARAMS.bandwidth_h)
    assert stalled
    assert np.array_equal(y, far)
    assert y is not far


def test_merge_modes_chains_transitively():
    modes = np.array([
        [0.00, 0.0, 0.0, 0.0],
        [0.04, 0.0, 0.0, 0.0],
        [0.08, 0.0, 0.0, 0.0],
    ])
    assert merge_modes(modes, 0.05).tolist() == [0, 0, 0]


def test_merge_modes_strict_inequality_at_radius():
    modes = np.array([
        [0.00, 0.0, 0.0, 0.0],
        [0.05, 0.0, 0.0, 0.0],
    ])
    assert merge_modes(modes, 0.05).tolist() == [0, 1]


def test_merge_modes_numbers_by_first_occurrence():
    modes = np.array([
        [0.9, 0.9, 0.0, 0.0],
        [0.1, 0.1, 0.0, 0.0],
        [0.9001, 0.9, 0.0, 0.0],
    ])
    assert merge_modes(modes, 0.05).tolist() == [0, 1, 0]


def random_packet(rng, n, geom, span):
    t = np.sort(rng.uniform(0.0, span, size=n))
    events = [
        Event(t=float(t[i]), x=int(rng.integers(0, geom.width)), y=int(rng.integers(0, geom.height)),
              p=bool(rng.integers(0, 2)))
        for i in range(n)
    ]
    return make_packet(events, geom, DecayParams())


def blob_packet(rng, n_blobs, per_blob, n_noise, geom):
    """Events in tight pixel blobs plus uniform noise, in shuffled order, so
    mode merging sees components with many members."""
    centres = rng.integers(8, [geom.width - 8, geom.height - 8], size=(n_blobs, 2))
    xy = np.concatenate([np.repeat(centres, per_blob, axis=0) + rng.integers(-2, 3, size=(n_blobs * per_blob, 2)),
                         rng.integers(0, [geom.width, geom.height], size=(n_noise, 2))])
    xy = xy[rng.permutation(len(xy))]
    t = np.sort(rng.uniform(0.0, 0.01, size=len(xy)))
    events = [Event(t=float(t[i]), x=int(xy[i, 0]), y=int(xy[i, 1]), p=bool(i % 7 == 0)) for i in range(len(xy))]
    return make_packet(events, geom, DecayParams())


# Lattice steps of 0.025 with merge_radius 0.05 = two steps: draws hold
# duplicates, chains of neighbours and pairs at exactly the radius.
LATTICE_MODES = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2), st.integers(0, 2)), max_size=60
).map(lambda pts: np.array(pts, dtype=float).reshape(-1, 4) * 0.025)


@settings(max_examples=300, deadline=None)
@given(LATTICE_MODES)
def test_merge_modes_matches_union_find_oracle(modes):
    assert np.array_equal(merge_modes(modes, 0.05), merge_modes_union_find(modes, 0.05))


@st.composite
def extreme_merge_cases(draw):
    """Lattice modes in steps of r / 2 or 0.025, so pairs sit exactly at
    the radius (two steps) and at the box edge 2r (four steps), with NaN and
    infinite coordinates sprinkled in.  At 1e-300 the squared radius
    underflows to 0, at 1e300 it overflows, and at 1e308 so does 2r."""
    r = draw(st.sampled_from([0.05, 1e-300, 1e-160, 1e300, 1e308]))
    step = draw(st.sampled_from([r / 2, 0.025]))
    pts = draw(st.lists(st.tuples(*[st.integers(0, 8)] * 2, *[st.integers(0, 2)] * 2), max_size=40))
    with np.errstate(over="ignore"):
        modes = np.array(pts, dtype=float).reshape(-1, 4) * step
    specials = st.tuples(st.integers(0, 39), st.integers(0, 3), st.sampled_from([np.nan, np.inf, -np.inf]))
    for i, k, v in draw(st.lists(specials, max_size=4)):
        if i < len(modes):
            modes[i, k] = v
    return modes, r


@settings(max_examples=400, deadline=None)
@given(extreme_merge_cases())
def test_box_pruned_merge_matches_both_oracles(case):
    modes, r = case
    with np.errstate(all="ignore"):
        got = merge_modes(modes, r)
        assert np.array_equal(got, clustering_oracle.merge_modes(modes, r))
        assert np.array_equal(got, merge_modes_union_find(modes, r))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "blob"]),
    n=st.sampled_from([1, 63, 64, 65, 129]),
    seed=st.integers(0, 2**32 - 1),
    # below MIN_BANDWIDTH lone seeds stall; MeanShiftParams refuses such
    # a bandwidth, so the kernels get the three fields they read
    h=st.sampled_from([1e-10, 1e-9, MIN_BANDWIDTH, 1e-3, 0.1, 0.3]),
    max_iters=st.sampled_from([1, 4, 100]),
)
def test_seek_modes_matches_the_per_iteration_oracle_bit_for_bit(kind, n, seed, h, max_iters):
    rng = np.random.default_rng(seed)
    geom = SensorGeometry(96, 64)
    if kind == "random":
        pkt = random_packet(rng, n, geom, 0.01)
    else:
        n_blobs = 1 if n < 4 else 3
        per_blob = max(1, n // (n_blobs + 1))
        pkt = blob_packet(rng, n_blobs, per_blob, n - n_blobs * per_blob, geom)
    params = SimpleNamespace(bandwidth_h=h, epsilon=PARAMS.epsilon, max_iters=max_iters)
    got_steps, want_steps = [], []
    got = seek_modes(pkt, params, step_hook=lambda *a: got_steps.append(a))
    want = clustering_oracle.seek_modes(pkt, params, step_hook=lambda *a: want_steps.append(a))
    assert np.array_equal(got.modes, want.modes)
    assert np.array_equal(got.iterations, want.iterations)
    assert np.array_equal(got.stalled, want.stalled)
    assert got.ops_count == want.ops_count
    assert len(got_steps) == len(want_steps)
    for g, w in zip(got_steps, want_steps):
        assert all(np.array_equal(a, b) for a, b in zip(g, w))


def assert_seek_matches_oracle(pkt, params):
    """Modes, iterations, stall flags, ops_count and every step_hook tuple
    of seek_modes equal those of the per-iteration oracle, bit for bit."""
    features = pkt.feature_array().copy()
    got_steps, want_steps = [], []
    got = seek_modes(pkt, params, step_hook=lambda *a: got_steps.append(a))
    assert np.array_equal(pkt.feature_array(), features)
    want = clustering_oracle.seek_modes(pkt, params, step_hook=lambda *a: want_steps.append(a))
    assert np.array_equal(got.modes, want.modes)
    assert np.array_equal(got.iterations, want.iterations)
    assert np.array_equal(got.stalled, want.stalled)
    assert got.ops_count == want.ops_count
    assert len(got_steps) == len(want_steps)
    for g, w in zip(got_steps, want_steps):
        assert all(np.array_equal(a, b) for a, b in zip(g, w))


def clamped_iterations(pkt, params):
    """The iterations (from 1) of the oracle's seek in which some tile's
    64-row exponent product, from the oracle's _lifted, rounds above 0;
    and the number of iterations."""
    tile, found, seen = clustering._TILE, [], []

    def hook(before, after, snapshot, idx):
        seen.append(len(seen) + 1)
        lhs, rhs = clustering_oracle._lifted(before, snapshot, params.bandwidth_h)
        if any((lhs[s : s + tile] @ rhs)[: len(before) - s].max() > 0.0 for s in range(0, len(before), tile)):
            found.append(seen[-1])

    clustering_oracle.seek_modes(pkt, params, step_hook=hook)
    return found, len(seen)


# A 5x5 pixel blob of mixed polarity and age, far from the corners of GEOM.
CLAMP_BLOB = [Event(t=1.0 - 0.0005 * k, x=20 + k // 5 - 2, y=20 + k % 5 - 2, p=k % 3 == 0) for k in range(25)]


def test_seek_clamps_after_the_first_iteration_as_the_oracle():
    # Pairs of events at one pixel, of one polarity and 10 ms apart, far
    # from the blob and from each other.  A pair's seeds stay on their pixel
    # while their ages close in, so from iteration 2 on each seed sits on
    # its own snapshot point and its exponent there rounds to either side
    # of 0.  (Two identical events would both stop after one step.)
    pairs = [Event(t=1.0 - dt, x=x, y=y, p=False) for x, y in [(70, 70), (64, 12), (12, 64)] for dt in (0.0, 0.01)]
    pkt = make_packet(sorted(CLAMP_BLOB + pairs, key=lambda e: e.t), GEOM, DecayParams())
    clamped, _ = clamped_iterations(pkt, PARAMS)
    assert any(it >= 2 for it in clamped)
    assert_seek_matches_oracle(pkt, PARAMS)


def test_seek_without_a_clamp_after_the_first_iteration_matches_the_oracle():
    pkt = make_packet(sorted(CLAMP_BLOB, key=lambda e: e.t), GEOM, DecayParams())
    clamped, iterations = clamped_iterations(pkt, PARAMS)
    assert iterations > 2
    assert all(it == 1 for it in clamped)
    assert_seek_matches_oracle(pkt, PARAMS)


def test_seek_modes_matches_einsum_oracle():
    rng = np.random.default_rng(17)
    geom = SensorGeometry(64, 48)
    for n, span in ((40, 0.001), (150, 0.02), (250, 0.05), (200, 0.2)):
        pkt = random_packet(rng, n, geom, span)
        got, want = seek_modes(pkt, PARAMS), seek_modes_einsum(pkt, PARAMS)
        assert np.array_equal(got.iterations, want.iterations)
        assert np.array_equal(got.stalled, want.stalled)
        assert got.ops_count == want.ops_count
        assert np.max(np.abs(got.modes - want.modes)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 250])
def test_seek_modes_matches_einsum_oracle_at_tile_edges(n):
    # one event, a partial tile, exactly one tile, one row over, and
    # several tiles with a partial last one
    pkt = random_packet(np.random.default_rng(100 + n), n, SensorGeometry(64, 48), 0.01)
    got, want = seek_modes(pkt, PARAMS), seek_modes_einsum(pkt, PARAMS)
    assert np.array_equal(got.iterations, want.iterations)
    assert np.array_equal(got.stalled, want.stalled)
    assert got.ops_count == want.ops_count
    assert np.max(np.abs(got.modes - want.modes)) <= 1e-14


@pytest.mark.parametrize("n", [1, 65, 250])
def test_seek_tile_row_does_not_depend_on_its_tile(n):
    # A row's sums and total must keep their bits whether the row is alone
    # in a zero-padded tile or sits at any offset among other seeds.
    tile = clustering._TILE
    rng = np.random.default_rng(41 + n)
    snapshot = rng.uniform(0.0, 1.0, size=(n, 4))
    points = rng.uniform(0.0, 1.0, size=(tile + 3, 4))
    # the lifted factors as every seek_modes iteration builds them
    seeds, rhs = clustering_oracle._lifted(points, snapshot, PARAMS.bandwidth_h)
    seeds = seeds[: tile + 3]
    w = np.empty((tile, n))
    sums, total = np.empty((tile, 4)), np.empty(1)
    got_sums, got_total = np.empty((tile, 4)), np.empty(tile)
    for i in range(0, len(seeds), 7):
        alone = np.zeros((tile, 6))
        alone[0] = seeds[i]
        clustering._seek_tile(alone, rhs, snapshot, 1, w, sums, total)
        for k in range(tile):
            others = seeds[np.arange(len(seeds)) != i][rng.permutation(len(seeds) - 1)[:tile]]
            others[k] = seeds[i]
            for rows in (k + 1, tile):
                lhs = others.copy()
                lhs[rows:] = 0.0
                clustering._seek_tile(lhs, rhs, snapshot, rows, w, got_sums, got_total[:rows])
                assert np.array_equal(got_sums[k], sums[0])
                assert got_total[k] == total[0]


@pytest.mark.parametrize("block_elems", [1, 997, 2_500])
def test_small_blocks_give_identical_results(monkeypatch, block_elems):
    pkt = blob_packet(np.random.default_rng(29), n_blobs=5, per_blob=40, n_noise=40, geom=SensorGeometry(96, 64))
    assert len(pkt) >= 200
    seek = seek_modes(pkt, PARAMS)
    comp = merge_modes(seek.modes, PARAMS.merge_radius)
    lab = cluster_packet(pkt, PARAMS)
    # flood frontiers of many modes, so small caps split them into blocks
    assert np.bincount(comp).max() >= 20
    monkeypatch.setattr(clustering, "_BLOCK_ELEMS", block_elems)
    small = seek_modes(pkt, PARAMS)
    assert np.array_equal(small.modes, seek.modes)
    assert np.array_equal(small.iterations, seek.iterations)
    assert np.array_equal(small.stalled, seek.stalled)
    assert small.ops_count == seek.ops_count
    assert np.array_equal(merge_modes(seek.modes, PARAMS.merge_radius), comp)
    small_lab = cluster_packet(pkt, PARAMS)
    assert np.array_equal(small_lab.labels, lab.labels)
    assert np.array_equal(small_lab.centroids, lab.centroids)
    assert np.array_equal(small_lab.masses, lab.masses)
    assert np.array_equal(small_lab.iterations_used, lab.iterations_used)


def test_merge_modes_memory_is_bounded_by_the_block():
    # one component of 5000 modes, three merge radii wide: the flood runs
    # several rounds whose frontier x unlabeled pairs exceed one block
    rng = np.random.default_rng(31)
    modes = np.column_stack([rng.uniform(0.4, 0.55, size=(5000, 2)), np.full((5000, 2), 0.5)])
    tracemalloc.start()
    try:
        comp = merge_modes(modes, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(comp == 0)
    assert peak < 3 * 8 * clustering._BLOCK_ELEMS


def test_two_blob_packet_clusters_exactly():
    lab = cluster_packet(two_blob_packet(), PARAMS)
    assert lab.labels.tolist() == [0] * 6 + [1] * 6
    assert lab.masses.tolist() == [6, 6]
    assert np.allclose(lab.centroids, [[20.0, 19.5], [60.5, 60.0]], atol=1e-12)
    assert lab.noise_count == 0
    assert lab.n_clusters == 2


def test_small_cluster_becomes_noise():
    events = [Event(t=1.0, x=x, y=y, p=True) for x, y in BLOB_A + BLOB_B]
    events += [Event(t=1.0, x=x, y=y, p=True) for x, y in [(74, 10), (75, 11), (76, 10)]]
    pkt = make_packet(events, GEOM, DecayParams())
    lab = cluster_packet(pkt, PARAMS)
    assert lab.labels.tolist() == [0] * 6 + [1] * 6 + [NOISE] * 3
    assert lab.noise_count == 3
    assert lab.n_clusters == 2


def test_opposite_polarity_splits_colocated_events():
    pix = [(40, 40), (41, 40), (40, 41), (42, 41), (41, 42), (40, 42)]
    both = [Event(t=1.0, x=x, y=y, p=True) for x, y in pix]
    both += [Event(t=1.0, x=x, y=y, p=False) for x, y in pix]
    lab = cluster_packet(make_packet(both, GEOM, DecayParams()), PARAMS)
    assert lab.n_clusters == 2
    assert lab.masses.tolist() == [6, 6]
    same = [Event(t=1.0, x=x, y=y, p=True) for x, y in pix * 2]
    lab = cluster_packet(make_packet(same, GEOM, DecayParams()), PARAMS)
    assert lab.n_clusters == 1
    assert lab.masses.tolist() == [12]


def test_decayed_age_splits_old_activity_from_new():
    tau = 0.025
    pix = [(40, 40), (41, 40), (40, 41), (42, 41), (41, 42), (40, 42)]
    old = [Event(t=1.0 - 3 * tau, x=x, y=y, p=True) for x, y in pix]
    new = [Event(t=1.0, x=x, y=y, p=True) for x, y in pix]
    lab = cluster_packet(make_packet(old + new, GEOM, DecayParams(tau=tau)), PARAMS)
    assert lab.n_clusters == 2
    assert lab.labels.tolist() == [0] * 6 + [1] * 6
    flat = [Event(t=1.0, x=x, y=y, p=True) for x, y in pix * 2]
    lab = cluster_packet(make_packet(flat, GEOM, DecayParams(tau=tau)), PARAMS)
    assert lab.n_clusters == 1


def test_cluster_packet_deterministic():
    pkt = two_blob_packet()
    a = cluster_packet(pkt, PARAMS)
    b = cluster_packet(pkt, PARAMS)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.ops_count == b.ops_count


def loop_labels_and_centroids(comp, pixels, min_size):
    """Per-event loop reference: big components renumbered by first
    occurrence, centroid = mean of member pixels."""
    counts = np.bincount(comp)
    labels = np.full(len(comp), NOISE, dtype=int)
    ids = {}
    for i, c in enumerate(comp):
        if counts[c] >= min_size:
            labels[i] = ids.setdefault(c, len(ids))
    centroids = np.array([pixels[labels == c].mean(axis=0) for c in range(len(ids))]).reshape(-1, 2)
    return labels, centroids


def test_labels_and_centroids_match_loop_reference():
    rng = np.random.default_rng(11)
    geom = SensorGeometry(64, 48)
    for _ in range(4):
        t = np.sort(rng.uniform(0.0, 0.01, size=120))
        events = [
            Event(t=float(t[i]), x=int(rng.integers(0, 64)), y=int(rng.integers(0, 48)), p=bool(rng.integers(0, 2)))
            for i in range(120)
        ]
        pkt = make_packet(events, geom, DecayParams())
        lab = cluster_packet(pkt, PARAMS)
        comp = merge_modes(seek_modes(pkt, PARAMS).modes, PARAMS.merge_radius)
        labels, centroids = loop_labels_and_centroids(comp, np.column_stack([pkt.x, pkt.y]), PARAMS.min_cluster_size)
        assert np.array_equal(lab.labels, labels)
        assert np.array_equal(lab.centroids, centroids)
        assert lab.masses.tolist() == [int(np.sum(labels == c)) for c in range(len(centroids))]


def test_param_validation():
    with pytest.raises(ContractViolationError):
        MeanShiftParams(bandwidth_h=0.0)
    with pytest.raises(ContractViolationError):
        MeanShiftParams(epsilon=0.0)
    with pytest.raises(ContractViolationError):
        MeanShiftParams(max_iters=0)
    with pytest.raises(ContractViolationError):
        MeanShiftParams(merge_radius=0.0)
    with pytest.raises(ContractViolationError):
        MeanShiftParams(min_cluster_size=0)
    with pytest.raises(ContractViolationError):
        MeanShiftParams(bandwidth_h=1e-7)
    assert MeanShiftParams(bandwidth_h=clustering.MIN_BANDWIDTH).bandwidth_h == clustering.MIN_BANDWIDTH
    for bad in (float("nan"), float("inf")):
        for name in ("bandwidth_h", "epsilon", "merge_radius", "max_iters"):
            with pytest.raises(ContractViolationError):
                MeanShiftParams(**{name: bad})
