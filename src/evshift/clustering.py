"""Per-packet mean-shift clustering over the 4D event feature space.

Every event of a packet is a seed.  Seeds climb the kernel density surface
with a hybrid update rule: the spatial coordinates of the comparison points
stay anchored to the original sample positions, while their polarity and
decayed-age coordinates take the values updated in the previous iteration.
All seeds advance in lockstep, so one iteration reads a single frozen
snapshot of the per-event state and results do not depend on event order.

Converged seed positions (modes) are coalesced by single linkage within a
small radius; each event is labeled by the merged mode its seed reached.
Clusters below a minimum mass are relabeled as noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ContractViolationError, require_finite, require_integer
from .events import Packet

NOISE = -1

# Total kernel weight below this is treated as numerical underflow; the seed
# stops where it is and is flagged as stalled.
WEIGHT_FLOOR = 1e-290

# Memory cap, in elements, for one (frontier modes x candidate modes) block
# of mode merging.  Mode seeking needs no cap: its memory is one
# (_TILE, events) buffer, linear in packet size.
_BLOCK_ELEMS = 4_000_000

# Smallest bandwidth mode seeking accepts.  Features lie in [0, 1], so the
# expanded kernel exponent carries a rounding error of up to about
# 1e-15 * 4 / h^2: below 1e-2 at this bound.  At h = 1e-10 lone seeds were
# seen to stall, and below about 1e-154 the norms overflow to nan.
MIN_BANDWIDTH = 1e-6

# Seeds per mode-seeking tile.  Every tile's products have exactly this many
# rows, because OpenBLAS rounds a row differently when the row count of the
# call changes.
_TILE = 64


@dataclass(frozen=True)
class MeanShiftParams:
    """Knobs of the per-packet mode seeking.

    bandwidth_h is the kernel radius in normalized feature space and is
    applied isotropically to all four dimensions.  merge_radius coalesces
    modes that converged into the same basin; min_cluster_size suppresses
    clusters formed by residual noise.
    """

    bandwidth_h: float = 0.1
    epsilon: float = 1e-3
    max_iters: int = 100
    merge_radius: float = 0.05
    min_cluster_size: int = 5

    def __post_init__(self):
        require_finite(self)
        require_integer(self.max_iters, "max_iters")
        require_integer(self.min_cluster_size, "min_cluster_size")
        if not (self.bandwidth_h >= MIN_BANDWIDTH):
            raise ContractViolationError(f"bandwidth must be >= {MIN_BANDWIDTH}, got {self.bandwidth_h}")
        if not (self.epsilon > 0):
            raise ContractViolationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iters < 1:
            raise ContractViolationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.merge_radius > 0):
            raise ContractViolationError(f"merge_radius must be > 0, got {self.merge_radius}")
        if self.min_cluster_size < 1:
            raise ContractViolationError(f"min_cluster_size must be >= 1, got {self.min_cluster_size}")


@dataclass
class ClusterLabeling:
    """Result of clustering one packet.

    labels holds one cluster id per event (NOISE = -1).  Centroids are the
    arithmetic means of raw pixel positions per cluster; masses are event
    counts.  ops_count is the exact number of kernel evaluations performed.
    """

    labels: np.ndarray
    centroids: np.ndarray
    masses: np.ndarray
    iterations_used: np.ndarray
    ops_count: int
    stalled: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def n_clusters(self) -> int:
        return len(self.masses)

    @property
    def noise_count(self) -> int:
        return int(np.sum(self.labels == NOISE))


def kernel_weight(u) -> np.ndarray | float:
    """Gaussian kernel weight exp(-||u||^2 / 2) for a 4D displacement.

    The 1/(sigma*sqrt(2*pi)) normalization is dropped: it cancels in the
    weighted mean, so mode locations and labels are unaffected.  Accepts a
    single displacement or an array whose last axis is the displacement.
    """
    u = np.asarray(u, dtype=float)
    w = np.exp(-0.5 * np.sum(u * u, axis=-1))
    if w.ndim == 0:
        return float(w)
    return w


def _step_point(current: np.ndarray, reference: np.ndarray, h: float) -> Tuple[np.ndarray, bool]:
    """One weighted-mean step of `current` toward the reference points."""
    w = kernel_weight((current[None, :] - reference) / h)
    total = float(np.sum(w))
    if total < WEIGHT_FLOOR:
        return current.copy(), True
    return (w @ reference) / total, False


def find_mode_path(
    seed_index: int,
    packet: Packet,
    params: MeanShiftParams,
) -> Tuple[List[np.ndarray], int]:
    """Iterate one seed to its mode against the packet's original features.

    Returns the full trajectory (starting point included) and the number of
    iterations performed.  Iteration stops when the step length drops below
    epsilon, the seed stalls, or max_iters is reached.
    """
    f0 = packet.feature_array()
    y = f0[seed_index].copy()
    path = [y.copy()]
    iters = 0
    for _ in range(params.max_iters):
        new_y, stalled = _step_point(y, f0, params.bandwidth_h)
        iters += 1
        path.append(new_y.copy())
        moved = float(np.linalg.norm(new_y - y))
        y = new_y
        if stalled or moved < params.epsilon:
            break
    return path, iters


StepHook = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]


@dataclass
class ModeSeekResult:
    modes: np.ndarray
    iterations: np.ndarray
    ops_count: int
    stalled: np.ndarray


def _squared_diff(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = (a[i] - b[j]) ** 2, computed in place."""
    np.subtract.outer(a, b, out=out)
    out *= out


def _seek_tile(lhs: np.ndarray, rhs: np.ndarray, snapshot: np.ndarray, rows: int, w: np.ndarray,
               sums: np.ndarray, total: np.ndarray) -> None:
    """Kernel-weighted snapshot sums for one tile of _TILE seeds.

    lhs holds the tile's lifted seeds [y, -||y||^2 / 2, 1], its rows past
    `rows` zero; rhs holds the lifted snapshot as [s^T; 1; -||s||^2 / 2];
    w is a (_TILE, n) work buffer.  Writes the weighted sums w @ snapshot
    into the (_TILE, 4) `sums` and the total weights of the first `rows`
    seeds into `total`.  Exponents are clamped to 0 only when one rounds
    above it: exp(min(x, 0)) = exp(x) for x <= 0, and NaN fails both tests.
    """
    np.matmul(lhs, rhs, out=w)
    real = w[:rows]
    if real.max() > 0.0:
        np.minimum(real, 0.0, out=real)
    np.exp(real, out=real)
    # The product takes all _TILE rows, since with fewer OpenBLAS would
    # round a row differently; the padding rows' exponents are 0.
    np.matmul(w, snapshot, out=sums)
    np.add.reduce(real, axis=1, out=total)


def seek_modes(packet: Packet, params: MeanShiftParams, step_hook: Optional[StepHook] = None) -> ModeSeekResult:
    """Run the lockstep hybrid mode seeking for every event of a packet.

    Each iteration builds one comparison snapshot: original spatial columns,
    previous-iteration polarity/decayed-age columns.  All still-active seeds
    take one weighted-mean step against that snapshot, then the snapshot is
    republished.  Seeds freeze once their step length drops below epsilon.

    The kernel exponent -||y - s||^2 / 2 of seed y and snapshot point s is
    expanded as y.s - ||y||^2 / 2 - ||s||^2 / 2, so a whole tile of seeds
    gets its exponents from one K=6 matrix product.  Seeds and snapshot are
    first centred on the snapshot's column mean, then divided by h:
    centring keeps the norms small, so the expansion cancels to within a
    few ulp of the direct difference.  An exponent that rounds above 0 is
    clamped to 0 before exp, and a tile is clamped only when its largest
    exponent is above 0.  Active seeds go in tiles of exactly _TILE rows,
    the last padded with zero rows, so a seed's step does not depend on
    which other seeds are still active.

    Each step does the arithmetic of the plain per-iteration loop (the
    test oracle), so every bit is the same, at less cost per iteration:
    - the spatial columns of the snapshot never change, so their part of
      the column mean and of the lifted snapshot is computed once;
    - the column mean adds each column in row order, as np.add.reduce over
      axis 0 of the (n, 4) snapshot does, so the moving columns' sums are
      one running sum along a (2, n) view;
    - the lifted norms stay np.einsum over rows of four, whose order of
      addition is numpy's own choice;
    - a step's squared length adds its four squares in turn,
      ((d0 + d1) + d2) + d3, as np.add.reduce adds a row of four.

    Every buffer lives for the whole packet and is allocated once: the
    (n, 4) snapshot, whose polarity and age columns are written at the
    active seeds, and the running sums of those columns; the lifted
    factors, lhs of n rows padded to whole tiles, whose rows past the
    active seeds are zero, and rhs of n columns, with the lifted snapshot
    rows that its norms are taken from; the (_TILE, n) kernel-weight tile;
    the weighted sums and total weights of all seeds; the active seeds'
    positions before and after a step, by column, the first of which also
    takes the step's squares; and the step lengths and leave flags.  The
    active seeds are an index array that only shrinks, with their
    positions kept in the same order; a seed's mode and iteration count
    are written when it leaves.

    step_hook, when given, is called once per iteration with
    (y_before, y_after, snapshot, active_indices); it exists for diagnostic
    checks such as per-step density ascent.
    """
    f0 = packet.feature_array()
    n = len(f0)
    h = params.bandwidth_h
    modes = f0.copy()
    iterations = np.zeros(n, dtype=int)
    stalled = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    ops = 0
    if n == 0:
        return ModeSeekResult(modes=modes, iterations=iterations, ops_count=ops, stalled=stalled)
    snapshot = f0.copy()
    padded = -(-n // _TILE) * _TILE
    lhs = np.zeros((padded, 6))
    lhs[:n, 5] = 1.0
    rhs = np.empty((6, n))
    rhs[4] = 1.0
    lifted = np.empty((n, 4))
    running = np.empty((2, n))
    w = np.empty((_TILE, n))
    sums = np.empty((padded, 4))
    total = np.empty(n)
    before, after = f0.T.copy(), np.empty((4, n))
    shift = np.empty(n)
    leave = np.empty(n, dtype=bool)
    centre = np.add.reduce(f0, axis=0) / n
    np.subtract(f0, centre, out=lifted)
    lifted /= h
    rhs[:2] = lifted[:, :2].T
    # views that stay fixed: the moving columns of the snapshot (by
    # column), of its lifted rows and of rhs, and of the centre
    moving = snapshot[:, 2:].T
    polarity, age = moving
    lifted_moving, rhs_moving, rhs_norms = lifted[:, 2:], rhs[2:4], rhs[5]
    centre_col = centre[:, None]
    centre_moving, centre_moving_col = centre[2:], centre_col[2:]
    m = n
    tiles = _tile_views(lhs, sums, total, m)
    for it in range(params.max_iters):
        # lift the snapshot's moving columns, then the active seeds
        np.add.accumulate(moving, axis=1, out=running)
        np.divide(running[:, -1], n, out=centre_moving)
        np.subtract(moving, centre_moving_col, out=rhs_moving)
        np.divide(rhs_moving, h, out=rhs_moving)
        lifted_moving[...] = rhs_moving.T
        np.einsum("ij,ij->i", lifted, lifted, out=rhs_norms)
        rhs_norms *= -0.5
        y, ys = before[:, :m], lhs[:m, :4]
        np.subtract(y, centre_col, out=ys.T)
        np.divide(ys.T, h, out=ys.T, order="C")
        ys_norms = lhs[:m, 4]
        np.einsum("ij,ij->i", ys, ys, out=ys_norms)
        ys_norms *= -0.5
        for tile_lhs, tile_sums, tile_total, rows in tiles:
            _seek_tile(tile_lhs, rhs, snapshot, rows, w, tile_sums, tile_total)
        # the step: weighted means, or the seed itself where the weights
        # underflowed
        tot, new = total[:m], after[:, :m]
        if np.fmin.reduce(tot) < WEIGHT_FLOOR:
            under = tot < WEIGHT_FLOOR
            np.divide(sums[:m].T, np.where(under, 1.0, tot), out=new)
            new[:, under] = y[:, under]
            stalled[idx[under]] = True
        else:
            under = None
            np.divide(sums[:m].T, tot, out=new)
        ops += m * n
        if step_hook is not None:
            step_hook(y.T.copy(), new.T.copy(), snapshot.copy(), idx.copy())
        # the step, in place of the positions before it
        moved = shift[:m]
        np.subtract(new, y, out=y)
        np.multiply(y, y, out=y)
        np.add.reduce(y, axis=0, out=moved)
        np.sqrt(moved, out=moved)
        polarity[idx] = new[2]
        age[idx] = new[3]
        done = leave[:m]
        np.less(moved, params.epsilon, out=done)
        if under is not None:
            done |= under
        if not np.count_nonzero(done):
            before, after = after, before
            continue
        # write back the seeds that leave, and compact the rest
        out = done.nonzero()[0]
        modes[idx[out]] = new[:, out].T
        iterations[idx[out]] = it + 1
        keep = np.logical_not(done, out=done).nonzero()[0]
        m = keep.size
        if m == 0:
            break
        idx = idx[keep]
        new.take(keep, axis=1, out=before[:, :m])
        lhs[m : m + _TILE] = 0.0
        tiles = _tile_views(lhs, sums, total, m)
    else:
        modes[idx] = before[:, :m].T
        iterations[idx] = params.max_iters
    return ModeSeekResult(modes=modes, iterations=iterations, ops_count=ops, stalled=stalled)


def _tile_views(lhs: np.ndarray, sums: np.ndarray, total: np.ndarray, m: int) -> list:
    """The (lhs, sums, total, rows) arguments of _seek_tile for m active seeds."""
    return [(lhs[s : s + _TILE], sums[s : s + _TILE], total[s : min(s + _TILE, m)], min(_TILE, m - s))
            for s in range(0, m, _TILE)]


def merge_modes(modes: np.ndarray, merge_radius: float) -> np.ndarray:
    """Single-linkage coalescing of converged modes.

    Modes whose pairwise distance is below merge_radius join the same
    component (transitively).  Returns one component id per mode, numbered
    by first occurrence so the result is deterministic.

    Each component is flooded from the lowest mode not yet labeled: every
    round measures the frontier against the still unlabeled modes, and
    the modes it reaches form the next frontier.  Starting each flood at
    the lowest unlabeled index numbers components by first occurrence.

    A round measures only the candidates inside the frontier's box: the
    unlabeled modes whose coordinates 0 and 1 each lie within
    2 * merge_radius of the frontier's range in that coordinate.  The box
    drops no pair that could merge.  A pair's squared distance is a sum of
    non-negative terms added in turn, and rounded addition is monotone, so
    it is never below the rounded square of its difference in coordinate 0
    or 1.  Outside the box that difference is more than 2 * merge_radius,
    so the sum is at least merge_radius ** 2 and fails the strict `<` test.
    The range is taken with fmin and fmax, so a NaN coordinate (whose
    distances are all NaN and never merge) neither widens nor empties the
    box.  Frontier rows go in blocks of at most _BLOCK_ELEMS pairs.

    The unlabeled modes are a boolean mask over all modes, so a round costs
    a fixed number of numpy calls; the box test runs on both coordinates at
    once, into two (2, n) masks made once per call.  The block buffers are
    reused from round to round and grow only to the largest block used, so
    memory stays bounded whatever the number of modes.
    """
    n = len(modes)
    thr2 = merge_radius * merge_radius
    reach = 2 * merge_radius
    columns = np.ascontiguousarray(np.asarray(modes, dtype=float).T)
    out = np.empty(n, dtype=int)
    free = np.ones(n, dtype=bool)
    above, below = np.empty((2, n), dtype=bool), np.empty((2, n), dtype=bool)
    # a block's d2 in buf[:size], the term being added to it in buf[size:]
    buf = np.empty(0)
    left = n
    first = comp = 0
    while left:
        # the lowest unlabeled mode starts the next component
        first += int(free[first:].argmax())
        frontier = np.array([first])
        while frontier.size:
            free[frontier] = False
            out[frontier] = comp
            left -= frontier.size
            if not left:
                break
            front_cols = columns[:, frontier]
            np.greater_equal(columns[:2], np.fmin.reduce(front_cols[:2], axis=1)[:, None] - reach, out=above)
            np.less_equal(columns[:2], np.fmax.reduce(front_cols[:2], axis=1)[:, None] + reach, out=below)
            above &= below
            near = (above[0] & above[1] & free).nonzero()[0]
            if near.size == 0:
                break
            cand_cols = columns[:, near]
            hit = np.zeros(near.size, dtype=bool)
            block = max(1, _BLOCK_ELEMS // near.size)
            size = min(block, frontier.size) * near.size
            if 2 * size > buf.size:
                # free the old buffer, views included, before making the new one
                buf = d2 = tmp = None
                buf = np.empty(2 * size)
            for s in range(0, frontier.size, block):
                block_cols = front_cols[:, s : s + block]
                shape = (block_cols.shape[1], near.size)
                d2 = buf[: shape[0] * shape[1]].reshape(shape)
                tmp = buf[size : size + shape[0] * shape[1]].reshape(shape)
                # dimensions summed in turn: the bits np.sum over the last
                # axis gives, so each `< thr2` decision stays as it was
                _squared_diff(block_cols[0], cand_cols[0], d2)
                for k in range(1, len(columns)):
                    _squared_diff(block_cols[k], cand_cols[k], tmp)
                    d2 += tmp
                hit |= (d2 < thr2).any(axis=0)
            frontier = near[hit]
        comp += 1
    return out


def cluster_packet(packet: Packet, params: MeanShiftParams) -> ClusterLabeling:
    """Cluster one packet: mode seeking, mode merging, noise suppression.

    Deterministic for identical inputs and parameters.  Cluster ids are
    assigned in order of first event occurrence; clusters with mass below
    min_cluster_size become NOISE.  Centroids are computed in raw pixel
    coordinates from the labeled events.
    """
    seek = seek_modes(packet, params)
    comp = merge_modes(seek.modes, params.merge_radius)
    # Components are numbered by first occurrence, so renumbering the big
    # ones in component order keeps first-occurrence order.
    big = np.bincount(comp) >= params.min_cluster_size
    remap = np.full(len(big), NOISE, dtype=int)
    k = int(big.sum())
    remap[big] = np.arange(k)
    labels = remap[comp]
    # bincount adds each cluster's coordinates in row order; the sums of
    # pixel indices are exact, so a centroid does not depend on event order
    keep = labels != NOISE
    kept = labels[keep]
    masses = np.bincount(kept, minlength=k)
    sums = [np.bincount(kept, weights=c[keep], minlength=k) for c in (packet.x, packet.y)]
    centroids = np.column_stack(sums) / masses[:, None]
    return ClusterLabeling(
        labels=labels,
        centroids=centroids,
        masses=masses,
        iterations_used=seek.iterations,
        ops_count=seek.ops_count,
        stalled=seek.stalled,
    )
