"""Reference mode seeking and mode merging for the clustering tests.

seek_modes and merge_modes are the kernels that evshift.clustering's
current ones replaced, and those must give the same bits: this
seek_modes rebuilds its snapshot and lifted factors on every iteration,
and this merge_modes measures each frontier against every unlabeled mode.
seek_modes_einsum and merge_modes_union_find are independent references:
one block of all active seeds through an einsum, and a union-find over the
full distance array.
"""

from __future__ import annotations

import numpy as np

from evshift.clustering import _BLOCK_ELEMS, _TILE, WEIGHT_FLOOR, ModeSeekResult


def _squared_diff(a, b, out):
    np.subtract.outer(a, b, out=out)
    out *= out


def _lifted(seeds, snapshot, h):
    centre = snapshot.mean(axis=0)
    ys = (seeds - centre) / h
    ss = (snapshot - centre) / h
    lhs = np.zeros((-(-len(ys) // _TILE) * _TILE, 6))
    lhs[: len(ys), :4] = ys
    lhs[: len(ys), 4] = -0.5 * np.einsum("ij,ij->i", ys, ys)
    lhs[: len(ys), 5] = 1.0
    rhs = np.empty((6, len(ss)))
    rhs[:4] = ss.T
    rhs[4] = 1.0
    rhs[5] = -0.5 * np.einsum("ij,ij->i", ss, ss)
    return lhs, rhs


def _seek_tile(lhs, rhs, snapshot, rows, w):
    np.matmul(lhs, rhs, out=w)
    real = w[:rows]
    np.minimum(real, 0.0, out=real)
    np.exp(real, out=real)
    return (w @ snapshot)[:rows], real.sum(axis=1)


def seek_modes(packet, params, step_hook=None):
    """Lockstep hybrid mode seeking, one fresh snapshot per iteration."""
    f0 = packet.feature_array()
    n = len(f0)
    h = params.bandwidth_h
    y = f0.copy()
    iterations = np.zeros(n, dtype=int)
    stalled = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    ops = 0
    w = np.empty((_TILE, n))
    for _ in range(params.max_iters):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        snapshot = np.concatenate([f0[:, :2], y[:, 2:]], axis=1)
        lhs, rhs = _lifted(y[idx], snapshot, h)
        sums = np.empty((idx.size, 4))
        total = np.empty(idx.size)
        for s in range(0, idx.size, _TILE):
            rows = min(_TILE, idx.size - s)
            sums[s : s + rows], total[s : s + rows] = _seek_tile(lhs[s : s + _TILE], rhs, snapshot, rows, w)
        under = total < WEIGHT_FLOOR
        new_y = sums / np.where(under, 1.0, total)[:, None]
        new_y[under] = y[idx[under]]
        ops += idx.size * n
        iterations[idx] += 1
        if step_hook is not None:
            step_hook(y[idx].copy(), new_y.copy(), snapshot.copy(), idx.copy())
        shift = np.linalg.norm(new_y - y[idx], axis=1)
        y[idx] = new_y
        stalled[idx[under]] = True
        done = under | (shift < params.epsilon)
        active[idx[done]] = False
    return ModeSeekResult(modes=y, iterations=iterations, ops_count=ops, stalled=stalled)


def merge_modes(modes, merge_radius):
    """Flood-fill single linkage that measures every frontier against every
    unlabeled mode."""
    n = len(modes)
    thr2 = merge_radius * merge_radius
    columns = np.ascontiguousarray(np.asarray(modes, dtype=float).T)
    out = np.empty(n, dtype=int)
    d2_buf, tmp_buf = (np.empty(min(max(_BLOCK_ELEMS, n), n * n)) for _ in range(2))
    rest = np.arange(n)
    comp = 0
    while rest.size:
        frontier, rest = rest[:1], rest[1:]
        out[frontier] = comp
        while frontier.size and rest.size:
            rest_cols = columns[:, rest]
            hit = np.zeros(rest.size, dtype=bool)
            block = max(1, _BLOCK_ELEMS // rest.size)
            for s in range(0, frontier.size, block):
                front_cols = columns[:, frontier[s : s + block]]
                shape = (front_cols.shape[1], rest.size)
                d2 = d2_buf[: shape[0] * shape[1]].reshape(shape)
                tmp = tmp_buf[: shape[0] * shape[1]].reshape(shape)
                _squared_diff(front_cols[0], rest_cols[0], d2)
                for k in range(1, len(columns)):
                    _squared_diff(front_cols[k], rest_cols[k], tmp)
                    d2 += tmp
                hit |= (d2 < thr2).any(axis=0)
            frontier, rest = rest[hit], rest[~hit]
            out[frontier] = comp
        comp += 1
    return out


def merge_modes_union_find(modes, merge_radius):
    """Reference merge: the full (n, n, 4) distance array, a union-find over
    every close pair, then renumbering of the roots by first occurrence."""
    n = len(modes)
    parent = np.arange(n)

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    d2 = np.sum((modes[:, None, :] - modes[None, :, :]) ** 2, axis=-1)
    ii, jj = np.nonzero(np.triu(d2 < merge_radius * merge_radius, k=1))
    for a, b in zip(ii, jj):
        ra, rb = root(int(a)), root(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    ids = {}
    return np.array([ids.setdefault(root(i), len(ids)) for i in range(n)], dtype=int)


def seek_modes_einsum(packet, params):
    """Reference mode seeking: all active seeds in one block, distances
    through an (active, n, 4) difference array and einsum."""
    f0 = packet.feature_array()
    n = len(f0)
    h = params.bandwidth_h
    y = f0.copy()
    iterations = np.zeros(n, dtype=int)
    stalled = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    ops = 0
    for _ in range(params.max_iters):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        snapshot = np.concatenate([f0[:, :2], y[:, 2:]], axis=1)
        diff = (y[idx, None, :] - snapshot[None, :, :]) / h
        w = np.exp(-0.5 * np.einsum("ijk,ijk->ij", diff, diff))
        total = w.sum(axis=1)
        under = total < WEIGHT_FLOOR
        new_y = (w @ snapshot) / np.where(under, 1.0, total)[:, None]
        new_y[under] = y[idx][under]
        ops += idx.size * n
        iterations[idx] += 1
        shift = np.linalg.norm(new_y - y[idx], axis=1)
        y[idx] = new_y
        stalled[idx[under]] = True
        active[idx[under | (shift < params.epsilon)]] = False
    return ModeSeekResult(modes=y, iterations=iterations, ops_count=ops, stalled=stalled)
