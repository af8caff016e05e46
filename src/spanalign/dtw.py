"""Dynamic time warping and barycenter averaging for feature sequences.

The accumulated cost follows the three-way recurrence

    w[i, j] = d(x_i, y_j) + min(w[i-1, j], w[i-1, j-1], w[i, j-1])

with w[0, 0] = 0 and +inf on the other borders, so every warping path
runs from cell (1, 1) to cell (m, m').  Costs are reported normalized
by (m + m').  Frame distance is the Euclidean norm of the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import FeatureSequence

_INF = math.inf


@dataclass(frozen=True)
class WarpResult:
    """Normalized DTW cost and the 1-indexed warping path that attains it."""

    normalized_cost: float
    path: tuple[tuple[int, int], ...]


def frame_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of two (m, d) arrays."""
    diff = x[:, None, :] - y[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _accumulate(dist: np.ndarray) -> list[list[float]]:
    """Full (n+1) x (m+1) accumulated cost table as Python lists.

    Plain float arithmetic keeps the inner loop fast enough at segment
    scale without pulling in a compiled kernel.
    """
    n, m = dist.shape
    rows = dist.tolist()
    w = [[_INF] * (m + 1) for _ in range(n + 1)]
    w[0][0] = 0.0
    for i in range(1, n + 1):
        wi = w[i]
        wp = w[i - 1]
        di = rows[i - 1]
        for j in range(1, m + 1):
            best = wp[j - 1]
            up = wp[j]
            if up < best:
                best = up
            left = wi[j - 1]
            if left < best:
                best = left
            wi[j] = di[j - 1] + best
    return w


def _backtrace(w: list[list[float]]) -> tuple[tuple[int, int], ...]:
    """Recover a warping path, preferring diagonal, then (i-1, j), then (i, j-1)."""
    i = len(w) - 1
    j = len(w[0]) - 1
    path = [(i, j)]
    while i > 1 or j > 1:
        diag = w[i - 1][j - 1]
        up = w[i - 1][j]
        left = w[i][j - 1]
        best = min(diag, up, left)
        if diag == best:
            i, j = i - 1, j - 1
        elif up == best:
            i = i - 1
        else:
            j = j - 1
        path.append((i, j))
    path.reverse()
    return tuple(path)


def dtw_distance(x: FeatureSequence, y: FeatureSequence) -> WarpResult:
    """Align two sequences and return the normalized cost with one optimal path."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    dist = frame_distances(x.frames, y.frames)
    w = _accumulate(dist)
    raw = w[x.m][y.m]
    return WarpResult(raw / (x.m + y.m), _backtrace(w))


_DIST_BLOCK_CELLS = 1 << 15  # bound on the (n, block, d) temporary of one distance block


def candidate_span_costs(
    proto: np.ndarray, frames: np.ndarray, spans: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Normalized DTW cost from a prototype to each (a, b) span, in the order given.

    Spans are 1-indexed inclusive.  There is one lane per distinct start
    a, holding the DP table of the prototype against frames a..max b;
    row n of that table yields every span (a, b), because column b - a + 1
    only depends on the columns before it.  All lanes advance together,
    one anti-diagonal i + j = k per numpy step, and each cell is the same
    `d + min(diag, up, left)` as `_accumulate`, so the costs equal
    `dtw_distance` on each span bit for bit (Sakoe & Chiba 1978).
    """
    n = proto.shape[0]
    pairs = np.array(spans, dtype=np.intp).reshape(-1, 2)
    starts, lane_of_span = np.unique(pairs[:, 0], return_inverse=True)
    offsets = pairs[:, 1] - pairs[:, 0]  # column of the span in its lane, 0-based
    widths = np.zeros(len(starts), dtype=np.intp)
    np.maximum.at(widths, lane_of_span, offsets + 1)
    # Widest lanes first, so the lanes still running at diagonal k are a prefix.
    order = np.argsort(-widths, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    starts, widths, lane_of_span = starts[order], widths[order], rank[lane_of_span]

    # Frame distances are needed only for the frames some lane covers.
    # Packing those frames keeps each lane's frames contiguous.
    cover = np.zeros(frames.shape[0] + 1, dtype=np.intp)
    np.add.at(cover, starts - 1, 1)
    np.add.at(cover, starts - 1 + widths, -1)
    used = np.cumsum(cover[:-1]) > 0
    packed = frames[used]
    base = (np.cumsum(used) - 1)[starts - 1]  # packed column of each lane's first frame

    # skewed[t, i - 1] = d(proto[i - 1], packed[t - (i - 1)]): cell (i, j) of
    # lane l reads row base[l] + (i + j) - 2, so one anti-diagonal of every
    # lane is one row gather.
    ncols = packed.shape[0]
    skewed = np.full((ncols + n - 1, n), _INF)
    step = max(1, _DIST_BLOCK_CELLS // (n * proto.shape[1]))
    for c0 in range(0, ncols, step):
        block = frame_distances(proto, packed[c0 : c0 + step])
        for i in range(n):
            skewed[c0 + i : c0 + i + block.shape[1], i] = block[i]

    # Three diagonals of w, indexed by row i = 0..n; row 0 is the border
    # (w[0][0] = 0, +inf elsewhere).  Cells with j <= 0 need no reset: from
    # diagonal 2 on they read only such cells in rows >= 1, which start at
    # +inf, so they stay +inf.
    lanes = len(starts)
    older = np.full((lanes, n + 1), _INF)
    older[:, 0] = 0.0
    prev = np.full((lanes, n + 1), _INF)
    cur = np.empty((lanes, n + 1))
    last = np.empty((int(widths[0]), lanes))  # last[j - 1, lane] = w[n][j]
    for k in range(2, n + int(widths[0]) + 1):
        live = lanes if k <= n + 1 else int(np.count_nonzero(widths >= k - n))
        dst = cur[:live]
        dst[:, 0] = _INF
        np.minimum(older[:live, :-1], prev[:live, :-1], out=dst[:, 1:])
        np.minimum(dst[:, 1:], prev[:live, 1:], out=dst[:, 1:])
        dst[:, 1:] += skewed[base[:live] + (k - 2)]
        if k > n:
            last[k - n - 1, :live] = dst[:, n]
        older, prev, cur = prev, cur, older
    return last[offsets, lane_of_span] / (n + offsets + 1)


def dba_centroid(
    members: Sequence[FeatureSequence],
    iterations: int = 3,
    return_history: bool = False,
):
    """DTW barycenter averaging over a set of member sequences.

    The skeleton starts as a median-length member (upper median; ties go
    to the lowest member index) and each iteration replaces every
    skeleton frame with the mean of the member frames warped onto it.  Stops early once the sum of squared
    normalized costs improves by less than 1e-6 relative; an update that
    worsens that objective is discarded outright, since the mean update
    minimizes framewise error along the old paths, not the normalized
    path cost itself, and can overshoot.
    """
    if not members:
        raise ValueError("dba_centroid needs at least one member")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    dim = members[0].dim
    for mem in members:
        if mem.dim != dim:
            raise ValueError("members must share the feature dimension")

    lengths = sorted(mem.m for mem in members)
    target = lengths[len(lengths) // 2]
    skeleton = next(mem.frames.copy() for mem in members if mem.m == target)
    shift = members[0].frame_shift_ms

    def objective_and_paths(skel: np.ndarray):
        total = 0.0
        paths = []
        skel_fs = FeatureSequence(skel, shift)
        for mem in members:
            result = dtw_distance(skel_fs, mem)
            total += result.normalized_cost * result.normalized_cost
            paths.append(result.path)
        return total, paths

    obj, paths = objective_and_paths(skeleton)
    history = [obj]
    for _ in range(iterations):
        sums = np.zeros_like(skeleton)
        counts = np.zeros(skeleton.shape[0])
        for mem, path in zip(members, paths):
            for i, j in path:
                sums[i - 1] += mem.frames[j - 1]
                counts[i - 1] += 1
        assert counts.min() >= 1  # every skeleton frame lies on every path
        candidate = sums / counts[:, None]
        cand_obj, cand_paths = objective_and_paths(candidate)
        if cand_obj > obj:
            break
        skeleton, obj, paths = candidate, cand_obj, cand_paths
        history.append(obj)
        if history[-2] - obj < 1e-6 * max(history[-2], 1e-300):
            break

    centroid = FeatureSequence(skeleton, shift)
    if return_history:
        return centroid, history
    return centroid
