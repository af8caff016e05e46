"""Dynamic time warping and barycenter averaging over frame arrays.

Every sequence here is an (m, d) float64 array of frames, and the
module imports nothing from the rest of the package: callers pass an
utterance's `SentencePair.frames` or a prototype array, or a row slice
of one for a span.  `dtw_distance` takes the distance matrix of two
such arrays instead, as `frame_distances` or a slice of it.

The accumulated cost follows the three-way recurrence

    w[i, j] = d(x_i, y_j) + min(w[i-1, j], w[i-1, j-1], w[i, j-1])

with w[0, 0] = 0 and +inf on the other borders, so every warping path
runs from cell (1, 1) to cell (m, m').  Costs are reported normalized
by (m + m').  Frame distance is the Euclidean norm of the difference.

Every frame distance comes from `frame_distances`, which sums the
squared feature differences in one fixed order: two lanes, where each
block of 8 features starting at b adds b+6, b+4, b+2, b to lane 0 and
b+7, b+5, b+3, b+1 to lane 1, leftover features alternate lane 0,
lane 1 in ascending order, and the distance is sqrt(lane 0 + lane 1).
Each term is a subtract then a multiply, with no fused multiply-add.
This is the order in which numpy 2.4's x86-64 baseline build (two
doubles per SSE vector, no FMA) reduces `einsum("ijk,ijk->ij", diff,
diff)` over a contiguous feature axis, so it gives the same values.  Spelled out in
code, the order no longer depends on numpy's SIMD dispatch or on array
layout, a whole distance matrix takes a few ufunc calls per feature
over (rows, columns) arrays instead of one reduction call per cell,
and any sub-block of a distance matrix equals the matrix of that
sub-block bit for bit.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

import numpy as np

_INF = math.inf


def frame_distances(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of an (n, d) and an (m, d) array.

    The squared differences add feature by feature in the two-lane
    order of the module docstring, each step one ufunc call over the
    whole (n, m) array.  The result is written to `out` when given (any
    (n, m) float64 view, strided ones included).  A column-major `y`
    is read without a copy.
    """
    d = x.shape[1]
    if y.shape[1] != d:
        raise ValueError(f"dimension mismatch: {d} vs {y.shape[1]}")
    full = d - d % 8
    order = [b + k for b in range(0, full, 8) for k in (6, 7, 4, 5, 2, 3, 0, 1)]
    order += range(full, d)  # even positions go to lane 0, odd ones to lane 1
    columns = np.ascontiguousarray(y.T)
    lanes = np.empty((2, x.shape[0], y.shape[0]))
    lanes[d:] = 0.0  # a lane with no feature
    term = np.empty(lanes.shape[1:])
    for pos, k in enumerate(order):
        sq = lanes[pos] if pos < 2 else term
        np.subtract(x[:, k, None], columns[k], out=sq)
        np.multiply(sq, sq, out=sq)
        if pos >= 2:
            lanes[pos % 2] += sq
    lanes[0] += lanes[1]
    return np.sqrt(lanes[0], out=out)


def dtw_distance(distances: np.ndarray) -> tuple[float, tuple[tuple[int, int], ...]]:
    """Normalized DTW cost and one optimal 1-indexed path over an (n, m) `frame_distances` matrix.

    The full (n+1) x (m+1) accumulated cost table is built as Python
    lists: plain float arithmetic keeps the inner loop fast enough at
    segment scale without pulling in a compiled kernel.  The backtrace
    prefers the diagonal, then (i-1, j), then (i, j-1).  `distances` may
    be a slice of a larger block, as in `dba_centroid`.
    """
    n, m = distances.shape
    rows = distances.tolist()
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

    i, j = n, m
    path = [(i, j)]
    while i > 1 or j > 1:
        pi, pj = i - 1, j - 1
        best = w[pi][pj]
        if w[pi][j] < best:
            pj, best = j, w[pi][j]
        if w[i][j - 1] < best:
            pi, pj = i, j - 1
        i, j = pi, pj
        path.append((i, j))
    path.reverse()
    return w[n][m] / (n + m), tuple(path)


class SpanLanes(tuple):
    """A tuple of (a, b) spans over one frame array, with the kernel's lane layout.

    `candidate_span_costs` runs one lane per distinct start a, over the
    frames a..a + width - 1 of the widest span from a, and takes its
    spans only in this form.  None of the layout depends on the
    prototype, so the caller builds it once for every prototype it
    scores against the same spans.  It holds the packed covered frames,
    so it should not outlive that caller.
    """

    def __new__(cls, frames: np.ndarray, spans: Sequence[tuple[int, int]]):
        self = super().__new__(cls, spans)
        self.frames = frames
        pairs = np.fromiter(chain.from_iterable(self), np.intp, 2 * len(self)).reshape(-1, 2)
        starts, lane_of_span = np.unique(pairs[:, 0], return_inverse=True)
        self.offsets = pairs[:, 1] - pairs[:, 0]  # column of each span in its lane, 0-based
        widths = np.zeros(len(starts), dtype=np.intp)
        np.maximum.at(widths, lane_of_span, self.offsets + 1)
        # Widest lanes first, so the lanes still running at any diagonal are a prefix.
        order = np.argsort(-widths, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        starts, widths, self.lane_of_span = starts[order], widths[order], rank[lane_of_span]
        self.width = int(widths[0]) if len(widths) else 0

        # Past row n the kernel computes a prefix of the lanes.  It keeps
        # computing lanes that have ended until fewer than half of the
        # prefix still run, so it shrinks its buffers at most log2(lanes)
        # times.  prefix[r - 1] is the prefix on diagonal n + r.
        running = np.searchsorted(-widths, -np.arange(1, self.width + 1), side="right")
        self.prefix = []
        kept = len(starts)
        for live in running.tolist():
            if 2 * live <= kept:
                kept = live
            self.prefix.append(kept)

        # Frame distances are needed only for the frames some lane covers.
        # Packing those frames keeps each lane's frames contiguous.
        cover = np.zeros(frames.shape[0] + 1, dtype=np.intp)
        np.add.at(cover, starts - 1, 1)
        np.add.at(cover, starts - 1 + widths, -1)
        used = np.cumsum(cover[:-1]) > 0
        self.packed = np.asfortranarray(frames[used])  # column-major for frame_distances
        self.base = (np.cumsum(used) - 1)[starts - 1]  # packed column of each lane's first frame
        return self


def candidate_span_costs(proto: np.ndarray, frames: np.ndarray, spans: SpanLanes) -> np.ndarray:
    """Normalized DTW cost from a prototype to each (a, b) span, in the order given.

    Spans are 1-indexed inclusive, and `spans` is the `SpanLanes` built
    on this `frames` array, as `model.span_cost_rows` builds it; any
    other sequence is refused.  Lane l holds the DP table of the
    prototype against the frames of its start a, and row n of that table
    yields every span (a, b), because column b - a + 1 only depends on
    the columns before it.  All lanes advance together, one
    anti-diagonal i + j = k per step over (rows, lanes) arrays, and each
    cell is the same `d + min(diag, up, left)` as in the table of
    `dtw_distance`, so the costs equal `dtw_distance` on each span bit
    for bit (Sakoe & Chiba 1978).  That also needs the same frame
    distances: one `frame_distances` call fills the prototype against
    every covered frame, and its fixed two-lane summation order (module
    docstring) gives each cell the value `dtw_distance` computes for
    that frame pair, whatever the shape of the block.  One call over the
    whole matrix beat column blocks of 512 or 2048 frames.
    """
    if not (isinstance(spans, SpanLanes) and spans.frames is frames):
        raise ValueError("spans must be a SpanLanes built on this frames array")
    n = proto.shape[0]
    packed, base = spans.packed, spans.base

    # skewed[i - 1, t] = d(proto[i - 1], packed[t - (i - 1)]): cell (i, j)
    # of lane l reads column base[l] + (i + j) - 2, so one anti-diagonal of
    # every lane is one column gather.  `diag` views the skewed cells as
    # (n, packed frames), and one `frame_distances` call writes them all.
    ncols = packed.shape[0]
    skewed = np.full((n, ncols + n - 1), _INF)
    row, col = skewed.strides
    diag = np.lib.stride_tricks.as_strided(skewed, (n, ncols), (row + col, col), writeable=True)
    frame_distances(proto, packed, out=diag)

    # Three diagonals of w, indexed [row i = 0..n, lane]; row 0 is the
    # border (w[0][0] = 0 on diagonal 0, +inf after).  Cells with j <= 0
    # need no reset: from diagonal 2 on they read only such cells in rows
    # >= 1, which start at +inf, so they stay +inf.  A lane that has ended
    # runs on over whatever columns it reads (clipped at the table's end);
    # no span reads those cells.
    cols = len(base)
    older = np.full((n + 1, cols), _INF)
    older[0] = 0.0
    prev = np.full((n + 1, cols), _INF)
    cur = np.full((n + 1, cols), _INF)
    dist = np.empty((n, cols))
    last = np.empty((spans.width, cols))  # last[j - 1, lane] = w[n][j]
    for k in range(2, n + spans.width + 1):
        if k > n and spans.prefix[k - n - 1] < cols:
            cols = spans.prefix[k - n - 1]
            older, prev, cur = older[:, :cols].copy(), prev[:, :cols].copy(), cur[:, :cols].copy()
            dist, base = np.empty((n, cols)), base[:cols]
        dst = cur[1:]
        np.minimum(older[:-1], prev[:-1], out=dst)
        np.minimum(dst, prev[1:], out=dst)
        skewed.take(base + (k - 2), axis=1, out=dist, mode="clip")
        dst += dist
        if k > n:
            last[k - n - 1, :cols] = cur[n]
        if k == 2:
            older[0] = _INF
        older, prev, cur = prev, cur, older
    offsets = spans.offsets
    return last[offsets, spans.lane_of_span] / (n + offsets + 1)


def dba_centroid(members: Sequence[np.ndarray], iterations: int) -> tuple[np.ndarray, list[float]]:
    """DTW barycenter averaging over (m, d) member frame arrays: (centroid, history).

    `members` is non-empty, its arrays share one feature dimension, and
    `iterations` >= 1, as `m_step` passes them.  The
    centroid is an (m, d) array; `history` holds the objective below for
    the starting skeleton and after each accepted update.

    The skeleton starts as a median-length member (upper median; ties go
    to the lowest member index) and each iteration replaces every
    skeleton frame with the mean of the member frames warped onto it.
    The sums add member by member, each along its path, in one call.
    Each pass computes the skeleton's frame distances to all members as
    one block: it equals the per-member blocks bit for bit, and costs
    far less than one small `frame_distances` call per member.
    Stops early once the sum of squared normalized costs improves by
    less than 1e-6 relative; an update that worsens that objective is
    discarded outright, since the mean update minimizes framewise error
    along the old paths, not the normalized path cost itself, and can
    overshoot.
    """
    lengths = [mem.shape[0] for mem in members]
    target = sorted(lengths)[len(lengths) // 2]
    skeleton = members[lengths.index(target)].copy()
    stacked = np.asfortranarray(np.concatenate(members))
    firsts = np.cumsum([0, *lengths[:-1]])  # row of each member in stacked
    columns = [slice(first, first + length) for first, length in zip(firsts.tolist(), lengths)]

    def objective_and_paths(skel: np.ndarray):
        total = 0.0
        paths = []
        # One distance block per pass; each member's DTW reads its own columns.
        block = frame_distances(skel, stacked)
        for cols in columns:
            cost, path = dtw_distance(block[:, cols])
            total += cost * cost
            paths.append(path)
        return total, paths

    obj, paths = objective_and_paths(skeleton)
    history = [obj]
    for _ in range(iterations):
        cells = np.fromiter(chain.from_iterable(chain.from_iterable(paths)), np.intp).reshape(-1, 2)
        rows = cells[:, 0] - 1
        warped = stacked[cells[:, 1] - 1 + np.repeat(firsts, [len(path) for path in paths])]
        sums = np.zeros_like(skeleton)
        np.add.at(sums, rows, warped)  # in member, then path order
        counts = np.bincount(rows, minlength=skeleton.shape[0])
        assert counts.min() >= 1  # every skeleton frame lies on every path
        candidate = sums / counts[:, None]
        cand_obj, cand_paths = objective_and_paths(candidate)
        if cand_obj > obj:
            break
        skeleton, obj, paths = candidate, cand_obj, cand_paths
        history.append(obj)
        if history[-2] - obj < 1e-6 * max(history[-2], 1e-300):
            break
    return skeleton, history
