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


def span_costs_from_start(proto: np.ndarray, frames: np.ndarray, start: int, max_end: int) -> list[float]:
    """Normalized DTW costs from a prototype to spans (start, e), e = start..max_end.

    One DP pass over the frame suffix yields the cost for every end
    point, because column e of the table only depends on columns <= e.
    Spans are 1-indexed inclusive.
    """
    n = proto.shape[0]
    dist = frame_distances(proto, frames[start - 1 : max_end])
    w = _accumulate(dist)
    last = w[n]
    return [last[j] / (n + j) for j in range(1, max_end - start + 2)]


def candidate_span_costs(
    proto: np.ndarray, frames: np.ndarray, spans: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Normalized DTW cost from a prototype to each (a, b) span, batched by start."""
    by_start: dict[int, int] = {}
    for a, b in spans:
        if b > by_start.get(a, 0):
            by_start[a] = b
    cached = {
        a: span_costs_from_start(proto, frames, a, max_b) for a, max_b in by_start.items()
    }
    return np.array([cached[a][b - a] for a, b in spans], dtype=np.float64)


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
