"""Candidate span generation: silences, boundary pooling, span enumeration.

Boundaries and spans are 1-indexed; a span (a, b) includes both
endpoints.  Silence intervals are stored [s, t) so frames s..t-1 are
silent.  Candidate spans never contain a silent frame.

Spans come from one pass: each distinct boundary is snapped once as a
start and once as an end, and each start pairs with the ends in its
length window up to the first silent frame.  Snapping only moves a start
right and an end left, so every pair with a <= b is an ordered one.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .corpus import SentencePair


class NoCandidateSpansError(Exception):
    """Enumeration produced no span; callers fall back to the unrestricted grid."""


# Silent runs [s, t), 1-indexed, increasing and non-touching, as detect_silence builds them.
SilenceSpans = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SegmentationConfig:
    threshold_ratio: float = 0.05
    min_silence_ms: float = 50.0
    smooth_frames: int = 5
    grid_stride: int = 5
    span_min_len: int = 3
    span_max_len: int = 150
    frame_shift_ms: float = 10.0  # the features' frame shift; turns min_silence_ms into frames

    def __post_init__(self):
        if not (0.0 < self.threshold_ratio < 1.0):
            raise ValueError("threshold_ratio must lie in (0, 1)")
        if not (self.min_silence_ms > 0 and math.isfinite(self.min_silence_ms)):
            raise ValueError(f"min_silence_ms must be positive and finite, got {self.min_silence_ms}")
        if not (self.smooth_frames >= 1 and self.smooth_frames % 2 == 1):
            raise ValueError(f"smooth_frames must be odd and >= 1, got {self.smooth_frames}")
        if self.grid_stride < 0:
            raise ValueError("grid_stride must be >= 0 (0 disables the grid)")
        if not (1 <= self.span_min_len <= self.span_max_len):
            raise ValueError("need 1 <= span_min_len <= span_max_len")
        if not (self.frame_shift_ms > 0 and math.isfinite(self.frame_shift_ms)):
            raise ValueError(f"frame_shift_ms must be positive and finite, got {self.frame_shift_ms}")


def detect_silence(energy: np.ndarray, config: SegmentationConfig) -> SilenceSpans:
    """Find low-energy runs: smooth, threshold at a ratio of the peak, keep long runs.

    The track is smoothed with a centered running median of
    config.smooth_frames frames (edges are padded by replication), taken
    as the middle of each sorted window since the width is odd.  A
    median keeps the edges of a quiet run where a moving average would
    smear them: a window centered on the first quiet frame already holds
    a majority of quiet values.  Frames whose smoothed value falls below
    config.threshold_ratio * max(smoothed) count as silent, and maximal
    silent runs that last at least config.min_silence_ms are returned:
    a run's frame count is compared with the float min_silence_ms /
    frame_shift_ms of `config`, exactly for any run length, so a ratio
    that overflows to inf keeps no run.  An all-zero track has peak 0
    and thus no silences.  `energy` is a `SentencePair.energy_track`, which
    holds the track's rule: one finite, non-negative value per frame.
    """
    half = config.smooth_frames // 2
    padded = np.pad(energy, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    smoothed = np.sort(windows, axis=1)[:, half]

    threshold = config.threshold_ratio * smoothed.max()
    mask = smoothed < threshold
    min_frames = config.min_silence_ms / config.frame_shift_ms

    # The padded mask changes at the first frame of each run and just past
    # its last, so the changes pair up as [s, t) runs, here made 1-indexed.
    runs = np.flatnonzero(np.diff(np.concatenate(([0], mask, [0])))).reshape(-1, 2) + 1
    runs = runs[runs[:, 1] - runs[:, 0] >= min_frames]
    return tuple(map(tuple, runs.tolist()))


def candidate_boundaries(
    pair: SentencePair,
    config: SegmentationConfig,
    silences: SilenceSpans,
) -> list[int]:
    """Pool boundary points: the pair's own, silence edges, uniform grid, plus 1 and m."""
    m = pair.m
    points = {1, m, *pair.boundaries}
    for s, t in silences:
        points.add(min(s, m))
        points.add(min(t, m))
    if config.grid_stride > 0:
        points.update(range(config.grid_stride, m + 1, config.grid_stride))
    return sorted(points)


def _snap(j: int, silences: SilenceSpans, is_start: bool) -> int:
    """Move an endpoint sitting on a silent frame just outside that silence."""
    for s, t in silences:
        if s <= j < t:
            return t if is_start else s - 1
    return j


def enumerate_spans(
    boundaries, silences: SilenceSpans, min_len: int, max_len: int
) -> tuple[tuple[int, int], ...]:
    """All boundary-point pairs, snapped off silences, filtered by length, sorted and unique.

    Raises NoCandidateSpansError when nothing survives, signalling the
    caller to retry on the unrestricted grid.
    """
    points = sorted(set(boundaries))
    if not points or points[0] < 1:
        raise ValueError("boundaries must be positive frame indices")
    starts = sorted({_snap(j, silences, is_start=True) for j in points})
    ends = sorted({_snap(j, silences, is_start=False) for j in points})
    # quiet[j]: silent frames among 1..j; no end lies past the last boundary
    silent = np.zeros(points[-1] + 1, dtype=np.int64)
    for s, t in silences:
        silent[s:t] = 1
    quiet = np.cumsum(silent).tolist()

    spans = []
    for a in starts:
        lo = bisect_left(ends, a + max(min_len, 1) - 1)
        hi = bisect_right(ends, a + max_len - 1)
        for b in ends[lo:hi]:
            if quiet[b] != quiet[a - 1]:
                break  # (a, b) holds a silent frame, and so does every later end
            spans.append((a, b))
    if not spans:
        raise NoCandidateSpansError("no candidate span survived filtering")
    return tuple(spans)


def candidate_spans(
    pair: SentencePair, config: SegmentationConfig
) -> tuple[tuple[tuple[int, int], ...], SilenceSpans]:
    """Full per-utterance pipeline, with one fallback guaranteeing a non-empty set.

    Silences come from the pair's energy track, if any, at config.frame_shift_ms.
    """
    if pair.energy_track is not None:
        silences = detect_silence(pair.energy_track, config)
    else:
        silences = ()

    boundaries = candidate_boundaries(pair, config, silences)
    try:
        spans = enumerate_spans(boundaries, silences, config.span_min_len, config.span_max_len)
    except NoCandidateSpansError:
        # Every frame is a boundary; an utterance shorter than span_min_len gets only (1, m).
        min_len = min(config.span_min_len, pair.m)
        spans = enumerate_spans(range(1, pair.m + 1), (), min_len, config.span_max_len)
    return spans, silences
