import math
from collections import Counter

import numpy as np
import pytest
from oracles import enumerate_spans_reference, silence_runs_reference

from spanalign.corpus import SentencePair, read_boundary_file
from spanalign.segmentation import (
    NoCandidateSpansError,
    SegmentationConfig,
    SilenceSpans,
    candidate_boundaries,
    candidate_spans,
    detect_silence,
    enumerate_spans,
)


def make_pair(m, energy=None, utt_id="u1", boundaries=()):
    return SentencePair(
        utt_id=utt_id,
        frames=np.zeros((m, 2)),
        target_words=("word",),
        energy_track=energy,
        boundaries=boundaries,
    )


def test_detect_silence_seven_frame_run():
    e = np.ones(30)
    e[10:17] = 0.01
    assert detect_silence(e, SegmentationConfig()) == ((11, 18),)


def test_detect_silence_four_frames_too_short():
    e = np.ones(30)
    e[10:14] = 0.01
    assert detect_silence(e, SegmentationConfig()) == ()


def test_detect_silence_all_zero_track():
    assert detect_silence(np.zeros(25), SegmentationConfig()) == ()


def test_detect_silence_multiple_runs():
    e = np.ones(60)
    e[5:12] = 0.0
    e[30:40] = 0.0
    assert detect_silence(e, SegmentationConfig()) == ((6, 13), (31, 41))


def test_detect_silence_min_ms_scales_with_shift():
    e = np.ones(30)
    e[10:14] = 0.0
    # 4 frames at 20 ms/frame = 80 ms >= 50 ms
    assert detect_silence(e, SegmentationConfig(frame_shift_ms=20.0)) == ((11, 15),)


def test_boundaries_grid_endpoints():
    pair = make_pair(20)
    cfg = SegmentationConfig()
    points = candidate_boundaries(pair, cfg, SilenceSpans(()))
    assert points == [1, 5, 10, 15, 20]


def test_boundaries_include_silence_edges():
    pair = make_pair(20)
    cfg = SegmentationConfig()
    points = candidate_boundaries(pair, cfg, SilenceSpans(((8, 13),)))
    assert 8 in points and 13 in points


def test_boundaries_union_sidecar():
    pair = make_pair(20, boundaries=(7, 3))
    cfg = SegmentationConfig()
    points = candidate_boundaries(pair, cfg, SilenceSpans(()))
    assert {3, 7}.issubset(points)
    assert points == sorted(points)


def test_read_boundary_file_validates(tmp_path):
    path = tmp_path / "u.bounds"
    path.write_text("0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_boundary_file(path, 10)
    path.write_text("11\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_boundary_file(path, 10)


def test_enumerate_spans_documented_example():
    got = enumerate_spans([1, 5, 10], SilenceSpans(()), min_len=2, max_len=100)
    assert set(got) == {(1, 5), (1, 10), (5, 10)}


def test_enumerate_spans_silence_dropped_and_snapped():
    got = enumerate_spans([1, 5, 10], SilenceSpans(((4, 6),)), min_len=2, max_len=100)
    # (1,10) crosses the silence and is dropped; (1,5) ends inside it and
    # snaps back to (1,3); (5,10) starts inside it and snaps to (6,10).
    assert (1, 3) in got
    assert (1, 10) not in got
    assert (6, 10) in got


def test_enumerate_spans_length_filter():
    got = enumerate_spans([1, 5, 10], SilenceSpans(()), min_len=5, max_len=6)
    assert set(got) == {(1, 5), (5, 10)}


def test_enumerate_spans_raises_when_empty():
    with pytest.raises(NoCandidateSpansError):
        enumerate_spans([1, 2], SilenceSpans(()), min_len=10, max_len=20)


def test_candidate_spans_full_pipeline_snaps_to_word():
    # 10 junk frames, 8 word frames, 10 junk frames; the word span must
    # be among the candidates once silences are detected exactly.
    energy = np.concatenate([np.full(10, 0.01), np.ones(8), np.full(10, 0.01)])
    pair = make_pair(28, energy=energy)
    cands, silences = candidate_spans(pair, SegmentationConfig())
    assert silences == ((1, 11), (19, 29))
    assert (11, 18) in cands
    for a, b in cands:
        assert not any(max(a, s) <= min(b, t - 1) for s, t in silences)


def test_candidate_spans_fallback_whole_utterance():
    # No span of length >= 10 exists in 4 frames; both enumeration
    # passes fail and the terminal fallback is the whole utterance.
    pair = make_pair(4)
    cfg = SegmentationConfig(span_min_len=10, span_max_len=20)
    cands, _ = candidate_spans(pair, cfg)
    assert cands == ((1, 4),)


def test_candidate_spans_fallback_unrestricted_grid():
    # Boundary points {1, 20} alone give only the full span, which the
    # max-length filter kills; the dense-grid fallback then supplies
    # every in-range span.
    pair = make_pair(20)
    cfg = SegmentationConfig(grid_stride=0, span_min_len=3, span_max_len=10)
    cands, _ = candidate_spans(pair, cfg)
    assert all(3 <= b - a + 1 <= 10 for a, b in cands)
    assert (1, 10) in cands and (11, 20) in cands


@pytest.mark.parametrize(
    "settings, expected",
    [({}, ()), ({"min_silence_ms": 40.0}, ((9, 13),)), ({"threshold_ratio": 0.3}, ((25, 32),))],
    ids=["default", "min_silence_ms", "threshold_ratio"],
)
def test_candidate_spans_silence_follows_config(settings, expected):
    # A 4-frame quiet run is shorter than the default 50 ms, and a 7-frame
    # run at 0.2 of the peak is above the default threshold ratio.
    energy = np.ones(40)
    energy[8:12] = 0.01
    energy[24:31] = 0.2
    cands, silences = candidate_spans(make_pair(40, energy=energy), SegmentationConfig(**settings))
    assert silences == expected
    for a, b in cands:
        assert not any(max(a, s) <= min(b, t - 1) for s, t in expected)


def test_candidate_spans_no_energy_skips_silence():
    pair = make_pair(20)
    cands, silences = candidate_spans(pair, SegmentationConfig())
    assert silences == ()
    assert (1, 20) in cands


def _random_silences(rng, top):
    """Disjoint ordered silences over frames 1..top + 4, some adjacent."""
    spans = []
    pos = int(rng.integers(1, 5))
    while pos <= top + 4:
        if rng.random() < 0.5:
            t = pos + int(rng.integers(1, 7))
            spans.append((pos, t))
            pos = t + int(rng.choice([0, 0, 1, 2, 4]))
        else:
            pos += int(rng.integers(1, 6))
    return SilenceSpans(tuple(spans))


def test_enumerate_spans_matches_pairwise_reference():
    rng = np.random.default_rng(20161)
    seen = Counter()
    for _ in range(6000):
        top = int(rng.integers(1, 41))
        silences = _random_silences(rng, top)
        edges = [j for s, t in silences for j in (s - 1, s, t - 1, t) if 1 <= j <= top]
        boundaries = [int(j) for j in rng.integers(1, top + 1, size=int(rng.integers(1, 10)))]
        boundaries += [int(j) for j in rng.choice(edges, size=min(len(edges), 3))] if edges else []
        rng.shuffle(boundaries)
        min_len = int(rng.integers(0, 6))
        max_len = int(rng.integers(0, 25))

        seen["adjacent"] += any(s == prev_t for (_, prev_t), (s, _) in zip(silences, silences[1:]))
        seen["inside"] += any(s < j < t - 1 for j in boundaries for s, t in silences)
        seen["on_edge"] += any(j in (s, t - 1, t) for j in boundaries for s, t in silences)
        seen["past_last"] += any(t - 1 > max(boundaries) for _, t in silences)
        seen["duplicate"] += len(set(boundaries)) < len(boundaries)
        seen["unsorted"] += boundaries != sorted(boundaries)
        seen[f"min_len_{min_len}"] += 1
        seen["max_below_min"] += max_len < min_len

        try:
            expected = enumerate_spans_reference(boundaries, silences, min_len, max_len)
        except NoCandidateSpansError:
            seen["empty"] += 1
            with pytest.raises(NoCandidateSpansError):
                enumerate_spans(boundaries, silences, min_len, max_len)
            continue
        seen["non_empty"] += 1
        assert enumerate_spans(boundaries, silences, min_len, max_len) == expected
    for case in ("adjacent", "inside", "on_edge", "past_last", "duplicate", "unsorted",
                 "min_len_0", "min_len_1", "max_below_min", "empty", "non_empty"):
        assert seen[case] >= 100, (case, seen)


def test_enumerate_spans_rejects_bad_boundaries():
    with pytest.raises(ValueError):
        enumerate_spans([], SilenceSpans(()), 1, 10)
    with pytest.raises(ValueError):
        enumerate_spans([0, 5], SilenceSpans(()), 1, 10)


def test_detect_silence_runs_match_frame_loop():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        m = int(rng.integers(1, 61))
        energy = rng.random(m)
        energy[rng.random(m) < rng.random()] = 0.0
        ratio = float(rng.uniform(0.05, 0.95))
        min_ms = float(rng.integers(1, 7) * 10)
        config = SegmentationConfig(threshold_ratio=ratio, min_silence_ms=min_ms, smooth_frames=1)
        got = detect_silence(energy, config)
        mask = energy < ratio * energy.max()
        assert got == tuple(silence_runs_reference(mask, math.ceil(min_ms / 10.0)))
        assert all(type(v) is int for span in got for v in span)


@pytest.mark.parametrize("width", [1, 3, 5, 7, 9])
def test_detect_silence_smooths_with_running_median(width):
    # the sorted-window middle must equal np.median over the same windows
    rng = np.random.default_rng(width)
    half = width // 2
    for trial in range(300):
        m = int(rng.integers(1, 40))
        # every other track draws from three levels, so windows hold ties
        energy = rng.integers(0, 3, m).astype(float) if trial % 2 else rng.random(m)
        windows = np.lib.stride_tricks.sliding_window_view(np.pad(energy, half, mode="edge"), width)
        smoothed = np.median(windows, axis=1)
        ratio = float(rng.uniform(0.05, 0.95))
        config = SegmentationConfig(threshold_ratio=ratio, min_silence_ms=10.0, smooth_frames=width)
        mask = smoothed < ratio * smoothed.max()
        assert detect_silence(energy, config) == tuple(silence_runs_reference(mask, 1))
