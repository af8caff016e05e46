import numpy as np
import pytest

from spanalign.dtw import (
    SpanLanes,
    candidate_span_costs,
    dba_centroid,
    dtw_distance,
    frame_distances,
)

from oracles import (
    dba_centroid_reference,
    exhaustive_dtw,
    frame_distance_reference,
    is_valid_warp_path,
    path_cost,
)


def fs(arr) -> np.ndarray:
    return np.asarray(arr, dtype=np.float64)


def col(*vals) -> np.ndarray:
    return np.asarray(vals, dtype=np.float64).reshape(-1, 1)


def test_documented_pair():
    # x = [0, 2], y = [0, 1, 2] in one dimension: the middle frame costs
    # 1 wherever it lands, so raw cost 1 and normalized 1/(2+3) = 0.2.
    cost, path = dtw_distance(frame_distances(col(0, 2), col(0, 1, 2)))
    assert cost == pytest.approx(0.2, abs=1e-15)
    assert path == ((1, 1), (1, 2), (2, 3))


def test_documented_pair_symmetry():
    x, y = col(0, 2), col(0, 1, 2)
    assert dtw_distance(frame_distances(x, y))[0] == dtw_distance(frame_distances(y, x))[0]


def test_identical_sequences_zero_cost():
    x = fs(np.random.default_rng(0).normal(size=(7, 3)))
    cost, path = dtw_distance(frame_distances(x, x))
    assert cost == 0.0
    assert path == tuple((i, i) for i in range(1, 8))


def test_single_frame_pair():
    cost, path = dtw_distance(frame_distances(col(1.0), col(4.0)))
    assert cost == pytest.approx(3.0 / 2.0)
    assert path == ((1, 1),)


def test_dimension_mismatch_rejected():
    for proto_dim, frame_dim in ((2, 3), (3, 2)):
        frames = np.zeros((5, frame_dim))
        with pytest.raises(ValueError, match="dimension mismatch"):
            candidate_span_costs(np.zeros((2, proto_dim)), frames, SpanLanes(frames, [(1, 3)]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        frame_distances(np.zeros((2, 9)), np.zeros((2, 8)))


def test_cost_matches_returned_path():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.normal(size=(int(rng.integers(1, 7)), 2))
        y = rng.normal(size=(int(rng.integers(1, 7)), 2))
        cost, path = dtw_distance(frame_distances(fs(x), fs(y)))
        assert is_valid_warp_path(path, x.shape[0], y.shape[0])
        assert cost == pytest.approx(path_cost(x, y, path), abs=1e-12)


def test_matches_exhaustive_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = rng.normal(size=(int(rng.integers(1, 6)), 2))
        y = rng.normal(size=(int(rng.integers(1, 6)), 2))
        assert dtw_distance(frame_distances(fs(x), fs(y)))[0] == pytest.approx(
            exhaustive_dtw(x, y), abs=1e-12
        )


def test_tie_break_prefers_diagonal():
    # All-zero sequences make every step free; the backtrace must then
    # walk the diagonal first rather than an L-shaped path.
    _, path = dtw_distance(frame_distances(fs(np.zeros((3, 1))), fs(np.zeros((3, 1)))))
    assert path == ((1, 1), (2, 2), (3, 3))


def test_frame_distances_euclidean():
    x = np.asarray([[0.0, 0.0], [3.0, 4.0]])
    y = np.asarray([[0.0, 0.0]])
    d = frame_distances(x, y)
    assert d.shape == (2, 1)
    assert d[0, 0] == 0.0
    assert d[1, 0] == 5.0


def _reference_matrix(x, y):
    return np.array([[frame_distance_reference(u, v) for v in y] for u in x])


def test_frame_distances_match_lane_order_reference():
    rng = np.random.default_rng(41)
    for dim in range(1, 21):
        for n, m in ((1, 1), (1, 6), (4, 1), (3, 5), (9, 17)):
            # mixed magnitudes make the rounding depend on the summation order
            x = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-4, 5, size=(n, dim))
            y = rng.normal(size=(m, dim)) * 10.0 ** rng.integers(-4, 5, size=(m, dim))
            want = _reference_matrix(x, y)
            assert np.array_equal(frame_distances(x, y), want)
            # a column-major y is read in place; the values must not change
            assert np.array_equal(frame_distances(x, np.asfortranarray(y)), want)
            # written through a skewed, strided view, as the span kernel does
            skewed = np.full((n, m + n - 1), np.inf)
            row, col = skewed.strides
            diag = np.lib.stride_tricks.as_strided(skewed, (n, m), (row + col, col), writeable=True)
            assert frame_distances(x, y, out=diag) is diag
            assert np.array_equal(diag, want)
            every_other = np.zeros((2 * n, 3 * m))
            frame_distances(x, y, out=every_other[::2, 1::3])
            assert np.array_equal(every_other[::2, 1::3], want)
            assert not every_other[1::2].any() and not every_other[:, ::3].any()


def test_block_slices_equal_per_pair_calls():
    # dba_centroid computes one block per pass and hands each member its columns
    rng = np.random.default_rng(43)
    for dim in (1, 2, 12, 13):
        skel = rng.normal(size=(int(rng.integers(1, 10)), dim))
        members = [rng.normal(size=(int(rng.integers(1, 10)), dim)) for _ in range(6)]
        block = frame_distances(skel, np.asfortranarray(np.concatenate(members)))
        first = 0
        for mem in members:
            part = block[:, first : first + mem.shape[0]]
            first += mem.shape[0]
            assert np.array_equal(part, frame_distances(skel, mem))
            assert dtw_distance(part) == dtw_distance(frame_distances(skel, mem))


def _kernel_cases():
    """(proto, frames, spans) inputs covering the lane layouts of the wavefront kernel."""
    rng = np.random.default_rng(13)
    yield rng.normal(size=(5, 2)), rng.normal(size=(20, 2)), ((1, 4), (1, 9), (3, 7), (3, 12), (8, 20), (20, 20))
    for n in range(1, 13):
        dim = 1 + n % 3
        proto = rng.normal(size=(n, dim))
        frames = rng.normal(size=(30, dim))
        m = frames.shape[0]
        # width-1 spans, spans narrower than the prototype, spans ending on the last frame
        yield proto, frames, ((1, 1), (4, 4), (m, m), (2, 2 + n // 2), (7, m), (1, m))
        # one start with many ends
        yield proto, frames, tuple((3, b) for b in range(3, m + 1))
        # unsorted and duplicate spans, several lanes of different widths
        spans = [(a, b) for a, b in np.sort(rng.integers(1, m + 1, size=(25, 2)), axis=1).tolist()]
        spans += spans[:5]
        rng.shuffle(spans)
        yield proto, frames, tuple((int(a), int(b)) for a, b in spans)


def test_candidate_span_costs_matches_loop():
    for proto, frames, spans in _kernel_cases():
        batched = candidate_span_costs(proto, frames, SpanLanes(frames, spans))
        assert batched.shape == (len(spans),)
        for k, (a, b) in enumerate(spans):
            # bitwise: the wavefront kernel must be the same arithmetic
            assert batched[k] == dtw_distance(frame_distances(fs(proto), fs(frames[a - 1 : b])))[0]


def test_shared_layout_matches_fresh_calls():
    rng = np.random.default_rng(17)
    frames = rng.normal(size=(60, 2))
    # lanes of widths 1, 2, 3 and 45, so most lanes end long before the widest
    spans = [(a, a + w - 1) for a, w in ((1, 1), (5, 2), (9, 3), (13, 45), (14, 1), (59, 2))]
    spans += [(13, b) for b in range(13, 58, 4)] + [(60, 60), (2, 3)]
    # no span wider than 4 frames, so most prototypes below are longer than every span
    short = (rng.normal(size=(10, 3)), [(1, 2), (3, 6), (4, 4), (10, 10)])
    cases = [(frames, spans), short] + [(f, s) for _, f, s in _kernel_cases()]
    for case_frames, case_spans in cases:
        lanes = SpanLanes(case_frames, case_spans)
        assert lanes == tuple(case_spans)
        for n in range(1, 13):
            proto = rng.normal(size=(n, case_frames.shape[1]))
            shared = candidate_span_costs(proto, case_frames, lanes)
            fresh = candidate_span_costs(proto, case_frames, SpanLanes(case_frames, case_spans))
            assert np.array_equal(shared, fresh)
            for k, (a, b) in enumerate(case_spans):
                want, _ = dtw_distance(frame_distances(fs(proto), fs(case_frames[a - 1 : b])))
                assert shared[k] == want


def test_layout_of_other_frames_is_not_reused():
    # The kernel takes only the layout built on its own frames, as span_cost_rows passes it.
    rng = np.random.default_rng(23)
    spans = ((1, 3), (2, 6), (4, 4))
    lanes = SpanLanes(rng.normal(size=(6, 2)), spans)
    frames = rng.normal(size=(6, 2))
    proto = rng.normal(size=(3, 2))
    for other in (lanes, spans, list(spans), SpanLanes(frames.copy(), spans)):
        with pytest.raises(ValueError, match="SpanLanes built on this frames array"):
            candidate_span_costs(proto, frames, other)
    assert candidate_span_costs(proto, frames, SpanLanes(frames, spans)).shape == (3,)


def test_candidate_span_costs_no_spans():
    frames = np.zeros((4, 2))
    costs = candidate_span_costs(np.ones((3, 2)), frames, SpanLanes(frames, []))
    assert costs.shape == (0,) and costs.dtype == np.float64


def test_dba_matches_reference():
    rng = np.random.default_rng(31)
    for trial in range(60):
        dim = 1 + trial % 3
        size = 1 if trial % 5 == 0 else int(rng.integers(2, 8))
        members = [fs(rng.normal(size=(int(rng.integers(1, 13)), dim))) for _ in range(size)]
        iterations = 1 + trial % 5
        got, got_history = dba_centroid(members, iterations=iterations)
        want, want_history = dba_centroid_reference(members, iterations, return_history=True)
        # bitwise: one add.at per pass keeps the order of the per-cell sums
        assert np.array_equal(got, want)
        assert got_history == want_history


def test_dba_singleton_is_member():
    member = fs(np.random.default_rng(5).normal(size=(6, 2)))
    centroid, _ = dba_centroid([member], iterations=3)
    np.testing.assert_array_equal(centroid, member)


def test_dba_two_constant_sequences():
    # Members [0, 0] and [2, 2]: the average sits at [1, 1].
    centroid, _ = dba_centroid([col(0.0, 0.0), col(2.0, 2.0)], iterations=3)
    np.testing.assert_allclose(centroid, [[1.0], [1.0]])


def test_dba_skeleton_upper_median_length():
    rng = np.random.default_rng(9)
    members = [fs(rng.normal(size=(n, 2))) for n in (3, 9, 5)]
    centroid, _ = dba_centroid(members, iterations=1)
    # lengths sorted (3, 5, 9) -> index 3 // 2 picks 5
    assert centroid.shape[0] == 5


def test_dba_objective_non_increasing():
    rng = np.random.default_rng(21)
    members = [fs(rng.normal(size=(int(rng.integers(3, 9)), 3))) for _ in range(6)]
    _, history = dba_centroid(members, iterations=5)
    for prev, cur in zip(history, history[1:]):
        assert cur <= prev + 1e-9


def test_result_type():
    res = dtw_distance(frame_distances(col(0.0), col(0.0)))
    assert isinstance(res, tuple) and res == (0.0, ((1, 1),))
