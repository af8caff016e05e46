"""Independent reference implementations used to freeze expected values.

Everything here trades speed for obviousness: exhaustive enumeration,
integer arithmetic, and a per-span scorer that computes one DTW per
(cluster, span) instead of sharing the package's batched span tables.
It also holds the naive length baseline the acceptance suite beats.
"""
from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from spanalign.distortion import allocate_mu, log_delta_a, log_delta_b
from spanalign.dtw import dtw_distance, frame_distances
from spanalign.segmentation import NoCandidateSpansError


def exhaustive_dtw(x: np.ndarray, y: np.ndarray) -> float:
    """Normalized warping cost by enumerating every monotone path.

    Paths move through the m-by-m' grid of frame pairs with steps
    (+1, 0), (+1, +1), (0, +1), start at (0, 0) and end at
    (m-1, m'-1).  Cost of a path is the sum of Euclidean frame
    distances over its cells, divided by (m + m').
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, mp = x.shape[0], y.shape[0]

    dist = [[math.dist(x[i], y[j]) for j in range(mp)] for i in range(m)]

    best = [math.inf]

    def walk(i: int, j: int, acc: float) -> None:
        acc += dist[i][j]
        if acc >= best[0]:
            return
        if i == m - 1 and j == mp - 1:
            best[0] = acc
            return
        if i + 1 < m and j + 1 < mp:
            walk(i + 1, j + 1, acc)
        if i + 1 < m:
            walk(i + 1, j, acc)
        if j + 1 < mp:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0] / (m + mp)


def frame_distance_reference(u, v) -> float:
    """Euclidean distance of two frames, summed in the documented two-lane order.

    Python floats round every subtract, multiply and add to float64, one
    at a time.  Each block of 8 features starting at b adds b+6, b+4,
    b+2, b to lane 0 and b+7, b+5, b+3, b+1 to lane 1; leftover features
    alternate lane 0, lane 1 in ascending order.
    """
    u = [float(value) for value in u]
    v = [float(value) for value in v]
    lanes = [0.0, 0.0]

    def add(lane: int, k: int) -> None:
        diff = u[k] - v[k]
        lanes[lane] += diff * diff

    full = len(u) - len(u) % 8
    for b in range(0, full, 8):
        for k in (6, 4, 2, 0):
            add(0, b + k)
        for k in (7, 5, 3, 1):
            add(1, b + k)
    for k in range(full, len(u)):
        add((k - full) % 2, k)
    return math.sqrt(lanes[0] + lanes[1])


def path_cost(x: np.ndarray, y: np.ndarray, path) -> float:
    """Normalized cost of one explicit warping path (1-indexed pairs)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    total = sum(math.dist(x[i - 1], y[j - 1]) for i, j in path)
    return total / (x.shape[0] + y.shape[0])


def is_valid_warp_path(path, m: int, mp: int) -> bool:
    """Monotone, connected, endpoint-anchored path over 1-indexed cells."""
    if not path or path[0] != (1, 1) or path[-1] != (m, mp):
        return False
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        if (i1 - i0, j1 - j0) not in ((1, 0), (0, 1), (1, 1)):
            return False
    return True


def dba_centroid_reference(members, iterations: int = 3, return_history: bool = False):
    """`dba_centroid` with the mean update summed one path cell at a time.

    Same skeleton choice, objective, acceptance test and stopping rule;
    the member frames are added in member order, each along its path.
    """
    lengths = sorted(mem.shape[0] for mem in members)
    target = lengths[len(lengths) // 2]
    skeleton = next(mem.copy() for mem in members if mem.shape[0] == target)

    def objective_and_paths(skel):
        total = 0.0
        paths = []
        for mem in members:
            cost, path = dtw_distance(frame_distances(skel, mem))
            total += cost * cost
            paths.append(path)
        return total, paths

    obj, paths = objective_and_paths(skeleton)
    history = [obj]
    for _ in range(iterations):
        sums = np.zeros_like(skeleton)
        counts = np.zeros(skeleton.shape[0])
        for mem, path in zip(members, paths):
            for i, j in path:
                sums[i - 1] += mem[j - 1]
                counts[i - 1] += 1
        candidate = sums / counts[:, None]
        cand_obj, cand_paths = objective_and_paths(candidate)
        if cand_obj > obj:
            break
        skeleton, obj, paths = candidate, cand_obj, cand_paths
        history.append(obj)
        if history[-2] - obj < 1e-6 * max(history[-2], 1e-300):
            break
    return (skeleton, history) if return_history else skeleton


def analytic_delta_argmax(i: int, l: int, m: int, mu_i: int, shifted: bool) -> int:
    """Integer-exact argmax position of the span-distortion softmax body.

    The body is monotone decreasing in |i*(m - mu_i) - l*(j - shift)|,
    so the argmax over j in 1..m is the first j minimizing that integer
    expression (ties break to the smaller j, matching first-maximum
    argmax semantics).
    """
    shift = mu_i if shifted else 0
    best_j, best_num = 1, None
    for j in range(1, m + 1):
        num = abs(i * (m - mu_i) - l * (j - shift))
        if best_num is None or num < best_num:
            best_j, best_num = j, num
    return best_j


def _span_costs(proto, pair, candidates) -> np.ndarray:
    """Normalized DTW cost of the prototype against each candidate span, one DP each."""
    frames = pair.frames
    return np.array([dtw_distance(frame_distances(proto, frames[a - 1 : b]))[0] for a, b in candidates])


def log_s_deficient(f, a, b, pair, candidates, prototypes) -> float:
    """log s(a, b | f): softmax of -DTW^2 over the candidate spans."""
    proto = prototypes[f]
    if proto is None:
        raise ValueError(f"cluster {f} has no prototype")
    costs = _span_costs(proto, pair, candidates)
    neg = -(costs * costs)
    peak = neg.max()
    table = neg - (peak + math.log(np.exp(neg - peak).sum()))
    return float(table[candidates.index((a, b))])


def log_s_proper(f, a, b, pair, params, candidates) -> float:
    """log s(f | a, b): softmax of -DTW^2 over the live clusters."""
    live = params.live_clusters()
    if f not in live:
        raise ValueError(f"cluster {f} is not live")
    costs = np.stack([_span_costs(params.prototypes[g], pair, candidates) for g in live])
    neg = -(costs * costs)
    peak = neg.max(axis=0)
    rows = neg - (peak + np.log(np.exp(neg - peak).sum(axis=0)))
    return float(rows[live.index(f)][candidates.index((a, b))])


def span_log_delta(i, a, b, pair, mu_i, lam) -> float:
    """log delta_a(a) + log delta_b(b) for word i (1-indexed)."""
    if pair.m == 1:
        return 0.0  # a single frame admits a single span; distortion is constant
    mu = min(mu_i, pair.m - 1) if pair.l == 1 else mu_i  # single-word clamp
    la = log_delta_a(i, pair.l, pair.m, mu, lam)
    lb = log_delta_b(i, pair.l, pair.m, mu, lam)
    return float(la[a] + lb[b])


def word_log_score(i, word, f, a, b, pair, params, candidates, mu_i) -> float:
    """Log score of word i (1-indexed) taking cluster f on span (a, b).

    Deficient: log u(f) + log s(a, b | f) + log delta.  Proper:
    log s(f | a, b) + log delta.  -inf when f is outside the word's
    inventory slice or dead.
    """
    if f not in params.inventory.clusters.get(word, ()):
        return -math.inf
    if params.u[f] <= 0.0 or params.prototypes[f] is None:
        return -math.inf
    delta_lp = span_log_delta(i, a, b, pair, mu_i, params.lam)
    if params.variant == "deficient":
        s_lp = log_s_deficient(f, a, b, pair, candidates, params.prototypes)
        return (math.log(params.u[f]) + s_lp) + delta_lp
    return log_s_proper(f, a, b, pair, params, candidates) + delta_lp


def brute_force_word_argmax(i, word, pair, params, candidates, mu_i, word_log_score):
    """Exhaustive per-word E-step argmax with the documented tie-break.

    Scans clusters in increasing id and spans in candidate order,
    keeping the first strict maximum, so ties resolve to the smaller
    (a, b) and then the smaller cluster id.  `word_log_score` is the
    scoring function to search with, normally the one above.
    """
    live = [
        f
        for f in params.inventory.clusters.get(word, ())
        if params.u[f] > 0.0 and params.prototypes[f] is not None
    ]
    best = (-math.inf, None)
    for a, b in candidates:
        for f in sorted(live):
            score = word_log_score(i, word, f, a, b, pair, params, candidates, mu_i)
            if score > best[0]:
                best = (score, (f, a, b))
    return best


def silence_runs_reference(mask, min_frames: int):
    """Maximal runs of True in `mask` of at least `min_frames`, as 1-indexed [s, t).

    Walks the mask one frame at a time, closing a run at the first
    non-silent frame or at the end of the track.
    """
    m = len(mask)
    spans = []
    run_start = None
    for pos in range(m + 1):
        silent = pos < m and mask[pos]
        if silent and run_start is None:
            run_start = pos
        elif not silent and run_start is not None:
            if pos - run_start >= min_frames:
                spans.append((run_start + 1, pos + 1))
            run_start = None
    return spans


def _snap_reference(j: int, silences, is_start: bool) -> int:
    for s, t in silences:
        if s <= j < t:
            return t if is_start else s - 1
    return j


def enumerate_spans_reference(boundaries, silences, min_len: int, max_len: int):
    """Sorted candidate spans from every boundary pair, snapped and filtered one by one.

    Each pair a <= b of distinct boundaries is snapped off silences (a
    start inside [s, t) moves to t, an end to s - 1), dropped if it
    overlaps a silent frame or its length leaves [min_len, max_len].
    Raises NoCandidateSpansError when nothing survives.
    """
    points = sorted(set(boundaries))
    silent_list = list(silences)

    def overlaps_silence(a: int, b: int) -> bool:
        return any(max(a, s) <= min(b, t - 1) for s, t in silent_list)

    spans = set()
    for ai, a in enumerate(points):
        for b in points[ai:]:
            a2 = _snap_reference(a, silent_list, is_start=True)
            b2 = _snap_reference(b, silent_list, is_start=False)
            if a2 > b2 or b2 < 1:
                continue
            if overlaps_silence(a2, b2):
                continue
            if min_len <= b2 - a2 + 1 <= max_len:
                spans.add((a2, b2))
    if not spans:
        raise NoCandidateSpansError("no candidate span survived filtering")
    return tuple(sorted(spans))


def largest_remainder_alloc(char_lengths, m: int):
    """Reference largest-remainder allocation with explicit fraction math."""
    from fractions import Fraction

    lengths = list(char_lengths)
    total = sum(lengths)
    quotas = [Fraction(m * c, total) for c in lengths]
    floors = [int(q) for q in quotas]
    leftover = m - sum(floors)
    order = sorted(range(len(lengths)), key=lambda k: (-(quotas[k] - floors[k]), k))
    mu = list(floors)
    for k in order[:leftover]:
        mu[k] += 1
    while any(v == 0 for v in mu):
        z = min(k for k, v in enumerate(mu) if v == 0)
        donor = max(range(len(mu)), key=lambda k: (mu[k], -k))
        mu[donor] -= 1
        mu[z] += 1
    return tuple(mu)


def naive_baseline(pair):
    """Monotone partition of the utterance into mu-proportional spans, with no cluster and score 0."""
    mu = allocate_mu(pair.char_lengths, pair.m)
    return tuple((None, end - width + 1, end, 0.0) for width, end in zip(mu, accumulate(mu)))
