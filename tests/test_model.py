import json
import math
import re

import numpy as np
import pytest

from spanalign.corpus import Corpus, CorpusError, SentencePair
from spanalign.distortion import log_delta_a, log_delta_b
from spanalign.dtw import SpanLanes, candidate_span_costs, dtw_distance, frame_distances
from spanalign import model, trainer
from spanalign.model import (
    ClusterInventory,
    ModelParams,
    deficient_log_s_table,
    proper_log_s_rows,
    save_params,
    span_cost_rows,
)
from spanalign.trainer import Tables, _utterance_scores, distortion_rows

from oracles import span_log_delta, word_log_score


def fs(arr):
    return np.asarray(arr, dtype=np.float64)


def make_setup(k=1, variant="deficient"):
    rng = np.random.default_rng(0)
    pair = SentencePair(
        utt_id="u1",
        frames=rng.normal(size=(10, 2)),
        target_words=("foo", "bar"),
    )
    inventory = ClusterInventory.build(["foo", "bar"], k)
    n = inventory.n_clusters
    protos = tuple(fs(rng.normal(size=(3, 2))) for _ in range(n))
    u = np.full(n, 1.0 / n)
    params = ModelParams(
        inventory=inventory,
        u=u,
        prototypes=protos,
        lam=0.5,
        variant=variant,
    )
    candidates = ((1, 4), (2, 6), (5, 10))
    return pair, params, candidates


def test_inventory_build_assigns_sequential_ids():
    inv = ClusterInventory.build(["b", "a", "b"], 2)
    assert (inv.words, inv.k) == (("a", "b"), 2)
    assert inv.clusters == {"a": (0, 1), "b": (2, 3)}
    assert inv.owner[3] == "b"
    assert inv.n_clusters == 4


def test_inventory_derives_owner_map():
    inv = ClusterInventory(("a", "b", "c"), 2)
    assert inv.owner == {0: "a", 1: "a", 2: "b", 3: "b", 4: "c", 5: "c"}
    assert inv.n_clusters == 6


def test_params_prior_must_sum_to_one():
    inv = ClusterInventory.build(["a"], 1)
    with pytest.raises(ValueError):
        ModelParams(
            inventory=inv,
            u=np.asarray([0.5]),
            prototypes=(fs(np.zeros((2, 1))),),
        )


def test_live_clusters_require_mass_and_prototype():
    inv = ClusterInventory.build(["a", "b"], 1)
    params = ModelParams(
        inventory=inv,
        u=np.asarray([1.0, 0.0]),
        prototypes=(fs(np.zeros((2, 1))), None),
    )
    assert params.live_clusters() == (0,)


def test_deficient_table_is_softmax_of_neg_squared_costs():
    pair, params, candidates = make_setup()
    proto = params.prototypes[0]
    table = deficient_log_s_table(span_cost_rows([proto], [pair], [candidates])[0]["u1"])
    costs = np.asarray([dtw_distance(frame_distances(proto, pair.frames[a - 1 : b]))[0] for a, b in candidates])
    expected = -(costs**2)
    expected = expected - math.log(np.exp(expected - expected.max()).sum()) - expected.max()
    np.testing.assert_allclose(table, expected, atol=1e-12)
    assert np.exp(table).sum() == pytest.approx(1.0, abs=1e-9)


def test_documented_two_span_softmax():
    # DTW^2 values {0, 1} -> probabilities {e^0, e^-1} / (e^0 + e^-1).
    pair = SentencePair(
        utt_id="u",
        frames=np.asarray([[0.0], [0.0], [1.0], [3.0]]),
        target_words=("w",),
    )
    proto = fs([[0.0], [0.0]])
    candidates = ((1, 2), (3, 4))
    c2, _ = dtw_distance(frame_distances(proto, pair.frames[2:4]))
    assert c2 == pytest.approx(1.0)  # |1-0| + |3-0| over (2+2) frames
    table = np.exp(deficient_log_s_table(span_cost_rows([proto], [pair], [candidates])[0]["u"]))
    z = math.e**0 + math.e**-1
    assert table[0] == pytest.approx(1.0 / z, abs=1e-12)
    assert table[1] == pytest.approx(math.e**-1 / z, abs=1e-12)


def _proper_rows(params, pair, candidates):
    """log s(f | a, b) per live cluster f, read from the trainer's word scores less distortion."""
    tables = Tables(Corpus((pair,)), {pair.utt_id: candidates})
    live = tables.rows(tables.corpus, params)
    delta = distortion_rows(tables, params.lam)[pair.utt_id]
    clusters, scores = _utterance_scores(pair, params, live, delta)
    return {
        f: scores[i, :, j] - delta[i]
        for i, fs in enumerate(clusters)
        for j, f in enumerate(fs)
        if f in live
    }


def test_proper_rows_normalize_across_live_clusters():
    pair, params, candidates = make_setup(k=2, variant="proper")
    rows = _proper_rows(params, pair, candidates)
    assert set(rows) == set(params.live_clusters())
    stacked = np.exp(np.stack([rows[f] for f in sorted(rows)]))
    np.testing.assert_allclose(stacked.sum(axis=0), 1.0, atol=1e-9)


def test_proper_rows_equal_per_row_squares():
    # squaring the stacked rows is elementwise, so it must equal squaring each row
    rng = np.random.default_rng(47)
    for n_clusters in (1, 2, 7):
        costs = {int(f): rng.gamma(2.0, 0.5, size=11) for f in rng.permutation(20)[:n_clusters]}
        rows = np.stack([-(c * c) for c in costs.values()])
        peak = rows.max(axis=0)
        want = rows - (peak + np.log(np.exp(rows - peak).sum(axis=0)))
        got = proper_log_s_rows(costs)
        assert list(got) == list(costs)
        for idx, f in enumerate(costs):
            assert np.array_equal(got[f], want[idx])


def test_proper_rows_exclude_dead_clusters():
    pair, params, candidates = make_setup(k=2, variant="proper")
    u = params.u.copy()
    u[0] = 0.0
    u /= u.sum()
    dead = ModelParams(
        inventory=params.inventory,
        u=u,
        prototypes=params.prototypes,
        lam=params.lam,
        variant="proper",
    )
    rows = _proper_rows(dead, pair, candidates)
    assert 0 not in rows
    stacked = np.exp(np.stack(list(rows.values())))
    np.testing.assert_allclose(stacked.sum(axis=0), 1.0, atol=1e-9)


def test_span_cost_rows_equal_per_utterance_calls():
    rng = np.random.default_rng(4)
    pairs, candidates = [], []
    for idx, m in enumerate((1, 9, 4, 15)):
        pairs.append(SentencePair(f"u{idx}", fs(rng.normal(size=(m, 2))), ("w",)))
        all_spans = [(a, b) for a in range(1, m + 1) for b in range(a, m + 1)]
        picked = rng.choice(len(all_spans), size=min(6, len(all_spans)), replace=False)
        candidates.append(tuple(sorted(all_spans[int(j)] for j in picked)))
    protos = [fs(rng.normal(size=(n, 2))) for n in (1, 3, 8)]
    rows = span_cost_rows(protos, pairs, candidates)
    assert len(rows) == len(protos)
    for proto, costs in zip(protos, rows):
        assert list(costs) == [pair.utt_id for pair in pairs]
        for pair, cands in zip(pairs, candidates):
            want = candidate_span_costs(proto, pair.frames, SpanLanes(pair.frames, cands))
            # bitwise: laying utterances end to end must not change any cost
            assert np.array_equal(costs[pair.utt_id], want)


def test_span_cost_rows_share_one_layout(monkeypatch):
    rng = np.random.default_rng(6)
    pairs = [SentencePair(f"u{i}", fs(rng.normal(size=(m, 2))), ("w",)) for i, m in enumerate((5, 8))]
    candidates = [((1, 2), (1, 5), (3, 4)), ((2, 8), (4, 6))]
    protos = [fs(rng.normal(size=(n, 2))) for n in (2, 4, 7)]
    seen = []

    def spy(proto, frames, spans):
        seen.append((proto, frames, spans))
        return candidate_span_costs(proto, frames, spans)

    monkeypatch.setattr(model, "candidate_span_costs", spy)
    rows = span_cost_rows(protos, pairs, candidates)
    assert len(seen) == len(protos)
    assert all(called is proto for (called, _, _), proto in zip(seen, protos))
    assert all(frames is seen[0][1] and spans is seen[0][2] for _, frames, spans in seen)
    assert tuple(seen[0][2]) == ((1, 2), (1, 5), (3, 4), (7, 13), (9, 11))
    frames, spans = seen[0][1], seen[0][2]
    for proto, costs in zip(protos, rows):
        want = candidate_span_costs(proto, frames, SpanLanes(frames, spans))
        assert np.array_equal(costs["u0"], want[:3])
        assert np.array_equal(costs["u1"], want[3:])


def test_span_cost_rows_without_pairs_are_empty(monkeypatch):
    pair, params, candidates = make_setup()
    assert span_cost_rows(params.prototypes, [], []) == [{}, {}]
    # A deficient E-step reaches this case when the inventory holds a word no utterance has.
    inventory = ClusterInventory.build(["foo", "bar", "baz"], 1)
    protos = params.prototypes + (fs(np.zeros((2, 2))),)
    params = ModelParams(inventory, np.full(3, 1.0 / 3), protos, params.lam)
    calls = []

    def spy(protos, pairs, cands):
        rows = span_cost_rows(protos, pairs, cands)
        calls.append((tuple(pairs), rows))
        return rows

    monkeypatch.setattr(trainer, "span_cost_rows", spy)
    tables = Tables(Corpus((pair,)), {pair.utt_id: candidates})
    live = tables.rows(tables.corpus, params)
    assert ((), [{}]) in calls
    delta = distortion_rows(tables, params.lam)[pair.utt_id]
    clusters, scores = _utterance_scores(pair, params, live, delta)
    assert clusters == [(2,), (0,)]  # foo, bar; baz (cluster 1) is scored on no utterance
    assert np.isfinite(scores).all()


def test_span_log_delta_single_frame_sentence():
    pair = SentencePair(
        utt_id="u",
        frames=np.zeros((1, 1)),
        target_words=("w",),
    )
    assert span_log_delta(1, 1, 1, pair, 1, 0.5) == 0.0


def test_span_log_delta_matches_endpoint_vectors():
    pair, params, _ = make_setup()
    lam = params.lam
    got = span_log_delta(1, 2, 6, pair, 4, lam)
    la = log_delta_a(1, pair.l, pair.m, 4, lam)
    lb = log_delta_b(1, pair.l, pair.m, 4, lam)
    assert got == pytest.approx(float(la[2] + lb[6]), abs=1e-12)


def test_word_log_score_wrong_cluster_is_neg_inf():
    pair, params, candidates = make_setup()
    foo_cluster = params.inventory.clusters["foo"][0]
    bar_cluster = params.inventory.clusters["bar"][0]
    assert word_log_score(1, "foo", bar_cluster, 1, 4, pair, params, candidates, 5) == -math.inf
    assert word_log_score(1, "foo", foo_cluster, 1, 4, pair, params, candidates, 5) > -math.inf


def test_word_log_score_dead_cluster_is_neg_inf():
    pair, params, candidates = make_setup()
    u = np.asarray([0.0, 1.0])
    dead = ModelParams(
        inventory=params.inventory,
        u=u,
        prototypes=params.prototypes,
        lam=params.lam,
    )
    f = dead.inventory.clusters["bar"][0]  # cluster 0 after sorting types
    assert dead.u[f] == 0.0
    assert word_log_score(2, "bar", f, 1, 4, pair, dead, candidates, 5) == -math.inf


def test_save_params_payload(tmp_path):
    _, params, _ = make_setup(k=3)
    path = tmp_path / "params.json"
    save_params(params, path, 10.0)
    payload = json.loads(path.read_text())
    assert list(payload) == ["format_version", "variant", "distortion", "clusters", "u", "prototypes"]
    assert payload["format_version"] == 1
    assert payload["variant"] == "deficient"
    assert payload["distortion"] == {"p0": 0.0, "lambda": params.lam}  # format 1 keeps a null-span mass of 0
    built = ClusterInventory.build(["foo", "bar"], 3)
    assert payload["clusters"] == {word: list(ids) for word, ids in built.clusters.items()}
    assert payload["u"] == params.u.tolist()  # 1/6, exact through repr
    assert [p["frame_shift_ms"] for p in payload["prototypes"]] == [10.0] * 6
    assert [p["frames"] for p in payload["prototypes"]] == [p.tolist() for p in params.prototypes]


def test_save_params_payload_with_dead_prototype(tmp_path):
    inv = ClusterInventory.build(["a", "b"], 1)
    params = ModelParams(
        inventory=inv,
        u=np.asarray([1.0, 0.0]),
        prototypes=(fs(np.ones((2, 1))), None),
        lam=0.1 + 0.2,
        variant="proper",
    )
    path = tmp_path / "params.json"
    save_params(params, path, 12.5)
    assert '"prototypes": [{"frame_shift_ms": 12.5, "frames": [[1.0], [1.0]]}, null]' in path.read_text()
    payload = json.loads(path.read_text())
    assert payload["variant"] == "proper"
    assert payload["distortion"] == {"p0": 0.0, "lambda": 0.30000000000000004}
    assert payload["u"] == [1.0, 0.0]


@pytest.mark.parametrize(
    "proto, message",
    [([[0.0, float("nan")]], "feature matrix contains non-finite values"),
     ([1.0, 2.0], r"shape \(m>=1, d>=1\), got \(2,\)"),
     ([[]], r"shape \(m>=1, d>=1\), got \(1, 0\)")],
    ids=["nan_frame", "one_dim", "no_dims"],
)
def test_params_reject_bad_prototype(proto, message):
    _, params, _ = make_setup(k=2)
    assert not params.prototypes[1].flags.writeable
    prototypes = list(params.prototypes)
    prototypes[1] = proto
    with pytest.raises(CorpusError, match=message):
        ModelParams(params.inventory, params.u, tuple(prototypes), params.lam)


def test_variant_rule_has_one_message():
    message = re.escape("variant must be one of ('deficient', 'proper'), got 'soft'")
    with pytest.raises(ValueError, match=message):
        trainer.TrainConfig(variant="soft")
    with pytest.raises(ValueError, match=message):
        model.check_variant("soft")
