import builtins
import dataclasses
import hashlib
import io
import os
import pathlib

import numpy as np
import pytest

from spanalign.cli import _split_f
from spanalign.corpus import (
    Corpus,
    SentencePair,
    normalize_utterance,
)
from spanalign.distortion import allocate_mu
from spanalign import trainer as trainer_module
from spanalign.dtw import SpanLanes, candidate_span_costs
from spanalign.model import ClusterInventory, ModelParams
from spanalign.segmentation import SegmentationConfig
from spanalign.synth import SynthConfig, synth_generate
from spanalign.trainer import (
    Tables,
    TrainConfig,
    TrainError,
    TrainState,
    build_tables,
    distortion_rows,
    e_step,
    final_alignments,
    initialize,
    m_step,
    train,
)

from oracles import brute_force_word_argmax, word_log_score


def _pair(rng, utt_id, words, m, dim=2):
    frames = rng.standard_normal((m, dim))
    return SentencePair(utt_id, frames, tuple(words))


def _tiny_instance(rng, variant):
    """A random single-sentence problem small enough to search exhaustively."""
    m = int(rng.integers(2, 13))
    vocab = ["aa", "bbb", "c"][: int(rng.integers(1, 4))]
    l = int(rng.integers(1, min(3, m) + 1))
    words = [vocab[int(v)] for v in rng.integers(0, len(vocab), size=l)]
    pair = _pair(rng, "tiny", words, m)

    all_spans = [(a, b) for a in range(1, m + 1) for b in range(a, m + 1)]
    n_spans = min(int(rng.integers(1, 5)), len(all_spans))
    picked = rng.choice(len(all_spans), size=n_spans, replace=False)
    candidates = tuple(sorted(all_spans[int(j)] for j in picked))

    inventory = ClusterInventory.build(sorted(set(vocab)), k=2)
    n = inventory.n_clusters
    u = rng.random(n) + 0.05
    prototypes = [rng.standard_normal((int(rng.integers(1, 5)), 2)) for _ in range(n)]
    if n > 2 and rng.random() < 0.5:
        # Kill one cluster; k=2 leaves every word at least one live choice.
        dead = int(rng.integers(0, n))
        u[dead] = 0.0
        if rng.random() < 0.5:
            prototypes[dead] = None
    params = ModelParams(
        inventory=inventory,
        u=u / u.sum(),
        prototypes=tuple(prototypes),
        lam=float(rng.uniform(0.05, 3.0)),
        variant=variant,
    )
    mu = allocate_mu(pair.char_lengths, m)
    return pair, params, candidates, mu


def _e_step(corpus, params, candidates, prev=None):
    """One E-step through fresh tables for hand-made candidates."""
    tables = Tables(corpus, candidates)
    return e_step(corpus, params, tables, distortion_rows(tables, params.lam), prev)


@pytest.mark.parametrize("variant", ["deficient", "proper"])
def test_e_step_matches_brute_force(variant):
    rng = np.random.default_rng(7 if variant == "deficient" else 8)
    for _ in range(25):
        pair, params, candidates, mu = _tiny_instance(rng, variant)
        corpus = Corpus((pair,))
        assignments, total = _e_step(corpus, params, {"tiny": candidates})

        expected_total = 0.0
        for i, word in enumerate(pair.target_words, start=1):
            score, triple = brute_force_word_argmax(
                i, word, pair, params, candidates, mu[i - 1], word_log_score
            )
            assert assignments["tiny"][i - 1] == triple
            expected_total += score
        assert total == pytest.approx(expected_total, abs=1e-12)


@pytest.mark.parametrize("variant", ["deficient", "proper"])
def test_final_alignments_scores_match_reference(variant):
    # Every slot of each word's own slice on every candidate span, dead
    # clusters included.  Another word's cluster or a span outside the
    # candidates is no assignment training makes, and it raises.
    rng = np.random.default_rng(21 if variant == "deficient" else 22)
    seen = set()
    for _ in range(25):
        pair, params, candidates, mu = _tiny_instance(rng, variant)
        corpus = Corpus((pair,))
        tables = Tables(corpus, {"tiny": candidates})
        delta = distortion_rows(tables, params.lam)
        slices = [params.inventory.clusters[word] for word in pair.target_words]
        for j in range(params.inventory.k):
            for a, b in candidates:
                state = TrainState(params, {"tiny": tuple((fs[j], a, b) for fs in slices)}, (), delta)
                alignment = final_alignments(corpus, state, tables)["tiny"]
                for i, (word, (f, _, _, score)) in enumerate(zip(pair.target_words, alignment), start=1):
                    want = word_log_score(i, word, f, a, b, pair, params, candidates, mu[i - 1])
                    if f not in params.live_clusters():
                        seen.add("dead")
                        assert want == score == -np.inf
                    else:
                        assert abs(score - want) <= 1e-12
        a, b = candidates[0]
        own = tuple((fs[0], a, b) for fs in slices)
        other = [f for f in range(params.inventory.n_clusters) if f not in slices[0]]
        if other:
            seen.add("other word")
            state = TrainState(params, {"tiny": ((other[0], a, b), *own[1:])}, (), delta)
            with pytest.raises(ValueError):
                final_alignments(corpus, state, tables)
        outside = [(a, b) for a in range(1, pair.m + 1) for b in range(a, pair.m + 1) if (a, b) not in candidates]
        if outside:
            seen.add("outside")
            state = TrainState(params, {"tiny": ((slices[0][0], *outside[0]), *own[1:])}, (), delta)
            with pytest.raises(KeyError):
                final_alignments(corpus, state, tables)
    assert seen == {"other word", "dead", "outside"}


def _small_corpus(seed=1, sentences=6):
    corpus, _ = synth_generate(SynthConfig(seed=seed, vocab_size=5, sentences=sentences))
    pairs = tuple(
        SentencePair(p.utt_id, normalize_utterance(p.frames), p.target_words, p.energy_track)
        for p in corpus
    )
    return Corpus(pairs, corpus.gold)


def test_build_tables_mu_covers_frames():
    corpus = _small_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    assert set(tables.candidates) == {p.utt_id for p in corpus}
    for pair in corpus:
        mu = tables.mu[pair.utt_id]
        assert len(mu) == pair.l
        assert sum(mu) == pair.m
        assert all(v >= 1 for v in mu)


def test_initialize_spans_come_from_candidates():
    corpus = _small_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    state = initialize(corpus, TrainConfig(), tables)
    assert len(state.iteration_log) == 1
    assert state.iteration_log[0].iteration == 0
    for pair in corpus:
        spans = set(tables.candidates[pair.utt_id])
        entry = state.assignments[pair.utt_id]
        assert len(entry) == pair.l
        for f, a, b in entry:
            assert (a, b) in spans
            assert state.params.u[f] > 0.0


def test_initialize_is_deterministic():
    corpus = _small_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    s1 = initialize(corpus, TrainConfig(seed=3), tables)
    s2 = initialize(corpus, TrainConfig(seed=3), tables)
    assert s1.assignments == s2.assignments
    assert np.array_equal(s1.params.u, s2.params.u)
    assert s1.iteration_log[0].total_log_score == s2.iteration_log[0].total_log_score


def test_e_step_never_decreases_word_scores():
    # Holding params fixed, the per-word argmax can only improve on the
    # previous choice, which is itself inside the searched set.
    corpus = _small_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    state = initialize(corpus, TrainConfig(), tables)
    new_assignments, _ = e_step(
        corpus, state.params, tables, state.delta, prev_assignments=state.assignments
    )
    for pair in corpus:
        candidates = tables.candidates[pair.utt_id]
        mu = tables.mu[pair.utt_id]
        for i, word in enumerate(pair.target_words, start=1):
            old = word_log_score(
                i, word, *state.assignments[pair.utt_id][i - 1], pair, state.params, candidates, mu[i - 1]
            )
            new = word_log_score(
                i, word, *new_assignments[pair.utt_id][i - 1], pair, state.params, candidates, mu[i - 1]
            )
            assert new >= old


@pytest.mark.parametrize("variant", ["deficient", "proper"])
def test_e_step_tie_order_matches_brute_force(variant):
    # Frames repeat with period 3, so the spans (1, 3), (4, 6), ... hold the
    # same frames; with lam = 0 the distortion is flat, and each word's two
    # clusters share one prototype object and one u.  Every tie must resolve
    # as the oracle's scan does: smaller start, then end, then cluster id.
    period = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    pair = SentencePair("t", np.tile(period, (4, 1)), ("aa", "bb"))
    inventory = ClusterInventory.build(["aa", "bb"], 2)
    p, q = period, period[1:]
    params = ModelParams(
        inventory=inventory,
        u=np.full(4, 0.25),
        prototypes=(p, p, q, q),
        lam=0.0,
        variant=variant,
    )
    candidates = tuple((a, b) for a in range(1, 13) for b in range(a, min(a + 5, 12) + 1))
    mu = allocate_mu(pair.char_lengths, pair.m)
    assignments, _ = _e_step(Corpus((pair,)), params, {"t": candidates})

    for i, word in enumerate(pair.target_words, start=1):
        score, triple = brute_force_word_argmax(i, word, pair, params, candidates, mu[i - 1], word_log_score)
        assert assignments["t"][i - 1] == triple
        f, a, b = triple
        # The search did meet ties: the other cluster, and the next period.
        for g, shift in ((f + 1, 0), (f, 3)):
            assert word_log_score(i, word, g, a + shift, b + shift, pair, params, candidates, mu[i - 1]) == score


def test_e_step_dead_word_keeps_previous_assignment():
    rng = np.random.default_rng(2)
    pair = _pair(rng, "t", ["aa"], m=4)
    inventory = ClusterInventory.build(["aa", "bb"], 2)
    proto = rng.standard_normal((2, 2))
    # Both of "aa"'s clusters are dead, so only a carried-over previous
    # assignment can stand in for the argmax.
    params = ModelParams(
        inventory=inventory,
        u=np.array([0.0, 0.0, 0.5, 0.5]),
        prototypes=(None, None, proto, proto),
    )
    candidates = ((1, 2), (3, 4))
    prev = {"t": ((0, 3, 4),)}
    assignments, total = _e_step(Corpus((pair,)), params, {"t": candidates}, prev)
    assert assignments["t"] == ((0, 3, 4),)
    assert total == 0.0
    with pytest.raises(TrainError, match="no live cluster"):
        _e_step(Corpus((pair,)), params, {"t": candidates})


def test_m_step_relative_frequencies():
    rng = np.random.default_rng(3)
    p1 = _pair(rng, "u1", ["aa", "bb"], m=6)
    p2 = _pair(rng, "u2", ["aa", "aa"], m=5)
    corpus = Corpus((p1, p2))
    inventory = ClusterInventory.build(["aa", "bb"], 2)  # aa -> (0, 1), bb -> (2, 3)
    sentinel = rng.standard_normal((2, 2))
    blank = ModelParams(
        inventory=inventory,
        u=np.full(4, 0.25),
        prototypes=(None, sentinel, None, None),
    )
    assignments = {
        "u1": ((0, 1, 3), (2, 4, 6)),
        "u2": ((0, 1, 2), (0, 3, 5)),
    }
    params = m_step(corpus, assignments, TrainConfig(), blank)

    assert np.allclose(params.u, [0.75, 0.0, 0.25, 0.0])
    # Cluster 2 has one member, and the centroid of a singleton is the
    # member itself; dead clusters keep whatever prototype they had.
    assert np.array_equal(params.prototypes[2], p1.frames[3:6])
    assert params.prototypes[1] is sentinel
    assert params.prototypes[3] is None
    assert params.prototypes[0] is not None and params.prototypes[0].shape[1] == 2


def _count_calls(monkeypatch, name):
    """Wrap trainer.<name> and return the list its calls' first arguments go to."""
    calls = []
    original = getattr(trainer_module, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(trainer_module, name, counted)
    return calls


def test_m_step_keeps_prototype_of_unchanged_cluster(monkeypatch):
    corpus = _small_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    state = initialize(corpus, TrainConfig(), tables)
    before = state.assignments
    # Move one word to the other cluster of its type: exactly two member lists change.
    pair = corpus.pairs[0]
    f, a, b = before[pair.utt_id][0]
    slot = state.params.inventory.clusters[pair.target_words[0]]
    g = slot[1] if f == slot[0] else slot[0]
    after = dict(before)
    after[pair.utt_id] = ((g, a, b),) + before[pair.utt_id][1:]

    dba_calls = _count_calls(monkeypatch, "dba_centroid")
    reused = m_step(corpus, after, TrainConfig(), state.params, prev_assignments=before)
    assert len(dba_calls) == 2
    rebuilt = m_step(corpus, after, TrainConfig(), state.params)
    assert len(dba_calls) == 2 + len(reused.live_clusters())
    for h in range(state.params.inventory.n_clusters):
        if h in (f, g):
            assert reused.prototypes[h] is not state.params.prototypes[h]
        else:
            assert reused.prototypes[h] is state.params.prototypes[h]
        if reused.prototypes[h] is not None:
            assert np.array_equal(reused.prototypes[h], rebuilt.prototypes[h])
    assert np.array_equal(reused.u, rebuilt.u)

    # Nothing changed: no DBA at all, and every prototype object survives.
    del dba_calls[:]
    same = m_step(corpus, before, TrainConfig(), state.params, prev_assignments=before)
    assert dba_calls == []
    assert same.prototypes == state.params.prototypes


@pytest.mark.parametrize("variant", ["deficient", "proper"])
def test_cost_rows_follow_prototype_objects(monkeypatch, variant):
    corpus = _small_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    params = initialize(corpus, TrainConfig(variant=variant), tables).params
    live = params.live_clusters()
    batches = _count_calls(monkeypatch, "span_cost_rows")

    def computed():
        protos = [p for batch in batches for p in batch]
        del batches[:]
        return protos

    def with_prototype(f, proto, u=params.u):
        protos = list(params.prototypes)
        protos[f] = proto
        return ModelParams(params.inventory, u, tuple(protos), params.lam, variant)

    store = Tables(corpus, tables.candidates)
    store.refresh(params)
    assert sorted(map(id, computed())) == sorted(id(params.prototypes[f]) for f in live)
    # Cost rows do not depend on lambda: a refresh under another one computes none.
    other = ModelParams(params.inventory, params.u, params.prototypes, 2.0, variant)
    store.refresh(other)
    assert computed() == []
    store.refresh(params)
    assert computed() == []

    # A new prototype object, even with equal frames, is recomputed; the rest are reused.
    f = live[0]
    copy = params.prototypes[f].copy()
    changed = with_prototype(f, copy)
    store.refresh(changed)
    assert computed() == [copy]
    for pair in corpus:
        spans = tables.candidates[pair.utt_id]
        for g in live:
            if variant == "proper" or params.inventory.owner[g] in pair.target_words:
                want = candidate_span_costs(changed.prototypes[g], pair.frames, SpanLanes(pair.frames, spans))
                assert np.array_equal(store.row(g, pair.utt_id), want)

    # A cluster that dies is dropped, so its rows are recomputed if it lives again.
    u = params.u.copy()
    u[f] = 0.0
    store.refresh(with_prototype(f, copy, u / u.sum()))
    store.refresh(changed)
    assert computed() == [copy]


@pytest.mark.parametrize("variant", ["deficient", "proper"])
def test_train_reuse_matches_recomputing_everything(variant):
    corpus = _small_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    config = TrainConfig(iterations=4, variant=variant)
    state = train(corpus, config, tables=tables)

    def fresh_tables():
        return Tables(corpus, tables.candidates)

    ref = initialize(corpus, config, fresh_tables())
    params, assignments = ref.params, ref.assignments
    totals = [ref.iteration_log[0].total_log_score]
    for _ in range(config.iterations):
        assignments, total = e_step(corpus, params, fresh_tables(), ref.delta, prev_assignments=assignments)
        params = m_step(corpus, assignments, config, params)
        totals.append(total)
    assert state.assignments == assignments
    assert [st.total_log_score for st in state.iteration_log] == totals
    assert np.array_equal(state.params.u, params.u)
    for mine, theirs in zip(state.params.prototypes, params.prototypes):
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert np.array_equal(mine, theirs)
    assert final_alignments(corpus, state, tables) == final_alignments(corpus, state, fresh_tables())
    # Another candidate set is scored through its own tables, on its own rows.
    narrow = Tables(
        corpus, {u: tuple(sorted({(a, b) for _, a, b in w})) for u, w in assignments.items()}
    )
    probe = TrainState(state.params, assignments, (), distortion_rows(narrow, state.params.lam))
    got = final_alignments(corpus, probe, narrow)
    for pair in corpus:
        candidates, mu = narrow.candidates[pair.utt_id], narrow.mu[pair.utt_id]
        for i, (word, (_, _, _, score)) in enumerate(zip(pair.target_words, got[pair.utt_id]), start=1):
            f, a, b = assignments[pair.utt_id][i - 1]
            want = word_log_score(i, word, f, a, b, pair, state.params, candidates, mu[i - 1])
            assert abs(score - want) <= 1e-12
    # Tables refuse a corpus whose pairs are not their own, even an equal one.
    other = _small_corpus()
    for call in (
        lambda: initialize(other, config, tables),
        lambda: e_step(other, state.params, tables, state.delta),
        lambda: final_alignments(other, state, tables),
    ):
        with pytest.raises(ValueError, match="another corpus"):
            call()


def test_distortion_built_once_per_word(monkeypatch):
    # The distortion is fixed for a run: training and final scoring share one matrix per utterance.
    corpus = _small_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    calls = _count_calls(monkeypatch, "log_delta_a")
    state = train(corpus, TrainConfig(iterations=3), tables)
    final_alignments(corpus, state, tables)
    assert calls == [i for pair in corpus for i in range(1, pair.l + 1)]


def test_variant_switch_matches_fresh_store():
    # Deficient rows cover a word's utterances and proper rows cover all of
    # them, so a store refreshed under the other variant must not keep any.
    corpus, _ = synth_generate(SynthConfig(sentences=30, vocab_size=20, noise_std=0.1, bounds=False))
    tables = build_tables(corpus, SegmentationConfig())
    state = train(corpus, TrainConfig(iterations=1), tables)
    proper = dataclasses.replace(state, params=dataclasses.replace(state.params, variant="proper"))
    fresh = Tables(corpus, tables.candidates)
    assert final_alignments(corpus, proper, tables) == final_alignments(corpus, proper, fresh)
    for params in (state.params, proper.params):
        got = e_step(corpus, params, tables, state.delta, prev_assignments=state.assignments)
        fresh = Tables(corpus, tables.candidates)
        assert got == e_step(corpus, params, fresh, state.delta, prev_assignments=state.assignments)


def test_train_iteration_log_and_determinism():
    corpus = _small_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    config = TrainConfig(iterations=2)
    s1 = train(corpus, config, tables=tables)
    s2 = train(corpus, config, tables=tables)
    assert len(s1.iteration_log) == 3
    assert [st.iteration for st in s1.iteration_log] == [0, 1, 2]
    assert s1.assignments == s2.assignments
    assert np.array_equal(s1.params.u, s2.params.u)
    assert [st.total_log_score for st in s1.iteration_log] == [
        st.total_log_score for st in s2.iteration_log
    ]


def test_train_zero_iterations_is_initialization_only():
    corpus = _small_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    state = train(corpus, TrainConfig(iterations=0), tables=tables)
    ref = initialize(corpus, TrainConfig(iterations=0), tables)
    assert len(state.iteration_log) == 1
    assert state.assignments == ref.assignments


def test_train_touches_no_file(monkeypatch):
    # train is a pure computation: each iteration_log row carries its
    # parameters, and cli.cmd_align alone writes them.
    corpus = _small_corpus(sentences=4)
    tables = build_tables(corpus, SegmentationConfig())
    config = TrainConfig(iterations=2)

    def refuse(*args, **kwargs):
        raise AssertionError("train touched the filesystem")

    for target, name in [
        (builtins, "open"), (io, "open"), (os, "open"), (os, "replace"), (os, "rename"),
        (os, "unlink"), (os, "remove"), (os, "mkdir"), (os, "makedirs"), (os, "scandir"),
        (pathlib.Path, "mkdir"), (pathlib.Path, "unlink"), (pathlib.Path, "touch"), (pathlib.Path, "glob"),
    ]:
        monkeypatch.setattr(target, name, refuse)
    state = train(corpus, config, tables=tables)
    monkeypatch.undo()

    assert [st.iteration for st in state.iteration_log] == [0, 1, 2]
    assert all(isinstance(st.params, ModelParams) for st in state.iteration_log)
    assert state.iteration_log[-1].params is state.params
    initial = initialize(corpus, config, tables).params
    assert np.array_equal(state.iteration_log[0].params.u, initial.u)
    assert not np.array_equal(initial.u, state.params.u)


def test_final_alignments_scores_are_finite():
    corpus = _small_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    state = train(corpus, TrainConfig(iterations=2), tables=tables)
    alignments = final_alignments(corpus, state, tables)
    assert set(alignments) == {p.utt_id for p in corpus}
    for pair in corpus:
        words = alignments[pair.utt_id]
        assert len(words) == pair.l
        for (f, a, b, score), assignment in zip(words, state.assignments[pair.utt_id]):
            assert (f, a, b) == assignment
            assert np.isfinite(score)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(iterations=-1),
        dict(k=0),
        dict(dba_iterations=0),
        dict(variant="soft"),
        dict(seed=-1),
        dict(lam=float("inf")),
        dict(lam=-1.0),
        dict(lam=float("nan")),
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


def _degenerate_corpus():
    """Edge-case utterances next to two ordinary ones, all normalized."""
    rng = np.random.default_rng(11)
    energy = np.ones(30)
    energy[12:20] = 0.0
    pairs = [
        _pair(rng, "one_frame", ["aa"], 1),
        _pair(rng, "two_frames", ["aa", "bbb"], 2),
        SentencePair("repeat", rng.standard_normal((30, 2)), ("aa", "c", "aa"), energy),
        _pair(rng, "single_word", ["bbb"], 12),
        _pair(rng, "plain_1", ["aa", "bbb", "c"], 24),
        _pair(rng, "plain_2", ["c", "aa"], 16),
    ]
    return Corpus(tuple(
        SentencePair(p.utt_id, normalize_utterance(p.frames), p.target_words, p.energy_track)
        for p in pairs
    ))


# sha256 of `_degenerate_digest_text` for each variant.  Like the golden
# digests, these assume the host's numpy `exp`/`log` dispatch.
DEGENERATE_DIGESTS = {
    "deficient": "a25ebfaf2102fd13c2d34a7b05ace6f5cfa7e8f79e545e08e5c1c6b7a775ddd2",
    "proper": "6218318ba959d3f1f5ac48fe4a59499c2f81f05c609032603e65fd6429819885",
}


def _degenerate_digest_text(alignments, state):
    """Every scored word (utt_id, cluster, a, b, score) and every iteration's objective, floats in hex."""
    lines = [
        f"{utt_id}\t{f}\t{a}\t{b}\t{float(score).hex()}"
        for utt_id, words in alignments.items()
        for f, a, b, score in words
    ]
    lines += [float(st.total_log_score).hex() for st in state.iteration_log]
    return "\n".join(lines)


@pytest.mark.parametrize("variant", ["deficient", "proper"])
def test_degenerate_utterances_end_to_end(variant):
    # The only corpus here with one-frame, two-frame and one-word
    # utterances: its digest pins the single-word mu clamp and the
    # one-frame distortion rows bit for bit.
    corpus = _degenerate_corpus()
    config = TrainConfig(iterations=3, variant=variant)

    def run():
        tables = build_tables(corpus, SegmentationConfig())
        state = train(corpus, config, tables)
        return tables, state, final_alignments(corpus, state, tables)

    tables, state, alignments = run()
    for pair in corpus:
        spans = set(tables.candidates[pair.utt_id])
        words = alignments[pair.utt_id]
        assert len(words) == pair.l
        for word, (f, a, b, score) in zip(pair.target_words, words):
            assert (a, b) in spans
            assert f in state.params.inventory.clusters[word]
            assert np.isfinite(score)
    _, again, alignments_again = run()
    assert alignments_again == alignments
    assert again.assignments == state.assignments
    assert np.array_equal(again.params.u, state.params.u)
    assert [st.total_log_score for st in again.iteration_log] == [
        st.total_log_score for st in state.iteration_log
    ]
    digest = hashlib.sha256(_degenerate_digest_text(alignments, state).encode()).hexdigest()
    assert digest == DEGENERATE_DIGESTS[variant]


def _repeated_type_corpus():
    """A noisy synthetic corpus plus sentences that repeat a word type.

    `synth` never repeats a type within a sentence, so these sentences are
    built here from its true prototypes: each word is followed by a loud,
    low-energy pause, and noise of the corpus's level is added on top.
    """
    base, true_params = synth_generate(SynthConfig(vocab_size=6, sentences=12, noise_std=0.1, bounds=False))
    protos = {true_params.inventory.owner[f]: p for f, p in enumerate(true_params.prototypes)}
    t = sorted(protos)
    rng = np.random.default_rng(5)
    pairs, gold = list(base.pairs), dict(base.gold)
    for n, words in enumerate([(t[0], t[1], t[0]), (t[2], t[2]), (t[3], t[4], t[3], t[5], t[4])]):
        chunks, energy, links, cursor = [], [], set(), 0
        for i, word in enumerate(words):
            links.update((i, j) for j in range(cursor, cursor + len(protos[word])))
            chunks += [protos[word], 3.0 * rng.standard_normal((10, protos[word].shape[1]))]
            energy += [rng.uniform(0.8, 1.2, len(protos[word])), rng.uniform(0.0, 0.02, 10)]
            cursor += len(protos[word]) + 10
        frames = np.concatenate(chunks) + rng.normal(0.0, 0.1, size=(cursor, chunks[0].shape[1]))
        utt_id = f"repeat{n}"
        pairs.append(SentencePair(utt_id, frames, words, np.concatenate(energy)))
        gold[utt_id] = frozenset(links)
    return Corpus(tuple(pairs), gold)


@pytest.mark.parametrize("lam", [0.5, 0.0])
def test_repeated_word_types_in_noisy_corpus(lam):
    corpus = _repeated_type_corpus()
    tables = build_tables(corpus, SegmentationConfig())
    config = TrainConfig(lam=lam)
    runs = []
    for _ in range(2):
        state = train(corpus, config, tables)
        runs.append((state.assignments, final_alignments(corpus, state, tables)))
    assert runs[0] == runs[1]

    assignments, alignments = runs[0]
    for pair in corpus:
        spans = set(tables.candidates[pair.utt_id])
        for _, a, b, score in alignments[pair.utt_id]:
            assert (a, b) in spans
            assert np.isfinite(score)
    assert np.isfinite(_split_f(alignments, corpus.gold, [pair.utt_id for pair in corpus]))
    if lam == 0.0:
        # A flat distortion scores every occurrence of a type on the same
        # table, so all of them take the same (cluster, span).
        for pair in corpus:
            by_type = {}
            for word, assignment in zip(pair.target_words, assignments[pair.utt_id]):
                assert by_type.setdefault(word, assignment) == assignment
