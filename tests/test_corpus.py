import math
import os
import re
import stat
from dataclasses import replace

import numpy as np
import pytest

from spanalign.corpus import (
    Corpus,
    CorpusError,
    SentencePair,
    atomic_write_text,
    links_to_intervals,
    load_corpus,
    normalize_utterance,
    read_boundary_file,
    read_energy_file,
    read_feature_file,
    read_gold_file,
    read_interval_rows,
    read_manifest,
    save_corpus,
    write_energy_file,
    write_feature_file,
    write_gold_file,
)
from spanalign import corpus as corpus_module
from spanalign.segmentation import SegmentationConfig
from spanalign.synth import SynthConfig, synth_generate


def make_pair(utt_id="u1", m=6, words=("ab", "cde")):
    frames = np.arange(m * 2, dtype=np.float64).reshape(m, 2)
    return SentencePair(
        utt_id=utt_id,
        frames=frames,
        target_words=tuple(words),
    )


def test_span_frames_are_readonly_1_indexed_inclusive_view():
    # Span (a, b) is 1-indexed inclusive: its frames are frames[a - 1 : b], a
    # read-only view, so DBA reads the corpus frames without copying them.
    pair = make_pair(m=5)
    a, b = 2, 4
    seg = pair.frames[a - 1 : b]
    np.testing.assert_array_equal(seg, pair.frames[1:4])
    assert np.shares_memory(seg, pair.frames) and not seg.flags.writeable


def test_sentence_pair_frames_readonly():
    pair = make_pair()
    with pytest.raises(ValueError):
        pair.frames[0, 0] = 1.0


@pytest.mark.parametrize(
    "frames, message",
    [(np.zeros(4), r"shape \(m>=1, d>=1\), got \(4,\)"),
     (np.zeros((0, 2)), r"shape \(m>=1, d>=1\), got \(0, 2\)"),
     (np.zeros((3, 0)), r"shape \(m>=1, d>=1\), got \(3, 0\)"),
     (np.array([[0.0, np.nan]]), "non-finite values"),
     (np.array([[np.inf], [0.0]]), "non-finite values")],
    ids=["one_dim", "no_frames", "no_dims", "nan", "inf"],
)
def test_sentence_pair_rejects_bad_frames(frames, message):
    with pytest.raises(CorpusError, match=message):
        SentencePair("u", frames, ("ab",))


def test_sentence_pair_keeps_contiguous_float64_frames_without_copy():
    # Cost rows are reused by prototype identity, so validation must not copy.
    frames = np.zeros((4, 2))
    pair = SentencePair("u", frames, ("ab",))
    assert pair.frames is frames and not frames.flags.writeable
    converted = SentencePair("u", np.asfortranarray(np.arange(8).reshape(4, 2)), ("ab",)).frames
    assert converted.dtype == np.float64 and converted.flags.c_contiguous and not converted.flags.writeable


# The frame shift is a segmentation setting: a corpus carries none.
@pytest.mark.parametrize("shift", [0.0, -10.0, math.nan, math.inf])
def test_corpus_rejects_bad_frame_shift(shift):
    with pytest.raises(ValueError, match=f"frame_shift_ms must be positive and finite, got {shift}$"):
        SegmentationConfig(frame_shift_ms=shift)


def test_load_corpus_sets_frame_shift(tmp_path):
    synthetic, _ = synth_generate(SynthConfig(seed=1, vocab_size=4, sentences=3))
    assert SegmentationConfig(frame_shift_ms=25.0).frame_shift_ms == 25.0
    save_corpus(synthetic, tmp_path)
    paths = (tmp_path / "manifest.txt", tmp_path, tmp_path / "translations.txt")
    assert not hasattr(load_corpus(*paths), "frame_shift_ms")
    assert SegmentationConfig().frame_shift_ms == 10.0
    assert SegmentationConfig(frame_shift_ms=12.5).frame_shift_ms == 12.5
    with pytest.raises(ValueError, match="frame_shift_ms must be positive and finite, got 0.0"):
        SegmentationConfig(frame_shift_ms=0.0)


def test_feature_file_round_trip(tmp_path):
    path = tmp_path / "a.feat"
    seq = np.random.default_rng(0).normal(size=(4, 3))
    write_feature_file(path, seq)
    back = read_feature_file(path)
    np.testing.assert_array_equal(back, seq)


def test_feature_file_bad_row_reports_line(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_text("2 2\n0 0\n0 x\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"bad\.feat:3"):
        read_feature_file(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "bad.feat: empty feature file"),
        ("2\n0 0\n0 0\n", "bad.feat:1: header must be 'm d', got '2'"),
        ("2 x\n0 0\n0 0\n", "bad.feat:1: header must be two integers, got '2 x'"),
        ("0 2\n", "bad.feat:1: header must declare m >= 1 and d >= 1, got '0 2'"),
        ("1 0\n\n", "bad.feat:1: header must declare m >= 1 and d >= 1, got '1 0'"),
        ("2 2\n0 0\n0\n", "bad.feat:3: expected 2 values, got 1"),
        ("3 1\n0\nnan\ninf\n", "bad.feat:3: non-finite feature value"),
        ("2 2\n0 0\n0 -inf\n", "bad.feat:3: non-finite feature value"),
    ],
    ids=["empty", "header_fields", "header_non_integer", "header_no_frames", "header_no_values",
         "row_width", "nan_first_bad_row", "inf"],
)
def test_feature_file_rejection_names_line(tmp_path, text, message):
    path = tmp_path / "bad.feat"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(message)):
        read_feature_file(path)


@pytest.mark.parametrize("tail", ["\n\n", "\n \n", "\n\n\n"])
def test_feature_file_ignores_trailing_blank_lines(tmp_path, tail):
    body = "2 2\n1 2\n3 4"
    (tmp_path / "clean.feat").write_text(body + "\n", encoding="utf-8")
    (tmp_path / "tail.feat").write_text(body + tail, encoding="utf-8")
    clean = read_feature_file(tmp_path / "clean.feat")
    np.testing.assert_array_equal(read_feature_file(tmp_path / "tail.feat"), clean)
    np.testing.assert_array_equal(clean, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("header", ["2 2", "3 2"])
def test_feature_file_rejects_inner_blank_line(tmp_path, header):
    path = tmp_path / "bad.feat"
    path.write_text(f"{header}\n1 2\n\n3 4\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape("bad.feat:3: expected 2 values, got 0")):
        read_feature_file(path)


def test_feature_file_row_count_mismatch(tmp_path):
    path = tmp_path / "short.feat"
    path.write_text("3 1\n0\n1\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        read_feature_file(path)


def test_energy_file_round_trip(tmp_path):
    path = tmp_path / "a.energy"
    e = np.asarray([0.5, 1.25, 0.0])
    write_energy_file(path, e)
    np.testing.assert_array_equal(read_energy_file(path, 3), e)
    with pytest.raises(CorpusError):
        read_energy_file(path, 4)


@pytest.mark.parametrize(
    "value, message",
    [("x", "non-numeric energy value"), ("nan", "energy must be finite and non-negative, got nan"),
     ("inf", "energy must be finite and non-negative, got inf"),
     ("-0.5", "energy must be finite and non-negative, got -0.5")],
    ids=["non_numeric", "nan", "inf", "negative"],
)
def test_energy_file_bad_value_reports_line(tmp_path, value, message):
    path = tmp_path / "u.energy"
    path.write_text(f"0.5\n\n{value}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=rf"u\.energy:3: {message}"):
        read_energy_file(path, 2)


@pytest.mark.parametrize(
    "value, message",
    [("x", "non-integer boundary"), ("2.5", "non-integer boundary"), ("5", "boundary 5 outside [1, 4]")],
    ids=["non_integer", "fraction", "past_m"],
)
def test_boundary_file_bad_value_reports_line(tmp_path, value, message):
    path = tmp_path / "u.bounds"
    path.write_text(f"2\n\n{value}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(f"u.bounds:3: {message}")):
        read_boundary_file(path, 4)


@pytest.mark.parametrize(
    "name, read, good, bad, message, blank",
    [("u.energy", lambda p: read_energy_file(p, 3), "0.5", "x", "non-numeric energy value",
      "expected 3 energy values, got 0"),
     ("u.bounds", lambda p: read_boundary_file(p, 4), "2", "x", "non-integer boundary", ()),
     ("gold.tsv", read_gold_file, "u\t0\t0\t2", "u\t0\t3\t1", "invalid interval [3, 1)", {}),
     ("alignments.tsv", lambda p: list(read_interval_rows(p, 7, (1, 4, 5))), "u\t0\tw\t0\t0\t2\t-1.0",
      "u\t0\tw", "expected 7 tab-separated fields", [])],
    ids=["energy", "bounds", "gold", "alignment"],
)
def test_row_readers_skip_blank_lines(tmp_path, name, read, good, bad, message, blank):
    # Blank lines, a \r\n ending and a lone \r each count toward the row number.
    path = tmp_path / name
    path.write_bytes(f"\n{good}\r\n \n{good}\r{bad}\n".encode())
    with pytest.raises(CorpusError, match=re.escape(f"{path}:5: {message}")):
        read(path)
    # So they do for a byte that is not UTF-8, after a byte-order mark.
    path.write_bytes(b"\xef\xbb\xbf" + f"\n{good}\r\n \n{good}\r".encode() + b"\xff\n")
    with pytest.raises(CorpusError, match=re.escape(f"{path}:5: not UTF-8 text")):
        read(path)
    path.write_bytes(b"\n \r\n\r\t\n")
    if isinstance(blank, str):  # a message: the reader needs rows
        with pytest.raises(CorpusError, match=re.escape(f"{path}: {blank}")):
            read(path)
    else:
        assert read(path) == blank


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "f.txt"
    atomic_write_text(path, "one\n")
    atomic_write_text(path, "two\n")
    assert path.read_text(encoding="utf-8") == "two\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "f.txt", "one\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "f.txt").stat().st_mode) == mode


def test_links_to_intervals_groups_runs():
    links = [(0, 0), (0, 1), (0, 2), (1, 5), (1, 7)]
    assert links_to_intervals(links) == [(0, 0, 3), (1, 5, 6), (1, 7, 8)]


def test_gold_file_round_trip(tmp_path):
    path = tmp_path / "gold.tsv"
    gold = {
        "u1": frozenset({(0, 0), (0, 1), (1, 4)}),
        "u2": frozenset({(0, 2)}),
    }
    write_gold_file(path, gold)
    assert read_gold_file(path) == gold


@pytest.mark.parametrize(
    "row, message",
    [("u1\t0\t3", "expected 4 tab-separated fields"), ("u1\t0\t3\t3", "invalid interval [3, 3)"),
     ("u1\t0\t4\t3", "invalid interval [4, 3)"), ("u1\tx\t0\t3", "non-integer field")],
    ids=["field_count", "empty_interval", "reversed_interval", "non_integer"],
)
def test_gold_file_bad_row_reports_line(tmp_path, row, message):
    path = tmp_path / "gold.tsv"
    path.write_text(f"u1\t0\t0\t2\n{row}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(f"gold.tsv:2: {message}")):
        read_gold_file(path)


def test_duplicate_utterance_rejected():
    with pytest.raises(CorpusError, match="duplicate"):
        Corpus(pairs=(make_pair("x"), make_pair("x")))


def test_gold_out_of_range_rejected():
    pair = make_pair("u1", m=4)
    gold = {"u1": frozenset({(0, 9)})}
    with pytest.raises(CorpusError, match="out of range"):
        Corpus(pairs=(pair,), gold=gold)


def test_gold_for_unknown_utterance_rejected():
    gold = {"zz": frozenset({(0, 0)})}
    with pytest.raises(CorpusError, match="gold alignment for unknown utterance 'zz'"):
        Corpus(pairs=(make_pair("u1"),), gold=gold)


def test_empty_token_rejected():
    with pytest.raises(CorpusError, match="u: empty token"):
        SentencePair("u", np.zeros((2, 1)), ("ab", ""))


def test_char_lengths_follow_tokens():
    assert make_pair(words=("ab", "cde")).char_lengths == (2, 3)


def test_sentence_pair_rejects_fewer_frames_than_words():
    # Every word takes a span of at least one frame.
    with pytest.raises(CorpusError, match="short: 1 frames cannot cover 2 words"):
        SentencePair("short", np.zeros((1, 2)), ("aa", "bb"))
    assert SentencePair("even", np.zeros((2, 2)), ("aa", "bb")).m == 2


@pytest.mark.parametrize(
    "energy, message",
    [(np.array([1.0, -0.5, 0.2]), "energy track must be finite and non-negative"),
     (np.array([1.0, np.nan, 0.2]), "energy track must be finite and non-negative"),
     (np.ones(5), "energy track length does not match frame count"),
     (np.ones((3, 2)), "energy track length does not match frame count")],
    ids=["negative", "nan", "wrong_length", "two_dim"],
)
def test_sentence_pair_rejects_bad_energy_track(energy, message):
    # The pair is the one home of the track's rule; detect_silence trusts it.
    with pytest.raises(CorpusError, match=f"u: {message}"):
        SentencePair("u", np.zeros((3, 1)), ("ab",), energy_track=energy)


@pytest.mark.parametrize("boundaries", [(0, 3), (3, 7)], ids=["zero", "past_m"])
def test_boundaries_must_lie_inside_utterance(boundaries):
    with pytest.raises(CorpusError, match=r"u: boundaries must lie in \[1, 6\]"):
        SentencePair("u", np.zeros((6, 1)), ("ab",), boundaries=boundaries)


def test_boundary_file_keeps_file_order_and_pair_sorts(tmp_path):
    # The reader checks each line; SentencePair alone sorts and drops repeats.
    path = tmp_path / "u.bounds"
    path.write_text("5\n2\n5\n", encoding="utf-8")
    points = read_boundary_file(path, 6)
    assert points == (5, 2, 5)
    assert SentencePair("u", np.zeros((6, 1)), ("ab",), boundaries=points).boundaries == (2, 5)


def test_normalize_utterance_zero_mean_unit_variance():
    seq = np.random.default_rng(1).normal(3.0, 2.5, size=(40, 4))
    norm = normalize_utterance(seq)
    assert np.abs(norm.mean(axis=0)).max() < 1e-9
    assert np.abs(norm.var(axis=0) - 1.0).max() < 1e-6


def test_normalize_constant_dimension_centered_only():
    frames = np.zeros((5, 2))
    frames[:, 0] = 7.0
    frames[:, 1] = np.arange(5)
    norm = normalize_utterance(frames)
    np.testing.assert_allclose(norm[:, 0], 0.0)
    assert norm[:, 1].var() == pytest.approx(1.0)


def test_corpus_save_load_round_trip(tmp_path):
    corpus, _ = synth_generate(SynthConfig(seed=1, vocab_size=4, sentences=3, bounds=False))
    first = replace(corpus.pairs[0], boundaries=(5, 2))  # only this pair gets a .bounds sidecar
    corpus = Corpus((first, *corpus.pairs[1:]), corpus.gold)
    save_corpus(corpus, tmp_path)
    assert sorted(p.name for p in tmp_path.glob("*.bounds")) == [f"{first.utt_id}.bounds"]
    back = load_corpus(
        tmp_path / "manifest.txt",
        tmp_path,
        tmp_path / "translations.txt",
        gold_path=tmp_path / "gold.tsv",
    )
    assert len(back) == len(corpus)
    for a, b in zip(corpus.pairs, back.pairs):
        assert a.utt_id == b.utt_id
        assert a.target_words == b.target_words
        np.testing.assert_array_equal(a.frames, b.frames)
        np.testing.assert_array_equal(a.energy_track, b.energy_track)
        assert a.boundaries == b.boundaries
    assert back.pairs[0].boundaries == (2, 5)
    assert back.gold == corpus.gold


def test_corpus_save_removes_stale_optional_files(tmp_path):
    old, _ = synth_generate(SynthConfig(seed=0, vocab_size=4, sentences=3))
    save_corpus(old, tmp_path)
    assert (tmp_path / "gold.tsv").exists()
    new, _ = synth_generate(SynthConfig(seed=5, vocab_size=4, sentences=3, bounds=False))
    assert [p.utt_id for p in new.pairs] == [p.utt_id for p in old.pairs]
    new = Corpus(tuple(replace(p, energy_track=None) for p in new.pairs), None)
    save_corpus(new, tmp_path)
    assert sorted(tmp_path.glob("*.energy")) == sorted(tmp_path.glob("*.bounds")) == []
    assert not (tmp_path / "gold.tsv").exists()
    back = load_corpus(tmp_path / "manifest.txt", tmp_path, tmp_path / "translations.txt")
    for a, b in zip(new.pairs, back.pairs):
        np.testing.assert_array_equal(a.frames, b.frames)
        assert b.energy_track is None and b.boundaries == ()


def test_synth_same_seed_bit_identical():
    cfg = SynthConfig(seed=9, vocab_size=5, sentences=4)
    c1, p1 = synth_generate(cfg)
    c2, p2 = synth_generate(cfg)
    for a, b in zip(c1.pairs, c2.pairs):
        np.testing.assert_array_equal(a.frames, b.frames)
        assert a.target_words == b.target_words
    for f in range(len(p1.prototypes)):
        np.testing.assert_array_equal(p1.prototypes[f], p2.prototypes[f])


def test_synth_gold_tiles_frames_without_silence():
    corpus, _ = synth_generate(SynthConfig(seed=2, vocab_size=3, sentences=5, silence_prob=0.0))
    for pair in corpus.pairs:
        covered = sorted(j for (_, j) in corpus.gold[pair.utt_id])
        assert covered == list(range(pair.m))


def test_synth_gold_spans_in_bounds_and_disjoint():
    corpus, _ = synth_generate(SynthConfig(seed=3, vocab_size=6, sentences=6))
    for pair in corpus.pairs:
        per_word = {}
        seen_frames = set()
        for (w, j) in corpus.gold[pair.utt_id]:
            assert 0 <= j < pair.m
            per_word.setdefault(w, []).append(j)
            assert j not in seen_frames
            seen_frames.add(j)
        for js in per_word.values():
            js.sort()
            assert js == list(range(js[0], js[-1] + 1))


def test_synth_true_params_reference_all_words():
    corpus, params = synth_generate(SynthConfig(seed=5, vocab_size=4, sentences=4))
    for pair in corpus.pairs:
        for word in pair.target_words:
            assert word in params.inventory.clusters


def test_synth_prototype_lengths_cover_range():
    config = SynthConfig(vocab_size=20, sentences=10, proto_len_min=5, proto_len_max=8)
    corpus, params = synth_generate(config)
    lengths = {proto.shape[0] for proto in params.prototypes}
    assert lengths == {5, 6, 7, 8}
    # Each word's gold span is exactly its prototype.
    proto_len = {params.inventory.owner[f]: proto.shape[0] for f, proto in enumerate(params.prototypes)}
    for pair in corpus.pairs:
        counts = {}
        for w, _ in corpus.gold[pair.utt_id]:
            counts[w] = counts.get(w, 0) + 1
        assert counts == {w: proto_len[word] for w, word in enumerate(pair.target_words)}


@pytest.mark.parametrize("bounds", [True, False])
def test_synth_bounds_are_the_gold_word_edges(bounds):
    config = SynthConfig(seed=4, vocab_size=6, sentences=6, silence_prob=0.5, bounds=bounds)
    corpus, _ = synth_generate(config)
    for pair in corpus.pairs:
        edges = {j for _, s, e in links_to_intervals(corpus.gold[pair.utt_id]) for j in (s + 1, e)}
        assert pair.boundaries == (tuple(sorted(edges)) if bounds else ())


def test_synth_rejects_degenerate_config():
    with pytest.raises(ValueError, match="vocab_size must be >= 1"):
        SynthConfig(vocab_size=0, sentences=3)
    with pytest.raises(ValueError, match="need 1 <= proto_len_min <= proto_len_max, got 0 and 8"):
        SynthConfig(vocab_size=3, sentences=3, proto_len_min=0)
    with pytest.raises(ValueError, match="need 1 <= proto_len_min <= proto_len_max, got 9 and 8"):
        SynthConfig(proto_len_min=9)
    for noise_std in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"noise_std must be finite and >= 0, got {noise_std}"):
            SynthConfig(noise_std=noise_std)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SynthConfig(seed=-1)
    # Words are drawn without replacement, so a 3-type vocabulary cannot fill 5 words.
    with pytest.raises(ValueError, match="sentence_len_min must be <= vocab_size, got 5 and 3"):
        SynthConfig(vocab_size=3, sentence_len_min=5, sentence_len_max=8, sentences=4)
    # Tokens are 5 letters, so no vocabulary holds more than 26**5 types; the config alone is built.
    with pytest.raises(ValueError, match="vocab_size must be <= 11881376, the number of 5-letter tokens"):
        SynthConfig(vocab_size=26**5 + 1)
    assert SynthConfig(vocab_size=26**5).vocab_size == 26**5


def test_load_corpus_missing_feature_file(tmp_path):
    (tmp_path / "manifest.txt").write_text("u1\n", encoding="utf-8")
    (tmp_path / "translations.txt").write_text("hello world\n", encoding="utf-8")
    with pytest.raises((CorpusError, OSError)):
        load_corpus(tmp_path / "manifest.txt", tmp_path, tmp_path / "translations.txt")


def test_load_corpus_translation_count_mismatch(tmp_path):
    (tmp_path / "manifest.txt").write_text("u1\nu2\n", encoding="utf-8")
    (tmp_path / "translations.txt").write_text("only one line\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "manifest.txt", tmp_path, tmp_path / "translations.txt")


@pytest.mark.parametrize(
    "manifest, translations, message",
    [("\n\n", "a b\n", "manifest.txt: empty manifest"),
     ("u1\nu2\n", "\na b\n", "translations.txt:1: empty sentence for u1")],
    ids=["empty_manifest", "empty_translation"],
)
def test_load_corpus_rejects_empty_text_inputs(tmp_path, manifest, translations, message):
    # No .feat file exists, so each rejection comes before any feature file is read.
    (tmp_path / "manifest.txt").write_text(manifest, encoding="utf-8")
    (tmp_path / "translations.txt").write_text(translations, encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(message)):
        load_corpus(tmp_path / "manifest.txt", tmp_path, tmp_path / "translations.txt")


def test_manifest_rejects_repeated_id_before_reading_features(tmp_path, monkeypatch):
    corpus, _ = synth_generate(SynthConfig(seed=1, vocab_size=4, sentences=3))
    save_corpus(corpus, tmp_path)
    ids = [p.utt_id for p in corpus.pairs]
    (tmp_path / "manifest.txt").write_text("\n".join([*ids, ids[1]]) + "\n", encoding="utf-8")
    (tmp_path / "translations.txt").write_text("a\nb\nc\nd\n", encoding="utf-8")
    read = []
    monkeypatch.setattr(corpus_module, "read_feature_file", lambda path: read.append(path))
    with pytest.raises(CorpusError, match=re.escape(f"manifest.txt:4: utterance id {ids[1]!r} repeats line 2")):
        load_corpus(tmp_path / "manifest.txt", tmp_path, tmp_path / "translations.txt")
    assert read == []


def test_manifest_rejects_tab_in_id_before_reading_features(tmp_path, monkeypatch):
    # Alignment and gold rows are tab-separated: a tab in an id would add a field to each row.
    (tmp_path / "manifest.txt").write_text("u1\nu\t2\n", encoding="utf-8")
    (tmp_path / "translations.txt").write_text("a\nb\n", encoding="utf-8")
    read = []
    monkeypatch.setattr(corpus_module, "read_feature_file", lambda path: read.append(path))
    with pytest.raises(CorpusError, match=re.escape("manifest.txt:2: utterance id 'u\\t2' contains a tab")):
        load_corpus(tmp_path / "manifest.txt", tmp_path, tmp_path / "translations.txt")
    assert read == []


def test_load_corpus_normalizes_before_building_pairs(tmp_path):
    corpus, _ = synth_generate(SynthConfig(seed=2, vocab_size=4, sentences=3, noise_std=0.3))
    save_corpus(corpus, tmp_path)
    paths = (tmp_path / "manifest.txt", tmp_path, tmp_path / "translations.txt")
    raw, normalized = load_corpus(*paths), load_corpus(*paths, normalize=True)
    for pair, norm in zip(raw.pairs, normalized.pairs):
        want = normalize_utterance(read_feature_file(tmp_path / f"{pair.utt_id}.feat"))
        assert norm.frames.shape == want.shape and norm.frames.tobytes() == want.tobytes()
        assert normalize_utterance(pair.frames).tobytes() == want.tobytes()
        assert not norm.frames.flags.writeable


# Characters that `str.splitlines` treats as line breaks besides "\n" and "\r".
OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", OTHER_BREAKS)
def test_text_inputs_break_only_at_newlines(tmp_path, char):
    (tmp_path / "manifest.txt").write_text(f"u{char}1\nu2\n", encoding="utf-8")
    assert read_manifest(tmp_path / "manifest.txt") == [f"u{char}1", "u2"]
    (tmp_path / "a.feat").write_text(f"2 2\n0{char}1\n2 3\n", encoding="utf-8")
    np.testing.assert_array_equal(read_feature_file(tmp_path / "a.feat"), [[0.0, 1.0], [2.0, 3.0]])
    # A break character inside a sentence separates tokens, not sentences.
    (tmp_path / "manifest.txt").write_text("u1\nu2\n", encoding="utf-8")
    (tmp_path / "translations.txt").write_text(f"ab{char}cd\nef\n", encoding="utf-8")
    for utt_id in ("u1", "u2"):
        write_feature_file(tmp_path / f"{utt_id}.feat", np.zeros((4, 1)))
    corpus = load_corpus(tmp_path / "manifest.txt", tmp_path, tmp_path / "translations.txt")
    assert [p.target_words for p in corpus.pairs] == [("ab", "cd"), ("ef",)]
