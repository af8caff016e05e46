import numpy as np
import pytest

from spanalign.corpus import SentencePair
from spanalign.evalkit import EvalReport, Scores, format_report, report_rows, score_links

from oracles import naive_baseline


def _pair(utt_id, words, m):
    rng = np.random.default_rng(abs(hash(utt_id)) % 2**32)
    return SentencePair(
        utt_id,
        rng.standard_normal((m, 2)),
        tuple(words),
    )


def test_score_links_hand_example():
    p, r, f = score_links({1, 2, 3}, {2, 3, 4})
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(2 / 3)
    assert f == pytest.approx(2 / 3)


def test_score_links_empty_conventions():
    assert score_links(set(), set()) == (1.0, 1.0, 1.0)
    assert score_links(set(), {1}) == (0.0, 0.0, 0.0)
    assert score_links({1}, set()) == (0.0, 0.0, 0.0)
    assert score_links({1}, {1}) == (1.0, 1.0, 1.0)


def test_naive_baseline_tiles_the_utterance():
    pair = _pair("u", ["ab", "cdef", "gh"], m=8)
    words = naive_baseline(pair)
    spans = [(a, b) for _, a, b, _ in words]
    assert spans == [(1, 2), (3, 6), (7, 8)]
    assert all(f is None and score == 0.0 for f, _, _, score in words)


def test_naive_baseline_covers_every_frame_once():
    pair = _pair("u", ["a", "bb", "ccc"], m=11)
    spans = [(a, b) for _, a, b, _ in naive_baseline(pair)]
    frames = [j for a, b in spans for j in range(a, b + 1)]
    assert frames == list(range(1, 12))


def test_format_report_layout():
    perfect = Scores(1.0, 1.0, 1.0)
    report = EvalReport(*perfect, per_utterance={"u1": perfect}, per_word_type={"aa": perfect})
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "precision\t1.000000"
    assert lines[4] == "utt_id\tprecision\trecall\tf_score"
    assert lines[5] == "u1\t1.000000\t1.000000\t1.000000"


def test_report_rows_round_trips_floats():
    # Predicted frames {0, 1} against gold frames {0, 2}: P = R = F = 1/2.
    half = score_links({0, 1}, {0, 2})
    report = EvalReport(*half, per_utterance={"u1": half}, per_word_type={"aa": half})
    rows = report_rows(report).splitlines()
    assert rows[0] == "scope\tname\tprecision\trecall\tf_score"
    corpus_row = rows[1].split("\t")
    assert corpus_row[:2] == ["corpus", "-"]
    # repr-formatted floats must parse back to the exact value
    assert float(corpus_row[2]) == report.precision
    assert float(corpus_row[4]) == report.f_score
    scopes = {row.split("\t")[0] for row in rows[1:]}
    assert scopes == {"corpus", "utterance", "word_type"}
