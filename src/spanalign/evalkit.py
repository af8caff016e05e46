"""Frame-level alignment evaluation against gold links.

Links are (word_index, frame_index) pairs, both 0-indexed; spans inside
the package are 1-indexed inclusive, so conversion happens here.  All
corpus-level figures are micro-averages over links pooled across
utterances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .corpus import Corpus, SentencePair

Link = tuple[int, int]
Word = tuple[int, int, int, float]  # (cluster, span start, span end, log score)


class Scores(NamedTuple):
    precision: float
    recall: float
    f_score: float


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f_score: float
    per_utterance: dict[str, Scores]
    per_word_type: dict[str, Scores]


def alignment_to_links(words: tuple[Word, ...], pair: SentencePair) -> set[Link]:
    """Expand the words' inclusive 1-indexed spans on `pair` into 0-indexed (word, frame) links."""
    links = set()
    for w_idx, (_, a, b, _) in enumerate(words):
        if not (1 <= a <= b <= pair.m):
            raise ValueError(f"{pair.utt_id}: span ({a}, {b}) outside [1, {pair.m}]")
        links.update((w_idx, j - 1) for j in range(a, b + 1))
    return links


def score_links(predicted: set, gold: set) -> Scores:
    """Precision, recall, F over link sets.

    An empty side scores 1.0 against an empty counterpart and 0.0
    otherwise; F is the harmonic mean, 0 when both P and R vanish.
    """
    hits = len(predicted & gold)
    if predicted:
        precision = hits / len(predicted)
    else:
        precision = 1.0 if not gold else 0.0
    if gold:
        recall = hits / len(gold)
    else:
        recall = 1.0 if not predicted else 0.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return Scores(precision, recall, f_score)


def evaluate(
    alignments: dict[str, tuple[Word, ...]],
    gold: dict[str, frozenset[Link]],
    corpus: Corpus,
) -> Scores:
    """Micro-averaged scores over the links of `corpus`; a missing side counts as empty."""
    pooled_pred = set()
    pooled_gold = set()
    for pair in corpus:
        if pair.utt_id in alignments:
            links = alignment_to_links(alignments[pair.utt_id], pair)
            pooled_pred.update((pair.utt_id, w, j) for w, j in links)
        if pair.utt_id in gold:
            pooled_gold.update((pair.utt_id, w, j) for w, j in gold[pair.utt_id])
    return score_links(pooled_pred, pooled_gold)


def format_report(report: EvalReport) -> str:
    """Structured text dump: corpus figures then a per-utterance table."""
    lines = [
        f"precision\t{report.precision:.6f}",
        f"recall\t{report.recall:.6f}",
        f"f_score\t{report.f_score:.6f}",
        "",
        "utt_id\tprecision\trecall\tf_score",
    ]
    for utt_id, (p, r, f) in report.per_utterance.items():
        lines.append(f"{utt_id}\t{p:.6f}\t{r:.6f}\t{f:.6f}")
    return "\n".join(lines) + "\n"


def report_rows(report: EvalReport) -> str:
    """Machine-readable TSV: corpus row, then utterance and word-type rows."""
    lines = ["scope\tname\tprecision\trecall\tf_score"]
    lines.append(
        f"corpus\t-\t{report.precision!r}\t{report.recall!r}\t{report.f_score!r}"
    )
    for utt_id, (p, r, f) in report.per_utterance.items():
        lines.append(f"utterance\t{utt_id}\t{p!r}\t{r!r}\t{f!r}")
    for word, (p, r, f) in report.per_word_type.items():
        lines.append(f"word_type\t{word}\t{p!r}\t{r!r}\t{f!r}")
    return "\n".join(lines) + "\n"
